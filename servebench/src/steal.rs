//! Steal time: CPU time a virtual CPU was ready to run while the host ran
//! something else, read from the kernel's `/proc/stat`. On a shared
//! virtual machine it comes in stretches that slow every layer at once,
//! so the benchmark measures the stretches and leaves them out.

/// Cumulative CPU time of the whole machine, in clock ticks.
#[derive(Clone, Copy)]
pub struct CpuTimes {
    steal: u64,
    total: u64,
}

/// `None` where `/proc/stat` is unavailable; no time then counts as
/// stolen.
pub fn cpu_times() -> Option<CpuTimes> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some(CpuTimes {
        // user nice system idle iowait irq softirq steal ...
        steal: *fields.get(7)?,
        total: fields.iter().take(8).sum(),
    })
}

/// The share of CPU time stolen between two readings.
pub fn share(from: Option<CpuTimes>, to: Option<CpuTimes>) -> f64 {
    match (from, to) {
        (Some(a), Some(b)) if b.total > a.total => {
            (b.steal - a.steal) as f64 / (b.total - a.total) as f64
        }
        _ => 0.0,
    }
}
