//! The serving benchmark: a live `cqd2-serve` under a closed-loop load
//! of two connections, every answer checked, plus a traced run that
//! splits the round trip into layers. See `README.md` beside this crate.
//!
//! ```text
//! cqd2-servebench --server PATH --work-dir DIR
//!     --workload warm-read|cold-prepare|update-mix
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. A wrong answer, a
//! failed regime self-check or non-deterministic generation prints
//! `"correct": false` and exits 1; any other failure exits 1 without a
//! result.

mod gen;
mod layers;
mod load;
mod oracle;
mod report;
mod server;
mod steal;

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use cqd2::engine::server::wire::WireStats;
use cqd2::engine::store;

use gen::{DeltaPair, Mode, Template, Workload};
use load::{Conn, DeltaSample, Plan, QuerySample, Tally};
use oracle::{Oracle, States};
use report::{median, percentile, Metric};
use server::ServerProcess;

/// Server start-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// A one-second slice of the window is calm when the machine lost at
/// most this share of its CPU time to steal. Only calm slices are
/// reported (see [`kept`]).
const STEAL_LIMIT: f64 = 0.10;
/// `delta_p90_us` is the median of the p90s of consecutive groups of
/// this many deltas.
const DELTA_GROUP: usize = 20;
/// The window is cut into slices of this length: the unit of the steal
/// check and of `query_p99_us`.
const SLICE: Duration = Duration::from_secs(1);
/// Renamed queries sent during `cold-prepare` setup: the server's
/// prepared-cache capacity, so the timed window starts with it full.
const PREPARED_PREFILL: usize = 256;

/// Why a run ends without a result.
#[derive(Debug)]
pub enum Failure {
    /// A wrong answer, a failed regime self-check or non-deterministic
    /// generation: reported as `"correct": false`.
    Incorrect(String),
    /// Anything else (bad arguments, a server that would not start).
    Error(String),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Incorrect(m) => write!(f, "INCORRECT: {m}"),
            Failure::Error(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for Failure {}

impl From<String> for Failure {
    fn from(message: String) -> Failure {
        Failure::Error(message)
    }
}

impl From<&str> for Failure {
    fn from(message: &str) -> Failure {
        Failure::Error(message.to_string())
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    server: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut server, mut work_dir) = (None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            "--server" => server = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        server: server.ok_or("--server is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

/// Everything generated from the seed.
struct Inputs {
    db: cqd2::cq::Database,
    snapshot: Vec<u8>,
    templates: Vec<Template>,
    texts: Vec<String>,
    deltas: DeltaPair,
}

fn generate(workload: Workload, seed: u64) -> Inputs {
    let shape = gen::shape(workload);
    let db = gen::database(&shape, seed);
    let templates = gen::templates(&shape);
    let texts = templates.iter().map(|t| t.render("v")).collect();
    let deltas = gen::delta_pair(&shape, &db, seed);
    Inputs {
        snapshot: store::encode_snapshot(&db),
        db,
        templates,
        texts,
        deltas,
    }
}

impl Inputs {
    /// The bytes the determinism check compares: the `.cqds` file, the
    /// query texts, the delta scripts and the first requests of both
    /// connections' streams.
    fn transcript(&self, workload: Workload, seed: u64) -> Vec<u8> {
        let mut out = self.snapshot.clone();
        for text in self
            .texts
            .iter()
            .chain([&self.deltas.forward_text, &self.deltas.inverse_text])
        {
            out.extend_from_slice(text.as_bytes());
        }
        for connection in 0..2 {
            let mut schedule = gen::Schedule::new(seed, connection, self.templates.len());
            for index in 0..1000 {
                let (template, mode) = schedule.next_request();
                let text = gen::query_text(
                    workload,
                    &self.templates,
                    &self.texts,
                    template,
                    connection,
                    index,
                );
                out.extend_from_slice(gen::batch_text(&text, mode, false).as_bytes());
            }
        }
        out
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cqd2-servebench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(o) => print_result(
            true,
            o.tally.attempted,
            o.tally.failed,
            &o.metrics,
            &o.ungated,
        ),
        Err(e @ Failure::Incorrect(_)) => {
            eprintln!("cqd2-servebench: {e}");
            print_result(false, 1, 1, &[], &[]);
            std::process::exit(1);
        }
        Err(Failure::Error(e)) => {
            eprintln!("cqd2-servebench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<Outcome, Failure> {
    let workload = args.workload;
    let seed = args.seed;

    // Generation and the oracle come first and never count as setup.
    let inputs = generate(workload, seed);
    if inputs.transcript(workload, seed) != generate(workload, seed).transcript(workload, seed) {
        return Err(Failure::Incorrect(
            "the same seed generated different inputs".to_string(),
        ));
    }
    oracle::cross_check(&inputs.templates, seed)?;
    let oracle = Oracle::new(&inputs.templates, &inputs.db, &inputs.deltas.forward)?;
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("creating {}: {e}", args.work_dir.display()))?;
    let snapshot_path = args.work_dir.join(format!(
        "{}-{seed}.cqds",
        format!("{workload:?}").to_lowercase()
    ));
    std::fs::write(&snapshot_path, &inputs.snapshot)
        .map_err(|e| format!("writing {}: {e}", snapshot_path.display()))?;
    let plan = Plan {
        workload,
        seed,
        templates: &inputs.templates,
        texts: &inputs.texts,
        oracle: &oracle,
        deltas: &inputs.deltas,
    };

    // Setup: spawn, load, connect and warm up, several times over.
    let mut setup_s = Vec::new();
    let (server, mut conns, mut admin) = loop {
        let start = Instant::now();
        let server = ServerProcess::spawn(&args.server, &snapshot_path)?;
        let mut conns = vec![Conn::open(&server.addr)?, Conn::open(&server.addr)?];
        let admin = Conn::open(&server.addr)?;
        warm_up(&plan, &mut conns)?;
        setup_s.push(start.elapsed().as_secs_f64());
        if setup_s.len() == SETUPS {
            break (server, conns, admin);
        }
        drop((conns, admin));
        server.stop()?;
    };

    // The timed window: `seconds` one-second slices.
    let before = stats(&mut admin)?;
    let start = Instant::now();
    let stop = AtomicBool::new(false);
    let plan_ref = &plan;
    let (tallies, stolen) = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let stop = &stop;
                s.spawn(move || conn.run_window(plan_ref, c as u64, start, stop, args.trace))
            })
            .collect();
        let stolen = watch_steal(start, args.seconds as usize);
        stop.store(true, Ordering::Relaxed);
        let tallies: Vec<Result<Tally, Failure>> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(Failure::Error("a load thread panicked".to_string())))
            })
            .collect();
        (tallies, stolen)
    });
    let mut tally = Tally::default();
    for t in tallies {
        tally.merge(t?);
    }
    let rss_mb = server.peak_rss_mb()?;
    let after = stats(&mut admin)?;
    check_regime(workload, &before, &after, &tally).map_err(Failure::Incorrect)?;
    let keep = kept(&stolen);
    let in_kept_slice = |t: Instant| {
        let slice = ((t - start).as_secs_f64() / SLICE.as_secs_f64()) as usize;
        keep.get(slice).copied().unwrap_or(false)
    };
    let mut deltas = std::mem::take(&mut tally.deltas);
    if !args.trace {
        tally.queries.retain(|q| in_kept_slice(q.done));
        deltas.retain(|d| in_kept_slice(d.done));
    }
    println!(
        "window: {} one-second slices, {} calm, {} reported",
        stolen.len(),
        calm(&stolen),
        keep.iter().filter(|&&k| k).count()
    );

    // Final pass: every count matches the state the last delta left.
    let state = conns[1].state();
    for (template, text) in inputs.texts.iter().enumerate() {
        conns[0]
            .query(
                &plan,
                template,
                text,
                Mode::Count,
                States::Only(state),
                false,
            )?
            .ok_or("a final-pass query was rejected")?;
    }
    drop((conns, admin));
    server.stop()?;

    let (metrics, ungated) = if args.trace {
        let mut m = per_layer(&tally, &deltas, &before, &after);
        m.extend(layers::replay(
            &snapshot_path,
            &inputs.db,
            &inputs.templates,
            &inputs.deltas,
        )?);
        (m, Vec::new())
    } else {
        end_to_end(&tally, &deltas, start, &keep, &setup_s, rss_mb)
    };
    let _ = std::fs::remove_file(&snapshot_path);
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(Failure::Error(format!("{} is not a finite number", m.name)));
    }
    Ok(Outcome {
        tally,
        metrics,
        ungated,
    })
}

/// A finished run: the `BENCHMARK.json` metrics of its mode, plus the
/// `update-mix` delta figures, which are printed but left out of the
/// result object: they read 0 on the workloads that send no deltas, and
/// a gated figure must never read 0.
struct Outcome {
    tally: Tally,
    metrics: Vec<Metric>,
    ungated: Vec<Metric>,
}

/// The share of CPU time stolen in each of `slices` one-second slices
/// from `start`.
fn watch_steal(start: Instant, slices: usize) -> Vec<f64> {
    let mut stolen: Vec<f64> = Vec::new();
    let mut cpu = steal::cpu_times();
    while stolen.len() < slices {
        let boundary = start + SLICE * (stolen.len() as u32 + 1);
        std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
        let now = steal::cpu_times();
        stolen.push(steal::share(cpu, now));
        cpu = now;
    }
    stolen
}

fn calm(stolen: &[f64]) -> usize {
    stolen.iter().filter(|&&s| s <= STEAL_LIMIT).count()
}

/// Which slices to report: the calm ones when at least half of them are
/// calm, else the half with the least steal.
fn kept(stolen: &[f64]) -> Vec<bool> {
    let least = stolen.len().div_ceil(2);
    if calm(stolen) >= least {
        return stolen.iter().map(|&s| s <= STEAL_LIMIT).collect();
    }
    let mut order: Vec<usize> = (0..stolen.len()).collect();
    order.sort_by(|&a, &b| stolen[a].total_cmp(&stolen[b]));
    let mut keep = vec![false; stolen.len()];
    for &i in order.iter().take(least) {
        keep[i] = true;
    }
    keep
}

fn stats(admin: &mut Conn) -> Result<WireStats, Failure> {
    Ok(admin
        .client()
        .stats()
        .map_err(|e| format!("stats request failed: {e}"))?)
}

/// Fill the caches the timed window relies on: the plan cache with every
/// structure class (through renamings, so that the texts prepared next
/// count plan-cache hits), then the prepared cache with every text in
/// every mode, or on `cold-prepare` with as many renamings as it holds.
fn warm_up(plan: &Plan<'_>, conns: &mut [Conn]) -> Result<(), Failure> {
    let n = plan.templates.len();
    let classes: Vec<(usize, String, Mode)> = (0..n)
        .map(|t| (t, plan.templates[t].render("w"), Mode::Count))
        .collect();
    in_parallel(plan, conns, &classes)?;
    let fill: Vec<(usize, String, Mode)> = match plan.workload {
        Workload::ColdPrepare => (0..PREPARED_PREFILL)
            .map(|i| {
                (
                    i % n,
                    plan.templates[i % n].render(&format!("f{i}x")),
                    Mode::Count,
                )
            })
            .collect(),
        Workload::WarmRead | Workload::UpdateMix => (0..n)
            .flat_map(|t| {
                [Mode::Boolean, Mode::Count, Mode::Enumerate].map(|m| (t, plan.texts[t].clone(), m))
            })
            .collect(),
    };
    in_parallel(plan, conns, &fill)
}

/// Send `items` split round-robin over `conns`, one thread each.
fn in_parallel(
    plan: &Plan<'_>,
    conns: &mut [Conn],
    items: &[(usize, String, Mode)],
) -> Result<(), Failure> {
    let n = conns.len();
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                s.spawn(move || -> Result<(), Failure> {
                    for (template, text, mode) in items.iter().skip(c).step_by(n) {
                        conn.query(plan, *template, text, *mode, States::Only(0), false)?
                            .ok_or("a warm-up query was rejected")?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles.into_iter().try_for_each(|h| {
            h.join()
                .unwrap_or_else(|_| Err(Failure::Error("a warm-up thread panicked".to_string())))
        })
    })
}

/// The run fails if the workload stopped doing what its name says, as
/// the server's own counters tell it.
fn check_regime(
    workload: Workload,
    before: &WireStats,
    after: &WireStats,
    tally: &Tally,
) -> Result<(), String> {
    let hits = after.prepared_hits - before.prepared_hits;
    let misses = after.prepared_misses - before.prepared_misses;
    match workload {
        Workload::WarmRead if misses > 0 || hits == 0 => Err(format!(
            "warm-read: {misses} prepared-cache misses and {hits} hits in the window; every request must hit"
        )),
        Workload::ColdPrepare if hits > 0 || misses == 0 => Err(format!(
            "cold-prepare: {hits} prepared-cache hits and {misses} misses in the window; every request must miss"
        )),
        Workload::ColdPrepare if tally.queries.iter().any(|q| !q.cache_hit) => {
            Err("cold-prepare: a request missed the plan cache".to_string())
        }
        Workload::UpdateMix => {
            let applied = after.delta_batches - before.delta_batches;
            let remat = after.bags_remat - before.bags_remat;
            if applied != tally.deltas.len() as u64 {
                Err(format!(
                    "update-mix: the server applied {applied} deltas, the client sent {}",
                    tally.deltas.len()
                ))
            } else if remat == 0 {
                Err("update-mix: the deltas re-materialized no bags".to_string())
            } else {
                Ok(())
            }
        }
        _ => Ok(()),
    }
}

fn rtts<'a>(queries: impl Iterator<Item = &'a QuerySample>) -> Vec<f64> {
    queries.map(|q| q.rtt_us).collect()
}

fn p50_by_mode(name: &'static str, tally: &Tally, mode: Mode) -> Metric {
    let v = rtts(tally.queries.iter().filter(|q| q.mode == mode));
    Metric::new(name, median(&v), "us", v.len())
}

/// The round trips of each [`SLICE`] of the window that holds any.
fn slices(tally: &Tally, start: Instant) -> Vec<Vec<f64>> {
    let mut out: Vec<Vec<f64>> = Vec::new();
    for q in &tally.queries {
        let slice = ((q.done - start).as_secs_f64() / SLICE.as_secs_f64()) as usize;
        if out.len() <= slice {
            out.resize(slice + 1, Vec::new());
        }
        out[slice].push(q.rtt_us);
    }
    out.retain(|s| !s.is_empty());
    out
}

fn end_to_end(
    tally: &Tally,
    deltas: &[DeltaSample],
    start: Instant,
    keep: &[bool],
    setup_s: &[f64],
    rss_mb: f64,
) -> (Vec<Metric>, Vec<Metric>) {
    let all = rtts(tally.queries.iter());
    // Tail figures are medians over slices of the window (queries) or
    // groups of deltas, so one stretch of outside load does not move the
    // run's figure.
    let slice_p99: Vec<f64> = slices(tally, start)
        .iter()
        .map(|s| percentile(s, 0.99))
        .collect();
    let kept_s = keep.iter().filter(|&&k| k).count() as f64 * SLICE.as_secs_f64();
    let delta_rtt: Vec<f64> = deltas.iter().map(|d| d.rtt_us).collect();
    let group_p90: Vec<f64> = delta_rtt
        .chunks_exact(DELTA_GROUP)
        .map(|g| percentile(g, 0.9))
        .collect();
    let gated = vec![
        Metric::new("query_p50_us", median(&all), "us", all.len()),
        Metric::new("query_p99_us", median(&slice_p99), "us", all.len()),
        p50_by_mode("bool_p50_us", tally, Mode::Boolean),
        p50_by_mode("count_p50_us", tally, Mode::Count),
        p50_by_mode("enum_p50_us", tally, Mode::Enumerate),
        Metric::new(
            "throughput_qps",
            all.len() as f64 / kept_s,
            "1/s",
            all.len(),
        ),
        Metric::new("setup_s", median(setup_s), "s", setup_s.len()),
        Metric::new("server_rss_mb", rss_mb, "MiB", 1),
    ];
    let ungated = vec![
        Metric::new("delta_p50_us", median(&delta_rtt), "us", delta_rtt.len()),
        Metric::new("delta_p90_us", median(&group_p90), "us", delta_rtt.len()),
    ];
    (gated, ungated)
}

/// The duration of span `phase` in every traced sample (filtered by
/// `mode` when given).
fn span_us(tally: &Tally, phase: &str, mode: Option<Mode>) -> Vec<f64> {
    tally
        .queries
        .iter()
        .filter(|q| mode.is_none_or(|m| q.mode == m))
        .filter_map(|q| q.trace.as_ref())
        .flat_map(|t| t.spans.iter().filter(|s| s.phase == phase))
        .map(|s| s.micros as f64)
        .collect()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn per_layer(
    tally: &Tally,
    deltas: &[DeltaSample],
    before: &WireStats,
    after: &WireStats,
) -> Vec<Metric> {
    let q = &tally.queries;
    let span_p50 = |name, phase, mode| {
        let v = span_us(tally, phase, mode);
        Metric::new(name, median(&v), "us", v.len())
    };
    let queue = span_us(tally, "queue_wait", None);
    let net: Vec<f64> = q.iter().map(|s| s.rtt_us - s.server_us as f64).collect();
    let explained: f64 = q
        .iter()
        .filter_map(|s| Some(s.trace.as_ref()?.total_micros as f64 + s.rtt_us - s.server_us as f64))
        .sum();
    let rtt_sum: f64 = q.iter().map(|s| s.rtt_us).sum();
    let traced_p50 = median(&rtts(q.iter()));
    let untraced_p50 = median(&tally.untraced_rtt_us);
    let hits = after.prepared_hits - before.prepared_hits;
    let misses = after.prepared_misses - before.prepared_misses;
    let delta_server: Vec<f64> = deltas.iter().map(|d| d.server_us as f64).collect();
    vec![
        Metric::new(
            "server.queue_wait_p50_us",
            median(&queue),
            "us",
            queue.len(),
        ),
        Metric::new(
            "server.queue_wait_p99_us",
            percentile(&queue, 0.99),
            "us",
            queue.len(),
        ),
        Metric::new(
            "server.queue_high_water",
            after.queue_high_water as f64,
            "count",
            1,
        ),
        span_p50("server.parse_p50_us", "parse", None),
        span_p50("server.serialize_p50_us", "serialize", None),
        Metric::new("net.p50_us", median(&net), "us", net.len()),
        span_p50("session.plan_p50_us", "plan", None),
        span_p50("session.materialize_p50_us", "materialize", None),
        span_p50(
            "session.execute_bool_p50_us",
            "execute",
            Some(Mode::Boolean),
        ),
        span_p50("session.execute_count_p50_us", "execute", Some(Mode::Count)),
        span_p50(
            "session.execute_enum_p50_us",
            "execute",
            Some(Mode::Enumerate),
        ),
        Metric::new(
            "eval.bags_rewritten_ratio",
            ratio(
                after.bags_rewritten - before.bags_rewritten,
                after.bags_total - before.bags_total,
            ),
            "ratio",
            q.len(),
        ),
        Metric::new(
            "delta.bags_remat_per_batch",
            ratio(
                deltas.iter().map(|d| d.bags_remat).sum(),
                deltas.len() as u64,
            ),
            "count",
            deltas.len(),
        ),
        Metric::new(
            "delta.server_p50_us",
            median(&delta_server),
            "us",
            delta_server.len(),
        ),
        Metric::new(
            "session.prepared_hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
            (hits + misses) as usize,
        ),
        Metric::new(
            "planner.cache_hit_ratio",
            ratio(
                q.iter().filter(|s| s.cache_hit).count() as u64,
                q.len() as u64,
            ),
            "ratio",
            q.len(),
        ),
        Metric::new("trace.coverage", explained / rtt_sum, "ratio", q.len()),
        Metric::new(
            "trace.overhead",
            traced_p50 / untraced_p50,
            "ratio",
            tally.untraced_rtt_us.len(),
        ),
    ]
}

/// Print one human-readable line per metric, then the result object as
/// the last line of standard output. `ungated` metrics get a line but
/// stay out of the result object.
fn print_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
    ungated: &[Metric],
) {
    for m in ungated {
        println!(
            "{:<34} {:>14.3} {:<8} (n={}, not gated)",
            m.name, m.value, m.unit, m.samples
        );
    }
    for m in metrics {
        println!(
            "{:<34} {:>14.3} {:<8} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}
