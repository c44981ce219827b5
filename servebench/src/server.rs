//! The `cqd2-serve` process under test: spawned from its binary with the
//! generated `.cqds` file, stopped by closing its stdin, and killed if it
//! does not exit in time. Dropping a [`ServerProcess`] always leaves the
//! process reaped.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::Failure;

/// The database name the benchmark serves.
pub const DB: &str = "bench";

pub struct ServerProcess {
    child: Child,
    stdin: Option<ChildStdin>,
    /// Held so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl ServerProcess {
    /// Start the server with 2 workers on an OS-chosen loopback port and
    /// wait for its `listening on` line.
    pub fn spawn(binary: &Path, snapshot: &Path) -> Result<ServerProcess, Failure> {
        let mut child = Command::new(binary)
            .arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--db")
            .arg(format!("{DB}={}", snapshot.display()))
            .args([
                "--workers",
                "2",
                "--allow-reload",
                "--shutdown-on-stdin-close",
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut addr = None;
        let mut line = String::new();
        while let Ok(1..) = stdout.read_line(&mut line) {
            if let Some(rest) = line.split("listening on ").nth(1) {
                addr = rest.split_whitespace().next().map(str::to_string);
                break;
            }
            line.clear();
        }
        // Built before checking `addr`, so that a failed start is reaped
        // by `Drop`.
        let server = ServerProcess {
            child,
            stdin,
            _stdout: stdout,
            addr: addr.unwrap_or_default(),
        };
        if server.addr.is_empty() {
            return Err("cqd2-serve exited before listening".into());
        }
        Ok(server)
    }

    /// Peak resident set size of the server (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, Failure> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("reading the server's /proc status: {e}"))?;
        let kib: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or("no VmHWM line in the server's /proc status")?;
        Ok(kib / 1024.0)
    }

    /// Shut the server down gracefully and wait for it.
    pub fn stop(mut self) -> Result<(), Failure> {
        self.stdin.take();
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("cqd2-serve exited with {status}").into()),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("waiting for cqd2-serve: {e}").into()),
            }
        }
        Err("cqd2-serve did not shut down within 20 s".into())
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
