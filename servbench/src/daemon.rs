//! The daemon under test runs in a child process (this binary, re-run with
//! `--serve`), so its resident memory is measured apart from the load
//! generator's input pool. The parent talks to it over the child's stdio:
//! the child prints its address once its venues are onboarded, with the
//! time that took from `nomloc_net::spawn` on, then answers `stats` with
//! one line of counters and `quit` with a graceful shutdown.

use nomloc_net::{DaemonConfig, DaemonHandle};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use crate::pool::{fleet_spec, venue_server};
use crate::workload;

/// Child entry point: `--serve <workload> <venue budget bytes>`.
pub fn serve(args: &[String]) -> Result<(), String> {
    let [name, budget] = args else {
        return Err("usage: --serve <workload> <venue-budget-bytes>".into());
    };
    let w = workload::by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let budget: usize = budget.parse().map_err(|_| "bad venue budget")?;
    // Defaults throughout (socket backend, dispatch layout, batching),
    // except the venue budget the workload calls for.
    let config = DaemonConfig {
        venue_budget_bytes: budget,
        ..DaemonConfig::default()
    };
    // Set-up is timed from here: starting the child process is the
    // benchmark's cost, not the daemon's.
    let start = Instant::now();
    let handle = nomloc_net::spawn(venue_server(0), config, "127.0.0.1:0")
        .map_err(|e| format!("spawn: {e}"))?;
    for &id in &w.onboard {
        handle.registry().onboard(fleet_spec(id))?;
    }
    let ready_s = start.elapsed().as_secs_f64();
    let mut out = io::stdout().lock();
    writeln!(out, "{} {ready_s}", handle.local_addr()).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    for line in io::stdin().lock().lines() {
        match line.map_err(|e| e.to_string())?.as_str() {
            "stats" => {
                writeln!(out, "{}", stats_line(&handle)).map_err(|e| e.to_string())?;
                out.flush().map_err(|e| e.to_string())?;
            }
            _ => break,
        }
    }
    handle.shutdown();
    Ok(())
}

/// The dispatch and event-loop counters, as `key=value` pairs.
fn stats_line(handle: &DaemonHandle) -> String {
    let h = handle.health();
    let s = handle.stats_snapshot();
    let c = &s.counters;
    let fields: [(&str, f64); 10] = [
        ("batch_size_mean", s.batch_sizes.mean()),
        ("queue_depth_peak", c.queue_depth_peak as f64),
        ("steals", c.queue_steals as f64),
        ("enqueue_contention", c.enqueue_contention as f64),
        ("overloaded", h.rejected_overload as f64),
        ("batches_mixed", c.batches_mixed as f64),
        ("frames_in", h.frames_in as f64),
        ("frames_out", h.frames_out as f64),
        ("protocol_errors", h.protocol_errors as f64),
        ("slow_readers_evicted", h.slow_readers_evicted as f64),
    ];
    fields
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Parent-side handle on a daemon child. Dropping it kills the child.
pub struct Daemon {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    /// Seconds from `nomloc_net::spawn` until every venue was onboarded,
    /// as the child timed it.
    pub ready_s: f64,
}

impl Daemon {
    /// Starts a daemon child and waits until it listens with every venue
    /// onboarded.
    pub fn start(workload: &str, budget: usize) -> io::Result<Daemon> {
        let mut child = Command::new(std::env::current_exe()?)
            .args(["--serve", workload, &budget.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut daemon = Daemon {
            child,
            stdin,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            ready_s: 0.0,
        };
        let line = daemon.read_line()?;
        let parsed = line
            .split_once(' ')
            .and_then(|(addr, ready)| Some((addr.parse().ok()?, ready.parse().ok()?)));
        (daemon.addr, daemon.ready_s) =
            parsed.ok_or_else(|| io::Error::other("daemon child printed no address"))?;
        Ok(daemon)
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.stdout.read_line(&mut line)? == 0 {
            return Err(io::Error::other("daemon child exited"));
        }
        Ok(line.trim().to_owned())
    }

    /// The daemon's dispatch and event-loop counters.
    pub fn stats(&mut self) -> io::Result<HashMap<String, f64>> {
        writeln!(self.stdin, "stats")?;
        self.stdin.flush()?;
        let line = self.read_line()?;
        Ok(line
            .split_whitespace()
            .filter_map(|kv| {
                let (k, v) = kv.split_once('=')?;
                Some((k.to_owned(), v.parse().ok()?))
            })
            .collect())
    }

    /// The child's resident set size, MiB.
    pub fn rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmRSS:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| io::Error::other("no VmRSS in /proc status"))?;
        Ok(kb / 1024.0)
    }

    /// Graceful shutdown: the daemon drains and the child exits.
    pub fn stop(mut self) -> io::Result<()> {
        writeln!(self.stdin, "quit")?;
        self.stdin.flush()?;
        let status = self.child.wait()?;
        if !status.success() {
            return Err(io::Error::other(format!(
                "daemon child exited with {status}"
            )));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // No-op after `stop` (the child was already reaped).
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
