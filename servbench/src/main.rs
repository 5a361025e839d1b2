//! NomLoc serving benchmark.
//!
//! ```text
//! servbench --workload <lab-dense|fleet-sessions|fleet-churn> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! One run synthesizes a seeded input pool, starts the shipping daemon
//! (`nomloc_net::spawn`, default configuration) in a child process several
//! times to time set-up, then drives the last one over loopback: sweeps up
//! an open-loop rate ladder, each followed by a saturating goodput segment.
//! Every reply is checked against the in-process answer for the same
//! input. With `--trace 0` the last line of standard output is a JSON
//! object of the end-to-end metrics; with `--trace 1` the pool is also
//! replayed in process, traced layer by layer, and the JSON carries the
//! per-layer ledger. A run that fails a correctness check prints no JSON
//! and exits non-zero. `README.md` beside this package describes the
//! method.

mod daemon;
mod idle;
mod ledger;
mod load;
mod pool;
mod stats;
mod workload;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use daemon::Daemon;
use load::{Client, Rung, BACKLOG_CAP};
use nomloc_net::wire::{self, Frame};
use pool::{Expect, Pool};
use stats::{interpolated, median, quantile, ratio, SplitMix};
use workload::Workload;

/// Daemon set-ups per run: at least `SETUPS_MIN`, then more until
/// `SETUP_SECS` have passed or `SETUPS_MAX` were made. `setup_s` is their
/// median.
const SETUPS_MIN: usize = 7;
const SETUPS_MAX: usize = 41;
const SETUP_SECS: f64 = 2.0;

/// Share of the run's seconds spent warming up before the first sweep.
const WARMUP_SHARE: f64 = 0.05;

/// Sweeps per run, each of the same length. The light and heavy rungs'
/// figures are medians over their segments from all sweeps, and
/// `slo_rate_rps` is the median of the sweeps' highest passing rungs.
const SWEEPS: usize = 5;

/// Segments of the light and heavy rungs per sweep, alternating, before
/// the sweep climbs the rest of the ladder. The host's speed wanders over
/// seconds; more, shorter segments of the reported rungs average it out.
const ROUNDS: usize = 2;

/// Share of each sweep given to the light and heavy segments.
const REPORTED_SHARE: f64 = 0.45;

/// Shortest goodput segment, which takes what is left of its sweep after
/// the climb.
const GOODPUT_MIN_SECS: f64 = 0.5;

/// Requests per segment of a rung other than the light and heavy ones.
const PLAIN_RUNG_SAMPLES: f64 = 400.0;

/// Shortest segment of such a rung: long enough for a rate a tenth over
/// capacity to grow a backlog its verdict sees.
const PLAIN_RUNG_SECS: f64 = 0.25;

fn plain_secs(rate: f64) -> f64 {
    (PLAIN_RUNG_SAMPLES / rate).max(PLAIN_RUNG_SECS)
}

/// Slices of each goodput segment; `goodput_rps` is the median slice.
const GOODPUT_SLICES: usize = 6;

/// Requests per latency chunk. A rung's p50 and p90 are medians over the
/// chunks of all its segments, each chunk's quantile taken over this many
/// consecutive requests: a stall of the host moves the chunks it falls in,
/// not the rung.
const CHUNK: usize = 250;

/// A rung whose generator sent half its requests later than this behind
/// schedule fell behind and did not offer its rate: the rung fails, and on
/// the light or heavy rung the whole run is invalid.
const MAX_LATE_P50_MS: f64 = 1.0;

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::by_name(value).ok_or_else(|| {
                    format!(
                        "unknown workload `{value}` (one of {})",
                        workload::NAMES.join(", ")
                    )
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes a number")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: f64 = seconds.unwrap_or(20.0);
    if seconds.is_nan() || seconds < 1.0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(2014),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--serve") => daemon::serve(&args[1..]),
        Some("--hold-cpus") => idle::hold(),
        _ => parse(&args).and_then(|o| run(&o)),
    };
    if let Err(e) = result {
        eprintln!("servbench: {e}");
        std::process::exit(1);
    }
}

/// How long each part of one sweep runs.
struct Plan {
    sweep_secs: f64,
    /// Each segment of the light and heavy rungs.
    reported_secs: f64,
}

impl Plan {
    /// Splits `seconds`, after the warm-up, into `SWEEPS` equal sweeps.
    /// `REPORTED_SHARE` of a sweep goes to `ROUNDS` segments each of the
    /// light and heavy rungs; the climb gives each further rung
    /// `PLAIN_RUNG_SAMPLES` requests and at least `PLAIN_RUNG_SECS`, enough
    /// for its verdict, and stops at the first rung that fails; the
    /// goodput segment takes the rest.
    fn new(seconds: f64) -> Plan {
        let sweep_secs = seconds * (1.0 - WARMUP_SHARE) / SWEEPS as f64;
        Plan {
            sweep_secs,
            reported_secs: sweep_secs * REPORTED_SHARE / (2 * ROUNDS) as f64,
        }
    }

    /// Request ids a run of `seconds` may use: the warm-up and every rung
    /// at 1.5× their rate plus goodput at up to 50k requests per second
    /// for a whole sweep.
    fn capacity(&self, w: &Workload, seconds: f64) -> usize {
        let reported = (w.light_rps() + w.heavy_rps()) * self.reported_secs * ROUNDS as f64;
        let climb: f64 = w.ladder[w.heavy + 1..]
            .iter()
            .map(|r| r * plain_secs(*r))
            .sum();
        let sweep = (reported + climb) * 1.5 + 50_000.0 * self.sweep_secs;
        let warmup = w.light_rps() * 1.5 * seconds * WARMUP_SHARE;
        (sweep * SWEEPS as f64 + warmup) as usize + 1024
    }
}

/// One sweep's segment of one rung, drained and judged.
struct Segment {
    sent: u64,
    p50_ms: f64,
    p99_ms: f64,
    /// p50 and p90 of each `CHUNK` consecutive requests (a shorter
    /// remainder joins the last chunk).
    chunk_p50_ms: Vec<f64>,
    chunk_p90_ms: Vec<f64>,
    late_p50_ms: f64,
    backlog: u64,
    /// Every request answered `Ok`.
    all_ok: bool,
    pass: bool,
}

impl Segment {
    fn judge(client: &Client, rung: &Rung, limit_ms: f64) -> Segment {
        let mut lat = client.latencies(rung);
        let all_ok = lat.iter().all(|l| l.is_finite());
        let chunks = (lat.len() / CHUNK).max(1);
        let (mut chunk_p50_ms, mut chunk_p90_ms) = (Vec::new(), Vec::new());
        for c in 0..chunks {
            let end = if c + 1 == chunks {
                lat.len()
            } else {
                (c + 1) * CHUNK
            };
            let mut chunk = lat[c * CHUNK..end].to_vec();
            chunk_p50_ms.push(quantile(&mut chunk, 0.50));
            chunk_p90_ms.push(quantile(&mut chunk, 0.90));
        }
        let p50_ms = quantile(&mut lat, 0.50);
        let p99_ms = quantile(&mut lat, 0.99);
        let late_p50_ms = quantile(&mut rung.late_ms.clone(), 0.50);
        let backlog = rung.outstanding_end.saturating_sub(rung.outstanding_start);
        // Half a limit's worth of arrivals: over a short segment a rate a
        // tenth over capacity grows about that much.
        let growing = backlog as f64 > rung.rate * limit_ms / 2e3;
        let pass = all_ok
            && p99_ms <= limit_ms
            && !growing
            && !rung.abandoned
            && late_p50_ms <= MAX_LATE_P50_MS;
        Segment {
            sent: rung.sent,
            p50_ms,
            p99_ms,
            chunk_p50_ms,
            chunk_p90_ms,
            late_p50_ms,
            backlog,
            all_ok,
            pass,
        }
    }
}

/// The light or heavy rung's verdict over all sweeps: p50 and p90 are
/// medians over the chunks of its segments, p99 and lateness medians over
/// the segments, and the rung passes when most segments pass and every one
/// of its requests was answered `Ok`. A stall of the host thus moves one
/// chunk or segment, not the rung.
struct RungResult {
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    late_p50_ms: f64,
    pass: bool,
}

impl RungResult {
    fn of(segs: &[Segment]) -> RungResult {
        let med = |f: fn(&Segment) -> f64| median(&segs.iter().map(f).collect::<Vec<_>>());
        let chunks = |f: fn(&Segment) -> &[f64]| {
            median(&segs.iter().flat_map(f).copied().collect::<Vec<_>>())
        };
        let passed = segs.iter().filter(|s| s.pass).count();
        RungResult {
            p50_ms: chunks(|s| &s.chunk_p50_ms),
            p90_ms: chunks(|s| &s.chunk_p90_ms),
            p99_ms: med(|s| s.p99_ms),
            late_p50_ms: med(|s| s.late_p50_ms),
            pass: 2 * passed > segs.len() && segs.iter().all(|s| s.all_ok),
        }
    }
}

/// Sends one pool request on a fresh connection and checks the reply.
/// Returns the time from connecting until the reply was decoded.
fn probe(daemon: &Daemon, pool: &Pool) -> Result<f64, String> {
    let start = Instant::now();
    let mut conn = TcpStream::connect(daemon.addr).map_err(|e| format!("probe: {e}"))?;
    conn.set_nodelay(true).map_err(|e| e.to_string())?;
    let entry = &pool.entries[0];
    conn.write_all(&entry.frame)
        .map_err(|e| format!("probe: {e}"))?;
    let reply = wire::read_frame(&mut conn).map_err(|e| format!("probe: {e}"))?;
    let answered_s = start.elapsed().as_secs_f64();
    let ok = match (reply, entry.expect) {
        (Some(Frame::LocateResponse(r)), Expect::Ok { x, y, quality }) => {
            r.outcome.is_ok_and(|e| {
                e.x.to_bits() == x.to_bits() && e.y.to_bits() == y.to_bits() && e.quality == quality
            })
        }
        (Some(Frame::LocateResponse(r)), Expect::Err(code)) => {
            r.outcome.is_err_and(|e| e.code == code)
        }
        _ => false,
    };
    if !ok {
        return Err("probe: set-up request answered differently from in-process".into());
    }
    // Close cleanly: drain until the daemon sees EOF.
    let _ = conn.shutdown(std::net::Shutdown::Write);
    let _ = conn.read(&mut [0u8; 1]);
    Ok(answered_s)
}

/// Starts the daemon several times, timing each from `nomloc_net::spawn`
/// until it has onboarded every venue and answered a first request (the
/// child's process start is not timed); keeps the last one running.
fn set_up(w: &Workload, pool: &Pool, budget: usize) -> Result<(Daemon, f64), String> {
    let begin = Instant::now();
    let mut times = Vec::with_capacity(SETUPS_MAX);
    loop {
        let d = Daemon::start(w.name, budget).map_err(|e| format!("daemon: {e}"))?;
        times.push(d.ready_s + probe(&d, pool)?);
        let enough = times.len() >= SETUPS_MIN
            && (begin.elapsed().as_secs_f64() >= SETUP_SECS || times.len() >= SETUPS_MAX);
        if enough {
            return Ok((d, median(&times)));
        }
        d.stop().map_err(|e| format!("daemon: {e}"))?;
    }
}

type Metric = (String, f64, &'static str);

/// A run that has not finished by then is stuck: it exits with an error
/// (the daemon and CPU-holder children see their stdin close and exit).
fn watchdog(seconds: f64) {
    let limit = Duration::from_secs_f64((2.5 * seconds + 60.0).min(170.0));
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("servbench: run exceeded {limit:?}; aborting");
        std::process::exit(2);
    });
}

fn run(o: &Opts) -> Result<(), String> {
    watchdog(o.seconds);
    let w = &o.workload;
    let io = |e: std::io::Error| e.to_string();
    eprintln!(
        "servbench: {} seed {}: synthesizing {} requests",
        w.name, o.seed, w.pool
    );
    let pool = Arc::new(pool::build(w, o.seed)?);
    let budget = pool::venue_budget(w);
    let plan = Plan::new(o.seconds);
    let _cpus_held = idle::Holder::start().map_err(|e| format!("cpu holder: {e}"))?;
    if plan.capacity(w, o.seconds) >= 1 << pool::ID_BITS {
        return Err("--seconds too large for the request id space".into());
    }

    let (mut daemon, setup_s) = set_up(w, &pool, budget)?;
    let mut client =
        Client::connect(daemon.addr, Arc::clone(&pool), plan.capacity(w, o.seconds)).map_err(io)?;

    let mut rng = SplitMix::new(o.seed, 0x5EED);
    let drain = Duration::from_secs(10);
    // A rung whose backlog passes twice what the limit allows has failed;
    // stopping it there bounds the daemon's queue and the run's time.
    let abandon_at = |rate: f64| ((2.0 * rate * w.limit_ms / 1e3) as u64).clamp(64, BACKLOG_CAP);
    // Warm-up at the light rate: lazily built daemon state (thread-local
    // FFT plans, buffer pools, the registry's LRU order) settles before the
    // first measured segment. Its requests are checked like the rest.
    let light = w.light_rps();
    client
        .open_loop(
            light,
            o.seconds * WARMUP_SHARE,
            w.admin_hz,
            abandon_at(light),
            &mut rng,
        )
        .map_err(io)?;
    client.drain(drain);
    // Resident memory once warm, before the overloaded rungs: how much the
    // allocator keeps after their backlog peaks varies from run to run.
    let rss_mb = daemon.rss_mb().map_err(io)?;

    // Sweeps of equal length: alternating light and heavy segments, a
    // climb up the rest of the ladder that stops at the first failing rung
    // (the daemon is past its limit there), and a goodput segment.
    let mut reported: [Vec<Segment>; 2] = [Vec::new(), Vec::new()];
    let mut knees: Vec<f64> = Vec::with_capacity(SWEEPS);
    let mut late_ms: Vec<f64> = Vec::new();
    let mut goodput_slices: Vec<f64> = Vec::new();
    for sweep in 0..SWEEPS {
        let sweep_end = Instant::now() + Duration::from_secs_f64(plan.sweep_secs);
        let mut segment = |client: &mut Client, i: usize, secs: f64| -> Result<Segment, String> {
            let rate = w.ladder[i];
            let rung = client
                .open_loop(rate, secs, w.admin_hz, abandon_at(rate), &mut rng)
                .map_err(io)?;
            client.drain(drain);
            let seg = Segment::judge(client, &rung, w.limit_ms);
            late_ms.extend_from_slice(&rung.late_ms);
            println!(
                "sweep {sweep} rung {rate:>6.0} req/s: sent {:>6}  p50 {:>8.3} ms  p99 {:>8.3} ms  late p50 {:.3} ms  backlog {:>4}  {}",
                seg.sent,
                seg.p50_ms,
                seg.p99_ms,
                seg.late_p50_ms,
                seg.backlog,
                if seg.pass { "pass" } else { "FAIL" }
            );
            Ok(seg)
        };
        for _ in 0..ROUNDS {
            for (k, i) in [w.light, w.heavy].into_iter().enumerate() {
                reported[k].push(segment(&mut client, i, plan.reported_secs)?);
            }
        }
        // The highest rung above the heavy one that this sweep passed
        // without a failure below it; the heavy rate when none did.
        let mut knee = w.heavy_rps();
        for i in w.heavy + 1..w.ladder.len() {
            if !segment(&mut client, i, plain_secs(w.ladder[i]))?.pass {
                break;
            }
            knee = w.ladder[i];
        }
        knees.push(knee);
        let left = sweep_end.saturating_duration_since(Instant::now());
        let slices = client
            .goodput(
                w.window as u64,
                left.as_secs_f64().max(GOODPUT_MIN_SECS),
                GOODPUT_SLICES,
            )
            .map_err(io)?;
        println!(
            "sweep {sweep} knee {knee:.0} req/s, goodput {:.1} req/s (window {})",
            median(&slices),
            w.window
        );
        goodput_slices.extend(slices);
        client.drain(drain);
    }
    let [light, heavy] = reported.map(|segs| RungResult::of(&segs));
    for (what, r) in [("light", &light), ("heavy", &heavy)] {
        println!(
            "{what} rung: p50 {:>8.3} ms  p90 {:>8.3} ms  p99 {:>8.3} ms  {}",
            r.p50_ms,
            r.p90_ms,
            r.p99_ms,
            if r.pass { "pass" } else { "FAIL" }
        );
    }
    let goodput_rps = median(&goodput_slices);
    let all_answered = client.drain(drain);
    let dstats = daemon.stats().map_err(io)?;
    let attempted = client.sent();
    let failed = client.failed();
    let degraded = client.degraded();
    let admin_rtt = client.admin_rtt_ms();
    let (violation_count, mut violations) = client.finish();
    daemon.stop().map_err(io)?;

    // The correctness gate.
    if !all_answered {
        violations.push("some requests were never answered".into());
    }
    let mixed = dstats.get("batches_mixed").copied().unwrap_or(f64::NAN);
    if mixed != 0.0 {
        violations.push(format!("daemon formed {mixed} venue-mixed batches"));
    }
    for (what, r) in [("light", &light), ("heavy", &heavy)] {
        let late = r.late_p50_ms;
        if late > MAX_LATE_P50_MS {
            violations.push(format!(
                "generator fell behind its schedule on the {what} rung (late p50 {late:.3} ms)"
            ));
        }
    }
    if violation_count > 0 || !violations.is_empty() {
        for v in &violations {
            eprintln!("servbench: check failed: {v}");
        }
        return Err(format!(
            "{} correctness violation(s); no metrics reported",
            violation_count as usize + violations.len()
        ));
    }

    let slo_rate_rps = if heavy.pass {
        median(&knees)
    } else if light.pass {
        w.light_rps()
    } else {
        0.0
    };
    let errors = pool.errors();
    let err_p50_m = interpolated(&errors, 0.50);
    let err_p90_m = interpolated(&errors, 0.90);

    let metrics: Vec<Metric> = if o.trace {
        let spans_path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}.tsv", w.name));
        let ledger = ledger::run(
            w,
            &pool,
            budget,
            (o.seconds * 0.05).clamp(0.5, 3.0),
            &spans_path,
        );
        if ledger.mismatches > 0 {
            return Err(format!(
                "in-process replay disagreed with the reference {} time(s)",
                ledger.mismatches
            ));
        }
        let mut m = ledger.metrics;
        let d = |k: &str| dstats.get(k).copied().unwrap_or(0.0);
        let mut push =
            |name: &str, value: f64, unit: &'static str| m.push((name.to_owned(), value, unit));
        push("dispatch.batch_size_mean", d("batch_size_mean"), "count");
        push("dispatch.queue_depth_peak", d("queue_depth_peak"), "count");
        push("dispatch.steals", d("steals"), "count");
        push(
            "dispatch.enqueue_contention",
            d("enqueue_contention"),
            "count",
        );
        push("dispatch.overloaded", d("overloaded"), "count");
        push("dispatch.batches_mixed", d("batches_mixed"), "count");
        push("event.frames_in", d("frames_in"), "count");
        push("event.frames_out", d("frames_out"), "count");
        push("event.protocol_errors", d("protocol_errors"), "count");
        push(
            "event.slow_readers_evicted",
            d("slow_readers_evicted"),
            "count",
        );
        push("registry.admin_rtt_ms", median(&admin_rtt), "ms");
        push(
            "daemon.residual_us",
            light.p50_ms * 1e3 - ledger.layer_sum_us,
            "us",
        );
        // These tails stay out of the end-to-end set: on a shared host
        // their run-to-run spread exceeds any bound a regression gate can
        // use.
        push("lat_p90_ms.heavy", heavy.p90_ms, "ms");
        push("lat_p99_ms.light", light.p99_ms, "ms");
        push("lat_p99_ms.heavy", heavy.p99_ms, "ms");
        push("loadgen.late_p99_ms", quantile(&mut late_ms, 0.99), "ms");
        push("loadgen.sent", attempted as f64, "count");
        push(
            "fail_share",
            ratio(failed as f64, attempted as f64),
            "ratio",
        );
        push(
            "degraded_share",
            ratio(degraded as f64, (attempted - failed) as f64),
            "ratio",
        );
        m
    } else {
        vec![
            ("setup_s".into(), setup_s, "s"),
            ("rss_mb".into(), rss_mb, "MiB"),
            ("lat_p50_ms.light".into(), light.p50_ms, "ms"),
            ("lat_p90_ms.light".into(), light.p90_ms, "ms"),
            ("lat_p50_ms.heavy".into(), heavy.p50_ms, "ms"),
            ("slo_rate_rps".into(), slo_rate_rps, "req/s"),
            ("goodput_rps".into(), goodput_rps, "req/s"),
            ("err_p50_m".into(), err_p50_m, "m"),
            ("err_p90_m".into(), err_p90_m, "m"),
        ]
    };
    for (name, value, unit) in &metrics {
        println!("{name:<40} {value:>14.6} {unit}");
    }
    // A latency is infinite when a request of its rung failed; such a run
    // reports no metrics rather than a number that reads as a result.
    if let Some((name, ..)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("{name} is not finite: requests failed on its rung"));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let mut out = std::io::stdout().lock();
    writeln!(
        out,
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
    .map_err(io)?;
    Ok(())
}
