//! Machine-readable end-to-end serving benchmark: stage-attributed
//! ns-per-request through the full daemon pipeline (decode → PDP →
//! constraints → LP → encode), plus paired comparisons of the planned FFT
//! against the retained iterative kernel, pooled against fresh encode
//! buffers, and the zero-allocation pipeline against a faithful replica
//! of the pre-plan allocating path. Written as `BENCH_serving.json` (in
//! the current directory, or `$NOMLOC_BENCH_SERVING_JSON`).
//!
//! Every comparison is a min-of-rounds over alternating passes — see
//! `nomloc_bench::lpcmp::paired_min_ns` — so slow drift (thermal,
//! scheduler) hits both sides equally and the minimum approximates the
//! noise-free cost. The "naive" side reconstructs the pre-optimization
//! hot path exactly: the iterative twiddle-accumulating FFT kernel
//! (`fft_radix2_unplanned`), a fresh allocation for every windowed CSI
//! vector, IFFT output, per-packet PDP list, and reply frame.

use nomloc_bench::{lpcmp, quick_mode, rounds};
use nomloc_core::scenario::{synthetic_workload, Venue};
use nomloc_core::server::CsiReport;
use nomloc_core::{ApSite, LocalizationServer, PdpEstimator, PdpScratch, SpEstimator};
use nomloc_dsp::{fft, Complex};
use nomloc_net::wire::{
    self, ErrorCode, ErrorReply, Frame, LocateRequest, LocateResponse, WireEstimate, WireReport,
    WireVenue,
};
use nomloc_net::BufferPool;
use nomloc_rfsim::CsiSnapshot;
use std::hint::black_box;
use std::io::BufRead;

/// Results of the idle-connection soak (see [`run_soak`]).
struct SoakResult {
    idle_target: usize,
    connections_held: usize,
    active_requests: usize,
    active_ns_per_request: f64,
    active_p99_ns_base: f64,
    active_p99_ns_idle: f64,
    daemon_rss_delta_bytes: i64,
    rss_bytes_per_connection: f64,
}

/// Resident set size of `pid` in bytes (Linux `/proc`; `None` elsewhere).
fn rss_of(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    Some(line.split_whitespace().nth(1)?.parse::<u64>().ok()? * 1024)
}

/// The mostly-idle scaling soak: a daemon in its own subprocess (the fd
/// rlimit is per process, so splitting the 2 × 10k socket endpoints
/// across two processes is what lets a 10k run fit), 10k connections opened and held idle, and the same small active
/// workload driven with and without the idle crowd. Records how many
/// connections were concurrently held, the daemon's RSS cost per idle
/// connection, and active-traffic ns/request + p99 under both conditions.
///
/// Needs `target/…/nomloc` next to this benchmark binary (the tier-1
/// `cargo build --release` in `scripts/check.sh` provides it); returns
/// `None` with a warning when it is missing rather than failing the
/// whole benchmark.
fn run_soak(idle_target: usize, active_requests: usize) -> Option<SoakResult> {
    let nomloc = std::env::current_exe().ok()?.with_file_name("nomloc");
    if !nomloc.exists() {
        eprintln!(
            "soak: skipped — {} not built (run `cargo build --release -p nomloc-cli` first)",
            nomloc.display()
        );
        return None;
    }
    let mut child = std::process::Command::new(&nomloc)
        .args(["serve", "--listen", "127.0.0.1:0", "--workers", "2"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .ok()?;
    let addr = {
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .expect("daemon announces its address");
        line.rsplit(' ')
            .next()
            .and_then(|a| a.trim().parse::<std::net::SocketAddr>().ok())
            .unwrap_or_else(|| panic!("unparseable daemon banner: {line:?}"))
    };

    // Cheap empty-burst requests: the soak measures the socket layer,
    // not the estimator.
    let venue = Venue::lab();
    let ap = venue.static_deployment()[0];
    let batch: Vec<Vec<CsiReport>> = (0..active_requests)
        .map(|_| {
            vec![CsiReport {
                site: ApSite::fixed(1, ap),
                burst: Vec::new(),
            }]
        })
        .collect();

    let baseline_config = nomloc_net::LoadgenConfig {
        connections: 4,
        ..nomloc_net::LoadgenConfig::default()
    };
    let base = nomloc_net::loadgen::run(addr, &baseline_config, &batch).expect("baseline run");

    let rss_before = rss_of(child.id());
    let soak_config = nomloc_net::LoadgenConfig {
        connections: 4,
        idle_connections: idle_target,
        ..nomloc_net::LoadgenConfig::default()
    };
    let soak = nomloc_net::loadgen::run(addr, &soak_config, &batch).expect("soak run");
    // RSS is sampled after the run; the daemon keeps the write buffers
    // and slab slots the crowd forced to exist, which is precisely the
    // steady-state cost the soak wants to price.
    let rss_after = rss_of(child.id());
    let _ = child.kill();
    let _ = child.wait();

    let delta = match (rss_before, rss_after) {
        (Some(b), Some(a)) => a as i64 - b as i64,
        _ => 0,
    };
    let held = soak.idle_held;
    Some(SoakResult {
        idle_target,
        connections_held: held,
        active_requests,
        active_ns_per_request: 1.0e9 / soak.throughput_rps(),
        active_p99_ns_base: base.latency_quantile(0.99).as_nanos() as f64,
        active_p99_ns_idle: soak.latency_quantile(0.99).as_nanos() as f64,
        daemon_rss_delta_bytes: delta,
        rss_bytes_per_connection: if held > 0 {
            delta.max(0) as f64 / held as f64
        } else {
            0.0
        },
    })
}

/// Dispatch-plane cost at one venue count (see [`run_dispatch`]).
struct DispatchScale {
    live_venues: usize,
    connections: usize,
    requests: usize,
    shards: u64,
    ns_per_request: f64,
    closed_rps: f64,
    worst_worker_p99_ns: f64,
    queue_steals: u64,
    enqueue_contention: u64,
    depth_peak: u64,
}

/// Prices the admission plane itself — the sharded venue-affine queues —
/// per venue count, in min-of-rounds passes like [`run_venue_scales`].
///
/// Two traffic shapes per scale:
///
/// - **Pipelined** (8 connections, every request in flight at once): the
///   queue runs deep, and batchers pop already-homogeneous venue FIFOs
///   in O(batch). This is the headline `ns_per_request` figure and the
///   regression-gated number.
/// - **Closed-loop** (8 synchronous workers via
///   `LoadgenConfig::concurrency`): aggregate RPS plus the worst
///   per-worker p99, the fairness-sensitive view where one stalled
///   worker can't hide behind its siblings' throughput.
///
/// Requests are the soak's empty-burst cheapest-possible shape so
/// dispatch cost dominates solve cost, and `queue_capacity` is raised so
/// the pipelined flood is admitted in full. The daemon must answer every
/// request and keep every micro-batch venue-homogeneous.
fn run_dispatch(counts: &[usize], requests_per_pass: usize) -> Vec<DispatchScale> {
    let venue = Venue::lab();
    let ap = venue.static_deployment()[0];
    let batch: Vec<Vec<CsiReport>> = (0..requests_per_pass)
        .map(|_| {
            vec![CsiReport {
                site: ApSite::fixed(1, ap),
                burst: Vec::new(),
            }]
        })
        .collect();

    counts
        .iter()
        .map(|&live| {
            let server = LocalizationServer::new(venue.plan.boundary().clone()).with_workers(2);
            let config = nomloc_net::DaemonConfig {
                max_wait: std::time::Duration::ZERO,
                queue_capacity: requests_per_pass.max(1024) * 2,
                batchers: 2,
                max_batch: 64,
                ..nomloc_net::DaemonConfig::default()
            };
            let handle = nomloc_net::spawn(server, config, "127.0.0.1:0")
                .expect("spawn dispatch-bench daemon");
            for id in 1..live as u64 {
                nomloc_net::admin::onboard(handle.local_addr(), &WireVenue::from_venue(id, &venue))
                    .expect("onboard dispatch-bench venue");
            }
            let venues: Vec<u64> = (0..live as u64).collect();
            let pipelined = nomloc_net::LoadgenConfig {
                connections: 8,
                venues: venues.clone(),
                zipf_s: 1.0,
                zipf_seed: 7,
                ..nomloc_net::LoadgenConfig::default()
            };
            let closed = nomloc_net::LoadgenConfig {
                concurrency: 8,
                venues,
                zipf_s: 1.0,
                zipf_seed: 7,
                ..nomloc_net::LoadgenConfig::default()
            };

            let mut best = f64::INFINITY; // pipelined ns/req
            let mut best_rps = 0.0f64;
            let mut best_p99 = f64::INFINITY;
            for _ in 0..5 {
                let report = nomloc_net::loadgen::run(handle.local_addr(), &pipelined, &batch)
                    .expect("pipelined dispatch pass");
                assert_eq!(
                    report.ok_count(),
                    batch.len(),
                    "pipelined dispatch pass must answer every request"
                );
                best = best.min(1.0e9 / report.throughput_rps());
                let report = nomloc_net::loadgen::run(handle.local_addr(), &closed, &batch)
                    .expect("closed-loop dispatch pass");
                assert_eq!(
                    report.ok_count(),
                    batch.len(),
                    "closed-loop dispatch pass must answer every request"
                );
                if report.throughput_rps() > best_rps {
                    best_rps = report.throughput_rps();
                    best_p99 = report
                        .per_worker_quantile(0.99)
                        .iter()
                        .map(|d| d.as_nanos() as f64)
                        .fold(0.0, f64::max);
                }
            }

            let counters = handle.stats_snapshot().counters;
            assert_eq!(
                counters.batches_mixed, 0,
                "dispatch bench formed a mixed batch"
            );
            let health = handle.shutdown();
            DispatchScale {
                live_venues: live,
                connections: 8,
                requests: batch.len(),
                shards: health.queue_shards,
                ns_per_request: best,
                closed_rps: best_rps,
                worst_worker_p99_ns: best_p99,
                queue_steals: counters.queue_steals,
                enqueue_contention: counters.enqueue_contention,
                depth_peak: health.queue_depth_peak,
            }
        })
        .collect()
}

/// Per-request serving cost with a given number of live venues (see
/// [`run_venue_scales`]).
struct VenueScale {
    live_venues: usize,
    requests: usize,
    ns_per_request: f64,
    p99_ns: f64,
    batches_homogeneous: u64,
    batches_mixed: u64,
}

/// Spawns one in-process daemon per venue count, onboards `live - 1`
/// extra venues on each over the TCP admin plane, then drives a
/// zipf(1.0)-over-venues workload against the scales in *alternating*
/// passes — min ns/request over the rounds, so slow machine drift hits
/// every scale equally (the same discipline as `lpcmp::paired_min_ns`).
/// Each scale reports its best pass plus the daemon's cumulative
/// batch-composition counters (every micro-batch across every round must
/// stay venue-homogeneous).
///
/// Every onboarded venue carries the *Lab* geometry, so per-request solve
/// work is identical at every venue count — the measured delta between
/// 1 and N live venues is purely registry-resolution and venue-sharding
/// overhead, which is the thing this section prices. The daemons run with
/// `max_wait: ZERO` so a micro-batch ships as soon as the same-venue run
/// at the queue head is exhausted: with the default 500 µs flush timer,
/// scattering traffic over N venues multiplies *timer stalls* (each
/// venue-homogeneous batch waits out the full timer), which would swamp
/// the per-request cost this section is after.
fn run_venue_scales(counts: &[usize], batch: &[Vec<CsiReport>]) -> Vec<VenueScale> {
    struct LiveScale {
        live_venues: usize,
        handle: nomloc_net::DaemonHandle,
        config: nomloc_net::LoadgenConfig,
        best_ns: f64,
        best_p99: f64,
    }
    let venue = Venue::lab();
    let mut scales: Vec<LiveScale> = counts
        .iter()
        .map(|&live| {
            let server = LocalizationServer::new(venue.plan.boundary().clone()).with_workers(2);
            let config = nomloc_net::DaemonConfig {
                max_wait: std::time::Duration::ZERO,
                ..nomloc_net::DaemonConfig::default()
            };
            let handle =
                nomloc_net::spawn(server, config, "127.0.0.1:0").expect("spawn venue-scale daemon");
            let addr = handle.local_addr();
            let mut venues: Vec<u64> = vec![0];
            for id in 1..live as u64 {
                nomloc_net::admin::onboard(addr, &WireVenue::from_venue(id, &venue))
                    .expect("onboard bench venue");
                venues.push(id);
            }
            let config = nomloc_net::LoadgenConfig {
                connections: 8,
                venues,
                zipf_s: 1.0,
                zipf_seed: 7,
                ..nomloc_net::LoadgenConfig::default()
            };
            LiveScale {
                live_venues: live,
                handle,
                config,
                best_ns: f64::INFINITY,
                best_p99: f64::INFINITY,
            }
        })
        .collect();
    let venue_rounds = 5;
    for _ in 0..venue_rounds {
        for scale in scales.iter_mut() {
            let report = nomloc_net::loadgen::run(scale.handle.local_addr(), &scale.config, batch)
                .expect("venue-scale loadgen");
            assert_eq!(
                report.ok_count(),
                batch.len(),
                "venue-scale run must answer every request"
            );
            let ns = 1.0e9 / report.throughput_rps();
            if ns < scale.best_ns {
                scale.best_ns = ns;
                scale.best_p99 = report.latency_quantile(0.99).as_nanos() as f64;
            }
        }
    }
    scales
        .into_iter()
        .map(|scale| {
            let counters = scale.handle.stats_snapshot().counters;
            assert_eq!(
                counters.batches_mixed, 0,
                "micro-batches must stay venue-homogeneous"
            );
            scale.handle.shutdown();
            VenueScale {
                live_venues: scale.live_venues,
                requests: batch.len(),
                ns_per_request: scale.best_ns,
                p99_ns: scale.best_p99,
                batches_homogeneous: counters.batches_homogeneous,
                batches_mixed: counters.batches_mixed,
            }
        })
        .collect()
}

/// Sessioned vs stateless serving cost (see [`run_sessions`]).
struct SessionCost {
    requests: usize,
    stateless_ns_per_request: f64,
    sessioned_ns_per_request: f64,
    overhead_pct: f64,
    smoothed_replies: usize,
}

/// Prices the session plane: the same workload driven stateless and with
/// one session per connection, in alternating min-of-rounds passes
/// against a single daemon. The sessioned side pays the tracker push,
/// the localizability bound lookup, and the larger reply frame on every
/// request — the headline number is that overhead as a percentage.
fn run_sessions(batch: &[Vec<CsiReport>]) -> SessionCost {
    let venue = Venue::lab();
    let server = LocalizationServer::new(venue.plan.boundary().clone()).with_workers(2);
    let config = nomloc_net::DaemonConfig {
        max_wait: std::time::Duration::ZERO,
        ..nomloc_net::DaemonConfig::default()
    };
    let handle = nomloc_net::spawn(server, config, "127.0.0.1:0").expect("spawn session daemon");
    let addr = handle.local_addr();
    let stateless = nomloc_net::LoadgenConfig {
        connections: 8,
        ..nomloc_net::LoadgenConfig::default()
    };
    let sessioned = nomloc_net::LoadgenConfig {
        connections: 8,
        sessions: true,
        ..nomloc_net::LoadgenConfig::default()
    };
    let mut stateless_ns = f64::INFINITY;
    let mut sessioned_ns = f64::INFINITY;
    let mut smoothed_replies = 0usize;
    for _ in 0..5 {
        let base = nomloc_net::loadgen::run(addr, &stateless, batch).expect("stateless pass");
        assert_eq!(
            base.ok_count(),
            batch.len(),
            "stateless pass answers everything"
        );
        stateless_ns = stateless_ns.min(1.0e9 / base.throughput_rps());
        let tracked = nomloc_net::loadgen::run(addr, &sessioned, batch).expect("sessioned pass");
        assert_eq!(
            tracked.ok_count(),
            batch.len(),
            "sessioned pass answers everything"
        );
        sessioned_ns = sessioned_ns.min(1.0e9 / tracked.throughput_rps());
        smoothed_replies = tracked.session_deviations().iter().map(|(_, n, _)| n).sum();
    }
    handle.shutdown();
    SessionCost {
        requests: batch.len(),
        stateless_ns_per_request: stateless_ns,
        sessioned_ns_per_request: sessioned_ns,
        overhead_pct: (sessioned_ns / stateless_ns - 1.0) * 100.0,
        smoothed_replies,
    }
}

/// The loadgen-shaped loopback workload: each request carries one CSI
/// report per static AP of the Lab venue, for a different test site.
/// Drawn from the shared [`synthetic_workload`] builder in
/// `nomloc_core::scenario` — the same traffic the CLI's loopback commands
/// generate, so numbers here describe the same bytes users replay.
fn workload(n: usize, packets: usize) -> Vec<Vec<CsiReport>> {
    synthetic_workload(&Venue::lab(), n, packets, 0).1
}

/// Minimum wall-clock ns of `f` over `rounds` passes.
fn min_ns(rounds: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds.max(1) {
        let t = std::time::Instant::now();
        f();
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    best
}

/// The pre-optimization burst PDP, replicated stage for stage: a fresh
/// windowed-CSI vector per packet, the iterative (unplanned) IFFT kernel
/// into a per-burst scratch, a materialized per-packet tap-power vector
/// (the old path built a full `DelayProfile` and then asked for its
/// peak), a fresh per-packet list, and a median over a sorted copy.
fn pdp_burst_naive(est: &PdpEstimator, burst: &[CsiSnapshot]) -> Option<f64> {
    let mut scratch: Vec<Complex> = Vec::new();
    let per_packet: Vec<f64> = burst
        .iter()
        .map(|s| {
            let n = s.h.len();
            let tapered = est.window.apply(&s.h);
            fft::ifft_padded_into_unplanned(&tapered, est.min_taps, &mut scratch);
            let gain = scratch.len() as f64 / n as f64;
            let powers: Vec<f64> = scratch.iter().map(|h| (*h * gain).norm_sq()).collect();
            // `DelayProfile::peak`'s scan: max_by over total_cmp.
            powers
                .iter()
                .copied()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(_, p)| p)
                .expect("padded IFFT output is never empty")
        })
        .collect();
    nomloc_dsp::stats::median(&per_packet)
}

/// Builds the reply frame a request's solve outcome encodes to.
fn response_of(
    request_id: u64,
    result: Result<nomloc_core::LocationEstimate, nomloc_core::EstimateError>,
) -> LocateResponse {
    match result {
        Ok(est) => LocateResponse {
            request_id,
            outcome: Ok(WireEstimate::from_core(&est)),
        },
        Err(e) => LocateResponse {
            request_id,
            outcome: Err(ErrorReply {
                code: ErrorCode::from_estimate_error(&e),
                message: e.to_string(),
            }),
        },
    }
}

fn main() {
    let n_requests = if quick_mode() { 32 } else { 64 };
    let requests = workload(n_requests, 2);
    let n = requests.len() as f64;

    let venue = Venue::lab();
    let area = venue.plan.boundary().clone();
    let server = LocalizationServer::new(area.clone()).with_workers(1);
    let estimator = SpEstimator::new();
    let pdp = PdpEstimator::new();

    // Pre-encoded request frames: the bytes a loadgen connection writes.
    let frames: Vec<Vec<u8>> = requests
        .iter()
        .enumerate()
        .map(|(i, reports)| {
            wire::frame_to_vec(&Frame::LocateRequest(LocateRequest {
                request_id: i as u64,
                deadline_us: 0,
                venue_id: 0,
                session_id: 0,
                reports: reports.iter().map(WireReport::from_core).collect(),
            }))
        })
        .collect();

    // Intermediate products for the per-stage rows, computed once.
    let readings_all: Vec<_> = requests
        .iter()
        .map(|r| server.extract_readings(r))
        .collect();
    let judgements_all: Vec<_> = readings_all.iter().map(|r| server.judge(r)).collect();
    let response_frames: Vec<Frame> = judgements_all
        .iter()
        .enumerate()
        .map(|(i, j)| Frame::LocateResponse(response_of(i as u64, estimator.estimate(j, &area))))
        .collect();

    // --- Stage attribution: ns per request through each pipeline stage.
    let stage_rounds = rounds(100);
    let decode_ns = min_ns(stage_rounds, || {
        for bytes in &frames {
            let (frame, _) = wire::decode_frame(bytes).expect("benchmark frame decodes");
            if let Frame::LocateRequest(req) = frame {
                black_box(req.to_core_reports().expect("benchmark reports are valid"));
            }
        }
    }) / n;
    let pdp_ns = min_ns(stage_rounds, || {
        for reports in &requests {
            black_box(server.extract_readings(reports));
        }
    }) / n;
    let constraints_ns = min_ns(stage_rounds, || {
        for readings in &readings_all {
            black_box(server.judge(readings));
        }
    }) / n;
    let lp_ns = min_ns(stage_rounds, || {
        for judgements in &judgements_all {
            black_box(estimator.estimate(judgements, &area).ok());
        }
    }) / n;
    let pool = BufferPool::new(8);
    let encode_ns = min_ns(stage_rounds, || {
        for frame in &response_frames {
            let (mut buf, _) = pool.get();
            wire::encode_frame(frame, &mut buf);
            black_box(buf.len());
            pool.put(buf);
        }
    }) / n;

    // --- Planned vs iterative FFT kernel, 256-point (the default
    // serving transform size for Intel 5300 CSI padded to 256 taps).
    let template: Vec<Complex> = (0..256)
        .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.113).cos()))
        .collect();
    let mut planned_buf = template.clone();
    let mut naive_buf = template.clone();
    let (fft_planned_ns, fft_naive_ns) = lpcmp::paired_min_ns(
        rounds(300),
        128,
        || {
            planned_buf.copy_from_slice(&template);
            fft::fft_radix2(black_box(&mut planned_buf), false);
        },
        || {
            naive_buf.copy_from_slice(&template);
            fft::fft_radix2_unplanned(black_box(&mut naive_buf), false);
        },
    );

    // --- PDP extraction at 64-point transforms: planned + scratch
    // against the pre-plan allocating path, per burst.
    let est64 = PdpEstimator {
        min_taps: 64,
        ..PdpEstimator::default()
    };
    let all_reports: Vec<&CsiReport> = requests.iter().flatten().collect();
    let mut scratch = PdpScratch::new();
    let (pdp64_planned_ns, pdp64_naive_ns) = lpcmp::paired_min_ns(
        rounds(200),
        1,
        || {
            for r in &all_reports {
                black_box(est64.pdp_of_burst_with(&r.burst, &mut scratch));
            }
        },
        || {
            for r in &all_reports {
                black_box(pdp_burst_naive(&est64, &r.burst));
            }
        },
    );
    let bursts = all_reports.len() as f64;
    let (pdp64_planned_ns, pdp64_naive_ns) = (pdp64_planned_ns / bursts, pdp64_naive_ns / bursts);

    // --- Batched SoA PDP against the per-packet planned kernel, at the
    // serving shape: each request's reports extracted together (4 APs ×
    // 2 packets = 8 lockstep lanes per dispatch) versus the PR-5 hot path
    // replicated exactly — the planned scalar kernel per snapshot with
    // reused scratch, median per burst. Both sides allocation-free in
    // steady state, so the delta is purely the lockstep traversal.
    let mut batched_scratch = PdpScratch::new();
    let mut scalar_scratch = PdpScratch::new();
    let mut batched_out: Vec<Option<f64>> = Vec::new();
    let mut scalar_peaks: Vec<f64> = Vec::new();
    let (pdp_batched_ns, pdp_per_packet_ns) = lpcmp::paired_min_ns(
        rounds(200),
        1,
        || {
            for reports in &requests {
                let bursts: Vec<&[CsiSnapshot]> =
                    reports.iter().map(|r| r.burst.as_slice()).collect();
                pdp.pdp_of_bursts_with(&bursts, &mut batched_scratch, &mut batched_out);
                black_box(batched_out.len());
            }
        },
        || {
            for reports in &requests {
                for r in reports {
                    scalar_peaks.clear();
                    scalar_peaks.extend(
                        r.burst
                            .iter()
                            .map(|s| pdp.pdp_of_snapshot_with(s, &mut scalar_scratch)),
                    );
                    black_box(nomloc_dsp::stats::median_in_place(&mut scalar_peaks));
                }
            }
        },
    );
    let (pdp_batched_ns, pdp_per_packet_ns) = (pdp_batched_ns / n, pdp_per_packet_ns / n);

    // --- Pooled vs fresh reply encode, per frame.
    let (encode_pooled_ns, encode_fresh_ns) = lpcmp::paired_min_ns(
        rounds(300),
        1,
        || {
            for frame in &response_frames {
                let (mut buf, _) = pool.get();
                wire::encode_frame(frame, &mut buf);
                black_box(buf.len());
                pool.put(buf);
            }
        },
        || {
            for frame in &response_frames {
                black_box(wire::frame_to_vec(frame));
            }
        },
    );
    let (encode_pooled_ns, encode_fresh_ns) = (encode_pooled_ns / n, encode_fresh_ns / n);

    // --- End to end: decode → PDP → constraints → LP → encode, the
    // optimized pipeline against the pre-optimization replica.
    let e2e_rounds = rounds(100);
    let (e2e_optimized_ns, e2e_naive_ns) = lpcmp::paired_min_ns(
        e2e_rounds,
        1,
        || {
            for bytes in &frames {
                let (frame, _) = wire::decode_frame(bytes).expect("benchmark frame decodes");
                let Frame::LocateRequest(req) = frame else {
                    unreachable!("workload frames are requests");
                };
                let reports = req.to_core_reports().expect("benchmark reports are valid");
                let readings = server.extract_readings(&reports);
                let judgements = server.judge(&readings);
                let response = response_of(req.request_id, estimator.estimate(&judgements, &area));
                let (mut buf, _) = pool.get();
                wire::encode_frame(&Frame::LocateResponse(response), &mut buf);
                black_box(buf.len());
                pool.put(buf);
            }
        },
        || {
            for bytes in &frames {
                let (frame, _) = wire::decode_frame(bytes).expect("benchmark frame decodes");
                let Frame::LocateRequest(req) = frame else {
                    unreachable!("workload frames are requests");
                };
                let reports = req.to_core_reports().expect("benchmark reports are valid");
                let readings: Vec<_> = reports
                    .iter()
                    .filter_map(|r| {
                        let value = pdp_burst_naive(&pdp, &r.burst)?;
                        nomloc_core::PdpReading::try_new(r.site, value).ok()
                    })
                    .collect();
                let judgements = server.judge(&readings);
                let response = response_of(req.request_id, estimator.estimate(&judgements, &area));
                black_box(wire::frame_to_vec(&Frame::LocateResponse(response)));
            }
        },
    );
    let (e2e_optimized_ns, e2e_naive_ns) = (e2e_optimized_ns / n, e2e_naive_ns / n);

    let fft_speedup = fft_naive_ns / fft_planned_ns;
    let pdp_batched_speedup = pdp_per_packet_ns / pdp_batched_ns;
    let pdp64_speedup = pdp64_naive_ns / pdp64_planned_ns;
    let encode_speedup = encode_fresh_ns / encode_pooled_ns;
    let e2e_speedup = e2e_naive_ns / e2e_optimized_ns;

    // --- Mostly-idle connection scaling on the event loops.
    let (idle_target, soak_requests) = if quick_mode() {
        (2_000, 200)
    } else {
        (10_000, 400)
    };
    let soak = run_soak(idle_target, soak_requests);

    // --- Multi-venue fleet scaling: per-request cost at 1, 100, and
    // (full mode) 1000 live venues under zipf-over-venues traffic.
    let venue_counts: &[usize] = if quick_mode() {
        &[1, 100]
    } else {
        &[1, 100, 1000]
    };
    let venue_batch = workload(if quick_mode() { 240 } else { 480 }, 2);
    let venue_scales = run_venue_scales(venue_counts, &venue_batch);

    // --- Dispatch plane: sharded venue-affine queues at 1 and 100 live
    // venues.
    let dispatch_requests = if quick_mode() { 12_000 } else { 16_000 };
    let dispatch_scales = run_dispatch(&[1, 100], dispatch_requests);

    // --- Session plane: per-request cost of stateful tracking.
    let sessions = run_sessions(&venue_batch);
    let sessions_json = format!(
        "{{\"requests\": {}, \"stateless_ns_per_request\": {:.1}, \"sessioned_ns_per_request\": {:.1}, \"overhead_pct\": {:.2}, \"smoothed_replies\": {}}}",
        sessions.requests,
        sessions.stateless_ns_per_request,
        sessions.sessioned_ns_per_request,
        sessions.overhead_pct,
        sessions.smoothed_replies,
    );
    let venues_json: Vec<String> = venue_scales
        .iter()
        .map(|s| {
            format!(
                "{{\"live_venues\": {}, \"requests\": {}, \"ns_per_request\": {:.1}, \"p99_ns\": {:.0}, \"batches_homogeneous\": {}, \"batches_mixed\": {}}}",
                s.live_venues,
                s.requests,
                s.ns_per_request,
                s.p99_ns,
                s.batches_homogeneous,
                s.batches_mixed,
            )
        })
        .collect();
    let venues_json = format!("[{}]", venues_json.join(", "));
    let dispatch_json: Vec<String> = dispatch_scales
        .iter()
        .map(|d| {
            format!(
                "{{\"live_venues\": {}, \"connections\": {}, \"requests\": {}, \"queue_shards\": {}, \"sharded_ns_per_request\": {:.1}, \"sharded_closed_rps\": {:.0}, \"sharded_worst_worker_p99_ns\": {:.0}, \"queue_steals\": {}, \"enqueue_contention\": {}, \"sharded_depth_peak\": {}}}",
                d.live_venues,
                d.connections,
                d.requests,
                d.shards,
                d.ns_per_request,
                d.closed_rps,
                d.worst_worker_p99_ns,
                d.queue_steals,
                d.enqueue_contention,
                d.depth_peak,
            )
        })
        .collect();
    let dispatch_json = format!("[{}]", dispatch_json.join(", "));
    let soak_json = match &soak {
        Some(s) => format!(
            "{{\"idle_target\": {}, \"connections_held\": {}, \"active_requests\": {}, \"active_ns_per_request\": {:.1}, \"active_p99_ns_base\": {:.0}, \"active_p99_ns_idle\": {:.0}, \"idle_p99_ratio\": {:.3}, \"daemon_rss_delta_bytes\": {}, \"rss_bytes_per_connection\": {:.1}}}",
            s.idle_target,
            s.connections_held,
            s.active_requests,
            s.active_ns_per_request,
            s.active_p99_ns_base,
            s.active_p99_ns_idle,
            s.active_p99_ns_idle / s.active_p99_ns_base.max(1.0),
            s.daemon_rss_delta_bytes,
            s.rss_bytes_per_connection,
        ),
        None => "null".to_string(),
    };

    let json = format!(
        "{{\n  \"requests\": {n_requests},\n  \"stages\": {{\"decode_ns_per_request\": {decode_ns:.1}, \"pdp_ns_per_request\": {pdp_ns:.1}, \"constraints_ns_per_request\": {constraints_ns:.1}, \"lp_ns_per_request\": {lp_ns:.1}, \"encode_ns_per_request\": {encode_ns:.1}}},\n  \"fft\": {{\"points\": 256, \"planned_ns\": {fft_planned_ns:.1}, \"naive_ns\": {fft_naive_ns:.1}, \"speedup\": {fft_speedup:.4}}},\n  \"pdp_batched\": {{\"batched_ns_per_request\": {pdp_batched_ns:.1}, \"per_packet_ns_per_request\": {pdp_per_packet_ns:.1}, \"speedup\": {pdp_batched_speedup:.4}}},\n  \"pdp_64\": {{\"planned_ns_per_burst\": {pdp64_planned_ns:.1}, \"unplanned_ns_per_burst\": {pdp64_naive_ns:.1}, \"speedup\": {pdp64_speedup:.4}}},\n  \"encode\": {{\"pooled_ns_per_reply\": {encode_pooled_ns:.1}, \"fresh_ns_per_reply\": {encode_fresh_ns:.1}, \"speedup\": {encode_speedup:.4}}},\n  \"end_to_end\": {{\"optimized_ns_per_request\": {e2e_optimized_ns:.1}, \"naive_ns_per_request\": {e2e_naive_ns:.1}, \"speedup\": {e2e_speedup:.4}}},\n  \"soak\": {soak_json},\n  \"venues\": {venues_json},\n  \"dispatch\": {dispatch_json},\n  \"sessions\": {sessions_json}\n}}\n"
    );

    println!(
        "serving stages (ns/request): decode {decode_ns:.0} | pdp {pdp_ns:.0} | \
         constraints {constraints_ns:.0} | lp {lp_ns:.0} | encode {encode_ns:.0}"
    );
    println!(
        "fft 256-pt: planned {fft_planned_ns:.1} ns, naive {fft_naive_ns:.1} ns — \
         speedup {fft_speedup:.3}x"
    );
    println!(
        "pdp batched: {pdp_batched_ns:.0} ns/req batched SoA, {pdp_per_packet_ns:.0} ns/req \
         per-packet planned — speedup {pdp_batched_speedup:.3}x"
    );
    println!(
        "pdp 64-pt: planned {pdp64_planned_ns:.0} ns/burst, unplanned {pdp64_naive_ns:.0} \
         ns/burst — speedup {pdp64_speedup:.3}x"
    );
    println!(
        "encode: pooled {encode_pooled_ns:.0} ns/reply, fresh {encode_fresh_ns:.0} ns/reply — \
         speedup {encode_speedup:.3}x"
    );
    println!(
        "end-to-end: optimized {e2e_optimized_ns:.0} ns/req, naive {e2e_naive_ns:.0} ns/req — \
         speedup {e2e_speedup:.3}x"
    );
    if let Some(s) = &soak {
        println!(
            "soak: {} idle connections held on the event loops — active {:.0} ns/req, \
             p99 {:.2} ms idle vs {:.2} ms base ({:.2}x), daemon RSS {:+} KiB ({:.0} B/conn)",
            s.connections_held,
            s.active_ns_per_request,
            s.active_p99_ns_idle / 1e6,
            s.active_p99_ns_base / 1e6,
            s.active_p99_ns_idle / s.active_p99_ns_base.max(1.0),
            s.daemon_rss_delta_bytes / 1024,
            s.rss_bytes_per_connection,
        );
    }

    for d in &dispatch_scales {
        println!(
            "dispatch: {} venues, {} conns, {} shards — {:.0} ns/req, closed-loop {:.0} rps, \
             worst worker p99 {:.2} ms, {} steals, {} contended enqueues, depth peak {}",
            d.live_venues,
            d.connections,
            d.shards,
            d.ns_per_request,
            d.closed_rps,
            d.worst_worker_p99_ns / 1e6,
            d.queue_steals,
            d.enqueue_contention,
            d.depth_peak,
        );
    }

    for s in &venue_scales {
        println!(
            "venues: {} live — {:.0} ns/req, p99 {:.2} ms, batches homogeneous {} / mixed {}",
            s.live_venues,
            s.ns_per_request,
            s.p99_ns / 1e6,
            s.batches_homogeneous,
            s.batches_mixed,
        );
    }
    if let (Some(one), Some(hundred)) = (
        venue_scales.iter().find(|s| s.live_venues == 1),
        venue_scales.iter().find(|s| s.live_venues == 100),
    ) {
        println!(
            "venues: 100-venue per-request cost is {:+.1}% vs single-venue \
             ({:.0} ns vs {:.0} ns)",
            (hundred.ns_per_request / one.ns_per_request - 1.0) * 100.0,
            hundred.ns_per_request,
            one.ns_per_request,
        );
    }

    println!(
        "sessions: sessioned {:.0} ns/req vs stateless {:.0} ns/req — overhead {:+.2}% \
         ({} smoothed replies)",
        sessions.sessioned_ns_per_request,
        sessions.stateless_ns_per_request,
        sessions.overhead_pct,
        sessions.smoothed_replies,
    );

    let path = std::env::var("NOMLOC_BENCH_SERVING_JSON")
        .unwrap_or_else(|_| "BENCH_serving.json".to_string());
    std::fs::write(&path, &json).expect("write BENCH_serving.json");
    println!("wrote {path}");
}
