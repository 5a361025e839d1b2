//! The per-layer ledger: the pool replayed in process, one request at a
//! time, through each layer's public functions in the order the daemon
//! calls them — request decode and validation, registry resolve, PDP
//! extraction, localization (which judges internally), the session plane,
//! and reply encode.
//!
//! A traced pass records a span around every call (name, start, end,
//! parent, request id) in memory and writes them out at the end; an
//! untraced pass over the same requests, on fresh state, gives the
//! in-process time per request and so the tracing overhead.

use nomloc_core::stats::PipelineStats;
use nomloc_core::EstimateQuality;
use nomloc_net::registry::{RegistryReader, VenueRegistry};
use nomloc_net::sessions::{SessionConfig, SessionTable, PREDICTED_ERROR_WIDENING};
use nomloc_net::wire::{self, Frame, LocateResponse, WireEstimate, WireSession};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::pool::{admin_op, fleet_spec, venue_server, Expect, Pool};
use crate::stats::ratio;
use crate::workload::Workload;

/// Span names. `Request` is the root of one request's spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Request,
    WireEncode,
    WireDecode,
    Resolve,
    Extract,
    Localize,
    Judge,
    Observe,
    Predict,
    Onboard,
    Retire,
}

const LAYERS: usize = 11;

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Request => "request",
            Layer::WireEncode => "wire.encode_frame",
            Layer::WireDecode => "wire.decode_frame",
            Layer::Resolve => "registry.resolve",
            Layer::Extract => "pdp.extract_readings",
            Layer::Localize => "estimator.localize",
            Layer::Judge => "proximity.judge",
            Layer::Observe => "sessions.observe",
            Layer::Predict => "sessions.predict",
            Layer::Onboard => "registry.onboard",
            Layer::Retire => "registry.retire",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

struct Span {
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    request: u64,
}

/// Where a replay pass records spans; the untraced pass records nothing.
trait Spans {
    const ON: bool;
    fn begin(&mut self, layer: Layer, parent: u32, request: u64) -> u32;
    fn end(&mut self, span: u32);
    /// A child of `parent` known only by its length (the judge span that
    /// `localize` runs internally, read from the pipeline's own timer).
    fn nested(&mut self, layer: Layer, parent: u32, dur_ns: u64);
}

struct Untraced;

impl Spans for Untraced {
    const ON: bool = false;
    #[inline(always)]
    fn begin(&mut self, _: Layer, _: u32, _: u64) -> u32 {
        0
    }
    #[inline(always)]
    fn end(&mut self, _: u32) {}
    #[inline(always)]
    fn nested(&mut self, _: Layer, _: u32, _: u64) {}
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans for Tracer {
    const ON: bool = true;
    fn begin(&mut self, layer: Layer, parent: u32, request: u64) -> u32 {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        (self.spans.len() - 1) as u32
    }

    fn end(&mut self, span: u32) {
        self.spans[span as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    fn nested(&mut self, layer: Layer, parent: u32, dur_ns: u64) {
        let p = &self.spans[parent as usize];
        let (start_ns, request) = (p.start_ns, p.request);
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent,
            request,
        });
    }
}

/// Daemon-side state a pass starts from: the registry with every
/// workload venue onboarded under the workload's budget, and an empty
/// session table.
struct State {
    registry: VenueRegistry,
    reader: RegistryReader,
    sessions: SessionTable,
    stats: Arc<PipelineStats>,
}

impl State {
    fn fresh(w: &Workload, budget: usize) -> State {
        let resident = Arc::new(venue_server(0).with_workers(1));
        let stats = resident.stats_arc();
        let registry = VenueRegistry::new(resident, "resident", 1, budget);
        for &id in &w.onboard {
            registry
                .onboard(fleet_spec(id))
                .expect("fleet venues onboard");
        }
        State {
            registry,
            reader: RegistryReader::new(),
            sessions: SessionTable::new(SessionConfig::default()),
            stats,
        }
    }

    fn judge_ns(&self) -> u64 {
        self.stats.snapshot().judge_latency.total_ns
    }
}

/// Work counts of one pass.
#[derive(Default)]
struct Counts {
    requests: u64,
    request_bytes: u64,
    reports: u64,
    snapshots: u64,
    readings: u64,
    lp_iterations: u64,
    warm_start_hits: u64,
    lp_pieces: u64,
    phase1_pivots_saved: u64,
    lp_solved: u64,
    relaxed: u64,
    bound_total: u64,
    bound_covered: u64,
    admin_ops: u64,
    mismatches: u64,
}

struct Pass {
    requests: u64,
    admin_every: u64,
    reply_buf: Vec<u8>,
    counts: Counts,
}

impl Pass {
    /// Replays request `id` (and any admin op due before it).
    fn step<S: Spans>(&mut self, pool: &Pool, st: &mut State, id: u64, spans: &mut S) {
        if self.admin_every > 0 && id.is_multiple_of(self.admin_every) {
            let op = self.counts.admin_ops;
            self.counts.admin_ops += 1;
            match admin_op(op) {
                Ok(spec) => {
                    let s = spans.begin(Layer::Onboard, NO_PARENT, 0);
                    st.registry.onboard(spec).expect("transient venue onboards");
                    spans.end(s);
                }
                Err(venue) => {
                    let s = spans.begin(Layer::Retire, NO_PARENT, 0);
                    st.registry.retire(venue).expect("transient venue retires");
                    spans.end(s);
                }
            }
        }
        let entry = pool.entry(id);
        let root = spans.begin(Layer::Request, NO_PARENT, id);

        let s = spans.begin(Layer::WireDecode, root, id);
        let Ok((Frame::LocateRequest(req), _)) = wire::decode_frame(&entry.frame) else {
            panic!("request {id} does not decode")
        };
        let reports = req.to_core_reports().expect("pool requests validate");
        spans.end(s);

        let s = spans.begin(Layer::Resolve, root, id);
        let venue = st
            .registry
            .resolve(req.venue_id, &mut st.reader)
            .expect("pool venues resolve");
        spans.end(s);
        let server = venue.server().expect("resolved venues are resident");

        let s = spans.begin(Layer::Extract, root, id);
        let readings = server.extract_readings(&reports);
        spans.end(s);

        let judge_before = if S::ON { st.judge_ns() } else { 0 };
        let s = spans.begin(Layer::Localize, root, id);
        let result = server.localize(&readings);
        spans.end(s);
        if S::ON {
            spans.nested(Layer::Judge, s, st.judge_ns() - judge_before);
        }

        let c = &mut self.counts;
        c.requests += 1;
        c.request_bytes += entry.frame.len() as u64;
        c.reports += reports.len() as u64;
        c.snapshots += reports.iter().map(|r| r.burst.len() as u64).sum::<u64>();
        c.readings += readings.len() as u64;
        let mut est = match (result, entry.expect) {
            (Ok(est), Expect::Ok { x, y, quality }) => {
                if est.position.x.to_bits() != x.to_bits()
                    || est.position.y.to_bits() != y.to_bits()
                    || est.quality.as_u8() != quality
                {
                    c.mismatches += 1;
                }
                est
            }
            (Ok(_), Expect::Err(_)) | (Err(_), Expect::Ok { .. }) => {
                c.mismatches += 1;
                return;
            }
            (Err(_), Expect::Err(_)) => return,
        };
        if est.lp_iterations > 0 {
            c.lp_solved += 1;
            c.lp_iterations += est.lp_iterations;
            c.warm_start_hits += est.warm_start_hits;
            c.lp_pieces += server.venue_cache().pieces().len() as u64;
            c.phase1_pivots_saved += est.phase1_pivots_saved;
            c.relaxed += u64::from(est.relaxation_cost > 1e-9);
        }

        // The session plane, as the daemon runs it for sessioned requests.
        let mut session = None;
        if req.session_id != 0 {
            let now = Instant::now();
            let (view, widening) = if est.quality == EstimateQuality::Centroid {
                let s = spans.begin(Layer::Predict, root, id);
                let view = st.sessions.predict(req.venue_id, req.session_id, now);
                spans.end(s);
                if let Some(v) = view {
                    est.position = v.smoothed;
                    est.quality = EstimateQuality::Predicted;
                }
                (view, PREDICTED_ERROR_WIDENING)
            } else {
                let s = spans.begin(Layer::Observe, root, id);
                let view = st
                    .sessions
                    .observe(req.venue_id, req.session_id, est.position, now);
                spans.end(s);
                (Some(view), 1.0)
            };
            if let Some(view) = view {
                let bound = venue
                    .localizability()
                    .and_then(|m| m.predicted_error_at(view.smoothed))
                    .map_or(f64::NAN, |e| e * widening);
                if bound.is_finite() {
                    c.bound_total += 1;
                    c.bound_covered += u64::from(view.smoothed.distance(entry.truth) <= bound);
                }
                session = Some(WireSession {
                    smoothed_x: view.smoothed.x,
                    smoothed_y: view.smoothed.y,
                    velocity_x: view.velocity.x,
                    velocity_y: view.velocity.y,
                    error_bound: bound,
                });
            }
        }

        let s = spans.begin(Layer::WireEncode, root, id);
        let mut reply = WireEstimate::from_core(&est);
        reply.session = session;
        let frame = Frame::LocateResponse(LocateResponse {
            request_id: id,
            outcome: Ok(reply),
        });
        self.reply_buf.clear();
        wire::encode_frame(&frame, &mut self.reply_buf);
        spans.end(s);
        spans.end(root);
    }
}

/// One pass over request ids `1..`, stopping after `limit` requests or at
/// `until`, whichever comes first. Returns the pass and its wall time.
fn pass<S: Spans>(
    w: &Workload,
    pool: &Pool,
    budget: usize,
    limit: u64,
    until: Option<Instant>,
    spans: &mut S,
) -> (Pass, Duration, State) {
    let mut st = State::fresh(w, budget);
    let admin_every = if w.admin_hz > 0.0 {
        (w.heavy_rps() / w.admin_hz).round().max(1.0) as u64
    } else {
        0
    };
    let mut p = Pass {
        requests: 0,
        admin_every,
        reply_buf: Vec::new(),
        counts: Counts::default(),
    };
    let start = Instant::now();
    while p.requests < limit {
        p.step(pool, &mut st, p.requests + 1, spans);
        p.requests += 1;
        if until.is_some_and(|t| p.requests.is_multiple_of(16) && Instant::now() >= t) {
            break;
        }
    }
    (p, start.elapsed(), st)
}

/// What the ledger reports.
pub struct Ledger {
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Per-request sum of the layers' self times, µs.
    pub layer_sum_us: f64,
    pub mismatches: u64,
}

/// Runs a warm-up pass, then untraced and traced passes over the same
/// requests (about `secs` each, alternating, each from fresh state), and
/// writes the last traced pass's spans to `spans_path`. Each mode's wall
/// time is the faster of its two passes.
pub fn run(w: &Workload, pool: &Pool, budget: usize, secs: f64, spans_path: &Path) -> Ledger {
    // Warm-up: thread-local scratch, FFT plans, caches.
    pass(
        w,
        pool,
        budget,
        pool.entries.len() as u64,
        None,
        &mut Untraced,
    );
    let until = Instant::now() + Duration::from_secs_f64(secs);
    let (plain, mut plain_wall, _) = pass(w, pool, budget, u64::MAX, Some(until), &mut Untraced);
    let n = plain.requests;
    let mut mismatches = plain.counts.mismatches;
    let mut traced_wall = Duration::MAX;
    let mut tracer = Tracer {
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    let mut last = None;
    for round in 0..2 {
        if round > 0 {
            let (p, wall, _) = pass(w, pool, budget, n, None, &mut Untraced);
            plain_wall = plain_wall.min(wall);
            mismatches += p.counts.mismatches;
        }
        tracer = Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(n as usize * 10),
        };
        let (p, wall, st) = pass(w, pool, budget, n, None, &mut tracer);
        traced_wall = traced_wall.min(wall);
        mismatches += p.counts.mismatches;
        last = Some((p, st));
    }
    let (traced, st) = last.expect("two traced rounds");

    // Self time per layer: a span's length minus its children's.
    let spans = &tracer.spans;
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut self_ns = [0u64; LAYERS];
    let mut calls = [0u64; LAYERS];
    for (s, child) in spans.iter().zip(&child_ns) {
        let i = s.layer as usize;
        self_ns[i] += (s.end_ns - s.start_ns).saturating_sub(*child);
        calls[i] += 1;
    }
    let per_req = |layers: &[Layer]| -> f64 {
        layers.iter().map(|&l| self_ns[l as usize]).sum::<u64>() as f64 / n as f64 / 1e3
    };
    let per_call = |l: Layer| ratio(self_ns[l as usize] as f64, calls[l as usize] as f64) / 1e3;
    write_spans(spans, spans_path);

    let wire_us = per_req(&[Layer::WireEncode, Layer::WireDecode]);
    let pdp_us = per_req(&[Layer::Extract]);
    let judge_us = per_req(&[Layer::Judge]);
    let localize_us = per_req(&[Layer::Localize]);
    let sessions_us = per_req(&[Layer::Observe, Layer::Predict]);
    let resolve_us = per_req(&[Layer::Resolve]);
    let layer_sum_us = wire_us + pdp_us + judge_us + localize_us + sessions_us + resolve_us;
    let plain_us = plain_wall.as_secs_f64() * 1e6 / n as f64;
    let traced_us = traced_wall.as_secs_f64() * 1e6 / n as f64;

    let c = &traced.counts;
    let judgements = st.stats.snapshot().counters.judgements_formed;
    let health = st.registry.health();
    let rebuilds: u64 = health.iter().map(|h| h.cache_rebuilds).sum();
    let hits: u64 = health.iter().map(|h| h.cache_hits).sum();
    let reqs = c.requests as f64;
    let m = |name: &str, value: f64, unit: &'static str| (name.to_owned(), value, unit);
    let metrics = vec![
        m("wire.decode_us", per_req(&[Layer::WireDecode]), "us"),
        m("wire.encode_us", per_req(&[Layer::WireEncode]), "us"),
        m(
            "wire.request_kb",
            c.request_bytes as f64 / reqs / 1024.0,
            "KiB",
        ),
        m("pdp.extract_us", pdp_us, "us"),
        m("pdp.snapshots_per_req", c.snapshots as f64 / reqs, "count"),
        m(
            "pdp.readings_per_report",
            ratio(c.readings as f64, c.reports as f64),
            "ratio",
        ),
        m("proximity.judge_us", judge_us, "us"),
        m(
            "proximity.judgements_per_req",
            judgements as f64 / reqs,
            "count",
        ),
        m("estimator.localize_us", localize_us, "us"),
        m(
            "estimator.lp_iterations_per_req",
            c.lp_iterations as f64 / reqs,
            "count",
        ),
        m(
            "estimator.warm_start_hit_share",
            ratio(c.warm_start_hits as f64, c.lp_pieces as f64),
            "ratio",
        ),
        m(
            "estimator.phase1_pivots_saved_per_req",
            c.phase1_pivots_saved as f64 / reqs,
            "count",
        ),
        m(
            "estimator.relaxed_share",
            ratio(c.relaxed as f64, c.lp_solved as f64),
            "ratio",
        ),
        m("sessions.observe_us", per_call(Layer::Observe), "us"),
        m("sessions.predict_us", per_call(Layer::Predict), "us"),
        m(
            "sessions.bound_coverage",
            ratio(c.bound_covered as f64, c.bound_total as f64),
            "ratio",
        ),
        m("registry.resolve_us", resolve_us, "us"),
        m(
            "registry.rebuild_share",
            ratio(rebuilds as f64, (rebuilds + hits) as f64),
            "ratio",
        ),
        m("registry.onboard_us", per_call(Layer::Onboard), "us"),
        m("registry.retire_us", per_call(Layer::Retire), "us"),
        m(
            "registry.resident_kb",
            st.registry.resident_bytes() as f64 / 1024.0,
            "KiB",
        ),
        m("ledger.requests", reqs, "count"),
        m("ledger.inprocess_us", plain_us, "us"),
        m("ledger.layer_sum_us", layer_sum_us, "us"),
        m(
            "ledger.layer_gap_share",
            1.0 - layer_sum_us / plain_us,
            "ratio",
        ),
        m(
            "ledger.trace_overhead_share",
            traced_us / plain_us - 1.0,
            "ratio",
        ),
        m("ledger.wire_share", wire_us / layer_sum_us, "ratio"),
        m("ledger.pdp_share", pdp_us / layer_sum_us, "ratio"),
        m("ledger.proximity_share", judge_us / layer_sum_us, "ratio"),
        m(
            "ledger.estimator_share",
            localize_us / layer_sum_us,
            "ratio",
        ),
        m("ledger.sessions_share", sessions_us / layer_sum_us, "ratio"),
        m("ledger.registry_share", resolve_us / layer_sum_us, "ratio"),
    ];
    Ledger {
        metrics,
        layer_sum_us,
        mismatches,
    }
}

/// Writes spans as tab-separated `name start_ns end_ns parent request`
/// (parent is a line index into the same file, `-` for roots).
fn write_spans(spans: &[Span], path: &Path) {
    let write = || -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tstart_ns\tend_ns\tparent\trequest")?;
        for s in spans {
            let parent = if s.parent == NO_PARENT {
                "-".to_owned()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                parent,
                s.request
            )?;
        }
        out.flush()
    };
    if let Err(e) = write() {
        eprintln!("servbench: cannot write spans to {}: {e}", path.display());
    }
}
