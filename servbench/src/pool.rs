//! The seeded input pool: a fixed set of distinct requests synthesized with
//! rfsim before any timing, plus the in-process reference answer for each.

use nomloc_core::scenario::{fleet_venue, Venue, WorkloadBuilder};
use nomloc_core::LocalizationServer;
use nomloc_geometry::Point;
use nomloc_net::wire::{self, ErrorCode, Frame, LocateRequest, WireReport};
use nomloc_net::{VenuePicker, WireVenue};
use std::collections::HashMap;

use crate::workload::Workload;

/// Distinct venue geometries `fleet_venue` cycles through.
const FLEET_SHAPES: u64 = 15;

/// What the daemon must answer for one request: the raw estimate's
/// position and quality, bit for bit, or the error code.
#[derive(Debug, Clone, Copy)]
pub enum Expect {
    Ok { x: f64, y: f64, quality: u8 },
    Err(ErrorCode),
}

/// Bits of the request id a pool frame can be restamped with.
pub const ID_BITS: usize = 24;

/// For each bit of the request id, the bytes that bit flips in an encoded
/// frame (id and checksum), as `(offset, xor mask)`.
type IdFlips = Vec<Vec<(usize, u8)>>;

pub struct Entry {
    /// 0 for stateless requests.
    pub session: u64,
    pub truth: Point,
    /// The encoded request frame, with request id 0.
    pub frame: Vec<u8>,
    id_flips: IdFlips,
    pub expect: Expect,
}

impl Entry {
    /// Rewrites the request id of `frame`, a copy of this entry's frame
    /// that carries id `from`, to `to`. The client sends pre-encoded
    /// frames this way, so the load generator spends no CPU encoding.
    pub fn restamp(&self, frame: &mut [u8], from: u64, to: u64) {
        let diff = from ^ to;
        for (bit, flips) in self.id_flips.iter().enumerate() {
            if diff >> bit & 1 == 1 {
                for &(offset, mask) in flips {
                    frame[offset] ^= mask;
                }
            }
        }
    }
}

/// Encodes `request` and finds the bytes each request-id bit flips (the
/// frame, checksum included, is affine in the id bits over GF(2)). Fails if
/// a restamped frame differs from a freshly encoded one.
fn encode(request: LocateRequest, check_id: u64) -> Result<(Vec<u8>, IdFlips), String> {
    let mut frame = Frame::LocateRequest(request);
    let mut with_id = |id: u64| {
        if let Frame::LocateRequest(r) = &mut frame {
            r.request_id = id;
        }
        wire::frame_to_vec(&frame)
    };
    let base = with_id(0);
    let id_flips: IdFlips = (0..ID_BITS)
        .map(|bit| {
            let flipped = with_id(1 << bit);
            base.iter()
                .zip(&flipped)
                .enumerate()
                .filter(|(_, (a, b))| a != b)
                .map(|(offset, (a, b))| (offset, a ^ b))
                .collect()
        })
        .collect();
    let expected = with_id(check_id);
    let mut entry = Entry {
        session: 0,
        truth: Point::new(0.0, 0.0),
        frame: base,
        id_flips,
        expect: Expect::Err(ErrorCode::Malformed),
    };
    let mut restamped = entry.frame.clone();
    entry.restamp(&mut restamped, 0, check_id);
    if restamped != expected {
        return Err(
            "request frames do not restamp: the wire encoding is not affine in the request id"
                .into(),
        );
    }
    Ok((std::mem::take(&mut entry.frame), entry.id_flips))
}

pub struct Pool {
    pub entries: Vec<Entry>,
}

impl Pool {
    /// The entry request `id` replays (ids are 1-based, the pool cyclic).
    pub fn entry(&self, id: u64) -> &Entry {
        &self.entries[((id - 1) % self.entries.len() as u64) as usize]
    }

    /// Localization errors of the raw in-process estimates, metres.
    pub fn errors(&self) -> Vec<f64> {
        self.entries
            .iter()
            .filter_map(|e| match e.expect {
                Expect::Ok { x, y, .. } => Some(Point::new(x, y).distance(e.truth)),
                Expect::Err(_) => None,
            })
            .collect()
    }
}

/// The onboarding spec of fleet venue `id`, exactly as the daemon gets it.
pub fn fleet_spec(id: u64) -> WireVenue {
    WireVenue::from_venue(id, &fleet_venue(id))
}

/// Venue ids the admin stream onboards and retires; no request targets
/// them, so churn never turns a request into `UnknownVenue`.
const TRANSIENT_VENUE_BASE: u64 = 1 << 20;

/// The `op`-th admin operation of a churn stream: even ops onboard a
/// transient venue (`Ok(spec)`), odd ops retire it again (`Err(id)`).
pub fn admin_op(op: u64) -> Result<WireVenue, u64> {
    let venue = TRANSIENT_VENUE_BASE + op / 2;
    if op.is_multiple_of(2) {
        let mut spec = fleet_spec(op / 2 % FLEET_SHAPES + 1);
        spec.venue_id = venue;
        Ok(spec)
    } else {
        Err(venue)
    }
}

/// The server the daemon localizes venue `id` with, built the same way:
/// venue 0 from the Lab's floor plan, fleet venues from their onboarding
/// spec's boundary.
pub fn venue_server(id: u64) -> LocalizationServer {
    if id == 0 {
        LocalizationServer::new(Venue::lab().plan.boundary().clone())
    } else {
        let area = fleet_spec(id)
            .boundary_polygon()
            .expect("fleet venues have valid boundaries");
        LocalizationServer::new(area)
    }
}

/// Reference servers, one per distinct geometry (venue 0 on its own).
struct References(HashMap<u64, LocalizationServer>);

impl References {
    fn key(venue: u64) -> u64 {
        if venue == 0 {
            u64::MAX
        } else {
            venue % FLEET_SHAPES
        }
    }

    fn server(&mut self, venue: u64) -> &LocalizationServer {
        self.0
            .entry(Self::key(venue))
            .or_insert_with(|| venue_server(venue).with_workers(1))
    }
}

/// The venue budget that keeps `share` of the onboarded caches resident
/// (0 = unlimited).
pub fn venue_budget(w: &Workload) -> usize {
    let Some(share) = w.resident_share else {
        return 0;
    };
    let mut refs = References(HashMap::new());
    let total: usize = w
        .onboard
        .iter()
        .map(|&id| refs.server(id).venue_cache().approx_bytes())
        .sum();
    (total as f64 * share) as usize
}

/// Synthesizes the workload's pool from `seed`: one rfsim builder per
/// distinct venue geometry, request `i` drawn for the venue the mix picks.
pub fn build(w: &Workload, seed: u64) -> Result<Pool, String> {
    let picker = VenuePicker::new(&w.venues, w.zipf_s, seed);
    let mut builders: HashMap<u64, WorkloadBuilder> = HashMap::new();
    let mut refs = References(HashMap::new());
    let entries = (0..w.pool)
        .map(|i| {
            let venue = picker.pick(i as u64);
            let builder = builders
                .entry(venue % FLEET_SHAPES)
                .or_insert_with(|| WorkloadBuilder::new(&fleet_venue(venue % FLEET_SHAPES)));
            let (truth, reports) = builder.request(i, w.packets, seed);
            let expect = match refs.server(venue).process(&reports) {
                Ok(est) => Expect::Ok {
                    x: est.position.x,
                    y: est.position.y,
                    quality: est.quality.as_u8(),
                },
                Err(e) => Expect::Err(ErrorCode::from_estimate_error(&e)),
            };
            let session = if w.sessions_per_venue == 0 {
                0
            } else {
                venue * w.sessions_per_venue + i as u64 % w.sessions_per_venue + 1
            };
            let request = LocateRequest {
                request_id: 0,
                deadline_us: 0,
                venue_id: venue,
                session_id: session,
                reports: reports.iter().map(WireReport::from_core).collect(),
            };
            let (frame, id_flips) = encode(request, (1 << ID_BITS) - 1 - i as u64)?;
            Ok(Entry {
                session,
                truth,
                frame,
                id_flips,
                expect,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(Pool { entries })
}
