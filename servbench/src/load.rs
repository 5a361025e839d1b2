//! The load generator: two loopback connections, one sender thread (the
//! caller's) and one receiver thread multiplexing both sockets. Open-loop
//! rungs send on a seeded Poisson schedule whatever the daemon does, and
//! time each request from when it was due; the goodput phase keeps a fixed
//! window outstanding instead. The receiver checks every reply against the
//! in-process reference as it decodes it.

use nomloc_core::EstimateQuality;
use nomloc_net::poll::{Event, Interest, Poller};
use nomloc_net::wire::{self, Frame, StreamDecoder};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::pool::{admin_op, Expect, Pool};
use crate::stats::SplitMix;

/// Connections, and so client threads: one sender plus one receiver.
pub const CONNECTIONS: usize = 2;

/// Most outstanding requests an open-loop rung tolerates before it is
/// abandoned as a growing backlog: well below the daemon's admission
/// capacity (1024), so that the generator itself never provokes an
/// `Overloaded` refusal.
pub const BACKLOG_CAP: u64 = 512;

const NONE: u8 = 0;
const OK: u8 = 1;
const FAILED: u8 = 2;

/// State the receiver fills in, indexed by request id.
struct Shared {
    pool: Arc<Pool>,
    epoch: Instant,
    /// Reply-decoded time per request id, ns since `epoch`.
    recv_ns: Vec<AtomicU64>,
    outcome: Vec<AtomicU8>,
    received: AtomicU64,
    ok: AtomicU64,
    degraded: AtomicU64,
    /// Correctness violations (first few kept).
    violations: Mutex<Vec<String>>,
    violation_count: AtomicU64,
    /// Send stamps of admin frames awaiting their reply, per connection.
    admin_sent: [Mutex<VecDeque<Instant>>; CONNECTIONS],
    admin_rtt_ms: Mutex<Vec<f64>>,
    stop: AtomicBool,
}

impl Shared {
    fn violation(&self, msg: String) {
        self.violation_count.fetch_add(1, Ordering::Relaxed);
        let mut v = self.violations.lock().unwrap();
        if v.len() < 8 {
            v.push(msg);
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Checks one locate reply against the reference and records it.
    fn locate_reply(&self, resp: wire::LocateResponse) {
        let id = resp.request_id;
        let Some(slot) = self.outcome.get(id as usize).filter(|_| id > 0) else {
            self.violation(format!("reply for unknown request id {id}"));
            return;
        };
        let entry = self.pool.entry(id);
        let outcome = match (&resp.outcome, entry.expect) {
            (Ok(est), Expect::Ok { x, y, quality }) => {
                let same = est.x.to_bits() == x.to_bits()
                    && est.y.to_bits() == y.to_bits()
                    && est.quality == quality;
                // A sessioned request whose raw estimate is the centroid
                // is answered from the session's motion model instead.
                let promoted = entry.session != 0
                    && quality == EstimateQuality::Centroid.as_u8()
                    && est.quality == EstimateQuality::Predicted.as_u8();
                if !(same || promoted) {
                    self.violation(format!(
                        "request {id}: daemon answered ({}, {}, q{}), in-process ({x}, {y}, q{quality})",
                        est.x, est.y, est.quality
                    ));
                }
                if est.quality != EstimateQuality::Full.as_u8() {
                    self.degraded.fetch_add(1, Ordering::Relaxed);
                }
                OK
            }
            (Ok(_), Expect::Err(code)) => {
                self.violation(format!("request {id}: answered Ok, in-process {code}"));
                OK
            }
            (Err(_), _) => FAILED,
        };
        if slot.swap(outcome, Ordering::Relaxed) != NONE {
            self.violation(format!("request {id} answered twice"));
            return;
        }
        self.recv_ns[id as usize].store(self.now_ns(), Ordering::Relaxed);
        if outcome == OK {
            self.ok.fetch_add(1, Ordering::Relaxed);
        }
        self.received.fetch_add(1, Ordering::Release);
    }

    fn admin_reply(&self, conn: usize, resp: wire::VenueAdminResponse) {
        let Some(sent) = self.admin_sent[conn].lock().unwrap().pop_front() else {
            self.violation("admin reply with no admin frame outstanding".into());
            return;
        };
        if let Err(e) = resp.outcome {
            self.violation(format!("admin frame failed: {} {}", e.code, e.message));
        }
        self.admin_rtt_ms
            .lock()
            .unwrap()
            .push(sent.elapsed().as_secs_f64() * 1e3);
    }
}

fn receive(shared: &Shared, mut streams: Vec<TcpStream>) -> io::Result<()> {
    let mut poller = Poller::new()?;
    // The sockets stay blocking (the sender shares them): one read per
    // readiness event returns what has arrived without waiting for more.
    for (i, s) in streams.iter().enumerate() {
        poller.register(s.as_raw_fd(), i as u64, Interest::READABLE)?;
    }
    let mut decoders: Vec<StreamDecoder> = streams.iter().map(|_| StreamDecoder::new()).collect();
    let mut buf = vec![0u8; 256 * 1024];
    let mut events: Vec<Event> = Vec::new();
    while !shared.stop.load(Ordering::Acquire) {
        poller.wait(&mut events, Some(Duration::from_millis(10)))?;
        for ev in &events {
            let conn = ev.token as usize;
            match streams[conn].read(&mut buf)? {
                0 => return Err(io::Error::other("daemon closed a connection")),
                n => decoders[conn].extend(&buf[..n]),
            }
            while let Some(frame) = decoders[conn]
                .next_frame()
                .map_err(|e| io::Error::other(format!("bad reply frame: {e}")))?
            {
                match frame {
                    Frame::LocateResponse(resp) => shared.locate_reply(resp),
                    Frame::VenueAdminResponse(resp) => shared.admin_reply(conn, resp),
                    other => shared.violation(format!("unexpected frame {other:?}")),
                }
            }
        }
    }
    Ok(())
}

/// What one open-loop rung did.
pub struct Rung {
    pub rate: f64,
    /// Request ids `first..first + sent`.
    pub first: u64,
    pub sent: u64,
    /// Due time of each request, ns since the client epoch.
    pub due_ns: Vec<u64>,
    /// Send time minus due time, ms.
    pub late_ms: Vec<f64>,
    pub outstanding_start: u64,
    pub outstanding_end: u64,
    /// Stopped early because the backlog reached its cap.
    pub abandoned: bool,
}

pub struct Client {
    shared: Arc<Shared>,
    writers: Vec<TcpStream>,
    receiver: Option<JoinHandle<io::Result<()>>>,
    /// The client's copies of the pool frames, and the request id each
    /// copy carries now.
    frames: Vec<Vec<u8>>,
    stamped: Vec<u64>,
    next_id: u64,
    admin_ops: u64,
}

impl Client {
    /// Connects to the daemon; `capacity` bounds the request ids a run
    /// may use.
    pub fn connect(addr: SocketAddr, pool: Arc<Pool>, capacity: usize) -> io::Result<Client> {
        let mut writers = Vec::new();
        let mut readers = Vec::new();
        for _ in 0..CONNECTIONS {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            readers.push(s.try_clone()?);
            writers.push(s);
        }
        let frames = pool.entries.iter().map(|e| e.frame.clone()).collect();
        let stamped = vec![0; pool.entries.len()];
        let shared = Arc::new(Shared {
            pool,
            epoch: Instant::now(),
            recv_ns: (0..=capacity).map(|_| AtomicU64::new(0)).collect(),
            outcome: (0..=capacity).map(|_| AtomicU8::new(NONE)).collect(),
            received: AtomicU64::new(0),
            ok: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            violations: Mutex::new(Vec::new()),
            violation_count: AtomicU64::new(0),
            admin_sent: std::array::from_fn(|_| Mutex::new(VecDeque::new())),
            admin_rtt_ms: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
        });
        let receiver = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || receive(&shared, readers))
        };
        Ok(Client {
            shared,
            writers,
            receiver: Some(receiver),
            frames,
            stamped,
            next_id: 1,
            admin_ops: 0,
        })
    }

    fn capacity(&self) -> u64 {
        self.shared.outcome.len() as u64 - 1
    }

    pub fn sent(&self) -> u64 {
        self.next_id - 1
    }

    pub fn outstanding(&self) -> u64 {
        self.sent() - self.shared.received.load(Ordering::Acquire)
    }

    /// Stamps the next request id into its pool frame and writes it.
    /// Sessioned requests keep to one connection per session; stateless
    /// ones alternate.
    fn send_next(&mut self) -> io::Result<()> {
        let id = self.next_id;
        let idx = ((id - 1) % self.frames.len() as u64) as usize;
        let entry = &self.shared.pool.entries[idx];
        entry.restamp(&mut self.frames[idx], self.stamped[idx], id);
        self.stamped[idx] = id;
        let conn = if entry.session != 0 {
            entry.session
        } else {
            id
        } as usize
            % CONNECTIONS;
        self.next_id += 1;
        self.writers[conn].write_all(&self.frames[idx])
    }

    /// Sends the next admin frame: onboard a transient venue, then retire
    /// it, alternating connections.
    fn send_admin(&mut self) -> io::Result<()> {
        let op = self.admin_ops;
        self.admin_ops += 1;
        let frame = match admin_op(op) {
            Ok(spec) => Frame::VenueOnboard(spec),
            Err(venue) => Frame::VenueRetire(venue),
        };
        let conn = op as usize % CONNECTIONS;
        self.shared.admin_sent[conn]
            .lock()
            .unwrap()
            .push_back(Instant::now());
        wire::write_frame(&mut self.writers[conn], &frame)
    }

    /// One open-loop rung: Poisson arrivals at `rate` for `secs`, with
    /// admin frames every `1 / admin_hz` seconds when `admin_hz > 0`. The
    /// rung is abandoned once `abandon_at` requests are outstanding.
    pub fn open_loop(
        &mut self,
        rate: f64,
        secs: f64,
        admin_hz: f64,
        abandon_at: u64,
        rng: &mut SplitMix,
    ) -> io::Result<Rung> {
        let epoch = self.shared.epoch;
        let start = Instant::now() + Duration::from_millis(1);
        let mut rung = Rung {
            rate,
            first: self.next_id,
            sent: 0,
            due_ns: Vec::with_capacity((rate * secs * 1.1) as usize),
            late_ms: Vec::with_capacity((rate * secs * 1.1) as usize),
            outstanding_start: self.outstanding(),
            outstanding_end: 0,
            abandoned: false,
        };
        let admin_period = if admin_hz > 0.0 {
            1.0 / admin_hz
        } else {
            f64::INFINITY
        };
        let mut next_admin = admin_period / 2.0;
        let mut t = rng.exponential(rate);
        while t < secs {
            if next_admin <= t {
                wait_until(start + Duration::from_secs_f64(next_admin));
                self.send_admin()?;
                next_admin += admin_period;
                continue;
            }
            let due = start + Duration::from_secs_f64(t);
            wait_until(due);
            if self.outstanding() >= abandon_at || self.next_id > self.capacity() {
                rung.abandoned = true;
                break;
            }
            let now = Instant::now();
            rung.late_ms
                .push(now.saturating_duration_since(due).as_secs_f64() * 1e3);
            rung.due_ns.push((due - epoch).as_nanos() as u64);
            self.send_next()?;
            rung.sent += 1;
            t += rng.exponential(rate);
        }
        rung.outstanding_end = self.outstanding();
        Ok(rung)
    }

    /// Saturating phase: keeps `window` requests outstanding for `secs`.
    /// After a short warm-up the phase is cut into `slices` equal slices;
    /// returns each slice's `Ok`-reply rate, per second.
    pub fn goodput(&mut self, window: u64, secs: f64, slices: usize) -> io::Result<Vec<f64>> {
        let start = Instant::now();
        let warm = (secs * 0.1).min(0.5);
        let slice = Duration::from_secs_f64((secs - warm) / slices as f64);
        let mut next_mark = start + Duration::from_secs_f64(warm);
        let mut marks: Vec<(Instant, u64)> = Vec::with_capacity(slices + 1);
        while marks.len() <= slices {
            let now = Instant::now();
            if now >= next_mark {
                marks.push((now, self.shared.ok.load(Ordering::Acquire)));
                next_mark += slice;
                continue;
            }
            if self.outstanding() < window && self.next_id <= self.capacity() {
                self.send_next()?;
            } else {
                std::thread::sleep(Duration::from_micros(20));
            }
        }
        Ok(marks
            .windows(2)
            .map(|m| (m[1].1 - m[0].1) as f64 / (m[1].0 - m[0].0).as_secs_f64())
            .collect())
    }

    /// Waits until every sent request and admin frame is answered, or
    /// `timeout` passes. Returns whether everything was answered.
    pub fn drain(&self, timeout: Duration) -> bool {
        let end = Instant::now() + timeout;
        loop {
            let admin_pending = self
                .shared
                .admin_sent
                .iter()
                .any(|q| !q.lock().unwrap().is_empty());
            if self.outstanding() == 0 && !admin_pending {
                return true;
            }
            if Instant::now() >= end || self.receiver_done() {
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn receiver_done(&self) -> bool {
        self.receiver.as_ref().is_none_or(|r| r.is_finished())
    }

    /// Latency of each request of `rung` in ms, from its due time to its
    /// decoded reply; refused, failed and unanswered requests are `inf`.
    pub fn latencies(&self, rung: &Rung) -> Vec<f64> {
        (0..rung.sent)
            .map(|k| {
                let id = (rung.first + k) as usize;
                if self.shared.outcome[id].load(Ordering::Acquire) != OK {
                    return f64::INFINITY;
                }
                let recv = self.shared.recv_ns[id].load(Ordering::Relaxed);
                recv.saturating_sub(rung.due_ns[k as usize]) as f64 / 1e6
            })
            .collect()
    }

    /// Requests answered with anything but `Ok`, or not answered at all.
    pub fn failed(&self) -> u64 {
        self.sent() - self.shared.ok.load(Ordering::Acquire)
    }

    pub fn degraded(&self) -> u64 {
        self.shared.degraded.load(Ordering::Relaxed)
    }

    pub fn admin_rtt_ms(&self) -> Vec<f64> {
        self.shared.admin_rtt_ms.lock().unwrap().clone()
    }

    /// Stops the receiver and closes the connections. Returns the
    /// correctness violations seen, including a receiver error.
    pub fn finish(mut self) -> (u64, Vec<String>) {
        self.shared.stop.store(true, Ordering::Release);
        let result = self.receiver.take().map(|r| r.join());
        let mut violations = self.shared.violations.lock().unwrap().clone();
        let mut count = self.shared.violation_count.load(Ordering::Relaxed);
        match result {
            Some(Ok(Ok(()))) | None => {}
            Some(Ok(Err(e))) => {
                count += 1;
                violations.push(format!("receiver: {e}"));
            }
            Some(Err(_)) => {
                count += 1;
                violations.push("receiver panicked".into());
            }
        }
        (count, violations)
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(r) = self.receiver.take() {
            let _ = r.join();
        }
    }
}

fn wait_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}
