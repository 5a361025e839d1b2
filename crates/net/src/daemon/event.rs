//! The daemon's socket layer: N event-loop threads own every connection
//! through a [`Poller`](crate::poll::Poller) and feed decoded requests to
//! the dispatch plane; batchers hand replies back through each
//! connection's [`QueuedSink`].
//!
//! Per loop: one waker (batchers nudge the loop when they queue reply
//! bytes), one nonblocking clone of the listener (every loop accepts;
//! the kernel hands each connection to exactly one), and a slab of
//! nonblocking connections, each with an incremental
//! [`StreamDecoder`](crate::wire::StreamDecoder) and a bounded outbound
//! buffer ([`QueuedSink`]).
//!
//! **Writes are readiness-aware and bounded.** Batchers never touch a
//! socket: they append encoded reply frames to the connection's
//! `QueuedSink` and wake its loop, which flushes on writability. A
//! connection whose peer stops reading fills its buffer to
//! `write_buffer_cap` and is *evicted* (buffer dropped, socket closed,
//! `slow_readers_evicted` bumped) instead of buffering without bound —
//! batch-mates on the same loop keep flowing because the loop never
//! blocks in `write`.
//!
//! **Shutdown is two-phase.** Phase one (`shutting_down`): loops
//! deregister their listeners and stop reading, while batchers drain the
//! admitted queue and append replies. Phase two (`drain_flush`, set after
//! the watchdog joins the batchers): loops flush every remaining
//! outbound byte (bounded by a deadline), then close and exit — so
//! "every admitted request is answered" holds on the wire, not just in
//! the buffers.

use super::{error_reply, handle_frame, reply, version_reject, Shared, POLL_INTERVAL};
use crate::poll::{Event, Interest, Poller, Waker};
use crate::wire::{ErrorCode, StreamDecoder, WireError};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Token of the loop's waker fd.
const WAKER_TOKEN: u64 = 0;
/// Token of the loop's listener clone.
const LISTENER_TOKEN: u64 = 1;
/// Connection tokens are `slab slot + CONN_TOKEN_BASE`.
const CONN_TOKEN_BASE: u64 = 2;

/// Upper bound on the final flush phase: a peer that reads slower than
/// this at shutdown forfeits its tail replies (the socket closes anyway).
const FLUSH_DEADLINE: Duration = Duration::from_secs(5);
/// Poll granularity inside the final flush phase.
const FLUSH_POLL: Duration = Duration::from_millis(5);

/// Accepts drained per listener-readiness pass. An accept storm (a herd
/// of clients connecting at once) used to stall the whole loop while it
/// drained *every* pending accept — ~10µs of syscalls each — before any
/// established connection's requests were served, which is where the
/// idle-crowd p99 inflation lived. Level-triggered polling re-reports
/// the listener on the next pass, so capping the drain just interleaves
/// the remaining backlog with request handling.
const ACCEPTS_PER_PASS: usize = 64;

/// The cross-thread face of one event loop: batchers (and `shutdown`)
/// reach the loop only through this — mark a connection dirty, wake the
/// poller.
pub(super) struct LoopShared {
    waker: Waker,
    /// Slab slots with freshly queued outbound bytes (or an eviction to
    /// act on). Deduplicated by each sink's [`QueuedSink::dirty`] flag —
    /// a producer pushes its slot at most once per loop pass, so marking
    /// is O(1) regardless of how many replies are in flight. Drained by
    /// the loop each pass.
    dirty: Mutex<Vec<usize>>,
    /// A wake byte is already in the waker pipe (or this pass will pick
    /// the work up anyway) — dedups the wake syscall under reply bursts.
    wake_pending: AtomicBool,
}

impl LoopShared {
    /// Nudges the loop out of `Poller::wait` (shutdown phase changes,
    /// freshly queued replies). One pipe write per loop pass, no matter
    /// how many producers call this.
    pub(super) fn wake(&self) {
        if !self.wake_pending.swap(true, Ordering::AcqRel) {
            self.waker.wake();
        }
    }

    fn mark_dirty(&self, slot: usize) {
        self.dirty.lock().unwrap().push(slot);
        self.wake();
    }

    /// Swaps the dirty list out and re-arms the wake dedup: producers
    /// pushing after this write a fresh wake byte, producers pushing
    /// before it are in `into`.
    fn take_dirty(&self, into: &mut Vec<usize>) {
        into.clear();
        self.wake_pending.store(false, Ordering::Release);
        std::mem::swap(&mut *self.dirty.lock().unwrap(), into);
    }
}

/// The bounded outbound buffer of one connection — the write half every
/// reply goes through. Producers append whole encoded frames; only the
/// owning loop writes to the socket.
pub(super) struct QueuedSink {
    owner: Arc<LoopShared>,
    slot: usize,
    cap: usize,
    /// This sink's slot is already on the owner's dirty list. Cleared by
    /// the loop as it drains the list, so each send is one `swap` — not
    /// a locked `contains` scan over the list.
    dirty: AtomicBool,
    out: Mutex<OutBuf>,
}

#[derive(Default)]
struct OutBuf {
    buf: Vec<u8>,
    /// Bytes of `buf` already written to the socket.
    written: usize,
    /// The loop closed the socket; appends are dropped.
    closed: bool,
    /// The buffer overflowed `cap`; the loop will close the socket.
    evicted: bool,
}

impl OutBuf {
    fn pending(&self) -> usize {
        self.buf.len() - self.written
    }
}

impl QueuedSink {
    /// Appends one or more whole encoded frames and wakes the loop.
    /// Returns `false` if the connection is gone or just got evicted for
    /// overflowing its cap — the client's loss, like a failed write.
    pub(super) fn send(&self, bytes: &[u8]) -> bool {
        let queued = {
            let mut out = self.out.lock().unwrap();
            if out.closed || out.evicted {
                return false;
            }
            if out.written > 0 && out.written == out.buf.len() {
                out.buf.clear();
                out.written = 0;
            }
            if out.pending() + bytes.len() > self.cap {
                // Slow reader: the peer stopped draining its socket and
                // the bounded buffer is full. Evict instead of buffering
                // without bound; the loop closes the socket.
                out.evicted = true;
                out.buf.clear();
                out.written = 0;
                false
            } else {
                out.buf.extend_from_slice(bytes);
                true
            }
        };
        if !self.dirty.swap(true, Ordering::AcqRel) {
            self.owner.mark_dirty(self.slot);
        }
        queued
    }

    fn mark_closed(&self) {
        let mut out = self.out.lock().unwrap();
        out.closed = true;
        out.buf = Vec::new();
        out.written = 0;
    }
}

/// One connection owned by an event loop.
struct Conn {
    stream: TcpStream,
    decoder: StreamDecoder,
    writer: Arc<QueuedSink>,
    /// A fatal reply (protocol error) is queued; close the socket as
    /// soon as the outbound buffer flushes.
    close_after_flush: bool,
    /// Whether the fd is currently registered for write-readiness.
    want_write: bool,
}

/// A minimal slab: O(1) insert/remove with stable indices (the poller
/// tokens) and slot reuse.
#[derive(Default)]
struct Slab {
    slots: Vec<Option<Conn>>,
    free: Vec<usize>,
}

impl Slab {
    fn insert_with(&mut self, make: impl FnOnce(usize) -> Conn) -> usize {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(make(slot));
                slot
            }
            None => {
                let slot = self.slots.len();
                let conn = make(slot);
                self.slots.push(Some(conn));
                slot
            }
        }
    }

    fn get_mut(&mut self, slot: usize) -> Option<&mut Conn> {
        self.slots.get_mut(slot).and_then(|s| s.as_mut())
    }

    fn remove(&mut self, slot: usize) -> Option<Conn> {
        let conn = self.slots.get_mut(slot).and_then(|s| s.take());
        if conn.is_some() {
            self.free.push(slot);
        }
        conn
    }

    fn occupied(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| i))
            .collect()
    }

    fn any_pending(&self) -> bool {
        self.slots.iter().flatten().any(|conn| {
            let out = conn.writer.out.lock().unwrap();
            !out.closed && !out.evicted && out.pending() > 0
        })
    }
}

/// The loop threads and their cross-thread handles, as spawned.
pub(super) type SpawnedLoops = (Vec<JoinHandle<()>>, Vec<Arc<LoopShared>>);

/// Spawns `config.event_loops` loop threads sharing the listener.
pub(super) fn spawn_loops(
    shared: &Arc<Shared>,
    listener: &TcpListener,
) -> io::Result<SpawnedLoops> {
    let n = shared.config.event_loops.max(1);
    let mut threads = Vec::with_capacity(n);
    let mut loops = Vec::with_capacity(n);
    for i in 0..n {
        let listener = listener.try_clone()?;
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        let waker = Waker::new()?;
        poller.register(waker.rx_fd(), WAKER_TOKEN, Interest::READABLE)?;
        poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE)?;
        let loop_shared = Arc::new(LoopShared {
            waker,
            dirty: Mutex::new(Vec::new()),
            wake_pending: AtomicBool::new(false),
        });
        loops.push(Arc::clone(&loop_shared));
        let shared = Arc::clone(shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("nomloc-evloop-{i}"))
                .spawn(move || run_loop(&shared, poller, &listener, &loop_shared))?,
        );
    }
    Ok((threads, loops))
}

fn run_loop(
    shared: &Arc<Shared>,
    mut poller: Poller,
    listener: &TcpListener,
    ls: &Arc<LoopShared>,
) {
    let mut conns = Slab::default();
    let mut events: Vec<Event> = Vec::new();
    let mut dirty: Vec<usize> = Vec::new();
    let mut tmp = vec![0u8; 64 * 1024];
    let mut listener_registered = true;
    loop {
        if shared.drain_flush.load(Ordering::Acquire) {
            flush_phase(shared, &mut poller, &mut conns, ls);
            return;
        }
        let shutting = shared.shutting_down.load(Ordering::Acquire);
        if shutting && listener_registered {
            let _ = poller.deregister(listener.as_raw_fd());
            listener_registered = false;
        }
        if poller.wait(&mut events, Some(POLL_INTERVAL)).is_err() {
            // A failed wait would otherwise spin; pace it.
            std::thread::sleep(POLL_INTERVAL);
            continue;
        }
        for &ev in &events {
            match ev.token {
                WAKER_TOKEN => ls.waker.drain(),
                LISTENER_TOKEN => {
                    if !shutting {
                        accept_ready(shared, &poller, listener, &mut conns, ls);
                    }
                }
                token => {
                    let slot = (token - CONN_TOKEN_BASE) as usize;
                    if ev.readable {
                        if shutting {
                            // Drain mode: stop consuming input (admission
                            // is closed anyway) but keep flushing replies.
                        } else {
                            handle_readable(shared, &poller, &mut conns, slot, &mut tmp);
                        }
                    }
                    if ev.writable {
                        flush_slot(shared, &poller, &mut conns, slot);
                    }
                }
            }
        }
        ls.take_dirty(&mut dirty);
        for &slot in &dirty {
            // Re-arm the sink's dedup *before* flushing: a reply queued
            // mid-flush re-marks the slot instead of being stranded.
            if let Some(conn) = conns.get_mut(slot) {
                conn.writer.dirty.store(false, Ordering::Release);
            }
            flush_slot(shared, &poller, &mut conns, slot);
        }
    }
}

fn accept_ready(
    shared: &Arc<Shared>,
    poller: &Poller,
    listener: &TcpListener,
    conns: &mut Slab,
    ls: &Arc<LoopShared>,
) {
    for _ in 0..ACCEPTS_PER_PASS {
        match listener.accept() {
            Ok((stream, _)) => {
                shared
                    .net
                    .connections_accepted
                    .fetch_add(1, Ordering::Relaxed);
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    continue; // drop it; the peer sees a reset
                }
                let cap = shared.config.write_buffer_cap.max(1);
                let owner = Arc::clone(ls);
                let slot = conns.insert_with(|slot| Conn {
                    writer: Arc::new(QueuedSink {
                        owner,
                        slot,
                        cap,
                        dirty: AtomicBool::new(false),
                        out: Mutex::new(OutBuf::default()),
                    }),
                    stream,
                    decoder: StreamDecoder::new(),
                    close_after_flush: false,
                    want_write: false,
                });
                let fd = conns
                    .get_mut(slot)
                    .map(|c| c.stream.as_raw_fd())
                    .expect("slot just inserted");
                if poller
                    .register(fd, CONN_TOKEN_BASE + slot as u64, Interest::READABLE)
                    .is_err()
                {
                    // Can't watch it; drop the connection rather than leak.
                    conns.remove(slot);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                // Transient (e.g. EMFILE). The listener stays readable, so
                // back off briefly instead of spinning on the error.
                std::thread::sleep(Duration::from_millis(5));
                return;
            }
        }
    }
}

/// Reads until `WouldBlock`, feeding the incremental decoder and handing
/// complete frames to the shared `handle_frame` path.
fn handle_readable(
    shared: &Arc<Shared>,
    poller: &Poller,
    conns: &mut Slab,
    slot: usize,
    tmp: &mut [u8],
) {
    enum Action {
        ReadMore,
        WouldBlock,
        Close,
        CloseAfterFlush,
    }
    loop {
        let action = {
            let Some(conn) = conns.get_mut(slot) else {
                return;
            };
            match conn.stream.read(tmp) {
                Ok(0) => Action::Close, // peer closed
                Ok(n) => {
                    conn.decoder.extend(&tmp[..n]);
                    let mut action = Action::ReadMore;
                    loop {
                        match conn.decoder.next_frame() {
                            Ok(Some(frame)) => {
                                if handle_frame(shared, &conn.writer, frame).is_err() {
                                    action = Action::CloseAfterFlush;
                                    break;
                                }
                            }
                            Ok(None) => break,
                            Err(WireError::BadVersion { got }) => {
                                // Version mismatch: reply in the *client's*
                                // protocol version so it can decode the
                                // rejection, then close.
                                shared.net.protocol_errors.fetch_add(1, Ordering::Relaxed);
                                version_reject(shared, &conn.writer, got);
                                action = Action::CloseAfterFlush;
                                break;
                            }
                            Err(e) => {
                                // Protocol violation: explain, then close
                                // (once the explanation has flushed).
                                shared.net.protocol_errors.fetch_add(1, Ordering::Relaxed);
                                reply(
                                    shared,
                                    &conn.writer,
                                    error_reply(0, ErrorCode::Malformed, e.to_string()),
                                );
                                action = Action::CloseAfterFlush;
                                break;
                            }
                        }
                    }
                    action
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Action::WouldBlock,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => Action::ReadMore,
                Err(_) => Action::Close,
            }
        };
        match action {
            Action::ReadMore => {}
            Action::WouldBlock => return,
            Action::Close => {
                close_slot(poller, conns, slot);
                return;
            }
            Action::CloseAfterFlush => {
                if let Some(conn) = conns.get_mut(slot) {
                    conn.close_after_flush = true;
                }
                flush_slot(shared, poller, conns, slot);
                return;
            }
        }
    }
}

/// Writes as much buffered output as the socket accepts, then updates
/// write-interest / closes / evicts accordingly. Never blocks.
fn flush_slot(shared: &Arc<Shared>, poller: &Poller, conns: &mut Slab, slot: usize) {
    enum Flush {
        Evicted,
        Error,
        Pending,
        Clean,
    }
    let (outcome, close_after) = {
        let Some(conn) = conns.get_mut(slot) else {
            return;
        };
        let mut out = conn.writer.out.lock().unwrap();
        if out.evicted {
            (Flush::Evicted, conn.close_after_flush)
        } else {
            let mut outcome = Flush::Clean;
            while out.written < out.buf.len() {
                match (&conn.stream).write(&out.buf[out.written..]) {
                    Ok(0) => {
                        outcome = Flush::Error;
                        break;
                    }
                    Ok(n) => out.written += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        outcome = Flush::Pending;
                        break;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        outcome = Flush::Error;
                        break;
                    }
                }
            }
            if matches!(outcome, Flush::Clean) {
                out.buf.clear();
                out.written = 0;
            }
            (outcome, conn.close_after_flush)
        }
    };
    match outcome {
        Flush::Evicted => {
            shared
                .net
                .slow_readers_evicted
                .fetch_add(1, Ordering::Relaxed);
            close_slot(poller, conns, slot);
        }
        Flush::Error => close_slot(poller, conns, slot),
        Flush::Clean if close_after => close_slot(poller, conns, slot),
        Flush::Clean => set_write_interest(poller, conns, slot, false),
        Flush::Pending => set_write_interest(poller, conns, slot, true),
    }
}

fn set_write_interest(poller: &Poller, conns: &mut Slab, slot: usize, want: bool) {
    let Some(conn) = conns.get_mut(slot) else {
        return;
    };
    if conn.want_write == want {
        return;
    }
    let interest = Interest {
        readable: true,
        writable: want,
    };
    if poller
        .modify(
            conn.stream.as_raw_fd(),
            CONN_TOKEN_BASE + slot as u64,
            interest,
        )
        .is_ok()
    {
        conn.want_write = want;
    }
}

fn close_slot(poller: &Poller, conns: &mut Slab, slot: usize) {
    let Some(conn) = conns.remove(slot) else {
        return;
    };
    let _ = poller.deregister(conn.stream.as_raw_fd());
    conn.writer.mark_closed();
    // Dropping `conn.stream` closes the fd (after deregistration, so the
    // slot can be reused without a stale kernel registration).
}

/// The terminal phase: batchers are joined, every reply is queued — push
/// the remaining bytes onto the wire (bounded by [`FLUSH_DEADLINE`]),
/// then close everything and exit the loop thread.
fn flush_phase(shared: &Arc<Shared>, poller: &mut Poller, conns: &mut Slab, ls: &Arc<LoopShared>) {
    let deadline = Instant::now() + FLUSH_DEADLINE;
    let mut events: Vec<Event> = Vec::new();
    loop {
        ls.waker.drain();
        ls.dirty.lock().unwrap().clear();
        for slot in conns.occupied() {
            flush_slot(shared, poller, conns, slot);
        }
        if !conns.any_pending() || Instant::now() >= deadline {
            break;
        }
        let _ = poller.wait(&mut events, Some(FLUSH_POLL));
    }
    for slot in conns.occupied() {
        close_slot(poller, conns, slot);
    }
}

/// A sink attached to no loop (its waker is never drained), for
/// dispatch-plane tests that need `Pending` requests but no socket.
#[cfg(test)]
pub(super) fn detached_sink() -> QueuedSink {
    QueuedSink {
        owner: Arc::new(LoopShared {
            waker: Waker::new().expect("waker"),
            dirty: Mutex::new(Vec::new()),
            wake_pending: AtomicBool::new(false),
        }),
        slot: 0,
        cap: usize::MAX,
        dirty: AtomicBool::new(false),
        out: Mutex::new(OutBuf::default()),
    }
}
