//! The admission/dispatch plane between the socket layer and the
//! batcher pool: venue-affine sharded batching queues.
//!
//! [`QUEUE_SHARDS`] bounded shard queues, venue→shard by fibonacci hash,
//! so an event loop enqueues with exactly one shard-local lock
//! (contention is counted, never spun on) and batchers pop *already
//! venue-homogeneous* batches with no scan at all — each shard keeps
//! per-venue FIFOs threaded on a round-robin venue order, so batch
//! formation is pop-front. Shard `s` is *owned* by batcher `s mod B`:
//! each batcher round-robins its disjoint owned set (so every shard has
//! a bounded service interval even with `B < N`), and only when the
//! whole set is dry does it steal from the others, in deterministic
//! order from a per-batcher rotating cursor — a hot venue can neither
//! strand cold batchers nor starve a cold shard. Wakeups are targeted
//! park/unpark: an enqueue unparks the shard's owner (falling back to
//! any parked batcher, which will steal), bounded by the same
//! [`POLL_INTERVAL`] backstop every blocking wait in the daemon uses.
//!
//! **Contract**: admission control is a *global* capacity (one atomic
//! depth gauge across all shards), so `queue_depth_peak <=
//! queue_capacity`; queued-deadline expiry stays per-request at solve
//! time; a dying batcher requeues its (venue-homogeneous) batch at the
//! front of that venue's FIFO in its own shard; and drain-on-shutdown
//! empties every shard before `next_batch` reports dry — every admitted
//! request is answered.
//!
//! **Shutdown ordering**: the shutdown flag store and the depth
//! reservation are both `SeqCst`, and [`Sharded::admit`] re-reads the
//! flag *after* reserving. A drain that observes the flag and then
//! `depth == 0` therefore proves that every later reservation sees the
//! flag and backs out, so nothing is admitted behind the final drain.

use super::{Pending, POLL_INTERVAL};
use nomloc_core::stats::PipelineStats;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Shard count of the dispatch plane.
pub(super) const QUEUE_SHARDS: usize = 8;

/// Venue→shard by fibonacci hashing — the same multiplicative mix the
/// session table uses, so consecutive venue ids spread evenly.
fn shard_of(venue: u64, shards: usize) -> usize {
    (venue.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48) as usize % shards
}

/// Parameters `next_batch` needs from the daemon config, copied once at
/// construction so the plane is self-contained.
#[derive(Clone, Copy)]
pub(super) struct DispatchConfig {
    pub max_batch: usize,
    pub max_wait: Duration,
    pub queue_capacity: usize,
}

/// One venue's FIFO within a shard, plus whether the venue currently
/// occupies a slot in the shard's round-robin order.
#[derive(Default)]
struct VenueQueue {
    q: VecDeque<Pending>,
    /// The venue id is present in `ShardState::order`. Kept in lockstep
    /// so a venue is never listed twice (which would double-serve it) or
    /// dropped while it still holds requests (which would strand them).
    listed: bool,
}

#[derive(Default)]
struct ShardState {
    /// Round-robin service order over venues with queued requests. A
    /// venue goes to the *back* after each batch, so a cold venue in the
    /// same shard is reached within one pass of the listed venues —
    /// bounded batches, no starvation.
    order: VecDeque<u64>,
    venues: HashMap<u64, VenueQueue>,
    /// Requests queued in this shard (the global gauge lives in
    /// [`Sharded::depth`]).
    len: usize,
}

/// One batcher's parking slot: the targeted-wakeup half of the plane.
struct BatcherSlot {
    /// The batcher is parked (or about to park) and wants an unpark.
    /// `swap(false)` on the waker side makes each token single-use.
    parked: AtomicBool,
    /// The thread to unpark, registered by the batcher itself on entry
    /// (and re-registered by a watchdog respawn taking over the slot).
    thread: Mutex<Option<Thread>>,
    /// Round-robin cursor over the batcher's *owned* shards (shard `s`
    /// is owned by batcher `s % B`). Advanced past each batch, so a
    /// persistently hot owned shard cannot shadow a cold sibling in the
    /// same set — the cross-shard half of the no-starvation guarantee
    /// (the per-venue round-robin in [`ShardState::order`] is the
    /// within-shard half).
    own_cursor: AtomicUsize,
    /// Rotating start of the steal scan over *non-owned* shards, used
    /// only when every owned shard is dry. Advanced past each
    /// successful steal for the same fairness reason.
    steal_cursor: AtomicUsize,
}

/// The sharded batching plane.
pub(super) struct Sharded {
    shards: Vec<Mutex<ShardState>>,
    /// Global queued-request gauge: admission CAS-reserves a slot here
    /// *before* touching any shard, so the `queue_capacity` bound and
    /// `queue_depth_peak` hold across shards, and `depth >= queued
    /// content` at every instant (`depth == 0` proves the plane empty).
    depth: AtomicUsize,
    batchers: Vec<BatcherSlot>,
}

impl Sharded {
    /// A plane of [`QUEUE_SHARDS`] shards served by `batchers` batchers.
    pub(super) fn new(batchers: usize) -> Self {
        Sharded {
            shards: (0..QUEUE_SHARDS).map(|_| Mutex::default()).collect(),
            depth: AtomicUsize::new(0),
            batchers: (0..batchers.max(1))
                .map(|_| BatcherSlot {
                    parked: AtomicBool::new(false),
                    thread: Mutex::new(None),
                    own_cursor: AtomicUsize::new(0),
                    steal_cursor: AtomicUsize::new(0),
                })
                .collect(),
        }
    }

    fn try_unpark(&self, idx: usize) -> bool {
        if self.batchers[idx].parked.swap(false, Ordering::AcqRel) {
            if let Some(t) = &*self.batchers[idx].thread.lock().unwrap() {
                t.unpark();
            }
            true
        } else {
            false
        }
    }

    /// Targeted wakeup for an enqueue into `shard`: first the shard's
    /// owner (`shard % B`), then any parked batcher (which will steal
    /// its way to the work). At most one thread is woken per enqueue.
    fn wake_for_shard(&self, shard: usize) {
        if self.try_unpark(shard % self.batchers.len()) {
            return;
        }
        for b in 0..self.batchers.len() {
            if self.try_unpark(b) {
                return;
            }
        }
    }

    /// Pops one venue-homogeneous batch (≤ `max_batch`) off `shard`'s
    /// round-robin order. No scan: the per-venue FIFO is drained from
    /// the front. Returns the batch's venue, or `None` if the shard has
    /// no queued requests.
    fn pop_batch_from(
        &self,
        shard: usize,
        batch: &mut Vec<Pending>,
        max_batch: usize,
    ) -> Option<u64> {
        let mut state = self.shards[shard].lock().unwrap();
        loop {
            let venue = *state.order.front()?;
            state.order.pop_front();
            let vq = state
                .venues
                .get_mut(&venue)
                .expect("listed venues have a queue");
            if vq.q.is_empty() {
                // Stale listing (a fill-wait or steal emptied it after it
                // was re-listed): unlist and keep looking.
                vq.listed = false;
                state.venues.remove(&venue);
                continue;
            }
            let take = vq.q.len().min(max_batch.saturating_sub(batch.len()).max(1));
            batch.extend(vq.q.drain(..take));
            if vq.q.is_empty() {
                vq.listed = false;
                state.venues.remove(&venue);
            } else {
                // Round-robin: the venue's remainder goes to the back, so
                // shard-mates get served before its next batch.
                state.order.push_back(venue);
            }
            state.len -= take;
            self.depth.fetch_sub(take, Ordering::SeqCst);
            return Some(venue);
        }
    }

    /// Pops any queued requests for `venue` from `shard` (front of its
    /// FIFO, up to the batch's remaining headroom) during the max_wait
    /// fill window. Returns how many were taken.
    fn pop_same_venue(
        &self,
        shard: usize,
        venue: u64,
        batch: &mut Vec<Pending>,
        max_batch: usize,
    ) -> usize {
        let mut state = self.shards[shard].lock().unwrap();
        let Some(vq) = state.venues.get_mut(&venue) else {
            return 0;
        };
        let take = vq.q.len().min(max_batch.saturating_sub(batch.len()));
        if take == 0 {
            return 0;
        }
        batch.extend(vq.q.drain(..take));
        if vq.q.is_empty() && !vq.listed {
            state.venues.remove(&venue);
        }
        state.len -= take;
        self.depth.fetch_sub(take, Ordering::SeqCst);
        take
    }

    /// Registers the calling thread as batcher `idx` for targeted
    /// unparks. Called on batcher entry; a watchdog respawn re-registers
    /// the slot with the replacement thread.
    pub(super) fn register_batcher(&self, idx: usize) {
        *self.batchers[idx].thread.lock().unwrap() = Some(std::thread::current());
    }

    /// Admits `p` under the global capacity bound, or hands it back (the
    /// `Err`) for an `Overloaded` reply. A set `shutting_down` closes
    /// admission entirely. Updates the depth high-water marks, then
    /// wakes exactly one batcher.
    pub(super) fn admit(
        &self,
        p: Pending,
        shutting_down: &AtomicBool,
        config: &DispatchConfig,
        stats: &PipelineStats,
    ) -> Result<(), Pending> {
        if !self.reserve(shutting_down, config.queue_capacity, stats) {
            return Err(p);
        }
        self.enqueue(p, stats);
        Ok(())
    }

    /// Reserves one slot of the global capacity. The CAS comes first
    /// (so two shards can never jointly overshoot the capacity) and the
    /// shutdown flag is read *after* it: a reservation that races the
    /// final drain either lands before the drain's `depth == 0` check
    /// (which then waits for it) or sees the flag and releases the slot.
    fn reserve(&self, shutting_down: &AtomicBool, capacity: usize, stats: &PipelineStats) -> bool {
        let mut depth = self.depth.load(Ordering::SeqCst);
        loop {
            if depth >= capacity {
                return false;
            }
            match self.depth.compare_exchange_weak(
                depth,
                depth + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => break,
                Err(now) => depth = now,
            }
        }
        if shutting_down.load(Ordering::SeqCst) {
            self.depth.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        stats.note_queue_depth(depth as u64 + 1);
        true
    }

    /// Pushes `p` into its venue's FIFO under an already-held
    /// reservation, then wakes one batcher.
    fn enqueue(&self, p: Pending, stats: &PipelineStats) {
        let shard = shard_of(p.venue, self.shards.len());
        let venue = p.venue;
        let mut state = match self.shards[shard].try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::WouldBlock) => {
                stats.record_enqueue_contention();
                self.shards[shard].lock().unwrap()
            }
            Err(std::sync::TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
        };
        let vq = state.venues.entry(venue).or_default();
        vq.q.push_back(p);
        if !vq.listed {
            vq.listed = true;
            state.order.push_back(venue);
        }
        state.len += 1;
        stats.note_shard_depth(state.len as u64);
        drop(state);
        self.wake_for_shard(shard);
    }

    /// Requeues a dying batcher's batch at the *front* of its venue's
    /// FIFO in its own shard, preserving request order, then wakes
    /// everyone so a sibling picks it up. The batch is venue-homogeneous
    /// by construction, so the whole thing goes back to one venue FIFO.
    pub(super) fn requeue_front(&self, batch: &mut Vec<Pending>) {
        if batch.is_empty() {
            return;
        }
        let venue = batch[0].venue;
        let shard = shard_of(venue, self.shards.len());
        let n = batch.len();
        // Re-reserve the depth *before* pushing content, keeping the
        // invariant depth >= queued content (so depth == 0 still implies
        // an empty plane for drain checks).
        self.depth.fetch_add(n, Ordering::SeqCst);
        let mut state = self.shards[shard].lock().unwrap();
        let vq = state.venues.entry(venue).or_default();
        for p in batch.drain(..).rev() {
            vq.q.push_front(p);
        }
        if !vq.listed {
            vq.listed = true;
        }
        // The venue goes to the order *front*: the requeued batch is the
        // oldest admitted work in this shard.
        if let Some(pos) = state.order.iter().position(|&v| v == venue) {
            state.order.remove(pos);
        }
        state.order.push_front(venue);
        state.len += n;
        drop(state);
        self.wake_all();
    }

    /// Wakes every parked batcher (shutdown, or a requeue that any
    /// batcher may claim).
    pub(super) fn wake_all(&self) {
        for i in 0..self.batchers.len() {
            self.try_unpark(i);
        }
    }

    /// Blocks for the next venue-homogeneous micro-batch into `batch`
    /// (cleared first; capacity reused). `batcher` is the caller's slot
    /// index in `0..batchers`: it selects the owned shards and the
    /// parking slot. The watchdog's final drain borrows slot 0 once
    /// every batcher is joined. Returns `false` once the plane is empty
    /// *and* shutting down.
    pub(super) fn next_batch(
        &self,
        batcher: usize,
        batch: &mut Vec<Pending>,
        config: &DispatchConfig,
        shutting_down: impl Fn() -> bool,
        stats: &PipelineStats,
    ) -> bool {
        batch.clear();
        let nshards = self.shards.len();
        let nb = self.batchers.len();
        let slot = &self.batchers[batcher];
        // This batcher owns shards `b, b+B, b+2B, …` — every shard has
        // exactly one owner (for B <= N), so an active owner
        // round-robinning its set bounds every shard's service interval
        // even if no steal ever fires.
        let owned = if batcher < nshards {
            (nshards - batcher).div_ceil(nb)
        } else {
            0
        };
        let venue = loop {
            // Owned shards first, entered at the rotating cursor so a hot
            // owned shard cannot shadow a cold one.
            let mut got = None;
            let oc = slot.own_cursor.load(Ordering::Relaxed);
            for k in 0..owned {
                let idx = (oc + k) % owned;
                let shard = batcher + idx * nb;
                if let Some(v) = self.pop_batch_from(shard, batch, config.max_batch) {
                    slot.own_cursor.store((idx + 1) % owned, Ordering::Relaxed);
                    got = Some(v);
                    break;
                }
            }
            // Every owned shard is dry: steal from the rest, again from a
            // rotating start, so dry batchers fan out over hot shards
            // without re-draining the first one they find.
            if got.is_none() {
                let sc = slot.steal_cursor.load(Ordering::Relaxed);
                for k in 0..nshards {
                    let shard = (sc + k) % nshards;
                    if shard % nb == batcher {
                        continue; // owned; just scanned above
                    }
                    if let Some(v) = self.pop_batch_from(shard, batch, config.max_batch) {
                        stats.record_queue_steal();
                        slot.steal_cursor
                            .store((shard + 1) % nshards, Ordering::Relaxed);
                        got = Some(v);
                        break;
                    }
                }
            }
            if let Some(v) = got {
                break v;
            }
            if shutting_down() && self.depth.load(Ordering::SeqCst) == 0 {
                return false;
            }
            // Park until an enqueue targets us (or the poll backstop
            // fires — same bound as every blocking wait here). The parked
            // flag is published before the re-check, so an enqueue
            // between our scan and the park is guaranteed to either land
            // in the re-check or leave us an unpark token. In drain mode
            // the re-check never parks: a reservation still in flight
            // lands within a few instructions.
            slot.parked.store(true, Ordering::Release);
            if self.depth.load(Ordering::SeqCst) > 0 || shutting_down() {
                slot.parked.store(false, Ordering::Release);
                continue;
            }
            std::thread::park_timeout(POLL_INTERVAL);
            slot.parked.store(false, Ordering::Release);
        };
        // Fill window: wait out max_wait for more same-venue arrivals;
        // the re-check is a front-pop on one venue FIFO, not a scan. The
        // batch's venue lives in *its* shard even if this batcher stole
        // it.
        let home = shard_of(venue, nshards);
        let flush_by = Instant::now() + config.max_wait;
        while batch.len() < config.max_batch && !shutting_down() {
            let now = Instant::now();
            if now >= flush_by {
                break;
            }
            if self.pop_same_venue(home, venue, batch, config.max_batch) > 0 {
                continue;
            }
            slot.parked.store(true, Ordering::Release);
            if self.pop_same_venue(home, venue, batch, config.max_batch) == 0 {
                std::thread::park_timeout((flush_by - now).min(POLL_INTERVAL));
            }
            slot.parked.store(false, Ordering::Release);
        }
        // One last sweep so a just-arrived straggler ships now instead of
        // paying a whole extra batch.
        if batch.len() < config.max_batch {
            self.pop_same_venue(home, venue, batch, config.max_batch);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::sync::Arc;

    const CONFIG: DispatchConfig = DispatchConfig {
        max_batch: 8,
        max_wait: Duration::ZERO,
        queue_capacity: 4,
    };

    fn pending(request_id: u64) -> Pending {
        Pending {
            request_id,
            venue: 3,
            session: 0,
            reports: Vec::new(),
            admitted_at: Instant::now(),
            deadline: None,
            writer: Arc::new(super::super::event::detached_sink()),
        }
    }

    #[test]
    fn admission_closes_once_the_flag_is_set() {
        let plane = Sharded::new(1);
        let stats = PipelineStats::new();
        let flag = AtomicBool::new(false);
        assert!(plane.admit(pending(1), &flag, &CONFIG, &stats).is_ok());
        flag.store(true, Ordering::SeqCst);
        let rejected = plane
            .admit(pending(2), &flag, &CONFIG, &stats)
            .expect_err("admission after the flag must reject");
        assert_eq!(rejected.request_id, 2);
        // The rejected reservation was released: only request 1 counts.
        assert_eq!(plane.depth.load(Ordering::SeqCst), 1);

        // The drain answers the admitted request, then reports dry.
        let mut batch = Vec::new();
        assert!(plane.next_batch(0, &mut batch, &CONFIG, || true, &stats));
        assert_eq!(batch.iter().map(|p| p.request_id).collect::<Vec<_>>(), [1]);
        assert!(!plane.next_batch(0, &mut batch, &CONFIG, || true, &stats));
    }

    /// A reservation taken before the flag was set but not yet pushed
    /// (an event loop preempted between the CAS and the shard push) must
    /// hold the drain open. The flag closure completes the push on its
    /// third poll, so the test is deterministic: a drain that reported
    /// dry on empty shards alone would return `false` on the first poll.
    #[test]
    fn drain_waits_for_an_outstanding_reservation() {
        let plane = Sharded::new(1);
        let stats = PipelineStats::new();
        let flag = AtomicBool::new(false);
        assert!(plane.reserve(&flag, CONFIG.queue_capacity, &stats));
        flag.store(true, Ordering::SeqCst);

        let polls = Cell::new(0);
        let in_flight = Cell::new(Some(pending(7)));
        let shutting_down = || {
            polls.set(polls.get() + 1);
            if polls.get() == 3 {
                plane.enqueue(in_flight.take().expect("pushed once"), &stats);
            }
            true
        };
        let mut batch = Vec::new();
        assert!(
            plane.next_batch(0, &mut batch, &CONFIG, shutting_down, &stats),
            "drain reported dry while a reservation was outstanding"
        );
        assert_eq!(batch.iter().map(|p| p.request_id).collect::<Vec<_>>(), [7]);
        assert!(polls.get() >= 3);
        assert!(!plane.next_batch(0, &mut batch, &CONFIG, || true, &stats));
    }
}
