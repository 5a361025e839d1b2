//! `nomloc-net`: the network serving tier of NomLoc.
//!
//! Everything before this crate runs in one process: `nomloc-core`'s
//! [`LocalizationServer`](nomloc_core::LocalizationServer) turns CSI
//! reports into position estimates, batched and cached. Real deployments,
//! though, ingest CSI reports from *remote* clients — phones and APs
//! forwarding measurements over the network — so this crate adds:
//!
//! * [`wire`]: a versioned, length-prefixed, CRC-protected binary frame
//!   format with explicit encode/decode for CSI-report requests, location
//!   estimates, per-request error codes, and a stats/health frame;
//! * [`daemon`] (Unix): a std-only TCP daemon (no async runtime) whose
//!   readiness-driven event loops own nonblocking connections with
//!   bounded per-connection write buffers and slow-reader eviction, and
//!   feed a venue-affine sharded dispatch plane that coalesces requests
//!   *across connections* into adaptive micro-batches for
//!   `LocalizationServer::process_batch`, with admission control
//!   (bounded queue → explicit `Overloaded` replies), per-request
//!   deadlines, and graceful drain-on-shutdown;
//! * [`poll`] (Unix): a minimal std-only readiness abstraction (epoll on
//!   Linux, `poll(2)` elsewhere) backing the daemon's event loops;
//! * [`loadgen`]: a pipelining multi-connection load generator reporting
//!   throughput and exact p50/p95/p99 latency, with reconnect-and-resend
//!   on transport failures (capped exponential backoff plus jitter);
//! * [`chaos`]: a fault-injecting replay driver that mangles requests
//!   according to a seeded [`nomloc_faults::FaultPlan`] and verifies the
//!   daemon's per-fault-class serving contract against a fault-free
//!   baseline;
//! * [`registry`]: the multi-venue registry — venues onboard as pure
//!   data over the wire v3 admin frames, publish through a hand-rolled
//!   read-mostly arc-swap (one atomic load per locate in steady state),
//!   and LRU-evict cold caches under a memory budget with bit-identical
//!   rebuild on the next request;
//! * [`sessions`]: the crash-safe session plane — per-(venue, session)
//!   motion trackers in a sharded, TTL-evicted table owned outside the
//!   batcher threads, so sessions survive per-batch panics and batcher
//!   respawn bit-identically, and power the `Predicted` degradation
//!   tier;
//! * [`admin`]: the blocking admin-plane client (onboard/retire/list)
//!   shared by the CLI, the bench bins, and the tests.
//!
//! The wire codec is bit-exact for `f64`s, so a request decoded by the
//! daemon is *identical* to the in-process value and the pipeline —
//! deterministic by construction — returns byte-identical estimates over
//! the network and in process. The loopback integration test pins that.

// `deny` instead of `forbid` for one reason: the daemon's event-loop
// readiness layer needs four libc symbols std does not re-export. All
// `unsafe` lives in the tiny `sys` module of `poll.rs` (explicitly
// `allow`ed there); everything else in the crate still refuses it.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod admin;
pub mod chaos;
pub mod crc32;
#[cfg(unix)]
pub mod daemon;
pub mod loadgen;
#[cfg(unix)]
pub mod poll;
pub mod pool;
pub mod registry;
pub mod sessions;
pub mod wire;

pub use chaos::{ChaosConfig, ChaosReport, ChaosSummary};
#[cfg(unix)]
pub use daemon::{spawn, DaemonConfig, DaemonHandle};
pub use loadgen::{LoadgenConfig, LoadgenReport, VenuePicker};
pub use pool::BufferPool;
pub use registry::{RegistryReader, VenueRegistry};
pub use sessions::{SessionConfig, SessionTable};
pub use wire::{ErrorCode, Frame, ServerHealth, VenueSummary, WireError, WireVenue};
