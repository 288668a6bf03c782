//! Deterministic discrete-event simulation core for the TCP Muzha reproduction.
//!
//! This crate provides the engine primitives every other crate in the workspace
//! builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time,
//! * [`DriverQueue`] — a stable (FIFO-on-tie) `BinaryHeap` queue of timed
//!   events, the one scheduler every driver runs on,
//! * [`TimerSlab`] — generation-checked timer handles for lazy cancellation,
//! * [`SmallVec`] — an inline-first vector for hot-path output batches,
//! * [`SimRng`] — a seeded, reproducible random number generator,
//! * [`stats`] — small online statistics helpers (EWMA, time series).
//!
//! The simulation is bit-for-bit deterministic for a given seed: events that
//! fire at the same virtual time are delivered in insertion order, and the
//! driver loop is single-threaded.
//!
//! # Example
//!
//! ```
//! use sim_core::{DriverQueue, SchedulerKind, SimDuration, SimTime};
//!
//! let mut q: DriverQueue<&str> = DriverQueue::new(SchedulerKind::Heap);
//! q.push(SimTime::ZERO + SimDuration::from_millis(5), "b");
//! q.push(SimTime::ZERO + SimDuration::from_millis(1), "a");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t.as_micros(), ev), (1_000, "a"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod detmap;
mod event;
mod perf;
mod rng;
mod smallvec;
pub mod snapshot;
pub mod stats;
mod tie;
mod time;
mod timer;
mod trace;

pub use detmap::{DetMap, DetSet};
pub use event::{DriverQueue, SchedulerKind};
pub use perf::RunPerf;
pub use rng::SimRng;
pub use smallvec::SmallVec;
pub use snapshot::{
    SnapError, SnapshotReader, SnapshotWriter, Snapshotable, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use tie::{TieChoice, TieClass, TieKind, TieOrder};
pub use time::{SimDuration, SimTime};
pub use timer::{TimerHandle, TimerSlab};
pub use trace::{twin_run, TraceHash};
