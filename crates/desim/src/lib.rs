#![warn(missing_docs)]
//! `tc-desim` — a deterministic discrete-event simulation (DES) kernel.
//!
//! This crate provides the simulation substrate used by every hardware model
//! in the workspace: a picosecond-resolution virtual clock, a slab-backed
//! hierarchical timing-wheel event queue (with the original binary heap
//! kept as a selectable golden reference — see [`QueueKind`]), and a
//! single-threaded cooperative executor that runs *processes* expressed as
//! ordinary Rust `async` blocks.
//!
//! # Model
//!
//! A [`Sim`] owns the clock and event queue. Components spawn processes with
//! [`Sim::spawn`]; a process is any `Future<Output = ()>`. Processes advance
//! virtual time by awaiting [`Sim::delay`], and communicate through the
//! primitives in [`sync`]: [`sync::Signal`], [`sync::Semaphore`] and
//! [`sync::Channel`]. All primitives are `!Send` by construction — a
//! simulation runs on exactly one OS thread, which is what makes runs
//! bit-for-bit deterministic (ties in timestamps are broken by scheduling
//! sequence numbers).
//!
//! # Example
//!
//! ```
//! use tc_desim::{Sim, time};
//!
//! let sim = Sim::new();
//! let sig = sim.signal();
//! let s2 = sig.clone();
//! let h = sim.clone();
//! sim.spawn("producer", async move {
//!     h.delay(time::us(5)).await;
//!     s2.notify_all();
//! });
//! let h = sim.clone();
//! let done = std::rc::Rc::new(std::cell::Cell::new(0u64));
//! let d2 = done.clone();
//! sim.spawn("consumer", async move {
//!     sig.wait().await;
//!     d2.set(h.now());
//! });
//! sim.run();
//! assert_eq!(done.get(), time::us(5));
//! ```

pub mod executor;
pub mod ffwd;
mod intern;
mod queue;
pub mod shard;
pub mod sync;
pub mod time;

pub use executor::{Parked, ProcId, Sim, Work};
pub use queue::QueueKind;
pub use shard::{run_sharded, Envelope, Outgoing, ShardHandle, WindowStat};
pub use time::{Freq, Time};

// Re-exported so hardware models can name instrumentation types through
// their existing `tc-desim` dependency.
pub use tc_trace::{Recorder, Registry};
