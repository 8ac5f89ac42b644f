#![warn(missing_docs)]
//! `tc-repro` — the facade crate of the reproduction of Klenk, Oden &
//! Fröning, *Analyzing Put/Get APIs for Thread-collaborative Processors*
//! (ICPP 2014).
//!
//! Everything lives in the workspace member crates; this crate re-exports
//! the public API for examples, integration tests and downstream users:
//!
//! * [`putget`] — the paper's contribution: the unified put/get API, the
//!   two-node cluster builder and the benchmark drivers.
//! * [`mod@bench`] — the reproduction harness (`reproduce` binary lives here).
//! * Substrates: [`desim`], [`mem`], [`pcie`], [`gpu`], [`extoll`], [`ib`],
//!   [`link`].
//! * [`mod@trace`] — the instrumentation layer: the counter registry, the
//!   structured event recorder, and the Chrome trace-event exporter.

pub use tc_bench as bench;
pub use tc_desim as desim;
pub use tc_extoll as extoll;
pub use tc_gpu as gpu;
pub use tc_ib as ib;
pub use tc_link as link;
pub use tc_mem as mem;
pub use tc_pcie as pcie;
pub use tc_putget as putget;
pub use tc_trace as trace;

pub use tc_putget::{create_pair, AnyTransport, Backend, Cluster, CommError, QueueLoc, Transport};
