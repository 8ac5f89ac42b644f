#![warn(missing_docs)]
//! `tc-trace` — the unified instrumentation layer of the workspace.
//!
//! The paper's analysis reads GPU performance counters (Tables I/II), PCIe
//! transaction counts and NIC work-request timing *together* to explain why
//! GPU-controlled put/get wins or loses. This crate is the substrate that
//! makes that cross-layer view first-class instead of scattered across
//! hand-rolled per-crate stats structs:
//!
//! * [`Registry`] — named, hierarchical metrics (`pcie0.dma_reads`,
//!   `gpu0.l2.read_hits`, …) in three kinds: monotone [`Counter`]s,
//!   log2-bucket [`Histogram`]s (p50/p95/p99/max) and current/high-water
//!   [`Gauge`]s (queue depths, in-flight operations). A window of counts
//!   is the [`Snapshot::delta`] of two registry snapshots, and nothing
//!   resets a metric. The per-layer stats views (`PcieStats`,
//!   `GpuCounters`, `NicStats`, `HcaStats`) are bundles of handles into a
//!   registry.
//! * [`Recorder`] — a structured event recorder capturing timestamped
//!   spans and instants from every layer (DES executor, PCIe, GPU, NIC),
//!   exportable as Chrome trace-event JSON ([`chrome::to_chrome_json`])
//!   loadable in Perfetto or `chrome://tracing`.
//! * [`causal`] — a causal event graph recorded by the DES executor
//!   (spawn/wake/timer/channel/cross-shard/observed-write edges) with
//!   critical-path extraction and per-layer latency attribution.
//! * [`series`] — windowed simulated-time telemetry: registry deltas
//!   sampled on a fixed window grid, rendered as `tc-timeseries-v1` JSON
//!   or Perfetto counter tracks.
//! * [`rng::XorShift64`] — a tiny deterministic PRNG used by the
//!   randomized property tests, so the default workspace builds with zero
//!   external crates (the build environment has no registry access).
//! * [`fx`] — the workspace's one fast hasher for simulation-internal
//!   keys (process names, RAM pages, L2 lines).
//!
//! Recording is zero-cost when off: a disabled recorder stores no events,
//! and because it only *observes* (it never awaits, delays or schedules),
//! enabling it cannot perturb simulated timestamps — determinism is
//! preserved bit-for-bit either way.

pub mod causal;
pub mod chrome;
pub mod counter;
pub mod fx;
pub mod gauge;
pub mod histogram;
pub mod recorder;
pub mod registry;
pub mod rng;
pub mod series;

pub use counter::Counter;
pub use gauge::{Gauge, GaugeSnapshot};
pub use histogram::{Histogram, HistogramSnapshot};
pub use recorder::{ArgVal, Phase, Recorder, TraceEvent};
pub use registry::{Registry, Scope, Snapshot};
