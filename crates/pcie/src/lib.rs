#![warn(missing_docs)]
//! `tc-pcie` — a transaction-level PCIe fabric model.
//!
//! Every device (GPU, NIC) hangs off the root complex through its own
//! [`Endpoint`], which owns an upstream link with finite bandwidth. The model
//! distinguishes the transaction types that matter for the paper:
//!
//! * **Posted writes** (`Endpoint::posted_write`) — the issuer only pays the
//!   serialization cost; delivery to the target happens a wire latency later,
//!   preserving PCIe's posted-write ordering. This is how doorbells, BAR work
//!   requests and mapped host flags behave.
//! * **Non-posted reads** (`Endpoint::read`) — the issuer stalls for a full
//!   round trip. This is why polling system memory from the GPU is expensive
//!   (§V-A.3 of the paper).
//! * **Bulk DMA** (`Endpoint::dma_read` / `Endpoint::dma_write`) —
//!   bandwidth-limited payload movement, segmented into max-payload TLPs.
//!   The bytes travel as a [`tc_mem::Payload`], sampled when the read
//!   completes and landed when the write does; never-written source pages
//!   ride along as zero runs.
//!
//! # Spin-waits
//!
//! The NIC APIs spin through [`Processor::spin_until`]. Its default is the
//! plain loop and the reference; [`spin`] is the engine that `tc-gpu`'s
//! `GpuThread` and [`CpuThread`] share to fast-forward probes that provably
//! change nothing, each supplying only its step costs, charges and extra
//! resume triggers.
//!
//! # The peer-to-peer read anomaly
//!
//! The paper observes (citing Si/Ishikawa \[14\] and Potluri et al. \[15\]) that
//! streaming bandwidth *drops* once messages exceed ~1 MiB, but only when a
//! third-party device **reads** GPU memory over PCIe. We model the mechanism
//! as a limited read-request window on the GPU BAR: the first
//! [`PcieConfig::p2p_read_knee`] bytes of a logical transfer stream at
//! [`PcieConfig::p2p_read_bw`]; beyond that the effective rate degrades to
//! [`PcieConfig::p2p_read_degraded_bw`] (the GPU's BAR read engine stops
//! pipelining). This reproduces the measured shape without hard-coding any
//! curve.

pub mod config;
pub mod endpoint;
pub mod link;
pub mod proc;
pub mod spin;
pub mod stats;

pub use config::PcieConfig;
pub use endpoint::Endpoint;
pub use link::Link;
pub use proc::{
    le, probe_bytes, probe_once, CpuConfig, CpuThread, LoadKind, Probe, ProbeLoad, Processor, Spun,
    Step,
};
pub use stats::PcieStats;

use std::rc::Rc;

use tc_desim::Sim;
use tc_mem::Bus;

/// The PCIe fabric of one node: a factory for device endpoints that share
/// the node's root complex.
#[derive(Clone)]
pub struct Pcie {
    sim: Sim,
    bus: Bus,
    cfg: Rc<PcieConfig>,
    stats: Rc<PcieStats>,
    scope: Rc<str>,
}

impl Pcie {
    /// A fabric over `bus` with configuration `cfg`. Counters register in
    /// the simulation's registry under an auto-indexed `pcie{n}` scope
    /// (numbered by fabric construction order, which is deterministic).
    pub fn new(sim: Sim, bus: Bus, cfg: PcieConfig) -> Self {
        let scope = sim.registry().scope("pcie");
        let name: Rc<str> = scope.name().into();
        Self::with_scope(sim, bus, cfg, &scope, name)
    }

    /// A fabric whose counters register under the explicit scope `name`
    /// (e.g. `pcie3`, keyed by node index) instead of the construction-
    /// order auto index. A sharded cluster build constructs only a subset
    /// of nodes per simulation, so it must pin scope names to global node
    /// indices to keep registry snapshots identical to the serial build.
    pub fn new_named(sim: Sim, bus: Bus, cfg: PcieConfig, name: &str) -> Self {
        let scope = sim.registry().scope_named(name);
        Self::with_scope(sim, bus, cfg, &scope, name.into())
    }

    fn with_scope(
        sim: Sim,
        bus: Bus,
        cfg: PcieConfig,
        scope: &tc_trace::Scope,
        name: Rc<str>,
    ) -> Self {
        Pcie {
            stats: Rc::new(PcieStats::in_scope(scope)),
            scope: name,
            sim,
            bus,
            cfg: Rc::new(cfg),
        }
    }

    /// Create the endpoint for one device (its private upstream link).
    pub fn endpoint(&self, name: &str) -> Endpoint {
        Endpoint::new(
            self.sim.clone(),
            self.bus.clone(),
            self.cfg.clone(),
            self.stats.clone(),
            name,
            &format!("{}.{}", self.scope, name),
        )
    }

    /// Fabric-wide statistics.
    pub fn stats(&self) -> &PcieStats {
        &self.stats
    }

    /// The fabric configuration.
    pub fn config(&self) -> &PcieConfig {
        &self.cfg
    }
}
