//! PCIe traffic statistics.

use tc_trace::{Counter, Gauge, Histogram, Scope};

/// Fabric-wide transaction counters (data-plane truth, used by tests and to
/// cross-check the GPU performance-counter model).
///
/// A bundle of handles into the simulation's metric
/// [registry](tc_trace::Registry): each field is the registry metric
/// named in [`PcieStats::in_scope`] (`pcie0.reads`,
/// `pcie0.dma_read_bytes`, …), so a registry delta and two reads of a
/// field always agree.
#[derive(Debug)]
pub struct PcieStats {
    /// Small non-posted reads completed.
    pub reads: Counter,
    /// Bytes moved by small non-posted reads.
    pub read_bytes: Counter,
    /// Posted writes issued.
    pub posted_writes: Counter,
    /// Bytes moved by posted writes.
    pub posted_write_bytes: Counter,
    /// Bulk DMA reads.
    pub dma_reads: Counter,
    /// Bytes moved by bulk DMA reads.
    pub dma_read_bytes: Counter,
    /// Bulk DMA reads that targeted a GPU BAR (peer-to-peer).
    pub p2p_reads: Counter,
    /// Bulk DMA writes.
    pub dma_writes: Counter,
    /// Bytes moved by bulk DMA writes.
    pub dma_write_bytes: Counter,
    /// Bulk DMA writes that targeted a GPU BAR (peer-to-peer).
    pub p2p_writes: Counter,
    /// Non-posted read round-trip latency, picoseconds.
    pub np_read_ps: Histogram,
    /// Posted-write issue-to-delivery latency, picoseconds.
    pub mmio_write_ps: Histogram,
    /// Bulk DMA read duration, picoseconds.
    pub dma_read_ps: Histogram,
    /// Bulk DMA write duration, picoseconds.
    pub dma_write_ps: Histogram,
    /// Bulk DMA operations currently on the wire (current/high-water).
    pub dma_in_flight: Gauge,
}

impl PcieStats {
    /// A view whose counters are registered under `scope` (e.g. `pcie0`).
    pub fn in_scope(scope: &Scope) -> Self {
        PcieStats {
            reads: scope.counter("reads"),
            read_bytes: scope.counter("read_bytes"),
            posted_writes: scope.counter("posted_writes"),
            posted_write_bytes: scope.counter("posted_write_bytes"),
            dma_reads: scope.counter("dma_reads"),
            dma_read_bytes: scope.counter("dma_read_bytes"),
            p2p_reads: scope.counter("p2p_reads"),
            dma_writes: scope.counter("dma_writes"),
            dma_write_bytes: scope.counter("dma_write_bytes"),
            p2p_writes: scope.counter("p2p_writes"),
            np_read_ps: scope.histogram("np_read_ps"),
            mmio_write_ps: scope.histogram("mmio_write_ps"),
            dma_read_ps: scope.histogram("dma_read_ps"),
            dma_write_ps: scope.histogram("dma_write_ps"),
            dma_in_flight: scope.gauge("dma_in_flight"),
        }
    }
}
