//! `nvprof`-style performance counters.
//!
//! The metric set mirrors Tables I and II of the paper exactly, so the
//! reproduction harness can print directly comparable rows.

use tc_trace::{Counter, Scope};

/// Hardware event counters, incremented by [`crate::GpuThread`] as device
/// code executes. System-memory transactions are counted in 32-byte units,
/// like the `sysmem_read_transactions`/`sysmem_write_transactions` nvprof
/// counters the paper uses.
///
/// This is a bundle of handles into the simulation's counter
/// [registry](tc_trace::Registry): each field is the registry counter
/// named in [`GpuCounters::in_scope`] (`gpu0.sysmem.reads`,
/// `gpu0.l2.read_hits`, …), so a registry delta and two reads of a field
/// always agree. Counters only grow: a window of counts is the difference
/// of two reads.
#[derive(Debug)]
pub struct GpuCounters {
    /// 32-byte system-memory read transactions (zero-copy host reads).
    pub sysmem_reads: Counter,
    /// 32-byte system-memory write transactions (host/BAR stores).
    pub sysmem_writes: Counter,
    /// 64-bit global loads served by device memory.
    pub globmem64_reads: Counter,
    /// 64-bit global stores to device memory.
    pub globmem64_writes: Counter,
    /// L2 read requests (all global loads — sysmem loads request but miss).
    pub l2_read_requests: Counter,
    /// L2 read hits (device-memory loads that hit).
    pub l2_read_hits: Counter,
    /// L2 read misses.
    pub l2_read_misses: Counter,
    /// L2 write requests (all global stores).
    pub l2_write_requests: Counter,
    /// Load/store instructions executed.
    pub mem_accesses: Counter,
    /// Total instructions executed.
    pub instructions: Counter,
}

impl GpuCounters {
    /// A view whose counters are registered under `scope` (e.g. `gpu0`),
    /// with the L2 / sysmem / globmem64 groups as nested scopes:
    /// `gpu0.sysmem.reads`, `gpu0.globmem64.writes`, `gpu0.l2.read_hits`, …
    pub fn in_scope(scope: &Scope) -> Self {
        let sysmem = scope.scope("sysmem");
        let globmem = scope.scope("globmem64");
        let l2 = scope.scope("l2");
        GpuCounters {
            sysmem_reads: sysmem.counter("reads"),
            sysmem_writes: sysmem.counter("writes"),
            globmem64_reads: globmem.counter("reads"),
            globmem64_writes: globmem.counter("writes"),
            l2_read_requests: l2.counter("read_requests"),
            l2_read_hits: l2.counter("read_hits"),
            l2_read_misses: l2.counter("read_misses"),
            l2_write_requests: l2.counter("write_requests"),
            mem_accesses: scope.counter("mem_accesses"),
            instructions: scope.counter("instructions"),
        }
    }
}
