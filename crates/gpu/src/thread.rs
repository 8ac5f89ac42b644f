//! The device-code execution context.
//!
//! A [`GpuThread`] stands for one GPU thread (the paper's API code is
//! single-threaded per connection; warp-collaborative variants model a warp
//! cooperating via [`GpuThread::instr_parallel`]). Device code is ordinary
//! Rust `async` control flow; every operation charges simulated time *and*
//! the `nvprof`-style counters, routed by the kind of memory it touches.

use std::rc::Rc;

use tc_desim::Time;
use tc_mem::{Addr, RegionKind};
use tc_trace::Counter;

use crate::counters::GpuCounters;
use crate::Gpu;

/// Granularity of sysmem transactions in the nvprof counters the paper uses.
const SYSMEM_TX_BYTES: u64 = 32;

/// How a load proceeds after its issue step (see [`GpuThread::load_issue`]).
pub(crate) enum Issued {
    /// Device memory: the data is there after `delay`; `hit` if every line
    /// hit the L2.
    Device { delay: Time, hit: bool },
    /// System memory: the PCIe read goes out after `sysmem_read_extra`.
    Sysmem,
}

/// One GPU thread's execution context.
#[derive(Clone)]
pub struct GpuThread {
    gpu: Gpu,
    /// Recorder track warp spans land on. Ad-hoc threads use
    /// `gpu{node}.warp`; threads of a launched kernel use
    /// `gpu{node}.{kernel}` so each launch groups as its own timeline row.
    track: Rc<str>,
}

impl GpuThread {
    pub(crate) fn new(gpu: Gpu) -> Self {
        let track = format!("gpu{}.warp", gpu.node()).into();
        GpuThread { gpu, track }
    }

    pub(crate) fn on_track(gpu: Gpu, track: Rc<str>) -> Self {
        GpuThread { gpu, track }
    }

    /// The GPU this thread runs on.
    pub fn gpu(&self) -> &Gpu {
        &self.gpu
    }

    /// The shared GPU counters.
    pub fn counters(&self) -> &GpuCounters {
        self.gpu.counters()
    }

    #[inline]
    fn sectors(len: u64) -> u64 {
        len.div_ceil(SYSMEM_TX_BYTES).max(1)
    }

    /// Execute `n` dependent arithmetic/control instructions.
    pub async fn instr(&self, n: u64) {
        let c = self.counters();
        c.instructions.add(n);
        let t0 = self.gpu.sim().now();
        self.gpu.sim().delay(self.gpu.config().instr_time(n)).await;
        self.record_exec_span(t0, "instr", n);
    }

    /// Execute `n` instructions that a warp of `width` threads can execute
    /// cooperatively (wall time shrinks, instruction *count* per thread is
    /// `n / width` on the counting thread; the counters track the whole
    /// warp as `n`).
    pub async fn instr_parallel(&self, n: u64, width: u64) {
        let c = self.counters();
        c.instructions.add(n);
        let serial = n.div_ceil(width.max(1));
        let t0 = self.gpu.sim().now();
        self.gpu
            .sim()
            .delay(self.gpu.config().instr_time(serial))
            .await;
        self.record_exec_span(t0, "instr", n);
    }

    pub(crate) fn record_exec_span(&self, t0: Time, name: &'static str, n: u64) {
        let rec = self.gpu.sim().recorder();
        if rec.on() {
            rec.span(
                t0,
                self.gpu.sim().now(),
                "gpu",
                self.track.to_string(),
                name,
                vec![("n", n.into())],
            );
        }
    }

    /// Whether a load from `addr` crosses PCIe (host memory or MMIO)
    /// instead of reaching this GPU's device memory through the L2.
    pub(crate) fn crosses_pcie(&self, addr: Addr) -> bool {
        match self.gpu.bus().classify(addr) {
            RegionKind::GpuDram { node } | RegionKind::GpuBar { node } => {
                assert_eq!(node, self.gpu.node(), "GPU load from remote device memory");
                false
            }
            RegionKind::HostDram { .. } | RegionKind::Mmio { .. } => true,
        }
    }

    /// The counters a load of `len` bytes charges when it issues: across
    /// PCIe (`sys`), or through the L2 with `hits`/`misses` lines.
    pub(crate) fn issue_charges(
        &self,
        sys: bool,
        len: u64,
        hits: u64,
        misses: u64,
    ) -> [(&Counter, u64); 6] {
        let c = self.counters();
        if sys {
            let sectors = Self::sectors(len);
            [
                (&c.instructions, 1),
                (&c.mem_accesses, 1),
                (&c.sysmem_reads, sectors),
                (&c.l2_read_requests, sectors),
                (&c.l2_read_misses, sectors),
                (&c.l2_read_hits, 0),
            ]
        } else {
            [
                (&c.instructions, 1),
                (&c.mem_accesses, 1),
                (&c.globmem64_reads, len.div_ceil(8)),
                (&c.l2_read_requests, hits + misses),
                (&c.l2_read_hits, hits),
                (&c.l2_read_misses, misses),
            ]
        }
    }

    /// A load's issue step: charge its counters (and the L2 lookup for
    /// device memory).
    pub(crate) fn load_issue(&self, addr: Addr, len: u64) -> Issued {
        let sys = self.crosses_pcie(addr);
        let (hits, misses) = if sys {
            (0, 0)
        } else {
            self.gpu.l2().read(addr, len)
        };
        for (c, n) in self.issue_charges(sys, len, hits, misses) {
            c.add(n);
        }
        if sys {
            return Issued::Sysmem;
        }
        let cfg = self.gpu.config();
        let lat = if misses > 0 {
            cfg.dram_time()
        } else {
            cfg.l2_hit_time()
        };
        // Additional lines stream behind the first one.
        let extra = (hits + misses).saturating_sub(1) * tc_desim::time::ns(4);
        Issued::Device {
            delay: lat + extra,
            hit: misses == 0,
        }
    }

    async fn load(&self, addr: Addr, buf: &mut [u8]) {
        let gpu = &self.gpu;
        let t0 = gpu.sim().now();
        match self.load_issue(addr, buf.len() as u64) {
            Issued::Device { delay, .. } => {
                gpu.sim().delay(delay).await;
                gpu.bus().read(addr, buf);
            }
            Issued::Sysmem => {
                gpu.sim().delay(gpu.config().sysmem_read_extra).await;
                gpu.endpoint().read(addr, buf).await;
            }
        }
        self.load_span(t0, addr, buf.len() as u64);
    }

    /// The recorder span of a load issued at `t0` and complete now.
    pub(crate) fn load_span(&self, t0: Time, addr: Addr, len: u64) {
        let sim = self.gpu.sim();
        let rec = sim.recorder();
        if rec.on() {
            rec.span(
                t0,
                sim.now(),
                "gpu",
                self.track.to_string(),
                "warp_ld",
                vec![
                    ("addr", addr.into()),
                    ("bytes", len.into()),
                    ("target", tc_mem::layout::attribute_label(addr).into()),
                ],
            );
        }
    }

    async fn store(&self, addr: Addr, data: &[u8]) {
        let gpu = &self.gpu;
        let cfg = gpu.config();
        let c = self.counters();
        let len = data.len() as u64;
        let t0 = gpu.sim().now();
        c.instructions.inc();
        c.mem_accesses.inc();
        match gpu.bus().classify(addr) {
            RegionKind::GpuDram { node } | RegionKind::GpuBar { node } => {
                assert_eq!(node, gpu.node(), "GPU store to remote device memory");
                c.globmem64_writes.add(len.div_ceil(8));
                gpu.l2().write(addr, len);
                c.l2_write_requests.add(len.div_ceil(32).max(1));
                gpu.bus().write(addr, data);
                gpu.sim().delay(cfg.store_time()).await;
            }
            RegionKind::HostDram { .. } | RegionKind::Mmio { .. } => {
                let sectors = Self::sectors(len);
                c.sysmem_writes.add(sectors);
                c.l2_write_requests.add(sectors);
                // All threads share one store path to PCIe.
                gpu.store_path().transfer(cfg.pcie_store_issue).await;
                gpu.endpoint().posted_write(addr, data.to_vec()).await;
            }
        }
        let rec = gpu.sim().recorder();
        if rec.on() {
            rec.span(
                t0,
                gpu.sim().now(),
                "gpu",
                self.track.to_string(),
                "warp_st",
                vec![
                    ("addr", addr.into()),
                    ("bytes", len.into()),
                    ("target", tc_mem::layout::attribute_label(addr).into()),
                ],
            );
        }
    }

    /// 128-bit global load (one `ld.v2.u64`).
    pub async fn ld_u128(&self, addr: Addr) -> u128 {
        let mut b = [0u8; 16];
        self.load(addr, &mut b).await;
        u128::from_le_bytes(b)
    }

    /// `__threadfence_system()`: order device writes w.r.t. the host/PCIe.
    pub async fn fence_system(&self) {
        let c = self.counters();
        c.instructions.inc();
        let t0 = self.gpu.sim().now();
        self.gpu.sim().delay(self.gpu.config().fence_sys).await;
        self.record_exec_span(t0, "fence", 1);
    }
}

impl tc_pcie::Processor for GpuThread {
    fn sim(&self) -> &tc_desim::Sim {
        self.gpu.sim()
    }

    async fn instr(&self, n: u64) {
        GpuThread::instr(self, n).await;
    }

    async fn ld_bytes(&self, addr: Addr, buf: &mut [u8]) {
        self.load(addr, buf).await;
    }

    async fn st_bytes(&self, addr: Addr, data: &[u8]) {
        self.store(addr, data).await;
    }

    async fn fence(&self) {
        self.fence_system().await;
    }

    async fn spin_until(
        &self,
        probe: &tc_pcie::Probe<'_>,
        done: impl FnMut(&[u8]) -> bool,
    ) -> tc_pcie::Spun {
        tc_pcie::spin::spin_until(self, probe, done).await
    }
}

#[cfg(test)]
mod tests {
    use crate::tests::test_gpu;
    use tc_mem::layout;
    use tc_pcie::Processor;

    #[test]
    fn devmem_load_counts_globmem_and_l2() {
        let (sim, _bus, gpu) = test_gpu();
        let a = gpu.alloc(64, 64);
        let g = gpu.clone();
        sim.spawn("t", async move {
            let t = g.thread();
            t.st_u64(a, 7).await;
            assert_eq!(t.ld_u64(a).await, 7);
            assert_eq!(t.ld_u64(a).await, 7);
        });
        sim.run();
        let c = gpu.counters();
        assert_eq!(c.globmem64_writes.get(), 1);
        assert_eq!(c.globmem64_reads.get(), 2);
        // Store write-allocates the line, so both reads hit.
        assert_eq!(c.l2_read_hits.get(), 2);
        assert_eq!(c.l2_read_misses.get(), 0);
        assert_eq!(c.sysmem_reads.get(), 0);
        assert_eq!(c.mem_accesses.get(), 3);
        assert_eq!(c.instructions.get(), 3);
    }

    #[test]
    fn sysmem_load_counts_32b_transactions_and_stalls() {
        let (sim, bus, gpu) = test_gpu();
        bus.write_u64(layout::host_dram(0) + 0x40, 42);
        let g = gpu.clone();
        let sim2 = sim.clone();
        sim.spawn("t", async move {
            let t = g.thread();
            let t0 = sim2.now();
            let v = t.ld_u64(layout::host_dram(0) + 0x40).await;
            assert_eq!(v, 42);
            // A sysmem read stalls for a PCIe round trip (>= 600ns).
            assert!(sim2.now() - t0 >= tc_desim::time::ns(600));
            // A 16-byte notification read is still one 32B transaction.
            let _ = t.ld_u128(layout::host_dram(0) + 0x80).await;
            // A 40-byte read needs two.
            let mut buf = [0u8; 40];
            t.ld_bytes(layout::host_dram(0) + 0x100, &mut buf).await;
        });
        sim.run();
        let c = gpu.counters();
        assert_eq!(c.sysmem_reads.get(), 1 + 1 + 2);
        assert_eq!(c.l2_read_hits.get(), 0);
        assert_eq!(c.globmem64_reads.get(), 0);
    }

    #[test]
    fn sysmem_store_is_posted_and_cheaper_than_read() {
        let (sim, bus, gpu) = test_gpu();
        let g = gpu.clone();
        let sim2 = sim.clone();
        let h = std::rc::Rc::new(std::cell::Cell::new((0u64, 0u64)));
        let h2 = h.clone();
        sim.spawn("t", async move {
            let t = g.thread();
            let t0 = sim2.now();
            t.st_u64(layout::host_dram(0), 1).await;
            let w = sim2.now() - t0;
            let t0 = sim2.now();
            let _ = t.ld_u64(layout::host_dram(0) + 0x200).await;
            let r = sim2.now() - t0;
            h2.set((w, r));
        });
        sim.run();
        let (w, r) = h.get();
        assert!(w < r, "posted write {w} should beat read rtt {r}");
        assert_eq!(bus.read_u64(layout::host_dram(0)), 1);
        assert_eq!(gpu.counters().sysmem_writes.get(), 1);
    }

    #[test]
    fn instr_charges_time_and_count() {
        let (sim, _bus, gpu) = test_gpu();
        let g = gpu.clone();
        let sim2 = sim.clone();
        sim.spawn("t", async move {
            g.thread().instr(100).await;
            assert_eq!(sim2.now(), g.config().instr_time(100));
        });
        sim.run();
        assert_eq!(gpu.counters().instructions.get(), 100);
    }

    #[test]
    fn instr_parallel_shrinks_wall_time_not_count() {
        let (sim, _bus, gpu) = test_gpu();
        let g = gpu.clone();
        let sim2 = sim.clone();
        sim.spawn("t", async move {
            g.thread().instr_parallel(320, 32).await;
            assert_eq!(sim2.now(), g.config().instr_time(10));
        });
        sim.run();
        assert_eq!(gpu.counters().instructions.get(), 320);
    }
}
