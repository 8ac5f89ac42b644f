#![warn(missing_docs)]
//! `tc-gpu` — a warp-granular model of a thread-collaborative processor
//! (an NVIDIA Kepler-class GPU), sufficient to reproduce the paper's
//! performance-counter analysis.
//!
//! The paper's entire argument rests on *which memory operations* the put/get
//! API code performs from the GPU and what each costs:
//!
//! * loads/stores to **device memory** go through the L2 (the L1 is bypassed
//!   for global accesses on Kepler) — cheap, cacheable, counted as
//!   `globmem64` accesses and L2 requests/hits;
//! * loads/stores to **system memory** (zero-copy host mappings, NIC BARs)
//!   traverse PCIe — a non-posted read stalls the thread for a full round
//!   trip, a posted write costs a store-buffer drain; both are counted in
//!   32-byte transactions like the `sysmem_read/write_transactions` nvprof
//!   counters;
//! * every instruction a single thread issues back-to-back pays the full
//!   dependent-issue latency, because a GPU hides latency with *other*
//!   warps, not out-of-order execution — this is why single-thread work
//!   request generation is so expensive (§V-B.3, §VI).
//!
//! [`GpuThread`] executes real Rust control flow while charging these costs
//! and counters, so the values in the paper's Tables I and II *emerge* from
//! running the actual API code paths. [`Gpu::launch`] provides
//! blocks/streams with launch overhead for the message-rate experiments.
//!
//! Spin-waits fast-forward through `tc_pcie::spin`, the engine the GPU
//! shares with the host CPU; the private `spin` module supplies the GPU's
//! step costs and charges and its L2-eviction and PCIe-link resume
//! triggers.

pub mod config;
pub mod counters;
pub mod kernel;
pub mod l2;
mod spin;
pub mod thread;

pub use config::GpuConfig;
pub use counters::GpuCounters;
pub use kernel::{KernelHandle, Stream};
pub use thread::GpuThread;

use std::rc::Rc;

use tc_desim::Sim;
use tc_mem::{layout, Addr, Bus, Heap, RegionKind, SparseMem};
use tc_pcie::{Endpoint, Pcie};
use tc_trace::Histogram;

use l2::L2Model;

/// Per-kernel-launch distributions, recorded at kernel completion under
/// `gpu{node}.kernel.*`. Each sample is one launch; the instruction-mix
/// values are deltas of the device-wide counters across the kernel's
/// execution window (concurrent kernels on other streams overlap into each
/// other's windows — the histograms characterise workloads, they are not
/// paper-facing counters).
pub(crate) struct KernelMetrics {
    pub instructions: Histogram,
    pub mem_accesses: Histogram,
    pub duration_ps: Histogram,
}

/// One GPU: device memory, L2, PCIe endpoint, counters, kernel scheduler.
#[derive(Clone)]
pub struct Gpu {
    inner: Rc<GpuInner>,
}

struct GpuInner {
    sim: Sim,
    node: usize,
    cfg: GpuConfig,
    endpoint: Endpoint,
    bus: Bus,
    heap: Heap,
    l2: L2Model,
    counters: Rc<GpuCounters>,
    kernel_metrics: KernelMetrics,
    resident: tc_desim::sync::Semaphore,
    /// The single store path to PCIe: uncached stores from *all* threads
    /// drain through it one at a time, which throttles many-block posting
    /// (Figs. 2 and 5).
    store_path: tc_pcie::Link,
}

impl Gpu {
    /// Build the GPU for `node`: maps its device memory and GPUDirect BAR
    /// aperture on `bus` and attaches to `pcie`.
    pub fn new(sim: &Sim, node: usize, cfg: GpuConfig, bus: &Bus, pcie: &Pcie) -> Self {
        let dram = Rc::new(SparseMem::new(layout::gpu_dram(node), cfg.dram_bytes));
        bus.add_ram(dram, RegionKind::GpuDram { node });
        bus.add_alias(
            layout::gpu_bar(node),
            cfg.dram_bytes.min(layout::GPU_BAR_LEN),
            layout::gpu_dram(node),
            RegionKind::GpuBar { node },
        );
        let resident = tc_desim::sync::Semaphore::new(sim, cfg.max_resident_blocks);
        let scope = sim.registry().scope_named(&format!("gpu{node}"));
        Gpu {
            inner: Rc::new(GpuInner {
                sim: sim.clone(),
                node,
                endpoint: pcie.endpoint(&format!("gpu{node}")),
                bus: bus.clone(),
                heap: Heap::new(layout::gpu_dram(node), cfg.dram_bytes),
                l2: L2Model::new(cfg.l2_bytes, cfg.l2_line_bytes),
                counters: Rc::new(GpuCounters::in_scope(&scope)),
                kernel_metrics: {
                    let k = scope.scope("kernel");
                    KernelMetrics {
                        instructions: k.histogram("instructions"),
                        mem_accesses: k.histogram("mem_accesses"),
                        duration_ps: k.histogram("duration_ps"),
                    }
                },
                resident,
                store_path: tc_pcie::Link::new(sim.clone()),
                cfg,
            }),
        }
    }

    /// The node this GPU belongs to.
    pub fn node(&self) -> usize {
        self.inner.node
    }

    /// The GPU configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.inner.cfg
    }

    /// The simulation handle.
    pub fn sim(&self) -> &Sim {
        &self.inner.sim
    }

    /// The fabric bus (data plane).
    pub fn bus(&self) -> &Bus {
        &self.inner.bus
    }

    /// The GPU's PCIe endpoint (shared by all threads; traffic serializes).
    pub fn endpoint(&self) -> &Endpoint {
        &self.inner.endpoint
    }

    /// Allocate `size` bytes of device memory (`align` power of two).
    pub fn alloc(&self, size: u64, align: u64) -> Addr {
        self.inner.heap.alloc(size, align)
    }

    /// The GPU performance counters (shared across all threads).
    pub fn counters(&self) -> &GpuCounters {
        &self.inner.counters
    }

    /// The L2 model (exposed for tests).
    pub fn l2(&self) -> &L2Model {
        &self.inner.l2
    }

    pub(crate) fn resident_slots(&self) -> &tc_desim::sync::Semaphore {
        &self.inner.resident
    }

    pub(crate) fn kernel_metrics(&self) -> &KernelMetrics {
        &self.inner.kernel_metrics
    }

    pub(crate) fn store_path(&self) -> &tc_pcie::Link {
        &self.inner.store_path
    }

    /// An ad-hoc thread context (outside any kernel) — used by unit tests
    /// and by simple single-thread device code.
    pub fn thread(&self) -> GpuThread {
        GpuThread::new(self.clone())
    }

    /// Create a CUDA-stream analogue: kernels launched on one stream
    /// execute in order.
    pub fn stream(&self) -> Stream {
        Stream::new(self.clone())
    }

    /// `cudaMemcpy(DeviceToHost)`: the GPU's copy engine DMAs `len` bytes
    /// from device memory to host memory. This is the *staging* path that
    /// pre-GPUDirect communication stacks had to use; it avoids the PCIe
    /// peer-to-peer read anomaly at the price of an extra copy and host
    /// buffer.
    pub async fn copy_to_host(&self, src_dev: Addr, dst_host: Addr, len: u64) {
        assert!(matches!(
            self.inner.bus.classify(src_dev),
            RegionKind::GpuDram { node } if node == self.inner.node
        ));
        assert!(matches!(
            self.inner.bus.classify(dst_host),
            RegionKind::HostDram { .. }
        ));
        let data = self.inner.bus.snapshot(src_dev, len as usize);
        // The copy engine owns the transfer: occupy the GPU's link for the
        // full DMA duration, then land the bytes.
        self.inner.endpoint.dma_write(dst_host, &data).await;
    }

    /// `cudaMemcpy(HostToDevice)`: DMA `len` bytes from host memory into
    /// device memory.
    pub async fn copy_from_host(&self, src_host: Addr, dst_dev: Addr, len: u64) {
        assert!(matches!(
            self.inner.bus.classify(src_host),
            RegionKind::HostDram { .. }
        ));
        assert!(matches!(
            self.inner.bus.classify(dst_dev),
            RegionKind::GpuDram { node } if node == self.inner.node
        ));
        let data = self.inner.endpoint.dma_read(src_host, len).await;
        self.inner.bus.write_payload(dst_dev, &data);
        // Fill the L2 like any device-memory write burst would.
        self.inner.l2.write(dst_dev, len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_pcie::PcieConfig;

    pub(crate) fn test_gpu() -> (Sim, Bus, Gpu) {
        let sim = Sim::new();
        let bus = Bus::new();
        bus.add_ram(
            Rc::new(SparseMem::new(layout::host_dram(0), 1 << 26)),
            RegionKind::HostDram { node: 0 },
        );
        let pcie = Pcie::new(sim.clone(), bus.clone(), PcieConfig::gen3_x8());
        let gpu = Gpu::new(&sim, 0, GpuConfig::kepler_k20(), &bus, &pcie);
        (sim, bus, gpu)
    }

    #[test]
    fn alloc_returns_device_addresses() {
        let (_sim, bus, gpu) = test_gpu();
        let a = gpu.alloc(4096, 256);
        assert_eq!(bus.classify(a), RegionKind::GpuDram { node: 0 });
        assert_eq!(a % 256, 0);
    }

    #[test]
    fn copy_engine_round_trip_and_timing() {
        let (sim, bus, gpu) = test_gpu();
        let dev = gpu.alloc(8192, 256);
        let host = layout::host_dram(0) + 0x1000;
        let data: Vec<u8> = (0..8192u32).map(|i| (i % 255) as u8).collect();
        bus.write(dev, &data);
        let g = gpu.clone();
        let sim2 = sim.clone();
        sim.spawn("copy", async move {
            let t0 = sim2.now();
            g.copy_to_host(dev, host, 8192).await;
            let d2h = sim2.now() - t0;
            // Round trip back into a different device buffer.
            let dev2 = g.alloc(8192, 256);
            g.copy_from_host(host, dev2, 8192).await;
            assert!(d2h > 0);
            let mut out = vec![0u8; 8192];
            g.bus().read(dev2, &mut out);
            assert_eq!(out.len(), 8192);
        });
        sim.run();
        let mut got = vec![0u8; 8192];
        bus.read(host, &mut got);
        assert_eq!(got, data);
    }

    #[test]
    fn gpu_bar_aliases_device_memory() {
        let (_sim, bus, gpu) = test_gpu();
        let a = gpu.alloc(64, 64);
        bus.write_u64(a, 0x1234);
        let bar = layout::gpu_dram_to_bar(a);
        assert_eq!(bus.read_u64(bar), 0x1234);
        assert_eq!(bus.classify(bar), RegionKind::GpuBar { node: 0 });
    }
}
