//! The cluster builder.
//!
//! The paper's testbed is two nodes back to back, each with a host CPU, a
//! Kepler-class GPU and either an EXTOLL Galibier or an Infiniband FDR HCA.
//! [`Cluster::new`] assembles that system: fabric bus, host DRAM, PCIe
//! fabric per node, GPU, CPU thread, NIC, and a two-port fabric (the
//! cable). [`Cluster::with_nodes`] builds the same system with N nodes on
//! one N-port fabric.

use std::rc::Rc;

use tc_desim::Sim;
use tc_extoll::{ExtollNic, RmaConfig, RmaFrame};
use tc_gpu::{Gpu, GpuConfig};
use tc_ib::{IbConfig, IbFrame, IbHca};
use tc_link::{CableConfig, Fabric};
use tc_mem::{layout, Bus, Heap, RegionKind, SparseMem};
use tc_pcie::{CpuConfig, CpuThread, Pcie, PcieConfig};

/// Which interconnect the cluster is built with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// EXTOLL Galibier (FPGA RMA unit, PCIe Gen2 x8).
    Extoll,
    /// Infiniband 4X FDR (ConnectX-3-class HCA, PCIe Gen3 x8).
    Infiniband,
}

/// All tunables of a cluster; `Default` reproduces the paper's testbed.
#[derive(Clone)]
pub struct ClusterConfig {
    /// Which interconnect to build.
    pub backend: Backend,
    /// GPU timing model.
    pub gpu: GpuConfig,
    /// Host CPU timing model.
    pub cpu: CpuConfig,
    /// EXTOLL RMA unit parameters.
    pub rma: RmaConfig,
    /// Infiniband HCA parameters.
    pub ib: IbConfig,
    /// Number of nodes (the paper's testbed is 2; larger systems hang all
    /// nodes off one cut-through switch).
    pub nodes: usize,
    /// Hypothetical hardware variant for the `ablation-notify` experiment:
    /// place the EXTOLL notification queues in GPU device memory (reached
    /// through the GPUDirect BAR) instead of host kernel memory. Real
    /// EXTOLL cannot do this — the queues are pre-allocated by the kernel
    /// driver (§VI) — which is exactly why the paper flags it as the
    /// architecture's GPU-unfriendliness.
    pub extoll_notif_on_gpu: bool,
}

impl ClusterConfig {
    /// The paper's EXTOLL testbed.
    pub fn extoll() -> Self {
        ClusterConfig {
            backend: Backend::Extoll,
            gpu: GpuConfig::kepler_k20(),
            cpu: CpuConfig::default(),
            rma: RmaConfig::default(),
            ib: IbConfig::default(),
            nodes: 2,
            extoll_notif_on_gpu: false,
        }
    }

    /// The paper's Infiniband testbed.
    pub fn infiniband() -> Self {
        ClusterConfig {
            backend: Backend::Infiniband,
            ..Self::extoll()
        }
    }

    fn pcie(&self) -> PcieConfig {
        match self.backend {
            Backend::Extoll => PcieConfig::gen2_x8(),
            Backend::Infiniband => PcieConfig::gen3_x8(),
        }
    }

    fn cable_extoll(&self) -> CableConfig {
        CableConfig::extoll_galibier()
    }

    fn cable_ib(&self) -> CableConfig {
        CableConfig::ib_fdr_4x()
    }
}

/// One node of the testbed.
pub struct Node {
    /// Global node index (`0..nodes` of the full system).
    pub idx: usize,
    /// The host CPU thread.
    pub cpu: CpuThread,
    /// The GPU.
    pub gpu: Gpu,
    /// The EXTOLL NIC, if `Backend::Extoll`.
    pub extoll: Option<ExtollNic>,
    /// The Infiniband HCA, if `Backend::Infiniband`.
    pub ib: Option<IbHca>,
    /// User-space host memory allocator.
    pub host_heap: Rc<Heap>,
    /// Kernel-space host memory allocator (driver structures).
    pub kernel_heap: Rc<Heap>,
}

impl Node {
    /// The EXTOLL NIC (panics on an Infiniband cluster).
    pub fn extoll(&self) -> &ExtollNic {
        self.extoll.as_ref().expect("not an EXTOLL cluster")
    }

    /// The Infiniband HCA (panics on an EXTOLL cluster).
    pub fn ib(&self) -> &IbHca {
        self.ib.as_ref().expect("not an Infiniband cluster")
    }
}

/// Adapter feeding data-plane bus traffic into the causal log as
/// observed-write edges. Installed by [`Cluster::causal_enable`]; the bus
/// carries no watch (zero per-access cost beyond one branch) until then.
struct CausalBusWatch {
    causal: tc_desim::Sim,
}

impl tc_mem::BusWatch for CausalBusWatch {
    fn store(&self, addr: u64) {
        self.causal.causal().note_store(addr);
    }
    fn load(&self, addr: u64) {
        self.causal.causal().note_load(addr);
    }
}

/// The complete simulated system: N nodes on one fabric (two for the
/// paper's testbed).
pub struct Cluster {
    /// The simulation that everything runs in.
    pub sim: Sim,
    /// The fabric data-plane bus.
    pub bus: Bus,
    /// The locally-built nodes. For a serial build this is every node;
    /// for a shard-local subset it is the shard's contiguous node range
    /// (see [`Cluster::node`] for global-index access).
    pub nodes: Vec<Node>,
    /// The backend this cluster was built with.
    pub backend: Backend,
    /// Global node index of `nodes[0]` (non-zero only for shard subsets).
    node_base: usize,
    /// Node count of the full system (`nodes.len()` for a serial build).
    total_nodes: usize,
    /// The EXTOLL fabric (one port per node of the full system).
    pub(crate) extoll_fabric: Fabric<RmaFrame>,
    /// The Infiniband fabric (one port per node of the full system).
    pub(crate) ib_fabric: Fabric<IbFrame>,
}

impl Cluster {
    /// Build the paper's testbed for `backend` with default calibration.
    pub fn new(backend: Backend) -> Self {
        Self::with_nodes(backend, 2)
    }

    /// Build an `n`-node system (all NICs on one cut-through switch).
    pub fn with_nodes(backend: Backend, n: usize) -> Self {
        let cfg = match backend {
            Backend::Extoll => ClusterConfig::extoll(),
            Backend::Infiniband => ClusterConfig::infiniband(),
        };
        Self::with_config(ClusterConfig { nodes: n, ..cfg })
    }

    /// Build a cluster with explicit configuration.
    pub fn with_config(cfg: ClusterConfig) -> Self {
        Self::with_config_subset(cfg, 0, usize::MAX)
    }

    /// Build the shard-local subset `[first, first + count)` of a
    /// `cfg.nodes`-node system. Both fabrics still carry one port per
    /// node of the *full* system so port indices equal global node
    /// indices; only the subset's node hardware (RAM, PCIe, GPU, NIC,
    /// CPU) is instantiated, with registry scopes pinned to global node
    /// indices so the union of all shards' registries is identical to
    /// one serial build. `count == usize::MAX` builds every node.
    pub(crate) fn with_config_subset(cfg: ClusterConfig, first: usize, count: usize) -> Self {
        let sim = Sim::new();
        let bus = Bus::new();
        assert!((2..=512).contains(&cfg.nodes), "2..=512 nodes supported");
        let count = count.min(cfg.nodes - first);
        assert!(first + count <= cfg.nodes && count >= 1, "bad node subset");
        let extoll_fabric: Fabric<RmaFrame> = Fabric::new(&sim, cfg.cable_extoll(), cfg.nodes);
        let ib_fabric: Fabric<IbFrame> = Fabric::new(&sim, cfg.cable_ib(), cfg.nodes);
        let nodes = (first..first + count)
            .map(|idx| {
                bus.add_ram(
                    Rc::new(SparseMem::new(
                        layout::host_dram(idx),
                        layout::HOST_DRAM_LEN,
                    )),
                    RegionKind::HostDram { node: idx },
                );
                let pcie =
                    Pcie::new_named(sim.clone(), bus.clone(), cfg.pcie(), &format!("pcie{idx}"));
                let gpu = Gpu::new(&sim, idx, cfg.gpu.clone(), &bus, &pcie);
                // Kernel heap in the upper half of host DRAM.
                let kernel_heap = Rc::new(Heap::new(
                    layout::host_dram(idx) + layout::HOST_DRAM_LEN / 2,
                    layout::HOST_DRAM_LEN / 2,
                ));
                let host_heap =
                    Rc::new(Heap::new(layout::host_dram(idx), layout::HOST_DRAM_LEN / 2));
                let (extoll, ib) = match cfg.backend {
                    Backend::Extoll => {
                        let notif_heap = if cfg.extoll_notif_on_gpu {
                            // Carve a window out of GPU memory, addressed
                            // through the BAR aperture so NIC writes are
                            // peer-to-peer and GPU polls are device loads.
                            let base = gpu.alloc(1 << 22, 4096);
                            Heap::new(tc_mem::layout::gpu_dram_to_bar(base), 1 << 22)
                        } else {
                            Heap::new(kernel_heap.alloc(1 << 22, 4096), 1 << 22)
                        };
                        (
                            Some(ExtollNic::new(
                                &sim,
                                idx,
                                cfg.rma.clone(),
                                &bus,
                                &pcie,
                                extoll_fabric.port(idx),
                                &notif_heap,
                            )),
                            None,
                        )
                    }
                    Backend::Infiniband => (
                        None,
                        Some(IbHca::new(
                            &sim,
                            idx,
                            cfg.ib.clone(),
                            &bus,
                            &pcie,
                            ib_fabric.port(idx),
                        )),
                    ),
                };
                let cpu = CpuThread::new(
                    sim.clone(),
                    idx,
                    cfg.cpu.clone(),
                    pcie.endpoint(&format!("cpu{idx}")),
                );
                Node {
                    idx,
                    cpu,
                    gpu,
                    extoll,
                    ib,
                    host_heap,
                    kernel_heap,
                }
            })
            .collect();
        Cluster {
            sim,
            bus,
            nodes,
            backend: cfg.backend,
            node_base: first,
            total_nodes: cfg.nodes,
            extoll_fabric,
            ib_fabric,
        }
    }

    /// The node with *global* index `idx`. Identical to `&self.nodes[idx]`
    /// on a serial build; on a shard-local subset, panics with a clear
    /// message when `idx` is not owned by this shard.
    pub fn node(&self, idx: usize) -> &Node {
        assert!(
            idx >= self.node_base && idx < self.node_base + self.nodes.len(),
            "node {idx} is not built on this shard (owned: {}..{})",
            self.node_base,
            self.node_base + self.nodes.len()
        );
        &self.nodes[idx - self.node_base]
    }

    /// Global node index of the first locally-built node.
    pub fn node_base(&self) -> usize {
        self.node_base
    }

    /// Node count of the full system (`nodes.len()` unless this is a
    /// shard-local subset).
    pub fn total_nodes(&self) -> usize {
        self.total_nodes
    }

    /// Clear and start causal recording for this cluster: enables the
    /// executor's causal log and installs the bus watch that carries
    /// causality through polled completions (EXTOLL notification queues,
    /// IB CQs, tag polls) as observed-write edges. Off by default; like
    /// the trace recorder, recording only observes and cannot perturb
    /// simulated time.
    pub fn causal_enable(&self) {
        self.sim.causal_enable();
        self.bus.set_watch(Some(Rc::new(CausalBusWatch {
            causal: self.sim.clone(),
        })));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extoll_cluster_has_nics_and_gpus() {
        let c = Cluster::new(Backend::Extoll);
        assert_eq!(c.nodes.len(), 2);
        for n in &c.nodes {
            assert!(n.extoll.is_some());
            assert!(n.ib.is_none());
            assert_eq!(n.gpu.node(), n.idx);
        }
    }

    #[test]
    fn infiniband_cluster_has_hcas() {
        let c = Cluster::new(Backend::Infiniband);
        for n in &c.nodes {
            assert!(n.ib.is_some());
            assert!(n.extoll.is_none());
        }
    }

    #[test]
    fn node_memories_are_disjoint() {
        let c = Cluster::new(Backend::Extoll);
        let a = c.nodes[0].host_heap.alloc(64, 64);
        let b = c.nodes[1].host_heap.alloc(64, 64);
        c.bus.write_u64(a, 1);
        c.bus.write_u64(b, 2);
        assert_eq!(c.bus.read_u64(a), 1);
        assert_eq!(c.bus.read_u64(b), 2);
        assert_eq!(tc_mem::layout::node_of(a), 0);
        assert_eq!(tc_mem::layout::node_of(b), 1);
    }
}
