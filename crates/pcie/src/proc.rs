//! The [`Processor`] abstraction and the host CPU cost model.
//!
//! The paper's central comparison is *the same API code path executed from
//! the CPU vs. from the GPU*. To make that literal in the reproduction, the
//! NIC APIs (`tc-extoll::api`, `tc-ib::verbs`) are written once against the
//! [`Processor`] trait; `tc-gpu`'s `GpuThread` and this module's
//! [`CpuThread`] provide the two cost engines. The *instructions executed*
//! are identical — what differs is what each instruction and memory access
//! costs, which is precisely the paper's point (§VI).

use std::rc::Rc;

use tc_desim::time::{self, Time};
use tc_desim::Sim;
use tc_mem::{Addr, Bus};
use tc_trace::Counter;

use crate::endpoint::Endpoint;
use crate::spin::{self, Op, Plan, Run, Spinner};

/// How a spin [`Probe`] loads one value: the [`Processor`] method it calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadKind {
    /// [`Processor::ld_u32`].
    U32,
    /// [`Processor::ld_u64`].
    U64,
    /// [`Processor::ld_state`] (8 bytes).
    State,
    /// [`Processor::ld_bytes`] of this many bytes.
    Bytes(usize),
}

/// One load of a spin [`Probe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeLoad {
    /// Address loaded.
    pub addr: Addr,
    /// How it is loaded.
    pub kind: LoadKind,
}

impl ProbeLoad {
    /// Bytes this load returns.
    pub fn bytes(&self) -> usize {
        match self.kind {
            LoadKind::U32 => 4,
            LoadKind::U64 | LoadKind::State => 8,
            LoadKind::Bytes(n) => n,
        }
    }
}

/// A spin-wait probe: `loads` in order, then `instr` dependent
/// instructions, then a predicate over the loaded bytes (concatenated in
/// load order, little-endian). Each rejected probe bumps `spins`.
#[derive(Clone, Copy)]
pub struct Probe<'a> {
    /// The loads, issued one after another.
    pub loads: &'a [ProbeLoad],
    /// Instructions after the loads (compare, branch, bookkeeping).
    pub instr: u64,
    /// Counter bumped once per failed probe, when it fails.
    pub spins: Option<&'a Counter>,
}

impl Probe<'_> {
    /// Bytes one probe loads.
    pub fn bytes(&self) -> usize {
        self.loads.iter().map(ProbeLoad::bytes).sum()
    }
}

/// What [`Processor::spin_until`] returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spun {
    /// The accepted probe's bytes.
    pub bytes: Vec<u8>,
    /// Probes that failed before it.
    pub failed: u64,
}

/// The little-endian value of up to 8 loaded bytes.
pub fn le(bytes: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    b[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(b)
}

/// A processor that can execute API code against simulated memory.
///
/// Implementations charge their own timing and performance counters.
#[allow(async_fn_in_trait)]
pub trait Processor {
    /// The simulation handle.
    fn sim(&self) -> &Sim;
    /// Execute `n` dependent instructions.
    async fn instr(&self, n: u64);
    /// Bulk load.
    async fn ld_bytes(&self, addr: Addr, buf: &mut [u8]);
    /// Bulk store.
    async fn st_bytes(&self, addr: Addr, data: &[u8]);
    /// Order previous stores system-wide (sfence / `__threadfence_system`).
    async fn fence(&self);

    /// 64-bit load: an 8-byte [`Processor::ld_bytes`].
    async fn ld_u64(&self, addr: Addr) -> u64 {
        let mut b = [0u8; 8];
        self.ld_bytes(addr, &mut b).await;
        u64::from_le_bytes(b)
    }

    /// 64-bit store: an 8-byte [`Processor::st_bytes`].
    async fn st_u64(&self, addr: Addr, v: u64) {
        self.st_bytes(addr, &v.to_le_bytes()).await;
    }

    /// 32-bit load: a 4-byte [`Processor::ld_bytes`].
    async fn ld_u32(&self, addr: Addr) -> u32 {
        let mut b = [0u8; 4];
        self.ld_bytes(addr, &mut b).await;
        u32::from_le_bytes(b)
    }

    /// 32-bit store: a 4-byte [`Processor::st_bytes`].
    async fn st_u32(&self, addr: Addr, v: u32) {
        self.st_bytes(addr, &v.to_le_bytes()).await;
    }

    /// Load a cache-hot software-structure word (driver state). A CPU
    /// serves these from its L1; a GPU treats them like any global load
    /// (device-memory L2 for GPU-driven contexts). Default: plain load.
    async fn ld_state(&self, addr: Addr) -> u64 {
        self.ld_u64(addr).await
    }

    /// Store to a cache-hot software-structure word. Default: plain store.
    async fn st_state(&self, addr: Addr, v: u64) {
        self.st_u64(addr, v).await;
    }

    /// Spin until `done` accepts a probe: run `probe`'s loads and
    /// instructions, hand the loaded bytes to `done`, and bump
    /// `probe.spins` on every rejection. Returns the accepted bytes and
    /// the number of failed probes.
    ///
    /// This default is the plain loop, one simulated probe after another.
    /// It is the reference an override must match exactly: `GpuThread` and
    /// [`CpuThread`] override it with the spin engine ([`crate::spin`]),
    /// which fast-forwards probes that provably change nothing.
    async fn spin_until(&self, probe: &Probe<'_>, done: impl FnMut(&[u8]) -> bool) -> Spun {
        spin_plain(self, probe, done).await
    }
}

/// The plain spin loop: [`Processor::spin_until`]'s default body.
pub(crate) async fn spin_plain<P: Processor + ?Sized>(
    p: &P,
    probe: &Probe<'_>,
    mut done: impl FnMut(&[u8]) -> bool,
) -> Spun {
    let mut bytes = vec![0u8; probe.bytes()];
    let mut failed = 0;
    loop {
        let mut off = 0;
        for l in probe.loads {
            let dst = &mut bytes[off..off + l.bytes()];
            off += dst.len();
            match l.kind {
                LoadKind::U32 => dst.copy_from_slice(&p.ld_u32(l.addr).await.to_le_bytes()),
                LoadKind::U64 => dst.copy_from_slice(&p.ld_u64(l.addr).await.to_le_bytes()),
                LoadKind::State => dst.copy_from_slice(&p.ld_state(l.addr).await.to_le_bytes()),
                LoadKind::Bytes(_) => p.ld_bytes(l.addr, dst).await,
            }
        }
        p.instr(probe.instr).await;
        if done(&bytes) {
            return Spun { bytes, failed };
        }
        failed += 1;
        if let Some(c) = probe.spins {
            c.inc();
        }
    }
}

/// Host CPU timing parameters.
#[derive(Debug, Clone)]
pub struct CpuConfig {
    /// Cost of one dependent instruction (ps). A ~3 GHz Xeon retires
    /// dependent scalar ops every cycle or two.
    pub instr: Time,
    /// DRAM access latency from the CPU (ps). Cached accesses are cheaper,
    /// but API hot paths touch freshly DMA-written lines.
    pub dram: Time,
    /// Cached access latency (ps) — queue state the CPU itself maintains.
    pub cached: Time,
    /// Issue cost of an MMIO posted write (write-combining drain), ps.
    pub mmio_store_issue: Time,
    /// Cost of a store fence, ps.
    pub fence: Time,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            instr: time::ps(400),
            dram: time::ns(75),
            cached: time::ns(4),
            mmio_store_issue: time::ns(90),
            fence: time::ns(25),
        }
    }
}

/// A host CPU hardware thread.
///
/// Loads/stores to host DRAM cost DRAM/cache latency; accesses that cross
/// PCIe (NIC BARs, GPU BAR apertures) go through the CPU's root-port
/// [`Endpoint`].
#[derive(Clone)]
pub struct CpuThread {
    sim: Sim,
    cfg: Rc<CpuConfig>,
    endpoint: Endpoint,
    node: usize,
    /// Registry counters under `cpu{node}` — the CPU-side mirror of the
    /// GPU's load/store accounting, so Table I/II-style comparisons can
    /// read both processors from one snapshot. Name-interning makes every
    /// `CpuThread` of a node share the same cells.
    loads: Counter,
    load_bytes: Counter,
    stores: Counter,
    store_bytes: Counter,
}

impl CpuThread {
    /// A CPU thread on `node` attached through `endpoint` (the root port).
    pub fn new(sim: Sim, node: usize, cfg: CpuConfig, endpoint: Endpoint) -> Self {
        let scope = sim.registry().scope_named(&format!("cpu{node}"));
        CpuThread {
            cfg: Rc::new(cfg),
            endpoint,
            node,
            loads: scope.counter("loads"),
            load_bytes: scope.counter("load_bytes"),
            stores: scope.counter("stores"),
            store_bytes: scope.counter("store_bytes"),
            sim,
        }
    }

    /// The node this CPU belongs to.
    pub fn node(&self) -> usize {
        self.node
    }

    /// The CPU's root-port endpoint.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    fn is_local_dram(&self, addr: Addr) -> bool {
        matches!(
            self.endpoint.bus().classify(addr),
            tc_mem::RegionKind::HostDram { node } if node == self.node
        )
    }
}

impl Processor for CpuThread {
    fn sim(&self) -> &Sim {
        &self.sim
    }

    async fn instr(&self, n: u64) {
        self.sim.delay(n * self.cfg.instr).await;
    }

    async fn ld_bytes(&self, addr: Addr, buf: &mut [u8]) {
        self.loads.inc();
        self.load_bytes.add(buf.len() as u64);
        if self.is_local_dram(addr) {
            self.sim.delay(self.cfg.dram).await;
            self.endpoint.bus().read(addr, buf);
        } else {
            // MMIO / peer read: full PCIe round trip.
            self.endpoint.read(addr, buf).await;
        }
    }

    async fn st_bytes(&self, addr: Addr, data: &[u8]) {
        self.stores.inc();
        self.store_bytes.add(data.len() as u64);
        if self.is_local_dram(addr) {
            self.sim.delay(self.cfg.cached).await;
            self.endpoint.bus().write(addr, data);
        } else {
            self.sim.delay(self.cfg.mmio_store_issue).await;
            self.endpoint.posted_write(addr, data.to_vec()).await;
        }
    }

    async fn fence(&self) {
        self.sim.delay(self.cfg.fence).await;
    }

    async fn ld_state(&self, addr: Addr) -> u64 {
        // Hot driver state lives in the L1.
        self.loads.inc();
        self.load_bytes.add(8);
        self.sim.delay(self.cfg.cached).await;
        let mut b = [0u8; 8];
        self.endpoint.bus().read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    async fn st_state(&self, addr: Addr, v: u64) {
        self.stores.inc();
        self.store_bytes.add(8);
        self.sim.delay(self.cfg.cached).await;
        self.endpoint.bus().write(addr, &v.to_le_bytes());
    }

    async fn spin_until(&self, probe: &Probe<'_>, done: impl FnMut(&[u8]) -> bool) -> Spun {
        // A probe that crosses PCIe keeps the plain loop.
        if probe.loads.iter().any(|l| self.sends_read(l)) {
            spin_plain(self, probe, done).await
        } else {
            spin::spin_until(self, probe, done).await
        }
    }
}

/// A CPU probe step costs a fixed latency: no link, no cache model.
impl Spinner for CpuThread {
    fn bus(&self) -> &Bus {
        self.endpoint.bus()
    }

    fn sends_read(&self, l: &ProbeLoad) -> bool {
        l.kind != LoadKind::State && !self.is_local_dram(l.addr)
    }

    fn step(&self, plan: &Plan, op: Op, r: &mut Run) -> Time {
        match op {
            Op::Issue(i) => {
                let l = &plan.loads[i];
                self.loads.inc();
                self.load_bytes.add(l.bytes() as u64);
                if l.kind == LoadKind::State {
                    self.cfg.cached
                } else {
                    self.cfg.dram
                }
            }
            Op::Done(i) => {
                let buf = &mut r.bytes[plan.range(i)];
                self.endpoint.bus().read(plan.loads[i].addr, buf);
                0
            }
            Op::Instr => plan.instr * self.cfg.instr,
            Op::Retire => 0,
            Op::Read(_) => unreachable!("a CPU probe that crosses PCIe takes the plain loop"),
        }
    }

    fn charge(&self, plan: &Plan, op: Op, n: u64, _last: Time) {
        if let Op::Issue(i) = op {
            self.loads.add(n);
            self.load_bytes.add(n * plan.loads[i].bytes() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pcie, PcieConfig};
    use std::cell::Cell;
    use tc_mem::{layout, Bus, RegionKind, SparseMem};

    fn setup() -> (Sim, Bus, CpuThread) {
        let sim = Sim::new();
        let bus = Bus::new();
        bus.add_ram(
            Rc::new(SparseMem::new(layout::host_dram(0), 1 << 24)),
            RegionKind::HostDram { node: 0 },
        );
        bus.add_ram(
            Rc::new(SparseMem::new(layout::gpu_dram(0), 1 << 24)),
            RegionKind::GpuDram { node: 0 },
        );
        bus.add_alias(
            layout::gpu_bar(0),
            1 << 24,
            layout::gpu_dram(0),
            RegionKind::GpuBar { node: 0 },
        );
        let pcie = Pcie::new(sim.clone(), bus.clone(), PcieConfig::gen3_x8());
        let cpu = CpuThread::new(sim.clone(), 0, CpuConfig::default(), pcie.endpoint("cpu0"));
        (sim, bus, cpu)
    }

    #[test]
    fn local_dram_access_is_fast() {
        let (sim, _bus, cpu) = setup();
        let t = Rc::new(Cell::new(0u64));
        let t2 = t.clone();
        let h = sim.clone();
        sim.spawn("cpu", async move {
            cpu.st_u64(layout::host_dram(0), 9).await;
            assert_eq!(cpu.ld_u64(layout::host_dram(0)).await, 9);
            t2.set(h.now());
        });
        sim.run();
        // Store (cached) + load (DRAM) well under a PCIe round trip.
        assert!(t.get() < time::ns(200), "took {}", t.get());
    }

    #[test]
    fn peer_access_crosses_pcie() {
        let (sim, bus, cpu) = setup();
        bus.write_u64(layout::gpu_dram(0) + 8, 5);
        let h = sim.clone();
        sim.spawn("cpu", async move {
            let t0 = h.now();
            let v = cpu.ld_u64(layout::gpu_bar(0) + 8).await;
            assert_eq!(v, 5);
            assert!(h.now() - t0 >= time::ns(600));
        });
        sim.run();
    }

    #[test]
    fn cpu_loads_and_stores_are_counted_in_the_registry() {
        let (sim, _bus, cpu) = setup();
        sim.spawn("cpu", async move {
            cpu.st_u64(layout::host_dram(0), 1).await;
            let _ = cpu.ld_u64(layout::host_dram(0)).await;
            let _ = cpu.ld_u32(layout::host_dram(0) + 8).await;
            cpu.st_state(layout::host_dram(0) + 16, 2).await;
        });
        sim.run();
        let s = sim.registry().snapshot();
        assert_eq!(s.get("cpu0.loads"), 2);
        assert_eq!(s.get("cpu0.load_bytes"), 12);
        assert_eq!(s.get("cpu0.stores"), 2);
        assert_eq!(s.get("cpu0.store_bytes"), 16);
    }

    #[test]
    fn instr_time_is_sub_ns_per_instr() {
        let (sim, _bus, cpu) = setup();
        let h = sim.clone();
        sim.spawn("cpu", async move {
            cpu.instr(1000).await;
            assert_eq!(h.now(), 1000 * CpuConfig::default().instr);
        });
        sim.run();
    }
}
