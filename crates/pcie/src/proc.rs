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

use tc_desim::sync::Flag;
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

/// One step of a spin [`Probe`].
#[derive(Debug, Clone, Copy)]
pub enum Step<'a> {
    /// A load; its bytes follow the earlier loads' in the probe's buffer
    /// (little-endian).
    Load(ProbeLoad),
    /// Dependent instructions (compare, branch, bookkeeping).
    Instr(u64),
    /// A retire point: the predicate decides on the bytes loaded so far in
    /// this pass, and a rejection bumps the counter.
    Retire(Option<&'a Counter>),
    /// An exit-flag check: a set flag ends the spin.
    Exit(&'a Flag),
    /// An idle delay, the pass's last step.
    Idle(Time),
}

impl Step<'_> {
    /// A [`Step::Load`] of `addr`.
    pub fn load(addr: Addr, kind: LoadKind) -> Self {
        Step::Load(ProbeLoad { addr, kind })
    }
}

/// A spin-wait probe: one pass of a poll loop as a short step list. Its
/// retires may accept; when none does and no exit flag is set, the next
/// pass runs the same steps again.
pub type Probe<'a> = [Step<'a>];

/// The loads of `probe`, in order.
fn probe_loads<'a>(probe: &'a Probe<'_>) -> impl Iterator<Item = &'a ProbeLoad> {
    probe.iter().filter_map(|s| match s {
        Step::Load(l) => Some(l),
        _ => None,
    })
}

/// Bytes one pass of `probe` loads.
pub fn probe_bytes(probe: &Probe<'_>) -> usize {
    probe_loads(probe).map(ProbeLoad::bytes).sum()
}

/// What [`Processor::spin_until`] returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spun {
    /// The bytes loaded up to the accepting retire (empty on an exit).
    pub bytes: Vec<u8>,
    /// Passes that failed before the returning one.
    pub failed: u64,
    /// The spin ended at a set exit flag, not at an accepting retire.
    pub exited: bool,
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

    /// Spin until a retire of `probe` accepts or an exit flag is set: run
    /// its steps pass after pass, hand `done` the bytes loaded so far at
    /// every retire, and bump the retire's counter on every rejection.
    /// Returns the accepted bytes and the number of failed passes.
    ///
    /// This default is the plain loop, one simulated pass after another.
    /// It is the reference an override must match exactly: `GpuThread` and
    /// [`CpuThread`] override it with the spin engine ([`crate::spin`]),
    /// which fast-forwards passes that provably change nothing.
    async fn spin_until(&self, probe: &Probe<'_>, done: impl FnMut(&[u8]) -> bool) -> Spun {
        spin_plain(self, probe, done).await
    }
}

/// How one pass of a probe ended.
enum Pass {
    /// A retire accepted the first this many bytes.
    Accept(usize),
    /// An exit flag was set.
    Exit,
    /// Every retire rejected.
    Fail,
}

/// One pass of `probe` on `p`, as the plain loop runs it, into `bytes`.
async fn pass<P: Processor + ?Sized>(
    p: &P,
    probe: &Probe<'_>,
    bytes: &mut [u8],
    done: &mut impl FnMut(&[u8]) -> bool,
) -> Pass {
    let mut off = 0;
    for step in probe {
        match *step {
            Step::Load(l) => {
                let dst = &mut bytes[off..off + l.bytes()];
                off += dst.len();
                match l.kind {
                    LoadKind::U32 => dst.copy_from_slice(&p.ld_u32(l.addr).await.to_le_bytes()),
                    LoadKind::U64 => dst.copy_from_slice(&p.ld_u64(l.addr).await.to_le_bytes()),
                    LoadKind::State => dst.copy_from_slice(&p.ld_state(l.addr).await.to_le_bytes()),
                    LoadKind::Bytes(_) => p.ld_bytes(l.addr, dst).await,
                }
            }
            Step::Instr(n) => p.instr(n).await,
            Step::Retire(spins) => {
                if done(&bytes[..off]) {
                    return Pass::Accept(off);
                }
                if let Some(c) = spins {
                    c.inc();
                }
            }
            Step::Exit(flag) if flag.is_set() => return Pass::Exit,
            Step::Exit(_) => {}
            Step::Idle(d) => p.sim().delay(d).await,
        }
    }
    Pass::Fail
}

/// Run `probe` once on `p`, as one pass of the plain loop, with `bytes`
/// (at least the probe's length) as its buffer: whether a retire
/// accepted. The non-blocking twin of [`Processor::spin_until`] on the
/// same probe.
pub async fn probe_once<P: Processor + ?Sized>(
    p: &P,
    probe: &Probe<'_>,
    bytes: &mut [u8],
    mut done: impl FnMut(&[u8]) -> bool,
) -> bool {
    matches!(pass(p, probe, bytes, &mut done).await, Pass::Accept(_))
}

/// The plain spin loop: [`Processor::spin_until`]'s default body.
pub(crate) async fn spin_plain<P: Processor + ?Sized>(
    p: &P,
    probe: &Probe<'_>,
    mut done: impl FnMut(&[u8]) -> bool,
) -> Spun {
    let mut bytes = vec![0u8; probe_bytes(probe)];
    let mut failed = 0;
    loop {
        match pass(p, probe, &mut bytes, &mut done).await {
            Pass::Accept(end) => {
                bytes.truncate(end);
                let exited = false;
                return Spun {
                    bytes,
                    failed,
                    exited,
                };
            }
            Pass::Exit => {
                let (bytes, exited) = (Vec::new(), true);
                return Spun {
                    bytes,
                    failed,
                    exited,
                };
            }
            Pass::Fail => failed += 1,
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
        if probe_loads(probe).any(|l| self.sends_read(l)) {
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
                let l = &plan.loads[i].load;
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
                self.endpoint.bus().read(plan.loads[i].load.addr, buf);
                0
            }
            Op::Instr(n) => n * self.cfg.instr,
            Op::Retire(_) | Op::Exit(_) | Op::Idle(_) => 0,
            Op::Read(_) => unreachable!("a CPU probe that crosses PCIe takes the plain loop"),
        }
    }

    fn charge(&self, plan: &Plan, op: Op, n: u64, _last: Time) {
        if let Op::Issue(i) = op {
            self.loads.add(n);
            self.load_bytes.add(n * plan.loads[i].load.bytes() as u64);
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
