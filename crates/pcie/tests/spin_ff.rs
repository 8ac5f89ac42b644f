//! Spin-wait fast-forward equivalence for CPU threads: a `CpuThread` that
//! parks its unchanged probes must be indistinguishable from the plain
//! loop.
//!
//! Every scenario runs twice on a fresh one-node system: once through the
//! native `CpuThread::spin_until`, which parks, and once through `Plain`,
//! a forwarding wrapper that keeps `Processor::spin_until`'s default body.
//! Both runs must end at the same simulated time with the same full
//! registry snapshot, the same recorder events and the same spin results.

use std::cell::RefCell;
use std::rc::Rc;

use tc_desim::{time, Sim, Time, Work};
use tc_mem::{layout, Addr, Bus, RegionKind, SparseMem};
use tc_pcie::{
    le, CpuConfig, CpuThread, LoadKind, Pcie, PcieConfig, Probe, ProbeLoad, Processor, Spun,
};
use tc_trace::{Snapshot, TraceEvent};

/// Forwards every method but `spin_until`, so spins take the plain loop.
struct Plain(CpuThread);

impl Processor for Plain {
    fn sim(&self) -> &Sim {
        self.0.sim()
    }
    async fn instr(&self, n: u64) {
        self.0.instr(n).await
    }
    async fn ld_u64(&self, a: Addr) -> u64 {
        self.0.ld_u64(a).await
    }
    async fn st_u64(&self, a: Addr, v: u64) {
        self.0.st_u64(a, v).await
    }
    async fn ld_u32(&self, a: Addr) -> u32 {
        self.0.ld_u32(a).await
    }
    async fn st_u32(&self, a: Addr, v: u32) {
        self.0.st_u32(a, v).await
    }
    async fn ld_bytes(&self, a: Addr, b: &mut [u8]) {
        self.0.ld_bytes(a, b).await
    }
    async fn st_bytes(&self, a: Addr, d: &[u8]) {
        self.0.st_bytes(a, d).await
    }
    async fn fence(&self) {
        self.0.fence().await
    }
    async fn ld_state(&self, a: Addr) -> u64 {
        self.0.ld_state(a).await
    }
    async fn st_state(&self, a: Addr, v: u64) {
        self.0.st_state(a, v).await
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Native,
    Plain,
}

struct World {
    sim: Sim,
    bus: Bus,
    cpu: CpuThread,
}

fn world() -> World {
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
    World { sim, bus, cpu }
}

/// Everything a run leaves behind.
#[derive(Debug, PartialEq)]
struct Outcome {
    end: Time,
    registry: Snapshot,
    events: Vec<TraceEvent>,
    spun: Vec<Spun>,
    observed: Vec<Snapshot>,
}

/// Run `w` to the end; also returns whether any probe was fast-forwarded.
fn finish(
    w: &World,
    spun: &[Rc<RefCell<Vec<Spun>>>],
    observed: &RefCell<Vec<Snapshot>>,
) -> (Outcome, bool) {
    let before = Work::on_thread();
    let end = w.sim.run();
    let skipped = Work::on_thread().since(before).skipped;
    assert_eq!(w.sim.live_processes(), 0, "{:?}", w.sim.stuck_processes());
    let outcome = Outcome {
        end,
        registry: w.sim.registry().snapshot(),
        events: w.sim.recorder().events(),
        spun: spun.iter().flat_map(|s| s.take()).collect(),
        observed: observed.take(),
    };
    (outcome, skipped > 0)
}

/// Bus writes of `(when, offset, bytes)` to `addr`, as a DMA engine lands
/// them.
fn writer(w: &World, addr: Addr, writes: &[(Time, u64, Vec<u8>)]) {
    let (sim, bus) = (w.sim.clone(), w.bus.clone());
    let writes = writes.to_vec();
    w.sim.spawn("writer", async move {
        for (at, off, bytes) in writes {
            sim.delay(at - sim.now()).await;
            bus.write(addr + off, &bytes);
        }
    });
}

fn word(v: u64) -> Vec<u8> {
    v.to_le_bytes().to_vec()
}

/// A poller on `loads` until `done`; its results land in the returned cell.
fn poller(
    w: &World,
    mode: Mode,
    loads: Vec<ProbeLoad>,
    instr: u64,
    spins: Option<&str>,
    done: impl FnMut(&[u8]) -> bool + 'static,
) -> Rc<RefCell<Vec<Spun>>> {
    let out = Rc::new(RefCell::new(Vec::new()));
    let (o, t) = (out.clone(), w.cpu.clone());
    let counter = spins.map(|name| w.sim.registry().counter(name));
    w.sim.spawn("poller", async move {
        let probe = Probe {
            loads: &loads,
            instr,
            spins: counter.as_ref(),
        };
        let got = match mode {
            Mode::Native => t.spin_until(&probe, done).await,
            Mode::Plain => Plain(t).spin_until(&probe, done).await,
        };
        o.borrow_mut().push(got);
    });
    out
}

fn load(addr: Addr, kind: LoadKind) -> ProbeLoad {
    ProbeLoad { addr, kind }
}

/// Run `scenario` both ways; the outcomes must match, and the native run
/// must have fast-forwarded exactly when `parks`.
fn equivalent(parks: bool, scenario: impl Fn(Mode) -> (Outcome, bool)) {
    let (native, parked) = scenario(Mode::Native);
    let (plain, plain_parked) = scenario(Mode::Plain);
    assert_eq!(parked, parks, "the native run parked: {parked}");
    assert!(!plain_parked);
    assert_eq!(native, plain);
}

/// A 64-bit flag in host DRAM, polled with 4 instructions per probe; the
/// first two stores do not satisfy it.
fn flag_poll(mode: Mode, recorder_at: Option<Time>, observe: bool) -> (Outcome, bool) {
    let w = world();
    let flag = layout::host_dram(0) + 0x100;
    let spun = poller(&w, mode, vec![load(flag, LoadKind::U64)], 4, None, |b| {
        le(b) >= 3
    });
    writer(
        &w,
        flag,
        &[
            (time::us(20), 0, word(1)),
            (time::us(45), 0, word(2)),
            (time::us(70), 0, word(3)),
        ],
    );
    if let Some(at) = recorder_at {
        let sim = w.sim.clone();
        w.sim.spawn("recorder", async move {
            sim.delay(at).await;
            sim.recorder().enable();
        });
    }
    let observed = Rc::new(RefCell::new(Vec::new()));
    if observe {
        let (o, sim) = (observed.clone(), w.sim.clone());
        w.sim.spawn("observer", async move {
            for _ in 0..12 {
                sim.delay(time::ns(7_321)).await;
                o.borrow_mut().push(sim.registry().snapshot());
            }
        });
    }
    finish(&w, &[spun], &observed)
}

#[test]
fn host_flag_poll() {
    equivalent(true, |m| flag_poll(m, None, false));
}

#[test]
fn registry_snapshots_while_parked() {
    equivalent(true, |m| flag_poll(m, None, true));
}

#[test]
fn recorder_switched_on_mid_spin() {
    equivalent(true, |m| flag_poll(m, Some(time::us(50)), false));
}

/// `IbvCq::wait`'s probe: the consumer index through `ld_state`, then the
/// 64-byte CQE at the head, 14 instructions, `cq_poll_spins`. The CQE
/// lands in two DMA writes; only the second sets its owner byte.
fn ib_cq_poll(mode: Mode) -> (Outcome, bool) {
    let w = world();
    let state = layout::host_dram(0) + 0x40;
    let cqe = layout::host_dram(0) + 0x1000;
    w.bus.write_u64(state, 5);
    let loads = vec![load(state, LoadKind::State), load(cqe, LoadKind::Bytes(64))];
    let spun = poller(&w, mode, loads, 14, Some("ib0.cq_poll_spins"), |b| {
        le(&b[..8]) != 5 || b[8 + 63] != 0
    });
    writer(
        &w,
        cqe,
        &[
            (time::us(30), 0, vec![0xab; 32]),
            (time::us(65), 32, [vec![0xcd; 31], vec![1]].concat()),
        ],
    );
    finish(&w, &[spun], &RefCell::default())
}

#[test]
fn ib_cq_poll_with_state_and_cqe_loads() {
    equivalent(true, ib_cq_poll);
}

/// `NotifConsumer::wait`'s probe: two 64-bit loads of a queue record, 40
/// instructions, `notif_poll_spins`. The NIC writes the second word first.
fn extoll_notification_poll(mode: Mode) -> (Outcome, bool) {
    let w = world();
    let slot = layout::host_dram(0) + 0x2000;
    let loads = vec![load(slot, LoadKind::U64), load(slot + 8, LoadKind::U64)];
    let spun = poller(&w, mode, loads, 40, Some("extoll0.notif_poll_spins"), |b| {
        le(&b[..8]) != 0
    });
    writer(
        &w,
        slot,
        &[
            (time::us(90), 8, word(7)),
            (time::us(120), 0, word(0x1_0101)),
        ],
    );
    finish(&w, &[spun], &RefCell::default())
}

#[test]
fn extoll_notification_poll_with_spin_counter() {
    equivalent(true, extoll_notification_poll);
}

/// A plain flag poll's probe period and its load latency.
fn flag_period() -> (Time, Time) {
    let cfg = CpuConfig::default();
    (cfg.dram + 4 * cfg.instr, cfg.dram)
}

/// A store that lands exactly at a skipped probe's sample instant, from a
/// writer whose timer was inserted at `inserted_at`.
fn store_at_sample(mode: Mode, sample: Time, inserted_at: Time) -> (Outcome, bool) {
    let w = world();
    let flag = layout::host_dram(0) + 0x100;
    let spun = poller(&w, mode, vec![load(flag, LoadKind::U64)], 4, None, |b| {
        le(b) == 1
    });
    let (sim, bus) = (w.sim.clone(), w.bus.clone());
    w.sim.spawn("writer", async move {
        sim.delay(inserted_at).await;
        sim.delay(sample - inserted_at).await;
        bus.write_u64(flag, 1);
    });
    finish(&w, &[spun], &RefCell::default())
}

#[test]
fn store_at_exactly_a_skipped_sample_instant() {
    // Probe 300 samples its flag one load latency after it starts.
    let (period, dram) = flag_period();
    let issued = 300 * period;
    let sample = issued + dram;
    // Timer inserted long before, just before the sample, and at the very
    // instant the skipped load issued: each tie must fall the plain way.
    for inserted_at in [1, sample - 1, issued, issued - 1] {
        equivalent(true, |m| store_at_sample(m, sample, inserted_at));
    }
}

/// Two spinners with different periods, parked at once: a flag poll and a
/// `ld_state` poll, satisfied at different instants.
fn two_spinners(mode: Mode) -> (Outcome, bool) {
    let w = world();
    let flag = layout::host_dram(0) + 0x100;
    let state = layout::host_dram(0) + 0x200;
    let a = poller(&w, mode, vec![load(flag, LoadKind::U64)], 4, None, |b| {
        le(b) == 1
    });
    let b = poller(
        &w,
        mode,
        vec![load(state, LoadKind::State)],
        14,
        Some("test.state_spins"),
        |b| le(b) == 2,
    );
    writer(&w, flag, &[(time::us(30), 0, word(1))]);
    writer(&w, state, &[(time::us(55), 0, word(2))]);
    finish(&w, &[a, b], &RefCell::default())
}

#[test]
fn two_spinners_with_different_periods() {
    equivalent(true, two_spinners);
}

/// A probe whose second load reads the GPU's BAR across PCIe: it keeps
/// the plain loop.
fn peer_bar_poll(mode: Mode) -> (Outcome, bool) {
    let w = world();
    let flag = layout::host_dram(0) + 0x100;
    let peer = layout::gpu_bar(0) + 0x80;
    let loads = vec![load(flag, LoadKind::U64), load(peer, LoadKind::U64)];
    let spun = poller(&w, mode, loads, 4, Some("test.peer_spins"), |b| {
        le(&b[8..]) == 9
    });
    writer(
        &w,
        layout::gpu_dram(0) + 0x80,
        &[(time::us(20), 0, word(9))],
    );
    finish(&w, &[spun], &RefCell::default())
}

#[test]
fn a_probe_with_a_peer_bar_load_does_not_park() {
    equivalent(false, peer_bar_poll);
}

#[test]
fn a_parked_poller_nothing_wakes_explains_the_hang() {
    let w = world();
    let state = layout::host_dram(0) + 0x40;
    let cqe = layout::host_dram(0) + 0x1000;
    w.bus.write_u64(state, 0x2a);
    w.bus.write(cqe, &[0x11; 64]);
    let t = w.cpu.clone();
    w.sim.spawn("lonely-poller", async move {
        let loads = [load(state, LoadKind::State), load(cqe, LoadKind::Bytes(64))];
        let probe = Probe {
            loads: &loads,
            instr: 14,
            spins: None,
        };
        t.spin_until(&probe, |b| le(&b[..8]) == 1).await;
    });
    // The plain loop would spin forever; the parked poller lets `run`
    // return, still live, and says what it waits for.
    w.sim.run();
    let stuck = w.sim.stuck_processes();
    assert_eq!(stuck.len(), 1, "{stuck:?}");
    assert!(
        stuck[0].starts_with("lonely-poller (parked: spin on"),
        "{stuck:?}"
    );
    let want = format!("{state:#x}=0x2a {cqe:#x}[64 B]={}", "11".repeat(64));
    assert!(stuck[0].contains(&want), "{stuck:?}");
    assert!(w.sim.stuck_dump().contains(&want));
    assert!(
        w.sim.next_event_time().is_some(),
        "a spinning poller is never idle"
    );
}
