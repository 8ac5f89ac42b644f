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
use tc_trace::rng::XorShift64;
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

/// Spin results in completion order, each tagged with its poller.
type Log = Rc<RefCell<Vec<(usize, Spun)>>>;

/// Everything a run leaves behind.
#[derive(Debug, PartialEq)]
struct Outcome {
    end: Time,
    registry: Snapshot,
    events: Vec<TraceEvent>,
    spun: Vec<(usize, Spun)>,
    observed: Vec<Snapshot>,
}

/// Run `w` to the end; also returns whether any probe was fast-forwarded.
fn finish(w: &World, spun: &[Log], observed: &RefCell<Vec<Snapshot>>) -> (Outcome, bool) {
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

/// A poller on `loads` until `done`; its results land in the returned log.
fn poller(
    w: &World,
    mode: Mode,
    loads: Vec<ProbeLoad>,
    instr: u64,
    spins: Option<&str>,
    done: impl FnMut(&[u8]) -> bool + 'static,
) -> Log {
    let out = Log::default();
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
        o.borrow_mut().push((0, got));
    });
    out
}

/// Poller `tag`, first probing at `start`: spins on `loads` with `instr`
/// instructions per probe until its first load reads at least `want`,
/// then logs its result in `log`.
fn tagged(
    w: &World,
    mode: Mode,
    log: &Log,
    (tag, start, want): (usize, Time, u64),
    loads: Vec<ProbeLoad>,
    instr: u64,
) {
    let (log, t, sim) = (log.clone(), w.cpu.clone(), w.sim.clone());
    let first = loads[0].bytes();
    w.sim.spawn("poller", async move {
        sim.delay(start).await;
        let probe = Probe {
            loads: &loads,
            instr,
            spins: None,
        };
        let done = |b: &[u8]| le(&b[..first]) >= want;
        let got = match mode {
            Mode::Native => t.spin_until(&probe, done).await,
            Mode::Plain => Plain(t).spin_until(&probe, done).await,
        };
        log.borrow_mut().push((tag, got));
    });
}

/// A writer that inserts a timer at each of `hops` in turn and stores `v`
/// to `addr` at the last.
fn store_via(w: &World, addr: Addr, v: u64, hops: &[Time]) {
    let (sim, bus, hops) = (w.sim.clone(), w.bus.clone(), hops.to_vec());
    w.sim.spawn("writer", async move {
        for at in hops {
            sim.delay(at - sim.now()).await;
        }
        bus.write_u64(addr, v);
    });
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
    store_via(&w, flag, 1, &[inserted_at, sample]);
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

/// Three pollers with one probe, parked at one instant, and a store at
/// their shared sample instant `hops.last()`. The writer is spawned before
/// poller `writer_at` (so it runs between pollers at every instant it
/// shares with them) and hops through `hops`.
fn three_tied_pollers(mode: Mode, writer_at: usize, hops: &[Time]) -> (Outcome, bool) {
    let w = world();
    let flag = layout::host_dram(0) + 0x100;
    let log = Log::default();
    for tag in 0..=3 {
        if tag == writer_at {
            store_via(&w, flag, 1, hops);
        }
        if tag < 3 {
            tagged(
                &w,
                mode,
                &log,
                (tag, 0, 1),
                vec![load(flag, LoadKind::U64)],
                4,
            );
        }
    }
    finish(&w, &[log], &RefCell::default())
}

#[test]
fn three_pollers_parked_at_one_instant_tie_at_a_store() {
    let (period, dram) = flag_period();
    let probe = 40;
    let sample = probe * period + dram;
    // Every step instant of the pollers up to the sample: a writer hopping
    // through them keeps its place among the pollers at each.
    let lockstep: Vec<Time> = (0..probe)
        .flat_map(|j| [j * period + dram, (j + 1) * period])
        .chain([sample])
        .collect();
    for writer_at in 0..=3 {
        equivalent(true, |m| three_tied_pollers(m, writer_at, &lockstep));
        // The writer's place among the pollers decides what each samples:
        // those before it miss the store by one probe.
        let (native, _) = three_tied_pollers(Mode::Native, writer_at, &lockstep);
        for (tag, spun) in &native.spun {
            assert_eq!(
                spun.failed,
                probe + u64::from(*tag < writer_at),
                "{writer_at}"
            );
        }
        // The store's last timer inserted long before the sample, at the
        // issue instant, just before it, and just before the sample.
        let issued = sample - dram;
        for inserted_at in [1, issued - 1, issued, sample - 1] {
            let hops = [inserted_at, sample];
            equivalent(true, |m| three_tied_pollers(m, writer_at, &hops));
        }
    }
}

/// A fast poller (4 instructions) and a slow one (400) on one flag,
/// starting `offset` apart; a store lands at the slow poller's sample
/// instant of probe 200, through `hops` (ending at it).
fn fast_and_slow_pollers(mode: Mode, offset: Time, hops: &[Time]) -> (Outcome, bool) {
    let w = world();
    let flag = layout::host_dram(0) + 0x100;
    let log = Log::default();
    tagged(
        &w,
        mode,
        &log,
        (0, 0, 1),
        vec![load(flag, LoadKind::U64)],
        400,
    );
    tagged(
        &w,
        mode,
        &log,
        (1, offset, 1),
        vec![load(flag, LoadKind::U64)],
        4,
    );
    store_via(&w, flag, 1, hops);
    finish(&w, &[log], &RefCell::default())
}

#[test]
fn a_fast_poller_runs_many_steps_between_a_slow_ones() {
    let cfg = CpuConfig::default();
    let (fast, dram) = flag_period();
    let slow = cfg.dram + 400 * cfg.instr;
    let sample = 200 * slow + dram;
    // Offset 0, and the offset that puts a fast sample at `sample` too.
    for offset in [0, (sample - dram) % fast] {
        for inserted_at in [1, sample - dram, sample - 1] {
            let hops = [inserted_at, sample];
            equivalent(true, |m| fast_and_slow_pollers(m, offset, &hops));
        }
    }
}

/// A poller parked for thousands of periods, woken by a store at its
/// sample instant of probe 5000 (a timer inserted at `inserted_at`); with
/// `neighbour`, a very slow poller on another flag is parked next to it,
/// so no period is common and the fast poller advances in long runs.
fn long_parked_poller(mode: Mode, neighbour: bool, inserted_at: Time) -> (Outcome, bool) {
    let w = world();
    let flag = layout::host_dram(0) + 0x100;
    let other = layout::host_dram(0) + 0x200;
    let (period, dram) = flag_period();
    let sample = 5000 * period + dram;
    let log = Log::default();
    tagged(
        &w,
        mode,
        &log,
        (0, 0, 1),
        vec![load(flag, LoadKind::U64)],
        4,
    );
    store_via(&w, flag, 1, &[inserted_at, sample]);
    if neighbour {
        tagged(
            &w,
            mode,
            &log,
            (1, 0, 1),
            vec![load(other, LoadKind::U64)],
            100_000,
        );
        store_via(&w, other, 1, &[sample + time::us(50)]);
    }
    finish(&w, &[log], &RefCell::default())
}

#[test]
fn a_store_inside_a_whole_period_jump() {
    let (period, dram) = flag_period();
    let sample = 5000 * period + dram;
    for neighbour in [false, true] {
        for inserted_at in [1, sample - dram, sample - 1] {
            equivalent(true, |m| long_parked_poller(m, neighbour, inserted_at));
        }
    }
}

/// A seeded scenario: 2–6 pollers with random probes (load kinds, flags,
/// instruction counts), first probes and targets, on three flags that are
/// each stored 1, 2 and 3 at random instants. Every instant is a multiple
/// of the instruction time, so steps and stores often tie.
fn random_pollers(mode: Mode, seed: u64) -> (Outcome, bool) {
    let mut rng = XorShift64::new(seed);
    let w = world();
    let grain = CpuConfig::default().instr;
    let flags = [0x100, 0x200, 0x300].map(|off| layout::host_dram(0) + off);
    let log = Log::default();
    for tag in 0..rng.range(2, 7) as usize {
        let first = [LoadKind::U32, LoadKind::U64, LoadKind::State][rng.below(3) as usize];
        let mut loads = vec![load(flags[rng.below(3) as usize], first)];
        if rng.chance(1, 2) {
            let kind = [LoadKind::U64, LoadKind::State, LoadKind::Bytes(16)][rng.below(3) as usize];
            loads.push(load(flags[rng.below(3) as usize], kind));
        }
        let start = rng.below(2_000) * grain;
        let want = rng.range(1, 4);
        tagged(&w, mode, &log, (tag, start, want), loads, rng.range(1, 200));
    }
    for flag in flags {
        let mut at: Vec<Time> = (0..3).map(|_| rng.range(1, 100_000) * grain).collect();
        at.sort_unstable();
        let writes: Vec<_> = at
            .into_iter()
            .zip(1..)
            .map(|(t, v)| (t, 0, word(v)))
            .collect();
        writer(&w, flag, &writes);
    }
    finish(&w, &[log], &RefCell::default())
}

#[test]
fn random_pollers_match_the_plain_loop() {
    let mut parked = 0;
    for seed in 1..=64 {
        let (native, native_parked) = random_pollers(Mode::Native, seed);
        let (plain, plain_parked) = random_pollers(Mode::Plain, seed);
        assert!(!plain_parked);
        assert_eq!(native, plain, "seed {seed}");
        parked += usize::from(native_parked);
    }
    // A seed whose pollers are all satisfied before two probes repeat
    // never parks; nearly every seed does.
    assert!(parked >= 60, "only {parked} of 64 seeds parked a poller");
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
