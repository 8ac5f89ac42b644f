//! Spin-wait fast-forward equivalence: a `GpuThread` that parks its
//! unchanged probes must be indistinguishable from the plain loop.
//!
//! Every scenario runs twice on a fresh one-GPU system: once through the
//! native `GpuThread::spin_until`, which parks, and once through `Plain`,
//! a forwarding wrapper that keeps `Processor::spin_until`'s default body.
//! Both runs must end at the same simulated time with the same full
//! registry snapshot, the same L2 residency, the same recorder events and
//! the same spin results.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use tc_desim::{time, Sim, Time};
use tc_gpu::{Gpu, GpuConfig, GpuThread};
use tc_mem::{layout, Addr, Bus, RegionKind, SparseMem};
use tc_pcie::{le, LoadKind, Pcie, PcieConfig, Probe, ProbeLoad, Processor, Spun, Step};
use tc_trace::{Counter, Snapshot, TraceEvent};

/// Forwards every method the thread implements but `spin_until`, so spins
/// take the plain loop.
struct Plain(GpuThread);

impl Processor for Plain {
    fn sim(&self) -> &Sim {
        self.0.gpu().sim()
    }
    async fn instr(&self, n: u64) {
        self.0.instr(n).await
    }
    async fn ld_bytes(&self, a: Addr, b: &mut [u8]) {
        self.0.ld_bytes(a, b).await
    }
    async fn st_bytes(&self, a: Addr, d: &[u8]) {
        self.0.st_bytes(a, d).await
    }
    async fn fence(&self) {
        self.0.fence_system().await
    }
}

/// A one-segment probe: `loads`, `instr` instructions, a retire that bumps
/// `spins` on a rejection.
fn segment<'a>(loads: &[ProbeLoad], instr: u64, spins: Option<&'a Counter>) -> Vec<Step<'a>> {
    let loads = loads.iter().map(|&l| Step::Load(l));
    loads
        .chain([Step::Instr(instr), Step::Retire(spins)])
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Native,
    Plain,
}

async fn spin(
    mode: Mode,
    t: GpuThread,
    probe: &Probe<'_>,
    done: impl FnMut(&[u8]) -> bool,
) -> Spun {
    match mode {
        Mode::Native => t.spin_until(probe, done).await,
        Mode::Plain => Plain(t).spin_until(probe, done).await,
    }
}

struct World {
    sim: Sim,
    bus: Bus,
    gpu: Gpu,
}

fn world(l2_bytes: u64) -> World {
    let sim = Sim::new();
    let bus = Bus::new();
    bus.add_ram(
        Rc::new(SparseMem::new(layout::host_dram(0), 1 << 24)),
        RegionKind::HostDram { node: 0 },
    );
    let pcie = Pcie::new(sim.clone(), bus.clone(), PcieConfig::gen3_x8());
    let cfg = GpuConfig {
        l2_bytes,
        ..GpuConfig::kepler_k20()
    };
    let gpu = Gpu::new(&sim, 0, cfg, &bus, &pcie);
    World { sim, bus, gpu }
}

/// Everything a run leaves behind.
#[derive(Debug, PartialEq)]
struct Outcome {
    end: Time,
    registry: Snapshot,
    l2_lines: usize,
    polled_resident: bool,
    events: Vec<TraceEvent>,
    spun: Vec<Spun>,
    observed: Vec<Snapshot>,
}

fn finish(
    w: &World,
    polled: Addr,
    spun: &RefCell<Vec<Spun>>,
    observed: &RefCell<Vec<Snapshot>>,
) -> Outcome {
    let end = w.sim.run();
    assert_eq!(w.sim.live_processes(), 0, "{:?}", w.sim.stuck_processes());
    Outcome {
        end,
        registry: w.sim.registry().snapshot(),
        l2_lines: w.gpu.l2().resident_lines(),
        polled_resident: w.gpu.l2().is_resident(polled),
        events: w.sim.recorder().events(),
        spun: spun.take(),
        observed: observed.take(),
    }
}

/// Bus writes of `(when, value)` to `addr`, as a DMA engine lands them.
fn writer(w: &World, addr: Addr, writes: &[(Time, u64)]) {
    let (sim, bus) = (w.sim.clone(), w.bus.clone());
    let writes = writes.to_vec();
    w.sim.spawn("writer", async move {
        for (at, v) in writes {
            sim.delay(at - sim.now()).await;
            bus.write_u64(addr, v);
        }
    });
}

/// Whether some process reported itself parked at `at`.
fn parked_at(w: &World, at: Time) -> Rc<Cell<bool>> {
    let seen = Rc::new(Cell::new(false));
    let (s, sim) = (seen.clone(), w.sim.clone());
    w.sim.spawn("watcher", async move {
        sim.delay(at).await;
        s.set(
            sim.stuck_processes()
                .iter()
                .any(|p| p.contains("(parked: spin on")),
        );
    });
    seen
}

/// A poller on `loads` until `done`; its results land in the returned cell.
fn poller(
    w: &World,
    mode: Mode,
    loads: Vec<ProbeLoad>,
    instr: u64,
    spins: bool,
    done: impl FnMut(&[u8]) -> bool + 'static,
) -> Rc<RefCell<Vec<Spun>>> {
    let out = Rc::new(RefCell::new(Vec::new()));
    let (o, t) = (out.clone(), w.gpu.thread());
    let counter = spins.then(|| w.sim.registry().counter("test.poll_spins"));
    w.sim.spawn("poller", async move {
        let probe = segment(&loads, instr, counter.as_ref());
        let got = spin(mode, t, &probe, done).await;
        o.borrow_mut().push(got);
    });
    out
}

fn u64_load(addr: Addr) -> ProbeLoad {
    ProbeLoad {
        addr,
        kind: LoadKind::U64,
    }
}

/// Run `scenario` both ways; the outcomes must match and the native run
/// must have parked.
fn equivalent(scenario: impl Fn(Mode) -> (Outcome, bool)) {
    let (native, parked) = scenario(Mode::Native);
    let (plain, plain_parked) = scenario(Mode::Plain);
    assert!(parked, "the native run never parked");
    assert!(!plain_parked);
    assert_eq!(native, plain);
}

/// Device-memory tag poll; the first two stores do not satisfy it.
fn devmem_tag_poll(mode: Mode, recorder_at: Option<Time>, observe: bool) -> (Outcome, bool) {
    let w = world(GpuConfig::kepler_k20().l2_bytes);
    let tag = w.gpu.alloc(64, 128);
    let spun = poller(&w, mode, vec![u64_load(tag)], 4, false, |b| le(b) >= 3);
    writer(
        &w,
        tag,
        &[(time::us(20), 1), (time::us(45), 2), (time::us(70), 3)],
    );
    let parked = parked_at(&w, time::us(30));
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
    (finish(&w, tag, &spun, &observed), parked.get())
}

#[test]
fn device_memory_tag_poll() {
    equivalent(|m| devmem_tag_poll(m, None, false));
}

#[test]
fn registry_snapshots_while_parked() {
    equivalent(|m| devmem_tag_poll(m, None, true));
}

#[test]
fn recorder_switched_on_mid_spin() {
    equivalent(|m| devmem_tag_poll(m, Some(time::us(50)), false));
}

/// A sysmem EXTOLL-style notification poll: two 64-bit loads, 40
/// instructions, a spin counter; `other` adds a second thread's posted
/// writes on the same GPU link while the poller is parked.
fn sysmem_notification_poll(mode: Mode, other: bool) -> (Outcome, bool) {
    let w = world(GpuConfig::kepler_k20().l2_bytes);
    let slot = layout::host_dram(0) + 0x1000;
    let spun = poller(
        &w,
        mode,
        vec![u64_load(slot), u64_load(slot + 8)],
        40,
        true,
        |b| le(&b[..8]) != 0,
    );
    let (sim, bus) = (w.sim.clone(), w.bus.clone());
    w.sim.spawn("nic", async move {
        sim.delay(time::us(90)).await;
        bus.write(slot + 8, &7u64.to_le_bytes());
        sim.delay(time::us(30)).await;
        bus.write(slot, &0x1_0101u64.to_le_bytes());
    });
    if other {
        let (sim, t) = (w.sim.clone(), w.gpu.thread());
        w.sim.spawn("other", async move {
            for i in 0..3u64 {
                sim.delay(time::us(15)).await;
                t.st_u64(layout::host_dram(0) + 0x2000 + 8 * i, i).await;
            }
        });
    }
    let parked = parked_at(&w, time::us(12));
    let none = RefCell::new(Vec::new());
    (finish(&w, slot, &spun, &none), parked.get())
}

#[test]
fn sysmem_notification_poll_with_spin_counter() {
    equivalent(|m| sysmem_notification_poll(m, false));
}

#[test]
fn posted_writes_on_the_polling_link() {
    equivalent(|m| sysmem_notification_poll(m, true));
}

/// The instants at which a plain devmem tag poll samples memory, and the
/// instants its loads issue (the preceding step).
fn sample_instants() -> Vec<(Time, Time)> {
    let w = world(GpuConfig::kepler_k20().l2_bytes);
    let tag = w.gpu.alloc(64, 128);
    w.sim.recorder().enable();
    let _ = poller(&w, Mode::Plain, vec![u64_load(tag)], 4, false, |b| {
        le(b) == 1
    });
    writer(&w, tag, &[(time::us(40), 1)]);
    w.sim.run();
    w.sim
        .recorder()
        .events()
        .iter()
        .filter(|e| e.name == "warp_ld")
        .map(|e| match e.phase {
            tc_trace::Phase::Span { dur } => (e.ts + dur, e.ts),
            _ => unreachable!(),
        })
        .collect()
}

/// A store that lands exactly at a skipped probe's sample instant, from a
/// writer whose timer was inserted at `inserted_at`.
fn store_at_sample(mode: Mode, sample: Time, inserted_at: Time) -> (Outcome, bool) {
    let w = world(GpuConfig::kepler_k20().l2_bytes);
    let tag = w.gpu.alloc(64, 128);
    let spun = poller(&w, mode, vec![u64_load(tag)], 4, false, |b| le(b) == 1);
    let (sim, bus) = (w.sim.clone(), w.bus.clone());
    w.sim.spawn("writer", async move {
        sim.delay(inserted_at).await;
        sim.delay(sample - inserted_at).await;
        bus.write_u64(tag, 1);
    });
    let parked = parked_at(&w, sample / 2);
    let none = RefCell::new(Vec::new());
    (finish(&w, tag, &spun, &none), parked.get())
}

#[test]
fn store_at_exactly_a_skipped_sample_instant() {
    let samples = sample_instants();
    let (sample, issued) = samples[samples.len() / 2];
    // Timer inserted long before, just before the sample, and at the very
    // instant the skipped load issued: each tie must fall the plain way.
    for inserted_at in [1, sample - 1, issued, issued - 1] {
        equivalent(|m| store_at_sample(m, sample, inserted_at));
    }
}

/// A second thread's loads fill the tiny L2 and evict the polled line
/// while the poller is parked.
fn evicting_fill(mode: Mode) -> (Outcome, bool) {
    let w = world(4 * 128);
    let tag = w.gpu.alloc(64, 128);
    let spun = poller(&w, mode, vec![u64_load(tag)], 4, false, |b| le(b) == 1);
    let (sim, t) = (w.sim.clone(), w.gpu.thread());
    let lines = w.gpu.alloc(8 * 128, 128);
    w.sim.spawn("filler", async move {
        sim.delay(time::us(25)).await;
        for i in 0..8 {
            let _ = t.ld_u64(lines + 128 * i).await;
        }
    });
    writer(&w, tag, &[(time::us(60), 1)]);
    let parked = parked_at(&w, time::us(20));
    let none = RefCell::new(Vec::new());
    (finish(&w, tag, &spun, &none), parked.get())
}

#[test]
fn l2_fill_evicting_the_polled_line() {
    equivalent(evicting_fill);
}

#[test]
fn a_parked_poller_nothing_wakes_explains_the_hang() {
    let w = world(GpuConfig::kepler_k20().l2_bytes);
    let tag = w.gpu.alloc(64, 128);
    w.bus.write_u64(tag, 0x2a);
    let t = w.gpu.thread();
    w.sim.spawn("lonely-poller", async move {
        let load = [u64_load(tag)];
        let probe = segment(&load, 4, None);
        t.spin_until(&probe, |b| le(b) == 1).await;
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
    assert!(stuck[0].contains(&format!("{tag:#x}=0x2a")), "{stuck:?}");
    assert!(w.sim.stuck_dump().contains(&format!("{tag:#x}=0x2a")));
    assert!(
        w.sim.next_event_time().is_some(),
        "a spinning poller is never idle"
    );
}
