//! The spin engine: spin-wait fast-forward for any [`Processor`].
//!
//! A probe is one pass of a poll loop as a short step list
//! ([`crate::Step`]): loads, instruction blocks, retire points (each hands
//! the caller's predicate the bytes loaded so far, so a raised first
//! channel is served before the next one is loaded), exit-flag checks and a
//! trailing idle delay. [`Plan`] compiles it into [`Op`]s. A processor's
//! `Processor::spin_until` hands its probe to [`spin_until`], which runs
//! the steps exactly as the plain loop does — the same loads, counters,
//! delays and recorder spans — until it can show that the next passes
//! change nothing:
//!
//! * the last two failed passes were identical: the same loaded bytes, the
//!   same step offsets, and every step [`Run::steady`] (for a GPU: every
//!   device-memory load an L2 hit and every PCIe read sent on an idle
//!   link);
//! * the next pass reached its first delay without one, that step was
//!   steady again, and memory still holds the bytes those passes saw;
//! * every exit flag is unset;
//! * the recorder and the causal log are off and every load targets RAM.
//!
//! The thread then *parks* (see `tc_desim::ffwd`): it keeps no timer, and
//! the executor runs its skipped steps, from the pass's period and step
//! offsets, in the plain loop's order; once they have run, the processor
//! charges each exactly what the plain loop charges
//! ([`Spinner::charge`]), and this module the retires' spin counters. The
//! bus watches every loaded byte range, every exit flag runs a watcher when
//! it is set, and the processor arms its own triggers ([`Spinner::watch`]);
//! a trigger or the recorder or causal log coming on resumes the thread
//! with a real timer at its next skipped step, from where it runs for real
//! again. A thread resumed by its exit flag never parks again: its next
//! exit check ends the spin.
//!
//! The engine is the processor-independent half. Each [`Spinner`] supplies
//! only what its steps cost and charge and what else resumes it: `tc-gpu`'s
//! `GpuThread` its L2 lookups and PCIe reads, [`crate::CpuThread`] its
//! fixed DRAM and cache latencies.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::ops::Range;
use std::rc::Rc;

use tc_desim::ffwd::Skipped;
use tc_desim::sync::Flag;
use tc_desim::Time;
use tc_mem::Bus;
use tc_trace::Counter;

use crate::proc::{le, Probe, ProbeLoad, Processor, Spun, Step};

/// One step of a compiled probe. Steps separated by a non-zero delay
/// happen at different simulated instants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Load `i` issues: counters, and any cache lookup.
    Issue(usize),
    /// Load `i` sends its PCIe read ([`Spinner::sends_read`]).
    Read(usize),
    /// Load `i` samples memory.
    Done(usize),
    /// This many compare/branch instructions issue.
    Instr(u64),
    /// They retire at retire point `j`; the predicate decides.
    Retire(usize),
    /// Exit flag `j` is tested (by the engine).
    Exit(usize),
    /// The pass idles this long (run by the engine).
    Idle(Time),
}

/// A load of a compiled probe.
#[derive(Clone)]
pub struct PlanLoad {
    /// The load.
    pub load: ProbeLoad,
    /// It sends a PCIe read.
    pub sys: bool,
    /// Offset of its bytes in the probe's buffer.
    off: usize,
}

/// A retire point of a compiled probe.
#[derive(Clone)]
struct Retire {
    /// The instructions of the block that retires here.
    instr: u64,
    /// The bytes loaded before it.
    end: usize,
    /// Bumped once per rejection.
    spins: Option<Counter>,
}

/// A probe compiled into steps.
#[derive(Clone)]
pub struct Plan {
    /// The probe's loads, in order.
    pub loads: Vec<PlanLoad>,
    ops: Vec<Op>,
    retires: Vec<Retire>,
    flags: Vec<Flag>,
    /// Bytes one pass loads.
    bytes: usize,
    /// Every load targets RAM, so bus watches see every change.
    ram: bool,
}

impl Plan {
    fn new<S: Spinner>(t: &S, probe: &Probe<'_>) -> Plan {
        let count = |f: fn(&Step<'_>) -> bool| probe.iter().filter(|s| f(s)).count();
        let loads = count(|s| matches!(s, Step::Load(_)));
        let mut plan = Plan {
            loads: Vec::with_capacity(loads),
            ops: Vec::with_capacity(2 * loads + probe.len()),
            retires: Vec::with_capacity(count(|s| matches!(s, Step::Retire(_)))),
            flags: Vec::with_capacity(count(|s| matches!(s, Step::Exit(_)))),
            bytes: 0,
            ram: true,
        };
        let mut instr = 0;
        for step in probe {
            let op = match *step {
                Step::Load(load) => {
                    let (i, sys) = (plan.loads.len(), t.sends_read(&load));
                    plan.ops.push(Op::Issue(i));
                    if sys {
                        plan.ops.push(Op::Read(i));
                    }
                    let off = plan.bytes;
                    plan.loads.push(PlanLoad { load, sys, off });
                    plan.bytes += load.bytes();
                    plan.ram &= t.bus().resolve(load.addr).is_some();
                    Op::Done(i)
                }
                Step::Instr(n) => {
                    instr = n;
                    Op::Instr(n)
                }
                Step::Retire(spins) => {
                    let (end, spins) = (plan.bytes, spins.cloned());
                    plan.retires.push(Retire { instr, end, spins });
                    Op::Retire(plan.retires.len() - 1)
                }
                Step::Exit(flag) => {
                    plan.flags.push(flag.clone());
                    Op::Exit(plan.flags.len() - 1)
                }
                Step::Idle(d) => Op::Idle(d),
            };
            plan.ops.push(op);
        }
        plan
    }

    /// Where load `i`'s bytes sit in the probe's buffer.
    pub fn range(&self, i: usize) -> Range<usize> {
        let l = &self.loads[i];
        l.off..l.off + l.load.bytes()
    }

    /// The instructions that retire at retire point `j`.
    pub fn retiring(&self, j: usize) -> u64 {
        self.retires[j].instr
    }
}

/// What one probe's steps hand each other.
pub struct Run {
    /// The loaded bytes, in load order.
    pub bytes: Vec<u8>,
    /// Start of the load or instruction block in flight (for spans).
    pub t0: Time,
    /// When the PCIe read in flight was sent.
    pub rd: Time,
    /// Every step so far would run the same way again: a processor clears
    /// it for a step whose cost depends on more than the polled bytes.
    pub steady: bool,
}

/// A processor's half of the spin engine: what each probe step costs and
/// charges, and what besides a store to the polled bytes resumes a parked
/// probe.
pub trait Spinner: Processor + Clone + 'static {
    /// The memory the probe's loads read.
    fn bus(&self) -> &Bus;
    /// Whether load `l` sends a PCIe read: its steps then include an
    /// [`Op::Read`].
    fn sends_read(&self, l: &ProbeLoad) -> bool;
    /// Run step `op` of `plan` now, exactly as the plain loop's loads and
    /// instructions do; returns the delay before the next step. The engine
    /// runs [`Op::Exit`] and [`Op::Idle`] itself.
    fn step(&self, plan: &Plan, op: Op, r: &mut Run) -> Time;
    /// Charge `n` skipped runs of step `op`, the last at instant `last`,
    /// with what the plain loop would have charged for them (the engine
    /// charges the spin counters at [`Op::Retire`]; it never hands over
    /// [`Op::Exit`] or [`Op::Idle`]).
    fn charge(&self, plan: &Plan, op: Op, n: u64, last: Time);
    /// Arm the resume triggers besides the bus watches on the polled bytes,
    /// pushing how to disarm each onto `unwatch`.
    fn watch(&self, _plan: &Plan, _wake: &Rc<dyn Fn()>, _unwatch: &mut Vec<Box<dyn FnOnce()>>) {}
}

/// The fast-forwarding `Processor::spin_until` of a [`Spinner`].
pub async fn spin_until<S: Spinner>(
    t: &S,
    probe: &Probe<'_>,
    mut done: impl FnMut(&[u8]) -> bool,
) -> Spun {
    let plan = Plan::new(t, probe);
    let sim = t.sim().clone();
    let mut r = Run {
        bytes: vec![0; plan.bytes],
        t0: 0,
        rd: 0,
        steady: true,
    };
    let mut failed = 0;
    // Step offsets of the pass in flight and of the last failed one, each
    // closed by the pass's length.
    let (mut at, mut last_at): (Vec<Time>, Vec<Time>) = (Vec::new(), Vec::new());
    let mut last_bytes = Vec::new();
    // The last two failed passes were whole, steady and identical.
    let mut twins = false;
    loop {
        let mut start = sim.now();
        let mut whole = true;
        at.clear();
        at.reserve(plan.ops.len() + 1);
        r.steady = true;
        let mut i = 0;
        while i < plan.ops.len() {
            let offset = sim.now() - start;
            at.push(offset);
            let d = match plan.ops[i] {
                Op::Retire(j) => {
                    t.step(&plan, Op::Retire(j), &mut r);
                    let point = &plan.retires[j];
                    if done(&r.bytes[..point.end]) {
                        r.bytes.truncate(point.end);
                        let (bytes, exited) = (r.bytes, false);
                        return Spun {
                            bytes,
                            failed,
                            exited,
                        };
                    }
                    if let Some(c) = &point.spins {
                        c.inc();
                    }
                    0
                }
                Op::Exit(j) if plan.flags[j].is_set() => {
                    let (bytes, exited) = (Vec::new(), true);
                    return Spun {
                        bytes,
                        failed,
                        exited,
                    };
                }
                Op::Exit(_) => 0,
                Op::Idle(d) => d,
                op => t.step(&plan, op, &mut r),
            };
            // The first delay of a pass that repeats the last two: park.
            let first = offset == 0 && twins && last_at[i] == 0;
            if first && d > 0 && r.steady && d == last_at[i + 1] {
                if let Some(park) = SpinPark::new(t, &plan, &last_at, &last_bytes) {
                    let k = park.wait().await;
                    failed += park.retired(k);
                    (start, i) = park.resume_point(k, &mut r);
                    whole = false;
                    twins = false;
                    continue;
                }
            }
            if d > 0 {
                sim.delay(d).await;
            }
            i += 1;
        }
        at.push(sim.now() - start);
        failed += 1;
        let steady = whole && r.steady;
        twins = steady && at == last_at && r.bytes == last_bytes;
        if steady {
            std::mem::swap(&mut at, &mut last_at);
            last_bytes.clone_from(&r.bytes);
        } else {
            last_at.clear();
        }
    }
}

/// The steps a probe runs at one instant.
struct Event {
    /// Offset from the probe's start; the last event ends the probe (and
    /// starts the next).
    offset: Time,
    /// The steps that run then, in probe order.
    ops: Vec<Op>,
}

/// A parked spinner: the schedule of its skipped events and their charges.
/// Skipped events are numbered from 1; event 0 is the first instant of the
/// first skipped pass, whose steps ran for real when the thread parked.
struct SpinPark<S: Spinner> {
    thread: S,
    plan: Plan,
    bytes: Vec<u8>,
    /// Step offsets of the repeated pass, closed by its length.
    at: Vec<Time>,
    /// Start of the first skipped pass.
    start: Time,
    period: Time,
    events: Vec<Event>,
    id: Cell<u64>,
    /// Skipped events charged so far.
    charged: Cell<u64>,
    /// The event the thread resumes at, once resumed.
    resumed: Cell<Option<u64>>,
    unwatch: RefCell<Vec<Box<dyn FnOnce()>>>,
}

impl<S: Spinner> SpinPark<S> {
    /// Park if the thread may: see the module docs. `at` and `bytes` are
    /// the repeated pass's step offsets (closed by its length) and loaded
    /// bytes.
    fn new(t: &S, plan: &Plan, at: &[Time], bytes: &[u8]) -> Option<Rc<Self>> {
        let sim = t.sim();
        if !plan.ram || sim.recorder().on() || sim.causal_enabled() {
            return None;
        }
        if plan.flags.iter().any(Flag::is_set) {
            return None;
        }
        // A store since the repeated passes sampled was not watched.
        let mut now_bytes = vec![0; bytes.len()];
        for (i, l) in plan.loads.iter().enumerate() {
            t.bus().peek(l.load.addr, &mut now_bytes[plan.range(i)]);
        }
        if now_bytes != bytes {
            return None;
        }
        let period = *at.last().expect("a pass has a length");
        let mut events: Vec<Event> = Vec::new();
        for (&op, &a) in plan.ops.iter().zip(at) {
            // Steps at offset 0 run in the previous probe's last event.
            let offset = if a == 0 { period } else { a };
            match events.iter_mut().find(|e| e.offset == offset) {
                Some(e) => e.ops.push(op),
                None => events.push(Event {
                    offset,
                    ops: vec![op],
                }),
            }
        }
        events.sort_by_key(|e| e.offset);
        let park = Rc::new(SpinPark {
            thread: t.clone(),
            plan: plan.clone(),
            bytes: bytes.to_vec(),
            at: at.to_vec(),
            start: sim.now(),
            period,
            events,
            id: Cell::new(0),
            charged: Cell::new(0),
            resumed: Cell::new(None),
            unwatch: RefCell::new(Vec::new()),
        });
        park.watch();
        Some(park)
    }

    /// Arm the triggers that end the parking.
    fn watch(self: &Rc<Self>) {
        let weak = Rc::downgrade(self);
        let wake: Rc<dyn Fn()> = Rc::new(move || {
            if let Some(p) = weak.upgrade() {
                p.resume();
            }
        });
        let bus = self.thread.bus();
        let mut unwatch = self.unwatch.borrow_mut();
        for PlanLoad { load: l, .. } in &self.plan.loads {
            let id = bus.watch(l.addr, l.bytes() as u64, wake.clone());
            let (bus, addr) = (bus.clone(), l.addr);
            unwatch.push(Box::new(move || bus.unwatch(addr, id)));
        }
        for flag in &self.plan.flags {
            let (id, flag) = (flag.watch(wake.clone()), flag.clone());
            unwatch.push(Box::new(move || flag.unwatch(id)));
        }
        self.thread.watch(&self.plan, &wake, &mut unwatch);
    }

    /// Park until resumed; returns the skipped event resumed at.
    async fn wait(self: &Rc<Self>) -> u64 {
        let parked = self.thread.sim().park(self.clone());
        self.id.set(parked.id());
        parked.await;
        self.resumed
            .get()
            .expect("a parked spinner wakes only when resumed")
    }

    fn m(&self) -> u64 {
        self.events.len() as u64
    }

    /// Instant of skipped event `k` (event 0: the park instant).
    fn instant(&self, k: u64) -> Time {
        if k == 0 {
            return self.start;
        }
        let m = self.m();
        self.start + (k - 1) / m * self.period + self.events[((k - 1) % m) as usize].offset
    }

    /// Charge skipped events `from + 1 ..= to`.
    fn charge(&self, from: u64, to: u64) {
        let m = self.m();
        for (j, e) in self.events.iter().enumerate() {
            let j = j as u64;
            // Events j, j + m, j + 2m, … counted 0-based below `x`.
            let below = |x: u64| (x + m - 1 - j) / m;
            let n = below(to) - below(from);
            if n == 0 {
                continue;
            }
            let last = self.instant(to - (to - 1 - j) % m);
            for &op in &e.ops {
                match op {
                    Op::Exit(_) | Op::Idle(_) => continue,
                    Op::Retire(r) => {
                        if let Some(c) = &self.plan.retires[r].spins {
                            c.add(n);
                        }
                    }
                    _ => {}
                }
                self.thread.charge(&self.plan, op, n, last);
            }
        }
    }

    /// Failed passes among the skipped events before `k`.
    fn retired(&self, k: u64) -> u64 {
        (k - 1) / self.m()
    }

    /// Where the thread picks up at skipped event `k`: the pass's start
    /// and the step to run next (the op count: the pass is over), with `r`
    /// as the skipped steps left it.
    fn resume_point(&self, k: u64, r: &mut Run) -> (Time, usize) {
        let m = self.m();
        let start = self.start + (k - 1) / m * self.period;
        let offset = self.events[((k - 1) % m) as usize].offset;
        let next = self
            .at
            .iter()
            .position(|&a| a == offset)
            .expect("every event starts a step");
        for (idx, op) in self.plan.ops[..next].iter().enumerate() {
            match op {
                Op::Issue(_) | Op::Instr(_) => r.t0 = start + self.at[idx],
                Op::Read(_) => r.rd = start + self.at[idx],
                _ => {}
            }
        }
        r.bytes.copy_from_slice(&self.bytes);
        (start, next)
    }
}

impl<S: Spinner> Skipped for SpinPark<S> {
    fn schedule(&self) -> (Time, Time, Vec<Time>) {
        let offsets = self.events.iter().map(|e| e.offset).collect();
        (self.start, self.period, offsets)
    }

    fn settle(&self, run: u64) {
        let from = self.charged.get();
        if run > from {
            self.charge(from, run);
            self.charged.set(run);
        }
    }

    fn resume(&self) {
        if self.resumed.get().is_some() {
            return;
        }
        let run = self.thread.sim().resume_parked(self.id.get());
        self.resumed.set(Some(run + 1));
        for f in self.unwatch.borrow_mut().drain(..) {
            f();
        }
    }

    fn describe(&self) -> String {
        let mut out = String::from("spin on");
        for (i, PlanLoad { load: l, .. }) in self.plan.loads.iter().enumerate() {
            let b = &self.bytes[self.plan.range(i)];
            if b.len() <= 8 {
                let _ = write!(out, " {:#x}={:#x}", l.addr, le(b));
            } else {
                let _ = write!(out, " {:#x}[{} B]=", l.addr, b.len());
                for x in b {
                    let _ = write!(out, "{x:02x}");
                }
            }
        }
        for flag in &self.plan.flags {
            let _ = write!(out, " exit {flag:?}");
        }
        out
    }
}
