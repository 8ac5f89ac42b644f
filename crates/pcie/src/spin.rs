//! The spin engine: spin-wait fast-forward for any [`Processor`].
//!
//! A processor's `Processor::spin_until` hands its probe to
//! [`spin_until`], which runs it step by step exactly as the plain loop
//! does — the same loads, counters, delays and recorder spans — until it
//! can show that the next probes change nothing:
//!
//! * the last two failed probes were identical: the same loaded bytes, the
//!   same step offsets, and every step [`Run::steady`] (for a GPU: every
//!   device-memory load an L2 hit and every PCIe read sent on an idle
//!   link);
//! * the next probe's first step was steady again, and memory still holds
//!   the bytes those probes saw;
//! * the recorder and the causal log are off and every load targets RAM.
//!
//! The thread then *parks* (see `tc_desim::ffwd`): it keeps no timer, and
//! the executor runs its skipped steps in the plain loop's order while the
//! processor charges each exactly what the plain loop charges
//! ([`Spinner::charge`]), and this module the caller's spin counter. The
//! bus watches every loaded byte range, and the processor arms its own
//! triggers ([`Spinner::watch`]); a trigger or the recorder or causal log
//! coming on resumes the thread with a real timer at its next skipped step,
//! from where it runs for real again.
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
use tc_desim::Time;
use tc_mem::Bus;
use tc_trace::Counter;

use crate::proc::{le, Probe, ProbeLoad, Processor, Spun};

/// One step of a probe. Steps separated by a non-zero delay happen at
/// different simulated instants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Load `i` issues: counters, and any cache lookup.
    Issue(usize),
    /// Load `i` sends its PCIe read ([`Spinner::sends_read`]).
    Read(usize),
    /// Load `i` samples memory.
    Done(usize),
    /// The compare/branch instructions issue.
    Instr,
    /// They retire; the predicate decides.
    Retire,
}

/// A probe compiled into steps.
#[derive(Clone)]
pub struct Plan {
    /// The probe's loads.
    pub loads: Vec<ProbeLoad>,
    /// Instructions after the loads.
    pub instr: u64,
    /// Per load: sends a PCIe read.
    pub sys: Vec<bool>,
    spins: Option<Counter>,
    ops: Vec<Op>,
    /// Per load: offset of its bytes in the probe's buffer.
    offs: Vec<usize>,
    /// Every load targets RAM, so bus watches see every change.
    ram: bool,
}

impl Plan {
    fn new<S: Spinner>(t: &S, probe: &Probe<'_>) -> Plan {
        let mut ops = Vec::with_capacity(3 * probe.loads.len() + 2);
        let (mut sys, mut offs) = (Vec::new(), Vec::new());
        let (mut off, mut ram) = (0, true);
        for (i, l) in probe.loads.iter().enumerate() {
            let s = t.sends_read(l);
            ops.push(Op::Issue(i));
            if s {
                ops.push(Op::Read(i));
            }
            ops.push(Op::Done(i));
            sys.push(s);
            offs.push(off);
            off += l.bytes();
            ram &= t.bus().resolve(l.addr).is_some();
        }
        ops.extend([Op::Instr, Op::Retire]);
        Plan {
            loads: probe.loads.to_vec(),
            instr: probe.instr,
            spins: probe.spins.cloned(),
            ops,
            sys,
            offs,
            ram,
        }
    }

    /// Where load `i`'s bytes sit in the probe's buffer.
    pub fn range(&self, i: usize) -> Range<usize> {
        self.offs[i]..self.offs[i] + self.loads[i].bytes()
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
    /// instructions do; returns the delay before the next step.
    fn step(&self, plan: &Plan, op: Op, r: &mut Run) -> Time;
    /// Charge `n` skipped runs of step `op`, the last at instant `last`,
    /// with what the plain loop would have charged for them (the engine
    /// charges the spin counter at [`Op::Retire`]).
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
        bytes: vec![0; probe.bytes()],
        t0: 0,
        rd: 0,
        steady: true,
    };
    let mut failed = 0;
    // Step offsets of the probe in flight and of the last failed one.
    let (mut at, mut last_at): (Vec<Time>, Vec<Time>) = (Vec::new(), Vec::new());
    let mut last_bytes = Vec::new();
    // The last two failed probes were whole, steady and identical.
    let mut twins = false;
    loop {
        let mut start = sim.now();
        let mut whole = true;
        at.clear();
        r.steady = true;
        let mut i = 0;
        while i < plan.ops.len() {
            at.push(sim.now() - start);
            let d = t.step(&plan, plan.ops[i], &mut r);
            if i == 0 && twins && d > 0 && r.steady && d == last_at[1] {
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
        if done(&r.bytes) {
            return Spun {
                bytes: r.bytes,
                failed,
            };
        }
        failed += 1;
        if let Some(c) = &plan.spins {
            c.inc();
        }
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
/// Skipped events are numbered from 1; event 0 is the first step of the
/// first skipped probe, which ran for real when the thread parked.
struct SpinPark<S: Spinner> {
    thread: S,
    plan: Plan,
    bytes: Vec<u8>,
    /// Step offsets of the repeated probe.
    at: Vec<Time>,
    /// Start of the first skipped probe.
    start: Time,
    period: Time,
    events: Vec<Event>,
    id: Cell<u64>,
    /// Skipped events charged so far.
    charged: Cell<u64>,
    /// Skipped events run so far (charged at the next settle).
    advanced: Cell<u64>,
    /// The event the thread resumes at, once resumed.
    resumed: Cell<Option<u64>>,
    unwatch: RefCell<Vec<Box<dyn FnOnce()>>>,
}

impl<S: Spinner> SpinPark<S> {
    /// Park if the thread may: see the module docs. `at` and `bytes` are
    /// the repeated probe's step offsets and loaded bytes.
    fn new(t: &S, plan: &Plan, at: &[Time], bytes: &[u8]) -> Option<Rc<Self>> {
        let sim = t.sim();
        if !plan.ram || sim.recorder().on() || sim.causal_enabled() {
            return None;
        }
        // A store since the repeated probes sampled was not watched.
        let mut now_bytes = vec![0; bytes.len()];
        for (i, l) in plan.loads.iter().enumerate() {
            t.bus().peek(l.addr, &mut now_bytes[plan.range(i)]);
        }
        if now_bytes != bytes {
            return None;
        }
        let period = *at.last().expect("a probe has steps");
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
            advanced: Cell::new(0),
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
        for l in &self.plan.loads {
            let id = bus.watch(l.addr, l.bytes() as u64, wake.clone());
            let (bus, addr) = (bus.clone(), l.addr);
            unwatch.push(Box::new(move || bus.unwatch(addr, id)));
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
                if let (Op::Retire, Some(c)) = (op, &self.plan.spins) {
                    c.add(n);
                }
                self.thread.charge(&self.plan, op, n, last);
            }
        }
    }

    /// Failed probes among the skipped events before `k`.
    fn retired(&self, k: u64) -> u64 {
        (k - 1) / self.m()
    }

    /// Where the thread picks up at skipped event `k`: the probe's start
    /// and the step to run next, with `r` as the skipped steps left it.
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
                Op::Issue(_) | Op::Instr => r.t0 = start + self.at[idx],
                Op::Read(_) => r.rd = start + self.at[idx],
                _ => {}
            }
        }
        r.bytes.copy_from_slice(&self.bytes);
        (start, next)
    }
}

impl<S: Spinner> Skipped for SpinPark<S> {
    fn next_at(&self) -> Time {
        self.instant(self.advanced.get() + 1)
    }

    fn advance(&self) -> Time {
        let k = self.advanced.get() + 1;
        self.advanced.set(k);
        self.instant(k + 1)
    }

    fn advance_by(&self, n: u64) {
        self.advanced.set(self.advanced.get() + n);
    }

    fn period(&self) -> (Time, u64) {
        (self.period, self.m())
    }

    fn settle(&self) {
        let (from, to) = (self.charged.get(), self.advanced.get());
        if to > from {
            self.charge(from, to);
            self.charged.set(to);
        }
    }

    fn resume(&self) {
        if self.resumed.get().is_some() {
            return;
        }
        self.resumed.set(Some(self.advanced.get() + 1));
        for f in self.unwatch.borrow_mut().drain(..) {
            f();
        }
        self.thread.sim().resume_parked(self.id.get());
    }

    fn describe(&self) -> String {
        let mut out = String::from("spin on");
        for (i, l) in self.plan.loads.iter().enumerate() {
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
        out
    }
}
