//! Spin-wait fast-forward for GPU threads.
//!
//! [`GpuThread`]'s `Processor::spin_until` runs a probe step by step
//! exactly as the plain loop does — the same loads, counters, delays and
//! recorder spans — until it can show that the next probes change
//! nothing:
//!
//! * the last two failed probes were identical: the same loaded bytes, the
//!   same step offsets, every device-memory load an L2 hit and every PCIe
//!   read sent on an idle link;
//! * the next probe's first load hit again, and memory still holds the
//!   bytes those probes saw;
//! * the recorder and the causal log are off and every load targets RAM.
//!
//! The thread then *parks* (see `tc_desim::ffwd`): it keeps no timer, and
//! the executor runs its skipped steps in the plain loop's order while this
//! module charges each exactly what the plain loop charges — GPU counters,
//! PCIe reads and their `np_read_ps` samples, link occupancy, the caller's
//! spin counter. The bus watches every loaded byte range, the L2 every
//! polled line, and the GPU's PCIe link is watched when a load crosses it;
//! a trigger (a store, an eviction, another user of the link) or the
//! recorder or causal log coming on resumes the thread with a real timer at
//! its next skipped step, from where it runs for real again.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::rc::Rc;

use tc_desim::ffwd::Skipped;
use tc_desim::Time;
use tc_pcie::{le, Probe, ProbeLoad, Spun};
use tc_trace::Counter;

use crate::counters::GpuCounters;
use crate::thread::{GpuThread, Issued};

/// One step of a probe. Steps separated by a non-zero delay happen at
/// different simulated instants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// Load `i` issues: counters, and the L2 lookup for device memory.
    Issue(usize),
    /// System-memory load `i` sends its PCIe read.
    Read(usize),
    /// Load `i` samples memory.
    Done(usize),
    /// The compare/branch instructions issue.
    Instr,
    /// They retire; the predicate decides.
    Retire,
}

/// A probe compiled into steps.
struct Plan {
    loads: Vec<ProbeLoad>,
    instr: u64,
    spins: Option<Counter>,
    ops: Vec<Op>,
    /// Per load: crosses PCIe (host memory or MMIO).
    sys: Vec<bool>,
    /// Per load: offset of its bytes in the probe's buffer.
    offs: Vec<usize>,
    /// Every load targets RAM, so bus watches see every change.
    ram: bool,
}

impl Plan {
    fn new(t: &GpuThread, probe: &Probe<'_>) -> Plan {
        let bus = t.gpu().bus();
        let mut ops = Vec::with_capacity(3 * probe.loads.len() + 2);
        let (mut sys, mut offs) = (Vec::new(), Vec::new());
        let (mut off, mut ram) = (0, true);
        for (i, l) in probe.loads.iter().enumerate() {
            let s = t.crosses_pcie(l.addr);
            ops.push(Op::Issue(i));
            if s {
                ops.push(Op::Read(i));
            }
            ops.push(Op::Done(i));
            sys.push(s);
            offs.push(off);
            off += l.bytes();
            ram &= bus.resolve(l.addr).is_some();
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

    fn range(&self, i: usize) -> std::ops::Range<usize> {
        self.offs[i]..self.offs[i] + self.loads[i].bytes()
    }
}

/// What one probe's steps hand each other.
struct Run {
    bytes: Vec<u8>,
    /// Start of the load or instruction block in flight (for spans).
    t0: Time,
    /// When the PCIe read in flight was sent.
    rd: Time,
    /// Every L2 lookup hit and every PCIe read found its link idle.
    steady: bool,
}

impl GpuThread {
    /// Execute one probe step now; returns the delay before the next one.
    /// Mirrors `load` and `instr` exactly.
    fn step(&self, plan: &Plan, op: Op, r: &mut Run) -> Time {
        let gpu = self.gpu();
        let now = gpu.sim().now();
        match op {
            Op::Issue(i) => {
                let l = &plan.loads[i];
                r.t0 = now;
                match self.load_issue(l.addr, l.bytes() as u64) {
                    Issued::Device { delay, hit } => {
                        r.steady &= hit;
                        delay
                    }
                    Issued::Sysmem => gpu.config().sysmem_read_extra,
                }
            }
            Op::Read(i) => {
                let ep = gpu.endpoint();
                r.steady &= ep.link().busy_until() <= now;
                r.rd = now;
                ep.read_issue(plan.loads[i].bytes() as u64) - now
            }
            Op::Done(i) => {
                let addr = plan.loads[i].addr;
                let range = plan.range(i);
                let len = range.len() as u64;
                let buf = &mut r.bytes[range];
                if plan.sys[i] {
                    gpu.endpoint().read_complete(r.rd, addr, buf);
                } else {
                    gpu.bus().read(addr, buf);
                }
                self.load_span(r.t0, addr, len);
                0
            }
            Op::Instr => {
                GpuCounters::bump(&self.counters().instructions, plan.instr);
                r.t0 = now;
                gpu.config().instr_time(plan.instr)
            }
            Op::Retire => {
                self.record_exec_span(r.t0, "instr", plan.instr);
                0
            }
        }
    }
}

/// `GpuThread`'s `Processor::spin_until`.
pub(crate) async fn spin_until(
    t: &GpuThread,
    probe: &Probe<'_>,
    mut done: impl FnMut(&[u8]) -> bool,
) -> Spun {
    let plan = Plan::new(t, probe);
    let sim = t.gpu().sim().clone();
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

/// The charges of the steps a probe runs at one instant.
struct Event {
    /// Offset from the probe's start; the last event ends the probe (and
    /// starts the next).
    offset: Time,
    /// Counter increments, the caller's spin counter included.
    adds: Vec<(Counter, u64)>,
    /// Lengths of the PCIe reads sent.
    reads: Vec<u64>,
    /// Latencies of the PCIe reads completing.
    completions: Vec<Time>,
}

/// A parked spinner: the schedule of its skipped events and their charges.
/// Skipped events are numbered from 1; event 0 is the first step of the
/// first skipped probe, which ran for real when the thread parked.
struct SpinPark {
    thread: GpuThread,
    loads: Vec<ProbeLoad>,
    bytes: Vec<u8>,
    ops: Vec<Op>,
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

impl SpinPark {
    /// Park if the thread may: see the module docs. `at` and `bytes` are
    /// the repeated probe's step offsets and loaded bytes.
    fn new(t: &GpuThread, plan: &Plan, at: &[Time], bytes: &[u8]) -> Option<Rc<SpinPark>> {
        let gpu = t.gpu();
        let sim = gpu.sim();
        if !plan.ram || sim.recorder().on() || sim.causal_enabled() {
            return None;
        }
        // A store since the repeated probes sampled was not watched.
        let mut now_bytes = vec![0; bytes.len()];
        for (i, l) in plan.loads.iter().enumerate() {
            gpu.bus().peek(l.addr, &mut now_bytes[plan.range(i)]);
        }
        if now_bytes != bytes {
            return None;
        }
        let period = *at.last().expect("a probe has steps");
        let mut events: Vec<Event> = Vec::new();
        for (idx, &op) in plan.ops.iter().enumerate() {
            // Steps at offset 0 run in the previous probe's last event.
            let offset = if at[idx] == 0 { period } else { at[idx] };
            let e = match events.iter().position(|e| e.offset == offset) {
                Some(j) => &mut events[j],
                None => {
                    events.push(Event {
                        offset,
                        adds: Vec::new(),
                        reads: Vec::new(),
                        completions: Vec::new(),
                    });
                    events.last_mut().expect("just pushed")
                }
            };
            match op {
                Op::Issue(i) => {
                    let l = &plan.loads[i];
                    let len = l.bytes() as u64;
                    let lines = if plan.sys[i] {
                        0
                    } else {
                        gpu.l2().lines(l.addr, len)
                    };
                    for (c, n) in t.issue_charges(plan.sys[i], len, lines, 0) {
                        e.adds.push((c.clone(), n));
                    }
                }
                Op::Read(i) => e.reads.push(plan.loads[i].bytes() as u64),
                Op::Done(i) if plan.sys[i] => {
                    let sent = plan.ops.iter().position(|&o| o == Op::Read(i));
                    e.completions
                        .push(at[idx] - at[sent.expect("a sysmem load sends a read")]);
                }
                Op::Done(_) => {}
                Op::Instr => e.adds.push((t.counters().instructions.clone(), plan.instr)),
                Op::Retire => e.adds.extend(plan.spins.iter().map(|c| (c.clone(), 1))),
            }
        }
        events.sort_by_key(|e| e.offset);
        let park = Rc::new(SpinPark {
            thread: t.clone(),
            loads: plan.loads.clone(),
            bytes: bytes.to_vec(),
            ops: plan.ops.clone(),
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
        park.watch(plan);
        Some(park)
    }

    /// Arm the triggers that end the parking.
    fn watch(self: &Rc<Self>, plan: &Plan) {
        let weak = Rc::downgrade(self);
        let wake: Rc<dyn Fn()> = Rc::new(move || {
            if let Some(p) = weak.upgrade() {
                p.resume();
            }
        });
        let gpu = self.thread.gpu().clone();
        let mut unwatch = self.unwatch.borrow_mut();
        for (i, l) in plan.loads.iter().enumerate() {
            let len = l.bytes() as u64;
            let id = gpu.bus().watch(l.addr, len, wake.clone());
            let (bus, addr) = (gpu.bus().clone(), l.addr);
            unwatch.push(Box::new(move || bus.unwatch(addr, id)));
            if !plan.sys[i] {
                let id = gpu.l2().watch(l.addr, len, wake.clone());
                let g = gpu.clone();
                unwatch.push(Box::new(move || g.l2().unwatch(id)));
            }
        }
        if plan.sys.contains(&true) {
            let link = gpu.endpoint().link().clone();
            let id = link.watch(wake);
            unwatch.push(Box::new(move || link.unwatch(id)));
        }
    }

    /// Park until resumed; returns the skipped event resumed at.
    async fn wait(self: &Rc<Self>) -> u64 {
        let sim = self.thread.gpu().sim().clone();
        let parked = sim.park(self.clone());
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
        let ep = self.thread.gpu().endpoint();
        for (j, e) in self.events.iter().enumerate() {
            let j = j as u64;
            // Events j, j + m, j + 2m, … counted 0-based below `x`.
            let below = |x: u64| (x + m - 1 - j) / m;
            let n = below(to) - below(from);
            if n == 0 {
                continue;
            }
            for (c, v) in &e.adds {
                c.add(v * n);
            }
            for &lat in &e.completions {
                ep.charge_skipped_completions(n, lat);
            }
            if !e.reads.is_empty() {
                let last = to - 1 - (to - 1 - j) % m;
                for &len in &e.reads {
                    ep.charge_skipped_reads(n, len, self.instant(last + 1));
                }
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
        for (idx, op) in self.ops[..next].iter().enumerate() {
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

impl Skipped for SpinPark {
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
        self.thread.gpu().sim().resume_parked(self.id.get());
    }

    fn describe(&self) -> String {
        let mut out = String::from("spin on");
        let mut off = 0;
        for l in &self.loads {
            let b = &self.bytes[off..off + l.bytes()];
            off += b.len();
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
