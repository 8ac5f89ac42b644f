//! The single-threaded cooperative process executor.
//!
//! Processes are `Future<Output = ()>` values polled by [`Sim::run`]. The
//! executor never uses real wakers: every wake-up is explicit through the
//! simulation's own data structures (timer events or the primitives in
//! [`crate::sync`]), which keeps scheduling fully deterministic.
//!
//! The hot path is allocation- and borrow-lean: timers live in the slab of
//! the timing wheel (see `queue.rs`), process names are interned (see
//! `intern.rs`), `now()`/`current_proc()` read `Cell`s without touching the
//! `RefCell`-guarded state, and polling a process takes exactly two
//! `borrow_mut`s (take the future out, put it back). The seed binary-heap
//! event queue is retained behind [`QueueKind::RefHeap`] as the golden
//! reference; both queues pop timers in identical `(time, seq)` order, so
//! the choice is invisible to simulation results.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use tc_trace::causal::{CausalDump, CausalLog, Cause, NodeId};
use tc_trace::{Recorder, Registry};

use crate::ffwd::Skipped;
use crate::intern::{NameId, NameTable};
use crate::queue::{QueueKind, TimerId, TimerQueue, TimerRef};
use crate::sync::{Signal, WaitCells, WaitToken};
use crate::time::Time;

/// Identifier of a spawned process. Stable for the lifetime of the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub(crate) usize);

type BoxedProc = Pin<Box<dyn Future<Output = ()>>>;

struct ProcSlot {
    fut: Option<BoxedProc>,
    name: NameId,
    /// Set while the process is on the runnable queue, to avoid duplicates.
    queued: bool,
    /// Causal-log process key (monotone, generation-safe — slab indices
    /// are recycled, these never are). 0 = not yet assigned; assigned at
    /// spawn when causal recording is on, else lazily at the first poll
    /// after it is enabled.
    causal_key: u64,
    /// The process's most recent causal node.
    last_node: Option<NodeId>,
    /// Why the process is (about to be) runnable; consumed at the next
    /// poll. First cause wins, mirroring `queued`.
    cause: Option<Cause>,
}

pub(crate) struct Inner {
    queue: TimerQueue,
    runnable: VecDeque<ProcId>,
    procs: Vec<Option<ProcSlot>>,
    free: Vec<usize>,
    live: usize,
    names: NameTable,
    waits: WaitCells,
}

impl Inner {
    /// Queue `pid` if it is live and not already queued. Callers already
    /// hold the `borrow_mut`, so notify storms pay one borrow total.
    fn make_runnable(&mut self, pid: ProcId) {
        if let Some(Some(slot)) = self.procs.get_mut(pid.0) {
            if !slot.queued {
                slot.queued = true;
                self.runnable.push_back(pid);
            }
        }
    }

    /// Attribute a causal cause to `pid`'s next poll. Only the *first*
    /// cause sticks (a process already queued keeps the cause that queued
    /// it), mirroring `make_runnable`'s duplicate suppression — call this
    /// just before `make_runnable`.
    fn stage_cause(&mut self, pid: ProcId, cause: Cause) {
        if let Some(Some(slot)) = self.procs.get_mut(pid.0) {
            if !slot.queued {
                slot.cause = Some(cause);
            }
        }
    }

    /// Timer variant of [`Inner::stage_cause`]: the cause is the target's
    /// own previous node (its delay started there).
    fn stage_timer_cause(&mut self, pid: ProcId) {
        if let Some(Some(slot)) = self.procs.get_mut(pid.0) {
            if !slot.queued {
                slot.cause = slot.last_node.map(|prev| Cause::Timer { prev });
            }
        }
    }
}

struct Shared {
    /// Clock fast path: mirrors the run loop's notion of "now" so `now()`
    /// is a `Cell` read, never a `RefCell` borrow.
    now: Cell<Time>,
    /// Time of the most recently fired timer. Unlike `now`, this is never
    /// advanced synthetically by a deadline-bounded `run_until`, so it is
    /// the value a full `run()` would have returned so far.
    last_event: Cell<Time>,
    /// Process currently being polled, if any (fast path for
    /// `current_proc()`).
    current: Cell<Option<ProcId>>,
    inner: RefCell<Inner>,
    registry: Registry,
    recorder: Recorder,
    causal: CausalLog,
    /// Cross-shard envelope provenance for the *next* spawn (set by the
    /// shard coordinator's deliver callback just before it replays an
    /// envelope, consumed by [`Sim::spawn`]).
    import_stage: Cell<Option<(u32, u64)>>,
    /// Processes parked by spin fast-forward (see [`crate::ffwd`]).
    parked: RefCell<Parking>,
    /// Work done since the last [`Work::fold`].
    work: Cell<Work>,
}

#[derive(Default)]
struct Parking {
    next_id: u64,
    /// One entry per parked process, in id order.
    entries: Vec<ParkEntry>,
    /// Spinners to settle after a batch (kept to reuse its allocation).
    settle: Vec<(Rc<dyn Skipped>, u64)>,
}

struct ParkEntry {
    id: u64,
    pid: ProcId,
    spin: Rc<dyn Skipped>,
    /// Instant of the pending step.
    at: Time,
    /// Sequence number of the pending step's (skipped) timer.
    seq: u64,
    /// The schedule ([`Skipped::schedule`]): the period and each step's
    /// offset in it.
    period: Time,
    offsets: Vec<Time>,
    /// Start of the pending step's period, and the step's place in it.
    start: Time,
    place: usize,
    /// Steps run since the process parked, and up to which it has settled.
    run: u64,
    settled: u64,
    /// The resume timer, once [`Sim::resume_parked`] scheduled it.
    timer: Rc<RefCell<Option<TimerRef>>>,
}

impl ParkEntry {
    /// Move the pending step on by one.
    fn step(&mut self) {
        self.place += 1;
        if self.place == self.offsets.len() {
            self.place = 0;
            self.start += self.period;
        }
        self.at = self.start + self.offsets[self.place];
    }

    /// Move the pending step on by `n` whole periods.
    fn jump(&mut self, n: u64) {
        self.start += n * self.period;
        self.at += n * self.period;
        self.run += n * self.offsets.len() as u64;
    }

    /// Run the pending step and every later one before `limit`, as one run;
    /// returns the steps run and the instant of the last.
    fn run_before(&mut self, limit: Time) -> (u64, Time) {
        let (run, mut last) = (self.run, self.at);
        self.step();
        if self.at < limit {
            self.jump((limit - 1 - self.at) / self.period);
            while self.at < limit {
                last = self.at;
                self.step();
                self.run += 1;
            }
        }
        self.run += 1;
        (self.run - run, last)
    }
}

impl Parking {
    /// Index of the entry with the earliest pending step by `(at, seq)`.
    fn first(&self) -> Option<usize> {
        (0..self.entries.len()).min_by_key(|&i| (self.entries[i].at, self.entries[i].seq))
    }

    /// The earliest pending skipped step, `(at, seq)`.
    fn next(&self) -> Option<(Time, u64)> {
        self.first()
            .map(|i| (self.entries[i].at, self.entries[i].seq))
    }

    /// Run, in `(at, seq)` order, every pending step before `bound`; `seq`
    /// numbers the timers they skip inserting. Returns the instant of the
    /// last step run.
    ///
    /// The earliest pending step runs together with every later step of
    /// the same process before both `bound` and the next other process's
    /// pending instant: each step it runs draws a sequence number above
    /// every pending one, so its next step comes first only when it is
    /// strictly earlier.
    fn merge(&mut self, seq: &mut u64, bound: (Time, u64)) -> Option<Time> {
        let mut last = None;
        while let Some(i) = self.first() {
            let (at, s) = (self.entries[i].at, self.entries[i].seq);
            if (at, s) >= bound {
                break;
            }
            let others = self.entries.iter().enumerate().filter(|&(j, _)| j != i);
            let limit = others.fold(bound.0, |l, (_, e)| l.min(e.at));
            let e = &mut self.entries[i];
            let (n, at) = e.run_before(limit);
            e.seq = *seq + n - 1;
            *seq += n;
            last = Some(at);
        }
        last
    }

    /// The period every parked process repeats with, if they share one.
    fn common_period(&self) -> Option<Time> {
        let mut periods = self.entries.iter().map(|e| e.period);
        let first = periods.next()?;
        periods.all(|p| p == first).then_some(first)
    }

    /// `(id, pending instant, pending seq)` of every parked process.
    fn shape(&self) -> Vec<(u64, Time, u64)> {
        self.entries.iter().map(|e| (e.id, e.at, e.seq)).collect()
    }

    /// Remove parked process `id`'s entry, if it is still parked.
    fn remove(&mut self, id: u64) -> Option<ParkEntry> {
        let i = self.entries.binary_search_by_key(&id, |e| e.id).ok()?;
        Some(self.entries.remove(i))
    }
}

/// Executor work: process polls, and skipped steps that parked processes
/// fast-forwarded instead (see [`crate::ffwd`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Process polls.
    pub polls: u64,
    /// Skipped steps of parked processes.
    pub skipped: u64,
}

thread_local! {
    static THREAD_WORK: Cell<Work> = const { Cell::new(Work { polls: 0, skipped: 0 }) };
}

impl Work {
    /// The work of every simulation run on this OS thread so far, and of
    /// the shard threads of the sharded runs it started. A simulation
    /// counts its own work and folds it in whenever [`Sim::run_until`]
    /// returns.
    pub fn on_thread() -> Work {
        THREAD_WORK.with(Cell::get)
    }

    /// Add `w` to this thread's total.
    pub(crate) fn fold(w: Work) {
        THREAD_WORK.with(|t| {
            let s = t.get();
            t.set(Work {
                polls: s.polls + w.polls,
                skipped: s.skipped + w.skipped,
            });
        });
    }

    /// The work done since `earlier`, an earlier reading of the same total.
    pub fn since(self, earlier: Work) -> Work {
        Work {
            polls: self.polls - earlier.polls,
            skipped: self.skipped - earlier.skipped,
        }
    }
}

/// Handle to a simulation. Cheap to clone (one reference-count bump); all
/// clones refer to the same simulated world.
///
/// Every simulation carries the instrumentation layer with it: a
/// [`Registry`] of named counters the hardware models register into, and a
/// [`Recorder`] of structured trace events. Both are passive observers —
/// they never schedule or delay anything — so enabling them cannot change
/// simulated behaviour.
#[derive(Clone)]
pub struct Sim {
    shared: Rc<Shared>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Create an empty simulation at time zero, using the default event
    /// queue ([`QueueKind::Wheel`]).
    pub fn new() -> Self {
        Self::with_queue(QueueKind::default())
    }

    /// Create an empty simulation with an explicit event-queue
    /// implementation. Scheduling order is identical for every
    /// [`QueueKind`]; this switch exists for the equivalence tests and the
    /// wheel-vs-heap microbenchmarks.
    pub fn with_queue(kind: QueueKind) -> Self {
        Sim {
            shared: Rc::new(Shared {
                now: Cell::new(0),
                last_event: Cell::new(0),
                current: Cell::new(None),
                inner: RefCell::new(Inner {
                    queue: TimerQueue::new(kind),
                    runnable: VecDeque::new(),
                    procs: Vec::new(),
                    free: Vec::new(),
                    live: 0,
                    names: NameTable::new(),
                    waits: WaitCells::new(),
                }),
                registry: Registry::new(),
                recorder: Recorder::new(),
                causal: CausalLog::new(),
                import_stage: Cell::new(None),
                parked: RefCell::new(Parking::default()),
                work: Cell::new(Work::default()),
            }),
        }
    }

    /// Which event-queue implementation this simulation runs on.
    pub fn queue_kind(&self) -> QueueKind {
        self.shared.inner.borrow().queue.kind()
    }

    /// The counter registry shared by every component of this simulation.
    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }

    /// The structured event recorder shared by every component of this
    /// simulation. Disabled by default; see [`Recorder::enable`].
    pub fn recorder(&self) -> &Recorder {
        &self.shared.recorder
    }

    /// Current simulated time in picoseconds.
    #[inline]
    pub fn now(&self) -> Time {
        self.shared.now.get()
    }

    /// Simulated time of the most recently fired timer — the value a full
    /// [`Sim::run`] would have returned so far. Unlike [`Sim::now`], this
    /// is not advanced by the synthetic clock jump a deadline-bounded
    /// [`Sim::run_until`] performs when it stops early, so a windowed
    /// driver (see [`crate::shard`]) can report the true event horizon.
    pub fn last_event_time(&self) -> Time {
        self.shared.last_event.get()
    }

    /// Earliest pending timer deadline, if any.
    ///
    /// Intended to be called between bounded runs (after [`Sim::run_until`]
    /// has returned): every timer at or before the current time has then
    /// already fired, so the deadline-bounded peek takes its exact,
    /// non-destructive path and the wheel cursor is left untouched —
    /// timers earlier than the reported deadline can still be inserted.
    /// A parked process's next skipped step counts as pending.
    pub fn next_event_time(&self) -> Option<Time> {
        let now = self.shared.now.get();
        let queued = self.shared.inner.borrow_mut().queue.next_at(now);
        let skipped = self.shared.parked.borrow().next().map(|(at, _)| at);
        match (queued, skipped) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Number of processes that have been spawned and not yet finished.
    pub fn live_processes(&self) -> usize {
        self.shared.inner.borrow().live
    }

    /// Spawn a process. It becomes runnable at the current simulated time.
    /// The name is interned: spawning many processes under a repeated name
    /// costs no allocation for the name after the first.
    pub fn spawn<F>(&self, name: &str, fut: F) -> ProcId
    where
        F: Future<Output = ()> + 'static,
    {
        if self.shared.recorder.on() {
            self.shared.recorder.instant(
                self.shared.now.get(),
                "desim",
                "executor",
                "spawn",
                vec![("proc", name.into())],
            );
        }
        let (causal_key, cause) = if self.shared.causal.on() {
            let key = self.shared.causal.new_proc(name);
            let cause = match self.shared.import_stage.take() {
                Some((src_shard, seq)) => Cause::Import { src_shard, seq },
                None => Cause::Spawn {
                    parent: self.shared.causal.current(),
                },
            };
            (key, Some(cause))
        } else {
            (0, None)
        };
        let mut inner = self.shared.inner.borrow_mut();
        let name = inner.names.intern(name);
        let slot = ProcSlot {
            fut: Some(Box::pin(fut)),
            name,
            queued: true,
            causal_key,
            last_node: None,
            cause,
        };
        let id = match inner.free.pop() {
            Some(i) => {
                inner.procs[i] = Some(slot);
                ProcId(i)
            }
            None => {
                inner.procs.push(Some(slot));
                ProcId(inner.procs.len() - 1)
            }
        };
        inner.live += 1;
        inner.runnable.push_back(id);
        id
    }

    /// Mark `pid` runnable at the current time (no-op if already queued or
    /// finished). Used by `yield_now`: causally, the process wakes itself
    /// from its own current node.
    pub(crate) fn make_runnable(&self, pid: ProcId) {
        let mut inner = self.shared.inner.borrow_mut();
        if self.shared.causal.on() {
            if let Some(waker) = self.shared.causal.current() {
                inner.stage_cause(pid, Cause::Wake { waker });
            }
        }
        inner.make_runnable(pid);
    }

    #[inline]
    pub(crate) fn current_proc(&self) -> ProcId {
        self.shared
            .current
            .get()
            .expect("sim primitive awaited outside of a simulation process")
    }

    // -- wait-cell plumbing for crate::sync ---------------------------------

    pub(crate) fn wait_alloc(&self) -> WaitToken {
        self.shared.inner.borrow_mut().waits.alloc()
    }

    /// If the cell behind `tok` has been set, free it and return true.
    pub(crate) fn wait_take(&self, tok: WaitToken) -> bool {
        self.shared.inner.borrow_mut().waits.take(tok)
    }

    /// Release a wait cell that will never be taken (dropped `Wait`).
    pub(crate) fn wait_cancel(&self, tok: WaitToken) {
        if let Ok(mut inner) = self.shared.inner.try_borrow_mut() {
            inner.waits.cancel(tok);
        }
    }

    /// Wake every `(pid, token)` pair, in order, under a single borrow.
    /// Stale tokens (their `Wait` was dropped) still wake the process —
    /// exactly the seed's orphan-waiter behaviour — they just can't set a
    /// recycled cell.
    pub(crate) fn wake_waiters(&self, waiters: &mut Vec<(ProcId, WaitToken)>) {
        let mut inner = self.shared.inner.borrow_mut();
        let waker = if self.shared.causal.on() {
            self.shared.causal.current()
        } else {
            None
        };
        for (pid, tok) in waiters.drain(..) {
            inner.waits.set(tok);
            if let Some(waker) = waker {
                inner.stage_cause(pid, Cause::Wake { waker });
            }
            inner.make_runnable(pid);
        }
    }

    /// Wake a single waiter.
    pub(crate) fn wake_one(&self, pid: ProcId, tok: WaitToken) {
        let mut inner = self.shared.inner.borrow_mut();
        if self.shared.causal.on() {
            if let Some(waker) = self.shared.causal.current() {
                inner.stage_cause(pid, Cause::Wake { waker });
            }
        }
        inner.waits.set(tok);
        inner.make_runnable(pid);
    }

    // -----------------------------------------------------------------------

    fn poll_proc(&self, pid: ProcId) {
        let causal_on = self.shared.causal.on();
        // Move the future out of the slab so polling can re-borrow `inner`.
        let mut fut = {
            let mut inner = self.shared.inner.borrow_mut();
            let slot = match inner.procs.get_mut(pid.0) {
                Some(Some(s)) => s,
                _ => return,
            };
            slot.queued = false;
            let fut = match slot.fut.take() {
                Some(f) => f,
                None => return,
            };
            let name = slot.name;
            if causal_on {
                let cause = slot.cause.take();
                let mut key = slot.causal_key;
                if key == 0 {
                    // Spawned before causal recording was enabled: assign
                    // its generation-safe key on first sight.
                    key = self.shared.causal.new_proc(&inner.names.get(name).clone());
                    if let Some(Some(slot)) = inner.procs.get_mut(pid.0) {
                        slot.causal_key = key;
                    }
                }
                let node = self
                    .shared
                    .causal
                    .begin_node(key, self.shared.now.get(), cause);
                if let Some(Some(slot)) = inner.procs.get_mut(pid.0) {
                    slot.last_node = Some(node);
                }
            }
            if self.shared.recorder.on() {
                self.shared.recorder.instant(
                    self.shared.now.get(),
                    "desim",
                    "executor",
                    "wake",
                    vec![("proc", (&**inner.names.get(name)).into())],
                );
            }
            fut
        };
        self.shared.current.set(Some(pid));
        let waker = Waker::noop();
        let mut cx = Context::from_waker(waker);
        let mut w = self.shared.work.get();
        w.polls += 1;
        self.shared.work.set(w);
        let done = fut.as_mut().poll(&mut cx).is_ready();
        self.shared.current.set(None);
        if causal_on {
            self.shared.causal.end_node();
        }
        let mut inner = self.shared.inner.borrow_mut();
        if done {
            inner.procs[pid.0] = None;
            inner.free.push(pid.0);
            inner.live -= 1;
        } else if let Some(Some(slot)) = inner.procs.get_mut(pid.0) {
            slot.fut = Some(fut);
        }
    }

    /// Run until no runnable processes and no pending events remain.
    /// Returns the final simulated time.
    pub fn run(&self) -> Time {
        self.run_until(Time::MAX)
    }

    /// Run until the event queue is exhausted or the clock would pass
    /// `deadline`. Returns the simulated time when the run stopped.
    pub fn run_until(&self, deadline: Time) -> Time {
        let end = self.run_events(deadline);
        Work::fold(self.shared.work.take());
        end
    }

    fn run_events(&self, deadline: Time) -> Time {
        loop {
            // Drain everything runnable at the current instant.
            loop {
                let next = self.shared.inner.borrow_mut().runnable.pop_front();
                match next {
                    Some(pid) => self.poll_proc(pid),
                    None => break,
                }
            }
            // Advance to the next timer event. `next_at(deadline)` may
            // return a conservative bound when the true next event is past
            // the deadline; either way `at > deadline` means "stop here".
            let mut inner = self.shared.inner.borrow_mut();
            // Skipped steps of parked processes interleave by `(at, seq)`.
            // Never peek the queue past the earliest one: a process resumed
            // there needs the wheel cursor at or before its step.
            let skipped = self.shared.parked.borrow().next();
            let limit = skipped.map_or(deadline, |(at, _)| at.min(deadline));
            let next = inner.queue.next_at(limit);
            if let Some((at, seq)) = skipped {
                let bound = match next {
                    Some(t) if t <= limit => Some((t, inner.queue.peek_seq())),
                    // The plain loop would spin forever: nothing real is left.
                    None if deadline == Time::MAX => None,
                    later => Some((
                        later.unwrap_or(Time::MAX).min(deadline.saturating_add(1)),
                        0,
                    )),
                };
                if let Some(bound) = bound.filter(|&b| (at, seq) < b) {
                    drop(inner);
                    self.run_skipped(bound);
                    continue;
                }
            }
            match next {
                Some(at) if at > deadline => {
                    self.shared.now.set(deadline);
                    return deadline;
                }
                Some(_) => {
                    let (at, waiter) = inner.queue.pop().expect("due timer vanished");
                    debug_assert!(at >= self.shared.now.get(), "time went backwards");
                    self.shared.now.set(at);
                    self.shared.last_event.set(at);
                    if let Some(pid) = waiter {
                        if self.shared.causal.on() {
                            inner.stage_timer_cause(pid);
                        }
                        inner.make_runnable(pid);
                    }
                }
                None => {
                    // A parked spinner still has steps past the deadline.
                    if deadline != Time::MAX && !self.shared.parked.borrow().entries.is_empty() {
                        self.shared.now.set(deadline);
                        return deadline;
                    }
                    return self.shared.now.get();
                }
            }
        }
    }

    /// Run, in `(at, seq)` order, every skipped step of the parked
    /// processes that comes before `bound` (the next real timer, or the
    /// first instant past the run's deadline).
    fn run_skipped(&self, bound: (Time, u64)) {
        if self.shared.recorder.on() || self.shared.causal.on() {
            // Recorded runs take the real path.
            let spins: Vec<_> = (self.shared.parked.borrow().entries.iter())
                .map(|e| e.spin.clone())
                .collect();
            for spin in spins {
                spin.resume();
            }
            return;
        }
        let first = self.shared.inner.borrow().queue.next_seq();
        let mut seq = first;
        let mut last = self.shared.now.get();
        let mut parked = self.shared.parked.borrow_mut();
        let p = &mut *parked;
        let head = p.first().map(|i| (p.entries[i].at, p.entries[i].period));
        let far = head.filter(|&(at, period)| bound.0 - at > 4 * period);
        if let Some((base, period)) = far.filter(|&(_, period)| p.common_period() == Some(period)) {
            // Two periods by hand (the first settles the interleaving);
            // if the second reproduced the state shifted by a period,
            // jump the whole periods left before `bound`.
            last = p.merge(&mut seq, (base + period, 0)).unwrap_or(last);
            let (before, mid) = (p.shape(), seq);
            last = p.merge(&mut seq, (base + 2 * period, 0)).unwrap_or(last);
            let step_seqs = seq - mid;
            let repeats = p
                .shape()
                .iter()
                .zip(&before)
                .all(|(a, b)| a.0 == b.0 && a.1 == b.1 + period && a.2 == b.2 + step_seqs);
            let k = (bound.0 - base) / period - 2;
            if repeats && k > 1 {
                let jump = k - 1;
                for e in &mut p.entries {
                    e.jump(jump);
                    e.seq += jump * step_seqs;
                }
                seq += jump * step_seqs;
                last += jump * period;
            }
        }
        last = p.merge(&mut seq, bound).unwrap_or(last);
        let mut settle = std::mem::take(&mut p.settle);
        for e in p.entries.iter_mut().filter(|e| e.run > e.settled) {
            e.settled = e.run;
            settle.push((e.spin.clone(), e.run));
        }
        self.shared.inner.borrow_mut().queue.take_seqs(seq - first);
        // Every skipped step drew one sequence number.
        let mut w = self.shared.work.get();
        w.skipped += seq - first;
        self.shared.work.set(w);
        drop(parked);
        for (spin, run) in settle.drain(..) {
            spin.settle(run);
        }
        self.shared.parked.borrow_mut().settle = settle;
        self.shared.now.set(last);
        self.shared.last_event.set(last);
    }

    /// Park the current process: it keeps no timer, and the executor runs
    /// the skipped steps of `spin`'s schedule (see [`crate::ffwd`]) until
    /// [`Sim::resume_parked`]. Call it where the process would schedule
    /// the timer of the schedule's first step, and await the returned
    /// future.
    pub fn park(&self, spin: Rc<dyn Skipped>) -> Parked {
        let seq = self.shared.inner.borrow_mut().queue.take_seqs(1);
        let (start, period, offsets) = spin.schedule();
        debug_assert!(
            offsets.first().is_some_and(|&o| o > 0)
                && offsets.windows(2).all(|w| w[0] < w[1])
                && offsets.last().is_some_and(|&o| o <= period),
            "offsets ascend within the period"
        );
        let timer = Rc::new(RefCell::new(None));
        let mut p = self.shared.parked.borrow_mut();
        let id = p.next_id;
        p.next_id += 1;
        p.entries.push(ParkEntry {
            id,
            pid: self.current_proc(),
            spin,
            at: start + offsets[0],
            seq,
            period,
            offsets,
            start,
            place: 0,
            run: 0,
            settled: 0,
            timer: timer.clone(),
        });
        Parked {
            sim: self.clone(),
            id,
            timer,
        }
    }

    /// Resume parked process `id`: a real timer takes its pending step's
    /// place (same instant, same sequence number). Returns the skipped
    /// steps it ran.
    pub fn resume_parked(&self, id: u64) -> u64 {
        let entry = self
            .shared
            .parked
            .borrow_mut()
            .remove(id)
            .expect("resuming a process that is not parked");
        debug_assert!(entry.at >= self.shared.now.get(), "resuming into the past");
        let t = self
            .shared
            .inner
            .borrow_mut()
            .queue
            .schedule_seq(entry.at, entry.pid, entry.seq);
        *entry.timer.borrow_mut() = Some(t);
        entry.run
    }

    /// A future that completes `dur` picoseconds after it is first polled.
    pub fn delay(&self, dur: Time) -> Delay {
        Delay {
            sim: self.clone(),
            dur,
            timer: None,
        }
    }

    /// A future that yields once, letting every other currently-runnable
    /// process run before resuming at the same simulated time.
    pub fn yield_now(&self) -> YieldNow {
        YieldNow {
            sim: self.clone(),
            yielded: false,
        }
    }

    /// Create a new [`Signal`] bound to this simulation.
    pub fn signal(&self) -> Signal {
        Signal::new(self.clone())
    }

    /// Names of processes that are still alive (useful to diagnose
    /// deadlocks after [`Sim::run`] returns with live processes). A process
    /// parked by spin fast-forward also says what it spins on.
    pub fn stuck_processes(&self) -> Vec<String> {
        let inner = self.shared.inner.borrow();
        inner
            .procs
            .iter()
            .enumerate()
            .filter_map(|(i, s)| Some((i, s.as_ref()?)))
            .map(|(i, s)| self.live_label(i, inner.names.get(s.name)))
            .collect()
    }

    fn live_label(&self, idx: usize, name: &str) -> String {
        let p = self.shared.parked.borrow();
        match p.entries.iter().find(|e| e.pid.0 == idx) {
            Some(e) => format!("{name} (parked: {})", e.spin.describe()),
            None => name.to_string(),
        }
    }

    /// A human-readable report of every live process for quiescence
    /// failures: one line per stuck process with, when causal recording is
    /// on, its last causal node (timestamp and the edge that caused it)
    /// and any pending cause staged for a poll that never happened.
    pub fn stuck_dump(&self) -> String {
        use std::fmt::Write as _;
        let inner = self.shared.inner.borrow();
        let causal = &self.shared.causal;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} live process(es) at t={} ps:",
            inner.live,
            self.shared.now.get()
        );
        for (idx, slot) in inner
            .procs
            .iter()
            .enumerate()
            .filter_map(|(i, s)| Some((i, s.as_ref()?)))
        {
            let name = self.live_label(idx, inner.names.get(slot.name));
            let _ = write!(out, "  {name}");
            if causal.on() {
                if let Some(n) = slot.last_node.and_then(|id| causal.node(id)) {
                    let _ = write!(out, ": last polled at t={} ps (cause {:?})", n.ts, n.cause);
                }
                if let Some(cause) = slot.cause {
                    let _ = write!(out, ", pending cause {cause:?}");
                }
            }
            out.push('\n');
        }
        if !causal.on() {
            out.push_str("(enable causal recording for per-process causal edges)\n");
        }
        out
    }

    // -- causal log plumbing ------------------------------------------------

    /// The causal event log shared by every component of this simulation.
    /// Off by default; see [`Sim::causal_enable`].
    pub fn causal(&self) -> &CausalLog {
        &self.shared.causal
    }

    /// Clear and start causal recording. Process keys already assigned in
    /// a previous recording window are invalidated and re-assigned
    /// lazily, so dumps never mix generations.
    pub fn causal_enable(&self) {
        self.shared.causal.enable();
        self.shared.import_stage.set(None);
        let mut inner = self.shared.inner.borrow_mut();
        for slot in inner.procs.iter_mut().flatten() {
            slot.causal_key = 0;
            slot.last_node = None;
            slot.cause = None;
        }
    }

    /// Whether causal recording is currently enabled.
    pub fn causal_enabled(&self) -> bool {
        self.shared.causal.on()
    }

    /// Label the currently-running process's node as a completion point
    /// (see [`tc_trace::causal::critical_path`]). No-op when recording is
    /// off or outside a process.
    pub fn causal_mark(&self, label: &str) {
        if self.shared.causal.on() {
            self.shared.causal.mark(label);
        }
    }

    /// Record that the current node exported a cross-shard envelope; call
    /// from the remote tap, in staging order (export order must equal the
    /// coordinator's sequence numbering). No-op when recording is off.
    pub fn causal_export(&self) {
        if self.shared.causal.on() {
            self.shared.causal.export_current();
        }
    }

    /// Attribute the *next* [`Sim::spawn`] to the cross-shard envelope
    /// `(src_shard, seq)` instead of its local spawner; call from the
    /// shard coordinator's deliver callback just before replaying an
    /// envelope. No-op when recording is off.
    pub fn causal_stage_import(&self, src_shard: u32, seq: u64) {
        if self.shared.causal.on() {
            self.shared.import_stage.set(Some((src_shard, seq)));
        }
    }

    /// Take the captured causal graph (see [`CausalLog::dump`]).
    pub fn causal_dump(&self) -> CausalDump {
        self.shared.causal.dump()
    }

    fn schedule_timer(&self, at: Time, waiter: ProcId) -> TimerRef {
        self.shared.inner.borrow_mut().queue.schedule(at, waiter)
    }

    fn timer_pending(&self, id: TimerId) -> bool {
        self.shared.inner.borrow().queue.is_pending(id)
    }
}

/// Future returned by [`Sim::delay`].
///
/// Dropping a pending wheel-backed `Delay` cancels its timer and frees the
/// slab slot. (The reference heap mirrors the seed instead: the abandoned
/// event stays queued and fires into the void.)
pub struct Delay {
    sim: Sim,
    dur: Time,
    timer: Option<TimerRef>,
}

impl Future for Delay {
    type Output = ();

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        match &this.timer {
            None => {
                if this.dur == 0 {
                    return Poll::Ready(());
                }
                let pid = this.sim.current_proc();
                let at = this.sim.now() + this.dur;
                this.timer = Some(this.sim.schedule_timer(at, pid));
                Poll::Pending
            }
            Some(TimerRef::Wheel(id)) => {
                if this.sim.timer_pending(*id) {
                    Poll::Pending
                } else {
                    // Fired; the queue already freed the slot.
                    this.timer = None;
                    Poll::Ready(())
                }
            }
            Some(TimerRef::Heap(t)) => {
                if t.fired.get() {
                    Poll::Ready(())
                } else {
                    // Re-polled spuriously; re-register.
                    t.waiter.set(Some(this.sim.current_proc()));
                    Poll::Pending
                }
            }
        }
    }
}

impl Drop for Delay {
    fn drop(&mut self) {
        if let Some(TimerRef::Wheel(id)) = self.timer.take() {
            if let Ok(mut inner) = self.sim.shared.inner.try_borrow_mut() {
                inner.queue.cancel(id);
            }
        }
    }
}

/// Future returned by [`Sim::park`]: pending until the process is resumed
/// and its resume timer fires.
pub struct Parked {
    sim: Sim,
    id: u64,
    timer: Rc<RefCell<Option<TimerRef>>>,
}

impl Parked {
    /// The handle [`Sim::resume_parked`] takes.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Future for Parked {
    type Output = ();

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        match &*self.timer.borrow() {
            Some(TimerRef::Wheel(id)) if !self.sim.timer_pending(*id) => Poll::Ready(()),
            Some(TimerRef::Heap(t)) if t.fired.get() => Poll::Ready(()),
            _ => Poll::Pending,
        }
    }
}

impl Drop for Parked {
    fn drop(&mut self) {
        // A process dropped while parked leaves no entry or timer behind.
        if let Ok(mut p) = self.sim.shared.parked.try_borrow_mut() {
            p.remove(self.id);
        }
        if let Some(TimerRef::Wheel(id)) = self.timer.borrow_mut().take() {
            if let Ok(mut inner) = self.sim.shared.inner.try_borrow_mut() {
                inner.queue.cancel(id);
            }
        }
    }
}

/// Future returned by [`Sim::yield_now`].
pub struct YieldNow {
    sim: Sim,
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        if this.yielded {
            Poll::Ready(())
        } else {
            this.yielded = true;
            let pid = this.sim.current_proc();
            // Requeue ourselves behind everything currently runnable.
            this.sim.make_runnable(pid);
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{ns, us};
    use std::cell::RefCell as StdRefCell;

    #[test]
    fn work_folds_into_the_thread_total_when_a_run_returns() {
        let before = Work::on_thread();
        let sim = Sim::new();
        let h = sim.clone();
        sim.spawn("d", async move {
            for _ in 0..3 {
                h.delay(ns(10)).await;
            }
        });
        assert_eq!(Work::on_thread(), before, "counted per simulation");
        sim.run();
        // The first poll and one per delay; nothing parked.
        let w = Work::on_thread().since(before);
        assert_eq!((w.polls, w.skipped), (4, 0));
    }

    #[test]
    fn empty_sim_finishes_at_zero() {
        let sim = Sim::new();
        assert_eq!(sim.run(), 0);
    }

    #[test]
    fn delay_advances_clock() {
        let sim = Sim::new();
        let h = sim.clone();
        let t = Rc::new(Cell::new(0));
        let t2 = t.clone();
        sim.spawn("d", async move {
            h.delay(ns(250)).await;
            t2.set(h.now());
        });
        assert_eq!(sim.run(), ns(250));
        assert_eq!(t.get(), ns(250));
    }

    #[test]
    fn zero_delay_completes_immediately() {
        let sim = Sim::new();
        let h = sim.clone();
        sim.spawn("d", async move {
            h.delay(0).await;
            assert_eq!(h.now(), 0);
        });
        assert_eq!(sim.run(), 0);
        assert_eq!(sim.live_processes(), 0);
    }

    #[test]
    fn sequential_delays_accumulate() {
        let sim = Sim::new();
        let h = sim.clone();
        sim.spawn("d", async move {
            h.delay(ns(10)).await;
            h.delay(ns(20)).await;
            h.delay(ns(30)).await;
            assert_eq!(h.now(), ns(60));
        });
        assert_eq!(sim.run(), ns(60));
    }

    #[test]
    fn processes_interleave_by_timestamp() {
        let sim = Sim::new();
        let order = Rc::new(StdRefCell::new(Vec::new()));
        for (name, d) in [("a", 30u64), ("b", 10), ("c", 20)] {
            let h = sim.clone();
            let ord = order.clone();
            sim.spawn(name, async move {
                h.delay(ns(d)).await;
                ord.borrow_mut().push(name);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec!["b", "c", "a"]);
    }

    #[test]
    fn ties_broken_by_spawn_order() {
        let sim = Sim::new();
        let order = Rc::new(StdRefCell::new(Vec::new()));
        for name in ["x", "y", "z"] {
            let h = sim.clone();
            let ord = order.clone();
            sim.spawn(name, async move {
                h.delay(us(1)).await;
                ord.borrow_mut().push(name);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec!["x", "y", "z"]);
    }

    #[test]
    fn spawn_from_within_process_runs_same_time() {
        let sim = Sim::new();
        let h = sim.clone();
        let hits = Rc::new(Cell::new(0u32));
        let hits2 = hits.clone();
        sim.spawn("parent", async move {
            h.delay(ns(5)).await;
            let hh = h.clone();
            let hits3 = hits2.clone();
            h.spawn("child", async move {
                assert_eq!(hh.now(), ns(5));
                hits3.set(hits3.get() + 1);
            });
        });
        sim.run();
        assert_eq!(hits.get(), 1);
        assert_eq!(sim.live_processes(), 0);
    }

    #[test]
    fn yield_now_lets_peers_run_first() {
        let sim = Sim::new();
        let order = Rc::new(StdRefCell::new(Vec::new()));
        let h = sim.clone();
        let ord = order.clone();
        sim.spawn("first", async move {
            ord.borrow_mut().push("first-before");
            h.yield_now().await;
            ord.borrow_mut().push("first-after");
        });
        let ord = order.clone();
        sim.spawn("second", async move {
            ord.borrow_mut().push("second");
        });
        sim.run();
        assert_eq!(
            *order.borrow(),
            vec!["first-before", "second", "first-after"]
        );
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let sim = Sim::new();
        let h = sim.clone();
        sim.spawn("slow", async move {
            h.delay(us(100)).await;
        });
        let t = sim.run_until(us(10));
        assert_eq!(t, us(10));
        assert_eq!(sim.live_processes(), 1);
        assert_eq!(sim.stuck_processes(), vec!["slow".to_string()]);
        // Resuming finishes the process.
        let t = sim.run();
        assert_eq!(t, us(100));
        assert_eq!(sim.live_processes(), 0);
    }

    #[test]
    fn deterministic_across_runs() {
        fn one_run() -> Vec<(u64, &'static str)> {
            let sim = Sim::new();
            let log = Rc::new(StdRefCell::new(Vec::new()));
            for (name, start, period) in
                [("p1", 3u64, 7u64), ("p2", 1, 5), ("p3", 4, 7), ("p4", 2, 3)]
            {
                let h = sim.clone();
                let log2 = log.clone();
                sim.spawn(name, async move {
                    h.delay(ns(start)).await;
                    for _ in 0..50 {
                        h.delay(ns(period)).await;
                        log2.borrow_mut().push((h.now(), name));
                    }
                });
            }
            sim.run();
            Rc::try_unwrap(log).unwrap().into_inner()
        }
        let a = one_run();
        let b = one_run();
        assert_eq!(a, b);
        assert_eq!(a.len(), 200);
    }

    #[test]
    fn both_queue_kinds_run_the_same_schedule() {
        fn one_run(kind: QueueKind) -> Vec<(u64, &'static str)> {
            let sim = Sim::with_queue(kind);
            assert_eq!(sim.queue_kind(), kind);
            let log = Rc::new(StdRefCell::new(Vec::new()));
            for (name, start, period) in
                [("p1", 3u64, 7u64), ("p2", 1, 5), ("p3", 4, 7), ("p4", 2, 3)]
            {
                let h = sim.clone();
                let log2 = log.clone();
                sim.spawn(name, async move {
                    h.delay(ns(start)).await;
                    for _ in 0..50 {
                        h.delay(ns(period)).await;
                        log2.borrow_mut().push((h.now(), name));
                    }
                });
            }
            sim.run();
            Rc::try_unwrap(log).unwrap().into_inner()
        }
        assert_eq!(one_run(QueueKind::Wheel), one_run(QueueKind::RefHeap));
    }

    #[test]
    fn dropped_delay_cancels_wheel_timer() {
        let sim = Sim::with_queue(QueueKind::Wheel);
        let h = sim.clone();
        sim.spawn("canceller", async move {
            {
                let mut d = h.delay(ns(500));
                // Poll once to schedule the timer, then drop it.
                std::future::poll_fn(|cx| {
                    assert!(Pin::new(&mut d).poll(cx).is_pending());
                    Poll::Ready(())
                })
                .await;
            }
            h.delay(ns(10)).await;
        });
        // The cancelled 500 ns timer must not extend the run.
        assert_eq!(sim.run(), ns(10));
    }
}
