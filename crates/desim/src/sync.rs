//! Synchronization primitives for simulation processes.
//!
//! All primitives wake waiters at the *same simulated instant* the notifying
//! operation happens; any modelled latency must be expressed with
//! [`crate::Sim::delay`] by the processes themselves.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use tc_trace::causal::NodeId;

use crate::executor::{ProcId, Sim};

/// Handle to a slab wait cell (see [`WaitCells`]). Stale once the cell is
/// taken or cancelled — the generation counter moves on with the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WaitToken {
    idx: u32,
    gen: u32,
}

struct WaitCell {
    set: bool,
    gen: u32,
}

/// Slab of one-shot wake flags, owned by the executor.
///
/// The seed allocated an `Rc<Cell<bool>>` per `Signal::wait`; under
/// channel/semaphore churn that is one heap allocation per blocking
/// operation. Cells in this slab are recycled through a free list, and a
/// per-slot generation keeps recycled cells safe: a notifier holding a
/// stale token wakes the process (seed orphan-waiter semantics) but cannot
/// set the recycled cell.
pub(crate) struct WaitCells {
    cells: Vec<WaitCell>,
    free: Vec<u32>,
}

impl WaitCells {
    pub(crate) fn new() -> Self {
        WaitCells {
            cells: Vec::new(),
            free: Vec::new(),
        }
    }

    pub(crate) fn alloc(&mut self) -> WaitToken {
        match self.free.pop() {
            Some(idx) => {
                self.cells[idx as usize].set = false;
                WaitToken {
                    idx,
                    gen: self.cells[idx as usize].gen,
                }
            }
            None => {
                self.cells.push(WaitCell { set: false, gen: 0 });
                WaitToken {
                    idx: (self.cells.len() - 1) as u32,
                    gen: 0,
                }
            }
        }
    }

    /// Set the cell, unless `tok` is stale (its `Wait` was dropped and the
    /// slot may have been recycled).
    pub(crate) fn set(&mut self, tok: WaitToken) {
        let c = &mut self.cells[tok.idx as usize];
        if c.gen == tok.gen {
            c.set = true;
        }
    }

    /// If the cell is set, free it and return true. Only the token's owner
    /// calls this, so a live token can never observe a recycled slot.
    pub(crate) fn take(&mut self, tok: WaitToken) -> bool {
        let c = &mut self.cells[tok.idx as usize];
        debug_assert_eq!(c.gen, tok.gen, "wait cell taken through a stale token");
        if c.gen == tok.gen && c.set {
            c.gen = c.gen.wrapping_add(1);
            self.free.push(tok.idx);
            true
        } else {
            false
        }
    }

    /// Free a cell whose owner is going away without taking it.
    pub(crate) fn cancel(&mut self, tok: WaitToken) {
        let c = &mut self.cells[tok.idx as usize];
        if c.gen == tok.gen {
            c.gen = c.gen.wrapping_add(1);
            self.free.push(tok.idx);
        }
    }
}

struct SignalInner {
    sim: Sim,
    waiters: RefCell<Vec<(ProcId, WaitToken)>>,
}

/// A broadcast/wake signal: processes block on [`Signal::wait`] until another
/// process calls [`Signal::notify_all`] or [`Signal::notify_one`].
///
/// The canonical usage is a condition loop, for which
/// [`Signal::wait_until`] is provided:
///
/// ```
/// # use std::rc::Rc; use std::cell::Cell;
/// # use tc_desim::{Sim, time};
/// let sim = Sim::new();
/// let flag = Rc::new(Cell::new(false));
/// let sig = sim.signal();
/// let (f2, s2, h) = (flag.clone(), sig.clone(), sim.clone());
/// sim.spawn("setter", async move {
///     h.delay(time::ns(100)).await;
///     f2.set(true);
///     s2.notify_all();
/// });
/// let h = sim.clone();
/// sim.spawn("waiter", async move {
///     sig.wait_until(|| flag.get()).await;
///     assert_eq!(h.now(), time::ns(100));
/// });
/// sim.run();
/// ```
#[derive(Clone)]
pub struct Signal {
    inner: Rc<SignalInner>,
}

impl Signal {
    pub(crate) fn new(sim: Sim) -> Self {
        Signal {
            inner: Rc::new(SignalInner {
                sim,
                waiters: RefCell::new(Vec::new()),
            }),
        }
    }

    /// Wake every process currently blocked in [`Signal::wait`]. All
    /// waiters are flagged and queued under one executor borrow, in FIFO
    /// order.
    pub fn notify_all(&self) {
        let mut ws = self.inner.waiters.borrow_mut();
        if ws.is_empty() {
            return;
        }
        self.inner.sim.wake_waiters(&mut ws);
    }

    /// Wake the longest-waiting blocked process, if any.
    pub fn notify_one(&self) {
        let w = {
            let mut ws = self.inner.waiters.borrow_mut();
            if ws.is_empty() {
                None
            } else {
                Some(ws.remove(0))
            }
        };
        if let Some((pid, tok)) = w {
            self.inner.sim.wake_one(pid, tok);
        }
    }

    /// Number of processes currently blocked on this signal.
    pub fn waiter_count(&self) -> usize {
        self.inner.waiters.borrow().len()
    }

    /// Block until the next notification.
    pub fn wait(&self) -> Wait {
        Wait {
            signal: self.clone(),
            token: None,
        }
    }

    /// Block until `pred()` is true, re-checking after every notification.
    ///
    /// `pred` is checked before first waiting, so a condition that is already
    /// satisfied never blocks.
    pub async fn wait_until(&self, mut pred: impl FnMut() -> bool) {
        while !pred() {
            self.wait().await;
        }
    }
}

/// Future returned by [`Signal::wait`]. The wake flag is a recycled slab
/// cell in the executor, not a fresh allocation per wait.
pub struct Wait {
    signal: Signal,
    token: Option<WaitToken>,
}

impl Future for Wait {
    type Output = ();

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        match this.token {
            None => {
                let sim = &this.signal.inner.sim;
                let pid = sim.current_proc();
                let tok = sim.wait_alloc();
                this.signal.inner.waiters.borrow_mut().push((pid, tok));
                this.token = Some(tok);
                Poll::Pending
            }
            Some(tok) => {
                if this.signal.inner.sim.wait_take(tok) {
                    this.token = None;
                    Poll::Ready(())
                } else {
                    Poll::Pending
                }
            }
        }
    }
}

impl Drop for Wait {
    fn drop(&mut self) {
        // A never-completed wait frees its cell; its entry on the waiter
        // list (if still there) becomes a stale token, which wakes the
        // process without touching the recycled cell — the same observable
        // behaviour as the seed's orphaned `Rc<Cell<bool>>` waiters.
        if let Some(tok) = self.token.take() {
            self.signal.inner.sim.wait_cancel(tok);
        }
    }
}

struct ChanInner<T> {
    capacity: usize,
    queue: RefCell<VecDeque<T>>,
    changed: Signal,
    closed: Cell<bool>,
    /// Causal node of each queued item's sender, parallel to `queue`.
    /// Only populated while causal recording is on; items enqueued before
    /// recording was enabled carry no entry, so enable causal recording
    /// before traffic starts for complete channel edges.
    senders: RefCell<VecDeque<Option<NodeId>>>,
}

/// A FIFO channel between simulation processes.
///
/// `capacity == 0` means unbounded. A bounded channel back-pressures
/// senders, which is how hardware queues (e.g. NIC work queues) exert flow
/// control in the models built on top of this crate.
pub struct Channel<T> {
    inner: Rc<ChanInner<T>>,
}

impl<T> Clone for Channel<T> {
    fn clone(&self) -> Self {
        Channel {
            inner: self.inner.clone(),
        }
    }
}

impl<T> Channel<T> {
    /// Create a channel; `capacity == 0` for unbounded.
    pub fn new(sim: &Sim, capacity: usize) -> Self {
        Channel {
            inner: Rc::new(ChanInner {
                capacity,
                queue: RefCell::new(VecDeque::new()),
                changed: sim.signal(),
                closed: Cell::new(false),
                senders: RefCell::new(VecDeque::new()),
            }),
        }
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.inner.queue.borrow().len()
    }

    /// True if no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Close the channel: further `send`s panic, `recv` drains then yields
    /// `None`.
    pub fn close(&self) {
        self.inner.closed.set(true);
        self.inner.changed.notify_all();
    }

    /// Attempt to enqueue without blocking. Returns the value back if the
    /// channel is bounded and full.
    pub fn try_send(&self, v: T) -> Result<(), T> {
        assert!(!self.inner.closed.get(), "send on closed channel");
        let mut q = self.inner.queue.borrow_mut();
        if self.inner.capacity != 0 && q.len() >= self.inner.capacity {
            return Err(v);
        }
        q.push_back(v);
        drop(q);
        let causal = self.inner.changed.inner.sim.causal();
        if causal.on() {
            self.inner.senders.borrow_mut().push_back(causal.current());
        }
        self.inner.changed.notify_all();
        Ok(())
    }

    /// Enqueue, blocking while a bounded channel is full.
    pub async fn send(&self, mut v: T) {
        loop {
            match self.try_send(v) {
                Ok(()) => return,
                Err(back) => {
                    v = back;
                    self.inner.changed.wait().await;
                }
            }
        }
    }

    /// Attempt to dequeue without blocking.
    pub fn try_recv(&self) -> Option<T> {
        let v = self.inner.queue.borrow_mut().pop_front();
        if v.is_some() {
            let causal = self.inner.changed.inner.sim.causal();
            if causal.on() {
                if let Some(sender) = self.inner.senders.borrow_mut().pop_front().flatten() {
                    causal.chan_edge(sender);
                }
            }
            self.inner.changed.notify_all();
        }
        v
    }

    /// Dequeue, blocking while empty. Yields `None` once the channel is
    /// closed and drained.
    pub async fn recv(&self) -> Option<T> {
        loop {
            if let Some(v) = self.try_recv() {
                return Some(v);
            }
            if self.inner.closed.get() {
                return None;
            }
            self.inner.changed.wait().await;
        }
    }
}

struct SemInner {
    permits: Cell<usize>,
    released: Signal,
}

/// A set-once flag, named for hang reports: processes test it, and the
/// first [`Flag::set`] runs the watchers registered on it (a spinner that
/// spin fast-forward parked on it resumes, see [`crate::ffwd`]). It never
/// clears.
#[derive(Clone)]
pub struct Flag(Rc<FlagInner>);

/// A watcher of a [`Flag`]: its id and what it runs.
type FlagWatcher = (u64, Rc<dyn Fn()>);

struct FlagInner {
    name: String,
    set: Cell<bool>,
    next: Cell<u64>,
    watchers: RefCell<Vec<FlagWatcher>>,
}

impl Flag {
    /// An unset flag called `name`.
    pub fn new(name: &str) -> Self {
        Flag(Rc::new(FlagInner {
            name: name.to_string(),
            set: Cell::new(false),
            next: Cell::new(0),
            watchers: RefCell::new(Vec::new()),
        }))
    }

    /// Whether the flag is set.
    pub fn is_set(&self) -> bool {
        self.0.set.get()
    }

    /// Set the flag. The first call runs every watcher once, in the order
    /// they were registered, and drops them.
    pub fn set(&self) {
        if !self.0.set.replace(true) {
            for (_, f) in self.0.watchers.take() {
                f();
            }
        }
    }

    /// Run `f` when the flag is set; returns the id [`Flag::unwatch`]
    /// takes.
    pub fn watch(&self, f: Rc<dyn Fn()>) -> u64 {
        let id = self.0.next.replace(self.0.next.get() + 1);
        self.0.watchers.borrow_mut().push((id, f));
        id
    }

    /// Drop watcher `id`, if it has not run.
    pub fn unwatch(&self, id: u64) {
        self.0.watchers.borrow_mut().retain(|w| w.0 != id);
    }
}

impl std::fmt::Debug for Flag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = if self.is_set() { "set" } else { "unset" };
        write!(f, "{}={state}", self.0.name)
    }
}

/// A counting semaphore, used to model finite hardware resources
/// (e.g. outstanding PCIe read requests).
#[derive(Clone)]
pub struct Semaphore {
    inner: Rc<SemInner>,
}

impl Semaphore {
    /// Create a semaphore holding `permits` permits.
    pub fn new(sim: &Sim, permits: usize) -> Self {
        Semaphore {
            inner: Rc::new(SemInner {
                permits: Cell::new(permits),
                released: sim.signal(),
            }),
        }
    }

    /// Currently available permits.
    pub fn available(&self) -> usize {
        self.inner.permits.get()
    }

    /// Take one permit, blocking until one is available.
    pub async fn acquire(&self) {
        loop {
            let p = self.inner.permits.get();
            if p > 0 {
                self.inner.permits.set(p - 1);
                return;
            }
            self.inner.released.wait().await;
        }
    }

    /// Return one permit.
    pub fn release(&self) {
        self.inner.permits.set(self.inner.permits.get() + 1);
        self.inner.released.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::ns;
    use std::rc::Rc;

    #[test]
    fn signal_wakes_all_waiters_at_notify_time() {
        let sim = Sim::new();
        let sig = sim.signal();
        let done = Rc::new(Cell::new(0u32));
        for i in 0..3 {
            let s = sig.clone();
            let h = sim.clone();
            let d = done.clone();
            sim.spawn(&format!("w{i}"), async move {
                s.wait().await;
                assert_eq!(h.now(), ns(42));
                d.set(d.get() + 1);
            });
        }
        let s = sig.clone();
        let h = sim.clone();
        sim.spawn("notifier", async move {
            h.delay(ns(42)).await;
            assert_eq!(s.waiter_count(), 3);
            s.notify_all();
        });
        sim.run();
        assert_eq!(done.get(), 3);
    }

    #[test]
    fn notify_one_wakes_fifo() {
        let sim = Sim::new();
        let sig = sim.signal();
        let order = Rc::new(RefCell::new(Vec::new()));
        for name in ["a", "b"] {
            let s = sig.clone();
            let o = order.clone();
            sim.spawn(name, async move {
                s.wait().await;
                o.borrow_mut().push(name);
            });
        }
        let s = sig.clone();
        let h = sim.clone();
        sim.spawn("n", async move {
            h.delay(ns(1)).await;
            s.notify_one();
            h.delay(ns(1)).await;
            s.notify_one();
        });
        sim.run();
        assert_eq!(*order.borrow(), vec!["a", "b"]);
    }

    #[test]
    fn wait_until_does_not_block_when_already_true() {
        let sim = Sim::new();
        let sig = sim.signal();
        let h = sim.clone();
        sim.spawn("p", async move {
            sig.wait_until(|| true).await;
            assert_eq!(h.now(), 0);
        });
        assert_eq!(sim.run(), 0);
        assert_eq!(sim.live_processes(), 0);
    }

    #[test]
    fn bounded_channel_backpressures_sender() {
        let sim = Sim::new();
        let ch: Channel<u32> = Channel::new(&sim, 2);
        let c = ch.clone();
        let h = sim.clone();
        let sent_at = Rc::new(RefCell::new(Vec::new()));
        let sa = sent_at.clone();
        sim.spawn("producer", async move {
            for i in 0..4 {
                c.send(i).await;
                sa.borrow_mut().push((i, h.now()));
            }
        });
        let c = ch.clone();
        let h = sim.clone();
        sim.spawn("consumer", async move {
            for _ in 0..4 {
                h.delay(ns(100)).await;
                let _ = c.recv().await;
            }
        });
        sim.run();
        let sent = sent_at.borrow();
        // First two fit in capacity at t=0; the rest wait for pops.
        assert_eq!(sent[0], (0, 0));
        assert_eq!(sent[1], (1, 0));
        assert_eq!(sent[2].1, ns(100));
        assert_eq!(sent[3].1, ns(200));
    }

    #[test]
    fn channel_close_drains_then_none() {
        let sim = Sim::new();
        let ch: Channel<u8> = Channel::new(&sim, 0);
        ch.try_send(7).unwrap();
        ch.close();
        let c = ch.clone();
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        sim.spawn("drain", async move {
            while let Some(v) = c.recv().await {
                g.borrow_mut().push(v);
            }
        });
        sim.run();
        assert_eq!(*got.borrow(), vec![7]);
        assert_eq!(sim.live_processes(), 0);
    }

    #[test]
    fn unbounded_channel_never_blocks_sender() {
        let sim = Sim::new();
        let ch: Channel<usize> = Channel::new(&sim, 0);
        let c = ch.clone();
        sim.spawn("p", async move {
            for i in 0..1000 {
                c.send(i).await;
            }
        });
        sim.run();
        assert_eq!(ch.len(), 1000);
    }

    #[test]
    fn semaphore_limits_concurrency() {
        let sim = Sim::new();
        let sem = Semaphore::new(&sim, 2);
        let active = Rc::new(Cell::new(0u32));
        let peak = Rc::new(Cell::new(0u32));
        for i in 0..8 {
            let s = sem.clone();
            let h = sim.clone();
            let a = active.clone();
            let p = peak.clone();
            sim.spawn(&format!("t{i}"), async move {
                s.acquire().await;
                a.set(a.get() + 1);
                p.set(p.get().max(a.get()));
                h.delay(ns(50)).await;
                a.set(a.get() - 1);
                s.release();
            });
        }
        sim.run();
        assert_eq!(peak.get(), 2);
        assert_eq!(sem.available(), 2);
    }

    #[test]
    fn a_flag_runs_its_watchers_once_when_first_set() {
        let flag = Flag::new("done");
        let runs = Rc::new(RefCell::new(Vec::new()));
        let ids: Vec<u64> = (0..3)
            .map(|i| {
                let r = runs.clone();
                flag.watch(Rc::new(move || r.borrow_mut().push(i)))
            })
            .collect();
        flag.unwatch(ids[1]);
        assert_eq!(format!("{flag:?}"), "done=unset");
        flag.set();
        flag.set();
        assert!(flag.is_set() && flag.clone().is_set());
        assert_eq!(*runs.borrow(), [0, 2]);
        assert_eq!(format!("{flag:?}"), "done=set");
    }
}
