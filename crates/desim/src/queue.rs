//! Timer event queues: the production hierarchical timing wheel and the
//! binary-heap golden reference.
//!
//! Both implementations pop timers in exactly the same order — ascending
//! `(at, seq)`, where `seq` is the global schedule sequence number that
//! breaks timestamp ties — so a simulation produces bit-identical schedules
//! on either. The heap is the seed implementation kept verbatim
//! (`Rc<HeapTimer>` per timer pushed into a `BinaryHeap`) as the golden
//! reference for equivalence tests and as the baseline the
//! `BENCH_desim.json` trajectory measures against; the wheel is the
//! allocation-free hot path:
//!
//! * **Slab timers.** Timer state lives in a flat `Vec<TimerSlot>` with a
//!   free list. A fired or cancelled slot is reused by the next `delay()`,
//!   so steady-state timer churn allocates nothing. Handles are
//!   `TimerId { idx, gen }`; the generation counter is bumped on free, so a
//!   stale handle can never observe a recycled slot.
//! * **Hierarchical wheel.** 11 levels of 64 slots; a slot at level `L`
//!   spans `64^L` picoseconds, so the levels together cover all of `u64`
//!   time. A timer is filed at the level of the highest bit in which its
//!   deadline differs from the wheel's `elapsed` cursor (`level_for`).
//!   The earliest occupied slot always holds the globally minimum
//!   deadline, so firing scans that one slot for the minimum, drains the
//!   entries due exactly then (sorted by `seq`, which is what makes the
//!   pop order identical to the heap's), and re-files the rest at
//!   strictly lower levels — a sparse queue fires with no re-links at
//!   all, instead of cascading level by level.
//! * **Deadline-bounded peeking.** [`Wheel::next_at`] takes a `limit`: it
//!   never advances `elapsed` past it, so the wheel's invariant
//!   (`insert.at > elapsed`) stays intact when a paused simulation
//!   resumes and schedules timers earlier than an already-peeked
//!   far-future deadline. That is precisely the contract `Sim::run_until`
//!   needs.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use crate::executor::Task;
use crate::time::Time;

/// Which event-queue implementation a [`crate::Sim`] uses.
///
/// [`QueueKind::Wheel`] is the production queue. [`QueueKind::RefHeap`] is
/// the seed binary-heap implementation, kept as the golden reference:
/// `crates/desim/tests/queue_equivalence.rs` drives randomized schedules
/// through both and asserts identical execution logs, and the
/// `--bench-desim` suite reports the wheel's speedup over it. Select it
/// with [`crate::Sim::with_queue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// Slab-backed hierarchical timing wheel (default).
    #[default]
    Wheel,
    /// Seed-faithful `BinaryHeap` of `Rc` timers (golden reference).
    RefHeap,
}

const LEVEL_BITS: u32 = 6;
const SLOTS: usize = 1 << LEVEL_BITS;
const SLOT_MASK: u64 = SLOTS as u64 - 1;
/// ceil(64 / 6) levels cover every `u64` deadline.
const LEVELS: usize = 11;

const NONE: u32 = u32::MAX;
/// `TimerSlot::level` value for a slot on the free list.
const LEVEL_FREE: u8 = 0xFF;
/// `TimerSlot::level` value for a slot in the due-now fire buffer.
const LEVEL_BUFFER: u8 = 0xFE;

/// Handle to a pending slab timer. Stale after the timer fires or is
/// cancelled (the slot's generation moves on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TimerId {
    idx: u32,
    gen: u32,
}

/// Seed-style shared timer state for the reference heap.
pub(crate) struct HeapTimer {
    pub(crate) fired: Cell<bool>,
    pub(crate) waiter: Cell<Option<Task>>,
}

/// What a `Delay` future holds, per queue implementation.
pub(crate) enum TimerRef {
    /// Slab handle (wheel).
    Wheel(TimerId),
    /// Shared state (reference heap) — seed semantics, never cancelled.
    Heap(Rc<HeapTimer>),
}

struct TimerSlot {
    at: Time,
    seq: u64,
    waiter: Task,
    gen: u32,
    /// Next slab index in this wheel slot's list, or in the free list.
    next: u32,
    /// Wheel level, or `LEVEL_FREE` / `LEVEL_BUFFER`.
    level: u8,
}

#[derive(Clone, Copy)]
struct Level {
    /// Bit `s` set ⇔ `heads[s]` is non-empty.
    occupied: u64,
    heads: [u32; SLOTS],
}

const EMPTY_LEVEL: Level = Level {
    occupied: 0,
    heads: [NONE; SLOTS],
};

/// Level of the highest bit in which `at` differs from `elapsed`. Both the
/// insert and the cancel path derive a timer's (level, slot) from this, so
/// they always agree on where a timer is filed.
#[inline]
fn level_for(elapsed: Time, at: Time) -> usize {
    let diff = elapsed ^ at;
    debug_assert!(diff != 0, "timer scheduled at the wheel cursor");
    ((63 - diff.leading_zeros()) / LEVEL_BITS) as usize
}

#[inline]
fn slot_index(at: Time, level: usize) -> usize {
    ((at >> (level as u32 * LEVEL_BITS)) & SLOT_MASK) as usize
}

pub(crate) struct Wheel {
    /// Wheel cursor: every pending timer is strictly later than this.
    elapsed: Time,
    /// Bit `L` set ⇔ `levels[L].occupied != 0`; `trailing_zeros` finds the
    /// lowest occupied level without scanning the empty ones.
    level_occupied: u32,
    levels: Box<[Level; LEVELS]>,
    slab: Vec<TimerSlot>,
    free: Vec<u32>,
    len: usize,
    /// Timers due at `buf_at`, sorted by `seq`, consumed from `buf_pos`.
    buf: Vec<u32>,
    buf_pos: usize,
    buf_at: Time,
}

impl Wheel {
    fn new() -> Self {
        Wheel {
            elapsed: 0,
            level_occupied: 0,
            levels: Box::new([EMPTY_LEVEL; LEVELS]),
            slab: Vec::new(),
            free: Vec::new(),
            len: 0,
            buf: Vec::new(),
            buf_pos: 0,
            buf_at: 0,
        }
    }

    fn insert(&mut self, at: Time, seq: u64, waiter: Task) -> TimerId {
        debug_assert!(
            at >= self.elapsed,
            "timer at {at} before wheel cursor {}",
            self.elapsed
        );
        let idx = match self.free.pop() {
            Some(i) => {
                let s = &mut self.slab[i as usize];
                s.at = at;
                s.seq = seq;
                s.waiter = waiter;
                i
            }
            None => {
                self.slab.push(TimerSlot {
                    at,
                    seq,
                    waiter,
                    gen: 0,
                    next: NONE,
                    level: LEVEL_FREE,
                });
                (self.slab.len() - 1) as u32
            }
        };
        if at == self.elapsed {
            // Due at the cursor: only a resumed parked process's timer
            // joins the instant being fired, slotted in by `seq`.
            self.slab[idx as usize].level = LEVEL_BUFFER;
            let Wheel {
                buf, slab, buf_pos, ..
            } = self;
            let pos = *buf_pos + buf[*buf_pos..].partition_point(|&i| slab[i as usize].seq < seq);
            buf.insert(pos, idx);
            self.buf_at = at;
        } else {
            self.link(idx, at);
        }
        self.len += 1;
        TimerId {
            idx,
            gen: self.slab[idx as usize].gen,
        }
    }

    fn link(&mut self, idx: u32, at: Time) {
        let level = level_for(self.elapsed, at);
        let slot = slot_index(at, level);
        let lv = &mut self.levels[level];
        let s = &mut self.slab[idx as usize];
        s.level = level as u8;
        s.next = lv.heads[slot];
        lv.heads[slot] = idx;
        lv.occupied |= 1 << slot;
        self.level_occupied |= 1 << level;
    }

    /// The earliest (level, slot, slot-start-time) holding a pending timer.
    /// Lower levels always expire first, so the bottom-up scan is global.
    fn next_expiration(&self) -> Option<(usize, usize, Time)> {
        if self.level_occupied == 0 {
            return None;
        }
        let level = self.level_occupied.trailing_zeros() as usize;
        let lv = &self.levels[level];
        let shift = level as u32 * LEVEL_BITS;
        let cursor = ((self.elapsed >> shift) & SLOT_MASK) as u32;
        let rotated = lv.occupied.rotate_right(cursor);
        let slot = ((cursor as u64 + rotated.trailing_zeros() as u64) & SLOT_MASK) as usize;
        let level_mask = if shift + LEVEL_BITS >= 64 {
            u64::MAX
        } else {
            (1u64 << (shift + LEVEL_BITS)) - 1
        };
        let deadline = (self.elapsed & !level_mask) + (slot as u64) * (1u64 << shift);
        debug_assert!(
            deadline >= self.elapsed,
            "wheel slot wrapped: deadline {deadline} < elapsed {}",
            self.elapsed
        );
        Some((level, slot, deadline))
    }

    fn take_list(&mut self, level: usize, slot: usize) -> u32 {
        let lv = &mut self.levels[level];
        let head = lv.heads[slot];
        lv.heads[slot] = NONE;
        lv.occupied &= !(1 << slot);
        if lv.occupied == 0 {
            self.level_occupied &= !(1 << level);
        }
        head
    }

    /// Earliest pending deadline, never advancing the cursor past `limit`.
    ///
    /// The earliest occupied slot (see [`Wheel::next_expiration`]) holds
    /// the globally minimum deadline: lower levels expire strictly earlier
    /// than higher ones, and later slots at the same level start after
    /// this slot's whole window ends. So one read-only scan of that slot
    /// finds the exact next deadline; if it is within `limit`, the due
    /// entries move to the fire buffer and the remainder re-file — every
    /// entry in one slot shares all bits at and above the slot's level
    /// with the cursor, so each re-filed entry lands at a *strictly lower*
    /// level. A single pending timer therefore fires with zero re-links,
    /// no matter how many levels up it was filed.
    fn next_at(&mut self, limit: Time) -> Option<Time> {
        if self.buf_pos < self.buf.len() {
            return Some(self.buf_at);
        }
        if self.len == 0 {
            return None;
        }
        let (level, slot, deadline) = self
            .next_expiration()
            .expect("len > 0 but no occupied wheel slot");
        let mut min_at = Time::MAX;
        let mut cur = self.levels[level].heads[slot];
        while cur != NONE {
            let s = &self.slab[cur as usize];
            min_at = min_at.min(s.at);
            cur = s.next;
        }
        debug_assert!(min_at >= deadline, "slot entry earlier than its window");
        if min_at > limit {
            // Exact, but the cursor must not pass `limit`: leave the slot
            // untouched so earlier timers can still be inserted.
            return Some(min_at);
        }
        self.elapsed = min_at;
        self.buf.clear();
        self.buf_pos = 0;
        let mut head = self.take_list(level, slot);
        while head != NONE {
            let next = self.slab[head as usize].next;
            let at = self.slab[head as usize].at;
            if at == min_at {
                self.slab[head as usize].level = LEVEL_BUFFER;
                self.buf.push(head);
            } else {
                self.link(head, at);
            }
            head = next;
        }
        if self.buf.len() > 1 {
            let Wheel { buf, slab, .. } = self;
            buf.sort_unstable_by_key(|&i| slab[i as usize].seq);
        }
        self.buf_at = min_at;
        Some(min_at)
    }

    /// Fire the next timer: frees its slot and returns `(deadline, waiter)`.
    fn pop(&mut self) -> Option<(Time, Task)> {
        if self.buf_pos >= self.buf.len() {
            self.next_at(Time::MAX)?;
        }
        let idx = self.buf[self.buf_pos];
        self.buf_pos += 1;
        let s = &mut self.slab[idx as usize];
        debug_assert_eq!(s.level, LEVEL_BUFFER);
        let fired = (s.at, s.waiter);
        s.gen = s.gen.wrapping_add(1);
        s.level = LEVEL_FREE;
        self.free.push(idx);
        self.len -= 1;
        Some(fired)
    }

    /// Remove a pending timer (no-op on a stale handle) and free its slot.
    fn cancel(&mut self, id: TimerId) {
        let s = &self.slab[id.idx as usize];
        if s.gen != id.gen || s.level == LEVEL_FREE {
            return;
        }
        match s.level {
            LEVEL_BUFFER => {
                let pos = self.buf[self.buf_pos..]
                    .iter()
                    .position(|&i| i == id.idx)
                    .expect("buffered timer missing from fire buffer");
                self.buf.remove(self.buf_pos + pos);
            }
            level => {
                let slot = slot_index(s.at, level as usize);
                let lv = &mut self.levels[level as usize];
                // Unlink from the (short) singly-linked slot list.
                let mut cur = lv.heads[slot];
                let mut prev = NONE;
                while cur != id.idx {
                    debug_assert!(cur != NONE, "pending timer missing from its wheel slot");
                    prev = cur;
                    cur = self.slab[cur as usize].next;
                }
                let next = self.slab[cur as usize].next;
                if prev == NONE {
                    lv.heads[slot] = next;
                } else {
                    self.slab[prev as usize].next = next;
                }
                if lv.heads[slot] == NONE {
                    lv.occupied &= !(1 << slot);
                    if lv.occupied == 0 {
                        self.level_occupied &= !(1 << level);
                    }
                }
            }
        }
        let s = &mut self.slab[id.idx as usize];
        s.gen = s.gen.wrapping_add(1);
        s.level = LEVEL_FREE;
        self.free.push(id.idx);
        self.len -= 1;
    }

    fn is_pending(&self, id: TimerId) -> bool {
        self.slab[id.idx as usize].gen == id.gen
    }
}

// ---------------------------------------------------------------------------
// Reference heap — the seed implementation, verbatim semantics.

struct HeapEv {
    at: Time,
    seq: u64,
    timer: Rc<HeapTimer>,
}

impl PartialEq for HeapEv {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for HeapEv {}
impl PartialOrd for HeapEv {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEv {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

pub(crate) struct RefHeap {
    queue: BinaryHeap<Reverse<HeapEv>>,
}

// ---------------------------------------------------------------------------
// The unified front the executor talks to.

enum Imp {
    Wheel(Wheel),
    Heap(RefHeap),
}

/// The executor-facing timer queue: either implementation behind one API,
/// with the shared schedule sequence counter that breaks timestamp ties.
pub(crate) struct TimerQueue {
    seq: u64,
    imp: Imp,
}

impl TimerQueue {
    pub(crate) fn new(kind: QueueKind) -> Self {
        TimerQueue {
            seq: 0,
            imp: match kind {
                QueueKind::Wheel => Imp::Wheel(Wheel::new()),
                QueueKind::RefHeap => Imp::Heap(RefHeap {
                    queue: BinaryHeap::new(),
                }),
            },
        }
    }

    pub(crate) fn kind(&self) -> QueueKind {
        match self.imp {
            Imp::Wheel(_) => QueueKind::Wheel,
            Imp::Heap(_) => QueueKind::RefHeap,
        }
    }

    pub(crate) fn schedule(&mut self, at: Time, waiter: Task) -> TimerRef {
        let seq = self.take_seqs(1);
        self.schedule_seq(at, waiter, seq)
    }

    /// The sequence number the next timer gets.
    pub(crate) fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Consume `n` schedule sequence numbers (for timers a parked process
    /// skipped); returns the first.
    pub(crate) fn take_seqs(&mut self, n: u64) -> u64 {
        let seq = self.seq;
        self.seq += n;
        seq
    }

    /// The sequence number of the timer [`Self::pop`] fires next (which
    /// [`Self::next_at`] must have reported as due).
    pub(crate) fn peek_seq(&self) -> u64 {
        match &self.imp {
            Imp::Wheel(w) => w.slab[w.buf[w.buf_pos] as usize].seq,
            Imp::Heap(h) => h.queue.peek().expect("a due timer").0.seq,
        }
    }

    /// Schedule a timer under a sequence number taken earlier (a resumed
    /// parked process's pending step, possibly due at the current instant).
    pub(crate) fn schedule_seq(&mut self, at: Time, waiter: Task, seq: u64) -> TimerRef {
        match &mut self.imp {
            Imp::Wheel(w) => TimerRef::Wheel(w.insert(at, seq, waiter)),
            Imp::Heap(h) => {
                let timer = Rc::new(HeapTimer {
                    fired: Cell::new(false),
                    waiter: Cell::new(Some(waiter)),
                });
                h.queue.push(Reverse(HeapEv {
                    at,
                    seq,
                    timer: timer.clone(),
                }));
                TimerRef::Heap(timer)
            }
        }
    }

    /// Earliest pending deadline; see [`Wheel::next_at`] for the `limit`
    /// contract (the heap always reports the exact deadline).
    pub(crate) fn next_at(&mut self, limit: Time) -> Option<Time> {
        match &mut self.imp {
            Imp::Wheel(w) => w.next_at(limit),
            Imp::Heap(h) => h.queue.peek().map(|Reverse(ev)| ev.at),
        }
    }

    /// Fire the next timer (which [`Self::next_at`] must have reported as
    /// due). Returns its deadline and the process to wake or delivery to
    /// fire, if any.
    pub(crate) fn pop(&mut self) -> Option<(Time, Option<Task>)> {
        match &mut self.imp {
            Imp::Wheel(w) => w.pop().map(|(at, pid)| (at, Some(pid))),
            Imp::Heap(h) => h.queue.pop().map(|Reverse(ev)| {
                ev.timer.fired.set(true);
                (ev.at, ev.timer.waiter.take())
            }),
        }
    }

    /// Cancel a pending wheel timer (freeing its slot for reuse). The
    /// reference heap mirrors the seed and lets abandoned timers fire into
    /// the void instead.
    pub(crate) fn cancel(&mut self, id: TimerId) {
        if let Imp::Wheel(w) = &mut self.imp {
            w.cancel(id);
        }
    }

    pub(crate) fn is_pending(&self, id: TimerId) -> bool {
        match &self.imp {
            Imp::Wheel(w) => w.is_pending(id),
            Imp::Heap(_) => unreachable!("slab TimerId used with the reference heap"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ProcId;

    const fn p(i: usize) -> Task {
        Task::Proc(ProcId(i as u32))
    }

    fn wheel() -> Wheel {
        Wheel::new()
    }

    fn drain(w: &mut Wheel) -> Vec<(Time, Task)> {
        let mut out = Vec::new();
        while let Some(x) = w.pop() {
            out.push(x);
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = wheel();
        w.insert(500, 0, p(0));
        w.insert(10, 1, p(1));
        w.insert(500, 2, p(2));
        w.insert(64, 3, p(3));
        let order = drain(&mut w);
        assert_eq!(
            order,
            vec![(10, p(1)), (64, p(3)), (500, p(0)), (500, p(2))]
        );
    }

    #[test]
    fn same_instant_fires_in_seq_order_after_cascade() {
        let mut w = wheel();
        // All land in the same high-level slot, inserted out of seq order
        // relative to the slot list (push-front reverses it).
        for seq in 0..10u64 {
            w.insert(1 << 20, seq, p(seq as usize));
        }
        let order = drain(&mut w);
        let woken: Vec<Task> = order.iter().map(|&(_, t)| t).collect();
        assert_eq!(woken, (0..10).map(p).collect::<Vec<_>>());
    }

    #[test]
    fn cascade_boundaries_are_exact() {
        // Deadlines straddling every level boundary pop in order.
        let mut w = wheel();
        let ats = [
            63u64,
            64,
            65,
            4095,
            4096,
            4097,
            (1 << 18) - 1,
            1 << 18,
            (1 << 24) + 7,
            (1 << 30) + 1,
            (1 << 36) + 12345,
            (1 << 42) + 1,
            (1 << 60) + 3,
        ];
        for (i, &at) in ats.iter().enumerate() {
            w.insert(at, i as u64, p(i));
        }
        let popped: Vec<Time> = drain(&mut w).into_iter().map(|(t, _)| t).collect();
        let mut want = ats.to_vec();
        want.sort_unstable();
        assert_eq!(popped, want);
    }

    #[test]
    fn next_at_respects_limit_without_advancing() {
        let mut w = wheel();
        w.insert(10_000, 0, p(0));
        // Peeking with a small limit returns a bound > limit and must not
        // advance the cursor, so an earlier insert afterwards still works.
        let bound = w.next_at(100).unwrap();
        assert!(bound > 100);
        w.insert(150, 1, p(1));
        assert_eq!(w.next_at(Time::MAX), Some(150));
        assert_eq!(drain(&mut w), vec![(150, p(1)), (10_000, p(0))]);
    }

    #[test]
    fn resume_after_deadline_keeps_order() {
        // The run_until(resume) pattern: peek far, then schedule near.
        let mut w = wheel();
        w.insert(1 << 30, 0, p(0));
        assert!(w.next_at(1000).unwrap() > 1000);
        w.insert(2000, 1, p(1));
        w.insert(1500, 2, p(2));
        let order = drain(&mut w);
        assert_eq!(order, vec![(1500, p(2)), (2000, p(1)), (1 << 30, p(0))]);
    }

    #[test]
    fn slots_are_reused_and_generations_protect_handles() {
        let mut w = wheel();
        let a = w.insert(5, 0, p(0));
        assert!(w.is_pending(a));
        assert_eq!(w.pop(), Some((5, p(0))));
        assert!(!w.is_pending(a), "fired handle must be stale");
        let b = w.insert(9, 1, p(1));
        assert_eq!(a.idx, b.idx, "slot must be reused");
        assert_ne!(a.gen, b.gen);
        assert!(w.is_pending(b));
        assert!(!w.is_pending(a));
    }

    #[test]
    fn cancel_unlinks_pending_and_buffered_timers() {
        let mut w = wheel();
        let a = w.insert(100, 0, p(0));
        let b = w.insert(100, 1, p(1));
        let c = w.insert(100, 2, p(2));
        w.cancel(b);
        assert_eq!(w.len, 2);
        // Fill the fire buffer, then cancel a buffered entry.
        assert_eq!(w.next_at(Time::MAX), Some(100));
        w.cancel(c);
        assert_eq!(drain(&mut w), vec![(100, p(0))]);
        // Cancelling stale handles is a no-op.
        w.cancel(a);
        w.cancel(b);
        assert_eq!(w.len, 0);
    }

    #[test]
    fn queue_kinds_agree_on_order() {
        let mut wq = TimerQueue::new(QueueKind::Wheel);
        let mut hq = TimerQueue::new(QueueKind::RefHeap);
        let ats = [7u64, 3, 3, 900, 64, 4096, 64, 1 << 40, 12];
        for (i, &at) in ats.iter().enumerate() {
            wq.schedule(at, p(i));
            hq.schedule(at, p(i));
        }
        loop {
            let a = wq.pop();
            let b = hq.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn a_timer_due_at_the_cursor_joins_the_fire_buffer_by_seq() {
        let mut q = TimerQueue::new(QueueKind::Wheel);
        q.schedule(100, p(0));
        let skipped = q.take_seqs(1);
        q.schedule(100, p(2));
        assert_eq!(q.next_at(Time::MAX), Some(100));
        assert_eq!(q.peek_seq(), 0);
        assert_eq!(q.pop(), Some((100, Some(p(0)))));
        q.schedule_seq(100, p(1), skipped);
        assert_eq!(q.peek_seq(), skipped);
        assert_eq!(q.pop(), Some((100, Some(p(1)))));
        assert_eq!(q.pop(), Some((100, Some(p(2)))));
    }

    #[test]
    fn default_kind_is_the_wheel() {
        assert_eq!(QueueKind::default(), QueueKind::Wheel);
    }
}
