//! Spin-wait fast-forward: processes that park instead of polling.
//!
//! A process spinning on memory that nothing writes repeats the same
//! steps, each ending in a timer, until something changes. It can *park*
//! instead ([`crate::Sim::park`]): it keeps no timer in the queue, the
//! executor runs its skipped steps from their schedule, and its hardware
//! model implements [`Skipped`] to charge them analytically. The steps
//! run in exactly the plain loop's order:
//!
//! * Each skipped step stands for a timer the plain loop would have
//!   inserted, so it takes that timer's place in the schedule: the next
//!   global sequence number at its insertion. The run loop merges pending
//!   skipped steps with the timer queue by `(at, seq)`, the queue's own
//!   order, so every equal-instant tie falls the plain loop's way.
//! * The executor owns each parked process's schedule, read once at park
//!   time ([`Skipped::schedule`]): a period and the offsets of the steps
//!   within it. Steps with no real event between them run as one batch,
//!   and a batch as *runs*: the earliest pending step runs together with
//!   every later step of the same process that comes before both the next
//!   other process's pending step and the batch's end, whole periods at a
//!   time by arithmetic. Each step run draws a sequence number above every
//!   pending one, so a process's next step comes before another's pending
//!   step only when it is strictly earlier, and the runs keep the plain
//!   loop's order. The executor only counts steps and hands out sequence
//!   numbers; then the processes charge what the steps would have charged
//!   (counters, link occupancy, histogram samples) before the next real
//!   event can read them ([`Skipped::settle`]). When every parked process
//!   repeats with one period and a period of steps leaves their relative
//!   state as it found it (instants shifted by the period, sequence
//!   numbers by the steps run), every following period repeats it too, so
//!   the batch jumps whole periods of all of them at once.
//! * Whatever could change what the next step sees (a store to the polled
//!   memory, an L2 eviction, recording turned on) resumes the process: a
//!   real timer, with the pending step's instant and sequence number,
//!   replaces the skipped one ([`crate::Sim::resume_parked`]).
//!
//! A parked process that nothing resumes would spin forever in the plain
//! loop; here [`crate::Sim::run`] returns, and
//! [`crate::Sim::stuck_processes`] says what the process waits for.

use crate::time::Time;

/// A parked process's skipped steps, as its hardware model charges them.
/// The executor runs them from their schedule and counts them.
pub trait Skipped {
    /// The skipped steps' schedule, read once when the process parks:
    /// `(base, period, offsets)`, the offsets ascending within
    /// `(0, period]`. With `m = offsets.len()`, skipped step `k` (from 0)
    /// comes at `base + k / m * period + offsets[k % m]`.
    fn schedule(&self) -> (Time, Time, Vec<Time>);
    /// Charge the first `run` skipped steps, as far as an earlier call has
    /// not.
    fn settle(&self, run: u64);
    /// Stop skipping: the process must run its next step for real
    /// ([`crate::Sim::resume_parked`], which says how many steps ran).
    fn resume(&self);
    /// What the process waits for: the watched addresses and the values
    /// last seen there, for hang reports.
    fn describe(&self) -> String;
}
