//! Spin-wait fast-forward: processes that park instead of polling.
//!
//! A process spinning on memory that nothing writes repeats the same
//! steps, each ending in a timer, until something changes. It can *park*
//! instead ([`crate::Sim::park`]): it keeps no timer in the queue, and its
//! hardware model implements [`Skipped`] to run the skipped steps
//! analytically. The executor runs them in exactly the plain loop's order:
//!
//! * Each skipped step stands for a timer the plain loop would have
//!   inserted, so it takes that timer's place in the schedule: the next
//!   global sequence number at its insertion. The run loop merges pending
//!   skipped steps with the timer queue by `(at, seq)`, the queue's own
//!   order, so every equal-instant tie falls the plain loop's way.
//! * Steps with no real event between them run as one batch: the
//!   executor only advances each process's step count and hands out
//!   sequence numbers, then the processes charge what the steps would have
//!   charged (counters, link occupancy, histogram samples) before the next
//!   real event can read them. When every parked process repeats with one
//!   period and a period of steps leaves their relative state as it found
//!   it (instants shifted by the period, sequence numbers by the steps
//!   run), every following period repeats it too, so the batch jumps whole
//!   periods at once.
//! * Whatever could change what the next step sees (a store to the polled
//!   memory, an L2 eviction, recording turned on) resumes the process: a
//!   real timer, with the pending step's instant and sequence number,
//!   replaces the skipped one ([`crate::Sim::resume_parked`]).
//!
//! A parked process that nothing resumes would spin forever in the plain
//! loop; here [`crate::Sim::run`] returns, and
//! [`crate::Sim::stuck_processes`] says what the process waits for.

use crate::time::Time;

/// A parked process's skipped steps, as its hardware model runs them.
pub trait Skipped {
    /// Instant of the next skipped step.
    fn next_at(&self) -> Time;
    /// Count the next skipped step as run; returns the instant of the one
    /// after it. Its charges land at the next [`Skipped::settle`].
    fn advance(&self) -> Time;
    /// Count the next `n` skipped steps as run (charged at the next
    /// [`Skipped::settle`]).
    fn advance_by(&self, n: u64);
    /// The period the skipped steps repeat with, and the steps per period.
    fn period(&self) -> (Time, u64);
    /// Charge every step run since the last call.
    fn settle(&self);
    /// Stop skipping: the process must run its next step for real (call
    /// [`crate::Sim::resume_parked`]).
    fn resume(&self);
    /// What the process waits for: the watched addresses and the values
    /// last seen there, for hang reports.
    fn describe(&self) -> String;
}
