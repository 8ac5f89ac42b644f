//! Structured event recorder.
//!
//! The recorder captures timestamped **spans** (an operation with a start
//! and an end on the simulated clock: a DMA transfer, a warp load, a WQE
//! execution) and **instants** (a point event: a doorbell ring, a process
//! wake, a notification enqueue). Events carry:
//!
//! * `layer` — which architectural layer emitted it (`"desim"`, `"gpu"`,
//!   `"pcie"`, `"nic"`). Layers become *processes* in the Chrome
//!   trace export.
//! * `track` — the emitting instance/engine (`"gpu0.warp"`,
//!   `"extoll0.requester"`, `"pcie0.nic0"`). Tracks become *threads*.
//! * `name` plus optional key/value `args`.
//!
//! Recording is **zero-cost when off**: call sites gate on [`Recorder::on`]
//! before building strings, and a disabled recorder drops events anyway.
//! The recorder only observes — it never awaits, delays, or schedules — so
//! enabling it cannot perturb simulated timestamps; simulation results are
//! bit-for-bit identical with recording on or off.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Simulated timestamp in picoseconds (mirrors `tc_desim::time::Time`
/// without a dependency edge).
pub type Ts = u64;

/// What kind of event a [`TraceEvent`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// An operation spanning `dur` picoseconds starting at the event's `ts`.
    Span {
        /// Duration in picoseconds.
        dur: Ts,
    },
    /// A point event at `ts`.
    Instant,
    /// A sampled counter value at `ts` (a Perfetto counter track point).
    Counter {
        /// The sampled value.
        value: u64,
    },
}

/// An argument value attached to an event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgVal {
    /// Unsigned integer argument (byte counts, sequence numbers, addresses).
    U64(u64),
    /// String argument (opcodes, unit names, free-form labels).
    Str(String),
}

impl From<u64> for ArgVal {
    fn from(v: u64) -> Self {
        ArgVal::U64(v)
    }
}

impl From<&str> for ArgVal {
    fn from(v: &str) -> Self {
        ArgVal::Str(v.to_string())
    }
}

impl From<String> for ArgVal {
    fn from(v: String) -> Self {
        ArgVal::Str(v)
    }
}

/// One recorded event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated start time, picoseconds.
    pub ts: Ts,
    /// Span-with-duration or instant.
    pub phase: Phase,
    /// Architectural layer (`"desim"`, `"gpu"`, `"pcie"`, `"nic"`, ...).
    pub layer: &'static str,
    /// Emitting instance/engine, e.g. `"extoll0.requester"`.
    pub track: String,
    /// Event name, e.g. `"dma_read"`.
    pub name: String,
    /// Optional key/value details.
    pub args: Vec<(&'static str, ArgVal)>,
}

#[derive(Default)]
struct Inner {
    on: Cell<bool>,
    events: RefCell<Vec<TraceEvent>>,
}

/// A shared, clonable handle to the event log. Disabled by default.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Rc<Inner>,
}

impl Recorder {
    /// A fresh recorder, disabled.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Is recording enabled? Call sites should gate event construction on
    /// this so a disabled recorder costs one branch and no allocation.
    #[inline]
    pub fn on(&self) -> bool {
        self.inner.on.get()
    }

    /// Start recording.
    pub fn enable(&self) {
        self.inner.on.set(true);
    }

    /// Record a point event at `ts`. No-op while disabled.
    pub fn instant(
        &self,
        ts: Ts,
        layer: &'static str,
        track: impl Into<String>,
        name: impl Into<String>,
        args: Vec<(&'static str, ArgVal)>,
    ) {
        if !self.on() {
            return;
        }
        self.inner.events.borrow_mut().push(TraceEvent {
            ts,
            phase: Phase::Instant,
            layer,
            track: track.into(),
            name: name.into(),
            args,
        });
    }

    /// Record a completed operation that ran from `start` to `end`
    /// (simulated time). No-op while disabled. `end < start` is clamped to
    /// a zero-length span rather than panicking.
    pub fn span(
        &self,
        start: Ts,
        end: Ts,
        layer: &'static str,
        track: impl Into<String>,
        name: impl Into<String>,
        args: Vec<(&'static str, ArgVal)>,
    ) {
        if !self.on() {
            return;
        }
        self.inner.events.borrow_mut().push(TraceEvent {
            ts: start,
            phase: Phase::Span {
                dur: end.saturating_sub(start),
            },
            layer,
            track: track.into(),
            name: name.into(),
            args,
        });
    }

    /// Number of captured events.
    pub fn len(&self) -> usize {
        self.inner.events.borrow().len()
    }

    /// True if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drain and return all captured events in record order. Events are
    /// recorded as simulated time advances, so the drained list is sorted
    /// by start timestamp except that a span is logged at completion with
    /// its true (earlier) start time.
    pub fn take_events(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.inner.events.borrow_mut())
    }

    /// Copy of the captured events, leaving the log intact.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.events.borrow().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_captures_nothing() {
        let r = Recorder::new();
        assert!(!r.on());
        r.instant(5, "gpu", "gpu0", "x", vec![]);
        r.span(1, 9, "pcie", "pcie0", "y", vec![]);
        assert!(r.is_empty());
    }

    #[test]
    fn enabled_recorder_captures_in_order() {
        let r = Recorder::new();
        r.enable();
        r.instant(5, "gpu", "gpu0", "ld", vec![("bytes", 64u64.into())]);
        r.span(2, 12, "pcie", "pcie0.nic", "dma_read", vec![]);
        let ev = r.take_events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].phase, Phase::Instant);
        assert_eq!(ev[1].phase, Phase::Span { dur: 10 });
        assert_eq!(ev[1].ts, 2);
        assert!(r.is_empty());
    }

    #[test]
    fn clones_share_the_log() {
        let r = Recorder::new();
        let r2 = r.clone();
        r.enable();
        assert!(r2.on());
        r2.instant(1, "nic", "extoll0", "notif", vec![]);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn backwards_span_clamps_to_zero() {
        let r = Recorder::new();
        r.enable();
        r.span(10, 4, "desim", "exec", "odd", vec![]);
        assert_eq!(r.events()[0].phase, Phase::Span { dur: 0 });
    }
}
