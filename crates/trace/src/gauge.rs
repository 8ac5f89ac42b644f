//! Current-value/high-water gauges.
//!
//! Counters answer "how many ever happened"; a [`Gauge`] answers "how many
//! are in flight *right now*, and how bad did it get" — WR-queue depth,
//! outstanding DMA operations, notification-queue occupancy. A gauge holds
//! a non-negative current value (`sub` saturates at 0) and the highest
//! value it ever reached.
//!
//! Like [`crate::Counter`], a `Gauge` is a cheap `Rc` handle shared between
//! a [`crate::Registry`] and the typed stats views; [`Gauge::detached`]
//! belongs to no registry. Updates only mutate plain cells, so
//! instrumentation cannot perturb simulated time.

use std::cell::Cell;
use std::fmt;
use std::rc::Rc;

pub(crate) struct GaugeCell {
    current: Cell<u64>,
    high: Cell<u64>,
}

impl GaugeCell {
    pub(crate) fn new() -> Self {
        GaugeCell {
            current: Cell::new(0),
            high: Cell::new(0),
        }
    }
}

/// A handle to one named current/high-water gauge.
#[derive(Clone)]
pub struct Gauge {
    cell: Rc<GaugeCell>,
}

impl Gauge {
    /// A detached gauge, not visible in any registry.
    pub fn detached() -> Self {
        Gauge {
            cell: Rc::new(GaugeCell::new()),
        }
    }

    pub(crate) fn from_cell(cell: Rc<GaugeCell>) -> Self {
        Gauge { cell }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.current.get()
    }

    /// The highest value the gauge ever reached.
    #[inline]
    pub fn high_water(&self) -> u64 {
        self.cell.high.get()
    }

    /// Overwrite the current value (raises the high-water mark if needed).
    #[inline]
    pub fn set(&self, v: u64) {
        self.cell.current.set(v);
        if v > self.cell.high.get() {
            self.cell.high.set(v);
        }
    }

    /// Raise the current value by `by`.
    #[inline]
    pub fn add(&self, by: u64) {
        self.set(self.get() + by);
    }

    /// Lower the current value by `by`, saturating at 0.
    #[inline]
    pub fn sub(&self, by: u64) {
        self.cell.current.set(self.get().saturating_sub(by));
    }

    /// Raise by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Lower by one, saturating at 0.
    #[inline]
    pub fn dec(&self) {
        self.sub(1);
    }

    /// Capture the current state.
    pub fn snapshot(&self) -> GaugeSnapshot {
        GaugeSnapshot {
            current: self.get(),
            high_water: self.high_water(),
        }
    }
}

impl fmt::Debug for Gauge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gauge({}, high {})", self.get(), self.high_water())
    }
}

/// The state of one gauge at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Value at snapshot time.
    pub current: u64,
    /// The highest value ever reached. A gauge is a level, not a flow: a
    /// snapshot *delta* keeps the later `current` and reports a
    /// window-tight `high_water` bound (see [`GaugeSnapshot::delta`]).
    pub high_water: u64,
}

impl GaugeSnapshot {
    /// The gauge's state over the window `earlier..self`, as tight as two
    /// endpoint snapshots allow. `current` is the value at window end. For
    /// `high_water`: if the all-time high rose during the window, that new
    /// record was set *inside* the window and is exact; otherwise the
    /// all-time high predates the window and must not leak into it, so the
    /// tightest derivable bound is the larger endpoint value. (An interior
    /// excursion that stays below the pre-window record is invisible to
    /// endpoint snapshots; the bound under-reports it, never over-reports.)
    pub fn delta(&self, earlier: &GaugeSnapshot) -> GaugeSnapshot {
        GaugeSnapshot {
            current: self.current,
            high_water: if self.high_water > earlier.high_water {
                self.high_water
            } else {
                earlier.current.max(self.current)
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_current_and_high_water() {
        let g = Gauge::detached();
        g.add(3);
        g.inc();
        g.sub(2);
        assert_eq!(g.get(), 2);
        assert_eq!(g.high_water(), 4);
        g.set(1);
        assert_eq!(g.high_water(), 4);
        g.set(9);
        assert_eq!(g.high_water(), 9);
    }

    #[test]
    fn sub_saturates_at_zero() {
        let g = Gauge::detached();
        g.inc();
        g.sub(5);
        assert_eq!(g.get(), 0);
        assert_eq!(g.high_water(), 1);
    }

    #[test]
    fn clones_share_cells() {
        let a = Gauge::detached();
        let b = a.clone();
        b.add(7);
        assert_eq!(a.get(), 7);
        assert_eq!(
            a.snapshot(),
            GaugeSnapshot {
                current: 7,
                high_water: 7
            }
        );
    }
}
