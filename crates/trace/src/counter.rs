//! The counter handle type shared by every stats view.

use std::cell::Cell;
use std::fmt;
use std::rc::Rc;

/// A handle to one named `u64` counter that only grows.
///
/// Counters are cheap `Rc` clones: a [`crate::Registry`] and all typed views
/// built over it share the same cells, so a registry delta and two reads of
/// a view's field always agree. A window of counts is the difference of two
/// reads (or of two registry snapshots); nothing ever lowers a counter.
/// Every counter is a registry cell: handles come from a [`crate::Registry`]
/// or a [`crate::Scope`].
#[derive(Clone)]
pub struct Counter {
    cell: Rc<Cell<u64>>,
}

impl Counter {
    pub(crate) fn from_cell(cell: Rc<Cell<u64>>) -> Self {
        Counter { cell }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.get()
    }

    /// Add `by` to the value.
    #[inline]
    pub fn add(&self, by: u64) {
        self.cell.set(self.cell.get() + by)
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1)
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}
