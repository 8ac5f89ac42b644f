//! Link occupancy tracking.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use tc_desim::{time::Time, Sim};

/// Tracks when a (half-duplex per direction) link becomes free. Transfers
/// serialize: a new transfer starts at `max(now, busy_until)` and the caller
/// is delayed until its end. This makes bandwidth sharing between concurrent
/// users (e.g. 32 RMA ports posting in parallel) emerge naturally.
#[derive(Clone)]
pub struct Link {
    inner: Rc<LinkInner>,
}

/// One watch on a link: `(id, callback)`.
type LinkWatch = (u64, Rc<dyn Fn()>);

struct LinkInner {
    sim: Sim,
    busy_until: Cell<Time>,
    total_busy: Cell<Time>,
    /// Parked spinners whose skipped reads occupy this link.
    watches: RefCell<Vec<LinkWatch>>,
    next_watch: Cell<u64>,
}

impl Link {
    /// A free link.
    pub fn new(sim: Sim) -> Self {
        Link {
            inner: Rc::new(LinkInner {
                sim,
                busy_until: Cell::new(0),
                total_busy: Cell::new(0),
                watches: RefCell::new(Vec::new()),
                next_watch: Cell::new(0),
            }),
        }
    }

    /// Reserve the link for `dur`; returns the completion time. Does not
    /// block the caller — combine with `Sim::delay` to wait.
    pub fn reserve(&self, dur: Time) -> Time {
        self.notify();
        let now = self.inner.sim.now();
        let start = now.max(self.inner.busy_until.get());
        let end = start + dur;
        self.inner.busy_until.set(end);
        self.inner.total_busy.set(self.inner.total_busy.get() + dur);
        end
    }

    /// Reserve the link for `dur` and wait until the reservation completes.
    pub async fn transfer(&self, dur: Time) {
        let end = self.reserve(dur);
        let now = self.inner.sim.now();
        self.inner.sim.delay(end - now).await;
    }

    /// Time at which the link next becomes idle.
    pub fn busy_until(&self) -> Time {
        self.notify();
        self.inner.busy_until.get()
    }

    /// Cumulative reserved time (for utilization accounting).
    pub fn total_busy(&self) -> Time {
        self.notify();
        self.inner.total_busy.get()
    }

    /// Call `f` before the next reservation or occupancy read of this link,
    /// until [`Link::unwatch`]. Returns the watch's handle.
    pub fn watch(&self, f: Rc<dyn Fn()>) -> u64 {
        let id = self.inner.next_watch.get();
        self.inner.next_watch.set(id + 1);
        self.inner.watches.borrow_mut().push((id, f));
        id
    }

    /// Drop watch `id` (no-op if it is gone already).
    pub fn unwatch(&self, id: u64) {
        self.inner.watches.borrow_mut().retain(|w| w.0 != id);
    }

    /// Account reservations that were skipped instead of made: `busy` of
    /// occupancy, the last of which keeps the link busy until `until`.
    pub fn skip(&self, busy: Time, until: Time) {
        let i = &self.inner;
        i.total_busy.set(i.total_busy.get() + busy);
        if until > i.busy_until.get() {
            i.busy_until.set(until);
        }
    }

    fn notify(&self) {
        let hit: Vec<Rc<dyn Fn()>> = {
            let w = self.inner.watches.borrow();
            if w.is_empty() {
                return;
            }
            w.iter().map(|(_, f)| f.clone()).collect()
        };
        for f in hit {
            f();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use tc_desim::time::ns;

    #[test]
    fn concurrent_transfers_serialize() {
        let sim = Sim::new();
        let link = Link::new(sim.clone());
        let ends = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3 {
            let l = link.clone();
            let h = sim.clone();
            let e = ends.clone();
            sim.spawn(&format!("t{i}"), async move {
                l.transfer(ns(100)).await;
                e.borrow_mut().push((i, h.now()));
            });
        }
        sim.run();
        assert_eq!(
            *ends.borrow(),
            vec![(0, ns(100)), (1, ns(200)), (2, ns(300))]
        );
        assert_eq!(link.total_busy(), ns(300));
    }

    #[test]
    fn idle_gap_is_not_charged() {
        let sim = Sim::new();
        let link = Link::new(sim.clone());
        let h = sim.clone();
        let l = link.clone();
        sim.spawn("t", async move {
            l.transfer(ns(50)).await;
            h.delay(ns(1000)).await;
            l.transfer(ns(50)).await;
            assert_eq!(h.now(), ns(1100));
        });
        sim.run();
        assert_eq!(link.total_busy(), ns(100));
    }
}
