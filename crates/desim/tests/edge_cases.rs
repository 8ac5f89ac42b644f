//! Edge-case tests of the DES kernel beyond the unit suites.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use tc_desim::sync::{Channel, Semaphore};
use tc_desim::time::{ns, us};
use tc_desim::Sim;

#[test]
fn run_until_can_resume_repeatedly() {
    let sim = Sim::new();
    let hits = Rc::new(Cell::new(0u32));
    let h2 = hits.clone();
    let h = sim.clone();
    sim.spawn("ticker", async move {
        for _ in 0..10 {
            h.delay(us(1)).await;
            h2.set(h2.get() + 1);
        }
    });
    // Step the simulation in 2.5 us slices.
    let mut t = 0;
    for _ in 0..5 {
        t += us(2) + ns(500);
        sim.run_until(t);
    }
    assert_eq!(hits.get(), 10);
    assert_eq!(sim.live_processes(), 0);
}

#[test]
fn close_wakes_a_blocked_receiver() {
    let sim = Sim::new();
    let ch: Channel<u8> = Channel::new(&sim, 0);
    let got_none = Rc::new(Cell::new(false));
    let g = got_none.clone();
    let rx = ch.clone();
    sim.spawn("rx", async move {
        assert!(rx.recv().await.is_none());
        g.set(true);
    });
    let h = sim.clone();
    sim.spawn("closer", async move {
        h.delay(ns(50)).await;
        ch.close();
    });
    sim.run();
    assert!(got_none.get());
    assert_eq!(sim.live_processes(), 0);
}

#[test]
fn thousand_processes_complete() {
    let sim = Sim::new();
    let done = Rc::new(Cell::new(0u32));
    for i in 0..1000 {
        let h = sim.clone();
        let d = done.clone();
        sim.spawn(&format!("p{i}"), async move {
            h.delay(ns(i % 97)).await;
            d.set(d.get() + 1);
        });
    }
    sim.run();
    assert_eq!(done.get(), 1000);
    assert_eq!(sim.live_processes(), 0);
}

#[test]
fn nested_spawns_run_to_completion() {
    let sim = Sim::new();
    let log = Rc::new(RefCell::new(Vec::new()));
    let h = sim.clone();
    let l = log.clone();
    sim.spawn("root", async move {
        l.borrow_mut().push("root");
        let h2 = h.clone();
        let l2 = l.clone();
        h.spawn("child", async move {
            h2.delay(ns(10)).await;
            l2.borrow_mut().push("child");
            let l3 = l2.clone();
            h2.spawn("grandchild", async move {
                l3.borrow_mut().push("grandchild");
            });
        });
    });
    sim.run();
    assert_eq!(*log.borrow(), vec!["root", "child", "grandchild"]);
}

#[test]
fn semaphore_fifo_under_heavy_contention() {
    let sim = Sim::new();
    let sem = Semaphore::new(&sim, 1);
    let order = Rc::new(RefCell::new(Vec::new()));
    for i in 0..20usize {
        let s = sem.clone();
        let h = sim.clone();
        let o = order.clone();
        sim.spawn(&format!("w{i}"), async move {
            // All contend from t=0 in spawn order.
            s.acquire().await;
            h.delay(ns(10)).await;
            o.borrow_mut().push(i);
            s.release();
        });
    }
    sim.run();
    let o = order.borrow();
    assert_eq!(o.len(), 20);
    // Holder slots were granted in a deterministic order.
    let again = {
        let sim = Sim::new();
        let sem = Semaphore::new(&sim, 1);
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..20usize {
            let s = sem.clone();
            let h = sim.clone();
            let o2 = order.clone();
            sim.spawn(&format!("w{i}"), async move {
                s.acquire().await;
                h.delay(ns(10)).await;
                o2.borrow_mut().push(i);
                s.release();
            });
        }
        sim.run();
        Rc::try_unwrap(order).unwrap().into_inner()
    };
    assert_eq!(*o, again);
}

#[test]
fn trace_interleaves_multiple_processes_by_time() {
    let sim = Sim::new();
    let woke = Rc::new(RefCell::new(Vec::new()));
    for (name, d) in [("a", 30u64), ("b", 10), ("c", 20)] {
        let h = sim.clone();
        let woke = woke.clone();
        sim.spawn(name, async move {
            h.delay(ns(d)).await;
            woke.borrow_mut().push(name);
        });
    }
    sim.run();
    assert_eq!(*woke.borrow(), ["b", "c", "a"]);
}
