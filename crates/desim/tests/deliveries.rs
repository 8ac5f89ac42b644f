//! Timed deliveries against the processes they replace.
//!
//! [`Sim::deliver`] must run its closure exactly where a process spawned
//! at the same point — `delay(at - now)`, then the closure — would have
//! run it, and count the same [`Work`]. These tests run seeded schedules
//! that mix worker processes and deliveries at equal instants three ways:
//! with deliveries, with those processes spawned by hand, and with
//! deliveries while the recorder is on (where `deliver` spawns the process
//! itself). The execution logs and the work must match event for event.
//! A failing seed prints, so any divergence replays exactly.

use std::cell::RefCell;
use std::rc::Rc;

use tc_desim::sync::Signal;
use tc_desim::time::Time;
use tc_desim::{Sim, Work};
use tc_trace::rng::XorShift64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// `Sim::deliver`, recorder off.
    Deliver,
    /// The replaced process, spawned by hand.
    Spawn,
    /// `Sim::deliver` with the recorder on: it spawns the process itself.
    Recorded,
}

const MODES: [Mode; 3] = [Mode::Deliver, Mode::Spawn, Mode::Recorded];

/// One observed event: simulated time and what happened.
type Log = Rc<RefCell<Vec<(Time, String)>>>;

/// A fresh simulation for `mode`.
fn sim_for(mode: Mode) -> Sim {
    let sim = Sim::new();
    if mode == Mode::Recorded {
        sim.recorder().enable();
    }
    sim
}

/// Run `f` at `at` the way `mode` says.
fn send(sim: &Sim, mode: Mode, at: Time, f: impl FnOnce() + 'static) {
    match mode {
        Mode::Deliver | Mode::Recorded => sim.deliver("dlv", at, f),
        Mode::Spawn => {
            let h = sim.clone();
            sim.spawn("dlv", async move {
                let now = h.now();
                h.delay(at - now).await;
                f();
            });
        }
    }
}

/// A delivery's closure: log `tag`, then maybe issue a further delivery
/// `chain` ahead (from outside any process) and maybe wake the listener.
fn payload(
    sim: &Sim,
    mode: Mode,
    log: &Log,
    tag: String,
    chain: Option<Time>,
    notify: Option<Signal>,
) -> impl FnOnce() + 'static {
    let (sim, log) = (sim.clone(), log.clone());
    move || {
        let now = sim.now();
        log.borrow_mut().push((now, tag.clone()));
        if let Some(ahead) = chain {
            let l = log.clone();
            let s = sim.clone();
            send(&sim, mode, now + ahead, move || {
                l.borrow_mut().push((s.now(), format!("{tag}.chain")));
            });
        }
        if let Some(sig) = notify {
            sig.notify_all();
        }
    }
}

#[derive(Debug, Clone)]
enum Step {
    Delay(Time),
    /// One delivery this far ahead, maybe chaining and notifying.
    Deliver {
        ahead: Time,
        chain: Option<Time>,
        notify: bool,
    },
    /// Several deliveries issued in one poll, so armed in one drain.
    Burst(Vec<Time>),
    Yield,
}

/// Instants on a coarse grid (0, 10, 20 or 30 ps), so timers and
/// deliveries tie often.
fn grid(rng: &mut XorShift64) -> Time {
    10 * rng.below(4)
}

fn script(rng: &mut XorShift64) -> Vec<Step> {
    (0..4 + rng.below(10))
        .map(|_| match rng.below(8) {
            0..=2 => Step::Delay(grid(rng)),
            3..=5 => Step::Deliver {
                ahead: grid(rng),
                chain: rng.chance(1, 3).then(|| grid(rng)),
                notify: rng.chance(1, 4),
            },
            6 => Step::Burst((0..2 + rng.below(3)).map(|_| grid(rng)).collect()),
            _ => Step::Yield,
        })
        .collect()
}

/// The seeded schedule: workers running their scripts, a listener woken
/// by deliveries, and deliveries issued between bounded runs from outside
/// any process (the way a shard coordinator injects frames).
struct Schedule {
    scripts: Vec<Vec<Step>>,
    /// `(run until, deliveries issued then, each this far past it)`.
    outside: Vec<(Time, Vec<Time>)>,
}

impl Schedule {
    fn new(seed: u64) -> Self {
        let mut rng = XorShift64::new(seed);
        let scripts = (0..2 + rng.below(4)).map(|_| script(&mut rng)).collect();
        let mut until = 0;
        let outside = (0..rng.below(4))
            .map(|_| {
                until += 5 + 5 * rng.below(8);
                let n = 1 + rng.below(3);
                (until, (0..n).map(|_| 10 + grid(&mut rng)).collect())
            })
            .collect();
        Schedule { scripts, outside }
    }

    /// Run in `mode`: the execution log and the executor work.
    fn run(&self, mode: Mode) -> (Vec<(Time, String)>, Work) {
        let before = Work::on_thread();
        let sim = sim_for(mode);
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let sig = sim.signal();
        {
            let (h, l, sig) = (sim.clone(), log.clone(), sig.clone());
            sim.spawn("listener", async move {
                loop {
                    sig.wait().await;
                    l.borrow_mut().push((h.now(), "woken".into()));
                }
            });
        }
        for (w, steps) in self.scripts.iter().enumerate() {
            let (h, l, sig, steps) = (sim.clone(), log.clone(), sig.clone(), steps.clone());
            sim.spawn("worker", async move {
                for (i, step) in steps.into_iter().enumerate() {
                    let tag = format!("w{w}.{i}");
                    l.borrow_mut().push((h.now(), tag.clone()));
                    match step {
                        Step::Delay(d) => h.delay(d).await,
                        Step::Deliver {
                            ahead,
                            chain,
                            notify,
                        } => {
                            let sig = notify.then(|| sig.clone());
                            let f = payload(&h, mode, &l, format!("{tag}.d"), chain, sig);
                            send(&h, mode, h.now() + ahead, f);
                        }
                        Step::Burst(aheads) => {
                            for (k, ahead) in aheads.into_iter().enumerate() {
                                let f = payload(&h, mode, &l, format!("{tag}.b{k}"), None, None);
                                send(&h, mode, h.now() + ahead, f);
                            }
                        }
                        Step::Yield => h.yield_now().await,
                    }
                }
                l.borrow_mut().push((h.now(), format!("w{w}.end")));
            });
        }
        for (j, (until, aheads)) in self.outside.iter().enumerate() {
            sim.run_until(*until);
            for (k, ahead) in aheads.iter().enumerate() {
                let f = payload(&sim, mode, &log, format!("out{j}.{k}"), Some(10), None);
                send(&sim, mode, until + ahead, f);
            }
        }
        sim.run();
        drop(sim);
        let events = log.borrow().clone();
        (events, Work::on_thread().since(before))
    }
}

#[test]
fn seeded_schedules_match_the_replaced_processes() {
    // Deliveries from processes, bursts, chains and from outside, and
    // events sharing an instant with the one before.
    let mut seen = [0usize; 5];
    for seed in 1..=300 {
        let s = Schedule::new(seed);
        let (want, want_work) = s.run(Mode::Spawn);
        for mode in [Mode::Deliver, Mode::Recorded] {
            let (got, work) = s.run(mode);
            assert_eq!(got, want, "seed {seed}: {mode:?} log differs");
            assert_eq!(work, want_work, "seed {seed}: {mode:?} work differs");
        }
        for (i, pat) in [".d", ".b", ".chain", "out"].iter().enumerate() {
            seen[i] += want.iter().filter(|e| e.1.contains(pat)).count();
        }
        seen[4] += want.windows(2).filter(|p| p[0].0 == p[1].0).count();
    }
    assert!(seen.iter().all(|&n| n > 1000), "{seen:?}");
}

/// A timer another process draws after a delivery is issued but before
/// the drain reaches the delivery comes first at their common instant; a
/// timer drawn after the arming point comes after it.
#[test]
fn a_delivery_draws_its_timer_at_its_place_in_the_runnable_queue() {
    for mode in MODES {
        let sim = sim_for(mode);
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let (h, l) = (sim.clone(), log.clone());
        sim.spawn("issuer", async move {
            let f = payload(&h, mode, &l, "d".into(), None, None);
            send(&h, mode, h.now() + 10, f);
            h.yield_now().await;
            // Behind the delivery in the runnable queue: drawn after it.
            h.delay(10).await;
            l.borrow_mut().push((h.now(), "after".into()));
        });
        let (h, l) = (sim.clone(), log.clone());
        sim.spawn("before", async move {
            // Ahead of the delivery in the runnable queue: drawn first.
            h.delay(10).await;
            l.borrow_mut().push((h.now(), "before".into()));
        });
        let before = Work::on_thread();
        sim.run();
        let events = log.borrow();
        let names: Vec<&str> = events.iter().map(|e| e.1.as_str()).collect();
        assert_eq!(names, ["before", "d", "after"], "{mode:?}");
        assert!(events.iter().all(|e| e.0 == 10));
        // issuer 3 polls, before 2, the delivery's arm and fire 2; three
        // timers.
        let w = Work::on_thread().since(before);
        assert_eq!((w.polls, w.timers), (7, 3), "{mode:?}");
    }
}

/// A delivery due now runs in the drain, at its place in the runnable
/// queue, as one poll and no timer.
#[test]
fn a_zero_delay_delivery_runs_at_its_place_in_the_drain() {
    for mode in MODES {
        let sim = sim_for(mode);
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let (h, l) = (sim.clone(), log.clone());
        sim.spawn("issuer", async move {
            for k in 0..3 {
                let f = payload(&h, mode, &l, format!("d{k}"), None, None);
                send(&h, mode, h.now(), f);
            }
            l.borrow_mut().push((h.now(), "issued".into()));
        });
        let l = log.clone();
        sim.spawn("peer", async move {
            l.borrow_mut().push((0, "peer".into()));
        });
        let before = Work::on_thread();
        sim.run();
        let events = log.borrow();
        let names: Vec<&str> = events.iter().map(|e| e.1.as_str()).collect();
        assert_eq!(names, ["issued", "peer", "d0", "d1", "d2"], "{mode:?}");
        let w = Work::on_thread().since(before);
        assert_eq!((w.polls, w.timers), (5, 0), "{mode:?}");
    }
}

#[test]
#[should_panic(expected = "delivery scheduled in the past")]
fn a_delivery_into_the_past_panics() {
    let sim = Sim::new();
    let h = sim.clone();
    sim.spawn("clock", async move { h.delay(100).await });
    sim.run();
    sim.deliver("late", 50, || {});
}
