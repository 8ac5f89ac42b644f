//! Conservative parallel DES: shard one simulation across worker threads.
//!
//! A sharded run partitions the model across `n` workers, each driving its
//! own single-threaded [`Sim`]. The shards advance in **bounded time
//! windows** of width `lookahead`: within a window every shard executes
//! independently, and at the window boundary all shards meet at a barrier
//! and exchange the cross-shard traffic they produced as timestamped
//! [`Envelope`]s.
//!
//! The scheme is safe when the model guarantees that any event a shard
//! produces for another shard is delivered at least `lookahead` after the
//! instant it was produced (classic conservative synchronization). When
//! the only cross-shard path is a communication link of fixed latency
//! `L >= lookahead`, the bound is *exact and static* — no null messages
//! and no dynamic lookahead negotiation are needed: an envelope produced
//! anywhere inside window `[W, W+lookahead)` delivers at or after
//! `W + lookahead`, i.e. strictly beyond the window, so exchanging at the
//! barrier can never deliver into a shard's past.
//!
//! Determinism does not depend on worker interleaving: envelope delivery
//! order is fixed by sorting on `(deliver_at, src_shard, seq)`, the next
//! window start is the *global* minimum future event time (computed
//! identically by every shard from published per-shard bounds), and a
//! generation-counted epoch protocol — every barrier crossing bumps a
//! shared epoch, every envelope is stamped with the epoch at which it must
//! be consumed — turns any interleaving bug into a loud panic instead of a
//! silently reordered delivery.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

use crate::time::Time;
use crate::{Sim, Work};

/// A timestamped cross-shard message.
///
/// `deliver_at` is the absolute simulated time the message must take
/// effect on the destination shard; `src_shard` and `seq` (a per-producer
/// monotone counter) break delivery ties deterministically; `epoch` is the
/// barrier generation at which the envelope must be consumed.
#[derive(Debug)]
pub struct Envelope<M> {
    /// Absolute simulated delivery time on the destination shard.
    pub deliver_at: Time,
    /// Producing shard index.
    pub src_shard: usize,
    /// Per-producer monotone sequence number (tie-break after time).
    pub seq: u64,
    /// Barrier generation this envelope must be consumed at.
    pub epoch: u64,
    /// The message itself.
    pub msg: M,
}

/// One message staged for a peer shard, before it is stamped into an
/// [`Envelope`] by the coordinator.
#[derive(Debug)]
pub struct Outgoing<M> {
    /// Destination shard index.
    pub dst_shard: usize,
    /// Absolute simulated delivery time (must be at least one full
    /// `lookahead` beyond the window the message was produced in).
    pub deliver_at: Time,
    /// The message itself.
    pub msg: M,
}

/// Per-window observation handed to [`ShardHandle::run_observed`]'s
/// callback: everything in it is derived from simulated time and the
/// deterministic envelope exchange, never from wall-clock state, so a
/// run's sequence of `WindowStat`s is reproducible bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowStat {
    /// Zero-based index of the window within the run.
    pub index: u64,
    /// Window start (inclusive), simulated picoseconds.
    pub wstart: Time,
    /// Window end (exclusive), simulated picoseconds.
    pub wend: Time,
    /// Envelopes this shard staged for peers during the window.
    pub exported: u64,
    /// Envelopes delivered into this shard at the window's barrier.
    pub imported: u64,
}

/// A generation-counted rendezvous barrier.
///
/// Like [`std::sync::Barrier`] but (a) every crossing returns the new
/// shared generation ("epoch") so envelope stamps can be validated, and
/// (b) a panicking worker poisons it, waking all waiting peers into a
/// panic instead of deadlocking them.
struct EpochBarrier {
    shards: usize,
    state: Mutex<BarrierState>,
    cv: Condvar,
}

struct BarrierState {
    arrived: usize,
    epoch: u64,
    poisoned: bool,
}

impl EpochBarrier {
    fn new(shards: usize) -> Self {
        EpochBarrier {
            shards,
            state: Mutex::new(BarrierState {
                arrived: 0,
                epoch: 0,
                poisoned: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Wait for all shards; returns the new epoch.
    fn wait(&self) -> u64 {
        let mut st = self.state.lock().unwrap();
        assert!(!st.poisoned, "shard barrier poisoned by a peer panic");
        st.arrived += 1;
        if st.arrived == self.shards {
            st.arrived = 0;
            st.epoch += 1;
            self.cv.notify_all();
            return st.epoch;
        }
        let entered_at = st.epoch;
        while st.epoch == entered_at && !st.poisoned {
            st = self.cv.wait(st).unwrap();
        }
        assert!(!st.poisoned, "shard barrier poisoned by a peer panic");
        st.epoch
    }

    fn poison(&self) {
        // A peer may have panicked while holding the lock; the data is a
        // plain counter triple, so clear the poison flag of the mutex too.
        let mut st = match self.state.lock() {
            Ok(g) => g,
            Err(e) => e.into_inner(),
        };
        st.poisoned = true;
        self.cv.notify_all();
    }
}

/// Shared coordinator state for one sharded run.
struct Coord<M> {
    lookahead: Time,
    barrier: EpochBarrier,
    /// `inboxes[dst]`: envelopes published for shard `dst` this round.
    inboxes: Vec<Mutex<Vec<Envelope<M>>>>,
    /// Per-shard lower bound on its earliest future activity (`Time::MAX`
    /// when quiescent), republished every round before the barrier.
    status: Vec<AtomicU64>,
    /// All-gather slots for control-plane exchanges (wiring, reductions).
    slots: Vec<Mutex<Option<Box<dyn Any + Send>>>>,
}

/// One worker's handle onto a sharded run: its shard index plus the
/// coordinator operations ([`ShardHandle::exchange`] for control-plane
/// all-gathers, [`ShardHandle::run`] for the windowed event loop).
pub struct ShardHandle<'c, M> {
    coord: &'c Coord<M>,
    index: usize,
    /// Epoch as of this worker's last barrier crossing.
    epoch: u64,
    /// Next envelope sequence number produced by this shard.
    seq: u64,
}

impl<M: Send> ShardHandle<'_, M> {
    /// This worker's shard index in `0..shards`.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Number of shards in the run.
    pub fn shards(&self) -> usize {
        self.coord.inboxes.len()
    }

    /// The lookahead (window width) of the run.
    pub fn lookahead(&self) -> Time {
        self.coord.lookahead
    }

    /// Control-plane all-gather: publish `value` and return every shard's
    /// contribution, indexed by shard. Usable any time all shards call it
    /// in lockstep (typically while wiring the model, before [`run`]).
    ///
    /// [`run`]: ShardHandle::run
    pub fn exchange<V: Clone + Send + 'static>(&mut self, value: V) -> Vec<V> {
        *self.coord.slots[self.index].lock().unwrap() = Some(Box::new(value));
        self.epoch = self.coord.barrier.wait();
        let all: Vec<V> = (0..self.shards())
            .map(|i| {
                let slot = self.coord.slots[i].lock().unwrap();
                slot.as_ref()
                    .and_then(|b| b.downcast_ref::<V>())
                    .expect("shard exchange type/lockstep mismatch")
                    .clone()
            })
            .collect();
        // Second crossing: nobody may overwrite a slot before every peer
        // has read it.
        self.epoch = self.coord.barrier.wait();
        all
    }

    /// Drive `sim` to global completion under the window protocol.
    ///
    /// Per round the shard (1) advances its local wheel to the end of the
    /// current window, (2) stages the cross-shard traffic produced in the
    /// window via `drain`, (3) publishes a bound on its earliest future
    /// activity, (4) crosses the barrier, (5) consumes its inbox sorted by
    /// `(deliver_at, src_shard, seq)` through `deliver`, and (6) computes
    /// the globally-identical next window start (the minimum of all
    /// published bounds), skipping empty windows in one hop. The run ends
    /// when every shard is quiescent and no envelopes are in flight;
    /// returns this shard's last local event time.
    ///
    /// `drain` returns the messages captured since its previous call, each
    /// with an absolute delivery time at least `lookahead` beyond the
    /// window it was produced in (asserted). `deliver` must schedule the
    /// envelope into `sim` at `deliver_at` (e.g. spawn a process that
    /// delays until then); it runs before the window containing
    /// `deliver_at` executes, and an envelope timed exactly on a window
    /// boundary is delivered for the *following* window — the window it
    /// opens — never the one just executed.
    pub fn run(
        &mut self,
        sim: &Sim,
        drain: impl FnMut() -> Vec<Outgoing<M>>,
        deliver: impl FnMut(Envelope<M>),
    ) -> Time {
        self.run_observed(sim, drain, deliver, |_| {})
    }

    /// Like [`ShardHandle::run`], but invokes `on_window` once per executed
    /// window with a [`WindowStat`] describing the window's bounds and
    /// cross-shard traffic. The callback runs between the two barrier
    /// crossings of the round (after this shard's inbox is drained), on the
    /// worker thread; it observes only deterministic state, so feeding the
    /// stats into telemetry cannot perturb the simulation.
    pub fn run_observed(
        &mut self,
        sim: &Sim,
        mut drain: impl FnMut() -> Vec<Outgoing<M>>,
        mut deliver: impl FnMut(Envelope<M>),
        mut on_window: impl FnMut(WindowStat),
    ) -> Time {
        let mut wstart: Time = 0;
        let mut window_index: u64 = 0;
        loop {
            // Half-open window [wstart, wend): everything strictly before
            // the boundary executes now; an event exactly at `wend`
            // belongs to the next round.
            let wend = wstart
                .checked_add(self.coord.lookahead)
                .expect("window end overflowed the simulated clock");
            sim.run_until(wend - 1);

            let mut bound = sim.next_event_time().unwrap_or(Time::MAX);
            let mut exported: u64 = 0;
            for out in drain() {
                exported += 1;
                assert!(
                    out.deliver_at >= wend,
                    "lookahead violated: envelope for shard {} delivers at {} \
                     inside the window ending at {}",
                    out.dst_shard,
                    out.deliver_at,
                    wend
                );
                bound = bound.min(out.deliver_at);
                let env = Envelope {
                    deliver_at: out.deliver_at,
                    src_shard: self.index,
                    seq: self.seq,
                    // Stamped for the barrier crossing just ahead.
                    epoch: self.epoch + 1,
                    msg: out.msg,
                };
                self.seq += 1;
                self.coord.inboxes[out.dst_shard].lock().unwrap().push(env);
            }
            self.coord.status[self.index].store(bound, Ordering::SeqCst);

            self.epoch = self.coord.barrier.wait();

            let mut mine = std::mem::take(&mut *self.coord.inboxes[self.index].lock().unwrap());
            mine.sort_by_key(|e| (e.deliver_at, e.src_shard, e.seq));
            let global_next = self
                .coord
                .status
                .iter()
                .map(|s| s.load(Ordering::SeqCst))
                .min()
                .unwrap_or(Time::MAX);
            let imported = mine.len() as u64;
            for env in mine {
                assert_eq!(
                    env.epoch, self.epoch,
                    "envelope from shard {} crossed an epoch boundary",
                    env.src_shard
                );
                debug_assert!(env.deliver_at >= wend, "delivery into the past");
                deliver(env);
            }
            on_window(WindowStat {
                index: window_index,
                wstart,
                wend,
                exported,
                imported,
            });
            window_index += 1;
            // Second crossing: every inbox is drained and every status
            // read before any shard starts publishing the next round.
            self.epoch = self.coord.barrier.wait();

            if global_next == Time::MAX {
                return sim.last_event_time();
            }
            debug_assert!(global_next >= wend, "window start went backwards");
            wstart = global_next;
        }
    }
}

/// Run `f` once per shard on `shards` worker threads, with cross-shard
/// messages of type `M` synchronized conservatively in windows of width
/// `lookahead` (picoseconds — use the minimum cross-shard link latency).
///
/// Each worker builds its own (single-threaded) [`Sim`] and model inside
/// `f`, wires cross-shard state with [`ShardHandle::exchange`], and drives
/// the windowed event loop with [`ShardHandle::run`]. Returns the workers'
/// results indexed by shard, and folds each worker's executor [`Work`]
/// into the calling thread's. A panic in any worker poisons the barrier so
/// the peers panic too instead of deadlocking, and the original panic is
/// propagated.
pub fn run_sharded<M, T, F>(shards: usize, lookahead: Time, f: F) -> Vec<T>
where
    M: Send,
    T: Send,
    F: Fn(ShardHandle<'_, M>) -> T + Sync,
{
    assert!(shards >= 1, "need at least one shard");
    assert!(lookahead > 0, "lookahead must be positive");
    let coord = Coord {
        lookahead,
        barrier: EpochBarrier::new(shards),
        inboxes: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
        status: (0..shards).map(|_| AtomicU64::new(Time::MAX)).collect(),
        slots: (0..shards).map(|_| Mutex::new(None)).collect(),
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shards)
            .map(|index| {
                let coord = &coord;
                let f = &f;
                scope.spawn(move || {
                    let handle = ShardHandle {
                        coord,
                        index,
                        epoch: 0,
                        seq: 0,
                    };
                    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(handle)));
                    match out {
                        Ok(v) => (v, Work::on_thread()),
                        Err(payload) => {
                            coord.barrier.poison();
                            std::panic::resume_unwind(payload);
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok((v, work)) => {
                    Work::fold(work);
                    v
                }
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::us;
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::atomic::AtomicUsize;

    /// Two shards ping-pong a token over a simulated cross-shard link of
    /// latency exactly one lookahead; delivery times and the final event
    /// horizon must be exact.
    #[test]
    fn token_ring_across_two_shards_is_timed_exactly() {
        let hop = us(1); // link latency == lookahead
        let laps = 4u64;
        let results = run_sharded::<u64, _, _>(2, hop, move |mut h| {
            let sim = Sim::new();
            let me = h.index();
            let log: Rc<RefCell<Vec<(Time, u64)>>> = Rc::new(RefCell::new(Vec::new()));
            let staged: Rc<RefCell<Vec<Outgoing<u64>>>> = Rc::new(RefCell::new(Vec::new()));
            // Each delivered token is logged, and forwarded to the peer
            // until it has made `laps` full round trips.
            let on_token = {
                let log = log.clone();
                let staged = staged.clone();
                let sim = sim.clone();
                move |token: u64| {
                    log.borrow_mut().push((sim.now(), token));
                    if token < 2 * laps {
                        staged.borrow_mut().push(Outgoing {
                            dst_shard: 1 - me,
                            deliver_at: sim.now() + hop,
                            msg: token + 1,
                        });
                    }
                }
            };
            if me == 0 {
                // Kick off: token 1 arrives at the peer one hop from t=0.
                staged.borrow_mut().push(Outgoing {
                    dst_shard: 1,
                    deliver_at: hop,
                    msg: 1,
                });
            }
            let drain = {
                let staged = staged.clone();
                move || std::mem::take(&mut *staged.borrow_mut())
            };
            let deliver = {
                let sim = sim.clone();
                let on_token = on_token.clone();
                move |env: Envelope<u64>| {
                    let sim2 = sim.clone();
                    let on_token = on_token.clone();
                    sim.spawn("token", async move {
                        sim2.delay(env.deliver_at - sim2.now()).await;
                        on_token(env.msg);
                    });
                }
            };
            let last = h.run(&sim, drain, deliver);
            let events = log.borrow().clone();
            (last, events)
        });
        // Token k arrives at time k*hop, alternating shards (odd on 1).
        let (last1, ref log1) = results[1];
        for (i, &(t, tok)) in log1.iter().enumerate() {
            assert_eq!(tok, 2 * i as u64 + 1);
            assert_eq!(t, tok * hop);
        }
        assert_eq!(log1.len(), laps as usize);
        let (last0, ref log0) = results[0];
        assert_eq!(log0.len(), laps as usize);
        // The global event horizon is the final delivery, on shard 0.
        assert_eq!(last0.max(last1), 2 * laps * hop);
    }

    /// Each shard thread's executor work lands in the caller's total.
    #[test]
    fn shard_work_folds_into_the_calling_thread() {
        let before = Work::on_thread();
        let per_shard = run_sharded::<u64, _, _>(3, us(1), |mut h| {
            let sim = Sim::new();
            let s = sim.clone();
            let delays = 2 + h.index() as u64;
            sim.spawn("work", async move {
                for _ in 0..delays {
                    s.delay(us(3)).await;
                }
            });
            h.run(&sim, Vec::new, |_| {});
            Work::on_thread().polls
        });
        assert_eq!(per_shard, [3, 4, 5]);
        assert_eq!(Work::on_thread().since(before).polls, 12);
    }

    /// An envelope timed exactly on a window boundary must land in the
    /// epoch that *opens* at that boundary, not the one that just closed:
    /// it is delivered by the exchange at the end of window `[0, L)` and
    /// executes at `t == L`, the first instant of the next window.
    #[test]
    fn boundary_envelope_lands_in_the_opening_epoch() {
        let lookahead = us(1);
        let results = run_sharded::<u64, _, _>(2, lookahead, move |mut h| {
            let sim = Sim::new();
            let seen: Rc<RefCell<Vec<(Time, u64, u64)>>> = Rc::new(RefCell::new(Vec::new()));
            let sent = RefCell::new(if h.index() == 0 {
                // deliver_at == lookahead: exactly the first window's end.
                vec![Outgoing {
                    dst_shard: 1,
                    deliver_at: lookahead,
                    msg: 7,
                }]
            } else {
                Vec::new()
            });
            let epoch_at_delivery = Rc::new(RefCell::new(None));
            let deliver = {
                let sim = sim.clone();
                let seen = seen.clone();
                let epoch_at_delivery = epoch_at_delivery.clone();
                move |env: Envelope<u64>| {
                    *epoch_at_delivery.borrow_mut() = Some(env.epoch);
                    let sim2 = sim.clone();
                    let seen = seen.clone();
                    sim.spawn("deliver", async move {
                        sim2.delay(env.deliver_at - sim2.now()).await;
                        seen.borrow_mut().push((sim2.now(), env.msg, env.seq));
                    });
                }
            };
            let last = h.run(
                &sim,
                move || std::mem::take(&mut *sent.borrow_mut()),
                deliver,
            );
            let events = seen.borrow().clone();
            let epoch = *epoch_at_delivery.borrow();
            (last, events, epoch)
        });
        let (last, ref seen, epoch) = results[1];
        // Delivered exactly at the boundary instant, in the next window.
        assert_eq!(seen.as_slice(), &[(lookahead, 7, 0)]);
        assert_eq!(last, lookahead);
        // The first barrier crossing of the run has generation 1: the
        // envelope was consumed at the epoch opening the second window.
        assert_eq!(epoch, Some(1));
    }

    /// Same-time envelopes from different producers are delivered in
    /// (src_shard, seq) order regardless of thread interleaving.
    #[test]
    fn simultaneous_envelopes_deliver_in_deterministic_order() {
        let hop = us(1);
        for _ in 0..8 {
            let results = run_sharded::<(usize, u64), _, _>(3, hop, move |mut h| {
                let sim = Sim::new();
                let me = h.index();
                let order: Rc<RefCell<Vec<(usize, u64)>>> = Rc::new(RefCell::new(Vec::new()));
                // Shards 1 and 2 both fire two envelopes at shard 0, all
                // delivering at the same instant.
                let sent = RefCell::new(if me > 0 {
                    (0..2u64)
                        .map(|k| Outgoing {
                            dst_shard: 0,
                            deliver_at: hop,
                            msg: (me, k),
                        })
                        .collect()
                } else {
                    Vec::new()
                });
                let deliver = {
                    let order = order.clone();
                    move |env: Envelope<(usize, u64)>| {
                        order.borrow_mut().push(env.msg);
                    }
                };
                h.run(
                    &sim,
                    move || std::mem::take(&mut *sent.borrow_mut()),
                    deliver,
                );
                let seen = order.borrow().clone();
                seen
            });
            assert_eq!(results[0], vec![(1, 0), (1, 1), (2, 0), (2, 1)]);
        }
    }

    /// A single-shard run degenerates to windowed serial execution and
    /// reports the same final time as a plain `run()`.
    #[test]
    fn single_shard_matches_serial_run() {
        let build = |sim: &Sim| {
            let s2 = sim.clone();
            sim.spawn("work", async move {
                for _ in 0..5 {
                    s2.delay(us(3) / 2).await;
                }
            });
        };
        let serial = Sim::new();
        build(&serial);
        let serial_end = serial.run();

        let results = run_sharded::<(), _, _>(1, us(1), move |mut h| {
            let sim = Sim::new();
            build(&sim);
            h.run(&sim, Vec::new, |_| panic!("no envelopes in a 1-shard run"))
        });
        assert_eq!(results[0], serial_end);
    }

    /// A panicking worker poisons the barrier: peers panic too (no
    /// deadlock) and the original panic propagates to the caller.
    #[test]
    fn worker_panic_poisons_the_barrier() {
        let hits = AtomicUsize::new(0);
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_sharded::<(), _, _>(2, us(1), |mut h| {
                if h.index() == 0 {
                    panic!("shard 0 exploded");
                }
                hits.fetch_add(1, Ordering::SeqCst);
                let sim = Sim::new();
                h.run(&sim, Vec::new, |_| ())
            });
        }));
        assert!(out.is_err(), "the worker panic must propagate");
        assert_eq!(hits.load(Ordering::SeqCst), 1, "shard 1 must have started");
    }

    /// The control-plane all-gather returns every shard's value, indexed
    /// by shard, on every shard.
    #[test]
    fn exchange_all_gathers_in_index_order() {
        let results = run_sharded::<(), _, _>(4, us(1), |mut h| {
            let first = h.exchange(h.index() * 10);
            // A second exchange of a different type reuses the slots.
            let second = h.exchange(format!("s{}", h.index()));
            (first, second)
        });
        for (first, second) in results {
            assert_eq!(first, vec![0, 10, 20, 30]);
            assert_eq!(second, vec!["s0", "s1", "s2", "s3"]);
        }
    }
}
