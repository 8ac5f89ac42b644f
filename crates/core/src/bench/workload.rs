//! Open-loop workload engine: latency under load through the transport
//! seam.
//!
//! The paper's microbenchmarks are *closed-loop* — each operation starts
//! when the previous one finished, so they measure unloaded latency and
//! peak rate but never the region in between. This driver measures the
//! missing curve: a seeded open-loop arrival process (Poisson or bursty)
//! offers operations at a configured rate, arrivals queue in a bounded
//! per-connection queue (arrivals to a full queue are *dropped* and
//! counted, keeping the generator open-loop), and a worker issues them
//! through the backend-agnostic [`Transport`] — mixed put/get/send
//! traffic over N concurrent connections. Latency is measured from
//! *arrival* to completion, so queueing delay is included and the
//! offered-load vs. achieved-throughput knee appears together with the
//! p50/p99/p999 latency blow-up — the classic latency-under-load picture.
//!
//! With [`WorkloadSpec::app`] set, operations are whole application
//! iterations driven through the message layer instead of raw transport
//! ops: each connection gets a [`Messenger`](crate::msg::Messenger) pair,
//! the worker runs halo/allreduce/RPC steps ([`apps`]), and the node-1
//! server turns into the matching responder — so the latency-under-load
//! picture composes with the eager/rendezvous protocol.
//!
//! Each connection runs three processes over one shared state: the
//! generator, the worker loop (it drains the queue one operation at a
//! time and books latency and counters; the operation is a closure, a raw
//! put/get/send or an application iteration) and the server poll loop on
//! node 1 (it drains what has arrived, tests its exit condition, then
//! idles `SRV_POLL`).
//!
//! Everything is deterministic: arrivals are pre-generated from an
//! in-tree [`XorShift64`] stream per connection, and the simulation is
//! single-threaded, so each load point is an independent repeatable task.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use tc_desim::sync::{Flag, Signal};
use tc_desim::time::{self, Time};
use tc_desim::Sim;
use tc_trace::rng::XorShift64;
use tc_trace::series::{Sampler, SeriesSet};
use tc_trace::Snapshot;

use tc_pcie::Processor;

use crate::api::{create_pair, QueueLoc};
use crate::cluster::{Backend, Cluster};
use crate::msg::apps::{self, AppKind};
use crate::msg::{messenger_pair, MsgConfig};
use crate::transport::{CommError, Transport};

/// Arrival process of the open-loop generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Exponential inter-arrival times (memoryless).
    Poisson,
    /// On/off bursts: groups of [`BURST_LEN`] arrivals at 10× the mean
    /// rate, separated by compensating exponential gaps — same long-run
    /// offered load as [`ArrivalProcess::Poisson`], much worse tail.
    Bursty,
}

impl ArrivalProcess {
    /// Stable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            ArrivalProcess::Poisson => "poisson",
            ArrivalProcess::Bursty => "bursty",
        }
    }
}

/// Arrivals per burst for [`ArrivalProcess::Bursty`].
pub const BURST_LEN: u32 = 8;

/// Symmetric buffer bytes per connection (raw transport mix).
const BUF_LEN: u64 = 4096;
/// Symmetric buffer bytes per connection in app mode (the staging and
/// landing halves must each hold the largest app message, 16 KiB).
const APP_BUF_LEN: u64 = 64 * 1024;
/// Two-sided message payload bytes.
const MSG_LEN: usize = 32;
/// Receive window primed on the server side of each connection.
const RECV_WINDOW: usize = 8;
/// Server polling interval while waiting for quiescence.
const SRV_POLL: Time = time::ns(400);

/// One load point of the open-loop sweep.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Fabric under test.
    pub backend: Backend,
    /// Arrival process shape.
    pub process: ArrivalProcess,
    /// Concurrent connections (each its own transport pair).
    pub conns: u32,
    /// Offered load per connection, in 1000 operations per second.
    pub offered_kops: f64,
    /// Operations generated per connection (sets the horizon).
    pub ops_per_conn: u32,
    /// Bounded per-connection queue depth; arrivals beyond it drop.
    pub queue_cap: usize,
    /// Seed of the arrival stream.
    pub seed: u64,
    /// Drive application iterations through the message layer instead of
    /// the raw put/get/send mix.
    pub app: Option<AppKind>,
    /// Override of the messenger's eager/rendezvous crossover (app mode;
    /// `None` uses the backend default).
    pub eager_threshold: Option<usize>,
}

/// Per-connection accounting of one load point. The invariant
/// `arrivals == completed + dropped` holds for every connection once the
/// run quiesces, and in raw-mix mode every successfully sent two-sided
/// message is drained by the server (`received == sent`) unless the
/// receive mailbox provably overflowed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Operations the generator offered.
    pub arrivals: u64,
    /// Operations the worker finished (including transport errors).
    pub completed: u64,
    /// Arrivals shed at the full queue.
    pub dropped: u64,
    /// Operations that finished with a transport error.
    pub errors: u64,
    /// Two-sided messages the worker sent successfully (raw mix only).
    pub sent: u64,
    /// Messages the node-1 server drained (raw mix: transport messages;
    /// app mode: application requests served).
    pub received: u64,
}

/// The cells behind one connection's [`ConnStats`].
#[derive(Default)]
struct ConnCells {
    arrivals: Cell<u64>,
    completed: Cell<u64>,
    dropped: Cell<u64>,
    errors: Cell<u64>,
    sent: Cell<u64>,
    received: Cell<u64>,
}

impl ConnCells {
    fn bump(cell: &Cell<u64>) {
        cell.set(cell.get() + 1);
    }

    fn stats(&self) -> ConnStats {
        ConnStats {
            arrivals: self.arrivals.get(),
            completed: self.completed.get(),
            dropped: self.dropped.get(),
            errors: self.errors.get(),
            sent: self.sent.get(),
            received: self.received.get(),
        }
    }
}

/// Measured outcome of one load point.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// The spec that produced this point.
    pub spec: WorkloadSpec,
    /// Aggregate offered load, operations per second.
    pub offered_ops: f64,
    /// Aggregate achieved throughput, operations per second.
    pub achieved_ops: f64,
    /// Operations completed.
    pub completed: u64,
    /// Arrivals dropped at full queues (open-loop backpressure).
    pub dropped: u64,
    /// Operations that completed with a transport error.
    pub errors: u64,
    /// Median arrival-to-completion latency, ps (log2-bucket resolution).
    pub p50_ps: u64,
    /// 99th percentile latency, ps.
    pub p99_ps: u64,
    /// 99.9th percentile latency, ps.
    pub p999_ps: u64,
    /// Simulated time of the last completion.
    pub elapsed: Time,
    /// Per-connection accounting (index = connection id).
    pub per_conn: Vec<ConnStats>,
    /// Delta of every registry counter over the run (carries the
    /// `workload0.*` metrics plus all device counters).
    pub registry: Snapshot,
}

/// One queued operation kind.
#[derive(Debug, Clone, Copy)]
enum Op {
    Put(u32),
    Get(u32),
    Msg,
    /// One application iteration moving `arg` payload bytes (app mode).
    App(u32),
}

/// Pre-generate one connection's arrival schedule: `(arrival time, op)`,
/// strictly increasing times.
fn schedule(spec: &WorkloadSpec, conn: u32) -> Vec<(Time, Op)> {
    let mut rng =
        XorShift64::new(spec.seed ^ (conn as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // Uniform in (0, 1): 53 random mantissa bits, offset by half an ulp so
    // ln() never sees 0.
    let unit = |rng: &mut XorShift64| ((rng.next_u64() >> 11) as f64 + 0.5) / 2f64.powi(53);
    let mean_ps = 1e9 / spec.offered_kops; // 1e12 ps/s ÷ (kops · 1e3)
    let exp = |rng: &mut XorShift64, mean: f64| -unit(rng).ln() * mean;
    let mut t = 0f64;
    let mut out = Vec::with_capacity(spec.ops_per_conn as usize);
    for i in 0..spec.ops_per_conn {
        let dt = match spec.process {
            ArrivalProcess::Poisson => exp(&mut rng, mean_ps),
            ArrivalProcess::Bursty => {
                if i % BURST_LEN == 0 && i > 0 {
                    // Gap compensating the fast intra-burst spacing so the
                    // long-run mean inter-arrival stays `mean_ps`.
                    let intra = mean_ps / 10.0;
                    exp(
                        &mut rng,
                        BURST_LEN as f64 * mean_ps - (BURST_LEN - 1) as f64 * intra,
                    )
                } else {
                    exp(&mut rng, mean_ps / 10.0)
                }
            }
        };
        t += dt.max(1.0);
        let op = match spec.app {
            // App iterations span the eager/rendezvous crossover: halo and
            // allreduce move 256B–16K vectors, RPC draws 256/1K/4K
            // responses against a fixed small request.
            Some(AppKind::Halo) | Some(AppKind::Allreduce) => {
                Op::App(256 << (2 * rng.below(4)) as u32)
            }
            Some(AppKind::Rpc) => Op::App(256 << (2 * rng.below(3)) as u32),
            None => match rng.below(10) {
                0..=3 => Op::Put(64 << rng.below(3) as u32),
                4..=6 => Op::Get(64 << rng.below(3) as u32),
                _ => Op::Msg,
            },
        };
        out.push((t as Time, op));
    }
    out
}

/// Run one load point to completion and measure it.
pub fn run(spec: &WorkloadSpec) -> WorkloadResult {
    run_inner(&Cluster::new(spec.backend), spec, None).0
}

/// Like [`run`], but also samples windowed telemetry (offered/achieved
/// kop/s, queue depth with window highs, latency percentiles, message
/// credit stalls) every `window_ps` of simulated time. Sampling is
/// host-driven — the simulation is stepped to each window edge and the
/// registry snapshotted in between — so the measured result is
/// byte-identical to an unsampled [`run`] of the same spec.
pub fn run_with_series(spec: &WorkloadSpec, window_ps: Time) -> (WorkloadResult, SeriesSet) {
    assert!(window_ps > 0, "window must be positive");
    let (r, s) = run_inner(&Cluster::new(spec.backend), spec, Some(window_ps));
    (r, s.expect("sampling was requested"))
}

/// Offered/achieved ops in a window, expressed as kop/s (integer, for
/// deterministic series rendering).
fn window_kops(ops: u64, window_ps: Time) -> u64 {
    // ops / (window_ps · 1e-12 s) / 1e3 = ops · 1e9 / window_ps.
    (ops as f64 * 1e9 / window_ps as f64).round() as u64
}

fn run_inner(
    c: &Cluster,
    spec: &WorkloadSpec,
    window_ps: Option<Time>,
) -> (WorkloadResult, Option<SeriesSet>) {
    assert!(spec.conns > 0 && spec.offered_kops > 0.0 && spec.queue_cap > 0);
    let scope = c.sim.registry().scope("workload");
    let arrivals_ctr = scope.counter("arrivals");
    let completed_ctr = scope.counter("completed");
    let dropped_ctr = scope.counter("dropped");
    let errors_ctr = scope.counter("errors");
    let depth_gauge = scope.gauge("queue_depth");
    let latency_hist = scope.histogram("latency_ps");

    let last_done = Rc::new(Cell::new(0u64));
    let mut conns: Vec<Rc<Conn>> = Vec::with_capacity(spec.conns as usize);

    let mut msg_cfg = MsgConfig::for_caps(&spec.backend.transport_caps());
    if let Some(t) = spec.eager_threshold {
        msg_cfg.eager_threshold = t;
    }

    let mut last_arrival: Time = 0;
    for id in 0..spec.conns {
        let plan = schedule(spec, id);
        last_arrival = last_arrival.max(plan.last().map_or(0, |p| p.0));
        let conn = Rc::new(Conn {
            sim: c.sim.clone(),
            books: ConnCells::default(),
            queue: RefCell::default(),
            wakeup: c.sim.signal(),
            gen_done: Cell::new(false),
            worker_done: Flag::new(&format!("workload.conn{id}.done")),
            ctrs: WorkerCtrs {
                completed: completed_ctr.clone(),
                errors: errors_ctr.clone(),
                depth: depth_gauge.clone(),
                latency: latency_hist.clone(),
                last_done: last_done.clone(),
            },
        });
        conns.push(conn.clone());

        // Generator: open-loop arrivals into the bounded queue. Pure
        // simulated-time delays — an arrival source, not a processor.
        {
            let conn = conn.clone();
            let (arrivals, dropped) = (arrivals_ctr.clone(), dropped_ctr.clone());
            let cap = spec.queue_cap;
            c.sim.spawn(&format!("workload.gen{id}"), async move {
                let sim = &conn.sim;
                for (t_arr, op) in plan {
                    let now = sim.now();
                    if t_arr > now {
                        sim.delay(t_arr - now).await;
                    }
                    arrivals.add(1);
                    ConnCells::bump(&conn.books.arrivals);
                    let mut q = conn.queue.borrow_mut();
                    if q.len() >= cap {
                        dropped.add(1);
                        ConnCells::bump(&conn.books.dropped);
                    } else {
                        q.push_back((sim.now(), op));
                        conn.ctrs.depth.add(1);
                    }
                    drop(q);
                    conn.wakeup.notify_all();
                }
                conn.gen_done.set(true);
                conn.wakeup.notify_all();
            });
        }

        match spec.app {
            None => spawn_raw_conn(c, id, conn),
            Some(kind) => spawn_app_conn(c, id, kind, msg_cfg, conn),
        }
    }

    let start = c.sim.registry().snapshot();
    // Deterministic quiescence guard: every operation must complete and
    // every server must drain within a generous service allowance after
    // the last arrival. A run that reaches the horizon with live
    // processes is stuck — deadlocked (blocked with no timers) or
    // livelocked (servers polling a condition that can never come true) —
    // and gets dumped loudly instead of hanging the harness forever.
    let total_ops = spec.ops_per_conn as u64 * spec.conns as u64;
    let horizon = last_arrival + time::ms(2) * total_ops.max(1) + time::ms(20);
    let series = match window_ps {
        None => {
            c.sim.run_until(horizon);
            None
        }
        Some(window) => {
            let mut sampler = Sampler::new(window, &["workload0.", "msg0."], start.clone());
            let (mut prev_arr, mut prev_comp) = (0u64, 0u64);
            let mut wstart: Time = 0;
            loop {
                // Half-open window [wstart, wstart + window), like the
                // sharded coordinator's.
                let wend = wstart.saturating_add(window);
                c.sim.run_until(wend - 1);
                let snap = c.sim.registry().snapshot();
                let arr = snap.get("workload0.arrivals");
                let comp = snap.get("workload0.completed");
                sampler.push(
                    "workload.offered_kops",
                    "kop/s",
                    wstart,
                    window_kops(arr - prev_arr, window),
                );
                sampler.push(
                    "workload.achieved_kops",
                    "kop/s",
                    wstart,
                    window_kops(comp - prev_comp, window),
                );
                (prev_arr, prev_comp) = (arr, comp);
                sampler.sample(wstart, &snap);
                wstart = wend;
                if c.sim.next_event_time().is_none() || wstart >= horizon {
                    break;
                }
            }
            Some(sampler.finish())
        }
    };
    // Device daemons (NIC engines) legitimately stay alive after the
    // workload drains, so liveness alone is not a hang. Stuck means:
    // events still scheduled at the horizon (a poll loop that will never
    // satisfy its condition), or a connection whose books do not balance
    // (a generator or worker blocked forever with no timer).
    let books_balance = conns.iter().all(|conn| {
        let b = &conn.books;
        b.arrivals.get() == spec.ops_per_conn as u64
            && b.arrivals.get() == b.completed.get() + b.dropped.get()
    });
    if c.sim.next_event_time().is_some() || !books_balance {
        panic!(
            "workload ({:?}/{}/{} conns @ {} kop/s) failed to quiesce by t={} ps:\n{}",
            spec.backend,
            spec.process.label(),
            spec.conns,
            spec.offered_kops,
            horizon,
            c.sim.stuck_dump()
        );
    }
    let registry = c.sim.registry().snapshot().delta(&start);

    let completed = registry.get("workload0.completed");
    let elapsed = last_done.get();
    let lat = registry
        .histogram("workload0.latency_ps")
        .cloned()
        .unwrap_or_default();
    let result = WorkloadResult {
        spec: *spec,
        offered_ops: spec.offered_kops * 1e3 * spec.conns as f64,
        achieved_ops: if elapsed == 0 {
            0.0
        } else {
            completed as f64 / time::to_sec_f64(elapsed)
        },
        completed,
        dropped: registry.get("workload0.dropped"),
        errors: registry.get("workload0.errors"),
        p50_ps: lat.p50(),
        p99_ps: lat.p99(),
        p999_ps: lat.p999(),
        elapsed,
        per_conn: conns.iter().map(|conn| conn.books.stats()).collect(),
        registry,
    };
    (result, series)
}

/// Global counter handles threaded into each connection's worker.
struct WorkerCtrs {
    completed: tc_trace::Counter,
    errors: tc_trace::Counter,
    depth: tc_trace::Gauge,
    latency: tc_trace::Histogram,
    last_done: Rc<Cell<u64>>,
}

/// One connection's state, shared by its generator, worker and server:
/// the books, the bounded queue the generator fills and its wakeup, and
/// whether the generator and the worker have finished.
struct Conn {
    sim: Sim,
    books: ConnCells,
    queue: RefCell<VecDeque<(Time, Op)>>,
    wakeup: Signal,
    gen_done: Cell<bool>,
    worker_done: Flag,
    ctrs: WorkerCtrs,
}

impl Conn {
    /// The worker loop: issue the queued operations through `op`, one at a
    /// time in arrival order, until the generator is done and the queue
    /// is empty. Latency is measured from *arrival*, so time spent queued
    /// counts.
    async fn work(&self, mut op: impl AsyncFnMut(Op) -> Result<(), CommError>) {
        loop {
            let item = self.queue.borrow_mut().pop_front();
            match item {
                Some((t_arr, next)) => {
                    self.ctrs.depth.sub(1);
                    if op(next).await.is_err() {
                        self.ctrs.errors.add(1);
                        ConnCells::bump(&self.books.errors);
                    }
                    let now = self.sim.now();
                    self.ctrs.latency.record(now - t_arr);
                    self.ctrs.completed.add(1);
                    ConnCells::bump(&self.books.completed);
                    if now > self.ctrs.last_done.get() {
                        self.ctrs.last_done.set(now);
                    }
                }
                None if self.gen_done.get() => break,
                None => {
                    let ready = || self.gen_done.get() || !self.queue.borrow().is_empty();
                    self.wakeup.wait_until(ready).await
                }
            }
        }
        self.worker_done.set();
    }

    /// The server poll loop: `drain` serves what arrives, idling (and
    /// parking) until an empty probe finds the worker done, and returns
    /// `false` on an error that ends the service. Otherwise the loop ends
    /// once `done` holds after a drain, and idles [`SRV_POLL`] between.
    async fn serve(&self, mut drain: impl AsyncFnMut() -> bool, done: impl Fn() -> bool) {
        while drain().await && !done() {
            self.sim.delay(SRV_POLL).await;
        }
    }
}

/// Raw-mix connection: the worker issues put/get/send ops through a
/// transport pair from a GPU thread on node 0 (the paper's GPU-controlled
/// mode), and the server drains two-sided messages on node 1's CPU.
fn spawn_raw_conn(c: &Cluster, id: u32, conn: Rc<Conn>) {
    let buf_a = c.nodes[0].gpu.alloc(BUF_LEN, 256);
    let buf_b = c.nodes[1].gpu.alloc(BUF_LEN, 256);
    let (ep0, ep1) = create_pair(c, buf_a, buf_b, BUF_LEN, QueueLoc::Host);

    {
        let conn = conn.clone();
        let gpu = c.nodes[0].gpu.clone();
        c.sim.spawn(&format!("workload.conn{id}"), async move {
            let t = gpu.thread();
            let issue = async |op| match op {
                Op::Put(len) => {
                    ep0.put(&t, 0, 0, len, false).await;
                    ep0.quiet(&t).await
                }
                Op::Get(len) => ep0.get(&t, 0, 0, len).await,
                Op::Msg => {
                    let r = ep0.send(&t, &[0xA5u8; MSG_LEN]).await;
                    if r.is_ok() {
                        ConnCells::bump(&conn.books.sent);
                    }
                    r
                }
                Op::App(_) => unreachable!("raw mix has no app ops"),
            };
            conn.work(issue).await;
        });
    }

    // Termination is *explicit quiescence*, not a settle delay: the worker
    // must have finished every operation, and every message it
    // successfully sent must be either drained here or provably lost to a
    // receive-side overflow (`recv_drops` — an upper bound shared across
    // connections, so it can only end the drain early when a drop really
    // happened somewhere). A fixed delay would strand late messages on a
    // slow fabric or deep backlog.
    let cpu = c.nodes[1].cpu.clone();
    c.sim.spawn(&format!("workload.srv{id}"), async move {
        ep1.prime_recv(&cpu, RECV_WINDOW).await;
        let b = &conn.books;
        let exit = &conn.worker_done;
        let drain = async || {
            while ep1.idle_recv(&cpu, exit, SRV_POLL).await.is_some() {
                ConnCells::bump(&b.received);
            }
            true
        };
        let done = || exit.is_set() && b.received.get() + ep1.recv_drops() >= b.sent.get();
        conn.serve(drain, done).await;
    });
}

/// App-mode connection: the worker drives application iterations through
/// a messenger pair from a GPU thread on node 0, and the server runs the
/// matching responder on node 1's CPU.
fn spawn_app_conn(c: &Cluster, id: u32, kind: AppKind, cfg: MsgConfig, conn: Rc<Conn>) {
    let (m0, m1) = messenger_pair(c, APP_BUF_LEN, cfg);
    let ready = Rc::new(Cell::new(false));
    let ready_sig = c.sim.signal();

    // The worker waits for the server's receive window before the first
    // request so pre-posted-receive fabrics cannot bounce it.
    {
        let conn = conn.clone();
        let gpu = c.nodes[0].gpu.clone();
        let (ready, rsig) = (ready.clone(), ready_sig.clone());
        c.sim.spawn(&format!("workload.conn{id}"), async move {
            let t = gpu.thread();
            rsig.wait_until(|| ready.get()).await;
            let issue = async |op| {
                let Op::App(bytes) = op else {
                    unreachable!("app mode generates only app ops")
                };
                match kind {
                    AppKind::Halo => apps::halo_iter(&m0, &t, bytes).await,
                    AppKind::Allreduce => apps::allreduce_iter(&m0, &t, bytes).await,
                    AppKind::Rpc => apps::rpc_call(&m0, &t, bytes).await.map(|_| ()),
                }
            };
            conn.work(issue).await;
        });
    }

    // The worker blocks per iteration, so once it is done nothing new can
    // arrive: quiescence needs no settle delay.
    let cpu = c.nodes[1].cpu.clone();
    c.sim.spawn(&format!("workload.srv{id}"), async move {
        m1.init(&cpu).await;
        ready.set(true);
        ready_sig.notify_all();
        let b = &conn.books;
        let drain = async || loop {
            let d = match m1.idle_recv_desc(&cpu, &conn.worker_done, SRV_POLL).await {
                Ok(Some(d)) => d,
                Ok(None) => return true,
                Err(_) => {
                    ConnCells::bump(&b.errors);
                    return false;
                }
            };
            ConnCells::bump(&b.received);
            let res = match kind {
                AppKind::Halo => m1.send_staged(&cpu, d.len() as u32).await,
                AppKind::Allreduce => {
                    // Reduce the received chunk, mirroring the worker's
                    // side of the exchange.
                    cpu.instr((d.len() as u64).div_ceil(8)).await;
                    m1.send_staged(&cpu, d.len() as u32).await
                }
                AppKind::Rpc => apps::rpc_serve(&m1, &cpu, &d).await,
            };
            if res.is_err() {
                ConnCells::bump(&b.errors);
            }
        };
        conn.serve(drain, || conn.worker_done.is_set()).await;
    });
}

/// Render one sweep (grouped by backend and arrival process, assumed to
/// be contiguous in `results`) as latency-under-load tables.
pub fn render(results: &[WorkloadResult]) -> String {
    let mut out = String::new();
    out.push_str(
        "# workload: open-loop latency under load (offered vs. achieved, mixed put/get/send)\n",
    );
    let mut group: Option<(Backend, ArrivalProcess)> = None;
    for r in results {
        let key = (r.spec.backend, r.spec.process);
        if group != Some(key) {
            group = Some(key);
            let app = r
                .spec
                .app
                .map(|a| format!(" / app {}", a.label()))
                .unwrap_or_default();
            out.push_str(&format!(
                "\n[{} / {} / {} conns / queue {}{}]\n",
                r.spec.backend.transport_caps().name,
                r.spec.process.label(),
                r.spec.conns,
                r.spec.queue_cap,
                app,
            ));
            out.push_str(
                "offered(kop/s) achieved(kop/s)   p50(us)   p99(us)  p999(us)    drops   errors\n",
            );
        }
        out.push_str(&format!(
            "{:>14.1} {:>15.1} {:>9.2} {:>9.2} {:>9.2} {:>8} {:>8}\n",
            r.offered_ops / 1e3,
            r.achieved_ops / 1e3,
            time::to_us_f64(r.p50_ps),
            time::to_us_f64(r.p99_ps),
            time::to_us_f64(r.p999_ps),
            r.dropped,
            r.errors,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec(backend: Backend, kops: f64) -> WorkloadSpec {
        WorkloadSpec {
            backend,
            process: ArrivalProcess::Poisson,
            conns: 2,
            offered_kops: kops,
            ops_per_conn: 40,
            queue_cap: 16,
            seed: 7,
            app: None,
            eager_threshold: None,
        }
    }

    /// A raw-mix load point on `backend`, recorded (which takes the plain
    /// loop) or not (which parks idle servers): its result, end time and
    /// full registry, and whether any step was fast-forwarded.
    fn raw_point(backend: Backend, record: bool) -> ((String, Time, Snapshot), bool) {
        let c = Cluster::new(backend);
        if record {
            c.sim.recorder().enable();
        }
        let before = tc_desim::Work::on_thread();
        let (r, _) = run_inner(&c, &quick_spec(backend, 50.0), None);
        let parked = tc_desim::Work::on_thread().since(before).skipped > 0;
        let end = c.sim.last_event_time();
        ((format!("{r:?}"), end, c.sim.registry().snapshot()), parked)
    }

    #[test]
    fn idle_servers_park_exactly_as_they_poll() {
        for backend in [Backend::Extoll, Backend::Infiniband] {
            let (plain, plain_parked) = raw_point(backend, true);
            let (parked, did_park) = raw_point(backend, false);
            assert!(did_park && !plain_parked, "{backend:?}");
            assert_eq!(parked, plain, "{backend:?}");
        }
    }

    #[test]
    fn schedules_are_deterministic_and_ordered() {
        let spec = quick_spec(Backend::Extoll, 200.0);
        let a = schedule(&spec, 0);
        let b = schedule(&spec, 0);
        assert_eq!(a.len(), 40);
        assert!(a.iter().zip(&b).all(|(x, y)| x.0 == y.0));
        assert!(a.windows(2).all(|w| w[0].0 < w[1].0));
        // Different connections draw different streams.
        let c = schedule(&spec, 1);
        assert!(a.iter().zip(&c).any(|(x, y)| x.0 != y.0));
    }

    #[test]
    fn light_load_completes_everything_without_drops() {
        for backend in [Backend::Extoll, Backend::Infiniband] {
            // 10 kop/s per connection is below both backends' service
            // rates (EXTOLL ~6 us/op, Infiniband ~100 us/op GPU-driven).
            let r = run(&quick_spec(backend, 10.0));
            assert_eq!(r.completed, 80, "{backend:?}");
            assert_eq!(r.dropped, 0, "{backend:?}");
            assert_eq!(r.errors, 0, "{backend:?}");
            assert!(r.p50_ps > 0 && r.p999_ps >= r.p99_ps && r.p99_ps >= r.p50_ps);
            assert!(r.achieved_ops > 0.0);
        }
    }

    #[test]
    fn overload_saturates_and_drops() {
        let light = run(&quick_spec(Backend::Extoll, 50.0));
        let heavy = run(&quick_spec(Backend::Extoll, 6400.0));
        // The knee: offered load way past capacity cannot raise achieved
        // throughput proportionally, the bounded queue sheds arrivals, and
        // tail latency blows up.
        assert!(heavy.dropped > 0);
        assert!(heavy.achieved_ops < heavy.offered_ops * 0.9);
        assert!(heavy.p99_ps > light.p99_ps);
        assert_eq!(
            heavy.completed + heavy.dropped,
            2 * 40,
            "every arrival is either completed or dropped"
        );
    }

    #[test]
    fn overload_quiesces_every_connection() {
        // Regression test for the server drain: it used to settle on a
        // fixed 5 us delay after the worker finished, which could strand
        // sent-but-undrained messages. Quiescence is now explicit, so at
        // heavy overload every connection's books must balance exactly.
        for backend in [Backend::Extoll, Backend::Infiniband] {
            let r = run(&quick_spec(backend, 6400.0));
            assert_eq!(r.per_conn.len(), 2, "{backend:?}");
            let mailbox_drops: u64 = (0..2)
                .map(|n| r.registry.get(&format!("extoll{n}.velo_drops")))
                .sum();
            for (i, cs) in r.per_conn.iter().enumerate() {
                assert_eq!(
                    cs.arrivals,
                    cs.completed + cs.dropped,
                    "{backend:?} conn {i}: every arrival completes or drops"
                );
                assert_eq!(cs.arrivals, 40, "{backend:?} conn {i}");
                // Every message the worker sent was drained by the server
                // (no silent stranding), up to provable mailbox overflow.
                assert!(
                    cs.received + mailbox_drops >= cs.sent,
                    "{backend:?} conn {i}: {} received + {} drops < {} sent",
                    cs.received,
                    mailbox_drops,
                    cs.sent
                );
                assert!(cs.received <= cs.sent, "{backend:?} conn {i}");
                if mailbox_drops == 0 {
                    assert_eq!(cs.received, cs.sent, "{backend:?} conn {i}");
                }
            }
            let total: u64 = r.per_conn.iter().map(|c| c.completed).sum();
            assert_eq!(
                total, r.completed,
                "{backend:?}: per-conn sums match globals"
            );
        }
    }

    #[test]
    fn runs_are_byte_identical() {
        let spec = quick_spec(Backend::Infiniband, 400.0);
        let a = run(&spec);
        let b = run(&spec);
        assert_eq!(a.registry, b.registry);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.per_conn, b.per_conn);
    }

    #[test]
    fn sampled_run_is_byte_identical_to_unsampled() {
        // Host-driven sampling must not perturb the run: same registry
        // delta, same elapsed time, same per-conn books — only the series
        // is extra.
        let spec = quick_spec(Backend::Extoll, 200.0);
        let plain = run(&spec);
        let (sampled, series) = run_with_series(&spec, time::us(50));
        assert_eq!(plain.registry, sampled.registry);
        assert_eq!(plain.elapsed, sampled.elapsed);
        assert_eq!(plain.per_conn, sampled.per_conn);

        assert!(!series.is_empty());
        let offered = series.get("workload.offered_kops").unwrap();
        let achieved = series.get("workload.achieved_kops").unwrap();
        assert_eq!(offered.points.len(), achieved.points.len());
        // Window sums reproduce the run totals.
        let arr: u64 = series
            .get("workload0.arrivals")
            .unwrap()
            .points
            .iter()
            .map(|&(_, v)| v)
            .sum();
        assert_eq!(arr, 80);
        let comp: u64 = series
            .get("workload0.completed")
            .unwrap()
            .points
            .iter()
            .map(|&(_, v)| v)
            .sum();
        assert_eq!(comp, plain.completed);
        // Queue-depth gauge gets level and window-high series.
        assert!(series.get("workload0.queue_depth").is_some());
        assert!(series.get("workload0.queue_depth.high").is_some());
        // Windows are on the fixed grid.
        for w in offered.points.windows(2) {
            assert_eq!(w[1].0 - w[0].0, time::us(50));
        }
        // Deterministic, including the JSON rendering.
        let (_, series2) = run_with_series(&spec, time::us(50));
        assert_eq!(series.to_json("workload"), series2.to_json("workload"));
    }

    #[test]
    fn bursty_process_has_worse_tail_at_same_offered_load() {
        let mut spec = quick_spec(Backend::Extoll, 50.0);
        spec.ops_per_conn = 64;
        let poisson = run(&spec);
        spec.process = ArrivalProcess::Bursty;
        let bursty = run(&spec);
        assert!(bursty.p99_ps >= poisson.p99_ps);
    }

    #[test]
    fn app_workloads_complete_on_both_backends() {
        for backend in [Backend::Extoll, Backend::Infiniband] {
            for kind in AppKind::ALL {
                let mut spec = quick_spec(backend, 5.0);
                spec.conns = 1;
                spec.ops_per_conn = 12;
                spec.app = Some(kind);
                let r = run(&spec);
                assert_eq!(r.completed, 12, "{backend:?} {kind:?}");
                assert_eq!(r.errors, 0, "{backend:?} {kind:?}");
                assert_eq!(r.per_conn[0].received, 12, "{backend:?} {kind:?}");
                // The size ladder straddles the crossover, so both paths
                // must have carried traffic.
                assert!(
                    r.registry.get("msg0.delivered") >= 24,
                    "{backend:?} {kind:?}"
                );
                assert!(
                    r.registry.get("msg0.rndv_sends") > 0,
                    "{backend:?} {kind:?}"
                );
                assert!(
                    r.registry.get("msg0.eager_sends") > 0,
                    "{backend:?} {kind:?}"
                );
            }
        }
    }
}
