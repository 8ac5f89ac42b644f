//! `pingpong-small`: closed-loop put-with-notify ping-pong through the
//! `Transport` trait on 2-node clusters, in four cells: {EXTOLL,
//! InfiniBand} × {GPU thread, CPU thread}. This is the paper's latency
//! regime (Figs. 1a/4a): per-operation API, NIC-engine and PCIe event
//! cost dominate, and each wait polls for only a few µs.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use tc_desim::time::to_us_f64;
use tc_pcie::Processor;
use tc_putget::{AnyTransport, Backend, Cluster, QueueLoc, Transport};

use crate::host::percentile;
use crate::rep::{payload, payload_len, rng, verify, Checks, Mode, Rep};
use crate::span::{span, timed, Layer, Traced};

/// Round trips per cell, sized so one repetition takes a few host
/// seconds.
pub const ROUND_TRIPS: usize = 5_000;

/// Each node's buffer: `[tx | rx | echo]`, one maximum payload each.
const MAX_LEN: u64 = 4096;
const TX: u64 = 0;
const RX: u64 = MAX_LEN;
const ECHO: u64 = 2 * MAX_LEN;

const CELLS: [(Backend, bool); 4] = [
    (Backend::Extoll, false),
    (Backend::Extoll, true),
    (Backend::Infiniband, false),
    (Backend::Infiniband, true),
];

pub fn rep(seed: u64, mode: Mode, checks: &Rc<Checks>) -> Rep {
    let traced = mode == Mode::Traced;
    let start = Instant::now();
    let rtts = Rc::new(RefCell::new(Vec::new()));
    let mut cells = Vec::new();
    for (cell, &(backend, on_cpu)) in CELLS.iter().enumerate() {
        let c = timed(Layer::Cluster, "with_nodes", || {
            Cluster::with_nodes(backend, 2)
        });
        let bufs = [
            c.nodes[0].gpu.alloc(3 * MAX_LEN, 256),
            c.nodes[1].gpu.alloc(3 * MAX_LEN, 256),
        ];
        let tps = timed(Layer::Connect, "instantiate", || {
            backend.instantiate(&c, (0, bufs[0]), (1, bufs[1]), 3 * MAX_LEN, QueueLoc::Host)
        });
        let cell = PingPong {
            c: &c,
            bufs,
            seed,
            stream: 2 * cell as u64,
            first_op: (cell * ROUND_TRIPS) as u64,
            rtts: rtts.clone(),
            checks: checks.clone(),
        };
        let (g0, g1) = (c.nodes[0].gpu.thread(), c.nodes[1].gpu.thread());
        let (c0, c1) = (c.nodes[0].cpu.clone(), c.nodes[1].cpu.clone());
        match (on_cpu, traced) {
            (false, false) => cell.spawn([g0, g1], tps),
            (false, true) => cell.spawn(
                [Traced::new(g0, Layer::Gpu), Traced::new(g1, Layer::Gpu)],
                tps,
            ),
            (true, false) => cell.spawn([c0, c1], tps),
            (true, true) => cell.spawn(
                [Traced::new(c0, Layer::Cpu), Traced::new(c1, Layer::Cpu)],
                tps,
            ),
        }
        let before = c.sim.registry().snapshot();
        cells.push((c, before));
    }
    let mut rep = Rep {
        setup_s: start.elapsed().as_secs_f64(),
        ops: (CELLS.len() * ROUND_TRIPS) as u64,
        ..Rep::default()
    };
    if mode == Mode::SetupOnly {
        return rep;
    }
    for (c, before) in &cells {
        let end = timed(Layer::Desim, "run", || c.sim.run());
        rep.sim_time_us += to_us_f64(end);
        rep.add_counters(c, before);
    }
    let rtts = rtts.borrow();
    checks.check(rtts.len() == CELLS.len() * ROUND_TRIPS, || {
        format!(
            "{} of {} round trips completed",
            rtts.len(),
            CELLS.len() * ROUND_TRIPS
        )
    });
    for &rtt in rtts.iter() {
        rep.trail.u64(rtt);
    }
    let half: Vec<u64> = rtts.iter().map(|r| r / 2).collect();
    rep.outcomes = vec![
        (
            "sim.half_rtt_us_p50".into(),
            to_us_f64(percentile(&half, 50.0)),
            "us",
        ),
        (
            "sim.half_rtt_us_p99".into(),
            to_us_f64(percentile(&half, 99.0)),
            "us",
        ),
    ];
    rep
}

/// One cell: its cluster and what its two processes share.
struct PingPong<'a> {
    c: &'a Cluster,
    bufs: [u64; 2],
    seed: u64,
    /// First of the two random streams this cell draws from.
    stream: u64,
    first_op: u64,
    rtts: Rc<RefCell<Vec<u64>>>,
    checks: Rc<Checks>,
}

impl PingPong<'_> {
    /// Spawn the pinging node 0 and the echoing node 1 on processors `p`.
    fn spawn<P: Processor + 'static>(self, p: [P; 2], tps: (AnyTransport, AnyTransport)) {
        let [p0, p1] = p;
        let (t0, t1) = tps;
        let arm = t0.caps().remote_notify_needs_arming;
        // The payload in flight, for node 1 to verify on arrival.
        let sent = Rc::new(RefCell::new(Vec::new()));
        let mut sizes = rng(self.seed, self.stream);
        let lens: Rc<Vec<u32>> =
            Rc::new((0..ROUND_TRIPS).map(|_| payload_len(&mut sizes)).collect());
        let (bus, sim) = (self.c.bus.clone(), self.c.sim.clone());
        let [buf0, buf1] = self.bufs;
        {
            let (sent, lens, bus, checks, rtts) = (
                sent.clone(),
                lens.clone(),
                bus.clone(),
                self.checks.clone(),
                self.rtts,
            );
            let mut bytes = rng(self.seed, self.stream + 1);
            let first_op = self.first_op;
            self.c.sim.spawn("ping", async move {
                if arm {
                    span(
                        Layer::Transport,
                        "arm_arrival",
                        Some(first_op),
                        t0.arm_arrival(&p0),
                    )
                    .await;
                }
                for (i, &len) in lens.iter().enumerate() {
                    let op = Some(first_op + i as u64);
                    let data = timed(Layer::Mem, "fill", || {
                        let v = payload(&mut bytes, len);
                        bus.write(buf0 + TX, &v);
                        v
                    });
                    *sent.borrow_mut() = data;
                    let t = sim.now();
                    span(Layer::Transport, "put", op, t0.put(&p0, TX, RX, len, true)).await;
                    let quiet = span(Layer::Transport, "quiet", op, t0.quiet(&p0)).await;
                    checks.check(quiet.is_ok(), || format!("ping quiet: {quiet:?}"));
                    let got =
                        span(Layer::Transport, "wait_arrival", op, t0.wait_arrival(&p0)).await;
                    checks.check(got == Ok(len), || {
                        format!("echo notified {got:?}, sent {len}")
                    });
                    if arm {
                        span(Layer::Transport, "arm_arrival", op, t0.arm_arrival(&p0)).await;
                    }
                    rtts.borrow_mut().push(sim.now() - t);
                    let ok = verify(&bus, buf0 + ECHO, &sent.borrow());
                    checks.check(ok, || format!("echo {i} of {len} B differs"));
                }
            });
        }
        let checks = self.checks;
        let first_op = self.first_op;
        self.c.sim.spawn("echo", async move {
            if arm {
                span(
                    Layer::Transport,
                    "arm_arrival",
                    Some(first_op),
                    t1.arm_arrival(&p1),
                )
                .await;
            }
            for (i, &len) in lens.iter().enumerate() {
                let op = Some(first_op + i as u64);
                let got = span(Layer::Transport, "wait_arrival", op, t1.wait_arrival(&p1)).await;
                checks.check(got == Ok(len), || {
                    format!("ping notified {got:?}, sent {len}")
                });
                let ok = verify(&bus, buf1 + RX, &sent.borrow());
                checks.check(ok, || format!("ping {i} of {len} B differs"));
                if arm {
                    span(Layer::Transport, "arm_arrival", op, t1.arm_arrival(&p1)).await;
                }
                span(
                    Layer::Transport,
                    "put",
                    op,
                    t1.put(&p1, RX, ECHO, len, true),
                )
                .await;
                let quiet = span(Layer::Transport, "quiet", op, t1.quiet(&p1)).await;
                checks.check(quiet.is_ok(), || format!("echo quiet: {quiet:?}"));
            }
        });
    }
}
