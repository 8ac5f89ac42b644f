//! `open-loop`: seeded Poisson arrivals in simulated time on 4
//! connections per fabric. Each connection has a bounded queue; arrivals
//! to a full queue are shed and counted. GPU-thread workers on node 0
//! serve the queue with a mix of put + quiet (50%), get (25%) and RPC
//! (25%: a 64 B request and a 1 KiB reply through a `Messenger` pair,
//! answered by a CPU-thread responder on node 1). The reply goes eager
//! on EXTOLL and rendezvous on InfiniBand (above its 256 B threshold).
//!
//! Two phases use the same layers differently: at low load host time
//! follows the simulated time the responders spend idle-polling, at high
//! load it follows the op count and queueing. Latency runs from each
//! op's due time; the generator runs in simulated time, so it is never
//! late.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use tc_desim::sync::Channel;
use tc_desim::time::{to_sec_f64, to_us_f64, Time};
use tc_mem::Addr;
use tc_pcie::Processor;
use tc_putget::{
    messenger_pair_between, AnyTransport, Backend, Cluster, Messenger, MsgConfig, QueueLoc,
    Transport,
};

use crate::host::percentile;
use crate::rep::{payload, payload_len, rng, verify, Checks, Mode, Rep};
use crate::span::{span, timed, Layer, Traced};

/// Connections per fabric.
pub const CONNS: usize = 4;
/// Queued arrivals per connection before new ones are shed.
const QUEUE: usize = 64;
/// `(name, offered kop/s per connection, arrivals per connection)`,
/// sized so one repetition takes a few host seconds.
pub const PHASES: [(&str, f64, usize); 2] = [("low", 4.0, 120), ("high", 256.0, 1000)];
const FABRICS: [Backend; 2] = [Backend::Extoll, Backend::Infiniband];

const RPC_REQUEST: usize = 64;
const RPC_REPLY: usize = 1024;
/// Messenger buffers: half stages outbound rendezvous payloads, half is
/// the landing zone, so the reply fits either way.
const MSG_BUF: u64 = 4 * RPC_REPLY as u64;

/// Transport buffers. Node 0: `[put source | get destination]`; node 1:
/// `[get source (2 slots) | put landing slots]`, one landing slot per
/// arrival of the longest phase so every put stays checkable until the
/// phase ends.
const SLOT: u64 = 4096;
const PUT_SRC: u64 = 0;
const GET_DST: u64 = SLOT;
const GET_SRC_LEN: u64 = 2 * SLOT;
const LANDING: u64 = GET_SRC_LEN;

fn buf_len() -> u64 {
    let most = PHASES.iter().map(|p| p.2).max().unwrap_or(0) as u64;
    LANDING + most * SLOT
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Put,
    Get,
    Rpc,
}

/// One arrival of the schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Due time after the phase starts.
    pub due: Time,
    pub kind: Kind,
    /// Put or get length.
    pub len: u32,
    /// Get source offset.
    pub off: u64,
}

/// The seeded schedule of `n` Poisson arrivals at `kops` kop/s.
///
/// A Poisson process known to have `n` arrivals in `[0, T)` places them
/// uniformly at random, so fixing `n` and `T = n / rate` keeps the
/// offered work equal across seeds; likewise the op mix is an exact
/// 50/25/25 split in seeded order.
pub fn schedule(seed: u64, stream: u64, kops: f64, n: usize) -> Vec<Arrival> {
    let mut r = rng(seed, stream);
    let horizon_ps = (n as f64 * 1e9 / kops) as u64;
    let mut due: Vec<Time> = (0..n).map(|_| r.below(horizon_ps)).collect();
    due.sort_unstable();
    let mut kinds: Vec<Kind> = (0..n)
        .map(|i| [Kind::Put, Kind::Put, Kind::Get, Kind::Rpc][i % 4])
        .collect();
    for i in (1..n).rev() {
        kinds.swap(i, r.below(i as u64 + 1) as usize);
    }
    due.into_iter()
        .zip(kinds)
        .map(|(due, kind)| {
            let len = payload_len(&mut r);
            let off = r.below(GET_SRC_LEN - len as u64 + 1);
            Arrival {
                due,
                kind,
                len,
                off,
            }
        })
        .collect()
}

/// The RPC request for arrival `k`: its index, then seeded bytes.
fn request(seed: u64, stream: u64, k: u64) -> Vec<u8> {
    let mut v = k.to_le_bytes().to_vec();
    let mut r = rng(seed, (1 << 40) + (stream << 20) + k);
    v.extend(payload(&mut r, (RPC_REQUEST - 8) as u32));
    v
}

/// The responder's reply, a function of the whole request.
fn reply(req: &[u8]) -> Vec<u8> {
    (0..RPC_REPLY)
        .map(|i| req[i % req.len()] ^ (i as u8).wrapping_mul(31))
        .collect()
}

/// One connection: a transport pair for puts and gets, and a messenger
/// pair for RPCs, between node 0 and node 1.
struct Conn {
    tp: Rc<AnyTransport>,
    /// The node-1 side is passive, but stays alive with its peer.
    _peer: AnyTransport,
    client: Rc<Messenger<AnyTransport>>,
    server: Rc<Messenger<AnyTransport>>,
    bufs: [Addr; 2],
    get_src: Rc<Vec<u8>>,
}

/// What one connection's processes report for a phase.
#[derive(Default)]
struct Tally {
    latencies: RefCell<Vec<Time>>,
    shed: Cell<u64>,
    /// `(landing address, bytes)` of every completed put.
    puts: RefCell<Vec<(Addr, Vec<u8>)>>,
}

pub fn rep(seed: u64, mode: Mode, checks: &Rc<Checks>) -> Rep {
    let traced = mode == Mode::Traced;
    let start = Instant::now();
    let len = buf_len();
    let mut fabrics = Vec::new();
    for (f, &backend) in FABRICS.iter().enumerate() {
        let c = timed(Layer::Cluster, "with_nodes", || {
            Cluster::with_nodes(backend, 2)
        });
        let conns: Vec<Conn> = (0..CONNS)
            .map(|k| {
                let bufs = [
                    c.nodes[0].gpu.alloc(len, 256),
                    c.nodes[1].gpu.alloc(len, 256),
                ];
                let (tp, peer) = timed(Layer::Connect, "instantiate", || {
                    backend.instantiate(&c, (0, bufs[0]), (1, bufs[1]), len, QueueLoc::Host)
                });
                let cfg = MsgConfig::for_caps(&backend.transport_caps());
                let (client, server) = timed(Layer::Connect, "messenger_pair", || {
                    messenger_pair_between(&c, 0, 1, MSG_BUF, cfg)
                });
                let get_src = timed(Layer::Mem, "fill", || {
                    let v = payload(
                        &mut rng(seed, (100 + f * CONNS + k) as u64),
                        GET_SRC_LEN as u32,
                    );
                    c.bus.write(bufs[1], &v);
                    v
                });
                Conn {
                    tp: Rc::new(tp),
                    _peer: peer,
                    client: Rc::new(client),
                    server: Rc::new(server),
                    bufs,
                    get_src: Rc::new(get_src),
                }
            })
            .collect();
        let before = c.sim.registry().snapshot();
        fabrics.push((c, conns, before));
    }
    let mut rep = Rep {
        setup_s: start.elapsed().as_secs_f64(),
        ..Rep::default()
    };
    if mode == Mode::SetupOnly {
        return rep;
    }
    for (phase, &(name, kops, n)) in PHASES.iter().enumerate() {
        let mut latencies = Vec::new();
        let (mut shed, mut conn_seconds, mut host_s) = (0, 0.0, 0.0);
        for (f, (c, conns, _)) in fabrics.iter().enumerate() {
            let tallies: Vec<Rc<Tally>> = conns.iter().map(|_| Rc::default()).collect();
            for (k, (conn, tally)) in conns.iter().zip(&tallies).enumerate() {
                let stream = ((phase * FABRICS.len() + f) * CONNS + k) as u64;
                let plan = Plan {
                    c,
                    conn,
                    seed,
                    stream,
                    op_base: stream << 32,
                    sched: schedule(seed, stream, kops, n),
                    tally: tally.clone(),
                    checks: checks.clone(),
                };
                let (gpu, cpu) = (c.nodes[0].gpu.thread(), c.nodes[1].cpu.clone());
                if traced {
                    plan.spawn(Traced::new(gpu, Layer::Gpu), Traced::new(cpu, Layer::Cpu));
                } else {
                    plan.spawn(gpu, cpu);
                }
            }
            let t0 = c.sim.now();
            let host = Instant::now();
            let end = timed(Layer::Desim, "run", || c.sim.run());
            host_s += host.elapsed().as_secs_f64();
            rep.sim_time_us += to_us_f64(end - t0);
            conn_seconds += CONNS as f64 * to_sec_f64(end - t0);
            for tally in &tallies {
                for (addr, data) in tally.puts.borrow().iter() {
                    let ok = verify(&c.bus, *addr, data);
                    checks.check(ok, || {
                        format!("put of {} B at {addr:#x} differs", data.len())
                    });
                }
                let lat = tally.latencies.borrow();
                for &l in lat.iter() {
                    rep.trail.u64(l);
                }
                rep.trail.u64(tally.shed.get());
                checks.check(lat.len() as u64 + tally.shed.get() == n as u64, || {
                    format!(
                        "{} served + {} shed of {n} arrivals",
                        lat.len(),
                        tally.shed.get()
                    )
                });
                latencies.extend_from_slice(&lat);
                shed += tally.shed.get();
            }
        }
        let offered = (n * CONNS * FABRICS.len()) as f64;
        rep.ops += latencies.len() as u64;
        rep.host.push((format!("host.phase_{name}_s"), host_s, "s"));
        rep.outcomes.extend([
            (
                format!("sim.lat_us_p50_{name}"),
                to_us_f64(percentile(&latencies, 50.0)),
                "us",
            ),
            (
                format!("sim.lat_us_p99_{name}"),
                to_us_f64(percentile(&latencies, 99.0)),
                "us",
            ),
            (
                format!("sim.drop_frac_{name}"),
                shed as f64 / offered,
                "ratio",
            ),
            (
                format!("sim.achieved_kops_{name}"),
                latencies.len() as f64 / conn_seconds / 1e3,
                "kop/s",
            ),
        ]);
    }
    for (c, _, before) in &fabrics {
        rep.add_counters(c, before);
    }
    rep
}

/// One connection's processes for one phase.
struct Plan<'a> {
    c: &'a Cluster,
    conn: &'a Conn,
    seed: u64,
    stream: u64,
    /// Operation ids of this connection and phase start here.
    op_base: u64,
    sched: Vec<Arrival>,
    tally: Rc<Tally>,
    checks: Rc<Checks>,
}

impl Plan<'_> {
    /// Spawn the generator, the worker on `gpu` and the RPC responder on
    /// `cpu`.
    fn spawn<G: Processor + 'static, C: Processor + 'static>(self, gpu: G, cpu: C) {
        let sim = self.c.sim.clone();
        let queue: Channel<(u64, Arrival)> = Channel::new(&sim, QUEUE);
        let t0 = sim.now();
        {
            let (sim, queue, tally, sched) =
                (sim.clone(), queue.clone(), self.tally.clone(), self.sched);
            self.c.sim.spawn("generator", async move {
                for (k, a) in sched.into_iter().enumerate() {
                    let due = t0 + a.due;
                    if due > sim.now() {
                        sim.delay(due - sim.now()).await;
                    }
                    if queue.try_send((k as u64, a)).is_err() {
                        tally.shed.set(tally.shed.get() + 1);
                    }
                }
                queue.close();
            });
        }
        let (seed, stream) = (self.seed, self.stream);
        // Set once the responder's messenger has posted its receives.
        let (ready, up) = (sim.signal(), Rc::new(Cell::new(false)));
        {
            let (server, checks, ready, up) = (
                self.conn.server.clone(),
                self.checks.clone(),
                ready.clone(),
                up.clone(),
            );
            self.c.sim.spawn("responder", async move {
                span(Layer::Msg, "init", None, server.init(&cpu)).await;
                up.set(true);
                ready.notify_all();
                loop {
                    let req = span(Layer::Msg, "recv", None, server.recv(&cpu)).await;
                    let Ok(req) = req else {
                        checks.check(false, || format!("rpc request: {req:?}"));
                        return;
                    };
                    if req.is_empty() {
                        return;
                    }
                    let k = u64::from_le_bytes(req[..8].try_into().expect("8-byte index"));
                    checks.check(req == request(seed, stream, k), || {
                        format!("rpc request {k} differs")
                    });
                    let sent =
                        span(Layer::Msg, "send", Some(k), server.send(&cpu, &reply(&req))).await;
                    checks.check(sent.is_ok(), || format!("rpc reply send: {sent:?}"));
                }
            });
        }
        let conn = self.conn;
        let (tp, client, bufs, get_src) = (
            conn.tp.clone(),
            conn.client.clone(),
            conn.bufs,
            conn.get_src.clone(),
        );
        let (bus, tally, checks, op_base) =
            (self.c.bus.clone(), self.tally, self.checks, self.op_base);
        self.c.sim.spawn("worker", async move {
            // InfiniBand receives must be posted before the first request.
            ready.wait_until(|| up.get()).await;
            let mut fill = rng(seed, 1000 + stream);
            while let Some((k, a)) = queue.recv().await {
                let op = Some(op_base + k);
                match a.kind {
                    Kind::Put => {
                        let data = timed(Layer::Mem, "fill", || {
                            let v = payload(&mut fill, a.len);
                            bus.write(bufs[0] + PUT_SRC, &v);
                            v
                        });
                        let dst = LANDING + k * SLOT;
                        span(
                            Layer::Transport,
                            "put",
                            op,
                            tp.put(&gpu, PUT_SRC, dst, a.len, false),
                        )
                        .await;
                        let quiet = span(Layer::Transport, "quiet", op, tp.quiet(&gpu)).await;
                        checks.check(quiet.is_ok(), || format!("put quiet: {quiet:?}"));
                        tally.puts.borrow_mut().push((bufs[1] + dst, data));
                    }
                    Kind::Get => {
                        timed(Layer::Mem, "fill", || {
                            bus.write(bufs[0] + GET_DST, &vec![0; a.len as usize])
                        });
                        let got = span(
                            Layer::Transport,
                            "get",
                            op,
                            tp.get(&gpu, GET_DST, a.off, a.len),
                        )
                        .await;
                        let want = &get_src[a.off as usize..][..a.len as usize];
                        let ok = got.is_ok() && verify(&bus, bufs[0] + GET_DST, want);
                        checks.check(ok, || format!("get of {} B at {}: {got:?}", a.len, a.off));
                    }
                    Kind::Rpc => {
                        let req = request(seed, stream, k);
                        let sent = span(Layer::Msg, "send", op, client.send(&gpu, &req)).await;
                        checks.check(sent.is_ok(), || format!("rpc send: {sent:?}"));
                        let got = span(Layer::Msg, "recv", op, client.recv(&gpu)).await;
                        let ok = got.as_ref().is_ok_and(|r| *r == reply(&req));
                        checks.check(ok, || format!("rpc reply {k} differs"));
                    }
                }
                tally.latencies.borrow_mut().push(sim.now() - (t0 + a.due));
            }
            let stop = span(Layer::Msg, "send", None, client.send(&gpu, &[])).await;
            checks.check(stop.is_ok(), || format!("rpc stop: {stop:?}"));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_follow_the_seed() {
        let a = schedule(1, 0, 256.0, 500);
        assert_eq!(a, schedule(1, 0, 256.0, 500));
        assert_ne!(a, schedule(2, 0, 256.0, 500));
        assert_ne!(a, schedule(1, 1, 256.0, 500));
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
    }

    #[test]
    fn schedules_have_the_offered_rate_and_mix() {
        for seed in 1..=3 {
            let a = schedule(seed, 0, 4.0, 4000);
            // 4 kop/s is a 250 µs mean gap.
            let mean_gap_us = to_us_f64(a.last().unwrap().due) / a.len() as f64;
            assert!((mean_gap_us - 250.0).abs() < 1.0, "{mean_gap_us}");
            let count = |k| a.iter().filter(|x| x.kind == k).count();
            assert_eq!(
                [count(Kind::Put), count(Kind::Get), count(Kind::Rpc)],
                [2000, 1000, 1000]
            );
            assert!(a.iter().all(|x| x.off + x.len as u64 <= GET_SRC_LEN));
        }
    }
}
