//! Ping-pong latency microbenchmarks (Figs. 1a and 4a) and the polling
//! time-split instrumentation behind Table I and Fig. 3.
//!
//! Every two-node latency driver runs one loop pair: `ping` on node 0 and
//! `pong` on node 1. The configurations differ only in who posts the work
//! request and how the arrival is detected (§V), so each passes those
//! steps in as async closures. `Timing` measures node 0's side: it opens
//! the timed window at the first timed iteration, splits each iteration
//! at the instant `send` returns into put time and poll time, and closes
//! after the last. Drivers that bypass the transport seam build their
//! endpoints with one of two rigs below it: `RmaPair` (raw EXTOLL ports)
//! and `VerbsPair` (raw verbs).

use std::cell::Cell;
use std::rc::Rc;

use tc_desim::sync::Flag;
use tc_desim::time::{self, Time};
use tc_extoll::{RmaPort, WrFlags};
use tc_gpu::GpuThread;
use tc_ib::{
    Access, BufLoc, CqeStatus, IbvContext, IbvCq, IbvQp, MemoryRegion, SendOpcode, SendWr,
};
use tc_mem::Addr;
use tc_pcie::{le, LoadKind, Processor, Step};
use tc_trace::Snapshot;

use crate::api::{create_pair, QueueLoc};
use crate::cluster::{Backend, Cluster, ClusterConfig};
use crate::flag::{AssistChannel, Idle, Proxy, ARRIVED, DONE, REQUEST};
use crate::transport::{AnyTransport, Transport};

use super::{ExtollMode, IbMode, Window};

/// Result of one ping-pong run.
#[derive(Debug, Clone)]
pub struct PingPongResult {
    /// Payload size in bytes.
    pub size: u64,
    /// Timed iterations.
    pub iters: u32,
    /// Half round-trip time (the paper's "latency").
    pub half_rtt: Time,
    /// Delta of *every* registry counter (all layers, all nodes) over the
    /// timed region: the Table I/II rows read node 0's GPU counters here
    /// (`gpu0.sysmem.reads`, `gpu0.instructions`, …).
    pub registry: Snapshot,
    /// Average time node 0 spent generating/posting work requests per
    /// iteration.
    pub put_time: Time,
    /// Average time node 0 spent polling for completion/arrival per
    /// iteration.
    pub poll_time: Time,
}

impl PingPongResult {
    /// Latency in microseconds.
    pub fn latency_us(&self) -> f64 {
        time::to_us_f64(self.half_rtt)
    }
}

/// Stamp iteration `i`'s marker (`i + 1`, so zeroed memory never matches)
/// into the last 8 bytes of the `len`-byte payload buffer `buf`. `fence`
/// orders the stamp before the NIC reads the buffer, as a device kernel
/// must; the host's stores need no fence.
pub(crate) async fn write_marker<P: Processor>(p: &P, buf: Addr, len: u64, i: u32, fence: bool) {
    p.st_u64(buf + len - 8, u64::from(i) + 1).await;
    if fence {
        p.fence().await;
    }
}

/// Spin until the marker at the tail of `buf` reaches iteration `i`'s.
pub(crate) async fn poll_marker<P: Processor>(p: &P, buf: Addr, len: u64, i: u32) {
    // Compare, branch, recompute the volatile pointer: 4 instructions.
    let marker = Step::load(buf + len - 8, LoadKind::U64);
    let probe = [marker, Step::Instr(4), Step::Retire(None)];
    p.spin_until(&probe, |b| le(b) == u64::from(i) + 1).await;
}

/// Node 0's measurement of the timed region, shared by every ping-pong:
/// the window opened at the first timed iteration, and the per-iteration
/// put and poll sums.
pub(crate) struct Timing {
    window: Window,
    warmup: u32,
    put_sum: Cell<Time>,
    poll_sum: Cell<Time>,
}

impl Timing {
    /// Time the iterations after the first `warmup`.
    pub(crate) fn new(c: &Cluster, warmup: u32) -> Rc<Self> {
        Rc::new(Timing {
            window: Window::new(&c.sim),
            warmup,
            put_sum: Cell::new(0),
            poll_sum: Cell::new(0),
        })
    }

    fn now(&self) -> Time {
        self.window.sim.now()
    }

    /// Start of iteration `i`: the timed region opens at iteration
    /// `warmup`. Returns the iteration's start instant.
    fn begin(&self, i: u32) -> Time {
        if i == self.warmup {
            self.window.open();
        }
        self.now()
    }

    /// End of iteration `i`, which posted its put over `[t0, t1)` and
    /// polled from `t1` until now.
    fn split(&self, i: u32, t0: Time, t1: Time) {
        if i >= self.warmup {
            let t2 = self.now();
            self.put_sum.set(self.put_sum.get() + (t1 - t0));
            self.poll_sum.set(self.poll_sum.get() + (t2 - t1));
        }
    }

    /// The measurement of `iters` timed iterations of `size` bytes.
    pub(crate) fn finish(&self, size: u64, iters: u32) -> PingPongResult {
        // An empty window reads as 1 ps, which still halves to 0.
        let (span, registry) = self.window.finish();
        PingPongResult {
            size,
            iters,
            half_rtt: span / (iters as u64) / 2,
            registry,
            put_time: self.put_sum.get() / iters as u64,
            poll_time: self.poll_sum.get() / iters as u64,
        }
    }
}

/// Node 0's side of every ping-pong: iteration `i` runs `send(i)`, which
/// posts the ping, then `wait(i)`, which waits for whatever the mode
/// completes locally and for the pong. `tm` times the iterations and
/// closes its window after the last.
pub(crate) async fn ping(
    tm: &Timing,
    total: u32,
    mut send: impl AsyncFnMut(u32),
    mut wait: impl AsyncFnMut(u32),
) {
    for i in 0..total {
        let t0 = tm.begin(i);
        send(i).await;
        let t1 = tm.now();
        wait(i).await;
        tm.split(i, t0, t1);
    }
    tm.window.close();
}

/// Node 1's side: `wait(i)` for each ping, then `answer(i)` it.
pub(crate) async fn pong(
    total: u32,
    mut wait: impl AsyncFnMut(u32),
    mut answer: impl AsyncFnMut(u32),
) {
    for i in 0..total {
        wait(i).await;
        answer(i).await;
    }
}

/// Raw EXTOLL endpoints below the transport seam: four `len`-byte GPU
/// buffers `tx0, rx0, tx1, rx1`, registered in that order, then one RMA
/// port per node.
pub(crate) struct RmaPair {
    port: [RmaPort; 2],
    nla: [u64; 4],
}

impl RmaPair {
    pub(crate) fn new(c: &Cluster, len: u64) -> Self {
        let bufs = [0, 0, 1, 1].map(|n| c.nodes[n].gpu.alloc(len, 256));
        let nla = [0, 1, 2, 3].map(|k| c.nodes[k / 2].extoll().register_memory(bufs[k], len));
        let port = [0, 1].map(|n| c.nodes[n].extoll().open_port());
        RmaPair { port, nla }
    }

    /// Node `n` puts `len` bytes from its `tx` into the peer's `rx` with
    /// `flags` (as one warp-collective store if `warp`), then retires the
    /// requester notification.
    pub(crate) async fn put(&self, t: &GpuThread, n: usize, len: u32, flags: WrFlags, warp: bool) {
        let (port, peer) = (&self.port[n], self.port[1 - n].index());
        let (src, dst) = (self.nla[2 * n], self.nla[3 - 2 * n]);
        if warp {
            port.post_put_warp(t, peer, src, dst, len, flags).await;
        } else {
            port.post_put(t, peer, src, dst, len, flags).await;
        }
        port.requester.wait(t).await;
        port.requester.free(t).await;
    }

    /// Node `n` waits for and retires a completer notification: the
    /// peer's put has landed.
    pub(crate) async fn arrival(&self, t: &GpuThread, n: usize) {
        self.port[n].completer.wait(t).await;
        self.port[n].completer.free(t).await;
    }
}

/// Raw verbs endpoints below the transport seam, set up in this order:
/// both contexts, their CQs, their QPs (one CQ serves both directions of
/// a node), the connection, and MRs over `bufs` (`tx0, rx0, tx1, rx1`).
/// `write[n]` is node `n`'s signaled RDMA write of its whole `tx` buffer
/// into the peer's `rx`.
pub(crate) struct VerbsPair {
    pub(crate) qp: [IbvQp; 2],
    pub(crate) cq: [Rc<IbvCq>; 2],
    pub(crate) bufs: [Addr; 4],
    pub(crate) rx_mr: [MemoryRegion; 2],
    pub(crate) write: [SendWr; 2],
}

impl VerbsPair {
    /// `gpu_driven` keeps the contexts' software state in device memory,
    /// as GPU-controlled communication does; `queues` places the CQ and
    /// QP buffers.
    pub(crate) fn new(
        c: &Cluster,
        bufs: [Addr; 4],
        len: u64,
        gpu_driven: bool,
        queues: BufLoc,
    ) -> Self {
        let ctx = [0, 1].map(|n| {
            let node = &c.nodes[n];
            let (gpu, state) = if gpu_driven {
                (Some(node.gpu.clone()), BufLoc::Gpu)
            } else {
                (None, BufLoc::Host)
            };
            IbvContext::new(node.ib().clone(), node.host_heap.clone(), gpu, state)
        });
        let cq = ctx.each_ref().map(|x| x.create_cq(queues));
        let qp = [0, 1].map(|n| ctx[n].create_qp(cq[n].clone(), cq[n].clone(), queues));
        qp[0].connect(qp[1].qpn());
        qp[1].connect(qp[0].qpn());
        let [tx0, rx0, tx1, rx1] =
            [0, 1, 2, 3].map(|k| ctx[k / 2].reg_mr(bufs[k], len, Access::full()));
        let write = |tx: MemoryRegion, rx: MemoryRegion| SendWr {
            opcode: SendOpcode::RdmaWrite,
            laddr: tx.addr,
            lkey: tx.lkey,
            raddr: rx.addr,
            rkey: rx.rkey,
            len: len as u32,
            imm: 0,
            signaled: true,
        };
        VerbsPair {
            qp,
            cq,
            bufs,
            rx_mr: [rx0, rx1],
            write: [write(tx0, rx1), write(tx1, rx0)],
        }
    }
}

/// Run the EXTOLL ping-pong of Fig. 1a.
///
/// `warmup` untimed iterations precede `iters` timed ones. Both GPUs hold
/// their payload buffers in device memory; what varies per [`ExtollMode`]
/// is who posts the put and how completion/arrival is detected.
pub fn extoll_pingpong(mode: ExtollMode, size: u64, iters: u32, warmup: u32) -> PingPongResult {
    extoll_pingpong_cfg(ClusterConfig::extoll(), mode, size, iters, warmup)
}

/// [`extoll_pingpong`] with an explicit cluster configuration (used by the
/// ablation experiments).
pub fn extoll_pingpong_cfg(
    cluster_cfg: ClusterConfig,
    mode: ExtollMode,
    size: u64,
    iters: u32,
    warmup: u32,
) -> PingPongResult {
    assert_eq!(cluster_cfg.backend, Backend::Extoll);
    let c = Cluster::with_config(cluster_cfg);
    let buf_len = size.max(8);
    let [tx0, rx0, tx1, rx1] = [0, 0, 1, 1].map(|n| c.nodes[n].gpu.alloc(buf_len, 256));
    // Pair "a" is the ping path (node0 tx0 -> node1 rx1): a0 posts, a1
    // observes arrival. Pair "b" is the pong path (node1 tx1 -> node0 rx0):
    // b1 posts, b0 observes arrival.
    let (a0, a1) = create_pair(&c, tx0, rx1, buf_len, QueueLoc::Host);
    let (b0, b1) = create_pair(&c, rx0, tx1, buf_len, QueueLoc::Host);
    let total = warmup + iters;
    let tm = Timing::new(&c, warmup);
    let [gpu0, gpu1] = [0, 1].map(|n| c.nodes[n].gpu.clone());

    match mode {
        // Same protocol, different processor.
        ExtollMode::Dev2DevDirect => {
            let threads = [gpu0.thread(), gpu1.thread()];
            let eps = [a0, a1, b0, b1];
            transport_pingpong(&c, &tm, threads, eps, size as u32, total, Some(tx0));
        }
        ExtollMode::HostControlled => {
            let cpus = [0, 1].map(|n| c.nodes[n].cpu.clone());
            transport_pingpong(&c, &tm, cpus, [a0, a1, b0, b1], size as u32, total, None);
        }
        ExtollMode::Dev2DevPollOnGpu => {
            // No notifications at all: poll the last payload element.
            let p0 = a0.extoll().rma_port().clone();
            let p1 = b1.extoll().rma_port().clone();
            let (nla_tx0, nla_rx1) = extoll_nlas(&c, tx0, rx1, buf_len);
            let (nla_tx1, nla_rx0) = extoll_nlas(&c, tx1, rx0, buf_len);
            let peer0 = a1.extoll().rma_port().index();
            let peer1 = b0.extoll().rma_port().index();
            let flags = WrFlags::default();
            let tm = tm.clone();
            c.sim.spawn("pp.node0", async move {
                let gt = gpu0.thread();
                let send = async |i| {
                    write_marker(&gt, tx0, buf_len, i, true).await;
                    p0.post_put(&gt, peer0, nla_tx0, nla_rx1, buf_len as u32, flags)
                        .await;
                };
                let wait = async |i| poll_marker(&gt, rx0, buf_len, i).await;
                ping(&tm, total, send, wait).await;
            });
            c.sim.spawn("pp.node1", async move {
                let gt = gpu1.thread();
                let wait = async |i| poll_marker(&gt, rx1, buf_len, i).await;
                let answer = async |i| {
                    write_marker(&gt, tx1, buf_len, i, true).await;
                    p1.post_put(&gt, peer1, nla_tx1, nla_rx0, buf_len as u32, flags)
                        .await;
                };
                pong(total, wait, answer).await;
            });
        }
        ExtollMode::Dev2DevAssisted => {
            // One proxy per node: serves put requests and forwards arrival
            // notifications. The channels are plain copies into both the
            // proxy and the GPU loops below.
            let stop = Flag::new("pp.stop");
            let [(snd0, arr0), (snd1, arr1)] =
                [(0, a0, b0), (1, b1, a1)].map(|(node, put_ep, arr_ep)| {
                    let (heap, cpu) = (&c.nodes[node].host_heap, c.nodes[node].cpu.clone());
                    let (snd, arr) = (AssistChannel::new(heap), AssistChannel::new(heap));
                    Proxy {
                        requests: vec![(snd, Rc::new(put_ep))],
                        arrival: Some((arr, Rc::new(arr_ep))),
                        notify: true,
                        idle: Idle::EveryPass(time::ns(60)),
                    }
                    .spawn(&format!("pp.proxy{node}"), cpu, &stop);
                    (snd, arr)
                });
            let tm = tm.clone();
            c.sim.spawn("pp.node0", async move {
                let gt = gpu0.thread();
                let send = async |_| snd0.request(&gt, size, REQUEST).await;
                let wait = async |_| {
                    snd0.wait_state(&gt, DONE).await;
                    arr0.wait_state(&gt, ARRIVED).await;
                };
                ping(&tm, total, send, wait).await;
                stop.set();
            });
            c.sim.spawn("pp.node1", async move {
                let gt = gpu1.thread();
                let wait = async |_| {
                    arr1.wait_state(&gt, ARRIVED).await;
                };
                let answer = async |_| {
                    snd1.request(&gt, size, REQUEST).await;
                    snd1.wait_state(&gt, DONE).await;
                };
                pong(total, wait, answer).await;
            });
        }
    }

    c.sim.run();
    tm.finish(size, iters)
}

/// The notifying ping-pong over the transport seam, on processors `p`:
/// node 0 puts `len` bytes over `a0` and waits for the local completion
/// and for the pong on `b0`; node 1 answers each arrival on `a1` over `b1`.
/// Arrivals are armed up front and after each one, which posts a receive
/// for InfiniBand's write-with-immediate and does nothing on EXTOLL. A
/// device kernel stamps its payload buffer `refresh` before each put, as
/// the paper's benchmark does; the host sends without.
fn transport_pingpong<P: Processor + 'static>(
    c: &Cluster,
    tm: &Rc<Timing>,
    [p0, p1]: [P; 2],
    [a0, a1, b0, b1]: [AnyTransport; 4],
    len: u32,
    total: u32,
    refresh: Option<Addr>,
) {
    let tm = tm.clone();
    c.sim.spawn("pp.node0", async move {
        b0.arm_arrival(&p0).await;
        let send = async |i| {
            if let Some(tx0) = refresh {
                write_marker(&p0, tx0, u64::from(len).max(8), i, true).await;
            }
            a0.put(&p0, 0, 0, len, true).await;
        };
        let wait = async |_| {
            a0.quiet(&p0).await.unwrap();
            b0.wait_arrival(&p0).await.unwrap();
            b0.arm_arrival(&p0).await;
        };
        ping(&tm, total, send, wait).await;
    });
    c.sim.spawn("pp.node1", async move {
        a1.arm_arrival(&p1).await;
        let wait = async |_| {
            a1.wait_arrival(&p1).await.unwrap();
            a1.arm_arrival(&p1).await;
        };
        let answer = async |_| {
            b1.put(&p1, 0, 0, len, true).await;
            b1.quiet(&p1).await.unwrap();
        };
        pong(total, wait, answer).await;
    });
}

/// The RDMA-write ping-pong over `v`, spawned as `{name}.node0` and
/// `{name}.node1` on processors `p`: each side stamps its `tx` buffer
/// (fenced if `fence`, see [`write_marker`]), posts its write and waits
/// for the send completion, and the receiver polls the stamp in its `rx`.
pub(crate) fn write_pingpong<P: Processor + 'static>(
    c: &Cluster,
    tm: &Rc<Timing>,
    name: &str,
    [p0, p1]: [P; 2],
    v: VerbsPair,
    total: u32,
    fence: bool,
) {
    let VerbsPair {
        qp: [qp0, qp1],
        cq: [cq0, cq1],
        bufs: [tx0, rx0, tx1, rx1],
        write: [w0, w1],
        ..
    } = v;
    let len = u64::from(w0.len);
    let tm = tm.clone();
    c.sim.spawn(&format!("{name}.node0"), async move {
        let send = async |i| {
            write_marker(&p0, tx0, len, i, fence).await;
            qp0.post_send(&p0, &w0).await;
        };
        let wait = async |i| {
            assert_eq!(cq0.wait(&p0).await.status, CqeStatus::Success);
            poll_marker(&p0, rx0, len, i).await;
        };
        ping(&tm, total, send, wait).await;
    });
    c.sim.spawn(&format!("{name}.node1"), async move {
        let wait = async |i| poll_marker(&p1, rx1, len, i).await;
        let answer = async |i| {
            write_marker(&p1, tx1, len, i, fence).await;
            qp1.post_send(&p1, &w1).await;
            assert_eq!(cq1.wait(&p1).await.status, CqeStatus::Success);
        };
        pong(total, wait, answer).await;
    });
}

fn extoll_nlas(c: &Cluster, local: Addr, remote: Addr, len: u64) -> (u64, u64) {
    let n0 = c.nodes[0].extoll();
    let n1 = c.nodes[1].extoll();
    let (ln, rn) = if tc_mem::layout::node_of(local) == 0 {
        (
            n0.register_memory(local, len),
            n1.register_memory(remote, len),
        )
    } else {
        (
            n1.register_memory(local, len),
            n0.register_memory(remote, len),
        )
    };
    (ln, rn)
}

/// Run the Infiniband ping-pong of Fig. 4a.
pub fn ib_pingpong(mode: IbMode, size: u64, iters: u32, warmup: u32) -> PingPongResult {
    let c = Cluster::new(Backend::Infiniband);
    let buf_len = size.max(8);
    let bufs = [0, 0, 1, 1].map(|n| c.nodes[n].gpu.alloc(buf_len, 256));
    let [tx0, rx0, tx1, rx1] = bufs;
    let total = warmup + iters;
    let tm = Timing::new(&c, warmup);
    let [gpu0, gpu1] = [0, 1].map(|n| c.nodes[n].gpu.clone());

    match mode {
        IbMode::Dev2DevBufOnGpu | IbMode::Dev2DevBufOnHost => {
            let loc = if mode == IbMode::Dev2DevBufOnGpu {
                BufLoc::Gpu
            } else {
                BufLoc::Host
            };
            // GPU-driven contexts: software state lives in device memory.
            let v = VerbsPair::new(&c, bufs, buf_len, true, loc);
            let threads = [gpu0.thread(), gpu1.thread()];
            write_pingpong(&c, &tm, "pp", threads, v, total, true);
        }
        IbMode::Dev2DevAssisted => {
            // CPU-driven verbs (host queues), GPU triggers via flags and
            // polls arrival in its device memory.
            let (a0, _a1) = create_pair(&c, tx0, rx1, buf_len, QueueLoc::Host);
            let (_b0, b1) = create_pair(&c, rx0, tx1, buf_len, QueueLoc::Host);
            let stop = Flag::new("pp.stop");
            let snd0 = AssistChannel::new(&c.nodes[0].host_heap);
            let snd1 = AssistChannel::new(&c.nodes[1].host_heap);
            for (node, ep, ch) in [(0, a0, snd0), (1, b1, snd1)] {
                let cpu = c.nodes[node].cpu.clone();
                Proxy {
                    requests: vec![(ch, Rc::new(ep))],
                    arrival: None,
                    notify: false,
                    idle: Idle::EveryPass(time::ns(60)),
                }
                .spawn(&format!("pp.proxy{node}"), cpu, &stop);
            }
            let tm = tm.clone();
            c.sim.spawn("pp.node0", async move {
                let gt = gpu0.thread();
                let send = async |i| {
                    write_marker(&gt, tx0, buf_len, i, true).await;
                    snd0.request(&gt, buf_len, REQUEST).await;
                };
                let wait = async |i| {
                    snd0.wait_state(&gt, DONE).await;
                    poll_marker(&gt, rx0, buf_len, i).await;
                };
                ping(&tm, total, send, wait).await;
                stop.set();
            });
            c.sim.spawn("pp.node1", async move {
                let gt = gpu1.thread();
                let wait = async |i| poll_marker(&gt, rx1, buf_len, i).await;
                let answer = async |i| {
                    write_marker(&gt, tx1, buf_len, i, true).await;
                    snd1.request(&gt, buf_len, REQUEST).await;
                    snd1.wait_state(&gt, DONE).await;
                };
                pong(total, wait, answer).await;
            });
        }
        IbMode::HostControlled => {
            // CPU-driven with write-with-immediate synchronization, since
            // the GPUDirect patch does not let the host poll GPU memory.
            let (a0, a1) = create_pair(&c, tx0, rx1, buf_len, QueueLoc::Host);
            let (b0, b1) = create_pair(&c, rx0, tx1, buf_len, QueueLoc::Host);
            let cpus = [0, 1].map(|n| c.nodes[n].cpu.clone());
            let eps = [a0, a1, b0, b1];
            transport_pingpong(&c, &tm, cpus, eps, buf_len as u32, total, None);
        }
    }

    c.sim.run();
    tm.finish(size, iters)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extoll_direct_latency_reasonable() {
        let r = extoll_pingpong(ExtollMode::Dev2DevDirect, 4, 20, 2);
        // Single-digit-to-tens of microseconds for tiny messages.
        assert!(
            r.latency_us() > 1.0 && r.latency_us() < 50.0,
            "{}",
            r.latency_us()
        );
        assert!(r.registry.get("gpu0.sysmem.writes") > 0);
    }

    #[test]
    fn extoll_pollongpu_beats_direct() {
        let direct = extoll_pingpong(ExtollMode::Dev2DevDirect, 1024, 20, 2);
        let poll = extoll_pingpong(ExtollMode::Dev2DevPollOnGpu, 1024, 20, 2);
        assert!(
            poll.half_rtt < direct.half_rtt,
            "pollOnGPU {} vs direct {}",
            poll.latency_us(),
            direct.latency_us()
        );
    }

    #[test]
    fn extoll_host_controlled_beats_gpu_direct() {
        let direct = extoll_pingpong(ExtollMode::Dev2DevDirect, 64, 20, 2);
        let host = extoll_pingpong(ExtollMode::HostControlled, 64, 20, 2);
        assert!(host.half_rtt < direct.half_rtt);
    }

    #[test]
    fn ib_gpu_latency_much_higher_than_host() {
        let gpu = ib_pingpong(IbMode::Dev2DevBufOnGpu, 4, 15, 2);
        let host = ib_pingpong(IbMode::HostControlled, 4, 15, 2);
        assert!(
            gpu.half_rtt > 2 * host.half_rtt,
            "gpu {} vs host {}",
            gpu.latency_us(),
            host.latency_us()
        );
    }

    #[test]
    fn ib_buffer_placement_makes_small_difference() {
        let on_gpu = ib_pingpong(IbMode::Dev2DevBufOnGpu, 1024, 15, 2);
        let on_host = ib_pingpong(IbMode::Dev2DevBufOnHost, 1024, 15, 2);
        let ratio = on_gpu.half_rtt as f64 / on_host.half_rtt as f64;
        assert!(
            (0.5..1.05).contains(&ratio),
            "bufOnGPU/bufOnHost latency ratio {ratio}"
        );
    }
}
