//! Ping-pong latency microbenchmarks (Figs. 1a and 4a) and the polling
//! time-split instrumentation behind Table I and Fig. 3.

use std::cell::Cell;
use std::rc::Rc;

use tc_desim::time::{self, Time};
use tc_gpu::{CounterSnapshot, Gpu};
use tc_ib::{BufLoc, IbvContext, SendOpcode, SendWr};
use tc_mem::Addr;
use tc_pcie::{le, LoadKind, Probe, ProbeLoad, Processor};
use tc_trace::Snapshot;

use crate::api::{create_pair, QueueLoc};
use crate::cluster::{Backend, Cluster};
use crate::flag::{AssistChannel, Idle, Proxy, ProxyStop, ARRIVED, DONE, REQUEST};
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
    /// Node-0 GPU counters over the timed region.
    pub counters: CounterSnapshot,
    /// Delta of *every* registry counter (all layers, all nodes) over the
    /// timed region — the cross-layer view behind the Table I/II rows.
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

/// Write the iteration marker into the tail of a payload buffer.
pub(crate) async fn write_marker<P: Processor>(p: &P, buf: Addr, size: u64, v: u64) {
    if size >= 8 {
        p.st_u64(buf + size - 8, v).await;
    } else {
        p.st_u32(buf + size.max(4) - 4, v as u32).await;
    }
}

/// Spin until the marker at the tail of `buf` reaches `v`.
pub(crate) async fn poll_marker<P: Processor>(p: &P, buf: Addr, size: u64, v: u64) {
    let marker = if size >= 8 {
        ProbeLoad {
            addr: buf + size - 8,
            kind: LoadKind::U64,
        }
    } else {
        ProbeLoad {
            addr: buf + size.max(4) - 4,
            kind: LoadKind::U32,
        }
    };
    // Compare, branch, recompute the volatile pointer: 4 instructions.
    let probe = Probe {
        loads: &[marker],
        instr: 4,
        spins: None,
    };
    p.spin_until(&probe, |b| le(b) == v).await;
}

/// Node 0's measurement of the timed region, shared by every ping-pong
/// loop: the window opened at the first timed iteration with a snapshot
/// of node 0's GPU counters, and the per-iteration put and poll sums.
struct Timing {
    window: Window,
    gpu: Gpu,
    warmup: u32,
    put_sum: Cell<Time>,
    poll_sum: Cell<Time>,
    counters_at_start: Cell<CounterSnapshot>,
}

impl Timing {
    fn new(c: &Cluster, warmup: u32) -> Rc<Self> {
        Rc::new(Timing {
            window: Window::new(&c.sim),
            gpu: c.nodes[0].gpu.clone(),
            warmup,
            put_sum: Cell::new(0),
            poll_sum: Cell::new(0),
            counters_at_start: Cell::default(),
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
            self.counters_at_start.set(self.gpu.counters().snapshot());
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

    /// After the last iteration.
    fn end(&self) {
        self.window.close();
    }

    fn finish(&self, size: u64, iters: u32) -> PingPongResult {
        // An empty window reads as 1 ps, which still halves to 0.
        let (span, registry) = self.window.finish();
        PingPongResult {
            size,
            iters,
            half_rtt: span / (iters as u64) / 2,
            counters: self
                .gpu
                .counters()
                .snapshot()
                .delta(&self.counters_at_start.get()),
            registry,
            put_time: self.put_sum.get() / iters as u64,
            poll_time: self.poll_sum.get() / iters as u64,
        }
    }
}

/// Run the EXTOLL ping-pong of Fig. 1a.
///
/// `warmup` untimed iterations precede `iters` timed ones. Both GPUs hold
/// their payload buffers in device memory; what varies per [`ExtollMode`]
/// is who posts the put and how completion/arrival is detected.
pub fn extoll_pingpong(mode: ExtollMode, size: u64, iters: u32, warmup: u32) -> PingPongResult {
    extoll_pingpong_cfg(
        crate::cluster::ClusterConfig::extoll(),
        mode,
        size,
        iters,
        warmup,
    )
}

/// [`extoll_pingpong`] with an explicit cluster configuration (used by the
/// ablation experiments).
pub fn extoll_pingpong_cfg(
    cluster_cfg: crate::cluster::ClusterConfig,
    mode: ExtollMode,
    size: u64,
    iters: u32,
    warmup: u32,
) -> PingPongResult {
    assert_eq!(cluster_cfg.backend, Backend::Extoll);
    let c = Cluster::with_config(cluster_cfg);
    let buf_len = size.max(8);
    let tx0 = c.nodes[0].gpu.alloc(buf_len, 256);
    let rx0 = c.nodes[0].gpu.alloc(buf_len, 256);
    let tx1 = c.nodes[1].gpu.alloc(buf_len, 256);
    let rx1 = c.nodes[1].gpu.alloc(buf_len, 256);
    // Pair "a" is the ping path (node0 tx0 -> node1 rx1): a0 posts, a1
    // observes arrival. Pair "b" is the pong path (node1 tx1 -> node0 rx0):
    // b1 posts, b0 observes arrival.
    let (a0, a1) = create_pair(&c, tx0, rx1, buf_len, QueueLoc::Host);
    let (b0, b1) = create_pair(&c, rx0, tx1, buf_len, QueueLoc::Host);
    let total = warmup + iters;
    let tm = Timing::new(&c, warmup);
    let gpu0 = c.nodes[0].gpu.clone();

    match mode {
        // Same protocol, different processor.
        ExtollMode::Dev2DevDirect => {
            let (gt0, gt1) = (gpu0.thread(), c.nodes[1].gpu.thread());
            let node0 = ping(gt0, tm.clone(), a0, b0, size, total, Some(tx0));
            c.sim.spawn("pp.node0", node0);
            c.sim.spawn("pp.node1", pong(gt1, a1, b1, size, total));
        }
        ExtollMode::HostControlled => {
            let (cpu0, cpu1) = (c.nodes[0].cpu.clone(), c.nodes[1].cpu.clone());
            let node0 = ping(cpu0, tm.clone(), a0, b0, size, total, None);
            c.sim.spawn("pp.node0", node0);
            c.sim.spawn("pp.node1", pong(cpu1, a1, b1, size, total));
        }
        ExtollMode::Dev2DevPollOnGpu => {
            // No notifications at all: poll the last payload element.
            let p0 = a0.extoll().rma_port().clone();
            let p1 = b1.extoll().rma_port().clone();
            let (nla_tx0, nla_rx1) = extoll_nlas(&c, tx0, rx1, buf_len);
            let (nla_tx1, nla_rx0) = extoll_nlas(&c, tx1, rx0, buf_len);
            let peer0 = a1.extoll().rma_port().index();
            let peer1 = b0.extoll().rma_port().index();
            {
                let tm = tm.clone();
                let gpu = gpu0.clone();
                c.sim.spawn("pp.node0", async move {
                    let gt = gpu.thread();
                    for i in 0..total {
                        let t0 = tm.begin(i);
                        let marker = i as u64 + 1;
                        write_marker(&gt, tx0, buf_len, marker).await;
                        gt.fence_system().await;
                        p0.post_put(
                            &gt,
                            peer0,
                            nla_tx0,
                            nla_rx1,
                            buf_len as u32,
                            tc_extoll::WrFlags::default(),
                        )
                        .await;
                        let t1 = tm.now();
                        poll_marker(&gt, rx0, buf_len, marker).await;
                        tm.split(i, t0, t1);
                    }
                    tm.end();
                });
            }
            {
                let gpu1 = c.nodes[1].gpu.clone();
                c.sim.spawn("pp.node1", async move {
                    let gt = gpu1.thread();
                    for i in 0..total {
                        let marker = i as u64 + 1;
                        poll_marker(&gt, rx1, buf_len, marker).await;
                        write_marker(&gt, tx1, buf_len, marker).await;
                        gt.fence_system().await;
                        p1.post_put(
                            &gt,
                            peer1,
                            nla_tx1,
                            nla_rx0,
                            buf_len as u32,
                            tc_extoll::WrFlags::default(),
                        )
                        .await;
                    }
                });
            }
        }
        ExtollMode::Dev2DevAssisted => {
            // One proxy per node: serves put requests and forwards arrival
            // notifications. The channels are plain copies into both the
            // proxy and the GPU loops below.
            let stop = ProxyStop::default();
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
            {
                let tm = tm.clone();
                let gpu = gpu0.clone();
                c.sim.spawn("pp.node0", async move {
                    let gt = gpu.thread();
                    for i in 0..total {
                        let t0 = tm.begin(i);
                        snd0.request(&gt, size, REQUEST).await;
                        let t1 = tm.now();
                        snd0.wait_state(&gt, DONE).await;
                        arr0.wait_state(&gt, ARRIVED).await;
                        tm.split(i, t0, t1);
                    }
                    tm.end();
                    stop.stop();
                });
            }
            {
                let gpu1 = c.nodes[1].gpu.clone();
                c.sim.spawn("pp.node1", async move {
                    let gt = gpu1.thread();
                    for _ in 0..total {
                        arr1.wait_state(&gt, ARRIVED).await;
                        snd1.request(&gt, size, REQUEST).await;
                        snd1.wait_state(&gt, DONE).await;
                    }
                });
            }
        }
    }

    c.sim.run();
    tm.finish(size, iters)
}

/// Node 0's side of the notifying ping-pong on processor `p`: post the
/// ping, then wait for its local completion and for the pong. A device
/// kernel refreshes the marker of its payload buffer `refresh` before each
/// put, as the paper's benchmark does; the host sends without.
async fn ping<P: Processor>(
    p: P,
    tm: Rc<Timing>,
    a0: AnyTransport,
    b0: AnyTransport,
    size: u64,
    total: u32,
    refresh: Option<Addr>,
) {
    for i in 0..total {
        let t0 = tm.begin(i);
        if let Some(tx0) = refresh {
            write_marker(&p, tx0, size.max(8), i as u64 + 1).await;
            p.fence().await;
        }
        a0.put(&p, 0, 0, size as u32, true).await;
        let t1 = tm.now();
        a0.quiet(&p).await.unwrap();
        b0.wait_arrival(&p).await.unwrap();
        tm.split(i, t0, t1);
    }
    tm.end();
}

/// Node 1's side: wait for each ping, answer it and wait for the answer's
/// local completion.
async fn pong<P: Processor>(p: P, a1: AnyTransport, b1: AnyTransport, size: u64, total: u32) {
    for _ in 0..total {
        a1.wait_arrival(&p).await.unwrap();
        b1.put(&p, 0, 0, size as u32, true).await;
        b1.quiet(&p).await.unwrap();
    }
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
    let tx0 = c.nodes[0].gpu.alloc(buf_len, 256);
    let rx0 = c.nodes[0].gpu.alloc(buf_len, 256);
    let tx1 = c.nodes[1].gpu.alloc(buf_len, 256);
    let rx1 = c.nodes[1].gpu.alloc(buf_len, 256);
    let total = warmup + iters;
    let tm = Timing::new(&c, warmup);
    let gpu0 = c.nodes[0].gpu.clone();

    match mode {
        IbMode::Dev2DevBufOnGpu | IbMode::Dev2DevBufOnHost => {
            let loc = if mode == IbMode::Dev2DevBufOnGpu {
                BufLoc::Gpu
            } else {
                BufLoc::Host
            };
            // GPU-driven contexts: software state lives in device memory.
            let ctx0 = IbvContext::new(
                c.nodes[0].ib().clone(),
                c.nodes[0].host_heap.clone(),
                Some(c.nodes[0].gpu.clone()),
                BufLoc::Gpu,
            );
            let ctx1 = IbvContext::new(
                c.nodes[1].ib().clone(),
                c.nodes[1].host_heap.clone(),
                Some(c.nodes[1].gpu.clone()),
                BufLoc::Gpu,
            );
            let cq0 = ctx0.create_cq(loc);
            let cq1 = ctx1.create_cq(loc);
            let qp0 = Rc::new(ctx0.create_qp(cq0.clone(), cq0.clone(), loc));
            let qp1 = Rc::new(ctx1.create_qp(cq1.clone(), cq1.clone(), loc));
            qp0.connect(qp1.qpn());
            qp1.connect(qp0.qpn());
            let mr_tx0 = ctx0.reg_mr(tx0, buf_len, tc_ib::Access::full());
            let mr_rx0 = ctx0.reg_mr(rx0, buf_len, tc_ib::Access::full());
            let mr_tx1 = ctx1.reg_mr(tx1, buf_len, tc_ib::Access::full());
            let mr_rx1 = ctx1.reg_mr(rx1, buf_len, tc_ib::Access::full());
            {
                let tm = tm.clone();
                let gpu = gpu0.clone();
                let (qp0, cq0) = (qp0.clone(), cq0.clone());
                c.sim.spawn("pp.node0", async move {
                    let gt = gpu.thread();
                    for i in 0..total {
                        let t0 = tm.begin(i);
                        let marker = i as u64 + 1;
                        write_marker(&gt, tx0, buf_len, marker).await;
                        gt.fence_system().await;
                        qp0.post_send(
                            &gt,
                            &SendWr {
                                opcode: SendOpcode::RdmaWrite,
                                laddr: mr_tx0.addr,
                                lkey: mr_tx0.lkey,
                                raddr: mr_rx1.addr,
                                rkey: mr_rx1.rkey,
                                len: buf_len as u32,
                                imm: 0,
                                signaled: true,
                            },
                        )
                        .await;
                        let t1 = tm.now();
                        let wc = cq0.wait(&gt).await;
                        assert_eq!(wc.status, tc_ib::CqeStatus::Success);
                        poll_marker(&gt, rx0, buf_len, marker).await;
                        tm.split(i, t0, t1);
                    }
                    tm.end();
                });
            }
            {
                let gpu1 = c.nodes[1].gpu.clone();
                c.sim.spawn("pp.node1", async move {
                    let gt = gpu1.thread();
                    for i in 0..total {
                        let marker = i as u64 + 1;
                        poll_marker(&gt, rx1, buf_len, marker).await;
                        write_marker(&gt, tx1, buf_len, marker).await;
                        gt.fence_system().await;
                        qp1.post_send(
                            &gt,
                            &SendWr {
                                opcode: SendOpcode::RdmaWrite,
                                laddr: mr_tx1.addr,
                                lkey: mr_tx1.lkey,
                                raddr: mr_rx0.addr,
                                rkey: mr_rx0.rkey,
                                len: buf_len as u32,
                                imm: 0,
                                signaled: true,
                            },
                        )
                        .await;
                        let wc = cq1.wait(&gt).await;
                        assert_eq!(wc.status, tc_ib::CqeStatus::Success);
                    }
                });
            }
        }
        IbMode::Dev2DevAssisted => {
            // CPU-driven verbs (host queues), GPU triggers via flags and
            // polls arrival in its device memory.
            let (a0, _a1) = create_pair(&c, tx0, rx1, buf_len, QueueLoc::Host);
            let (_b0, b1) = create_pair(&c, rx0, tx1, buf_len, QueueLoc::Host);
            let stop = ProxyStop::default();
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
            {
                let tm = tm.clone();
                let gpu = gpu0.clone();
                c.sim.spawn("pp.node0", async move {
                    let gt = gpu.thread();
                    for i in 0..total {
                        let t0 = tm.begin(i);
                        let marker = i as u64 + 1;
                        write_marker(&gt, tx0, buf_len, marker).await;
                        gt.fence_system().await;
                        snd0.request(&gt, buf_len, REQUEST).await;
                        let t1 = tm.now();
                        snd0.wait_state(&gt, DONE).await;
                        poll_marker(&gt, rx0, buf_len, marker).await;
                        tm.split(i, t0, t1);
                    }
                    tm.end();
                    stop.stop();
                });
            }
            {
                let gpu1 = c.nodes[1].gpu.clone();
                c.sim.spawn("pp.node1", async move {
                    let gt = gpu1.thread();
                    for i in 0..total {
                        let marker = i as u64 + 1;
                        poll_marker(&gt, rx1, buf_len, marker).await;
                        write_marker(&gt, tx1, buf_len, marker).await;
                        gt.fence_system().await;
                        snd1.request(&gt, buf_len, REQUEST).await;
                        snd1.wait_state(&gt, DONE).await;
                    }
                });
            }
        }
        IbMode::HostControlled => {
            // CPU-driven with write-with-immediate synchronization, since
            // the GPUDirect patch does not let the host poll GPU memory.
            let (a0, a1) = create_pair(&c, tx0, rx1, buf_len, QueueLoc::Host);
            let (b0, b1) = create_pair(&c, rx0, tx1, buf_len, QueueLoc::Host);
            {
                let tm = tm.clone();
                let cpu0 = c.nodes[0].cpu.clone();
                c.sim.spawn("pp.node0", async move {
                    // Arm the first pong arrival.
                    b0.arm_arrival(&cpu0).await;
                    for i in 0..total {
                        let t0 = tm.begin(i);
                        a0.put(&cpu0, 0, 0, buf_len as u32, true).await;
                        let t1 = tm.now();
                        a0.quiet(&cpu0).await.unwrap();
                        b0.wait_arrival(&cpu0).await.unwrap();
                        b0.arm_arrival(&cpu0).await;
                        tm.split(i, t0, t1);
                    }
                    tm.end();
                });
            }
            {
                let cpu1 = c.nodes[1].cpu.clone();
                c.sim.spawn("pp.node1", async move {
                    a1.arm_arrival(&cpu1).await;
                    for _ in 0..total {
                        a1.wait_arrival(&cpu1).await.unwrap();
                        a1.arm_arrival(&cpu1).await;
                        b1.put(&cpu1, 0, 0, buf_len as u32, true).await;
                        b1.quiet(&cpu1).await.unwrap();
                    }
                });
            }
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
        assert!(r.counters.sysmem_writes > 0);
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
