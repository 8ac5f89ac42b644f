//! Ablation experiments for the design choices the paper's Discussion (§VI)
//! calls out. These go beyond the paper's measurements: they quantify, in
//! the simulator, how much each identified bottleneck costs.

use std::cell::Cell;
use std::rc::Rc;

use tc_desim::time::{self, Time};
use tc_extoll::WrFlags;
use tc_ib::VerbsTuning;

use crate::cluster::{Backend, Cluster, ClusterConfig};

use super::counters::{verbs_micro, VerbsMicro};
use super::pingpong::{extoll_pingpong_cfg, ping, pong, PingPongResult, RmaPair, Timing};
use super::ExtollMode;

/// `ablation-notify` (paper claim 3: "notification queues in GPU memory"):
/// EXTOLL `dev2dev-direct` ping-pong with the notification queues in their
/// real location (host kernel memory) vs. the hypothetical GPU-resident
/// placement. Returns `(host_queues, gpu_queues)` results.
pub fn ablation_notify(size: u64, iters: u32) -> (PingPongResult, PingPongResult) {
    let host = extoll_pingpong_cfg(
        ClusterConfig::extoll(),
        ExtollMode::Dev2DevDirect,
        size,
        iters,
        2,
    );
    let gpu = extoll_pingpong_cfg(
        ClusterConfig {
            extoll_notif_on_gpu: true,
            ..ClusterConfig::extoll()
        },
        ExtollMode::Dev2DevDirect,
        size,
        iters,
        2,
    );
    (host, gpu)
}

/// Result of the warp-collaborative posting ablation.
#[derive(Debug, Clone)]
pub struct WarpAblation {
    /// Average time to post one WR the single-thread way.
    pub single_thread_post: Time,
    /// Average time to post one WR the warp-collective way.
    pub warp_post: Time,
}

/// `ablation-warp` for Infiniband: one GPU `ibv_post_send` issued by a
/// single thread vs. a warp dividing the conversion/marshalling work.
/// Returns `(single_thread, warp)` per-post wall times.
pub fn ablation_warp_ib() -> (Time, Time) {
    let VerbsMicro { c, qp0, cq0, wr } = verbs_micro(VerbsTuning::default(), 64);
    let gpu = c.nodes[0].gpu.clone();
    let out = Rc::new(Cell::new((0u64, 0u64)));
    let out2 = out.clone();
    let sim = c.sim.clone();
    const N: u64 = 50;
    c.sim.spawn("warp-ib", async move {
        let t = gpu.thread();
        let t0 = sim.now();
        for _ in 0..N {
            qp0.post_send(&t, &wr).await;
            cq0.wait(&t).await;
        }
        let single = (sim.now() - t0) / N;
        let t0 = sim.now();
        for _ in 0..N {
            qp0.post_send_warp(&t, &wr).await;
            cq0.wait(&t).await;
        }
        out2.set((single, (sim.now() - t0) / N));
    });
    c.sim.run();
    out.get()
}

/// `ablation-warp` (paper claim 2: "the interface has to be in line with
/// the thread-collaborative execution model"): time 200 EXTOLL WR posts
/// issued as three dependent 64-bit stores by one thread vs. one
/// write-combined 192-bit store assembled by a warp.
pub fn ablation_warp() -> WarpAblation {
    let c = Cluster::new(Backend::Extoll);
    let tx = c.nodes[0].gpu.alloc(64, 256);
    let rx = c.nodes[1].gpu.alloc(64, 256);
    let src_nla = c.nodes[0].extoll().register_memory(tx, 64);
    let dst_nla = c.nodes[1].extoll().register_memory(rx, 64);
    let p0 = c.nodes[0].extoll().open_port();
    let p1 = c.nodes[1].extoll().open_port();
    let peer = p1.index();
    let gpu = c.nodes[0].gpu.clone();
    let single = Rc::new(Cell::new(0u64));
    let warp = Rc::new(Cell::new(0u64));
    let (s2, w2) = (single.clone(), warp.clone());
    let sim = c.sim.clone();
    const N: u64 = 200;
    c.sim.spawn("warp-ablation", async move {
        let t = gpu.thread();
        let flags = WrFlags {
            notify_requester: true,
            ..Default::default()
        };
        let t0 = sim.now();
        for _ in 0..N {
            p0.post_put(&t, peer, src_nla, dst_nla, 64, flags).await;
            p0.requester.wait(&t).await;
            p0.requester.free(&t).await;
        }
        s2.set((sim.now() - t0) / N);
        let t0 = sim.now();
        for _ in 0..N {
            p0.post_put_warp(&t, peer, src_nla, dst_nla, 64, flags)
                .await;
            p0.requester.wait(&t).await;
            p0.requester.free(&t).await;
        }
        w2.set((sim.now() - t0) / N);
    });
    c.sim.run();
    WarpAblation {
        single_thread_post: single.get(),
        warp_post: warp.get(),
    }
}

/// Result of the endianness ablation.
#[derive(Debug, Clone)]
pub struct EndianAblation {
    /// Instructions per `ibv_post_send` with runtime conversion.
    pub convert_instr: u64,
    /// Instructions per `ibv_post_send` with statically converted values.
    pub static_instr: u64,
    /// Per-post wall time with runtime conversion.
    pub convert_time: Time,
    /// Per-post wall time with static values.
    pub static_time: Time,
}

/// `ablation-endian` (§V-B.3: "we used static converted values where
/// possible"): measure one GPU `ibv_post_send` with and without the
/// little-to-big-endian conversion work.
pub fn ablation_endian() -> EndianAblation {
    fn one(tuning: VerbsTuning) -> (u64, Time) {
        let VerbsMicro { c, qp0, wr, .. } = verbs_micro(tuning, 64);
        let gpu = c.nodes[0].gpu.clone();
        let out = Rc::new(Cell::new((0u64, 0u64)));
        let out2 = out.clone();
        let sim = c.sim.clone();
        c.sim.spawn("endian", async move {
            let t = gpu.thread();
            let before = gpu.counters().instructions.get();
            let t0 = sim.now();
            qp0.post_send(&t, &wr).await;
            let instr = gpu.counters().instructions.get() - before;
            out2.set((instr, sim.now() - t0));
        });
        c.sim.run();
        out.get()
    }
    let (ci, ct) = one(VerbsTuning {
        endian_convert: true,
    });
    let (si, st) = one(VerbsTuning {
        endian_convert: false,
    });
    EndianAblation {
        convert_instr: ci,
        static_instr: si,
        convert_time: ct,
        static_time: st,
    }
}

/// `ablation-inline`: IB small-message posting with the payload gathered
/// by DMA (normal) vs. carried inline in the WQE (`IBV_SEND_INLINE`),
/// measured for both processors. Returns
/// `((cpu_gather, cpu_inline), (gpu_gather, gpu_inline))` per-message
/// times (post + completion).
pub fn ablation_inline() -> ((Time, Time), (Time, Time)) {
    const N: u64 = 50;
    const LEN: u32 = 16;
    let VerbsMicro { c, qp0, cq0, wr } = verbs_micro(VerbsTuning::default(), LEN);
    let gpu = c.nodes[0].gpu.clone();
    let cpu = c.nodes[0].cpu.clone();
    let out = Rc::new(Cell::new(((0u64, 0u64), (0u64, 0u64))));
    let out2 = out.clone();
    let sim = c.sim.clone();
    c.sim.spawn("inline-ablation", async move {
        let payload = [0x5Au8; LEN as usize];
        // CPU-driven first (the sub-microsecond post where the payload
        // fetch is a visible fraction).
        let t0 = sim.now();
        for _ in 0..N {
            qp0.post_send(&cpu, &wr).await;
            cq0.wait(&cpu).await;
        }
        let cpu_gather = (sim.now() - t0) / N;
        let t0 = sim.now();
        for _ in 0..N {
            qp0.post_send_inline(&cpu, &wr, &payload).await;
            cq0.wait(&cpu).await;
        }
        let cpu_inline = (sim.now() - t0) / N;
        // GPU-driven: the ~440-instruction post dwarfs the saved DMA.
        let t = gpu.thread();
        let t0 = sim.now();
        for _ in 0..N {
            qp0.post_send(&t, &wr).await;
            cq0.wait(&t).await;
        }
        let gpu_gather = (sim.now() - t0) / N;
        let t0 = sim.now();
        for _ in 0..N {
            qp0.post_send_inline(&t, &wr, &payload).await;
            cq0.wait(&t).await;
        }
        out2.set(((cpu_gather, cpu_inline), (gpu_gather, (sim.now() - t0) / N)));
    });
    c.sim.run();
    out.get()
}

/// Result of combining all three SVI claims into one optimized interface.
#[derive(Debug, Clone)]
pub struct CombinedClaims {
    /// Baseline: the paper's dev2dev-direct latency.
    pub direct: Time,
    /// All three claims applied: GPU-resident notification queues,
    /// warp-collective single-store posting, minimal control traffic.
    pub optimized: Time,
    /// The bar to beat: host-controlled latency.
    pub host: Time,
}

/// The paper's conclusion in one experiment: apply **all three** SVI claims
/// at once — (1) small GPU-memory footprint, (2) thread-collaborative
/// posting, (3) minimal PCIe control traffic (notification queues in GPU
/// memory) — and ask whether GPU-controlled communication now beats the
/// CPU. This is the "future GPU communication library" the paper's
/// conclusion gears towards.
pub fn combined_claims(size: u64, iters: u32) -> CombinedClaims {
    let direct = extoll_pingpong_cfg(
        ClusterConfig::extoll(),
        ExtollMode::Dev2DevDirect,
        size,
        iters,
        2,
    )
    .half_rtt;
    let host = extoll_pingpong_cfg(
        ClusterConfig::extoll(),
        ExtollMode::HostControlled,
        size,
        iters,
        2,
    )
    .half_rtt;

    // The optimized interface: GPU-resident notification queues + warp
    // posting, over raw RMA ports.
    let c = Cluster::with_config(ClusterConfig {
        extoll_notif_on_gpu: true,
        ..ClusterConfig::extoll()
    });
    let rig = Rc::new(RmaPair::new(&c, size.max(8)));
    let warmup = 2u32;
    let total = iters + warmup;
    let tm = Timing::new(&c, warmup);
    let [gt0, gt1] = [0, 1].map(|n| c.nodes[n].gpu.thread());
    let len = size as u32;
    let flags = WrFlags {
        notify_requester: true,
        notify_completer: true,
        notify_responder: false,
    };
    {
        let (rig, tm) = (rig.clone(), tm.clone());
        c.sim.spawn("opt.node0", async move {
            let send = async |_| rig.put(&gt0, 0, len, flags, true).await;
            ping(&tm, total, send, async |_| rig.arrival(&gt0, 0).await).await;
        });
    }
    c.sim.spawn("opt.node1", async move {
        let answer = async |_| rig.put(&gt1, 1, len, flags, true).await;
        pong(total, async |_| rig.arrival(&gt1, 1).await, answer).await;
    });
    c.sim.run();
    let optimized = tm.finish(size, iters).half_rtt;

    CombinedClaims {
        direct,
        optimized,
        host,
    }
}

/// Number of independent report sections. Each section runs its own
/// simulations and renders its own text, so a job pool can schedule the
/// sections concurrently; concatenated in index order they make the
/// ablation report.
pub const SECTIONS: usize = 6;

/// Render section `i` (`0..SECTIONS`) of the ablation report.
pub fn section(i: usize, size: u64, iters: u32) -> String {
    match i {
        0 => section_notify(size, iters),
        1 => section_warp(),
        2 => section_warp_ib(),
        3 => section_inline(),
        4 => section_endian(),
        5 => section_combined(size, iters),
        other => panic!("ablation section {other} out of range (0..{SECTIONS})"),
    }
}

fn section_notify(size: u64, iters: u32) -> String {
    let mut out = String::new();
    let (host_q, gpu_q) = ablation_notify(size, iters);
    out.push_str(&format!(
        "# ablation-notify: EXTOLL dev2dev-direct, {size} B, {iters} iterations\n\
         notification queues in host memory : {:8.2} us latency, {:5} sysmem reads\n\
         notification queues in GPU memory  : {:8.2} us latency, {:5} sysmem reads\n\
         speedup: {:.2}x — supports claim 3 of the paper's SVI.\n\n",
        host_q.latency_us(),
        host_q.registry.get("gpu0.sysmem.reads"),
        gpu_q.latency_us(),
        gpu_q.registry.get("gpu0.sysmem.reads"),
        host_q.latency_us() / gpu_q.latency_us(),
    ));
    out
}

fn section_warp() -> String {
    let mut out = String::new();
    let w = ablation_warp();
    out.push_str(&format!(
        "# ablation-warp: EXTOLL WR posting, 64 B puts\n\
         single-thread (3x 64-bit stores)     : {:8.2} us per message\n\
         warp-collective (1x 192-bit store)   : {:8.2} us per message\n\
         speedup: {:.2}x — supports claim 2 of the paper's SVI.\n\n",
        time::to_us_f64(w.single_thread_post),
        time::to_us_f64(w.warp_post),
        time::to_us_f64(w.single_thread_post) / time::to_us_f64(w.warp_post),
    ));
    out
}

fn section_warp_ib() -> String {
    let mut out = String::new();
    let (ib_single, ib_warp) = ablation_warp_ib();
    out.push_str(&format!(
        "# ablation-warp (Infiniband): GPU ibv_post_send + completion\n\
         single-thread verbs post       : {:8.2} us per message\n\
         warp-collective verbs post     : {:8.2} us per message\n\
         speedup: {:.2}x — the ~440-instruction path is what parallelizes.\n\n",
        time::to_us_f64(ib_single),
        time::to_us_f64(ib_warp),
        time::to_us_f64(ib_single) / time::to_us_f64(ib_warp),
    ));
    out
}

fn section_inline() -> String {
    let mut out = String::new();
    let ((cg, ci), (gg, gi)) = ablation_inline();
    out.push_str(&format!(
        "# ablation-inline (Infiniband): 16 B posts, payload DMA vs IBV_SEND_INLINE\n\
         CPU gather {:6.2} us -> inline {:6.2} us ({:.2}x: the payload fetch was\n\
         a visible slice of a sub-microsecond post)\n\
         GPU gather {:6.2} us -> inline {:6.2} us ({:.2}x: invisible — the\n\
         ~440-instruction WR path is the bottleneck, reinforcing SV-B.3)\n\n",
        time::to_us_f64(cg),
        time::to_us_f64(ci),
        time::to_us_f64(cg) / time::to_us_f64(ci),
        time::to_us_f64(gg),
        time::to_us_f64(gi),
        time::to_us_f64(gg) / time::to_us_f64(gi),
    ));
    out
}

fn section_endian() -> String {
    let mut out = String::new();
    let e = ablation_endian();
    out.push_str(&format!(
        "# ablation-endian: GPU ibv_post_send\n\
         runtime little->big conversion : {:4} instructions, {:6.2} us\n\
         statically converted values    : {:4} instructions, {:6.2} us\n\
         saving: {} instructions — the conversion overhead SV-B.3 identifies.\n\n",
        e.convert_instr,
        time::to_us_f64(e.convert_time),
        e.static_instr,
        time::to_us_f64(e.static_time),
        e.convert_instr - e.static_instr,
    ));
    out
}

fn section_combined(size: u64, iters: u32) -> String {
    let mut out = String::new();
    let cc = combined_claims(size, iters);
    out.push_str(&format!(
        "# combined: all three SVI claims applied to EXTOLL ({size} B ping-pong)\n\
         dev2dev-direct (2014 API)      : {:8.2} us\n\
         all-claims GPU interface       : {:8.2} us\n\
         dev2dev-hostControlled         : {:8.2} us\n\
         GPU control goes from {:.2}x slower than the host to {:.2}x -\n\
         the future-interface argument of the paper's conclusion.\n",
        time::to_us_f64(cc.direct),
        time::to_us_f64(cc.optimized),
        time::to_us_f64(cc.host),
        time::to_us_f64(cc.direct) / time::to_us_f64(cc.host),
        time::to_us_f64(cc.optimized) / time::to_us_f64(cc.host),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_notification_queues_reduce_latency_and_sysmem_traffic() {
        let (host_q, gpu_q) = ablation_notify(1024, 15);
        assert!(
            gpu_q.half_rtt < host_q.half_rtt,
            "gpu {} vs host {}",
            gpu_q.latency_us(),
            host_q.latency_us()
        );
        let reads = |r: &PingPongResult| r.registry.get("gpu0.sysmem.reads");
        assert!(reads(&gpu_q) < reads(&host_q) / 2);
    }

    #[test]
    fn warp_collective_posting_is_faster() {
        let w = ablation_warp();
        assert!(
            w.warp_post < w.single_thread_post,
            "warp {} vs single {}",
            w.warp_post,
            w.single_thread_post
        );
    }

    #[test]
    fn inline_sends_help_the_cpu_but_not_the_gpu() {
        let ((cpu_gather, cpu_inline), (gpu_gather, gpu_inline)) = ablation_inline();
        // CPU: the saved payload DMA is a visible win.
        assert!(
            (cpu_inline as f64) < 0.95 * cpu_gather as f64,
            "cpu inline {cpu_inline} should clearly beat gather {cpu_gather}"
        );
        // GPU: within 5% either way — the WR path dominates (SV-B.3).
        let ratio = gpu_inline as f64 / gpu_gather as f64;
        assert!(
            (0.9..1.1).contains(&ratio),
            "gpu inline/gather ratio {ratio}"
        );
    }

    #[test]
    fn warp_collective_verbs_post_is_much_faster() {
        let (single, warp) = ablation_warp_ib();
        // The verbs path is instruction-dominated, so the warp win is
        // large (well over 1.5x).
        assert!(warp * 3 < single * 2, "warp {warp} vs single {single}");
    }

    #[test]
    fn combined_claims_close_most_of_the_gap_to_host_control() {
        let cc = combined_claims(1024, 15);
        // The optimized interface must beat the 2014 GPU-direct API
        // decisively...
        assert!(
            cc.optimized * 10 < cc.direct * 9,
            "optimized {} vs direct {}",
            cc.optimized,
            cc.direct
        );
        // ...and land within 2x of host control (the paper's goalpost).
        assert!(
            cc.optimized < 2 * cc.host,
            "optimized {} vs host {}",
            cc.optimized,
            cc.host
        );
    }

    #[test]
    fn static_endian_conversion_saves_instructions() {
        let e = ablation_endian();
        assert!(e.static_instr + 80 < e.convert_instr);
        assert!(e.static_time < e.convert_time);
    }
}
