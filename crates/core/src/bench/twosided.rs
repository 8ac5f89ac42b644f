//! Extension experiment for §II-B: one-sided vs two-sided communication.
//!
//! The paper motivates put/get by the overhead of two-sided messaging:
//! "this two-sided communication ... normally adds a lot of overhead to the
//! communication, due to tag matching or data buffering", while one-sided
//! transfers "only need the origin to issue a data transfer". This module
//! measures both styles in the same harness (Infiniband, host-driven):
//!
//! * **one-sided**: RDMA write; the receiver polls the last payload element
//!   (no receiver-side posting at all);
//! * **two-sided**: send/receive; the receiver must keep receives posted,
//!   and every message pays the receive-WQE fetch on the wire-to-memory
//!   path plus the receive-side completion.

use tc_desim::time::Time;
use tc_ib::{BufLoc, SendOpcode, SendWr};

use crate::cluster::{Backend, Cluster};

use super::pingpong::{ping, pong, write_pingpong, Timing, VerbsPair};

/// Result of the one-sided vs two-sided comparison.
#[derive(Debug, Clone)]
pub struct TwoSidedResult {
    /// Message size in bytes.
    pub size: u64,
    /// Half round trip using RDMA write + payload polling.
    pub one_sided: Time,
    /// Half round trip using send/receive.
    pub two_sided: Time,
}

/// Run both ping-pong styles at `size` bytes for `iters` iterations.
pub fn one_vs_two_sided(size: u64, iters: u32) -> TwoSidedResult {
    TwoSidedResult {
        size,
        one_sided: run(size, iters, false),
        two_sided: run(size, iters, true),
    }
}

fn run(size: u64, iters: u32, two_sided: bool) -> Time {
    let c = Cluster::new(Backend::Infiniband);
    let buf_len = size.max(8);
    // Host-resident buffers: this experiment isolates the *communication
    // style*, so the receiver can poll payload memory directly.
    let bufs = [0, 0, 1, 1].map(|n| c.nodes[n].host_heap.alloc(buf_len, 256));
    let v = VerbsPair::new(&c, bufs, buf_len, false, BufLoc::Host);
    let warmup = 2u32;
    let total = iters + warmup;
    let tm = Timing::new(&c, warmup);
    let cpus = [0, 1].map(|n| c.nodes[n].cpu.clone());

    if two_sided {
        let VerbsPair {
            qp: [qp0, qp1],
            cq: [cq0, cq1],
            rx_mr: [rx0, rx1],
            write,
            ..
        } = v;
        let [s0, s1] = write.map(|w| SendWr {
            opcode: SendOpcode::Send,
            raddr: 0,
            rkey: 0,
            len: size as u32,
            ..w
        });
        let [cpu0, cpu1] = cpus;
        let tm = tm.clone();
        c.sim.spawn("ts.node0", async move {
            // Keep one receive pre-posted at all times.
            let post_recv = async || {
                qp0.post_recv(&cpu0, rx0.addr, rx0.lkey, buf_len as u32)
                    .await
            };
            post_recv().await;
            let wait = async |_| {
                // Local send completion + the pong's receive completion.
                cq0.wait(&cpu0).await;
                cq0.wait(&cpu0).await;
                post_recv().await;
            };
            ping(&tm, total, async |_| qp0.post_send(&cpu0, &s0).await, wait).await;
        });
        c.sim.spawn("ts.node1", async move {
            let post_recv = async || {
                qp1.post_recv(&cpu1, rx1.addr, rx1.lkey, buf_len as u32)
                    .await
            };
            post_recv().await;
            // Wait for the ping's receive completion.
            let wait = async |_| {
                cq1.wait(&cpu1).await;
            };
            let answer = async |_| {
                post_recv().await;
                qp1.post_send(&cpu1, &s1).await;
                cq1.wait(&cpu1).await; // local send completion
            };
            pong(total, wait, answer).await;
        });
    } else {
        // One-sided: plain RDMA write; the receiver polls the last payload
        // element — no receive posting, no matching, no receive CQEs.
        write_pingpong(&c, &tm, "os", cpus, v, total, false);
    }
    c.sim.run();
    tm.finish(size, iters).half_rtt
}

/// Message sizes of the sweep: 4 B to 256 KiB in ×16 steps.
pub fn sizes() -> Vec<u64> {
    let mut v = Vec::new();
    let mut size = 4u64;
    while size <= (256 << 10) {
        v.push(size);
        size *= 16;
    }
    v
}

/// One sweep point: both styles at `size` bytes.
pub fn point(size: u64, iters: u32) -> TwoSidedResult {
    one_vs_two_sided(size, iters)
}

/// Render sweep results (in [`sizes`] order) as the text report.
pub fn render(results: &[TwoSidedResult]) -> String {
    let mut out = String::from(
        "# extension: one-sided (RDMA write) vs two-sided (send/recv), host-driven IB\n",
    );
    out.push_str(&format!(
        "{:>10} {:>16} {:>16} {:>12}\n",
        "bytes", "one-sided us", "two-sided us", "overhead"
    ));
    for r in results {
        out.push_str(&format!(
            "{:>10} {:>16.2} {:>16.2} {:>11.1}%\n",
            r.size,
            tc_desim::time::to_us_f64(r.one_sided),
            tc_desim::time::to_us_f64(r.two_sided),
            100.0 * (r.two_sided as f64 / r.one_sided as f64 - 1.0),
        ));
    }
    out.push_str(
        "Two-sided messaging pays the receive-WQE management on every message\n\
         (SII-B: 'this normally adds a lot of overhead'); one-sided transfers\n\
         need nothing from the receiver's CPU on the data path.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_sided_is_slower_than_one_sided_for_small_messages() {
        let r = one_vs_two_sided(16, 15);
        assert!(
            r.two_sided > r.one_sided,
            "two-sided {} should exceed one-sided {}",
            r.two_sided,
            r.one_sided
        );
    }

    #[test]
    fn overhead_shrinks_for_large_messages() {
        let small = one_vs_two_sided(16, 10);
        let large = one_vs_two_sided(64 << 10, 10);
        let oh = |r: &TwoSidedResult| r.two_sided as f64 / r.one_sided as f64;
        assert!(
            oh(&large) < oh(&small),
            "relative overhead should shrink: small {:.3} vs large {:.3}",
            oh(&small),
            oh(&large)
        );
    }
}
