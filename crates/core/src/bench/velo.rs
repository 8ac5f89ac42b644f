//! Extension experiment: VELO vs RMA for small messages.
//!
//! EXTOLL pairs the RMA unit the paper studies with VELO, its small-message
//! engine (the "high message rates" design of the paper reference \[10\]).
//! VELO sends carry the payload *inline through the BAR*: no registration,
//! no descriptor indirection, no DMA read on the send path, and arrival is
//! a single mailbox slot in (host or GPU) memory. That makes it the
//! natural hardware answer to the paper's §VI claims for small messages —
//! this experiment quantifies it against RMA puts in the same harness.

use std::rc::Rc;

use tc_desim::time::{self, Time};
use tc_extoll::WrFlags;

use crate::cluster::{Backend, Cluster};

use super::pingpong::{ping, pong, RmaPair, Timing};
use super::Window;

/// Result of the VELO-vs-RMA comparison at one payload size.
#[derive(Debug, Clone)]
pub struct VeloResult {
    /// Payload size in bytes.
    pub size: u64,
    /// Half round trip via RMA put + completer notification.
    pub rma_latency: Time,
    /// Half round trip via VELO send + mailbox poll.
    pub velo_latency: Time,
    /// Sustained RMA puts per second (single port, GPU-driven).
    pub rma_rate: f64,
    /// Sustained VELO messages per second (single port, GPU-driven).
    pub velo_rate: f64,
}

/// Compare GPU-driven VELO messaging against GPU-driven RMA puts at
/// `size` bytes (must fit a VELO message).
pub fn velo_vs_rma(size: u64, iters: u32) -> VeloResult {
    assert!(size as usize <= tc_extoll::VELO_MAX_PAYLOAD);
    let (rma_latency, rma_rate) = rma_side(size, iters);
    let (velo_latency, velo_rate) = velo_side(size, iters);
    VeloResult {
        size,
        rma_latency,
        velo_latency,
        rma_rate,
        velo_rate,
    }
}

/// Each side's result: the ping-pong's half round trip, then the rate of
/// the `iters` messages node 0 sends in `rate`'s window.
fn outcome(tm: &Timing, rate: &Window, size: u64, iters: u32) -> (Time, f64) {
    let (rate_span, _) = rate.finish();
    (
        tm.finish(size, iters).half_rtt,
        iters as f64 / time::to_sec_f64(rate_span),
    )
}

fn rma_side(size: u64, iters: u32) -> (Time, f64) {
    let c = Cluster::new(Backend::Extoll);
    let rig = Rc::new(RmaPair::new(&c, size.max(8)));
    let (tm, rate) = (Timing::new(&c, 0), Rc::new(Window::new(&c.sim)));
    let [gt0, gt1] = [0, 1].map(|n| c.nodes[n].gpu.thread());
    let len = size as u32;
    let flags = WrFlags {
        notify_requester: true,
        notify_completer: true,
        notify_responder: false,
    };
    {
        let (rig, tm, rate) = (rig.clone(), tm.clone(), rate.clone());
        c.sim.spawn("rma.node0", async move {
            // Latency phase: ping-pong.
            let send = async |_| rig.put(&gt0, 0, len, flags, false).await;
            ping(&tm, iters, send, async |_| rig.arrival(&gt0, 0).await).await;
            // Rate phase: back-to-back puts with requester flow control.
            let requester_only = WrFlags {
                notify_requester: true,
                ..Default::default()
            };
            rate.open();
            for _ in 0..iters {
                rig.put(&gt0, 0, len, requester_only, false).await;
            }
            rate.close();
        });
    }
    c.sim.spawn("rma.node1", async move {
        let answer = async |_| rig.put(&gt1, 1, len, flags, false).await;
        pong(iters, async |_| rig.arrival(&gt1, 1).await, answer).await;
    });
    c.sim.run();
    outcome(&tm, &rate, size, iters)
}

fn velo_side(size: u64, iters: u32) -> (Time, f64) {
    let c = Cluster::new(Backend::Extoll);
    let v0 = c.nodes[0].extoll().open_velo_port();
    let v1 = c.nodes[1].extoll().open_velo_port();
    let (i0, i1) = (v0.index(), v1.index());
    let (tm, rate) = (Timing::new(&c, 0), Rc::new(Window::new(&c.sim)));
    let [gt0, gt1] = [0, 1].map(|n| c.nodes[n].gpu.thread());
    let payload: Vec<u8> = (0..size).map(|i| i as u8).collect();
    let payload2 = payload.clone();
    {
        let (tm, rate) = (tm.clone(), rate.clone());
        c.sim.spawn("velo.node0", async move {
            let send = async |_| v0.send(&gt0, i1, &payload).await;
            let wait = async |_| drop(v0.recv(&gt0).await); // pong
            ping(&tm, iters, send, wait).await;
            // Rate phase: blast messages; the peer drains (mailbox is 64
            // deep, so pace every 48 messages by waiting for an ack).
            rate.open();
            for k in 0..iters {
                v0.send(&gt0, i1, &payload).await;
                if k % 48 == 47 {
                    let _ = v0.recv(&gt0).await;
                }
            }
            rate.close();
        });
    }
    c.sim.spawn("velo.node1", async move {
        let wait = async |_| drop(v1.recv(&gt1).await);
        pong(iters, wait, async |_| v1.send(&gt1, i0, &payload2).await).await;
        // Rate phase: drain and ack every 48th message.
        for k in 0..iters {
            let _ = v1.recv(&gt1).await;
            if k % 48 == 47 {
                v1.send(&gt1, i0, b"ack").await;
            }
        }
    });
    c.sim.run();
    outcome(&tm, &rate, size, iters)
}

/// Payload sizes of the sweep.
pub fn sizes() -> Vec<u64> {
    vec![8, 32, 64]
}

/// One sweep point: both engines at `size` bytes.
pub fn point(size: u64, iters: u32) -> VeloResult {
    velo_vs_rma(size, iters)
}

/// Render sweep results (in [`sizes`] order) as the text report.
pub fn render(results: &[VeloResult]) -> String {
    let mut out =
        String::from("# extension: VELO small-message engine vs RMA put (GPU-driven, EXTOLL)\n");
    out.push_str(&format!(
        "{:>8} {:>14} {:>14} {:>14} {:>14}\n",
        "bytes", "RMA lat us", "VELO lat us", "RMA msg/s", "VELO msg/s"
    ));
    for r in results {
        out.push_str(&format!(
            "{:>8} {:>14.2} {:>14.2} {:>14.0} {:>14.0}\n",
            r.size,
            time::to_us_f64(r.rma_latency),
            time::to_us_f64(r.velo_latency),
            r.rma_rate,
            r.velo_rate,
        ));
    }
    out.push_str(
        "VELO's inline-payload PIO path needs no registration, no descriptor\n\
         and no DMA read, so it wins small messages on both latency and rate -\n\
         the hardware embodiment of the paper's SVI claims.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn velo_beats_rma_put_for_small_messages() {
        let r = velo_vs_rma(8, 20);
        assert!(
            r.velo_latency < r.rma_latency,
            "VELO {} vs RMA {}",
            r.velo_latency,
            r.rma_latency
        );
        assert!(
            r.velo_rate > r.rma_rate,
            "VELO {} vs RMA {} msg/s",
            r.velo_rate,
            r.rma_rate
        );
    }

    #[test]
    fn velo_latency_grows_slowly_with_payload() {
        let small = velo_vs_rma(8, 15);
        let big = velo_vs_rma(64, 15);
        // 64-byte payload is a couple of extra quad-word stores at most.
        assert!(big.velo_latency < small.velo_latency * 2);
    }
}
