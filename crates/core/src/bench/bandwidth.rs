//! Streaming bandwidth microbenchmarks (Figs. 1b and 4b).
//!
//! Unidirectional stream of `messages` puts of `size` bytes from node 0's
//! GPU memory to node 1's GPU memory, with a bounded window of outstanding
//! operations. Completion is what the paper's configurations make it:
//! requester/completer notifications (EXTOLL), send-queue completions
//! (Infiniband), a CPU proxy (assisted), or full CPU control.

use std::rc::Rc;

use tc_desim::sync::Flag;
use tc_desim::time::{self, Time};
use tc_pcie::Processor;
use tc_trace::Snapshot;

use crate::api::{create_pair, QueueLoc};
use crate::cluster::{Backend, Cluster};
use crate::flag::{AssistChannel, Idle, Proxy, DONE, REQUEST};
use crate::transport::{AnyTransport, Transport};

use super::{ExtollMode, IbMode, Window};

/// Outstanding-message window of the streaming benchmarks.
pub const WINDOW: u32 = 16;

/// Result of one bandwidth run.
#[derive(Debug, Clone)]
pub struct BandwidthResult {
    /// Message size in bytes.
    pub size: u64,
    /// Messages streamed.
    pub messages: u32,
    /// First post to last confirmed delivery.
    pub elapsed: Time,
    /// Delta of every registry counter (all layers, all nodes) from the
    /// first post to the end of the run. Each run owns its cluster and
    /// therefore its registry, so parallel sweep points carry their own
    /// counters instead of relying on ambient state.
    pub registry: Snapshot,
}

impl BandwidthResult {
    /// Bandwidth in MB/s (decimal, like the paper's axis).
    pub fn mbytes_per_s(&self) -> f64 {
        let bytes = self.size as f64 * self.messages as f64;
        bytes / time::to_sec_f64(self.elapsed) / 1.0e6
    }
}

/// Who posts node 0's puts. Node 1's receiver, where there is one, runs on
/// the GPU under `Gpu` and on the host CPU otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Control {
    Cpu,
    Gpu,
    /// The GPU requests each put from a CPU proxy.
    Assisted,
}

/// EXTOLL streaming bandwidth (Fig. 1b). `Dev2DevPollOnGpu` is not part of
/// this figure (the paper only defines it for ping-pong) and is rejected.
pub fn extoll_bandwidth(mode: ExtollMode, size: u64, messages: u32) -> BandwidthResult {
    let control = match mode {
        ExtollMode::Dev2DevDirect => Control::Gpu,
        ExtollMode::HostControlled => Control::Cpu,
        ExtollMode::Dev2DevAssisted => Control::Assisted,
        ExtollMode::Dev2DevPollOnGpu => {
            panic!("pollOnGPU is only applicable to the ping-pong test (paper §V-A.1)")
        }
    };
    stream(Backend::Extoll, QueueLoc::Host, control, size, messages)
}

/// Infiniband streaming bandwidth (Fig. 4b).
pub fn ib_bandwidth(mode: IbMode, size: u64, messages: u32) -> BandwidthResult {
    let (control, queue_loc) = match mode {
        IbMode::Dev2DevBufOnGpu => (Control::Gpu, QueueLoc::Gpu),
        IbMode::Dev2DevBufOnHost => (Control::Gpu, QueueLoc::Host),
        IbMode::HostControlled => (Control::Cpu, QueueLoc::Host),
        IbMode::Dev2DevAssisted => (Control::Assisted, QueueLoc::Host),
    };
    stream(Backend::Infiniband, queue_loc, control, size, messages)
}

/// Stream `messages` puts of `size` bytes from node 0's GPU memory to node
/// 1's under `control`.
fn stream(
    backend: Backend,
    queue_loc: QueueLoc,
    control: Control,
    size: u64,
    messages: u32,
) -> BandwidthResult {
    let c = Cluster::new(backend);
    let tx = c.nodes[0].gpu.alloc(size.max(8), 256);
    let rx = c.nodes[1].gpu.alloc(size.max(8), 256);
    let (ep0, ep1) = create_pair(&c, tx, rx, size.max(8), queue_loc);
    let ep0 = Rc::new(ep0);
    let window = Rc::new(Window::new(&c.sim));
    // EXTOLL's completer notification needs no receiver action, so node 1
    // counts arrivals and closes the window at the last one. Infiniband
    // would need an armed slot per notifying put; its puts go without
    // notification, and the sender closes the window at its last send
    // completion, which means the remote HCA acknowledged the data.
    let notify = !backend.transport_caps().remote_notify_needs_arming;

    if notify {
        let w = window.clone();
        let cpu1 = c.nodes[1].cpu.clone();
        let gpu1 = c.nodes[1].gpu.clone();
        c.sim.spawn("bw.receiver", async move {
            match control {
                Control::Gpu => receive(&gpu1.thread(), &ep1, messages).await,
                Control::Cpu | Control::Assisted => receive(&cpu1, &ep1, messages).await,
            }
            w.close();
        });
    }

    let cpu0 = c.nodes[0].cpu.clone();
    let gpu0 = c.nodes[0].gpu.clone();
    let proxy = (control == Control::Assisted).then(|| {
        let ch = AssistChannel::new(&c.nodes[0].host_heap);
        let stop = Flag::new("bw.stop");
        Proxy {
            requests: vec![(ch, ep0.clone())],
            arrival: None,
            notify,
            idle: Idle::EveryPass(time::ns(60)),
        }
        .spawn("bw.proxy", cpu0.clone(), &stop);
        (ch, stop)
    });
    let w = window.clone();
    c.sim.spawn("bw.sender", async move {
        w.open();
        match control {
            Control::Cpu => windowed(&cpu0, &ep0, size, messages, notify).await,
            Control::Gpu => windowed(&gpu0.thread(), &ep0, size, messages, notify).await,
            Control::Assisted => {
                let (ch, stop) = proxy.expect("an assisted stream spawns its proxy");
                let gt = gpu0.thread();
                for _ in 0..messages {
                    ch.request(&gt, size, REQUEST).await;
                    ch.wait_state(&gt, DONE).await;
                }
                stop.set();
            }
        }
        if !notify {
            w.close();
        }
    });

    c.sim.run();
    let (elapsed, registry) = window.finish();
    BandwidthResult {
        size,
        messages,
        elapsed,
        registry,
    }
}

/// Post `messages` puts with at most [`WINDOW`] outstanding, then retire
/// the rest.
async fn windowed<P: Processor>(p: &P, ep: &AnyTransport, size: u64, messages: u32, notify: bool) {
    let mut in_flight = 0u32;
    for _ in 0..messages {
        ep.put(p, 0, 0, size as u32, notify).await;
        in_flight += 1;
        if in_flight >= WINDOW {
            ep.quiet(p).await.unwrap();
            in_flight -= 1;
        }
    }
    for _ in 0..in_flight {
        ep.quiet(p).await.unwrap();
    }
}

/// Consume one arrival notification per message.
async fn receive<P: Processor>(p: &P, ep: &AnyTransport, messages: u32) {
    for _ in 0..messages {
        ep.wait_arrival(p).await.unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extoll_host_bandwidth_peaks_in_paper_range() {
        // Large messages, host control: should approach the Galibier link
        // rate (paper Fig. 1b peaks around 800 MB/s).
        let r = extoll_bandwidth(ExtollMode::HostControlled, 262_144, 24);
        let bw = r.mbytes_per_s();
        assert!((550.0..950.0).contains(&bw), "bw = {bw} MB/s");
    }

    #[test]
    fn extoll_bandwidth_drops_past_one_mib() {
        let peak = extoll_bandwidth(ExtollMode::HostControlled, 1 << 20, 12);
        let big = extoll_bandwidth(ExtollMode::HostControlled, 4 << 20, 8);
        assert!(
            big.mbytes_per_s() < peak.mbytes_per_s(),
            "expected P2P-read degradation: {} vs {}",
            big.mbytes_per_s(),
            peak.mbytes_per_s()
        );
    }

    #[test]
    fn ib_bandwidth_capped_near_1gb_per_s() {
        let r = ib_bandwidth(IbMode::HostControlled, 262_144, 24);
        let bw = r.mbytes_per_s();
        // Paper Fig. 4b: ~1-1.2 GB/s despite FDR's 6 GB/s line rate,
        // because the HCA reads the payload from GPU memory over PCIe.
        assert!((800.0..1600.0).contains(&bw), "bw = {bw} MB/s");
    }

    #[test]
    fn bandwidth_result_carries_its_own_registry_delta() {
        let r = extoll_bandwidth(ExtollMode::Dev2DevDirect, 1024, 12);
        // A GPU-driven stream must have executed GPU instructions and
        // posted WRs over PCIe within the timed region.
        assert!(r.registry.get("gpu0.instructions") > 0);
        assert!(r.registry.with_prefix("pcie0").any(|(_, v)| v > 0));
        let ib = ib_bandwidth(IbMode::HostControlled, 4096, 12);
        assert!(ib.registry.iter().count() > 0);
        // Independent runs: deltas are per-simulation, not cumulative.
        let again = extoll_bandwidth(ExtollMode::Dev2DevDirect, 1024, 12);
        assert_eq!(
            r.registry.get("gpu0.instructions"),
            again.registry.get("gpu0.instructions")
        );
    }

    #[test]
    fn small_message_bandwidth_ordering_matches_paper() {
        let direct = extoll_bandwidth(ExtollMode::Dev2DevDirect, 1024, 40);
        let host = extoll_bandwidth(ExtollMode::HostControlled, 1024, 40);
        assert!(
            host.mbytes_per_s() > direct.mbytes_per_s(),
            "host {} vs direct {}",
            host.mbytes_per_s(),
            direct.mbytes_per_s()
        );
    }
}
