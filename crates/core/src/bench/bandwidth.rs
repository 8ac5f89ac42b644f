//! Streaming bandwidth microbenchmarks (Figs. 1b and 4b).
//!
//! Unidirectional stream of `messages` puts of `size` bytes from node 0's
//! GPU memory to node 1's GPU memory, with a bounded window of outstanding
//! operations. Completion is what the paper's configurations make it:
//! requester/completer notifications (EXTOLL), send-queue completions
//! (Infiniband), a CPU proxy (assisted), or full CPU control.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use tc_desim::time::{self, Time};
use tc_trace::Snapshot;

use crate::api::{create_pair, QueueLoc};
use crate::cluster::{Backend, Cluster};
use crate::flag::{AssistChannel, DONE, REQUEST};
use crate::transport::Transport;

use super::{ExtollMode, IbMode};

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

/// EXTOLL streaming bandwidth (Fig. 1b). `Dev2DevPollOnGpu` is not part of
/// this figure (the paper only defines it for ping-pong) and is rejected.
pub fn extoll_bandwidth(mode: ExtollMode, size: u64, messages: u32) -> BandwidthResult {
    assert_ne!(
        mode,
        ExtollMode::Dev2DevPollOnGpu,
        "pollOnGPU is only applicable to the ping-pong test (paper §V-A.1)"
    );
    let c = Cluster::new(Backend::Extoll);
    let tx = c.nodes[0].gpu.alloc(size.max(8), 256);
    let rx = c.nodes[1].gpu.alloc(size.max(8), 256);
    let (ep0, ep1) = create_pair(&c, tx, rx, size.max(8), QueueLoc::Host);
    let ep0 = Rc::new(ep0);
    let ep1 = Rc::new(ep1);
    let t0 = Rc::new(Cell::new(0u64));
    let t_done = Rc::new(Cell::new(0u64));
    let reg_start: Rc<RefCell<Option<Snapshot>>> = Rc::new(RefCell::new(None));

    // Receiver: consume one completer notification per message.
    {
        let ep1 = ep1.clone();
        let td = t_done.clone();
        let sim = c.sim.clone();
        let cpu1 = c.nodes[1].cpu.clone();
        let gpu1 = c.nodes[1].gpu.clone();
        let host_side = matches!(
            mode,
            ExtollMode::HostControlled | ExtollMode::Dev2DevAssisted
        );
        c.sim.spawn("bw.receiver", async move {
            let gt = gpu1.thread();
            for _ in 0..messages {
                if host_side {
                    ep1.wait_arrival(&cpu1).await.unwrap();
                } else {
                    ep1.wait_arrival(&gt).await.unwrap();
                }
            }
            td.set(sim.now());
        });
    }

    match mode {
        ExtollMode::Dev2DevDirect | ExtollMode::HostControlled => {
            let ep0 = ep0.clone();
            let ts = t0.clone();
            let rs = reg_start.clone();
            let sim = c.sim.clone();
            let gpu0 = c.nodes[0].gpu.clone();
            let cpu0 = c.nodes[0].cpu.clone();
            let host = mode == ExtollMode::HostControlled;
            c.sim.spawn("bw.sender", async move {
                let gt = gpu0.thread();
                ts.set(sim.now());
                *rs.borrow_mut() = Some(sim.registry().snapshot());
                let mut in_flight = 0u32;
                for _ in 0..messages {
                    if host {
                        ep0.put(&cpu0, 0, 0, size as u32, true).await;
                    } else {
                        ep0.put(&gt, 0, 0, size as u32, true).await;
                    }
                    in_flight += 1;
                    if in_flight >= WINDOW {
                        if host {
                            ep0.quiet(&cpu0).await.unwrap();
                        } else {
                            ep0.quiet(&gt).await.unwrap();
                        }
                        in_flight -= 1;
                    }
                }
                for _ in 0..in_flight {
                    if host {
                        ep0.quiet(&cpu0).await.unwrap();
                    } else {
                        ep0.quiet(&gt).await.unwrap();
                    }
                }
            });
        }
        ExtollMode::Dev2DevAssisted => {
            let ch = AssistChannel::new(&c.nodes[0].host_heap);
            let stop = Rc::new(Cell::new(false));
            {
                let ep0 = ep0.clone();
                let cpu0 = c.nodes[0].cpu.clone();
                let stop = stop.clone();
                let sim = c.sim.clone();
                c.sim.spawn("bw.proxy", async move {
                    loop {
                        if stop.get() {
                            break;
                        }
                        if let Some(arg) = ch.probe(&cpu0, REQUEST).await {
                            ep0.put(&cpu0, 0, 0, arg as u32, true).await;
                            ep0.quiet(&cpu0).await.unwrap();
                            ch.respond(&cpu0, 0, DONE).await;
                        }
                        sim.delay(time::ns(60)).await;
                    }
                });
            }
            let ts = t0.clone();
            let rs = reg_start.clone();
            let sim = c.sim.clone();
            let gpu0 = c.nodes[0].gpu.clone();
            c.sim.spawn("bw.sender", async move {
                let gt = gpu0.thread();
                ts.set(sim.now());
                *rs.borrow_mut() = Some(sim.registry().snapshot());
                for _ in 0..messages {
                    ch.request(&gt, size, REQUEST).await;
                    ch.wait_state(&gt, DONE).await;
                }
                stop.set(true);
            });
        }
        ExtollMode::Dev2DevPollOnGpu => unreachable!(),
    }

    c.sim.run();
    let start = reg_start.borrow_mut().take().unwrap_or_default();
    BandwidthResult {
        size,
        messages,
        elapsed: t_done.get().saturating_sub(t0.get()).max(1),
        registry: c.sim.registry().snapshot().delta(&start),
    }
}

/// Infiniband streaming bandwidth (Fig. 4b).
pub fn ib_bandwidth(mode: IbMode, size: u64, messages: u32) -> BandwidthResult {
    let c = Cluster::new(Backend::Infiniband);
    let tx = c.nodes[0].gpu.alloc(size.max(8), 256);
    let rx = c.nodes[1].gpu.alloc(size.max(8), 256);
    let queue_loc = match mode {
        IbMode::Dev2DevBufOnGpu => QueueLoc::Gpu,
        _ => QueueLoc::Host,
    };
    let (ep0, _ep1) = create_pair(&c, tx, rx, size.max(8), queue_loc);
    let ep0 = Rc::new(ep0);
    let t0 = Rc::new(Cell::new(0u64));
    let t_done = Rc::new(Cell::new(0u64));
    let reg_start: Rc<RefCell<Option<Snapshot>>> = Rc::new(RefCell::new(None));

    match mode {
        IbMode::Dev2DevBufOnGpu | IbMode::Dev2DevBufOnHost | IbMode::HostControlled => {
            let ep0 = ep0.clone();
            let (ts, td) = (t0.clone(), t_done.clone());
            let rs = reg_start.clone();
            let sim = c.sim.clone();
            let gpu0 = c.nodes[0].gpu.clone();
            let cpu0 = c.nodes[0].cpu.clone();
            let host = mode == IbMode::HostControlled;
            c.sim.spawn("bw.sender", async move {
                let gt = gpu0.thread();
                ts.set(sim.now());
                *rs.borrow_mut() = Some(sim.registry().snapshot());
                let mut in_flight = 0u32;
                for _ in 0..messages {
                    if host {
                        ep0.put(&cpu0, 0, 0, size as u32, false).await;
                    } else {
                        ep0.put(&gt, 0, 0, size as u32, false).await;
                    }
                    in_flight += 1;
                    if in_flight >= WINDOW {
                        if host {
                            ep0.quiet(&cpu0).await.unwrap();
                        } else {
                            ep0.quiet(&gt).await.unwrap();
                        }
                        in_flight -= 1;
                    }
                }
                for _ in 0..in_flight {
                    if host {
                        ep0.quiet(&cpu0).await.unwrap();
                    } else {
                        ep0.quiet(&gt).await.unwrap();
                    }
                }
                // A send completion means the remote HCA acknowledged the
                // data, so the stream is delivered.
                td.set(sim.now());
            });
        }
        IbMode::Dev2DevAssisted => {
            let ch = AssistChannel::new(&c.nodes[0].host_heap);
            let stop = Rc::new(Cell::new(false));
            {
                let ep0 = ep0.clone();
                let cpu0 = c.nodes[0].cpu.clone();
                let stop = stop.clone();
                let sim = c.sim.clone();
                c.sim.spawn("bw.proxy", async move {
                    loop {
                        if stop.get() {
                            break;
                        }
                        if let Some(arg) = ch.probe(&cpu0, REQUEST).await {
                            ep0.put(&cpu0, 0, 0, arg as u32, false).await;
                            ep0.quiet(&cpu0).await.unwrap();
                            ch.respond(&cpu0, 0, DONE).await;
                        }
                        sim.delay(time::ns(60)).await;
                    }
                });
            }
            let (ts, td) = (t0.clone(), t_done.clone());
            let rs = reg_start.clone();
            let sim = c.sim.clone();
            let gpu0 = c.nodes[0].gpu.clone();
            c.sim.spawn("bw.sender", async move {
                let gt = gpu0.thread();
                ts.set(sim.now());
                *rs.borrow_mut() = Some(sim.registry().snapshot());
                for _ in 0..messages {
                    ch.request(&gt, size, REQUEST).await;
                    ch.wait_state(&gt, DONE).await;
                }
                td.set(sim.now());
                stop.set(true);
            });
        }
    }

    c.sim.run();
    let start = reg_start.borrow_mut().take().unwrap_or_default();
    BandwidthResult {
        size,
        messages,
        elapsed: t_done.get().saturating_sub(t0.get()).max(1),
        registry: c.sim.registry().snapshot().delta(&start),
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
