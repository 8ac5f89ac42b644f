//! Sustained message-rate microbenchmarks (Figs. 2 and 5): 64-byte
//! messages over 1..32 connection pairs, posted from parallel CUDA blocks,
//! concurrent kernels, a host-assisted proxy, or the host CPU.

use std::rc::Rc;

use tc_desim::sync::Flag;
use tc_desim::time::{self, Time};
use tc_trace::Snapshot;

use crate::api::{create_pair, QueueLoc};
use crate::cluster::{Backend, Cluster};
use crate::flag::{AssistChannel, Idle, Proxy, DONE, REQUEST};
use crate::transport::{AnyTransport, Transport};

use super::{RateMode, Window};

/// Message size of the message-rate experiments (64 bytes, as in §V-A.2).
pub const MSG_SIZE: u64 = 64;

/// Result of one message-rate run.
#[derive(Debug, Clone)]
pub struct RateResult {
    /// Connection pairs used.
    pub pairs: u32,
    /// Messages per pair.
    pub per_pair: u32,
    /// Total elapsed time.
    pub elapsed: Time,
    /// Delta of every registry counter (all layers, all nodes) from the
    /// first post to the end of the run. Each run owns its cluster and
    /// therefore its registry, so parallel sweep points carry their own
    /// counters instead of relying on ambient state.
    pub registry: Snapshot,
}

impl RateResult {
    /// Aggregate messages per second.
    pub fn msgs_per_s(&self) -> f64 {
        (self.pairs as f64 * self.per_pair as f64) / time::to_sec_f64(self.elapsed)
    }
}

fn build_pairs(c: &Cluster, pairs: u32, queue_loc: QueueLoc) -> Vec<Rc<AnyTransport>> {
    (0..pairs)
        .map(|_| {
            let tx = c.nodes[0].gpu.alloc(MSG_SIZE, 256);
            let rx = c.nodes[1].gpu.alloc(MSG_SIZE, 256);
            let (ep0, _ep1) = create_pair(c, tx, rx, MSG_SIZE, queue_loc);
            Rc::new(ep0)
        })
        .collect()
}

/// One agent's posting loop: post a 64-byte put, wait for the local
/// completion (requester notification / send CQE), repeat.
async fn agent_loop<P: tc_pcie::Processor>(ep: &AnyTransport, p: &P, msgs: u32) {
    for _ in 0..msgs {
        ep.put(p, 0, 0, MSG_SIZE as u32, false).await;
        ep.quiet(p).await.unwrap();
    }
}

fn run_rate(backend: Backend, mode: RateMode, pairs: u32, per_pair: u32) -> RateResult {
    let c = Cluster::new(backend);
    // GPU-driven posting uses queues in GPU memory where the backend can
    // relocate them (the paper's message-rate experiments use the
    // GPU-resident setup); a capability query, not a backend match.
    let gpu_driven = matches!(mode, RateMode::Dev2DevBlocks | RateMode::Dev2DevKernels);
    let queue_loc = if gpu_driven && backend.transport_caps().queue_buffers_relocatable {
        QueueLoc::Gpu
    } else {
        QueueLoc::Host
    };
    let eps = build_pairs(&c, pairs, queue_loc);
    let window = Rc::new(Window::new(&c.sim));
    let w = window.clone();

    match mode {
        RateMode::Dev2DevBlocks => {
            let gpu = c.nodes[0].gpu.clone();
            c.sim.spawn("rate.host", async move {
                let stream = gpu.stream();
                w.open();
                let k = gpu.launch(&stream, "rate", pairs as usize, move |b, t| {
                    let ep = eps[b].clone();
                    async move {
                        agent_loop(&ep, &t, per_pair).await;
                    }
                });
                k.wait().await;
                w.close();
            });
        }
        RateMode::Dev2DevKernels => {
            let gpu = c.nodes[0].gpu.clone();
            c.sim.spawn("rate.host", async move {
                w.open();
                let handles: Vec<_> = (0..pairs as usize)
                    .map(|b| {
                        let stream = gpu.stream();
                        let ep = eps[b].clone();
                        gpu.launch(&stream, &format!("rate{b}"), 1, move |_b, t| {
                            let ep = ep.clone();
                            async move {
                                agent_loop(&ep, &t, per_pair).await;
                            }
                        })
                    })
                    .collect();
                for h in handles {
                    h.wait().await;
                }
                w.close();
            });
        }
        RateMode::HostControlled => {
            let cpu = c.nodes[0].cpu.clone();
            c.sim.spawn("rate.host", async move {
                w.open();
                // The single CPU thread pipelines across all pairs: post a
                // round of puts, then reap a round of completions.
                for _ in 0..per_pair {
                    for ep in &eps {
                        ep.put(&cpu, 0, 0, MSG_SIZE as u32, false).await;
                    }
                    for ep in &eps {
                        ep.quiet(&cpu).await.unwrap();
                    }
                }
                w.close();
            });
        }
        RateMode::Dev2DevAssisted => {
            // One flag channel per pair, all served by ONE proxy thread —
            // whoever has a request blocks the others (the paper explains
            // the flat assisted curve exactly this way, §V-B.2).
            let chans: Vec<AssistChannel> = (0..pairs)
                .map(|_| AssistChannel::new(&c.nodes[0].host_heap))
                .collect();
            let stop = Flag::new("rate.stop");
            Proxy {
                requests: chans.iter().copied().zip(eps).collect(),
                arrival: None,
                notify: false,
                idle: Idle::WhenEmpty(time::ns(80)),
            }
            .spawn("rate.proxy", c.nodes[0].cpu.clone(), &stop);
            let gpu = c.nodes[0].gpu.clone();
            c.sim.spawn("rate.host", async move {
                let stream = gpu.stream();
                w.open();
                let k = gpu.launch(&stream, "rate", pairs as usize, move |b, t| {
                    let ch = chans[b];
                    async move {
                        for _ in 0..per_pair {
                            ch.request(&t, MSG_SIZE, REQUEST).await;
                            ch.wait_state(&t, DONE).await;
                        }
                    }
                });
                k.wait().await;
                w.close();
                stop.set();
            });
        }
    }

    c.sim.run();
    let (elapsed, registry) = window.finish();
    RateResult {
        pairs,
        per_pair,
        elapsed,
        registry,
    }
}

/// EXTOLL message rate (Fig. 2).
pub fn extoll_msgrate(mode: RateMode, pairs: u32, per_pair: u32) -> RateResult {
    run_rate(Backend::Extoll, mode, pairs, per_pair)
}

/// Infiniband message rate (Fig. 5).
pub fn ib_msgrate(mode: RateMode, pairs: u32, per_pair: u32) -> RateResult {
    run_rate(Backend::Infiniband, mode, pairs, per_pair)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_rate_scales_with_pairs() {
        let one = extoll_msgrate(RateMode::Dev2DevBlocks, 1, 60);
        let eight = extoll_msgrate(RateMode::Dev2DevBlocks, 8, 60);
        assert!(
            eight.msgs_per_s() > 2.0 * one.msgs_per_s(),
            "1 pair {} vs 8 pairs {}",
            one.msgs_per_s(),
            eight.msgs_per_s()
        );
    }

    #[test]
    fn rate_result_carries_its_own_registry_delta() {
        let r = extoll_msgrate(RateMode::Dev2DevBlocks, 2, 30);
        assert!(r.registry.get("gpu0.instructions") > 0);
        // Independent runs: deltas are per-simulation, not cumulative.
        let again = extoll_msgrate(RateMode::Dev2DevBlocks, 2, 30);
        assert_eq!(
            r.registry.get("gpu0.instructions"),
            again.registry.get("gpu0.instructions")
        );
    }

    #[test]
    fn assisted_rate_flattens_beyond_four_pairs() {
        let four = extoll_msgrate(RateMode::Dev2DevAssisted, 4, 40);
        let sixteen = extoll_msgrate(RateMode::Dev2DevAssisted, 16, 40);
        // Within 60%: the single proxy thread is the bottleneck.
        let ratio = sixteen.msgs_per_s() / four.msgs_per_s();
        assert!(ratio < 1.6, "assisted kept scaling: {ratio}");
    }
}
