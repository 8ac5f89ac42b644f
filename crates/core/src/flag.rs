//! The host-assisted synchronization protocol (the paper's
//! `dev2dev-assisted` configurations).
//!
//! The GPU and a CPU proxy thread share a flag word in *host* memory that is
//! mapped into the GPU's address space: the GPU requests a communication by
//! storing to the flag (a zero-copy PCIe write), the CPU polls it, performs
//! the transfer with the host API, and stores the result state back; the GPU
//! polls the flag over PCIe to find out. Every hop of this handshake crosses
//! the PCIe bus, which is why host-assisted operation beats neither pure
//! host control nor (for EXTOLL with device-memory polling) direct GPU
//! control.
//!
//! [`AssistChannel`] is one flag/argument pair. [`Proxy`] is the CPU side
//! that every assisted driver spawns: one serve loop that probes its
//! request channels in order, forwards arrival notifications, and idles
//! between passes until its [`ProxyStop`] is raised. The stop is a plain
//! Rust cell, so the loop polls in full instead of fast-forwarding through
//! [`Processor::spin_until`]: nothing would resume a parked thread when
//! the cell changes.

use std::cell::Cell;
use std::rc::Rc;

use tc_desim::time::Time;
use tc_mem::Addr;
use tc_pcie::{le, CpuThread, LoadKind, Probe, ProbeLoad, Processor};

use crate::transport::{AnyTransport, Transport};

/// Flag protocol states.
pub const IDLE: u64 = 0;
/// GPU has requested a transfer; `arg` holds its parameter.
pub const REQUEST: u64 = 1;
/// CPU has completed the transfer (locally complete).
pub const DONE: u64 = 2;
/// CPU observed arrival of remote data.
pub const ARRIVED: u64 = 3;

/// One GPU<->CPU assist channel: a flag word and an argument word in host
/// memory.
#[derive(Debug, Clone, Copy)]
pub struct AssistChannel {
    /// The flag word (host memory, GPU-mapped).
    pub flag: Addr,
    /// A 64-bit argument mailbox written by the requester.
    pub arg: Addr,
}

impl AssistChannel {
    /// Allocate a channel from a host heap.
    pub fn new(host_heap: &tc_mem::Heap) -> Self {
        AssistChannel {
            flag: host_heap.alloc(8, 64),
            arg: host_heap.alloc(8, 64),
        }
    }

    /// Requester (GPU) side: publish `arg` and raise `state`.
    pub async fn request<P: Processor>(&self, p: &P, arg: u64, state: u64) {
        p.st_u64(self.arg, arg).await;
        p.fence().await;
        p.st_u64(self.flag, state).await;
    }

    /// Requester side: spin until the flag reaches `state`, then reset it
    /// to [`IDLE`]. Returns the argument word.
    pub async fn wait_state<P: Processor>(&self, p: &P, state: u64) -> u64 {
        let flag = [ProbeLoad {
            addr: self.flag,
            kind: LoadKind::U64,
        }];
        let probe = Probe {
            loads: &flag,
            instr: 2,
            spins: None,
        };
        p.spin_until(&probe, |b| le(b) == state).await;
        let arg = p.ld_u64(self.arg).await;
        p.st_u64(self.flag, IDLE).await;
        arg
    }

    /// Server (CPU) side: probe for `state` without blocking; returns the
    /// argument if the flag matched (flag is left untouched — the server
    /// overwrites it with its response state).
    pub async fn probe<P: Processor>(&self, p: &P, state: u64) -> Option<u64> {
        let v = p.ld_u64(self.flag).await;
        p.instr(2).await;
        if v == state {
            Some(p.ld_u64(self.arg).await)
        } else {
            None
        }
    }

    /// Server side: publish a response state (and argument).
    pub async fn respond<P: Processor>(&self, p: &P, arg: u64, state: u64) {
        p.st_u64(self.arg, arg).await;
        p.fence().await;
        p.st_u64(self.flag, state).await;
    }
}

/// When a [`Proxy`] idles between passes, and for how long.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Idle {
    /// Delay after every pass (the ping-pong and bandwidth proxies).
    EveryPass(Time),
    /// Delay only after a pass that served nothing, so a busy proxy goes
    /// straight back to its channels (the message-rate proxy).
    WhenEmpty(Time),
}

/// The CPU proxy thread of the assisted configurations: one loop serving
/// every channel it is given.
pub struct Proxy {
    /// Request channels, probed in this order every pass. A raised request
    /// is served before the next channel is probed: put as many bytes as
    /// its argument names, at offset 0, on the channel's transport, wait
    /// for the put's local completion, then respond [`DONE`].
    pub requests: Vec<(AssistChannel, Rc<AnyTransport>)>,
    /// Arrival forwarding, probed once per pass after the requests: an
    /// arrival notification on the transport is published on the channel
    /// as [`ARRIVED`] carrying the arrival's byte length.
    pub arrival: Option<(AssistChannel, Rc<AnyTransport>)>,
    /// The `notify_remote` flag of every put.
    pub notify: bool,
    /// The idle delay and when it applies.
    pub idle: Idle,
}

/// Ends the proxies spawned with it: each exits at the top of its next
/// pass.
#[derive(Debug, Clone, Default)]
pub struct ProxyStop(Rc<Cell<bool>>);

impl ProxyStop {
    /// Ask every proxy spawned with this handle to exit.
    pub fn stop(&self) {
        self.0.set(true);
    }
}

impl Proxy {
    /// Spawn the serve loop as process `name` on `cpu`; it runs until
    /// `stop` is raised.
    pub fn spawn(self, name: &str, cpu: CpuThread, stop: &ProxyStop) {
        let stop = stop.0.clone();
        cpu.sim().clone().spawn(name, async move {
            while !stop.get() {
                let served = self.pass(&cpu).await;
                match self.idle {
                    Idle::EveryPass(d) => cpu.sim().delay(d).await,
                    Idle::WhenEmpty(d) if !served => cpu.sim().delay(d).await,
                    Idle::WhenEmpty(_) => {}
                }
            }
        });
    }

    /// One pass over the channels; returns whether it served anything.
    async fn pass(&self, cpu: &CpuThread) -> bool {
        let mut served = false;
        for (ch, ep) in &self.requests {
            if let Some(arg) = ch.probe(cpu, REQUEST).await {
                ep.put(cpu, 0, 0, arg as u32, self.notify).await;
                ep.quiet(cpu).await.expect("a proxied put completes");
                ch.respond(cpu, 0, DONE).await;
                served = true;
            }
        }
        if let Some((ch, ep)) = &self.arrival {
            if let Some(r) = ep.try_arrival(cpu).await {
                let len = r.expect("a proxied arrival is error-free");
                ch.respond(cpu, len as u64, ARRIVED).await;
                served = true;
            }
        }
        served
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{create_pair, QueueLoc};
    use crate::cluster::{Backend, Cluster};
    use tc_desim::time::{ms, ns, us};

    /// A transport pair from node 0's GPU memory to node 1's.
    fn pair(c: &Cluster) -> (AnyTransport, AnyTransport) {
        let a = c.nodes[0].gpu.alloc(64, 256);
        let b = c.nodes[1].gpu.alloc(64, 256);
        create_pair(c, a, b, 64, QueueLoc::Host)
    }

    /// Raise `ch` for `len` bytes with a zero-time bus write.
    fn raise(c: &Cluster, ch: &AssistChannel, len: u64) {
        c.bus.write(ch.arg, &len.to_le_bytes());
        c.bus.write(ch.flag, &REQUEST.to_le_bytes());
    }

    #[test]
    fn proxy_serves_channels_in_order_and_forwards_arrivals() {
        let c = Cluster::new(Backend::Extoll);
        let (out0, out1) = pair(&c);
        let (back0, back1) = pair(&c);
        let heap = &c.nodes[0].host_heap;
        let req = [AssistChannel::new(heap), AssistChannel::new(heap)];
        let arr = AssistChannel::new(heap);
        raise(&c, &req[0], 16);
        raise(&c, &req[1], 32);
        let out0 = Rc::new(out0);
        let idle = us(50);
        let stop = ProxyStop::default();
        Proxy {
            requests: req.iter().map(|&ch| (ch, out0.clone())).collect(),
            arrival: Some((arr, Rc::new(back0))),
            notify: true,
            idle: Idle::EveryPass(idle),
        }
        .spawn("proxy", c.nodes[0].cpu.clone(), &stop);
        // Node 1 sees both puts on the shared transport, then answers
        // with 24 B.
        let lens = Rc::new(Cell::new([0u32; 2]));
        let (lens2, cpu1) = (lens.clone(), c.nodes[1].cpu.clone());
        c.sim.spawn("node1", async move {
            let first = out1.wait_arrival(&cpu1).await.unwrap();
            lens2.set([first, out1.wait_arrival(&cpu1).await.unwrap()]);
            back1.put(&cpu1, 0, 0, 24, true).await;
            back1.quiet(&cpu1).await.unwrap();
        });
        let (gt, got) = (c.nodes[0].gpu.thread(), Rc::new(Cell::new(0)));
        let got2 = got.clone();
        c.sim.spawn("gpu", async move {
            got2.set(arr.wait_state(&gt, ARRIVED).await);
            stop.stop();
        });

        // The second pass starts after the first idle delay has run out,
        // so both requests were served by the first.
        c.sim.run_until(idle - 1);
        let flags = req.map(|ch| {
            let mut b = [0u8; 8];
            c.bus.read(ch.flag, &mut b);
            u64::from_le_bytes(b)
        });
        assert_eq!(flags, [DONE; 2]);
        c.sim.run_until(ms(1));
        assert_eq!(lens.get(), [16, 32], "requests served out of channel order");
        assert_eq!(got.get(), 24);
        // The proxy exited: only the NIC engines (requester, tx,
        // completer, velo_tx per node) remain parked.
        assert_eq!(c.sim.live_processes(), 8);
    }

    /// When a one-channel proxy stopped at 20 us exits, with or without a
    /// request raised before its first pass.
    fn proxy_exit(idle: Idle, request: bool) -> Time {
        let c = Cluster::new(Backend::Extoll);
        let ch = AssistChannel::new(&c.nodes[0].host_heap);
        if request {
            raise(&c, &ch, 64);
        }
        let stop = ProxyStop::default();
        Proxy {
            requests: vec![(ch, Rc::new(pair(&c).0))],
            arrival: None,
            notify: false,
            idle,
        }
        .spawn("proxy", c.nodes[0].cpu.clone(), &stop);
        let sim = c.sim.clone();
        c.sim.spawn("stop", async move {
            sim.delay(us(20)).await;
            stop.stop();
        });
        let end = c.sim.run_until(ms(1));
        assert_eq!(c.sim.live_processes(), 8, "the proxy did not exit");
        end
    }

    #[test]
    fn idle_policies_differ_only_after_a_served_pass() {
        let (every, when_empty) = (Idle::EveryPass(ns(80)), Idle::WhenEmpty(ns(80)));
        assert_eq!(proxy_exit(every, false), proxy_exit(when_empty, false));
        assert_ne!(proxy_exit(every, true), proxy_exit(when_empty, true));
    }

    #[test]
    fn request_response_round_trip_gpu_to_cpu() {
        let c = Cluster::new(Backend::Extoll);
        let ch = AssistChannel::new(&c.nodes[0].host_heap);
        let gpu_t = c.nodes[0].gpu.thread();
        let cpu = c.nodes[0].cpu.clone();
        let sim = c.sim.clone();
        c.sim.spawn("gpu", async move {
            ch.request(&gpu_t, 1234, REQUEST).await;
            let arg = ch.wait_state(&gpu_t, DONE).await;
            assert_eq!(arg, 5678);
        });
        c.sim.spawn("cpu-proxy", async move {
            loop {
                if let Some(arg) = ch.probe(&cpu, REQUEST).await {
                    assert_eq!(arg, 1234);
                    ch.respond(&cpu, 5678, DONE).await;
                    break;
                }
                sim.delay(tc_desim::time::ns(100)).await;
            }
        });
        c.sim.run();
        // Only the NIC engine processes (requester, tx, completer, velo_tx
        // per node) remain parked on their channels.
        assert_eq!(c.sim.live_processes(), 8);
    }

    #[test]
    fn handshake_costs_pcie_crossings_for_the_gpu() {
        let c = Cluster::new(Backend::Extoll);
        let ch = AssistChannel::new(&c.nodes[0].host_heap);
        let gpu = c.nodes[0].gpu.clone();
        let gpu_t = gpu.thread();
        let cpu = c.nodes[0].cpu.clone();
        let sim = c.sim.clone();
        c.sim.spawn("gpu", async move {
            ch.request(&gpu_t, 1, REQUEST).await;
            ch.wait_state(&gpu_t, DONE).await;
        });
        c.sim.spawn("cpu-proxy", async move {
            loop {
                if ch.probe(&cpu, REQUEST).await.is_some() {
                    ch.respond(&cpu, 0, DONE).await;
                    break;
                }
                sim.delay(tc_desim::time::ns(100)).await;
            }
        });
        c.sim.run();
        let s = c.nodes[0].gpu.counters().snapshot();
        // Request = 2 stores; wait = at least one flag read + arg read.
        assert!(s.sysmem_writes >= 3, "writes = {}", s.sysmem_writes);
        assert!(s.sysmem_reads >= 2, "reads = {}", s.sysmem_reads);
    }
}
