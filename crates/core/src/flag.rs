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
//! between passes until its stop [`Flag`] is set. A pass that serves
//! nothing runs through [`Processor::spin_until`], so an idle proxy parks.

use std::rc::Rc;

use tc_desim::sync::Flag;
use tc_desim::time::Time;
use tc_mem::Addr;
use tc_pcie::{le, probe_once, CpuThread, LoadKind, Processor, Step};

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

    /// The flag probe `wait_state` and `probe` share: the flag load, then
    /// the compare and branch.
    fn check(&self) -> [Step<'static>; 3] {
        let flag = Step::load(self.flag, LoadKind::U64);
        [flag, Step::Instr(2), Step::Retire(None)]
    }

    /// Requester side: spin until the flag reaches `state`, then reset it
    /// to [`IDLE`]. Returns the argument word.
    pub async fn wait_state<P: Processor>(&self, p: &P, state: u64) -> u64 {
        p.spin_until(&self.check(), |b| le(b) == state).await;
        let arg = p.ld_u64(self.arg).await;
        p.st_u64(self.flag, IDLE).await;
        arg
    }

    /// Server (CPU) side: probe for `state` without blocking; returns the
    /// argument if the flag matched (flag is left untouched — the server
    /// overwrites it with its response state).
    pub async fn probe<P: Processor>(&self, p: &P, state: u64) -> Option<u64> {
        let mut b = [0; 8];
        if !probe_once(p, &self.check(), &mut b, |b| le(b) == state).await {
            return None;
        }
        Some(p.ld_u64(self.arg).await)
    }

    /// Server side: publish a response state (and argument), as a request
    /// is published.
    pub async fn respond<P: Processor>(&self, p: &P, arg: u64, state: u64) {
        self.request(p, arg, state).await;
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

impl Proxy {
    /// Spawn the serve loop as process `name` on `cpu`; it exits at the top
    /// of the first pass after `stop` is set.
    pub fn spawn(self, name: &str, cpu: CpuThread, stop: &Flag) {
        let stop = stop.clone();
        cpu.sim().clone().spawn(name, async move {
            let (idle, after_serving) = match self.idle {
                Idle::EveryPass(d) => (d, d),
                Idle::WhenEmpty(d) => (d, 0),
            };
            let mut pass = vec![Step::Exit(&stop)];
            pass.extend(self.requests.iter().flat_map(|(ch, _)| ch.check()));
            let (fixed, n) = (pass.len(), 8 * self.requests.len());
            loop {
                pass.truncate(fixed);
                let arrived = self.arrival.as_ref().map(|a| a.1.arrival_probe(&mut pass));
                pass.push(Step::Idle(idle));
                let raised = |b: &[u8]| match arrived {
                    Some(ready) if b.len() > n => ready(&b[n..]),
                    _ => le(&b[b.len() - 8..]) == REQUEST,
                };
                let got = cpu.spin_until(&pass, raised).await;
                if got.exited {
                    return;
                }
                self.serve(&cpu, &got.bytes).await;
                cpu.sim().delay(after_serving).await;
            }
        });
    }

    /// Serve what the pass's probes accepted in `bytes`, then finish it.
    async fn serve(&self, cpu: &CpuThread, bytes: &[u8]) {
        let n = self.requests.len();
        let k = (bytes.len() / 8 - 1).min(n);
        for (i, (ch, ep)) in self.requests.iter().enumerate().skip(k) {
            let arg = match i == k {
                true => Some(cpu.ld_u64(ch.arg).await),
                false => ch.probe(cpu, REQUEST).await,
            };
            if let Some(arg) = arg {
                ep.put(cpu, 0, 0, arg as u32, self.notify).await;
                ep.quiet(cpu).await.expect("a proxied put completes");
                ch.respond(cpu, 0, DONE).await;
            }
        }
        if let Some((ch, ep)) = &self.arrival {
            let got = match k == n {
                true => Some(ep.take_arrival(cpu, &bytes[8 * n..]).await),
                false => ep.try_arrival(cpu).await,
            };
            if let Some(len) = got.map(|r| r.expect("a proxied arrival is error-free")) {
                ch.respond(cpu, len as u64, ARRIVED).await;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{create_pair, QueueLoc};
    use crate::cluster::{Backend, Cluster};
    use std::cell::Cell;
    use tc_desim::time::{ms, ns, us};
    use tc_desim::Work;
    use tc_trace::Snapshot;

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
        let stop = Flag::new("stop");
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
            stop.set();
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

    /// A proxy with two request channels and arrival forwarding on
    /// `backend`, recorded (which takes the plain loop) or not (which
    /// parks): the GPU raises the channels 5 and 7 us apart, node 1 answers
    /// both puts with 24 B. Returns the end time, the full registry, the
    /// lengths node 1 saw and the one the GPU got back, and whether any
    /// step was fast-forwarded.
    fn two_channel_proxy(backend: Backend, record: bool) -> ((Time, Snapshot, [u32; 3]), bool) {
        let c = Cluster::new(backend);
        if record {
            c.sim.recorder().enable();
        }
        let (out0, out1) = pair(&c);
        let (back0, back1) = pair(&c);
        let heap = &c.nodes[0].host_heap;
        let req = [AssistChannel::new(heap), AssistChannel::new(heap)];
        let arr = AssistChannel::new(heap);
        let (out0, back0) = (Rc::new(out0), Rc::new(back0));
        let (cpu0, cpu1) = (c.nodes[0].cpu.clone(), c.nodes[1].cpu.clone());
        let stop = Flag::new("stop");
        let (b0, arming) = (back0.clone(), cpu0.clone());
        c.sim
            .spawn("arm", async move { b0.arm_arrival(&arming).await });
        Proxy {
            requests: req.iter().map(|&ch| (ch, out0.clone())).collect(),
            arrival: Some((arr, back0)),
            notify: true,
            idle: Idle::EveryPass(ns(60)),
        }
        .spawn("proxy", cpu0, &stop);
        let lens = Rc::new(Cell::new([0u32; 3]));
        let (l, sim) = (lens.clone(), c.sim.clone());
        c.sim.spawn("node1", async move {
            out1.arm_arrival(&cpu1).await;
            out1.arm_arrival(&cpu1).await;
            let first = out1.wait_arrival(&cpu1).await.unwrap();
            let second = out1.wait_arrival(&cpu1).await.unwrap();
            sim.delay(us(3)).await;
            back1.put(&cpu1, 0, 0, 24, true).await;
            back1.quiet(&cpu1).await.unwrap();
            l.set([first, second, 0]);
        });
        let (gt, l, sim) = (c.nodes[0].gpu.thread(), lens.clone(), c.sim.clone());
        c.sim.spawn("gpu", async move {
            for (ch, len) in req.iter().zip([16, 32]) {
                sim.delay(us(5)).await;
                ch.request(&gt, len, REQUEST).await;
                ch.wait_state(&gt, DONE).await;
            }
            let got = arr.wait_state(&gt, ARRIVED).await;
            let [a, b, _] = l.get();
            l.set([a, b, got as u32]);
            stop.set();
        });
        let before = Work::on_thread();
        let end = c.sim.run_until(ms(1));
        let parked = Work::on_thread().since(before).skipped > 0;
        let stuck = c.sim.stuck_processes();
        assert!(!stuck.iter().any(|p| p.starts_with("proxy")), "{stuck:?}");
        ((end, c.sim.registry().snapshot(), lens.get()), parked)
    }

    #[test]
    fn an_idle_proxy_parks_exactly_as_it_polls() {
        for backend in [Backend::Extoll, Backend::Infiniband] {
            let (plain, plain_parked) = two_channel_proxy(backend, true);
            let (parked, did_park) = two_channel_proxy(backend, false);
            assert!(did_park && !plain_parked, "{backend:?}");
            assert_eq!(parked, plain, "{backend:?}");
            assert_eq!(parked.2, [16, 32, 24], "{backend:?}");
        }
    }

    /// When a one-channel proxy stopped at 20 us exits, with or without a
    /// request raised before its first pass.
    fn proxy_exit(idle: Idle, request: bool) -> Time {
        let c = Cluster::new(Backend::Extoll);
        let ch = AssistChannel::new(&c.nodes[0].host_heap);
        if request {
            raise(&c, &ch, 64);
        }
        let stop = Flag::new("stop");
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
            stop.set();
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
        let s = c.nodes[0].gpu.counters();
        let (writes, reads) = (s.sysmem_writes.get(), s.sysmem_reads.get());
        // Request = 2 stores; wait = at least one flag read + arg read.
        assert!(writes >= 3, "writes = {writes}");
        assert!(reads >= 2, "reads = {reads}");
    }
}
