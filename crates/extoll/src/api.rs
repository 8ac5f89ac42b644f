//! The RMA software API (librma analogue), generic over the executing
//! [`Processor`] — the *same* code path runs on the host CPU or on a GPU
//! thread, exactly as the paper's extended API does (§III-C).

use std::cell::Cell;

use tc_gpu::GpuThread;
use tc_mem::{layout, Addr, RegionKind};
use tc_pcie::{le, LoadKind, Processor, Step};

use crate::engine::ExtollNic;
use crate::notif::{NotifQueueLayout, Notification};
use crate::wr::{RmaCommand, WorkRequest, WrFlags};

/// Consumer view of one notification queue: software read cursor plus the
/// in-memory read-pointer word the hardware checks.
pub struct NotifConsumer {
    layout: NotifQueueLayout,
    rp: Cell<u64>,
    /// Registry counter (`extoll{n}.notif_poll_spins`) bumped once per
    /// probe of an empty queue head — each spin is a real memory round
    /// trip for the poller.
    poll_spins: tc_trace::Counter,
}

impl NotifConsumer {
    fn new(layout: NotifQueueLayout, poll_spins: tc_trace::Counter) -> Self {
        NotifConsumer {
            layout,
            rp: Cell::new(0),
            poll_spins,
        }
    }

    /// The head probe of [`NotifConsumer::wait`] and of a transport's
    /// completion and arrival waits: the 128-bit record as two 64-bit loads
    /// (the compiled librma code does not use vector loads here), then
    /// `rma_notification_get`'s library call (queue bounds checks, 128-bit
    /// decode, unit dispatch, loop bookkeeping). An empty head bumps
    /// `notif_poll_spins`; [`NotifConsumer::ready`] is its test.
    pub fn probe(&self) -> [Step<'_>; 4] {
        let slot = self.layout.ring.slot(self.rp.get());
        [
            Step::load(slot, LoadKind::U64),
            Step::load(slot + 8, LoadKind::U64),
            Step::Instr(40),
            Step::Retire(Some(&self.poll_spins)),
        ]
    }

    /// The record a head probe loaded into `bytes`, if one is pending.
    pub fn record(bytes: &[u8]) -> Option<Notification> {
        Notification::decode([le(&bytes[..8]), le(&bytes[8..])])
    }

    /// Whether a head probe's bytes hold a record.
    pub fn ready(bytes: &[u8]) -> bool {
        Self::record(bytes).is_some()
    }

    /// Spin until a record is pending, then return it (still not freed).
    pub async fn wait<P: Processor>(&self, p: &P) -> Notification {
        let got = p.spin_until(&self.probe(), Self::ready).await;
        Self::record(&got.bytes).expect("the accepted probe holds a record")
    }

    /// Free the record at the head: zero it (so the slot polls as free
    /// after wrap-around) and publish the new read pointer for the
    /// hardware's overflow check.
    pub async fn free<P: Processor>(&self, p: &P) {
        let slot = self.layout.ring.slot(self.rp.get());
        // Reset the 128-bit record with two stores, then publish the read
        // pointer for the hardware overflow check.
        p.st_u64(slot, 0).await;
        p.st_u64(slot + 8, 0).await;
        self.rp.set(self.rp.get() + 1);
        p.st_u32(self.layout.rp_addr, self.rp.get() as u32).await;
        // rma_notification_free call overhead: wrap handling, queue struct
        // updates.
        p.instr(24).await;
    }
}

/// An open VELO port: a send page plus this port's receive mailbox.
pub struct VeloPort {
    port: u16,
    /// The peer node [`VeloPort::send`] targets (defaults to the other node
    /// of a two-node system; override with [`VeloPort::set_peer_node`]).
    peer_node: Cell<u16>,
    send_page: tc_mem::Addr,
    /// Consumer of this port's receive mailbox.
    pub mailbox: crate::velo::MailboxConsumer,
}

impl VeloPort {
    /// This port's index (remote senders address it).
    pub fn index(&self) -> u16 {
        self.port
    }

    /// Change the default destination node of [`VeloPort::send`].
    pub fn set_peer_node(&self, node: u16) {
        self.peer_node.set(node);
    }

    /// Send up to [`crate::velo::VELO_MAX_PAYLOAD`] bytes to `dst_port` on
    /// the peer node: header + payload PIO'd in one write-combined burst.
    pub async fn send<P: Processor>(&self, p: &P, dst_port: u16, payload: &[u8]) {
        self.send_to(p, self.peer_node.get(), dst_port, payload)
            .await;
    }

    /// Send to an explicit `(node, port)` destination.
    pub async fn send_to<P: Processor>(&self, p: &P, dst_node: u16, dst_port: u16, payload: &[u8]) {
        crate::velo::velo_send(p, self.send_page, dst_node, dst_port, payload).await;
    }

    /// Receive the next message: `(src_port, payload)`.
    pub async fn recv<P: Processor>(&self, p: &P) -> (u16, Vec<u8>) {
        let (_node, port, data) = self.mailbox.recv(p).await;
        (port, data)
    }

    /// Receive the next message with its source node:
    /// `(src_node, src_port, payload)`.
    pub async fn recv_from<P: Processor>(&self, p: &P) -> (u16, u16, Vec<u8>) {
        self.mailbox.recv(p).await
    }

    /// Probe for a message without blocking.
    pub async fn try_recv<P: Processor>(&self, p: &P) -> Option<(u16, Vec<u8>)> {
        self.mailbox
            .try_recv(p)
            .await
            .map(|(_node, port, data)| (port, data))
    }
}

/// An open RMA port: the user-space handle the paper's API hands out.
pub struct RmaPort {
    nic: ExtollNic,
    port: u16,
    /// The node puts/gets are routed to (§III-B: "a connection has to be
    /// established"). Defaults to the other node of a two-node system.
    peer_node: Cell<u16>,
    bar_page: Addr,
    /// Requester notifications ("transfer started / WR slot free").
    pub requester: NotifConsumer,
    /// Completer notifications ("data arrived").
    pub completer: NotifConsumer,
    /// Responder notifications ("remote get read our memory").
    pub responder: NotifConsumer,
}

impl ExtollNic {
    /// Open the next free VELO port: its send page and receive mailbox.
    pub fn open_velo_port(&self) -> VeloPort {
        let port = self.alloc_velo_port();
        VeloPort {
            port,
            peer_node: Cell::new(if self.node() == 0 { 1 } else { 0 }),
            send_page: self.velo_send_page(port),
            mailbox: crate::velo::MailboxConsumer::new(self.velo_mailbox(port)),
        }
    }

    /// Open the next free port: maps its requester page and assigns its
    /// pre-allocated notification queues.
    pub fn open_port(&self) -> RmaPort {
        let port = self.alloc_port();
        let q = self.port_queues(port);
        RmaPort {
            nic: self.clone(),
            port,
            peer_node: Cell::new(if self.node() == 0 { 1 } else { 0 }),
            bar_page: self.bar_page(port),
            requester: NotifConsumer::new(q.requester, self.stats().notif_poll_spins.clone()),
            completer: NotifConsumer::new(q.completer, self.stats().notif_poll_spins.clone()),
            responder: NotifConsumer::new(q.responder, self.stats().notif_poll_spins.clone()),
        }
    }

    /// Register memory for RMA and return its NLA. GPU device memory is
    /// accepted directly (the GPUDirect + driver-patch path): it is
    /// registered through its PCIe BAR aperture so the NIC accesses it
    /// peer-to-peer.
    pub fn register_memory(&self, addr: Addr, len: u64) -> u64 {
        let fabric = match self.inner.bus.classify(addr) {
            RegionKind::GpuDram { node } => {
                assert_eq!(node, self.node(), "GPUDirect only reaches the local GPU");
                layout::gpu_dram_to_bar(addr)
            }
            RegionKind::HostDram { node } => {
                assert_eq!(node, self.node(), "cannot register remote host memory");
                addr
            }
            other => panic!("cannot register {other:?} for RMA"),
        };
        self.atu().register(fabric, len)
    }
}

impl RmaPort {
    /// This port's index.
    pub fn index(&self) -> u16 {
        self.port
    }

    /// The NIC this port belongs to.
    pub fn nic(&self) -> &ExtollNic {
        &self.nic
    }

    /// Establish the connection: route this port's puts/gets to `node`.
    pub fn connect_node(&self, node: u16) {
        self.peer_node.set(node);
    }

    /// Post a put: `len` bytes from `local_nla` to `remote_nla` on the
    /// remote node, addressed to `dst_port` for notification routing.
    ///
    /// This is the paper's single-step posting: build the 192-bit descriptor
    /// and store it as three 64-bit words to the requester page.
    pub async fn post_put<P: Processor>(
        &self,
        p: &P,
        dst_port: u16,
        local_nla: u64,
        remote_nla: u64,
        len: u32,
        flags: WrFlags,
    ) {
        let wr = WorkRequest {
            command: RmaCommand::Put,
            flags,
            dst_node: self.peer_node.get(),
            dst_port,
            len,
            local_nla,
            remote_nla,
        };
        self.post(p, &wr).await;
    }

    /// Post a get: fetch `len` bytes from `remote_nla` into `local_nla`.
    pub async fn post_get<P: Processor>(
        &self,
        p: &P,
        dst_port: u16,
        local_nla: u64,
        remote_nla: u64,
        len: u32,
        flags: WrFlags,
    ) {
        let wr = WorkRequest {
            command: RmaCommand::Get,
            flags,
            dst_node: self.peer_node.get(),
            dst_port,
            len,
            local_nla,
            remote_nla,
        };
        self.post(p, &wr).await;
    }

    async fn post<P: Processor>(&self, p: &P, wr: &WorkRequest) {
        // Descriptor assembly: pack command/flags/size, two NLAs.
        p.instr(6).await;
        let w = wr.encode();
        p.st_u64(self.bar_page, w[0]).await;
        p.st_u64(self.bar_page + 8, w[1]).await;
        p.st_u64(self.bar_page + 16, w[2]).await;
    }

    /// Post a put the *thread-collaborative* way (the paper's claim 2 in
    /// §VI): three lanes of a warp each prepare one descriptor word and the
    /// warp issues a single write-combined 192-bit store to the requester
    /// page. One store-path transaction instead of three.
    pub async fn post_put_warp(
        &self,
        t: &GpuThread,
        dst_port: u16,
        local_nla: u64,
        remote_nla: u64,
        len: u32,
        flags: WrFlags,
    ) {
        let wr = WorkRequest {
            command: RmaCommand::Put,
            flags,
            dst_node: self.peer_node.get(),
            dst_port,
            len,
            local_nla,
            remote_nla,
        };
        // The assembly work is spread over the lanes.
        t.instr_parallel(6, 3).await;
        let w = wr.encode();
        let mut bytes = [0u8; 24];
        bytes[..8].copy_from_slice(&w[0].to_le_bytes());
        bytes[8..16].copy_from_slice(&w[1].to_le_bytes());
        bytes[16..].copy_from_slice(&w[2].to_le_bytes());
        t.st_bytes(self.bar_page, &bytes).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RmaConfig;
    use crate::notif::NotifyUnit;
    use std::rc::Rc;
    use tc_desim::Sim;
    use tc_gpu::{Gpu, GpuConfig};
    use tc_link::{CableConfig, Fabric};
    use tc_mem::{Bus, Heap, SparseMem};
    use tc_pcie::{CpuConfig, CpuThread, Pcie, PcieConfig};

    pub(crate) struct Node {
        pub cpu: CpuThread,
        pub gpu: Gpu,
        pub nic: ExtollNic,
        pub host_heap: Heap,
    }

    /// Two EXTOLL nodes back to back.
    pub(crate) fn two_nodes(sim: &Sim) -> (Bus, Node, Node) {
        let bus = Bus::new();
        let cable: Fabric<crate::engine::RmaFrame> =
            Fabric::new(sim, CableConfig::extoll_galibier(), 2);
        let build = |node: usize| {
            bus.add_ram(
                Rc::new(SparseMem::new(layout::host_dram(node), 1 << 30)),
                RegionKind::HostDram { node },
            );
            let pcie = Pcie::new(sim.clone(), bus.clone(), PcieConfig::gen2_x8());
            let gpu = Gpu::new(sim, node, GpuConfig::kepler_k20(), &bus, &pcie);
            // Kernel heap at the top of host DRAM for driver structures.
            let kernel_heap = Heap::new(layout::host_dram(node) + (1 << 29), 1 << 28);
            let nic = ExtollNic::new(
                sim,
                node,
                RmaConfig::default(),
                &bus,
                &pcie,
                cable.port(node),
                &kernel_heap,
            );
            let cpu = CpuThread::new(
                sim.clone(),
                node,
                CpuConfig::default(),
                pcie.endpoint(&format!("cpu{node}")),
            );
            Node {
                cpu,
                gpu,
                nic,
                host_heap: Heap::new(layout::host_dram(node), 1 << 29),
            }
        };
        let n0 = build(0);
        let n1 = build(1);
        (bus, n0, n1)
    }

    #[test]
    fn cpu_put_moves_data_between_nodes() {
        let sim = Sim::new();
        let (bus, n0, n1) = two_nodes(&sim);
        // Source buffer in node0 host memory, sink in node1 host memory.
        let src = n0.host_heap.alloc(4096, 64);
        let dst = n1.host_heap.alloc(4096, 64);
        let payload: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        bus.write(src, &payload);
        let src_nla = n0.nic.register_memory(src, 4096);
        let dst_nla = n1.nic.register_memory(dst, 4096);
        let p0 = n0.nic.open_port();
        let p1 = n1.nic.open_port();
        let cpu0 = n0.cpu.clone();
        let cpu1 = n1.cpu.clone();
        sim.spawn("sender", async move {
            p0.post_put(
                &cpu0,
                p1.index(),
                src_nla,
                dst_nla,
                4096,
                WrFlags {
                    notify_requester: true,
                    notify_completer: true,
                    ..Default::default()
                },
            )
            .await;
            let n = p0.requester.wait(&cpu0).await;
            assert_eq!(n.unit, NotifyUnit::Requester);
            p0.requester.free(&cpu0).await;
            // Receiver side: wait for the completer notification.
            let n = p1.completer.wait(&cpu1).await;
            assert_eq!(n.unit, NotifyUnit::Completer);
            assert_eq!(n.len, 4096);
            p1.completer.free(&cpu1).await;
        });
        sim.run();
        let mut got = vec![0u8; 4096];
        bus.read(dst, &mut got);
        assert_eq!(got, payload);
        assert_eq!(n0.nic.stats().puts.get(), 1);
        assert_eq!(n1.nic.stats().frames_completed.get(), 1);
    }

    #[test]
    fn gpu_put_from_device_memory_is_p2p() {
        let sim = Sim::new();
        let (bus, n0, n1) = two_nodes(&sim);
        let src = n0.gpu.alloc(8192, 256);
        let dst = n1.gpu.alloc(8192, 256);
        let payload: Vec<u8> = (0..8192u32).map(|i| (i * 7 % 256) as u8).collect();
        bus.write(src, &payload);
        let src_nla = n0.nic.register_memory(src, 8192);
        let dst_nla = n1.nic.register_memory(dst, 8192);
        let p0 = n0.nic.open_port();
        let p1 = n1.nic.open_port();
        let t0 = n0.gpu.thread();
        sim.spawn("gpu-sender", async move {
            p0.post_put(
                &t0,
                p1.index(),
                src_nla,
                dst_nla,
                8192,
                WrFlags {
                    notify_requester: true,
                    ..Default::default()
                },
            )
            .await;
            let n = p0.requester.wait(&t0).await;
            assert_eq!(n.len, 8192);
            p0.requester.free(&t0).await;
        });
        sim.run();
        let mut got = vec![0u8; 8192];
        bus.read(dst, &mut got);
        assert_eq!(got, payload);
        // Posting the WR from the GPU = 3 sysmem (BAR) stores.
        assert!(n0.gpu.counters().sysmem_writes.get() >= 3);
        // The NIC read the payload peer-to-peer from the GPU BAR.
        assert!(n0.nic.stats().puts.get() == 1);
    }

    #[test]
    fn get_fetches_remote_data() {
        let sim = Sim::new();
        let (bus, n0, n1) = two_nodes(&sim);
        let local = n0.host_heap.alloc(1024, 64);
        let remote = n1.host_heap.alloc(1024, 64);
        let payload: Vec<u8> = (0..1024u32).map(|i| (i % 127) as u8).collect();
        bus.write(remote, &payload);
        let local_nla = n0.nic.register_memory(local, 1024);
        let remote_nla = n1.nic.register_memory(remote, 1024);
        let p0 = n0.nic.open_port();
        let p1 = n1.nic.open_port();
        let cpu0 = n0.cpu.clone();
        sim.spawn("getter", async move {
            p0.post_get(
                &cpu0,
                p1.index(),
                local_nla,
                remote_nla,
                1024,
                WrFlags {
                    notify_completer: true,
                    ..Default::default()
                },
            )
            .await;
            // Completer notification arrives when the response landed.
            let n = p0.completer.wait(&cpu0).await;
            assert_eq!(n.unit, NotifyUnit::Completer);
            p0.completer.free(&cpu0).await;
        });
        sim.run();
        let mut got = vec![0u8; 1024];
        bus.read(local, &mut got);
        assert_eq!(got, payload);
        assert_eq!(n0.nic.stats().gets.get(), 1);
    }

    #[test]
    fn notification_free_reuses_slots_after_wraparound() {
        let sim = Sim::new();
        let (bus, n0, n1) = two_nodes(&sim);
        let src = n0.host_heap.alloc(64, 64);
        let dst = n1.host_heap.alloc(64, 64);
        bus.write_u64(src, 0x42);
        let src_nla = n0.nic.register_memory(src, 64);
        let dst_nla = n1.nic.register_memory(dst, 64);
        let p0 = n0.nic.open_port();
        let p1 = n1.nic.open_port();
        let cpu0 = n0.cpu.clone();
        let iters = 2 * RmaConfig::default().notif_entries + 5;
        sim.spawn("sender", async move {
            for _ in 0..iters {
                p0.post_put(
                    &cpu0,
                    p1.index(),
                    src_nla,
                    dst_nla,
                    64,
                    WrFlags {
                        notify_requester: true,
                        ..Default::default()
                    },
                )
                .await;
                p0.requester.wait(&cpu0).await;
                p0.requester.free(&cpu0).await;
            }
        });
        sim.run();
        assert_eq!(n0.nic.stats().puts.get(), iters);
        assert_eq!(n0.nic.stats().notif_overflows.get(), 0);
    }

    #[test]
    fn unconsumed_notifications_eventually_overflow() {
        let sim = Sim::new();
        let (bus, n0, n1) = two_nodes(&sim);
        let src = n0.host_heap.alloc(64, 64);
        let dst = n1.host_heap.alloc(64, 64);
        bus.write_u64(src, 1);
        let src_nla = n0.nic.register_memory(src, 64);
        let dst_nla = n1.nic.register_memory(dst, 64);
        let p0 = n0.nic.open_port();
        let p1 = n1.nic.open_port();
        let cpu0 = n0.cpu.clone();
        let iters = RmaConfig::default().notif_entries + 10;
        sim.spawn("sender", async move {
            for _ in 0..iters {
                p0.post_put(
                    &cpu0,
                    p1.index(),
                    src_nla,
                    dst_nla,
                    64,
                    WrFlags {
                        notify_requester: true,
                        ..Default::default()
                    },
                )
                .await;
            }
        });
        sim.run();
        assert!(n0.nic.stats().notif_overflows.get() >= 10);
    }
}
