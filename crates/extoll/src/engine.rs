//! The RMA unit's hardware engines: requester, completer and responder,
//! plus the notification writer.

use std::cell::Cell;
use std::rc::Rc;

use tc_desim::sync::Channel;
use tc_desim::time::Freq;
use tc_desim::Sim;
use tc_link::Port;
use tc_mem::{layout, Addr, Bus, Heap, Payload, RegionKind};
use tc_pcie::{Endpoint, Pcie};
use tc_trace::{Counter, Gauge, Scope};

use crate::atu::Atu;
use crate::bar::{RequesterBar, PORT_PAGE};
use crate::notif::{NotifQueueLayout, Notification, NotifyUnit};
use crate::velo::{Mailbox, VeloBar, VeloMsg, VELO_PAGE};
use crate::wr::{RmaCommand, WorkRequest};

/// Offset of the VELO send pages inside the EXTOLL BAR (the RMA requester
/// pages occupy the bottom of the BAR).
pub const VELO_BAR_OFF: u64 = 8 << 20;
/// Slots per VELO receive mailbox.
pub const VELO_MAILBOX_SLOTS: u64 = 64;

/// Configuration of the RMA unit. Defaults model the Galibier FPGA card:
/// 157 MHz core clock, 64-bit internal datapath.
#[derive(Debug, Clone)]
pub struct RmaConfig {
    /// NIC core clock.
    pub clock: Freq,
    /// Requester cycles to accept and decode one work request.
    pub requester_cycles: u64,
    /// Completer cycles to process one inbound frame.
    pub completer_cycles: u64,
    /// Responder cycles to turn a get request into a response.
    pub responder_cycles: u64,
    /// Entries per notification queue.
    pub notif_entries: u64,
    /// Number of RMA ports (requester pages / notification queue sets).
    pub ports: u16,
    /// Depth of the DMA->wire pipeline FIFO.
    pub tx_fifo: usize,
}

impl Default for RmaConfig {
    fn default() -> Self {
        RmaConfig {
            clock: Freq::mhz(157),
            requester_cycles: 50,
            completer_cycles: 45,
            responder_cycles: 45,
            notif_entries: 128,
            ports: 32,
            tx_fifo: 4,
        }
    }
}

/// A frame on the EXTOLL link.
#[derive(Debug, Clone)]
pub enum RmaFrame {
    /// A VELO small message (header + inline payload).
    Velo(VeloMsg),
    /// One-sided write.
    Put {
        /// Port whose completer queue is notified.
        dst_port: u16,
        /// Destination NLA.
        dst_nla: u64,
        /// The payload.
        data: Payload,
        /// Generate a completer notification on arrival.
        notify: bool,
    },
    /// Get request travelling to the data source.
    GetReq {
        /// Node the response must return to.
        origin_node: u16,
        /// Port the response (and origin notification) targets.
        origin_port: u16,
        /// NLA the response data lands at.
        origin_nla: u64,
        /// Port whose responder queue is notified at the target.
        target_port: u16,
        /// NLA to read at the target.
        target_nla: u64,
        /// Bytes requested.
        len: u32,
        /// Notify the origin's completer when the data lands.
        notify_origin: bool,
        /// Notify the target's responder when the data is read.
        notify_target: bool,
    },
    /// Get response carrying the data back.
    GetResp {
        /// Port whose completer queue is notified.
        dst_port: u16,
        /// NLA the data lands at.
        dst_nla: u64,
        /// The payload.
        data: Payload,
        /// Generate a completer notification on arrival.
        notify: bool,
    },
}

impl RmaFrame {
    /// Wire payload size (headers included) for serialization timing.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            RmaFrame::Put { data, .. } | RmaFrame::GetResp { data, .. } => 16 + data.len() as u64,
            RmaFrame::GetReq { .. } => 32,
            RmaFrame::Velo(m) => 16 + m.data.len() as u64,
        }
    }
}

/// Per-port hardware state: the three notification queues and their
/// write cursors.
pub struct PortQueues {
    /// Queue for "transfer started" records.
    pub requester: NotifQueueLayout,
    /// Queue for "data arrived" records.
    pub completer: NotifQueueLayout,
    /// Queue for "remote get read our memory" records.
    pub responder: NotifQueueLayout,
    wp_requester: Cell<u64>,
    wp_completer: Cell<u64>,
    wp_responder: Cell<u64>,
}

/// Counters for hardware-visible events.
///
/// A bundle of handles into the simulation's metric
/// [registry](tc_trace::Registry) (`extoll0.puts`,
/// `extoll0.notif_overflows`, …).
#[derive(Debug)]
pub struct NicStats {
    /// Puts executed by the requester.
    pub puts: Counter,
    /// Gets executed by the requester.
    pub gets: Counter,
    /// Frames completed by the completer.
    pub frames_completed: Counter,
    /// Notifications dropped because a queue overflowed.
    pub notif_overflows: Counter,
    /// VELO messages delivered into mailboxes.
    pub velo_delivered: Counter,
    /// VELO messages dropped on mailbox overflow.
    pub velo_drops: Counter,
    /// Spins of a notification-queue poll loop (each is a PCIe round trip
    /// when the poller is the GPU — the cost behind Table I).
    pub notif_poll_spins: Counter,
    /// Depth of the hardware WR FIFO between the requester BAR and the
    /// requester unit (current/high-water).
    pub wr_queue_depth: Gauge,
}

impl NicStats {
    /// A view whose counters are registered under `scope` (e.g. `extoll0`).
    pub fn in_scope(scope: &Scope) -> Self {
        NicStats {
            puts: scope.counter("puts"),
            gets: scope.counter("gets"),
            frames_completed: scope.counter("frames_completed"),
            notif_overflows: scope.counter("notif_overflows"),
            velo_delivered: scope.counter("velo_delivered"),
            velo_drops: scope.counter("velo_drops"),
            notif_poll_spins: scope.counter("notif_poll_spins"),
            wr_queue_depth: scope.gauge("wr_queue_depth"),
        }
    }
}

pub(crate) struct NicInner {
    pub sim: Sim,
    pub node: usize,
    pub cfg: RmaConfig,
    pub bus: Bus,
    pub endpoint: Endpoint,
    pub atu: Atu,
    pub ports: Vec<PortQueues>,
    pub bar: Rc<RequesterBar>,
    pub bar_base: Addr,
    pub stats: NicStats,
    pub velo_bar: Rc<VeloBar>,
    pub velo_mailboxes: Vec<(Mailbox, Cell<u64>)>,
    next_port: Cell<u16>,
    next_velo_port: Cell<u16>,
}

/// One EXTOLL NIC with its RMA unit.
#[derive(Clone)]
pub struct ExtollNic {
    pub(crate) inner: Rc<NicInner>,
}

impl ExtollNic {
    /// Build the NIC for `node`, map its requester BAR, pre-allocate the
    /// notification queues from `notif_heap` (on real EXTOLL this is host
    /// kernel memory allocated at driver load time; the paper's §VI
    /// discussion — and our `ablation-notify` experiment — asks what would
    /// change if it could be GPU memory instead), and start the hardware
    /// engines. `wire` is this node's side of the cable.
    pub fn new(
        sim: &Sim,
        node: usize,
        cfg: RmaConfig,
        bus: &Bus,
        pcie: &Pcie,
        wire: Port<RmaFrame>,
        notif_heap: &Heap,
    ) -> Self {
        let wr_ch: Channel<(u16, WorkRequest)> = Channel::new(sim, 0);
        let stats = NicStats::in_scope(&sim.registry().scope_named(&format!("extoll{node}")));
        let bar = Rc::new(RequesterBar::new(
            cfg.ports,
            wr_ch.clone(),
            stats.wr_queue_depth.clone(),
        ));
        let bar_base = layout::extoll_bar(node);
        bus.add_mmio(
            bar_base,
            cfg.ports as u64 * PORT_PAGE,
            bar.clone(),
            RegionKind::Mmio { node },
        );
        // VELO send pages live in the upper half of the EXTOLL BAR.
        let velo_ch: Channel<VeloMsg> = Channel::new(sim, 0);
        let velo_bar = Rc::new(VeloBar::new(node as u16, cfg.ports, velo_ch.clone()));
        bus.add_mmio(
            bar_base + VELO_BAR_OFF,
            cfg.ports as u64 * VELO_PAGE,
            velo_bar.clone(),
            RegionKind::Mmio { node },
        );
        let velo_mailboxes = (0..cfg.ports)
            .map(|_| {
                let base =
                    notif_heap.alloc(VELO_MAILBOX_SLOTS * crate::velo::MAILBOX_SLOT + 4, 128);
                (Mailbox::at(base, VELO_MAILBOX_SLOTS), Cell::new(0))
            })
            .collect();
        let ports = (0..cfg.ports)
            .map(|_| {
                let q = || {
                    let base =
                        notif_heap.alloc(cfg.notif_entries * crate::notif::NOTIF_BYTES + 4, 64);
                    NotifQueueLayout::at(base, cfg.notif_entries)
                };
                PortQueues {
                    requester: q(),
                    completer: q(),
                    responder: q(),
                    wp_requester: Cell::new(0),
                    wp_completer: Cell::new(0),
                    wp_responder: Cell::new(0),
                }
            })
            .collect();
        let nic = ExtollNic {
            inner: Rc::new(NicInner {
                sim: sim.clone(),
                node,
                cfg,
                bus: bus.clone(),
                endpoint: pcie.endpoint(&format!("extoll{node}")),
                atu: Atu::new(),
                ports,
                bar,
                bar_base,
                stats,
                velo_bar,
                velo_mailboxes,
                next_port: Cell::new(0),
                next_velo_port: Cell::new(0),
            }),
        };
        nic.start(wr_ch, velo_ch, wire);
        nic
    }

    /// The node this NIC is plugged into.
    pub fn node(&self) -> usize {
        self.inner.node
    }

    /// Hardware statistics.
    pub fn stats(&self) -> &NicStats {
        &self.inner.stats
    }

    /// The requester BAR device (exposes posted/malformed counts).
    pub fn bar(&self) -> &crate::bar::RequesterBar {
        &self.inner.bar
    }

    /// The VELO send BAR device (exposes the sent-message count).
    pub fn velo_bar(&self) -> &crate::velo::VeloBar {
        &self.inner.velo_bar
    }

    /// The address translation unit.
    pub fn atu(&self) -> &Atu {
        &self.inner.atu
    }

    /// The NIC configuration.
    pub fn config(&self) -> &RmaConfig {
        &self.inner.cfg
    }

    pub(crate) fn alloc_port(&self) -> u16 {
        let p = self.inner.next_port.get();
        assert!(p < self.inner.cfg.ports, "out of RMA ports");
        self.inner.next_port.set(p + 1);
        p
    }

    pub(crate) fn port_queues(&self, port: u16) -> &PortQueues {
        &self.inner.ports[port as usize]
    }

    pub(crate) fn bar_page(&self, port: u16) -> Addr {
        self.inner.bar_base + port as u64 * PORT_PAGE
    }

    pub(crate) fn alloc_velo_port(&self) -> u16 {
        let p = self.inner.next_velo_port.get();
        assert!(p < self.inner.cfg.ports, "out of VELO ports");
        self.inner.next_velo_port.set(p + 1);
        p
    }

    pub(crate) fn velo_send_page(&self, port: u16) -> Addr {
        self.inner.bar_base + VELO_BAR_OFF + port as u64 * VELO_PAGE
    }

    pub(crate) fn velo_mailbox(&self, port: u16) -> Mailbox {
        self.inner.velo_mailboxes[port as usize].0
    }

    /// DMA one notification record into a queue; drops (with a counter) on
    /// overflow, which the EXTOLL manual warns the software must prevent.
    async fn write_notification(&self, port: u16, unit: NotifyUnit, len: u32, nla: u64) {
        let inner = &self.inner;
        let q = &inner.ports[port as usize];
        let (layout, wp) = match unit {
            NotifyUnit::Requester => (&q.requester, &q.wp_requester),
            NotifyUnit::Completer => (&q.completer, &q.wp_completer),
            NotifyUnit::Responder => (&q.responder, &q.wp_responder),
        };
        let rp = inner.bus.read_u32(layout.rp_addr) as u64;
        let level = wp.get().wrapping_sub(rp);
        if level >= layout.ring.capacity() {
            inner.stats.notif_overflows.inc();
            return;
        }
        let n = Notification {
            unit,
            port,
            len,
            nla,
        };
        let words = n.encode();
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&words[0].to_le_bytes());
        bytes[8..].copy_from_slice(&words[1].to_le_bytes());
        let slot = layout.ring.slot(wp.get());
        wp.set(wp.get() + 1);
        inner.endpoint.dma_write(slot, &bytes.to_vec().into()).await;
        let rec = inner.sim.recorder();
        if rec.on() {
            rec.instant(
                inner.sim.now(),
                "nic",
                format!("extoll{}.notify", inner.node),
                "notif_enqueue",
                vec![
                    ("unit", format!("{unit:?}").into()),
                    ("port", (port as u64).into()),
                    ("bytes", (len as u64).into()),
                ],
            );
        }
    }

    fn start(
        &self,
        wr_ch: Channel<(u16, WorkRequest)>,
        velo_ch: Channel<VeloMsg>,
        wire: Port<RmaFrame>,
    ) {
        let inner = &self.inner;
        let sim = inner.sim.clone();
        let tx_ch: Channel<(usize, RmaFrame)> = Channel::new(&sim, inner.cfg.tx_fifo);

        // VELO TX: inline messages go straight to the shared TX stage (no
        // DMA read - the payload arrived through the BAR).
        {
            let tx = tx_ch.clone();
            let nic = self.clone();
            sim.spawn(&format!("extoll{}.velo_tx", inner.node), async move {
                let cyc = nic.inner.cfg.clock.cycles(6);
                while let Some(msg) = velo_ch.recv().await {
                    nic.inner.sim.delay(cyc).await;
                    let dst = msg.dst_node as usize;
                    tx.send((dst, RmaFrame::Velo(msg))).await;
                }
            });
        }

        // Requester: decode WRs, source the data, hand frames to TX.
        {
            let nic = self.clone();
            let tx = tx_ch.clone();
            sim.spawn(&format!("extoll{}.requester", inner.node), async move {
                let inner = &nic.inner;
                let cyc = |n| inner.cfg.clock.cycles(n);
                while let Some((port, wr)) = wr_ch.recv().await {
                    inner.stats.wr_queue_depth.dec();
                    let rec = inner.sim.recorder();
                    if rec.on() {
                        rec.instant(
                            inner.sim.now(),
                            "nic",
                            format!("extoll{}.requester", inner.node),
                            "wr_accept",
                            vec![
                                ("cmd", format!("{:?}", wr.command).into()),
                                ("bytes", (wr.len as u64).into()),
                                ("port", (port as u64).into()),
                            ],
                        );
                    }
                    let t0 = inner.sim.now();
                    inner.sim.delay(cyc(inner.cfg.requester_cycles)).await;
                    let rec = inner.sim.recorder();
                    if rec.on() {
                        rec.span(
                            t0,
                            inner.sim.now(),
                            "nic",
                            format!("extoll{}.requester", inner.node),
                            "wr_decode",
                            vec![("bytes", (wr.len as u64).into())],
                        );
                    }
                    match wr.command {
                        RmaCommand::Put => {
                            inner.stats.puts.inc();
                            let src = inner.atu.translate(wr.local_nla, wr.len as u64);
                            let data = inner.endpoint.dma_read(src, wr.len as u64).await;
                            let rec = inner.sim.recorder();
                            if rec.on() {
                                rec.instant(
                                    inner.sim.now(),
                                    "nic",
                                    format!("extoll{}.requester", inner.node),
                                    "payload_read_done",
                                    vec![("bytes", (wr.len as u64).into())],
                                );
                            }
                            tx.send((
                                wr.dst_node as usize,
                                RmaFrame::Put {
                                    dst_port: wr.dst_port,
                                    dst_nla: wr.remote_nla,
                                    data,
                                    notify: wr.flags.notify_completer,
                                },
                            ))
                            .await;
                        }
                        RmaCommand::Get => {
                            inner.stats.gets.inc();
                            // Validate the local sink NLA up front.
                            let _ = inner.atu.translate(wr.local_nla, wr.len as u64);
                            tx.send((
                                wr.dst_node as usize,
                                RmaFrame::GetReq {
                                    origin_node: inner.node as u16,
                                    origin_port: port,
                                    origin_nla: wr.local_nla,
                                    target_port: wr.dst_port,
                                    target_nla: wr.remote_nla,
                                    len: wr.len,
                                    notify_origin: wr.flags.notify_completer,
                                    notify_target: wr.flags.notify_responder,
                                },
                            ))
                            .await;
                        }
                    }
                    if wr.flags.notify_requester {
                        nic.write_notification(port, NotifyUnit::Requester, wr.len, wr.local_nla)
                            .await;
                    }
                }
            });
        }

        // TX: serialize frames onto the cable (pipelines with the requester).
        {
            let wire_tx = wire.clone();
            let tx = tx_ch.clone();
            let nic_tx = self.clone();
            sim.spawn(&format!("extoll{}.tx", inner.node), async move {
                while let Some((dst, frame)) = tx.recv().await {
                    let bytes = frame.wire_bytes();
                    let inner = &nic_tx.inner;
                    let t0 = inner.sim.now();
                    wire_tx.send_to(dst, frame, bytes).await;
                    let rec = inner.sim.recorder();
                    if rec.on() {
                        rec.span(
                            t0,
                            inner.sim.now(),
                            "nic",
                            format!("extoll{}.tx", inner.node),
                            "tx_frame",
                            vec![("bytes", bytes.into()), ("dst", (dst as u64).into())],
                        );
                    }
                }
            });
        }

        // Completer/responder: sink inbound frames.
        {
            let nic = self.clone();
            let tx = tx_ch;
            sim.spawn(&format!("extoll{}.completer", inner.node), async move {
                let inner = &nic.inner;
                let cyc = |n| inner.cfg.clock.cycles(n);
                while let Some(frame) = wire.recv().await {
                    let t0 = inner.sim.now();
                    inner.sim.delay(cyc(inner.cfg.completer_cycles)).await;
                    let rec = inner.sim.recorder();
                    if rec.on() {
                        rec.span(
                            t0,
                            inner.sim.now(),
                            "nic",
                            format!("extoll{}.completer", inner.node),
                            "rx_complete",
                            vec![],
                        );
                    }
                    inner.stats.frames_completed.inc();
                    match frame {
                        RmaFrame::Velo(msg) => {
                            let (mailbox, wp) = &inner.velo_mailboxes[msg.dst_port as usize];
                            let rp = inner.bus.read_u32(mailbox.rp_addr) as u64;
                            if wp.get().wrapping_sub(rp) >= mailbox.ring.capacity() {
                                inner.stats.velo_drops.inc();
                                continue;
                            }
                            let slot = mailbox.ring.slot(wp.get());
                            wp.set(wp.get() + 1);
                            // One burst: status word + payload.
                            let mut bytes = Vec::with_capacity(8 + msg.data.len());
                            bytes.extend_from_slice(
                                &Mailbox::status(msg.src_node, msg.src_port, msg.data.len() as u8)
                                    .to_le_bytes(),
                            );
                            bytes.extend_from_slice(&msg.data);
                            inner.endpoint.dma_write(slot, &bytes.into()).await;
                            inner.stats.velo_delivered.inc();
                        }
                        RmaFrame::Put {
                            dst_port,
                            dst_nla,
                            data,
                            notify,
                        } => {
                            let dst = inner.atu.translate(dst_nla, data.len() as u64);
                            inner.endpoint.dma_write(dst, &data).await;
                            let rec = inner.sim.recorder();
                            if rec.on() {
                                rec.instant(
                                    inner.sim.now(),
                                    "nic",
                                    format!("extoll{}.completer", inner.node),
                                    "put_delivered",
                                    vec![("bytes", (data.len() as u64).into())],
                                );
                            }
                            if notify {
                                nic.write_notification(
                                    dst_port,
                                    NotifyUnit::Completer,
                                    data.len() as u32,
                                    dst_nla,
                                )
                                .await;
                            }
                        }
                        RmaFrame::GetReq {
                            origin_node,
                            origin_port,
                            origin_nla,
                            target_port,
                            target_nla,
                            len,
                            notify_origin,
                            notify_target,
                        } => {
                            let src = inner.atu.translate(target_nla, len as u64);
                            let data = inner.endpoint.dma_read(src, len as u64).await;
                            inner.sim.delay(cyc(inner.cfg.responder_cycles)).await;
                            tx.send((
                                origin_node as usize,
                                RmaFrame::GetResp {
                                    dst_port: origin_port,
                                    dst_nla: origin_nla,
                                    data,
                                    notify: notify_origin,
                                },
                            ))
                            .await;
                            if notify_target {
                                nic.write_notification(
                                    target_port,
                                    NotifyUnit::Responder,
                                    len,
                                    target_nla,
                                )
                                .await;
                            }
                        }
                        RmaFrame::GetResp {
                            dst_port,
                            dst_nla,
                            data,
                            notify,
                        } => {
                            let dst = inner.atu.translate(dst_nla, data.len() as u64);
                            inner.endpoint.dma_write(dst, &data).await;
                            if notify {
                                nic.write_notification(
                                    dst_port,
                                    NotifyUnit::Completer,
                                    data.len() as u32,
                                    dst_nla,
                                )
                                .await;
                            }
                        }
                    }
                }
            });
        }
    }
}
