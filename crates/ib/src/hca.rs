//! The HCA device model: doorbell, WQE fetch/execute engines, RC transport.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use tc_desim::sync::Channel;
use tc_desim::time::{self, Time};
use tc_desim::Sim;
use tc_link::Port;
use tc_mem::{layout, Addr, Bus, MmioDevice, Payload, RegionKind};
use tc_pcie::{Endpoint, Pcie};
use tc_trace::{Counter, Gauge, Scope};

use crate::mr::MrTable;
use crate::qp::{Cq, Qp};
use crate::wqe::{Cqe, CqeOpcode, CqeStatus, RecvWqe, SendOpcode, SendWqe, CQ_STRIDE};

/// HCA timing parameters (ConnectX-3-class ASIC).
#[derive(Debug, Clone)]
pub struct IbConfig {
    /// Pipeline cost of processing one fetched WQE.
    pub wqe_process: Time,
    /// Pipeline cost of handling one inbound frame.
    pub rx_process: Time,
    /// Entries in each send queue.
    pub sq_entries: u64,
    /// Entries in each receive queue.
    pub rq_entries: u64,
    /// Entries in each completion queue.
    pub cq_entries: u64,
}

impl Default for IbConfig {
    fn default() -> Self {
        IbConfig {
            wqe_process: time::ns(120),
            rx_process: time::ns(100),
            sq_entries: 128,
            rq_entries: 128,
            cq_entries: 256,
        }
    }
}

/// A frame of the (reliable, in-order) RC transport.
///
/// Real RC tracks requests by PSN; we carry the originating WQE metadata in
/// the frame instead, which is timing-equivalent for a back-to-back link
/// and keeps acknowledgement bookkeeping observable in tests.
#[derive(Debug, Clone)]
pub enum IbFrame {
    /// RDMA write request (optionally with immediate data).
    Write {
        /// Receiving queue pair.
        dst_qpn: u32,
        /// Remote virtual address to write.
        raddr: Addr,
        /// Remote key authorizing the write.
        rkey: u32,
        /// The payload.
        data: Payload,
        /// Immediate value (consumes a receive WQE when present).
        imm: Option<u32>,
        /// Originating queue pair (for the acknowledgement).
        src_qpn: u32,
        /// Originating WQE index (completion bookkeeping).
        wqe_index: u16,
        /// Whether the originator asked for a completion.
        signaled: bool,
    },
    /// Two-sided send (requires a posted receive at the destination).
    Send {
        /// Receiving queue pair.
        dst_qpn: u32,
        /// The payload.
        data: Payload,
        /// Originating queue pair.
        src_qpn: u32,
        /// Originating WQE index.
        wqe_index: u16,
        /// Whether the originator asked for a completion.
        signaled: bool,
    },
    /// RDMA read request travelling to the data source.
    ReadReq {
        /// Queue pair answering the read.
        dst_qpn: u32,
        /// Remote virtual address to read.
        raddr: Addr,
        /// Remote key authorizing the read.
        rkey: u32,
        /// Bytes requested.
        len: u32,
        /// Local sink, validated at post time.
        sink: Addr,
        /// Originating queue pair.
        src_qpn: u32,
        /// Originating WQE index.
        wqe_index: u16,
        /// Whether the originator asked for a completion.
        signaled: bool,
    },
    /// RDMA read response carrying the data back.
    ReadResp {
        /// The queue pair that issued the read.
        dst_qpn: u32,
        /// Where the data lands locally.
        sink: Addr,
        /// The payload.
        data: Payload,
        /// The read WQE's index.
        wqe_index: u16,
        /// Whether a completion should be generated.
        signaled: bool,
    },
    /// Positive acknowledgement (generates the send completion).
    Ack {
        /// The originating queue pair.
        dst_qpn: u32,
        /// The acknowledged WQE.
        wqe_index: u16,
        /// Bytes the operation moved.
        byte_count: u32,
        /// Whether the originator asked for a completion.
        signaled: bool,
    },
    /// Negative acknowledgement (always generates an error completion).
    ///
    /// Simplification vs. real RC: the QP does **not** transition to the
    /// error state afterwards — subsequent work requests still execute.
    /// The paper never exercises error recovery, and keeping QPs usable
    /// keeps the failure-injection tests compact.
    Nak {
        /// The originating queue pair.
        dst_qpn: u32,
        /// The failed WQE.
        wqe_index: u16,
        /// The error to surface in the completion.
        status: CqeStatus,
    },
}

impl IbFrame {
    /// Wire size for serialization timing (headers included).
    pub fn wire_bytes(&self) -> u64 {
        match self {
            IbFrame::Write { data, .. } => 42 + data.len() as u64,
            IbFrame::Send { data, .. } => 30 + data.len() as u64,
            IbFrame::ReadResp { data, .. } => 30 + data.len() as u64,
            IbFrame::ReadReq { .. } => 42,
            IbFrame::Ack { .. } | IbFrame::Nak { .. } => 20,
        }
    }
}

/// Device statistics.
///
/// A bundle of handles into the simulation's metric
/// [registry](tc_trace::Registry): each field is the registry metric
/// named in [`HcaStats::in_scope`] (`ib0.doorbells`, `ib0.cqes_written`,
/// …), so a registry delta and two reads of a field always agree.
#[derive(Debug)]
pub struct HcaStats {
    /// Doorbell writes observed.
    pub doorbells: Counter,
    /// Send WQEs fetched and executed.
    pub wqes_executed: Counter,
    /// Frames received from the wire.
    pub frames_rx: Counter,
    /// Completions DMA-written.
    pub cqes_written: Counter,
    /// Completions dropped because a CQ was full.
    pub cq_overflows: Counter,
    /// Inbound operations rejected by rkey/bounds checks.
    pub remote_access_errors: Counter,
    /// Sends that found no posted receive.
    pub rnr_events: Counter,
    /// Doorbells that pointed at stamped/stale WQEs.
    pub stale_wqe_fetches: Counter,
    /// Spins of a CQ poll loop that found no valid CQE (each spin is a
    /// memory probe — a PCIe round trip when the poller sits across the
    /// bus from the CQ buffer).
    pub cq_poll_spins: Counter,
    /// WQEs announced by doorbells but not yet executed by the SQ engine
    /// (the hardware send-queue backlog).
    pub sq_backlog: Gauge,
}

impl HcaStats {
    /// A view whose counters are registered under `scope` (e.g. `ib0`).
    pub fn in_scope(scope: &Scope) -> Self {
        HcaStats {
            doorbells: scope.counter("doorbells"),
            wqes_executed: scope.counter("wqes_executed"),
            frames_rx: scope.counter("frames_rx"),
            cqes_written: scope.counter("cqes_written"),
            cq_overflows: scope.counter("cq_overflows"),
            remote_access_errors: scope.counter("remote_access_errors"),
            rnr_events: scope.counter("rnr_events"),
            stale_wqe_fetches: scope.counter("stale_wqe_fetches"),
            cq_poll_spins: scope.counter("cq_poll_spins"),
            sq_backlog: scope.gauge("sq_backlog"),
        }
    }
}

struct Doorbell {
    ch: Channel<(u32, u32)>,
    count: Cell<u64>,
    sim: Sim,
    track: Rc<str>,
}

impl MmioDevice for Doorbell {
    fn mmio_write(&self, offset: u64, data: &[u8]) {
        assert_eq!(offset % 8, 0, "doorbell register is 64-bit");
        assert_eq!(data.len(), 8, "doorbell write must be one 64-bit store");
        let v = u64::from_le_bytes(data.try_into().unwrap());
        let qpn = (v >> 32) as u32;
        let new_pi = v as u32;
        self.count.set(self.count.get() + 1);
        let rec = self.sim.recorder();
        if rec.on() {
            rec.instant(
                self.sim.now(),
                "nic",
                self.track.to_string(),
                "doorbell",
                vec![
                    ("qpn", u64::from(qpn).into()),
                    ("pi", u64::from(new_pi).into()),
                ],
            );
        }
        self.ch
            .try_send((qpn, new_pi))
            .unwrap_or_else(|_| unreachable!("doorbell channel unbounded"));
    }

    fn mmio_read(&self, _offset: u64, buf: &mut [u8]) {
        buf.fill(0);
    }
}

pub(crate) struct HcaInner {
    pub sim: Sim,
    pub node: usize,
    pub cfg: IbConfig,
    pub bus: Bus,
    pub endpoint: Endpoint,
    pub mrs: MrTable,
    pub qps: RefCell<HashMap<u32, Rc<Qp>>>,
    pub cqs: RefCell<HashMap<u32, Rc<Cq>>>,
    pub stats: HcaStats,
    pub uar_base: Addr,
    next_qpn: Cell<u32>,
    next_cqn: Cell<u32>,
}

/// One Infiniband HCA.
#[derive(Clone)]
pub struct IbHca {
    pub(crate) inner: Rc<HcaInner>,
}

impl IbHca {
    /// Build the HCA for `node`: maps its UAR (doorbell) BAR and starts the
    /// device engines. `wire` is this node's side of the cable.
    pub fn new(
        sim: &Sim,
        node: usize,
        cfg: IbConfig,
        bus: &Bus,
        pcie: &Pcie,
        wire: Port<IbFrame>,
    ) -> Self {
        let db_ch: Channel<(u32, u32)> = Channel::new(sim, 0);
        let uar_base = layout::ib_uar(node);
        bus.add_mmio(
            uar_base,
            4096,
            Rc::new(Doorbell {
                ch: db_ch.clone(),
                count: Cell::new(0),
                sim: sim.clone(),
                track: format!("ib{node}.doorbell").into(),
            }),
            RegionKind::Mmio { node },
        );
        let scope = sim.registry().scope_named(&format!("ib{node}"));
        let hca = IbHca {
            inner: Rc::new(HcaInner {
                sim: sim.clone(),
                node,
                cfg,
                bus: bus.clone(),
                endpoint: pcie.endpoint(&format!("ib{node}")),
                mrs: MrTable::new(),
                qps: RefCell::new(HashMap::new()),
                cqs: RefCell::new(HashMap::new()),
                stats: HcaStats::in_scope(&scope),
                uar_base,
                next_qpn: Cell::new(0x40),
                next_cqn: Cell::new(0x80),
            }),
        };
        hca.start(db_ch, wire);
        hca
    }

    /// Device statistics.
    pub fn stats(&self) -> &HcaStats {
        &self.inner.stats
    }

    /// The node this HCA is plugged into.
    pub fn node(&self) -> usize {
        self.inner.node
    }

    /// The protection table.
    pub fn mrs(&self) -> &MrTable {
        &self.inner.mrs
    }

    /// The configuration.
    pub fn config(&self) -> &IbConfig {
        &self.inner.cfg
    }

    /// The doorbell register address.
    pub fn doorbell_addr(&self) -> Addr {
        self.inner.uar_base
    }

    pub(crate) fn alloc_qpn(&self) -> u32 {
        let n = self.inner.next_qpn.get();
        self.inner.next_qpn.set(n + 1);
        n
    }

    pub(crate) fn alloc_cqn(&self) -> u32 {
        let n = self.inner.next_cqn.get();
        self.inner.next_cqn.set(n + 1);
        n
    }

    pub(crate) fn qp(&self, qpn: u32) -> Rc<Qp> {
        self.inner.qps.borrow()[&qpn].clone()
    }

    pub(crate) fn cq(&self, cqn: u32) -> Rc<Cq> {
        self.inner.cqs.borrow()[&cqn].clone()
    }

    /// Number of QPs this HCA hosts (the verbs CQ-poll path scans them).
    pub fn qp_count(&self) -> usize {
        self.inner.qps.borrow().len()
    }

    /// DMA one CQE into `cq`; drops with a counter on overflow.
    async fn write_cqe(&self, cqn: u32, cqe: Cqe) {
        let inner = &self.inner;
        let cq = self.cq(cqn);
        let ci = inner.bus.read_u32(cq.ci_db_record) as u64;
        if cq.pi.get().wrapping_sub(ci) >= cq.ring.capacity() {
            inner.stats.cq_overflows.inc();
            return;
        }
        let slot = cq.ring.slot(cq.pi.get());
        cq.pi.set(cq.pi.get() + 1);
        let bytes = cqe.encode().to_vec();
        inner.endpoint.dma_write(slot, &bytes.into()).await;
        inner.stats.cqes_written.inc();
        let rec = inner.sim.recorder();
        if rec.on() {
            rec.instant(
                inner.sim.now(),
                "nic",
                format!("ib{}.cq", inner.node),
                "cqe_write",
                vec![
                    ("cqn", u64::from(cqn).into()),
                    ("qpn", u64::from(cqe.qpn).into()),
                    ("bytes", u64::from(cqe.byte_count).into()),
                ],
            );
        }
    }

    /// Fetch and consume the next receive WQE of `qp`, or `None` if the RQ
    /// is empty (RNR).
    async fn pop_recv_wqe(&self, qp: &Qp) -> Option<RecvWqe> {
        let inner = &self.inner;
        let sw_pi = inner.bus.read_u32(qp.rq_db_record) as u64;
        if qp.rq_head.get() >= sw_pi {
            return None;
        }
        let slot = qp.rq.slot(qp.rq_head.get());
        let buf = inner.endpoint.dma_read(slot, qp.rq.entry_size()).await;
        let wqe = RecvWqe::decode(&buf.to_vec())?;
        qp.rq_head.set(qp.rq_head.get() + 1);
        Some(wqe)
    }

    fn start(&self, db_ch: Channel<(u32, u32)>, wire: Port<IbFrame>) {
        let sim = self.inner.sim.clone();
        let tx_ch: Channel<(usize, IbFrame)> = Channel::new(&sim, 4);

        // SQ engine: doorbells -> WQE fetch -> execute -> frames.
        {
            let hca = self.clone();
            let tx = tx_ch.clone();
            sim.spawn(&format!("ib{}.sq", self.inner.node), async move {
                while let Some((qpn, new_pi)) = db_ch.recv().await {
                    hca.inner.stats.doorbells.inc();
                    let qp = hca.qp(qpn);
                    let backlog = (new_pi as u64).saturating_sub(qp.sq_head.get());
                    hca.inner.stats.sq_backlog.add(backlog);
                    while qp.sq_head.get() < new_pi as u64 {
                        hca.execute_one(&qp, &tx).await;
                        hca.inner.stats.sq_backlog.dec();
                    }
                }
            });
        }

        // TX engine: serialize frames onto the cable.
        {
            let tx = tx_ch.clone();
            let wire_tx = wire.clone();
            sim.spawn(&format!("ib{}.tx", self.inner.node), async move {
                while let Some((dst, frame)) = tx.recv().await {
                    let bytes = frame.wire_bytes();
                    wire_tx.send_to(dst, frame, bytes).await;
                }
            });
        }

        // RX engine: inbound frames.
        {
            let hca = self.clone();
            let tx = tx_ch;
            sim.spawn(&format!("ib{}.rx", self.inner.node), async move {
                while let Some(frame) = wire.recv().await {
                    hca.inner.stats.frames_rx.inc();
                    hca.inner.sim.delay(hca.inner.cfg.rx_process).await;
                    hca.handle_rx(frame, &tx).await;
                }
            });
        }
    }

    async fn execute_one(&self, qp: &Rc<Qp>, tx: &Channel<(usize, IbFrame)>) {
        let inner = &self.inner;
        let head = qp.sq_head.get();
        qp.sq_head.set(head + 1);
        let slot = qp.sq.slot(head);
        // Fetching the WQE costs a DMA read from wherever the SQ buffer
        // lives — host memory or, via GPUDirect, GPU memory.
        let t0 = inner.sim.now();
        let buf = inner.endpoint.dma_read(slot, qp.sq.entry_size()).await;
        let rec = inner.sim.recorder();
        if rec.on() {
            rec.span(
                t0,
                inner.sim.now(),
                "nic",
                format!("ib{}.sq", inner.node),
                "wqe_fetch",
                vec![("qpn", u64::from(qp.qpn).into()), ("index", head.into())],
            );
        }
        let Some(wqe) = SendWqe::decode(&buf.to_vec()) else {
            inner.stats.stale_wqe_fetches.inc();
            return;
        };
        inner.sim.delay(inner.cfg.wqe_process).await;
        inner.stats.wqes_executed.inc();
        assert!(qp.can_send(), "QP {} not in RTS", qp.qpn);
        let dst_qpn = qp.dest_qpn.get().expect("QP not connected");
        let dst_node = qp.dest_node.get();
        let len = wqe.byte_count as u64;

        // Local buffer validation (lkey) applies to every opcode except
        // inline sends (no local buffer is touched).
        let local_ok = if wqe.inline.is_some() && !matches!(wqe.opcode, SendOpcode::RdmaRead) {
            Ok(())
        } else if matches!(wqe.opcode, SendOpcode::RdmaRead) {
            // Read: laddr is the sink; needs local write access.
            inner.mrs.check_local(wqe.lkey, wqe.laddr, len).map(|_| ())
        } else if len == 0 {
            Ok(())
        } else {
            inner.mrs.check_local(wqe.lkey, wqe.laddr, len).map(|_| ())
        };
        if local_ok.is_err() {
            let cqe = Cqe {
                opcode: CqeOpcode::SendComplete,
                status: CqeStatus::LocalProtectionError,
                qpn: qp.qpn,
                byte_count: 0,
                imm: 0,
                wqe_index: wqe.index,
            };
            self.write_cqe(qp.send_cqn, cqe).await;
            return;
        }

        // Inline WRs carry their payload in the WQE the HCA already
        // fetched: no payload DMA at all.
        let gather = |inline: Option<[u8; crate::wqe::MAX_INLINE]>| {
            inline.map(|d| Payload::from(d[..len as usize].to_vec()))
        };
        match wqe.opcode {
            SendOpcode::RdmaWrite | SendOpcode::RdmaWriteImm => {
                let data = match gather(wqe.inline) {
                    Some(d) => d,
                    None if len > 0 => inner.endpoint.dma_read(wqe.laddr, len).await,
                    None => Payload::default(),
                };
                tx.send((
                    dst_node,
                    IbFrame::Write {
                        dst_qpn,
                        raddr: wqe.raddr,
                        rkey: wqe.rkey,
                        data,
                        imm: matches!(wqe.opcode, SendOpcode::RdmaWriteImm).then_some(wqe.imm),
                        src_qpn: qp.qpn,
                        wqe_index: wqe.index,
                        signaled: wqe.signaled,
                    },
                ))
                .await;
            }
            SendOpcode::Send => {
                let data = match gather(wqe.inline) {
                    Some(d) => d,
                    None if len > 0 => inner.endpoint.dma_read(wqe.laddr, len).await,
                    None => Payload::default(),
                };
                tx.send((
                    dst_node,
                    IbFrame::Send {
                        dst_qpn,
                        data,
                        src_qpn: qp.qpn,
                        wqe_index: wqe.index,
                        signaled: wqe.signaled,
                    },
                ))
                .await;
            }
            SendOpcode::RdmaRead => {
                tx.send((
                    dst_node,
                    IbFrame::ReadReq {
                        dst_qpn,
                        raddr: wqe.raddr,
                        rkey: wqe.rkey,
                        len: wqe.byte_count,
                        sink: wqe.laddr,
                        src_qpn: qp.qpn,
                        wqe_index: wqe.index,
                        signaled: wqe.signaled,
                    },
                ))
                .await;
            }
        }
    }

    async fn handle_rx(&self, frame: IbFrame, tx: &Channel<(usize, IbFrame)>) {
        let inner = &self.inner;
        match frame {
            IbFrame::Write {
                dst_qpn,
                raddr,
                rkey,
                data,
                imm,
                src_qpn,
                wqe_index,
                signaled,
            } => {
                let qp = self.qp(dst_qpn);
                assert!(qp.can_recv(), "QP {dst_qpn} not ready");
                let back = qp.dest_node.get();
                let check = inner.mrs.check_remote_write(rkey, raddr, data.len() as u64);
                if check.is_err() {
                    inner.stats.remote_access_errors.inc();
                    tx.send((
                        back,
                        IbFrame::Nak {
                            dst_qpn: src_qpn,
                            wqe_index,
                            status: CqeStatus::RemoteAccessError,
                        },
                    ))
                    .await;
                    return;
                }
                if !data.is_empty() {
                    inner.endpoint.dma_write(raddr, &data).await;
                }
                if let Some(imm) = imm {
                    // Write-with-immediate consumes a receive WQE (address
                    // ignored) and completes on the receive side too.
                    match self.pop_recv_wqe(&qp).await {
                        Some(_r) => {
                            let cqe = Cqe {
                                opcode: CqeOpcode::RecvComplete,
                                status: CqeStatus::Success,
                                qpn: qp.qpn,
                                byte_count: data.len() as u32,
                                imm,
                                wqe_index: 0,
                            };
                            self.write_cqe(qp.recv_cqn, cqe).await;
                        }
                        None => {
                            inner.stats.rnr_events.inc();
                            tx.send((
                                back,
                                IbFrame::Nak {
                                    dst_qpn: src_qpn,
                                    wqe_index,
                                    status: CqeStatus::RnrRetryExceeded,
                                },
                            ))
                            .await;
                            return;
                        }
                    }
                }
                tx.send((
                    back,
                    IbFrame::Ack {
                        dst_qpn: src_qpn,
                        wqe_index,
                        byte_count: data.len() as u32,
                        signaled,
                    },
                ))
                .await;
            }
            IbFrame::Send {
                dst_qpn,
                data,
                src_qpn,
                wqe_index,
                signaled,
            } => {
                let qp = self.qp(dst_qpn);
                assert!(qp.can_recv(), "QP {dst_qpn} not ready");
                let back = qp.dest_node.get();
                match self.pop_recv_wqe(&qp).await {
                    Some(r) => {
                        if (r.byte_count as usize) < data.len() {
                            // Receive buffer too small: local length error on
                            // the receiver, NAK to the sender.
                            tx.send((
                                back,
                                IbFrame::Nak {
                                    dst_qpn: src_qpn,
                                    wqe_index,
                                    status: CqeStatus::RemoteAccessError,
                                },
                            ))
                            .await;
                            return;
                        }
                        if inner
                            .mrs
                            .check_local(r.lkey, r.laddr, data.len() as u64)
                            .is_err()
                        {
                            tx.send((
                                back,
                                IbFrame::Nak {
                                    dst_qpn: src_qpn,
                                    wqe_index,
                                    status: CqeStatus::RemoteAccessError,
                                },
                            ))
                            .await;
                            return;
                        }
                        if !data.is_empty() {
                            inner.endpoint.dma_write(r.laddr, &data).await;
                        }
                        let cqe = Cqe {
                            opcode: CqeOpcode::RecvComplete,
                            status: CqeStatus::Success,
                            qpn: qp.qpn,
                            byte_count: data.len() as u32,
                            imm: 0,
                            wqe_index: 0,
                        };
                        self.write_cqe(qp.recv_cqn, cqe).await;
                        tx.send((
                            back,
                            IbFrame::Ack {
                                dst_qpn: src_qpn,
                                wqe_index,
                                byte_count: data.len() as u32,
                                signaled,
                            },
                        ))
                        .await;
                    }
                    None => {
                        inner.stats.rnr_events.inc();
                        tx.send((
                            back,
                            IbFrame::Nak {
                                dst_qpn: src_qpn,
                                wqe_index,
                                status: CqeStatus::RnrRetryExceeded,
                            },
                        ))
                        .await;
                    }
                }
            }
            IbFrame::ReadReq {
                dst_qpn,
                raddr,
                rkey,
                len,
                sink,
                src_qpn,
                wqe_index,
                signaled,
            } => {
                let qp = self.qp(dst_qpn);
                assert!(qp.can_recv(), "QP {dst_qpn} not ready");
                let back = qp.dest_node.get();
                match inner.mrs.check_remote_read(rkey, raddr, len as u64) {
                    Ok(_) => {
                        let data = if len > 0 {
                            inner.endpoint.dma_read(raddr, len as u64).await
                        } else {
                            Payload::default()
                        };
                        tx.send((
                            back,
                            IbFrame::ReadResp {
                                dst_qpn: src_qpn,
                                sink,
                                data,
                                wqe_index,
                                signaled,
                            },
                        ))
                        .await;
                    }
                    Err(_) => {
                        inner.stats.remote_access_errors.inc();
                        tx.send((
                            back,
                            IbFrame::Nak {
                                dst_qpn: src_qpn,
                                wqe_index,
                                status: CqeStatus::RemoteAccessError,
                            },
                        ))
                        .await;
                    }
                }
            }
            IbFrame::ReadResp {
                dst_qpn,
                sink,
                data,
                wqe_index,
                signaled,
            } => {
                let qp = self.qp(dst_qpn);
                if !data.is_empty() {
                    inner.endpoint.dma_write(sink, &data).await;
                }
                if signaled {
                    let cqe = Cqe {
                        opcode: CqeOpcode::SendComplete,
                        status: CqeStatus::Success,
                        qpn: qp.qpn,
                        byte_count: data.len() as u32,
                        imm: 0,
                        wqe_index,
                    };
                    self.write_cqe(qp.send_cqn, cqe).await;
                }
            }
            IbFrame::Ack {
                dst_qpn,
                wqe_index,
                byte_count,
                signaled,
            } => {
                if signaled {
                    let qp = self.qp(dst_qpn);
                    let cqe = Cqe {
                        opcode: CqeOpcode::SendComplete,
                        status: CqeStatus::Success,
                        qpn: qp.qpn,
                        byte_count,
                        imm: 0,
                        wqe_index,
                    };
                    self.write_cqe(qp.send_cqn, cqe).await;
                }
            }
            IbFrame::Nak {
                dst_qpn,
                wqe_index,
                status,
            } => {
                // Errors always complete, signaled or not.
                let qp = self.qp(dst_qpn);
                let cqe = Cqe {
                    opcode: CqeOpcode::SendComplete,
                    status,
                    qpn: qp.qpn,
                    byte_count: 0,
                    imm: 0,
                    wqe_index,
                };
                self.write_cqe(qp.send_cqn, cqe).await;
            }
        }
    }
}

/// Helper: the CQE valid byte offset used by pollers probing raw slots.
pub const CQE_PROBE_LEN: u64 = CQ_STRIDE;
