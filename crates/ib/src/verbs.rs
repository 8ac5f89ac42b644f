//! The Verbs software layer, ported to run on either processor — the
//! reproduction of §IV-B.
//!
//! `ibv_post_send` is deliberately *expensive* in instructions: argument
//! marshalling, queue-wrap handling, per-field little-to-big-endian
//! conversion, stamping of older queue elements, and the separate doorbell
//! store. `ibv_poll_cq` pays CQE validation, byte swapping, picking the QP
//! out of the device's QP list, and consumer-index bookkeeping. The paper
//! measures ~442 instructions per post and ~283 per successful poll on the
//! GPU (§V-B.3); unit tests here pin our code paths to those counts.
//!
//! All queue buffers can live in host **or** GPU memory ([`BufLoc`]); the
//! software context blocks (producer/consumer indices) live where the
//! context was created — GPU device memory for GPU-driven communication.

use std::cell::Cell;
use std::rc::Rc;

use tc_gpu::{Gpu, GpuThread};
use tc_mem::{layout, Addr, Heap, RegionKind, Ring};
use tc_pcie::{le, probe_once, LoadKind, Processor, Step};

use crate::hca::IbHca;
use crate::mr::{Access, MemoryRegion};
use crate::qp::{BufLoc, Cq, Qp, QpState};
use crate::wqe::{
    Cqe, CqeOpcode, CqeStatus, RecvWqe, SendOpcode, SendWqe, CQ_STRIDE, RQ_STRIDE, SQ_STRIDE,
    WQE_STAMP,
};

/// A work completion, as returned by [`IbvCq::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkCompletion {
    /// The queue pair the completion belongs to.
    pub qpn: u32,
    /// Send- or receive-side completion.
    pub opcode: CqeOpcode,
    /// Success or the error class.
    pub status: CqeStatus,
    /// Bytes moved.
    pub byte_count: u32,
    /// Immediate value, if the peer sent one.
    pub imm: u32,
    /// The completed WQE's index.
    pub wqe_index: u16,
}

/// A send work request (one data segment, like the paper's benchmarks).
#[derive(Debug, Clone, Copy)]
pub struct SendWr {
    /// Operation to post.
    pub opcode: SendOpcode,
    /// Local buffer address.
    pub laddr: Addr,
    /// Local protection key.
    pub lkey: u32,
    /// Remote virtual address (one-sided operations).
    pub raddr: Addr,
    /// Remote protection key.
    pub rkey: u32,
    /// Payload length in bytes.
    pub len: u32,
    /// Immediate value (write-with-immediate).
    pub imm: u32,
    /// Request a completion for this WR.
    pub signaled: bool,
}

/// Tunables of the verbs code path (for the paper's optimization
/// discussion, §V-B.3).
#[derive(Debug, Clone, Copy)]
pub struct VerbsTuning {
    /// Convert WQE fields little-to-big-endian at post time. Turning this
    /// off models the paper's "static converted values where possible"
    /// optimization taken to its limit (addresses/sizes pre-converted).
    pub endian_convert: bool,
}

impl Default for VerbsTuning {
    fn default() -> Self {
        VerbsTuning {
            endian_convert: true,
        }
    }
}

/// The verbs context: device handle plus allocators for queue buffers.
pub struct IbvContext {
    hca: IbHca,
    host_heap: Rc<Heap>,
    gpu: Option<Gpu>,
    /// Where software context blocks (queue indices) live. GPU-driven
    /// communication maps them into device memory.
    state_loc: BufLoc,
    tuning: VerbsTuning,
}

impl IbvContext {
    /// A context over `hca`. `gpu` is required to place anything in
    /// [`BufLoc::Gpu`].
    pub fn new(hca: IbHca, host_heap: Rc<Heap>, gpu: Option<Gpu>, state_loc: BufLoc) -> Self {
        IbvContext {
            hca,
            host_heap,
            gpu,
            state_loc,
            tuning: VerbsTuning::default(),
        }
    }

    /// Override the verbs code-path tunables.
    pub fn with_tuning(mut self, tuning: VerbsTuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// The underlying device.
    pub fn hca(&self) -> &IbHca {
        &self.hca
    }

    fn alloc(&self, loc: BufLoc, size: u64, align: u64) -> Addr {
        match loc {
            BufLoc::Host => self.host_heap.alloc(size, align),
            BufLoc::Gpu => self
                .gpu
                .as_ref()
                .expect("BufLoc::Gpu requires a GPU")
                .alloc(size, align),
        }
    }

    /// Register memory. GPU device memory is registered through its PCIe
    /// BAR aperture (GPUDirect RDMA): the returned region's `addr` is the
    /// DMA-able address — use it (plus offsets) in work requests.
    pub fn reg_mr(&self, addr: Addr, len: u64, access: Access) -> MemoryRegion {
        let fabric = match self.hca.inner.bus.classify(addr) {
            RegionKind::GpuDram { node } => {
                assert_eq!(
                    node,
                    self.hca.node(),
                    "GPUDirect only reaches the local GPU"
                );
                layout::gpu_dram_to_bar(addr)
            }
            RegionKind::HostDram { node } => {
                assert_eq!(node, self.hca.node(), "cannot register remote memory");
                addr
            }
            other => panic!("cannot register {other:?}"),
        };
        self.hca.mrs().register(fabric, len, access)
    }

    /// Create a completion queue with its buffer in `loc`.
    pub fn create_cq(&self, loc: BufLoc) -> Rc<IbvCq> {
        let entries = self.hca.config().cq_entries;
        let buf = self.alloc(loc, entries * CQ_STRIDE, 64);
        let ci_db_record = self.alloc(loc, 4, 8);
        // The software CQ context (consumer index plus driver bookkeeping
        // fields the poll path walks).
        let state = self.alloc(self.state_loc, 128, 64);
        let cqn = self.hca.alloc_cqn();
        let ring = Ring::new(buf, CQ_STRIDE, entries);
        self.hca.inner.cqs.borrow_mut().insert(
            cqn,
            Rc::new(Cq {
                cqn,
                ring,
                pi: Cell::new(0),
                ci_db_record,
            }),
        );
        Rc::new(IbvCq {
            hca: self.hca.clone(),
            cqn,
            ring,
            state,
            ci: Cell::new(0),
            ci_db_record,
        })
    }

    /// Create a queue pair whose work-queue buffers live in `loc`.
    pub fn create_qp(&self, send_cq: Rc<IbvCq>, recv_cq: Rc<IbvCq>, loc: BufLoc) -> IbvQp {
        let cfg = self.hca.config();
        let sq_buf = self.alloc(loc, cfg.sq_entries * SQ_STRIDE, 64);
        let rq_buf = self.alloc(loc, cfg.rq_entries * RQ_STRIDE, 64);
        let rq_db_record = self.alloc(loc, 4, 8);
        // The software QP context (producer indices at +0/+4, then the
        // driver bookkeeping fields the post path walks: queue geometry,
        // doorbell state, inline thresholds, fence/solicited state...).
        let state = self.alloc(self.state_loc, 256, 64);
        let qpn = self.hca.alloc_qpn();
        let sq = Ring::new(sq_buf, SQ_STRIDE, cfg.sq_entries);
        let rq = Ring::new(rq_buf, RQ_STRIDE, cfg.rq_entries);
        self.hca.inner.qps.borrow_mut().insert(
            qpn,
            Rc::new(Qp {
                qpn,
                state: Cell::new(QpState::Reset),
                dest_qpn: Cell::new(None),
                dest_node: Cell::new(0),
                sq,
                rq,
                sq_head: Cell::new(0),
                rq_head: Cell::new(0),
                rq_db_record,
                send_cqn: send_cq.cqn,
                recv_cqn: recv_cq.cqn,
            }),
        );
        IbvQp {
            hca: self.hca.clone(),
            qpn,
            sq,
            rq,
            state,
            rq_db_record,
            send_cq,
            recv_cq,
            db_addr: self.hca.doorbell_addr(),
            tuning: self.tuning,
        }
    }
}

/// User-space completion queue handle.
pub struct IbvCq {
    hca: IbHca,
    pub(crate) cqn: u32,
    ring: Ring,
    /// Software state block: consumer index (u32) at offset 0.
    state: Addr,
    /// The consumer index the state block holds: only this CQ's poller
    /// advances it.
    ci: Cell<u32>,
    /// Hardware-visible consumer-index record.
    ci_db_record: Addr,
}

impl IbvCq {
    /// The CQ number.
    pub fn cqn(&self) -> u32 {
        self.cqn
    }

    /// The head probe [`IbvCq::poll`] and [`IbvCq::wait`] share: the
    /// software consumer index through `ld_state`, the CQE at the head, the
    /// ownership/validity check and branch. An empty head is one spin of a
    /// poll loop, counted in `cq_poll_spins` (the loads already paid the
    /// memory latency); [`IbvCq::ready`] is its test. Only this CQ's poller
    /// writes its consumer index, so the head is known before the probe
    /// loads the index.
    pub fn probe(&self) -> [Step<'_>; 4] {
        let slot = self.ring.slot(u64::from(self.ci.get()));
        [
            Step::load(self.state, LoadKind::State),
            Step::load(slot, LoadKind::Bytes(CQ_STRIDE as usize)),
            Step::Instr(14),
            Step::Retire(Some(&self.hca.inner.stats.cq_poll_spins)),
        ]
    }

    /// Whether a head probe's bytes hold a CQE.
    pub fn ready(bytes: &[u8]) -> bool {
        Cqe::decode(&bytes[8..]).is_some()
    }

    /// `ibv_poll_cq` with one entry: probe the queue head; on a CQE,
    /// [`IbvCq::finish`] it.
    pub async fn poll<P: Processor>(&self, p: &P) -> Option<WorkCompletion> {
        let mut b = [0u8; 8 + CQ_STRIDE as usize];
        if !probe_once(p, &self.probe(), &mut b, Self::ready).await {
            return None;
        }
        Some(self.finish(p, &b).await)
    }

    /// Spin on [`IbvCq::poll`]'s probe until a completion arrives.
    pub async fn wait<P: Processor>(&self, p: &P) -> WorkCompletion {
        let got = p.spin_until(&self.probe(), Self::ready).await;
        self.finish(p, &got.bytes).await
    }

    /// The rest of a poll whose head probe loaded a CQE into `bytes`:
    /// byte-swap and translate the CQE, look up its QP, free the slot and
    /// publish the consumer index.
    pub async fn finish<P: Processor>(&self, p: &P, bytes: &[u8]) -> WorkCompletion {
        let ci = le(&bytes[..8]) as u32;
        let cqn = self.cqn;
        debug_assert_eq!(
            ci,
            self.ci.get(),
            "CQ {cqn} consumer index moved under its poller"
        );
        let cqe = Cqe::decode(&bytes[8..]).expect("the accepted probe holds a CQE");
        self.complete(p, ci, self.ring.slot(ci as u64), cqe).await
    }

    /// The rest of a successful poll of the CQE at consumer index `ci`.
    async fn complete<P: Processor>(&self, p: &P, ci: u32, slot: Addr, cqe: Cqe) -> WorkCompletion {
        // Field conversion from big-endian.
        p.instr(46).await;
        // "The associated QP has to be picked out of the list of QPs":
        // walk the context's QP list (dependent loads per visited entry).
        let scanned = self.hca.qp_count().max(1) as u64;
        for k in 0..(2 * scanned).min(12) {
            let _ = p.ld_state(self.state + 32 + (k % 10) * 8).await;
        }
        p.instr(4 * scanned).await;
        // Completion handling walks the CQ/QP bookkeeping fields.
        for k in 0..14u64 {
            let _ = p.ld_state(self.state + 32 + (k % 10) * 8).await;
        }
        for k in 0..4u64 {
            p.st_state(self.state + 32 + k * 8, ci as u64 + k).await;
        }
        // Fill in the ibv_wc, map status/opcode.
        p.instr(70).await;
        // Free the slot and publish the consumer index for the hardware's
        // overflow check.
        p.st_bytes(slot, &[0u8; CQ_STRIDE as usize]).await;
        p.st_state(self.state, ci.wrapping_add(1) as u64).await;
        self.ci.set(ci.wrapping_add(1));
        p.st_u32(self.ci_db_record, ci.wrapping_add(1)).await;
        // Consumer-index arithmetic, lock/unlock bookkeeping.
        p.instr(120).await;
        WorkCompletion {
            qpn: cqe.qpn,
            opcode: cqe.opcode,
            status: cqe.status,
            byte_count: cqe.byte_count,
            imm: cqe.imm,
            wqe_index: cqe.wqe_index,
        }
    }
}

/// User-space queue pair handle.
pub struct IbvQp {
    hca: IbHca,
    qpn: u32,
    sq: Ring,
    rq: Ring,
    /// Software state: sq producer index (u64) at +0, rq producer at +8.
    state: Addr,
    rq_db_record: Addr,
    /// CQ receiving send completions.
    pub send_cq: Rc<IbvCq>,
    /// CQ receiving receive completions.
    pub recv_cq: Rc<IbvCq>,
    db_addr: Addr,
    tuning: VerbsTuning,
}

impl IbvQp {
    /// This QP's number.
    pub fn qpn(&self) -> u32 {
        self.qpn
    }

    /// Drive the QP to RTS towards `remote_qpn` on the *other* node of a
    /// two-node system (the usual Reset->Init->RTR->RTS ladder;
    /// control-path cost is not modelled).
    pub fn connect(&self, remote_qpn: u32) {
        let peer = if self.hca.node() == 0 { 1 } else { 0 };
        self.connect_to(peer, remote_qpn);
    }

    /// Drive the QP to RTS towards `remote_qpn` on `remote_node`.
    pub fn connect_to(&self, remote_node: usize, remote_qpn: u32) {
        let qp = self.hca.qp(self.qpn);
        qp.modify(QpState::Init);
        qp.dest_qpn.set(Some(remote_qpn));
        qp.dest_node.set(remote_node);
        qp.modify(QpState::Rtr);
        qp.modify(QpState::Rts);
    }

    /// `ibv_post_send`: build the big-endian WQE in the send queue buffer,
    /// stamp the next slot, fence, ring the doorbell.
    pub async fn post_send<P: Processor>(&self, p: &P, wr: &SendWr) {
        // Argument marshalling, QP state and opcode dispatch, overflow check.
        p.instr(38).await;
        let pi = p.ld_state(self.state).await as u32;
        // Walk the QP software context: queue geometry, opcode tables,
        // doorbell/fence state. For GPU-driven contexts these live in
        // device memory — the dependent L2 loads dominate the post path's
        // wall time (Table II's ~160 L2 reads per iteration).
        for k in 0..28u64 {
            let _ = p.ld_state(self.state + 16 + (k % 28) * 8).await;
        }
        for k in 0..6u64 {
            p.st_state(self.state + 16 + k * 8, pi as u64 + k).await;
        }
        // Software overflow check against the hardware consumer position.
        p.instr(12).await;
        {
            let qp = self.hca.qp(self.qpn);
            assert!(
                (pi as u64) - qp.sq_head.get() < self.sq.capacity() - 1,
                "send queue overflow on QP {}",
                self.qpn
            );
        }
        let wqe = SendWqe {
            opcode: wr.opcode,
            index: pi as u16,
            signaled: wr.signaled,
            imm: wr.imm,
            raddr: wr.raddr,
            rkey: wr.rkey,
            byte_count: wr.len,
            lkey: wr.lkey,
            laddr: wr.laddr,
            inline: None,
        };
        // Control segment: owner, opcode, flags, immediate — each converted
        // to big-endian (unless pre-converted statically).
        let (ctrl, raddr_seg, data_seg) = if self.tuning.endian_convert {
            (58, 46, 52)
        } else {
            (20, 14, 16)
        };
        p.instr(ctrl).await;
        // Remote-address segment: bswap64(raddr) + bswap32(rkey).
        p.instr(raddr_seg).await;
        // Data segment: bswap(byte_count), bswap(lkey), bswap64(addr).
        p.instr(data_seg).await;
        let bytes = wqe.encode();
        let slot = self.sq.slot(pi as u64);
        // The 48 used bytes go out as three 16-byte vector stores.
        p.st_bytes(slot, &bytes[0..16]).await;
        p.st_bytes(slot + 16, &bytes[16..32]).await;
        p.st_bytes(slot + 32, &bytes[32..48]).await;
        // Stamp the following queue element so the prefetcher cannot
        // misread stale data (§V-B.3).
        p.instr(18).await;
        let next = self.sq.slot(pi as u64 + 1);
        p.st_bytes(next, &[WQE_STAMP; 16]).await;
        // Make the WQE globally visible before the doorbell.
        p.fence().await;
        // Compose and ring the doorbell (qpn | new producer index).
        p.instr(24).await;
        let db = ((self.qpn as u64) << 32) | (pi as u64 + 1);
        p.st_u64(self.db_addr, db).await;
        // Update the software producer index.
        p.st_state(self.state, pi.wrapping_add(1) as u64).await;
        // Remaining driver bookkeeping: wqe-size accounting, inline-data
        // checks, wrap handling, libibverbs call overhead.
        p.instr(138).await;
    }

    /// `ibv_post_send` with `IBV_SEND_INLINE`: the payload (up to
    /// [`crate::wqe::MAX_INLINE`] bytes) is copied *into* the WQE, so the
    /// HCA never DMA-reads a payload buffer — the classic small-message
    /// optimization of the era, here exposed for the inline ablation.
    pub async fn post_send_inline<P: Processor>(&self, p: &P, wr: &SendWr, payload: &[u8]) {
        assert!(payload.len() <= crate::wqe::MAX_INLINE);
        assert_eq!(payload.len(), wr.len as usize);
        assert!(
            !matches!(wr.opcode, SendOpcode::RdmaRead),
            "reads cannot be inline"
        );
        p.instr(38).await;
        let pi = p.ld_state(self.state).await as u32;
        for k in 0..28u64 {
            let _ = p.ld_state(self.state + 16 + (k % 28) * 8).await;
        }
        for k in 0..6u64 {
            p.st_state(self.state + 16 + k * 8, pi as u64 + k).await;
        }
        p.instr(12).await;
        {
            let qp = self.hca.qp(self.qpn);
            assert!(
                (pi as u64) - qp.sq_head.get() < self.sq.capacity() - 1,
                "send queue overflow on QP {}",
                self.qpn
            );
        }
        let mut inline = [0u8; crate::wqe::MAX_INLINE];
        inline[..payload.len()].copy_from_slice(payload);
        let wqe = SendWqe {
            opcode: wr.opcode,
            index: pi as u16,
            signaled: wr.signaled,
            imm: wr.imm,
            raddr: wr.raddr,
            rkey: wr.rkey,
            byte_count: wr.len,
            lkey: 0,
            laddr: 0,
            inline: Some(inline),
        };
        let (ctrl, raddr_seg, data_seg) = if self.tuning.endian_convert {
            (58, 46, 52)
        } else {
            (20, 14, 16)
        };
        p.instr(ctrl).await;
        p.instr(raddr_seg).await;
        // The data segment is replaced by the payload copy into the WQE.
        p.instr(data_seg / 2 + payload.len() as u64 / 4).await;
        let bytes = wqe.encode();
        let slot = self.sq.slot(pi as u64);
        // The whole 64-byte WQE (payload included) goes to the queue.
        p.st_bytes(slot, &bytes).await;
        p.instr(18).await;
        let next = self.sq.slot(pi as u64 + 1);
        p.st_bytes(next, &[WQE_STAMP; 16]).await;
        p.fence().await;
        p.instr(24).await;
        let db = ((self.qpn as u64) << 32) | (pi as u64 + 1);
        p.st_u64(self.db_addr, db).await;
        p.st_state(self.state, pi.wrapping_add(1) as u64).await;
        p.instr(172).await;
    }

    /// The thread-collaborative variant of [`IbvQp::post_send`] (the
    /// paper's claim 2 applied to Verbs): a warp divides the argument
    /// marshalling, endianness conversion and context walk across its
    /// lanes, and the WQE leaves as one wide store. The doorbell remains a
    /// single 64-bit MMIO store — hardware gives a warp nothing better.
    pub async fn post_send_warp(&self, t: &GpuThread, wr: &SendWr) {
        t.instr_parallel(38, 8).await;
        let pi = t.ld_state(self.state).await as u32;
        // The context walk parallelizes across lanes (independent loads).
        for k in 0..4u64 {
            let _ = t.ld_state(self.state + 16 + k * 8).await;
        }
        t.instr_parallel(24 * 8, 8).await;
        for k in 0..6u64 {
            t.st_state(self.state + 16 + k * 8, pi as u64 + k).await;
        }
        t.instr(12).await;
        {
            let qp = self.hca.qp(self.qpn);
            assert!(
                (pi as u64) - qp.sq_head.get() < self.sq.capacity() - 1,
                "send queue overflow on QP {}",
                self.qpn
            );
        }
        let wqe = SendWqe {
            opcode: wr.opcode,
            index: pi as u16,
            signaled: wr.signaled,
            imm: wr.imm,
            raddr: wr.raddr,
            rkey: wr.rkey,
            byte_count: wr.len,
            lkey: wr.lkey,
            laddr: wr.laddr,
            inline: None,
        };
        // All three segments converted in parallel lanes.
        t.instr_parallel(58 + 46 + 52, 8).await;
        let bytes = wqe.encode();
        let slot = self.sq.slot(pi as u64);
        // One wide cooperative store for the whole 48-byte WQE.
        t.st_bytes(slot, &bytes[0..48]).await;
        t.instr_parallel(18, 8).await;
        let next = self.sq.slot(pi as u64 + 1);
        t.st_bytes(next, &[WQE_STAMP; 16]).await;
        t.fence().await;
        t.instr(24).await;
        let db = ((self.qpn as u64) << 32) | (pi as u64 + 1);
        t.st_u64(self.db_addr, db).await;
        t.st_state(self.state, pi.wrapping_add(1) as u64).await;
        t.instr_parallel(138, 8).await;
    }

    /// `ibv_post_recv`: write one receive WQE and publish the RQ doorbell
    /// record (the RQ has no MMIO doorbell on mlx4-class hardware).
    pub async fn post_recv<P: Processor>(&self, p: &P, laddr: Addr, lkey: u32, len: u32) {
        p.instr(34).await;
        let pi = p.ld_state(self.state + 8).await as u32;
        let wqe = RecvWqe {
            byte_count: len,
            lkey,
            laddr,
        };
        // Field conversion.
        p.instr(38).await;
        let slot = self.rq.slot(pi as u64);
        p.st_bytes(slot, &wqe.encode()).await;
        p.st_state(self.state + 8, pi.wrapping_add(1) as u64).await;
        // Publish the doorbell record.
        p.st_u32(self.rq_db_record, pi.wrapping_add(1)).await;
        p.instr(52).await;
    }
}
