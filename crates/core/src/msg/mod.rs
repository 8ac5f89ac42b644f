//! MPI-style message passing over the [`Transport`] seam: eager vs
//! rendezvous.
//!
//! The paper analyzes raw put/get; this layer builds the protocol that
//! real communication libraries stack on top (the MPICH2-over-InfiniBand
//! design of PAPERS.md): small messages take the **eager path** — copied
//! through the fabric's bounded two-sided channel as fragments, governed
//! by credit-based flow control with credit returns piggybacked on
//! reverse traffic — while large messages take the **rendezvous path** —
//! an RTS/CTS handshake followed by a zero-copy RDMA transfer of the
//! payload straight between the registered buffers, closed by a FIN.
//! The crossover between the two is a per-backend tunable
//! ([`TransportCaps::default_eager_threshold`]), and the `crossover`
//! experiment measures where it actually sits on each fabric.
//!
//! # Protocol
//!
//! Every frame is one transport-level two-sided message with an 8-byte
//! [`wire::Header`]. A [`Messenger`] owns one side of a connected
//! transport pair and splits its symmetric buffer in half: the low half
//! stages outbound rendezvous payloads, the high half is the inbound
//! landing zone (both sides use the same split, so the offsets need not
//! travel in full).
//!
//! **Eager** (`len <= eager_threshold`): the payload is chopped into
//! fragments of `max_small_message - HEADER_LEN` bytes, each sent as an
//! `Eager` frame carrying the total length. Each fragment consumes one
//! *credit*; the initial credit pool is the transport's receive window
//! minus a small reserve for control frames, so the sender can never
//! overrun the receiver's mailbox. The receiver counts drained fragments
//! and returns credits piggybacked on any reverse frame, or as a
//! standalone `Credit` frame once half the pool accumulates. A sender
//! out of credits blocks *pumping inbound frames* (progress engine), so
//! credit returns, grants and peer traffic keep flowing — credit
//! exhaustion throttles, it cannot deadlock.
//!
//! **Rendezvous** (`len > eager_threshold`): the sender stages the
//! payload and sends `Rts(len)`, then pumps. In [`RendezvousMode::Put`]
//! the receiver answers `Cts(landing_off)` as soon as its landing zone is
//! free (no application receive needed — the grant comes from the
//! progress engine), the sender RDMA-puts the payload, flushes, and sends
//! `Fin`; the flush plus the transport's put/send ordering guarantee the
//! data is visible before the FIN is. In [`RendezvousMode::Get`] the
//! receiver instead RDMA-gets the payload from the sender's staging area
//! and answers `Fin` directly — one fewer control hop, but the transfer
//! is driven by the receiving processor. A busy landing zone defers the
//! grant until the application consumes the previous rendezvous message,
//! which stalls (only) that sender — exactly MPI's unexpected-message
//! throttling.
//!
//! Messages of one direction are delivered in send order: frames of one
//! sender travel one FIFO channel, senders block per message, and puts
//! order before the FIN that announces them.

pub mod apps;
pub mod wire;

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use tc_desim::sync::Flag;
use tc_desim::{Sim, Time};
use tc_mem::{Addr, Bus};
use tc_pcie::Processor;
use tc_trace::{Counter, Gauge, Histogram, Scope};

use crate::api::QueueLoc;
use crate::cluster::Cluster;
use crate::transport::{AnyTransport, CommError, Transport, TransportCaps};

use wire::{FrameKind, Header, HEADER_LEN};

/// Who moves the rendezvous payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RendezvousMode {
    /// Sender RDMA-writes after a CTS grant (RTS → CTS → put → FIN).
    Put,
    /// Receiver RDMA-reads from the sender's staging area (RTS → get →
    /// FIN) — one fewer control hop.
    Get,
}

/// Tunables of one messenger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgConfig {
    /// Largest payload (bytes) taking the eager path; larger ones go
    /// rendezvous.
    pub eager_threshold: usize,
    /// Rendezvous transfer direction.
    pub rendezvous: RendezvousMode,
}

impl MsgConfig {
    /// The backend's default: its tuned crossover threshold, put-mode
    /// rendezvous.
    pub fn for_caps(caps: &TransportCaps) -> Self {
        MsgConfig {
            eager_threshold: caps.default_eager_threshold,
            rendezvous: RendezvousMode::Put,
        }
    }
}

/// Control-frame slots reserved out of the transport's receive window so
/// RTS/CTS/FIN/Credit frames can never be starved by eager fragments.
const CTRL_RESERVE: usize = 8;

/// Protocol metrics of one messenger pair (a bundle of handles into the
/// simulation's registry, like `NicStats`; both sides of a pair share one
/// scope, so the counts are pair totals).
#[derive(Debug, Clone)]
pub struct MsgStats {
    /// Messages sent through the eager path.
    pub eager_sends: Counter,
    /// Eager fragments sent (each consumed one credit).
    pub eager_frags: Counter,
    /// Messages sent through the rendezvous path.
    pub rndv_sends: Counter,
    /// RTS frames sent.
    pub rts: Counter,
    /// CTS frames sent (put-mode grants).
    pub cts: Counter,
    /// FIN frames sent.
    pub fin: Counter,
    /// Flow-control credits returned to the peer (piggybacked or
    /// standalone).
    pub credits_returned: Counter,
    /// Times a sender ran out of credits and had to pump for returns.
    pub credit_stalls: Counter,
    /// Senders currently stalled on credits (current + high-water).
    pub stalled: Gauge,
    /// Rendezvous handshake latency: RTS send → CTS arrival (put mode)
    /// or RTS send → FIN arrival (get mode), ps.
    pub handshake_ps: Histogram,
    /// Messages fully delivered to a receiver.
    pub delivered: Counter,
}

impl MsgStats {
    /// A view registered under `scope` (e.g. `msg0`).
    pub fn in_scope(scope: &Scope) -> Self {
        MsgStats {
            eager_sends: scope.counter("eager_sends"),
            eager_frags: scope.counter("eager_frags"),
            rndv_sends: scope.counter("rndv_sends"),
            rts: scope.counter("rts"),
            cts: scope.counter("cts"),
            fin: scope.counter("fin"),
            credits_returned: scope.counter("credits_returned"),
            credit_stalls: scope.counter("credit_stalls"),
            stalled: scope.gauge("stalled"),
            handshake_ps: scope.histogram("handshake_ps"),
            delivered: scope.counter("delivered"),
        }
    }
}

/// A delivered message: either the assembled eager copy, or a zero-copy
/// reference into the landing zone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MsgDesc {
    /// Eager message, payload assembled from its fragments.
    Eager(Vec<u8>),
    /// Rendezvous message landed at `off` in the local buffer.
    Rendezvous {
        /// Offset of the payload in the messenger's local buffer.
        off: u64,
        /// Payload length in bytes.
        len: u32,
    },
}

impl MsgDesc {
    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        match self {
            MsgDesc::Eager(v) => v.len(),
            MsgDesc::Rendezvous { len, .. } => *len as usize,
        }
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the message arrived through the rendezvous path.
    pub fn is_rendezvous(&self) -> bool {
        matches!(self, MsgDesc::Rendezvous { .. })
    }
}

/// In-progress reassembly of a fragmented eager message.
struct EagerAsm {
    total: u32,
    data: Vec<u8>,
}

/// Receive-side protocol state.
#[derive(Default)]
struct RecvState {
    /// Fully delivered messages in arrival order.
    ready: VecDeque<MsgDesc>,
    /// Eager message currently being reassembled (fragments of one
    /// direction arrive in order and senders block per message, so at
    /// most one is in flight).
    eager: Option<EagerAsm>,
    /// RTS frames deferred because the landing zone was busy.
    pending_rts: VecDeque<(u16, u32)>,
    /// The landing zone holds (or is receiving) an unconsumed rendezvous
    /// payload.
    landing_busy: bool,
}

/// One side of a connected message-passing pair.
///
/// Generic over the transport so the whole protocol is backend-agnostic;
/// construct pairs with [`messenger_pair`]. Every blocking wait doubles
/// as the progress engine: it pumps inbound frames and reacts to them
/// (grants, credit returns, reassembly), so two messengers never
/// deadlock on crossing operations.
pub struct Messenger<T: Transport> {
    tp: Rc<T>,
    sim: Sim,
    bus: Bus,
    cfg: MsgConfig,
    caps: TransportCaps,
    stats: MsgStats,
    /// Base address of the local symmetric buffer.
    local_buf: Addr,
    /// Length of the symmetric buffer (tx staging = low half, landing
    /// zone = high half).
    buf_len: u64,
    /// Remaining eager-fragment credits.
    credits: Cell<u64>,
    /// Drained fragments not yet credited back to the peer.
    to_return: Cell<u64>,
    /// Standalone-credit batch threshold.
    credit_batch: u64,
    next_seq: Cell<u16>,
    /// CTS received for a pending rendezvous send: `(seq, landing_off)`.
    cts_seen: Cell<Option<(u16, u32)>>,
    /// FIN received for a pending get-mode rendezvous send.
    fin_seen: Cell<Option<u16>>,
    state: RefCell<RecvState>,
    /// A rendezvous descriptor was handed out; release its landing zone
    /// at the next send or receive call (so the payload stays valid, and
    /// a deferred peer RTS cannot stall a sender that will never recv).
    pending_release: Cell<bool>,
    primed: Cell<bool>,
}

impl<T: Transport> Messenger<T> {
    /// Wrap one side of a connected transport pair. `local_buf`/`buf_len`
    /// is the symmetric buffer the transport was instantiated over; both
    /// sides must use the same `buf_len` and `cfg`.
    pub fn new(
        tp: Rc<T>,
        sim: Sim,
        bus: Bus,
        local_buf: Addr,
        buf_len: u64,
        cfg: MsgConfig,
        stats: MsgStats,
    ) -> Self {
        let caps = tp.caps();
        assert!(
            caps.max_small_message > HEADER_LEN,
            "transport messages too small for a frame header"
        );
        assert!(
            caps.msg_window > CTRL_RESERVE,
            "receive window too small for credit flow control"
        );
        let credits = (caps.msg_window - CTRL_RESERVE) as u64;
        Messenger {
            tp,
            sim,
            bus,
            cfg,
            caps,
            stats,
            local_buf,
            buf_len,
            credits: Cell::new(credits),
            to_return: Cell::new(0),
            credit_batch: (credits / 2).max(1),
            next_seq: Cell::new(0),
            cts_seen: Cell::new(None),
            fin_seen: Cell::new(None),
            state: RefCell::new(RecvState::default()),
            pending_release: Cell::new(false),
            primed: Cell::new(false),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> MsgConfig {
        self.cfg
    }

    /// The protocol metrics view.
    pub fn stats(&self) -> &MsgStats {
        &self.stats
    }

    /// The underlying transport.
    pub fn transport(&self) -> &T {
        &self.tp
    }

    /// Largest message this messenger can carry (half the symmetric
    /// buffer — the other half is the peer's landing zone).
    pub fn max_msg_len(&self) -> u64 {
        self.buf_len / 2
    }

    /// Payload bytes per eager fragment.
    pub fn frag_payload(&self) -> usize {
        self.caps.max_small_message - HEADER_LEN
    }

    fn rx_base(&self) -> u64 {
        self.buf_len / 2
    }

    /// Prime the transport's receive window. Called lazily by every
    /// operation, but call it explicitly (and synchronize) before the
    /// peer's first send on fabrics that pre-post receives.
    pub async fn init<P: Processor>(&self, p: &P) {
        if !self.primed.get() {
            self.primed.set(true);
            self.tp.prime_recv(p, self.caps.msg_window).await;
        }
    }

    // --- sending ---------------------------------------------------------

    /// Send `data` as one message, choosing eager or rendezvous by the
    /// configured threshold. Returns when the message is *locally*
    /// complete (buffer reusable), like MPI_Send.
    pub async fn send<P: Processor>(&self, p: &P, data: &[u8]) -> Result<(), CommError> {
        self.init(p).await;
        self.flush_release(p).await?;
        if data.len() <= self.cfg.eager_threshold {
            self.send_eager(p, data).await
        } else {
            assert!(
                data.len() as u64 <= self.max_msg_len(),
                "message exceeds the staging region"
            );
            // Zero-copy semantics: the staging region *is* the app buffer,
            // so placing the bytes there is not a timed copy.
            self.bus.write(self.local_buf, data);
            self.send_rndv(p, data.len() as u32).await
        }
    }

    /// Send `len` bytes that already reside in the staging region (low
    /// half of the local buffer) — the benchmark-friendly variant that
    /// models an application whose data is in place, without charging an
    /// extra marshalling copy.
    pub async fn send_staged<P: Processor>(&self, p: &P, len: u32) -> Result<(), CommError> {
        self.init(p).await;
        self.flush_release(p).await?;
        if len as usize <= self.cfg.eager_threshold {
            let mut data = vec![0u8; len as usize];
            if len > 0 {
                self.bus.read(self.local_buf, &mut data);
            }
            self.send_eager(p, &data).await
        } else {
            assert!(len as u64 <= self.max_msg_len());
            self.send_rndv(p, len).await
        }
    }

    async fn send_eager<P: Processor>(&self, p: &P, data: &[u8]) -> Result<(), CommError> {
        let seq = self.bump_seq();
        self.stats.eager_sends.add(1);
        let fp = self.frag_payload();
        let total = data.len() as u32;
        let mut off = 0usize;
        loop {
            if self.credits.get() == 0 {
                self.stats.credit_stalls.add(1);
                self.stats.stalled.add(1);
                while self.credits.get() == 0 {
                    // Block on inbound traffic: the next credit return can
                    // only arrive as a frame (and pumping keeps serving
                    // grants for the peer, so this cannot deadlock).
                    self.pump(p, true).await?;
                }
                self.stats.stalled.sub(1);
            }
            self.credits.set(self.credits.get() - 1);
            self.stats.eager_frags.add(1);
            let end = (off + fp).min(data.len());
            self.emit(p, FrameKind::Eager, seq, total, &data[off..end])
                .await?;
            off = end;
            if off >= data.len() {
                return Ok(());
            }
        }
    }

    async fn send_rndv<P: Processor>(&self, p: &P, len: u32) -> Result<(), CommError> {
        let seq = self.bump_seq();
        self.stats.rndv_sends.add(1);
        self.stats.rts.add(1);
        let t0 = self.sim.now();
        self.emit(p, FrameKind::Rts, seq, len, &[]).await?;
        match self.cfg.rendezvous {
            RendezvousMode::Put => {
                let dst = loop {
                    if let Some((s, off)) = self.cts_seen.get() {
                        debug_assert_eq!(s, seq, "one rendezvous outstanding per direction");
                        self.cts_seen.set(None);
                        break off;
                    }
                    self.pump(p, true).await?;
                };
                self.stats.handshake_ps.record(self.sim.now() - t0);
                if len > 0 {
                    self.tp.put(p, 0, dst as u64, len, false).await;
                    // After the flush the payload is locally complete and
                    // ordered ahead of the FIN on the wire.
                    self.tp.flush(p).await?;
                }
                self.stats.fin.add(1);
                self.emit(p, FrameKind::Fin, seq, len, &[]).await
            }
            RendezvousMode::Get => {
                loop {
                    if let Some(s) = self.fin_seen.get() {
                        debug_assert_eq!(s, seq, "one rendezvous outstanding per direction");
                        self.fin_seen.set(None);
                        break;
                    }
                    self.pump(p, true).await?;
                }
                self.stats.handshake_ps.record(self.sim.now() - t0);
                Ok(())
            }
        }
    }

    // --- receiving -------------------------------------------------------

    /// Place `data` in the staging region (low half of the local buffer)
    /// for a subsequent [`Messenger::send_staged`]. Untimed mirror write:
    /// staging *is* the app buffer in the zero-copy model.
    pub fn stage(&self, data: &[u8]) {
        assert!(data.len() as u64 <= self.max_msg_len());
        self.bus.write(self.local_buf, data);
    }

    /// Read a delivered message's payload. For rendezvous descriptors
    /// this is an untimed in-place read of the landing zone, valid until
    /// the next send or receive call.
    pub fn read_payload(&self, d: &MsgDesc) -> Vec<u8> {
        match d {
            MsgDesc::Eager(v) => v.clone(),
            MsgDesc::Rendezvous { off, len } => {
                let mut v = vec![0u8; *len as usize];
                if *len > 0 {
                    self.bus.read(self.local_buf + off, &mut v);
                }
                v
            }
        }
    }

    /// Release the landing zone of a previously returned rendezvous
    /// descriptor (deferred so the descriptor's payload stays readable
    /// until the application asks for the next message).
    async fn flush_release<P: Processor>(&self, p: &P) -> Result<(), CommError> {
        if self.pending_release.get() {
            self.pending_release.set(false);
            self.release_landing(p).await?;
        }
        Ok(())
    }

    /// Receive the next message as an owned copy, in arrival order.
    pub async fn recv<P: Processor>(&self, p: &P) -> Result<Vec<u8>, CommError> {
        self.init(p).await;
        self.flush_release(p).await?;
        let desc = loop {
            if let Some(d) = self.state.borrow_mut().ready.pop_front() {
                break d;
            }
            self.pump(p, true).await?;
        };
        match desc {
            MsgDesc::Eager(v) => Ok(v),
            MsgDesc::Rendezvous { off, len } => {
                let mut v = vec![0u8; len as usize];
                if len > 0 {
                    // Zero-copy handoff: the app reads in place (untimed
                    // mirror read; the RDMA transfer already paid the
                    // timed cost).
                    self.bus.read(self.local_buf + off, &mut v);
                }
                self.release_landing(p).await?;
                Ok(v)
            }
        }
    }

    /// Receive the next message as a descriptor, in arrival order. A
    /// rendezvous descriptor references the landing zone in place; its
    /// payload stays valid until the next send or receive call, which
    /// releases the zone for the next rendezvous message.
    pub async fn recv_desc<P: Processor>(&self, p: &P) -> Result<MsgDesc, CommError> {
        self.init(p).await;
        self.flush_release(p).await?;
        let desc = loop {
            if let Some(d) = self.state.borrow_mut().ready.pop_front() {
                break d;
            }
            self.pump(p, true).await?;
        };
        if desc.is_rendezvous() {
            self.pending_release.set(true);
        }
        Ok(desc)
    }

    /// Non-blocking [`Messenger::recv_desc`]: drain whatever frames are
    /// pending, return the next message if one is complete.
    pub async fn try_recv_desc<P: Processor>(&self, p: &P) -> Result<Option<MsgDesc>, CommError> {
        self.init(p).await;
        self.flush_release(p).await?;
        loop {
            if let Some(d) = self.state.borrow_mut().ready.pop_front() {
                if d.is_rendezvous() {
                    self.pending_release.set(true);
                }
                return Ok(Some(d));
            }
            if !self.pump(p, false).await? {
                return Ok(None);
            }
        }
    }

    /// [`Messenger::try_recv_desc`] for a server loop that idles `idle`
    /// after every empty probe: `Ok(None)` after an empty probe once
    /// `exit` is set. Where the call would only probe the transport, it
    /// receives through [`Transport::idle_recv`], whose idle passes park;
    /// a call with work to do first runs plain.
    pub async fn idle_recv_desc<P: Processor>(
        &self,
        p: &P,
        exit: &Flag,
        idle: Time,
    ) -> Result<Option<MsgDesc>, CommError> {
        loop {
            let bare = self.primed.get() && !self.pending_release.get();
            if bare && self.state.borrow().ready.is_empty() {
                match self.tp.idle_recv(p, exit, idle).await {
                    Some(frame) => self.dispatch(p, frame?).await?,
                    None => return Ok(None),
                }
                continue;
            }
            match self.try_recv_desc(p).await? {
                None if !exit.is_set() => p.sim().delay(idle).await,
                got => return Ok(got),
            }
        }
    }

    // --- progress engine -------------------------------------------------

    /// Pull one inbound frame (blocking or not) and react to it. Returns
    /// whether a frame was processed.
    async fn pump<P: Processor>(&self, p: &P, block: bool) -> Result<bool, CommError> {
        let frame = if block {
            Some(self.tp.recv(p).await?)
        } else {
            match self.tp.try_recv(p).await {
                None => None,
                Some(r) => Some(r?),
            }
        };
        match frame {
            Some(f) => {
                self.dispatch(p, f).await?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    async fn dispatch<P: Processor>(&self, p: &P, frame: Vec<u8>) -> Result<(), CommError> {
        let h = Header::decode(&frame);
        if h.credits > 0 {
            self.credits.set(self.credits.get() + h.credits as u64);
        }
        match h.kind {
            FrameKind::Eager => {
                self.to_return.set(self.to_return.get() + 1);
                let complete = {
                    let mut st = self.state.borrow_mut();
                    let asm = st.eager.get_or_insert_with(|| EagerAsm {
                        total: h.arg,
                        data: Vec::with_capacity(h.arg as usize),
                    });
                    debug_assert_eq!(asm.total, h.arg, "fragments of one message");
                    asm.data.extend_from_slice(&frame[HEADER_LEN..]);
                    if asm.data.len() as u32 >= asm.total {
                        let asm = st.eager.take().unwrap();
                        debug_assert_eq!(asm.data.len() as u32, asm.total);
                        st.ready.push_back(MsgDesc::Eager(asm.data));
                        true
                    } else {
                        false
                    }
                };
                if complete {
                    self.stats.delivered.add(1);
                }
                // Return a batch promptly even without reverse traffic.
                if self.to_return.get() >= self.credit_batch {
                    self.emit(p, FrameKind::Credit, 0, 0, &[]).await?;
                }
            }
            FrameKind::Rts => {
                let grant_now = {
                    let mut st = self.state.borrow_mut();
                    if st.landing_busy {
                        st.pending_rts.push_back((h.seq, h.arg));
                        false
                    } else {
                        st.landing_busy = true;
                        true
                    }
                };
                if grant_now {
                    self.grant(p, h.seq, h.arg).await?;
                }
            }
            FrameKind::Cts => {
                debug_assert!(self.cts_seen.get().is_none());
                self.cts_seen.set(Some((h.seq, h.arg)));
            }
            // FIN travels the opposite direction per mode: put mode sends
            // it sender -> receiver ("payload landed in your zone"), get
            // mode receiver -> sender ("your staged message was pulled").
            FrameKind::Fin => match self.cfg.rendezvous {
                RendezvousMode::Put => {
                    {
                        let mut st = self.state.borrow_mut();
                        debug_assert!(st.landing_busy, "FIN without a granted landing zone");
                        st.ready.push_back(MsgDesc::Rendezvous {
                            off: self.rx_base(),
                            len: h.arg,
                        });
                    }
                    self.stats.delivered.add(1);
                }
                RendezvousMode::Get => {
                    debug_assert!(self.fin_seen.get().is_none());
                    self.fin_seen.set(Some(h.seq));
                }
            },
            FrameKind::Credit => {
                // The piggyback field above did the work.
            }
        }
        Ok(())
    }

    /// Serve one granted RTS: put mode answers CTS (the peer transfers),
    /// get mode performs the transfer right here and answers FIN.
    async fn grant<P: Processor>(&self, p: &P, seq: u16, len: u32) -> Result<(), CommError> {
        match self.cfg.rendezvous {
            RendezvousMode::Put => {
                self.stats.cts.add(1);
                self.emit(p, FrameKind::Cts, seq, self.rx_base() as u32, &[])
                    .await
            }
            RendezvousMode::Get => {
                if len > 0 {
                    // Peer staging regions start at offset 0 on both sides.
                    self.tp.get(p, self.rx_base(), 0, len).await?;
                }
                self.state
                    .borrow_mut()
                    .ready
                    .push_back(MsgDesc::Rendezvous {
                        off: self.rx_base(),
                        len,
                    });
                self.stats.delivered.add(1);
                self.stats.fin.add(1);
                self.emit(p, FrameKind::Fin, seq, len, &[]).await
            }
        }
    }

    /// Free the landing zone after its message was consumed; serve a
    /// deferred RTS if one queued up.
    async fn release_landing<P: Processor>(&self, p: &P) -> Result<(), CommError> {
        let next = {
            let mut st = self.state.borrow_mut();
            debug_assert!(st.landing_busy);
            match st.pending_rts.pop_front() {
                Some(g) => g, // the landing zone stays busy for this grant
                None => {
                    st.landing_busy = false;
                    return Ok(());
                }
            }
        };
        self.grant(p, next.0, next.1).await
    }

    /// Send one frame, piggybacking any accumulated credit return.
    async fn emit<P: Processor>(
        &self,
        p: &P,
        kind: FrameKind,
        seq: u16,
        arg: u32,
        payload: &[u8],
    ) -> Result<(), CommError> {
        let returning = self.to_return.get().min(u8::MAX as u64);
        if returning > 0 {
            self.to_return.set(self.to_return.get() - returning);
            self.stats.credits_returned.add(returning);
        }
        let h = Header {
            kind,
            credits: returning as u8,
            seq,
            arg,
        };
        let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
        frame.extend_from_slice(&h.encode());
        frame.extend_from_slice(payload);
        self.tp.send(p, &frame).await
    }

    fn bump_seq(&self) -> u16 {
        let s = self.next_seq.get();
        self.next_seq.set(s.wrapping_add(1));
        s
    }
}

/// Build a connected messenger pair between nodes 0 and 1 of `c`, over
/// fresh `buf_len`-byte symmetric buffers in GPU memory. Both sides share
/// one `msg{N}` stats scope, so the counters are pair totals.
pub fn messenger_pair(
    c: &Cluster,
    buf_len: u64,
    cfg: MsgConfig,
) -> (Messenger<AnyTransport>, Messenger<AnyTransport>) {
    messenger_pair_between(c, 0, 1, buf_len, cfg)
}

/// [`messenger_pair`] between two explicit nodes.
pub fn messenger_pair_between(
    c: &Cluster,
    node_a: usize,
    node_b: usize,
    buf_len: u64,
    cfg: MsgConfig,
) -> (Messenger<AnyTransport>, Messenger<AnyTransport>) {
    let buf_a = c.nodes[node_a].gpu.alloc(buf_len, 256);
    let buf_b = c.nodes[node_b].gpu.alloc(buf_len, 256);
    let (ta, tb) =
        c.backend
            .instantiate(c, (node_a, buf_a), (node_b, buf_b), buf_len, QueueLoc::Host);
    let stats = MsgStats::in_scope(&c.sim.registry().scope("msg"));
    (
        Messenger::new(
            Rc::new(ta),
            c.sim.clone(),
            c.bus.clone(),
            buf_a,
            buf_len,
            cfg,
            stats.clone(),
        ),
        Messenger::new(
            Rc::new(tb),
            c.sim.clone(),
            c.bus.clone(),
            buf_b,
            buf_len,
            cfg,
            stats,
        ),
    )
}
