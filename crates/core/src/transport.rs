//! The backend-agnostic transport seam.
//!
//! The paper's subject is the *difference* between put/get APIs across
//! interconnects, but comparing backends should not mean `match`-ing on
//! [`Backend`] in every driver. This module concentrates the dispatch in
//! one place: a [`Transport`] trait covering the operations every fabric
//! of the paper's class offers — one-sided `put`/`get`, two-sided
//! small-message `send`/`recv` and completion retrieval (`quiet`/`flush`/
//! `poll_completions`) — plus a [`TransportCaps`] capability descriptor so
//! drivers can query *what a backend can do* instead of *which backend it
//! is*.
//!
//! [`ExtollTransport`] wraps the EXTOLL RMA port (and a VELO port for the
//! two-sided path); [`IbTransport`] wraps an `IbvQp` with its two CQs and
//! memory regions. Both bounds-check every put and get against the
//! connected symmetric buffers. [`Backend::instantiate`] is the one factory
//! that still knows both backends: it performs the whole control path
//! (registration, port/QP setup, connection cross-wiring) and returns a
//! connected [`AnyTransport`] pair. Everything above —
//! [`crate::api::create_pair`], the `bench/*` drivers, the collectives, the
//! message layer — goes through the trait.
//!
//! A new backend plugs in by implementing [`Transport`], adding an
//! [`AnyTransport`] variant, and extending the factory; the generic
//! conformance checklist in `crates/core/tests/conformance.rs` then
//! covers it for free.
//!
//! All operations run in simulated time: every method takes the executing
//! [`Processor`], exactly like the rest of the crate.

use std::cell::Cell;
use std::rc::Rc;

use tc_desim::sync::Flag;
use tc_desim::time::Time;
use tc_extoll::api::VeloPort;
use tc_extoll::{MailboxConsumer, NotifConsumer, NotifyUnit, RmaPort, WrFlags, VELO_MAX_PAYLOAD};
use tc_ib::{
    Access, BufLoc, CqeStatus, IbvContext, IbvCq, IbvQp, MemoryRegion, SendOpcode, SendWr,
};
use tc_mem::Addr;
use tc_pcie::{probe_bytes, probe_once, Processor, Step};

use crate::cluster::{Backend, Cluster};

/// Communication errors surfaced by completion polling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommError {
    /// The remote side rejected the access (bad key / out of bounds).
    RemoteAccess,
    /// Two-sided operation without a matching receive.
    ReceiverNotReady,
    /// The local buffer failed protection checks.
    LocalProtection,
}

pub(crate) fn status_to_result(s: CqeStatus) -> Result<(), CommError> {
    match s {
        CqeStatus::Success => Ok(()),
        CqeStatus::RemoteAccessError => Err(CommError::RemoteAccess),
        CqeStatus::RnrRetryExceeded => Err(CommError::ReceiverNotReady),
        CqeStatus::LocalProtectionError => Err(CommError::LocalProtection),
    }
}

/// Placement of the communication queues (Infiniband only; EXTOLL's
/// notification queues are pinned in host kernel memory by the driver).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueLoc {
    /// Queue buffers in host memory.
    Host,
    /// Queue buffers in GPU device memory (GPUDirect driver patch).
    Gpu,
}

impl From<QueueLoc> for BufLoc {
    fn from(q: QueueLoc) -> BufLoc {
        match q {
            QueueLoc::Host => BufLoc::Host,
            QueueLoc::Gpu => BufLoc::Gpu,
        }
    }
}

/// Panics unless a put or get of `len` bytes stays inside both buffers:
/// `[local_off, +len)` in the `local_len`-byte local one and
/// `[remote_off, +len)` in the `remote_len`-byte remote one.
fn check_ranges(local_off: u64, remote_off: u64, len: u32, local_len: u64, remote_len: u64) {
    for (side, off, buf_len) in [
        ("local", local_off, local_len),
        ("remote", remote_off, remote_len),
    ] {
        assert!(
            off.checked_add(len as u64)
                .is_some_and(|end| end <= buf_len),
            "{side} range {off}+{len} passes the end of the {buf_len}-byte buffer"
        );
    }
}

/// What a transport can do — queried by drivers instead of matching on
/// the backend enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportCaps {
    /// Human-readable backend name (stable, used in reports).
    pub name: &'static str,
    /// Largest two-sided message payload in bytes.
    pub max_small_message: usize,
    /// Receive-side buffering for two-sided messages, in messages. Senders
    /// that outrun the receiver by more than this will see drops (EXTOLL
    /// mailbox overflow) or receiver-not-ready errors (Infiniband RNR).
    pub msg_window: usize,
    /// A remote arrival notification requires the receiver to arm a slot
    /// first ([`Transport::arm_arrival`]); EXTOLL completer notifications
    /// need no receiver action — a key API difference of the paper's §IV.
    pub remote_notify_needs_arming: bool,
    /// Queue buffers can be relocated into GPU device memory
    /// ([`QueueLoc::Gpu`]); EXTOLL's are pinned by the driver.
    pub queue_buffers_relocatable: bool,
    /// Default eager/rendezvous crossover of the message layer
    /// (`crate::msg`): payloads up to this many bytes go through the
    /// copied eager path, larger ones through the zero-copy RDMA
    /// rendezvous. Tuned per backend to sit near the measured crossover
    /// of the `crossover` experiment; overridable per messenger.
    pub default_eager_threshold: usize,
}

/// EXTOLL capability descriptor.
pub const EXTOLL_CAPS: TransportCaps = TransportCaps {
    name: "extoll",
    max_small_message: VELO_MAX_PAYLOAD,
    msg_window: 64,
    remote_notify_needs_arming: false,
    queue_buffers_relocatable: false,
    // VELO PIO makes eager fragments cheap; the RTS/CTS round trip plus
    // the RMA put's fixed cost amortize only past ~1 KiB (see the
    // `crossover` experiment).
    default_eager_threshold: 1024,
};

/// Infiniband capability descriptor.
pub const IB_CAPS: TransportCaps = TransportCaps {
    name: "infiniband",
    max_small_message: MSG_SLOT_LEN as usize,
    msg_window: MSG_SLOTS as usize,
    remote_notify_needs_arming: true,
    queue_buffers_relocatable: true,
    // Every eager fragment is a full verbs send (staging store + WQE +
    // CQ wait), so the RDMA rendezvous pays off after only a few
    // fragments (see the `crossover` experiment).
    default_eager_threshold: 256,
};

/// One connected side of a communication channel, independent of the
/// fabric behind it.
///
/// Semantics shared by every implementation:
///
/// * [`put`](Transport::put) returns once *posted*; local completion is
///   retrieved with [`quiet`](Transport::quiet) (oldest outstanding put),
///   [`flush`](Transport::flush) (all outstanding puts) or
///   [`poll_completions`](Transport::poll_completions) (non-blocking
///   drain). [`get`](Transport::get) blocks until the data arrived. Both
///   panic if the local or the remote range passes its buffer's end.
/// * [`send`](Transport::send) is a two-sided small message; it panics on
///   a payload above [`TransportCaps::max_small_message`], completes
///   locally before returning and orders after the sender's outstanding
///   puts. [`recv`](Transport::recv)/[`try_recv`](Transport::try_recv)
///   retrieve messages in arrival order.
/// * Arrival notifications (`put` with `notify_remote`) are observed with
///   [`wait_arrival`](Transport::wait_arrival)/[`try_arrival`](Transport::try_arrival);
///   if [`TransportCaps::remote_notify_needs_arming`] the receiver must
///   call [`arm_arrival`](Transport::arm_arrival) once per expected
///   notification *before* the peer posts the put.
/// * Implementations that share one completion channel between arrival
///   notifications and two-sided receives (Infiniband) require the
///   application not to interleave the two waits concurrently on one
///   transport — drain one kind before switching to the other.
#[allow(async_fn_in_trait)] // single-threaded simulation: futures need not be Send
pub trait Transport {
    /// The capability descriptor.
    fn caps(&self) -> TransportCaps;

    /// Number of posted puts whose local completion has not been retrieved.
    fn outstanding(&self) -> u64;

    /// Two-sided messages silently dropped on the *receive* side since
    /// this transport was created (EXTOLL mailbox overflow). Fabrics whose
    /// delivery failures surface at the sender instead (Infiniband RNR)
    /// report 0. EXTOLL counts per NIC, so this is an upper bound when
    /// other ports on the same NIC also dropped — callers use it to bound
    /// "messages that can still arrive", where overcounting is safe.
    fn recv_drops(&self) -> u64 {
        0
    }

    /// Initiate a put of `len` bytes from local offset `local_off` to
    /// remote offset `remote_off` of the connected buffer pair.
    ///
    /// With `notify_remote`, the receiver gets an arrival notification it
    /// can wait for with [`Transport::wait_arrival`]. On Infiniband this is
    /// an RDMA write-with-immediate, so the receiver must have armed a slot
    /// with [`Transport::arm_arrival`] first; EXTOLL's completer
    /// notification needs no receiver action (§IV-A of the paper).
    async fn put<P: Processor>(
        &self,
        p: &P,
        local_off: u64,
        remote_off: u64,
        len: u32,
        notify_remote: bool,
    );

    /// Fetch `len` bytes from remote offset `remote_off` into local offset
    /// `local_off`. Blocks until the data has arrived locally.
    async fn get<P: Processor>(
        &self,
        p: &P,
        local_off: u64,
        remote_off: u64,
        len: u32,
    ) -> Result<(), CommError>;

    /// Two-sided small message; completes locally before returning.
    async fn send<P: Processor>(&self, p: &P, payload: &[u8]) -> Result<(), CommError>;

    /// Blocking receive of the next two-sided message.
    async fn recv<P: Processor>(&self, p: &P) -> Result<Vec<u8>, CommError>;

    /// Non-blocking probe for a two-sided message.
    async fn try_recv<P: Processor>(&self, p: &P) -> Option<Result<Vec<u8>, CommError>>;

    /// Pre-post `n` receive buffers for two-sided messages, so a peer may
    /// send before the first [`Transport::recv`] call. No-op on fabrics
    /// whose receive mailboxes need no software posting; Infiniband panics
    /// when the posted receives would pass its inbox capacity
    /// ([`TransportCaps::msg_window`]).
    async fn prime_recv<P: Processor>(&self, p: &P, n: usize);

    /// Wait for local completion of the oldest outstanding put.
    async fn quiet<P: Processor>(&self, p: &P) -> Result<(), CommError>;

    /// Wait for local completion of *all* outstanding puts.
    async fn flush<P: Processor>(&self, p: &P) -> Result<(), CommError> {
        while self.outstanding() > 0 {
            self.quiet(p).await?;
        }
        Ok(())
    }

    /// Drain already-available local put completions without blocking;
    /// returns how many were retired.
    async fn poll_completions<P: Processor>(&self, p: &P) -> u64;

    /// Arm one arrival slot (required before the peer's notifying put when
    /// [`TransportCaps::remote_notify_needs_arming`]).
    async fn arm_arrival<P: Processor>(&self, p: &P);

    /// Wait for one arrival notification; returns the notified byte count.
    async fn wait_arrival<P: Processor>(&self, p: &P) -> Result<u32, CommError> {
        let mut steps = Vec::new();
        let ready = self.arrival_probe(&mut steps);
        let got = p.spin_until(&steps, ready).await;
        self.take_arrival(p, &got.bytes).await
    }

    /// Probe for an arrival without blocking.
    async fn try_arrival<P: Processor>(&self, p: &P) -> Option<Result<u32, CommError>> {
        let mut steps = Vec::new();
        let ready = self.arrival_probe(&mut steps);
        let mut bytes = vec![0; probe_bytes(&steps)];
        if !probe_once(p, &steps, &mut bytes, ready).await {
            return None;
        }
        Some(self.take_arrival(p, &bytes).await)
    }

    /// The probe of [`Transport::try_arrival`] and
    /// [`Transport::wait_arrival`], also for a loop that puts several
    /// probes into one idle pass (`flag::Proxy`): pushes its steps onto
    /// `steps` and returns the test its retire applies to the probe's
    /// bytes.
    fn arrival_probe<'a>(&'a self, steps: &mut Vec<Step<'a>>) -> fn(&[u8]) -> bool;

    /// Take the arrival an arrival probe found in `bytes`.
    async fn take_arrival<P: Processor>(&self, p: &P, bytes: &[u8]) -> Result<u32, CommError>;

    /// The probe of [`Transport::try_recv`], as
    /// [`Transport::arrival_probe`]; `None` when a receive must do work
    /// before it probes (an Infiniband queue pair with no receive posted).
    fn recv_probe<'a>(&'a self, steps: &mut Vec<Step<'a>>) -> Option<fn(&[u8]) -> bool>;

    /// Take the message a receive probe found in `bytes`.
    async fn take_recv<P: Processor>(&self, p: &P, bytes: &[u8]) -> Result<Vec<u8>, CommError>;

    /// The next two-sided message for a server loop that idles `idle`
    /// after every empty probe: `None` after an empty probe once `exit` is
    /// set. An idle pass (the receive probe, the test of `exit`, the
    /// delay) runs through [`Processor::spin_until`], so an idle server
    /// parks; a receive that must do work before it probes runs plain.
    async fn idle_recv<P: Processor>(
        &self,
        p: &P,
        exit: &Flag,
        idle: Time,
    ) -> Option<Result<Vec<u8>, CommError>> {
        loop {
            let mut pass = Vec::new();
            if let Some(ready) = self.recv_probe(&mut pass) {
                pass.extend([Step::Exit(exit), Step::Idle(idle)]);
                let got = p.spin_until(&pass, ready).await;
                return match got.exited {
                    true => None,
                    false => Some(self.take_recv(p, &got.bytes).await),
                };
            }
            match self.try_recv(p).await {
                None if !exit.is_set() => p.sim().delay(idle).await,
                got => return got,
            }
        }
    }
}

/// [`Transport`] over an EXTOLL RMA port (one-sided) plus a VELO port
/// (two-sided small messages).
pub struct ExtollTransport {
    port: Rc<RmaPort>,
    peer_port: u16,
    local_nla: u64,
    remote_nla: u64,
    /// Length of both symmetric buffers.
    buf_len: u64,
    velo: VeloPort,
    velo_peer: u16,
    outstanding: Cell<u64>,
    /// This NIC's mailbox-overflow counter and its value at creation.
    velo_drops: tc_trace::Counter,
    velo_drops_base: u64,
}

impl ExtollTransport {
    /// The RMA port handle — for experiments that need backend internals.
    pub fn rma_port(&self) -> &Rc<RmaPort> {
        &self.port
    }
}

impl Transport for ExtollTransport {
    fn caps(&self) -> TransportCaps {
        EXTOLL_CAPS
    }

    fn outstanding(&self) -> u64 {
        self.outstanding.get()
    }

    fn recv_drops(&self) -> u64 {
        self.velo_drops.get().saturating_sub(self.velo_drops_base)
    }

    async fn put<P: Processor>(
        &self,
        p: &P,
        local_off: u64,
        remote_off: u64,
        len: u32,
        notify_remote: bool,
    ) {
        check_ranges(local_off, remote_off, len, self.buf_len, self.buf_len);
        self.port
            .post_put(
                p,
                self.peer_port,
                self.local_nla + local_off,
                self.remote_nla + remote_off,
                len,
                WrFlags {
                    notify_requester: true,
                    notify_completer: notify_remote,
                    notify_responder: false,
                },
            )
            .await;
        self.outstanding.set(self.outstanding.get() + 1);
    }

    async fn get<P: Processor>(
        &self,
        p: &P,
        local_off: u64,
        remote_off: u64,
        len: u32,
    ) -> Result<(), CommError> {
        check_ranges(local_off, remote_off, len, self.buf_len, self.buf_len);
        self.port
            .post_get(
                p,
                self.peer_port,
                self.local_nla + local_off,
                self.remote_nla + remote_off,
                len,
                WrFlags {
                    notify_requester: false,
                    notify_completer: true,
                    notify_responder: false,
                },
            )
            .await;
        let n = self.port.completer.wait(p).await;
        debug_assert_eq!(n.unit, NotifyUnit::Completer);
        self.port.completer.free(p).await;
        Ok(())
    }

    async fn send<P: Processor>(&self, p: &P, payload: &[u8]) -> Result<(), CommError> {
        assert!(payload.len() <= VELO_MAX_PAYLOAD, "payload exceeds caps");
        // VELO is PIO: the message leaves with the write-combined store
        // burst, there is no local completion to reap.
        self.velo.send(p, self.velo_peer, payload).await;
        Ok(())
    }

    async fn recv<P: Processor>(&self, p: &P) -> Result<Vec<u8>, CommError> {
        let (_src, data) = self.velo.recv(p).await;
        Ok(data)
    }

    async fn try_recv<P: Processor>(&self, p: &P) -> Option<Result<Vec<u8>, CommError>> {
        let (_src, data) = self.velo.try_recv(p).await?;
        Some(Ok(data))
    }

    async fn prime_recv<P: Processor>(&self, _p: &P, _n: usize) {
        // The mailbox ring is hardware-managed; nothing to post.
    }

    async fn quiet<P: Processor>(&self, p: &P) -> Result<(), CommError> {
        let n = self.port.requester.wait(p).await;
        debug_assert_eq!(n.unit, NotifyUnit::Requester);
        self.port.requester.free(p).await;
        self.outstanding
            .set(self.outstanding.get().saturating_sub(1));
        Ok(())
    }

    async fn poll_completions<P: Processor>(&self, p: &P) -> u64 {
        let mut drained = 0;
        while self.port.requester.try_poll(p).await.is_some() {
            self.port.requester.free(p).await;
            self.outstanding
                .set(self.outstanding.get().saturating_sub(1));
            drained += 1;
        }
        drained
    }

    async fn arm_arrival<P: Processor>(&self, _p: &P) {
        // Completer notifications need no receiver action.
    }

    fn arrival_probe<'a>(&'a self, steps: &mut Vec<Step<'a>>) -> fn(&[u8]) -> bool {
        steps.extend(self.port.completer.probe());
        NotifConsumer::ready
    }

    async fn take_arrival<P: Processor>(&self, p: &P, bytes: &[u8]) -> Result<u32, CommError> {
        let n = NotifConsumer::record(bytes).expect("the accepted probe holds a record");
        debug_assert_eq!(n.unit, NotifyUnit::Completer);
        self.port.completer.free(p).await;
        Ok(n.len)
    }

    fn recv_probe<'a>(&'a self, steps: &mut Vec<Step<'a>>) -> Option<fn(&[u8]) -> bool> {
        steps.extend(self.velo.mailbox.probe());
        Some(MailboxConsumer::ready)
    }

    async fn take_recv<P: Processor>(&self, p: &P, bytes: &[u8]) -> Result<Vec<u8>, CommError> {
        let (_node, _port, data) = self.velo.mailbox.take(p, bytes).await;
        Ok(data)
    }
}

/// Two-sided message slots per [`IbTransport`] (send staging + receive
/// inbox, one cache-line-sized slot per message, mirroring the VELO
/// payload limit so workloads see the same message-size envelope on both
/// fabrics).
pub const MSG_SLOTS: u64 = 32;
/// Bytes per two-sided message slot.
pub const MSG_SLOT_LEN: u64 = VELO_MAX_PAYLOAD as u64;

/// [`Transport`] over an Infiniband queue pair.
pub struct IbTransport {
    qp: Rc<IbvQp>,
    send_cq: Rc<IbvCq>,
    recv_cq: Rc<IbvCq>,
    mr_local: MemoryRegion,
    mr_remote: MemoryRegion,
    /// One registered region holding `MSG_SLOTS` send staging slots
    /// followed by `MSG_SLOTS` receive inbox slots.
    msg_mr: MemoryRegion,
    tx_head: Cell<u64>,
    rx_head: Cell<u64>,
    rx_tail: Cell<u64>,
    rx_posted: Cell<u64>,
    outstanding: Cell<u64>,
}

impl IbTransport {
    fn rx_slot(&self, index: u64) -> Addr {
        self.msg_mr.addr + (MSG_SLOTS + (index % MSG_SLOTS)) * MSG_SLOT_LEN
    }

    fn tx_slot(&self, index: u64) -> Addr {
        self.msg_mr.addr + (index % MSG_SLOTS) * MSG_SLOT_LEN
    }

    async fn post_one_rx<P: Processor>(&self, p: &P) {
        assert!(
            self.rx_posted.get() < MSG_SLOTS,
            "receive window exceeds inbox capacity"
        );
        let slot = self.rx_slot(self.rx_tail.get());
        self.qp
            .post_recv(p, slot, self.msg_mr.lkey, MSG_SLOT_LEN as u32)
            .await;
        self.rx_tail.set(self.rx_tail.get() + 1);
        self.rx_posted.set(self.rx_posted.get() + 1);
    }

    /// Consume the oldest posted receive after its completion was reaped:
    /// read the payload out of the inbox slot and repost the slot.
    async fn consume_rx<P: Processor>(
        &self,
        p: &P,
        status: CqeStatus,
        byte_count: u32,
    ) -> Result<Vec<u8>, CommError> {
        let slot = self.rx_slot(self.rx_head.get());
        self.rx_head.set(self.rx_head.get() + 1);
        self.rx_posted.set(self.rx_posted.get().saturating_sub(1));
        status_to_result(status)?;
        let mut data = vec![0u8; byte_count as usize];
        if !data.is_empty() {
            p.ld_bytes(slot, &mut data).await;
        }
        // Keep the receive window at its previous depth.
        self.post_one_rx(p).await;
        Ok(data)
    }
}

impl Transport for IbTransport {
    fn caps(&self) -> TransportCaps {
        IB_CAPS
    }

    fn outstanding(&self) -> u64 {
        self.outstanding.get()
    }

    async fn put<P: Processor>(
        &self,
        p: &P,
        local_off: u64,
        remote_off: u64,
        len: u32,
        notify_remote: bool,
    ) {
        let (local_len, remote_len) = (self.mr_local.len, self.mr_remote.len);
        check_ranges(local_off, remote_off, len, local_len, remote_len);
        self.qp
            .post_send(
                p,
                &SendWr {
                    opcode: if notify_remote {
                        SendOpcode::RdmaWriteImm
                    } else {
                        SendOpcode::RdmaWrite
                    },
                    laddr: self.mr_local.addr + local_off,
                    lkey: self.mr_local.lkey,
                    raddr: self.mr_remote.addr + remote_off,
                    rkey: self.mr_remote.rkey,
                    len,
                    imm: len,
                    signaled: true,
                },
            )
            .await;
        self.outstanding.set(self.outstanding.get() + 1);
    }

    async fn get<P: Processor>(
        &self,
        p: &P,
        local_off: u64,
        remote_off: u64,
        len: u32,
    ) -> Result<(), CommError> {
        let (local_len, remote_len) = (self.mr_local.len, self.mr_remote.len);
        check_ranges(local_off, remote_off, len, local_len, remote_len);
        self.qp
            .post_send(
                p,
                &SendWr {
                    opcode: SendOpcode::RdmaRead,
                    laddr: self.mr_local.addr + local_off,
                    lkey: self.mr_local.lkey,
                    raddr: self.mr_remote.addr + remote_off,
                    rkey: self.mr_remote.rkey,
                    len,
                    imm: 0,
                    signaled: true,
                },
            )
            .await;
        let wc = self.send_cq.wait(p).await;
        status_to_result(wc.status)
    }

    async fn send<P: Processor>(&self, p: &P, payload: &[u8]) -> Result<(), CommError> {
        assert!(
            payload.len() <= MSG_SLOT_LEN as usize,
            "payload exceeds caps"
        );
        // The send CQ is shared with one-sided completions; retire those
        // first so the completion reaped below is this send's.
        self.flush(p).await?;
        let slot = self.tx_slot(self.tx_head.get());
        self.tx_head.set(self.tx_head.get() + 1);
        if !payload.is_empty() {
            p.st_bytes(slot, payload).await;
        }
        self.qp
            .post_send(
                p,
                &SendWr {
                    opcode: SendOpcode::Send,
                    laddr: slot,
                    lkey: self.msg_mr.lkey,
                    raddr: 0,
                    rkey: 0,
                    len: payload.len() as u32,
                    imm: 0,
                    signaled: true,
                },
            )
            .await;
        let wc = self.send_cq.wait(p).await;
        status_to_result(wc.status)
    }

    async fn recv<P: Processor>(&self, p: &P) -> Result<Vec<u8>, CommError> {
        if self.rx_posted.get() == 0 {
            self.post_one_rx(p).await;
        }
        let wc = self.recv_cq.wait(p).await;
        self.consume_rx(p, wc.status, wc.byte_count).await
    }

    async fn try_recv<P: Processor>(&self, p: &P) -> Option<Result<Vec<u8>, CommError>> {
        if self.rx_posted.get() == 0 {
            self.post_one_rx(p).await;
        }
        let wc = self.recv_cq.poll(p).await?;
        Some(self.consume_rx(p, wc.status, wc.byte_count).await)
    }

    async fn prime_recv<P: Processor>(&self, p: &P, n: usize) {
        while self.rx_posted.get() < (n as u64).min(MSG_SLOTS) {
            self.post_one_rx(p).await;
        }
    }

    async fn quiet<P: Processor>(&self, p: &P) -> Result<(), CommError> {
        let wc = self.send_cq.wait(p).await;
        debug_assert_eq!(wc.opcode, tc_ib::CqeOpcode::SendComplete);
        self.outstanding
            .set(self.outstanding.get().saturating_sub(1));
        status_to_result(wc.status)
    }

    async fn poll_completions<P: Processor>(&self, p: &P) -> u64 {
        let mut drained = 0;
        while let Some(wc) = self.send_cq.poll(p).await {
            self.outstanding
                .set(self.outstanding.get().saturating_sub(1));
            drained += 1;
            debug_assert_eq!(wc.opcode, tc_ib::CqeOpcode::SendComplete);
        }
        drained
    }

    async fn arm_arrival<P: Processor>(&self, p: &P) {
        // A write-with-immediate consumes one receive WQE (address
        // ignored); post an inbox slot so arrivals and two-sided receives
        // share one uniform ring.
        self.post_one_rx(p).await;
    }

    fn arrival_probe<'a>(&'a self, steps: &mut Vec<Step<'a>>) -> fn(&[u8]) -> bool {
        steps.extend(self.recv_cq.probe());
        IbvCq::ready
    }

    async fn take_arrival<P: Processor>(&self, p: &P, bytes: &[u8]) -> Result<u32, CommError> {
        // A write-with-immediate's completion consumed the oldest posted
        // receive.
        let wc = self.recv_cq.finish(p, bytes).await;
        self.rx_head.set(self.rx_head.get() + 1);
        self.rx_posted.set(self.rx_posted.get().saturating_sub(1));
        status_to_result(wc.status).map(|()| wc.imm)
    }

    fn recv_probe<'a>(&'a self, steps: &mut Vec<Step<'a>>) -> Option<fn(&[u8]) -> bool> {
        (self.rx_posted.get() > 0).then(|| {
            steps.extend(self.recv_cq.probe());
            IbvCq::ready as fn(&[u8]) -> bool
        })
    }

    async fn take_recv<P: Processor>(&self, p: &P, bytes: &[u8]) -> Result<Vec<u8>, CommError> {
        let wc = self.recv_cq.finish(p, bytes).await;
        self.consume_rx(p, wc.status, wc.byte_count).await
    }
}

/// A [`Transport`] of either backend. The trait's generic async methods
/// make it non-object-safe, so dynamic backend selection goes through this
/// enum — the *only* place outside [`Backend::instantiate`] that matches
/// on the backend.
pub enum AnyTransport {
    /// EXTOLL RMA + VELO.
    Extoll(ExtollTransport),
    /// Infiniband verbs.
    Ib(IbTransport),
}

impl AnyTransport {
    /// The EXTOLL transport (panics on Infiniband) — for backend-specific
    /// experiments.
    pub fn extoll(&self) -> &ExtollTransport {
        match self {
            AnyTransport::Extoll(t) => t,
            _ => panic!("not an EXTOLL transport"),
        }
    }
}

macro_rules! delegate {
    ($self:ident, $t:ident => $body:expr) => {
        match $self {
            AnyTransport::Extoll($t) => $body,
            AnyTransport::Ib($t) => $body,
        }
    };
}

impl Transport for AnyTransport {
    fn caps(&self) -> TransportCaps {
        delegate!(self, t => t.caps())
    }

    fn outstanding(&self) -> u64 {
        delegate!(self, t => t.outstanding())
    }

    fn recv_drops(&self) -> u64 {
        delegate!(self, t => t.recv_drops())
    }

    async fn put<P: Processor>(
        &self,
        p: &P,
        local_off: u64,
        remote_off: u64,
        len: u32,
        notify_remote: bool,
    ) {
        delegate!(self, t => t.put(p, local_off, remote_off, len, notify_remote).await)
    }

    async fn get<P: Processor>(
        &self,
        p: &P,
        local_off: u64,
        remote_off: u64,
        len: u32,
    ) -> Result<(), CommError> {
        delegate!(self, t => t.get(p, local_off, remote_off, len).await)
    }

    async fn send<P: Processor>(&self, p: &P, payload: &[u8]) -> Result<(), CommError> {
        delegate!(self, t => t.send(p, payload).await)
    }

    async fn recv<P: Processor>(&self, p: &P) -> Result<Vec<u8>, CommError> {
        delegate!(self, t => t.recv(p).await)
    }

    async fn try_recv<P: Processor>(&self, p: &P) -> Option<Result<Vec<u8>, CommError>> {
        delegate!(self, t => t.try_recv(p).await)
    }

    async fn prime_recv<P: Processor>(&self, p: &P, n: usize) {
        delegate!(self, t => t.prime_recv(p, n).await)
    }

    async fn quiet<P: Processor>(&self, p: &P) -> Result<(), CommError> {
        delegate!(self, t => t.quiet(p).await)
    }

    async fn flush<P: Processor>(&self, p: &P) -> Result<(), CommError> {
        delegate!(self, t => t.flush(p).await)
    }

    async fn poll_completions<P: Processor>(&self, p: &P) -> u64 {
        delegate!(self, t => t.poll_completions(p).await)
    }

    async fn arm_arrival<P: Processor>(&self, p: &P) {
        delegate!(self, t => t.arm_arrival(p).await)
    }

    fn arrival_probe<'a>(&'a self, steps: &mut Vec<Step<'a>>) -> fn(&[u8]) -> bool {
        delegate!(self, t => t.arrival_probe(steps))
    }

    async fn take_arrival<P: Processor>(&self, p: &P, bytes: &[u8]) -> Result<u32, CommError> {
        delegate!(self, t => t.take_arrival(p, bytes).await)
    }

    fn recv_probe<'a>(&'a self, steps: &mut Vec<Step<'a>>) -> Option<fn(&[u8]) -> bool> {
        delegate!(self, t => t.recv_probe(steps))
    }

    async fn take_recv<P: Processor>(&self, p: &P, bytes: &[u8]) -> Result<Vec<u8>, CommError> {
        delegate!(self, t => t.take_recv(p, bytes).await)
    }
}

/// The plain-data description of one endpoint half that its *peer* needs
/// to finish connecting: node identity plus the backend's addressing
/// handles. `Send + Clone` by construction so a sharded build can
/// exchange exports across worker threads (the live [`HalfBuilt`] state
/// never crosses a thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HalfExport {
    /// An EXTOLL half: registered NLA plus RMA/VELO port indices.
    Extoll {
        /// Global node index of this half.
        node: usize,
        /// Network logical address of the registered buffer.
        nla: u64,
        /// RMA port index on that node's NIC.
        rma_port: u16,
        /// VELO port index on that node's NIC.
        velo_port: u16,
    },
    /// An Infiniband half: queue-pair number plus the remote-access MR.
    Ib {
        /// Global node index of this half.
        node: usize,
        /// Queue pair number the peer posts to.
        qpn: u32,
        /// The registered buffer's memory region (rkey for RDMA access).
        mr: MemoryRegion,
    },
}

impl HalfExport {
    /// The global node index this half lives on.
    pub fn node(&self) -> usize {
        match *self {
            HalfExport::Extoll { node, .. } | HalfExport::Ib { node, .. } => node,
        }
    }
}

/// The live local state of one endpoint half between
/// [`Backend::export_half`] and [`Backend::connect_half`]. Opaque; holds
/// `Rc` handles into one shard's simulation, so it is deliberately not
/// `Send`.
pub struct HalfBuilt(HalfImp);

enum HalfImp {
    Extoll {
        port: Rc<RmaPort>,
        nla: u64,
        buf_len: u64,
        velo: VeloPort,
        drops: tc_trace::Counter,
    },
    Ib {
        qp: Rc<IbvQp>,
        send_cq: Rc<IbvCq>,
        recv_cq: Rc<IbvCq>,
        mr_local: MemoryRegion,
        msg_mr: MemoryRegion,
    },
}

impl Backend {
    /// The backend's capability descriptor, without instantiating anything.
    pub fn transport_caps(self) -> TransportCaps {
        match self {
            Backend::Extoll => EXTOLL_CAPS,
            Backend::Infiniband => IB_CAPS,
        }
    }

    /// Instantiate a connected transport pair between `a = (node, buffer)`
    /// and `b = (node, buffer)` over `buf_len`-byte symmetric buffers.
    ///
    /// This is the factory that concentrates all backend-specific wiring:
    /// memory registration, port/QP creation and connection cross-wiring
    /// (all control-path, untimed). `queue_loc` places Infiniband queue
    /// buffers (only meaningful when
    /// [`TransportCaps::queue_buffers_relocatable`]).
    pub fn instantiate(
        self,
        cluster: &Cluster,
        a: (usize, Addr),
        b: (usize, Addr),
        buf_len: u64,
        queue_loc: QueueLoc,
    ) -> (AnyTransport, AnyTransport) {
        let (node_a, buf_a) = a;
        let (node_b, buf_b) = b;
        assert_ne!(node_a, node_b, "endpoints must live on different nodes");
        let (half_a, export_a) = self.export_half(cluster, node_a, buf_a, buf_len, queue_loc);
        let (half_b, export_b) = self.export_half(cluster, node_b, buf_b, buf_len, queue_loc);
        (
            self.connect_half(half_a, &export_b),
            self.connect_half(half_b, &export_a),
        )
    }

    /// Build the local half of an endpoint pair on `node`: every
    /// allocation, registration and queue creation that side needs, in
    /// the same per-node order the serial [`Backend::instantiate`]
    /// performs them. Returns the live local state ([`HalfBuilt`], not
    /// `Send`) plus the plain-data [`HalfExport`] the *peer* half needs,
    /// which a sharded build exchanges across worker threads.
    pub fn export_half(
        self,
        cluster: &Cluster,
        node: usize,
        buf: Addr,
        buf_len: u64,
        queue_loc: QueueLoc,
    ) -> (HalfBuilt, HalfExport) {
        match self {
            Backend::Extoll => {
                let nic = cluster.node(node).extoll();
                let nla = nic.register_memory(buf, buf_len);
                let port = Rc::new(nic.open_port());
                let velo = nic.open_velo_port();
                let export = HalfExport::Extoll {
                    node,
                    nla,
                    rma_port: port.index(),
                    velo_port: velo.index(),
                };
                let drops = nic.stats().velo_drops.clone();
                (
                    HalfBuilt(HalfImp::Extoll {
                        port,
                        nla,
                        buf_len,
                        velo,
                        drops,
                    }),
                    export,
                )
            }
            Backend::Infiniband => {
                let loc: BufLoc = queue_loc.into();
                let n = cluster.node(node);
                let ctx = IbvContext::new(
                    n.ib().clone(),
                    n.host_heap.clone(),
                    Some(n.gpu.clone()),
                    loc,
                );
                let send_cq = ctx.create_cq(loc);
                let recv_cq = ctx.create_cq(loc);
                let qp = Rc::new(ctx.create_qp(send_cq.clone(), recv_cq.clone(), loc));
                let mr_local = ctx.reg_mr(buf, buf_len, Access::full());
                // Two-sided message slots (send staging + receive inbox),
                // allocated last so existing experiments see unchanged
                // heap layouts for their own buffers.
                let msg_len = 2 * MSG_SLOTS * MSG_SLOT_LEN;
                let msg_base = n.host_heap.alloc(msg_len, MSG_SLOT_LEN);
                let msg_mr = ctx.reg_mr(msg_base, msg_len, Access::full());
                let export = HalfExport::Ib {
                    node,
                    qpn: qp.qpn(),
                    mr: mr_local,
                };
                (
                    HalfBuilt(HalfImp::Ib {
                        qp,
                        send_cq,
                        recv_cq,
                        mr_local,
                        msg_mr,
                    }),
                    export,
                )
            }
        }
    }

    /// Connect a built half to its peer's export, yielding the transport.
    /// Pure wiring: only pre-allocated state is set (EXTOLL port peers,
    /// the IB queue-pair Reset→RTS transition) — no allocation,
    /// registration or counter movement — so connecting in a different
    /// global order than the serial build is unobservable.
    pub fn connect_half(self, half: HalfBuilt, peer: &HalfExport) -> AnyTransport {
        match (self, half.0, peer) {
            (
                Backend::Extoll,
                HalfImp::Extoll {
                    port,
                    nla,
                    buf_len,
                    velo,
                    drops,
                },
                &HalfExport::Extoll {
                    node: peer_node,
                    nla: peer_nla,
                    rma_port,
                    velo_port,
                },
            ) => {
                port.connect_node(peer_node as u16);
                velo.set_peer_node(peer_node as u16);
                AnyTransport::Extoll(ExtollTransport {
                    peer_port: rma_port,
                    port,
                    local_nla: nla,
                    remote_nla: peer_nla,
                    buf_len,
                    velo,
                    velo_peer: velo_port,
                    outstanding: Cell::new(0),
                    velo_drops_base: drops.get(),
                    velo_drops: drops,
                })
            }
            (
                Backend::Infiniband,
                HalfImp::Ib {
                    qp,
                    send_cq,
                    recv_cq,
                    mr_local,
                    msg_mr,
                },
                &HalfExport::Ib {
                    node: peer_node,
                    qpn: peer_qpn,
                    mr: peer_mr,
                },
            ) => {
                qp.connect_to(peer_node, peer_qpn);
                AnyTransport::Ib(IbTransport {
                    qp,
                    send_cq,
                    recv_cq,
                    mr_local,
                    mr_remote: peer_mr,
                    msg_mr,
                    tx_head: Cell::new(0),
                    rx_head: Cell::new(0),
                    rx_tail: Cell::new(0),
                    rx_posted: Cell::new(0),
                    outstanding: Cell::new(0),
                })
            }
            _ => panic!("mismatched backend/half/export combination"),
        }
    }
}
