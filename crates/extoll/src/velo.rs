//! The VELO unit: EXTOLL's small-message engine.
//!
//! The paper's evaluation uses the RMA unit only, but the EXTOLL
//! architecture it cites (refs \[9\], \[10\] — "On achieving high message rates")
//! pairs RMA with VELO (Virtualized Engine for Low Overhead): senders PIO
//! the *entire message* — header plus up to 64 payload bytes — into a BAR
//! page with write-combined stores, and the receiving hardware deposits it
//! directly into a mailbox ring in memory. No memory registration, no DMA
//! read on the send path, no work-request indirection: exactly the
//! "footprint as small as possible / minimal PCIe control traffic" design
//! point of the paper's §VI claims, which makes it a natural extension
//! experiment here.

use std::cell::{Cell, RefCell};

use tc_desim::sync::Channel;
use tc_mem::{Addr, MmioDevice, Ring};
use tc_pcie::{le, probe_once, LoadKind, Processor, Step};

/// Maximum VELO payload per message, bytes.
pub const VELO_MAX_PAYLOAD: usize = 64;
/// One VELO BAR page per port.
pub const VELO_PAGE: u64 = 4096;
/// Mailbox slot layout: status word + payload, padded to 128 B.
pub const MAILBOX_SLOT: u64 = 128;

/// A message travelling through the VELO units.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VeloMsg {
    /// Destination node.
    pub dst_node: u16,
    /// Destination mailbox (port index on the receiving node).
    pub dst_port: u16,
    /// Sending node (for replies).
    pub src_node: u16,
    /// Sending port (delivered in the status word).
    pub src_port: u16,
    /// Inline payload.
    pub data: Vec<u8>,
}

/// The VELO send BAR: one page per port. A message is a header quad-word
/// (length, destination) followed by the payload, written with ordinary or
/// write-combined 64-bit stores; the hardware emits the message when the
/// announced payload length has arrived.
pub struct VeloBar {
    /// This NIC's node id (stamped into outgoing messages).
    node: u16,
    ports: RefCell<Vec<VeloAssembly>>,
    out: Channel<VeloMsg>,
    sent: Cell<u64>,
}

#[derive(Default)]
struct VeloAssembly {
    header: Option<(u16, u16, u8)>, // (dst_node, dst_port, len)
    buf: Vec<u8>,
}

impl VeloBar {
    /// A BAR with `ports` send pages emitting messages on `out`.
    pub fn new(node: u16, ports: u16, out: Channel<VeloMsg>) -> Self {
        VeloBar {
            node,
            ports: RefCell::new((0..ports).map(|_| VeloAssembly::default()).collect()),
            out,
            sent: Cell::new(0),
        }
    }

    /// Messages emitted so far.
    pub fn sent(&self) -> u64 {
        self.sent.get()
    }

    /// Encode the header quad-word.
    pub fn header(dst_node: u16, dst_port: u16, len: u8) -> u64 {
        assert!(len as usize <= VELO_MAX_PAYLOAD);
        (len as u64) | ((dst_port as u64) << 16) | ((dst_node as u64) << 32) | (1 << 63)
    }
}

impl MmioDevice for VeloBar {
    fn mmio_write(&self, offset: u64, data: &[u8]) {
        let port = (offset / VELO_PAGE) as usize;
        assert!(
            offset.is_multiple_of(8) && data.len().is_multiple_of(8) && !data.is_empty(),
            "VELO page takes 64-bit (or write-combined) stores"
        );
        let mut ports = self.ports.borrow_mut();
        let asm = &mut ports[port];
        let mut rest = data;
        // First quad-word of a fresh message is the header.
        if asm.header.is_none() {
            let w = u64::from_le_bytes(rest[..8].try_into().unwrap());
            assert!(w >> 63 == 1, "VELO message must start with a header word");
            let len = (w & 0xFF) as u8;
            let dst_port = ((w >> 16) & 0xFFFF) as u16;
            let dst_node = ((w >> 32) & 0xFFFF) as u16;
            asm.header = Some((dst_node, dst_port, len));
            asm.buf.clear();
            rest = &rest[8..];
        }
        asm.buf.extend_from_slice(rest);
        let (dst_node, dst_port, len) = asm.header.unwrap();
        if asm.buf.len() >= len as usize {
            asm.buf.truncate(len as usize);
            let msg = VeloMsg {
                dst_node,
                dst_port,
                src_node: self.node,
                src_port: port as u16,
                data: std::mem::take(&mut asm.buf),
            };
            asm.header = None;
            self.sent.set(self.sent.get() + 1);
            self.out
                .try_send(msg)
                .unwrap_or_else(|_| unreachable!("velo channel unbounded"));
        }
    }

    fn mmio_read(&self, _offset: u64, buf: &mut [u8]) {
        buf.fill(0xFF);
    }
}

/// One port's receive mailbox: a ring of 128-byte slots; slot = status
/// quad-word (valid | src_node | src_port | len) followed by the payload.
#[derive(Debug, Clone, Copy)]
pub struct Mailbox {
    /// The slot ring.
    pub ring: Ring,
    /// Consumer read-pointer word (hardware overflow check).
    pub rp_addr: Addr,
}

impl Mailbox {
    /// Lay out a mailbox of `slots` entries at `base`.
    pub fn at(base: Addr, slots: u64) -> Self {
        let ring = Ring::new(base, MAILBOX_SLOT, slots);
        Mailbox {
            ring,
            rp_addr: base + ring.byte_len(),
        }
    }

    /// Footprint in bytes.
    pub fn byte_len(&self) -> u64 {
        self.ring.byte_len() + 4
    }

    /// Encode a status word.
    pub fn status(src_node: u16, src_port: u16, len: u8) -> u64 {
        (len as u64) | ((src_port as u64) << 16) | ((src_node as u64) << 32) | (1 << 63)
    }

    /// Decode a status word into `(src_node, src_port, len)`; `None` if
    /// the slot is free.
    pub fn decode_status(w: u64) -> Option<(u16, u16, u8)> {
        if w >> 63 == 1 {
            Some((
                ((w >> 32) & 0xFFFF) as u16,
                ((w >> 16) & 0xFFFF) as u16,
                (w & 0xFF) as u8,
            ))
        } else {
            None
        }
    }
}

/// Software consumer of a mailbox (generic over the polling processor).
pub struct MailboxConsumer {
    mailbox: Mailbox,
    rp: Cell<u64>,
}

impl MailboxConsumer {
    /// A consumer starting at slot 0.
    pub fn new(mailbox: Mailbox) -> Self {
        MailboxConsumer {
            mailbox,
            rp: Cell::new(0),
        }
    }

    /// The head probe [`MailboxConsumer::try_recv`] and
    /// [`MailboxConsumer::recv`] share: the status word, then 6
    /// instructions to decode it; [`MailboxConsumer::ready`] is its test.
    pub fn probe(&self) -> [Step<'static>; 3] {
        let slot = self.mailbox.ring.slot(self.rp.get());
        [
            Step::load(slot, LoadKind::U64),
            Step::Instr(6),
            Step::Retire(None),
        ]
    }

    /// Whether a head probe's bytes hold a message.
    pub fn ready(bytes: &[u8]) -> bool {
        Mailbox::decode_status(le(bytes)).is_some()
    }

    /// Probe the mailbox head once. On a message: read the payload, free
    /// the slot, publish the read pointer, and return
    /// `(src_node, src_port, data)`.
    pub async fn try_recv<P: Processor>(&self, p: &P) -> Option<(u16, u16, Vec<u8>)> {
        let mut b = [0; 8];
        if !probe_once(p, &self.probe(), &mut b, Self::ready).await {
            return None;
        }
        Some(self.take(p, &b).await)
    }

    /// Spin on [`MailboxConsumer::try_recv`]'s probe until a message
    /// arrives, then take it.
    pub async fn recv<P: Processor>(&self, p: &P) -> (u16, u16, Vec<u8>) {
        let got = p.spin_until(&self.probe(), Self::ready).await;
        self.take(p, &got.bytes).await
    }

    /// Take the message whose status a head probe loaded into `bytes`:
    /// read the payload, free the slot and publish the read pointer.
    pub async fn take<P: Processor>(&self, p: &P, bytes: &[u8]) -> (u16, u16, Vec<u8>) {
        let slot = self.mailbox.ring.slot(self.rp.get());
        let status = Mailbox::decode_status(le(bytes));
        let (src_node, src_port, len) = status.expect("the accepted probe holds a message");
        let mut data = vec![0u8; len as usize];
        if len > 0 {
            p.ld_bytes(slot + 8, &mut data).await;
        }
        // Free the slot and publish the read pointer.
        p.st_u64(slot, 0).await;
        self.rp.set(self.rp.get() + 1);
        p.st_u32(self.mailbox.rp_addr, self.rp.get() as u32).await;
        p.instr(6).await;
        (src_node, src_port, data)
    }
}

/// Send one VELO message: header + payload PIO'd to the port's send page.
/// The whole message leaves in `ceil((8 + len)/8)` quad-words — with
/// write-combining, typically one or two PCIe transactions.
pub async fn velo_send<P: Processor>(
    p: &P,
    send_page: Addr,
    dst_node: u16,
    dst_port: u16,
    payload: &[u8],
) {
    assert!(payload.len() <= VELO_MAX_PAYLOAD, "VELO payload too large");
    // Marshal header + payload into a quad-word-aligned burst.
    p.instr(5).await;
    let mut burst = Vec::with_capacity(8 + payload.len().next_multiple_of(8));
    burst
        .extend_from_slice(&VeloBar::header(dst_node, dst_port, payload.len() as u8).to_le_bytes());
    burst.extend_from_slice(payload);
    while !burst.len().is_multiple_of(8) {
        burst.push(0);
    }
    // One write-combined store burst.
    p.st_bytes(send_page, &burst).await;
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_desim::Sim;

    #[test]
    fn header_and_status_round_trip() {
        let h = VeloBar::header(2, 17, 64);
        assert_eq!(h >> 63, 1);
        let s = Mailbox::status(3, 31, 8);
        assert_eq!(Mailbox::decode_status(s), Some((3, 31, 8)));
        assert_eq!(Mailbox::decode_status(0), None);
    }

    #[test]
    fn bar_assembles_single_burst_messages() {
        let sim = Sim::new();
        let ch = Channel::new(&sim, 0);
        let bar = VeloBar::new(0, 2, ch.clone());
        let mut burst = Vec::new();
        burst.extend_from_slice(&VeloBar::header(1, 5, 12).to_le_bytes());
        burst.extend_from_slice(b"hello world!");
        burst.extend_from_slice(&[0u8; 4]); // pad to 8
        bar.mmio_write(VELO_PAGE, &burst); // port 1
        let m = ch.try_recv().unwrap();
        assert_eq!(m.dst_node, 1);
        assert_eq!(m.dst_port, 5);
        assert_eq!(m.src_node, 0);
        assert_eq!(m.src_port, 1);
        assert_eq!(m.data, b"hello world!");
        assert_eq!(bar.sent(), 1);
    }

    #[test]
    fn bar_assembles_multi_store_messages() {
        let sim = Sim::new();
        let ch = Channel::new(&sim, 0);
        let bar = VeloBar::new(0, 1, ch.clone());
        bar.mmio_write(0, &VeloBar::header(1, 0, 16).to_le_bytes());
        assert!(ch.is_empty());
        bar.mmio_write(8, &[0xAA; 8]);
        assert!(ch.is_empty());
        bar.mmio_write(16, &[0xBB; 8]);
        let m = ch.try_recv().unwrap();
        assert_eq!(m.data[..8], [0xAA; 8]);
        assert_eq!(m.data[8..], [0xBB; 8]);
    }

    #[test]
    fn zero_length_messages_are_legal() {
        let sim = Sim::new();
        let ch = Channel::new(&sim, 0);
        let bar = VeloBar::new(0, 1, ch.clone());
        bar.mmio_write(0, &VeloBar::header(1, 3, 0).to_le_bytes());
        let m = ch.try_recv().unwrap();
        assert_eq!(m.dst_port, 3);
        assert!(m.data.is_empty());
    }

    #[test]
    #[should_panic(expected = "header word")]
    fn payload_without_header_is_rejected() {
        let sim = Sim::new();
        let bar = VeloBar::new(0, 1, Channel::new(&sim, 0));
        bar.mmio_write(0, &[1u8; 8]); // top bit clear: not a header
    }

    #[test]
    fn mailbox_layout_slots_are_disjoint() {
        let m = Mailbox::at(0x1000, 8);
        assert_eq!(m.ring.slot(0), 0x1000);
        assert_eq!(m.ring.slot(1), 0x1000 + MAILBOX_SLOT);
        assert_eq!(m.rp_addr, 0x1000 + 8 * MAILBOX_SLOT);
    }
}
