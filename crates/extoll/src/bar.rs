//! The requester BAR: per-port requester pages that work requests are
//! posted to with three 64-bit stores. Writing the last word hands the
//! completed descriptor to the requester unit.

use std::cell::{Cell, RefCell};

use tc_desim::sync::Channel;
use tc_mem::MmioDevice;
use tc_trace::Gauge;

use crate::wr::WorkRequest;

/// Size of one port's requester page on the BAR.
pub const PORT_PAGE: u64 = 4096;

/// The BAR slot of the RMA requester. Each open port owns one page, so
/// parallel posters on different ports never race (the paper opens one port
/// per connection pair in the message-rate experiment for this reason).
pub struct RequesterBar {
    assembly: RefCell<Vec<[Option<u64>; 3]>>,
    wr_out: Channel<(u16, WorkRequest)>,
    posted: Cell<u64>,
    malformed: Cell<u64>,
    /// Depth of the hardware WR FIFO towards the requester unit. The BAR
    /// raises it on enqueue; the requester engine lowers it on dequeue.
    wr_queue: Gauge,
}

impl RequesterBar {
    /// A BAR with `ports` requester pages, emitting descriptors on `wr_out`
    /// and tracking the WR-queue depth in `wr_queue` (a registry handle such
    /// as `extoll0.wr_queue_depth`).
    pub fn new(ports: u16, wr_out: Channel<(u16, WorkRequest)>, wr_queue: Gauge) -> Self {
        RequesterBar {
            assembly: RefCell::new(vec![[None; 3]; ports as usize]),
            wr_out,
            posted: Cell::new(0),
            malformed: Cell::new(0),
            wr_queue,
        }
    }

    /// Work requests successfully posted.
    pub fn posted(&self) -> u64 {
        self.posted.get()
    }

    /// Malformed descriptors discarded.
    pub fn malformed(&self) -> u64 {
        self.malformed.get()
    }
}

impl MmioDevice for RequesterBar {
    fn mmio_write(&self, offset: u64, data: &[u8]) {
        let port = (offset / PORT_PAGE) as usize;
        let word0 = ((offset % PORT_PAGE) / 8) as usize;
        let words = data.len() / 8;
        assert!(
            offset.is_multiple_of(8)
                && data.len().is_multiple_of(8)
                && words >= 1
                && word0 + words <= 3,
            "requester page accepts aligned 64-bit (or write-combined \
             multiple-of-64-bit) stores to words 0..3 (got offset \
             {offset:#x}, len {})",
            data.len()
        );
        let mut asm = self.assembly.borrow_mut();
        let slots = &mut asm[port];
        for w in 0..words {
            let mut b = [0u8; 8];
            b.copy_from_slice(&data[w * 8..w * 8 + 8]);
            slots[word0 + w] = Some(u64::from_le_bytes(b));
        }
        if slots.iter().all(Option::is_some) {
            let words = [slots[0].unwrap(), slots[1].unwrap(), slots[2].unwrap()];
            *slots = [None; 3];
            match WorkRequest::decode(words) {
                Some(wr) => {
                    self.posted.set(self.posted.get() + 1);
                    // Hardware FIFO towards the requester unit (unbounded
                    // here; flow control is the requester-notification
                    // protocol).
                    self.wr_queue.inc();
                    self.wr_out
                        .try_send((port as u16, wr))
                        .unwrap_or_else(|_| unreachable!("wr channel unbounded"));
                }
                None => self.malformed.set(self.malformed.get() + 1),
            }
        }
    }

    fn mmio_read(&self, _offset: u64, buf: &mut [u8]) {
        // The requester BAR is write-only; reads float high.
        buf.fill(0xFF);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wr::{RmaCommand, WrFlags};
    use tc_desim::Sim;

    /// The WR-queue depth gauge of a test BAR.
    fn depth(sim: &Sim) -> Gauge {
        sim.registry().gauge("extoll0.wr_queue_depth")
    }

    fn wr() -> WorkRequest {
        WorkRequest {
            command: RmaCommand::Put,
            flags: WrFlags::default(),
            dst_node: 1,
            dst_port: 3,
            len: 64,
            local_nla: 0x1000,
            remote_nla: 0x2000,
        }
    }

    #[test]
    fn three_stores_complete_a_descriptor() {
        let sim = Sim::new();
        let ch = Channel::new(&sim, 0);
        let bar = RequesterBar::new(4, ch.clone(), depth(&sim));
        let words = wr().encode();
        for (i, w) in words.iter().enumerate() {
            assert!(ch.is_empty());
            bar.mmio_write(i as u64 * 8, &w.to_le_bytes());
        }
        assert_eq!(ch.try_recv(), Some((0, wr())));
        assert_eq!(bar.posted(), 1);
    }

    #[test]
    fn ports_assemble_independently() {
        let sim = Sim::new();
        let ch = Channel::new(&sim, 0);
        let bar = RequesterBar::new(4, ch.clone(), depth(&sim));
        let words = wr().encode();
        // Interleave two ports' stores.
        for i in 0..3u64 {
            bar.mmio_write(PORT_PAGE + i * 8, &words[i as usize].to_le_bytes());
            bar.mmio_write(2 * PORT_PAGE + i * 8, &words[i as usize].to_le_bytes());
        }
        assert_eq!(ch.try_recv(), Some((1, wr())));
        assert_eq!(ch.try_recv(), Some((2, wr())));
    }

    #[test]
    fn descriptor_can_be_reposted() {
        let sim = Sim::new();
        let ch = Channel::new(&sim, 0);
        let bar = RequesterBar::new(1, ch.clone(), depth(&sim));
        for _ in 0..3 {
            for (i, w) in wr().encode().iter().enumerate() {
                bar.mmio_write(i as u64 * 8, &w.to_le_bytes());
            }
        }
        assert_eq!(bar.posted(), 3);
        assert_eq!(ch.len(), 3);
    }

    #[test]
    fn malformed_descriptor_counted_not_forwarded() {
        let sim = Sim::new();
        let ch = Channel::new(&sim, 0);
        let bar = RequesterBar::new(1, ch.clone(), depth(&sim));
        for i in 0..3u64 {
            bar.mmio_write(i * 8, &0u64.to_le_bytes());
        }
        assert_eq!(bar.malformed(), 1);
        assert!(ch.is_empty());
    }

    #[test]
    #[should_panic(expected = "requester page accepts aligned")]
    fn sub_word_store_rejected() {
        let sim = Sim::new();
        let bar = RequesterBar::new(1, Channel::new(&sim, 0), depth(&sim));
        bar.mmio_write(0, &[0u8; 4]);
    }

    #[test]
    fn write_combined_store_posts_in_one_transaction() {
        let sim = Sim::new();
        let ch = Channel::new(&sim, 0);
        let bar = RequesterBar::new(1, ch.clone(), depth(&sim));
        let words = wr().encode();
        let mut bytes = [0u8; 24];
        for (i, w) in words.iter().enumerate() {
            bytes[i * 8..i * 8 + 8].copy_from_slice(&w.to_le_bytes());
        }
        bar.mmio_write(0, &bytes);
        assert_eq!(ch.try_recv(), Some((0, wr())));
        assert_eq!(bar.posted(), 1);
    }
}
