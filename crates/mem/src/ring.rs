//! Fixed-entry ring buffers laid out in simulated memory.
//!
//! Both NIC models use rings: InfiniBand work/completion queues and EXTOLL
//! notification queues. [`Ring`] does the address arithmetic; producer and
//! consumer positions are free-running counters (never masked), so fullness
//! is simply `produced - consumed == capacity`.

use crate::Addr;

/// Address layout of a ring of `entries` fixed-size slots at `base`.
#[derive(Debug, Clone, Copy)]
pub struct Ring {
    base: Addr,
    entry_size: u64,
    entries: u64,
}

impl Ring {
    /// A ring of `entries` slots of `entry_size` bytes at `base`.
    pub fn new(base: Addr, entry_size: u64, entries: u64) -> Self {
        assert!(entries > 0 && entry_size > 0);
        Ring {
            base,
            entry_size,
            entries,
        }
    }

    /// Address of the slot for free-running index `idx`.
    #[inline]
    pub fn slot(&self, idx: u64) -> Addr {
        self.base + (idx % self.entries) * self.entry_size
    }

    /// Number of slots.
    pub fn capacity(&self) -> u64 {
        self.entries
    }

    /// Slot size in bytes.
    pub fn entry_size(&self) -> u64 {
        self.entry_size
    }

    /// Base address.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Total footprint in bytes.
    pub fn byte_len(&self) -> u64 {
        self.entries * self.entry_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_addresses_wrap() {
        let r = Ring::new(0x1000, 16, 4);
        assert_eq!(r.slot(0), 0x1000);
        assert_eq!(r.slot(3), 0x1030);
        assert_eq!(r.slot(4), 0x1000);
        assert_eq!(r.slot(7), 0x1030);
        assert_eq!(r.byte_len(), 64);
    }
}
