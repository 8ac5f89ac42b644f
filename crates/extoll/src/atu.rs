//! The Address Translation Unit: translates Network Logical Addresses
//! (NLAs) to fabric addresses.
//!
//! EXTOLL addresses remote memory through a global NLA space; memory must be
//! registered before use. Registering GPU memory hands the ATU an address in
//! the GPUDirect BAR aperture (the paper's driver patch translates the MMIO
//! mapping to something the ATU accepts) — the NIC then reads/writes GPU
//! memory peer-to-peer.

use std::cell::{Cell, RefCell};

use tc_mem::Addr;

/// NLA page size (4 KiB, like the real ATU).
pub const NLA_PAGE: u64 = 4096;

#[derive(Debug, Clone, Copy)]
struct AtuEntry {
    nla: u64,
    len: u64,
    fabric: Addr,
}

/// One NIC's translation table.
#[derive(Default)]
pub struct Atu {
    entries: RefCell<Vec<AtuEntry>>,
    next_nla: Cell<u64>,
}

impl Atu {
    /// An empty table.
    pub fn new() -> Self {
        Atu {
            entries: RefCell::new(Vec::new()),
            next_nla: Cell::new(NLA_PAGE), // NLA 0 stays invalid
        }
    }

    /// Register `[fabric, fabric+len)` and return its NLA base. `fabric`
    /// may be host DRAM or a GPUDirect BAR address (the "driver patch"
    /// path); in both cases the mapping is page-granular.
    pub fn register(&self, fabric: Addr, len: u64) -> u64 {
        assert!(len > 0, "cannot register empty region");
        let pages = (fabric % NLA_PAGE + len).div_ceil(NLA_PAGE);
        let nla = self.next_nla.get();
        self.next_nla.set(nla + pages * NLA_PAGE);
        self.entries
            .borrow_mut()
            .push(AtuEntry { nla, len, fabric });
        nla + fabric % NLA_PAGE
    }

    /// Translate an NLA to a fabric address, checking `[nla, nla+len)` is
    /// covered by one registration. Panics on a fault, as the hardware
    /// would raise a fatal translation error for the experiments we model.
    pub fn translate(&self, nla: u64, len: u64) -> Addr {
        let entries = self.entries.borrow();
        for e in entries.iter() {
            let base = e.nla + e.fabric % NLA_PAGE;
            if nla >= base && nla + len <= base + e.len {
                return e.fabric + (nla - base);
            }
        }
        panic!("ATU fault: nla {nla:#x} len {len} not registered");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_translate_round_trip() {
        let atu = Atu::new();
        let nla = atu.register(0x5000_1000, 8192);
        assert_eq!(atu.translate(nla, 8), 0x5000_1000);
        assert_eq!(atu.translate(nla + 100, 8), 0x5000_1064);
        assert_eq!(atu.translate(nla + 8184, 8), 0x5000_2FF8);
    }

    #[test]
    fn unaligned_registration_keeps_offset() {
        let atu = Atu::new();
        let nla = atu.register(0x1234, 100);
        // Offset within the page is preserved.
        assert_eq!(nla % NLA_PAGE, 0x234);
        assert_eq!(atu.translate(nla, 100), 0x1234);
    }

    #[test]
    fn distinct_registrations_get_distinct_nlas() {
        let atu = Atu::new();
        let a = atu.register(0x10_0000, 4096);
        let b = atu.register(0x20_0000, 4096);
        assert_ne!(a, b);
        assert_eq!(atu.translate(a, 4096), 0x10_0000);
        assert_eq!(atu.translate(b, 4096), 0x20_0000);
    }

    #[test]
    #[should_panic(expected = "ATU fault")]
    fn unregistered_nla_faults() {
        let atu = Atu::new();
        atu.register(0x1000, 4096);
        atu.translate(0, 8);
    }

    #[test]
    #[should_panic(expected = "ATU fault")]
    fn crossing_end_of_registration_faults() {
        let atu = Atu::new();
        let nla = atu.register(0x1000, 4096);
        atu.translate(nla + 4090, 8);
    }
}
