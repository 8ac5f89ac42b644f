//! Sparse page-backed simulated RAM.

use std::cell::RefCell;

use tc_trace::fx::FxHashMap;

use crate::payload::{Payload, Run};
use crate::Addr;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// A sparse byte store covering `len` bytes starting at fabric address
/// `base`. Pages are materialized on first write; reads of untouched pages
/// yield zeros, like freshly-mapped memory. A [`Payload`] zero run that
/// covers a page whole makes it untouched again.
pub struct SparseMem {
    base: Addr,
    len: u64,
    /// Resident pages by page number, hashed through the Fx hasher.
    pages: RefCell<FxHashMap<u64, Box<[u8; PAGE_SIZE]>>>,
}

impl SparseMem {
    /// A memory window of `len` bytes at `base`.
    pub fn new(base: Addr, len: u64) -> Self {
        SparseMem {
            base,
            len,
            pages: RefCell::new(FxHashMap::default()),
        }
    }

    /// Base fabric address.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Window length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the window is zero-sized.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if `addr..addr+n` lies inside this window.
    pub fn contains(&self, addr: Addr, n: u64) -> bool {
        addr >= self.base && addr.saturating_add(n) <= self.base + self.len
    }

    /// Number of pages actually materialized (for footprint assertions).
    pub fn resident_pages(&self) -> usize {
        self.pages.borrow().len()
    }

    fn check(&self, addr: Addr, n: usize) {
        assert!(
            self.contains(addr, n as u64),
            "access [{:#x}; {}) outside window [{:#x}; {:#x})",
            addr,
            n,
            self.base,
            self.base + self.len
        );
    }

    /// Split the `n` bytes at `addr` into per-page pieces
    /// `(page, offset in page, offset in the access, length)`.
    fn pieces(&self, addr: Addr, n: usize) -> impl Iterator<Item = (u64, usize, usize, usize)> {
        self.check(addr, n);
        let start = addr - self.base;
        let mut done = 0usize;
        std::iter::from_fn(move || {
            if done == n {
                return None;
            }
            let off = start + done as u64;
            let in_page = (off & (PAGE_SIZE as u64 - 1)) as usize;
            let chunk = (PAGE_SIZE - in_page).min(n - done);
            let piece = (off >> PAGE_SHIFT, in_page, done, chunk);
            done += chunk;
            Some(piece)
        })
    }

    /// Copy `buf.len()` bytes at `addr` into `buf`.
    pub fn read(&self, addr: Addr, buf: &mut [u8]) {
        let pages = self.pages.borrow();
        for (page, at, done, n) in self.pieces(addr, buf.len()) {
            let dst = &mut buf[done..done + n];
            match pages.get(&page) {
                Some(p) => dst.copy_from_slice(&p[at..at + n]),
                None => dst.fill(0),
            }
        }
    }

    /// Write `buf` at `addr`.
    pub fn write(&self, addr: Addr, buf: &[u8]) {
        let mut pages = self.pages.borrow_mut();
        for (page, at, done, n) in self.pieces(addr, buf.len()) {
            let p = pages
                .entry(page)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
            p[at..at + n].copy_from_slice(&buf[done..done + n]);
        }
    }

    /// The `len` bytes at `addr` as a [`Payload`]: resident pages are
    /// copied, never-written ones become zero runs.
    pub fn snapshot(&self, addr: Addr, len: usize) -> Payload {
        let pages = self.pages.borrow();
        let mut out = Payload::default();
        for (page, at, _, n) in self.pieces(addr, len) {
            match pages.get(&page) {
                Some(p) => out.push_bytes(&p[at..at + n]),
                None => out.push_zeros(n),
            }
        }
        out
    }

    /// Write `data` at `addr`. A zero run drops the pages it covers whole
    /// and zeroes only the resident bytes of the pages it covers in part,
    /// so never-written source pages stay non-resident here too.
    pub fn write_payload(&self, addr: Addr, data: &Payload) {
        self.check(addr, data.len());
        let mut at = addr;
        for run in data.runs() {
            let n = match run {
                Run::Bytes(b) => {
                    self.write(at, b);
                    b.len()
                }
                Run::Zeros(z) => {
                    let mut pages = self.pages.borrow_mut();
                    for (page, off, _, n) in self.pieces(at, z) {
                        if n == PAGE_SIZE {
                            pages.remove(&page);
                        } else if let Some(p) = pages.get_mut(&page) {
                            p[off..off + n].fill(0);
                        }
                    }
                    z
                }
            };
            at += n as u64;
        }
    }

    /// Read a little-endian `u64` at `addr`.
    pub fn read_u64(&self, addr: Addr) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Write a little-endian `u64` at `addr`.
    pub fn write_u64(&self, addr: Addr, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Read a little-endian `u32` at `addr`.
    pub fn read_u32(&self, addr: Addr) -> u32 {
        let mut b = [0u8; 4];
        self.read(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Write a little-endian `u32` at `addr`.
    pub fn write_u32(&self, addr: Addr, v: u32) {
        self.write(addr, &v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = SparseMem::new(0x1000, 0x10000);
        let mut b = [0xAAu8; 16];
        m.read(0x1800, &mut b);
        assert_eq!(b, [0u8; 16]);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn round_trip_within_page() {
        let m = SparseMem::new(0, 1 << 20);
        m.write(0x10, b"hello world");
        let mut b = [0u8; 11];
        m.read(0x10, &mut b);
        assert_eq!(&b, b"hello world");
    }

    #[test]
    fn round_trip_across_page_boundary() {
        let m = SparseMem::new(0, 1 << 20);
        let data: Vec<u8> = (0..=255).collect();
        let addr = 4096 - 100;
        m.write(addr, &data);
        let mut b = vec![0u8; 256];
        m.read(addr, &mut b);
        assert_eq!(b, data);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn u64_helpers_little_endian() {
        let m = SparseMem::new(0, 4096);
        m.write_u64(8, 0x1122_3344_5566_7788);
        let mut b = [0u8; 8];
        m.read(8, &mut b);
        assert_eq!(b, [0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11]);
        assert_eq!(m.read_u64(8), 0x1122_3344_5566_7788);
        m.write_u32(16, 0xDEAD_BEEF);
        assert_eq!(m.read_u32(16), 0xDEAD_BEEF);
    }

    #[test]
    fn sparse_footprint_stays_small() {
        // Touch 3 pages of a 64 GiB window; only 3 pages materialize.
        let m = SparseMem::new(0, 64 << 30);
        m.write_u64(0, 1);
        m.write_u64(32 << 30, 2);
        m.write_u64((64 << 30) - 8, 3);
        assert_eq!(m.resident_pages(), 3);
        assert_eq!(m.read_u64(32 << 30), 2);
    }

    #[test]
    fn zero_runs_drop_whole_pages_and_zero_partial_ones() {
        let src = SparseMem::new(0, 4 * PAGE_SIZE as u64);
        src.write(PAGE_SIZE as u64 + 5, b"mark");
        // Page 0 and pages 2-3 were never written: the snapshot keeps them
        // as zero runs around the one resident page's bytes.
        let p = src.snapshot(100, 4 * PAGE_SIZE - 200);
        assert_eq!(p.runs().count(), 3);
        assert_eq!(src.resident_pages(), 1);

        let dst = SparseMem::new(0, 4 * PAGE_SIZE as u64);
        dst.write(0, &[0xAA; 4 * PAGE_SIZE]);
        dst.write_payload(100, &p);
        // Page 2 lies wholly inside a zero run: dropped. Pages 0 and 3 are
        // covered in part: only the covered bytes are zeroed.
        assert_eq!(dst.resident_pages(), 3);
        let mut all = vec![0u8; 4 * PAGE_SIZE];
        dst.read(0, &mut all);
        let mut want = vec![0xAAu8; 4 * PAGE_SIZE];
        want[100..4 * PAGE_SIZE - 100].fill(0);
        want[PAGE_SIZE + 5..PAGE_SIZE + 9].copy_from_slice(b"mark");
        assert_eq!(all, want);
    }

    #[test]
    #[should_panic(expected = "outside window")]
    fn out_of_range_payload_write_panics() {
        let m = SparseMem::new(0, 2 * PAGE_SIZE as u64);
        let mut p = Payload::default();
        p.push_bytes(&[1; 8]);
        p.push_zeros(2 * PAGE_SIZE);
        m.write_payload(0, &p);
    }

    #[test]
    #[should_panic(expected = "outside window")]
    fn out_of_range_panics() {
        let m = SparseMem::new(0x1000, 0x100);
        m.write_u64(0x1100 - 4, 0); // straddles the end
    }
}
