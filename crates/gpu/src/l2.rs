//! A line-granular L2 cache model (hit/miss classification only).
//!
//! Global accesses on Kepler bypass the L1, so the L2 is the only on-chip
//! cache that matters for the paper's polling analysis. The model tracks
//! which lines are resident with FIFO replacement — the polling and queue
//! working sets are tiny compared to the 1.5 MiB capacity, so replacement
//! policy details are irrelevant; what matters is hit/miss classification
//! and that peer-to-peer DMA *writes* from the NIC land coherently in the
//! L2 (they do on Kepler — this is exactly why polling device memory is
//! cheap, §V-A.3).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use tc_mem::Addr;
use tc_trace::fx::FxHashSet;

/// One line watch: `(id, first line, last line, callback)`.
type LineWatch = (u64, u64, u64, Rc<dyn Fn()>);

/// L2 residency model.
pub struct L2Model {
    line_bytes: u64,
    capacity_lines: usize,
    state: RefCell<L2State>,
    /// Polled lines of parked spinners.
    watches: RefCell<Vec<LineWatch>>,
    next_watch: Cell<u64>,
}

struct L2State {
    resident: FxHashSet<u64>,
    fifo: VecDeque<u64>,
}

impl L2Model {
    /// An L2 of `capacity_bytes` with `line_bytes` lines.
    pub fn new(capacity_bytes: u64, line_bytes: u64) -> Self {
        assert!(line_bytes.is_power_of_two());
        L2Model {
            line_bytes,
            capacity_lines: (capacity_bytes / line_bytes) as usize,
            state: RefCell::new(L2State {
                resident: FxHashSet::default(),
                fifo: VecDeque::new(),
            }),
            watches: RefCell::new(Vec::new()),
            next_watch: Cell::new(0),
        }
    }

    #[inline]
    fn line(&self, addr: Addr) -> u64 {
        addr / self.line_bytes
    }

    /// Make `line` resident; returns the line it evicted, if any.
    fn insert(&self, line: u64, st: &mut L2State) -> Option<u64> {
        if st.resident.insert(line) {
            st.fifo.push_back(line);
            if st.fifo.len() > self.capacity_lines {
                if let Some(evict) = st.fifo.pop_front() {
                    st.resident.remove(&evict);
                    return Some(evict);
                }
            }
        }
        None
    }

    /// Run the callbacks of the watches covering any of `lines`.
    fn evicted(&self, lines: &[u64]) {
        let hit: Vec<Rc<dyn Fn()>> = self
            .watches
            .borrow()
            .iter()
            .filter(|w| lines.iter().any(|&l| w.1 <= l && l <= w.2))
            .map(|w| w.3.clone())
            .collect();
        for f in hit {
            f();
        }
    }

    /// Call `f` when a line of the `len` bytes at `addr` is evicted, until
    /// [`L2Model::unwatch`]. Returns the watch's handle.
    pub fn watch(&self, addr: Addr, len: u64, f: Rc<dyn Fn()>) -> u64 {
        let id = self.next_watch.get();
        self.next_watch.set(id + 1);
        let (first, last) = (self.line(addr), self.line(addr + len.max(1) - 1));
        self.watches.borrow_mut().push((id, first, last, f));
        id
    }

    /// Drop watch `id` (no-op if it is gone already).
    pub fn unwatch(&self, id: u64) {
        self.watches.borrow_mut().retain(|w| w.0 != id);
    }

    /// Lines the `len` bytes at `addr` span.
    pub fn lines(&self, addr: Addr, len: u64) -> u64 {
        self.line(addr + len.max(1) - 1) - self.line(addr) + 1
    }

    /// Access `len` bytes at `addr` for read; returns `(hit_lines,
    /// miss_lines)`. Missing lines are filled.
    pub fn read(&self, addr: Addr, len: u64) -> (u64, u64) {
        let mut st = self.state.borrow_mut();
        let first = self.line(addr);
        let last = self.line(addr + len.max(1) - 1);
        let (mut hits, mut misses) = (0, 0);
        let mut evicted = Vec::new();
        for line in first..=last {
            if st.resident.contains(&line) {
                hits += 1;
            } else {
                misses += 1;
                evicted.extend(self.insert(line, &mut st));
            }
        }
        drop(st);
        if !evicted.is_empty() {
            self.evicted(&evicted);
        }
        (hits, misses)
    }

    /// Write-allocate `len` bytes at `addr` (stores and inbound P2P DMA).
    pub fn write(&self, addr: Addr, len: u64) {
        let mut st = self.state.borrow_mut();
        let first = self.line(addr);
        let last = self.line(addr + len.max(1) - 1);
        let mut evicted = Vec::new();
        for line in first..=last {
            evicted.extend(self.insert(line, &mut st));
        }
        drop(st);
        if !evicted.is_empty() {
            self.evicted(&evicted);
        }
    }

    /// Whether the line containing `addr` is resident.
    pub fn is_resident(&self, addr: Addr) -> bool {
        self.state.borrow().resident.contains(&self.line(addr))
    }

    /// Number of resident lines.
    pub fn resident_lines(&self) -> usize {
        self.state.borrow().resident.len()
    }

    /// Drop all lines.
    pub fn flush(&self) {
        let mut st = self.state.borrow_mut();
        let lines: Vec<u64> = st.fifo.drain(..).collect();
        st.resident.clear();
        drop(st);
        self.evicted(&lines);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_misses_then_hits() {
        let l2 = L2Model::new(1024, 128);
        assert_eq!(l2.read(0x100, 8), (0, 1));
        assert_eq!(l2.read(0x100, 8), (1, 0));
        assert_eq!(l2.read(0x108, 8), (1, 0)); // same line
        assert_eq!(l2.read(0x180, 8), (0, 1)); // next line
    }

    #[test]
    fn write_allocates_for_future_reads() {
        let l2 = L2Model::new(1024, 128);
        l2.write(0x200, 8);
        assert_eq!(l2.read(0x200, 8), (1, 0));
    }

    #[test]
    fn capacity_eviction_fifo() {
        let l2 = L2Model::new(4 * 128, 128); // 4 lines
        for i in 0..4u64 {
            l2.read(i * 128, 8);
        }
        assert_eq!(l2.resident_lines(), 4);
        l2.read(4 * 128, 8); // evicts line 0
        assert!(!l2.is_resident(0));
        assert!(l2.is_resident(4 * 128));
        assert_eq!(l2.resident_lines(), 4);
    }

    #[test]
    fn multi_line_access_counts_each_line() {
        let l2 = L2Model::new(1 << 20, 128);
        // 512 bytes spanning 5 lines when misaligned.
        assert_eq!(l2.read(64, 512), (0, 5));
        assert_eq!(l2.read(64, 512), (5, 0));
    }

    #[test]
    fn evicting_a_watched_line_calls_back() {
        let l2 = L2Model::new(2 * 128, 128);
        l2.read(0, 8);
        let hits = Rc::new(Cell::new(0));
        let h = hits.clone();
        let id = l2.watch(0, 8, Rc::new(move || h.set(h.get() + 1)));
        l2.read(128, 8); // fills the second line: nothing evicted
        assert_eq!(hits.get(), 0);
        l2.read(256, 8); // evicts line 0
        assert_eq!(hits.get(), 1);
        l2.unwatch(id);
        l2.flush();
        assert_eq!(hits.get(), 1);
        assert_eq!(l2.lines(64, 128), 2);
    }

    #[test]
    fn flush_empties_cache() {
        let l2 = L2Model::new(1024, 128);
        l2.write(0, 1024);
        assert!(l2.resident_lines() > 0);
        l2.flush();
        assert_eq!(l2.resident_lines(), 0);
        assert_eq!(l2.read(0, 8), (0, 1));
    }
}
