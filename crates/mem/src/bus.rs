//! The fabric bus: routes reads/writes by address to RAM windows, MMIO
//! devices, or alias windows (e.g. the GPUDirect BAR aperture).

use std::cell::{Cell, Ref, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::payload::Payload;
use crate::sparse::SparseMem;
use crate::Addr;

/// What kind of resource an address resolves to. Timing models use this to
/// decide which cost to charge for an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionKind {
    /// Host (CPU) DRAM of `node`.
    HostDram {
        /// Owning node.
        node: usize,
    },
    /// GPU device memory of `node`.
    GpuDram {
        /// Owning node.
        node: usize,
    },
    /// GPUDirect BAR aperture of `node` (aliases that node's GPU DRAM).
    GpuBar {
        /// Owning node.
        node: usize,
    },
    /// Memory-mapped device registers of `node` (NIC BARs, doorbells).
    Mmio {
        /// Owning node.
        node: usize,
    },
}

impl RegionKind {
    /// The node that owns the resource.
    pub fn node(self) -> usize {
        match self {
            RegionKind::HostDram { node }
            | RegionKind::GpuDram { node }
            | RegionKind::GpuBar { node }
            | RegionKind::Mmio { node } => node,
        }
    }
}

/// A device with memory-mapped registers. `offset` is relative to the
/// region base the device was registered at.
///
/// MMIO writes are *posted*: side effects are applied immediately on the
/// data plane, and the device model is expected to hand actual work to a
/// simulation process through a channel.
pub trait MmioDevice {
    /// Handle a write of `data` at `offset`.
    fn mmio_write(&self, offset: u64, data: &[u8]);
    /// Handle a read of `buf.len()` bytes at `offset`.
    fn mmio_read(&self, offset: u64, buf: &mut [u8]);
}

/// One mapped window: `base..end`, what backs it, and how it classifies.
struct Region {
    base: Addr,
    end: Addr,
    kind: RegionKind,
    to: Backing,
}

enum Backing {
    Ram(Rc<SparseMem>),
    Mmio(Rc<dyn MmioDevice>),
    /// Redirects `base..end` to `target..target + (end - base)`.
    Alias(Addr),
}

/// log2 of a routing bucket: every [`crate::layout`] window starts on a
/// 1 TiB boundary, so one bucket holds at most the two devices of a
/// node's EXTOLL BAR.
const BUCKET_SHIFT: u32 = 40;

/// The regions, sorted by base, and the bucket index that routes an
/// address to its region in constant time.
#[derive(Default)]
struct Map {
    regions: Vec<Region>,
    /// Bucket of the lowest mapped byte.
    lo: u64,
    /// `first[b - lo]`: the first region that ends after bucket `b`
    /// starts, for every bucket from the lowest mapped byte's to the
    /// highest's (4 bytes per TiB spanned, 64 per node of the layout). Any
    /// region holding an address of bucket `b` comes at or after it, and
    /// before the first region that starts past the address.
    first: Vec<u32>,
    /// Whether `first` covers every region; an insert clears it and the
    /// next access rebuilds it, so a cluster build indexes once.
    indexed: bool,
}

impl Map {
    /// Rebuild the bucket index: one sweep over the buckets and regions.
    fn reindex(&mut self) {
        self.first.clear();
        self.indexed = true;
        let (Some(lo), Some(hi)) = (self.regions.first(), self.regions.last()) else {
            return;
        };
        self.lo = lo.base >> BUCKET_SHIFT;
        let hi = (hi.end - 1) >> BUCKET_SHIFT;
        let mut i = 0;
        for b in self.lo..=hi {
            let start = b << BUCKET_SHIFT;
            while self.regions[i].end <= start {
                i += 1;
            }
            self.first
                .push(u32::try_from(i).expect("under 2^32 regions"));
        }
    }

    /// The region holding `addr`, if any.
    #[inline]
    fn find(&self, addr: Addr) -> Option<&Region> {
        debug_assert!(self.indexed, "bus index is stale");
        let b = (addr >> BUCKET_SHIFT).checked_sub(self.lo)?;
        let mut i = *self.first.get(b as usize)? as usize;
        loop {
            let r = self.regions.get(i)?;
            if addr < r.end {
                return (r.base <= addr).then_some(r);
            }
            i += 1;
        }
    }

    /// The region holding `addr`; panics if it is unmapped.
    #[inline]
    fn region(&self, addr: Addr) -> &Region {
        self.find(addr)
            .unwrap_or_else(|| panic!("bus access to unmapped address {addr:#x}"))
    }
}

/// Where an access ends up once alias windows are resolved.
enum Target<'a> {
    /// A RAM window, at this (resolved) address.
    Ram(&'a SparseMem, Addr),
    /// An MMIO device, at this offset.
    Mmio(&'a dyn MmioDevice, u64),
}

/// Observer of data-plane RAM traffic, for dependency tracking (e.g. the
/// causal profiler's observed-write edges). Callbacks fire *after* alias
/// resolution, so a store through a BAR window and a poll of the aliased
/// DRAM meet at the same physical address. Watches must only observe —
/// they may not access the bus or schedule simulation work.
pub trait BusWatch {
    /// An 8-byte-aligned word at `addr` was (possibly partially) written.
    fn store(&self, addr: Addr);
    /// A small (≤ 8 byte) read touched the 8-byte-aligned word at `addr`.
    fn load(&self, addr: Addr);
}

/// One range watch: `(id, end, callback)`, filed under its first byte.
type RangeWatch = (u64, Addr, Rc<dyn Fn()>);

/// RAM byte ranges somebody must hear about before a write lands in them
/// (see [`Bus::watch`]).
#[derive(Default)]
struct RangeWatches {
    next: Cell<u64>,
    /// Watches by first byte (resolved RAM address).
    by_start: RefCell<BTreeMap<Addr, Vec<RangeWatch>>>,
    /// Longest watched range: bounds the overlap search.
    max_len: Cell<u64>,
}

impl RangeWatches {
    /// Run the callback of every watch overlapping `len` bytes at `addr`.
    fn fire(&self, addr: Addr, len: u64) {
        let hit: Vec<Rc<dyn Fn()>> = {
            let by_start = self.by_start.borrow();
            if by_start.is_empty() || len == 0 {
                return;
            }
            by_start
                .range(addr.saturating_sub(self.max_len.get())..addr + len)
                .flat_map(|(_, ws)| ws)
                .filter(|w| addr < w.1)
                .map(|w| w.2.clone())
                .collect()
        };
        for f in hit {
            f();
        }
    }
}

/// The fabric bus. Cheap to clone (shared).
///
/// An access finds its region through a bucket index keyed by
/// `addr >> 40` (see [`crate::layout`]'s 1 TiB window rule), not by
/// searching the region list.
#[derive(Clone, Default)]
pub struct Bus {
    map: Rc<RefCell<Map>>,
    /// Shared across clones so a watch installed after wiring is seen by
    /// every holder of the bus. `None` (the default) costs one borrow and
    /// branch per RAM access.
    watch: Rc<RefCell<Option<Rc<dyn BusWatch>>>>,
    /// Byte-range watches of parked spinners.
    ranges: Rc<RangeWatches>,
}

impl Bus {
    /// An empty bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install (or clear) the data-plane watch.
    pub fn set_watch(&self, watch: Option<Rc<dyn BusWatch>>) {
        *self.watch.borrow_mut() = watch;
    }

    /// The region map, its index rebuilt first if an insert left it stale.
    #[inline]
    fn map(&self) -> Ref<'_, Map> {
        let map = self.map.borrow();
        if map.indexed {
            return map;
        }
        drop(map);
        self.map.borrow_mut().reindex();
        self.map.borrow()
    }

    fn insert(&self, base: Addr, len: u64, kind: RegionKind, to: Backing) {
        assert!(len > 0, "zero-length region at {base:#x}");
        let mut map = self.map.borrow_mut();
        let regions = &mut map.regions;
        let pos = regions.partition_point(|r| r.base < base);
        let below = pos.checked_sub(1).map(|i| &regions[i]);
        for other in below.into_iter().chain(regions.get(pos)) {
            let (ob, ol) = (other.base, other.end - other.base);
            assert!(
                base + len <= ob || other.end <= base,
                "region [{base:#x};{len:#x}) overlaps existing [{ob:#x};{ol:#x})"
            );
        }
        regions.insert(
            pos,
            Region {
                base,
                end: base + len,
                kind,
                to,
            },
        );
        map.indexed = false;
    }

    /// Map a RAM window.
    pub fn add_ram(&self, mem: Rc<SparseMem>, kind: RegionKind) {
        self.insert(mem.base(), mem.len(), kind, Backing::Ram(mem));
    }

    /// Map an MMIO device at `base..base+len`.
    pub fn add_mmio(&self, base: Addr, len: u64, dev: Rc<dyn MmioDevice>, kind: RegionKind) {
        self.insert(base, len, kind, Backing::Mmio(dev));
    }

    /// Map an alias window redirecting to `target`.
    pub fn add_alias(&self, base: Addr, len: u64, target: Addr, kind: RegionKind) {
        self.insert(base, len, kind, Backing::Alias(target));
    }

    /// Hand `f` the RAM window (with the address resolved through alias
    /// windows) or MMIO device (with the offset) that `addr` names.
    fn route<R>(&self, addr: Addr, f: impl FnOnce(Target<'_>) -> R) -> R {
        let map = self.map();
        let mut addr = addr;
        loop {
            let r = map.region(addr);
            match &r.to {
                Backing::Ram(mem) => return f(Target::Ram(mem, addr)),
                Backing::Mmio(dev) => return f(Target::Mmio(&**dev, addr - r.base)),
                Backing::Alias(target) => addr = target + (addr - r.base),
            }
        }
    }

    /// Classify an address. Alias windows report their own kind (e.g.
    /// `GpuBar`), not the target's.
    pub fn classify(&self, addr: Addr) -> RegionKind {
        self.map().region(addr).kind
    }

    /// True if the address is mapped.
    pub fn is_mapped(&self, addr: Addr) -> bool {
        self.map().find(addr).is_some()
    }

    /// Resolve `addr` through alias windows to the RAM address it names;
    /// `None` for MMIO, whose reads a watch cannot predict.
    pub fn resolve(&self, addr: Addr) -> Option<Addr> {
        self.route(addr, |t| match t {
            Target::Ram(_, a) => Some(a),
            Target::Mmio(..) => None,
        })
    }

    /// Call `f` just before any write overlapping the `len` bytes at `addr`
    /// (through any alias) lands, until [`Bus::unwatch`]. Returns the
    /// watch's handle. Panics if the range is MMIO.
    pub fn watch(&self, addr: Addr, len: u64, f: Rc<dyn Fn()>) -> u64 {
        let lo = self.resolve(addr).expect("a watched range must be RAM");
        let r = &self.ranges;
        let id = r.next.get();
        r.next.set(id + 1);
        r.max_len.set(r.max_len.get().max(len));
        r.by_start
            .borrow_mut()
            .entry(lo)
            .or_default()
            .push((id, lo + len, f));
        id
    }

    /// Drop watch `id` on the range starting at `addr` (no-op if it is
    /// gone already).
    pub fn unwatch(&self, addr: Addr, id: u64) {
        let Some(lo) = self.resolve(addr) else {
            return;
        };
        let mut by_start = self.ranges.by_start.borrow_mut();
        if let Some(ws) = by_start.get_mut(&lo) {
            ws.retain(|w| w.0 != id);
            if ws.is_empty() {
                by_start.remove(&lo);
            }
        }
    }

    /// Data-plane read. Instantaneous; timing is charged by the caller.
    pub fn read(&self, addr: Addr, buf: &mut [u8]) {
        self.read_as(addr, buf, true);
    }

    /// A read of RAM that the [`BusWatch`] does not see: model
    /// bookkeeping, not a simulated access.
    pub fn peek(&self, addr: Addr, buf: &mut [u8]) {
        self.read_as(addr, buf, false);
    }

    fn read_as(&self, addr: Addr, buf: &mut [u8], observed: bool) {
        self.route(addr, |t| match t {
            Target::Ram(mem, a) => {
                mem.read(a, buf);
                if observed {
                    self.loaded(a, buf.len());
                }
            }
            Target::Mmio(dev, off) => dev.mmio_read(off, buf),
        })
    }

    /// Bulk data-plane read of `len` bytes, observed like [`Bus::read`]:
    /// never-written RAM pages come back as zero runs, not bytes.
    pub fn snapshot(&self, addr: Addr, len: usize) -> Payload {
        self.route(addr, |t| match t {
            Target::Ram(mem, a) => {
                let data = mem.snapshot(a, len);
                self.loaded(a, len);
                data
            }
            Target::Mmio(dev, off) => {
                let mut buf = vec![0; len];
                dev.mmio_read(off, &mut buf);
                buf.into()
            }
        })
    }

    /// Tell the [`BusWatch`] about a RAM read of `len` bytes at `addr`.
    /// Only word-sized reads are dependency-relevant (poll loops); bulk
    /// DMA reads must not consume pending stores.
    fn loaded(&self, addr: Addr, len: usize) {
        if len <= 8 {
            if let Some(w) = &*self.watch.borrow() {
                w.load(addr & !7);
            }
        }
    }

    /// Data-plane write. Instantaneous; timing is charged by the caller.
    pub fn write(&self, addr: Addr, data: &[u8]) {
        self.route(addr, |t| match t {
            Target::Ram(mem, a) => self.land(a, data.len(), || mem.write(a, data)),
            Target::Mmio(dev, off) => dev.mmio_write(off, data),
        })
    }

    /// Bulk data-plane write, watched like [`Bus::write`]: zero runs
    /// drop or zero destination pages instead of materializing them.
    pub fn write_payload(&self, addr: Addr, data: &Payload) {
        self.route(addr, |t| match t {
            Target::Ram(mem, a) => self.land(a, data.len(), || mem.write_payload(a, data)),
            Target::Mmio(dev, off) => dev.mmio_write(off, &data.to_vec()),
        })
    }

    /// Land `len` bytes at RAM address `addr` with `write`: range watches
    /// hear about it first, the [`BusWatch`] after.
    fn land(&self, addr: Addr, len: usize, write: impl FnOnce()) {
        self.ranges.fire(addr, len as u64);
        write();
        if len > 0 {
            if let Some(w) = &*self.watch.borrow() {
                // First and last words: a payload's body is never polled,
                // its edges (tags, markers, notification records) are.
                let first = addr & !7;
                let last = (addr + len as u64 - 1) & !7;
                w.store(first);
                if last != first {
                    w.store(last);
                }
            }
        }
    }

    /// Read a little-endian `u64`.
    pub fn read_u64(&self, addr: Addr) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Write a little-endian `u64`.
    pub fn write_u64(&self, addr: Addr, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Read a little-endian `u32`.
    pub fn read_u32(&self, addr: Addr) -> u32 {
        let mut b = [0u8; 4];
        self.read(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Write a little-endian `u32`.
    pub fn write_u32(&self, addr: Addr, v: u32) {
        self.write(addr, &v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout;
    use std::cell::Cell;

    fn bus_with_ram() -> Bus {
        let bus = Bus::new();
        bus.add_ram(
            Rc::new(SparseMem::new(layout::host_dram(0), 1 << 20)),
            RegionKind::HostDram { node: 0 },
        );
        bus.add_ram(
            Rc::new(SparseMem::new(layout::gpu_dram(0), 1 << 20)),
            RegionKind::GpuDram { node: 0 },
        );
        bus
    }

    #[test]
    fn routes_by_address() {
        let bus = bus_with_ram();
        bus.write_u64(layout::host_dram(0) + 8, 1);
        bus.write_u64(layout::gpu_dram(0) + 8, 2);
        assert_eq!(bus.read_u64(layout::host_dram(0) + 8), 1);
        assert_eq!(bus.read_u64(layout::gpu_dram(0) + 8), 2);
        assert_eq!(
            bus.classify(layout::host_dram(0) + 8),
            RegionKind::HostDram { node: 0 }
        );
        assert_eq!(
            bus.classify(layout::gpu_dram(0) + 8),
            RegionKind::GpuDram { node: 0 }
        );
    }

    #[test]
    fn alias_window_redirects_and_classifies_as_itself() {
        let bus = bus_with_ram();
        bus.add_alias(
            layout::gpu_bar(0),
            1 << 20,
            layout::gpu_dram(0),
            RegionKind::GpuBar { node: 0 },
        );
        // Write via BAR, read via DRAM (and vice versa).
        bus.write_u64(layout::gpu_bar(0) + 0x40, 0xABCD);
        assert_eq!(bus.read_u64(layout::gpu_dram(0) + 0x40), 0xABCD);
        bus.write_u64(layout::gpu_dram(0) + 0x80, 77);
        assert_eq!(bus.read_u64(layout::gpu_bar(0) + 0x80), 77);
        assert_eq!(
            bus.classify(layout::gpu_bar(0) + 0x40),
            RegionKind::GpuBar { node: 0 }
        );
    }

    struct Doorbell {
        hits: Cell<u32>,
        last: Cell<u64>,
    }
    impl MmioDevice for Doorbell {
        fn mmio_write(&self, offset: u64, data: &[u8]) {
            self.hits.set(self.hits.get() + 1);
            let mut b = [0u8; 8];
            b[..data.len().min(8)].copy_from_slice(&data[..data.len().min(8)]);
            self.last.set(u64::from_le_bytes(b) + offset);
        }
        fn mmio_read(&self, _offset: u64, buf: &mut [u8]) {
            buf.fill(0xFF);
        }
    }

    #[test]
    fn mmio_write_reaches_device_with_offset() {
        let bus = bus_with_ram();
        let db = Rc::new(Doorbell {
            hits: Cell::new(0),
            last: Cell::new(0),
        });
        bus.add_mmio(
            layout::ib_uar(0),
            4096,
            db.clone(),
            RegionKind::Mmio { node: 0 },
        );
        bus.write_u64(layout::ib_uar(0) + 0x18, 100);
        assert_eq!(db.hits.get(), 1);
        assert_eq!(db.last.get(), 100 + 0x18);
        let mut b = [0u8; 4];
        bus.read(layout::ib_uar(0), &mut b);
        assert_eq!(b, [0xFF; 4]);
    }

    #[derive(Default)]
    struct RecWatch {
        ops: RefCell<Vec<(char, Addr)>>,
    }
    impl BusWatch for RecWatch {
        fn store(&self, addr: Addr) {
            self.ops.borrow_mut().push(('s', addr));
        }
        fn load(&self, addr: Addr) {
            self.ops.borrow_mut().push(('l', addr));
        }
    }

    #[test]
    fn watch_sees_aligned_stores_and_word_loads_after_aliasing() {
        let bus = bus_with_ram();
        bus.add_alias(
            layout::gpu_bar(0),
            1 << 20,
            layout::gpu_dram(0),
            RegionKind::GpuBar { node: 0 },
        );
        let w = Rc::new(RecWatch::default());
        bus.set_watch(Some(w.clone()));

        let base = layout::host_dram(0);
        // Word write + word read note one aligned address each.
        bus.write_u64(base + 0x10, 1);
        assert_eq!(bus.read_u64(base + 0x10), 1);
        // Bulk write notes first and last words only.
        bus.write(base + 0x100, &[0u8; 64]);
        // Bulk read is not dependency-relevant.
        let mut big = [0u8; 64];
        bus.read(base + 0x100, &mut big);
        // A store through the BAR alias lands on the aliased DRAM word,
        // where a direct poll of the DRAM address observes it.
        bus.write_u64(layout::gpu_bar(0) + 0x40, 2);
        assert_eq!(bus.read_u64(layout::gpu_dram(0) + 0x40), 2);

        assert_eq!(
            *w.ops.borrow(),
            vec![
                ('s', base + 0x10),
                ('l', base + 0x10),
                ('s', base + 0x100),
                ('s', base + 0x138),
                ('s', layout::gpu_dram(0) + 0x40),
                ('l', layout::gpu_dram(0) + 0x40),
            ]
        );

        // Clearing the watch stops observation.
        bus.set_watch(None);
        bus.write_u64(base + 0x10, 3);
        assert_eq!(w.ops.borrow().len(), 6);
    }

    #[test]
    fn range_watch_fires_on_overlapping_writes_through_aliases() {
        let bus = bus_with_ram();
        bus.add_alias(
            layout::gpu_bar(0),
            1 << 20,
            layout::gpu_dram(0),
            RegionKind::GpuBar { node: 0 },
        );
        let hits = Rc::new(Cell::new(0));
        let h = hits.clone();
        let id = bus.watch(
            layout::gpu_dram(0) + 0x40,
            8,
            Rc::new(move || h.set(h.get() + 1)),
        );
        bus.write_u64(layout::gpu_dram(0) + 0x48, 1); // adjacent: no overlap
        bus.write(layout::gpu_bar(0) + 0x3c, &[0u8; 8]); // overlaps via the BAR
        assert_eq!(hits.get(), 1);
        assert_eq!(
            bus.resolve(layout::gpu_bar(0) + 0x40),
            Some(layout::gpu_dram(0) + 0x40)
        );
        bus.unwatch(layout::gpu_dram(0) + 0x40, id);
        bus.write_u64(layout::gpu_dram(0) + 0x40, 2);
        assert_eq!(hits.get(), 1);
    }

    #[test]
    fn payloads_route_and_watch_like_reads_and_writes() {
        let bus = bus_with_ram();
        bus.add_alias(
            layout::gpu_bar(0),
            1 << 20,
            layout::gpu_dram(0),
            RegionKind::GpuBar { node: 0 },
        );
        let db = Rc::new(Doorbell {
            hits: Cell::new(0),
            last: Cell::new(0),
        });
        bus.add_mmio(
            layout::ib_uar(0),
            4096,
            db.clone(),
            RegionKind::Mmio { node: 0 },
        );
        let w = Rc::new(RecWatch::default());
        bus.set_watch(Some(w.clone()));
        let dram = layout::gpu_dram(0);
        // A range watch hears about a landing before the bytes are there.
        let seen = Rc::new(Cell::new(u64::MAX));
        let (b, s) = (bus.clone(), seen.clone());
        bus.watch(
            dram + 0x1ff8,
            8,
            Rc::new(move || {
                let mut v = [0u8; 8];
                b.peek(dram + 0x1ff8, &mut v);
                s.set(u64::from_le_bytes(v));
            }),
        );
        bus.write_u64(dram + 0x1ff8, 5);
        assert_eq!(seen.get(), 0);

        // Through the BAR alias: a word-sized snapshot is an observed load,
        // a bulk one is not; a payload write notes its first and last words.
        let word = bus.snapshot(layout::gpu_bar(0) + 0x1ff8, 8);
        assert_eq!(word.to_vec(), 5u64.to_le_bytes());
        let bulk = bus.snapshot(layout::gpu_bar(0), 3 * 4096);
        assert_eq!(bulk.runs().count(), 3, "zeros, the written page, zeros");
        seen.set(u64::MAX);
        bus.write_payload(layout::gpu_bar(0) + 8, &bulk);
        assert_eq!(seen.get(), 5, "watch fired before the payload landed");
        assert_eq!(bus.read_u64(dram + 0x2000), 5);
        assert_eq!(bus.read_u64(dram + 0x1ff8), 0);
        assert_eq!(
            *w.ops.borrow(),
            vec![
                ('s', dram + 0x1ff8),
                ('l', dram + 0x1ff8),
                ('s', dram + 8),
                ('s', dram + 0x3000),
                ('l', dram + 0x2000),
                ('l', dram + 0x1ff8),
            ]
        );

        // MMIO: the device gets the flat bytes.
        bus.write_payload(layout::ib_uar(0) + 0x18, &bus.snapshot(dram + 0x2000, 8));
        assert_eq!(db.last.get(), 5 + 0x18);
        assert_eq!(bus.snapshot(layout::ib_uar(0), 4).to_vec(), [0xFF; 4]);
    }

    #[test]
    #[should_panic(expected = "unmapped address")]
    fn unmapped_access_panics() {
        let bus = bus_with_ram();
        bus.read_u64(layout::host_dram(3));
    }

    #[test]
    #[should_panic(expected = "zero-length region")]
    fn zero_length_region_rejected() {
        let bus = bus_with_ram();
        bus.add_alias(
            layout::gpu_bar(0),
            0,
            layout::gpu_dram(0),
            RegionKind::GpuBar { node: 0 },
        );
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_regions_rejected() {
        let bus = bus_with_ram();
        bus.add_ram(
            Rc::new(SparseMem::new(layout::host_dram(0) + 0x100, 0x100)),
            RegionKind::HostDram { node: 0 },
        );
    }
}
