//! Randomized property tests of the memory substrate against reference
//! models, generated with the in-tree [`tc_trace::rng::XorShift64`] PRNG
//! (the workspace builds offline, with no proptest dependency). Failure
//! messages include the case seed for exact replay.

use std::rc::Rc;
use tc_mem::{layout, Bus, Heap, RegionKind, Ring, SparseMem};
use tc_trace::rng::XorShift64;

const CASES: u64 = 128;

/// SparseMem behaves exactly like a flat byte array under arbitrary
/// read/write sequences (including page-straddling accesses) and
/// `snapshot` -> `write_payload` copies, whose never-written source pages
/// travel as zero runs: page-aligned and unaligned offsets, whole-page and
/// straddling lengths, zero runs landing on resident bytes. A page model
/// pins which pages stay resident: a destination page that only zero
/// runs cover whole is dropped.
#[test]
fn sparse_mem_matches_reference() {
    const PAGE: usize = 4096;
    const LEN: usize = 16 * PAGE;
    const BASE: u64 = 0x8000;
    let at = |off: usize| BASE + off as u64;
    for seed in 1..=CASES {
        let mut rng = XorShift64::new(seed);
        let mut below = |n: usize| rng.below(n as u64) as usize;
        let m = SparseMem::new(BASE, LEN as u64);
        let mut reference = vec![0u8; LEN];
        let mut resident = [false; LEN / PAGE];
        for _ in 0..1 + below(39) {
            match below(3) {
                0 => {
                    let mut data = vec![0u8; 1 + below(299)];
                    data.iter_mut().for_each(|b| *b = below(256) as u8);
                    let (off, n) = (below(LEN).min(LEN - data.len()), data.len());
                    m.write(at(off), &data);
                    reference[off..off + n].copy_from_slice(&data);
                    resident[off / PAGE..=(off + n - 1) / PAGE].fill(true);
                }
                1 => {
                    let mut buf = vec![0u8; 1 + below(299)];
                    let off = below(LEN).min(LEN - buf.len());
                    m.read(at(off), &mut buf);
                    assert_eq!(
                        &buf[..],
                        &reference[off..off + buf.len()],
                        "read mismatch for seed {seed}"
                    );
                }
                _ => {
                    let n = if below(2) == 0 {
                        PAGE * (1 + below(3))
                    } else {
                        1 + below(3 * PAGE - 1)
                    };
                    let mut offset = || {
                        let off = if below(2) == 0 {
                            below(LEN / PAGE) * PAGE
                        } else {
                            below(LEN)
                        };
                        off.min(LEN - n)
                    };
                    let (src, dst) = (offset(), offset());
                    let p = m.snapshot(at(src), n);
                    assert_eq!(p.len(), n, "payload length for seed {seed}");
                    assert_eq!(
                        p.to_vec(),
                        &reference[src..src + n],
                        "snapshot mismatch for seed {seed}"
                    );
                    m.write_payload(at(dst), &p);

                    // Bytes from resident source pages make their page
                    // resident; a page covered whole by bytes from
                    // never-written source pages is dropped.
                    let from_resident: Vec<bool> =
                        (src..src + n).map(|a| resident[a / PAGE]).collect();
                    let last = (dst + n - 1) / PAGE;
                    for (pg, res) in resident[..=last].iter_mut().enumerate().skip(dst / PAGE) {
                        let (lo, hi) = ((pg * PAGE).max(dst), ((pg + 1) * PAGE).min(dst + n));
                        if from_resident[lo - dst..hi - dst].contains(&true) {
                            *res = true;
                        } else if hi - lo == PAGE {
                            *res = false;
                        }
                    }
                    reference.copy_within(src..src + n, dst);
                }
            }
            assert_eq!(
                m.resident_pages(),
                resident.iter().filter(|&&r| r).count(),
                "resident pages for seed {seed}"
            );
        }
        // Final full compare.
        let mut all = vec![0u8; LEN];
        m.read(BASE, &mut all);
        assert_eq!(all, reference, "final mismatch for seed {seed}");
    }
}

/// Ring slot addresses always stay inside the ring and repeat with the
/// ring period.
#[test]
fn ring_slots_wrap_correctly() {
    for seed in 1..=CASES {
        let mut rng = XorShift64::new(seed);
        let base = rng.below(1 << 30);
        let entry_size = rng.range(1, 256);
        let entries = rng.range(1, 64);
        let idx = rng.next_u64();
        let r = Ring::new(base, entry_size, entries);
        let s = r.slot(idx);
        assert!(
            s >= base && s + entry_size <= base + r.byte_len(),
            "slot out of ring for seed {seed}"
        );
        assert_eq!(
            s,
            r.slot(idx.wrapping_add(entries)),
            "no wrap period for seed {seed}"
        );
        assert_eq!(
            (s - base) % entry_size,
            0,
            "misaligned slot for seed {seed}"
        );
    }
}

/// Bump-allocated ranges never overlap and respect alignment.
#[test]
fn heap_allocations_disjoint_and_aligned() {
    for seed in 1..=CASES {
        let mut rng = XorShift64::new(seed);
        let h = Heap::new(0x1000, 1 << 20);
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        let nreqs = rng.range(1, 30);
        for _ in 0..nreqs {
            let size = rng.range(1, 500);
            let align = 1u64 << rng.below(6);
            let a = h.alloc(size, align);
            assert_eq!(a % align, 0, "misaligned alloc for seed {seed}");
            for &(b, l) in &ranges {
                assert!(
                    a + size <= b || b + l <= a,
                    "overlapping allocs for seed {seed}"
                );
            }
            ranges.push((a, size));
        }
    }
}

/// The bus routes data through an alias window identically to direct
/// access of the target.
#[test]
fn alias_window_is_transparent() {
    for seed in 1..=CASES {
        let mut rng = XorShift64::new(seed);
        let off = rng.below((1 << 16) - 8);
        let v = rng.next_u64();
        let bus = Bus::new();
        bus.add_ram(
            Rc::new(SparseMem::new(layout::gpu_dram(0), 1 << 16)),
            RegionKind::GpuDram { node: 0 },
        );
        bus.add_alias(
            layout::gpu_bar(0),
            1 << 16,
            layout::gpu_dram(0),
            RegionKind::GpuBar { node: 0 },
        );
        bus.write_u64(layout::gpu_bar(0) + off, v);
        assert_eq!(
            bus.read_u64(layout::gpu_dram(0) + off),
            v,
            "alias write not visible for seed {seed}"
        );
        bus.write_u64(layout::gpu_dram(0) + off, v ^ 0xFFFF);
        assert_eq!(
            bus.read_u64(layout::gpu_bar(0) + off),
            v ^ 0xFFFF,
            "direct write not visible through alias for seed {seed}"
        );
    }
}

/// One region of the linear-scan reference bus.
struct RefRegion {
    base: u64,
    end: u64,
    kind: RegionKind,
    to: RefTo,
}

enum RefTo {
    Ram(Rc<SparseMem>),
    Mmio(Rc<Dev>),
    Alias(u64),
}

/// An MMIO device that logs its writes and reads back a pattern of its id
/// and the offset.
struct Dev {
    id: u8,
    writes: std::cell::RefCell<Vec<(u64, Vec<u8>)>>,
}

impl tc_mem::MmioDevice for Dev {
    fn mmio_write(&self, offset: u64, data: &[u8]) {
        self.writes.borrow_mut().push((offset, data.to_vec()));
    }
    fn mmio_read(&self, offset: u64, buf: &mut [u8]) {
        for (i, b) in buf.iter_mut().enumerate() {
            *b = self.id ^ (offset as u8).wrapping_add(i as u8);
        }
    }
}

/// The reference: the region holding `addr`, by scanning every region.
fn scan(regions: &[RefRegion], addr: u64) -> Option<&RefRegion> {
    regions.iter().find(|r| r.base <= addr && addr < r.end)
}

/// A seeded map of RAM, MMIO and alias regions in the first 32 TiB:
/// regions spanning several 1 TiB buckets, several regions in one
/// bucket, adjacent regions and gaps of every size.
fn random_map(rng: &mut XorShift64) -> Vec<RefRegion> {
    const TIB: u64 = 1 << 40;
    let mut regions: Vec<RefRegion> = Vec::new();
    let mut cursor = rng.below(3) * TIB + rng.below(2) * rng.below(1 << 20);
    for k in 0..2 + rng.below(10) {
        cursor += match rng.below(4) {
            0 => 0,
            1 => rng.range(1, 1 << 20),
            2 => (TIB - cursor % TIB) % TIB,
            _ => rng.below(2) * TIB + rng.range(1, 1 << 30),
        };
        let mut len = match rng.below(4) {
            0 => rng.range(1, 1 << 16),
            1 => rng.range(1, 1 << 32),
            2 => rng.range(1, 4) * TIB + rng.below(1 << 30),
            _ => TIB - cursor % TIB,
        };
        let node = k as usize;
        let ram: Vec<&RefRegion> = regions
            .iter()
            .filter(|r| matches!(r.to, RefTo::Ram(_)))
            .collect();
        let (kind, to) = match rng.below(3) {
            1 if !ram.is_empty() => {
                let t = ram[rng.below(ram.len() as u64) as usize];
                len = len.min(t.end - t.base);
                let target = t.base + rng.below(t.end - t.base - len + 1);
                (RegionKind::GpuBar { node }, RefTo::Alias(target))
            }
            2 => (
                RegionKind::Mmio { node },
                RefTo::Mmio(Rc::new(Dev {
                    id: k as u8,
                    writes: Default::default(),
                })),
            ),
            _ => (
                RegionKind::HostDram { node },
                RefTo::Ram(Rc::new(SparseMem::new(cursor, len))),
            ),
        };
        regions.push(RefRegion {
            base: cursor,
            end: cursor + len,
            kind,
            to,
        });
        cursor += len;
    }
    regions
}

/// The bucket-indexed bus routes every address exactly like a linear scan
/// of its regions: `is_mapped`, `classify`, `resolve`, `read` and `write`
/// agree with the reference at region edges, at every bucket boundary
/// inside a region, at random interior points and in the gaps, whatever
/// order the regions were inserted in; unmapped addresses panic with the
/// bus's message.
#[test]
fn indexed_bus_matches_a_linear_scan() {
    const TIB: u64 = 1 << 40;
    // Regions spanning buckets, neighbours sharing a bucket, adjacent
    // neighbours, and aliases.
    let mut seen = [0usize; 4];
    for seed in 1..=256u64 {
        let mut rng = XorShift64::new(seed);
        let regions = random_map(&mut rng);
        for p in regions.windows(2) {
            seen[1] += usize::from((p[0].end - 1) / TIB == p[1].base / TIB);
            seen[2] += usize::from(p[0].end == p[1].base);
        }
        seen[3] += regions
            .iter()
            .filter(|r| matches!(r.to, RefTo::Alias(_)))
            .count();
        let bus = Bus::new();
        let mut order: Vec<usize> = (0..regions.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for &i in &order {
            let r = &regions[i];
            match &r.to {
                RefTo::Ram(mem) => bus.add_ram(mem.clone(), r.kind),
                RefTo::Mmio(dev) => bus.add_mmio(r.base, r.end - r.base, dev.clone(), r.kind),
                RefTo::Alias(t) => bus.add_alias(r.base, r.end - r.base, *t, r.kind),
            }
        }
        let mut probes = Vec::new();
        for r in &regions {
            probes.extend([r.base, r.end - 1, r.end, r.base.wrapping_sub(1)]);
            probes.push(r.base + rng.below(r.end - r.base));
            let mut b = (r.base / TIB + 1) * TIB;
            while b < r.end {
                probes.extend([b - 1, b]);
                b += TIB;
            }
            seen[0] += usize::from(r.base / TIB != (r.end - 1) / TIB);
        }
        let top = regions.last().unwrap().end;
        for _ in 0..16 {
            probes.push(rng.below(top + 2 * TIB));
        }
        for addr in probes {
            let at = format!("seed {seed}, address {addr:#x}");
            let Some(r) = scan(&regions, addr) else {
                assert!(!bus.is_mapped(addr), "{at}: mapped");
                for access in [0, 1] {
                    let b = bus.clone();
                    let err =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match access {
                            0 => drop(b.classify(addr)),
                            _ => drop(b.read_u64(addr)),
                        }))
                        .expect_err(&at);
                    let msg = err.downcast_ref::<String>().expect("a formatted panic");
                    assert_eq!(*msg, format!("bus access to unmapped address {addr:#x}"));
                }
                continue;
            };
            assert!(bus.is_mapped(addr), "{at}: unmapped");
            assert_eq!(bus.classify(addr), r.kind, "{at}");
            let resolved = match r.to {
                RefTo::Alias(t) => {
                    let a = t + (addr - r.base);
                    assert!(matches!(scan(&regions, a).unwrap().to, RefTo::Ram(_)));
                    Some(a)
                }
                RefTo::Ram(_) => Some(addr),
                RefTo::Mmio(_) => None,
            };
            assert_eq!(bus.resolve(addr), resolved, "{at}");
            let n = (1 + rng.below(8)).min(r.end - addr) as usize;
            let mut data = vec![0u8; n];
            rng.fill_bytes(&mut data);
            bus.write(addr, &data);
            let mut back = vec![0u8; n];
            bus.read(addr, &mut back);
            match (&r.to, resolved) {
                (RefTo::Mmio(dev), _) => {
                    let last = dev.writes.borrow().last().cloned();
                    assert_eq!(last, Some((addr - r.base, data)), "{at}");
                    let off = (addr - r.base) as u8;
                    let want: Vec<u8> =
                        (0..n as u8).map(|i| dev.id ^ off.wrapping_add(i)).collect();
                    assert_eq!(back, want, "{at}");
                }
                (_, Some(a)) => {
                    assert_eq!(back, data, "{at}");
                    let RefTo::Ram(mem) = &scan(&regions, a).unwrap().to else {
                        unreachable!()
                    };
                    let mut direct = vec![0u8; n];
                    mem.read(a, &mut direct);
                    assert_eq!(direct, data, "{at}: landed elsewhere");
                }
                _ => unreachable!(),
            }
        }
    }
    assert!(seen.iter().all(|&n| n > 200), "{seen:?}");
}
