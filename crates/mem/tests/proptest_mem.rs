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
