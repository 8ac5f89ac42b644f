//! Fixed log2-bucket latency/size histograms.
//!
//! The paper's argument rests on *distributions*, not just totals: latency
//! spread across message sizes, per-kernel instruction mixes, DMA transfer
//! times. A [`Histogram`] buckets `u64` samples by their bit length (bucket
//! 0 holds the value 0; bucket *i* ≥ 1 holds values in `[2^(i-1), 2^i)`),
//! which makes recording allocation-free and O(1) and keeps snapshots
//! byte-for-byte deterministic. Percentiles are reported as the upper bound
//! of the bucket that crosses the requested rank, clamped to the true
//! maximum — exact enough for trend tracking at a 2× resolution.
//!
//! Like [`crate::Counter`], a `Histogram` is a cheap `Rc` handle: a
//! [`crate::Registry`] and every typed stats view built over it share the
//! same cells, and [`Histogram::detached`] belongs to no registry.
//! Recording only mutates plain cells — it never allocates, awaits or
//! schedules — so instrumented simulations stay bit-identical whether the
//! data is exported or not.

use std::cell::Cell;
use std::fmt;
use std::rc::Rc;

/// Number of log2 buckets: one for 0, one per bit length 1..=64.
pub const BUCKETS: usize = 65;

/// Inclusive upper bound of bucket `i` (0, 1, 3, 7, …, `u64::MAX`).
pub fn bucket_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        64.. => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// Bucket index of a sample: 0 for 0, else its bit length.
pub fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

pub(crate) struct HistCell {
    count: Cell<u64>,
    sum: Cell<u64>,
    max: Cell<u64>,
    buckets: [Cell<u64>; BUCKETS],
}

impl HistCell {
    pub(crate) fn new() -> Self {
        HistCell {
            count: Cell::new(0),
            sum: Cell::new(0),
            max: Cell::new(0),
            buckets: std::array::from_fn(|_| Cell::new(0)),
        }
    }
}

/// A handle to one named log2-bucket histogram.
#[derive(Clone)]
pub struct Histogram {
    cell: Rc<HistCell>,
}

impl Histogram {
    /// A detached histogram, not visible in any registry.
    pub fn detached() -> Self {
        Histogram {
            cell: Rc::new(HistCell::new()),
        }
    }

    pub(crate) fn from_cell(cell: Rc<HistCell>) -> Self {
        Histogram { cell }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record the same sample `n` times: identical to `n` calls of
    /// [`Histogram::record`], including where the sum saturates.
    #[inline]
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let c = &self.cell;
        c.count.set(c.count.get() + n);
        c.sum.set(c.sum.get().saturating_add(v.saturating_mul(n)));
        if v > c.max.get() {
            c.max.set(v);
        }
        let b = &c.buckets[bucket_index(v)];
        b.set(b.get() + n);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.cell.count.get()
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.cell.sum.get()
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.cell.max.get()
    }

    /// Capture the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            buckets: self.cell.buckets.iter().map(Cell::get).collect(),
        }
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Histogram(count={}, sum={}, max={})",
            self.count(),
            self.sum(),
            self.max()
        )
    }
}

/// The state of one histogram at one instant.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples (saturating).
    pub sum: u64,
    /// Largest recorded sample. In a snapshot taken directly off a
    /// histogram this is the exact largest sample ever recorded;
    /// in a [`HistogramSnapshot::delta`] it is the tightest windowed bound
    /// the buckets allow (see there).
    pub max: u64,
    /// Per-bucket sample counts, `BUCKETS` entries.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean sample value, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `p`-quantile (`0.0..=1.0`), reported as the upper bound of the
    /// bucket whose cumulative count crosses the rank, clamped to `max`.
    /// 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return bucket_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (log2-bucket resolution).
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 95th percentile (log2-bucket resolution).
    pub fn p95(&self) -> u64 {
        self.percentile(0.95)
    }

    /// 99th percentile (log2-bucket resolution).
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// 99.9th percentile (log2-bucket resolution).
    pub fn p999(&self) -> u64 {
        self.percentile(0.999)
    }

    /// Combine two snapshots as if their samples had been recorded into a
    /// single histogram: counts, sums and buckets add (saturating), `max`
    /// keeps the larger high-water mark. Used to fold the per-sweep-point
    /// registry deltas of one experiment into one `sim` section.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let n = self.buckets.len().max(other.buckets.len());
        HistogramSnapshot {
            count: self.count.saturating_add(other.count),
            sum: self.sum.saturating_add(other.sum),
            max: self.max.max(other.max),
            buckets: (0..n)
                .map(|i| {
                    self.buckets
                        .get(i)
                        .copied()
                        .unwrap_or(0)
                        .saturating_add(other.buckets.get(i).copied().unwrap_or(0))
                })
                .collect(),
        }
    }

    /// Per-field difference `self - earlier` (saturating).
    ///
    /// `max` is *not* subtractive: the true maximum of the window's samples
    /// is unrecoverable from two high-water marks (`max_after - max_before`
    /// would be nonsense, and keeping `self.max` overstates windows whose
    /// samples are all smaller than a pre-window outlier). The delta
    /// reports the tightest bound the buckets allow: the upper bound of
    /// the highest bucket that gained samples in the window, clamped to
    /// the overall high-water mark (which makes it exact whenever the
    /// overall maximum fell inside the window — in particular for deltas
    /// against an empty baseline). An empty window reports 0.
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .enumerate()
            .map(|(i, v)| v.saturating_sub(earlier.buckets.get(i).copied().unwrap_or(0)))
            .collect();
        let max = buckets
            .iter()
            .rposition(|&b| b > 0)
            .map(|i| bucket_bound(i).min(self.max))
            .unwrap_or(0);
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            max,
            buckets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_by_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(2), 3);
        assert_eq!(bucket_bound(64), u64::MAX);
    }

    #[test]
    fn records_accumulate() {
        let h = Histogram::detached();
        for v in [0, 1, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 106);
        assert_eq!(h.max(), 100);
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[2], 2);
        assert_eq!(s.buckets[7], 1); // 100 is 7 bits
    }

    #[test]
    fn record_n_equals_repeated_record() {
        let (a, b) = (Histogram::detached(), Histogram::detached());
        for v in [7, u64::MAX / 3] {
            for _ in 0..5 {
                a.record(v);
            }
            b.record_n(v, 5);
        }
        b.record_n(9, 0);
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn percentiles_use_bucket_bounds_clamped_to_max() {
        let h = Histogram::detached();
        for _ in 0..99 {
            h.record(10); // bucket 4, bound 15
        }
        h.record(1000); // bucket 10, bound 1023
        let s = h.snapshot();
        assert_eq!(s.p50(), 15);
        assert_eq!(s.p95(), 15);
        // The single outlier sits at rank 100; p99 needs rank 99.
        assert_eq!(s.p99(), 15);
        assert_eq!(s.percentile(1.0), 1000); // clamped to true max
        assert_eq!(s.max, 1000);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histogram::detached().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn delta_subtracts_counts_and_bounds_max_by_window_buckets() {
        let h = Histogram::detached();
        h.record(7);
        let s0 = h.snapshot();
        h.record(300);
        h.record(2);
        let d = h.snapshot().delta(&s0);
        assert_eq!(d.count, 2);
        assert_eq!(d.sum, 302);
        // The overall max (300) fell inside the window, so the clamp makes
        // the windowed max exact.
        assert_eq!(d.max, 300);
        assert_eq!(d.buckets[3], 0); // the pre-window sample is gone
        assert_eq!(d.buckets[2], 1);
        assert_eq!(d.buckets[9], 1);
    }

    #[test]
    fn delta_max_ignores_pre_window_outliers() {
        let h = Histogram::detached();
        h.record(300); // pre-window high-water mark
        let s0 = h.snapshot();
        h.record(2);
        let d = h.snapshot().delta(&s0);
        assert_eq!(d.count, 1);
        // Not 300: the window only saw a sample in bucket 2 (bound 3).
        assert_eq!(d.max, 3);
        // And an empty window has no max at all.
        let e = h.snapshot().delta(&h.snapshot());
        assert_eq!(e.count, 0);
        assert_eq!(e.max, 0);
    }

    #[test]
    fn merge_adds_samples_and_keeps_larger_max() {
        let a = Histogram::detached();
        let b = Histogram::detached();
        a.record(7);
        a.record(100);
        b.record(300);
        let m = a.snapshot().merge(&b.snapshot());
        assert_eq!(m.count, 3);
        assert_eq!(m.sum, 407);
        assert_eq!(m.max, 300);
        assert_eq!(m.buckets[3], 1);
        assert_eq!(m.buckets[7], 1);
        assert_eq!(m.buckets[9], 1);
        // Merging is symmetric.
        assert_eq!(m, b.snapshot().merge(&a.snapshot()));
    }

    #[test]
    fn p999_needs_one_in_a_thousand() {
        let h = Histogram::detached();
        for _ in 0..999 {
            h.record(10);
        }
        h.record(1000);
        let s = h.snapshot();
        assert_eq!(s.p99(), 15);
        assert_eq!(s.p999(), 15); // rank 999 still lands in the low bucket
        assert_eq!(s.percentile(1.0), 1000);
    }

    #[test]
    fn clones_share_cells() {
        let a = Histogram::detached();
        let b = a.clone();
        b.record(5);
        assert_eq!(a.count(), 1);
    }
}
