//! Named, hierarchical metric registry.
//!
//! Every instrumented component registers its metrics under a dotted
//! hierarchical name (`pcie0.dma_reads`, `gpu0.l2.read_hits`,
//! `extoll0.notif_overflows`, …). A window of any metric is the
//! [`Snapshot::delta`] of two registry snapshots; nothing resets a metric.
//! Three metric kinds share the namespace: monotone [`Counter`]s,
//! log2-bucket [`Histogram`]s and current/high-water [`Gauge`]s.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use crate::counter::Counter;
use crate::gauge::{Gauge, GaugeCell, GaugeSnapshot};
use crate::histogram::{HistCell, Histogram, HistogramSnapshot};

#[derive(Default)]
struct Inner {
    /// Full dotted name → cell, in registration order.
    by_name: HashMap<String, Rc<Cell<u64>>>,
    /// Registration order, for deterministic iteration independent of hashing.
    order: Vec<(String, Rc<Cell<u64>>)>,
    /// Histograms, same interning discipline as counters.
    hists_by_name: HashMap<String, Rc<HistCell>>,
    hist_order: Vec<(String, Rc<HistCell>)>,
    /// Gauges, same interning discipline as counters.
    gauges_by_name: HashMap<String, Rc<GaugeCell>>,
    gauge_order: Vec<(String, Rc<GaugeCell>)>,
    /// Next auto-index per scope base name ("pcie" → 2 after pcie0, pcie1).
    next_index: HashMap<String, u32>,
}

/// A process-wide (per-`Sim`, in practice) collection of named counters.
///
/// Clones share state. All operations are deterministic: iteration and
/// snapshots are ordered by name, and auto-indexed scopes follow
/// construction order, which the single-threaded simulator fixes.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Rc<RefCell<Inner>>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Intern a counter by full dotted name. Repeated calls with the same
    /// name return handles to the same cell.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.borrow_mut();
        if let Some(cell) = inner.by_name.get(name) {
            return Counter::from_cell(cell.clone());
        }
        let cell = Rc::new(Cell::new(0));
        inner.by_name.insert(name.to_string(), cell.clone());
        inner.order.push((name.to_string(), cell.clone()));
        Counter::from_cell(cell)
    }

    /// Intern a histogram by full dotted name. Repeated calls with the
    /// same name return handles to the same cells.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut inner = self.inner.borrow_mut();
        if let Some(cell) = inner.hists_by_name.get(name) {
            return Histogram::from_cell(cell.clone());
        }
        let cell = Rc::new(HistCell::new());
        inner.hists_by_name.insert(name.to_string(), cell.clone());
        inner.hist_order.push((name.to_string(), cell.clone()));
        Histogram::from_cell(cell)
    }

    /// Intern a gauge by full dotted name. Repeated calls with the same
    /// name return handles to the same cells.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.borrow_mut();
        if let Some(cell) = inner.gauges_by_name.get(name) {
            return Gauge::from_cell(cell.clone());
        }
        let cell = Rc::new(GaugeCell::new());
        inner.gauges_by_name.insert(name.to_string(), cell.clone());
        inner.gauge_order.push((name.to_string(), cell.clone()));
        Gauge::from_cell(cell)
    }

    /// Open an auto-indexed scope: the first `scope("pcie")` is named
    /// `pcie0`, the next `pcie1`, and so on. Instance numbering therefore
    /// follows construction order, which the simulator makes deterministic.
    pub fn scope(&self, base: &str) -> Scope {
        let idx = {
            let mut inner = self.inner.borrow_mut();
            let n = inner.next_index.entry(base.to_string()).or_insert(0);
            let idx = *n;
            *n += 1;
            idx
        };
        Scope {
            registry: self.clone(),
            name: format!("{base}{idx}"),
        }
    }

    /// Open a scope with an explicit name (e.g. `gpu0` keyed by node id).
    pub fn scope_named(&self, name: &str) -> Scope {
        Scope {
            registry: self.clone(),
            name: name.to_string(),
        }
    }

    /// Snapshot every metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.borrow();
        Snapshot {
            values: inner
                .order
                .iter()
                .map(|(n, c)| (n.clone(), c.get()))
                .collect(),
            hists: inner
                .hist_order
                .iter()
                .map(|(n, c)| (n.clone(), Histogram::from_cell(c.clone()).snapshot()))
                .collect(),
            gauges: inner
                .gauge_order
                .iter()
                .map(|(n, c)| (n.clone(), Gauge::from_cell(c.clone()).snapshot()))
                .collect(),
        }
    }

    /// Number of registered counters.
    pub fn len(&self) -> usize {
        self.inner.borrow().order.len()
    }

    /// True if no counter has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A dotted-name prefix inside a [`Registry`].
#[derive(Clone)]
pub struct Scope {
    registry: Registry,
    name: String,
}

impl Scope {
    /// This scope's full name (`pcie0`, `gpu1.l2`, …).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Intern `<scope>.<sub>` in the underlying registry.
    pub fn counter(&self, sub: &str) -> Counter {
        self.registry.counter(&format!("{}.{}", self.name, sub))
    }

    /// Intern histogram `<scope>.<sub>` in the underlying registry.
    pub fn histogram(&self, sub: &str) -> Histogram {
        self.registry.histogram(&format!("{}.{}", self.name, sub))
    }

    /// Intern gauge `<scope>.<sub>` in the underlying registry.
    pub fn gauge(&self, sub: &str) -> Gauge {
        self.registry.gauge(&format!("{}.{}", self.name, sub))
    }

    /// Open a nested scope `<scope>.<sub>`.
    pub fn scope(&self, sub: &str) -> Scope {
        Scope {
            registry: self.registry.clone(),
            name: format!("{}.{}", self.name, sub),
        }
    }

    /// The registry this scope lives in.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }
}

/// An ordered name → value capture of a registry at one instant.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    values: BTreeMap<String, u64>,
    hists: BTreeMap<String, HistogramSnapshot>,
    gauges: BTreeMap<String, GaugeSnapshot>,
}

impl Snapshot {
    /// Value of `name` at snapshot time; 0 if it was not registered.
    pub fn get(&self, name: &str) -> u64 {
        self.values.get(name).copied().unwrap_or(0)
    }

    /// The histogram registered under `name`, if any.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.hists.get(name)
    }

    /// The gauge registered under `name`, if any.
    pub fn gauge(&self, name: &str) -> Option<&GaugeSnapshot> {
        self.gauges.get(name)
    }

    /// Per-metric difference `self - earlier` (saturating, so a metric
    /// that `earlier` read higher, as in a snapshot of another registry,
    /// reads as 0 rather than wrapping).
    /// Histogram counts/sums/buckets subtract; histogram maxima and gauge
    /// high-water marks are levels, not flows, and report window-tight
    /// bounds (the all-time high does not leak into a window that never
    /// reached it; see [`GaugeSnapshot::delta`]).
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            values: self
                .values
                .iter()
                .map(|(n, v)| (n.clone(), v.saturating_sub(earlier.get(n))))
                .collect(),
            hists: self
                .hists
                .iter()
                .map(|(n, h)| {
                    let d = match earlier.hists.get(n) {
                        Some(e) => h.delta(e),
                        None => h.clone(),
                    };
                    (n.clone(), d)
                })
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(n, g)| {
                    let d = match earlier.gauges.get(n) {
                        Some(e) => g.delta(e),
                        None => *g,
                    };
                    (n.clone(), d)
                })
                .collect(),
        }
    }

    /// Combine two snapshots metric-by-metric, as if both windows had been
    /// recorded into one registry: counters and histogram flows add,
    /// gauges (levels) keep the element-wise maxima of `current` and
    /// `high_water`. Metrics present in only one side are kept verbatim.
    /// Used to fold the per-sweep-point deltas of one experiment into a
    /// single `sim` section; the fold is associative and commutative, so
    /// the result is independent of task scheduling order.
    pub fn merge(&self, other: &Snapshot) -> Snapshot {
        let mut values = self.values.clone();
        for (n, v) in &other.values {
            let e = values.entry(n.clone()).or_insert(0);
            *e = e.saturating_add(*v);
        }
        let mut hists = self.hists.clone();
        for (n, h) in &other.hists {
            match hists.get_mut(n) {
                Some(e) => *e = e.merge(h),
                None => {
                    hists.insert(n.clone(), h.clone());
                }
            }
        }
        let mut gauges = self.gauges.clone();
        for (n, g) in &other.gauges {
            let e = gauges.entry(n.clone()).or_insert(GaugeSnapshot {
                current: 0,
                high_water: 0,
            });
            e.current = e.current.max(g.current);
            e.high_water = e.high_water.max(g.high_water);
        }
        Snapshot {
            values,
            hists,
            gauges,
        }
    }

    /// Iterate `(name, histogram)` sorted by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &HistogramSnapshot)> {
        self.hists.iter().map(|(n, h)| (n.as_str(), h))
    }

    /// Iterate `(name, gauge)` sorted by name.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, GaugeSnapshot)> {
        self.gauges.iter().map(|(n, g)| (n.as_str(), *g))
    }

    /// Iterate `(name, value)` sorted by name.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.values.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Counters under `prefix.` (or equal to `prefix`), sorted by name.
    pub fn with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        self.iter().filter(move |(n, _)| {
            n.strip_prefix(prefix)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_intern_by_name() {
        let reg = Registry::new();
        let a = reg.counter("x.hits");
        let b = reg.counter("x.hits");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn scopes_auto_index_in_construction_order() {
        let reg = Registry::new();
        let p0 = reg.scope("pcie");
        let p1 = reg.scope("pcie");
        assert_eq!(p0.name(), "pcie0");
        assert_eq!(p1.name(), "pcie1");
        p0.counter("dma_reads").add(2);
        p1.counter("dma_reads").add(5);
        let s = reg.snapshot();
        assert_eq!(s.get("pcie0.dma_reads"), 2);
        assert_eq!(s.get("pcie1.dma_reads"), 5);
    }

    #[test]
    fn nested_scopes_build_dotted_names() {
        let reg = Registry::new();
        let l2 = reg.scope_named("gpu0").scope("l2");
        l2.counter("read_hits").add(7);
        assert_eq!(reg.snapshot().get("gpu0.l2.read_hits"), 7);
    }

    #[test]
    fn snapshot_delta_and_reset() {
        let reg = Registry::new();
        let c = reg.counter("n.puts");
        c.add(10);
        let s0 = reg.snapshot();
        c.add(5);
        let s1 = reg.snapshot();
        assert_eq!(s1.delta(&s0).get("n.puts"), 5);
    }

    #[test]
    fn prefix_filter_respects_dot_boundaries() {
        let reg = Registry::new();
        reg.counter("gpu0.reads").inc();
        reg.counter("gpu01.reads").inc();
        let s = reg.snapshot();
        let names: Vec<_> = s.with_prefix("gpu0").map(|(n, _)| n.to_string()).collect();
        assert_eq!(names, vec!["gpu0.reads"]);
    }

    #[test]
    fn histograms_and_gauges_intern_and_snapshot() {
        let reg = Registry::new();
        let scope = reg.scope_named("pcie0");
        let h = scope.histogram("dma_read_ps");
        let h2 = reg.histogram("pcie0.dma_read_ps");
        h.record(100);
        h2.record(300);
        let g = scope.gauge("dma_in_flight");
        g.add(3);
        g.dec();
        let s = reg.snapshot();
        let hs = s.histogram("pcie0.dma_read_ps").unwrap();
        assert_eq!(hs.count, 2);
        assert_eq!(hs.sum, 400);
        let gs = s.gauge("pcie0.dma_in_flight").unwrap();
        assert_eq!(gs.current, 2);
        assert_eq!(gs.high_water, 3);
        assert!(s.histogram("nope").is_none());
        assert!(s.gauge("nope").is_none());
    }

    #[test]
    fn snapshot_delta_covers_all_metric_kinds() {
        let reg = Registry::new();
        let h = reg.histogram("n.lat");
        let g = reg.gauge("n.depth");
        h.record(10);
        g.add(5);
        let s0 = reg.snapshot();
        h.record(20);
        g.sub(4);
        let d = reg.snapshot().delta(&s0);
        assert_eq!(d.histogram("n.lat").unwrap().count, 1);
        assert_eq!(d.histogram("n.lat").unwrap().sum, 20);
        // Gauges are levels: delta keeps the later current, and the
        // window's high is bounded by the endpoints (the gauge entered the
        // window at 5, so 5 is the tight window high here).
        assert_eq!(d.gauge("n.depth").unwrap().current, 1);
        assert_eq!(d.gauge("n.depth").unwrap().high_water, 5);
    }

    #[test]
    fn gauge_delta_high_water_is_window_tight() {
        let reg = Registry::new();
        let g = reg.gauge("n.depth");
        // Pre-window spike to 100, fully drained before the window opens.
        g.add(100);
        g.sub(100);
        let s0 = reg.snapshot();
        g.add(3);
        let d = reg.snapshot().delta(&s0);
        // The all-time high (100) must not leak into the window; the
        // window only ever saw depth 3.
        assert_eq!(d.gauge("n.depth").unwrap().current, 3);
        assert_eq!(d.gauge("n.depth").unwrap().high_water, 3);
        // A new all-time record set inside the window is exact.
        g.add(200);
        g.sub(150);
        let d2 = reg.snapshot().delta(&s0);
        assert_eq!(d2.gauge("n.depth").unwrap().current, 53);
        assert_eq!(d2.gauge("n.depth").unwrap().high_water, 203);
    }

    #[test]
    fn merge_adds_flows_and_maxes_levels() {
        let mk = |c: u64, lat: u64, depth: u64| {
            let reg = Registry::new();
            reg.counter("n.ops").add(c);
            reg.histogram("n.lat").record(lat);
            reg.gauge("n.depth").set(depth);
            reg.snapshot()
        };
        let a = mk(2, 10, 7);
        let b = mk(3, 300, 4);
        let m = a.merge(&b);
        assert_eq!(m.get("n.ops"), 5);
        let h = m.histogram("n.lat").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 310);
        assert_eq!(h.max, 300);
        let g = m.gauge("n.depth").unwrap();
        assert_eq!(g.current, 7);
        assert_eq!(g.high_water, 7);
        // Commutative and keeps one-sided metrics.
        assert_eq!(m, b.merge(&a));
        let one_sided = Registry::new();
        one_sided.counter("only.here").add(9);
        let m2 = a.merge(&one_sided.snapshot());
        assert_eq!(m2.get("only.here"), 9);
        assert_eq!(m2.get("n.ops"), 2);
    }

    #[test]
    fn snapshots_with_metrics_compare_equal_across_identical_runs() {
        let run = || {
            let reg = Registry::new();
            reg.counter("c").add(2);
            reg.histogram("h").record(33);
            reg.gauge("g").set(4);
            reg.snapshot()
        };
        assert_eq!(run(), run());
    }
}
