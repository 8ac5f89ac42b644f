//! Simulated-time telemetry series.
//!
//! A [`SeriesSet`] holds named `(timestamp, value)` series sampled on
//! fixed simulated-time windows, renderable as schema-versioned JSON
//! ([`SCHEMA`], `tc-timeseries-v1`) and as Perfetto counter tracks
//! ([`SeriesSet::counter_events`]). The [`Sampler`] turns periodic
//! [`crate::registry::Snapshot`]s into window *deltas* — counters become
//! per-window flows, histograms window-tight percentiles, gauges
//! window-tight levels (see [`crate::GaugeSnapshot::delta`]).
//!
//! Sampling is host-driven: the driver runs the simulation to each window
//! edge and snapshots the registry between windows, so nothing is
//! scheduled inside simulated time and the sampled run is bit-identical
//! to an unsampled one. All values are integers (picosecond timestamps,
//! counts, levels), so rendered output is trivially byte-deterministic.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::chrome::escape;
use crate::recorder::{Phase, TraceEvent};
use crate::registry::Snapshot;

/// Schema identifier embedded in rendered JSON.
pub const SCHEMA: &str = "tc-timeseries-v1";

/// One named series: a unit label and `(ts, value)` points in
/// non-decreasing timestamp order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Series {
    /// Unit label (`"count"`, `"ops"`, `"ps"`, …), documentation only.
    pub unit: String,
    /// `(simulated time in ps, value)` samples.
    pub points: Vec<(u64, u64)>,
}

/// A collection of named series over one window grid.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SeriesSet {
    /// Window width in picoseconds.
    pub window_ps: u64,
    series: BTreeMap<String, Series>,
}

impl SeriesSet {
    /// An empty set over `window_ps`-wide windows.
    pub fn new(window_ps: u64) -> Self {
        SeriesSet {
            window_ps,
            series: BTreeMap::new(),
        }
    }

    /// Append a sample to `name`, creating the series (with `unit`) on
    /// first use. Timestamps must be pushed in non-decreasing order.
    pub fn push(&mut self, name: &str, unit: &str, ts: u64, value: u64) {
        let s = self
            .series
            .entry(name.to_string())
            .or_insert_with(|| Series {
                unit: unit.to_string(),
                points: Vec::new(),
            });
        debug_assert!(
            s.points.last().is_none_or(|&(t, _)| t <= ts),
            "series {name} sampled out of order"
        );
        s.points.push((ts, value));
    }

    /// Number of series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// True if no series was recorded.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// The series named `name`, if any.
    pub fn get(&self, name: &str) -> Option<&Series> {
        self.series.get(name)
    }

    /// Iterate `(name, series)` sorted by name.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Series)> {
        self.series.iter().map(|(n, s)| (n.as_str(), s))
    }

    /// Fold `other`'s series into this set; names must not collide
    /// (callers prefix per-shard series). Panics on a duplicate name so a
    /// collision cannot silently drop data.
    pub fn absorb(&mut self, other: SeriesSet) {
        for (name, s) in other.series {
            let prev = self.series.insert(name.clone(), s);
            assert!(prev.is_none(), "duplicate series name {name:?}");
        }
    }

    /// Render the set as a `tc-timeseries-v1` JSON document. Deterministic:
    /// series sorted by name, integer values only, no wall-clock data.
    pub fn to_json(&self, experiment: &str) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"");
        out.push_str(SCHEMA);
        out.push_str("\",\n  \"experiment\": ");
        escape(&mut out, experiment);
        let _ = write!(
            out,
            ",\n  \"window_ps\": {},\n  \"series\": {{",
            self.window_ps
        );
        for (i, (name, s)) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            escape(&mut out, name);
            out.push_str(": {\"unit\": ");
            escape(&mut out, &s.unit);
            out.push_str(", \"points\": [");
            for (j, (ts, v)) in s.points.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{ts},{v}]");
            }
            out.push_str("]}");
        }
        if !self.series.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Render every point as a Perfetto counter-track event
    /// ([`Phase::Counter`], `ph:"C"` in the Chrome export), one track per
    /// series.
    pub fn counter_events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        for (name, s) in &self.series {
            for &(ts, value) in &s.points {
                out.push(TraceEvent {
                    ts,
                    phase: Phase::Counter { value },
                    layer: "series",
                    track: name.clone(),
                    name: name.clone(),
                    args: vec![],
                });
            }
        }
        // Interleave chronologically so the exported trace stays sorted
        // by timestamp like recorder output; sort is stable, so equal
        // timestamps keep the deterministic by-name order.
        out.sort_by_key(|e| e.ts);
        out
    }
}

/// Turns periodic registry snapshots into per-window series.
///
/// The driver snapshots the registry at every window edge;
/// [`Sampler::sample`] records the *delta* against the previous edge for
/// every metric whose name starts with one of the configured prefixes
/// (counters as `<name>` flows, gauges as `<name>` end-of-window levels
/// plus `<name>.high` window highs, histograms as `<name>.count` and
/// `<name>.p99` over the window).
pub struct Sampler {
    prefixes: Vec<String>,
    prev: Snapshot,
    set: SeriesSet,
}

impl Sampler {
    /// A sampler over `window_ps`-wide windows starting from `baseline`
    /// (the registry state at the first window's start), keeping metrics
    /// matching any of `prefixes` (name-prefix match).
    pub fn new(window_ps: u64, prefixes: &[&str], baseline: Snapshot) -> Self {
        Sampler {
            prefixes: prefixes.iter().map(|p| p.to_string()).collect(),
            prev: baseline,
            set: SeriesSet::new(window_ps),
        }
    }

    fn matches(&self, name: &str) -> bool {
        self.prefixes.iter().any(|p| name.starts_with(p.as_str()))
    }

    /// Close the window that started at `window_start`: record deltas of
    /// `snap` (the registry at the window's end) against the previous
    /// edge.
    pub fn sample(&mut self, window_start: u64, snap: &Snapshot) {
        let d = snap.delta(&self.prev);
        let matched: Vec<(String, u64)> = d
            .iter()
            .filter(|(n, _)| self.matches(n))
            .map(|(n, v)| (n.to_string(), v))
            .collect();
        for (n, v) in matched {
            self.set.push(&n, "count", window_start, v);
        }
        let gauges: Vec<(String, crate::GaugeSnapshot)> = d
            .gauges()
            .filter(|(n, _)| self.matches(n))
            .map(|(n, g)| (n.to_string(), g))
            .collect();
        for (n, g) in gauges {
            self.set.push(&n, "level", window_start, g.current);
            self.set
                .push(&format!("{n}.high"), "level", window_start, g.high_water);
        }
        let hists: Vec<(String, u64, u64)> = d
            .histograms()
            .filter(|(n, _)| self.matches(n))
            .map(|(n, h)| (n.to_string(), h.count, h.p99()))
            .collect();
        for (n, count, p99) in hists {
            self.set
                .push(&format!("{n}.count"), "count", window_start, count);
            self.set.push(&format!("{n}.p99"), "ps", window_start, p99);
        }
        self.prev = snap.clone();
    }

    /// Push a driver-computed sample (offered load, achieved load, …)
    /// alongside the registry-derived ones.
    pub fn push(&mut self, name: &str, unit: &str, ts: u64, value: u64) {
        self.set.push(name, unit, ts, value);
    }

    /// Finish sampling and take the collected set.
    pub fn finish(self) -> SeriesSet {
        self.set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn sampler_records_window_deltas() {
        let reg = Registry::new();
        let c = reg.counter("w.ops");
        let g = reg.gauge("w.depth");
        let h = reg.histogram("w.lat");
        let other = reg.counter("x.noise");
        let mut s = Sampler::new(100, &["w."], reg.snapshot());
        c.add(5);
        g.add(3);
        h.record(40);
        other.add(9);
        s.sample(0, &reg.snapshot());
        c.add(2);
        g.sub(3);
        s.sample(100, &reg.snapshot());
        let set = s.finish();
        assert_eq!(set.get("w.ops").unwrap().points, vec![(0, 5), (100, 2)]);
        assert_eq!(set.get("w.depth").unwrap().points, vec![(0, 3), (100, 0)]);
        // Window-tight gauge high: the window-1 high is 3 (entered at 3),
        // not leaked from a later state.
        assert_eq!(
            set.get("w.depth.high").unwrap().points,
            vec![(0, 3), (100, 3)]
        );
        assert_eq!(
            set.get("w.lat.count").unwrap().points,
            vec![(0, 1), (100, 0)]
        );
        assert!(set.get("x.noise").is_none());
    }

    #[test]
    fn json_is_deterministic_and_schema_tagged() {
        let mut set = SeriesSet::new(50);
        set.push("b.two", "count", 0, 1);
        set.push("a.one", "ops", 0, 2);
        set.push("a.one", "ops", 50, 3);
        let j = set.to_json("profile");
        assert!(j.contains("\"schema\": \"tc-timeseries-v1\""));
        assert!(j.contains("\"experiment\": \"profile\""));
        assert!(j.contains("\"window_ps\": 50"));
        // Sorted by name: a.one before b.two.
        assert!(j.find("a.one").unwrap() < j.find("b.two").unwrap());
        assert!(j.contains("\"points\": [[0,2],[50,3]]"));
        assert_eq!(j, set.to_json("profile"));
    }

    #[test]
    fn empty_set_renders_valid_shape() {
        let set = SeriesSet::new(10);
        let j = set.to_json("x");
        assert!(j.contains("\"series\": {}"));
    }

    #[test]
    fn counter_events_are_sorted_and_typed() {
        let mut set = SeriesSet::new(10);
        set.push("z", "count", 20, 1);
        set.push("a", "count", 10, 2);
        let ev = set.counter_events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].ts, 10);
        assert_eq!(ev[0].phase, Phase::Counter { value: 2 });
        assert_eq!(ev[1].track, "z");
    }

    #[test]
    fn absorb_panics_on_name_collision() {
        let mut a = SeriesSet::new(10);
        a.push("s", "count", 0, 1);
        let mut b = SeriesSet::new(10);
        b.push("t", "count", 0, 2);
        a.absorb(b);
        assert_eq!(a.len(), 2);
        let mut c = SeriesSet::new(10);
        c.push("s", "count", 0, 3);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| a.absorb(c)));
        assert!(r.is_err());
    }
}
