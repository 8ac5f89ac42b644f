//! Benchmark drivers reproducing every figure and table of the paper's
//! evaluation (§V). Each driver builds a fresh [`crate::cluster::Cluster`]
//! per data point, runs the microbenchmark to completion in simulated time,
//! and reports simulated-time metrics.

pub mod ablation;
pub mod bandwidth;
pub mod check;
pub mod counters;
pub mod crossover;
pub mod msgrate;
pub mod pingpong;
pub mod profile;
pub mod scaling;
pub mod sensitivity;
pub mod staging;
pub mod twosided;
pub mod velo;
pub mod workload;

use std::cell::{Cell, RefCell};
use std::fmt;

use tc_desim::time::Time;
use tc_desim::Sim;
use tc_trace::Snapshot;

/// The communication-control configurations of the EXTOLL experiments
/// (Fig. 1), named as in the paper's legends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtollMode {
    /// GPU posts puts and polls notifications in system memory.
    Dev2DevDirect,
    /// GPU posts puts and polls the last received element in device memory.
    Dev2DevPollOnGpu,
    /// GPU triggers a CPU proxy through a mapped flag.
    Dev2DevAssisted,
    /// CPU controls everything; data still moves GPU-to-GPU.
    HostControlled,
}

impl ExtollMode {
    /// The paper's legend label.
    pub fn label(self) -> &'static str {
        match self {
            ExtollMode::Dev2DevDirect => "dev2dev-direct",
            ExtollMode::Dev2DevPollOnGpu => "dev2dev-pollOnGPU",
            ExtollMode::Dev2DevAssisted => "dev2dev-assisted",
            ExtollMode::HostControlled => "dev2dev-hostControlled",
        }
    }
}

/// The communication-control configurations of the Infiniband experiments
/// (Fig. 4), named as in the paper's legends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IbMode {
    /// GPU-driven; queue buffers in GPU memory.
    Dev2DevBufOnGpu,
    /// GPU-driven; queue buffers in host memory.
    Dev2DevBufOnHost,
    /// GPU triggers a CPU proxy through a mapped flag.
    Dev2DevAssisted,
    /// CPU controls everything; data still moves GPU-to-GPU.
    HostControlled,
}

impl IbMode {
    /// The paper's legend label.
    pub fn label(self) -> &'static str {
        match self {
            IbMode::Dev2DevBufOnGpu => "dev2dev-bufOnGPU",
            IbMode::Dev2DevBufOnHost => "dev2dev-bufOnHost",
            IbMode::Dev2DevAssisted => "dev2dev-assisted",
            IbMode::HostControlled => "dev2dev-hostControlled",
        }
    }
}

/// The message-rate configurations (Figs. 2 and 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateMode {
    /// One CUDA block per connection pair, all in one kernel.
    Dev2DevBlocks,
    /// One single-block kernel per connection pair, on separate streams.
    Dev2DevKernels,
    /// GPU blocks trigger a single CPU proxy thread.
    Dev2DevAssisted,
    /// The CPU drives all connection pairs.
    HostControlled,
}

impl RateMode {
    /// The paper's legend label.
    pub fn label(self) -> &'static str {
        match self {
            RateMode::Dev2DevBlocks => "dev2dev-blocks",
            RateMode::Dev2DevKernels => "dev2dev-kernels",
            RateMode::Dev2DevAssisted => "dev2dev-assisted",
            RateMode::HostControlled => "dev2dev-hostControlled",
        }
    }
}

/// The timed window of a run: opened at the first timed post, closed at
/// the last confirmed delivery.
pub(crate) struct Window {
    sim: Sim,
    start: Cell<Time>,
    end: Cell<Time>,
    registry_at_start: RefCell<Snapshot>,
}

impl Window {
    pub(crate) fn new(sim: &Sim) -> Self {
        Window {
            sim: sim.clone(),
            start: Cell::new(0),
            end: Cell::new(0),
            registry_at_start: RefCell::default(),
        }
    }

    pub(crate) fn open(&self) {
        self.start.set(self.sim.now());
        *self.registry_at_start.borrow_mut() = self.sim.registry().snapshot();
    }

    pub(crate) fn close(&self) {
        self.end.set(self.sim.now());
    }

    /// The window's length (at least 1 ps) and the delta of every registry
    /// counter (all layers, all nodes) from its opening to now.
    pub(crate) fn finish(&self) -> (Time, Snapshot) {
        let elapsed = self.end.get().saturating_sub(self.start.get()).max(1);
        let registry = self
            .sim
            .registry()
            .snapshot()
            .delta(&self.registry_at_start.borrow());
        (elapsed, registry)
    }
}

/// One curve of a figure: `(x, y)` points with a legend label.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// `(x, y)` samples.
    pub points: Vec<(u64, f64)>,
}

impl Series {
    /// Create a series.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Append one point.
    pub fn push(&mut self, x: u64, y: f64) {
        self.points.push((x, y));
    }

    /// The y value at a given x, if sampled.
    pub fn at(&self, x: u64) -> Option<f64> {
        self.points.iter().find(|(px, _)| *px == x).map(|(_, y)| *y)
    }
}

/// Render aligned text for a set of series sharing an x axis (the
/// `reproduce` binary's figure output).
pub fn render_series_table(title: &str, x_name: &str, y_name: &str, series: &[Series]) -> String {
    use fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    let _ = write!(out, "{x_name:>12}");
    for s in series {
        let _ = write!(out, " {:>24}", s.label);
    }
    let _ = writeln!(out, "    [{y_name}]");
    let xs: Vec<u64> = series
        .first()
        .map(|s| s.points.iter().map(|(x, _)| *x).collect())
        .unwrap_or_default();
    for x in xs {
        let _ = write!(out, "{x:>12}");
        for s in series {
            match s.at(x) {
                Some(y) => {
                    let _ = write!(out, " {y:>24.3}");
                }
                None => {
                    let _ = write!(out, " {:>24}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// The message sizes of the paper's latency plots (4 B .. 256 KiB).
pub fn latency_sizes() -> Vec<u64> {
    (1..=9).map(|i| 4u64 << (2 * (i - 1))).collect()
}

/// The message sizes of the paper's bandwidth plots (1 B .. 4 MiB).
pub fn bandwidth_sizes() -> Vec<u64> {
    let mut v = vec![1u64];
    let mut s = 4u64;
    while s <= (4 << 20) {
        v.push(s);
        s *= 4;
    }
    v
}

/// The payload sizes of Fig. 3 (4 B .. 64 MiB).
pub fn pollratio_sizes() -> Vec<u64> {
    let mut v = Vec::new();
    let mut s = 4u64;
    while s <= (64 << 20) {
        v.push(s);
        s *= 4;
    }
    v
}

/// The connection-pair counts of the message-rate plots.
pub fn pair_counts() -> Vec<u64> {
    vec![1, 2, 4, 8, 16, 24, 32]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_axes_match() {
        let lat = latency_sizes();
        assert_eq!(lat.first(), Some(&4));
        assert_eq!(lat.last(), Some(&262_144));
        let bw = bandwidth_sizes();
        assert_eq!(bw.first(), Some(&1));
        assert_eq!(bw.last(), Some(&4_194_304));
        let pr = pollratio_sizes();
        assert_eq!(pr.last(), Some(&67_108_864));
        assert!(pair_counts().contains(&32));
    }

    #[test]
    fn series_table_renders_all_labels() {
        let mut a = Series::new("alpha");
        a.push(1, 0.5);
        a.push(2, 1.5);
        let mut b = Series::new("beta");
        b.push(1, 2.0);
        let t = render_series_table("T", "x", "y", &[a, b]);
        assert!(t.contains("alpha") && t.contains("beta"));
        assert!(t.contains("0.500") && t.contains("2.000"));
        // Missing sample renders as '-'.
        assert!(t.lines().last().unwrap().contains('-'));
    }

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(ExtollMode::Dev2DevPollOnGpu.label(), "dev2dev-pollOnGPU");
        assert_eq!(IbMode::Dev2DevBufOnGpu.label(), "dev2dev-bufOnGPU");
        assert_eq!(RateMode::Dev2DevKernels.label(), "dev2dev-kernels");
    }
}
