#![warn(missing_docs)]
//! `tc-bench` — the reproduction harness: one runner per table and figure
//! of the paper, producing aligned text output with the paper's reference
//! values alongside the simulated measurements.
//!
//! Run everything with `cargo run --release -p tc-bench --bin reproduce`.
//!
//! # Parallel execution
//!
//! Every experiment decomposes into an [`ExperimentPlan`]: a list of
//! independent sweep-point tasks plus a render step that assembles the
//! collected results **in index order**. Each task builds its own
//! simulation (cluster, executor, counter registry), so a [`pool::Pool`]
//! can schedule the tasks of one or many experiments concurrently and the
//! rendered output is byte-identical to a serial run — simulated time and
//! counters cannot observe wall-clock scheduling.

pub mod cli;
pub mod desimbench;
pub mod harness;
pub mod metrics;
pub mod pool;

use std::sync::{Arc, Mutex};

use pool::{Pool, PoolStats, Task};

use tc_putget::bench::bandwidth::{extoll_bandwidth, ib_bandwidth};
use tc_putget::bench::check as claims;
use tc_putget::bench::counters::{fig3_point, table1_case, table2_case, verbs_instruction_counts};
use tc_putget::bench::msgrate::{extoll_msgrate, ib_msgrate};
use tc_putget::bench::pingpong::{extoll_pingpong, ib_pingpong, PingPongResult};
use tc_putget::bench::scaling as scaling_mod;
use tc_putget::bench::sensitivity as sensitivity_mod;
use tc_putget::bench::workload::{self, ArrivalProcess, WorkloadSpec};
use tc_putget::bench::{ablation, crossover, profile, staging, twosided, velo};
use tc_putget::bench::{
    bandwidth_sizes, latency_sizes, pair_counts, pollratio_sizes, render_series_table, ExtollMode,
    IbMode, RateMode, Series,
};
use tc_putget::time;
use tc_putget::AppKind;
use tc_putget::Backend::{self, Extoll, Infiniband};
use tc_trace::Snapshot;

/// Workload scale: `quick` for CI-speed runs, `full` for the paper's
/// iteration counts.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Ping-pong iterations.
    pub iters: u32,
    /// Untimed warm-up iterations.
    pub warmup: u32,
    /// Messages per bandwidth point (scaled down for tiny messages).
    pub bw_messages: u32,
    /// Messages per connection pair in the rate benchmarks.
    pub rate_msgs: u32,
    /// Arrivals per connection in the open-loop `workload` experiment.
    pub workload_ops: u32,
}

impl Scale {
    /// Fast but statistically meaningful (seconds per figure).
    pub fn quick() -> Self {
        Scale {
            iters: 30,
            warmup: 3,
            bw_messages: 24,
            rate_msgs: 60,
            workload_ops: 120,
        }
    }

    /// The paper's counts (100-iteration ping-pongs etc.).
    pub fn full() -> Self {
        Scale {
            iters: 100,
            warmup: 10,
            bw_messages: 64,
            rate_msgs: 300,
            workload_ops: 400,
        }
    }
}

fn bw_msgs(scale: Scale, size: u64) -> u32 {
    // Keep total volume bounded so the 4 MiB points stay fast.
    let cap = ((64u64 << 20) / size.max(1)).clamp(8, scale.bw_messages as u64);
    cap as u32
}

/// The deterministic simulation-side contribution of one experiment to
/// its metrics report: the merged registry deltas of its own sweep points
/// plus their total simulated duration.
///
/// Contributions are folded in point-index order (and
/// [`Snapshot::merge`] is associative and commutative anyway), so the
/// result is byte-identical across `--jobs` widths.
#[derive(Debug, Clone, Default)]
pub struct SimContribution {
    /// Merged registry delta of every contributing sweep point.
    pub registry: Snapshot,
    /// Total simulated picoseconds across the contributing points.
    pub simulated_ps: u64,
}

impl SimContribution {
    /// One sweep point's contribution.
    pub fn point(registry: Snapshot, simulated_ps: u64) -> Self {
        SimContribution {
            registry,
            simulated_ps,
        }
    }

    /// Fold another contribution into this one.
    pub fn absorb(&mut self, other: &SimContribution) {
        self.registry = self.registry.merge(&other.registry);
        self.simulated_ps = self.simulated_ps.saturating_add(other.simulated_ps);
    }
}

/// The rendered outcome of one experiment: the text report plus the
/// experiment's own metrics `sim` section (when its plan contributes
/// registry deltas; the others fall back to the representative scenario
/// in [`metrics_report`]).
pub struct ExperimentOutput {
    /// The aligned text report.
    pub text: String,
    /// Merged sweep-point registry contribution, if the experiment has one.
    pub sim: Option<SimContribution>,
    /// Simulated-time telemetry (`tc-timeseries-v1` JSON), if the
    /// experiment samples any. Written next to the metrics file by the
    /// `reproduce` binary as `<id>.timeseries.json`.
    pub series: Option<String>,
}

/// The texts the experiments of one batch printed, by id.
type Printed<'a> = [(&'a str, &'a str)];

/// One experiment, decomposed for scheduling: independent sweep-point
/// tasks plus a render step over the results in index order. Build one
/// with [`plan`], run it with [`ExperimentPlan::run`], or flatten many
/// into one task list with [`run_all`].
pub struct ExperimentPlan {
    tasks: Vec<Task>,
    /// The experiments whose printed text the render reads, by id
    /// (`check`'s figures); [`run_all`] runs them too.
    reads: &'static [&'static str],
    render: Box<dyn FnOnce(&Printed) -> ExperimentOutput + Send>,
}

impl ExperimentPlan {
    /// Number of independent sweep-point tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Run every task on `pool` and render the report. The output is
    /// byte-identical for every pool width. A plan that reads other
    /// experiments (`check`) runs through [`run_all`] instead.
    pub fn run(self, pool: &Pool) -> ExperimentOutput {
        assert!(self.reads.is_empty(), "this plan runs through run_all");
        pool.run_tasks(self.tasks);
        (self.render)(&[])
    }
}

/// Build an [`ExperimentPlan`] from `n` independent point evaluations, a
/// per-point sim-contribution extractor, and a renderer over the results
/// in point-index order. Each point writes into its own slot, so
/// scheduling order cannot affect the output.
fn plan_points_sim<P, F, S, R>(n: usize, point: F, sim_of: S, render: R) -> ExperimentPlan
where
    P: Send + 'static,
    F: Fn(usize) -> P + Send + Sync + 'static,
    S: Fn(&P) -> Option<SimContribution> + Send + 'static,
    R: FnOnce(Vec<P>) -> String + Send + 'static,
{
    plan_points_series(n, point, sim_of, |results| (render(results), None))
}

/// [`plan_points_sim`] for experiments whose renderer also emits a
/// telemetry time-series document (`tc-timeseries-v1` JSON).
fn plan_points_series<P, F, S, R>(n: usize, point: F, sim_of: S, render: R) -> ExperimentPlan
where
    P: Send + 'static,
    F: Fn(usize) -> P + Send + Sync + 'static,
    S: Fn(&P) -> Option<SimContribution> + Send + 'static,
    R: FnOnce(Vec<P>) -> (String, Option<String>) + Send + 'static,
{
    let slots: Arc<Vec<Mutex<Option<P>>>> = Arc::new((0..n).map(|_| Mutex::new(None)).collect());
    let point = Arc::new(point);
    let tasks: Vec<Task> = (0..n)
        .map(|i| {
            let slots = slots.clone();
            let point = point.clone();
            Box::new(move || {
                let v = point(i);
                *slots[i].lock().unwrap() = Some(v);
            }) as Task
        })
        .collect();
    let render = Box::new(move |_: &Printed| {
        let results: Vec<P> = slots
            .iter()
            .map(|m| m.lock().unwrap().take().expect("sweep point was not run"))
            .collect();
        // Fold the contributions in index order before the renderer
        // consumes the results.
        let mut sim: Option<SimContribution> = None;
        for r in &results {
            if let Some(c) = sim_of(r) {
                sim.get_or_insert_with(SimContribution::default).absorb(&c);
            }
        }
        let (text, series) = render(results);
        ExperimentOutput { text, sim, series }
    });
    ExperimentPlan {
        tasks,
        reads: &[],
        render,
    }
}

/// [`plan_points_sim`] for experiments whose points carry no registry
/// delta (their metrics fall back to the representative scenario).
fn plan_points<P, F, R>(n: usize, point: F, render: R) -> ExperimentPlan
where
    P: Send + 'static,
    F: Fn(usize) -> P + Send + Sync + 'static,
    R: FnOnce(Vec<P>) -> String + Send + 'static,
{
    plan_points_sim(n, point, |_| None, render)
}

/// Assemble one [`Series`] per label from a flat `label-major` result grid
/// (`ys[m * xs.len() + i]` is label `m` at `xs[i]`).
fn assemble_series(labels: &[&'static str], xs: &[u64], ys: &[f64]) -> Vec<Series> {
    labels
        .iter()
        .enumerate()
        .map(|(m, label)| {
            let mut s = Series::new(*label);
            for (i, &x) in xs.iter().enumerate() {
                s.push(x, ys[m * xs.len() + i]);
            }
            s
        })
        .collect()
}

/// One figure sweep point: the plotted scalar plus the point's registry
/// contribution to the experiment's metrics `sim` section.
struct FigPoint {
    y: f64,
    sim: SimContribution,
}

impl FigPoint {
    fn new(y: f64, registry: Snapshot, simulated_ps: u64) -> Self {
        FigPoint {
            y,
            sim: SimContribution::point(registry, simulated_ps),
        }
    }
}

/// Shared shape of the figure experiments: a `modes x xs` grid of scalar
/// measurements rendered as one series per mode, with every point's
/// registry delta merged into the experiment's sim contribution.
fn figure_plan<M>(
    title: &'static str,
    x_name: &'static str,
    y_name: &'static str,
    modes: Vec<M>,
    label: fn(M) -> &'static str,
    xs: Vec<u64>,
    point: impl Fn(M, u64) -> FigPoint + Send + Sync + 'static,
) -> ExperimentPlan
where
    M: Copy + Send + Sync + 'static,
{
    let n = modes.len() * xs.len();
    let labels: Vec<&str> = modes.iter().map(|&m| label(m)).collect();
    let xs_point = xs.clone();
    plan_points_sim(
        n,
        move |k| point(modes[k / xs_point.len()], xs_point[k % xs_point.len()]),
        |p: &FigPoint| Some(p.sim.clone()),
        move |points| {
            let ys: Vec<f64> = points.iter().map(|p| p.y).collect();
            render_series_table(title, x_name, y_name, &assemble_series(&labels, &xs, &ys))
        },
    )
}

fn plan_pingpong(scale: Scale, _: &WorkloadKnobs) -> ExperimentPlan {
    plan_points_sim(
        1,
        move |_| extoll_pingpong(ExtollMode::Dev2DevDirect, 1024, scale.iters, scale.warmup),
        |r: &PingPongResult| Some(SimContribution::point(r.registry.clone(), r.half_rtt)),
        |rs| render_pingpong(&rs[0], "EXTOLL"),
    )
}

fn plan_fig1a(scale: Scale, _: &WorkloadKnobs) -> ExperimentPlan {
    let modes = vec![
        ExtollMode::Dev2DevDirect,
        ExtollMode::Dev2DevPollOnGpu,
        ExtollMode::Dev2DevAssisted,
        ExtollMode::HostControlled,
    ];
    figure_plan(
        "Fig. 1a: EXTOLL RMA ping-pong latency",
        "bytes",
        "latency us",
        modes,
        ExtollMode::label,
        latency_sizes(),
        move |mode, size| {
            let r = extoll_pingpong(mode, size, scale.iters, scale.warmup);
            FigPoint::new(r.latency_us(), r.registry, r.half_rtt)
        },
    )
}

fn plan_fig1b(scale: Scale, _: &WorkloadKnobs) -> ExperimentPlan {
    let modes = vec![
        ExtollMode::Dev2DevDirect,
        ExtollMode::Dev2DevAssisted,
        ExtollMode::HostControlled,
    ];
    figure_plan(
        "Fig. 1b: EXTOLL RMA streaming bandwidth",
        "bytes",
        "MB/s",
        modes,
        ExtollMode::label,
        bandwidth_sizes(),
        move |mode, size| {
            let r = extoll_bandwidth(mode, size, bw_msgs(scale, size));
            FigPoint::new(r.mbytes_per_s(), r.registry, r.elapsed)
        },
    )
}

fn rate_plan(
    title: &'static str,
    scale: Scale,
    run: fn(RateMode, u32, u32) -> tc_putget::bench::msgrate::RateResult,
) -> ExperimentPlan {
    let modes = vec![
        RateMode::Dev2DevBlocks,
        RateMode::Dev2DevKernels,
        RateMode::Dev2DevAssisted,
        RateMode::HostControlled,
    ];
    figure_plan(
        title,
        "pairs",
        "MSGs/s",
        modes,
        RateMode::label,
        pair_counts(),
        move |mode, pairs| {
            let r = run(mode, pairs as u32, scale.rate_msgs);
            FigPoint::new(r.msgs_per_s(), r.registry, r.elapsed)
        },
    )
}

fn plan_fig2(scale: Scale, _: &WorkloadKnobs) -> ExperimentPlan {
    let title = "Fig. 2: EXTOLL RMA message rate (64 B messages)";
    rate_plan(title, scale, extoll_msgrate)
}

fn plan_fig3(scale: Scale, _: &WorkloadKnobs) -> ExperimentPlan {
    let sizes = pollratio_sizes();
    let sizes_point = sizes.clone();
    plan_points(
        sizes.len(),
        move |i| fig3_point(sizes_point[i], scale.iters.min(20)),
        move |points| {
            let mut sys = Series::new("system memory");
            let mut dev = Series::new("device memory");
            for (i, ((sp, sq), (dp, dq))) in points.into_iter().enumerate() {
                sys.push(sizes[i], sq as f64 / sp.max(1) as f64);
                dev.push(sizes[i], dq as f64 / dp.max(1) as f64);
            }
            render_series_table(
                "Fig. 3: EXTOLL polling time / WR generation time",
                "bytes",
                "poll/put ratio",
                &[sys, dev],
            )
        },
    )
}

fn ib_modes() -> Vec<IbMode> {
    vec![
        IbMode::Dev2DevBufOnGpu,
        IbMode::Dev2DevBufOnHost,
        IbMode::Dev2DevAssisted,
        IbMode::HostControlled,
    ]
}

fn plan_fig4a(scale: Scale, _: &WorkloadKnobs) -> ExperimentPlan {
    figure_plan(
        "Fig. 4a: Infiniband Verbs ping-pong latency",
        "bytes",
        "latency us",
        ib_modes(),
        IbMode::label,
        latency_sizes(),
        move |mode, size| {
            let r = ib_pingpong(mode, size, scale.iters, scale.warmup);
            FigPoint::new(r.latency_us(), r.registry, r.half_rtt)
        },
    )
}

fn plan_fig4b(scale: Scale, _: &WorkloadKnobs) -> ExperimentPlan {
    figure_plan(
        "Fig. 4b: Infiniband Verbs streaming bandwidth",
        "bytes",
        "MB/s",
        ib_modes(),
        IbMode::label,
        bandwidth_sizes(),
        move |mode, size| {
            let r = ib_bandwidth(mode, size, bw_msgs(scale, size));
            FigPoint::new(r.mbytes_per_s(), r.registry, r.elapsed)
        },
    )
}

fn plan_fig5(scale: Scale, _: &WorkloadKnobs) -> ExperimentPlan {
    let title = "Fig. 5: Infiniband Verbs message rate (64 B messages)";
    rate_plan(title, scale, ib_msgrate)
}

/// Runtime knobs of the `workload` and `scaling` experiments, set by
/// `reproduce`'s `--conns`, `--load`, `--app`, `--eager-threshold` and
/// `--nodes` flags.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadKnobs {
    /// Concurrent connections per load point (1..=32).
    pub conns: u32,
    /// Offered loads to sweep, in kilo-operations/s per connection.
    pub loads: Vec<f64>,
    /// Drive each connection with an application pattern through the
    /// message layer instead of the raw put/get/send mix (`--app`).
    pub app: Option<AppKind>,
    /// Override of the messenger's eager/rendezvous threshold in bytes
    /// (`--eager-threshold`; `None` uses each backend's default).
    pub eager_threshold: Option<usize>,
    /// `scaling` experiment: ring sizes to sweep (`--nodes`).
    pub nodes: Vec<usize>,
}

impl WorkloadKnobs {
    /// The knobs a `reproduce` invocation asks for; every flag it leaves
    /// out takes its default.
    pub fn from_options(opts: &cli::Options) -> Self {
        WorkloadKnobs {
            conns: opts.conns.unwrap_or(4),
            // Spanning both knees: Infiniband GPU-driven saturates around
            // 10 kop/s per connection, EXTOLL around 160 kop/s, so each
            // backend gets points on both sides of its own knee.
            loads: opts
                .load
                .clone()
                .unwrap_or_else(|| vec![4.0, 16.0, 64.0, 256.0]),
            app: opts.app,
            eager_threshold: opts.eager_threshold,
            // --full extends the default sweep to the 128/256-node
            // sharded points.
            nodes: opts
                .nodes
                .clone()
                .unwrap_or_else(|| scaling_mod::node_counts(opts.full)),
        }
    }
}

impl Default for WorkloadKnobs {
    /// The knobs of a `reproduce` run without flags.
    fn default() -> Self {
        WorkloadKnobs::from_options(&cli::Options::default())
    }
}

/// The open-loop latency-under-load sweep: backend x arrival process x
/// offered load, one independent simulation per point.
fn plan_workload(scale: Scale, knobs: &WorkloadKnobs) -> ExperimentPlan {
    let backends = [Backend::Extoll, Backend::Infiniband];
    let procs = [ArrivalProcess::Poisson, ArrivalProcess::Bursty];
    let loads = knobs.loads.clone();
    let conns = knobs.conns;
    let (app, eager_threshold) = (knobs.app, knobs.eager_threshold);
    let per_backend = procs.len() * loads.len();
    let n = backends.len() * per_backend;
    plan_points_sim(
        n,
        move |k| {
            workload::run(&WorkloadSpec {
                backend: backends[k / per_backend],
                process: procs[(k % per_backend) / loads.len()],
                conns,
                offered_kops: loads[k % loads.len()],
                ops_per_conn: scale.workload_ops,
                queue_cap: 64,
                seed: 42,
                app,
                eager_threshold,
            })
        },
        |r: &workload::WorkloadResult| Some(SimContribution::point(r.registry.clone(), r.elapsed)),
        |results| workload::render(&results),
    )
}

/// One sweep point of the `crossover` experiment: either a
/// forced-protocol latency/bandwidth measurement or a closed-loop
/// application iteration at the default threshold.
enum CrossoverPoint {
    Proto(crossover::ProtoPoint),
    App(crossover::AppPoint),
}

/// The eager-vs-rendezvous protocol study: every (backend, protocol,
/// size) cell of the grid plus the application sweep is one independent
/// simulation, so the plan decomposes under `--jobs` exactly like the
/// paper figures.
fn plan_crossover(scale: Scale, _: &WorkloadKnobs) -> ExperimentPlan {
    let sizes = crossover::sizes();
    let app_sizes = crossover::app_sizes();
    let per_backend = crossover::PROTOS.len() * sizes.len();
    let proto_n = crossover::BACKENDS.len() * per_backend;
    let apps_per_backend = AppKind::ALL.len() * app_sizes.len();
    let n = proto_n + crossover::BACKENDS.len() * apps_per_backend;
    // Forced-eager 64 KiB points push ~1200 fragments per message, so
    // cap the iteration counts independently of `--full`.
    let iters = scale.iters.min(16);
    let msgs = (scale.bw_messages / 3).max(6);
    let app_iters = scale.iters.min(10);
    plan_points_sim(
        n,
        move |k| {
            if k < proto_n {
                let backend = crossover::BACKENDS[k / per_backend];
                let proto = crossover::PROTOS[(k % per_backend) / sizes.len()];
                let size = sizes[k % sizes.len()];
                CrossoverPoint::Proto(crossover::proto_point(backend, proto, size, iters, msgs))
            } else {
                let j = k - proto_n;
                let backend = crossover::BACKENDS[j / apps_per_backend];
                let kind = AppKind::ALL[(j % apps_per_backend) / app_sizes.len()];
                let bytes = app_sizes[j % app_sizes.len()];
                CrossoverPoint::App(crossover::app_point(backend, kind, bytes, app_iters))
            }
        },
        |p: &CrossoverPoint| {
            let (registry, elapsed) = match p {
                CrossoverPoint::Proto(p) => (p.registry.clone(), p.elapsed),
                CrossoverPoint::App(p) => (p.registry.clone(), p.elapsed),
            };
            Some(SimContribution::point(registry, elapsed))
        },
        |results| {
            let mut protos = Vec::new();
            let mut apps = Vec::new();
            for r in results {
                match r {
                    CrossoverPoint::Proto(p) => protos.push(p),
                    CrossoverPoint::App(p) => apps.push(p),
                }
            }
            crossover::render(&protos, &apps)
        },
    )
}

fn plan_profile(_: Scale, _: &WorkloadKnobs) -> ExperimentPlan {
    plan_points_series(
        profile::POINTS,
        profile::point,
        |_| None,
        |points| {
            let (text, series) = profile::render(&points);
            (text, Some(series.to_json("profile")))
        },
    )
}

fn plan_table1(_: Scale, _: &WorkloadKnobs) -> ExperimentPlan {
    let title = "Table I: EXTOLL polling approaches (100-iteration 1 KiB ping-pong, node-0 GPU)";
    counter_plan(title, ["sysmem", "devmem"], table1_case, &TABLE1)
}

fn plan_table2(_: Scale, _: &WorkloadKnobs) -> ExperimentPlan {
    let title = "Table II: Infiniband buffer placement (100-iteration 1 KiB ping-pong, node-0 GPU)";
    counter_plan(title, ["host", "gpu"], table2_case, &TABLE2)
}

fn plan_verbs_instr(_: Scale, _: &WorkloadKnobs) -> ExperimentPlan {
    plan_points(1, |_| verbs_instr_report(), |mut v| v.pop().unwrap())
}

fn plan_ablations(scale: Scale, _: &WorkloadKnobs) -> ExperimentPlan {
    plan_points(
        ablation::SECTIONS,
        move |i| ablation::section(i, 1024, scale.iters),
        |sections| sections.concat(),
    )
}

fn plan_staging(scale: Scale, _: &WorkloadKnobs) -> ExperimentPlan {
    let sizes = staging::sizes();
    plan_points(
        sizes.len(),
        move |i| staging::point(sizes[i], scale.bw_messages),
        |results| staging::render(&results),
    )
}

fn plan_twosided(scale: Scale, _: &WorkloadKnobs) -> ExperimentPlan {
    let sizes = twosided::sizes();
    plan_points(
        sizes.len(),
        move |i| twosided::point(sizes[i], scale.iters),
        |results| twosided::render(&results),
    )
}

fn plan_velo(scale: Scale, _: &WorkloadKnobs) -> ExperimentPlan {
    let sizes = velo::sizes();
    plan_points(
        sizes.len(),
        move |i| velo::point(sizes[i], scale.iters),
        |results| velo::render(&results),
    )
}

fn plan_scaling(_: Scale, knobs: &WorkloadKnobs) -> ExperimentPlan {
    let counts = knobs.nodes.clone();
    plan_points(
        counts.len(),
        move |i| scaling_mod::point(counts[i], 1024),
        |results| scaling_mod::render(1024, &results),
    )
}

fn plan_sensitivity(scale: Scale, _: &WorkloadKnobs) -> ExperimentPlan {
    let knobs = sensitivity_mod::knobs();
    plan_points(
        knobs.len(),
        move |i| sensitivity_mod::check(knobs[i], scale.iters.min(15)),
        |results| sensitivity_mod::render(&results),
    )
}

/// `check` runs no task of its own: it reads the tables its figures
/// printed in the same batch.
fn plan_check(_: Scale, _: &WorkloadKnobs) -> ExperimentPlan {
    ExperimentPlan {
        tasks: Vec::new(),
        reads: &claims::READS,
        render: Box::new(|printed| ExperimentOutput {
            text: claims::render(&claims::evaluate(printed)),
            sim: None,
            series: None,
        }),
    }
}

/// One counter row of Table I or II: its label, the registry counter it
/// reads and the paper's value in each of the table's two columns.
type CounterRow = (&'static str, &'static str, [u64; 2]);

/// Table I: the paper's system- and device-memory polling values.
const TABLE1: [CounterRow; 9] = [
    (
        "sysmem reads (32B accesses)",
        "gpu0.sysmem.reads",
        [4368, 0],
    ),
    (
        "sysmem writes (32B accesses)",
        "gpu0.sysmem.writes",
        [2908, 303],
    ),
    (
        "globmem64 reads (accesses)",
        "gpu0.globmem64.reads",
        [0, 1314],
    ),
    (
        "globmem64 writes (accesses)",
        "gpu0.globmem64.writes",
        [500, 400],
    ),
    ("l2 read hits", "gpu0.l2.read_hits", [0, 3143]),
    ("l2 read requests", "gpu0.l2.read_requests", [4822, 2970]),
    ("l2 write requests", "gpu0.l2.write_requests", [5268, 404]),
    ("memory accesses (r/w)", "gpu0.mem_accesses", [6788, 1714]),
    ("instructions executed", "gpu0.instructions", [46413, 22491]),
];

/// Table II: the paper's buffers-on-host and buffers-on-GPU values.
const TABLE2: [CounterRow; 8] = [
    (
        "sysmem reads (32B accesses)",
        "gpu0.sysmem.reads",
        [772, 80],
    ),
    (
        "sysmem writes (32B accesses)",
        "gpu0.sysmem.writes",
        [670, 316],
    ),
    ("l2 read misses", "gpu0.l2.read_misses", [999, 1405]),
    ("l2 read hits", "gpu0.l2.read_hits", [16647, 14575]),
    ("l2 read requests", "gpu0.l2.read_requests", [16657, 15110]),
    ("l2 write requests", "gpu0.l2.write_requests", [1990, 1885]),
    ("memory accesses (r/w)", "gpu0.mem_accesses", [59937, 58905]),
    (
        "instructions executed",
        "gpu0.instructions",
        [123297, 110463],
    ),
];

/// A counter table: `case(false)` and `case(true)`, two independent
/// runs' registry deltas (columns `names`), each next to the paper's
/// value in every row.
fn counter_plan(
    title: &'static str,
    names: [&'static str; 2],
    case: fn(bool) -> Snapshot,
    rows: &'static [CounterRow],
) -> ExperimentPlan {
    plan_points(
        2,
        move |i| case(i == 1),
        move |runs| {
            let mut out = format!("# {title}\n{:30}", "metric");
            for name in names {
                let (sim, paper) = (format!("{name}(sim)"), format!("{name}(paper)"));
                out.push_str(&format!(" {sim:>13} {paper:>13}"));
            }
            out.push('\n');
            for (label, key, [a, b]) in rows {
                let (sim_a, sim_b) = (runs[0].get(key), runs[1].get(key));
                out.push_str(&format!(
                    "{label:30} {sim_a:>13} {a:>13} {sim_b:>13} {b:>13}\n"
                ));
            }
            out
        },
    )
}

/// §V-B.3 — verbs instruction micro-counts vs. the paper's 442/283.
pub fn verbs_instr_report() -> String {
    let (post, poll) = verbs_instruction_counts();
    let mut out = String::from("# SV-B.3: GPU verbs instruction counts\n");
    for (op, sim, paper) in [
        ("operation", "simulated".to_string(), "paper"),
        ("ibv_post_send", post.to_string(), "442"),
        ("ibv_poll_cq (success)", poll.to_string(), "283"),
    ] {
        out.push_str(&format!("{op:30} {sim:>10} {paper:>10}\n"));
    }
    out
}

/// The fixed smoke scenario behind the `--metrics` fallback of
/// experiments without their own registry contribution: a 1 KiB
/// GPU-controlled ping-pong on `fabric` at a small fixed iteration count
/// (deliberately independent of `--quick`/`--full`, so metrics files are
/// comparable across scales).
fn representative_run(fabric: Backend) -> PingPongResult {
    match fabric {
        Backend::Extoll => extoll_pingpong(ExtollMode::Dev2DevDirect, 1024, 10, 2),
        Backend::Infiniband => ib_pingpong(IbMode::Dev2DevBufOnGpu, 1024, 10, 2),
    }
}

fn render_pingpong(r: &PingPongResult, interconnect: &str) -> String {
    format!(
        "# pingpong: {interconnect} GPU-controlled 1 KiB ping-pong (smoke experiment)\n\
         {:24} {:>12}\n\
         {:24} {:>12}\n\
         {:24} {:>12}\n\
         {:24} {:>12}\n",
        "half round trip",
        fmt_us(r.half_rtt),
        "put time / iteration",
        fmt_us(r.put_time),
        "poll time / iteration",
        fmt_us(r.poll_time),
        "gpu instructions",
        r.registry.get("gpu0.instructions"),
    )
}

/// The metrics JSON for one experiment (`--metrics DIR`).
///
/// The `sim` section is the experiment's **own** merged sweep-point
/// registry delta (counters, histograms, gauges across every layer) when
/// its plan produces one — the figures, the rate sweeps and `workload`
/// all do. Experiments whose plans contribute none (the tables, the
/// claims check, ...) fall back to a fixed
/// representative ping-pong (`representative_run`) on their registry
/// row's fabric. Either way the section is a function of deterministic
/// simulations only — byte-identical across runs and `--jobs` widths;
/// only the `runner` section (the pool self-profile passed in) is host
/// wall-clock.
pub fn metrics_report(
    id: &str,
    scale_name: &str,
    sim: Option<&SimContribution>,
    runner: &PoolStats,
) -> String {
    match sim {
        Some(c) => metrics::render(id, scale_name, &c.registry, c.simulated_ps, runner),
        None => {
            let r = representative_run(experiment(id).fabric);
            metrics::render(id, scale_name, &r.registry, r.half_rtt, runner)
        }
    }
}

/// The Chrome-trace JSON for one experiment (`--trace ID`), loadable in
/// `chrome://tracing` or Perfetto: the recorded events of one round trip
/// of [`profile::direct_pingpong`], the GPU-controlled 1 KiB put/notify
/// ping-pong that `profile` attributes, on the experiment's registry
/// fabric. Hardware layers group into one process per node
/// (`node0/gpu`, `node0/pcie`, ...). Deterministic — byte-identical
/// across runs.
pub fn trace_report(id: &str) -> String {
    let (cluster, _) = profile::direct_pingpong(experiment(id).fabric, 1, true);
    let mut events = cluster.sim.recorder().take_events();
    if id == "profile" {
        // The profile experiment's telemetry windows ride along as
        // Perfetto counter tracks next to the span trace.
        if let profile::ProfilePoint::Series(run) = profile::point(profile::POINTS - 1) {
            events.extend(run.series.counter_events());
        }
    }
    tc_trace::chrome::to_chrome_json(&events)
}

/// One row of [`EXPERIMENTS`]: everything `reproduce` needs to know
/// about an experiment id.
pub struct Experiment {
    /// The id `reproduce` accepts and names output files after.
    pub id: &'static str,
    /// Builds the experiment's plan at a scale.
    plan: fn(Scale, &WorkloadKnobs) -> ExperimentPlan,
    /// The fabric of the id's representative run: the `--trace` ping-pong
    /// and the `--metrics` fallback scenario.
    fabric: Backend,
}

const fn row(
    id: &'static str,
    plan: fn(Scale, &WorkloadKnobs) -> ExperimentPlan,
    fabric: Backend,
) -> Experiment {
    Experiment { id, plan, fabric }
}

/// Every experiment `reproduce` accepts, in the order it runs them all.
/// Dispatch, CLI id validation, the `--help` list and the `--metrics` and
/// `--trace` fabric all read this table.
pub static EXPERIMENTS: [Experiment; 21] = [
    row("pingpong", plan_pingpong, Extoll),
    row("workload", plan_workload, Extoll),
    row("crossover", plan_crossover, Extoll),
    row("profile", plan_profile, Extoll),
    row("fig1a", plan_fig1a, Extoll),
    row("fig1b", plan_fig1b, Extoll),
    row("fig2", plan_fig2, Extoll),
    row("fig3", plan_fig3, Extoll),
    row("fig4a", plan_fig4a, Infiniband),
    row("fig4b", plan_fig4b, Infiniband),
    row("fig5", plan_fig5, Infiniband),
    row("table1", plan_table1, Extoll),
    row("table2", plan_table2, Infiniband),
    row("verbs-instr", plan_verbs_instr, Infiniband),
    row("ablations", plan_ablations, Extoll),
    row("staging", plan_staging, Extoll),
    row("twosided", plan_twosided, Extoll),
    row("velo", plan_velo, Extoll),
    row("scaling", plan_scaling, Extoll),
    row("sensitivity", plan_sensitivity, Extoll),
    row("check", plan_check, Extoll),
];

/// Every experiment id, in table order, joined by `sep`.
pub(crate) fn known_ids(sep: &str) -> String {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    ids.join(sep)
}

/// The registry row of `id`.
///
/// Panics on an unknown id (the `reproduce` CLI validates ids before
/// anything runs).
pub fn experiment(id: &str) -> &'static Experiment {
    EXPERIMENTS
        .iter()
        .find(|e| e.id == id)
        .unwrap_or_else(|| panic!("unknown experiment {id:?}; known: {}", known_ids(", ")))
}

/// Build the execution plan of one experiment by id.
pub fn plan(id: &str, scale: Scale, knobs: &WorkloadKnobs) -> ExperimentPlan {
    (experiment(id).plan)(scale, knobs)
}

/// Run one experiment by id with default knobs on `pool` and return its
/// text report. The output is byte-identical for every pool width — the
/// golden test (`tests/parallel_golden.rs`) enforces this.
pub fn run_experiment(pool: &Pool, id: &str, scale: Scale) -> String {
    let (mut outputs, _) = run_all(pool, &[id], scale, &WorkloadKnobs::default());
    outputs.remove(0).text
}

/// Run many experiments as **one** flattened task list: the pool schedules
/// every sweep point of every experiment, so a slow experiment cannot
/// serialize the rest. Outputs (text report + per-experiment sim
/// contribution) are returned in `ids` order, together with the pool's
/// self-profile of the batch (host wall-clock; the reports themselves
/// never depend on it).
///
/// An experiment that a selected one reads (`check` reads its figures)
/// but that `ids` leaves out runs too, after the selected ones; its
/// report is not returned. Each plan is built once, so `check` inside a
/// batch reads the same texts it reads alone.
pub fn run_all(
    pool: &Pool,
    ids: &[&str],
    scale: Scale,
    knobs: &WorkloadKnobs,
) -> (Vec<ExperimentOutput>, PoolStats) {
    let mut run = ids.to_vec();
    let mut plans: Vec<ExperimentPlan> = ids.iter().map(|id| plan(id, scale, knobs)).collect();
    let reads: Vec<&str> = plans.iter().flat_map(|p| p.reads).copied().collect();
    for id in reads {
        if !run.contains(&id) {
            run.push(id);
            plans.push(plan(id, scale, knobs));
        }
    }
    let mut tasks: Vec<Task> = Vec::new();
    let mut labels = Vec::new();
    let mut renders = Vec::new();
    for (id, p) in run.iter().zip(plans) {
        labels.extend((0..p.tasks.len()).map(|i| format!("{id}[{i}]")));
        tasks.extend(p.tasks);
        renders.push((p.reads, p.render));
    }
    let mut stats = pool.run_tasks(tasks);
    stats.task_labels = labels;
    // Plans that read nothing render first; the readers then read them.
    let (readers, plain): (Vec<_>, Vec<_>) =
        (renders.into_iter().enumerate()).partition(|(_, (reads, _))| !reads.is_empty());
    let mut outputs: Vec<Option<ExperimentOutput>> = run.iter().map(|_| None).collect();
    for (k, (_, render)) in plain.into_iter().chain(readers) {
        let printed: Vec<(&str, &str)> = (run.iter().zip(&outputs))
            .filter_map(|(id, out)| Some((*id, out.as_ref()?.text.as_str())))
            .collect();
        outputs[k] = Some(render(&printed));
    }
    outputs.truncate(ids.len());
    (outputs.into_iter().map(Option::unwrap).collect(), stats)
}

/// The ids of the `(id, report)` pairs whose report prints a `[FAIL]`
/// line: a paper claim, a latency attribution or a checked result that
/// did not hold. `reproduce` exits 1 when there is any.
pub fn failed<'a>(reports: impl IntoIterator<Item = (&'a str, &'a str)>) -> Vec<&'a str> {
    let failing = reports
        .into_iter()
        .filter(|(_, text)| text.contains("[FAIL]"));
    failing.map(|(id, _)| id).collect()
}

/// Human-friendly formatting of a simulated duration.
pub fn fmt_us(t: tc_putget::time::Time) -> String {
    format!("{:.2} us", time::to_us_f64(t))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_is_smaller_than_full() {
        let q = Scale::quick();
        let f = Scale::full();
        assert!(q.iters < f.iters && q.rate_msgs < f.rate_msgs);
    }

    #[test]
    fn bw_msgs_caps_total_volume() {
        let s = Scale::quick();
        assert_eq!(bw_msgs(s, 1), s.bw_messages);
        assert!(bw_msgs(s, 64 << 20) >= 8);
        assert!(bw_msgs(s, 16 << 20) <= s.bw_messages);
    }

    fn tasks(id: &str) -> usize {
        plan(id, Scale::quick(), &WorkloadKnobs::default()).task_count()
    }

    #[test]
    fn every_experiment_has_a_plan_with_tasks() {
        // `check` alone reads what its figures print instead.
        for e in &EXPERIMENTS {
            assert_eq!(tasks(e.id) == 0, e.id == "check", "{}", e.id);
        }
        // The figures decompose point-wise, not mode-wise.
        assert_eq!(tasks("fig1a"), 4 * 9);
        // profile: serial/sharded tag pingpong, two crossover points, the
        // put/notify pingpong, one telemetry-sampled workload run.
        assert_eq!(tasks("profile"), 6);
        assert_eq!(tasks("table1"), 2);
        // The extension sweeps decompose per size, so a wide --jobs run
        // is not serialized behind one long task.
        assert_eq!(tasks("staging"), 7);
        assert_eq!(tasks("twosided"), 5);
        assert_eq!(tasks("velo"), 3);
        // workload: backend x process x load points.
        assert_eq!(tasks("workload"), 2 * 2 * 4);
        let knobs = WorkloadKnobs {
            conns: 2,
            loads: vec![8.0, 64.0],
            ..WorkloadKnobs::default()
        };
        assert_eq!(
            plan("workload", Scale::quick(), &knobs).task_count(),
            2 * 2 * 2
        );
        // crossover: backend x protocol x size grid + backend x app x
        // payload sweep, one simulation per cell.
        assert_eq!(tasks("crossover"), 2 * 2 * 7 + 2 * 3 * 2);
        // scaling: one point per default ring size.
        assert_eq!(tasks("scaling"), scaling_mod::node_counts(false).len());
    }

    #[test]
    fn plan_points_render_sees_results_in_index_order() {
        let p = plan_points(8, |i| i * 10, |v| format!("{v:?}"));
        let out = p.run(&Pool::new(4));
        assert_eq!(out.text, "[0, 10, 20, 30, 40, 50, 60, 70]");
        assert!(out.sim.is_none(), "bare plan_points contributes no sim");
    }

    #[test]
    fn sim_contributions_fold_deterministically() {
        let mk = || {
            plan_points_sim(
                6,
                |i| i as u64,
                |&i| {
                    let reg = tc_trace::Registry::new();
                    reg.counter("x.total").add(i);
                    reg.histogram("x.lat_ps").record(1 << i);
                    Some(SimContribution::point(reg.snapshot(), 10 * i))
                },
                |v| format!("{v:?}"),
            )
        };
        let serial = mk().run(&Pool::serial());
        let wide = mk().run(&Pool::new(4));
        let (a, b) = (serial.sim.unwrap(), wide.sim.unwrap());
        assert_eq!(a.registry, b.registry, "merge order must not matter");
        assert_eq!(a.simulated_ps, 10 * (1 + 2 + 3 + 4 + 5));
        assert_eq!(a.registry.get("x.total"), 1 + 2 + 3 + 4 + 5);
        assert_eq!(a.registry.histogram("x.lat_ps").unwrap().count, 6);
    }

    #[test]
    fn verbs_instr_report_contains_both_counts() {
        let r = verbs_instr_report();
        assert!(r.contains("ibv_post_send"));
        assert!(r.contains("442") && r.contains("283"));
    }

    #[test]
    fn pingpong_report_summarizes_the_smoke_run() {
        let r = run_experiment(&Pool::serial(), "pingpong", Scale::quick());
        assert!(r.contains("half round trip") && r.contains("us"), "{r}");
        assert!(r.contains("gpu instructions"), "{r}");
    }

    #[test]
    fn metrics_report_validates_and_is_deterministic() {
        let stats = PoolStats::default();
        let a = metrics_report("pingpong", "quick", None, &stats);
        metrics::validate(&a).expect("emitted metrics must pass the schema self-check");
        let b = metrics_report("pingpong", "quick", None, &stats);
        assert_eq!(a, b, "sim section must be byte-identical across runs");
        assert!(a.contains("\"gpu0.instructions\""), "{a}");
        assert!(a.contains("\"extoll0.wr_queue_depth\""), "{a}");
        // The IB family maps to the verbs scenario.
        let ib = metrics_report("table2", "quick", None, &stats);
        metrics::validate(&ib).unwrap();
        assert!(ib.contains("\"ib0.doorbells\""), "{ib}");
    }

    #[test]
    fn experiment_sim_contribution_feeds_its_metrics() {
        // An experiment whose plan carries registry deltas exports its
        // own sweep counters, not the representative ping-pong's.
        let stats = PoolStats::default();
        let knobs = WorkloadKnobs::default();
        let out = plan("pingpong", Scale::quick(), &knobs).run(&Pool::serial());
        let sim = out.sim.expect("pingpong contributes its own registry");
        let json = metrics_report("pingpong", "quick", Some(&sim), &stats);
        metrics::validate(&json).unwrap();
        assert!(json.contains(&format!("\"simulated_ps\": {}", sim.simulated_ps)));
        assert!(json.contains("\"gpu0.instructions\""), "{json}");
        // Byte-identical across pool widths.
        let wide = plan("pingpong", Scale::quick(), &knobs).run(&Pool::new(4));
        let json_wide = metrics_report("pingpong", "quick", wide.sim.as_ref(), &stats);
        assert_eq!(json, json_wide);
    }

    #[test]
    fn trace_report_is_deterministic_and_grouped_per_node() {
        let a = trace_report("pingpong");
        assert_eq!(a, trace_report("pingpong"));
        assert!(a.contains("\"node0/gpu\"") && a.contains("\"node1/"), "{a}");
        let ib = trace_report("fig5");
        assert!(ib.contains("\"node0/"), "{ib}");
    }

    #[test]
    fn profile_plan_is_byte_identical_across_jobs_and_emits_series() {
        let knobs = WorkloadKnobs::default();
        let serial = plan("profile", Scale::quick(), &knobs).run(&Pool::serial());
        let wide = plan("profile", Scale::quick(), &knobs).run(&Pool::new(4));
        assert_eq!(
            serial.text, wide.text,
            "profile text must not depend on --jobs"
        );
        assert_eq!(serial.series, wide.series);
        let series = serial.series.expect("profile emits telemetry");
        metrics::validate_timeseries(&series)
            .expect("emitted telemetry must pass the schema self-check");
        assert!(!serial.text.contains("[FAIL]"), "{}", serial.text);
        // The profile trace carries the telemetry as counter tracks.
        let trace = trace_report("profile");
        assert!(trace.contains("\"ph\":\"C\""), "{trace}");
    }

    #[test]
    fn table_reports_include_paper_reference_columns() {
        let t = run_experiment(&Pool::serial(), "table1", Scale::quick());
        assert!(t.contains("sysmem(paper)"));
        assert!(t.contains("4368")); // paper's headline value
        let t2 = run_experiment(&Pool::serial(), "table2", Scale::quick());
        assert!(t2.contains("123297"));
    }

    /// `Snapshot::get` reads a name nothing registered as 0, so a
    /// misspelled row key would print a silent 0 (and pass Table I's
    /// devmem `sysmem reads = 0` claim): every key the counter rows and the
    /// smoke report read must be registered in the run they read.
    #[test]
    fn counter_rows_read_registered_counters() {
        let registered = |run: &Snapshot, key: &str| run.iter().any(|(n, _)| n == key);
        for (run, rows) in [
            (table1_case(false), &TABLE1[..]),
            (table1_case(true), &TABLE1[..]),
            (table2_case(false), &TABLE2[..]),
            (table2_case(true), &TABLE2[..]),
        ] {
            for (label, key, _) in rows {
                assert!(registered(&run, key), "{label}: {key} is not registered");
            }
        }
        let smoke = plan("pingpong", Scale::quick(), &WorkloadKnobs::default())
            .run(&Pool::serial())
            .sim
            .expect("pingpong contributes its own registry");
        assert!(registered(&smoke.registry, "gpu0.instructions"));
    }

    #[test]
    fn registry_fabric_and_exit_gate_match_the_experiments() {
        let ib: Vec<&str> = EXPERIMENTS
            .iter()
            .filter(|e| e.fabric == Backend::Infiniband)
            .map(|e| e.id)
            .collect();
        assert_eq!(ib, ["fig4a", "fig4b", "fig5", "table2", "verbs-instr"]);
        // One exit rule for every experiment: any `[FAIL]` line, such as
        // a wrong all-reduce sum, fails the run.
        let mut wrong = scaling_mod::point(2, 64);
        wrong.verified = false;
        let scaling = scaling_mod::render(64, &[wrong]);
        let verbs = verbs_instr_report();
        let reports = [
            ("verbs-instr", verbs.as_str()),
            ("scaling", scaling.as_str()),
        ];
        assert_eq!(failed(reports), ["scaling"]);
    }
}
