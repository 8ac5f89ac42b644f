//! The repository benchmark: one workload, one seed, one fresh process.
//!
//! ```text
//! benchmark --workload NAME --seed N [--seconds S] [--trace 0|1] [--out DIR]
//! ```
//!
//! Untraced (`--trace 0`), it repeats the workload's fixed work until
//! `--seconds` have passed (at least three repetitions for the in-process
//! workloads, one `reproduce` run for `paper-full`) and reports medians.
//! Traced (`--trace 1`), it runs the workload once untraced, for the
//! layer counts and the overhead base, then once with every call the
//! benchmark makes into a layer wrapped in a host-time span, and writes
//! the spans to `DIR/<workload>.spans.json`.
//!
//! Every metric is printed as `<name> <value> <unit>` and written to
//! `DIR/<workload>.seed<N>.trace<T>.json`. The last line of standard
//! output is one JSON object with the metrics `BENCHMARK.json` lists for
//! the mode. The exit status is 1 if any correctness check failed.

mod host;
mod openloop;
mod paper;
mod pingpong;
mod rep;
mod ring;
mod span;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::rc::Rc;
use std::time::Instant;

use host::{calibrate, cpu_seconds, median, peak_rss_mib, quartiles, CALIBRATION_REF_S};
use rep::{Checks, Mode, Rep};
use span::Layer;

/// The workloads, by the names `BENCHMARK.json` and later changes use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    PaperFull,
    PingpongSmall,
    OpenLoop,
    Ring256,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::PaperFull,
        Workload::PingpongSmall,
        Workload::OpenLoop,
        Workload::Ring256,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::PaperFull => "paper-full",
            Workload::PingpongSmall => "pingpong-small",
            Workload::OpenLoop => "open-loop",
            Workload::Ring256 => "ring-256",
        }
    }
}

/// End-to-end metrics, reported with tracing off, as `BENCHMARK.json`
/// lists them.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by the traced run, as `BENCHMARK.json`
/// lists them. A layer a workload does not use reports 0.
const PER_LAYER: [(&str, &str); 43] = [
    ("host.cluster_build_s", "s"),
    ("host.connect_s", "s"),
    ("host.transport_s", "s"),
    ("host.transport_calls", "count"),
    ("host.msg_s", "s"),
    ("host.msg_calls", "count"),
    ("host.collective_s", "s"),
    ("host.gpu_s", "s"),
    ("host.gpu_calls", "count"),
    ("host.cpu_s", "s"),
    ("host.cpu_calls", "count"),
    ("host.sim_other_s", "s"),
    ("host.verify_s", "s"),
    ("host.trace_overhead_pct", "%"),
    ("host.ns_per_sim_us", "ns/us"),
    ("host.ns_per_op", "ns"),
    ("host.phase_low_s", "s"),
    ("host.phase_high_s", "s"),
    ("runner.max_task_s", "s"),
    ("runner.utilization", "ratio"),
    ("runner.ledger_s", "s"),
    ("exp.fig3_s", "s"),
    ("gpu.loads_per_op", "count"),
    ("gpu.instructions", "count"),
    ("gpu.sysmem_reads", "count"),
    ("gpu.l2_read_hits", "count"),
    ("gpu.l2_read_misses", "count"),
    ("cpu.loads_per_op", "count"),
    ("pcie.reads", "count"),
    ("pcie.posted_writes", "count"),
    ("pcie.dma_read_bytes", "B"),
    ("pcie.dma_write_bytes", "B"),
    ("extoll.puts", "count"),
    ("extoll.gets", "count"),
    ("extoll.notif_poll_spins_per_put", "count"),
    ("extoll.velo_drops", "count"),
    ("ib.doorbells", "count"),
    ("ib.cq_poll_spins_per_wqe", "count"),
    ("ib.rnr_events", "count"),
    ("msg.eager_sends", "count"),
    ("msg.rndv_sends", "count"),
    ("msg.credit_stalls", "count"),
    ("desim.sim_time_us", "us"),
];

/// Repetitions an untraced in-process run makes at least, and at most.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 50;
/// Set-up-only repetitions after each measured one: set-up takes
/// milliseconds, so its median needs more samples than the run's.
const EXTRA_SETUPS: usize = 9;
/// Calibration samples before and after each `reproduce` run.
const CHILD_PROBES: usize = 9;

const USAGE: &str =
    "usage: benchmark --workload NAME --seed N [--seconds S] [--trace 0|1] [--out DIR]
workloads: paper-full pingpong-small open-loop ring-256";

struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 15.0, false);
    let mut out = PathBuf::from(".bench_out");
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let w = Workload::ALL.into_iter().find(|w| w.name() == v);
                workload = Some(w.ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed expects a number, got {v:?}"))?,
                );
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| (1.0..=3600.0).contains(s))
                    .ok_or(format!("--seconds expects 1..=3600, got {v:?}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace expects 0 or 1, got {v:?}")),
                }
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        out,
    })
}

/// One measured repetition.
pub struct Measured {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Peak resident set of the process that did the work.
    pub peak_rss_mb: f64,
    pub rep: Rep,
}

fn measure(o: &Options, reproduce: &Path, mode: Mode, checks: &Rc<Checks>) -> Measured {
    let in_process = match o.workload {
        Workload::PaperFull => {
            return paper::rep(reproduce, &o.out, mode == Mode::Traced, checks);
        }
        Workload::PingpongSmall => pingpong::rep,
        Workload::OpenLoop => openloop::rep,
        Workload::Ring256 => ring::rep,
    };
    let (cpu, _) = cpu_seconds();
    let t = Instant::now();
    let rep = in_process(o.seed, mode, checks);
    Measured {
        wall_s: t.elapsed().as_secs_f64(),
        cpu_s: cpu_seconds().0 - cpu,
        // The high-water mark after one repetition in a fresh process,
        // so it does not depend on how many repetitions fit the run.
        peak_rss_mb: peak_rss_mib("self").expect("/proc/self/status is readable"),
        rep,
    }
}

/// FNV-1a over every simulated outcome and registry delta of a run.
fn digest(rep: &Rep) -> u64 {
    let mut h = rep.trail;
    for (name, v, _) in &rep.outcomes {
        h.str(name);
        h.u64(v.to_bits());
    }
    for (name, v) in &rep.counters {
        h.str(name);
        h.u64(*v);
    }
    h.0
}

type Metric = (String, f64, &'static str);

/// The simulated outcomes every mode prints: exact, a guard rather than
/// a regression metric.
fn outcomes(m: &Measured, checks: &Checks) -> Vec<Metric> {
    let mut v: Vec<Metric> = m.rep.outcomes.clone();
    // 52 bits, so the value survives a round trip through JSON.
    v.push(("sim.digest".into(), (digest(&m.rep) >> 12) as f64, "hash"));
    let frac = checks.failed() as f64 / checks.attempted().max(1) as f64;
    v.push(("fail_frac".into(), frac, "ratio"));
    v
}

fn untraced(o: &Options, reproduce: &Path, checks: &Rc<Checks>) -> Vec<Metric> {
    let start = Instant::now();
    let in_process = o.workload != Workload::PaperFull;
    let min_reps = if in_process { MIN_REPS } else { 1 };
    // Each repetition, with its set-up samples, is scaled by how much
    // slower than the reference the host ran around it: the mean of the
    // calibrations just before and just after it. A `reproduce` run is
    // one long repetition, so it gets more calibration samples.
    let probes = if in_process { 1 } else { CHILD_PROBES };
    let calibration = || median(&(0..probes).map(|_| calibrate()).collect::<Vec<_>>());
    let mut cal = calibration();
    let mut reps: Vec<(Measured, f64)> = Vec::new();
    let (mut setups, mut raw_setups) = (Vec::new(), Vec::new());
    while reps.len() < MAX_REPS
        && (reps.len() < min_reps || start.elapsed().as_secs_f64() < o.seconds)
    {
        let m = measure(o, reproduce, Mode::Untraced, checks);
        if let Some((first, _)) = reps.first() {
            let (a, b) = (digest(&first.rep), digest(&m.rep));
            checks.check(a == b, || {
                format!("digest {b:#x} differs from the first rep's {a:#x}")
            });
        }
        let mut rep_setups = vec![m.rep.setup_s];
        if in_process {
            for _ in 0..EXTRA_SETUPS {
                rep_setups.push(measure(o, reproduce, Mode::SetupOnly, checks).rep.setup_s);
            }
        }
        let next = calibration();
        let slowdown = (cal + next) / 2.0 / CALIBRATION_REF_S;
        cal = next;
        eprintln!(
            "# rep {}: {:.3} s wall, {:.3} s cpu, host slowdown {slowdown:.3}",
            reps.len() + 1,
            m.wall_s,
            m.cpu_s
        );
        setups.extend(rep_setups.iter().map(|s| s / slowdown));
        raw_setups.extend(rep_setups);
        reps.push((m, slowdown));
    }
    let col = |f: fn(&Measured, f64) -> f64| -> Vec<f64> {
        reps.iter().map(|(m, slowdown)| f(m, *slowdown)).collect()
    };
    let walls = col(|m, s| m.wall_s / s);
    let mut v: Vec<Metric> = vec![
        ("wall_s".into(), median(&walls), "s"),
        ("cpu_s".into(), median(&col(|m, s| m.cpu_s / s)), "s"),
        ("setup_s".into(), median(&setups), "s"),
        (
            "ops_per_s".into(),
            median(&col(|m, s| m.rep.ops as f64 * s / m.wall_s)),
            "1/s",
        ),
        ("peak_rss_mb".into(), reps[0].0.peak_rss_mb, "MiB"),
        ("host_slowdown".into(), median(&col(|_, s| s)), "ratio"),
        ("wall_s_raw".into(), median(&col(|m, _| m.wall_s)), "s"),
        ("cpu_s_raw".into(), median(&col(|m, _| m.cpu_s)), "s"),
        ("setup_s_raw".into(), median(&raw_setups), "s"),
        ("reps".into(), reps.len() as f64, "count"),
        ("setup_samples".into(), setups.len() as f64, "count"),
        (
            "wall_s_min".into(),
            walls.iter().copied().fold(f64::INFINITY, f64::min),
            "s",
        ),
        (
            "wall_s_max".into(),
            walls.iter().copied().fold(0.0, f64::max),
            "s",
        ),
    ];
    if walls.len() >= 2 {
        let [q1, _, q3] = quartiles(&walls);
        v.push(("wall_s_q1".into(), q1, "s"));
        v.push(("wall_s_q3".into(), q3, "s"));
    }
    v.extend(outcomes(&reps[0].0, checks));
    v
}

fn traced(o: &Options, reproduce: &Path, checks: &Rc<Checks>) -> Vec<Metric> {
    let base = measure(o, reproduce, Mode::Untraced, checks);
    span::start();
    let tr = measure(o, reproduce, Mode::Traced, checks);
    let rec = span::finish().expect("span recording was started");
    let (a, b) = (digest(&base.rep), digest(&tr.rep));
    checks.check(a == b, || {
        format!("traced digest {b:#x} differs from untraced {a:#x}")
    });
    if o.workload != Workload::PaperFull {
        let path = o.out.join(format!("{}.spans.json", o.workload.name()));
        rec.write_chrome(&path)
            .unwrap_or_else(|e| panic!("write {path:?}: {e}"));
    }

    let secs = |l: Layer| rec.totals(l).self_ns as f64 / 1e9;
    let calls = |l: Layer| rec.totals(l).calls as f64;
    let mut v: Vec<Metric> = vec![
        ("host.cluster_build_s".into(), secs(Layer::Cluster), "s"),
        ("host.connect_s".into(), secs(Layer::Connect), "s"),
        ("host.transport_s".into(), secs(Layer::Transport), "s"),
        (
            "host.transport_calls".into(),
            calls(Layer::Transport),
            "count",
        ),
        ("host.msg_s".into(), secs(Layer::Msg), "s"),
        ("host.msg_calls".into(), calls(Layer::Msg), "count"),
        ("host.collective_s".into(), secs(Layer::Collective), "s"),
        ("host.gpu_s".into(), secs(Layer::Gpu), "s"),
        ("host.gpu_calls".into(), calls(Layer::Gpu), "count"),
        ("host.cpu_s".into(), secs(Layer::Cpu), "s"),
        ("host.cpu_calls".into(), calls(Layer::Cpu), "count"),
        ("host.sim_other_s".into(), secs(Layer::Desim), "s"),
        ("host.verify_s".into(), secs(Layer::Mem), "s"),
        (
            "host.trace_overhead_pct".into(),
            100.0 * (tr.wall_s / base.wall_s - 1.0),
            "%",
        ),
        ("wall_s_untraced".into(), base.wall_s, "s"),
        ("wall_s_traced".into(), tr.wall_s, "s"),
    ];
    let r = &base.rep;
    let per = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    v.push((
        "host.ns_per_sim_us".into(),
        per(base.wall_s * 1e9, r.sim_time_us),
        "ns/us",
    ));
    v.push((
        "host.ns_per_op".into(),
        per(base.wall_s * 1e9, r.ops as f64),
        "ns",
    ));
    // Phase times and runner statistics come from the untraced run; the
    // per-experiment ledger exists only in the traced one.
    for m in r.host.iter().chain(&tr.rep.host) {
        if !v.iter().any(|x| x.0 == m.0) {
            v.push(m.clone());
        }
    }

    let c = |k: &str| r.counters.get(k).copied().unwrap_or(0) as f64;
    let ops = r.ops as f64;
    v.extend([
        (
            "gpu.loads_per_op".into(),
            per(c("gpu.l2.read_requests"), ops),
            "count",
        ),
        ("gpu.instructions".into(), c("gpu.instructions"), "count"),
        ("gpu.sysmem_reads".into(), c("gpu.sysmem.reads"), "count"),
        ("gpu.l2_read_hits".into(), c("gpu.l2.read_hits"), "count"),
        (
            "gpu.l2_read_misses".into(),
            c("gpu.l2.read_misses"),
            "count",
        ),
        ("cpu.loads_per_op".into(), per(c("cpu.loads"), ops), "count"),
        ("pcie.reads".into(), c("pcie.reads"), "count"),
        (
            "pcie.posted_writes".into(),
            c("pcie.posted_writes"),
            "count",
        ),
        ("pcie.dma_read_bytes".into(), c("pcie.dma_read_bytes"), "B"),
        (
            "pcie.dma_write_bytes".into(),
            c("pcie.dma_write_bytes"),
            "B",
        ),
        ("extoll.puts".into(), c("extoll.puts"), "count"),
        ("extoll.gets".into(), c("extoll.gets"), "count"),
        (
            "extoll.notif_poll_spins_per_put".into(),
            per(c("extoll.notif_poll_spins"), c("extoll.puts")),
            "count",
        ),
        ("extoll.velo_drops".into(), c("extoll.velo_drops"), "count"),
        ("ib.doorbells".into(), c("ib.doorbells"), "count"),
        (
            "ib.cq_poll_spins_per_wqe".into(),
            per(c("ib.cq_poll_spins"), c("ib.wqes_executed")),
            "count",
        ),
        ("ib.rnr_events".into(), c("ib.rnr_events"), "count"),
        ("msg.eager_sends".into(), c("msg.eager_sends"), "count"),
        ("msg.rndv_sends".into(), c("msg.rndv_sends"), "count"),
        ("msg.credit_stalls".into(), c("msg.credit_stalls"), "count"),
        ("desim.sim_time_us".into(), r.sim_time_us, "us"),
    ]);
    // Layers this workload does not use.
    for (name, unit) in PER_LAYER {
        if !v.iter().any(|m| m.0 == name) {
            v.push((name.into(), 0.0, unit));
        }
    }
    v.extend(outcomes(&tr, checks));
    v
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}` over
/// the named metrics.
fn result_json<'a>(checks: &Checks, metrics: impl Iterator<Item = &'a Metric>) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.failed() == 0 && checks.attempted() > 0,
        checks.attempted(),
        checks.failed()
    );
    for (i, (name, value, unit)) in metrics.enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    s + "}}"
}

fn main() {
    let o = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        exit(2);
    });
    if let Err(e) = std::fs::create_dir_all(&o.out) {
        eprintln!("error: cannot create {:?}: {e}", o.out);
        exit(2);
    }
    // `reproduce` is built next to this binary.
    let reproduce = std::env::current_exe()
        .expect("the running executable has a path")
        .with_file_name("reproduce");
    if o.workload == Workload::PaperFull && !reproduce.exists() {
        eprintln!("error: {reproduce:?} is missing; build it with `cargo build --release -p tc-bench --bin reproduce`");
        exit(2);
    }

    let checks = Rc::new(Checks::default());
    let (metrics, listed): (Vec<Metric>, &[(&str, &str)]) = if o.trace {
        (traced(&o, &reproduce, &checks), &PER_LAYER)
    } else {
        (untraced(&o, &reproduce, &checks), &END_TO_END)
    };
    for (name, value, unit) in &metrics {
        println!("{name} {value} {unit}");
    }
    let file = o.out.join(format!(
        "{}.seed{}.trace{}.json",
        o.workload.name(),
        o.seed,
        u8::from(o.trace)
    ));
    if let Err(e) = std::fs::write(&file, result_json(&checks, metrics.iter()) + "\n") {
        eprintln!("error: cannot write {file:?}: {e}");
        exit(2);
    }
    let listed = listed.iter().map(|(name, _)| {
        metrics
            .iter()
            .find(|m| m.0 == *name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"))
    });
    println!("{}", result_json(&checks, listed));
    if checks.failed() > 0 {
        exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the metrics this binary reports.
    #[test]
    fn benchmark_json_lists_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let field = |entry: &str, f: &str| {
            let at = entry.find(&format!("\"{f}\": \"")).expect(f) + f.len() + 5;
            entry[at..][..entry[at..].find('"').expect("closing quote")].to_string()
        };
        let section = |key: &str, fields: &[&str]| -> Vec<String> {
            let body = &text[text.find(&format!("\"{key}\"")).expect(key)..];
            let body = &body[..body.find(']').expect("section end")];
            let entries = body.split('{').skip(1);
            entries
                .map(|e| {
                    fields
                        .iter()
                        .map(|f| field(e, f))
                        .collect::<Vec<_>>()
                        .join(" ")
                })
                .collect()
        };
        let own = |l: &[(&str, &str)]| -> Vec<String> {
            l.iter().map(|(n, u)| format!("{n} {u}")).collect()
        };
        assert_eq!(section("end_to_end", &["name", "unit"]), own(&END_TO_END));
        assert_eq!(section("per_layer", &["name", "unit"]), own(&PER_LAYER));
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(section("workloads", &["name"]), names);
    }

    #[test]
    fn arguments_are_checked() {
        let p = |a: &str| parse(a.split_whitespace().map(str::to_string));
        let o = p("--workload ring-256 --seed 3 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            (o.workload, o.seed, o.seconds, o.trace),
            (Workload::Ring256, 3, 12.0, true)
        );
        assert!(p("--workload ring-256").is_err());
        assert!(p("--workload ring-512 --seed 1").is_err());
        assert!(p("--workload ring-256 --seed x").is_err());
        assert!(p("--workload ring-256 --seed 1 --trace 2").is_err());
        assert!(p("--workload ring-256 --seed 1 --seconds 0").is_err());
        assert!(p("--workload ring-256 --seed 1 --bogus").is_err());
    }

    #[test]
    fn result_line_shape() {
        let checks = Checks::default();
        checks.check(true, String::new);
        let m: Vec<Metric> = vec![("wall_s".into(), 1.5, "s"), ("x".into(), f64::NAN, "s")];
        assert_eq!(
            result_json(&checks, m.iter()),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"x\": {\"value\": null, \"unit\": \"s\"}}}"
        );
    }
}
