//! Reproduce the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p tc-bench --bin reproduce -- [--quick|--full] \
//!     [--jobs N] [--out DIR] [--metrics DIR] [--trace ID] [--verbose] \
//!     [--conns N] [--load LIST] [experiment ...]
//! ```
//!
//! With no experiment ids, every experiment in
//! [`tc_bench::EXPERIMENTS`] runs. Ids and flags are validated before
//! anything runs: an unknown id or flag prints a usage error and exits
//! with status 2. Sweep points of all selected experiments are flattened
//! into one task list and scheduled on `--jobs` worker threads (default:
//! available parallelism); the output is byte-identical to `--jobs 1`.
//!
//! `--metrics DIR` additionally writes `DIR/<experiment>.metrics.json`
//! (schema `tc-metrics-v1`) per selected experiment, and `--trace ID`
//! writes `ID.trace.json` (a Chrome/Perfetto trace) into the metrics
//! directory, the `--out` directory, or the working directory — whichever
//! exists first. `--validate-metrics FILE` runs the schema self-check on
//! an emitted file and exits without running any experiment.
//!
//! `--metrics DIR` also writes `DIR/<experiment>.timeseries.json` (schema
//! `tc-timeseries-v1`) for experiments that sample telemetry windows.
//!
//! `--verbose` ends with the runner self-profile on stderr: pool summary,
//! the five slowest tasks and, where `/proc/self/status` is readable, the
//! process peak resident set (`VmHWM`).
//!
//! If any selected experiment prints a `[FAIL]` line (a paper claim, a
//! latency attribution or a checked result that did not hold), the
//! process exits with status 1, naming each such experiment, so CI can
//! gate on it.

use std::io::Write as _;
use std::process::exit;
use std::time::Instant;

use tc_bench::cli::{parse, usage, Options};
use tc_bench::pool::Pool;
use tc_bench::{
    desimbench, failed, metrics, metrics_report, run_all, trace_report, Scale, WorkloadKnobs,
    EXPERIMENTS,
};

fn write_file(path: &str, contents: &str) {
    match std::fs::File::create(path) {
        Ok(mut f) => {
            let _ = f.write_all(contents.as_bytes());
        }
        Err(e) => eprintln!("warning: cannot write {path}: {e}"),
    }
}

/// This process's peak resident set in MiB: `VmHWM` from
/// `/proc/self/status`, or `None` where that cannot be read.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    vm_hwm_mib(&status)
}

/// The `VmHWM` line of a `/proc/<pid>/status` text, in MiB.
fn vm_hwm_mib(status: &str) -> Option<f64> {
    let kib = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = kib.trim().strip_suffix("kB")?.trim_end().parse().ok()?;
    Some(kib / 1024.0)
}

fn main() {
    let opts: Options = match parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", usage());
            exit(2);
        }
    };
    if opts.help {
        println!("{}", usage());
        return;
    }

    if let Some(file) = &opts.validate_metrics {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {file:?}: {e}");
                exit(2);
            }
        };
        // Dispatch on the document's schema: desim-bench reports,
        // telemetry time series, and per-experiment metrics share one
        // validation entry point.
        let (schema, result) = if text.contains(desimbench::SCHEMA) {
            (desimbench::SCHEMA, desimbench::validate(&text))
        } else if text.contains(tc_trace::series::SCHEMA) {
            (
                tc_trace::series::SCHEMA,
                metrics::validate_timeseries(&text),
            )
        } else {
            (metrics::SCHEMA, metrics::validate(&text))
        };
        match result {
            Ok(()) => {
                println!("{file}: valid {schema}");
                return;
            }
            Err(e) => {
                eprintln!("error: {file}: {e}");
                exit(1);
            }
        }
    }

    if let Some((old_file, new_file)) = &opts.bench_compare {
        let read = |f: &str| {
            std::fs::read_to_string(f).unwrap_or_else(|e| {
                eprintln!("error: cannot read {f:?}: {e}");
                exit(2);
            })
        };
        let (old_text, new_text) = (read(old_file), read(new_file));
        match desimbench::compare(&old_text, &new_text) {
            Ok((report, regressed)) => {
                print!("{report}");
                if regressed {
                    eprintln!(
                        "error: wheel throughput regressed by more than {:.0}%",
                        desimbench::REGRESSION_LIMIT * 100.0
                    );
                    exit(1);
                }
                return;
            }
            Err(e) => {
                eprintln!("error: {e}");
                exit(2);
            }
        }
    }

    if let Some(file) = &opts.bench_desim {
        let (samples, results, shard_ring) = desimbench::run_suite();
        for r in &results {
            println!(
                "# {}: {:.0} events/s wheel vs {:.0} events/s ref-heap ({:.2}x)",
                r.name,
                r.wheel_eps,
                r.heap_eps,
                r.speedup()
            );
        }
        for r in &shard_ring {
            println!(
                "# shard_ring/{}: {:.0} events/s across {} worker(s)",
                r.shards, r.eps, r.shards
            );
        }
        let text = desimbench::render(samples, &results, &shard_ring);
        if let Err(e) = desimbench::validate(&text) {
            eprintln!("error: generated report failed self-validation: {e}");
            exit(1);
        }
        write_file(file, &text);
        println!("# wrote {file} (schema {})", desimbench::SCHEMA);
        return;
    }

    let scale = if opts.full {
        Scale::full()
    } else {
        Scale::quick()
    };
    let scale_name = if opts.full { "full" } else { "quick" };
    let jobs = opts
        .jobs
        .unwrap_or_else(tc_bench::pool::available_parallelism);
    let pool = Pool::new(jobs);

    let ids: Vec<&str> = if opts.ids.is_empty() {
        EXPERIMENTS.iter().map(|e| e.id).collect()
    } else {
        opts.ids.iter().map(|s| s.as_str()).collect()
    };

    for dir in [&opts.out_dir, &opts.metrics_dir].into_iter().flatten() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create directory {dir:?}: {e}");
            exit(2);
        }
    }

    let knobs = WorkloadKnobs::from_options(&opts);
    let t0 = Instant::now();
    let (outputs, stats) = run_all(&pool, &ids, scale, &knobs);
    let elapsed = t0.elapsed();

    for (id, out) in ids.iter().zip(&outputs) {
        println!("{}", out.text);
        if let Some(dir) = &opts.out_dir {
            write_file(&format!("{dir}/{id}.txt"), &out.text);
        }
        if let Some(dir) = &opts.metrics_dir {
            write_file(
                &format!("{dir}/{id}.metrics.json"),
                &metrics_report(id, scale_name, out.sim.as_ref(), &stats),
            );
            if let Some(series) = &out.series {
                write_file(&format!("{dir}/{id}.timeseries.json"), series);
            }
        }
    }

    if let Some(id) = &opts.trace {
        let dir = opts
            .metrics_dir
            .as_deref()
            .or(opts.out_dir.as_deref())
            .unwrap_or(".");
        write_file(&format!("{dir}/{id}.trace.json"), &trace_report(id));
    }

    if opts.verbose {
        eprintln!("{}", stats.summary());
        if let Some(mib) = peak_rss_mib() {
            eprintln!("#   peak rss   {mib:>10.1} MiB (VmHWM)");
        }
    }
    eprintln!(
        "# {} experiment(s) in {:.1}s with {} job(s)",
        ids.len(),
        elapsed.as_secs_f64(),
        pool.jobs()
    );
    let texts = outputs.iter().map(|out| out.text.as_str());
    let failed = failed(ids.iter().copied().zip(texts));
    if !failed.is_empty() {
        eprintln!("error: [FAIL] printed by {}", failed.join(", "));
        exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_in_mib() {
        let status = "Name:\treproduce\nVmPeak:\t  999 kB\nVmHWM:\t   65536 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(vm_hwm_mib(status), Some(64.0));
        assert_eq!(vm_hwm_mib("Name:\treproduce\n"), None);
        assert_eq!(vm_hwm_mib("VmHWM:\t12 MB\n"), None);
    }
}
