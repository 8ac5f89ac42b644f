//! Argument parsing for the `reproduce` binary, split out so the parsing
//! rules are unit-testable without spawning the binary.
//!
//! Hardening rules (each one closes a real footgun the serial runner had):
//!
//! * every experiment id is validated against [`crate::EXPERIMENTS`]
//!   **before** anything runs — a typo can no longer panic minutes into a
//!   run after earlier experiments already finished;
//! * any unrecognized `--flag` is a usage error instead of silently being
//!   treated as an experiment id (`reproduce --qiuck` used to fall through
//!   to the id list);
//! * the help text is generated from [`crate::EXPERIMENTS`], so it
//!   cannot go stale when experiments are added.

use crate::{known_ids, EXPERIMENTS};
use tc_putget::AppKind;

/// Parsed `reproduce` invocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Options {
    /// Run at the paper's full iteration counts instead of quick scale.
    pub full: bool,
    /// Also write each experiment's output to `DIR/<experiment>.txt`.
    pub out_dir: Option<String>,
    /// Worker count; `None` means available parallelism.
    pub jobs: Option<usize>,
    /// Selected experiment ids, in the order given (empty = run all).
    pub ids: Vec<String>,
    /// Also write `DIR/<experiment>.metrics.json` for each selected id.
    pub metrics_dir: Option<String>,
    /// Write a Chrome trace of this experiment's representative run.
    pub trace: Option<String>,
    /// Print the pool self-profile at the end of the run.
    pub verbose: bool,
    /// Validate FILE against the metrics schema and exit (no experiments
    /// run) — the `scripts/verify.sh` self-check entry point. Dispatches
    /// on the document's `schema` field, so both `tc-metrics-v1` and
    /// `tc-desim-bench-v1` files are accepted.
    pub validate_metrics: Option<String>,
    /// Run the DES-kernel microbench suite, write the
    /// `tc-desim-bench-v1` JSON report to FILE, and exit.
    pub bench_desim: Option<String>,
    /// Compare two `tc-desim-bench-v1` reports (OLD, NEW) and exit
    /// nonzero on a >25% wheel-throughput regression.
    pub bench_compare: Option<(String, String)>,
    /// `workload` experiment: concurrent connections per load point
    /// (1..=32); `None` means the default.
    pub conns: Option<u32>,
    /// `workload` experiment: offered loads to sweep, in kop/s per
    /// connection; `None` means the default sweep.
    pub load: Option<Vec<f64>>,
    /// `workload` experiment: drive connections with an application
    /// pattern (halo, allreduce, rpc) through the message layer instead
    /// of the raw put/get/send mix.
    pub app: Option<AppKind>,
    /// Message-layer eager/rendezvous threshold override in bytes;
    /// `None` uses each backend's default.
    pub eager_threshold: Option<usize>,
    /// `scaling` experiment: ring sizes to sweep (powers of two,
    /// 2..=512); `None` means the scale-dependent default.
    pub nodes: Option<Vec<usize>>,
    /// `--help` / `-h` was given.
    pub help: bool,
}

/// The usage text, with the experiment list generated from
/// [`EXPERIMENTS`].
pub fn usage() -> String {
    format!(
        "usage: reproduce [--quick|--full] [--jobs N] [--out DIR] [--metrics DIR]\n\
         \x20                [--trace ID] [--verbose] [EXPERIMENT...]\n\
         \x20      reproduce --validate-metrics FILE\n\
         \x20      reproduce --bench-desim FILE\n\
         \x20      reproduce --bench-compare OLD NEW\n\
         \n\
         options:\n\
         \x20 --quick        CI-scale iteration counts (default)\n\
         \x20 --full         the paper's iteration counts\n\
         \x20 --jobs N       run up to N experiments/sweep points concurrently\n\
         \x20                (default: available parallelism; output is\n\
         \x20                byte-identical for every N)\n\
         \x20 --out DIR      also write each experiment to DIR/<experiment>.txt\n\
         \x20 --metrics DIR  also write DIR/<experiment>.metrics.json for each\n\
         \x20                selected experiment (schema tc-metrics-v1)\n\
         \x20 --trace ID     also write a Chrome trace (ID.trace.json, loadable\n\
         \x20                in chrome://tracing or Perfetto) of ID's\n\
         \x20                representative run\n\
         \x20 --ids LIST     comma-separated experiment ids (same as listing\n\
         \x20                them as positional arguments)\n\
         \x20 --conns N      workload: concurrent connections per load point\n\
         \x20                (1..=32, default 4)\n\
         \x20 --load LIST    workload: comma-separated offered loads to sweep,\n\
         \x20                in kop/s per connection (positive numbers,\n\
         \x20                default 4,16,64,256)\n\
         \x20 --app NAME     workload: drive connections with an application\n\
         \x20                pattern through the message layer (halo,\n\
         \x20                allreduce, rpc; default: raw put/get/send mix)\n\
         \x20 --eager-threshold N\n\
         \x20                message layer: switch to rendezvous above N bytes\n\
         \x20                (default: per-backend crossover; see the\n\
         \x20                crossover experiment)\n\
         \x20 --nodes LIST   scaling: comma-separated ring sizes to sweep\n\
         \x20                (powers of two in 2..=512; above 32 nodes the\n\
         \x20                simulation runs sharded, one worker per 32\n\
         \x20                nodes; default 2,4,8,16,64, --full adds\n\
         \x20                128,256)\n\
         \x20 -v, --verbose  print the runner self-profile at the end\n\
         \x20 --validate-metrics FILE\n\
         \x20                check FILE against its schema (tc-metrics-v1 or\n\
         \x20                tc-desim-bench-v1) and exit\n\
         \x20 --bench-desim FILE\n\
         \x20                run the DES-kernel microbenchmarks (timing wheel\n\
         \x20                vs reference heap) and write FILE (schema\n\
         \x20                tc-desim-bench-v1)\n\
         \x20 --bench-compare OLD NEW\n\
         \x20                print per-benchmark events/sec deltas between two\n\
         \x20                reports; exit 1 on a >25% regression\n\
         \x20 -h, --help     this message\n\
         \n\
         known experiments: {}",
        known_ids(" ")
    )
}

fn parse_jobs(v: &str) -> Result<usize, String> {
    match v.parse::<usize>() {
        Ok(0) => Err("--jobs must be at least 1".to_string()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("--jobs expects a number, got {v:?}")),
    }
}

fn parse_conns(v: &str) -> Result<u32, String> {
    match v.parse::<u32>() {
        Ok(n) if (1..=32).contains(&n) => Ok(n),
        Ok(n) => Err(format!("--conns must be in 1..=32, got {n}")),
        Err(_) => Err(format!("--conns expects a number, got {v:?}")),
    }
}

fn parse_app(v: &str) -> Result<AppKind, String> {
    AppKind::parse(v).ok_or_else(|| {
        let names: Vec<&str> = AppKind::ALL.iter().map(|k| k.label()).collect();
        format!("--app expects one of {}, got {v:?}", names.join(", "))
    })
}

fn parse_eager_threshold(v: &str) -> Result<usize, String> {
    v.parse::<usize>()
        .map_err(|_| format!("--eager-threshold expects a byte count, got {v:?}"))
}

fn parse_nodes(list: &str) -> Result<Vec<usize>, String> {
    let nodes: Vec<usize> = list
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            let n = s
                .parse::<usize>()
                .map_err(|_| format!("--nodes expects numbers, got {s:?}"))?;
            // Powers of two keep the vector evenly partitionable and the
            // shard rule (one worker per 32 nodes) exact; 512 is the
            // cluster builder's upper bound.
            if (2..=512).contains(&n) && n.is_power_of_two() {
                Ok(n)
            } else {
                Err(format!(
                    "--nodes values must be powers of two in 2..=512, got {s:?}"
                ))
            }
        })
        .collect::<Result<_, _>>()?;
    if nodes.is_empty() {
        return Err("--nodes needs at least one value".to_string());
    }
    Ok(nodes)
}

fn parse_load(list: &str) -> Result<Vec<f64>, String> {
    let loads: Vec<f64> = list
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse::<f64>()
                .map_err(|_| format!("--load expects numbers, got {s:?}"))
                .and_then(|x| {
                    if x.is_finite() && x > 0.0 {
                        Ok(x)
                    } else {
                        Err(format!("--load values must be positive, got {s:?}"))
                    }
                })
        })
        .collect::<Result<_, _>>()?;
    if loads.is_empty() {
        return Err("--load needs at least one value".to_string());
    }
    Ok(loads)
}

/// Parse the arguments after the program name. Returns a usage error for
/// unknown flags, malformed values, and unknown experiment ids — before
/// any experiment has run.
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.full = false,
            "--full" => opts.full = true,
            "--out" => {
                opts.out_dir = Some(args.next().ok_or("--out needs a directory")?);
            }
            "--metrics" => {
                opts.metrics_dir = Some(args.next().ok_or("--metrics needs a directory")?);
            }
            "--trace" => {
                opts.trace = Some(args.next().ok_or("--trace needs an experiment id")?);
            }
            "--ids" => {
                let list = args.next().ok_or("--ids needs a comma-separated list")?;
                let ids = list.split(',').filter(|s| !s.is_empty());
                let before = opts.ids.len();
                opts.ids.extend(ids.map(str::to_string));
                if opts.ids.len() == before {
                    return Err(format!("--ids needs at least one id, got {list:?}"));
                }
            }
            "--validate-metrics" => {
                opts.validate_metrics = Some(args.next().ok_or("--validate-metrics needs a file")?);
            }
            "--bench-desim" => {
                opts.bench_desim = Some(args.next().ok_or("--bench-desim needs a file")?);
            }
            "--bench-compare" => {
                let old = args
                    .next()
                    .ok_or("--bench-compare needs OLD and NEW files")?;
                let new = args
                    .next()
                    .ok_or("--bench-compare needs OLD and NEW files")?;
                opts.bench_compare = Some((old, new));
            }
            "--conns" => {
                let v = args.next().ok_or("--conns needs a connection count")?;
                opts.conns = Some(parse_conns(&v)?);
            }
            "--load" => {
                let v = args.next().ok_or("--load needs a comma-separated list")?;
                opts.load = Some(parse_load(&v)?);
            }
            "--app" => {
                let v = args.next().ok_or("--app needs a pattern name")?;
                opts.app = Some(parse_app(&v)?);
            }
            "--eager-threshold" => {
                let v = args.next().ok_or("--eager-threshold needs a byte count")?;
                opts.eager_threshold = Some(parse_eager_threshold(&v)?);
            }
            "--nodes" => {
                let v = args.next().ok_or("--nodes needs a comma-separated list")?;
                opts.nodes = Some(parse_nodes(&v)?);
            }
            "--verbose" | "-v" => opts.verbose = true,
            "--jobs" | "-j" => {
                let v = args.next().ok_or("--jobs needs a worker count")?;
                opts.jobs = Some(parse_jobs(&v)?);
            }
            "--help" | "-h" => opts.help = true,
            other if other.starts_with("--jobs=") => {
                opts.jobs = Some(parse_jobs(&other["--jobs=".len()..])?);
            }
            other if other.starts_with('-') && other.len() > 1 => {
                return Err(format!("unknown flag {other:?}"));
            }
            other => opts.ids.push(other.to_string()),
        }
    }
    let unknown: Vec<&str> = opts
        .ids
        .iter()
        .chain(opts.trace.iter())
        .map(String::as_str)
        .filter(|id| !EXPERIMENTS.iter().any(|e| e.id == *id))
        .collect();
    if !unknown.is_empty() {
        return Err(format!(
            "unknown experiment{} {}; known: {}",
            if unknown.len() == 1 { "" } else { "s" },
            unknown.join(", "),
            known_ids(", ")
        ));
    }
    Ok(opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<Options, String> {
        parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_run_everything_quick_auto_jobs() {
        let o = p(&[]).unwrap();
        assert_eq!(o, Options::default());
    }

    #[test]
    fn known_ids_pass_in_order() {
        let o = p(&["table2", "fig1a", "check"]).unwrap();
        assert_eq!(o.ids, vec!["table2", "fig1a", "check"]);
    }

    #[test]
    fn unknown_id_is_rejected_with_the_known_list() {
        let e = p(&["fig1a", "talbe2"]).unwrap_err();
        assert!(e.contains("talbe2"), "{e}");
        assert!(e.contains("known:") && e.contains("sensitivity"), "{e}");
        // Every unknown id is reported, not just the first.
        let e = p(&["talbe2", "fig9z"]).unwrap_err();
        assert!(e.contains("talbe2") && e.contains("fig9z"), "{e}");
    }

    #[test]
    fn unknown_flag_is_rejected_not_treated_as_id() {
        let e = p(&["--qiuck"]).unwrap_err();
        assert!(e.contains("--qiuck"), "{e}");
        assert!(p(&["-x"]).is_err());
        assert!(p(&["--jobs4"]).is_err());
    }

    #[test]
    fn jobs_flag_parses_both_forms_and_rejects_garbage() {
        assert_eq!(p(&["--jobs", "4"]).unwrap().jobs, Some(4));
        assert_eq!(p(&["--jobs=8"]).unwrap().jobs, Some(8));
        assert_eq!(p(&["-j", "2"]).unwrap().jobs, Some(2));
        assert!(p(&["--jobs", "0"]).is_err());
        assert!(p(&["--jobs=zero"]).is_err());
        assert!(p(&["--jobs"]).is_err());
    }

    #[test]
    fn scale_out_and_help_flags() {
        assert!(p(&["--full"]).unwrap().full);
        assert!(!p(&["--full", "--quick"]).unwrap().full);
        assert_eq!(p(&["--out", "d"]).unwrap().out_dir.as_deref(), Some("d"));
        assert!(p(&["--out"]).is_err());
        assert!(p(&["-h"]).unwrap().help);
        // Flag order does not matter relative to ids.
        let o = p(&["check", "--quick"]).unwrap();
        assert_eq!(o.ids, vec!["check"]);
    }

    #[test]
    fn metrics_trace_and_verbose_flags() {
        let o = p(&["--metrics", "m", "--trace", "pingpong", "-v"]).unwrap();
        assert_eq!(o.metrics_dir.as_deref(), Some("m"));
        assert_eq!(o.trace.as_deref(), Some("pingpong"));
        assert!(o.verbose);
        assert!(p(&["--metrics"]).is_err());
        assert!(p(&["--trace"]).is_err());
        // The trace id is validated like a positional id.
        let e = p(&["--trace", "pingpnog"]).unwrap_err();
        assert!(e.contains("pingpnog"), "{e}");
    }

    #[test]
    fn ids_flag_splits_commas_and_validates() {
        let o = p(&["--ids", "pingpong,check", "fig1a"]).unwrap();
        assert_eq!(o.ids, vec!["pingpong", "check", "fig1a"]);
        assert!(p(&["--ids", "pingpong,talbe2"]).is_err());
        assert!(p(&["--ids"]).is_err());
        // Empty segments (trailing comma) are tolerated, but a list with
        // no id is a usage error rather than "run everything".
        assert_eq!(p(&["--ids", "check,"]).unwrap().ids, vec!["check"]);
        assert!(p(&["--ids", ""]).is_err());
        assert!(p(&["--ids", ","]).is_err());
    }

    #[test]
    fn validate_metrics_takes_a_file() {
        let o = p(&["--validate-metrics", "x.json"]).unwrap();
        assert_eq!(o.validate_metrics.as_deref(), Some("x.json"));
        assert!(p(&["--validate-metrics"]).is_err());
    }

    #[test]
    fn bench_desim_takes_an_output_file() {
        let o = p(&["--bench-desim", "BENCH_desim.json"]).unwrap();
        assert_eq!(o.bench_desim.as_deref(), Some("BENCH_desim.json"));
        assert!(p(&["--bench-desim"]).is_err());
    }

    #[test]
    fn bench_compare_takes_two_files() {
        let o = p(&["--bench-compare", "old.json", "new.json"]).unwrap();
        assert_eq!(
            o.bench_compare,
            Some(("old.json".to_string(), "new.json".to_string()))
        );
        assert!(p(&["--bench-compare"]).is_err());
        assert!(p(&["--bench-compare", "old.json"]).is_err());
    }

    #[test]
    fn workload_knob_flags_parse_and_reject_garbage() {
        let o = p(&["workload", "--conns", "8", "--load", "4,16,64"]).unwrap();
        assert_eq!(o.conns, Some(8));
        assert_eq!(o.load, Some(vec![4.0, 16.0, 64.0]));
        // Trailing comma tolerated, like --ids.
        assert_eq!(p(&["--load", "8,"]).unwrap().load, Some(vec![8.0]));
        // Malformed values are usage errors before anything runs.
        assert!(p(&["--conns"]).is_err());
        assert!(p(&["--conns", "0"]).is_err());
        assert!(p(&["--conns", "33"]).is_err());
        assert!(p(&["--conns", "four"]).is_err());
        assert!(p(&["--load"]).is_err());
        assert!(p(&["--load", ""]).is_err());
        assert!(p(&["--load", "abc"]).is_err());
        assert!(p(&["--load", "-5"]).is_err());
        assert!(p(&["--load", "0"]).is_err());
        assert!(p(&["--load", "nan"]).is_err());
        assert!(p(&["--load", "inf"]).is_err());
        assert!(p(&["--load", "4,,0"]).is_err());
    }

    #[test]
    fn app_and_threshold_flags_parse_and_reject_garbage() {
        let o = p(&["workload", "--app", "halo", "--eager-threshold", "4096"]).unwrap();
        assert_eq!(o.app, Some(AppKind::Halo));
        assert_eq!(o.eager_threshold, Some(4096));
        assert_eq!(
            p(&["--app", "allreduce"]).unwrap().app,
            Some(AppKind::Allreduce)
        );
        assert_eq!(p(&["--app", "rpc"]).unwrap().app, Some(AppKind::Rpc));
        // Threshold 0 (all rendezvous) is legal.
        assert_eq!(
            p(&["--eager-threshold", "0"]).unwrap().eager_threshold,
            Some(0)
        );
        // Malformed values are usage errors listing the alternatives.
        assert!(p(&["--app"]).is_err());
        let e = p(&["--app", "fft"]).unwrap_err();
        assert!(e.contains("halo") && e.contains("rpc"), "{e}");
        assert!(p(&["--eager-threshold"]).is_err());
        assert!(p(&["--eager-threshold", "-1"]).is_err());
        assert!(p(&["--eager-threshold", "big"]).is_err());
    }

    #[test]
    fn nodes_flag_parses_and_rejects_garbage() {
        let o = p(&["scaling", "--nodes", "2,8,64"]).unwrap();
        assert_eq!(o.nodes, Some(vec![2, 8, 64]));
        // Trailing comma tolerated, like --ids and --load.
        assert_eq!(p(&["--nodes", "16,"]).unwrap().nodes, Some(vec![16]));
        assert_eq!(p(&["--nodes", "512"]).unwrap().nodes, Some(vec![512]));
        // Malformed values are usage errors before anything runs.
        assert!(p(&["--nodes"]).is_err());
        assert!(p(&["--nodes", ""]).is_err());
        assert!(p(&["--nodes", "abc"]).is_err());
        assert!(p(&["--nodes", "0"]).is_err());
        assert!(p(&["--nodes", "1"]).is_err());
        assert!(p(&["--nodes", "6"]).is_err(), "non-power-of-two rejected");
        assert!(p(&["--nodes", "1024"]).is_err(), "above cluster bound");
        assert!(p(&["--nodes", "4,,3"]).is_err());
    }

    #[test]
    fn usage_lists_every_experiment() {
        // The benchmark ledger parses this one line for the id list.
        let u = usage();
        let lines: Vec<&str> = u
            .lines()
            .filter(|l| l.contains("known experiments"))
            .collect();
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        assert_eq!(lines, [format!("known experiments: {}", ids.join(" "))]);
        // Splitting on whitespace, as the ledger does, gives the ids back.
        assert!(ids
            .iter()
            .all(|id| !id.is_empty() && !id.contains(char::is_whitespace)));
    }
}
