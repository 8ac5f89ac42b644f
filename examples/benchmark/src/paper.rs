//! `paper-full`: every experiment at the paper's counts, run the way a
//! user runs it — one `reproduce` process on a 2-worker pool, with
//! scaling capped at ring sizes that run serially, so no task starts
//! shard threads. `reproduce` fixes its own seeds, so the workload seed
//! is unused.
//!
//! The traced run is a per-experiment ledger instead: each experiment id
//! runs alone with the same flags. Its concatenated output must equal
//! the all-at-once output.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use crate::host::{cpu_seconds, median, peak_rss_mib, Fnv};
use crate::rep::{add_node_free, Checks, Rep};
use crate::Measured;

pub const FLAGS: [&str; 5] = ["--full", "--jobs", "2", "--nodes", "2,4,8,16,32"];

/// `reproduce --help` spawns per run; their median is the set-up time.
const HELP_SPAWNS: usize = 25;

/// One finished `reproduce` process.
struct Child {
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    ok: bool,
    stdout: String,
    stderr: String,
}

/// Run `reproduce args`, sampling its peak resident set while it runs.
fn run(exe: &Path, args: &[&str], out: &Path) -> Child {
    let (stdout, stderr) = (out.join("reproduce.stdout"), out.join("reproduce.stderr"));
    let create = |p: &Path| File::create(p).unwrap_or_else(|e| panic!("create {p:?}: {e}"));
    let (_, children_before) = cpu_seconds();
    let t = Instant::now();
    let mut child = Command::new(exe)
        .args(args)
        .stdout(create(&stdout))
        .stderr(create(&stderr))
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {exe:?}: {e}"));
    let pid = child.id().to_string();
    let mut peak_rss_mb = 0.0f64;
    let status = loop {
        if let Some(mib) = peak_rss_mib(&pid) {
            peak_rss_mb = peak_rss_mb.max(mib);
        }
        if let Some(s) = child.try_wait().expect("wait for reproduce") {
            break s;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let wall_s = t.elapsed().as_secs_f64();
    let read = |p: &Path| fs::read_to_string(p).unwrap_or_else(|e| panic!("read {p:?}: {e}"));
    Child {
        wall_s,
        cpu_s: cpu_seconds().1 - children_before,
        peak_rss_mb,
        ok: status.success(),
        stdout: read(&stdout),
        stderr: read(&stderr),
    }
}

/// A fresh, empty directory for `--metrics`.
fn metrics_dir(out: &Path, name: &str) -> String {
    let dir = out.join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {dir:?}: {e}"));
    dir.to_string_lossy().into_owned()
}

/// Registry counters of every `*.metrics.json` in `dir`, summed over
/// experiments and nodes, and the simulated time they cover.
fn metrics_counters(dir: &str) -> (BTreeMap<String, u64>, u64) {
    let mut counters = BTreeMap::new();
    let mut sim_ps = 0;
    let mut files: Vec<_> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {dir}: {e}"))
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.to_string_lossy().ends_with(".metrics.json"))
        .collect();
    files.sort();
    for f in files {
        let text = fs::read_to_string(&f).unwrap_or_else(|e| panic!("read {f:?}: {e}"));
        let (c, ps) = parse_metrics(&text);
        add_node_free(&mut counters, c.iter().map(|(n, v)| (n.as_str(), *v)));
        sim_ps += ps;
    }
    (counters, sim_ps)
}

/// The `sim` section of one `tc-metrics-v1` document: its counters and
/// `simulated_ps`. The writer puts one `"name": value` pair per line.
fn parse_metrics(text: &str) -> (Vec<(String, u64)>, u64) {
    let field = |line: &str| -> Option<(String, u64)> {
        let (k, v) = line.trim().trim_end_matches(',').split_once(':')?;
        Some((
            k.trim().trim_matches('"').to_string(),
            v.trim().parse().ok()?,
        ))
    };
    let mut sim_ps = 0;
    let mut counters = Vec::new();
    let mut in_counters = false;
    for line in text.lines() {
        let t = line.trim();
        if t.starts_with("\"simulated_ps\"") {
            sim_ps = field(t).map_or(0, |f| f.1);
        } else if t.starts_with("\"counters\"") {
            in_counters = true;
        } else if in_counters && t.starts_with('}') {
            in_counters = false;
        } else if in_counters {
            counters.extend(field(t));
        }
    }
    (counters, sim_ps)
}

/// `([PASS] lines, [FAIL] lines)` of a report.
fn claims(stdout: &str) -> (usize, usize) {
    let count = |tag| stdout.lines().filter(|l| l.contains(tag)).count();
    (count("[PASS]"), count("[FAIL]"))
}

/// Mean |sim − paper| / paper, in percent, over the Table I/II cells
/// with a nonzero paper value. Each table is a `# Table …` title, a
/// header of alternating `x(sim)`/`x(paper)` columns, then one row per
/// metric whose last tokens are the numbers.
pub fn paper_err_pct(report: &str) -> Option<f64> {
    let mut errs = Vec::new();
    let mut lines = report.lines();
    while let Some(line) = lines.next() {
        if !line.starts_with("# Table I") {
            continue;
        }
        let header: Vec<&str> = lines.next()?.split_whitespace().collect();
        let sim_cols: Vec<bool> = header
            .iter()
            .skip(1)
            .map(|h| h.ends_with("(sim)"))
            .collect();
        for row in lines.by_ref() {
            let tokens: Vec<&str> = row.split_whitespace().collect();
            let numbers = |first: usize| -> Option<Vec<f64>> {
                tokens[first..].iter().map(|x| x.parse().ok()).collect()
            };
            let Some(nums) = tokens.len().checked_sub(sim_cols.len()).and_then(numbers) else {
                break;
            };
            for (pair, is_sim) in nums.chunks(2).zip(sim_cols.chunks(2)) {
                if let ([sim, paper], [true, false]) = (pair, is_sim) {
                    if *paper != 0.0 {
                        errs.push((sim - paper).abs() / paper);
                    }
                }
            }
        }
    }
    (!errs.is_empty()).then(|| 100.0 * errs.iter().sum::<f64>() / errs.len() as f64)
}

/// `(tasks, utilization, max task seconds)` from `--verbose` output.
fn runner_stats(stderr: &str) -> Option<(u64, f64, f64)> {
    let after = |key: &str| {
        let line = stderr.lines().find(|l| l.contains(key))?;
        Some(line[line.find(key)? + key.len()..].trim_start().to_string())
    };
    let tasks = after("# runner:")?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    let util: f64 = after("pool utilization")?
        .trim_end_matches(['%', ')'])
        .parse()
        .ok()?;
    let max_ms: f64 = after("max task")?.split_whitespace().next()?.parse().ok()?;
    Some((tasks, util / 100.0, max_ms / 1e3))
}

/// The experiment ids `reproduce --help` lists.
fn experiment_ids(help: &str) -> Vec<String> {
    help.lines()
        .find_map(|l| l.strip_prefix("known experiments:"))
        .map(|ids| ids.split_whitespace().map(str::to_string).collect())
        .unwrap_or_default()
}

fn help(exe: &Path) -> (f64, String) {
    let t = Instant::now();
    let out = Command::new(exe)
        .arg("--help")
        .output()
        .unwrap_or_else(|e| panic!("spawn {exe:?}: {e}"));
    (
        t.elapsed().as_secs_f64(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// The all-at-once run, or with `ledger` the per-experiment ledger.
pub fn rep(exe: &Path, out: &Path, ledger: bool, checks: &Checks) -> Measured {
    // Set-up is what every invocation pays before an experiment runs:
    // process start, loading and argument checks.
    let spawns: Vec<(f64, String)> = (0..HELP_SPAWNS).map(|_| help(exe)).collect();
    let setup_s = median(&spawns.iter().map(|s| s.0).collect::<Vec<_>>());
    let mut rep = Rep {
        setup_s,
        ..Rep::default()
    };
    let metrics = metrics_dir(out, "metrics");
    let mut report = String::new();
    let (wall_s, cpu_s, peak_rss_mb) = if ledger {
        let ids = experiment_ids(&spawns[0].1);
        checks.check(!ids.is_empty(), || {
            "reproduce --help lists no experiments".into()
        });
        let (mut wall, mut cpu, mut peak) = (0.0, 0.0, 0.0f64);
        for id in &ids {
            let c = run(
                exe,
                &[&FLAGS[..], &["--metrics", &metrics, id]].concat(),
                out,
            );
            checks.check(c.ok, || format!("reproduce {id} failed:\n{}", c.stderr));
            report.push_str(&c.stdout);
            rep.host.push((format!("exp.{id}_s"), c.wall_s, "s"));
            wall += c.wall_s;
            cpu += c.cpu_s;
            peak = peak.max(c.peak_rss_mb);
        }
        rep.host.push(("runner.ledger_s".into(), wall, "s"));
        (wall, cpu, peak)
    } else {
        let c = run(
            exe,
            &[&FLAGS[..], &["--verbose", "--metrics", &metrics]].concat(),
            out,
        );
        checks.check(c.ok, || format!("reproduce failed:\n{}", c.stderr));
        let stats = runner_stats(&c.stderr);
        checks.check(stats.is_some(), || {
            "no runner summary in --verbose output".into()
        });
        let (tasks, util, max_task_s) = stats.unwrap_or_default();
        rep.ops = tasks;
        rep.host.push(("runner.utilization".into(), util, "ratio"));
        rep.host.push(("runner.max_task_s".into(), max_task_s, "s"));
        report = c.stdout;
        (c.wall_s, c.cpu_s, c.peak_rss_mb)
    };
    let (pass, fail) = claims(&report);
    for _ in 0..pass {
        checks.check(true, String::new);
    }
    for _ in 0..fail {
        checks.check(false, || "a paper claim reported [FAIL]".into());
    }
    let err = paper_err_pct(&report);
    checks.check(err.is_some(), || "no Table I/II in the report".into());
    rep.outcomes
        .push(("paper_err_pct".into(), err.unwrap_or(0.0), "%"));
    let (counters, sim_ps) = metrics_counters(&metrics);
    rep.counters = counters;
    rep.sim_time_us = sim_ps as f64 / 1e6;
    rep.trail = Fnv::default();
    rep.trail.str(&report);
    Measured {
        wall_s,
        cpu_s,
        peak_rss_mb,
        rep,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_error_over_the_committed_tables() {
        let tables = include_str!("../testdata/tables.txt");
        let err = paper_err_pct(tables).unwrap();
        // The mean over the 31 cells with a nonzero paper value,
        // computed independently from the same file.
        assert!((err - 58.145_721).abs() < 1e-5, "{err}");
        assert_eq!(paper_err_pct("no tables here"), None);
    }

    #[test]
    fn runner_summary_and_help_parse() {
        let stderr = "# runner: 333 task(s) on 2 job(s)\n\
                      #   wall          25711.8 ms\n\
                      #   busy          47478.8 ms (pool utilization 92%)\n\
                      #   max task      17692.0 ms\n";
        assert_eq!(runner_stats(stderr), Some((333, 0.92, 17.692)));
        assert_eq!(runner_stats(""), None);
        let help = "usage: reproduce\n\nknown experiments: pingpong fig3 check";
        assert_eq!(experiment_ids(help), ["pingpong", "fig3", "check"]);
    }

    #[test]
    fn metrics_sim_section_parses() {
        let doc = "{\n  \"sim\": {\n    \"simulated_ps\": 1200,\n    \"counters\": {\n      \
                   \"gpu0.instructions\": 7,\n      \"gpu1.instructions\": 5\n    },\n    \
                   \"histograms\": {\n      \"x\": { \"count\": 1 }\n    }\n  }\n}\n";
        let (c, ps) = parse_metrics(doc);
        assert_eq!(ps, 1200);
        assert_eq!(
            c,
            [
                ("gpu0.instructions".into(), 7),
                ("gpu1.instructions".into(), 5)
            ]
        );
    }

    #[test]
    fn claim_lines_count() {
        assert_eq!(claims("[PASS] a\n  -> x\n[FAIL] b\n[PASS] c\n"), (2, 1));
    }
}
