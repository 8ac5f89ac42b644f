//! DES-kernel microbenchmarks: events/sec for the timing wheel vs the
//! reference heap.
//!
//! Four kernels stress the hot paths of `tc_desim`'s executor — timer
//! churn across wheel levels, a spawn/join storm, channel ping-pong, and
//! a many-process periodic interleave. Each kernel runs the *identical*
//! workload under both [`QueueKind::Wheel`] and [`QueueKind::RefHeap`],
//! so the throughput ratio isolates the event-queue implementation (slab
//! timers + bitmap wheel vs per-timer `Rc` + binary heap).
//!
//! `reproduce --bench-desim FILE` runs the suite and writes a
//! schema-versioned JSON report (schema [`SCHEMA`]); `scripts/verify.sh`
//! commits it as `BENCH_desim.json` so the events/sec trajectory is
//! tracked PR over PR. `reproduce --bench-compare OLD NEW` diffs two such
//! reports and fails on a >25% wheel-throughput regression.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use tc_desim::shard::{run_sharded, Envelope, Outgoing};
use tc_desim::sync::{Channel, Signal};
use tc_desim::time::{ns, Time};
use tc_desim::{QueueKind, Sim};
use tc_trace::rng::XorShift64;

use crate::harness::Harness;
use crate::metrics::{exact_keys, num, obj, parse_json, Json};

/// Schema identifier stamped into (and required from) the JSON report.
pub const SCHEMA: &str = "tc-desim-bench-v1";

/// Relative wheel-throughput drop that makes [`compare`] fail.
pub const REGRESSION_LIMIT: f64 = 0.25;

/// One microbenchmark: a named kernel plus its analytic event count.
///
/// `events` counts the scheduler-visible operations the kernel performs
/// (timers fired, processes spawned, channel transfers); it is fixed by
/// the kernel's constants, so events/sec is comparable across runs.
pub struct BenchSpec {
    /// Kernel name, used in the harness table and the JSON report.
    pub name: &'static str,
    /// Scheduler-visible operations one run performs.
    pub events: u64,
    /// The kernel body; runs one full simulation under `QueueKind`.
    pub run: fn(QueueKind),
}

/// Measured throughput of one kernel under both queue implementations.
pub struct BenchResult {
    /// Kernel name.
    pub name: &'static str,
    /// Scheduler-visible operations one run performs.
    pub events: u64,
    /// Median events/sec with the timing-wheel queue.
    pub wheel_eps: f64,
    /// Median events/sec with the reference binary-heap queue.
    pub heap_eps: f64,
}

impl BenchResult {
    /// Wheel throughput relative to the reference heap.
    pub fn speedup(&self) -> f64 {
        self.wheel_eps / self.heap_eps
    }
}

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------

const CHURN_PROCS: u64 = 256;
const CHURN_ITERS: u64 = 200;

/// Timer churn: many processes, each sleeping for pseudo-random durations
/// spanning several wheel levels, keeping ~256 timers outstanding.
fn timer_churn(kind: QueueKind) {
    let sim = Sim::with_queue(kind);
    for p in 0..CHURN_PROCS {
        let h = sim.clone();
        let mut rng = XorShift64::new(0x9e37_79b9_7f4a_7c15 ^ (p + 1));
        sim.spawn("churn", async move {
            for _ in 0..CHURN_ITERS {
                // 1 ps .. ~16.8 us: exercises wheel levels 0 through 4.
                h.delay(1 + (rng.next_u64() & 0xff_ffff)).await;
            }
        });
    }
    sim.run();
}

const STORM_WAVES: u32 = 60;
const STORM_PER_WAVE: u32 = 200;

/// Spawn/join storm: waves of short-lived processes, joined via a
/// [`Signal`]; stresses slot reuse, name interning, and wake-up batching.
fn spawn_join(kind: QueueKind) {
    let sim = Sim::with_queue(kind);
    let root = sim.clone();
    sim.spawn("storm.root", async move {
        for _ in 0..STORM_WAVES {
            let done = Rc::new(Cell::new(0u32));
            let sig: Signal = root.signal();
            for w in 0..STORM_PER_WAVE {
                let h = root.clone();
                let d = done.clone();
                let s = sig.clone();
                root.spawn("storm.worker", async move {
                    h.delay(ns(1 + (w % 7) as u64)).await;
                    d.set(d.get() + 1);
                    if d.get() == STORM_PER_WAVE {
                        s.notify_all();
                    }
                });
            }
            sig.wait_until(|| done.get() == STORM_PER_WAVE).await;
        }
    });
    sim.run();
}

const PINGPONG_ITERS: u32 = 8000;

/// Channel ping-pong: two processes exchange a token over `sync.rs`
/// channels, with a put-style delay pipeline per hop (doorbell, WQE
/// fetch, payload DMA, wire, delivery, completion) so timer scheduling
/// dominates the cost per hop.
fn chan_pingpong(kind: QueueKind) {
    let sim = Sim::with_queue(kind);
    let ping: Channel<u64> = Channel::new(&sim, 1);
    let pong: Channel<u64> = Channel::new(&sim, 1);
    let (p1, q1) = (ping.clone(), pong.clone());
    let h0 = sim.clone();
    sim.spawn("pp.node0", async move {
        for i in 0..PINGPONG_ITERS as u64 {
            h0.delay(ns(8)).await; // doorbell write
            h0.delay(ns(32)).await; // WQE fetch
            h0.delay(ns(64)).await; // payload DMA read
            h0.delay(ns(120)).await; // wire
            ping.send(i).await;
            let _ = pong.recv().await;
        }
    });
    let h1 = sim.clone();
    sim.spawn("pp.node1", async move {
        for _ in 0..PINGPONG_ITERS {
            let v = p1.recv().await.unwrap();
            h1.delay(ns(4)).await; // delivery to memory
            h1.delay(ns(16)).await; // completion write
            q1.send(v).await;
        }
    });
    sim.run();
}

const INTERLEAVE_PROCS: u64 = 64;
const INTERLEAVE_TICKS: u64 = 500;

/// Many-process interleave: 64 processes on four repeating periods, so
/// every tick fires a batch of same-instant timers (seq-ordered drain).
fn interleave(kind: QueueKind) {
    let sim = Sim::with_queue(kind);
    for p in 0..INTERLEAVE_PROCS {
        let h = sim.clone();
        let period = ns(1) << (p % 4); // 1, 2, 4, 8 ns
        sim.spawn("tick", async move {
            for _ in 0..INTERLEAVE_TICKS {
                h.delay(period).await;
            }
        });
    }
    sim.run();
}

// ---------------------------------------------------------------------------
// Sharded-ring kernel (conservative parallel DES)
// ---------------------------------------------------------------------------

/// Ring nodes of the sharded kernel (divisible by every shard count).
const SHARD_RING_NODES: u64 = 64;
/// Tokens circulating simultaneously (start nodes spread over the ring).
const SHARD_RING_TOKENS: u64 = 8;
/// Full laps each token makes.
const SHARD_RING_LAPS: u64 = 25;
/// Per-hop latency; cross-shard hops ride it as the lookahead.
const SHARD_RING_HOP: Time = ns(1000);

/// Shard counts the kernel is swept over.
pub const SHARD_RING_SHARDS: [usize; 4] = [1, 2, 4, 8];

/// Scheduler-visible operations of one sharded-ring run (one spawn + one
/// timer per hop), fixed across shard counts so events/sec is comparable.
pub const SHARD_RING_EVENTS: u64 = SHARD_RING_TOKENS * SHARD_RING_NODES * SHARD_RING_LAPS * 2;

/// Forward a token from `node` with `hops` hops left. An intra-shard hop
/// is a local timer; a hop crossing a shard boundary is staged as an
/// envelope delivering exactly one lookahead ahead.
fn shard_ring_hop(
    sim: Sim,
    staged: Rc<RefCell<Vec<Outgoing<u64>>>>,
    per: u64,
    node: u64,
    hops: u64,
) {
    if hops == 0 {
        return;
    }
    let next = (node + 1) % SHARD_RING_NODES;
    if next / per == node / per {
        let s2 = sim.clone();
        sim.spawn("ring.hop", async move {
            s2.delay(SHARD_RING_HOP).await;
            shard_ring_hop(s2.clone(), staged, per, next, hops - 1);
        });
    } else {
        staged.borrow_mut().push(Outgoing {
            dst_shard: (next / per) as usize,
            deliver_at: sim.now() + SHARD_RING_HOP,
            msg: (next << 32) | (hops - 1),
        });
    }
}

/// One sharded-ring run: [`SHARD_RING_TOKENS`] tokens chase each other
/// around a [`SHARD_RING_NODES`]-node ring for [`SHARD_RING_LAPS`] laps,
/// the ring cut into `shards` equal arcs driven by worker threads under
/// [`run_sharded`]. The workload is identical at every shard count — only
/// the fraction of hops that cross a shard boundary changes.
fn shard_ring(shards: usize) {
    let per = SHARD_RING_NODES / shards as u64;
    let hops = SHARD_RING_NODES * SHARD_RING_LAPS;
    run_sharded::<u64, _, _>(shards, SHARD_RING_HOP, move |mut h| {
        let sim = Sim::new();
        let staged: Rc<RefCell<Vec<Outgoing<u64>>>> = Rc::new(RefCell::new(Vec::new()));
        let stride = SHARD_RING_NODES / SHARD_RING_TOKENS;
        for t in 0..SHARD_RING_TOKENS {
            let start = t * stride;
            if start / per == h.index() as u64 {
                shard_ring_hop(sim.clone(), staged.clone(), per, start, hops);
            }
        }
        let drain = {
            let staged = staged.clone();
            move || std::mem::take(&mut *staged.borrow_mut())
        };
        let deliver = {
            let sim = sim.clone();
            move |env: Envelope<u64>| {
                let s2 = sim.clone();
                let staged = staged.clone();
                sim.spawn("ring.cross", async move {
                    s2.delay(env.deliver_at - s2.now()).await;
                    shard_ring_hop(
                        s2.clone(),
                        staged,
                        per,
                        env.msg >> 32,
                        env.msg & 0xFFFF_FFFF,
                    );
                });
            }
        };
        h.run(&sim, drain, deliver)
    });
}

/// Measured throughput of the sharded-ring kernel at one shard count.
pub struct ShardRingResult {
    /// Worker shards the ring was cut into.
    pub shards: usize,
    /// Median events/sec over the harness samples.
    pub eps: f64,
}

/// Run the sharded-ring kernel at every [`SHARD_RING_SHARDS`] count.
/// Host-parallel speedup needs real cores: on a single-core machine the
/// multi-shard points measure pure synchronization overhead, which is
/// exactly why only the 1-shard point is regression-gated by [`compare`].
pub fn run_shard_ring(h: &mut Harness) -> Vec<ShardRingResult> {
    SHARD_RING_SHARDS
        .iter()
        .map(|&shards| {
            let took_ns = h.bench_median_ns(&format!("shard_ring/{shards}"), || shard_ring(shards));
            ShardRingResult {
                shards,
                eps: SHARD_RING_EVENTS as f64 * 1e9 / took_ns as f64,
            }
        })
        .collect()
}

/// The benchmark suite, in report order.
pub fn suite() -> Vec<BenchSpec> {
    vec![
        BenchSpec {
            name: "timer_churn",
            events: CHURN_PROCS * CHURN_ITERS,
            run: timer_churn,
        },
        BenchSpec {
            name: "spawn_join",
            // Per wave: one spawn and one delay per worker, plus the join.
            events: (STORM_WAVES * STORM_PER_WAVE) as u64 * 2,
            run: spawn_join,
        },
        BenchSpec {
            name: "chan_pingpong",
            // Per iteration: 6 pipeline delays + 2 channel transfers.
            events: PINGPONG_ITERS as u64 * 8,
            run: chan_pingpong,
        },
        BenchSpec {
            name: "interleave",
            events: INTERLEAVE_PROCS * INTERLEAVE_TICKS,
            run: interleave,
        },
    ]
}

/// Timed samples per benchmark, after one warm-up run.
pub const SAMPLES: u32 = 9;

/// Run every kernel under both queue kinds, then the sharded-ring sweep;
/// returns the sample count and median throughputs. Prints the harness
/// min/median/max table as it goes.
pub fn run_suite() -> (u32, Vec<BenchResult>, Vec<ShardRingResult>) {
    let mut h = Harness::new("desim", SAMPLES);
    let results = suite()
        .into_iter()
        .map(|b| {
            // Interleave the two sides sample by sample so machine-load
            // drift cannot bias the wheel/heap ratio.
            let (wheel_ns, heap_ns) = h.bench_pair_median_ns(
                &format!("{}/wheel", b.name),
                || (b.run)(QueueKind::Wheel),
                &format!("{}/ref-heap", b.name),
                || (b.run)(QueueKind::RefHeap),
            );
            BenchResult {
                name: b.name,
                events: b.events,
                wheel_eps: b.events as f64 * 1e9 / wheel_ns as f64,
                heap_eps: b.events as f64 * 1e9 / heap_ns as f64,
            }
        })
        .collect();
    let shard_ring = run_shard_ring(&mut h);
    (h.samples(), results, shard_ring)
}

// ---------------------------------------------------------------------------
// JSON report
// ---------------------------------------------------------------------------

/// Render the suite results as the `tc-desim-bench-v1` JSON document.
/// The `shard_ring` section is omitted when the sweep was not run, so
/// reports from older checkouts still validate.
pub fn render(samples: u32, results: &[BenchResult], shard_ring: &[ShardRingResult]) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    out.push_str(&format!("  \"samples\": {samples},\n"));
    out.push_str("  \"benches\": {\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {{ \"events\": {}, \"wheel_eps\": {:.1}, \
             \"heap_eps\": {:.1}, \"speedup\": {:.3} }}{}\n",
            r.name,
            r.events,
            r.wheel_eps,
            r.heap_eps,
            r.speedup(),
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    if shard_ring.is_empty() {
        out.push_str("  }\n");
    } else {
        out.push_str("  },\n");
        out.push_str(&format!(
            "  \"shard_ring\": {{\n    \"events\": {SHARD_RING_EVENTS},\n    \"series\": {{ "
        ));
        for (i, r) in shard_ring.iter().enumerate() {
            out.push_str(&format!(
                "\"{}\": {:.1}{}",
                r.shards,
                r.eps,
                if i + 1 == shard_ring.len() { "" } else { ", " }
            ));
        }
        out.push_str(" }\n  }\n");
    }
    out.push_str("}\n");
    out
}

/// Strict schema check for a `tc-desim-bench-v1` document. Every level
/// must have exactly the expected keys; throughputs must be positive.
/// `shard_ring` is the one optional section (older reports predate it),
/// but when present it is validated just as strictly.
pub fn validate(text: &str) -> Result<(), String> {
    let root = parse_json(text)?;
    let m = obj(&root, "root")?;
    if m.contains_key("shard_ring") {
        exact_keys(m, &["schema", "samples", "benches", "shard_ring"], "root")?;
    } else {
        exact_keys(m, &["schema", "samples", "benches"], "root")?;
    }
    match &m["schema"] {
        Json::Str(s) if s == SCHEMA => {}
        Json::Str(s) => return Err(format!("schema: expected {SCHEMA:?}, found {s:?}")),
        _ => return Err("schema: expected a string".into()),
    }
    let samples = num(m, "samples", "root")?;
    if samples < 1.0 || samples.fract() != 0.0 {
        return Err(format!(
            "samples: expected a positive integer, found {samples}"
        ));
    }
    let benches = obj(&m["benches"], "benches")?;
    if benches.is_empty() {
        return Err("benches: expected at least one benchmark".into());
    }
    for (name, v) in benches {
        let what = format!("benches.{name}");
        let b = obj(v, &what)?;
        exact_keys(b, &["events", "wheel_eps", "heap_eps", "speedup"], &what)?;
        let events = num(b, "events", &what)?;
        if events < 1.0 || events.fract() != 0.0 {
            return Err(format!("{what}.events: expected a positive integer"));
        }
        for k in ["wheel_eps", "heap_eps", "speedup"] {
            let x = num(b, k, &what)?;
            if x <= 0.0 || !x.is_finite() {
                return Err(format!("{what}.{k}: expected a positive finite number"));
            }
        }
    }
    if let Some(v) = m.get("shard_ring") {
        let sr = obj(v, "shard_ring")?;
        exact_keys(sr, &["events", "series"], "shard_ring")?;
        let events = num(sr, "events", "shard_ring")?;
        if events < 1.0 || events.fract() != 0.0 {
            return Err("shard_ring.events: expected a positive integer".into());
        }
        let series = obj(&sr["series"], "shard_ring.series")?;
        if series.is_empty() {
            return Err("shard_ring.series: expected at least one shard count".into());
        }
        for shards in series.keys() {
            let what = format!("shard_ring.series.{shards}");
            match shards.parse::<usize>() {
                Ok(n) if n >= 1 => {}
                _ => return Err(format!("{what}: key must be a positive shard count")),
            }
            let x = num(series, shards, "shard_ring.series")?;
            if x <= 0.0 || !x.is_finite() {
                return Err(format!("{what}: expected a positive finite number"));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Comparison mode
// ---------------------------------------------------------------------------

fn bench_map(text: &str, what: &str) -> Result<Report, String> {
    validate(text).map_err(|e| format!("{what}: {e}"))?;
    let root = parse_json(text)?;
    let m = obj(&root, "root")?;
    let benches = obj(&m["benches"], "benches")?;
    let wheel = benches
        .iter()
        .map(|(name, v)| Ok((name.clone(), num(obj(v, name)?, "wheel_eps", name)?)))
        .collect::<Result<Vec<_>, String>>()?;
    let shard_ring = match m.get("shard_ring") {
        None => None,
        Some(v) => {
            let series = obj(&obj(v, "shard_ring")?["series"], "series")?;
            let mut s = series
                .keys()
                .map(|k| Ok((k.parse::<usize>().unwrap_or(0), num(series, k, "series")?)))
                .collect::<Result<Vec<(usize, f64)>, String>>()?;
            s.sort_unstable_by_key(|&(n, _)| n);
            Some(s)
        }
    };
    Ok(Report { wheel, shard_ring })
}

struct Report {
    /// `benches` name -> wheel events/sec.
    wheel: Vec<(String, f64)>,
    /// `shard_ring` series, sorted by shard count; `None` if absent.
    shard_ring: Option<Vec<(usize, f64)>>,
}

/// Compare two `tc-desim-bench-v1` reports. Returns the human-readable
/// per-benchmark delta table and whether any benchmark's wheel throughput
/// regressed by more than [`REGRESSION_LIMIT`] (or disappeared).
///
/// The `shard_ring` series is gated only when the OLD report carries one
/// (so the gate arms itself the first time the section is committed), and
/// only its 1-shard point can flag a regression: multi-shard throughput is
/// a host-parallelism number that swings with core count and scheduler
/// noise, so those points are reported as deltas but never fail the run —
/// except by disappearing, which always regresses.
pub fn compare(old_text: &str, new_text: &str) -> Result<(String, bool), String> {
    let old_report = bench_map(old_text, "OLD")?;
    let new_report = bench_map(new_text, "NEW")?;
    let (old, new) = (&old_report.wheel, &new_report.wheel);
    let mut out = String::new();
    let mut regressed = false;
    out.push_str(&format!(
        "{:20} {:>16} {:>16} {:>9}\n",
        "benchmark", "old events/s", "new events/s", "delta"
    ));
    for (name, old_eps) in old {
        match new.iter().find(|(n, _)| n == name) {
            Some((_, new_eps)) => {
                let delta = new_eps / old_eps - 1.0;
                let flag = if delta < -REGRESSION_LIMIT {
                    regressed = true;
                    "  REGRESSION"
                } else {
                    ""
                };
                out.push_str(&format!(
                    "{:20} {:>16.0} {:>16.0} {:>+8.1}%{}\n",
                    name,
                    old_eps,
                    new_eps,
                    delta * 100.0,
                    flag
                ));
            }
            None => {
                regressed = true;
                out.push_str(&format!(
                    "{name:20} {old_eps:>16.0} {:>16} {:>9}  REGRESSION (missing)\n",
                    "-", "-"
                ));
            }
        }
    }
    for (name, new_eps) in new {
        if !old.iter().any(|(n, _)| n == name) {
            out.push_str(&format!(
                "{name:20} {:>16} {new_eps:>16.0} {:>9}  (new)\n",
                "-", "-"
            ));
        }
    }
    match (&old_report.shard_ring, &new_report.shard_ring) {
        (Some(old_sr), Some(new_sr)) => {
            for &(shards, old_eps) in old_sr {
                let name = format!("shard_ring/{shards}");
                match new_sr.iter().find(|&&(n, _)| n == shards) {
                    Some(&(_, new_eps)) => {
                        let delta = new_eps / old_eps - 1.0;
                        let flag = if shards == 1 && delta < -REGRESSION_LIMIT {
                            regressed = true;
                            "  REGRESSION"
                        } else {
                            ""
                        };
                        out.push_str(&format!(
                            "{name:20} {old_eps:>16.0} {new_eps:>16.0} {:>+8.1}%{flag}\n",
                            delta * 100.0
                        ));
                    }
                    None => {
                        regressed = true;
                        out.push_str(&format!(
                            "{name:20} {old_eps:>16.0} {:>16} {:>9}  REGRESSION (missing)\n",
                            "-", "-"
                        ));
                    }
                }
            }
        }
        (Some(_), None) => {
            regressed = true;
            out.push_str("shard_ring           section disappeared          REGRESSION\n");
        }
        (None, _) => {}
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_results() -> Vec<BenchResult> {
        vec![
            BenchResult {
                name: "timer_churn",
                events: 1000,
                wheel_eps: 2.0e6,
                heap_eps: 1.0e6,
            },
            BenchResult {
                name: "chan_pingpong",
                events: 500,
                wheel_eps: 3.0e6,
                heap_eps: 1.5e6,
            },
        ]
    }

    fn sample_shard_ring() -> Vec<ShardRingResult> {
        SHARD_RING_SHARDS
            .iter()
            .map(|&shards| ShardRingResult {
                shards,
                eps: 4.0e5 / shards as f64,
            })
            .collect()
    }

    #[test]
    fn rendered_report_validates() {
        let text = render(10, &sample_results(), &[]);
        validate(&text).unwrap();
        assert!(!text.contains("shard_ring"));
        let text = render(10, &sample_results(), &sample_shard_ring());
        validate(&text).unwrap();
        assert!(text.contains("\"shard_ring\""));
    }

    #[test]
    fn validator_rejects_wrong_schema_and_stray_keys() {
        let good = render(10, &sample_results(), &sample_shard_ring());
        let bad = good.replace(SCHEMA, "tc-desim-bench-v0");
        assert!(validate(&bad).unwrap_err().contains("schema"));
        let bad = good.replace("\"samples\": 10,", "\"samples\": 10, \"extra\": 1,");
        assert!(validate(&bad).unwrap_err().contains("unknown key"));
        let bad = good.replace("\"events\": 1000,", "");
        assert!(validate(&bad).unwrap_err().contains("missing required key"));
        let bad = good.replace("\"1\":", "\"zero\":");
        assert!(validate(&bad).unwrap_err().contains("shard count"));
    }

    #[test]
    fn compare_flags_large_regressions_only() {
        let old = render(10, &sample_results(), &[]);
        let mut slower = sample_results();
        slower[0].wheel_eps = 1.4e6; // -30%: over the limit
        let new = render(10, &slower, &[]);
        let (report, regressed) = compare(&old, &new).unwrap();
        assert!(regressed, "30% drop must regress:\n{report}");
        assert!(report.contains("REGRESSION"));

        let mut ok = sample_results();
        ok[0].wheel_eps = 1.6e6; // -20%: within the limit
        let new = render(10, &ok, &[]);
        let (report, regressed) = compare(&old, &new).unwrap();
        assert!(!regressed, "20% drop must pass:\n{report}");
    }

    #[test]
    fn compare_treats_missing_benchmark_as_regression() {
        let old = render(10, &sample_results(), &[]);
        let mut kept = sample_results();
        kept.truncate(1);
        let new = render(10, &kept, &[]);
        let (report, regressed) = compare(&old, &new).unwrap();
        assert!(regressed);
        assert!(report.contains("missing"));
    }

    #[test]
    fn compare_gates_shard_ring_on_the_serial_point_only() {
        let old = render(10, &sample_results(), &sample_shard_ring());
        // OLD without the section: NEW may add it freely, no gate yet.
        let old_plain = render(10, &sample_results(), &[]);
        let (report, regressed) = compare(&old_plain, &old).unwrap();
        assert!(!regressed, "{report}");

        // Multi-shard points may swing arbitrarily without regressing.
        let mut noisy = sample_shard_ring();
        for r in noisy.iter_mut().filter(|r| r.shards > 1) {
            r.eps /= 10.0;
        }
        let new = render(10, &sample_results(), &noisy);
        let (report, regressed) = compare(&old, &new).unwrap();
        assert!(!regressed, "{report}");
        assert!(report.contains("shard_ring/4"), "{report}");

        // The 1-shard point is gated like any benchmark.
        let mut slow = sample_shard_ring();
        slow[0].eps *= 0.5;
        let new = render(10, &sample_results(), &slow);
        let (report, regressed) = compare(&old, &new).unwrap();
        assert!(regressed, "{report}");
        assert!(report.contains("shard_ring/1"), "{report}");

        // Dropping the section (or one of its points) always regresses.
        let (report, regressed) = compare(&old, &old_plain).unwrap();
        assert!(regressed, "{report}");
        let mut short = sample_shard_ring();
        short.truncate(2);
        let new = render(10, &sample_results(), &short);
        let (report, regressed) = compare(&old, &new).unwrap();
        assert!(regressed && report.contains("missing"), "{report}");
    }

    #[test]
    fn shard_ring_kernel_runs_at_every_shard_count() {
        for shards in SHARD_RING_SHARDS {
            shard_ring(shards);
        }
    }

    #[test]
    fn every_kernel_runs_under_both_queue_kinds() {
        for b in suite() {
            (b.run)(QueueKind::Wheel);
            (b.run)(QueueKind::RefHeap);
        }
    }
}
