//! The `profile` experiment: causal critical-path attribution plus
//! simulated-time telemetry series.
//!
//! It *explains a measurement*: it runs representative scenarios with
//! causal recording on ([`tc_desim::Sim::causal_enable`]), walks the
//! causal graph backward from the completion mark
//! ([`tc_trace::causal::critical_path`]), and bins every picosecond of
//! the resulting path by hardware layer using the structured span
//! recorder. The table it renders must *sum*: the attribution total has
//! to match the independently measured end-to-end latency within 5%,
//! and at least 95% of a ping-pong's latency must land in named layers
//! — both checked like paper claims (`[ OK ]`/`[FAIL]` lines gated by
//! `scripts/verify.sh`).
//!
//! Two ping-pongs are attributed: fig1a's pollOnGPU-style device-memory
//! tag ping-pong, and the GPU-controlled put/notify round trip of
//! [`direct_pingpong`] (the paper's §V-A.3 case), whose recorded events
//! are also what `reproduce --trace ID` exports. The tag ping-pong runs
//! serially and sharded across two workers; the causal machinery bridges
//! shard boundaries with export/import edges, and the rendered
//! attributions are compared byte-for-byte. A workload point sampled with
//! [`workload::run_with_series`] contributes the experiment's
//! `tc-timeseries-v1` telemetry (offered vs achieved throughput, queue
//! depth, credit stalls per window), alongside per-shard
//! envelope-exchange series from the sharded run's [`WindowStat`]s.

use std::cell::Cell;
use std::fmt::Write as _;
use std::rc::Rc;

use tc_desim::time::{self, Time};
use tc_desim::WindowStat;
use tc_mem::Addr;
use tc_pcie::Processor;
use tc_trace::causal::{self, Attribution, BinSpan, CausalDump};
use tc_trace::series::SeriesSet;
use tc_trace::{Phase, TraceEvent};

use crate::api::{create_pair, QueueLoc};
use crate::bench::crossover::Proto;
use crate::bench::workload::{self, ArrivalProcess, WorkloadSpec};
use crate::cluster::{Backend, Cluster};
use crate::collectives::ring::{build_ring, build_ring_sharded, RingLayout};
use crate::msg::{messenger_pair, MsgConfig, RendezvousMode};
use crate::transport::{AnyTransport, Transport};

/// Round trips of the profiled ping-pong (no warm-up: the attribution
/// covers the whole run, so every wire crossing is on the books).
pub const PP_ROUNDS: u32 = 3;

/// The completion mark the critical-path walk starts from.
const MARK: &str = "profile.done";

/// Layer bins in priority order: when spans overlap (a PCIe DMA inside
/// an NIC operation), the earlier bin wins the slice.
pub const PRIORITY: [&str; 6] = ["gpu", "pcie", "extoll", "ib", "link", "msg"];

/// Messenger staging buffer for the crossover points (fits the largest
/// profiled message on both halves).
const MSG_BUF_LEN: u64 = 256 * 1024;

/// Window width of the workload telemetry series.
const SERIES_WINDOW: Time = time::us(25);

/// One window of a sharded run's envelope exchange, tagged with its
/// shard.
#[derive(Debug, Clone, Copy)]
pub struct ShardWindow {
    /// Which shard reported the window.
    pub shard: usize,
    /// The coordinator's window statistics.
    pub stat: WindowStat,
}

/// One attribution scenario's outcome.
#[derive(Debug, Clone)]
pub struct AttrRun {
    /// Stable scenario label (e.g. `"pingpong/serial"`).
    pub label: String,
    /// Round trips the scenario ran.
    pub rounds: u32,
    /// Independently measured end-to-end time (driver clock), ps.
    pub measured: Time,
    /// The critical path binned by layer.
    pub attribution: Attribution,
    /// Distinct wire crossings on the critical path.
    pub crossings: usize,
    /// Expected crossing count, when the scenario pins one.
    pub expect_crossings: Option<usize>,
    /// Minimum named-layer fraction the scenario claims, if any.
    pub named_min: Option<f64>,
    /// Per-shard window stats (sharded scenarios only).
    pub windows: Vec<ShardWindow>,
}

/// The sampled workload point backing the telemetry series.
#[derive(Debug, Clone)]
pub struct SeriesRun {
    /// Aggregate offered load, op/s.
    pub offered_ops: f64,
    /// Aggregate achieved throughput, op/s.
    pub achieved_ops: f64,
    /// Operations completed.
    pub completed: u64,
    /// Arrivals dropped at full queues.
    pub dropped: u64,
    /// Sampling window, ps.
    pub window_ps: Time,
    /// The windowed series (schema `tc-timeseries-v1`).
    pub series: SeriesSet,
}

/// One of the experiment's independent sweep points.
#[derive(Debug, Clone)]
pub enum ProfilePoint {
    /// A causal-attribution scenario.
    Attr(AttrRun),
    /// The sampled workload telemetry point.
    Series(Box<SeriesRun>),
}

/// Convert recorded spans into attribution bins. `nic` spans split into
/// `extoll`/`ib` by track prefix; layers outside [`PRIORITY`] (pure
/// scheduling) are dropped — time under them must be claimed by a
/// hardware span or show up as stall.
pub fn bin_spans(events: &[TraceEvent]) -> Vec<BinSpan> {
    let mut out = Vec::new();
    for e in events {
        let Phase::Span { dur } = e.phase else {
            continue;
        };
        let bin = match e.layer {
            "gpu" | "pcie" | "link" | "msg" => e.layer,
            "nic" if e.track.starts_with("extoll") => "extoll",
            "nic" if e.track.starts_with("ib") => "ib",
            _ => continue,
        };
        out.push(BinSpan {
            bin: bin.to_string(),
            start: e.ts,
            end: e.ts + dur,
        });
    }
    out
}

/// The attribution bins a process can legitimately occupy, by process
/// name. Binning purely by time overlap would let a spinning poller's
/// GPU load spans swallow wire-transit intervals whose destination is
/// the fabric or a NIC engine; restricting each path segment to the
/// layers of the process that resolved it keeps attribution causal.
fn allowed_bins(proc_name: &str) -> &'static [&'static str] {
    if proc_name.starts_with("fabric.") {
        &["link"]
    } else if proc_name.starts_with("extoll") {
        &["extoll", "pcie", "link"]
    } else if proc_name.starts_with("ib") {
        &["ib", "pcie", "link"]
    } else if proc_name.starts_with("msg") {
        &["msg", "gpu", "pcie"]
    } else {
        // GPU ranks and CPU proxies: compute plus the bus they touch.
        &["gpu", "pcie"]
    }
}

/// Claims a scenario pins on its own attribution: an exact wire-crossing
/// count and/or a minimum named-layer fraction. Crossover points pin
/// neither (their crossing count varies with the protocol).
#[derive(Clone, Copy, Default)]
struct AttrClaims {
    crossings: Option<usize>,
    named_min: Option<f64>,
}

fn finish_attr(
    label: &str,
    rounds: u32,
    measured: Time,
    dumps: &[CausalDump],
    events: &[Vec<TraceEvent>],
    claims: AttrClaims,
    windows: Vec<ShardWindow>,
) -> AttrRun {
    let path = causal::critical_path(dumps, MARK)
        .unwrap_or_else(|| panic!("{label}: completion mark {MARK:?} was not recorded"));
    let spans: Vec<BinSpan> = events.iter().flat_map(|e| bin_spans(e)).collect();
    let mark_ts = path.last().map_or(0, |s| s.to);
    // Per-segment binning: a cache keyed by the (static) allow-list
    // avoids re-filtering the span set for every hop of the path.
    let mut filtered: Vec<(&'static [&'static str], Vec<BinSpan>)> = Vec::new();
    let mut attribution = causal::Attribution {
        layers: PRIORITY.iter().map(|p| (p.to_string(), 0)).collect(),
        stall: 0,
        total: 0,
    };
    for seg in &path {
        let n = &dumps[seg.shard].nodes[seg.node as usize];
        let name = dumps[seg.shard]
            .names
            .get(&n.proc_key)
            .map(String::as_str)
            .unwrap_or("");
        let allow = allowed_bins(name);
        let spans = match filtered.iter().find(|(a, _)| std::ptr::eq(*a, allow)) {
            Some((_, s)) => s,
            None => {
                let s = spans
                    .iter()
                    .filter(|s| allow.contains(&s.bin.as_str()))
                    .cloned()
                    .collect();
                filtered.push((allow, s));
                &filtered.last().unwrap().1
            }
        };
        let a = causal::attribute(std::slice::from_ref(seg), spans, &PRIORITY, (0, mark_ts));
        for (i, (_, v)) in a.layers.iter().enumerate() {
            attribution.layers[i].1 += v;
        }
        attribution.stall += a.stall;
        attribution.total += a.total;
    }
    let crossings = causal::wire_crossings(dumps, &path);
    AttrRun {
        label: label.to_string(),
        rounds,
        measured,
        attribution,
        crossings,
        expect_crossings: claims.crossings,
        named_min: claims.named_min,
        windows,
    }
}

async fn pp_initiator<P: Processor>(
    t: &P,
    ep: &AnyTransport,
    buf: Addr,
    layout: RingLayout,
    rounds: u32,
) {
    for e in 1..=rounds as u64 {
        t.st_u64(buf + layout.tag_out(), e).await;
        t.fence().await;
        ep.put(t, layout.tag_out(), layout.tag_in(), 8, false).await;
        ep.quiet(t).await.unwrap();
        crate::collectives::wait_tag(t, buf + layout.tag_in(), e).await;
    }
}

async fn pp_responder<P: Processor>(
    t: &P,
    ep: &AnyTransport,
    buf: Addr,
    layout: RingLayout,
    rounds: u32,
) {
    for e in 1..=rounds as u64 {
        crate::collectives::wait_tag(t, buf + layout.tag_in(), e).await;
        t.st_u64(buf + layout.tag_out(), e).await;
        t.fence().await;
        ep.put(t, layout.tag_out(), layout.tag_in(), 8, false).await;
        ep.quiet(t).await.unwrap();
    }
}

/// The serial GPU tag-poll ping-pong point: two nodes on EXTOLL, `rounds`
/// strictly alternating round trips, causal recording and the span
/// recorder both on.
pub fn pingpong_serial(rounds: u32) -> AttrRun {
    let c = Cluster::new(Backend::Extoll);
    c.sim.recorder().enable();
    c.causal_enable();
    let layout = RingLayout::for_u64(2, 2);
    let bufs: Vec<Addr> = (0..2)
        .map(|n| c.nodes[n].gpu.alloc(layout.buffer_bytes(), 256))
        .collect();
    let mut eps = build_ring(&c, &bufs, layout).into_iter();
    let (ep0, ep1) = (eps.next().unwrap(), eps.next().unwrap());
    let end = Rc::new(Cell::new(0u64));
    {
        let sim = c.sim.clone();
        let gpu = c.nodes[0].gpu.clone();
        let (end, buf) = (end.clone(), bufs[0]);
        c.sim.spawn("profile.rank0", async move {
            let gt = gpu.thread();
            pp_initiator(&gt, &ep0, buf, layout, rounds).await;
            sim.causal_mark(MARK);
            end.set(sim.now());
        });
    }
    {
        let gpu = c.nodes[1].gpu.clone();
        let buf = bufs[1];
        c.sim.spawn("profile.rank1", async move {
            let gt = gpu.thread();
            pp_responder(&gt, &ep1, buf, layout, rounds).await;
        });
    }
    c.sim.run();
    let dumps = vec![c.sim.causal_dump()];
    let events = vec![c.sim.recorder().take_events()];
    finish_attr(
        "pingpong/serial",
        rounds,
        end.get(),
        &dumps,
        &events,
        AttrClaims {
            crossings: Some(2 * rounds as usize),
            named_min: Some(0.95),
        },
        Vec::new(),
    )
}

/// The same ping-pong split across two shards (one rank each): causal
/// export/import edges bridge the shard boundary, and the attribution
/// must come out byte-identical to the serial run.
pub fn pingpong_sharded(rounds: u32) -> AttrRun {
    let plan = Cluster::sharded(Backend::Extoll, 2, 2);
    let results = plan.run(|sc| {
        sc.cluster.sim.recorder().enable();
        sc.causal_enable();
        let layout = RingLayout::for_u64(2, 2);
        let owned = sc.owned();
        let bufs: Vec<Addr> = owned
            .clone()
            .map(|r| sc.cluster.node(r).gpu.alloc(layout.buffer_bytes(), 256))
            .collect();
        let mut eps = build_ring_sharded(sc, &bufs, layout);
        let ep = eps.remove(0);
        let rank = owned.start;
        let end = Rc::new(Cell::new(0u64));
        {
            let sim = sc.cluster.sim.clone();
            let gpu = sc.cluster.node(rank).gpu.clone();
            let (end, buf) = (end.clone(), bufs[0]);
            sc.cluster
                .sim
                .spawn(&format!("profile.rank{rank}"), async move {
                    let gt = gpu.thread();
                    if rank == 0 {
                        pp_initiator(&gt, &ep, buf, layout, rounds).await;
                        sim.causal_mark(MARK);
                        end.set(sim.now());
                    } else {
                        pp_responder(&gt, &ep, buf, layout, rounds).await;
                    }
                });
        }
        let mut windows = Vec::new();
        sc.run_observed(|w| windows.push(w));
        (
            end.get(),
            sc.cluster.sim.causal_dump(),
            sc.cluster.sim.recorder().take_events(),
            windows,
        )
    });
    let measured = results[0].0;
    let dumps: Vec<CausalDump> = results.iter().map(|r| r.1.clone()).collect();
    let events: Vec<Vec<TraceEvent>> = results.iter().map(|r| r.2.clone()).collect();
    let windows = results
        .iter()
        .enumerate()
        .flat_map(|(shard, r)| r.3.iter().map(move |&stat| ShardWindow { shard, stat }))
        .collect();
    finish_attr(
        "pingpong/sharded",
        rounds,
        measured,
        &dumps,
        &events,
        AttrClaims {
            crossings: Some(2 * rounds as usize),
            named_min: Some(0.95),
        },
        windows,
    )
}

/// The GPU-controlled put/notify ping-pong: each node's GPU thread puts
/// 1 KiB through [`create_pair`] endpoints (host-memory queues) with a
/// notification and polls for the peer's, `rounds` times. When
/// `recorded`, the recorder and the causal log are on from the first
/// operation. Returns the finished cluster and the instant of node 0's
/// last arrival, where the completion mark is.
pub fn direct_pingpong(fabric: Backend, rounds: u32, recorded: bool) -> (Cluster, Time) {
    const LEN: u64 = 1024;
    let c = Cluster::new(fabric);
    let tx0 = c.nodes[0].gpu.alloc(LEN, 256);
    let rx1 = c.nodes[1].gpu.alloc(LEN, 256);
    let rx0 = c.nodes[0].gpu.alloc(LEN, 256);
    let tx1 = c.nodes[1].gpu.alloc(LEN, 256);
    let (a0, a1) = create_pair(&c, tx0, rx1, LEN, QueueLoc::Host);
    let (b0, b1) = create_pair(&c, rx0, tx1, LEN, QueueLoc::Host);
    if recorded {
        c.sim.recorder().enable();
        c.causal_enable();
    }
    let end = Rc::new(Cell::new(0u64));
    {
        let sim = c.sim.clone();
        let gpu = c.nodes[0].gpu.clone();
        let end = end.clone();
        c.sim.spawn("ping", async move {
            let t = gpu.thread();
            for _ in 0..rounds {
                // On Infiniband the notify-put is write-with-immediate, so
                // each receiver arms a slot before it can arrive (no-op on
                // EXTOLL).
                b0.arm_arrival(&t).await;
                a0.put(&t, 0, 0, LEN as u32, true).await;
                a0.quiet(&t).await.unwrap();
                b0.wait_arrival(&t).await.unwrap();
            }
            sim.causal_mark(MARK);
            end.set(sim.now());
        });
    }
    let gpu = c.nodes[1].gpu.clone();
    c.sim.spawn("pong", async move {
        let t = gpu.thread();
        for _ in 0..rounds {
            a1.arm_arrival(&t).await;
            a1.wait_arrival(&t).await.unwrap();
            b1.put(&t, 0, 0, LEN as u32, true).await;
            b1.quiet(&t).await.unwrap();
        }
    });
    c.sim.run();
    (c, end.get())
}

/// [`direct_pingpong`] on EXTOLL, attributed with the claims the tag
/// ping-pong makes.
pub fn direct_attr(rounds: u32) -> AttrRun {
    let (c, end) = direct_pingpong(Backend::Extoll, rounds, true);
    let dumps = vec![c.sim.causal_dump()];
    let events = vec![c.sim.recorder().take_events()];
    finish_attr(
        "dev2dev-direct/extoll",
        rounds,
        end,
        &dumps,
        &events,
        AttrClaims {
            crossings: Some(2 * rounds as usize),
            named_min: Some(0.95),
        },
        Vec::new(),
    )
}

/// A message-layer ping-pong point with the protocol forced, attributed
/// the same way (the software protocol cost shows up as stall — the CPU
/// has no hardware spans — so no named-fraction floor is claimed).
pub fn msg_attr(proto: Proto, size: u64, rounds: u32) -> AttrRun {
    let c = Cluster::new(Backend::Extoll);
    c.sim.recorder().enable();
    c.causal_enable();
    let cfg = MsgConfig {
        eager_threshold: match proto {
            Proto::Eager => usize::MAX,
            Proto::Rndv => 0,
        },
        rendezvous: RendezvousMode::Put,
    };
    let (m0, m1) = messenger_pair(&c, MSG_BUF_LEN, cfg);
    let ready = Rc::new(Cell::new(false));
    let ready_sig = c.sim.signal();
    let end = Rc::new(Cell::new(0u64));
    {
        let sim = c.sim.clone();
        let cpu = c.nodes[0].cpu.clone();
        let (ready, rsig, end) = (ready.clone(), ready_sig.clone(), end.clone());
        c.sim.spawn("profile.msg.a", async move {
            m0.init(&cpu).await;
            rsig.wait_until(|| ready.get()).await;
            for _ in 0..rounds {
                m0.send_staged(&cpu, size as u32).await.unwrap();
                m0.recv_desc(&cpu).await.unwrap();
            }
            sim.causal_mark(MARK);
            end.set(sim.now());
        });
    }
    {
        let cpu = c.nodes[1].cpu.clone();
        c.sim.spawn("profile.msg.b", async move {
            m1.init(&cpu).await;
            ready.set(true);
            ready_sig.notify_all();
            for _ in 0..rounds {
                m1.recv_desc(&cpu).await.unwrap();
                m1.send_staged(&cpu, size as u32).await.unwrap();
            }
        });
    }
    c.sim.run();
    let dumps = vec![c.sim.causal_dump()];
    let events = vec![c.sim.recorder().take_events()];
    finish_attr(
        &format!("crossover/{}@{}B", proto.label(), size),
        rounds,
        end.get(),
        &dumps,
        &events,
        AttrClaims::default(),
        Vec::new(),
    )
}

/// The sampled workload telemetry point: an open-loop EXTOLL Poisson
/// load sampled every 25 µs (`SERIES_WINDOW`) of simulated time.
pub fn workload_series() -> SeriesRun {
    let spec = WorkloadSpec {
        backend: Backend::Extoll,
        process: ArrivalProcess::Poisson,
        conns: 2,
        offered_kops: 200.0,
        ops_per_conn: 40,
        queue_cap: 16,
        seed: 7,
        app: None,
        eager_threshold: None,
    };
    let (r, series) = workload::run_with_series(&spec, SERIES_WINDOW);
    SeriesRun {
        offered_ops: r.offered_ops,
        achieved_ops: r.achieved_ops,
        completed: r.completed,
        dropped: r.dropped,
        window_ps: SERIES_WINDOW,
        series,
    }
}

/// Number of sweep points in the experiment plan.
pub const POINTS: usize = 6;

/// Run sweep point `i` (see [`POINTS`]); the grid is fixed so points can
/// run in parallel on any pool width. The telemetry point is the last,
/// where `--trace profile` finds it.
pub fn point(i: usize) -> ProfilePoint {
    match i {
        0 => ProfilePoint::Attr(pingpong_serial(PP_ROUNDS)),
        1 => ProfilePoint::Attr(pingpong_sharded(PP_ROUNDS)),
        2 => ProfilePoint::Attr(msg_attr(Proto::Eager, 1024, 2)),
        3 => ProfilePoint::Attr(msg_attr(Proto::Rndv, 16384, 2)),
        4 => ProfilePoint::Attr(direct_attr(PP_ROUNDS)),
        5 => ProfilePoint::Series(Box::new(workload_series())),
        _ => panic!("profile has {POINTS} points, asked for {i}"),
    }
}

/// Render one run's attribution table — layers in priority order, then
/// stall and total. This is the string the serial-vs-sharded
/// byte-identity claim compares.
pub fn attr_table(run: &AttrRun) -> String {
    let mut out = format!("{:>12} {:>12} {:>8}\n", "layer", "us", "share");
    let total = run.attribution.total.max(1);
    let mut row = |name: &str, ps: u64| {
        let _ = writeln!(
            out,
            "{:>12} {:>12.3} {:>7.1}%",
            name,
            time::to_us_f64(ps),
            ps as f64 * 100.0 / total as f64,
        );
    };
    for (name, ps) in &run.attribution.layers {
        row(name, *ps);
    }
    row("stall", run.attribution.stall);
    row("total", run.attribution.total);
    let _ = writeln!(
        out,
        "measured end-to-end: {:.3} us over {} round trips; {} wire crossings",
        time::to_us_f64(run.measured),
        run.rounds,
        run.crossings,
    );
    out
}

fn claim(out: &mut String, ok: bool, text: &str) {
    let _ = writeln!(out, "[{}] {}", if ok { " OK " } else { "FAIL" }, text);
}

fn attr_claims(out: &mut String, run: &AttrRun) {
    let measured = run.measured.max(1);
    let delta = run.attribution.total.abs_diff(run.measured);
    let pct = delta as f64 * 100.0 / measured as f64;
    claim(
        out,
        pct <= 5.0,
        &format!(
            "{}: attribution total matches measured end-to-end within 5% (off by {pct:.2}%)",
            run.label
        ),
    );
    if let Some(min) = run.named_min {
        let frac = run.attribution.named_fraction();
        claim(
            out,
            frac >= min,
            &format!(
                "{}: >={:.0}% of latency attributed to named layers ({:.1}%)",
                run.label,
                min * 100.0,
                frac * 100.0
            ),
        );
    }
    if let Some(want) = run.expect_crossings {
        claim(
            out,
            run.crossings == want,
            &format!(
                "{}: critical path crosses the wire exactly {} times (2 per round trip; got {})",
                run.label, want, run.crossings
            ),
        );
    }
}

/// Render the full report and the experiment's telemetry series (the
/// workload windows plus the sharded run's per-shard envelope series).
pub fn render(points: &[ProfilePoint]) -> (String, SeriesSet) {
    let mut out =
        String::from("# profile: causal critical-path attribution + simulated-time telemetry\n");
    let attrs: Vec<&AttrRun> = points
        .iter()
        .filter_map(|p| match p {
            ProfilePoint::Attr(a) => Some(a),
            ProfilePoint::Series(_) => None,
        })
        .collect();
    let mut series = SeriesSet::new(SERIES_WINDOW);
    for run in &attrs {
        let _ = writeln!(out, "\n[{}]", run.label);
        out.push_str(&attr_table(run));
    }
    let _ = writeln!(out, "\nclaims:");
    for run in &attrs {
        attr_claims(&mut out, run);
    }
    let serial = attrs.iter().find(|r| r.label == "pingpong/serial");
    let sharded = attrs.iter().find(|r| r.label == "pingpong/sharded");
    if let (Some(s), Some(p)) = (serial, sharded) {
        claim(
            &mut out,
            attr_table(s) == attr_table(p),
            "serial and sharded attributions are byte-identical",
        );
        for w in &p.windows {
            series.push(
                &format!("shard{}.exported", w.shard),
                "envelopes",
                w.stat.wstart,
                w.stat.exported,
            );
            series.push(
                &format!("shard{}.imported", w.shard),
                "envelopes",
                w.stat.wstart,
                w.stat.imported,
            );
        }
    }
    for p in points {
        if let ProfilePoint::Series(s) = p {
            let _ = writeln!(
                out,
                "\n[workload telemetry / extoll poisson, {} windows of {:.0} us]",
                s.series
                    .get("workload.offered_kops")
                    .map_or(0, |w| w.points.len()),
                time::to_us_f64(s.window_ps),
            );
            let _ = writeln!(
                out,
                "{:>10} {:>14} {:>14} {:>10} {:>12}",
                "t[us]", "offered_kops", "achieved_kops", "qdepth", "qdepth.high"
            );
            let offered = s.series.get("workload.offered_kops");
            let achieved = s.series.get("workload.achieved_kops");
            let depth = s.series.get("workload0.queue_depth");
            let high = s.series.get("workload0.queue_depth.high");
            let val = |ser: Option<&tc_trace::series::Series>, i: usize| {
                ser.and_then(|w| w.points.get(i)).map_or(0, |p| p.1)
            };
            for i in 0..offered.map_or(0, |w| w.points.len()) {
                let ts = offered.unwrap().points[i].0;
                let _ = writeln!(
                    out,
                    "{:>10.0} {:>14} {:>14} {:>10} {:>12}",
                    time::to_us_f64(ts),
                    val(offered, i),
                    val(achieved, i),
                    val(depth, i),
                    val(high, i),
                );
            }
            let _ = writeln!(
                out,
                "offered {:.0} op/s, achieved {:.0} op/s, completed {}, dropped {}",
                s.offered_ops, s.achieved_ops, s.completed, s.dropped,
            );
            claim(
                &mut out,
                !s.series.is_empty() && s.completed > 0,
                "workload telemetry sampled at least one window with completions",
            );
            series.absorb(s.series.clone());
        }
    }
    (out, series)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pingpong_critical_path_crosses_the_wire_twice_per_round_trip() {
        let one = pingpong_serial(1);
        assert_eq!(one.crossings, 2, "1 round trip");
        let three = pingpong_serial(3);
        assert_eq!(three.crossings, 6, "3 round trips");
    }

    #[test]
    fn serial_attribution_sums_and_names_the_latency() {
        let run = pingpong_serial(PP_ROUNDS);
        let delta = run.attribution.total.abs_diff(run.measured);
        assert!(
            delta as f64 / run.measured.max(1) as f64 <= 0.05,
            "total {} vs measured {}",
            run.attribution.total,
            run.measured
        );
        assert!(
            run.attribution.named_fraction() >= 0.95,
            "named fraction {:.3}\n{}",
            run.attribution.named_fraction(),
            attr_table(&run)
        );
    }

    #[test]
    fn sharded_attribution_is_byte_identical_to_serial() {
        let s = pingpong_serial(PP_ROUNDS);
        let p = pingpong_sharded(PP_ROUNDS);
        assert_eq!(attr_table(&s), attr_table(&p));
        assert!(!p.windows.is_empty(), "sharded run reported no windows");
    }

    #[test]
    fn msg_points_attribute_without_claim_failures() {
        for (proto, size) in [(Proto::Eager, 1024), (Proto::Rndv, 16384)] {
            let run = msg_attr(proto, size, 2);
            let delta = run.attribution.total.abs_diff(run.measured);
            assert!(
                delta as f64 / run.measured.max(1) as f64 <= 0.05,
                "{}: total {} vs measured {}",
                run.label,
                run.attribution.total,
                run.measured
            );
        }
    }

    #[test]
    fn render_emits_no_failures_and_a_series() {
        let points: Vec<ProfilePoint> = (0..POINTS).map(point).collect();
        let (text, series) = render(&points);
        assert!(
            !text.contains("[FAIL]"),
            "profile report contains failures:\n{text}"
        );
        assert!(!series.is_empty());
        let json = series.to_json("profile");
        assert!(json.contains(tc_trace::series::SCHEMA));
    }
}
