//! Golden determinism tests for the instrumentation layer: the exported
//! Chrome trace of a fixed ping-pong run must be byte-identical across
//! runs, and neither recording nor exporting metrics may perturb the
//! simulation.

use tc_repro::bench::pool::{Pool, PoolStats};
use tc_repro::bench::{metrics, metrics_report, run_all, trace_report, Scale, WorkloadKnobs};
use tc_repro::desim::Work;
use tc_repro::putget::bench::pingpong::extoll_pingpong;
use tc_repro::putget::bench::profile::{direct_pingpong, PP_ROUNDS};
use tc_repro::putget::bench::ExtollMode;
use tc_repro::putget::cluster::Backend;
use tc_repro::trace::{chrome, Snapshot};

/// `rounds` round trips of `profile`'s GPU-controlled put/notify ping-pong
/// rig on `fabric`. Returns the Chrome trace JSON (no events unless
/// `recorded`), the full registry snapshot, the final simulated time and
/// the spin steps the run fast-forwarded.
fn pingpong_run(fabric: Backend, rounds: u32, recorded: bool) -> (String, Snapshot, u64, u64) {
    let before = Work::on_thread();
    let (cluster, _) = direct_pingpong(fabric, rounds, recorded);
    let skipped = Work::on_thread().since(before).skipped;
    let events = cluster.sim.recorder().take_events();
    (
        chrome::to_chrome_json(&events),
        cluster.sim.registry().snapshot(),
        cluster.sim.now(),
        skipped,
    )
}

const FABRICS: [Backend; 2] = [Backend::Extoll, Backend::Infiniband];

#[test]
fn chrome_trace_is_byte_identical_across_runs() {
    for fabric in FABRICS {
        let (a, ..) = pingpong_run(fabric, 1, true);
        let (b, ..) = pingpong_run(fabric, 1, true);
        assert_eq!(a, b, "{fabric:?}: trace export is not deterministic");
        assert!(!a.is_empty());
    }
}

#[test]
fn chrome_trace_covers_all_hardware_layers() {
    for fabric in FABRICS {
        let (json, ..) = pingpong_run(fabric, 1, true);
        // Hardware layers group into one Chrome process per node
        // (`node{n}/{layer}`); the executor's own events keep the bare
        // layer.
        for process in [
            "\"desim\"",
            "\"node0/gpu\"",
            "\"node0/pcie\"",
            "\"node0/nic\"",
        ] {
            assert!(
                json.contains(process),
                "{fabric:?}: no events from {process}"
            );
        }
        // Both nodes of the cluster are represented.
        assert!(
            json.contains("\"node1/"),
            "{fabric:?}: node 1 has no process group"
        );
    }
}

/// Recording switches spin-wait fast-forward off: the unrecorded run
/// parks its spinners, the recorded one takes the plain loop, and both
/// must end alike.
#[test]
fn recording_does_not_perturb_the_simulation() {
    for fabric in FABRICS {
        let (_, reg_on, end_on, skipped_on) = pingpong_run(fabric, PP_ROUNDS, true);
        let (json_off, reg_off, end_off, skipped_off) = pingpong_run(fabric, PP_ROUNDS, false);
        assert_eq!(
            end_on, end_off,
            "{fabric:?}: tracing changed simulated time"
        );
        assert_eq!(
            reg_on, reg_off,
            "{fabric:?}: tracing changed counter values"
        );
        assert_eq!(skipped_on, 0, "{fabric:?}: a recorded run parked");
        assert!(
            skipped_off > 0,
            "{fabric:?}: the unrecorded run never parked"
        );
        // A disabled recorder captures nothing.
        assert!(!json_off.contains("\"ph\":\"X\"") && !json_off.contains("\"ph\":\"i\""));
    }
}

/// The metrics JSON is a golden artifact: its `sim` section must be
/// byte-identical across runs *and* across pool widths, because it is
/// folded from the experiment's own sweep-point registries in index
/// order, which cannot observe wall-clock scheduling. The `runner`
/// section is pinned here by passing the same [`PoolStats`] to both
/// renders.
#[test]
fn metrics_json_is_byte_identical_across_runs_and_jobs() {
    let stats = PoolStats::default();
    let knobs = WorkloadKnobs::default();
    let (out1, _) = run_all(&Pool::new(1), &["pingpong"], Scale::quick(), &knobs);
    let a = metrics_report("pingpong", "quick", out1[0].sim.as_ref(), &stats);
    let (out4, _) = run_all(&Pool::new(4), &["pingpong"], Scale::quick(), &knobs);
    let b = metrics_report("pingpong", "quick", out4[0].sim.as_ref(), &stats);
    assert_eq!(
        a, b,
        "metrics JSON diverged between --jobs 1 and --jobs 4 runs"
    );
    metrics::validate(&a).expect("golden metrics JSON must pass the schema self-check");
    // The trace export is a golden artifact under the same contract.
    assert_eq!(trace_report("pingpong"), trace_report("pingpong"));
}

/// 64-bit FNV-1a of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `--trace` exports one round of `profile`'s put/notify ping-pong rig;
/// its byte length and hash pin the rig on both fabrics, so a change to
/// its setup, process order or recording shows here.
#[test]
fn trace_report_matches_golden_length_and_hash() {
    for (id, len, hash) in [
        ("pingpong", 34_708, 0xbcef_a9cb_72b0_3c35),
        ("fig4a", 156_477, 0x3878_24b2_4f27_b8fe),
    ] {
        let json = trace_report(id);
        let got = fnv1a(json.as_bytes());
        assert_eq!(
            (json.len(), got),
            (len, hash),
            "{id}: trace export drifted (hash {got:#018x})"
        );
    }
}

/// Zero-perturbation: rendering the metrics JSON only *reads* a snapshot,
/// so a run whose metrics were exported must agree bit-for-bit — simulated
/// time, paper-facing counters, histograms, gauges — with one that never
/// exported anything.
#[test]
fn metrics_export_does_not_perturb_the_simulation() {
    let with_export = extoll_pingpong(ExtollMode::Dev2DevDirect, 1024, 10, 2);
    let json = metrics::render(
        "pingpong",
        "quick",
        &with_export.registry,
        with_export.half_rtt,
        &PoolStats::default(),
    );
    let without = extoll_pingpong(ExtollMode::Dev2DevDirect, 1024, 10, 2);
    assert_eq!(
        with_export.half_rtt, without.half_rtt,
        "export changed simulated time"
    );
    assert_eq!(
        with_export.registry, without.registry,
        "export changed metric values"
    );
    assert!(json.contains(&format!("\"simulated_ps\": {}", without.half_rtt)));
}

/// Windowed histogram deltas (what every sweep point exports) must not
/// inherit a pre-window outlier as their `max`: the delta reports the
/// tightest bucket bound of the window's own samples, clamped to the
/// overall high-water mark. Pinned here because the metrics JSON's
/// histogram section is a golden artifact built from exactly these
/// deltas.
#[test]
fn histogram_delta_max_reflects_the_window_not_the_high_water_mark() {
    let reg = tc_repro::trace::Registry::new();
    let h = reg.histogram("pin.lat_ps");
    h.record(1_000_000); // pre-window outlier
    let before = reg.snapshot();
    h.record(100);
    h.record(900);
    let d = reg.snapshot().delta(&before);
    let win = d.histogram("pin.lat_ps").expect("windowed histogram");
    assert_eq!(win.count, 2);
    assert_eq!(win.sum, 1000);
    assert!(
        win.max < 1_000_000,
        "window max {} must not report the pre-window outlier",
        win.max
    );
    assert!(
        win.max >= 900,
        "window max {} must bound the window's samples",
        win.max
    );
    // Delta against an empty baseline is exact.
    let full = reg.snapshot().delta(&Snapshot::default());
    assert_eq!(full.histogram("pin.lat_ps").unwrap().max, 1_000_000);
}
