//! Golden test for the parallel runner: for every pool width the rendered
//! report must be byte-identical to the serial run. The simulations are
//! deterministic and each sweep point owns its own cluster/executor, so
//! any divergence means shared state leaked between points.

use tc_repro::bench::pool::{Pool, PoolStats};
use tc_repro::bench::{
    metrics_report, plan, run_all, run_experiment, ExperimentOutput, Scale, WorkloadKnobs,
};
use tc_repro::putget::bench::check::READS;

#[test]
fn parallel_output_is_byte_identical_to_serial() {
    let scale = Scale::quick();
    for id in ["table1", "table2", "fig1a"] {
        let serial = run_experiment(&Pool::serial(), id, scale);
        let parallel = run_experiment(&Pool::new(4), id, scale);
        assert_eq!(
            serial, parallel,
            "{id} diverged between --jobs 1 and --jobs 4"
        );
    }
}

#[test]
fn workload_curves_are_byte_identical_across_jobs() {
    // Trimmed sweep: both backends stay in (dropping one could hide
    // cross-point state leaks), two loads and fewer ops keep it fast.
    let knobs = WorkloadKnobs {
        conns: 2,
        loads: vec![8.0, 64.0],
        ..WorkloadKnobs::default()
    };
    let mut scale = Scale::quick();
    scale.workload_ops = 40;
    let serial = plan("workload", scale, &knobs).run(&Pool::serial());
    let wide = plan("workload", scale, &knobs).run(&Pool::new(4));
    assert_eq!(
        serial.text, wide.text,
        "workload diverged between --jobs 1 and --jobs 4"
    );
    assert!(serial.text.contains("p50(us)") && serial.text.contains("p999(us)"));
    // The merged sim contribution matches too, so the exported metrics
    // JSON is byte-identical across pool widths as well.
    let stats = PoolStats::default();
    let a = metrics_report("workload", "quick", serial.sim.as_ref(), &stats);
    let b = metrics_report("workload", "quick", wide.sim.as_ref(), &stats);
    assert_eq!(a, b, "workload metrics diverged across pool widths");
    assert!(a.contains("workload0.latency_ps"), "{a}");
    assert!(a.contains("\"p999\""), "{a}");
}

#[test]
fn crossover_grid_is_byte_identical_across_jobs() {
    // The protocol grid and the app sweep are interleaved in one task
    // list; any divergence means a point leaked state into another.
    let mut scale = Scale::quick();
    scale.iters = 6;
    scale.bw_messages = 12;
    let knobs = WorkloadKnobs::default();
    let serial = plan("crossover", scale, &knobs).run(&Pool::serial());
    let wide = plan("crossover", scale, &knobs).run(&Pool::new(4));
    assert_eq!(
        serial.text, wide.text,
        "crossover diverged between --jobs 1 and --jobs 4"
    );
    assert!(serial.text.contains("latency crossover"), "{}", serial.text);
    // The merged registry carries the message-layer protocol counters
    // into the metrics export, byte-identical across pool widths.
    let stats = PoolStats::default();
    let a = metrics_report("crossover", "quick", serial.sim.as_ref(), &stats);
    let b = metrics_report("crossover", "quick", wide.sim.as_ref(), &stats);
    assert_eq!(a, b, "crossover metrics diverged across pool widths");
    assert!(a.contains("msg0.rts"), "{a}");
    assert!(a.contains("msg0.eager_frags"), "{a}");
}

#[test]
fn run_all_returns_reports_in_input_order() {
    let scale = Scale::quick();
    let ids = ["table2", "table1"];
    let (outputs, stats) = run_all(&Pool::new(4), &ids, scale, &WorkloadKnobs::default());
    assert_eq!(outputs.len(), 2);
    assert_eq!(stats.tasks, 4, "two 2-task table experiments");
    assert!(
        outputs[0].text.contains("Table II"),
        "first report must be table2"
    );
    assert!(
        outputs[1].text.contains("Table I:"),
        "second report must be table1"
    );
    // And each matches its serial single-experiment run.
    for (id, out) in ids.iter().zip(&outputs) {
        let serial = run_experiment(&Pool::serial(), id, scale);
        assert_eq!(serial, out.text, "{id} diverged inside run_all");
    }
    // Among its figures, `check` reads their tables; alone, it runs them
    // without returning them. Its report and metrics are the same.
    let batch = [&["check"][..], &READS].concat();
    let (inside, _) = run_all(&Pool::new(4), &batch, scale, &WorkloadKnobs::default());
    let (alone, _) = run_all(&Pool::new(4), &["check"], scale, &WorkloadKnobs::default());
    assert_eq!((inside.len(), alone.len()), (batch.len(), 1));
    assert_eq!(
        inside[0].text, alone[0].text,
        "check diverged inside run_all"
    );
    let stats = PoolStats::default();
    let json = |out: &ExperimentOutput| metrics_report("check", "quick", out.sim.as_ref(), &stats);
    assert_eq!(json(&inside[0]), json(&alone[0]));
}
