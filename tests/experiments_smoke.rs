//! Smoke test of the reproduction harness itself: every experiment id runs
//! at tiny scale and produces plausible output — the guard that keeps
//! `reproduce` shippable after model changes.

use tc_repro::bench::pool::Pool;
use tc_repro::bench::{run_experiment, Scale, EXPERIMENTS};

/// Run `id` serially at tiny scale.
fn run(id: &str) -> String {
    let tiny = Scale {
        iters: 8,
        warmup: 1,
        bw_messages: 8,
        rate_msgs: 16,
        workload_ops: 8,
    };
    run_experiment(&Pool::serial(), id, tiny)
}

#[test]
fn every_experiment_runs_and_produces_its_table() {
    for id in EXPERIMENTS.iter().map(|e| e.id) {
        let out = run(id);
        assert!(
            out.starts_with("# "),
            "{id}: output must start with a titled header, got {:?}",
            &out[..out.len().min(40)]
        );
        assert!(out.lines().count() >= 4, "{id}: suspiciously short output");
    }
}

#[test]
fn figure_outputs_contain_every_legend_label() {
    let fig1a = run("fig1a");
    for label in [
        "dev2dev-direct",
        "dev2dev-pollOnGPU",
        "dev2dev-assisted",
        "dev2dev-hostControlled",
    ] {
        assert!(fig1a.contains(label), "fig1a missing {label}");
    }
    let fig5 = run("fig5");
    for label in ["dev2dev-blocks", "dev2dev-kernels"] {
        assert!(fig5.contains(label), "fig5 missing {label}");
    }
}

#[test]
fn table_outputs_carry_the_paper_reference_columns() {
    let t1 = run("table1");
    assert!(t1.contains("sysmem(paper)") && t1.contains("4368"));
    let t2 = run("table2");
    assert!(t2.contains("gpu(paper)") && t2.contains("110463"));
}

#[test]
fn self_check_passes_at_smoke_scale() {
    let out = run("check");
    assert!(
        !out.contains("FAIL"),
        "self-check failed at smoke scale:\n{out}"
    );
}

#[test]
#[should_panic(expected = "unknown experiment")]
fn unknown_experiment_id_is_rejected() {
    run("fig99");
}
