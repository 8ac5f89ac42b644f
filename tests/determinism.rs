//! The simulator must be bit-for-bit deterministic: identical runs produce
//! identical simulated times, counters and data — the property every result
//! in EXPERIMENTS.md relies on.

use tc_repro::putget::bench::ablation::combined_claims;
use tc_repro::putget::bench::bandwidth::{extoll_bandwidth, ib_bandwidth};
use tc_repro::putget::bench::msgrate::extoll_msgrate;
use tc_repro::putget::bench::pingpong::{extoll_pingpong, ib_pingpong, PingPongResult};
use tc_repro::putget::bench::twosided::one_vs_two_sided;
use tc_repro::putget::bench::velo::velo_vs_rma;
use tc_repro::putget::bench::workload::{self, ArrivalProcess, WorkloadSpec};
use tc_repro::putget::bench::{ExtollMode, IbMode, RateMode};
use tc_repro::putget::msg::apps::AppKind;
use tc_repro::putget::Backend;
use tc_repro::trace::Snapshot;

#[test]
fn extoll_pingpong_runs_are_identical() {
    let a = extoll_pingpong(ExtollMode::Dev2DevDirect, 1024, 20, 2);
    let b = extoll_pingpong(ExtollMode::Dev2DevDirect, 1024, 20, 2);
    assert_eq!(a.half_rtt, b.half_rtt);
    assert_eq!(a.registry, b.registry);
    assert_eq!(a.put_time, b.put_time);
    assert_eq!(a.poll_time, b.poll_time);
}

#[test]
fn ib_pingpong_runs_are_identical() {
    let a = ib_pingpong(IbMode::Dev2DevBufOnGpu, 256, 15, 2);
    let b = ib_pingpong(IbMode::Dev2DevBufOnGpu, 256, 15, 2);
    assert_eq!(a.half_rtt, b.half_rtt);
    assert_eq!(a.registry, b.registry);
}

#[test]
fn multi_agent_message_rate_is_deterministic() {
    // 16 concurrent blocks contending on the NIC and PCIe: the scheduler
    // tie-breaking must still make every run identical.
    let a = extoll_msgrate(RateMode::Dev2DevBlocks, 16, 40);
    let b = extoll_msgrate(RateMode::Dev2DevBlocks, 16, 40);
    assert_eq!(a.elapsed, b.elapsed);
}

#[test]
fn assisted_mode_with_proxy_races_is_deterministic() {
    let a = extoll_pingpong(ExtollMode::Dev2DevAssisted, 64, 15, 2);
    let b = extoll_pingpong(ExtollMode::Dev2DevAssisted, 64, 15, 2);
    assert_eq!(a.half_rtt, b.half_rtt);
    assert_eq!(a.registry, b.registry);

    // Golden values of every driver that spawns a CPU proxy: a reordered
    // proxy step moves the simulated time, the proxy CPU's loads or the
    // GPU's posted PCIe writes.
    fn pinned(time: u64, r: &Snapshot) -> [u64; 3] {
        [time, r.get("cpu0.loads"), r.get("pcie0.posted_writes")]
    }
    let pp_ib = ib_pingpong(IbMode::Dev2DevAssisted, 64, 15, 2);
    let bw_extoll = extoll_bandwidth(ExtollMode::Dev2DevAssisted, 4096, 8);
    let bw_ib = ib_bandwidth(IbMode::Dev2DevAssisted, 4096, 8);
    let rate = extoll_msgrate(RateMode::Dev2DevAssisted, 4, 10);
    let got = [
        pinned(a.half_rtt, &a.registry),
        pinned(pp_ib.half_rtt, &pp_ib.registry),
        pinned(bw_extoll.elapsed, &bw_extoll.registry),
        pinned(bw_ib.elapsed, &bw_ib.registry),
        pinned(rate.elapsed, &rate.registry),
    ];
    let golden = [
        [8_083_456, 2384, 105],  // extoll ping-pong
        [3_976_290, 2111, 60],   // ib ping-pong
        [79_188_800, 681, 48],   // extoll bandwidth
        [106_269_048, 2163, 32], // ib bandwidth
        [88_351_732, 839, 240],  // extoll message rate
    ];
    assert_eq!(got, golden, "[time ps, cpu0.loads, pcie0.posted_writes]");
}

#[test]
fn ping_pong_drivers_match_goldens() {
    // [half round trip ps, put time ps, pcie0.posted_writes] of every mode
    // that runs through the shared ping/pong loops: a reordered step moves
    // the round trip, the put/poll split or the posted PCIe writes.
    fn pinned(r: PingPongResult) -> [u64; 3] {
        [
            r.half_rtt,
            r.put_time,
            r.registry.get("pcie0.posted_writes"),
        ]
    }
    let got = [
        pinned(ib_pingpong(IbMode::Dev2DevBufOnGpu, 64, 5, 2)),
        pinned(ib_pingpong(IbMode::Dev2DevBufOnHost, 64, 5, 2)),
        pinned(ib_pingpong(IbMode::HostControlled, 64, 5, 2)),
        pinned(extoll_pingpong(ExtollMode::Dev2DevDirect, 64, 5, 2)),
        pinned(extoll_pingpong(ExtollMode::Dev2DevPollOnGpu, 64, 5, 2)),
        pinned(extoll_pingpong(ExtollMode::HostControlled, 64, 5, 2)),
    ];
    let golden = [
        [15_911_251, 15_964_142, 5],  // ib bufOnGPU
        [17_394_002, 17_417_514, 35], // ib bufOnHost
        [2_791_600, 469_400, 5],      // ib hostControlled
        [11_360_319, 1_581_643, 45],  // extoll direct
        [4_841_813, 1_581_643, 15],   // extoll pollOnGPU
        [3_952_800, 392_400, 15],     // extoll hostControlled
    ];
    assert_eq!(
        got, golden,
        "[half_rtt ps, put_time ps, pcie0.posted_writes]"
    );

    let ts = one_vs_two_sided(16, 5);
    assert_eq!(
        [ts.one_sided, ts.two_sided],
        [2_051_300, 2_697_400],
        "[one-sided, two-sided] ps"
    );
    let v = velo_vs_rma(16, 10);
    assert_eq!(
        (v.rma_latency, v.velo_latency, v.rma_rate, v.velo_rate),
        (
            9_448_080,
            6_251_299,
            153_074.868_458_938_67,
            2_037_398.486_620_404
        ),
        "(RMA ps, VELO ps, RMA msg/s, VELO msg/s)"
    );
    assert_eq!(
        combined_claims(64, 5).optimized,
        5_528_697,
        "optimized interface ps"
    );
}

#[test]
fn workload_loops_match_goldens() {
    // elapsed, p99, node 1's CPU loads (the server's polls) and the
    // per-connection books of the raw mix and every application pattern:
    // a reordered worker or server step moves them.
    let mut got = Vec::new();
    for backend in [Backend::Extoll, Backend::Infiniband] {
        for app in [
            None,
            Some(AppKind::Halo),
            Some(AppKind::Allreduce),
            Some(AppKind::Rpc),
        ] {
            let r = workload::run(&WorkloadSpec {
                backend,
                process: ArrivalProcess::Poisson,
                conns: 2,
                offered_kops: 20.0,
                ops_per_conn: 12,
                queue_cap: 16,
                seed: 7,
                app,
                eager_threshold: None,
            });
            let books = r.per_conn.iter().map(|c| {
                [
                    c.arrivals,
                    c.completed,
                    c.dropped,
                    c.errors,
                    c.sent,
                    c.received,
                ]
            });
            let polls = r.registry.get("cpu1.loads");
            got.push((r.elapsed, r.p99_ps, polls, books.collect::<Vec<_>>()));
        }
    }
    let raw = vec![[12, 12, 0, 0, 4, 4], [12, 12, 0, 0, 3, 3]];
    let app = vec![[12, 12, 0, 0, 0, 12]; 2];
    let golden = vec![
        (664_868_911, 18_707_297, 2397, raw.clone()), // extoll raw mix
        (1_211_304_381, 503_157_767, 6517, app.clone()), // extoll halo
        (1_124_189_538, 290_491_277, 5316, app.clone()), // extoll allreduce
        (1_093_750_536, 267_373_144, 4538, app.clone()), // extoll rpc
        (1_278_209_906, 654_572_802, 10_020, raw),    // ib raw mix
        (6_834_541_327, 6_106_993_945, 112_601, app.clone()), // ib halo
        (5_834_290_754, 5_323_299_996, 101_963, app.clone()), // ib allreduce
        (4_690_556_685, 4_041_118_385, 83_916, app),  // ib rpc
    ];
    assert_eq!(
        got, golden,
        "(elapsed ps, p99 ps, cpu1.loads, per-conn books)"
    );
}
