//! The simulator must be bit-for-bit deterministic: identical runs produce
//! identical simulated times, counters and data — the property every result
//! in EXPERIMENTS.md relies on.

use tc_repro::putget::bench::bandwidth::{extoll_bandwidth, ib_bandwidth};
use tc_repro::putget::bench::msgrate::extoll_msgrate;
use tc_repro::putget::bench::pingpong::{extoll_pingpong, ib_pingpong};
use tc_repro::putget::bench::{ExtollMode, IbMode, RateMode};
use tc_repro::trace::Snapshot;

#[test]
fn extoll_pingpong_runs_are_identical() {
    let a = extoll_pingpong(ExtollMode::Dev2DevDirect, 1024, 20, 2);
    let b = extoll_pingpong(ExtollMode::Dev2DevDirect, 1024, 20, 2);
    assert_eq!(a.half_rtt, b.half_rtt);
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.put_time, b.put_time);
    assert_eq!(a.poll_time, b.poll_time);
}

#[test]
fn ib_pingpong_runs_are_identical() {
    let a = ib_pingpong(IbMode::Dev2DevBufOnGpu, 256, 15, 2);
    let b = ib_pingpong(IbMode::Dev2DevBufOnGpu, 256, 15, 2);
    assert_eq!(a.half_rtt, b.half_rtt);
    assert_eq!(a.counters, b.counters);
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
    assert_eq!(a.counters, b.counters);

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
