//! Edge-case tests of the GPU model: L2 eviction under large working sets,
//! copy-engine guardrails, stream accessors, warp widths.

use std::rc::Rc;
use tc_desim::Sim;
use tc_gpu::{Gpu, GpuConfig};
use tc_mem::{layout, Bus, RegionKind, SparseMem};
use tc_pcie::{Pcie, PcieConfig, Processor};

fn gpu_with(cfg: GpuConfig) -> (Sim, Bus, Gpu) {
    let sim = Sim::new();
    let bus = Bus::new();
    bus.add_ram(
        Rc::new(SparseMem::new(layout::host_dram(0), 1 << 26)),
        RegionKind::HostDram { node: 0 },
    );
    let pcie = Pcie::new(sim.clone(), bus.clone(), PcieConfig::gen3_x8());
    let gpu = Gpu::new(&sim, 0, cfg, &bus, &pcie);
    (sim, bus, gpu)
}

#[test]
fn l2_evicts_under_a_working_set_larger_than_capacity() {
    // Tiny L2: 4 lines of 128 B.
    let cfg = GpuConfig {
        l2_bytes: 512,
        ..GpuConfig::kepler_k20()
    };
    let (sim, _bus, gpu) = gpu_with(cfg);
    let base = gpu.alloc(16 * 128, 128);
    let g = gpu.clone();
    sim.spawn("t", async move {
        let t = g.thread();
        // Touch 16 lines: all miss, and by the end only 4 are resident.
        for i in 0..16u64 {
            let _ = t.ld_u64(base + i * 128).await;
        }
        // Re-touch the first line: evicted, so it misses again.
        let before = g.counters().l2_read_misses.get();
        let _ = t.ld_u64(base).await;
        assert_eq!(g.counters().l2_read_misses.get(), before + 1);
    });
    sim.run();
    assert_eq!(gpu.l2().resident_lines(), 4);
}

#[test]
#[should_panic]
fn copy_to_host_rejects_host_source() {
    let (sim, _bus, gpu) = gpu_with(GpuConfig::kepler_k20());
    let g = gpu.clone();
    sim.spawn("t", async move {
        g.copy_to_host(layout::host_dram(0), layout::host_dram(0) + 4096, 64)
            .await;
    });
    sim.run();
}

#[test]
fn stream_accessor_returns_owning_gpu() {
    let (_sim, _bus, gpu) = gpu_with(GpuConfig::kepler_k20());
    let s = gpu.stream();
    assert_eq!(s.gpu().node(), 0);
}

#[test]
fn instr_parallel_full_warp_is_32x_faster() {
    let (sim, _bus, gpu) = gpu_with(GpuConfig::kepler_k20());
    let g = gpu.clone();
    let sim2 = sim.clone();
    sim.spawn("t", async move {
        let t = g.thread();
        let t0 = sim2.now();
        t.instr(3200).await;
        let serial = sim2.now() - t0;
        let t0 = sim2.now();
        t.instr_parallel(3200, 32).await;
        let warp = sim2.now() - t0;
        // Exact up to picosecond rounding of the cycle time.
        assert!(
            serial.abs_diff(32 * warp) <= 64,
            "serial {serial} vs 32x warp {}",
            32 * warp
        );
    });
    sim.run();
    // Counters saw the same instruction count both times.
    assert_eq!(gpu.counters().instructions.get(), 6400);
}

#[test]
fn sysmem_transaction_counting_uses_32_byte_granules() {
    let (sim, _bus, gpu) = gpu_with(GpuConfig::kepler_k20());
    let g = gpu.clone();
    sim.spawn("t", async move {
        let t = g.thread();
        // 33 bytes -> 2 transactions; 32 -> 1; 1 -> 1.
        t.st_bytes(layout::host_dram(0), &[0u8; 33]).await;
        t.st_bytes(layout::host_dram(0) + 64, &[0u8; 32]).await;
        t.st_bytes(layout::host_dram(0) + 128, &[0u8; 1]).await;
    });
    sim.run();
    assert_eq!(gpu.counters().sysmem_writes.get(), 2 + 1 + 1);
}
