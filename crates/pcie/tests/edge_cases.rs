//! Edge-case tests of the PCIe model.

use std::rc::Rc;
use tc_desim::Sim;
use tc_mem::{layout, Bus, RegionKind, SparseMem};
use tc_pcie::{CpuConfig, CpuThread, Pcie, PcieConfig, Processor};

fn fabric() -> (Sim, Bus, Pcie) {
    let sim = Sim::new();
    let bus = Bus::new();
    bus.add_ram(
        Rc::new(SparseMem::new(layout::host_dram(0), 1 << 24)),
        RegionKind::HostDram { node: 0 },
    );
    let pcie = Pcie::new(sim.clone(), bus.clone(), PcieConfig::gen2_x8());
    (sim, bus, pcie)
}

#[test]
fn stats_count_every_transaction_kind() {
    let (sim, _bus, pcie) = fabric();
    let ep = pcie.endpoint("dev");
    sim.spawn("t", async move {
        ep.posted_write(layout::host_dram(0), vec![1u8; 8]).await;
        let mut b = [0u8; 8];
        ep.read(layout::host_dram(0), &mut b).await;
        let big = ep.dma_read(layout::host_dram(0), 4096).await;
        ep.dma_write(layout::host_dram(0), &big).await;
    });
    sim.run();
    assert!(pcie.stats().posted_writes.get() > 0);
    assert!(pcie.stats().reads.get() > 0);
    assert!(pcie.stats().dma_reads.get() > 0);
    assert!(pcie.stats().dma_writes.get() > 0);
}

#[test]
fn read_cost_matches_observed_uncontended_read_time() {
    let (sim, _bus, pcie) = fabric();
    let ep = pcie.endpoint("dev");
    let cost = ep.read_cost(8);
    let sim2 = sim.clone();
    sim.spawn("t", async move {
        let t0 = sim2.now();
        let mut b = [0u8; 8];
        ep.read(layout::host_dram(0), &mut b).await;
        assert_eq!(sim2.now() - t0, cost);
    });
    sim.run();
}

#[test]
fn cpu_state_accessors_are_much_cheaper_than_dram() {
    let (sim, _bus, pcie) = fabric();
    let cpu = CpuThread::new(sim.clone(), 0, CpuConfig::default(), pcie.endpoint("cpu"));
    let sim2 = sim.clone();
    sim.spawn("t", async move {
        let a = layout::host_dram(0);
        let t0 = sim2.now();
        let _ = cpu.ld_state(a).await;
        let cached = sim2.now() - t0;
        let t0 = sim2.now();
        let _ = cpu.ld_u64(a).await;
        let dram = sim2.now() - t0;
        assert!(cached * 5 < dram, "cached {cached} vs dram {dram}");
    });
    sim.run();
}

#[test]
fn zero_length_wire_time_is_one_tlp() {
    let c = PcieConfig::gen2_x8();
    assert!(c.wire_time(0, c.dma_bw) > 0);
}

#[test]
fn sparse_64_mib_dma_lands_only_the_written_page() {
    const LEN: u64 = 64 << 20;
    let sim = Sim::new();
    let bus = Bus::new();
    let src_mem = Rc::new(SparseMem::new(layout::gpu_dram(0), LEN));
    let dst_mem = Rc::new(SparseMem::new(layout::host_dram(0), LEN));
    bus.add_ram(src_mem.clone(), RegionKind::GpuDram { node: 0 });
    bus.add_ram(dst_mem.clone(), RegionKind::HostDram { node: 0 });
    let pcie = Pcie::new(sim.clone(), bus.clone(), PcieConfig::gen2_x8());
    // Never-written memory plus one marker page, as in a bandwidth run.
    let marker = layout::gpu_dram(0) + LEN - 8;
    bus.write_u64(marker, 0xFEED_F00D);
    let ep = pcie.endpoint("nic");
    sim.spawn("dma", async move {
        let data = ep.dma_read(layout::gpu_dram(0), LEN).await;
        assert_eq!(data.len() as u64, LEN);
        ep.dma_write(layout::host_dram(0), &data).await;
    });
    sim.run();
    assert_eq!(pcie.stats().dma_read_bytes.get(), LEN);
    assert_eq!(pcie.stats().dma_write_bytes.get(), LEN);
    // A flat-buffer copy would have materialized all 16,384 pages.
    assert_eq!(src_mem.resident_pages(), 1);
    assert_eq!(dst_mem.resident_pages(), 1);
    let (mut a, mut b) = (vec![0u8; 1 << 20], vec![0u8; 1 << 20]);
    for off in (0..LEN).step_by(1 << 20) {
        bus.read(layout::gpu_dram(0) + off, &mut a);
        bus.read(layout::host_dram(0) + off, &mut b);
        assert!(a == b, "bytes differ in the MiB at {off:#x}");
    }
    assert_eq!(bus.read_u64(layout::host_dram(0) + LEN - 8), 0xFEED_F00D);
}

#[test]
fn multi_page_dma_read_samples_memory_at_completion() {
    const LEN: u64 = 3 * 4096;
    let (sim, bus, pcie) = fabric();
    let src = layout::host_dram(0);
    let done = pcie.config().dma_time(LEN);
    let ep = pcie.endpoint("nic");
    let got = Rc::new(std::cell::RefCell::new(Vec::new()));
    let g = got.clone();
    sim.spawn("dma", async move {
        *g.borrow_mut() = ep.dma_read(src, LEN).await.to_vec();
    });
    // One store lands just before the read completes, one just after;
    // both hit pages the read covers that were never written before.
    for (at, off, v) in [(done - 1, 4096 + 16, 1u64), (done + 1, 2 * 4096, 2)] {
        let (s, b) = (sim.clone(), bus.clone());
        sim.spawn("store", async move {
            s.delay(at).await;
            b.write_u64(src + off, v);
        });
    }
    sim.run();
    let got = got.borrow();
    assert_eq!(got.len() as u64, LEN);
    let word = |off: usize| u64::from_le_bytes(got[off..off + 8].try_into().unwrap());
    assert_eq!(word(4096 + 16), 1, "a store before completion is sampled");
    assert_eq!(word(2 * 4096), 0, "a store after completion is not");
    assert_eq!(bus.read_u64(src + 2 * 4096), 2);
}
