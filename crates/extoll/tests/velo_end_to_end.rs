//! End-to-end tests of the VELO small-message engine across two nodes.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use tc_desim::{Sim, Time, Work};
use tc_extoll::api::VeloPort;
use tc_extoll::{ExtollNic, RmaConfig, RmaFrame, VELO_MAX_PAYLOAD};
use tc_gpu::{Gpu, GpuConfig};
use tc_link::{CableConfig, Fabric};
use tc_mem::{layout, Bus, Heap, RegionKind, SparseMem};
use tc_pcie::{CpuConfig, CpuThread, Pcie, PcieConfig, Processor};
use tc_trace::Snapshot;

struct Node {
    cpu: CpuThread,
    gpu: Gpu,
    nic: ExtollNic,
}

fn two_nodes(sim: &Sim) -> (Bus, Node, Node) {
    let bus = Bus::new();
    let cable: Fabric<RmaFrame> = Fabric::new(sim, CableConfig::extoll_galibier(), 2);
    let build = |node: usize| {
        bus.add_ram(
            Rc::new(SparseMem::new(layout::host_dram(node), 1 << 30)),
            RegionKind::HostDram { node },
        );
        let pcie = Pcie::new(sim.clone(), bus.clone(), PcieConfig::gen2_x8());
        let gpu = Gpu::new(sim, node, GpuConfig::kepler_k20(), &bus, &pcie);
        let kernel_heap = Heap::new(layout::host_dram(node) + (1 << 29), 1 << 28);
        let nic = ExtollNic::new(
            sim,
            node,
            RmaConfig::default(),
            &bus,
            &pcie,
            cable.port(node),
            &kernel_heap,
        );
        let cpu = CpuThread::new(
            sim.clone(),
            node,
            CpuConfig::default(),
            pcie.endpoint(&format!("cpu{node}")),
        );
        Node { cpu, gpu, nic }
    };
    let n0 = build(0);
    let n1 = build(1);
    (bus, n0, n1)
}

#[test]
fn velo_message_arrives_with_payload_and_source() {
    let sim = Sim::new();
    let (_bus, n0, n1) = two_nodes(&sim);
    let v0 = n0.nic.open_velo_port();
    let v1 = n1.nic.open_velo_port();
    let (cpu0, cpu1) = (n0.cpu.clone(), n1.cpu.clone());
    let src_seen = Rc::new(Cell::new(u16::MAX));
    let s = src_seen.clone();
    let v0_idx = v0.index();
    let v1_idx = v1.index();
    sim.spawn("sender", async move {
        v0.send(&cpu0, v1_idx, b"tiny message").await;
    });
    sim.spawn("receiver", async move {
        let (src, data) = v1.recv(&cpu1).await;
        assert_eq!(data, b"tiny message");
        s.set(src);
    });
    sim.run();
    assert_eq!(src_seen.get(), v0_idx);
    assert_eq!(n1.nic.stats().velo_delivered.get(), 1);
}

#[test]
fn velo_stream_is_in_order_and_lossless_within_mailbox_depth() {
    let sim = Sim::new();
    let (_bus, n0, n1) = two_nodes(&sim);
    let v0 = n0.nic.open_velo_port();
    let v1 = n1.nic.open_velo_port();
    let (cpu0, cpu1) = (n0.cpu.clone(), n1.cpu.clone());
    const N: u64 = 200;
    let dst = v1.index();
    sim.spawn("sender", async move {
        for i in 0..N {
            // 8-byte sequence number payload.
            v0.send(&cpu0, dst, &i.to_le_bytes()).await;
            // Pace slightly so the consumer keeps up with the 64-slot
            // mailbox (flow control is the application's job with VELO).
            cpu0.instr(2000).await;
        }
    });
    let got = Rc::new(Cell::new(0u64));
    let g = got.clone();
    sim.spawn("receiver", async move {
        for expect in 0..N {
            let (_src, data) = v1.recv(&cpu1).await;
            let v = u64::from_le_bytes(data.try_into().unwrap());
            assert_eq!(v, expect, "reordering or loss detected");
            g.set(g.get() + 1);
        }
    });
    sim.run();
    assert_eq!(got.get(), N);
    assert_eq!(n1.nic.stats().velo_drops.get(), 0);
}

#[test]
fn velo_overflow_drops_are_counted() {
    let sim = Sim::new();
    let (_bus, n0, n1) = two_nodes(&sim);
    let v0 = n0.nic.open_velo_port();
    let v1 = n1.nic.open_velo_port();
    let cpu0 = n0.cpu.clone();
    let dst = v1.index();
    sim.spawn("flood", async move {
        for i in 0..200u64 {
            v0.send(&cpu0, dst, &i.to_le_bytes()).await;
        }
        let _ = &v1; // receiver never drains
    });
    sim.run();
    let stats = n1.nic.stats();
    assert!(stats.velo_drops.get() > 0, "expected mailbox overflow");
    assert!(
        stats.velo_delivered.get() >= 64,
        "mailbox should have filled"
    );
}

#[test]
fn gpu_can_send_and_receive_velo_messages() {
    let sim = Sim::new();
    let (_bus, n0, n1) = two_nodes(&sim);
    let v0 = n0.nic.open_velo_port();
    let v1 = n1.nic.open_velo_port();
    let t0 = n0.gpu.thread();
    let t1 = n1.gpu.thread();
    let dst1 = v1.index();
    let dst0 = v0.index();
    let sim2 = sim.clone();
    sim.spawn("gpu-pingpong", async move {
        // GPU0 sends, GPU1 echoes, GPU0 verifies — all device-driven.
        let payload = [0x5Au8; VELO_MAX_PAYLOAD];
        v0.send(&t0, dst1, &payload).await;
        let (_s, got) = v1.recv(&t1).await;
        assert_eq!(&got[..], &payload[..]);
        v1.send(&t1, dst0, &got).await;
        let (_s, echoed) = v0.recv(&t0).await;
        assert_eq!(&echoed[..], &payload[..]);
        assert!(sim2.now() > 0);
    });
    sim.run();
    // The GPU's sends crossed PCIe as write-combined bursts: the 72-byte
    // message is 3 sysmem transactions (32B granules), once per direction.
    assert!(n0.gpu.counters().sysmem_writes.get() >= 3);
    assert!(n1.gpu.counters().sysmem_writes.get() >= 3);
}

/// Take the next message with `recv`, or with a `try_recv` loop.
async fn take<P: Processor>(port: &VeloPort, p: &P, recv: bool) -> (u16, Vec<u8>) {
    if recv {
        return port.recv(p).await;
    }
    loop {
        if let Some(m) = port.try_recv(p).await {
            return m;
        }
    }
}

/// Node 0's CPU sends five paced messages that node 1 takes on its GPU or
/// its CPU. Returns the end time, the registry, each message with its
/// arrival instant, and whether any wait was fast-forwarded.
fn paced_stream(on_gpu: bool, recv: bool) -> (Time, Snapshot, Vec<(Time, Vec<u8>)>, bool) {
    let sim = Sim::new();
    let (_bus, n0, n1) = two_nodes(&sim);
    let v0 = n0.nic.open_velo_port();
    let v1 = n1.nic.open_velo_port();
    let (cpu0, dst) = (n0.cpu.clone(), v1.index());
    sim.spawn("sender", async move {
        for i in 0..5u8 {
            cpu0.instr(20_000).await;
            v0.send(&cpu0, dst, &vec![i; 8 * i as usize + 1]).await;
        }
    });
    let got = Rc::new(RefCell::new(Vec::new()));
    let (g, h, cpu1, gpu1) = (got.clone(), sim.clone(), n1.cpu.clone(), n1.gpu.thread());
    sim.spawn("receiver", async move {
        for _ in 0..5 {
            let (_src, data) = if on_gpu {
                take(&v1, &gpu1, recv).await
            } else {
                take(&v1, &cpu1, recv).await
            };
            g.borrow_mut().push((h.now(), data));
        }
    });
    let before = Work::on_thread();
    let end = sim.run();
    let skipped = Work::on_thread().since(before).skipped;
    (end, sim.registry().snapshot(), got.take(), skipped > 0)
}

#[test]
fn mailbox_recv_matches_a_try_recv_loop_on_both_processors() {
    for on_gpu in [false, true] {
        let (end, registry, got, parked) = paced_stream(on_gpu, true);
        let (loop_end, loop_registry, loop_got, loop_parked) = paced_stream(on_gpu, false);
        assert!(parked, "recv never fast-forwarded (gpu: {on_gpu})");
        assert!(!loop_parked);
        assert_eq!(got.len(), 5);
        assert_eq!(end, loop_end, "gpu: {on_gpu}");
        assert_eq!(got, loop_got, "gpu: {on_gpu}");
        assert_eq!(registry, loop_registry, "gpu: {on_gpu}");
    }
}
