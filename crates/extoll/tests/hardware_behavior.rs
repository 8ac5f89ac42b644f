//! Hardware-behavior tests of the RMA unit: multi-port isolation, get
//! responder paths, notification-unit routing, and in-order delivery.

use std::cell::Cell;
use std::rc::Rc;

use tc_desim::Sim;
use tc_extoll::{ExtollNic, NotifyUnit, RmaConfig, RmaFrame, WrFlags};
use tc_gpu::{Gpu, GpuConfig};
use tc_link::{CableConfig, Fabric};
use tc_mem::{layout, Bus, Heap, RegionKind, SparseMem};
use tc_pcie::{CpuConfig, CpuThread, Pcie, PcieConfig};

struct Node {
    cpu: CpuThread,
    gpu: Gpu,
    nic: ExtollNic,
    host_heap: Rc<Heap>,
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
        Node {
            cpu,
            gpu,
            nic,
            host_heap: Rc::new(Heap::new(layout::host_dram(node), 1 << 29)),
        }
    };
    let n0 = build(0);
    let n1 = build(1);
    (bus, n0, n1)
}

#[test]
fn many_ports_move_disjoint_data_concurrently() {
    let sim = Sim::new();
    let (bus, n0, n1) = two_nodes(&sim);
    const PORTS: usize = 8;
    const LEN: u64 = 512;
    let mut expected = Vec::new();
    for k in 0..PORTS {
        let src = n0.host_heap.alloc(LEN, 64);
        let dst = n1.host_heap.alloc(LEN, 64);
        let data: Vec<u8> = (0..LEN)
            .map(|i| (i as u8).wrapping_mul(k as u8 + 1))
            .collect();
        bus.write(src, &data);
        let src_nla = n0.nic.register_memory(src, LEN);
        let dst_nla = n1.nic.register_memory(dst, LEN);
        let p0 = n0.nic.open_port();
        let p1 = n1.nic.open_port();
        expected.push((dst, data));
        let cpu = n0.cpu.clone();
        sim.spawn(&format!("port{k}"), async move {
            p0.post_put(
                &cpu,
                p1.index(),
                src_nla,
                dst_nla,
                LEN as u32,
                WrFlags {
                    notify_requester: true,
                    ..Default::default()
                },
            )
            .await;
            p0.requester.wait(&cpu).await;
            p0.requester.free(&cpu).await;
        });
    }
    sim.run();
    for (dst, data) in expected {
        let mut got = vec![0u8; LEN as usize];
        bus.read(dst, &mut got);
        assert_eq!(got, data);
    }
    assert_eq!(n0.nic.stats().puts.get(), PORTS as u64);
}

#[test]
fn get_generates_responder_notification_at_target() {
    let sim = Sim::new();
    let (bus, n0, n1) = two_nodes(&sim);
    let sink = n0.host_heap.alloc(256, 64);
    let src = n1.host_heap.alloc(256, 64);
    bus.write(src, &[0x42; 256]);
    let sink_nla = n0.nic.register_memory(sink, 256);
    let src_nla = n1.nic.register_memory(src, 256);
    let p0 = n0.nic.open_port();
    let p1 = n1.nic.open_port();
    let p1_idx = p1.index();
    let (cpu0, cpu1) = (n0.cpu.clone(), n1.cpu.clone());
    let target_notified = Rc::new(Cell::new(false));
    let tn = target_notified.clone();
    sim.spawn("origin", async move {
        p0.post_get(
            &cpu0,
            p1_idx,
            sink_nla,
            src_nla,
            256,
            WrFlags {
                notify_completer: true,
                notify_responder: true,
                ..Default::default()
            },
        )
        .await;
        let n = p0.completer.wait(&cpu0).await;
        assert_eq!(n.unit, NotifyUnit::Completer);
        p0.completer.free(&cpu0).await;
    });
    sim.spawn("target", async move {
        let n = p1.responder.wait(&cpu1).await;
        assert_eq!(n.unit, NotifyUnit::Responder);
        assert_eq!(n.len, 256);
        p1.responder.free(&cpu1).await;
        tn.set(true);
    });
    sim.run();
    assert!(target_notified.get());
    let mut got = vec![0u8; 256];
    bus.read(sink, &mut got);
    assert_eq!(&got[..], &[0x42; 256][..]);
}

#[test]
fn puts_on_one_port_arrive_in_order() {
    let sim = Sim::new();
    let (bus, n0, n1) = two_nodes(&sim);
    // Every put writes the same destination word; the last value must win.
    let src = n0.host_heap.alloc(8 * 32, 64);
    let dst = n1.host_heap.alloc(8, 64);
    for i in 0..32u64 {
        bus.write_u64(src + i * 8, i + 1);
    }
    let src_nla = n0.nic.register_memory(src, 8 * 32);
    let dst_nla = n1.nic.register_memory(dst, 8);
    let p0 = n0.nic.open_port();
    let p1 = n1.nic.open_port();
    let cpu = n0.cpu.clone();
    sim.spawn("pipeline", async move {
        for i in 0..32u64 {
            p0.post_put(
                &cpu,
                p1.index(),
                src_nla + i * 8,
                dst_nla,
                8,
                WrFlags {
                    notify_requester: true,
                    ..Default::default()
                },
            )
            .await;
        }
        for _ in 0..32 {
            p0.requester.wait(&cpu).await;
            p0.requester.free(&cpu).await;
        }
    });
    sim.run();
    assert_eq!(bus.read_u64(dst), 32, "reordering detected");
}

#[test]
fn wr_queue_gauge_and_poll_spin_counter_observe_a_put() {
    let sim = Sim::new();
    let (bus, n0, n1) = two_nodes(&sim);
    let src = n0.host_heap.alloc(64, 64);
    let dst = n1.host_heap.alloc(64, 64);
    bus.write(src, &[7u8; 64]);
    let src_nla = n0.nic.register_memory(src, 64);
    let dst_nla = n1.nic.register_memory(dst, 64);
    let p0 = n0.nic.open_port();
    let p1 = n1.nic.open_port();
    let cpu = n0.cpu.clone();
    sim.spawn("put", async move {
        p0.post_put(
            &cpu,
            p1.index(),
            src_nla,
            dst_nla,
            64,
            WrFlags {
                notify_requester: true,
                ..Default::default()
            },
        )
        .await;
        p0.requester.wait(&cpu).await;
        p0.requester.free(&cpu).await;
    });
    sim.run();
    let snap = sim.registry().snapshot();
    // The wait loop spun on an empty requester queue at least once before
    // the notification landed (one PCIe-latency round trip per spin).
    assert!(snap.get("extoll0.notif_poll_spins") > 0);
    // The BAR raised the WR FIFO depth and the requester engine drained it.
    let g = snap
        .gauge("extoll0.wr_queue_depth")
        .expect("gauge registered");
    assert_eq!(g.current, 0);
    assert!(g.high_water >= 1);
}

#[test]
fn gpu_and_cpu_can_share_a_port_sequentially() {
    // The same port handle driven first by the CPU, then by the GPU — the
    // API code path is processor-agnostic.
    let sim = Sim::new();
    let (bus, n0, n1) = two_nodes(&sim);
    let src = n0.gpu.alloc(128, 64);
    let dst = n1.gpu.alloc(128, 64);
    bus.write(src, &[9u8; 128]);
    let src_nla = n0.nic.register_memory(src, 128);
    let dst_nla = n1.nic.register_memory(dst, 128);
    let p0 = n0.nic.open_port();
    let p1 = n1.nic.open_port();
    let cpu = n0.cpu.clone();
    let gpu = n0.gpu.clone();
    sim.spawn("mixed", async move {
        let flags = WrFlags {
            notify_requester: true,
            ..Default::default()
        };
        p0.post_put(&cpu, p1.index(), src_nla, dst_nla, 64, flags)
            .await;
        p0.requester.wait(&cpu).await;
        p0.requester.free(&cpu).await;
        let t = gpu.thread();
        p0.post_put(&t, p1.index(), src_nla + 64, dst_nla + 64, 64, flags)
            .await;
        p0.requester.wait(&t).await;
        p0.requester.free(&t).await;
    });
    sim.run();
    let mut got = vec![0u8; 128];
    bus.read(dst, &mut got);
    assert_eq!(got, vec![9u8; 128]);
}
