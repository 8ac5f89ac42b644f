//! Failure-injection tests of the HCA model: queue overflows, stale WQE
//! fetches, protection errors — hardware must degrade the way real HCAs do
//! (error completions and counters, not corruption).

use std::rc::Rc;

use tc_desim::Sim;
use tc_gpu::{Gpu, GpuConfig};
use tc_ib::{Access, BufLoc, CqeStatus, IbConfig, IbFrame, IbHca, IbvContext, SendOpcode, SendWr};
use tc_link::{CableConfig, Fabric};
use tc_mem::{layout, Bus, Heap, RegionKind, SparseMem};
use tc_pcie::{CpuConfig, CpuThread, Pcie, PcieConfig, Processor};

struct Node {
    cpu: CpuThread,
    #[allow(dead_code)]
    gpu: Gpu,
    hca: IbHca,
    host_heap: Rc<Heap>,
}

fn two_nodes(sim: &Sim) -> (Bus, Node, Node) {
    let bus = Bus::new();
    let cable: Fabric<IbFrame> = Fabric::new(sim, CableConfig::ib_fdr_4x(), 2);
    let build = |node: usize| {
        bus.add_ram(
            Rc::new(SparseMem::new(layout::host_dram(node), 1 << 30)),
            RegionKind::HostDram { node },
        );
        let pcie = Pcie::new(sim.clone(), bus.clone(), PcieConfig::gen3_x8());
        let gpu = Gpu::new(sim, node, GpuConfig::kepler_k20(), &bus, &pcie);
        let hca = IbHca::new(
            sim,
            node,
            IbConfig::default(),
            &bus,
            &pcie,
            cable.port(node),
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
            hca,
            host_heap: Rc::new(Heap::new(layout::host_dram(node), 1 << 29)),
        }
    };
    let n0 = build(0);
    let n1 = build(1);
    (bus, n0, n1)
}

fn wire_pair(n0: &Node, n1: &Node) -> (Rc<tc_ib::IbvQp>, Rc<tc_ib::IbvCq>, Rc<tc_ib::IbvQp>) {
    let ctx0 = IbvContext::new(n0.hca.clone(), n0.host_heap.clone(), None, BufLoc::Host);
    let ctx1 = IbvContext::new(n1.hca.clone(), n1.host_heap.clone(), None, BufLoc::Host);
    let cq0 = ctx0.create_cq(BufLoc::Host);
    let cq1 = ctx1.create_cq(BufLoc::Host);
    let qp0 = Rc::new(ctx0.create_qp(cq0.clone(), cq0.clone(), BufLoc::Host));
    let qp1 = Rc::new(ctx1.create_qp(cq1.clone(), cq1.clone(), BufLoc::Host));
    qp0.connect(qp1.qpn());
    qp1.connect(qp0.qpn());
    (qp0, cq0, qp1)
}

#[test]
fn unpolled_completions_overflow_the_cq_without_corruption() {
    let sim = Sim::new();
    let (bus, n0, n1) = two_nodes(&sim);
    let (qp0, cq0, _qp1) = wire_pair(&n0, &n1);
    let ctx0 = IbvContext::new(n0.hca.clone(), n0.host_heap.clone(), None, BufLoc::Host);
    let ctx1 = IbvContext::new(n1.hca.clone(), n1.host_heap.clone(), None, BufLoc::Host);
    let src = n0.host_heap.alloc(64, 64);
    let dst = n1.host_heap.alloc(64, 64);
    bus.write_u64(src, 0xFEED);
    let mr0 = ctx0.reg_mr(src, 64, Access::full());
    let mr1 = ctx1.reg_mr(dst, 64, Access::full());
    let cpu = n0.cpu.clone();
    // More signaled sends than CQ entries, never polling.
    let n_msgs = IbConfig::default().cq_entries + 50;
    sim.spawn("flood", async move {
        for _ in 0..n_msgs {
            qp0.post_send(
                &cpu,
                &SendWr {
                    opcode: SendOpcode::RdmaWrite,
                    laddr: mr0.addr,
                    lkey: mr0.lkey,
                    raddr: mr1.addr,
                    rkey: mr1.rkey,
                    len: 64,
                    imm: 0,
                    signaled: true,
                },
            )
            .await;
            // Pace below the SQ depth; the CQ is what overflows.
            if qp0.qpn() != 0 {
                cpu.instr(4000).await;
            }
        }
    });
    sim.run();
    assert!(
        n0.hca.stats().cq_overflows.get() >= 40,
        "expected CQ overflows, got {}",
        n0.hca.stats().cq_overflows.get()
    );
    // The data path kept working: the last payload arrived.
    assert_eq!(bus.read_u64(dst), 0xFEED);
    // A later poll still drains valid CQEs (the ring holds cq_entries).
    let cpu = n0.cpu.clone();
    let drained = Rc::new(std::cell::Cell::new(0u64));
    let d = drained.clone();
    sim.spawn("drain", async move {
        while cq0.poll(&cpu).await.is_some() {
            d.set(d.get() + 1);
        }
    });
    sim.run();
    assert!(drained.get() > 0);
}

#[test]
fn doorbell_beyond_posted_wqes_hits_stamped_entries() {
    let sim = Sim::new();
    let (bus, n0, n1) = two_nodes(&sim);
    let (qp0, _cq0, _qp1) = wire_pair(&n0, &n1);
    let ctx0 = IbvContext::new(n0.hca.clone(), n0.host_heap.clone(), None, BufLoc::Host);
    let ctx1 = IbvContext::new(n1.hca.clone(), n1.host_heap.clone(), None, BufLoc::Host);
    let src = n0.host_heap.alloc(64, 64);
    let dst = n1.host_heap.alloc(64, 64);
    let mr0 = ctx0.reg_mr(src, 64, Access::full());
    let mr1 = ctx1.reg_mr(dst, 64, Access::full());
    let cpu = n0.cpu.clone();
    let db = n0.hca.doorbell_addr();
    let qpn = qp0.qpn();
    sim.spawn("misbehave", async move {
        // One legitimate post...
        qp0.post_send(
            &cpu,
            &SendWr {
                opcode: SendOpcode::RdmaWrite,
                laddr: mr0.addr,
                lkey: mr0.lkey,
                raddr: mr1.addr,
                rkey: mr1.rkey,
                len: 8,
                imm: 0,
                signaled: false,
            },
        )
        .await;
        // ...then a buggy doorbell claiming three more WQEs exist.
        cpu.st_u64(db, ((qpn as u64) << 32) | 4).await;
    });
    sim.run();
    // The HCA fetched the stamped/stale entries and rejected them.
    assert!(
        n0.hca.stats().stale_wqe_fetches.get() >= 2,
        "stale fetches = {}",
        n0.hca.stats().stale_wqe_fetches.get()
    );
    // The one real WQE executed.
    assert_eq!(n0.hca.stats().wqes_executed.get(), 1);
    let _ = bus;
}

#[test]
fn out_of_bounds_local_buffer_completes_with_protection_error() {
    let sim = Sim::new();
    let (bus, n0, n1) = two_nodes(&sim);
    let (qp0, cq0, _qp1) = wire_pair(&n0, &n1);
    let ctx0 = IbvContext::new(n0.hca.clone(), n0.host_heap.clone(), None, BufLoc::Host);
    let ctx1 = IbvContext::new(n1.hca.clone(), n1.host_heap.clone(), None, BufLoc::Host);
    let src = n0.host_heap.alloc(64, 64);
    let dst = n1.host_heap.alloc(64, 64);
    let mr0 = ctx0.reg_mr(src, 64, Access::full());
    let mr1 = ctx1.reg_mr(dst, 4096, Access::full());
    let cpu = n0.cpu.clone();
    sim.spawn("oob", async move {
        qp0.post_send(
            &cpu,
            &SendWr {
                opcode: SendOpcode::RdmaWrite,
                laddr: mr0.addr,
                lkey: mr0.lkey,
                raddr: mr1.addr,
                rkey: mr1.rkey,
                len: 128, // exceeds the 64-byte local registration
                imm: 0,
                signaled: false, // errors complete anyway
            },
        )
        .await;
        let wc = cq0.wait(&cpu).await;
        assert_eq!(wc.status, CqeStatus::LocalProtectionError);
    });
    sim.run();
    // Nothing was transmitted.
    assert_eq!(n1.hca.stats().frames_rx.get(), 0);
    assert_eq!(bus.read_u64(dst), 0);
}

#[test]
fn remote_access_error_does_not_stall_subsequent_traffic() {
    let sim = Sim::new();
    let (bus, n0, n1) = two_nodes(&sim);
    let (qp0, cq0, _qp1) = wire_pair(&n0, &n1);
    let ctx0 = IbvContext::new(n0.hca.clone(), n0.host_heap.clone(), None, BufLoc::Host);
    let ctx1 = IbvContext::new(n1.hca.clone(), n1.host_heap.clone(), None, BufLoc::Host);
    let src = n0.host_heap.alloc(64, 64);
    let dst = n1.host_heap.alloc(64, 64);
    bus.write_u64(src, 0xABCD);
    let mr0 = ctx0.reg_mr(src, 64, Access::full());
    let mr1 = ctx1.reg_mr(dst, 64, Access::full());
    let cpu = n0.cpu.clone();
    sim.spawn("recover", async move {
        // Bad rkey -> error completion.
        qp0.post_send(
            &cpu,
            &SendWr {
                opcode: SendOpcode::RdmaWrite,
                laddr: mr0.addr,
                lkey: mr0.lkey,
                raddr: mr1.addr,
                rkey: mr1.rkey ^ 0xFF,
                len: 8,
                imm: 0,
                signaled: true,
            },
        )
        .await;
        let wc = cq0.wait(&cpu).await;
        assert_eq!(wc.status, CqeStatus::RemoteAccessError);
        // The very next operation on the same QP succeeds.
        qp0.post_send(
            &cpu,
            &SendWr {
                opcode: SendOpcode::RdmaWrite,
                laddr: mr0.addr,
                lkey: mr0.lkey,
                raddr: mr1.addr,
                rkey: mr1.rkey,
                len: 8,
                imm: 0,
                signaled: true,
            },
        )
        .await;
        let wc = cq0.wait(&cpu).await;
        assert_eq!(wc.status, CqeStatus::Success);
    });
    sim.run();
    assert_eq!(bus.read_u64(dst), 0xABCD);
}
