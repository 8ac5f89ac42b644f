#![warn(missing_docs)]
//! `tc-ib` — a functional model of an Infiniband 4X FDR HCA and the Verbs
//! API ported to the GPU, as in §IV of the paper.
//!
//! # Architecture (mirrors §IV-A/B)
//!
//! * Communication happens between **queue pairs**: ring buffers of
//!   work-queue elements in host *or* GPU memory ([`qp::BufLoc`]), each with
//!   an associated **completion queue**.
//! * Posting is a **two-step** operation: write the big-endian WQE into the
//!   queue buffer, then notify the HCA through the **doorbell register**
//!   (MMIO). Compare EXTOLL's single-step BAR posting — the paper's §VI
//!   contrasts exactly these two designs.
//! * The HCA fetches WQEs by DMA (peer-to-peer when the buffer lives in GPU
//!   memory), validates **lkey/rkey** memory regions, moves the payload and
//!   DMA-writes **CQEs**. Reliable connections deliver in order, which is
//!   what lets benchmarks poll on the last payload element.
//! * Supported operations: RDMA write, RDMA read, send/receive, and RDMA
//!   write **with immediate** (completes on both sides but consumes a
//!   receive WQE — the paper uses it for host-controlled synchronization).

pub mod hca;
pub mod mr;
pub mod qp;
pub mod verbs;
pub mod wqe;

pub use hca::{HcaStats, IbConfig, IbFrame, IbHca};
pub use mr::{Access, MemoryRegion, MrError, MrTable};
pub use qp::{BufLoc, QpState};
pub use verbs::{IbvContext, IbvCq, IbvQp, SendWr, VerbsTuning, WorkCompletion};
pub use wqe::{Cqe, CqeOpcode, CqeStatus, RecvWqe, SendOpcode, SendWqe};

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;
    use tc_desim::Sim;
    use tc_gpu::{Gpu, GpuConfig};
    use tc_link::{CableConfig, Fabric};
    use tc_mem::{layout, Bus, Heap, RegionKind, SparseMem};
    use tc_pcie::{CpuConfig, CpuThread, Pcie, PcieConfig};

    pub(crate) struct Node {
        pub cpu: CpuThread,
        pub gpu: Gpu,
        pub hca: IbHca,
        pub host_heap: Rc<Heap>,
    }

    pub(crate) fn two_nodes(sim: &Sim) -> (Bus, Node, Node) {
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

    fn connect_pair(a: &IbvQp, b: &IbvQp) {
        a.connect(b.qpn());
        b.connect(a.qpn());
    }

    #[test]
    fn cpu_rdma_write_moves_data() {
        let sim = Sim::new();
        let (bus, n0, n1) = two_nodes(&sim);
        let ctx0 = IbvContext::new(n0.hca.clone(), n0.host_heap.clone(), None, BufLoc::Host);
        let ctx1 = IbvContext::new(n1.hca.clone(), n1.host_heap.clone(), None, BufLoc::Host);
        let cq0 = ctx0.create_cq(BufLoc::Host);
        let cq1 = ctx1.create_cq(BufLoc::Host);
        let qp0 = ctx0.create_qp(cq0.clone(), cq0.clone(), BufLoc::Host);
        let qp1 = ctx1.create_qp(cq1.clone(), cq1.clone(), BufLoc::Host);
        connect_pair(&qp0, &qp1);
        let src = n0.host_heap.alloc(4096, 64);
        let dst = n1.host_heap.alloc(4096, 64);
        let payload: Vec<u8> = (0..4096u32).map(|i| (i % 253) as u8).collect();
        bus.write(src, &payload);
        let mr0 = ctx0.reg_mr(src, 4096, Access::full());
        let mr1 = ctx1.reg_mr(dst, 4096, Access::full());
        let cpu = n0.cpu.clone();
        sim.spawn("sender", async move {
            qp0.post_send(
                &cpu,
                &SendWr {
                    opcode: SendOpcode::RdmaWrite,
                    laddr: mr0.addr,
                    lkey: mr0.lkey,
                    raddr: mr1.addr,
                    rkey: mr1.rkey,
                    len: 4096,
                    imm: 0,
                    signaled: true,
                },
            )
            .await;
            let wc = cq0.wait(&cpu).await;
            assert_eq!(wc.status, CqeStatus::Success);
            assert_eq!(wc.opcode, CqeOpcode::SendComplete);
            assert_eq!(wc.byte_count, 4096);
        });
        sim.run();
        let mut got = vec![0u8; 4096];
        bus.read(dst, &mut got);
        assert_eq!(got, payload);
    }

    #[test]
    fn rdma_read_fetches_remote_data() {
        let sim = Sim::new();
        let (bus, n0, n1) = two_nodes(&sim);
        let ctx0 = IbvContext::new(n0.hca.clone(), n0.host_heap.clone(), None, BufLoc::Host);
        let ctx1 = IbvContext::new(n1.hca.clone(), n1.host_heap.clone(), None, BufLoc::Host);
        let cq0 = ctx0.create_cq(BufLoc::Host);
        let cq1 = ctx1.create_cq(BufLoc::Host);
        let qp0 = ctx0.create_qp(cq0.clone(), cq0.clone(), BufLoc::Host);
        let qp1 = ctx1.create_qp(cq1.clone(), cq1.clone(), BufLoc::Host);
        connect_pair(&qp0, &qp1);
        let sink = n0.host_heap.alloc(1024, 64);
        let src = n1.host_heap.alloc(1024, 64);
        let payload: Vec<u8> = (0..1024u32).map(|i| (i * 3 % 256) as u8).collect();
        bus.write(src, &payload);
        let mr0 = ctx0.reg_mr(sink, 1024, Access::full());
        let mr1 = ctx1.reg_mr(src, 1024, Access::full());
        let cpu = n0.cpu.clone();
        sim.spawn("reader", async move {
            qp0.post_send(
                &cpu,
                &SendWr {
                    opcode: SendOpcode::RdmaRead,
                    laddr: mr0.addr,
                    lkey: mr0.lkey,
                    raddr: mr1.addr,
                    rkey: mr1.rkey,
                    len: 1024,
                    imm: 0,
                    signaled: true,
                },
            )
            .await;
            let wc = cq0.wait(&cpu).await;
            assert_eq!(wc.status, CqeStatus::Success);
        });
        sim.run();
        let mut got = vec![0u8; 1024];
        bus.read(sink, &mut got);
        assert_eq!(got, payload);
    }

    #[test]
    fn send_recv_and_write_imm_complete_on_both_sides() {
        let sim = Sim::new();
        let (bus, n0, n1) = two_nodes(&sim);
        let ctx0 = IbvContext::new(n0.hca.clone(), n0.host_heap.clone(), None, BufLoc::Host);
        let ctx1 = IbvContext::new(n1.hca.clone(), n1.host_heap.clone(), None, BufLoc::Host);
        let cq0 = ctx0.create_cq(BufLoc::Host);
        let cq1 = ctx1.create_cq(BufLoc::Host);
        let qp0 = ctx0.create_qp(cq0.clone(), cq0.clone(), BufLoc::Host);
        let qp1 = ctx1.create_qp(cq1.clone(), cq1.clone(), BufLoc::Host);
        connect_pair(&qp0, &qp1);
        let src = n0.host_heap.alloc(256, 64);
        let dst = n1.host_heap.alloc(256, 64);
        bus.write(src, &[0x5A; 256]);
        let mr0 = ctx0.reg_mr(src, 256, Access::full());
        let mr1 = ctx1.reg_mr(dst, 256, Access::full());
        let (cpu0, cpu1) = (n0.cpu.clone(), n1.cpu.clone());
        sim.spawn("pair", async move {
            // Receiver posts a recv, then the sender Sends.
            qp1.post_recv(&cpu1, mr1.addr, mr1.lkey, 256).await;
            qp0.post_send(
                &cpu0,
                &SendWr {
                    opcode: SendOpcode::Send,
                    laddr: mr0.addr,
                    lkey: mr0.lkey,
                    raddr: 0,
                    rkey: 0,
                    len: 256,
                    imm: 0,
                    signaled: true,
                },
            )
            .await;
            let wc = cq1.wait(&cpu1).await;
            assert_eq!(wc.opcode, CqeOpcode::RecvComplete);
            assert_eq!(wc.byte_count, 256);
            let wc = cq0.wait(&cpu0).await;
            assert_eq!(wc.opcode, CqeOpcode::SendComplete);

            // Write-with-immediate: receive WQE with zero address.
            qp1.post_recv(&cpu1, 0, 0, 0).await;
            qp0.post_send(
                &cpu0,
                &SendWr {
                    opcode: SendOpcode::RdmaWriteImm,
                    laddr: mr0.addr,
                    lkey: mr0.lkey,
                    raddr: mr1.addr,
                    rkey: mr1.rkey,
                    len: 128,
                    imm: 0xFEED,
                    signaled: true,
                },
            )
            .await;
            let wc = cq1.wait(&cpu1).await;
            assert_eq!(wc.opcode, CqeOpcode::RecvComplete);
            assert_eq!(wc.imm, 0xFEED);
            let wc = cq0.wait(&cpu0).await;
            assert_eq!(wc.opcode, CqeOpcode::SendComplete);
        });
        sim.run();
        let mut got = vec![0u8; 256];
        bus.read(dst, &mut got);
        assert_eq!(&got[..], &[0x5A; 256][..]);
    }

    #[test]
    fn bad_rkey_yields_remote_access_error_completion() {
        let sim = Sim::new();
        let (bus, n0, n1) = two_nodes(&sim);
        let ctx0 = IbvContext::new(n0.hca.clone(), n0.host_heap.clone(), None, BufLoc::Host);
        let ctx1 = IbvContext::new(n1.hca.clone(), n1.host_heap.clone(), None, BufLoc::Host);
        let cq0 = ctx0.create_cq(BufLoc::Host);
        let cq1 = ctx1.create_cq(BufLoc::Host);
        let qp0 = ctx0.create_qp(cq0.clone(), cq0.clone(), BufLoc::Host);
        let qp1 = ctx1.create_qp(cq1.clone(), cq1.clone(), BufLoc::Host);
        connect_pair(&qp0, &qp1);
        let src = n0.host_heap.alloc(64, 64);
        let dst = n1.host_heap.alloc(64, 64);
        bus.write_u64(src, 7);
        let mr0 = ctx0.reg_mr(src, 64, Access::full());
        let mr1 = ctx1.reg_mr(dst, 64, Access::full());
        let cpu = n0.cpu.clone();
        sim.spawn("sender", async move {
            qp0.post_send(
                &cpu,
                &SendWr {
                    opcode: SendOpcode::RdmaWrite,
                    laddr: mr0.addr,
                    lkey: mr0.lkey,
                    raddr: mr1.addr,
                    rkey: mr1.rkey ^ 0xFF, // corrupt the key
                    len: 64,
                    imm: 0,
                    signaled: false, // errors complete regardless
                },
            )
            .await;
            let wc = cq0.wait(&cpu).await;
            assert_eq!(wc.status, CqeStatus::RemoteAccessError);
        });
        sim.run();
        assert_eq!(n1.hca.stats().remote_access_errors.get(), 1);
        // Data must not have landed.
        assert_eq!(bus.read_u64(dst), 0);
    }

    #[test]
    fn send_without_posted_recv_is_rnr_error() {
        let sim = Sim::new();
        let (bus, n0, n1) = two_nodes(&sim);
        let ctx0 = IbvContext::new(n0.hca.clone(), n0.host_heap.clone(), None, BufLoc::Host);
        let ctx1 = IbvContext::new(n1.hca.clone(), n1.host_heap.clone(), None, BufLoc::Host);
        let cq0 = ctx0.create_cq(BufLoc::Host);
        let cq1 = ctx1.create_cq(BufLoc::Host);
        let qp0 = ctx0.create_qp(cq0.clone(), cq0.clone(), BufLoc::Host);
        let qp1 = ctx1.create_qp(cq1.clone(), cq1.clone(), BufLoc::Host);
        connect_pair(&qp0, &qp1);
        let src = n0.host_heap.alloc(64, 64);
        bus.write_u64(src, 1);
        let mr0 = ctx0.reg_mr(src, 64, Access::full());
        let cpu = n0.cpu.clone();
        sim.spawn("sender", async move {
            qp0.post_send(
                &cpu,
                &SendWr {
                    opcode: SendOpcode::Send,
                    laddr: mr0.addr,
                    lkey: mr0.lkey,
                    raddr: 0,
                    rkey: 0,
                    len: 64,
                    imm: 0,
                    signaled: true,
                },
            )
            .await;
            let wc = cq0.wait(&cpu).await;
            assert_eq!(wc.status, CqeStatus::RnrRetryExceeded);
        });
        sim.run();
        assert_eq!(n1.hca.stats().rnr_events.get(), 1);
    }

    #[test]
    fn gpu_driven_verbs_with_buffers_on_gpu() {
        let sim = Sim::new();
        let (bus, n0, n1) = two_nodes(&sim);
        // GPU-driven context: buffers and state in device memory.
        let ctx0 = IbvContext::new(
            n0.hca.clone(),
            n0.host_heap.clone(),
            Some(n0.gpu.clone()),
            BufLoc::Gpu,
        );
        let ctx1 = IbvContext::new(n1.hca.clone(), n1.host_heap.clone(), None, BufLoc::Host);
        let cq0 = ctx0.create_cq(BufLoc::Gpu);
        let cq1 = ctx1.create_cq(BufLoc::Host);
        let qp0 = ctx0.create_qp(cq0.clone(), cq0.clone(), BufLoc::Gpu);
        let qp1 = ctx1.create_qp(cq1.clone(), cq1.clone(), BufLoc::Host);
        connect_pair(&qp0, &qp1);
        let src = n0.gpu.alloc(2048, 256);
        let dst = n1.gpu.alloc(2048, 256);
        let payload: Vec<u8> = (0..2048u32).map(|i| (i * 13 % 256) as u8).collect();
        bus.write(src, &payload);
        let mr0 = ctx0.reg_mr(src, 2048, Access::full());
        let mr1 = ctx1.reg_mr(dst, 2048, Access::full());
        let t = n0.gpu.thread();
        sim.spawn("gpu-sender", async move {
            qp0.post_send(
                &t,
                &SendWr {
                    opcode: SendOpcode::RdmaWrite,
                    laddr: mr0.addr,
                    lkey: mr0.lkey,
                    raddr: mr1.addr,
                    rkey: mr1.rkey,
                    len: 2048,
                    imm: 0,
                    signaled: true,
                },
            )
            .await;
            let wc = cq0.wait(&t).await;
            assert_eq!(wc.status, CqeStatus::Success);
        });
        sim.run();
        let mut got = vec![0u8; 2048];
        bus.read(layout::gpu_bar_to_dram(mr1.addr), &mut got);
        assert_eq!(got, payload);
        // The doorbell store and WQE writes happened; with buffers on GPU
        // the only sysmem store is the doorbell itself.
        let c = n0.gpu.counters();
        assert!(c.sysmem_writes.get() >= 1, "doorbell must cross PCIe");
        assert!(
            c.globmem64_writes.get() > 0,
            "WQE writes should hit device memory"
        );
    }

    #[test]
    fn post_send_costs_about_442_instructions_on_gpu() {
        let sim = Sim::new();
        let (bus, n0, n1) = two_nodes(&sim);
        let _ = bus;
        let ctx0 = IbvContext::new(
            n0.hca.clone(),
            n0.host_heap.clone(),
            Some(n0.gpu.clone()),
            BufLoc::Gpu,
        );
        let ctx1 = IbvContext::new(n1.hca.clone(), n1.host_heap.clone(), None, BufLoc::Host);
        let cq0 = ctx0.create_cq(BufLoc::Gpu);
        let cq1 = ctx1.create_cq(BufLoc::Host);
        let qp0 = ctx0.create_qp(cq0.clone(), cq0.clone(), BufLoc::Gpu);
        let qp1 = ctx1.create_qp(cq1.clone(), cq1.clone(), BufLoc::Host);
        connect_pair(&qp0, &qp1);
        let src = n0.gpu.alloc(64, 64);
        let mr0 = ctx0.reg_mr(src, 64, Access::full());
        let dst = n1.host_heap.alloc(64, 64);
        let mr1 = ctx1.reg_mr(dst, 64, Access::full());
        let t = n0.gpu.thread();
        let gpu = n0.gpu.clone();
        sim.spawn("gpu", async move {
            let instr = &gpu.counters().instructions;
            let before = instr.get();
            qp0.post_send(
                &t,
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
            let post = instr.get() - before;
            // Paper §V-B.3: 442 instructions to post a work request.
            assert!(
                (420..=465).contains(&post),
                "post_send instructions = {post}"
            );
            // ... and 283 for a successful poll.
            let before = instr.get();
            let wc = cq0.wait(&t).await;
            assert_eq!(wc.status, CqeStatus::Success);
            let polls_done = instr.get() - before;
            // The wait may include empty probes (17 instructions each);
            // subtract them to isolate the successful poll.
            let empty = polls_done.saturating_sub(283) / 17;
            let success_instr = polls_done - empty * 17;
            assert!(
                (260..=310).contains(&success_instr),
                "poll_cq instructions = {success_instr} (total {polls_done})"
            );
        });
        sim.run();
    }
}
