//! Performance-counter experiments: Table I, Table II, Fig. 3 and the
//! §V-B.3 verbs instruction micro-measurements.

use std::cell::Cell;
use std::rc::Rc;

use tc_desim::time::Time;
use tc_ib::{Access, BufLoc, IbvContext, IbvCq, IbvQp, SendOpcode, SendWr, VerbsTuning};
use tc_trace::Snapshot;

use crate::cluster::{Backend, Cluster};

use super::pingpong::{extoll_pingpong, ib_pingpong};
use super::{ExtollMode, IbMode};

/// Iterations of the counter experiments (the paper uses 100).
pub const COUNTER_ITERS: u32 = 100;
/// Payload of the counter experiments (the paper uses 1 KiB).
pub const COUNTER_PAYLOAD: u64 = 1024;

/// One column of Table I: the registry delta of a 100-iteration, 1 KiB
/// EXTOLL ping-pong, polling device memory (`true`) or system memory
/// (`false`); the rows read node 0's GPU counters (`gpu0.*`). Each column
/// is an independent simulation.
pub fn table1_case(devmem: bool) -> Snapshot {
    let mode = if devmem {
        ExtollMode::Dev2DevPollOnGpu
    } else {
        ExtollMode::Dev2DevDirect
    };
    extoll_pingpong(mode, COUNTER_PAYLOAD, COUNTER_ITERS, 0).registry
}

/// One column of Table II: the registry delta of a 100-iteration
/// Infiniband ping-pong with the queue buffers on the GPU (`true`) or the
/// host (`false`); the rows read node 0's GPU counters (`gpu0.*`). Each
/// column is an independent simulation.
pub fn table2_case(gpu: bool) -> Snapshot {
    let mode = if gpu {
        IbMode::Dev2DevBufOnGpu
    } else {
        IbMode::Dev2DevBufOnHost
    };
    ib_pingpong(mode, COUNTER_PAYLOAD, COUNTER_ITERS, 0).registry
}

/// One point of Fig. 3: per-iteration WR-generation time and polling time
/// for both polling approaches at `size` bytes.
/// Returns `((put, poll) for system memory, (put, poll) for device memory)`.
pub fn fig3_point(size: u64, iters: u32) -> ((Time, Time), (Time, Time)) {
    let sysmem = extoll_pingpong(ExtollMode::Dev2DevDirect, size, iters, 1);
    let devmem = extoll_pingpong(ExtollMode::Dev2DevPollOnGpu, size, iters, 1);
    (
        (sysmem.put_time, sysmem.poll_time),
        (devmem.put_time, devmem.poll_time),
    )
}

/// The raw-verbs micro-setup of the §V-B.3 measurements and the verbs
/// ablations: node 0's context, CQ and QP in GPU memory, node 1's on the
/// host, 64 B MRs from node 0's GPU memory to node 1's host memory, and a
/// signaled RDMA write of `len` bytes between them. `tuning` applies to
/// node 0's context.
pub(crate) struct VerbsMicro {
    pub(crate) c: Cluster,
    pub(crate) qp0: IbvQp,
    pub(crate) cq0: Rc<IbvCq>,
    pub(crate) wr: SendWr,
}

pub(crate) fn verbs_micro(tuning: VerbsTuning, len: u32) -> VerbsMicro {
    let c = Cluster::new(Backend::Infiniband);
    let ctx0 = IbvContext::new(
        c.nodes[0].ib().clone(),
        c.nodes[0].host_heap.clone(),
        Some(c.nodes[0].gpu.clone()),
        BufLoc::Gpu,
    )
    .with_tuning(tuning);
    let ctx1 = IbvContext::new(
        c.nodes[1].ib().clone(),
        c.nodes[1].host_heap.clone(),
        None,
        BufLoc::Host,
    );
    let cq0 = ctx0.create_cq(BufLoc::Gpu);
    let cq1 = ctx1.create_cq(BufLoc::Host);
    let qp0 = ctx0.create_qp(cq0.clone(), cq0.clone(), BufLoc::Gpu);
    let qp1 = ctx1.create_qp(cq1.clone(), cq1.clone(), BufLoc::Host);
    qp0.connect(qp1.qpn());
    qp1.connect(qp0.qpn());
    let src = c.nodes[0].gpu.alloc(64, 64);
    let dst = c.nodes[1].host_heap.alloc(64, 64);
    let mr0 = ctx0.reg_mr(src, 64, Access::full());
    let mr1 = ctx1.reg_mr(dst, 64, Access::full());
    let wr = SendWr {
        opcode: SendOpcode::RdmaWrite,
        laddr: mr0.addr,
        lkey: mr0.lkey,
        raddr: mr1.addr,
        rkey: mr1.rkey,
        len,
        imm: 0,
        signaled: true,
    };
    VerbsMicro { c, qp0, cq0, wr }
}

/// §V-B.3: instructions for one `ibv_post_send` and one successful
/// `ibv_poll_cq` on the GPU. Paper: 442 and 283.
pub fn verbs_instruction_counts() -> (u64, u64) {
    let VerbsMicro { c, qp0, cq0, wr } = verbs_micro(VerbsTuning::default(), 64);
    let gpu = c.nodes[0].gpu.clone();
    let post = Rc::new(Cell::new(0u64));
    let poll = Rc::new(Cell::new(0u64));
    let (post2, poll2) = (post.clone(), poll.clone());
    let t = gpu.thread();
    c.sim.spawn("micro", async move {
        let instr = &gpu.counters().instructions;
        let before = instr.get();
        qp0.post_send(&t, &wr).await;
        post2.set(instr.get() - before);
        // Wait until the CQE is certainly there, then measure exactly one
        // successful poll.
        let sim_h = t.gpu().sim().clone();
        loop {
            sim_h.delay(tc_desim::time::us(1)).await;
            let probe = instr.get();
            if let Some(_wc) = cq0.poll(&t).await {
                poll2.set(instr.get() - probe);
                break;
            }
        }
    });
    c.sim.run();
    (post.get(), poll.get())
}
