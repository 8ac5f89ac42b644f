//! Randomized data-integrity tests: arbitrary sequences of puts and gets
//! over both backends must move exactly the right bytes, regardless of
//! sizes, offsets, and which processor drives the NIC. Cases are generated
//! with the in-tree [`tc_trace::rng::XorShift64`] PRNG (the workspace
//! builds offline, with no proptest dependency); failure messages include
//! the case seed for exact replay.

use tc_repro::putget::api::{create_pair, QueueLoc};
use tc_repro::putget::cluster::{Backend, Cluster};
use tc_repro::putget::Transport;
use tc_trace::rng::XorShift64;

const CASES: u64 = 12;

#[derive(Debug, Clone)]
struct Op {
    /// true = put (node0 -> node1), false = get (node0 <- node1)
    is_put: bool,
    local_off: u64,
    remote_off: u64,
    len: u32,
}

fn gen_op(rng: &mut XorShift64, buf_len: u64) -> Op {
    let lo = rng.below(buf_len);
    let ro = rng.below(buf_len);
    let len = (rng.range(1, 2048) as u32)
        .min((buf_len - lo) as u32)
        .min((buf_len - ro) as u32)
        .max(1);
    Op {
        is_put: rng.chance(1, 2),
        local_off: lo.min(buf_len - len as u64),
        remote_off: ro.min(buf_len - len as u64),
        len,
    }
}

fn gen_ops(rng: &mut XorShift64, buf_len: u64, max_ops: u64) -> Vec<Op> {
    (0..rng.range(1, max_ops))
        .map(|_| gen_op(rng, buf_len))
        .collect()
}

fn run_sequence(backend: Backend, queue_loc: QueueLoc, ops: Vec<Op>, seed: u64) {
    const BUF: u64 = 4096;
    let c = Cluster::new(backend);
    let a = c.nodes[0].gpu.alloc(BUF, 256);
    let b = c.nodes[1].gpu.alloc(BUF, 256);
    let (ep0, _ep1) = create_pair(&c, a, b, BUF, queue_loc);

    // Shadow copies model what memory should contain.
    let mut shadow_a: Vec<u8> = (0..BUF).map(|i| (i as u8) ^ (seed as u8)).collect();
    let mut shadow_b: Vec<u8> = (0..BUF)
        .map(|i| (i as u8).wrapping_mul(31) ^ 0x5A)
        .collect();
    c.bus.write(a, &shadow_a);
    c.bus.write(b, &shadow_b);

    // Apply the op effects to the shadows in program order (the endpoint
    // quiesces each op before the next, so ordering is strict).
    for op in &ops {
        let (lo, ro, n) = (
            op.local_off as usize,
            op.remote_off as usize,
            op.len as usize,
        );
        if op.is_put {
            let src = shadow_a[lo..lo + n].to_vec();
            shadow_b[ro..ro + n].copy_from_slice(&src);
        } else {
            let src = shadow_b[ro..ro + n].to_vec();
            shadow_a[lo..lo + n].copy_from_slice(&src);
        }
    }

    let gpu = c.nodes[0].gpu.clone();
    let ops2 = ops.clone();
    c.sim.spawn("driver", async move {
        let t = gpu.thread();
        for op in ops2 {
            if op.is_put {
                ep0.put(&t, op.local_off, op.remote_off, op.len, false)
                    .await;
                ep0.quiet(&t).await.unwrap();
            } else {
                ep0.get(&t, op.local_off, op.remote_off, op.len)
                    .await
                    .unwrap();
            }
        }
    });
    c.sim.run();

    let mut got_a = vec![0u8; BUF as usize];
    let mut got_b = vec![0u8; BUF as usize];
    c.bus.read(a, &mut got_a);
    c.bus.read(b, &mut got_b);
    assert_eq!(got_a, shadow_a, "node0 buffer diverged (seed {seed})");
    assert_eq!(got_b, shadow_b, "node1 buffer diverged (seed {seed})");
}

#[test]
fn extoll_put_get_sequences_preserve_data() {
    for seed in 1..=CASES {
        let mut rng = XorShift64::new(seed);
        let ops = gen_ops(&mut rng, 4096, 8);
        run_sequence(Backend::Extoll, QueueLoc::Host, ops, seed);
    }
}

#[test]
fn ib_put_get_sequences_preserve_data() {
    for seed in 1..=CASES {
        let mut rng = XorShift64::new(seed);
        let ops = gen_ops(&mut rng, 4096, 8);
        run_sequence(Backend::Infiniband, QueueLoc::Host, ops, seed);
    }
}

#[test]
fn ib_gpu_queues_put_get_sequences_preserve_data() {
    for seed in 1..=CASES {
        let mut rng = XorShift64::new(seed);
        let ops = gen_ops(&mut rng, 4096, 6);
        run_sequence(Backend::Infiniband, QueueLoc::Gpu, ops, seed);
    }
}

#[test]
fn byte_patterns_survive_max_size_put() {
    const BUF: u64 = 1 << 20;
    let c = Cluster::new(Backend::Extoll);
    let a = c.nodes[0].gpu.alloc(BUF, 256);
    let b = c.nodes[1].gpu.alloc(BUF, 256);
    let (ep0, _ep1) = create_pair(&c, a, b, BUF, QueueLoc::Host);
    let payload: Vec<u8> = (0..BUF).map(|i| ((i * 2654435761) >> 13) as u8).collect();
    c.bus.write(a, &payload);
    let gpu = c.nodes[0].gpu.clone();
    c.sim.spawn("driver", async move {
        let t = gpu.thread();
        ep0.put(&t, 0, 0, BUF as u32, false).await;
        ep0.quiet(&t).await.unwrap();
    });
    c.sim.run();
    let mut got = vec![0u8; BUF as usize];
    c.bus.read(b, &mut got);
    assert_eq!(got, payload);
}
