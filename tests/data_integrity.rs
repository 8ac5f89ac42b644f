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
const PAGE: u64 = 4096;

/// The buffers and op sizes of one randomized input.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// Bytes per buffer.
    buf: u64,
    /// Largest op.
    max_len: u64,
}

/// One page per buffer, every byte seeded, ops of at most 2 KiB.
const SMALL: Shape = Shape {
    buf: PAGE,
    max_len: 2048,
};
/// 16 pages per buffer, about half of them never written, ops of up to
/// 32 KiB whose offsets and lengths are page multiples half the time: the
/// bulk paths move whole pages, zero runs included.
const LARGE: Shape = Shape {
    buf: 64 << 10,
    max_len: 32 << 10,
};

#[derive(Debug, Clone)]
struct Op {
    /// true = put (node0 -> node1), false = get (node0 <- node1)
    is_put: bool,
    local_off: u64,
    remote_off: u64,
    len: u32,
}

fn gen_op(rng: &mut XorShift64, shape: Shape) -> Op {
    let buf_len = shape.buf;
    let mut lo = rng.below(buf_len);
    let mut ro = rng.below(buf_len);
    let mut len = rng.range(1, shape.max_len);
    if buf_len > PAGE {
        // Page-aligned offsets and whole-page lengths, each half the time.
        for v in [&mut lo, &mut ro] {
            if rng.chance(1, 2) {
                *v = *v / PAGE * PAGE;
            }
        }
        if rng.chance(1, 2) {
            len = (len / PAGE).max(1) * PAGE;
        }
    }
    let len = (len as u32)
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

fn gen_ops(rng: &mut XorShift64, shape: Shape, max_ops: u64) -> Vec<Op> {
    (0..rng.range(1, max_ops))
        .map(|_| gen_op(rng, shape))
        .collect()
}

fn run_sequence(backend: Backend, queue_loc: QueueLoc, shape: Shape, ops: Vec<Op>, seed: u64) {
    let buf = shape.buf;
    let c = Cluster::new(backend);
    let align = if buf > PAGE { PAGE } else { 256 };
    let a = c.nodes[0].gpu.alloc(buf, align);
    let b = c.nodes[1].gpu.alloc(buf, align);
    let (ep0, _ep1) = create_pair(&c, a, b, buf, queue_loc);

    // Shadow copies model what memory should contain. A single-page
    // buffer is seeded whole; in larger ones each page is seeded or left
    // never-written by a coin flip.
    let mut shadow_a: Vec<u8> = (0..buf).map(|i| (i as u8) ^ (seed as u8)).collect();
    let mut shadow_b: Vec<u8> = (0..buf)
        .map(|i| (i as u8).wrapping_mul(31) ^ 0x5A)
        .collect();
    let mut coin = XorShift64::new(seed ^ 0xC01D);
    for page in 0..buf.div_ceil(PAGE) {
        let r = (page * PAGE) as usize..((page + 1) * PAGE).min(buf) as usize;
        for (base, shadow) in [(a, &mut shadow_a), (b, &mut shadow_b)] {
            if buf == PAGE || coin.chance(1, 2) {
                c.bus.write(base + r.start as u64, &shadow[r.clone()]);
            } else {
                shadow[r.clone()].fill(0);
            }
        }
    }

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

    let mut got_a = vec![0u8; buf as usize];
    let mut got_b = vec![0u8; buf as usize];
    c.bus.read(a, &mut got_a);
    c.bus.read(b, &mut got_b);
    assert_eq!(
        got_a, shadow_a,
        "node0 buffer diverged ({shape:?}, seed {seed})"
    );
    assert_eq!(
        got_b, shadow_b,
        "node1 buffer diverged ({shape:?}, seed {seed})"
    );
}

#[test]
fn extoll_put_get_sequences_preserve_data() {
    for shape in [SMALL, LARGE] {
        for seed in 1..=CASES {
            let mut rng = XorShift64::new(seed);
            let ops = gen_ops(&mut rng, shape, 8);
            run_sequence(Backend::Extoll, QueueLoc::Host, shape, ops, seed);
        }
    }
}

#[test]
fn ib_put_get_sequences_preserve_data() {
    for shape in [SMALL, LARGE] {
        for seed in 1..=CASES {
            let mut rng = XorShift64::new(seed);
            let ops = gen_ops(&mut rng, shape, 8);
            run_sequence(Backend::Infiniband, QueueLoc::Host, shape, ops, seed);
        }
    }
}

#[test]
fn ib_gpu_queues_put_get_sequences_preserve_data() {
    for shape in [SMALL, LARGE] {
        for seed in 1..=CASES {
            let mut rng = XorShift64::new(seed);
            let ops = gen_ops(&mut rng, shape, 6);
            run_sequence(Backend::Infiniband, QueueLoc::Gpu, shape, ops, seed);
        }
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
