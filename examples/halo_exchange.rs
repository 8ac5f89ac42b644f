//! Halo exchange: the workload class the paper's introduction motivates —
//! a distributed stencil where each GPU computes on its partition and
//! exchanges boundary rows with its neighbour every iteration.
//!
//! ```text
//! cargo run --example halo_exchange
//! ```
//!
//! Two GPUs each own half of a 1-D heat-diffusion domain. Per iteration:
//!
//! 1. each GPU "computes" its interior (modelled compute time + real data
//!    updates through the simulated memory),
//! 2. each GPU *itself* puts its boundary cell into the neighbour's halo
//!    slot (GPU-controlled communication — no hybrid-model context switch),
//! 3. each GPU polls the halo's iteration tag in device memory
//!    (the paper's cheap `pollOnGPU` completion strategy).
//!
//! The result is verified against a sequential reference computation.

use tc_repro::putget::api::{create_pair, QueueLoc};
use tc_repro::putget::cluster::{Backend, Cluster};
use tc_repro::putget::time;
use tc_repro::putget::{AnyTransport, Processor, Transport};

const CELLS_PER_NODE: usize = 64;
const ITERS: usize = 20;

/// Fixed-point cell values (u32 scaled by 1000) so the data plane carries
/// exact bytes.
fn diffuse(left: u32, mid: u32, right: u32) -> u32 {
    (left + 2 * mid + right) / 4
}

fn main() {
    // `--ib` runs the identical program over Infiniband Verbs: the unified
    // endpoint hides the backend differences entirely.
    let backend = if std::env::args().any(|a| a == "--ib") {
        Backend::Infiniband
    } else {
        Backend::Extoll
    };
    let cluster = Cluster::new(backend);

    // Device layout per node: [halo_lo, cells[0..N], halo_hi] as u32,
    // then an 8-byte outbound tag (what I announce) and an 8-byte inbound
    // tag slot the neighbour's put fills.
    let slots = (CELLS_PER_NODE + 2) as u64 * 4;
    let buf0 = cluster.nodes[0].gpu.alloc(slots + 16, 256);
    let buf1 = cluster.nodes[1].gpu.alloc(slots + 16, 256);
    let tag_out = slots;
    let tag_in = slots + 8;

    // Symmetric pairs in both directions (node0 writes node1's halo_lo,
    // node1 writes node0's halo_hi).
    let (to1, _r1) = create_pair(&cluster, buf0, buf1, slots + 16, QueueLoc::Host);
    let (_r0, to0) = create_pair(&cluster, buf0, buf1, slots + 16, QueueLoc::Host);

    // Initialize: a hot spike at the global left edge.
    let init = |vals: &mut [u32]| {
        for v in vals.iter_mut() {
            *v = 0;
        }
    };
    let mut v0 = vec![0u32; CELLS_PER_NODE + 2];
    let mut v1 = vec![0u32; CELLS_PER_NODE + 2];
    init(&mut v0);
    init(&mut v1);
    v0[1] = 1_000_000; // spike
    for (i, v) in v0.iter().enumerate() {
        cluster.bus.write_u32(buf0 + i as u64 * 4, *v);
    }
    for (i, v) in v1.iter().enumerate() {
        cluster.bus.write_u32(buf1 + i as u64 * 4, *v);
    }

    // Sequential reference over the full domain.
    let mut reference: Vec<u32> = v0[1..=CELLS_PER_NODE]
        .iter()
        .chain(v1[1..=CELLS_PER_NODE].iter())
        .copied()
        .collect();
    for _ in 0..ITERS {
        let mut next = reference.clone();
        for i in 0..reference.len() {
            let l = if i == 0 { 0 } else { reference[i - 1] };
            let r = if i + 1 == reference.len() {
                0
            } else {
                reference[i + 1]
            };
            next[i] = diffuse(l, reference[i], r);
        }
        reference = next;
    }

    // The per-node device program.
    #[allow(clippy::too_many_arguments)]
    async fn node_program<P: Processor>(
        t: P,
        my_buf: u64,
        tag_out: u64,
        tag_in: u64,
        // put endpoint towards the neighbour + which halo slot to fill
        put: AnyTransport,
        boundary_cell_off: u64,
        neighbour_halo_off: u64,
    ) {
        for iter in 0..ITERS as u64 {
            // Announce this iteration, then send my boundary cell and the
            // tag. EXTOLL delivers in order, so when the neighbour sees the
            // tag, the halo cell is already there (the pollOnGPU insight).
            t.st_u64(my_buf + tag_out, iter + 1).await;
            t.fence().await;
            put.put(&t, boundary_cell_off, neighbour_halo_off, 4, false)
                .await;
            put.put(&t, tag_out, tag_in, 8, false).await;
            put.quiet(&t).await.unwrap();
            put.quiet(&t).await.unwrap();

            // "Compute" the interior while the halo flies: each cell update
            // is a couple of loads, arithmetic and a store.
            let mut vals = [0u32; CELLS_PER_NODE + 2];
            for (i, v) in vals.iter_mut().enumerate() {
                *v = t.ld_u32(my_buf + i as u64 * 4).await;
            }
            // Wait for the neighbour's halo (tag reaches iter+1).
            loop {
                let tag = t.ld_u64(my_buf + tag_in).await;
                t.instr(4).await;
                if tag > iter {
                    break;
                }
            }
            // Re-read the halo cells the neighbour just wrote.
            vals[0] = t.ld_u32(my_buf).await;
            vals[CELLS_PER_NODE + 1] = t.ld_u32(my_buf + (CELLS_PER_NODE as u64 + 1) * 4).await;
            // Stencil update.
            let mut next = [0u32; CELLS_PER_NODE + 2];
            for (i, n) in next.iter_mut().enumerate().take(CELLS_PER_NODE + 1).skip(1) {
                *n = diffuse(vals[i - 1], vals[i], vals[i + 1]);
                t.instr(4).await;
            }
            for (i, n) in next.iter().enumerate().take(CELLS_PER_NODE + 1).skip(1) {
                t.st_u32(my_buf + i as u64 * 4, *n).await;
            }
        }
    }

    // Node 0's boundary is its last cell; it fills node 1's halo_lo (slot 0).
    // The tag must land *after* the halo cell — EXTOLL delivers in order.
    let g0 = cluster.nodes[0].gpu.clone();
    let g1 = cluster.nodes[1].gpu.clone();
    let last_cell = CELLS_PER_NODE as u64 * 4;
    let hi_halo = (CELLS_PER_NODE as u64 + 1) * 4;
    cluster.sim.spawn("node0", {
        let t = g0.thread();
        node_program(t, buf0, tag_out, tag_in, to1, last_cell, 0)
    });
    cluster.sim.spawn("node1", {
        let t = g1.thread();
        node_program(t, buf1, tag_out, tag_in, to0, 4, hi_halo)
    });

    let end = cluster.sim.run();

    // Gather the distributed result and compare with the reference.
    let mut got = Vec::new();
    for i in 1..=CELLS_PER_NODE {
        got.push(cluster.bus.read_u32(buf0 + i as u64 * 4));
    }
    for i in 1..=CELLS_PER_NODE {
        got.push(cluster.bus.read_u32(buf1 + i as u64 * 4));
    }
    assert_eq!(got, reference, "distributed result diverged from reference");
    println!(
        "halo exchange: {ITERS} iterations over {} cells verified in {:.1} us simulated time",
        2 * CELLS_PER_NODE,
        time::to_us_f64(end)
    );
    if backend == Backend::Extoll {
        println!(
            "node0 GPU posted {} work requests itself (sysmem writes: {})",
            cluster.nodes[0].extoll().stats().puts.get(),
            cluster.nodes[0].gpu.counters().sysmem_writes.get(),
        );
    } else {
        println!(
            "node0 GPU rang {} doorbells itself (sysmem writes: {})",
            cluster.nodes[0].ib().stats().doorbells.get(),
            cluster.nodes[0].gpu.counters().sysmem_writes.get(),
        );
    }
}
