//! All-reduce: both GPUs end up with the element-wise sum of their vectors,
//! using one-sided puts and device-memory tag polling — a miniature of the
//! "GPU communication libraries" the paper's conclusion calls for.
//!
//! ```text
//! cargo run --example allreduce [--ib]
//! ```
//!
//! The exchange is symmetric: each GPU puts its vector into the peer's
//! staging area (tag last, relying on in-order delivery), waits for the
//! peer's vector, and reduces locally — the library's
//! `collectives::allreduce_sum_u64`. Works identically over EXTOLL and
//! Infiniband because it is written against the `Transport` seam.

use tc_repro::putget::api::{create_pair, QueueLoc};
use tc_repro::putget::cluster::{Backend, Cluster};
use tc_repro::putget::collectives::{allreduce_sum_u64, scratch_bytes};
use tc_repro::putget::time;

const N: usize = 256; // u64 elements per GPU

fn main() {
    let backend = if std::env::args().any(|a| a == "--ib") {
        Backend::Infiniband
    } else {
        Backend::Extoll
    };
    let cluster = Cluster::new(backend);

    // Device layout per node:
    // [own vector | staging for peer vector | tag_out | tag_in].
    let vec_bytes = (N * 8) as u64;
    let total = vec_bytes + scratch_bytes(vec_bytes);
    let buf0 = cluster.nodes[0].gpu.alloc(total, 256);
    let buf1 = cluster.nodes[1].gpu.alloc(total, 256);

    let (ep0, ep1) = create_pair(&cluster, buf0, buf1, total, QueueLoc::Host);

    // Deterministic pseudo-random inputs.
    let v0: Vec<u64> = (0..N as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9) % 1000)
        .collect();
    let v1: Vec<u64> = (0..N as u64)
        .map(|i| i.wrapping_mul(0x85EB_CA6B) % 1000)
        .collect();
    for (i, v) in v0.iter().enumerate() {
        cluster.bus.write_u64(buf0 + i as u64 * 8, *v);
    }
    for (i, v) in v1.iter().enumerate() {
        cluster.bus.write_u64(buf1 + i as u64 * 8, *v);
    }
    let expected: Vec<u64> = v0.iter().zip(&v1).map(|(a, b)| a + b).collect();

    for (name, node, buf, ep) in [("rank0", 0, buf0, ep0), ("rank1", 1, buf1, ep1)] {
        let t = cluster.nodes[node].gpu.thread();
        cluster.sim.spawn(name, async move {
            allreduce_sum_u64(&t, &ep, buf, vec_bytes, 1).await;
        });
    }
    let end = cluster.sim.run();

    for (node, buf) in [(0usize, buf0), (1, buf1)] {
        let got: Vec<u64> = (0..N)
            .map(|i| cluster.bus.read_u64(buf + i as u64 * 8))
            .collect();
        assert_eq!(got, expected, "all-reduce result wrong on node {node}");
    }
    println!(
        "all-reduce of {N} u64 elements over {:?} verified on both GPUs in {:.1} us simulated time",
        backend,
        time::to_us_f64(end)
    );
}
