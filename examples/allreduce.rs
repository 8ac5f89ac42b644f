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
//! peer's vector, and reduces locally. Works identically over EXTOLL and
//! Infiniband because it is written against the `Transport` seam.

use tc_repro::putget::api::{create_pair, QueueLoc};
use tc_repro::putget::cluster::{Backend, Cluster};
use tc_repro::putget::time;
use tc_repro::putget::{AnyTransport, Processor, Transport};

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
    let total = 2 * vec_bytes + 16;
    let buf0 = cluster.nodes[0].gpu.alloc(total, 256);
    let buf1 = cluster.nodes[1].gpu.alloc(total, 256);
    let stage_off = vec_bytes;
    let tag_out = 2 * vec_bytes;
    let tag_in = 2 * vec_bytes + 8;

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

    #[allow(clippy::too_many_arguments)]
    async fn rank<P: Processor>(
        t: P,
        my_buf: u64,
        ep: AnyTransport,
        stage_off: u64,
        tag_out: u64,
        tag_in: u64,
        vec_bytes: u64,
    ) {
        // Publish the tag value, then ship vector + tag (in-order delivery
        // means tag-arrival implies vector-arrival).
        t.st_u64(my_buf + tag_out, 1).await;
        t.fence().await;
        ep.put(&t, 0, stage_off, vec_bytes as u32, false).await;
        ep.put(&t, tag_out, tag_in, 8, false).await;
        ep.quiet(&t).await.unwrap();
        ep.quiet(&t).await.unwrap();
        // Wait for the peer's tag: only its put writes our tag_in slot.
        loop {
            let tag = t.ld_u64(my_buf + tag_in).await;
            t.instr(4).await;
            if tag >= 1 {
                break;
            }
        }
        // Reduce: own[i] += staged[i].
        for i in 0..(vec_bytes / 8) {
            let a = t.ld_u64(my_buf + i * 8).await;
            let b = t.ld_u64(my_buf + stage_off + i * 8).await;
            t.instr(2).await;
            t.st_u64(my_buf + i * 8, a + b).await;
        }
    }

    let g0 = cluster.nodes[0].gpu.clone();
    let g1 = cluster.nodes[1].gpu.clone();
    cluster.sim.spawn(
        "rank0",
        rank(
            g0.thread(),
            buf0,
            ep0,
            stage_off,
            tag_out,
            tag_in,
            vec_bytes,
        ),
    );
    cluster.sim.spawn(
        "rank1",
        rank(
            g1.thread(),
            buf1,
            ep1,
            stage_off,
            tag_out,
            tag_in,
            vec_bytes,
        ),
    );
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
