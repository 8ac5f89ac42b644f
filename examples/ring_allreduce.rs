//! Ring all-reduce across N GPUs — the multi-node generalization of the
//! paper's setting, built entirely on GPU-controlled one-sided puts via
//! the `tc_putget::collectives::ring` library.
//!
//! ```text
//! cargo run --release --example ring_allreduce [--ib] [nodes] [elements]
//! ```
//!
//! Classic two-phase ring: `N-1` reduce-scatter steps followed by `N-1`
//! all-gather steps. Each step is one put of a vector chunk to the right
//! neighbour plus a device-memory tag poll — the `pollOnGPU` completion
//! strategy the paper shows is the cheap one. The result is verified
//! against the scalar sum on every node. At two nodes this is the paper's
//! back-to-back testbed; `--ib` runs the same program over Infiniband.

use tc_repro::putget::cluster::{Backend, Cluster};
use tc_repro::putget::collectives::ring::{build_ring, ring_allreduce_sum_u64, RingLayout};
use tc_repro::putget::time;

fn main() {
    let backend = if std::env::args().any(|a| a == "--ib") {
        Backend::Infiniband
    } else {
        Backend::Extoll
    };
    let mut positional = std::env::args()
        .skip(1)
        .filter(|a| a != "--ib")
        .map(|s| s.parse().ok());
    let nodes: usize = positional.next().flatten().unwrap_or(4);
    let elements: usize = positional.next().flatten().unwrap_or(256);

    let c = Cluster::with_nodes(backend, nodes);
    let layout = RingLayout::for_u64(nodes, elements);
    let bufs: Vec<u64> = (0..nodes)
        .map(|n| c.nodes[n].gpu.alloc(layout.buffer_bytes(), 256))
        .collect();

    // Deterministic inputs; reference = element-wise sum over nodes.
    let mut reference = vec![0u64; elements];
    for (n, &buf) in bufs.iter().enumerate() {
        for (i, r) in reference.iter_mut().enumerate() {
            let v = (n as u64 + 1) * 1000 + i as u64;
            c.bus.write_u64(buf + (i * 8) as u64, v);
            *r += v;
        }
    }

    let eps = build_ring(&c, &bufs, layout);
    for (rank, ep) in eps.into_iter().enumerate() {
        let gpu = c.nodes[rank].gpu.clone();
        let buf = bufs[rank];
        c.sim.spawn(&format!("rank{rank}"), async move {
            ring_allreduce_sum_u64(&gpu.thread(), &ep, buf, rank, layout).await;
        });
    }

    let end = c.sim.run();

    for (n, &buf) in bufs.iter().enumerate() {
        for (i, want) in reference.iter().enumerate() {
            let got = c.bus.read_u64(buf + (i * 8) as u64);
            assert_eq!(got, *want, "node {n}, element {i}");
        }
    }
    println!(
        "ring all-reduce of {elements} u64 across {nodes} GPUs verified in {:.1} us \
         simulated time ({} ring steps, all GPU-controlled)",
        time::to_us_f64(end),
        2 * (nodes - 1),
    );
}
