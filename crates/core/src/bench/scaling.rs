//! Extension experiment: multi-node scaling of a GPU-driven collective.
//!
//! The paper's conclusion gears towards "GPU communication libraries"; this
//! experiment runs the library's ring all-reduce (GPU-controlled puts +
//! device-memory tag polling, the paper's cheap completion strategy) on
//! 2..256 simulated nodes and reports the time per element — the number a
//! library user cares about when scaling out.
//!
//! Small rings run as one serial simulation. Above
//! [`SERIAL_NODE_LIMIT`] nodes the system is built sharded
//! ([`Cluster::sharded`]): one worker thread per [`shards_for`] shard,
//! synchronized conservatively on the cable latency. The sharded build is
//! byte-identical to the serial one (enforced by `tests/shard_golden.rs`),
//! so the reported numbers are the same physics either way — sharding
//! only buys host-side wall time on large rings.

use tc_desim::time::Time;
use tc_mem::Addr;

use crate::cluster::{Backend, Cluster};
use crate::collectives::ring::{
    build_ring, build_ring_sharded, ring_allreduce_sum_u64, RingLayout,
};

/// Result of one scaling point.
#[derive(Debug, Clone)]
pub struct ScalingResult {
    /// Ring size.
    pub nodes: usize,
    /// Reduced vector length (u64 elements).
    pub elements: usize,
    /// Wall time of the whole all-reduce.
    pub elapsed: Time,
    /// Worker shards the simulation ran on (1 = serial build).
    pub shards: usize,
    /// Whether every rank's final vector matched the reference sums.
    /// `false` renders as a `[FAIL]` line instead of panicking mid-run,
    /// so one bad point cannot take down a whole `reproduce` batch.
    pub verified: bool,
}

impl ScalingResult {
    /// Nanoseconds per reduced element (lower is better).
    pub fn ns_per_element(&self) -> f64 {
        tc_desim::time::to_ns_f64(self.elapsed) / self.elements as f64
    }
}

fn init_value(rank: usize, element: usize) -> u64 {
    (rank as u64) * 31 + element as u64
}

fn reference_sums(nodes: usize, elements: usize) -> Vec<u64> {
    let mut reference = vec![0u64; elements];
    for rank in 0..nodes {
        for (i, r) in reference.iter_mut().enumerate() {
            *r = r.wrapping_add(init_value(rank, i));
        }
    }
    reference
}

fn buffer_matches(bus: &tc_mem::Bus, buf: Addr, reference: &[u64]) -> bool {
    reference
        .iter()
        .enumerate()
        .all(|(i, want)| bus.read_u64(buf + (i * 8) as u64) == *want)
}

/// Run one verified ring all-reduce of `elements` u64 on `nodes` nodes,
/// as a single serial simulation.
pub fn ring_scaling(backend: Backend, nodes: usize, elements: usize) -> ScalingResult {
    let c = Cluster::with_nodes(backend, nodes);
    let layout = RingLayout::for_u64(nodes, elements);
    let bufs: Vec<Addr> = (0..nodes)
        .map(|n| c.nodes[n].gpu.alloc(layout.buffer_bytes(), 256))
        .collect();
    for (n, &buf) in bufs.iter().enumerate() {
        for i in 0..elements {
            c.bus.write_u64(buf + (i * 8) as u64, init_value(n, i));
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
    let elapsed = c.sim.run();
    let reference = reference_sums(nodes, elements);
    let verified = bufs
        .iter()
        .all(|&buf| buffer_matches(&c.bus, buf, &reference));
    ScalingResult {
        nodes,
        elements,
        elapsed,
        shards: 1,
        verified,
    }
}

/// [`ring_scaling`] with the system sharded across `shards` worker
/// threads (conservative parallel DES; see [`Cluster::sharded`]). Same
/// physics, same result bytes — only host wall time differs.
pub fn ring_scaling_sharded(
    backend: Backend,
    nodes: usize,
    shards: usize,
    elements: usize,
) -> ScalingResult {
    let layout = RingLayout::for_u64(nodes, elements);
    let reference = reference_sums(nodes, elements);
    let reference = &reference;
    let per_shard = Cluster::sharded(backend, nodes, shards).run(|sc| {
        let owned = sc.owned();
        let bufs: Vec<Addr> = owned
            .clone()
            .map(|r| sc.cluster.node(r).gpu.alloc(layout.buffer_bytes(), 256))
            .collect();
        for (j, rank) in owned.clone().enumerate() {
            for i in 0..elements {
                sc.cluster
                    .bus
                    .write_u64(bufs[j] + (i * 8) as u64, init_value(rank, i));
            }
        }
        let eps = build_ring_sharded(sc, &bufs, layout);
        for (j, ep) in eps.into_iter().enumerate() {
            let rank = owned.start + j;
            let gpu = sc.cluster.node(rank).gpu.clone();
            let buf = bufs[j];
            sc.cluster.sim.spawn(&format!("rank{rank}"), async move {
                ring_allreduce_sum_u64(&gpu.thread(), &ep, buf, rank, layout).await;
            });
        }
        let last_event = sc.run();
        let ok = bufs
            .iter()
            .all(|&buf| buffer_matches(&sc.cluster.bus, buf, reference));
        (last_event, ok)
    });
    ScalingResult {
        nodes,
        elements,
        elapsed: per_shard.iter().map(|&(t, _)| t).max().unwrap_or(0),
        shards,
        verified: per_shard.iter().all(|&(_, ok)| ok),
    }
}

/// Largest ring still run as one serial simulation; larger rings shard.
pub const SERIAL_NODE_LIMIT: usize = 32;

/// Nodes per shard of a sharded point (each shard simulates this many).
pub const NODES_PER_SHARD: usize = 32;

/// Shard count for a ring of `nodes`: 1 (serial) up to
/// [`SERIAL_NODE_LIMIT`], then one shard per [`NODES_PER_SHARD`] nodes.
pub fn shards_for(nodes: usize) -> usize {
    if nodes <= SERIAL_NODE_LIMIT {
        1
    } else {
        nodes / NODES_PER_SHARD
    }
}

/// The default ring sizes of the scaling sweep. The quick sweep stops at
/// one sharded point; `--full` extends to 128 and 256 nodes.
pub fn node_counts(full: bool) -> Vec<usize> {
    if full {
        vec![2, 4, 8, 16, 64, 128, 256]
    } else {
        vec![2, 4, 8, 16, 64]
    }
}

/// One independent sweep point: the all-reduce at `nodes` nodes, serial
/// or sharded per [`shards_for`].
pub fn point(nodes: usize, elements: usize) -> ScalingResult {
    let shards = shards_for(nodes);
    if shards == 1 {
        ring_scaling(Backend::Extoll, nodes, elements)
    } else {
        ring_scaling_sharded(Backend::Extoll, nodes, shards, elements)
    }
}

/// Render results gathered per [`point`], in sweep order.
pub fn render(elements: usize, results: &[ScalingResult]) -> String {
    let mut out = format!(
        "# extension: GPU-driven ring all-reduce scaling ({elements} u64, EXTOLL)\n\
         {:>8} {:>8} {:>14} {:>16}\n",
        "nodes", "shards", "total us", "ns/element"
    );
    for r in results {
        out.push_str(&format!(
            "{:>8} {:>8} {:>14.1} {:>16.1}{}\n",
            r.nodes,
            r.shards,
            tc_desim::time::to_us_f64(r.elapsed),
            r.ns_per_element(),
            if r.verified {
                ""
            } else {
                "  [FAIL] wrong sums"
            },
        ));
    }
    out.push_str(
        "2(N-1) GPU-controlled ring steps; every put is posted by the GPU and\n\
         completed by a device-memory tag poll. The per-element cost grows\n\
         with the ring depth, as the textbook ring analysis predicts.\n\
         Points above 32 nodes run sharded (one worker thread per 32 nodes,\n\
         conservative sync on the cable latency); sharding changes host wall\n\
         time only — the simulated numbers are byte-identical to a serial\n\
         build.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_results_are_verified_and_monotone_in_total_time() {
        let two = ring_scaling(Backend::Extoll, 2, 64);
        let eight = ring_scaling(Backend::Extoll, 8, 64);
        assert!(two.verified && eight.verified);
        // More ring steps -> more total time for a fixed vector.
        assert!(eight.elapsed > two.elapsed);
    }

    #[test]
    fn infiniband_ring_scales_too() {
        let r = ring_scaling(Backend::Infiniband, 4, 64);
        assert!(r.elapsed > 0);
        assert!(r.verified);
    }

    #[test]
    fn sharded_point_matches_serial_point_exactly() {
        let serial = ring_scaling(Backend::Extoll, 8, 64);
        let sharded = ring_scaling_sharded(Backend::Extoll, 8, 2, 64);
        assert!(serial.verified && sharded.verified);
        assert_eq!(serial.elapsed, sharded.elapsed);
        assert_eq!(serial.ns_per_element(), sharded.ns_per_element());
    }

    #[test]
    fn shard_rule_is_serial_up_to_32_nodes() {
        assert_eq!(shards_for(2), 1);
        assert_eq!(shards_for(32), 1);
        assert_eq!(shards_for(64), 2);
        assert_eq!(shards_for(128), 4);
        assert_eq!(shards_for(256), 8);
    }

    #[test]
    fn unverified_results_render_a_fail_line() {
        let mut r = ring_scaling(Backend::Extoll, 2, 32);
        r.verified = false;
        let text = render(32, &[r]);
        assert!(text.contains("[FAIL] wrong sums"), "{text}");
    }
}
