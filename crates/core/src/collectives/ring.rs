//! N-node ring collectives over one-sided puts.
//!
//! The classic two-phase ring all-reduce: `N-1` reduce-scatter steps then
//! `N-1` all-gather steps, each step one chunk-put to the right neighbour
//! plus a device-memory tag poll. Inboxes are double-buffered by epoch
//! parity so a fast neighbour can never overwrite a chunk that is still
//! being accumulated.

use tc_mem::Addr;
use tc_pcie::Processor;

use crate::api::QueueLoc;
use crate::cluster::Cluster;
use crate::shard::ShardCluster;
use crate::transport::{AnyTransport, HalfExport, Transport};

/// Memory layout of one rank's ring buffer:
/// `[vector | inbox A | inbox B | tag_out | tag_in]`.
#[derive(Debug, Clone, Copy)]
pub struct RingLayout {
    /// Number of ranks in the ring.
    pub nodes: u64,
    /// Vector length in bytes (must be `nodes * chunk_bytes`).
    pub vec_bytes: u64,
    /// One chunk in bytes.
    pub chunk_bytes: u64,
}

impl RingLayout {
    /// Layout for `elements` u64 values across `nodes` ranks.
    pub fn for_u64(nodes: usize, elements: usize) -> Self {
        assert!(
            elements.is_multiple_of(nodes),
            "elements must divide evenly across the ring"
        );
        RingLayout {
            nodes: nodes as u64,
            vec_bytes: (elements * 8) as u64,
            chunk_bytes: (elements / nodes * 8) as u64,
        }
    }

    /// Total buffer bytes a rank must allocate.
    pub fn buffer_bytes(&self) -> u64 {
        self.vec_bytes + 2 * self.chunk_bytes + 16
    }

    fn inbox(&self, epoch: u64) -> u64 {
        self.vec_bytes + (epoch % 2) * self.chunk_bytes
    }

    /// Offset of the outgoing tag word (put into the right neighbour's
    /// `tag_in`).
    pub fn tag_out(&self) -> u64 {
        self.vec_bytes + 2 * self.chunk_bytes
    }

    /// Offset of the incoming tag word (written by the left neighbour,
    /// polled locally).
    pub fn tag_in(&self) -> u64 {
        self.tag_out() + 8
    }
}

/// Build the ring's endpoint pairs: `to_right[n]` sends from rank `n` into
/// rank `(n+1) % N`'s buffer. `bufs[n]` must be `layout.buffer_bytes()`
/// long.
pub fn build_ring(cluster: &Cluster, bufs: &[Addr], layout: RingLayout) -> Vec<AnyTransport> {
    let n = bufs.len();
    assert_eq!(n as u64, layout.nodes);
    (0..n)
        .map(|rank| {
            let right = (rank + 1) % n;
            let (ep_tx, _ep_rx) = cluster.backend.instantiate(
                cluster,
                (rank, bufs[rank]),
                (right, bufs[right]),
                layout.buffer_bytes(),
                QueueLoc::Host,
            );
            ep_tx
        })
        .collect()
}

/// [`build_ring`] for one shard of a sharded cluster: build this shard's
/// owned ranks' endpoints, exchanging the cut edges' half-exports with
/// the neighbouring shards. `bufs` holds the owned ranks' buffers in
/// ascending rank order (aligned with [`ShardCluster::owned`]); the
/// returned endpoints are in the same order, `eps[i]` sending from owned
/// rank `owned.start + i` to its right neighbour.
///
/// Every shard must call this in lockstep (it contains one
/// [`ShardCluster::exchange`]). The per-node allocation order matches the
/// serial [`build_ring`]'s projection onto the owned nodes exactly, so
/// heap layouts, NLAs, QPNs and registry scopes are identical to a serial
/// build — the basis for the byte-identical golden test.
pub fn build_ring_sharded(
    sc: &mut ShardCluster<'_>,
    bufs: &[Addr],
    layout: RingLayout,
) -> Vec<AnyTransport> {
    let n = layout.nodes as usize;
    let owned = sc.owned();
    assert_eq!(bufs.len(), owned.len(), "one buffer per owned rank");
    let first = owned.start;
    let owns = |r: usize| owned.contains(&r);
    let buf = |r: usize| bufs[r - first];
    let len = layout.buffer_bytes();
    let backend = sc.cluster.backend;

    // Pass 1 — every allocation, in the serial builder's per-node
    // projection order: edges ascending, a-side before b-side within an
    // edge. (Serially, node k's ops are "b-side of edge k-1, then a-side
    // of edge k"; ascending edge iteration preserves that per node.)
    let mut eps: Vec<Option<AnyTransport>> = (0..owned.len()).map(|_| None).collect();
    let mut halves = Vec::new();
    let mut exports: Vec<(usize, bool, HalfExport)> = Vec::new();
    for k in 0..n {
        let (a, b) = (k, (k + 1) % n);
        match (owns(a), owns(b)) {
            (true, true) => {
                let (ep_tx, _ep_rx) =
                    backend.instantiate(&sc.cluster, (a, buf(a)), (b, buf(b)), len, QueueLoc::Host);
                eps[a - first] = Some(ep_tx);
            }
            (true, false) => {
                let (half, x) = backend.export_half(&sc.cluster, a, buf(a), len, QueueLoc::Host);
                halves.push((k, true, half));
                exports.push((k, true, x));
            }
            (false, true) => {
                let (half, x) = backend.export_half(&sc.cluster, b, buf(b), len, QueueLoc::Host);
                halves.push((k, false, half));
                exports.push((k, false, x));
            }
            (false, false) => {}
        }
    }

    // Pass 2 — all-gather the cut edges' exports, then connect. Connects
    // are pure state wiring (`Backend::connect_half`), so running them
    // here instead of inside each edge's build is unobservable.
    let all: Vec<(usize, bool, HalfExport)> = sc.exchange(exports).into_iter().flatten().collect();
    let peer = |edge: usize, a_side: bool| -> HalfExport {
        all.iter()
            .find(|&&(e, s, _)| e == edge && s == a_side)
            .map(|&(_, _, x)| x)
            .expect("peer half missing from shard exchange")
    };
    for (edge, a_side, half) in halves {
        let t = backend.connect_half(half, &peer(edge, !a_side));
        if a_side {
            eps[edge - first] = Some(t);
        }
        // b-side transports are dropped, exactly like the serial
        // builder's `_ep_rx`; the connect still ran, so the receiving
        // NIC's state matches a serial build.
    }
    eps.into_iter()
        .map(|e| e.expect("every owned rank has an outgoing edge"))
        .collect()
}

async fn ring_step<P: Processor>(
    t: &P,
    ep: &AnyTransport,
    my_buf: Addr,
    layout: RingLayout,
    send_chunk: u64,
    epoch: u64,
) {
    t.st_u64(my_buf + layout.tag_out(), epoch).await;
    t.fence().await;
    ep.put(
        t,
        send_chunk * layout.chunk_bytes,
        layout.inbox(epoch),
        layout.chunk_bytes as u32,
        false,
    )
    .await;
    ep.put(t, layout.tag_out(), layout.tag_in(), 8, false).await;
    ep.quiet(t).await.unwrap();
    ep.quiet(t).await.unwrap();
    super::wait_tag(t, my_buf + layout.tag_in(), epoch).await;
}

/// Rank `rank`'s side of a ring all-reduce (u64 sum). Every rank must call
/// this concurrently with its own endpoint from [`build_ring`]; afterwards
/// all vectors hold the element-wise sums.
pub async fn ring_allreduce_sum_u64<P: Processor>(
    t: &P,
    ep: &AnyTransport,
    my_buf: Addr,
    rank: usize,
    layout: RingLayout,
) {
    let n = layout.nodes;
    let rank = rank as u64;
    let mut epoch = 0u64;
    // Phase 1: reduce-scatter.
    for s in 0..n - 1 {
        epoch += 1;
        let send_chunk = (rank + n - s) % n;
        let recv_chunk = (rank + n - s - 1) % n;
        ring_step(t, ep, my_buf, layout, send_chunk, epoch).await;
        let inbox = my_buf + layout.inbox(epoch);
        for i in 0..(layout.chunk_bytes / 8) {
            let dst = my_buf + recv_chunk * layout.chunk_bytes + i * 8;
            let a = t.ld_u64(dst).await;
            let b = t.ld_u64(inbox + i * 8).await;
            t.instr(2).await;
            t.st_u64(dst, a.wrapping_add(b)).await;
        }
    }
    // Phase 2: all-gather.
    for s in 0..n - 1 {
        epoch += 1;
        let send_chunk = (rank + 1 + n - s) % n;
        let recv_chunk = (rank + n - s) % n;
        ring_step(t, ep, my_buf, layout, send_chunk, epoch).await;
        let inbox = my_buf + layout.inbox(epoch);
        for i in 0..(layout.chunk_bytes / 8) {
            let v = t.ld_u64(inbox + i * 8).await;
            t.st_u64(my_buf + recv_chunk * layout.chunk_bytes + i * 8, v)
                .await;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Backend;

    fn run_ring(backend: Backend, nodes: usize, elements: usize) {
        let c = Cluster::with_nodes(backend, nodes);
        let layout = RingLayout::for_u64(nodes, elements);
        let bufs: Vec<Addr> = (0..nodes)
            .map(|n| c.nodes[n].gpu.alloc(layout.buffer_bytes(), 256))
            .collect();
        let mut reference = vec![0u64; elements];
        for (n, &buf) in bufs.iter().enumerate() {
            for (i, r) in reference.iter_mut().enumerate() {
                let v = (n as u64 + 1) * 7 + i as u64 * 3;
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
        c.sim.run();
        for (n, &buf) in bufs.iter().enumerate() {
            for (i, want) in reference.iter().enumerate() {
                assert_eq!(
                    c.bus.read_u64(buf + (i * 8) as u64),
                    *want,
                    "{backend:?} node {n} element {i}"
                );
            }
        }
    }

    #[test]
    fn ring_allreduce_on_two_nodes() {
        run_ring(Backend::Extoll, 2, 32);
        run_ring(Backend::Infiniband, 2, 32);
    }

    #[test]
    fn ring_allreduce_on_four_nodes_extoll() {
        run_ring(Backend::Extoll, 4, 64);
    }

    #[test]
    fn ring_allreduce_on_four_nodes_infiniband() {
        run_ring(Backend::Infiniband, 4, 64);
    }

    #[test]
    fn ring_allreduce_on_six_nodes_uneven_values() {
        run_ring(Backend::Extoll, 6, 96);
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn uneven_partition_is_rejected() {
        RingLayout::for_u64(3, 100);
    }

    fn run_ring_sharded(backend: Backend, nodes: usize, shards: usize, elements: usize) {
        let layout = RingLayout::for_u64(nodes, elements);
        let mut reference = vec![0u64; elements];
        for rank in 0..nodes {
            for (i, r) in reference.iter_mut().enumerate() {
                *r += (rank as u64 + 1) * 7 + i as u64 * 3;
            }
        }
        let reference = &reference;
        let oks = Cluster::sharded(backend, nodes, shards).run(|sc| {
            let owned = sc.owned();
            let bufs: Vec<Addr> = owned
                .clone()
                .map(|r| sc.cluster.node(r).gpu.alloc(layout.buffer_bytes(), 256))
                .collect();
            for (j, rank) in owned.clone().enumerate() {
                for i in 0..elements {
                    let v = (rank as u64 + 1) * 7 + i as u64 * 3;
                    sc.cluster.bus.write_u64(bufs[j] + (i * 8) as u64, v);
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
            sc.run();
            bufs.iter().all(|&buf| {
                reference
                    .iter()
                    .enumerate()
                    .all(|(i, want)| sc.cluster.bus.read_u64(buf + (i * 8) as u64) == *want)
            })
        });
        assert!(
            oks.into_iter().all(|ok| ok),
            "{backend:?} sharded allreduce produced wrong sums"
        );
    }

    #[test]
    fn sharded_ring_allreduce_extoll() {
        run_ring_sharded(Backend::Extoll, 4, 2, 64);
    }

    #[test]
    fn sharded_ring_allreduce_infiniband() {
        run_ring_sharded(Backend::Infiniband, 4, 2, 64);
    }
}
