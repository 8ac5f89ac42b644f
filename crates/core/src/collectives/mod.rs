//! Collective operations over [`AnyTransport`] — the beginnings of the
//! "GPU communication library" the paper's conclusion gears towards.
//!
//! Everything here is built exclusively on the public one-sided API (puts
//! plus device-memory tag polling), runs on either processor, and works
//! over both backends. The two-node scope matches the paper's testbed; the
//! patterns (tag epochs, staged exchanges, in-order delivery) are what a
//! multi-node generalization would reuse.
//!
//! Buffers handed to these collectives need [`scratch_bytes`] of extra
//! space past `data_len` for staging and synchronization tags.

use tc_mem::Addr;
use tc_pcie::{le, LoadKind, Probe, ProbeLoad, Processor};

use crate::transport::{AnyTransport, Transport};

pub mod ring;

pub use ring::{build_ring, build_ring_sharded, ring_allreduce_sum_u64, RingLayout};

/// Extra buffer space a collective needs past the user's data region:
/// a peer-data staging area of the same length plus two 8-byte tags.
pub fn scratch_bytes(data_len: u64) -> u64 {
    data_len + 16
}

/// Offsets inside an endpoint buffer laid out as
/// `[data | staging | tag_out | tag_in]`.
#[derive(Debug, Clone, Copy)]
struct Layout {
    stage: u64,
    tag_out: u64,
    tag_in: u64,
}

fn layout(data_len: u64) -> Layout {
    Layout {
        stage: data_len,
        tag_out: 2 * data_len,
        tag_in: 2 * data_len + 8,
    }
}

/// Spin until the 64-bit tag at `tag` reaches `epoch`: one load, then
/// compare, branch and pointer bookkeeping (4 instructions) per probe.
pub(crate) async fn wait_tag<P: Processor>(p: &P, tag: Addr, epoch: u64) {
    let load = [ProbeLoad {
        addr: tag,
        kind: LoadKind::U64,
    }];
    let probe = Probe {
        loads: &load,
        instr: 4,
        spins: None,
    };
    p.spin_until(&probe, |b| le(b) >= epoch).await;
}

/// Exchange `data_len` bytes with the peer: my `[0, data_len)` lands in the
/// peer's staging area and vice versa. Returns once the peer's data has
/// arrived locally. `epoch` must increase across calls on the same buffer.
pub async fn exchange<P: Processor>(
    p: &P,
    ep: &AnyTransport,
    local_base: Addr,
    data_len: u64,
    epoch: u64,
) {
    let l = layout(data_len);
    // Publish the epoch tag, then data + tag (in-order delivery makes the
    // tag the arrival barrier for the data).
    p.st_u64(local_base + l.tag_out, epoch).await;
    p.fence().await;
    ep.put(p, 0, l.stage, data_len as u32, false).await;
    ep.put(p, l.tag_out, l.tag_in, 8, false).await;
    ep.quiet(p).await.unwrap();
    ep.quiet(p).await.unwrap();
    wait_tag(p, local_base + l.tag_in, epoch).await;
}

/// Two-node barrier: returns once both ranks have entered epoch `epoch`.
pub async fn barrier<P: Processor>(p: &P, ep: &AnyTransport, local_base: Addr, epoch: u64) {
    // A zero-length exchange: just the tags.
    let l = layout(0);
    p.st_u64(local_base + l.tag_out, epoch).await;
    p.fence().await;
    ep.put(p, l.tag_out, l.tag_in, 8, false).await;
    ep.quiet(p).await.unwrap();
    wait_tag(p, local_base + l.tag_in, epoch).await;
}

/// Broadcast from rank 0: after the call, both buffers hold rank 0's
/// `data_len` bytes. `is_root` selects the sender side.
pub async fn broadcast<P: Processor>(
    p: &P,
    ep: &AnyTransport,
    local_base: Addr,
    data_len: u64,
    epoch: u64,
    is_root: bool,
) {
    let l = layout(data_len);
    if is_root {
        p.st_u64(local_base + l.tag_out, epoch).await;
        p.fence().await;
        // Root writes straight into the peer's *data* region.
        ep.put(p, 0, 0, data_len as u32, false).await;
        ep.put(p, l.tag_out, l.tag_in, 8, false).await;
        ep.quiet(p).await.unwrap();
        ep.quiet(p).await.unwrap();
    } else {
        wait_tag(p, local_base + l.tag_in, epoch).await;
    }
}

/// Element-wise all-reduce (u64 sum) of `[0, data_len)` across both ranks.
/// After the call both buffers hold the sums. `data_len` must be a multiple
/// of 8.
pub async fn allreduce_sum_u64<P: Processor>(
    p: &P,
    ep: &AnyTransport,
    local_base: Addr,
    data_len: u64,
    epoch: u64,
) {
    assert!(data_len.is_multiple_of(8));
    exchange(p, ep, local_base, data_len, epoch).await;
    let l = layout(data_len);
    for i in 0..(data_len / 8) {
        let a = p.ld_u64(local_base + i * 8).await;
        let b = p.ld_u64(local_base + l.stage + i * 8).await;
        p.instr(2).await;
        p.st_u64(local_base + i * 8, a.wrapping_add(b)).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{create_pair, QueueLoc};
    use crate::cluster::{Backend, Cluster};

    fn setup(backend: Backend, data_len: u64) -> (Cluster, Addr, Addr, AnyTransport, AnyTransport) {
        let c = Cluster::new(backend);
        let total = data_len + scratch_bytes(data_len);
        let a = c.nodes[0].gpu.alloc(total, 256);
        let b = c.nodes[1].gpu.alloc(total, 256);
        let (ep0, ep1) = create_pair(&c, a, b, total, QueueLoc::Host);
        (c, a, b, ep0, ep1)
    }

    #[test]
    fn exchange_swaps_data_on_both_backends() {
        for backend in [Backend::Extoll, Backend::Infiniband] {
            const LEN: u64 = 512;
            let (c, a, b, ep0, ep1) = setup(backend, LEN);
            let va: Vec<u8> = (0..LEN).map(|i| i as u8).collect();
            let vb: Vec<u8> = (0..LEN).map(|i| 255 - i as u8).collect();
            c.bus.write(a, &va);
            c.bus.write(b, &vb);
            let g0 = c.nodes[0].gpu.clone();
            let g1 = c.nodes[1].gpu.clone();
            c.sim.spawn("r0", async move {
                exchange(&g0.thread(), &ep0, a, LEN, 1).await;
            });
            c.sim.spawn("r1", async move {
                exchange(&g1.thread(), &ep1, b, LEN, 1).await;
            });
            c.sim.run();
            let mut st0 = vec![0u8; LEN as usize];
            let mut st1 = vec![0u8; LEN as usize];
            c.bus.read(a + LEN, &mut st0);
            c.bus.read(b + LEN, &mut st1);
            assert_eq!(st0, vb, "{backend:?}: rank0 staging should hold rank1 data");
            assert_eq!(st1, va, "{backend:?}: rank1 staging should hold rank0 data");
        }
    }

    #[test]
    fn allreduce_sums_on_both_ranks() {
        const N: u64 = 64;
        let (c, a, b, ep0, ep1) = setup(Backend::Extoll, N * 8);
        for i in 0..N {
            c.bus.write_u64(a + i * 8, i);
            c.bus.write_u64(b + i * 8, 1000 + i);
        }
        let g0 = c.nodes[0].gpu.clone();
        let g1 = c.nodes[1].gpu.clone();
        c.sim.spawn("r0", async move {
            allreduce_sum_u64(&g0.thread(), &ep0, a, N * 8, 1).await;
        });
        c.sim.spawn("r1", async move {
            allreduce_sum_u64(&g1.thread(), &ep1, b, N * 8, 1).await;
        });
        c.sim.run();
        for i in 0..N {
            let want = i + 1000 + i;
            assert_eq!(c.bus.read_u64(a + i * 8), want);
            assert_eq!(c.bus.read_u64(b + i * 8), want);
        }
    }

    #[test]
    fn broadcast_copies_root_data() {
        const LEN: u64 = 256;
        let (c, a, b, ep0, ep1) = setup(Backend::Infiniband, LEN);
        let root: Vec<u8> = (0..LEN).map(|i| (i * 3 % 256) as u8).collect();
        c.bus.write(a, &root);
        let g0 = c.nodes[0].gpu.clone();
        let g1 = c.nodes[1].gpu.clone();
        c.sim.spawn("root", async move {
            broadcast(&g0.thread(), &ep0, a, LEN, 1, true).await;
        });
        c.sim.spawn("leaf", async move {
            broadcast(&g1.thread(), &ep1, b, LEN, 1, false).await;
        });
        c.sim.run();
        let mut got = vec![0u8; LEN as usize];
        c.bus.read(b, &mut got);
        assert_eq!(got, root);
    }

    #[test]
    fn barrier_synchronizes_ranks() {
        use std::cell::Cell;
        use std::rc::Rc;
        let (c, a, b, ep0, ep1) = setup(Backend::Extoll, 0);
        let t_fast = Rc::new(Cell::new(0u64));
        let (tf, sim) = (t_fast.clone(), c.sim.clone());
        let g0 = c.nodes[0].gpu.clone();
        let g1 = c.nodes[1].gpu.clone();
        c.sim.spawn("fast", async move {
            barrier(&g0.thread(), &ep0, a, 1).await;
            tf.set(sim.now());
        });
        let sim = c.sim.clone();
        c.sim.spawn("slow", async move {
            // Arrive 50 us late; the fast rank must wait.
            sim.delay(tc_desim::time::us(50)).await;
            barrier(&g1.thread(), &ep1, b, 1).await;
        });
        c.sim.run();
        assert!(
            t_fast.get() >= tc_desim::time::us(50),
            "fast rank left the barrier at {} before the slow rank arrived",
            t_fast.get()
        );
    }

    #[test]
    fn repeated_epochs_reuse_the_same_buffers() {
        const LEN: u64 = 64;
        let (c, a, b, ep0, ep1) = setup(Backend::Extoll, LEN);
        let g0 = c.nodes[0].gpu.clone();
        let g1 = c.nodes[1].gpu.clone();
        let bus = c.bus.clone();
        c.sim.spawn("r0", async move {
            for epoch in 1..=5u64 {
                bus.write_u64(a, epoch * 10);
                exchange(&g0.thread(), &ep0, a, LEN, epoch).await;
            }
        });
        let bus = c.bus.clone();
        c.sim.spawn("r1", async move {
            for epoch in 1..=5u64 {
                bus.write_u64(b, epoch * 100);
                exchange(&g1.thread(), &ep1, b, LEN, epoch).await;
            }
        });
        c.sim.run();
        // After epoch 5 each staging area holds the peer's last value.
        assert_eq!(c.bus.read_u64(a + LEN), 500);
        assert_eq!(c.bus.read_u64(b + LEN), 50);
    }
}
