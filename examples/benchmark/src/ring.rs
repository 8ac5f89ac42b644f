//! `ring-256`: a 256-node EXTOLL ring all-reduce of 1,024 seeded u64 per
//! rank on the serial build. The only scale-out workload: a 256-node
//! cluster, 256 GPU processes polling device-memory tags through the L2,
//! and hundreds of live processes in the event queue.

use std::rc::Rc;
use std::time::Instant;

use tc_desim::time::to_us_f64;
use tc_pcie::Processor;
use tc_putget::collectives::ring::{build_ring, ring_allreduce_sum_u64, RingLayout};
use tc_putget::{Backend, Cluster, PutGetEndpoint};

use crate::rep::{rng, Checks, Mode, Rep};
use crate::span::{span, timed, Layer, Traced};

pub const NODES: usize = 256;
pub const ELEMENTS: usize = 1024;

pub fn rep(seed: u64, mode: Mode, checks: &Rc<Checks>) -> Rep {
    let traced = mode == Mode::Traced;
    let start = Instant::now();
    let c = timed(Layer::Cluster, "with_nodes", || {
        Cluster::with_nodes(Backend::Extoll, NODES)
    });
    let layout = RingLayout::for_u64(NODES, ELEMENTS);
    let bufs: Vec<u64> = (0..NODES)
        .map(|n| c.nodes[n].gpu.alloc(layout.buffer_bytes(), 256))
        .collect();
    let mut sums = vec![0u64; ELEMENTS];
    timed(Layer::Mem, "fill", || {
        let mut r = rng(seed, 0);
        for &buf in &bufs {
            let v: Vec<u64> = (0..ELEMENTS).map(|_| r.next_u64()).collect();
            for (s, x) in sums.iter_mut().zip(&v) {
                *s = s.wrapping_add(*x);
            }
            c.bus.write(buf, &as_bytes(&v));
        }
    });
    let eps = timed(Layer::Connect, "build_ring", || {
        build_ring(&c, &bufs, layout)
    });
    for (rank, ep) in eps.into_iter().enumerate() {
        let gpu = c.nodes[rank].gpu.thread();
        if traced {
            spawn_rank(
                &c,
                Traced::new(gpu, Layer::Gpu),
                ep,
                bufs[rank],
                rank,
                layout,
            );
        } else {
            spawn_rank(&c, gpu, ep, bufs[rank], rank, layout);
        }
    }
    let before = c.sim.registry().snapshot();
    let mut rep = Rep {
        setup_s: start.elapsed().as_secs_f64(),
        // Every rank puts one chunk per step, over 2(N-1) steps.
        ops: (NODES * 2 * (NODES - 1)) as u64,
        ..Rep::default()
    };
    if mode == Mode::SetupOnly {
        return rep;
    }
    let end = timed(Layer::Desim, "run", || c.sim.run());
    rep.sim_time_us = to_us_f64(end);
    rep.add_counters(&c, &before);
    let want = as_bytes(&sums);
    for (rank, &buf) in bufs.iter().enumerate() {
        let ok = crate::rep::verify(&c.bus, buf, &want);
        checks.check(ok, || format!("rank {rank} holds wrong sums"));
    }
    for s in &sums {
        rep.trail.u64(*s);
    }
    rep.outcomes = vec![("sim.allreduce_us".into(), to_us_f64(end), "us")];
    rep
}

fn spawn_rank<P: Processor + 'static>(
    c: &Cluster,
    p: P,
    ep: PutGetEndpoint,
    buf: u64,
    rank: usize,
    layout: RingLayout,
) {
    c.sim.spawn("rank", async move {
        let run = ring_allreduce_sum_u64(&p, &ep, buf, rank, layout);
        span(Layer::Collective, "ring_allreduce", Some(rank as u64), run).await;
    });
}

fn as_bytes(v: &[u64]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}
