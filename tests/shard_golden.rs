//! Golden tests for the sharded (conservative parallel DES) cluster build:
//! for every shard count the simulation must be *byte-identical* to the
//! serial build — same final timestamp, same counter registry, same
//! rendered report. The lookahead protocol only changes which OS thread
//! executes an event, never when the event happens; any divergence here
//! means a frame crossed a shard boundary at the wrong picosecond or a
//! shard-local build deviated from the serial allocation order.

use tc_repro::bench::pool::Pool;
use tc_repro::bench::{plan, Scale, WorkloadKnobs};
use tc_repro::desim::time::Time;
use tc_repro::mem::Addr;
use tc_repro::putget::bench::scaling::{ring_scaling, ring_scaling_sharded};
use tc_repro::putget::collectives::ring::{
    build_ring, build_ring_sharded, ring_allreduce_sum_u64, RingLayout,
};
use tc_repro::putget::{Backend, Cluster};
use tc_repro::trace::registry::Snapshot;

const NODES: usize = 8;
const ELEMENTS: usize = 64;

fn init_value(rank: usize, element: usize) -> u64 {
    (rank as u64 + 3) * 13 + element as u64 * 5
}

/// One serial all-reduce: final event time + full registry snapshot.
fn serial_run(backend: Backend) -> (Time, Snapshot) {
    let c = Cluster::with_nodes(backend, NODES);
    let layout = RingLayout::for_u64(NODES, ELEMENTS);
    let bufs: Vec<Addr> = (0..NODES)
        .map(|n| c.nodes[n].gpu.alloc(layout.buffer_bytes(), 256))
        .collect();
    for (n, &buf) in bufs.iter().enumerate() {
        for i in 0..ELEMENTS {
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
    (elapsed, c.sim.registry().snapshot())
}

/// The same all-reduce sharded: max last-event time over shards + the
/// union (merge) of every shard's registry snapshot.
fn sharded_run(backend: Backend, shards: usize) -> (Time, Snapshot) {
    let layout = RingLayout::for_u64(NODES, ELEMENTS);
    let per_shard = Cluster::sharded(backend, NODES, shards).run(|sc| {
        let owned = sc.owned();
        let bufs: Vec<Addr> = owned
            .clone()
            .map(|r| sc.cluster.node(r).gpu.alloc(layout.buffer_bytes(), 256))
            .collect();
        for (j, rank) in owned.clone().enumerate() {
            for i in 0..ELEMENTS {
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
        (last_event, sc.cluster.sim.registry().snapshot())
    });
    let elapsed = per_shard.iter().map(|(t, _)| *t).max().unwrap();
    let registry = per_shard
        .iter()
        .fold(Snapshot::default(), |acc, (_, s)| acc.merge(s));
    (elapsed, registry)
}

#[test]
fn sharded_run_is_byte_identical_to_serial_extoll() {
    let (serial_t, serial_reg) = serial_run(Backend::Extoll);
    for shards in [1, 2, 4] {
        let (t, reg) = sharded_run(Backend::Extoll, shards);
        assert_eq!(serial_t, t, "EXTOLL final time diverged at {shards} shards");
        assert_eq!(
            serial_reg, reg,
            "EXTOLL registry diverged at {shards} shards"
        );
    }
}

#[test]
fn sharded_run_is_byte_identical_to_serial_infiniband() {
    let (serial_t, serial_reg) = serial_run(Backend::Infiniband);
    for shards in [1, 2, 4] {
        let (t, reg) = sharded_run(Backend::Infiniband, shards);
        assert_eq!(
            serial_t, t,
            "Infiniband final time diverged at {shards} shards"
        );
        assert_eq!(
            serial_reg, reg,
            "Infiniband registry diverged at {shards} shards"
        );
    }
}

#[test]
fn sharded_scaling_points_match_serial_points() {
    for backend in [Backend::Extoll, Backend::Infiniband] {
        let serial = ring_scaling(backend, NODES, ELEMENTS);
        assert!(serial.verified);
        for shards in [2, 4] {
            let sharded = ring_scaling_sharded(backend, NODES, shards, ELEMENTS);
            assert!(sharded.verified, "{backend:?} {shards} shards unverified");
            assert_eq!(
                serial.elapsed, sharded.elapsed,
                "{backend:?} elapsed diverged at {shards} shards"
            );
        }
    }
}

#[test]
fn scaling_report_is_byte_identical_across_jobs() {
    // One sharded point (64 nodes -> 2 shards) rides along, so pool
    // scheduling and shard worker threads are both in play.
    let knobs = WorkloadKnobs {
        nodes: vec![2, 8, 64],
        ..WorkloadKnobs::default()
    };
    let scale = Scale::quick();
    let serial = plan("scaling", scale, &knobs).run(&Pool::serial());
    let wide = plan("scaling", scale, &knobs).run(&Pool::new(4));
    assert_eq!(
        serial.text, wide.text,
        "scaling diverged between --jobs 1 and --jobs 4"
    );
    assert!(serial.text.contains("ns/element"), "{}", serial.text);
    assert!(!serial.text.contains("[FAIL]"), "{}", serial.text);
}
