//! Bidirectional stress: many connections, mixed operations, both
//! directions at once, on both backends — verifying every byte at the end.

use tc_repro::putget::api::{create_pair, QueueLoc};
use tc_repro::putget::cluster::{Backend, Cluster};
use tc_repro::putget::Transport;

fn stress(backend: Backend, pairs: usize, msgs_per_pair: u32) {
    const LEN: u64 = 1024;
    let c = Cluster::new(backend);
    let mut expected: Vec<(u64, Vec<u8>)> = Vec::new();
    for k in 0..pairs {
        let a = c.nodes[0].gpu.alloc(LEN, 256);
        let b = c.nodes[1].gpu.alloc(LEN, 256);
        let (ep0, ep1) = create_pair(&c, a, b, LEN, QueueLoc::Host);
        // Direction alternates per pair.
        let forward = k % 2 == 0;
        let (src, dst) = if forward { (a, b) } else { (b, a) };
        let data: Vec<u8> = (0..LEN)
            .map(|i| {
                (i as u8)
                    .wrapping_mul(2 * k as u8 + 1)
                    .wrapping_add(msgs_per_pair as u8)
            })
            .collect();
        c.bus.write(src, &data);
        expected.push((dst, data));
        let gpu = if forward {
            c.nodes[0].gpu.clone()
        } else {
            c.nodes[1].gpu.clone()
        };
        let ep = if forward { ep0 } else { ep1 };
        c.sim.spawn(&format!("stress{k}"), async move {
            let t = gpu.thread();
            for _ in 0..msgs_per_pair {
                ep.put(&t, 0, 0, LEN as u32, false).await;
                ep.quiet(&t).await.unwrap();
            }
        });
    }
    let end = c.sim.run_until(tc_repro::putget::time::SEC);
    assert!(
        end < tc_repro::putget::time::SEC,
        "stress run did not finish"
    );
    for (dst, data) in expected {
        let mut got = vec![0u8; LEN as usize];
        c.bus.read(dst, &mut got);
        assert_eq!(got, data);
    }
}

#[test]
fn extoll_bidirectional_stress() {
    stress(Backend::Extoll, 12, 25);
}

#[test]
fn infiniband_bidirectional_stress() {
    stress(Backend::Infiniband, 12, 25);
}

#[test]
fn extoll_velo_and_rma_share_the_wire() {
    // RMA puts and VELO messages interleave on the same cable without
    // corrupting each other.
    let c = Cluster::new(Backend::Extoll);
    const LEN: u64 = 4096;
    let a = c.nodes[0].gpu.alloc(LEN, 256);
    let b = c.nodes[1].gpu.alloc(LEN, 256);
    let (ep0, _ep1) = create_pair(&c, a, b, LEN, QueueLoc::Host);
    let data: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
    c.bus.write(a, &data);
    let v0 = c.nodes[0].extoll().open_velo_port();
    let v1 = c.nodes[1].extoll().open_velo_port();
    let dst = v1.index();
    let gpu0 = c.nodes[0].gpu.clone();
    let gpu1 = c.nodes[1].gpu.clone();
    c.sim.spawn("rma+velo", async move {
        let t = gpu0.thread();
        for i in 0..20u64 {
            ep0.put(&t, 0, 0, LEN as u32, false).await;
            v0.send(&t, dst, &i.to_le_bytes()).await;
            ep0.quiet(&t).await.unwrap();
        }
    });
    c.sim.spawn("velo-drain", async move {
        let t = gpu1.thread();
        for expect in 0..20u64 {
            let (_s, m) = v1.recv(&t).await;
            assert_eq!(u64::from_le_bytes(m.try_into().unwrap()), expect);
        }
    });
    c.sim.run();
    let mut got = vec![0u8; LEN as usize];
    c.bus.read(b, &mut got);
    assert_eq!(got, data);
}
