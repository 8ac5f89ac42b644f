//! Multi-node (N > 2) integration tests: the switch-based generalization of
//! the paper's two-node testbed.

use tc_repro::putget::api::QueueLoc;
use tc_repro::putget::cluster::{Backend, Cluster};
use tc_repro::putget::Transport;

#[test]
fn four_nodes_all_to_one_data_integrity() {
    // Nodes 1..3 each put a distinct pattern into node 0's GPU memory.
    for backend in [Backend::Extoll, Backend::Infiniband] {
        const LEN: u64 = 1024;
        let c = Cluster::with_nodes(backend, 4);
        let sink_bufs: Vec<u64> = (0..3).map(|_| c.nodes[0].gpu.alloc(LEN, 256)).collect();
        let mut expected = Vec::new();
        for src in 1..4usize {
            let buf = c.nodes[src].gpu.alloc(LEN, 256);
            let data: Vec<u8> = (0..LEN)
                .map(|i| (i as u8).wrapping_mul(src as u8))
                .collect();
            c.bus.write(buf, &data);
            expected.push((sink_bufs[src - 1], data));
            let (_sink_ep, src_ep) =
                backend.instantiate(&c, (0, sink_bufs[src - 1]), (src, buf), LEN, QueueLoc::Host);
            let gpu = c.nodes[src].gpu.clone();
            c.sim.spawn(&format!("src{src}"), async move {
                let t = gpu.thread();
                src_ep.put(&t, 0, 0, LEN as u32, false).await;
                src_ep.quiet(&t).await.unwrap();
            });
        }
        c.sim.run();
        for (dst, data) in expected {
            let mut got = vec![0u8; LEN as usize];
            c.bus.read(dst, &mut got);
            assert_eq!(got, data, "{backend:?}");
        }
    }
}

#[test]
fn ring_neighbours_exchange_on_eight_nodes() {
    const N: usize = 8;
    const LEN: u64 = 256;
    let c = Cluster::with_nodes(Backend::Extoll, N);
    // Each node sends its pattern to its right neighbour's buffer.
    let bufs: Vec<(u64, u64)> = (0..N)
        .map(|n| {
            let tx = c.nodes[n].gpu.alloc(LEN, 256);
            let rx = c.nodes[n].gpu.alloc(LEN, 256);
            let data: Vec<u8> = (0..LEN).map(|i| (i as u8) ^ (n as u8 * 17)).collect();
            c.bus.write(tx, &data);
            (tx, rx)
        })
        .collect();
    for n in 0..N {
        let right = (n + 1) % N;
        let (ep_tx, _ep_rx) = c.backend.instantiate(
            &c,
            (n, bufs[n].0),
            (right, bufs[right].1),
            LEN,
            QueueLoc::Host,
        );
        let gpu = c.nodes[n].gpu.clone();
        c.sim.spawn(&format!("ring{n}"), async move {
            let t = gpu.thread();
            ep_tx.put(&t, 0, 0, LEN as u32, false).await;
            ep_tx.quiet(&t).await.unwrap();
        });
    }
    c.sim.run();
    for (n, buf) in bufs.iter().enumerate() {
        let left = (n + N - 1) % N;
        let want: Vec<u8> = (0..LEN).map(|i| (i as u8) ^ (left as u8 * 17)).collect();
        let mut got = vec![0u8; LEN as usize];
        c.bus.read(buf.1, &mut got);
        assert_eq!(got, want, "node {n} should hold node {left}'s pattern");
    }
}

#[test]
fn velo_routes_across_four_nodes() {
    let c = Cluster::with_nodes(Backend::Extoll, 4);
    let ports: Vec<_> = (0..4)
        .map(|n| c.nodes[n].extoll().open_velo_port())
        .collect();
    let idx: Vec<u16> = ports.iter().map(|p| p.index()).collect();
    // Node 0 sends a token around the ring 0 -> 1 -> 2 -> 3 -> 0.
    let mut it = ports.into_iter();
    let (p0, p1, p2, p3) = (
        it.next().unwrap(),
        it.next().unwrap(),
        it.next().unwrap(),
        it.next().unwrap(),
    );
    let g: Vec<_> = (0..4).map(|n| c.nodes[n].gpu.clone()).collect();
    let (g0, g1, g2, g3) = (g[0].clone(), g[1].clone(), g[2].clone(), g[3].clone());
    let (i0, i1, i2, i3) = (idx[0], idx[1], idx[2], idx[3]);
    c.sim.spawn("n0", async move {
        let t = g0.thread();
        p0.send_to(&t, 1, i1, &7u64.to_le_bytes()).await;
        let (src_node, _src_port, data) = p0.recv_from(&t).await;
        assert_eq!(src_node, 3, "token must come back from node 3");
        assert_eq!(u64::from_le_bytes(data.try_into().unwrap()), 10);
    });
    c.sim.spawn("n1", async move {
        let t = g1.thread();
        let (_n, _p, data) = p1.recv_from(&t).await;
        let v = u64::from_le_bytes(data.try_into().unwrap());
        p1.send_to(&t, 2, i2, &(v + 1).to_le_bytes()).await;
    });
    c.sim.spawn("n2", async move {
        let t = g2.thread();
        let (_n, _p, data) = p2.recv_from(&t).await;
        let v = u64::from_le_bytes(data.try_into().unwrap());
        p2.send_to(&t, 3, i3, &(v + 1).to_le_bytes()).await;
    });
    c.sim.spawn("n3", async move {
        let t = g3.thread();
        let (_n, _p, data) = p3.recv_from(&t).await;
        let v = u64::from_le_bytes(data.try_into().unwrap());
        p3.send_to(&t, 0, i0, &(v + 1).to_le_bytes()).await;
    });
    c.sim.run();
}

#[test]
fn two_node_results_unchanged_by_the_fabric_generalization() {
    // The two-node cluster built through the N-node path must behave
    // identically to `Cluster::new` (same simulated latency).
    use tc_repro::putget::bench::pingpong::extoll_pingpong;
    use tc_repro::putget::bench::ExtollMode;
    let a = extoll_pingpong(ExtollMode::Dev2DevDirect, 1024, 10, 2);
    let b = extoll_pingpong(ExtollMode::Dev2DevDirect, 1024, 10, 2);
    assert_eq!(a.half_rtt, b.half_rtt);
}
