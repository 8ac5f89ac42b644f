//! Quickstart: a GPU-controlled one-sided put between two simulated nodes.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Builds the paper's EXTOLL testbed, registers a symmetric buffer pair in
//! GPU device memory, and has the *GPU itself* post the put, poll its local
//! completion and (on the far side) observe the arrival notification — no
//! CPU involvement on the data path, exactly the paper's §III-C setup.

use tc_repro::putget::api::{create_pair, QueueLoc};
use tc_repro::putget::cluster::{Backend, Cluster};
use tc_repro::putget::time;
use tc_repro::putget::Transport;

fn main() {
    // Two nodes connected back-to-back with EXTOLL.
    let cluster = Cluster::new(Backend::Extoll);

    // A 4 KiB symmetric buffer on each GPU.
    const LEN: u64 = 4096;
    let src = cluster.nodes[0].gpu.alloc(LEN, 256);
    let dst = cluster.nodes[1].gpu.alloc(LEN, 256);
    let (ep0, ep1) = create_pair(&cluster, src, dst, LEN, QueueLoc::Host);

    // Fill the source buffer (data plane; instantaneous).
    let payload: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
    cluster.bus.write(src, &payload);

    // GPU thread on node 0 drives the communication; GPU thread on node 1
    // waits for the data.
    let gpu0 = cluster.nodes[0].gpu.clone();
    let gpu1 = cluster.nodes[1].gpu.clone();
    let sim = cluster.sim.clone();
    cluster.sim.spawn("sender", async move {
        let t = gpu0.thread();
        let t0 = sim.now();
        ep0.put(&t, 0, 0, LEN as u32, true).await;
        ep0.quiet(&t).await.expect("local completion");
        println!(
            "node0 GPU: put of {LEN} B posted and locally complete after {:.2} us",
            time::to_us_f64(sim.now() - t0)
        );
    });
    let sim = cluster.sim.clone();
    cluster.sim.spawn("receiver", async move {
        let t = gpu1.thread();
        let n = ep1.wait_arrival(&t).await.expect("arrival");
        println!(
            "node1 GPU: {n} B arrived at t = {:.2} us",
            time::to_us_f64(sim.now())
        );
    });

    cluster.sim.run();

    // Verify the bytes really moved.
    let mut got = vec![0u8; LEN as usize];
    cluster.bus.read(dst, &mut got);
    assert_eq!(got, payload, "payload corrupted in flight");
    println!("payload verified: {LEN} bytes identical on node 1");

    // The GPU posted the work request itself: 3 BAR stores crossed PCIe.
    let c = cluster.nodes[0].gpu.counters();
    println!(
        "node0 GPU did {} sysmem writes (the 192-bit work request) and {} sysmem reads (notification polls)",
        c.sysmem_writes.get(),
        c.sysmem_reads.get()
    );
}
