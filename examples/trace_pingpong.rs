//! Trace a GPU-controlled EXTOLL ping-pong and export a Chrome trace.
//!
//! ```text
//! cargo run --example trace_pingpong
//! ```
//!
//! Runs one dev2dev-direct round trip with the structured event recorder
//! enabled and writes `pingpong.trace.json` — Chrome trace-event JSON with
//! spans and instants from every layer of the stack (`desim` scheduling,
//! `gpu` warp accesses, `pcie` MMIO/DMA, `nic` engines). Open the file in
//! <https://ui.perfetto.dev> or `chrome://tracing` to see where the
//! microseconds of a put go.

use tc_repro::putget::api::{create_pair, QueueLoc};
use tc_repro::putget::cluster::{Backend, Cluster};
use tc_repro::putget::time;
use tc_repro::putget::Transport;
use tc_repro::trace::chrome;

fn main() {
    let cluster = Cluster::new(Backend::Extoll);

    const LEN: u64 = 1024;
    let tx0 = cluster.nodes[0].gpu.alloc(LEN, 256);
    let rx1 = cluster.nodes[1].gpu.alloc(LEN, 256);
    let rx0 = cluster.nodes[0].gpu.alloc(LEN, 256);
    let tx1 = cluster.nodes[1].gpu.alloc(LEN, 256);
    // Ping path: node0 tx0 -> node1 rx1. Pong path: node1 tx1 -> node0 rx0.
    let (a0, a1) = create_pair(&cluster, tx0, rx1, LEN, QueueLoc::Host);
    let (b0, b1) = create_pair(&cluster, rx0, tx1, LEN, QueueLoc::Host);

    // Everything from here on is recorded: counter registry keeps counting
    // either way, but spans/instants are only captured while enabled.
    cluster.sim.trace_enable();

    let gpu0 = cluster.nodes[0].gpu.clone();
    let gpu1 = cluster.nodes[1].gpu.clone();
    let sim = cluster.sim.clone();
    cluster.sim.spawn("ping", async move {
        let t = gpu0.thread();
        let t0 = sim.now();
        a0.put(&t, 0, 0, LEN as u32, true).await;
        a0.quiet(&t).await.expect("local completion");
        b0.wait_arrival(&t).await.expect("pong arrival");
        println!(
            "round trip of {LEN} B complete after {:.2} us of simulated time",
            time::to_us_f64(sim.now() - t0)
        );
    });
    cluster.sim.spawn("pong", async move {
        let t = gpu1.thread();
        a1.wait_arrival(&t).await.expect("ping arrival");
        b1.put(&t, 0, 0, LEN as u32, true).await;
        b1.quiet(&t).await.expect("local completion");
    });

    cluster.sim.run();

    let events = cluster.sim.recorder().take_events();
    let layers: std::collections::BTreeSet<&str> = events.iter().map(|e| e.layer).collect();
    println!(
        "captured {} events across layers: {}",
        events.len(),
        layers.into_iter().collect::<Vec<_>>().join(", ")
    );

    let json = chrome::to_chrome_json(&events);
    let path = "pingpong.trace.json";
    std::fs::write(path, &json).expect("write trace file");
    println!(
        "wrote {path} ({} bytes) — open it in https://ui.perfetto.dev",
        json.len()
    );

    // The registry kept counting through the same run.
    let snap = cluster.sim.registry().snapshot();
    println!(
        "registry: {} PCIe posted writes, {} EXTOLL puts delivered",
        snap.get("pcie0.posted_writes"),
        snap.get("extoll0.puts")
    );
}
