//! Integration tests of the unified put/get API (`create_pair` plus the
//! `Transport` methods): every method, on both backends, driven by both
//! processors, plus error paths.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tc_repro::putget::api::{create_pair, QueueLoc};
use tc_repro::putget::cluster::{Backend, Cluster};
use tc_repro::putget::{CommError, Transport};

fn cluster_with_bufs(backend: Backend) -> (Cluster, u64, u64) {
    let c = Cluster::new(backend);
    let a = c.nodes[0].gpu.alloc(8192, 256);
    let b = c.nodes[1].gpu.alloc(8192, 256);
    (c, a, b)
}

fn fill(c: &Cluster, addr: u64, len: u64, seed: u8) -> Vec<u8> {
    let data: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(7) ^ seed).collect();
    c.bus.write(addr, &data);
    data
}

#[test]
fn put_quiet_arrival_round_trip_both_backends_both_processors() {
    for backend in [Backend::Extoll, Backend::Infiniband] {
        for gpu_driven in [true, false] {
            let (c, a, b) = cluster_with_bufs(backend);
            let (ep0, ep1) = create_pair(&c, a, b, 8192, QueueLoc::Host);
            let data = fill(&c, a, 8192, 0x3C);
            let gpu0 = c.nodes[0].gpu.clone();
            let cpu0 = c.nodes[0].cpu.clone();
            let cpu1 = c.nodes[1].cpu.clone();
            c.sim.spawn("driver", async move {
                // Infiniband arrival notifications need an armed receive.
                ep1.arm_arrival(&cpu1).await;
                if gpu_driven {
                    let t = gpu0.thread();
                    ep0.put(&t, 0, 0, 8192, true).await;
                    ep0.quiet(&t).await.unwrap();
                } else {
                    ep0.put(&cpu0, 0, 0, 8192, true).await;
                    ep0.quiet(&cpu0).await.unwrap();
                }
                let n = ep1.wait_arrival(&cpu1).await.unwrap();
                assert_eq!(n, 8192);
            });
            c.sim.run();
            let mut got = vec![0u8; 8192];
            c.bus.read(b, &mut got);
            assert_eq!(got, data, "{backend:?} gpu_driven={gpu_driven}");
        }
    }
}

#[test]
fn get_round_trip_both_backends() {
    for backend in [Backend::Extoll, Backend::Infiniband] {
        let (c, a, b) = cluster_with_bufs(backend);
        let (ep0, _ep1) = create_pair(&c, a, b, 8192, QueueLoc::Host);
        let data = fill(&c, b, 4096, 0x77);
        let gpu0 = c.nodes[0].gpu.clone();
        c.sim.spawn("driver", async move {
            let t = gpu0.thread();
            ep0.get(&t, 1024, 0, 4096).await.unwrap();
        });
        c.sim.run();
        let mut got = vec![0u8; 4096];
        c.bus.read(a + 1024, &mut got);
        assert_eq!(got, data, "{backend:?}");
    }
}

#[test]
fn try_arrival_polls_without_blocking() {
    let (c, a, b) = cluster_with_bufs(Backend::Extoll);
    let (ep0, ep1) = create_pair(&c, a, b, 8192, QueueLoc::Host);
    fill(&c, a, 64, 1);
    let gpu0 = c.nodes[0].gpu.clone();
    let cpu1 = c.nodes[1].cpu.clone();
    let sim = c.sim.clone();
    c.sim.spawn("receiver", async move {
        // Nothing has been sent yet: the probe must come back empty.
        assert!(ep1.try_arrival(&cpu1).await.is_none());
        // Poll until the put lands.
        loop {
            if let Some(r) = ep1.try_arrival(&cpu1).await {
                assert_eq!(r.unwrap(), 64);
                break;
            }
            sim.delay(tc_repro::putget::time::us(1)).await;
        }
    });
    let sim = c.sim.clone();
    c.sim.spawn("sender", async move {
        sim.delay(tc_repro::putget::time::us(20)).await;
        let t = gpu0.thread();
        ep0.put(&t, 0, 0, 64, true).await;
        ep0.quiet(&t).await.unwrap();
    });
    c.sim.run();
}

#[test]
fn ib_notified_put_without_armed_receive_reports_receiver_not_ready() {
    let (c, a, b) = cluster_with_bufs(Backend::Infiniband);
    let (ep0, _ep1) = create_pair(&c, a, b, 8192, QueueLoc::Host);
    fill(&c, a, 64, 2);
    let cpu0 = c.nodes[0].cpu.clone();
    c.sim.spawn("driver", async move {
        // Write-with-immediate with no receive posted on the peer.
        ep0.put(&cpu0, 0, 0, 64, true).await;
        let e = ep0.quiet(&cpu0).await.unwrap_err();
        assert_eq!(e, CommError::ReceiverNotReady);
    });
    c.sim.run();
}

#[test]
fn extoll_notified_put_needs_no_receiver_action() {
    // The EXTOLL/IB API contrast the paper highlights: completer
    // notifications arrive without any posted receive.
    let (c, a, b) = cluster_with_bufs(Backend::Extoll);
    let (ep0, ep1) = create_pair(&c, a, b, 8192, QueueLoc::Host);
    fill(&c, a, 128, 3);
    let cpu0 = c.nodes[0].cpu.clone();
    let cpu1 = c.nodes[1].cpu.clone();
    c.sim.spawn("driver", async move {
        // No arm_arrival call anywhere.
        ep0.put(&cpu0, 0, 0, 128, true).await;
        ep0.quiet(&cpu0).await.unwrap();
        assert_eq!(ep1.wait_arrival(&cpu1).await.unwrap(), 128);
    });
    c.sim.run();
}

#[test]
fn multiple_outstanding_puts_complete_in_order() {
    let (c, a, b) = cluster_with_bufs(Backend::Infiniband);
    let (ep0, _ep1) = create_pair(&c, a, b, 8192, QueueLoc::Host);
    fill(&c, a, 8192, 4);
    let cpu0 = c.nodes[0].cpu.clone();
    c.sim.spawn("driver", async move {
        // Pipeline 8 puts, then quiesce them all.
        for i in 0..8u64 {
            ep0.put(&cpu0, i * 512, i * 512, 512, false).await;
        }
        for _ in 0..8 {
            ep0.quiet(&cpu0).await.unwrap();
        }
    });
    c.sim.run();
    let mut got_a = vec![0u8; 4096];
    let mut got_b = vec![0u8; 4096];
    c.bus.read(a, &mut got_a);
    c.bus.read(b, &mut got_b);
    assert_eq!(got_a, got_b);
}

/// Run one CPU-driven put (or get) of `len` bytes between the 8192-byte
/// buffers of a fresh pair; returns the panic message if it panicked.
fn transfer(
    backend: Backend,
    get: bool,
    local_off: u64,
    remote_off: u64,
    len: u32,
) -> Option<String> {
    catch_unwind(AssertUnwindSafe(|| {
        let (c, a, b) = cluster_with_bufs(backend);
        let (ep0, _ep1) = create_pair(&c, a, b, 8192, QueueLoc::Host);
        let cpu0 = c.nodes[0].cpu.clone();
        c.sim.spawn("driver", async move {
            if get {
                ep0.get(&cpu0, local_off, remote_off, len).await.unwrap();
            } else {
                ep0.put(&cpu0, local_off, remote_off, len, false).await;
                ep0.quiet(&cpu0).await.unwrap();
            }
        });
        c.sim.run();
    }))
    .err()
    .map(|e| match e.downcast::<String>() {
        Ok(msg) => *msg,
        Err(e) => e.downcast_ref::<&str>().unwrap_or(&"").to_string(),
    })
}

#[test]
fn put_or_get_past_the_buffer_end_panics_on_both_fabrics() {
    for backend in [Backend::Extoll, Backend::Infiniband] {
        for get in [false, true] {
            let case = format!("{backend:?} get={get}");
            // Ending exactly at the buffer end is fine.
            assert_eq!(
                transfer(backend, get, 8192 - 64, 8192 - 64, 64),
                None,
                "{case}"
            );
            let local = transfer(backend, get, 8192 - 63, 0, 64).expect(&case);
            assert!(local.contains("local range 8129+64"), "{case}: {local}");
            let remote = transfer(backend, get, 0, 8192 - 63, 64).expect(&case);
            assert!(remote.contains("remote range 8129+64"), "{case}: {remote}");
            // An offset so large that offset + len wraps is still caught.
            let wrap = transfer(backend, get, u64::MAX, 0, 1).expect(&case);
            assert!(
                wrap.contains("passes the end of the 8192-byte buffer"),
                "{case}: {wrap}"
            );
        }
    }
}
