//! Backend-conformance checklist: every [`Transport`] implementation must
//! pass the same generic battery — a receive side with nothing posted, put
//! visibility, get round-trip, zero-length messages, flush ordering,
//! completion counts. A new backend
//! plugs into [`Backend::instantiate`] and inherits this suite unchanged.
//!
//! The checks are written against the trait (`T: Transport`), not against
//! a backend enum: the tests below instantiate the battery once per
//! fabric.

use std::cell::Cell;
use std::rc::Rc;

use tc_desim::sync::Flag;
use tc_mem::Bus;
use tc_putget::api::QueueLoc;
use tc_putget::cluster::{Backend, Cluster};
use tc_putget::transport::{AnyTransport, Transport};
use tc_putget::{time, CpuThread, Sim};

const LEN: u64 = 1024;

/// The clonable handles a check needs: simulation clock, fabric bus, one
/// CPU thread per side.
struct Harness {
    sim: Sim,
    bus: Bus,
    cpu0: CpuThread,
    cpu1: CpuThread,
}

/// A receive side that has posted nothing: every receive primes one
/// receive before it probes, so an empty probe finds nothing, a peer's
/// send right after it lands (Infiniband would answer it with RNR), and an
/// idle receive whose exit flag is already set returns at once.
async fn check_unposted_receive<T: Transport>(h: &Harness, t0: &T, t1: &T) {
    assert!(t1.try_recv(&h.cpu1).await.is_none(), "nothing sent yet");
    let payload: Vec<u8> = (0u8..16).collect();
    t0.send(&h.cpu0, &payload).await.unwrap();
    assert_eq!(t1.recv(&h.cpu1).await.unwrap(), payload);
    let exit = Flag::new("exit");
    exit.set();
    let idle = t1.idle_recv(&h.cpu1, &exit, time::ns(200)).await;
    assert!(idle.is_none(), "an idle receive with its exit set returns");
}

/// Put with remote notification: the notified byte count matches and the
/// payload is visible in the remote buffer once the arrival is observed.
async fn check_put_visibility<T: Transport>(h: &Harness, t0: &T, t1: &T, remote_buf: u64) {
    // Arm before the peer posts (required when the caps say so; harmless
    // otherwise).
    if t1.caps().remote_notify_needs_arming {
        t1.arm_arrival(&h.cpu1).await;
    }
    t0.put(&h.cpu0, 0, 0, 256, true).await;
    t0.quiet(&h.cpu0).await.unwrap();
    let n = t1.wait_arrival(&h.cpu1).await.unwrap();
    assert_eq!(n, 256, "notified byte count");
    let mut got = vec![0u8; 256];
    h.bus.read(remote_buf, &mut got);
    assert_eq!(got, vec![0x5Au8; 256], "put payload visible after arrival");
}

/// Get round-trip: remote bytes land in the local buffer before `get`
/// returns.
async fn check_get_round_trip<T: Transport>(h: &Harness, t0: &T, local_buf: u64) {
    t0.get(&h.cpu0, 512, 512, 128).await.unwrap();
    let mut got = vec![0u8; 128];
    h.bus.read(local_buf + 512, &mut got);
    assert_eq!(got, vec![0xC3u8; 128], "get payload visible on return");
}

/// Two-sided messages: payload round-trips byte-exactly, and a
/// zero-length message is legal and arrives as an empty payload.
async fn check_messages<T: Transport>(h: &Harness, t0: &T, t1: &T) {
    t1.prime_recv(&h.cpu1, 2).await;
    let payload: Vec<u8> = (0u8..32).collect();
    t0.send(&h.cpu0, &payload).await.unwrap();
    t0.send(&h.cpu0, &[]).await.unwrap();
    let first = t1.recv(&h.cpu1).await.unwrap();
    assert_eq!(first, payload, "message payload round-trips");
    let second = t1.recv(&h.cpu1).await.unwrap();
    assert!(second.is_empty(), "zero-length message arrives empty");
    assert!(
        t1.try_recv(&h.cpu1).await.is_none(),
        "no phantom third message"
    );
}

/// Flush ordering: after `flush` every outstanding put is locally
/// complete, and a subsequent notifying put observed remotely implies all
/// earlier puts' bytes are visible too.
async fn check_flush_ordering<T: Transport>(h: &Harness, t0: &T, t1: &T, remote_buf: u64) {
    for k in 0..4u64 {
        t0.put(&h.cpu0, k * 64, k * 64, 64, false).await;
    }
    assert_eq!(t0.outstanding(), 4, "puts counted while in flight");
    t0.flush(&h.cpu0).await.unwrap();
    assert_eq!(t0.outstanding(), 0, "flush retires every put");
    if t1.caps().remote_notify_needs_arming {
        t1.arm_arrival(&h.cpu1).await;
    }
    t0.put(&h.cpu0, 0, 256, 4, true).await;
    t0.quiet(&h.cpu0).await.unwrap();
    t1.wait_arrival(&h.cpu1).await.unwrap();
    let mut got = vec![0u8; 256];
    h.bus.read(remote_buf, &mut got);
    assert_eq!(got, vec![0x77u8; 256], "flushed puts visible after marker");
}

/// Completion counts: `poll_completions` retires exactly as many
/// completions as puts were posted, and no more.
async fn check_completion_counts<T: Transport>(h: &Harness, t0: &T) {
    for k in 0..3u64 {
        t0.put(&h.cpu0, k * 8, k * 8, 8, false).await;
    }
    let mut drained = 0u64;
    while drained < 3 {
        drained += t0.poll_completions(&h.cpu0).await;
        if drained < 3 {
            h.sim.delay(time::ns(200)).await;
        }
    }
    assert_eq!(drained, 3, "one completion per put");
    assert_eq!(t0.outstanding(), 0);
    assert_eq!(
        t0.poll_completions(&h.cpu0).await,
        0,
        "no phantom completions"
    );
}

/// Run the full checklist once over a connected pair.
fn run_conformance(backend: Backend) {
    let c = Cluster::new(backend);
    let buf_a = c.nodes[0].gpu.alloc(LEN, 256);
    let buf_b = c.nodes[1].gpu.alloc(LEN, 256);
    let (t0, t1) = backend.instantiate(&c, (0, buf_a), (1, buf_b), LEN, QueueLoc::Host);
    let (t0, t1): (Rc<AnyTransport>, Rc<AnyTransport>) = (Rc::new(t0), Rc::new(t1));

    let caps = t0.caps();
    assert_eq!(caps, backend.transport_caps(), "caps match the descriptor");
    assert!(caps.max_small_message >= 32);
    assert!(caps.msg_window >= 2);

    // Seed the payload patterns.
    c.bus.write(buf_a, &[0x5Au8; 256]);
    c.bus.write(buf_b + 512, &[0xC3u8; 128]);

    let done = Rc::new(Cell::new(false));
    {
        let h = Harness {
            sim: c.sim.clone(),
            bus: c.bus.clone(),
            cpu0: c.nodes[0].cpu.clone(),
            cpu1: c.nodes[1].cpu.clone(),
        };
        let (t0, t1, done) = (t0.clone(), t1.clone(), done.clone());
        c.sim.spawn("conformance", async move {
            // First, while the pair is fresh: nothing is posted yet.
            check_unposted_receive(&h, &*t0, &*t1).await;
            check_put_visibility(&h, &*t0, &*t1, buf_b).await;
            check_get_round_trip(&h, &*t0, buf_a).await;
            check_messages(&h, &*t0, &*t1).await;
            // Re-seed the flush pattern now that earlier checks ran.
            h.bus.write(buf_a, &[0x77u8; 256]);
            check_flush_ordering(&h, &*t0, &*t1, buf_b).await;
            check_completion_counts(&h, &*t0).await;
            done.set(true);
        });
    }
    c.sim.run();
    assert!(done.get(), "checklist ran to completion");
}

#[test]
fn extoll_passes_the_conformance_checklist() {
    run_conformance(Backend::Extoll);
}

#[test]
fn infiniband_passes_the_conformance_checklist() {
    run_conformance(Backend::Infiniband);
}

// ---------------------------------------------------------------------------
// Message-layer conformance: the eager/rendezvous protocol must behave
// identically over every backend — same delivery order, same payloads,
// same protocol-path selection around the threshold, no deadlock under
// credit exhaustion or crossing rendezvous.
// ---------------------------------------------------------------------------

use tc_putget::{messenger_pair, MsgConfig, RendezvousMode};

/// Messenger buffer: staging and landing halves hold up to 32 KiB each.
const MSG_BUF: u64 = 64 * 1024;

fn pat(len: usize, seed: usize) -> Vec<u8> {
    (0..len).map(|i| (seed + i) as u8).collect()
}

/// Messages straddling the threshold round-trip byte-exactly and in send
/// order; each takes the protocol path its size dictates, including the
/// exact-threshold and zero-length edge cases.
fn check_threshold_straddle(backend: Backend, mode: RendezvousMode) {
    let c = Cluster::new(backend);
    let threshold = backend.transport_caps().default_eager_threshold;
    let cfg = MsgConfig {
        eager_threshold: threshold,
        rendezvous: mode,
    };
    let (m0, m1) = messenger_pair(&c, MSG_BUF, cfg);
    let stats = m0.stats().clone();
    let sizes = vec![
        0,
        1,
        threshold - 1,
        threshold,
        threshold + 1,
        4 * threshold + 13,
    ];
    let eager_count = sizes.iter().filter(|&&s| s <= threshold).count() as u64;
    let total = sizes.len() as u64;
    let rndv_count = total - eager_count;

    let ready = Rc::new(Cell::new(false));
    let done = Rc::new(Cell::new(false));
    let sig = c.sim.signal();
    {
        let cpu = c.nodes[0].cpu.clone();
        let (ready, sig, sizes) = (ready.clone(), sig.clone(), sizes.clone());
        c.sim.spawn("msgconf.send", async move {
            m0.init(&cpu).await;
            sig.wait_until(|| ready.get()).await;
            for (i, &s) in sizes.iter().enumerate() {
                m0.send(&cpu, &pat(s, i)).await.unwrap();
            }
        });
    }
    {
        let cpu = c.nodes[1].cpu.clone();
        let (ready, sig, done) = (ready.clone(), sig.clone(), done.clone());
        c.sim.spawn("msgconf.recv", async move {
            m1.init(&cpu).await;
            ready.set(true);
            sig.notify_all();
            for (i, &s) in sizes.iter().enumerate() {
                let got = m1.recv(&cpu).await.unwrap();
                assert_eq!(got, pat(s, i), "message {i} round-trips in order");
            }
            done.set(true);
        });
    }
    c.sim.run();
    assert!(
        done.get(),
        "{backend:?}/{mode:?}: battery ran to completion"
    );
    assert_eq!(stats.eager_sends.get(), eager_count, "{backend:?}/{mode:?}");
    assert_eq!(stats.rndv_sends.get(), rndv_count, "{backend:?}/{mode:?}");
    assert_eq!(stats.delivered.get(), total);
    match mode {
        // Put mode: every rendezvous costs one CTS grant and one FIN.
        RendezvousMode::Put => {
            assert_eq!(stats.cts.get(), rndv_count);
            assert_eq!(stats.fin.get(), rndv_count);
        }
        // Get mode: no CTS hop at all — the receiver pulls and FINs.
        RendezvousMode::Get => {
            assert_eq!(stats.cts.get(), 0);
            assert_eq!(stats.fin.get(), rndv_count);
        }
    }
}

/// Crossing rendezvous sends from both sides at once must not deadlock:
/// each side's blocking send pumps the progress engine, which grants the
/// peer's RTS. Two rounds exercise the deferred landing-zone release.
fn check_crossing_rendezvous(backend: Backend, mode: RendezvousMode) {
    let c = Cluster::new(backend);
    let cfg = MsgConfig {
        eager_threshold: 0,
        rendezvous: mode,
    };
    let (m0, m1) = messenger_pair(&c, MSG_BUF, cfg);
    let done0 = Rc::new(Cell::new(false));
    let done1 = Rc::new(Cell::new(false));
    let ready = Rc::new(Cell::new(false));
    let sig = c.sim.signal();
    {
        let cpu = c.nodes[0].cpu.clone();
        let (ready, sig, done) = (ready.clone(), sig.clone(), done0.clone());
        c.sim.spawn("msgcross.a", async move {
            m0.init(&cpu).await;
            sig.wait_until(|| ready.get()).await;
            for round in 0..2 {
                m0.send(&cpu, &pat(2048, round)).await.unwrap();
                let got = m0.recv(&cpu).await.unwrap();
                assert_eq!(got, pat(2048, round + 100), "round {round} peer payload");
            }
            done.set(true);
        });
    }
    {
        let cpu = c.nodes[1].cpu.clone();
        let (ready, sig, done) = (ready.clone(), sig.clone(), done1.clone());
        c.sim.spawn("msgcross.b", async move {
            m1.init(&cpu).await;
            ready.set(true);
            sig.notify_all();
            for round in 0..2 {
                m1.send(&cpu, &pat(2048, round + 100)).await.unwrap();
                let got = m1.recv(&cpu).await.unwrap();
                assert_eq!(got, pat(2048, round), "round {round} peer payload");
            }
            done.set(true);
        });
    }
    c.sim.run();
    assert!(
        done0.get() && done1.get(),
        "{backend:?}/{mode:?}: crossing rendezvous completed both sides"
    );
}

/// A message far larger than the credit pool forces the sender to stall
/// on flow control while the receiver is deliberately asleep; the stall
/// must throttle, not deadlock, and the payload must arrive intact.
fn check_credit_exhaustion(backend: Backend) {
    let c = Cluster::new(backend);
    let cfg = MsgConfig {
        eager_threshold: usize::MAX, // force everything eager
        rendezvous: RendezvousMode::Put,
    };
    let (m0, m1) = messenger_pair(&c, MSG_BUF, cfg);
    let stats = m0.stats().clone();
    const BIG: usize = 8192;
    let ready = Rc::new(Cell::new(false));
    let done = Rc::new(Cell::new(false));
    let sig = c.sim.signal();
    {
        let cpu = c.nodes[0].cpu.clone();
        let (ready, sig) = (ready.clone(), sig.clone());
        c.sim.spawn("msgcredit.send", async move {
            m0.init(&cpu).await;
            sig.wait_until(|| ready.get()).await;
            m0.send(&cpu, &pat(BIG, 9)).await.unwrap();
        });
    }
    {
        let sim = c.sim.clone();
        let cpu = c.nodes[1].cpu.clone();
        let (ready, sig, done) = (ready.clone(), sig.clone(), done.clone());
        c.sim.spawn("msgcredit.recv", async move {
            m1.init(&cpu).await;
            ready.set(true);
            sig.notify_all();
            // Sleep past the sender's credit pool so it provably blocks
            // on flow control before we drain anything.
            sim.delay(time::us(20)).await;
            let got = m1.recv(&cpu).await.unwrap();
            assert_eq!(got, pat(BIG, 9));
            done.set(true);
        });
    }
    c.sim.run();
    assert!(done.get(), "{backend:?}: big eager message delivered");
    assert!(
        stats.credit_stalls.get() > 0,
        "{backend:?}: sender must have exhausted its credits"
    );
    assert!(
        stats.credits_returned.get() > 0,
        "{backend:?}: receiver returned credits"
    );
    let frags = (BIG as u64).div_ceil((backend.transport_caps().max_small_message - 8) as u64);
    assert_eq!(
        stats.eager_frags.get(),
        frags,
        "{backend:?}: fragment count"
    );
}

/// Interleaved eager and rendezvous messages of one direction are
/// delivered in send order, whatever path each took.
fn check_mixed_ordering(backend: Backend) {
    let c = Cluster::new(backend);
    let threshold = backend.transport_caps().default_eager_threshold;
    let cfg = MsgConfig {
        eager_threshold: threshold,
        rendezvous: RendezvousMode::Put,
    };
    let (m0, m1) = messenger_pair(&c, MSG_BUF, cfg);
    let stats = m0.stats().clone();
    let sizes = vec![17, 3 * threshold, 23, 0, 2 * threshold + 5, threshold];
    let n = sizes.len() as u64;
    let ready = Rc::new(Cell::new(false));
    let done = Rc::new(Cell::new(false));
    let sig = c.sim.signal();
    {
        let cpu = c.nodes[0].cpu.clone();
        let (ready, sig, sizes) = (ready.clone(), sig.clone(), sizes.clone());
        c.sim.spawn("msgmix.send", async move {
            m0.init(&cpu).await;
            sig.wait_until(|| ready.get()).await;
            for (i, &s) in sizes.iter().enumerate() {
                m0.send(&cpu, &pat(s, 3 * i)).await.unwrap();
            }
        });
    }
    {
        let cpu = c.nodes[1].cpu.clone();
        let (ready, sig, done) = (ready.clone(), sig.clone(), done.clone());
        c.sim.spawn("msgmix.recv", async move {
            m1.init(&cpu).await;
            ready.set(true);
            sig.notify_all();
            for (i, &s) in sizes.iter().enumerate() {
                let got = m1.recv(&cpu).await.unwrap();
                assert_eq!(got, pat(s, 3 * i), "message {i} in send order");
            }
            done.set(true);
        });
    }
    c.sim.run();
    assert!(done.get(), "{backend:?}: mixed battery completed");
    assert_eq!(stats.delivered.get(), n, "{backend:?}");
}

#[test]
fn extoll_msg_layer_put_mode() {
    check_threshold_straddle(Backend::Extoll, RendezvousMode::Put);
    check_crossing_rendezvous(Backend::Extoll, RendezvousMode::Put);
}

#[test]
fn extoll_msg_layer_get_mode() {
    check_threshold_straddle(Backend::Extoll, RendezvousMode::Get);
    check_crossing_rendezvous(Backend::Extoll, RendezvousMode::Get);
}

#[test]
fn infiniband_msg_layer_put_mode() {
    check_threshold_straddle(Backend::Infiniband, RendezvousMode::Put);
    check_crossing_rendezvous(Backend::Infiniband, RendezvousMode::Put);
}

#[test]
fn infiniband_msg_layer_get_mode() {
    check_threshold_straddle(Backend::Infiniband, RendezvousMode::Get);
    check_crossing_rendezvous(Backend::Infiniband, RendezvousMode::Get);
}

#[test]
fn msg_layer_credit_exhaustion_throttles_without_deadlock() {
    check_credit_exhaustion(Backend::Extoll);
    check_credit_exhaustion(Backend::Infiniband);
}

#[test]
fn msg_layer_preserves_send_order_across_protocols() {
    check_mixed_ordering(Backend::Extoll);
    check_mixed_ordering(Backend::Infiniband);
}
