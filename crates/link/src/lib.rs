#![warn(missing_docs)]
//! `tc-link` — the interconnect between nodes' NICs.
//!
//! An N-port [`Fabric`] (a cut-through switch): every port owns a TX
//! serializer at the line rate, frames experience a propagation/switch
//! latency, and frames from one sender to one receiver stay **in order** —
//! the property that lets the paper poll on the last received payload
//! element instead of a completion notification. The paper's testbeds are
//! two nodes back to back: a two-port fabric, one full-duplex serial link.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use tc_desim::sync::Channel;
use tc_desim::time::{Time, SEC};
use tc_desim::Sim;

/// Callback capturing a frame bound for a remote (off-shard) port:
/// `(dst_port, src_port, deliver_at, payload_bytes, frame)`. See
/// [`Fabric::set_remote_tap`].
pub type RemoteTap<T> = Box<dyn Fn(usize, usize, Time, u64, T)>;

/// Configuration of a link/fabric.
#[derive(Debug, Clone, Copy)]
pub struct CableConfig {
    /// Line rate in bytes per second (after encoding overhead).
    pub rate: u64,
    /// One-way propagation + SerDes + switch latency (ps).
    pub latency: Time,
    /// Per-frame framing overhead in bytes (headers, CRC).
    pub frame_overhead: u64,
}

impl CableConfig {
    /// Serialization time of a frame carrying `payload` bytes.
    pub fn serialize_time(&self, payload: u64) -> Time {
        (((payload + self.frame_overhead) as u128 * SEC as u128) / self.rate as u128) as Time
    }

    /// EXTOLL Galibier (FPGA): ~900 MB/s usable line rate; the FPGA link
    /// stack contributes most of the one-way latency.
    pub fn extoll_galibier() -> Self {
        CableConfig {
            rate: 900_000_000,
            latency: tc_desim::time::ns(1500),
            frame_overhead: 24,
        }
    }

    /// InfiniBand 4X FDR: 56 Gbit/s raw, ~6.0 GB/s usable.
    pub fn ib_fdr_4x() -> Self {
        CableConfig {
            rate: 6_000_000_000,
            latency: tc_desim::time::ns(500),
            frame_overhead: 30,
        }
    }
}

struct PortState<T> {
    tx_busy_until: Cell<Time>,
    rx: Channel<T>,
    /// True when this port's NIC lives on another shard of a sharded run:
    /// frames sent *to* it are handed to the remote tap instead of being
    /// delivered locally (the sender-side serialization still happens
    /// here, so TX timing is identical to the serial build).
    remote: Cell<bool>,
}

struct FabricInner<T> {
    sim: Sim,
    cfg: CableConfig,
    ports: Vec<PortState<T>>,
    tap: RefCell<Option<RemoteTap<T>>>,
}

/// An N-port interconnect. Frames are serialized on the sender's TX link,
/// cross the fabric after `latency`, and are delivered to the destination
/// port's receive queue in order (per sender-receiver pair).
pub struct Fabric<T> {
    inner: Rc<FabricInner<T>>,
}

impl<T> Clone for Fabric<T> {
    fn clone(&self) -> Self {
        Fabric {
            inner: self.inner.clone(),
        }
    }
}

impl<T: 'static> Fabric<T> {
    /// A fabric with `ports` attachment points.
    pub fn new(sim: &Sim, cfg: CableConfig, ports: usize) -> Self {
        assert!(ports >= 2, "a fabric needs at least two ports");
        Fabric {
            inner: Rc::new(FabricInner {
                sim: sim.clone(),
                cfg,
                ports: (0..ports)
                    .map(|_| PortState {
                        tx_busy_until: Cell::new(0),
                        rx: Channel::new(sim, 0),
                        remote: Cell::new(false),
                    })
                    .collect(),
                tap: RefCell::new(None),
            }),
        }
    }

    /// Mark `side` as living on another shard: frames addressed to it are
    /// captured by the tap (see [`Fabric::set_remote_tap`]) instead of
    /// being delivered to its local receive queue.
    pub fn mark_remote(&self, side: usize) {
        self.inner.ports[side].remote.set(true);
    }

    /// Install the callback receiving frames addressed to remote ports.
    /// It fires at the instant serialization completes and is given the
    /// absolute delivery time (`tx_done + latency`), so a shard
    /// coordinator can exchange the frame as a timestamped envelope and
    /// replay it with [`Fabric::inject`] on the owning shard.
    pub fn set_remote_tap(&self, tap: RemoteTap<T>) {
        *self.inner.tap.borrow_mut() = Some(tap);
    }

    /// Deliver a frame captured on another shard: the local half of the
    /// propagation modelled by [`Port::send_to`], through the same
    /// delivery the serial path uses — the frame lands in `dst`'s receive
    /// queue at exactly `deliver_at`, and the deserialize span is
    /// back-dated by one fabric latency so traces line up with a serial
    /// run. Must be called before simulated time reaches `deliver_at`.
    pub fn inject(&self, dst: usize, src: usize, deliver_at: Time, frame: T, payload_bytes: u64)
    where
        T: 'static,
    {
        assert!(dst < self.inner.ports.len(), "no such fabric port: {dst}");
        assert!(
            deliver_at > self.inner.sim.now(),
            "injected frame would deliver in the past"
        );
        self.propagate(dst, src, deliver_at, frame, payload_bytes);
    }

    /// Land `frame` from port `src` in `dst`'s receive queue at `at`, one
    /// fabric latency after its serialization ended: a timed delivery
    /// ([`Sim::deliver`]), not a process per frame.
    fn propagate(&self, dst: usize, src: usize, at: Time, frame: T, payload_bytes: u64) {
        let inner = &self.inner;
        let rx = inner.ports[dst].rx.clone();
        let rec = inner.sim.recorder().clone();
        let lat = inner.cfg.latency;
        inner.sim.deliver("fabric.prop", at, move || {
            if rec.on() {
                rec.span(
                    at - lat,
                    at,
                    "link",
                    format!("fabric.port{dst}.rx"),
                    "deserialize",
                    vec![
                        ("bytes", payload_bytes.into()),
                        ("src", (src as u64).into()),
                    ],
                );
            }
            if rx.try_send(frame).is_err() {
                unreachable!("fabric receive queues are unbounded");
            }
        });
    }

    /// The attachment point for `side`.
    pub fn port(&self, side: usize) -> Port<T> {
        assert!(side < self.inner.ports.len());
        Port {
            fabric: self.clone(),
            side,
        }
    }

    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.inner.ports.len()
    }

    /// The fabric configuration.
    pub fn config(&self) -> &CableConfig {
        &self.inner.cfg
    }
}

/// One NIC's attachment to a [`Fabric`].
pub struct Port<T> {
    fabric: Fabric<T>,
    side: usize,
}

impl<T> Clone for Port<T> {
    fn clone(&self) -> Self {
        Port {
            fabric: self.fabric.clone(),
            side: self.side,
        }
    }
}

impl<T: 'static> Port<T> {
    /// Transmit a frame of `payload_bytes` to `dst` (a port index). The
    /// caller is blocked for the serialization time (its TX engine is
    /// busy); delivery happens one fabric latency later. Frames between a
    /// given sender and receiver arrive in order.
    pub async fn send_to(&self, dst: usize, frame: T, payload_bytes: u64) {
        let inner = &self.fabric.inner;
        assert!(dst < inner.ports.len(), "no such fabric port: {dst}");
        assert_ne!(dst, self.side, "fabric loopback is not modelled");
        let me = &inner.ports[self.side];
        let ser = inner.cfg.serialize_time(payload_bytes);
        let now = inner.sim.now();
        let start = now.max(me.tx_busy_until.get());
        let tx_done = start + ser;
        me.tx_busy_until.set(tx_done);
        inner.sim.delay(tx_done - now).await;
        let rec = inner.sim.recorder();
        if rec.on() {
            // The span starts when the TX engine begins clocking the frame
            // out, which may be later than the caller's arrival if the
            // serializer was still busy with an earlier frame.
            rec.span(
                start,
                tx_done,
                "link",
                format!("fabric.port{}.tx", self.side),
                "serialize",
                vec![
                    ("bytes", payload_bytes.into()),
                    ("dst", (dst as u64).into()),
                ],
            );
        }
        if inner.ports[dst].remote.get() {
            // The destination NIC lives on another shard: hand the frame
            // to the coordinator with its absolute delivery time instead
            // of propagating it locally.
            let tap = inner.tap.borrow();
            let tap = tap
                .as_ref()
                .expect("frame for a remote port but no remote tap installed");
            tap(
                dst,
                self.side,
                tx_done + inner.cfg.latency,
                payload_bytes,
                frame,
            );
            return;
        }
        // Propagation: enqueue at the destination after `latency`.
        self.fabric.propagate(
            dst,
            self.side,
            tx_done + inner.cfg.latency,
            frame,
            payload_bytes,
        );
    }

    /// Receive the next frame arriving at this port.
    pub async fn recv(&self) -> Option<T> {
        self.fabric.inner.ports[self.side].rx.recv().await
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<T> {
        self.fabric.inner.ports[self.side].rx.try_recv()
    }

    /// Which fabric port this is.
    pub fn side(&self) -> usize {
        self.side
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use tc_desim::time::{ns, us};

    fn cfg() -> CableConfig {
        CableConfig {
            rate: 1_000_000_000, // 1 GB/s => 1 ns/byte
            latency: ns(400),
            frame_overhead: 0,
        }
    }

    #[test]
    fn frame_arrives_after_serialization_plus_latency() {
        let sim = Sim::new();
        let fabric: Fabric<u64> = Fabric::new(&sim, cfg(), 2);
        let tx = fabric.port(0);
        let rx = fabric.port(1);
        let arrived = Rc::new(Cell::new(0u64));
        let a = arrived.clone();
        let h = sim.clone();
        sim.spawn("tx", async move {
            tx.send_to(1, 42, 100).await;
        });
        sim.spawn("rx", async move {
            let v = rx.recv().await.unwrap();
            assert_eq!(v, 42);
            a.set(h.now());
        });
        sim.run();
        assert_eq!(arrived.get(), ns(100) + ns(400));
    }

    #[test]
    fn frames_from_one_side_arrive_in_order() {
        let sim = Sim::new();
        let fabric: Fabric<u32> = Fabric::new(&sim, cfg(), 2);
        let tx = fabric.port(0);
        let rx = fabric.port(1);
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        sim.spawn("tx", async move {
            for i in 0..10 {
                tx.send_to(1, i, 64).await;
            }
        });
        sim.spawn("rx", async move {
            for _ in 0..10 {
                let v = rx.recv().await.unwrap();
                g.borrow_mut().push(v);
            }
        });
        sim.run();
        assert_eq!(*got.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn directions_are_independent() {
        let sim = Sim::new();
        let fabric: Fabric<&'static str> = Fabric::new(&sim, cfg(), 2);
        let (p0, p1) = (fabric.port(0), fabric.port(1));
        let t0 = Rc::new(Cell::new(0u64));
        let t1 = Rc::new(Cell::new(0u64));
        {
            let p = p0.clone();
            sim.spawn("tx0", async move { p.send_to(1, "ping", 1 << 20).await });
        }
        {
            let p = p1.clone();
            sim.spawn("tx1", async move { p.send_to(0, "pong", 1 << 20).await });
        }
        let (a, b) = (t0.clone(), t1.clone());
        let h = sim.clone();
        sim.spawn("rx1", async move {
            p1.recv().await.unwrap();
            a.set(h.now());
        });
        let h = sim.clone();
        sim.spawn("rx0", async move {
            p0.recv().await.unwrap();
            b.set(h.now());
        });
        sim.run();
        // Full duplex: both directions complete at the same time.
        assert_eq!(t0.get(), t1.get());
        assert!(t0.get() > us(1));
    }

    #[test]
    fn back_to_back_sends_serialize_on_tx() {
        let sim = Sim::new();
        let fabric: Fabric<u8> = Fabric::new(&sim, cfg(), 2);
        let tx = fabric.port(0);
        let h = sim.clone();
        sim.spawn("tx", async move {
            tx.send_to(1, 1, 1000).await;
            tx.send_to(1, 2, 1000).await;
            // Two 1000-byte frames at 1 ns/byte: TX busy 2 us total.
            assert_eq!(h.now(), us(2));
        });
        sim.run();
    }

    #[test]
    fn bandwidth_matches_line_rate_for_streams() {
        let sim = Sim::new();
        let fabric: Fabric<usize> = Fabric::new(&sim, CableConfig::ib_fdr_4x(), 2);
        let tx = fabric.port(0);
        let rx = fabric.port(1);
        let n = 64;
        let sz: u64 = 65536;
        let done = Rc::new(Cell::new(0u64));
        let d = done.clone();
        let h = sim.clone();
        sim.spawn("tx", async move {
            for i in 0..n {
                tx.send_to(1, i, sz).await;
            }
        });
        sim.spawn("rx", async move {
            for _ in 0..n {
                rx.recv().await.unwrap();
            }
            d.set(h.now());
        });
        sim.run();
        let secs = tc_desim::time::to_sec_f64(done.get());
        let bw = (n as u64 * sz) as f64 / secs;
        // Within 10% of the configured 6 GB/s line rate.
        assert!(bw > 5.4e9 && bw < 6.1e9, "bw={bw}");
    }

    #[test]
    fn four_port_fabric_routes_by_destination() {
        let sim = Sim::new();
        let fabric: Fabric<(usize, u32)> = Fabric::new(&sim, cfg(), 4);
        // Port 0 sends a distinct frame to each other port.
        let tx = fabric.port(0);
        sim.spawn("tx", async move {
            for dst in 1..4usize {
                tx.send_to(dst, (dst, dst as u32 * 100), 64).await;
            }
        });
        let hits = Rc::new(RefCell::new(Vec::new()));
        for side in 1..4usize {
            let rx = fabric.port(side);
            let h = hits.clone();
            sim.spawn(&format!("rx{side}"), async move {
                let (dst, v) = rx.recv().await.unwrap();
                assert_eq!(dst, side, "misrouted frame");
                h.borrow_mut().push(v);
            });
        }
        sim.run();
        let mut got = hits.borrow().clone();
        got.sort();
        assert_eq!(got, vec![100, 200, 300]);
    }

    #[test]
    fn fabric_senders_do_not_share_tx_links() {
        let sim = Sim::new();
        let fabric: Fabric<u8> = Fabric::new(&sim, cfg(), 4);
        // Ports 0 and 1 both send 1 MB to ports 2 and 3 concurrently.
        let done = Rc::new(RefCell::new(Vec::new()));
        for (src, dst) in [(0usize, 2usize), (1, 3)] {
            let tx = fabric.port(src);
            sim.spawn(&format!("tx{src}"), async move {
                tx.send_to(dst, 1, 1 << 20).await;
            });
            let rx = fabric.port(dst);
            let d = done.clone();
            let h = sim.clone();
            sim.spawn(&format!("rx{dst}"), async move {
                rx.recv().await.unwrap();
                d.borrow_mut().push(h.now());
            });
        }
        sim.run();
        let d = done.borrow();
        assert_eq!(d[0], d[1], "independent TX links must not serialize");
    }

    #[test]
    fn tracing_records_serialize_and_deserialize_spans() {
        let sim = Sim::new();
        sim.recorder().enable();
        let fabric: Fabric<u64> = Fabric::new(&sim, cfg(), 2);
        let tx = fabric.port(0);
        let rx = fabric.port(1);
        sim.spawn("tx", async move { tx.send_to(1, 1, 100).await });
        sim.spawn("rx", async move {
            rx.recv().await.unwrap();
        });
        sim.run();
        let events = sim.recorder().take_events();
        let ser: Vec<_> = events.iter().filter(|e| e.name == "serialize").collect();
        let des: Vec<_> = events.iter().filter(|e| e.name == "deserialize").collect();
        assert_eq!(ser.len(), 1);
        assert_eq!(des.len(), 1);
        assert_eq!(ser[0].layer, "link");
        assert_eq!(ser[0].track, "fabric.port0.tx");
        assert_eq!(ser[0].phase, crate::tests::span_of(ns(100)));
        assert_eq!(des[0].track, "fabric.port1.rx");
        assert_eq!(des[0].phase, crate::tests::span_of(ns(400)));
    }

    fn span_of(dur: Time) -> tc_trace::Phase {
        tc_trace::Phase::Span { dur }
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn loopback_is_rejected() {
        let sim = Sim::new();
        let fabric: Fabric<u8> = Fabric::new(&sim, cfg(), 3);
        let p = fabric.port(1);
        sim.spawn("t", async move {
            p.send_to(1, 0, 8).await;
        });
        sim.run();
    }
}
