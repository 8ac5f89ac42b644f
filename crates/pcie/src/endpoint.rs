//! A device's attachment point to the PCIe fabric.

use std::rc::Rc;

use tc_desim::{time::Time, Sim};
use tc_mem::{Addr, Bus, Payload, RegionKind};

use crate::config::PcieConfig;
use crate::link::Link;
use crate::stats::PcieStats;

/// One device's view of the fabric: a private upstream link plus the shared
/// bus for data movement. GPUs, NICs and the CPU's uncore each own one.
#[derive(Clone)]
pub struct Endpoint {
    sim: Sim,
    bus: Bus,
    cfg: Rc<PcieConfig>,
    stats: Rc<PcieStats>,
    link: Link,
    name: Rc<str>,
    /// Process name of a posted write's delivery, `<name>.pw` (a recorded
    /// run spawns it as a process).
    pw_name: Rc<str>,
    /// Trace track for this endpoint's events, e.g. `pcie0.nic`.
    track: Rc<str>,
}

impl Endpoint {
    pub(crate) fn new(
        sim: Sim,
        bus: Bus,
        cfg: Rc<PcieConfig>,
        stats: Rc<PcieStats>,
        name: &str,
        track: &str,
    ) -> Self {
        Endpoint {
            link: Link::new(sim.clone()),
            sim,
            bus,
            cfg,
            stats,
            name: name.into(),
            pw_name: format!("{name}.pw").into(),
            track: track.into(),
        }
    }

    /// The device name this endpoint was created for.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shared data-plane bus.
    pub fn bus(&self) -> &Bus {
        &self.bus
    }

    /// The fabric configuration.
    pub fn config(&self) -> &PcieConfig {
        &self.cfg
    }

    /// This device's upstream link.
    pub fn link(&self) -> &Link {
        &self.link
    }

    /// Issue a small **posted write** (doorbell, BAR work request, mapped
    /// flag). Returns once the write has left the device; delivery to the
    /// target (and any MMIO side effect) happens `posted_write_lat` later.
    /// Posted writes from one endpoint are delivered in issue order:
    /// the link hands out non-decreasing delivery instants per endpoint,
    /// and the delivery ([`Sim::deliver`]) of a later write is created
    /// later, so it reaches its place in the runnable queue later and
    /// draws a larger sequence number, which breaks an equal-instant tie
    /// its way.
    pub async fn posted_write(&self, addr: Addr, data: Vec<u8>) {
        self.stats.posted_writes.inc();
        self.stats.posted_write_bytes.add(data.len() as u64);
        let rec = self.sim.recorder();
        if rec.on() {
            rec.instant(
                self.sim.now(),
                "pcie",
                self.track.to_string(),
                "mmio_write",
                vec![("addr", addr.into()), ("bytes", (data.len() as u64).into())],
            );
        }
        let wire = self.cfg.wire_time(data.len() as u64, self.cfg.dma_bw);
        let issued = self.link.reserve(wire);
        let deliver_at = issued + self.cfg.posted_write_lat;
        self.stats.mmio_write_ps.record(deliver_at - self.sim.now());
        let bus = self.bus.clone();
        self.sim
            .deliver(&self.pw_name, deliver_at, move || bus.write(addr, &data));
        // Issuer pays the issue cost only.
        self.sim.delay(self.cfg.posted_write_issue).await;
    }

    /// Issue a small **non-posted read**: stalls the caller for a full PCIe
    /// round trip; data is sampled at completion time.
    pub async fn read(&self, addr: Addr, buf: &mut [u8]) {
        let now = self.sim.now();
        let end = self.read_issue(buf.len() as u64);
        self.sim.delay(end - now).await;
        self.read_complete(now, addr, buf);
    }

    /// Send a non-posted read of `len` bytes: count it and reserve the
    /// link. Returns the instant the data arrives. [`Endpoint::read`] is
    /// this, a delay until then, and [`Endpoint::read_complete`].
    pub fn read_issue(&self, len: u64) -> Time {
        self.stats.reads.inc();
        self.stats.read_bytes.add(len);
        let wire = self.cfg.wire_time(len, self.cfg.dma_bw);
        self.link.reserve(wire) + self.cfg.read_rtt
    }

    /// Complete a read issued at `issued`: the data is sampled now.
    pub fn read_complete(&self, issued: Time, addr: Addr, buf: &mut [u8]) {
        self.bus.read(addr, buf);
        self.stats.np_read_ps.record(self.sim.now() - issued);
        let rec = self.sim.recorder();
        if rec.on() {
            rec.span(
                issued,
                self.sim.now(),
                "pcie",
                self.track.to_string(),
                "np_read",
                vec![("addr", addr.into()), ("bytes", (buf.len() as u64).into())],
            );
        }
    }

    /// Charge `n` reads of `len` bytes that a parked spinner skipped: the
    /// counters and link occupancy of [`Endpoint::read_issue`], the last
    /// read issued at `last_issue` on an idle link.
    pub fn charge_skipped_reads(&self, n: u64, len: u64, last_issue: Time) {
        self.stats.reads.add(n);
        self.stats.read_bytes.add(n * len);
        let wire = self.cfg.wire_time(len, self.cfg.dma_bw);
        self.link.skip(n * wire, last_issue + wire);
    }

    /// Charge `n` skipped read completions of latency `lat`.
    pub fn charge_skipped_completions(&self, n: u64, lat: Time) {
        self.stats.np_read_ps.record_n(lat, n);
    }

    /// Read a little-endian `u64` with a non-posted read.
    pub async fn read_u64(&self, addr: Addr) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b).await;
        u64::from_le_bytes(b)
    }

    /// Bulk DMA read of `len` bytes at `addr`. Applies the P2P read anomaly
    /// when the source is a GPU BAR aperture. Data is sampled at
    /// completion time.
    pub async fn dma_read(&self, addr: Addr, len: u64) -> Payload {
        self.stats.dma_reads.inc();
        self.stats.dma_read_bytes.add(len);
        let kind = self.bus.classify(addr);
        let p2p = matches!(kind, RegionKind::GpuBar { .. });
        let dur = if p2p {
            self.stats.p2p_reads.inc();
            self.cfg.p2p_read_time(len)
        } else {
            self.cfg.dma_time(len)
        };
        let t0 = self.sim.now();
        self.stats.dma_in_flight.inc();
        self.link.transfer(dur).await;
        self.stats.dma_in_flight.dec();
        let data = self.bus.snapshot(addr, len as usize);
        self.stats.dma_read_ps.record(self.sim.now() - t0);
        self.dma_span(t0, "dma_read", addr, len, p2p);
        data
    }

    /// Bulk DMA write of `data` to `addr`. Data lands at completion time.
    pub async fn dma_write(&self, addr: Addr, data: &Payload) {
        let len = data.len() as u64;
        self.stats.dma_writes.inc();
        self.stats.dma_write_bytes.add(len);
        let kind = self.bus.classify(addr);
        let p2p = matches!(kind, RegionKind::GpuBar { .. });
        let dur = if p2p {
            self.stats.p2p_writes.inc();
            self.cfg.p2p_write_time(len)
        } else {
            self.cfg.dma_time(len)
        };
        let t0 = self.sim.now();
        self.stats.dma_in_flight.inc();
        self.link.transfer(dur).await;
        self.stats.dma_in_flight.dec();
        self.bus.write_payload(addr, data);
        self.stats.dma_write_ps.record(self.sim.now() - t0);
        self.dma_span(t0, "dma_write", addr, len, p2p);
    }

    /// Record a bulk DMA that started at `t0` and completes now.
    fn dma_span(&self, t0: Time, name: &'static str, addr: Addr, len: u64, p2p: bool) {
        let rec = self.sim.recorder();
        if rec.on() {
            rec.span(
                t0,
                self.sim.now(),
                "pcie",
                self.track.to_string(),
                name,
                vec![
                    ("addr", addr.into()),
                    ("bytes", len.into()),
                    ("p2p", u64::from(p2p).into()),
                ],
            );
        }
    }

    /// Duration a non-posted read of `len` bytes would take right now,
    /// ignoring link contention (used by processor cost models).
    pub fn read_cost(&self, len: u64) -> Time {
        self.cfg.read_rtt + self.cfg.wire_time(len, self.cfg.dma_bw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;
    use tc_desim::time::{ns, to_ns_f64};
    use tc_mem::{layout, SparseMem};

    fn setup() -> (Sim, Bus, crate::Pcie) {
        let sim = Sim::new();
        let bus = Bus::new();
        bus.add_ram(
            Rc::new(SparseMem::new(layout::host_dram(0), 1 << 24)),
            RegionKind::HostDram { node: 0 },
        );
        bus.add_ram(
            Rc::new(SparseMem::new(layout::gpu_dram(0), 1 << 24)),
            RegionKind::GpuDram { node: 0 },
        );
        bus.add_alias(
            layout::gpu_bar(0),
            1 << 24,
            layout::gpu_dram(0),
            RegionKind::GpuBar { node: 0 },
        );
        let pcie = crate::Pcie::new(sim.clone(), bus.clone(), PcieConfig::gen2_x8());
        (sim, bus, pcie)
    }

    #[test]
    fn posted_write_is_cheap_for_issuer_but_delivered_later() {
        let (sim, bus, pcie) = setup();
        let ep = pcie.endpoint("gpu");
        let issue_done = Rc::new(Cell::new(0u64));
        let id = issue_done.clone();
        let h = sim.clone();
        let b = bus.clone();
        sim.spawn("writer", async move {
            ep.posted_write(layout::host_dram(0), vec![7u8; 8]).await;
            id.set(h.now());
            // Not yet visible (wire latency is 300ns, issue cost 40ns).
            assert_eq!(b.read_u64(layout::host_dram(0)), 0);
        });
        let end = sim.run();
        assert_eq!(issue_done.get(), ns(40));
        assert_eq!(bus.read_u64(layout::host_dram(0)), 0x0707_0707_0707_0707);
        assert!(end >= ns(300));
    }

    #[test]
    fn posted_writes_deliver_in_order() {
        let (sim, bus, pcie) = setup();
        let ep = pcie.endpoint("gpu");
        let b = bus.clone();
        let final_val = Rc::new(Cell::new(0u64));
        let fv = final_val.clone();
        sim.spawn("writer", async move {
            for i in 1..=5u64 {
                ep.posted_write(layout::host_dram(0), i.to_le_bytes().to_vec())
                    .await;
            }
        });
        let h = sim.clone();
        sim.spawn("checker", async move {
            h.delay(ns(10_000)).await;
            fv.set(b.read_u64(layout::host_dram(0)));
        });
        sim.run();
        assert_eq!(final_val.get(), 5);
    }

    #[test]
    fn read_stalls_full_round_trip() {
        let (sim, bus, pcie) = setup();
        bus.write_u64(layout::host_dram(0) + 64, 99);
        let ep = pcie.endpoint("gpu");
        let h = sim.clone();
        sim.spawn("reader", async move {
            let v = ep.read_u64(layout::host_dram(0) + 64).await;
            assert_eq!(v, 99);
            assert!(h.now() >= ns(650), "read returned too early: {}", h.now());
        });
        sim.run();
    }

    #[test]
    fn dma_read_from_gpu_bar_counts_p2p_and_reads_data() {
        let (sim, bus, pcie) = setup();
        bus.write(layout::gpu_dram(0), &[0xAB; 4096]);
        let ep = pcie.endpoint("nic");
        sim.spawn("dma", async move {
            let data = ep.dma_read(layout::gpu_bar(0), 4096).await;
            assert!(data.to_vec().iter().all(|&b| b == 0xAB));
        });
        sim.run();
        assert_eq!(pcie.stats().p2p_reads.get(), 1);
        assert_eq!(pcie.stats().dma_read_bytes.get(), 4096);
    }

    #[test]
    fn p2p_large_read_slower_than_host_read() {
        let (sim, _bus, pcie) = setup();
        let ep = pcie.endpoint("nic");
        let host_t = Rc::new(Cell::new(0u64));
        let p2p_t = Rc::new(Cell::new(0u64));
        let (ht, pt) = (host_t.clone(), p2p_t.clone());
        let h = sim.clone();
        sim.spawn("dma", async move {
            let t0 = h.now();
            ep.dma_read(layout::host_dram(0), 4 << 20).await;
            ht.set(h.now() - t0);
            let t1 = h.now();
            ep.dma_read(layout::gpu_bar(0), 4 << 20).await;
            pt.set(h.now() - t1);
        });
        sim.run();
        assert!(
            to_ns_f64(p2p_t.get()) > 2.0 * to_ns_f64(host_t.get()),
            "p2p {} vs host {}",
            p2p_t.get(),
            host_t.get()
        );
    }

    #[test]
    fn latency_histograms_and_inflight_gauge_track_traffic() {
        let (sim, bus, pcie) = setup();
        bus.write_u64(layout::host_dram(0), 7);
        let ep = pcie.endpoint("nic");
        sim.spawn("io", async move {
            let _ = ep.read_u64(layout::host_dram(0)).await;
            ep.posted_write(layout::host_dram(0) + 64, vec![1u8; 8])
                .await;
            let data = ep.dma_read(layout::host_dram(0), 4096).await;
            ep.dma_write(layout::host_dram(0), &data).await;
        });
        sim.run();
        let s = pcie.stats();
        assert_eq!(s.np_read_ps.count(), 1);
        assert!(s.np_read_ps.max() >= ns(650));
        assert_eq!(s.mmio_write_ps.count(), 1);
        assert_eq!(s.dma_read_ps.count(), 1);
        assert_eq!(s.dma_write_ps.count(), 1);
        assert_eq!(s.dma_in_flight.get(), 0);
        assert_eq!(s.dma_in_flight.high_water(), 1);
        // The registry sees the same cells as the typed view.
        let snap = sim.registry().snapshot();
        assert_eq!(snap.histogram("pcie0.dma_read_ps").unwrap().count, 1);
        assert_eq!(snap.gauge("pcie0.dma_in_flight").unwrap().high_water, 1);
    }

    #[test]
    fn separate_endpoints_do_not_contend() {
        let (sim, _bus, pcie) = setup();
        let a = pcie.endpoint("a");
        let b = pcie.endpoint("b");
        let ta = Rc::new(Cell::new(0u64));
        let tb = Rc::new(Cell::new(0u64));
        for (ep, t) in [(a, ta.clone()), (b, tb.clone())] {
            let h = sim.clone();
            let name = ep.name().to_string();
            sim.spawn(&name, async move {
                ep.dma_read(layout::host_dram(0), 1 << 20).await;
                t.set(h.now());
            });
        }
        sim.run();
        // Both finish at the same time: private upstream links.
        assert_eq!(ta.get(), tb.get());
    }
}
