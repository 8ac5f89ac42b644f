//! What one repetition of an in-process workload hands back, and the
//! helpers every workload shares.

use std::cell::Cell;
use std::collections::BTreeMap;

use tc_putget::Cluster;
use tc_trace::rng::XorShift64;

use crate::span::{timed, Layer};

/// How a repetition runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Bare processors and no spans: what the end-to-end metrics measure.
    Untraced,
    /// Every call the benchmark makes into a layer wrapped in a span.
    Traced,
    /// Set-up only, stopping before the first `Sim::run`: extra set-up
    /// samples at little cost.
    SetupOnly,
}

/// Correctness checks: every payload, reply and sum the benchmark
/// verifies counts once.
#[derive(Default)]
pub struct Checks {
    attempted: Cell<u64>,
    failed: Cell<u64>,
}

impl Checks {
    /// Record one check; report the first few failures on stderr.
    pub fn check(&self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted.set(self.attempted.get() + 1);
        if !ok {
            self.failed.set(self.failed.get() + 1);
            if self.failed.get() <= 10 {
                eprintln!("check failed: {}", what());
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.get()
    }

    pub fn failed(&self) -> u64 {
        self.failed.get()
    }
}

/// One repetition of an in-process workload.
#[derive(Default)]
pub struct Rep {
    /// Host seconds from the start of the repetition to its first
    /// `Sim::run`.
    pub setup_s: f64,
    /// Simulated operations completed.
    pub ops: u64,
    /// Simulated time summed over the repetition's clusters, in µs.
    pub sim_time_us: f64,
    /// Exact simulated outcomes: `(name, value, unit)`.
    pub outcomes: Vec<(String, f64, &'static str)>,
    /// Named host-side measurements (phase times, runner statistics):
    /// `(name, value, unit)`. Not part of the digest.
    pub host: Vec<(String, f64, &'static str)>,
    /// Registry counter deltas over the runs, summed over nodes.
    pub counters: BTreeMap<String, u64>,
    /// Per-operation simulated results (latencies, sums) for the digest.
    pub trail: crate::host::Fnv,
}

impl Rep {
    /// Add the counters `c` moved since `before` (taken after set-up).
    pub fn add_counters(&mut self, c: &Cluster, before: &tc_trace::Snapshot) {
        let delta = c.sim.registry().snapshot().delta(before);
        add_node_free(&mut self.counters, delta.iter());
    }
}

/// Sum counters over nodes: `gpu17.l2.read_hits` adds to
/// `gpu.l2.read_hits`.
pub fn add_node_free<'a>(
    into: &mut BTreeMap<String, u64>,
    counters: impl Iterator<Item = (&'a str, u64)>,
) {
    for (name, v) in counters {
        let (head, tail) = name.split_once('.').unwrap_or((name, ""));
        let head = head.trim_end_matches(|c: char| c.is_ascii_digit());
        *into.entry(format!("{head}.{tail}")).or_default() += v;
    }
}

/// An independent generator per `(seed, stream)`. The seed is mixed
/// (splitmix64) first, so neighbouring seeds give unrelated streams.
pub fn rng(seed: u64, stream: u64) -> XorShift64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    XorShift64::new(z ^ (z >> 31))
}

/// A payload size, log-uniform over `[4 B, 4 KiB)`: a uniform octave,
/// then a uniform size within it.
pub fn payload_len(r: &mut XorShift64) -> u32 {
    let octave = r.range(2, 12);
    ((1 << octave) + r.below(1 << octave)) as u32
}

/// Seeded payload bytes.
pub fn payload(r: &mut XorShift64, len: u32) -> Vec<u8> {
    let mut v = vec![0u8; len as usize];
    r.fill_bytes(&mut v);
    v
}

/// Read `want.len()` bytes at `addr` through the bus and compare.
pub fn verify(bus: &tc_mem::Bus, addr: tc_mem::Addr, want: &[u8]) -> bool {
    timed(Layer::Mem, "verify", || {
        let mut got = vec![0u8; want.len()];
        bus.read(addr, &mut got);
        got == want
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_over_nodes() {
        let mut m = BTreeMap::new();
        let snap = [
            ("gpu0.l2.read_hits", 2),
            ("gpu13.l2.read_hits", 3),
            ("msg0.rts", 1),
        ];
        add_node_free(&mut m, snap.into_iter());
        assert_eq!(m["gpu.l2.read_hits"], 5);
        assert_eq!(m["msg.rts"], 1);
    }

    #[test]
    fn payload_sizes_stay_in_range_and_follow_the_seed() {
        let draw = |seed| {
            let mut r = rng(seed, 1);
            (0..2000).map(|_| payload_len(&mut r)).collect::<Vec<_>>()
        };
        let a = draw(1);
        assert!(a.iter().all(|&n| (4..4096).contains(&n)));
        assert!(a.iter().any(|&n| n < 8) && a.iter().any(|&n| n >= 2048));
        assert_eq!(a, draw(1));
        assert_ne!(a, draw(2));
    }
}
