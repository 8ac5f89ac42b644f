//! A minimal wall-clock benchmark harness, used by the DES-kernel
//! microbenchmarks behind `reproduce --bench-desim` (the workspace builds
//! offline with no external crates, so criterion is not available). A
//! group times closures over a fixed sample count after one warm-up call
//! and prints a min/median/max row per closure.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// One benchmark group: times closures and prints a min/median/max table.
pub struct Harness {
    group: String,
    samples: u32,
    header_printed: bool,
}

impl Harness {
    /// Create a group named `group` that times each closure `samples`
    /// times.
    pub fn new(group: &str, samples: u32) -> Self {
        assert!(samples > 0, "a benchmark needs at least one sample");
        Harness {
            group: group.to_string(),
            samples,
            header_printed: false,
        }
    }

    /// The sample count this group times each closure with.
    pub fn samples(&self) -> u32 {
        self.samples
    }

    fn print_header(&mut self) {
        if !self.header_printed {
            println!(
                "{:44} {:>12} {:>12} {:>12}  ({} samples)",
                "benchmark", "min", "median", "max", self.samples
            );
            self.header_printed = true;
        }
    }

    /// Print the `group/name  min median max` row of `times` and return
    /// the median in nanoseconds (at least 1).
    fn row(&self, name: &str, times: &mut [Duration]) -> u64 {
        times.sort();
        println!(
            "{:44} {:>12} {:>12} {:>12}",
            format!("{}/{}", self.group, name),
            fmt_duration(times[0]),
            fmt_duration(times[times.len() / 2]),
            fmt_duration(times[times.len() - 1]),
        );
        (times[times.len() / 2].as_nanos() as u64).max(1)
    }

    /// Time `f` over the group's sample count (after one warm-up call),
    /// print its row, and return the median wall-clock nanoseconds per run
    /// so callers can derive throughput figures.
    pub fn bench_median_ns<T, F: FnMut() -> T>(&mut self, name: &str, mut f: F) -> u64 {
        self.print_header();
        black_box(f());
        let mut times: Vec<Duration> = (0..self.samples)
            .map(|_| {
                let t0 = Instant::now();
                black_box(f());
                t0.elapsed()
            })
            .collect();
        self.row(name, &mut times)
    }

    /// Time two closures with *interleaved* samples — `a, b, a, b, …` —
    /// so load drift during the run biases both the same way. Prints one
    /// row per closure and returns both median nanoseconds. Use this when
    /// the ratio between the two timings is the result (e.g. the desim
    /// wheel-vs-heap suite).
    pub fn bench_pair_median_ns<A, B, FA, FB>(
        &mut self,
        name_a: &str,
        mut fa: FA,
        name_b: &str,
        mut fb: FB,
    ) -> (u64, u64)
    where
        FA: FnMut() -> A,
        FB: FnMut() -> B,
    {
        self.print_header();
        black_box(fa());
        black_box(fb());
        let mut times_a: Vec<Duration> = Vec::with_capacity(self.samples as usize);
        let mut times_b: Vec<Duration> = Vec::with_capacity(self.samples as usize);
        for _ in 0..self.samples {
            let t0 = Instant::now();
            black_box(fa());
            times_a.push(t0.elapsed());
            let t0 = Instant::now();
            black_box(fb());
            times_b.push(t0.elapsed());
        }
        (
            self.row(name_a, &mut times_a),
            self.row(name_b, &mut times_b),
        )
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3} s", d.as_secs_f64())
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_closure_and_prints() {
        let mut h = Harness::new("selftest", 3);
        let mut calls = 0u32;
        assert!(h.bench_median_ns("noop", || calls += 1) >= 1);
        // One warm-up plus `samples` timed runs.
        assert_eq!(calls, h.samples + 1);
    }

    #[test]
    fn durations_format_in_adaptive_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12.000 us");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.000 ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.000 s");
    }
}
