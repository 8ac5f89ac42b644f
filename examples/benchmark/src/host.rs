//! Host-side measurement helpers: `/proc` readers, order statistics and
//! the FNV-1a digest of simulated outcomes.

/// Linux reports `/proc/<pid>/stat` CPU times in `USER_HZ` ticks, which
/// the kernel fixes at 100 per second for user space on every mainstream
/// architecture.
const TICKS_PER_S: f64 = 100.0;

/// CPU ticks from the text of `/proc/<pid>/stat`:
/// `(utime + stime, cutime + cstime)`, i.e. this process's own time and
/// the time of its reaped children.
pub fn parse_stat_ticks(stat: &str) -> Option<(u64, u64)> {
    // The command name (field 2) may hold spaces and parentheses, so
    // count fields from the last ')'. Field 3 (state) is index 0 there.
    let rest = &stat[stat.rfind(')')? + 1..];
    // Some fields (tpgid) may be -1.
    let f: Vec<i64> = rest
        .split_whitespace()
        .skip(1)
        .take(14)
        .map(|s| s.parse().ok())
        .collect::<Option<_>>()?;
    // Fields 14..=17 (utime, stime, cutime, cstime) sit at 10..=13 after
    // skipping the state field.
    let ticks = |a: i64, b: i64| u64::try_from(a + b).ok();
    if f.len() == 14 {
        Some((ticks(f[10], f[11])?, ticks(f[12], f[13])?))
    } else {
        None
    }
}

/// `(own, reaped children)` CPU seconds of this process so far.
pub fn cpu_seconds() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    let (own, children) = parse_stat_ticks(&stat).expect("/proc/self/stat has the Linux layout");
    (own as f64 / TICKS_PER_S, children as f64 / TICKS_PER_S)
}

/// `VmHWM` (peak resident set) in KiB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line["VmHWM:".len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident set of process `pid` (`"self"` for this one) in MiB, or
/// `None` once the process has exited.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

/// Seconds [`calibrate`] takes on the reference host: the 2-vCPU Xeon VM
/// the baseline was measured on, when no neighbour is busy.
pub const CALIBRATION_REF_S: f64 = 0.028;

/// Time a fixed piece of host work that no change to the simulator can
/// touch: a binary-heap event loop with random updates over 1 MiB, the
/// mix of branches, heap operations and cache misses a DES kernel runs.
/// On a shared host, neighbours slow everything down together for
/// minutes at a time; this time, over [`CALIBRATION_REF_S`], is how much
/// slower the host runs right now.
pub fn calibrate() -> f64 {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let start = std::time::Instant::now();
    let mut table = vec![0u64; 1 << 17];
    let mut heap = BinaryHeap::with_capacity(8192);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for id in 0..8192u64 {
        heap.push(Reverse((next() & 0xffff, id)));
    }
    for _ in 0..300_000 {
        let Reverse((at, id)) = heap.pop().expect("the heap never empties");
        let r = next();
        let slot = r as usize & (table.len() - 1);
        table[slot] = table[slot].wrapping_add(at ^ id);
        heap.push(Reverse((at + (r & 1023), id)));
    }
    std::hint::black_box(table.iter().fold(0u64, |a, b| a.wrapping_add(*b)));
    start.elapsed().as_secs_f64()
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First, second and third quartile, computed like Python's
/// `statistics.quantiles(v, n=4)` (the default "exclusive" method), so
/// spreads here match the ones the acceptance check computes.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    assert!(v.len() >= 2, "quartiles need at least two samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let (ld, m, n) = (s.len() as i64, s.len() as i64 + 1, 4i64);
    let mut q = [0.0; 3];
    for (i, out) in (1..n).zip(q.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        // May be negative once `j` is clamped, exactly as in Python.
        let delta = (i * m - j * n) as f64;
        let (lo, hi) = (s[j as usize - 1], s[j as usize]);
        *out = (lo * (n as f64 - delta) + hi * delta) / n as f64;
    }
    q
}

/// Nearest-rank percentile (`p` in 0..=100) of integer samples.
pub fn percentile(v: &[u64], p: f64) -> u64 {
    assert!(!v.is_empty(), "percentile of no samples");
    let mut s = v.to_vec();
    s.sort_unstable();
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// 64-bit FNV-1a, folded over every simulated outcome of a run. A change
/// that only makes the simulator faster must leave it unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_handles_parentheses_in_the_command_name() {
        // Fields 14..=17 are 250 utime, 40 stime, 7 cutime, 3 cstime.
        // tpgid (field 8) is -1 for a process without a terminal.
        let stat = "4242 (odd) name)) S 1 4242 4242 0 -1 4194560 500 0 0 0 \
                    250 40 7 3 20 0 3 0 100 1000000 300 18446744073709551615";
        assert_eq!(parse_stat_ticks(stat), Some((290, 10)));
        assert_eq!(parse_stat_ticks("garbage"), None);
        assert_eq!(parse_stat_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn live_proc_files_parse() {
        let (own, children) = cpu_seconds();
        assert!(own >= 0.0 && children >= 0.0);
        assert!(peak_rss_mib("self").unwrap() > 0.0);
    }

    #[test]
    fn vm_hwm_parsing() {
        let status = "Name:\tbenchmark\nVmPeak:\t  123456 kB\nVmHWM:\t   65536 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(65536));
        assert_eq!(parse_vm_hwm_kib("Name:\tzombie\n"), None);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([5, 1, 4], n=4) == [1.0, 4.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0]), [1.0, 4.0, 5.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let (mut a, mut b) = (Fnv::default(), Fnv::default());
        a.u64(1);
        a.u64(2);
        b.u64(2);
        b.u64(1);
        assert_ne!(a, b);
        let mut e = Fnv::default();
        e.bytes(b"");
        assert_eq!(e.0, 0xcbf2_9ce4_8422_2325);
    }
}
