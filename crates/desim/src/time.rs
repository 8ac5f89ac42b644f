//! Simulated time.
//!
//! All simulation time is expressed in **picoseconds** as a plain `u64`
//! ([`Time`]). Picoseconds give exact representations of all clocks in the
//! modelled system (GPU core ~0.7 GHz, EXTOLL FPGA 157 MHz, PCIe byte times)
//! while still covering ~213 days of virtual time, far beyond any experiment
//! in the paper.

/// Simulated time or duration, in picoseconds.
pub type Time = u64;

/// One picosecond.
pub const PS: Time = 1;
/// One nanosecond in picoseconds.
pub const NS: Time = 1_000;
/// One microsecond in picoseconds.
pub const US: Time = 1_000_000;
/// One millisecond in picoseconds.
pub const MS: Time = 1_000_000_000;
/// One second in picoseconds.
pub const SEC: Time = 1_000_000_000_000;

/// `n` picoseconds.
#[inline]
pub const fn ps(n: u64) -> Time {
    n
}

/// `n` nanoseconds.
#[inline]
pub const fn ns(n: u64) -> Time {
    n * NS
}

/// `n` microseconds.
#[inline]
pub const fn us(n: u64) -> Time {
    n * US
}

/// `n` milliseconds.
#[inline]
pub const fn ms(n: u64) -> Time {
    n * MS
}

/// Convert a duration in picoseconds to fractional nanoseconds.
#[inline]
pub fn to_ns_f64(t: Time) -> f64 {
    t as f64 / NS as f64
}

/// Convert a duration in picoseconds to fractional microseconds.
#[inline]
pub fn to_us_f64(t: Time) -> f64 {
    t as f64 / US as f64
}

/// Convert a duration in picoseconds to fractional seconds.
#[inline]
pub fn to_sec_f64(t: Time) -> f64 {
    t as f64 / SEC as f64
}

/// A clock frequency; converts cycle counts to durations exactly.
///
/// ```
/// use tc_desim::time::Freq;
/// let extoll = Freq::mhz(157);
/// // one cycle of a 157 MHz clock is ~6369 ps
/// assert_eq!(extoll.cycles(1), 6_369);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Freq {
    hz: u64,
}

impl Freq {
    /// A frequency of `hz` Hertz. Panics if zero.
    pub const fn hz(hz: u64) -> Self {
        assert!(hz > 0, "frequency must be non-zero");
        Freq { hz }
    }

    /// A frequency of `mhz` MHz.
    pub const fn mhz(mhz: u64) -> Self {
        Self::hz(mhz * 1_000_000)
    }

    /// A frequency of `ghz` GHz.
    pub const fn ghz(ghz: u64) -> Self {
        Self::hz(ghz * 1_000_000_000)
    }

    /// Duration of `n` cycles, rounded to the nearest picosecond.
    ///
    /// Uses 128-bit intermediates, so it is exact for any realistic `n`.
    #[inline]
    pub const fn cycles(self, n: u64) -> Time {
        (((n as u128) * (SEC as u128) + (self.hz as u128) / 2) / (self.hz as u128)) as Time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_helpers_compose() {
        assert_eq!(ns(1), 1_000);
        assert_eq!(us(1), 1_000 * ns(1));
        assert_eq!(ms(1), 1_000 * us(1));
        assert_eq!(SEC, 1_000 * MS);
        assert_eq!(ps(17), 17);
    }

    #[test]
    fn freq_cycles_exact_for_round_clocks() {
        let ghz1 = Freq::ghz(1);
        assert_eq!(ghz1.cycles(1), NS);
        assert_eq!(ghz1.cycles(1000), US);
        let mhz500 = Freq::mhz(500);
        assert_eq!(mhz500.cycles(1), 2 * NS);
    }

    #[test]
    fn freq_cycles_rounds_to_nearest() {
        let f = Freq::mhz(157);
        // 1/157MHz = 6369.426... ps
        assert_eq!(f.cycles(1), 6_369);
        // 157 cycles of 157MHz is exactly 1 us
        assert_eq!(f.cycles(157), US);
    }

    #[test]
    fn conversions_to_float() {
        assert_eq!(to_ns_f64(ns(3)), 3.0);
        assert_eq!(to_us_f64(us(7)), 7.0);
        assert_eq!(to_sec_f64(SEC), 1.0);
    }
}
