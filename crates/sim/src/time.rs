//! Simulated time, durations, CPU cycles and frequencies.
//!
//! All simulation time is kept in integer nanoseconds since simulated
//! boot. CPU work is kept in integer cycles. Conversions between the two
//! go through a [`Freq`] and round *up* for time (work never finishes
//! early) and *down* for cycles (a partial cycle does no work). Keeping
//! both domains integral makes runs exactly reproducible across
//! platforms, which the determinism tests rely on.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// An instant in simulated time, in nanoseconds since simulated boot.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

/// A count of CPU cycles.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(u64);

/// A frequency in Hertz (events per simulated second, or cycles per
/// second when describing a CPU clock).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Freq(u64);

pub const NANOS_PER_SEC: u64 = 1_000_000_000;
pub const NANOS_PER_MILLI: u64 = 1_000_000;
pub const NANOS_PER_MICRO: u64 = 1_000;

impl SimTime {
    /// The simulated boot instant.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; used as a sentinel for "never".
    pub const NEVER: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds since boot.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from whole microseconds since boot.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * NANOS_PER_MICRO)
    }

    /// Construct from whole milliseconds since boot.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * NANOS_PER_MILLI)
    }

    /// Construct from whole seconds since boot.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * NANOS_PER_SEC)
    }

    /// Raw nanoseconds since boot.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since boot as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Time elapsed since `earlier`. Panics in debug builds if `earlier`
    /// is in the future.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(self >= earlier, "SimTime::since: earlier is in the future");
        SimDuration(self.0 - earlier.0)
    }

    /// Saturating difference: zero if `other` is in the future.
    #[inline]
    pub fn saturating_since(self, other: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Checked add that saturates at [`SimTime::NEVER`].
    #[inline]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// Round this instant *up* to the next multiple of `granule`
    /// (used by jiffy-granular guest timers).
    #[inline]
    pub fn round_up(self, granule: SimDuration) -> SimTime {
        assert!(granule.0 > 0, "round_up: zero granule");
        let rem = self.0 % granule.0;
        if rem == 0 {
            self
        } else {
            SimTime(self.0 + (granule.0 - rem))
        }
    }

    /// Round this instant *down* to a multiple of `granule`.
    #[inline]
    pub fn round_down(self, granule: SimDuration) -> SimTime {
        assert!(granule.0 > 0, "round_down: zero granule");
        SimTime(self.0 - self.0 % granule.0)
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);
    /// Sentinel for an unbounded duration.
    pub const FOREVER: SimDuration = SimDuration(u64::MAX);

    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * NANOS_PER_MICRO)
    }

    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * NANOS_PER_MILLI)
    }

    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * NANOS_PER_SEC)
    }

    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    #[inline]
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Scale by a float factor, rounding to nearest nanosecond.
    /// Used for workload calibration multipliers; `f` must be finite and
    /// non-negative.
    #[inline]
    pub fn mul_f64(self, f: f64) -> SimDuration {
        assert!(f.is_finite() && f >= 0.0, "mul_f64: bad factor {f}");
        SimDuration((self.0 as f64 * f).round() as u64)
    }

    #[inline]
    pub fn min_of(self, other: SimDuration) -> SimDuration {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Cycles {
    pub const ZERO: Cycles = Cycles(0);

    #[inline]
    pub const fn new(c: u64) -> Self {
        Cycles(c)
    }

    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn saturating_sub(self, other: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(other.0))
    }
}

impl Freq {
    /// 1 Hz.
    pub const ONE_HZ: Freq = Freq(1);

    /// Construct from Hertz. Panics on zero (a zero frequency makes every
    /// conversion meaningless and indicates a configuration bug).
    #[inline]
    pub fn hz(hz: u64) -> Self {
        assert!(hz > 0, "Freq::hz: zero frequency");
        Freq(hz)
    }

    #[inline]
    pub fn khz(khz: u64) -> Self {
        Self::hz(khz * 1_000)
    }

    #[inline]
    pub fn mhz(mhz: u64) -> Self {
        Self::hz(mhz * 1_000_000)
    }

    #[inline]
    pub fn ghz(ghz: u64) -> Self {
        Self::hz(ghz * 1_000_000_000)
    }

    #[inline]
    pub const fn as_hz(self) -> u64 {
        self.0
    }

    /// The period of one cycle/event at this frequency, rounded up to at
    /// least one nanosecond so periodic processes always make progress.
    #[inline]
    pub fn period(self) -> SimDuration {
        SimDuration((NANOS_PER_SEC / self.0).max(1))
    }

    /// Time needed to retire `c` cycles at this frequency, rounded up
    /// (work never completes early). Saturates at `u64::MAX` ns.
    ///
    /// Exact without 128-bit division: with `c = q·f + r` and `r < f`,
    /// `⌈c·10⁹/f⌉ = q·10⁹ + ⌈r·10⁹/f⌉`, and `r·10⁹` fits in 64 bits for
    /// any clock up to ~18.4 GHz.
    #[inline]
    pub fn cycles_to_duration(self, c: Cycles) -> SimDuration {
        let f = self.0;
        let ns = match (c.0 % f).checked_mul(NANOS_PER_SEC) {
            Some(r_ns) => (c.0 / f)
                .checked_mul(NANOS_PER_SEC)
                .and_then(|q_ns| q_ns.checked_add(r_ns.div_ceil(f))),
            None => u64::try_from((c.0 as u128 * NANOS_PER_SEC as u128).div_ceil(f as u128)).ok(),
        };
        SimDuration(ns.unwrap_or(u64::MAX))
    }

    /// Cycles retired in `d` at this frequency, rounded down (a partial
    /// cycle does no useful work). Saturates at `u64::MAX` cycles.
    ///
    /// Exact without 128-bit division: with `d = q·10⁹ + r` and
    /// `r < 10⁹`, `⌊d·f/10⁹⌋ = q·f + ⌊r·f/10⁹⌋`, and `r·f` fits in 64
    /// bits for any clock up to ~18.4 GHz.
    #[inline]
    pub fn duration_to_cycles(self, d: SimDuration) -> Cycles {
        let f = self.0;
        let c = match (d.0 % NANOS_PER_SEC).checked_mul(f) {
            Some(r_f) => (d.0 / NANOS_PER_SEC)
                .checked_mul(f)
                .and_then(|q_f| q_f.checked_add(r_f / NANOS_PER_SEC)),
            None => u64::try_from(d.0 as u128 * f as u128 / NANOS_PER_SEC as u128).ok(),
        };
        Cycles(c.unwrap_or(u64::MAX))
    }
}

macro_rules! impl_display_ns {
    ($t:ty) => {
        impl fmt::Debug for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if self.0 == u64::MAX {
                    return write!(f, "{}(NEVER)", stringify!($t));
                }
                let ns = self.0;
                if ns >= NANOS_PER_SEC {
                    write!(f, "{:.6}s", ns as f64 / NANOS_PER_SEC as f64)
                } else if ns >= NANOS_PER_MILLI {
                    write!(f, "{:.3}ms", ns as f64 / NANOS_PER_MILLI as f64)
                } else if ns >= NANOS_PER_MICRO {
                    write!(f, "{:.3}us", ns as f64 / NANOS_PER_MICRO as f64)
                } else {
                    write!(f, "{}ns", ns)
                }
            }
        }
        impl fmt::Display for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Debug::fmt(self, f)
            }
        }
    };
}

impl_display_ns!(SimTime);
impl_display_ns!(SimDuration);

impl fmt::Debug for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cyc", self.0)
    }
}

impl fmt::Debug for Freq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(1_000_000_000) {
            write!(f, "{}GHz", self.0 / 1_000_000_000)
        } else if self.0.is_multiple_of(1_000_000) {
            write!(f, "{}MHz", self.0 / 1_000_000)
        } else if self.0.is_multiple_of(1_000) {
            write!(f, "{}kHz", self.0 / 1_000)
        } else {
            write!(f, "{}Hz", self.0)
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(d.0)
                .expect("SimTime overflow: duration too large"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(d.0)
                .expect("SimTime underflow: duration before boot"),
        )
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, other: SimTime) -> SimDuration {
        self.since(other)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(other.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, other: SimDuration) {
        *self = *self + other;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(other.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, other: SimDuration) {
        *self = *self - other;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(k).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl Div for SimDuration {
    type Output = u64;
    /// How many whole `other`-periods fit in `self`.
    #[inline]
    fn div(self, other: SimDuration) -> u64 {
        assert!(other.0 > 0, "SimDuration division by zero");
        self.0 / other.0
    }
}

impl Rem for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn rem(self, other: SimDuration) -> SimDuration {
        assert!(other.0 > 0, "SimDuration remainder by zero");
        SimDuration(self.0 % other.0)
    }
}

impl Add for Cycles {
    type Output = Cycles;
    #[inline]
    fn add(self, other: Cycles) -> Cycles {
        Cycles(self.0.checked_add(other.0).expect("Cycles overflow"))
    }
}

impl AddAssign for Cycles {
    #[inline]
    fn add_assign(&mut self, other: Cycles) {
        *self = *self + other;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    #[inline]
    fn sub(self, other: Cycles) -> Cycles {
        Cycles(self.0.checked_sub(other.0).expect("Cycles underflow"))
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn mul(self, k: u64) -> Cycles {
        Cycles(self.0.checked_mul(k).expect("Cycles overflow"))
    }
}

impl std::iter::Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, |a, b| a + b)
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

// --- persistence & content hashing -----------------------------------
//
// The newtypes serialize as their raw u64 so cache files stay compact
// and diffable; the stub serde derives above produce nothing usable.

use crate::hash::{StableHash, StableHasher};
use crate::json::{FromJson, Json, JsonError, ToJson};

macro_rules! impl_codec_newtype_u64 {
    ($t:ident) => {
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::U64(self.0)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                Ok($t(v.as_u64()?))
            }
        }
        impl StableHash for $t {
            fn stable_hash(&self, h: &mut StableHasher) {
                h.write_u64(self.0);
            }
        }
    };
}

impl_codec_newtype_u64!(SimTime);
impl_codec_newtype_u64!(SimDuration);
impl_codec_newtype_u64!(Cycles);

impl ToJson for Freq {
    fn to_json(&self) -> Json {
        Json::U64(self.0)
    }
}

impl FromJson for Freq {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let hz = v.as_u64()?;
        if hz == 0 {
            return Err(JsonError::Decode {
                msg: "Freq of 0 Hz".into(),
            });
        }
        Ok(Freq(hz))
    }
}

impl StableHash for Freq {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propcheck::prelude::*;

    #[test]
    fn construction_and_accessors() {
        assert_eq!(SimTime::from_secs(2).as_nanos(), 2 * NANOS_PER_SEC);
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3 * NANOS_PER_MILLI);
        assert_eq!(SimTime::from_micros(4).as_nanos(), 4 * NANOS_PER_MICRO);
        assert_eq!(SimDuration::from_secs(1).as_nanos(), NANOS_PER_SEC);
        assert_eq!(SimTime::ZERO.as_nanos(), 0);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_millis(10);
        let d = SimDuration::from_millis(5);
        assert_eq!((t + d).as_nanos(), 15 * NANOS_PER_MILLI);
        assert_eq!((t - d).as_nanos(), 5 * NANOS_PER_MILLI);
        assert_eq!((t + d) - t, d);
        assert_eq!(t.since(SimTime::ZERO), SimDuration::from_millis(10));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn time_underflow_panics() {
        let _ = SimTime::from_nanos(1) - SimDuration::from_nanos(2);
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            SimTime::from_nanos(1).saturating_since(SimTime::from_nanos(5)),
            SimDuration::ZERO
        );
        assert_eq!(
            SimTime::NEVER.saturating_add(SimDuration::from_secs(1)),
            SimTime::NEVER
        );
        assert_eq!(
            SimDuration::from_nanos(3).saturating_sub(SimDuration::from_nanos(10)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn rounding() {
        let g = SimDuration::from_millis(4);
        assert_eq!(SimTime::from_millis(4).round_up(g), SimTime::from_millis(4));
        assert_eq!(SimTime::from_millis(5).round_up(g), SimTime::from_millis(8));
        assert_eq!(
            SimTime::from_millis(5).round_down(g),
            SimTime::from_millis(4)
        );
    }

    #[test]
    fn freq_period() {
        assert_eq!(Freq::hz(250).period(), SimDuration::from_millis(4));
        assert_eq!(Freq::hz(1000).period(), SimDuration::from_millis(1));
        // Higher than 1 GHz periods clamp to 1 ns so progress is made.
        assert_eq!(Freq::ghz(3).period(), SimDuration::from_nanos(1));
    }

    #[test]
    fn cycles_duration_roundtrip() {
        let f = Freq::ghz(2); // 2 cycles per ns
        assert_eq!(
            f.cycles_to_duration(Cycles::new(2_000_000)),
            SimDuration::from_millis(1)
        );
        assert_eq!(
            f.duration_to_cycles(SimDuration::from_millis(1)),
            Cycles::new(2_000_000)
        );
        // Rounding: 3 cycles at 2 GHz takes 2 ns (1.5 rounded up).
        assert_eq!(
            f.cycles_to_duration(Cycles::new(3)),
            SimDuration::from_nanos(2)
        );
        // 1 ns at 2.5GHz = 2.5 cycles -> 2 (rounded down).
        let f2 = Freq::hz(2_500_000_000);
        assert_eq!(
            f2.duration_to_cycles(SimDuration::from_nanos(1)),
            Cycles::new(2)
        );
    }

    #[test]
    fn cycles_conversion_no_overflow_large() {
        let f = Freq::ghz(3);
        let big = Cycles::new(u64::MAX / 2);
        // Must not panic.
        let d = f.cycles_to_duration(big);
        assert!(d.as_nanos() > 0);
    }

    /// The 128-bit formulas the 64-bit conversions must reproduce.
    fn cycles_to_ns_reference(f: u64, c: u64) -> u64 {
        let ns = (c as u128 * NANOS_PER_SEC as u128).div_ceil(f as u128);
        u64::try_from(ns).unwrap_or(u64::MAX)
    }

    fn ns_to_cycles_reference(f: u64, d: u64) -> u64 {
        let c = d as u128 * f as u128 / NANOS_PER_SEC as u128;
        u64::try_from(c).unwrap_or(u64::MAX)
    }

    #[test]
    fn conversions_saturate_and_handle_extreme_clocks() {
        // 18_446_744_073 Hz is the last clock whose remainder products
        // fit in 64 bits; the next one takes the 128-bit path.
        let clocks = [1, 999_999_999, NANOS_PER_SEC, 2_500_000_000, 18_446_744_073, 18_446_744_074];
        let values = [0, 1, NANOS_PER_SEC - 1, 7_400_000_000, u64::MAX / 3, u64::MAX];
        for f in clocks.into_iter().chain([u64::MAX]) {
            let fr = Freq::hz(f);
            for v in values {
                let (c2d, d2c) = (cycles_to_ns_reference(f, v), ns_to_cycles_reference(f, v));
                assert_eq!(fr.cycles_to_duration(Cycles(v)).0, c2d, "f={f} c={v}");
                assert_eq!(fr.duration_to_cycles(SimDuration(v)).0, d2c, "f={f} d={v}");
            }
        }
        let saturated = Freq::ghz(10).duration_to_cycles(SimDuration(u64::MAX));
        assert_eq!(saturated.0, u64::MAX);
        assert_eq!(Freq::hz(1).cycles_to_duration(Cycles(u64::MAX)).0, u64::MAX);
    }

    /// Values spread over every magnitude, so both small counts and the
    /// saturating range are drawn.
    fn magnitude() -> impl Strategy<Value = u64> {
        (0u32..64, any::<u64>()).prop_map(|(bits, x)| x >> bits)
    }

    propcheck! {
        /// `cycles_to_duration` and `duration_to_cycles` equal the 128-bit
        /// reference for clocks from 1 Hz to 10 GHz, durations past the
        /// 7.4 s point where `d·f` leaves 64 bits at 2.5 GHz, and values
        /// up to saturation.
        fn prop_conversions_match_u128_reference(
            f in prop_oneof![1u64..=10_000_000_000, 1u64..=10_000, Just(2_500_000_000u64)],
            v in prop_oneof![magnitude(), 7_000_000_000u64..20_000_000_000],
        ) {
            let fr = Freq::hz(f);
            prop_assert_eq!(fr.cycles_to_duration(Cycles(v)).0, cycles_to_ns_reference(f, v));
            prop_assert_eq!(fr.duration_to_cycles(SimDuration(v)).0, ns_to_cycles_reference(f, v));
        }
    }

    #[test]
    fn duration_division() {
        let tick = SimDuration::from_millis(4);
        assert_eq!(SimDuration::from_secs(1) / tick, 250);
        assert_eq!(
            SimDuration::from_millis(10) % tick,
            SimDuration::from_millis(2)
        );
    }

    #[test]
    fn mul_f64_rounds() {
        let d = SimDuration::from_nanos(100);
        assert_eq!(d.mul_f64(1.5), SimDuration::from_nanos(150));
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
        assert_eq!(d.mul_f64(0.004), SimDuration::ZERO); // 0.4ns rounds to 0
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000000s");
        assert_eq!(format!("{}", SimDuration::from_millis(3)), "3.000ms");
        assert_eq!(format!("{}", SimDuration::from_nanos(7)), "7ns");
        assert_eq!(format!("{:?}", Freq::ghz(2)), "2GHz");
        assert_eq!(format!("{:?}", Freq::hz(250)), "250Hz");
        assert_eq!(format!("{}", SimTime::NEVER), "SimTime(NEVER)");
    }

    #[test]
    fn ordering_and_sum() {
        assert!(SimTime::from_nanos(1) < SimTime::from_nanos(2));
        assert!(SimTime::NEVER > SimTime::from_secs(1_000_000));
        let total: Cycles = [Cycles::new(1), Cycles::new(2), Cycles::new(3)]
            .into_iter()
            .sum();
        assert_eq!(total, Cycles::new(6));
        let total: SimDuration = [SimDuration::from_nanos(5), SimDuration::from_nanos(7)]
            .into_iter()
            .sum();
        assert_eq!(total, SimDuration::from_nanos(12));
    }
}
