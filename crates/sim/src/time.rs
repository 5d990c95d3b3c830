//! Virtual time: instants and durations with nanosecond resolution.
//!
//! Integer nanoseconds keep simulations exactly reproducible across
//! platforms (no floating-point accumulation drift), while convenience
//! accessors expose milliseconds — the unit of every figure in the
//! paper.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

use serde::{Deserialize, Serialize};

/// A point in virtual time (nanoseconds since simulation start).
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SimTime(u64);

/// A span of virtual time (nanoseconds).
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Duration(u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Milliseconds since simulation start (the paper's unit), as `f64`.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Time elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self` (a simulation causality
    /// bug).
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since: earlier is in the future"),
        )
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Constructs from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Duration(ns)
    }

    /// Constructs from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Duration(us * 1_000)
    }

    /// Constructs from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }

    /// Constructs from fractional milliseconds (rounds to nanoseconds).
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite input.
    pub fn from_millis_f64(ms: f64) -> Self {
        assert!(
            ms.is_finite() && ms >= 0.0,
            "duration must be >= 0, got {ms}"
        );
        Duration((ms * 1_000_000.0).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Milliseconds as `f64`.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;

    /// Saturating multiplication by an integer count.
    fn mul(self, n: u64) -> Duration {
        Duration(self.0.saturating_mul(n))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;

    fn add(self, d: Duration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, d: Duration) {
        self.0 += d.0;
    }
}

impl Add for Duration {
    type Output = Duration;

    fn add(self, d: Duration) -> Duration {
        Duration(self.0 + d.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, d: Duration) {
        self.0 += d.0;
    }
}

impl Sub for Duration {
    type Output = Duration;

    /// # Panics
    ///
    /// Panics on underflow.
    fn sub(self, d: Duration) -> Duration {
        Duration(
            self.0
                .checked_sub(d.0)
                .expect("Duration subtraction underflow"),
        )
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_units() {
        assert_eq!(Duration::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(Duration::from_micros(5).as_nanos(), 5_000);
        assert_eq!(Duration::from_millis_f64(1.5).as_nanos(), 1_500_000);
        assert_eq!(Duration::from_millis_f64(0.0), Duration::ZERO);
        assert!((Duration::from_millis(3).as_millis_f64() - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = ">= 0")]
    fn negative_duration_panics() {
        Duration::from_millis_f64(-1.0);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + Duration::from_millis(10);
        assert_eq!(t.as_nanos(), 10_000_000);
        let later = t + Duration::from_millis(5);
        assert_eq!(later.since(t), Duration::from_millis(5));
        assert_eq!(t.max(later), later);
        let mut acc = SimTime::ZERO;
        acc += Duration::from_millis(1);
        assert_eq!(acc.as_millis_f64(), 1.0);
    }

    #[test]
    #[should_panic(expected = "in the future")]
    fn since_rejects_reversed_order() {
        SimTime::ZERO.since(SimTime::from_nanos(1));
    }

    #[test]
    fn duration_ops() {
        let d = Duration::from_millis(4) - Duration::from_millis(1);
        assert_eq!(d, Duration::from_millis(3));
        assert_eq!(Duration::from_millis(2) * 10, Duration::from_millis(20));
        let mut acc = Duration::ZERO;
        acc += Duration::from_millis(7);
        assert_eq!(acc, Duration::from_millis(7));
    }

    #[test]
    fn display_in_milliseconds() {
        assert_eq!(format!("{}", Duration::from_micros(1500)), "1.500ms");
        assert_eq!(format!("{:?}", SimTime::from_nanos(2_000_000)), "t=2.000ms");
    }
}
