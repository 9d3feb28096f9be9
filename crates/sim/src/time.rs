//! Virtual time.
//!
//! [`SimTime`] is an instant on the simulation clock and [`SimDuration`] a
//! span between instants, both with millisecond resolution. Millisecond
//! granularity matches the paper's latency scale (hop latencies of tens of
//! milliseconds, protocol periods of minutes, traces spanning days) while
//! keeping arithmetic in `u64` exact — no floating-point clock drift.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

use serde::{Deserialize, Serialize};

/// An instant on the simulation clock (milliseconds since simulation
/// start).
///
/// # Examples
///
/// ```
/// use avmem_sim::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_secs(90);
/// assert_eq!(t.as_millis(), 90_000);
/// assert_eq!(t - SimTime::ZERO, SimDuration::from_secs(90));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulation time (milliseconds).
///
/// # Examples
///
/// ```
/// use avmem_sim::SimDuration;
///
/// assert_eq!(SimDuration::from_mins(20), SimDuration::from_secs(1200));
/// assert_eq!(SimDuration::from_days(7).as_millis(), 604_800_000);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; useful as a "run to completion" deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw milliseconds since the epoch.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Milliseconds since the epoch.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Duration elapsed since an earlier instant, saturating at zero.
    pub const fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000)
    }

    /// Creates a duration from minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60_000)
    }

    /// Creates a duration from hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3_600_000)
    }

    /// Creates a duration from days.
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days * 86_400_000)
    }

    /// The duration in milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// The duration in seconds, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Integer multiplication, e.g. `period * tick_index`.
    pub const fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }

    /// How many whole `self` periods fit in `span`.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero.
    pub const fn periods_in(self, span: SimDuration) -> u64 {
        assert!(self.0 > 0, "period must be positive");
        span.0 / self.0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    fn sub(self, rhs: SimTime) -> SimDuration {
        assert!(self.0 >= rhs.0, "time subtraction would underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}ms", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ms", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_are_exact() {
        assert_eq!(SimDuration::from_secs(1).as_millis(), 1_000);
        assert_eq!(SimDuration::from_mins(1).as_millis(), 60_000);
        assert_eq!(SimDuration::from_hours(1).as_millis(), 3_600_000);
        assert_eq!(SimDuration::from_days(1).as_millis(), 86_400_000);
    }

    #[test]
    fn add_and_subtract_round_trip() {
        let t = SimTime::ZERO + SimDuration::from_mins(20);
        assert_eq!(t - SimTime::ZERO, SimDuration::from_mins(20));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtracting_later_from_earlier_panics() {
        let _ = SimTime::ZERO - SimTime::from_millis(1);
    }

    #[test]
    fn saturating_since_clamps() {
        let early = SimTime::from_millis(10);
        let late = SimTime::from_millis(50);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_millis(40));
    }

    #[test]
    fn periods_in_counts_whole_periods() {
        let period = SimDuration::from_mins(20);
        assert_eq!(period.periods_in(SimDuration::from_days(7)), 504);
        assert_eq!(period.periods_in(SimDuration::from_mins(19)), 0);
    }

    #[test]
    fn add_saturates_at_max() {
        let t = SimTime::MAX + SimDuration::from_secs(1);
        assert_eq!(t, SimTime::MAX);
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(SimTime::from_millis(5) < SimTime::from_millis(6));
        assert!(SimDuration::from_secs(1) > SimDuration::from_millis(999));
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_millis(12).to_string(), "t+12ms");
        assert_eq!(SimDuration::from_millis(7).to_string(), "7ms");
    }
}
