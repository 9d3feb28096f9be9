//! Ping-based availability estimation.
//!
//! A monitor pings each of its targets once per probe period and records
//! hit/miss. The paper's availability-monitoring contract mentions "raw,
//! or aged" long-term availability; [`PingEstimator`] offers both:
//!
//! * **raw** — lifetime fraction of answered pings, the maximum-likelihood
//!   estimate of fraction uptime;
//! * **aged** — an exponentially weighted moving average that discounts
//!   old behaviour, tracking availability *changes* faster at the cost of
//!   higher variance.

use avmem_util::Availability;
use serde::{Deserialize, Serialize};

/// Accumulated ping statistics about one target.
///
/// # Examples
///
/// ```
/// use avmem_avmon::PingEstimator;
///
/// let mut est = PingEstimator::new();
/// for _ in 0..3 {
///     est.record(true, 0.05);
/// }
/// est.record(false, 0.05);
/// assert_eq!(est.raw().unwrap().value(), 0.75);
/// assert_eq!(est.samples(), 4);
/// ```
/// Counters are `u32`: one ping per probe slot means even a decade-long
/// trace stays far below 2³². The EWMA smoothing factor is *not* stored
/// — every estimator shares the service's configured `alpha`, so callers
/// pass it to [`PingEstimator::record`].
///
/// The service's estimator arenas do not hold this type. Their slot per
/// (monitor, target) edge is the 8-byte `(hits, attempts)` pair alone,
/// and the EWMA is a column of its own that exists only when the service
/// serves aged estimates (`AvmonConfig::use_aged`): at 10⁶ hosts × `k`
/// monitors that is 8 bytes per edge instead of 16.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PingEstimator {
    counts: PingCounts,
    aged: f64,
}

impl PingEstimator {
    /// Creates an empty estimator.
    pub fn new() -> Self {
        PingEstimator::default()
    }

    /// Records one ping outcome, folding it into the EWMA with smoothing
    /// factor `alpha ∈ (0, 1]` (weight given to the newest observation).
    ///
    /// `alpha` is per-call because it is a service-wide constant, not
    /// per-target state; passing a different value per call mixes decay
    /// rates and is on the caller.
    pub fn record(&mut self, answered: bool, alpha: f64) {
        self.aged = self.counts.fold_aged(self.aged, answered, alpha);
        self.counts.record(answered);
    }

    /// Number of pings recorded.
    pub fn samples(&self) -> u64 {
        u64::from(self.counts.attempts)
    }

    /// Raw estimate: lifetime fraction of answered pings. `None` before
    /// the first ping.
    pub fn raw(&self) -> Option<Availability> {
        self.counts.raw()
    }

    /// Aged (EWMA) estimate. `None` before the first ping.
    pub fn aged(&self) -> Option<Availability> {
        self.counts.aged(self.aged)
    }
}

/// Answered and sent pings of one (monitor, target) edge: the slot every
/// estimator arena keeps per edge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct PingCounts {
    hits: u32,
    attempts: u32,
}

// An arena slot per edge: padding creep here is 10⁶ × `k` slots of it.
const _: () = assert!(std::mem::size_of::<PingCounts>() == 8);

impl PingCounts {
    /// Counts one ping.
    #[inline]
    pub(crate) fn record(&mut self, answered: bool) {
        self.attempts += 1;
        self.hits += u32::from(answered);
    }

    /// The EWMA after one more ping, from `aged`, its value before it:
    /// the first ping sets it, each later one moves it by `alpha`. Call
    /// before [`PingCounts::record`] counts that ping.
    #[inline]
    pub(crate) fn fold_aged(&self, aged: f64, answered: bool, alpha: f64) -> f64 {
        debug_assert!(
            alpha > 0.0 && alpha <= 1.0,
            "EWMA alpha must be in (0, 1]"
        );
        let obs = if answered { 1.0 } else { 0.0 };
        if self.attempts == 0 {
            obs
        } else {
            alpha * obs + (1.0 - alpha) * aged
        }
    }

    /// Lifetime fraction of answered pings; `None` before the first.
    pub(crate) fn raw(&self) -> Option<Availability> {
        (self.attempts > 0)
            .then(|| Availability::saturating(self.hits as f64 / self.attempts as f64))
    }

    /// The EWMA `aged` kept beside these counts; `None` before the first
    /// ping.
    pub(crate) fn aged(&self, aged: f64) -> Option<Availability> {
        (self.attempts > 0).then(|| Availability::saturating(aged))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_samples_means_no_estimate() {
        let est = PingEstimator::new();
        assert!(est.raw().is_none());
        assert!(est.aged().is_none());
    }

    #[test]
    fn raw_is_hit_fraction() {
        let mut est = PingEstimator::new();
        for i in 0..10 {
            est.record(i % 2 == 0, 0.1);
        }
        assert_eq!(est.raw().unwrap().value(), 0.5);
    }

    #[test]
    fn aged_tracks_recent_behaviour_faster_than_raw() {
        let mut est = PingEstimator::new();
        // Long up history, then a down streak.
        for _ in 0..100 {
            est.record(true, 0.3);
        }
        for _ in 0..10 {
            est.record(false, 0.3);
        }
        let raw = est.raw().unwrap().value();
        let aged = est.aged().unwrap().value();
        assert!(aged < raw, "aged {aged} should fall below raw {raw}");
        assert!(aged < 0.05, "aged {aged} should be near zero after streak");
        assert!(raw > 0.85, "raw {raw} still dominated by history");
    }

    #[test]
    fn first_observation_initializes_ewma() {
        let mut est = PingEstimator::new();
        est.record(true, 0.01);
        assert_eq!(est.aged().unwrap().value(), 1.0);
    }

    #[test]
    fn estimates_stay_in_unit_interval() {
        let mut est = PingEstimator::new();
        est.record(true, 1.0);
        est.record(false, 1.0);
        assert!((0.0..=1.0).contains(&est.raw().unwrap().value()));
        assert!((0.0..=1.0).contains(&est.aged().unwrap().value()));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "alpha")]
    fn zero_alpha_panics() {
        let mut est = PingEstimator::new();
        est.record(true, 0.0);
    }

    #[test]
    fn slot_footprint_is_sixteen_bytes() {
        // The arena layout the million-host budget counts on.
        assert_eq!(std::mem::size_of::<PingEstimator>(), 16);
    }
}
