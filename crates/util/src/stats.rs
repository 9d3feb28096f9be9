//! Statistics helpers for the experiment harness.
//!
//! The paper reports figures as histograms, scatter plots and CDFs. This
//! module provides the small, allocation-friendly summaries the bench
//! harness uses to regenerate those series: [`Summary`] (mean / min / max /
//! percentiles — its nearest-rank quantile is the inverse of the
//! empirical CDF) and [`Histogram`] (fixed-width bucketing over `[0, 1]`,
//! e.g. per-0.1 availability bands).

use serde::{Deserialize, Serialize};

use crate::Availability;

/// Summary statistics over a sample of `f64` values.
///
/// # Examples
///
/// ```
/// use avmem_util::stats::Summary;
///
/// let s = Summary::from_values([1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(s.count(), 4);
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    sorted: Vec<f64>,
    sum: f64,
}

impl Summary {
    /// Builds a summary from any collection of values.
    ///
    /// NaN values are dropped (they carry no ordering information).
    pub fn from_values<I>(values: I) -> Self
    where
        I: IntoIterator<Item = f64>,
    {
        let mut sorted: Vec<f64> = values.into_iter().filter(|v| !v.is_nan()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN filtered out"));
        let sum = sorted.iter().sum();
        Summary { sorted, sum }
    }

    /// Number of (non-NaN) samples.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Returns `true` if the summary holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Arithmetic mean; `0.0` for an empty summary.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sum / self.sorted.len() as f64
        }
    }

    /// Smallest sample; `0.0` for an empty summary.
    pub fn min(&self) -> f64 {
        self.sorted.first().copied().unwrap_or(0.0)
    }

    /// Largest sample; `0.0` for an empty summary.
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }

    /// Returns the `q`-quantile (nearest-rank), `q ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.sorted.is_empty() {
            return 0.0;
        }
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).max(1) - 1;
        self.sorted[rank.min(self.sorted.len() - 1)]
    }

    /// Median (50th percentile).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Sample standard deviation; `0.0` for fewer than two samples.
    pub fn std_dev(&self) -> f64 {
        let n = self.sorted.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let var: f64 = self.sorted.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        var.sqrt()
    }
}

/// Fixed-width histogram over `[0, 1]`, e.g. one bucket per 0.1-wide
/// availability band (the granularity of Figs. 2a, 4, 5, 6).
///
/// # Examples
///
/// ```
/// use avmem_util::stats::Histogram;
///
/// let mut h = Histogram::new(10);
/// h.add(0.05);
/// h.add(0.07);
/// h.add(0.95);
/// assert_eq!(h.count(0), 2);
/// assert_eq!(h.count(9), 1);
/// assert_eq!(h.total(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram with `buckets` equal-width buckets over `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `buckets == 0`.
    pub fn new(buckets: usize) -> Self {
        assert!(buckets > 0, "histogram needs at least one bucket");
        Histogram {
            counts: vec![0; buckets],
        }
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.counts.len()
    }

    /// Maps a value to its bucket index by [`Availability::bucket`] (1.0
    /// lands in the last bucket; values outside `[0, 1]` saturate).
    pub fn bucket_of(&self, value: f64) -> usize {
        Availability::saturating(value).bucket(self.counts.len())
    }

    /// Adds one observation.
    pub fn add(&mut self, value: f64) {
        let b = self.bucket_of(value);
        self.counts[b] += 1;
    }

    /// Count in bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Iterates `(bucket_low_edge, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let width = 1.0 / self.counts.len() as f64;
        self.counts
            .iter()
            .enumerate()
            .map(move |(i, &c)| (i as f64 * width, c))
    }

    /// Fraction of observations in bucket `i`; `0.0` when empty.
    pub fn fraction(&self, i: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.count(i) as f64 / total as f64
        }
    }
}

/// Linear regression slope of `y` on `x` (least squares), used to check
/// "grows sublinearly" claims like Fig. 3. Returns `0.0` for fewer than
/// two points.
pub fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 0.0;
    }
    let mean_x: f64 = points.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y: f64 = points.iter().map(|p| p.1).sum::<f64>() / n;
    let mut num = 0.0;
    let mut den = 0.0;
    for &(x, y) in points {
        num += (x - mean_x) * (y - mean_y);
        den += (x - mean_x) * (x - mean_x);
    }
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Pearson correlation coefficient; `0.0` for degenerate inputs. Used to
/// verify "uncorrelated" claims (Figs. 2c, 4).
pub fn correlation(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 0.0;
    }
    let mean_x: f64 = points.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y: f64 = points.iter().map(|p| p.1).sum::<f64>() / n;
    let mut cov = 0.0;
    let mut var_x = 0.0;
    let mut var_y = 0.0;
    for &(x, y) in points {
        cov += (x - mean_x) * (y - mean_y);
        var_x += (x - mean_x) * (x - mean_x);
        var_y += (y - mean_y) * (y - mean_y);
    }
    let den = (var_x * var_y).sqrt();
    if den == 0.0 {
        0.0
    } else {
        cov / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_empty_is_zeroed() {
        let s = Summary::from_values(std::iter::empty());
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.median(), 0.0);
    }

    #[test]
    fn summary_drops_nan() {
        let s = Summary::from_values([1.0, f64::NAN, 3.0]);
        assert_eq!(s.count(), 2);
        assert_eq!(s.mean(), 2.0);
    }

    #[test]
    fn quantiles_nearest_rank() {
        let s = Summary::from_values([1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(0.2), 1.0);
        assert_eq!(s.quantile(0.5), 3.0);
        assert_eq!(s.quantile(1.0), 5.0);
    }

    #[test]
    fn std_dev_matches_hand_computation() {
        let s = Summary::from_values([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        // Known example: population stddev 2; sample stddev = sqrt(32/7).
        assert!((s.std_dev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_edges() {
        let mut h = Histogram::new(10);
        h.add(0.0);
        h.add(0.099999);
        h.add(0.1);
        h.add(1.0);
        assert_eq!(h.count(0), 2);
        assert_eq!(h.count(1), 1);
        assert_eq!(h.count(9), 1);
    }

    #[test]
    fn histogram_clamps_out_of_range() {
        let mut h = Histogram::new(4);
        h.add(-5.0);
        h.add(5.0);
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(3), 1);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn histogram_zero_buckets_panics() {
        let _ = Histogram::new(0);
    }

    #[test]
    fn histogram_iter_yields_low_edges() {
        let h = Histogram::new(4);
        let edges: Vec<f64> = h.iter().map(|(e, _)| e).collect();
        assert_eq!(edges, vec![0.0, 0.25, 0.5, 0.75]);
    }

    #[test]
    fn ecdf_quantile_inverts_fraction() {
        let s = Summary::from_values((1..=100).map(f64::from));
        assert_eq!(s.quantile(0.5), 50.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(s.quantile(0.01), 1.0);
    }

    #[test]
    fn slope_of_line_recovers_coefficient() {
        let pts: Vec<(f64, f64)> = (0..50).map(|i| (i as f64, 3.0 * i as f64 + 1.0)).collect();
        assert!((slope(&pts) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn correlation_of_independent_constant_is_zero() {
        let pts: Vec<(f64, f64)> = (0..50).map(|i| (i as f64, 42.0)).collect();
        assert_eq!(correlation(&pts), 0.0);
    }

    #[test]
    fn correlation_of_anticorrelated_is_negative() {
        let pts: Vec<(f64, f64)> = (0..50).map(|i| (i as f64, -2.0 * i as f64)).collect();
        assert!((correlation(&pts) + 1.0).abs() < 1e-9);
    }
}
