//! The discretized availability PDF `p(·)` and its derived quantities.
//!
//! §2.1 of the paper: "the PDF of the availability distribution of the
//! system is specified as p : \[0,1\] → \[0,1\], i.e., p(a)·da is the fraction
//! of nodes with availability between a and (a−da)". The PDF — like the
//! stable system size `N*` — is computed offline (by a crawler or a
//! central server), communicated to all nodes pre-run-time, and used
//! *consistently* thereafter. Predicates I.B, I.C and II.B consume it:
//!
//! * `p(av(y))` — the density at the candidate's availability;
//! * `N*_av(x) = N* · ∫_{av(x)−ε}^{av(x)+ε} p(a) da` — expected online
//!   nodes in `x`'s horizontal band;
//! * `N*min_av(x) = N* · min { ∫_v^{v+ε} p(a) da : [v, v+ε] ⊆
//!   [av(x)−ε, av(x)+ε] }` — the thinnest ε-window inside the band.
//!
//! "These values can be easily calculated from a discretized PDF
//! distribution of the system created from a small sample set of nodes" —
//! [`AvailabilityPdf`] is exactly that discretization, with Laplace
//! smoothing so that the density never vanishes (predicate I.B divides by
//! `p(av(y))`; an exact zero would make the sliver probability blow up to
//! the `min(…, 1.0)` cap for every candidate in an empty band, which is
//! the intended behaviour, but smoothing keeps estimates stable for thin
//! non-empty bands too).

use avmem_util::Availability;
use serde::{Deserialize, Serialize};

/// A discretized availability PDF over `[0, 1]`.
///
/// # Examples
///
/// ```
/// use avmem_trace::AvailabilityPdf;
/// use avmem_util::Availability;
///
/// // A population concentrated at low availability.
/// let sample: Vec<Availability> = (0..100)
///     .map(|i| Availability::saturating(if i < 80 { 0.15 } else { 0.85 }))
///     .collect();
/// let pdf = AvailabilityPdf::from_sample(&sample, 10);
///
/// // Density is much higher in the crowded band.
/// let low = pdf.density(Availability::saturating(0.15));
/// let high = pdf.density(Availability::saturating(0.85));
/// assert!(low > high);
///
/// // Total mass integrates to one.
/// assert!((pdf.mass_between(0.0, 1.0) - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AvailabilityPdf {
    /// Probability mass per bucket (sums to 1).
    mass: Vec<f64>,
}

impl AvailabilityPdf {
    /// Builds a PDF from a sample of availabilities using `buckets`
    /// equal-width buckets and Laplace (+1) smoothing.
    ///
    /// # Panics
    ///
    /// Panics if `buckets == 0` or the sample is empty.
    pub fn from_sample(sample: &[Availability], buckets: usize) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        assert!(!sample.is_empty(), "need a non-empty sample");
        let mut counts = vec![1.0f64; buckets]; // Laplace smoothing
        for av in sample {
            counts[av.bucket(buckets)] += 1.0;
        }
        let total: f64 = counts.iter().sum();
        AvailabilityPdf {
            mass: counts.into_iter().map(|c| c / total).collect(),
        }
    }

    /// Builds a PDF from weighted samples: each availability contributes
    /// `weight` to its bucket (plus Laplace smoothing).
    ///
    /// AVMEM's `N*` counts *online* nodes (§2.1), so the matching PDF is
    /// the availability distribution *of online nodes*: a node with
    /// availability `a` is online a fraction `a` of the time, hence
    /// weighting each sampled node by its own availability yields the
    /// online-node density.
    ///
    /// # Panics
    ///
    /// Panics if `buckets == 0`, the sample is empty, or any weight is
    /// negative or non-finite.
    pub fn from_weighted_sample(sample: &[(Availability, f64)], buckets: usize) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        assert!(!sample.is_empty(), "need a non-empty sample");
        let mut counts = vec![1.0f64; buckets]; // Laplace smoothing
        for (av, weight) in sample {
            assert!(
                weight.is_finite() && *weight >= 0.0,
                "weights must be finite and non-negative"
            );
            counts[av.bucket(buckets)] += weight;
        }
        let total: f64 = counts.iter().sum();
        AvailabilityPdf {
            mass: counts.into_iter().map(|c| c / total).collect(),
        }
    }

    /// Builds a PDF directly from per-bucket masses (normalizing them).
    ///
    /// # Panics
    ///
    /// Panics if `mass` is empty, contains negatives/NaN, or sums to zero.
    pub fn from_bucket_mass(mass: Vec<f64>) -> Self {
        assert!(!mass.is_empty(), "need at least one bucket");
        assert!(
            mass.iter().all(|&m| m.is_finite() && m >= 0.0),
            "bucket masses must be finite and non-negative"
        );
        let total: f64 = mass.iter().sum();
        assert!(total > 0.0, "total mass must be positive");
        AvailabilityPdf {
            mass: mass.into_iter().map(|m| m / total).collect(),
        }
    }

    /// The uniform PDF on `buckets` buckets.
    ///
    /// # Panics
    ///
    /// Panics if `buckets == 0`.
    pub fn uniform(buckets: usize) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        AvailabilityPdf {
            mass: vec![1.0 / buckets as f64; buckets],
        }
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.mass.len()
    }

    /// Bucket width.
    pub fn bucket_width(&self) -> f64 {
        1.0 / self.mass.len() as f64
    }

    /// Probability mass of bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn bucket_mass(&self, i: usize) -> f64 {
        self.mass[i]
    }

    /// The density `p(a)`: bucket mass divided by bucket width, so that
    /// `∫ p = 1`.
    pub fn density(&self, a: Availability) -> f64 {
        self.mass[a.bucket(self.mass.len())] / self.bucket_width()
    }

    /// `∫_lo^hi p(a) da` for `lo ≤ hi`, both clamped into `[0, 1]`.
    /// Handles partial bucket overlap exactly (the PDF is piecewise
    /// constant).
    pub fn mass_between(&self, lo: f64, hi: f64) -> f64 {
        let lo = lo.clamp(0.0, 1.0);
        let hi = hi.clamp(0.0, 1.0);
        if hi <= lo {
            return 0.0;
        }
        let w = self.bucket_width();
        let mut total = 0.0;
        for (i, &m) in self.mass.iter().enumerate() {
            let b_lo = i as f64 * w;
            let b_hi = b_lo + w;
            let overlap = (hi.min(b_hi) - lo.max(b_lo)).max(0.0);
            total += m * overlap / w;
        }
        total
    }

    /// The paper's `N*_av(x)`: expected number of online nodes in the
    /// horizontal band `[av(x)−ε, av(x)+ε]`, for a stable system size
    /// `n_star`.
    pub fn expected_in_band(&self, n_star: f64, center: Availability, epsilon: f64) -> f64 {
        n_star * self.mass_between(center.value() - epsilon, center.value() + epsilon)
    }

    /// The paper's `N*min_av(x)`: the minimum expected number of online
    /// nodes over any ε-wide window wholly inside `[av(x)−ε, av(x)+ε]`.
    ///
    /// The band is clamped to `[0, 1]` first, matching how a deployed
    /// system would read its discretized PDF near the edges. The mass of
    /// a sliding window over a piecewise-constant density is piecewise
    /// linear in the window position, so the minimum is attained when a
    /// window endpoint aligns with a bucket edge (or at the band ends);
    /// we evaluate exactly those candidate positions.
    pub fn min_window_mass(&self, n_star: f64, center: Availability, epsilon: f64) -> f64 {
        let band_lo = (center.value() - epsilon).max(0.0);
        let band_hi = (center.value() + epsilon).min(1.0);
        if band_hi - band_lo <= epsilon {
            // Degenerate: the clamped band is no wider than one window;
            // the only window is the band itself (or as much as fits).
            return n_star * self.mass_between(band_lo, band_hi);
        }
        let w = self.bucket_width();
        let last_start = band_hi - epsilon;
        let mut candidates = vec![band_lo, last_start];
        // Bucket edges that could serve as a window start, either
        // directly or by aligning the window *end* with an edge.
        let mut edge = (band_lo / w).ceil() * w;
        while edge < band_hi {
            if edge <= last_start {
                candidates.push(edge);
            }
            let start_for_end = edge - epsilon;
            if start_for_end >= band_lo && start_for_end <= last_start {
                candidates.push(start_for_end);
            }
            edge += w;
        }
        let mut min_mass = f64::INFINITY;
        for v in candidates {
            let m = self.mass_between(v, v + epsilon);
            if m < min_mass {
                min_mass = m;
            }
        }
        n_star * min_mass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn av(v: f64) -> Availability {
        Availability::saturating(v)
    }

    #[test]
    fn uniform_pdf_has_unit_density() {
        let pdf = AvailabilityPdf::uniform(10);
        for i in 0..10 {
            let a = av(i as f64 / 10.0 + 0.05);
            assert!((pdf.density(a) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn mass_between_full_range_is_one() {
        let pdf = AvailabilityPdf::from_bucket_mass(vec![1.0, 3.0, 6.0]);
        assert!((pdf.mass_between(0.0, 1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mass_between_partial_buckets() {
        let pdf = AvailabilityPdf::from_bucket_mass(vec![1.0, 1.0]);
        // Half of the first bucket = 0.25 of total mass.
        assert!((pdf.mass_between(0.0, 0.25) - 0.25).abs() < 1e-12);
        // Straddling the bucket edge.
        assert!((pdf.mass_between(0.25, 0.75) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mass_between_clamps_and_orders() {
        let pdf = AvailabilityPdf::uniform(4);
        assert_eq!(pdf.mass_between(0.5, 0.2), 0.0);
        assert!((pdf.mass_between(-1.0, 2.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_sample_concentrates_mass() {
        let sample: Vec<Availability> = (0..1000).map(|_| av(0.55)).collect();
        let pdf = AvailabilityPdf::from_sample(&sample, 10);
        assert!(pdf.bucket_mass(5) > 0.9);
        // Laplace smoothing keeps other buckets slightly positive.
        assert!(pdf.bucket_mass(0) > 0.0);
    }

    #[test]
    fn density_never_zero_with_smoothing() {
        let sample = vec![av(0.9); 50];
        let pdf = AvailabilityPdf::from_sample(&sample, 20);
        for i in 0..20 {
            assert!(pdf.density(av(i as f64 / 20.0 + 0.01)) > 0.0);
        }
    }

    #[test]
    fn expected_in_band_scales_with_n_star() {
        let pdf = AvailabilityPdf::uniform(10);
        let e = pdf.expected_in_band(1000.0, av(0.5), 0.1);
        assert!((e - 200.0).abs() < 1e-9); // band width 0.2 × N* 1000
    }

    #[test]
    fn min_window_uniform_equals_epsilon_mass() {
        let pdf = AvailabilityPdf::uniform(10);
        let m = pdf.min_window_mass(1000.0, av(0.5), 0.1);
        assert!((m - 100.0).abs() < 1e-9);
    }

    #[test]
    fn min_window_finds_thin_side() {
        // Dense below 0.5, sparse above.
        let mut mass = vec![2.0; 5];
        mass.extend(vec![0.5; 5]);
        let pdf = AvailabilityPdf::from_bucket_mass(mass);
        let thin = pdf.min_window_mass(1.0, av(0.5), 0.1);
        // The sparse side window [0.5, 0.6]: mass 0.5/12.5 = 0.04.
        assert!((thin - 0.04).abs() < 1e-9, "thin={thin}");
    }

    #[test]
    fn min_window_clamped_at_edges() {
        let pdf = AvailabilityPdf::uniform(10);
        // Center at 0.05: band clamps to [0, 0.15]; min ε-window has mass 0.1.
        let m = pdf.min_window_mass(1.0, av(0.05), 0.1);
        assert!((m - 0.1).abs() < 1e-9, "m={m}");
    }

    #[test]
    fn min_window_degenerate_band() {
        let pdf = AvailabilityPdf::uniform(10);
        // Center at 0.0: band [0, 0.1] is exactly one window wide.
        let m = pdf.min_window_mass(1.0, av(0.0), 0.1);
        assert!((m - 0.1).abs() < 1e-9, "m={m}");
    }

    #[test]
    fn weighted_sample_shifts_mass_toward_heavy_entries() {
        let sample = vec![(av(0.15), 0.15), (av(0.85), 0.85)];
        let pdf = AvailabilityPdf::from_weighted_sample(&sample, 10);
        assert!(
            pdf.bucket_mass(8) > pdf.bucket_mass(1),
            "weighting should favour the high-availability bucket"
        );
    }

    #[test]
    fn weighted_sample_with_equal_weights_matches_unweighted_shape() {
        let avs = [0.1, 0.1, 0.5, 0.9];
        let weighted: Vec<(Availability, f64)> = avs.iter().map(|&a| (av(a), 1.0)).collect();
        let plain: Vec<Availability> = avs.iter().map(|&a| av(a)).collect();
        let w = AvailabilityPdf::from_weighted_sample(&weighted, 10);
        let p = AvailabilityPdf::from_sample(&plain, 10);
        for i in 0..10 {
            assert!((w.bucket_mass(i) - p.bucket_mass(i)).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "weights must be finite")]
    fn negative_weight_panics() {
        let _ = AvailabilityPdf::from_weighted_sample(&[(av(0.5), -1.0)], 10);
    }

    #[test]
    #[should_panic(expected = "non-empty sample")]
    fn empty_sample_panics() {
        let _ = AvailabilityPdf::from_sample(&[], 10);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_mass_panics() {
        let _ = AvailabilityPdf::from_bucket_mass(vec![0.0, 0.0]);
    }
}
