//! Availability targets for management operations.
//!
//! The paper's four operations address either a *range* `[b, b+δ] ⊆ [0,1]`
//! or a *threshold* `> b` (§1). [`AvailabilityTarget`] unifies the two: a
//! threshold is "a range stretching from the threshold to 1.0" (§3.2).

use avmem_util::Availability;
use serde::{Deserialize, Serialize};

/// The availability region an anycast/multicast addresses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AvailabilityTarget {
    /// All nodes with availability in `[lo, hi]`.
    Range {
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
    },
    /// All nodes with availability strictly greater than `min`
    /// (threshold-anycast / threshold-multicast).
    Threshold {
        /// The exclusive lower bound `b`.
        min: f64,
    },
}

impl AvailabilityTarget {
    /// Creates a range target.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ lo ≤ hi ≤ 1`.
    pub fn range(lo: f64, hi: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi) && lo <= hi,
            "range must satisfy 0 ≤ lo ≤ hi ≤ 1"
        );
        AvailabilityTarget::Range { lo, hi }
    }

    /// Creates a threshold target (`availability > min`).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ min < 1`.
    pub fn threshold(min: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&min),
            "threshold must satisfy 0 ≤ min < 1"
        );
        AvailabilityTarget::Threshold { min }
    }

    /// Whether `av` lies inside the target region.
    #[inline]
    pub fn contains(&self, av: Availability) -> bool {
        match *self {
            AvailabilityTarget::Range { lo, hi } => (lo <= av.value()) & (av.value() <= hi),
            AvailabilityTarget::Threshold { min } => av.value() > min,
        }
    }

    /// How many of `ascending` — availabilities in ascending order — the
    /// region [`contains`](Self::contains): two binary searches on the
    /// comparisons made there, negated as written, so that a NaN bound
    /// admits nobody here either.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub(crate) fn count_in(&self, ascending: &[Availability]) -> usize {
        match *self {
            AvailabilityTarget::Range { lo, hi } => {
                let below = ascending.partition_point(|av| !(lo <= av.value()));
                let up_to = ascending.partition_point(|av| av.value() <= hi);
                up_to.saturating_sub(below)
            }
            AvailabilityTarget::Threshold { min } => {
                ascending.len() - ascending.partition_point(|av| !(av.value() > min))
            }
        }
    }

    /// Distance from `av` to the region (zero if inside) — the greedy
    /// forwarding metric ("distance to range target R", §3.2).
    pub fn distance(&self, av: Availability) -> f64 {
        match *self {
            AvailabilityTarget::Range { lo, hi } => {
                if av.value() < lo {
                    lo - av.value()
                } else if av.value() > hi {
                    av.value() - hi
                } else {
                    0.0
                }
            }
            AvailabilityTarget::Threshold { min } => (min - av.value()).max(0.0),
        }
    }

    /// The nearest edge of the region as seen from `av` — the simulated
    /// annealing rule's `Δ` is measured to this edge.
    pub fn nearest_edge(&self, av: Availability) -> f64 {
        match *self {
            AvailabilityTarget::Range { lo, hi } => {
                if av.value() < lo {
                    lo
                } else if av.value() > hi {
                    hi
                } else {
                    av.value()
                }
            }
            AvailabilityTarget::Threshold { min } => {
                if av.value() > min {
                    av.value()
                } else {
                    min
                }
            }
        }
    }
}

impl std::fmt::Display for AvailabilityTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            AvailabilityTarget::Range { lo, hi } => write!(f, "[{lo}, {hi}]"),
            AvailabilityTarget::Threshold { min } => write!(f, "av > {min}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn av(v: f64) -> Availability {
        Availability::saturating(v)
    }

    #[test]
    fn range_containment() {
        let t = AvailabilityTarget::range(0.2, 0.3);
        assert!(t.contains(av(0.2)));
        assert!(t.contains(av(0.25)));
        assert!(t.contains(av(0.3)));
        assert!(!t.contains(av(0.19)));
        assert!(!t.contains(av(0.31)));
    }

    #[test]
    fn threshold_is_exclusive_at_bound() {
        let t = AvailabilityTarget::threshold(0.9);
        assert!(!t.contains(av(0.9)));
        assert!(t.contains(av(0.90001)));
        assert!(!t.contains(av(0.5)));
    }

    #[test]
    fn distance_is_zero_inside() {
        let t = AvailabilityTarget::range(0.4, 0.6);
        assert_eq!(t.distance(av(0.5)), 0.0);
        assert!((t.distance(av(0.3)) - 0.1).abs() < 1e-12);
        assert!((t.distance(av(0.9)) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn threshold_distance_decreases_upward() {
        let t = AvailabilityTarget::threshold(0.5);
        assert!(t.distance(av(0.1)) > t.distance(av(0.4)));
        assert_eq!(t.distance(av(0.8)), 0.0);
    }

    #[test]
    fn nearest_edge_points_at_region() {
        let t = AvailabilityTarget::range(0.4, 0.6);
        assert_eq!(t.nearest_edge(av(0.1)), 0.4);
        assert_eq!(t.nearest_edge(av(0.9)), 0.6);
        assert_eq!(t.nearest_edge(av(0.5)), 0.5);
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(AvailabilityTarget::range(0.2, 0.3).to_string(), "[0.2, 0.3]");
        assert_eq!(AvailabilityTarget::threshold(0.9).to_string(), "av > 0.9");
    }

    #[test]
    #[should_panic(expected = "range must satisfy")]
    fn inverted_range_panics() {
        let _ = AvailabilityTarget::range(0.5, 0.4);
    }

    #[test]
    #[should_panic(expected = "threshold must satisfy")]
    fn threshold_of_one_panics() {
        let _ = AvailabilityTarget::threshold(1.0);
    }
}
