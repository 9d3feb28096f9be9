//! Availability-sorted candidate index for banded enumeration.
//!
//! A converged rebuild classifies every ordered pair, but horizontal
//! sliver candidates all live inside the `±ε` band around the source
//! node's availability. When the oracle answers *querier-independently*
//! (exact, shared-noise, or AVMON aggregates), all nodes agree on every
//! candidate's availability, so one sorted index over the population
//! turns "find my in-band candidates" from an `O(N)` scan into a binary
//! search plus a range scan of the ~`2εN` in-band entries.
//!
//! Range bounds are widened by a tiny slack and every hit is re-checked
//! with the exact [`Availability::distance`] band test, so the enumerated
//! set is *identical* to what a full scan classifies as in-band — float
//! rounding in `av(x) ± ε` can never drop or add a candidate.

use avmem_util::Availability;

/// Slack added to the band boundaries before the exact re-check. Values
/// live in `[0, 1]`, so a few ulps of `1.0` dominate any rounding error
/// in `av(x) ± ε` or in the distance subtraction.
const BAND_SLACK: f64 = 1e-9;

/// A population index sorted by availability.
///
/// # Examples
///
/// ```
/// use avmem::harness::CandidateIndex;
/// use avmem_util::Availability;
///
/// let avs = [0.9, 0.1, 0.52, 0.48, 0.55].map(Availability::saturating);
/// let index = CandidateIndex::build(
///     avs.iter().enumerate().map(|(i, &a)| (i, Some(a))),
/// );
/// let mut band: Vec<usize> = index
///     .band(Availability::saturating(0.5), 0.1)
///     .map(|(i, _)| i)
///     .collect();
/// band.sort_unstable();
/// assert_eq!(band, vec![2, 3, 4]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateIndex {
    /// `(availability value, node index)` sorted ascending; ties broken
    /// by node index so the order is deterministic.
    sorted: Vec<(f64, u32)>,
}

impl CandidateIndex {
    /// Builds the index from `(node index, availability estimate)` pairs;
    /// nodes the oracle has no estimate for are left out (they can never
    /// be classified).
    ///
    /// # Panics
    ///
    /// Panics if a node index exceeds `u32::MAX` (the simulator's
    /// populations are far smaller).
    pub fn build(estimates: impl IntoIterator<Item = (usize, Option<Availability>)>) -> Self {
        let mut sorted: Vec<(f64, u32)> = estimates
            .into_iter()
            .filter_map(|(i, av)| {
                av.map(|a| (a.value(), u32::try_from(i).expect("population fits in u32")))
            })
            .collect();
        sorted.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        CandidateIndex { sorted }
    }

    /// Number of indexed nodes.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the index holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The raw sorted `(availability value, node index)` entries — the
    /// rebuild hot loop walks these directly (positions align with the
    /// per-rebuild vertical threshold table).
    pub(crate) fn entries(&self) -> &[(f64, u32)] {
        &self.sorted
    }

    /// The widened `[lo, hi]` range of sorted positions that could hold
    /// in-band candidates; entries inside still need the exact distance
    /// re-check, entries outside certainly fail it.
    pub(crate) fn fuzzy_range(&self, center: Availability, epsilon: f64) -> (usize, usize) {
        let lo = center.value() - epsilon - BAND_SLACK;
        let hi = center.value() + epsilon + BAND_SLACK;
        let start = self.sorted.partition_point(|&(v, _)| v < lo);
        let end = start + self.sorted[start..].partition_point(|&(v, _)| v <= hi);
        (start, end)
    }

    /// All nodes whose availability lies strictly within `±epsilon` of
    /// `center` — exactly the candidates a full scan would classify as
    /// horizontal (`distance < ε`), including the center node itself if
    /// indexed. Yields `(node index, availability)` in availability
    /// order.
    pub fn band(
        &self,
        center: Availability,
        epsilon: f64,
    ) -> impl Iterator<Item = (usize, Availability)> + '_ {
        let (start, end) = self.fuzzy_range(center, epsilon);
        self.sorted[start..end].iter().filter_map(move |&(v, i)| {
            let av = Availability::saturating(v);
            (center.distance(av) < epsilon).then_some((i as usize, av))
        })
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    fn av(v: f64) -> Availability {
        Availability::saturating(v)
    }

    fn index_of(values: &[f64]) -> CandidateIndex {
        CandidateIndex::build(values.iter().enumerate().map(|(i, &v)| (i, Some(av(v)))))
    }

    fn full_scan(values: &[f64], center: f64, epsilon: f64) -> Vec<usize> {
        values
            .iter()
            .enumerate()
            .filter(|(_, &v)| av(center).distance(av(v)) < epsilon)
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn band_matches_full_scan() {
        let values = [0.0, 0.05, 0.1, 0.39, 0.4, 0.45, 0.5, 0.55, 0.6, 0.61, 1.0];
        for center in [0.0, 0.08, 0.5, 0.55, 0.97, 1.0] {
            for epsilon in [0.02, 0.1, 0.25] {
                let mut banded: Vec<usize> = index_of(&values)
                    .band(av(center), epsilon)
                    .map(|(i, _)| i)
                    .collect();
                banded.sort_unstable();
                assert_eq!(
                    banded,
                    full_scan(&values, center, epsilon),
                    "center={center} epsilon={epsilon}"
                );
            }
        }
    }

    #[test]
    fn boundary_candidates_follow_strict_distance() {
        // Distance exactly ε (representable: 0.125) is vertical, not
        // horizontal — the index must agree with the strict check.
        let values = [0.25, 0.375, 0.5];
        let banded: Vec<usize> = index_of(&values)
            .band(av(0.25), 0.125)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(banded, vec![0]);
    }

    #[test]
    fn unknown_nodes_are_skipped() {
        let index = CandidateIndex::build([
            (0, Some(av(0.5))),
            (1, None),
            (2, Some(av(0.52))),
        ]);
        assert_eq!(index.len(), 2);
        let ids: Vec<usize> = index.band(av(0.5), 0.1).map(|(i, _)| i).collect();
        assert_eq!(ids, vec![0, 2]);
    }

    #[test]
    fn empty_index_yields_nothing() {
        let index = CandidateIndex::build(std::iter::empty());
        assert!(index.is_empty());
        assert_eq!(index.band(av(0.5), 0.1).count(), 0);
    }
}
