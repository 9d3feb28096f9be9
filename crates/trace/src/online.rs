//! An incrementally maintained index of the online population.
//!
//! Event-driven maintenance asks "who is online right now?" thousands of
//! times per simulated minute (bootstrap seeding, initiator selection),
//! but the answer only changes when the trace crosses a slot boundary —
//! every 20 minutes at Overnet granularity. [`OnlineIndex`] exploits
//! that: it caches the online set per slot and refreshes with one copy of
//! the trace's `N / 8`-byte slot column *per slot transition*, so the
//! per-event cost collapses from materializing a fresh `Vec<usize>` (as
//! [`ChurnTrace::online_at`] does) to a borrow of the cached slice plus
//! `O(k)` sampling.
//!
//! The copied column is one bit per node, and [`OnlineIndex::contains`]
//! answers "is node `i` up" from it: a shift and a load from `N / 8`
//! bytes that stay in cache, where [`ChurnTrace::is_online`] pays a
//! division for the slot and two range checks per question. Maintenance
//! asks per due node and per proposal target, a flood per copy; all of
//! them ask about the slot the index stands at.
//!
//! The refresh also lays out the online nodes' long-term availabilities
//! in ascending order ([`OnlineIndex::availabilities`]), so "how many
//! online nodes lie in this availability range" — asked once per
//! multicast — is two binary searches instead of a walk of the
//! population. The order nodes are visited in is a property of the
//! trace alone (long-term availability never changes), so it is sorted
//! once, at the first refresh; a slot change only filters it.

use avmem_sim::SimTime;
use avmem_util::{Availability, Rng};

use crate::churn::{ones, ChurnTrace};

/// Cached index of the nodes online in the current trace slot. An index
/// follows one trace.
///
/// # Examples
///
/// ```
/// use avmem_sim::SimTime;
/// use avmem_trace::{OnlineIndex, OvernetModel};
///
/// let trace = OvernetModel::default().hosts(50).days(1).generate(3);
/// let mut index = OnlineIndex::new();
/// index.refresh(&trace, SimTime::ZERO);
/// let cached: Vec<usize> = index.online().iter().map(|&i| i as usize).collect();
/// assert_eq!(cached, trace.online_at(SimTime::ZERO));
/// ```
#[derive(Debug, Clone, Default)]
pub struct OnlineIndex {
    /// The slot the cache reflects (`None` before the first refresh).
    slot: Option<usize>,
    /// Ascending node indices online in `slot`.
    online: Vec<u32>,
    /// The same set, bit `i % 64` of word `i / 64` for node `i`.
    bits: Vec<u64>,
    /// Every node of the trace, by ascending long-term availability
    /// (ties by index). Built by the first refresh.
    by_availability: Vec<u32>,
    /// The long-term availabilities of the nodes online in `slot`,
    /// ascending: `by_availability` filtered by `bits`.
    availabilities: Vec<Availability>,
}

impl OnlineIndex {
    /// Creates an empty index; call [`OnlineIndex::refresh`] before use.
    pub fn new() -> Self {
        OnlineIndex::default()
    }

    /// Brings the index up to date with the slot containing `now`.
    ///
    /// A no-op when `now` falls in the already-cached slot — the common
    /// case, since maintenance events are far denser than slot
    /// boundaries. Returns whether the cache was rebuilt.
    pub fn refresh(&mut self, trace: &ChurnTrace, now: SimTime) -> bool {
        let slot = trace.slot_at(now);
        if self.slot == Some(slot) {
            return false;
        }
        let n = trace.num_nodes();
        self.bits.clear();
        self.bits.extend_from_slice(trace.column(slot));
        self.online.clear();
        self.online
            .extend(ones(self.bits.iter().copied()).map(|i| i as u32));
        if self.by_availability.len() != n {
            let mut ranked: Vec<(Availability, u32)> = (0..n as u32)
                .map(|i| (trace.long_term_availability(i as usize), i))
                .collect();
            ranked.sort_unstable();
            self.by_availability = ranked.into_iter().map(|(_, i)| i).collect();
        }
        let up = self
            .by_availability
            .iter()
            .filter(|&&i| test_bit(&self.bits, i as usize));
        self.availabilities.clear();
        self.availabilities
            .extend(up.map(|&i| trace.long_term_availability(i as usize)));
        self.slot = Some(slot);
        true
    }

    /// The trace slot the index stands at (`None` before the first
    /// [`OnlineIndex::refresh`]).
    pub fn slot(&self) -> Option<usize> {
        self.slot
    }

    /// Whether node `i` is online in the cached slot — what
    /// [`ChurnTrace::is_online`] says at any instant of it. `false` for
    /// an `i` outside the population and before the first refresh.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        test_bit(&self.bits, i)
    }

    /// The online node indices, ascending. Empty before the first
    /// [`OnlineIndex::refresh`].
    pub fn online(&self) -> &[u32] {
        &self.online
    }

    /// The long-term availabilities of the online nodes, ascending (one
    /// entry per node of [`OnlineIndex::online`], in another order).
    /// Empty before the first [`OnlineIndex::refresh`].
    pub fn availabilities(&self) -> &[Availability] {
        &self.availabilities
    }

    /// Number of online nodes in the cached slot.
    pub fn len(&self) -> usize {
        self.online.len()
    }

    /// Whether no node is online (or the index was never refreshed).
    pub fn is_empty(&self) -> bool {
        self.online.is_empty()
    }

    /// Samples up to `k` *distinct* online nodes other than `exclude`,
    /// uniformly, into `out` (cleared first).
    ///
    /// Cost is `O(k)` expected draws via rejection against the cached
    /// slice — independent of the population size — except when fewer
    /// than `k` candidates exist, in which case all of them are returned
    /// (in ascending order) without consuming randomness.
    pub fn sample_excluding<R: Rng>(
        &self,
        rng: &mut R,
        k: usize,
        exclude: usize,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        if k == 0 {
            return;
        }
        let candidates = self.online.len() - usize::from(self.contains(exclude));
        if candidates <= k {
            out.extend(self.online.iter().copied().filter(|&i| i as usize != exclude));
            return;
        }
        while out.len() < k {
            let pick = self.online[rng.index(self.online.len())];
            if pick as usize == exclude || out.contains(&pick) {
                continue;
            }
            out.push(pick);
        }
    }
}

/// Bit `i` of `bits`; `false` beyond them.
#[inline]
fn test_bit(bits: &[u64], i: usize) -> bool {
    bits.get(i / 64)
        .is_some_and(|word| word >> (i % 64) & 1 != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overnet::OvernetModel;
    use avmem_sim::SimDuration;
    use avmem_util::SplitMix64;

    fn trace() -> ChurnTrace {
        OvernetModel::default().hosts(80).days(1).generate(11)
    }

    /// What [`OnlineIndex::availabilities`] must hold at `now`, from the
    /// trace alone.
    fn sorted_online_availabilities(t: &ChurnTrace, now: SimTime) -> Vec<Availability> {
        let mut column: Vec<Availability> = t
            .online_at(now)
            .into_iter()
            .map(|i| t.long_term_availability(i))
            .collect();
        column.sort_unstable();
        column
    }

    #[test]
    fn matches_online_at_across_slots() {
        let t = trace();
        let mut index = OnlineIndex::new();
        for s in 0..t.num_slots() {
            let now = SimTime::from_millis(s as u64 * t.slot_duration().as_millis());
            index.refresh(&t, now);
            let cached: Vec<usize> = index.online().iter().map(|&i| i as usize).collect();
            assert_eq!(cached, t.online_at(now), "slot {s}");
            assert_eq!(index.len(), t.online_count_at(now));
            assert_eq!(
                index.availabilities(),
                sorted_online_availabilities(&t, now),
                "slot {s}"
            );
        }
    }

    #[test]
    fn refresh_is_a_no_op_within_a_slot() {
        let t = trace();
        let mut index = OnlineIndex::new();
        assert!(index.refresh(&t, SimTime::ZERO));
        // Any instant inside the same slot: cache untouched.
        assert!(!index.refresh(&t, SimTime::ZERO + SimDuration::from_mins(19)));
        // Next slot: rebuilt.
        assert!(index.refresh(&t, SimTime::ZERO + SimDuration::from_mins(20)));
    }

    #[test]
    fn sample_is_distinct_and_excludes() {
        let t = trace();
        let mut index = OnlineIndex::new();
        index.refresh(&t, SimTime::ZERO);
        let exclude = index.online()[0] as usize;
        let mut rng = SplitMix64::new(5);
        let mut out = Vec::new();
        for _ in 0..50 {
            index.sample_excluding(&mut rng, 3, exclude, &mut out);
            assert_eq!(out.len(), 3.min(index.len().saturating_sub(1)));
            let mut sorted = out.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), out.len(), "duplicates in {out:?}");
            assert!(out.iter().all(|&i| i as usize != exclude));
            assert!(out.iter().all(|&i| index.online().contains(&i)));
        }
    }

    #[test]
    fn sample_returns_everything_when_short() {
        let t = ChurnTrace::from_rows(
            SimDuration::from_mins(20),
            vec![
                vec![true],
                vec![true],
                vec![false],
                vec![true],
            ],
        );
        let mut index = OnlineIndex::new();
        index.refresh(&t, SimTime::ZERO);
        let mut rng = SplitMix64::new(1);
        let mut out = Vec::new();
        index.sample_excluding(&mut rng, 5, 0, &mut out);
        assert_eq!(out, vec![1, 3]);
        index.sample_excluding(&mut rng, 5, 7, &mut out);
        assert_eq!(out, vec![0, 1, 3]);
    }

    #[test]
    fn availabilities_keep_ties_and_empty_with_the_slot() {
        // Nodes 0 and 2 tie at 1/3, node 3 is never up; nobody is up in
        // slot 1.
        let t = ChurnTrace::from_rows(
            SimDuration::from_mins(20),
            vec![
                vec![true, false, false],
                vec![true, false, true],
                vec![false, false, true],
                vec![false, false, false],
            ],
        );
        let av = |i| t.long_term_availability(i);
        let mut index = OnlineIndex::new();
        index.refresh(&t, SimTime::ZERO);
        assert_eq!(index.availabilities(), [av(0), av(1)]);
        index.refresh(&t, SimTime::ZERO + SimDuration::from_mins(20));
        assert!(index.availabilities().is_empty());
        index.refresh(&t, SimTime::ZERO + SimDuration::from_mins(40));
        assert_eq!(index.availabilities(), [av(2), av(1)]);
        assert_eq!(av(0), av(2));
    }

    #[test]
    fn sample_zero_is_empty() {
        let t = trace();
        let mut index = OnlineIndex::new();
        index.refresh(&t, SimTime::ZERO);
        let mut rng = SplitMix64::new(2);
        let mut out = vec![9];
        index.sample_excluding(&mut rng, 0, 0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn unrefreshed_index_is_empty() {
        let index = OnlineIndex::new();
        assert!(index.is_empty());
        assert_eq!(index.online(), &[] as &[u32]);
        assert!(index.availabilities().is_empty());
        assert_eq!(index.slot(), None);
        assert!((0..200).all(|i| !index.contains(i)));
    }

    #[test]
    fn contains_matches_the_trace_across_every_slot_boundary() {
        // 80 hosts: a last word of 16 live bits. Each slot is entered at
        // its first millisecond, revisited mid-slot and left at its last —
        // a refresh that rebuilds, two that must not — and the walk runs
        // past the end of the trace, where the last slot holds.
        let t = trace();
        let n = t.num_nodes();
        let slot_ms = t.slot_duration().as_millis();
        let mut index = OnlineIndex::new();
        for s in 0..t.num_slots() as u64 + 2 {
            for (offset, rebuilds) in [(0, true), (slot_ms / 2, false), (slot_ms - 1, false)] {
                let now = SimTime::from_millis(s * slot_ms + offset);
                let crossed = s < t.num_slots() as u64 && rebuilds;
                assert_eq!(index.refresh(&t, now), crossed, "slot {s} + {offset} ms");
                assert!(!index.refresh(&t, now), "a repeated refresh is a no-op");
                assert_eq!(index.slot(), Some(t.slot_at(now)));
                for i in 0..n {
                    assert_eq!(index.contains(i), t.is_online(i, now), "node {i} slot {s}");
                }
                assert!(
                    (n..n + 130).all(|i| !index.contains(i)),
                    "beyond the population"
                );
                assert!(!index.contains(usize::MAX));
            }
        }
    }

    proptest::proptest! {
        /// Any walk over the trace — forwards, backwards, jumping slots —
        /// leaves the bitset, the list and the availability column saying
        /// the same as the trace.
        #[test]
        fn contains_follows_arbitrary_refreshes(
            hosts in 1usize..140,
            seed in proptest::prelude::any::<u64>(),
            instants in proptest::collection::vec(0u64..30 * 3_600_000, 1..12),
        ) {
            let t = OvernetModel::default().hosts(hosts).days(1).generate(seed);
            let mut index = OnlineIndex::new();
            for ms in instants {
                let now = SimTime::from_millis(ms);
                index.refresh(&t, now);
                for i in 0..hosts + 70 {
                    let expected = i < hosts && t.is_online(i, now);
                    proptest::prop_assert_eq!(index.contains(i), expected);
                }
                let listed: Vec<usize> = (0..hosts).filter(|&i| index.contains(i)).collect();
                let cached: Vec<usize> = index.online().iter().map(|&i| i as usize).collect();
                proptest::prop_assert_eq!(listed, cached);
                proptest::prop_assert_eq!(
                    index.availabilities(),
                    sorted_online_availabilities(&t, now)
                );
            }
        }
    }
}
