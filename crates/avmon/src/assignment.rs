//! Consistent monitor assignment strategies.
//!
//! AVMON's contribution (leveraged as a black box by AVMEM) is selecting,
//! for every node `x`, a small random-but-*consistent* set of monitor
//! nodes. Consistency means the relation is a pure function of
//! identities, so a selfish node can neither choose its monitors nor deny
//! the relationship, and who is online never moves it; randomness (via
//! the hash) spreads monitoring load uniformly. Two strategies implement
//! that contract:
//!
//! * [`AllPairsAssignment`] — the paper's original rule: `m` monitors `x`
//!   iff `H(id(m), id(x)) ≤ cms / N*`. The reference for randomness and
//!   consistency, but discovering a node's monitors costs a population
//!   scan and building all monitor sets costs O(N²) hashes.
//! * [`ring_rows`] — a consistent-hash ring over all hosts: every host
//!   owns keyed virtual points, every target a lookup point, and a
//!   target's monitors are its `k` distinct clockwise ring successors.
//!   Building every row costs O(N·vnodes) hashes and one sweep of the
//!   sorted ring, which is then dropped: the rows are the relation.
//!
//! Either one fills the same target-major index in the service: the
//! ring at construction, all-pairs a monitor at a time, in the first
//! slot that finds it online, as its
//! [`AssignmentChoice`](crate::AssignmentChoice) names.
//!
//! The hashes are drawn from keyed families (domain tags `"avmon"` and
//! `"avmon-ring"`) so both strategies are independent of the AVMEM
//! membership predicate's hash and of each other.

use avmem_util::parallel::{default_threads, par_chunks_mut};
use avmem_util::{
    consistent_hash_keyed, consistent_hash_keyed_batch, consistent_hash_keyed_pair_batch,
    consistent_point_keyed_batch, NodeId,
};
use serde::{Deserialize, Serialize};

const DOMAIN: &[u8] = b"avmon";
/// Domain key of the monitor ring (member placement points).
const RING_DOMAIN: &[u8] = b"avmon-ring";
/// A vacant slot of a fixed-width monitor row: the population holds
/// fewer than `k` hosts besides the row's target.
pub const NO_MONITOR: u32 = u32::MAX;

/// Domain key of target lookup points — distinct from the member domain
/// so a node's lookup point never coincides with its own ring points.
const RING_TARGET_DOMAIN: &[u8] = b"avmon-ring/target";

/// The paper's all-pairs hash-threshold rule: `m` monitors `x` iff
/// `H(id(m), id(x)) ≤ cms / N*`.
///
/// # Examples
///
/// ```
/// use avmem_avmon::AllPairsAssignment;
/// use avmem_util::NodeId;
///
/// let rule = AllPairsAssignment::new(8.0, 1000.0);
/// let (m, x) = (NodeId::new(7), NodeId::new(42));
/// // The relation is consistent: any evaluation agrees.
/// assert_eq!(rule.is_monitor(m, x), rule.is_monitor(m, x));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AllPairsAssignment {
    /// Target expected number of monitors per node (`cms` in AVMON).
    cms: f64,
    /// The stable system size estimate `N*`.
    n_star: f64,
}

impl AllPairsAssignment {
    /// Creates an assignment rule with expected `cms` monitors per node
    /// in a system of `n_star` nodes.
    ///
    /// # Panics
    ///
    /// Panics unless `cms > 0` and `n_star > 0`.
    pub fn new(cms: f64, n_star: f64) -> Self {
        assert!(cms > 0.0, "cms must be positive");
        assert!(n_star > 0.0, "n_star must be positive");
        AllPairsAssignment { cms, n_star }
    }

    /// The monitor-set probability threshold `cms / N*` (capped at 1).
    pub fn threshold(&self) -> f64 {
        (self.cms / self.n_star).min(1.0)
    }

    /// Whether `monitor` is assigned to observe `target`.
    ///
    /// Consistent: depends only on the two identities.
    pub fn is_monitor(&self, monitor: NodeId, target: NodeId) -> bool {
        monitor != target && consistent_hash_keyed(DOMAIN, monitor, target) <= self.threshold()
    }

    /// The positions in `population` of the targets `monitor` observes,
    /// appended to `out` in order — [`AllPairsAssignment::is_monitor`]
    /// over a whole row, hashed in one batch. `hashes` is scratch the
    /// service reuses across the rows one slot builds.
    pub(crate) fn targets_in(
        &self,
        monitor: NodeId,
        population: &[NodeId],
        hashes: &mut Vec<f64>,
        out: &mut Vec<u32>,
    ) {
        hashes.clear();
        hashes.resize(population.len(), 0.0);
        consistent_hash_keyed_batch(DOMAIN, monitor, population.iter().copied(), hashes);
        let threshold = self.threshold();
        for (pos, (&target, &hash)) in population.iter().zip(hashes.iter()).enumerate() {
            if target != monitor && hash <= threshold {
                out.push(pos as u32);
            }
        }
    }

    /// The positions in `population` of the monitors of `target`,
    /// ascending — [`AllPairsAssignment::is_monitor`] down a whole column,
    /// hashed in one batch.
    pub(crate) fn monitors_in(&self, target: NodeId, population: &[NodeId]) -> Vec<usize> {
        let mut hashes = vec![0.0; population.len()];
        let column = population.iter().map(|&monitor| (monitor, target));
        consistent_hash_keyed_pair_batch(DOMAIN, column, &mut hashes);
        let threshold = self.threshold();
        (0..population.len())
            .filter(|&pos| population[pos] != target && hashes[pos] <= threshold)
            .collect()
    }
}

/// Every target's monitors under the consistent-hash ring, as fixed-width
/// rows: row `t` is `rows[t * k..(t + 1) * k]`.
///
/// All `n` hosts own `vnodes` points each on the circle of 96-bit
/// points, and every target owns one lookup point; a target's monitors
/// are the first `k` distinct owners clockwise from its lookup point
/// (a ring point equal to it included), never itself, in walk order,
/// with [`NO_MONITOR`] in the slots a population of `k` or fewer cannot
/// fill. The relation is a pure function of `(n, vnodes, k)` — who is
/// online never enters it, so any party evaluating it agrees, the
/// consistency the paper's selfishness analysis rests on, and an offline
/// monitor keeps its targets (it misses their pings, as under the
/// all-pairs rule).
///
/// One sweep builds every row: both point runs are sorted, and the
/// targets are visited in lookup-point order, each walk starting at a
/// cursor that only moves forward through the ring. The runs are dropped
/// on return. O(n·vnodes) hashes, on the worker pool, and O(n·k +
/// n·vnodes) after the sorts.
///
/// # Panics
///
/// Panics if `k == 0`, `vnodes == 0`, `n` exceeds `u32`, or two ring
/// points collide — with 96-bit points and even 10⁶ hosts × 1 024
/// vnodes that is a broken hash, not bad luck.
///
/// # Examples
///
/// ```
/// use avmem_avmon::{ring_rows, NO_MONITOR};
///
/// let rows = ring_rows(100, 8, 4);
/// let row = &rows[17 * 4..18 * 4];
/// assert!(!row.contains(&17) && !row.contains(&NO_MONITOR));
/// // Consistent: any evaluation agrees.
/// assert_eq!(rows, ring_rows(100, 8, 4));
/// ```
pub fn ring_rows(n: usize, vnodes: u32, k: u32) -> Vec<u32> {
    assert!(k > 0, "a target needs at least one monitor");
    assert!(vnodes > 0, "a ring member needs at least one point");
    let n_u32 = u32::try_from(n).expect("population exceeds the u32 index width");
    let lookups = sort_points(placed(RING_TARGET_DOMAIN, n_u32, 1));
    let ring = sort_ring(placed(RING_DOMAIN, n_u32, vnodes));
    let k = k as usize;
    let mut rows = vec![NO_MONITOR; n * k];
    let mut cursor = 0;
    for &lookup in &lookups {
        while ring.get(cursor).is_some_and(|&p| point(p) < point(lookup)) {
            cursor += 1;
        }
        // Clockwise from the lookup point, wrapping at the top.
        let walk = ring[cursor..].iter().chain(&ring[..cursor]).map(|&p| owner(p));
        let t = owner(lookup);
        let row = t as usize * k;
        take_distinct(walk, t, &mut rows[row..row + k]);
    }
    rows
}

/// The points of owners `0..n`, `per` each, one `u128` a pair: the
/// 96-bit point above the 32-bit owner, so that the integer order of the
/// run is its `(point, owner)` order. Owner `o`'s `v`-th point is the top
/// 96 bits of the keyed hash of `(o, v)`. Hashed straight into the run,
/// on the worker pool.
fn placed(key: &[u8], n: u32, per: u32) -> Vec<u128> {
    let per = per as usize;
    let mut run = vec![0u128; n as usize * per];
    par_chunks_mut(&mut run, 1024, default_threads(), |offset, chunk| {
        let ids = |i: usize| (NodeId::new((i / per) as u64), NodeId::new((i % per) as u64));
        consistent_point_keyed_batch(key, (offset..offset + chunk.len()).map(ids), chunk);
        for (i, slot) in (offset..).zip(chunk.iter_mut()) {
            *slot = *slot >> 32 << 32 | (i / per) as u128;
        }
    });
    run
}

/// The 96-bit point of a [`placed`] pair.
fn point(pair: u128) -> u128 {
    pair >> 32
}

/// The owner of a [`placed`] pair.
fn owner(pair: u128) -> u32 {
    pair as u32
}

/// Sorts the ring's run by point.
///
/// # Panics
///
/// Panics if two owners share a point, naming the lower owner first.
fn sort_ring(run: Vec<u128>) -> Vec<u128> {
    let run = sort_points(run);
    if let Some(pair) = run.windows(2).find(|pair| point(pair[0]) == point(pair[1])) {
        panic!(
            "ring point collision between members {} and {}",
            owner(pair[0]),
            owner(pair[1])
        );
    }
    run
}

/// `run` in ascending order, exactly as `sort_unstable` leaves it, at a
/// fraction of its cost on uniform points. The pairs are bucketed by the
/// top bits of their points, twice: in place into sixteen runs by the top
/// four bits, then each run, on the worker pool and through a scratch
/// buffer, into buckets of about four pairs by a monotone multiply-shift
/// of the next 60 bits. A `sort_unstable` per bucket orders the rest.
fn sort_points(mut run: Vec<u128>) -> Vec<u128> {
    const TOP_BITS: u32 = 4;
    let top = |pair: u128| (pair >> (128 - TOP_BITS)) as usize;
    let mut ends = [0usize; 1 << TOP_BITS];
    for &pair in &run {
        ends[top(pair)] += 1;
    }
    let mut next = ends;
    let mut total = 0;
    for (start, end) in next.iter_mut().zip(&mut ends) {
        *start = total;
        total += *end;
        *end = total;
    }
    // Each pair taken out of place is carried to the next free slot of
    // its run, and what sat there is carried on, until a pair lands home.
    for b in 0..ends.len() {
        while next[b] < ends[b] {
            let mut pair = run[next[b]];
            let mut home = top(pair);
            while home != b {
                let dest = next[home];
                next[home] += 1;
                pair = std::mem::replace(&mut run[dest], pair);
                home = top(pair);
            }
            run[next[b]] = pair;
            next[b] += 1;
        }
    }
    let mut runs = Vec::with_capacity(ends.len());
    let mut rest = &mut run[..];
    let mut start = 0;
    for end in ends {
        let (head, tail) = rest.split_at_mut(end - start);
        runs.push(head);
        rest = tail;
        start = end;
    }
    par_chunks_mut(&mut runs, 1, default_threads(), |_, chunk| {
        let (mut scratch, mut starts, mut next) = (Vec::new(), Vec::new(), Vec::new());
        for run in chunk {
            let buckets = run.len() / 4 + 1;
            let bucket = |pair: u128| {
                let below_top = ((pair >> 64) as u64) << TOP_BITS;
                ((u128::from(below_top) * buckets as u128) >> 64) as usize
            };
            starts.clear();
            starts.resize(buckets + 1, 0);
            for &pair in run.iter() {
                starts[bucket(pair) + 1] += 1;
            }
            for b in 0..buckets {
                starts[b + 1] += starts[b];
            }
            next.clone_from(&starts);
            scratch.clear();
            scratch.resize(run.len(), 0);
            for &pair in run.iter() {
                let b = bucket(pair);
                scratch[next[b]] = pair;
                next[b] += 1;
            }
            for bounds in starts.windows(2) {
                scratch[bounds[0]..bounds[1]].sort_unstable();
            }
            run.copy_from_slice(&scratch);
        }
    });
    run
}

/// The ring assignment rule over one clockwise walk: fills `row` with
/// the first `row.len()` distinct owners `owners` yields, in walk order,
/// skipping `exclude`. A walk that ends first leaves the rest of `row` as
/// it was.
fn take_distinct(owners: impl IntoIterator<Item = u32>, exclude: u32, row: &mut [u32]) {
    let mut taken = 0;
    for owner in owners {
        if taken == row.len() {
            break;
        }
        if owner != exclude && !row[..taken].contains(&owner) {
            row[taken] = owner;
            taken += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avmem_util::{Rng, SplitMix64};
    use proptest::prelude::*;

    fn ids(n: u64) -> impl Iterator<Item = NodeId> + Clone {
        (0..n).map(NodeId::new)
    }

    /// All monitors of `target` within `population`.
    fn monitors_of(
        rule: &AllPairsAssignment,
        target: NodeId,
        population: impl Iterator<Item = NodeId>,
    ) -> Vec<NodeId> {
        population.filter(|&m| rule.is_monitor(m, target)).collect()
    }

    /// All targets `monitor` observes within `population`.
    fn targets_of(
        rule: &AllPairsAssignment,
        monitor: NodeId,
        population: impl Iterator<Item = NodeId>,
    ) -> Vec<NodeId> {
        population
            .filter(|&x| rule.is_monitor(monitor, x))
            .collect()
    }

    #[test]
    fn expected_monitor_count_is_cms() {
        let n = 2000u64;
        let assignment = AllPairsAssignment::new(10.0, n as f64);
        let total: usize = ids(200)
            .map(|x| monitors_of(&assignment, x, ids(n)).len())
            .sum();
        let mean = total as f64 / 200.0;
        assert!(
            (8.0..12.0).contains(&mean),
            "mean monitor count {mean}, expected ~10"
        );
    }

    #[test]
    fn assignment_is_consistent() {
        let assignment = AllPairsAssignment::new(5.0, 100.0);
        let x = NodeId::new(3);
        let first = monitors_of(&assignment, x, ids(100));
        let second = monitors_of(&assignment, x, ids(100));
        assert_eq!(first, second);
    }

    #[test]
    fn no_self_monitoring() {
        let assignment = AllPairsAssignment::new(100.0, 100.0); // threshold 1.0
        let x = NodeId::new(9);
        let monitors = monitors_of(&assignment, x, ids(100));
        assert!(!monitors.contains(&x));
        assert_eq!(monitors.len(), 99); // everyone else qualifies
    }

    #[test]
    fn monitors_and_targets_are_duals() {
        let assignment = AllPairsAssignment::new(10.0, 300.0);
        let m = NodeId::new(17);
        let targets = targets_of(&assignment, m, ids(300));
        for &t in &targets {
            assert!(monitors_of(&assignment, t, ids(300)).contains(&m));
        }
    }

    #[test]
    fn batched_row_scan_matches_the_pairwise_rule() {
        // cms = N: threshold 1, so only the self-exclusion filters.
        for (cms, n) in [(10.0, 301u64), (300.0, 300)] {
            let rule = AllPairsAssignment::new(cms, n as f64);
            let population: Vec<NodeId> = ids(n).collect();
            let mut hashes = Vec::new();
            for &m in &population[..40] {
                let mut row = Vec::new();
                rule.targets_in(m, &population, &mut hashes, &mut row);
                let expect: Vec<u32> = (0..n as u32)
                    .filter(|&t| rule.is_monitor(m, population[t as usize]))
                    .collect();
                assert_eq!(row, expect, "monitor {m}");
            }
        }
    }

    #[test]
    fn monitoring_load_is_balanced() {
        let n = 1000u64;
        let assignment = AllPairsAssignment::new(8.0, n as f64);
        let loads: Vec<usize> = ids(n)
            .map(|m| targets_of(&assignment, m, ids(n)).len())
            .collect();
        let max = *loads.iter().max().unwrap();
        // Binomial(1000, 8/1000): max load should stay modest.
        assert!(max < 30, "max monitoring load {max}");
    }

    #[test]
    fn threshold_caps_at_one() {
        let rule = AllPairsAssignment::new(50.0, 10.0);
        assert_eq!(rule.threshold(), 1.0);
    }

    #[test]
    #[should_panic(expected = "cms must be positive")]
    fn zero_cms_panics() {
        let _ = AllPairsAssignment::new(0.0, 10.0);
    }

    #[test]
    fn ring_gives_exactly_k_monitors() {
        let rows = ring_rows(200, 8, 5);
        for (t, row) in rows.chunks(5).enumerate() {
            assert!(!row.contains(&NO_MONITOR), "target {t}: {row:?}");
            assert!(!row.contains(&(t as u32)), "target {t} monitors itself");
        }
    }

    #[test]
    fn swept_rows_wrap_past_the_top_of_the_circle() {
        // A lookup point past the last ring point starts its walk over at
        // the first; across these populations some lookup lies there.
        let mut wrapped = 0;
        for n in 2..40u32 {
            let mut ring = placed(RING_DOMAIN, n, 2);
            ring.sort_unstable();
            let (top, first) = (point(ring[ring.len() - 1]), owner(ring[0]));
            let rows = ring_rows(n as usize, 2, 1);
            for lookup in placed(RING_TARGET_DOMAIN, n, 1) {
                let t = owner(lookup);
                if point(lookup) > top && t != first {
                    assert_eq!(rows[t as usize], first, "{n} hosts, target {t}");
                    wrapped += 1;
                }
            }
        }
        assert!(wrapped > 0, "no lookup point past the ring's last");
    }

    #[test]
    fn take_distinct_fills_in_walk_order_and_stops() {
        let mut row = [NO_MONITOR; 3];
        take_distinct([4, 4, 7, 2, 7, 9, 1], 2, &mut row);
        assert_eq!(row, [4, 7, 9]);
        // A walk that ends first leaves the rest of the row as it was.
        let mut row = [NO_MONITOR; 3];
        take_distinct([5, 5, 6], 6, &mut row);
        assert_eq!(row, [5, NO_MONITOR, NO_MONITOR]);
        take_distinct([1, 2], 0, &mut []);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn zero_vnodes_is_rejected() {
        let _ = ring_rows(10, 0, 2);
    }

    #[test]
    #[should_panic(expected = "ring point collision between members 3 and 9")]
    fn a_ring_point_collision_panics() {
        let pair = |point: u128, owner: u32| point << 32 | u128::from(owner);
        sort_ring(vec![pair(5 << 70, 9), pair(7, 1), pair(5 << 70, 3), pair(1 << 95, 4)]);
    }

    /// `len` pairs with owners `0..len`: uniform 96-bit points, or points
    /// clustered into three narrow arcs — most buckets empty, a few long,
    /// and points repeated between owners.
    fn pairs(len: usize, clustered: bool, seed: u64) -> Vec<u128> {
        let mut rng = SplitMix64::new(seed);
        (0..len as u32)
            .map(|owner| {
                let point = if clustered {
                    u128::from(rng.range_u64(3)) << 94 | u128::from(rng.range_u64(64)) << 8
                } else {
                    u128::from(rng.next_u64()) << 32 | u128::from(rng.next_u64() >> 32)
                };
                point << 32 | u128::from(owner)
            })
            .collect()
    }

    proptest! {
        /// The bucketed sort is `sort_unstable`, pair for pair, over
        /// uniform points and over clustered, repeating ones.
        #[test]
        fn bucketed_sort_equals_sort_unstable(
            len in 0usize..=5_000,
            clustered in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let run = pairs(len, clustered, seed);
            let mut expect = run.clone();
            expect.sort_unstable();
            prop_assert_eq!(sort_points(run), expect);
        }
    }
}
