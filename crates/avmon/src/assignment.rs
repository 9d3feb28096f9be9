//! Consistent monitor assignment strategies.
//!
//! AVMON's contribution (leveraged as a black box by AVMEM) is selecting,
//! for every node `x`, a small random-but-*consistent* set of monitor
//! nodes. Consistency means the relation is a pure function of identities
//! and membership, so a selfish node can neither choose its monitors nor
//! deny the relationship; randomness (via the hash) spreads monitoring
//! load uniformly. Two strategies implement that contract:
//!
//! * [`AllPairsAssignment`] — the paper's original rule: `m` monitors `x`
//!   iff `H(id(m), id(x)) ≤ cms / N*`. The reference for randomness and
//!   consistency, but discovering a node's monitors costs a population
//!   scan and building all monitor sets costs O(N²) hashes.
//! * [`RingAssignment`] — a consistent-hash ring: monitors sit on a keyed
//!   [`HashRing`] with virtual points, every target owns a lookup point,
//!   and a target's monitors are its `k` distinct clockwise ring
//!   successors. Build drops to O(N log N), and a membership change
//!   perturbs only the arcs next to the changed points —
//!   [`RingAssignment::join`] / [`RingAssignment::leave`] return the
//!   affected targets as an O(k)-sized delta instead of forcing a global
//!   rebuild.
//!
//! The service keeps whichever one its
//! [`AssignmentChoice`](crate::AssignmentChoice) names beside the monitor
//! index that strategy lays out.
//!
//! The hashes are drawn from keyed families (domain tags `"avmon"` and
//! `"avmon-ring"`) so both strategies are independent of the AVMEM
//! membership predicate's hash and of each other.

use avmem_util::ring::take_distinct;
use avmem_util::{
    consistent_hash_keyed, consistent_hash_keyed_batch, consistent_hash_keyed_pair_batch,
    consistent_point_keyed_batch, HashRing, NodeId,
};
use serde::{Deserialize, Serialize};

const DOMAIN: &[u8] = b"avmon";
/// Domain key of the monitor ring (member placement points).
const RING_DOMAIN: &[u8] = b"avmon-ring";
/// A vacant slot of a fixed-width monitor row: the ring holds fewer
/// than `k` members besides the row's target.
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

/// Ring-based monitor assignment with O(k) incremental membership.
///
/// Monitors own `vnodes` points each on a keyed [`HashRing`]; every
/// target (member or not — offline nodes keep being monitored, which is
/// how downtime gets measured) owns one fixed lookup point, and its
/// monitors are the first `k` distinct ring members clockwise from that
/// point, never itself. The assignment is a pure function of the member
/// set, so any party evaluating it agrees — the consistency property the
/// paper's selfishness analysis rests on.
///
/// [`RingAssignment::join`] and [`RingAssignment::leave`] update the
/// member set and return the targets whose monitor sets *may* have
/// changed: a conservative window of O(k + vnodes) expected size found
/// by walking the ring backwards from each touched point, instead of
/// the O(N) rescan the all-pairs rule would need.
///
/// # Examples
///
/// ```
/// use avmem_avmon::RingAssignment;
///
/// let mut ring = RingAssignment::new(100, 8, 4, 0..100u32);
/// let before = ring.monitors_of_index(17);
/// assert_eq!(before.len(), 4);
///
/// // A leave only disturbs the arcs next to the leaver's points.
/// let affected = ring.leave(42);
/// assert!(affected.len() < 100);
/// for t in 0..100u32 {
///     assert!(!ring.monitors_of_index(t).contains(&42));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct RingAssignment {
    k: u32,
    ring: HashRing,
    /// Target indexes sorted by lookup point, aligned with
    /// `sorted_points` — the range structure behind the delta windows.
    order: Vec<u32>,
    sorted_points: Vec<u128>,
    /// Where each target sits in `order`: target `t`'s lookup point is
    /// `sorted_points[rank[t]]`, stored once.
    rank: Vec<u32>,
}

impl RingAssignment {
    /// Builds the assignment for a population of `n` targets (indexes
    /// `0..n`), with `vnodes` ring points per monitor and `k` monitors
    /// per target. `members` is the initial monitor membership (typically
    /// the currently-online nodes). O(N log N).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `vnodes == 0`, `n` exceeds `u32`, or a member
    /// index is out of `0..n`.
    pub fn new<I>(n: usize, vnodes: u32, k: u32, members: I) -> Self
    where
        I: IntoIterator<Item = u32>,
    {
        assert!(k > 0, "a target needs at least one monitor");
        let n_u32 = u32::try_from(n).expect("population exceeds the u32 index width");
        let mut points = vec![0u128; n];
        consistent_point_keyed_batch(
            RING_TARGET_DOMAIN,
            (0..n_u32).map(|t| (NodeId::new(u64::from(t)), NodeId::new(0))),
            &mut points,
        );
        let mut placed: Vec<(u128, u32)> = points.into_iter().zip(0..n_u32).collect();
        placed.sort_unstable();
        let (sorted_points, order): (Vec<u128>, Vec<u32>) = placed.into_iter().unzip();
        let mut rank = vec![0u32; n];
        for (r, &t) in order.iter().enumerate() {
            rank[t as usize] = r as u32;
        }
        let ring = HashRing::with_members(
            RING_DOMAIN,
            vnodes,
            members.into_iter().inspect(|&m| {
                assert!(m < n_u32, "member {m} outside the population 0..{n}");
            }),
        );
        RingAssignment {
            k,
            ring,
            order,
            sorted_points,
            rank,
        }
    }

    /// Monitors per target.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Virtual ring points per monitor.
    pub fn vnodes(&self) -> u32 {
        self.ring.vnodes()
    }

    /// Whether `member` is currently on the ring.
    pub fn is_member(&self, member: u32) -> bool {
        self.ring.contains(member)
    }

    /// The monitors of `target`: its `k` distinct ring successors,
    /// excluding itself, in clockwise walk order. Fewer than `k` when
    /// the ring holds fewer (other) members.
    pub fn monitors_of_index(&self, target: u32) -> Vec<u32> {
        self.ring.distinct_successors(
            self.sorted_points[self.rank[target as usize] as usize],
            self.k as usize,
            Some(target),
        )
    }

    /// Every target's monitors as fixed-width rows: row `t` is
    /// `rows[t * k..(t + 1) * k]`, holding
    /// [`monitors_of_index(t)`](RingAssignment::monitors_of_index) in walk
    /// order and [`NO_MONITOR`] in the slots the ring cannot fill. One
    /// sweep: targets in lookup-point order, each walk starting at a
    /// cursor that only moves forward through the ring's sorted run, where
    /// a lookup per target would search the ring map again. O(N·k + P).
    pub fn monitor_rows(&self) -> Vec<u32> {
        let k = self.k as usize;
        let mut rows = vec![NO_MONITOR; self.order.len() * k];
        let (points, owners): (Vec<u128>, Vec<u32>) = self.ring.run().unzip();
        let mut cursor = 0;
        for (&lookup, &target) in self.sorted_points.iter().zip(&self.order) {
            while points.get(cursor).is_some_and(|&p| p < lookup) {
                cursor += 1;
            }
            // Clockwise from the lookup point, wrapping at the top.
            let walk = owners[cursor..].iter().chain(&owners[..cursor]).copied();
            let t = target as usize;
            take_distinct(walk, Some(target), &mut rows[t * k..(t + 1) * k]);
        }
        rows
    }

    /// Adds `member` to the ring and returns the targets whose monitor
    /// sets may have changed, ascending and deduplicated. No-op (empty
    /// delta) if the member is already present.
    pub fn join(&mut self, member: u32) -> Vec<u32> {
        let points = self.ring.member_points(member);
        if !self.ring.insert_points(member, &points) {
            return Vec::new();
        }
        self.affected_by(&points)
    }

    /// Removes `member` from the ring and returns the targets whose
    /// monitor sets may have changed, ascending and deduplicated. No-op
    /// (empty delta) if the member was not present.
    ///
    /// The windows are computed *before* the points disappear — they
    /// bound the walks that used to end at the removed points.
    pub fn leave(&mut self, member: u32) -> Vec<u32> {
        if !self.ring.contains(member) {
            return Vec::new();
        }
        let points = self.ring.member_points(member);
        let affected = self.affected_by(&points);
        self.ring.remove_points(member, &points);
        affected
    }

    /// Targets whose clockwise `k`-distinct-successor walk can reach one
    /// of `points`, a member's ring points: for each point `p`, the
    /// window extends counter-clockwise until `k + 2` distinct owners
    /// have been passed (`+2` covers the target's self-exclusion and the
    /// member itself owning other points in the arc) — any target further
    /// back resolves all `k` monitors before reaching `p`, changed or not.
    fn affected_by(&self, points: &[u128]) -> Vec<u32> {
        let distinct = self.k as usize + 2;
        let mut affected: Vec<u32> = Vec::new();
        for &p in points {
            match self.ring.predecessor_window_start(p, distinct) {
                Some(start) => self.targets_in_arc(start, p, &mut affected),
                None => {
                    // The ring is too small to bound the walk: every
                    // target's monitor set is up for grabs.
                    return (0..self.order.len() as u32).collect();
                }
            }
        }
        affected.sort_unstable();
        affected.dedup();
        affected
    }

    /// Appends the targets with lookup points in the clockwise arc
    /// `(from, to]` (wrap-aware) to `out`.
    fn targets_in_arc(&self, from: u128, to: u128, out: &mut Vec<u32>) {
        let lo = self.sorted_points.partition_point(|&p| p <= from);
        let hi = self.sorted_points.partition_point(|&p| p <= to);
        if from < to {
            out.extend_from_slice(&self.order[lo..hi]);
        } else {
            // Wraps over the top of the circle.
            out.extend_from_slice(&self.order[lo..]);
            out.extend_from_slice(&self.order[..hi]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let ring = RingAssignment::new(200, 8, 5, 0..200u32);
        for t in 0..200u32 {
            let monitors = ring.monitors_of_index(t);
            assert_eq!(monitors.len(), 5, "target {t}");
            assert!(!monitors.contains(&t), "target {t} monitors itself");
        }
    }

    #[test]
    fn ring_join_delta_covers_every_changed_target() {
        let n = 150u32;
        let mut ring = RingAssignment::new(n as usize, 4, 4, 0..n - 1);
        let before: Vec<Vec<u32>> = (0..n).map(|t| ring.monitors_of_index(t)).collect();
        let affected = ring.join(n - 1);
        assert!(ring.is_member(n - 1));
        for t in 0..n {
            let after = ring.monitors_of_index(t);
            if after != before[t as usize] {
                assert!(
                    affected.contains(&t),
                    "target {t} changed but was not reported affected"
                );
            }
        }
        // The delta is local, not a global rebuild.
        assert!(
            affected.len() < n as usize / 2,
            "join affected {} of {n} targets",
            affected.len()
        );
    }

    #[test]
    fn ring_leave_delta_covers_every_changed_target() {
        let n = 150u32;
        let mut ring = RingAssignment::new(n as usize, 4, 4, 0..n);
        let before: Vec<Vec<u32>> = (0..n).map(|t| ring.monitors_of_index(t)).collect();
        let affected = ring.leave(77);
        assert!(!ring.is_member(77));
        for t in 0..n {
            let after = ring.monitors_of_index(t);
            if after != before[t as usize] {
                assert!(
                    affected.contains(&t),
                    "target {t} changed but was not reported affected"
                );
            }
        }
        assert!(affected.len() < n as usize / 2);
    }

    #[test]
    fn ring_join_then_leave_round_trips() {
        let mut ring = RingAssignment::new(120, 4, 4, 0..120u32);
        let before: Vec<Vec<u32>> = (0..120u32).map(|t| ring.monitors_of_index(t)).collect();
        ring.leave(60);
        ring.join(60);
        let after: Vec<Vec<u32>> = (0..120u32).map(|t| ring.monitors_of_index(t)).collect();
        assert_eq!(before, after, "assignment must be a pure function of membership");
    }

    #[test]
    fn ring_redundant_join_and_leave_are_empty_deltas() {
        let mut ring = RingAssignment::new(50, 4, 3, 0..25u32);
        assert!(ring.join(10).is_empty(), "member already present");
        assert!(ring.leave(40).is_empty(), "member already absent");
    }

    #[test]
    fn ring_offline_targets_keep_their_monitors() {
        // Targets outside the member set (offline nodes) still resolve k
        // monitors — downtime is only measurable if someone keeps
        // pinging you.
        let ring = RingAssignment::new(100, 4, 4, 0..50u32);
        for t in 50..100u32 {
            let monitors = ring.monitors_of_index(t);
            assert_eq!(monitors.len(), 4);
            assert!(monitors.iter().all(|&m| m < 50));
        }
    }

    #[test]
    fn swept_rows_wrap_past_the_top_of_the_circle() {
        // 16 ring points, 300 lookup points: some lie past the last ring
        // point, and their walks start over at the first.
        let ring = RingAssignment::new(300, 2, 3, 0..8u32);
        let (top, first) = (
            ring.ring.run().last().unwrap(),
            ring.ring.run().next().unwrap(),
        );
        let wrapping: Vec<u32> = ring
            .order
            .iter()
            .zip(&ring.sorted_points)
            .filter(|&(_, &p)| p > top.0)
            .map(|(&t, _)| t)
            .collect();
        assert!(!wrapping.is_empty(), "no lookup point past the ring's last");
        let rows = ring.monitor_rows();
        for t in 0..300u32 {
            let mut expect = ring.monitors_of_index(t);
            expect.resize(3, NO_MONITOR);
            let row = &rows[t as usize * 3..][..3];
            assert_eq!(row, &expect[..], "target {t}");
            if wrapping.contains(&t) && t != first.1 {
                assert_eq!(
                    row[0], first.1,
                    "target {t} did not wrap to the first point"
                );
            }
        }
    }

    #[test]
    fn tiny_ring_reports_every_target_affected() {
        // With fewer members than k + 2 distinct owners the delta
        // windows cannot bound the walk, so the delta degrades to "all".
        let mut ring = RingAssignment::new(30, 2, 4, 0..3u32);
        let affected = ring.join(3);
        assert_eq!(affected, (0..30u32).collect::<Vec<_>>());
    }
}
