//! A keyed consistent-hash ring with virtual points.
//!
//! The AVMON monitor assignment of the seed implementation evaluates the
//! paper's hash predicate over all N² ordered pairs — 32 s of SHA-256 at
//! 10⁴ hosts and hopeless beyond. A consistent-hash ring replaces that
//! with structure: every member owns `vnodes` pseudo-random points on the
//! `u128` circle, a lookup walks clockwise from its own point to the next
//! owners, and a join or leave only perturbs the arcs adjacent to the
//! touched points. Assignment queries become `O(log P)` (`P` = ring
//! points) and membership changes are local repairs instead of global
//! rebuilds.
//!
//! Points come from [`crate::consistent_point_keyed`], the 128-bit sibling of
//! the pairwise hash the rest of the workspace already uses, so rings in
//! different roles (say monitor placement vs target lookup) stay
//! independent by domain key. Members are compact `u32` indexes — the
//! same representation the hot columnar structures use at 10⁶ hosts.
//!
//! # Examples
//!
//! ```
//! use avmem_util::ring::HashRing;
//!
//! let mut ring = HashRing::new(b"demo", 4);
//! for member in 0..10u32 {
//!     ring.insert(member);
//! }
//! assert_eq!(ring.len(), 10);
//! assert_eq!(ring.points(), 40);
//!
//! // Three distinct owners clockwise from an arbitrary point.
//! let owners = ring.distinct_successors(42, 3, None);
//! assert_eq!(owners.len(), 3);
//!
//! // Removing an uninvolved member leaves the lookup unchanged.
//! let absent = (0..10u32).find(|m| !owners.contains(m)).unwrap();
//! ring.remove(absent);
//! assert_eq!(ring.distinct_successors(42, 3, None), owners);
//! ```

use std::collections::BTreeMap;

use crate::hash::{consistent_point_keyed, consistent_point_keyed_batch};
use crate::NodeId;

/// A consistent-hash ring: `vnodes` points per member on the `u128`
/// circle, keyed by a domain tag so independent rings do not correlate.
///
/// Lookups walk clockwise (ascending points, wrapping at the top) and
/// report point *owners*; [`HashRing::distinct_successors`] collects the
/// first `k` distinct owners, which is exactly the "a target's monitors
/// are its k distinct ring successors" rule of the ring assignment
/// strategy.
#[derive(Debug, Clone)]
pub struct HashRing {
    key: Vec<u8>,
    vnodes: u32,
    /// point → owning member. `BTreeMap` gives `O(log P)` insert/remove
    /// and ordered range scans for the clockwise walk.
    ring: BTreeMap<u128, u32>,
    members: usize,
}

impl HashRing {
    /// Creates an empty ring under the given domain `key` with `vnodes`
    /// virtual points per member.
    ///
    /// # Panics
    ///
    /// Panics if `vnodes == 0` — a member with no points would own
    /// nothing and silently vanish from every lookup.
    pub fn new(key: &[u8], vnodes: u32) -> Self {
        assert!(vnodes > 0, "a ring member needs at least one point");
        HashRing {
            key: key.to_vec(),
            vnodes,
            ring: BTreeMap::new(),
            members: 0,
        }
    }

    /// A ring holding `members` — the ring [`HashRing::insert`] builds
    /// member by member, with all `members × vnodes` points hashed in one
    /// batch and the map built from the sorted run. Repeated members count
    /// once.
    ///
    /// # Panics
    ///
    /// As [`HashRing::new`] and, on a point collision, [`HashRing::insert`].
    pub fn with_members<I>(key: &[u8], vnodes: u32, members: I) -> Self
    where
        I: IntoIterator<Item = u32>,
    {
        let mut ring = HashRing::new(key, vnodes);
        let mut members: Vec<u32> = members.into_iter().collect();
        members.sort_unstable();
        members.dedup();
        let per_member = vnodes as usize;
        let mut points = vec![0u128; members.len() * per_member];
        consistent_point_keyed_batch(
            key,
            (0..points.len()).map(|i| {
                let (member, vnode) = (members[i / per_member], i % per_member);
                (NodeId::new(u64::from(member)), NodeId::new(vnode as u64))
            }),
            &mut points,
        );
        let mut placed: Vec<(u128, u32)> = points
            .iter()
            .enumerate()
            .map(|(i, &point)| (point, members[i / per_member]))
            .collect();
        // Stable, so of two members on one point the lower — the one a
        // member-by-member build in ascending order inserts first — is
        // named first, as `insert` names them.
        placed.sort_by_key(|&(point, _)| point);
        for pair in placed.windows(2) {
            if pair[0].0 == pair[1].0 {
                panic!(
                    "ring point collision between members {} and {}",
                    pair[0].1, pair[1].1
                );
            }
        }
        ring.ring = placed.into_iter().collect();
        ring.members = members.len();
        ring
    }

    /// Virtual points per member.
    pub fn vnodes(&self) -> u32 {
        self.vnodes
    }

    /// Number of members currently on the ring.
    pub fn len(&self) -> usize {
        self.members
    }

    /// Whether the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.members == 0
    }

    /// Total points on the ring (`len() * vnodes`).
    pub fn points(&self) -> usize {
        self.ring.len()
    }

    /// The `vnodes` circle points `member` owns (present on the ring or
    /// not — the placement is a pure function of key, member and vnode
    /// index, which is what makes the ring *consistent*).
    pub fn member_points(&self, member: u32) -> Vec<u128> {
        let member = NodeId::new(u64::from(member));
        let mut points = vec![0; self.vnodes as usize];
        consistent_point_keyed_batch(
            &self.key,
            (0..self.vnodes).map(|v| (member, NodeId::new(u64::from(v)))),
            &mut points,
        );
        points
    }

    /// Whether `member` is currently on the ring. Hashes the one point it
    /// reads, not all `vnodes`.
    pub fn contains(&self, member: u32) -> bool {
        let first =
            consistent_point_keyed(&self.key, NodeId::new(u64::from(member)), NodeId::new(0));
        self.ring.get(&first) == Some(&member)
    }

    /// Adds `member`'s points to the ring. Returns `false` (and changes
    /// nothing) if the member is already present.
    ///
    /// # Panics
    ///
    /// Panics if one of the member's points collides with a different
    /// member's point — with 128-bit points this is astronomically
    /// unlikely and indicates a broken hash, not bad luck.
    pub fn insert(&mut self, member: u32) -> bool {
        let points = self.member_points(member);
        self.insert_points(member, &points)
    }

    /// [`HashRing::insert`] for a caller that already holds
    /// [`member_points(member)`](HashRing::member_points) — a join that
    /// also walks the windows around those points hashes them once.
    ///
    /// # Panics
    ///
    /// As [`HashRing::insert`]; also if `points` is not `vnodes` long.
    /// Passing another member's points is a caller bug (debug-asserted).
    pub fn insert_points(&mut self, member: u32, points: &[u128]) -> bool {
        self.check_points(member, points);
        if self.ring.get(&points[0]) == Some(&member) {
            return false;
        }
        for &point in points {
            if let Some(&other) = self.ring.get(&point) {
                panic!("ring point collision between members {other} and {member}");
            }
            self.ring.insert(point, member);
        }
        self.members += 1;
        true
    }

    /// Removes `member`'s points from the ring. Returns `false` if the
    /// member was not present.
    pub fn remove(&mut self, member: u32) -> bool {
        let points = self.member_points(member);
        self.remove_points(member, &points)
    }

    /// [`HashRing::remove`] for a caller that already holds
    /// [`member_points(member)`](HashRing::member_points); see
    /// [`HashRing::insert_points`].
    ///
    /// # Panics
    ///
    /// Panics if `points` is not `vnodes` long.
    pub fn remove_points(&mut self, member: u32, points: &[u128]) -> bool {
        self.check_points(member, points);
        if self.ring.get(&points[0]) != Some(&member) {
            return false;
        }
        for point in points {
            let owner = self.ring.remove(point);
            debug_assert_eq!(owner, Some(member));
        }
        self.members -= 1;
        true
    }

    fn check_points(&self, member: u32, points: &[u128]) {
        assert_eq!(
            points.len(),
            self.vnodes as usize,
            "a member has `vnodes` points"
        );
        debug_assert_eq!(
            points,
            self.member_points(member),
            "not member {member}'s points"
        );
    }

    /// Owners of ring points clockwise from `point` (inclusive), wrapping
    /// at the top of the circle; every point is visited exactly once, so
    /// the iterator yields [`points()`](HashRing::points) items with
    /// members repeating once per vnode.
    pub fn successors(&self, point: u128) -> impl Iterator<Item = u32> + '_ {
        self.ring
            .range(point..)
            .chain(self.ring.range(..point))
            .map(|(_, &member)| member)
    }

    /// The first `k` *distinct* owners clockwise from `point`, skipping
    /// `exclude` — the ring assignment rule (a node never monitors
    /// itself). Returns fewer than `k` members when the ring (minus the
    /// exclusion) holds fewer.
    pub fn distinct_successors(&self, point: u128, k: usize, exclude: Option<u32>) -> Vec<u32> {
        let mut owners = Vec::with_capacity(k);
        for member in self.successors(point) {
            if Some(member) == exclude || owners.contains(&member) {
                continue;
            }
            owners.push(member);
            if owners.len() == k {
                break;
            }
        }
        owners
    }

    /// Walks counter-clockwise from `point` (exclusive) until `distinct`
    /// distinct owners have been seen and returns the ring point where
    /// the last of them was found — the start of the arc that any
    /// clockwise `distinct`-owner walk ending before `point` must leave.
    ///
    /// This is the delta-window primitive for incremental join/leave: a
    /// lookup whose own point lies strictly *before* the returned point
    /// (in counter-clockwise distance from `point`) resolves all of its
    /// owners without ever reaching `point`, so a membership change at
    /// `point` cannot affect it. Returns `None` when the whole ring holds
    /// fewer than `distinct` distinct owners (every lookup is affected).
    pub fn predecessor_window_start(&self, point: u128, distinct: usize) -> Option<u128> {
        let mut seen: Vec<u32> = Vec::with_capacity(distinct);
        let backward = self
            .ring
            .range(..point)
            .rev()
            .chain(self.ring.range(point..).rev());
        for (&p, &member) in backward {
            if p == point {
                // Fully wrapped back to the origin without finding
                // `distinct` owners elsewhere on the ring.
                break;
            }
            if !seen.contains(&member) {
                seen.push(member);
                if seen.len() == distinct {
                    return Some(p);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_with(members: u32, vnodes: u32) -> HashRing {
        let mut ring = HashRing::new(b"test-ring", vnodes);
        for m in 0..members {
            assert!(ring.insert(m));
        }
        ring
    }

    #[test]
    fn insert_and_remove_track_membership() {
        let mut ring = ring_with(8, 3);
        assert_eq!(ring.len(), 8);
        assert_eq!(ring.points(), 24);
        assert!(ring.contains(5));
        assert!(!ring.insert(5), "double insert must be a no-op");
        assert_eq!(ring.points(), 24);
        assert!(ring.remove(5));
        assert!(!ring.contains(5));
        assert!(!ring.remove(5), "double remove must be a no-op");
        assert_eq!(ring.len(), 7);
        assert_eq!(ring.points(), 21);
    }

    #[test]
    fn bulk_build_and_points_forms_give_the_member_by_member_ring() {
        // Out of order, with a repeat: the ring is a function of the set.
        let members = [17u32, 3, 29, 3, 0, 8, 21, 35, 12, 30, 1, 26];
        let bulk = HashRing::with_members(b"test-ring", 4, members);
        let mut stepped = HashRing::new(b"test-ring", 4);
        for m in members {
            stepped.insert(m);
        }
        let same = |a: &HashRing, b: &HashRing| {
            assert_eq!(a.ring, b.ring);
            assert_eq!(a.len(), b.len());
            for i in 0..200u128 {
                let probe = i.wrapping_mul(u128::MAX / 201);
                assert_eq!(
                    a.distinct_successors(probe, 4, Some(3)),
                    b.distinct_successors(probe, 4, Some(3))
                );
            }
        };
        same(&bulk, &stepped);
        assert_eq!(bulk.len(), 11);
        for m in 0..40u32 {
            assert_eq!(bulk.contains(m), members.contains(&m), "member {m}");
            assert_eq!(
                bulk.contains(m),
                bulk.ring.get(&bulk.member_points(m)[0]) == Some(&m)
            );
        }

        // The points-in-hand forms are `insert` / `remove`, no-ops included.
        let (mut passed, mut hashed) = (bulk.clone(), bulk);
        for m in [5u32, 17, 5, 40, 17] {
            let points = passed.member_points(m);
            assert_eq!(
                passed.insert_points(m, &points),
                hashed.insert(m),
                "insert {m}"
            );
            same(&passed, &hashed);
        }
        for m in [29u32, 5, 29, 2] {
            let points = passed.member_points(m);
            assert_eq!(
                passed.remove_points(m, &points),
                hashed.remove(m),
                "remove {m}"
            );
            assert!(!passed.contains(m));
            same(&passed, &hashed);
        }
        same(
            &HashRing::with_members(b"e", 2, []),
            &HashRing::new(b"e", 2),
        );
    }

    #[test]
    fn placement_is_consistent() {
        let a = ring_with(20, 4);
        let b = ring_with(20, 4);
        for probe in [0u128, 1, u128::MAX / 3, u128::MAX] {
            assert_eq!(
                a.distinct_successors(probe, 5, None),
                b.distinct_successors(probe, 5, None)
            );
        }
        assert_eq!(a.member_points(7), b.member_points(7));
    }

    #[test]
    fn distinct_successors_are_distinct_and_respect_exclusion() {
        let ring = ring_with(12, 4);
        for probe in 0..40u128 {
            let probe = probe.wrapping_mul(u128::MAX / 41);
            let owners = ring.distinct_successors(probe, 4, Some(3));
            assert_eq!(owners.len(), 4);
            assert!(!owners.contains(&3));
            let mut dedup = owners.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), owners.len());
        }
    }

    #[test]
    fn lookup_wraps_around_the_top_of_the_circle() {
        let ring = ring_with(6, 2);
        let first_owner = *ring.ring.values().next().unwrap();
        // A probe past the last point must wrap to the first point.
        let last_point = *ring.ring.keys().next_back().unwrap();
        if last_point < u128::MAX {
            let wrapped = ring.distinct_successors(last_point + 1, 1, None);
            assert_eq!(wrapped, vec![first_owner]);
        }
    }

    #[test]
    fn removal_only_reroutes_lookups_owned_by_the_removed_member() {
        let mut ring = ring_with(30, 4);
        let probes: Vec<u128> = (0..200u128).map(|i| i.wrapping_mul(u128::MAX / 201)).collect();
        let before: Vec<Vec<u32>> = probes
            .iter()
            .map(|&p| ring.distinct_successors(p, 1, None))
            .collect();
        ring.remove(11);
        for (probe, owners) in probes.iter().zip(&before) {
            let after = ring.distinct_successors(*probe, 1, None);
            if owners == &vec![11] {
                assert_ne!(after, vec![11]);
            } else {
                assert_eq!(&after, owners, "unrelated lookup moved");
            }
        }
    }

    #[test]
    fn vnodes_spread_load() {
        // With enough virtual points the busiest member's share of the
        // circle stays within a small factor of the mean.
        let ring = ring_with(40, 16);
        let probes = 4000u128;
        let mut load = [0u32; 40];
        for i in 0..probes {
            let p = i.wrapping_mul(u128::MAX / (probes + 1));
            load[ring.distinct_successors(p, 1, None)[0] as usize] += 1;
        }
        let mean = probes as f64 / 40.0;
        let max = *load.iter().max().unwrap() as f64;
        assert!(max < mean * 3.0, "max load {max} vs mean {mean}");
    }

    #[test]
    fn predecessor_window_bounds_the_distinct_walk() {
        let ring = ring_with(25, 4);
        for i in 0..50u128 {
            let point = i.wrapping_mul(u128::MAX / 51);
            let start = ring
                .predecessor_window_start(point, 5)
                .expect("25 members hold 5 distinct owners");
            assert!(ring.ring.contains_key(&start));
            // Walking clockwise from the window start must reach 5
            // distinct owners at or before `point`'s predecessor arc —
            // i.e. the arc [start, point) contains exactly 5 owners.
            let mut seen: Vec<u32> = Vec::new();
            for m in ring.successors(start) {
                if !seen.contains(&m) {
                    seen.push(m);
                }
                if seen.len() == 5 {
                    break;
                }
            }
            assert_eq!(seen.len(), 5);
        }
    }

    #[test]
    fn small_rings_report_exhaustion() {
        let ring = ring_with(3, 2);
        assert_eq!(ring.distinct_successors(0, 5, None).len(), 3);
        assert_eq!(ring.distinct_successors(0, 5, Some(1)).len(), 2);
        assert!(ring.predecessor_window_start(77, 4).is_none());
        let empty = HashRing::new(b"empty", 2);
        assert!(empty.distinct_successors(0, 3, None).is_empty());
        assert!(empty.predecessor_window_start(0, 1).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn zero_vnodes_is_rejected() {
        let _ = HashRing::new(b"bad", 0);
    }
}
