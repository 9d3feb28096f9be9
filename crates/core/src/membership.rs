//! AVMEM membership lists and their maintenance (§3.1 of the paper).
//!
//! Every node keeps two small lists — the horizontal sliver (HS) and
//! vertical sliver (VS) — discovered and maintained by two sub-protocols:
//!
//! * **Discovery** ([`Membership::discover`]): periodically iterate the
//!   shuffled coarse view; for each entry not already a neighbor, query
//!   the availability service and evaluate the AVMEM predicate; insert
//!   into HS or VS on success.
//! * **Refresh** ([`Membership::refresh`]): periodically re-query the
//!   availability of every existing neighbor and re-evaluate the
//!   predicate; evict entries for which `M(x, y)` has become false, and
//!   migrate entries whose sliver changed (availabilities drift over
//!   time). Refresh also re-caches each neighbor's availability — the
//!   cached values are what anycast/multicast forwarding decisions use
//!   ("node x … uses cached values of availabilities for its neighbors",
//!   §3.2).
//!
//! # Storage
//!
//! Both slivers live in one struct-of-arrays block — `ids: Vec<u32>`
//! (index-space node ids), `avs: Vec<Availability>`, and byte-packed
//! [`Stamp`]s (compact u32-millisecond added/refreshed instants) — with
//! the horizontal sliver occupying the first `hs_len` slots. That is
//! 20 bytes per neighbor instead of the 32 of the former
//! `Vec<Neighbor>` pair, the dominant term of resident-set size at 10⁶
//! hosts. The public API still speaks [`Neighbor`] (materialized on the
//! fly), except for anycast/multicast forwarding, which borrows the id
//! and availability columns as they are ([`Membership::columns`]); ids
//! above `u32::MAX` are rejected by the index-space contract.

use avmem_avmon::AvailabilityOracle;
use avmem_sim::SimTime;
use avmem_util::{Availability, NodeId};
use serde::{Deserialize, Serialize};

use crate::predicate::{AvmemPredicate, NodeInfo, Sliver};

/// Which sliver lists an operation may use (§3.2 gives each operation
/// HS-only / VS-only / HS+VS flavors).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SliverScope {
    /// Only horizontal-sliver neighbors.
    HsOnly,
    /// Only vertical-sliver neighbors.
    VsOnly,
    /// Both lists.
    Both,
}

impl SliverScope {
    /// Whether the scope includes the given sliver.
    pub fn includes(self, sliver: Sliver) -> bool {
        match self {
            SliverScope::HsOnly => sliver == Sliver::Horizontal,
            SliverScope::VsOnly => sliver == Sliver::Vertical,
            SliverScope::Both => true,
        }
    }
}

/// One entry of a sliver list.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Neighbor {
    /// The neighbor's identity.
    pub id: NodeId,
    /// The availability cached at the last discovery/refresh; forwarding
    /// decisions read this, *not* a live query (§3.2).
    pub cached_availability: Availability,
    /// When the neighbor entered the list.
    pub added_at: SimTime,
    /// When the cached availability was last validated.
    pub refreshed_at: SimTime,
}

/// A node's neighbor list as two borrowed parallel columns: index-space
/// ids (every id is below the population size, so it can index dense
/// per-node scratch) and the availabilities cached at the last
/// discovery/refresh. `ids[i]` and `cached_availability[i]` describe the
/// same neighbor. A [`Membership`] never lists an id twice; the
/// operations tolerate worlds that do (an HS and a VS edge to one node).
#[derive(Debug, Clone, Copy)]
pub struct NeighborColumns<'a> {
    /// Neighbor ids, in list order.
    pub ids: &'a [u32],
    /// The availability cached for each neighbor (§3.2: forwarding reads
    /// this, not a live query).
    pub cached_availability: &'a [Availability],
}

/// Byte-packed added/refreshed instants of one slot (compact
/// u32-millisecond stamps, see [`SimTime::as_compact_ms`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Stamp {
    added_ms: u32,
    refreshed_ms: u32,
}

/// Outcome of a refresh pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RefreshOutcome {
    /// Neighbors evicted because the predicate no longer holds (or the
    /// oracle lost track of them).
    pub evicted: usize,
    /// Neighbors moved between HS and VS because their availability
    /// drifted across the band boundary.
    pub migrated: usize,
    /// Neighbors kept (cached availability updated).
    pub kept: usize,
}

#[inline]
fn packed_id(id: NodeId) -> u32 {
    u32::try_from(id.raw()).expect("membership ids are index-space (must fit u32)")
}

/// The HS + VS membership state of one node.
///
/// # Examples
///
/// ```
/// use avmem::membership::{Membership, SliverScope};
/// use avmem::predicate::{AvmemPredicate, NodeInfo};
/// use avmem_avmon::TraceOracle;
/// use avmem_sim::SimTime;
/// use avmem_trace::{AvailabilityPdf, OvernetModel};
/// use avmem_util::NodeId;
///
/// let trace = OvernetModel::default().hosts(100).days(1).generate(1);
/// let oracle = TraceOracle::new(&trace);
/// let sample: Vec<_> = (0..100).map(|i| trace.long_term_availability(i)).collect();
/// let pred = AvmemPredicate::paper_default(100.0, AvailabilityPdf::from_sample(&sample, 10));
///
/// let me = NodeInfo::new(NodeId::new(0), trace.long_term_availability(0));
/// let mut membership = Membership::new(me.id);
/// membership.discover(me, trace.node_ids(), &oracle, &pred, SimTime::ZERO);
/// // Discovery over the full population yields the converged lists.
/// let total = membership.neighbors(SliverScope::Both).count();
/// assert!(total > 0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Membership {
    owner: NodeId,
    /// `[HS | VS]`: slots `0..hs_len` are horizontal, the rest vertical.
    ids: Vec<u32>,
    avs: Vec<Availability>,
    stamps: Vec<Stamp>,
    hs_len: u32,
}

impl Membership {
    /// Creates empty lists for `owner`.
    pub fn new(owner: NodeId) -> Self {
        Membership {
            owner,
            ids: Vec::new(),
            avs: Vec::new(),
            stamps: Vec::new(),
            hs_len: 0,
        }
    }

    /// The owning node.
    pub fn owner(&self) -> NodeId {
        self.owner
    }

    #[inline]
    fn neighbor_at(&self, pos: usize) -> Neighbor {
        Neighbor {
            id: NodeId::new(u64::from(self.ids[pos])),
            cached_availability: self.avs[pos],
            added_at: SimTime::from_compact_ms(self.stamps[pos].added_ms),
            refreshed_at: SimTime::from_compact_ms(self.stamps[pos].refreshed_ms),
        }
    }

    /// The horizontal sliver, in insertion order.
    pub fn hs(&self) -> impl Iterator<Item = Neighbor> + '_ {
        (0..self.hs_len as usize).map(|pos| self.neighbor_at(pos))
    }

    /// The vertical sliver, in insertion order.
    pub fn vs(&self) -> impl Iterator<Item = Neighbor> + '_ {
        (self.hs_len as usize..self.ids.len()).map(|pos| self.neighbor_at(pos))
    }

    /// Horizontal-sliver entry count.
    pub fn hs_len(&self) -> usize {
        self.hs_len as usize
    }

    /// Vertical-sliver entry count.
    pub fn vs_len(&self) -> usize {
        self.ids.len() - self.hs_len as usize
    }

    /// Total neighbor count (HS + VS).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether both lists are empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Whether `id` is currently a neighbor (either sliver).
    pub fn contains(&self, id: NodeId) -> bool {
        match u32::try_from(id.raw()) {
            Ok(raw) => self.ids.contains(&raw),
            Err(_) => false,
        }
    }

    /// Slot range of a scope inside the `[HS | VS]` block.
    #[inline]
    fn scope_range(&self, scope: SliverScope) -> std::ops::Range<usize> {
        match scope {
            SliverScope::HsOnly => 0..self.hs_len as usize,
            SliverScope::VsOnly => self.hs_len as usize..self.ids.len(),
            SliverScope::Both => 0..self.ids.len(),
        }
    }

    /// Iterates neighbors in the given scope (HS first, then VS, each in
    /// insertion order — the deterministic order gossip target selection
    /// relies on).
    pub fn neighbors(&self, scope: SliverScope) -> impl Iterator<Item = Neighbor> + '_ {
        self.scope_range(scope).map(|pos| self.neighbor_at(pos))
    }

    /// Iterates neighbor ids in the given scope without materializing
    /// [`Neighbor`]s — the cheap form for degree/health accounting.
    pub fn neighbor_ids(&self, scope: SliverScope) -> impl Iterator<Item = NodeId> + '_ {
        self.ids[self.scope_range(scope)].iter().map(|&id| NodeId::new(u64::from(id)))
    }

    /// The id and cached-availability columns of a scope, by borrow and in
    /// the order of [`Membership::neighbors`] — what anycast and multicast
    /// forwarding reads, with nothing materialized.
    pub fn columns(&self, scope: SliverScope) -> NeighborColumns<'_> {
        let range = self.scope_range(scope);
        NeighborColumns {
            ids: &self.ids[range.clone()],
            cached_availability: &self.avs[range],
        }
    }

    /// Drops all neighbors (a node that lost its soft state).
    pub fn clear(&mut self) {
        self.ids.clear();
        self.avs.clear();
        self.stamps.clear();
        self.hs_len = 0;
    }

    /// Appends to the end of the HS region (slot `hs_len`), preserving
    /// both slivers' relative orders.
    fn push_hs(&mut self, neighbor: Neighbor) {
        let pos = self.hs_len as usize;
        self.ids.insert(pos, packed_id(neighbor.id));
        self.avs.insert(pos, neighbor.cached_availability);
        self.stamps.insert(
            pos,
            Stamp {
                added_ms: neighbor.added_at.as_compact_ms(),
                refreshed_ms: neighbor.refreshed_at.as_compact_ms(),
            },
        );
        self.hs_len += 1;
    }

    /// Appends to the end of the VS region (the arrays' tail).
    fn push_vs(&mut self, neighbor: Neighbor) {
        self.ids.push(packed_id(neighbor.id));
        self.avs.push(neighbor.cached_availability);
        self.stamps.push(Stamp {
            added_ms: neighbor.added_at.as_compact_ms(),
            refreshed_ms: neighbor.refreshed_at.as_compact_ms(),
        });
    }

    /// Inserts an already-classified neighbor, skipping duplicates and
    /// self-entries. Returns whether the entry was inserted.
    ///
    /// This is the low-level hook used by drivers that evaluate the
    /// predicate themselves (e.g. with a precomputed hash matrix);
    /// [`Membership::discover`] is the self-contained path.
    pub fn insert(&mut self, neighbor: Neighbor, sliver: Sliver) -> bool {
        if neighbor.id == self.owner || self.contains(neighbor.id) {
            return false;
        }
        match sliver {
            Sliver::Horizontal => self.push_hs(neighbor),
            Sliver::Vertical => self.push_vs(neighbor),
        }
        true
    }

    /// Removes a neighbor from whichever list holds it, returning the
    /// entry and the sliver it occupied.
    pub fn remove(&mut self, id: NodeId) -> Option<(Neighbor, Sliver)> {
        let raw = u32::try_from(id.raw()).ok()?;
        let pos = self.ids.iter().position(|&e| e == raw)?;
        let neighbor = self.neighbor_at(pos);
        let sliver = if pos < self.hs_len as usize {
            self.hs_len -= 1;
            Sliver::Horizontal
        } else {
            Sliver::Vertical
        };
        self.ids.remove(pos);
        self.avs.remove(pos);
        self.stamps.remove(pos);
        Some((neighbor, sliver))
    }

    /// Discovery sub-protocol: for each candidate not already a neighbor,
    /// query the oracle and evaluate the predicate; insert on success.
    /// Returns the number of neighbors added.
    ///
    /// `own` is the owner's identity and *its own current availability
    /// estimate* (also obtained from the monitoring service, so the
    /// predicate evaluation is consistent with what third parties see).
    pub fn discover<O, I>(
        &mut self,
        own: NodeInfo,
        candidates: I,
        oracle: &O,
        predicate: &AvmemPredicate,
        now: SimTime,
    ) -> usize
    where
        O: AvailabilityOracle + ?Sized,
        I: IntoIterator<Item = NodeId>,
    {
        debug_assert_eq!(own.id, self.owner, "discover called with foreign identity");
        let mut added = 0;
        for candidate in candidates {
            if candidate == self.owner || self.contains(candidate) {
                continue;
            }
            let Some(candidate_av) = oracle.estimate(self.owner, candidate, now) else {
                continue;
            };
            let candidate_info = NodeInfo::new(candidate, candidate_av);
            if let Some(sliver) = predicate.classify(own, candidate_info) {
                let neighbor = Neighbor {
                    id: candidate,
                    cached_availability: candidate_av,
                    added_at: now,
                    refreshed_at: now,
                };
                match sliver {
                    Sliver::Horizontal => self.push_hs(neighbor),
                    Sliver::Vertical => self.push_vs(neighbor),
                }
                added += 1;
            }
        }
        added
    }

    /// Refresh sub-protocol: re-validate every neighbor against fresh
    /// oracle estimates, evicting entries whose predicate became false
    /// and migrating entries whose sliver changed.
    pub fn refresh<O>(
        &mut self,
        own: NodeInfo,
        oracle: &O,
        predicate: &AvmemPredicate,
        now: SimTime,
    ) -> RefreshOutcome
    where
        O: AvailabilityOracle + ?Sized,
    {
        debug_assert_eq!(own.id, self.owner, "refresh called with foreign identity");
        let owner = self.owner;
        let mut migrants = Vec::new();
        self.refresh_with(now, &mut migrants, |id| {
            let fresh_av = oracle.estimate(owner, id, now)?;
            let sliver = predicate.classify(own, NodeInfo::new(id, fresh_av))?;
            Some((fresh_av, sliver))
        })
    }

    /// In-place refresh driven by a caller-supplied evaluator: `eval`
    /// returns the neighbor's fresh availability and sliver, or `None` to
    /// evict. Entries are re-validated *in place* — kept neighbors never
    /// leave their list, so there is no remove-then-reinsert churn — and
    /// only sliver migrants move (appended to their new list after both
    /// passes, preserving relative order).
    ///
    /// `migrants` is caller-owned scratch (cleared on entry, drained on
    /// exit) so batch drivers refreshing many nodes reuse one buffer.
    /// Drivers with precomputed pair hashes evaluate the predicate via
    /// [`AvmemPredicate::classify_hashed`] inside `eval`;
    /// [`Membership::refresh`] is the self-contained oracle+predicate
    /// form of the same pass.
    pub fn refresh_with<F>(
        &mut self,
        now: SimTime,
        migrants: &mut Vec<(Neighbor, Sliver)>,
        mut eval: F,
    ) -> RefreshOutcome
    where
        F: FnMut(NodeId) -> Option<(Availability, Sliver)>,
    {
        let mut outcome = RefreshOutcome::default();
        migrants.clear();
        let now_ms = now.as_compact_ms();
        let hs_end = self.hs_len as usize;
        let total = self.ids.len();
        // Single compaction sweep over `[HS | VS]`: kept entries slide to
        // the write cursor (order preserved within each region), evicted
        // entries vanish, migrants are parked in `migrants` and appended
        // to their new region afterwards — the same final layout as the
        // old per-list `retain_mut` + append scheme.
        let mut write = 0usize;
        let mut hs_kept = 0usize;
        for read in 0..total {
            let expected = if read < hs_end {
                Sliver::Horizontal
            } else {
                Sliver::Vertical
            };
            let id = NodeId::new(u64::from(self.ids[read]));
            match eval(id) {
                None => {
                    outcome.evicted += 1;
                }
                Some((fresh_av, sliver)) => {
                    if sliver == expected {
                        outcome.kept += 1;
                        self.ids[write] = self.ids[read];
                        self.avs[write] = fresh_av;
                        self.stamps[write] = Stamp {
                            added_ms: self.stamps[read].added_ms,
                            refreshed_ms: now_ms,
                        };
                        if expected == Sliver::Horizontal {
                            hs_kept += 1;
                        }
                        write += 1;
                    } else {
                        outcome.migrated += 1;
                        migrants.push((
                            Neighbor {
                                id,
                                cached_availability: fresh_av,
                                added_at: SimTime::from_compact_ms(self.stamps[read].added_ms),
                                refreshed_at: now,
                            },
                            sliver,
                        ));
                    }
                }
            }
        }
        self.ids.truncate(write);
        self.avs.truncate(write);
        self.stamps.truncate(write);
        self.hs_len = hs_kept as u32;
        for (neighbor, sliver) in migrants.drain(..) {
            match sliver {
                Sliver::Horizontal => self.push_hs(neighbor),
                Sliver::Vertical => self.push_vs(neighbor),
            }
        }
        outcome
    }

    /// Marks every neighbor re-validated at `now` without re-evaluating
    /// anything: sets `refreshed_at = now` on all entries, leaving cached
    /// availabilities and list order untouched. Returns the number of
    /// entries touched.
    ///
    /// This is the refresh fast path for drivers that can prove a full
    /// [`Membership::refresh_with`] pass would change nothing but the
    /// timestamps: when the oracle has not advanced since every entry was
    /// last classified, each `eval` returns the same availability and
    /// sliver it did then — no evictions, no migrations, identical cached
    /// values — so skipping the per-neighbor work is bit-identical.
    pub fn touch_refreshed(&mut self, now: SimTime) -> usize {
        let now_ms = now.as_compact_ms();
        for stamp in &mut self.stamps {
            stamp.refreshed_ms = now_ms;
        }
        self.ids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avmem_sim::SimTime;
    use avmem_trace::AvailabilityPdf;
    use avmem_util::Availability;

    use crate::predicate::AvmemPredicate;

    /// An oracle over a mutable table, for precise control in tests.
    #[derive(Debug, Default)]
    struct TableOracle {
        table: std::collections::HashMap<u64, f64>,
    }

    impl TableOracle {
        fn set(&mut self, id: u64, av: f64) {
            self.table.insert(id, av);
        }

        fn remove(&mut self, id: u64) {
            self.table.remove(&id);
        }
    }

    impl AvailabilityOracle for TableOracle {
        fn estimate(
            &self,
            _querier: NodeId,
            target: NodeId,
            _now: SimTime,
        ) -> Option<Availability> {
            self.table
                .get(&target.raw())
                .map(|&v| Availability::saturating(v))
        }
    }

    fn take_all_predicate() -> AvmemPredicate {
        // d1 = d2 = 1.0: every candidate passes; classification only by band.
        AvmemPredicate::new(
            0.1,
            100.0,
            crate::predicate::VerticalRule::Constant { d1: 1.0 },
            crate::predicate::HorizontalRule::Constant { d2: 1.0 },
            AvailabilityPdf::uniform(10),
        )
    }

    fn me() -> NodeInfo {
        NodeInfo::new(NodeId::new(0), Availability::saturating(0.5))
    }

    fn hs_vec(m: &Membership) -> Vec<Neighbor> {
        m.hs().collect()
    }

    fn vs_vec(m: &Membership) -> Vec<Neighbor> {
        m.vs().collect()
    }

    #[test]
    fn discover_classifies_into_slivers() {
        let mut oracle = TableOracle::default();
        oracle.set(1, 0.52); // horizontal
        oracle.set(2, 0.9); // vertical
        let pred = take_all_predicate();
        let mut m = Membership::new(NodeId::new(0));
        let added = m.discover(
            me(),
            [NodeId::new(1), NodeId::new(2)],
            &oracle,
            &pred,
            SimTime::ZERO,
        );
        assert_eq!(added, 2);
        assert_eq!(m.hs_len(), 1);
        assert_eq!(m.vs_len(), 1);
        assert_eq!(hs_vec(&m)[0].id, NodeId::new(1));
        assert_eq!(vs_vec(&m)[0].id, NodeId::new(2));
    }

    #[test]
    fn discover_skips_self_unknown_and_duplicates() {
        let mut oracle = TableOracle::default();
        oracle.set(1, 0.5);
        let pred = take_all_predicate();
        let mut m = Membership::new(NodeId::new(0));
        let added = m.discover(
            me(),
            [NodeId::new(0), NodeId::new(1), NodeId::new(1), NodeId::new(9)],
            &oracle,
            &pred,
            SimTime::ZERO,
        );
        // self skipped, duplicate skipped, id 9 unknown to oracle.
        assert_eq!(added, 1);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn refresh_evicts_when_oracle_forgets() {
        let mut oracle = TableOracle::default();
        oracle.set(1, 0.52);
        let pred = take_all_predicate();
        let mut m = Membership::new(NodeId::new(0));
        m.discover(me(), [NodeId::new(1)], &oracle, &pred, SimTime::ZERO);
        oracle.remove(1);
        let outcome = m.refresh(me(), &oracle, &pred, SimTime::from_millis(1));
        assert_eq!(outcome.evicted, 1);
        assert!(m.is_empty());
    }

    #[test]
    fn refresh_migrates_across_band_boundary() {
        let mut oracle = TableOracle::default();
        oracle.set(1, 0.52);
        let pred = take_all_predicate();
        let mut m = Membership::new(NodeId::new(0));
        m.discover(me(), [NodeId::new(1)], &oracle, &pred, SimTime::ZERO);
        assert_eq!(m.hs_len(), 1);
        // Availability drifts out of the ±0.1 band.
        oracle.set(1, 0.8);
        let outcome = m.refresh(me(), &oracle, &pred, SimTime::from_millis(1));
        assert_eq!(outcome.migrated, 1);
        assert_eq!(m.hs_len(), 0);
        assert_eq!(m.vs_len(), 1);
        assert_eq!(vs_vec(&m)[0].cached_availability.value(), 0.8);
    }

    #[test]
    fn refresh_updates_cached_availability() {
        let mut oracle = TableOracle::default();
        oracle.set(1, 0.52);
        let pred = take_all_predicate();
        let mut m = Membership::new(NodeId::new(0));
        m.discover(me(), [NodeId::new(1)], &oracle, &pred, SimTime::ZERO);
        oracle.set(1, 0.55);
        let later = SimTime::from_millis(60_000);
        let outcome = m.refresh(me(), &oracle, &pred, later);
        assert_eq!(outcome.kept, 1);
        let hs = hs_vec(&m);
        assert_eq!(hs[0].cached_availability.value(), 0.55);
        assert_eq!(hs[0].refreshed_at, later);
        assert_eq!(hs[0].added_at, SimTime::ZERO);
    }

    #[test]
    fn refresh_evicts_on_predicate_violation() {
        // Predicate that accepts only horizontal-band members.
        let pred = AvmemPredicate::new(
            0.1,
            100.0,
            crate::predicate::VerticalRule::Constant { d1: 0.0 },
            crate::predicate::HorizontalRule::Constant { d2: 1.0 },
            AvailabilityPdf::uniform(10),
        );
        let mut oracle = TableOracle::default();
        oracle.set(1, 0.52);
        let mut m = Membership::new(NodeId::new(0));
        m.discover(me(), [NodeId::new(1)], &oracle, &pred, SimTime::ZERO);
        assert_eq!(m.hs_len(), 1);
        // Drift out of band: vertical rule rejects everything → eviction,
        // within one refresh (the paper's "worst case 1 protocol period").
        oracle.set(1, 0.9);
        let outcome = m.refresh(me(), &oracle, &pred, SimTime::from_millis(1));
        assert_eq!(outcome.evicted, 1);
        assert!(m.is_empty());
    }

    #[test]
    fn refresh_with_keeps_survivors_in_place() {
        let mut m = Membership::new(NodeId::new(0));
        let neighbor = |id: u64, av: f64| Neighbor {
            id: NodeId::new(id),
            cached_availability: Availability::saturating(av),
            added_at: SimTime::ZERO,
            refreshed_at: SimTime::ZERO,
        };
        for id in [1, 2, 3] {
            m.insert(neighbor(id, 0.5), Sliver::Horizontal);
        }
        m.insert(neighbor(4, 0.9), Sliver::Vertical);
        let later = SimTime::from_millis(5);
        let mut migrants = vec![(neighbor(9, 0.1), Sliver::Vertical)]; // stale scratch
        let outcome = m.refresh_with(later, &mut migrants, |id| match id.raw() {
            1 => Some((Availability::saturating(0.51), Sliver::Horizontal)),
            2 => None,                                                // evict
            3 => Some((Availability::saturating(0.95), Sliver::Vertical)), // migrate
            4 => Some((Availability::saturating(0.91), Sliver::Vertical)),
            _ => panic!("unexpected neighbor"),
        });
        assert_eq!(outcome, RefreshOutcome { evicted: 1, migrated: 1, kept: 2 });
        // Kept entries stay in place (no remove/reinsert cycling); the
        // migrant lands after the retained VS entries.
        let hs: Vec<u64> = m.hs().map(|n| n.id.raw()).collect();
        let vs: Vec<u64> = m.vs().map(|n| n.id.raw()).collect();
        assert_eq!(hs, vec![1]);
        assert_eq!(vs, vec![4, 3]);
        let first = hs_vec(&m)[0];
        assert_eq!(first.cached_availability.value(), 0.51);
        assert_eq!(first.refreshed_at, later);
        assert!(migrants.is_empty(), "scratch must be drained for reuse");
    }

    #[test]
    fn scope_filters_neighbors() {
        let mut oracle = TableOracle::default();
        oracle.set(1, 0.52);
        oracle.set(2, 0.9);
        let pred = take_all_predicate();
        let mut m = Membership::new(NodeId::new(0));
        m.discover(
            me(),
            [NodeId::new(1), NodeId::new(2)],
            &oracle,
            &pred,
            SimTime::ZERO,
        );
        assert_eq!(m.neighbors(SliverScope::HsOnly).count(), 1);
        assert_eq!(m.neighbors(SliverScope::VsOnly).count(), 1);
        assert_eq!(m.neighbors(SliverScope::Both).count(), 2);
        assert_eq!(m.neighbor_ids(SliverScope::Both).count(), 2);
    }

    #[test]
    fn scope_includes_matches_slivers() {
        assert!(SliverScope::HsOnly.includes(Sliver::Horizontal));
        assert!(!SliverScope::HsOnly.includes(Sliver::Vertical));
        assert!(SliverScope::VsOnly.includes(Sliver::Vertical));
        assert!(!SliverScope::VsOnly.includes(Sliver::Horizontal));
        assert!(SliverScope::Both.includes(Sliver::Horizontal));
        assert!(SliverScope::Both.includes(Sliver::Vertical));
    }

    #[test]
    fn insert_rejects_self_and_duplicates() {
        let mut m = Membership::new(NodeId::new(0));
        let neighbor = |id: u64| Neighbor {
            id: NodeId::new(id),
            cached_availability: Availability::saturating(0.5),
            added_at: SimTime::ZERO,
            refreshed_at: SimTime::ZERO,
        };
        assert!(!m.insert(neighbor(0), Sliver::Horizontal)); // self
        assert!(m.insert(neighbor(1), Sliver::Horizontal));
        assert!(!m.insert(neighbor(1), Sliver::Vertical)); // duplicate
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn remove_reports_sliver() {
        let mut m = Membership::new(NodeId::new(0));
        let neighbor = |id: u64| Neighbor {
            id: NodeId::new(id),
            cached_availability: Availability::saturating(0.5),
            added_at: SimTime::ZERO,
            refreshed_at: SimTime::ZERO,
        };
        m.insert(neighbor(1), Sliver::Horizontal);
        m.insert(neighbor(2), Sliver::Vertical);
        assert_eq!(m.remove(NodeId::new(2)).unwrap().1, Sliver::Vertical);
        assert_eq!(m.remove(NodeId::new(1)).unwrap().1, Sliver::Horizontal);
        assert!(m.remove(NodeId::new(1)).is_none());
        assert!(m.is_empty());
    }

    #[test]
    fn neighbors_iterate_hs_before_vs() {
        let mut m = Membership::new(NodeId::new(0));
        let neighbor = |id: u64| Neighbor {
            id: NodeId::new(id),
            cached_availability: Availability::saturating(0.5),
            added_at: SimTime::ZERO,
            refreshed_at: SimTime::ZERO,
        };
        m.insert(neighbor(5), Sliver::Vertical);
        m.insert(neighbor(3), Sliver::Horizontal);
        let order: Vec<u64> = m
            .neighbors(SliverScope::Both)
            .map(|n| n.id.raw())
            .collect();
        assert_eq!(order, vec![3, 5]);
    }

    #[test]
    fn compact_stamps_round_trip() {
        let mut m = Membership::new(NodeId::new(0));
        let added = SimTime::from_millis(86_400_000); // one simulated day
        m.insert(
            Neighbor {
                id: NodeId::new(1),
                cached_availability: Availability::saturating(0.5),
                added_at: added,
                refreshed_at: added,
            },
            Sliver::Horizontal,
        );
        let later = SimTime::from_millis(86_460_000);
        m.touch_refreshed(later);
        let entry = hs_vec(&m)[0];
        assert_eq!(entry.added_at, added);
        assert_eq!(entry.refreshed_at, later);
    }

    #[test]
    fn clear_empties_lists() {
        let mut oracle = TableOracle::default();
        oracle.set(1, 0.52);
        let pred = take_all_predicate();
        let mut m = Membership::new(NodeId::new(0));
        m.discover(me(), [NodeId::new(1)], &oracle, &pred, SimTime::ZERO);
        m.clear();
        assert!(m.is_empty());
    }
}
