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
//! A neighbor is what the protocol reads of it: an index-space id
//! (`u32`) and the availability cached at its last discovery or refresh
//! — 12 bytes, and no timestamps, which nothing read. Both slivers share
//! one struct-of-arrays block with the horizontal sliver in the first
//! `hs_len` slots, and both columns share **one allocation**: the
//! availabilities first (8-byte aligned, so the `f64` column is aligned),
//! the ids packed two to a word behind them. The header is the owner,
//! the allocation, the length and `hs_len` — 32 bytes where three `Vec`s
//! took 88, paid once per host. The allocation grows like a `Vec` (room
//! for 4 neighbors, then doubling) and keeps its room when entries leave.
//! The public API still speaks [`Neighbor`] (materialized on the fly),
//! except for anycast/multicast forwarding, which borrows the id and
//! availability columns as they are ([`Membership::columns`]); ids above
//! `u32::MAX` are rejected by the index-space contract.

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

/// Words of an allocation with room for `room` neighbors: one per
/// availability, one per two ids.
#[inline]
fn words_for(room: usize) -> usize {
    room + room.div_ceil(2)
}

// The casts to halves below rest on a word being exactly two halves.
const _: () = assert!(size_of::<Availability>() == 2 * size_of::<u32>());

/// `words` as the `u32` halves the id column lives in.
#[inline]
fn id_halves(words: &[Availability]) -> &[u32] {
    debug_assert!(words.as_ptr().cast::<u32>().is_aligned());
    // SAFETY: `Availability` is `repr(transparent)` over `f64`, so `words`
    // is `2 * words.len()` initialised `u32`s, 8-byte aligned (≥ the 4 a
    // `u32` needs), and every bit pattern is a valid `u32`. The result
    // borrows `words`, so nothing writes them while it lives.
    unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<u32>(), 2 * words.len()) }
}

/// [`id_halves`], for writing.
#[inline]
fn id_halves_mut(words: &mut [Availability]) -> &mut [u32] {
    debug_assert!(words.as_ptr().cast::<u32>().is_aligned());
    // SAFETY: as in `id_halves`, and the result holds `words`' unique
    // borrow. Whatever it writes leaves each word a valid `f64` (every bit
    // pattern is one); the words the ids live in are never read as
    // availabilities, only copied whole when the membership is cloned.
    unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u32>(), 2 * words.len()) }
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
// No serde derives: the ids live in the bits of availability words, which
// a serializer would write as floats.
#[derive(Clone)]
pub struct Membership {
    owner: NodeId,
    /// Both columns, room for `room` neighbors: the cached availability
    /// of slot `pos` at `slots[pos]`, its id at `pos` of the `u32` halves
    /// of the words from `room` on ([`id_halves`]).
    slots: Box<[Availability]>,
    /// `[HS | VS]`: slots `0..hs_len` are horizontal, `hs_len..len`
    /// vertical.
    len: u32,
    hs_len: u32,
}

// One membership per host: a header past 32 bytes is N times that.
const _: () = assert!(std::mem::size_of::<Membership>() <= 32);

/// Owner, then both slivers in order, ids and cached availabilities.
impl PartialEq for Membership {
    fn eq(&self, other: &Self) -> bool {
        self.owner == other.owner && self.hs_len == other.hs_len && self.live() == other.live()
    }
}

impl std::fmt::Debug for Membership {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Membership")
            .field("owner", &self.owner)
            .field("hs", &self.columns(SliverScope::HsOnly))
            .field("vs", &self.columns(SliverScope::VsOnly))
            .finish()
    }
}

impl Membership {
    /// Creates empty lists for `owner`.
    pub fn new(owner: NodeId) -> Self {
        Membership {
            owner,
            slots: Box::default(),
            len: 0,
            hs_len: 0,
        }
    }

    /// The owning node.
    pub fn owner(&self) -> NodeId {
        self.owner
    }

    /// Neighbors the allocation has room for.
    #[inline]
    fn room(&self) -> usize {
        // The inverse of `words_for`: `⌊2·(r + ⌈r/2⌉)/3⌋ = r`.
        2 * self.slots.len() / 3
    }

    /// The live ids and availabilities, `[HS | VS]`.
    #[inline]
    fn live(&self) -> (&[u32], &[Availability]) {
        let len = self.len();
        let (avs, tail) = self.slots.split_at(self.room());
        (&id_halves(tail)[..len], &avs[..len])
    }

    /// [`Membership::live`], for writing.
    #[inline]
    fn live_mut(&mut self) -> (&mut [u32], &mut [Availability]) {
        let len = self.len();
        let (avs, tail) = self.slots.split_at_mut(self.room());
        (&mut id_halves_mut(tail)[..len], &mut avs[..len])
    }

    /// The horizontal sliver, in insertion order.
    pub fn hs(&self) -> impl Iterator<Item = Neighbor> + '_ {
        self.neighbors(SliverScope::HsOnly)
    }

    /// The vertical sliver, in insertion order.
    pub fn vs(&self) -> impl Iterator<Item = Neighbor> + '_ {
        self.neighbors(SliverScope::VsOnly)
    }

    /// Horizontal-sliver entry count.
    pub fn hs_len(&self) -> usize {
        self.hs_len as usize
    }

    /// Vertical-sliver entry count.
    pub fn vs_len(&self) -> usize {
        (self.len - self.hs_len) as usize
    }

    /// Total neighbor count (HS + VS).
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether both lists are empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `id` is currently a neighbor (either sliver).
    pub fn contains(&self, id: NodeId) -> bool {
        match u32::try_from(id.raw()) {
            Ok(raw) => self.live().0.contains(&raw),
            Err(_) => false,
        }
    }

    /// Slot range of a scope inside the `[HS | VS]` block.
    #[inline]
    fn scope_range(&self, scope: SliverScope) -> std::ops::Range<usize> {
        match scope {
            SliverScope::HsOnly => 0..self.hs_len(),
            SliverScope::VsOnly => self.hs_len()..self.len(),
            SliverScope::Both => 0..self.len(),
        }
    }

    /// Iterates neighbors in the given scope (HS first, then VS, each in
    /// insertion order — the deterministic order gossip target selection
    /// relies on).
    pub fn neighbors(&self, scope: SliverScope) -> impl Iterator<Item = Neighbor> + '_ {
        let columns = self.columns(scope);
        let avs = columns.cached_availability.iter();
        columns.ids.iter().zip(avs).map(|(&id, &av)| Neighbor {
            id: NodeId::new(u64::from(id)),
            cached_availability: av,
        })
    }

    /// Iterates neighbor ids in the given scope without materializing
    /// [`Neighbor`]s — the cheap form for degree/health accounting.
    pub fn neighbor_ids(&self, scope: SliverScope) -> impl Iterator<Item = NodeId> + '_ {
        self.columns(scope)
            .ids
            .iter()
            .map(|&id| NodeId::new(u64::from(id)))
    }

    /// The id and cached-availability columns of a scope, by borrow and in
    /// the order of [`Membership::neighbors`] — what anycast and multicast
    /// forwarding reads, with nothing materialized.
    pub fn columns(&self, scope: SliverScope) -> NeighborColumns<'_> {
        let range = self.scope_range(scope);
        let (ids, avs) = self.live();
        NeighborColumns {
            ids: &ids[range.clone()],
            cached_availability: &avs[range],
        }
    }

    /// Drops all neighbors (a node that lost its soft state). The
    /// allocation keeps its room.
    pub fn clear(&mut self) {
        self.len = 0;
        self.hs_len = 0;
    }

    /// Moves both columns into an allocation with room for `room`
    /// neighbors.
    fn regrow(&mut self, room: usize) {
        let (old_room, len) = (self.room(), self.len());
        // Grown in place where the allocator can; the ids then move up to
        // their new place behind the availabilities.
        let mut words = std::mem::take(&mut self.slots).into_vec();
        words.reserve_exact(words_for(room) - words.len());
        words.resize(words_for(room), Availability::ZERO);
        id_halves_mut(&mut words).copy_within(2 * old_room..2 * old_room + len, 2 * room);
        self.slots = words.into_boxed_slice();
    }

    /// Inserts a slot at `pos`, the slots from `pos` on moving up one.
    fn insert_at(&mut self, pos: usize, neighbor: Neighbor) {
        let len = self.len();
        if len == self.room() {
            self.regrow((2 * len).max(4));
        }
        self.len += 1;
        let (ids, avs) = self.live_mut();
        ids.copy_within(pos..len, pos + 1);
        avs.copy_within(pos..len, pos + 1);
        ids[pos] = packed_id(neighbor.id);
        avs[pos] = neighbor.cached_availability;
    }

    /// Appends to the end of its sliver's region — slot `hs_len` or the
    /// columns' tail — preserving both slivers' relative orders.
    fn push(&mut self, neighbor: Neighbor, sliver: Sliver) {
        match sliver {
            Sliver::Horizontal => {
                self.insert_at(self.hs_len(), neighbor);
                self.hs_len += 1;
            }
            Sliver::Vertical => self.insert_at(self.len(), neighbor),
        }
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
        self.push(neighbor, sliver);
        true
    }

    /// Removes a neighbor from whichever list holds it, returning the
    /// entry and the sliver it occupied.
    pub fn remove(&mut self, id: NodeId) -> Option<(Neighbor, Sliver)> {
        let raw = u32::try_from(id.raw()).ok()?;
        let pos = self.live().0.iter().position(|&e| e == raw)?;
        let neighbor = Neighbor {
            id,
            cached_availability: self.live().1[pos],
        };
        let sliver = if pos < self.hs_len() {
            self.hs_len -= 1;
            Sliver::Horizontal
        } else {
            Sliver::Vertical
        };
        let (ids, avs) = self.live_mut();
        ids.copy_within(pos + 1.., pos);
        avs.copy_within(pos + 1.., pos);
        self.len -= 1;
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
                };
                self.push(neighbor, sliver);
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
        self.refresh_with(&mut migrants, |id| {
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
    /// passes, preserving relative order). `eval` sees the neighbors in
    /// the order of [`Membership::neighbors`].
    ///
    /// `migrants` is caller-owned scratch (cleared on entry, drained on
    /// exit) so batch drivers refreshing many nodes reuse one buffer.
    /// Drivers with precomputed pair hashes evaluate the predicate via
    /// [`AvmemPredicate::classify_hashed`] inside `eval`;
    /// [`Membership::refresh`] is the self-contained oracle+predicate
    /// form of the same pass.
    pub fn refresh_with<F>(
        &mut self,
        migrants: &mut Vec<(Neighbor, Sliver)>,
        mut eval: F,
    ) -> RefreshOutcome
    where
        F: FnMut(NodeId) -> Option<(Availability, Sliver)>,
    {
        let mut outcome = RefreshOutcome::default();
        migrants.clear();
        let hs_end = self.hs_len();
        // Single compaction sweep over `[HS | VS]`: kept entries slide to
        // the write cursor (order preserved within each region), evicted
        // entries vanish, migrants are parked in `migrants` and appended
        // to their new region afterwards — the same final layout as the
        // old per-list `retain_mut` + append scheme.
        let mut write = 0usize;
        let mut hs_kept = 0usize;
        let (ids, avs) = self.live_mut();
        for read in 0..ids.len() {
            let expected = if read < hs_end {
                Sliver::Horizontal
            } else {
                Sliver::Vertical
            };
            let id = NodeId::new(u64::from(ids[read]));
            match eval(id) {
                None => {
                    outcome.evicted += 1;
                }
                Some((fresh_av, sliver)) if sliver == expected => {
                    outcome.kept += 1;
                    ids[write] = ids[read];
                    avs[write] = fresh_av;
                    hs_kept += usize::from(expected == Sliver::Horizontal);
                    write += 1;
                }
                Some((fresh_av, sliver)) => {
                    outcome.migrated += 1;
                    let neighbor = Neighbor {
                        id,
                        cached_availability: fresh_av,
                    };
                    migrants.push((neighbor, sliver));
                }
            }
        }
        self.len = write as u32;
        self.hs_len = hs_kept as u32;
        for (neighbor, sliver) in migrants.drain(..) {
            self.push(neighbor, sliver);
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avmem_sim::SimTime;
    use avmem_trace::AvailabilityPdf;
    use avmem_util::{Availability, Rng, SplitMix64};
    use proptest::prelude::*;

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
        };
        for id in [1, 2, 3] {
            m.insert(neighbor(id, 0.5), Sliver::Horizontal);
        }
        m.insert(neighbor(4, 0.9), Sliver::Vertical);
        let mut migrants = vec![(neighbor(9, 0.1), Sliver::Vertical)]; // stale scratch
        let outcome = m.refresh_with(&mut migrants, |id| match id.raw() {
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
    fn clear_empties_lists() {
        let mut oracle = TableOracle::default();
        oracle.set(1, 0.52);
        let pred = take_all_predicate();
        let mut m = Membership::new(NodeId::new(0));
        m.discover(me(), [NodeId::new(1)], &oracle, &pred, SimTime::ZERO);
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn per_host_headers_stay_within_their_pins() {
        // Membership, view and shuffle node: one each per host.
        assert!(std::mem::size_of::<Membership>() <= 32);
        assert!(std::mem::size_of::<avmem_shuffle::View>() <= 24);
        assert!(std::mem::size_of::<avmem_shuffle::ShuffleNode>() <= 72);
    }

    /// The naive lists the one-allocation columns are held to: one entry
    /// per neighbor in arrival order, its sliver beside it.
    type Model = Vec<(u32, Availability, Sliver)>;

    /// The model's entries in a scope's order: HS first, then VS, each in
    /// arrival order.
    fn model_entries(model: &Model, scope: SliverScope) -> Vec<(u32, Availability)> {
        let of = |sliver: Sliver| {
            model
                .iter()
                .filter(move |e| e.2 == sliver && scope.includes(sliver))
                .map(|e| (e.0, e.1))
        };
        of(Sliver::Horizontal).chain(of(Sliver::Vertical)).collect()
    }

    fn check_against_model(m: &Membership, model: &Model, longest: usize, at: &str) {
        for scope in [SliverScope::HsOnly, SliverScope::VsOnly, SliverScope::Both] {
            let expected = model_entries(model, scope);
            let columns = m.columns(scope);
            let got: Vec<(u32, Availability)> = columns
                .ids
                .iter()
                .copied()
                .zip(columns.cached_availability.iter().copied())
                .collect();
            assert_eq!(got, expected, "{at}: columns({scope:?})");
            let neighbors: Vec<(u32, Availability)> = m
                .neighbors(scope)
                .map(|n| (packed_id(n.id), n.cached_availability))
                .collect();
            assert_eq!(neighbors, expected, "{at}: neighbors({scope:?})");
            assert!(
                m.neighbor_ids(scope)
                    .map(packed_id)
                    .eq(expected.iter().map(|e| e.0)),
                "{at}"
            );
        }
        let as_pairs = |n: Neighbor| (packed_id(n.id), n.cached_availability);
        let hs = model_entries(model, SliverScope::HsOnly);
        let vs = model_entries(model, SliverScope::VsOnly);
        assert!(m.hs().map(as_pairs).eq(hs.iter().copied()), "{at}: hs()");
        assert!(m.vs().map(as_pairs).eq(vs.iter().copied()), "{at}: vs()");
        assert_eq!(
            (m.len(), m.hs_len(), m.vs_len()),
            (model.len(), hs.len(), vs.len()),
            "{at}"
        );
        assert_eq!(m.is_empty(), model.is_empty(), "{at}");
        assert!(
            model
                .iter()
                .all(|e| m.contains(NodeId::new(u64::from(e.0)))),
            "{at}"
        );
        // Room for 4, then doubling, sized by the longest the lists were.
        let room = if longest == 0 {
            0
        } else {
            longest.next_power_of_two().max(4)
        };
        assert_eq!(
            (m.room(), m.slots.len()),
            (room, words_for(room)),
            "{at}: longest {longest}"
        );
        // Equality: owner and both slivers in order, whatever the room.
        let mut rebuilt = Membership::new(m.owner());
        for &(id, av, sliver) in model {
            let neighbor = Neighbor {
                id: NodeId::new(u64::from(id)),
                cached_availability: av,
            };
            assert!(rebuilt.insert(neighbor, sliver));
        }
        assert_eq!(rebuilt, *m, "{at}: rebuilt from the model");
        assert_eq!(m.clone(), *m, "{at}: clone");
        assert_ne!(
            Membership {
                owner: NodeId::new(99),
                ..m.clone()
            },
            *m,
            "{at}"
        );
        if !m.is_empty() {
            let mut moved = m.clone();
            let first = &mut moved.live_mut().1[0];
            let before = *first;
            *first = Availability::saturating(1.0 - before.value());
            assert_eq!(
                moved == *m,
                before.value() == 0.5,
                "{at}: first slot re-cached"
            );
        }
    }

    /// What one random run exercised, for the coverage test.
    #[derive(Debug, Default)]
    struct Tally {
        longest: usize,
        inserted: usize,
        refused: usize,
        removed: usize,
        kept: usize,
        evicted: usize,
        migrated: usize,
        cleared: usize,
    }

    /// `steps` random operations on a membership and on its model, the
    /// two compared after each.
    fn membership_differential(seed: u64, steps: usize) -> Tally {
        let mut r = SplitMix64::new(seed);
        let owner = r.range_u64(3) as u32;
        let id_space = [4, 12, 40, 140][r.index(4)];
        // Some runs mostly insert, so the lists pass 4, 8, 16, … entries.
        let p_refresh = [0.02, 0.1, 0.3][r.index(3)];
        let p_remove = p_refresh + [0.02, 0.2][r.index(2)];
        let p_clear = p_remove + 0.01;
        let mut m = Membership::new(NodeId::new(u64::from(owner)));
        let mut model = Model::new();
        let mut tally = Tally::default();
        let mut migrants = Vec::new();
        let draw_av = |r: &mut SplitMix64| Availability::saturating(r.index(9) as f64 / 8.0);
        let draw_sliver = |r: &mut SplitMix64| {
            if r.chance(0.5) {
                Sliver::Horizontal
            } else {
                Sliver::Vertical
            }
        };
        for step in 0..steps {
            let id = r.range_u64(id_space) as u32;
            let roll = r.next_f64();
            if roll < p_refresh {
                // Decisions drawn up front, in the order `eval` must be
                // called in: HS, then VS.
                let order = model_entries(&model, SliverScope::Both);
                let decisions: Vec<Option<(Availability, Sliver)>> = order
                    .iter()
                    .map(|_| match r.index(3) {
                        0 => None,
                        _ => Some((draw_av(&mut r), draw_sliver(&mut r))),
                    })
                    .collect();
                if r.chance(0.5) {
                    // Stale scratch must not leak into the lists.
                    let stale = Neighbor {
                        id: NodeId::new(7),
                        cached_availability: draw_av(&mut r),
                    };
                    migrants.push((stale, draw_sliver(&mut r)));
                }
                let mut k = 0;
                let outcome = m.refresh_with(&mut migrants, |id| {
                    assert_eq!(
                        packed_id(id),
                        order[k].0,
                        "seed {seed} step {step}: eval order"
                    );
                    k += 1;
                    decisions[k - 1]
                });
                assert_eq!(
                    k,
                    order.len(),
                    "seed {seed} step {step}: every neighbor evaluated"
                );
                assert!(
                    migrants.is_empty(),
                    "seed {seed} step {step}: scratch drained"
                );
                let decision = |id: u32| decisions[order.iter().position(|e| e.0 == id).unwrap()];
                // Migrants leave their place and join their new sliver's
                // end in evaluation order.
                let moving: Model = order
                    .iter()
                    .filter_map(|&(id, _)| {
                        let (fresh, to) = decision(id)?;
                        let from = model.iter().find(|e| e.0 == id).unwrap().2;
                        (to != from).then_some((id, fresh, to))
                    })
                    .collect();
                let mut expected = RefreshOutcome {
                    migrated: moving.len(),
                    ..Default::default()
                };
                model.retain_mut(|e| match decision(e.0) {
                    None => {
                        expected.evicted += 1;
                        false
                    }
                    Some((fresh, to)) if to == e.2 => {
                        expected.kept += 1;
                        e.1 = fresh;
                        true
                    }
                    Some(_) => false,
                });
                model.extend(moving);
                assert_eq!(outcome, expected, "seed {seed} step {step}: refresh");
                tally.kept += outcome.kept;
                tally.evicted += outcome.evicted;
                tally.migrated += outcome.migrated;
            } else if roll < p_remove {
                let expected = model
                    .iter()
                    .position(|e| e.0 == id)
                    .map(|pos| model.remove(pos));
                let got = m.remove(NodeId::new(u64::from(id)));
                let got = got.map(|(n, s)| (packed_id(n.id), n.cached_availability, s));
                assert_eq!(got, expected, "seed {seed} step {step}: remove {id}");
                tally.removed += usize::from(got.is_some());
            } else if roll < p_clear {
                m.clear();
                model.clear();
                tally.cleared += 1;
            } else {
                let (av, sliver) = (draw_av(&mut r), draw_sliver(&mut r));
                let fresh = id != owner && model.iter().all(|e| e.0 != id);
                let neighbor = Neighbor {
                    id: NodeId::new(u64::from(id)),
                    cached_availability: av,
                };
                assert_eq!(
                    m.insert(neighbor, sliver),
                    fresh,
                    "seed {seed} step {step}: insert {id}"
                );
                if fresh {
                    model.push((id, av, sliver));
                    tally.inserted += 1;
                } else {
                    tally.refused += 1;
                }
            }
            tally.longest = tally.longest.max(model.len());
            check_against_model(
                &m,
                &model,
                tally.longest,
                &format!("seed {seed} step {step}"),
            );
        }
        tally
    }

    proptest! {
        /// Inserts (self and duplicates included), removals, refreshes
        /// that keep, evict and migrate, and clears: the columns, both
        /// slivers' orders, the counts, the room and equality match the
        /// naive lists after every step.
        #[test]
        fn membership_matches_the_naive_lists(seed in any::<u64>()) {
            membership_differential(seed, 200);
        }
    }

    /// What a multicast's forwarding passes rest on (the
    /// [`crate::ops::OverlayWorld::neighbors`] contract): no id twice in
    /// `[HS | VS]`, and not the owner.
    fn assert_set(m: &Membership, at: &str) {
        let ids = m.columns(SliverScope::Both).ids;
        let mut distinct = ids.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), ids.len(), "{at}: an id repeats in {ids:?}");
        assert!(
            !ids.contains(&packed_id(m.owner())),
            "{at}: the owner is listed in {ids:?}"
        );
    }

    proptest! {
        /// Random inserts (the owner and listed ids among them),
        /// removals, discoveries over candidate lists with repeats and
        /// the owner in them, and refreshes that keep, evict and migrate
        /// leave every list a set of other nodes after every step.
        #[test]
        fn lists_stay_sets_of_other_nodes(seed in any::<u64>()) {
            let mut r = SplitMix64::new(seed);
            let owner = r.range_u64(4);
            let id_space = [4, 12, 40][r.index(3)];
            let mut oracle = TableOracle::default();
            for id in 0..id_space {
                oracle.set(id, r.index(9) as f64 / 8.0);
            }
            let predicate = take_all_predicate();
            let own = NodeInfo::new(NodeId::new(owner), Availability::saturating(0.5));
            let mut m = Membership::new(own.id);
            let mut migrants = Vec::new();
            let mut migrated = 0;
            let draw_sliver = |r: &mut SplitMix64| {
                if r.chance(0.5) {
                    Sliver::Horizontal
                } else {
                    Sliver::Vertical
                }
            };
            for step in 0..200 {
                match r.index(4) {
                    0 => {
                        let neighbor = Neighbor {
                            id: NodeId::new(r.range_u64(id_space)),
                            cached_availability: Availability::saturating(r.next_f64()),
                        };
                        m.insert(neighbor, draw_sliver(&mut r));
                    }
                    1 => {
                        m.remove(NodeId::new(r.range_u64(id_space)));
                    }
                    2 => {
                        let candidates: Vec<NodeId> = (0..r.index(20))
                            .map(|_| NodeId::new(r.range_u64(id_space)))
                            .collect();
                        m.discover(own, candidates, &oracle, &predicate, SimTime::ZERO);
                    }
                    _ => {
                        let outcome = m.refresh_with(&mut migrants, |_| {
                            (!r.chance(0.2)).then(|| {
                                (Availability::saturating(r.next_f64()), draw_sliver(&mut r))
                            })
                        });
                        migrated += outcome.migrated;
                    }
                }
                assert_set(&m, &format!("seed {seed} step {step}"));
            }
            prop_assert!(migrated > 0 || m.len() < 2, "seed {seed}: no refresh migrated");
        }
    }

    /// The converged rebuild's lists are sets of other nodes too.
    #[test]
    fn converged_rebuild_lists_are_sets_of_other_nodes() {
        use crate::harness::{AvmemSim, SimConfig};
        use avmem_sim::SimDuration;
        use avmem_trace::OvernetModel;

        for seed in 0..3 {
            let trace = OvernetModel::default().hosts(150).days(1).generate(seed);
            let mut sim = AvmemSim::new(trace, SimConfig::paper_default(seed));
            sim.warm_up(SimDuration::from_hours(3));
            let mut entries = 0;
            for x in 0..150 {
                let m = sim.membership(NodeId::new(x));
                assert_set(m, &format!("seed {seed} node {x}"));
                entries += m.len();
            }
            assert!(
                entries > 1000,
                "seed {seed}: {entries} entries, a vacuous overlay"
            );
        }
    }

    #[test]
    fn random_runs_take_every_path_and_grow_past_every_doubling() {
        let mut total = Tally::default();
        for seed in 0..64 {
            let t = membership_differential(seed, 200);
            total.longest = total.longest.max(t.longest);
            total.inserted += t.inserted;
            total.refused += t.refused;
            total.removed += t.removed;
            total.kept += t.kept;
            total.evicted += t.evicted;
            total.migrated += t.migrated;
            total.cleared += t.cleared;
        }
        assert!(total.longest > 64, "{total:?}");
        let counts = [
            total.inserted,
            total.refused,
            total.removed,
            total.kept,
            total.evicted,
            total.migrated,
            total.cleared,
        ];
        assert!(counts.iter().all(|&n| n >= 20), "{total:?}");
    }
}
