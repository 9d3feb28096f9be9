//! The CYCLON shuffle state machine.
//!
//! Pure message-in/message-out: the host simulation decides when to call
//! [`ShuffleNode::initiate_with`] (once per protocol period while online),
//! routes requests and replies between nodes — each is just the entry
//! vector it ships — and reports unresponsive targets with
//! [`ShuffleNode::handle_timeout_with`]. Every entry point
//! takes the caller's [`EntryPool`]: message buffers and the merge's id
//! table come out of it, and what it held before changes no result.

use avmem_util::{NodeId, Rng, SplitMix64};
use serde::{Deserialize, Serialize};

use crate::pool::EntryPool;
use crate::view::{View, ViewEntry};

/// Configuration of the shuffle protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShuffleConfig {
    /// Partial-view capacity (`v` in §3.1; `√N` is optimal).
    pub view_size: usize,
    /// Number of entries exchanged per shuffle (`ℓ`), self included.
    pub shuffle_length: usize,
}

impl ShuffleConfig {
    /// Creates a config, validating `0 < shuffle_length ≤ view_size`.
    ///
    /// # Panics
    ///
    /// Panics if the invariant is violated.
    pub fn new(view_size: usize, shuffle_length: usize) -> Self {
        assert!(view_size > 0, "view size must be positive");
        assert!(
            (1..=view_size).contains(&shuffle_length),
            "shuffle length must be in 1..=view_size"
        );
        ShuffleConfig {
            view_size,
            shuffle_length,
        }
    }

    /// The paper-scale default for a system of `n` nodes: view `√N`,
    /// exchanging half the view (min 4).
    pub fn for_system_size(n: usize) -> Self {
        let v = crate::optimal_view_size(n);
        ShuffleConfig::new(v, (v / 2).max(4).min(v))
    }
}

/// Per-node CYCLON state.
///
/// One per host, so the state is kept to what a node needs: an
/// index-space id, the shuffle length `ℓ` (the view size is the view's
/// capacity), the view, the generator and the in-flight exchange — at
/// most 72 bytes beside the view's allocation.
///
/// # Examples
///
/// A complete exchange between two nodes:
///
/// ```
/// use avmem_shuffle::{EntryPool, ShuffleConfig, ShuffleNode};
/// use avmem_util::NodeId;
///
/// let cfg = ShuffleConfig::new(8, 4);
/// let mut a = ShuffleNode::new(NodeId::new(1), cfg, 11);
/// let mut b = ShuffleNode::new(NodeId::new(2), cfg, 22);
/// a.bootstrap([NodeId::new(2)]);
///
/// let mut pool = EntryPool::new();
/// let (target, request) = a.initiate_with(&mut pool).expect("view non-empty");
/// assert_eq!(target, NodeId::new(2));
/// let reply = b.handle_request_with(request, &mut pool);
/// a.handle_reply_with(reply, &mut pool);
///
/// // After the exchange the target has learned about the initiator.
/// assert!(b.view().contains(NodeId::new(1)));
/// ```
#[derive(Debug, Clone)]
pub struct ShuffleNode {
    id: u32,
    /// Entries an exchange ships (`ℓ`).
    shuffle_length: u32,
    view: View,
    rng: SplitMix64,
    /// Entries sent in the in-flight exchange (for merge bookkeeping).
    in_flight: Option<InFlight>,
}

// One node per host: padding creep here is paid N times.
const _: () = assert!(std::mem::size_of::<ShuffleNode>() <= 72);

#[derive(Debug, Clone)]
struct InFlight {
    target: NodeId,
    sent: Vec<ViewEntry>,
}

/// A shuffle exchange this node *would* start now: the target (its oldest
/// view entry) and the request entries, sampled from the post-aging view.
///
/// Produced by the read-only [`ShuffleNode::propose_with`] and turned
/// into state by [`ShuffleNode::apply_with`]. Splitting the two lets a
/// batch driver compute every node's proposal in parallel from a frozen
/// view of the system — randomness comes from the caller's (typically
/// counter-keyed) generator, not from shared node state — and then commit
/// the resulting request/reply exchanges in a deterministic serial order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShuffleProposal {
    target: NodeId,
    /// Where `target` sits in the view the proposal was computed from.
    target_pos: usize,
    entries: Vec<ViewEntry>,
}

impl ShuffleProposal {
    /// The node this exchange would contact.
    pub fn target(&self) -> NodeId {
        self.target
    }

    /// The entries the request would carry (a fresh self-entry last).
    pub fn entries(&self) -> &[ViewEntry] {
        &self.entries
    }

    /// Consumes the proposal into the request: the target and the
    /// entries shipped to it.
    pub fn into_request(self) -> (NodeId, Vec<ViewEntry>) {
        (self.target, self.entries)
    }

    /// Consumes a proposal that will never become a request (e.g. its
    /// target is offline), recycling the entry buffer into `pool`.
    pub fn recycle_into(self, pool: &mut EntryPool) {
        pool.recycle(self.entries);
    }
}

impl ShuffleNode {
    /// Creates a node with an empty view.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not fit `u32`: node ids are index-space, like
    /// the ids views hold.
    pub fn new(id: NodeId, config: ShuffleConfig, seed: u64) -> Self {
        ShuffleNode {
            id: u32::try_from(id.raw()).expect("shuffle node ids are index-space (must fit u32)"),
            shuffle_length: u32::try_from(config.shuffle_length).expect("shuffle length fits u32"),
            view: View::new(config.view_size),
            rng: SplitMix64::new(seed),
            in_flight: None,
        }
    }

    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        NodeId::new(u64::from(self.id))
    }

    /// Read access to the current view.
    pub fn view(&self) -> &View {
        &self.view
    }

    /// Marks the view slot at `pos` ([`View::mark`]): the protocol never
    /// reads marks, so this changes no exchange.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is not a position of the view.
    pub fn mark_view(&mut self, pos: usize) {
        self.view.mark(pos);
    }

    /// Clears every mark of the view ([`View::clear_marks`]).
    pub fn clear_view_marks(&mut self) {
        self.view.clear_marks();
    }

    /// Seeds the view with known peers (used on join/rejoin).
    pub fn bootstrap<I>(&mut self, seeds: I)
    where
        I: IntoIterator<Item = NodeId>,
    {
        for seed in seeds {
            if seed != self.id() {
                self.view.insert(ViewEntry::fresh(seed));
            }
        }
    }

    /// Computes the exchange this node would start now, *without mutating
    /// any state*: the target is the oldest view entry and the request
    /// entries are a random subset of the view as it will look after
    /// aging, plus a fresh self-entry.
    ///
    /// All randomness comes from `rng`, so a driver that keys the
    /// generator by `(run_seed, node, epoch)` gets proposals that are
    /// independent of evaluation order — the property the batched
    /// parallel maintenance loop relies on. Returns `None` when the view
    /// is empty or an exchange is already in flight.
    ///
    /// A proposal is only meaningful against the exact view it was
    /// computed from; pass it to [`ShuffleNode::apply_with`] before
    /// anything else touches this node.
    ///
    /// The entry buffer comes from `pool`: batch drivers pass a per-shard
    /// pool so proposal buffers are recycled across cohorts instead of
    /// reallocated.
    pub fn propose_with<R: Rng>(
        &self,
        rng: &mut R,
        pool: &mut EntryPool,
    ) -> Option<ShuffleProposal> {
        if self.in_flight.is_some() {
            return None;
        }
        let (target_pos, target) = self.view.oldest_at()?;
        let shuffle_length = self.shuffle_length as usize;
        let mut entries = pool.take(shuffle_length);
        self.view.random_subset_pooled(
            rng,
            shuffle_length - 1,
            Some(target_pos),
            1,
            pool.positions(),
            &mut entries,
        );
        entries.push(ViewEntry::fresh(self.id()));
        Some(ShuffleProposal {
            target: target.id,
            target_pos,
            entries,
        })
    }

    /// Applies a proposal from [`ShuffleNode::propose_with`]: ages the
    /// view, removes the target entry, and records the in-flight exchange
    /// (its bookkeeping buffer drawn from `pool`). The host then routes
    /// [`ShuffleProposal::into_request`] to the target and completes with
    /// [`ShuffleNode::handle_reply_with`] or
    /// [`ShuffleNode::handle_timeout_with`].
    ///
    /// # Panics
    ///
    /// Panics if the proposal does not match this node's state (its
    /// target is no longer where the proposal found it in the view, or an
    /// exchange is in flight) — i.e. if the view changed between
    /// `propose_with` and `apply_with`.
    pub fn apply_with(&mut self, proposal: &ShuffleProposal, pool: &mut EntryPool) {
        assert!(
            self.in_flight.is_none(),
            "apply with an exchange already in flight"
        );
        self.view.age_all();
        self.view
            .remove_at(proposal.target_pos, proposal.target)
            .expect("proposal target vanished from the view before apply");
        let mut sent = pool.take(proposal.entries.len());
        sent.extend_from_slice(&proposal.entries);
        self.in_flight = Some(InFlight {
            target: proposal.target,
            sent,
        });
    }

    /// Starts one shuffle period: ages the view, removes the oldest entry
    /// as the exchange target, and produces the request to send to it —
    /// [`ShuffleNode::propose_with`] + [`ShuffleNode::apply_with`] driven
    /// by the node's own generator, for serial hosts.
    ///
    /// Returns `None` when the view is empty (nothing to exchange with) or
    /// an exchange is already in flight.
    pub fn initiate_with(&mut self, pool: &mut EntryPool) -> Option<(NodeId, Vec<ViewEntry>)> {
        let mut rng = self.rng.clone();
        let proposal = self.propose_with(&mut rng, pool)?;
        self.rng = rng;
        self.apply_with(&proposal, pool);
        Some(proposal.into_request())
    }

    /// Handles an incoming request's entries, returning the reply's: the
    /// reply buffer comes from `pool`, the merge runs on its id table, and
    /// the spent request entries are recycled into it.
    pub fn handle_request_with(
        &mut self,
        entries: Vec<ViewEntry>,
        pool: &mut EntryPool,
    ) -> Vec<ViewEntry> {
        let shuffle_length = self.shuffle_length as usize;
        let mut reply = pool.take(shuffle_length);
        self.view.random_subset_pooled(
            &mut self.rng,
            shuffle_length,
            None,
            0,
            pool.positions(),
            &mut reply,
        );
        self.view
            .merge(self.id(), &entries, &reply, pool.id_table());
        pool.recycle(entries);
        reply
    }

    /// Handles the reply's entries to our in-flight request, completing
    /// the exchange: merges on `pool`'s id table and recycles the spent
    /// reply and in-flight buffers into it. A reply with no exchange in
    /// flight (e.g. from a target already timed out) is ignored.
    pub fn handle_reply_with(&mut self, entries: Vec<ViewEntry>, pool: &mut EntryPool) {
        let Some(in_flight) = self.in_flight.take() else {
            pool.recycle(entries);
            return;
        };
        self.view
            .merge(self.id(), &entries, &in_flight.sent, pool.id_table());
        pool.recycle(entries);
        pool.recycle(in_flight.sent);
    }

    /// Reports that the in-flight target never answered. CYCLON's
    /// self-cleaning: the dead entry stays removed. Entries we planned to
    /// trade are retained; the in-flight buffer is recycled into `pool`.
    pub fn handle_timeout_with(&mut self, target: NodeId, pool: &mut EntryPool) {
        if let Some(in_flight) = &self.in_flight {
            if in_flight.target == target {
                if let Some(in_flight) = self.in_flight.take() {
                    pool.recycle(in_flight.sent);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> NodeId {
        NodeId::new(n)
    }

    fn node(n: u64) -> ShuffleNode {
        ShuffleNode::new(id(n), ShuffleConfig::new(8, 4), n)
    }

    #[test]
    fn bootstrap_skips_self() {
        let mut a = node(1);
        a.bootstrap([id(1), id(2), id(3)]);
        assert_eq!(a.view().len(), 2);
        assert!(!a.view().contains(id(1)));
    }

    #[test]
    fn initiate_on_empty_view_returns_none() {
        let mut a = node(1);
        assert!(a.initiate_with(&mut EntryPool::new()).is_none());
    }

    #[test]
    fn initiate_targets_oldest_and_removes_it() {
        let mut a = node(1);
        a.bootstrap([id(2)]);
        // Age id(2), then add a fresh id(3): id(2) is oldest.
        let _ = a.initiate_with(&mut EntryPool::new()); // ages, targets 2, removes it
        // After initiate, 2 removed.
        assert!(!a.view().contains(id(2)));
    }

    #[test]
    fn request_carries_fresh_self_entry() {
        let mut a = node(1);
        a.bootstrap([id(2), id(3)]);
        let (_, entries) = a.initiate_with(&mut EntryPool::new()).unwrap();
        assert!(entries.iter().any(|e| e.id == id(1) && e.age == 0));
    }

    #[test]
    fn exchange_spreads_knowledge_both_ways() {
        let cfg = ShuffleConfig::new(8, 4);
        let mut a = ShuffleNode::new(id(1), cfg, 10);
        let mut b = ShuffleNode::new(id(2), cfg, 20);
        a.bootstrap([id(2)]);
        b.bootstrap([id(5), id(6)]);

        let (target, req) = a.initiate_with(&mut EntryPool::new()).unwrap();
        assert_eq!(target, id(2));
        // Give a some more context for the assertion below.
        a.bootstrap([id(3), id(4)]);
        let reply = b.handle_request_with(req, &mut EntryPool::new());
        a.handle_reply_with(reply, &mut EntryPool::new());

        // b learned about a.
        assert!(b.view().contains(id(1)));
        // a learned something from b's view.
        let knows_from_b = a.view().contains(id(5)) || a.view().contains(id(6));
        assert!(knows_from_b, "a's view: {:?}", a.view());
    }

    #[test]
    fn second_initiate_while_in_flight_is_noop() {
        let mut a = node(1);
        a.bootstrap([id(2), id(3)]);
        let first = a.initiate_with(&mut EntryPool::new());
        assert!(first.is_some());
        assert!(a.initiate_with(&mut EntryPool::new()).is_none());
    }

    #[test]
    fn timeout_clears_in_flight_and_drops_dead_entry() {
        let mut a = node(1);
        a.bootstrap([id(2)]);
        let (target, _) = a.initiate_with(&mut EntryPool::new()).unwrap();
        a.handle_timeout_with(target, &mut EntryPool::new());
        assert!(!a.view().contains(target));
        // Can initiate again (view empty now though).
        assert!(a.initiate_with(&mut EntryPool::new()).is_none());
    }

    #[test]
    fn stray_reply_is_ignored() {
        let mut a = node(1);
        a.bootstrap([id(2)]);
        a.handle_reply_with(vec![ViewEntry::fresh(id(9))], &mut EntryPool::new());
        // No in-flight exchange: nothing merged.
        assert!(!a.view().contains(id(9)));
    }

    #[test]
    #[should_panic(expected = "shuffle length")]
    fn invalid_config_panics() {
        let _ = ShuffleConfig::new(4, 5);
    }

    #[test]
    fn initiate_is_bit_identical_to_legacy_behavior() {
        // `initiate` is now propose + apply; pin it against a hand-rolled
        // copy of the pre-split algorithm (age everything, target the
        // oldest entry, remove it, sample the post-aging view, append a
        // fresh self-entry): same target, same wire entries, same view,
        // same rng consumption, for many seeds — at a toy shape and at
        // the two the benchmark runs (1 442 and 16 000 hosts), over views
        // whose ages tie and differ.
        for (view_size, shuffle_length) in [(8, 4), (38, 19), (126, 63)] {
            for seed in 0..20u64 {
                let cfg = ShuffleConfig::new(view_size, shuffle_length);
                let mut node = ShuffleNode::new(id(1), cfg, seed);
                for pos in 0..view_size as u64 {
                    let age = (pos * (seed + 3) % 5) as u32;
                    node.view.insert(ViewEntry {
                        id: id(2 + pos),
                        age,
                    });
                }

                let mut legacy_view = node.view.clone();
                let mut legacy_rng = node.rng.clone();
                legacy_view.age_all();
                let target_entry = legacy_view.oldest().unwrap();
                legacy_view.remove(target_entry.id);
                let mut legacy_entries = legacy_view.random_subset(
                    &mut legacy_rng,
                    cfg.shuffle_length - 1,
                    Some(target_entry.id),
                );
                legacy_entries.push(ViewEntry::fresh(id(1)));

                let (target, entries) = node.initiate_with(&mut EntryPool::new()).unwrap();
                assert_eq!(target, target_entry.id, "seed {seed}");
                assert_eq!(entries, legacy_entries, "seed {seed}");
                assert_eq!(node.view, legacy_view, "seed {seed}");
                assert_eq!(node.rng, legacy_rng, "seed {seed}");
            }
        }
    }

    #[test]
    fn an_exchange_of_length_one_ships_only_the_initiator() {
        // ℓ = 1: propose samples ℓ − 1 = 0 entries and must not draw.
        let cfg = ShuffleConfig::new(1, 1);
        let mut a = ShuffleNode::new(id(1), cfg, 10);
        let mut b = ShuffleNode::new(id(2), cfg, 20);
        a.bootstrap([id(2)]);
        b.bootstrap([id(7)]);
        let mut rng = SplitMix64::new(4);
        let untouched = rng.clone();
        let proposal = a.propose_with(&mut rng, &mut EntryPool::new()).unwrap();
        assert_eq!(rng, untouched, "nothing to sample, nothing drawn");
        assert_eq!(proposal.entries(), [ViewEntry::fresh(id(1))]);
        a.apply_with(&proposal, &mut EntryPool::new());
        let (target, request) = proposal.into_request();
        assert_eq!(target, id(2));
        let reply = b.handle_request_with(request, &mut EntryPool::new());
        assert_eq!(reply, [ViewEntry::fresh(id(7))]);
        a.handle_reply_with(reply, &mut EntryPool::new());
        // Each took the other's one entry in place of what it shipped.
        assert_eq!(a.view().ids().collect::<Vec<_>>(), [id(7)]);
        assert_eq!(b.view().ids().collect::<Vec<_>>(), [id(1)]);
    }

    #[test]
    fn propose_does_not_mutate_state() {
        let mut a = node(1);
        a.bootstrap([id(2), id(3), id(4)]);
        let before = a.view().clone();
        let mut rng = SplitMix64::new(99);
        let proposal = a.propose_with(&mut rng, &mut EntryPool::new()).unwrap();
        assert_eq!(*a.view(), before, "propose must be read-only");
        assert!(before.contains(proposal.target()));
        // Request carries a fresh self-entry last, like initiate's.
        assert_eq!(*proposal.entries().last().unwrap(), ViewEntry::fresh(id(1)));
    }

    #[test]
    fn propose_uses_post_aging_ages() {
        let mut a = node(1);
        a.bootstrap([id(2), id(3)]);
        let mut rng = SplitMix64::new(7);
        let proposal = a.propose_with(&mut rng, &mut EntryPool::new()).unwrap();
        for e in proposal.entries() {
            if e.id != id(1) {
                assert_eq!(e.age, 1, "sampled entries must reflect aging");
            }
        }
    }

    #[test]
    fn apply_sets_in_flight_until_resolved() {
        let mut a = node(1);
        a.bootstrap([id(2), id(3)]);
        let mut rng = SplitMix64::new(5);
        let proposal = a.propose_with(&mut rng, &mut EntryPool::new()).unwrap();
        a.apply_with(&proposal, &mut EntryPool::new());
        assert!(
            a.propose_with(&mut rng, &mut EntryPool::new()).is_none(),
            "exchange is in flight"
        );
        assert!(!a.view().contains(proposal.target()));
        a.handle_timeout_with(proposal.target(), &mut EntryPool::new());
        assert!(a.propose_with(&mut rng, &mut EntryPool::new()).is_some());
    }

    #[test]
    fn propose_on_empty_view_or_in_flight_consumes_no_randomness() {
        let mut rng = SplitMix64::new(11);
        let reference = rng.clone();
        let a = node(1);
        assert!(a.propose_with(&mut rng, &mut EntryPool::new()).is_none());
        assert_eq!(rng, reference, "refused propose must not draw");
    }

    #[test]
    #[should_panic(expected = "vanished from the view")]
    fn apply_against_a_changed_view_panics() {
        let mut a = node(1);
        a.bootstrap([id(2)]);
        let mut rng = SplitMix64::new(3);
        let proposal = a.propose_with(&mut rng, &mut EntryPool::new()).unwrap();
        a.view.remove(proposal.target());
        a.apply_with(&proposal, &mut EntryPool::new());
    }
}
