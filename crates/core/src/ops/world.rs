//! The world interface operations run against.
//!
//! Anycast and multicast walk the overlay hop by hop; everything they
//! need to know about the system is behind [`OverlayWorld`]:
//! who is online *right now* (ground truth — an offline node simply does
//! not answer), what each node believes about its own availability (from
//! the monitoring service), each node's cached neighbor lists, whether a
//! receiver would admit a sender under §4.1's check with its own
//! estimates ([`OverlayWorld::admits`]), and — for measurement only —
//! true availabilities.
//!
//! Node ids are **index-space**: every id is below [`OverlayWorld::id_bound`].
//! That is what lets the operations keep their per-node state in dense,
//! reused arrays ([`crate::ops::OpScratch`]) instead of hash sets, and
//! read neighbor lists as borrowed columns instead of materialized
//! [`crate::membership::Neighbor`]s.
//!
//! The production implementation is the full-system harness
//! ([`crate::harness::AvmemSim`]); tests use hand-built mock worlds.

use avmem_util::{Availability, NodeId};

use crate::membership::{NeighborColumns, SliverScope};
use crate::ops::target::AvailabilityTarget;
use crate::verify::AdmissionPolicy;

/// Read access to the simulated system state at the instant an operation
/// executes.
///
/// Operations complete in at most seconds of virtual time while churn
/// happens on a minutes scale, so the world is treated as static for the
/// duration of a single operation — matching the paper's methodology.
pub trait OverlayWorld {
    /// Exclusive upper bound of the (fixed) population's ids: the nodes
    /// are `0..id_bound()`, and no neighbor list names an id outside it.
    fn id_bound(&self) -> usize;

    /// Whether `id` is online right now (ground truth).
    fn is_online(&self, id: NodeId) -> bool;

    /// Who is online, as words: `id` is online iff bit `id % 64` of word
    /// `id / 64` is set, and every id past the last word is offline —
    /// exactly [`OverlayWorld::is_online`]. A flood tests its receivers
    /// against them sixteen at a time.
    fn online_words(&self) -> &[u64];

    /// What `id` believes its own availability is (its latest answer from
    /// the monitoring service). Used by "am I in the target range?"
    /// checks.
    fn believed_availability(&self, id: NodeId) -> Availability;

    /// The true long-term availability of `id` (measurement only; no
    /// protocol decision may depend on it).
    fn true_availability(&self, id: NodeId) -> Availability;

    /// `id`'s current neighbors in `scope` — HS first, then VS, each in
    /// insertion order — as borrowed id / *cached* availability columns
    /// (the paper's forwarding uses values cached at the last refresh,
    /// §3.2). The list is a set: it never names an id twice, across both
    /// slivers (a `Membership` refuses an id either sliver holds). A
    /// multicast forwarder relies on it to send once per neighbor without
    /// recording whom it sent to.
    fn neighbors(&self, id: NodeId, scope: SliverScope) -> NeighborColumns<'_>;

    /// Whether `receiver` would accept a message from `sender` under
    /// `policy`: §4.1's check of `M(sender, receiver)` with the
    /// receiver's *own* estimates of both sides. `None` when the receiver
    /// has no estimate of one side and cannot check. Every world states
    /// how it verifies; there is no default.
    fn admits(&self, sender: NodeId, receiver: NodeId, policy: AdmissionPolicy) -> Option<bool>;

    /// How many online nodes' *true* availability lies in `target` — the
    /// paper's "number that could have been delivered" (measurement
    /// only). The default asks every id; a world that keeps its online
    /// population ordered by availability answers without the scan.
    fn eligible(&self, target: AvailabilityTarget) -> usize {
        (0..self.id_bound() as u64)
            .map(NodeId::new)
            .filter(|&id| self.is_online(id) && target.contains(self.true_availability(id)))
            .count()
    }
}

#[cfg(test)]
pub(crate) mod mock {
    use std::collections::HashMap;

    use avmem_util::Rng;

    use super::*;

    /// A broad random target (a range or a threshold), so that a good
    /// share of a random world lies inside it.
    pub fn random_target(r: &mut impl Rng) -> AvailabilityTarget {
        let lo = 0.4 * r.next_f64();
        if r.chance(0.3) {
            AvailabilityTarget::threshold(lo)
        } else {
            AvailabilityTarget::range(lo, (lo + 0.3 + 0.4 * r.next_f64()).min(1.0))
        }
    }

    /// One node of a [`MockWorld`]: its `[HS | VS]` columns are laid out
    /// like a `Membership`'s, so every scope is one contiguous borrow.
    #[derive(Debug, Clone, Default)]
    struct MockNode {
        online: bool,
        believed: f64,
        truth: f64,
        ids: Vec<u32>,
        cached: Vec<Availability>,
        hs_len: usize,
    }

    /// A hand-wired world for operation unit tests. Ids index a dense
    /// table; an id never `add`ed is an offline node without edges. Every
    /// receiver admits every sender unless [`MockWorld::set_verdict`]
    /// says otherwise.
    #[derive(Debug, Clone, Default)]
    pub struct MockWorld {
        nodes: Vec<MockNode>,
        verdicts: HashMap<(u64, u64), Option<bool>>,
        /// Who is online, as [`OverlayWorld::online_words`].
        words: Vec<u64>,
    }

    impl MockWorld {
        fn node_mut(&mut self, id: u64) -> &mut MockNode {
            let index = id as usize;
            if self.nodes.len() <= index {
                self.nodes.resize(index + 1, MockNode::default());
            }
            &mut self.nodes[index]
        }

        /// Sets whether `id` is online, in its node and in the words.
        fn set_online(&mut self, id: u64, online: bool) {
            self.node_mut(id).online = online;
            let (word, bit) = (id as usize / 64, id % 64);
            if self.words.len() <= word {
                self.words.resize(word + 1, 0);
            }
            self.words[word] = self.words[word] & !(1 << bit) | u64::from(online) << bit;
        }

        fn node(&self, id: NodeId) -> Option<&MockNode> {
            self.nodes.get(id.raw() as usize)
        }

        /// Adds a node with the given availability, online.
        pub fn add(&mut self, id: u64, av: f64) {
            self.set_online(id, true);
            let node = self.node_mut(id);
            node.believed = av;
            node.truth = av;
        }

        /// Declares `a`'s horizontal-sliver edge to `b`, caching `b`'s
        /// availability as it is now (add nodes before their in-edges).
        pub fn hs_edge(&mut self, a: u64, b: u64) {
            let cached = self.node(NodeId::new(b)).map_or(0.0, |n| n.truth);
            self.hs_edge_cached(a, b, cached);
        }

        /// Declares `a`'s vertical-sliver edge to `b`, caching `b`'s
        /// availability as it is now.
        pub fn vs_edge(&mut self, a: u64, b: u64) {
            let cached = self.node(NodeId::new(b)).map_or(0.0, |n| n.truth);
            self.vs_edge_cached(a, b, cached);
        }

        /// An HS edge whose cached availability is chosen by the test
        /// (stale caches: a forwarder that believes `b` in range when
        /// `b` itself does not). Like every edge builder, refuses `b` if
        /// either of `a`'s slivers lists it already, as
        /// `Membership::insert` does: lists are sets.
        pub fn hs_edge_cached(&mut self, a: u64, b: u64, cached: f64) {
            self.node_mut(b);
            let node = self.node_mut(a);
            if node.ids.contains(&(b as u32)) {
                return;
            }
            node.ids.insert(node.hs_len, b as u32);
            node.cached.insert(node.hs_len, Availability::saturating(cached));
            node.hs_len += 1;
        }

        /// A VS edge with a test-chosen cached availability.
        pub fn vs_edge_cached(&mut self, a: u64, b: u64, cached: f64) {
            self.node_mut(b);
            let node = self.node_mut(a);
            if node.ids.contains(&(b as u32)) {
                return;
            }
            node.ids.push(b as u32);
            node.cached.push(Availability::saturating(cached));
        }

        /// A random world of 2 to 47 nodes with everything the operations
        /// have to get right: offline nodes, stale caches in both
        /// directions (receivers that believe themselves out of range,
        /// neighbors cached at a value they never had), and self edges.
        /// A draw that names a node already listed adds no edge.
        pub fn random<R: Rng>(r: &mut R) -> Self {
            let n = 2 + r.index(46) as u64;
            // Half the worlds draw availabilities from eleven values, so
            // that candidates tie on distance *and* availability.
            let coarse = r.chance(0.5);
            let availability = |r: &mut R| {
                if coarse {
                    r.index(11) as f64 / 10.0
                } else {
                    r.next_f64()
                }
            };
            let mut world = MockWorld::default();
            for id in 0..n {
                world.add(id, availability(r));
                if r.chance(0.15) {
                    world.set_offline(id);
                }
                if r.chance(0.15) {
                    world.set_believed(id, availability(r));
                }
            }
            for a in 0..n {
                for _ in 0..r.index(16) {
                    let b = r.index(n as usize) as u64;
                    // Mostly the neighbor's own availability, sometimes stale.
                    let cached = if r.chance(0.75) {
                        world.true_availability(NodeId::new(b)).value()
                    } else {
                        availability(r)
                    };
                    if r.chance(0.5) {
                        world.hs_edge_cached(a, b, cached);
                    } else {
                        world.vs_edge_cached(a, b, cached);
                    }
                }
            }
            world
        }

        /// Marks a node offline.
        pub fn set_offline(&mut self, id: u64) {
            self.set_online(id, false);
        }

        /// Sets what the node believes about itself, leaving the truth.
        pub fn set_believed(&mut self, id: u64, av: f64) {
            self.node_mut(id).believed = av;
        }

        /// What `receiver` answers a message from `sender` with.
        pub fn set_verdict(&mut self, sender: u64, receiver: u64, verdict: Option<bool>) {
            self.verdicts.insert((sender, receiver), verdict);
        }
    }

    impl OverlayWorld for MockWorld {
        fn id_bound(&self) -> usize {
            self.nodes.len()
        }

        fn is_online(&self, id: NodeId) -> bool {
            self.node(id).is_some_and(|n| n.online)
        }

        fn online_words(&self) -> &[u64] {
            &self.words
        }

        fn believed_availability(&self, id: NodeId) -> Availability {
            Availability::saturating(self.node(id).map_or(0.0, |n| n.believed))
        }

        fn true_availability(&self, id: NodeId) -> Availability {
            Availability::saturating(self.node(id).map_or(0.0, |n| n.truth))
        }

        fn neighbors(&self, id: NodeId, scope: SliverScope) -> NeighborColumns<'_> {
            let Some(node) = self.node(id) else {
                return NeighborColumns { ids: &[], cached_availability: &[] };
            };
            let range = match scope {
                SliverScope::HsOnly => 0..node.hs_len,
                SliverScope::VsOnly => node.hs_len..node.ids.len(),
                SliverScope::Both => 0..node.ids.len(),
            };
            NeighborColumns {
                ids: &node.ids[range.clone()],
                cached_availability: &node.cached[range],
            }
        }

        fn admits(&self, sender: NodeId, receiver: NodeId, _: AdmissionPolicy) -> Option<bool> {
            let key = (sender.raw(), receiver.raw());
            self.verdicts.get(&key).copied().unwrap_or(Some(true))
        }
    }
}
