//! Reading a simulation: overlay health, who is up, and the borrowed
//! [`OverlayWorld`] view the operations run against.

use avmem_avmon::AvailabilityOracle;
use avmem_shuffle::View;
use avmem_sim::SimTime;
use avmem_trace::{ChurnTrace, OnlineIndex};
use avmem_util::{Availability, NodeId};

use super::{AvmemSim, SimOracle};
use crate::graph::components;
use crate::membership::{Membership, NeighborColumns, SliverScope};
use crate::ops::target::AvailabilityTarget;
use crate::ops::world::OverlayWorld;
use crate::predicate::AvmemPredicate;
use crate::verify::AdmissionPolicy;

/// Overlay-health numbers, computed by [`AvmemSim::health_stats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthStats {
    /// Nodes online at sample time.
    pub online: usize,
    /// Mean total degree (|HS| + |VS|) over online nodes.
    pub mean_degree: f64,
    /// Fraction of online nodes inside the largest weakly-connected
    /// component of the both-sliver overlay.
    pub largest_component: f64,
}

impl AvmemSim {
    /// The overlay's health now, read off the live lists in one
    /// union-find pass ([`components`]) without copying any of them.
    pub fn health_stats(&self) -> HealthStats {
        let n = self.trace.num_nodes();
        let online = |i| self.online.contains(i);
        let lists = |i: usize| self.memberships[i].columns(SliverScope::Both).ids;
        let found = components(n, online, lists);
        let degree_sum: f64 = (0..n).filter(|&i| online(i)).map(|i| lists(i).len() as f64).sum();
        HealthStats {
            online: found.members,
            mean_degree: if found.members == 0 { 0.0 } else { degree_sum / found.members as f64 },
            largest_component: found.largest_fraction(),
        }
    }

    /// Who is up now: the per-slot [`OnlineIndex`], standing at
    /// [`AvmemSim::now`]'s slot. Its ascending online list and its bit
    /// per node say what [`ChurnTrace::online_at`] and
    /// [`ChurnTrace::is_online`] would, without a scan of the population.
    pub fn online(&self) -> &OnlineIndex {
        &self.online
    }

    /// A node's coarse (shuffle) view — the discovery substrate's state,
    /// exposed for analysis and the engine-equivalence tests.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the population.
    pub fn shuffle_view(&self, id: NodeId) -> &View {
        self.shuffles[self.index(id)].view()
    }

    /// A borrowed [`OverlayWorld`] view of the current state: what
    /// [`crate::ops::run_anycast`] and [`crate::ops::run_multicast`] run
    /// against, and what custom measurements read.
    pub fn world(&self) -> impl OverlayWorld + '_ {
        WorldView::new(
            &self.trace,
            &self.predicate,
            &self.oracle,
            &self.memberships,
            &self.online,
            self.now,
        )
    }
}

/// Borrowed world view over the simulation state at one instant.
struct WorldView<'a> {
    trace: &'a ChurnTrace,
    /// What a receiver checks a sender against ([`OverlayWorld::admits`]).
    predicate: &'a AvmemPredicate,
    oracle: &'a SimOracle,
    memberships: &'a [Membership],
    /// Who is up at `now`: a flood asks `is_online` per copy.
    online: &'a OnlineIndex,
    now: SimTime,
}

impl<'a> WorldView<'a> {
    /// # Panics
    ///
    /// Panics if `online` does not stand at `now`'s slot — whatever moves
    /// the simulation clock refreshes the index with it.
    fn new(
        trace: &'a ChurnTrace,
        predicate: &'a AvmemPredicate,
        oracle: &'a SimOracle,
        memberships: &'a [Membership],
        online: &'a OnlineIndex,
        now: SimTime,
    ) -> Self {
        assert_eq!(
            online.slot(),
            Some(trace.slot_at(now)),
            "online index is stale at {now:?}"
        );
        WorldView {
            trace,
            predicate,
            oracle,
            memberships,
            online,
            now,
        }
    }
}

impl OverlayWorld for WorldView<'_> {
    fn id_bound(&self) -> usize {
        self.trace.num_nodes()
    }

    fn is_online(&self, id: NodeId) -> bool {
        self.online.contains(id.raw() as usize)
    }

    /// The index's bits, the ones `is_online` tests.
    fn online_words(&self) -> &[u64] {
        self.online.words()
    }

    fn believed_availability(&self, id: NodeId) -> Availability {
        self.oracle
            .estimate(id, id, self.now)
            .unwrap_or_else(|| self.trace.long_term_availability(id.raw() as usize))
    }

    fn true_availability(&self, id: NodeId) -> Availability {
        self.trace.long_term_availability(id.raw() as usize)
    }

    fn neighbors(&self, id: NodeId, scope: SliverScope) -> NeighborColumns<'_> {
        self.memberships[id.raw() as usize].columns(scope)
    }

    /// The rule itself, under the oracle's answers to `receiver`.
    fn admits(&self, sender: NodeId, receiver: NodeId, policy: AdmissionPolicy) -> Option<bool> {
        policy.verdict(self.predicate, self.oracle, sender, receiver, self.now)
    }

    /// Two binary searches over the index's availability column instead
    /// of the default's scan.
    fn eligible(&self, target: AvailabilityTarget) -> usize {
        target.count_in(self.online.availabilities())
    }
}
