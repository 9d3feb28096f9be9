//! Reading a simulation and operating over it: overlay health,
//! initiator selection, and the anycast / multicast entry points with the
//! borrowed [`OverlayWorld`] view they run against.

use avmem_avmon::AvailabilityOracle;
use avmem_shuffle::View;
use avmem_sim::SimTime;
use avmem_trace::{ChurnTrace, OnlineIndex};
use avmem_util::{Availability, NodeId, Rng};
use serde::{Deserialize, Serialize};

use super::{AvmemSim, SimOracle};
use crate::graph::components;
use crate::membership::{Membership, NeighborColumns, SliverScope};
use crate::ops::anycast::{run_anycast, AnycastConfig, AnycastOutcome};
use crate::ops::multicast::{run_multicast, MulticastConfig, MulticastOutcome};
use crate::ops::target::AvailabilityTarget;
use crate::ops::world::OverlayWorld;

/// Initiator selection bands used throughout §4.2: LOW ∈ [0, ⅓),
/// MID ∈ [⅓, ⅔), HIGH ∈ [⅔, 1].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InitiatorBand {
    /// True availability in `[0, 1/3)`.
    Low,
    /// True availability in `[1/3, 2/3)`.
    Mid,
    /// True availability in `[2/3, 1]`.
    High,
}

impl InitiatorBand {
    /// The availability interval of the band.
    pub fn bounds(self) -> (f64, f64) {
        match self {
            InitiatorBand::Low => (0.0, 1.0 / 3.0),
            InitiatorBand::Mid => (1.0 / 3.0, 2.0 / 3.0),
            InitiatorBand::High => (2.0 / 3.0, 1.0 + f64::EPSILON),
        }
    }

    /// Whether an availability falls inside the band.
    pub fn contains(self, av: Availability) -> bool {
        let (lo, hi) = self.bounds();
        av.value() >= lo && av.value() < hi
    }
}

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

    /// Picks a uniformly random *online* node whose true availability
    /// lies in `band`, or `None` if no such node is online.
    ///
    /// Runs off the per-slot [`OnlineIndex`] with a count-then-select
    /// pass, so repeated initiator draws (operation experiments fire
    /// thousands per snapshot) materialize no candidate `Vec`.
    pub fn random_online_initiator(&mut self, band: InitiatorBand) -> Option<NodeId> {
        let in_band =
            |i: &&u32| band.contains(self.trace.long_term_availability(**i as usize));
        let eligible = self.online.online().iter().filter(in_band).count();
        if eligible == 0 {
            return None;
        }
        let pick = self.rng.index(eligible);
        let node = self
            .online
            .online()
            .iter()
            .filter(in_band)
            .nth(pick)
            .copied()
            .expect("pick < eligible count");
        Some(NodeId::new(node as u64))
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

    /// Runs one anycast from `initiator` at the current time.
    pub fn anycast(
        &mut self,
        initiator: NodeId,
        target: AvailabilityTarget,
        config: AnycastConfig,
    ) -> AnycastOutcome {
        let world = WorldView::new(
            &self.trace,
            &self.oracle,
            &self.memberships,
            &self.online,
            self.now,
        );
        run_anycast(
            &world,
            &mut self.net,
            &mut self.rng,
            &mut self.ops_scratch,
            initiator,
            target,
            config,
        )
    }

    /// Runs one multicast from `initiator` at the current time.
    pub fn multicast(
        &mut self,
        initiator: NodeId,
        target: AvailabilityTarget,
        config: MulticastConfig,
    ) -> MulticastOutcome {
        let world = WorldView::new(
            &self.trace,
            &self.oracle,
            &self.memberships,
            &self.online,
            self.now,
        );
        run_multicast(
            &world,
            &mut self.net,
            &mut self.rng,
            &mut self.ops_scratch,
            initiator,
            target,
            config,
        )
    }

    /// A borrowed [`OverlayWorld`] view of the current state, for custom
    /// measurements.
    pub fn world(&self) -> impl OverlayWorld + '_ {
        WorldView::new(
            &self.trace,
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

    /// Two binary searches over the index's availability column instead
    /// of the default's scan.
    fn eligible(&self, target: AvailabilityTarget) -> usize {
        target.count_in(self.online.availabilities())
    }
}
