//! Reading a simulation and operating over it: overlay snapshots and
//! streaming health, initiator selection, and the anycast / multicast
//! entry points with the borrowed [`OverlayWorld`] view they run against.

use avmem_avmon::AvailabilityOracle;
use avmem_shuffle::View;
use avmem_sim::SimTime;
use avmem_trace::{ChurnTrace, OnlineIndex};
use avmem_util::{Availability, NodeId, Rng};
use serde::{Deserialize, Serialize};

use super::{AvmemSim, SimOracle};
use crate::graph::{NodeSnapshot, OverlaySnapshot};
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

/// Lightweight overlay-health numbers, computed by
/// [`AvmemSim::health_stats`] without building an [`OverlaySnapshot`].
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
    /// Captures the current overlay state for analysis.
    pub fn snapshot(&self) -> OverlaySnapshot {
        let n = self.trace.num_nodes();
        let nodes = (0..n)
            .map(|i| {
                let estimated = self
                    .estimated_availability(i, i)
                    .unwrap_or_else(|| self.trace.long_term_availability(i));
                NodeSnapshot {
                    id: NodeId::new(i as u64),
                    online: self.trace.is_online(i, self.now),
                    estimated_availability: estimated,
                    true_availability: self.trace.long_term_availability(i),
                    hs: self.memberships[i].hs().map(|nb| nb.id).collect(),
                    vs: self.memberships[i].vs().map(|nb| nb.id).collect(),
                }
            })
            .collect();
        OverlaySnapshot::new(nodes, self.predicate.epsilon())
    }

    /// Streaming overlay health: the numbers a health sample needs,
    /// without materializing a snapshot.
    ///
    /// [`snapshot`](Self::snapshot) clones every node's sliver lists and
    /// queries the oracle per node — fine for analysis, but at 10⁵–10⁶
    /// hosts a periodic health probe spends more memory and time on the
    /// clone than the whole maintenance slice it interrupts. This path
    /// walks the live membership state once: online count from the
    /// trace, mean degree with the same accumulation order as
    /// [`OverlaySnapshot::mean_degree`] (ascending node index, so the
    /// two agree bit for bit), and the largest weakly-connected
    /// component over both-endpoint-online sliver edges via union-find
    /// (the same component structure the snapshot's BFS finds).
    pub fn health_stats(&self) -> HealthStats {
        let n = self.trace.num_nodes();
        let mut online = vec![false; n];
        let mut online_count = 0usize;
        for (i, flag) in online.iter_mut().enumerate() {
            if self.trace.is_online(i, self.now) {
                *flag = true;
                online_count += 1;
            }
        }
        if online_count == 0 {
            return HealthStats {
                online: 0,
                mean_degree: 0.0,
                largest_component: 0.0,
            };
        }
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                // Path halving.
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }
        let mut parent: Vec<u32> = (0..n as u32).collect();
        let mut degree_sum = 0.0f64;
        for i in 0..n {
            if !online[i] {
                continue;
            }
            let membership = &self.memberships[i];
            degree_sum += membership.len() as f64;
            for neighbor_id in membership.neighbor_ids(SliverScope::Both) {
                let j = neighbor_id.raw() as usize;
                if online[j] {
                    let (a, b) = (find(&mut parent, i as u32), find(&mut parent, j as u32));
                    if a != b {
                        parent[a as usize] = b;
                    }
                }
            }
        }
        let mut component_size = vec![0u32; n];
        let mut best = 0u32;
        for (i, &up) in online.iter().enumerate() {
            if up {
                let root = find(&mut parent, i as u32) as usize;
                component_size[root] += 1;
                best = best.max(component_size[root]);
            }
        }
        HealthStats {
            online: online_count,
            mean_degree: degree_sum / online_count as f64,
            largest_component: f64::from(best) / online_count as f64,
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
