//! {Threshold, Range}-Anycast (§3.2-I of the paper).
//!
//! An anycast routes a message from an arbitrary initiator to *some* node
//! inside the availability target. Each hop decrements a TTL; a node
//! whose (believed) availability lies in the target delivers. Three
//! forwarding policies:
//!
//! * **Greedy** — forward to the neighbor inside the target, else to the
//!   neighbor whose cached availability is closest to the target. No
//!   acknowledgements: a hop to an offline node loses the message.
//! * **Retried greedy** — each hop must be acknowledged; on silence the
//!   sender decrements a `retry` budget and tries its next-best neighbor,
//!   until the budget or the candidate list runs out.
//! * **Simulated annealing** — while traversing the neighbor list, pick a
//!   candidate *randomly* with probability `p = e^(−Δ/ttl)` (Δ = distance
//!   from the candidate's availability to the target edge, ttl = hops
//!   remaining); fall back to greedy. Random early, greedy late.
//!
//! Each policy runs in HS-only / VS-only / HS+VS flavors — nine
//! algorithms total, exactly the §3.2 matrix.

use avmem_sim::{Network, SimDuration};
use avmem_util::{Availability, NodeId, Rng};
use serde::{Deserialize, Serialize};

use crate::membership::SliverScope;
use crate::ops::target::AvailabilityTarget;
use crate::ops::world::OverlayWorld;
use crate::ops::OpScratch;

/// Forwarding policy for anycast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ForwardPolicy {
    /// Greedy forwarding, no acknowledgements.
    Greedy,
    /// Greedy with acknowledgement + retry of next-best candidates.
    RetriedGreedy {
        /// The initiator's retry budget `k` (carried in the message).
        retries: u32,
    },
    /// Simulated-annealing forwarding.
    SimulatedAnnealing,
}

/// Configuration of one anycast.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnycastConfig {
    /// Forwarding policy.
    pub policy: ForwardPolicy,
    /// Which sliver lists forwarding may use.
    pub scope: SliverScope,
    /// Initial time-to-live in hops (the paper's experiments use 6).
    pub ttl: u32,
}

impl AnycastConfig {
    /// The paper's default: greedy over HS+VS with TTL 6.
    pub fn paper_default() -> Self {
        AnycastConfig {
            policy: ForwardPolicy::Greedy,
            scope: SliverScope::Both,
            ttl: 6,
        }
    }
}

/// Why an anycast failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AnycastDrop {
    /// TTL reached zero before entering the target.
    TtlExpired,
    /// Retried-greedy exhausted its retry budget.
    RetryExpired,
    /// The current holder had no usable (untried) neighbor.
    NoCandidates,
    /// Plain greedy forwarded to an offline node (no ack, message lost).
    NextHopOffline,
}

impl AnycastDrop {
    /// Every reason, in declaration order: `reason as usize` is its
    /// position here, and a per-reason count array is `ALL.len()` long.
    pub const ALL: [AnycastDrop; 4] = [
        AnycastDrop::TtlExpired,
        AnycastDrop::RetryExpired,
        AnycastDrop::NoCandidates,
        AnycastDrop::NextHopOffline,
    ];

    /// The reason's name in reports.
    pub fn name(self) -> &'static str {
        match self {
            AnycastDrop::TtlExpired => "ttl_expired",
            AnycastDrop::RetryExpired => "retry_expired",
            AnycastDrop::NoCandidates => "no_candidates",
            AnycastDrop::NextHopOffline => "next_hop_offline",
        }
    }
}

/// Result of one anycast.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnycastOutcome {
    /// The delivering node, if any.
    pub delivered_to: Option<NodeId>,
    /// Whether the delivering node's *true* availability is inside the
    /// target (a node can wrongly believe itself in range).
    pub delivered_in_range_truth: bool,
    /// Failure reason when not delivered.
    pub drop_reason: Option<AnycastDrop>,
    /// Number of successful hops taken.
    pub hops: u32,
    /// End-to-end latency (including timeouts burned on failed attempts).
    pub latency: SimDuration,
    /// Total messages sent (including failed attempts and acks are not
    /// counted separately).
    pub messages: u64,
    /// The successful path, initiator first.
    pub path: Vec<NodeId>,
}

impl AnycastOutcome {
    /// Whether the anycast reached the target.
    pub fn is_delivered(&self) -> bool {
        self.delivered_to.is_some()
    }
}

/// One forwarding candidate in the reused ranking scratch
/// ([`OpScratch`]): a neighbor the walk has not visited, with its greedy
/// metric computed once.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate {
    /// Distance of the cached availability to the target.
    distance: f64,
    cached_availability: Availability,
    /// Position in the holder's list — the last sort key, so the
    /// in-place unstable sort yields exactly the stable order.
    position: usize,
    id: u32,
}

/// Runs one anycast over the world. `rng` drives annealing decisions,
/// `net` draws per-hop latencies, `scratch` holds the candidate ranking
/// (reused across operations; its contents on entry do not matter).
///
/// The initiator itself counts: if its believed availability is already
/// in the target, the anycast delivers in zero hops.
pub fn run_anycast<W, R>(
    world: &W,
    net: &mut Network,
    rng: &mut R,
    scratch: &mut OpScratch,
    initiator: NodeId,
    target: AvailabilityTarget,
    config: AnycastConfig,
) -> AnycastOutcome
where
    W: OverlayWorld + ?Sized,
    R: Rng,
{
    let candidates = &mut scratch.ranking;
    let mut current = initiator;
    let mut ttl = config.ttl;
    let mut retry_budget = match config.policy {
        ForwardPolicy::RetriedGreedy { retries } => retries,
        _ => 0,
    };
    // `path` doubles as the visited set: the initiator plus every
    // successful hop, at most `ttl + 1` entries.
    let mut outcome = AnycastOutcome {
        delivered_to: None,
        delivered_in_range_truth: false,
        drop_reason: None,
        hops: 0,
        latency: SimDuration::ZERO,
        messages: 0,
        path: vec![initiator],
    };

    loop {
        // Delivery check: the holder consults its own believed availability.
        if target.contains(world.believed_availability(current)) {
            outcome.delivered_to = Some(current);
            outcome.delivered_in_range_truth = target.contains(world.true_availability(current));
            return outcome;
        }
        if ttl == 0 {
            outcome.drop_reason = Some(AnycastDrop::TtlExpired);
            return outcome;
        }

        // Candidates: untried neighbors, ranked by the greedy metric over
        // *cached* availabilities. Annealing traverses this same sorted
        // order (see `anneal_choice`).
        let list = world.neighbors(current, config.scope);
        candidates.clear();
        for (position, (&id, &cached_availability)) in
            list.ids.iter().zip(list.cached_availability).enumerate()
        {
            if !outcome.path.contains(&NodeId::new(u64::from(id))) {
                candidates.push(Candidate {
                    distance: target.distance(cached_availability),
                    cached_availability,
                    position,
                    id,
                });
            }
        }
        if candidates.is_empty() {
            outcome.drop_reason = Some(AnycastDrop::NoCandidates);
            return outcome;
        }
        sort_by_distance(candidates);

        let chosen = match config.policy {
            ForwardPolicy::Greedy | ForwardPolicy::RetriedGreedy { .. } => 0,
            ForwardPolicy::SimulatedAnnealing => {
                anneal_choice(candidates, target, ttl, rng).unwrap_or(0)
            }
        };
        // Move the chosen candidate to the front so the retry loop walks
        // the remainder in greedy order.
        candidates.swap(0, chosen);

        let mut forwarded = false;
        for (attempt, candidate) in candidates.iter().enumerate() {
            let next = NodeId::new(u64::from(candidate.id));
            outcome.messages += 1;
            outcome.latency = outcome.latency + net.hop_latency();
            if world.is_online(next) {
                outcome.path.push(next);
                outcome.hops += 1;
                current = next;
                ttl -= 1;
                forwarded = true;
                break;
            }
            // Candidate offline.
            match config.policy {
                ForwardPolicy::Greedy | ForwardPolicy::SimulatedAnnealing => {
                    // No acknowledgements: the message is simply lost.
                    outcome.drop_reason = Some(AnycastDrop::NextHopOffline);
                    return outcome;
                }
                ForwardPolicy::RetriedGreedy { .. } => {
                    // Ack timeout burned (modelled as one extra latency draw).
                    outcome.latency = outcome.latency + net.hop_latency();
                    // "The retrying stops when either retry reaches 0, or
                    // there are no more next-best nodes left" (§3.2).
                    retry_budget = retry_budget.saturating_sub(1);
                    if retry_budget == 0 {
                        outcome.drop_reason = Some(AnycastDrop::RetryExpired);
                        return outcome;
                    }
                    if attempt + 1 == candidates.len() {
                        outcome.drop_reason = Some(AnycastDrop::NoCandidates);
                        return outcome;
                    }
                }
            }
        }
        if !forwarded {
            // Retried-greedy ran out of candidates with budget left.
            outcome.drop_reason = Some(AnycastDrop::NoCandidates);
            return outcome;
        }
    }
}

/// Sorts candidates by the greedy metric: distance of cached
/// availability to the target, ties broken toward *higher* cached
/// availability, then by list order. The paper leaves the within-range
/// tie unspecified ("forwards … to an AVMEM neighbor that lies inside
/// R"); preferring the most-available candidate minimizes the chance of
/// forwarding to an offline node, which matters because plain greedy has
/// no retry.
fn sort_by_distance(candidates: &mut [Candidate]) {
    candidates.sort_unstable_by(|a, b| {
        a.distance
            .partial_cmp(&b.distance)
            .expect("distances are never NaN")
            .then(
                b.cached_availability
                    .partial_cmp(&a.cached_availability)
                    .expect("availabilities are never NaN"),
            )
            .then(a.position.cmp(&b.position))
    });
}

/// Scale applied to the annealing distance `Δ` before computing
/// `p = e^(−Δ·SCALE / ttl)`.
///
/// The paper states `p = e^(−Δ/ttl)` with Δ "the Euclidean distance
/// between the edge of R and the availability of the current next-hop
/// under consideration". Read with Δ on the raw `[0, 1]` availability
/// axis, `p` stays near 1 for *every* candidate early on (e.g. Δ = 0.35,
/// ttl = 6 ⇒ p = 0.94) and the anycast degenerates into a random walk —
/// contradicting the paper's own Fig. 7, where simulated annealing
/// delivers within ~1 hop like greedy. Reading Δ in availability
/// *percentage points* (i.e. scaling by 100) reproduces the published
/// behaviour: near-range candidates keep meaningful acceptance
/// probability while far candidates are effectively skipped, with the
/// greedy fallback taking over as the TTL drains.
pub const ANNEALING_DELTA_SCALE: f64 = 100.0;

/// Simulated-annealing choice: traverse the candidate list; accept
/// candidate `i` with probability `e^(−Δᵢ·scale / ttl)`. Returns `None`
/// to fall back to the greedy choice (index 0 of the distance-sorted
/// list).
///
/// Traversal follows the greedy (distance-sorted) order. The paper
/// leaves the traversal order unspecified ("as the list of neighbors is
/// traversed"); sorted order is the reading consistent with Fig. 7,
/// where annealing delivers within ~1 hop like greedy whenever an
/// in-range candidate (Δ = 0, p = 1) exists. The randomness then
/// manifests as probabilistic *skipping* past the nearest candidates —
/// strongest early (large ttl), vanishing as the TTL drains.
fn anneal_choice<R: Rng>(
    candidates: &[Candidate],
    target: AvailabilityTarget,
    ttl: u32,
    rng: &mut R,
) -> Option<usize> {
    for (i, candidate) in candidates.iter().enumerate() {
        let delta = (candidate.cached_availability.value()
            - target.nearest_edge(candidate.cached_availability))
        .abs();
        let p = (-delta * ANNEALING_DELTA_SCALE / ttl as f64).exp();
        if rng.chance(p) {
            return Some(i);
        }
    }
    None
}

/// The anycast as first written — a collected candidate list per hop, a
/// hash set of visited nodes, a stable sort — kept as the model
/// [`run_anycast`] must agree with draw for draw.
#[cfg(test)]
mod reference {
    use std::collections::HashSet;

    use super::*;

    pub fn run_anycast<W, R>(
        world: &W,
        net: &mut Network,
        rng: &mut R,
        initiator: NodeId,
        target: AvailabilityTarget,
        config: AnycastConfig,
    ) -> AnycastOutcome
    where
        W: OverlayWorld + ?Sized,
        R: Rng,
    {
        let mut current = initiator;
        let mut ttl = config.ttl;
        let mut retry_budget = match config.policy {
            ForwardPolicy::RetriedGreedy { retries } => retries,
            _ => 0,
        };
        let mut visited: HashSet<NodeId> = HashSet::from([initiator]);
        let mut outcome = AnycastOutcome {
            delivered_to: None,
            delivered_in_range_truth: false,
            drop_reason: None,
            hops: 0,
            latency: SimDuration::ZERO,
            messages: 0,
            path: vec![initiator],
        };
        loop {
            if target.contains(world.believed_availability(current)) {
                outcome.delivered_to = Some(current);
                outcome.delivered_in_range_truth =
                    target.contains(world.true_availability(current));
                return outcome;
            }
            if ttl == 0 {
                outcome.drop_reason = Some(AnycastDrop::TtlExpired);
                return outcome;
            }
            let list = world.neighbors(current, config.scope);
            let mut candidates: Vec<Candidate> = list
                .ids
                .iter()
                .zip(list.cached_availability)
                .filter(|(&id, _)| !visited.contains(&NodeId::new(u64::from(id))))
                .map(|(&id, &cached_availability)| Candidate {
                    distance: target.distance(cached_availability),
                    cached_availability,
                    position: 0, // unused: the sort below is stable
                    id,
                })
                .collect();
            if candidates.is_empty() {
                outcome.drop_reason = Some(AnycastDrop::NoCandidates);
                return outcome;
            }
            candidates.sort_by(|a, b| {
                target
                    .distance(a.cached_availability)
                    .partial_cmp(&target.distance(b.cached_availability))
                    .expect("distances are never NaN")
                    .then(
                        b.cached_availability
                            .partial_cmp(&a.cached_availability)
                            .expect("availabilities are never NaN"),
                    )
            });
            let chosen = match config.policy {
                ForwardPolicy::Greedy | ForwardPolicy::RetriedGreedy { .. } => 0,
                ForwardPolicy::SimulatedAnnealing => {
                    anneal_choice(&candidates, target, ttl, rng).unwrap_or(0)
                }
            };
            candidates.swap(0, chosen);
            let mut forwarded = false;
            for (attempt, candidate) in candidates.iter().enumerate() {
                let next = NodeId::new(u64::from(candidate.id));
                outcome.messages += 1;
                outcome.latency = outcome.latency + net.hop_latency();
                if world.is_online(next) {
                    visited.insert(next);
                    outcome.path.push(next);
                    outcome.hops += 1;
                    current = next;
                    ttl -= 1;
                    forwarded = true;
                    break;
                }
                match config.policy {
                    ForwardPolicy::Greedy | ForwardPolicy::SimulatedAnnealing => {
                        outcome.drop_reason = Some(AnycastDrop::NextHopOffline);
                        return outcome;
                    }
                    ForwardPolicy::RetriedGreedy { .. } => {
                        outcome.latency = outcome.latency + net.hop_latency();
                        retry_budget = retry_budget.saturating_sub(1);
                        if retry_budget == 0 {
                            outcome.drop_reason = Some(AnycastDrop::RetryExpired);
                            return outcome;
                        }
                        if attempt + 1 == candidates.len() {
                            outcome.drop_reason = Some(AnycastDrop::NoCandidates);
                            return outcome;
                        }
                    }
                }
            }
            if !forwarded {
                outcome.drop_reason = Some(AnycastDrop::NoCandidates);
                return outcome;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avmem_sim::LatencyModel;
    use avmem_util::SplitMix64;
    use proptest::prelude::*;

    use crate::ops::world::mock::{random_target, MockWorld};

    fn net() -> Network {
        Network::new(LatencyModel::Constant { millis: 50 }, 1)
    }

    fn rng() -> SplitMix64 {
        SplitMix64::new(7)
    }

    fn scratch() -> OpScratch {
        OpScratch::default()
    }

    /// A chain world: 0 (av .5) → 1 (av .6) → 2 (av .7) → 3 (av .9).
    fn chain() -> MockWorld {
        let mut w = MockWorld::default();
        w.add(0, 0.5);
        w.add(1, 0.6);
        w.add(2, 0.7);
        w.add(3, 0.9);
        w.vs_edge(0, 1);
        w.vs_edge(1, 2);
        w.vs_edge(2, 3);
        w
    }

    #[test]
    fn initiator_in_range_delivers_immediately() {
        let w = chain();
        let outcome = run_anycast(
            &w,
            &mut net(),
            &mut rng(),
            &mut scratch(),
            NodeId::new(0),
            AvailabilityTarget::range(0.4, 0.6),
            AnycastConfig::paper_default(),
        );
        assert_eq!(outcome.delivered_to, Some(NodeId::new(0)));
        assert_eq!(outcome.hops, 0);
        assert_eq!(outcome.messages, 0);
        assert_eq!(outcome.latency, SimDuration::ZERO);
    }

    #[test]
    fn greedy_walks_the_chain() {
        let w = chain();
        let outcome = run_anycast(
            &w,
            &mut net(),
            &mut rng(),
            &mut scratch(),
            NodeId::new(0),
            AvailabilityTarget::range(0.85, 0.95),
            AnycastConfig::paper_default(),
        );
        assert_eq!(outcome.delivered_to, Some(NodeId::new(3)));
        assert_eq!(outcome.hops, 3);
        assert_eq!(outcome.path, vec![NodeId::new(0), NodeId::new(1), NodeId::new(2), NodeId::new(3)]);
        assert_eq!(outcome.latency, SimDuration::from_millis(150));
        assert!(outcome.delivered_in_range_truth);
    }

    #[test]
    fn ttl_expiry_stops_the_walk() {
        let w = chain();
        let outcome = run_anycast(
            &w,
            &mut net(),
            &mut rng(),
            &mut scratch(),
            NodeId::new(0),
            AvailabilityTarget::range(0.85, 0.95),
            AnycastConfig {
                ttl: 2,
                ..AnycastConfig::paper_default()
            },
        );
        assert!(!outcome.is_delivered());
        assert_eq!(outcome.drop_reason, Some(AnycastDrop::TtlExpired));
        assert_eq!(outcome.hops, 2);
    }

    #[test]
    fn greedy_prefers_in_range_neighbor() {
        let mut w = MockWorld::default();
        w.add(0, 0.5);
        w.add(1, 0.7); // closer to target edge but outside
        w.add(2, 0.9); // inside target
        w.vs_edge(0, 1);
        w.vs_edge(0, 2);
        let outcome = run_anycast(
            &w,
            &mut net(),
            &mut rng(),
            &mut scratch(),
            NodeId::new(0),
            AvailabilityTarget::range(0.85, 0.95),
            AnycastConfig::paper_default(),
        );
        assert_eq!(outcome.delivered_to, Some(NodeId::new(2)));
        assert_eq!(outcome.hops, 1);
    }

    #[test]
    fn greedy_loses_message_to_offline_hop() {
        let mut w = chain();
        w.set_offline(1);
        let outcome = run_anycast(
            &w,
            &mut net(),
            &mut rng(),
            &mut scratch(),
            NodeId::new(0),
            AvailabilityTarget::range(0.85, 0.95),
            AnycastConfig::paper_default(),
        );
        assert!(!outcome.is_delivered());
        assert_eq!(outcome.drop_reason, Some(AnycastDrop::NextHopOffline));
        assert_eq!(outcome.messages, 1);
    }

    #[test]
    fn retried_greedy_falls_over_to_next_best() {
        let mut w = MockWorld::default();
        w.add(0, 0.5);
        w.add(1, 0.9); // best but offline
        w.add(2, 0.88); // second best, online, in range
        w.vs_edge(0, 1);
        w.vs_edge(0, 2);
        w.set_offline(1);
        let outcome = run_anycast(
            &w,
            &mut net(),
            &mut rng(),
            &mut scratch(),
            NodeId::new(0),
            AvailabilityTarget::range(0.85, 0.95),
            AnycastConfig {
                policy: ForwardPolicy::RetriedGreedy { retries: 2 },
                ..AnycastConfig::paper_default()
            },
        );
        assert_eq!(outcome.delivered_to, Some(NodeId::new(2)));
        // One failed attempt (send + timeout) + one successful hop.
        assert_eq!(outcome.messages, 2);
        assert_eq!(outcome.latency, SimDuration::from_millis(150));
    }

    #[test]
    fn retried_greedy_exhausts_budget() {
        let mut w = MockWorld::default();
        w.add(0, 0.5);
        for i in 1..=4 {
            w.add(i, 0.9);
            w.vs_edge(0, i);
            w.set_offline(i);
        }
        let outcome = run_anycast(
            &w,
            &mut net(),
            &mut rng(),
            &mut scratch(),
            NodeId::new(0),
            AvailabilityTarget::range(0.85, 0.95),
            AnycastConfig {
                policy: ForwardPolicy::RetriedGreedy { retries: 2 },
                ..AnycastConfig::paper_default()
            },
        );
        assert!(!outcome.is_delivered());
        assert_eq!(outcome.drop_reason, Some(AnycastDrop::RetryExpired));
        // retry=2 means two failed attempts are tolerated before the drop.
        assert_eq!(outcome.messages, 2);
    }

    #[test]
    fn retried_greedy_runs_out_of_candidates() {
        let mut w = MockWorld::default();
        w.add(0, 0.5);
        w.add(1, 0.9);
        w.vs_edge(0, 1);
        w.set_offline(1);
        let outcome = run_anycast(
            &w,
            &mut net(),
            &mut rng(),
            &mut scratch(),
            NodeId::new(0),
            AvailabilityTarget::range(0.85, 0.95),
            AnycastConfig {
                policy: ForwardPolicy::RetriedGreedy { retries: 8 },
                ..AnycastConfig::paper_default()
            },
        );
        assert!(!outcome.is_delivered());
        assert_eq!(outcome.drop_reason, Some(AnycastDrop::NoCandidates));
    }

    #[test]
    fn no_neighbors_drops_immediately() {
        let mut w = MockWorld::default();
        w.add(0, 0.5);
        let outcome = run_anycast(
            &w,
            &mut net(),
            &mut rng(),
            &mut scratch(),
            NodeId::new(0),
            AvailabilityTarget::range(0.85, 0.95),
            AnycastConfig::paper_default(),
        );
        assert_eq!(outcome.drop_reason, Some(AnycastDrop::NoCandidates));
        assert_eq!(outcome.messages, 0);
    }

    #[test]
    fn scope_restricts_usable_edges() {
        let mut w = MockWorld::default();
        w.add(0, 0.5);
        w.add(1, 0.9);
        w.vs_edge(0, 1); // vertical edge only
        let outcome = run_anycast(
            &w,
            &mut net(),
            &mut rng(),
            &mut scratch(),
            NodeId::new(0),
            AvailabilityTarget::range(0.85, 0.95),
            AnycastConfig {
                scope: SliverScope::HsOnly,
                ..AnycastConfig::paper_default()
            },
        );
        assert_eq!(outcome.drop_reason, Some(AnycastDrop::NoCandidates));
    }

    #[test]
    fn walk_never_revisits_nodes() {
        // 0 ↔ 1 edges both ways; without the visited set greedy would
        // bounce between them until TTL expiry. With it, the walk stops.
        let mut w = MockWorld::default();
        w.add(0, 0.5);
        w.add(1, 0.6);
        w.vs_edge(0, 1);
        w.vs_edge(1, 0);
        let outcome = run_anycast(
            &w,
            &mut net(),
            &mut rng(),
            &mut scratch(),
            NodeId::new(0),
            AvailabilityTarget::range(0.85, 0.95),
            AnycastConfig::paper_default(),
        );
        assert!(!outcome.is_delivered());
        assert_eq!(outcome.drop_reason, Some(AnycastDrop::NoCandidates));
        assert_eq!(outcome.hops, 1);
    }

    #[test]
    fn annealing_delivers_on_chain() {
        let w = chain();
        let mut delivered = 0;
        for seed in 0..20 {
            let mut r = SplitMix64::new(seed);
            let outcome = run_anycast(
                &w,
                &mut net(),
                &mut r,
                &mut scratch(),
                NodeId::new(0),
                AvailabilityTarget::range(0.85, 0.95),
                AnycastConfig {
                    policy: ForwardPolicy::SimulatedAnnealing,
                    ttl: 6,
                    scope: SliverScope::Both,
                },
            );
            if outcome.is_delivered() {
                delivered += 1;
            }
        }
        // The chain has a single path; annealing must still find it.
        assert_eq!(delivered, 20);
    }

    #[test]
    fn annealing_explores_randomly_early() {
        // A star: center 0 with neighbors clustered just below the
        // target. Early (high ttl) the acceptance probabilities
        // p = e^(−Δ·scale/ttl) are meaningful but below one, so the
        // first hop varies across runs — unlike greedy, which would
        // always pick the closest.
        let mut w = MockWorld::default();
        w.add(0, 0.1);
        for i in 1..=10 {
            w.add(i, 0.85 + 0.004 * i as f64); // 0.854 … 0.89, Δ ≤ 0.046
            w.vs_edge(0, i);
        }
        let mut first_hops = std::collections::HashSet::new();
        for seed in 0..100 {
            let mut r = SplitMix64::new(seed);
            let outcome = run_anycast(
                &w,
                &mut net(),
                &mut r,
                &mut scratch(),
                NodeId::new(0),
                AvailabilityTarget::range(0.9, 0.95),
                AnycastConfig {
                    policy: ForwardPolicy::SimulatedAnnealing,
                    ttl: 6,
                    scope: SliverScope::Both,
                },
            );
            if let Some(node) = outcome.path.get(1) {
                first_hops.insert(*node);
            }
        }
        assert!(
            first_hops.len() > 1,
            "annealing always chose the same first hop"
        );
    }

    #[test]
    fn annealing_skips_far_candidates() {
        // Far candidates (large Δ) are essentially never chosen at low
        // ttl; the greedy fallback picks the closest instead.
        let mut w = MockWorld::default();
        w.add(0, 0.1);
        w.add(1, 0.3); // far from target
        w.add(2, 0.89); // near target
        w.vs_edge(0, 1);
        w.vs_edge(0, 2);
        let mut near_first = 0;
        for seed in 0..50 {
            let mut r = SplitMix64::new(seed);
            let outcome = run_anycast(
                &w,
                &mut net(),
                &mut r,
                &mut scratch(),
                NodeId::new(0),
                AvailabilityTarget::range(0.9, 0.95),
                AnycastConfig {
                    policy: ForwardPolicy::SimulatedAnnealing,
                    ttl: 2,
                    scope: SliverScope::Both,
                },
            );
            if outcome.path.get(1) == Some(&NodeId::new(2)) {
                near_first += 1;
            }
        }
        assert!(
            near_first > 40,
            "low-ttl annealing should be near-greedy ({near_first}/50)"
        );
    }

    proptest! {
        /// Outcome (path, hops, latency, messages, drop reason) and the
        /// position of both random streams equal the reference model's,
        /// on random worlds with duplicate and self edges, stale caches
        /// and offline nodes, for every policy and scope — on a scratch
        /// left dirty by the previous case's walk.
        #[test]
        fn matches_the_collecting_reference(seed in any::<u64>()) {
            let mut r = SplitMix64::new(seed);
            let target = random_target(&mut r);
            let world = MockWorld::random(&mut r);
            let scopes = [SliverScope::HsOnly, SliverScope::VsOnly, SliverScope::Both];
            let policies = [
                ForwardPolicy::Greedy,
                ForwardPolicy::RetriedGreedy { retries: 1 + r.index(8) as u32 },
                ForwardPolicy::SimulatedAnnealing,
            ];
            let mut scratch = scratch();
            for _ in 0..4 {
                let config = AnycastConfig {
                    policy: policies[r.index(3)],
                    scope: scopes[r.index(3)],
                    ttl: r.index(8) as u32,
                };
                let initiator = NodeId::new(r.index(world.id_bound()) as u64);
                let seed = r.next_u64();
                let mut observe = |reference: bool| {
                    let mut net = Network::new(LatencyModel::PAPER, seed);
                    let mut rng = SplitMix64::new(seed ^ 1);
                    let outcome = if reference {
                        reference::run_anycast(&world, &mut net, &mut rng, initiator, target, config)
                    } else {
                        run_anycast(&world, &mut net, &mut rng, &mut scratch, initiator, target, config)
                    };
                    (outcome, net.hop_latency(), rng.next_u64())
                };
                let expected = observe(true);
                prop_assert_eq!(observe(false), expected);
            }
        }
    }
}
