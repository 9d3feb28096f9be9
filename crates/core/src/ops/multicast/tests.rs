use super::*;
use avmem_sim::LatencyModel;
use avmem_util::SplitMix64;
use proptest::prelude::*;

use crate::ops::anycast::ForwardPolicy;
use crate::ops::world::mock::{random_target, MockWorld};

fn net() -> Network {
    Network::new(LatencyModel::Constant { millis: 50 }, 1)
}

fn rng() -> SplitMix64 {
    SplitMix64::new(3)
}

fn scratch() -> OpScratch {
    OpScratch::default()
}

/// A clique of five in-range nodes (av 0.9) reachable from an
/// initiator at av 0.5 through node 1.
fn clique_world() -> MockWorld {
    let mut w = MockWorld::default();
    w.add(0, 0.5);
    for i in 1..=5 {
        w.add(i, 0.9);
        w.vs_edge(0, i);
    }
    for i in 1..=5u64 {
        for j in 1..=5u64 {
            if i != j {
                w.hs_edge(i, j);
            }
        }
    }
    w
}

#[test]
fn flood_reaches_the_whole_clique() {
    let w = clique_world();
    let outcome = run_multicast(
        &w,
        &mut net(),
        &mut rng(),
        &mut scratch(),
        NodeId::new(0),
        AvailabilityTarget::range(0.85, 0.95),
        MulticastConfig::paper_default(),
    );
    assert_eq!(outcome.eligible, 5);
    assert_eq!(outcome.deliveries.len(), 5);
    assert_eq!(
        outcome.reliability(&w, AvailabilityTarget::range(0.85, 0.95)),
        Some(1.0)
    );
    assert_eq!(
        outcome.spam_ratio(&w, AvailabilityTarget::range(0.85, 0.95)),
        Some(0.0)
    );
}

#[test]
fn flood_latency_is_anycast_plus_dissemination() {
    let w = clique_world();
    let outcome = run_multicast(
        &w,
        &mut net(),
        &mut rng(),
        &mut scratch(),
        NodeId::new(0),
        AvailabilityTarget::range(0.85, 0.95),
        MulticastConfig::paper_default(),
    );
    // Anycast: one 50 ms hop; flood: one more 50 ms level.
    assert_eq!(outcome.anycast.latency, SimDuration::from_millis(50));
    assert_eq!(outcome.worst_latency(), Some(SimDuration::from_millis(100)));
}

#[test]
fn failed_anycast_means_no_deliveries() {
    let mut w = MockWorld::default();
    w.add(0, 0.5); // no neighbors at all
    let outcome = run_multicast(
        &w,
        &mut net(),
        &mut rng(),
        &mut scratch(),
        NodeId::new(0),
        AvailabilityTarget::range(0.85, 0.95),
        MulticastConfig::paper_default(),
    );
    assert!(outcome.deliveries.is_empty());
    assert!(!outcome.anycast.is_delivered());
}

#[test]
fn initiator_in_range_seeds_dissemination() {
    let mut w = MockWorld::default();
    w.add(0, 0.9);
    w.add(1, 0.9);
    w.hs_edge(0, 1);
    let outcome = run_multicast(
        &w,
        &mut net(),
        &mut rng(),
        &mut scratch(),
        NodeId::new(0),
        AvailabilityTarget::range(0.85, 0.95),
        MulticastConfig::paper_default(),
    );
    assert_eq!(outcome.deliveries.len(), 2);
    assert_eq!(outcome.arrival(NodeId::new(0)), Some(SimDuration::ZERO));
}

#[test]
fn out_of_range_receiver_is_spam_and_does_not_forward() {
    // Node 0's stale cache says node 1 is in range; node 1 knows it is
    // not. It receives the payload — spam — and must not forward it
    // to node 2, which it does list as in range.
    let mut w = MockWorld::default();
    w.add(0, 0.9);
    w.add(1, 0.5); // truth: out of range
    w.add(2, 0.9);
    w.hs_edge_cached(0, 1, 0.9);
    w.hs_edge(1, 2);
    let target = AvailabilityTarget::range(0.85, 0.95);
    let outcome = run_multicast(
        &w,
        &mut net(),
        &mut rng(),
        &mut scratch(),
        NodeId::new(0),
        target,
        MulticastConfig::paper_default(),
    );
    assert!(outcome.arrival(NodeId::new(1)).is_some());
    assert!(outcome.arrival(NodeId::new(2)).is_none());
    assert_eq!(outcome.messages, 1);
    // One spam receiver against two eligible nodes (0 and 2).
    assert_eq!(outcome.spam_ratio(&w, target), Some(0.5));
}

#[test]
fn cached_out_of_range_neighbor_is_never_sent_to() {
    let mut w = MockWorld::default();
    w.add(0, 0.9);
    w.add(1, 0.5);
    w.add(2, 0.9);
    w.hs_edge(0, 1); // cached 0.5: outside the range
    w.hs_edge(1, 2);
    let outcome = run_multicast(
        &w,
        &mut net(),
        &mut rng(),
        &mut scratch(),
        NodeId::new(0),
        AvailabilityTarget::range(0.85, 0.95),
        MulticastConfig::paper_default(),
    );
    assert!(outcome.arrival(NodeId::new(1)).is_none());
    assert!(outcome.arrival(NodeId::new(2)).is_none());
    assert_eq!(outcome.messages, 0);
}

#[test]
fn gossip_reaches_clique_within_rounds() {
    let w = clique_world();
    let outcome = run_multicast(
        &w,
        &mut net(),
        &mut rng(),
        &mut scratch(),
        NodeId::new(0),
        AvailabilityTarget::range(0.85, 0.95),
        MulticastConfig {
            strategy: MulticastStrategy::paper_gossip(),
            ..MulticastConfig::paper_default()
        },
    );
    // fanout 5 × 2 rounds covers a 5-clique easily.
    assert_eq!(outcome.deliveries.len(), 5);
}

#[test]
fn gossip_respects_fanout_budget() {
    // A star: node 1 (in range) knows 20 in-range leaves; with
    // fanout 2 × 1 round it may contact at most 2.
    let mut w = MockWorld::default();
    w.add(1, 0.9);
    for i in 2..=21 {
        w.add(i, 0.9);
        w.hs_edge(1, i);
    }
    let outcome = run_multicast(
        &w,
        &mut net(),
        &mut rng(),
        &mut scratch(),
        NodeId::new(1),
        AvailabilityTarget::range(0.85, 0.95),
        MulticastConfig {
            strategy: MulticastStrategy::Gossip {
                fanout: 2,
                rounds: 1,
                period: SimDuration::from_secs(1),
            },
            anycast: AnycastConfig {
                policy: ForwardPolicy::Greedy,
                scope: SliverScope::Both,
                ttl: 6,
            },
            scope: SliverScope::Both,
        },
    );
    // Initiator + 2 leaves, but leaves gossip onward… leaves only
    // know nobody (edges are directed in MockWorld), so exactly 3.
    assert_eq!(outcome.deliveries.len(), 3);
    assert_eq!(outcome.messages, 2);
}

/// A larger clique (10 in-range nodes) where flooding's quadratic
/// message cost clearly exceeds gossip's bounded fanout.
fn big_clique_world() -> MockWorld {
    let mut w = MockWorld::default();
    w.add(0, 0.5);
    for i in 1..=10 {
        w.add(i, 0.9);
        w.vs_edge(0, i);
    }
    for i in 1..=10u64 {
        for j in 1..=10u64 {
            if i != j {
                w.hs_edge(i, j);
            }
        }
    }
    w
}

#[test]
fn gossip_is_cheaper_than_flood_on_dense_graphs() {
    let w = big_clique_world();
    let target = AvailabilityTarget::range(0.85, 0.95);
    let flood = run_multicast(
        &w,
        &mut net(),
        &mut rng(),
        &mut scratch(),
        NodeId::new(0),
        target,
        MulticastConfig::paper_default(),
    );
    let gossip = run_multicast(
        &w,
        &mut net(),
        &mut rng(),
        &mut scratch(),
        NodeId::new(0),
        target,
        MulticastConfig {
            strategy: MulticastStrategy::Gossip {
                fanout: 2,
                rounds: 2,
                period: SimDuration::from_secs(1),
            },
            ..MulticastConfig::paper_default()
        },
    );
    assert!(
        gossip.messages < flood.messages,
        "gossip {} should send fewer than flood {}",
        gossip.messages,
        flood.messages
    );
}

#[test]
fn offline_nodes_do_not_receive() {
    let mut w = clique_world();
    w.set_offline(3);
    let outcome = run_multicast(
        &w,
        &mut net(),
        &mut rng(),
        &mut scratch(),
        NodeId::new(0),
        AvailabilityTarget::range(0.85, 0.95),
        MulticastConfig::paper_default(),
    );
    assert!(outcome.arrival(NodeId::new(3)).is_none());
    assert_eq!(outcome.eligible, 4); // offline node not eligible
}

#[test]
fn gossip_cursor_wraps_without_resending() {
    // Node 1 has 3 in-range neighbors but fanout 5: the deterministic
    // iteration wraps the list yet never sends twice to the same node.
    let mut w = MockWorld::default();
    w.add(1, 0.9);
    for i in 2..=4 {
        w.add(i, 0.9);
        w.hs_edge(1, i);
    }
    let outcome = run_multicast(
        &w,
        &mut net(),
        &mut rng(),
        &mut scratch(),
        NodeId::new(1),
        AvailabilityTarget::range(0.85, 0.95),
        MulticastConfig {
            strategy: MulticastStrategy::Gossip {
                fanout: 5,
                rounds: 3,
                period: SimDuration::from_secs(1),
            },
            ..MulticastConfig::paper_default()
        },
    );
    // 3 distinct targets, each exactly once, despite 3 rounds × 5.
    assert_eq!(outcome.messages, 3);
    assert_eq!(outcome.deliveries.len(), 4);
}

#[test]
fn multicast_outcome_latency_includes_anycast_stage() {
    let w = clique_world();
    let outcome = run_multicast(
        &w,
        &mut net(),
        &mut rng(),
        &mut scratch(),
        NodeId::new(0),
        AvailabilityTarget::range(0.85, 0.95),
        MulticastConfig::paper_default(),
    );
    // Every dissemination delivery happens at or after the entry time.
    let entry_latency = outcome.anycast.latency;
    for &(node, at) in &outcome.deliveries {
        assert!(
            at >= entry_latency,
            "{node} delivered at {at} before anycast completed at {entry_latency}"
        );
    }
}

#[test]
fn reliability_none_when_range_empty() {
    let mut w = MockWorld::default();
    w.add(0, 0.5);
    let target = AvailabilityTarget::range(0.98, 0.99);
    let outcome = run_multicast(
        &w,
        &mut net(),
        &mut rng(),
        &mut scratch(),
        NodeId::new(0),
        target,
        MulticastConfig::paper_default(),
    );
    assert_eq!(outcome.reliability(&w, target), None);
    assert_eq!(outcome.spam_ratio(&w, target), None);
}

#[test]
fn deliveries_are_in_arrival_order() {
    let w = big_clique_world();
    let outcome = run_multicast(
        &w,
        &mut Network::new(LatencyModel::PAPER, 5),
        &mut rng(),
        &mut scratch(),
        NodeId::new(0),
        AvailabilityTarget::range(0.85, 0.95),
        MulticastConfig::paper_default(),
    );
    assert_eq!(outcome.deliveries.len(), 10);
    assert!(outcome.deliveries.windows(2).all(|w| w[0].1 <= w[1].1));
    assert_eq!(
        outcome.worst_latency(),
        outcome.deliveries.iter().map(|&(_, at)| at).max()
    );
}

/// One randomly drawn multicast: a [`MockWorld::random`] world and a
/// latency model with dense ties on `time`.
#[derive(Debug, Clone)]
struct Case {
    world: MockWorld,
    latency: LatencyModel,
    net_seed: u64,
    initiator: NodeId,
    target: AvailabilityTarget,
    config: MulticastConfig,
}

fn random_case(seed: u64) -> Case {
    let mut r = SplitMix64::new(seed);
    let target = random_target(&mut r);
    let world = MockWorld::random(&mut r);
    let n = world.id_bound() as u64;
    let latency = match r.index(7) {
        0 => LatencyModel::Constant { millis: 50 },
        1 => LatencyModel::Constant { millis: 0 },
        2 => LatencyModel::Uniform {
            lo_millis: 1,
            hi_millis: 1 + r.index(3) as u64,
        },
        // Two that straddle the queue's 128 ms ring: copies of one
        // flood go to its overflow and come back among direct pushes.
        3 => LatencyModel::Uniform {
            lo_millis: 100,
            hi_millis: 300,
        },
        4 => LatencyModel::Uniform {
            lo_millis: 20,
            hi_millis: 400,
        },
        // A span of 2⁶³ + 1: Lemire's method refuses about half its
        // words, so the stream positions compared below cover retries
        // (the paper's span of 61 retries once in ~10¹⁸ draws).
        5 => LatencyModel::Uniform {
            lo_millis: 0,
            hi_millis: 1 << 63,
        },
        _ => LatencyModel::PAPER,
    };
    let strategy = if r.chance(0.5) {
        MulticastStrategy::Flood
    } else {
        MulticastStrategy::Gossip {
            fanout: r.index(6) as u32,
            rounds: r.index(5) as u32,
            period: SimDuration::from_millis(match r.index(5) {
                0 => 0,
                1 => 1,
                2 => 2,
                3 => 1000,
                _ => u64::MAX, // saturates every later instant
            }),
        }
    };
    let scopes = [SliverScope::HsOnly, SliverScope::VsOnly, SliverScope::Both];
    let policy = if r.chance(0.5) {
        ForwardPolicy::Greedy
    } else {
        ForwardPolicy::RetriedGreedy { retries: 4 }
    };
    // Half the time start inside the range, so that dissemination
    // runs whatever the anycast would have found.
    let inside: Vec<u64> = (0..n)
        .filter(|&id| target.contains(world.believed_availability(NodeId::new(id))))
        .collect();
    let initiator = if !inside.is_empty() && r.chance(0.5) {
        inside[r.index(inside.len())]
    } else {
        r.index(n as usize) as u64
    };
    Case {
        world,
        latency,
        net_seed: r.next_u64(),
        initiator: NodeId::new(initiator),
        target,
        config: MulticastConfig {
            strategy,
            scope: scopes[r.index(3)],
            anycast: AnycastConfig {
                policy,
                scope: scopes[r.index(3)],
                ttl: 6,
            },
        },
    }
}

/// The outcome plus the next draw of both streams: equal tuples mean
/// equal results *and* equal stream positions.
type Observed = (MulticastOutcome, SimDuration, u64);

fn run_kernel(case: &Case, scratch: &mut OpScratch) -> Observed {
    let mut net = Network::new(case.latency, case.net_seed);
    let mut rng = SplitMix64::new(case.net_seed ^ 1);
    let outcome = run_multicast(
        &case.world,
        &mut net,
        &mut rng,
        scratch,
        case.initiator,
        case.target,
        case.config,
    );
    (outcome, net.hop_latency(), rng.next_u64())
}

fn run_reference(case: &Case) -> Observed {
    let mut net = Network::new(case.latency, case.net_seed);
    let mut rng = SplitMix64::new(case.net_seed ^ 1);
    let outcome = reference::run_multicast(
        &case.world,
        &mut net,
        &mut rng,
        case.initiator,
        case.target,
        case.config,
    );
    (outcome, net.hop_latency(), rng.next_u64())
}

proptest! {
    /// Deliveries (who, when, in which order), `messages`, `eligible`
    /// and the position of both random streams equal the reference
    /// model's on random worlds.
    #[test]
    fn kernel_matches_the_queue_every_copy_reference(seed in any::<u64>()) {
        let case = random_case(seed);
        prop_assert_eq!(run_kernel(&case, &mut scratch()), run_reference(&case));
    }

    /// Two different multicasts back to back on one scratch equal the
    /// same two on fresh scratch — nothing a multicast leaves behind
    /// (rows, gossip progress, queue capacity) is
    /// visible to the next.
    #[test]
    fn used_scratch_equals_fresh_scratch(first in any::<u64>(), second in any::<u64>()) {
        let (a, b) = (random_case(first), random_case(second));
        let mut used = scratch();
        prop_assert_eq!(run_kernel(&a, &mut used), run_kernel(&a, &mut scratch()));
        prop_assert_eq!(run_kernel(&b, &mut used), run_kernel(&b, &mut scratch()));
        prop_assert_eq!(run_kernel(&a, &mut used), run_kernel(&a, &mut scratch()));
    }

    /// Rows and gossip progress stamped with the first generation
    /// must not pass for current when the counter wraps and comes
    /// back to it.
    #[test]
    fn generation_wrap_does_not_revive_stale_rows(first in any::<u64>(), second in any::<u64>()) {
        let (a, b) = (random_case(first), random_case(second));
        let mut used = scratch();
        let (warm, _, _) = run_kernel(&a, &mut used);
        let fresh = run_kernel(&b, &mut scratch());
        // Both must disseminate, or no generation is opened.
        prop_assume!(warm.anycast.is_delivered() && fresh.0.anycast.is_delivered());
        prop_assert_eq!(used.dissemination.generation, GENERATION_STEP);
        used.dissemination.generation = 0u32.wrapping_sub(GENERATION_STEP);
        prop_assert_eq!(run_kernel(&b, &mut used), fresh);
        prop_assert_eq!(used.dissemination.generation, GENERATION_STEP);
        prop_assert_eq!(run_kernel(&a, &mut used), run_kernel(&a, &mut scratch()));
    }
}

proptest! {
    /// The differential above on every arm this CPU runs: the scalar arm
    /// (a CPU without AVX-512 F) compacts a flood's in-range neighbors
    /// and tests their online bits one at a time, the vector arm sixteen
    /// to a step, and both agree with the reference copy for copy and
    /// draw for draw.
    #[test]
    fn every_arm_matches_the_queue_every_copy_reference(seed in any::<u64>()) {
        let case = random_case(seed);
        let reference = run_reference(&case);
        for (name, lanes) in Lanes::every() {
            let mut scratch = scratch();
            scratch.dissemination.lanes = lanes;
            prop_assert_eq!(run_kernel(&case, &mut scratch), reference.clone(), "{} arm", name);
        }
    }
}

#[test]
fn random_cases_exercise_the_kernel() {
    // The differential is only worth its cases: most must enter the
    // range, reach several nodes, and skip duplicate copies.
    let mut entered = 0;
    let mut reached = 0;
    let mut messages = 0;
    for seed in 0..200 {
        let (outcome, _, _) = run_kernel(&random_case(seed), &mut scratch());
        entered += usize::from(outcome.anycast.is_delivered());
        reached += outcome.deliveries.len();
        messages += outcome.messages;
    }
    assert!(entered > 150, "{entered} of 200 cases entered the range");
    assert!(reached > 1200, "{reached} deliveries over 200 cases");
    assert!(messages > 2 * reached as u64, "{messages} messages: no duplicate copies");
}
