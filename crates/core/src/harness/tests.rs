//! Whole-harness tests: the converged and event-driven modes, the
//! queries, the finalize memory's hand cases, the differentials of the
//! one cohort path against the model (`model.rs`), and Figs. 5–6 over
//! the world's admission verdicts.

use super::cohort::INLINE_COHORT_EVENTS;
use super::finalize::{verdict_bit, FinalizeShardState};
use super::model::{assert_matches, model_of};
use super::*;
use crate::membership::SliverScope;
use crate::ops::{
    run_anycast, run_multicast, AnycastConfig, AvailabilityTarget, MulticastConfig, OpScratch,
    OverlayWorld,
};
use crate::predicate::{AvmemPredicate, HorizontalRule, NodeInfo, VerticalRule};
use crate::verify::{flooding_acceptance, legitimate_rejection, AdmissionPolicy};
use avmem_sim::{LatencyModel, Network};
use avmem_trace::OvernetModel;

fn small_sim(seed: u64) -> AvmemSim {
    let trace = OvernetModel::default().hosts(120).days(1).generate(3);
    AvmemSim::new(trace, SimConfig::paper_default(seed))
}

/// Fires operation number `op` over `sim.world()`, the one road there is:
/// `run` gets the world, a latency network and a random stream keyed by
/// `op` (the scenario runner keys its own by seed and operation index),
/// and fresh working memory.
fn fire<T>(
    sim: &AvmemSim,
    op: u64,
    run: impl FnOnce(&dyn OverlayWorld, &mut Network, &mut SplitMix64, &mut OpScratch) -> T,
) -> T {
    let mut net = Network::new(LatencyModel::PAPER, SplitMix64::keyed(&[op, 0]).next_u64());
    let mut rng = SplitMix64::keyed(&[op, 1]);
    run(&sim.world(), &mut net, &mut rng, &mut OpScratch::default())
}

/// The online nodes whose true availability lies in `[lo, hi)`, ascending.
fn online_in(sim: &AvmemSim, lo: f64, hi: f64) -> Vec<NodeId> {
    let av = |i: usize| sim.trace().long_term_availability(i).value();
    let in_band = |i: &&u32| (lo..hi).contains(&av(**i as usize));
    sim.online().online().iter().filter(in_band).map(|&i| NodeId::new(u64::from(i))).collect()
}

#[test]
fn converged_warm_up_builds_lists() {
    let mut sim = small_sim(1);
    sim.warm_up(SimDuration::from_hours(24));
    assert!(sim.health_stats().mean_degree > 1.0, "overlay should have edges");
}

#[test]
fn warm_up_advances_clock() {
    let mut sim = small_sim(1);
    sim.warm_up(SimDuration::from_hours(2));
    assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_hours(2));
}

#[test]
fn same_seed_same_overlay() {
    let mut a = small_sim(9);
    let mut b = small_sim(9);
    a.warm_up(SimDuration::from_hours(24));
    b.warm_up(SimDuration::from_hours(24));
    assert_eq!(a.memberships, b.memberships);
}

#[test]
fn event_driven_approaches_converged() {
    let trace = OvernetModel::default().hosts(80).days(1).generate(5);
    let mut converged = AvmemSim::new(trace.clone(), SimConfig::paper_default(2));
    converged.warm_up(SimDuration::from_hours(12));

    let mut config = SimConfig::paper_default(2);
    config.maintenance = MaintenanceMode::paper_event_driven();
    let mut event_driven = AvmemSim::new(trace, config);
    event_driven.warm_up(SimDuration::from_hours(12));

    // Event-driven discovery should have found a sizeable share of the
    // converged overlay's edges for online nodes.
    let conv_degree = converged.health_stats().mean_degree;
    let ed_degree = event_driven.health_stats().mean_degree;
    assert!(
        ed_degree > conv_degree * 0.3,
        "event-driven degree {ed_degree} too far below converged {conv_degree}"
    );
}

#[test]
fn event_driven_lists_satisfy_predicate() {
    let trace = OvernetModel::default().hosts(60).days(1).generate(7);
    let mut config = SimConfig::paper_default(3);
    config.maintenance = MaintenanceMode::paper_event_driven();
    let mut sim = AvmemSim::new(trace, config);
    sim.warm_up(SimDuration::from_hours(6));
    // Every listed neighbor must satisfy the predicate under current
    // (exact) availabilities — modulo entries not yet refreshed; with
    // the exact oracle there is no divergence at all.
    for i in 0..sim.trace().num_nodes() {
        let own = NodeInfo::new(
            NodeId::new(i as u64),
            sim.trace().long_term_availability(i),
        );
        for nb in sim.memberships[i].neighbors(SliverScope::Both) {
            let info = NodeInfo::new(nb.id, nb.cached_availability);
            assert!(
                sim.predicate.member(own, info),
                "listed neighbor violates predicate"
            );
        }
    }
}

#[test]
fn chopped_event_driven_warm_up_equals_one_big_advance() {
    // The persistent schedule makes warm_up(x); warm_up(y) identical
    // to warm_up(x + y): the periodic protocols keep their phase
    // across call boundaries instead of re-staggering.
    let trace = OvernetModel::default().hosts(90).days(1).generate(19);
    let mut config = SimConfig::paper_default(6);
    config.maintenance = MaintenanceMode::paper_event_driven();
    let mut whole = AvmemSim::new(trace.clone(), config);
    whole.warm_up(SimDuration::from_hours(4));
    let mut chopped = AvmemSim::new(trace, config);
    for _ in 0..16 {
        chopped.warm_up(SimDuration::from_mins(15));
    }
    assert_eq!(whole.now(), chopped.now());
    assert_eq!(whole.memberships, chopped.memberships);
    for i in 0..whole.trace().num_nodes() {
        let id = NodeId::new(i as u64);
        assert_eq!(whole.shuffle_view(id), chopped.shuffle_view(id));
    }
}

#[test]
fn advance_to_matches_warm_up_in_event_driven_mode() {
    let trace = OvernetModel::default().hosts(70).days(1).generate(23);
    let mut config = SimConfig::paper_default(8);
    config.maintenance = MaintenanceMode::paper_event_driven();
    let mut by_duration = AvmemSim::new(trace.clone(), config);
    by_duration.warm_up(SimDuration::from_hours(2));
    let mut by_instant = AvmemSim::new(trace, config);
    by_instant.advance_to(SimTime::ZERO + SimDuration::from_hours(1));
    assert!(by_instant.next_maintenance_at().is_some());
    by_instant.advance_to(SimTime::ZERO + SimDuration::from_hours(2));
    // Backwards/no-op advances change nothing.
    by_instant.advance_to(SimTime::ZERO);
    assert_eq!(by_duration.now(), by_instant.now());
    assert_eq!(by_duration.memberships, by_instant.memberships);
}

#[test]
fn advance_to_in_converged_mode_moves_clock_without_rebuild() {
    let mut sim = small_sim(17);
    sim.warm_up(SimDuration::from_hours(1));
    let before = sim.memberships.clone();
    assert!(sim.next_maintenance_at().is_none());
    sim.advance_to(SimTime::ZERO + SimDuration::from_hours(3));
    assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_hours(3));
    // Lists untouched: only clock/oracle/online advanced.
    assert_eq!(sim.memberships, before);
}

#[test]
fn anycast_high_target_from_mid_usually_delivers() {
    let mut sim = small_sim(11);
    sim.warm_up(SimDuration::from_hours(24));
    let mut delivered = 0;
    let mut sent = 0;
    let mid = online_in(&sim, 1.0 / 3.0, 2.0 / 3.0);
    for (op, &initiator) in mid.iter().take(20).enumerate() {
        sent += 1;
        let target = AvailabilityTarget::range(0.85, 0.95);
        let config = AnycastConfig::paper_default();
        let outcome = fire(&sim, op as u64, |w, net, rng, s| {
            run_anycast(w, net, rng, s, initiator, target, config)
        });
        if outcome.is_delivered() {
            delivered += 1;
        }
    }
    assert!(sent > 0);
    assert!(
        delivered * 2 >= sent,
        "only {delivered}/{sent} delivered"
    );
}

#[test]
fn multicast_reaches_most_of_range() {
    let mut sim = small_sim(13);
    sim.warm_up(SimDuration::from_hours(24));
    let target = AvailabilityTarget::threshold(0.7);
    let Some(&initiator) = online_in(&sim, 2.0 / 3.0, 2.0).first() else {
        panic!("no high-availability initiator online");
    };
    let config = MulticastConfig::paper_default();
    let outcome = fire(&sim, 0, |w, net, rng, s| {
        run_multicast(w, net, rng, s, initiator, target, config)
    });
    let world = sim.world();
    let reliability = outcome.reliability(&world, target);
    assert!(
        reliability.unwrap_or(0.0) > 0.5,
        "reliability {reliability:?} too low"
    );
}

#[test]
fn random_predicate_builds_flat_overlay() {
    let trace = OvernetModel::default().hosts(100).days(1).generate(5);
    let mut config = SimConfig::paper_default(4);
    config.predicate = PredicateChoice::Random {
        expected_degree: 12.0,
    };
    let mut sim = AvmemSim::new(trace, config);
    sim.warm_up(SimDuration::from_hours(24));
    let degree = sim.health_stats().mean_degree;
    assert!(
        (2.0..30.0).contains(&degree),
        "random overlay degree {degree} out of expected range"
    );
}

#[test]
fn world_view_is_consistent_with_trace() {
    let mut sim = small_sim(21);
    sim.warm_up(SimDuration::from_hours(2));
    let now = sim.now();
    let online_from_trace: Vec<usize> = sim.trace().online_at(now);
    let world = sim.world();
    for i in 0..sim.trace().num_nodes() {
        let id = NodeId::new(i as u64);
        assert_eq!(world.is_online(id), online_from_trace.contains(&i));
        assert_eq!(
            world.true_availability(id),
            sim.trace().long_term_availability(i)
        );
        // Exact oracle: belief equals truth.
        assert_eq!(
            world.believed_availability(id),
            sim.trace().long_term_availability(i)
        );
    }
}

#[test]
fn operations_see_the_trace_wherever_the_clock_stops() {
    // `world().is_online` is answered by the online index, which is
    // right only if it moved with the clock. Stop the clock where a stale
    // index would lie — a fresh simulation, the last millisecond of a
    // slot, the first of the next, a jump over two boundaries, after a
    // converged rebuild — and hold the world view and a flood to the trace.
    let trace = OvernetModel::default().hosts(120).days(1).generate(3);
    let everyone = AvailabilityTarget::range(0.0, 1.0);
    let check = |sim: &AvmemSim, stop: &str| {
        let (now, n) = (sim.now(), sim.trace().num_nodes());
        let up = sim.trace().online_at(now);
        {
            let world = sim.world();
            for i in 0..n {
                let online = world.is_online(NodeId::new(i as u64));
                assert_eq!(online, up.contains(&i), "{stop}: node {i} at {now:?}");
            }
            assert!(
                !world.is_online(NodeId::new(n as u64)),
                "{stop}: beyond the population"
            );
        }
        let Some(&initiator) = up.first() else { return };
        let initiator = NodeId::new(initiator as u64);
        let config = MulticastConfig::paper_default();
        let flood = fire(sim, 0, |w, net, rng, s| {
            run_multicast(w, net, rng, s, initiator, everyone, config)
        });
        assert_eq!(flood.eligible, up.len(), "{stop}");
        let reached_offline = flood
            .deliveries
            .iter()
            .any(|(id, _)| !up.contains(&(id.raw() as usize)));
        assert!(!reached_offline, "{stop}: delivered to an offline node");
    };
    let slot_ms = trace.slot_duration().as_millis();
    let mut slots_differ = false;
    // Periods that divide a slot put a cohort on every boundary; these do
    // not, so only the end of the advance moves the index over it.
    let off_lattice = MaintenanceMode::EventDriven {
        protocol_period: SimDuration::from_mins(7),
        refresh_period: SimDuration::from_mins(11),
    };
    for maintenance in [
        MaintenanceMode::Converged,
        MaintenanceMode::paper_event_driven(),
        off_lattice,
    ] {
        let mut config = SimConfig::paper_default(31);
        config.maintenance = maintenance;
        let mut sim = AvmemSim::new(trace.clone(), config);
        check(&sim, "fresh");
        sim.advance_to(SimTime::from_millis(slot_ms - 1));
        check(&sim, "last millisecond of slot 0");
        let before = sim.trace().online_at(sim.now());
        sim.advance_to(SimTime::from_millis(slot_ms));
        check(&sim, "first millisecond of slot 1");
        slots_differ |= before != sim.trace().online_at(sim.now());
        sim.advance_to(SimTime::from_millis(3 * slot_ms + slot_ms / 2));
        check(&sim, "two boundaries on");
        sim.warm_up(trace.slot_duration());
        check(&sim, "after a warm-up of one slot");
    }
    assert!(slots_differ, "vacuous: slots 0 and 1 hold the same nodes");
}

/// A trace of `hosts` rows over `slots` 20-minute slots, each host up
/// with its own probability, nobody up in `empty_slot`.
fn random_rows(r: &mut SplitMix64, hosts: usize, slots: usize, empty_slot: usize) -> ChurnTrace {
    let rows = (0..hosts)
        .map(|_| {
            let up = r.next_f64();
            (0..slots)
                .map(|s| s != empty_slot && r.chance(up))
                .collect()
        })
        .collect();
    ChurnTrace::from_rows(SimDuration::from_mins(20), rows)
}

proptest::proptest! {
    /// `WorldView::eligible` (two binary searches over the online index's
    /// availability column) equals the scan `OverlayWorld::eligible`
    /// defaults to, at every slot of random traces — availabilities are
    /// multiples of `1 / slots`, so ties abound — one of them with nobody
    /// online, for bounds on and off hosts' availabilities.
    #[test]
    fn world_view_counts_eligible_like_the_scan(seed in proptest::prelude::any::<u64>()) {
        let mut r = SplitMix64::new(seed);
        let (hosts, slots) = (1 + r.index(60), 2 + r.index(10));
        let empty_slot = r.index(slots);
        let trace = random_rows(&mut r, hosts, slots, empty_slot);
        let slot_ms = trace.slot_duration().as_millis();
        let mut sim = AvmemSim::new(trace, SimConfig::paper_default(seed));
        for slot in 0..slots {
            sim.advance_to(SimTime::from_millis(slot as u64 * slot_ms + r.range_u64(slot_ms)));
            let world = sim.world();
            let mut of_a_host = || sim.trace().long_term_availability(r.index(hosts)).value();
            let (a, b) = (of_a_host(), of_a_host());
            let (x, y) = (r.next_f64(), r.next_f64());
            let targets = [
                AvailabilityTarget::range(0.0, 1.0),
                AvailabilityTarget::range(a, a),
                AvailabilityTarget::range(a.min(b), a.max(b)),
                AvailabilityTarget::range(x.min(y), x.max(y)),
                AvailabilityTarget::range(x.min(a), x.max(a)),
                AvailabilityTarget::threshold(0.0),
                AvailabilityTarget::threshold(x),
                AvailabilityTarget::Threshold { min: a },
                // Nobody passes these: out of reach, inverted, unordered.
                AvailabilityTarget::Threshold { min: 1.0 },
                AvailabilityTarget::Range { lo: a.max(b), hi: a.min(b) - 0.01 },
                AvailabilityTarget::Threshold { min: f64::NAN },
                AvailabilityTarget::Range { lo: f64::NAN, hi: 1.0 },
                AvailabilityTarget::Range { lo: 0.0, hi: f64::NAN },
            ];
            for target in targets {
                let scanned = (0..hosts as u64)
                    .map(NodeId::new)
                    .filter(|&id| world.is_online(id) && target.contains(world.true_availability(id)))
                    .count();
                proptest::prop_assert_eq!(world.eligible(target), scanned, "{} in slot {}", target, slot);
                if slot == empty_slot {
                    proptest::prop_assert_eq!(scanned, 0);
                }
            }
        }
    }

    /// `WorldView::online_words`, which a flood tests sixteen receivers
    /// at a time against, says what `is_online` says at every
    /// slot of random traces, across word edges, and past the population.
    #[test]
    fn world_view_online_words_answer_like_is_online(seed in proptest::prelude::any::<u64>()) {
        let mut r = SplitMix64::new(seed);
        let (hosts, slots) = (1 + r.index(200), 2 + r.index(6));
        let empty_slot = r.index(slots);
        let trace = random_rows(&mut r, hosts, slots, empty_slot);
        let slot_ms = trace.slot_duration().as_millis();
        let mut sim = AvmemSim::new(trace, SimConfig::paper_default(seed));
        for slot in 0..slots {
            sim.advance_to(SimTime::from_millis(slot as u64 * slot_ms + r.range_u64(slot_ms)));
            let world = sim.world();
            let words = world.online_words();
            proptest::prop_assert_eq!(words.len(), hosts.div_ceil(64));
            for id in 0..64 * words.len() + 70 {
                let bit = words.get(id / 64).is_some_and(|word| word >> (id % 64) & 1 != 0);
                proptest::prop_assert_eq!(bit, world.is_online(NodeId::new(id as u64)), "id {}", id);
            }
        }
    }
}

#[test]
#[should_panic(expected = "need at least one host")]
fn a_population_of_none_is_refused_where_its_trace_is_built() {
    // An `AvmemSim` holds a trace, and no generator builds one of zero
    // hosts: the Overnet model refuses N = 0 by name (`from_rows`
    // refuses an empty row list the same way).
    let _ = OvernetModel::default().hosts(0);
}

#[test]
fn three_hosts_run_with_views_larger_than_the_population() {
    // A shuffle view holds at least eight entries, so at N = 3 it can
    // hold everyone. Both maintenance modes run a day on it; every list
    // stays a set of other nodes, and a flood reaches whoever it can.
    let trace = OvernetModel::default().hosts(3).days(1).generate(5);
    assert!(avmem_shuffle::optimal_view_size(3) >= 3);
    for maintenance in [
        MaintenanceMode::Converged,
        MaintenanceMode::paper_event_driven(),
    ] {
        let mut config = SimConfig::paper_default(5);
        config.maintenance = maintenance;
        let mut sim = AvmemSim::new(trace.clone(), config);
        for _ in 0..6 {
            sim.warm_up(SimDuration::from_hours(4));
            for x in 0..3u64 {
                let ids = sim
                    .membership(NodeId::new(x))
                    .columns(SliverScope::Both)
                    .ids;
                assert!(
                    ids.len() <= 2 && !ids.contains(&(x as u32)),
                    "{maintenance:?}: {ids:?}"
                );
                assert!(
                    sim.shuffle_view(NodeId::new(x)).len() <= 3,
                    "{maintenance:?}"
                );
            }
            let stats = sim.health_stats();
            assert!(
                stats.online <= 3 && stats.mean_degree <= 2.0,
                "{maintenance:?}: {stats:?}"
            );
            if let Some(&first) = sim.online().online().first() {
                let everyone = AvailabilityTarget::range(0.0, 1.0);
                let config = MulticastConfig::paper_default();
                let from = NodeId::new(u64::from(first));
                let flood = fire(&sim, 1, |w, n, r, s| {
                    run_multicast(w, n, r, s, from, everyone, config)
                });
                assert_eq!(flood.eligible, stats.online);
                assert!(flood.deliveries.len() <= stats.online, "{maintenance:?}");
            }
        }
    }
}

#[test]
fn total_ping_loss_puts_every_node_in_one_band() {
    // With every AVMON ping lost, every estimate reads 0.0: each node
    // believes itself and everyone else unavailable, all of them sit in
    // the band around 0, and the lists fill with horizontal neighbors
    // however available the nodes truly are. (A documented limit of
    // the model, not a crash: the run goes on.)
    let trace = OvernetModel::default().hosts(200).days(1).generate(9);
    let mut config = SimConfig::paper_default(9);
    config.oracle = OracleChoice::Avmon {
        config: avmem_avmon::AvmonConfig {
            ping_loss: 1.0,
            ..avmem_avmon::AvmonConfig::default()
        },
    };
    config.maintenance = MaintenanceMode::paper_event_driven();
    let mut sim = AvmemSim::new(trace, config);
    sim.warm_up(SimDuration::from_hours(3));
    let online = sim.online().online().to_vec();
    assert!(online.len() > 50, "{} online", online.len());
    let zero = Some(Availability::ZERO);
    for &x in &online {
        let x = NodeId::new(u64::from(x));
        for &y in &online {
            assert_eq!(
                sim.oracle()
                    .estimate(x, NodeId::new(u64::from(y)), sim.now()),
                zero
            );
        }
        let membership = sim.membership(x);
        assert_eq!(
            membership.vs_len(),
            0,
            "{x}: a vertical neighbor out of one band"
        );
    }
    let stats = sim.health_stats();
    // The lists fill: with the nodes that went down since they were
    // listed, a node's lists outnumber the nodes online.
    assert!(stats.mean_degree > online.len() as f64, "{stats:?}");
    assert!(stats.largest_component > 0.9, "{stats:?}");
}

#[test]
fn operations_on_degenerate_populations_return_outcomes() {
    // ROADMAP "degenerate parameters through `AvmemSim` itself": one
    // host, a slot with every host offline, an offline initiator. The
    // operations do not ask whether their initiator is up (callers draw
    // it from the online set): one that believes itself in range is its
    // own entry point, any other finds nobody to forward to.
    let slot = SimDuration::from_mins(20);
    let everyone = AvailabilityTarget::range(0.0, 1.0);
    let nobody = AvailabilityTarget::Threshold { min: 1.0 };
    let gossip = MulticastConfig {
        strategy: crate::ops::multicast::MulticastStrategy::paper_gossip(),
        ..MulticastConfig::paper_default()
    };
    let alone = ChurnTrace::from_rows(slot, vec![vec![true, false]]);
    let dark = ChurnTrace::from_rows(
        slot,
        vec![vec![true, false], vec![true, false], vec![true, false]],
    );
    for (trace, maintenance) in [
        (alone.clone(), MaintenanceMode::Converged),
        (alone, MaintenanceMode::paper_event_driven()),
        (dark.clone(), MaintenanceMode::Converged),
        (dark, MaintenanceMode::paper_event_driven()),
    ] {
        let n = trace.num_nodes();
        let mut config = SimConfig::paper_default(5);
        config.maintenance = maintenance;
        let mut sim = AvmemSim::new(trace, config);
        let first = NodeId::new(0);
        // Slot 0, everyone up; then slot 1, everyone down.
        for (up, warm_up) in [(n, slot.mul(0)), (0, slot)] {
            sim.warm_up(warm_up);
            let multicast = |target, config| {
                fire(&sim, 0, |w, n, r, s| run_multicast(w, n, r, s, first, target, config))
            };
            let anycast = |target| {
                let config = AnycastConfig::paper_default();
                fire(&sim, 0, |w, n, r, s| run_anycast(w, n, r, s, first, target, config))
            };
            for config in [MulticastConfig::paper_default(), gossip] {
                let flood = multicast(everyone, config);
                assert_eq!(flood.eligible, up);
                // Its own entry point, up or not; whoever else it reaches
                // is up.
                assert_eq!(flood.deliveries.first(), Some(&(first, SimDuration::ZERO)));
                let trace = sim.trace();
                assert!(flood.deliveries[1..]
                    .iter()
                    .all(|&(id, _)| trace.is_online(id.raw() as usize, sim.now())));

                let missed = multicast(nobody, config);
                assert_eq!(missed.eligible, 0);
                assert!(missed.deliveries.is_empty() && missed.messages == 0);
                assert!(missed.anycast.drop_reason.is_some());
            }
            let missed = anycast(nobody);
            assert!(!missed.is_delivered());
            assert!(missed.drop_reason.is_some(), "a typed drop");
            assert_eq!(anycast(everyone).hops, 0);
        }
        assert!(sim.online().is_empty());
    }
}

#[test]
fn phase_timings_accumulate_in_event_driven_mode() {
    let trace = OvernetModel::default().hosts(60).days(1).generate(11);
    let mut config = SimConfig::paper_default(5);
    config.maintenance = MaintenanceMode::paper_event_driven();
    let mut sim = AvmemSim::new(trace, config);
    assert_eq!(sim.phase_timings(), PhaseTimings::default());
    sim.warm_up(SimDuration::from_hours(2));
    let timings = sim.phase_timings();
    assert!(timings.cohorts > 0, "no cohorts processed");
    assert!(
        timings.propose + timings.commit + timings.finalize > Duration::ZERO,
        "no maintenance time recorded"
    );
}

#[test]
fn finalize_matches_the_model_and_counts() {
    let trace = OvernetModel::default().hosts(80).days(1).generate(31);
    let mut cfg = SimConfig::paper_default(14);
    cfg.maintenance = MaintenanceMode::paper_event_driven();
    cfg.engine = MaintenanceEngine::Serial;
    let mut sim = AvmemSim::new(trace, cfg);
    sim.warm_up(SimDuration::from_hours(3));
    assert_matches(&model_of(&sim), &sim, "80 hosts, 3 h");
    // Guards against vacuous equality, and the counters must move.
    assert!(sim.health_stats().mean_degree > 0.5, "no overlay built");
    let stats = sim.finalize_stats();
    assert!(stats.memo_hits + stats.memo_misses > 0, "no finalize op ran");
    assert!(
        stats.refresh_skipped > 0,
        "constant-epoch oracle must skip repeat refreshes"
    );
    assert!(
        stats.discover_pruned > 0,
        "constant-epoch oracle must prune repeat discovery candidates"
    );
    assert!(stats.batched_estimates > 0, "no batched estimates");
}

/// An event-driven sim on 15 s ticks for the verdict-memory hand
/// cases.
fn event_driven_sim(
    hosts: usize,
    oracle: OracleChoice,
    engine: MaintenanceEngine,
    hash_budget: usize,
) -> AvmemSim {
    let trace = OvernetModel::default().hosts(hosts).days(1).generate(41);
    let mut cfg = SimConfig::paper_default(15);
    cfg.oracle = oracle;
    cfg.maintenance = MaintenanceMode::EventDriven {
        protocol_period: SimDuration::from_secs(15),
        refresh_period: SimDuration::from_mins(3),
    };
    cfg.engine = engine;
    cfg.hash_budget = hash_budget;
    AvmemSim::new(trace, cfg)
}

/// Shared noise of amplitude 0.05, re-drawn every `mins` minutes.
fn shared_noise(mins: u64) -> OracleChoice {
    OracleChoice::NoisyShared {
        error: 0.05,
        staleness: SimDuration::from_mins(mins),
    }
}

/// The finalize memory of a one-shard run.
fn finalize_state(sim: &AvmemSim) -> &FinalizeShardState {
    &sim.maint.as_ref().expect("maintenance ran").scratches[0].finalize
}

/// Every set bit of every skip row of the run so far, as `(x, y,
/// stamp)`.
fn set_verdicts(sim: &AvmemSim) -> Vec<(usize, usize, u32)> {
    let maint = sim.maint.as_ref().expect("event-driven maintenance ran");
    let n = sim.trace().num_nodes();
    let mut set = Vec::new();
    for (s, scratch) in maint.scratches.iter().enumerate() {
        let start = maint.part.range(s).start;
        for (local, row) in scratch.finalize.verdicts.iter().enumerate() {
            for y in (0..n).filter(|&y| bit_is_set(row, y)) {
                set.push((start + local, y, scratch.finalize.seen_stamp[local]));
            }
        }
    }
    set
}

/// Every set bit of every settled row of a one-shard run, as `(x, y)`.
fn settled_pairs(sim: &AvmemSim) -> Vec<(usize, usize)> {
    let n = sim.trace().num_nodes();
    let mut set = Vec::new();
    for (x, row) in finalize_state(sim).settled.iter().enumerate() {
        set.extend((0..n).filter(|&y| bit_is_set(row, y)).map(|y| (x, y)));
    }
    set
}

/// Node `x`'s skip row on a one-shard engine — its stamp and its words
/// (stamp 0, no words: not allocated yet).
fn skip_row(sim: &AvmemSim, x: usize) -> (u32, &[u64]) {
    let state = finalize_state(sim);
    match state.verdicts.get(x) {
        Some(row) => (state.seen_stamp[x], row),
        None => (0, &[]),
    }
}

fn bit_is_set(row: &[u64], y: usize) -> bool {
    let (word, mask) = verdict_bit(y);
    row.get(word).is_some_and(|w| w & mask != 0)
}

/// The finalize stamp of the oracle's epoch at `t`, at or after the last
/// cohort: the schedule's stamp, or the next number if the epoch has
/// moved since.
fn stamp_at(sim: &AvmemSim, t: SimTime) -> u32 {
    let maint = sim.maint.as_ref().expect("maintenance ran");
    maint.stamp + u32::from(sim.oracle.epoch(t) != maint.epoch)
}

/// Whether Eq. 1, evaluated pair at a time under the current estimates,
/// keeps `y` out of `x`'s lists.
fn classifies_to_no_insert(sim: &AvmemSim, x: usize, y: usize) -> bool {
    let own_av = sim.estimated_availability(x, x).expect("own estimate");
    let Some(y_av) = sim.estimated_availability(x, y) else {
        return true;
    };
    let own = NodeInfo::new(NodeId::new(x as u64), own_av);
    let info = NodeInfo::new(NodeId::new(y as u64), y_av);
    sim.predicate.classify(own, info).is_none()
}

/// How many slots of node `x`'s view carry a mark.
fn marked_slots(sim: &AvmemSim, x: usize) -> usize {
    let view = sim.shuffles[x].view();
    (0..view.len()).filter(|&pos| view.is_marked(pos)).count()
}

/// Whether node `i`'s periodic event of `stream` fires at `t`, on a
/// schedule built at time zero.
fn fires_at(sim: &AvmemSim, stream: u64, i: usize, t: SimTime) -> bool {
    let MaintenanceMode::EventDriven {
        protocol_period,
        refresh_period,
    } = sim.config.maintenance
    else {
        panic!("event-driven sim expected");
    };
    let period = if stream == STREAM_STAGGER_TICK {
        protocol_period
    } else {
        refresh_period
    };
    let offset = schedule::stagger_offset(sim.config.seed, stream, i, SimTime::ZERO, period);
    let first = SimTime::ZERO + offset;
    t >= first && (t - first).as_millis().is_multiple_of(period.as_millis())
}

/// Runs exactly the next cohort and returns its timestamp.
fn run_next_cohort(sim: &mut AvmemSim) -> SimTime {
    let t = sim.next_maintenance_at().expect("schedule built");
    sim.advance_to(t);
    t
}

fn neighbor_ids(sim: &AvmemSim, x: usize) -> Vec<usize> {
    sim.memberships[x]
        .neighbor_ids(SliverScope::Both)
        .map(|id| id.raw() as usize)
        .collect()
}

#[test]
fn a_pair_rejected_at_one_epoch_is_re_evaluated_at_the_next() {
    // Shared noise re-drawn every two minutes: a verdict must die
    // with its epoch. Walk the run tick by tick and find pairs whose
    // bit was set under one stamp, for a pair that was no neighbor,
    // and that are neighbors later — the new epoch's estimates
    // classified them differently, which a row that is not zeroed on
    // a stamp change would never find out.
    let oracle = OracleChoice::NoisyShared {
        error: 0.05,
        staleness: SimDuration::from_mins(2),
    };
    let mut sim = event_driven_sim(
        90,
        oracle,
        MaintenanceEngine::Serial,
        hashes::DEFAULT_HASH_BUDGET,
    );
    let mut rejected = std::collections::HashMap::new();
    let (mut revived, mut verdicts_checked) = (0, 0);
    for _ in 0..120 {
        sim.warm_up(SimDuration::from_secs(15));
        let current = stamp_at(&sim, sim.now());
        for (x, y, stamp) in set_verdicts(&sim) {
            // A set bit says "nothing to evaluate": the pair is a
            // neighbor, or it was rejected under the row's stamp —
            // which, while that epoch lasts, a pair-at-a-time
            // evaluation can confirm.
            if sim.memberships[x].contains(NodeId::new(y as u64)) {
                continue;
            }
            if stamp == current {
                assert!(
                    classifies_to_no_insert(&sim, x, y),
                    "bit ({x}, {y}) is set for a pair Eq. 1 accepts"
                );
                verdicts_checked += 1;
            }
            rejected.insert((x, y), stamp);
        }
        // And every neighbor of a node that has a row is marked in it,
        // whichever epoch the row is from: rows are rebuilt only by
        // discovery, which is also the only step that inserts.
        for x in 0..sim.trace().num_nodes() {
            let (_, row) = skip_row(&sim, x);
            for y in neighbor_ids(&sim, x) {
                assert!(row.is_empty() || bit_is_set(row, y), "neighbor ({x}, {y}) unmarked");
            }
        }
        rejected.retain(|&(x, y), _| {
            let inserted = sim.memberships[x].contains(NodeId::new(y as u64));
            revived += inserted as usize;
            !inserted
        });
    }
    assert!(verdicts_checked > 1_000, "only {verdicts_checked} verdicts checked");
    assert!(revived > 0, "no rejected pair was ever inserted later");
    assert_matches(&model_of(&sim), &sim, "hand case");
}

#[test]
fn a_neighbor_evicted_by_a_same_epoch_refresh_stays_pruned() {
    // Five-minute epochs over 15 s ticks and 3 min refreshes: most
    // refreshes run in an epoch the node has already discovered in,
    // so its row is current when the refresh evicts a neighbor (one
    // inserted under an earlier epoch's estimates). The eviction *is*
    // a no-insert verdict of this epoch — same function, same inputs
    // — so the neighbor's bit must stand: discoveries that meet the
    // id again before the epoch ends skip it.
    let oracle = OracleChoice::NoisyShared {
        error: 0.05,
        staleness: SimDuration::from_mins(5),
    };
    let mut sim = event_driven_sim(
        90,
        oracle,
        MaintenanceEngine::Serial,
        hashes::DEFAULT_HASH_BUDGET,
    );
    sim.warm_up(SimDuration::ZERO);
    let n = sim.trace().num_nodes();
    // (x, y) → the stamp under which y was evicted from x's lists.
    let mut standing = std::collections::HashMap::new();
    let (mut evictions, mut met_again) = (0, 0);
    while sim.now() < SimTime::ZERO + SimDuration::from_mins(40) {
        let before: Vec<Vec<usize>> = (0..n).map(|x| neighbor_ids(&sim, x)).collect();
        let t = run_next_cohort(&mut sim);
        let current = stamp_at(&sim, t);
        for x in (0..n).filter(|&x| sim.trace().is_online(x, t)) {
            let (stamp, row) = skip_row(&sim, x);
            if fires_at(&sim, STREAM_STAGGER_REFRESH, x, t) && stamp == current {
                let now = neighbor_ids(&sim, x);
                for &y in before[x].iter().filter(|y| !now.contains(y)) {
                    evictions += 1;
                    standing.insert((x, y), current);
                }
            }
            if fires_at(&sim, STREAM_STAGGER_TICK, x, t) {
                // The view discovery just filtered (nothing ran since).
                for id in sim.shuffles[x].view().ids() {
                    let met = standing.get(&(x, id.raw() as usize)) == Some(&stamp);
                    met_again += usize::from(met);
                }
            }
            for (&(_, y), _) in standing.iter().filter(|&(&(sx, _), &s)| sx == x && s == stamp) {
                assert!(bit_is_set(row, y), "evicted ({x}, {y}) lost its bit within the epoch");
                assert!(!sim.memberships[x].contains(NodeId::new(y as u64)));
            }
        }
    }
    assert!(evictions > 0, "no refresh evicted under a current row");
    assert!(met_again > 0, "no evicted id was met again within its epoch");
    assert_matches(&model_of(&sim), &sim, "hand case");
}

#[test]
fn a_refresh_only_cohort_at_a_new_epoch_leaves_a_stale_row_for_discovery_to_reset() {
    // Two-minute epochs: a node's refresh often fires — without its
    // tick — in an epoch its row has not seen yet. The refresh evicts
    // under the new estimates and must leave the row alone (stale
    // stamp, the evicted neighbor's bit still set); the node's next
    // discovery then zeroes the row and re-marks the neighbors it has
    // *now*, so the evicted pair is evaluated again if the view
    // offers it, and unmarked if not.
    let oracle = OracleChoice::NoisyShared {
        error: 0.05,
        staleness: SimDuration::from_mins(2),
    };
    let mut sim = event_driven_sim(
        90,
        oracle,
        MaintenanceEngine::Serial,
        hashes::DEFAULT_HASH_BUDGET,
    );
    sim.warm_up(SimDuration::ZERO);
    let n = sim.trace().num_nodes();
    // x → (ids a refresh-only cohort evicted, the row's stale stamp).
    let mut stale: std::collections::HashMap<usize, (Vec<usize>, u32)> = Default::default();
    let (mut re_evaluated, mut unmarked) = (0, 0);
    while sim.now() < SimTime::ZERO + SimDuration::from_mins(60) {
        let before: Vec<Vec<usize>> = (0..n).map(|x| neighbor_ids(&sim, x)).collect();
        let t = run_next_cohort(&mut sim);
        let current = stamp_at(&sim, t);
        for x in (0..n).filter(|&x| sim.trace().is_online(x, t)) {
            let (stamp, row) = skip_row(&sim, x);
            let now = neighbor_ids(&sim, x);
            if fires_at(&sim, STREAM_STAGGER_TICK, x, t) {
                assert_eq!(stamp, current, "node {x}: discovery left another epoch's row");
                if let Some((evicted, old)) = stale.remove(&x) {
                    assert_ne!(old, current);
                    let view: Vec<usize> =
                        sim.shuffles[x].view().ids().map(|id| id.raw() as usize).collect();
                    for y in evicted {
                        let offered = view.contains(&y);
                        assert_eq!(
                            bit_is_set(row, y),
                            offered || now.contains(&y),
                            "({x}, {y}): offered by the view: {offered}"
                        );
                        re_evaluated += usize::from(offered);
                        unmarked += usize::from(!offered);
                    }
                }
            } else if fires_at(&sim, STREAM_STAGGER_REFRESH, x, t)
                && !row.is_empty()
                && stamp != current
            {
                let evicted: Vec<usize> =
                    before[x].iter().copied().filter(|y| !now.contains(y)).collect();
                for &y in &evicted {
                    assert!(bit_is_set(row, y), "a refresh touched the row of node {x}");
                }
                if !evicted.is_empty() {
                    stale.entry(x).or_insert((Vec::new(), stamp)).0.extend(evicted);
                }
            }
        }
    }
    assert!(re_evaluated > 0, "no stale eviction was offered to the next discovery");
    assert!(unmarked > 0, "every stale eviction was offered again");
    assert_matches(&model_of(&sim), &sim, "hand case");
}

#[test]
fn a_settled_pair_is_re_evaluated_once_its_nodes_ceiling_rises() {
    // Shared noise re-drawn every two minutes moves every node's own
    // estimate by up to 0.05 a turnover, and with it the node's
    // horizontal threshold — across the ceiling its settled bits were
    // set against whenever the estimate drifts into a thinner band of
    // the PDF. Walk the run tick by tick: every settled bit must be the
    // fact about ids it claims to be, and some pair that was settled
    // must turn up as a neighbor later — inserted under a threshold that
    // outgrew the old ceiling, which a row that is not zeroed on a raise
    // would never find out.
    let mut sim = event_driven_sim(
        300,
        shared_noise(2),
        MaintenanceEngine::Serial,
        hashes::DEFAULT_HASH_BUDGET,
    );
    let mut settled_once = std::collections::HashSet::new();
    let (mut revived, mut confirmed) = (0, 0);
    for _ in 0..120 {
        sim.warm_up(SimDuration::from_secs(15));
        let current = stamp_at(&sim, sim.now());
        let state = finalize_state(&sim);
        for (x, y) in settled_pairs(&sim) {
            let hash = avmem_util::consistent_hash(NodeId::new(x as u64), NodeId::new(y as u64));
            assert!(hash > state.ceiling[x], "({x}, {y}) settled at or under its ceiling");
            assert!(
                !sim.memberships[x].contains(NodeId::new(y as u64)),
                "settled pair ({x}, {y}) is a neighbor"
            );
            // A node that discovered in this epoch has checked its
            // ceiling against this epoch's thresholds: Eq. 1, pair at a
            // time, must agree with every bit it kept.
            if state.seen_stamp[x] == current {
                assert!(classifies_to_no_insert(&sim, x, y), "Eq. 1 accepts settled ({x}, {y})");
                confirmed += 1;
            }
            settled_once.insert((x, y));
        }
        settled_once.retain(|&(x, y)| {
            let inserted = sim.memberships[x].contains(NodeId::new(y as u64));
            revived += usize::from(inserted);
            !inserted
        });
    }
    let stats = sim.finalize_stats();
    assert!(confirmed > 10_000, "only {confirmed} settled bits checked");
    assert!(stats.verdicts_carried > 0 && stats.ceiling_raises > 0, "{stats:?}");
    assert!(revived > 0, "no settled pair was ever inserted after a raise");
    assert_matches(&model_of(&sim), &sim, "hand case");
}

#[test]
fn with_a_massless_pdf_bucket_nothing_settles_and_no_row_is_allocated() {
    // Rule I.B caps at 1.0 for candidates in a bucket without mass, so
    // the largest vertical threshold is 1 and no hash is above any
    // node's ceiling: the regime runs (shared noise, verdict bits) and
    // has nothing to keep.
    let mut sim = event_driven_sim(
        90,
        shared_noise(2),
        MaintenanceEngine::Serial,
        hashes::DEFAULT_HASH_BUDGET,
    );
    let mut model = model::Model::new(sim.trace().clone(), sim.config);
    let built = &sim.predicate;
    let pdf = built.pdf();
    let mut mass: Vec<f64> = (0..pdf.buckets()).map(|b| pdf.bucket_mass(b)).collect();
    mass[3] = 0.0;
    let holed = AvmemPredicate::new(
        built.epsilon(),
        built.n_star(),
        built.vertical_rule(),
        built.horizontal_rule(),
        AvailabilityPdf::from_bucket_mass(mass),
    );
    assert_eq!(holed.rebuild_memo().vertical_ceiling(), 1.0);
    sim.predicate = holed.clone();
    model.sim.predicate = holed;
    sim.warm_up(SimDuration::from_mins(30));
    model.advance_to(sim.now());
    let state = finalize_state(&sim);
    assert!(state.verdicts.iter().any(|row| !row.is_empty()), "no skip row either");
    assert!(state.ceiling.contains(&1.0), "no node discovered");
    assert!(state.ceiling.iter().all(|&c| c == 0.0 || c == 1.0));
    assert!(state.settled.iter().all(Vec::is_empty), "a settled row under a ceiling of 1");
    let stats = sim.finalize_stats();
    assert!(stats.discover_pruned > 0 && stats.memo_misses > 100, "{stats:?}");
    assert_eq!((stats.verdicts_carried, stats.ceiling_raises), (0, 0));
    assert!(sim.health_stats().mean_degree > 0.5, "no overlay built");
    assert_matches(&model, &sim, "massless bucket");
}

#[test]
fn a_hash_equal_to_the_ceiling_does_not_settle() {
    // `classify_hashed` inserts on `hash <= threshold`, so only a hash
    // strictly above the ceiling is out of reach. The flat baseline (rules
    // I.A + II.A at `d₁ = d₂ = p`) makes the boundary reachable: its one
    // threshold `p` is every node's
    // ceiling, and `p` can be set to the hash of a pair the run evaluates.
    // Shuffle views do not depend on the predicate, so a first run at
    // `p = 1`, which inserts whatever it evaluates, names those pairs.
    let run = |p: f64| {
        let mut sim = event_driven_sim(
            60,
            shared_noise(2),
            MaintenanceEngine::Serial,
            hashes::DEFAULT_HASH_BUDGET,
        );
        let mut model = model::Model::new(sim.trace().clone(), sim.config);
        let flat = AvmemPredicate::new(
            0.1,
            sim.n_star(),
            VerticalRule::Constant { d1: p },
            HorizontalRule::Constant { d2: p },
            sim.predicate.pdf().clone(),
        );
        sim.predicate = flat.clone();
        model.sim.predicate = flat;
        sim.warm_up(SimDuration::from_mins(10));
        (sim, model)
    };
    let id = |i: usize| NodeId::new(i as u64);
    let hash_of = |x: usize, y: usize| avmem_util::consistent_hash(id(x), id(y));
    let (everything, _) = run(1.0);
    let (x, y) = (0..60)
        .flat_map(|x| neighbor_ids(&everything, x).into_iter().map(move |y| (x, y)))
        .min_by(|&(ax, ay), &(bx, by)| {
            let off = |x, y| (hash_of(x, y) - 0.25).abs();
            off(ax, ay).total_cmp(&off(bx, by))
        })
        .expect("the run evaluated some pair");
    let p = hash_of(x, y);
    let (sim, mut model) = run(p);
    model.advance_to(sim.now());
    let state = finalize_state(&sim);
    assert_eq!(state.ceiling[x], p);
    assert!(neighbor_ids(&sim, x).contains(&y), "hash == p must insert ({x}, {y})");
    assert!(!bit_is_set(&state.settled[x], y), "({x}, {y}) settled at its ceiling");
    let settled = settled_pairs(&sim);
    assert!(settled.iter().any(|&(sx, _)| sx == x), "node {x} settled nothing");
    for (sx, sy) in settled {
        assert!(hash_of(sx, sy) > p && !neighbor_ids(&sim, sx).contains(&sy));
    }
    assert_matches(&model, &sim, "flat baseline at a pair's hash");
}

#[test]
fn a_fixed_epoch_allocates_no_settled_row() {
    // Ground truth's one epoch never turns over, so a skip row is never
    // reset and there is nothing to carry: neither column is sized.
    let mut sim = event_driven_sim(
        100,
        OracleChoice::Exact,
        MaintenanceEngine::Serial,
        hashes::DEFAULT_HASH_BUDGET,
    );
    sim.warm_up(SimDuration::from_mins(10));
    let state = finalize_state(&sim);
    assert!(state.verdicts.iter().any(|row| !row.is_empty()), "no skip row either");
    assert!(state.settled.is_empty() && state.ceiling.is_empty());
    assert_eq!(sim.finalize_stats().verdicts_carried, 0);
}

#[test]
fn a_row_allocated_for_a_node_with_neighbors_carries_their_bits() {
    // Lists built before any row exists: a converged rebuild, then
    // the same simulation continues event-driven. Each node's first
    // discovery allocates its row and must mark the neighbors it
    // already has — a converged list is ~all of them out of view.
    let mut sim = event_driven_sim(
        100,
        OracleChoice::Exact,
        MaintenanceEngine::Serial,
        hashes::DEFAULT_HASH_BUDGET,
    );
    let event_driven = sim.config.maintenance;
    sim.config.maintenance = MaintenanceMode::Converged;
    sim.warm_up(SimDuration::from_mins(30));
    sim.config.maintenance = event_driven;
    let built: Vec<Vec<usize>> = (0..100).map(|x| neighbor_ids(&sim, x)).collect();
    assert!(built.iter().map(Vec::len).sum::<usize>() > 500, "vacuous overlay");
    sim.warm_up(SimDuration::from_secs(15));
    let (mut rows, mut out_of_view) = (0, 0);
    for (x, neighbors) in built.iter().enumerate() {
        let (stamp, row) = skip_row(&sim, x);
        if stamp == 0 {
            continue; // offline: never ticked
        }
        rows += 1;
        for &y in neighbors {
            assert!(bit_is_set(row, y), "row of node {x} lacks its neighbor {y}");
            let view = sim.shuffle_view(NodeId::new(x as u64));
            out_of_view += usize::from(!view.contains(NodeId::new(y as u64)));
        }
    }
    assert!(rows > 20 && out_of_view > 100, "{rows} rows, {out_of_view} out-of-view marks");
}

#[test]
fn a_verdict_row_is_allocated_at_the_nodes_first_stamped_discovery() {
    // Three uneven shards, so a row sized by the shard's length or a
    // bit indexed by the shard-local offset cannot pass for right.
    let engine = MaintenanceEngine::Sharded { threads: Some(3) };
    let mut sim = event_driven_sim(
        100,
        OracleChoice::Exact,
        engine,
        hashes::DEFAULT_HASH_BUDGET,
    );
    let words = 100usize.div_ceil(64);
    let rows_by_node = |sim: &AvmemSim| -> Vec<usize> {
        let maint = sim.maint.as_ref().expect("event-driven maintenance ran");
        let mut lens = vec![0; 100];
        for (s, scratch) in maint.scratches.iter().enumerate() {
            let state = &scratch.finalize;
            for (local, row) in state.verdicts.iter().enumerate() {
                // Allocated exactly when a stamped discovery ran.
                assert_eq!(row.is_empty(), state.seen_stamp[local] == 0);
                lens[maint.part.range(s).start + local] = row.len();
            }
        }
        lens
    };
    // A third of a period in: the stagger has let only some nodes tick.
    sim.warm_up(SimDuration::from_secs(5));
    let early = rows_by_node(&sim);
    let ticked = early.iter().filter(|&&len| len > 0).count();
    assert!(ticked > 0 && ticked < 100, "{ticked} of 100 nodes ticked");
    sim.warm_up(SimDuration::from_mins(10));
    let late = rows_by_node(&sim);
    assert!(late.iter().filter(|&&len| len > 0).count() > ticked);
    for (node, (&before, &after)) in early.iter().zip(&late).enumerate() {
        assert!(after == 0 || after == words, "node {node}: {after} words");
        assert!(before <= after, "node {node} lost its row");
    }
    // Offline nodes never tick: rows are per node that needed one.
    assert!(late.contains(&0), "every node allocated a row");
}

#[test]
fn beyond_the_budget_no_verdict_row_exists() {
    // Nor a settled row, whether or not the epoch moves: what settles is
    // carried in skip rows. The verdicts are marks in the views instead.
    let shared_noise = OracleChoice::NoisyShared {
        error: 0.05,
        staleness: SimDuration::from_mins(2),
    };
    for oracle in [OracleChoice::Exact, shared_noise] {
        let mut sim = event_driven_sim(100, oracle, MaintenanceEngine::Serial, 0);
        sim.warm_up(SimDuration::from_mins(10));
        let state = finalize_state(&sim);
        assert!(state.verdicts.is_empty() && state.settled.is_empty() && state.ceiling.is_empty());
        assert_eq!(state.seen_stamp.len(), 100);
        assert!((0..100).any(|x| marked_slots(&sim, x) > 0), "no view carries a mark");
        assert!(sim.finalize_stats().discover_pruned > 0);
        assert_eq!(sim.finalize_stats().verdicts_carried, 0);
    }
}

#[test]
fn per_querier_noise_memoizes_within_its_staleness_period() {
    // Per-querier answers are fixed for a staleness period, and every
    // finalize memo belongs to the querying node: thresholds are served
    // from the memo, discovery prunes, and the columns are the shard's.
    for budget in [hashes::DEFAULT_HASH_BUDGET, 0] {
        let mut sim = event_driven_sim(
            100,
            OracleChoice::paper_noise(),
            MaintenanceEngine::Serial,
            budget,
        );
        sim.warm_up(SimDuration::from_mins(10));
        let stats = sim.finalize_stats();
        assert!(stats.memo_hits > 0 && stats.discover_pruned > 0, "{stats:?}");
        let state = finalize_state(&sim);
        assert_eq!((state.seen_stamp.len(), state.horizontal.len()), (100, 100));
        assert_eq!(state.verdicts.len(), if budget == 0 { 0 } else { 100 });
        assert_matches(&model_of(&sim), &sim, "per-querier noise");
    }
}

#[test]
fn a_nodes_marks_go_at_its_first_discovery_past_a_turnover() {
    // Beyond the budget, under an epoch that turns every two minutes.
    // Every slot of every view is marked by hand; a node whose stamp then
    // moves must have cleared them all before it set its own — so none
    // sits on a neighbor (finalize tags neighbors, never marks them), and
    // under the current epoch each mark is a no-insert verdict.
    let mut sim = event_driven_sim(100, shared_noise(2), MaintenanceEngine::Serial, 0);
    sim.warm_up(SimDuration::from_mins(10));
    let before = finalize_state(&sim).seen_stamp.clone();
    for node in &mut sim.shuffles {
        (0..node.view().len()).for_each(|pos| node.mark_view(pos));
    }
    sim.warm_up(SimDuration::from_mins(1));
    let (stamps, current) = (&finalize_state(&sim).seen_stamp, stamp_at(&sim, sim.now()));
    let (mut crossed, mut kept) = (0, 0);
    for x in 0..100 {
        let view = sim.shuffles[x].view();
        let marked: Vec<usize> = view
            .ids()
            .enumerate()
            .filter(|&(pos, _)| view.is_marked(pos))
            .map(|(_, y)| y.raw() as usize)
            .collect();
        if stamps[x] == before[x] {
            kept += usize::from(!marked.is_empty());
            continue;
        }
        crossed += 1;
        for &y in &marked {
            let neighbor = sim.memberships[x].contains(NodeId::new(y as u64));
            assert!(!neighbor, "node {x}: a mark of the old epoch on neighbor {y}");
            if stamps[x] == current && sim.estimated_availability(x, x).is_some() {
                assert!(classifies_to_no_insert(&sim, x, y), "node {x}: Eq. 1 accepts marked {y}");
            }
        }
    }
    // Nodes that discovered nothing since still carry the hand marks.
    assert!(crossed > 20 && kept > 0, "{crossed} nodes crossed a turnover, {kept} kept marks");
}

#[test]
fn stamps_number_the_epochs_the_cohorts_meet() {
    // Two-minute epochs over 15 s ticks: the first cohort is stamp 1,
    // and the stamp rises by exactly one where the oracle's epoch moves
    // between cohorts — the same numbers on one shard and on four.
    let mut numbered = Vec::new();
    for threads in [1, 4] {
        let engine = MaintenanceEngine::Sharded {
            threads: Some(threads),
        };
        let mut sim = event_driven_sim(60, shared_noise(2), engine, hashes::DEFAULT_HASH_BUDGET);
        sim.warm_up(SimDuration::ZERO);
        let mut stamps = Vec::new();
        let mut last: Option<(u64, u32)> = None;
        while sim.now() < SimTime::ZERO + SimDuration::from_mins(15) {
            let t = run_next_cohort(&mut sim);
            let (epoch, stamp) = (sim.oracle.epoch(t), sim.maint.as_ref().unwrap().stamp);
            let expected = last.map_or(1, |(e, s)| s + u32::from(epoch != e));
            assert_eq!(stamp, expected, "{threads} threads, cohort at {t:?}");
            last = Some((epoch, stamp));
            stamps.push((t, stamp));
        }
        assert_eq!(last.map(|(_, s)| s), Some(8), "{threads} threads: 15 min of 2 min epochs");
        numbered.push(stamps);
    }
    assert_eq!(numbered[0], numbered[1], "stamps differ at 1 and 4 threads");
    // The number after `u32::MAX` is no stamp.
    let mut sim = event_driven_sim(20, shared_noise(2), MaintenanceEngine::Serial, 0);
    sim.warm_up(SimDuration::from_mins(1));
    let maint = sim.maint.as_mut().unwrap();
    maint.stamp = u32::MAX;
    assert_eq!(maint.stamp(maint.epoch), u32::MAX);
    let next = maint.epoch + 1;
    let overflow = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| maint.stamp(next)));
    assert!(overflow.is_err(), "a stamp past u32::MAX");
}

#[test]
fn a_zero_maintenance_period_is_refused() {
    // The wheel would re-arm the same instant forever; `new` says so.
    let (zero, minute) = (SimDuration::ZERO, SimDuration::from_mins(1));
    for (protocol_period, refresh_period) in [(zero, minute), (minute, zero)] {
        let mut cfg = SimConfig::paper_default(1);
        cfg.maintenance = MaintenanceMode::EventDriven {
            protocol_period,
            refresh_period,
        };
        let trace = OvernetModel::default().hosts(20).days(1).generate(1);
        let built = std::panic::catch_unwind(|| AvmemSim::new(trace, cfg));
        assert!(built.is_err(), "{protocol_period:?} / {refresh_period:?} accepted");
    }
}

#[test]
fn cohorts_on_either_side_of_the_inline_bound_match_the_model() {
    // The other differentials run 40–150 hosts, whose cohorts all stay
    // below `INLINE_COHORT_EVENTS` and therefore on the calling
    // thread. Here a tick slot fires every second and a refresh slot
    // every other second: at 2 600 hosts a cohort is ~162 events
    // without a refresh slot and ~325 with one — the run alternates
    // between inline cohorts and cohorts fanned out to the pool, and
    // must land on the model's state all the same.
    let trace = OvernetModel::default().hosts(2600).days(1).generate(37);
    let mut cfg = SimConfig::paper_default(16);
    cfg.maintenance = MaintenanceMode::EventDriven {
        protocol_period: SimDuration::from_secs(16),
        refresh_period: SimDuration::from_secs(32),
    };
    cfg.engine = MaintenanceEngine::Sharded { threads: Some(3) };
    let mut sim = AvmemSim::new(trace, cfg);
    let (mut inline, mut pooled) = (0, 0);
    let end = SimTime::ZERO + SimDuration::from_secs(40);
    sim.warm_up(SimDuration::ZERO);
    while sim.next_maintenance_at().is_some_and(|t| t <= end) {
        let t = run_next_cohort(&mut sim);
        let events = (0..2600)
            .flat_map(|i| [(STREAM_STAGGER_TICK, i), (STREAM_STAGGER_REFRESH, i)])
            .filter(|&(stream, i)| fires_at(&sim, stream, i, t))
            .count();
        if events < INLINE_COHORT_EVENTS {
            inline += 1;
        } else {
            pooled += 1;
        }
    }
    assert!(inline >= 5 && pooled >= 5, "{inline} inline cohorts, {pooled} pooled");
    assert_matches(&model_of(&sim), &sim, "2 600 hosts, 3 threads");
}

#[test]
fn serial_is_one_shard_on_one_thread() {
    // `Serial` is a spelling, not a path: it ends where `Sharded { 1 }`
    // ends, having done and skipped exactly the same work on the way.
    let oracle = OracleChoice::NoisyShared {
        error: 0.05,
        staleness: SimDuration::from_mins(5),
    };
    let run = |engine| {
        let mut sim = event_driven_sim(90, oracle, engine, hashes::DEFAULT_HASH_BUDGET);
        sim.warm_up(SimDuration::from_mins(45));
        sim
    };
    let serial = run(MaintenanceEngine::Serial);
    let one_by_one = run(MaintenanceEngine::Sharded { threads: Some(1) });
    assert!(serial.finalize_stats().discover_pruned > 0, "nothing was pruned");
    assert_eq!(serial.finalize_stats(), one_by_one.finalize_stats());
    for i in 0..90 {
        let id = NodeId::new(i as u64);
        assert_eq!(serial.membership(id), one_by_one.membership(id), "node {id}");
        assert_eq!(serial.shuffle_view(id), one_by_one.shuffle_view(id), "node {id}");
    }
}

#[test]
fn more_shards_than_hosts_run_one_host_a_shard_like_one_shard() {
    // 1 000 threads asked of 30 hosts: the partition clamps to 30
    // shards, so the barriers walk 30² shard pairs a cohort instead of
    // 1 000², and the hour ends where one shard ends it. Cohorts of 30
    // hosts run inline, so no thread is started.
    let run = |engine| {
        let trace = OvernetModel::default().hosts(30).days(1).generate(47);
        let mut cfg = SimConfig::paper_default(19);
        cfg.maintenance = MaintenanceMode::paper_event_driven();
        cfg.engine = engine;
        let mut sim = AvmemSim::new(trace, cfg);
        sim.warm_up(SimDuration::from_hours(1));
        sim
    };
    let serial = run(MaintenanceEngine::Serial);
    let wide = run(MaintenanceEngine::Sharded {
        threads: Some(1_000),
    });
    assert_eq!(wide.maint.as_ref().expect("maintenance ran").part.shards(), 30);
    assert!(serial.health_stats().mean_degree > 0.0, "vacuous: no lists");
    for i in 0..30 {
        let id = NodeId::new(i);
        assert_eq!(serial.membership(id), wide.membership(id), "node {id}");
    }
}

#[test]
fn view_ages_stay_far_below_their_ceiling_over_a_simulated_day() {
    // Ages are 15 bits beside the mark and saturate at `View::AGE` =
    // 32 767 periods: a documented limit, not one a run approaches,
    // because every tick ships the view's oldest entry away and every
    // merge replaces what was sent. An Overnet-shaped day on the paper's
    // periods, beyond the hash budget so that finalize keeps its
    // no-insert verdicts as view marks: sampled hourly, no age reaches
    // 1 000 periods and no mark shows in an age.
    let trace = OvernetModel::default().hosts(300).days(1).generate(43);
    let mut cfg = SimConfig::paper_default(17);
    cfg.maintenance = MaintenanceMode::paper_event_driven();
    cfg.hash_budget = 0;
    let mut sim = AvmemSim::new(trace, cfg);
    let (mut oldest, mut marked) = (0, 0);
    for hour in 1..=24 {
        sim.warm_up(SimDuration::from_hours(1));
        for (x, node) in sim.shuffles.iter().enumerate() {
            let view = node.view();
            let mut unmarked = view.clone();
            unmarked.clear_marks();
            assert!(
                view.iter().eq(unmarked.iter()),
                "hour {hour}, node {x}: a mark shows in an age"
            );
            marked += view.marks().filter(|&mark| mark).count();
            oldest = oldest.max(view.iter().map(|e| e.age).max().unwrap_or(0));
        }
    }
    assert!(
        marked > 0,
        "no view slot was ever marked: the marks did not run"
    );
    // 18 periods at this seed.
    assert!(oldest < 1_000, "a view age reached {oldest} periods");
}

/// 150 hosts over the paper's noisy oracle, warmed up for a day: the
/// divergent estimates §4.1's receiver check has to tolerate.
fn noisy_sim(seed: u64) -> AvmemSim {
    let trace = OvernetModel::default().hosts(150).days(1).generate(17);
    let mut config = SimConfig::paper_default(seed);
    config.oracle = OracleChoice::paper_noise();
    let mut sim = AvmemSim::new(trace, config);
    sim.warm_up(SimDuration::from_hours(24));
    sim
}

fn cushion(cushion: f64) -> AdmissionPolicy {
    AdmissionPolicy::with_cushion(cushion)
}

#[test]
fn flooding_acceptance_is_bounded() {
    let sim = noisy_sim(1);
    let series = flooding_acceptance(&sim.world(), cushion(0.0), 10);
    // Paper: fewer than 10% of non-neighbors accept; allow slack for
    // the small population.
    assert!(
        series.max_value() < 0.25,
        "flooding acceptance {} too high",
        series.max_value()
    );
}

#[test]
fn cushion_increases_attack_surface_but_modestly() {
    let sim = noisy_sim(2);
    let strict = flooding_acceptance(&sim.world(), cushion(0.0), 10);
    let relaxed = flooding_acceptance(&sim.world(), cushion(0.1), 10);
    assert!(relaxed.mean_value() >= strict.mean_value());
}

#[test]
fn rejections_happen_under_noise_and_cushion_reduces_them() {
    let sim = noisy_sim(3);
    let strict = legitimate_rejection(&sim.world(), cushion(0.0), 10);
    let relaxed = legitimate_rejection(&sim.world(), cushion(0.1), 10);
    assert!(
        strict.mean_value() > 0.0,
        "noise should cause some rejections"
    );
    assert!(
        relaxed.mean_value() < strict.mean_value(),
        "cushion should reduce rejections: {} vs {}",
        relaxed.mean_value(),
        strict.mean_value()
    );
}

#[test]
fn exact_oracle_has_zero_rejections_and_zero_attack_surface() {
    let trace = OvernetModel::default().hosts(100).days(1).generate(19);
    let mut sim = AvmemSim::new(trace, SimConfig::paper_default(4));
    sim.warm_up(SimDuration::from_hours(24));
    let rejection = legitimate_rejection(&sim.world(), cushion(0.0), 10);
    assert_eq!(rejection.mean_value(), 0.0);
    let flooding = flooding_acceptance(&sim.world(), cushion(0.0), 10);
    assert_eq!(flooding.mean_value(), 0.0);
}

#[test]
fn the_world_admits_by_the_rule_under_the_receivers_estimates() {
    // `world().admits` against `AdmissionPolicy::verdict` over the
    // simulation's own predicate and oracle, for every ordered pair of
    // online nodes, at two instants and two cushions.
    let mut sim = noisy_sim(5);
    let (mut checked, mut unverifiable) = (0usize, 0usize);
    for _ in 0..2 {
        {
            let world = sim.world();
            let online = sim.online().online();
            for policy in [cushion(0.0), cushion(0.1)] {
                for &s in online {
                    for &r in online {
                        let (s, r) = (NodeId::new(u64::from(s)), NodeId::new(u64::from(r)));
                        let rule = policy.verdict(sim.predicate(), sim.oracle(), s, r, sim.now());
                        assert_eq!(world.admits(s, r, policy), rule, "{s} → {r}");
                        checked += 1;
                        unverifiable += usize::from(rule.is_none());
                    }
                }
            }
        }
        sim.warm_up(SimDuration::from_mins(50));
    }
    assert!(checked > 1_000, "only {checked} pairs checked");
    assert!(unverifiable < checked, "no pair was verifiable");
}
