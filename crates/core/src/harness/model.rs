//! The maintenance model: event-driven maintenance the slow, obvious way,
//! as the oracle the harness's tests compare against.
//!
//! [`Model`] advances an [`AvmemSim`]'s own state — so the two sides of a
//! differential compare through the same accessors — but shares none of
//! the cohort machinery: one global [`Engine`] heap holds every node's
//! tick and refresh and every popped event is re-queued a period later;
//! a cohort's ticking nodes go in ascending id through the shuffle entry
//! points with a fresh [`EntryPool`] per call; requests are sorted by
//! `(responder, initiator)`; and discovery and refresh evaluate Eq. 1
//! pair at a time ([`Membership::discover`] / [`Membership::refresh`]:
//! one `oracle.estimate` and one `consistent_hash` per candidate). No
//! shards, no wheel, no pooled buffers, no memo, no verdict memory (per
//! epoch or settled), no batching.
//!
//! It lives in the crate because it draws the same keyed random streams
//! as the harness (the stagger offsets and the `STREAM_*` tags) and
//! writes the simulation's private state.

use avmem_avmon::AvailabilityOracle;
use avmem_shuffle::{EntryPool, ViewEntry};
use avmem_sim::{Engine, SimTime};
use avmem_trace::ChurnTrace;
use avmem_util::{NodeId, SplitMix64};

use super::cohort::BOOTSTRAP_SEEDS;
use super::schedule::{stagger_offset, MaintKind};
use super::{
    AvmemSim, MaintenanceMode, SimConfig, STREAM_BOOTSTRAP, STREAM_SHUFFLE, STREAM_STAGGER_REFRESH,
    STREAM_STAGGER_TICK,
};
use crate::predicate::NodeInfo;

/// A simulation advanced by the model instead of the harness.
pub(super) struct Model {
    /// The state the model advances; its own maintenance never runs.
    pub(super) sim: AvmemSim,
    /// Every node's next tick and refresh, built at the first advance
    /// (from the clock as it stands then, like the harness's schedule).
    heap: Option<Engine<(MaintKind, usize)>>,
}

impl Model {
    pub(super) fn new(trace: ChurnTrace, config: SimConfig) -> Self {
        Model {
            sim: AvmemSim::new(trace, config),
            heap: None,
        }
    }

    /// Runs every cohort due at or before `target`, then moves the clock
    /// there.
    pub(super) fn advance_to(&mut self, target: SimTime) {
        let sim = &mut self.sim;
        let MaintenanceMode::EventDriven {
            protocol_period,
            refresh_period,
        } = sim.config.maintenance
        else {
            panic!("the model runs event-driven maintenance only");
        };
        let period_of = |kind| match kind {
            MaintKind::Tick => protocol_period,
            MaintKind::Refresh => refresh_period,
        };
        let seed = sim.config.seed;
        let n = sim.trace.num_nodes();
        let start = sim.now;
        let heap = self.heap.get_or_insert_with(|| {
            let mut heap = Engine::new();
            for i in 0..n {
                for (kind, stream) in [
                    (MaintKind::Tick, STREAM_STAGGER_TICK),
                    (MaintKind::Refresh, STREAM_STAGGER_REFRESH),
                ] {
                    let offset = stagger_offset(seed, stream, i, start, period_of(kind));
                    heap.schedule(start + offset, (kind, i));
                }
            }
            heap
        });
        let mut cohort = Vec::new();
        while let Some(t) = heap.pop_batch_until(target, &mut cohort) {
            for &(kind, i) in &cohort {
                heap.schedule(t + period_of(kind), (kind, i));
            }
            sim.oracle.advance(&sim.trace, t);
            sim.online.refresh(&sim.trace, t);
            sim.now = sim.now.max(t);
            // Only nodes online at `t` act, in ascending id.
            let acting = |kind| -> Vec<usize> {
                let mut nodes: Vec<usize> = cohort
                    .iter()
                    .filter(|&&(k, i)| k == kind && sim.trace.is_online(i, t))
                    .map(|&(_, i)| i)
                    .collect();
                nodes.sort_unstable();
                nodes
            };
            let (ticks, refreshes) = (acting(MaintKind::Tick), acting(MaintKind::Refresh));

            // Shuffle: every ticking node proposes against its own view…
            let mut requests: Vec<(usize, usize, Vec<ViewEntry>)> = Vec::new();
            let mut timeouts = Vec::new();
            for &i in &ticks {
                let node = &mut sim.shuffles[i];
                let key = |stream| [seed, stream, i as u64, t.as_millis()];
                if node.view().is_empty() {
                    let mut rng = SplitMix64::keyed(&key(STREAM_BOOTSTRAP));
                    let mut seeds = Vec::new();
                    sim.online.sample_excluding(&mut rng, BOOTSTRAP_SEEDS, i, &mut seeds);
                    node.bootstrap(seeds.iter().map(|&j| NodeId::new(j as u64)));
                }
                let mut rng = SplitMix64::keyed(&key(STREAM_SHUFFLE));
                let Some(proposal) = node.propose_with(&mut rng, &mut EntryPool::new()) else {
                    continue;
                };
                node.apply_with(&proposal, &mut EntryPool::new());
                let (target, request) = proposal.into_request();
                let responder = target.raw() as usize;
                if responder < n && sim.trace.is_online(responder, t) {
                    requests.push((responder, i, request));
                } else {
                    timeouts.push((i, target));
                }
            }
            // …responders answer in (responder, initiator) order, and then
            // every initiator hears back or times out.
            requests.sort_by_key(|&(responder, initiator, _)| (responder, initiator));
            let replies: Vec<(usize, Vec<ViewEntry>)> = requests
                .into_iter()
                .map(|(responder, initiator, request)| {
                    let reply =
                        sim.shuffles[responder].handle_request_with(request, &mut EntryPool::new());
                    (initiator, reply)
                })
                .collect();
            for (initiator, reply) in replies {
                sim.shuffles[initiator].handle_reply_with(reply, &mut EntryPool::new());
            }
            for (initiator, target) in timeouts {
                sim.shuffles[initiator].handle_timeout_with(target, &mut EntryPool::new());
            }

            // Discovery over the post-shuffle views, then refresh: a node
            // due for both discovers first. A node the oracle cannot see
            // does neither.
            let own = |i: usize| {
                let id = NodeId::new(i as u64);
                Some(NodeInfo::new(id, sim.oracle.estimate(id, id, t)?))
            };
            for &i in &ticks {
                if let Some(own) = own(i) {
                    let view = sim.shuffles[i].view().ids();
                    sim.memberships[i].discover(own, view, &sim.oracle, &sim.predicate, t);
                }
            }
            for &i in &refreshes {
                if let Some(own) = own(i) {
                    sim.memberships[i].refresh(own, &sim.oracle, &sim.predicate, t);
                }
            }
        }
        sim.oracle.advance(&sim.trace, target);
        sim.online.refresh(&sim.trace, target);
        sim.now = target;
    }
}

/// The run `sim` has made so far — from time zero, on any engine, in any
/// chopping — made by the model.
pub(super) fn model_of(sim: &AvmemSim) -> Model {
    let mut model = Model::new(sim.trace().clone(), sim.config);
    model.advance_to(sim.now());
    model
}

/// Full-state equality with the model: every node's lists (timestamps
/// and cached availabilities included) and shuffle view.
pub(super) fn assert_matches(model: &Model, sim: &AvmemSim, label: &str) {
    assert_eq!(model.sim.now(), sim.now(), "{label}: clocks diverged");
    for i in 0..sim.trace().num_nodes() {
        let id = NodeId::new(i as u64);
        assert_eq!(model.sim.membership(id), sim.membership(id), "{label}: lists of node {i}");
        assert_eq!(model.sim.shuffle_view(id), sim.shuffle_view(id), "{label}: view of node {i}");
    }
}

/// The differentials that hold the harness to the model; the hand cases
/// of `harness::tests` end on [`assert_matches`] too.
mod tests {
    use avmem_sim::SimDuration;
    use avmem_trace::OvernetModel;

    use super::super::{MaintenanceEngine, OracleChoice};
    use super::*;

    fn sharded(threads: usize) -> MaintenanceEngine {
        MaintenanceEngine::Sharded {
            threads: Some(threads),
        }
    }

    fn fast_periods() -> MaintenanceMode {
        MaintenanceMode::EventDriven {
            protocol_period: SimDuration::from_secs(15),
            refresh_period: SimDuration::from_mins(3),
        }
    }

    #[test]
    fn sharded_engine_matches_the_model_in_unit_scale() {
        // One awkward shard count over a population it does not divide.
        let trace = OvernetModel::default().hosts(75).days(1).generate(29);
        let mut cfg = SimConfig::paper_default(12);
        cfg.maintenance = MaintenanceMode::paper_event_driven();
        cfg.engine = sharded(3);
        let mut sim = AvmemSim::new(trace, cfg);
        sim.warm_up(SimDuration::from_hours(2));
        assert!(sim.health_stats().mean_degree > 0.5, "no overlay built");
        assert_matches(&model_of(&sim), &sim, "75 hosts, 3 threads");
    }

    #[test]
    fn every_engine_and_regime_matches_the_model_across_oracles() {
        // The model evaluates Eq. 1 pair at a time, with no memory of any
        // kind; the harness (epoch-memoized thresholds, batched pair hashes,
        // batched estimates, verdict memory, refresh short-circuiting) must
        // be bit-identical to it under every oracle fidelity — including
        // per-querier noise, whose every memo (the querier's own) lives
        // for a staleness period —, on one shard and on several, and in
        // both no-insert regimes: the verdict bits (populations up to
        // `PAIR_MEMORY_HOSTS`) and the view-slot marks (above it; here
        // through `AvmemSim::with_view_marks`).
        let shared_noise = OracleChoice::NoisyShared {
            error: 0.05,
            staleness: SimDuration::from_mins(20),
        };
        let avmon = OracleChoice::Avmon {
            config: avmem_avmon::AvmonConfig::default(),
        };
        let paper = MaintenanceMode::paper_event_driven();
        // (label, oracle, periods, hours of maintenance, whether the
        // oracle's epoch turns over). The three cells whose epoch does cross
        // three turnovers or more: shared noise re-draws at 20, 40 and 60
        // minutes (the last cohort of the hour runs at the third),
        // per-querier noise six times in two hours, AVMON processes 18
        // trace slots.
        let cells = [
            ("exact", OracleChoice::Exact, paper, 2, false),
            ("shared noise", shared_noise, fast_periods(), 1, true),
            ("per-querier noise", OracleChoice::paper_noise(), paper, 2, true),
            ("avmon", avmon, paper, 6, true),
        ];
        for (label, oracle, maintenance, hours, turns_over) in cells {
            let trace = OvernetModel::default().hosts(110).days(1).generate(19);
            let mut cfg = SimConfig::paper_default(19);
            cfg.oracle = oracle;
            cfg.maintenance = maintenance;
            let mut model = Model::new(trace.clone(), cfg);
            model.advance_to(SimTime::ZERO + SimDuration::from_hours(hours));
            let degree = model.sim.health_stats().mean_degree;
            assert!(degree > 0.1, "{label}: the model built no overlay");
            let last_epoch = model.sim.oracle.epoch(model.sim.now());
            assert_eq!(last_epoch >= 3, turns_over, "{label}: {last_epoch}");
            for verdict_memory in [true, false] {
                let mut serial_stats = None;
                for engine in [MaintenanceEngine::Serial, sharded(4)] {
                    let mut sim = AvmemSim::new(trace.clone(), SimConfig { engine, ..cfg });
                    if !verdict_memory {
                        sim = sim.with_view_marks();
                    }
                    sim.warm_up(SimDuration::from_hours(hours));
                    let label = format!("{label}, {engine:?}, verdict memory: {verdict_memory}");
                    assert_matches(&model, &sim, &label);
                    // The counters are a function of the run, not of its
                    // sharding — the two the settled rows feed included —
                    // and a verdict outlives its epoch exactly where skip
                    // rows exist and are reset.
                    let stats = sim.finalize_stats();
                    assert_eq!(*serial_stats.get_or_insert(stats), stats, "{label}: counters");
                    assert_eq!(
                        stats.verdicts_carried > 0,
                        verdict_memory && turns_over,
                        "{label}: {} verdicts carried, {} ceiling raises",
                        stats.verdicts_carried,
                        stats.ceiling_raises
                    );
                    if !label.starts_with("shared noise") {
                        continue;
                    }
                    // How much work finalize skipped to get to that state is
                    // pinned too, on the cell whose epochs both prune
                    // candidates and expire. The discovery counters are pinned
                    // per no-insert regime, and in both `discover_pruned`
                    // counts every view candidate dropped without an estimate:
                    // the 29 854 neighbor hits of this run plus the no-insert
                    // repeats, so pruned + estimated — the candidates the
                    // views offered, plus the refresh estimates both regimes
                    // share — is the same either way (asserted below).
                    // With view marks a verdict is a mark in its view
                    // slot, and lives while its id stays in that slot: an id
                    // that leaves and comes back within the epoch is
                    // estimated again. The skip row, which outlives a pair's
                    // stay in the view, estimates a seventh of that. Its pair
                    // was (89 572, 5 429) while every verdict died with its
                    // epoch: 203 candidates have since moved from estimated
                    // to pruned, the repeats of pairs whose hash is above
                    // their node's threshold ceiling and so stayed decided
                    // across a turnover (few here: at 110 hosts no ceiling is
                    // below 0.63, the largest vertical threshold, and two
                    // nodes in five sit at the horizontal threshold's cap of
                    // 1, which nothing exceeds).
                    // A filter that probes differently — a stale tag, bit or
                    // mark read as current, an unsettled bit that survives its
                    // epoch, a neighbor left untagged — moves `discover_pruned`
                    // or `batched_estimates` even where the memberships come
                    // out equal.
                    assert_eq!(
                        (stats.memo_hits, stats.memo_misses),
                        (10_093, 126),
                        "{label}: threshold memo counters"
                    );
                    assert_eq!(
                        (stats.refresh_skipped, stats.refresh_evaluated),
                        (714, 76),
                        "{label}: refresh counters"
                    );
                    assert_eq!(
                        (stats.discover_pruned, stats.batched_estimates),
                        if verdict_memory {
                            (89_775, 5_226)
                        } else {
                            (57_038, 37_963)
                        },
                        "{label}: discovery filter counters"
                    );
                    assert_eq!(
                        stats.discover_pruned + stats.batched_estimates,
                        95_001,
                        "{label}: candidates the views offered"
                    );
                }
            }
        }
    }

    #[test]
    fn chopped_advances_of_the_harness_and_the_model_agree() {
        // Both calendars persist across advances — the wheel re-arms its
        // slots, the model's heap keeps its re-queued events — so neither
        // side may care how the timeline is chopped: deadlines between
        // cohorts, on a cohort's timestamp, a second apart, repeated.
        let trace = OvernetModel::default().hosts(100).days(1).generate(47);
        let mut cfg = SimConfig::paper_default(20);
        cfg.maintenance = fast_periods();
        cfg.engine = sharded(4);
        let mut sim = AvmemSim::new(trace.clone(), cfg);
        let mut model = Model::new(trace, cfg);
        let at = |secs: u64| SimTime::ZERO + SimDuration::from_secs(secs);
        for (k, &secs) in [7, 7, 8, 100, 1_000, 1_000, 1_001, 2_400].iter().enumerate() {
            sim.advance_to(at(secs));
            // The model takes every other deadline, and one of its own.
            if k % 2 == 1 {
                model.advance_to(at(secs));
            }
            if secs == 100 {
                model.advance_to(sim.next_maintenance_at().expect("schedule built"));
            }
        }
        assert!(sim.health_stats().mean_degree > 0.5, "no overlay built");
        assert_matches(&model, &sim, "chopped advances");
    }
}
