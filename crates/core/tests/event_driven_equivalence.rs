//! Pins event-driven maintenance across thread counts.
//!
//! The contract under test (see `AvmemSim::run_event_driven`): a
//! maintenance run's final state — every node's membership lists (with
//! their cached availabilities and stamps) and every node's shuffle view
//! — is a function of `(trace, config, duration)` only. The thread count,
//! which is also the shard count, may not perturb a single bit, for any
//! maintenance period and any oracle fidelity. Every cell compares
//! against one shard on one thread (`MaintenanceEngine::Serial`); that
//! baseline is in turn pinned against the test-only model inside the
//! crate (`cargo test -p avmem --lib harness::`).

use avmem::harness::{
    AvmemSim, FinalizeStats, MaintenanceEngine, MaintenanceMode, OracleChoice, PairStoreStats,
    SimConfig,
};
use avmem_sim::SimDuration;
use avmem_trace::{ChurnTrace, OvernetModel};
use avmem_util::NodeId;
use proptest::prelude::*;

/// Thread counts, and so shard counts, every cell sweeps. 1 has nothing
/// to exchange, the rest exercise cross-shard batch exchange at
/// increasing fan-out (8 shards over ~100 nodes forces small, uneven
/// slices).
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn trace(hosts: usize, seed: u64) -> ChurnTrace {
    OvernetModel::default().hosts(hosts).days(1).generate(seed)
}

fn config(
    seed: u64,
    oracle: OracleChoice,
    maintenance: MaintenanceMode,
    engine: MaintenanceEngine,
) -> SimConfig {
    let mut config = SimConfig::paper_default(seed);
    config.oracle = oracle;
    config.maintenance = maintenance;
    config.engine = engine;
    config
}

fn sharded(threads: usize) -> MaintenanceEngine {
    MaintenanceEngine::Sharded {
        threads: Some(threads),
    }
}

/// Full-state equality: memberships (lists, cached availabilities and
/// stamps) and shuffle views.
fn assert_state_equal(reference: &AvmemSim, candidate: &AvmemSim, label: &str) {
    for i in 0..reference.trace().num_nodes() {
        let id = NodeId::new(i as u64);
        assert_eq!(
            reference.membership(id),
            candidate.membership(id),
            "{label}: membership of node {i} diverged"
        );
        assert_eq!(
            reference.shuffle_view(id),
            candidate.shuffle_view(id),
            "{label}: shuffle view of node {i} diverged"
        );
    }
}

/// Runs one (periods, oracle) cell: the one-thread baseline vs every
/// thread count over `hours` of maintenance. `min_degree` guards against
/// vacuous equality (empty == empty).
fn check_cell(
    hosts: usize,
    seed: u64,
    oracle: OracleChoice,
    maintenance: MaintenanceMode,
    hours: u64,
    min_degree: f64,
    label: &str,
) {
    let trace = trace(hosts, seed);
    let mut reference = AvmemSim::new(
        trace.clone(),
        config(seed, oracle, maintenance, MaintenanceEngine::Serial),
    );
    reference.warm_up(SimDuration::from_hours(hours));
    // Guard against vacuous equality: maintenance must have built state.
    assert!(
        reference.health_stats().mean_degree > min_degree,
        "{label}: reference run built no overlay"
    );

    for threads in THREAD_COUNTS {
        let mut candidate = AvmemSim::new(
            trace.clone(),
            config(seed, oracle, maintenance, sharded(threads)),
        );
        candidate.warm_up(SimDuration::from_hours(hours));
        assert_state_equal(&reference, &candidate, &format!("{label}, {threads} threads"));
    }
}

fn fast_periods() -> MaintenanceMode {
    MaintenanceMode::EventDriven {
        protocol_period: SimDuration::from_secs(15),
        refresh_period: SimDuration::from_mins(3),
    }
}

#[test]
fn sharded_matches_serial_paper_periods_exact_oracle() {
    check_cell(
        150,
        7,
        OracleChoice::Exact,
        MaintenanceMode::paper_event_driven(),
        2,
        0.5,
        "paper periods / exact oracle",
    );
}

#[test]
fn sharded_matches_serial_paper_periods_noisy_oracle() {
    // Per-querier noise: divergent caches are the worst case for any
    // ordering bug — every (querier, target, epoch) triple draws its own
    // perturbation, so a single out-of-order estimate shows up.
    check_cell(
        150,
        8,
        OracleChoice::paper_noise(),
        MaintenanceMode::paper_event_driven(),
        2,
        0.5,
        "paper periods / per-querier noisy oracle",
    );
}

#[test]
fn sharded_matches_serial_fast_periods_exact_oracle() {
    check_cell(
        120,
        9,
        OracleChoice::Exact,
        fast_periods(),
        1,
        0.5,
        "fast periods / exact oracle",
    );
}

#[test]
fn pooled_commit_buffers_match_serial_across_full_matrix() {
    // Commit-path stress leg: 15s protocol periods maximise shuffle
    // traffic, so the counting-bucket placement and the recycled cohort
    // buffers (outboxes, transpose scratch, timeout notices) are
    // exercised thousands of times per run. Pinned across every thread
    // count: any stale byte leaking out of a pooled buffer, or any
    // ordering drift in the bucketed commit, shows as a difference
    // between shardings (their buffers and chains differ).
    check_cell(
        120,
        23,
        OracleChoice::Exact,
        fast_periods(),
        2,
        0.5,
        "pooled counting-bucket commit",
    );
}

#[test]
fn sharded_matches_serial_fast_periods_shared_noise_oracle() {
    check_cell(
        120,
        10,
        OracleChoice::NoisyShared {
            error: 0.05,
            staleness: SimDuration::from_mins(20),
        },
        fast_periods(),
        1,
        0.5,
        "fast periods / shared-noise oracle",
    );
}

#[test]
fn sharded_matches_serial_with_full_avmon_service() {
    // The paper's actual monitoring service: AVMON's ping-based
    // estimates evolve as the oracle advances (once per cohort, outside
    // the parallel phases) and are read concurrently by finalize
    // workers. Estimates take hours to appear, so this cell warms
    // longer and accepts a sparser overlay than the instant oracles.
    check_cell(
        100,
        13,
        OracleChoice::Avmon {
            config: avmem_avmon::AvmonConfig::default(),
        },
        MaintenanceMode::paper_event_driven(),
        10,
        0.1,
        "paper periods / full AVMON service",
    );
}

#[test]
fn hash_store_modes_agree_across_engines() {
    // The pair-hash budget selects finalize's no-insert memory — one
    // verdict bit per pair where `8·N²` fits it, a mark bit per view slot
    // where it does not — and neither may perturb a bit: every (budget,
    // engine) combination must land on the baseline's state. 120 hosts: the default budget fits (8·N² ≈ 113
    // KiB), 8 KiB does not. Either way finalize hashes its candidate
    // lists itself and leaves the pair-hash store untouched. How much work a regime
    // skips is a property of the run, not of its sharding: the counters
    // must match the baseline's, and the verdict memory — which
    // still knows a pair after it left the view and came back — must
    // prune strictly more and estimate strictly fewer.
    let trace = trace(120, 17);
    let maintenance = fast_periods();
    let budgets: &[(&str, usize)] = &[
        ("verdict bits", avmem::harness::DEFAULT_HASH_BUDGET),
        ("view list", 8 << 10),
    ];
    let engines: Vec<MaintenanceEngine> = std::iter::once(MaintenanceEngine::Serial)
        .chain(THREAD_COUNTS.map(sharded))
        .collect();
    let mut reference = AvmemSim::new(
        trace.clone(),
        config(17, OracleChoice::Exact, maintenance, MaintenanceEngine::Serial),
    );
    reference.warm_up(SimDuration::from_hours(1));
    assert!(
        reference.health_stats().mean_degree > 0.5,
        "hash-store sweep: reference run built no overlay"
    );
    let mut per_budget = Vec::new();
    for &(mode, budget) in budgets {
        let mut serial_stats = None;
        for &engine in &engines {
            let mut cfg = config(17, OracleChoice::Exact, maintenance, engine);
            cfg.hash_budget = budget;
            let mut candidate = AvmemSim::new(trace.clone(), cfg);
            candidate.warm_up(SimDuration::from_hours(1));
            let label = format!("{mode} ({budget} B), {engine:?}");
            assert_state_equal(&reference, &candidate, &label);
            assert_eq!(
                candidate.hash_store_stats(),
                PairStoreStats::default(),
                "{label}: event-driven maintenance touched the pair-hash store"
            );
            let stats = candidate.finalize_stats();
            assert_eq!(
                *serial_stats.get_or_insert(stats),
                stats,
                "{label}: finalize counters depend on the sharding"
            );
        }
        per_budget.push(serial_stats.expect("at least one engine ran"));
    }
    let (bits, list) = (per_budget[0], per_budget[1]);
    assert!(
        bits.discover_pruned > list.discover_pruned
            && bits.batched_estimates < list.batched_estimates,
        "verdict bits must skip more than the view list: {bits:?} vs {list:?}"
    );
    // Only the discovery filter differs between the regimes.
    assert_eq!(without_discovery_counters(bits), without_discovery_counters(list));
}

/// `stats` with the counters the no-insert regime legitimately moves —
/// candidates pruned, the estimates (one pair hash each) the unpruned
/// ones cost, and the settled verdicts only skip rows carry — zeroed, for
/// comparing everything else across regimes.
fn without_discovery_counters(mut stats: FinalizeStats) -> FinalizeStats {
    stats.discover_pruned = 0;
    stats.batched_estimates = 0;
    stats.verdicts_carried = 0;
    stats.ceiling_raises = 0;
    stats
}

/// One case of the regime differential below: `hosts`, the seed shared
/// by trace and protocol, and an oracle whose epochs turn over mid-run.
fn regime_case() -> impl Strategy<Value = (usize, u64, (OracleChoice, MaintenanceMode, u64))> {
    let oracle = prop_oneof![
        // Shared noise re-drawn every 2–6 minutes under 15 s ticks: a
        // 40-minute run crosses 6–20 epochs, each long enough for pairs
        // to leave a view and come back.
        (2u64..=6).prop_map(|mins| (
            OracleChoice::NoisyShared {
                error: 0.05,
                staleness: SimDuration::from_mins(mins),
            },
            fast_periods(),
            40,
        )),
        // Ring AVMON: the epoch is the count of trace slots processed, and
        // estimates appear only once monitors have pinged for a while.
        (4u32..=8).prop_map(|k| (
            OracleChoice::Avmon {
                config: avmem_avmon::AvmonConfig {
                    assignment: avmem_avmon::AssignmentChoice::Ring { vnodes: 8, k },
                    ..avmem_avmon::AvmonConfig::default()
                },
            },
            MaintenanceMode::paper_event_driven(),
            5 * 60,
        )),
    ];
    (40usize..=150, any::<u64>(), oracle)
}

proptest! {
    #[test]
    fn no_insert_regimes_agree_on_everything_but_the_discovery_counters(
        (hosts, seed, (oracle, maintenance, mins)) in regime_case(),
    ) {
        // The verdict bits (budget fits `8·N²`) and the view-slot marks
        // (it does not) must land on the same state on every engine, and
        // differ in no counter but the ones that say how many candidates
        // the filter let through.
        let trace = trace(hosts, seed);
        let mut reference: Option<(AvmemSim, FinalizeStats)> = None;
        for engine in [MaintenanceEngine::Serial, sharded(2), sharded(4)] {
            for budget in [avmem::harness::DEFAULT_HASH_BUDGET, 0] {
                let mut cfg = config(seed, oracle, maintenance, engine);
                cfg.hash_budget = budget;
                let mut sim = AvmemSim::new(trace.clone(), cfg);
                sim.warm_up(SimDuration::from_mins(mins));
                let stats = sim.finalize_stats();
                prop_assert_eq!(sim.hash_store_stats(), PairStoreStats::default());
                match &reference {
                    None => {
                        // Guards against vacuous equality.
                        prop_assert!(stats.discover_pruned > 0, "nothing was pruned");
                        prop_assert!(sim.health_stats().mean_degree > 1.0, "no overlay built");
                        reference = Some((sim, stats));
                    }
                    Some((first, first_stats)) => {
                        let label =
                            format!("{hosts} hosts, seed {seed}, {engine:?}, budget {budget}");
                        assert_state_equal(first, &sim, &label);
                        prop_assert_eq!(
                            without_discovery_counters(*first_stats),
                            without_discovery_counters(stats),
                            "{}", label
                        );
                        if budget != 0 {
                            prop_assert_eq!(*first_stats, stats, "{}", label);
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn equivalence_survives_incremental_warm_up() {
    // The schedule persists across warm_up boundaries (chopped advances
    // equal one big advance); the engines must stay in lockstep across
    // those handoffs too.
    let trace = trace(100, 11);
    let maintenance = MaintenanceMode::paper_event_driven();
    let mut reference = AvmemSim::new(
        trace.clone(),
        config(3, OracleChoice::Exact, maintenance, MaintenanceEngine::Serial),
    );
    let mut candidate = AvmemSim::new(
        trace,
        config(3, OracleChoice::Exact, maintenance, sharded(4)),
    );
    for _ in 0..3 {
        reference.warm_up(SimDuration::from_mins(40));
        candidate.warm_up(SimDuration::from_mins(40));
    }
    assert_state_equal(&reference, &candidate, "incremental warm-up");
}
