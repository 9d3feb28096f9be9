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

use avmem::harness::{AvmemSim, MaintenanceEngine, MaintenanceMode, OracleChoice, SimConfig};
use avmem_sim::SimDuration;
use avmem_trace::{ChurnTrace, OvernetModel};
use avmem_util::NodeId;

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
fn above_the_host_limit_view_marks_match_serial() {
    // 8 200 hosts, above the harness's limit of 8 192 on memory per pair
    // of hosts: finalize keeps its no-insert verdicts as marks in the view
    // slots, the regime of the large builtins, at its own size (the
    // in-crate suites reach it at small sizes through a test-only
    // override). Cohorts of ~260 nodes go to the worker pool. Under shared
    // noise re-drawn every two minutes a verdict row would carry settled
    // verdicts across each turnover; above the limit there is none to
    // carry.
    let trace = trace(8_200, 29);
    let oracle = OracleChoice::NoisyShared {
        error: 0.05,
        staleness: SimDuration::from_mins(2),
    };
    let run = |engine| {
        let mut sim = AvmemSim::new(trace.clone(), config(29, oracle, fast_periods(), engine));
        sim.warm_up(SimDuration::from_mins(10));
        sim
    };
    let reference = run(MaintenanceEngine::Serial);
    assert!(reference.health_stats().mean_degree > 0.5, "reference run built no overlay");
    let stats = reference.finalize_stats();
    assert!(stats.discover_pruned > 0, "nothing was pruned: {stats:?}");
    assert_eq!(
        (stats.verdicts_carried, stats.ceiling_raises),
        (0, 0),
        "settled verdicts above the host limit"
    );
    for threads in THREAD_COUNTS {
        let candidate = run(sharded(threads));
        let label = format!("8 200 hosts, {threads} threads");
        assert_state_equal(&reference, &candidate, &label);
        assert_eq!(stats, candidate.finalize_stats(), "{label}: finalize counters");
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
