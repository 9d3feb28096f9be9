//! Pins scenario-report determinism: one spec + seed produces a
//! bit-identical [`ScenarioReport`] regardless of maintenance engine
//! (one shard on one thread vs sharded), shard count, and worker-thread
//! count.
//!
//! This is the scenario-level corollary of the `event_driven_equivalence`
//! harness tests: maintenance state is engine-independent, and every
//! operation draw comes from counter-keyed streams, so nothing in the
//! report may move when only the execution strategy changes. (Report
//! equality deliberately excludes the wall-clock phase timings.)

use avmem::harness::{MaintenanceEngine, OracleChoice};
use avmem_scenario::{
    builtin, AdversarySpec, ChurnSpec, MaintenanceModeSpec, ScenarioRunner,
    ScenarioSpec,
};

/// (shards, threads) sweep: one shard on one thread, balanced, shard
/// count above and below the thread count.
const SHARD_SWEEP: [(usize, usize); 4] = [(1, 1), (2, 2), (4, 2), (8, 8)];

/// A scenario small enough to sweep engines over, but exercising the full
/// machinery: event-driven maintenance, mixed traffic, an adversary.
fn event_driven_spec() -> ScenarioSpec {
    let mut spec = builtin::builtin("smoke").expect("smoke builtin");
    spec.name = "determinism".into();
    spec.seed = 41;
    spec.churn = ChurnSpec::Overnet { hosts: 150, days: 1 };
    spec.maintenance.mode = MaintenanceModeSpec::EventDriven {
        protocol_secs: 60,
        refresh_mins: 20,
    };
    spec.warmup_mins = 90;
    spec.duration_mins = 120;
    spec.health_every_mins = 30;
    spec.workload.ops_per_hour = 60.0;
    spec.workload.anycast_fraction = 0.6;
    spec.oracle = OracleChoice::paper_noise();
    spec.adversary = Some(AdversarySpec {
        flooder_fraction: 0.1,
        cushion: 0.1,
        probes: 20,
    });
    spec
}

fn report_with(spec: &ScenarioSpec, engine: MaintenanceEngine) -> avmem_scenario::ScenarioReport {
    let mut spec = spec.clone();
    spec.maintenance.engine = engine;
    ScenarioRunner::new(spec).expect("spec validates").run().expect("scenario runs")
}

fn sharded(shards: usize, threads: usize) -> MaintenanceEngine {
    MaintenanceEngine::Sharded {
        shards: Some(shards),
        threads: Some(threads),
    }
}

#[test]
fn reports_are_bit_identical_across_engines_shards_and_threads() {
    let spec = event_driven_spec();
    let reference = report_with(&spec, MaintenanceEngine::Serial);

    // Guard against vacuous equality: traffic actually flowed.
    assert!(
        reference.anycast.sent > 10,
        "too little anycast traffic ({}) for a meaningful pin",
        reference.anycast.sent
    );
    assert!(reference.multicast.sent > 0, "no multicast traffic");
    let attack = reference.attack.as_ref().expect("adversary configured");
    assert!(attack.probes > 0, "no adversary probes");
    assert!(reference.health.len() >= 4, "health series too short");

    for (shards, threads) in SHARD_SWEEP {
        let candidate = report_with(&spec, sharded(shards, threads));
        assert_eq!(
            reference, candidate,
            "report diverged with the sharded engine at {shards} shards x {threads} threads"
        );
    }
}

#[test]
fn reports_are_bit_identical_for_converged_maintenance_too() {
    let mut spec = event_driven_spec();
    spec.maintenance.mode = MaintenanceModeSpec::Converged {
        rebuild_every_mins: 30,
    };
    let reference = report_with(&spec, MaintenanceEngine::Serial);
    assert!(reference.anycast.sent > 10);
    for (shards, threads) in SHARD_SWEEP {
        let candidate = report_with(&spec, sharded(shards, threads));
        assert_eq!(
            reference, candidate,
            "converged report diverged at {shards} shards x {threads} threads"
        );
    }
}

#[test]
fn repeated_runs_of_one_runner_are_identical() {
    let runner = ScenarioRunner::new(event_driven_spec()).unwrap();
    let first = runner.run().unwrap();
    let second = runner.run().unwrap();
    assert_eq!(first, second, "runner must be stateless across runs");
}

#[test]
fn different_seeds_differ() {
    let spec = event_driven_spec();
    let mut reseeded = spec.clone();
    reseeded.seed = 42;
    let a = ScenarioRunner::new(spec).unwrap().run().unwrap();
    let b = ScenarioRunner::new(reseeded).unwrap().run().unwrap();
    assert_ne!(a, b, "seed must matter");
}
