//! Pins the service-mode determinism contract: an **unpaced** serve of a
//! fixed window is bit-identical to a batch `run` of the same spec, on
//! every maintenance engine and thread count — the serve loop is the
//! same event loop, just driven step-by-step with metrics attached.
//!
//! This is the serve-mode corollary of `tests/determinism.rs`: pacing
//! and load-shedding are the *only* sources of divergence, and both are
//! off at `pace = 0`.

use avmem::harness::{MaintenanceEngine, OracleChoice};
use avmem_scenario::{
    builtin, AdversarySpec, ChurnSpec, MaintenanceModeSpec, ScenarioRunner,
    ScenarioSpec, ServeOptions,
};

/// (shards, threads) sweep: one shard on one thread, balanced, shard
/// count above and below the thread count.
const SHARD_SWEEP: [(usize, usize); 4] = [(1, 1), (2, 2), (4, 2), (8, 8)];

/// Same shape as the determinism suite's spec: event-driven maintenance,
/// mixed traffic, a noisy oracle, and an adversary.
fn event_driven_spec() -> ScenarioSpec {
    let mut spec = builtin::builtin("smoke").expect("smoke builtin");
    spec.name = "serve-determinism".into();
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

fn sharded(shards: usize, threads: usize) -> MaintenanceEngine {
    MaintenanceEngine::Sharded {
        shards: Some(shards),
        threads: Some(threads),
    }
}

/// `spec` on `engine`.
fn on(spec: &ScenarioSpec, engine: MaintenanceEngine) -> ScenarioSpec {
    let mut spec = spec.clone();
    spec.maintenance.engine = engine;
    spec
}

/// Unpaced serve options: no rate override, no pacing, no endpoint.
fn unpaced() -> ServeOptions {
    ServeOptions {
        pace: Some(0.0),
        ..ServeOptions::default()
    }
}

#[test]
fn unpaced_serve_equals_run_on_every_engine() {
    let spec = event_driven_spec();
    let serial = on(&spec, MaintenanceEngine::Serial);
    let reference = ScenarioRunner::new(serial).unwrap().run().unwrap();

    // Guard against vacuous equality: traffic actually flowed.
    assert!(reference.anycast.sent > 10, "too little anycast traffic");
    assert!(reference.multicast.sent > 0, "no multicast traffic");
    assert!(
        reference.estimator.drawn > 0,
        "estimator sampling never ran"
    );

    let mut engines = vec![MaintenanceEngine::Serial];
    engines.extend(SHARD_SWEEP.map(|(s, t)| sharded(s, t)));
    for engine in engines {
        let outcome = ScenarioRunner::new(on(&spec, engine)).unwrap().serve(&unpaced()).unwrap();
        assert_eq!(
            reference, outcome.report,
            "unpaced serve diverged from run on {engine:?}"
        );
        assert_eq!(outcome.report.admission_drops, 0, "unpaced serve shed load");
        assert_eq!(outcome.sim_mins, spec.duration_mins);
    }
}

#[test]
fn fixed_duration_serve_is_a_prefix_on_every_engine() {
    // --for-mins N must equal a batch run whose spec already says N:
    // the arrival schedule is a true prefix, on every engine.
    let spec = event_driven_spec();
    let mut truncated = spec.clone();
    truncated.duration_mins = 45;
    let reference = ScenarioRunner::new(truncated).unwrap().run().unwrap();

    let opts = ServeOptions {
        for_mins: Some(45),
        ..unpaced()
    };
    for (shards, threads) in SHARD_SWEEP {
        let engine = sharded(shards, threads);
        let outcome = ScenarioRunner::new(on(&spec, engine)).unwrap().serve(&opts).unwrap();
        assert_eq!(
            reference, outcome.report,
            "45-min serve prefix diverged at {shards} shards x {threads} threads"
        );
    }
}

#[test]
fn serve_with_metrics_endpoint_still_matches_run() {
    // Binding the exporter and scraping it must not perturb the
    // simulation: metrics are observers, never participants.
    let spec = event_driven_spec();
    let reference = ScenarioRunner::new(spec.clone()).unwrap().run().unwrap();
    let opts = ServeOptions {
        metrics_addr: Some("127.0.0.1:0".into()),
        scrape_on_exit: true,
        ..unpaced()
    };
    let outcome = ScenarioRunner::new(spec).unwrap().serve(&opts).unwrap();
    assert_eq!(reference, outcome.report);
    let text = outcome.metrics_text.expect("scrape_on_exit captured text");
    for family in [
        "avmem_ops_total",
        "avmem_op_latency_ms",
        "avmem_online",
        "avmem_estimator_mae",
        "avmem_phase_span_us",
    ] {
        assert!(text.contains(family), "scrape missing {family}:\n{text}");
    }
}
