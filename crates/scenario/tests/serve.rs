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

/// Thread counts, and so shard counts, every engine sweep runs: one
/// shard with nothing to exchange, then 2, 4 and 8 exchanging at the
/// cohort barriers.
const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

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

fn sharded(threads: usize) -> MaintenanceEngine {
    MaintenanceEngine::Sharded {
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
    engines.extend(THREAD_SWEEP.map(sharded));
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
    for threads in THREAD_SWEEP {
        let engine = sharded(threads);
        let outcome = ScenarioRunner::new(on(&spec, engine)).unwrap().serve(&opts).unwrap();
        assert_eq!(
            reference, outcome.report,
            "45-min serve prefix diverged at {threads} threads"
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

#[test]
fn the_exposition_states_each_count_once() {
    // Two shards, so exchange batches cross a barrier, and ring AVMON, so
    // slots are processed and timed. Each count has one family: messages
    // moved are the batch histogram's sum, slots processed the slot-cost
    // histogram's count, and pair hashes the finalize count mirrored into
    // `avmem_hash_direct_total`.
    let mut spec = event_driven_spec();
    spec.churn = ChurnSpec::Overnet { hosts: 60, days: 1 };
    spec.warmup_mins = 120;
    spec.duration_mins = 30;
    spec.adversary = None;
    spec.oracle = OracleChoice::Avmon {
        config: avmem_avmon::AvmonConfig {
            assignment: avmem_avmon::AssignmentChoice::Ring { vnodes: 8, k: 6 },
            ..avmem_avmon::AvmonConfig::default()
        },
    };
    let opts = ServeOptions {
        scrape_on_exit: true,
        ..unpaced()
    };
    let outcome = ScenarioRunner::new(on(&spec, sharded(2))).unwrap().serve(&opts).unwrap();
    let text = outcome.metrics_text.expect("scrape_on_exit captured text");
    for family in [
        "avmem_exchange_batch_msgs_sum{dir=\"request\"}",
        "avmem_exchange_batch_msgs_sum{dir=\"reply\"}",
        "avmem_avmon_slot_us_count",
    ] {
        assert!(text.contains(family), "scrape missing {family}:\n{text}");
    }
    let hashed = text
        .lines()
        .find_map(|line| line.strip_prefix("avmem_hash_direct_total "))
        .unwrap_or_else(|| panic!("scrape missing avmem_hash_direct_total:\n{text}"));
    assert_ne!(hashed, "0", "finalize hashed no pair:\n{text}");
    for gone in [
        "avmem_exchange_msgs_total",
        "avmem_avmon_slots_total",
        "avmem_maintenance_backlog",
    ] {
        assert!(!text.contains(gone), "scrape still carries {gone}:\n{text}");
    }
}

#[test]
fn the_registry_renders_the_report() {
    // One record per run: every count and health gauge of the exposition
    // is the report's own field, published when the session is sealed.
    let spec = event_driven_spec();
    let opts = ServeOptions {
        scrape_on_exit: true,
        ..unpaced()
    };
    let outcome = ScenarioRunner::new(spec).unwrap().serve(&opts).unwrap();
    let text = outcome.metrics_text.expect("scrape_on_exit captured text");
    let read = |series: &str| -> f64 {
        let value = text
            .lines()
            .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("scrape missing {series}:\n{text}"));
        value.parse().unwrap_or_else(|e| panic!("{series} {value}: {e}"))
    };
    let report = &outcome.report;
    let attack = report.attack.as_ref().expect("the spec has an adversary");
    assert!(report.anycast.sent > 0 && report.multicast.sent > 0 && attack.attempts > 0);
    for (series, field) in [
        ("avmem_ops_total{kind=\"anycast\"}", report.anycast.sent),
        ("avmem_ops_total{kind=\"multicast\"}", report.multicast.sent),
        ("avmem_ops_total{kind=\"probe\"}", attack.attempts),
        ("avmem_ops_delivered_total{kind=\"anycast\"}", report.anycast.delivered),
        ("avmem_ops_delivered_total{kind=\"multicast\"}", report.multicast.entered),
        ("avmem_ops_skipped_total", report.skipped_ops),
        ("avmem_ops_dropped_total", report.admission_drops),
    ] {
        assert_eq!(read(series), field as f64, "{series}");
    }
    let last = report.health.last().expect("a sealed report has a final sample");
    let mae = format!("avmem_estimator_mae{{strategy=\"{}\"}}", report.estimator.strategy);
    for (series, field) in [
        ("avmem_online", last.online as f64),
        ("avmem_mean_degree", last.mean_degree),
        ("avmem_largest_component", last.largest_component),
        (mae.as_str(), report.estimator.mae()),
    ] {
        assert_eq!(read(series), field, "{series}");
    }
}
