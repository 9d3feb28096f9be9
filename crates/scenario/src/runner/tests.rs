use super::*;
use crate::builtin;
use crate::spec::{AdversarySpec, ChurnSpec, MaintenanceModeSpec, TargetMix};
use avmem::harness::{MaintenanceEngine, PredicateChoice};
use avmem::ops::ForwardPolicy;
use avmem::AvailabilityTarget;

fn tiny_spec() -> ScenarioSpec {
    let mut spec = builtin::builtin("smoke").expect("smoke builtin");
    spec.churn = ChurnSpec::Overnet { hosts: 80, days: 1 };
    spec.warmup_mins = 60;
    spec.duration_mins = 60;
    spec.workload.ops_per_hour = 40.0;
    spec
}

#[test]
fn run_produces_traffic_and_health() {
    let report = ScenarioRunner::new(tiny_spec()).unwrap().run().unwrap();
    assert!(report.anycast.sent + report.multicast.sent + report.skipped_ops > 0);
    // One sample per health interval plus the final one.
    assert!(report.health.len() >= 2, "health series too short");
    assert!(report.health.windows(2).all(|w| w[0].at_mins < w[1].at_mins));
    // Estimator accuracy sampled at every health boundary, at the
    // default `[report] estimator_samples` budget.
    assert_eq!(
        report.estimator.drawn,
        report.health.len() as u64
            * crate::spec::ReportSpec::default().estimator_samples
    );
    assert_eq!(report.estimator.strategy, "exact");
    // The exact oracle answers everything with zero error.
    assert_eq!(report.estimator.answered, report.estimator.drawn);
    assert_eq!(report.estimator.mae(), 0.0);
    assert_eq!(report.admission_drops, 0);
}

#[test]
fn same_spec_same_report() {
    let runner = ScenarioRunner::new(tiny_spec()).unwrap();
    assert_eq!(runner.run().unwrap(), runner.run().unwrap());
}

#[test]
fn estimator_sampling_budget_is_a_spec_knob() {
    let base = ScenarioRunner::new(tiny_spec()).unwrap().run().unwrap();
    let mut spec = tiny_spec();
    spec.report.estimator_samples = 32;
    let trimmed = ScenarioRunner::new(spec).unwrap().run().unwrap();
    assert_eq!(trimmed.estimator.drawn, trimmed.health.len() as u64 * 32);
    // The budget shapes what the report measures, never the run.
    assert_eq!(base.health, trimmed.health);
    assert_eq!(base.anycast, trimmed.anycast);
    assert_eq!(base.multicast, trimmed.multicast);
}

#[test]
fn sealed_reports_carry_memory_observations() {
    let report = ScenarioRunner::new(tiny_spec()).unwrap().run().unwrap();
    if cfg!(target_os = "linux") {
        assert!(report.memory.peak_rss_bytes.unwrap_or(0) > 0);
    }
    if avmem_util::heap::heap_tracking_installed() {
        assert!(report.memory.heap_peak_bytes.unwrap_or(0) > 0);
        assert!(report.memory.heap_alloc_calls.unwrap_or(0) > 0);
    }
}

#[test]
fn stepped_session_with_metrics_matches_run() {
    let runner = ScenarioRunner::new(tiny_spec()).unwrap();
    let baseline = runner.run().unwrap();
    let registry = Arc::new(Registry::new());
    let mut session = runner.session().unwrap();
    session.set_metrics(&registry);
    while session.step().is_some() {}
    let instrumented = session.finish();
    assert_eq!(baseline, instrumented, "metrics must only observe");
    // And the registry actually saw the traffic.
    let fired = baseline.anycast.sent + baseline.multicast.sent;
    let text = registry.render_text();
    assert!(
        text.contains("avmem_ops_total{kind=\"anycast\"}"),
        "missing op counters: {text}"
    );
    assert!(fired > 0);
}

#[test]
fn event_driven_interleaves_ops_with_maintenance() {
    let mut spec = tiny_spec();
    spec.maintenance.mode = MaintenanceModeSpec::EventDriven {
        protocol_secs: 60,
        refresh_mins: 20,
    };
    spec.warmup_mins = 120;
    let report = ScenarioRunner::new(spec).unwrap().run().unwrap();
    let fired = report.anycast.sent + report.multicast.sent;
    assert!(fired > 0, "no operations fired over the live overlay");
    // Live discovery must have built an overlay the ops could use.
    assert!(
        report.health.last().unwrap().mean_degree > 0.5,
        "event-driven maintenance built no overlay"
    );
    // And the run carries per-phase maintenance timings.
    let phases = report.timings.phases;
    assert!(phases.cohorts > 0, "no cohorts timed");
    let busy = phases.propose + phases.commit + phases.finalize;
    assert!(busy > std::time::Duration::ZERO, "phase clocks never ticked");
}

#[test]
fn adversary_probes_are_counted() {
    let mut spec = tiny_spec();
    spec.adversary = Some(AdversarySpec {
        flooder_fraction: 0.5,
        cushion: 0.1,
        probes: 10,
    });
    let report = ScenarioRunner::new(spec).unwrap().run().unwrap();
    let attack = report.attack.expect("adversary configured");
    assert!(attack.attempts > 0, "no flood attempts fired");
    assert!(attack.probes > 0);
    assert!(attack.accepted <= attack.probes);
    let series: (u64, u64) = report
        .health
        .iter()
        .fold((0, 0), |acc, h| {
            (acc.0 + h.attack_since_last.0, acc.1 + h.attack_since_last.1)
        });
    assert_eq!(series.0, attack.probes, "series must partition the probes");
    assert_eq!(series.1, attack.accepted);
}

#[test]
fn drop_counts_and_multicast_histograms_agree_with_the_totals() {
    for policy in [ForwardPolicy::Greedy, ForwardPolicy::RetriedGreedy { retries: 2 }] {
        let mut spec = tiny_spec();
        let workload = &mut spec.workload;
        (workload.ops_per_hour, workload.anycast_fraction, workload.policy) = (240.0, 0.5, policy);
        // A harsh target too, so that anycasts fail.
        let target = AvailabilityTarget::Range { lo: 0.15, hi: 0.25 };
        workload.targets.push(TargetMix { weight: 1.0, target });
        let report = ScenarioRunner::new(spec).unwrap().run().unwrap();
        let a = &report.anycast;
        assert!(a.sent > a.delivered && a.delivered > 0, "{policy:?}: {a:?}");
        assert_eq!(a.drops.iter().sum::<u64>(), a.sent - a.delivered, "{policy:?}");
        assert!(a.delivered_latency_ms <= a.total_latency_ms);

        let m = &report.multicast;
        assert!(m.reliability_count > 0 && m.spam_count > 0, "{policy:?}: {m:?}");
        let latencies = m.worst_latency_histogram.count();
        assert!(latencies > 0 && latencies <= m.sent, "{policy:?}");
        let latency = m.worst_latency_sum_ms as f64 / latencies as f64;
        for (buckets, count, mean) in [
            (&m.reliability_histogram, m.reliability_count, m.mean_reliability()),
            (&m.spam_histogram, m.spam_count, m.mean_spam()),
            (&m.worst_latency_histogram, latencies, latency),
        ] {
            assert_eq!(buckets.count(), count, "{policy:?}");
            // The mean of the buckets' lower edges: within a width.
            let edges = buckets.counts.iter().enumerate().map(|(i, &n)| (i as u64 * n) as f64);
            let lower = edges.sum::<f64>() * buckets.width / count as f64;
            let within = (mean - lower).abs() <= buckets.width + 1e-9;
            assert!(within, "{policy:?}: bucket mean {lower} vs mean {mean}");
        }
    }
}

#[test]
fn zero_rate_workload_fires_nothing() {
    let mut spec = tiny_spec();
    spec.workload.ops_per_hour = 0.0;
    let report = ScenarioRunner::new(spec).unwrap().run().unwrap();
    assert_eq!(report.anycast.sent, 0);
    assert_eq!(report.multicast.sent, 0);
    assert_eq!(report.skipped_ops, 0);
}

#[test]
fn a_one_host_random_baseline_runs_to_a_report() {
    // `check` accepts it, and `run` used to panic building the
    // baseline with the population size as its `N*` ("n_star must
    // exceed one"); `p = min(degree / N, 1)` needs no such bound.
    for mode in [
        MaintenanceModeSpec::Converged {
            rebuild_every_mins: 30,
        },
        MaintenanceModeSpec::EventDriven {
            protocol_secs: 60,
            refresh_mins: 20,
        },
    ] {
        let mut spec = tiny_spec();
        spec.churn = ChurnSpec::Overnet { hosts: 1, days: 1 };
        spec.predicate = PredicateChoice::Random { expected_degree: 10.0 };
        spec.maintenance.mode = mode;
        spec.validate().expect("a valid spec");
        let report = ScenarioRunner::new(spec).unwrap().run().unwrap();
        assert!(!report.health.is_empty());
        assert!(report.health.iter().all(|h| h.mean_degree == 0.0));
    }
}

#[test]
fn banded_initiators_come_from_the_band() {
    // Every `Low` / `Mid` / `High` pick is an online node of its band,
    // whether a rejection try found it or — where the band's online
    // share is a few percent, so that all the tries miss — the exact
    // scan did; and an op index picks the same node on either engine.
    let mut spec = tiny_spec();
    spec.workload.initiators = BandSpec::High;
    spec.maintenance.mode = MaintenanceModeSpec::EventDriven {
        protocol_secs: 60,
        refresh_mins: 20,
    };
    let sharded = MaintenanceEngine::Sharded { threads: Some(4) };
    let mut sessions = [MaintenanceEngine::Serial, sharded].map(|engine| {
        let mut spec = spec.clone();
        spec.maintenance.engine = engine;
        ScenarioRunner::new(spec).unwrap().session().unwrap()
    });
    let (mut picks, mut scanned) = (0, 0);
    for slot in 3..36 {
        let at = SimTime::ZERO + SimDuration::from_mins(20 * slot + 7);
        for session in &mut sessions {
            session.sim.advance_to(at);
        }
        let [serial, sharded] = &sessions;
        let online = serial.sim.online();
        for band in [BandSpec::Low, BandSpec::Mid, BandSpec::High] {
            let list = serial.bands.list(band);
            for index in 0..64 {
                let pick = serial.pick_initiator(index, band, STREAM_INITIATOR);
                let again = sharded.pick_initiator(index, band, STREAM_INITIATOR);
                assert_eq!(pick, again, "{band:?} op {index} at {at:?}");
                let Some(node) = pick else {
                    assert!(list.iter().all(|&i| !online.contains(i as usize)), "{band:?}");
                    continue;
                };
                let i = node.raw() as usize;
                assert!(online.contains(i), "{band:?} op {index}: {node} is down");
                let av = serial.sim.trace().long_term_availability(i);
                assert!(band.contains(av), "{band:?} op {index}: {node} has {av}");
                // Replay the tries on the op's stream: did all miss?
                let mut rng = SplitMix64::keyed(&[spec.seed, STREAM_INITIATOR, index]);
                let mut tries = (0..PICK_TRIES).map(|_| list[rng.index(list.len())]);
                picks += 1;
                scanned += u32::from(tries.all(|i| !online.contains(i as usize)));
            }
        }
    }
    assert!(picks > 0);
    assert!(scanned > 0, "every pick came from a rejection try");
}

#[test]
fn ops_land_inside_the_operation_window() {
    let spec = tiny_spec();
    let warm_end = SimTime::ZERO + SimDuration::from_mins(spec.warmup_mins);
    let end = warm_end + SimDuration::from_mins(spec.duration_mins);
    let mut timeline = Timeline::new(&spec, warm_end, end);
    let mut events = Vec::new();
    while let Some(event) = timeline.next() {
        events.push(event);
    }
    assert!(!events.is_empty());
    for event in &events {
        assert!(event.at >= warm_end && event.at < end);
    }
    // The lazy merge yields a strictly increasing (time, order) key.
    assert!(events
        .windows(2)
        .all(|w| (w[0].at, w[0].order) < (w[1].at, w[1].order)));
}

#[test]
fn dropping_a_health_sample_or_a_rebuild_consumes_nothing() {
    // The first event of every timeline is the health sample at the
    // warm-up's end; a converged run's rebuilds are never shed either.
    let mut spec = tiny_spec();
    spec.maintenance.mode = MaintenanceModeSpec::Converged {
        rebuild_every_mins: 10,
    };
    let runner = ScenarioRunner::new(spec).unwrap();
    let mut session = runner.session().unwrap();
    let mut refused = 0;
    while let Some(at) = session.next_event_at() {
        if !session.next_is_op() {
            assert_eq!(session.drop_next_op(), None, "shed a non-operation at {at:?}");
            assert_eq!(session.next_event_at(), Some(at), "consumed an event");
            refused += 1;
        }
        session.step();
    }
    assert_eq!(session.drop_next_op(), None, "shed past the end");
    let report = session.finish();
    assert!(refused > 2, "too few health samples and rebuilds: {refused}");
    assert_eq!(report.admission_drops, 0);
    assert_eq!(report, runner.run().unwrap());
}

#[test]
fn dropping_ops_counts_and_never_fires_them() {
    let runner = ScenarioRunner::new(tiny_spec()).unwrap();
    let mut session = runner.session().unwrap();
    let mut dropped = 0u64;
    loop {
        if session.next_is_op() {
            if session.drop_next_op().is_none() {
                break;
            }
            dropped += 1;
        } else if session.step().is_none() {
            break;
        }
    }
    let report = session.finish();
    assert!(dropped > 0);
    assert_eq!(report.admission_drops, dropped);
    assert_eq!(report.anycast.sent, 0, "dropped ops must not fire");
    assert_eq!(report.multicast.sent, 0);
    assert_eq!(report.skipped_ops, 0);
    // Health samples still happen — they are never droppable.
    assert!(report.health.len() >= 2);
}
