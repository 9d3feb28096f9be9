//! Pins the batched, parallel [`AvmonService`] to a seed-style serial
//! reference implementation, under either assignment strategy.
//!
//! The contract under test: the service's per-target aggregates (and
//! error summary) are a pure function of `(trace, config, seed)` —
//! independent of the worker-thread fan-out, of how `step_to` calls chop
//! the timeline, and of the CSR/inverted-index or fixed-width layout.
//! The reference below mirrors the original per-node pipeline: nested
//! per-monitor target `Vec`s, an `O(N)` `position()` scan per (target,
//! monitor) pair during aggregation, and a serial monitor loop. It takes
//! its monitor relation as input, hashed up front:
//!
//! * all-pairs from the rule, pair by pair, where the service builds a
//!   monitor's row in the first slot that finds it online; ping-loss
//!   draws come from the same counter-keyed `(seed, STREAM_PING,
//!   monitor, slot)` streams the service uses;
//! * ring from a brute-force walk of the sorted ring
//!   (`common::brute_force_ring`), where the service sweeps bucketed
//!   runs once; each ping draws from its edge's `(seed,
//!   STREAM_PING_EDGE, monitor, target, slot)` stream.
//!
//! With `ping_loss = 0` no stream is ever drawn, so the reference is
//! *exactly* the seed implementation over the given relation.

mod common;

use avmem_avmon::{
    ring_rows, AllPairsAssignment, AssignmentChoice, AvailabilityOracle, AvmonConfig,
    AvmonService, PingEstimator, NO_MONITOR,
};
use avmem_sim::{SimDuration, SimTime};
use avmem_trace::{ChurnTrace, OvernetModel};
use avmem_util::{Availability, NodeId, Rng, SplitMix64};

use common::brute_force_ring;

/// Must match `avmem_avmon::service::STREAM_PING`.
const STREAM_PING: u64 = 0x4156_4d4f_4e50;
/// Must match `avmem_avmon::service::STREAM_PING_EDGE`.
const STREAM_PING_EDGE: u64 = 0x4156_4d4f_4e51;

/// `targets[m]` = indices of the nodes monitor `m` observes: the
/// relation `config.assignment` names, over the trace's population.
fn relation(trace: &ChurnTrace, config: AvmonConfig) -> Vec<Vec<usize>> {
    let n = trace.num_nodes();
    let mut targets = vec![Vec::new(); n];
    match config.assignment {
        AssignmentChoice::AllPairs => {
            let assignment = AllPairsAssignment::new(config.cms, n as f64);
            for (m, monitor_targets) in targets.iter_mut().enumerate() {
                let m_id = trace.node_id(m);
                for x in 0..n {
                    if assignment.is_monitor(m_id, trace.node_id(x)) {
                        monitor_targets.push(x);
                    }
                }
            }
        }
        AssignmentChoice::Ring { vnodes, k } => {
            for (t, monitors) in brute_force_ring(n, vnodes, k).into_iter().enumerate() {
                for m in monitors {
                    targets[m as usize].push(t);
                }
            }
        }
    }
    targets
}

/// The seed-style serial monitoring pipeline: nested Vecs, per-target
/// monitor scans, one monitor at a time.
struct SerialReference {
    config: AvmonConfig,
    seed: u64,
    /// `targets[m]` = indices of the nodes monitor `m` observes.
    targets: Vec<Vec<usize>>,
    /// `estimators[m][k]` = estimator of monitor `m` for `targets[m][k]`.
    estimators: Vec<Vec<PingEstimator>>,
    aggregate: Vec<Option<Availability>>,
    next_slot: usize,
}

impl SerialReference {
    fn new(trace: &ChurnTrace, config: AvmonConfig, seed: u64) -> Self {
        let n = trace.num_nodes();
        let targets = relation(trace, config);
        let estimators = targets
            .iter()
            .map(|ts| ts.iter().map(|_| PingEstimator::new()).collect())
            .collect();
        SerialReference {
            config,
            seed,
            targets,
            estimators,
            aggregate: vec![None; n],
            next_slot: 0,
        }
    }

    fn step_to(&mut self, trace: &ChurnTrace, now: SimTime) {
        let slot_ms = trace.slot_duration().as_millis();
        let last_slot = ((now.as_millis() / slot_ms) as usize).min(trace.num_slots() - 1);
        while self.next_slot <= last_slot {
            self.process_slot(trace, self.next_slot);
            self.next_slot += 1;
        }
    }

    fn process_slot(&mut self, trace: &ChurnTrace, slot: usize) {
        let n = trace.num_nodes();
        // Ping phase: one monitor at a time, targets in list order.
        for m in 0..n {
            if !trace.is_online_in_slot(m, slot) {
                continue;
            }
            let lossy = self.config.ping_loss > 0.0;
            let per_edge = matches!(self.config.assignment, AssignmentChoice::Ring { .. });
            let mut loss = (lossy && !per_edge).then(|| {
                SplitMix64::keyed(&[self.seed, STREAM_PING, m as u64, slot as u64])
            });
            for (k, &t) in self.targets[m].clone().iter().enumerate() {
                let edge = [self.seed, STREAM_PING_EDGE, m as u64, t as u64, slot as u64];
                let mut edge_loss = (lossy && per_edge).then(|| SplitMix64::keyed(&edge));
                let answered = trace.is_online_in_slot(t, slot)
                    && loss
                        .as_mut()
                        .or(edge_loss.as_mut())
                        .is_none_or(|rng| !rng.chance(self.config.ping_loss));
                self.estimators[m][k].record(answered, self.config.alpha);
            }
        }
        // Aggregation phase: median over online monitors' estimates,
        // found by scanning every monitor's target list.
        for target in 0..n {
            let mut values: Vec<f64> = Vec::new();
            for m in 0..n {
                if !trace.is_online_in_slot(m, slot) {
                    continue;
                }
                if let Some(k) = self.targets[m].iter().position(|&t| t == target) {
                    let est = if self.config.use_aged {
                        self.estimators[m][k].aged()
                    } else {
                        self.estimators[m][k].raw()
                    };
                    if let Some(av) = est {
                        values.push(av.value());
                    }
                }
            }
            if !values.is_empty() {
                values.sort_by(|a, b| a.partial_cmp(b).expect("estimates are never NaN"));
                self.aggregate[target] = Some(Availability::saturating(values[values.len() / 2]));
            }
        }
    }
}

fn trace(hosts: usize, seed: u64) -> ChurnTrace {
    OvernetModel::default().hosts(hosts).days(1).generate(seed)
}

/// All aggregates of the service, queried through the oracle interface.
fn aggregates(service: &AvmonService, n: usize) -> Vec<Option<f64>> {
    (0..n)
        .map(|i| {
            service
                .estimate(NodeId::new(0), NodeId::new(i as u64), SimTime::ZERO)
                .map(|av| av.value())
        })
        .collect()
}

/// One (config, chop pattern, thread count) cell against the reference.
fn check_cell(config: AvmonConfig, chop: &[u64], threads: usize, label: &str) {
    let trace = trace(90, 17);
    let n = trace.num_nodes();
    let mut reference = SerialReference::new(&trace, config, 99);
    let mut service = AvmonService::new(&trace, config, 99);
    service.set_threads(threads);
    let mut now = SimTime::ZERO;
    for &mins in chop {
        now += SimDuration::from_mins(mins);
        reference.step_to(&trace, now);
        service.step_to(&trace, now);
        let expected: Vec<Option<f64>> =
            reference.aggregate.iter().map(|a| a.map(|av| av.value())).collect();
        assert_eq!(
            aggregates(&service, n),
            expected,
            "{label}: aggregates diverged at {now:?}"
        );
    }
    // Guard against vacuous equality.
    assert!(
        aggregates(&service, n).iter().filter(|a| a.is_some()).count() > n / 2,
        "{label}: reference run produced almost no estimates"
    );
    assert!(
        service.mean_absolute_error(&trace).is_some(),
        "{label}: no error summary"
    );
}

#[test]
fn matches_seed_reference_exactly_without_ping_loss() {
    // ping_loss = 0 ⇒ no RNG anywhere: the reference is bit-for-bit the
    // seed implementation, and the batched service must match it.
    for threads in [1, 2, 8] {
        check_cell(
            AvmonConfig::default(),
            &[240, 240, 480],
            threads,
            &format!("no-loss/threads={threads}"),
        );
    }
}

#[test]
fn matches_keyed_reference_with_ping_loss() {
    let config = AvmonConfig {
        ping_loss: 0.25,
        ..AvmonConfig::default()
    };
    for threads in [1, 2, 8] {
        check_cell(
            config,
            &[360, 600],
            threads,
            &format!("lossy/threads={threads}"),
        );
    }
}

#[test]
fn matches_keyed_reference_in_aged_mode() {
    let config = AvmonConfig {
        ping_loss: 0.1,
        use_aged: true,
        ..AvmonConfig::default()
    };
    check_cell(config, &[720], 4, "aged");
}

#[test]
fn chopped_advances_equal_one_shot() {
    // step_to(a); step_to(b) must equal step_to(b): slot processing is a
    // function of the slot index alone.
    let config = AvmonConfig {
        ping_loss: 0.3,
        ..AvmonConfig::default()
    };
    let trace = trace(70, 23);
    let n = trace.num_nodes();
    let end = SimTime::ZERO + SimDuration::from_hours(20);
    let mut one_shot = AvmonService::new(&trace, config, 5);
    one_shot.step_to(&trace, end);
    let mut chopped = AvmonService::new(&trace, config, 5);
    let mut now = SimTime::ZERO;
    while now < end {
        now += SimDuration::from_mins(35);
        chopped.step_to(&trace, now.min(end));
    }
    assert_eq!(one_shot.slots_processed(), chopped.slots_processed());
    assert_eq!(aggregates(&one_shot, n), aggregates(&chopped, n));
}

#[test]
fn rows_built_on_first_online_match_the_eager_reference() {
    // Ten hours of a one-day trace: some hosts are online from slot 0,
    // some first come online later, some not at all in the window — so
    // the service builds rows in several slots and leaves some unbuilt,
    // while the reference holds the full relation from the start.
    let trace = trace(90, 17);
    let n = trace.num_nodes();
    let first_online = |m: usize, slots: usize| {
        (0..slots).find(|&slot| trace.is_online_in_slot(m, slot))
    };
    let mae_of = |aggregate: &[Option<Availability>]| {
        let errors: Vec<f64> = aggregate
            .iter()
            .enumerate()
            .filter_map(|(i, a)| {
                let truth = trace.long_term_availability(i).value();
                Some((a.as_ref()?.value() - truth).abs())
            })
            .collect();
        (!errors.is_empty()).then(|| errors.iter().sum::<f64>() / errors.len() as f64)
    };
    for ping_loss in [0.0, 0.3] {
        let config = AvmonConfig {
            ping_loss,
            ..AvmonConfig::default()
        };
        for fan_out in [1, 2, 8] {
            for chop in [&[600][..], &[35, 205, 20, 340]] {
                let label = format!("loss {ping_loss}, fan-out {fan_out}, chop {chop:?}");
                let mut reference = SerialReference::new(&trace, config, 99);
                let mut service = AvmonService::new(&trace, config, 99);
                service.set_threads(fan_out);
                service.set_shards(fan_out);
                assert_eq!(service.rows_built(), 0, "{label}: rows before any slot");
                let mut now = SimTime::ZERO;
                for &mins in chop {
                    now += SimDuration::from_mins(mins);
                    reference.step_to(&trace, now);
                    service.step_to(&trace, now);
                    let slots = service.slots_processed();
                    assert_eq!(slots, reference.next_slot, "{label}: slots at {now:?}");
                    let expected: Vec<Option<f64>> =
                        reference.aggregate.iter().map(|a| a.map(|av| av.value())).collect();
                    assert_eq!(aggregates(&service, n), expected, "{label}: aggregates at {now:?}");
                    assert_eq!(
                        service.mean_absolute_error(&trace),
                        mae_of(&reference.aggregate),
                        "{label}: error summary at {now:?}"
                    );
                    assert_eq!(
                        service.rows_built(),
                        (0..n).filter(|&m| first_online(m, slots).is_some()).count(),
                        "{label}: rows at {now:?}"
                    );
                }
                // The window must hold all three kinds of monitor.
                let slots = service.slots_processed();
                let late = (0..n)
                    .filter(|&m| first_online(m, slots).is_some_and(|k| k > 0))
                    .count();
                let never = (0..n).filter(|&m| first_online(m, slots).is_none()).count();
                assert!(late > 0 && never > 0 && late + never < n, "{late} late, {never} never");
                assert!(mae_of(&reference.aggregate).is_some(), "{label}: no estimates");
            }
        }
    }
}

#[test]
fn thread_counts_agree_with_each_other() {
    // Direct service-vs-service sweep (no reference in the loop), over a
    // lossy config where any ordering bug in the keyed streams shows.
    let config = AvmonConfig {
        ping_loss: 0.4,
        ..AvmonConfig::default()
    };
    let trace = trace(120, 31);
    let n = trace.num_nodes();
    let end = SimTime::ZERO + trace.duration();
    let mut base = AvmonService::new(&trace, config, 7);
    base.set_threads(1);
    base.step_to(&trace, end);
    let base_aggregates = aggregates(&base, n);
    assert!(base_aggregates.iter().any(Option::is_some));
    for threads in [2, 3, 8] {
        let mut other = AvmonService::new(&trace, config, 7);
        other.set_threads(threads);
        other.step_to(&trace, end);
        assert_eq!(
            aggregates(&other, n),
            base_aggregates,
            "threads={threads} diverged"
        );
        assert_eq!(other.mean_absolute_error(&trace), base.mean_absolute_error(&trace));
    }
}

#[test]
fn monitors_of_index_matches_the_assignment_rule() {
    // The index build hashes each monitor's row in one batch, two pairs
    // at a time: an even and an odd population cover both of its ends.
    for hosts in [60, 61] {
        let trace = trace(hosts, 41);
        let config = AvmonConfig::default();
        let service = AvmonService::new(&trace, config, 1);
        let rule = AllPairsAssignment::new(config.cms, trace.num_nodes() as f64);
        for target in 0..trace.num_nodes() {
            let monitors = service.monitors_of_index(target);
            let expected: Vec<usize> = (0..trace.num_nodes())
                .filter(|&m| rule.is_monitor(trace.node_id(m), trace.node_id(target)))
                .collect();
            assert_eq!(monitors, expected, "{hosts} hosts, target {target}");
        }
    }
}

fn ring_config() -> AvmonConfig {
    AvmonConfig {
        assignment: AssignmentChoice::Ring { vnodes: 8, k: 4 },
        ..AvmonConfig::default()
    }
}

#[test]
fn ring_matches_the_brute_force_reference_without_ping_loss() {
    for threads in [1, 2, 8] {
        check_cell(
            ring_config(),
            &[240, 240, 480],
            threads,
            &format!("ring/no-loss/threads={threads}"),
        );
    }
}

#[test]
fn ring_matches_the_brute_force_reference_with_ping_loss() {
    let config = AvmonConfig {
        ping_loss: 0.25,
        ..ring_config()
    };
    for threads in [1, 2, 8] {
        check_cell(
            config,
            &[360, 600],
            threads,
            &format!("ring/lossy/threads={threads}"),
        );
    }
}

#[test]
fn ring_matches_the_brute_force_reference_in_aged_mode() {
    let config = AvmonConfig {
        ping_loss: 0.1,
        use_aged: true,
        ..ring_config()
    };
    check_cell(config, &[720], 4, "ring/aged");
}

#[test]
fn ring_chopped_advances_match_the_reference() {
    // Uneven stops, some inside a slot, on every fan-out: the rows are
    // fixed at construction, so where the clock stops cannot matter.
    let config = AvmonConfig {
        ping_loss: 0.3,
        ..ring_config()
    };
    for fan_out in [1, 2, 8] {
        let trace = trace(90, 17);
        let mut reference = SerialReference::new(&trace, config, 99);
        let mut service = AvmonService::new(&trace, config, 99);
        service.set_threads(fan_out);
        service.set_shards(fan_out);
        let mut now = SimTime::ZERO;
        for mins in [35, 205, 20, 340, 840] {
            now += SimDuration::from_mins(mins);
            reference.step_to(&trace, now);
            service.step_to(&trace, now);
            let expected: Vec<Option<f64>> =
                reference.aggregate.iter().map(|a| a.map(|av| av.value())).collect();
            assert_eq!(
                aggregates(&service, trace.num_nodes()),
                expected,
                "fan-out {fan_out}: aggregates at {now:?}"
            );
        }
    }
}

#[test]
fn ring_thread_counts_agree_with_each_other() {
    // Service-vs-service sweep over a lossy config: the fixed-width
    // layout must be chunk-order independent.
    let config = AvmonConfig {
        ping_loss: 0.4,
        ..ring_config()
    };
    let trace = trace(120, 31);
    let n = trace.num_nodes();
    let end = SimTime::ZERO + trace.duration();
    let mut base = AvmonService::new(&trace, config, 7);
    base.set_threads(1);
    base.step_to(&trace, end);
    let base_aggregates = aggregates(&base, n);
    assert!(base_aggregates.iter().any(Option::is_some));
    for threads in [2, 3, 8] {
        let mut other = AvmonService::new(&trace, config, 7);
        other.set_threads(threads);
        other.step_to(&trace, end);
        assert_eq!(
            aggregates(&other, n),
            base_aggregates,
            "threads={threads} diverged"
        );
    }
}

#[test]
fn degenerate_rings_step_a_day() {
    // One host, two, exactly k and k + 1: each row holds min(k, n − 1)
    // monitors, then `NO_MONITOR`, and a simulated day runs as the
    // reference does.
    let k = 4;
    for hosts in [1, 2, k, k + 1] {
        let rows = ring_rows(hosts, 8, k as u32);
        for (t, row) in rows.chunks(k).enumerate() {
            let filled = k.min(hosts - 1);
            assert!(row[..filled].iter().all(|&m| m != NO_MONITOR && m as usize != t));
            assert!(row[filled..].iter().all(|&m| m == NO_MONITOR), "{hosts} hosts: {row:?}");
        }
        let trace = trace(hosts, 5);
        let config = AvmonConfig {
            ping_loss: 0.2,
            ..ring_config()
        };
        let mut reference = SerialReference::new(&trace, config, 3);
        let mut service = AvmonService::new(&trace, config, 3);
        let end = SimTime::ZERO + trace.duration();
        reference.step_to(&trace, end);
        service.step_to(&trace, end);
        for t in 0..hosts {
            assert_eq!(service.monitors_of_index(t).len(), k.min(hosts - 1));
        }
        let expected: Vec<Option<f64>> =
            reference.aggregate.iter().map(|a| a.map(|av| av.value())).collect();
        assert_eq!(aggregates(&service, hosts), expected, "{hosts} hosts");
    }
}
