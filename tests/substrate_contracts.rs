//! Cross-crate contracts between the substrates: the trace drives the
//! monitoring service; the monitoring service feeds the predicate; the
//! shuffle service feeds discovery. These are the interfaces §3.1 of the
//! paper assumes — each test pins one of those assumptions.

use avmem::membership::{Membership, SliverScope};
use avmem::predicate::{AvmemPredicate, NodeInfo};
use avmem_avmon::{AvailabilityOracle, AvmonConfig, AvmonService, NoisyOracle, TraceOracle};
use avmem_shuffle::{optimal_view_size, sim::RoundSim, ShuffleConfig};
use avmem_sim::{SimDuration, SimTime};
use avmem_trace::{AvailabilityPdf, ChurnTrace, OvernetModel};
use avmem_util::{Availability, NodeId};

fn trace() -> ChurnTrace {
    OvernetModel::default().hosts(120).days(2).generate(77)
}

fn pdf_for(trace: &ChurnTrace) -> AvailabilityPdf {
    let weighted: Vec<(Availability, f64)> = (0..trace.num_nodes())
        .map(|i| {
            let av = trace.long_term_availability(i);
            (av, av.value())
        })
        .collect();
    AvailabilityPdf::from_weighted_sample(&weighted, 10)
}

#[test]
fn avmon_estimates_feed_the_predicate() {
    // The full pipeline the paper describes: AVMON measures availability
    // by pinging over churn; AVMEM evaluates its predicate on those
    // estimates; the resulting lists approximate the ground-truth overlay.
    let trace = trace();
    let mut avmon = AvmonService::new(&trace, AvmonConfig::default(), 5);
    avmon.step_to(&trace, SimTime::ZERO + trace.duration());

    let pred = AvmemPredicate::paper_default(trace.stats().mean_online, pdf_for(&trace));
    let truth = TraceOracle::new(&trace);
    let now = SimTime::ZERO + trace.duration();

    let mut agree = 0usize;
    let mut total = 0usize;
    for x in 0..trace.num_nodes() {
        let x_id = trace.node_id(x);
        let (Some(est_x), Some(true_x)) = (
            avmon.estimate(x_id, x_id, now),
            truth.estimate(x_id, x_id, now),
        ) else {
            continue;
        };
        for y in 0..trace.num_nodes() {
            if x == y {
                continue;
            }
            let y_id = trace.node_id(y);
            let (Some(est_y), Some(true_y)) = (
                avmon.estimate(x_id, y_id, now),
                truth.estimate(x_id, y_id, now),
            ) else {
                continue;
            };
            let with_est = pred.member(NodeInfo::new(x_id, est_x), NodeInfo::new(y_id, est_y));
            let with_truth = pred.member(NodeInfo::new(x_id, true_x), NodeInfo::new(y_id, true_y));
            total += 1;
            if with_est == with_truth {
                agree += 1;
            }
        }
    }
    assert!(total > 1000, "only {total} pairs evaluated");
    let agreement = agree as f64 / total as f64;
    assert!(
        agreement > 0.9,
        "estimate-driven membership agrees with truth on only {agreement:.2} of pairs"
    );
}

#[test]
fn shuffle_views_feed_discovery() {
    // Coarse-view entries are the discovery candidates (§3.1). After some
    // shuffling every node can discover a meaningful share of its
    // predicate neighbors from its view stream.
    let trace = trace();
    let oracle = TraceOracle::new(&trace);
    let pred = AvmemPredicate::paper_default(trace.stats().mean_online, pdf_for(&trace));
    let n = trace.num_nodes();

    let mut shuffle = RoundSim::new(n, ShuffleConfig::for_system_size(n), 9);
    let mut membership = Membership::new(NodeId::new(0));
    let own = NodeInfo::new(NodeId::new(0), trace.long_term_availability(0));

    // Run discovery over 60 shuffle rounds, scanning node 0's view each
    // round.
    for _ in 0..60 {
        shuffle.run_round();
        let candidates: Vec<NodeId> = shuffle.nodes()[0].view().ids().collect();
        membership.discover(own, candidates, &oracle, &pred, SimTime::ZERO);
    }

    // Converged reference.
    let mut reference = Membership::new(NodeId::new(0));
    reference.discover(own, trace.node_ids(), &oracle, &pred, SimTime::ZERO);

    let found = membership.neighbors(SliverScope::Both).count();
    let expected = reference.neighbors(SliverScope::Both).count();
    assert!(expected > 0, "reference overlay is empty");
    assert!(
        found as f64 >= 0.3 * expected as f64,
        "discovery found {found} of {expected} neighbors after 60 rounds"
    );
    // Everything discovered is a true predicate neighbor.
    for nb in membership.neighbors(SliverScope::Both) {
        assert!(reference.contains(nb.id), "{} is not a valid neighbor", nb.id);
    }
}

#[test]
fn view_size_optimality_contract() {
    // §3.1: v = √N minimizes v + N/v. Check the discovery-cost proxy.
    let n = 400;
    let cost = |v: usize| v as f64 + n as f64 / v as f64;
    let optimal = optimal_view_size(n);
    assert!(cost(optimal) <= cost(optimal / 2) + 1e-9);
    assert!(cost(optimal) <= cost(optimal * 2) + 1e-9);
}

#[test]
fn noisy_oracle_respects_trace_truth_envelope() {
    let trace = trace();
    let oracle = NoisyOracle::new(
        TraceOracle::new(&trace),
        0.05,
        SimDuration::from_mins(20),
        3,
    );
    for i in 0..trace.num_nodes() {
        let id = trace.node_id(i);
        let est = oracle
            .estimate(NodeId::new(0), id, SimTime::ZERO)
            .expect("trace oracle knows every node");
        let truth = trace.long_term_availability(i).value();
        assert!((est.value() - truth).abs() <= 0.05 + 1e-12);
    }
}

#[test]
fn refresh_tracks_availability_drift_through_avmon() {
    // A node whose measured availability drifts across the ε band must be
    // migrated by refresh within one period (§3.1's worst-case bound).
    let trace = trace();
    let mut avmon = AvmonService::new(&trace, AvmonConfig::default(), 5);
    let pred = AvmemPredicate::paper_default(trace.stats().mean_online, pdf_for(&trace));

    // Discover with early estimates (after 12 h), then refresh with final
    // estimates: everything kept/migrated must satisfy the predicate on
    // the fresh values.
    let half = SimTime::ZERO + SimDuration::from_hours(12);
    avmon.step_to(&trace, half);
    let own_id = trace.node_id(1);
    let Some(own_av) = avmon.estimate(own_id, own_id, half) else {
        panic!("node 1 unknown to avmon after 12h");
    };
    let mut membership = Membership::new(own_id);
    membership.discover(
        NodeInfo::new(own_id, own_av),
        trace.node_ids(),
        &avmon,
        &pred,
        half,
    );

    let end = SimTime::ZERO + trace.duration();
    avmon.step_to(&trace, end);
    let own_av_end = avmon.estimate(own_id, own_id, end).expect("still known");
    let own_end = NodeInfo::new(own_id, own_av_end);
    membership.refresh(own_end, &avmon, &pred, end);

    for nb in membership.neighbors(SliverScope::Both) {
        let fresh = avmon.estimate(own_id, nb.id, end).expect("kept ⇒ known");
        assert_eq!(nb.cached_availability, fresh, "cache not refreshed");
        assert!(
            pred.member(own_end, NodeInfo::new(nb.id, fresh)),
            "kept neighbor violates predicate after refresh"
        );
    }
}
