//! Property-based tests for the AVMEM core: predicate consistency and
//! verifiability, target geometry, and membership invariants.

use proptest::prelude::*;

use avmem::harness::PredicateChoice;
use avmem::membership::{Membership, SliverScope};
use avmem::ops::AvailabilityTarget;
use avmem::predicate::{AvmemPredicate, HorizontalRule, NodeInfo, Sliver, VerticalRule};
use avmem_avmon::AvailabilityOracle;
use avmem_sim::SimTime;
use avmem_trace::AvailabilityPdf;
use avmem_util::{consistent_hash, Availability, NodeId};

fn arbitrary_pdf() -> impl Strategy<Value = AvailabilityPdf> {
    proptest::collection::vec(0.05f64..10.0, 2..20).prop_map(AvailabilityPdf::from_bucket_mass)
}

fn arbitrary_predicate() -> impl Strategy<Value = AvmemPredicate> {
    (
        arbitrary_pdf(),
        0.02f64..0.4,
        10.0f64..10_000.0,
        prop_oneof![
            (0.1f64..5.0).prop_map(|c1| VerticalRule::Logarithmic { c1 }),
            (0.1f64..5.0).prop_map(|c1| VerticalRule::LogarithmicDecreasing { c1 }),
            (0.0f64..=1.0).prop_map(|d1| VerticalRule::Constant { d1 }),
        ],
        prop_oneof![
            (0.1f64..5.0).prop_map(|c2| HorizontalRule::LogarithmicConstant { c2 }),
            (0.0f64..=1.0).prop_map(|d2| HorizontalRule::Constant { d2 }),
        ],
    )
        .prop_map(|(pdf, epsilon, n_star, vertical, horizontal)| {
            AvmemPredicate::new(epsilon, n_star, vertical, horizontal, pdf)
        })
}

proptest! {
    #[test]
    fn threshold_is_always_a_probability(
        pred in arbitrary_predicate(),
        x in 0.0f64..=1.0,
        y in 0.0f64..=1.0,
    ) {
        let t = pred.threshold(Availability::saturating(x), Availability::saturating(y));
        prop_assert!((0.0..=1.0).contains(&t), "threshold {t}");
    }

    #[test]
    fn membership_is_consistent_and_third_party_verifiable(
        pred in arbitrary_predicate(),
        xid in any::<u64>(),
        yid in any::<u64>(),
        xav in 0.0f64..=1.0,
        yav in 0.0f64..=1.0,
    ) {
        prop_assume!(xid != yid);
        let x = NodeInfo::new(NodeId::new(xid), Availability::saturating(xav));
        let y = NodeInfo::new(NodeId::new(yid), Availability::saturating(yav));
        // Consistency: repeated evaluation agrees.
        prop_assert_eq!(pred.member(x, y), pred.member(x, y));
        // Verifiability: the decision is exactly H ≤ f, reproducible by
        // any third party from public inputs.
        let expected = consistent_hash(x.id, y.id)
            <= pred.threshold(x.availability, y.availability);
        prop_assert_eq!(pred.member(x, y), expected);
    }

    #[test]
    fn cushion_is_monotone(
        pred in arbitrary_predicate(),
        xid in any::<u64>(),
        yid in any::<u64>(),
        xav in 0.0f64..=1.0,
        yav in 0.0f64..=1.0,
        c1 in 0.0f64..0.5,
        c2 in 0.0f64..0.5,
    ) {
        prop_assume!(xid != yid);
        let x = NodeInfo::new(NodeId::new(xid), Availability::saturating(xav));
        let y = NodeInfo::new(NodeId::new(yid), Availability::saturating(yav));
        let (lo, hi) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };
        // A larger cushion never rejects what a smaller one accepted.
        if pred.member_with_cushion(x, y, lo) {
            prop_assert!(pred.member_with_cushion(x, y, hi));
        }
    }

    #[test]
    fn sliver_classification_matches_band(
        pred in arbitrary_predicate(),
        xav in 0.0f64..=1.0,
        yav in 0.0f64..=1.0,
    ) {
        let x = Availability::saturating(xav);
        let y = Availability::saturating(yav);
        let sliver = pred.sliver(x, y);
        if x.distance(y) < pred.epsilon() {
            prop_assert_eq!(sliver, Sliver::Horizontal);
        } else {
            prop_assert_eq!(sliver, Sliver::Vertical);
        }
    }

    #[test]
    fn classify_hashed_agrees_with_classify(
        pred in arbitrary_predicate(),
        xid in any::<u64>(),
        yid in any::<u64>(),
        xav in 0.0f64..=1.0,
        yav in 0.0f64..=1.0,
    ) {
        let x = NodeInfo::new(NodeId::new(xid), Availability::saturating(xav));
        let y = NodeInfo::new(NodeId::new(yid), Availability::saturating(yav));
        let hash = consistent_hash(x.id, y.id);
        prop_assert_eq!(pred.classify(x, y), pred.classify_hashed(x, y, hash, 0.0));
    }

    /// The Fig. 10 baseline is the AVMEM predicate under rules I.A + II.A
    /// with `d₁ = d₂ = p`; it must decide exactly as the flat rule it
    /// replaced, spelled out here: `p = min(degree / N, 1)`, a pair is in
    /// iff `x ≠ y` and its hash is at most `p`, and the sliver is
    /// horizontal iff `|av(x) − av(y)| < 0.1` — through every entry point
    /// the simulation classifies with.
    #[test]
    fn random_predicate_ignores_availability(
        degree in 0.5f64..100.0,
        population in 1usize..5_000,
        n_star in 1.5f64..10_000.0,
        pdf in arbitrary_pdf(),
        (xid, yid, same) in (any::<u64>(), any::<u64>(), any::<bool>()),
        (xav, yav) in (0.0f64..=1.0, 0.0f64..=1.0),
        (drawn, on_edge, cushion) in (0.0f64..=1.0, any::<bool>(), 0.0f64..0.3),
    ) {
        let pred = PredicateChoice::Random { expected_degree: degree }.build(population, n_star, pdf);
        let p = (degree / population as f64).min(1.0);
        let hash = if on_edge { p } else { drawn };
        let yid = if same { xid } else { yid };
        let (x_av, y_av) = (Availability::saturating(xav), Availability::saturating(yav));
        let (x, y) = (NodeInfo::new(NodeId::new(xid), x_av), NodeInfo::new(NodeId::new(yid), y_av));
        let sliver = if (x_av.value() - y_av.value()).abs() < 0.1 {
            Sliver::Horizontal
        } else {
            Sliver::Vertical
        };
        let old = (xid != yid && hash <= p).then_some(sliver);
        prop_assert_eq!(pred.classify_hashed(x, y, hash, 0.0), old);
        prop_assert_eq!(
            pred.member_with_cushion(x, y, cushion),
            consistent_hash(x.id, y.id) <= p + cushion
        );
        if xid != yid {
            let memo = pred.rebuild_memo();
            prop_assert_eq!(memo.source(x_av).classify_hashed(y_av, hash), old);
        }
    }

    #[test]
    fn target_contains_iff_distance_zero_for_ranges(
        lo in 0.0f64..=1.0,
        width in 0.0f64..=1.0,
        av in 0.0f64..=1.0,
    ) {
        let hi = (lo + width).min(1.0);
        let target = AvailabilityTarget::range(lo, hi);
        let a = Availability::saturating(av);
        prop_assert_eq!(target.contains(a), target.distance(a) == 0.0);
    }

    #[test]
    fn target_distance_is_monotone_toward_range(
        lo in 0.2f64..0.8,
        av1 in 0.0f64..=1.0,
        av2 in 0.0f64..=1.0,
    ) {
        let target = AvailabilityTarget::threshold(lo);
        let (near, far) = if (av1 - lo).abs() <= (av2 - lo).abs() {
            (av1, av2)
        } else {
            (av2, av1)
        };
        // Below the threshold, closer availabilities have smaller distance.
        if near <= lo && far <= lo {
            prop_assert!(
                target.distance(Availability::saturating(near))
                    <= target.distance(Availability::saturating(far))
            );
        }
    }

    #[test]
    fn nearest_edge_is_inside_or_on_the_target(
        lo in 0.0f64..=1.0,
        width in 0.0f64..0.5,
        av in 0.0f64..=1.0,
    ) {
        let hi = (lo + width).min(1.0);
        let target = AvailabilityTarget::range(lo, hi);
        let edge = target.nearest_edge(Availability::saturating(av));
        prop_assert!(edge >= lo - 1e-12 && edge <= hi + 1e-12);
    }
}

/// Oracle over a fixed table for membership property tests.
#[derive(Debug)]
struct VecOracle(Vec<f64>);

impl AvailabilityOracle for VecOracle {
    fn estimate(&self, _q: NodeId, target: NodeId, _now: SimTime) -> Option<Availability> {
        self.0
            .get(target.raw() as usize)
            .map(|&v| Availability::saturating(v))
    }
}

proptest! {
    #[test]
    fn discovery_lists_satisfy_predicate_and_are_duplicate_free(
        avs in proptest::collection::vec(0.0f64..=1.0, 2..60),
        seed_av in 0.0f64..=1.0,
    ) {
        let oracle = VecOracle(avs.clone());
        let pdf = AvailabilityPdf::from_sample(
            &avs.iter().map(|&a| Availability::saturating(a)).collect::<Vec<_>>(),
            10,
        );
        let pred = AvmemPredicate::paper_default(avs.len().max(2) as f64, pdf);
        let own = NodeInfo::new(NodeId::new(0), Availability::saturating(seed_av));
        let mut membership = Membership::new(NodeId::new(0));
        let candidates: Vec<NodeId> = (0..avs.len() as u64).map(NodeId::new).collect();
        // Discover twice: the second pass must add nothing (idempotence).
        let first = membership.discover(own, candidates.clone(), &oracle, &pred, SimTime::ZERO);
        let second = membership.discover(own, candidates, &oracle, &pred, SimTime::ZERO);
        prop_assert_eq!(second, 0, "discovery must be idempotent");
        prop_assert_eq!(membership.len(), first);

        // No duplicates, no self, and every entry satisfies the predicate.
        let mut seen = std::collections::HashSet::new();
        for nb in membership.neighbors(SliverScope::Both) {
            prop_assert!(nb.id != NodeId::new(0));
            prop_assert!(seen.insert(nb.id));
            let info = NodeInfo::new(nb.id, nb.cached_availability);
            prop_assert!(pred.member(own, info));
        }

        // Refresh against the same oracle keeps everything.
        let outcome = membership.refresh(own, &oracle, &pred, SimTime::ZERO);
        prop_assert_eq!(outcome.evicted, 0);
        prop_assert_eq!(outcome.migrated, 0);
    }

    #[test]
    fn hs_and_vs_partition_by_band(
        avs in proptest::collection::vec(0.0f64..=1.0, 2..60),
        own_av in 0.0f64..=1.0,
    ) {
        let oracle = VecOracle(avs.clone());
        let pdf = AvailabilityPdf::uniform(10);
        let pred = AvmemPredicate::paper_default(avs.len().max(2) as f64, pdf);
        let own = NodeInfo::new(NodeId::new(0), Availability::saturating(own_av));
        let mut membership = Membership::new(NodeId::new(0));
        membership.discover(
            own,
            (0..avs.len() as u64).map(NodeId::new),
            &oracle,
            &pred,
            SimTime::ZERO,
        );
        for nb in membership.hs() {
            prop_assert!(
                nb.cached_availability.distance(own.availability) < pred.epsilon()
            );
        }
        for nb in membership.vs() {
            prop_assert!(
                nb.cached_availability.distance(own.availability) >= pred.epsilon()
            );
        }
    }
}
