//! Set-level equivalence of the optimized converged rebuild.
//!
//! The rebuild hot path (memoized thresholds, sorted-index band scans,
//! cached pair-hash rows, parallel per-node workers) is pure
//! optimization: it must produce HS/VS *sets* identical to a naive
//! reference that classifies every ordered pair directly through
//! `AvmemPredicate::classify` — no hash matrix, no memo, no index. These
//! tests pin that equivalence for both predicate choices (AVMEM's rules
//! and the random baseline) and both oracle fidelities (exact, i.e. the
//! shared-snapshot fast path, and per-querier noisy, i.e. the per-source
//! fallback path).

use std::collections::BTreeSet;

use proptest::prelude::*;

use avmem::harness::{AvmemSim, CandidateIndex, OracleChoice, PredicateChoice, SimConfig};
use avmem::predicate::{NodeInfo, Sliver};
use avmem_avmon::AvailabilityOracle;
use avmem_sim::SimDuration;
use avmem_trace::{AvailabilityPdf, OvernetModel};
use avmem_util::{consistent_hash, Availability, NodeId};

/// Per-node `(HS, VS)` id sets from a naive full classification over all
/// ordered pairs, straight through the predicate trait.
fn reference_sets(sim: &AvmemSim) -> Vec<(BTreeSet<u64>, BTreeSet<u64>)> {
    let n = sim.trace().num_nodes();
    let now = sim.now();
    (0..n)
        .map(|x| {
            let xid = NodeId::new(x as u64);
            let mut hs = BTreeSet::new();
            let mut vs = BTreeSet::new();
            if let Some(own_av) = sim.oracle().estimate(xid, xid, now) {
                let own = NodeInfo::new(xid, own_av);
                for y in 0..n {
                    if y == x {
                        continue;
                    }
                    let yid = NodeId::new(y as u64);
                    let Some(y_av) = sim.oracle().estimate(xid, yid, now) else {
                        continue;
                    };
                    match sim.predicate().classify(own, NodeInfo::new(yid, y_av)) {
                        Some(Sliver::Horizontal) => {
                            hs.insert(y as u64);
                        }
                        Some(Sliver::Vertical) => {
                            vs.insert(y as u64);
                        }
                        None => {}
                    }
                }
            }
            (hs, vs)
        })
        .collect()
}

/// Per-node `(HS, VS)` id sets as the optimized rebuild stored them.
fn rebuilt_sets(sim: &AvmemSim) -> Vec<(BTreeSet<u64>, BTreeSet<u64>)> {
    (0..sim.trace().num_nodes())
        .map(|x| {
            let m = sim.membership(NodeId::new(x as u64));
            (
                m.hs().map(|nb| nb.id.raw()).collect(),
                m.vs().map(|nb| nb.id.raw()).collect(),
            )
        })
        .collect()
}

fn check_equivalence(predicate: PredicateChoice, oracle: OracleChoice, seed: u64) {
    let trace = OvernetModel::default().hosts(300).days(1).generate(11);
    let mut config = SimConfig::paper_default(seed);
    config.predicate = predicate;
    config.oracle = oracle;
    let mut sim = AvmemSim::new(trace, config);
    sim.warm_up(SimDuration::from_hours(24));

    let reference = reference_sets(&sim);
    let rebuilt = rebuilt_sets(&sim);
    let mut nonempty = 0;
    for (x, (reference, rebuilt)) in reference.iter().zip(&rebuilt).enumerate() {
        assert_eq!(reference.0, rebuilt.0, "HS set of node {x} diverges");
        assert_eq!(reference.1, rebuilt.1, "VS set of node {x} diverges");
        nonempty += usize::from(!reference.0.is_empty() || !reference.1.is_empty());
    }
    assert!(
        nonempty > 200,
        "equivalence is vacuous: only {nonempty} nodes have neighbors"
    );
}

#[test]
fn avmem_predicate_exact_oracle_matches_naive_reference() {
    check_equivalence(PredicateChoice::paper_default(), OracleChoice::Exact, 1);
}

#[test]
fn avmem_predicate_noisy_oracle_matches_naive_reference() {
    // Per-querier noise: the rebuild cannot share an availability
    // snapshot and must fall back to per-source estimates.
    check_equivalence(PredicateChoice::paper_default(), OracleChoice::paper_noise(), 2);
}

#[test]
fn random_predicate_exact_oracle_matches_naive_reference() {
    check_equivalence(
        PredicateChoice::Random {
            expected_degree: 12.0,
        },
        OracleChoice::Exact,
        3,
    );
}

#[test]
fn random_predicate_noisy_oracle_matches_naive_reference() {
    check_equivalence(
        PredicateChoice::Random {
            expected_degree: 12.0,
        },
        OracleChoice::paper_noise(),
        4,
    );
}

#[test]
fn shared_noise_oracle_matches_naive_reference() {
    // Shared noise is querier-independent, so this exercises the sorted
    // index over *perturbed* (non-truth) estimates.
    check_equivalence(
        PredicateChoice::paper_default(),
        OracleChoice::NoisyShared {
            error: 0.05,
            staleness: SimDuration::from_mins(20),
        },
        5,
    );
}

proptest! {
    /// Banded HS enumeration (sorted index + memoized horizontal
    /// threshold) finds exactly the candidates a full scan classifies as
    /// horizontal.
    #[test]
    fn banded_hs_enumeration_matches_full_scan_classification(
        avs in proptest::collection::vec(0.0f64..=1.0, 2..120),
        center in 0.0f64..=1.0,
        epsilon in 0.02f64..0.4,
        c2 in 0.2f64..4.0,
        source_id in 0u64..1000,
    ) {
        let pred = avmem::predicate::AvmemPredicate::new(
            epsilon,
            500.0,
            avmem::predicate::VerticalRule::Logarithmic { c1: 2.5 },
            avmem::predicate::HorizontalRule::LogarithmicConstant { c2 },
            AvailabilityPdf::from_sample(
                &avs.iter().map(|&v| Availability::saturating(v)).collect::<Vec<_>>(),
                10,
            ),
        );
        let own = NodeInfo::new(NodeId::new(source_id), Availability::saturating(center));

        // Full scan: classify every candidate through the trait.
        let full: BTreeSet<usize> = avs
            .iter()
            .enumerate()
            .filter(|&(y, &v)| {
                y as u64 != source_id
                    && pred.classify(
                        own,
                        NodeInfo::new(NodeId::new(y as u64), Availability::saturating(v)),
                    ) == Some(Sliver::Horizontal)
            })
            .map(|(y, _)| y)
            .collect();

        // Banded: range-scan the sorted index, accept by the memoized
        // horizontal threshold.
        let index = CandidateIndex::build(
            avs.iter().map(|&v| Some(Availability::saturating(v))).enumerate(),
        );
        let memo = pred.rebuild_memo();
        let source = memo.source(own.availability);
        let banded: BTreeSet<usize> = index
            .band(own.availability, source.epsilon())
            .filter(|&(y, _)| {
                y as u64 != source_id
                    && consistent_hash(own.id, NodeId::new(y as u64)) <= source.horizontal()
            })
            .map(|(y, _)| y)
            .collect();

        prop_assert_eq!(banded, full);
    }
}
