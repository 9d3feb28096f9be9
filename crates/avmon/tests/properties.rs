//! Property-based tests for the monitoring substrate.

use proptest::prelude::*;

use avmem_avmon::{
    AllPairsAssignment, AvailabilityOracle, NoisyOracle, PingEstimator, RingAssignment,
    TraceOracle, NO_MONITOR,
};
use avmem_sim::{SimDuration, SimTime};
use avmem_trace::OvernetModel;
use avmem_util::{HashRing, NodeId, Rng, SplitMix64};

proptest! {
    #[test]
    fn assignment_is_symmetric_between_views(
        cms in 1.0f64..20.0,
        n in 10.0f64..1000.0,
        m in any::<u64>(),
        x in any::<u64>(),
    ) {
        let assignment = AllPairsAssignment::new(cms, n);
        // is_monitor is a pure function: same answer on re-evaluation.
        prop_assert_eq!(
            assignment.is_monitor(NodeId::new(m), NodeId::new(x)),
            assignment.is_monitor(NodeId::new(m), NodeId::new(x))
        );
        // Never self-monitoring.
        prop_assert!(!assignment.is_monitor(NodeId::new(m), NodeId::new(m)));
    }

    #[test]
    fn assignment_threshold_monotone_in_cms(
        cms1 in 0.5f64..10.0,
        cms2 in 0.5f64..10.0,
        n in 20.0f64..500.0,
        m in any::<u64>(),
        x in any::<u64>(),
    ) {
        prop_assume!(m != x);
        let (lo, hi) = if cms1 <= cms2 { (cms1, cms2) } else { (cms2, cms1) };
        let tight = AllPairsAssignment::new(lo, n);
        let loose = AllPairsAssignment::new(hi, n);
        // A monitor under the tighter rule is also one under the looser.
        if tight.is_monitor(NodeId::new(m), NodeId::new(x)) {
            prop_assert!(loose.is_monitor(NodeId::new(m), NodeId::new(x)));
        }
    }

    #[test]
    fn estimator_raw_matches_counts(outcomes in proptest::collection::vec(any::<bool>(), 1..200)) {
        let mut est = PingEstimator::new();
        for &answered in &outcomes {
            est.record(answered, 0.1);
        }
        let hits = outcomes.iter().filter(|&&b| b).count();
        let expected = hits as f64 / outcomes.len() as f64;
        prop_assert!((est.raw().unwrap().value() - expected).abs() < 1e-12);
        prop_assert_eq!(est.samples(), outcomes.len() as u64);
    }

    #[test]
    fn estimator_aged_stays_in_unit_interval(
        alpha in 0.01f64..=1.0,
        outcomes in proptest::collection::vec(any::<bool>(), 1..200),
    ) {
        let mut est = PingEstimator::new();
        for &answered in &outcomes {
            est.record(answered, alpha);
            let aged = est.aged().unwrap().value();
            prop_assert!((0.0..=1.0).contains(&aged));
        }
    }

    #[test]
    fn noisy_oracle_error_is_bounded(
        error in 0.0f64..0.3,
        seed in any::<u64>(),
        target in 0u64..30,
        querier in 0u64..30,
        at in 0u64..100_000_000,
    ) {
        let trace = OvernetModel::default().hosts(30).days(1).generate(3);
        let truth = TraceOracle::new(&trace);
        let noisy = NoisyOracle::new(
            TraceOracle::new(&trace),
            error,
            SimDuration::from_mins(20),
            seed,
        );
        let t = SimTime::from_millis(at);
        let q = NodeId::new(querier);
        let x = NodeId::new(target);
        let true_v = truth.estimate(q, x, t).unwrap().value();
        let noisy_v = noisy.estimate(q, x, t).unwrap().value();
        // Error bounded by amplitude, modulo the [0,1] clamp.
        prop_assert!((noisy_v - true_v).abs() <= error + 1e-12);
        prop_assert!((0.0..=1.0).contains(&noisy_v));
    }

    #[test]
    fn ring_assigns_exactly_k_distinct_monitors(
        n in 20usize..200,
        vnodes in 1u32..8,
        k in 1u32..8,
    ) {
        // With every node a member and n ≫ k, each target must get
        // exactly k distinct monitors, never including itself.
        let ring = RingAssignment::new(n, vnodes, k, 0..n as u32);
        for t in 0..n as u32 {
            let monitors = ring.monitors_of_index(t);
            prop_assert_eq!(monitors.len(), k as usize, "target {} got {:?}", t, &monitors);
            let mut deduped = monitors.clone();
            deduped.sort_unstable();
            deduped.dedup();
            prop_assert_eq!(deduped.len(), k as usize, "duplicate monitor for target {}", t);
            prop_assert!(!monitors.contains(&t), "target {} monitors itself", t);
            prop_assert!(monitors.iter().all(|&m| m < n as u32));
        }
    }

    #[test]
    fn ring_assignment_is_consistent(
        n in 20usize..150,
        vnodes in 1u32..6,
        k in 1u32..6,
    ) {
        // Consistency (the AVMON property AVMEM relies on): the same
        // membership always yields the same monitors, regardless of how
        // the ring was reached.
        let a = RingAssignment::new(n, vnodes, k, 0..n as u32);
        let b = RingAssignment::new(n, vnodes, k, 0..n as u32);
        for t in 0..n as u32 {
            prop_assert_eq!(a.monitors_of_index(t), b.monitors_of_index(t));
        }
    }

    /// The one-sweep row build against one distinct-successor walk per
    /// target: every row holds `monitors_of_index(t)` in walk order, then
    /// `NO_MONITOR`. Member sets run from empty through one member and
    /// fewer than `k + 1` (vacant slots, walks that wrap the whole circle)
    /// to many; small rings put most lookup points past the last ring
    /// point, where the walk wraps over the top.
    #[test]
    fn swept_rows_equal_the_per_target_walk(
        n in 1usize..200,
        vnodes in 1u32..=16,
        k in 1u32..=10,
        shape in 0u8..4,
        seed in any::<u64>(),
    ) {
        let mut rng = SplitMix64::new(seed);
        let members: Vec<u32> = match shape {
            0 => Vec::new(),
            1 => vec![rng.range_u64(n as u64) as u32],
            2 => (0..rng.range_u64(u64::from(k) + 1))
                .map(|_| rng.range_u64(n as u64) as u32)
                .collect(),
            _ => (0..n as u32).filter(|_| rng.chance(0.6)).collect(),
        };
        let ring = RingAssignment::new(n, vnodes, k, members.iter().copied());
        let rows = ring.monitor_rows();
        let k = k as usize;
        prop_assert_eq!(rows.len(), n * k);
        for t in 0..n {
            let mut expect = ring.monitors_of_index(t as u32);
            expect.resize(k, NO_MONITOR);
            prop_assert_eq!(&rows[t * k..(t + 1) * k], &expect[..], "target {}", t);
        }
    }

    /// The bulk ring (one batch of points, sorted unstably) is the ring a
    /// member-by-member build makes: the same sorted run of points and
    /// owners, whatever order and repeats the members come in.
    #[test]
    fn bulk_ring_equals_the_member_by_member_ring(
        members in proptest::collection::vec(0u32..400, 0..120),
        vnodes in 1u32..=16,
    ) {
        let bulk = HashRing::with_members(b"bulk-vs-stepped", vnodes, members.iter().copied());
        let mut stepped = HashRing::new(b"bulk-vs-stepped", vnodes);
        for &m in &members {
            stepped.insert(m);
        }
        prop_assert_eq!(bulk.len(), stepped.len());
        prop_assert_eq!(bulk.run().collect::<Vec<_>>(), stepped.run().collect::<Vec<_>>());
    }

    #[test]
    fn shared_noise_is_querier_invariant(
        error in 0.0f64..0.3,
        seed in any::<u64>(),
        target in 0u64..30,
        q1 in 0u64..30,
        q2 in 0u64..30,
        at in 0u64..100_000_000,
    ) {
        let trace = OvernetModel::default().hosts(30).days(1).generate(3);
        let oracle = NoisyOracle::shared(
            TraceOracle::new(&trace),
            error,
            SimDuration::from_mins(20),
            seed,
        );
        let t = SimTime::from_millis(at);
        let x = NodeId::new(target);
        prop_assert_eq!(
            oracle.estimate(NodeId::new(q1), x, t),
            oracle.estimate(NodeId::new(q2), x, t)
        );
    }
}

/// Targets-per-monitor load for every member of a full ring.
fn monitor_loads(n: usize, vnodes: u32, k: u32) -> Vec<usize> {
    let ring = RingAssignment::new(n, vnodes, k, 0..n as u32);
    let mut loads = vec![0usize; n];
    for t in 0..n as u32 {
        for m in ring.monitors_of_index(t) {
            loads[m as usize] += 1;
        }
    }
    loads
}

#[test]
fn ring_load_evens_out_as_vnodes_grow() {
    // Each target has k monitors, so mean load is exactly k; virtual
    // points shrink the spread around it. Deterministic (keyed hashes),
    // so the bounds are exact, not statistical.
    let (n, k) = (400, 4);
    let spread = |vnodes: u32| {
        let loads = monitor_loads(n, vnodes, k);
        let mean = loads.iter().sum::<usize>() as f64 / loads.len() as f64;
        assert!((mean - k as f64).abs() < 1e-9, "mean load must be k");
        let var = loads
            .iter()
            .map(|&l| (l as f64 - mean).powi(2))
            .sum::<f64>()
            / loads.len() as f64;
        let max = *loads.iter().max().unwrap();
        (var, max)
    };
    let (var_1, max_1) = spread(1);
    let (var_32, max_32) = spread(32);
    assert!(
        var_32 < var_1 / 2.0,
        "32 vnodes should at least halve load variance: {var_32} vs {var_1}"
    );
    assert!(max_32 <= max_1, "max load should not grow: {max_32} vs {max_1}");
    assert!(
        (max_32 as f64) < 3.0 * k as f64,
        "max load {max_32} should stay within 3x the mean {k}"
    );
}

#[test]
fn join_and_leave_deltas_do_not_scale_with_n() {
    // The O(k) claim: the number of targets touched by one membership
    // change depends on k and vnodes, never on N. Sample many members at
    // two ring sizes an order of magnitude apart and compare worst cases.
    let (vnodes, k) = (8, 4);
    let max_delta = |n: usize| {
        let mut ring = RingAssignment::new(n, vnodes, k, 0..n as u32);
        let mut worst = 0usize;
        for m in (0..n as u32).step_by(n / 40) {
            let left = ring.leave(m);
            let rejoined = ring.join(m);
            worst = worst.max(left.len()).max(rejoined.len());
        }
        worst
    };
    let small = max_delta(2_000);
    let large = max_delta(20_000);
    // Worst case over the sample must not grow with N (generous slack:
    // arc occupancy is hash-random, so allow 2x wiggle either way).
    assert!(
        (large as f64) < 2.0 * small as f64 + 16.0,
        "delta grew with N: {small} targets at 2k hosts, {large} at 20k"
    );
    // And both are tiny against N — far below any linear term.
    assert!(small < 2_000 / 10, "delta {small} not sublinear at 2k hosts");
    assert!(large < 20_000 / 100, "delta {large} not sublinear at 20k hosts");
}
