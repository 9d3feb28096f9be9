//! Property-based tests for the discrete-event engine and network model.

use proptest::prelude::*;

use avmem_sim::{Engine, LatencyModel, Network, SimDuration, SimTime};

proptest! {
    #[test]
    fn engine_dispatches_in_nondecreasing_time_order(
        times in proptest::collection::vec(0u64..1_000_000, 0..200),
    ) {
        let mut engine = Engine::new();
        for (i, &t) in times.iter().enumerate() {
            engine.schedule(SimTime::from_millis(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0usize;
        engine.run_until(SimTime::MAX, |_, at, _| {
            assert!(at >= last, "time went backwards");
            last = at;
            count += 1;
        });
        prop_assert_eq!(count, times.len());
        prop_assert_eq!(engine.pending(), 0);
    }

    #[test]
    fn engine_ties_break_by_insertion(
        n in 1usize..100,
        t in 0u64..1000,
    ) {
        let mut engine = Engine::new();
        for i in 0..n {
            engine.schedule(SimTime::from_millis(t), i);
        }
        let mut order = Vec::new();
        engine.run_until(SimTime::MAX, |_, _, e| order.push(e));
        prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn engine_deadline_splits_cleanly(
        times in proptest::collection::vec(0u64..1000, 0..100),
        deadline in 0u64..1000,
    ) {
        let mut engine = Engine::new();
        for &t in &times {
            engine.schedule(SimTime::from_millis(t), t);
        }
        let mut before = 0usize;
        engine.run_until(SimTime::from_millis(deadline), |_, _, t| {
            assert!(t <= deadline);
            before += 1;
        });
        let expected_before = times.iter().filter(|&&t| t <= deadline).count();
        prop_assert_eq!(before, expected_before);
        prop_assert_eq!(engine.pending(), times.len() - expected_before);
    }

    #[test]
    fn uniform_latency_within_bounds(seed in any::<u64>(), lo in 0u64..500, span in 0u64..500) {
        let hi = lo + span;
        let mut net = Network::new(LatencyModel::Uniform { lo_millis: lo, hi_millis: hi }, seed);
        for _ in 0..100 {
            let d = net.hop_latency().as_millis();
            prop_assert!((lo..=hi).contains(&d));
        }
    }

    #[test]
    fn network_is_deterministic_per_seed(seed in any::<u64>()) {
        let mut a = Network::new(LatencyModel::PAPER, seed);
        let mut b = Network::new(LatencyModel::PAPER, seed);
        for _ in 0..50 {
            prop_assert_eq!(a.hop_latency(), b.hop_latency());
        }
    }

    #[test]
    fn durations_add_commutatively(x in 0u64..1_000_000, y in 0u64..1_000_000) {
        let a = SimDuration::from_millis(x);
        let b = SimDuration::from_millis(y);
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b).as_millis(), x + y);
    }

    #[test]
    fn time_add_then_subtract_roundtrips(base in 0u64..1_000_000, delta in 0u64..1_000_000) {
        let t = SimTime::from_millis(base);
        let d = SimDuration::from_millis(delta);
        prop_assert_eq!((t + d) - t, d);
    }
}
