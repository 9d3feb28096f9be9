//! Property-based tests for the utility layer: hashing, RNG, statistics.

use proptest::prelude::*;

use avmem_util::stats::{Histogram, Summary};
use avmem_util::{
    consistent_hash, consistent_hash_keyed, normalized_hash, sha256, Availability, NodeId, Rng,
    SplitMix64,
};

proptest! {
    #[test]
    fn sha256_is_deterministic(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        prop_assert_eq!(sha256(&data), sha256(&data));
    }

    #[test]
    fn sha256_appending_changes_digest(data in proptest::collection::vec(any::<u8>(), 0..256), extra in any::<u8>()) {
        let mut longer = data.clone();
        longer.push(extra);
        prop_assert_ne!(sha256(&data), sha256(&longer));
    }

    #[test]
    fn normalized_hash_in_unit_interval(data in proptest::collection::vec(any::<u8>(), 0..128)) {
        let h = normalized_hash(&data);
        prop_assert!((0.0..1.0).contains(&h));
    }

    #[test]
    fn consistent_hash_is_pure(x in any::<u64>(), y in any::<u64>()) {
        let a = consistent_hash(NodeId::new(x), NodeId::new(y));
        let b = consistent_hash(NodeId::new(x), NodeId::new(y));
        prop_assert_eq!(a, b);
        prop_assert!((0.0..1.0).contains(&a));
    }

    #[test]
    fn keyed_hashes_differ_across_domains(x in any::<u64>(), y in any::<u64>()) {
        let a = consistent_hash_keyed(b"domain-a", NodeId::new(x), NodeId::new(y));
        let b = consistent_hash_keyed(b"domain-b", NodeId::new(x), NodeId::new(y));
        // Equality would be a 2^-53 coincidence; treat as failure.
        prop_assert_ne!(a, b);
    }

    #[test]
    fn rng_range_respects_bound(seed in any::<u64>(), bound in 1u64..u64::MAX) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..32 {
            prop_assert!(rng.range_u64(bound) < bound);
        }
    }

    #[test]
    fn rng_f64_in_unit_interval(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..64 {
            let v = rng.next_f64();
            prop_assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn shuffle_is_permutation(seed in any::<u64>(), len in 0usize..64) {
        let mut rng = SplitMix64::new(seed);
        let mut values: Vec<usize> = (0..len).collect();
        rng.shuffle(&mut values);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..len).collect::<Vec<_>>());
    }

    #[test]
    fn sample_is_distinct_subset(seed in any::<u64>(), n in 1usize..100, k in 0usize..32) {
        let mut rng = SplitMix64::new(seed);
        let picked = rng.sample(0..n, k);
        prop_assert_eq!(picked.len(), k.min(n));
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), picked.len());
        prop_assert!(picked.iter().all(|&v| v < n));
    }

    #[test]
    fn availability_new_accepts_exactly_unit_interval(v in -2.0f64..3.0) {
        let result = Availability::new(v);
        prop_assert_eq!(result.is_ok(), (0.0..=1.0).contains(&v));
        if let Ok(av) = result {
            prop_assert_eq!(av.value(), v);
        }
    }

    #[test]
    fn availability_saturating_always_valid(v in any::<f64>()) {
        let av = Availability::saturating(v);
        prop_assert!((0.0..=1.0).contains(&av.value()));
    }

    #[test]
    fn summary_orders_min_median_max(values in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let s = Summary::from_values(values);
        prop_assert!(s.min() <= s.median());
        prop_assert!(s.median() <= s.max());
        prop_assert!(s.min() <= s.mean() && s.mean() <= s.max());
    }

    #[test]
    fn summary_quantiles_monotone(values in proptest::collection::vec(-1e6f64..1e6, 1..100), q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let s = Summary::from_values(values);
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(s.quantile(lo) <= s.quantile(hi));
    }

    #[test]
    fn histogram_total_matches_inserts(values in proptest::collection::vec(0.0f64..=1.0, 0..200), buckets in 1usize..32) {
        let mut h = Histogram::new(buckets);
        for &v in &values {
            h.add(v);
        }
        prop_assert_eq!(h.total(), values.len() as u64);
        let sum: u64 = (0..buckets).map(|i| h.count(i)).sum();
        prop_assert_eq!(sum, values.len() as u64);
    }

    #[test]
    fn ecdf_quantile_inverts(values in proptest::collection::vec(-1e3f64..1e3, 1..100), q in 0.01f64..1.0) {
        let x = Summary::from_values(values.iter().copied()).quantile(q);
        // At least fraction q of samples are ≤ the q-quantile.
        let at_or_below = values.iter().filter(|&&v| v <= x).count();
        prop_assert!(at_or_below as f64 / values.len() as f64 + 1e-12 >= q);
    }
}

mod shard_partition {
    use super::*;
    use avmem_util::ShardPartition;

    proptest! {
        #[test]
        fn every_node_is_owned_exactly_once(n in 0usize..5000, shards in 0usize..64) {
            let part = ShardPartition::new(n, shards);
            // At most one shard a node, and none empty while there are
            // nodes.
            prop_assert!(part.shards() <= n.max(1));
            // Every node has exactly one owner, and the owner's range
            // contains it — i.e. the shard ranges tile 0..n.
            let mut covered = 0usize;
            for s in 0..part.shards() {
                let range = part.range(s);
                prop_assert!(n == 0 || !range.is_empty(), "shard {} is empty", s);
                prop_assert_eq!(range.start, covered, "gap or overlap before shard {}", s);
                for i in range.clone() {
                    prop_assert_eq!(part.owner(i), s);
                }
                covered = range.end;
            }
            prop_assert_eq!(covered, n);
        }

        #[test]
        fn shard_sizes_are_balanced(n in 1usize..5000, shards in 1usize..64) {
            let part = ShardPartition::new(n, shards);
            let sizes: Vec<usize> = (0..part.shards()).map(|s| part.range(s).len()).collect();
            let min = *sizes.iter().min().unwrap();
            let max = *sizes.iter().max().unwrap();
            prop_assert!(max - min <= 1, "unbalanced: {:?}", sizes);
            prop_assert_eq!(sizes.iter().sum::<usize>(), n);
        }
    }
}
