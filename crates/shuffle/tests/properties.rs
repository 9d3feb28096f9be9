//! Property-based tests for the shuffle substrate's invariants.

use proptest::prelude::*;

use avmem_shuffle::{
    sim::RoundSim, EntryPool, ShuffleConfig, ShuffleNode, View, ViewEntry,
};
use avmem_util::{NodeId, SplitMix64, StampedTable};

proptest! {
    #[test]
    fn view_never_exceeds_capacity(
        capacity in 1usize..16,
        // View ids are index-space: u32 by contract.
        inserts in proptest::collection::vec((any::<u32>().prop_map(u64::from), 0u32..100), 0..64),
    ) {
        let mut view = View::new(capacity);
        for (id, age) in inserts {
            view.insert(ViewEntry { id: NodeId::new(id), age });
            prop_assert!(view.len() <= capacity);
        }
    }

    #[test]
    fn view_never_holds_duplicates(
        capacity in 1usize..16,
        inserts in proptest::collection::vec((0u64..8, 0u32..100), 0..64),
    ) {
        let mut view = View::new(capacity);
        for (id, age) in inserts {
            view.insert(ViewEntry { id: NodeId::new(id), age });
        }
        let mut ids: Vec<u64> = view.ids().map(|i| i.raw()).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        prop_assert_eq!(ids.len(), before);
    }

    #[test]
    fn merge_never_introduces_self_or_overflows(
        capacity in 1usize..12,
        resident in proptest::collection::vec(0u64..20, 0..12),
        incoming in proptest::collection::vec((0u64..20, 0u32..50), 0..24),
    ) {
        let me = NodeId::new(99);
        let mut view = View::new(capacity);
        for id in resident {
            view.insert(ViewEntry::fresh(NodeId::new(id)));
        }
        let entries: Vec<ViewEntry> = incoming
            .into_iter()
            .map(|(id, age)| ViewEntry { id: NodeId::new(id), age })
            .collect();
        view.merge(me, &entries, &[], &mut StampedTable::new());
        prop_assert!(view.len() <= capacity);
        prop_assert!(!view.contains(me));
    }

    #[test]
    fn exchange_preserves_population_invariants(seed in any::<u64>(), n in 2usize..40) {
        // After arbitrary rounds, no view contains its owner or exceeds
        // its capacity, and every referenced id is a real node.
        let mut sim = RoundSim::new(n, ShuffleConfig::new(6.min(n), 3.min(n)), seed);
        sim.run_rounds(15);
        for (i, node) in sim.nodes().iter().enumerate() {
            prop_assert!(node.view().len() <= 6.min(n));
            prop_assert!(!node.view().contains(NodeId::new(i as u64)));
            for entry in node.view().iter() {
                prop_assert!((entry.id.raw() as usize) < n);
            }
        }
    }

    #[test]
    fn request_always_carries_fresh_self(seed in any::<u64>(), peers in 1u64..10) {
        let cfg = ShuffleConfig::new(8, 4);
        let mut node = ShuffleNode::new(NodeId::new(0), cfg, seed);
        node.bootstrap((1..=peers).map(NodeId::new));
        let request = node.initiate_with(&mut EntryPool::new());
        if let Some((_, entries)) = request {
            prop_assert!(entries.iter().any(|e| e.id == NodeId::new(0) && e.age == 0));
            prop_assert!(entries.len() <= 4);
        }
    }

    #[test]
    fn handle_request_reply_is_bounded(seed in any::<u64>(), peers in 0u64..12) {
        let cfg = ShuffleConfig::new(8, 4);
        let mut a = ShuffleNode::new(NodeId::new(0), cfg, seed);
        let mut b = ShuffleNode::new(NodeId::new(1), cfg, seed.wrapping_add(1));
        a.bootstrap([NodeId::new(1)]);
        b.bootstrap((2..2 + peers).map(NodeId::new));
        if let Some((_, request)) = a.initiate_with(&mut EntryPool::new()) {
            let reply = b.handle_request_with(request, &mut EntryPool::new());
            prop_assert!(reply.len() <= 4);
            a.handle_reply_with(reply, &mut EntryPool::new());
            prop_assert!(a.view().len() <= 8);
            prop_assert!(!a.view().contains(NodeId::new(0)));
        }
    }

    #[test]
    fn pooled_paths_match_allocating_paths_with_a_dirty_pool(
        seed in any::<u64>(),
        peers_a in 1u64..10,
        peers_b in 0u64..12,
        junk in proptest::collection::vec((0u32..50, 0u32..9), 0..8),
    ) {
        // Twin protocol runs: `fresh` hands every call a brand-new pool,
        // `pooled` threads one long-lived pool through every call. Buffer
        // reuse must be invisible — any recycled contents leaking into a
        // later exchange diverges the twins immediately.
        let cfg = ShuffleConfig::new(8, 4);
        let mut pool = EntryPool::new();
        // Pre-dirty the pool with buffers that held unrelated entries.
        for &(id, age) in &junk {
            let mut buf = pool.take(2);
            buf.push(ViewEntry { id: NodeId::new(u64::from(id)), age });
            buf.push(ViewEntry::fresh(NodeId::new(u64::from(id) + 1)));
            pool.recycle(buf);
        }
        let mut a_fresh = ShuffleNode::new(NodeId::new(0), cfg, seed);
        let mut a_pooled = ShuffleNode::new(NodeId::new(0), cfg, seed);
        a_fresh.bootstrap((1..=peers_a).map(NodeId::new));
        a_pooled.bootstrap((1..=peers_a).map(NodeId::new));
        let mut b_fresh = ShuffleNode::new(NodeId::new(100), cfg, seed.wrapping_add(1));
        let mut b_pooled = ShuffleNode::new(NodeId::new(100), cfg, seed.wrapping_add(1));
        b_fresh.bootstrap((101..101 + peers_b).map(NodeId::new));
        b_pooled.bootstrap((101..101 + peers_b).map(NodeId::new));

        for round in 0..6u64 {
            let mut rng_fresh = SplitMix64::keyed(&[seed, round]);
            let mut rng_pooled = rng_fresh.clone();
            let proposal_fresh = a_fresh.propose_with(&mut rng_fresh, &mut EntryPool::new());
            let proposal_pooled = a_pooled.propose_with(&mut rng_pooled, &mut pool);
            prop_assert_eq!(&proposal_fresh, &proposal_pooled, "round {}", round);
            prop_assert_eq!(rng_fresh, rng_pooled, "round {}: rng consumption", round);
            let (Some(pf), Some(pp)) = (proposal_fresh, proposal_pooled) else {
                break;
            };
            if round % 3 == 2 {
                // A proposal abandoned before becoming a request (its
                // target went offline, in harness terms).
                pp.recycle_into(&mut pool);
                continue;
            }
            let target = pf.target();
            a_fresh.apply_with(&pf, &mut EntryPool::new());
            a_pooled.apply_with(&pp, &mut pool);
            let (_, request_fresh) = pf.into_request();
            let (_, request_pooled) = pp.into_request();
            let reply_fresh = b_fresh.handle_request_with(request_fresh, &mut EntryPool::new());
            let reply_pooled = b_pooled.handle_request_with(request_pooled, &mut pool);
            prop_assert_eq!(&reply_fresh, &reply_pooled, "round {}", round);
            if round % 2 == 0 {
                a_fresh.handle_reply_with(reply_fresh, &mut EntryPool::new());
                a_pooled.handle_reply_with(reply_pooled, &mut pool);
            } else {
                a_fresh.handle_timeout_with(target, &mut EntryPool::new());
                a_pooled.handle_timeout_with(target, &mut pool);
            }
            prop_assert_eq!(a_fresh.view(), a_pooled.view(), "round {}: initiator", round);
            prop_assert_eq!(b_fresh.view(), b_pooled.view(), "round {}: responder", round);
        }
    }
}
