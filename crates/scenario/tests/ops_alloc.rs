//! A warm multicast allocates its outcome and nothing else: no buffer
//! sized by the population is allocated per call. Counted with the
//! counting allocator this crate installs (`heap-stats`, on by default);
//! the file holds one test so no other thread allocates meanwhile.

use avmem::harness::{AvmemSim, SimConfig};
use avmem::ops::{
    run_multicast, AvailabilityTarget, MulticastConfig, MulticastStrategy, OpScratch,
};
use avmem_sim::{LatencyModel, Network, SimDuration};
use avmem_trace::OvernetModel;
use avmem_util::heap::{alloc_calls, heap_tracking_installed};
use avmem_util::{NodeId, Rng, SplitMix64};

/// Purpose tags of an operation's two keyed streams, shaped like the
/// scenario runner's `(seed, purpose, op index)` keys.
const STREAM_OP: u64 = 0x5ce0_0004;
const STREAM_NET: u64 = 0x5ce0_0005;

#[test]
fn warm_multicast_allocations_do_not_grow_with_the_population() {
    assert!(heap_tracking_installed(), "needs the heap-stats feature");
    let target = AvailabilityTarget::threshold(0.5);
    let seed = 1;
    for hosts in [300, 1500] {
        let trace = OvernetModel::default().hosts(hosts).days(1).generate(1);
        let mut sim = AvmemSim::new(trace, SimConfig::paper_default(seed));
        sim.warm_up(SimDuration::from_hours(24));
        let high = |i: &&u32| sim.trace().long_term_availability(**i as usize).value() >= 2.0 / 3.0;
        let initiator = sim.online().online().iter().find(high).expect("online initiator");
        let initiator = NodeId::new(u64::from(*initiator));
        // What the runner's `fire_op` does per multicast: both streams
        // keyed by the operation's index, the scratch reused across calls.
        let mut scratch = OpScratch::default();
        let mut fire = |index: u64, config: MulticastConfig| {
            let mut rng = SplitMix64::keyed(&[seed, STREAM_OP, index]);
            let net_seed = SplitMix64::keyed(&[seed, STREAM_NET, index]).next_u64();
            let mut net = Network::new(LatencyModel::PAPER, net_seed);
            let world = sim.world();
            run_multicast(&world, &mut net, &mut rng, &mut scratch, initiator, target, config)
        };
        for (op, strategy) in [MulticastStrategy::Flood, MulticastStrategy::paper_gossip()]
            .into_iter()
            .enumerate()
        {
            let config = MulticastConfig {
                strategy,
                ..MulticastConfig::paper_default()
            };
            let op = 2 * op as u64;
            // The first call sizes the scratch for this population.
            let warm = fire(op, config);
            assert!(
                warm.deliveries.len() > hosts / 10 && warm.messages > warm.deliveries.len() as u64,
                "{hosts} hosts, {strategy:?}: reached {} with {} messages",
                warm.deliveries.len(),
                warm.messages
            );
            let before = alloc_calls();
            let again = fire(op + 1, config);
            let allocations = alloc_calls() - before;
            assert_eq!(again.deliveries.len(), warm.deliveries.len());
            // The anycast path (grown hop by hop) and the delivery list.
            assert!(
                allocations <= 6,
                "{hosts} hosts, {strategy:?}: {allocations} allocations in a warm multicast"
            );
        }
    }
}
