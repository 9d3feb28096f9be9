//! A warm multicast allocates its outcome and nothing else: no buffer
//! sized by the population is allocated per call. Counted with the
//! counting allocator this crate installs (`heap-stats`, on by default);
//! the file holds one test so no other thread allocates meanwhile.

use avmem::harness::{AvmemSim, InitiatorBand, SimConfig};
use avmem::ops::{AvailabilityTarget, MulticastConfig, MulticastStrategy};
use avmem_sim::SimDuration;
use avmem_trace::OvernetModel;
use avmem_util::heap::{alloc_calls, heap_tracking_installed};

#[test]
fn warm_multicast_allocations_do_not_grow_with_the_population() {
    assert!(heap_tracking_installed(), "needs the heap-stats feature");
    let target = AvailabilityTarget::threshold(0.5);
    for hosts in [300, 1500] {
        let trace = OvernetModel::default().hosts(hosts).days(1).generate(1);
        let mut sim = AvmemSim::new(trace, SimConfig::paper_default(1));
        sim.warm_up(SimDuration::from_hours(24));
        let initiator = sim
            .random_online_initiator(InitiatorBand::High)
            .expect("online initiator");
        for strategy in [MulticastStrategy::Flood, MulticastStrategy::paper_gossip()] {
            let config = MulticastConfig {
                strategy,
                ..MulticastConfig::paper_default()
            };
            // The first call sizes the scratch for this population.
            let warm = sim.multicast(initiator, target, config);
            assert!(
                warm.deliveries.len() > hosts / 10 && warm.messages > warm.deliveries.len() as u64,
                "{hosts} hosts, {strategy:?}: reached {} with {} messages",
                warm.deliveries.len(),
                warm.messages
            );
            let before = alloc_calls();
            let again = sim.multicast(initiator, target, config);
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
