//! Cheapest possible end-to-end wiring check: generate a tiny churn
//! trace, build the harness, warm it up briefly, and run one anycast.
//! Catches cross-crate regressions (trace → harness → ops) without the
//! cost of the full integration suites.

use avmem::harness::{AvmemSim, SimConfig};
use avmem::ops::{run_anycast, AnycastConfig, AvailabilityTarget, OpScratch};
use avmem_sim::{LatencyModel, Network, SimDuration};
use avmem_trace::OvernetModel;
use avmem_util::{NodeId, SplitMix64};

#[test]
fn tiny_overlay_end_to_end() {
    let trace = OvernetModel::default().hosts(60).days(1).generate(7);
    assert_eq!(trace.num_nodes(), 60);

    let mut sim = AvmemSim::new(trace, SimConfig::paper_default(7));
    sim.warm_up(SimDuration::from_hours(6));

    assert!(sim.health_stats().online > 0, "some node must be online");

    let initiator = *sim.online().online().first().expect("an online initiator exists");
    let outcome = run_anycast(
        &sim.world(),
        &mut Network::new(LatencyModel::PAPER, 1),
        &mut SplitMix64::new(2),
        &mut OpScratch::default(),
        NodeId::new(u64::from(initiator)),
        AvailabilityTarget::threshold(0.0),
        AnycastConfig::paper_default(),
    );
    // With a threshold of 0.0 every node is eligible, so the operation
    // must at least make progress even if routing drops the message.
    assert!(outcome.hops > 0 || outcome.delivered_to.is_some());
}
