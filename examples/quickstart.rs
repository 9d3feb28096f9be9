//! Quickstart: build an AVMEM overlay over synthetic Overnet churn and
//! run one of each management operation.
//!
//! Run with:
//!
//! ```text
//! cargo run -p avmem_integration --release --example quickstart
//! ```

use avmem::harness::{AvmemSim, InitiatorBand, SimConfig};
use avmem::ops::{AnycastConfig, AvailabilityTarget, MulticastConfig};
use avmem_sim::SimDuration;
use avmem_trace::OvernetModel;

fn main() {
    // 1. Workload: an Overnet-like churn trace, 400 hosts, 20-minute
    //    probe slots — the paper's §4 setup at reduced scale.
    let trace = OvernetModel::default().hosts(400).days(2).generate(42);
    let stats = trace.stats();
    println!(
        "trace: {} hosts, {} slots, mean availability {:.2}, mean online {:.0}",
        stats.num_nodes, stats.num_slots, stats.mean_availability, stats.mean_online
    );

    // 2. Build the overlay with the paper's default predicates
    //    (Logarithmic Vertical Sliver + Logarithmic-Constant Horizontal
    //    Sliver, ε = 0.1) and warm up for 24 hours.
    let mut sim = AvmemSim::new(trace, SimConfig::paper_default(7));
    sim.warm_up(SimDuration::from_hours(24));

    let health = sim.health_stats();
    println!(
        "overlay: {} nodes online, mean degree {:.1}, largest component {:.0}%",
        health.online,
        health.mean_degree,
        100.0 * health.largest_component
    );

    // 3. Range-anycast: find some node with availability in [0.85, 0.95],
    //    starting from a mid-availability initiator.
    let target = AvailabilityTarget::range(0.85, 0.95);
    let initiator = sim
        .random_online_initiator(InitiatorBand::Mid)
        .expect("a mid-availability node is online");
    let anycast = sim.anycast(initiator, target, AnycastConfig::paper_default());
    match anycast.delivered_to {
        Some(node) => println!(
            "anycast {target}: delivered to {node} in {} hops, {} ms",
            anycast.hops,
            anycast.latency.as_millis()
        ),
        None => println!("anycast {target}: dropped ({:?})", anycast.drop_reason),
    }

    // 4. Threshold-multicast: flood every node with availability > 0.7.
    let target = AvailabilityTarget::threshold(0.7);
    let initiator = sim
        .random_online_initiator(InitiatorBand::High)
        .expect("a high-availability node is online");
    let multicast = sim.multicast(initiator, target, MulticastConfig::paper_default());
    let world = sim.world();
    println!(
        "multicast {target}: {} eligible, reliability {:.0}%, spam {:.1}%, worst latency {} ms, {} messages",
        multicast.eligible,
        100.0 * multicast.reliability(&world, target).unwrap_or(0.0),
        100.0 * multicast.spam_ratio(&world, target).unwrap_or(0.0),
        multicast.worst_latency().map(|d| d.as_millis()).unwrap_or(0),
        multicast.messages
    );
}
