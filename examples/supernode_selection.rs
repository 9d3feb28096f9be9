//! Supernode selection via threshold-anycast.
//!
//! §1 of the paper motivates threshold-anycast with "selecting a
//! supernode in a p2p system with a minimal threshold availability"
//! (akin to FastTrack supernodes). This example runs repeated
//! threshold-anycasts (availability > 0.9) from random low- and
//! mid-availability initiators, collects the selected supernodes, and
//! shows the selection is (a) reliable, (b) actually lands on
//! high-availability nodes, and (c) spreads load across several distinct
//! supernodes rather than hammering one.
//!
//! Run with:
//!
//! ```text
//! cargo run -p avmem_integration --release --example supernode_selection
//! ```

use std::collections::BTreeMap;

use avmem::harness::{AvmemSim, SimConfig};
use avmem::ops::{run_anycast, AnycastConfig, AvailabilityTarget, ForwardPolicy, OpScratch};
use avmem::SliverScope;
use avmem_scenario::BandSpec;
use avmem_sim::{LatencyModel, Network, SimDuration};
use avmem_trace::OvernetModel;
use avmem_util::{NodeId, Rng, SplitMix64};

fn main() {
    let trace = OvernetModel::default().hosts(500).days(2).generate(11);
    let mut sim = AvmemSim::new(trace, SimConfig::paper_default(3));
    sim.warm_up(SimDuration::from_hours(24));

    let threshold = 0.9;
    let target = AvailabilityTarget::threshold(threshold);
    let config = AnycastConfig {
        policy: ForwardPolicy::RetriedGreedy { retries: 8 },
        scope: SliverScope::Both,
        ttl: 6,
    };

    let mut selections: BTreeMap<NodeId, usize> = BTreeMap::new();
    let mut attempts = 0;
    let mut delivered = 0;
    let mut total_hops = 0u32;

    // The online initiators of each band, and what every operation runs
    // on: a view of the overlay, a hop-latency network, a random stream.
    let online_in = |band: BandSpec| -> Vec<NodeId> {
        let online = sim.online().online().iter().map(|&i| NodeId::new(u64::from(i)));
        let av = |id: NodeId| sim.trace().long_term_availability(id.raw() as usize);
        online.filter(|&id| band.contains(av(id))).collect()
    };
    let (low, mid) = (online_in(BandSpec::Low), online_in(BandSpec::Mid));
    let world = sim.world();
    let mut net = Network::new(LatencyModel::PAPER, 1);
    let mut rng = SplitMix64::new(2);
    let mut scratch = OpScratch::default();

    for round in 0..100 {
        let band = if round % 2 == 0 { &low } else { &mid };
        if band.is_empty() {
            continue;
        }
        let initiator = band[rng.index(band.len())];
        attempts += 1;
        let outcome =
            run_anycast(&world, &mut net, &mut rng, &mut scratch, initiator, target, config);
        if let Some(supernode) = outcome.delivered_to {
            delivered += 1;
            total_hops += outcome.hops;
            *selections.entry(supernode).or_insert(0) += 1;
        }
    }

    println!("supernode selection: availability > {threshold}");
    println!(
        "  {delivered}/{attempts} selections succeeded, mean hops {:.2}",
        total_hops as f64 / delivered.max(1) as f64
    );
    println!("  {} distinct supernodes selected", selections.len());

    let mut spread: Vec<(usize, NodeId)> = selections
        .iter()
        .map(|(&node, &count)| (count, node))
        .collect();
    spread.sort_unstable_by(|a, b| b.cmp(a));
    println!("  top selections (count, node, true availability):");
    for (count, node) in spread.iter().take(5) {
        let av = sim.trace().long_term_availability(node.raw() as usize);
        println!("    {count:>3}  {node}  av={av}");
    }
}
