//! Fingerprinting an availability range with range-multicast.
//!
//! §1 of the paper: range operations "can be used to fingerprint
//! characteristics of the nodes within an availability range, e.g., one
//! could find out the average bandwidth of nodes below a certain
//! availability, in order to correlate the two facts."
//!
//! This example assigns every host a synthetic bandwidth (correlated
//! with availability plus noise — home DSL nodes churn more, university
//! hosts stay up), then surveys three availability ranges with
//! range-multicast and aggregates the reported bandwidths of the
//! responders. The survey recovers the underlying correlation without
//! contacting nodes outside the ranges.
//!
//! Run with:
//!
//! ```text
//! cargo run -p avmem_integration --release --example fingerprint_survey
//! ```

use avmem::harness::{AvmemSim, SimConfig};
use avmem::ops::{run_multicast, AvailabilityTarget, MulticastConfig, OpScratch};
use avmem_scenario::BandSpec;
use avmem_sim::{LatencyModel, Network, SimDuration};
use avmem_trace::OvernetModel;
use avmem_util::{NodeId, Rng, SplitMix64};

/// Synthetic per-host bandwidth in Mbps: base jitter plus an
/// availability-correlated component.
fn bandwidth_mbps(availability: f64, rng: &mut SplitMix64) -> f64 {
    2.0 + 40.0 * availability + rng.range_f64(0.0, 10.0)
}

fn main() {
    let trace = OvernetModel::default().hosts(500).days(2).generate(23);
    let mut bw_rng = SplitMix64::new(99);
    let bandwidths: Vec<f64> = (0..trace.num_nodes())
        .map(|i| bandwidth_mbps(trace.long_term_availability(i).value(), &mut bw_rng))
        .collect();

    let mut sim = AvmemSim::new(trace, SimConfig::paper_default(13));
    sim.warm_up(SimDuration::from_hours(24));

    println!("bandwidth survey via range-multicast (500 hosts):");
    println!("  range          responders  mean bandwidth (survey)  mean bandwidth (census)");

    // Surveys start from mid-availability nodes, and run over a view of
    // the overlay with their own hop-latency network and random stream.
    let mid: Vec<NodeId> = sim
        .online()
        .online()
        .iter()
        .map(|&i| NodeId::new(u64::from(i)))
        .filter(|&id| BandSpec::Mid.contains(sim.trace().long_term_availability(id.raw() as usize)))
        .collect();
    let world = sim.world();
    let mut net = Network::new(LatencyModel::PAPER, 1);
    let mut rng = SplitMix64::new(2);
    let mut scratch = OpScratch::default();

    for (lo, hi) in [(0.1, 0.3), (0.4, 0.6), (0.8, 1.0)] {
        let target = AvailabilityTarget::range(lo, hi);
        if mid.is_empty() {
            continue;
        }
        let initiator = mid[rng.index(mid.len())];
        let config = MulticastConfig::paper_default();
        let outcome =
            run_multicast(&world, &mut net, &mut rng, &mut scratch, initiator, target, config);

        // Responders: every node that received the survey and truly sits
        // in the range reports its bandwidth.
        let responders: Vec<_> = outcome.delivered_in_range(&world, target).collect();
        let survey_mean = if responders.is_empty() {
            f64::NAN
        } else {
            responders
                .iter()
                .map(|id| bandwidths[id.raw() as usize])
                .sum::<f64>()
                / responders.len() as f64
        };

        // Ground-truth census over the whole population, for comparison.
        let census: Vec<f64> = (0..sim.trace().num_nodes())
            .filter(|&i| {
                let av = sim.trace().long_term_availability(i);
                target.contains(av)
            })
            .map(|i| bandwidths[i])
            .collect();
        let census_mean = census.iter().sum::<f64>() / census.len().max(1) as f64;

        println!(
            "  [{lo:.1}, {hi:.1}]     {:>6}       {survey_mean:>10.1} Mbps          {census_mean:>10.1} Mbps",
            responders.len()
        );
    }

    println!();
    println!(
        "the survey's per-range means track the census: higher-availability \
         ranges report higher bandwidth, recovered without any global broadcast"
    );
}
