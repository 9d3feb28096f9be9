//! End-to-end overlay properties over the full harness: the §4.1
//! microbenchmark claims, checked as assertions at reduced scale.

use avmem::harness::{AvmemSim, MaintenanceMode, OracleChoice, SimConfig};
use avmem::SliverScope;
use avmem_bench::figures::{hs_scaling_points, online_and_vs_in_links, sliver_sizes};
use avmem_sim::SimDuration;
use avmem_trace::OvernetModel;
use avmem_util::stats::correlation;
use avmem_util::NodeId;

fn warmed(seed: u64, hosts: usize) -> AvmemSim {
    let trace = OvernetModel::default().hosts(hosts).days(2).generate(31);
    let mut sim = AvmemSim::new(trace, SimConfig::paper_default(seed));
    sim.warm_up(SimDuration::from_hours(24));
    sim
}

#[test]
fn overlay_is_connected_after_warmup() {
    let sim = warmed(1, 250);
    assert!(
        sim.health_stats().largest_component > 0.95,
        "overlay should be (nearly) fully connected"
    );
}

#[test]
fn vertical_sliver_sizes_uncorrelated_with_availability() {
    // Fig. 2c: "median values of the vertical sliver sizes are
    // uncorrelated to the availability."
    let sim = warmed(2, 250);
    let points: Vec<(f64, f64)> = sliver_sizes(&sim.world(), SliverScope::VsOnly)
        .into_iter()
        .map(|(a, s)| (a, s as f64))
        .collect();
    let corr = correlation(&points);
    assert!(
        corr.abs() < 0.35,
        "VS size correlates with availability: {corr}"
    );
}

#[test]
fn horizontal_sliver_grows_sublinearly() {
    // Fig. 3: HS size grows sublinearly with the number of in-band
    // candidates: the marginal growth flattens.
    let sim = warmed(3, 300);
    let points = hs_scaling_points(&sim.world(), sim.predicate().epsilon());
    let max_c = points.iter().map(|p| p.0).fold(0.0f64, f64::max);
    assert!(max_c > 0.0);
    let low: Vec<(f64, f64)> = points.iter().copied().filter(|p| p.0 <= max_c / 2.0).collect();
    let high: Vec<(f64, f64)> = points.iter().copied().filter(|p| p.0 > max_c / 2.0).collect();
    if low.len() > 10 && high.len() > 10 {
        let slope_low = avmem_util::stats::slope(&low);
        let slope_high = avmem_util::stats::slope(&high);
        assert!(
            slope_high <= slope_low + 0.05,
            "HS growth not sublinear: low {slope_low}, high {slope_high}"
        );
    }
}

#[test]
fn incoming_vs_links_do_not_follow_population() {
    // Fig. 4: incoming VS links per availability range are "largely
    // uncorrelated to the distribution of nodes".
    let sim = warmed(4, 300);
    let (histogram, links) = online_and_vs_in_links(&sim.world(), 10);
    // Compare the shape: links per bucket should be much flatter than the
    // (skewed) population. Use the ratio of coefficients of variation.
    let populated: Vec<(f64, f64)> = (0..10)
        .filter(|&b| histogram.count(b) > 0)
        .map(|b| (histogram.count(b) as f64, links.count(b) as f64))
        .collect();
    assert!(populated.len() >= 4, "too few populated buckets");
    let cv = |values: &[f64]| {
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let var =
            values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / values.len() as f64;
        if mean == 0.0 {
            0.0
        } else {
            var.sqrt() / mean
        }
    };
    let pop_cv = cv(&populated.iter().map(|p| p.0).collect::<Vec<_>>());
    let link_cv = cv(&populated.iter().map(|p| p.1).collect::<Vec<_>>());
    assert!(
        link_cv < pop_cv * 1.25,
        "links (cv {link_cv:.2}) should be flatter than population (cv {pop_cv:.2})"
    );
}

#[test]
fn membership_lists_scale_logarithmically() {
    // Theorem 3: expected total degree O(log N*). Check the mean degree
    // doesn't explode with N.
    let small = warmed(5, 150);
    let large = warmed(5, 450);
    let d_small = small.health_stats().mean_degree;
    let d_large = large.health_stats().mean_degree;
    // Tripling N should grow the degree far less than 3×.
    assert!(
        d_large < d_small * 2.0,
        "degree grew too fast: {d_small} → {d_large}"
    );
}

#[test]
fn event_driven_converges_to_predicate_overlay() {
    let trace = OvernetModel::default().hosts(150).days(2).generate(31);
    let mut converged_cfg = SimConfig::paper_default(6);
    converged_cfg.oracle = OracleChoice::Exact;
    let mut reference = AvmemSim::new(trace.clone(), converged_cfg);
    reference.warm_up(SimDuration::from_hours(24));

    let mut ed_cfg = SimConfig::paper_default(6);
    ed_cfg.maintenance = MaintenanceMode::paper_event_driven();
    let mut sim = AvmemSim::new(trace, ed_cfg);
    sim.warm_up(SimDuration::from_hours(24));

    // Compare per-node membership against the converged reference for
    // online nodes: discovered entries must be a subset, and coverage
    // should be substantial after a day of 1-minute protocol periods.
    let mut covered = 0usize;
    let mut expected = 0usize;
    for i in 0..sim.trace().num_nodes() {
        if !sim.trace().is_online(i, sim.now()) {
            continue;
        }
        let id = NodeId::new(i as u64);
        let reference_membership = reference.membership(id);
        let discovered = sim.membership(id);
        expected += reference_membership.len();
        for nb in discovered.neighbors(SliverScope::Both) {
            assert!(
                reference_membership.contains(nb.id),
                "discovered non-neighbor {}",
                nb.id
            );
            covered += 1;
        }
    }
    assert!(expected > 0);
    let coverage = covered as f64 / expected as f64;
    assert!(
        coverage > 0.5,
        "event-driven coverage after 24h only {coverage:.2}"
    );
}

#[test]
fn deterministic_given_seed() {
    let (a, b) = (warmed(9, 150), warmed(9, 150));
    for id in a.trace().node_ids() {
        assert_eq!(a.membership(id), b.membership(id), "node {id}");
    }
}
