//! Shape assertions over the figure harness itself: every experiment of
//! the `figures` binary runs at reduced scale and must reproduce the
//! paper's qualitative shape (who wins, directions of effects, bounds).
//! The paper's own bands, at the paper's scale, are the claim rows that
//! `tests/paper_claims.rs` checks.

use avmem_bench::experiments::Harness;
use avmem_bench::{figures, paper};

/// 200 hosts × 2 days, 25 messages a run, 2 runs an operation point.
fn small() -> Harness {
    Harness::over(paper::base(200, 2, 25), 2)
}

#[test]
fn fig2_availability_skew_and_sliver_shapes() {
    let fig = figures::fig2(&small());
    assert!(fig.online > 20, "too few online nodes: {}", fig.online);
    // Fig 2c: VS uncorrelated with availability.
    assert!(
        fig.vs_correlation.abs() < 0.4,
        "VS correlation {}",
        fig.vs_correlation
    );
    // Fig 2b: HS size grows (weakly, log-scale) with availability under
    // the Overnet-like online distribution. At this reduced scale the
    // effect is noisy, so only rule out a clear *negative* trend; the
    // full-scale `figures fig2` shows the increasing medians.
    assert!(
        fig.hs_correlation > -0.25,
        "HS correlation {} is clearly negative",
        fig.hs_correlation
    );
}

#[test]
fn fig3_sublinear_scaling() {
    let fig = figures::fig3(&small());
    assert!(fig.points.len() >= 3);
    // The least-squares exponent of |HS| against in-band candidates.
    assert!((0.0..1.0).contains(&fig.exponent), "exponent {} is not sublinear", fig.exponent);
}

#[test]
fn fig4_incoming_links_flat() {
    let fig = figures::fig4(&small());
    // Links should not simply mirror the population distribution.
    assert!(
        fig.population_correlation < 0.9,
        "links track population too closely: {}",
        fig.population_correlation
    );
}

#[test]
fn fig56_attack_bounds_and_cushion_tradeoff() {
    let fig = figures::fig56(&small());
    let max = |series: &[Option<f64>]| {
        series.iter().flatten().fold(0.0f64, |acc, &v| acc.max(v))
    };
    let mean = |series: &[Option<f64>]| {
        let present: Vec<f64> = series.iter().flatten().copied().collect();
        present.iter().sum::<f64>() / present.len().max(1) as f64
    };
    // Fig 5 shape: flooding acceptance low everywhere.
    assert!(
        max(&fig.flooding_strict) < 0.3,
        "flooding acceptance too high: {}",
        max(&fig.flooding_strict)
    );
    // Fig 6 shape: cushion reduces rejection.
    assert!(
        mean(&fig.rejection_cushion) <= mean(&fig.rejection_strict),
        "cushion should reduce rejections"
    );
    // And the cushion's cost: acceptance surface grows (or stays equal).
    assert!(mean(&fig.flooding_cushion) >= mean(&fig.flooding_strict));
}

#[test]
fn fig7_easy_anycast_one_hop_except_hs_only() {
    let fig = figures::fig7(&small());
    for (name, delivered, per_hop) in &fig.variants {
        if name == "HS-only" {
            continue;
        }
        let delivered = delivered.expect("anycasts were sent");
        let per_hop: Vec<f64> = per_hop.iter().map(|f| f.expect("anycasts were sent")).collect();
        // Paper: ~100% at 442 online nodes. Full scale does not reach it
        // either: `figures fig7` at 1 442 hosts prints 0.86 for HS+VS,
        // because 35 of its 259 greedy anycasts meet a stored neighbor
        // that has gone offline (`next_hop_offline`), which plain greedy
        // does not retry; retried-greedy (retries 8) delivers all 259.
        // At this reduced scale (≈80 online) stored lists are smaller
        // still, so the bound is softer.
        assert!(delivered > 0.6, "{name} delivered only {delivered}");
        // Most deliveries within two hops for vertical-capable variants.
        // (The paper's one-hop w.h.p. claim holds at 442+ online nodes,
        // where every node has an in-range vertical neighbor w.h.p.; at
        // ~90 online the expected in-range VS population is ~1, so a
        // second hop is routinely needed.)
        let within_two = per_hop[0] + per_hop[1] + per_hop[2];
        assert!(
            within_two > 0.6 * delivered,
            "{name}: only {within_two} of {delivered} within two hops"
        );
    }
}

#[test]
fn fig8_harshness_ordering() {
    let fig = figures::fig8(&small());
    // Mean success per row should not increase as targets get harsher.
    let row_mean = |fractions: &Vec<Option<f64>>| {
        let sent: Vec<f64> = fractions.iter().map(|f| f.expect("anycasts were sent")).collect();
        sent.iter().sum::<f64>() / sent.len().max(1) as f64
    };
    let (easy, harsh) = (row_mean(&fig.rows[0].1), row_mean(&fig.rows[2].1));
    assert!(harsh <= easy + 0.05, "harsh {harsh} should not beat easy {easy}");
}

#[test]
fn fig9_retry_plateau_and_fig10_baseline_gap() {
    let figures::Fig10 { avmem, random } = figures::fig10(&small());
    let delivered = |row: &figures::RetrySweepRow| row.delivered.expect("anycasts were sent");
    // Delivery should not decrease with more retries.
    for window in avmem.rows.windows(2) {
        assert!(
            delivered(&window[1]) >= delivered(&window[0]) - 0.15,
            "delivery collapsed between retries {} and {}",
            window[0].retries,
            window[1].retries
        );
    }
    // Fig 10: the availability-aware overlay wins on harsh targets at
    // retry=8 against the paper's CYCLON-size baseline (first sweep).
    let avmem_at_8 = delivered(avmem.rows.iter().find(|r| r.retries == 8).unwrap());
    let random_at_8 = delivered(random[0].rows.iter().find(|r| r.retries == 8).unwrap());
    assert!(
        avmem_at_8 >= random_at_8 - 0.05,
        "AVMEM {avmem_at_8} should be at least random {random_at_8}"
    );
}

#[test]
fn fig11_to_13_multicast_shapes() {
    let fig = figures::fig111213(&small());
    let by_label = |label: &str| {
        fig.scenarios
            .iter()
            .find(|s| s.label == label)
            .unwrap_or_else(|| panic!("missing scenario {label}"))
    };
    let at = |buckets: &avmem_scenario::Buckets, q: f64| {
        buckets.quantile(q).expect("multicasts were measured")
    };
    let flood_high = by_label("HIGH to > 0.90");
    let gossip_high = by_label("Gossip: HIGH to > 0.90");
    let flood = at(&flood_high.reliability, 0.5);
    let gossip = at(&gossip_high.reliability, 0.5);

    // Fig 13: flood reliability beats gossip.
    assert!(flood >= gossip - 0.05, "flood median reliability {flood} vs gossip {gossip}");
    // Fig 13: flood reliability is high in absolute terms.
    assert!(flood > 0.8, "flood reliability {flood}");
    // Fig 11: gossip's worst latency exceeds flood's (periodic rounds vs
    // immediate forwarding).
    let (gossip, flood) = (at(&gossip_high.latency, 0.9), at(&flood_high.latency, 0.9));
    assert!(gossip >= flood, "gossip p90 latency {gossip} should exceed flood {flood}");
    // Fig 12: spam stays low.
    let spam = at(&flood_high.spam, 0.9);
    assert!(spam < 0.2, "spam {spam}");
}

#[test]
fn theorem_checks_hold_at_small_scale() {
    let checks = figures::theorem_checks(&small());
    assert!(checks.component_fraction > 0.9);
    assert!(checks.mean_vs > 0.0);
    // VS prediction within a factor of ~2.5 (finite-size effects).
    let ratio = checks.mean_vs / checks.predicted_vs;
    assert!(
        (0.3..3.5).contains(&ratio),
        "VS size {} vs prediction {}",
        checks.mean_vs,
        checks.predicted_vs
    );
}
