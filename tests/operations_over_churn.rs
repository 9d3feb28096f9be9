//! Management operations over a churning overlay: §4.2's qualitative
//! claims as assertions at reduced scale — driven through the
//! `avmem_scenario` subsystem, so every experiment here is a declarative
//! spec plus assertions over its report (and doubles as coverage for the
//! scenario runner's operation plumbing).
//!
//! A/B comparisons share one seed: arrivals, target draws and initiator
//! picks come from counter-keyed streams, so two specs differing only in
//! (say) forwarding policy see identical workloads.

use avmem::harness::{OracleChoice, PredicateChoice};
use avmem::ops::{ForwardPolicy, MulticastStrategy};
use avmem::{AvailabilityTarget, SliverScope};
use avmem_avmon::AvmonConfig;
use avmem_scenario::{
    builtin, BandSpec, ChurnSpec, MaintenanceModeSpec, ScenarioReport, ScenarioRunner,
    ScenarioSpec, TargetMix,
};

/// Base experiment: the 300-host Overnet population the original harness
/// tests warmed for 24 h, with converged maintenance and hourly rebuilds.
fn base_spec(seed: u64) -> ScenarioSpec {
    let mut spec = builtin::builtin("smoke").expect("smoke builtin");
    spec.name = "ops-over-churn".into();
    spec.seed = seed;
    spec.churn = ChurnSpec::Overnet { hosts: 300, days: 2 };
    // Rebuild on the 20-minute trace-slot lattice: operations then see an
    // overlay no staler than the paper's snapshot experiments do.
    spec.maintenance.mode = MaintenanceModeSpec::Converged {
        rebuild_every_mins: 20,
    };
    spec.warmup_mins = 24 * 60;
    spec.duration_mins = 120;
    spec.health_every_mins = 60;
    spec.workload.ops_per_hour = 40.0;
    spec.workload.anycast_fraction = 1.0;
    spec.workload.policy = ForwardPolicy::Greedy;
    spec.workload.scope = SliverScope::Both;
    spec.workload.initiators = BandSpec::Mid;
    spec.workload.targets = vec![TargetMix {
        weight: 1.0,
        target: AvailabilityTarget::Range { lo: 0.85, hi: 0.95 },
    }];
    spec
}

fn run(spec: ScenarioSpec) -> ScenarioReport {
    ScenarioRunner::new(spec)
        .expect("spec validates")
        .run()
        .expect("scenario runs")
}

#[test]
fn easy_range_anycast_mostly_one_hop() {
    // Fig. 7: MID → [0.85, 0.95] succeeds essentially always, within ~1
    // hop for variants using the vertical sliver. Operations fire at
    // arbitrary instants of the churning trace (not at the snapshot
    // moment the original harness test used), so plain greedy loses a
    // few messages to just-went-offline next-hops; the acknowledged
    // retried-greedy variant carries the "essentially always" claim.
    let mut spec = base_spec(2);
    spec.workload.policy = ForwardPolicy::RetriedGreedy { retries: 8 };
    let report = run(spec);
    let a = &report.anycast;
    assert!(a.sent >= 20, "only {} anycasts fired", a.sent);
    assert!(
        a.delivery_rate() >= 0.9,
        "only {}/{} delivered",
        a.delivered,
        a.sent
    );
    // Paper (442 online nodes): w.h.p. one hop. At ~120 online the
    // vertical slivers are smaller, so allow some two-hop deliveries.
    let within_one_hop = a.hops_histogram[0] + a.hops_histogram[1];
    assert!(
        within_one_hop as f64 >= 0.7 * a.delivered as f64,
        "only {}/{} within one hop",
        within_one_hop,
        a.delivered
    );
}

#[test]
fn hs_only_needs_more_hops_than_vs() {
    // Fig. 7's qualitative point: HS-only messages crawl through
    // availability space; VS/HS+VS jump. Same seed ⇒ same workload.
    let mut hs_spec = base_spec(2);
    hs_spec.workload.scope = SliverScope::HsOnly;
    let hs = run(hs_spec);
    let both = run(base_spec(2));
    assert!(both.anycast.delivered > 0);
    // HS-only either delivers in more hops or fails much more often.
    let hs_worse = hs.anycast.delivered == 0
        || hs.anycast.mean_hops() > both.anycast.mean_hops()
        || hs.anycast.delivered < both.anycast.delivered / 2;
    assert!(
        hs_worse,
        "HS-only ({} delivered, mean {:.2} hops) should be worse than HS+VS ({}, {:.2})",
        hs.anycast.delivered,
        hs.anycast.mean_hops(),
        both.anycast.delivered,
        both.anycast.mean_hops()
    );
}

#[test]
fn harsh_targets_reduce_delivery() {
    // Fig. 8: lower-availability targets have lower success rates.
    let mut easy_spec = base_spec(3);
    easy_spec.workload.initiators = BandSpec::High;
    let mut harsh_spec = easy_spec.clone();
    harsh_spec.workload.targets = vec![TargetMix {
        weight: 1.0,
        target: AvailabilityTarget::Range { lo: 0.15, hi: 0.25 },
    }];
    let easy = run(easy_spec);
    let harsh = run(harsh_spec);
    assert!(easy.anycast.sent > 0 && harsh.anycast.sent > 0);
    assert!(
        harsh.anycast.delivery_rate() <= easy.anycast.delivery_rate(),
        "harsh target rate {} should not beat easy {}",
        harsh.anycast.delivery_rate(),
        easy.anycast.delivery_rate()
    );
}

#[test]
fn retries_improve_harsh_delivery() {
    // Fig. 9: retried-greedy recovers deliveries that plain greedy loses
    // to offline next-hops.
    let mut plain_spec = base_spec(4);
    plain_spec.workload.initiators = BandSpec::High;
    plain_spec.workload.targets = vec![TargetMix {
        weight: 1.0,
        target: AvailabilityTarget::Range { lo: 0.15, hi: 0.25 },
    }];
    plain_spec.workload.ops_per_hour = 60.0;
    let mut retried_spec = plain_spec.clone();
    retried_spec.workload.policy = ForwardPolicy::RetriedGreedy { retries: 8 };
    let plain = run(plain_spec);
    let retried = run(retried_spec);
    assert!(
        retried.anycast.delivery_rate() >= plain.anycast.delivery_rate(),
        "retried {} should be at least plain {}",
        retried.anycast.delivery_rate(),
        plain.anycast.delivery_rate()
    );
}

#[test]
fn avmem_beats_random_overlay_on_harsh_anycast() {
    // Figs. 9 vs 10: "overlays based on AVMEM predicates give a higher
    // success rate than random graphs". The paper's baseline is a
    // SCAMP/CYCLON-like overlay with O(log N) uniform neighbors — the
    // online population here is ~120, so 2·ln N ≈ 10.
    let mut avmem_spec = base_spec(5);
    avmem_spec.workload.initiators = BandSpec::High;
    avmem_spec.workload.policy = ForwardPolicy::RetriedGreedy { retries: 8 };
    avmem_spec.workload.ops_per_hour = 60.0;
    avmem_spec.workload.targets = vec![TargetMix {
        weight: 1.0,
        target: AvailabilityTarget::Range { lo: 0.15, hi: 0.25 },
    }];
    let mut random_spec = avmem_spec.clone();
    random_spec.predicate = PredicateChoice::Random { expected_degree: 10.0 };
    let avmem = run(avmem_spec);
    let random = run(random_spec);
    assert!(
        avmem.anycast.delivery_rate() >= random.anycast.delivery_rate(),
        "AVMEM rate {} should be at least random-overlay rate {}",
        avmem.anycast.delivery_rate(),
        random.anycast.delivery_rate()
    );
}

#[test]
fn flood_is_reliable_and_gossip_is_cheaper() {
    // Figs. 11/13: flooding reaches >90% of the range; gossip trades
    // reliability for messages.
    let mut flood_spec = base_spec(6);
    flood_spec.workload.anycast_fraction = 0.0;
    flood_spec.workload.policy = ForwardPolicy::RetriedGreedy { retries: 8 };
    flood_spec.workload.initiators = BandSpec::High;
    flood_spec.workload.ops_per_hour = 10.0;
    flood_spec.workload.targets = vec![TargetMix {
        weight: 1.0,
        target: AvailabilityTarget::Threshold { min: 0.7 },
    }];
    let mut gossip_spec = flood_spec.clone();
    gossip_spec.workload.multicast = MulticastStrategy::paper_gossip();
    let flood = run(flood_spec);
    let gossip = run(gossip_spec);
    assert!(flood.multicast.sent > 0, "no multicasts fired");
    assert!(
        flood.multicast.mean_reliability() > 0.85,
        "flood reliability {:.2}",
        flood.multicast.mean_reliability()
    );
    assert!(
        gossip.multicast.total_messages < flood.multicast.total_messages,
        "gossip {} messages should undercut flood {}",
        gossip.multicast.total_messages,
        flood.multicast.total_messages
    );
}

#[test]
fn multicast_spam_stays_low_with_exact_oracle() {
    // Fig. 12: spam ratio below ~8% in most scenarios; with an exact
    // oracle the only spam source is believed-vs-true divergence, which
    // is zero here.
    let mut spec = base_spec(7);
    spec.workload.anycast_fraction = 0.0;
    spec.workload.policy = ForwardPolicy::RetriedGreedy { retries: 8 };
    spec.workload.initiators = BandSpec::High;
    spec.workload.ops_per_hour = 10.0;
    spec.workload.targets = vec![TargetMix {
        weight: 1.0,
        target: AvailabilityTarget::Range { lo: 0.7, hi: 0.9 },
    }];
    let report = run(spec);
    assert!(
        report.multicast.mean_spam() <= 0.01,
        "spam {} with exact oracle",
        report.multicast.mean_spam()
    );
}

#[test]
fn full_stack_event_driven_avmon_operations() {
    // Everything real at once: CYCLON shuffling feeds discovery, AVMON
    // pings produce the availability estimates, refresh keeps lists
    // honest — and operations still work on top, firing between live
    // maintenance cohorts. This is the paper's actual deployment story,
    // not the converged shortcut.
    let mut spec = base_spec(9);
    spec.churn = ChurnSpec::Overnet { hosts: 100, days: 1 };
    spec.maintenance.mode = MaintenanceModeSpec::EventDriven {
        protocol_secs: 60,
        refresh_mins: 20,
    };
    spec.oracle = OracleChoice::Avmon { config: AvmonConfig::default() };
    spec.warmup_mins = 14 * 60;
    spec.duration_mins = 120;
    spec.workload.policy = ForwardPolicy::RetriedGreedy { retries: 8 };
    spec.workload.initiators = BandSpec::Mid;
    spec.workload.targets = vec![TargetMix {
        weight: 1.0,
        target: AvailabilityTarget::Threshold { min: 0.6 },
    }];
    let report = run(spec);
    assert!(
        report.health.last().expect("health sampled").mean_degree > 1.0,
        "event-driven + AVMON built no overlay (degree {})",
        report.health.last().unwrap().mean_degree
    );
    let a = &report.anycast;
    assert!(a.sent > 10, "no initiators online");
    assert!(
        a.delivered * 2 > a.sent,
        "full stack delivered only {}/{}",
        a.delivered,
        a.sent
    );
}

#[test]
fn threshold_and_range_variants_agree() {
    // A threshold b behaves like the range [b, 1.0] (§3.2).
    let mut threshold_spec = base_spec(8);
    threshold_spec.workload.targets = vec![TargetMix {
        weight: 1.0,
        target: AvailabilityTarget::Threshold { min: 0.8 },
    }];
    let mut range_spec = base_spec(8);
    range_spec.workload.targets = vec![TargetMix {
        weight: 1.0,
        target: AvailabilityTarget::Range { lo: 0.8, hi: 1.0 },
    }];
    let threshold = run(threshold_spec);
    let range = run(range_spec);
    let diff =
        (threshold.anycast.delivered as i64 - range.anycast.delivered as i64).abs();
    assert!(
        diff <= 6,
        "threshold {} vs range {}",
        threshold.anycast.delivered,
        range.anycast.delivered
    );
}

#[test]
fn reports_render_without_panicking() {
    // The rendering paths over a real report (text and JSON) stay sound.
    let report = run(base_spec(10));
    let text = report.render_text();
    assert!(text.contains("anycast"));
    let json = report.render_json();
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}
