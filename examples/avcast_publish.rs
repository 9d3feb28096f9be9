//! Availability-dependent publish-subscribe (the AVCast use case),
//! expressed as a declarative scenario.
//!
//! §1 of the paper motivates threshold-multicast with "a
//! publish-subscribe or multicast application where packets are sent out
//! to only nodes above a certain availability … Such a multicast
//! application would incentivize hosts to have higher availability, in
//! order to obtain good reliability."
//!
//! This example describes the publisher's day in the `avmem_scenario`
//! text format — a pure multicast workload above an availability
//! threshold — then runs it twice, comparing flooding and gossip
//! dissemination on reliability and message cost, and shows the
//! incentive effect straight off the report's per-decile delivery
//! series: deliveries per subscriber grow with the subscriber's
//! availability.
//!
//! Run with:
//!
//! ```text
//! cargo run -p avmem_integration --release --example avcast_publish
//! ```

use avmem::ops::MulticastStrategy;
use avmem_scenario::{parse_spec, ScenarioRunner};

const PUBLISH_SCENARIO: &str = r#"
name = "avcast-publish"
seed = 9
warmup_mins = 1440
duration_mins = 360
health_every_mins = 120

[churn]
model = "overnet"
hosts = 400
days = 2

[maintenance]
mode = "converged"
rebuild_every_mins = 60
engine = "sharded"

[workload]
ops_per_hour = 10.0
anycast_fraction = 0.0   # pure publish: every operation is a multicast
policy = "retried-greedy"
retries = 8
scope = "both"
ttl = 6
initiators = "high"
multicast = "flood"

[[target]]
weight = 1.0
kind = "threshold"
min = 0.6
"#;

fn main() {
    let base = parse_spec(PUBLISH_SCENARIO).expect("example scenario parses");

    // Subscriber population per availability decile, for the
    // packets-per-subscriber incentive curve.
    let trace = base.build_trace().expect("trace builds");
    let mut subscribers = [0usize; 10];
    for i in 0..trace.num_nodes() {
        let av = trace.long_term_availability(i);
        if av.value() > 0.6 {
            subscribers[av.bucket(subscribers.len())] += 1;
        }
    }

    for (label, strategy) in [
        ("flooding", MulticastStrategy::Flood),
        ("gossip", MulticastStrategy::paper_gossip()),
    ] {
        let mut spec = base.clone();
        spec.workload.multicast = strategy;
        let report = ScenarioRunner::new(spec)
            .expect("spec validates")
            .run()
            .expect("scenario runs");

        let m = &report.multicast;
        println!(
            "{label}: published {} packets to subscribers with av > 0.6",
            m.sent
        );
        println!(
            "  mean reliability {:.1}%, spam {:.1}%, {} total messages",
            100.0 * m.mean_reliability(),
            100.0 * m.mean_spam(),
            m.total_messages
        );

        // The incentive effect: packets per subscriber by availability
        // decile (only deciles above the 0.6 threshold are populated).
        println!("  deliveries per subscriber by availability band:");
        for (d, &nodes) in subscribers.iter().enumerate() {
            if nodes == 0 || m.deliveries_by_decile[d] == 0 {
                continue;
            }
            println!(
                "    av ∈ [{:.1}, {:.1}): {:.1} packets/node ({} nodes)",
                d as f64 / 10.0,
                (d + 1) as f64 / 10.0,
                m.deliveries_by_decile[d] as f64 / nodes as f64,
                nodes
            );
        }
    }
}
