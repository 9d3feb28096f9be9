//! The built-in scenario library.
//!
//! Each entry is scenario text (the same format users write) parsed on
//! demand — so the library doubles as a living test bed for the parser,
//! and `scenario show <name>` prints a copy-paste-able starting point.

use crate::parse::parse_spec;
use crate::spec::ScenarioSpec;

/// One library entry.
struct Builtin {
    name: &'static str,
    blurb: &'static str,
    source: &'static str,
}

const BUILTINS: &[Builtin] = &[
    Builtin {
        name: "overnet-day",
        blurb: "paper-faithful Overnet day: 1442 hosts, live maintenance, mixed anycast/multicast",
        source: r#"
name = "overnet-day"
seed = 7
warmup_mins = 360
duration_mins = 1440
health_every_mins = 60

[churn]
model = "overnet"
hosts = 1442
days = 2

[maintenance]
mode = "event-driven"
protocol_secs = 60
refresh_mins = 20
engine = "sharded"

[workload]
ops_per_hour = 60.0
anycast_fraction = 0.7
policy = "retried-greedy"
retries = 8
scope = "both"
ttl = 6
initiators = "any"
multicast = "flood"

[[target]]
weight = 2.0
kind = "range"
lo = 0.85
hi = 0.95

[[target]]
weight = 1.0
kind = "range"
lo = 0.15
hi = 0.25

[[target]]
weight = 1.0
kind = "threshold"
min = 0.7
"#,
    },
    Builtin {
        name: "grid-reboot",
        blurb: "Grid'5000 reboot storm: 600 machines cycling tens of times per day",
        source: r#"
name = "grid-reboot"
seed = 11
warmup_mins = 120
duration_mins = 720
health_every_mins = 60

[churn]
model = "grid"
machines = 600
days = 1

[maintenance]
mode = "event-driven"
protocol_secs = 60
refresh_mins = 10
engine = "sharded"

[workload]
ops_per_hour = 90.0
anycast_fraction = 0.6
policy = "retried-greedy"
retries = 8
scope = "both"
ttl = 6
initiators = "any"
multicast = "gossip"
fanout = 5
rounds = 2
gossip_period_secs = 1

[[target]]
weight = 1.0
kind = "threshold"
min = 0.5

[[target]]
weight = 1.0
kind = "range"
lo = 0.6
hi = 0.9
"#,
    },
    Builtin {
        name: "flash-crowd",
        blurb: "flash-crowd join: 60% of 800 hosts arrive a quarter into the trace",
        source: r#"
name = "flash-crowd"
seed = 13
warmup_mins = 120
duration_mins = 720
health_every_mins = 60

[churn]
model = "flash-crowd"
hosts = 800
days = 1
fraction = 0.6
switch_at = 0.25

[maintenance]
mode = "event-driven"
protocol_secs = 60
refresh_mins = 20
engine = "sharded"

[workload]
ops_per_hour = 60.0
anycast_fraction = 0.8
policy = "retried-greedy"
retries = 8
scope = "both"
ttl = 6
initiators = "any"
multicast = "flood"

[[target]]
weight = 1.0
kind = "range"
lo = 0.6
hi = 0.9
"#,
    },
    Builtin {
        name: "mass-departure",
        blurb: "mass departure: half of 800 hosts go dark mid-run",
        source: r#"
name = "mass-departure"
seed = 17
warmup_mins = 120
duration_mins = 720
health_every_mins = 60

[churn]
model = "mass-departure"
hosts = 800
days = 1
fraction = 0.5
switch_at = 0.5

[maintenance]
mode = "event-driven"
protocol_secs = 60
refresh_mins = 10
engine = "sharded"

[workload]
ops_per_hour = 60.0
anycast_fraction = 0.8
policy = "retried-greedy"
retries = 8
scope = "both"
ttl = 6
initiators = "any"
multicast = "flood"

[[target]]
weight = 1.0
kind = "threshold"
min = 0.6
"#,
    },
    Builtin {
        name: "selfish-mix",
        blurb: "5% selfish flooders under a noisy oracle, cushion 0.1",
        source: r#"
name = "selfish-mix"
seed = 19
warmup_mins = 240
duration_mins = 720
health_every_mins = 60

[churn]
model = "overnet"
hosts = 500
days = 1

[oracle]
kind = "noisy"
error = 0.05
staleness_mins = 20

[maintenance]
mode = "converged"
rebuild_every_mins = 60
engine = "sharded"

[workload]
ops_per_hour = 120.0
anycast_fraction = 0.8
policy = "greedy"
scope = "both"
ttl = 6
initiators = "any"
multicast = "flood"

[[target]]
weight = 2.0
kind = "range"
lo = 0.85
hi = 0.95

[[target]]
weight = 1.0
kind = "threshold"
min = 0.7

[adversary]
flooder_fraction = 0.05
cushion = 0.1
probes = 40
"#,
    },
    Builtin {
        name: "stress-10k",
        blurb: "10,000-host formation throughput: live maintenance plus operations after a 30-min warm-up",
        source: r#"
# stress-10k measures formation throughput, not the paper's regime: 30
# minutes of warm-up leave the overlay still forming. The oracle is
# Exact, so only the overlay is young.
name = "stress-10k"
seed = 23
warmup_mins = 30
duration_mins = 120
health_every_mins = 30

[churn]
model = "overnet"
hosts = 10000
days = 1

[maintenance]
mode = "event-driven"
protocol_secs = 60
refresh_mins = 20
engine = "sharded"

[workload]
ops_per_hour = 30.0
anycast_fraction = 0.9
policy = "retried-greedy"
retries = 8
scope = "both"
ttl = 6
initiators = "any"
multicast = "flood"

[[target]]
weight = 1.0
kind = "range"
lo = 0.85
hi = 0.95
"#,
    },
    Builtin {
        name: "stress-10k-avmon",
        blurb: "10,000-host formation throughput at full AVMON fidelity after a 30-min warm-up, estimates less than 3 h old",
        source: r#"
# stress-10k-avmon measures formation throughput, not the paper's
# regime: 30 minutes of warm-up leave the overlay still forming, and
# every AVMON estimate it reads is less than 3 h old.
name = "stress-10k-avmon"
seed = 27
warmup_mins = 30
duration_mins = 120
health_every_mins = 30

[churn]
model = "overnet"
hosts = 10000
days = 1

[oracle]
kind = "avmon"

[maintenance]
mode = "event-driven"
protocol_secs = 60
refresh_mins = 20
engine = "sharded"

[workload]
ops_per_hour = 30.0
anycast_fraction = 0.9
policy = "retried-greedy"
retries = 8
scope = "both"
ttl = 6
initiators = "any"
multicast = "flood"

[[target]]
weight = 1.0
kind = "range"
lo = 0.85
hi = 0.95
"#,
    },
    Builtin {
        name: "serve-100k",
        blurb: "100,000-host formation throughput under serve or run: one million ops per simulated day after a 10-min warm-up, ring-AVMON estimates less than 3 h old",
        source: r#"
# serve-100k measures formation throughput, not the paper's regime: 10
# minutes of warm-up leave the overlay still forming, and every AVMON
# estimate it reads is less than 3 h old.
name = "serve-100k"
seed = 29
warmup_mins = 10
duration_mins = 20
health_every_mins = 10

[churn]
model = "overnet"
hosts = 100000
days = 1

[oracle]
kind = "avmon"
assignment = "ring"
vnodes = 8
monitors = 8

[maintenance]
mode = "event-driven"
protocol_secs = 60
refresh_mins = 20
engine = "sharded"

[workload]
ops_per_hour = 41666.0
anycast_fraction = 0.9
policy = "retried-greedy"
retries = 8
scope = "both"
ttl = 6
initiators = "any"
multicast = "flood"

[[target]]
weight = 1.0
kind = "range"
lo = 0.85
hi = 0.95

[serve]
ops_per_day = 1000000.0
pace = 0.0
lag_budget_ms = 2000
"#,
    },
    Builtin {
        name: "stress-1m",
        blurb: "1,000,000-host formation throughput after a 4-min warm-up: ring-AVMON monitoring (estimates less than 3 h old), live maintenance and operations",
        source: r#"
# stress-1m measures formation throughput, not the paper's regime: 4
# minutes of warm-up leave the overlay still forming, and every AVMON
# estimate it reads is less than 3 h old.
name = "stress-1m"
seed = 31
warmup_mins = 4
duration_mins = 8
health_every_mins = 4

[churn]
model = "overnet"
hosts = 1000000
days = 1

[oracle]
kind = "avmon"
assignment = "ring"
vnodes = 4
monitors = 8

[maintenance]
mode = "event-driven"
protocol_secs = 60
refresh_mins = 20
engine = "sharded"

[workload]
ops_per_hour = 30.0
anycast_fraction = 0.9
policy = "retried-greedy"
retries = 8
scope = "both"
ttl = 6
initiators = "any"
multicast = "flood"

[[target]]
weight = 1.0
kind = "range"
lo = 0.85
hi = 0.95
"#,
    },
    Builtin {
        name: "smoke",
        blurb: "CI-sized sanity run: 120 hosts, one hour of mixed traffic (< 1 s)",
        source: r#"
name = "smoke"
seed = 3
warmup_mins = 720
duration_mins = 60
health_every_mins = 30

[churn]
model = "overnet"
hosts = 120
days = 1

[maintenance]
mode = "converged"
rebuild_every_mins = 30
engine = "sharded"

[workload]
ops_per_hour = 120.0
anycast_fraction = 0.75
policy = "retried-greedy"
retries = 8
scope = "both"
ttl = 6
initiators = "any"
multicast = "flood"

[[target]]
weight = 2.0
kind = "range"
lo = 0.85
hi = 0.95

[[target]]
weight = 1.0
kind = "threshold"
min = 0.7
"#,
    },
];

/// Names of every built-in scenario, in presentation order.
pub fn builtin_names() -> Vec<&'static str> {
    BUILTINS.iter().map(|b| b.name).collect()
}

/// One-line description of a built-in scenario.
pub fn builtin_blurb(name: &str) -> Option<&'static str> {
    BUILTINS.iter().find(|b| b.name == name).map(|b| b.blurb)
}

/// The scenario text of a built-in (what `scenario show` prints).
pub fn builtin_source(name: &str) -> Option<&'static str> {
    BUILTINS
        .iter()
        .find(|b| b.name == name)
        .map(|b| b.source.trim_start_matches('\n'))
}

/// Parses a built-in scenario by name.
pub fn builtin(name: &str) -> Option<ScenarioSpec> {
    let source = builtin_source(name)?;
    Some(parse_spec(source).unwrap_or_else(|e| panic!("builtin {name} does not parse: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_builtins_parse_and_validate() {
        for name in builtin_names() {
            let spec = builtin(name).unwrap_or_else(|| panic!("missing builtin {name}"));
            assert_eq!(spec.name, name, "builtin name must match its key");
            spec.validate()
                .unwrap_or_else(|e| panic!("builtin {name} invalid: {e}"));
            assert!(builtin_blurb(name).is_some());
        }
    }

    #[test]
    fn builtin_traces_cover_their_runs() {
        // No trace is generated (the 10⁶-host entry would take minutes):
        // `validate` holds warmup + duration against the declared days,
        // and the check bites — two more days of warm-up fail every entry.
        for name in builtin_names() {
            let mut spec = builtin(name).unwrap();
            spec.validate().unwrap_or_else(|e| panic!("builtin {name} outruns its trace: {e}"));
            spec.warmup_mins += 2 * 1440;
            let err = spec.validate().expect_err("two more days of warm-up outrun every builtin");
            assert!(err.to_string().contains("generated trace covers"), "{name}: {err}");
        }
    }

    #[test]
    fn unknown_builtin_is_none() {
        assert!(builtin("no-such-scenario").is_none());
        assert!(builtin_source("no-such-scenario").is_none());
    }
}
