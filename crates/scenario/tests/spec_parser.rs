//! Property tests for the scenario text format: render → parse is the
//! identity on arbitrary valid specs, and malformed inputs are rejected
//! with the offending line number.

use proptest::prelude::*;

use avmem::harness::{MaintenanceEngine, OracleChoice, PredicateChoice};
use avmem::ops::{ForwardPolicy, MulticastStrategy};
use avmem::predicate::{HorizontalRule, VerticalRule};
use avmem::{AvailabilityTarget, SliverScope};
use avmem_avmon::{AssignmentChoice, AvmonConfig};
use avmem_scenario::{
    parse_spec, AdversarySpec, BandSpec, ChurnSpec, MaintenanceModeSpec, MaintenanceSpec,
    ReportSpec, ScenarioError, ScenarioSpec, ServeSpec, TargetMix, WorkloadSpec,
};
use avmem_sim::SimDuration;

fn arb_churn() -> impl Strategy<Value = ChurnSpec> {
    prop_oneof![
        (1usize..5000, 1u64..8)
            .prop_map(|(hosts, days)| ChurnSpec::Overnet { hosts, days }),
        (1usize..5000, 1u64..8)
            .prop_map(|(machines, days)| ChurnSpec::Grid { machines, days }),
        (1usize..5000, 1u64..8, 0.0f64..=1.0, 0.0f64..=1.0).prop_map(
            |(hosts, days, fraction, switch_at)| ChurnSpec::FlashCrowd {
                hosts,
                days,
                fraction,
                switch_at,
            }
        ),
        (1usize..5000, 1u64..8, 0.0f64..=1.0, 0.0f64..=1.0).prop_map(
            |(hosts, days, fraction, switch_at)| ChurnSpec::MassDeparture {
                hosts,
                days,
                fraction,
                switch_at,
            }
        ),
        (0u64..1000).prop_map(|n| ChurnSpec::TraceFile {
            path: format!("traces/churn-{n}.avt"),
        }),
    ]
}

fn arb_predicate() -> impl Strategy<Value = PredicateChoice> {
    let vertical = prop_oneof![
        (0.0f64..=1.0).prop_map(|d1| VerticalRule::Constant { d1 }),
        (0.1f64..10.0).prop_map(|c1| VerticalRule::Logarithmic { c1 }),
        (0.1f64..10.0).prop_map(|c1| VerticalRule::LogarithmicDecreasing { c1 }),
    ];
    let horizontal = prop_oneof![
        (0.0f64..=1.0).prop_map(|d2| HorizontalRule::Constant { d2 }),
        (0.1f64..10.0).prop_map(|c2| HorizontalRule::LogarithmicConstant { c2 }),
    ];
    prop_oneof![
        (0.01f64..0.49, vertical, horizontal).prop_map(|(epsilon, vertical, horizontal)| {
            PredicateChoice::Avmem { epsilon, vertical, horizontal }
        }),
        (1.0f64..40.0).prop_map(|expected_degree| PredicateChoice::Random { expected_degree }),
    ]
}

fn arb_oracle() -> impl Strategy<Value = OracleChoice> {
    let staleness = (1u64..120).prop_map(SimDuration::from_mins);
    let assignment = prop_oneof![
        Just(AssignmentChoice::AllPairs),
        (1u32..32, 1u32..16).prop_map(|(vnodes, k)| AssignmentChoice::Ring { vnodes, k }),
    ];
    prop_oneof![
        Just(OracleChoice::Exact),
        (0.0f64..0.5, staleness.clone())
            .prop_map(|(error, staleness)| OracleChoice::Noisy { error, staleness }),
        (0.0f64..0.5, staleness)
            .prop_map(|(error, staleness)| OracleChoice::NoisyShared { error, staleness }),
        // The format writes the assignment only; the rest stays default.
        assignment.prop_map(|assignment| OracleChoice::Avmon {
            config: AvmonConfig { assignment, ..AvmonConfig::default() },
        }),
    ]
}

fn arb_maintenance() -> impl Strategy<Value = MaintenanceSpec> {
    let mode = prop_oneof![
        (1u64..600, 1u64..120).prop_map(|(protocol_secs, refresh_mins)| {
            MaintenanceModeSpec::EventDriven {
                protocol_secs,
                refresh_mins,
            }
        }),
        (1u64..240).prop_map(|rebuild_every_mins| MaintenanceModeSpec::Converged {
            rebuild_every_mins,
        }),
    ];
    // `None` is auto (written `0`); a count is at least one.
    let count = || prop_oneof![Just(None), (1usize..16).prop_map(Some)];
    let engine = prop_oneof![
        Just(MaintenanceEngine::Serial),
        (count(), count())
            .prop_map(|(shards, threads)| MaintenanceEngine::Sharded { shards, threads }),
    ];
    (mode, engine).prop_map(|(mode, engine)| MaintenanceSpec { mode, engine })
}

fn arb_target() -> impl Strategy<Value = TargetMix> {
    let target = prop_oneof![
        (0.0f64..=1.0, 0.0f64..=1.0).prop_map(|(a, b)| {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            AvailabilityTarget::Range { lo, hi }
        }),
        (0.0f64..1.0).prop_map(|min| AvailabilityTarget::Threshold { min }),
    ];
    (0.01f64..10.0, target).prop_map(|(weight, target)| TargetMix { weight, target })
}

fn arb_workload() -> impl Strategy<Value = WorkloadSpec> {
    let policy = prop_oneof![
        Just(ForwardPolicy::Greedy),
        (1u32..20).prop_map(|retries| ForwardPolicy::RetriedGreedy { retries }),
        Just(ForwardPolicy::SimulatedAnnealing),
    ];
    let scope = prop_oneof![
        Just(SliverScope::HsOnly),
        Just(SliverScope::VsOnly),
        Just(SliverScope::Both)
    ];
    let band = prop_oneof![
        Just(BandSpec::Low),
        Just(BandSpec::Mid),
        Just(BandSpec::High),
        Just(BandSpec::Any),
    ];
    let multicast = prop_oneof![
        Just(MulticastStrategy::Flood),
        (1u32..10, 1u32..6, 1u64..10).prop_map(|(fanout, rounds, period_secs)| {
            MulticastStrategy::Gossip {
                fanout,
                rounds,
                period: SimDuration::from_secs(period_secs),
            }
        }),
    ];
    (
        (0.0f64..500.0, 0.0f64..=1.0, 1u32..12),
        policy,
        scope,
        band,
        multicast,
        proptest::collection::vec(arb_target(), 1..4),
    )
        .prop_map(
            |((ops_per_hour, anycast_fraction, ttl), policy, scope, initiators, multicast, targets)| {
                WorkloadSpec {
                    ops_per_hour,
                    anycast_fraction,
                    policy,
                    scope,
                    ttl,
                    initiators,
                    multicast,
                    targets,
                }
            },
        )
}

fn arb_adversary() -> impl Strategy<Value = Option<AdversarySpec>> {
    prop_oneof![
        Just(None),
        (0.0f64..=1.0, 0.0f64..0.5, 1u32..100).prop_map(|(flooder_fraction, cushion, probes)| {
            Some(AdversarySpec {
                flooder_fraction,
                cushion,
                probes,
            })
        }),
    ]
}

fn arb_serve() -> impl Strategy<Value = Option<ServeSpec>> {
    prop_oneof![
        Just(None),
        (
            prop_oneof![Just(None), (1.0f64..1.0e7).prop_map(Some)],
            0.0f64..1000.0,
            0u64..60_000,
        )
            .prop_map(|(ops_per_day, pace, lag_budget_ms)| {
                Some(ServeSpec {
                    ops_per_day,
                    pace,
                    lag_budget_ms,
                })
            }),
    ]
}

fn arb_report() -> impl Strategy<Value = ReportSpec> {
    prop_oneof![
        Just(ReportSpec::default()),
        (0u64..10_000).prop_map(|estimator_samples| ReportSpec { estimator_samples }),
    ]
}

fn arb_spec() -> impl Strategy<Value = ScenarioSpec> {
    (
        (0u64..1000, 0u64..u64::from(u32::MAX), 1u64..3000, 0u64..3000, 1u64..240),
        arb_churn(),
        arb_predicate(),
        arb_oracle(),
        arb_maintenance(),
        (arb_workload(), arb_adversary(), arb_serve(), arb_report()),
    )
        .prop_map(
            |(
                (name_tag, seed, duration_mins, warmup_mins, health_every_mins),
                churn,
                predicate,
                oracle,
                maintenance,
                (workload, adversary, serve, report),
            )| {
                // A generated trace has to cover the run it is for.
                let mut churn = churn;
                if let ChurnSpec::Overnet { days, .. }
                | ChurnSpec::Grid { days, .. }
                | ChurnSpec::FlashCrowd { days, .. }
                | ChurnSpec::MassDeparture { days, .. } = &mut churn
                {
                    *days = (*days).max((warmup_mins + duration_mins).div_ceil(1440));
                }
                ScenarioSpec {
                    name: format!("generated-{name_tag}"),
                    seed,
                    duration_mins,
                    warmup_mins,
                    health_every_mins,
                    churn,
                    predicate,
                    oracle,
                    maintenance,
                    workload,
                    adversary,
                    serve,
                    report,
                }
            },
        )
}

proptest! {
    #[test]
    fn render_parse_round_trips(spec in arb_spec()) {
        let rendered = spec.render();
        let reparsed = match parse_spec(&rendered) {
            Ok(reparsed) => reparsed,
            Err(e) => panic!("rendered spec did not parse: {e}\n{rendered}"),
        };
        prop_assert_eq!(spec, reparsed);
    }

    #[test]
    fn rendering_is_stable(spec in arb_spec()) {
        // render(parse(render(s))) == render(s): one canonical text.
        let rendered = spec.render();
        let again = parse_spec(&rendered).expect("round trip").render();
        prop_assert_eq!(rendered, again);
    }

    #[test]
    fn generated_specs_validate(spec in arb_spec()) {
        // The generators stay inside every invariant validate() checks.
        prop_assert!(spec.validate().is_ok(), "{:?}", spec.validate().err());
    }
}

/// Corrupting any single line of a rendered spec must never be silently
/// *misread* — it either still parses (the line was a no-op change) or
/// fails with that line's number.
#[test]
fn corrupted_lines_are_rejected_with_their_line_number() {
    let spec = avmem_scenario::builtin::builtin("overnet-day").unwrap();
    let rendered = spec.render();
    let lines: Vec<&str> = rendered.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let mut corrupted = lines.clone();
        let broken = format!("{line} ??");
        corrupted[i] = &broken;
        let text = corrupted.join("\n");
        match parse_spec(&text) {
            Ok(_) => panic!("corrupting line {} was accepted: {broken:?}", i + 1),
            Err(e) => assert_eq!(
                e.line,
                i + 1,
                "corrupted line {} reported at line {}: {e}",
                i + 1,
                e.line
            ),
        }
    }
}

#[test]
fn malformed_inputs_name_the_offending_line() {
    let cases: &[(&str, usize, &str)] = &[
        ("name = \"x\"\n[churn\n", 2, "unterminated"),
        ("name = \"x\"\n[[churn]]\n", 2, "unknown section [[churn]] (write [churn])"),
        ("name = \"x\"\n= 4\n", 2, "invalid key"),
        ("name = \"x\"\nkey =\n", 2, "no value"),
        ("name = unquoted\n", 1, "double-quoted"),
        (
            "name = \"x\"\n[churn]\nmodel = \"overnet\"\nhosts = -3\ndays = 1\n",
            4,
            "non-negative integer",
        ),
        (
            "name = \"x\"\n[churn]\nmodel = \"martian\"\n",
            3,
            "has unknown value \"martian\" (accepted: overnet, grid,",
        ),
        (
            "name = \"x\"\n[churn]\nmodel = \"overnet\"\nhosts = 9\ndays = 1\n\
             [workload]\nops_per_hour = \"fast\"\n",
            7,
            "needs a number",
        ),
    ];
    for &(input, line, needle) in cases {
        let err = parse_spec(input).unwrap_err();
        assert_eq!(err.line, line, "{input:?} reported {err}");
        assert!(
            err.message.contains(needle),
            "{input:?} produced {err:?}, expected {needle:?}"
        );
    }
}

/// Every integer key whose field is narrower than `u64`: the field's
/// largest value parses to itself, and one past it is an error at that
/// line naming the bound — `ttl = 4294967302` used to run as `ttl = 6`.
#[test]
fn integers_too_wide_for_their_field_are_errors_not_wraps() {
    // (section the key lives in, its lines before the key, the key)
    let head = "name = \"x\"\n[churn]\nmodel = \"overnet\"\nhosts = 9\ndays = 1\n";
    let workload = "[workload]\nops_per_hour = 1.0\n";
    let ring = "[oracle]\nkind = \"avmon\"\nassignment = \"ring\"\n";
    let narrow: &[(String, &str)] = &[
        (format!("{head}{ring}"), "vnodes"),
        (format!("{head}{ring}"), "monitors"),
        (
            format!("{head}{workload}policy = \"retried-greedy\"\n"),
            "retries",
        ),
        (format!("{head}{workload}"), "ttl"),
        (
            format!("{head}{workload}multicast = \"gossip\"\n"),
            "fanout",
        ),
        (
            format!("{head}{workload}multicast = \"gossip\"\n"),
            "rounds",
        ),
        (
            format!("{head}{workload}[adversary]\nflooder_fraction = 0.1\n"),
            "probes",
        ),
    ];
    let field = |spec: &ScenarioSpec, key: &str| -> u32 {
        match (
            key,
            &spec.oracle,
            &spec.workload.policy,
            &spec.workload.multicast,
        ) {
            ("vnodes" | "monitors", OracleChoice::Avmon { config }, ..) => {
                match (key, config.assignment) {
                    ("vnodes", AssignmentChoice::Ring { vnodes, .. }) => vnodes,
                    (_, AssignmentChoice::Ring { k, .. }) => k,
                    _ => panic!("{key} outside a ring: {spec:?}"),
                }
            }
            ("retries", _, ForwardPolicy::RetriedGreedy { retries }, _) => *retries,
            ("ttl", ..) => spec.workload.ttl,
            ("fanout", _, _, MulticastStrategy::Gossip { fanout, .. }) => *fanout,
            ("rounds", _, _, MulticastStrategy::Gossip { rounds, .. }) => *rounds,
            ("probes", ..) => spec.adversary.as_ref().unwrap().probes,
            _ => panic!("key {key:?} did not land in its field: {spec:?}"),
        }
    };
    for (before, key) in narrow {
        let line = before.lines().count() + 1;
        // `[workload]` is required; sections after the key keep its line.
        let after = if before.contains("[workload]") {
            ""
        } else {
            workload
        };
        let at_max = format!("{before}{key} = {}\n{after}", u32::MAX);
        let spec = parse_spec(&at_max).unwrap_or_else(|e| panic!("{key} = u32::MAX: {e}"));
        assert_eq!(field(&spec, key), u32::MAX, "{key}");
        for wide in [u64::from(u32::MAX) + 1, u64::from(u32::MAX) + 7, u64::MAX] {
            let err = parse_spec(&format!("{before}{key} = {wide}\n{after}")).unwrap_err();
            assert_eq!(err.line, line, "{key} = {wide} reported {err}");
            assert!(
                err.message.contains("at most 4294967295"),
                "{key} = {wide}: {err}"
            );
        }
    }

    // `usize` fields hold any `u64` on a 64-bit target and narrow on a
    // 32-bit one; either way the value is kept or refused, never cut.
    let wide = u64::from(u32::MAX) + 1;
    for (before, key) in [
        (
            "name = \"x\"\n[churn]\nmodel = \"overnet\"\ndays = 1\n".to_string(),
            "hosts",
        ),
        (
            format!("{head}[maintenance]\nmode = \"event-driven\"\n"),
            "shards",
        ),
        (
            format!("{head}[maintenance]\nmode = \"event-driven\"\nengine = \"sharded\"\n"),
            "threads",
        ),
    ] {
        let line = before.lines().count() + 1;
        let parsed = parse_spec(&format!("{before}{key} = {wide}\n{workload}"));
        match usize::try_from(wide) {
            Ok(kept) => {
                let spec = parsed.unwrap_or_else(|e| panic!("{key} = {wide}: {e}"));
                let got = match (key, &spec.churn, spec.maintenance.engine) {
                    ("hosts", ChurnSpec::Overnet { hosts, .. }, _) => *hosts,
                    ("shards", _, MaintenanceEngine::Sharded { shards: Some(n), .. }) => n,
                    ("threads", _, MaintenanceEngine::Sharded { threads: Some(n), .. }) => n,
                    _ => panic!("key {key:?} did not land in its field: {spec:?}"),
                };
                assert_eq!(got, kept, "{key}");
            }
            Err(_) => assert_eq!(parsed.unwrap_err().line, line, "{key}"),
        }
    }
}

/// The path `scenario check` takes on a spec file: the text parses — a
/// long horizon is well-formed — and `validate` turns it down, because
/// 60 simulated days is past what a `u32`-millisecond membership stamp
/// can hold.
#[test]
fn a_sixty_day_horizon_parses_and_fails_validation() {
    let text = "name = \"sixty-days\"\nduration_mins = 86400\n\
                [churn]\nmodel = \"overnet\"\nhosts = 30\ndays = 60\n\
                [workload]\nops_per_hour = 1.0\n\
                [[target]]\nweight = 1.0\nkind = \"threshold\"\nmin = 0.5\n";
    let spec = parse_spec(text).expect("a long horizon is well-formed text");
    assert_eq!(spec.duration_mins, 86_400);
    let Err(ScenarioError::Invalid(msg)) = spec.validate() else {
        panic!("a 60-day horizon must not validate");
    };
    assert!(msg.contains("71582"), "{msg}");
}

/// A key beside a choice that gives it no field used to be type-checked
/// and dropped — `scenario check` said `ok` on a spec that then ran a
/// different experiment. Each is refused at its own line, naming the
/// choice that rules it out; `kind = "exact"` + `error` always was.
#[test]
fn keys_without_meaning_under_the_chosen_variant_are_refused() {
    let head = "name = \"x\"\n[churn]\nmodel = \"overnet\"\nhosts = 9\ndays = 1\n";
    let workload = "[workload]\nops_per_hour = 1.0\n";
    let avmon = "[oracle]\nkind = \"avmon\"\n";
    let exact = "[oracle]\nkind = \"exact\"\n";
    let (greedy, flood) = ("policy = \"greedy\"", "multicast = \"flood\"");
    let (pred, ia, iia) = ("[predicate]\n", "vertical = \"I.A\"", "horizontal = \"II.A\"");
    let random = "kind = \"random\"";
    // (the spec's lines after the churn section, the key, what rules it out)
    let cases = [
        (format!("{workload}{greedy}\nretries = 3\n"), "retries", greedy),
        // The choice left at its default rules a key out just the same.
        (format!("{workload}retries = 3\n"), "retries", greedy),
        (format!("{workload}{flood}\nfanout = 9\n"), "fanout", flood),
        (format!("{workload}rounds = 2\n"), "rounds", flood),
        (format!("{workload}gossip_period_secs = 1\n"), "gossip_period_secs", flood),
        (format!("{avmon}vnodes = 4\n{workload}"), "vnodes", "assignment = \"all-pairs\""),
        (format!("{avmon}monitors = 4\n{workload}"), "monitors", "assignment = \"all-pairs\""),
        (format!("[oracle]\nvnodes = 4\n{workload}"), "vnodes", "kind = \"exact\""),
        (format!("{exact}error = 0.4\n{workload}"), "error", "kind = \"exact\""),
        // §2.1's rule family: a rule's constant lives under that rule only.
        (format!("{pred}{ia}\nd1 = 0.1\nc1 = 2.5\n{workload}"), "c1", ia),
        (format!("{pred}c1 = 2.5\n{ia}\nd1 = 0.1\n{workload}"), "c1", ia),
        (format!("{pred}d1 = 0.1\n{workload}"), "d1", "vertical = \"I.B\""),
        (format!("{pred}d2 = 0.3\n{workload}"), "d2", "horizontal = \"II.B\""),
        (format!("{pred}{iia}\nd2 = 0.3\nc2 = 2.0\n{workload}"), "c2", iia),
        (format!("{pred}degree = 8.0\n{workload}"), "degree", "kind = \"avmem\""),
        (format!("{pred}{random}\ndegree = 8.0\nc1 = 2.5\n{workload}"), "c1", random),
    ];
    for (rest, key, choice) in cases {
        let text = format!("{head}{rest}");
        let line = 1 + text.lines().position(|l| l.starts_with(&format!("{key} ="))).unwrap();
        let err = parse_spec(&text).unwrap_err();
        assert_eq!(err.line, line, "{key}: {err}");
        assert_eq!(err.message, format!("key {key:?} has no meaning with {choice}"));
    }
}

/// `scenario check` used to say `ok` on both of these and leave the
/// failure to `run`: a run longer than the trace generated for it (found
/// after generating the trace), and a day count that overflows the
/// generators' allocation (a panic).
#[test]
fn a_run_its_generated_trace_cannot_cover_fails_before_the_trace_is_built() {
    let spec_with = |days: &str, top: &str| {
        format!(
            "name = \"x\"\n{top}[churn]\nmodel = \"overnet\"\nhosts = 60\ndays = {days}\n\
             [workload]\nops_per_hour = 1.0\n"
        )
    };
    // Well-formed text, a cross-key rule: `validate`'s to refuse.
    let text = spec_with("1", "warmup_mins = 1000\nduration_mins = 1000\n");
    let spec = parse_spec(&text).expect("each value is within its own range");
    let Err(ScenarioError::Invalid(msg)) = spec.validate() else {
        panic!("a 2000-min run over a 1-day trace must not validate");
    };
    assert!(msg.contains("needs 2000 min") && msg.contains("covers 1440 min"), "{msg}");
    let text = spec_with("2", "warmup_mins = 1000\nduration_mins = 1000\n");
    parse_spec(&text).unwrap().validate().expect("two days cover 2000 min");

    // One value out of its own range: the parser's, at the value's line.
    for days in ["0", "3651", "18446744073709551615"] {
        let err = parse_spec(&spec_with(days, "")).unwrap_err();
        assert_eq!(err.line, 5, "days = {days}: {err}");
        assert!(err.message.starts_with("key \"days\" must be at "), "days = {days}: {err}");
    }
    parse_spec(&spec_with("3650", "")).expect("the bound itself is accepted");
}

/// A value outside its key's range is an error at its line, not a
/// line-less `invalid scenario:` after the file was accepted.
#[test]
fn a_value_outside_its_range_is_an_error_at_its_line() {
    let text = "name = \"x\"\n[churn]\nmodel = \"overnet\"\nhosts = 9\ndays = 1\n\
                [predicate]\nkind = \"avmem\"\n\nepsilon = 0.9\n[workload]\nops_per_hour = 1.0\n";
    let err = parse_spec(text).unwrap_err();
    assert_eq!(err.to_string(), "line 9: key \"epsilon\" must be in (0, 0.5), found 0.9");
}
