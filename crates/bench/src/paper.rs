//! The paper's evaluation setting (§4) as one scenario spec, and how an
//! experiment reads runs of it.
//!
//! [`base`] is the spec every figure and ablation edits: Overnet churn
//! (20-minute slots), a 24-hour warm-up of converged maintenance over the
//! exact oracle, the default predicates I.B + II.B with ε = 0.1, hops of
//! 20–80 ms, then a 20-minute operation window inside one trace slot with
//! no rebuild in it. "Each point … the average of 5 different protocol
//! runs, each with 50 messages": a run is one seed (with its own trace),
//! and its messages, the window's Poisson arrivals, are its workload. A
//! warm-up never depends on the workload, so each seed is warmed once
//! ([`warmed`]): a snapshot experiment reads that overlay in place, and an
//! operation experiment forks it once per spec of its family ([`pooled`]).

use std::fmt;

use avmem::harness::{MaintenanceEngine, OracleChoice, PredicateChoice};
use avmem::ops::{ForwardPolicy, MulticastStrategy};
use avmem::{AvailabilityTarget, SliverScope};
use avmem_scenario::{
    AnycastStats, BandSpec, ChurnSpec, MaintenanceModeSpec, MaintenanceSpec, MulticastStats,
    ReportSpec, RunSession, ScenarioRunner, ScenarioSpec, TargetMix, WorkloadSpec,
};

/// The trace seed of the paper setting, and the first seed of a sweep.
pub const SEED: u64 = 20070101;

/// Warm-up before any measurement (paper: 24 h).
pub const WARMUP_MINS: u64 = 1440;

/// The operation window: one trace slot.
pub const WINDOW_MINS: u64 = 20;

/// The arrival rate that fires `messages` operations a window, on average.
fn per_run(messages: u64) -> f64 {
    messages as f64 * 60.0 / WINDOW_MINS as f64
}

/// The paper setting over `hosts` Overnet hosts and a `days`-day trace,
/// firing `messages` greedy anycasts a run from any online node into
/// `[0.85, 0.95]`.
pub fn base(hosts: usize, days: u64, messages: u64) -> ScenarioSpec {
    let target = AvailabilityTarget::Range { lo: 0.85, hi: 0.95 };
    ScenarioSpec {
        name: "paper".into(),
        seed: SEED,
        duration_mins: WINDOW_MINS,
        warmup_mins: WARMUP_MINS,
        health_every_mins: WINDOW_MINS,
        churn: ChurnSpec::Overnet { hosts, days },
        predicate: PredicateChoice::paper_default(),
        oracle: OracleChoice::Exact,
        maintenance: MaintenanceSpec {
            // Longer than the window: the warm-up's rebuild is the last.
            mode: MaintenanceModeSpec::Converged { rebuild_every_mins: 3 * WINDOW_MINS },
            engine: MaintenanceEngine::Sharded { threads: None },
        },
        workload: WorkloadSpec {
            ops_per_hour: per_run(messages),
            anycast_fraction: 1.0,
            policy: ForwardPolicy::Greedy,
            scope: SliverScope::Both,
            ttl: 6,
            initiators: BandSpec::Any,
            multicast: MulticastStrategy::Flood,
            targets: vec![TargetMix { weight: 1.0, target }],
        },
        adversary: None,
        serve: None,
        report: ReportSpec::default(),
    }
}

/// The Overnet population and trace length of a paper spec.
///
/// # Panics
///
/// Panics unless `spec` runs over Overnet churn, as [`base`] does.
pub fn overnet(spec: &ScenarioSpec) -> (usize, u64) {
    match spec.churn {
        ChurnSpec::Overnet { hosts, days } => (hosts, days),
        ref other => panic!("the paper setting runs over Overnet churn, not {other:?}"),
    }
}

/// `spec` firing only anycasts, from `band` into `target`, forwarded by
/// `policy` over `scope`.
pub fn anycasts(
    spec: &ScenarioSpec,
    band: BandSpec,
    target: AvailabilityTarget,
    policy: ForwardPolicy,
    scope: SliverScope,
) -> ScenarioSpec {
    let (initiators, targets) = (band, vec![TargetMix { weight: 1.0, target }]);
    let workload = WorkloadSpec { initiators, targets, policy, scope, ..spec.workload.clone() };
    ScenarioSpec { workload: WorkloadSpec { anycast_fraction: 1.0, ..workload }, ..spec.clone() }
}

/// `spec` firing retried-greedy anycasts (`retries`) from HIGH initiators
/// into the harsh `[0.15, 0.25]` target (Figs. 9–10).
pub fn harsh(spec: &ScenarioSpec, retries: u32) -> ScenarioSpec {
    let target = AvailabilityTarget::Range { lo: 0.15, hi: 0.25 };
    let retried = ForwardPolicy::RetriedGreedy { retries };
    anycasts(spec, BandSpec::High, target, retried, SliverScope::Both)
}

/// `spec` firing only multicasts, from `band` into `target`, entered by a
/// retried-greedy anycast (retry 8) and disseminated by `multicast` — at
/// most ten a run: a multicast touches many nodes.
pub fn multicasts(
    spec: &ScenarioSpec,
    band: BandSpec,
    target: AvailabilityTarget,
    multicast: MulticastStrategy,
) -> ScenarioSpec {
    let retried = ForwardPolicy::RetriedGreedy { retries: 8 };
    let mut spec = anycasts(spec, band, target, retried, SliverScope::Both);
    spec.workload.anycast_fraction = 0.0;
    spec.workload.multicast = multicast;
    spec.workload.ops_per_hour = spec.workload.ops_per_hour.min(per_run(10));
    spec
}

/// The simulation `spec` describes, warmed up: the overlay every
/// operation of its window would run over.
///
/// # Panics
///
/// Panics if `spec` does not validate (the experiments build theirs in
/// code).
pub fn warmed(spec: &ScenarioSpec) -> RunSession {
    ScenarioRunner::new(spec.clone())
        .and_then(|runner| runner.session())
        .unwrap_or_else(|e| panic!("{}: {e}", spec.name))
}

/// The operation counts of runs of one spec, pooled.
#[derive(Debug, Clone)]
pub struct Pooled {
    /// Anycast counts over every run.
    pub anycast: AnycastStats,
    /// Multicast counts over every run.
    pub multicast: MulticastStats,
    /// Operations skipped because no eligible initiator was online.
    pub skipped_ops: u64,
}

impl Pooled {
    /// The fraction of anycasts sent that were delivered.
    pub fn delivery(&self) -> Option<f64> {
        ratio(self.anycast.delivered as f64, self.anycast.sent)
    }
}

/// Runs every spec of `family` once per seed `seed .. seed + runs`, each
/// a fork of that seed's one warm-up ([`RunSession::fork`]), and pools
/// each spec's reports.
///
/// # Panics
///
/// Panics if `runs` is not zero and `family` is empty, or if a spec does
/// not validate or warms up differently from the first.
pub fn pooled(family: &[ScenarioSpec], runs: u64) -> Vec<Pooled> {
    let reseeded =
        |spec: &ScenarioSpec, run| ScenarioSpec { seed: spec.seed + run, ..spec.clone() };
    let (anycast, multicast) = (AnycastStats::new(), MulticastStats::new());
    let mut pooled = vec![Pooled { anycast, multicast, skipped_ops: 0 }; family.len()];
    for run in 0..runs {
        let warm = warmed(&reseeded(&family[0], run));
        for (spec, pool) in family.iter().zip(&mut pooled) {
            let mut session =
                warm.fork(reseeded(spec, run)).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            while session.step().is_some() {}
            let report = session.finish();
            pool.anycast.merge(&report.anycast);
            pool.multicast.merge(&report.multicast);
            pool.skipped_ops += report.skipped_ops;
        }
    }
    pooled
}

/// `part / whole`; `None` when nothing was measured.
pub fn ratio(part: f64, whole: u64) -> Option<f64> {
    (whole > 0).then(|| part / whole as f64)
}

/// `value` right-aligned in `width` columns with `digits` decimals, or
/// `-` when there is no value.
pub fn cell(value: Option<f64>, width: usize, digits: usize) -> String {
    match value {
        Some(v) => format!("{v:>width$.digits$}"),
        None => format!("{:>width$}", "-"),
    }
}

/// The line every operation experiment prints: how many of its
/// operations found no eligible initiator online.
pub fn skipped(f: &mut fmt::Formatter<'_>, ops: u64) -> fmt::Result {
    writeln!(f, "  skipped operations (no eligible initiator online): {ops}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_methodology() {
        let spec = base(1442, 7, 50);
        spec.validate().expect("the paper setting validates");
        assert_eq!((overnet(&spec), spec.seed), ((1442, 7), 20070101));
        // Exactly the harness's paper defaults.
        let (config, paper) = (spec.sim_config(), avmem::harness::SimConfig::paper_default(SEED));
        assert_eq!((config.predicate, config.oracle), (paper.predicate, paper.oracle));
        assert_eq!((config.maintenance, config.engine), (paper.maintenance, paper.engine));
        // 50 arrivals a window on average.
        assert_eq!(spec.workload.ops_per_hour * WINDOW_MINS as f64 / 60.0, 50.0);
    }

    #[test]
    fn small_setup_builds_and_warms_up() {
        let session = warmed(&base(200, 2, 20));
        assert_eq!(session.now().as_millis(), WARMUP_MINS * 60_000);
        assert!(session.sim().health_stats().mean_degree > 0.0);
    }

    #[test]
    fn pooling_sums_the_runs() {
        let spec = base(120, 2, 10);
        let family = [spec.clone(), harsh(&spec, 8)];
        let (one, two) = (pooled(&family, 1), pooled(&family, 2));
        let next = pooled(&[ScenarioSpec { seed: SEED + 1, ..spec }], 1);
        assert_eq!(two[0].anycast.sent, one[0].anycast.sent + next[0].anycast.sent);
        assert_eq!(two[0].skipped_ops, one[0].skipped_ops + next[0].skipped_ops);
        assert!(two[0].anycast.sent > 0);
        // A spec pools the same inside its family as alone.
        let alone = pooled(&family[1..], 2);
        let (inside, alone) = (&two[1], &alone[0]);
        assert_eq!((&inside.anycast, inside.skipped_ops), (&alone.anycast, alone.skipped_ops));
        assert_eq!((ratio(3.0, 0), ratio(3.0, 4)), (None, Some(0.75)));
        assert_eq!((cell(None, 5, 2), cell(Some(0.5), 5, 2)), ("    -".into(), " 0.50".into()));
    }

    #[test]
    #[should_panic(expected = "`oracle`")]
    fn a_family_shares_its_warm_up() {
        let spec = base(120, 2, 10);
        let noisy = ScenarioSpec { oracle: OracleChoice::paper_noise(), ..spec.clone() };
        pooled(&[spec, noisy], 1);
    }
}
