//! The declarative scenario description.
//!
//! A [`ScenarioSpec`] is everything needed to reproduce one experiment:
//! the churning population, the predicate family, the oracle fidelity,
//! the maintenance mode and engine, the operation workload, and an
//! optional adversary mix. Specs are values — build them in code, or
//! parse/render the text format (see [`crate::parse`]).
//!
//! A choice the harness has a type for is held as that type. The spec's
//! own time quantities are integers in the unit their field name carries
//! (`*_mins`, `*_secs`); a duration inside a harness type is a
//! [`SimDuration`], written in its key's unit (`staleness_mins`,
//! `gossip_period_secs`) and refused by [`ScenarioSpec::validate`] when it
//! is not a whole number of that unit — so specs round-trip through text
//! exactly.

use avmem::harness::{
    MaintenanceEngine, MaintenanceMode, OracleChoice, PredicateChoice, SimConfig,
};
use avmem::ops::{AnycastConfig, ForwardPolicy, MulticastConfig, MulticastStrategy};
use avmem::SliverScope;
use avmem::AvailabilityTarget;
use avmem_avmon::AvmonConfig;
use avmem_sim::SimDuration;
use avmem_trace::{ChurnTrace, CrowdDirection, FlashCrowdModel, GridModel, OvernetModel};
use avmem_util::Availability;

use crate::schema::SECTIONS;

/// Anything that can go wrong building or running a scenario.
#[derive(Debug)]
pub enum ScenarioError {
    /// The spec violates an invariant; the message names it.
    Invalid(String),
    /// A trace file could not be read or parsed.
    Trace(String),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Invalid(msg) => write!(f, "invalid scenario: {msg}"),
            ScenarioError::Trace(msg) => write!(f, "trace error: {msg}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// A complete, reproducible experiment description.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (reports carry it).
    pub name: String,
    /// Master seed: trace generation, maintenance, and every operation
    /// stream are keyed off it.
    pub seed: u64,
    /// Operation-phase length in minutes (after warm-up).
    pub duration_mins: u64,
    /// Maintenance-only lead-in in minutes before the first operation.
    pub warmup_mins: u64,
    /// Overlay-health sampling interval in minutes.
    pub health_every_mins: u64,
    /// The churning population.
    pub churn: ChurnSpec,
    /// The membership predicate building the overlay.
    pub predicate: PredicateChoice,
    /// The availability oracle the overlay queries.
    pub oracle: OracleChoice,
    /// Maintenance mode and execution engine.
    pub maintenance: MaintenanceSpec,
    /// The operation workload.
    pub workload: WorkloadSpec,
    /// Optional selfish-flooder mix.
    pub adversary: Option<AdversarySpec>,
    /// Optional service-mode defaults for `scenario serve`.
    pub serve: Option<ServeSpec>,
    /// Report/diagnostic sampling budgets.
    pub report: ReportSpec,
}

/// The churn model driving node up/down state.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnSpec {
    /// Synthetic Overnet-like churn (the paper's workload).
    Overnet {
        /// Population size.
        hosts: usize,
        /// Trace length in days.
        days: u64,
    },
    /// Reboot-heavy Grid'5000-style churn.
    Grid {
        /// Population size.
        machines: usize,
        /// Trace length in days.
        days: u64,
    },
    /// A flash crowd joining a running system.
    FlashCrowd {
        /// Population size.
        hosts: usize,
        /// Trace length in days.
        days: u64,
        /// Fraction of hosts in the arriving crowd.
        fraction: f64,
        /// Where in the trace the crowd arrives, as a fraction.
        switch_at: f64,
    },
    /// A mass departure partway through the trace.
    MassDeparture {
        /// Population size.
        hosts: usize,
        /// Trace length in days.
        days: u64,
        /// Fraction of hosts departing.
        fraction: f64,
        /// Where in the trace the crowd departs, as a fraction.
        switch_at: f64,
    },
    /// An `AVTRACE v1` file on disk (real measured churn).
    TraceFile {
        /// Path to the trace file.
        path: String,
    },
}

/// Maintenance mode plus execution engine.
#[derive(Debug, Clone, PartialEq)]
pub struct MaintenanceSpec {
    /// How the overlay is maintained.
    pub mode: MaintenanceModeSpec,
    /// How cohorts execute.
    pub engine: MaintenanceEngine,
}

/// How the overlay is maintained during the run. Not the harness's
/// [`MaintenanceMode`]: the converged mode carries the runner's rebuild
/// interval, which the harness never sees.
#[derive(Debug, Clone, PartialEq)]
pub enum MaintenanceModeSpec {
    /// Live shuffle/discovery/refresh through the event engine.
    EventDriven {
        /// Shuffle/discovery period in seconds.
        protocol_secs: u64,
        /// Refresh period in minutes.
        refresh_mins: u64,
    },
    /// Periodic converged rebuilds; between rebuilds operations see the
    /// (stale) last-rebuilt overlay.
    Converged {
        /// Rebuild interval in minutes.
        rebuild_every_mins: u64,
    },
}

/// The operation workload: a deterministic Poisson-like arrival schedule
/// of anycast/multicast calls (plus adversary probes when configured).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Mean operation arrival rate (exponential inter-arrivals).
    pub ops_per_hour: f64,
    /// Fraction of operations that are anycasts (the rest multicast).
    pub anycast_fraction: f64,
    /// Anycast forwarding policy (also stage 1 of each multicast).
    pub policy: ForwardPolicy,
    /// Sliver lists forwarding may use.
    pub scope: SliverScope,
    /// Anycast TTL in hops.
    pub ttl: u32,
    /// Which availability band initiators are drawn from.
    pub initiators: BandSpec,
    /// Dissemination strategy inside multicast ranges.
    pub multicast: MulticastStrategy,
    /// Weighted mix of availability targets operations address.
    pub targets: Vec<TargetMix>,
}

/// Initiator availability band: the LOW / MID / HIGH bands of §4.2, or
/// any online node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BandSpec {
    /// True availability in `[0, 1/3)`.
    Low,
    /// True availability in `[1/3, 2/3)`.
    Mid,
    /// True availability in `[2/3, 1]`.
    High,
    /// Any online node.
    Any,
}

impl BandSpec {
    /// The band's true-availability interval `[lo, hi)`; `Any` spans
    /// all of `[0, 1]`.
    pub fn bounds(self) -> (f64, f64) {
        match self {
            BandSpec::Low => (0.0, 1.0 / 3.0),
            BandSpec::Mid => (1.0 / 3.0, 2.0 / 3.0),
            BandSpec::High => (2.0 / 3.0, 1.0 + f64::EPSILON),
            BandSpec::Any => (0.0, 1.0 + f64::EPSILON),
        }
    }

    /// Whether an availability falls inside the band.
    pub fn contains(self, av: Availability) -> bool {
        let (lo, hi) = self.bounds();
        av.value() >= lo && av.value() < hi
    }
}

/// One weighted entry of the target mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TargetMix {
    /// Relative weight (need not be normalized).
    pub weight: f64,
    /// The availability region addressed.
    pub target: AvailabilityTarget,
}

/// Selfish-flooder adversary mix (see `avmem::harness::attack`): a
/// fraction of workload arrivals become flood probes, each measuring how
/// many online non-neighbors would accept the selfish sender's message
/// under receiver-side verification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdversarySpec {
    /// Fraction of arrivals that are selfish flood probes.
    pub flooder_fraction: f64,
    /// Verification cushion receivers apply.
    pub cushion: f64,
    /// Non-neighbors probed per flood attempt.
    pub probes: u32,
}

/// Service-mode (`scenario serve`) defaults. All of these can be
/// overridden on the serve command line; `run` ignores the section.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeSpec {
    /// Sustained operation rate per **simulated day**, overriding the
    /// workload's `ops_per_hour` in serve mode (`None` keeps the
    /// workload rate). The serve-mode throughput yardstick — e.g.
    /// `1e6` ops/day at 10⁵ hosts.
    pub ops_per_day: Option<f64>,
    /// Simulated seconds advanced per wall-clock second. `0` (the
    /// default) runs unpaced: events execute back to back, no admission
    /// control engages, and a fixed-duration serve is bit-identical to
    /// `run`.
    pub pace: f64,
    /// Wall-clock lag budget in milliseconds: when a paced serve falls
    /// further behind than this, pending *operations* are shed
    /// (maintenance and health samples never are) until the loop
    /// catches up.
    pub lag_budget_ms: u64,
}

impl Default for ServeSpec {
    fn default() -> ServeSpec {
        ServeSpec {
            ops_per_day: None,
            pace: 0.0,
            lag_budget_ms: 2_000,
        }
    }
}

/// Report/diagnostic sampling budgets — knobs shaping what the report
/// *measures about* the run, never what the run *does*: the simulated
/// overlay, operations, and maintenance are bit-identical across any
/// `[report]` settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportSpec {
    /// `(querier, target)` pairs drawn per health boundary for the
    /// estimator MAE series. `0` disables the series. At 10⁶ hosts each
    /// AVMON estimate walks the monitor set, so this budget is the knob
    /// that keeps report finalization off the critical path.
    pub estimator_samples: u64,
}

impl Default for ReportSpec {
    fn default() -> ReportSpec {
        ReportSpec {
            estimator_samples: 512,
        }
    }
}

impl ScenarioSpec {
    /// `warmup_mins + duration_mins`, or the typed error when the sum
    /// overflows or its milliseconds pass the simulation clock's `u64`.
    fn horizon_mins(&self) -> Result<u64, ScenarioError> {
        self.warmup_mins
            .checked_add(self.duration_mins)
            .filter(|&total| total.checked_mul(60_000).is_some())
            .ok_or_else(|| {
                ScenarioError::Invalid(
                    "warmup_mins + duration_mins overflows the simulation clock \
                     (u64 milliseconds)"
                        .into(),
                )
            })
    }

    /// Checks the whole spec, returning the first violation: every key's
    /// own range (the parser's check, repeated here for a spec built in
    /// code), then the rules several keys decide together.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Invalid`] naming the violated invariant.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let fail = |msg: String| Err(ScenarioError::Invalid(msg));
        // The lenses hand out places, so they take the spec mutably.
        let mut spec = self.clone();
        for section in SECTIONS {
            for instance in 0..(section.count)(&spec) {
                for key in section.keys {
                    let Some(slot) = (key.at)(&mut spec, instance) else { continue };
                    if let Err(problem) = slot.check(&key.bound) {
                        return fail(format!("{} key {:?} {problem}", section.header(), key.name));
                    }
                }
            }
        }
        let horizon = self.horizon_mins()?;
        // Generated traces are whole days of 20-minute slots, so a run
        // that outlasts its trace is known before the trace is built (a
        // trace file's length is known only once `build_trace` read it).
        if let ChurnSpec::Overnet { days, .. }
        | ChurnSpec::Grid { days, .. }
        | ChurnSpec::FlashCrowd { days, .. }
        | ChurnSpec::MassDeparture { days, .. } = self.churn
        {
            let covered = days.saturating_mul(1440);
            if horizon > covered {
                return fail(format!(
                    "warmup_mins + duration_mins needs {horizon} min but a {days}-day generated \
                     trace covers {covered} min"
                ));
            }
        }
        if self.workload.targets.is_empty() {
            return fail("workload needs at least one [[target]]".into());
        }
        for (i, mix) in self.workload.targets.iter().enumerate() {
            if matches!(mix.target, AvailabilityTarget::Range { lo, hi } if lo > hi) {
                return fail(format!("target {i} range must satisfy lo ≤ hi"));
            }
        }
        // The format writes an AVMON oracle's assignment and nothing else
        // of its configuration, so the rest must be what a parse gives.
        if let OracleChoice::Avmon { config } = self.oracle {
            let written = AvmonConfig::default();
            let unwritable = [
                ("cms", config.cms != written.cms),
                ("alpha", config.alpha != written.alpha),
                ("ping_loss", config.ping_loss != written.ping_loss),
                ("use_aged", config.use_aged != written.use_aged),
            ];
            if let Some((field, _)) = unwritable.iter().find(|(_, off)| *off) {
                return fail(format!(
                    "[oracle] AVMON config.{field} must keep its default: no key can write it"
                ));
            }
        }
        Ok(())
    }

    /// Builds the churn trace the scenario runs over (generating it, or
    /// reading the configured `AVTRACE v1` file).
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Trace`] when a trace file cannot be read,
    /// and [`ScenarioError::Invalid`] when the trace is shorter than
    /// `warmup + duration` or that sum overflows the clock.
    pub fn build_trace(&self) -> Result<ChurnTrace, ScenarioError> {
        let trace = match &self.churn {
            ChurnSpec::Overnet { hosts, days } => {
                OvernetModel::default().hosts(*hosts).days(*days).generate(self.seed)
            }
            ChurnSpec::Grid { machines, days } => {
                GridModel::new().machines(*machines).days(*days).generate(self.seed)
            }
            ChurnSpec::FlashCrowd { hosts, days, fraction, switch_at } => {
                FlashCrowdModel::new(CrowdDirection::Join)
                    .hosts(*hosts)
                    .days(*days)
                    .crowd_fraction(*fraction)
                    .switch_point(*switch_at)
                    .generate(self.seed)
            }
            ChurnSpec::MassDeparture { hosts, days, fraction, switch_at } => {
                FlashCrowdModel::new(CrowdDirection::Leave)
                    .hosts(*hosts)
                    .days(*days)
                    .crowd_fraction(*fraction)
                    .switch_point(*switch_at)
                    .generate(self.seed)
            }
            ChurnSpec::TraceFile { path } => {
                let file = std::fs::File::open(path)
                    .map_err(|e| ScenarioError::Trace(format!("open {path}: {e}")))?;
                ChurnTrace::read_from(file)
                    .map_err(|e| ScenarioError::Trace(format!("parse {path}: {e}")))?
            }
        };
        self.check_trace_covers(&trace)?;
        Ok(trace)
    }

    /// Refuses a trace shorter than this spec's warm-up and operation
    /// window together.
    pub(crate) fn check_trace_covers(&self, trace: &ChurnTrace) -> Result<(), ScenarioError> {
        let needed = SimDuration::from_mins(self.horizon_mins()?);
        if trace.duration() < needed {
            return Err(ScenarioError::Invalid(format!(
                "trace covers {:.1} h but warmup + duration needs {:.1} h",
                trace.duration().as_secs_f64() / 3600.0,
                needed.as_secs_f64() / 3600.0
            )));
        }
        Ok(())
    }

    /// The harness configuration this spec describes.
    pub fn sim_config(&self) -> SimConfig {
        let maintenance = match self.maintenance.mode {
            MaintenanceModeSpec::EventDriven { protocol_secs, refresh_mins } => {
                MaintenanceMode::EventDriven {
                    protocol_period: SimDuration::from_secs(protocol_secs),
                    refresh_period: SimDuration::from_mins(refresh_mins),
                }
            }
            // The runner drives converged rebuilds itself; the harness
            // mode stays Converged so advance_to is maintenance-free.
            MaintenanceModeSpec::Converged { .. } => MaintenanceMode::Converged,
        };
        SimConfig {
            predicate: self.predicate,
            oracle: self.oracle,
            maintenance,
            engine: self.maintenance.engine,
            ..SimConfig::paper_default(self.seed)
        }
    }
}

impl WorkloadSpec {
    /// The anycast configuration every workload anycast (and multicast
    /// stage 1) uses.
    pub fn anycast_config(&self) -> AnycastConfig {
        AnycastConfig { policy: self.policy, scope: self.scope, ttl: self.ttl }
    }

    /// The multicast configuration every workload multicast uses.
    pub fn multicast_config(&self) -> MulticastConfig {
        MulticastConfig {
            strategy: self.multicast,
            scope: self.scope,
            anycast: self.anycast_config(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin;
    use avmem::predicate::{HorizontalRule, VerticalRule};
    use avmem_avmon::AssignmentChoice;

    fn valid() -> ScenarioSpec {
        builtin::builtin("smoke").expect("smoke builtin exists")
    }

    #[test]
    fn builtin_passes_validation() {
        valid().validate().expect("builtin must validate");
    }

    #[test]
    fn validation_catches_bad_fields() {
        let mut spec = valid();
        spec.duration_mins = 0;
        assert!(spec.validate().is_err());

        // The horizon is bounded by the trace alone: a 50-day trace runs
        // to its last slot and fails one minute past it, and a sum that
        // overflows the clock is a typed error rather than a panic.
        let horizon = |warmup_mins, duration_mins| {
            let churn = ChurnSpec::Overnet { hosts: 120, days: 50 };
            let spec = ScenarioSpec { warmup_mins, duration_mins, churn, ..valid() };
            spec.validate()
        };
        assert!(horizon(60, 71_940).is_ok());
        let Err(ScenarioError::Invalid(msg)) = horizon(60, 71_941) else {
            panic!("a run past its trace must be rejected");
        };
        assert!(msg.contains("72001") && msg.contains("50-day"), "{msg}");
        for (warmup, duration) in [(u64::MAX, 1), (u64::MAX / 60_000, 1)] {
            let Err(ScenarioError::Invalid(msg)) = horizon(warmup, duration) else {
                panic!("{warmup} + {duration} min must be rejected");
            };
            assert!(msg.contains("overflows"), "{msg}");
        }

        // Names that could not be rendered back (render/parse round-trip
        // and JSON reports both embed them) are rejected up front.
        let mut spec = valid();
        spec.name = "has \"quotes\"".into();
        assert!(spec.validate().is_err());
        let mut spec = valid();
        spec.name = "control\u{1}char".into();
        assert!(spec.validate().is_err());
        let mut spec = valid();
        spec.churn = ChurnSpec::TraceFile { path: "bad\"path".into() };
        assert!(spec.validate().is_err());

        let mut spec = valid();
        spec.workload.targets.clear();
        assert!(spec.validate().is_err());

        let mut spec = valid();
        spec.workload.targets[0].weight = -1.0;
        assert!(spec.validate().is_err());

        let mut spec = valid();
        let horizontal = HorizontalRule::LogarithmicConstant { c2: 2.0 };
        let vertical = VerticalRule::Logarithmic { c1: 2.5 };
        spec.predicate = PredicateChoice::Avmem { epsilon: 0.9, vertical, horizontal };
        assert!(spec.validate().is_err());
        // A constant rule's probability is bounded like any other key.
        let vertical = VerticalRule::Constant { d1: 1.5 };
        spec.predicate = PredicateChoice::Avmem { epsilon: 0.1, vertical, horizontal };
        assert!(spec.validate().is_err());

        let mut spec = valid();
        spec.adversary = Some(AdversarySpec {
            flooder_fraction: 2.0,
            cushion: 0.1,
            probes: 10,
        });
        assert!(spec.validate().is_err());
    }

    #[test]
    fn trace_shorter_than_run_is_rejected() {
        let mut spec = valid();
        spec.churn = ChurnSpec::Overnet { hosts: 30, days: 1 };
        spec.warmup_mins = 23 * 60;
        spec.duration_mins = 120; // 25 h needed, 24 h trace
        assert!(matches!(spec.build_trace(), Err(ScenarioError::Invalid(_))));
    }

    #[test]
    fn sim_config_reflects_spec() {
        let mut spec = valid();
        let engine = MaintenanceEngine::Sharded { threads: Some(3) };
        spec.maintenance.engine = engine;
        spec.oracle = OracleChoice::paper_noise();
        let config = spec.sim_config();
        assert_eq!((config.engine, config.oracle), (engine, OracleChoice::paper_noise()));
    }

    /// What a harness type can hold but no key can write is refused,
    /// naming the key, so that `parse(render(s)) == s` holds for every
    /// spec `validate` accepts.
    #[test]
    fn values_the_format_cannot_write_are_refused() {
        let refusal = |spec: ScenarioSpec| match spec.validate() {
            Err(ScenarioError::Invalid(msg)) => msg,
            Ok(()) => panic!("{spec:?} must be refused"),
            Err(other) => panic!("{other}"),
        };
        let staleness = SimDuration::from_millis(90_500);
        for oracle in [
            OracleChoice::Noisy { error: 0.05, staleness },
            OracleChoice::NoisyShared { error: 0.05, staleness },
        ] {
            let msg = refusal(ScenarioSpec { oracle, ..valid() });
            assert!(msg.contains("\"staleness_mins\" must be whole minutes"), "{msg}");
        }
        let mut spec = valid();
        let period = SimDuration::from_millis(1_500);
        spec.workload.multicast = MulticastStrategy::Gossip { fanout: 5, rounds: 2, period };
        let msg = refusal(spec);
        assert!(msg.contains("\"gossip_period_secs\" must be whole seconds"), "{msg}");

        for (threads, refused) in [(0, "must not be Some(0)"), (1_025, "must be at most 1024")] {
            let mut spec = valid();
            spec.maintenance.engine = MaintenanceEngine::Sharded { threads: Some(threads) };
            let msg = refusal(spec);
            assert!(msg.contains(&format!("key \"threads\" {refused}")), "{msg}");
        }

        let assignment = AssignmentChoice::Ring { vnodes: 8, k: 8 };
        let written = AvmonConfig { assignment, ..AvmonConfig::default() };
        let avmon = |config| ScenarioSpec { oracle: OracleChoice::Avmon { config }, ..valid() };
        avmon(written).validate().expect("only the assignment is off its default");
        for (config, field) in [
            (AvmonConfig { cms: 4.0, ..written }, "cms"),
            (AvmonConfig { alpha: 0.02, ..written }, "alpha"),
            (AvmonConfig { ping_loss: 0.1, ..written }, "ping_loss"),
            (AvmonConfig { use_aged: true, ..written }, "use_aged"),
        ] {
            let msg = refusal(avmon(config));
            assert!(msg.contains(&format!("config.{field} must keep its default")), "{msg}");
        }
    }
}
