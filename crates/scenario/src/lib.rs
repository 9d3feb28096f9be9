#![warn(missing_docs)]

//! # `avmem_scenario` — declarative scenarios over a churning overlay
//!
//! The paper's whole point is *management operations over a churning,
//! non-cooperative overlay* (§3.2, §4). This crate makes that a
//! first-class, reproducible experiment: describe "an Overnet-churn day
//! at 1442 hosts with a mixed anycast/multicast workload and 5 % selfish
//! senders" as one [`ScenarioSpec`], run it with one
//! [`ScenarioRunner::run`] call (or `cargo run -p avmem_scenario -- run
//! overnet-day`), and get one [`ScenarioReport`].
//!
//! * [`spec`] — the declarative description: churn model, predicate,
//!   oracle fidelity, maintenance mode/engine, operation workload,
//!   optional adversary mix. Every choice the harness has a type for is
//!   held as that type (`PredicateChoice`, `OracleChoice`,
//!   `MaintenanceEngine`, `ForwardPolicy`, `SliverScope`,
//!   `MulticastStrategy`, `AvailabilityTarget`), so the spec types
//!   re-exported here are only those the harness lacks;
//! * [`parse`] — the text format (a hand-rolled TOML subset with
//!   line-numbered errors) and the canonical renderer; `parse(render(s))
//!   == s` for every valid spec. Its sections and keys are declared
//!   once, in the private `schema` module, which the parser, the
//!   renderer and [`ScenarioSpec::validate`] all walk;
//! * [`runner`] — interleaves a deterministic Poisson-like operation
//!   schedule *into* the live maintenance loop: operations fire between
//!   timestamp cohorts against the possibly-unconverged overlay, all
//!   randomness counter-keyed so reports are bit-identical across
//!   maintenance engines and thread counts;
//! * [`report`] — per-operation aggregates, per-interval overlay health,
//!   and the attack acceptance series, with text and JSON rendering;
//! * [`serve`] — the sustained-traffic service mode: the same event
//!   loop paced against wall clock, exporting live metrics through
//!   [`avmem_metrics`] and shedding operations (never maintenance) when
//!   the simulation falls behind its lag budget;
//! * [`sweep`] — seed sweeps with optional cross-engine bit-identity
//!   checks, aggregated to min/median/max headline metrics;
//! * [`builtin`] — a library of named, paper-anchored scenarios
//!   (`overnet-day`, `grid-reboot`, `flash-crowd`, `mass-departure`,
//!   `selfish-mix`, `stress-10k`, `stress-10k-avmon`, `serve-100k`,
//!   `stress-1m`, `smoke`).
//!
//! # Examples
//!
//! ```
//! use avmem_scenario::{builtin, ScenarioRunner};
//!
//! let mut spec = builtin::builtin("smoke").expect("built-in scenario");
//! spec.churn = avmem_scenario::ChurnSpec::Overnet { hosts: 60, days: 1 };
//! spec.workload.ops_per_hour = 30.0;
//! let report = ScenarioRunner::new(spec).unwrap().run().unwrap();
//! assert!(report.anycast.sent + report.multicast.sent > 0);
//! ```

pub mod builtin;
pub mod parse;
pub mod report;
pub mod runner;
mod schema;
pub mod serve;
pub mod spec;
pub mod sweep;

pub use parse::{parse_engine, parse_spec, ParseError};
pub use report::{
    AnycastStats, AttackStats, Buckets, EstimatorAccuracy, HealthSample, MemoryStats,
    MulticastStats, RunTimings, ScenarioReport,
};
pub use runner::{RunSession, ScenarioRunner};
pub use serve::{ServeOptions, ServeOutcome};
pub use spec::{
    AdversarySpec, BandSpec, ChurnSpec, MaintenanceModeSpec, MaintenanceSpec, ReportSpec,
    ScenarioError, ScenarioSpec, ServeSpec, TargetMix, WorkloadSpec,
};
pub use sweep::{SweepEngine, SweepMetric, SweepOptions, SweepSummary};

/// The docs whose built-in names and spec keys the tests resolve.
#[cfg(test)]
const DOCS: [(&str, &str); 2] = [
    ("README.md", include_str!("../../../README.md")),
    ("SKILL.md", include_str!("../../../.claude/skills/verify/SKILL.md")),
];
