//! Seed sweeps: one spec, many seeds, optional engine cross-checks.
//!
//! [`ScenarioRunner::sweep`] runs the spec once per seed in an inclusive
//! range. When more than one engine is listed, every seed is re-run on
//! each engine and the reports are compared with `==` — any divergence
//! is recorded as a mismatch (the determinism contract says there must
//! be none). Headline metrics are then aggregated to min / median / max
//! across seeds, turning "the overlay delivers 93 % at seed 41" into a
//! seed-robust statement.

use avmem::harness::MaintenanceEngine;

use crate::report::ScenarioReport;
use crate::runner::ScenarioRunner;
use crate::spec::ScenarioError;

/// One engine entry of a sweep: a display label plus the engine each
/// seed's spec runs on.
#[derive(Debug, Clone)]
pub struct SweepEngine {
    /// Label used in reports and mismatch messages.
    pub label: String,
    /// The engine written into the spec of every run.
    pub engine: MaintenanceEngine,
}

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Inclusive seed range.
    pub seeds: (u64, u64),
    /// Engines to run each seed on; the first is the reference whose
    /// reports feed the aggregates. Empty = the spec's own engine,
    /// labeled `"spec"`.
    pub engines: Vec<SweepEngine>,
}

/// One aggregated headline metric.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepMetric {
    /// Metric name (snake case, matches the JSON key).
    pub name: &'static str,
    /// Minimum across seeds.
    pub min: f64,
    /// Median across seeds (mean of the middle pair for even counts).
    pub median: f64,
    /// Maximum across seeds.
    pub max: f64,
}

/// The result of a sweep.
#[derive(Debug, Clone)]
pub struct SweepSummary {
    /// Scenario name.
    pub scenario: String,
    /// Seeds run, ascending.
    pub seeds: Vec<u64>,
    /// Engine labels, reference first.
    pub engines: Vec<String>,
    /// Cross-engine divergences (expected empty; each entry names the
    /// seed and engine pair that disagreed).
    pub mismatches: Vec<String>,
    /// Aggregated headline metrics.
    pub metrics: Vec<SweepMetric>,
    /// Reference-engine reports, one per seed.
    pub reports: Vec<ScenarioReport>,
}

impl ScenarioRunner {
    /// Runs the sweep; see the module docs.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Invalid`] for an empty/backwards seed
    /// range and propagates per-run errors.
    pub fn sweep(&self, opts: &SweepOptions) -> Result<SweepSummary, ScenarioError> {
        let (lo, hi) = opts.seeds;
        if lo > hi {
            return Err(ScenarioError::Invalid(format!(
                "sweep seed range {lo}..={hi} is empty"
            )));
        }
        let engines = if opts.engines.is_empty() {
            let engine = self.spec.maintenance.engine;
            vec![SweepEngine { label: "spec".into(), engine }]
        } else {
            opts.engines.clone()
        };
        let mut seeds = Vec::new();
        let mut reports = Vec::new();
        let mut mismatches = Vec::new();
        for seed in lo..=hi {
            let run_on = |entry: &SweepEngine| -> Result<ScenarioReport, ScenarioError> {
                let mut spec = self.spec.clone();
                spec.seed = seed;
                spec.maintenance.engine = entry.engine;
                ScenarioRunner::new(spec)?.run()
            };
            let reference = run_on(&engines[0])?;
            for entry in &engines[1..] {
                let other = run_on(entry)?;
                if other != reference {
                    mismatches.push(format!(
                        "seed {seed}: engine {:?} diverged from {:?}",
                        entry.label, engines[0].label
                    ));
                }
            }
            seeds.push(seed);
            reports.push(reference);
        }
        let metrics = aggregate(&reports);
        Ok(SweepSummary {
            scenario: self.spec.name.clone(),
            seeds,
            engines: engines.into_iter().map(|e| e.label).collect(),
            mismatches,
            metrics,
            reports,
        })
    }
}

/// The headline scalars aggregated across seeds.
fn headline(report: &ScenarioReport) -> Vec<(&'static str, f64)> {
    let last = report.health.last();
    vec![
        ("anycast_delivery_rate", report.anycast.delivery_rate()),
        ("anycast_mean_hops", report.anycast.mean_hops()),
        ("anycast_mean_latency_ms", report.anycast.mean_latency_ms()),
        ("multicast_mean_reliability", report.multicast.mean_reliability()),
        ("multicast_mean_spam", report.multicast.mean_spam()),
        ("final_online", last.map_or(0.0, |h| h.online as f64)),
        ("final_mean_degree", last.map_or(0.0, |h| h.mean_degree)),
        (
            "final_largest_component",
            last.map_or(0.0, |h| h.largest_component),
        ),
        ("skipped_ops", report.skipped_ops as f64),
        ("estimator_mae", report.estimator.mae()),
        // Memory observations: environment facts excluded from report
        // equality, but exactly what a capacity sweep wants min/median/max
        // of. Zero when the platform/build does not expose the source.
        ("peak_rss_mib", mib(report.memory.peak_rss_bytes)),
        ("peak_heap_mib", mib(report.memory.heap_peak_bytes)),
    ]
}

/// Optional byte count → MiB, `0.0` when unobserved.
fn mib(bytes: Option<u64>) -> f64 {
    bytes.map_or(0.0, |b| b as f64 / (1024.0 * 1024.0))
}

fn aggregate(reports: &[ScenarioReport]) -> Vec<SweepMetric> {
    let Some(first) = reports.first() else {
        return Vec::new();
    };
    let names: Vec<&'static str> = headline(first).iter().map(|&(n, _)| n).collect();
    names
        .into_iter()
        .enumerate()
        .map(|(i, name)| {
            let mut values: Vec<f64> =
                reports.iter().map(|r| headline(r)[i].1).collect();
            values.sort_by(f64::total_cmp);
            let median = if values.len() % 2 == 1 {
                values[values.len() / 2]
            } else {
                let hi = values.len() / 2;
                (values[hi - 1] + values[hi]) / 2.0
            };
            SweepMetric {
                name,
                min: values[0],
                median,
                max: *values.last().expect("non-empty"),
            }
        })
        .collect()
}

impl SweepSummary {
    /// Human-readable summary block.
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let w = &mut out;
        writeln!(
            w,
            "sweep {:?}: {} seeds ({}..={}), engines [{}]",
            self.scenario,
            self.seeds.len(),
            self.seeds.first().copied().unwrap_or(0),
            self.seeds.last().copied().unwrap_or(0),
            self.engines.join(", ")
        )
        .unwrap();
        if self.engines.len() > 1 {
            if self.mismatches.is_empty() {
                writeln!(w, "cross-engine check: all reports bit-identical").unwrap();
            } else {
                for mismatch in &self.mismatches {
                    writeln!(w, "cross-engine MISMATCH: {mismatch}").unwrap();
                }
            }
        }
        writeln!(w, "  {:<28} {:>12} {:>12} {:>12}", "metric", "min", "median", "max")
            .unwrap();
        for metric in &self.metrics {
            writeln!(
                w,
                "  {:<28} {:>12.4} {:>12.4} {:>12.4}",
                metric.name, metric.min, metric.median, metric.max
            )
            .unwrap();
        }
        out
    }

    /// JSON rendering (single object, stable key order).
    pub fn render_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let w = &mut out;
        let seeds: Vec<String> = self.seeds.iter().map(u64::to_string).collect();
        let engines: Vec<String> = self.engines.iter().map(|e| format!("{e:?}")).collect();
        let mismatches: Vec<String> =
            self.mismatches.iter().map(|m| format!("{m:?}")).collect();
        write!(
            w,
            "{{\"scenario\":{:?},\"seeds\":[{}],\"engines\":[{}],\"mismatches\":[{}]",
            self.scenario,
            seeds.join(","),
            engines.join(","),
            mismatches.join(",")
        )
        .unwrap();
        write!(w, ",\"metrics\":{{").unwrap();
        for (i, metric) in self.metrics.iter().enumerate() {
            if i > 0 {
                write!(w, ",").unwrap();
            }
            write!(
                w,
                "{:?}:{{\"min\":{},\"median\":{},\"max\":{}}}",
                metric.name,
                json_f64(metric.min),
                json_f64(metric.median),
                json_f64(metric.max)
            )
            .unwrap();
        }
        write!(w, "}},\"reports\":[").unwrap();
        for (i, report) in self.reports.iter().enumerate() {
            if i > 0 {
                write!(w, ",").unwrap();
            }
            write!(w, "{}", report.render_json()).unwrap();
        }
        write!(w, "]}}").unwrap();
        out
    }
}

fn json_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin;
    use crate::spec::ChurnSpec;

    fn tiny_runner() -> ScenarioRunner {
        let mut spec = builtin::builtin("smoke").expect("smoke builtin");
        spec.churn = ChurnSpec::Overnet { hosts: 60, days: 1 };
        spec.warmup_mins = 60;
        spec.duration_mins = 30;
        spec.workload.ops_per_hour = 30.0;
        ScenarioRunner::new(spec).unwrap()
    }

    #[test]
    fn sweep_aggregates_across_seeds() {
        let summary = tiny_runner()
            .sweep(&SweepOptions {
                seeds: (11, 13),
                engines: Vec::new(),
            })
            .unwrap();
        assert_eq!(summary.seeds, vec![11, 12, 13]);
        assert_eq!(summary.reports.len(), 3);
        assert!(summary.mismatches.is_empty());
        let delivery = summary
            .metrics
            .iter()
            .find(|m| m.name == "anycast_delivery_rate")
            .expect("headline metric");
        assert!(delivery.min <= delivery.median && delivery.median <= delivery.max);
        // Different seeds really produce different runs.
        assert_ne!(summary.reports[0], summary.reports[1]);
        // Memory observations aggregate alongside the quality metrics.
        let rss = summary
            .metrics
            .iter()
            .find(|m| m.name == "peak_rss_mib")
            .expect("memory metric");
        if cfg!(target_os = "linux") {
            assert!(rss.min > 0.0, "peak RSS unobserved on linux");
        }
    }

    #[test]
    fn sweep_cross_checks_engines() {
        let summary = tiny_runner()
            .sweep(&SweepOptions {
                seeds: (7, 8),
                engines: vec![
                    SweepEngine {
                        label: "serial".into(),
                        engine: MaintenanceEngine::Serial,
                    },
                    SweepEngine {
                        label: "sharded".into(),
                        engine: MaintenanceEngine::Sharded {
                            shards: Some(4),
                            threads: Some(2),
                        },
                    },
                ],
            })
            .unwrap();
        assert!(
            summary.mismatches.is_empty(),
            "engines diverged: {:?}",
            summary.mismatches
        );
        assert_eq!(summary.engines, vec!["serial", "sharded"]);
    }

    #[test]
    fn empty_seed_range_is_rejected() {
        assert!(tiny_runner()
            .sweep(&SweepOptions {
                seeds: (5, 4),
                engines: Vec::new(),
            })
            .is_err());
    }

    #[test]
    fn renderings_are_sound() {
        let summary = tiny_runner()
            .sweep(&SweepOptions {
                seeds: (3, 4),
                engines: Vec::new(),
            })
            .unwrap();
        let text = summary.render_text();
        assert!(text.contains("anycast_delivery_rate"), "{text}");
        let json = summary.render_json();
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced: {json}"
        );
        assert!(json.contains("\"metrics\":{\"anycast_delivery_rate\""));
        assert!(!json.contains("NaN"));
    }
}
