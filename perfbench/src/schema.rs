//! The metrics the benchmark reports, declared once.
//!
//! `BENCHMARK.json` at the root of the repository lists the same names,
//! units and directions; a unit test keeps the two in step.

/// Version of the `perf run` output document.
pub const SCHEMA: &str = "avmem-perf/1";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// By how much an end-to-end metric may get worse before `perf compare`
/// calls it a regression, and how far two sets of runs of one commit
/// may disagree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the baseline's median, but at least `floor` in the
    /// metric's unit, so a 2 ms set-up is not held to 0.2 ms.
    Relative { share: f64, floor: f64 },
    /// A difference in the metric's own unit (fidelity ratios).
    Absolute(f64),
}

/// An end-to-end metric: what a user of the simulator sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The bound `perf compare` applies. It can be tight, because
    /// `perf compare` sees every sample of both sides and answers
    /// "unresolved" when they spread wider than the bound.
    pub bound: Bound,
    /// `Some` for a metric timed or sized by the host (it varies run to
    /// run), `None` for a simulated result (it repeats exactly for a
    /// seed). The host metrics are the `end_to_end` list of
    /// `BENCHMARK.json`, with this share as their bound there: the
    /// driver compares two medians of ten runs and has no "unresolved",
    /// and on this box the quiet level of one commit's timings drifts by
    /// 10 % over minutes and more over hours (README, "Steadiness"), so
    /// the timed metrics take the widest bound the driver allows.
    /// The simulated metrics are 0 on some workloads, which that list
    /// does not allow: the driver sees them with the per-layer metrics
    /// and through `correct`.
    pub driver_bound: Option<f64>,
}

impl EndToEnd {
    pub fn is_host(&self) -> bool {
        self.driver_bound.is_some()
    }
}

const fn host(
    name: &'static str,
    unit: &'static str,
    better: Better,
    (share, floor): (f64, f64),
    driver_bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound: Bound::Relative { share, floor },
        driver_bound: Some(driver_bound),
    }
}

const fn simulated(name: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit: "ratio",
        better,
        bound: Bound::Absolute(bound),
        driver_bound: None,
    }
}

pub const FAILED_OPS_SHARE: &str = "failed_ops_share";

pub const END_TO_END: [EndToEnd; 10] = [
    host("wall_s", "s", Better::Lower, (0.10, 0.05), 0.25),
    host("setup_s", "s", Better::Lower, (0.10, 0.05), 0.25),
    host("sim_s_per_wall_s", "s/s", Better::Higher, (0.10, 0.0), 0.25),
    host("cpu_s", "s", Better::Lower, (0.10, 0.05), 0.25),
    host("peak_rss_mib", "MiB", Better::Lower, (0.05, 2.0), 0.10),
    simulated("anycast_delivery_rate", Better::Higher, 0.01),
    simulated("multicast_reliability", Better::Higher, 0.01),
    simulated("overlay_lcc_min", Better::Higher, 0.01),
    simulated("estimator_mae", Better::Lower, 0.01),
    simulated(FAILED_OPS_SHARE, Better::Lower, 0.0),
];

/// Where a per-layer number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// A span the benchmark records around a call into the layer.
    Span,
    /// A counter or phase total the program exports in its report.
    Program,
    /// An isolated call sized by the workload's host count.
    Probe,
    /// Computed from the others.
    Derived,
}

impl Source {
    pub fn as_str(self) -> &'static str {
        match self {
            Source::Span => "span",
            Source::Program => "program",
            Source::Probe => "probe",
            Source::Derived => "derived",
        }
    }
}

/// A metric of a single layer; no bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
}

const fn layer(name: &'static str, unit: &'static str, better: Better, source: Source) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
    }
}

use Better::{Higher, Lower};
use Source::{Derived, Probe, Program, Span};

pub const PER_LAYER: [PerLayer; 56] = [
    layer("trace.build_s", "s", Lower, Span),
    layer("trace.host_slots_per_s", "1/s", Higher, Derived),
    layer("core.harness.sim_new_s", "s", Lower, Span),
    layer("avmon.build_s", "s", Lower, Span),
    layer("avmon.step_slot_ms", "ms", Lower, Probe),
    layer("scenario.warmup_s", "s", Lower, Derived),
    layer("scenario.step_maint_s", "s", Lower, Span),
    layer("scenario.step_maint_count", "count", Lower, Span),
    layer("scenario.step_maint_p50_ms", "ms", Lower, Span),
    layer("scenario.step_maint_max_ms", "ms", Lower, Span),
    layer("scenario.step_op_s", "s", Lower, Span),
    layer("scenario.step_op_count", "count", Lower, Span),
    layer("scenario.op_exec_p50_us", "us", Lower, Span),
    layer("scenario.op_exec_p99_us", "us", Lower, Span),
    layer("core.ops.multicast_ns_per_msg", "ns", Lower, Derived),
    layer("core.ops.anycast_msgs_per_op", "count", Lower, Program),
    layer("scenario.step_health_s", "s", Lower, Span),
    layer("scenario.step_health_count", "count", Lower, Span),
    layer("scenario.finish_s", "s", Lower, Span),
    layer("scenario.render_json_us", "us", Lower, Span),
    layer("scenario.render_text_us", "us", Lower, Span),
    layer("core.harness.oracle_s", "s", Lower, Program),
    layer("core.harness.propose_s", "s", Lower, Program),
    layer("core.harness.commit_s", "s", Lower, Program),
    layer("core.harness.finalize_s", "s", Lower, Program),
    layer("core.harness.cohorts", "count", Lower, Program),
    layer("core.harness.commit_share", "ratio", Lower, Derived),
    layer("sim.engine_glue_s", "s", Lower, Derived),
    layer("core.finalize.memo_hit_ratio", "ratio", Higher, Program),
    layer("core.finalize.refresh_skip_ratio", "ratio", Higher, Program),
    layer("core.finalize.discover_pruned", "count", Higher, Program),
    layer("core.finalize.batched_estimates", "count", Higher, Program),
    layer("core.hashes.cache_hit_ratio", "ratio", Higher, Program),
    layer("core.hashes.delegated", "count", Lower, Program),
    layer("util.heap.peak_mib", "MiB", Lower, Program),
    layer("util.heap.live_end_mib", "MiB", Lower, Program),
    layer("util.heap.alloc_calls", "count", Lower, Program),
    layer("util.heap.allocs_per_cohort", "count", Lower, Derived),
    layer("util.sha256_pair_ns", "ns", Lower, Probe),
    layer("util.pool_dispatch_us", "us", Lower, Probe),
    layer("util.pool.two_thread_wall_ratio", "ratio", Lower, Derived),
    layer("util.pool.two_thread_cpu_ratio", "ratio", Lower, Derived),
    layer("sim.engine_event_ns", "ns", Lower, Probe),
    layer("shuffle.exchange_ns", "ns", Lower, Probe),
    layer("core.predicate.classify_ns", "ns", Lower, Probe),
    layer("core.predicate.memo_build_us", "us", Lower, Probe),
    layer("metrics.overhead_share", "ratio", Lower, Derived),
    layer("metrics.counter_inc_ns", "ns", Lower, Probe),
    layer("metrics.histogram_record_ns", "ns", Lower, Probe),
    layer("metrics.render_prometheus_us", "us", Lower, Probe),
    layer("perf.trace_overhead_share", "ratio", Lower, Derived),
    layer("perf.span_coverage", "ratio", Higher, Derived),
    // The simulated end-to-end results, repeated for the driver (see
    // `EndToEnd::host`).
    layer("anycast_delivery_rate", "ratio", Higher, Program),
    layer("multicast_reliability", "ratio", Higher, Program),
    layer("overlay_lcc_min", "ratio", Higher, Program),
    layer("estimator_mae", "ratio", Lower, Program),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    #[test]
    fn names_and_units_fit_the_benchmark_contract_and_are_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        let host = END_TO_END
            .iter()
            .filter(|m| m.is_host())
            .map(|m| (m.name, m.unit));
        let layers = PER_LAYER.iter().map(|m| (m.name, m.unit));
        let workloads = WORKLOADS.iter().map(|w| (w.name, "count"));
        for (name, unit) in host.chain(layers).chain(workloads) {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?}");
            assert!(seen.insert(name), "name {name:?} used twice");
        }
        // Every simulated end-to-end metric but the failure share (which
        // the driver reads as attempted/failed) is repeated per layer.
        for metric in END_TO_END
            .iter()
            .filter(|m| !m.is_host() && m.name != FAILED_OPS_SHARE)
        {
            assert!(
                PER_LAYER.iter().any(|l| l.name == metric.name),
                "{}",
                metric.name
            );
        }
    }

    /// `BENCHMARK.json` declares what this program prints.
    #[test]
    fn benchmark_json_matches_the_declarations() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<Vec<String>> {
            doc.get(key)
                .expect(key)
                .as_arr()
                .iter()
                .map(|m| m.as_obj().iter().map(|(_, v)| v.render()).collect())
                .collect()
        };
        let quoted = |s: &str| Json::str(s).render();

        let workloads: Vec<Vec<String>> = WORKLOADS
            .iter()
            .filter(|w| w.for_driver)
            .map(|w| vec![quoted(w.name), quoted(w.why)])
            .collect();
        assert_eq!(list("workloads"), workloads);

        let end_to_end: Vec<Vec<String>> = END_TO_END
            .iter()
            .filter_map(|m| {
                let bound = Json::Num(m.driver_bound?).render();
                Some(vec![
                    quoted(m.name),
                    quoted(m.unit),
                    quoted(m.better.as_str()),
                    bound,
                ])
            })
            .collect();
        assert_eq!(list("end_to_end"), end_to_end);
        // The contract: set-up time is a metric, with the largest bound.
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END
            .iter()
            .all(|m| m.driver_bound <= setup.driver_bound));

        let per_layer: Vec<Vec<String>> = PER_LAYER
            .iter()
            .map(|m| vec![quoted(m.name), quoted(m.unit), quoted(m.better.as_str())])
            .collect();
        assert_eq!(list("per_layer"), per_layer);
    }
}
