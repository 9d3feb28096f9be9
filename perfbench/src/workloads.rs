//! The six named workloads.
//!
//! Each is a scenario spec file of this directory, so the benchmark
//! owns its inputs: a later change to a builtin scenario does not move
//! the ruler. Sizes are set by the benchmark's time cap — a sample of
//! every workload runs in about two seconds on one thread, so one
//! run of the benchmark takes a dozen samples.

use avmem_scenario::{parse_spec, ScenarioSpec};

/// Fidelity floors of a workload that runs on a converged overlay, by
/// metric name. The scale slices run on unconverged overlays (no anycast
/// delivers on the serve slice) and report the fidelity metrics without
/// floors.
const CONVERGED: &[(&str, f64)] = &[
    ("anycast_delivery_rate", 0.85),
    ("multicast_reliability", 0.85),
    ("overlay_lcc_min", 0.90),
];
const UNCONVERGED: &[(&str, f64)] = &[];

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line: why the workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
    spec_text: &'static str,
    /// Lowest acceptable value per simulated metric; empty for none.
    pub floors: &'static [(&'static str, f64)],
    /// Whether the traced run adds a child with a metrics registry
    /// attached, for `metrics.overhead_share`.
    pub metrics_child: bool,
    /// Whether `BENCHMARK.json` lists the workload for the benchmark's
    /// driver. The driver gives all its runs together less than an hour,
    /// and a run steadies only with its length (README, "Steadiness"):
    /// four workloads leave each run half a minute. The other two run
    /// under the same command and in `perf run` all the same.
    pub for_driver: bool,
}

impl Workload {
    /// The workload's spec with its seed replaced by `seed` when given.
    ///
    /// # Panics
    ///
    /// Panics if the spec file of this directory does not parse, which a
    /// unit test rules out.
    pub fn spec(&self, seed: Option<u64>) -> ScenarioSpec {
        let mut spec = parse_spec(self.spec_text)
            .unwrap_or_else(|e| panic!("workload {} does not parse: {e}", self.name));
        if let Some(seed) = seed {
            spec.seed = seed;
        }
        spec
    }
}

pub static WORKLOADS: [Workload; 6] = [
    Workload {
        name: "overnet-day",
        why: "The paper's setting: 1442 Overnet hosts, 9 h of tiny per-second cohorts; per-cohort fixed costs (pool dispatch, barriers, event engine) dominate.",
        spec_text: include_str!("../specs/overnet-day.scn"),
        floors: CONVERGED,
        metrics_child: true,
        for_driver: true,
    },
    Workload {
        name: "avmon-allpairs",
        why: "Full AVMON fidelity with all-pairs assignment: finalize does most of the maintenance work, set-up is O(N^2) assignment hashing, pair-hash store under pressure.",
        spec_text: include_str!("../specs/avmon-allpairs.scn"),
        floors: UNCONVERGED,
        metrics_child: false,
        for_driver: true,
    },
    Workload {
        name: "serve-slice",
        why: "Ring AVMON, 1000-node cohorts, large inboxes and sqrt(N) views: isolates commit and finalize at scale; set-up and operations are negligible.",
        spec_text: include_str!("../specs/serve-slice.scn"),
        floors: UNCONVERGED,
        metrics_child: false,
        for_driver: true,
    },
    Workload {
        name: "cold-scale",
        why: "Memory and set-up slice: trace generation and sim/ring build for 150k hosts are a large share of the run; cold bootstrap, fixed per-host state owns the RSS.",
        spec_text: include_str!("../specs/cold-scale.scn"),
        floors: UNCONVERGED,
        metrics_child: false,
        for_driver: false,
    },
    Workload {
        name: "ops-storm",
        why: "The only workload where operations dominate: 3750 ops per simulated hour on broad targets, multicast floods of 7 million messages; maintenance is a small share.",
        spec_text: include_str!("../specs/ops-storm.scn"),
        floors: CONVERGED,
        metrics_child: true,
        for_driver: true,
    },
    Workload {
        name: "converged-noisy",
        why: "Converged rebuilds over dense hash rows, per-querier noisy oracle, adversary probes: the figures' code path, with no cohorts and none of the event-driven caches.",
        spec_text: include_str!("../specs/converged-noisy.scn"),
        floors: CONVERGED,
        metrics_child: false,
        for_driver: false,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use avmem_scenario::ScenarioRunner;

    #[test]
    fn every_spec_file_parses_validates_and_is_named_after_its_workload() {
        for workload in &WORKLOADS {
            let spec = workload.spec(None);
            assert_eq!(spec.name, workload.name);
            ScenarioRunner::new(spec)
                .unwrap_or_else(|e| panic!("workload {} invalid: {e}", workload.name));
        }
    }

    #[test]
    fn seed_override_replaces_only_the_seed() {
        let workload = find("ops-storm").unwrap();
        let own = workload.spec(None);
        let other = workload.spec(Some(own.seed + 1));
        assert_eq!(other.seed, own.seed + 1);
        assert_eq!(other.duration_mins, own.duration_mins);
        assert_eq!(other.warmup_mins, own.warmup_mins);
    }

    #[test]
    fn names_are_unique_and_lookup_finds_them() {
        for (i, workload) in WORKLOADS.iter().enumerate() {
            assert!(std::ptr::eq(find(workload.name).unwrap(), &WORKLOADS[i]));
            assert!(workload.why.len() <= 200 && !workload.why.contains('\n'));
        }
        assert!(find("no-such-workload").is_none());
    }
}
