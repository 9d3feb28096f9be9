//! The experiments by id, and the [`Harness`] they all run on: the one
//! list the `figures` binary and `tests/paper_claims.rs` both run, and
//! the one place an experiment gets a warm-up from.

use std::cell::OnceCell;

use avmem_scenario::{AnycastStats, HealthSample, MulticastStats, RunSession, ScenarioSpec};

use crate::claims::Experiment;
use crate::{ablations, figures, paper};

/// How an experiment runs on a [`Harness`].
pub type Run = fn(&Harness) -> Box<dyn Experiment>;

/// The figure experiments, in the order `all` runs them.
pub const FIGURES: [(&str, Run); 11] = [
    ("fig2", |h| Box::new(figures::fig2(h))),
    ("fig3", |h| Box::new(figures::fig3(h))),
    ("fig4", |h| Box::new(figures::fig4(h))),
    ("fig56", |h| Box::new(figures::fig56(h))),
    ("fig7", |h| Box::new(figures::fig7(h))),
    ("fig8", |h| Box::new(figures::fig8(h))),
    ("fig9", |h| Box::new(figures::fig9(h))),
    ("fig10", |h| Box::new(figures::fig10(h))),
    ("fig11", |h| Box::new(figures::fig111213(h))),
    ("discovery", |h| Box::new(figures::discovery_micro(h))),
    ("theorems", |h| Box::new(figures::theorem_checks(h))),
];

/// The ablations, in the order `ablations` runs them.
pub const ABLATIONS: [(&str, Run); 5] = [
    ("ablation-predicates", |h| Box::new(ablations::ablation_predicates(h))),
    ("ablation-cushion", |h| Box::new(ablations::ablation_cushion(h))),
    ("ablation-gossip", |h| Box::new(ablations::ablation_gossip(h))),
    ("ablation-workload", |h| Box::new(ablations::ablation_workload(h))),
    ("ablation-aged", |h| Box::new(ablations::ablation_aged(h))),
];

/// The experiments `ids` name, each once, in the order of first mention:
/// `all` and `ablations` expand to their lists, and an alias names the
/// experiment that prints its figure (`fig5`/`fig6` → `fig56`,
/// `fig12`/`fig13` → `fig11`). Errs with the first unknown id.
pub fn resolve<'a>(ids: impl IntoIterator<Item = &'a str>) -> Result<Vec<(&'static str, Run)>, String> {
    let mut experiments: Vec<(&'static str, Run)> = Vec::new();
    for arg in ids {
        let named: &[(&'static str, Run)] = match arg {
            "all" => &FIGURES,
            "ablations" => &ABLATIONS,
            arg => {
                let id = match arg { "fig5" | "fig6" => "fig56", "fig12" | "fig13" => "fig11", id => id };
                let known = FIGURES.iter().chain(&ABLATIONS).find(|&&(known, _)| known == id);
                std::slice::from_ref(known.ok_or_else(|| arg.to_owned())?)
            }
        };
        for &entry in named {
            if !experiments.iter().any(|&(id, _)| id == entry.0) {
                experiments.push(entry);
            }
        }
    }
    Ok(experiments)
}

/// The paper setting at one scale, and the warm-ups its experiments
/// share: the base spec warmed at each of its `runs` seeds, each on first
/// use. Figs. 2–4, the theorem checks and Fig. 10's sizing read the first
/// seed's in place ([`Harness::snapshot`]); every operation family whose
/// warm-up is the base spec's forks them ([`Harness::pooled`]).
#[derive(Debug)]
pub struct Harness {
    small: bool,
    base: ScenarioSpec,
    runs: u64,
    warm: Vec<OnceCell<RunSession>>,
}

impl Harness {
    /// The paper's scale — 1442 hosts × 7 days; "each point … the average
    /// of 5 different protocol runs, each with 50 messages" — or, when
    /// `small`, 200 hosts × 2 days, 2 runs × 20 messages, which runs in
    /// well under a second.
    pub fn new(small: bool) -> Harness {
        let (hosts, days, runs, messages) = if small { (200, 2, 2, 20) } else { (1442, 7, 5, 50) };
        Harness { small, ..Harness::over(paper::base(hosts, days, messages), runs) }
    }

    /// The experiments over `base`, each operation point pooled over the
    /// seeds `base.seed .. base.seed + runs`, at a reduced scale: the
    /// settings of the shape tests.
    pub fn over(base: ScenarioSpec, runs: u64) -> Harness {
        let warm = (0..runs.max(1)).map(|_| OnceCell::new()).collect();
        Harness { small: true, base, runs, warm }
    }

    /// The line a run's output opens with.
    pub fn header(&self) -> String {
        let (hosts, days) = paper::overnet(&self.base);
        let messages = self.base.workload.ops_per_hour * paper::WINDOW_MINS as f64 / 60.0;
        let (runs, mode) = (self.runs, if self.small { " (small mode)" } else { "" });
        format!("# AVMEM figure harness: {hosts} hosts, {days} days, {runs} runs × {messages} messages{mode}")
    }

    /// Whether this is the paper's scale, the one its claims' bands are
    /// stated for.
    pub fn paper_scale(&self) -> bool {
        !self.small
    }

    /// The spec every experiment edits.
    pub fn base(&self) -> &ScenarioSpec {
        &self.base
    }

    /// The base spec warmed at its first seed: the overlay the snapshot
    /// experiments read.
    pub fn snapshot(&self) -> &RunSession {
        self.warmed(0)
    }

    /// The base spec warmed at seed `base.seed + run`, warmed on first use.
    fn warmed(&self, run: u64) -> &RunSession {
        self.warm[run as usize].get_or_init(|| paper::warmed(&reseeded(&self.base, run)))
    }

    /// Runs every spec of `family` once per seed, each a fork of that
    /// seed's one warm-up ([`RunSession::fork`]) — the held one when the
    /// family warms up as the base spec does, else one of its own — and
    /// pools each spec's reports.
    ///
    /// # Panics
    ///
    /// Panics if `family` is empty, or if a spec does not validate or warms
    /// up differently from the first.
    pub fn pooled(&self, family: &[ScenarioSpec]) -> Vec<Pooled> {
        let (anycast, multicast) = (AnycastStats::new(), MulticastStats::new());
        let mut pooled = vec![Pooled { anycast, multicast, skipped_ops: 0, opening: None }; family.len()];
        let held = family[0].warm_up_differs(&self.base).is_none();
        for run in 0..self.runs {
            let own;
            let warm = if held {
                self.warmed(run)
            } else {
                own = paper::warmed(&reseeded(&family[0], run));
                &own
            };
            for (spec, pool) in family.iter().zip(&mut pooled) {
                let mut session =
                    warm.fork(reseeded(spec, run)).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
                while session.step().is_some() {}
                let report = session.finish();
                pool.anycast.merge(&report.anycast);
                pool.multicast.merge(&report.multicast);
                pool.skipped_ops += report.skipped_ops;
                if run == 0 {
                    pool.opening = report.health.first().cloned();
                }
            }
        }
        pooled
    }
}

/// `spec` at seed `spec.seed + run`.
fn reseeded(spec: &ScenarioSpec, run: u64) -> ScenarioSpec {
    ScenarioSpec { seed: spec.seed + run, ..spec.clone() }
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
    /// The first run's overlay health when its window opened, at the
    /// warm-up's end; `None` when no run was pooled.
    pub opening: Option<HealthSample>,
}

impl Pooled {
    /// The fraction of anycasts sent that were delivered.
    pub fn delivery(&self) -> Option<f64> {
        paper::ratio(self.anycast.delivered as f64, self.anycast.sent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::noisy;
    use crate::paper::{base, harsh, SEED};

    /// The family every pooling test runs: the base workload and a
    /// retried one.
    fn family(spec: &ScenarioSpec) -> [ScenarioSpec; 2] {
        [spec.clone(), harsh(spec, 8)]
    }

    #[test]
    fn pooling_sums_the_runs() {
        let spec = base(120, 2, 10);
        let two = Harness::over(spec.clone(), 2).pooled(&family(&spec));
        let one = Harness::over(spec.clone(), 1).pooled(&family(&spec));
        // A seed the harness does not hold warms its own.
        let next = Harness::over(spec.clone(), 1).pooled(&[ScenarioSpec { seed: SEED + 1, ..spec.clone() }]);
        assert_eq!(two[0].anycast.sent, one[0].anycast.sent + next[0].anycast.sent);
        assert_eq!(two[0].skipped_ops, one[0].skipped_ops + next[0].skipped_ops);
        assert!(two[0].anycast.sent > 0);
        // A spec pools the same inside its family as alone.
        let alone = Harness::over(spec.clone(), 2).pooled(&family(&spec)[1..]);
        let (inside, alone) = (&two[1], &alone[0]);
        assert_eq!((&inside.anycast, inside.skipped_ops), (&alone.anycast, alone.skipped_ops));
        // The opening sample is the first seed's warmed overlay.
        let health = paper::warmed(&spec).sim().health_stats();
        let opening = two[1].opening.as_ref().expect("a run");
        assert_eq!((opening.mean_degree, opening.largest_component), (health.mean_degree, health.largest_component));
        assert_eq!(one[0].opening, two[0].opening);
    }

    #[test]
    fn a_family_with_another_warm_up_pools_as_its_own_base() {
        let spec = base(120, 2, 10);
        let noisy = noisy(&spec);
        let own = Harness::over(spec, 2).pooled(&family(&noisy));
        let held = Harness::over(noisy.clone(), 2).pooled(&family(&noisy));
        for (own, held) in own.iter().zip(&held) {
            assert_eq!((&own.anycast, own.skipped_ops), (&held.anycast, held.skipped_ops));
            assert_eq!(own.opening, held.opening);
        }
        assert!(own[0].anycast.sent > 0);
    }

    #[test]
    #[should_panic(expected = "`oracle`")]
    fn a_family_shares_its_warm_up() {
        let spec = base(120, 2, 10);
        Harness::over(spec.clone(), 1).pooled(&[spec.clone(), noisy(&spec)]);
    }

    /// A held warm-up is the base's converged overlay under ground truth,
    /// whose one epoch no later rebuild reads again: it keeps no pair-hash
    /// row.
    #[test]
    fn a_held_warm_up_keeps_no_pair_hash_rows() {
        let stats = Harness::over(base(120, 2, 10), 1).snapshot().sim().hash_store_stats();
        assert!(stats.rows_built > 0 && stats.cached_rows == 0, "{stats:?}");
    }

    /// The docs that cite `figures` command lines.
    const DOCS: [(&str, &str); 2] = [
        ("README.md", include_str!("../../../README.md")),
        ("SKILL.md", include_str!("../../../.claude/skills/verify/SKILL.md")),
    ];

    /// A `figures` command in the docs names only ids `resolve` knows:
    /// the words after the binary, flags skipped, up to the first that is
    /// not an id (`|`, `#`, `<id>`) or that closes a code span.
    #[test]
    fn docs_name_only_known_experiments() {
        for (doc, text) in DOCS {
            let words: Vec<&str> = text.split_whitespace().collect();
            for (at, word) in words.iter().enumerate() {
                let binary = word.ends_with("`figures") || word.ends_with("release/figures");
                if !(binary || (*word == "figures" && at > 0 && words[at - 1] == "--bin")) {
                    continue;
                }
                let mut named = Vec::new();
                for arg in &words[at + 1..] {
                    let id = arg.trim_end_matches(['`', ')', ',', '.', ';', ':']);
                    if !id.starts_with('-') {
                        if id.is_empty() || !id.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-') {
                            break;
                        }
                        named.push(id);
                    }
                    if id.len() < arg.len() {
                        break;
                    }
                }
                assert!(resolve(named.iter().copied()).is_ok(), "{doc}: `figures {}` names an unknown experiment", named.join(" "));
            }
        }
    }

    fn ids(args: &str) -> Result<Vec<&'static str>, String> {
        resolve(args.split_whitespace()).map(|entries| entries.into_iter().map(|(id, _)| id).collect())
    }

    #[test]
    fn aliases_resolve_to_one_run_of_their_experiment() {
        assert_eq!(ids("fig5 fig6"), Ok(vec!["fig56"]));
        assert_eq!(ids("fig11 fig12 fig13 fig56 fig5"), Ok(vec!["fig11", "fig56"]));
        let all = ids("all").unwrap();
        assert_eq!(all, FIGURES.map(|(id, _)| id));
        assert_eq!(ids("all fig2 theorems"), Ok(all.clone()));
        assert_eq!(ids("fig9 all").unwrap()[..3], ["fig9", "fig2", "fig3"]);
        let both = ids("ablations all ablations").unwrap();
        assert_eq!(both.len(), all.len() + ABLATIONS.len());
        assert_eq!((both[0], both[ABLATIONS.len()]), (ABLATIONS[0].0, "fig2"));
        assert_eq!(ids("fig2 bogus fig3"), Err("bogus".to_owned()));
    }

    /// Each experiment's table is the same whatever ran before it on the
    /// harness, so a held warm-up is never handed on changed.
    #[test]
    fn tables_do_not_depend_on_order() {
        let shared = Harness::new(true);
        for (id, run) in FIGURES.iter().chain(&ABLATIONS) {
            let (after, alone) = (run(&shared).to_string(), run(&Harness::new(true)).to_string());
            assert_eq!(after, alone, "{id}");
        }
    }
}
