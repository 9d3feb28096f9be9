//! The experiments by id: the one list the `figures` binary and
//! `tests/paper_claims.rs` both run.

use std::cell::OnceCell;

use avmem_scenario::{RunSession, ScenarioSpec};

use crate::claims::Experiment;
use crate::figures::{self, Fig9};
use crate::{ablations, paper};

/// The figure experiments, in the order `all` runs them.
pub const FIGURES: [&str; 11] =
    ["fig2", "fig3", "fig4", "fig56", "fig7", "fig8", "fig9", "fig10", "fig11", "discovery", "theorems"];

/// The ablations, in the order `ablations` runs them.
pub const ABLATIONS: [&str; 5] =
    ["ablation-predicates", "ablation-cushion", "ablation-gossip", "ablation-workload", "ablation-aged"];

/// The paper setting at one scale, and what its experiments share: the
/// warmed snapshot of the base spec's first seed, which Figs. 2–4, the
/// theorem checks and Fig. 10's sizing read (one warm-up a run), and
/// AVMEM's retry sweep, which Fig. 9 prints and Fig. 10 is held against.
#[derive(Debug)]
pub struct Harness {
    /// The line a run's output opens with.
    pub header: String,
    small: bool,
    base: ScenarioSpec,
    runs: u64,
    snapshot: OnceCell<RunSession>,
    avmem_sweep: OnceCell<Fig9>,
}

impl Harness {
    /// The paper's scale — 1442 hosts × 7 days; "each point … the average
    /// of 5 different protocol runs, each with 50 messages" — or, when
    /// `small`, 200 hosts × 2 days, 2 runs × 20 messages, which runs in
    /// well under a second.
    pub fn new(small: bool) -> Harness {
        let (hosts, days, runs, messages) = if small { (200, 2, 2, 20) } else { (1442, 7, 5, 50) };
        let mode = if small { " (small mode)" } else { "" };
        let header = format!(
            "# AVMEM figure harness: {hosts} hosts, {days} days, {runs} runs × {messages} messages{mode}"
        );
        let base = paper::base(hosts, days, messages);
        Harness { header, small, base, runs, snapshot: OnceCell::new(), avmem_sweep: OnceCell::new() }
    }

    /// Whether this is the paper's scale, the one its claims' bands are
    /// stated for.
    pub fn paper_scale(&self) -> bool {
        !self.small
    }

    /// Runs experiment `id`, one of [`FIGURES`] or [`ABLATIONS`].
    ///
    /// # Panics
    ///
    /// Panics on any other id.
    pub fn run(&self, id: &str) -> Box<dyn Experiment> {
        let (base, runs) = (&self.base, self.runs);
        let snapshot = || self.snapshot.get_or_init(|| paper::warmed(base));
        let avmem = || self.avmem_sweep.get_or_init(|| figures::fig9(base, runs)).clone();
        match id {
            "fig2" => Box::new(figures::fig2(snapshot())),
            "fig3" => Box::new(figures::fig3(snapshot())),
            "fig4" => Box::new(figures::fig4(snapshot())),
            "fig56" => Box::new(figures::fig56(base)),
            "fig7" => Box::new(figures::fig7(base, runs)),
            "fig8" => Box::new(figures::fig8(base, runs)),
            "fig9" => Box::new(avmem()),
            "fig10" => Box::new(figures::fig10(base, runs, snapshot(), avmem())),
            "fig11" => Box::new(figures::fig111213(base, runs)),
            "discovery" => Box::new(figures::discovery_micro(if self.small { 128 } else { 1024 }, 30)),
            "theorems" => Box::new(figures::theorem_checks(snapshot())),
            "ablation-predicates" => Box::new(ablations::ablation_predicates(base, runs)),
            "ablation-cushion" => Box::new(ablations::ablation_cushion(base)),
            "ablation-gossip" => Box::new(ablations::ablation_gossip(base, runs)),
            "ablation-workload" => Box::new(ablations::ablation_workload(base, runs)),
            "ablation-aged" => Box::new(ablations::ablation_aged(base)),
            other => panic!("no experiment {other:?}"),
        }
    }
}
