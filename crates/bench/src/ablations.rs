//! Ablation experiments for the paper's design choices: the predicate
//! family, the verification cushion, the gossip parameters, the churn
//! workload and the aged estimator. These go beyond the paper's figures —
//! they quantify *why* the paper's default choices (I.B + II.B, cushion
//! 0.1, fanout × Ng ≈ log N*) are the right ones, and each result's
//! `claims` method states its conclusion as [`Claim`] rows under the band
//! rules of [`crate::claims`]. Each edits the paper setting
//! ([`crate::paper::base`]) one choice at a time and takes its warm-ups
//! from the [`Harness`]; a rate over no operations is `None` and prints
//! `-`.

use std::fmt;

use avmem::harness::PredicateChoice;
use avmem::ops::{ForwardPolicy, MulticastStrategy};
use avmem::predicate::{HorizontalRule, VerticalRule};
use avmem::verify::{flooding_acceptance, legitimate_rejection};
use avmem::{AdmissionPolicy, AvailabilityTarget, SliverScope};
use avmem_scenario::{BandSpec, ChurnSpec, ScenarioSpec};
use avmem_sim::SimDuration;

use crate::claims::{gap, least, most, Band, Claim, Experiment};
use crate::experiments::Harness;
use crate::figures::noisy;
use crate::paper::{self, cell, harsh, ratio};

// ---------------------------------------------------------------------
// Predicate-family ablation
// ---------------------------------------------------------------------

/// One predicate variant's overlay and operation quality.
#[derive(Debug, Clone)]
pub struct PredicateAblationRow {
    /// Variant label.
    pub label: String,
    /// Mean stored degree (HS + VS).
    pub mean_degree: f64,
    /// Largest-component fraction of the online overlay.
    pub component: f64,
    /// Retried-greedy (retry 8) delivery into the harsh [0.15, 0.25]
    /// target from HIGH initiators.
    pub harsh_delivery: Option<f64>,
}

/// Predicate-family ablation result.
#[derive(Debug, Clone)]
pub struct PredicateAblation {
    /// One row per (vertical, horizontal) rule combination.
    pub rows: Vec<PredicateAblationRow>,
    /// Operations skipped over all rows.
    pub skipped_ops: u64,
}

/// Compares the sub-predicate family of §2.1: I.A/I.B/I.C × II.A/II.B.
pub fn ablation_predicates(h: &Harness) -> PredicateAblation {
    let n_star_guess = paper::overnet(h.base()).0 as f64 * 0.4; // used only for I.A/II.A tuning
    let (i_a, ii_a) = (
        VerticalRule::constant_for(2.5, n_star_guess),
        HorizontalRule::constant_for(2.0, n_star_guess),
    );
    let ii_b = HorizontalRule::LogarithmicConstant { c2: 2.0 };
    let variants = [
        ("I.A const + II.A const", i_a, ii_a),
        ("I.A const + II.B log-const", i_a, ii_b),
        ("I.B log + II.B log-const (paper)", VerticalRule::Logarithmic { c1: 2.5 }, ii_b),
        ("I.C log-decr + II.B log-const", VerticalRule::LogarithmicDecreasing { c1: 2.5 }, ii_b),
    ];

    let mut ablation = PredicateAblation { rows: Vec::new(), skipped_ops: 0 };
    for (label, vertical, horizontal) in variants {
        let spec = ScenarioSpec {
            predicate: PredicateChoice::Avmem { epsilon: 0.1, vertical, horizontal },
            ..h.base().clone()
        };
        let pooled = h.pooled(&[harsh(&spec, 8)]).remove(0);
        let opening = pooled.opening.as_ref().expect("a run");
        ablation.rows.push(PredicateAblationRow {
            label: label.to_owned(),
            mean_degree: opening.mean_degree,
            component: opening.largest_component,
            harsh_delivery: pooled.delivery(),
        });
        ablation.skipped_ops += pooled.skipped_ops;
    }
    ablation
}

impl fmt::Display for PredicateAblation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Ablation: sub-predicate family (§2.1)")?;
        writeln!(f, "  variant                              degree  component  harsh-delivery")?;
        for row in &self.rows {
            let delivery = cell(row.harsh_delivery, 14, 2);
            writeln!(f, "  {:<36} {:>6.1}  {:>9.3}  {delivery}", row.label, row.mean_degree, row.component)?;
        }
        paper::skipped(f, self.skipped_ops)
    }
}

impl Experiment for PredicateAblation {
    /// Every family keeps the overlay connected and routes within 0.10 of
    /// the paper's I.B + II.B; I.A + II.A is the cheapest, and I.C costs
    /// about twice I.B's degree.
    fn claims(&self) -> Vec<Claim> {
        let [i_a, _, i_b, i_c] = &self.rows[..] else { panic!("four predicate variants") };
        let component = least(self.rows.iter().map(|r| Some(r.component)));
        let spread = most(self.rows.iter().map(|r| gap(r.harsh_delivery, i_b.harsh_delivery).map(f64::abs)));
        let cheapest = least(self.rows[1..].iter().map(|r| Some(r.mean_degree - i_a.mean_degree)));
        let ratio = Some(i_c.mean_degree / i_b.mean_degree);
        let label = "§2.1 ablation";
        vec![
            Claim::new(label, "every family keeps the overlay connected", "least component", component, Band::about(1.0)),
            Claim::new(label, "every family routes comparably", "most |delivery - paper's|", spread, Band::about(0.0)),
            Claim::new(label, "I.A is cheapest", "least degree over I.A + II.A's", cheapest, Band::ORDERED),
            Claim::new(label, "I.C at ~2x degree", "degree I.C / I.B", ratio, Band::near(2.0)),
        ]
    }
}

// ---------------------------------------------------------------------
// Cushion ablation
// ---------------------------------------------------------------------

/// One cushion setting's security/usability trade-off.
#[derive(Debug, Clone)]
pub struct CushionRow {
    /// The cushion value.
    pub cushion: f64,
    /// Mean flooding-attack acceptance over availability buckets.
    pub attack_acceptance: f64,
    /// Mean legitimate rejection over availability buckets.
    pub legitimate_rejection: f64,
}

/// Cushion-sweep ablation result.
#[derive(Debug, Clone)]
pub struct CushionAblation {
    /// One row per cushion value.
    pub rows: Vec<CushionRow>,
}

/// Sweeps the verification cushion over {0, 0.05, 0.1, 0.2}.
pub fn ablation_cushion(h: &Harness) -> CushionAblation {
    let session = paper::warmed(&noisy(h.base()));
    let world = session.sim().world();
    let rows = [0.0, 0.05, 0.1, 0.2].map(|cushion| {
        let policy = AdmissionPolicy::with_cushion(cushion);
        CushionRow {
            cushion,
            attack_acceptance: flooding_acceptance(&world, policy, 10).mean_value(),
            legitimate_rejection: legitimate_rejection(&world, policy, 10).mean_value(),
        }
    });
    CushionAblation { rows: rows.to_vec() }
}

impl fmt::Display for CushionAblation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Ablation: verification cushion (§4.1 trade-off)")?;
        writeln!(f, "  cushion  attack-acceptance  legitimate-rejection")?;
        for row in &self.rows {
            let (cushion, attack, rejection) = (row.cushion, row.attack_acceptance, row.legitimate_rejection);
            writeln!(f, "  {cushion:>7.2}  {attack:>17.3}  {rejection:>20.3}")?;
        }
        Ok(())
    }
}

impl Experiment for CushionAblation {
    /// Rejections fall and the attack surface grows with the cushion, and
    /// 0.1 is the knee: the cushion of least acceptance plus rejection.
    fn claims(&self) -> Vec<Claim> {
        let steps = || self.rows.windows(2);
        let falls = least(steps().map(|w| Some(w[0].legitimate_rejection - w[1].legitimate_rejection)));
        let grows = least(steps().map(|w| Some(w[1].attack_acceptance - w[0].attack_acceptance)));
        let error = |row: &&CushionRow| row.attack_acceptance + row.legitimate_rejection;
        let knee = self.rows.iter().min_by(|a, b| error(a).total_cmp(&error(b))).map(|r| r.cushion);
        let label = "cushion ablation";
        vec![
            Claim::new(label, "rejections fall with the cushion", "least drop", falls, Band::ORDERED),
            Claim::new(label, "attack surface grows with the cushion", "least rise", grows, Band::ORDERED),
            Claim::new(label, "0.1 is the knee", "least-error cushion", knee, Band { lo: 0.1, hi: 0.1 })
                .expected_miss("acceptance rises about one for one with the cushion (cushion + 0.009) while the fall in rejections flattens past 0.05: acceptance + rejection reads 0.170, 0.144, 0.161 and 0.226 at cushions 0, 0.05, 0.1 and 0.2"),
        ]
    }
}

// ---------------------------------------------------------------------
// Gossip-parameter ablation
// ---------------------------------------------------------------------

/// One (fanout, rounds) setting's reliability/cost.
#[derive(Debug, Clone)]
pub struct GossipRow {
    /// Gossip fanout per period.
    pub fanout: u32,
    /// Gossip rounds (`Ng`).
    pub rounds: u32,
    /// Mean reliability over measured multicasts.
    pub reliability: Option<f64>,
    /// Mean messages per multicast, its stage-1 anycast included.
    pub messages: Option<f64>,
    /// Mean worst-case latency (ms) over multicasts that reached anyone.
    pub worst_latency_ms: Option<f64>,
}

/// Gossip-parameter ablation result.
#[derive(Debug, Clone)]
pub struct GossipAblation {
    /// One row per (fanout, rounds) pair; flooding is appended as the
    /// reference row with `fanout = rounds = 0`.
    pub rows: Vec<GossipRow>,
    /// Operations skipped over all rows.
    pub skipped_ops: u64,
    /// `ln N*` of the setting's first trace.
    pub ln_n_star: f64,
}

/// Sweeps gossip (fanout × rounds) around the paper's `log N*` product.
pub fn ablation_gossip(h: &Harness) -> GossipAblation {
    let target = AvailabilityTarget::Threshold { min: 0.7 };
    let period = SimDuration::from_secs(1);
    let gossip = |(fanout, rounds)| MulticastStrategy::Gossip { fanout, rounds, period };
    let mut strategies: Vec<_> = [(1, 2), (2, 2), (5, 2), (5, 4), (10, 2)].map(gossip).into();
    strategies.push(MulticastStrategy::Flood);
    let family: Vec<_> =
        strategies.iter().map(|&m| paper::multicasts(h.base(), BandSpec::High, target, m)).collect();
    let ln_n_star = h.snapshot().sim().n_star().ln();
    let mut ablation = GossipAblation { rows: Vec::new(), skipped_ops: 0, ln_n_star };
    for (multicast, pooled) in strategies.into_iter().zip(h.pooled(&family)) {
        let m = &pooled.multicast;
        let (fanout, rounds) = match multicast {
            MulticastStrategy::Gossip { fanout, rounds, .. } => (fanout, rounds),
            MulticastStrategy::Flood => (0, 0),
        };
        let (latency, reached) = (m.worst_latency_sum_ms as f64, m.worst_latency_histogram.count());
        ablation.rows.push(GossipRow {
            fanout,
            rounds,
            reliability: ratio(m.reliability_sum, m.reliability_count),
            messages: ratio(m.total_messages as f64, m.sent),
            worst_latency_ms: ratio(latency, reached),
        });
        ablation.skipped_ops += pooled.skipped_ops;
    }
    ablation
}

impl fmt::Display for GossipAblation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Ablation: gossip fanout × rounds (§3.2)")?;
        writeln!(f, "  fanout  rounds  reliability  messages  worst-latency-ms")?;
        for row in &self.rows {
            let cost = format!("{}  {}", cell(row.messages, 8, 0), cell(row.worst_latency_ms, 16, 0));
            let (fanout, rounds) = (row.fanout, row.rounds);
            match fanout {
                0 => writeln!(f, "  (flood reference)  {}  {cost}", cell(row.reliability, 8, 3))?,
                _ => writeln!(f, "  {fanout:>6}  {rounds:>6}  {}  {cost}", cell(row.reliability, 11, 3))?,
            }
        }
        paper::skipped(f, self.skipped_ops)
    }
}

impl Experiment for GossipAblation {
    /// The paper's fanout × rounds ≈ log N*: reliability saturates (≈ 1)
    /// once the product reaches `ln N*`, and flooding pays more messages
    /// than any gossip setting that does.
    fn claims(&self) -> Vec<Claim> {
        let (gossip, flood) = self.rows.split_at(self.rows.len() - 1);
        let saturated = || gossip.iter().filter(|r| f64::from(r.fanout * r.rounds) >= self.ln_n_star);
        let reliability = least(saturated().map(|r| r.reliability));
        let premium = least(saturated().map(|r| gap(flood[0].messages, r.messages)));
        let label = "gossip ablation";
        vec![
            Claim::new(label, "product ≈ log N* saturates", "least reliability, product ≥ ln N*", reliability, Band::about(1.0)),
            Claim::new(label, "flooding pays more messages", "least flood - gossip messages", premium, Band::ORDERED),
        ]
    }
}

// ---------------------------------------------------------------------
// Workload ablation: Overnet-style p2p churn vs Grid-style reboots
// ---------------------------------------------------------------------

/// One workload's overlay and operation quality.
#[derive(Debug, Clone)]
pub struct WorkloadRow {
    /// Workload label.
    pub label: String,
    /// Mean availability of the population.
    pub mean_availability: f64,
    /// Churn transitions per online node-hour (slot-width independent).
    pub churn_rate: f64,
    /// Mean stored degree.
    pub mean_degree: f64,
    /// Easy-target anycast delivery (MID → [0.85, 0.95], greedy HS+VS).
    pub easy_delivery: Option<f64>,
    /// Harsh-target anycast delivery (HIGH → [0.15, 0.25], retry 8).
    pub harsh_delivery: Option<f64>,
}

/// Workload-sensitivity ablation result.
#[derive(Debug, Clone)]
pub struct WorkloadAblation {
    /// One row per workload.
    pub rows: Vec<WorkloadRow>,
    /// Operations skipped over all rows.
    pub skipped_ops: u64,
}

/// Compares the Overnet-style p2p workload against a reboot-heavy
/// Grid-style one (§1 motivates both settings). AVMEM's availability
/// structure should keep operations working under either churn regime.
pub fn ablation_workload(h: &Harness) -> WorkloadAblation {
    let (hosts, days) = paper::overnet(h.base());
    let grid = ScenarioSpec { churn: ChurnSpec::Grid { machines: hosts, days }, ..h.base().clone() };
    let workloads = [("Overnet p2p (paper)", h.base().clone()), ("Grid reboot-heavy", grid)];

    let mut ablation = WorkloadAblation { rows: Vec::new(), skipped_ops: 0 };
    for (label, spec) in workloads {
        let trace = spec.build_trace().unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        let stats = trace.stats();
        let hours = trace.duration().as_millis() as f64 / 3_600_000.0;
        let easy = AvailabilityTarget::Range { lo: 0.85, hi: 0.95 };
        let greedy = ForwardPolicy::Greedy;
        let easy = paper::anycasts(&spec, BandSpec::Mid, easy, greedy, SliverScope::Both);
        let pooled = h.pooled(&[easy, harsh(&spec, 8)]);
        let (easy_runs, harsh_runs) = (&pooled[0], &pooled[1]);
        ablation.rows.push(WorkloadRow {
            label: label.to_owned(),
            mean_availability: stats.mean_availability,
            churn_rate: stats.transitions as f64 / (stats.mean_online * hours),
            mean_degree: easy_runs.opening.as_ref().expect("a run").mean_degree,
            easy_delivery: easy_runs.delivery(),
            harsh_delivery: harsh_runs.delivery(),
        });
        ablation.skipped_ops += easy_runs.skipped_ops + harsh_runs.skipped_ops;
    }
    ablation
}

impl fmt::Display for WorkloadAblation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Ablation: workload sensitivity (p2p vs Grid churn)")?;
        writeln!(f, "  workload              mean-av  churn-rate  degree  easy-delivery  harsh-delivery")?;
        for row in &self.rows {
            let (label, av, churn, degree) = (&row.label, row.mean_availability, row.churn_rate, row.mean_degree);
            let (easy, harsh) = (cell(row.easy_delivery, 13, 2), cell(row.harsh_delivery, 14, 2));
            writeln!(f, "  {label:<20}  {av:>7.2}  {churn:>10.3}  {degree:>6.1}  {easy}  {harsh}")?;
        }
        paper::skipped(f, self.skipped_ops)
    }
}

impl Experiment for WorkloadAblation {
    /// Operations deliver about as well under Grid churn as under Overnet
    /// churn, and the Grid trace's availabilities sit higher.
    fn claims(&self) -> Vec<Claim> {
        let [overnet, grid] = &self.rows[..] else { panic!("two workloads") };
        let (easy, harsh) = (gap(grid.easy_delivery, overnet.easy_delivery), gap(grid.harsh_delivery, overnet.harsh_delivery));
        let higher = Some(grid.mean_availability - overnet.mean_availability);
        let (label, paper) = ("workload ablation", "operations stay reliable under both regimes");
        vec![
            Claim::new(label, paper, "Grid - Overnet easy delivery", easy, Band::about(0.0)),
            Claim::new(label, paper, "Grid - Overnet harsh delivery", harsh, Band::about(0.0)),
            Claim::new(label, "low targets are rarer in the Grid trace", "Grid - Overnet mean-av", higher, Band::ORDERED),
        ]
    }
}

// ---------------------------------------------------------------------
// Raw vs aged availability estimates under drift
// ---------------------------------------------------------------------

/// One (workload, estimator) cell of the raw-vs-aged comparison.
#[derive(Debug, Clone)]
pub struct AgedRow {
    /// Workload label (stationary / drifting).
    pub workload: String,
    /// Estimator label (raw / aged).
    pub estimator: String,
    /// Mean absolute error against *recent* availability (last day),
    /// over the nodes the service has an estimate for.
    pub mae_recent: Option<f64>,
}

/// Raw-vs-aged ablation result.
#[derive(Debug, Clone)]
pub struct AgedAblation {
    /// The four (workload × estimator) cells.
    pub rows: Vec<AgedRow>,
}

/// Compares AVMON's raw (lifetime) and aged (EWMA) estimates on
/// stationary and drifting churn. The paper's monitoring contract offers
/// "raw, or aged" long-term availability (§3.1); drift is what makes the
/// aged variant worth having — against *current* behaviour it tracks
/// drifting hosts, while on stationary hosts raw's lower variance wins.
///
/// It drives [`avmem_avmon::AvmonService`] itself: the spec's AVMON oracle
/// does not carry the aged mode.
pub fn ablation_aged(h: &Harness) -> AgedAblation {
    use avmem_avmon::{AvailabilityOracle, AvmonConfig, AvmonService};
    use avmem_sim::SimTime;
    use avmem_util::NodeId;

    // Drift is only visible when the trace is much longer than the
    // "recent behaviour" window (one day).
    let (hosts, days) = paper::overnet(h.base());
    let overnet = || avmem_trace::OvernetModel::default().hosts(hosts).days(days.max(4));
    let workloads = [
        ("stationary", overnet().generate(h.base().seed)),
        ("drifting (all)", overnet().drift_fraction(1.0).generate(h.base().seed)),
    ];

    let mut rows = Vec::new();
    for (workload, trace) in workloads {
        let end = SimTime::ZERO + trace.duration();
        let day_ms = trace.duration().as_millis().saturating_sub(86_400_000);
        let recent_from = SimTime::ZERO + avmem_sim::SimDuration::from_millis(day_ms);
        for (estimator, use_aged) in [("raw", false), ("aged", true)] {
            let config = AvmonConfig {
                use_aged,
                // Effective EWMA window ≈ 1/α slots ≈ 17 h: long enough
                // to keep variance low, short enough to track drift.
                alpha: 0.02,
                ..AvmonConfig::default()
            };
            let mut service = AvmonService::new(&trace, config, 11);
            service.step_to(&trace, end);
            let errors: Vec<f64> = (0..trace.num_nodes())
                .filter_map(|i| {
                    let estimate = service.estimate(NodeId::new(0), trace.node_id(i), end)?;
                    let recent = trace.availability_between(i, recent_from, end);
                    Some((estimate.value() - recent.value()).abs())
                })
                .collect();
            rows.push(AgedRow {
                workload: workload.to_owned(),
                estimator: estimator.to_owned(),
                mae_recent: ratio(errors.iter().sum(), errors.len() as u64),
            });
        }
    }
    AgedAblation { rows }
}

impl fmt::Display for AgedAblation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Ablation: raw vs aged AVMON estimates (error against last-day availability)")?;
        writeln!(f, "  workload         estimator  MAE-vs-recent")?;
        for row in &self.rows {
            let mae = cell(row.mae_recent, 13, 3);
            writeln!(f, "  {:<15}  {:<9}  {mae}", row.workload, row.estimator)?;
        }
        Ok(())
    }
}

impl Experiment for AgedAblation {
    /// Aged estimates track current behaviour better in both regimes, and
    /// the gap widens under drift.
    fn claims(&self) -> Vec<Claim> {
        // `rows` is (raw, aged) per workload, stationary first.
        let gaps: Vec<_> = self.rows.chunks(2).map(|w| gap(w[0].mae_recent, w[1].mae_recent)).collect();
        let label = "aged ablation";
        vec![
            Claim::new(label, "aged estimates track current behaviour in both regimes", "least raw - aged MAE", least(gaps.clone()), Band::ORDERED),
            Claim::new(label, "the gap widens under drift", "drifting - stationary gap", gap(gaps[1], gaps[0]), Band::ORDERED),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Harness {
        Harness::over(paper::base(120, 2, 8), 1)
    }

    #[test]
    fn predicate_ablation_produces_connected_overlays() {
        let ablation = ablation_predicates(&tiny());
        assert_eq!(ablation.rows.len(), 4);
        for row in &ablation.rows {
            assert!(row.mean_degree > 0.0, "{}: empty overlay", row.label);
            assert!(row.component > 0.8, "{}: disconnected", row.label);
        }
        let _ = ablation.to_string();
    }

    #[test]
    fn cushion_ablation_is_monotone() {
        let ablation = ablation_cushion(&tiny());
        for pair in ablation.rows.windows(2) {
            assert!(pair[1].attack_acceptance >= pair[0].attack_acceptance - 1e-9);
            assert!(pair[1].legitimate_rejection <= pair[0].legitimate_rejection + 1e-9);
        }
        let _ = ablation.to_string();
    }

    #[test]
    fn aged_estimates_win_under_drift() {
        let ablation = ablation_aged(&tiny());
        assert_eq!(ablation.rows.len(), 4);
        let cell = |estimator: &str| {
            let row = ablation.rows.iter().find(|r| {
                r.workload.starts_with("drifting") && r.estimator == estimator
            });
            row.and_then(|r| r.mae_recent).expect("estimates exist at the trace's end")
        };
        // Under drift the aged estimator tracks recent behaviour better.
        let (aged, raw) = (cell("aged"), cell("raw"));
        assert!(aged < raw, "aged {aged} should beat raw {raw} under drift");
        let _ = ablation.to_string();
    }

    #[test]
    fn workload_ablation_covers_both_regimes() {
        // The `--small` setting: its first seed's Grid trace has no MID
        // machine up in the window (see the next test), its second's has.
        let ablation = ablation_workload(&Harness::over(paper::base(200, 2, 20), 2));
        let [overnet, grid] = &ablation.rows[..] else { panic!("two workloads") };
        assert!(grid.mean_availability > overnet.mean_availability);
        assert!(grid.churn_rate > overnet.churn_rate);
        // Operations work under both regimes.
        assert!(overnet.easy_delivery.expect("MID initiators online") > 0.5);
        assert!(grid.easy_delivery.expect("MID initiators online") > 0.5);
        let _ = ablation.to_string();
    }

    /// The `--small` Grid trace of the first seed (the trace the parent's
    /// figures ran every run over) has no MID-band machine online in the
    /// window: the Grid row's easy delivery measured nothing, and says so
    /// instead of printing a 0 % delivery rate. (The second seed's trace
    /// has MID machines up, so `--small`'s two runs do measure a rate.)
    #[test]
    fn a_rate_over_no_operations_is_not_applicable() {
        let ablation = ablation_workload(&Harness::over(paper::base(200, 2, 20), 1));
        let grid = &ablation.rows[1];
        assert_eq!(grid.easy_delivery, None);
        assert!(grid.harsh_delivery.is_some());
        assert!(ablation.skipped_ops > 0);
        let text = ablation.to_string();
        let row = text.lines().find(|l| l.contains("Grid reboot")).expect("a Grid row");
        assert!(row.contains("  -  "), "{row}");
    }

    #[test]
    fn gossip_ablation_reliability_grows_with_budget() {
        let ablation = ablation_gossip(&tiny());
        let reliability = |fanout, rounds| {
            let row = ablation.rows.iter().find(|r| (r.fanout, r.rounds) == (fanout, rounds));
            row.and_then(|r| r.reliability).expect("setting present and measured")
        };
        let (fat, skinny) = (reliability(5, 4), reliability(1, 2));
        assert!(fat >= skinny, "more budget should not hurt: {fat} vs {skinny}");
        let _ = ablation.to_string();
    }
}
