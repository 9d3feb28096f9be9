//! One experiment per figure of the paper's evaluation (§4).
//!
//! Each function regenerates the data series behind a figure from specs
//! edited out of the paper setting ([`crate::paper::base`]) and returns a
//! result struct whose `Display` impl prints the same rows/series the
//! paper reports, and whose `claims` method reads what the paper says
//! about them as [`Claim`] rows (the band rules are in [`crate::claims`]).
//! Absolute numbers differ (synthetic trace, simulated latencies); the
//! claims — who wins, by what factor, which bound holds — are the
//! reproduction targets, and `tests/paper_claims.rs` checks them at paper
//! scale; `tests/figure_shapes.rs` and this module's tests keep looser
//! shape checks at a few hundred hosts. Every experiment takes the
//! [`Harness`]: the snapshot figures (2–4, the theorem checks) read its
//! warmed first seed, and the operation figures pool forks of its
//! warm-ups. A rate over no operations is `None` and prints `-`.

use std::collections::BTreeMap;
use std::fmt;

use avmem::graph::{components, path_lengths};
use avmem::harness::{OracleChoice, PredicateChoice};
use avmem::ops::{AnycastDrop, ForwardPolicy, MulticastStrategy, OverlayWorld};
use avmem::verify::{flooding_acceptance, legitimate_rejection};
use avmem::{AdmissionPolicy, AvailabilityTarget, SliverScope};
use avmem_scenario::{BandSpec, Buckets, ScenarioSpec};
use avmem_sim::SimDuration;
use avmem_shuffle::{sim::RoundSim, ShuffleConfig};
use avmem_util::stats::{correlation, slope, Histogram, Summary};
use avmem_util::{Availability, NodeId};

use crate::claims::{gap, least, most, Band, Claim, Experiment};
use crate::experiments::{Harness, Pooled};
use crate::paper::{self, cell, ratio, skipped};

/// The anycast algorithm variants compared throughout §4.2.
pub const ANYCAST_VARIANTS: [(&str, ForwardPolicy, SliverScope); 4] = [
    ("sim-annealing", ForwardPolicy::SimulatedAnnealing, SliverScope::Both),
    ("HS+VS", ForwardPolicy::Greedy, SliverScope::Both),
    ("VS-only", ForwardPolicy::Greedy, SliverScope::VsOnly),
    ("HS-only", ForwardPolicy::Greedy, SliverScope::HsOnly),
];

/// `[lo, hi]` as a spec target.
const fn range(lo: f64, hi: f64) -> AvailabilityTarget {
    AvailabilityTarget::Range { lo, hi }
}

/// `base` firing anycasts from `band` into `[lo, hi]`, once per variant of
/// [`ANYCAST_VARIANTS`].
fn variants(base: &ScenarioSpec, band: BandSpec, (lo, hi): (f64, f64)) -> [ScenarioSpec; 4] {
    let target = range(lo, hi);
    ANYCAST_VARIANTS.map(|(_, policy, scope)| paper::anycasts(base, band, target, policy, scope))
}

/// The label of 0.1-wide availability bucket `b`.
fn decile(b: usize) -> String {
    format!("[{:.1},{:.1})", b as f64 / 10.0, (b + 1) as f64 / 10.0)
}

// ---------------------------------------------------------------------
// Readings of the warmed-up overlay (§4.1), straight off the live lists
// ---------------------------------------------------------------------

/// The online nodes of `world`, ascending.
fn online<W: OverlayWorld>(world: &W) -> impl Iterator<Item = NodeId> + '_ {
    (0..world.id_bound() as u64).map(NodeId::new).filter(|&id| world.is_online(id))
}

/// How many of `id`'s `scope` neighbors are online: the paper's snapshot
/// (and Theorems 1–3) count online neighbors, while a stored list keeps an
/// offline entry until a refresh drops it.
fn online_members<W: OverlayWorld>(world: &W, id: NodeId, scope: SliverScope) -> usize {
    let ids = world.neighbors(id, scope).ids;
    ids.iter().filter(|&&j| world.is_online(NodeId::new(u64::from(j)))).count()
}

/// `(availability, online members of scope)` for every online node, by
/// the availability the node believes it has — its oracle's answer, or
/// its true availability when the oracle has none (Figs. 2b and 2c).
pub fn sliver_sizes<W: OverlayWorld>(world: &W, scope: SliverScope) -> Vec<(f64, f64)> {
    let size = |id| (world.believed_availability(id).value(), online_members(world, id, scope) as f64);
    online(world).map(size).collect()
}

/// Fig. 3's axes for every online node: how many other online nodes
/// believe themselves closer than `epsilon` to it, and its online |HS|.
pub fn hs_scaling_points<W: OverlayWorld>(world: &W, epsilon: f64) -> Vec<(f64, f64)> {
    let believed: Vec<(NodeId, Availability)> =
        online(world).map(|id| (id, world.believed_availability(id))).collect();
    let point = |&(id, av): &(NodeId, Availability)| {
        let near = |&&(other, o): &&(NodeId, Availability)| other != id && o.distance(av) < epsilon;
        let candidates = believed.iter().filter(near).count();
        (candidates as f64, online_members(world, id, SliverScope::HsOnly) as f64)
    };
    believed.iter().map(point).collect()
}

/// Per bucket of true availability: the online nodes (Fig. 2a), and the
/// VS links between online nodes that point into the bucket (Fig. 4).
pub fn online_and_vs_in_links<W: OverlayWorld>(
    world: &W,
    buckets: usize,
) -> (Histogram, Histogram) {
    let (mut population, mut links) = (Histogram::new(buckets), Histogram::new(buckets));
    for id in online(world) {
        population.add(world.true_availability(id).value());
        for &j in world.neighbors(id, SliverScope::VsOnly).ids {
            let target = NodeId::new(u64::from(j));
            if world.is_online(target) {
                links.add(world.true_availability(target).value());
            }
        }
    }
    (population, links)
}

/// A histogram's bucket counts.
fn counts(histogram: &Histogram) -> Vec<u64> {
    (0..histogram.buckets()).map(|b| histogram.count(b)).collect()
}

// ---------------------------------------------------------------------
// Fig. 2 — system snapshot: online distribution and sliver sizes
// ---------------------------------------------------------------------

/// Fig. 2: snapshot after 24 h warm-up.
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// Online node count.
    pub online: usize,
    /// Online nodes per 0.1 availability bucket (Fig. 2a).
    pub histogram: Vec<u64>,
    /// Median HS size per availability bucket (Fig. 2b).
    pub hs_median: Vec<Option<f64>>,
    /// Median VS size per availability bucket (Fig. 2c).
    pub vs_median: Vec<Option<f64>>,
    /// Pearson correlation of (availability, |HS|).
    pub hs_correlation: f64,
    /// Pearson correlation of (availability, |VS|).
    pub vs_correlation: f64,
}

/// Runs the Fig. 2 snapshot experiment over the harness's snapshot.
pub fn fig2(h: &Harness) -> Fig2 {
    let world = h.snapshot().sim().world();
    let buckets = 10;
    let (histogram, _) = online_and_vs_in_links(&world, buckets);
    let median_per_bucket = |points: &[(f64, f64)]| -> Vec<Option<f64>> {
        (0..buckets)
            .map(|b| {
                let lo = b as f64 / buckets as f64;
                let hi = (b + 1) as f64 / buckets as f64;
                let values: Vec<f64> = points
                    .iter()
                    .filter(|(av, _)| *av >= lo && (*av < hi || (b == buckets - 1 && *av <= hi)))
                    .map(|&(_, size)| size)
                    .collect();
                (!values.is_empty()).then(|| Summary::from_values(values).median())
            })
            .collect()
    };
    let hs_points = sliver_sizes(&world, SliverScope::HsOnly);
    let vs_points = sliver_sizes(&world, SliverScope::VsOnly);
    Fig2 {
        online: histogram.total() as usize,
        histogram: counts(&histogram),
        hs_median: median_per_bucket(&hs_points),
        vs_median: median_per_bucket(&vs_points),
        hs_correlation: correlation(&hs_points),
        vs_correlation: correlation(&vs_points),
    }
}

impl fmt::Display for Fig2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig 2. snapshot after warm-up: {} online nodes", self.online)?;
        writeln!(f, "  bucket  online  median|HS|  median|VS|")?;
        for (b, online) in self.histogram.iter().enumerate() {
            let (hs, vs) = (cell(self.hs_median[b], 8, 1), cell(self.vs_median[b], 8, 1));
            writeln!(f, "  {}  {online:>5}  {hs}  {vs}", decile(b))?;
        }
        let (hs, vs) = (self.hs_correlation, self.vs_correlation);
        writeln!(f, "  corr(av,|HS|) = {hs:+.2}   corr(av,|VS|) = {vs:+.2}")
    }
}

impl Experiment for Fig2 {
    /// |HS| grows with availability, |VS| does not.
    fn claims(&self) -> Vec<Claim> {
        let (hs, vs) = (Some(self.hs_correlation), Some(self.vs_correlation));
        vec![
            Claim::new("Fig 2b", "increasing", "corr(av,|HS|)", hs, Band::ORDERED),
            Claim::new("Fig 2c", "~0", "corr(av,|VS|)", vs, Band::UNCORRELATED),
        ]
    }
}

// ---------------------------------------------------------------------
// Fig. 3 — horizontal sliver scaling
// ---------------------------------------------------------------------

/// Fig. 3: HS size vs number of in-band candidates.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// Mean HS size bucketed by candidate count (bucket width
    /// `candidate_bucket`).
    pub points: Vec<(f64, f64)>,
    /// Bucket width on the candidates axis.
    pub candidate_bucket: f64,
    /// Least-squares exponent `k` of `mean|HS| ∝ candidates^k`: the
    /// slope of ln mean|HS| against ln candidates over the bucket means.
    pub exponent: f64,
}

/// Runs the Fig. 3 scaling experiment over the harness's snapshot.
pub fn fig3(h: &Harness) -> Fig3 {
    let sim = h.snapshot().sim();
    let raw = hs_scaling_points(&sim.world(), sim.predicate().epsilon());
    let max_candidates = raw.iter().map(|p| p.0).fold(0.0f64, f64::max).max(1.0);
    let bucket = (max_candidates / 12.0).max(1.0);
    let mut grouped: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for &(candidates, size) in &raw {
        grouped.entry((candidates / bucket) as u64).or_default().push(size);
    }
    let mean = |sizes: Vec<f64>| sizes.iter().sum::<f64>() / sizes.len() as f64;
    let points: Vec<(f64, f64)> =
        grouped.into_iter().map(|(b, sizes)| ((b as f64 + 0.5) * bucket, mean(sizes))).collect();
    let logs: Vec<(f64, f64)> =
        points.iter().filter(|p| p.1 > 0.0).map(|&(c, hs)| (c.ln(), hs.ln())).collect();
    Fig3 { points, candidate_bucket: bucket, exponent: slope(&logs) }
}

impl fmt::Display for Fig3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig 3. horizontal sliver scaling (bucket {:.0} candidates)", self.candidate_bucket)?;
        writeln!(f, "  candidates-in-band   mean|HS|")?;
        for &(candidates, hs) in &self.points {
            writeln!(f, "  {candidates:>12.0}   {hs:>10.1}")?;
        }
        writeln!(f, "  least-squares exponent of mean|HS| against candidates: {:.3}", self.exponent)
    }
}

impl Experiment for Fig3 {
    /// |HS| grows sublinearly with the band's population.
    fn claims(&self) -> Vec<Claim> {
        let sublinear = Band { lo: 0.0, hi: 1.0 };
        vec![Claim::new("Fig 3", "sublinear growth", "exponent", Some(self.exponent), sublinear)]
    }
}

// ---------------------------------------------------------------------
// Fig. 4 — incoming vertical sliver link distribution
// ---------------------------------------------------------------------

/// Fig. 4: incoming VS references per availability range.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// Total incoming VS links per 0.1 bucket.
    pub links: Vec<u64>,
    /// Online population per bucket, for reference.
    pub population: Vec<u64>,
    /// Coefficient of variation of links across non-empty buckets.
    pub coefficient_of_variation: f64,
    /// Pearson correlation between bucket population and bucket links.
    pub population_correlation: f64,
}

/// Runs the Fig. 4 in-link experiment over the harness's snapshot.
pub fn fig4(h: &Harness) -> Fig4 {
    let (population, links) = online_and_vs_in_links(&h.snapshot().sim().world(), 10);
    let (population, links) = (counts(&population), counts(&links));
    // (population, links) over the populated buckets.
    let populated: Vec<(f64, f64)> = links
        .iter()
        .zip(&population)
        .filter(|(_, &p)| p > 0)
        .map(|(&l, &p)| (p as f64, l as f64))
        .collect();
    let summary = Summary::from_values(populated.iter().map(|&(_, l)| l));
    let mean = summary.mean();
    Fig4 {
        links,
        population,
        coefficient_of_variation: if mean > 0.0 { summary.std_dev() / mean } else { 0.0 },
        population_correlation: correlation(&populated),
    }
}

impl fmt::Display for Fig4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig 4. incoming vertical-sliver links per availability range")?;
        writeln!(f, "  bucket   online  incoming-VS-links")?;
        for (b, links) in self.links.iter().enumerate() {
            writeln!(f, "  {}  {:>5}  {links:>12}", decile(b), self.population[b])?;
        }
        let (cv, r) = (self.coefficient_of_variation, self.population_correlation);
        writeln!(f, "  cv(links) = {cv:.2}; corr(population, links) = {r:+.2}")
    }
}

impl Experiment for Fig4 {
    /// In-links are spread evenly, whatever the range's population.
    fn claims(&self) -> Vec<Claim> {
        let (cv, r) = (Some(self.coefficient_of_variation), Some(self.population_correlation));
        let cause = "I.B draws a node's vertical links from outside its own ±ε band, so a target in the dense 0.8-1.0 deciles has 368-369 eligible online sources on average against 488-586 elsewhere (corr(population, eligible sources) = -0.95; corr(eligible sources, links) = +0.68)";
        vec![
            Claim::new("Fig 4", "largely uniform", "cv(links)", cv, Band::about(0.0)).expected_miss(cause),
            Claim::new("Fig 4", "uncorrelated", "corr(population, links)", r, Band::UNCORRELATED).expected_miss(cause),
        ]
    }
}

// ---------------------------------------------------------------------
// Figs. 5 & 6 — attack analysis
// ---------------------------------------------------------------------

/// Figs. 5–6: flooding-attack acceptance and legitimate rejection, per
/// attacker/sender availability bucket, for cushions 0 and 0.1.
#[derive(Debug, Clone)]
pub struct Fig56 {
    /// Fig. 5 series, cushion = 0.
    pub flooding_strict: Vec<Option<f64>>,
    /// Fig. 5 series, cushion = 0.1.
    pub flooding_cushion: Vec<Option<f64>>,
    /// Fig. 6 series, cushion = 0.
    pub rejection_strict: Vec<Option<f64>>,
    /// Fig. 6 series, cushion = 0.1.
    pub rejection_cushion: Vec<Option<f64>>,
}

/// The paper setting over a noisy oracle (±0.05, 20-minute staleness,
/// per querier): the divergent caches receiver-side verification must
/// tolerate (Figs. 5–6 and the cushion ablation).
pub fn noisy(base: &ScenarioSpec) -> ScenarioSpec {
    ScenarioSpec { oracle: OracleChoice::paper_noise(), ..base.clone() }
}

/// Runs the attack-analysis experiments over a noisy oracle.
pub fn fig56(h: &Harness) -> Fig56 {
    let session = paper::warmed(&noisy(h.base()));
    let world = session.sim().world();
    let [strict, cushion] = [0.0, 0.1].map(AdmissionPolicy::with_cushion);
    Fig56 {
        flooding_strict: flooding_acceptance(&world, strict, 10).values,
        flooding_cushion: flooding_acceptance(&world, cushion, 10).values,
        rejection_strict: legitimate_rejection(&world, strict, 10).values,
        rejection_cushion: legitimate_rejection(&world, cushion, 10).values,
    }
}

/// One of Figs. 5–6: the cushion-0 and cushion-0.1 series by bucket.
fn cushion_table(
    f: &mut fmt::Formatter<'_>,
    title: &str,
    [strict, cushion]: [&[Option<f64>]; 2],
) -> fmt::Result {
    writeln!(f, "{title}")?;
    writeln!(f, "  bucket    cushion=0  cushion=0.1")?;
    for (b, (&s, &c)) in strict.iter().zip(cushion).enumerate() {
        writeln!(f, "  {}   {}     {}", decile(b), cell(s, 6, 3), cell(c, 6, 3))?;
    }
    Ok(())
}

impl fmt::Display for Fig56 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        cushion_table(
            f,
            "Fig 5. flooding attack: fraction of non-neighbors accepting",
            [&self.flooding_strict, &self.flooding_cushion],
        )?;
        writeln!(f)?;
        cushion_table(
            f,
            "Fig 6. legitimate rejection rate",
            [&self.rejection_strict, &self.rejection_cushion],
        )
    }
}

impl Experiment for Fig56 {
    /// Bounds on every bucket of each series.
    fn claims(&self) -> Vec<Claim> {
        let all = "below ~0.10 across all attacker availabilities";
        let [strict, cushion, no_cushion, with] =
            [&self.flooding_strict, &self.flooding_cushion, &self.rejection_strict, &self.rejection_cushion]
                .map(|series| most(series.iter().copied()));
        vec![
            Claim::new("Fig 5", all, "max acceptance", strict, Band::at_most(0.1)),
            Claim::new("Fig 5", all, "max acceptance, cushion 0.1", cushion, Band::at_most(0.1)).expected_miss("a receiver admits a hash up to the threshold plus the cushion, so a non-neighbor gets in with probability about cushion + the strict rate (0.109 at 0.1 in the cushion ablation): at cushion 0.1 acceptance sits on the bound by construction"),
            Claim::new("Fig 6", "below 0.30 with no cushion", "max rejection", no_cushion, Band::at_most(0.3)),
            Claim::new("Fig 6", "below 0.20 with cushion 0.1", "max rejection", with, Band::at_most(0.2)),
        ]
    }
}

// ---------------------------------------------------------------------
// Fig. 7 — range anycast hop distribution
// ---------------------------------------------------------------------

/// Fig. 7: hops needed for range anycast, MID → [0.85, 0.95].
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// Per variant: `(name, delivered fraction, fraction delivered per
    /// hop count 0..=6)`.
    pub variants: Vec<(String, Option<f64>, Vec<Option<f64>>)>,
    /// Operations skipped over all variants.
    pub skipped_ops: u64,
}

/// Runs the Fig. 7 hop-distribution experiment.
pub fn fig7(h: &Harness) -> Fig7 {
    let mut fig = Fig7 { variants: Vec::new(), skipped_ops: 0 };
    let pooled = h.pooled(&variants(h.base(), BandSpec::Mid, (0.85, 0.95)));
    for ((name, _, _), pooled) in ANYCAST_VARIANTS.into_iter().zip(pooled) {
        let a = &pooled.anycast;
        // TTL 6: the last bucket holds six hops and more.
        let mut per_hop = a.hops_histogram[..7].to_vec();
        per_hop[6] += a.hops_histogram[7..].iter().sum::<u64>();
        let per_hop = per_hop.into_iter().map(|n| ratio(n as f64, a.sent)).collect();
        fig.variants.push((name.to_owned(), pooled.delivery(), per_hop));
        fig.skipped_ops += pooled.skipped_ops;
    }
    fig
}

impl fmt::Display for Fig7 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig 7. range anycast MID → [0.85,0.95]: hops to delivery (TTL 6)")?;
        writeln!(f, "  variant         delivered  hops:0      1      2      3      4      5      6")?;
        for (name, delivered, per_hop) in &self.variants {
            write!(f, "  {name:<15} {}  ", cell(*delivered, 8, 2))?;
            for &frac in per_hop {
                write!(f, " {}", cell(frac, 6, 2))?;
            }
            writeln!(f)?;
        }
        skipped(f, self.skipped_ops)
    }
}

impl Experiment for Fig7 {
    /// Every variant delivers, all but HS-only within one hop (p90 ≤ 1:
    /// at least 0.9 of the deliveries take one hop or none).
    fn claims(&self) -> Vec<Claim> {
        let cause = "plain greedy does not retry a next hop that went offline: of 36, 35, 39 and 177 drops in 259 (sim-annealing, HS+VS, VS-only, HS-only; five seeds) all but one VS-only TTL expiry are next_hop_offline, and retried greedy (retries 8) delivers 259 of 259 over HS+VS, 255 over HS only";
        let mut claims = Vec::new();
        for (name, delivered, per_hop) in &self.variants {
            claims.push(Claim::new("Fig 7", "all variants ~100% success", format!("{name} delivered"), *delivered, Band::about(1.0)).expected_miss(cause));
            if name != "HS-only" {
                let within = per_hop[0].zip(per_hop[1]).zip(*delivered).map(|((zero, one), d)| (zero + one) / d);
                claims.push(Claim::new("Fig 7", "all except HS-only within ~1 hop", format!("{name} ≤ 1 hop share"), within, Band::at_least(0.9)));
            }
        }
        claims
    }
}

// ---------------------------------------------------------------------
// Fig. 8 — anycast under increasingly harsh targets
// ---------------------------------------------------------------------

/// Fig. 8: delivery fraction, HIGH initiators → three target ranges.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// Rows: target range label; columns follow [`ANYCAST_VARIANTS`].
    pub rows: Vec<(String, Vec<Option<f64>>)>,
    /// Operations skipped over all cells.
    pub skipped_ops: u64,
}

/// Runs the Fig. 8 harshness sweep.
pub fn fig8(h: &Harness) -> Fig8 {
    let targets = [(0.85, 0.95), (0.44, 0.54), (0.15, 0.25)];
    let family: Vec<_> = targets.iter().flat_map(|&t| variants(h.base(), BandSpec::High, t)).collect();
    let pooled = h.pooled(&family);
    let mut fig = Fig8 { rows: Vec::new(), skipped_ops: 0 };
    for ((lo, hi), row) in targets.into_iter().zip(pooled.chunks(ANYCAST_VARIANTS.len())) {
        let fractions = row.iter().map(Pooled::delivery).collect();
        fig.rows.push((format!("HIGH to [{lo:.2},{hi:.2}]"), fractions));
        fig.skipped_ops += row.iter().map(|p| p.skipped_ops).sum::<u64>();
    }
    fig
}

impl fmt::Display for Fig8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig 8. range anycast under increasingly harsh scenarios (delivered fraction)")?;
        write!(f, "  target              ")?;
        for (name, _, _) in ANYCAST_VARIANTS {
            write!(f, " {name:>13}")?;
        }
        writeln!(f)?;
        for (label, fractions) in &self.rows {
            write!(f, "  {label:<20}")?;
            for &frac in fractions {
                write!(f, " {}", cell(frac, 13, 2))?;
            }
            writeln!(f)?;
        }
        skipped(f, self.skipped_ops)
    }
}

impl Experiment for Fig8 {
    /// Delivery falls as the target moves to lower availabilities, and
    /// HS+VS delivers the most in every row.
    fn claims(&self) -> Vec<Claim> {
        let rows: Vec<&[Option<f64>]> = self.rows.iter().map(|(_, f)| f.as_slice()).collect();
        let steps = rows.windows(2).flat_map(|w| w[0].iter().zip(w[1]).map(|(&e, &h)| gap(e, h)));
        let (hs_vs, others) = (1, [0, 2, 3]); // Positions in `ANYCAST_VARIANTS`.
        let best = rows.iter().flat_map(|row| others.map(|i| gap(row[hs_vs], row[i])));
        let degrades = "success degrades toward low-availability targets";
        vec![
            Claim::new("Fig 8", degrades, "least drop to the next target", least(steps), Band::ORDERED),
            Claim::new("Fig 8", "HS+VS best", "least HS+VS margin", least(best), Band::ORDERED),
        ]
    }
}

// ---------------------------------------------------------------------
// Figs. 9 & 10 — retried-greedy anycast, AVMEM vs random overlay
// ---------------------------------------------------------------------

/// One row of the retried-greedy sweep.
#[derive(Debug, Clone)]
pub struct RetrySweepRow {
    /// Retry budget.
    pub retries: u32,
    /// Fraction delivered.
    pub delivered: Option<f64>,
    /// Fraction dropped on TTL expiry.
    pub ttl_expired: Option<f64>,
    /// Fraction dropped on retry/candidate exhaustion.
    pub retry_expired: Option<f64>,
    /// Mean delivery latency (ms) over delivered anycasts.
    pub mean_latency_ms: Option<f64>,
}

/// Figs. 9/10: retried-greedy anycast in the harsh scenario.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// Which overlay the sweep ran on.
    pub overlay: String,
    /// One row per retry budget {2, 4, 8, 16}.
    pub rows: Vec<RetrySweepRow>,
    /// Operations skipped over all rows.
    pub skipped_ops: u64,
}

/// Runs the Fig. 9 sweep over the AVMEM overlay.
pub fn fig9(h: &Harness) -> Fig9 {
    retry_sweep(h, h.base(), "AVMEM".into())
}

/// Fig. 10: the retried-greedy sweep over random overlays, held against
/// AVMEM's (Fig. 9).
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// AVMEM's sweep, the one Fig. 9 prints.
    pub avmem: Fig9,
    /// One sweep per random overlay, the paper's CYCLON-size one first.
    pub random: Vec<Fig9>,
}

/// Runs the Fig. 10 sweep over the random-overlay baseline, sizing it
/// from the harness's snapshot, against AVMEM's sweep.
///
/// The paper's baseline is "a random overlay graph similar to those
/// created by alternative membership protocols like SCAMP, CYCLON,
/// T-MAN" — i.e. `O(log N)` uniformly random neighbors. We report that
/// (`2·ln N*`, matching AVMEM's vertical-sliver link budget) and, as a
/// harder ablation, a baseline degree-matched to AVMEM's full stored
/// degree — isolating whether AVMEM's edge comes from *where* its links
/// point rather than from how many it has.
pub fn fig10(h: &Harness) -> Fig10 {
    let sim = h.snapshot().sim();
    let (cyclon, matched) = (2.0 * sim.n_star().ln(), sim.health_stats().mean_degree.max(1.0));
    let random = [("CYCLON-size", cyclon), ("degree-matched", matched)]
        .into_iter()
        .map(|(kind, degree)| {
            let predicate = PredicateChoice::Random { expected_degree: degree };
            let random = ScenarioSpec { predicate, ..h.base().clone() };
            retry_sweep(h, &random, format!("random ({kind}, degree {degree:.0})"))
        })
        .collect();
    Fig10 { avmem: fig9(h), random }
}

/// Fig. 9's sweep of the retry budget over `base`'s overlay.
fn retry_sweep(h: &Harness, base: &ScenarioSpec, overlay: String) -> Fig9 {
    let mut fig = Fig9 { overlay, rows: Vec::new(), skipped_ops: 0 };
    let budgets = [2u32, 4, 8, 16];
    let family = budgets.map(|retries| paper::harsh(base, retries));
    for (retries, pooled) in budgets.into_iter().zip(h.pooled(&family)) {
        let a = &pooled.anycast;
        let share = |count: u64| ratio(count as f64, a.sent);
        fig.rows.push(RetrySweepRow {
            retries,
            delivered: share(a.delivered),
            ttl_expired: share(a.dropped(AnycastDrop::TtlExpired)),
            // The paper's "retry expired" bucket covers both budget and
            // candidate exhaustion (§3.2: retrying stops on either).
            retry_expired: share(
                a.dropped(AnycastDrop::RetryExpired) + a.dropped(AnycastDrop::NoCandidates),
            ),
            mean_latency_ms: ratio(a.delivered_latency_ms as f64, a.delivered),
        });
        fig.skipped_ops += pooled.skipped_ops;
    }
    fig
}

impl fmt::Display for Fig9 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let overlay = &self.overlay;
        writeln!(f, "Fig 9/10. retried-greedy anycast HIGH → [0.15,0.25] over {overlay} overlay")?;
        writeln!(f, "  retries  delivered  ttl-expired  retry-expired  mean-latency-ms")?;
        for row in &self.rows {
            let (delivered, ttl) = (cell(row.delivered, 9, 2), cell(row.ttl_expired, 11, 2));
            let (retry, latency) = (cell(row.retry_expired, 13, 2), cell(row.mean_latency_ms, 15, 0));
            writeln!(f, "  {:>7}  {delivered}  {ttl}  {retry}  {latency}", row.retries)?;
        }
        skipped(f, self.skipped_ops)
    }
}

impl Experiment for Fig9 {
    /// Past 8 retries, more retries deliver about as much.
    fn claims(&self) -> Vec<Claim> {
        let gain = gap(self.rows[3].delivered, self.rows[2].delivered); // Retries 16 and 8.
        let paper = "delivery plateaus around retry=8";
        vec![Claim::new("Fig 9", paper, "delivered(16) - delivered(8)", gain, Band::about(0.0))]
    }
}

impl fmt::Display for Fig10 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, sweep) in self.random.iter().enumerate() {
            write!(f, "{}{sweep}", if i == 0 { "" } else { "\n" })?;
        }
        Ok(())
    }
}

impl Experiment for Fig10 {
    /// AVMEM delivers more than the paper's CYCLON-size random overlay at
    /// every retry budget; the degree-matched overlay is this
    /// reproduction's own ablation, with no claim of the paper's.
    fn claims(&self) -> Vec<Claim> {
        let rows = self.avmem.rows.iter().zip(&self.random[0].rows);
        let margins = rows.map(|(avmem, random)| gap(avmem.delivered, random.delivered));
        let paper = "AVMEM beats the random overlay";
        vec![Claim::new("Fig 10", paper, "least AVMEM - random delivered", least(margins), Band::ORDERED)]
    }
}

// ---------------------------------------------------------------------
// Figs. 11–13 — multicast latency / spam / reliability CDFs
// ---------------------------------------------------------------------

/// One multicast scenario's measured distributions.
#[derive(Debug, Clone)]
pub struct MulticastScenario {
    /// Scenario label as in the paper's legends.
    pub label: String,
    /// Whether the scenario gossips (else it floods).
    pub gossip: bool,
    /// Number of multicasts measured.
    pub count: u64,
    /// Worst-case delivery latency (ms, 10 ms buckets) — Fig. 11.
    pub latency: Buckets,
    /// Spam ratio (0.01 buckets) — Fig. 12.
    pub spam: Buckets,
    /// Reliability (0.01 buckets) — Fig. 13.
    pub reliability: Buckets,
}

/// Figs. 11–13: the five multicast scenarios of the paper.
#[derive(Debug, Clone)]
pub struct Fig111213 {
    /// The measured scenarios.
    pub scenarios: Vec<MulticastScenario>,
    /// Operations skipped over all scenarios.
    pub skipped_ops: u64,
}

/// Runs all multicast scenarios (flood: three, gossip: two).
///
/// Uses a mildly noisy oracle (±0.02, one 20-minute staleness epoch):
/// the paper's spam (Fig. 12) comes from stale cached availabilities —
/// with a perfect oracle spam is identically zero, while the ±0.05
/// stress setting of the admission-check figures (Figs. 5–6) overstates
/// what AVMON's long-term estimates drift by. A binomial estimate from a
/// day of 20-minute probes has a standard error of about two percentage
/// points, hence ±0.02 here.
pub fn fig111213(h: &Harness) -> Fig111213 {
    let (flood, gossip) = (MulticastStrategy::Flood, MulticastStrategy::paper_gossip());
    let above = |min| AvailabilityTarget::Threshold { min };
    let scenarios = [
        ("HIGH to [0.85,0.95]", BandSpec::High, range(0.85, 0.95), flood),
        ("HIGH to > 0.90", BandSpec::High, above(0.90), flood),
        ("LOW to > 0.20", BandSpec::Low, above(0.20), flood),
        ("Gossip: HIGH to > 0.90", BandSpec::High, above(0.90), gossip),
        ("Gossip: LOW to > 0.20", BandSpec::Low, above(0.20), gossip),
    ];
    let oracle = OracleChoice::NoisyShared { error: 0.02, staleness: SimDuration::from_mins(20) };
    let noisy = ScenarioSpec { oracle, ..h.base().clone() };
    let family = scenarios.map(|(_, band, target, m)| paper::multicasts(&noisy, band, target, m));
    let mut fig = Fig111213 { scenarios: Vec::new(), skipped_ops: 0 };
    for ((label, .., strategy), pooled) in scenarios.into_iter().zip(h.pooled(&family)) {
        let m = pooled.multicast;
        fig.scenarios.push(MulticastScenario {
            label: label.to_owned(),
            gossip: strategy != flood,
            count: m.reliability_count,
            latency: m.worst_latency_histogram,
            spam: m.spam_histogram,
            reliability: m.reliability_histogram,
        });
        fig.skipped_ops += pooled.skipped_ops;
    }
    fig
}

impl fmt::Display for Fig111213 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figs 11-13. multicast scenarios ({} each)", self.scenarios.len())?;
        writeln!(f, "  scenario                 n   latency-ms p50/p90/max     spam p50/p90    reliability p10/p50")?;
        for s in &self.scenarios {
            let at = |buckets: &Buckets, q, width, digits| cell(buckets.quantile(q), width, digits);
            let latency = [0.5, 0.9, 1.0].map(|q| at(&s.latency, q, 6, 0)).join(" ");
            let spam = format!("{} {}", at(&s.spam, 0.5, 8, 3), at(&s.spam, 0.9, 6, 3));
            let reliability = format!("{} {}", at(&s.reliability, 0.1, 8, 2), at(&s.reliability, 0.5, 6, 2));
            writeln!(f, "  {:<24}{:>3}   {latency}   {spam}   {reliability}", s.label, s.count)?;
        }
        skipped(f, self.skipped_ops)
    }
}

impl Experiment for Fig111213 {
    /// Per scenario: worst latency and spam bounded from above (p90),
    /// flood reliability from below (p10), gossip reliability ≈ 70 % (p50).
    fn claims(&self) -> Vec<Claim> {
        let noise = "the figure's ±0.02 shared-noise oracle: a node cached inside [0.85, 0.95] but truly outside it is spammed, and one the other way round is missed; under the exact oracle the same runs read spam 0 and reliability 1.0";
        let full_lists = "on the converged fixed point every node holds its full lists, so gossip reaches 0.97-0.98; the live protocol reads 0.87-0.88 for LOW → > 0.20 (ROADMAP finding 4): neither is the paper's ≈ 70%";
        let mut claims = Vec::new();
        for s in &self.scenarios {
            let noisy = |claim: Claim| if s.label == "HIGH to [0.85,0.95]" { claim.expected_miss(noise) } else { claim };
            let (latency, spam, at) = (s.latency.quantile(0.9), s.spam.quantile(0.9), |q| format!("{}: {q}", s.label));
            claims.push(match s.gossip {
                false => Claim::new("Fig 11", "flood latency ≤ ~300 ms", at("p90"), latency, Band::at_most(300.0)),
                true => Claim::new("Fig 11", "gossip ≤ ~5.5 s", at("p90"), latency, Band::at_most(5500.0)),
            });
            claims.push(noisy(Claim::new("Fig 12", "spam ≤ ~8%", at("p90"), spam, Band::at_most(0.08))));
            claims.push(match s.gossip {
                false => noisy(Claim::new("Fig 13", "flood reliability > 90%", at("p10"), s.reliability.quantile(0.1), Band::at_least(0.9))),
                true => Claim::new("Fig 13", "gossip ≈ 70%", at("p50"), s.reliability.quantile(0.5), Band::about(0.7)).expected_miss(full_lists),
            });
        }
        claims
    }
}

// ---------------------------------------------------------------------
// §3.1 microbenchmark — discovery time vs view size
// ---------------------------------------------------------------------

/// Discovery-time microbenchmark (§3.1 optimality analysis).
#[derive(Debug, Clone)]
pub struct DiscoveryMicro {
    /// `(view size v, mean rounds for a fresh pair to be discovered,
    /// N/v prediction)`.
    pub rows: Vec<(usize, f64, f64)>,
    /// System size used.
    pub n: usize,
}

/// Measures mean discovery time for several view sizes around `√N`, at
/// `N` = 1024 at the paper's scale and 128 below it.
pub fn discovery_micro(h: &Harness) -> DiscoveryMicro {
    let (n, samples) = (if h.paper_scale() { 1024 } else { 128 }, 30);
    let sqrt_n = (n as f64).sqrt() as usize;
    let rows = [sqrt_n / 2, sqrt_n, sqrt_n * 2].map(|v| {
        let v = v.max(8);
        let mut sim = RoundSim::new(n, ShuffleConfig::new(v, (v / 2).max(4)), 7);
        sim.run_rounds(30); // mix first
        let pairs = (0..samples).map(|s| (s % n, NodeId::new(((s * 37 + 11) % n) as u64)));
        let rounds: Vec<f64> = pairs
            .filter(|&(observer, subject)| subject.raw() as usize != observer)
            .filter_map(|(observer, subject)| sim.rounds_until_seen(observer, subject, 50 * n / v))
            .map(|rounds| rounds as f64)
            .collect();
        let mean = if rounds.is_empty() { f64::NAN } else { rounds.iter().sum::<f64>() / rounds.len() as f64 };
        (v, mean, n as f64 / v as f64)
    });
    DiscoveryMicro { rows: rows.into(), n }
}

impl fmt::Display for DiscoveryMicro {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "§3.1 discovery-time microbenchmark (N = {})", self.n)?;
        writeln!(f, "  view-size v   mean-rounds-to-discover   N/v prediction")?;
        for &(v, measured, predicted) in &self.rows {
            writeln!(f, "  {v:>11}   {measured:>23.1}   {predicted:>14.1}")?;
        }
        Ok(())
    }
}

impl Experiment for DiscoveryMicro {
    /// Discovery time falls at least as fast as `N/v` (a fitted exponent
    /// of `v` at most −1), and `v = √N`, the middle row, costs the least
    /// view size plus discovery time.
    fn claims(&self) -> Vec<Claim> {
        let logs: Vec<(f64, f64)> = self.rows.iter().map(|&(v, t, _)| ((v as f64).ln(), t.ln())).collect();
        let exponent = Some(slope(&logs)).filter(|e| e.is_finite());
        let cost: Vec<f64> = self.rows.iter().map(|&(v, rounds, _)| v as f64 + rounds).collect();
        let margin = Some(cost[0].min(cost[2]) - cost[1]).filter(|m| m.is_finite());
        vec![
            Claim::new("§3.1", "discovery time scales as O(N/v)", "exponent of v", exponent, Band::at_most(-1.0)),
            Claim::new("§3.1", "v = √N minimizes v + N/v", "least other cost - √N's", margin, Band::ORDERED),
        ]
    }
}

// ---------------------------------------------------------------------
// Theorem checks (§2.2) — degree bounds and connectivity
// ---------------------------------------------------------------------

/// Analytic-property checks behind Theorems 1–3.
#[derive(Debug, Clone)]
pub struct TheoremChecks {
    /// Measured mean VS size over online nodes.
    pub mean_vs: f64,
    /// Theorem 1/3 prediction `c₁·ln N*·(1−2ε)`.
    pub predicted_vs: f64,
    /// Measured mean HS size.
    pub mean_hs: f64,
    /// Theorem 3's `O(log N*)` at rule II.B's constant: a dense band of
    /// `N*_av` nodes holds `c₂·ln N*_av · 2ε/ε ≤ 2·c₂·ln N*` of them.
    pub hs_bound: f64,
    /// Largest-component fraction of the full overlay (HS+VS).
    pub component_fraction: f64,
    /// Worst band-component fraction over sampled band centers
    /// (Theorem 2).
    pub worst_band_fraction: f64,
    /// Mean / max hop distance from a random online node over HS+VS
    /// (small path lengths underpin the fast-operations claims).
    pub mean_path_length: f64,
    /// Maximum hop distance from the sampled start.
    pub max_path_length: f64,
    /// 90th-percentile hop distance from the sampled start.
    pub p90_path_length: f64,
}

/// Runs the theorem sanity checks on the harness's snapshot.
pub fn theorem_checks(h: &Harness) -> TheoremChecks {
    let sim = h.snapshot().sim();
    let (world, n, epsilon) = (&sim.world(), sim.trace().num_nodes(), sim.predicate().epsilon());
    let mean_size = |scope| {
        Summary::from_values(sliver_sizes(world, scope).into_iter().map(|(_, s)| s)).mean()
    };
    let id = |i: usize| NodeId::new(i as u64);
    let up = |i| world.is_online(id(i));
    let lists = move |scope| move |i| world.neighbors(id(i), scope).ids;
    // Theorem 2: the HS sub-overlay of each band of nodes within ε of
    // its center.
    let worst_band = [0.1, 0.3, 0.5, 0.7, 0.9]
        .into_iter()
        .filter_map(|center| {
            let center = Availability::saturating(center);
            let near = |i| world.believed_availability(id(i)).distance(center) <= epsilon;
            let in_band = |i| up(i) && near(i);
            components(n, in_band, lists(SliverScope::HsOnly)).lowest_fraction()
        })
        .fold(1.0f64, f64::min);
    let paths = online(world)
        .next()
        .map(|start| path_lengths(n, start.raw() as usize, up, lists(SliverScope::Both)))
        .unwrap_or_else(|| Summary::from_values(std::iter::empty()));
    TheoremChecks {
        mean_vs: mean_size(SliverScope::VsOnly),
        predicted_vs: avmem::predicate::DEFAULT_C1 * sim.n_star().ln() * 0.8,
        mean_hs: mean_size(SliverScope::HsOnly),
        hs_bound: 2.0 * avmem::predicate::DEFAULT_C2 * sim.n_star().ln(),
        component_fraction: sim.health_stats().largest_component,
        worst_band_fraction: worst_band,
        mean_path_length: paths.mean(),
        max_path_length: paths.max(),
        p90_path_length: paths.quantile(0.9),
    }
}

impl fmt::Display for TheoremChecks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "§2.2 theorem checks")?;
        let (vs, predicted) = (self.mean_vs, self.predicted_vs);
        writeln!(f, "  mean |VS| = {vs:.1}, predicted c1·lnN*·(1−2ε) = {predicted:.1}")?;
        writeln!(f, "  mean |HS| = {:.1}", self.mean_hs)?;
        writeln!(f, "  largest component (HS+VS, online) = {:.3}", self.component_fraction)?;
        writeln!(f, "  worst band component fraction = {:.3}", self.worst_band_fraction)?;
        let (mean, max) = (self.mean_path_length, self.max_path_length);
        writeln!(f, "  hop distances from a random node: mean {mean:.1}, max {max:.0}")
    }
}

impl Experiment for TheoremChecks {
    /// Theorems 1 and 3's sliver sizes, Theorems 2 and 3's connectivity,
    /// and paths within an operation's TTL.
    fn claims(&self) -> Vec<Claim> {
        let (vs, hs) = (Some(self.mean_vs), Some(self.mean_hs));
        let (component, band) = (Some(self.component_fraction), Some(self.worst_band_fraction));
        let (hs_bound, ttl) = (Band::at_most(self.hs_bound), Band::at_most(paper::TTL.into()));
        vec![
            Claim::new("Thm 1/3", "c1·lnN*·(1−2ε)", "mean |VS|", vs, Band::near(self.predicted_vs)),
            Claim::new("Thm 3", "O(log N*) for dense bands", "mean |HS| (≤ 2·c2·lnN*)", hs, hs_bound),
            Claim::new("Thm 2/3", "connected w.h.p.", "largest component", component, Band::about(1.0)),
            Claim::new("Thm 2", "bands connected w.h.p.", "worst band component", band, Band::about(1.0)),
            Claim::new("§2.2", "short paths ⇒ fast ops", "p90 hops (≤ TTL)", Some(self.p90_path_length), ttl),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avmem::NeighborColumns;

    /// One node of a [`Wired`] overlay: `[HS | VS]` ids, as a membership
    /// lays them out.
    struct Node {
        online: bool,
        av: Availability,
        ids: Vec<u32>,
        cached: Vec<Availability>,
        hs: usize,
    }

    /// A hand-wired overlay in which every node believes its true
    /// availability, with who is online as words.
    struct Wired(Vec<Node>, Vec<u64>);

    /// `(online, availability, HS, VS)` per node.
    fn wired(nodes: &[(bool, f64, &[u32], &[u32])]) -> Wired {
        let node = |&(online, av, hs, vs): &(bool, f64, &[u32], &[u32])| Node {
            online,
            av: Availability::saturating(av),
            ids: [hs, vs].concat(),
            cached: vec![Availability::ZERO; hs.len() + vs.len()],
            hs: hs.len(),
        };
        let mut words = vec![0u64; nodes.len().div_ceil(64)];
        for (i, &(online, ..)) in nodes.iter().enumerate() {
            words[i / 64] |= u64::from(online) << (i % 64);
        }
        Wired(nodes.iter().map(node).collect(), words)
    }

    impl OverlayWorld for Wired {
        fn id_bound(&self) -> usize {
            self.0.len()
        }

        fn is_online(&self, id: NodeId) -> bool {
            self.0[id.raw() as usize].online
        }

        fn online_words(&self) -> &[u64] {
            &self.1
        }

        fn believed_availability(&self, id: NodeId) -> Availability {
            self.0[id.raw() as usize].av
        }

        fn true_availability(&self, id: NodeId) -> Availability {
            self.0[id.raw() as usize].av
        }

        fn neighbors(&self, id: NodeId, scope: SliverScope) -> NeighborColumns<'_> {
            let node = &self.0[id.raw() as usize];
            let range = match scope {
                SliverScope::HsOnly => 0..node.hs,
                SliverScope::VsOnly => node.hs..node.ids.len(),
                SliverScope::Both => 0..node.ids.len(),
            };
            NeighborColumns {
                ids: &node.ids[range.clone()],
                cached_availability: &node.cached[range],
            }
        }

        fn admits(&self, _: NodeId, _: NodeId, _: AdmissionPolicy) -> Option<bool> {
            Some(true)
        }
    }

    #[test]
    fn availability_histogram_counts_online_only() {
        let world = wired(&[
            (true, 0.05, &[], &[]),
            (false, 0.05, &[], &[]),
            (true, 0.95, &[], &[]),
        ]);
        let (population, _) = online_and_vs_in_links(&world, 10);
        assert_eq!((population.count(0), population.count(9), population.total()), (1, 1, 2));
    }

    #[test]
    fn sliver_size_points() {
        // Node 3 is offline: listed, but not counted.
        let world = wired(&[
            (true, 0.5, &[1, 3], &[2]),
            (true, 0.55, &[], &[]),
            (true, 0.9, &[], &[]),
            (false, 0.5, &[], &[]),
        ]);
        assert_eq!(sliver_sizes(&world, SliverScope::HsOnly), [(0.5, 1.0), (0.55, 0.0), (0.9, 0.0)]);
        assert_eq!(sliver_sizes(&world, SliverScope::VsOnly), [(0.5, 1.0), (0.55, 0.0), (0.9, 0.0)]);
    }

    #[test]
    fn hs_scaling_counts_band_candidates() {
        // Node 0 at .5 with two online in-band candidates and one far node.
        let world = wired(&[
            (true, 0.50, &[1, 2], &[]),
            (true, 0.55, &[], &[]),
            (true, 0.45, &[], &[]),
            (true, 0.90, &[], &[]),
        ]);
        assert_eq!(hs_scaling_points(&world, 0.1)[0], (2.0, 2.0));
    }

    #[test]
    fn incoming_vs_links_follow_targets() {
        let world = wired(&[
            (true, 0.5, &[], &[2]),
            (true, 0.6, &[], &[2]),
            (true, 0.95, &[], &[]),
        ]);
        let (_, links) = online_and_vs_in_links(&world, 10);
        assert_eq!((links.count(9), links.total()), (2, 2));
    }

    #[test]
    fn incoming_vs_links_skip_offline_targets() {
        let world = wired(&[(true, 0.5, &[], &[1]), (false, 0.9, &[], &[])]);
        assert_eq!(online_and_vs_in_links(&world, 10).1.total(), 0);
    }

    fn small() -> Harness {
        Harness::over(paper::base(150, 2, 10), 1)
    }

    #[test]
    fn fig2_shapes() {
        let fig = fig2(&small());
        assert!(fig.online > 0);
        // VS size uncorrelated with availability (paper Fig 2c).
        assert!(fig.vs_correlation.abs() < 0.4, "vs correlation {}", fig.vs_correlation);
        let _ = fig.to_string();
    }

    #[test]
    fn fig3_is_sublinear() {
        let fig = fig3(&small());
        assert!(!fig.points.is_empty());
        // |HS| grows with the in-band candidates, but slower than linearly.
        assert!((0.0..1.0).contains(&fig.exponent), "exponent {}", fig.exponent);
        let _ = fig.to_string();
    }

    #[test]
    fn fig4_links_not_following_population() {
        let fig = fig4(&small());
        assert!(fig.links.iter().sum::<u64>() > 0);
        let _ = fig.to_string();
    }

    #[test]
    fn fig7_hsvs_beats_hs_only() {
        let fig = fig7(&small());
        let delivered: BTreeMap<&str, f64> = fig
            .variants
            .iter()
            .map(|(name, d, _)| (name.as_str(), d.expect("anycasts were sent")))
            .collect();
        let (both, hs) = (delivered["HS+VS"], delivered["HS-only"]);
        assert!(both >= hs, "HS+VS {both} should be at least HS-only {hs}");
        let _ = fig.to_string();
    }

    #[test]
    fn discovery_micro_tracks_n_over_v() {
        let micro = discovery_micro(&Harness::new(true));
        for &(v, measured, predicted) in &micro.rows {
            assert!(v >= 8);
            assert!(
                measured.is_nan() || measured < predicted * 6.0 + 10.0,
                "v={v}: measured {measured} far above prediction {predicted}"
            );
        }
        let _ = micro.to_string();
    }

    #[test]
    fn theorem_checks_reasonable() {
        let checks = theorem_checks(&small());
        assert!(checks.mean_vs > 0.0);
        assert!(checks.component_fraction > 0.9);
        let _ = checks.to_string();
    }
}
