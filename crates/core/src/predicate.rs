//! AVMEM membership predicates (§2 of the paper).
//!
//! The framework is Eq. 1:
//!
//! ```text
//! M(x, y) ≡ { H(id(x), id(y)) ≤ f(av(x), av(y)) }
//! ```
//!
//! `H` is a fixed normalized cryptographic hash (see
//! [`avmem_util::consistent_hash`]); the predicate is therefore entirely
//! determined by the *sub-predicate function* `f`. This module provides
//! the paper's family:
//!
//! | rule | where it applies | `f(av(x), av(y))` |
//! |------|------------------|--------------------|
//! | [`VerticalRule::Constant`] (I.A) | `\|av(x)−av(y)\| ≥ ε` | `d₁` |
//! | [`VerticalRule::Logarithmic`] (I.B) | ″ | `min(c₁·ln N* / (N*·p(av(y))), 1)` |
//! | [`VerticalRule::LogarithmicDecreasing`] (I.C) | ″ | `min(c₁·ln N* / (N*·p(av(y))·\|av(y)−av(x)\|), 1)` |
//! | [`HorizontalRule::Constant`] (II.A) | `\|av(x)−av(y)\| < ε` | `d₂` |
//! | [`HorizontalRule::LogarithmicConstant`] (II.B) | ″ | `min(c₂·ln N*_av(x) / N*min_av(x), 1)` |
//! | I.A + II.A with `d₁ = d₂ = p` | everywhere | `p` |
//!
//! The last row is the availability-agnostic baseline of the paper's
//! Fig. 10, a *consistent* random overlay "like SCAMP or CYCLON"
//! ([`crate::harness::PredicateChoice::Random`] builds it): one
//! [`AvmemPredicate`] like the others, its slivers still split at `±ε`
//! so the same operation code runs over both overlays.
//!
//! Everything here is a pure function of `(id, av)` pairs and the
//! system-wide constants (`ε`, `N*`, the discretized PDF): this is what
//! makes the overlay verifiable by third parties and robust to selfish
//! nodes.

use avmem_trace::AvailabilityPdf;
use avmem_util::{consistent_hash, Availability, NodeId};
use serde::{Deserialize, Serialize};

/// A node as the predicate sees it: identity plus (estimated)
/// availability.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeInfo {
    /// The node's identity (`id(x)`).
    pub id: NodeId,
    /// The node's availability (`av(x)`) as reported by the monitoring
    /// service.
    pub availability: Availability,
}

impl NodeInfo {
    /// Convenience constructor.
    pub fn new(id: NodeId, availability: Availability) -> Self {
        NodeInfo { id, availability }
    }
}

/// Which membership list a neighbor belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Sliver {
    /// Horizontal sliver: availability within `±ε` of the owner's.
    Horizontal,
    /// Vertical sliver: availability outside the `±ε` band.
    Vertical,
}

/// Vertical-sliver sub-predicates (§2.1 I.A–I.C).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum VerticalRule {
    /// I.A — constant probability `d₁`, availability-independent. "Works
    /// best in a system where any node is equi-probable of having any
    /// given availability."
    Constant {
        /// The fixed acceptance probability.
        d1: f64,
    },
    /// I.B — the canonical rule: inverse-density weighting ensures
    /// *uniform coverage* of the availability space (Theorem 1).
    Logarithmic {
        /// The constant `c₁` scaling the expected sliver size
        /// `c₁·ln N*`.
        c1: f64,
    },
    /// I.C — like I.B but additionally discounting by distance, giving
    /// exponentially spaced neighbors akin to Chord fingers
    /// (Corollary 1.1).
    LogarithmicDecreasing {
        /// The constant `c₁`.
        c1: f64,
    },
}

impl VerticalRule {
    /// An I.A rule tuned so the *expected* vertical sliver size is
    /// `c1·ln(n_star)` under a uniform availability PDF:
    /// `d₁ = c1·ln N*/N*`.
    ///
    /// # Panics
    ///
    /// Panics unless `c1 > 0` and `n_star > 1`.
    pub fn constant_for(c1: f64, n_star: f64) -> Self {
        assert!(c1 > 0.0, "c1 must be positive");
        assert!(n_star > 1.0, "n_star must exceed one");
        VerticalRule::Constant {
            d1: (c1 * n_star.ln() / n_star).min(1.0),
        }
    }
}

/// Horizontal-sliver sub-predicates (§2.1 II.A–II.B).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum HorizontalRule {
    /// II.A — constant probability `d₂` for every in-band candidate.
    /// Connectivity holds but "involves too many nodes" when the band is
    /// dense.
    Constant {
        /// The fixed acceptance probability.
        d2: f64,
    },
    /// II.B — the canonical rule: `min(c₂·ln(N*_av(x)) / N*min_av(x), 1)`,
    /// which keeps the band connected w.h.p. (Theorem 2) with only
    /// `O(log N*)` neighbors when the band is dense (Theorem 3).
    LogarithmicConstant {
        /// The constant `c₂`.
        c2: f64,
    },
}

impl HorizontalRule {
    /// A II.A rule tuned to an expected in-band degree of
    /// `c2·ln(n_star)` if the whole system sat inside one band:
    /// `d₂ = c2·ln N*/N*`.
    ///
    /// # Panics
    ///
    /// Panics unless `c2 > 0` and `n_star > 1`.
    pub fn constant_for(c2: f64, n_star: f64) -> Self {
        assert!(c2 > 0.0, "c2 must be positive");
        assert!(n_star > 1.0, "n_star must exceed one");
        HorizontalRule::Constant {
            d2: (c2 * n_star.ln() / n_star).min(1.0),
        }
    }
}

/// Default `c₁` for the vertical rules.
///
/// The paper does not publish its constants; `c₁ = 2.5` reproduces
/// Fig. 2(c)'s vertical sliver sizes (median ≈ 13 at 442 online nodes:
/// `c₁·ln N*·(1−2ε) ≈ 13`) and with it Fig. 7's ~one-hop anycast
/// deliveries.
pub const DEFAULT_C1: f64 = 2.5;

/// Default `c₂` for the horizontal rules (see [`DEFAULT_C1`]; `c₂ = 2`
/// reproduces Fig. 2(b)'s horizontal sliver scale).
pub const DEFAULT_C2: f64 = 2.0;

/// The full AVMEM predicate: band geometry, system constants, and one
/// rule per sliver.
///
/// Its methods implement the full Eq. 1 check, including the optional
/// *cushion* the paper adds to the right-hand side to tolerate
/// inconsistent availability estimates during verification (§4.1).
///
/// # Examples
///
/// ```
/// use avmem::predicate::{AvmemPredicate, NodeInfo};
/// use avmem_trace::AvailabilityPdf;
/// use avmem_util::{Availability, NodeId};
///
/// let pdf = AvailabilityPdf::uniform(10);
/// let pred = AvmemPredicate::paper_default(1442.0, pdf);
///
/// let x = NodeInfo::new(NodeId::new(1), Availability::saturating(0.5));
/// let y = NodeInfo::new(NodeId::new(2), Availability::saturating(0.9));
/// // Consistency: the decision is a pure function of the inputs.
/// assert_eq!(pred.member(x, y), pred.member(x, y));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AvmemPredicate {
    epsilon: f64,
    n_star: f64,
    vertical: VerticalRule,
    horizontal: HorizontalRule,
    pdf: AvailabilityPdf,
}

impl AvmemPredicate {
    /// The paper's defaults: `ε = 0.1`, rules I.B and II.B with
    /// [`DEFAULT_C1`] and [`DEFAULT_C2`].
    ///
    /// # Panics
    ///
    /// Panics unless `n_star > 1`.
    pub fn paper_default(n_star: f64, pdf: AvailabilityPdf) -> Self {
        AvmemPredicate::new(
            0.1,
            n_star,
            VerticalRule::Logarithmic { c1: DEFAULT_C1 },
            HorizontalRule::LogarithmicConstant { c2: DEFAULT_C2 },
            pdf,
        )
    }

    /// Creates a predicate from its parts.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < ε < 1` and `n_star > 1`, or if a constant rule
    /// carries a probability outside `[0, 1]`.
    pub fn new(
        epsilon: f64,
        n_star: f64,
        vertical: VerticalRule,
        horizontal: HorizontalRule,
        pdf: AvailabilityPdf,
    ) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0, 1)");
        assert!(n_star > 1.0, "n_star must exceed one");
        if let VerticalRule::Constant { d1 } = vertical {
            assert!((0.0..=1.0).contains(&d1), "d1 must be a probability");
        }
        if let HorizontalRule::Constant { d2 } = horizontal {
            assert!((0.0..=1.0).contains(&d2), "d2 must be a probability");
        }
        AvmemPredicate {
            epsilon,
            n_star,
            vertical,
            horizontal,
            pdf,
        }
    }

    /// The stable system-size parameter `N*`.
    pub fn n_star(&self) -> f64 {
        self.n_star
    }

    /// The configured vertical rule.
    pub fn vertical_rule(&self) -> VerticalRule {
        self.vertical
    }

    /// The configured horizontal rule.
    pub fn horizontal_rule(&self) -> HorizontalRule {
        self.horizontal
    }

    /// The discretized availability PDF in force.
    pub fn pdf(&self) -> &AvailabilityPdf {
        &self.pdf
    }

    /// The horizontal-band half-width `ε` used to classify slivers.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The sub-predicate value `f(av(x), av(y)) ∈ [0, 1]`.
    pub fn threshold(&self, x: Availability, y: Availability) -> f64 {
        if x.distance(y) < self.epsilon {
            self.horizontal_threshold(x)
        } else {
            self.vertical_threshold(x, y)
        }
    }

    /// Which sliver a node with availability `y` would occupy in the
    /// lists of a node with availability `x`.
    pub fn sliver(&self, x: Availability, y: Availability) -> Sliver {
        if x.distance(y) < self.epsilon {
            Sliver::Horizontal
        } else {
            Sliver::Vertical
        }
    }

    /// Full membership test `M(x, y)`: should `y` be in `x`'s lists?
    ///
    /// Consistent: any party evaluating this with the same availability
    /// inputs gets the same answer.
    pub fn member(&self, x: NodeInfo, y: NodeInfo) -> bool {
        self.member_with_cushion(x, y, 0.0)
    }

    /// Membership test with a verification cushion:
    /// `H(id(x), id(y)) ≤ f(av(x), av(y)) + cushion`.
    ///
    /// Receivers use a small positive cushion when validating senders so
    /// that slightly divergent availability estimates do not reject
    /// legitimate neighbors (paper §4.1, Figs. 5–6).
    pub fn member_with_cushion(&self, x: NodeInfo, y: NodeInfo, cushion: f64) -> bool {
        consistent_hash(x.id, y.id) <= self.threshold(x.availability, y.availability) + cushion
    }

    /// Classifies `y` relative to `x`: `Some(sliver)` if `M(x, y)` holds.
    pub fn classify(&self, x: NodeInfo, y: NodeInfo) -> Option<Sliver> {
        if x.id == y.id {
            return None;
        }
        self.member(x, y)
            .then(|| self.sliver(x.availability, y.availability))
    }

    /// Like [`AvmemPredicate::classify`] but with the pair hash
    /// `H(id(x), id(y))` supplied by the caller — large simulations
    /// precompute the `N²` hash matrix once instead of re-hashing on
    /// every evaluation.
    pub fn classify_hashed(
        &self,
        x: NodeInfo,
        y: NodeInfo,
        hash: f64,
        cushion: f64,
    ) -> Option<Sliver> {
        if x.id == y.id {
            return None;
        }
        (hash <= self.threshold(x.availability, y.availability) + cushion)
            .then(|| self.sliver(x.availability, y.availability))
    }

    fn vertical_threshold(&self, x: Availability, y: Availability) -> f64 {
        match self.vertical {
            VerticalRule::Constant { d1 } => d1,
            VerticalRule::Logarithmic { c1 } => {
                let density = self.pdf.density(y);
                if density <= 0.0 {
                    return 1.0;
                }
                (c1 * self.n_star.ln() / (self.n_star * density)).min(1.0)
            }
            VerticalRule::LogarithmicDecreasing { c1 } => {
                let density = self.pdf.density(y);
                let dist = x.distance(y);
                if density <= 0.0 || dist <= 0.0 {
                    return 1.0;
                }
                (c1 * self.n_star.ln() / (self.n_star * density * dist)).min(1.0)
            }
        }
    }

    fn horizontal_threshold(&self, x: Availability) -> f64 {
        match self.horizontal {
            HorizontalRule::Constant { d2 } => d2,
            HorizontalRule::LogarithmicConstant { c2 } => {
                let band = self.pdf.expected_in_band(self.n_star, x, self.epsilon);
                let min_window = self.pdf.min_window_mass(self.n_star, x, self.epsilon);
                if min_window <= 0.0 {
                    return 1.0;
                }
                // ln is clamped below at 1 (i.e. the formula treats bands
                // with fewer than e expected nodes as having log-size 1):
                // connectivity comes first, so a nearly-empty band should
                // drive the threshold to the 1.0 cap, not to zero.
                (c2 * band.ln().max(1.0) / min_window).min(1.0)
            }
        }
    }
}

/// Per-rebuild memo of the PDF-dependent parts of an [`AvmemPredicate`].
///
/// The naive evaluation of Eq. 1 over all `N²` ordered pairs recomputes
/// `p(av(y))` for every vertical pair and the two band integrals behind
/// `horizontal_threshold` for every in-band pair. Both only depend on a
/// *bucket* of the discretized PDF (vertical) or on the source node's own
/// availability (horizontal), so a converged rebuild can hoist them:
///
/// * [`AvmemPredicate::rebuild_memo`] — once per rebuild: per-bucket
///   vertical threshold tables;
/// * [`ThresholdMemo::source`] — once per source node: the horizontal
///   threshold `f(av(x), ·)`.
///
/// The memoized thresholds are **bit-for-bit identical** to
/// [`AvmemPredicate::threshold`]: the same floating-point
/// expressions are evaluated in the same order, only earlier.
#[derive(Debug, Clone)]
pub struct ThresholdMemo<'p> {
    pred: &'p AvmemPredicate,
    vertical: VerticalMemo,
}

#[derive(Debug, Clone)]
enum VerticalMemo {
    /// I.A — no per-pair work to hoist.
    Constant { d1: f64 },
    /// I.B — final quotient per PDF bucket; `.min(1.0)` at query time
    /// (`∞` marks zero-density buckets, which cap at 1.0).
    Logarithmic { threshold: Vec<f64> },
    /// I.C — `c₁·ln N*` numerator and per-bucket `N*·p_b` denominator;
    /// the distance factor stays per-pair.
    Decreasing { numerator: f64, denominator: Vec<f64> },
}

impl AvmemPredicate {
    /// Precomputes the per-bucket vertical threshold tables for one
    /// overlay rebuild.
    pub fn rebuild_memo(&self) -> ThresholdMemo<'_> {
        let buckets = self.pdf.buckets();
        let width = self.pdf.bucket_width();
        let vertical = match self.vertical {
            VerticalRule::Constant { d1 } => VerticalMemo::Constant { d1 },
            VerticalRule::Logarithmic { c1 } => {
                let threshold = (0..buckets)
                    .map(|b| {
                        let density = self.pdf.bucket_mass(b) / width;
                        if density <= 0.0 {
                            f64::INFINITY
                        } else {
                            c1 * self.n_star.ln() / (self.n_star * density)
                        }
                    })
                    .collect();
                VerticalMemo::Logarithmic { threshold }
            }
            VerticalRule::LogarithmicDecreasing { c1 } => VerticalMemo::Decreasing {
                numerator: c1 * self.n_star.ln(),
                denominator: (0..buckets)
                    .map(|b| self.n_star * (self.pdf.bucket_mass(b) / width))
                    .collect(),
            },
        };
        ThresholdMemo {
            pred: self,
            vertical,
        }
    }
}

impl ThresholdMemo<'_> {
    /// The band half-width `ε` of the underlying predicate.
    pub fn epsilon(&self) -> f64 {
        self.pred.epsilon
    }

    /// Vertical thresholds for a candidate sequence when the vertical
    /// rule is *source-independent* (I.A and I.B depend only on the
    /// candidate): one value per candidate, bit-identical to
    /// [`SourceThresholds::vertical`] for every source node. `None` for
    /// rule I.C, whose distance factor is inherently per-pair.
    pub fn source_independent_vertical(
        &self,
        candidates: impl Iterator<Item = Availability>,
    ) -> Option<Vec<f64>> {
        match &self.vertical {
            VerticalMemo::Constant { d1 } => Some(candidates.map(|_| *d1).collect()),
            VerticalMemo::Logarithmic { threshold } => {
                let buckets = self.pred.pdf.buckets();
                Some(
                    candidates
                        .map(|y| threshold[y.bucket(buckets)].min(1.0))
                        .collect(),
                )
            }
            VerticalMemo::Decreasing { .. } => None,
        }
    }

    /// The largest value [`SourceThresholds::vertical`] can return, for
    /// any source and any candidate: `d₁` for I.A, the largest capped
    /// bucket threshold for I.B (1.0 once a bucket has no mass), and 1.0
    /// for I.C, whose distance factor is unbounded per pair. A pair hash
    /// above it can pass no vertical test of this predicate, whatever
    /// availabilities the pair is estimated at.
    pub fn vertical_ceiling(&self) -> f64 {
        match &self.vertical {
            VerticalMemo::Constant { d1 } => *d1,
            VerticalMemo::Logarithmic { threshold } => {
                threshold.iter().fold(0.0, |max, &t| max.max(t.min(1.0)))
            }
            VerticalMemo::Decreasing { .. } => 1.0,
        }
    }

    /// Fixes the source node, computing its horizontal threshold (the
    /// expensive band integrals) exactly once.
    pub fn source(&self, x: Availability) -> SourceThresholds<'_> {
        self.source_with_horizontal(x, self.horizontal(x))
    }

    /// Just the horizontal threshold of a source at `x` — the expensive
    /// band integrals — for callers that cache it per node across many
    /// [`ThresholdMemo::source_with_horizontal`] calls (the event-driven
    /// finalize fast path keeps one per shard-owned node, invalidated on
    /// oracle-epoch advance).
    pub fn horizontal(&self, x: Availability) -> f64 {
        self.pred.horizontal_threshold(x)
    }

    /// Like [`ThresholdMemo::source`] with the horizontal threshold
    /// supplied by the caller; bit-identical to `source(x)` whenever
    /// `horizontal` came from [`ThresholdMemo::horizontal`] at the same
    /// `x` (the value is deterministic, so caching it is free).
    pub fn source_with_horizontal(&self, x: Availability, horizontal: f64) -> SourceThresholds<'_> {
        SourceThresholds {
            epsilon: self.pred.epsilon,
            x,
            horizontal,
            vertical: &self.vertical,
            buckets: self.pred.pdf.buckets(),
        }
    }
}

/// The thresholds of one source node `x`, ready for `O(1)`-per-candidate
/// evaluation (a bucket lookup for vertical candidates, a cached constant
/// for horizontal ones). See [`ThresholdMemo`].
#[derive(Debug, Clone)]
pub struct SourceThresholds<'m> {
    epsilon: f64,
    x: Availability,
    horizontal: f64,
    vertical: &'m VerticalMemo,
    buckets: usize,
}

impl SourceThresholds<'_> {
    /// The source node's availability.
    pub fn availability(&self) -> Availability {
        self.x
    }

    /// The band half-width `ε`.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The memoized horizontal threshold `f(av(x), in-band)`.
    pub fn horizontal(&self) -> f64 {
        self.horizontal
    }

    /// Whether a candidate at `y` falls in the source's horizontal band.
    pub fn in_band(&self, y: Availability) -> bool {
        self.x.distance(y) < self.epsilon
    }

    /// The vertical threshold `f(av(x), av(y))` for an out-of-band `y`.
    pub fn vertical(&self, y: Availability) -> f64 {
        let b = y.bucket(self.buckets);
        match self.vertical {
            VerticalMemo::Constant { d1 } => *d1,
            VerticalMemo::Logarithmic { threshold } => threshold[b].min(1.0),
            VerticalMemo::Decreasing {
                numerator,
                denominator,
            } => {
                let dist = self.x.distance(y);
                if denominator[b] <= 0.0 || dist <= 0.0 {
                    1.0
                } else {
                    (numerator / (denominator[b] * dist)).min(1.0)
                }
            }
        }
    }

    /// The full sub-predicate value, identical to
    /// [`AvmemPredicate::threshold`] of the memoized predicate.
    pub fn threshold(&self, y: Availability) -> f64 {
        if self.in_band(y) {
            self.horizontal
        } else {
            self.vertical(y)
        }
    }

    /// Eq. 1 with a caller-supplied pair hash: classifies a *distinct*
    /// candidate (callers must skip `y == x` themselves, as
    /// [`AvmemPredicate::classify_hashed`] would).
    pub fn classify_hashed(&self, y: Availability, hash: f64) -> Option<Sliver> {
        if self.in_band(y) {
            (hash <= self.horizontal).then_some(Sliver::Horizontal)
        } else {
            (hash <= self.vertical(y)).then_some(Sliver::Vertical)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn av(v: f64) -> Availability {
        Availability::saturating(v)
    }

    fn info(id: u64, a: f64) -> NodeInfo {
        NodeInfo::new(NodeId::new(id), av(a))
    }

    #[test]
    fn bucket_of_equals_the_floor_expression_it_replaced() {
        for buckets in 1..=1024usize {
            // Every bucket edge with its two neighboring floats (the
            // edges below 0 and above 1 saturate), then the ends.
            let edges = (0..=buckets).map(|k| k as f64 / buckets as f64);
            let probes = edges
                .flat_map(|e| {
                    let below = f64::from_bits(e.to_bits().saturating_sub(1));
                    [below, e, f64::from_bits(e.to_bits() + 1)]
                })
                .chain([0.0, 1.0, 1.0 - f64::EPSILON]);
            for v in probes {
                let y = av(v);
                let floored = ((y.value() * buckets as f64).floor() as usize).min(buckets - 1);
                assert_eq!(y.bucket(buckets), floored, "{v} of {buckets}");
            }
        }
    }

    fn uniform_pred(n_star: f64) -> AvmemPredicate {
        AvmemPredicate::paper_default(n_star, AvailabilityPdf::uniform(10))
    }

    #[test]
    fn sliver_classification_follows_epsilon() {
        let pred = uniform_pred(1000.0);
        assert_eq!(pred.sliver(av(0.5), av(0.55)), Sliver::Horizontal);
        assert_eq!(pred.sliver(av(0.5), av(0.65)), Sliver::Vertical);
        assert_eq!(pred.sliver(av(0.5), av(0.375)), Sliver::Vertical);
        // Exactly at ε with representable values (ε itself, 0.1, is not
        // exactly representable; use distance 0.125 vs ε = 0.125).
        let pred = AvmemPredicate::new(
            0.125,
            1000.0,
            VerticalRule::Logarithmic { c1: 2.0 },
            HorizontalRule::LogarithmicConstant { c2: 2.0 },
            AvailabilityPdf::uniform(8),
        );
        assert_eq!(pred.sliver(av(0.25), av(0.375)), Sliver::Vertical);
    }

    #[test]
    fn membership_is_consistent() {
        let pred = uniform_pred(1442.0);
        let x = info(10, 0.3);
        let y = info(20, 0.8);
        let first = pred.member(x, y);
        for _ in 0..10 {
            assert_eq!(pred.member(x, y), first);
        }
    }

    #[test]
    fn membership_is_directed() {
        // M(x, y) and M(y, x) are independent coins; over many pairs they
        // must disagree sometimes.
        let pred = uniform_pred(200.0);
        let mut asymmetric = 0;
        for i in 0..200u64 {
            let x = info(i, 0.3);
            let y = info(i + 1000, 0.8);
            if pred.member(x, y) != pred.member(y, x) {
                asymmetric += 1;
            }
        }
        assert!(asymmetric > 0, "membership never asymmetric");
    }

    #[test]
    fn self_is_never_classified() {
        let pred = uniform_pred(100.0);
        let x = info(1, 0.5);
        assert_eq!(pred.classify(x, x), None);
    }

    #[test]
    fn logarithmic_vertical_gives_uniform_coverage() {
        // Theorem 1: expected VS neighbors per availability interval is
        // independent of where the interval lies. With a skewed PDF the
        // *threshold* must counteract density: sparse regions get higher
        // acceptance probability.
        let mut mass = vec![4.0; 5]; // dense low half
        mass.extend(vec![1.0; 5]); // sparse high half
        let pdf = AvailabilityPdf::from_bucket_mass(mass);
        let pred = AvmemPredicate::new(
            0.1,
            1000.0,
            VerticalRule::Logarithmic { c1: 2.0 },
            HorizontalRule::LogarithmicConstant { c2: 2.0 },
            pdf.clone(),
        );
        let x = av(0.05);
        let dense_thr = pred.threshold(x, av(0.35));
        let sparse_thr = pred.threshold(x, av(0.85));
        let ratio = sparse_thr / dense_thr;
        let density_ratio = pdf.density(av(0.35)) / pdf.density(av(0.85));
        assert!(
            (ratio - density_ratio).abs() < 1e-9,
            "threshold ratio {ratio} should equal density ratio {density_ratio}"
        );
    }

    #[test]
    fn expected_vertical_degree_matches_theorem_one() {
        // Under rule I.B with uniform PDF, E[|VS|] ≈ c1·ln N*·(1 − 2ε).
        let n: u64 = 3000;
        let n_star = n as f64;
        let pred = uniform_pred(n_star);
        let x = info(424_242, 0.5);
        // Count accepted vertical neighbors among a synthetic uniform
        // population.
        let mut count = 0.0;
        for i in 0..n {
            let y = info(i, (i as f64 + 0.5) / n_star);
            if pred.sliver(x.availability, y.availability) == Sliver::Vertical
                && pred.member(x, y)
            {
                count += 1.0;
            }
        }
        let expected = DEFAULT_C1 * n_star.ln() * (1.0 - 2.0 * 0.1);
        assert!(
            (count - expected).abs() < expected * 0.5,
            "vertical degree {count}, expected ≈ {expected}"
        );
    }

    #[test]
    fn log_decreasing_prefers_nearby() {
        let pred = AvmemPredicate::new(
            0.1,
            1000.0,
            VerticalRule::LogarithmicDecreasing { c1: 2.0 },
            HorizontalRule::LogarithmicConstant { c2: 2.0 },
            AvailabilityPdf::uniform(10),
        );
        let near = pred.threshold(av(0.5), av(0.62));
        let far = pred.threshold(av(0.5), av(0.95));
        assert!(
            near > far,
            "closer candidates should have higher acceptance: near {near} far {far}"
        );
    }

    #[test]
    fn log_decreasing_is_inverse_distance() {
        let pred = AvmemPredicate::new(
            0.1,
            100_000.0, // large N* so thresholds stay below the 1.0 cap
            VerticalRule::LogarithmicDecreasing { c1: 2.0 },
            HorizontalRule::LogarithmicConstant { c2: 2.0 },
            AvailabilityPdf::uniform(10),
        );
        let t1 = pred.threshold(av(0.1), av(0.3)); // distance 0.2
        let t2 = pred.threshold(av(0.1), av(0.5)); // distance 0.4
        assert!(
            (t1 / t2 - 2.0).abs() < 1e-9,
            "threshold should halve when distance doubles: {t1} vs {t2}"
        );
    }

    #[test]
    fn constant_rules_are_flat() {
        let pred = AvmemPredicate::new(
            0.1,
            1000.0,
            VerticalRule::Constant { d1: 0.02 },
            HorizontalRule::Constant { d2: 0.3 },
            AvailabilityPdf::uniform(10),
        );
        assert_eq!(pred.threshold(av(0.5), av(0.9)), 0.02);
        assert_eq!(pred.threshold(av(0.5), av(0.1)), 0.02);
        assert_eq!(pred.threshold(av(0.5), av(0.55)), 0.3);
    }

    #[test]
    fn constant_for_matches_log_degree() {
        let rule = VerticalRule::constant_for(2.0, 1000.0);
        let VerticalRule::Constant { d1 } = rule else {
            panic!("expected constant rule");
        };
        assert!((d1 - 2.0 * 1000f64.ln() / 1000.0).abs() < 1e-12);
    }

    #[test]
    fn cushion_relaxes_the_test() {
        let pred = uniform_pred(1442.0);
        let x = info(1, 0.2);
        // Find a pair rejected without cushion but accepted with a huge one.
        let mut found = false;
        for i in 0..500u64 {
            let y = info(i + 10, 0.9);
            if !pred.member(x, y) && pred.member_with_cushion(x, y, 1.0) {
                found = true;
                break;
            }
        }
        assert!(found, "cushion=1.0 should accept everything");
    }

    #[test]
    fn horizontal_threshold_caps_at_one_for_thin_bands() {
        // A PDF with an essentially empty band: threshold should hit the
        // 1.0 cap (take every candidate you can find).
        let mut mass = vec![100.0; 10];
        mass[5] = 1e-9;
        let pdf = AvailabilityPdf::from_bucket_mass(mass);
        let pred = AvmemPredicate::new(
            0.05,
            1442.0,
            VerticalRule::Logarithmic { c1: 2.0 },
            HorizontalRule::LogarithmicConstant { c2: 2.0 },
            pdf,
        );
        assert_eq!(pred.threshold(av(0.55), av(0.56)), 1.0);
    }

    /// The Fig. 10 baseline as the simulation builds it: `p` is
    /// `degree / population`, capped at 1.
    fn random_baseline(degree: f64, population: usize) -> AvmemPredicate {
        crate::harness::PredicateChoice::Random {
            expected_degree: degree,
        }
        .build(population, 1000.0, AvailabilityPdf::uniform(10))
    }

    #[test]
    fn random_predicate_is_flat_and_consistent() {
        let pred = random_baseline(5.0, 100);
        assert_eq!(pred.threshold(av(0.1), av(0.9)), 0.05);
        assert_eq!(pred.threshold(av(0.9), av(0.1)), 0.05);
        assert_eq!(pred.threshold(av(0.5), av(0.55)), 0.05);
        assert_eq!(pred.rebuild_memo().vertical_ceiling(), 0.05);
        let x = info(1, 0.1);
        let y = info(2, 0.9);
        assert_eq!(pred.member(x, y), pred.member(x, y));
        // One host: every pair it could have passes.
        assert_eq!(random_baseline(5.0, 1).threshold(av(0.1), av(0.9)), 1.0);
    }

    #[test]
    fn random_predicate_expected_degree() {
        let n = 2000u64;
        let pred = random_baseline(15.0, n as usize);
        let x = info(999_999, 0.5);
        let degree = (0..n).filter(|&i| pred.member(x, info(i, 0.5))).count();
        assert!((5..=30).contains(&degree), "degree {degree}, expected ≈ 15");
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn bad_epsilon_panics() {
        let _ = AvmemPredicate::new(
            0.0,
            100.0,
            VerticalRule::Logarithmic { c1: 2.0 },
            HorizontalRule::LogarithmicConstant { c2: 2.0 },
            AvailabilityPdf::uniform(10),
        );
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_constant_probability_panics() {
        let _ = AvmemPredicate::new(
            0.1,
            100.0,
            VerticalRule::Constant { d1: 1.5 },
            HorizontalRule::LogarithmicConstant { c2: 2.0 },
            AvailabilityPdf::uniform(10),
        );
    }

    #[test]
    fn memo_thresholds_match_direct_evaluation_bit_for_bit() {
        let mut mass = vec![4.0; 3];
        mass.extend(vec![0.5; 4]);
        mass.push(0.0); // a zero-density bucket
        mass.extend(vec![2.0; 2]);
        let pdf = AvailabilityPdf::from_bucket_mass(mass);
        for vertical in [
            VerticalRule::Constant { d1: 0.02 },
            VerticalRule::Logarithmic { c1: 2.5 },
            VerticalRule::LogarithmicDecreasing { c1: 1.5 },
        ] {
            for horizontal in [
                HorizontalRule::Constant { d2: 0.3 },
                HorizontalRule::LogarithmicConstant { c2: 2.0 },
            ] {
                let pred =
                    AvmemPredicate::new(0.1, 1442.0, vertical, horizontal, pdf.clone());
                let memo = pred.rebuild_memo();
                let mut largest_vertical = 0.0f64;
                for xi in 0..40 {
                    let x = av(xi as f64 / 39.0);
                    let source = memo.source(x);
                    for yi in 0..40 {
                        let y = av(yi as f64 / 39.0);
                        assert_eq!(
                            source.threshold(y).to_bits(),
                            pred.threshold(x, y).to_bits(),
                            "{vertical:?}/{horizontal:?} at x={x} y={y}"
                        );
                        largest_vertical = largest_vertical.max(source.vertical(y));
                    }
                }
                // The ceiling bounds every vertical threshold and is one
                // of them: `d₁`, or the cap of 1 that the zero-density
                // bucket (I.B) and a zero distance (I.C) reach.
                assert_eq!(memo.vertical_ceiling(), largest_vertical, "{vertical:?}");
                let flat = matches!(vertical, VerticalRule::Constant { .. });
                assert_eq!(memo.vertical_ceiling(), if flat { 0.02 } else { 1.0 });
            }
        }
    }

    #[test]
    fn memo_classification_matches_classify_hashed() {
        let pred = uniform_pred(1442.0);
        let memo = pred.rebuild_memo();
        for i in 0..60u64 {
            let x = info(i, (i as f64 * 0.37) % 1.0);
            let source = memo.source(x.availability);
            for j in 0..60u64 {
                if i == j {
                    continue;
                }
                let y = info(j + 1000, (j as f64 * 0.61) % 1.0);
                let hash = consistent_hash(x.id, y.id);
                assert_eq!(
                    source.classify_hashed(y.availability, hash),
                    pred.classify_hashed(x, y, hash, 0.0),
                );
            }
        }
    }
}
