//! The predicate in force inside a simulation, and its memoized forms:
//! per-rebuild (or per-cohort) threshold tables and one source node's
//! thresholds, both bit-identical to evaluating the predicate directly.

use avmem_util::Availability;

use super::CandidateIndex;
use crate::predicate::{
    AvmemPredicate, MembershipPredicate, RandomPredicate, Sliver, SourceThresholds, ThresholdMemo,
};

/// The predicate actually in force inside a simulation.
#[derive(Debug, Clone)]
pub enum SimPredicate {
    /// AVMEM slivers.
    Avmem(AvmemPredicate),
    /// Consistent-random baseline.
    Random(RandomPredicate),
}

impl MembershipPredicate for SimPredicate {
    fn threshold(&self, x: Availability, y: Availability) -> f64 {
        match self {
            SimPredicate::Avmem(p) => p.threshold(x, y),
            SimPredicate::Random(p) => p.threshold(x, y),
        }
    }

    fn epsilon(&self) -> f64 {
        match self {
            SimPredicate::Avmem(p) => p.epsilon(),
            SimPredicate::Random(p) => p.epsilon(),
        }
    }
}

/// Per-rebuild memo over [`SimPredicate`]: AVMEM hoists its PDF tables
/// (see [`ThresholdMemo`]); the random baseline is flat already.
pub(super) enum SimMemo<'p> {
    Avmem(ThresholdMemo<'p>),
    Random { p: f64, epsilon: f64 },
}

impl<'p> SimMemo<'p> {
    pub(super) fn build(predicate: &'p SimPredicate) -> Self {
        match predicate {
            SimPredicate::Avmem(pred) => SimMemo::Avmem(pred.rebuild_memo()),
            SimPredicate::Random(pred) => SimMemo::Random {
                p: pred.p(),
                epsilon: pred.epsilon(),
            },
        }
    }

    pub(super) fn source(&self, x: Availability) -> SimSource<'_> {
        match self {
            SimMemo::Avmem(memo) => SimSource::Avmem(memo.source(x)),
            SimMemo::Random { p, epsilon } => SimSource::Random {
                p: *p,
                epsilon: *epsilon,
                x,
            },
        }
    }

    /// The in-band threshold for source availability `x` — the only
    /// per-source integration left in [`SimMemo::source`], and therefore
    /// the piece worth caching across cohorts under a stable oracle
    /// epoch.
    pub(super) fn horizontal_of(&self, x: Availability) -> f64 {
        match self {
            SimMemo::Avmem(memo) => memo.horizontal(x),
            SimMemo::Random { p, .. } => *p,
        }
    }

    /// The largest vertical threshold any pair can meet under this
    /// predicate ([`ThresholdMemo::vertical_ceiling`]; the random
    /// baseline's one `p`).
    pub(super) fn vertical_ceiling(&self) -> f64 {
        match self {
            SimMemo::Avmem(memo) => memo.vertical_ceiling(),
            SimMemo::Random { p, .. } => *p,
        }
    }

    /// Like [`SimMemo::source`], but with the horizontal threshold
    /// supplied by the caller (from [`SimMemo::horizontal_of`], possibly
    /// epoch-cached) instead of recomputed.
    pub(super) fn source_with(&self, x: Availability, horizontal: f64) -> SimSource<'_> {
        match self {
            SimMemo::Avmem(memo) => {
                SimSource::Avmem(memo.source_with_horizontal(x, horizontal))
            }
            SimMemo::Random { p, epsilon } => SimSource::Random {
                p: *p,
                epsilon: *epsilon,
                x,
            },
        }
    }

    /// Per-candidate vertical thresholds aligned with `index` positions,
    /// when the vertical rule is source-independent (always for the
    /// random baseline; rules I.A/I.B for AVMEM). Computed once per
    /// rebuild so the VS hot loop is one load and one compare.
    pub(super) fn vertical_table(&self, index: &CandidateIndex) -> Option<Vec<f64>> {
        match self {
            SimMemo::Avmem(memo) => {
                memo.source_independent_vertical(index.entries().iter().map(|&(v, _)| {
                    Availability::saturating(v)
                }))
            }
            SimMemo::Random { p, .. } => Some(vec![*p; index.len()]),
        }
    }
}

/// One source node's memoized thresholds; evaluation is bit-identical to
/// [`MembershipPredicate::classify_hashed`] of the simulation predicate.
pub(super) enum SimSource<'m> {
    Avmem(SourceThresholds<'m>),
    Random { p: f64, epsilon: f64, x: Availability },
}

impl SimSource<'_> {
    pub(super) fn epsilon(&self) -> f64 {
        match self {
            SimSource::Avmem(s) => s.epsilon(),
            SimSource::Random { epsilon, .. } => *epsilon,
        }
    }

    /// Threshold for in-band candidates (constant per source node).
    pub(super) fn horizontal(&self) -> f64 {
        match self {
            SimSource::Avmem(s) => s.horizontal(),
            SimSource::Random { p, .. } => *p,
        }
    }

    /// Threshold for an out-of-band candidate.
    pub(super) fn vertical(&self, y: Availability) -> f64 {
        match self {
            SimSource::Avmem(s) => s.vertical(y),
            SimSource::Random { p, .. } => *p,
        }
    }

    /// Eq. 1 with a caller-supplied hash; callers skip `y == x`.
    pub(super) fn classify_hashed(&self, y: Availability, hash: f64) -> Option<Sliver> {
        match self {
            SimSource::Avmem(s) => s.classify_hashed(y, hash),
            SimSource::Random { p, epsilon, x } => (hash <= *p).then(|| {
                if x.distance(y) < *epsilon {
                    Sliver::Horizontal
                } else {
                    Sliver::Vertical
                }
            }),
        }
    }
}
