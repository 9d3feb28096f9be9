//! The availability oracle abstraction.
//!
//! AVMEM queries the monitoring service through [`AvailabilityOracle`]:
//! "given node y, what is its long-term availability?". Different
//! implementations model different fidelity levels:
//!
//! * [`TraceOracle`] — ground truth straight from the churn trace (a
//!   perfect monitoring service); baseline for microbenchmarks;
//! * [`NoisyOracle`] — wraps another oracle and injects *per-querier*
//!   error and staleness: querier `q` asking about target `y` during
//!   staleness epoch `e` gets a deterministic perturbed answer. Two
//!   queriers can therefore disagree about the same target — exactly the
//!   inconsistency that drives the paper's attack analysis (Figs. 5–6);
//! * [`crate::AvmonService`] — the full ping-based service.
//!
//! Keeping the oracle a trait lets every experiment choose its fidelity
//! level without touching protocol code.

use avmem_sim::{SimDuration, SimTime};
use avmem_trace::ChurnTrace;
use avmem_util::{Availability, NodeId, Rng, SplitMix64};

/// A queryable availability monitoring service (the paper's §3.1 service
/// #1).
///
/// Implementations return `None` when they have no information about the
/// target (e.g. no monitor has ever pinged it).
pub trait AvailabilityOracle {
    /// The availability of `target` as observable by `querier` at `now`.
    ///
    /// `querier` matters because real monitoring gives different nodes
    /// (slightly) different answers; consistent implementations may ignore
    /// it.
    fn estimate(&self, querier: NodeId, target: NodeId, now: SimTime) -> Option<Availability>;

    /// Resolves a whole candidate list in one call: `out` is cleared and
    /// filled with `estimate(querier, targets[k], now)` for every `k`.
    ///
    /// The default is a per-target loop; backends with table/arena state
    /// override it to hoist the dispatch and per-call setup out of the
    /// loop. Results must be bit-identical to N single calls — batching
    /// is purely a throughput knob for drivers that already hold the
    /// candidate list (the maintenance finalize phase).
    fn estimate_batch(
        &self,
        querier: NodeId,
        targets: &[NodeId],
        now: SimTime,
        out: &mut Vec<Option<Availability>>,
    ) {
        out.clear();
        out.extend(targets.iter().map(|&t| self.estimate(querier, t, now)));
    }
}

impl<T: AvailabilityOracle + ?Sized> AvailabilityOracle for &T {
    fn estimate(&self, querier: NodeId, target: NodeId, now: SimTime) -> Option<Availability> {
        (**self).estimate(querier, target, now)
    }

    fn estimate_batch(
        &self,
        querier: NodeId,
        targets: &[NodeId],
        now: SimTime,
        out: &mut Vec<Option<Availability>>,
    ) {
        (**self).estimate_batch(querier, targets, now, out)
    }
}

/// Ground-truth oracle: every node's true long-term availability from the
/// churn trace. Models a perfect monitoring service.
///
/// # Examples
///
/// ```
/// use avmem_avmon::{AvailabilityOracle, TraceOracle};
/// use avmem_sim::SimTime;
/// use avmem_trace::OvernetModel;
/// use avmem_util::NodeId;
///
/// let trace = OvernetModel::default().hosts(10).days(1).generate(1);
/// let oracle = TraceOracle::new(&trace);
/// let av = oracle
///     .estimate(NodeId::new(0), NodeId::new(3), SimTime::ZERO)
///     .unwrap();
/// assert_eq!(av, trace.long_term_availability(3));
/// ```
#[derive(Debug, Clone)]
pub struct TraceOracle {
    availabilities: Vec<Availability>,
}

impl TraceOracle {
    /// Precomputes long-term availabilities from a trace.
    pub fn new(trace: &ChurnTrace) -> Self {
        TraceOracle {
            availabilities: (0..trace.num_nodes())
                .map(|i| trace.long_term_availability(i))
                .collect(),
        }
    }

    /// Number of nodes known to the oracle.
    pub fn len(&self) -> usize {
        self.availabilities.len()
    }

    /// Whether the oracle knows no nodes.
    pub fn is_empty(&self) -> bool {
        self.availabilities.is_empty()
    }
}

impl AvailabilityOracle for TraceOracle {
    fn estimate(&self, _querier: NodeId, target: NodeId, _now: SimTime) -> Option<Availability> {
        self.availabilities.get(target.raw() as usize).copied()
    }

    fn estimate_batch(
        &self,
        _querier: NodeId,
        targets: &[NodeId],
        _now: SimTime,
        out: &mut Vec<Option<Availability>>,
    ) {
        out.clear();
        out.extend(
            targets
                .iter()
                .map(|t| self.availabilities.get(t.raw() as usize).copied()),
        );
    }
}

/// Error/staleness-injecting wrapper around another oracle.
///
/// Within one *staleness epoch* (queries at times `t` with the same
/// `t / staleness`), a given `(querier, target)` pair always sees the same
/// perturbed value — modelling a cached answer — and the perturbation is
/// redrawn each epoch — modelling refresh. The perturbation is uniform in
/// `[−error, +error]`, clamped into `[0, 1]`.
///
/// # Examples
///
/// ```
/// use avmem_avmon::{AvailabilityOracle, NoisyOracle, TraceOracle};
/// use avmem_sim::{SimDuration, SimTime};
/// use avmem_trace::OvernetModel;
/// use avmem_util::NodeId;
///
/// let trace = OvernetModel::default().hosts(10).days(1).generate(1);
/// let oracle = NoisyOracle::new(
///     TraceOracle::new(&trace),
///     0.05,
///     SimDuration::from_mins(20),
///     99,
/// );
/// let (q, t) = (NodeId::new(0), NodeId::new(3));
/// // Same epoch ⇒ identical (cached) answer.
/// let a = oracle.estimate(q, t, SimTime::ZERO).unwrap();
/// let b = oracle.estimate(q, t, SimTime::ZERO).unwrap();
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone)]
pub struct NoisyOracle<O> {
    inner: O,
    error: f64,
    staleness: SimDuration,
    seed: u64,
    per_querier: bool,
}

impl<O> NoisyOracle<O> {
    /// Wraps `inner`, adding uniform error of amplitude `error` that is
    /// re-drawn once per `staleness` period per `(querier, target)` pair
    /// — different queriers see *different* perturbed values, modelling
    /// divergent caches (the worst case for receiver-side verification).
    ///
    /// # Panics
    ///
    /// Panics if `error` is negative or `staleness` is zero.
    pub fn new(inner: O, error: f64, staleness: SimDuration, seed: u64) -> Self {
        Self::with_scope(inner, error, staleness, seed, true)
    }

    /// Like [`NoisyOracle::new`] but with noise *shared across queriers*:
    /// every querier in the same staleness epoch sees the same perturbed
    /// value for a target. This models AVMON's aggregated (median over
    /// monitors) answers, which all clients receive identically.
    ///
    /// # Panics
    ///
    /// Panics if `error` is negative or `staleness` is zero.
    pub fn shared(inner: O, error: f64, staleness: SimDuration, seed: u64) -> Self {
        Self::with_scope(inner, error, staleness, seed, false)
    }

    fn with_scope(
        inner: O,
        error: f64,
        staleness: SimDuration,
        seed: u64,
        per_querier: bool,
    ) -> Self {
        assert!(error >= 0.0, "error amplitude must be non-negative");
        assert!(
            staleness > SimDuration::ZERO,
            "staleness period must be positive"
        );
        NoisyOracle {
            inner,
            error,
            staleness,
            seed,
            per_querier,
        }
    }

    /// Whether noise is drawn per querier (vs shared across queriers).
    pub fn is_per_querier(&self) -> bool {
        self.per_querier
    }

    /// The staleness epoch containing `now`: the perturbation for a
    /// `(querier, target)` pair is constant within one epoch and re-drawn
    /// at each epoch boundary, so estimates can only change when this
    /// number advances.
    pub fn epoch_at(&self, now: SimTime) -> u64 {
        now.as_millis() / self.staleness.as_millis()
    }

    /// Applies the deterministic per `(seed, [querier,] target, epoch)`
    /// perturbation to a true value. Factored out so the batch path is
    /// bit-identical to N single estimates by construction.
    fn perturb(&self, querier_term: u64, target: NodeId, epoch: u64, true_value: Availability) -> Availability {
        let mut rng = SplitMix64::new(
            self.seed
                ^ querier_term
                ^ target.raw().rotate_left(43)
                ^ epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        // Burn a draw to decorrelate from the seed structure.
        let _ = rng.next_u64();
        let delta = rng.range_f64(-self.error, self.error);
        Availability::saturating(true_value.value() + delta)
    }

    fn querier_term(&self, querier: NodeId) -> u64 {
        if self.per_querier {
            querier.raw().rotate_left(17)
        } else {
            0
        }
    }
}

impl<O: AvailabilityOracle> AvailabilityOracle for NoisyOracle<O> {
    fn estimate(&self, querier: NodeId, target: NodeId, now: SimTime) -> Option<Availability> {
        let true_value = self.inner.estimate(querier, target, now)?;
        if self.error == 0.0 {
            return Some(true_value);
        }
        let epoch = self.epoch_at(now);
        Some(self.perturb(self.querier_term(querier), target, epoch, true_value))
    }

    fn estimate_batch(
        &self,
        querier: NodeId,
        targets: &[NodeId],
        now: SimTime,
        out: &mut Vec<Option<Availability>>,
    ) {
        self.inner.estimate_batch(querier, targets, now, out);
        if self.error == 0.0 {
            return;
        }
        // Epoch and querier term are loop-invariant; only the per-target
        // keyed draw remains inside.
        let epoch = self.epoch_at(now);
        let querier_term = self.querier_term(querier);
        for (slot, &target) in out.iter_mut().zip(targets) {
            if let Some(true_value) = *slot {
                *slot = Some(self.perturb(querier_term, target, epoch, true_value));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avmem_trace::OvernetModel;

    fn trace() -> ChurnTrace {
        OvernetModel::default().hosts(50).days(1).generate(7)
    }

    #[test]
    fn trace_oracle_returns_ground_truth() {
        let t = trace();
        let oracle = TraceOracle::new(&t);
        for i in 0..t.num_nodes() {
            let est = oracle
                .estimate(NodeId::new(0), t.node_id(i), SimTime::ZERO)
                .unwrap();
            assert_eq!(est, t.long_term_availability(i));
        }
    }

    #[test]
    fn trace_oracle_unknown_node_is_none() {
        let t = trace();
        let oracle = TraceOracle::new(&t);
        assert!(oracle
            .estimate(NodeId::new(0), NodeId::new(9999), SimTime::ZERO)
            .is_none());
    }

    #[test]
    fn noisy_oracle_same_epoch_is_cached() {
        let t = trace();
        let oracle = NoisyOracle::new(
            TraceOracle::new(&t),
            0.1,
            SimDuration::from_mins(20),
            1,
        );
        let (q, x) = (NodeId::new(1), NodeId::new(2));
        let early = oracle.estimate(q, x, SimTime::from_millis(0)).unwrap();
        let later = oracle
            .estimate(q, x, SimTime::from_millis(19 * 60 * 1000))
            .unwrap();
        assert_eq!(early, later);
    }

    #[test]
    fn noisy_oracle_redraws_across_epochs() {
        let t = trace();
        let oracle = NoisyOracle::new(
            TraceOracle::new(&t),
            0.1,
            SimDuration::from_mins(20),
            1,
        );
        let (q, x) = (NodeId::new(1), NodeId::new(2));
        let mut values = std::collections::BTreeSet::new();
        for epoch in 0..10u64 {
            let at = SimTime::from_millis(epoch * 20 * 60 * 1000);
            let v = oracle.estimate(q, x, at).unwrap();
            values.insert(format!("{:.9}", v.value()));
        }
        assert!(values.len() > 1, "noise never re-drawn");
    }

    #[test]
    fn noisy_oracle_queriers_disagree() {
        let t = trace();
        let oracle = NoisyOracle::new(
            TraceOracle::new(&t),
            0.1,
            SimDuration::from_mins(20),
            1,
        );
        let x = NodeId::new(5);
        let a = oracle.estimate(NodeId::new(1), x, SimTime::ZERO).unwrap();
        let b = oracle.estimate(NodeId::new(2), x, SimTime::ZERO).unwrap();
        assert_ne!(a, b, "independent queriers should usually disagree");
    }

    #[test]
    fn noisy_oracle_error_is_bounded() {
        let t = trace();
        let truth = TraceOracle::new(&t);
        let oracle = NoisyOracle::new(TraceOracle::new(&t), 0.05, SimDuration::from_mins(20), 3);
        for i in 0..t.num_nodes() {
            let x = t.node_id(i);
            let true_v = truth.estimate(NodeId::new(0), x, SimTime::ZERO).unwrap();
            let noisy = oracle.estimate(NodeId::new(0), x, SimTime::ZERO).unwrap();
            let diff = (true_v.value() - noisy.value()).abs();
            assert!(diff <= 0.05 + 1e-12, "error {diff} exceeds amplitude");
        }
    }

    #[test]
    fn shared_noise_agrees_across_queriers() {
        let t = trace();
        let oracle = NoisyOracle::shared(
            TraceOracle::new(&t),
            0.1,
            SimDuration::from_mins(20),
            1,
        );
        let x = NodeId::new(5);
        let a = oracle.estimate(NodeId::new(1), x, SimTime::ZERO).unwrap();
        let b = oracle.estimate(NodeId::new(2), x, SimTime::ZERO).unwrap();
        assert_eq!(a, b, "shared noise must be querier-independent");
        assert!(!oracle.is_per_querier());
    }

    #[test]
    fn shared_noise_still_redraws_across_epochs() {
        let t = trace();
        let oracle = NoisyOracle::shared(
            TraceOracle::new(&t),
            0.1,
            SimDuration::from_mins(20),
            1,
        );
        let x = NodeId::new(5);
        let q = NodeId::new(1);
        let early = oracle.estimate(q, x, SimTime::ZERO).unwrap();
        let later = oracle
            .estimate(q, x, SimTime::from_millis(3 * 20 * 60 * 1000))
            .unwrap();
        assert_ne!(early, later, "different epochs should usually differ");
    }

    #[test]
    fn zero_error_passes_through() {
        let t = trace();
        let oracle = NoisyOracle::new(
            TraceOracle::new(&t),
            0.0,
            SimDuration::from_mins(20),
            3,
        );
        let x = NodeId::new(4);
        assert_eq!(
            oracle.estimate(NodeId::new(0), x, SimTime::ZERO).unwrap(),
            t.long_term_availability(4)
        );
    }

    #[test]
    fn oracle_trait_objects_work() {
        let t = trace();
        let concrete = TraceOracle::new(&t);
        let dyn_oracle: &dyn AvailabilityOracle = &concrete;
        assert!(dyn_oracle
            .estimate(NodeId::new(0), NodeId::new(1), SimTime::ZERO)
            .is_some());
    }
}
