//! The harness's concrete oracle: a closed enum over the fidelity levels
//! so the simulation can both query (`&self`) and advance (`&mut self`,
//! for the ping-based AVMON service) without trait-object gymnastics.

use avmem_avmon::{AssignmentChoice, AvailabilityOracle, AvmonService, NoisyOracle, TraceOracle};
use avmem_sim::SimTime;
use avmem_trace::ChurnTrace;
use avmem_util::{Availability, NodeId};

use crate::harness::config::OracleChoice;

/// The oracle behind a running simulation.
#[derive(Debug, Clone)]
pub enum SimOracle {
    /// Ground truth.
    Exact(TraceOracle),
    /// Ground truth + per-querier noise/staleness.
    Noisy(NoisyOracle<TraceOracle>),
    /// Full ping-based monitoring (boxed: the service's assignment
    /// state dwarfs the instant oracles).
    Avmon(Box<AvmonService>),
}

impl SimOracle {
    /// Builds the oracle selected by `choice`.
    pub fn build(choice: OracleChoice, trace: &ChurnTrace, seed: u64) -> Self {
        match choice {
            OracleChoice::Exact => SimOracle::Exact(TraceOracle::new(trace)),
            OracleChoice::Noisy { error, staleness } => SimOracle::Noisy(NoisyOracle::new(
                TraceOracle::new(trace),
                error,
                staleness,
                seed,
            )),
            OracleChoice::NoisyShared { error, staleness } => SimOracle::Noisy(
                NoisyOracle::shared(TraceOracle::new(trace), error, staleness, seed),
            ),
            OracleChoice::Avmon { config } => {
                SimOracle::Avmon(Box::new(AvmonService::new(trace, config, seed)))
            }
        }
    }

    /// Advances time-dependent oracles (the AVMON service processes all
    /// pings up to `now` in batched parallel slot sweeps over the worker
    /// pool, over a monitor relation that churn never moves; the others
    /// are time-indexed functions).
    pub fn advance(&mut self, trace: &ChurnTrace, now: SimTime) {
        if let SimOracle::Avmon(service) = self {
            service.step_to(trace, now);
        }
    }

    /// Sets the chunk fan-out of the AVMON service's parallel slot
    /// phases (a no-op for the instant oracles). Purely a performance
    /// knob: estimates are bit-identical for every thread count.
    pub fn set_threads(&mut self, threads: usize) {
        if let SimOracle::Avmon(service) = self {
            service.set_threads(threads);
        }
    }

    /// Sets the shard partitioning of the AVMON service's node-indexed
    /// phases (aggregation, ring-arena sweeps) so monitoring work is
    /// carved along the same ownership map as the maintenance harness (a
    /// no-op for the instant oracles). Purely a performance knob:
    /// estimates are bit-identical for every shard count.
    pub fn set_shards(&mut self, shards: usize) {
        if let SimOracle::Avmon(service) = self {
            service.set_shards(shards);
        }
    }

    /// Attaches a metrics registry to the AVMON service (slot-advance
    /// cost counters; a no-op for the instant oracles). Observation
    /// only: estimates are unchanged.
    pub fn set_metrics(&mut self, registry: &avmem_metrics::Registry) {
        if let SimOracle::Avmon(service) = self {
            service.set_metrics(registry);
        }
    }

    /// A short label for the configured estimation strategy, used by
    /// reports that compare per-strategy accuracy (e.g. ring vs
    /// all-pairs MAE).
    pub fn strategy_label(&self) -> &'static str {
        match self {
            SimOracle::Exact(_) => "exact",
            SimOracle::Noisy(o) => {
                if o.is_per_querier() {
                    "noisy"
                } else {
                    "noisy-shared"
                }
            }
            SimOracle::Avmon(o) => match o.assignment() {
                AssignmentChoice::Ring { .. } => "avmon-ring",
                AssignmentChoice::AllPairs => "avmon-all-pairs",
            },
        }
    }

    /// Whether every querier sees the same estimate for a given target
    /// at a given time. True for ground truth, shared-noise aggregates,
    /// and AVMON's aggregated answers; false for the per-querier noise
    /// model (divergent caches). Querier-independent oracles let the
    /// converged rebuild share one availability snapshot — and one
    /// sorted candidate index — across the whole population.
    pub fn querier_independent(&self) -> bool {
        match self {
            SimOracle::Exact(_) | SimOracle::Avmon(_) => true,
            SimOracle::Noisy(o) => !o.is_per_querier(),
        }
    }

    /// A generation counter that advances whenever estimates *may*
    /// change; it never goes back.
    ///
    /// Within one epoch, `estimate(q, y, now)` is a pure function of
    /// `(q, y)` — the contract the finalize fast path relies on to memoize
    /// thresholds and skip re-classification, whose every memo belongs to
    /// the querying node. Ground truth never changes (epoch 0 forever);
    /// noise, per querier or shared, is re-drawn once per staleness
    /// period; AVMON aggregates mutate only when a trace slot is
    /// processed. What finalize keeps *across* epochs (a verdict for a
    /// pair hash above its node's threshold ceiling) reads no estimate at
    /// all.
    pub fn epoch(&self, now: SimTime) -> u64 {
        match self {
            SimOracle::Exact(_) => 0,
            SimOracle::Noisy(o) => o.epoch_at(now),
            SimOracle::Avmon(o) => o.slots_processed() as u64,
        }
    }

    /// Whether [`SimOracle::epoch`] can ever advance: false for ground
    /// truth alone, whose one epoch lasts the run. Where it can, whatever
    /// finalize remembers per epoch is rebuilt at every turnover — and
    /// what it knows from ids alone is worth carrying over.
    pub fn epoch_moves(&self) -> bool {
        !matches!(self, SimOracle::Exact(_))
    }
}

impl AvailabilityOracle for SimOracle {
    fn estimate(&self, querier: NodeId, target: NodeId, now: SimTime) -> Option<Availability> {
        match self {
            SimOracle::Exact(o) => o.estimate(querier, target, now),
            SimOracle::Noisy(o) => o.estimate(querier, target, now),
            SimOracle::Avmon(o) => o.estimate(querier, target, now),
        }
    }

    fn estimate_batch(
        &self,
        querier: NodeId,
        targets: &[NodeId],
        now: SimTime,
        out: &mut Vec<Option<Availability>>,
    ) {
        // One enum dispatch per candidate list instead of one per pair.
        match self {
            SimOracle::Exact(o) => o.estimate_batch(querier, targets, now, out),
            SimOracle::Noisy(o) => o.estimate_batch(querier, targets, now, out),
            SimOracle::Avmon(o) => o.estimate_batch(querier, targets, now, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avmem_avmon::AvmonConfig;
    use avmem_sim::SimDuration;
    use avmem_trace::OvernetModel;

    fn trace() -> ChurnTrace {
        OvernetModel::default().hosts(40).days(1).generate(2)
    }

    #[test]
    fn exact_oracle_matches_truth() {
        let t = trace();
        let oracle = SimOracle::build(OracleChoice::Exact, &t, 1);
        let est = oracle
            .estimate(NodeId::new(0), NodeId::new(5), SimTime::ZERO)
            .unwrap();
        assert_eq!(est, t.long_term_availability(5));
    }

    #[test]
    fn noisy_oracle_perturbs_within_amplitude() {
        let t = trace();
        let oracle = SimOracle::build(
            OracleChoice::Noisy {
                error: 0.02,
                staleness: SimDuration::from_mins(20),
            },
            &t,
            1,
        );
        let est = oracle
            .estimate(NodeId::new(0), NodeId::new(5), SimTime::ZERO)
            .unwrap();
        let diff = (est.value() - t.long_term_availability(5).value()).abs();
        assert!(diff <= 0.02 + 1e-12);
    }

    #[test]
    fn avmon_oracle_needs_advancing() {
        let t = trace();
        let mut oracle = SimOracle::build(
            OracleChoice::Avmon {
                config: AvmonConfig::default(),
            },
            &t,
            1,
        );
        assert!(oracle
            .estimate(NodeId::new(0), NodeId::new(5), SimTime::ZERO)
            .is_none());
        oracle.advance(&t, SimTime::ZERO + SimDuration::from_hours(12));
        let known = (0..t.num_nodes())
            .filter(|&i| {
                oracle
                    .estimate(NodeId::new(0), t.node_id(i), SimTime::ZERO)
                    .is_some()
            })
            .count();
        assert!(known > 0);
    }
}
