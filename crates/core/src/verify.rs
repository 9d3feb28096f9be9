//! Receiver-side admission checks (the non-cooperative defence).
//!
//! "Each node checks each incoming message to verify if its sender is a
//! valid in-neighbor (according to the AVMEM predicate), and reject it if
//! not" (§4.1). A receiver `y` validating a sender `x` evaluates
//! `M(x, y)` — is *y* legitimately in *x*'s membership list? — using
//! **its own** availability estimates of both nodes, which may disagree
//! with the sender's. The paper adds a constant *cushion* to the
//! right-hand side of Eq. 1 to absorb that divergence, trading a slightly
//! higher flooding-attack acceptance (Fig. 5) for a much lower legitimate
//! rejection rate (Fig. 6).

use avmem_avmon::AvailabilityOracle;
use avmem_sim::SimTime;
use avmem_util::NodeId;
use serde::{Deserialize, Serialize};

use crate::predicate::{AvmemPredicate, NodeInfo};

/// Receiver-side message admission policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionPolicy {
    /// The cushion added to the predicate threshold during verification.
    pub cushion: f64,
}

impl AdmissionPolicy {
    /// A strict policy (no cushion).
    pub fn strict() -> Self {
        AdmissionPolicy { cushion: 0.0 }
    }

    /// The paper's relaxed policy: cushion 0.1.
    pub fn paper_cushion() -> Self {
        AdmissionPolicy { cushion: 0.1 }
    }

    /// Creates a policy with a custom cushion.
    ///
    /// # Panics
    ///
    /// Panics if `cushion` is negative.
    pub fn with_cushion(cushion: f64) -> Self {
        assert!(cushion >= 0.0, "cushion must be non-negative");
        AdmissionPolicy { cushion }
    }

    /// Would `receiver` accept a message from `sender`? Only when it can
    /// verify the predicate: see [`AdmissionPolicy::verdict`].
    pub fn accepts<O>(
        &self,
        predicate: &AvmemPredicate,
        oracle: &O,
        sender: NodeId,
        receiver: NodeId,
        now: SimTime,
    ) -> bool
    where
        O: AvailabilityOracle + ?Sized,
    {
        self.verdict(predicate, oracle, sender, receiver, now) == Some(true)
    }

    /// Whether `receiver`'s check of `M(sender, receiver)` passes; `None`
    /// when the receiver has no estimate of one side and cannot check.
    ///
    /// Both availabilities are looked up through the *receiver's* oracle
    /// view — this is what makes verification vulnerable to estimate
    /// divergence, and what the cushion compensates for.
    pub fn verdict<O>(
        &self,
        predicate: &AvmemPredicate,
        oracle: &O,
        sender: NodeId,
        receiver: NodeId,
        now: SimTime,
    ) -> Option<bool>
    where
        O: AvailabilityOracle + ?Sized,
    {
        let sender_av = oracle.estimate(receiver, sender, now)?;
        let receiver_av = oracle.estimate(receiver, receiver, now)?;
        Some(predicate.member_with_cushion(
            NodeInfo::new(sender, sender_av),
            NodeInfo::new(receiver, receiver_av),
            self.cushion,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avmem_avmon::{NoisyOracle, TraceOracle};
    use avmem_sim::SimDuration;
    use avmem_trace::{AvailabilityPdf, OvernetModel};
    use avmem_util::Availability;

    fn setup() -> (
        avmem_trace::ChurnTrace,
        TraceOracle,
        AvmemPredicate,
    ) {
        let trace = OvernetModel::default().hosts(200).days(1).generate(21);
        let oracle = TraceOracle::new(&trace);
        let sample: Vec<Availability> = (0..trace.num_nodes())
            .map(|i| trace.long_term_availability(i))
            .collect();
        let pdf = AvailabilityPdf::from_sample(&sample, 10);
        let pred = AvmemPredicate::paper_default(trace.num_nodes() as f64, pdf);
        (trace, oracle, pred)
    }

    #[test]
    fn exact_oracle_accepts_exactly_the_neighbors() {
        let (trace, oracle, pred) = setup();
        let policy = AdmissionPolicy::strict();
        let now = SimTime::ZERO;
        let mut checked = 0;
        for s in 0..30usize {
            for r in 0..30usize {
                if s == r {
                    continue;
                }
                let (sender, receiver) = (trace.node_id(s), trace.node_id(r));
                let expected = {
                    let s_info = NodeInfo::new(sender, trace.long_term_availability(s));
                    let r_info = NodeInfo::new(receiver, trace.long_term_availability(r));
                    pred.member(s_info, r_info)
                };
                assert_eq!(
                    policy.accepts(&pred, &oracle, sender, receiver, now),
                    expected
                );
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn noisy_oracle_rejects_some_legitimate_senders() {
        let (trace, truth, pred) = setup();
        let noisy = NoisyOracle::new(
            TraceOracle::new(&trace),
            0.08,
            SimDuration::from_mins(20),
            5,
        );
        let strict = AdmissionPolicy::strict();
        let now = SimTime::ZERO;
        let mut legitimate = 0;
        let mut rejected = 0;
        for s in 0..trace.num_nodes() {
            for r in 0..trace.num_nodes() {
                if s == r {
                    continue;
                }
                let (sender, receiver) = (trace.node_id(s), trace.node_id(r));
                // Legitimate relationship under ground truth.
                if !strict.accepts(&pred, &truth, sender, receiver, now) {
                    continue;
                }
                legitimate += 1;
                if !strict.accepts(&pred, &noisy, sender, receiver, now) {
                    rejected += 1;
                }
                if legitimate >= 3000 {
                    break;
                }
            }
            if legitimate >= 3000 {
                break;
            }
        }
        assert!(legitimate > 100, "not enough legitimate pairs sampled");
        assert!(
            rejected > 0,
            "noise must cause some legitimate rejections"
        );
    }

    #[test]
    fn cushion_reduces_legitimate_rejections() {
        let (trace, truth, pred) = setup();
        let noisy = NoisyOracle::new(
            TraceOracle::new(&trace),
            0.08,
            SimDuration::from_mins(20),
            5,
        );
        let strict = AdmissionPolicy::strict();
        let relaxed = AdmissionPolicy::paper_cushion();
        let now = SimTime::ZERO;
        let mut rejected_strict = 0;
        let mut rejected_relaxed = 0;
        let mut legitimate = 0;
        for s in 0..trace.num_nodes() {
            for r in (s + 1)..trace.num_nodes() {
                let (sender, receiver) = (trace.node_id(s), trace.node_id(r));
                if !strict.accepts(&pred, &truth, sender, receiver, now) {
                    continue;
                }
                legitimate += 1;
                if !strict.accepts(&pred, &noisy, sender, receiver, now) {
                    rejected_strict += 1;
                }
                if !relaxed.accepts(&pred, &noisy, sender, receiver, now) {
                    rejected_relaxed += 1;
                }
            }
        }
        assert!(legitimate > 100);
        assert!(
            rejected_relaxed < rejected_strict,
            "cushion should reduce rejections: strict {rejected_strict}, relaxed {rejected_relaxed}"
        );
    }

    #[test]
    fn unknown_sender_is_rejected() {
        let (_trace, oracle, pred) = setup();
        let policy = AdmissionPolicy::paper_cushion();
        let (stranger, known) = (NodeId::new(999_999), NodeId::new(1));
        assert_eq!(policy.verdict(&pred, &oracle, stranger, known, SimTime::ZERO), None);
        assert!(!policy.accepts(
            &pred,
            &oracle,
            NodeId::new(999_999),
            NodeId::new(1),
            SimTime::ZERO
        ));
    }

    #[test]
    #[should_panic(expected = "cushion")]
    fn negative_cushion_panics() {
        let _ = AdmissionPolicy::with_cushion(-0.1);
    }
}
