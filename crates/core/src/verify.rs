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
//!
//! A world answers the check through [`OverlayWorld::admits`]; the
//! simulation's world applies [`AdmissionPolicy::verdict`], the rule
//! itself. Figs. 5–6 are two readings of that answer over any world:
//! [`flooding_acceptance`] and [`legitimate_rejection`].

use avmem_avmon::AvailabilityOracle;
use avmem_sim::SimTime;
use avmem_util::NodeId;
use serde::{Deserialize, Serialize};

use crate::membership::SliverScope;
use crate::ops::world::OverlayWorld;
use crate::predicate::{AvmemPredicate, NodeInfo};

/// Receiver-side message admission policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionPolicy {
    /// The cushion added to the predicate threshold during verification.
    pub cushion: f64,
}

impl AdmissionPolicy {
    /// Creates a policy with a custom cushion.
    ///
    /// # Panics
    ///
    /// Panics if `cushion` is negative.
    pub fn with_cushion(cushion: f64) -> Self {
        assert!(cushion >= 0.0, "cushion must be non-negative");
        AdmissionPolicy { cushion }
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

/// Per-availability-bucket attack measurement (Figs. 5–6).
///
/// Bucket `i` covers true attacker/sender availability
/// `[i/buckets, (i+1)/buckets)`; `values[i]` is `None` when no online
/// node fell in the bucket.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackSeries {
    /// Per-bucket mean fraction (acceptance or rejection).
    pub values: Vec<Option<f64>>,
    /// The cushion used during verification.
    pub cushion: f64,
}

impl AttackSeries {
    /// The maximum bucket value (ignoring empty buckets); `0.0` when all
    /// buckets are empty.
    pub fn max_value(&self) -> f64 {
        self.values
            .iter()
            .flatten()
            .fold(0.0f64, |acc, &v| acc.max(v))
    }

    /// Mean over non-empty buckets; `0.0` when all are empty.
    pub fn mean_value(&self) -> f64 {
        let present: Vec<f64> = self.values.iter().flatten().copied().collect();
        if present.is_empty() {
            0.0
        } else {
            present.iter().sum::<f64>() / present.len() as f64
        }
    }
}

/// Fig. 5: for every online node acting as a flooding attacker, the
/// fraction of online non-neighbors that would accept its message under
/// `policy`, averaged per availability bucket of the attacker (`buckets`
/// equal-width buckets of its true availability). A pair the receiver
/// cannot check is not counted.
///
/// # Panics
///
/// Panics if `buckets == 0`.
pub fn flooding_acceptance<W>(world: &W, policy: AdmissionPolicy, buckets: usize) -> AttackSeries
where
    W: OverlayWorld + ?Sized,
{
    series(world, policy, buckets, |sender| {
        let verdicts = flood_targets(world, sender)
            .filter_map(|receiver| world.admits(sender, receiver, policy));
        tally(verdicts, true)
    })
}

/// Whom a flooding `sender` targets — the attack surface of Fig. 5 and
/// of a scenario's `[adversary]` probes: the online nodes other than
/// `sender` outside its lists, ascending.
pub fn flood_targets<W>(world: &W, sender: NodeId) -> impl Iterator<Item = NodeId> + '_
where
    W: OverlayWorld + ?Sized,
{
    let listed = world.neighbors(sender, SliverScope::Both).ids;
    online_ids(world)
        .filter(move |&receiver| receiver != sender && !listed.contains(&(receiver.raw() as u32)))
}

/// Fig. 6: for every online node acting as a legitimate sender, the
/// fraction of its own online neighbors that would *reject* its message
/// under `policy`, averaged per availability bucket of the sender.
///
/// # Panics
///
/// Panics if `buckets == 0`.
pub fn legitimate_rejection<W>(world: &W, policy: AdmissionPolicy, buckets: usize) -> AttackSeries
where
    W: OverlayWorld + ?Sized,
{
    series(world, policy, buckets, |sender| {
        let neighbors = world.neighbors(sender, SliverScope::Both).ids.iter();
        let verdicts = neighbors
            .map(|&receiver| NodeId::new(u64::from(receiver)))
            .filter(|&receiver| world.is_online(receiver))
            .filter_map(|receiver| world.admits(sender, receiver, policy));
        tally(verdicts, false)
    })
}

/// The online ids of `world`, ascending.
fn online_ids<W: OverlayWorld + ?Sized>(world: &W) -> impl Iterator<Item = NodeId> + '_ {
    (0..world.id_bound() as u64)
        .map(NodeId::new)
        .filter(|&id| world.is_online(id))
}

/// `(verdicts, verdicts equal to hit)`.
fn tally(verdicts: impl Iterator<Item = bool>, hit: bool) -> (usize, usize) {
    verdicts.fold((0, 0), |(considered, hits), accepted| {
        (considered + 1, hits + usize::from(accepted == hit))
    })
}

/// Averages each online sender's `hits / considered` (from `count`) into
/// the bucket of its true availability; a sender with nothing considered
/// is left out.
fn series<W>(
    world: &W,
    policy: AdmissionPolicy,
    buckets: usize,
    count: impl Fn(NodeId) -> (usize, usize),
) -> AttackSeries
where
    W: OverlayWorld + ?Sized,
{
    assert!(buckets > 0, "need at least one bucket");
    let mut bucket_sums = vec![0.0f64; buckets];
    let mut bucket_counts = vec![0usize; buckets];
    for sender in online_ids(world) {
        let (considered, hits) = count(sender);
        if considered == 0 {
            continue;
        }
        let fraction = hits as f64 / considered as f64;
        let b = world.true_availability(sender).bucket(buckets);
        bucket_sums[b] += fraction;
        bucket_counts[b] += 1;
    }
    let values = bucket_sums
        .into_iter()
        .zip(bucket_counts)
        .map(|(sum, count)| (count > 0).then(|| sum / count as f64))
        .collect();
    AttackSeries { values, cushion: policy.cushion }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::world::mock::MockWorld;
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

    /// Whether `policy` lets `receiver` accept `sender` under `oracle`.
    fn accepts<O: AvailabilityOracle>(
        policy: AdmissionPolicy,
        pred: &AvmemPredicate,
        oracle: &O,
        sender: NodeId,
        receiver: NodeId,
    ) -> bool {
        policy.verdict(pred, oracle, sender, receiver, SimTime::ZERO) == Some(true)
    }

    #[test]
    fn exact_oracle_accepts_exactly_the_neighbors() {
        let (trace, oracle, pred) = setup();
        let policy = AdmissionPolicy::with_cushion(0.0);
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
                assert_eq!(accepts(policy, &pred, &oracle, sender, receiver), expected);
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
        let strict = AdmissionPolicy::with_cushion(0.0);
        let mut legitimate = 0;
        let mut rejected = 0;
        for s in 0..trace.num_nodes() {
            for r in 0..trace.num_nodes() {
                if s == r {
                    continue;
                }
                let (sender, receiver) = (trace.node_id(s), trace.node_id(r));
                // Legitimate relationship under ground truth.
                if !accepts(strict, &pred, &truth, sender, receiver) {
                    continue;
                }
                legitimate += 1;
                if !accepts(strict, &pred, &noisy, sender, receiver) {
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
        let strict = AdmissionPolicy::with_cushion(0.0);
        let relaxed = AdmissionPolicy::with_cushion(0.1);
        let mut rejected_strict = 0;
        let mut rejected_relaxed = 0;
        let mut legitimate = 0;
        for s in 0..trace.num_nodes() {
            for r in (s + 1)..trace.num_nodes() {
                let (sender, receiver) = (trace.node_id(s), trace.node_id(r));
                if !accepts(strict, &pred, &truth, sender, receiver) {
                    continue;
                }
                legitimate += 1;
                if !accepts(strict, &pred, &noisy, sender, receiver) {
                    rejected_strict += 1;
                }
                if !accepts(relaxed, &pred, &noisy, sender, receiver) {
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
        let policy = AdmissionPolicy::with_cushion(0.1);
        let (stranger, known) = (NodeId::new(999_999), NodeId::new(1));
        assert_eq!(policy.verdict(&pred, &oracle, stranger, known, SimTime::ZERO), None);
        assert!(!accepts(policy, &pred, &oracle, stranger, known));
    }

    #[test]
    #[should_panic(expected = "cushion")]
    fn negative_cushion_panics() {
        let _ = AdmissionPolicy::with_cushion(-0.1);
    }

    #[test]
    fn series_helpers() {
        let series = AttackSeries {
            values: vec![None, Some(0.1), Some(0.3)],
            cushion: 0.0,
        };
        assert_eq!(series.max_value(), 0.3);
        assert!((series.mean_value() - 0.2).abs() < 1e-12);
    }

    /// Four buckets; senders 0 and 1 in bucket 0, 2 and 5 in bucket 2,
    /// 3 in bucket 3, the offline 4 in bucket 1. Every pair is admitted
    /// unless the table says otherwise.
    fn hand_world() -> MockWorld {
        let mut world = MockWorld::default();
        for (id, av) in [(0, 0.1), (1, 0.2), (2, 0.6), (3, 0.9), (4, 0.3), (5, 0.5)] {
            world.add(id, av);
        }
        world.set_offline(4);
        // 0 lists 1 and the offline 4; 1 lists 0, 2 and 3; 2 lists 3.
        world.hs_edge(0, 1);
        world.vs_edge(0, 4);
        world.hs_edge(1, 0);
        world.vs_edge(1, 2);
        world.vs_edge(1, 3);
        world.hs_edge(2, 3);
        // Flooding: 0 is refused by 2, unverifiable at 3; 2 is refused
        // by 5. Rejection: 1's message is refused by 2 and unverifiable
        // at 3; the offline 4 would refuse 0 but is not asked.
        world.set_verdict(0, 2, Some(false));
        world.set_verdict(0, 3, None);
        world.set_verdict(2, 5, Some(false));
        world.set_verdict(1, 2, Some(false));
        world.set_verdict(1, 3, None);
        world.set_verdict(0, 4, Some(false));
        world
    }

    #[test]
    fn flooding_acceptance_averages_per_bucket_over_checked_non_neighbors() {
        let world = hand_world();
        let series = flooding_acceptance(&world, AdmissionPolicy::with_cushion(0.05), 4);
        // 0 floods {2, 5} (3 unverifiable): 1/2 accept; 1 floods {5}: 1;
        // bucket 0 = (0.5 + 1) / 2. 2 floods {0, 1, 5}: 2/3; 5 floods
        // {0, 1, 2, 3}: 1. 3 floods {0, 1, 2, 5}: 1.
        assert_eq!(
            series.values,
            [Some(0.75), None, Some((2.0 / 3.0 + 1.0) / 2.0), Some(1.0)]
        );
        assert_eq!(series.cushion, 0.05);
    }

    #[test]
    fn legitimate_rejection_averages_per_bucket_over_checked_online_neighbors() {
        let world = hand_world();
        let series = legitimate_rejection(&world, AdmissionPolicy::with_cushion(0.0), 4);
        // 0 → {1} (4 offline): 0 rejected; 1 → {0, 2} (3 unverifiable):
        // 1/2; bucket 0 = 0.25. 2 → {3}: 0. 3 and 5 list nobody.
        assert_eq!(series.values, [Some(0.25), None, Some(0.0), None]);
    }
}
