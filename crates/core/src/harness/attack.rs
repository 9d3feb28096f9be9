//! Attack analysis over a running simulation (§4.1, Figs. 5–6).
//!
//! Two experiments, both exercising the receiver-side admission check of
//! [`crate::verify`] under imperfect availability estimates:
//!
//! * **Flooding attack** (Fig. 5): a selfish node tries to message nodes
//!   that are *not* its AVMEM neighbors; the fraction of such
//!   non-neighbors that would accept measures the attack surface. The
//!   paper finds fewer than ~10 % regardless of attacker availability.
//! * **Legitimate rejection rate** (Fig. 6): stale caches and
//!   inconsistent estimates cause receivers to reject some *valid*
//!   senders; below 30 % with no cushion, below ~20 % with cushion 0.1.

use avmem_util::NodeId;
use serde::{Deserialize, Serialize};

use crate::harness::AvmemSim;
use crate::membership::SliverScope;
use crate::verify::AdmissionPolicy;

/// Per-availability-bucket attack measurement.
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

impl AvmemSim {
    /// Fig. 5: for every online node acting as a flooding attacker,
    /// the fraction of online non-neighbors that would accept its
    /// message under receiver-side verification with `cushion`.
    /// Results are averaged per 0.1-wide availability bucket of the
    /// attacker (bucket count = `buckets`).
    pub fn flooding_attack(&self, cushion: f64, buckets: usize) -> AttackSeries {
        self.attack_series(cushion, buckets, AttackKind::Flooding)
    }

    /// Fig. 6: for every online node acting as a legitimate sender, the
    /// fraction of its own (online) AVMEM neighbors that would *reject*
    /// its message under verification with `cushion`.
    pub fn legitimate_rejection(&self, cushion: f64, buckets: usize) -> AttackSeries {
        self.attack_series(cushion, buckets, AttackKind::Rejection)
    }

    fn attack_series(&self, cushion: f64, buckets: usize, kind: AttackKind) -> AttackSeries {
        assert!(buckets > 0, "need at least one bucket");
        let policy = AdmissionPolicy::with_cushion(cushion);
        let now = self.now();
        let trace = self.trace();
        let n = trace.num_nodes();
        let online: Vec<usize> = trace.online_at(now);

        // The receiver verifies with ITS OWN oracle view of both
        // availabilities; a pair it cannot check is not counted.
        let verifies = |sender: usize, receiver: usize| {
            let (s_id, r_id) = (NodeId::new(sender as u64), NodeId::new(receiver as u64));
            policy.verdict(self.predicate(), self.oracle(), s_id, r_id, now)
        };

        let mut bucket_sums = vec![0.0f64; buckets];
        let mut bucket_counts = vec![0usize; buckets];

        for &sender in &online {
            let s_id = NodeId::new(sender as u64);
            let membership = self.membership(s_id);
            let mut considered = 0usize;
            let mut hits = 0usize;
            match kind {
                AttackKind::Flooding => {
                    // Attack surface: online nodes outside the sender's
                    // lists.
                    for &receiver in &online {
                        if receiver == sender
                            || membership.contains(NodeId::new(receiver as u64))
                        {
                            continue;
                        }
                        if let Some(accepted) = verifies(sender, receiver) {
                            considered += 1;
                            if accepted {
                                hits += 1;
                            }
                        }
                    }
                }
                AttackKind::Rejection => {
                    // Legitimate sends: the sender's own neighbors.
                    for neighbor in membership.neighbors(SliverScope::Both) {
                        let receiver = neighbor.id.raw() as usize;
                        if receiver >= n || !trace.is_online(receiver, now) {
                            continue;
                        }
                        if let Some(accepted) = verifies(sender, receiver) {
                            considered += 1;
                            if !accepted {
                                hits += 1;
                            }
                        }
                    }
                }
            }
            if considered == 0 {
                continue;
            }
            let fraction = hits as f64 / considered as f64;
            let av = trace.long_term_availability(sender).value();
            let b = ((av * buckets as f64).floor() as usize).min(buckets - 1);
            bucket_sums[b] += fraction;
            bucket_counts[b] += 1;
        }

        let values = bucket_sums
            .into_iter()
            .zip(bucket_counts)
            .map(|(sum, count)| {
                if count == 0 {
                    None
                } else {
                    Some(sum / count as f64)
                }
            })
            .collect();
        AttackSeries { values, cushion }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AttackKind {
    Flooding,
    Rejection,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{OracleChoice, SimConfig};
    use avmem_sim::SimDuration;
    use avmem_trace::OvernetModel;

    fn noisy_sim(seed: u64) -> AvmemSim {
        let trace = OvernetModel::default().hosts(150).days(1).generate(17);
        let mut config = SimConfig::paper_default(seed);
        config.oracle = OracleChoice::paper_noise();
        let mut sim = AvmemSim::new(trace, config);
        sim.warm_up(SimDuration::from_hours(24));
        sim
    }

    #[test]
    fn flooding_acceptance_is_bounded() {
        let sim = noisy_sim(1);
        let series = sim.flooding_attack(0.0, 10);
        // Paper: fewer than 10% of non-neighbors accept; allow slack for
        // the small population.
        assert!(
            series.max_value() < 0.25,
            "flooding acceptance {} too high",
            series.max_value()
        );
    }

    #[test]
    fn cushion_increases_attack_surface_but_modestly() {
        let sim = noisy_sim(2);
        let strict = sim.flooding_attack(0.0, 10);
        let relaxed = sim.flooding_attack(0.1, 10);
        assert!(relaxed.mean_value() >= strict.mean_value());
    }

    #[test]
    fn rejections_happen_under_noise_and_cushion_reduces_them() {
        let sim = noisy_sim(3);
        let strict = sim.legitimate_rejection(0.0, 10);
        let relaxed = sim.legitimate_rejection(0.1, 10);
        assert!(
            strict.mean_value() > 0.0,
            "noise should cause some rejections"
        );
        assert!(
            relaxed.mean_value() < strict.mean_value(),
            "cushion should reduce rejections: {} vs {}",
            relaxed.mean_value(),
            strict.mean_value()
        );
    }

    #[test]
    fn exact_oracle_has_zero_rejections_and_zero_attack_surface() {
        let trace = OvernetModel::default().hosts(100).days(1).generate(19);
        let mut sim = AvmemSim::new(trace, SimConfig::paper_default(4));
        sim.warm_up(SimDuration::from_hours(24));
        let rejection = sim.legitimate_rejection(0.0, 10);
        assert_eq!(rejection.mean_value(), 0.0);
        let flooding = sim.flooding_attack(0.0, 10);
        assert_eq!(flooding.mean_value(), 0.0);
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
}
