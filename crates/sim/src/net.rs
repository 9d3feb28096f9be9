//! Network model: per-hop latency and message loss.
//!
//! The paper's operation experiments draw the latency of each virtual hop
//! "uniformly at random from the interval \[20 ms, 80 ms\]" (§4.2, Fig. 9).
//! [`LatencyModel`] captures that and a couple of alternatives; [`Network`]
//! combines a latency model with an optional uniform loss probability and
//! a deterministic RNG stream.

use avmem_util::{Rng, SplitMix64};
use serde::{Deserialize, Serialize};

use crate::time::SimDuration;

/// How long a message takes to cross one virtual hop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LatencyModel {
    /// Every hop takes exactly this long.
    Constant {
        /// The fixed per-hop latency in milliseconds.
        millis: u64,
    },
    /// Hop latency uniform in `[lo_millis, hi_millis]` — the paper's model
    /// with `lo = 20`, `hi = 80`.
    Uniform {
        /// Inclusive lower bound in milliseconds.
        lo_millis: u64,
        /// Inclusive upper bound in milliseconds.
        hi_millis: u64,
    },
    /// A heavy-ish tail: `lo + Exp(mean_extra)` capped at `cap_millis`,
    /// for sensitivity analyses beyond the paper's uniform model.
    ShiftedExponential {
        /// Minimum latency in milliseconds.
        lo_millis: u64,
        /// Mean of the additional exponential component, in milliseconds.
        mean_extra_millis: u64,
        /// Hard cap in milliseconds.
        cap_millis: u64,
    },
}

impl LatencyModel {
    /// The paper's default hop-latency model: uniform on `[20 ms, 80 ms]`.
    pub const PAPER: LatencyModel = LatencyModel::Uniform {
        lo_millis: 20,
        hi_millis: 80,
    };

    /// Draws one hop latency.
    #[inline]
    pub fn draw<R: Rng>(&self, rng: &mut R) -> SimDuration {
        match *self {
            LatencyModel::Constant { millis } => SimDuration::from_millis(millis),
            LatencyModel::Uniform {
                lo_millis,
                hi_millis,
            } => {
                debug_assert!(lo_millis <= hi_millis);
                let span = hi_millis - lo_millis + 1;
                SimDuration::from_millis(lo_millis + rng.range_u64(span))
            }
            LatencyModel::ShiftedExponential {
                lo_millis,
                mean_extra_millis,
                cap_millis,
            } => {
                // Inverse-CDF sampling of Exp(mean); u ∈ [0,1) so ln(1-u) is finite.
                let u = rng.next_f64();
                let extra = -(1.0 - u).ln() * mean_extra_millis as f64;
                let total = (lo_millis as f64 + extra).min(cap_millis as f64);
                SimDuration::from_millis(total.round() as u64)
            }
        }
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::PAPER
    }
}

/// A message network: latency draws plus optional uniform message loss.
///
/// # Examples
///
/// ```
/// use avmem_sim::{LatencyModel, Network, SimDuration};
///
/// let mut net = Network::new(LatencyModel::PAPER, 0.0, 42);
/// let d = net.hop_latency();
/// assert!(d >= SimDuration::from_millis(20) && d <= SimDuration::from_millis(80));
/// assert!(net.delivers()); // loss probability is zero
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    latency: LatencyModel,
    loss_probability: f64,
    rng: SplitMix64,
}

impl Network {
    /// Creates a network with the given latency model, loss probability in
    /// `[0, 1]`, and RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if `loss_probability` is not in `[0, 1]`.
    pub fn new(latency: LatencyModel, loss_probability: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&loss_probability),
            "loss probability must be in [0, 1]"
        );
        Network {
            latency,
            loss_probability,
            rng: SplitMix64::new(seed),
        }
    }

    /// The configured latency model.
    pub fn latency_model(&self) -> LatencyModel {
        self.latency
    }

    /// Draws the latency for one hop.
    #[inline]
    pub fn hop_latency(&mut self) -> SimDuration {
        self.latency.draw(&mut self.rng)
    }

    /// Returns whether a message survives the loss process.
    pub fn delivers(&mut self) -> bool {
        !self.rng.chance(self.loss_probability)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_model_stays_in_bounds() {
        let mut net = Network::new(LatencyModel::PAPER, 0.0, 7);
        for _ in 0..10_000 {
            let d = net.hop_latency().as_millis();
            assert!((20..=80).contains(&d), "latency {d} out of [20, 80]");
        }
    }

    #[test]
    fn paper_model_covers_both_endpoints() {
        let mut net = Network::new(LatencyModel::PAPER, 0.0, 11);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..20_000 {
            match net.hop_latency().as_millis() {
                20 => saw_lo = true,
                80 => saw_hi = true,
                _ => {}
            }
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn constant_model_is_constant() {
        let mut net = Network::new(LatencyModel::Constant { millis: 55 }, 0.0, 1);
        for _ in 0..100 {
            assert_eq!(net.hop_latency().as_millis(), 55);
        }
    }

    #[test]
    fn shifted_exponential_respects_floor_and_cap() {
        let model = LatencyModel::ShiftedExponential {
            lo_millis: 10,
            mean_extra_millis: 50,
            cap_millis: 200,
        };
        let mut net = Network::new(model, 0.0, 3);
        for _ in 0..10_000 {
            let d = net.hop_latency().as_millis();
            assert!((10..=200).contains(&d));
        }
    }

    #[test]
    fn loss_probability_zero_always_delivers() {
        let mut net = Network::new(LatencyModel::PAPER, 0.0, 5);
        assert!((0..1000).all(|_| net.delivers()));
    }

    #[test]
    fn loss_probability_one_never_delivers() {
        let mut net = Network::new(LatencyModel::PAPER, 1.0, 5);
        assert!((0..1000).all(|_| !net.delivers()));
    }

    #[test]
    fn loss_rate_is_close_to_configured() {
        let mut net = Network::new(LatencyModel::PAPER, 0.3, 5);
        let lost = (0..100_000).filter(|_| !net.delivers()).count();
        let rate = lost as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate={rate}");
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn invalid_loss_probability_panics() {
        let _ = Network::new(LatencyModel::PAPER, 1.5, 0);
    }

    #[test]
    fn same_seed_same_draws() {
        let mut a = Network::new(LatencyModel::PAPER, 0.1, 99);
        let mut b = Network::new(LatencyModel::PAPER, 0.1, 99);
        for _ in 0..100 {
            assert_eq!(a.hop_latency(), b.hop_latency());
            assert_eq!(a.delivers(), b.delivers());
        }
    }
}
