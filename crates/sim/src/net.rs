//! Network model: per-hop latency.
//!
//! The paper's operation experiments draw the latency of each virtual hop
//! "uniformly at random from the interval \[20 ms, 80 ms\]" (§4.2, Fig. 9).
//! [`LatencyModel`] captures that and a constant alternative; [`Network`]
//! draws from a latency model with a deterministic RNG stream.

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
}

impl LatencyModel {
    /// The paper's default hop-latency model: uniform on `[20 ms, 80 ms]`.
    pub const PAPER: LatencyModel = LatencyModel::Uniform {
        lo_millis: 20,
        hi_millis: 80,
    };

    /// Draws one hop latency. A uniform model must have `lo ≤ hi`
    /// ([`Network::new`] refuses any other).
    #[inline]
    pub fn draw<R: Rng>(&self, rng: &mut R) -> SimDuration {
        match *self {
            LatencyModel::Constant { millis } => SimDuration::from_millis(millis),
            LatencyModel::Uniform {
                lo_millis,
                hi_millis,
            } => {
                debug_assert!(lo_millis <= hi_millis);
                // The span wraps to 0 only for `[0, u64::MAX]`, where
                // every word is a latency.
                let span = (hi_millis - lo_millis).wrapping_add(1);
                let offset = if span == 0 {
                    rng.next_u64()
                } else {
                    rng.range_u64(span)
                };
                SimDuration::from_millis(lo_millis + offset)
            }
        }
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::PAPER
    }
}

/// A message network: hop-latency draws from one seeded stream.
///
/// # Examples
///
/// ```
/// use avmem_sim::{LatencyModel, Network, SimDuration};
///
/// let mut net = Network::new(LatencyModel::PAPER, 42);
/// let d = net.hop_latency();
/// assert!(d >= SimDuration::from_millis(20) && d <= SimDuration::from_millis(80));
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    latency: LatencyModel,
    rng: SplitMix64,
}

impl Network {
    /// Creates a network with the given latency model and RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if a uniform model's bounds are inverted (`lo > hi`).
    pub fn new(latency: LatencyModel, seed: u64) -> Self {
        if let LatencyModel::Uniform {
            lo_millis,
            hi_millis,
        } = latency
        {
            assert!(
                lo_millis <= hi_millis,
                "uniform latency bounds are inverted: lo {lo_millis} ms > hi {hi_millis} ms"
            );
        }
        Network {
            latency,
            rng: SplitMix64::new(seed),
        }
    }

    /// Draws the latency for one hop.
    #[inline]
    pub fn hop_latency(&mut self) -> SimDuration {
        self.latency.draw(&mut self.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_model_stays_in_bounds() {
        let mut net = Network::new(LatencyModel::PAPER, 7);
        for _ in 0..10_000 {
            let d = net.hop_latency().as_millis();
            assert!((20..=80).contains(&d), "latency {d} out of [20, 80]");
        }
    }

    #[test]
    fn paper_model_covers_both_endpoints() {
        let mut net = Network::new(LatencyModel::PAPER, 11);
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
        let mut net = Network::new(LatencyModel::Constant { millis: 55 }, 1);
        for _ in 0..100 {
            assert_eq!(net.hop_latency().as_millis(), 55);
        }
    }

    #[test]
    #[should_panic(expected = "uniform latency bounds are inverted")]
    fn inverted_uniform_bounds_are_refused() {
        Network::new(
            LatencyModel::Uniform {
                lo_millis: 80,
                hi_millis: 20,
            },
            1,
        );
    }

    #[test]
    fn the_full_uniform_range_draws_whole_words() {
        let full = LatencyModel::Uniform {
            lo_millis: 0,
            hi_millis: u64::MAX,
        };
        let mut net = Network::new(full, 5);
        let mut words = SplitMix64::new(5);
        for _ in 0..100 {
            assert_eq!(net.hop_latency().as_millis(), words.next_u64());
        }
    }

    #[test]
    fn a_wide_uniform_span_takes_the_retry_path() {
        // Lemire's method refuses a word with probability (2⁶⁴ mod s) / 2⁶⁴;
        // for s = 2⁶³ + 1 that is about one half.
        let wide = LatencyModel::Uniform {
            lo_millis: 0,
            hi_millis: 1 << 63,
        };
        let mut net = Network::new(wide, 9);
        for _ in 0..1_000 {
            assert!(net.hop_latency().as_millis() <= 1 << 63);
        }
        // The counter advances by `GAMMA` a word: undo the multiplication
        // with GAMMA's inverse mod 2⁶⁴ (Newton's iteration; GAMMA is odd).
        let mut inverse = SplitMix64::GAMMA;
        for _ in 0..5 {
            inverse =
                inverse.wrapping_mul(2u64.wrapping_sub(SplitMix64::GAMMA.wrapping_mul(inverse)));
        }
        assert_eq!(SplitMix64::GAMMA.wrapping_mul(inverse), 1);
        let words = net.rng.counter().wrapping_sub(9).wrapping_mul(inverse);
        assert!(words > 1_200, "{words} words for 1 000 draws: no retries");
    }

    #[test]
    fn same_seed_same_draws() {
        let mut a = Network::new(LatencyModel::PAPER, 99);
        let mut b = Network::new(LatencyModel::PAPER, 99);
        for _ in 0..100 {
            assert_eq!(a.hop_latency(), b.hop_latency());
        }
    }
}
