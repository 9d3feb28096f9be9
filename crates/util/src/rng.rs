//! Deterministic random number generation.
//!
//! Every protocol decision in the simulator that is *random but not
//! consistent* (gossip target choice, latency draws, churn generation, …)
//! flows through one generator so that a run is fully determined by its
//! seed: [`SplitMix64`] (seed expansion, per-node streams and
//! counter-keyed streams), behind the small [`Rng`] trait.
//!
//! It is a textbook public-domain algorithm (Vigna); implementing it here
//! keeps the core protocol crates free of external RNG dependencies and
//! bit-reproducible across platforms.

/// Minimal random-source trait used across the workspace.
///
/// The provided combinators (`next_f64`, `range_u64`, `chance`, …) are
/// implemented in terms of [`Rng::next_u64`], so implementors only supply
/// the raw stream.
pub trait Rng {
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns a uniform `f64` in `[0, 1)` with 53-bit precision.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Returns a uniform value in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is unbiased.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    fn range_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "range_u64 bound must be positive");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut low = m as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniform `usize` index in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    fn index(&mut self, bound: usize) -> usize {
        self.range_u64(bound as u64) as usize
    }

    /// Returns a uniform `f64` in `[lo, hi)`.
    fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffles a slice in place.
    fn shuffle<T>(&mut self, slice: &mut [T])
    where
        Self: Sized,
    {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Samples `k` distinct elements uniformly without replacement
    /// (reservoir sampling). Returns fewer than `k` if the iterator is
    /// shorter than `k`.
    fn sample<T, I>(&mut self, iter: I, k: usize) -> Vec<T>
    where
        I: IntoIterator<Item = T>,
        Self: Sized,
    {
        let mut reservoir: Vec<T> = Vec::with_capacity(k);
        if k == 0 {
            return reservoir;
        }
        for (seen, item) in iter.into_iter().enumerate() {
            if seen < k {
                reservoir.push(item);
            } else {
                let j = self.index(seen + 1);
                if j < k {
                    reservoir[j] = item;
                }
            }
        }
        reservoir
    }

    /// [`Rng::sample`] over the positions `0..n`, into a caller-provided
    /// buffer (cleared first): the same picks in the same order from the
    /// same draws — `index(seen + 1)` for every `seen` in `k..n`, none
    /// when `k == 0` or `n <= k` — so a caller that gathers its items by
    /// position afterwards gets what `sample` over the items would give,
    /// and leaves the generator where `sample` would.
    ///
    /// It exists because of what it does *not* do. A reservoir's
    /// `if j < k { reservoir[j] = item }` is taken about half the time on
    /// a draw nobody can predict, and with `n` in the tens the
    /// mispredictions cost more than the draws. Here the store is
    /// unconditional: the reservoir is followed by one spill slot, every
    /// winner lands at `min(j, k)`, and the spill is dropped at the end.
    fn sample_positions(&mut self, n: usize, k: usize, out: &mut Vec<u32>) {
        assert!(u32::try_from(n).is_ok(), "positions must fit u32");
        out.clear();
        out.extend(0..n.min(k) as u32);
        if k == 0 || n <= k {
            return;
        }
        out.push(0);
        let slots = &mut out[..=k];
        for seen in k..n {
            let j = self.index(seen + 1);
            slots[j.min(k)] = seen as u32;
        }
        out.pop();
    }
}

/// SplitMix64: fast, tiny state; ideal for seed expansion and for deriving
/// decorrelated per-node streams from a master seed.
///
/// # Examples
///
/// ```
/// use avmem_util::{Rng, SplitMix64};
///
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derives a decorrelated child generator, e.g. one stream per node.
    pub fn fork(&mut self, tag: u64) -> SplitMix64 {
        let mixed = self.next_u64() ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        SplitMix64::new(mixed)
    }

    /// Creates a *counter-keyed* stream: the generator determined by a
    /// key tuple such as `(run_seed, node, epoch)`, independent of any
    /// other stream's draw history.
    ///
    /// Where [`SplitMix64::fork`] derives children by *consuming* a parent
    /// stream — so the child depends on how many forks happened before it
    /// — `keyed` depends only on the key words themselves. That is what
    /// makes parallel simulation deterministic: every worker can rebuild
    /// the exact stream for `(seed, node, epoch)` without coordinating
    /// over a shared generator, so results cannot depend on thread count
    /// or event drain order.
    ///
    /// Each word is folded into the state through a full SplitMix64
    /// output step, so keys differing in any single word (including by
    /// ±1, the common case for node indices and epochs) yield
    /// decorrelated streams.
    ///
    /// # Examples
    ///
    /// ```
    /// use avmem_util::{Rng, SplitMix64};
    ///
    /// let mut a = SplitMix64::keyed(&[7, 42, 3]);
    /// let mut b = SplitMix64::keyed(&[7, 42, 3]);
    /// assert_eq!(a.next_u64(), b.next_u64()); // key-determined
    ///
    /// let mut c = SplitMix64::keyed(&[7, 43, 3]);
    /// assert_ne!(a.next_u64(), c.next_u64()); // neighbors decorrelate
    /// ```
    pub fn keyed(words: &[u64]) -> SplitMix64 {
        let mut rng = SplitMix64::new(0x243f_6a88_85a3_08d3); // π fraction
        for &w in words {
            // Same mixing as `fork`: avalanche the current state through
            // one output step, then fold the word in. The avalanche
            // between words prevents the xor/add cancellations a purely
            // linear fold would allow.
            rng.state = rng.next_u64() ^ w.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
        rng
    }
}

impl Rng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // Reference output for seed 0 from the public-domain C code.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xe220a8397b1dcdaf);
        assert_eq!(rng.next_u64(), 0x6e789e6aa1b965f4);
        assert_eq!(rng.next_u64(), 0x06c45d188009454f);
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(99);
        let mut b = SplitMix64::new(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = SplitMix64::new(5);
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_u64_respects_bound() {
        let mut rng = SplitMix64::new(11);
        for bound in [1u64, 2, 3, 7, 100, 1 << 40] {
            for _ in 0..200 {
                assert!(rng.range_u64(bound) < bound);
            }
        }
    }

    #[test]
    fn range_u64_is_roughly_uniform() {
        let mut rng = SplitMix64::new(13);
        let mut counts = [0usize; 5];
        for _ in 0..50_000 {
            counts[rng.range_u64(5) as usize] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "counts={counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn range_u64_zero_bound_panics() {
        let mut rng = SplitMix64::new(0);
        let _ = rng.range_u64(0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SplitMix64::new(21);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sample_without_replacement_has_distinct_items() {
        let mut rng = SplitMix64::new(33);
        let picked = rng.sample(0..1000u32, 50);
        assert_eq!(picked.len(), 50);
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 50);
    }

    #[test]
    fn sample_shorter_input_returns_everything() {
        let mut rng = SplitMix64::new(34);
        let picked = rng.sample(0..3u32, 10);
        assert_eq!(picked.len(), 3);
    }

    /// `sample_positions(n, k)` against the reference it must reproduce,
    /// [`Rng::sample`] over `0..n`: same picks in the same order, and the
    /// generator left at the same position. The scratch comes in dirty.
    fn positions_match_sample<R: Rng + Clone>(rng: &R, n: usize, k: usize) {
        let (mut a, mut b) = (rng.clone(), rng.clone());
        let expected = a.sample(0..n as u32, k);
        let mut positions = vec![u32::MAX; 13];
        b.sample_positions(n, k, &mut positions);
        assert_eq!(positions, expected, "n={n} k={k}");
        assert_eq!(a.next_u64(), b.next_u64(), "stream diverged n={n} k={k}");
    }

    #[test]
    fn sample_positions_edge_shapes_match_sample() {
        // Nothing wanted, nothing there, too few to choose from (no draw
        // in any of the three), one draw, and a long run of them.
        for (n, k) in [(5, 0), (0, 5), (3, 10), (8, 8), (9, 8), (2, 1), (1000, 500)] {
            positions_match_sample(&SplitMix64::new(97), n, k);
            positions_match_sample(&SplitMix64::new(98), n, k);
        }
    }

    proptest::proptest! {
        #[test]
        fn sample_positions_match_sample(
            seed in proptest::prelude::any::<u64>(),
            n in 0usize..200,
            k in 0usize..80,
        ) {
            positions_match_sample(&SplitMix64::new(seed), n, k);
        }
    }

    #[test]
    fn forked_streams_are_decorrelated() {
        let mut master = SplitMix64::new(77);
        let mut a = master.fork(1);
        let mut b = master.fork(2);
        let matches = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(matches, 0);
    }

    #[test]
    fn keyed_streams_are_key_determined() {
        let mut a = SplitMix64::keyed(&[1, 2, 3]);
        let mut b = SplitMix64::keyed(&[1, 2, 3]);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn keyed_streams_decorrelate_neighboring_keys() {
        // Node/epoch keys differ by small deltas in practice; streams for
        // any two distinct keys must diverge immediately and stay apart.
        let keys: Vec<Vec<u64>> = vec![
            vec![9, 0, 0],
            vec![9, 1, 0],
            vec![9, 0, 1],
            vec![9, 1, 1],
            vec![10, 0, 0],
            vec![9, 0],
            vec![9],
        ];
        for (i, ka) in keys.iter().enumerate() {
            for kb in keys.iter().skip(i + 1) {
                let mut a = SplitMix64::keyed(ka);
                let mut b = SplitMix64::keyed(kb);
                let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
                assert_eq!(same, 0, "keys {ka:?} / {kb:?} correlate");
            }
        }
    }

    #[test]
    fn keyed_stream_does_not_consume_a_parent() {
        // Unlike fork, keyed needs no shared parent: rebuilding the
        // stream anywhere (any thread, any order) gives identical draws.
        let first: Vec<u64> = {
            let mut r = SplitMix64::keyed(&[5, 77]);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let mut other = SplitMix64::keyed(&[6, 78]);
        let _ = other.next_u64(); // unrelated stream activity
        let again: Vec<u64> = {
            let mut r = SplitMix64::keyed(&[5, 77]);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(first, again);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SplitMix64::new(55);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }
}
