//! Pair-hash storage: dense rows for full-row scans within a memory
//! budget, batched on-the-fly hashing for everything else.
//!
//! Eq. 1 evaluates `H(id(x), id(y))` for ordered node pairs. A full
//! overlay rebuild touches all `N²` ordered pairs, and SHA-256 dominates
//! the per-pair cost, so caching pays — but a dense `N × N` `f64` matrix
//! is `8·N²` bytes (80 GB at `N = 10⁵`), which caps the population the
//! simulator can hold. [`PairHashes`] therefore picks one of two stores
//! from the population size ([`PairHashes::with_budget`]):
//!
//! * **dense** (the matrix fits the memory budget) — a row is hashed
//!   once, by its first full-row reader ([`PairHashes::row`]: the
//!   converged rebuild, which scans every row whole on every rebuild),
//!   and kept; later reads are array lookups. Untouched rows cost nothing.
//! * **on the fly** (it does not) — nothing is stored.
//!   [`PairHashes::row`] batch-fills the caller's scratch row, so memory
//!   stays `O(N)` per thread.
//!
//! Only the converged rebuild reads this store. Event-driven maintenance
//! hashes each candidate list itself, in one batched call
//! ([`avmem_util::consistent_hash_batch`], the call that fills these rows
//! too), and never touches it: its finalize remembers each pair's
//! *verdict* for the oracle epoch (one bit), so it needs a pair's hash at
//! most once per epoch, and a dense row built to serve that one read
//! would cost `8·N` bytes and a cache miss per later read — more than the
//! hash. The budget still picks that finalize's no-insert memory
//! ([`PairHashes::is_cached`]).
//!
//! Both stores agree bit-for-bit with [`avmem_util::consistent_hash`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use avmem_util::{consistent_hash_batch, NodeId};

/// Default memory budget for dense rows: 512 MiB, i.e. dense storage up
/// to ~8 000 nodes; larger populations hash on the fly.
pub const DEFAULT_HASH_BUDGET: usize = 512 << 20;

/// Pair hashes `H(id(x), id(y))` for the trace population `0..n`.
///
/// # Examples
///
/// ```
/// use avmem::harness::PairHashes;
/// use avmem_util::{consistent_hash, NodeId};
///
/// let hashes = PairHashes::with_budget(10, usize::MAX);
/// let mut scratch = Vec::new();
/// let row = hashes.row(3, &mut scratch).to_vec();
/// assert_eq!(row[7], consistent_hash(NodeId::new(3), NodeId::new(7)));
///
/// // Above the memory budget the same API hashes on the fly.
/// let direct = PairHashes::with_budget(10, 0);
/// assert_eq!(direct.row(3, &mut scratch), &row[..]);
/// ```
#[derive(Debug)]
pub struct PairHashes {
    n: usize,
    /// Dense rows, hashed by their first full-row reader and kept
    /// (`OnceLock` makes materialization thread-safe under the parallel
    /// rebuild); `None` when the matrix exceeds the budget and every read
    /// hashes.
    rows: Option<Vec<OnceLock<Box<[f64]>>>>,
    /// Full rows hashed (`n` SHA-256 evaluations each): dense
    /// materializations and on-the-fly bulk fills.
    rows_built: AtomicU64,
}

/// A point-in-time view of the store's cumulative counters; see
/// [`PairHashes::store_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairStoreStats {
    /// Full rows hashed (`n` SHA-256 evaluations each).
    pub rows_built: u64,
    /// Dense rows resident right now. Only full-row scans build rows;
    /// event-driven maintenance never adds one.
    pub cached_rows: usize,
}

impl PairHashes {
    /// Budget-aware constructor: lazy dense rows when the matrix (`8·n²`
    /// bytes) fits `budget_bytes`, on-the-fly hashing otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_budget(n: usize, budget_bytes: usize) -> Self {
        assert!(n > 0, "population must be non-empty");
        let dense_bytes = n.checked_mul(n).and_then(|pairs| pairs.checked_mul(8));
        let dense = dense_bytes.is_some_and(|b| b <= budget_bytes);
        PairHashes {
            n,
            rows: dense.then(|| (0..n).map(|_| OnceLock::new()).collect()),
            rows_built: AtomicU64::new(0),
        }
    }

    /// Whether the dense matrix fits the budget: rows are kept once a
    /// full-row reader materializes them, and the finalize fast
    /// path may afford its verdict memory (`N²/8` bytes, `N²/4` under a
    /// moving epoch).
    pub fn is_cached(&self) -> bool {
        self.rows.is_some()
    }

    /// Number of dense rows held right now (always 0 on the fly).
    pub fn cached_rows(&self) -> usize {
        self.rows
            .as_ref()
            .map_or(0, |rows| rows.iter().filter(|r| r.get().is_some()).count())
    }

    /// Row `x` of the dense store, materialized on first touch; `None`
    /// when hashing on the fly.
    fn dense_row(&self, x: usize) -> Option<&[f64]> {
        let rows = self.rows.as_ref()?;
        Some(rows[x].get_or_init(|| {
            self.rows_built.fetch_add(1, Ordering::Relaxed);
            let mut row = vec![0.0; self.n];
            fill_row(x, &mut row);
            row.into_boxed_slice()
        }))
    }

    /// The full row `H(id(x), id(·))` for bulk scans: the (materialized
    /// on demand) dense row, or `scratch` batch-filled on the fly — a
    /// rebuild worker reuses one `O(N)` buffer for all its rows instead
    /// of allocating per node.
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    pub fn row<'a>(&'a self, x: usize, scratch: &'a mut Vec<f64>) -> &'a [f64] {
        assert!(x < self.n, "row index out of range");
        match self.dense_row(x) {
            Some(row) => row,
            None => {
                self.rows_built.fetch_add(1, Ordering::Relaxed);
                scratch.clear();
                scratch.resize(self.n, 0.0);
                fill_row(x, scratch);
                scratch
            }
        }
    }

    /// A point-in-time view of the store's cumulative counters and the
    /// resident row count. Observation only — reading never perturbs the
    /// store.
    pub fn store_stats(&self) -> PairStoreStats {
        PairStoreStats {
            rows_built: self.rows_built.load(Ordering::Relaxed),
            cached_rows: self.cached_rows(),
        }
    }
}

/// `row[y] = H(id(x), id(y))` for the whole population, in one batch.
fn fill_row(x: usize, row: &mut [f64]) {
    let ys = (0..row.len()).map(|y| NodeId::new(y as u64));
    consistent_hash_batch(NodeId::new(x as u64), ys, row);
}

#[cfg(test)]
mod tests {
    use super::*;
    use avmem_util::consistent_hash;

    /// `H(id(x), id(y))`, one pair at a time: what every store must agree with.
    fn pair(x: usize, y: usize) -> f64 {
        consistent_hash(NodeId::new(x as u64), NodeId::new(y as u64))
    }

    #[test]
    fn matches_direct_hashing() {
        for hashes in [PairHashes::with_budget(20, usize::MAX), PairHashes::with_budget(20, 0)] {
            for x in 0..20 {
                let row = hashes.row(x, &mut Vec::new()).to_vec();
                assert_eq!(row, (0..20).map(|y| pair(x, y)).collect::<Vec<_>>(), "x={x}");
            }
        }
    }

    #[test]
    fn fill_row_matches_per_pair_hashing() {
        // Odd and even lengths: the batch's interleaved pairs and its
        // single-block tail.
        for n in [1usize, 2, 7, 64, 65] {
            let mut row = vec![0.0; n];
            fill_row(n / 2, &mut row);
            for (y, &h) in row.iter().enumerate() {
                assert_eq!(h, pair(n / 2, y), "n={n} y={y}");
            }
        }
    }

    #[test]
    fn directedness_is_preserved() {
        let hashes = PairHashes::with_budget(5, usize::MAX);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        assert_ne!(hashes.row(1, &mut a)[2], hashes.row(2, &mut b)[1]);
    }

    #[test]
    fn lazy_materializes_only_touched_rows() {
        let hashes = PairHashes::with_budget(16, usize::MAX);
        assert_eq!(hashes.cached_rows(), 0);
        let mut scratch = Vec::new();
        let _ = hashes.row(9, &mut scratch);
        assert_eq!(hashes.cached_rows(), 1);
        assert!(scratch.is_empty(), "cached mode must not use the scratch");
    }

    #[test]
    fn budget_selects_storage_mode() {
        // 12² × 8 = 1152 bytes: the dense matrix just fits.
        assert!(PairHashes::with_budget(12, 1152).is_cached());
        // One byte short: nothing is stored, however many rows would fit.
        assert!(!PairHashes::with_budget(12, 1151).is_cached());
        assert!(!PairHashes::with_budget(12, 0).is_cached());
        // A population whose `8·n²` overflows `usize` is never dense.
        assert!(!PairHashes::with_budget(usize::MAX / 2, usize::MAX).is_cached());
    }

    #[test]
    fn direct_mode_agrees_with_cached() {
        let direct = PairHashes::with_budget(12, 0);
        let cached = PairHashes::with_budget(12, usize::MAX);
        let mut scratch = Vec::new();
        for x in 0..12 {
            let row = direct.row(x, &mut scratch).to_vec();
            assert_eq!(row, cached.row(x, &mut Vec::new()));
        }
        assert_eq!((direct.cached_rows(), cached.cached_rows()), (0, 12));
    }

    #[test]
    fn store_stats_split_rows_from_on_the_fly_hashes() {
        let dense = PairHashes::with_budget(10, usize::MAX);
        assert_eq!(dense.store_stats(), PairStoreStats::default());
        let _ = dense.row(3, &mut Vec::new()); // builds row 3
        let _ = dense.row(3, &mut Vec::new()); // reads it
        let stats = dense.store_stats();
        assert_eq!((stats.rows_built, stats.cached_rows), (1, 1));

        let direct = PairHashes::with_budget(10, 0);
        let _ = direct.row(3, &mut Vec::new());
        let _ = direct.row(3, &mut Vec::new());
        let stats = direct.store_stats();
        assert_eq!((stats.rows_built, stats.cached_rows), (2, 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let hashes = PairHashes::with_budget(3, usize::MAX);
        let _ = hashes.row(3, &mut Vec::new());
    }
}
