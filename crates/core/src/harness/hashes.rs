//! Pair-hash storage: lazy dense rows within a memory budget, on-the-fly
//! hashing beyond it.
//!
//! Eq. 1 evaluates `H(id(x), id(y))` for ordered node pairs. A full
//! overlay rebuild touches all `N²` ordered pairs, and SHA-256 dominates
//! the per-pair cost, so caching pays — but a dense `N × N` `f64` matrix
//! is `8·N²` bytes (80 GB at `N = 10⁵`), which caps the population the
//! simulator can hold. [`PairHashes`] therefore picks one of two stores
//! from the population size ([`PairHashes::with_budget`]):
//!
//! * **dense** (the matrix fits the memory budget) — each row `x` is
//!   hashed once, in the thread that first needs it, and kept; later
//!   reads are array lookups. Untouched rows cost nothing, so sparse
//!   access patterns (event-driven maintenance) do not pay `O(N²)`
//!   up-front hashing.
//! * **on the fly** (it does not) — nothing is stored. Point reads hash
//!   one pair, [`PairHashes::gather`] hashes a node's candidate list in one
//!   batched call and [`PairHashes::row`] batch-fills the caller's scratch
//!   row, so memory stays `O(N)` per thread. Event-driven maintenance
//!   meets a pair again only a protocol period later, after a cache has
//!   long since turned it out; a batched hash (two interleaved SHA-NI
//!   chains, see [`avmem_util::consistent_hash_batch`]) costs less than
//!   the cache miss that used to precede it.
//!
//! Both stores agree bit-for-bit with [`avmem_util::consistent_hash`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use avmem_util::parallel::{default_threads, par_chunks_mut};
use avmem_util::{consistent_hash, consistent_hash_batch, NodeId};

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
/// let hashes = PairHashes::compute(10);
/// assert_eq!(
///     hashes.get(3, 7),
///     consistent_hash(NodeId::new(3), NodeId::new(7))
/// );
///
/// // Above the memory budget the same API hashes on the fly.
/// let direct = PairHashes::with_budget(10, 0);
/// assert_eq!(direct.get(3, 7), hashes.get(3, 7));
/// ```
#[derive(Debug)]
pub struct PairHashes {
    n: usize,
    /// Dense rows, hashed on first touch and kept (`OnceLock` makes
    /// materialization thread-safe under the parallel rebuild); `None`
    /// when the matrix exceeds the budget and every read hashes.
    rows: Option<Vec<OnceLock<Box<[f64]>>>>,
    /// Full rows hashed (`n` SHA-256 evaluations each): dense
    /// materializations and on-the-fly bulk fills.
    rows_built: AtomicU64,
    /// Pairs hashed on the fly by point reads and gathers.
    direct_hashes: AtomicU64,
}

/// A point-in-time view of the store's cumulative counters; see
/// [`PairHashes::store_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairStoreStats {
    /// Full rows hashed (`n` SHA-256 evaluations each).
    pub rows_built: u64,
    /// Pairs hashed on the fly, outside any row.
    pub direct_hashes: u64,
    /// Dense rows resident right now.
    pub cached_rows: usize,
}

impl PairHashes {
    /// Eagerly hashes all ordered pairs of the population `0..n`
    /// (parallelized across rows). Use for sweeps that share one matrix
    /// across many simulations of the same population.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn compute(n: usize) -> Self {
        let hashes = PairHashes::lazy(n);
        // Materialize every row up front; rows are independent, so the
        // chunk split cannot change any value.
        let mut row_ids: Vec<usize> = (0..n).collect();
        par_chunks_mut(&mut row_ids, 1, default_threads(), |_, chunk| {
            for &x in chunk.iter() {
                hashes.dense_row(x);
            }
        });
        hashes
    }

    /// Dense storage whatever the size: rows are hashed on first touch,
    /// nothing up front.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn lazy(n: usize) -> Self {
        PairHashes::new(n, true)
    }

    /// Budget-aware constructor: lazy dense rows when the matrix (`8·n²`
    /// bytes) fits `budget_bytes`, on-the-fly hashing otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_budget(n: usize, budget_bytes: usize) -> Self {
        let dense_bytes = n.checked_mul(n).and_then(|pairs| pairs.checked_mul(8));
        PairHashes::new(n, dense_bytes.is_some_and(|b| b <= budget_bytes))
    }

    fn new(n: usize, dense: bool) -> Self {
        assert!(n > 0, "population must be non-empty");
        PairHashes {
            n,
            rows: dense.then(|| (0..n).map(|_| OnceLock::new()).collect()),
            rows_built: AtomicU64::new(0),
            direct_hashes: AtomicU64::new(0),
        }
    }

    /// Population size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix is empty (never true for constructed values).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Whether rows are kept once materialized (dense storage) rather
    /// than hashed on every read.
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

    /// `H(id(x), id(y))`: an array read from the (materialized on first
    /// touch) dense row, or one hash on the fly.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn get(&self, x: usize, y: usize) -> f64 {
        assert!(x < self.n && y < self.n, "pair index out of range");
        match self.dense_row(x) {
            Some(row) => row[y],
            None => {
                self.direct_hashes.fetch_add(1, Ordering::Relaxed);
                consistent_hash(NodeId::new(x as u64), NodeId::new(y as u64))
            }
        }
    }

    /// `H(id(x), id(y))` for every `y` in `ys`, into `out` (cleared
    /// first): reads of the dense row, or one batched hash of the whole
    /// list on the fly. Returns whether the dense row served them — the
    /// finalize fast path's candidate lists come through here, and its
    /// statistics tell the two apart.
    ///
    /// # Panics
    ///
    /// Panics if `x` or any of `ys` is out of range.
    pub fn gather(&self, x: usize, ys: &[NodeId], out: &mut Vec<f64>) -> bool {
        assert!(x < self.n, "row index out of range");
        out.clear();
        match self.dense_row(x) {
            Some(row) => {
                out.extend(ys.iter().map(|y| row[y.raw() as usize]));
                true
            }
            None => {
                assert!(
                    ys.iter().all(|y| y.raw() < self.n as u64),
                    "pair index out of range"
                );
                self.direct_hashes
                    .fetch_add(ys.len() as u64, Ordering::Relaxed);
                out.resize(ys.len(), 0.0);
                consistent_hash_batch(NodeId::new(x as u64), ys.iter().copied(), out);
                false
            }
        }
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
            direct_hashes: self.direct_hashes.load(Ordering::Relaxed),
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

    #[test]
    fn matches_direct_hashing() {
        let hashes = PairHashes::compute(20);
        for x in 0..20 {
            for y in 0..20 {
                assert_eq!(
                    hashes.get(x, y),
                    consistent_hash(NodeId::new(x as u64), NodeId::new(y as u64))
                );
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
                let expect = consistent_hash(NodeId::new((n / 2) as u64), NodeId::new(y as u64));
                assert_eq!(h, expect, "n={n} y={y}");
            }
        }
    }

    #[test]
    fn directedness_is_preserved() {
        let hashes = PairHashes::compute(5);
        assert_ne!(hashes.get(1, 2), hashes.get(2, 1));
    }

    #[test]
    fn lazy_materializes_only_touched_rows() {
        let hashes = PairHashes::lazy(16);
        assert_eq!(hashes.cached_rows(), 0);
        let _ = hashes.get(3, 7);
        assert_eq!(hashes.cached_rows(), 1);
        let mut scratch = Vec::new();
        let _ = hashes.row(9, &mut scratch);
        assert_eq!(hashes.cached_rows(), 2);
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
        let cached = PairHashes::compute(12);
        let mut scratch = Vec::new();
        for x in 0..12 {
            let row = direct.row(x, &mut scratch).to_vec();
            for (y, &h) in row.iter().enumerate() {
                assert_eq!(direct.get(x, y), cached.get(x, y));
                assert_eq!(h, cached.get(x, y));
            }
        }
        assert_eq!(direct.cached_rows(), 0);
    }

    #[test]
    fn gather_agrees_with_point_reads_in_both_stores() {
        let expect = PairHashes::compute(14);
        let ys: Vec<NodeId> = [13u64, 0, 5, 5, 9].map(NodeId::new).to_vec();
        let mut out = vec![f64::NAN; 3]; // stale contents must not survive
        for (hashes, dense) in [
            (PairHashes::lazy(14), true),
            (PairHashes::with_budget(14, 0), false),
        ] {
            for x in 0..14 {
                for len in 0..=ys.len() {
                    assert_eq!(hashes.gather(x, &ys[..len], &mut out), dense);
                    let want: Vec<f64> = ys[..len]
                        .iter()
                        .map(|y| expect.get(x, y.raw() as usize))
                        .collect();
                    assert_eq!(out, want, "x={x} len={len}");
                }
            }
        }
    }

    #[test]
    fn store_stats_split_rows_from_on_the_fly_hashes() {
        let dense = PairHashes::lazy(10);
        let mut out = Vec::new();
        let ys = [NodeId::new(1), NodeId::new(2)];
        dense.gather(3, &ys, &mut out);
        let _ = dense.get(3, 4);
        let stats = dense.store_stats();
        assert_eq!(
            (stats.rows_built, stats.direct_hashes, stats.cached_rows),
            (1, 0, 1)
        );

        let direct = PairHashes::with_budget(10, 0);
        direct.gather(3, &ys, &mut out);
        let _ = direct.get(3, 4);
        let _ = direct.row(3, &mut out);
        let stats = direct.store_stats();
        assert_eq!(
            (stats.rows_built, stats.direct_hashes, stats.cached_rows),
            (1, 3, 0)
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let hashes = PairHashes::compute(3);
        let _ = hashes.get(3, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gather_rejects_out_of_range_candidates_on_the_fly() {
        let hashes = PairHashes::with_budget(3, 0);
        hashes.gather(0, &[NodeId::new(3)], &mut Vec::new());
    }
}
