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
//! Event-driven maintenance goes through [`PairHashes::gather`], which
//! never builds a row in either store: it reads a row a full-row reader
//! already built, and otherwise hashes the node's candidate list in one
//! batched call ([`avmem_util::consistent_hash_batch`]: sixteen AVX-512
//! lanes for a list of ten pairs or more, two interleaved SHA-NI chains
//! for a shorter one — the same call fills the dense rows and the
//! rebuild's scratch rows, which are `N` wide). The finalize fast path
//! remembers each pair's *verdict* for the oracle epoch (one bit, see
//! `FinalizeShardState`), so it asks for a pair's hash at most once per
//! epoch; a dense row built to serve that one read would cost `8·N`
//! bytes and a cache miss per later read — more than the hash.
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
    /// materializations (by `row`, never by `gather`) and on-the-fly
    /// bulk fills.
    rows_built: AtomicU64,
    /// Pairs hashed outside any row: gathers that found no resident row
    /// (in either store).
    direct_hashes: AtomicU64,
}

/// A point-in-time view of the store's cumulative counters; see
/// [`PairHashes::store_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairStoreStats {
    /// Full rows hashed (`n` SHA-256 evaluations each).
    pub rows_built: u64,
    /// Pairs hashed outside any row: every [`PairHashes::gather`] that
    /// found no resident row.
    pub direct_hashes: u64,
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
            direct_hashes: AtomicU64::new(0),
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

    /// `H(id(x), id(y))` for every `y` in `ys`, into `out` (cleared
    /// first). Never builds a row: reads row `x` if [`PairHashes::row`]
    /// already did, and
    /// otherwise hashes the whole list in one batched call, in either
    /// store. Returns whether a resident row served the
    /// list — the finalize fast path's candidate lists come through here,
    /// and its statistics tell the two apart.
    ///
    /// # Panics
    ///
    /// Panics if `x` or any of `ys` is out of range.
    pub fn gather(&self, x: usize, ys: &[NodeId], out: &mut Vec<f64>) -> bool {
        assert!(x < self.n, "row index out of range");
        out.clear();
        let resident = self.rows.as_ref().and_then(|rows| rows[x].get());
        match resident {
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
        let mut out = Vec::new();
        hashes.gather(3, &[NodeId::new(7)], &mut out);
        assert_eq!(hashes.cached_rows(), 0, "gather never builds a row");
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
    fn gather_agrees_with_point_reads_in_both_stores() {
        let ys: Vec<NodeId> = [13u64, 0, 5, 5, 9].map(NodeId::new).to_vec();
        let mut out = vec![f64::NAN; 3]; // stale contents must not survive
        // `gather` never builds a row; it reads one that is resident.
        // Resident rows: every one, only the even ones (built by `row`,
        // the one reader that may), none.
        let all = PairHashes::with_budget(14, usize::MAX);
        for x in 0..14 {
            let _ = all.row(x, &mut Vec::new());
        }
        let some = PairHashes::with_budget(14, usize::MAX);
        for x in (0..14).step_by(2) {
            let _ = some.row(x, &mut Vec::new());
        }
        for (hashes, resident) in [
            (all, 14),
            (some, 7),
            (PairHashes::with_budget(14, usize::MAX), 0),
            (PairHashes::with_budget(14, 0), 0),
        ] {
            let before = hashes.store_stats();
            assert_eq!(before.cached_rows, resident);
            let mut hashed = 0;
            for x in 0..14 {
                let row_is_resident = resident == 14 || (resident == 7 && x % 2 == 0);
                for len in 0..=ys.len() {
                    let served = hashes.gather(x, &ys[..len], &mut out);
                    assert_eq!(served, row_is_resident, "x={x} len={len}");
                    if !served {
                        hashed += len as u64;
                    }
                    let want: Vec<f64> =
                        ys[..len].iter().map(|y| pair(x, y.raw() as usize)).collect();
                    assert_eq!(out, want, "x={x} len={len}");
                }
            }
            let after = hashes.store_stats();
            assert_eq!(after.cached_rows, resident, "gather built a row");
            assert_eq!(after.rows_built, before.rows_built, "gather built a row");
            assert_eq!(after.direct_hashes - before.direct_hashes, hashed);
        }
    }

    #[test]
    fn store_stats_split_rows_from_on_the_fly_hashes() {
        let dense = PairHashes::with_budget(10, usize::MAX);
        let mut out = Vec::new();
        let ys = [NodeId::new(1), NodeId::new(2)];
        dense.gather(3, &ys, &mut out); // no row yet: two pairs hashed
        let _ = dense.row(3, &mut Vec::new()); // builds row 3
        dense.gather(3, &ys, &mut out); // reads it
        let stats = dense.store_stats();
        assert_eq!(
            (stats.rows_built, stats.direct_hashes, stats.cached_rows),
            (1, 2, 1)
        );

        let direct = PairHashes::with_budget(10, 0);
        direct.gather(3, &ys, &mut out);
        let _ = direct.row(3, &mut out);
        direct.gather(3, &ys[..1], &mut out);
        let stats = direct.store_stats();
        assert_eq!(
            (stats.rows_built, stats.direct_hashes, stats.cached_rows),
            (1, 3, 0)
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let hashes = PairHashes::with_budget(3, usize::MAX);
        let _ = hashes.row(3, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gather_rejects_out_of_range_candidates_on_the_fly() {
        let hashes = PairHashes::with_budget(3, 0);
        hashes.gather(0, &[NodeId::new(3)], &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gather_rejects_out_of_range_candidates_without_a_resident_row() {
        let hashes = PairHashes::with_budget(3, usize::MAX);
        hashes.gather(0, &[NodeId::new(3)], &mut Vec::new());
    }
}
