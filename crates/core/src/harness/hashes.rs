//! Pair-hash rows for the converged rebuild: kept where a later rebuild
//! reads them again, hashed into the caller's scratch everywhere else.
//!
//! Eq. 1 evaluates `H(id(x), id(y))` for ordered node pairs, and the
//! converged rebuild scans every row whole. A row depends on ids alone,
//! so one hashed row stays right for the run — but a rebuild reads it
//! again only after the oracle's epoch has moved: a rebuild at an
//! unchanged epoch would rebuild the same lists, and is skipped
//! (`AvmemSim::warm_up`). [`PairHashes`] therefore runs one of two
//! stores, fixed at construction ([`PairHashes::new`]):
//!
//! * **kept** (the oracle's epoch moves and the population is small
//!   enough for the matrix, `8·N²` bytes: at most 8 192 hosts, 512 MiB)
//!   — a row is hashed once, by its first reader ([`PairHashes::row`]),
//!   and kept; later reads are array lookups. Untouched rows cost
//!   nothing.
//! * **scratch** (otherwise) — nothing is stored. [`PairHashes::row`]
//!   batch-fills the caller's scratch row, so memory stays `O(N)` per
//!   thread.
//!
//! Only the converged rebuild reads this store. Event-driven maintenance
//! hashes each candidate list itself, in one batched call
//! ([`avmem_util::consistent_hash_batch`], the call that fills these rows
//! too), and never touches it: its finalize remembers each pair's
//! *verdict* for the oracle epoch (one bit), so it needs a pair's hash at
//! most once per epoch, and a dense row built to serve that one read
//! would cost `8·N` bytes and a cache miss per later read — more than the
//! hash.
//!
//! Both stores agree bit-for-bit with [`avmem_util::consistent_hash`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use avmem_util::{consistent_hash_batch, NodeId};

/// Pair hashes `H(id(x), id(y))` for the trace population `0..n`.
///
/// # Examples
///
/// ```
/// use avmem::harness::PairHashes;
/// use avmem_util::{consistent_hash, NodeId};
///
/// let hashes = PairHashes::new(10, true);
/// let mut scratch = Vec::new();
/// let row = hashes.row(3, &mut scratch).to_vec();
/// assert_eq!(row[7], consistent_hash(NodeId::new(3), NodeId::new(7)));
///
/// // A store that keeps nothing hashes into the scratch, to the same rows.
/// let direct = PairHashes::new(10, false);
/// assert_eq!(direct.row(3, &mut scratch), &row[..]);
/// ```
#[derive(Debug)]
pub struct PairHashes {
    n: usize,
    /// Kept rows, hashed by their first reader (`OnceLock` makes
    /// materialization thread-safe under the parallel rebuild); `None`
    /// when every read hashes into scratch.
    rows: Option<Vec<OnceLock<Box<[f64]>>>>,
    /// Full rows hashed (`n` SHA-256 evaluations each): kept rows and
    /// scratch fills.
    rows_built: AtomicU64,
}

/// A point-in-time view of the store's cumulative counters; see
/// [`PairHashes::store_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairStoreStats {
    /// Full rows hashed (`n` SHA-256 evaluations each).
    pub rows_built: u64,
    /// Rows resident right now. Only the converged rebuild builds rows;
    /// event-driven maintenance never adds one.
    pub cached_rows: usize,
}

impl PairHashes {
    /// A store over the population `0..n` that keeps each row its first
    /// reader hashes when `keep_rows`, and hashes every read into the
    /// reader's scratch otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, keep_rows: bool) -> Self {
        assert!(n > 0, "population must be non-empty");
        PairHashes {
            n,
            rows: keep_rows.then(|| (0..n).map(|_| OnceLock::new()).collect()),
            rows_built: AtomicU64::new(0),
        }
    }

    /// Number of rows held right now (always 0 when nothing is kept).
    pub fn cached_rows(&self) -> usize {
        self.rows
            .as_ref()
            .map_or(0, |rows| rows.iter().filter(|r| r.get().is_some()).count())
    }

    /// Row `x` of the kept store, materialized on first touch; `None`
    /// when nothing is kept.
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
    /// on demand) kept row, or `scratch` batch-filled on the fly — a
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
        for hashes in [PairHashes::new(20, true), PairHashes::new(20, false)] {
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
        let hashes = PairHashes::new(5, true);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        assert_ne!(hashes.row(1, &mut a)[2], hashes.row(2, &mut b)[1]);
    }

    #[test]
    fn lazy_materializes_only_touched_rows() {
        let hashes = PairHashes::new(16, true);
        assert_eq!(hashes.cached_rows(), 0);
        let mut scratch = Vec::new();
        let _ = hashes.row(9, &mut scratch);
        assert_eq!(hashes.cached_rows(), 1);
        assert!(scratch.is_empty(), "a kept row must not use the scratch");
    }

    #[test]
    fn direct_mode_agrees_with_cached() {
        let direct = PairHashes::new(12, false);
        let cached = PairHashes::new(12, true);
        let mut scratch = Vec::new();
        for x in 0..12 {
            let row = direct.row(x, &mut scratch).to_vec();
            assert_eq!(row, cached.row(x, &mut Vec::new()));
        }
        assert_eq!((direct.cached_rows(), cached.cached_rows()), (0, 12));
    }

    #[test]
    fn store_stats_split_rows_from_on_the_fly_hashes() {
        let dense = PairHashes::new(10, true);
        assert_eq!(dense.store_stats(), PairStoreStats::default());
        let _ = dense.row(3, &mut Vec::new()); // builds row 3
        let _ = dense.row(3, &mut Vec::new()); // reads it
        let stats = dense.store_stats();
        assert_eq!((stats.rows_built, stats.cached_rows), (1, 1));

        let direct = PairHashes::new(10, false);
        let _ = direct.row(3, &mut Vec::new());
        let _ = direct.row(3, &mut Vec::new());
        let stats = direct.store_stats();
        assert_eq!((stats.rows_built, stats.cached_rows), (2, 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let hashes = PairHashes::new(3, true);
        let _ = hashes.row(3, &mut Vec::new());
    }
}
