//! Shard partitioning of a node population.
//!
//! [`ShardPartition`] carves `n` node indices into `S` contiguous,
//! near-equal ranges — the ownership map of the sharded maintenance
//! harness. Each shard *owns* the state of its nodes (shuffle views,
//! membership lists, event queue); anything crossing a shard boundary
//! travels as an explicit message batch exchanged between phases, never
//! as a shared-memory reach into another shard's slice.
//!
//! Contiguity is the load-bearing property: a shard's slice of any
//! node-indexed `Vec` is a plain disjoint sub-slice
//! ([`ShardPartition::range`]), so per-shard workers get `&mut` access
//! with no locks, no `unsafe`, and no false sharing of interleaved
//! elements.
//!
//! The first `n % S` shards hold one extra node, so shard sizes differ
//! by at most one for every `(n, S)`. `S` is clamped to `1..=max(n, 1)`:
//! no shard is empty when `n > 0`. (A shard count above the population
//! would only add empty shards, and the phase barriers walk every
//! `(source, destination)` pair of shards, so each costs `O(S²)` per
//! cohort.)

use std::ops::Range;

/// A partition of node indices `0..n` into `S` contiguous shards.
///
/// # Examples
///
/// ```
/// use avmem_util::shard::ShardPartition;
///
/// let part = ShardPartition::new(10, 4);
/// // 10 nodes over 4 shards: sizes 3, 3, 2, 2.
/// assert_eq!(part.range(0), 0..3);
/// assert_eq!(part.range(3), 8..10);
/// assert_eq!(part.owner(7), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPartition {
    n: usize,
    shards: usize,
    /// `n / shards` and `n % shards`: the first `rem` shards are
    /// `base + 1` wide, the rest `base`. Divided once here — `owner` runs
    /// per message of every maintenance cohort.
    base: usize,
    rem: usize,
}

impl ShardPartition {
    /// Creates the partition of `0..n` into `shards` ranges. A shard
    /// count of zero is treated as one, and a count above `n` as `n`
    /// (one node a shard), so [`ShardPartition::shards`] may be less than
    /// asked for.
    pub fn new(n: usize, shards: usize) -> Self {
        let shards = shards.clamp(1, n.max(1));
        ShardPartition {
            n,
            shards,
            base: n / shards,
            rem: n % shards,
        }
    }

    /// Number of shards in the partition.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of nodes partitioned.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the partition covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The shard owning node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn owner(&self, i: usize) -> usize {
        assert!(i < self.n, "node {i} outside population {}", self.n);
        if self.shards == 1 {
            // No division on the per-message path of a one-shard run.
            return 0;
        }
        // The first `rem` shards are `base + 1` wide. (When `base == 0`
        // every node lands in the first branch: `rem == n` there.)
        let wide = self.rem * (self.base + 1);
        if i < wide {
            i / (self.base + 1)
        } else {
            self.rem + (i - wide) / self.base
        }
    }

    /// The index range shard `s` owns (empty only when `n == 0`).
    ///
    /// # Panics
    ///
    /// Panics if `s >= shards()`.
    pub fn range(&self, s: usize) -> Range<usize> {
        assert!(s < self.shards, "shard {s} outside partition {}", self.shards);
        let start = s * self.base + s.min(self.rem);
        let len = self.base + usize::from(s < self.rem);
        start..start + len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_tile_the_population() {
        for n in [0usize, 1, 2, 7, 16, 100, 101] {
            for shards in [1usize, 2, 3, 4, 8, 13, 150] {
                let part = ShardPartition::new(n, shards);
                let mut next = 0usize;
                for s in 0..part.shards() {
                    let range = part.range(s);
                    assert_eq!(range.start, next, "n={n} shards={shards} s={s}");
                    next = range.end;
                }
                assert_eq!(next, n, "ranges must cover 0..{n}");
            }
        }
    }

    #[test]
    fn owner_matches_range() {
        for n in [1usize, 5, 16, 97] {
            for shards in [1usize, 2, 4, 8, 97, 200] {
                let part = ShardPartition::new(n, shards);
                for i in 0..n {
                    let s = part.owner(i);
                    assert!(
                        part.range(s).contains(&i),
                        "n={n} shards={shards}: node {i} not in its owner's range"
                    );
                }
            }
        }
    }

    #[test]
    fn sizes_differ_by_at_most_one() {
        let part = ShardPartition::new(103, 8);
        let sizes: Vec<usize> = (0..8).map(|s| part.range(s).len()).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 1, "{sizes:?}");
        assert_eq!(sizes.iter().sum::<usize>(), 103);
    }

    #[test]
    fn zero_shards_collapses_to_one() {
        let part = ShardPartition::new(9, 0);
        assert_eq!(part.shards(), 1);
        assert_eq!(part.range(0), 0..9);
    }

    #[test]
    fn more_shards_than_nodes_clamps_to_one_node_a_shard() {
        let part = ShardPartition::new(3, 8);
        assert_eq!(part.shards(), 3);
        for i in 0..3 {
            assert_eq!(part.owner(i), i);
            assert_eq!(part.range(i), i..i + 1);
        }
        let empty = ShardPartition::new(0, 8);
        assert_eq!((empty.shards(), empty.range(0)), (1, 0..0));
    }

    #[test]
    #[should_panic(expected = "outside population")]
    fn owner_rejects_out_of_range() {
        let _ = ShardPartition::new(4, 2).owner(4);
    }
}
