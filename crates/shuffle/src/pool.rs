//! A free-list of recycled entry buffers.
//!
//! Every shuffle exchange allocates a handful of short `Vec<ViewEntry>`s
//! (request entries, reply subset, in-flight bookkeeping). At harness
//! scale that is four to five allocations per exchange × millions of
//! exchanges per run. An [`EntryPool`] is a trivial free-list the batch
//! driver owns per shard: buffers are taken, filled, shipped through a
//! [`ShuffleMessage`](crate::ShuffleMessage), and recycled once the
//! exchange settles — cleared and reused, never freed.
//!
//! Pooling is invisible to determinism: `Vec` equality ignores capacity,
//! and the subset sampler the pooled entry points fill their buffers
//! with (`Rng::sample_positions`) makes the picks of `Rng::sample` from
//! the same draws.
//!
//! The pool also carries the shard's id table (a
//! [`StampedTable`]): the working memory [`View::merge`](crate::View::merge)
//! indexes a view in, so that every id probe of a merge is one load. It
//! is emptied at the start of each use, so whoever holds the pool between
//! exchanges may borrow it ([`EntryPool::id_table`]) for id probes of its
//! own. And it lends that sampler its position scratch: one `Vec<u32>`
//! of a shuffle length and a spill slot, rewritten by every subset drawn.

use avmem_util::StampedTable;

use crate::view::ViewEntry;

/// Free-list of `Vec<ViewEntry>` buffers plus the shard's id table and
/// position scratch; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct EntryPool {
    free: Vec<Vec<ViewEntry>>,
    ids: StampedTable,
    positions: Vec<u32>,
}

impl EntryPool {
    /// An empty pool.
    pub fn new() -> EntryPool {
        EntryPool::default()
    }

    /// Takes a cleared buffer from the pool, or allocates one with the
    /// requested capacity if the pool is dry.
    pub fn take(&mut self, capacity: usize) -> Vec<ViewEntry> {
        match self.free.pop() {
            Some(mut buf) => {
                buf.clear();
                buf
            }
            None => Vec::with_capacity(capacity),
        }
    }

    /// Returns a buffer to the pool. Zero-capacity buffers are dropped
    /// (nothing to reuse).
    pub fn recycle(&mut self, mut buf: Vec<ViewEntry>) {
        if buf.capacity() > 0 {
            buf.clear();
            self.free.push(buf);
        }
    }

    /// The id table: scratch with no content between uses — call
    /// [`StampedTable::begin`] first. It holds 8 bytes per id up to the
    /// largest one ever written, and stays allocated.
    pub fn id_table(&mut self) -> &mut StampedTable {
        &mut self.ids
    }

    /// The position scratch of the subset sampler
    /// ([`View::random_subset_pooled`](crate::View)): no content between
    /// uses, and stays allocated.
    pub(crate) fn positions(&mut self) -> &mut Vec<u32> {
        &mut self.positions
    }

    /// Buffers currently parked in the pool.
    pub fn parked(&self) -> usize {
        self.free.len()
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use avmem_util::NodeId;

    #[test]
    fn take_recycle_round_trips_cleared() {
        let mut pool = EntryPool::new();
        let mut buf = pool.take(4);
        buf.push(ViewEntry::fresh(NodeId::new(7)));
        pool.recycle(buf);
        assert_eq!(pool.parked(), 1);
        let reused = pool.take(4);
        assert!(reused.is_empty(), "recycled buffers come back cleared");
        assert!(reused.capacity() >= 1);
        assert_eq!(pool.parked(), 0);
    }

    #[test]
    fn zero_capacity_buffers_are_not_parked() {
        let mut pool = EntryPool::new();
        pool.recycle(Vec::new());
        assert_eq!(pool.parked(), 0);
    }
}
