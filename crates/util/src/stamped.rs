//! A dense `id → u32` table that empties in O(1).
//!
//! Hot loops that ask "is this id in my small set, and where?" — a view
//! merge probing √N entries, a discovery pass filtering its candidates —
//! want one load per probe and no clearing cost between uses. A
//! [`StampedTable`] is a `Vec<u64>` indexed by id whose slots hold
//! `generation << 32 | value`: a slot counts only while its stamp equals
//! the table's current generation, so [`StampedTable::begin`] empties the
//! whole table by bumping one counter. The table grows to the largest id
//! written and never shrinks — 8 bytes per id of the population, owned
//! per shard and reused for every node the shard serves.

/// See the module docs.
///
/// # Examples
///
/// ```
/// use avmem_util::StampedTable;
///
/// let mut table = StampedTable::new();
/// table.set(7, 3);
/// assert_eq!(table.get(7), Some(3));
/// assert_eq!(table.get(1_000_000), None); // beyond the table: absent
/// table.begin();
/// assert_eq!(table.get(7), None); // emptied without touching the slot
/// ```
#[derive(Debug, Clone)]
pub struct StampedTable {
    slots: Vec<u64>,
    /// Never 0: zeroed (fresh, wiped or removed) slots are never current.
    generation: u32,
}

impl Default for StampedTable {
    fn default() -> Self {
        StampedTable::new()
    }
}

impl StampedTable {
    /// An empty table holding no memory.
    pub fn new() -> Self {
        StampedTable {
            slots: Vec::new(),
            generation: 1,
        }
    }

    /// Empties the table: every id reads as absent again.
    pub fn begin(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // The counter wrapped: a slot last written 2³² generations
            // ago would pass for current. Wipe once, restart at 1.
            self.slots.fill(0);
            self.generation = 1;
        }
    }

    /// The value stored for `id` since the last [`StampedTable::begin`].
    #[inline]
    pub fn get(&self, id: u32) -> Option<u32> {
        match self.slots.get(id as usize) {
            Some(&slot) if (slot >> 32) as u32 == self.generation => Some(slot as u32),
            _ => None,
        }
    }

    /// Stores `value` for `id`, growing the table to hold `id`.
    #[inline]
    pub fn set(&mut self, id: u32, value: u32) {
        let slot = u64::from(self.generation) << 32 | u64::from(value);
        match self.slots.get_mut(id as usize) {
            Some(place) => *place = slot,
            None => {
                self.slots.resize(id as usize + 1, 0);
                self.slots[id as usize] = slot;
            }
        }
    }

    /// Makes `id` absent again.
    #[inline]
    pub fn remove(&mut self, id: u32) {
        if let Some(place) = self.slots.get_mut(id as usize) {
            *place = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_remove_round_trip() {
        let mut table = StampedTable::new();
        assert_eq!(table.get(0), None);
        table.set(0, 9);
        table.set(5, u32::MAX);
        assert_eq!(table.get(0), Some(9));
        assert_eq!(table.get(5), Some(u32::MAX));
        assert_eq!(table.get(3), None, "grown-over slots are absent");
        table.set(0, 4);
        assert_eq!(table.get(0), Some(4), "a second set overwrites");
        table.remove(0);
        assert_eq!(table.get(0), None);
        table.remove(1_000); // beyond the table: nothing to remove
        assert_eq!(table.get(5), Some(u32::MAX));
    }

    #[test]
    fn begin_empties_without_shrinking() {
        let mut table = StampedTable::new();
        table.set(100, 1);
        table.begin();
        assert_eq!(table.get(100), None);
        table.set(100, 2);
        assert_eq!(table.get(100), Some(2));
    }

    #[test]
    fn ids_beyond_the_table_grow_it() {
        let mut table = StampedTable::new();
        table.set(3, 30);
        assert_eq!(table.get(u32::MAX), None);
        table.set(70_000, 7);
        assert_eq!(table.get(3), Some(30));
        assert_eq!(table.get(70_000), Some(7));
        assert_eq!(table.get(69_999), None);
    }

    #[test]
    fn generation_wrap_does_not_revive_stale_slots() {
        let mut table = StampedTable::new();
        table.set(2, 22); // written at generation 1
        table.generation = u32::MAX;
        table.set(4, 44);
        table.begin(); // wraps: wiped, back at generation 1
        assert_eq!(table.generation, 1);
        assert_eq!(
            table.get(2),
            None,
            "a generation-1 slot from before the wrap"
        );
        assert_eq!(table.get(4), None);
        table.set(4, 45);
        assert_eq!(table.get(4), Some(45));
    }
}
