//! The dissemination kernel's event queue: a calendar of one-millisecond
//! buckets.
//!
//! The kernel orders events by `(instant, order pushed)`, instants are
//! whole milliseconds, and nothing is ever pushed before the instant
//! being drained. A ring of [`RING`] FIFO buckets, one per millisecond
//! from that instant on, therefore pops in exactly the order a binary
//! heap keyed `(instant, push number)` would, at `O(1)` per push and pop:
//! a bucket holds its events in the order they were pushed, and a `u128`
//! occupancy word finds the next non-empty one. A push into the bucket
//! being drained (zero latency) appends to its tail like any other.
//!
//! The buckets are linked lists threaded through one pool of cells, and
//! a popped cell is the next one reused: the pool grows to the most
//! events ever queued at once — what the heap it replaces held — however
//! they spread over the ring, and a warm queue allocates nothing.
//!
//! An event further ahead than the ring (a 1 s gossip tick, the tail of
//! a capped exponential, an instant saturated to [`SimTime::MAX`]) waits
//! in a binary heap — the queue's overflow, ordered `(instant, push
//! number)` — and is moved into its bucket when the drained instant
//! comes within [`RING`] milliseconds of it, *before* that instant's
//! events run. Every event pushed straight into that bucket is pushed
//! later than that, so the moved ones (the heap hands them over in push
//! order) sit ahead of them: each bucket stays in push order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use avmem_sim::SimTime;

/// Buckets in the ring, one per millisecond. The paper's hops take
/// 20–80 ms (§4.2), so every copy of a flood lands inside the ring and
/// only gossip ticks (1 s apart) and heavy-tailed sensitivity models
/// reach the overflow. 128 is the width of the occupancy word.
const RING: u64 = u128::BITS as u64;

/// "No cell": the end of a bucket's list or of the free list.
const NIL: u32 = u32::MAX;

/// One queued event and the cell behind it in its bucket (or, once
/// popped, in the free list).
#[derive(Debug, Clone, Copy)]
struct Cell<T> {
    item: T,
    next: u32,
}

/// A priority queue of `(instant, item)` popping by instant, then by
/// push order, for pushes that never precede the last popped instant.
#[derive(Debug)]
pub(crate) struct CalendarQueue<T> {
    cells: Vec<Cell<T>>,
    /// Head of the list of popped cells, most recent first.
    free: u32,
    /// First and last cell of bucket `t % RING`, which holds the events
    /// of instant `t` for the `RING` instants from `base` on, in push
    /// order. Meaningful while the bucket's `occupied` bit is set.
    heads: [u32; RING as usize],
    tails: [u32; RING as usize],
    /// Bit `t % RING` is set while that bucket is non-empty.
    occupied: u128,
    /// The instant being drained (milliseconds): no event is earlier.
    base: u64,
    /// Events at `base + RING` or later, as `(instant, seq, item)`: `seq`
    /// rises with every overflow push, so events of one instant leave
    /// the heap in the order they entered it (and `item` never decides).
    overflow: BinaryHeap<Reverse<(u64, u64, T)>>,
    next_far_seq: u64,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        CalendarQueue {
            cells: Vec::new(),
            free: NIL,
            heads: [NIL; RING as usize],
            tails: [NIL; RING as usize],
            occupied: 0,
            base: 0,
            overflow: BinaryHeap::new(),
            next_far_seq: 0,
        }
    }
}

impl<T: Copy + Ord> CalendarQueue<T> {
    /// Empties the queue and rewinds it to instant zero, keeping its
    /// capacity.
    pub fn clear(&mut self) {
        self.cells.clear();
        self.free = NIL;
        self.occupied = 0;
        self.base = 0;
        self.overflow.clear();
    }

    /// Queues `item` for `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the last popped instant.
    #[inline]
    pub fn push(&mut self, at: SimTime, item: T) {
        let at = at.as_millis();
        let ahead = at
            .checked_sub(self.base)
            .expect("an event is never queued for the past");
        if ahead < RING {
            self.append(at % RING, item);
        } else {
            let seq = self.next_far_seq;
            self.next_far_seq += 1;
            self.overflow.push(Reverse((at, seq, item)));
        }
    }

    /// Appends `item` to bucket `slot`.
    #[inline]
    fn append(&mut self, slot: u64, item: T) {
        let cell = Cell { item, next: NIL };
        let index = if self.free != NIL {
            let reused = self.free;
            self.free = self.cells[reused as usize].next;
            self.cells[reused as usize] = cell;
            reused
        } else {
            assert!(
                self.cells.len() < NIL as usize,
                "too many events queued at once"
            );
            self.cells.push(cell);
            (self.cells.len() - 1) as u32
        };
        if self.occupied >> slot & 1 != 0 {
            let tail = self.tails[slot as usize];
            self.cells[tail as usize].next = index;
        } else {
            self.heads[slot as usize] = index;
            self.occupied |= 1 << slot;
        }
        self.tails[slot as usize] = index;
    }

    /// The earliest event; among those of one instant, the first pushed.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let mut slot = self.base % RING;
        if self.occupied >> slot & 1 == 0 {
            self.base = if self.occupied != 0 {
                // Rotated, bit `i` is instant `base + i`; every ring event
                // precedes every overflow event.
                let ahead = self.occupied.rotate_right(slot as u32).trailing_zeros();
                self.base + u64::from(ahead)
            } else {
                let Reverse((earliest, _, _)) = *self.overflow.peek()?;
                earliest
            };
            self.admit_overflow();
            slot = self.base % RING;
        }
        let index = self.heads[slot as usize];
        let Cell { item, next } = self.cells[index as usize];
        if next == NIL {
            self.occupied &= !(1 << slot);
        } else {
            self.heads[slot as usize] = next;
        }
        self.cells[index as usize].next = self.free;
        self.free = index;
        Some((SimTime::from_millis(self.base), item))
    }

    /// Moves what the ring now covers out of the overflow, before any
    /// event of the new `base` runs (and so before anything can be pushed
    /// straight into the buckets this fills).
    fn admit_overflow(&mut self) {
        let horizon = self.base.saturating_add(RING - 1);
        while let Some(&Reverse((at, _, item))) = self.overflow.peek() {
            if at > horizon {
                break;
            }
            self.overflow.pop();
            self.append(at % RING, item);
        }
    }
}

#[cfg(test)]
mod tests {
    use avmem_util::{Rng, SplitMix64};
    use proptest::prelude::*;

    use super::*;

    /// The calendar beside the heap it replaces, fed the same pushes; the
    /// item is the push number, which is also the heap's `seq`.
    #[derive(Default)]
    struct Pair {
        calendar: CalendarQueue<u64>,
        heap: BinaryHeap<Reverse<(u64, u64)>>,
        pushed: u64,
        /// The last popped instant: the kernel pushes at or after it.
        now: u64,
        /// The most events queued at once.
        peak: usize,
    }

    impl Pair {
        fn push_at(&mut self, at: u64) {
            self.calendar.push(SimTime::from_millis(at), self.pushed);
            self.heap.push(Reverse((at, self.pushed)));
            self.pushed += 1;
            self.peak = self.peak.max(self.heap.len());
        }

        /// Pushes `delta` ms after the last popped instant (saturating,
        /// as `SimTime + SimDuration` does).
        fn push(&mut self, delta: u64) {
            self.push_at(self.now.saturating_add(delta));
        }

        /// Pops both and checks they agree; `false` once both are empty.
        fn pop(&mut self) -> bool {
            let expected = self
                .heap
                .pop()
                .map(|Reverse((at, seq))| (SimTime::from_millis(at), seq));
            assert_eq!(
                self.calendar.pop(),
                expected,
                "after {} pushes",
                self.pushed
            );
            if let Some((at, _)) = expected {
                self.now = at.as_millis();
            }
            assert!(
                self.calendar.cells.len() <= self.peak,
                "popped cells are reused"
            );
            expected.is_some()
        }

        fn drain(&mut self) {
            while self.pop() {}
        }
    }

    #[test]
    fn pushes_into_the_draining_bucket_pop_after_what_it_holds() {
        let mut q = Pair::default();
        for _ in 0..3 {
            q.push(5);
        }
        assert!(q.pop());
        // Zero latency: same instant as the event being handled.
        q.push(0);
        q.push(0);
        assert!(q.pop());
        q.push(0);
        q.drain();
        // ... and into a bucket drained empty at the same instant.
        q.push(0);
        q.push(0);
        q.drain();
        assert_eq!(q.now, 5);
    }

    #[test]
    fn the_ring_edge_sends_127_in_and_128_out() {
        for start in [0, 1, 127, 128, 129, 1000, u64::MAX - 300] {
            let mut q = Pair::default();
            q.push_at(start);
            assert!(q.pop());
            for delta in [129, 127, 128, 127, 129, 128, 0, 1] {
                q.push(delta);
            }
            assert_eq!(
                q.calendar.overflow.len(),
                4,
                "128 and 129 ms are beyond the ring"
            );
            q.drain();
            assert_eq!(q.now, start + 129);
        }
    }

    #[test]
    fn overflow_comes_back_ahead_of_later_direct_pushes_to_the_same_instant() {
        let mut q = Pair::default();
        q.push_at(0);
        q.push_at(100);
        q.push_at(150);
        assert!(q.pop()); // now 0
                          // A burst for 300 and 301, all overflow from here.
        for i in 0..20 {
            q.push(300 + i % 2);
        }
        assert!(q.pop()); // now 100: the burst still out of reach
        q.push(200); // 300 again, behind the burst
        assert!(q.pop());
        assert_eq!(q.now, 150);
        q.push(150); // and again
        q.push_at(200);
        assert!(q.pop()); // now 200: 300 and 301 are within the ring
        assert_eq!(q.now, 200);
        assert!(q.calendar.overflow.is_empty());
        // Direct pushes to the instants the burst came back to.
        for i in 0..6 {
            q.push(100 + i % 2);
        }
        q.drain();
        assert_eq!(q.now, 301);
    }

    #[test]
    fn a_jump_past_an_empty_ring_lands_on_the_overflow_minimum() {
        let mut q = Pair::default();
        q.push_at(70_000);
        q.push_at(1_000);
        q.push_at(1_127);
        q.push_at(1_128);
        q.push_at(70_000);
        assert!(q.pop());
        assert_eq!(q.now, 1_000);
        q.push(127);
        q.push(128);
        q.drain();
        assert_eq!(q.now, 70_000);
    }

    #[test]
    fn the_saturated_instant_is_an_instant_like_any_other() {
        let mut q = Pair::default();
        q.push_at(u64::MAX);
        q.push_at(40);
        q.push_at(u64::MAX);
        assert!(q.pop());
        q.push(u64::MAX); // saturates
        q.push(u64::MAX - 40); // exactly MAX
        q.push(u64::MAX - 41); // MAX - 1
        assert!(q.pop());
        assert_eq!(q.now, u64::MAX - 1);
        q.push(1);
        q.push(7); // saturates
        q.drain();
        assert_eq!(q.now, u64::MAX);
        // At the saturated instant every push lands in the draining bucket.
        q.push(0);
        q.push(1_000);
        q.drain();
    }

    #[test]
    fn clear_rewinds_a_queue_left_mid_run() {
        let mut q = Pair::default();
        for at in [500, 510, 700, 9_000] {
            q.push_at(at);
        }
        assert!(q.pop());
        q.calendar.clear();
        q.heap.clear();
        q.now = 0;
        assert_eq!(q.calendar.pop(), None);
        for at in [3, 131, 3, 500] {
            q.push_at(at);
        }
        q.drain();
    }

    proptest! {
        /// Random runs under the kernel's discipline — push at or after
        /// the last popped instant — with deltas drawn around every edge:
        /// zero, inside the ring, 127 / 128 / 129, a gossip period, far,
        /// saturating.
        #[test]
        fn pops_in_heap_order(seed in any::<u64>()) {
            let mut r = SplitMix64::new(seed);
            let mut q = Pair::default();
            q.push_at(r.index(400) as u64);
            let span = [1, 3, 130, 300][r.index(4)];
            for _ in 0..400 {
                if r.chance(0.45) && !q.pop() {
                    break;
                }
                for _ in 0..r.index(4) {
                    let delta = match r.index(12) {
                        0 => 0,
                        1 => 127,
                        2 => 128,
                        3 => 129,
                        4 => 1000,
                        5 => u64::MAX,
                        6 => r.index(100_000) as u64,
                        _ => r.index(span) as u64,
                    };
                    q.push(delta);
                }
            }
            q.drain();
        }
    }
}
