//! The churn-trace representation.
//!
//! A [`ChurnTrace`] is a dense matrix: one row per node, one column per
//! time slot (the Overnet trace uses 20-minute slots over 7 days — 504
//! slots). Everything the simulation needs from a trace reduces to three
//! questions this type answers: *is node i online at time t*, *who is
//! online at time t*, and *what is node i's long-term availability*.
//!
//! # Layout
//!
//! The matrix is one bit per (node, slot), stored **slot-major**: slot
//! `s` is a column of `W = ⌈N/64⌉` words, `bits[s·W .. (s+1)·W]`, and
//! node `i` is bit `i % 64` of the column's word `i / 64`. Bits past
//! node `N − 1` in a column's last word are zero. A host therefore costs
//! one bit per slot (9 bytes over a one-day, 72-slot trace) where a
//! `bool` per slot cost 72, and every per-slot question reads one
//! contiguous column: who is online is its set bits, how many is its
//! population count, and who joined or left at a slot boundary is the
//! XOR of two adjacent columns ([`ChurnTrace::changed_in`]).
//!
//! The generators fill the matrix 64 nodes at a time, one word of each
//! column per block of hosts, each word written once; the text reader
//! and [`ChurnTrace::from_rows`] fill it one node row at a time. Neither
//! keeps a row-of-`bool`s matrix in between.

use std::iter::StepBy;
use std::ops::Range;
use std::slice::IterMut;

use avmem_sim::{SimDuration, SimTime};
use avmem_util::{Availability, NodeId};
use serde::{Deserialize, Serialize};

/// A fixed-population churn trace over uniform time slots.
///
/// Nodes are identified by dense indices `0..num_nodes`, with
/// [`NodeId`]s equal to the index; this matches the fixed-population
/// Overnet methodology (hosts are tracked even while offline).
///
/// # Examples
///
/// ```
/// use avmem_sim::{SimDuration, SimTime};
/// use avmem_trace::ChurnTrace;
///
/// // Two nodes over three 20-minute slots: node 0 always up, node 1 up
/// // only in the middle slot.
/// let trace = ChurnTrace::from_rows(
///     SimDuration::from_mins(20),
///     vec![vec![true, true, true], vec![false, true, false]],
/// );
/// assert!(trace.is_online(0, SimTime::ZERO));
/// assert!(!trace.is_online(1, SimTime::ZERO));
/// assert!(trace.is_online(1, SimTime::ZERO + SimDuration::from_mins(25)));
/// assert_eq!(trace.long_term_availability(0).value(), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnTrace {
    slot: SimDuration,
    slots: usize,
    /// Words per slot column, `⌈N/64⌉`.
    words: usize,
    /// Slot-major online bits; see the module docs.
    bits: Vec<u64>,
    /// Per node: fraction of all slots online. The matrix is immutable,
    /// so the column is computed once; the operations layer reads it per
    /// node per operation.
    long_term: Vec<Availability>,
}

impl ChurnTrace {
    /// Builds a trace from per-node slot rows.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths, if there are no rows, if
    /// rows are empty, or if the slot duration is zero.
    pub fn from_rows(slot: SimDuration, rows: Vec<Vec<bool>>) -> Self {
        assert!(!rows.is_empty(), "trace needs at least one node");
        let mut builder = TraceBuilder::new(slot, rows[0].len(), rows.len());
        for row in &rows {
            builder.push_row(row);
        }
        builder.finish()
    }

    /// Number of nodes (the fixed population size).
    pub fn num_nodes(&self) -> usize {
        self.long_term.len()
    }

    /// Number of time slots.
    pub fn num_slots(&self) -> usize {
        self.slots
    }

    /// Width of one slot.
    pub fn slot_duration(&self) -> SimDuration {
        self.slot
    }

    /// Total trace duration.
    pub fn duration(&self) -> SimDuration {
        self.slot.mul(self.slots as u64)
    }

    /// The [`NodeId`] of node index `i`.
    pub fn node_id(&self, i: usize) -> NodeId {
        NodeId::new(i as u64)
    }

    /// The node index of a [`NodeId`] produced by this trace.
    ///
    /// # Panics
    ///
    /// Panics if the id is outside the population.
    pub fn index_of(&self, id: NodeId) -> usize {
        let idx = id.raw() as usize;
        assert!(idx < self.num_nodes(), "unknown node id {id}");
        idx
    }

    /// All node ids in the population.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes()).map(|i| NodeId::new(i as u64))
    }

    /// Maps a time to its slot index; times past the end clamp to the last
    /// slot (the trace's final state persists).
    pub fn slot_at(&self, time: SimTime) -> usize {
        let idx = (time.as_millis() / self.slot.as_millis()) as usize;
        idx.min(self.slots - 1)
    }

    /// Slot `s`'s column: bit `i % 64` of word `i / 64` is node `i`.
    pub(crate) fn column(&self, s: usize) -> &[u64] {
        &self.bits[s * self.words..(s + 1) * self.words]
    }

    /// Bit `(i, s)` of the matrix, for indices already checked.
    #[inline]
    fn bit(&self, i: usize, s: usize) -> bool {
        self.bits[s * self.words + i / 64] >> (i % 64) & 1 != 0
    }

    /// Slots of `range` in which node `i` is online.
    fn up_slots(&self, i: usize, range: Range<usize>) -> usize {
        range.filter(|&s| self.bit(i, s)).count()
    }

    /// Whether node `i` is online in the slot containing `time`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn is_online(&self, i: usize, time: SimTime) -> bool {
        assert!(i < self.num_nodes(), "node index {i} out of range");
        self.bit(i, self.slot_at(time))
    }

    /// Whether node `i` is online in slot `s`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[inline]
    pub fn is_online_in_slot(&self, i: usize, s: usize) -> bool {
        assert!(i < self.num_nodes(), "node index {i} out of range");
        assert!(s < self.slots, "slot index {s} out of range");
        self.bit(i, s)
    }

    /// Indices of all nodes online in the slot containing `time`.
    pub fn online_at(&self, time: SimTime) -> Vec<usize> {
        ones(self.column(self.slot_at(time)).iter().copied()).collect()
    }

    /// Number of nodes online in the slot containing `time`.
    pub fn online_count_at(&self, time: SimTime) -> usize {
        popcount(self.column(self.slot_at(time)))
    }

    /// The nodes whose state in slot `s` differs from slot `s − 1`,
    /// ascending — the joins and leaves the boundary into `s` brings, read
    /// as the XOR of the two columns, so nodes that did not move cost
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < s < num_slots()`.
    pub fn changed_in(&self, s: usize) -> impl Iterator<Item = usize> + '_ {
        assert!(
            (1..self.slots).contains(&s),
            "slot index {s} has no predecessor in 1..{}",
            self.slots
        );
        let (before, after) = (self.column(s - 1), self.column(s));
        ones(before.iter().zip(after).map(|(a, b)| a ^ b))
    }

    /// Node `i`'s long-term availability: fraction of all slots online.
    ///
    /// This is the ground-truth `av(x)` that the availability monitoring
    /// service estimates. An array read: the column is computed when the
    /// trace is built.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn long_term_availability(&self, i: usize) -> Availability {
        assert!(i < self.long_term.len(), "node index {i} out of range");
        self.long_term[i]
    }

    /// Node `i`'s availability measured over slots `[0, slot_at(time)]`
    /// inclusive — the "raw availability so far" a monitor could have
    /// observed by `time`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn availability_up_to(&self, i: usize, time: SimTime) -> Availability {
        assert!(i < self.num_nodes(), "node index {i} out of range");
        let end = self.slot_at(time) + 1;
        let up = self.up_slots(i, 0..end);
        Availability::saturating(up as f64 / end as f64)
    }

    /// Node `i`'s availability over the slots intersecting `[from, to]` —
    /// the "current behaviour" ground truth for drifting traces, where
    /// the whole-trace long-term availability is stale by construction.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `from > to`.
    pub fn availability_between(&self, i: usize, from: SimTime, to: SimTime) -> Availability {
        assert!(i < self.num_nodes(), "node index {i} out of range");
        assert!(from <= to, "window must be ordered");
        let slots = self.slot_at(from)..self.slot_at(to) + 1;
        let len = slots.len();
        let up = self.up_slots(i, slots);
        Availability::saturating(up as f64 / len as f64)
    }

    /// Summary statistics of the trace.
    pub fn stats(&self) -> ChurnStats {
        let n = self.num_nodes();
        let mut sum_av = 0.0;
        for i in 0..n {
            sum_av += self.long_term_availability(i).value();
        }
        let transitions = (1..self.slots)
            .map(|s| self.changed_in(s).count() as u64)
            .sum();
        let mut min_online = usize::MAX;
        let mut max_online = 0usize;
        let mut sum_online = 0usize;
        for s in 0..self.slots {
            let count = popcount(self.column(s));
            min_online = min_online.min(count);
            max_online = max_online.max(count);
            sum_online += count;
        }
        ChurnStats {
            num_nodes: n,
            num_slots: self.slots,
            mean_availability: sum_av / n as f64,
            transitions,
            min_online,
            max_online,
            mean_online: sum_online as f64 / self.slots as f64,
        }
    }
}

/// Set bits in `words`.
fn popcount(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// The positions of the set bits of `words`, ascending: bit `i % 64` of
/// the `i / 64`-th word is position `i`.
pub(crate) fn ones(words: impl Iterator<Item = u64>) -> impl Iterator<Item = usize> {
    words.enumerate().flat_map(|(w, mut word)| {
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                w * 64 + bit
            })
        })
    })
}

/// Fills a [`ChurnTrace`] straight into the slot-major bits: a block of
/// up to 64 node rows at a time (the generators) or one row at a time
/// (the text reader, [`ChurnTrace::from_rows`]).
///
/// The number of rows need not be known up front. Columns start
/// `⌈expected/64⌉` words wide and double whenever a row would not fit;
/// [`TraceBuilder::finish`] narrows them to `⌈N/64⌉`. A caller that knows
/// `N` therefore writes every bit once, and one that does not (a file
/// whose header is only a claim) allocates for the rows that arrived.
#[derive(Debug)]
pub(crate) struct TraceBuilder {
    slot: SimDuration,
    slots: usize,
    /// Words per column allocated: room for `64 · stride` rows.
    stride: usize,
    bits: Vec<u64>,
    long_term: Vec<Availability>,
}

impl TraceBuilder {
    /// A builder for rows of `slots` slots, sized for `expected` rows.
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0` or the slot duration is zero.
    pub(crate) fn new(slot: SimDuration, slots: usize, expected: usize) -> Self {
        assert!(slot > SimDuration::ZERO, "slot duration must be positive");
        assert!(slots > 0, "trace needs at least one slot");
        let stride = expected.div_ceil(64);
        TraceBuilder {
            slot,
            slots,
            stride,
            bits: vec![0; slots * stride],
            long_term: Vec::with_capacity(expected),
        }
    }

    /// Appends the next node's row.
    ///
    /// # Panics
    ///
    /// Panics if the row does not hold exactly `slots` slots.
    pub(crate) fn push_row(&mut self, row: &[bool]) {
        assert!(
            row.len() == self.slots,
            "all rows must have the same number of slots"
        );
        let i = self.long_term.len();
        let shift = i % 64;
        let mut up = 0;
        for (word, &bit) in self.next_words().zip(row) {
            *word |= u64::from(bit) << shift;
            up += u32::from(bit);
        }
        self.push_long_term(up);
    }

    /// Appends the next block of `rows` rows (1 to 64) after a whole
    /// number of blocks. `fill` gets the block's word of every column, in
    /// slot order, to write — bit `l` is the block's row `l`, and the bits
    /// from `rows` on stay clear — and returns each row's online slots.
    ///
    /// # Panics
    ///
    /// Panics unless the rows so far are a whole number of blocks and
    /// `rows` is in `1..=64`.
    pub(crate) fn push_block(
        &mut self,
        rows: usize,
        fill: impl FnOnce(StepBy<IterMut<'_, u64>>) -> [u32; 64],
    ) {
        assert!(
            self.long_term.len().is_multiple_of(64) && (1..=64).contains(&rows),
            "a block of {rows} rows after {} rows",
            self.long_term.len()
        );
        let online = fill(self.next_words());
        let i = self.long_term.len();
        debug_assert!(
            rows == 64 || self.bits[i / 64..].iter().step_by(self.stride).all(|&w| w >> rows == 0),
            "bits past the block's rows"
        );
        for &up in &online[..rows] {
            self.push_long_term(up);
        }
    }

    /// Word `i / 64` of every column, `stride` words apart, for the next
    /// row `i`; widens the columns first when it would not fit.
    fn next_words(&mut self) -> StepBy<IterMut<'_, u64>> {
        let i = self.long_term.len();
        if i == 64 * self.stride {
            self.restride((2 * self.stride).max(1));
        }
        self.bits[i / 64..].iter_mut().step_by(self.stride)
    }

    /// Records the next row's long-term availability from its `up` slots.
    fn push_long_term(&mut self, up: u32) {
        self.long_term
            .push(Availability::saturating(f64::from(up) / self.slots as f64));
    }

    /// Re-lays the columns `stride` words wide, keeping every row that
    /// fits.
    fn restride(&mut self, stride: usize) {
        let keep = self.stride.min(stride);
        let mut bits = vec![0; self.slots * stride];
        for (to, from) in bits
            .chunks_exact_mut(stride)
            .zip(self.bits.chunks_exact(self.stride.max(1)))
        {
            to[..keep].copy_from_slice(&from[..keep]);
        }
        self.bits = bits;
        self.stride = stride;
    }

    /// The trace of the rows pushed so far.
    ///
    /// # Panics
    ///
    /// Panics if no row was pushed.
    pub(crate) fn finish(mut self) -> ChurnTrace {
        assert!(!self.long_term.is_empty(), "trace needs at least one node");
        let words = self.long_term.len().div_ceil(64);
        if words != self.stride {
            self.restride(words);
        }
        ChurnTrace {
            slot: self.slot,
            slots: self.slots,
            words,
            bits: self.bits,
            long_term: self.long_term,
        }
    }
}

/// Aggregate statistics over a [`ChurnTrace`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnStats {
    /// Population size.
    pub num_nodes: usize,
    /// Number of slots.
    pub num_slots: usize,
    /// Mean long-term availability across the population.
    pub mean_availability: f64,
    /// Total number of online/offline transitions across all nodes.
    pub transitions: u64,
    /// Fewest nodes online in any slot.
    pub min_online: usize,
    /// Most nodes online in any slot.
    pub max_online: usize,
    /// Average number of nodes online per slot.
    pub mean_online: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> ChurnTrace {
        ChurnTrace::from_rows(
            SimDuration::from_mins(20),
            vec![
                vec![true, true, true, true],
                vec![false, true, true, false],
                vec![false, false, false, false],
            ],
        )
    }

    #[test]
    fn geometry_accessors() {
        let t = toy();
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.num_slots(), 4);
        assert_eq!(t.duration(), SimDuration::from_mins(80));
    }

    #[test]
    fn slot_mapping_and_clamping() {
        let t = toy();
        assert_eq!(t.slot_at(SimTime::ZERO), 0);
        assert_eq!(t.slot_at(SimTime::from_millis(SimDuration::from_mins(20).as_millis())), 1);
        // Past the end: clamps to final slot.
        assert_eq!(t.slot_at(SimTime::from_millis(SimDuration::from_hours(100).as_millis())), 3);
    }

    #[test]
    fn online_queries() {
        let t = toy();
        let mid = SimTime::ZERO + SimDuration::from_mins(30);
        assert!(t.is_online(0, mid));
        assert!(t.is_online(1, mid));
        assert!(!t.is_online(2, mid));
        assert_eq!(t.online_at(mid), vec![0, 1]);
        assert_eq!(t.online_count_at(mid), 2);
    }

    #[test]
    fn long_term_availability_is_slot_fraction() {
        let t = toy();
        assert_eq!(t.long_term_availability(0).value(), 1.0);
        assert_eq!(t.long_term_availability(1).value(), 0.5);
        assert_eq!(t.long_term_availability(2).value(), 0.0);
    }

    #[test]
    fn availability_up_to_uses_prefix() {
        let t = toy();
        let after_two_slots = SimTime::ZERO + SimDuration::from_mins(25);
        assert_eq!(t.availability_up_to(1, after_two_slots).value(), 0.5);
        let end = SimTime::ZERO + SimDuration::from_mins(79);
        assert_eq!(t.availability_up_to(1, end).value(), 0.5);
    }

    #[test]
    fn availability_between_uses_window() {
        let t = toy();
        // Node 1 row: [false, true, true, false].
        let slot = SimDuration::from_mins(20).as_millis();
        let av = t.availability_between(
            1,
            SimTime::from_millis(slot),
            SimTime::from_millis(2 * slot),
        );
        assert_eq!(av.value(), 1.0); // slots 1..=2 both online
        let whole = t.availability_between(1, SimTime::ZERO, SimTime::from_millis(4 * slot));
        assert_eq!(whole.value(), 0.5);
    }

    #[test]
    #[should_panic(expected = "ordered")]
    fn availability_between_rejects_inverted_window() {
        let t = toy();
        let _ = t.availability_between(0, SimTime::from_millis(100), SimTime::ZERO);
    }

    #[test]
    fn stats_summarize_population() {
        let s = toy().stats();
        assert_eq!(s.num_nodes, 3);
        assert_eq!(s.num_slots, 4);
        assert!((s.mean_availability - 0.5).abs() < 1e-12);
        assert_eq!(s.transitions, 2); // node 1: off->on, on->off
        assert_eq!(s.min_online, 1);
        assert_eq!(s.max_online, 2);
    }

    #[test]
    #[should_panic(expected = "same number of slots")]
    fn inconsistent_rows_panic() {
        let _ = ChurnTrace::from_rows(
            SimDuration::from_mins(20),
            vec![vec![true], vec![true, false]],
        );
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_trace_panics() {
        let _ = ChurnTrace::from_rows(SimDuration::from_mins(20), vec![]);
    }

    #[test]
    fn node_id_round_trip() {
        let t = toy();
        for i in 0..t.num_nodes() {
            assert_eq!(t.index_of(t.node_id(i)), i);
        }
    }
}
