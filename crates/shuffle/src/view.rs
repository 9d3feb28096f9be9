//! The partial view data structure.
//!
//! A [`View`] is a bounded set of [`ViewEntry`]s (node id + age) with the
//! merge semantics CYCLON needs: no duplicates (keep the younger entry),
//! bounded capacity with a controllable replacement order, and age-based
//! selection of the exchange target.
//!
//! # Storage
//!
//! Entries are stored struct-of-arrays — a `u32` id column and a `u16`
//! age column — rather than as `Vec<ViewEntry>`: 6 bytes per slot instead
//! of 16. Both columns live in **one allocation** of `u32` words, the ids
//! first and the ages packed two to a word behind them, behind a 24-byte
//! header (the allocation, the length, the capacity) where two `Vec`s
//! took 56: every host keeps one view, so the header is paid N times. The
//! room is derived from the allocation's length. The allocation grows
//! lazily instead of reserving `capacity` slots up front — room for 4
//! entries, then doubling, but never past `capacity`, so a full view
//! holds no slack slots; growing reallocates and moves the ages up behind
//! the longer id column. At 10⁶ hosts with √N-sized views the view is
//! the dominant term of the resident set. The id column holds
//! **index-space ids** — views are the harness's per-node neighbor
//! slots, where ids are dense indexes `< N`; inserting an id above
//! `u32::MAX` panics.
//!
//! An age lives in the low 15 bits of its slot, and ages saturate at
//! [`View::AGE`] = 2¹⁵ − 1 = 32 767 periods: every age that enters the
//! view or grows in it is clamped there, and [`ViewEntry::age`] stays a
//! `u32`. The ceiling is a documented limit, not one a run approaches:
//! every period a node ships its oldest entry away (the exchange target
//! leaves the view) and replaces the entries it sent, so ages stay near
//! the view's turnover — at most 42 periods across the benchmark
//! workloads and the paper-scale builtins, and below 1 000 over a
//! simulated Overnet day (pinned by the harness's tests). The top bit
//! is the slot's **mark**, one bit of memory the view's owner may attach
//! to an entry ([`View::mark`], [`View::is_marked`],
//! [`View::clear_marks`]; the harness keeps its no-insert verdicts
//! there, at no byte beyond the view). A mark lives while its id stays in
//! its slot: a duplicate that refreshes the age keeps it, and removal
//! moves it with the slot, but a pushed or replacing entry starts
//! unmarked. Every entry reader masks it off — marks never ship, never
//! steer the protocol and never count in [`View`] equality (a serialized
//! `View` does carry them).
//!
//! # Lookups
//!
//! The columns are unordered, so `contains`/`insert`/`remove` scan the id
//! column. [`View::merge`] — the one operation that looks up ℓ ids per
//! call, twice per exchange — does not: it indexes the view in a caller-
//! provided [`StampedTable`] (the per-shard table of an
//! [`EntryPool`](crate::EntryPool)) and probes that. The view itself
//! stores no index: at √N entries × N views it would cost more memory
//! than the id columns.
//!
//! The two other per-exchange reads work on positions, not entries. The
//! subset an exchange ships is sampled as positions of the view
//! ([`Rng::sample_positions`]) and gathered from the columns afterwards;
//! `View::random_subset`, which moves entries through a reservoir, is the
//! reference it is tested against. The exchange target — the oldest
//! entry — is found with its position, which the proposal carries so
//! that applying it removes the entry where it was found instead of
//! scanning for it again.

use avmem_util::{NodeId, Rng, StampedTable};
use serde::{Deserialize, Serialize};

/// One entry of a partial view: a node and the entry's age in protocol
/// periods (freshness indicator — *not* the node's uptime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ViewEntry {
    /// The referenced node.
    pub id: NodeId,
    /// Age in protocol periods since this entry was created.
    pub age: u32,
}

impl ViewEntry {
    /// Creates a fresh (age 0) entry.
    pub fn fresh(id: NodeId) -> Self {
        ViewEntry { id, age: 0 }
    }
}

/// The mark bit of an age slot.
const MARK: u16 = 1 << 15;

/// The age bits of an age slot.
const AGE_BITS: u16 = MARK - 1;

#[inline]
fn packed(id: NodeId) -> u32 {
    u32::try_from(id.raw()).expect("view ids are index-space (must fit u32)")
}

/// An age as a slot stores it: clamped to [`View::AGE`], unmarked.
#[inline]
fn clamped(age: u32) -> u16 {
    age.min(View::AGE) as u16
}

/// Words of an allocation with room for `room` entries: one per id, one
/// per two ages.
#[inline]
fn words_for(room: usize) -> usize {
    room + room.div_ceil(2)
}

// The casts to halves below rest on a word being exactly two halves.
const _: () = assert!(size_of::<u32>() == 2 * size_of::<u16>());

/// `words` as the `u16` halves the age column lives in.
#[inline]
fn age_halves(words: &[u32]) -> &[u16] {
    debug_assert!(words.as_ptr().cast::<u16>().is_aligned());
    // SAFETY: `words` is `2 * words.len()` initialised `u16`s, 4-byte
    // aligned (≥ the 2 a `u16` needs), and every bit pattern is a valid
    // `u16`. The result borrows `words`, so nothing writes them while it
    // lives.
    unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<u16>(), 2 * words.len()) }
}

/// [`age_halves`], for writing.
#[inline]
fn age_halves_mut(words: &mut [u32]) -> &mut [u16] {
    debug_assert!(words.as_ptr().cast::<u16>().is_aligned());
    // SAFETY: as in `age_halves`, and the result holds `words`' unique
    // borrow; whatever it writes leaves each word a valid `u32` (every
    // bit pattern is one).
    unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u16>(), 2 * words.len()) }
}

/// A bounded partial view of the system.
///
/// # Examples
///
/// ```
/// use avmem_shuffle::{View, ViewEntry};
/// use avmem_util::NodeId;
///
/// let mut view = View::new(3);
/// view.insert(ViewEntry::fresh(NodeId::new(1)));
/// view.insert(ViewEntry { id: NodeId::new(2), age: 5 });
/// assert_eq!(view.len(), 2);
/// assert_eq!(view.oldest().unwrap().id, NodeId::new(2));
/// ```
#[derive(Debug, Clone, Eq, Serialize, Deserialize)]
pub struct View {
    /// Both columns, room for `room` entries: the id of entry `pos` at
    /// `slots[pos]`, its age at `pos` of the `u16` halves of the words
    /// from `room` on ([`age_halves`]) — the age in the low 15 bits, the
    /// slot's mark in the top one.
    slots: Box<[u32]>,
    len: u32,
    capacity: u32,
}

// One view per host: a header past 24 bytes is N times that.
const _: () = assert!(std::mem::size_of::<View>() <= 24);

/// Ids in order, ages and capacity; marks are not compared.
impl PartialEq for View {
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity
            && self.id_column() == other.id_column()
            && self
                .age_column()
                .iter()
                .zip(other.age_column())
                .all(|(a, b)| (a ^ b) & AGE_BITS == 0)
    }
}

impl View {
    /// The largest age a view stores, 2¹⁵ − 1: ages saturate here.
    pub const AGE: u32 = AGE_BITS as u32;

    /// Creates an empty view with the given capacity.
    ///
    /// Slots are allocated lazily as entries arrive — a fresh view costs
    /// no heap at all, which matters when most of a million bootstrap
    /// views stay far below capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "view capacity must be positive");
        View {
            slots: Box::default(),
            len: 0,
            capacity: u32::try_from(capacity).expect("view capacity fits u32"),
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }

    /// Current number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the view holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entries the allocation has room for.
    #[inline]
    fn room(&self) -> usize {
        // The inverse of `words_for`: `⌊2·(r + ⌈r/2⌉)/3⌋ = r`.
        2 * self.slots.len() / 3
    }

    /// The live ids and the live ages (marks included).
    #[inline]
    fn columns(&self) -> (&[u32], &[u16]) {
        let len = self.len();
        let (ids, ages) = self.slots.split_at(self.room());
        (&ids[..len], &age_halves(ages)[..len])
    }

    /// [`View::columns`], for writing.
    #[inline]
    fn columns_mut(&mut self) -> (&mut [u32], &mut [u16]) {
        let len = self.len();
        let (ids, ages) = self.slots.split_at_mut(self.room());
        (&mut ids[..len], &mut age_halves_mut(ages)[..len])
    }

    #[inline]
    fn id_column(&self) -> &[u32] {
        self.columns().0
    }

    #[inline]
    fn age_column(&self) -> &[u16] {
        self.columns().1
    }

    #[inline]
    fn entry(&self, pos: usize) -> ViewEntry {
        let (ids, ages) = self.columns();
        ViewEntry {
            id: NodeId::new(u64::from(ids[pos])),
            age: u32::from(ages[pos] & AGE_BITS),
        }
    }

    /// Appends a slot, unmarked, its age clamped to [`View::AGE`]. The
    /// allocation doubles as it fills but stops at `capacity`.
    #[inline]
    fn push(&mut self, id: u32, age: u32) {
        let len = self.len();
        let mut room = self.room();
        if len == room {
            room = (2 * len).max(4).min(self.capacity as usize);
            self.regrow(room);
        }
        let (ids, ages) = self.slots.split_at_mut(room);
        ids[len] = id;
        age_halves_mut(ages)[len] = clamped(age);
        self.len += 1;
    }

    /// Moves both columns into an allocation with room for `room`
    /// entries.
    fn regrow(&mut self, room: usize) {
        let (old_room, len) = (self.room(), self.len());
        // Grown in place where the allocator can; the ages then move up
        // behind the longer id column.
        let mut slots = std::mem::take(&mut self.slots).into_vec();
        slots.reserve_exact(words_for(room) - slots.len());
        slots.resize(words_for(room), 0);
        age_halves_mut(&mut slots).copy_within(2 * old_room..2 * old_room + len, 2 * room);
        self.slots = slots.into_boxed_slice();
    }

    /// Iterates over the entries in insertion order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = ViewEntry> + '_ {
        self.id_column()
            .iter()
            .zip(self.age_column())
            .map(|(&id, &age)| ViewEntry {
                id: NodeId::new(u64::from(id)),
                age: u32::from(age & AGE_BITS),
            })
    }

    /// Whether the slot at `pos` carries a mark.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is not a position of the view.
    #[inline]
    pub fn is_marked(&self, pos: usize) -> bool {
        self.age_column()[pos] & MARK != 0
    }

    /// Every slot's mark, in position order: [`View::is_marked`] of each
    /// position, read in one pass beside [`View::ids`].
    #[inline]
    pub fn marks(&self) -> impl Iterator<Item = bool> + '_ {
        self.age_column().iter().map(|&age| age & MARK != 0)
    }

    /// Marks the slot at `pos`; the mark lives while its id stays there.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is not a position of the view.
    #[inline]
    pub fn mark(&mut self, pos: usize) {
        self.columns_mut().1[pos] |= MARK;
    }

    /// Clears every slot's mark.
    pub fn clear_marks(&mut self) {
        for age in self.columns_mut().1 {
            *age &= AGE_BITS;
        }
    }

    /// Returns the ids currently in the view.
    #[inline]
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.id_column()
            .iter()
            .map(|&id| NodeId::new(u64::from(id)))
    }

    /// Whether `id` appears in the view.
    pub fn contains(&self, id: NodeId) -> bool {
        match u32::try_from(id.raw()) {
            Ok(raw) => self.id_column().contains(&raw),
            Err(_) => false,
        }
    }

    /// Increments every entry's age by one period, up to [`View::AGE`].
    pub fn age_all(&mut self) {
        for age in self.columns_mut().1 {
            *age += u16::from(*age & AGE_BITS != AGE_BITS);
        }
    }

    /// The entry with the largest age, if any; among several of that age,
    /// the last one.
    pub fn oldest(&self) -> Option<ViewEntry> {
        self.oldest_at().map(|(_, entry)| entry)
    }

    /// [`View::oldest`] with its position. The exchange target of every
    /// tick and the entry a full merge replaces as its last resort are
    /// chosen here, over ages that arrive in no order: a running
    /// `if age >= max` is mispredicted again and again, so this takes the
    /// column maximum first (no branch) and looks for it from the back
    /// second (one that is taken once) — two passes over a few cache
    /// lines.
    pub(crate) fn oldest_at(&self) -> Option<(usize, ViewEntry)> {
        let ages = self.age_column();
        let max_age = ages.iter().fold(0, |max, &age| max.max(age & AGE_BITS));
        let pos = ages.iter().rposition(|&age| age & AGE_BITS == max_age)?;
        Some((pos, self.entry(pos)))
    }

    /// Removes and returns the entry for `id`, if present.
    pub fn remove(&mut self, id: NodeId) -> Option<ViewEntry> {
        let raw = u32::try_from(id.raw()).ok()?;
        let pos = self.id_column().iter().position(|&e| e == raw)?;
        self.remove_at(pos, id)
    }

    /// [`View::remove`] for a caller that knows where `id` sits: `None`,
    /// and nothing removed, unless the entry at `pos` is `id`'s. The slots
    /// behind it move up one position, their marks with them.
    pub(crate) fn remove_at(&mut self, pos: usize, id: NodeId) -> Option<ViewEntry> {
        if self.id_column().get(pos).map(|&raw| u64::from(raw)) != Some(id.raw()) {
            return None;
        }
        let entry = self.entry(pos);
        let (ids, ages) = self.columns_mut();
        ids.copy_within(pos + 1.., pos);
        ages.copy_within(pos + 1.., pos);
        self.len -= 1;
        Some(entry)
    }

    /// Inserts an entry. If `id` is already present the younger age wins
    /// (and the slot keeps its mark). If the view is full the entry is
    /// dropped (use [`View::merge`] for CYCLON's replacement semantics).
    /// Returns whether the entry is now present with the given (or
    /// younger, or clamped to [`View::AGE`]) age.
    pub fn insert(&mut self, entry: ViewEntry) -> bool {
        let raw = packed(entry.id);
        if let Some(pos) = self.id_column().iter().position(|&e| e == raw) {
            let age = &mut self.columns_mut().1[pos];
            *age = younger(*age, entry.age);
            return true;
        }
        if self.len < self.capacity {
            self.push(raw, entry.age);
            true
        } else {
            false
        }
    }

    /// Selects up to `k` random entries (without replacement), excluding
    /// `exclude` if given.
    pub fn random_subset<R: Rng>(
        &self,
        rng: &mut R,
        k: usize,
        exclude: Option<NodeId>,
    ) -> Vec<ViewEntry> {
        rng.sample(self.iter().filter(|e| Some(e.id) != exclude), k)
    }

    /// The subset both halves of an exchange ship, into caller-provided
    /// buffers: up to `k` random entries of the view without the entry at
    /// position `skip`, each aged by `aging` periods (saturating) on the
    /// way out, up to [`View::AGE`]. Pick for pick and draw for draw what
    /// [`View::random_subset`] returns on that filtered, aged view — the
    /// reference the tests hold this to — but sampled as positions
    /// ([`Rng::sample_positions`]) and gathered from the two columns
    /// afterwards, so no entry moves that is not shipped. `out` is cleared
    /// first; `positions` is scratch with no content between uses.
    ///
    /// # Panics
    ///
    /// Panics if `skip` is not a position of the view.
    pub(crate) fn random_subset_pooled<R: Rng>(
        &self,
        rng: &mut R,
        k: usize,
        skip: Option<usize>,
        aging: u32,
        positions: &mut Vec<u32>,
        out: &mut Vec<ViewEntry>,
    ) {
        assert!(
            skip.is_none_or(|pos| pos < self.len()),
            "skipped position outside the view"
        );
        rng.sample_positions(self.len() - usize::from(skip.is_some()), k, positions);
        // Sampled positions count the entries that are not skipped: from
        // the skipped one on they sit one further along.
        let skip = skip.map_or(u32::MAX, |pos| pos as u32);
        let (ids, ages) = self.columns();
        out.clear();
        out.extend(positions.iter().map(|&pos| {
            let pos = (pos + u32::from(pos >= skip)) as usize;
            ViewEntry {
                id: NodeId::new(u64::from(ids[pos])),
                age: u32::from(ages[pos] & AGE_BITS)
                    .saturating_add(aging)
                    .min(View::AGE),
            }
        }));
    }

    /// CYCLON merge: incorporate `received` entries, preferring to fill
    /// empty slots, then to replace the entries in `sent` (the ones we
    /// shipped to the peer, consumed back-to-front), and finally — if the
    /// view is somehow still full — replacing the oldest entry.
    ///
    /// Entries for `self_id` and duplicates are skipped (younger age
    /// wins on duplicates, and the slot keeps its mark); a pushed or
    /// replacing entry starts unmarked, its age clamped to [`View::AGE`].
    ///
    /// `index` is working memory (any table, fresh or used, gives the
    /// same result): the view's ids → positions are written into it once,
    /// `len` stores, and from then on "is this received id present, and
    /// where" and "is this sent victim still present" are one load each
    /// instead of a scan of the id column — a merge of ℓ entries costs
    /// O(v + ℓ), not O(v·ℓ). The index follows every change the merge
    /// makes: a pushed or replacing id is written, a replaced one removed.
    /// The table is dense — it grows to the largest id it is given, which
    /// is why view ids are index-space.
    pub fn merge(
        &mut self,
        self_id: NodeId,
        received: &[ViewEntry],
        sent: &[ViewEntry],
        index: &mut StampedTable,
    ) {
        index.begin();
        for (pos, &id) in self.id_column().iter().enumerate() {
            index.set(id, pos as u32);
        }
        let mut next_victim = sent.len();
        for &entry in received {
            if entry.id == self_id {
                continue;
            }
            let raw = packed(entry.id);
            if let Some(pos) = index.get(raw) {
                let age = &mut self.columns_mut().1[pos as usize];
                *age = younger(*age, entry.age);
                continue;
            }
            if self.len < self.capacity {
                index.set(raw, self.len);
                self.push(raw, entry.age);
                continue;
            }
            // Replace one of the entries we sent away, if still present.
            let mut victim_pos = None;
            while victim_pos.is_none() && next_victim > 0 {
                next_victim -= 1;
                victim_pos = index.get(packed(sent[next_victim].id));
            }
            // Last resort: replace the oldest entry, unless it is younger
            // than the incoming one.
            let pos = victim_pos.map(|pos| pos as usize).or_else(|| {
                let (pos, oldest) = self.oldest_at()?;
                (oldest.age >= entry.age).then_some(pos)
            });
            if let Some(pos) = pos {
                let (ids, ages) = self.columns_mut();
                index.remove(ids[pos]);
                index.set(raw, pos as u32);
                ids[pos] = raw;
                ages[pos] = clamped(entry.age);
            }
        }
    }
}

/// A stored `slot` after a duplicate of age `age` arrived: the younger of
/// the two ages, the slot's mark kept.
#[inline]
fn younger(slot: u16, age: u32) -> u16 {
    (slot & AGE_BITS).min(clamped(age)) | (slot & MARK)
}

/// The merge as it was before the id index — every lookup a scan of the id
/// column — and `oldest` as it was before its two passes. Kept as the
/// models the differential tests compare [`View::merge`] and
/// [`View::oldest`] against.
#[cfg(test)]
mod reference {
    use super::*;

    /// `oldest` as it was: one scan keeping the running maximum, a later
    /// entry of the same age taking its place.
    pub(super) fn oldest(view: &View) -> Option<ViewEntry> {
        let (mut oldest, mut max_age) = (0, 0);
        for (pos, &age) in view.age_column().iter().enumerate() {
            let age = age & AGE_BITS;
            if age >= max_age {
                (oldest, max_age) = (pos, age);
            }
        }
        (!view.is_empty()).then(|| view.entry(oldest))
    }

    /// How often a merge took each of its ways, indexed like [`PATHS`].
    pub(super) type Paths = [usize; PATHS.len()];

    pub(super) const PATHS: [&str; 7] = [
        "own entry skipped",
        "duplicate",
        "pushed",
        "victim gone",
        "victim replaced",
        "oldest replaced",
        "oldest kept",
    ];

    pub(super) fn merge(
        view: &mut View,
        self_id: NodeId,
        received: &[ViewEntry],
        sent: &[ViewEntry],
    ) -> Paths {
        let mut paths = Paths::default();
        let mut next_victim = sent.len();
        for &entry in received {
            if entry.id == self_id {
                paths[0] += 1;
                continue;
            }
            let raw = packed(entry.id);
            if let Some(pos) = view.id_column().iter().position(|&e| e == raw) {
                let ages = view.columns_mut().1;
                ages[pos] = ages[pos].min(clamped(entry.age));
                paths[1] += 1;
                continue;
            }
            if view.len() < view.capacity() {
                view.push(raw, entry.age);
                paths[2] += 1;
                continue;
            }
            let (ids, ages) = view.columns_mut();
            let mut replaced = false;
            while next_victim > 0 {
                next_victim -= 1;
                let victim = packed(sent[next_victim].id);
                if let Some(pos) = ids.iter().position(|&e| e == victim) {
                    ids[pos] = raw;
                    ages[pos] = clamped(entry.age);
                    replaced = true;
                    paths[4] += 1;
                    break;
                }
                paths[3] += 1;
            }
            if !replaced {
                if let Some(pos) = ages
                    .iter()
                    .enumerate()
                    .max_by_key(|&(_, &age)| age)
                    .map(|(pos, _)| pos)
                {
                    if u32::from(ages[pos]) >= entry.age {
                        ids[pos] = raw;
                        ages[pos] = clamped(entry.age);
                        paths[5] += 1;
                    } else {
                        paths[6] += 1;
                    }
                }
            }
        }
        paths
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avmem_util::SplitMix64;
    use proptest::prelude::*;

    fn id(n: u64) -> NodeId {
        NodeId::new(n)
    }

    fn view_of(capacity: usize, entries: &[(u64, u32)]) -> View {
        let mut v = View::new(capacity);
        for &(n, age) in entries {
            assert!(v.insert(ViewEntry { id: id(n), age }));
        }
        v
    }

    fn entries_of(view: &View) -> Vec<(u64, u32)> {
        view.iter().map(|e| (e.id.raw(), e.age)).collect()
    }

    #[test]
    fn insert_deduplicates_keeping_younger() {
        let mut v = View::new(4);
        v.insert(ViewEntry { id: id(1), age: 9 });
        v.insert(ViewEntry { id: id(1), age: 2 });
        assert_eq!(v.len(), 1);
        assert_eq!(v.oldest().unwrap().age, 2);
    }

    #[test]
    fn insert_respects_capacity() {
        let mut v = View::new(2);
        assert!(v.insert(ViewEntry::fresh(id(1))));
        assert!(v.insert(ViewEntry::fresh(id(2))));
        assert!(!v.insert(ViewEntry::fresh(id(3))));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn oldest_picks_max_age() {
        let mut v = View::new(4);
        v.insert(ViewEntry { id: id(1), age: 3 });
        v.insert(ViewEntry { id: id(2), age: 7 });
        v.insert(ViewEntry { id: id(3), age: 5 });
        assert_eq!(v.oldest().unwrap().id, id(2));
    }

    #[test]
    fn oldest_resolves_ties_to_the_last_entry() {
        // The shuffle target is `oldest()`: which of several equally old
        // entries it names decides who is contacted, so the tie rule is
        // part of the protocol's determinism.
        let v = view_of(6, &[(1, 7), (2, 3), (3, 7), (4, 0), (5, 7), (6, 2)]);
        assert_eq!(v.oldest(), Some(ViewEntry { id: id(5), age: 7 }));
        // All equal (a freshly bootstrapped view): still the last.
        let v = view_of(3, &[(8, 0), (9, 0), (7, 0)]);
        assert_eq!(v.oldest(), Some(ViewEntry::fresh(id(7))));
        assert_eq!(View::new(3).oldest(), None);
    }

    #[test]
    fn age_all_increments() {
        let mut v = View::new(4);
        v.insert(ViewEntry { id: id(1), age: 0 });
        v.age_all();
        v.age_all();
        assert_eq!(v.iter().next().unwrap().age, 2);
    }

    #[test]
    fn remove_returns_entry() {
        let mut v = View::new(4);
        v.insert(ViewEntry { id: id(1), age: 4 });
        let removed = v.remove(id(1)).unwrap();
        assert_eq!(removed.age, 4);
        assert!(v.is_empty());
        assert!(v.remove(id(1)).is_none());
    }

    #[test]
    fn random_subset_excludes_and_bounds() {
        let mut v = View::new(10);
        for n in 0..10 {
            v.insert(ViewEntry::fresh(id(n)));
        }
        let mut rng = SplitMix64::new(1);
        let subset = v.random_subset(&mut rng, 4, Some(id(3)));
        assert_eq!(subset.len(), 4);
        assert!(subset.iter().all(|e| e.id != id(3)));
    }

    /// A view of `ages.len()` entries with scattered ids, in column order.
    fn view_with_ages(ages: &[u32]) -> View {
        let entries: Vec<(u64, u32)> = ages
            .iter()
            .enumerate()
            .map(|(pos, &age)| (pos as u64 * 37 % 1009, age))
            .collect();
        view_of(ages.len().max(1), &entries)
    }

    /// Ages that tie often and saturate sometimes.
    fn age_column(len: usize) -> impl Strategy<Value = Vec<u32>> {
        let age = prop_oneof![
            0u32..4,
            0u32..4,
            Just(View::AGE),
            Just(View::AGE - 1),
            0..=View::AGE
        ];
        proptest::collection::vec(age, 0..len)
    }

    /// The pooled subset of `view` against its reference: `random_subset`
    /// over a copy of the view without position `skip`, aged by `aging`.
    /// Same entries in the same order, generator left at the same draw.
    fn pooled_subset_matches_reference(
        view: &View,
        seed: u64,
        k: usize,
        skip: Option<usize>,
        aging: u32,
    ) {
        let mut expected_view = View::new(view.capacity());
        for (pos, e) in view.iter().enumerate() {
            if Some(pos) != skip {
                expected_view.insert(ViewEntry {
                    id: e.id,
                    age: e.age.saturating_add(aging),
                });
            }
        }
        let (mut a, mut b) = (SplitMix64::new(seed), SplitMix64::new(seed));
        let expected = expected_view.random_subset(&mut a, k, None);
        // Both buffers come in dirty, the scratch longer than any sample.
        let mut positions = vec![u32::MAX; 70];
        let mut out = vec![ViewEntry::fresh(id(99)); 7];
        view.random_subset_pooled(&mut b, k, skip, aging, &mut positions, &mut out);
        assert_eq!(out, expected, "k={k} skip={skip:?} aging={aging}");
        assert_eq!(
            a.next_u64(),
            b.next_u64(),
            "stream diverged k={k} skip={skip:?}"
        );
    }

    proptest! {
        /// Nothing skipped and the first, a middle and the last position
        /// skipped; shipped as is and aged by one; at every `k` from none
        /// to more than the view holds.
        #[test]
        fn pooled_subset_matches_random_subset(
            ages in age_column(64),
            seed in any::<u64>(),
            k in 0usize..70,
        ) {
            let view = view_with_ages(&ages);
            let last = view.len().saturating_sub(1);
            let skips = [0, last / 2, last].map(|pos| Some(pos).filter(|_| !view.is_empty()));
            for skip in skips.into_iter().chain([None]) {
                for aging in [0, 1] {
                    pooled_subset_matches_reference(&view, seed, k, skip, aging);
                }
            }
        }

        /// The column maximum, then the last position holding it: the
        /// same entry as the single scan, ties and saturated ages included.
        #[test]
        fn oldest_matches_the_single_scan(ages in age_column(48)) {
            let view = view_with_ages(&ages);
            prop_assert_eq!(view.oldest(), reference::oldest(&view));
            let found_at = view.oldest_at().map(|(pos, _)| view.iter().nth(pos).unwrap());
            prop_assert_eq!(found_at, view.oldest());
        }
    }

    #[test]
    fn pooled_subset_at_the_paper_shapes() {
        // View √N, half of it shipped: 1 442 hosts and 16 000.
        for (v, l) in [(38usize, 19usize), (126, 63)] {
            let ages: Vec<u32> = (0..v as u32).map(|pos| pos * 7 % 5).collect();
            let view = view_with_ages(&ages);
            for seed in 0..8 {
                pooled_subset_matches_reference(&view, seed, l - 1, Some(seed as usize * 5), 1);
                pooled_subset_matches_reference(&view, seed, l, None, 0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside the view")]
    fn pooled_subset_rejects_a_skip_beyond_the_view() {
        let view = view_with_ages(&[1, 2, 3]);
        let mut rng = SplitMix64::new(1);
        view.random_subset_pooled(&mut rng, 2, Some(3), 0, &mut Vec::new(), &mut Vec::new());
    }

    #[test]
    fn remove_at_checks_the_position() {
        let mut v = view_of(3, &[(1, 4), (2, 5), (3, 6)]);
        assert_eq!(v.remove_at(0, id(2)), None, "another entry's position");
        assert_eq!(v.remove_at(3, id(2)), None, "beyond the view");
        assert_eq!(v.len(), 3);
        assert_eq!(v.remove_at(1, id(2)), Some(ViewEntry { id: id(2), age: 5 }));
        assert_eq!(entries_of(&v), [(1, 4), (3, 6)]);
    }

    #[test]
    fn merge_fills_empty_slots_first() {
        let mut v = View::new(4);
        v.insert(ViewEntry::fresh(id(1)));
        let received = [ViewEntry::fresh(id(2)), ViewEntry::fresh(id(3))];
        v.merge(id(0), &received, &[], &mut StampedTable::new());
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn merge_skips_self_and_duplicates() {
        let mut v = View::new(4);
        v.insert(ViewEntry { id: id(1), age: 5 });
        v.merge(
            id(0),
            &[ViewEntry::fresh(id(0)), ViewEntry { id: id(1), age: 1 }],
            &[],
            &mut StampedTable::new(),
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v.oldest().unwrap().age, 1); // younger duplicate won
        assert!(!v.contains(id(0)));
    }

    #[test]
    fn merge_replaces_sent_entries_when_full() {
        let mut v = View::new(2);
        v.insert(ViewEntry::fresh(id(1)));
        v.insert(ViewEntry::fresh(id(2)));
        let sent = vec![ViewEntry::fresh(id(1))];
        v.merge(id(0), &[ViewEntry::fresh(id(9))], &sent, &mut StampedTable::new());
        assert!(v.contains(id(9)));
        assert!(!v.contains(id(1)));
        assert!(v.contains(id(2)));
    }

    #[test]
    fn merge_full_view_replaces_oldest_as_last_resort() {
        let mut v = View::new(2);
        v.insert(ViewEntry { id: id(1), age: 9 });
        v.insert(ViewEntry { id: id(2), age: 1 });
        v.merge(id(0), &[ViewEntry::fresh(id(9))], &[], &mut StampedTable::new());
        assert!(v.contains(id(9)));
        assert!(!v.contains(id(1))); // oldest evicted
        assert!(v.contains(id(2)));
    }

    #[test]
    fn merge_keeps_newer_resident_over_older_incoming() {
        let mut v = View::new(1);
        v.insert(ViewEntry { id: id(1), age: 0 });
        v.merge(id(0), &[ViewEntry { id: id(9), age: 8 }], &[], &mut StampedTable::new());
        // Resident entry is younger than the incoming one; keep it.
        assert!(v.contains(id(1)));
        assert!(!v.contains(id(9)));
    }

    #[test]
    fn fresh_views_hold_no_heap() {
        let v = View::new(1000);
        assert_eq!(v.capacity(), 1000);
        assert_eq!(v.len(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = View::new(0);
    }

    #[test]
    fn merge_index_follows_a_replacement() {
        // Full view; 9 replaces the sent victim 1, then arrives again
        // younger: it must be found where it was put, not take slot 2's
        // place as a second copy.
        let mut v = view_of(2, &[(1, 4), (2, 4)]);
        let sent = [ViewEntry::fresh(id(1)), ViewEntry::fresh(id(2))];
        let received = [ViewEntry { id: id(9), age: 3 }, ViewEntry { id: id(9), age: 1 }];
        v.merge(id(0), &received, &sent, &mut StampedTable::new());
        assert_eq!(entries_of(&v), [(1, 4), (9, 1)]);
    }

    #[test]
    fn merge_forgets_a_replaced_victim() {
        // 9 replaces victim 2; a later entry for 2 must not read 9's
        // slot as its own (it goes to the last resort instead, and loses
        // to nobody: the oldest resident is older).
        let mut v = view_of(2, &[(1, 7), (2, 5)]);
        let sent = [ViewEntry::fresh(id(2))];
        let received = [ViewEntry { id: id(9), age: 6 }, ViewEntry { id: id(2), age: 0 }];
        v.merge(id(0), &received, &sent, &mut StampedTable::new());
        assert_eq!(entries_of(&v), [(2, 0), (9, 6)]);
    }

    #[test]
    fn merge_forgets_a_replaced_oldest_entry() {
        // No victims: 9 replaces the oldest (1), then 1 arrives again.
        let mut v = view_of(2, &[(1, 9), (2, 8)]);
        let received = [ViewEntry { id: id(9), age: 0 }, ViewEntry { id: id(1), age: 3 }];
        v.merge(id(0), &received, &[], &mut StampedTable::new());
        assert_eq!(entries_of(&v), [(9, 0), (1, 3)]);
    }

    #[test]
    fn merge_skips_victims_that_left_the_view() {
        let mut v = view_of(3, &[(1, 0), (2, 0), (3, 0)]);
        // Consumed back to front: 8 and 7 are gone, 2 is the victim.
        let sent = [1, 2, 7, 8].map(|n| ViewEntry::fresh(id(n)));
        v.merge(id(0), &[ViewEntry { id: id(9), age: 5 }], &sent, &mut StampedTable::new());
        assert_eq!(entries_of(&v), [(1, 0), (9, 5), (3, 0)]);
    }

    #[test]
    fn merge_on_a_table_shorter_than_the_ids() {
        // The table starts empty and has to grow under the merge; ids
        // far apart, the received one beyond everything written so far.
        let mut index = StampedTable::new();
        let mut v = view_of(3, &[(70_000, 2), (5, 1)]);
        let received = [ViewEntry::fresh(id(4_000_000)), ViewEntry::fresh(id(70_000))];
        v.merge(id(0), &received, &[], &mut index);
        assert_eq!(entries_of(&v), [(70_000, 0), (5, 1), (4_000_000, 0)]);
        assert_eq!(index.get(4_000_000), Some(2));
    }

    #[test]
    fn merge_ignores_what_an_earlier_merge_left_in_the_table() {
        let mut index = StampedTable::new();
        let mut a = view_of(2, &[(1, 0), (2, 0)]);
        a.merge(id(0), &[ViewEntry::fresh(id(3))], &[ViewEntry::fresh(id(2))], &mut index);
        // `b` holds none of a's ids: nothing a's merge wrote may count.
        let mut b = view_of(3, &[(7, 0)]);
        let received = [ViewEntry { id: id(1), age: 4 }, ViewEntry { id: id(3), age: 5 }];
        b.merge(id(0), &received, &[], &mut index);
        assert_eq!(entries_of(&b), [(7, 0), (1, 4), (3, 5)]);
    }

    /// The owner of every random view: never resident, sometimes received.
    const OWNER: u64 = 0;

    fn random_view(r: &mut SplitMix64, capacity: usize, id_space: u64, stride: u64) -> View {
        let fill = match r.index(4) {
            0 => 0,
            1 => capacity,
            _ => r.index(capacity + 1),
        };
        let mut view = View::new(capacity);
        for _ in 0..fill {
            // Duplicates are absorbed by `insert`.
            let n = OWNER + 1 + r.range_u64(id_space - 1);
            view.insert(ViewEntry { id: id(n * stride), age: r.range_u64(6) as u32 });
        }
        view
    }

    /// One random exchange as `merge` sees it: `(received, sent)`. Small
    /// id spaces make received entries collide with residents, with each
    /// other and with the owner; `stride` spreads the same shapes over ids
    /// far beyond any table length.
    fn random_exchange(
        r: &mut SplitMix64,
        view: &View,
        id_space: u64,
        stride: u64,
    ) -> (Vec<ViewEntry>, Vec<ViewEntry>) {
        let any_entry = |r: &mut SplitMix64| ViewEntry {
            id: id(r.range_u64(id_space) * stride),
            age: r.range_u64(8) as u32,
        };
        let resident = |r: &mut SplitMix64| match view.len() {
            0 => None,
            len => view.iter().nth(r.index(len)),
        };
        let received = (0..r.index(2 * view.capacity() + 2))
            .map(|_| match resident(r) {
                // An id already present, older or younger than it is.
                Some(e) if r.chance(0.25) => ViewEntry { id: e.id, age: r.range_u64(8) as u32 },
                _ => any_entry(r),
            })
            .collect();
        // What was shipped earlier: residents, ids that have since left
        // the view (or never were in it), the owner; none at all in a
        // quarter of the cases, which leaves a full view its last resort.
        let sent = match r.index(4) {
            0 => Vec::new(),
            _ => (0..r.index(view.capacity() + 2))
                .map(|_| match resident(r) {
                    Some(e) if r.chance(0.5) => e,
                    _ => any_entry(r),
                })
                .collect(),
        };
        (received, sent)
    }

    /// Runs `rounds` random merges alternating over two views that share
    /// one id table, each checked against the scanning reference and
    /// against the same merge on a fresh table. Returns the path tally.
    fn differential(seed: u64, rounds: usize) -> reference::Paths {
        let mut r = SplitMix64::new(seed);
        let widest = if r.chance(0.1) { 40 } else { 9 };
        let capacity = 1 + r.index(widest);
        let id_space = 2 + r.range_u64(3 * capacity as u64 + 2);
        let stride = if r.chance(0.2) { 7_919 } else { 1 };
        let mut views = [
            random_view(&mut r, capacity, id_space, stride),
            random_view(&mut r, capacity, id_space, stride),
        ];
        let mut shared = StampedTable::new();
        let mut paths = reference::Paths::default();
        for round in 0..rounds {
            let view = &mut views[round % 2];
            let (received, sent) = random_exchange(&mut r, view, id_space, stride);
            let mut expected = view.clone();
            let p = reference::merge(&mut expected, id(OWNER), &received, &sent);
            let mut fresh = view.clone();
            fresh.merge(id(OWNER), &received, &sent, &mut StampedTable::new());
            view.merge(id(OWNER), &received, &sent, &mut shared);
            // `View` equality is ids in order, ages, capacity.
            assert_eq!(fresh, expected, "fresh table, seed {seed} round {round}");
            assert_eq!(*view, expected, "reused table, seed {seed} round {round}");
            for (total, n) in paths.iter_mut().zip(p) {
                *total += n;
            }
        }
        paths
    }

    proptest! {
        /// Same view — ids in order, ages — as the scanning reference, on
        /// a fresh table and on one left dirty by earlier merges of this
        /// and of another view.
        #[test]
        fn merge_matches_the_scanning_reference(seed in any::<u64>()) {
            differential(seed, 6);
        }
    }

    #[test]
    fn random_merges_take_every_path() {
        let mut total = reference::Paths::default();
        for seed in 0..64 {
            for (total, n) in total.iter_mut().zip(differential(seed, 6)) {
                *total += n;
            }
        }
        for (path, count) in reference::PATHS.iter().zip(total) {
            assert!(count >= 20, "{path}: only {count} times in 64 seeds");
        }
    }

    #[test]
    fn ages_saturate_at_the_ceiling_wherever_they_enter_or_grow() {
        const AGE: u32 = View::AGE;
        assert_eq!(AGE, 32_767, "ages are 15 bits beside the mark");
        // `insert`: a push, and a duplicate that is younger than the slot.
        let mut v = view_of(4, &[(1, u32::MAX), (2, AGE - 1)]);
        v.insert(ViewEntry { id: id(2), age: u32::MAX });
        assert_eq!(entries_of(&v), [(1, AGE), (2, AGE - 1)]);
        // Aging: up to the ceiling, and no further, marked or not.
        v.mark(1);
        v.age_all();
        v.age_all();
        assert_eq!(entries_of(&v), [(1, AGE), (2, AGE)]);
        assert!(!v.is_marked(0) && v.is_marked(1), "aging carried into the mark");
        // The shipped subset, aged on the way out.
        let (mut out, mut positions) = (Vec::new(), Vec::new());
        v.random_subset_pooled(&mut SplitMix64::new(3), 2, None, 1, &mut positions, &mut out);
        assert!(out.iter().all(|e| e.age == AGE), "{out:?}");
        // `merge`: a push, a replacement of a sent victim, a duplicate.
        let mut index = StampedTable::new();
        v.merge(id(0), &[ViewEntry { id: id(3), age: u32::MAX }], &[], &mut index);
        v.merge(id(0), &[ViewEntry { id: id(4), age: AGE + 7 }], &[], &mut index);
        let sent = [ViewEntry::fresh(id(1))];
        v.merge(id(0), &[ViewEntry { id: id(5), age: u32::MAX }], &sent, &mut index);
        v.merge(id(0), &[ViewEntry { id: id(2), age: u32::MAX }], &[], &mut index);
        assert_eq!(entries_of(&v), [(5, AGE), (2, AGE), (3, AGE), (4, AGE)]);
        assert!(v.is_marked(1), "a duplicate dropped the slot's mark");
        // No age carried into a mark bit on its way to the ceiling.
        assert_eq!((0..4).filter(|&pos| v.is_marked(pos)).count(), 1);
    }

    #[test]
    fn columns_double_up_to_the_capacity_and_stop_there() {
        for capacity in [1, 3, 4, 5, 38, 126] {
            let mut v = View::new(capacity);
            let mut index = StampedTable::new();
            for n in 0..capacity as u64 + 3 {
                if n % 2 == 0 {
                    v.insert(ViewEntry::fresh(id(n + 1)));
                } else {
                    v.merge(id(0), &[ViewEntry::fresh(id(n + 1))], &[], &mut index);
                }
                let len = v.len();
                let expected = if len == 0 {
                    0
                } else {
                    std::iter::successors(Some(4), |c| Some(c * 2))
                        .find(|&c| c >= len)
                        .unwrap()
                        .min(capacity)
                };
                // One allocation, both columns: room for `expected`
                // entries each, the live ones in place.
                assert_eq!(v.room(), expected, "capacity {capacity}, {len} entries");
                assert_eq!(v.slots.len(), words_for(expected));
                assert_eq!(v.id_column().len(), len);
                assert_eq!(v.age_column().len(), len);
                if len as u64 == n + 1 {
                    // Nothing replaced yet: every id survived each move.
                    assert!(v.ids().eq((1..=n + 1).map(id)), "capacity {capacity}");
                }
            }
            assert_eq!(v.len(), capacity);
        }
    }

    /// A slot of the mark model: id, age, mark.
    type Slot = (u32, u32, bool);

    /// The view as slots in a plain list, a rewrite of a slot (a push or a
    /// replacement) clearing its mark: what the packed columns must keep.
    fn model_merge(slots: &mut Vec<Slot>, capacity: usize, received: &[ViewEntry], sent: &[ViewEntry]) {
        let mut next_victim = sent.len();
        for entry in received {
            let raw = packed(entry.id);
            if u64::from(raw) == OWNER {
                continue;
            }
            if let Some(slot) = slots.iter_mut().find(|s| s.0 == raw) {
                slot.1 = slot.1.min(entry.age);
                continue;
            }
            let fresh = (raw, entry.age.min(View::AGE), false);
            if slots.len() < capacity {
                slots.push(fresh);
                continue;
            }
            let mut pos = None;
            while pos.is_none() && next_victim > 0 {
                next_victim -= 1;
                let victim = packed(sent[next_victim].id);
                pos = slots.iter().position(|s| s.0 == victim);
            }
            let pos = pos.or_else(|| {
                let (pos, slot) = slots.iter().enumerate().max_by_key(|(_, s)| s.1)?;
                (slot.1 >= entry.age).then_some(pos)
            });
            if let Some(pos) = pos {
                slots[pos] = fresh;
            }
        }
    }

    /// Runs `steps` random operations on a view and on its slot model,
    /// checking after each that marks sit where the model has them, that
    /// the ages agree, and that no reader — equality, `iter`, `oldest`,
    /// the shipped subset — sees a mark.
    fn mark_differential(seed: u64, steps: usize) {
        let mut r = SplitMix64::new(seed);
        let capacity = 1 + r.index(9);
        let id_space = 2 + r.range_u64(3 * capacity as u64);
        let mut view = View::new(capacity);
        let mut slots: Vec<Slot> = Vec::new();
        let mut index = StampedTable::new();
        let age = |r: &mut SplitMix64| match r.index(6) {
            0 => View::AGE,
            1 => View::AGE - 1,
            2 => u32::MAX,
            _ => r.range_u64(6) as u32,
        };
        for step in 0..steps {
            let any_entry = |r: &mut SplitMix64| ViewEntry {
                id: id(r.range_u64(id_space)),
                age: age(r),
            };
            match r.index(6) {
                0 => {
                    let received: Vec<_> = (0..r.index(capacity + 3)).map(|_| any_entry(&mut r)).collect();
                    let mut sent = Vec::new();
                    for _ in 0..r.index(capacity + 1) {
                        sent.push(match view.len() {
                            len if len > 0 && r.chance(0.6) => view.iter().nth(r.index(len)).unwrap(),
                            _ => any_entry(&mut r),
                        });
                    }
                    view.merge(id(OWNER), &received, &sent, &mut index);
                    model_merge(&mut slots, capacity, &received, &sent);
                }
                1 => {
                    let entry = any_entry(&mut r);
                    if entry.id.raw() != OWNER {
                        let raw = packed(entry.id);
                        match slots.iter().position(|s| s.0 == raw) {
                            Some(pos) => slots[pos].1 = slots[pos].1.min(entry.age),
                            None if slots.len() < capacity => {
                                slots.push((raw, entry.age.min(View::AGE), false))
                            }
                            None => {}
                        }
                        view.insert(entry);
                    }
                }
                2 if !slots.is_empty() => {
                    let pos = r.index(slots.len());
                    let removed = view.remove_at(pos, id(u64::from(slots[pos].0)));
                    let (raw, age, _) = slots.remove(pos);
                    assert_eq!(removed, Some(ViewEntry { id: id(u64::from(raw)), age }));
                }
                3 => {
                    view.age_all();
                    for slot in &mut slots {
                        slot.1 = slot.1.saturating_add(1).min(View::AGE);
                    }
                }
                4 if !slots.is_empty() => {
                    for _ in 0..1 + r.index(slots.len()) {
                        let pos = r.index(slots.len());
                        view.mark(pos);
                        slots[pos].2 = true;
                    }
                }
                5 if r.chance(0.3) => {
                    view.clear_marks();
                    slots.iter_mut().for_each(|slot| slot.2 = false);
                }
                _ => {}
            }
            let at = format!("seed {seed} step {step}");
            let entries: Vec<(u64, u32)> = slots.iter().map(|s| (u64::from(s.0), s.1)).collect();
            assert_eq!(entries_of(&view), entries, "{at}");
            let marks: Vec<bool> = (0..view.len()).map(|pos| view.is_marked(pos)).collect();
            assert_eq!(marks, slots.iter().map(|s| s.2).collect::<Vec<_>>(), "{at}");
            assert!(view.marks().eq(marks.iter().copied()), "{at}: marks() against is_marked");
            let mut unmarked = view.clone();
            unmarked.clear_marks();
            assert!(unmarked.age_column().iter().all(|&age| u32::from(age) <= View::AGE), "{at}");
            assert_eq!(view, unmarked, "{at}: equality saw a mark");
            assert!(view.iter().eq(unmarked.iter()), "{at}");
            assert_eq!(view.oldest_at(), unmarked.oldest_at(), "{at}");
            assert_eq!(view.oldest(), reference::oldest(&unmarked), "{at}");
            let subset = |v: &View| {
                let (mut out, mut positions) = (Vec::new(), Vec::new());
                let skip = v.oldest_at().map(|(pos, _)| pos);
                v.random_subset_pooled(&mut SplitMix64::new(seed), 3, skip, 1, &mut positions, &mut out);
                out
            };
            assert_eq!(subset(&view), subset(&unmarked), "{at}: a mark shipped");
        }
    }

    proptest! {
        /// Marks follow their slots through every operation that moves
        /// or rewrites one, and nothing but the mark readers sees them.
        #[test]
        fn marks_live_while_their_id_stays_in_its_slot(seed in any::<u64>()) {
            mark_differential(seed, 40);
        }
    }
}
