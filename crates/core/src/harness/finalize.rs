//! The finalize phase of a cohort: discovery over the post-commit view,
//! then refresh, for one node at a time — with the per-shard memory that
//! lets most of that work be skipped within an oracle epoch, and the
//! counters that say how much was. Every oracle has an epoch, per-querier
//! noise included: each memo belongs to the node that queries, and a
//! per-querier answer is fixed for its staleness period.

use avmem_avmon::AvailabilityOracle;
use avmem_shuffle::ShuffleNode;
use avmem_sim::SimTime;
use avmem_util::{consistent_hash_batch, NodeId};

use super::cohort::{NodeOps, ShardScratch};
use super::SimOracle;
use crate::membership::{Membership, Neighbor, SliverScope};
use crate::predicate::ThresholdMemo;

/// Per-node epoch-stamped memos owned by one shard, indexed by the
/// node's offset inside the shard's slice. Stamps number the oracle
/// epochs the run's cohorts meet, from 1 ([`MaintCtx::stamp`]), so a
/// fresh column (0 = never stamped) is wholly invalid.
#[derive(Debug, Clone, Default)]
pub(super) struct FinalizeShardState {
    /// Per node: stamp under which `horizontal` below is memoized.
    pub(super) horizontal_stamp: Vec<u32>,
    /// Per node: memoized horizontal threshold at the stamped epoch.
    pub(super) horizontal: Vec<f64>,
    /// Per node: stamp under which the node's entire membership is known
    /// fully classified — the refresh short-circuit license.
    pub(super) classified: Vec<u32>,
    /// Per node: stamp under which the node's discovery memory — its
    /// `verdicts` row below, or the marks in its own view above the
    /// host limit, whichever regime runs — is valid.
    pub(super) seen_stamp: Vec<u32>,
    /// The verdict memory — the discovery filter of populations up to
    /// the harness's limit of 8 192 hosts ([`MaintCtx::verdict_memory`];
    /// this costs `N²/8` bytes, 8 MiB at the limit — `N²/4` with the
    /// `settled` rows a moving epoch adds). Per node an `N`-bit *skip row*,
    /// empty until the node's first discovery: bit `y` says the
    /// pair `(x, y)` needs no evaluation at the `seen_stamp` epoch — `y`
    /// is a neighbor already, or the pair classified to no insert (no
    /// sliver, or the oracle had no estimate). The whole filter is one
    /// bit test per view id, at index `y` of the node's own row — one or
    /// two cache lines per discovery's worth of probes, not a
    /// shard-global pair map, whose DRAM-sized probe/insert traffic costs
    /// more than the pipeline it skips.
    ///
    /// A discovery that finds the row new or under another stamp resets
    /// it — to zero, or to the node's `settled` row where there is one —
    /// and marks the node's current neighbors, once per node per epoch;
    /// every candidate it then evaluates sets its bit, inserted or not.
    /// That is exact: classification is a pure function of `(own_av,
    /// y_av, hash, thresholds)` and estimates are pure within an epoch, so
    /// a verdict holds wherever the pair has been in the meantime, and
    /// each pair is estimated and hashed at most once per epoch; only
    /// discovery inserts, so every neighbor is marked; and a neighbor
    /// that a refresh of the *same* epoch evicts was just classified to
    /// no insert by that very function — its standing bit is a correct
    /// verdict. A refresh at a newer epoch than the row's leaves the row
    /// stale-stamped, for the next discovery to reset.
    pub(super) verdicts: Vec<Vec<u64>>,
    /// The verdicts that outlive their epoch, kept where the verdict
    /// memory runs under an oracle whose epoch moves
    /// ([`MaintCtx::settle_above`]; unsized otherwise — a skip row that is
    /// never reset has nothing to carry over). Per node a second `N`-bit
    /// row beside the skip row: bit `y` says `H(x, y) > ceiling[x]`, and
    /// `ceiling[x]` is at least every threshold Eq. 1 can compare that
    /// hash with while the bit stands — the predicate's largest vertical
    /// threshold, and the largest horizontal threshold `x` has had at a
    /// discovery since the row was last zeroed. The left side of Eq. 1 is
    /// a function of ids, so such a pair classifies to no insert whatever
    /// the oracle comes to say about either node: a turnover resets the
    /// skip row to `settled | neighbors` instead of `0 | neighbors`. A
    /// discovery that finds `x`'s horizontal threshold above the ceiling
    /// raises the ceiling and zeroes the row *before* reading it, so no
    /// bit is ever read under a threshold it was not set against. Empty
    /// until the node's first discovery, and for good once the ceiling
    /// reaches 1 (no hash exceeds it).
    pub(super) settled: Vec<Vec<u64>>,
    /// Per node: the bound its `settled` bits were set against; 0 before
    /// the node's first discovery. Never lowered.
    pub(super) ceiling: Vec<f64>,
    // Above the host limit, where a `N/8`-byte row per node is not
    // affordable (125 KB at 10⁶ hosts) and a pair rarely re-enters a view
    // anyway, the no-insert memory is no state of this shard's: it is the
    // mark bit of the node's own view slots ([`ShuffleNode::mark_view`]).
    // A candidate that classifies to no insert at the `seen_stamp` epoch
    // marks its slot; the node's first discovery under a new stamp clears
    // every mark. A verdict lives while its id stays in its slot — an id
    // that leaves the view and comes back within the epoch re-runs the
    // pipeline (identically) — and costs no byte beyond the view.
}

impl FinalizeShardState {
    /// The per-node columns of a shard of `len` nodes, sized once, when
    /// the schedule is built. The skip rows only where the verdict memory
    /// runs (above the host limit the views carry the verdicts), and the
    /// settled rows only where they run (`settles`).
    pub(super) fn new(len: usize, verdict_memory: bool, settles: bool) -> Self {
        let rows = |runs: bool| if runs { vec![Vec::new(); len] } else { Vec::new() };
        FinalizeShardState {
            horizontal_stamp: vec![0; len],
            horizontal: vec![0.0; len],
            classified: vec![0; len],
            seen_stamp: vec![0; len],
            verdicts: rows(verdict_memory),
            settled: rows(settles),
            ceiling: if settles { vec![0.0; len] } else { Vec::new() },
        }
    }
}

/// The discovery-filter tag in the shard's id table, for the view-scoped
/// regime (the verdict memory needs no table): the id is already a
/// neighbor.
const TAG_MEMBER: u32 = 0;

/// Word and mask of bit `y` in a skip row.
pub(super) fn verdict_bit(y: usize) -> (usize, u64) {
    (y / 64, 1 << (y % 64))
}

/// Read-only context of one cohort's finalize phase, shared by every
/// shard worker: enough state to run discovery and refresh for any node
/// against its post-commit shuffle view, which the shard hands in beside
/// the membership being rewritten.
pub(super) struct MaintCtx<'a> {
    /// The predicate's threshold tables, hoisted once per cohort.
    pub(super) memo: &'a ThresholdMemo<'a>,
    /// The number of the oracle epoch at the cohort timestamp, counted
    /// from 1 over the epochs the run's cohorts meet (`MaintSchedule`
    /// numbers them): equal stamps, equal epochs, so every memo stamped
    /// with it holds for this cohort.
    pub(super) stamp: u32,
    /// The predicate's largest vertical threshold
    /// ([`ThresholdMemo::vertical_ceiling`]) where verdicts may settle — the
    /// verdict memory runs and the oracle's epoch can move, so skip rows
    /// are reset; `None` elsewhere, and no settled row exists.
    pub(super) settle_above: Option<f64>,
    pub(super) oracle: &'a SimOracle,
    /// Which no-insert memory discovery runs: exact per-pair verdict bits
    /// for populations up to the harness's limit of 8 192 hosts, marks in
    /// the view above it.
    pub(super) verdict_memory: bool,
    /// Population size: the width of a skip row, in bits.
    pub(super) nodes: usize,
    pub(super) now: SimTime,
}

impl MaintCtx<'_> {
    /// Runs one node's finalize ops in canonical intra-node order —
    /// discovery over the post-commit view first, then refresh — with
    /// thresholds memoized per epoch, a discovery filter that remembers
    /// this epoch's no-insert verdicts — one bit test per view id where
    /// the verdict memory runs; the shard id table and the view's marks
    /// are touched only in the view-scoped regime —, one batched oracle call
    /// and one batched pair-hash call per sub-op, and the refresh
    /// short-circuit. A node its oracle cannot see skips maintenance
    /// entirely.
    ///
    /// Bit-identical to evaluating Eq. 1 pair at a time (pinned against
    /// the test-only model, `harness/model.rs`): within one epoch
    /// estimates are pure in `(querier, target)`, the memoized source
    /// thresholds match `classify_hashed` decision for decision (pinned
    /// by the predicate memo tests), and a skipped refresh is one whose
    /// full pass would provably evict nothing, migrate nothing, and
    /// rewrite every cached availability unchanged — so skipping it
    /// touches nothing at all.
    pub(super) fn finalize_node(
        &self,
        ops: NodeOps,
        membership: &mut Membership,
        node: &mut ShuffleNode,
        scratch: &mut ShardScratch,
        shard_start: usize,
    ) {
        let i = ops.node as usize;
        let querier = NodeId::new(i as u64);
        let Some(own_av) = self.oracle.estimate(querier, querier, self.now) else {
            return;
        };
        let ShardScratch {
            cand_ids,
            cand_avs,
            cand_hashes,
            cand_pos,
            finalize: state,
            stats,
            migrants,
            pool,
            ..
        } = scratch;
        let (stamp, local) = (self.stamp, i - shard_start);
        let horizontal = if state.horizontal_stamp[local] == stamp {
            stats.memo_hits += 1;
            state.horizontal[local]
        } else {
            let h = self.memo.horizontal(own_av);
            state.horizontal_stamp[local] = stamp;
            state.horizontal[local] = h;
            stats.memo_misses += 1;
            h
        };
        let source = self.memo.source_with_horizontal(own_av, horizontal);
        if ops.discover {
            // Candidates first — estimates are pure within the cohort, so
            // collecting before classifying changes nothing — then one
            // batched oracle call for the lot. A candidate whose pair
            // already classified to no insert at this epoch is pruned
            // before the pipeline starts: every classification input (own
            // and candidate availability, pair hash, thresholds) is fixed
            // within the epoch, so the outcome cannot change.
            cand_ids.clear();
            // The node's skip row where the verdict memory runs; `None`
            // in the view-scoped regime, which filters through the shard's
            // id table instead.
            let mut skip_row = None;
            // The node's settled row and the ceiling its bits are set
            // against; `None` where nothing settles (no such regime, or a
            // ceiling no hash exceeds).
            let mut settled_row = None;
            if self.verdict_memory {
                let words = self.nodes.div_ceil(64);
                if let Some(vertical) = self.settle_above {
                    let (settled, ceiling) =
                        (&mut state.settled[local], &mut state.ceiling[local]);
                    let bound = vertical.max(horizontal);
                    if bound > *ceiling {
                        // The node's first discovery, or its horizontal
                        // threshold outgrew the bound its bits were set
                        // against: those pairs are open again.
                        stats.ceiling_raises += u64::from(!settled.is_empty());
                        *ceiling = bound;
                        // No hash exceeds a ceiling of 1: no row.
                        *settled = if bound < 1.0 { vec![0; words] } else { Vec::new() };
                    }
                    if !settled.is_empty() {
                        settled_row = Some((settled, *ceiling));
                    }
                }
                let row = &mut state.verdicts[local];
                if state.seen_stamp[local] != stamp {
                    // New, or another epoch's: forget every verdict
                    // that has not settled, keep skipping the
                    // neighbors.
                    row.clear();
                    match &settled_row {
                        Some((settled, _)) => {
                            row.extend_from_slice(settled);
                            stats.verdicts_carried +=
                                settled.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
                        }
                        None => row.resize(words, 0),
                    }
                    for &member in membership.columns(SliverScope::Both).ids {
                        let (word, mask) = verdict_bit(member as usize);
                        row[word] |= mask;
                    }
                    state.seen_stamp[local] = stamp;
                }
                for candidate in node.view().ids() {
                    let y = candidate.raw() as usize;
                    if y == i {
                        continue;
                    }
                    let (word, mask) = verdict_bit(y);
                    if row[word] & mask != 0 {
                        stats.discover_pruned += 1;
                    } else {
                        cand_ids.push(candidate);
                    }
                }
                skip_row = Some(row);
            } else {
                // The neighbors tagged once, each view candidate then
                // one load; a marked slot is a no-insert verdict of this
                // epoch — marks of another are cleared here, at the
                // node's first discovery under the stamp.
                if state.seen_stamp[local] != stamp {
                    node.clear_view_marks();
                    state.seen_stamp[local] = stamp;
                }
                cand_pos.clear();
                let tags = pool.id_table();
                tags.begin();
                for &member in membership.columns(SliverScope::Both).ids {
                    tags.set(member, TAG_MEMBER);
                }
                let view = node.view();
                for (pos, (candidate, marked)) in view.ids().zip(view.marks()).enumerate() {
                    let y = candidate.raw() as usize;
                    if y == i {
                        continue;
                    }
                    if marked || tags.get(y as u32).is_some() {
                        // A verdict of this epoch, or a neighbor.
                        stats.discover_pruned += 1;
                    } else {
                        cand_ids.push(candidate);
                        cand_pos.push(pos as u32);
                    }
                }
            }
            let was_empty = membership.is_empty();
            let mut inserted = false;
            if !cand_ids.is_empty() {
                self.oracle
                    .estimate_batch(querier, cand_ids, self.now, cand_avs);
                stats.batched_estimates += cand_ids.len() as u64;
                hash_batch(querier, cand_ids, cand_hashes);
                for (k, ((candidate, y_av), &hash)) in
                    cand_ids.iter().zip(cand_avs.iter()).zip(cand_hashes.iter()).enumerate()
                {
                    let y = candidate.raw() as usize;
                    let mut kept = false;
                    if let Some(y_av) = *y_av {
                        if let Some(sliver) = source.classify_hashed(y_av, hash) {
                            kept = true;
                            inserted |= membership.insert(
                                Neighbor {
                                    id: *candidate,
                                    cached_availability: y_av,
                                },
                                sliver,
                            );
                        }
                    }
                    if let Some(row) = skip_row.as_mut() {
                        // Evaluated: a neighbor now, or a no-insert
                        // verdict — either way nothing to evaluate again
                        // at this epoch; nor at any other, if the hash is
                        // out of every threshold's reach (strictly:
                        // `classify_hashed` inserts on `hash <= threshold`).
                        let (word, mask) = verdict_bit(y);
                        row[word] |= mask;
                        if let Some((settled, ceiling)) = settled_row.as_mut() {
                            if hash > *ceiling {
                                settled[word] |= mask;
                            }
                        }
                    } else if !kept {
                        node.mark_view(cand_pos[k] as usize);
                    }
                }
            }
            if inserted {
                // Inserts are classified at the current epoch: the list
                // stays uniformly stamped only if it was empty or already
                // at this epoch; otherwise it is mixed and must be fully
                // refreshed before any skip.
                let slot = &mut state.classified[local];
                *slot = if was_empty || *slot == stamp { stamp } else { 0 };
            }
        }
        if ops.refresh {
            if state.classified[local] == stamp {
                stats.refresh_skipped += 1;
            } else {
                stats.refresh_evaluated += 1;
                // Collection order (HS then VS) matches the order
                // `refresh_with` evaluates entries in, so the batched
                // estimates are consumed by a plain cursor.
                cand_ids.clear();
                cand_ids.extend(membership.neighbors(SliverScope::Both).map(|nb| nb.id));
                if !cand_ids.is_empty() {
                    self.oracle
                        .estimate_batch(querier, cand_ids, self.now, cand_avs);
                    stats.batched_estimates += cand_ids.len() as u64;
                    hash_batch(querier, cand_ids, cand_hashes);
                }
                let mut k = 0;
                membership.refresh_with(migrants, |id| {
                    debug_assert_eq!(cand_ids[k], id, "refresh order != collection order");
                    let (y_av, hash) = (cand_avs[k], cand_hashes[k]);
                    k += 1;
                    let y_av = y_av?; // oracle lost track: evict
                    let sliver = source.classify_hashed(y_av, hash)?;
                    Some((y_av, sliver))
                });
                state.classified[local] = stamp;
            }
        }
    }
}

/// `H(id(x), id(y))` for every `y` in `ys`, into `out` (cleared first),
/// in one batched call ([`consistent_hash_batch`]: sixteen AVX-512 lanes
/// for a list of ten pairs or more, two interleaved SHA-NI chains for a
/// shorter one). Each pair is hashed for the op that needs it, once per
/// estimate: a verdict is remembered, a hash is not.
fn hash_batch(x: NodeId, ys: &[NodeId], out: &mut Vec<f64>) {
    out.clear();
    out.resize(ys.len(), 0.0);
    consistent_hash_batch(x, ys.iter().copied(), out);
}

/// Cumulative counters of how much work the finalize phase skipped —
/// thresholds served from the epoch memo, refreshes short-circuited,
/// discovery candidates pruned — and how much it did in batches, exposed
/// through [`AvmemSim::finalize_stats`](super::AvmemSim::finalize_stats).
/// Observational: membership state does not depend on them. They are a
/// function of the run, not of how it was sharded — equal for every
/// engine and thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FinalizeStats {
    /// Finalize ops whose horizontal threshold came from the per-node
    /// epoch memo.
    pub memo_hits: u64,
    /// Finalize ops that recomputed (and re-stamped) the threshold.
    pub memo_misses: u64,
    /// Refresh ops short-circuited to a timestamp touch: the membership
    /// is unchanged since its last same-epoch classification.
    pub refresh_skipped: u64,
    /// Refresh ops that ran the full reclassification pass.
    pub refresh_evaluated: u64,
    /// View candidates (the node itself excluded) that the discovery
    /// filter dropped without an estimate: ids that are
    /// neighbors already, and pairs that classified to no insert earlier
    /// in the epoch — every such pair where the verdict memory runs, those
    /// that stayed in the view above the host limit. Either way
    /// `discover_pruned` plus discovery's share of `batched_estimates` is
    /// the number of candidates the views offered.
    pub discover_pruned: u64,
    /// Availability estimates served through batched oracle calls — and
    /// pair hashes, which finalize computes one per estimate.
    pub batched_estimates: u64,
    /// Verdicts that outlived their epoch: the settled bits (pair hash
    /// above every threshold the node can apply) copied into a skip row
    /// at each reset of it, summed. 0 where skip rows are never reset (a
    /// fixed epoch) or do not exist (above the host limit).
    pub verdicts_carried: u64,
    /// Settled rows zeroed because the node's horizontal threshold
    /// outgrew the ceiling their bits were set against.
    pub ceiling_raises: u64,
}

impl FinalizeStats {
    /// Folds another accumulator into this one.
    pub fn merge(&mut self, other: FinalizeStats) {
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
        self.refresh_skipped += other.refresh_skipped;
        self.refresh_evaluated += other.refresh_evaluated;
        self.discover_pruned += other.discover_pruned;
        self.batched_estimates += other.batched_estimates;
        self.verdicts_carried += other.verdicts_carried;
        self.ceiling_raises += other.ceiling_raises;
    }
}
