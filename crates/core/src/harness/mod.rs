//! The full-system simulation harness.
//!
//! [`AvmemSim`] binds every substrate together the way the paper's
//! evaluation does (§4): a churn trace drives node up/down state; an
//! availability oracle (exact, noisy, or full AVMON) answers availability
//! queries; the membership predicate builds each node's HS/VS lists —
//! either directly ("converged", the post-warm-up state the paper
//! snapshots) or by actually running the shuffle + discovery + refresh
//! sub-protocols through the event engine; and the management operations
//! execute over the resulting overlay with per-hop latencies.
//!
//! # Examples
//!
//! ```
//! use avmem::harness::{AvmemSim, SimConfig};
//! use avmem::ops::{AnycastConfig, AvailabilityTarget};
//! use avmem_sim::SimDuration;
//! use avmem_trace::OvernetModel;
//!
//! let trace = OvernetModel::default().hosts(120).days(1).generate(7);
//! let mut sim = AvmemSim::new(trace, SimConfig::paper_default(1));
//! sim.warm_up(SimDuration::from_hours(24));
//!
//! let initiator = sim
//!     .random_online_initiator(avmem::harness::InitiatorBand::Mid)
//!     .expect("some MID node online");
//! let outcome = sim.anycast(
//!     initiator,
//!     AvailabilityTarget::range(0.85, 0.95),
//!     AnycastConfig::paper_default(),
//! );
//! println!("delivered: {}", outcome.is_delivered());
//! ```

pub mod attack;
pub mod config;
pub mod hashes;
pub mod index;
pub mod oracle;
mod schedule;

pub use attack::AttackSeries;
pub use config::{
    MaintenanceEngine, MaintenanceMode, OracleChoice, PredicateChoice, SimConfig,
};
pub use hashes::{PairHashes, PairStoreStats, DEFAULT_HASH_BUDGET};
pub use index::CandidateIndex;
pub use oracle::SimOracle;

use std::sync::Arc;
use std::time::{Duration, Instant};

use avmem_avmon::AvailabilityOracle;
use avmem_metrics::{shard_lane, Counter, Histogram, Registry, Tracer};
use avmem_shuffle::{EntryPool, ShuffleConfig, ShuffleMessage, ShuffleNode, ShuffleProposal, View};
use avmem_sim::{Network, SimDuration, SimTime};
use avmem_trace::{AvailabilityPdf, ChurnTrace, OnlineIndex};
use avmem_util::parallel::{default_threads, par_chunks_mut, par_each_mut};
use avmem_util::{Availability, NodeId, Rng, ShardPartition, SplitMix64, Xoshiro256};
use serde::{Deserialize, Serialize};

use self::schedule::{MaintKind, PeriodicWheel};
use crate::graph::{NodeSnapshot, OverlaySnapshot};
use crate::membership::{Membership, Neighbor, NeighborColumns, SliverScope};
use crate::ops::anycast::{run_anycast, AnycastConfig, AnycastOutcome};
use crate::ops::multicast::{run_multicast, MulticastConfig, MulticastOutcome};
use crate::ops::target::AvailabilityTarget;
use crate::ops::world::OverlayWorld;
use crate::ops::OpScratch;
use crate::predicate::{
    AvmemPredicate, MembershipPredicate, NodeInfo, RandomPredicate, Sliver, SourceThresholds,
    ThresholdMemo,
};

/// The predicate actually in force inside a simulation.
#[derive(Debug, Clone)]
pub enum SimPredicate {
    /// AVMEM slivers.
    Avmem(AvmemPredicate),
    /// Consistent-random baseline.
    Random(RandomPredicate),
}

impl MembershipPredicate for SimPredicate {
    fn threshold(&self, x: Availability, y: Availability) -> f64 {
        match self {
            SimPredicate::Avmem(p) => p.threshold(x, y),
            SimPredicate::Random(p) => p.threshold(x, y),
        }
    }

    fn epsilon(&self) -> f64 {
        match self {
            SimPredicate::Avmem(p) => p.epsilon(),
            SimPredicate::Random(p) => p.epsilon(),
        }
    }
}

/// Per-rebuild memo over [`SimPredicate`]: AVMEM hoists its PDF tables
/// (see [`ThresholdMemo`]); the random baseline is flat already.
enum SimMemo<'p> {
    Avmem(ThresholdMemo<'p>),
    Random { p: f64, epsilon: f64 },
}

impl<'p> SimMemo<'p> {
    fn build(predicate: &'p SimPredicate) -> Self {
        match predicate {
            SimPredicate::Avmem(pred) => SimMemo::Avmem(pred.rebuild_memo()),
            SimPredicate::Random(pred) => SimMemo::Random {
                p: pred.p(),
                epsilon: pred.epsilon(),
            },
        }
    }

    fn source(&self, x: Availability) -> SimSource<'_> {
        match self {
            SimMemo::Avmem(memo) => SimSource::Avmem(memo.source(x)),
            SimMemo::Random { p, epsilon } => SimSource::Random {
                p: *p,
                epsilon: *epsilon,
                x,
            },
        }
    }

    /// The in-band threshold for source availability `x` — the only
    /// per-source integration left in [`SimMemo::source`], and therefore
    /// the piece worth caching across cohorts under a stable oracle
    /// epoch.
    fn horizontal_of(&self, x: Availability) -> f64 {
        match self {
            SimMemo::Avmem(memo) => memo.horizontal(x),
            SimMemo::Random { p, .. } => *p,
        }
    }

    /// Like [`SimMemo::source`], but with the horizontal threshold
    /// supplied by the caller (from [`SimMemo::horizontal_of`], possibly
    /// epoch-cached) instead of recomputed.
    fn source_with(&self, x: Availability, horizontal: f64) -> SimSource<'_> {
        match self {
            SimMemo::Avmem(memo) => {
                SimSource::Avmem(memo.source_with_horizontal(x, horizontal))
            }
            SimMemo::Random { p, epsilon } => SimSource::Random {
                p: *p,
                epsilon: *epsilon,
                x,
            },
        }
    }

    /// Per-candidate vertical thresholds aligned with `index` positions,
    /// when the vertical rule is source-independent (always for the
    /// random baseline; rules I.A/I.B for AVMEM). Computed once per
    /// rebuild so the VS hot loop is one load and one compare.
    fn vertical_table(&self, index: &CandidateIndex) -> Option<Vec<f64>> {
        match self {
            SimMemo::Avmem(memo) => {
                memo.source_independent_vertical(index.entries().iter().map(|&(v, _)| {
                    Availability::saturating(v)
                }))
            }
            SimMemo::Random { p, .. } => Some(vec![*p; index.len()]),
        }
    }
}

/// One source node's memoized thresholds; evaluation is bit-identical to
/// [`MembershipPredicate::classify_hashed`] of the simulation predicate.
enum SimSource<'m> {
    Avmem(SourceThresholds<'m>),
    Random { p: f64, epsilon: f64, x: Availability },
}

impl SimSource<'_> {
    fn epsilon(&self) -> f64 {
        match self {
            SimSource::Avmem(s) => s.epsilon(),
            SimSource::Random { epsilon, .. } => *epsilon,
        }
    }

    /// Threshold for in-band candidates (constant per source node).
    fn horizontal(&self) -> f64 {
        match self {
            SimSource::Avmem(s) => s.horizontal(),
            SimSource::Random { p, .. } => *p,
        }
    }

    /// Threshold for an out-of-band candidate.
    fn vertical(&self, y: Availability) -> f64 {
        match self {
            SimSource::Avmem(s) => s.vertical(y),
            SimSource::Random { p, .. } => *p,
        }
    }

    /// Eq. 1 with a caller-supplied hash; callers skip `y == x`.
    fn classify_hashed(&self, y: Availability, hash: f64) -> Option<Sliver> {
        match self {
            SimSource::Avmem(s) => s.classify_hashed(y, hash),
            SimSource::Random { p, epsilon, x } => (hash <= *p).then(|| {
                if x.distance(y) < *epsilon {
                    Sliver::Horizontal
                } else {
                    Sliver::Vertical
                }
            }),
        }
    }
}

/// Per-worker scratch for the converged rebuild: reused across all nodes
/// a worker processes, so the hot loop allocates nothing per node.
#[derive(Default)]
struct RebuildScratch {
    /// Pair-hash row (used only when hashes are not stored).
    row: Vec<f64>,
    /// Accepted horizontal candidates awaiting the decorrelation shuffle.
    hs: Vec<(usize, Availability)>,
    /// Accepted vertical candidates awaiting the decorrelation shuffle.
    vs: Vec<(usize, Availability)>,
}

/// Initiator selection bands used throughout §4.2: LOW ∈ [0, ⅓),
/// MID ∈ [⅓, ⅔), HIGH ∈ [⅔, 1].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InitiatorBand {
    /// True availability in `[0, 1/3)`.
    Low,
    /// True availability in `[1/3, 2/3)`.
    Mid,
    /// True availability in `[2/3, 1]`.
    High,
}

impl InitiatorBand {
    /// The availability interval of the band.
    pub fn bounds(self) -> (f64, f64) {
        match self {
            InitiatorBand::Low => (0.0, 1.0 / 3.0),
            InitiatorBand::Mid => (1.0 / 3.0, 2.0 / 3.0),
            InitiatorBand::High => (2.0 / 3.0, 1.0 + f64::EPSILON),
        }
    }

    /// Whether an availability falls inside the band.
    pub fn contains(self, av: Availability) -> bool {
        let (lo, hi) = self.bounds();
        av.value() >= lo && av.value() < hi
    }
}

/// Seeds handed to a node bootstrapping an empty coarse view (stands in
/// for a bootstrap service answering with a few live peers).
const BOOTSTRAP_SEEDS: usize = 3;

/// Below this many events, a cohort's shard phases run on the calling
/// thread even when the engine has worker threads: waking the pool and
/// meeting it at four barriers (≈ 10–17 µs a cohort) costs more than the
/// cohort's work. Chosen from a sweep of the `overnet-day` spec at 2
/// shards × 2 threads on a 2-CPU box, pool against inline, maintenance
/// seconds per 481 cohorts: 90 events a cohort (1 442 hosts) 0.045 vs
/// 0.041, 180 events 0.126 vs 0.120, 360 events 0.349 vs 0.357, 721
/// events 0.751 vs 1.147, 1 442 events 2.09 vs 3.59 — the pool loses
/// 5–10 % up to 180 events, breaks even near 360 and wins 35 % at 721.
const INLINE_COHORT_EVENTS: usize = 256;

/// Purpose tags separating the counter-keyed RNG streams of event-driven
/// maintenance. Every stream is `SplitMix64::keyed(&[run_seed, TAG,
/// node, epoch])`: determinism is a property of the key, never of which
/// thread or in which order the stream is drawn. The owning shard is
/// deliberately *not* part of the key — the node index already implies
/// it under any fixed partition, and keying by shard would make every
/// draw depend on the shard count, breaking the bit-equality of runs
/// at different `S`.
const STREAM_STAGGER_TICK: u64 = 1;
const STREAM_STAGGER_REFRESH: u64 = 2;
const STREAM_SHUFFLE: u64 = 3;
const STREAM_BOOTSTRAP: u64 = 4;

/// The discovery/refresh work one node performs in the finalize phase of
/// a cohort. Intra-node order is canonical — discovery (tick) before
/// refresh — so finalize depends only on *which* events fired, never on
/// their position in any queue.
#[derive(Debug, Clone, Copy)]
struct NodeOps {
    node: u32,
    discover: bool,
    refresh: bool,
}

/// A shuffle request crossing from its initiator's shard to its
/// responder's shard: the initiator id (the commit-order key), the
/// responder, and the request message captured at propose time.
#[derive(Debug)]
struct RequestMsg {
    initiator: u32,
    responder: u32,
    request: ShuffleMessage,
}

/// A shuffle reply traveling back to the initiator's shard.
#[derive(Debug)]
struct ReplyMsg {
    initiator: u32,
    reply: ShuffleMessage,
}

/// Per-shard scratch state for one cohort: the shard's work lists, its
/// outgoing message batches (indexed by destination shard), and reusable
/// per-worker buffers. Persisted across cohorts so the hot loop stops
/// allocating once the buffers reach cohort size.
#[derive(Debug, Default)]
struct ShardScratch {
    /// Online ticking nodes of this shard's cohort slice, sorted.
    ticks: Vec<u32>,
    /// Online refreshing nodes, sorted.
    refreshes: Vec<u32>,
    /// Per-node finalize ops, ascending by node.
    ops: Vec<NodeOps>,
    /// Outgoing shuffle requests, batched by the responder's shard.
    req_out: Vec<Vec<RequestMsg>>,
    /// Outgoing replies, batched by the initiator's shard.
    reply_out: Vec<Vec<ReplyMsg>>,
    /// Timed-out proposals (offline target), applied by this shard.
    timeouts: Vec<(u32, NodeId)>,
    /// Bootstrap-sample scratch.
    seeds: Vec<u32>,
    /// Refresh-migration scratch.
    migrants: Vec<(Neighbor, Sliver)>,
    /// Candidate ids collected for one batched oracle call.
    cand_ids: Vec<NodeId>,
    /// Batched estimates, aligned with `cand_ids`.
    cand_avs: Vec<Option<Availability>>,
    /// Pair hashes of the querier against `cand_ids`, aligned with it.
    cand_hashes: Vec<f64>,
    /// Next-period view-scoped no-insert list under construction (one
    /// discovery op at a time; reused allocation). Unused where the
    /// verdict memory runs.
    seen_scratch: Vec<u32>,
    /// Epoch-stamped per-node memos for the finalize fast path.
    fast: FinalizeShardState,
    /// Fast-path effectiveness counters, drained after every cohort.
    stats: FinalizeStats,
    /// Pooled shuffle-entry buffers: proposal, reply, and in-flight
    /// vectors cycle through here instead of the allocator. Its id table
    /// (8 bytes per id of the population) serves every view merge of the
    /// commit phase and, outside the verdict-memory regime, every
    /// discovery filter of the finalize phase.
    pool: EntryPool,
    /// Commit fast path: per-responder chain heads, indexed by the
    /// responder's offset in the shard (`u32::MAX` = no requests).
    /// Only touched slots are reset after each cohort.
    bucket_head: Vec<u32>,
    /// Per-responder chain tails, parallel to `bucket_head`.
    bucket_tail: Vec<u32>,
    /// Chain links, parallel to the inbound request batch.
    bucket_next: Vec<u32>,
    /// Responder offsets with inbound requests, in first-touch order.
    bucket_touched: Vec<u32>,
}

/// Per-node epoch-stamped memos owned by one shard, indexed by the
/// node's offset inside the shard's slice. Stamps are `epoch + 1`
/// (0 = never stamped), so freshly zeroed state is wholly invalid and
/// no epoch value can collide with "unset".
#[derive(Debug, Default)]
struct FinalizeShardState {
    /// Per node: stamp under which `horizontal` below is memoized.
    /// Stamps are compact `u32` (see [`compact_stamp`]).
    horizontal_stamp: Vec<u32>,
    /// Per node: memoized horizontal threshold at the stamped epoch.
    horizontal: Vec<f64>,
    /// Per node: stamp under which the node's entire membership is known
    /// fully classified — the refresh short-circuit license.
    classified: Vec<u32>,
    /// Per node: stamp under which the node's discovery memory below —
    /// its `verdicts` row or its `seen` list, whichever regime runs — is
    /// valid.
    seen_stamp: Vec<u32>,
    /// The verdict memory — the discovery filter where the pair space
    /// fits the hash budget ([`PairHashes::is_cached`]: `8·N²` bytes
    /// within [`SimConfig::hash_budget`]; this costs `N²/8`, 1/64 of the
    /// matrix the budget stands for). Per node an `N`-bit *skip row*,
    /// empty until the node's first stamped discovery: bit `y` says the
    /// pair `(x, y)` needs no evaluation at the `seen_stamp` epoch — `y`
    /// is a neighbor already, or the pair classified to no insert (no
    /// sliver, or the oracle had no estimate). The whole filter is one
    /// bit test per view id, at index `y` of the node's own row — one or
    /// two cache lines per discovery's worth of probes, not a
    /// shard-global pair map, whose DRAM-sized probe/insert traffic costs
    /// more than the pipeline it skips.
    ///
    /// A discovery that finds the row new or under another stamp zeroes
    /// it and marks the node's current neighbors — once per node per
    /// epoch; every candidate it then evaluates sets its bit, inserted or
    /// not. That is exact: classification is a pure function of `(own_av,
    /// y_av, hash, thresholds)` and estimates are pure within an epoch, so
    /// a verdict holds wherever the pair has been in the meantime, and
    /// each pair is estimated and hashed at most once per epoch; only
    /// discovery inserts, so every neighbor is marked; and a neighbor
    /// that a refresh of the *same* epoch evicts was just classified to
    /// no insert by that very function — its standing bit is a correct
    /// verdict. A refresh at a newer epoch than the row's leaves the row
    /// stale-stamped, for the next discovery to reset.
    verdicts: Vec<Vec<u64>>,
    /// The no-insert memory beyond the budget, where a `N/8`-byte row
    /// per node is not affordable (125 KB at 10⁶ hosts) and a pair
    /// rarely re-enters a view anyway: per node, the candidate ids (a
    /// set, in no particular order) of the *current view* that classified
    /// to no insert at the `seen_stamp` epoch, rebuilt every discovery.
    /// The list is view-sized; a discovery tags its ids — and the node's
    /// neighbors — in the shard's id table once and then probes the table
    /// per candidate. An id that left the view drops out and, if it comes
    /// back within the epoch, re-runs the pipeline (identically).
    seen: Vec<Vec<u32>>,
}

impl FinalizeShardState {
    /// Sizes the per-node columns for a shard of `len` nodes. Only the
    /// running regime's no-insert column is sized: the other one stays
    /// unallocated.
    fn ensure_len(&mut self, len: usize, verdict_memory: bool) {
        if self.horizontal.len() != len {
            self.horizontal_stamp.resize(len, 0);
            self.horizontal.resize(len, 0.0);
            self.classified.resize(len, 0);
            self.seen_stamp.resize(len, 0);
            if verdict_memory {
                self.verdicts.resize_with(len, Vec::new);
            } else {
                self.seen.resize_with(len, Vec::new);
            }
        }
    }
}

/// Discovery-filter tags in the shard's id table, for the view-scoped
/// regime and for oracles without an epoch (the verdict memory needs no
/// table): the id is already a neighbor, or (stamped only) it classified
/// to no insert earlier in this epoch.
const TAG_MEMBER: u32 = 0;
const TAG_NO_INSERT: u32 = 1;

/// Word and mask of bit `y` in a skip row.
fn verdict_bit(y: usize) -> (usize, u64) {
    (y / 64, 1 << (y % 64))
}

/// Epoch → nonzero compact stamp for the finalize memos: `epoch + 1` as
/// a `u32`, so freshly zeroed state never matches. Oracle epochs count
/// churn changes (~10^5 per simulated week at 10^6 hosts) and stay far
/// below the 32-bit range; one that does not fit gets no stamp, and its
/// cohort runs without cross-cohort memoization (like an oracle with no
/// epoch) — a wrapped stamp would alias an old epoch's and license
/// reuse of its stale memos.
fn compact_stamp(epoch: u64) -> Option<u32> {
    u32::try_from(epoch).ok()?.checked_add(1)
}

impl ShardScratch {
    /// Starts a cohort at time `t`: sizes the outgoing batch tables and
    /// rebuilds the work lists — `due` is this shard's slice of the
    /// cohort ([`PeriodicWheel::due`]), of which the nodes online at `t`
    /// get work.
    fn begin_cohort<'w>(
        &mut self,
        shards: usize,
        due: impl Iterator<Item = (MaintKind, &'w [u32])>,
        trace: &ChurnTrace,
        t: SimTime,
    ) {
        if self.req_out.len() != shards {
            self.req_out.resize_with(shards, Vec::new);
            self.reply_out.resize_with(shards, Vec::new);
        }
        self.ticks.clear();
        self.refreshes.clear();
        for (kind, nodes) in due {
            let list = match kind {
                MaintKind::Tick => &mut self.ticks,
                MaintKind::Refresh => &mut self.refreshes,
            };
            list.extend(nodes.iter().filter(|&&i| trace.is_online(i as usize, t)));
        }
        self.build_ops();
    }

    /// Drains the cohort's fast-path counters for accumulation on the
    /// simulation.
    fn take_stats(&mut self) -> FinalizeStats {
        std::mem::take(&mut self.stats)
    }

    /// Merges the sorted tick/refresh lists into per-node finalize ops
    /// (canonical discover-then-refresh order inside each node).
    fn build_ops(&mut self) {
        self.ticks.sort_unstable();
        self.refreshes.sort_unstable();
        self.ops.clear();
        let (mut a, mut b) = (0, 0);
        while a < self.ticks.len() || b < self.refreshes.len() {
            let tick = self.ticks.get(a).copied();
            let refresh = self.refreshes.get(b).copied();
            let ops = match (tick, refresh) {
                (Some(tn), Some(rn)) if tn == rn => {
                    a += 1;
                    b += 1;
                    NodeOps {
                        node: tn,
                        discover: true,
                        refresh: true,
                    }
                }
                (Some(tn), Some(rn)) if tn < rn => {
                    a += 1;
                    NodeOps {
                        node: tn,
                        discover: true,
                        refresh: false,
                    }
                }
                (Some(tn), None) => {
                    a += 1;
                    NodeOps {
                        node: tn,
                        discover: true,
                        refresh: false,
                    }
                }
                (_, Some(rn)) => {
                    b += 1;
                    NodeOps {
                        node: rn,
                        discover: false,
                        refresh: true,
                    }
                }
                (None, None) => unreachable!("loop condition"),
            };
            self.ops.push(ops);
        }
    }

    /// Counting-bucket placement of an inbound request batch: chains the
    /// messages by responder offset without sorting. `responder_off`
    /// yields the responder's offset within the shard for message `idx`.
    ///
    /// Inboxes arrive globally ascending by initiator (each source
    /// shard's outbox is built over its sorted tick list, and shards own
    /// ascending contiguous id ranges, so ascending-shard concatenation
    /// preserves the order), so appending at each chain's tail keeps
    /// every responder's chain in ascending-initiator order — the
    /// canonical commit order the serial reference sorts into.
    fn chain_by_responder<F: Fn(usize) -> usize>(
        &mut self,
        shard_len: usize,
        count: usize,
        responder_off: F,
    ) {
        if self.bucket_head.len() != shard_len {
            self.bucket_head.clear();
            self.bucket_head.resize(shard_len, u32::MAX);
            self.bucket_tail.clear();
            self.bucket_tail.resize(shard_len, u32::MAX);
        }
        self.bucket_next.clear();
        self.bucket_next.resize(count, u32::MAX);
        self.bucket_touched.clear();
        for idx in 0..count {
            let r = responder_off(idx);
            debug_assert!(r < shard_len, "responder outside shard");
            if self.bucket_head[r] == u32::MAX {
                self.bucket_head[r] = idx as u32;
                self.bucket_touched.push(r as u32);
            } else {
                self.bucket_next[self.bucket_tail[r] as usize] = idx as u32;
            }
            self.bucket_tail[r] = idx as u32;
        }
    }
}

/// Phase A of one batch, for one online ticking node: bootstrap an empty
/// coarse view from the online index, then compute *and apply* the
/// node's shuffle proposal. Touches only `shuffle` (the node's own
/// state); all randomness is counter-keyed by `(run_seed, node,
/// timestamp)`, so any worker on any thread produces the same result.
fn propose_tick(
    seed: u64,
    online: &OnlineIndex,
    now: SimTime,
    i: usize,
    shuffle: &mut ShuffleNode,
    seeds: &mut Vec<u32>,
    pool: &mut EntryPool,
) -> Option<ShuffleProposal> {
    if shuffle.view().is_empty() {
        let mut rng = SplitMix64::keyed(&[seed, STREAM_BOOTSTRAP, i as u64, now.as_millis()]);
        online.sample_excluding(&mut rng, BOOTSTRAP_SEEDS, i, seeds);
        shuffle.bootstrap(seeds.iter().map(|&j| NodeId::new(j as u64)));
    }
    let mut rng = SplitMix64::keyed(&[seed, STREAM_SHUFFLE, i as u64, now.as_millis()]);
    let proposal = shuffle.propose_with(&mut rng, pool)?;
    shuffle.apply_with(&proposal, pool);
    Some(proposal)
}

/// Shared per-cohort fast-path state: the predicate memo (threshold
/// tables hoisted once per cohort) and the oracle's change epoch.
#[derive(Clone, Copy)]
struct FastCtx<'a> {
    memo: &'a SimMemo<'a>,
    /// Oracle epoch at the cohort timestamp. `None` for per-querier
    /// noise: thresholds are still memoized within each finalize op, but
    /// nothing may be cached across cohorts and no refresh may be
    /// skipped (estimates can change without any epoch tick).
    epoch: Option<u64>,
}

/// Read-only simulation context for finalize-phase workers: enough state
/// to run discovery and refresh for any node against the post-commit
/// shuffle views, without touching the membership being rewritten.
struct MaintCtx<'a> {
    predicate: &'a SimPredicate,
    oracle: &'a SimOracle,
    hashes: &'a PairHashes,
    shuffles: &'a [ShuffleNode],
    now: SimTime,
    /// Fast-path context, `None` when [`SimConfig::finalize_fast`] is
    /// off — workers then run the reference pair-at-a-time evaluation.
    fast: Option<FastCtx<'a>>,
}

impl MaintCtx<'_> {
    fn estimate(&self, querier: usize, target: usize) -> Option<Availability> {
        self.oracle.estimate(
            NodeId::new(querier as u64),
            NodeId::new(target as u64),
            self.now,
        )
    }

    /// Reference discovery pass over node `i`'s coarse view, straight off
    /// the view iterator — one oracle estimate and one full predicate
    /// evaluation per candidate.
    fn discover_into(&self, i: usize, own: NodeInfo, membership: &mut Membership) {
        for candidate in self.shuffles[i].view().ids() {
            let y = candidate.raw() as usize;
            if y == i || membership.contains(candidate) {
                continue;
            }
            let Some(y_av) = self.estimate(i, y) else {
                continue;
            };
            let info = NodeInfo::new(candidate, y_av);
            if let Some(sliver) =
                self.predicate
                    .classify_hashed(own, info, self.hashes.get(i, y), 0.0)
            {
                membership.insert(
                    Neighbor {
                        id: candidate,
                        cached_availability: y_av,
                        added_at: self.now,
                        refreshed_at: self.now,
                    },
                    sliver,
                );
            }
        }
    }

    /// Reference refresh pass over node `i`'s lists, reclassifying in
    /// place (see [`Membership::refresh_with`]); `migrants` is reusable
    /// scratch.
    fn refresh_into(
        &self,
        i: usize,
        own: NodeInfo,
        membership: &mut Membership,
        migrants: &mut Vec<(Neighbor, Sliver)>,
    ) {
        membership.refresh_with(self.now, migrants, |id| {
            let y = id.raw() as usize;
            let y_av = self.estimate(i, y)?; // oracle lost track: evict
            let sliver =
                self.predicate
                    .classify_hashed(own, NodeInfo::new(id, y_av), self.hashes.get(i, y), 0.0)?;
            Some((y_av, sliver))
        });
    }

    /// Runs one node's finalize ops in canonical intra-node order:
    /// discovery over the post-commit view first, then refresh. The
    /// node's own estimate is resolved once up front — both sub-ops used
    /// to query it independently — and a node its oracle cannot see
    /// skips maintenance entirely, exactly as before.
    fn finalize_node(
        &self,
        ops: NodeOps,
        membership: &mut Membership,
        scratch: &mut ShardScratch,
        shard_start: usize,
        shard_len: usize,
    ) {
        let i = ops.node as usize;
        let Some(own_av) = self.estimate(i, i) else {
            return;
        };
        match self.fast {
            Some(fast) => self.finalize_node_fast(
                fast, ops, own_av, membership, scratch, shard_start, shard_len,
            ),
            None => {
                let own = NodeInfo::new(NodeId::new(i as u64), own_av);
                if ops.discover {
                    self.discover_into(i, own, membership);
                }
                if ops.refresh {
                    self.refresh_into(i, own, membership, &mut scratch.migrants);
                }
            }
        }
    }

    /// Fast-path finalize for one node: memoized thresholds (epoch-cached
    /// when the oracle exposes an epoch), a discovery filter that
    /// remembers this epoch's no-insert verdicts — one bit test per view
    /// id where the verdict memory runs; the shard id table is touched
    /// only in the view-scoped regime and without an epoch —, one batched
    /// oracle call and one batched pair-hash read per sub-op, and the
    /// refresh short-circuit.
    ///
    /// Bit-identical to the reference path (pinned by the fast-vs-slow
    /// legs of the `event_driven_equivalence` suite): within one epoch
    /// estimates are pure in `(querier, target)`, the memoized source
    /// thresholds match `classify_hashed` decision for decision (pinned
    /// by the predicate memo tests), and a skipped refresh is one whose
    /// full pass would provably evict nothing, migrate nothing, and
    /// rewrite every cached availability unchanged — only `refreshed_at`
    /// advances, which [`Membership::touch_refreshed`] replays.
    #[allow(clippy::too_many_arguments)]
    fn finalize_node_fast(
        &self,
        fast: FastCtx<'_>,
        ops: NodeOps,
        own_av: Availability,
        membership: &mut Membership,
        scratch: &mut ShardScratch,
        shard_start: usize,
        shard_len: usize,
    ) {
        let i = ops.node as usize;
        let ShardScratch {
            cand_ids,
            cand_avs,
            cand_hashes,
            seen_scratch,
            fast: state,
            stats,
            migrants,
            pool,
            ..
        } = scratch;
        // Stamps are `epoch + 1`, so zeroed state never matches.
        let stamp = fast.epoch.and_then(compact_stamp);
        let local = i - shard_start;
        // Which no-insert memory discovery runs: exact per-pair verdict
        // bits where the pair space fits the hash budget, the view-scoped
        // list beyond it. Without a stamp nothing outlives the op and no
        // per-node state is sized at all.
        let verdict_memory = self.hashes.is_cached();
        if stamp.is_some() {
            state.ensure_len(shard_len, verdict_memory);
        }
        let horizontal = match stamp {
            Some(stamp) => {
                if state.horizontal_stamp[local] == stamp {
                    stats.memo_hits += 1;
                    state.horizontal[local]
                } else {
                    let h = fast.memo.horizontal_of(own_av);
                    state.horizontal_stamp[local] = stamp;
                    state.horizontal[local] = h;
                    stats.memo_misses += 1;
                    h
                }
            }
            None => {
                stats.memo_bypassed += 1;
                fast.memo.horizontal_of(own_av)
            }
        };
        let source = fast.memo.source_with(own_av, horizontal);
        let querier = NodeId::new(i as u64);
        if ops.discover {
            // Candidates first — estimates are pure within the cohort, so
            // collecting before classifying changes nothing — then one
            // batched oracle call for the lot. A candidate whose pair
            // already classified to no insert at this epoch is pruned
            // before the pipeline starts: every classification input (own
            // and candidate availability, pair hash, thresholds) is fixed
            // within the epoch, so the outcome cannot change.
            cand_ids.clear();
            let view = self.shuffles[i].view();
            // The node's skip row where the verdict memory runs; `None`
            // in the view-scoped regime and without a stamp, which filter
            // through the shard's id table instead.
            let mut skip_row = None;
            match stamp {
                Some(stamp) if verdict_memory => {
                    let row = &mut state.verdicts[local];
                    if state.seen_stamp[local] != stamp {
                        // New, or another epoch's: forget every verdict,
                        // keep skipping the neighbors.
                        row.clear();
                        row.resize(self.shuffles.len().div_ceil(64), 0);
                        for &member in membership.columns(SliverScope::Both).ids {
                            let (word, mask) = verdict_bit(member as usize);
                            row[word] |= mask;
                        }
                        state.seen_stamp[local] = stamp;
                    }
                    for candidate in view.ids() {
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
                }
                _ => {
                    // One tag per id the filter must recognize, written
                    // once; each view candidate then costs one load. The
                    // same-epoch no-insert list is disjoint from the
                    // neighbors (an id that classified to no insert
                    // cannot have become a neighbor within the same
                    // epoch) and rebuilt as we go: pruned repeats carry
                    // over, novel no-inserts join after classification.
                    seen_scratch.clear();
                    let tags = pool.id_table();
                    tags.begin();
                    for &member in membership.columns(SliverScope::Both).ids {
                        tags.set(member, TAG_MEMBER);
                    }
                    if stamp.is_some_and(|stamp| state.seen_stamp[local] == stamp) {
                        for &y in &state.seen[local] {
                            debug_assert_eq!(tags.get(y), None, "no-insert id {y} is a neighbor");
                            tags.set(y, TAG_NO_INSERT);
                        }
                    }
                    for candidate in view.ids() {
                        let y = candidate.raw() as usize;
                        if y == i {
                            continue;
                        }
                        match tags.get(y as u32) {
                            Some(TAG_NO_INSERT) => {
                                stats.discover_pruned += 1;
                                seen_scratch.push(y as u32);
                            }
                            // A neighbor. Without a stamp the counter
                            // stays 0: no filter outlives the op.
                            Some(_) => stats.discover_pruned += u64::from(stamp.is_some()),
                            None => cand_ids.push(candidate),
                        }
                    }
                }
            }
            let was_empty = membership.is_empty();
            let mut inserted = false;
            if !cand_ids.is_empty() {
                self.oracle
                    .estimate_batch(querier, cand_ids, self.now, cand_avs);
                stats.batched_estimates += cand_ids.len() as u64;
                stats.pair_hash.read(self.hashes, i, cand_ids, cand_hashes);
                for ((candidate, y_av), &hash) in
                    cand_ids.iter().zip(cand_avs.iter()).zip(cand_hashes.iter())
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
                                    added_at: self.now,
                                    refreshed_at: self.now,
                                },
                                sliver,
                            );
                        }
                    }
                    if let Some(row) = skip_row.as_mut() {
                        // Evaluated: a neighbor now, or a no-insert
                        // verdict — either way nothing to evaluate again
                        // at this epoch.
                        let (word, mask) = verdict_bit(y);
                        row[word] |= mask;
                    } else if !kept && stamp.is_some() {
                        seen_scratch.push(y as u32);
                    }
                }
            }
            if let Some(stamp) = stamp {
                if skip_row.is_none() {
                    // Entries that left the view drop out here. View ids
                    // are unique, so the list is a set as built.
                    std::mem::swap(&mut state.seen[local], seen_scratch);
                    state.seen_stamp[local] = stamp;
                }
                if inserted {
                    // Inserts are classified at the current epoch: the
                    // list stays uniformly stamped only if it was empty
                    // or already at this epoch; otherwise it is mixed
                    // and must be fully refreshed before any skip.
                    let slot = &mut state.classified[local];
                    *slot = if was_empty || *slot == stamp { stamp } else { 0 };
                }
            }
        }
        if ops.refresh {
            let skip = match stamp {
                Some(stamp) => state.classified[local] == stamp,
                None => false,
            };
            if skip {
                stats.refresh_skipped += 1;
                membership.touch_refreshed(self.now);
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
                    stats.pair_hash.read(self.hashes, i, cand_ids, cand_hashes);
                }
                let mut k = 0;
                membership.refresh_with(self.now, migrants, |id| {
                    debug_assert_eq!(cand_ids[k], id, "refresh order != collection order");
                    let (y_av, hash) = (cand_avs[k], cand_hashes[k]);
                    k += 1;
                    let y_av = y_av?; // oracle lost track: evict
                    let sliver = source.classify_hashed(y_av, hash)?;
                    Some((y_av, sliver))
                });
                if let Some(stamp) = stamp {
                    state.classified[local] = stamp;
                }
            }
        }
    }
}

/// The persistent event-driven maintenance schedule, sharded.
///
/// Built once, on the first event-driven advance, and kept across
/// [`AvmemSim::warm_up`] / [`AvmemSim::advance_to`] calls: the wheel
/// carries every node's tick and refresh phase forward, so resuming
/// maintenance costs nothing instead of the `O(N)` schedule rebuild (and
/// re-staggering) each call used to pay. A periodic protocol's phase is a
/// property of the node, not of how the driver chops the timeline into
/// advances — `warm_up(1h)` twice is identical to `warm_up(2h)` once.
///
/// Each shard owns its slice of the population: its slice of every
/// cohort the wheel pops ([`PeriodicWheel::due`]) and its scratch (work
/// lists + outgoing message batches). The slices of one cohort are
/// exactly the cohort a single global event queue would pop, split by
/// owner.
#[derive(Debug)]
struct MaintSchedule {
    wheel: PeriodicWheel,
    part: ShardPartition,
    /// Per-shard phase scratch, reused across batches.
    scratches: Vec<ShardScratch>,
    /// Per-destination-shard inbound request batches (transpose buffer).
    req_in: Vec<Vec<RequestMsg>>,
    /// Per-destination-shard inbound reply batches (transpose buffer).
    reply_in: Vec<Vec<ReplyMsg>>,
}

impl MaintSchedule {
    /// Builds the initial schedule: every node's tick and refresh
    /// staggered on the period lattices from `now` on.
    fn build(
        seed: u64,
        n: usize,
        shards: usize,
        now: SimTime,
        protocol_period: SimDuration,
        refresh_period: SimDuration,
    ) -> Self {
        let part = ShardPartition::new(n, shards);
        let shards = part.shards();
        MaintSchedule {
            wheel: PeriodicWheel::build(seed, part, now, protocol_period, refresh_period),
            part,
            scratches: (0..shards).map(|_| ShardScratch::default()).collect(),
            req_in: (0..shards).map(|_| Vec::new()).collect(),
            reply_in: (0..shards).map(|_| Vec::new()).collect(),
        }
    }
}

/// Phase names of the harness [`Tracer`], index-aligned with the
/// `PH_*` constants. Spans are keyed `(phase, lane)`: lane 0 is the
/// coordinator (whose totals are the [`PhaseTimings`] wall-clock), the
/// other lanes accumulate shard-worker busy time.
const PHASES: &[&str] = &["oracle", "propose", "commit", "finalize"];
const PH_ORACLE: usize = 0;
const PH_PROPOSE: usize = 1;
const PH_COMMIT: usize = 2;
const PH_FINALIZE: usize = 3;

/// Cumulative wall-clock spent in each phase of maintenance, plus the
/// number of timestamp cohorts processed. Exposed through
/// [`AvmemSim::phase_timings`] so drivers (the scenario runner, the
/// shard-scaling bench) can report where a run's time went — in
/// particular what share the commit/merge barrier claims. Assembled
/// from the harness's span [`Tracer`] (coordinator lane).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Oracle advancement + online-index refresh (per distinct cohort
    /// timestamp; includes AVMON ping/aggregate processing).
    pub oracle: Duration,
    /// Propose phase: bootstrap + shuffle proposal, per ticking node.
    pub propose: Duration,
    /// Commit phase: message-batch transpose and request/reply/timeout
    /// application.
    pub commit: Duration,
    /// Finalize phase: discovery + refresh over post-commit views. In
    /// converged mode, the predicate rebuild is accounted here.
    pub finalize: Duration,
    /// Timestamp cohorts processed.
    pub cohorts: u64,
}

/// Where the finalize fast path's pair hashes came from. Both counts
/// are properties of the run, not of how it was sharded: each finalize
/// op reads its whole candidate list one way or the other.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairHashStats {
    /// Pairs hashed in a batch for the op that needed them — every pair
    /// of an event-driven run, in either store: the fast path builds no
    /// dense rows.
    pub hashed: u64,
    /// Pairs read from a dense row something else had already built (a
    /// shared [`PairHashes::compute`] matrix, a converged rebuild before
    /// the run, the reference finalize): 0 in every scenario run.
    pub delegated: u64,
}

impl PairHashStats {
    /// `H(id(x), id(y))` for the candidates `ys` into `out`
    /// ([`PairHashes::gather`]), counted by where they came from.
    fn read(&mut self, hashes: &PairHashes, x: usize, ys: &[NodeId], out: &mut Vec<f64>) {
        if hashes.gather(x, ys, out) {
            self.delegated += ys.len() as u64;
        } else {
            self.hashed += ys.len() as u64;
        }
    }
}

/// Cumulative effectiveness counters of the finalize-phase fast path
/// (see [`SimConfig::finalize_fast`]), exposed through
/// [`AvmemSim::finalize_stats`]. Purely observational: the counters sit
/// outside every equivalence contract — membership state stays
/// bit-identical whatever they read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FinalizeStats {
    /// Finalize ops whose horizontal threshold came from the per-node
    /// epoch memo.
    pub memo_hits: u64,
    /// Finalize ops that recomputed (and re-stamped) the threshold.
    pub memo_misses: u64,
    /// Finalize ops evaluated without epoch memoization (per-querier
    /// noise exposes no epoch; thresholds are still hoisted per op).
    pub memo_bypassed: u64,
    /// Refresh ops short-circuited to a timestamp touch: the membership
    /// is unchanged since its last same-epoch classification.
    pub refresh_skipped: u64,
    /// Refresh ops that ran the full reclassification pass.
    pub refresh_evaluated: u64,
    /// View candidates (the node itself excluded) that a stamped
    /// discovery filter dropped without an estimate: ids that are
    /// neighbors already, and pairs that classified to no insert earlier
    /// in the epoch — every such pair where the verdict memory runs, those
    /// that stayed in the view beyond the budget. Either way
    /// `discover_pruned` plus discovery's share of `batched_estimates` is
    /// the number of candidates the views offered. 0 without an oracle
    /// epoch: no filter outlives an op there.
    pub discover_pruned: u64,
    /// Availability estimates served through batched oracle calls.
    pub batched_estimates: u64,
    /// Pair-hash reads by source.
    pub pair_hash: PairHashStats,
}

impl FinalizeStats {
    /// Folds another accumulator into this one.
    pub fn merge(&mut self, other: FinalizeStats) {
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
        self.memo_bypassed += other.memo_bypassed;
        self.refresh_skipped += other.refresh_skipped;
        self.refresh_evaluated += other.refresh_evaluated;
        self.discover_pruned += other.discover_pruned;
        self.batched_estimates += other.batched_estimates;
        self.pair_hash.hashed += other.pair_hash.hashed;
        self.pair_hash.delegated += other.pair_hash.delegated;
    }
}

/// Lightweight overlay-health numbers, computed by
/// [`AvmemSim::health_stats`] without building an [`OverlaySnapshot`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthStats {
    /// Nodes online at sample time.
    pub online: usize,
    /// Mean total degree (|HS| + |VS|) over online nodes.
    pub mean_degree: f64,
    /// Fraction of online nodes inside the largest weakly-connected
    /// component of the both-sliver overlay.
    pub largest_component: f64,
}

/// The full-system simulation.
pub struct AvmemSim {
    trace: ChurnTrace,
    config: SimConfig,
    predicate: SimPredicate,
    oracle: SimOracle,
    hashes: Arc<PairHashes>,
    memberships: Vec<Membership>,
    shuffles: Vec<ShuffleNode>,
    now: SimTime,
    net: Network,
    rng: Xoshiro256,
    /// Per-slot cache of the online population (bootstrap seeding,
    /// initiator selection); refreshed lazily as the clock advances.
    online: OnlineIndex,
    n_star: f64,
    /// Seed for the per-node randomized candidate order used by the
    /// converged rebuild (see [`AvmemSim::rebuild_converged`]).
    member_order_seed: u64,
    /// Persistent event-driven schedule (`None` until the first
    /// event-driven advance builds it).
    maint: Option<MaintSchedule>,
    /// Per-phase maintenance span accumulator (replaces the old ad-hoc
    /// `Instant` arithmetic; [`AvmemSim::phase_timings`] reads its
    /// coordinator lane).
    tracer: Tracer,
    /// Registry-backed instruments, present once
    /// [`AvmemSim::set_metrics`] attaches a registry.
    metrics: Option<HarnessInstruments>,
    /// Cumulative finalize fast-path counters.
    fin_stats: FinalizeStats,
    /// Working memory of [`AvmemSim::anycast`] / [`AvmemSim::multicast`].
    ops_scratch: OpScratch,
}

/// Instrument handles the harness records into when a registry is
/// attached; everything here is off the per-node hot paths (the barrier
/// loops run at most `shards²` times per cohort).
struct HarnessInstruments {
    /// Cross-shard exchange batch sizes at the transpose barriers.
    exchange_req_batch: Histogram,
    exchange_reply_batch: Histogram,
    /// Cumulative messages moved across the barriers.
    exchange_requests: Counter,
    exchange_replies: Counter,
}

impl std::fmt::Debug for AvmemSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AvmemSim")
            .field("nodes", &self.trace.num_nodes())
            .field("now", &self.now)
            .field("n_star", &self.n_star)
            .field("predicate", &self.predicate)
            .finish_non_exhaustive()
    }
}

impl AvmemSim {
    /// Builds a simulation over `trace` with the given configuration.
    ///
    /// `N*` is derived as the trace's mean online population and the
    /// availability PDF as the (availability-weighted) distribution of
    /// online nodes — both quantities the paper assumes are computed
    /// offline by a crawler and distributed consistently to all nodes.
    pub fn new(trace: ChurnTrace, config: SimConfig) -> Self {
        let hashes = Arc::new(PairHashes::with_budget(
            trace.num_nodes(),
            config.hash_budget,
        ));
        AvmemSim::with_hashes(trace, config, hashes)
    }

    /// Like [`AvmemSim::new`] but reusing a precomputed pair-hash matrix
    /// — experiment sweeps building many simulations over the same
    /// population share the `O(N²)` hashing work.
    ///
    /// # Panics
    ///
    /// Panics if the matrix size does not match the trace population.
    pub fn with_hashes(trace: ChurnTrace, config: SimConfig, hashes: Arc<PairHashes>) -> Self {
        let n = trace.num_nodes();
        assert_eq!(hashes.len(), n, "hash matrix size must match population");
        let stats = trace.stats();
        let n_star = stats.mean_online.max(2.0);

        let weighted: Vec<(Availability, f64)> = (0..n)
            .map(|i| {
                let av = trace.long_term_availability(i);
                (av, av.value())
            })
            .collect();
        let pdf = AvailabilityPdf::from_weighted_sample(&weighted, config.pdf_buckets);

        let predicate = match config.predicate {
            PredicateChoice::Avmem {
                epsilon,
                vertical,
                horizontal,
            } => SimPredicate::Avmem(AvmemPredicate::new(
                epsilon, n_star, vertical, horizontal, pdf,
            )),
            PredicateChoice::Random { expected_degree } => {
                SimPredicate::Random(RandomPredicate::with_expected_degree(
                    expected_degree,
                    n as f64,
                ))
            }
        };

        let mut seeder = SplitMix64::new(config.seed);
        let mut oracle = SimOracle::build(config.oracle, &trace, seeder.next_u64());
        // The AVMON service sweeps its ping/aggregate phases on the
        // worker pool; fan them out like the maintenance engine's
        // per-cohort phases, partitioned by the same shard ownership map
        // (bit-identical for every shard and thread count).
        oracle.set_threads(config.engine.threads());
        oracle.set_shards(config.engine.shards());
        let net = Network::new(config.latency, 0.0, seeder.next_u64());
        let rng = Xoshiro256::new(seeder.next_u64());

        let shuffle_config = ShuffleConfig::for_system_size(n);
        let mut shuffle_seeder = SplitMix64::new(seeder.next_u64());
        let shuffles = (0..n)
            .map(|i| {
                ShuffleNode::new(
                    NodeId::new(i as u64),
                    shuffle_config,
                    shuffle_seeder.fork(i as u64).next_u64(),
                )
            })
            .collect();

        AvmemSim {
            hashes,
            memberships: (0..n).map(|i| Membership::new(NodeId::new(i as u64))).collect(),
            trace,
            config,
            predicate,
            oracle,
            shuffles,
            now: SimTime::ZERO,
            net,
            rng,
            online: OnlineIndex::new(),
            n_star,
            member_order_seed: seeder.next_u64(),
            maint: None,
            tracer: Tracer::new(PHASES),
            metrics: None,
            fin_stats: FinalizeStats::default(),
            ops_scratch: OpScratch::default(),
        }
    }

    /// Attaches a metrics registry: phase spans gain live span-duration
    /// histograms, the sharded engine records cross-shard exchange batch
    /// sizes, and the oracle (AVMON) reports slot-advance cost. Without
    /// a registry the harness only pays the tracer's relaxed atomic
    /// adds — instrumentation stays allocation-free either way.
    pub fn set_metrics(&mut self, registry: &Arc<Registry>) {
        self.tracer.attach(registry, "avmem");
        self.oracle.set_metrics(registry);
        let batch_help = "Cross-shard exchange batch sizes at the phase barriers (messages).";
        self.metrics = Some(HarnessInstruments {
            exchange_req_batch: registry.histogram(
                "avmem_exchange_batch_msgs",
                batch_help,
                &[("dir", "request")],
            ),
            exchange_reply_batch: registry.histogram(
                "avmem_exchange_batch_msgs",
                batch_help,
                &[("dir", "reply")],
            ),
            exchange_requests: registry.counter(
                "avmem_exchange_msgs_total",
                "Messages moved across the shard barriers.",
                &[("dir", "request")],
            ),
            exchange_replies: registry.counter(
                "avmem_exchange_msgs_total",
                "Messages moved across the shard barriers.",
                &[("dir", "reply")],
            ),
        });
    }

    /// The harness's phase-span tracer (publishable into a registry by
    /// the serve loop).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The churn trace driving the simulation.
    pub fn trace(&self) -> &ChurnTrace {
        &self.trace
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The derived stable-system-size parameter `N*`.
    pub fn n_star(&self) -> f64 {
        self.n_star
    }

    /// The predicate in force.
    pub fn predicate(&self) -> &SimPredicate {
        &self.predicate
    }

    /// The availability oracle in force.
    pub fn oracle(&self) -> &SimOracle {
        &self.oracle
    }

    /// A node's membership lists.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the population.
    pub fn membership(&self, id: NodeId) -> &Membership {
        &self.memberships[self.index(id)]
    }

    fn index(&self, id: NodeId) -> usize {
        let i = id.raw() as usize;
        assert!(i < self.trace.num_nodes(), "unknown node {id}");
        i
    }

    fn estimated_availability(&self, querier: usize, target: usize) -> Option<Availability> {
        self.oracle.estimate(
            NodeId::new(querier as u64),
            NodeId::new(target as u64),
            self.now,
        )
    }

    /// Advances simulation time by `duration`, running maintenance.
    ///
    /// In [`MaintenanceMode::Converged`] the membership lists are rebuilt
    /// from the predicate at the end of the interval. In
    /// [`MaintenanceMode::EventDriven`] the shuffle/discovery/refresh
    /// sub-protocols run period by period through the event engine; the
    /// schedule persists across calls, so chopping an interval into many
    /// `warm_up` calls produces the same state as one big call.
    pub fn warm_up(&mut self, duration: SimDuration) {
        let target = self.now + duration;
        match self.config.maintenance {
            MaintenanceMode::Converged => {
                {
                    let _span = self.tracer.span(PH_ORACLE, 0);
                    self.oracle.advance(&self.trace, target);
                    self.now = target;
                    self.online.refresh(&self.trace, target);
                }
                // A span guard would hold `&self.tracer` across the
                // `&mut self` rebuild; record the measured time instead.
                let t0 = Instant::now();
                self.rebuild_converged();
                self.tracer.record(PH_FINALIZE, 0, t0.elapsed());
            }
            MaintenanceMode::EventDriven {
                protocol_period,
                refresh_period,
            } => {
                self.run_event_driven(target, protocol_period, refresh_period);
            }
        }
    }

    /// Advances the simulation clock to the absolute instant `target`,
    /// running any maintenance that falls due on the way — the injection
    /// hook scenario drivers interleave operation traffic with.
    ///
    /// In [`MaintenanceMode::EventDriven`] every timestamp cohort with
    /// `time ≤ target` is processed (identically to [`AvmemSim::warm_up`],
    /// off the same persistent schedule), so operations fired after the
    /// call observe the live, possibly-unconverged overlay exactly as it
    /// stands between cohorts. In [`MaintenanceMode::Converged`] only the
    /// clock, the oracle and the online index advance — the lists keep
    /// their last rebuilt state (call [`AvmemSim::warm_up`] when a rebuild
    /// is wanted), so a driver controls staleness explicitly.
    ///
    /// A `target` at or before the current clock is a no-op.
    pub fn advance_to(&mut self, target: SimTime) {
        if target <= self.now {
            return;
        }
        match self.config.maintenance {
            MaintenanceMode::Converged => {
                let _span = self.tracer.span(PH_ORACLE, 0);
                self.oracle.advance(&self.trace, target);
                self.now = target;
                self.online.refresh(&self.trace, target);
            }
            MaintenanceMode::EventDriven {
                protocol_period,
                refresh_period,
            } => {
                self.run_event_driven(target, protocol_period, refresh_period);
            }
        }
    }

    /// Timestamp of the next pending maintenance event, if any — `None`
    /// for converged maintenance or before the first event-driven advance.
    pub fn next_maintenance_at(&self) -> Option<SimTime> {
        self.maint.as_ref().and_then(|m| m.wheel.peek_time())
    }

    /// Cumulative per-phase maintenance wall-clock since construction
    /// (the coordinator lane of the span tracer).
    pub fn phase_timings(&self) -> PhaseTimings {
        PhaseTimings {
            oracle: self.tracer.lane_total(PH_ORACLE, 0),
            propose: self.tracer.lane_total(PH_PROPOSE, 0),
            commit: self.tracer.lane_total(PH_COMMIT, 0),
            finalize: self.tracer.lane_total(PH_FINALIZE, 0),
            cohorts: self.tracer.cohorts(),
        }
    }

    /// Cumulative finalize fast-path counters since construction. All
    /// zero when [`SimConfig::finalize_fast`] is off or no event-driven
    /// maintenance has run (the converged rebuild has its own fast path
    /// and is not counted here).
    pub fn finalize_stats(&self) -> FinalizeStats {
        self.fin_stats
    }

    /// Cumulative counters of the shared pair-hash store (rows built,
    /// pairs hashed on the fly, dense rows resident).
    pub fn hash_store_stats(&self) -> PairStoreStats {
        self.hashes.store_stats()
    }

    /// Number of maintenance events currently scheduled (0 for converged
    /// maintenance or before the first event-driven advance) — the
    /// service mode's queue-depth gauge.
    pub fn pending_maintenance(&self) -> usize {
        self.maint.as_ref().map_or(0, |m| m.wheel.pending())
    }

    /// Rebuilds every node's lists directly from the predicate — the
    /// fixed point the discovery protocol converges to.
    ///
    /// Candidates are inserted in a *per-node randomized order*, not
    /// index order: real discovery meets candidates in shuffled-view
    /// order, and the deterministic gossip iteration of §3.2 relies on
    /// different nodes having decorrelated list orders (identical
    /// prefixes would make every gossiper target the same few nodes).
    /// Accepted candidates are collected first and each list is then
    /// Fisher–Yates-shuffled with the node's private seed — the
    /// restriction of a uniform permutation of the population to the
    /// accepted subset is itself a uniform permutation of that subset,
    /// so this matches the seed version's shuffle-everything-then-filter
    /// order in distribution at `O(degree)` instead of `O(N)` RNG work
    /// per node.
    ///
    /// The rebuild is the simulator's hot path and is heavily optimized —
    /// see [`AvmemSim::rebuild_node`] — but produces HS/VS *sets*
    /// identical to a naive scan classifying every ordered pair (the
    /// `rebuild_equivalence` integration tests pin this down). Nodes are
    /// independent, so the population is rebuilt in parallel on the
    /// persistent worker pool; results do not depend on the thread count.
    fn rebuild_converged(&mut self) {
        let n = self.trace.num_nodes();
        // With a querier-independent oracle (exact, shared-noise, AVMON
        // aggregates) all nodes agree on every availability, so one
        // snapshot and one availability-sorted index serve the whole
        // rebuild: HS candidates come from a band range-scan, VS
        // candidates from its complement. A per-querier oracle forces
        // per-source estimates (full scan).
        let shared: Option<CandidateIndex> = self.oracle.querier_independent().then(|| {
            CandidateIndex::build((0..n).map(|y| (y, self.estimated_availability(y, y))))
        });
        let memo = SimMemo::build(&self.predicate);
        let vertical_table: Option<Vec<f64>> =
            shared.as_ref().and_then(|index| memo.vertical_table(index));
        let mut memberships = std::mem::take(&mut self.memberships);
        let sim = &*self;
        par_chunks_mut(&mut memberships, 1, default_threads(), |offset, chunk| {
            let mut scratch = RebuildScratch::default();
            for (k, slot) in chunk.iter_mut().enumerate() {
                *slot = sim.rebuild_node(
                    offset + k,
                    &memo,
                    shared.as_ref(),
                    vertical_table.as_deref(),
                    &mut scratch,
                );
            }
        });
        self.memberships = memberships;
    }

    /// Builds one node's converged membership lists.
    ///
    /// Fast-path structure (all equivalences are set-level, pinned by
    /// tests):
    ///
    /// * thresholds come from the per-rebuild [`SimMemo`] — the
    ///   horizontal band integrals once per node, vertical PDF lookups
    ///   from per-bucket tables — instead of two PDF integrations per
    ///   in-band pair;
    /// * pair hashes come from the row cache ([`PairHashes::row`]);
    /// * with a shared availability index, HS candidates are enumerated
    ///   by an `O(log N + band)` range-scan and VS candidates by its
    ///   complement (only float-slack stragglers pay a distance check);
    ///   both accepted lists are then shuffled per node for decorrelated
    ///   insertion order.
    fn rebuild_node(
        &self,
        x: usize,
        memo: &SimMemo<'_>,
        shared: Option<&CandidateIndex>,
        vertical_table: Option<&[f64]>,
        scratch: &mut RebuildScratch,
    ) -> Membership {
        let n = self.trace.num_nodes();
        let mut membership = Membership::new(NodeId::new(x as u64));
        let Some(own_av) = self.estimated_availability(x, x) else {
            return membership;
        };
        let source = memo.source(own_av);
        let RebuildScratch { row, hs, vs } = scratch;
        hs.clear();
        vs.clear();
        let row: &[f64] = self.hashes.row(x, row);
        match shared {
            Some(index) => {
                let epsilon = source.epsilon();
                let horizontal = source.horizontal();
                let entries = index.entries();
                let (band_start, band_end) = index.fuzzy_range(own_av, epsilon);
                // In and around the band: the exact distance check picks
                // the sliver; the memoized horizontal threshold is one
                // constant for every in-band candidate.
                for &(v, y) in &entries[band_start..band_end] {
                    let y = y as usize;
                    if y == x {
                        continue;
                    }
                    let y_av = Availability::saturating(v);
                    if own_av.distance(y_av) < epsilon {
                        if row[y] <= horizontal {
                            hs.push((y, y_av));
                        }
                    } else if row[y] <= source.vertical(y_av) {
                        vs.push((y, y_av));
                    }
                }
                // Certainly outside the band: pure VS. With a
                // source-independent vertical rule the thresholds are
                // precomputed per rebuild, aligned with the index.
                if let Some(table) = vertical_table {
                    for k in 0..band_start {
                        let (v, y) = entries[k];
                        if row[y as usize] <= table[k] {
                            vs.push((y as usize, Availability::saturating(v)));
                        }
                    }
                    for k in band_end..entries.len() {
                        let (v, y) = entries[k];
                        if row[y as usize] <= table[k] {
                            vs.push((y as usize, Availability::saturating(v)));
                        }
                    }
                } else {
                    for &(v, y) in entries[..band_start].iter().chain(&entries[band_end..]) {
                        let y = y as usize;
                        let y_av = Availability::saturating(v);
                        if row[y] <= source.vertical(y_av) {
                            vs.push((y, y_av));
                        }
                    }
                }
            }
            None => {
                // Querier-dependent estimates: full per-source scan.
                for (y, &hash) in row.iter().enumerate().take(n) {
                    if y == x {
                        continue;
                    }
                    let Some(y_av) = self.estimated_availability(x, y) else {
                        continue;
                    };
                    match source.classify_hashed(y_av, hash) {
                        Some(Sliver::Horizontal) => hs.push((y, y_av)),
                        Some(Sliver::Vertical) => vs.push((y, y_av)),
                        None => {}
                    }
                }
            }
        }
        let mut order_rng = SplitMix64::new(
            self.member_order_seed ^ (x as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        order_rng.shuffle(hs);
        order_rng.shuffle(vs);
        let neighbor = |y: usize, y_av: Availability| Neighbor {
            id: NodeId::new(y as u64),
            cached_availability: y_av,
            added_at: self.now,
            refreshed_at: self.now,
        };
        for &(y, y_av) in hs.iter() {
            membership.insert(neighbor(y, y_av), Sliver::Horizontal);
        }
        for &(y, y_av) in vs.iter() {
            membership.insert(neighbor(y, y_av), Sliver::Vertical);
        }
        membership
    }

    /// Runs the shuffle/discovery/refresh sub-protocols off the periodic
    /// schedule, one *timestamp cohort* at a time.
    ///
    /// Node offsets are staggered on a coarse per-period lattice (see
    /// [`schedule::STAGGER_COHORTS`]) so cohorts are sizeable — at the
    /// paper's 1 442 hosts a tick cohort is 90 nodes, some 39 of them
    /// online — and the whole schedule is at most 32 slots of nodes that
    /// fire together ([`PeriodicWheel`]). The loop pops the earliest
    /// slots, runs their cohort, and pops again: a slot re-arms itself
    /// one period on when it is popped, so no event is ever re-queued.
    /// Each cohort runs in canonical phases:
    ///
    /// 1. **propose** — every online ticking node bootstraps (if its view
    ///    is empty) and computes+applies its shuffle proposal, touching
    ///    only its own state, with counter-keyed randomness. The target's
    ///    online status is resolved here too: an offline or out-of-range
    ///    target becomes a timeout notice; an online one becomes a
    ///    request message addressed to the responder's shard.
    /// 2. **commit** — every responder applies its inbound requests in
    ///    ascending initiator id (producing replies), then every
    ///    initiator applies its reply or timeout. Request application
    ///    touches only responder state and reply application only
    ///    initiator state, so both sub-phases are per-node independent;
    ///    the fixed ordering makes the outcome independent of how
    ///    requests were batched.
    /// 3. **finalize** — discovery over the post-commit view, then
    ///    refresh, per node (canonical intra-node order). Per-node
    ///    independent.
    ///
    /// [`MaintenanceEngine::Serial`] and [`MaintenanceEngine::Sharded`]
    /// execute these identical semantics; results are bit-equal across
    /// engines, shard counts and thread counts (pinned by the
    /// `event_driven_equivalence` integration tests). A cohort of fewer
    /// than [`INLINE_COHORT_EVENTS`] events runs its shard phases on the
    /// calling thread whatever the thread count.
    fn run_event_driven(
        &mut self,
        target: SimTime,
        protocol_period: SimDuration,
        refresh_period: SimDuration,
    ) {
        // Resolved once: `threads()` may probe the machine (a syscall),
        // far too costly per batch. The shard count is fixed at first
        // schedule build and reused for the life of the simulation.
        let threads = self.config.engine.threads();
        let shards = self.config.engine.shards();
        // The schedule is built once — on the first event-driven advance —
        // and then carried across calls with every node's phase intact
        // (see [`MaintSchedule`]). Only that first call pays the `O(N)`
        // population scan and stagger draw.
        let mut maint = self.maint.take().unwrap_or_else(|| {
            MaintSchedule::build(
                self.config.seed,
                self.trace.num_nodes(),
                shards,
                self.now,
                protocol_period,
                refresh_period,
            )
        });
        // One shard driven by one thread degenerates to the straight-line
        // reference (they are bit-identical), skipping the message-batch
        // bookkeeping single-core machines would pay for nothing.
        let straight_line = maint.part.shards() <= 1 && threads <= 1;
        while let Some(t) = maint.wheel.pop_until(target) {
            // Shared time-dependent state advances once per distinct
            // timestamp: the oracle (AVMON ping processing) and the
            // online index (slot-boundary crossings).
            {
                let _span = self.tracer.span(PH_ORACLE, 0);
                self.oracle.advance(&self.trace, t);
                self.online.refresh(&self.trace, t);
                self.now = self.now.max(t);
            }
            self.tracer.tick_cohort();
            let MaintSchedule {
                ref wheel,
                part,
                ref mut scratches,
                ref mut req_in,
                ref mut reply_in,
            } = maint;
            if straight_line {
                self.run_batch_serial(t, wheel, &mut scratches[0]);
            } else {
                let threads = if wheel.due_events() < INLINE_COHORT_EVENTS {
                    1
                } else {
                    threads
                };
                self.run_batch_sharded(t, part, wheel, scratches, req_in, reply_in, threads);
            }
        }
        self.maint = Some(maint);
        let _span = self.tracer.span(PH_ORACLE, 0);
        self.oracle.advance(&self.trace, target);
        self.now = target;
        self.online.refresh(&self.trace, target);
    }

    /// Reference implementation of one cohort: the canonical phases as
    /// plain sequential loops over the whole batch. This is the semantics
    /// [`AvmemSim::run_batch_sharded`] is pinned against. Its finalize
    /// phase runs off the same per-node ops list — and the same fast
    /// path — as the sharded engine, with the whole population as one
    /// shard, so single-core runs get the full finalize speedup.
    fn run_batch_serial(&mut self, t: SimTime, wheel: &PeriodicWheel, scratch: &mut ShardScratch) {
        let seed = self.config.seed;
        let n = self.trace.num_nodes();
        // Phase 1 — propose over the sorted tick list (propose randomness
        // is keyed per node, so iterating the sorted list instead of raw
        // event order changes nothing), capturing each proposal's request
        // — in ascending-initiator order, the property the commit chains
        // rely on — or its timeout, in the pooled cohort buffers.
        let tp = self.tracer.span(PH_PROPOSE, 0);
        scratch.begin_cohort(1, wheel.due(0), &self.trace, t);
        let mut requests = std::mem::take(&mut scratch.req_out[0]);
        for k in 0..scratch.ticks.len() {
            let i = scratch.ticks[k] as usize;
            let Some(p) = propose_tick(
                seed,
                &self.online,
                t,
                i,
                &mut self.shuffles[i],
                &mut scratch.seeds,
                &mut scratch.pool,
            ) else {
                continue;
            };
            let target = p.target();
            let tgt = target.raw() as usize;
            if tgt < n && self.trace.is_online(tgt, t) {
                let (_, request) = p.into_request();
                requests.push(RequestMsg {
                    initiator: i as u32,
                    responder: tgt as u32,
                    request,
                });
            } else {
                p.recycle_into(&mut scratch.pool);
                scratch.timeouts.push((i as u32, target));
            }
        }
        drop(tp);
        // Phase 2 — commit: counting-bucket chains replace the
        // (responder, initiator) sort. Each responder's chain is already
        // ascending by initiator (requests were generated over the
        // sorted tick list), and cross-responder order is immaterial — a
        // request only touches the responder's own state.
        let tc = self.tracer.span(PH_COMMIT, 0);
        scratch.chain_by_responder(n, requests.len(), |idx| requests[idx].responder as usize);
        let mut replies = std::mem::take(&mut scratch.reply_out[0]);
        for k in 0..scratch.bucket_touched.len() {
            let r = scratch.bucket_touched[k] as usize;
            let mut idx = scratch.bucket_head[r];
            while idx != u32::MAX {
                let msg = &mut requests[idx as usize];
                let request = std::mem::replace(
                    &mut msg.request,
                    ShuffleMessage::Request {
                        entries: Vec::new(),
                    },
                );
                let initiator = msg.initiator;
                let reply = self.shuffles[r].handle_request_with(request, &mut scratch.pool);
                replies.push(ReplyMsg { initiator, reply });
                idx = scratch.bucket_next[idx as usize];
            }
            scratch.bucket_head[r] = u32::MAX;
            scratch.bucket_tail[r] = u32::MAX;
        }
        requests.clear();
        scratch.req_out[0] = requests;
        // Replies and timeouts: at most one per initiator, each touching
        // only the initiator's own state, so application order is
        // immaterial — no sort needed.
        for msg in replies.drain(..) {
            self.shuffles[msg.initiator as usize].handle_reply_with(msg.reply, &mut scratch.pool);
        }
        scratch.reply_out[0] = replies;
        for k in 0..scratch.timeouts.len() {
            let (i, target) = scratch.timeouts[k];
            self.shuffles[i as usize].handle_timeout_with(target, &mut scratch.pool);
        }
        scratch.timeouts.clear();
        drop(tc);
        // Phase 3 — finalize: discovery over the post-commit views, then
        // refresh (canonical intra-node order; cross-node order is
        // irrelevant, each node touches only its own lists). The ops
        // list was built in the propose span.
        let tf = self.tracer.span(PH_FINALIZE, 0);
        let memo;
        let fast = if self.config.finalize_fast {
            memo = SimMemo::build(&self.predicate);
            Some(FastCtx {
                memo: &memo,
                epoch: self.oracle.epoch(t),
            })
        } else {
            None
        };
        let ctx = MaintCtx {
            predicate: &self.predicate,
            oracle: &self.oracle,
            hashes: &self.hashes,
            shuffles: &self.shuffles,
            now: t,
            fast,
        };
        for k in 0..scratch.ops.len() {
            let ops = scratch.ops[k];
            ctx.finalize_node(ops, &mut self.memberships[ops.node as usize], scratch, 0, n);
        }
        drop(tf);
        self.fin_stats.merge(scratch.take_stats());
    }

    /// Shard-owned execution of one cohort: each shard's slice of the
    /// shuffle and membership state is split off as a disjoint `&mut`
    /// sub-slice (see [`ShardPartition::split_mut`]) and driven by the
    /// worker pool, one job per shard. Cross-shard traffic — shuffle
    /// requests to responders in other shards, and their replies — moves
    /// as per-(source → destination) message batches transposed on the
    /// driving thread at the phase barriers. Bit-identical to
    /// [`AvmemSim::run_batch_serial`] for every shard and thread count:
    /// propose randomness is keyed per node, request application is
    /// ordered per responder by initiator id, and finalize is canonical
    /// per node.
    #[allow(clippy::too_many_arguments)]
    fn run_batch_sharded(
        &mut self,
        t: SimTime,
        part: ShardPartition,
        wheel: &PeriodicWheel,
        scratches: &mut [ShardScratch],
        req_in: &mut [Vec<RequestMsg>],
        reply_in: &mut [Vec<ReplyMsg>],
        threads: usize,
    ) {
        let seed = self.config.seed;
        let shards = part.shards();
        let n = part.len();
        let trace = &self.trace;
        let online = &self.online;
        let tracer = &self.tracer;
        let mut shuffles = std::mem::take(&mut self.shuffles);
        // Phase 1 — propose: per shard, collect the cohort's work lists,
        // run every online tick against the shard-owned shuffle slice,
        // and batch the resulting requests by the responder's shard.
        let tp = tracer.span(PH_PROPOSE, 0);
        {
            let slices = part.split_mut(&mut shuffles);
            let mut tasks: Vec<(usize, &mut [ShuffleNode], &mut ShardScratch)> = slices
                .into_iter()
                .zip(scratches.iter_mut())
                .enumerate()
                .map(|(s, (slice, scratch))| (part.range(s).start, slice, scratch))
                .collect();
            par_each_mut(&mut tasks, threads, |s, (start, slice, scratch)| {
                let _span = tracer.span(PH_PROPOSE, shard_lane(s));
                scratch.begin_cohort(shards, wheel.due(s), trace, t);
                for k in 0..scratch.ticks.len() {
                    let i = scratch.ticks[k] as usize;
                    let Some(p) = propose_tick(
                        seed,
                        online,
                        t,
                        i,
                        &mut slice[i - *start],
                        &mut scratch.seeds,
                        &mut scratch.pool,
                    ) else {
                        continue;
                    };
                    let target = p.target();
                    let tgt = target.raw() as usize;
                    if tgt < n && trace.is_online(tgt, t) {
                        let (_, request) = p.into_request();
                        scratch.req_out[part.owner(tgt)].push(RequestMsg {
                            initiator: i as u32,
                            responder: tgt as u32,
                            request,
                        });
                    } else {
                        p.recycle_into(&mut scratch.pool);
                        scratch.timeouts.push((i as u32, target));
                    }
                }
            });
        }
        drop(tp);
        let tc = tracer.span(PH_COMMIT, 0);
        // Barrier — transpose the request batches: shard `s`'s outbox for
        // destination `d` is appended to `d`'s inbox. Source shards are
        // walked in ascending order, and each outbox is itself ascending
        // by initiator (built over the sorted tick list) over the shard's
        // contiguous id range — so every inbox comes out globally
        // ascending by initiator, the order the commit chains rely on.
        for scratch in scratches.iter_mut() {
            for (d, out) in scratch.req_out.iter_mut().enumerate() {
                if let Some(m) = &self.metrics {
                    m.exchange_req_batch.record(out.len() as u64);
                    m.exchange_requests.add(out.len() as u64);
                }
                req_in[d].append(out);
            }
        }
        // Phase 2a — request application: each responder shard chains its
        // inbox by responder (counting buckets — no sort; each chain is
        // ascending by initiator, the canonical commit order) and applies
        // chain by chain, batching replies by the initiator's shard.
        {
            let slices = part.split_mut(&mut shuffles);
            let mut tasks: Vec<(
                usize,
                &mut [ShuffleNode],
                &mut ShardScratch,
                &mut Vec<RequestMsg>,
            )> = slices
                .into_iter()
                .zip(scratches.iter_mut())
                .zip(req_in.iter_mut())
                .enumerate()
                .map(|(s, ((slice, scratch), inbox))| (part.range(s).start, slice, scratch, inbox))
                .collect();
            par_each_mut(&mut tasks, threads, |_, (start, slice, scratch, inbox)| {
                let base = *start;
                scratch.chain_by_responder(slice.len(), inbox.len(), |idx| {
                    inbox[idx].responder as usize - base
                });
                for k in 0..scratch.bucket_touched.len() {
                    let r = scratch.bucket_touched[k] as usize;
                    let mut idx = scratch.bucket_head[r];
                    while idx != u32::MAX {
                        let msg = &mut inbox[idx as usize];
                        let request = std::mem::replace(
                            &mut msg.request,
                            ShuffleMessage::Request {
                                entries: Vec::new(),
                            },
                        );
                        let initiator = msg.initiator;
                        let reply = slice[r].handle_request_with(request, &mut scratch.pool);
                        scratch.reply_out[part.owner(initiator as usize)].push(ReplyMsg {
                            initiator,
                            reply,
                        });
                        idx = scratch.bucket_next[idx as usize];
                    }
                    scratch.bucket_head[r] = u32::MAX;
                    scratch.bucket_tail[r] = u32::MAX;
                }
                inbox.clear();
            });
        }
        // Barrier — transpose the reply batches back to their initiators.
        for scratch in scratches.iter_mut() {
            for (d, out) in scratch.reply_out.iter_mut().enumerate() {
                if let Some(m) = &self.metrics {
                    m.exchange_reply_batch.record(out.len() as u64);
                    m.exchange_replies.add(out.len() as u64);
                }
                reply_in[d].append(out);
            }
        }
        // Phase 2b — reply/timeout application: at most one per
        // initiator, each touching only the initiator's own state, so
        // application order is immaterial — the inbox drains as-is.
        {
            let slices = part.split_mut(&mut shuffles);
            let mut tasks: Vec<(
                usize,
                &mut [ShuffleNode],
                &mut ShardScratch,
                &mut Vec<ReplyMsg>,
            )> = slices
                .into_iter()
                .zip(scratches.iter_mut())
                .zip(reply_in.iter_mut())
                .enumerate()
                .map(|(s, ((slice, scratch), inbox))| (part.range(s).start, slice, scratch, inbox))
                .collect();
            par_each_mut(&mut tasks, threads, |_, (start, slice, scratch, inbox)| {
                for msg in inbox.drain(..) {
                    slice[msg.initiator as usize - *start]
                        .handle_reply_with(msg.reply, &mut scratch.pool);
                }
                for k in 0..scratch.timeouts.len() {
                    let (i, target) = scratch.timeouts[k];
                    slice[i as usize - *start].handle_timeout_with(target, &mut scratch.pool);
                }
                scratch.timeouts.clear();
            });
        }
        self.shuffles = shuffles;
        drop(tc);
        // Phase 3 — finalize: each shard walks its per-node ops against
        // its membership slice, reading the (now frozen) post-commit
        // shuffle views.
        let tf = tracer.span(PH_FINALIZE, 0);
        let mut memberships = std::mem::take(&mut self.memberships);
        {
            let memo;
            let fast = if self.config.finalize_fast {
                memo = SimMemo::build(&self.predicate);
                Some(FastCtx {
                    memo: &memo,
                    epoch: self.oracle.epoch(t),
                })
            } else {
                None
            };
            let ctx = MaintCtx {
                predicate: &self.predicate,
                oracle: &self.oracle,
                hashes: &self.hashes,
                shuffles: &self.shuffles,
                now: t,
                fast,
            };
            let slices = part.split_mut(&mut memberships);
            let mut tasks: Vec<(usize, usize, &mut [Membership], &mut ShardScratch)> = slices
                .into_iter()
                .zip(scratches.iter_mut())
                .enumerate()
                .map(|(s, (slice, scratch))| {
                    let range = part.range(s);
                    (range.start, range.len(), slice, scratch)
                })
                .collect();
            let ctx = &ctx;
            par_each_mut(&mut tasks, threads, |s, (start, len, slice, scratch)| {
                let _span = tracer.span(PH_FINALIZE, shard_lane(s));
                for k in 0..scratch.ops.len() {
                    let ops = scratch.ops[k];
                    ctx.finalize_node(
                        ops,
                        &mut slice[ops.node as usize - *start],
                        scratch,
                        *start,
                        *len,
                    );
                }
            });
        }
        self.memberships = memberships;
        for scratch in scratches.iter_mut() {
            self.fin_stats.merge(scratch.take_stats());
        }
        drop(tf);
    }

    /// Captures the current overlay state for analysis.
    pub fn snapshot(&self) -> OverlaySnapshot {
        let n = self.trace.num_nodes();
        let nodes = (0..n)
            .map(|i| {
                let estimated = self
                    .estimated_availability(i, i)
                    .unwrap_or_else(|| self.trace.long_term_availability(i));
                NodeSnapshot {
                    id: NodeId::new(i as u64),
                    online: self.trace.is_online(i, self.now),
                    estimated_availability: estimated,
                    true_availability: self.trace.long_term_availability(i),
                    hs: self.memberships[i].hs().map(|nb| nb.id).collect(),
                    vs: self.memberships[i].vs().map(|nb| nb.id).collect(),
                }
            })
            .collect();
        OverlaySnapshot::new(nodes, self.predicate.epsilon())
    }

    /// Streaming overlay health: the numbers a health sample needs,
    /// without materializing a snapshot.
    ///
    /// [`snapshot`](Self::snapshot) clones every node's sliver lists and
    /// queries the oracle per node — fine for analysis, but at 10⁵–10⁶
    /// hosts a periodic health probe spends more memory and time on the
    /// clone than the whole maintenance slice it interrupts. This path
    /// walks the live membership state once: online count from the
    /// trace, mean degree with the same accumulation order as
    /// [`OverlaySnapshot::mean_degree`] (ascending node index, so the
    /// two agree bit for bit), and the largest weakly-connected
    /// component over both-endpoint-online sliver edges via union-find
    /// (the same component structure the snapshot's BFS finds).
    pub fn health_stats(&self) -> HealthStats {
        let n = self.trace.num_nodes();
        let mut online = vec![false; n];
        let mut online_count = 0usize;
        for (i, flag) in online.iter_mut().enumerate() {
            if self.trace.is_online(i, self.now) {
                *flag = true;
                online_count += 1;
            }
        }
        if online_count == 0 {
            return HealthStats {
                online: 0,
                mean_degree: 0.0,
                largest_component: 0.0,
            };
        }
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                // Path halving.
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }
        let mut parent: Vec<u32> = (0..n as u32).collect();
        let mut degree_sum = 0.0f64;
        for i in 0..n {
            if !online[i] {
                continue;
            }
            let membership = &self.memberships[i];
            degree_sum += membership.len() as f64;
            for neighbor_id in membership.neighbor_ids(SliverScope::Both) {
                let j = neighbor_id.raw() as usize;
                if online[j] {
                    let (a, b) = (find(&mut parent, i as u32), find(&mut parent, j as u32));
                    if a != b {
                        parent[a as usize] = b;
                    }
                }
            }
        }
        let mut component_size = vec![0u32; n];
        let mut best = 0u32;
        for (i, &up) in online.iter().enumerate() {
            if up {
                let root = find(&mut parent, i as u32) as usize;
                component_size[root] += 1;
                best = best.max(component_size[root]);
            }
        }
        HealthStats {
            online: online_count,
            mean_degree: degree_sum / online_count as f64,
            largest_component: f64::from(best) / online_count as f64,
        }
    }

    /// Picks a uniformly random *online* node whose true availability
    /// lies in `band`, or `None` if no such node is online.
    ///
    /// Runs off the per-slot [`OnlineIndex`] with a count-then-select
    /// pass, so repeated initiator draws (operation experiments fire
    /// thousands per snapshot) materialize no candidate `Vec`.
    pub fn random_online_initiator(&mut self, band: InitiatorBand) -> Option<NodeId> {
        self.online.refresh(&self.trace, self.now);
        let in_band =
            |i: &&u32| band.contains(self.trace.long_term_availability(**i as usize));
        let eligible = self.online.online().iter().filter(in_band).count();
        if eligible == 0 {
            return None;
        }
        let pick = self.rng.index(eligible);
        let node = self
            .online
            .online()
            .iter()
            .filter(in_band)
            .nth(pick)
            .copied()
            .expect("pick < eligible count");
        Some(NodeId::new(node as u64))
    }

    /// A node's coarse (shuffle) view — the discovery substrate's state,
    /// exposed for analysis and the engine-equivalence tests.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the population.
    pub fn shuffle_view(&self, id: NodeId) -> &View {
        self.shuffles[self.index(id)].view()
    }

    /// All online nodes whose true availability lies in `target`.
    pub fn online_nodes_in(&self, target: AvailabilityTarget) -> Vec<NodeId> {
        self.trace
            .online_at(self.now)
            .into_iter()
            .filter(|&i| target.contains(self.trace.long_term_availability(i)))
            .map(|i| NodeId::new(i as u64))
            .collect()
    }

    /// Runs one anycast from `initiator` at the current time.
    pub fn anycast(
        &mut self,
        initiator: NodeId,
        target: AvailabilityTarget,
        config: AnycastConfig,
    ) -> AnycastOutcome {
        let world = WorldView::new(&self.trace, &self.oracle, &self.memberships, self.now);
        run_anycast(
            &world,
            &mut self.net,
            &mut self.rng,
            &mut self.ops_scratch,
            initiator,
            target,
            config,
        )
    }

    /// Runs one multicast from `initiator` at the current time.
    pub fn multicast(
        &mut self,
        initiator: NodeId,
        target: AvailabilityTarget,
        config: MulticastConfig,
    ) -> MulticastOutcome {
        let world = WorldView::new(&self.trace, &self.oracle, &self.memberships, self.now);
        run_multicast(
            &world,
            &mut self.net,
            &mut self.rng,
            &mut self.ops_scratch,
            initiator,
            target,
            config,
        )
    }

    /// A borrowed [`OverlayWorld`] view of the current state, for custom
    /// measurements.
    pub fn world(&self) -> impl OverlayWorld + '_ {
        WorldView::new(&self.trace, &self.oracle, &self.memberships, self.now)
    }
}

/// Borrowed world view over the simulation state at one instant.
struct WorldView<'a> {
    trace: &'a ChurnTrace,
    oracle: &'a SimOracle,
    memberships: &'a [Membership],
    now: SimTime,
    /// The trace slot containing `now`, resolved once: a flood asks
    /// `is_online` per copy.
    slot: usize,
}

impl<'a> WorldView<'a> {
    fn new(
        trace: &'a ChurnTrace,
        oracle: &'a SimOracle,
        memberships: &'a [Membership],
        now: SimTime,
    ) -> Self {
        WorldView {
            trace,
            oracle,
            memberships,
            now,
            slot: trace.slot_at(now),
        }
    }
}

impl OverlayWorld for WorldView<'_> {
    fn id_bound(&self) -> usize {
        self.trace.num_nodes()
    }

    fn is_online(&self, id: NodeId) -> bool {
        self.trace.is_online_in_slot(id.raw() as usize, self.slot)
    }

    fn believed_availability(&self, id: NodeId) -> Availability {
        self.oracle
            .estimate(id, id, self.now)
            .unwrap_or_else(|| self.trace.long_term_availability(id.raw() as usize))
    }

    fn true_availability(&self, id: NodeId) -> Availability {
        self.trace.long_term_availability(id.raw() as usize)
    }

    fn neighbors(&self, id: NodeId, scope: SliverScope) -> NeighborColumns<'_> {
        self.memberships[id.raw() as usize].columns(scope)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avmem_trace::OvernetModel;

    fn small_sim(seed: u64) -> AvmemSim {
        let trace = OvernetModel::default().hosts(120).days(1).generate(3);
        AvmemSim::new(trace, SimConfig::paper_default(seed))
    }

    #[test]
    fn converged_warm_up_builds_lists() {
        let mut sim = small_sim(1);
        sim.warm_up(SimDuration::from_hours(24));
        let snapshot = sim.snapshot();
        assert!(snapshot.mean_degree() > 1.0, "overlay should have edges");
    }

    #[test]
    fn warm_up_advances_clock() {
        let mut sim = small_sim(1);
        sim.warm_up(SimDuration::from_hours(2));
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_hours(2));
    }

    #[test]
    fn health_stats_matches_the_snapshot_metrics() {
        use crate::membership::SliverScope;
        // The streaming health path must agree with the snapshot-based
        // metrics exactly — same mean-degree accumulation order, same
        // component structure — at several points of a churning run.
        let mut sim = small_sim(4);
        for _ in 0..3 {
            sim.warm_up(SimDuration::from_hours(6));
            let stats = sim.health_stats();
            let snapshot = sim.snapshot();
            assert_eq!(stats.online, snapshot.online_count());
            assert_eq!(stats.mean_degree, snapshot.mean_degree());
            assert_eq!(
                stats.largest_component,
                snapshot.largest_component_fraction(SliverScope::Both)
            );
        }
        assert!(sim.health_stats().mean_degree > 1.0, "vacuous overlay");
    }

    #[test]
    fn same_seed_same_overlay() {
        let mut a = small_sim(9);
        let mut b = small_sim(9);
        a.warm_up(SimDuration::from_hours(24));
        b.warm_up(SimDuration::from_hours(24));
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn event_driven_approaches_converged() {
        let trace = OvernetModel::default().hosts(80).days(1).generate(5);
        let mut converged = AvmemSim::new(trace.clone(), SimConfig::paper_default(2));
        converged.warm_up(SimDuration::from_hours(12));

        let mut config = SimConfig::paper_default(2);
        config.maintenance = MaintenanceMode::paper_event_driven();
        let mut event_driven = AvmemSim::new(trace, config);
        event_driven.warm_up(SimDuration::from_hours(12));

        // Event-driven discovery should have found a sizeable share of the
        // converged overlay's edges for online nodes.
        let conv_snapshot = converged.snapshot();
        let ed_snapshot = event_driven.snapshot();
        let conv_degree = conv_snapshot.mean_degree();
        let ed_degree = ed_snapshot.mean_degree();
        assert!(
            ed_degree > conv_degree * 0.3,
            "event-driven degree {ed_degree} too far below converged {conv_degree}"
        );
    }

    #[test]
    fn event_driven_lists_satisfy_predicate() {
        let trace = OvernetModel::default().hosts(60).days(1).generate(7);
        let mut config = SimConfig::paper_default(3);
        config.maintenance = MaintenanceMode::paper_event_driven();
        let mut sim = AvmemSim::new(trace, config);
        sim.warm_up(SimDuration::from_hours(6));
        // Every listed neighbor must satisfy the predicate under current
        // (exact) availabilities — modulo entries not yet refreshed; with
        // the exact oracle there is no divergence at all.
        for i in 0..sim.trace().num_nodes() {
            let own = NodeInfo::new(
                NodeId::new(i as u64),
                sim.trace().long_term_availability(i),
            );
            for nb in sim.memberships[i].neighbors(SliverScope::Both) {
                let info = NodeInfo::new(nb.id, nb.cached_availability);
                assert!(
                    sim.predicate.member(own, info),
                    "listed neighbor violates predicate"
                );
            }
        }
    }

    #[test]
    fn chopped_event_driven_warm_up_equals_one_big_advance() {
        // The persistent schedule makes warm_up(x); warm_up(y) identical
        // to warm_up(x + y): the periodic protocols keep their phase
        // across call boundaries instead of re-staggering.
        let trace = OvernetModel::default().hosts(90).days(1).generate(19);
        let mut config = SimConfig::paper_default(6);
        config.maintenance = MaintenanceMode::paper_event_driven();
        let mut whole = AvmemSim::new(trace.clone(), config);
        whole.warm_up(SimDuration::from_hours(4));
        let mut chopped = AvmemSim::new(trace, config);
        for _ in 0..16 {
            chopped.warm_up(SimDuration::from_mins(15));
        }
        assert_eq!(whole.now(), chopped.now());
        assert_eq!(whole.snapshot(), chopped.snapshot());
        for i in 0..whole.trace().num_nodes() {
            let id = NodeId::new(i as u64);
            assert_eq!(whole.shuffle_view(id), chopped.shuffle_view(id));
        }
    }

    #[test]
    fn advance_to_matches_warm_up_in_event_driven_mode() {
        let trace = OvernetModel::default().hosts(70).days(1).generate(23);
        let mut config = SimConfig::paper_default(8);
        config.maintenance = MaintenanceMode::paper_event_driven();
        let mut by_duration = AvmemSim::new(trace.clone(), config);
        by_duration.warm_up(SimDuration::from_hours(2));
        let mut by_instant = AvmemSim::new(trace, config);
        by_instant.advance_to(SimTime::ZERO + SimDuration::from_hours(1));
        assert!(by_instant.next_maintenance_at().is_some());
        by_instant.advance_to(SimTime::ZERO + SimDuration::from_hours(2));
        // Backwards/no-op advances change nothing.
        by_instant.advance_to(SimTime::ZERO);
        assert_eq!(by_duration.now(), by_instant.now());
        assert_eq!(by_duration.snapshot(), by_instant.snapshot());
    }

    #[test]
    fn advance_to_in_converged_mode_moves_clock_without_rebuild() {
        let mut sim = small_sim(17);
        sim.warm_up(SimDuration::from_hours(1));
        let before = sim.snapshot();
        assert!(sim.next_maintenance_at().is_none());
        sim.advance_to(SimTime::ZERO + SimDuration::from_hours(3));
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_hours(3));
        // Lists untouched: only clock/oracle/online advanced (the online
        // flags in a fresh snapshot may differ, but memberships may not).
        let after = sim.snapshot();
        for (a, b) in before.nodes().iter().zip(after.nodes()) {
            assert_eq!(a.hs, b.hs);
            assert_eq!(a.vs, b.vs);
        }
    }

    #[test]
    fn anycast_high_target_from_mid_usually_delivers() {
        let mut sim = small_sim(11);
        sim.warm_up(SimDuration::from_hours(24));
        let mut delivered = 0;
        let mut sent = 0;
        for _ in 0..20 {
            let Some(initiator) = sim.random_online_initiator(InitiatorBand::Mid) else {
                continue;
            };
            sent += 1;
            let outcome = sim.anycast(
                initiator,
                AvailabilityTarget::range(0.85, 0.95),
                AnycastConfig::paper_default(),
            );
            if outcome.is_delivered() {
                delivered += 1;
            }
        }
        assert!(sent > 0);
        assert!(
            delivered * 2 >= sent,
            "only {delivered}/{sent} delivered"
        );
    }

    #[test]
    fn multicast_reaches_most_of_range() {
        let mut sim = small_sim(13);
        sim.warm_up(SimDuration::from_hours(24));
        let target = AvailabilityTarget::threshold(0.7);
        let Some(initiator) = sim.random_online_initiator(InitiatorBand::High) else {
            panic!("no high-availability initiator online");
        };
        let outcome = sim.multicast(initiator, target, MulticastConfig::paper_default());
        let world = sim.world();
        let reliability = outcome.reliability(&world, target);
        assert!(
            reliability.unwrap_or(0.0) > 0.5,
            "reliability {reliability:?} too low"
        );
    }

    #[test]
    fn random_predicate_builds_flat_overlay() {
        let trace = OvernetModel::default().hosts(100).days(1).generate(5);
        let mut config = SimConfig::paper_default(4);
        config.predicate = PredicateChoice::Random {
            expected_degree: 12.0,
        };
        let mut sim = AvmemSim::new(trace, config);
        sim.warm_up(SimDuration::from_hours(24));
        let snapshot = sim.snapshot();
        let degree = snapshot.mean_degree();
        assert!(
            (2.0..30.0).contains(&degree),
            "random overlay degree {degree} out of expected range"
        );
    }

    #[test]
    fn initiator_band_respects_bounds() {
        let mut sim = small_sim(15);
        sim.warm_up(SimDuration::from_hours(1));
        for band in [InitiatorBand::Low, InitiatorBand::Mid, InitiatorBand::High] {
            if let Some(node) = sim.random_online_initiator(band) {
                let av = sim.trace().long_term_availability(node.raw() as usize);
                assert!(band.contains(av), "{band:?} initiator has availability {av}");
            }
        }
    }

    #[test]
    fn world_view_is_consistent_with_trace() {
        let mut sim = small_sim(21);
        sim.warm_up(SimDuration::from_hours(2));
        let now = sim.now();
        let online_from_trace: Vec<usize> = sim.trace().online_at(now);
        let world = sim.world();
        for i in 0..sim.trace().num_nodes() {
            let id = NodeId::new(i as u64);
            assert_eq!(world.is_online(id), online_from_trace.contains(&i));
            assert_eq!(
                world.true_availability(id),
                sim.trace().long_term_availability(i)
            );
            // Exact oracle: belief equals truth.
            assert_eq!(
                world.believed_availability(id),
                sim.trace().long_term_availability(i)
            );
        }
    }

    #[test]
    fn online_nodes_in_filters_by_truth() {
        let mut sim = small_sim(22);
        sim.warm_up(SimDuration::from_hours(2));
        let target = AvailabilityTarget::threshold(0.7);
        for id in sim.online_nodes_in(target) {
            let i = id.raw() as usize;
            assert!(sim.trace().is_online(i, sim.now()));
            assert!(target.contains(sim.trace().long_term_availability(i)));
        }
    }

    #[test]
    fn membership_accessor_matches_snapshot() {
        let mut sim = small_sim(23);
        sim.warm_up(SimDuration::from_hours(4));
        let snapshot = sim.snapshot();
        for node in snapshot.nodes() {
            let membership = sim.membership(node.id);
            assert_eq!(membership.hs_len(), node.hs.len());
            assert_eq!(membership.vs_len(), node.vs.len());
        }
    }

    #[test]
    fn phase_timings_accumulate_in_event_driven_mode() {
        let trace = OvernetModel::default().hosts(60).days(1).generate(11);
        let mut config = SimConfig::paper_default(5);
        config.maintenance = MaintenanceMode::paper_event_driven();
        let mut sim = AvmemSim::new(trace, config);
        assert_eq!(sim.phase_timings(), PhaseTimings::default());
        sim.warm_up(SimDuration::from_hours(2));
        let timings = sim.phase_timings();
        assert!(timings.cohorts > 0, "no cohorts processed");
        assert!(
            timings.propose + timings.commit + timings.finalize > Duration::ZERO,
            "no maintenance time recorded"
        );
    }

    #[test]
    fn finalize_fast_path_matches_reference_and_counts() {
        // The integration suite pins the full fast-vs-slow matrix; this
        // in-crate smoke checks full membership state (timestamps and
        // cached availabilities included, which snapshots don't carry)
        // and that the counters actually move.
        let trace = OvernetModel::default().hosts(80).days(1).generate(31);
        let mut fast_cfg = SimConfig::paper_default(14);
        fast_cfg.maintenance = MaintenanceMode::paper_event_driven();
        fast_cfg.engine = MaintenanceEngine::Serial;
        let mut slow_cfg = fast_cfg;
        slow_cfg.finalize_fast = false;
        let mut fast = AvmemSim::new(trace.clone(), fast_cfg);
        let mut slow = AvmemSim::new(trace, slow_cfg);
        fast.warm_up(SimDuration::from_hours(3));
        slow.warm_up(SimDuration::from_hours(3));
        for i in 0..fast.trace().num_nodes() {
            let id = NodeId::new(i as u64);
            assert_eq!(fast.membership(id), slow.membership(id), "node {id}");
        }
        let stats = fast.finalize_stats();
        assert!(stats.memo_hits + stats.memo_misses > 0, "fast path never ran");
        assert!(
            stats.refresh_skipped > 0,
            "constant-epoch oracle must skip repeat refreshes"
        );
        assert!(
            stats.discover_pruned > 0,
            "constant-epoch oracle must prune repeat discovery candidates"
        );
        assert!(stats.batched_estimates > 0, "no batched estimates");
        assert_eq!(slow.finalize_stats(), FinalizeStats::default());
    }

    /// An event-driven sim on 15 s ticks for the verdict-memory hand
    /// cases.
    fn event_driven_sim(
        hosts: usize,
        oracle: OracleChoice,
        engine: MaintenanceEngine,
        hash_budget: usize,
    ) -> AvmemSim {
        let trace = OvernetModel::default().hosts(hosts).days(1).generate(41);
        let mut cfg = SimConfig::paper_default(15);
        cfg.oracle = oracle;
        cfg.maintenance = MaintenanceMode::EventDriven {
            protocol_period: SimDuration::from_secs(15),
            refresh_period: SimDuration::from_mins(3),
        };
        cfg.engine = engine;
        cfg.hash_budget = hash_budget;
        AvmemSim::new(trace, cfg)
    }

    /// Every set bit of every skip row of the run so far, as `(x, y,
    /// stamp)`.
    fn set_verdicts(sim: &AvmemSim) -> Vec<(usize, usize, u32)> {
        let maint = sim.maint.as_ref().expect("event-driven maintenance ran");
        let n = sim.trace().num_nodes();
        let mut set = Vec::new();
        for (s, scratch) in maint.scratches.iter().enumerate() {
            let start = maint.part.range(s).start;
            for (local, row) in scratch.fast.verdicts.iter().enumerate() {
                for y in (0..n).filter(|&y| bit_is_set(row, y)) {
                    set.push((start + local, y, scratch.fast.seen_stamp[local]));
                }
            }
        }
        set
    }

    /// Node `x`'s skip row on a one-shard engine — its stamp and its words
    /// (stamp 0, no words: not allocated yet).
    fn skip_row(sim: &AvmemSim, x: usize) -> (u32, &[u64]) {
        let state = &sim.maint.as_ref().expect("maintenance ran").scratches[0].fast;
        match state.verdicts.get(x) {
            Some(row) => (state.seen_stamp[x], row),
            None => (0, &[]),
        }
    }

    fn bit_is_set(row: &[u64], y: usize) -> bool {
        let (word, mask) = verdict_bit(y);
        row.get(word).is_some_and(|w| w & mask != 0)
    }

    /// The finalize stamp of the oracle's epoch at `t`.
    fn stamp_at(sim: &AvmemSim, t: SimTime) -> u32 {
        sim.oracle.epoch(t).and_then(compact_stamp).expect("stamped oracle")
    }

    /// Whether Eq. 1, evaluated the reference way under the current
    /// estimates, keeps `y` out of `x`'s lists.
    fn classifies_to_no_insert(sim: &AvmemSim, x: usize, y: usize) -> bool {
        let own_av = sim.estimated_availability(x, x).expect("own estimate");
        let Some(y_av) = sim.estimated_availability(x, y) else {
            return true;
        };
        let own = NodeInfo::new(NodeId::new(x as u64), own_av);
        let info = NodeInfo::new(NodeId::new(y as u64), y_av);
        sim.predicate
            .classify_hashed(own, info, sim.hashes.get(x, y), 0.0)
            .is_none()
    }

    /// Whether node `i`'s periodic event of `stream` fires at `t`, on a
    /// schedule built at time zero.
    fn fires_at(sim: &AvmemSim, stream: u64, i: usize, t: SimTime) -> bool {
        let MaintenanceMode::EventDriven {
            protocol_period,
            refresh_period,
        } = sim.config.maintenance
        else {
            panic!("event-driven sim expected");
        };
        let period = if stream == STREAM_STAGGER_TICK {
            protocol_period
        } else {
            refresh_period
        };
        let offset = schedule::stagger_offset(sim.config.seed, stream, i, SimTime::ZERO, period);
        let first = SimTime::ZERO + offset;
        t >= first && (t - first).as_millis() % period.as_millis() == 0
    }

    /// Runs exactly the next cohort and returns its timestamp.
    fn run_next_cohort(sim: &mut AvmemSim) -> SimTime {
        let t = sim.next_maintenance_at().expect("schedule built");
        sim.advance_to(t);
        t
    }

    fn neighbor_ids(sim: &AvmemSim, x: usize) -> Vec<usize> {
        sim.memberships[x]
            .neighbor_ids(SliverScope::Both)
            .map(|id| id.raw() as usize)
            .collect()
    }

    /// The same run through the pair-at-a-time reference finalize must
    /// have produced the same lists.
    fn assert_equals_reference_finalize(sim: &AvmemSim) {
        let mut slow_cfg = sim.config;
        slow_cfg.finalize_fast = false;
        let mut slow = AvmemSim::new(sim.trace().clone(), slow_cfg);
        slow.advance_to(sim.now());
        for i in 0..sim.trace().num_nodes() {
            let id = NodeId::new(i as u64);
            assert_eq!(sim.membership(id), slow.membership(id), "node {id}");
        }
    }

    #[test]
    fn a_pair_rejected_at_one_epoch_is_re_evaluated_at_the_next() {
        // Shared noise re-drawn every two minutes: a verdict must die
        // with its epoch. Walk the run tick by tick and find pairs whose
        // bit was set under one stamp, for a pair that was no neighbor,
        // and that are neighbors later — the new epoch's estimates
        // classified them differently, which a row that is not zeroed on
        // a stamp change would never find out.
        let oracle = OracleChoice::NoisyShared {
            error: 0.05,
            staleness: SimDuration::from_mins(2),
        };
        let mut sim = event_driven_sim(
            90,
            oracle,
            MaintenanceEngine::Serial,
            hashes::DEFAULT_HASH_BUDGET,
        );
        let mut rejected = std::collections::HashMap::new();
        let (mut revived, mut verdicts_checked) = (0, 0);
        for _ in 0..120 {
            sim.warm_up(SimDuration::from_secs(15));
            let current = stamp_at(&sim, sim.now());
            for (x, y, stamp) in set_verdicts(&sim) {
                // A set bit says "nothing to evaluate": the pair is a
                // neighbor, or it was rejected under the row's stamp —
                // which, while that epoch lasts, the reference evaluation
                // can confirm.
                if sim.memberships[x].contains(NodeId::new(y as u64)) {
                    continue;
                }
                if stamp == current {
                    assert!(
                        classifies_to_no_insert(&sim, x, y),
                        "bit ({x}, {y}) is set for a pair Eq. 1 accepts"
                    );
                    verdicts_checked += 1;
                }
                rejected.insert((x, y), stamp);
            }
            // And every neighbor of a node that has a row is marked in it,
            // whichever epoch the row is from: rows are rebuilt only by
            // discovery, which is also the only step that inserts.
            for x in 0..sim.trace().num_nodes() {
                let (_, row) = skip_row(&sim, x);
                for y in neighbor_ids(&sim, x) {
                    assert!(row.is_empty() || bit_is_set(row, y), "neighbor ({x}, {y}) unmarked");
                }
            }
            rejected.retain(|&(x, y), _| {
                let inserted = sim.memberships[x].contains(NodeId::new(y as u64));
                revived += inserted as usize;
                !inserted
            });
        }
        assert!(verdicts_checked > 1_000, "only {verdicts_checked} verdicts checked");
        assert!(revived > 0, "no rejected pair was ever inserted later");
        assert_equals_reference_finalize(&sim);
    }

    #[test]
    fn a_neighbor_evicted_by_a_same_epoch_refresh_stays_pruned() {
        // Five-minute epochs over 15 s ticks and 3 min refreshes: most
        // refreshes run in an epoch the node has already discovered in,
        // so its row is current when the refresh evicts a neighbor (one
        // inserted under an earlier epoch's estimates). The eviction *is*
        // a no-insert verdict of this epoch — same function, same inputs
        // — so the neighbor's bit must stand: discoveries that meet the
        // id again before the epoch ends skip it.
        let oracle = OracleChoice::NoisyShared {
            error: 0.05,
            staleness: SimDuration::from_mins(5),
        };
        let mut sim = event_driven_sim(
            90,
            oracle,
            MaintenanceEngine::Serial,
            hashes::DEFAULT_HASH_BUDGET,
        );
        sim.warm_up(SimDuration::ZERO);
        let n = sim.trace().num_nodes();
        // (x, y) → the stamp under which y was evicted from x's lists.
        let mut standing = std::collections::HashMap::new();
        let (mut evictions, mut met_again) = (0, 0);
        while sim.now() < SimTime::ZERO + SimDuration::from_mins(40) {
            let before: Vec<Vec<usize>> = (0..n).map(|x| neighbor_ids(&sim, x)).collect();
            let t = run_next_cohort(&mut sim);
            let current = stamp_at(&sim, t);
            for x in (0..n).filter(|&x| sim.trace().is_online(x, t)) {
                let (stamp, row) = skip_row(&sim, x);
                if fires_at(&sim, STREAM_STAGGER_REFRESH, x, t) && stamp == current {
                    let now = neighbor_ids(&sim, x);
                    for &y in before[x].iter().filter(|y| !now.contains(y)) {
                        evictions += 1;
                        standing.insert((x, y), current);
                    }
                }
                if fires_at(&sim, STREAM_STAGGER_TICK, x, t) {
                    // The view discovery just filtered (nothing ran since).
                    for id in sim.shuffles[x].view().ids() {
                        let met = standing.get(&(x, id.raw() as usize)) == Some(&stamp);
                        met_again += usize::from(met);
                    }
                }
                for (&(_, y), _) in standing.iter().filter(|&(&(sx, _), &s)| sx == x && s == stamp) {
                    assert!(bit_is_set(row, y), "evicted ({x}, {y}) lost its bit within the epoch");
                    assert!(!sim.memberships[x].contains(NodeId::new(y as u64)));
                }
            }
        }
        assert!(evictions > 0, "no refresh evicted under a current row");
        assert!(met_again > 0, "no evicted id was met again within its epoch");
        assert_equals_reference_finalize(&sim);
    }

    #[test]
    fn a_refresh_only_cohort_at_a_new_epoch_leaves_a_stale_row_for_discovery_to_reset() {
        // Two-minute epochs: a node's refresh often fires — without its
        // tick — in an epoch its row has not seen yet. The refresh evicts
        // under the new estimates and must leave the row alone (stale
        // stamp, the evicted neighbor's bit still set); the node's next
        // discovery then zeroes the row and re-marks the neighbors it has
        // *now*, so the evicted pair is evaluated again if the view
        // offers it, and unmarked if not.
        let oracle = OracleChoice::NoisyShared {
            error: 0.05,
            staleness: SimDuration::from_mins(2),
        };
        let mut sim = event_driven_sim(
            90,
            oracle,
            MaintenanceEngine::Serial,
            hashes::DEFAULT_HASH_BUDGET,
        );
        sim.warm_up(SimDuration::ZERO);
        let n = sim.trace().num_nodes();
        // x → (ids a refresh-only cohort evicted, the row's stale stamp).
        let mut stale: std::collections::HashMap<usize, (Vec<usize>, u32)> = Default::default();
        let (mut re_evaluated, mut unmarked) = (0, 0);
        while sim.now() < SimTime::ZERO + SimDuration::from_mins(60) {
            let before: Vec<Vec<usize>> = (0..n).map(|x| neighbor_ids(&sim, x)).collect();
            let t = run_next_cohort(&mut sim);
            let current = stamp_at(&sim, t);
            for x in (0..n).filter(|&x| sim.trace().is_online(x, t)) {
                let (stamp, row) = skip_row(&sim, x);
                let now = neighbor_ids(&sim, x);
                if fires_at(&sim, STREAM_STAGGER_TICK, x, t) {
                    assert_eq!(stamp, current, "node {x}: discovery left another epoch's row");
                    if let Some((evicted, old)) = stale.remove(&x) {
                        assert_ne!(old, current);
                        let view: Vec<usize> =
                            sim.shuffles[x].view().ids().map(|id| id.raw() as usize).collect();
                        for y in evicted {
                            let offered = view.contains(&y);
                            assert_eq!(
                                bit_is_set(row, y),
                                offered || now.contains(&y),
                                "({x}, {y}): offered by the view: {offered}"
                            );
                            re_evaluated += usize::from(offered);
                            unmarked += usize::from(!offered);
                        }
                    }
                } else if fires_at(&sim, STREAM_STAGGER_REFRESH, x, t)
                    && !row.is_empty()
                    && stamp != current
                {
                    let evicted: Vec<usize> =
                        before[x].iter().copied().filter(|y| !now.contains(y)).collect();
                    for &y in &evicted {
                        assert!(bit_is_set(row, y), "a refresh touched the row of node {x}");
                    }
                    if !evicted.is_empty() {
                        stale.entry(x).or_insert((Vec::new(), stamp)).0.extend(evicted);
                    }
                }
            }
        }
        assert!(re_evaluated > 0, "no stale eviction was offered to the next discovery");
        assert!(unmarked > 0, "every stale eviction was offered again");
        assert_equals_reference_finalize(&sim);
    }

    #[test]
    fn a_row_allocated_for_a_node_with_neighbors_carries_their_bits() {
        // Lists built before any row exists: a converged rebuild, then
        // the same simulation continues event-driven. Each node's first
        // discovery allocates its row and must mark the neighbors it
        // already has — a converged list is ~all of them out of view.
        let mut sim = event_driven_sim(
            100,
            OracleChoice::Exact,
            MaintenanceEngine::Serial,
            hashes::DEFAULT_HASH_BUDGET,
        );
        let event_driven = sim.config.maintenance;
        sim.config.maintenance = MaintenanceMode::Converged;
        sim.warm_up(SimDuration::from_mins(30));
        sim.config.maintenance = event_driven;
        let built: Vec<Vec<usize>> = (0..100).map(|x| neighbor_ids(&sim, x)).collect();
        assert!(built.iter().map(Vec::len).sum::<usize>() > 500, "vacuous overlay");
        sim.warm_up(SimDuration::from_secs(15));
        let (mut rows, mut out_of_view) = (0, 0);
        for (x, neighbors) in built.iter().enumerate() {
            let (stamp, row) = skip_row(&sim, x);
            if stamp == 0 {
                continue; // offline: never ticked
            }
            rows += 1;
            for &y in neighbors {
                assert!(bit_is_set(row, y), "row of node {x} lacks its neighbor {y}");
                let view = sim.shuffle_view(NodeId::new(x as u64));
                out_of_view += usize::from(!view.contains(NodeId::new(y as u64)));
            }
        }
        assert!(rows > 20 && out_of_view > 100, "{rows} rows, {out_of_view} out-of-view marks");
    }

    #[test]
    fn a_verdict_row_is_allocated_at_the_nodes_first_stamped_discovery() {
        // Three uneven shards, so a row sized by the shard's length or a
        // bit indexed by the shard-local offset cannot pass for right.
        let engine = MaintenanceEngine::Sharded {
            shards: Some(3),
            threads: Some(1),
        };
        let mut sim = event_driven_sim(
            100,
            OracleChoice::Exact,
            engine,
            hashes::DEFAULT_HASH_BUDGET,
        );
        let words = 100usize.div_ceil(64);
        let rows_by_node = |sim: &AvmemSim| -> Vec<usize> {
            let maint = sim.maint.as_ref().expect("event-driven maintenance ran");
            let mut lens = vec![0; 100];
            for (s, scratch) in maint.scratches.iter().enumerate() {
                let state = &scratch.fast;
                assert!(state.seen.is_empty(), "view lists sized beside the rows");
                for (local, row) in state.verdicts.iter().enumerate() {
                    // Allocated exactly when a stamped discovery ran.
                    assert_eq!(row.is_empty(), state.seen_stamp[local] == 0);
                    lens[maint.part.range(s).start + local] = row.len();
                }
            }
            lens
        };
        // A third of a period in: the stagger has let only some nodes tick.
        sim.warm_up(SimDuration::from_secs(5));
        let early = rows_by_node(&sim);
        let ticked = early.iter().filter(|&&len| len > 0).count();
        assert!(ticked > 0 && ticked < 100, "{ticked} of 100 nodes ticked");
        sim.warm_up(SimDuration::from_mins(10));
        let late = rows_by_node(&sim);
        assert!(late.iter().filter(|&&len| len > 0).count() > ticked);
        for (node, (&before, &after)) in early.iter().zip(&late).enumerate() {
            assert!(after == 0 || after == words, "node {node}: {after} words");
            assert!(before <= after, "node {node} lost its row");
        }
        // Offline nodes never tick: rows are per node that needed one.
        assert!(late.contains(&0), "every node allocated a row");
    }

    #[test]
    fn beyond_the_budget_no_verdict_row_exists() {
        let mut sim = event_driven_sim(100, OracleChoice::Exact, MaintenanceEngine::Serial, 0);
        sim.warm_up(SimDuration::from_mins(10));
        let state = &sim.maint.as_ref().expect("maintenance ran").scratches[0].fast;
        assert!(state.verdicts.is_empty());
        assert_eq!(state.seen.len(), 100);
        assert!(state.seen.iter().any(|list| !list.is_empty()));
        assert!(sim.finalize_stats().discover_pruned > 0);
    }

    #[test]
    fn per_querier_noise_allocates_no_finalize_state() {
        // No epoch, no stamp: nothing may outlive a finalize op, so no
        // per-node column is sized in either regime.
        for budget in [hashes::DEFAULT_HASH_BUDGET, 0] {
            let mut sim = event_driven_sim(
                100,
                OracleChoice::paper_noise(),
                MaintenanceEngine::Serial,
                budget,
            );
            sim.warm_up(SimDuration::from_mins(10));
            let stats = sim.finalize_stats();
            assert!(stats.memo_bypassed > 0 && stats.batched_estimates > 0);
            assert_eq!((stats.memo_hits, stats.discover_pruned), (0, 0));
            let state = &sim.maint.as_ref().expect("maintenance ran").scratches[0].fast;
            assert!(state.verdicts.is_empty() && state.seen.is_empty());
            assert!(state.seen_stamp.is_empty() && state.horizontal.is_empty());
        }
    }

    #[test]
    fn an_epoch_beyond_the_stamp_range_gets_no_stamp() {
        assert_eq!(compact_stamp(0), Some(1));
        assert_eq!(compact_stamp(u32::MAX as u64 - 1), Some(u32::MAX));
        // These used to wrap to the "unset" stamp 0 and to epoch 0's
        // stamp 1, whose memos a release build would then have reused.
        assert_eq!(compact_stamp(u32::MAX as u64), None);
        assert_eq!(compact_stamp(1 << 32), None);
    }

    #[test]
    fn cohorts_on_either_side_of_the_inline_bound_match_the_serial_engine() {
        // The equivalence suites run 40–150 hosts, whose cohorts all stay
        // below `INLINE_COHORT_EVENTS` and therefore on the calling
        // thread. Here a tick slot fires every second and a refresh slot
        // every other second: at 2 600 hosts a cohort is ~162 events
        // without a refresh slot and ~325 with one — the run alternates
        // between inline cohorts and cohorts fanned out to the pool, and
        // must land on the serial engine's state all the same.
        let trace = OvernetModel::default().hosts(2600).days(1).generate(37);
        let mut cfg = SimConfig::paper_default(16);
        cfg.maintenance = MaintenanceMode::EventDriven {
            protocol_period: SimDuration::from_secs(16),
            refresh_period: SimDuration::from_secs(32),
        };
        cfg.engine = MaintenanceEngine::Serial;
        let mut serial = AvmemSim::new(trace.clone(), cfg);
        cfg.engine = MaintenanceEngine::Sharded {
            shards: Some(3),
            threads: Some(3),
        };
        let mut sharded = AvmemSim::new(trace, cfg);
        let (mut inline, mut pooled) = (0, 0);
        let end = SimTime::ZERO + SimDuration::from_secs(40);
        sharded.warm_up(SimDuration::ZERO);
        while sharded.next_maintenance_at().is_some_and(|t| t <= end) {
            let t = run_next_cohort(&mut sharded);
            let events = (0..2600)
                .flat_map(|i| [(STREAM_STAGGER_TICK, i), (STREAM_STAGGER_REFRESH, i)])
                .filter(|&(stream, i)| fires_at(&sharded, stream, i, t))
                .count();
            if events < INLINE_COHORT_EVENTS {
                inline += 1;
            } else {
                pooled += 1;
            }
        }
        assert!(inline >= 5 && pooled >= 5, "{inline} inline cohorts, {pooled} pooled");
        serial.advance_to(sharded.now());
        assert_eq!(serial.snapshot(), sharded.snapshot());
        for i in 0..2600 {
            let id = NodeId::new(i as u64);
            assert_eq!(serial.membership(id), sharded.membership(id), "node {id}");
            assert_eq!(serial.shuffle_view(id), sharded.shuffle_view(id));
        }
    }

    #[test]
    fn sharded_engine_matches_serial_in_unit_scale() {
        // The integration suite pins the full matrix; this is the fast
        // in-crate smoke over one awkward shard count.
        let trace = OvernetModel::default().hosts(75).days(1).generate(29);
        let mut serial_cfg = SimConfig::paper_default(12);
        serial_cfg.maintenance = MaintenanceMode::paper_event_driven();
        serial_cfg.engine = MaintenanceEngine::Serial;
        let mut serial = AvmemSim::new(trace.clone(), serial_cfg);
        serial.warm_up(SimDuration::from_hours(2));

        let mut sharded_cfg = serial_cfg;
        sharded_cfg.engine = MaintenanceEngine::Sharded {
            shards: Some(3),
            threads: Some(2),
        };
        let mut sharded = AvmemSim::new(trace, sharded_cfg);
        sharded.warm_up(SimDuration::from_hours(2));

        assert_eq!(serial.snapshot(), sharded.snapshot());
        for i in 0..serial.trace().num_nodes() {
            let id = NodeId::new(i as u64);
            assert_eq!(serial.shuffle_view(id), sharded.shuffle_view(id));
        }
    }
}
