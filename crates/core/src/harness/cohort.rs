//! One timestamp cohort of event-driven maintenance, run shard by shard.
//!
//! A cohort runs in four shard phases — propose, request application,
//! reply/timeout application, finalize — each written once as a function
//! of one shard's slice of the node-indexed state and its
//! [`ShardScratch`], with a message exchange between shards at the two
//! barriers of the commit. [`AvmemSim::run_cohort`] drives them: on the
//! calling thread for small cohorts and one-thread engines, on the worker
//! pool otherwise — the same bodies either way.

use std::mem;

use avmem_metrics::{shard_lane, Histogram, Span, Tracer};
use avmem_shuffle::{EntryPool, ShuffleNode, ShuffleProposal, ViewEntry};
use avmem_sim::SimTime;
use avmem_trace::OnlineIndex;
use avmem_util::parallel::par_each_mut;
use avmem_util::{Availability, NodeId, ShardPartition, SplitMix64};

use super::finalize::{FinalizeShardState, FinalizeStats, MaintCtx};
use super::schedule::{MaintKind, PeriodicWheel};
use super::{
    AvmemSim, MaintSchedule, PH_COMMIT, PH_FINALIZE, PH_PROPOSE, STREAM_BOOTSTRAP, STREAM_SHUFFLE,
};
use crate::membership::{Membership, Neighbor};
use crate::predicate::Sliver;

/// Seeds handed to a node bootstrapping an empty coarse view (stands in
/// for a bootstrap service answering with a few live peers).
pub(super) const BOOTSTRAP_SEEDS: usize = 3;

/// Below this many events, a cohort's shard phases run on the calling
/// thread even when the engine has worker threads: waking the pool and
/// meeting it at four barriers (≈ 10–17 µs a cohort) costs more than the
/// cohort's work. Chosen from a sweep of the `overnet-day` spec at 2
/// shards × 2 threads on a 2-CPU box, pool against inline, maintenance
/// seconds per 481 cohorts: 90 events a cohort (1 442 hosts) 0.045 vs
/// 0.041, 180 events 0.126 vs 0.120, 360 events 0.349 vs 0.357, 721
/// events 0.751 vs 1.147, 1 442 events 2.09 vs 3.59 — the pool loses
/// 5–10 % up to 180 events, breaks even near 360 and wins 35 % at 721.
pub(super) const INLINE_COHORT_EVENTS: usize = 256;

/// The discovery/refresh work one node performs in the finalize phase of
/// a cohort. Intra-node order is canonical — discovery (tick) before
/// refresh — so finalize depends only on *which* events fired, never on
/// their position in any queue.
#[derive(Debug, Clone, Copy)]
pub(super) struct NodeOps {
    pub(super) node: u32,
    pub(super) discover: bool,
    pub(super) refresh: bool,
}

/// A shuffle request crossing from its initiator's shard to its
/// responder's shard: the initiator id (the commit-order key), the
/// responder, and the request entries captured at propose time.
#[derive(Debug, Clone)]
struct RequestMsg {
    initiator: u32,
    responder: u32,
    request: Vec<ViewEntry>,
}

/// A shuffle reply traveling back to the initiator's shard.
#[derive(Debug, Clone)]
struct ReplyMsg {
    initiator: u32,
    reply: Vec<ViewEntry>,
}

/// One shard's end of a cohort-wide message exchange: what it sends,
/// batched by destination shard, and what [`exchange`] delivered to it.
#[derive(Debug, Clone)]
struct Mailbox<M> {
    out: Vec<Vec<M>>,
    inbox: Vec<M>,
}

impl<M> Default for Mailbox<M> {
    fn default() -> Self {
        Mailbox {
            out: Vec::new(),
            inbox: Vec::new(),
        }
    }
}

/// Per-shard scratch state for one cohort: the shard's work lists, its
/// mailboxes, and reusable per-worker buffers. Persisted across cohorts
/// so the hot loop stops allocating once the buffers reach cohort size.
#[derive(Debug, Clone, Default)]
pub(super) struct ShardScratch {
    /// Online ticking nodes of this shard's cohort slice, sorted.
    ticks: Vec<u32>,
    /// Online refreshing nodes, sorted.
    refreshes: Vec<u32>,
    /// Per-node finalize ops, ascending by node.
    ops: Vec<NodeOps>,
    /// Shuffle requests, addressed to the responder's shard; each outbox
    /// is ascending by initiator (built over the sorted tick list).
    requests: Mailbox<RequestMsg>,
    /// Replies, addressed to the initiator's shard.
    replies: Mailbox<ReplyMsg>,
    /// Timed-out proposals (offline target), applied by this shard.
    timeouts: Vec<(u32, NodeId)>,
    /// Bootstrap-sample scratch.
    seeds: Vec<u32>,
    /// Refresh-migration scratch.
    pub(super) migrants: Vec<(Neighbor, Sliver)>,
    /// Candidate ids collected for one batched oracle call.
    pub(super) cand_ids: Vec<NodeId>,
    /// Batched estimates, aligned with `cand_ids`.
    pub(super) cand_avs: Vec<Option<Availability>>,
    /// Pair hashes of the querier against `cand_ids`, aligned with it.
    pub(super) cand_hashes: Vec<f64>,
    /// View positions of `cand_ids`, aligned with it: where a no-insert
    /// verdict is marked. Filled only by the id-table filter.
    pub(super) cand_pos: Vec<u32>,
    /// Epoch-stamped per-node memos of the finalize phase.
    pub(super) finalize: FinalizeShardState,
    /// Finalize counters, drained after every cohort.
    pub(super) stats: FinalizeStats,
    /// Pooled shuffle-entry buffers: proposal, reply, and in-flight
    /// vectors cycle through here instead of the allocator. Its id table
    /// (8 bytes per id of the population) serves every view merge of the
    /// commit phase and, outside the verdict-memory regime, every
    /// discovery filter of the finalize phase.
    pub(super) pool: EntryPool,
    /// Request application: per-responder chain heads, indexed by the
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

impl ShardScratch {
    /// Starts a cohort: sizes the outboxes and rebuilds the work lists —
    /// `due` is this shard's slice of the cohort ([`PeriodicWheel::due`]),
    /// of which the nodes in `online` (the index, standing at the
    /// cohort's slot) get work.
    fn begin_cohort<'w>(
        &mut self,
        shards: usize,
        due: impl Iterator<Item = (MaintKind, &'w [u32])>,
        online: &OnlineIndex,
    ) {
        if self.requests.out.len() != shards {
            self.requests.out.resize_with(shards, Vec::new);
            self.replies.out.resize_with(shards, Vec::new);
        }
        self.ticks.clear();
        self.refreshes.clear();
        for (kind, nodes) in due {
            let list = match kind {
                MaintKind::Tick => &mut self.ticks,
                MaintKind::Refresh => &mut self.refreshes,
            };
            list.extend(nodes.iter().filter(|&&i| online.contains(i as usize)));
        }
        self.build_ops();
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
    /// Inboxes arrive globally ascending by initiator (see [`exchange`]),
    /// so appending at each chain's tail keeps every responder's chain
    /// in ascending-initiator order — the canonical commit order, the one
    /// a sort by `(responder, initiator)` gives.
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

/// The propose step of one online ticking node: bootstrap an empty
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

/// Node-indexed state a shard phase works on — one slice, or a tuple of
/// slices split by the same partition — and how it splits at a node.
trait NodeSlices: Send + Sized {
    fn split_at(self, mid: usize) -> (Self, Self);
}

impl<T: Send> NodeSlices for &mut [T] {
    fn split_at(self, mid: usize) -> (Self, Self) {
        self.split_at_mut(mid)
    }
}

impl<A: NodeSlices, B: NodeSlices> NodeSlices for (A, B) {
    fn split_at(self, mid: usize) -> (Self, Self) {
        let ((a, rest_a), (b, rest_b)) = (self.0.split_at(mid), self.1.split_at(mid));
        ((a, b), (rest_a, rest_b))
    }
}

/// One cohort as its shard phases see it: its time and due lists, the
/// partition, and the read-only simulation state around them.
struct Cohort<'a> {
    seed: u64,
    t: SimTime,
    part: ShardPartition,
    /// `false` to walk the shards on the calling thread.
    pooled: bool,
    wheel: &'a PeriodicWheel,
    /// Who is up at `t` (refreshed by the advance loop before the cohort
    /// runs): the source of work lists, bootstrap seeds and the
    /// request-or-timeout decision alike.
    online: &'a OnlineIndex,
    tracer: &'a Tracer,
}

impl Cohort<'_> {
    /// Runs `body(self, s, start, slices, scratch)` for every shard `s`:
    /// `slices` is the shard's part of the node-indexed `items`, beginning
    /// at node `start`, and `scratch` its scratch state. An inline cohort
    /// or one shard walks the shards here, in order, splitting `items` as
    /// it goes; otherwise each shard is one job on the worker pool. Shard
    /// bodies are independent, so the result is the same either way.
    fn each_shard<S: NodeSlices>(
        &self,
        items: S,
        scratches: &mut [ShardScratch],
        body: impl Fn(&Self, usize, usize, S, &mut ShardScratch) + Sync,
    ) {
        let mut rest = Some(items);
        let shards = scratches.iter_mut().enumerate().map(|(s, scratch)| {
            let range = self.part.range(s);
            let (slices, tail) = rest.take().expect("split once a shard").split_at(range.len());
            rest = Some(tail);
            (range.start, slices, scratch)
        });
        if !self.pooled || self.part.shards() <= 1 {
            for (s, (start, slices, scratch)) in shards.enumerate() {
                body(self, s, start, slices, scratch);
            }
        } else {
            let mut tasks: Vec<_> = shards
                .map(|(start, slices, scratch)| (start, Some(slices), scratch))
                .collect();
            par_each_mut(&mut tasks, self.part.shards(), |s, (start, slices, scratch)| {
                body(self, s, *start, slices.take().expect("one job a shard"), scratch)
            });
        }
    }

    /// Shard `s`'s busy-time span for `phase`. With one shard the
    /// coordinator's span says the same thing.
    fn lane_span(&self, phase: usize, s: usize) -> Option<Span<'_>> {
        (self.part.shards() > 1).then(|| self.tracer.span(phase, shard_lane(s)))
    }

    /// Phase 1 — propose: collect the shard's work lists, then every
    /// online ticking node bootstraps (if its view is empty) and computes
    /// and applies its shuffle proposal. An online target turns the
    /// proposal into a request for the responder's shard; an offline or
    /// out-of-range one into a timeout notice for this shard.
    fn propose(
        &self,
        s: usize,
        start: usize,
        nodes: &mut [ShuffleNode],
        scratch: &mut ShardScratch,
    ) {
        let _span = self.lane_span(PH_PROPOSE, s);
        scratch.begin_cohort(self.part.shards(), self.wheel.due(s), self.online);
        for k in 0..scratch.ticks.len() {
            let i = scratch.ticks[k] as usize;
            let Some(p) = propose_tick(
                self.seed,
                self.online,
                self.t,
                i,
                &mut nodes[i - start],
                &mut scratch.seeds,
                &mut scratch.pool,
            ) else {
                continue;
            };
            let target = p.target();
            let tgt = target.raw() as usize;
            if self.online.contains(tgt) {
                let (_, request) = p.into_request();
                scratch.requests.out[self.part.owner(tgt)].push(RequestMsg {
                    initiator: i as u32,
                    responder: tgt as u32,
                    request,
                });
            } else {
                p.recycle_into(&mut scratch.pool);
                scratch.timeouts.push((i as u32, target));
            }
        }
    }

    /// Phase 2a — request application: chain the inbox by responder
    /// (counting buckets, no sort) and apply chain by chain — each
    /// responder takes its requests in ascending initiator id; order
    /// across responders is immaterial, a request touches only its
    /// responder's state — sending each reply to the initiator's shard.
    fn apply_requests(
        &self,
        _s: usize,
        start: usize,
        nodes: &mut [ShuffleNode],
        scratch: &mut ShardScratch,
    ) {
        let mut inbox = mem::take(&mut scratch.requests.inbox);
        scratch.chain_by_responder(nodes.len(), inbox.len(), |idx| {
            inbox[idx].responder as usize - start
        });
        for k in 0..scratch.bucket_touched.len() {
            let r = scratch.bucket_touched[k] as usize;
            let mut idx = scratch.bucket_head[r];
            while idx != u32::MAX {
                let msg = &mut inbox[idx as usize];
                let request = mem::take(&mut msg.request);
                let initiator = msg.initiator;
                let reply = nodes[r].handle_request_with(request, &mut scratch.pool);
                scratch.replies.out[self.part.owner(initiator as usize)]
                    .push(ReplyMsg { initiator, reply });
                idx = scratch.bucket_next[idx as usize];
            }
            scratch.bucket_head[r] = u32::MAX;
            scratch.bucket_tail[r] = u32::MAX;
        }
        inbox.clear();
        scratch.requests.inbox = inbox;
    }

    /// Phase 2b — reply and timeout application: at most one per
    /// initiator, each touching only the initiator's own state, so the
    /// order is immaterial and the lists drain as they are.
    fn apply_replies(
        &self,
        _s: usize,
        start: usize,
        nodes: &mut [ShuffleNode],
        scratch: &mut ShardScratch,
    ) {
        for msg in scratch.replies.inbox.drain(..) {
            nodes[msg.initiator as usize - start].handle_reply_with(msg.reply, &mut scratch.pool);
        }
        for (i, target) in scratch.timeouts.drain(..) {
            nodes[i as usize - start].handle_timeout_with(target, &mut scratch.pool);
        }
    }

    /// Phase 3 — finalize: the shard's per-node ops (built in the propose
    /// phase) against its membership slice and the post-commit shuffle
    /// views of the same nodes, which only finalize's marks touch now.
    fn finalize(
        &self,
        ctx: &MaintCtx<'_>,
        s: usize,
        start: usize,
        (lists, nodes): (&mut [Membership], &mut [ShuffleNode]),
        scratch: &mut ShardScratch,
    ) {
        let _span = self.lane_span(PH_FINALIZE, s);
        for k in 0..scratch.ops.len() {
            let ops = scratch.ops[k];
            let local = ops.node as usize - start;
            ctx.finalize_node(ops, &mut lists[local], &mut nodes[local], scratch, start);
        }
    }
}

/// Barrier between shard phases: every shard's outbox for destination
/// `d` is appended to `d`'s inbox. Source shards are walked in ascending
/// order and own ascending contiguous id ranges, so messages sent in
/// ascending sender order — the requests, built over sorted tick lists —
/// arrive globally ascending by sender, the order the commit chains rely
/// on. With `batch_sizes`, records each batch's size (the histogram's
/// sum is the total moved).
fn exchange<M>(
    scratches: &mut [ShardScratch],
    mailbox: impl Fn(&mut ShardScratch) -> &mut Mailbox<M>,
    batch_sizes: Option<&Histogram>,
) {
    for s in 0..scratches.len() {
        for d in 0..scratches.len() {
            let mut batch = mem::take(&mut mailbox(&mut scratches[s]).out[d]);
            if let Some(batch_sizes) = batch_sizes {
                batch_sizes.record(batch.len() as u64);
            }
            mailbox(&mut scratches[d]).inbox.append(&mut batch);
            // Hand the emptied buffer back: outboxes keep their capacity.
            mailbox(&mut scratches[s]).out[d] = batch;
        }
    }
}

impl AvmemSim {
    /// Runs the cohort `maint.wheel` popped last, at its timestamp `t`:
    /// the four shard phases in order, with the request and reply
    /// exchanges between them — on the calling thread if the cohort has
    /// fewer than [`INLINE_COHORT_EVENTS`] events, else one pool job a
    /// shard. Every thread count and inline/pooled choice ends in the same
    /// state: propose randomness is keyed per node, requests apply per
    /// responder in initiator order, finalize is canonical per node.
    pub(super) fn run_cohort(&mut self, t: SimTime, maint: &mut MaintSchedule) {
        let stamp = maint.stamp(self.oracle.epoch(t));
        let MaintSchedule {
            wheel,
            part,
            scratches,
            ..
        } = maint;
        let inline = wheel.due_events() < INLINE_COHORT_EVENTS;
        let cohort = Cohort {
            seed: self.config.seed,
            t,
            part: *part,
            pooled: !inline,
            wheel,
            online: &self.online,
            tracer: &self.tracer,
        };
        // Exchange sizes are worth recording where something crosses a
        // shard boundary.
        let metrics = self.metrics.as_ref().filter(|_| part.shards() > 1);

        let tp = self.tracer.span(PH_PROPOSE, 0);
        cohort.each_shard(&mut self.shuffles[..], scratches, Cohort::propose);
        drop(tp);

        let tc = self.tracer.span(PH_COMMIT, 0);
        exchange(
            scratches,
            |scratch| &mut scratch.requests,
            metrics.map(|m| &m.exchange_req_batch),
        );
        cohort.each_shard(&mut self.shuffles[..], scratches, Cohort::apply_requests);
        exchange(
            scratches,
            |scratch| &mut scratch.replies,
            metrics.map(|m| &m.exchange_reply_batch),
        );
        cohort.each_shard(&mut self.shuffles[..], scratches, Cohort::apply_replies);
        drop(tc);

        let tf = self.tracer.span(PH_FINALIZE, 0);
        let memo = self.predicate.rebuild_memo();
        let (verdict_memory, settles) = self.pair_memories;
        let ctx = MaintCtx {
            memo: &memo,
            stamp,
            settle_above: settles.then(|| memo.vertical_ceiling()),
            oracle: &self.oracle,
            verdict_memory,
            nodes: self.shuffles.len(),
            now: t,
        };
        let lists = (&mut self.memberships[..], &mut self.shuffles[..]);
        cohort.each_shard(lists, scratches, |cohort, s, start, lists, scratch| {
            cohort.finalize(&ctx, s, start, lists, scratch)
        });
        for scratch in scratches.iter_mut() {
            self.fin_stats.merge(mem::take(&mut scratch.stats));
        }
        drop(tf);
    }
}
