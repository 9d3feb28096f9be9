//! {Threshold, Range}-Multicast (§3.2-II of the paper).
//!
//! A multicast is a two-stage process: an **anycast into the range**
//! followed by **dissemination within the range**, using either:
//!
//! * **Flooding** — on first receipt, an in-range node forwards the
//!   message to *all* its neighbors whose cached availability lies in the
//!   range. Highly reliable, wasteful (duplicate copies).
//! * **Gossip** — on first receipt, an in-range node gossips
//!   periodically: every `period`, it picks up to `fanout` in-range
//!   neighbors it has not yet sent to (deterministic iteration through
//!   its list) and forwards; it stops after `rounds` periods. The paper
//!   sets `rounds × fanout = log N*` for w.h.p. dissemination.
//!
//! # The dissemination kernel
//!
//! Both strategies are one discrete-event loop whose events are ordered
//! by `(time, seq)`, `seq` being the order in which copies and gossip
//! ticks were sent — so the latency CDFs of Figs. 11–13 fall out of
//! message timing directly. A flood's cost is its duplicate copies, yet
//! a node acts on its *earliest* copy only: every later one is dropped on
//! arrival. The kernel therefore applies the **first-copy invariant** at
//! send time. Every copy is still counted as a message, still tests
//! whether its receiver is online and still draws its hop latency; but
//! it enters the queue only if it arrives strictly before the earliest
//! copy its receiver has queued so far (a tie loses: the earlier-sent
//! copy pops first), and never once the receiver has been delivered. A
//! copy left out would have been popped after that earlier copy and
//! ignored, so nodes are delivered in exactly the `(time, seq)` order a
//! queue of *all* copies yields — same deliveries, arrival times,
//! message count and `Network` stream position — while queue traffic
//! falls from one push and pop per copy to a few per node. A queued copy
//! that a better one overtakes stays queued and is skipped when it pops,
//! its receiver by then delivered. The queue-every-copy loop survives as
//! the test-only reference model the kernel is checked against.
//!
//! The queue is a calendar of one-millisecond buckets
//! ([`CalendarQueue`]): within an instant it pops in push order, which
//! *is* `seq` order, so no event carries a number. Per-node state lives
//! in two dense columns indexed by node id and stamped with a
//! per-multicast generation ([`OpScratch`]), so nothing is cleared
//! between operations: a 16-byte row per node for what every copy reads
//! and writes (earliest queued arrival, none / queued / delivered), and a
//! gossip-progress column (list cursor, rounds done) that only gossiping
//! forwarders touch. A neighbor list never repeats an id (the
//! [`OverlayWorld::neighbors`] contract), so a forwarder has sent to
//! exactly the in-range neighbors behind its cursor, and no row records
//! who sent to it. The
//! `eligible` count is the world's to answer
//! ([`OverlayWorld::eligible`]; the harness does it in two binary
//! searches), so a multicast costs what it reaches.

use avmem_sim::{Network, SimDuration, SimTime};
use avmem_util::{NodeId, Rng};
use serde::{Deserialize, Serialize};

use crate::membership::SliverScope;
use crate::ops::anycast::{run_anycast, AnycastConfig, AnycastOutcome};
use crate::ops::calendar::CalendarQueue;
use crate::ops::target::AvailabilityTarget;
use crate::ops::world::OverlayWorld;
use crate::ops::OpScratch;
use compact::Lanes;

/// Dissemination strategy inside the target range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MulticastStrategy {
    /// Forward to every in-range neighbor on first receipt.
    Flood,
    /// Periodic gossip with bounded fanout and rounds.
    Gossip {
        /// Neighbors contacted per gossip period.
        fanout: u32,
        /// Number of gossip periods after first receipt (`Ng`).
        rounds: u32,
        /// Gossip period length (the paper uses 1 s).
        period: SimDuration,
    },
}

impl MulticastStrategy {
    /// The paper's gossip parameters: fanout 5, `Ng` = 2, period 1 s
    /// (`fanout × Ng ≈ log N*` for the 1442-host trace).
    pub fn paper_gossip() -> Self {
        MulticastStrategy::Gossip {
            fanout: 5,
            rounds: 2,
            period: SimDuration::from_secs(1),
        }
    }
}

/// Configuration of one multicast.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MulticastConfig {
    /// Dissemination strategy within the range.
    pub strategy: MulticastStrategy,
    /// Which sliver lists dissemination may use.
    pub scope: SliverScope,
    /// Configuration of the stage-1 anycast that carries the message into
    /// the range.
    pub anycast: AnycastConfig,
}

impl MulticastConfig {
    /// The paper's default: flooding over HS+VS, entered via a
    /// retried-greedy anycast (TTL 6, retry 8).
    pub fn paper_default() -> Self {
        MulticastConfig {
            strategy: MulticastStrategy::Flood,
            scope: SliverScope::Both,
            anycast: AnycastConfig {
                policy: crate::ops::anycast::ForwardPolicy::RetriedGreedy { retries: 8 },
                scope: SliverScope::Both,
                ttl: 6,
            },
        }
    }
}

/// Result of one multicast.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MulticastOutcome {
    /// The stage-1 anycast that carried the message to the range.
    pub anycast: AnycastOutcome,
    /// Every node that received the payload with its arrival time
    /// (measured from multicast start, anycast latency included), in
    /// arrival order; each node appears once.
    pub deliveries: Vec<(NodeId, SimDuration)>,
    /// Online nodes whose *true* availability lies in the target — the
    /// paper's "number that could have been delivered".
    pub eligible: usize,
    /// Total payload messages sent during dissemination (anycast messages
    /// are accounted in `anycast`).
    pub messages: u64,
}

impl MulticastOutcome {
    /// When `node` received the payload, if it did.
    pub fn arrival(&self, node: NodeId) -> Option<SimDuration> {
        self.deliveries
            .iter()
            .find_map(|&(id, at)| (id == node).then_some(at))
    }

    /// Nodes that received the payload and truly belong to the range.
    pub fn delivered_in_range<'a>(
        &'a self,
        world: &'a (impl OverlayWorld + ?Sized),
        target: AvailabilityTarget,
    ) -> impl Iterator<Item = NodeId> + 'a {
        self.deliveries
            .iter()
            .map(|&(id, _)| id)
            .filter(move |&id| target.contains(world.true_availability(id)))
    }

    /// The paper's reliability metric: delivered / could-have-been
    /// delivered. `None` when the range held no eligible node.
    pub fn reliability(
        &self,
        world: &(impl OverlayWorld + ?Sized),
        target: AvailabilityTarget,
    ) -> Option<f64> {
        if self.eligible == 0 {
            return None;
        }
        let delivered = self.delivered_in_range(world, target).count();
        Some(delivered as f64 / self.eligible as f64)
    }

    /// The paper's spam metric (Fig. 12): receivers outside the true
    /// range, divided by the eligible count. `None` when the range held
    /// no eligible node.
    pub fn spam_ratio(
        &self,
        world: &(impl OverlayWorld + ?Sized),
        target: AvailabilityTarget,
    ) -> Option<f64> {
        if self.eligible == 0 {
            return None;
        }
        let spam = self
            .deliveries
            .iter()
            .filter(|&&(id, _)| !target.contains(world.true_availability(id)))
            .count();
        Some(spam as f64 / self.eligible as f64)
    }

    /// Worst-case delivery latency — "the time of the last receiving node
    /// obtaining the multicast" (Fig. 11): the last entry of the
    /// arrival-ordered `deliveries`. `None` if nothing was delivered.
    pub fn worst_latency(&self) -> Option<SimDuration> {
        self.deliveries.last().map(|&(_, at)| at)
    }
}

// What a node has of the payload so far, in the two low bits of
// `Row::stamp`.
/// No copy is on its way.
const NONE: u32 = 0;
/// The earliest copy queued so far arrives at [`Row::earliest`].
const QUEUED: u32 = 1;
/// The payload arrived; every further copy is a duplicate.
const DELIVERED: u32 = 2;
const RECEIPT_MASK: u32 = 3;
/// Generations are multiples of this, leaving the receipt bits clear.
const GENERATION_STEP: u32 = RECEIPT_MASK + 1;

/// One node's row of the dense dissemination state: all a copy reads and
/// writes, in 16 bytes.
#[derive(Debug, Clone, Copy)]
struct Row {
    /// `generation | receipt`. Under any generation but the current one
    /// the row reads as [`Row::UNTOUCHED`].
    stamp: u32,
    /// Under [`QUEUED`], when the earliest copy queued so far arrives.
    /// Any instant is legal, [`SimTime::MAX`] included (a saturated
    /// gossip period), which is why the receipt is not folded into it.
    earliest: SimTime,
}

/// At 1 442 hosts the column is 23 KB: it stays in L1 under a flood.
const _: () = assert!(std::mem::size_of::<Row>() == 16);

impl Row {
    /// Generation 0 is never current (see [`Dissemination::begin`]).
    const UNTOUCHED: Row = Row {
        stamp: NONE,
        earliest: SimTime::ZERO,
    };

    #[inline]
    fn receipt(&self) -> u32 {
        self.stamp & RECEIPT_MASK
    }

    #[inline]
    fn set_receipt(&mut self, receipt: u32) {
        self.stamp = self.stamp & !RECEIPT_MASK | receipt;
    }
}

/// `node`'s row under `generation`, reset first if an earlier multicast
/// wrote it last.
#[inline]
fn row(rows: &mut [Row], generation: u32, node: u32) -> &mut Row {
    let row = &mut rows[node as usize];
    if row.stamp & !RECEIPT_MASK != generation {
        *row = Row {
            stamp: generation,
            ..Row::UNTOUCHED
        };
    }
    row
}

/// A gossiping forwarder's progress through its list — a column of its
/// own, which copies (and floods altogether) never touch.
#[derive(Debug, Clone, Copy)]
struct Progress {
    /// As [`Row::stamp`], without receipt bits.
    generation: u32,
    /// Gossip rounds already executed.
    rounds_done: u32,
    /// How far into its list the node has gossiped.
    cursor: usize,
}

impl Progress {
    const UNTOUCHED: Progress = Progress {
        generation: 0,
        rounds_done: 0,
        cursor: 0,
    };
}

/// A queued event: a copy arriving at `node`, or `node`'s gossip period
/// firing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    node: u32,
    tick: bool,
}

/// The dissemination part of [`OpScratch`]: node-indexed columns valid
/// for one generation, the event queue, and the arrival log the outcome
/// is copied from. Grows to the largest `id_bound` seen and is never
/// cleared between multicasts.
#[derive(Debug, Default)]
pub(crate) struct Dissemination {
    rows: Vec<Row>,
    /// Sized by the first gossip; a flood forwards once per node, from
    /// the head of its list, and keeps no progress.
    progress: Vec<Progress>,
    generation: u32,
    /// The list positions of the forwarding pass's in-range neighbors;
    /// grows to the longest list seen.
    positions: Vec<u32>,
    /// Their ids, then the online receivers the pass sends to, at the
    /// front; grows to the longest list seen, plus [`compact::SLACK`].
    in_range: Vec<u32>,
    /// Which arm tests a flood's receivers: the CPU probe's.
    lanes: Lanes,
    queue: CalendarQueue<Event>,
    arrivals: Vec<(NodeId, SimDuration)>,
}

impl Dissemination {
    /// Opens a new generation: every row reads as untouched again
    /// without being written.
    fn begin(&mut self, id_bound: usize, strategy: MulticastStrategy) {
        assert!(
            id_bound <= u32::MAX as usize,
            "node ids are index-space (must fit u32)"
        );
        if self.rows.len() < id_bound {
            self.rows.resize(id_bound, Row::UNTOUCHED);
        }
        let gossips = matches!(strategy, MulticastStrategy::Gossip { .. });
        if gossips && self.progress.len() < id_bound {
            self.progress.resize(id_bound, Progress::UNTOUCHED);
        }
        self.generation = self.generation.wrapping_add(GENERATION_STEP);
        if self.generation == 0 {
            // The counter wrapped: a row last written 2³⁰ multicasts ago
            // would pass for current. Wipe once, restart at the first.
            self.rows.fill(Row::UNTOUCHED);
            self.progress.fill(Progress::UNTOUCHED);
            self.generation = GENERATION_STEP;
        }
        self.queue.clear();
        self.arrivals.clear();
    }

    /// `node`'s gossip progress under the current generation.
    fn progress(&mut self, node: u32) -> &mut Progress {
        let progress = &mut self.progress[node as usize];
        if progress.generation != self.generation {
            *progress = Progress {
                generation: self.generation,
                ..Progress::UNTOUCHED
            };
        }
        progress
    }
}

/// A copy for `node` arriving at `at`: queued only if it is the earliest
/// copy `node` has so far — one test, taken for a few copies a node. A
/// row an earlier multicast wrote last reads as untouched, and is reset
/// whole (as [`row`] does) when its first copy is queued.
#[inline]
fn send_copy(
    queue: &mut CalendarQueue<Event>,
    rows: &mut [Row],
    generation: u32,
    node: u32,
    at: SimTime,
) {
    let row = &mut rows[node as usize];
    let current = row.stamp & !RECEIPT_MASK == generation;
    let receipt = if current { row.receipt() } else { NONE };
    // On a tie the earlier-sent copy pops first; queueing this one would
    // only add an entry to skip.
    let first = (receipt == NONE) | (receipt == QUEUED) & (at < row.earliest);
    if first {
        row.stamp = generation | QUEUED;
        row.earliest = at;
        queue.push(at, Event { node, tick: false });
    }
}

/// Whether `ids` names no id twice; `scratch`, as long, is overwritten.
fn is_set(ids: &[u32], scratch: &mut [u32]) -> bool {
    scratch.copy_from_slice(ids);
    scratch.sort_unstable();
    scratch.windows(2).all(|pair| pair[0] != pair[1])
}

/// One running dissemination: the world and latency stream it reads, the
/// scratch it writes, and the message count every send advances.
struct Kernel<'a, W: ?Sized> {
    world: &'a W,
    net: &'a mut Network,
    state: &'a mut Dissemination,
    target: AvailabilityTarget,
    scope: SliverScope,
    messages: u64,
}

impl<W: OverlayWorld + ?Sized> Kernel<'_, W> {
    /// One forwarding pass of `from` at `now`: walk its list from `start`
    /// — where its previous pass stopped — and send to at most `budget`
    /// neighbors whose cached availability is in range. The list is a
    /// set, so none of them has had a copy from `from` yet. Returns where
    /// the next pass starts: the first in-range neighbor this one did not
    /// reach, or the list's end.
    ///
    /// The pass first compacts the in-range neighbors ahead of `start` (on
    /// `ops-storm` about two entries in three pass) and takes the first
    /// `budget` as sends, keeping the online ones, without touching a row.
    /// A pass that takes every one of them — a flood's — does both steps
    /// sixteen entries at a time where the CPU has AVX-512 F ([`Lanes`]).
    /// The *arrival* pass then draws one hop latency per online receiver,
    /// in list order, and queues the copies that arrive first. Draws and
    /// pushes come in the order one loop would make them, so the results
    /// and the stream's position are the same; but no branch on a row or
    /// on the online bit guards a draw.
    fn forward(&mut self, from: u32, now: SimTime, start: usize, budget: usize) -> usize {
        let list = self
            .world
            .neighbors(NodeId::new(u64::from(from)), self.scope);
        let Dissemination {
            rows,
            queue,
            generation,
            positions,
            in_range,
            lanes,
            ..
        } = &mut *self.state;
        let generation = *generation;
        let len = list.ids.len();
        if in_range.len() < len + compact::SLACK {
            positions.resize(len, 0);
            in_range.resize(len + compact::SLACK, 0);
        }
        debug_assert!(
            is_set(list.ids, &mut in_range[..len]),
            "node {from}'s neighbor list repeats an id"
        );
        let ahead = &list.ids[start..];
        let cached_ahead = &list.cached_availability[start..];
        let every = if budget >= ahead.len() {
            let words = self.world.online_words();
            lanes.compact_online(self.target, ahead, cached_ahead, words, in_range)
        } else {
            None
        };
        let (sent, online, cursor) = match every {
            Some((sent, online)) => (sent, online, len),
            None => {
                let base = u32::try_from(start).expect("list positions must fit u32");
                let kept =
                    compact::compact(self.target, ahead, cached_ahead, base, positions, in_range);
                let take = kept.min(budget);
                // The online receivers are compacted into the front of
                // `in_range`, behind the entry being read.
                let mut online = 0;
                for next in 0..take {
                    let id = in_range[next];
                    in_range[online] = id;
                    online += usize::from(self.world.is_online(NodeId::new(u64::from(id))));
                }
                let cursor = if take < kept {
                    positions[take] as usize
                } else {
                    len
                };
                (take, online, cursor)
            }
        };
        self.messages += sent as u64;
        // Arrive.
        for &id in &in_range[..online] {
            let at = now + self.net.hop_latency();
            send_copy(queue, rows, generation, id, at);
        }
        cursor
    }

    /// Drains the queue. Always terminates: a node forwards or starts
    /// gossiping once, on delivery, and gossip runs a bounded number of
    /// rounds.
    fn run(&mut self, strategy: MulticastStrategy) {
        while let Some((now, Event { node, tick })) = self.state.queue.pop() {
            if !tick {
                let row = row(&mut self.state.rows, self.state.generation, node);
                if row.receipt() == DELIVERED {
                    continue; // a copy queued before a better one overtook it
                }
                row.set_receipt(DELIVERED);
                let id = NodeId::new(u64::from(node));
                self.state
                    .arrivals
                    .push((id, now.saturating_since(SimTime::ZERO)));
                // Only nodes that believe themselves in range forward.
                if !self.target.contains(self.world.believed_availability(id)) {
                    continue;
                }
            }
            match (strategy, tick) {
                (MulticastStrategy::Flood, _) => {
                    self.forward(node, now, 0, usize::MAX);
                }
                // First gossip round fires on receipt, after whatever
                // else is already queued for this instant.
                (MulticastStrategy::Gossip { .. }, false) => {
                    self.state.queue.push(now, Event { node, tick: true });
                }
                (
                    MulticastStrategy::Gossip {
                        fanout,
                        rounds,
                        period,
                    },
                    true,
                ) => {
                    let progress = self.state.progress(node);
                    if progress.rounds_done >= rounds {
                        continue;
                    }
                    progress.rounds_done += 1;
                    let again = progress.rounds_done < rounds;
                    // Deterministic iteration through the list (§3.2):
                    // resume from the cursor, take up to `fanout` targets.
                    let start = progress.cursor;
                    let cursor = self.forward(node, now, start, fanout as usize);
                    self.state.progress(node).cursor = cursor;
                    if again {
                        self.state
                            .queue
                            .push(now + period, Event { node, tick: true });
                    }
                }
            }
        }
    }
}

/// Runs one multicast: anycast into the range, then flood/gossip within.
/// `scratch` is working memory reused across operations (its contents on
/// entry do not matter).
///
/// Returns the outcome even when the anycast fails to enter the range (in
/// which case `deliveries` is empty unless the initiator itself was in
/// range).
pub fn run_multicast<W, R>(
    world: &W,
    net: &mut Network,
    rng: &mut R,
    scratch: &mut OpScratch,
    initiator: NodeId,
    target: AvailabilityTarget,
    config: MulticastConfig,
) -> MulticastOutcome
where
    W: OverlayWorld + ?Sized,
    R: Rng,
{
    let eligible = world.eligible(target);

    // Stage 1: anycast into the range.
    let anycast = run_anycast(world, net, rng, scratch, initiator, target, config.anycast);
    let mut outcome = MulticastOutcome {
        anycast,
        deliveries: Vec::new(),
        eligible,
        messages: 0,
    };
    let Some(entry) = outcome.anycast.delivered_to else {
        return outcome;
    };

    // Stage 2: dissemination. Time zero is the multicast start; the
    // entry node receives at the anycast's latency.
    let state = &mut scratch.dissemination;
    state.begin(world.id_bound(), config.strategy);
    let entry = u32::try_from(entry.raw()).expect("node ids are index-space (must fit u32)");
    let entered = SimTime::ZERO + outcome.anycast.latency;
    send_copy(
        &mut state.queue,
        &mut state.rows,
        state.generation,
        entry,
        entered,
    );
    let mut kernel = Kernel {
        world,
        net,
        state,
        target,
        scope: config.scope,
        messages: 0,
    };
    kernel.run(config.strategy);
    outcome.messages = kernel.messages;
    outcome.deliveries = kernel.state.arrivals.clone();
    outcome
}

mod compact;

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests;
