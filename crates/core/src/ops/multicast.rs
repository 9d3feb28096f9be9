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
//! and writes (earliest queued arrival, none / queued / delivered, the
//! forwarder that last sent to the node), and a gossip-progress column
//! (list cursor, rounds done) that only gossiping forwarders touch. The
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

/// `sent_by` of a node no forwarder has sent to (ids are below
/// `id_bound ≤ u32::MAX`, so no node has this id).
const NO_FORWARDER: u32 = u32::MAX;

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
    /// The forwarder whose running pass over its list has sent to this
    /// node — the per-forwarder "already sent to" test. One column
    /// serves every forwarder because passes never interleave.
    sent_by: u32,
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
        sent_by: NO_FORWARDER,
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
    /// The in-range neighbors of the forwarding pass under way, as
    /// `(list position, id)`; grows to the longest list seen.
    in_range: Vec<(usize, u32)>,
    queue: CalendarQueue<Event>,
    arrivals: Vec<(NodeId, SimDuration)>,
}

impl Dissemination {
    /// Opens a new generation: every row reads as untouched again
    /// without being written.
    fn begin(&mut self, id_bound: usize, strategy: MulticastStrategy) {
        assert!(
            id_bound <= NO_FORWARDER as usize,
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

/// A copy for `node`, whose `row` this is, arriving at `at`: queued only
/// if it is the earliest copy `node` has so far.
#[inline]
fn send_copy(queue: &mut CalendarQueue<Event>, row: &mut Row, node: u32, at: SimTime) {
    let first = match row.receipt() {
        NONE => true,
        // On a tie the earlier-sent copy pops first; queueing this one
        // would only add an entry to skip.
        QUEUED => at < row.earliest,
        _ => false,
    };
    if first {
        row.set_receipt(QUEUED);
        row.earliest = at;
        queue.push(at, Event { node, tick: false });
    }
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
    /// neighbors whose cached availability is in range and that `from`
    /// has not sent to before. Returns where the next pass starts: the
    /// first in-range neighbor this one did not reach, or the list's end.
    fn forward(&mut self, from: u32, now: SimTime, start: usize, budget: usize) -> usize {
        let list = self
            .world
            .neighbors(NodeId::new(u64::from(from)), self.scope);
        let (done, ahead) = list.ids.split_at(start);
        let Dissemination {
            rows,
            queue,
            generation,
            in_range,
            ..
        } = &mut *self.state;
        // Other forwarders' passes ran since `from`'s last one: re-mark
        // what it sent to then. (Once the cursor reaches the end, every
        // in-range neighbor has been sent to and no pass sends again.)
        for (&id, &cached) in done.iter().zip(list.cached_availability) {
            if self.target.contains(cached) {
                row(rows, *generation, id).sent_by = from;
            }
        }
        // Which of the rest are in range, as (position, id). Every neighbor
        // is stored and only the count depends on the test: under a broad
        // target about half pass, a branch nothing predicts.
        if in_range.len() < ahead.len() {
            in_range.resize(ahead.len(), (0, 0));
        }
        let cached_ahead = &list.cached_availability[start..];
        let mut kept = 0;
        for (offset, (&id, &cached)) in ahead.iter().zip(cached_ahead).enumerate() {
            in_range[kept] = (start + offset, id);
            kept += usize::from(self.target.contains(cached));
        }
        let mut cursor = list.ids.len();
        let mut sent = 0;
        for &(position, id) in &in_range[..kept] {
            if sent == budget {
                cursor = position;
                break;
            }
            let row = row(rows, *generation, id);
            if row.sent_by == from {
                continue; // a second edge to the same node
            }
            row.sent_by = from;
            sent += 1;
            if self.world.is_online(NodeId::new(u64::from(id))) {
                let at = now + self.net.hop_latency();
                send_copy(queue, row, id, at);
            }
        }
        self.messages += sent as u64;
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
        row(&mut state.rows, state.generation, entry),
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

/// The queue-every-copy dissemination over the generic event engine: one
/// push and pop per copy, hash sets for "delivered" and "sent to", a
/// collected neighbor list per forwarding pass. Slow and obviously
/// right; [`run_multicast`] must agree with it draw for draw.
#[cfg(test)]
mod reference {
    use std::collections::{HashMap, HashSet};

    use avmem_sim::Engine;
    use avmem_util::Availability;

    use super::*;

    #[derive(Debug)]
    enum McEvent {
        /// Payload arriving at a node.
        Deliver { to: NodeId },
        /// A gossip period firing at an in-range node.
        GossipTick { at: NodeId },
    }

    /// Per-node gossip progress.
    #[derive(Debug, Default)]
    struct GossipState {
        /// Index into the deterministic neighbor iteration.
        cursor: usize,
        /// Gossip rounds already executed.
        rounds_done: u32,
        /// Nodes already sent to (includes flood forwarding).
        sent_to: HashSet<NodeId>,
    }

    fn neighbors<W: OverlayWorld + ?Sized>(
        world: &W,
        id: NodeId,
        scope: SliverScope,
    ) -> Vec<(NodeId, Availability)> {
        let list = world.neighbors(id, scope);
        list.ids
            .iter()
            .map(|&id| NodeId::new(u64::from(id)))
            .zip(list.cached_availability.iter().copied())
            .collect()
    }

    pub fn run_multicast<W, R>(
        world: &W,
        net: &mut Network,
        rng: &mut R,
        initiator: NodeId,
        target: AvailabilityTarget,
        config: MulticastConfig,
    ) -> MulticastOutcome
    where
        W: OverlayWorld + ?Sized,
        R: Rng,
    {
        let mut eligible = 0;
        for index in 0..world.id_bound() {
            let id = NodeId::new(index as u64);
            if world.is_online(id) && target.contains(world.true_availability(id)) {
                eligible += 1;
            }
        }
        let anycast = run_anycast(
            world,
            net,
            rng,
            &mut OpScratch::default(),
            initiator,
            target,
            config.anycast,
        );
        let mut outcome = MulticastOutcome {
            anycast,
            deliveries: Vec::new(),
            eligible,
            messages: 0,
        };
        let Some(entry) = outcome.anycast.delivered_to else {
            return outcome;
        };

        let mut engine: Engine<McEvent> = Engine::new();
        let mut delivered: HashSet<NodeId> = HashSet::new();
        let mut states: HashMap<NodeId, GossipState> = HashMap::new();
        engine.schedule(
            SimTime::ZERO + outcome.anycast.latency,
            McEvent::Deliver { to: entry },
        );
        while let Some((now, event)) = engine.pop_until(SimTime::MAX) {
            match event {
                McEvent::Deliver { to } => {
                    if !delivered.insert(to) {
                        continue; // duplicate copy, ignored
                    }
                    outcome
                        .deliveries
                        .push((to, now.saturating_since(SimTime::ZERO)));
                    // Only nodes that believe themselves in range forward.
                    if !target.contains(world.believed_availability(to)) {
                        continue;
                    }
                    match config.strategy {
                        MulticastStrategy::Flood => {
                            let state = states.entry(to).or_default();
                            for (id, cached) in neighbors(world, to, config.scope) {
                                if !target.contains(cached) || !state.sent_to.insert(id) {
                                    continue;
                                }
                                outcome.messages += 1;
                                if world.is_online(id) {
                                    engine.schedule(
                                        now + net.hop_latency(),
                                        McEvent::Deliver { to: id },
                                    );
                                }
                            }
                        }
                        MulticastStrategy::Gossip { .. } => {
                            // First gossip round fires immediately on receipt.
                            engine.schedule(now, McEvent::GossipTick { at: to });
                        }
                    }
                }
                McEvent::GossipTick { at } => {
                    let MulticastStrategy::Gossip {
                        fanout,
                        rounds,
                        period,
                    } = config.strategy
                    else {
                        continue;
                    };
                    let neighbors = neighbors(world, at, config.scope);
                    let state = states.entry(at).or_default();
                    if state.rounds_done >= rounds {
                        continue;
                    }
                    state.rounds_done += 1;
                    // Deterministic iteration through the list (§3.2): resume
                    // from the cursor, take up to `fanout` eligible targets.
                    let mut sent = 0;
                    let mut inspected = 0;
                    while sent < fanout && inspected < neighbors.len() {
                        let (id, cached) = neighbors[state.cursor % neighbors.len()];
                        state.cursor += 1;
                        inspected += 1;
                        if !target.contains(cached) || !state.sent_to.insert(id) {
                            continue;
                        }
                        outcome.messages += 1;
                        sent += 1;
                        if world.is_online(id) {
                            engine.schedule(
                                now + net.hop_latency(),
                                McEvent::Deliver { to: id },
                            );
                        }
                    }
                    if state.rounds_done < rounds {
                        engine.schedule(now + period, McEvent::GossipTick { at });
                    }
                }
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avmem_sim::LatencyModel;
    use avmem_util::SplitMix64;
    use proptest::prelude::*;

    use crate::ops::anycast::ForwardPolicy;
    use crate::ops::world::mock::{random_target, MockWorld};

    fn net() -> Network {
        Network::new(LatencyModel::Constant { millis: 50 }, 1)
    }

    fn rng() -> SplitMix64 {
        SplitMix64::new(3)
    }

    fn scratch() -> OpScratch {
        OpScratch::default()
    }

    /// A clique of five in-range nodes (av 0.9) reachable from an
    /// initiator at av 0.5 through node 1.
    fn clique_world() -> MockWorld {
        let mut w = MockWorld::default();
        w.add(0, 0.5);
        for i in 1..=5 {
            w.add(i, 0.9);
            w.vs_edge(0, i);
        }
        for i in 1..=5u64 {
            for j in 1..=5u64 {
                if i != j {
                    w.hs_edge(i, j);
                }
            }
        }
        w
    }

    #[test]
    fn flood_reaches_the_whole_clique() {
        let w = clique_world();
        let outcome = run_multicast(
            &w,
            &mut net(),
            &mut rng(),
            &mut scratch(),
            NodeId::new(0),
            AvailabilityTarget::range(0.85, 0.95),
            MulticastConfig::paper_default(),
        );
        assert_eq!(outcome.eligible, 5);
        assert_eq!(outcome.deliveries.len(), 5);
        assert_eq!(
            outcome.reliability(&w, AvailabilityTarget::range(0.85, 0.95)),
            Some(1.0)
        );
        assert_eq!(
            outcome.spam_ratio(&w, AvailabilityTarget::range(0.85, 0.95)),
            Some(0.0)
        );
    }

    #[test]
    fn flood_latency_is_anycast_plus_dissemination() {
        let w = clique_world();
        let outcome = run_multicast(
            &w,
            &mut net(),
            &mut rng(),
            &mut scratch(),
            NodeId::new(0),
            AvailabilityTarget::range(0.85, 0.95),
            MulticastConfig::paper_default(),
        );
        // Anycast: one 50 ms hop; flood: one more 50 ms level.
        assert_eq!(outcome.anycast.latency, SimDuration::from_millis(50));
        assert_eq!(outcome.worst_latency(), Some(SimDuration::from_millis(100)));
    }

    #[test]
    fn failed_anycast_means_no_deliveries() {
        let mut w = MockWorld::default();
        w.add(0, 0.5); // no neighbors at all
        let outcome = run_multicast(
            &w,
            &mut net(),
            &mut rng(),
            &mut scratch(),
            NodeId::new(0),
            AvailabilityTarget::range(0.85, 0.95),
            MulticastConfig::paper_default(),
        );
        assert!(outcome.deliveries.is_empty());
        assert!(!outcome.anycast.is_delivered());
    }

    #[test]
    fn initiator_in_range_seeds_dissemination() {
        let mut w = MockWorld::default();
        w.add(0, 0.9);
        w.add(1, 0.9);
        w.hs_edge(0, 1);
        let outcome = run_multicast(
            &w,
            &mut net(),
            &mut rng(),
            &mut scratch(),
            NodeId::new(0),
            AvailabilityTarget::range(0.85, 0.95),
            MulticastConfig::paper_default(),
        );
        assert_eq!(outcome.deliveries.len(), 2);
        assert_eq!(outcome.arrival(NodeId::new(0)), Some(SimDuration::ZERO));
    }

    #[test]
    fn out_of_range_receiver_is_spam_and_does_not_forward() {
        // Node 0's stale cache says node 1 is in range; node 1 knows it is
        // not. It receives the payload — spam — and must not forward it
        // to node 2, which it does list as in range.
        let mut w = MockWorld::default();
        w.add(0, 0.9);
        w.add(1, 0.5); // truth: out of range
        w.add(2, 0.9);
        w.hs_edge_cached(0, 1, 0.9);
        w.hs_edge(1, 2);
        let target = AvailabilityTarget::range(0.85, 0.95);
        let outcome = run_multicast(
            &w,
            &mut net(),
            &mut rng(),
            &mut scratch(),
            NodeId::new(0),
            target,
            MulticastConfig::paper_default(),
        );
        assert!(outcome.arrival(NodeId::new(1)).is_some());
        assert!(outcome.arrival(NodeId::new(2)).is_none());
        assert_eq!(outcome.messages, 1);
        // One spam receiver against two eligible nodes (0 and 2).
        assert_eq!(outcome.spam_ratio(&w, target), Some(0.5));
    }

    #[test]
    fn cached_out_of_range_neighbor_is_never_sent_to() {
        let mut w = MockWorld::default();
        w.add(0, 0.9);
        w.add(1, 0.5);
        w.add(2, 0.9);
        w.hs_edge(0, 1); // cached 0.5: outside the range
        w.hs_edge(1, 2);
        let outcome = run_multicast(
            &w,
            &mut net(),
            &mut rng(),
            &mut scratch(),
            NodeId::new(0),
            AvailabilityTarget::range(0.85, 0.95),
            MulticastConfig::paper_default(),
        );
        assert!(outcome.arrival(NodeId::new(1)).is_none());
        assert!(outcome.arrival(NodeId::new(2)).is_none());
        assert_eq!(outcome.messages, 0);
    }

    #[test]
    fn gossip_reaches_clique_within_rounds() {
        let w = clique_world();
        let outcome = run_multicast(
            &w,
            &mut net(),
            &mut rng(),
            &mut scratch(),
            NodeId::new(0),
            AvailabilityTarget::range(0.85, 0.95),
            MulticastConfig {
                strategy: MulticastStrategy::paper_gossip(),
                ..MulticastConfig::paper_default()
            },
        );
        // fanout 5 × 2 rounds covers a 5-clique easily.
        assert_eq!(outcome.deliveries.len(), 5);
    }

    #[test]
    fn gossip_respects_fanout_budget() {
        // A star: node 1 (in range) knows 20 in-range leaves; with
        // fanout 2 × 1 round it may contact at most 2.
        let mut w = MockWorld::default();
        w.add(1, 0.9);
        for i in 2..=21 {
            w.add(i, 0.9);
            w.hs_edge(1, i);
        }
        let outcome = run_multicast(
            &w,
            &mut net(),
            &mut rng(),
            &mut scratch(),
            NodeId::new(1),
            AvailabilityTarget::range(0.85, 0.95),
            MulticastConfig {
                strategy: MulticastStrategy::Gossip {
                    fanout: 2,
                    rounds: 1,
                    period: SimDuration::from_secs(1),
                },
                anycast: AnycastConfig {
                    policy: ForwardPolicy::Greedy,
                    scope: SliverScope::Both,
                    ttl: 6,
                },
                scope: SliverScope::Both,
            },
        );
        // Initiator + 2 leaves, but leaves gossip onward… leaves only
        // know nobody (edges are directed in MockWorld), so exactly 3.
        assert_eq!(outcome.deliveries.len(), 3);
        assert_eq!(outcome.messages, 2);
    }

    /// A larger clique (10 in-range nodes) where flooding's quadratic
    /// message cost clearly exceeds gossip's bounded fanout.
    fn big_clique_world() -> MockWorld {
        let mut w = MockWorld::default();
        w.add(0, 0.5);
        for i in 1..=10 {
            w.add(i, 0.9);
            w.vs_edge(0, i);
        }
        for i in 1..=10u64 {
            for j in 1..=10u64 {
                if i != j {
                    w.hs_edge(i, j);
                }
            }
        }
        w
    }

    #[test]
    fn gossip_is_cheaper_than_flood_on_dense_graphs() {
        let w = big_clique_world();
        let target = AvailabilityTarget::range(0.85, 0.95);
        let flood = run_multicast(
            &w,
            &mut net(),
            &mut rng(),
            &mut scratch(),
            NodeId::new(0),
            target,
            MulticastConfig::paper_default(),
        );
        let gossip = run_multicast(
            &w,
            &mut net(),
            &mut rng(),
            &mut scratch(),
            NodeId::new(0),
            target,
            MulticastConfig {
                strategy: MulticastStrategy::Gossip {
                    fanout: 2,
                    rounds: 2,
                    period: SimDuration::from_secs(1),
                },
                ..MulticastConfig::paper_default()
            },
        );
        assert!(
            gossip.messages < flood.messages,
            "gossip {} should send fewer than flood {}",
            gossip.messages,
            flood.messages
        );
    }

    #[test]
    fn offline_nodes_do_not_receive() {
        let mut w = clique_world();
        w.set_offline(3);
        let outcome = run_multicast(
            &w,
            &mut net(),
            &mut rng(),
            &mut scratch(),
            NodeId::new(0),
            AvailabilityTarget::range(0.85, 0.95),
            MulticastConfig::paper_default(),
        );
        assert!(outcome.arrival(NodeId::new(3)).is_none());
        assert_eq!(outcome.eligible, 4); // offline node not eligible
    }

    #[test]
    fn gossip_cursor_wraps_without_resending() {
        // Node 1 has 3 in-range neighbors but fanout 5: the deterministic
        // iteration wraps the list yet never sends twice to the same node.
        let mut w = MockWorld::default();
        w.add(1, 0.9);
        for i in 2..=4 {
            w.add(i, 0.9);
            w.hs_edge(1, i);
        }
        let outcome = run_multicast(
            &w,
            &mut net(),
            &mut rng(),
            &mut scratch(),
            NodeId::new(1),
            AvailabilityTarget::range(0.85, 0.95),
            MulticastConfig {
                strategy: MulticastStrategy::Gossip {
                    fanout: 5,
                    rounds: 3,
                    period: SimDuration::from_secs(1),
                },
                ..MulticastConfig::paper_default()
            },
        );
        // 3 distinct targets, each exactly once, despite 3 rounds × 5.
        assert_eq!(outcome.messages, 3);
        assert_eq!(outcome.deliveries.len(), 4);
    }

    #[test]
    fn multicast_outcome_latency_includes_anycast_stage() {
        let w = clique_world();
        let outcome = run_multicast(
            &w,
            &mut net(),
            &mut rng(),
            &mut scratch(),
            NodeId::new(0),
            AvailabilityTarget::range(0.85, 0.95),
            MulticastConfig::paper_default(),
        );
        // Every dissemination delivery happens at or after the entry time.
        let entry_latency = outcome.anycast.latency;
        for &(node, at) in &outcome.deliveries {
            assert!(
                at >= entry_latency,
                "{node} delivered at {at} before anycast completed at {entry_latency}"
            );
        }
    }

    #[test]
    fn reliability_none_when_range_empty() {
        let mut w = MockWorld::default();
        w.add(0, 0.5);
        let target = AvailabilityTarget::range(0.98, 0.99);
        let outcome = run_multicast(
            &w,
            &mut net(),
            &mut rng(),
            &mut scratch(),
            NodeId::new(0),
            target,
            MulticastConfig::paper_default(),
        );
        assert_eq!(outcome.reliability(&w, target), None);
        assert_eq!(outcome.spam_ratio(&w, target), None);
    }

    #[test]
    fn deliveries_are_in_arrival_order() {
        let w = big_clique_world();
        let outcome = run_multicast(
            &w,
            &mut Network::new(LatencyModel::PAPER, 5),
            &mut rng(),
            &mut scratch(),
            NodeId::new(0),
            AvailabilityTarget::range(0.85, 0.95),
            MulticastConfig::paper_default(),
        );
        assert_eq!(outcome.deliveries.len(), 10);
        assert!(outcome.deliveries.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(
            outcome.worst_latency(),
            outcome.deliveries.iter().map(|&(_, at)| at).max()
        );
    }

    /// One randomly drawn multicast: a [`MockWorld::random`] world and a
    /// latency model with dense ties on `time`.
    #[derive(Debug, Clone)]
    struct Case {
        world: MockWorld,
        latency: LatencyModel,
        net_seed: u64,
        initiator: NodeId,
        target: AvailabilityTarget,
        config: MulticastConfig,
    }

    fn random_case(seed: u64) -> Case {
        let mut r = SplitMix64::new(seed);
        let target = random_target(&mut r);
        let world = MockWorld::random(&mut r);
        let n = world.id_bound() as u64;
        let latency = match r.index(6) {
            0 => LatencyModel::Constant { millis: 50 },
            1 => LatencyModel::Constant { millis: 0 },
            2 => LatencyModel::Uniform {
                lo_millis: 1,
                hi_millis: 1 + r.index(3) as u64,
            },
            // Two that straddle the queue's 128 ms ring: copies of one
            // flood go to its overflow and come back among direct pushes.
            3 => LatencyModel::Uniform {
                lo_millis: 100,
                hi_millis: 300,
            },
            4 => LatencyModel::Uniform {
                lo_millis: 20,
                hi_millis: 400,
            },
            _ => LatencyModel::PAPER,
        };
        let strategy = if r.chance(0.5) {
            MulticastStrategy::Flood
        } else {
            MulticastStrategy::Gossip {
                fanout: r.index(6) as u32,
                rounds: r.index(5) as u32,
                period: SimDuration::from_millis(match r.index(5) {
                    0 => 0,
                    1 => 1,
                    2 => 2,
                    3 => 1000,
                    _ => u64::MAX, // saturates every later instant
                }),
            }
        };
        let scopes = [SliverScope::HsOnly, SliverScope::VsOnly, SliverScope::Both];
        let policy = if r.chance(0.5) {
            ForwardPolicy::Greedy
        } else {
            ForwardPolicy::RetriedGreedy { retries: 4 }
        };
        // Half the time start inside the range, so that dissemination
        // runs whatever the anycast would have found.
        let inside: Vec<u64> = (0..n)
            .filter(|&id| target.contains(world.believed_availability(NodeId::new(id))))
            .collect();
        let initiator = if !inside.is_empty() && r.chance(0.5) {
            inside[r.index(inside.len())]
        } else {
            r.index(n as usize) as u64
        };
        Case {
            world,
            latency,
            net_seed: r.next_u64(),
            initiator: NodeId::new(initiator),
            target,
            config: MulticastConfig {
                strategy,
                scope: scopes[r.index(3)],
                anycast: AnycastConfig {
                    policy,
                    scope: scopes[r.index(3)],
                    ttl: 6,
                },
            },
        }
    }

    /// The outcome plus the next draw of both streams: equal tuples mean
    /// equal results *and* equal stream positions.
    type Observed = (MulticastOutcome, SimDuration, u64);

    fn run_kernel(case: &Case, scratch: &mut OpScratch) -> Observed {
        let mut net = Network::new(case.latency, case.net_seed);
        let mut rng = SplitMix64::new(case.net_seed ^ 1);
        let outcome = run_multicast(
            &case.world,
            &mut net,
            &mut rng,
            scratch,
            case.initiator,
            case.target,
            case.config,
        );
        (outcome, net.hop_latency(), rng.next_u64())
    }

    fn run_reference(case: &Case) -> Observed {
        let mut net = Network::new(case.latency, case.net_seed);
        let mut rng = SplitMix64::new(case.net_seed ^ 1);
        let outcome = reference::run_multicast(
            &case.world,
            &mut net,
            &mut rng,
            case.initiator,
            case.target,
            case.config,
        );
        (outcome, net.hop_latency(), rng.next_u64())
    }

    proptest! {
        /// Deliveries (who, when, in which order), `messages`, `eligible`
        /// and the position of both random streams equal the reference
        /// model's on random worlds.
        #[test]
        fn kernel_matches_the_queue_every_copy_reference(seed in any::<u64>()) {
            let case = random_case(seed);
            prop_assert_eq!(run_kernel(&case, &mut scratch()), run_reference(&case));
        }

        /// Two different multicasts back to back on one scratch equal the
        /// same two on fresh scratch — nothing a multicast leaves behind
        /// (rows, gossip progress, `sent_by` marks, queue capacity) is
        /// visible to the next.
        #[test]
        fn used_scratch_equals_fresh_scratch(first in any::<u64>(), second in any::<u64>()) {
            let (a, b) = (random_case(first), random_case(second));
            let mut used = scratch();
            prop_assert_eq!(run_kernel(&a, &mut used), run_kernel(&a, &mut scratch()));
            prop_assert_eq!(run_kernel(&b, &mut used), run_kernel(&b, &mut scratch()));
            prop_assert_eq!(run_kernel(&a, &mut used), run_kernel(&a, &mut scratch()));
        }

        /// Rows and gossip progress stamped with the first generation
        /// must not pass for current when the counter wraps and comes
        /// back to it.
        #[test]
        fn generation_wrap_does_not_revive_stale_rows(first in any::<u64>(), second in any::<u64>()) {
            let (a, b) = (random_case(first), random_case(second));
            let mut used = scratch();
            let (warm, _, _) = run_kernel(&a, &mut used);
            let fresh = run_kernel(&b, &mut scratch());
            // Both must disseminate, or no generation is opened.
            prop_assume!(warm.anycast.is_delivered() && fresh.0.anycast.is_delivered());
            prop_assert_eq!(used.dissemination.generation, GENERATION_STEP);
            used.dissemination.generation = 0u32.wrapping_sub(GENERATION_STEP);
            prop_assert_eq!(run_kernel(&b, &mut used), fresh);
            prop_assert_eq!(used.dissemination.generation, GENERATION_STEP);
            prop_assert_eq!(run_kernel(&a, &mut used), run_kernel(&a, &mut scratch()));
        }
    }

    #[test]
    fn random_cases_exercise_the_kernel() {
        // The differential is only worth its cases: most must enter the
        // range, reach several nodes, and skip duplicate copies.
        let mut entered = 0;
        let mut reached = 0;
        let mut messages = 0;
        for seed in 0..200 {
            let (outcome, _, _) = run_kernel(&random_case(seed), &mut scratch());
            entered += usize::from(outcome.anycast.is_delivered());
            reached += outcome.deliveries.len();
            messages += outcome.messages;
        }
        assert!(entered > 150, "{entered} of 200 cases entered the range");
        assert!(reached > 1200, "{reached} deliveries over 200 cases");
        assert!(messages > 2 * reached as u64, "{messages} messages: no duplicate copies");
    }
}
