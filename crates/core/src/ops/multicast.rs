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
//! whether its receiver is online, still draws its hop latency and still
//! takes the next `seq` (so queued events carry the numbers they would
//! in a queue of all copies); but it enters the queue only if it arrives
//! strictly before the earliest copy its receiver has queued so far (a
//! tie loses: the earlier-sent copy has the lower `seq`), and never once
//! the receiver has been delivered. A copy left out would have been
//! popped after that earlier copy and ignored, so nodes are delivered in
//! exactly the `(time, seq)` order a queue of *all* copies yields — same
//! deliveries, arrival times, message count and `Network` stream position
//! — while queue traffic falls from one push and pop per copy to a few
//! per node. A queued copy that a better one overtakes stays queued and
//! is skipped when it pops, its receiver by then delivered. The
//! queue-every-copy loop survives as the test-only reference model the
//! kernel is checked against.
//!
//! Per-node state (earliest queued copy, delivered, gossip progress, the
//! forwarder that last sent to the node) lives in dense arrays indexed
//! by node id and stamped with a per-multicast generation
//! ([`OpScratch`]), so nothing is cleared between operations: beyond the
//! `eligible` scan, a multicast costs what it reaches.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use avmem_sim::{Network, SimDuration, SimTime};
use avmem_util::{NodeId, Rng};
use serde::{Deserialize, Serialize};

use crate::membership::SliverScope;
use crate::ops::anycast::{run_anycast, AnycastConfig, AnycastOutcome};
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

/// What a node has of the payload so far in the current multicast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Receipt {
    /// No copy is on its way.
    None,
    /// The earliest copy queued so far arrives at this instant.
    Queued(SimTime),
    /// The payload arrived; every further copy is a duplicate.
    Delivered,
}

/// `sent_by` of a node no forwarder has sent to (ids are below
/// `id_bound ≤ u32::MAX`, so no node has this id).
const NO_FORWARDER: u32 = u32::MAX;

/// One node's row of the dense dissemination state.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// The multicast this row was written in; under any other generation
    /// the row reads as [`Slot::UNTOUCHED`].
    generation: u32,
    /// The forwarder whose running pass over its list has sent to this
    /// node — the per-forwarder "already sent to" test. One column
    /// serves every forwarder because passes never interleave.
    sent_by: u32,
    receipt: Receipt,
    /// As a forwarder: how far into its list this node has gossiped.
    cursor: usize,
    /// As a forwarder: gossip rounds already executed.
    rounds_done: u32,
}

impl Slot {
    /// Generation 0 is never current (see [`Dissemination::begin`]).
    const UNTOUCHED: Slot = Slot {
        generation: 0,
        sent_by: NO_FORWARDER,
        receipt: Receipt::None,
        cursor: 0,
        rounds_done: 0,
    };
}

/// A queued event: a copy arriving at `node`, or `node`'s gossip period
/// firing. Ordered by `(at, seq)`; `seq` is unique.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Pending {
    at: SimTime,
    seq: u64,
    node: u32,
    tick: bool,
}

/// The dissemination part of [`OpScratch`]: node-indexed rows valid for
/// one generation, the event queue, and the arrival log the outcome is
/// copied from. Grows to the largest `id_bound` seen and is never cleared
/// between multicasts.
#[derive(Debug, Default)]
pub(crate) struct Dissemination {
    slots: Vec<Slot>,
    generation: u32,
    queue: BinaryHeap<Reverse<Pending>>,
    arrivals: Vec<(NodeId, SimDuration)>,
}

impl Dissemination {
    /// Opens a new generation: every row reads as untouched again
    /// without being written.
    fn begin(&mut self, id_bound: usize) {
        assert!(
            id_bound <= NO_FORWARDER as usize,
            "node ids are index-space (must fit u32)"
        );
        if self.slots.len() < id_bound {
            self.slots.resize(id_bound, Slot::UNTOUCHED);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // The counter wrapped: a row last written 2³² multicasts ago
            // would pass for current. Wipe once, restart at 1.
            self.slots.fill(Slot::UNTOUCHED);
            self.generation = 1;
        }
        self.queue.clear();
        self.arrivals.clear();
    }

    #[inline]
    fn slot(&mut self, node: u32) -> &mut Slot {
        let slot = &mut self.slots[node as usize];
        if slot.generation != self.generation {
            *slot = Slot {
                generation: self.generation,
                ..Slot::UNTOUCHED
            };
        }
        slot
    }
}

/// One running dissemination: the world and latency stream it reads, the
/// scratch it writes, and the two counters every send advances.
struct Kernel<'a, W: ?Sized> {
    world: &'a W,
    net: &'a mut Network,
    state: &'a mut Dissemination,
    target: AvailabilityTarget,
    scope: SliverScope,
    /// Send-order number of the next queued-or-skipped event.
    next_seq: u64,
    messages: u64,
}

impl<W: OverlayWorld + ?Sized> Kernel<'_, W> {
    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// A copy for `node` arriving at `at`. It always takes a `seq`; it is
    /// queued only if it is the earliest copy `node` has so far.
    #[inline]
    fn send_copy(&mut self, node: u32, at: SimTime) {
        let seq = self.take_seq();
        let slot = self.state.slot(node);
        let first = match slot.receipt {
            Receipt::None => true,
            // On a tie the earlier-sent copy has the lower seq and pops
            // first; queueing this one would only add an entry to skip.
            Receipt::Queued(best) => at < best,
            Receipt::Delivered => false,
        };
        if first {
            slot.receipt = Receipt::Queued(at);
            let copy = Pending { at, seq, node, tick: false };
            self.state.queue.push(Reverse(copy));
        }
    }

    fn schedule_tick(&mut self, node: u32, at: SimTime) {
        let seq = self.take_seq();
        let tick = Pending { at, seq, node, tick: true };
        self.state.queue.push(Reverse(tick));
    }

    /// One forwarding pass of `from` at `now`: walk its list from where
    /// the previous pass stopped and send to at most `budget` neighbors
    /// whose cached availability is in range and that `from` has not
    /// sent to before.
    fn forward(&mut self, from: u32, now: SimTime, budget: usize) {
        let world = self.world;
        let list = world.neighbors(NodeId::new(u64::from(from)), self.scope);
        let start = self.state.slot(from).cursor;
        // Other forwarders' passes ran since `from`'s last one: re-mark
        // what it sent to then. (Once the cursor reaches the end, every
        // in-range neighbor has been sent to and no pass sends again.)
        for (&id, &cached) in list.ids[..start].iter().zip(list.cached_availability) {
            if self.target.contains(cached) {
                self.state.slot(id).sent_by = from;
            }
        }
        let mut cursor = start;
        let mut sent = 0;
        while sent < budget && cursor < list.ids.len() {
            let (id, cached) = (list.ids[cursor], list.cached_availability[cursor]);
            cursor += 1;
            if !self.target.contains(cached) {
                continue;
            }
            let slot = self.state.slot(id);
            if slot.sent_by == from {
                continue; // a second edge to the same node
            }
            slot.sent_by = from;
            self.messages += 1;
            sent += 1;
            if world.is_online(NodeId::new(u64::from(id))) {
                let at = now + self.net.hop_latency();
                self.send_copy(id, at);
            }
        }
        self.state.slot(from).cursor = cursor;
    }

    /// Drains the queue. Always terminates: a node forwards or starts
    /// gossiping once, on delivery, and gossip runs a bounded number of
    /// rounds.
    fn run(&mut self, strategy: MulticastStrategy) {
        while let Some(Reverse(event)) = self.state.queue.pop() {
            let Pending { at: now, node, tick, .. } = event;
            if !tick {
                let slot = self.state.slot(node);
                if slot.receipt == Receipt::Delivered {
                    continue; // a copy queued before a better one overtook it
                }
                slot.receipt = Receipt::Delivered;
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
                (MulticastStrategy::Flood, _) => self.forward(node, now, usize::MAX),
                // First gossip round fires on receipt, after whatever
                // else is already queued for this instant.
                (MulticastStrategy::Gossip { .. }, false) => self.schedule_tick(node, now),
                (
                    MulticastStrategy::Gossip {
                        fanout,
                        rounds,
                        period,
                    },
                    true,
                ) => {
                    let slot = self.state.slot(node);
                    if slot.rounds_done >= rounds {
                        continue;
                    }
                    slot.rounds_done += 1;
                    let again = slot.rounds_done < rounds;
                    // Deterministic iteration through the list (§3.2):
                    // resume from the cursor, take up to `fanout` targets.
                    self.forward(node, now, fanout as usize);
                    if again {
                        self.schedule_tick(node, now + period);
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
    let eligible = (0..world.id_bound() as u64)
        .map(NodeId::new)
        .filter(|&id| world.is_online(id) && target.contains(world.true_availability(id)))
        .count();

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
    state.begin(world.id_bound());
    let mut kernel = Kernel {
        world,
        net,
        state,
        target,
        scope: config.scope,
        next_seq: 0,
        messages: 0,
    };
    let entry = u32::try_from(entry.raw()).expect("node ids are index-space (must fit u32)");
    kernel.send_copy(entry, SimTime::ZERO + outcome.anycast.latency);
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
    use avmem_util::{SplitMix64, Xoshiro256};
    use proptest::prelude::*;

    use crate::ops::anycast::ForwardPolicy;
    use crate::ops::world::mock::{random_target, MockWorld};

    fn net() -> Network {
        Network::new(LatencyModel::Constant { millis: 50 }, 0.0, 1)
    }

    fn rng() -> Xoshiro256 {
        Xoshiro256::new(3)
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
            &mut Network::new(LatencyModel::PAPER, 0.0, 5),
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
        let latency = match r.index(4) {
            0 => LatencyModel::Constant { millis: 50 },
            1 => LatencyModel::Constant { millis: 0 },
            2 => LatencyModel::Uniform {
                lo_millis: 1,
                hi_millis: 1 + r.index(3) as u64,
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
        let mut net = Network::new(case.latency, 0.0, case.net_seed);
        let mut rng = Xoshiro256::new(case.net_seed ^ 1);
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
        let mut net = Network::new(case.latency, 0.0, case.net_seed);
        let mut rng = Xoshiro256::new(case.net_seed ^ 1);
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
        /// (rows, cursors, `sent_by` marks) is visible to the next.
        #[test]
        fn used_scratch_equals_fresh_scratch(first in any::<u64>(), second in any::<u64>()) {
            let (a, b) = (random_case(first), random_case(second));
            let mut used = scratch();
            prop_assert_eq!(run_kernel(&a, &mut used), run_kernel(&a, &mut scratch()));
            prop_assert_eq!(run_kernel(&b, &mut used), run_kernel(&b, &mut scratch()));
            prop_assert_eq!(run_kernel(&a, &mut used), run_kernel(&a, &mut scratch()));
        }

        /// Rows stamped with generation 1 must not pass for current when
        /// the counter wraps and comes back to 1.
        #[test]
        fn generation_wrap_does_not_revive_stale_rows(first in any::<u64>(), second in any::<u64>()) {
            let (a, b) = (random_case(first), random_case(second));
            let mut used = scratch();
            let (warm, _, _) = run_kernel(&a, &mut used);
            let fresh = run_kernel(&b, &mut scratch());
            // Both must disseminate, or no generation is opened.
            prop_assume!(warm.anycast.is_delivered() && fresh.0.anycast.is_delivered());
            prop_assert_eq!(used.dissemination.generation, 1);
            used.dissemination.generation = u32::MAX;
            prop_assert_eq!(run_kernel(&b, &mut used), fresh);
            prop_assert_eq!(used.dissemination.generation, 1);
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
