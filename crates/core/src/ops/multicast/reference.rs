//! The queue-every-copy dissemination over the generic event engine: one
//! push and pop per copy, hash sets for "delivered" and "sent to", a
//! collected neighbor list per forwarding pass. Slow and obviously
//! right; [`super::run_multicast`] must agree with it draw for draw.

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
