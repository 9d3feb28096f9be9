//! A miniature synchronous driver for the shuffle protocol.
//!
//! [`RoundSim`] runs a population of [`ShuffleNode`]s in lock-step rounds
//! with instant message delivery. It exists for tests and for the
//! discovery-time microbenchmarks of §3.1 (expected appearance time of a
//! given node in another's view is `O(N/v)` periods); the full AVMEM
//! system simulation in the `avmem` crate drives the same state machines
//! through the discrete-event engine instead.

use avmem_util::{NodeId, Rng, SplitMix64};

use crate::node::{ShuffleConfig, ShuffleNode};
use crate::pool::EntryPool;

/// A synchronous, round-based shuffle simulation.
///
/// # Examples
///
/// ```
/// use avmem_shuffle::{sim::RoundSim, ShuffleConfig};
///
/// let mut sim = RoundSim::new(50, ShuffleConfig::new(8, 4), 7);
/// sim.run_rounds(20);
/// // After some rounds every view is full.
/// assert!(sim.nodes().iter().all(|n| n.view().len() == 8));
/// ```
#[derive(Debug)]
pub struct RoundSim {
    nodes: Vec<ShuffleNode>,
    online: Vec<bool>,
    rng: SplitMix64,
    rounds: u64,
    /// Entry buffers and the merge id table, shared by every exchange.
    pool: EntryPool,
}

impl RoundSim {
    /// Creates `n` nodes, each bootstrapped with a few random seeds (a
    /// connected bootstrap graph: node `i` knows `i+1 mod n` plus two
    /// random peers).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize, config: ShuffleConfig, seed: u64) -> Self {
        assert!(n >= 2, "simulation needs at least two nodes");
        let mut master = SplitMix64::new(seed);
        let mut nodes: Vec<ShuffleNode> = (0..n)
            .map(|i| ShuffleNode::new(NodeId::new(i as u64), config, master.fork(i as u64).next_u64()))
            .collect();
        let mut boot_rng = master.fork(u64::MAX);
        for (i, node) in nodes.iter_mut().enumerate() {
            let ring_next = NodeId::new(((i + 1) % n) as u64);
            let r1 = NodeId::new(boot_rng.range_u64(n as u64));
            let r2 = NodeId::new(boot_rng.range_u64(n as u64));
            node.bootstrap([ring_next, r1, r2]);
        }
        RoundSim {
            nodes,
            online: vec![true; n],
            rng: master,
            rounds: 0,
            pool: EntryPool::new(),
        }
    }

    /// The nodes (indexed by their dense id).
    pub fn nodes(&self) -> &[ShuffleNode] {
        &self.nodes
    }

    /// Number of rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Marks node `i` online or offline. Offline nodes neither initiate
    /// nor answer exchanges; coming back online keeps the stale view (the
    /// protocol self-cleans it).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set_online(&mut self, i: usize, online: bool) {
        self.online[i] = online;
    }

    /// Whether node `i` is online.
    pub fn is_online(&self, i: usize) -> bool {
        self.online[i]
    }

    /// Runs one synchronous round: every online node initiates one
    /// exchange; requests to offline targets time out.
    pub fn run_round(&mut self) {
        self.rounds += 1;
        // Randomize initiation order each round to avoid systematic bias.
        let mut order: Vec<usize> = (0..self.nodes.len()).collect();
        self.rng.shuffle(&mut order);
        for i in order {
            if !self.online[i] {
                continue;
            }
            let Some((target, request)) = self.nodes[i].initiate_with(&mut self.pool) else {
                continue;
            };
            let t = target.raw() as usize;
            if t >= self.nodes.len() || !self.online[t] {
                self.pool.recycle(request);
                self.nodes[i].handle_timeout_with(target, &mut self.pool);
                continue;
            }
            let reply = self.nodes[t].handle_request_with(request, &mut self.pool);
            self.nodes[i].handle_reply_with(reply, &mut self.pool);
        }
    }

    /// Runs `k` rounds.
    pub fn run_rounds(&mut self, k: usize) {
        for _ in 0..k {
            self.run_round();
        }
    }

    /// Rounds until `observer`'s view contains `subject`, starting from
    /// the current state, up to `max_rounds`. Returns `None` on timeout.
    pub fn rounds_until_seen(
        &mut self,
        observer: usize,
        subject: NodeId,
        max_rounds: usize,
    ) -> Option<usize> {
        for k in 0..max_rounds {
            if self.nodes[observer].view().contains(subject) {
                return Some(k);
            }
            self.run_round();
        }
        if self.nodes[observer].view().contains(subject) {
            Some(max_rounds)
        } else {
            None
        }
    }

    /// In-degree of each node: how many other views reference it.
    pub fn in_degrees(&self) -> Vec<usize> {
        let mut degrees = vec![0usize; self.nodes.len()];
        for node in &self.nodes {
            for entry in node.view().iter() {
                let idx = entry.id.raw() as usize;
                if idx < degrees.len() {
                    degrees[idx] += 1;
                }
            }
        }
        degrees
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_fill_up() {
        let mut sim = RoundSim::new(64, ShuffleConfig::new(8, 4), 3);
        sim.run_rounds(30);
        assert!(sim.nodes().iter().all(|n| n.view().len() == 8));
    }

    #[test]
    fn views_keep_changing() {
        // Shuffling means a node's view k rounds apart should differ.
        let mut sim = RoundSim::new(100, ShuffleConfig::new(8, 4), 5);
        sim.run_rounds(20);
        let before: Vec<NodeId> = sim.nodes()[0].view().ids().collect();
        sim.run_rounds(20);
        let after: Vec<NodeId> = sim.nodes()[0].view().ids().collect();
        assert_ne!(before, after, "view did not shuffle");
    }

    #[test]
    fn in_degree_concentration_is_bounded() {
        // CYCLON keeps in-degrees balanced; no node should dominate.
        let mut sim = RoundSim::new(100, ShuffleConfig::new(10, 5), 7);
        sim.run_rounds(50);
        let degrees = sim.in_degrees();
        let max = *degrees.iter().max().unwrap();
        let mean = degrees.iter().sum::<usize>() as f64 / degrees.len() as f64;
        assert!(
            (max as f64) < mean * 5.0,
            "max in-degree {max} too far above mean {mean}"
        );
    }

    #[test]
    fn eventually_discovers_any_node() {
        let mut sim = RoundSim::new(60, ShuffleConfig::new(8, 4), 11);
        sim.run_rounds(5);
        // Pick a subject not currently in observer's view.
        let observer = 0;
        let subject = (1..60)
            .map(|i| NodeId::new(i as u64))
            .find(|&s| !sim.nodes()[observer].view().contains(s))
            .expect("some node is unknown");
        let rounds = sim.rounds_until_seen(observer, subject, 2000);
        assert!(rounds.is_some(), "subject never discovered");
    }

    #[test]
    fn offline_nodes_drain_from_views() {
        let mut sim = RoundSim::new(50, ShuffleConfig::new(8, 4), 13);
        sim.run_rounds(20);
        sim.set_online(7, false);
        sim.run_rounds(60);
        let references: usize = sim
            .nodes()
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != 7 && sim.is_online(i))
            .map(|(_, n)| usize::from(n.view().contains(NodeId::new(7))))
            .sum();
        // Self-cleaning: hardly anyone still references the dead node.
        assert!(references <= 5, "{references} stale references remain");
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn tiny_sim_panics() {
        let _ = RoundSim::new(1, ShuffleConfig::new(4, 2), 0);
    }
}
