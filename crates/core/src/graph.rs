//! Overlay snapshots and graph analysis.
//!
//! The microbenchmarks of §4.1 inspect the overlay at an instant: sliver
//! sizes versus availability (Figs. 2b/2c), horizontal-sliver scaling
//! against band population (Fig. 3), incoming vertical-sliver link
//! distribution (Fig. 4), and — behind Theorems 2 and 3 — connectivity of
//! the band sub-overlays and the whole graph. [`OverlaySnapshot`] captures
//! the state and answers those questions.

use std::collections::VecDeque;
use std::sync::OnceLock;

use avmem_util::{Availability, NodeId};
use serde::{Deserialize, Serialize};

use crate::membership::SliverScope;

/// One node's state at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSnapshot {
    /// The node.
    pub id: NodeId,
    /// Whether the node was online at snapshot time.
    pub online: bool,
    /// The availability estimate the overlay was built from.
    pub estimated_availability: Availability,
    /// Ground-truth long-term availability (for measurement).
    pub true_availability: Availability,
    /// Horizontal-sliver neighbor ids.
    pub hs: Vec<NodeId>,
    /// Vertical-sliver neighbor ids.
    pub vs: Vec<NodeId>,
}

/// Compressed-sparse-row undirected adjacency over the online nodes of a
/// snapshot, for one sliver scope. Built once per `(snapshot, scope)` and
/// shared by every graph metric — the analytics in `figures.rs` call
/// [`OverlaySnapshot::hops_from`] and the component metrics repeatedly,
/// and rebuilding a `Vec<Vec<usize>>` per call dominated their cost.
#[derive(Debug, Clone, PartialEq)]
struct Csr {
    /// `offsets[u]..offsets[u + 1]` indexes `u`'s slice of `targets`.
    offsets: Vec<usize>,
    /// Neighbor lists, concatenated. Parallel edges are kept (an edge
    /// listed by both endpoints appears twice); BFS is unaffected.
    targets: Vec<u32>,
}

impl Csr {
    fn build(nodes: &[NodeSnapshot], scope: SliverScope) -> Self {
        let n = nodes.len();
        let mut degree = vec![0usize; n];
        visit_edges(nodes, scope, |i, j| {
            degree[i] += 1;
            degree[j] += 1;
        });
        let mut offsets = vec![0usize; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degree[i];
        }
        let mut cursor: Vec<usize> = offsets[..n].to_vec();
        let mut targets = vec![0u32; offsets[n]];
        visit_edges(nodes, scope, |i, j| {
            targets[cursor[i]] = j as u32;
            cursor[i] += 1;
            targets[cursor[j]] = i as u32;
            cursor[j] += 1;
        });
        Csr { offsets, targets }
    }

    fn neighbors(&self, u: usize) -> &[u32] {
        &self.targets[self.offsets[u]..self.offsets[u + 1]]
    }
}

/// Calls `f(i, j)` for every stored `scope` edge `i → j` with both
/// endpoints online.
fn visit_edges(nodes: &[NodeSnapshot], scope: SliverScope, mut f: impl FnMut(usize, usize)) {
    let hs = matches!(scope, SliverScope::HsOnly | SliverScope::Both);
    let vs = matches!(scope, SliverScope::VsOnly | SliverScope::Both);
    for (i, node) in nodes.iter().enumerate() {
        if !node.online {
            continue;
        }
        let edges = node
            .hs
            .iter()
            .filter(|_| hs)
            .chain(node.vs.iter().filter(|_| vs));
        for &peer in edges {
            let j = peer.raw() as usize;
            if nodes[j].online {
                f(i, j);
            }
        }
    }
}

fn scope_slot(scope: SliverScope) -> usize {
    match scope {
        SliverScope::HsOnly => 0,
        SliverScope::VsOnly => 1,
        SliverScope::Both => 2,
    }
}

/// A frozen view of the whole overlay.
///
/// Nodes are stored densely; `id.raw()` indexes into the vector (the
/// population is fixed, as in the Overnet trace).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OverlaySnapshot {
    nodes: Vec<NodeSnapshot>,
    epsilon: f64,
    /// Lazily built per-scope adjacency (HS-only / VS-only / both),
    /// shared by all graph metrics. Not part of the snapshot's value:
    /// equality ignores it.
    adjacency: [OnceLock<Csr>; 3],
}

impl PartialEq for OverlaySnapshot {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes && self.epsilon == other.epsilon
    }
}

impl OverlaySnapshot {
    /// Wraps per-node snapshots. `epsilon` is the band half-width the
    /// overlay was built with.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty or ids are not dense `0..n`.
    pub fn new(nodes: Vec<NodeSnapshot>, epsilon: f64) -> Self {
        assert!(!nodes.is_empty(), "snapshot needs at least one node");
        for (i, node) in nodes.iter().enumerate() {
            assert_eq!(
                node.id.raw() as usize,
                i,
                "snapshot ids must be dense 0..n"
            );
        }
        OverlaySnapshot {
            nodes,
            epsilon,
            adjacency: [OnceLock::new(), OnceLock::new(), OnceLock::new()],
        }
    }

    /// The build-once adjacency for `scope`.
    fn csr(&self, scope: SliverScope) -> &Csr {
        self.adjacency[scope_slot(scope)].get_or_init(|| Csr::build(&self.nodes, scope))
    }

    /// All nodes (online and offline).
    pub fn nodes(&self) -> &[NodeSnapshot] {
        &self.nodes
    }

    /// The band half-width `ε`.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Online nodes only.
    pub fn online_nodes(&self) -> impl Iterator<Item = &NodeSnapshot> + '_ {
        self.nodes.iter().filter(|n| n.online)
    }

    /// Number of online nodes.
    pub fn online_count(&self) -> usize {
        self.online_nodes().count()
    }

    /// Histogram of online nodes by true availability (Fig. 2a).
    pub fn availability_histogram(&self, buckets: usize) -> avmem_util::stats::Histogram {
        let mut h = avmem_util::stats::Histogram::new(buckets);
        for node in self.online_nodes() {
            h.add(node.true_availability.value());
        }
        h
    }

    fn online_member_count(&self, members: &[NodeId]) -> usize {
        members
            .iter()
            .filter(|id| self.nodes[id.raw() as usize].online)
            .count()
    }

    /// `(availability, online |HS|)` points for online nodes (Fig. 2b).
    ///
    /// Counts only *online* sliver members: the paper's snapshot (and
    /// Theorems 1–3) measure online neighbors. Stored lists legitimately
    /// retain offline entries ([`OverlaySnapshot::mean_degree`] counts them).
    pub fn hs_sizes(&self) -> Vec<(f64, usize)> {
        self.online_nodes()
            .map(|n| {
                (
                    n.estimated_availability.value(),
                    self.online_member_count(&n.hs),
                )
            })
            .collect()
    }

    /// `(availability, online |VS|)` points for online nodes (Fig. 2c).
    pub fn vs_sizes(&self) -> Vec<(f64, usize)> {
        self.online_nodes()
            .map(|n| {
                (
                    n.estimated_availability.value(),
                    self.online_member_count(&n.vs),
                )
            })
            .collect()
    }

    /// For each online node: `(candidates within ±ε, online |HS|)` —
    /// Fig. 3's axes. Candidates are other *online* nodes whose estimated
    /// availability lies within the band.
    pub fn hs_scaling_points(&self) -> Vec<(f64, f64)> {
        let online: Vec<&NodeSnapshot> = self.online_nodes().collect();
        online
            .iter()
            .map(|node| {
                let candidates = online
                    .iter()
                    .filter(|other| {
                        other.id != node.id
                            && other
                                .estimated_availability
                                .distance(node.estimated_availability)
                                < self.epsilon
                    })
                    .count();
                (
                    candidates as f64,
                    self.online_member_count(&node.hs) as f64,
                )
            })
            .collect()
    }

    /// Incoming vertical-sliver link count per availability bucket of the
    /// *target* node (Fig. 4): how many online nodes' VS lists reference a
    /// node in each bucket.
    pub fn incoming_vs_links(&self, buckets: usize) -> Vec<u64> {
        let mut counts = vec![0u64; buckets];
        for node in self.online_nodes() {
            for &target in &node.vs {
                let target_node = &self.nodes[target.raw() as usize];
                if !target_node.online {
                    continue;
                }
                let b = ((target_node.true_availability.value() * buckets as f64).floor()
                    as usize)
                    .min(buckets - 1);
                counts[b] += 1;
            }
        }
        counts
    }

    /// Fraction of online nodes inside the largest weakly connected
    /// component of the overlay restricted to `scope` edges among online
    /// nodes. `1.0` means fully connected.
    pub fn largest_component_fraction(&self, scope: crate::membership::SliverScope) -> f64 {
        let online: Vec<usize> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.online)
            .map(|(i, _)| i)
            .collect();
        if online.is_empty() {
            return 0.0;
        }
        let csr = self.csr(scope);
        let mut visited = vec![false; self.nodes.len()];
        let mut best = 0usize;
        let mut queue = VecDeque::new();
        for &start in &online {
            if visited[start] {
                continue;
            }
            // BFS.
            let mut size = 0usize;
            queue.clear();
            queue.push_back(start);
            visited[start] = true;
            while let Some(u) = queue.pop_front() {
                size += 1;
                for &v in csr.neighbors(u) {
                    if !visited[v as usize] {
                        visited[v as usize] = true;
                        queue.push_back(v as usize);
                    }
                }
            }
            best = best.max(size);
        }
        best as f64 / online.len() as f64
    }

    /// Theorem 2 check: connectivity of the sub-overlay of online nodes
    /// whose estimated availability lies within `±ε` of `center`, using
    /// HS edges only. Returns `None` if the band holds fewer than two
    /// online nodes.
    pub fn band_component_fraction(&self, center: Availability) -> Option<f64> {
        let in_band: Vec<usize> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| {
                n.online && n.estimated_availability.distance(center) <= self.epsilon
            })
            .map(|(i, _)| i)
            .collect();
        if in_band.len() < 2 {
            return None;
        }
        // Walk the shared HS adjacency restricted to in-band nodes: band
        // membership implies online, so the restriction of the online HS
        // graph to the band is exactly the band sub-overlay.
        let mut member = vec![false; self.nodes.len()];
        for &i in &in_band {
            member[i] = true;
        }
        let csr = self.csr(SliverScope::HsOnly);
        let mut visited = vec![false; self.nodes.len()];
        let start = in_band[0];
        let mut queue = VecDeque::from([start]);
        visited[start] = true;
        let mut size = 0usize;
        while let Some(u) = queue.pop_front() {
            size += 1;
            for &v in csr.neighbors(u) {
                let v = v as usize;
                if member[v] && !visited[v] {
                    visited[v] = true;
                    queue.push_back(v);
                }
            }
        }
        Some(size as f64 / in_band.len() as f64)
    }

    /// BFS hop distances from `start` over the overlay restricted to
    /// `scope` edges among online nodes, following edges in both
    /// directions (messages flow along out-edges, but the paper's
    /// connectivity analysis treats the graph as undirected).
    ///
    /// Returns one entry per node: `None` for offline or unreachable
    /// nodes, `Some(hops)` otherwise (`Some(0)` for `start` itself).
    ///
    /// # Panics
    ///
    /// Panics if `start` is not in the snapshot or is offline.
    pub fn hops_from(
        &self,
        start: NodeId,
        scope: crate::membership::SliverScope,
    ) -> Vec<Option<u32>> {
        let s = start.raw() as usize;
        assert!(s < self.nodes.len(), "unknown start node {start}");
        assert!(self.nodes[s].online, "start node {start} is offline");
        let csr = self.csr(scope);
        let mut hops: Vec<Option<u32>> = vec![None; self.nodes.len()];
        hops[s] = Some(0);
        let mut queue = VecDeque::from([s]);
        while let Some(u) = queue.pop_front() {
            let d = hops[u].expect("queued nodes have distances");
            for &v in csr.neighbors(u) {
                let v = v as usize;
                if hops[v].is_none() {
                    hops[v] = Some(d + 1);
                    queue.push_back(v);
                }
            }
        }
        hops
    }

    /// Summary of hop distances from `start` to all other reachable
    /// online nodes (diameter estimates; the paper's O(log N) routing
    /// claims rest on these being small).
    pub fn path_length_summary(
        &self,
        start: NodeId,
        scope: crate::membership::SliverScope,
    ) -> avmem_util::stats::Summary {
        let hops = self.hops_from(start, scope);
        avmem_util::stats::Summary::from_values(
            hops.iter()
                .flatten()
                .filter(|&&h| h > 0)
                .map(|&h| h as f64),
        )
    }

    /// Mean total degree (|HS| + |VS|) over online nodes.
    pub fn mean_degree(&self) -> f64 {
        let online: Vec<&NodeSnapshot> = self.online_nodes().collect();
        if online.is_empty() {
            return 0.0;
        }
        online
            .iter()
            .map(|n| (n.hs.len() + n.vs.len()) as f64)
            .sum::<f64>()
            / online.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::SliverScope;

    fn snap(
        specs: &[(bool, f64, &[u64], &[u64])], // (online, av, hs, vs)
    ) -> OverlaySnapshot {
        let nodes = specs
            .iter()
            .enumerate()
            .map(|(i, (online, av, hs, vs))| NodeSnapshot {
                id: NodeId::new(i as u64),
                online: *online,
                estimated_availability: Availability::saturating(*av),
                true_availability: Availability::saturating(*av),
                hs: hs.iter().map(|&h| NodeId::new(h)).collect(),
                vs: vs.iter().map(|&v| NodeId::new(v)).collect(),
            })
            .collect();
        OverlaySnapshot::new(nodes, 0.1)
    }

    #[test]
    fn online_filtering() {
        let s = snap(&[
            (true, 0.5, &[], &[]),
            (false, 0.6, &[], &[]),
            (true, 0.7, &[], &[]),
        ]);
        assert_eq!(s.online_count(), 2);
    }

    #[test]
    fn availability_histogram_counts_online_only() {
        let s = snap(&[
            (true, 0.05, &[], &[]),
            (false, 0.05, &[], &[]),
            (true, 0.95, &[], &[]),
        ]);
        let h = s.availability_histogram(10);
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(9), 1);
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn sliver_size_points() {
        let s = snap(&[
            (true, 0.5, &[1], &[2]),
            (true, 0.55, &[], &[]),
            (true, 0.9, &[], &[]),
        ]);
        let hs = s.hs_sizes();
        assert!(hs.contains(&(0.5, 1)));
        let vs = s.vs_sizes();
        assert!(vs.contains(&(0.5, 1)));
    }

    #[test]
    fn hs_scaling_counts_band_candidates() {
        // Node 0 at .5 with two online in-band candidates and one far node.
        let s = snap(&[
            (true, 0.50, &[1, 2], &[]),
            (true, 0.55, &[], &[]),
            (true, 0.45, &[], &[]),
            (true, 0.90, &[], &[]),
        ]);
        let points = s.hs_scaling_points();
        let p0 = points[0];
        assert_eq!(p0, (2.0, 2.0));
    }

    #[test]
    fn incoming_vs_links_follow_targets() {
        let s = snap(&[
            (true, 0.5, &[], &[2]),
            (true, 0.6, &[], &[2]),
            (true, 0.95, &[], &[]),
        ]);
        let links = s.incoming_vs_links(10);
        assert_eq!(links[9], 2);
        assert_eq!(links.iter().sum::<u64>(), 2);
    }

    #[test]
    fn incoming_vs_links_skip_offline_targets() {
        let s = snap(&[(true, 0.5, &[], &[1]), (false, 0.9, &[], &[])]);
        assert_eq!(s.incoming_vs_links(10).iter().sum::<u64>(), 0);
    }

    #[test]
    fn connectivity_full_graph() {
        // 0-1-2 chain via VS edges: connected.
        let s = snap(&[
            (true, 0.1, &[], &[1]),
            (true, 0.5, &[], &[2]),
            (true, 0.9, &[], &[]),
        ]);
        assert_eq!(s.largest_component_fraction(SliverScope::Both), 1.0);
        // HS-only: no edges at all → singletons.
        assert!((s.largest_component_fraction(SliverScope::HsOnly) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn connectivity_ignores_offline() {
        let s = snap(&[
            (true, 0.1, &[], &[1]),
            (false, 0.5, &[], &[2]), // bridge offline
            (true, 0.9, &[], &[]),
        ]);
        assert_eq!(s.largest_component_fraction(SliverScope::Both), 0.5);
    }

    #[test]
    fn band_connectivity() {
        // Band around 0.5: nodes 0, 1 linked by HS; node 2 outside band.
        let s = snap(&[
            (true, 0.50, &[1], &[]),
            (true, 0.55, &[], &[]),
            (true, 0.90, &[], &[]),
        ]);
        assert_eq!(
            s.band_component_fraction(Availability::saturating(0.5)),
            Some(1.0)
        );
        // Band around 0.9 has a single node.
        assert_eq!(
            s.band_component_fraction(Availability::saturating(0.9)),
            None
        );
    }

    #[test]
    fn mean_degree_over_online() {
        let s = snap(&[
            (true, 0.5, &[1], &[2]),
            (true, 0.55, &[], &[]),
            (false, 0.6, &[0, 1], &[2]),
        ]);
        assert_eq!(s.mean_degree(), 1.0);
    }

    #[test]
    fn hops_from_walks_the_chain() {
        // 0 → 1 → 2 chain via VS edges.
        let s = snap(&[
            (true, 0.1, &[], &[1]),
            (true, 0.5, &[], &[2]),
            (true, 0.9, &[], &[]),
        ]);
        let hops = s.hops_from(NodeId::new(0), SliverScope::Both);
        assert_eq!(hops, vec![Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn hops_from_skips_offline_and_unreachable() {
        let s = snap(&[
            (true, 0.1, &[], &[1]),
            (false, 0.5, &[], &[2]), // offline bridge
            (true, 0.9, &[], &[]),
        ]);
        let hops = s.hops_from(NodeId::new(0), SliverScope::Both);
        assert_eq!(hops, vec![Some(0), None, None]);
    }

    #[test]
    fn hops_are_undirected() {
        // Edge only 1 → 0; BFS from 0 still reaches 1.
        let s = snap(&[(true, 0.1, &[], &[]), (true, 0.5, &[], &[0])]);
        let hops = s.hops_from(NodeId::new(0), SliverScope::Both);
        assert_eq!(hops[1], Some(1));
    }

    #[test]
    #[should_panic(expected = "offline")]
    fn hops_from_offline_start_panics() {
        let s = snap(&[(false, 0.1, &[], &[]), (true, 0.5, &[], &[])]);
        let _ = s.hops_from(NodeId::new(0), SliverScope::Both);
    }

    #[test]
    fn path_length_summary_excludes_start() {
        let s = snap(&[
            (true, 0.1, &[], &[1]),
            (true, 0.5, &[], &[2]),
            (true, 0.9, &[], &[]),
        ]);
        let summary = s.path_length_summary(NodeId::new(0), SliverScope::Both);
        assert_eq!(summary.count(), 2);
        assert_eq!(summary.min(), 1.0);
        assert_eq!(summary.max(), 2.0);
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn non_dense_ids_panic() {
        let nodes = vec![NodeSnapshot {
            id: NodeId::new(5),
            online: true,
            estimated_availability: Availability::ZERO,
            true_availability: Availability::ZERO,
            hs: vec![],
            vs: vec![],
        }];
        let _ = OverlaySnapshot::new(nodes, 0.1);
    }
}
