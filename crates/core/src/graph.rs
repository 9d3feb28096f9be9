//! Connectivity of the overlay at an instant (§4.1, Theorems 2 and 3).
//!
//! Two passes that read neighbor lists in place and store no graph:
//! [`components`], the union-find behind
//! [`crate::harness::AvmemSim::health_stats`] and Theorem 2's band check,
//! and [`path_lengths`], the hop distances that short operations rest on.
//! Both see the nodes `0..n`, of which `member` picks the ones that count
//! (the online nodes, or a band of them), and `neighbors(i)`, the ids
//! member `i` lists. An edge counts when both its ends are members, and in
//! either direction: the paper's connectivity analysis treats the overlay
//! as undirected.

use avmem_util::stats::Summary;

/// The connected components of the members; see [`components`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Components {
    /// How many nodes are members.
    pub members: usize,
    /// The size of the largest component.
    pub largest: usize,
    /// The size of the component of the lowest-numbered member.
    pub lowest: usize,
}

impl Components {
    /// The share of the members in the largest component; `0.0` without
    /// members.
    pub fn largest_fraction(&self) -> f64 {
        if self.members == 0 {
            return 0.0;
        }
        self.largest as f64 / self.members as f64
    }

    /// Theorem 2's reading of a band: the share of its members in the
    /// component of its lowest member; `None` under two members.
    pub fn lowest_fraction(&self) -> Option<f64> {
        (self.members >= 2).then(|| self.lowest as f64 / self.members as f64)
    }
}

/// Joins every two members one of them lists, by union-find.
///
/// # Panics
///
/// Panics if a member lists an id outside `0..n`.
pub fn components<'a>(
    n: usize,
    member: impl Fn(usize) -> bool,
    neighbors: impl Fn(usize) -> &'a [u32],
) -> Components {
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            // Path halving.
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    let is_member: Vec<bool> = (0..n).map(member).collect();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    for i in (0..n).filter(|&i| is_member[i]) {
        for &j in neighbors(i) {
            if is_member[j as usize] {
                let (a, b) = (find(&mut parent, i as u32), find(&mut parent, j));
                parent[a as usize] = b;
            }
        }
    }
    let mut size = vec![0usize; n];
    let mut found = Components {
        members: 0,
        largest: 0,
        lowest: 0,
    };
    for i in (0..n).filter(|&i| is_member[i]) {
        let root = find(&mut parent, i as u32) as usize;
        size[root] += 1;
        found.members += 1;
        found.largest = found.largest.max(size[root]);
    }
    if let Some(first) = is_member.iter().position(|&m| m) {
        found.lowest = size[find(&mut parent, first as u32) as usize];
    }
    found
}

/// Hop distances from member `start` to every other member it reaches.
///
/// Breadth-first, one level per round: each round reads every member's
/// list once and crosses each edge with one end on the frontier, whichever
/// end lists it — so the walk needs no reverse lists, only the distances.
///
/// # Panics
///
/// Panics if `start` is not a member, or a member lists an id outside
/// `0..n`.
pub fn path_lengths<'a>(
    n: usize,
    start: usize,
    member: impl Fn(usize) -> bool,
    neighbors: impl Fn(usize) -> &'a [u32],
) -> Summary {
    let is_member: Vec<bool> = (0..n).map(member).collect();
    assert!(is_member[start], "start node {start} is not a member");
    let mut hops: Vec<Option<u32>> = vec![None; n];
    hops[start] = Some(0);
    for depth in 0u32.. {
        let mut grew = false;
        for i in (0..n).filter(|&i| is_member[i]) {
            for &j in neighbors(i) {
                let j = j as usize;
                if !is_member[j] {
                    continue;
                }
                match (hops[i], hops[j]) {
                    (Some(d), None) if d == depth => hops[j] = Some(depth + 1),
                    (None, Some(d)) if d == depth => hops[i] = Some(depth + 1),
                    _ => continue,
                }
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    Summary::from_values(hops.into_iter().flatten().filter(|&h| h > 0).map(f64::from))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(online, out-neighbors)` per node.
    type Wiring<'a> = [(bool, &'a [u32])];

    fn components_of(nodes: &Wiring<'_>) -> Components {
        components(nodes.len(), |i| nodes[i].0, |i| nodes[i].1)
    }

    fn paths_from(nodes: &Wiring<'_>, start: usize) -> Summary {
        path_lengths(nodes.len(), start, |i| nodes[i].0, |i| nodes[i].1)
    }

    #[test]
    fn online_filtering() {
        let found = components_of(&[(true, &[]), (false, &[0, 2]), (true, &[])]);
        assert_eq!((found.members, found.largest, found.lowest), (2, 1, 1));
        let none = components_of(&[(false, &[])]);
        assert_eq!(
            (
                none.members,
                none.largest_fraction(),
                none.lowest_fraction()
            ),
            (0, 0.0, None)
        );
    }

    #[test]
    fn connectivity_full_graph() {
        // 0 → 1 → 2: one component.
        let chain = components_of(&[(true, &[1]), (true, &[2]), (true, &[])]);
        assert_eq!(chain.largest_fraction(), 1.0);
        // No edges at all → singletons.
        let bare = components_of(&[(true, &[]), (true, &[]), (true, &[])]);
        assert!((bare.largest_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn connectivity_ignores_offline() {
        // The bridge is offline; its edges, in and out, do not count.
        let found = components_of(&[(true, &[1]), (false, &[2]), (true, &[])]);
        assert_eq!(found.largest_fraction(), 0.5);
        // Undirected: 2 → 0 joins them whichever end lists the edge.
        let found = components_of(&[(true, &[]), (false, &[]), (true, &[0])]);
        assert_eq!(found.largest_fraction(), 1.0);
    }

    #[test]
    fn band_connectivity() {
        // A band is a node filter: 0 and 1 are in it and linked; 2 is
        // outside it, so its link to 3 (in the band) does not join 3 to
        // anyone. The lowest member's component holds 2 of 3.
        let edges: [&[u32]; 4] = [&[1], &[], &[3], &[]];
        let band = [true, true, false, true];
        let found = components(4, |i| band[i], |i| edges[i]);
        assert_eq!(found.lowest_fraction(), Some(2.0 / 3.0));
        // A band of one node has no connectivity to speak of.
        let lone = components(4, |i| i == 2, |i| edges[i]);
        assert_eq!((lone.members, lone.lowest_fraction()), (1, None));
    }

    #[test]
    fn hops_from_walks_the_chain() {
        // 0 → 1 → 2 → 3: distances 1, 2, 3.
        let paths = paths_from(&[(true, &[1]), (true, &[2]), (true, &[3]), (true, &[])], 0);
        assert_eq!((paths.count(), paths.min(), paths.max()), (3, 1.0, 3.0));
        assert_eq!(paths.mean(), 2.0);
    }

    #[test]
    fn hops_from_skips_offline_and_unreachable() {
        // The bridge 1 is offline: 2 is unreachable and 1 never counts.
        let paths = paths_from(&[(true, &[1]), (false, &[2]), (true, &[])], 0);
        assert_eq!(paths.count(), 0);
    }

    #[test]
    fn hops_are_undirected() {
        // Only 1 → 0 and 2 → 1 exist; from 0 the walk still reaches both.
        let paths = paths_from(&[(true, &[]), (true, &[0]), (true, &[1])], 0);
        assert_eq!((paths.count(), paths.max()), (2, 2.0));
    }

    #[test]
    #[should_panic(expected = "not a member")]
    fn hops_from_offline_start_panics() {
        let _ = paths_from(&[(false, &[]), (true, &[])], 0);
    }

    #[test]
    fn path_length_summary_excludes_start() {
        // A cycle back to the start does not count it at distance 0 or 3.
        let paths = paths_from(&[(true, &[1]), (true, &[2]), (true, &[0])], 0);
        assert_eq!((paths.count(), paths.min(), paths.max()), (2, 1.0, 1.0));
    }
}
