//! The ring relation by brute force, for the integration tests: every
//! point hashed on its own and cut to its top 96 bits, the whole ring
//! sorted with `sort_unstable`, and one walk per target from the
//! partition point of its lookup point.

use avmem_util::{consistent_point_keyed, NodeId};

/// Must match the ring domain keys of `avmem_avmon::assignment`.
const RING_DOMAIN: &[u8] = b"avmon-ring";
const RING_TARGET_DOMAIN: &[u8] = b"avmon-ring/target";

/// Row `t` holds target `t`'s monitors in walk order: the first `k`
/// distinct owners clockwise from its lookup point, skipping itself —
/// fewer when the population holds fewer other hosts.
pub fn brute_force_ring(n: usize, vnodes: u32, k: u32) -> Vec<Vec<u32>> {
    let id = |i: u32| NodeId::new(u64::from(i));
    let point = |key, x, y| consistent_point_keyed(key, id(x), id(y)) >> 32;
    let mut ring: Vec<(u128, u32)> = (0..n as u32)
        .flat_map(|m| (0..vnodes).map(move |v| (point(RING_DOMAIN, m, v), m)))
        .collect();
    ring.sort_unstable();
    (0..n as u32)
        .map(|t| {
            let lookup = point(RING_TARGET_DOMAIN, t, 0);
            let start = ring.partition_point(|&(point, _)| point < lookup);
            let mut row = Vec::new();
            for &(_, m) in ring[start..].iter().chain(&ring[..start]) {
                if row.len() == k as usize {
                    break;
                }
                if m != t && !row.contains(&m) {
                    row.push(m);
                }
            }
            row
        })
        .collect()
}
