//! The converged rebuild: every node's lists computed directly from the
//! predicate over the whole population — the fixed point discovery
//! converges to ([`MaintenanceMode::Converged`](super::MaintenanceMode)).

use avmem_util::parallel::{default_threads, par_chunks_mut};
use avmem_util::{Availability, NodeId, Rng, SplitMix64};

use super::{AvmemSim, CandidateIndex};
use crate::membership::{Membership, Neighbor};
use crate::predicate::{Sliver, ThresholdMemo};

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

impl AvmemSim {
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
    pub(super) fn rebuild_converged(&mut self) {
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
        let memo = self.predicate.rebuild_memo();
        // Rules I.A / I.B: one vertical threshold per index position.
        let vertical_table: Option<Vec<f64>> = shared.as_ref().and_then(|index| {
            memo.source_independent_vertical(
                index
                    .entries()
                    .iter()
                    .map(|&(v, _)| Availability::saturating(v)),
            )
        });
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
    /// * thresholds come from the per-rebuild [`ThresholdMemo`] — the
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
        memo: &ThresholdMemo<'_>,
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
}
