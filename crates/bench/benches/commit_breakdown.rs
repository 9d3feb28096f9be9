//! Commit-phase cost breakdown: what the counting-bucket placement and
//! the pooled cohort buffers buy over the paths they replaced.
//!
//! Three layers:
//!
//! * `placement_*` — grouping one cohort's request inbox by responder,
//!   the way commit 2a routes requests to their targets. The harness
//!   used to sort the inbox by responder; it now threads each request
//!   into per-responder chains (`bucket_head`/`bucket_next`) and walks
//!   the touched chains in responder order. Both variants produce the
//!   identical responder-major visit order, so the measured gap is pure
//!   algorithm cost (O(m log m) comparison sort vs O(m + touched)
//!   bucketing with reused index arrays).
//! * `exchange_*` — a full shuffle exchange (propose → apply → request
//!   → reply) with a fresh `EntryPool` per call (the allocating entry
//!   points) vs one long-lived pool, isolating the per-exchange
//!   alloc/free traffic the shard-owned pools remove.
//! * `view_merge` — one `View::merge` of ℓ = v/2 entries, none of them
//!   present, into a full view whose previous ℓ arrivals are the `sent`
//!   victims (the steady state of a converged overlay), at the view
//!   sizes of the paper's 1442 hosts (37), of 16 k hosts (126) and of 10⁶
//!   hosts (1000). Reported per received entry: with the id table a
//!   merge is O(v + ℓ), so ns/elem should stay flat as v grows.
//!
//! Set `AVMEM_BENCH_QUICK=1` (the CI bench-smoke setting) to shrink the
//! sweeps so the bodies still execute cheaply.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use avmem_shuffle::{EntryPool, ShuffleConfig, ShuffleNode, View, ViewEntry};
use avmem_util::{NodeId, Rng, SplitMix64, StampedTable};

fn quick() -> bool {
    std::env::var_os("AVMEM_BENCH_QUICK").is_some()
}

/// A synthetic commit inbox: `m` requests aimed at `n` responders, in
/// ascending-initiator order the way concatenated shard outboxes arrive.
/// Roughly half the responders are touched each cohort, matching the
/// protocol-period duty cycle at paper scale.
fn synthetic_inbox(n: u32, m: u32) -> Vec<(u32, u32)> {
    let mut rng = SplitMix64::keyed(&[0xC0117, u64::from(n), u64::from(m)]);
    (0..m)
        .map(|initiator| {
            let responder = (rng.next_u64() % u64::from(n / 2)) as u32 * 2;
            (responder, initiator)
        })
        .collect()
}

fn bench_placement(c: &mut Criterion) {
    let mut group = c.benchmark_group("commit_breakdown");
    let n: u32 = if quick() { 512 } else { 16_384 };
    let m: u32 = n * 4;
    let inbox = synthetic_inbox(n, m);

    group.bench_function(BenchmarkId::new("placement_sort", m), |b| {
        let mut scratch: Vec<(u32, u32)> = Vec::new();
        b.iter(|| {
            scratch.clear();
            scratch.extend_from_slice(&inbox);
            // Initiator index as tiebreaker: sort_unstable must still
            // reproduce the arrival order within each responder.
            scratch.sort_unstable();
            let mut acc = 0u64;
            for &(responder, initiator) in &scratch {
                acc = acc
                    .wrapping_mul(31)
                    .wrapping_add(u64::from(responder) << 32 | u64::from(initiator));
            }
            black_box(acc)
        });
    });

    group.bench_function(BenchmarkId::new("placement_buckets", m), |b| {
        // Reused across iterations, exactly like the shard-owned scratch.
        let mut head: Vec<u32> = vec![u32::MAX; n as usize];
        let mut tail: Vec<u32> = vec![u32::MAX; n as usize];
        let mut next: Vec<u32> = Vec::new();
        let mut touched: Vec<u32> = Vec::new();
        b.iter(|| {
            next.clear();
            next.resize(inbox.len(), u32::MAX);
            touched.clear();
            for (i, &(responder, _)) in inbox.iter().enumerate() {
                let r = responder as usize;
                if head[r] == u32::MAX {
                    head[r] = i as u32;
                    touched.push(responder);
                } else {
                    next[tail[r] as usize] = i as u32;
                }
                tail[r] = i as u32;
            }
            touched.sort_unstable();
            let mut acc = 0u64;
            for &responder in &touched {
                let mut idx = head[responder as usize];
                while idx != u32::MAX {
                    let (r, initiator) = inbox[idx as usize];
                    acc = acc
                        .wrapping_mul(31)
                        .wrapping_add(u64::from(r) << 32 | u64::from(initiator));
                    idx = next[idx as usize];
                }
                head[responder as usize] = u32::MAX;
                tail[responder as usize] = u32::MAX;
            }
            black_box(acc)
        });
    });
    group.finish();
}

fn bench_exchange_buffers(c: &mut Criterion) {
    let mut group = c.benchmark_group("commit_breakdown");
    let rounds: u64 = if quick() { 64 } else { 1024 };
    let cfg = ShuffleConfig::new(8, 4);
    let mut initiator = ShuffleNode::new(NodeId::new(0), cfg, 7);
    initiator.bootstrap((1..=8).map(NodeId::new));
    let mut responder = ShuffleNode::new(NodeId::new(1), cfg, 8);
    responder.bootstrap((2..=9).map(NodeId::new));

    group.bench_function(BenchmarkId::new("exchange_fresh", rounds), |b| {
        b.iter(|| {
            let mut a = initiator.clone();
            let mut t = responder.clone();
            for round in 0..rounds {
                let mut rng = SplitMix64::keyed(&[11, round]);
                let Some(proposal) = a.propose(&mut rng) else {
                    continue;
                };
                a.apply(&proposal);
                let (_, request) = proposal.into_request();
                let reply = t.handle_request(request);
                a.handle_reply(reply);
            }
            black_box(a.view().len())
        });
    });

    group.bench_function(BenchmarkId::new("exchange_pooled", rounds), |b| {
        let mut pool = EntryPool::new();
        b.iter(|| {
            let mut a = initiator.clone();
            let mut t = responder.clone();
            for round in 0..rounds {
                let mut rng = SplitMix64::keyed(&[11, round]);
                let Some(proposal) = a.propose_with(&mut rng, &mut pool) else {
                    continue;
                };
                a.apply_with(&proposal, &mut pool);
                let (_, request) = proposal.into_request();
                let reply = t.handle_request_with(request, &mut pool);
                a.handle_reply_with(reply, &mut pool);
            }
            black_box(a.view().len())
        });
    });
    group.finish();
}

fn bench_view_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("view_merge");
    let sizes: &[u64] = if quick() { &[37] } else { &[37, 126, 1000] };
    for &v in sizes {
        let l = v / 2;
        let mut view = View::new(v as usize);
        for n in 0..v {
            view.insert(ViewEntry { id: NodeId::new(n), age: 1 });
        }
        let owner = NodeId::new(v + 2 * l);
        let batch = |first: u64| -> Vec<ViewEntry> {
            (first..first + l).map(|n| ViewEntry::fresh(NodeId::new(n))).collect()
        };
        // Two disjoint batches take turns: each merge finds the other
        // batch in the view, as the victims it sent away.
        let mut arriving = batch(v);
        let mut resident = batch(v + l);
        let mut index = StampedTable::new();
        view.merge(owner, &resident, &batch(0), &mut index);
        group.throughput(Throughput::Elements(l));
        group.bench_function(BenchmarkId::from_parameter(v), |b| {
            b.iter(|| {
                view.merge(owner, &arriving, &resident, &mut index);
                std::mem::swap(&mut arriving, &mut resident);
                black_box(view.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_placement, bench_exchange_buffers, bench_view_merge);
criterion_main!(benches);
