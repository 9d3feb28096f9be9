//! Finalize-phase cost breakdown: where the event-driven maintenance
//! hour actually goes, and what finalize's components (epoch-memoized
//! thresholds, batched pair hashes, batched oracle estimates, refresh
//! short-circuiting) cost and skip.
//!
//! Three layers:
//!
//! * `hour_fast` — one simulated hour of paper-period maintenance on one
//!   shard and one thread (the single-core configuration the 1-CPU
//!   container actually runs). After it, the per-phase wall-clock
//!   (discover+refresh live inside `finalize`) and the finalize counters
//!   are printed, so the BENCH_*.json entries can carry the
//!   discover/refresh/skip split.
//! * `pair_hash_*` — one membership-sized stream of pair-hash reads,
//!   hashed pair by pair, hashed one node's list per batch (what every
//!   finalize op pays: `gather` builds no rows), and read from dense
//!   rows built beforehand (a shared `PairHashes::compute` matrix).
//! * `estimate_*` — one refresh-sized availability lookup per pair vs
//!   one batched call, isolating the per-call oracle dispatch.
//!
//! Set `AVMEM_BENCH_QUICK=1` (the CI bench-smoke setting) to shrink
//! every sweep so the bodies still execute cheaply.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use avmem::harness::{
    AvmemSim, MaintenanceEngine, MaintenanceMode, PairHashes, SimConfig, SimOracle,
};
use avmem_avmon::AvailabilityOracle;
use avmem_sim::{SimDuration, SimTime};
use avmem_trace::OvernetModel;
use avmem_util::NodeId;

fn quick() -> bool {
    std::env::var_os("AVMEM_BENCH_QUICK").is_some()
}

fn maintenance_config() -> SimConfig {
    let mut config = SimConfig::paper_default(1);
    config.maintenance = MaintenanceMode::paper_event_driven();
    config.engine = MaintenanceEngine::Serial;
    config
}

fn bench_maintenance_hour(c: &mut Criterion) {
    let mut group = c.benchmark_group("finalize_breakdown");
    let sizes: &[usize] = if quick() { &[300] } else { &[10_000] };
    for &hosts in sizes {
        group.sample_size(if hosts <= 1000 { 3 } else { 1 });
        let trace = OvernetModel::default().hosts(hosts).days(1).generate(1);
        let id = BenchmarkId::new("hour_fast", hosts);
        group.bench_with_input(id, &hosts, |b, _| {
            let mut sim = AvmemSim::new(trace.clone(), maintenance_config());
            // Prime one hour so the samples measure the steady-state
            // maintenance hour, not the cold-start discovery flood
            // (the phase totals printed below still include it).
            sim.warm_up(SimDuration::from_hours(1));
            b.iter(|| {
                sim.warm_up(SimDuration::from_hours(1));
                black_box(sim.now())
            });
            let t = sim.phase_timings();
            let f = sim.finalize_stats();
            eprintln!(
                "finalize_breakdown hour_fast: hosts {hosts} cohorts {} oracle {:.3} s \
                 propose {:.3} s commit {:.3} s finalize {:.3} s | memo {}h/{}m/{}b \
                 refresh {}skip/{}eval pruned {} estimates {} pair-hash {}batched/{}prebuilt-row",
                t.cohorts,
                t.oracle.as_secs_f64(),
                t.propose.as_secs_f64(),
                t.commit.as_secs_f64(),
                t.finalize.as_secs_f64(),
                f.memo_hits,
                f.memo_misses,
                f.memo_bypassed,
                f.refresh_skipped,
                f.refresh_evaluated,
                f.discover_pruned,
                f.batched_estimates,
                f.pair_hash.hashed,
                f.pair_hash.delegated
            );
        });
    }
    group.finish();
}

fn bench_pair_hash(c: &mut Criterion) {
    let mut group = c.benchmark_group("finalize_breakdown");
    let n: usize = if quick() { 400 } else { 4000 };
    // A membership-sized working set: every node reads ~32 neighbors.
    let lists: Vec<Vec<NodeId>> = (0..n)
        .map(|i| {
            (1..=32usize)
                .map(|k| NodeId::new(((i + k * 37) % n) as u64))
                .collect()
        })
        .collect();
    let direct = PairHashes::with_budget(n, 0);
    group.bench_function(BenchmarkId::new("pair_hash_direct", n), |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for (x, list) in lists.iter().enumerate() {
                for y in list {
                    acc += direct.get(x, y.raw() as usize);
                }
            }
            black_box(acc)
        });
    });
    // `gather` reads dense rows but never builds them: hash them up front.
    let dense = PairHashes::compute(n);
    for (label, hashes) in [("pair_hash_gather", &direct), ("pair_hash_dense", &dense)] {
        group.bench_function(BenchmarkId::new(label, n), |b| {
            let mut out = Vec::new();
            b.iter(|| {
                let mut acc = 0.0f64;
                for (x, list) in lists.iter().enumerate() {
                    hashes.gather(x, list, &mut out);
                    acc += out.iter().sum::<f64>();
                }
                black_box(acc)
            });
        });
    }
    group.finish();
}

fn bench_estimates(c: &mut Criterion) {
    let mut group = c.benchmark_group("finalize_breakdown");
    let hosts: usize = if quick() { 200 } else { 2000 };
    let trace = OvernetModel::default().hosts(hosts).days(1).generate(2);
    let oracle = SimOracle::build(avmem::harness::OracleChoice::Exact, &trace, 7);
    // One refresh-sized candidate list per node.
    let per_node: usize = 32;
    let targets: Vec<Vec<NodeId>> = (0..hosts)
        .map(|i| {
            (1..=per_node)
                .map(|k| NodeId::new(((i + k * 53) % hosts) as u64))
                .collect()
        })
        .collect();
    group.bench_function(BenchmarkId::new("estimate_single", hosts), |b| {
        b.iter(|| {
            let mut known = 0usize;
            for (i, list) in targets.iter().enumerate() {
                let q = NodeId::new(i as u64);
                for &y in list {
                    known += oracle.estimate(q, y, SimTime::ZERO).is_some() as usize;
                }
            }
            black_box(known)
        });
    });
    group.bench_function(BenchmarkId::new("estimate_batch", hosts), |b| {
        let mut out = Vec::new();
        b.iter(|| {
            let mut known = 0usize;
            for (i, list) in targets.iter().enumerate() {
                oracle.estimate_batch(NodeId::new(i as u64), list, SimTime::ZERO, &mut out);
                known += out.iter().flatten().count();
            }
            black_box(known)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_maintenance_hour,
    bench_pair_hash,
    bench_estimates
);
criterion_main!(benches);
