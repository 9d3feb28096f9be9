//! Benchmarks of overlay construction and maintenance: the converged
//! rebuild (Fig. 2's warm-up), the event-driven discovery/refresh ticks,
//! the CYCLON shuffle round that feeds discovery, and the pair-hash
//! storage strategies.
//!
//! Set `AVMEM_BENCH_QUICK=1` (the CI bench-smoke setting) to shrink the
//! size sweeps so every benchmark body still executes without paying for
//! the large-population measurements.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use avmem::harness::{AvmemSim, MaintenanceEngine, MaintenanceMode, PairHashes, SimConfig};
use avmem_shuffle::{sim::RoundSim, ShuffleConfig};
use avmem_sim::SimDuration;
use avmem_trace::OvernetModel;

/// Whether the quick (CI smoke) profile is requested.
fn quick() -> bool {
    std::env::var_os("AVMEM_BENCH_QUICK").is_some()
}

fn bench_converged_rebuild(c: &mut Criterion) {
    let mut group = c.benchmark_group("converged_rebuild");
    // Size sweep toward the ROADMAP scale target; BENCH_2.json tracks the
    // medians across PRs.
    let sizes: &[usize] = if quick() {
        &[100, 300]
    } else {
        &[100, 300, 600, 1500, 5000]
    };
    for &hosts in sizes {
        group.sample_size(match hosts {
            0..=600 => 10,
            601..=1500 => 3,
            _ => 2,
        });
        group.bench_with_input(BenchmarkId::from_parameter(hosts), &hosts, |b, &hosts| {
            let trace = OvernetModel::default().hosts(hosts).days(1).generate(1);
            let mut sim = AvmemSim::new(trace, SimConfig::paper_default(1));
            b.iter(|| {
                sim.warm_up(SimDuration::from_mins(20));
                black_box(sim.now())
            })
        });
    }
    group.finish();
}

/// One simulated hour of event-driven maintenance (paper periods:
/// 1-minute shuffle/discovery ticks, 20-minute refresh), sweeping the
/// population toward the 10⁴-host target, across shardings. All of them
/// produce bit-identical state (pinned by `event_driven_equivalence`),
/// so the comparison is pure wall-clock.
///
/// `serial` is the one-shard, one-thread row. `sharded` is the default
/// engine (machine-sized pool, one shard per worker; on a 1-core host it
/// is the same run as `serial`).
/// `sharded_s2t2` pins two shards on two workers so the shard-exchange
/// machinery is exercised and its cost recorded even where only one
/// core is available.
fn bench_event_driven(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_driven");
    let sizes: &[usize] = if quick() {
        &[300]
    } else {
        &[1000, 2000, 5000, 10_000]
    };
    let engines = [
        ("serial", MaintenanceEngine::Serial),
        (
            "sharded",
            MaintenanceEngine::Sharded {
                shards: None,
                threads: None,
            },
        ),
        (
            "sharded_s2t2",
            MaintenanceEngine::Sharded {
                shards: Some(2),
                threads: Some(2),
            },
        ),
    ];
    for &hosts in sizes {
        group.sample_size(match hosts {
            0..=2000 => 3,
            _ => 1,
        });
        let trace = OvernetModel::default().hosts(hosts).days(1).generate(1);
        for (name, engine) in engines {
            group.bench_with_input(BenchmarkId::new(name, hosts), &hosts, |b, _| {
                let mut config = SimConfig::paper_default(1);
                config.maintenance = MaintenanceMode::paper_event_driven();
                config.engine = engine;
                let mut sim = AvmemSim::new(trace.clone(), config);
                b.iter(|| {
                    sim.warm_up(SimDuration::from_hours(1));
                    black_box(sim.now())
                })
            });
        }
    }
    group.finish();
}

/// Pair-hash storage: the eager dense build pays all `N²` SHA-256
/// evaluations up front; lazy dense rows and the over-budget store, which
/// keeps nothing and fills the caller's scratch, pay one row on demand.
fn bench_pair_hashes(c: &mut Criterion) {
    let mut group = c.benchmark_group("pair_hashes");
    group.sample_size(10);
    let sizes: &[usize] = if quick() { &[300] } else { &[600, 2000] };
    for &n in sizes {
        group.bench_with_input(BenchmarkId::new("dense_build", n), &n, |b, &n| {
            b.iter(|| black_box(PairHashes::compute(n).len()))
        });
        group.bench_with_input(BenchmarkId::new("lazy_one_row", n), &n, |b, &n| {
            let mut scratch = Vec::new();
            b.iter(|| {
                let hashes = PairHashes::lazy(n);
                black_box(hashes.row(n / 2, &mut scratch)[0])
            })
        });
        group.bench_with_input(BenchmarkId::new("direct_one_row", n), &n, |b, &n| {
            let hashes = PairHashes::with_budget(n, 0);
            let mut scratch = Vec::new();
            b.iter(|| black_box(hashes.row(n / 2, &mut scratch)[0]))
        });
    }
    group.finish();
}

fn bench_shuffle_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("shuffle_round");
    for &n in &[256usize, 1024] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut sim = RoundSim::new(n, ShuffleConfig::for_system_size(n), 3);
            sim.run_rounds(10);
            b.iter(|| {
                sim.run_round();
                black_box(sim.rounds())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_converged_rebuild,
    bench_event_driven,
    bench_pair_hashes,
    bench_shuffle_round
);
criterion_main!(benches);
