//! Benchmarks of the management operations themselves: anycast walks by
//! policy/scope and multicast dissemination by strategy — plus the
//! receiver-side admission check in the attack path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use avmem::harness::{AvmemSim, InitiatorBand, SimConfig};
use avmem::ops::{
    AnycastConfig, AvailabilityTarget, ForwardPolicy, MulticastConfig, MulticastStrategy,
};
use avmem::SliverScope;
use avmem_sim::SimDuration;
use avmem_trace::OvernetModel;

fn warmed_sim() -> AvmemSim {
    let trace = OvernetModel::default().hosts(300).days(1).generate(1);
    let mut sim = AvmemSim::new(trace, SimConfig::paper_default(1));
    sim.warm_up(SimDuration::from_hours(24));
    sim
}

fn bench_anycast(c: &mut Criterion) {
    let mut sim = warmed_sim();
    let target = AvailabilityTarget::range(0.85, 0.95);
    let variants: [(&str, ForwardPolicy, SliverScope); 4] = [
        ("greedy/Both", ForwardPolicy::Greedy, SliverScope::Both),
        ("greedy/VsOnly", ForwardPolicy::Greedy, SliverScope::VsOnly),
        (
            "retried8/Both",
            ForwardPolicy::RetriedGreedy { retries: 8 },
            SliverScope::Both,
        ),
        (
            "annealing/Both",
            ForwardPolicy::SimulatedAnnealing,
            SliverScope::Both,
        ),
    ];
    let mut group = c.benchmark_group("anycast");
    for (name, policy, scope) in variants {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                let initiator = sim
                    .random_online_initiator(InitiatorBand::Mid)
                    .expect("online initiator");
                black_box(sim.anycast(
                    initiator,
                    target,
                    AnycastConfig { policy, scope, ttl: 6 },
                ))
            })
        });
    }
    group.finish();
}

/// Dissemination at the paper's population over a broad target — the
/// floods `perf`'s `ops-storm` workload is made of. The world is static
/// and the initiator fixed, so every iteration sends the same copies and
/// the group reads in time per copy.
fn bench_multicast(c: &mut Criterion) {
    let trace = OvernetModel::default().hosts(1442).days(1).generate(1);
    let mut sim = AvmemSim::new(trace, SimConfig::paper_default(1));
    sim.warm_up(SimDuration::from_hours(24));
    let target = AvailabilityTarget::threshold(0.5);
    let initiator = sim
        .random_online_initiator(InitiatorBand::High)
        .expect("online initiator");
    let mut group = c.benchmark_group("multicast");
    group.sample_size(20);
    for (name, strategy) in [
        ("flood", MulticastStrategy::Flood),
        ("gossip", MulticastStrategy::paper_gossip()),
    ] {
        let config = MulticastConfig {
            strategy,
            ..MulticastConfig::paper_default()
        };
        let messages = sim.multicast(initiator, target, config).messages;
        group.throughput(Throughput::Elements(messages));
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| black_box(sim.multicast(initiator, target, config)))
        });
    }
    group.finish();
}

fn bench_attack_analysis(c: &mut Criterion) {
    let trace = OvernetModel::default().hosts(200).days(1).generate(1);
    let mut config = SimConfig::paper_default(1);
    config.oracle = avmem::harness::OracleChoice::paper_noise();
    let mut sim = AvmemSim::new(trace, config);
    sim.warm_up(SimDuration::from_hours(24));
    let mut group = c.benchmark_group("attack_analysis");
    group.sample_size(10);
    group.bench_function("flooding_attack", |b| {
        b.iter(|| black_box(sim.flooding_attack(0.1, 10)))
    });
    group.bench_function("legitimate_rejection", |b| {
        b.iter(|| black_box(sim.legitimate_rejection(0.1, 10)))
    });
    group.finish();
}

criterion_group!(benches, bench_anycast, bench_multicast, bench_attack_analysis);
criterion_main!(benches);
