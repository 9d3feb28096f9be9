//! Microbenchmarks of the predicate layer: consistent hashing, the five
//! sub-predicate rules, and PDF-derived quantities. These are the inner
//! loops of discovery, refresh, and receiver-side verification.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use avmem::predicate::{
    AvmemPredicate, HorizontalRule, MembershipPredicate, NodeInfo, RandomPredicate, VerticalRule,
};
use avmem_trace::AvailabilityPdf;
use avmem_util::{consistent_hash, consistent_hash_batch, Availability, NodeId};

fn skewed_pdf() -> AvailabilityPdf {
    let mut mass = vec![5.0, 4.0, 3.0, 2.0, 1.5, 1.0, 1.0, 1.5, 2.0, 3.0];
    mass[0] = 6.0;
    AvailabilityPdf::from_bucket_mass(mass)
}

fn bench_hash(c: &mut Criterion) {
    c.bench_function("consistent_hash(pair)", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(consistent_hash(NodeId::new(i), NodeId::new(i ^ 0xff)))
        })
    });
}

/// Every leg hashes the same 2 400 pairs (one `avmon-allpairs`-sized row),
/// so the per-iteration times compare directly: pair-at-a-time calls,
/// batches too short to interleave, batches of exactly one interleaved
/// kernel call, and the whole row in one batch.
fn bench_hash_batch(c: &mut Criterion) {
    const ROW: usize = 2_400;
    let x = NodeId::new(7);
    let ys: Vec<NodeId> = (0..ROW as u64).map(NodeId::new).collect();
    let mut out = vec![0.0; ROW];
    let mut group = c.benchmark_group("pair_hash_batch");
    group.bench_function("single_call", |b| {
        b.iter(|| {
            for (slot, &y) in out.iter_mut().zip(&ys) {
                *slot = consistent_hash(x, y);
            }
            black_box(out[ROW - 1])
        })
    });
    for (name, width) in [
        ("one_lane_batch", 1),
        ("two_lane_batch", 2),
        ("row_2400", ROW),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                for (slots, ys) in out.chunks_mut(width).zip(ys.chunks(width)) {
                    consistent_hash_batch(x, ys.iter().copied(), slots);
                }
                black_box(out[ROW - 1])
            })
        });
    }
    group.finish();
}

fn bench_rules(c: &mut Criterion) {
    let pdf = skewed_pdf();
    let variants: Vec<(&str, AvmemPredicate)> = vec![
        (
            "I.A+II.A constant",
            AvmemPredicate::new(
                0.1,
                1442.0,
                VerticalRule::constant_for(2.0, 1442.0),
                HorizontalRule::constant_for(2.0, 1442.0),
                pdf.clone(),
            ),
        ),
        (
            "I.B+II.B paper",
            AvmemPredicate::paper_default(1442.0, pdf.clone()),
        ),
        (
            "I.C+II.B log-decreasing",
            AvmemPredicate::new(
                0.1,
                1442.0,
                VerticalRule::LogarithmicDecreasing { c1: 2.0 },
                HorizontalRule::LogarithmicConstant { c2: 2.0 },
                pdf.clone(),
            ),
        ),
    ];

    let mut group = c.benchmark_group("predicate_classify");
    for (name, pred) in &variants {
        group.bench_with_input(BenchmarkId::from_parameter(name), pred, |b, pred| {
            let mut i = 0u64;
            b.iter(|| {
                i = i.wrapping_add(1);
                let x = NodeInfo::new(
                    NodeId::new(i),
                    Availability::saturating((i % 100) as f64 / 100.0),
                );
                let y = NodeInfo::new(
                    NodeId::new(i ^ 0xabcd),
                    Availability::saturating(((i * 7) % 100) as f64 / 100.0),
                );
                black_box(pred.classify(x, y))
            })
        });
    }
    group.bench_function("random-baseline", |b| {
        let pred = RandomPredicate::with_expected_degree(15.0, 1442.0);
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            let x = NodeInfo::new(NodeId::new(i), Availability::saturating(0.4));
            let y = NodeInfo::new(NodeId::new(i ^ 0xabcd), Availability::saturating(0.8));
            black_box(pred.classify(x, y))
        })
    });
    group.finish();
}

fn bench_pdf(c: &mut Criterion) {
    let pdf = skewed_pdf();
    let mut group = c.benchmark_group("pdf");
    group.bench_function("density", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(pdf.density(Availability::saturating((i % 100) as f64 / 100.0)))
        })
    });
    group.bench_function("min_window_mass", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(pdf.min_window_mass(
                1442.0,
                Availability::saturating((i % 100) as f64 / 100.0),
                0.1,
            ))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_hash,
    bench_hash_batch,
    bench_rules,
    bench_pdf
);
criterion_main!(benches);
