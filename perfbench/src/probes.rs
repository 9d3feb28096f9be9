//! Layer probes: isolated calls into one layer at a time, sized by the
//! workload's host count. Each reports the median over batches of the
//! time per operation, so a gain claimed for a layer can be checked on
//! that layer alone before it is looked for end to end.

use std::hint::black_box;
use std::time::Instant;

use avmem::predicate::AvmemPredicate;
use avmem_metrics::Registry;
use avmem_scenario::ScenarioSpec;
use avmem_shuffle::{EntryPool, ShuffleConfig, ShuffleNode};
use avmem_sim::{Engine, SimTime};
use avmem_trace::AvailabilityPdf;
use avmem_util::parallel::par_chunks_mut;
use avmem_util::{consistent_hash, Availability, NodeId, Rng, SplitMix64};

use crate::json::Json;
use crate::stats;

const BATCHES: usize = 7;

/// Median over `BATCHES` batches of the seconds one call of `batch`
/// takes, divided by the `ops` operations a batch performs.
fn per_op_s(ops: usize, mut batch: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            batch();
            start.elapsed().as_secs_f64() / ops as f64
        })
        .collect();
    stats::median(&times)
}

/// The thread count the parent set for this child.
fn pinned_threads() -> usize {
    std::env::var("AVMEM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

pub fn run(spec: &ScenarioSpec) -> Result<Json, String> {
    let hosts = spec.build_trace().map_err(|e| e.to_string())?.num_nodes();
    let mut rng = SplitMix64::new(spec.seed);
    let mut layers: Vec<(String, Json)> = Vec::new();
    let mut put = |name: &str, value: f64| layers.push((name.to_string(), Json::Num(value)));

    // The pair hash behind AVMON assignment and the membership predicate.
    let ops = 20_000;
    let base = rng.next_u64() >> 1;
    put(
        "util.sha256_pair_ns",
        1e9 * per_op_s(ops, || {
            for i in 0..ops as u64 {
                black_box(consistent_hash(
                    NodeId::new(base + i),
                    NodeId::new(base ^ i),
                ));
            }
        }),
    );

    // One fork-join over the worker pool with nothing to do: the fixed
    // cost every tiny cohort pays per parallel phase.
    let threads = pinned_threads();
    let mut items = [0u8; 64];
    let ops = 200;
    put(
        "util.pool_dispatch_us",
        1e6 * per_op_s(ops, || {
            for _ in 0..ops {
                par_chunks_mut(&mut items, 1, threads, |_, chunk| {
                    for item in chunk {
                        *item = item.wrapping_add(1);
                    }
                });
            }
            black_box(&items);
        }),
    );

    // One event per host through the event engine: schedule, then drain
    // in timestamp batches as the maintenance loop does.
    let times: Vec<u64> = (0..hosts).map(|_| rng.range_u64(60_000)).collect();
    put(
        "sim.engine_event_ns",
        1e9 * per_op_s(hosts, || {
            let mut engine: Engine<u32> = Engine::new();
            for (i, &ms) in times.iter().enumerate() {
                engine.schedule(SimTime::from_millis(ms), i as u32);
            }
            let mut batch = Vec::new();
            while engine.pop_batch_until(SimTime::MAX, &mut batch).is_some() {
                black_box(batch.len());
            }
        }),
    );

    // One pooled shuffle exchange at this population's view size.
    let config = ShuffleConfig::for_system_size(hosts);
    let view = config.view_size as u64;
    let mut initiator = ShuffleNode::new(NodeId::new(0), config, spec.seed);
    initiator.bootstrap((1..=view).map(NodeId::new));
    let mut responder = ShuffleNode::new(NodeId::new(1), config, spec.seed + 1);
    responder.bootstrap((2..=view + 1).map(NodeId::new));
    let mut pool = EntryPool::new();
    let ops = 256;
    put(
        "shuffle.exchange_ns",
        1e9 * per_op_s(ops, || {
            let (mut a, mut b) = (initiator.clone(), responder.clone());
            for round in 0..ops as u64 {
                let mut rng = SplitMix64::keyed(&[spec.seed, round]);
                let Some(proposal) = a.propose_with(&mut rng, &mut pool) else {
                    continue;
                };
                a.apply_with(&proposal, &mut pool);
                let (_, request) = proposal.into_request();
                let reply = b.handle_request_with(request, &mut pool);
                a.handle_reply_with(reply, &mut pool);
            }
            black_box(a.view().len());
        }),
    );

    // The membership predicate: table build plus one source's horizontal
    // integrals, then classification of candidates against that source.
    let predicate =
        AvmemPredicate::paper_default(hosts.max(2) as f64, AvailabilityPdf::uniform(10));
    let source_at = Availability::saturating(0.5);
    put(
        "core.predicate.memo_build_us",
        1e6 * per_op_s(1, || {
            let memo = predicate.rebuild_memo();
            black_box(memo.source(source_at).horizontal());
        }),
    );
    let memo = predicate.rebuild_memo();
    let source = memo.source(source_at);
    let candidates: Vec<(Availability, f64)> = (0..20_000)
        .map(|_| (Availability::saturating(rng.next_f64()), rng.next_f64()))
        .collect();
    put(
        "core.predicate.classify_ns",
        1e9 * per_op_s(candidates.len(), || {
            for &(y, hash) in &candidates {
                black_box(source.classify_hashed(y, hash));
            }
        }),
    );

    // The metrics crate's hot calls and one scrape of a small registry.
    let registry = Registry::new();
    let kinds = ["anycast", "multicast", "probe", "dropped"];
    let counters: Vec<_> = kinds
        .iter()
        .map(|kind| registry.counter("perf_probe_ops_total", "probe counter", &[("kind", kind)]))
        .collect();
    let histograms: Vec<_> = kinds
        .iter()
        .map(|kind| registry.histogram("perf_probe_exec_us", "probe histogram", &[("kind", kind)]))
        .collect();
    let ops = 100_000;
    put(
        "metrics.counter_inc_ns",
        1e9 * per_op_s(ops, || {
            for i in 0..ops {
                counters[i % counters.len()].inc();
            }
        }),
    );
    put(
        "metrics.histogram_record_ns",
        1e9 * per_op_s(ops, || {
            for i in 0..ops {
                histograms[i % histograms.len()].record(i as u64);
            }
        }),
    );
    put(
        "metrics.render_prometheus_us",
        1e6 * per_op_s(1, || {
            black_box(registry.render_prometheus().len());
        }),
    );

    Ok(Json::obj([
        ("hosts", Json::Num(hosts as f64)),
        ("layers", Json::Obj(layers)),
    ]))
}
