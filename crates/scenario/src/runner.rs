//! The scenario runner: operation traffic interleaved with maintenance.
//!
//! [`ScenarioRunner`] turns a [`ScenarioSpec`] into a [`ScenarioReport`]:
//!
//! 1. the churn trace and harness are built from the spec;
//! 2. a **deterministic Poisson-like arrival schedule** is drawn — every
//!    operation's arrival offset, kind, target, and initiator pick come
//!    from counter-keyed RNG streams (`SplitMix64::keyed(&[seed, purpose,
//!    op_index])`), so the schedule is a pure function of the spec and
//!    seed, independent of maintenance engine, thread count, or drain
//!    order. The schedule is generated **lazily**: three monotonic
//!    sources (health lattice, converged-rebuild lattice, Poisson
//!    arrivals) are merged on the fly under the strict total order
//!    `(at, order)`, so a multi-day serve never materializes its full
//!    event list;
//! 3. the run advances the harness clock operation by operation with
//!    [`avmem::harness::AvmemSim::advance_to`] — event-driven maintenance
//!    cohorts execute *between* operations, so each operation observes
//!    the live, possibly-unconverged overlay exactly as a deployed
//!    initiator would (converged maintenance instead rebuilds on the
//!    spec's interval and lets the overlay go stale in between);
//! 4. anycasts/multicasts execute over a borrowed
//!    [`avmem::ops::OverlayWorld`] view with per-operation keyed RNG and
//!    latency streams, adversary arrivals probe receiver-side
//!    verification, and health samples measure the overlay — each
//!    health boundary also draws a fixed batch of estimator-accuracy
//!    samples (see [`EstimatorAccuracy`]).
//!
//! The single-shot [`ScenarioRunner::run`] is a thin loop over
//! [`RunSession`], the resumable step-at-a-time form that `scenario
//! serve` paces against wall-clock and instruments through a live
//! [`avmem_metrics::Registry`]. A session with metrics attached produces
//! a bit-identical report to one without: instrumentation only observes.
//! A session not yet stepped forks ([`RunSession::fork`]) into sessions
//! for other workloads over a copy of its warm-up, each reporting what a
//! fresh run of its spec reports.

use std::sync::Arc;
use std::time::Instant;

use avmem::harness::AvmemSim;
use avmem::ops::{run_anycast, run_multicast, OpScratch, OverlayWorld};
use avmem::verify::flood_targets;
use avmem::AdmissionPolicy;
use avmem_avmon::AvailabilityOracle;
use avmem_metrics::{Histogram, Registry};
use avmem_sim::{LatencyModel, Network, SimDuration, SimTime};
use avmem_util::{NodeId, Rng, SplitMix64};

use crate::report::{
    AnycastStats, AttackStats, EstimatorAccuracy, HealthSample, MemoryStats, MulticastStats,
    RunTimings, ScenarioReport, DECILES, HOPS_BUCKETS,
};
use crate::spec::{BandSpec, ScenarioError, ScenarioSpec};

mod timeline;
use timeline::{draw_kind, pick_from, BandIndex, EventKind, OpKind, Source, Timeline};

/// Purpose tags for the runner's counter-keyed streams. Core maintenance
/// uses small tags with `(seed, tag, node, epoch)` keys; the runner's
/// keys are `(seed, tag, op_index)` — distinct lengths and tag values
/// keep every stream decorrelated.
const STREAM_ARRIVAL: u64 = 0x5ce0_0001;
const STREAM_MIX: u64 = 0x5ce0_0002;
const STREAM_INITIATOR: u64 = 0x5ce0_0003;
const STREAM_OP: u64 = 0x5ce0_0004;
const STREAM_NET: u64 = 0x5ce0_0005;
const STREAM_PROBE: u64 = 0x5ce0_0006;
/// Estimator-accuracy sampling; keyed by health-sample index, not op.
const STREAM_MAE: u64 = 0x5ce0_0007;

/// Rejection-sampling tries before an initiator pick falls back to the
/// exact eligible scan. With fraction `p` of the population eligible,
/// the fallback fires with probability `(1-p)^64` — at Overnet's ~15%
/// online that is ~3·10⁻⁵, so the amortized pick cost is O(1) instead
/// of the O(N) population scan per operation.
const PICK_TRIES: u32 = 64;

/// The per-operation distributions the report does not hold; present
/// only after [`RunSession::set_metrics`]. Every other family the
/// session exports is rendered from the report by [`RunSession::publish`].
#[derive(Debug)]
struct ScenarioInstruments {
    latency_ms: Histogram,
    hops: Histogram,
    exec_us: Histogram,
}

impl ScenarioInstruments {
    fn new(registry: &Registry) -> ScenarioInstruments {
        ScenarioInstruments {
            latency_ms: registry.histogram(
                "avmem_op_latency_ms",
                "End-to-end anycast latency (ms).",
                &[],
            ),
            hops: registry.histogram("avmem_op_hops", "Hops per delivered anycast.", &[]),
            exec_us: registry.histogram(
                "avmem_op_exec_us",
                "Wall-clock execution time per operation (µs).",
                &[],
            ),
        }
    }
}

/// Runs scenarios; see the module docs for the execution model.
#[derive(Debug, Clone)]
pub struct ScenarioRunner {
    pub(crate) spec: ScenarioSpec,
}

impl ScenarioRunner {
    /// Creates a runner after validating the spec.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Invalid`] when the spec fails
    /// [`ScenarioSpec::validate`].
    pub fn new(spec: ScenarioSpec) -> Result<Self, ScenarioError> {
        spec.validate()?;
        Ok(ScenarioRunner { spec })
    }

    /// The validated spec this runner executes.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// Executes the scenario and collects the report.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Trace`] / [`ScenarioError::Invalid`] from
    /// trace construction (file I/O, trace shorter than the run).
    pub fn run(&self) -> Result<ScenarioReport, ScenarioError> {
        let mut session = self.session()?;
        while session.step().is_some() {}
        Ok(session.finish())
    }

    /// Builds the resumable step-at-a-time session this runner's `run`
    /// drives to completion. `scenario serve` uses the session directly
    /// to pace events against wall-clock and shed load under pressure.
    ///
    /// # Errors
    ///
    /// Same as [`ScenarioRunner::run`].
    pub fn session(&self) -> Result<RunSession, ScenarioError> {
        let spec = self.spec.clone();
        let started = Instant::now();
        let trace = spec.build_trace()?;
        let traced = Instant::now();
        let mut sim = AvmemSim::new(trace, spec.sim_config());
        let timings = RunTimings {
            trace: traced - started,
            sim_new: traced.elapsed(),
            ..RunTimings::default()
        };
        // Warm-up: maintenance only. Converged mode rebuilds here (and
        // then on the spec's interval via Rebuild events); event-driven
        // mode runs the protocols from cold.
        sim.warm_up(SimDuration::from_mins(spec.warmup_mins));
        Ok(RunSession::open(spec, sim, timings))
    }
}

/// One in-flight scenario execution, advanced one timeline event at a
/// time. Stepping to exhaustion and finishing is exactly
/// [`ScenarioRunner::run`]; the serve loop interleaves [`RunSession::step`]
/// with wall-clock pacing and may shed operations with
/// [`RunSession::drop_next_op`] when behind budget.
#[derive(Debug)]
pub struct RunSession {
    spec: ScenarioSpec,
    sim: AvmemSim,
    timeline: Timeline,
    end: SimTime,
    report: ScenarioReport,
    ops_since_last: u64,
    attack_since_last: (u64, u64),
    health_index: u64,
    bands: BandIndex,
    /// Working memory of the operations [`RunSession::fire_op`] runs.
    ops_scratch: OpScratch,
    /// The registry [`RunSession::publish`] renders into, with the
    /// per-operation histograms; present after [`RunSession::set_metrics`].
    metrics: Option<(Arc<Registry>, ScenarioInstruments)>,
}

impl RunSession {
    /// Opens the operation window of `spec` over `sim`, warmed up to the
    /// window's start: the timeline, the initiator bands and a fresh
    /// report. Every session opens here, fresh or forked.
    fn open(spec: ScenarioSpec, sim: AvmemSim, timings: RunTimings) -> RunSession {
        let warm_end = SimTime::ZERO + SimDuration::from_mins(spec.warmup_mins);
        let end = warm_end + SimDuration::from_mins(spec.duration_mins);
        let timeline = Timeline::new(&spec, warm_end, end);
        let bands = if matches!(spec.workload.initiators, BandSpec::Any) {
            BandIndex::default()
        } else {
            BandIndex::build(sim.trace())
        };
        let report = ScenarioReport {
            scenario: spec.name.clone(),
            seed: spec.seed,
            hosts: sim.trace().num_nodes(),
            duration_mins: spec.duration_mins,
            anycast: AnycastStats::new(),
            multicast: MulticastStats::new(),
            attack: spec.adversary.map(|_| AttackStats::new()),
            health: Vec::new(),
            skipped_ops: 0,
            admission_drops: 0,
            estimator: EstimatorAccuracy {
                strategy: sim.oracle().strategy_label().to_string(),
                ..EstimatorAccuracy::default()
            },
            timings,
            finalize: avmem::FinalizeStats::default(),
            memory: MemoryStats::default(),
        };
        RunSession {
            spec,
            sim,
            timeline,
            end,
            report,
            ops_since_last: 0,
            attack_since_last: (0, 0),
            health_index: 0,
            bands,
            ops_scratch: OpScratch::default(),
            metrics: None,
        }
    }

    /// A session for `spec` over a copy of this session's warmed-up
    /// simulation: the warm-up is paid once and each workload of a family
    /// runs from the same overlay. Stepped to exhaustion and finished, the
    /// fork's report `==` a fresh [`ScenarioRunner::run`] of `spec`, and
    /// this session runs on as if it had never forked. The fork's
    /// [`RunTimings`] cover only its own window: it built no trace and no
    /// simulation, and its phase totals start at zero.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Invalid`] when `spec` does not validate,
    /// outlasts the trace, warms up differently from this session's spec
    /// (the message names the first field, [`ScenarioSpec::warm_up_differs`]),
    /// or when this session has already stepped an event.
    pub fn fork(&self, spec: ScenarioSpec) -> Result<RunSession, ScenarioError> {
        spec.validate()?;
        spec.check_trace_covers(self.sim.trace())?;
        if let Some(field) = self.spec.warm_up_differs(&spec) {
            return Err(ScenarioError::Invalid(format!(
                "cannot fork {:?} from {:?}: its warm-up differs in `{field}`",
                spec.name, self.spec.name
            )));
        }
        // The timeline's first event is the health sample at the window's
        // start, so an empty health series means nothing was stepped.
        if !self.report.health.is_empty() {
            return Err(ScenarioError::Invalid(format!(
                "cannot fork {:?} from {:?}: that session has already stepped past its warm-up",
                spec.name, self.spec.name
            )));
        }
        Ok(RunSession::open(spec, self.sim.clone(), RunTimings::default()))
    }

    /// Attaches a metrics registry. Harness phase spans, AVMON slot costs
    /// and the per-operation latency, hop and execution-time histograms
    /// land in it live; every count and gauge the report holds is
    /// rendered into it by [`RunSession::publish`], at each health
    /// sample, when the session is sealed and on each serve heartbeat —
    /// so those counters advance at these instants, not per operation.
    /// Observation only: the report is bit-identical with or without
    /// metrics attached.
    pub fn set_metrics(&mut self, registry: &Arc<Registry>) {
        self.sim.set_metrics(registry);
        self.metrics = Some((Arc::clone(registry), ScenarioInstruments::new(registry)));
    }

    /// Renders the report, with the harness's own statistics, into the
    /// attached registry (a no-op without one): operations fired,
    /// delivered, skipped and shed; the last health sample; the
    /// estimator's error; memory; phase busy time and cohorts; pair
    /// hashes; the worker pool. Each family is stored whole, so the
    /// registry holds one copy of each count — the report's.
    pub(crate) fn publish(&self) {
        let Some((registry, _)) = &self.metrics else {
            return;
        };
        let count = |name: &str, help: &str, labels: &[(&str, &str)], value: u64| {
            registry.counter(name, help, labels).store(value);
        };
        let gauge = |name: &str, help: &str, labels: &[(&str, &str)], value: f64| {
            registry.gauge(name, help, labels).set(value);
        };
        let report = &self.report;
        let probes = report.attack.as_ref().map_or(0, |attack| attack.attempts);
        for (kind, fired) in [
            ("anycast", report.anycast.sent),
            ("multicast", report.multicast.sent),
            ("probe", probes),
        ] {
            count("avmem_ops_total", "Operations fired.", &[("kind", kind)], fired);
        }
        for (kind, delivered) in [
            ("anycast", report.anycast.delivered),
            ("multicast", report.multicast.entered),
        ] {
            count(
                "avmem_ops_delivered_total",
                "Anycasts delivered / multicasts that entered their range.",
                &[("kind", kind)],
                delivered,
            );
        }
        count(
            "avmem_ops_skipped_total",
            "Operations skipped: no eligible initiator online.",
            &[],
            report.skipped_ops,
        );
        count(
            "avmem_ops_dropped_total",
            "Operations dropped by serve-mode admission control.",
            &[],
            report.admission_drops,
        );
        if let Some(sample) = report.health.last() {
            gauge(
                "avmem_online",
                "Online population at the last health sample.",
                &[],
                sample.online as f64,
            );
            gauge(
                "avmem_mean_degree",
                "Mean overlay out-degree over online nodes.",
                &[],
                sample.mean_degree,
            );
            gauge(
                "avmem_largest_component",
                "Largest-connected-component fraction of the online overlay.",
                &[],
                sample.largest_component,
            );
            gauge(
                "avmem_estimator_mae",
                "Sampled estimator mean absolute error.",
                &[("strategy", &report.estimator.strategy)],
                report.estimator.mae(),
            );
        }
        let memory = observe_memory();
        gauge(
            "avmem_heap_live_bytes",
            "Live heap bytes (counting allocator; 0 without heap-stats).",
            &[],
            memory.heap_live_bytes.unwrap_or(0) as f64,
        );
        gauge(
            "avmem_heap_peak_bytes",
            "Peak heap bytes since process start (counting allocator).",
            &[],
            memory.heap_peak_bytes.unwrap_or(0) as f64,
        );
        gauge(
            "avmem_rss_peak_bytes",
            "Kernel peak resident set size (VmHWM; 0 off-Linux).",
            &[],
            memory.peak_rss_bytes.unwrap_or(0) as f64,
        );

        self.sim.tracer().publish(registry, "avmem");
        let store = self.sim.hash_store_stats();
        count(
            "avmem_hash_rows_built_total",
            "Pair-hash rows materialized by the shared store.",
            &[],
            store.rows_built,
        );
        count(
            "avmem_hash_direct_total",
            "Pair hashes computed by event-driven finalize, one per batched estimate.",
            &[],
            self.sim.finalize_stats().batched_estimates,
        );
        gauge(
            "avmem_hash_cached_rows",
            "Pair-hash rows currently resident.",
            &[],
            store.cached_rows as f64,
        );
        let pool = avmem_util::parallel::global_pool().pool_stats();
        count(
            "avmem_pool_batches_total",
            "Batches dispatched to the shared worker pool.",
            &[],
            pool.batches,
        );
        count(
            "avmem_pool_jobs_total",
            "Jobs executed by the shared worker pool.",
            &[],
            pool.jobs,
        );
        count(
            "avmem_pool_inline_batches_total",
            "Worker-pool batches degraded to inline execution.",
            &[],
            pool.inline_batches,
        );
    }

    /// Simulated instant of the next pending event, `None` once the
    /// timeline is exhausted.
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.timeline.peek().map(|((at, _), _)| at)
    }

    /// Whether the next pending event is an operation (the only event
    /// class serve-mode admission control may shed — maintenance and
    /// health samples are never dropped).
    pub fn next_is_op(&self) -> bool {
        matches!(self.timeline.peek(), Some((_, Source::Arrival)))
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// End of the operation window.
    pub fn end(&self) -> SimTime {
        self.end
    }

    /// The underlying harness (read-only).
    pub fn sim(&self) -> &AvmemSim {
        &self.sim
    }

    /// The report accumulated so far (final totals come from
    /// [`RunSession::finish`]).
    pub fn report(&self) -> &ScenarioReport {
        &self.report
    }

    /// Executes the next timeline event; returns its simulated instant,
    /// or `None` when the timeline is exhausted.
    pub fn step(&mut self) -> Option<SimTime> {
        let event = self.timeline.next()?;
        match event.what {
            EventKind::Rebuild => {
                // warm_up advances to the boundary and rebuilds there.
                self.sim.warm_up(event.at.saturating_since(self.sim.now()));
            }
            EventKind::Health => {
                self.sim.advance_to(event.at);
                self.sample_estimator();
                let sample = health_sample(
                    &self.sim,
                    event.at,
                    std::mem::take(&mut self.ops_since_last),
                    std::mem::take(&mut self.attack_since_last),
                );
                self.report.health.push(sample);
                self.publish();
            }
            EventKind::Op { index } => {
                self.sim.advance_to(event.at);
                self.ops_since_last += 1;
                let kind = draw_kind(&self.spec, index);
                let t0 = self.metrics.is_some().then(Instant::now);
                self.fire_op(index, kind);
                if let (Some((_, ins)), Some(t0)) = (&self.metrics, t0) {
                    ins.exec_us.record(t0.elapsed().as_micros() as u64);
                }
            }
        }
        Some(event.at)
    }

    /// Sheds the next pending event if it is an operation: the clock
    /// still advances to the arrival instant — maintenance owed by then
    /// runs — but the operation itself is not fired. Returns the arrival
    /// instant; returns `None` and consumes nothing when the next event
    /// is a health sample or a rebuild (never shed) or there is none.
    pub fn drop_next_op(&mut self) -> Option<SimTime> {
        if !self.next_is_op() {
            return None;
        }
        let event = self.timeline.next()?;
        self.sim.advance_to(event.at);
        self.report.admission_drops += 1;
        Some(event.at)
    }

    /// Takes the final health sample at the end of the operation window
    /// and seals the report.
    pub fn finish(self) -> ScenarioReport {
        let end = self.end;
        self.finish_at(end)
    }

    /// Like [`RunSession::finish`] but sealing at `at` (clamped into
    /// `[now, end]`) — used by wall-clock-bounded serve runs that stop
    /// before the spec's operation window closes.
    pub fn finish_at(mut self, at: SimTime) -> ScenarioReport {
        let at = at.min(self.end).max(self.sim.now());
        self.sim.advance_to(at);
        self.sample_estimator();
        let sample = health_sample(&self.sim, at, self.ops_since_last, self.attack_since_last);
        self.report.health.push(sample);
        self.report.timings.phases = self.sim.phase_timings();
        self.report.finalize = self.sim.finalize_stats();
        self.report.memory = observe_memory();
        self.publish();
        self.report
    }

    /// Draws one batch of estimator-accuracy samples from the dedicated
    /// keyed stream; see [`EstimatorAccuracy`].
    fn sample_estimator(&mut self) {
        let mut rng = SplitMix64::keyed(&[self.spec.seed, STREAM_MAE, self.health_index]);
        self.health_index += 1;
        let trace = self.sim.trace();
        let oracle = self.sim.oracle();
        let now = self.sim.now();
        let n = trace.num_nodes();
        let accuracy = &mut self.report.estimator;
        for _ in 0..self.spec.report.estimator_samples {
            let querier = rng.index(n);
            let target = rng.index(n);
            accuracy.drawn += 1;
            if let Some(estimate) =
                oracle.estimate(NodeId::new(querier as u64), NodeId::new(target as u64), now)
            {
                let truth = trace.long_term_availability(target).value();
                accuracy.abs_error_sum += (estimate.value() - truth).abs();
                accuracy.answered += 1;
            }
        }
    }

    /// Picks a uniformly random online node in `band` with the
    /// operation's keyed stream; `None` when no eligible node is online.
    ///
    /// Rejection sampling: up to [`PICK_TRIES`] keyed draws over the
    /// population (or the static band list), accepting the first online
    /// candidate. On exhaustion it falls back to the exact eligible scan,
    /// continuing the same stream — the pick stays a pure function of
    /// `(spec, seed, op index, overlay state)` either way. Who is up comes
    /// from the harness's online index, so `Any`'s fallback draws from
    /// its list as it stands.
    fn pick_initiator(&self, index: u64, band: BandSpec, stream: u64) -> Option<NodeId> {
        let online = self.sim.online();
        let mut rng = SplitMix64::keyed(&[self.spec.seed, stream, index]);
        if band == BandSpec::Any {
            let n = self.sim.trace().num_nodes();
            for _ in 0..PICK_TRIES {
                let i = rng.index(n);
                if online.contains(i) {
                    return Some(NodeId::new(i as u64));
                }
            }
            return pick_from(online.online().iter().copied(), &mut rng);
        }
        let list = self.bands.list(band);
        if list.is_empty() {
            return None;
        }
        for _ in 0..PICK_TRIES {
            let i = list[rng.index(list.len())];
            if online.contains(i as usize) {
                return Some(NodeId::new(u64::from(i)));
            }
        }
        pick_from(list.iter().copied().filter(|&i| online.contains(i as usize)), &mut rng)
    }

    /// Executes one scheduled operation against the live overlay.
    fn fire_op(&mut self, index: u64, kind: OpKind) {
        match kind {
            // Anycast and multicast share the exact same setup — one
            // initiator stream, one op-RNG stream, one latency stream —
            // so A/B spec comparisons stay paired; keep it hoisted.
            OpKind::Anycast { target } | OpKind::Multicast { target } => {
                let Some(initiator) =
                    self.pick_initiator(index, self.spec.workload.initiators, STREAM_INITIATOR)
                else {
                    self.report.skipped_ops += 1;
                    return;
                };
                let spec = &self.spec;
                let mut rng = SplitMix64::keyed(&[spec.seed, STREAM_OP, index]);
                let mut net = Network::new(
                    LatencyModel::PAPER,
                    SplitMix64::keyed(&[spec.seed, STREAM_NET, index]).next_u64(),
                );
                let world = self.sim.world();
                if matches!(kind, OpKind::Anycast { .. }) {
                    let outcome = run_anycast(
                        &world,
                        &mut net,
                        &mut rng,
                        &mut self.ops_scratch,
                        initiator,
                        target,
                        spec.workload.anycast_config(),
                    );
                    let stats = &mut self.report.anycast;
                    stats.sent += 1;
                    stats.total_messages += outcome.messages;
                    stats.total_latency_ms += outcome.latency.as_millis();
                    if let Some(reason) = outcome.drop_reason {
                        stats.drops[reason as usize] += 1;
                    }
                    if outcome.is_delivered() {
                        stats.delivered += 1;
                        stats.delivered_latency_ms += outcome.latency.as_millis();
                        stats.total_hops += u64::from(outcome.hops);
                        stats.hops_histogram[(outcome.hops as usize).min(HOPS_BUCKETS - 1)] +=
                            1;
                        if outcome.delivered_in_range_truth {
                            stats.delivered_in_truth += 1;
                        }
                    }
                    if let Some((_, ins)) = &self.metrics {
                        ins.latency_ms.record(outcome.latency.as_millis());
                        if outcome.is_delivered() {
                            ins.hops.record(u64::from(outcome.hops));
                        }
                    }
                } else {
                    let outcome = run_multicast(
                        &world,
                        &mut net,
                        &mut rng,
                        &mut self.ops_scratch,
                        initiator,
                        target,
                        spec.workload.multicast_config(),
                    );
                    let stats = &mut self.report.multicast;
                    stats.sent += 1;
                    stats.total_messages += outcome.messages + outcome.anycast.messages;
                    if outcome.anycast.is_delivered() {
                        stats.entered += 1;
                    }
                    // One pass classifies each delivery: in the true range
                    // or spam, and its availability decile. The quotients
                    // are `MulticastOutcome::reliability` / `spam_ratio`.
                    let mut in_range = 0usize;
                    for &(node, _) in &outcome.deliveries {
                        let av = world.true_availability(node);
                        in_range += usize::from(target.contains(av));
                        stats.deliveries_by_decile[av.bucket(DECILES)] += 1;
                    }
                    if let Some(worst) = outcome.worst_latency() {
                        stats.worst_latency_sum_ms += worst.as_millis();
                        stats.worst_latency_histogram.record(worst.as_millis() as f64);
                    }
                    if outcome.eligible > 0 {
                        let eligible = outcome.eligible as f64;
                        let reliability = in_range as f64 / eligible;
                        let spam = (outcome.deliveries.len() - in_range) as f64 / eligible;
                        stats.reliability_sum += reliability;
                        stats.reliability_count += 1;
                        stats.reliability_histogram.record(reliability);
                        stats.spam_sum += spam;
                        stats.spam_count += 1;
                        stats.spam_histogram.record(spam);
                    }
                }
            }
            OpKind::FloodProbe => {
                let adv = self
                    .spec
                    .adversary
                    .expect("probes only scheduled with an adversary");
                // The selfish sender is any online node — flooding pays
                // regardless of the attacker's own availability, which is
                // exactly why the acceptance series is bucketed by it.
                let Some(sender) = self.pick_initiator(index, BandSpec::Any, STREAM_PROBE)
                else {
                    self.report.skipped_ops += 1;
                    return;
                };
                let mut rng = SplitMix64::keyed(&[self.spec.seed, STREAM_OP, index]);
                let policy = AdmissionPolicy::with_cushion(adv.cushion);
                let world = self.sim.world();
                let stats = self.report.attack.as_mut().expect("attack stats exist");
                stats.attempts += 1;
                let decile = world.true_availability(sender).bucket(DECILES);
                // Probe up to `adv.probes` distinct online nodes outside
                // the sender's lists (a flood is precisely traffic to
                // NON-neighbors).
                let victims = rng.sample(flood_targets(&world, sender), adv.probes as usize);
                for victim in victims {
                    let accepted = world.admits(sender, victim, policy) == Some(true);
                    stats.probes += 1;
                    stats.by_decile[decile].0 += 1;
                    self.attack_since_last.0 += 1;
                    if accepted {
                        stats.accepted += 1;
                        stats.by_decile[decile].1 += 1;
                        self.attack_since_last.1 += 1;
                    }
                }
            }
        }
    }
}

/// Snapshots process memory for the sealed report: kernel peak RSS when
/// the platform exposes it, counting-allocator figures when the
/// `heap-stats` feature installed the tracker. Environment observations
/// only — [`ScenarioReport`] equality ignores them, like timings.
fn observe_memory() -> MemoryStats {
    let heap = avmem_util::heap::heap_tracking_installed()
        .then(avmem_util::heap::heap_stats);
    MemoryStats {
        peak_rss_bytes: avmem_util::heap::peak_rss_bytes(),
        heap_live_bytes: heap.map(|h| h.live_bytes),
        heap_peak_bytes: heap.map(|h| h.peak_bytes),
        heap_alloc_calls: heap.map(|h| h.alloc_calls),
    }
}

/// The overlay's health at `at`, from [`AvmemSim::health_stats`].
fn health_sample(
    sim: &AvmemSim,
    at: SimTime,
    ops_since_last: u64,
    attack_since_last: (u64, u64),
) -> HealthSample {
    let stats = sim.health_stats();
    HealthSample {
        at_mins: at.as_millis() / 60_000,
        online: stats.online,
        mean_degree: stats.mean_degree,
        largest_component: stats.largest_component,
        ops_since_last,
        attack_since_last,
    }
}

#[cfg(test)]
mod tests;
