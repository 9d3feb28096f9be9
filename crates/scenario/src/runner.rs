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

use std::sync::Arc;
use std::time::Instant;

use avmem::harness::AvmemSim;
use avmem::ops::{run_anycast, run_multicast, OpScratch, OverlayWorld};
use avmem::verify::flood_targets;
use avmem::{AdmissionPolicy, AvailabilityTarget};
use avmem_avmon::AvailabilityOracle;
use avmem_metrics::{Counter, Gauge, Histogram, Registry};
use avmem_sim::{LatencyModel, Network, SimDuration, SimTime};
use avmem_trace::ChurnTrace;
use avmem_util::{NodeId, Rng, SplitMix64};

use crate::report::{
    AnycastStats, AttackStats, EstimatorAccuracy, HealthSample, MemoryStats, MulticastStats,
    RunTimings, ScenarioReport, DECILES, HOPS_BUCKETS,
};
use crate::spec::{BandSpec, MaintenanceModeSpec, ScenarioError, ScenarioSpec};

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

/// What one scheduled arrival does.
#[derive(Debug, Clone, Copy, PartialEq)]
enum OpKind {
    Anycast { target: AvailabilityTarget },
    Multicast { target: AvailabilityTarget },
    FloodProbe,
}

/// One entry of the run timeline.
#[derive(Debug, Clone, Copy)]
struct TimelineEvent {
    at: SimTime,
    /// Tie order at equal instants: rebuilds first, then health samples,
    /// then operations in index order. Carried on the event so tests can
    /// pin the merge order; the execution loop only needs `what`.
    #[cfg_attr(not(test), allow(dead_code))]
    order: (u8, u64),
    what: EventKind,
}

#[derive(Debug, Clone, Copy)]
enum EventKind {
    Rebuild,
    Health,
    Op { index: u64 },
}

/// Merge key of a timeline event: instant plus the tie order.
type EventKey = (SimTime, (u8, u64));

/// Which of the merged timeline sources produced a candidate event.
#[derive(Debug, Clone, Copy)]
enum Source {
    Rebuild,
    Health,
    Arrival,
}

/// Lazy Poisson arrival source: exponential inter-arrival gaps, each
/// drawn from its own keyed stream. Bit-identical to eagerly drawing the
/// whole schedule up front — the accumulated `at_ms` float and the
/// per-index streams do not depend on when the draws happen.
#[derive(Debug, Clone)]
struct ArrivalGen {
    seed: u64,
    mean_gap_ms: f64,
    at_ms: f64,
    end_ms: f64,
    index: u64,
    pending: Option<SimTime>,
}

impl ArrivalGen {
    fn new(seed: u64, ops_per_hour: f64, warm_end: SimTime, end: SimTime) -> ArrivalGen {
        let mut arrivals = ArrivalGen {
            seed,
            mean_gap_ms: 0.0,
            at_ms: warm_end.as_millis() as f64,
            end_ms: end.as_millis() as f64,
            index: 0,
            pending: None,
        };
        if ops_per_hour > 0.0 {
            arrivals.mean_gap_ms = 3_600_000.0 / ops_per_hour;
            arrivals.draw();
        }
        arrivals
    }

    /// Draws the arrival instant for `self.index`.
    fn draw(&mut self) {
        let mut gap_rng = SplitMix64::keyed(&[self.seed, STREAM_ARRIVAL, self.index]);
        // u ∈ [0, 1) keeps ln(1 - u) finite.
        let gap = -(1.0 - gap_rng.next_f64()).ln() * self.mean_gap_ms;
        self.at_ms += gap.max(1.0);
        self.pending =
            (self.at_ms < self.end_ms).then(|| SimTime::from_millis(self.at_ms as u64));
    }

    fn peek(&self) -> Option<SimTime> {
        self.pending
    }

    fn next_index(&self) -> u64 {
        self.index
    }

    /// Consumes the pending arrival, returning its op index.
    fn pop(&mut self) -> u64 {
        debug_assert!(self.pending.is_some(), "pop without a pending arrival");
        let index = self.index;
        self.index += 1;
        self.draw();
        index
    }
}

/// The merged, lazily generated run timeline; see the module docs. Every
/// event key `(at, order)` is distinct across sources (the leading order
/// byte is the source), so the three-way min-merge is a strict total
/// order and yields exactly the sequence the old sort-the-whole-schedule
/// path produced.
#[derive(Debug, Clone)]
struct Timeline {
    end: SimTime,
    health_at: SimTime,
    health_step: SimDuration,
    rebuild_at: Option<SimTime>,
    rebuild_step: SimDuration,
    arrivals: ArrivalGen,
}

impl Timeline {
    fn new(spec: &ScenarioSpec, warm_end: SimTime, end: SimTime) -> Timeline {
        // Converged-mode rebuild boundaries; event-driven mode has none
        // (cohorts run inside `advance_to`).
        let (rebuild_at, rebuild_step) =
            if let MaintenanceModeSpec::Converged { rebuild_every_mins } = spec.maintenance.mode {
                let step = SimDuration::from_mins(rebuild_every_mins);
                let first = warm_end + step;
                ((first < end).then_some(first), step)
            } else {
                (None, SimDuration::from_mins(1))
            };
        Timeline {
            end,
            // Health samples on the interval lattice, excluding the run
            // end (the final sample is taken unconditionally by
            // `RunSession::finish`).
            health_at: warm_end,
            health_step: SimDuration::from_mins(spec.health_every_mins),
            rebuild_at,
            rebuild_step,
            arrivals: ArrivalGen::new(spec.seed, spec.workload.ops_per_hour, warm_end, end),
        }
    }

    /// The next event's key and source, without consuming it.
    fn peek(&self) -> Option<(EventKey, Source)> {
        let rebuild = self.rebuild_at.map(|t| ((t, (0u8, 0u64)), Source::Rebuild));
        let health = (self.health_at < self.end)
            .then_some(((self.health_at, (1u8, 0u64)), Source::Health));
        let arrival = self
            .arrivals
            .peek()
            .map(|t| ((t, (2u8, self.arrivals.next_index())), Source::Arrival));
        [rebuild, health, arrival]
            .into_iter()
            .flatten()
            .min_by_key(|&(key, _)| key)
    }

    fn next(&mut self) -> Option<TimelineEvent> {
        let ((at, order), source) = self.peek()?;
        let what = match source {
            Source::Rebuild => {
                let next = at + self.rebuild_step;
                self.rebuild_at = (next < self.end).then_some(next);
                EventKind::Rebuild
            }
            Source::Health => {
                self.health_at += self.health_step;
                EventKind::Health
            }
            Source::Arrival => EventKind::Op {
                index: self.arrivals.pop(),
            },
        };
        Some(TimelineEvent { at, order, what })
    }
}

/// Static per-band initiator lists (long-term availability is a property
/// of the trace, not of time), built once when the spec restricts
/// initiators to a band. `Any` needs no index — it rejection-samples the
/// whole population.
#[derive(Debug, Default)]
struct BandIndex {
    /// The nodes of `Low`, `Mid` and `High`, each ascending.
    lists: [Vec<u32>; 3],
}

impl BandIndex {
    fn build(trace: &ChurnTrace) -> BandIndex {
        let lists = [BandSpec::Low, BandSpec::Mid, BandSpec::High].map(|band| {
            (0..trace.num_nodes() as u32)
                .filter(|&i| band.contains(trace.long_term_availability(i as usize)))
                .collect()
        });
        BandIndex { lists }
    }

    fn list(&self, band: BandSpec) -> &[u32] {
        match band {
            BandSpec::Any => &[],
            band => &self.lists[band as usize],
        }
    }
}

/// Live-op instrumentation handles; present only after
/// [`RunSession::set_metrics`]. Observation only — none of these affect
/// the report.
#[derive(Debug)]
struct ScenarioInstruments {
    ops_anycast: Counter,
    ops_multicast: Counter,
    ops_probe: Counter,
    delivered_anycast: Counter,
    entered_multicast: Counter,
    skipped: Counter,
    dropped: Counter,
    latency_ms: Histogram,
    hops: Histogram,
    exec_us: Histogram,
    online: Gauge,
    mean_degree: Gauge,
    largest_component: Gauge,
    mae: Gauge,
    heap_live: Gauge,
    heap_peak: Gauge,
    rss_peak: Gauge,
}

impl ScenarioInstruments {
    fn new(registry: &Registry, strategy: &str) -> ScenarioInstruments {
        let ops = |kind| registry.counter("avmem_ops_total", "Operations fired.", &[("kind", kind)]);
        let delivered = |kind| {
            registry.counter(
                "avmem_ops_delivered_total",
                "Anycasts delivered / multicasts that entered their range.",
                &[("kind", kind)],
            )
        };
        ScenarioInstruments {
            ops_anycast: ops("anycast"),
            ops_multicast: ops("multicast"),
            ops_probe: ops("probe"),
            delivered_anycast: delivered("anycast"),
            entered_multicast: delivered("multicast"),
            skipped: registry.counter(
                "avmem_ops_skipped_total",
                "Operations skipped: no eligible initiator online.",
                &[],
            ),
            dropped: registry.counter(
                "avmem_ops_dropped_total",
                "Operations dropped by serve-mode admission control.",
                &[],
            ),
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
            online: registry.gauge(
                "avmem_online",
                "Online population at the last health sample.",
                &[],
            ),
            mean_degree: registry.gauge(
                "avmem_mean_degree",
                "Mean overlay out-degree over online nodes.",
                &[],
            ),
            largest_component: registry.gauge(
                "avmem_largest_component",
                "Largest-connected-component fraction of the online overlay.",
                &[],
            ),
            mae: registry.gauge(
                "avmem_estimator_mae",
                "Sampled estimator mean absolute error.",
                &[("strategy", strategy)],
            ),
            heap_live: registry.gauge(
                "avmem_heap_live_bytes",
                "Live heap bytes (counting allocator; 0 without heap-stats).",
                &[],
            ),
            heap_peak: registry.gauge(
                "avmem_heap_peak_bytes",
                "Peak heap bytes since process start (counting allocator).",
                &[],
            ),
            rss_peak: registry.gauge(
                "avmem_rss_peak_bytes",
                "Kernel peak resident set size (VmHWM; 0 off-Linux).",
                &[],
            ),
        }
    }

    fn observe_health(&self, sample: &HealthSample, mae: f64) {
        self.online.set(sample.online as f64);
        self.mean_degree.set(sample.mean_degree);
        self.largest_component.set(sample.largest_component);
        self.mae.set(mae);
        // Memory refreshes on the health cadence too: cheap (one atomic
        // read per heap gauge, one /proc read) and exactly the rhythm a
        // live dashboard samples at.
        let heap = avmem_util::heap::heap_stats();
        self.heap_live.set(heap.live_bytes as f64);
        self.heap_peak.set(heap.peak_bytes as f64);
        self.rss_peak
            .set(avmem_util::heap::peak_rss_bytes().unwrap_or(0) as f64);
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
        let hosts = trace.num_nodes();
        let mut sim = AvmemSim::new(trace, spec.sim_config());
        let timings = RunTimings {
            trace: traced - started,
            sim_new: traced.elapsed(),
            ..RunTimings::default()
        };

        let warm_end = SimTime::ZERO + SimDuration::from_mins(spec.warmup_mins);
        let end = warm_end + SimDuration::from_mins(spec.duration_mins);
        let timeline = Timeline::new(&spec, warm_end, end);

        // Warm-up: maintenance only. Converged mode rebuilds here (and
        // then on the spec's interval via Rebuild events); event-driven
        // mode runs the protocols from cold.
        sim.warm_up(warm_end.saturating_since(SimTime::ZERO));

        let bands = if matches!(spec.workload.initiators, BandSpec::Any) {
            BandIndex::default()
        } else {
            BandIndex::build(sim.trace())
        };
        let report = ScenarioReport {
            scenario: spec.name.clone(),
            seed: spec.seed,
            hosts,
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
        Ok(RunSession {
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
            instruments: None,
        })
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
    instruments: Option<ScenarioInstruments>,
}

impl RunSession {
    /// Attaches a metrics registry: harness phase spans, AVMON slot
    /// costs, and per-operation counters/latency histograms all land in
    /// `registry` from here on. Observation only — the report is
    /// bit-identical with or without metrics attached.
    pub fn set_metrics(&mut self, registry: &Arc<Registry>) {
        self.sim.set_metrics(registry);
        self.instruments = Some(ScenarioInstruments::new(
            registry,
            self.sim.oracle().strategy_label(),
        ));
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

    /// The underlying harness (read-only; serve heartbeats export its
    /// phase spans and pair-hash counts).
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
                if let Some(ins) = &self.instruments {
                    ins.observe_health(&sample, self.report.estimator.mae());
                }
                self.report.health.push(sample);
            }
            EventKind::Op { index } => {
                self.sim.advance_to(event.at);
                self.ops_since_last += 1;
                let kind = draw_kind(&self.spec, index);
                let t0 = self.instruments.is_some().then(Instant::now);
                self.fire_op(index, kind);
                if let (Some(ins), Some(t0)) = (&self.instruments, t0) {
                    ins.exec_us.record(t0.elapsed().as_micros() as u64);
                }
            }
        }
        Some(event.at)
    }

    /// Sheds the next pending event, which must be an operation (checked
    /// by the caller via [`RunSession::next_is_op`]): the clock still
    /// advances to the arrival instant — maintenance owed by then runs —
    /// but the operation itself is not fired. Returns the arrival
    /// instant.
    pub fn drop_next_op(&mut self) -> Option<SimTime> {
        debug_assert!(self.next_is_op(), "only operations may be dropped");
        let event = self.timeline.next()?;
        self.sim.advance_to(event.at);
        self.report.admission_drops += 1;
        if let Some(ins) = &self.instruments {
            ins.dropped.inc();
        }
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
        if let Some(ins) = &self.instruments {
            ins.observe_health(&sample, self.report.estimator.mae());
        }
        self.report.health.push(sample);
        self.report.timings.phases = self.sim.phase_timings();
        self.report.finalize = self.sim.finalize_stats();
        self.report.memory = observe_memory();
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
                    if let Some(ins) = &self.instruments {
                        ins.skipped.inc();
                    }
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
                    if let Some(ins) = &self.instruments {
                        ins.ops_anycast.inc();
                        ins.latency_ms.record(outcome.latency.as_millis());
                        if outcome.is_delivered() {
                            ins.delivered_anycast.inc();
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
                        let decile = ((av.value() * DECILES as f64) as usize).min(DECILES - 1);
                        stats.deliveries_by_decile[decile] += 1;
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
                    if let Some(ins) = &self.instruments {
                        ins.ops_multicast.inc();
                        if outcome.anycast.is_delivered() {
                            ins.entered_multicast.inc();
                        }
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
                    if let Some(ins) = &self.instruments {
                        ins.skipped.inc();
                    }
                    return;
                };
                if let Some(ins) = &self.instruments {
                    ins.ops_probe.inc();
                }
                let mut rng = SplitMix64::keyed(&[self.spec.seed, STREAM_OP, index]);
                let policy = AdmissionPolicy::with_cushion(adv.cushion);
                let world = self.sim.world();
                let stats = self.report.attack.as_mut().expect("attack stats exist");
                stats.attempts += 1;
                let decile = {
                    let av = world.true_availability(sender).value();
                    ((av * DECILES as f64) as usize).min(DECILES - 1)
                };
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

/// Draws one arrival's kind and target from its keyed mix stream.
fn draw_kind(spec: &ScenarioSpec, index: u64) -> OpKind {
    let mut rng = SplitMix64::keyed(&[spec.seed, STREAM_MIX, index]);
    if let Some(adv) = &spec.adversary {
        if rng.chance(adv.flooder_fraction) {
            return OpKind::FloodProbe;
        }
    } else {
        // Keep stream alignment identical with and without an
        // adversary section so A/B spec comparisons share arrivals.
        let _ = rng.next_f64();
    }
    let anycast = rng.chance(spec.workload.anycast_fraction);
    let target = draw_target(spec, &mut rng);
    if anycast {
        OpKind::Anycast { target }
    } else {
        OpKind::Multicast { target }
    }
}

/// Weighted pick from the target mix.
fn draw_target<R: Rng>(spec: &ScenarioSpec, rng: &mut R) -> AvailabilityTarget {
    let targets = &spec.workload.targets;
    let total: f64 = targets.iter().map(|t| t.weight).sum();
    let mut roll = rng.next_f64() * total;
    for mix in targets {
        roll -= mix.weight;
        if roll <= 0.0 {
            return mix.target;
        }
    }
    targets.last().expect("validated non-empty").target
}

/// Uniform keyed draw from the eligible nodes, counted then selected
/// (the rejection-sampling fallback); `None` when nothing is eligible.
fn pick_from<R: Rng>(
    mut eligible: impl Iterator<Item = u32> + Clone,
    rng: &mut R,
) -> Option<NodeId> {
    let count = eligible.clone().count();
    let pick = (count > 0).then(|| rng.index(count))?;
    eligible.nth(pick).map(|i| NodeId::new(u64::from(i)))
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
mod tests {
    use super::*;
    use crate::builtin;
    use crate::spec::{AdversarySpec, ChurnSpec, MaintenanceModeSpec, TargetMix};
    use avmem::harness::{MaintenanceEngine, PredicateChoice};
    use avmem::ops::ForwardPolicy;

    fn tiny_spec() -> ScenarioSpec {
        let mut spec = builtin::builtin("smoke").expect("smoke builtin");
        spec.churn = ChurnSpec::Overnet { hosts: 80, days: 1 };
        spec.warmup_mins = 60;
        spec.duration_mins = 60;
        spec.workload.ops_per_hour = 40.0;
        spec
    }

    #[test]
    fn run_produces_traffic_and_health() {
        let report = ScenarioRunner::new(tiny_spec()).unwrap().run().unwrap();
        assert!(report.anycast.sent + report.multicast.sent + report.skipped_ops > 0);
        // One sample per health interval plus the final one.
        assert!(report.health.len() >= 2, "health series too short");
        assert!(report.health.windows(2).all(|w| w[0].at_mins < w[1].at_mins));
        // Estimator accuracy sampled at every health boundary, at the
        // default `[report] estimator_samples` budget.
        assert_eq!(
            report.estimator.drawn,
            report.health.len() as u64
                * crate::spec::ReportSpec::default().estimator_samples
        );
        assert_eq!(report.estimator.strategy, "exact");
        // The exact oracle answers everything with zero error.
        assert_eq!(report.estimator.answered, report.estimator.drawn);
        assert_eq!(report.estimator.mae(), 0.0);
        assert_eq!(report.admission_drops, 0);
    }

    #[test]
    fn same_spec_same_report() {
        let runner = ScenarioRunner::new(tiny_spec()).unwrap();
        assert_eq!(runner.run().unwrap(), runner.run().unwrap());
    }

    #[test]
    fn estimator_sampling_budget_is_a_spec_knob() {
        let base = ScenarioRunner::new(tiny_spec()).unwrap().run().unwrap();
        let mut spec = tiny_spec();
        spec.report.estimator_samples = 32;
        let trimmed = ScenarioRunner::new(spec).unwrap().run().unwrap();
        assert_eq!(trimmed.estimator.drawn, trimmed.health.len() as u64 * 32);
        // The budget shapes what the report measures, never the run.
        assert_eq!(base.health, trimmed.health);
        assert_eq!(base.anycast, trimmed.anycast);
        assert_eq!(base.multicast, trimmed.multicast);
    }

    #[test]
    fn sealed_reports_carry_memory_observations() {
        let report = ScenarioRunner::new(tiny_spec()).unwrap().run().unwrap();
        if cfg!(target_os = "linux") {
            assert!(report.memory.peak_rss_bytes.unwrap_or(0) > 0);
        }
        if avmem_util::heap::heap_tracking_installed() {
            assert!(report.memory.heap_peak_bytes.unwrap_or(0) > 0);
            assert!(report.memory.heap_alloc_calls.unwrap_or(0) > 0);
        }
    }

    #[test]
    fn stepped_session_with_metrics_matches_run() {
        let runner = ScenarioRunner::new(tiny_spec()).unwrap();
        let baseline = runner.run().unwrap();
        let registry = Arc::new(Registry::new());
        let mut session = runner.session().unwrap();
        session.set_metrics(&registry);
        while session.step().is_some() {}
        let instrumented = session.finish();
        assert_eq!(baseline, instrumented, "metrics must only observe");
        // And the registry actually saw the traffic.
        let fired = baseline.anycast.sent + baseline.multicast.sent;
        let text = registry.render_text();
        assert!(
            text.contains("avmem_ops_total{kind=\"anycast\"}"),
            "missing op counters: {text}"
        );
        assert!(fired > 0);
    }

    #[test]
    fn event_driven_interleaves_ops_with_maintenance() {
        let mut spec = tiny_spec();
        spec.maintenance.mode = MaintenanceModeSpec::EventDriven {
            protocol_secs: 60,
            refresh_mins: 20,
        };
        spec.warmup_mins = 120;
        let report = ScenarioRunner::new(spec).unwrap().run().unwrap();
        let fired = report.anycast.sent + report.multicast.sent;
        assert!(fired > 0, "no operations fired over the live overlay");
        // Live discovery must have built an overlay the ops could use.
        assert!(
            report.health.last().unwrap().mean_degree > 0.5,
            "event-driven maintenance built no overlay"
        );
        // And the run carries per-phase maintenance timings.
        let phases = report.timings.phases;
        assert!(phases.cohorts > 0, "no cohorts timed");
        let busy = phases.propose + phases.commit + phases.finalize;
        assert!(busy > std::time::Duration::ZERO, "phase clocks never ticked");
    }

    #[test]
    fn adversary_probes_are_counted() {
        let mut spec = tiny_spec();
        spec.adversary = Some(AdversarySpec {
            flooder_fraction: 0.5,
            cushion: 0.1,
            probes: 10,
        });
        let report = ScenarioRunner::new(spec).unwrap().run().unwrap();
        let attack = report.attack.expect("adversary configured");
        assert!(attack.attempts > 0, "no flood attempts fired");
        assert!(attack.probes > 0);
        assert!(attack.accepted <= attack.probes);
        let series: (u64, u64) = report
            .health
            .iter()
            .fold((0, 0), |acc, h| {
                (acc.0 + h.attack_since_last.0, acc.1 + h.attack_since_last.1)
            });
        assert_eq!(series.0, attack.probes, "series must partition the probes");
        assert_eq!(series.1, attack.accepted);
    }

    #[test]
    fn drop_counts_and_multicast_histograms_agree_with_the_totals() {
        for policy in [ForwardPolicy::Greedy, ForwardPolicy::RetriedGreedy { retries: 2 }] {
            let mut spec = tiny_spec();
            let workload = &mut spec.workload;
            (workload.ops_per_hour, workload.anycast_fraction, workload.policy) = (240.0, 0.5, policy);
            // A harsh target too, so that anycasts fail.
            let target = AvailabilityTarget::Range { lo: 0.15, hi: 0.25 };
            workload.targets.push(TargetMix { weight: 1.0, target });
            let report = ScenarioRunner::new(spec).unwrap().run().unwrap();
            let a = &report.anycast;
            assert!(a.sent > a.delivered && a.delivered > 0, "{policy:?}: {a:?}");
            assert_eq!(a.drops.iter().sum::<u64>(), a.sent - a.delivered, "{policy:?}");
            assert!(a.delivered_latency_ms <= a.total_latency_ms);

            let m = &report.multicast;
            assert!(m.reliability_count > 0 && m.spam_count > 0, "{policy:?}: {m:?}");
            let latencies = m.worst_latency_histogram.count();
            assert!(latencies > 0 && latencies <= m.sent, "{policy:?}");
            let latency = m.worst_latency_sum_ms as f64 / latencies as f64;
            for (buckets, count, mean) in [
                (&m.reliability_histogram, m.reliability_count, m.mean_reliability()),
                (&m.spam_histogram, m.spam_count, m.mean_spam()),
                (&m.worst_latency_histogram, latencies, latency),
            ] {
                assert_eq!(buckets.count(), count, "{policy:?}");
                // The mean of the buckets' lower edges: within a width.
                let edges = buckets.counts.iter().enumerate().map(|(i, &n)| (i as u64 * n) as f64);
                let lower = edges.sum::<f64>() * buckets.width / count as f64;
                let within = (mean - lower).abs() <= buckets.width + 1e-9;
                assert!(within, "{policy:?}: bucket mean {lower} vs mean {mean}");
            }
        }
    }

    #[test]
    fn zero_rate_workload_fires_nothing() {
        let mut spec = tiny_spec();
        spec.workload.ops_per_hour = 0.0;
        let report = ScenarioRunner::new(spec).unwrap().run().unwrap();
        assert_eq!(report.anycast.sent, 0);
        assert_eq!(report.multicast.sent, 0);
        assert_eq!(report.skipped_ops, 0);
    }

    #[test]
    fn a_one_host_random_baseline_runs_to_a_report() {
        // `check` accepts it, and `run` used to panic building the
        // baseline with the population size as its `N*` ("n_star must
        // exceed one"); `p = min(degree / N, 1)` needs no such bound.
        for mode in [
            MaintenanceModeSpec::Converged {
                rebuild_every_mins: 30,
            },
            MaintenanceModeSpec::EventDriven {
                protocol_secs: 60,
                refresh_mins: 20,
            },
        ] {
            let mut spec = tiny_spec();
            spec.churn = ChurnSpec::Overnet { hosts: 1, days: 1 };
            spec.predicate = PredicateChoice::Random { expected_degree: 10.0 };
            spec.maintenance.mode = mode;
            spec.validate().expect("a valid spec");
            let report = ScenarioRunner::new(spec).unwrap().run().unwrap();
            assert!(!report.health.is_empty());
            assert!(report.health.iter().all(|h| h.mean_degree == 0.0));
        }
    }

    #[test]
    fn banded_initiators_come_from_the_band() {
        // Every `Low` / `Mid` / `High` pick is an online node of its band,
        // whether a rejection try found it or — where the band's online
        // share is a few percent, so that all the tries miss — the exact
        // scan did; and an op index picks the same node on either engine.
        let mut spec = tiny_spec();
        spec.workload.initiators = BandSpec::High;
        spec.maintenance.mode = MaintenanceModeSpec::EventDriven {
            protocol_secs: 60,
            refresh_mins: 20,
        };
        let sharded = MaintenanceEngine::Sharded { shards: Some(4), threads: Some(2) };
        let mut sessions = [MaintenanceEngine::Serial, sharded].map(|engine| {
            let mut spec = spec.clone();
            spec.maintenance.engine = engine;
            ScenarioRunner::new(spec).unwrap().session().unwrap()
        });
        let (mut picks, mut scanned) = (0, 0);
        for slot in 3..36 {
            let at = SimTime::ZERO + SimDuration::from_mins(20 * slot + 7);
            for session in &mut sessions {
                session.sim.advance_to(at);
            }
            let [serial, sharded] = &sessions;
            let online = serial.sim.online();
            for band in [BandSpec::Low, BandSpec::Mid, BandSpec::High] {
                let list = serial.bands.list(band);
                for index in 0..64 {
                    let pick = serial.pick_initiator(index, band, STREAM_INITIATOR);
                    let again = sharded.pick_initiator(index, band, STREAM_INITIATOR);
                    assert_eq!(pick, again, "{band:?} op {index} at {at:?}");
                    let Some(node) = pick else {
                        assert!(list.iter().all(|&i| !online.contains(i as usize)), "{band:?}");
                        continue;
                    };
                    let i = node.raw() as usize;
                    assert!(online.contains(i), "{band:?} op {index}: {node} is down");
                    let av = serial.sim.trace().long_term_availability(i);
                    assert!(band.contains(av), "{band:?} op {index}: {node} has {av}");
                    // Replay the tries on the op's stream: did all miss?
                    let mut rng = SplitMix64::keyed(&[spec.seed, STREAM_INITIATOR, index]);
                    let mut tries = (0..PICK_TRIES).map(|_| list[rng.index(list.len())]);
                    picks += 1;
                    scanned += u32::from(tries.all(|i| !online.contains(i as usize)));
                }
            }
        }
        assert!(picks > 0);
        assert!(scanned > 0, "every pick came from a rejection try");
    }

    #[test]
    fn ops_land_inside_the_operation_window() {
        let spec = tiny_spec();
        let warm_end = SimTime::ZERO + SimDuration::from_mins(spec.warmup_mins);
        let end = warm_end + SimDuration::from_mins(spec.duration_mins);
        let mut timeline = Timeline::new(&spec, warm_end, end);
        let mut events = Vec::new();
        while let Some(event) = timeline.next() {
            events.push(event);
        }
        assert!(!events.is_empty());
        for event in &events {
            assert!(event.at >= warm_end && event.at < end);
        }
        // The lazy merge yields a strictly increasing (time, order) key.
        assert!(events
            .windows(2)
            .all(|w| (w[0].at, w[0].order) < (w[1].at, w[1].order)));
    }

    #[test]
    fn dropping_ops_counts_and_never_fires_them() {
        let runner = ScenarioRunner::new(tiny_spec()).unwrap();
        let mut session = runner.session().unwrap();
        let mut dropped = 0u64;
        loop {
            if session.next_is_op() {
                if session.drop_next_op().is_none() {
                    break;
                }
                dropped += 1;
            } else if session.step().is_none() {
                break;
            }
        }
        let report = session.finish();
        assert!(dropped > 0);
        assert_eq!(report.admission_drops, dropped);
        assert_eq!(report.anycast.sent, 0, "dropped ops must not fire");
        assert_eq!(report.multicast.sent, 0);
        assert_eq!(report.skipped_ops, 0);
        // Health samples still happen — they are never droppable.
        assert!(report.health.len() >= 2);
    }
}
