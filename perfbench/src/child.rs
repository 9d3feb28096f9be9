//! What runs inside a child process.
//!
//! Every sample is a fresh process (the parent re-executes this binary),
//! so allocator state, the worker pool and the kernel's peak-RSS mark
//! start clean. A child does one thing, prints one JSON line, and exits.
//!
//! Everything here calls the program through its public functions only;
//! counters the program exports are read from
//! `ScenarioReport::render_json()` by key and count as 0 when absent.

use std::sync::Arc;
use std::time::Instant;

use avmem::harness::{AvmemSim, OracleChoice};
use avmem_avmon::AvmonService;
use avmem_metrics::Registry;
use avmem_scenario::{ScenarioRunner, ScenarioSpec};
use avmem_sim::SimTime;

use crate::json::Json;
use crate::probes;
use crate::spans::Recorder;
use crate::stats;
use crate::workloads::Workload;

/// The kinds of child.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `build_trace()` + `AvmemSim::new()`, nothing else, repeated.
    Setup,
    /// The whole run, untraced: what the end-to-end metrics time.
    Full,
    /// The whole run with a metrics registry attached.
    Metrics,
    /// The whole run with spans around every call into a layer.
    Traced,
    /// Isolated calls into single layers, sized by the host count.
    Probes,
}

impl Mode {
    pub const ALL: [Mode; 5] = [
        Mode::Setup,
        Mode::Full,
        Mode::Metrics,
        Mode::Traced,
        Mode::Probes,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Setup => "setup",
            Mode::Full => "full",
            Mode::Metrics => "metrics",
            Mode::Traced => "traced",
            Mode::Probes => "probes",
        }
    }

    pub fn parse(text: &str) -> Option<Mode> {
        Mode::ALL.into_iter().find(|m| m.as_str() == text)
    }
}

/// Runs one child and returns the line it prints.
pub fn run(mode: Mode, workload: &Workload, seed: u64) -> Result<Json, String> {
    let spec = workload.spec(Some(seed));
    let mut out = match mode {
        Mode::Setup => setup(&spec)?,
        Mode::Full => full(spec, false)?,
        Mode::Metrics => full(spec, true)?,
        Mode::Traced => traced(spec)?,
        Mode::Probes => probes::run(&spec)?,
    };
    if let Json::Obj(pairs) = &mut out {
        pairs.push(("cpu_s".into(), Json::Num(cpu_seconds())));
        let rss = avmem_util::heap::peak_rss_bytes().unwrap_or(0);
        pairs.push(("peak_rss_mib".into(), Json::Num(mib(rss as f64))));
    }
    Ok(out)
}

fn mib(bytes: f64) -> f64 {
    bytes / (1024.0 * 1024.0)
}

/// User + system CPU time of this process, all threads. Every thread
/// the program starts lives until exit (the worker pool), so the sum
/// over live tasks is the process total; `schedstat` counts in
/// nanoseconds where `/proc/self/stat` counts in 10 ms ticks.
fn cpu_seconds() -> f64 {
    let from_schedstat = || -> Option<f64> {
        let mut ns = 0u64;
        for task in std::fs::read_dir("/proc/self/task").ok()? {
            let text = std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok()?;
            ns += text.split_whitespace().next()?.parse::<u64>().ok()?;
        }
        (ns > 0).then_some(ns as f64 / 1e9)
    };
    let from_stat = || -> Option<f64> {
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        // Fields after the parenthesised command name start at field 3;
        // utime and stime are fields 14 and 15, in USER_HZ = 100 ticks.
        let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
        let ticks = fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
        Some(ticks as f64 / 100.0)
    };
    from_schedstat().or_else(from_stat).unwrap_or(0.0)
}

/// Set-up, several times over: the median of as many repetitions as fit
/// a quarter of a second (64 at most, one at least), each timed from
/// before `build_trace()` to after `AvmemSim::new()` returns. The small
/// workloads set up in milliseconds, where one repetition would time
/// the allocator's first touch of its pages more than the program.
fn setup(spec: &ScenarioSpec) -> Result<Json, String> {
    let begin = Instant::now();
    let mut times = Vec::new();
    while times.is_empty() || (times.len() < 64 && begin.elapsed().as_secs_f64() < 0.25) {
        let start = Instant::now();
        let trace = spec.build_trace().map_err(|e| e.to_string())?;
        let sim = AvmemSim::new(trace, spec.sim_config());
        times.push(start.elapsed().as_secs_f64());
        drop(std::hint::black_box(sim));
    }
    Ok(Json::obj([
        ("setup_s", Json::Num(stats::median(&times))),
        ("repetitions", Json::Num(times.len() as f64)),
    ]))
}

/// How many equal spans of simulated time the measured window is cut
/// into. Each span is a piece of its own, so that a disturbance of the
/// machine spoils one piece of a sample and not the whole of it.
pub const WINDOW_PIECES: usize = 8;

/// The pieces of a full-run child: `session()` (set-up and warm-up),
/// the measured window in `WINDOW_PIECES` spans, `finish()`, rendering
/// the report — these the child clocks, in this order — and last what
/// lies outside them, the process starting up and exiting, which the
/// parent derives from its own clock.
pub const PIECES: usize = WINDOW_PIECES + 4;

/// Which of the `PIECES` lie between `session()` returning and
/// `finish()` returning: the interval `sim_s_per_wall_s` is about.
pub const MEASURED_PIECES: std::ops::Range<usize> = 1..WINDOW_PIECES + 2;

/// Clocks the consecutive pieces of a run: wall and CPU seconds of each.
struct PieceClock {
    last: (Instant, f64),
    wall_s: Vec<f64>,
    cpu_s: Vec<f64>,
}

impl PieceClock {
    fn start() -> PieceClock {
        PieceClock {
            last: (Instant::now(), cpu_seconds()),
            wall_s: Vec::with_capacity(PIECES),
            cpu_s: Vec::with_capacity(PIECES),
        }
    }

    /// Ends the current piece and starts the next.
    fn cut(&mut self) {
        let now = (Instant::now(), cpu_seconds());
        self.wall_s.push((now.0 - self.last.0).as_secs_f64());
        self.cpu_s.push(now.1 - self.last.1);
        self.last = now;
    }
}

/// Which of the `WINDOW_PIECES` spans of the measured window an event
/// at `at` falls into, counted from 0.
fn window_span(at: SimTime, window_start_ms: u64, window_ms: u64) -> usize {
    let into_ms = at.as_millis().saturating_sub(window_start_ms);
    let span = into_ms * WINDOW_PIECES as u64 / window_ms.max(1);
    (span as usize).min(WINDOW_PIECES - 1)
}

/// The whole run as `ScenarioRunner::run` does it, clocked in
/// consecutive pieces. The window is cut by the simulated time of the
/// next event, so a seed's pieces hold the same work in every run.
fn full(spec: ScenarioSpec, with_metrics: bool) -> Result<Json, String> {
    let window_start_ms = spec.warmup_mins * 60_000;
    let window_ms = spec.duration_mins * 60_000;
    let runner = ScenarioRunner::new(spec).map_err(|e| e.to_string())?;
    let registry = with_metrics.then(|| Arc::new(Registry::new()));

    let mut clock = PieceClock::start();
    let mut session = runner.session().map_err(|e| e.to_string())?;
    if let Some(registry) = &registry {
        session.set_metrics(registry);
    }
    clock.cut();
    let mut span = 0;
    while let Some(next_event) = session.next_event_at() {
        while span < window_span(next_event, window_start_ms, window_ms) {
            clock.cut();
            span += 1;
        }
        session.step();
    }
    // The span the last event fell into, and any the timeline left empty.
    for _ in span..WINDOW_PIECES {
        clock.cut();
    }
    let report = session.finish();
    clock.cut();
    let report_json = report.render_json();
    clock.cut();

    let measure_s: f64 = clock.wall_s[MEASURED_PIECES].iter().sum();
    Ok(Json::obj([
        (
            "session_to_finish_s",
            Json::Num(clock.wall_s[0] + measure_s),
        ),
        ("measure_s", Json::Num(measure_s)),
        ("piece_wall_s", Json::nums(&clock.wall_s)),
        ("piece_cpu_s", Json::nums(&clock.cpu_s)),
        ("report", parse_report(&report_json)?),
    ]))
}

fn parse_report(report_json: &str) -> Result<Json, String> {
    Json::parse(report_json).map_err(|e| format!("report does not parse: {e}"))
}

/// Median duration of `reps` calls of `f`, in microseconds.
fn median_us<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&times)
}

/// What one `RunSession::step` call is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepClass {
    /// Maintenance is due at or before the event, so the step runs
    /// cohorts first (and then the event itself).
    Maint,
    /// An operation with no maintenance due: pure operation execution.
    Op,
    /// A health sample or a converged rebuild with no maintenance due.
    Health,
}

impl StepClass {
    pub fn span_name(self) -> &'static str {
        match self {
            StepClass::Maint => "step.maint",
            StepClass::Op => "step.op",
            StepClass::Health => "step.health",
        }
    }
}

/// Classifies the step about to run from what the session shows before
/// it: when maintenance is next due, when the next event fires, and
/// whether that event is an operation.
pub fn classify_step(
    next_maintenance: Option<SimTime>,
    next_event: SimTime,
    next_is_op: bool,
) -> StepClass {
    if next_maintenance.is_some_and(|due| due <= next_event) {
        StepClass::Maint
    } else if next_is_op {
        StepClass::Op
    } else {
        StepClass::Health
    }
}

/// The traced run: `run ⊃ {standalone ⊃ {trace.build, avmon.build,
/// avmon.step, sim_new}, session, measure ⊃ {step…}, finish, report}`.
///
/// `ScenarioRunner::session()` bundles set-up and warm-up, so set-up's
/// two calls are first timed standalone (results dropped) and warm-up is
/// the session span minus those two.
fn traced(spec: ScenarioSpec) -> Result<Json, String> {
    let duration_s = spec.duration_mins as f64 * 60.0;
    let seed = spec.seed;
    let runner = ScenarioRunner::new(spec.clone()).map_err(|e| e.to_string())?;
    let mut layers: Vec<(String, Json)> = Vec::new();
    let mut put = |name: &str, value: f64| layers.push((name.to_string(), Json::Num(value)));

    let mut rec = Recorder::new();
    rec.enter("run");

    rec.enter("standalone");
    let (trace, trace_build_s) = rec.time("trace.build", || spec.build_trace());
    let trace = trace.map_err(|e| e.to_string())?;
    put("trace.build_s", trace_build_s);
    let host_slots = (trace.num_nodes() * trace.num_slots()) as f64;
    put(
        "trace.host_slots_per_s",
        host_slots / trace_build_s.max(1e-9),
    );
    let config = spec.sim_config();
    if let OracleChoice::Avmon { config: avmon } = config.oracle {
        let (mut service, build_s) =
            rec.time("avmon.build", || AvmonService::new(&trace, avmon, seed));
        put("avmon.build_s", build_s);
        // Three slots of the ping + aggregation sweep from cold.
        let slots = 3.min(trace.num_slots() as u64);
        let until = SimTime::ZERO + trace.slot_duration().mul(slots);
        let ((), step_s) = rec.time("avmon.step", || service.step_to(&trace, until));
        put("avmon.step_slot_ms", step_s * 1e3 / slots.max(1) as f64);
    }
    let (sim, sim_new_s) = rec.time("core.harness.sim_new", || AvmemSim::new(trace, config));
    put("core.harness.sim_new_s", sim_new_s);
    drop(sim);
    rec.exit();

    let session_start = Instant::now();
    let (session, session_s) = rec.time("session", || runner.session());
    let mut session = session.map_err(|e| e.to_string())?;
    let warmup_s = (session_s - trace_build_s - sim_new_s).max(0.0);
    put("scenario.warmup_s", warmup_s);

    rec.enter("measure");
    let stepping = Instant::now();
    while let Some(next_event) = session.next_event_at() {
        let class = classify_step(
            session.sim().next_maintenance_at(),
            next_event,
            session.next_is_op(),
        );
        let start = Instant::now();
        session.step();
        rec.record(class.span_name(), start, Instant::now());
    }
    rec.exit();
    let (report, finish_s) = rec.time("finish", || session.finish());
    let end = Instant::now();
    put("scenario.finish_s", finish_s);

    rec.enter("report");
    let report_json = report.render_json();
    put(
        "scenario.render_json_us",
        median_us(9, || report.render_json().len()),
    );
    put(
        "scenario.render_text_us",
        median_us(9, || report.render_text().len()),
    );
    rec.exit();
    let run_s = rec.exit();

    let report = parse_report(&report_json)?;
    let maint = rec.durations_s(StepClass::Maint.span_name());
    let op = rec.durations_s(StepClass::Op.span_name());
    let health = rec.durations_s(StepClass::Health.span_name());
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let ms: Vec<f64> = maint.iter().map(|s| s * 1e3).collect();
    put("scenario.step_maint_s", sum(&maint));
    put("scenario.step_maint_count", maint.len() as f64);
    put("scenario.step_maint_p50_ms", stats::percentile(&ms, 50.0));
    put(
        "scenario.step_maint_max_ms",
        if ms.is_empty() { 0.0 } else { stats::max(&ms) },
    );
    let us: Vec<f64> = op.iter().map(|s| s * 1e6).collect();
    put("scenario.step_op_s", sum(&op));
    put("scenario.step_op_count", op.len() as f64);
    put("scenario.op_exec_p50_us", stats::percentile(&us, 50.0));
    put("scenario.op_exec_p99_us", stats::percentile(&us, 99.0));
    put("scenario.step_health_s", sum(&health));
    put("scenario.step_health_count", health.len() as f64);

    // Operations whose step also ran maintenance are not timed apart, so
    // the pure-operation steps stand for all of them: their time is set
    // against their share of the multicast messages sent.
    let ops_fired = report.num_at(&["anycast", "sent"]) + report.num_at(&["multicast", "sent"]);
    let multicast_msgs = report.num_at(&["multicast", "total_messages"]);
    let pure_msgs = multicast_msgs * ratio(op.len() as f64, ops_fired);
    put(
        "core.ops.multicast_ns_per_msg",
        ratio(sum(&op) * 1e9, pure_msgs),
    );
    put(
        "core.ops.anycast_msgs_per_op",
        ratio(
            report.num_at(&["anycast", "total_messages"]),
            report.num_at(&["anycast", "sent"]),
        ),
    );

    let phase = |key: &str| report.num_at(&["timings", key]);
    let (oracle, propose) = (phase("oracle_secs"), phase("propose_secs"));
    let (commit, finalize) = (phase("commit_secs"), phase("finalize_secs"));
    let phases = oracle + propose + commit + finalize;
    put("core.harness.oracle_s", oracle);
    put("core.harness.propose_s", propose);
    put("core.harness.commit_s", commit);
    put("core.harness.finalize_s", finalize);
    put("core.harness.cohorts", phase("cohorts"));
    put("core.harness.commit_share", ratio(commit, phases));
    // Every cohort runs in warm-up, in a maint step, or in `finish()`
    // (which advances to the window's end); what those spans hold beyond
    // the four phases is the glue between cohorts — event engine,
    // scheduling, barriers — plus the events of the maint steps.
    put(
        "sim.engine_glue_s",
        (warmup_s + sum(&maint) + finish_s - phases).max(0.0),
    );

    let fin = |key: &str| report.num_at(&["finalize", key]);
    let memo_lookups = fin("memo_hits") + fin("memo_misses") + fin("memo_bypassed");
    put(
        "core.finalize.memo_hit_ratio",
        ratio(fin("memo_hits"), memo_lookups),
    );
    let refreshes = fin("refresh_skipped") + fin("refresh_evaluated");
    put(
        "core.finalize.refresh_skip_ratio",
        ratio(fin("refresh_skipped"), refreshes),
    );
    put("core.finalize.discover_pruned", fin("discover_pruned"));
    put("core.finalize.batched_estimates", fin("batched_estimates"));
    let pair = |key: &str| report.num_at(&["finalize", "pair_hash", key]);
    put(
        "core.hashes.cache_hit_ratio",
        ratio(pair("hits"), pair("hits") + pair("misses")),
    );
    put("core.hashes.delegated", pair("delegated"));

    let spans: Vec<Json> = rec
        .totals()
        .into_iter()
        .map(|t| {
            Json::obj([
                ("name", Json::str(t.name)),
                ("count", Json::Num(t.count as f64)),
                ("total_s", Json::Num(t.total_ns as f64 / 1e9)),
                ("self_s", Json::Num(t.self_ns as f64 / 1e9)),
            ])
        })
        .collect();
    Ok(Json::obj([
        (
            "session_to_finish_s",
            Json::Num((end - session_start).as_secs_f64()),
        ),
        ("measure_s", Json::Num((end - stepping).as_secs_f64())),
        ("sim_s", Json::Num(duration_s)),
        ("run_span_s", Json::Num(run_s)),
        ("layers", Json::Obj(layers)),
        ("spans", Json::Arr(spans)),
        ("report", report),
    ]))
}

/// `num / den`, 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_step_with_maintenance_due_is_maintenance_whatever_the_event() {
        let t = SimTime::from_millis;
        assert_eq!(classify_step(Some(t(5)), t(9), true), StepClass::Maint);
        assert_eq!(classify_step(Some(t(9)), t(9), false), StepClass::Maint);
    }

    #[test]
    fn without_maintenance_due_the_event_decides() {
        let t = SimTime::from_millis;
        assert_eq!(classify_step(Some(t(10)), t(9), true), StepClass::Op);
        assert_eq!(classify_step(Some(t(10)), t(9), false), StepClass::Health);
        // Converged maintenance never has cohorts pending.
        assert_eq!(classify_step(None, t(9), true), StepClass::Op);
        assert_eq!(classify_step(None, t(9), false), StepClass::Health);
    }

    #[test]
    fn events_fall_into_equal_spans_of_the_measured_window() {
        // A window of 80 s after 10 s of warm-up: spans of 10 s.
        let span = |at_ms| window_span(SimTime::from_millis(at_ms), 10_000, 80_000);
        assert_eq!(span(10_000), 0);
        assert_eq!(span(19_999), 0);
        assert_eq!(span(20_000), 1);
        assert_eq!(span(89_999), WINDOW_PIECES - 1);
        // The window's end and anything outside it go to the nearest span.
        assert_eq!(span(90_000), WINDOW_PIECES - 1);
        assert_eq!(span(0), 0);
        // The spans and `finish()`, which leaves two more pieces.
        assert_eq!(MEASURED_PIECES.len(), WINDOW_PIECES + 1);
        assert_eq!(MEASURED_PIECES.end + 2, PIECES);
    }

    #[test]
    fn modes_round_trip_through_their_names() {
        for mode in Mode::ALL {
            assert_eq!(Mode::parse(mode.as_str()), Some(mode));
        }
        assert_eq!(Mode::parse("warp"), None);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }

    #[test]
    fn cpu_time_is_readable_here() {
        assert!(cpu_seconds() >= 0.0);
    }
}
