//! The parent side: spawns children, gathers samples, checks outputs.
//!
//! A closed loop of one process at a time: the next child starts when
//! the previous one has exited. Samples of several workloads are taken
//! round-robin, so drift of the machine lands on all of them alike.

use std::io::Read;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::child::{ratio, Mode, MEASURED_PIECES, PIECES};
use crate::json::Json;
use crate::schema::{Better, EndToEnd, END_TO_END, PER_LAYER};
use crate::stats;
use crate::workloads::Workload;

/// A hung child becomes failed operations, not a stuck benchmark. Far
/// above any sample (seconds) and far enough below the 180 s the
/// benchmark's caller allows one run.
const CHILD_TIMEOUT: Duration = Duration::from_secs(60);

/// How long to keep sampling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// This many samples of every workload.
    Samples(usize),
    /// Rounds of samples for this many seconds: a new round starts while
    /// one as long as the last still fits; at least one round.
    Seconds(f64),
}

/// Which children a collection runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Set-up child + full-run child per sample: the end-to-end metrics.
    EndToEnd,
    /// Full-run child + traced child (+ metrics-attached child where
    /// declared) per sample, then the probes child and a two-thread
    /// child: the per-layer metrics. End-to-end metrics are never taken
    /// from traced runs.
    PerLayer,
}

/// Worker threads of every run that an end-to-end metric or a span
/// comes from. One, on any box: a two-thread run on a two-core box
/// shares its cores with whatever else the host schedules, and every
/// fork-join of a tiny cohort waits for the slower core — the same
/// seed's wall time then spreads twice as wide between runs as on one
/// thread (README, "Threads"). What the second thread costs or buys is
/// measured apart, by `PAIR_THREADS` children in the per-layer phase.
pub const THREADS: usize = 1;

/// Worker threads of the children that measure the worker pool itself.
pub const PAIR_THREADS: usize = 2;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What a child printed, with the parent's clock around its life.
struct ChildOutput {
    json: Json,
    /// Spawn to exit, seconds.
    wall_s: f64,
    /// How long after the previous child's exit this one was spawned.
    start_gap_ms: f64,
}

/// Spawns children one at a time and remembers when the last one ended.
struct Spawner {
    exe: std::path::PathBuf,
    last_exit: Option<Instant>,
}

impl Spawner {
    fn new() -> Result<Spawner, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
        Ok(Spawner {
            exe,
            last_exit: None,
        })
    }

    fn spawn(
        &mut self,
        mode: Mode,
        workload: &Workload,
        seed: u64,
        threads: usize,
    ) -> Result<ChildOutput, String> {
        let what = format!(
            "{} child of {} on {threads} thread(s)",
            mode.as_str(),
            workload.name
        );
        let start = Instant::now();
        let start_gap_ms = self
            .last_exit
            .map_or(0.0, |t| (start - t).as_secs_f64() * 1e3);
        let mut child = Command::new(&self.exe)
            .args(["child", mode.as_str(), workload.name, &seed.to_string()])
            .env("AVMEM_THREADS", threads.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("{what}: spawn failed: {e}"))?;
        let mut stdout = child.stdout.take().expect("stdout was piped");
        // The reader sees end-of-file when the child exits (or closes
        // its output), so the parent blocks on the channel with a
        // timeout instead of polling.
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut text = String::new();
            let result = stdout.read_to_string(&mut text).map(|_| text);
            let _ = tx.send(result);
        });
        let received = rx.recv_timeout(CHILD_TIMEOUT);
        if received.is_err() {
            let _ = child.kill();
        }
        let status = child.wait();
        let end = Instant::now();
        self.last_exit = Some(end);
        reader
            .join()
            .map_err(|_| format!("{what}: reader thread panicked"))?;

        let text = match received {
            Ok(Ok(text)) => text,
            Ok(Err(e)) => return Err(format!("{what}: reading its output failed: {e}")),
            Err(_) => {
                return Err(format!(
                    "{what}: timed out after {} s",
                    CHILD_TIMEOUT.as_secs()
                ))
            }
        };
        let status = status.map_err(|e| format!("{what}: wait failed: {e}"))?;
        if !status.success() {
            return Err(format!("{what}: {status}"));
        }
        let line = text.lines().last().unwrap_or("");
        let json = Json::parse(line).map_err(|e| format!("{what}: {e}"))?;
        Ok(ChildOutput {
            json,
            wall_s: (end - start).as_secs_f64(),
            start_gap_ms,
        })
    }
}

/// The report without the parts `ScenarioReport::eq` ignores: two runs
/// produced the same simulated results exactly when these are equal.
pub fn simulated_part(report: &Json) -> Json {
    const HOST_FACTS: [&str; 3] = ["timings", "finalize", "memory"];
    Json::Obj(
        report
            .as_obj()
            .iter()
            .filter(|(key, _)| !HOST_FACTS.contains(&key.as_str()))
            .cloned()
            .collect(),
    )
}

/// FNV-1a over the rendered simulated part: two commits whose
/// fingerprints agree simulated the same thing.
pub fn fingerprint(report: &Json) -> String {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in simulated_part(report).render().bytes() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// The simulated end-to-end results of one report.
pub fn fidelity(report: &Json) -> [(&'static str, f64); 4] {
    let lcc_min = report
        .get("health")
        .map_or(&[][..], Json::as_arr)
        .iter()
        .map(|sample| sample.num_at(&["largest_component"]))
        .fold(f64::INFINITY, f64::min);
    [
        (
            "anycast_delivery_rate",
            ratio(
                report.num_at(&["anycast", "delivered"]),
                report.num_at(&["anycast", "sent"]),
            ),
        ),
        (
            "multicast_reliability",
            ratio(
                report.num_at(&["multicast", "reliability_sum"]),
                report.num_at(&["multicast", "reliability_count"]),
            ),
        ),
        (
            "overlay_lcc_min",
            if lcc_min.is_finite() { lcc_min } else { 0.0 },
        ),
        ("estimator_mae", report.num_at(&["estimator", "mae"])),
    ]
}

/// Operations the run scheduled, and those of them that did not run.
fn ops_scheduled_and_failed(report: &Json) -> (u64, u64) {
    let failed = report.num_at(&["skipped_ops"]) + report.num_at(&["admission_drops"]);
    let fired = report.num_at(&["anycast", "sent"])
        + report.num_at(&["multicast", "sent"])
        + report.num_at(&["attack", "attempts"]);
    ((fired + failed) as u64, failed as u64)
}

/// One end-to-end sample: a set-up child and a full-run child.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Lateness of the sample's first child after the previous child's
    /// exit: stays near zero unless the box is contended.
    pub start_gap_ms: f64,
    /// One value per host metric of `END_TO_END`, in that order.
    pub values: Vec<f64>,
    /// Wall and CPU seconds of the full-run child, one value per piece
    /// of `child::PIECES`.
    pub piece_wall_s: Vec<f64>,
    pub piece_cpu_s: Vec<f64>,
}

/// The sum over a run's pieces of each piece's lowest time among the
/// samples: what the run takes when nothing disturbs it.
///
/// What the host does to a run is one-sided — a piece is never faster
/// than the program makes it, only slower by whatever else the machine
/// did meanwhile — and on a shared host the disturbances last from a
/// fraction of a second to a minute. The lowest whole sample needs one
/// sample that nothing disturbed from start to end; the sum of lowest
/// pieces needs each piece undisturbed once, and spread a third less
/// between runs (README, "Steadiness"). A seed's pieces hold the same
/// work in every sample, so the pieces of different samples add up to a
/// run that could have happened.
fn sum_of_lowest(samples: &[&[f64]], pieces: std::ops::Range<usize>) -> f64 {
    pieces
        .map(|piece| stats::min(&samples.iter().map(|s| s[piece]).collect::<Vec<_>>()))
        .sum()
}

/// Everything measured for one workload.
#[derive(Debug)]
pub struct WorkloadResult {
    pub workload: &'static Workload,
    pub seed: u64,
    pub samples: Vec<Sample>,
    /// Values of `PER_LAYER`, in that order, after a per-layer phase.
    pub per_layer: Option<Vec<f64>>,
    /// Span totals of the last traced child.
    pub spans: Json,
    /// The simulated results (first report seen) and their fingerprint.
    pub fidelity: Option<[(&'static str, f64); 4]>,
    pub fingerprint: Option<String>,
    pub heap_stats: bool,
    /// Operations scheduled over all runs, and those that failed.
    pub attempted: u64,
    pub failed: u64,
    /// Broken correctness checks and failed children, in words.
    pub failures: Vec<String>,

    simulated: Option<Json>,
    ops_per_run: u64,
    full: Vec<Json>,
    traced: Vec<(Json, f64)>,
    probes: Option<Json>,
    pair: Option<Json>,
    metrics_s2f: Vec<f64>,
}

impl WorkloadResult {
    pub(crate) fn new(workload: &'static Workload, seed: u64) -> WorkloadResult {
        WorkloadResult {
            workload,
            seed,
            samples: Vec::new(),
            per_layer: None,
            spans: Json::Arr(Vec::new()),
            fidelity: None,
            fingerprint: None,
            heap_stats: false,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            simulated: None,
            ops_per_run: 0,
            full: Vec::new(),
            traced: Vec::new(),
            probes: None,
            pair: None,
            metrics_s2f: Vec::new(),
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn failed_ops_share(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    /// Takes over the per-layer phase's findings for the same workload
    /// and seed: its metrics, its operation counts, its failures — and
    /// the check that both phases simulated the same thing.
    pub fn absorb_per_layer(&mut self, mut layers: WorkloadResult) {
        if self.fingerprint.is_some()
            && layers.fingerprint.is_some()
            && self.fingerprint != layers.fingerprint
        {
            self.failures.push(format!(
                "{}: the traced phase's reports differ from the end-to-end phase's",
                self.workload.name
            ));
        }
        self.per_layer = layers.per_layer.take();
        self.spans = std::mem::replace(&mut layers.spans, Json::Null);
        self.heap_stats |= layers.heap_stats;
        self.absorb_other_seed(layers);
    }

    /// Takes over the operation counts and failures of a run of the
    /// same workload whose simulated results are not comparable (it ran
    /// on another seed to check the fidelity floors there).
    pub fn absorb_other_seed(&mut self, other: WorkloadResult) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }

    /// Runs that went into the result: end-to-end samples, or traced
    /// runs after a per-layer phase.
    pub fn runs(&self) -> usize {
        self.samples.len().max(self.traced.len())
    }

    /// The values of one host metric over the samples.
    pub fn series(&self, index: usize) -> Vec<f64> {
        self.samples.iter().map(|s| s.values[index]).collect()
    }

    /// The run's estimate of host metric `index` of `END_TO_END` on an
    /// undisturbed machine; 0 without samples. The times of the full
    /// run are sums of lowest pieces (`sum_of_lowest`); set-up time and
    /// peak memory are single numbers of a child of their own, and the
    /// lowest of them stands.
    pub fn best(&self, index: usize) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let wall: Vec<&[f64]> = self.samples.iter().map(|s| &s.piece_wall_s[..]).collect();
        let cpu: Vec<&[f64]> = self.samples.iter().map(|s| &s.piece_cpu_s[..]).collect();
        let host: Vec<&EndToEnd> = END_TO_END.iter().filter(|m| m.is_host()).collect();
        match host[index].name {
            "wall_s" => sum_of_lowest(&wall, 0..PIECES),
            "cpu_s" => sum_of_lowest(&cpu, 0..PIECES),
            "sim_s_per_wall_s" => ratio(self.sim_s(), sum_of_lowest(&wall, MEASURED_PIECES)),
            _ => match host[index].better {
                Better::Lower => stats::min(&self.series(index)),
                Better::Higher => stats::max(&self.series(index)),
            },
        }
    }

    /// Length of the measured window in simulated seconds.
    fn sim_s(&self) -> f64 {
        self.workload.spec(None).duration_mins as f64 * 60.0
    }

    /// Books a run that produced no report: every operation it would
    /// have scheduled counts as failed.
    fn book_lost_run(&mut self, why: String) {
        let ops = self.ops_per_run.max(1);
        self.attempted += ops;
        self.failed += ops;
        self.failures.push(why);
    }

    /// Books a run's report: operation counts, and the check that every
    /// run of the workload — untraced, traced, metrics attached —
    /// simulated exactly the same thing.
    fn book_report(&mut self, kind: Mode, report: &Json) {
        let (scheduled, failed) = ops_scheduled_and_failed(report);
        self.ops_per_run = scheduled;
        self.attempted += scheduled;
        self.failed += failed;
        let simulated = simulated_part(report);
        match &self.simulated {
            None => {
                self.fingerprint = Some(fingerprint(report));
                self.fidelity = Some(fidelity(report));
                self.heap_stats = report
                    .path(&["memory", "heap_alloc_calls"])
                    .and_then(Json::as_f64)
                    .is_some();
                self.simulated = Some(simulated);
            }
            Some(first) if *first != simulated => {
                self.failed += scheduled - failed;
                self.failures.push(format!(
                    "{}: report of a {} run differs from the first run's",
                    self.workload.name,
                    kind.as_str()
                ));
            }
            Some(_) => {}
        }
    }

    fn run_child(&mut self, spawner: &mut Spawner, mode: Mode) -> Option<ChildOutput> {
        self.run_child_on(spawner, mode, THREADS)
    }

    /// Runs one child unless an earlier one already failed (a broken
    /// workload is not sampled further), and books what it reports.
    fn run_child_on(
        &mut self,
        spawner: &mut Spawner,
        mode: Mode,
        threads: usize,
    ) -> Option<ChildOutput> {
        if !self.correct() {
            return None;
        }
        match spawner.spawn(mode, self.workload, self.seed, threads) {
            Ok(out) => {
                if let Some(report) = out.json.get("report") {
                    self.book_report(mode, report);
                }
                Some(out)
            }
            Err(why) => {
                match mode {
                    Mode::Setup | Mode::Probes => self.failures.push(why),
                    Mode::Full | Mode::Metrics | Mode::Traced => self.book_lost_run(why),
                }
                None
            }
        }
    }

    fn sample_end_to_end(&mut self, spawner: &mut Spawner) {
        let Some(setup) = self.run_child(spawner, Mode::Setup) else {
            return;
        };
        let Some(full) = self.run_child(spawner, Mode::Full) else {
            return;
        };
        let sim_s = self.sim_s();
        let values = END_TO_END
            .iter()
            .filter(|m| m.is_host())
            .map(|m| match m.name {
                "wall_s" => full.wall_s,
                "setup_s" => setup.json.num_at(&["setup_s"]),
                "sim_s_per_wall_s" => ratio(sim_s, full.json.num_at(&["measure_s"])),
                name => full.json.num_at(&[name]),
            })
            .collect();
        // The last piece is what the child did not clock: the rest of
        // the total.
        let pieces = |key: &str, total: f64| {
            let mut pieces: Vec<f64> = full
                .json
                .get(key)
                .map_or(&[][..], Json::as_arr)
                .iter()
                .map(|v| v.as_f64().unwrap_or(0.0))
                .collect();
            pieces.resize(PIECES - 1, 0.0);
            pieces.push((total - pieces.iter().sum::<f64>()).max(0.0));
            pieces
        };
        self.samples.push(Sample {
            start_gap_ms: setup.start_gap_ms,
            values,
            piece_wall_s: pieces("piece_wall_s", full.wall_s),
            piece_cpu_s: pieces("piece_cpu_s", full.json.num_at(&["cpu_s"])),
        });
    }

    fn sample_per_layer(&mut self, spawner: &mut Spawner) {
        if let Some(full) = self.run_child(spawner, Mode::Full) {
            self.full.push(full.json);
        }
        if let Some(traced) = self.run_child(spawner, Mode::Traced) {
            self.traced.push((traced.json, traced.wall_s));
        }
        if self.workload.metrics_child {
            if let Some(metrics) = self.run_child(spawner, Mode::Metrics) {
                self.metrics_s2f
                    .push(metrics.json.num_at(&["session_to_finish_s"]));
            }
        }
    }

    fn run_extras(&mut self, spawner: &mut Spawner) {
        // The pool probe needs a pool, and the two-thread run a second
        // core; its report must equal the one-thread reports.
        let pair = PAIR_THREADS.min(nproc());
        self.probes = self
            .run_child_on(spawner, Mode::Probes, pair)
            .map(|out| out.json);
        if pair > THREADS {
            self.pair = self
                .run_child_on(spawner, Mode::Full, pair)
                .map(|out| out.json);
        }
    }

    /// Fidelity floors, on workloads that run on a converged overlay.
    fn check_floors(&mut self) {
        let Some(fidelity) = self.fidelity else {
            return;
        };
        for &(name, floor) in self.workload.floors {
            let value = fidelity
                .iter()
                .find(|(metric, _)| *metric == name)
                .map_or(0.0, |&(_, v)| v);
            if value < floor {
                self.failures.push(format!(
                    "{}: {name} = {value:.4} is under its floor {floor} (seed {})",
                    self.workload.name, self.seed
                ));
            }
        }
    }

    /// Puts the per-layer metrics together: medians over the traced
    /// children, the probes, and what only the parent can derive.
    fn assemble_per_layer(&mut self) {
        let median_of = |runs: &[&Json], keys: &[&str]| {
            stats::median(&runs.iter().map(|run| run.num_at(keys)).collect::<Vec<_>>())
        };
        let full: Vec<&Json> = self.full.iter().collect();
        let traced: Vec<&Json> = self.traced.iter().map(|(json, _)| json).collect();
        // An overhead is a difference of two timings a few percent
        // apart, so both sides are the best of their samples: what the
        // host adds to a sample is one-sided (see `sum_of_lowest`).
        let best_of = |times: &[f64]| {
            if times.is_empty() {
                0.0
            } else {
                stats::min(times)
            }
        };
        let best_s2f = |runs: &[&Json]| {
            best_of(
                &runs
                    .iter()
                    .map(|run| run.num_at(&["session_to_finish_s"]))
                    .collect::<Vec<_>>(),
            )
        };
        let untraced_s2f = best_s2f(&full);
        let overhead = |with: f64| {
            if with > 0.0 {
                ratio(with - untraced_s2f, untraced_s2f)
            } else {
                0.0
            }
        };
        let heap = |key: &str| median_of(&full, &["report", "memory", key]);
        let coverage: Vec<f64> = self
            .traced
            .iter()
            .map(|(json, wall_s)| ratio(json.num_at(&["run_span_s"]), *wall_s))
            .collect();
        let mib = 1024.0 * 1024.0;
        let pair_ratio = |key: &str| {
            self.pair.as_ref().map_or(0.0, |pair| {
                ratio(pair.num_at(&[key]), median_of(&full, &[key]))
            })
        };
        let derived = [
            (
                "util.pool.two_thread_wall_ratio",
                pair_ratio("session_to_finish_s"),
            ),
            ("util.pool.two_thread_cpu_ratio", pair_ratio("cpu_s")),
            ("util.heap.peak_mib", heap("heap_peak_bytes") / mib),
            ("util.heap.live_end_mib", heap("heap_live_bytes") / mib),
            ("util.heap.alloc_calls", heap("heap_alloc_calls")),
            (
                "util.heap.allocs_per_cohort",
                ratio(
                    heap("heap_alloc_calls"),
                    median_of(&full, &["report", "timings", "cohorts"]),
                ),
            ),
            (
                "metrics.overhead_share",
                overhead(best_of(&self.metrics_s2f)),
            ),
            ("perf.trace_overhead_share", overhead(best_s2f(&traced))),
            ("perf.span_coverage", stats::median(&coverage)),
        ];
        let fidelity = self.fidelity.unwrap_or_default();
        let values = PER_LAYER
            .iter()
            .map(|metric| {
                let from_traced = traced
                    .first()
                    .and_then(|run| run.path(&["layers", metric.name]))
                    .map(|_| median_of(&traced, &["layers", metric.name]));
                let from_probes = || {
                    self.probes
                        .as_ref()?
                        .path(&["layers", metric.name])?
                        .as_f64()
                };
                let from_parent = || {
                    derived
                        .iter()
                        .chain(&fidelity)
                        .find(|(name, _)| *name == metric.name)
                        .map(|&(_, v)| v)
                };
                // A metric no child emitted on this workload (say, AVMON
                // build time without an AVMON oracle) reads 0.
                from_traced
                    .or_else(from_probes)
                    .or_else(from_parent)
                    .unwrap_or(0.0)
            })
            .collect();
        self.per_layer = Some(values);
        if let Some((last, _)) = self.traced.last() {
            self.spans = last.get("spans").cloned().unwrap_or(Json::Arr(Vec::new()));
        }
    }
}

/// Runs one phase over `workloads` and returns one result per workload.
///
/// `seed` replaces every spec's own seed when given.
pub fn collect(
    workloads: &[&'static Workload],
    seed: Option<u64>,
    phase: Phase,
    budget: Budget,
) -> Result<Vec<WorkloadResult>, String> {
    let mut spawner = Spawner::new()?;
    let mut results: Vec<WorkloadResult> = workloads
        .iter()
        .map(|&w| WorkloadResult::new(w, seed.unwrap_or_else(|| w.spec(None).seed)))
        .collect();
    let start = Instant::now();
    let mut rounds = 0;
    loop {
        let round_start = Instant::now();
        for result in &mut results {
            match phase {
                Phase::EndToEnd => result.sample_end_to_end(&mut spawner),
                Phase::PerLayer => result.sample_per_layer(&mut spawner),
            }
        }
        rounds += 1;
        let done = match budget {
            Budget::Samples(k) => rounds >= k,
            Budget::Seconds(s) => (start.elapsed() + round_start.elapsed()).as_secs_f64() > s,
        };
        if done {
            break;
        }
    }
    for result in &mut results {
        if phase == Phase::PerLayer {
            result.run_extras(&mut spawner);
            result.assemble_per_layer();
        }
        result.check_floors();
        if result.correct() && result.simulated.is_none() {
            result
                .failures
                .push(format!("{}: no run completed", result.workload.name));
        }
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(delivered: u64, lcc: &[f64], commit_secs: f64) -> Json {
        let health: Vec<String> = lcc
            .iter()
            .map(|l| format!("{{\"largest_component\":{l}}}"))
            .collect();
        Json::parse(&format!(
            "{{\"seed\":7,\"anycast\":{{\"sent\":10,\"delivered\":{delivered}}},\
             \"multicast\":{{\"sent\":4,\"reliability_sum\":3.0,\"reliability_count\":4}},\
             \"attack\":null,\"health\":[{}],\"skipped_ops\":1,\"admission_drops\":0,\
             \"estimator\":{{\"mae\":0.02}},\"timings\":{{\"commit_secs\":{commit_secs}}},\
             \"finalize\":{{\"memo_hits\":3}},\"memory\":{{\"peak_rss_bytes\":5}}}}",
            health.join(",")
        ))
        .unwrap()
    }

    #[test]
    fn fingerprint_ignores_host_facts_and_sees_simulated_results() {
        let a = report(9, &[0.97, 0.95], 1.0);
        assert_eq!(fingerprint(&a), fingerprint(&report(9, &[0.97, 0.95], 2.5)));
        assert_ne!(fingerprint(&a), fingerprint(&report(8, &[0.97, 0.95], 1.0)));
        assert_eq!(fingerprint(&a).len(), 16);
        assert!(simulated_part(&a).get("timings").is_none());
        assert!(simulated_part(&a).get("anycast").is_some());
    }

    #[test]
    fn fidelity_reads_rates_and_the_minimum_component() {
        let f = fidelity(&report(9, &[0.97, 0.93, 0.99], 1.0));
        assert_eq!(f[0], ("anycast_delivery_rate", 0.9));
        assert_eq!(f[1], ("multicast_reliability", 0.75));
        assert_eq!(f[2], ("overlay_lcc_min", 0.93));
        assert_eq!(f[3], ("estimator_mae", 0.02));
        // No sends, no health samples: zeros, not NaN or infinity.
        let empty = fidelity(&Json::obj::<&str>([]));
        assert!(empty.iter().all(|&(_, v)| v == 0.0));
    }

    #[test]
    fn skipped_and_dropped_operations_count_as_failed() {
        assert_eq!(ops_scheduled_and_failed(&report(9, &[1.0], 1.0)), (15, 1));
    }

    #[test]
    fn the_sum_of_lowest_pieces_takes_each_piece_from_its_best_sample() {
        // Each sample was disturbed in another piece; none was clean.
        let samples: [&[f64]; 3] = [&[0.5, 1.0, 0.25], &[0.25, 2.0, 0.25], &[0.5, 1.5, 0.125]];
        assert_eq!(sum_of_lowest(&samples, 0..3), 0.25 + 1.0 + 0.125);
        assert_eq!(sum_of_lowest(&samples, 1..2), 1.0);
        // One sample: the sum of its pieces.
        assert_eq!(sum_of_lowest(&samples[..1], 0..3), 1.75);
    }

    fn result_for(name: &str) -> WorkloadResult {
        WorkloadResult::new(crate::workloads::find(name).unwrap(), 7)
    }

    #[test]
    fn a_differing_report_fails_every_operation_of_that_run() {
        let mut result = result_for("overnet-day");
        result.book_report(Mode::Full, &report(9, &[0.97], 1.0));
        result.book_report(Mode::Traced, &report(9, &[0.97], 3.0));
        assert!(result.correct());
        assert_eq!((result.attempted, result.failed), (30, 2));
        result.book_report(Mode::Metrics, &report(8, &[0.97], 1.0));
        assert!(!result.correct());
        assert_eq!((result.attempted, result.failed), (45, 17));
        assert!(result.failures[0].contains("metrics"));
    }

    #[test]
    fn a_lost_run_fails_as_many_operations_as_a_run_schedules() {
        let mut result = result_for("overnet-day");
        result.book_report(Mode::Full, &report(9, &[0.97], 1.0));
        result.book_lost_run("timed out".into());
        assert_eq!((result.attempted, result.failed), (30, 16));
        assert!(!result.correct());
        assert!((result.failed_ops_share() - 16.0 / 30.0).abs() < 1e-12);
        // Nothing seen yet: still at least one failed operation.
        let mut blind = result_for("overnet-day");
        blind.book_lost_run("crashed".into());
        assert_eq!((blind.attempted, blind.failed), (1, 1));
    }

    #[test]
    fn floors_apply_to_converged_workloads_only() {
        let low = report(8, &[0.97, 0.85], 1.0);
        let mut converged = result_for("ops-storm");
        converged.book_report(Mode::Full, &low);
        converged.check_floors();
        // 0.8 delivery, 0.75 reliability and 0.85 LCC are all under.
        assert_eq!(converged.failures.len(), 3);
        let mut slice = result_for("serve-slice");
        slice.book_report(Mode::Full, &low);
        slice.check_floors();
        assert!(slice.correct());
    }
}
