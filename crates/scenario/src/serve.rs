//! Service mode: sustained operation traffic with a live metrics layer.
//!
//! [`ScenarioRunner::serve`] drives a [`RunSession`] as a long-running
//! open-loop service instead of a batch run:
//!
//! * the workload rate can be restated as **operations per simulated
//!   day** (the service yardstick — e.g. 10⁶ ops/day at 10⁵ hosts);
//! * a **pacing factor** maps simulated time onto wall-clock (`pace`
//!   simulated seconds per wall second; `0` = unpaced, run flat out);
//! * when a paced loop falls behind its **lag budget**, admission
//!   control sheds pending *operations* — maintenance cohorts and
//!   health samples are never dropped, so the overlay stays correct
//!   under pressure and the drops are themselves metered;
//! * every layer reports through one [`Registry`]: live op latency
//!   percentiles, delivery counters, harness phase spans, AVMON slot
//!   costs, pair-hash and worker-pool statistics, overlay health
//!   gauges — optionally exported over HTTP by a [`MetricsServer`].
//!
//! Determinism: an **unpaced** serve of the full operation window
//! executes exactly the event sequence of [`ScenarioRunner::run`] and
//! produces a bit-identical [`ScenarioReport`] (pinned by
//! `tests/serve.rs`). Pacing and backpressure only ever *remove*
//! operations, and every removal is counted in
//! `ScenarioReport::admission_drops`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use avmem_metrics::{MetricsServer, Registry};

use crate::report::ScenarioReport;
use crate::runner::{RunSession, ScenarioRunner};
use crate::spec::ScenarioError;

/// Caller overrides for one serve invocation. `None` fields fall back to
/// the spec's `[serve]` section (or its defaults).
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Sustained rate in operations per **simulated day**, overriding
    /// the workload's `ops_per_hour`.
    pub ops_per_day: Option<f64>,
    /// Simulated seconds advanced per wall-clock second (`0` = unpaced).
    pub pace: Option<f64>,
    /// Wall-clock lag budget in milliseconds before operations are shed.
    pub lag_budget_ms: Option<u64>,
    /// Truncates the operation window to this many minutes (the arrival
    /// schedule is a prefix of the untruncated one).
    pub for_mins: Option<u64>,
    /// Binds the metrics endpoint here (e.g. `127.0.0.1:9464`; port `0`
    /// picks an ephemeral port, reported in [`ServeOutcome`]).
    pub metrics_addr: Option<String>,
    /// Prints a heartbeat line to stderr every this many wall-clock
    /// seconds (`0` = silent).
    pub snapshot_every_secs: u64,
    /// Hard wall-clock cap in seconds; the session is sealed at the
    /// simulated time reached when it trips.
    pub max_wall_secs: Option<u64>,
    /// Captures a final Prometheus scrape of the endpoint (or a direct
    /// registry rendering when no endpoint is bound) into the outcome.
    pub scrape_on_exit: bool,
}

/// What one serve invocation produced.
#[derive(Debug)]
pub struct ServeOutcome {
    /// The sealed report (same shape as a batch run's).
    pub report: ScenarioReport,
    /// Wall-clock seconds the serve loop ran.
    pub wall_secs: f64,
    /// Simulated minutes of the operation window actually served.
    pub sim_mins: u64,
    /// Operation arrivals handled (fired + skipped + shed).
    pub ops_handled: u64,
    /// Handled arrivals scaled to a simulated day — the throughput
    /// figure the serve acceptance gate checks.
    pub ops_per_sim_day: f64,
    /// Final Prometheus exposition text (with `scrape_on_exit`).
    pub metrics_text: Option<String>,
    /// Address the metrics endpoint was bound to, if any.
    pub metrics_addr: Option<std::net::SocketAddr>,
}

impl ScenarioRunner {
    /// Runs the scenario as a sustained-traffic service; see the module
    /// docs for the execution model.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Invalid`] for bad overrides (or a
    /// metrics endpoint that cannot bind) and propagates session
    /// construction errors.
    pub fn serve(&self, opts: &ServeOptions) -> Result<ServeOutcome, ScenarioError> {
        let defaults = self.spec.serve.unwrap_or_default();
        let pace = opts.pace.unwrap_or(defaults.pace);
        if !(pace.is_finite() && pace >= 0.0) {
            return Err(ScenarioError::Invalid(
                "serve pace must be non-negative and finite".into(),
            ));
        }
        let lag_budget =
            Duration::from_millis(opts.lag_budget_ms.unwrap_or(defaults.lag_budget_ms));

        let mut spec = self.spec.clone();
        if let Some(rate) = opts.ops_per_day.or(defaults.ops_per_day) {
            if !(rate.is_finite() && rate > 0.0) {
                return Err(ScenarioError::Invalid(
                    "serve ops_per_day must be positive and finite".into(),
                ));
            }
            spec.workload.ops_per_hour = rate / 24.0;
        }
        if let Some(mins) = opts.for_mins {
            spec.duration_mins = spec.duration_mins.min(mins);
        }
        let runner = ScenarioRunner::new(spec)?;

        let registry = Arc::new(Registry::new());
        let mut session = runner.session()?;
        session.set_metrics(&registry);
        let mut server = match &opts.metrics_addr {
            None => None,
            Some(addr) => Some(MetricsServer::bind(Arc::clone(&registry), addr).map_err(
                |e| ScenarioError::Invalid(format!("metrics endpoint {addr}: {e}")),
            )?),
        };
        let metrics_addr = server.as_ref().map(MetricsServer::local_addr);
        let lag_gauge = registry.gauge(
            "avmem_serve_lag_ms",
            "Wall-clock lag of the paced serve loop (ms).",
            &[],
        );

        let paced = pace > 0.0;
        let wall0 = Instant::now();
        let sim0 = session.now(); // warm-up boundary
        let heartbeat = (opts.snapshot_every_secs > 0)
            .then(|| Duration::from_secs(opts.snapshot_every_secs));
        let mut next_beat = heartbeat;

        while let Some(at) = session.next_event_at() {
            if let Some(cap) = opts.max_wall_secs {
                if wall0.elapsed() >= Duration::from_secs(cap) {
                    break;
                }
            }
            if paced {
                // Due instant of this event on the wall clock.
                let due = Duration::from_secs_f64(
                    at.saturating_since(sim0).as_millis() as f64 / (1_000.0 * pace),
                );
                // Sleep in short slices so heartbeats and the wall cap
                // stay responsive during quiet stretches.
                loop {
                    let elapsed = wall0.elapsed();
                    if elapsed >= due {
                        break;
                    }
                    std::thread::sleep((due - elapsed).min(Duration::from_millis(50)));
                    self.beat(&mut next_beat, heartbeat, wall0, &session, &registry);
                }
                let lag = wall0.elapsed().saturating_sub(due);
                lag_gauge.set(lag.as_secs_f64() * 1_000.0);
                if lag > lag_budget && session.next_is_op() {
                    // Behind budget: shed the operation (its arrival
                    // instant still advances the clock, so maintenance
                    // owed by then runs).
                    session.drop_next_op();
                    continue;
                }
            }
            session.step();
            self.beat(&mut next_beat, heartbeat, wall0, &session, &registry);
        }

        publish_runtime(&session, &registry);
        let truncated = session.next_event_at().is_some();
        let sim_end = if truncated { session.now() } else { session.end() };
        let sim_mins = sim_end.saturating_since(sim0).as_millis() / 60_000;
        let wall_secs = wall0.elapsed().as_secs_f64();
        let report = if truncated {
            let now = session.now();
            session.finish_at(now)
        } else {
            session.finish()
        };
        let metrics_text = if opts.scrape_on_exit {
            Some(match metrics_addr {
                Some(addr) => avmem_metrics::scrape(addr, "/metrics")
                    .unwrap_or_else(|_| registry.render_prometheus()),
                None => registry.render_prometheus(),
            })
        } else {
            None
        };
        if let Some(server) = &mut server {
            server.shutdown();
        }

        let ops_handled = ops_handled(&report);
        let sim_days = sim_mins as f64 / (24.0 * 60.0);
        let ops_per_sim_day = if sim_days > 0.0 {
            ops_handled as f64 / sim_days
        } else {
            0.0
        };
        Ok(ServeOutcome {
            report,
            wall_secs,
            sim_mins,
            ops_handled,
            ops_per_sim_day,
            metrics_text,
            metrics_addr,
        })
    }

    /// Emits the periodic heartbeat (stderr line + runtime-stat publish)
    /// when its period elapsed.
    fn beat(
        &self,
        next_beat: &mut Option<Duration>,
        period: Option<Duration>,
        wall0: Instant,
        session: &RunSession,
        registry: &Registry,
    ) {
        let (Some(due), Some(period)) = (*next_beat, period) else {
            return;
        };
        let elapsed = wall0.elapsed();
        if elapsed < due {
            return;
        }
        *next_beat = Some(elapsed + period);
        publish_runtime(session, registry);
        let report = session.report();
        let fired = report.anycast.sent + report.multicast.sent;
        eprintln!(
            "serve[{}] wall {:.0}s  sim {} min  ops fired {}  anycast delivery {:.1}%  \
             skipped {}  shed {}",
            self.spec.name,
            elapsed.as_secs_f64(),
            session.now().as_millis() / 60_000,
            fired,
            100.0 * report.anycast.delivery_rate(),
            report.skipped_ops,
            report.admission_drops,
        );
    }
}

/// Operation arrivals handled by a sealed report: fired (anycast,
/// multicast, flood attempts), skipped for lack of an initiator, and
/// shed by admission control.
fn ops_handled(report: &ScenarioReport) -> u64 {
    report.anycast.sent
        + report.multicast.sent
        + report.attack.as_ref().map_or(0, |a| a.attempts)
        + report.skipped_ops
        + report.admission_drops
}

/// Mirrors cumulative runtime statistics that live outside the registry
/// (phase spans, pair hashes, worker pool) into it. Cheap; called on
/// every heartbeat and once at the end.
fn publish_runtime(session: &RunSession, registry: &Registry) {
    let sim = session.sim();
    sim.tracer().publish(registry, "avmem");
    let store = sim.hash_store_stats();
    let mirror = |name: &str, help: &str, v: u64| {
        registry.counter(name, help, &[]).store(v);
    };
    mirror(
        "avmem_hash_rows_built_total",
        "Pair-hash rows materialized by the shared store.",
        store.rows_built,
    );
    mirror(
        "avmem_hash_direct_total",
        "Pair hashes computed by event-driven finalize, one per batched estimate.",
        sim.finalize_stats().batched_estimates,
    );
    registry
        .gauge(
            "avmem_hash_cached_rows",
            "Pair-hash rows currently resident.",
            &[],
        )
        .set(store.cached_rows as f64);
    let pool = avmem_util::parallel::global_pool().pool_stats();
    mirror(
        "avmem_pool_batches_total",
        "Batches dispatched to the shared worker pool.",
        pool.batches,
    );
    mirror(
        "avmem_pool_jobs_total",
        "Jobs executed by the shared worker pool.",
        pool.jobs,
    );
    mirror(
        "avmem_pool_inline_batches_total",
        "Worker-pool batches degraded to inline execution.",
        pool.inline_batches,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin;
    use crate::spec::ChurnSpec;

    fn tiny_runner() -> ScenarioRunner {
        let mut spec = builtin::builtin("smoke").expect("smoke builtin");
        spec.churn = ChurnSpec::Overnet { hosts: 80, days: 1 };
        spec.warmup_mins = 60;
        spec.duration_mins = 60;
        spec.workload.ops_per_hour = 40.0;
        ScenarioRunner::new(spec).unwrap()
    }

    #[test]
    fn unpaced_serve_matches_run_bit_for_bit() {
        let runner = tiny_runner();
        let baseline = runner.run().unwrap();
        let outcome = runner.serve(&ServeOptions::default()).unwrap();
        assert_eq!(baseline, outcome.report);
        assert_eq!(outcome.report.admission_drops, 0);
        assert!(outcome.ops_handled > 0);
        assert!(outcome.ops_per_sim_day > 0.0);
        assert_eq!(outcome.sim_mins, 60);
    }

    #[test]
    fn ops_per_day_override_restates_the_rate() {
        let runner = tiny_runner();
        let outcome = runner
            .serve(&ServeOptions {
                ops_per_day: Some(2_400.0), // 100/hour, up from 40
                ..ServeOptions::default()
            })
            .unwrap();
        let baseline = runner.serve(&ServeOptions::default()).unwrap();
        assert!(
            outcome.ops_handled > baseline.ops_handled,
            "{} vs {}",
            outcome.ops_handled,
            baseline.ops_handled
        );
    }

    #[test]
    fn for_mins_serves_a_prefix() {
        let runner = tiny_runner();
        let outcome = runner
            .serve(&ServeOptions {
                for_mins: Some(30),
                ..ServeOptions::default()
            })
            .unwrap();
        assert_eq!(outcome.sim_mins, 30);
        assert_eq!(outcome.report.duration_mins, 30);
    }

    #[test]
    fn scrape_on_exit_captures_families() {
        let runner = tiny_runner();
        let outcome = runner
            .serve(&ServeOptions {
                metrics_addr: Some("127.0.0.1:0".into()),
                scrape_on_exit: true,
                ..ServeOptions::default()
            })
            .unwrap();
        let text = outcome.metrics_text.expect("scrape requested");
        for family in [
            "avmem_ops_total",
            "avmem_op_exec_us",
            "avmem_online",
            "avmem_phase_span_us",
            "avmem_pool_batches_total",
        ] {
            assert!(text.contains(family), "missing {family}:\n{text}");
        }
        assert!(outcome.metrics_addr.is_some());
    }

    #[test]
    fn bad_overrides_are_rejected() {
        let runner = tiny_runner();
        assert!(runner
            .serve(&ServeOptions {
                pace: Some(-1.0),
                ..ServeOptions::default()
            })
            .is_err());
        assert!(runner
            .serve(&ServeOptions {
                ops_per_day: Some(0.0),
                ..ServeOptions::default()
            })
            .is_err());
    }
}
