//! Phase-span tracing.
//!
//! The maintenance harness used to time its phases with ad-hoc
//! `Instant::now()` pairs accumulated into `PhaseTimings` fields. A
//! [`Tracer`] replaces that: a [`Span`] is opened per phase execution and
//! records, on drop, into a `(phase, lane)` cell — lane 0 is the
//! coordinator (whose totals *are* the old `PhaseTimings` wall-clock),
//! lanes `1..` accumulate shard-worker busy time (see [`shard_lane`]).
//! When a registry is attached, every span additionally lands in a
//! per-phase span-duration histogram, so `scenario serve` exposes live
//! phase percentiles without the harness knowing about exporters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::histogram::Histogram;
use crate::registry::Registry;

/// Accumulation lanes per phase: lane 0 is the coordinator, lanes
/// `1..LANES` fold shard workers (shard `s` → lane `1 + s % (LANES-1)`).
pub const LANES: usize = 17;

/// The lane a shard worker records into.
#[inline]
pub fn shard_lane(shard: usize) -> usize {
    1 + shard % (LANES - 1)
}

/// Process-wide allocation-count probe sampled around spans.
static ALLOC_PROBE: OnceLock<fn() -> u64> = OnceLock::new();

/// Installs the allocation-count probe spans sample on open and close.
///
/// The probe returns a monotone cumulative allocation-call count (e.g.
/// `avmem_util::heap::alloc_calls`); each span attributes the delta
/// observed across its lifetime to its `(phase, lane)` cell. Idempotent:
/// the first installed probe wins. With concurrent lanes the attribution
/// is approximate (deltas overlap); on the serial path it is exact.
pub fn set_alloc_probe(probe: fn() -> u64) {
    let _ = ALLOC_PROBE.set(probe);
}

#[inline]
fn probe_allocs() -> u64 {
    ALLOC_PROBE.get().map_or(0, |probe| probe())
}

/// Per-phase, per-lane busy-time accumulator; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    phases: &'static [&'static str],
    /// `phases.len() * LANES` cells, phase-major.
    nanos: Vec<AtomicU64>,
    spans: Vec<AtomicU64>,
    /// Allocation calls attributed per cell via the installed probe.
    allocs: Vec<AtomicU64>,
    cohorts: AtomicU64,
    /// Per-phase span-duration histograms (µs), present once attached.
    hists: OnceLock<Vec<Histogram>>,
}

impl Tracer {
    /// A tracer over a fixed phase list.
    pub fn new(phases: &'static [&'static str]) -> Tracer {
        let cells = phases.len() * LANES;
        Tracer {
            phases,
            nanos: (0..cells).map(|_| AtomicU64::new(0)).collect(),
            spans: (0..cells).map(|_| AtomicU64::new(0)).collect(),
            allocs: (0..cells).map(|_| AtomicU64::new(0)).collect(),
            cohorts: AtomicU64::new(0),
            hists: OnceLock::new(),
        }
    }

    /// The phase names this tracer accumulates.
    pub fn phases(&self) -> &'static [&'static str] {
        self.phases
    }

    /// Opens a span; elapsed time is recorded when the guard drops.
    #[inline]
    pub fn span(&self, phase: usize, lane: usize) -> Span<'_> {
        debug_assert!(phase < self.phases.len() && lane < LANES);
        Span {
            tracer: self,
            phase,
            idx: phase * LANES + lane,
            start: Instant::now(),
            start_allocs: probe_allocs(),
        }
    }

    /// Records an already-measured span directly. For call sites where a
    /// guard's borrow of the tracer would conflict with a `&mut self`
    /// method on the owning type — semantically identical to letting a
    /// [`Span`] of the same elapsed time drop.
    pub fn record(&self, phase: usize, lane: usize, elapsed: Duration) {
        debug_assert!(phase < self.phases.len() && lane < LANES);
        let idx = phase * LANES + lane;
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.nanos[idx].fetch_add(nanos, Ordering::Relaxed);
        self.spans[idx].fetch_add(1, Ordering::Relaxed);
        if let Some(hists) = self.hists.get() {
            hists[phase].record(elapsed.as_micros() as u64);
        }
    }

    /// Busy time accumulated in one `(phase, lane)` cell.
    pub fn lane_total(&self, phase: usize, lane: usize) -> Duration {
        Duration::from_nanos(self.nanos[phase * LANES + lane].load(Ordering::Relaxed))
    }

    /// Busy time across all lanes of a phase.
    pub fn total(&self, phase: usize) -> Duration {
        let base = phase * LANES;
        Duration::from_nanos(
            (0..LANES)
                .map(|l| self.nanos[base + l].load(Ordering::Relaxed))
                .sum(),
        )
    }

    /// Spans recorded for a phase across all lanes.
    pub fn span_count(&self, phase: usize) -> u64 {
        let base = phase * LANES;
        (0..LANES)
            .map(|l| self.spans[base + l].load(Ordering::Relaxed))
            .sum()
    }

    /// Allocation calls attributed to a phase across all lanes (zero
    /// until a probe is installed via [`set_alloc_probe`]).
    pub fn phase_allocs(&self, phase: usize) -> u64 {
        let base = phase * LANES;
        (0..LANES)
            .map(|l| self.allocs[base + l].load(Ordering::Relaxed))
            .sum()
    }

    /// Counts one maintenance cohort.
    #[inline]
    pub fn tick_cohort(&self) {
        self.cohorts.fetch_add(1, Ordering::Relaxed);
    }

    /// Cohorts counted so far.
    pub fn cohorts(&self) -> u64 {
        self.cohorts.load(Ordering::Relaxed)
    }

    /// Attaches per-phase span-duration histograms
    /// (`{prefix}_phase_span_us{phase=…}`) to `registry`. Idempotent per
    /// tracer; later calls are ignored.
    pub fn attach(&self, registry: &Registry, prefix: &str) {
        let _ = self.hists.get_or_init(|| {
            self.phases
                .iter()
                .map(|phase| {
                    registry.histogram(
                        &format!("{prefix}_phase_span_us"),
                        "Span duration per maintenance phase (µs).",
                        &[("phase", phase)],
                    )
                })
                .collect()
        });
    }

    /// Publishes cumulative busy-time counters
    /// (`{prefix}_phase_busy_ns{phase=…,lane=…}`) and the cohort count
    /// into `registry`. Cheap enough to call on every heartbeat.
    pub fn publish(&self, registry: &Registry, prefix: &str) {
        let busy_name = format!("{prefix}_phase_busy_ns");
        for (p, phase) in self.phases.iter().enumerate() {
            for lane in 0..LANES {
                let cell = self.nanos[p * LANES + lane].load(Ordering::Relaxed);
                if cell == 0 {
                    continue;
                }
                let lane_label = if lane == 0 {
                    "coord".to_string()
                } else {
                    format!("s{}", lane - 1)
                };
                registry
                    .counter(
                        &busy_name,
                        "Cumulative busy time per maintenance phase and lane (ns).",
                        &[("phase", phase), ("lane", &lane_label)],
                    )
                    .store(cell);
            }
        }
        let allocs_name = format!("{prefix}_phase_allocs_total");
        for (p, phase) in self.phases.iter().enumerate() {
            let total = self.phase_allocs(p);
            if total == 0 {
                continue;
            }
            registry
                .counter(
                    &allocs_name,
                    "Allocation calls attributed per maintenance phase.",
                    &[("phase", phase)],
                )
                .store(total);
        }
        registry
            .counter(
                &format!("{prefix}_cohorts_total"),
                "Maintenance cohorts executed.",
                &[],
            )
            .store(self.cohorts());
    }
}

/// Guard returned by [`Tracer::span`]; records elapsed time on drop.
#[must_use = "a span records on drop; binding it to _ measures nothing"]
#[derive(Debug)]
pub struct Span<'a> {
    tracer: &'a Tracer,
    phase: usize,
    idx: usize,
    start: Instant,
    start_allocs: u64,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.tracer.nanos[self.idx].fetch_add(nanos, Ordering::Relaxed);
        self.tracer.spans[self.idx].fetch_add(1, Ordering::Relaxed);
        let allocs = probe_allocs().saturating_sub(self.start_allocs);
        if allocs > 0 {
            self.tracer.allocs[self.idx].fetch_add(allocs, Ordering::Relaxed);
        }
        if let Some(hists) = self.tracer.hists.get() {
            hists[self.phase].record(elapsed.as_micros() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_into_their_lane() {
        let tracer = Tracer::new(&["oracle", "finalize"]);
        {
            let _span = tracer.span(1, 0);
            std::thread::sleep(Duration::from_millis(2));
        }
        {
            let _span = tracer.span(1, shard_lane(3));
        }
        assert!(tracer.lane_total(1, 0) >= Duration::from_millis(2));
        assert_eq!(tracer.span_count(1), 2);
        assert_eq!(tracer.span_count(0), 0);
        assert!(tracer.total(1) >= tracer.lane_total(1, 0));
    }

    #[test]
    fn alloc_probe_attributes_deltas_to_spans() {
        static TICKS: AtomicU64 = AtomicU64::new(0);
        fn fake_probe() -> u64 {
            // Advances on every read, so each span observes a delta of 1.
            TICKS.fetch_add(1, Ordering::Relaxed)
        }
        set_alloc_probe(fake_probe);
        let tracer = Tracer::new(&["oracle", "finalize"]);
        drop(tracer.span(0, 0));
        drop(tracer.span(0, shard_lane(2)));
        // Other tests in this process share the probe, so the delta is a
        // lower bound (each of our two spans observes at least one tick).
        assert!(tracer.phase_allocs(0) >= 2);
        assert_eq!(tracer.phase_allocs(1), 0);
        let registry = Registry::new();
        tracer.publish(&registry, "avmem");
        assert!(registry
            .render_prometheus()
            .contains("avmem_phase_allocs_total{phase=\"oracle\"}"));
    }

    #[test]
    fn attach_feeds_phase_histograms() {
        let registry = Registry::new();
        let tracer = Tracer::new(&["oracle"]);
        tracer.attach(&registry, "avmem");
        drop(tracer.span(0, 0));
        tracer.publish(&registry, "avmem");
        let text = registry.render_prometheus();
        assert!(text.contains("avmem_phase_span_us_count{phase=\"oracle\"} 1"));
        assert!(text.contains("avmem_phase_busy_ns{lane=\"coord\",phase=\"oracle\"}"));
    }
}
