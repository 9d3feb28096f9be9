//! The run timeline: what each scheduled arrival does and when it comes
//! (see the module docs of [`super`]), merged with the health and
//! rebuild lattices; the initiator bands; and the keyed draws of an
//! arrival's kind, target and initiator.

use avmem::AvailabilityTarget;
use avmem_sim::{SimDuration, SimTime};
use avmem_trace::ChurnTrace;
use avmem_util::{NodeId, Rng, SplitMix64};

use super::{STREAM_ARRIVAL, STREAM_MIX};
use crate::spec::{BandSpec, MaintenanceModeSpec, ScenarioSpec};

/// What one scheduled arrival does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum OpKind {
    Anycast { target: AvailabilityTarget },
    Multicast { target: AvailabilityTarget },
    FloodProbe,
}

/// One entry of the run timeline.
#[derive(Debug, Clone, Copy)]
pub(super) struct TimelineEvent {
    pub(super) at: SimTime,
    /// Tie order at equal instants: rebuilds first, then health samples,
    /// then operations in index order. Carried on the event so tests can
    /// pin the merge order; the execution loop only needs `what`.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(super) order: (u8, u64),
    pub(super) what: EventKind,
}

#[derive(Debug, Clone, Copy)]
pub(super) enum EventKind {
    Rebuild,
    Health,
    Op { index: u64 },
}

/// Merge key of a timeline event: instant plus the tie order.
pub(super) type EventKey = (SimTime, (u8, u64));

/// Which of the merged timeline sources produced a candidate event.
#[derive(Debug, Clone, Copy)]
pub(super) enum Source {
    Rebuild,
    Health,
    Arrival,
}

/// Lazy Poisson arrival source: exponential inter-arrival gaps, each
/// drawn from its own keyed stream. Bit-identical to eagerly drawing the
/// whole schedule up front — the accumulated `at_ms` float and the
/// per-index streams do not depend on when the draws happen.
#[derive(Debug, Clone)]
pub(super) struct ArrivalGen {
    seed: u64,
    mean_gap_ms: f64,
    at_ms: f64,
    end_ms: f64,
    index: u64,
    pending: Option<SimTime>,
}

impl ArrivalGen {
    pub(super) fn new(seed: u64, ops_per_hour: f64, warm_end: SimTime, end: SimTime) -> ArrivalGen {
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
    pub(super) fn draw(&mut self) {
        let mut gap_rng = SplitMix64::keyed(&[self.seed, STREAM_ARRIVAL, self.index]);
        // u ∈ [0, 1) keeps ln(1 - u) finite.
        let gap = -(1.0 - gap_rng.next_f64()).ln() * self.mean_gap_ms;
        self.at_ms += gap.max(1.0);
        self.pending =
            (self.at_ms < self.end_ms).then(|| SimTime::from_millis(self.at_ms as u64));
    }

    pub(super) fn peek(&self) -> Option<SimTime> {
        self.pending
    }

    pub(super) fn next_index(&self) -> u64 {
        self.index
    }

    /// Consumes the pending arrival, returning its op index.
    pub(super) fn pop(&mut self) -> u64 {
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
/// order: the sequence a sort of the whole schedule by `(at, order)`
/// would give.
#[derive(Debug, Clone)]
pub(super) struct Timeline {
    end: SimTime,
    health_at: SimTime,
    health_step: SimDuration,
    rebuild_at: Option<SimTime>,
    rebuild_step: SimDuration,
    arrivals: ArrivalGen,
}

impl Timeline {
    pub(super) fn new(spec: &ScenarioSpec, warm_end: SimTime, end: SimTime) -> Timeline {
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
    pub(super) fn peek(&self) -> Option<(EventKey, Source)> {
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

    pub(super) fn next(&mut self) -> Option<TimelineEvent> {
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
pub(super) struct BandIndex {
    /// The nodes of `Low`, `Mid` and `High`, each ascending.
    lists: [Vec<u32>; 3],
}

impl BandIndex {
    pub(super) fn build(trace: &ChurnTrace) -> BandIndex {
        let lists = [BandSpec::Low, BandSpec::Mid, BandSpec::High].map(|band| {
            (0..trace.num_nodes() as u32)
                .filter(|&i| band.contains(trace.long_term_availability(i as usize)))
                .collect()
        });
        BandIndex { lists }
    }

    pub(super) fn list(&self, band: BandSpec) -> &[u32] {
        match band {
            BandSpec::Any => &[],
            band => &self.lists[band as usize],
        }
    }
}

/// Draws one arrival's kind and target from its keyed mix stream.
pub(super) fn draw_kind(spec: &ScenarioSpec, index: u64) -> OpKind {
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
pub(super) fn draw_target<R: Rng>(spec: &ScenarioSpec, rng: &mut R) -> AvailabilityTarget {
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
pub(super) fn pick_from<R: Rng>(
    mut eligible: impl Iterator<Item = u32> + Clone,
    rng: &mut R,
) -> Option<NodeId> {
    let count = eligible.clone().count();
    let pick = (count > 0).then(|| rng.index(count))?;
    eligible.nth(pick).map(|i| NodeId::new(u64::from(i)))
}
