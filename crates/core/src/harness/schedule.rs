//! The event-driven maintenance calendar.
//!
//! Every node fires two strictly periodic events — a shuffle/discovery
//! tick and a refresh — each at a stagger offset drawn once on a coarse
//! lattice of its period ([`stagger_offset`]). Nodes that drew the same
//! offset fire together forever, so the whole schedule is a handful of
//! *slots* — one per `(kind, offset)`, at most [`STAGGER_COHORTS`] per
//! kind — and popping a timestamp cohort is a minimum over those slots'
//! next firing times. [`PeriodicWheel`] is that calendar: built once,
//! it never moves a node id again. (A priority queue of `2·N` events,
//! popped and re-pushed one event at a time, spent more per event than
//! some of the protocol steps the events stand for.)

use avmem_sim::{SimDuration, SimTime};
use avmem_util::{Rng, ShardPartition, SplitMix64};

use super::{STREAM_STAGGER_REFRESH, STREAM_STAGGER_TICK};

/// Stagger lattice: maintenance offsets are drawn on a grid of this many
/// cohorts per period, so nodes stay unsynchronized (no thundering herd)
/// while same-timestamp cohorts are large enough — `N / 16` nodes — for
/// the batch phases to spread across worker threads.
pub(super) const STAGGER_COHORTS: u64 = 16;

/// The deterministic stagger offset of `node`'s periodic event: a
/// uniformly random point on the [`STAGGER_COHORTS`]-slot lattice of one
/// period, keyed — not drawn from shared generator state — so schedule
/// construction order cannot perturb any other random decision.
pub(super) fn stagger_offset(
    seed: u64,
    tag: u64,
    node: usize,
    start: SimTime,
    period: SimDuration,
) -> SimDuration {
    let period_ms = period.as_millis().max(1);
    let quantum = (period_ms / STAGGER_COHORTS).max(1);
    let cohorts = period_ms / quantum;
    let mut rng = SplitMix64::keyed(&[seed, tag, node as u64, start.as_millis()]);
    SimDuration::from_millis(quantum * rng.range_u64(cohorts))
}

/// The two periodic maintenance events of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum MaintKind {
    /// Per-period shuffle + discovery.
    Tick,
    /// Periodic refresh.
    Refresh,
}

/// The nodes that drew one stagger offset for one kind of event: they
/// fire together, every `period`.
#[derive(Debug, Clone)]
struct Slot {
    kind: MaintKind,
    /// When the slot fires next.
    next: SimTime,
    period: SimDuration,
    /// The slot's nodes, ascending — and so grouped by owning shard, in
    /// shard order (shards own ascending contiguous id ranges).
    nodes: Vec<u32>,
    /// Shard `s` owns `nodes[bounds[s]..bounds[s + 1]]`.
    bounds: Vec<u32>,
}

/// The persistent maintenance calendar: every node's tick and refresh,
/// grouped into slots by stagger offset and popped one timestamp cohort
/// at a time. The cohort sequence — timestamps, and which events of which
/// shard fire at each — is exactly the one a priority queue of the same
/// `(node, first firing, period)` events yields when every popped event
/// is re-queued one period later (pinned by a differential test against
/// [`avmem_sim::Engine`]).
#[derive(Debug, Clone)]
pub(super) struct PeriodicWheel {
    slots: Vec<Slot>,
    /// Slots of the most recently popped cohort.
    fired: Vec<usize>,
}

impl PeriodicWheel {
    /// Staggers every node's tick and refresh on the period lattices,
    /// the first firings counted from `now`.
    pub(super) fn build(
        seed: u64,
        part: ShardPartition,
        now: SimTime,
        protocol_period: SimDuration,
        refresh_period: SimDuration,
    ) -> Self {
        let kinds = [
            (MaintKind::Tick, STREAM_STAGGER_TICK, protocol_period),
            (MaintKind::Refresh, STREAM_STAGGER_REFRESH, refresh_period),
        ];
        let mut slots: Vec<Slot> = Vec::new();
        for i in 0..part.len() {
            let node = u32::try_from(i).expect("node indexes fit u32");
            for (kind, stream, period) in kinds {
                let first = now + stagger_offset(seed, stream, i, now, period);
                // No slot has fired yet: `next` is still its first firing.
                let found = slots.iter().position(|s| s.kind == kind && s.next == first);
                let k = found.unwrap_or_else(|| {
                    slots.push(Slot {
                        kind,
                        next: first,
                        period,
                        nodes: Vec::new(),
                        bounds: Vec::new(),
                    });
                    slots.len() - 1
                });
                slots[k].nodes.push(node);
            }
        }
        for slot in &mut slots {
            slot.bounds = (0..part.shards())
                .map(|s| part.range(s).start)
                .chain([part.len()])
                .map(|start| slot.nodes.partition_point(|&i| (i as usize) < start) as u32)
                .collect();
        }
        PeriodicWheel {
            slots,
            fired: Vec::new(),
        }
    }

    /// Timestamp of the next cohort.
    pub(super) fn peek_time(&self) -> Option<SimTime> {
        self.slots.iter().map(|slot| slot.next).min()
    }

    /// Number of events scheduled. Every event on the wheel is pending
    /// between pops: a popped one is due again a period later — which is
    /// why this is no backlog, and only the tests read it.
    #[cfg(test)]
    pub(super) fn pending(&self) -> usize {
        self.slots.iter().map(|slot| slot.nodes.len()).sum()
    }

    /// Pops the next timestamp cohort if it is due at or before
    /// `deadline`: every slot firing then joins the cohort — readable
    /// through [`PeriodicWheel::due`] until the next pop — and moves one
    /// period on. `None` (and an empty cohort) when nothing is due by
    /// `deadline`.
    pub(super) fn pop_until(&mut self, deadline: SimTime) -> Option<SimTime> {
        self.fired.clear();
        let t = self.peek_time().filter(|&t| t <= deadline)?;
        for (k, slot) in self.slots.iter_mut().enumerate() {
            if slot.next == t {
                slot.next = t + slot.period;
                self.fired.push(k);
            }
        }
        Some(t)
    }

    /// Shard `s`'s events of the last popped cohort: per firing slot, its
    /// kind and the shard's nodes in it, ascending.
    pub(super) fn due(&self, s: usize) -> impl Iterator<Item = (MaintKind, &[u32])> + '_ {
        self.fired.iter().map(move |&k| {
            let slot = &self.slots[k];
            let (start, end) = (slot.bounds[s] as usize, slot.bounds[s + 1] as usize);
            (slot.kind, &slot.nodes[start..end])
        })
    }

    /// Number of events in the last popped cohort, over all shards.
    pub(super) fn due_events(&self) -> usize {
        self.fired.iter().map(|&k| self.slots[k].nodes.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avmem_sim::Engine;
    use proptest::prelude::*;

    /// The schedule as an event heap runs it: the same `(node, first
    /// firing, period)` events in one [`Engine`], every popped event
    /// re-queued one period later.
    struct HeapSchedule {
        engine: Engine<(MaintKind, u32)>,
        protocol_period: SimDuration,
        refresh_period: SimDuration,
    }

    impl HeapSchedule {
        fn build(
            seed: u64,
            n: usize,
            now: SimTime,
            protocol_period: SimDuration,
            refresh_period: SimDuration,
        ) -> Self {
            let mut engine = Engine::new();
            for i in 0..n {
                let tick = stagger_offset(seed, STREAM_STAGGER_TICK, i, now, protocol_period);
                let refresh = stagger_offset(seed, STREAM_STAGGER_REFRESH, i, now, refresh_period);
                engine.schedule(now + tick, (MaintKind::Tick, i as u32));
                engine.schedule(now + refresh, (MaintKind::Refresh, i as u32));
            }
            HeapSchedule {
                engine,
                protocol_period,
                refresh_period,
            }
        }

        fn pop_until(
            &mut self,
            deadline: SimTime,
            batch: &mut Vec<(MaintKind, u32)>,
        ) -> Option<SimTime> {
            let t = self.engine.pop_batch_until(deadline, batch)?;
            for &(kind, node) in batch.iter() {
                let period = match kind {
                    MaintKind::Tick => self.protocol_period,
                    MaintKind::Refresh => self.refresh_period,
                };
                self.engine.schedule(t + period, (kind, node));
            }
            Some(t)
        }
    }

    /// Shard `s`'s events of the wheel's last cohort, in a canonical order.
    fn due_sorted(wheel: &PeriodicWheel, s: usize) -> Vec<(u8, u32)> {
        let mut events: Vec<(u8, u32)> = wheel
            .due(s)
            .flat_map(|(kind, nodes)| nodes.iter().map(move |&i| (kind as u8, i)))
            .collect();
        events.sort_unstable();
        events
    }

    /// Drives a wheel and the heap reference through `deadlines` and
    /// compares every cohort; returns how many cohorts held two slots.
    fn differential(
        seed: u64,
        n: usize,
        shards: usize,
        start: SimTime,
        periods: (SimDuration, SimDuration),
        deadlines: &[SimTime],
    ) -> usize {
        let part = ShardPartition::new(n, shards);
        let mut wheel = PeriodicWheel::build(seed, part, start, periods.0, periods.1);
        let mut heap = HeapSchedule::build(seed, n, start, periods.0, periods.1);
        let mut batch = Vec::new();
        let mut doubles = 0;
        for &deadline in deadlines {
            loop {
                assert_eq!(wheel.peek_time(), heap.engine.peek_time());
                assert_eq!(wheel.pending(), heap.engine.pending());
                let t = wheel.pop_until(deadline);
                assert_eq!(t, heap.pop_until(deadline, &mut batch), "cohort timestamp");
                assert_eq!(wheel.due_events(), batch.len(), "cohort size at {t:?}");
                for s in 0..part.shards() {
                    let mut expect: Vec<(u8, u32)> = batch
                        .iter()
                        .filter(|&&(_, i)| part.owner(i as usize) == s)
                        .map(|&(kind, i)| (kind as u8, i))
                        .collect();
                    expect.sort_unstable();
                    assert_eq!(due_sorted(&wheel, s), expect, "shard {s} at {t:?}");
                    for (_, nodes) in wheel.due(s) {
                        assert!(nodes.windows(2).all(|w| w[0] < w[1]), "unsorted slice");
                    }
                }
                if t.is_none() {
                    break;
                }
                doubles += usize::from(wheel.fired.len() > 1);
            }
        }
        doubles
    }

    /// Periods as `(protocol, refresh)` in ms: protocol periods below the
    /// 16-slot lattice and above it; refresh periods equal to, multiples
    /// of, and incommensurate with the protocol period.
    fn periods() -> impl Strategy<Value = (u64, u64)> {
        let protocol = prop_oneof![1u64..16, 16u64..400];
        (
            protocol,
            prop_oneof![Just(1u64), 2u64..=20],
            any::<bool>(),
            any::<u64>(),
        )
            .prop_map(|(protocol, mult, skew, extra)| {
                let skew = if skew { extra % protocol } else { 0 };
                (protocol, protocol * mult + skew)
            })
    }

    proptest! {
        #[test]
        fn wheel_replays_the_event_heap(
            seed in any::<u64>(),
            n in 0usize..48,
            shards in 1usize..64,
            start in prop_oneof![Just(0u64), 1u64..100_000],
            (protocol, refresh) in periods(),
            steps in proptest::collection::vec((0u64..=3, 0u64..1000), 1..7),
        ) {
            // Chopped advances: each deadline up to three refresh periods
            // past the last (sometimes not past it at all).
            let mut deadline = start;
            let deadlines: Vec<SimTime> = steps
                .iter()
                .map(|&(whole, frac)| {
                    deadline += whole * refresh + frac * refresh / 1000;
                    SimTime::from_millis(deadline)
                })
                .collect();
            differential(
                seed,
                n,
                shards,
                SimTime::from_millis(start),
                (SimDuration::from_millis(protocol), SimDuration::from_millis(refresh)),
                &deadlines,
            );
        }
    }

    #[test]
    fn equal_periods_fire_ticks_and_refreshes_in_one_cohort() {
        // Guards the property above against vacuity: with both periods
        // equal, the two kinds share a lattice and most cohorts hold a
        // tick slot and a refresh slot at once.
        let period = SimDuration::from_secs(8);
        let deadlines = [SimTime::from_millis(3_000), SimTime::from_millis(40_000)];
        let doubles = differential(5, 200, 3, SimTime::ZERO, (period, period), &deadlines);
        assert!(doubles >= 16, "only {doubles} two-slot cohorts");
    }

    #[test]
    fn a_refused_pop_leaves_no_cohort_and_moves_nothing() {
        let part = ShardPartition::new(10, 2);
        let (tick, refresh) = (SimDuration::from_secs(60), SimDuration::from_mins(20));
        let mut wheel = PeriodicWheel::build(1, part, SimTime::from_millis(500), tick, refresh);
        let first = wheel.peek_time().expect("ten nodes scheduled");
        assert!(
            first >= SimTime::from_millis(500),
            "fired before the build instant"
        );
        assert_eq!(wheel.pop_until(first), Some(first));
        assert!(wheel.due_events() > 0);
        let next = wheel.peek_time().expect("periodic");
        assert!(next > first);
        assert_eq!(wheel.pop_until(first), None);
        assert_eq!((wheel.due_events(), wheel.due(0).count()), (0, 0));
        assert_eq!((wheel.peek_time(), wheel.pending()), (Some(next), 20));
    }

    #[test]
    fn an_empty_population_schedules_nothing() {
        let period = SimDuration::from_secs(1);
        let mut wheel =
            PeriodicWheel::build(1, ShardPartition::new(0, 4), SimTime::ZERO, period, period);
        assert_eq!((wheel.peek_time(), wheel.pending()), (None, 0));
        assert_eq!(wheel.pop_until(SimTime::MAX), None);
    }
}
