//! The full simulation-backed AVMON service.
//!
//! [`AvmonService`] runs the complete monitoring pipeline over a churn
//! trace: consistent monitor assignment, per-slot pinging by online
//! monitors, per-target estimate aggregation (median of monitor
//! estimates), and caching of the last aggregate for targets whose
//! monitors are all offline. Queries therefore exhibit the exact
//! imperfections the paper's §4.1 attack analysis attributes to AVMON:
//! estimates are stale (refreshed once per probe slot), noisy (monitors
//! ping at finite rate, pings can be lost), and slightly inconsistent
//! over time.
//!
//! # Architecture
//!
//! Either assignment strategy ([`AssignmentChoice`]) is a static relation
//! over ids, and the service keeps it as **one index**: a target-major
//! CSR (`n + 1` `u32` offsets) whose row `t` lists the monitors of target
//! `t`, with a columnar estimator arena aligned edge for edge — an
//! 8-byte `(hits, attempts)` slot per edge, and an EWMA per edge only
//! when the service serves aged estimates ([`AvmonConfig::use_aged`]).
//! The strategies differ only in when the rows fill:
//!
//! * **Ring** — [`ring_rows`] sweeps every target's `k` monitors at
//!   construction, over all hosts, and the [`NO_MONITOR`] slots of a
//!   population of `k` or fewer are dropped, so the offsets are regular.
//!   Nothing rewrites a row: an offline monitor misses its pings until
//!   it returns, its estimator history intact.
//! * **All-pairs** — a monitor's edges are hashed from the rule in the
//!   first slot that finds it online (before that it neither pings nor
//!   contributes to a median, and one that stays offline is never
//!   hashed). That slot merges them into the rows in place: the rows move
//!   up, last first, and each gains its new monitors in ascending id, so
//!   a row lists its monitors in first-online order — a function of the
//!   trace alone.
//!
//! The per-target aggregate is one `f64`, NaN until a monitor first
//! reports.
//!
//! [`AvmonService::step_to`] processes each slot in **one parallel
//! sweep** over shard-owned target ranges on the persistent worker pool
//! ([`avmem_util::parallel`]): for each target, every online monitor of
//! its row pings it, and the median of their estimates is read from the
//! same row. Ping-loss randomness is **counter-keyed**, one stream per
//! `(seed, monitor, target, slot)`, so the outcome of a slot is a pure
//! function of the key material — independent of processing order and
//! thread count.
//!
//! Results are bit-identical for every thread count; the
//! `service_equivalence` integration tests pin both strategies to one
//! serial reference, fed the all-pairs relation from the rule and the
//! ring from a brute-force walk of the sorted ring.

use avmem_sim::{SimDuration, SimTime};
use avmem_trace::ChurnTrace;
use avmem_util::parallel::{default_threads, par_chunks_mut, par_each_mut};
use avmem_util::ShardPartition;
use avmem_util::{Availability, NodeId, Rng, SplitMix64};
use serde::{Deserialize, Serialize};

use crate::assignment::{ring_rows, AllPairsAssignment, NO_MONITOR};
use crate::estimator::PingCounts;
use crate::oracle::AvailabilityOracle;

/// Purpose tag of the ping-loss streams, keyed per edge and slot: every
/// draw comes from `SplitMix64::keyed(&[seed, STREAM_PING_EDGE, monitor,
/// target, slot])`, so each ping is a pure function of who pings whom
/// and when, never of which worker processed it or in which order.
const STREAM_PING_EDGE: u64 = 0x4156_4d4f_4e51;

/// An aggregate slot no monitor has estimated yet.
const NO_ESTIMATE: f64 = f64::NAN;

/// Which monitor-assignment strategy the service builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum AssignmentChoice {
    /// The paper's all-pairs hash-threshold rule: O(N) hashes per monitor
    /// the run sees online (O(N²) in all), exact reference randomness.
    #[default]
    AllPairs,
    /// Consistent-hash-ring successors over all hosts: `k` monitors per
    /// target, O(N·vnodes) hashes and one sweep of the sorted ring at
    /// set-up, fixed for the run.
    Ring {
        /// Virtual ring points per host (load-balance knob).
        vnodes: u32,
        /// Monitors per target (the ring's analogue of `cms`).
        k: u32,
    },
}

/// Configuration of the AVMON service.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AvmonConfig {
    /// Expected number of monitors per node (`cms`) — the all-pairs
    /// strategy's density knob.
    pub cms: f64,
    /// EWMA smoothing factor for aged estimates, in `(0, 1]`.
    pub alpha: f64,
    /// Probability that a ping to an *online* target is lost anyway, in
    /// `[0, 1]`.
    pub ping_loss: f64,
    /// Serve aged (EWMA) estimates instead of raw lifetime fractions.
    pub use_aged: bool,
    /// Monitor-assignment strategy (all-pairs reference by default).
    pub assignment: AssignmentChoice,
}

impl Default for AvmonConfig {
    fn default() -> Self {
        AvmonConfig {
            cms: 8.0,
            alpha: 0.05,
            ping_loss: 0.0,
            use_aged: false,
            assignment: AssignmentChoice::AllPairs,
        }
    }
}

/// A ping-based availability monitoring service over a churn trace.
///
/// Drive it forward with [`AvmonService::step_to`]; query it through the
/// [`AvailabilityOracle`] impl. Estimates reflect only the slots
/// processed so far.
///
/// # Examples
///
/// ```
/// use avmem_avmon::{AvailabilityOracle, AvmonConfig, AvmonService};
/// use avmem_sim::{SimDuration, SimTime};
/// use avmem_trace::OvernetModel;
/// use avmem_util::NodeId;
///
/// let trace = OvernetModel::default().hosts(60).days(1).generate(3);
/// let mut service = AvmonService::new(&trace, AvmonConfig::default(), 42);
/// let noon = SimTime::ZERO + SimDuration::from_hours(12);
/// service.step_to(&trace, noon);
/// // After half a day of pinging, most nodes have estimates.
/// let known = (0..60)
///     .filter(|&i| service.estimate(NodeId::new(0), NodeId::new(i), noon).is_some())
///     .count();
/// assert!(known > 30);
/// ```
#[derive(Debug, Clone)]
pub struct AvmonService {
    config: AvmonConfig,
    /// Seed of the counter-keyed ping-loss streams.
    seed: u64,
    /// Thread count of the parallel slot sweep, which partitions the
    /// targets into as many shards. Results are bit-identical for every
    /// value; see [`AvmonService::set_threads`].
    threads: usize,
    /// Target-major CSR: target `t` is observed by
    /// `monitors[offsets[t]..offsets[t + 1]]`.
    offsets: Vec<u32>,
    monitors: Vec<u32>,
    /// Estimator arena aligned edge for edge with `monitors`.
    estimators: Estimators,
    /// All-pairs only: the relation the rows are hashed from, and one bit
    /// per monitor whose edges the index holds (set by the first slot
    /// that finds the monitor online).
    all_pairs: Option<(AllPairsAssignment, Vec<u64>)>,
    /// Aggregated (median) estimate per target, refreshed each processed
    /// slot from the monitors online in that slot; retains the previous
    /// value when no monitor is online (staleness). [`NO_ESTIMATE`] until
    /// the first: 8 bytes a target, where an `Option` took 16.
    aggregate: Vec<f64>,
    next_slot: usize,
    /// Wall cost per processed slot, present once
    /// [`AvmonService::set_metrics`] attaches a registry (its count is
    /// the slots processed).
    slot_us: Option<avmem_metrics::Histogram>,
}

impl AvmonService {
    /// Builds the service for a trace population under the strategy in
    /// `config.assignment`. All-pairs hashes nothing here: a monitor's
    /// edges are hashed by the first slot that finds the monitor online
    /// ([`AvmonService::step_to`]), so the O(N) hashes per monitor are
    /// paid by the run, for the monitors it sees. Ring fills every
    /// target's row now, over all hosts, in one sweep of the sorted ring
    /// ([`ring_rows`]), and keeps only the rows. `seed` drives ping-loss
    /// randomness only.
    ///
    /// # Panics
    ///
    /// Panics if `config.ping_loss` is NaN or outside `[0, 1]`, or
    /// `config.alpha` is not in `(0, 1]` — a probability and a smoothing
    /// factor no run can mean.
    pub fn new(trace: &ChurnTrace, config: AvmonConfig, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.ping_loss),
            "ping_loss must be in [0, 1], got {}",
            config.ping_loss
        );
        assert!(
            config.alpha > 0.0 && config.alpha <= 1.0,
            "alpha must be in (0, 1], got {}",
            config.alpha
        );
        let n = trace.num_nodes();
        let (offsets, monitors, all_pairs) = match config.assignment {
            AssignmentChoice::AllPairs => {
                let rule = AllPairsAssignment::new(config.cms, n as f64);
                let seen = vec![0; n.div_ceil(64)];
                (vec![0; n + 1], Vec::new(), Some((rule, seen)))
            }
            AssignmentChoice::Ring { vnodes, k } => {
                // Compact the fixed-width rows in place, dropping the
                // vacant slots.
                let mut monitors = ring_rows(n, vnodes, k);
                let k = k as usize;
                let mut offsets = Vec::with_capacity(n + 1);
                offsets.push(0);
                let mut len = 0;
                for t in 0..n {
                    for slot in t * k..(t + 1) * k {
                        if monitors[slot] != NO_MONITOR {
                            monitors[len] = monitors[slot];
                            len += 1;
                        }
                    }
                    offsets.push(index_width(len));
                }
                monitors.truncate(len);
                (offsets, monitors, None)
            }
        };
        AvmonService {
            config,
            seed,
            threads: default_threads(),
            estimators: Estimators::new(monitors.len(), config.use_aged),
            offsets,
            monitors,
            all_pairs,
            aggregate: vec![NO_ESTIMATE; n],
            next_slot: 0,
            slot_us: None,
        }
    }

    /// Attaches a metrics registry: every processed slot records its
    /// wall cost into the `avmem_avmon_slot_us` histogram, whose count is
    /// the slots processed. Observation only — estimates are
    /// bit-identical with or without a registry.
    pub fn set_metrics(&mut self, registry: &avmem_metrics::Registry) {
        self.slot_us = Some(registry.histogram(
            "avmem_avmon_slot_us",
            "Wall cost per processed AVMON slot (µs).",
            &[],
        ));
    }

    /// The assignment strategy in force.
    pub fn assignment(&self) -> AssignmentChoice {
        self.config.assignment
    }

    /// Sets the thread count of the parallel slot sweep: each of as many
    /// shards owns the contiguous index rows, estimator-arena runs and
    /// aggregates of its targets, the maintenance harness's ownership
    /// map. Purely a performance knob: every thread count produces
    /// bit-identical estimates (per-edge randomness is keyed and every
    /// row's computation is independent), which the `service_equivalence`
    /// tests pin.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// The monitors of `target` (by index) in this population, ascending.
    /// All-pairs answers from the rule — one batched column of `N` hashes
    /// — so the answer is the same pure function of ids before the first
    /// slot and after any (the index holds only the monitors seen online
    /// so far); ring reads the index row, in `O(k)`.
    pub fn monitors_of_index(&self, target: usize) -> Vec<usize> {
        if let Some((rule, _)) = &self.all_pairs {
            let ids: Vec<NodeId> = (0..self.aggregate.len() as u64).map(NodeId::new).collect();
            return rule.monitors_in(ids[target], &ids);
        }
        let row = self.offsets[target] as usize..self.offsets[target + 1] as usize;
        let mut row: Vec<usize> = self.monitors[row].iter().map(|&m| m as usize).collect();
        row.sort_unstable();
        row
    }

    /// Processes all trace slots with start time `<= now` that have not
    /// been processed yet: every online monitor pings its targets once
    /// per slot (an all-pairs monitor's edges are hashed by the first
    /// slot that finds it online), then per-target aggregates are
    /// refreshed. Chopping the advance into several calls is identical
    /// to one big call.
    pub fn step_to(&mut self, trace: &ChurnTrace, now: SimTime) {
        let slot_ms = trace.slot_duration().as_millis();
        let last_slot = ((now.as_millis() / slot_ms) as usize).min(trace.num_slots() - 1);
        while self.next_slot <= last_slot {
            let t0 = self.slot_us.as_ref().map(|_| std::time::Instant::now());
            self.process_slot(trace, self.next_slot);
            if let (Some(slot_us), Some(t0)) = (self.slot_us.as_ref(), t0) {
                slot_us.record(t0.elapsed().as_micros() as u64);
            }
            self.next_slot += 1;
        }
    }

    /// One slot of the monitoring pipeline: the edges of newly seen
    /// all-pairs monitors, then one parallel sweep over shard-owned
    /// target ranges — each target's online monitors ping it, and its
    /// aggregate is the median of their estimates. Values are sorted
    /// before taking the median, so row order never shows in the result.
    fn process_slot(&mut self, trace: &ChurnTrace, slot: usize) {
        self.merge_first_online_in(trace, slot);
        let config = self.config;
        let seed = self.seed;
        let (offsets, monitors) = (&self.offsets, &self.monitors);
        let part = ShardPartition::new(self.aggregate.len(), self.threads);
        let mut tasks = Vec::with_capacity(part.shards());
        let mut aggregate = &mut self.aggregate[..];
        let mut arena = self.estimators.as_mut();
        for s in 0..part.shards() {
            let range = part.range(s);
            let (head, tail) = aggregate.split_at_mut(range.len());
            let edges = offsets[range.end] - offsets[range.start];
            let (run, rest) = arena.split_at_mut(edges as usize);
            tasks.push((range.start, head, run));
            aggregate = tail;
            arena = rest;
        }
        par_each_mut(&mut tasks, self.threads, |_, (first, aggregate, run)| {
            let first = *first;
            let base = offsets[first] as usize;
            let mut values: Vec<f64> = Vec::new();
            for (t, slot_agg) in (first..).zip(aggregate.iter_mut()) {
                // The loss draw happens only for online targets, mirroring
                // a real ping: a down host loses the ping deterministically,
                // no coin needed.
                let target_online = trace.is_online_in_slot(t, slot);
                values.clear();
                let row = offsets[t] as usize..offsets[t + 1] as usize;
                for (j, &m) in (row.start - base..).zip(&monitors[row]) {
                    if !trace.is_online_in_slot(m as usize, slot) {
                        continue;
                    }
                    let answered = target_online
                        && (config.ping_loss <= 0.0 || {
                            let edge = [seed, STREAM_PING_EDGE, m.into(), t as u64, slot as u64];
                            !SplitMix64::keyed(&edge).chance(config.ping_loss)
                        });
                    values.push(run.record(j, answered, config.alpha));
                }
                if !values.is_empty() {
                    values.sort_by(|a, b| a.partial_cmp(b).expect("estimates are never NaN"));
                    *slot_agg = values[values.len() / 2];
                }
                // else: keep the stale cached aggregate (or none).
            }
        });
    }

    /// All-pairs strategy only: merges the edges of every monitor that is
    /// online in `slot` and has none yet. Each monitor's targets are an
    /// independent N-scan of the consistent-assignment hash, so the
    /// slot's new monitors are hashed in parallel (each one batch). The
    /// rows then move up in place, last first, both arena columns with
    /// them, and each gains its new monitors in ascending id with fresh
    /// estimators. A monitor never records a ping nor contributes to a
    /// median before the first slot it is online in, so an estimator born
    /// here has missed nothing; a slot that meets no new monitor changes
    /// nothing.
    fn merge_first_online_in(&mut self, trace: &ChurnTrace, slot: usize) {
        let Some((rule, seen)) = &mut self.all_pairs else {
            return;
        };
        let n = self.aggregate.len();
        let new: Vec<u32> = (0..n as u32)
            .filter(|&m| seen[m as usize / 64] >> (m % 64) & 1 == 0)
            .filter(|&m| trace.is_online_in_slot(m as usize, slot))
            .collect();
        if new.is_empty() {
            return;
        }
        for &m in &new {
            seen[m as usize / 64] |= 1 << (m % 64);
        }
        let rule = *rule;
        let ids: Vec<NodeId> = trace.node_ids().collect();
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); new.len()];
        par_chunks_mut(&mut rows, 1, self.threads, |offset, chunk| {
            let mut hashes = Vec::new();
            for (j, row) in chunk.iter_mut().enumerate() {
                rule.targets_in(ids[new[offset + j] as usize], &ids, &mut hashes, row);
            }
        });
        // `cursor[t]` counts target `t`'s new edges, then becomes where
        // the next one is written.
        let mut cursor = vec![0u32; n];
        for &t in rows.iter().flatten() {
            cursor[t as usize] += 1;
        }
        let old_len = self.monitors.len();
        let mut shift = rows.iter().map(Vec::len).sum::<usize>();
        let len = old_len + shift;
        self.monitors.resize(len, NO_MONITOR);
        self.estimators.resize(len);
        let mut old_end = old_len;
        for t in (0..n).rev() {
            let old_start = self.offsets[t] as usize;
            let added = cursor[t] as usize;
            shift -= added;
            let start = old_start + shift;
            self.monitors.copy_within(old_start..old_end, start);
            self.estimators.copy_within(old_start..old_end, start);
            let end = start + old_end - old_start;
            self.estimators.reset(end..end + added);
            self.offsets[t + 1] = index_width(end + added);
            cursor[t] = end as u32;
            old_end = old_start;
        }
        for (&m, row) in new.iter().zip(&rows) {
            for &t in row {
                self.monitors[cursor[t as usize] as usize] = m;
                cursor[t as usize] += 1;
            }
        }
    }

    /// Number of rows of the relation materialised so far: all-pairs
    /// merges a monitor's row (its targets) in the first processed slot
    /// that finds it online; ring fills every target's row up front.
    pub fn rows_built(&self) -> usize {
        match &self.all_pairs {
            Some((_, seen)) => seen.iter().map(|w| w.count_ones() as usize).sum(),
            None => self.aggregate.len(),
        }
    }

    /// Number of slots processed so far.
    pub fn slots_processed(&self) -> usize {
        self.next_slot
    }

    /// Mean absolute estimation error against the trace's ground truth,
    /// over targets with an estimate.
    pub fn mean_absolute_error(&self, trace: &ChurnTrace) -> Option<f64> {
        let mut total = 0.0;
        let mut count = 0usize;
        for (i, &est) in self.aggregate.iter().enumerate() {
            if let Some(av) = stored(est) {
                total += (av.value() - trace.long_term_availability(i).value()).abs();
                count += 1;
            }
        }
        if count == 0 {
            None
        } else {
            Some(total / count as f64)
        }
    }
}

/// `len` as an index offset.
///
/// # Panics
///
/// Panics if the index outgrows `u32` offsets.
fn index_width(len: usize) -> u32 {
    u32::try_from(len).expect("monitor-target pairs exceed the index width")
}

/// The estimator arena, a column per field: `(hits, attempts)` per edge,
/// and the EWMA per edge only when the service serves aged estimates —
/// otherwise nothing reads it, and it is not allocated.
#[derive(Debug, Clone)]
struct Estimators {
    counts: Vec<PingCounts>,
    aged: Option<Vec<f64>>,
}

impl Estimators {
    /// `len` fresh estimators, with an EWMA column iff `aged`.
    fn new(len: usize, aged: bool) -> Self {
        Estimators {
            counts: vec![PingCounts::default(); len],
            aged: aged.then(|| vec![0.0; len]),
        }
    }

    /// Grows the arena to `len` slots, new ones fresh.
    fn resize(&mut self, len: usize) {
        self.counts.resize(len, PingCounts::default());
        if let Some(aged) = &mut self.aged {
            aged.resize(len, 0.0);
        }
    }

    /// Copies the slots of `src` to start at `dest`, both columns.
    fn copy_within(&mut self, src: std::ops::Range<usize>, dest: usize) {
        self.counts.copy_within(src.clone(), dest);
        if let Some(aged) = &mut self.aged {
            aged.copy_within(src, dest);
        }
    }

    /// Makes the slots of `range` fresh estimators.
    fn reset(&mut self, range: std::ops::Range<usize>) {
        self.counts[range.clone()].fill(PingCounts::default());
        if let Some(aged) = &mut self.aged {
            aged[range].fill(0.0);
        }
    }

    fn as_mut(&mut self) -> EstimatorsMut<'_> {
        EstimatorsMut {
            counts: &mut self.counts,
            aged: self.aged.as_deref_mut(),
        }
    }
}

/// A run of the arena's slots, both columns, for one writer.
struct EstimatorsMut<'a> {
    counts: &'a mut [PingCounts],
    aged: Option<&'a mut [f64]>,
}

impl EstimatorsMut<'_> {
    /// Records one ping outcome at slot `j` of the run and returns the
    /// slot's estimate after it — aged if the arena keeps the EWMA, raw
    /// otherwise.
    #[inline]
    fn record(&mut self, j: usize, answered: bool, alpha: f64) -> f64 {
        let counts = &mut self.counts[j];
        let aged = self.aged.as_mut().map(|aged| {
            aged[j] = counts.fold_aged(aged[j], answered, alpha);
            aged[j]
        });
        counts.record(answered);
        let estimate = match aged {
            Some(aged) => counts.aged(aged),
            None => counts.raw(),
        };
        estimate.expect("a pinged edge has an estimate").value()
    }

    /// Splits the run at slot `mid`.
    fn split_at_mut(self, mid: usize) -> (Self, Self) {
        let (counts, rest) = self.counts.split_at_mut(mid);
        let (aged, aged_rest) = match self.aged {
            Some(aged) => {
                let (head, tail) = aged.split_at_mut(mid);
                (Some(head), Some(tail))
            }
            None => (None, None),
        };
        (
            EstimatorsMut { counts, aged },
            EstimatorsMut {
                counts: rest,
                aged: aged_rest,
            },
        )
    }
}

/// An aggregate slot's estimate: `None` while it holds [`NO_ESTIMATE`]
/// (NaN, which compares false), the stored value otherwise — always in
/// `[0, 1]`, where `saturating` is the identity. One comparison: as
/// cheap per estimate as copying out a 16-byte `Option` was.
#[inline]
fn stored(aggregate: f64) -> Option<Availability> {
    (aggregate >= 0.0).then(|| Availability::saturating(aggregate))
}

impl AvailabilityOracle for AvmonService {
    fn estimate(&self, _querier: NodeId, target: NodeId, _now: SimTime) -> Option<Availability> {
        self.aggregate
            .get(target.raw() as usize)
            .and_then(|&a| stored(a))
    }

    fn estimate_batch(
        &self,
        _querier: NodeId,
        targets: &[NodeId],
        _now: SimTime,
        out: &mut Vec<Option<Availability>>,
    ) {
        // One gather over the aggregate table instead of N dispatched
        // calls; answers are querier-independent (the aggregated median
        // every client receives).
        out.clear();
        out.extend(targets.iter().map(|t| {
            self.aggregate
                .get(t.raw() as usize)
                .and_then(|&a| stored(a))
        }));
    }
}

/// Staleness period helper: the paper refreshes AVMEM entries every 20
/// minutes; AVMON estimates refresh once per trace slot. This constant is
/// the paper's default refresh period.
pub const DEFAULT_REFRESH_PERIOD: SimDuration = SimDuration::from_mins(20);

#[cfg(test)]
mod tests {
    use super::*;
    use avmem_trace::OvernetModel;

    fn small_trace() -> ChurnTrace {
        OvernetModel::default().hosts(80).days(2).generate(5)
    }

    fn ring_config() -> AvmonConfig {
        AvmonConfig {
            assignment: AssignmentChoice::Ring { vnodes: 8, k: 8 },
            ..AvmonConfig::default()
        }
    }

    #[test]
    fn estimates_appear_after_stepping() {
        let trace = small_trace();
        let mut service = AvmonService::new(&trace, AvmonConfig::default(), 1);
        let q = NodeId::new(0);
        assert!(service.estimate(q, NodeId::new(1), SimTime::ZERO).is_none());
        service.step_to(&trace, SimTime::ZERO + SimDuration::from_hours(24));
        let known = (0..trace.num_nodes())
            .filter(|&i| service.estimate(q, trace.node_id(i), SimTime::ZERO).is_some())
            .count();
        assert!(known > trace.num_nodes() / 2, "only {known} known");
    }

    #[test]
    fn estimates_converge_to_truth() {
        let trace = small_trace();
        let mut service = AvmonService::new(&trace, AvmonConfig::default(), 1);
        service.step_to(&trace, SimTime::ZERO + trace.duration());
        let mae = service.mean_absolute_error(&trace).unwrap();
        assert!(mae < 0.12, "mean absolute error {mae} too large");
    }

    #[test]
    fn ring_estimates_track_truth() {
        // The ring is as fixed a relation as all-pairs: an edge's
        // estimator sees the whole run, an offline monitor only pauses
        // it. The bound is all-pairs' 0.12.
        let trace = small_trace();
        let mut service = AvmonService::new(&trace, ring_config(), 1);
        service.step_to(&trace, SimTime::ZERO + trace.duration());
        let mae = service.mean_absolute_error(&trace).unwrap();
        assert!(mae < 0.12, "ring mean absolute error {mae} too large");
    }

    #[test]
    fn ring_mae_meets_all_pairs_over_a_day() {
        // 400 Overnet hosts on a two-day trace, a day of pinging: the ring
        // over all hosts reads 0.0550 / 0.0574 against all-pairs' 0.0544 /
        // 0.0596. A ring that follows who is online restarts every
        // reassigned edge's estimator, and reads ≈ 0.20 here.
        let day = SimTime::ZERO + SimDuration::from_hours(24);
        for seed in [1, 2] {
            let trace = OvernetModel::default().hosts(400).days(2).generate(seed);
            let mae = |assignment| {
                let config = AvmonConfig {
                    assignment,
                    ..AvmonConfig::default()
                };
                let mut service = AvmonService::new(&trace, config, seed);
                service.step_to(&trace, day);
                service.mean_absolute_error(&trace).unwrap()
            };
            let all_pairs = mae(AssignmentChoice::AllPairs);
            let ring = mae(ring_config().assignment);
            assert!(
                ring <= 1.25 * all_pairs,
                "seed {seed}: ring MAE {ring} against all-pairs {all_pairs}"
            );
        }
    }

    #[test]
    fn ping_loss_biases_estimates_down() {
        let trace = small_trace();
        let mut clean = AvmonService::new(&trace, AvmonConfig::default(), 1);
        let lossy_cfg = AvmonConfig {
            ping_loss: 0.4,
            ..AvmonConfig::default()
        };
        let mut lossy = AvmonService::new(&trace, lossy_cfg, 1);
        let end = SimTime::ZERO + trace.duration();
        clean.step_to(&trace, end);
        lossy.step_to(&trace, end);
        let q = NodeId::new(0);
        let mut clean_sum = 0.0;
        let mut lossy_sum = 0.0;
        let mut count = 0;
        for i in 0..trace.num_nodes() {
            let x = trace.node_id(i);
            if let (Some(c), Some(l)) = (
                clean.estimate(q, x, end),
                lossy.estimate(q, x, end),
            ) {
                clean_sum += c.value();
                lossy_sum += l.value();
                count += 1;
            }
        }
        assert!(count > 0);
        assert!(
            lossy_sum < clean_sum,
            "loss should depress estimates: lossy {lossy_sum} vs clean {clean_sum}"
        );
    }

    #[test]
    fn stepping_is_idempotent_for_same_time() {
        let trace = small_trace();
        let mut service = AvmonService::new(&trace, AvmonConfig::default(), 1);
        let t = SimTime::ZERO + SimDuration::from_hours(6);
        service.step_to(&trace, t);
        let processed = service.slots_processed();
        service.step_to(&trace, t);
        assert_eq!(service.slots_processed(), processed);
    }

    #[test]
    fn aggregates_persist_when_monitors_go_offline() {
        // Even in harsh churn some aggregate survives via caching.
        let trace = OvernetModel::default()
            .hosts(60)
            .days(1)
            .mixture(1.0, (0.05, 0.2), 0.0, (0.5, 0.5), (0.9, 1.0))
            .generate(8);
        let mut service = AvmonService::new(&trace, AvmonConfig::default(), 2);
        service.step_to(&trace, SimTime::ZERO + trace.duration());
        let q = NodeId::new(0);
        let known = (0..trace.num_nodes())
            .filter(|&i| service.estimate(q, trace.node_id(i), SimTime::ZERO).is_some())
            .count();
        assert!(known > 0, "no estimates survived");
    }

    #[test]
    fn aged_mode_serves_estimates() {
        let trace = small_trace();
        let cfg = AvmonConfig {
            use_aged: true,
            ..AvmonConfig::default()
        };
        let mut service = AvmonService::new(&trace, cfg, 1);
        service.step_to(&trace, SimTime::ZERO + SimDuration::from_hours(12));
        let q = NodeId::new(0);
        let known = (0..trace.num_nodes())
            .filter(|&i| service.estimate(q, trace.node_id(i), SimTime::ZERO).is_some())
            .count();
        assert!(known > 0);
    }

    #[test]
    fn monitors_of_index_matches_assignment() {
        let trace = small_trace();
        let config = AvmonConfig::default();
        let service = AvmonService::new(&trace, config, 1);
        let rule = AllPairsAssignment::new(config.cms, trace.num_nodes() as f64);
        for target in [0usize, 5, 41, 79] {
            let monitors = service.monitors_of_index(target);
            // Sorted ascending, no duplicates, and exactly the nodes the
            // assignment rule names.
            assert!(monitors.windows(2).all(|w| w[0] < w[1]));
            let expected: Vec<usize> = (0..trace.num_nodes())
                .filter(|&m| rule.is_monitor(trace.node_id(m), trace.node_id(target)))
                .collect();
            assert_eq!(monitors, expected, "target {target}");
        }
    }

    #[test]
    fn the_index_is_one_target_major_csr() {
        // Twenty hours in, under either strategy: the offsets are
        // non-decreasing and end at the edge count, which the arena
        // matches; an all-pairs row holds the rule's monitors of its
        // target that some processed slot found online, in first-online
        // order (ascending within a slot); a ring row is `ring_rows`'
        // row without its vacant slots.
        let trace = small_trace();
        let n = trace.num_nodes();
        for assignment in [AssignmentChoice::AllPairs, ring_config().assignment] {
            let config = AvmonConfig {
                assignment,
                use_aged: true,
                ..AvmonConfig::default()
            };
            let mut service = AvmonService::new(&trace, config, 1);
            service.step_to(&trace, SimTime::ZERO + SimDuration::from_hours(20));
            let slots = service.slots_processed();
            let offsets = &service.offsets;
            assert_eq!(offsets.len(), n + 1);
            assert_eq!(offsets[0], 0);
            assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "{assignment:?}");
            assert_eq!(offsets[n] as usize, service.monitors.len());
            assert_eq!(service.estimators.counts.len(), service.monitors.len());
            assert_eq!(
                service.estimators.aged.as_ref().map(Vec::len),
                Some(service.monitors.len())
            );
            let first_online =
                |m: usize| (0..slots).find(|&slot| trace.is_online_in_slot(m, slot));
            let rows = match assignment {
                AssignmentChoice::Ring { vnodes, k } => ring_rows(n, vnodes, k),
                AssignmentChoice::AllPairs => Vec::new(),
            };
            for t in 0..n {
                let row = offsets[t] as usize..offsets[t + 1] as usize;
                let row: Vec<usize> = service.monitors[row].iter().map(|&m| m as usize).collect();
                let expected: Vec<usize> = match assignment {
                    AssignmentChoice::AllPairs => {
                        let mut seen: Vec<usize> = service
                            .monitors_of_index(t)
                            .into_iter()
                            .filter(|&m| first_online(m).is_some())
                            .collect();
                        seen.sort_by_key(|&m| first_online(m));
                        seen
                    }
                    AssignmentChoice::Ring { k, .. } => {
                        let k = k as usize;
                        rows[t * k..(t + 1) * k]
                            .iter()
                            .filter(|&&m| m != NO_MONITOR)
                            .map(|&m| m as usize)
                            .collect()
                    }
                };
                assert_eq!(row, expected, "{assignment:?}, target {t}");
            }
        }
        // Exactly the monitors online in some processed slot have their
        // edges in the all-pairs index, and the window holds both kinds.
        let mut service = AvmonService::new(&trace, AvmonConfig::default(), 1);
        service.step_to(&trace, SimTime::ZERO + SimDuration::from_hours(20));
        let slots = service.slots_processed();
        let seen = (0..n)
            .filter(|&m| (0..slots).any(|slot| trace.is_online_in_slot(m, slot)))
            .count();
        assert_eq!(service.rows_built(), seen);
        assert!(seen > 0 && seen < n, "{seen} of {n} monitors seen online");
    }

    #[test]
    fn the_ewma_column_exists_only_under_use_aged() {
        let trace = small_trace();
        for assignment in [AssignmentChoice::AllPairs, ring_config().assignment] {
            for use_aged in [false, true] {
                let config = AvmonConfig {
                    use_aged,
                    assignment,
                    ..AvmonConfig::default()
                };
                let mut service = AvmonService::new(&trace, config, 1);
                service.step_to(&trace, SimTime::ZERO + SimDuration::from_hours(6));
                let estimators = &service.estimators;
                assert!(!estimators.counts.is_empty());
                let aged = estimators.aged.as_ref().map(Vec::len);
                assert_eq!(
                    aged,
                    use_aged.then_some(estimators.counts.len()),
                    "{assignment:?}"
                );
            }
        }
    }

    #[test]
    fn ring_rows_stay_fixed_as_hosts_churn() {
        // Offline targets keep their monitors and offline monitors their
        // targets: two days of churn rewrite no row.
        let trace = small_trace();
        let n = trace.num_nodes();
        let mut service = AvmonService::new(&trace, ring_config(), 1);
        let rows = |service: &AvmonService| {
            (0..n).map(|t| service.monitors_of_index(t)).collect::<Vec<_>>()
        };
        let before = rows(&service);
        assert!(before.iter().all(|row| row.len() == 8));
        assert!((0..n).any(|i| !trace.is_online_in_slot(i, 0)), "no host offline at the start");
        service.step_to(&trace, SimTime::ZERO + trace.duration());
        assert_eq!(rows(&service), before);
    }

    #[test]
    fn ring_chopped_advance_equals_one_shot() {
        let trace = small_trace();
        let end = SimTime::ZERO + trace.duration();
        let mut one_shot = AvmonService::new(&trace, ring_config(), 7);
        one_shot.step_to(&trace, end);
        let mut chopped = AvmonService::new(&trace, ring_config(), 7);
        let mut t = SimTime::ZERO;
        while t < end {
            t += SimDuration::from_hours(5);
            chopped.step_to(&trace, t.min(end));
        }
        chopped.step_to(&trace, end);
        for i in 0..trace.num_nodes() {
            assert_eq!(
                one_shot.estimate(NodeId::new(0), trace.node_id(i), end),
                chopped.estimate(NodeId::new(0), trace.node_id(i), end),
                "node {i}"
            );
        }
    }

    #[test]
    fn configs_no_run_can_mean_are_refused() {
        let trace = small_trace();
        let refused = [
            (f64::NAN, 0.05),
            (-0.1, 0.05),
            (1.5, 0.05),
            (0.0, 0.0),
            (0.0, 1.5),
            (0.0, f64::NAN),
        ];
        for (ping_loss, alpha) in refused {
            let config = AvmonConfig {
                ping_loss,
                alpha,
                ..AvmonConfig::default()
            };
            let built = std::panic::catch_unwind(|| AvmonService::new(&trace, config, 1));
            assert!(
                built.is_err(),
                "ping_loss {ping_loss}, alpha {alpha} accepted"
            );
        }
    }

    #[test]
    fn one_and_two_hosts_lose_every_ping_at_full_loss() {
        // One host has no monitor and never an estimate; two monitor each
        // other. At `ping_loss = 1` every ping is lost, so every estimate
        // there is reads 0, raw or aged, under either strategy.
        for hosts in [1, 2] {
            let trace = OvernetModel::default().hosts(hosts).days(1).generate(3);
            for assignment in [AssignmentChoice::AllPairs, ring_config().assignment] {
                for use_aged in [false, true] {
                    let config = AvmonConfig {
                        ping_loss: 1.0,
                        use_aged,
                        assignment,
                        ..AvmonConfig::default()
                    };
                    let mut service = AvmonService::new(&trace, config, 1);
                    let end = SimTime::ZERO + trace.duration();
                    service.step_to(&trace, end);
                    let estimates: Vec<Option<f64>> = (0..hosts)
                        .map(|i| service.estimate(NodeId::new(0), trace.node_id(i), end))
                        .map(|est| est.map(Availability::value))
                        .collect();
                    let label = format!("{hosts} hosts, {assignment:?}, aged {use_aged}");
                    if hosts == 1 {
                        assert_eq!(estimates, [None], "{label}");
                    } else {
                        assert!(
                            estimates.iter().all(|&e| e == Some(0.0)),
                            "{label}: {estimates:?}"
                        );
                    }
                }
            }
        }
    }
}
