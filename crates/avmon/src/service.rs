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
//! The service is laid out for bulk slot sweeps rather than per-node
//! stepping, with one index layout per assignment strategy
//! ([`AssignmentChoice`]):
//!
//! * **All-pairs** — the monitor relation is a pure function of ids, so
//!   churn never rewrites it; it is *materialised* one monitor row at a
//!   time, when a slot first finds the monitor online (a monitor that is
//!   offline neither pings nor contributes to a median, so its row is
//!   never read before that — and never hashed if it stays offline). The
//!   built rows are stored twice, as CSR indexes (u32 offsets) — forward
//!   (`row → targets`, rows in the order they were built) for the ping
//!   phase and inverted (`target → (monitor, estimator)`, re-derived by
//!   one counting sort in a slot that added rows) for the aggregation
//!   phase — plus a flat columnar estimator arena aligned with the
//!   forward index;
//! * **Ring** — the relation churns incrementally, so the inverted index
//!   is *fixed-width*: every target owns exactly `k` monitor slots
//!   (`u32::MAX` = vacant) with the estimator arena aligned slot for
//!   slot. A join/leave delta rewrites a few rows in place — vacated
//!   slots are recycled for the incoming monitors, surviving edges keep
//!   their estimator history — instead of rebuilding anything. Before a
//!   slot is processed, the membership transitions since the last
//!   processed slot are replayed through [`RingAssignment::join`] /
//!   [`RingAssignment::leave`], which is how trace churn drives
//!   incremental reassignment.
//!
//! Either layout's estimator arena is columnar: an 8-byte `(hits,
//! attempts)` slot per edge, and an EWMA per edge only when the service
//! serves aged estimates ([`AvmonConfig::use_aged`]). The per-target
//! aggregate is one `f64`, NaN until a monitor first reports.
//!
//! Ping-loss randomness is **counter-keyed**: per `(seed, monitor,
//! slot)` stream in the all-pairs layout (a monitor's row is a fixed
//! target sequence) and per `(seed, monitor, target, slot)` stream in
//! the ring layout (rows mutate, so each edge draws independently).
//! Either way the outcome of a slot is a pure function of the key
//! material — independent of processing order and thread count.
//! [`AvmonService::step_to`] processes each slot in **two parallel
//! phases** over the persistent worker pool ([`avmem_util::parallel`]).
//!
//! Results are bit-identical for every thread count; the
//! `service_equivalence` and `ring_incremental` integration tests pin
//! both pipelines to serial from-scratch references.

use avmem_sim::{SimDuration, SimTime};
use avmem_trace::ChurnTrace;
use avmem_util::parallel::{default_threads, par_chunks_mut, par_each_mut};
use avmem_util::ShardPartition;
use avmem_util::{Availability, NodeId, Rng, SplitMix64};
use serde::{Deserialize, Serialize};

use crate::assignment::{AllPairsAssignment, RingAssignment, NO_MONITOR};
use crate::estimator::PingCounts;
use crate::oracle::AvailabilityOracle;

/// Purpose tag of the all-pairs ping-loss streams: every draw comes from
/// `SplitMix64::keyed(&[seed, STREAM_PING, monitor, slot])`, so a
/// monitor-slot's losses are a property of the key, never of which
/// worker processed the monitor or in which order.
const STREAM_PING: u64 = 0x4156_4d4f_4e50;

/// Purpose tag of the ring-layout ping-loss streams, keyed per edge:
/// `SplitMix64::keyed(&[seed, STREAM_PING_EDGE, monitor, target, slot])`.
/// Ring rows mutate under churn, so a per-monitor sequential stream
/// would tie outcomes to row order; per-edge keys make each ping a pure
/// function of who pings whom and when.
const STREAM_PING_EDGE: u64 = 0x4156_4d4f_4e51;

/// A monitor of the all-pairs layout whose row has not been built.
const NO_ROW: u32 = u32::MAX;

/// An aggregate slot no monitor has estimated yet.
const NO_ESTIMATE: f64 = f64::NAN;

/// Which monitor-assignment strategy the service builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum AssignmentChoice {
    /// The paper's all-pairs hash-threshold rule: O(N) hashes per monitor
    /// the run sees online (O(N²) in all), exact reference randomness, no
    /// incremental membership.
    #[default]
    AllPairs,
    /// Consistent-hash-ring successors: O(N log N) build, O(k)
    /// incremental join/leave as the trace churns.
    Ring {
        /// Virtual ring points per monitor (load-balance knob).
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
    /// EWMA smoothing factor for aged estimates.
    pub alpha: f64,
    /// Probability that a ping to an *online* target is lost anyway.
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

/// The assignment strategy in force, with its monitor indexes and
/// estimator arena.
#[derive(Debug, Clone)]
enum MonitorIndex {
    /// CSR pair over the rows of the static all-pairs relation built so
    /// far: those of the monitors some processed slot found online.
    AllPairs {
        /// The relation the rows are hashed from.
        rule: AllPairsAssignment,
        /// Monitor `m`'s row in the forward CSR, [`NO_ROW`] until a slot
        /// first finds `m` online.
        row_of: Vec<u32>,
        /// The monitor of each row. Rows are appended slot by slot, a
        /// slot's new monitors in ascending id, so the layout is a
        /// function of the trace alone.
        row_monitors: Vec<u32>,
        /// Forward CSR: the monitor of row `r` observes
        /// `target_ids[target_offsets[r]..target_offsets[r + 1]]`.
        target_offsets: Vec<u32>,
        target_ids: Vec<u32>,
        /// Flat estimator arena aligned with the forward index.
        estimators: Estimators,
        /// Inverted CSR: of the monitors with a row, target `t` is
        /// observed by `inv_entries[inv_offsets[t]..inv_offsets[t + 1]]`,
        /// each entry a `(monitor, arena index)` pair, in row order.
        inv_offsets: Vec<u32>,
        inv_entries: Vec<(u32, u32)>,
    },
    /// Fixed-width inverted rows for the churning ring relation.
    Ring {
        /// The ring, holding the online set of `synced_slot`.
        ring: RingAssignment,
        /// Monitors per target (row width).
        k: usize,
        /// Row `t` is `monitors[t * k..(t + 1) * k]`; [`NO_MONITOR`]
        /// marks a vacant slot (ring smaller than `k + 1` members).
        monitors: Vec<u32>,
        /// Estimator arena aligned slot for slot with `monitors`.
        estimators: Estimators,
        /// Trace slot whose online set the ring currently reflects.
        synced_slot: usize,
    },
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
    /// Chunk fan-out for the parallel slot phases. Results are
    /// bit-identical for every value; see [`AvmonService::set_threads`].
    threads: usize,
    /// Shard count partitioning the node-indexed slot phases (estimator
    /// arena, aggregation) by owning shard; see
    /// [`AvmonService::set_shards`].
    shards: usize,
    index: MonitorIndex,
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
    /// row of the relation is built by the first slot that finds the
    /// monitor online ([`AvmonService::step_to`]), so the O(N) hashes per
    /// monitor are paid by the run, for the monitors it sees. Ring places
    /// the slot-0 online set on the ring (sorting its points) and fills
    /// the fixed-width rows in one sweep of the sorted ring,
    /// O(N·k + P) after the sorts. `seed` drives ping-loss randomness
    /// only.
    pub fn new(trace: &ChurnTrace, config: AvmonConfig, seed: u64) -> Self {
        let n = trace.num_nodes();
        let index = match config.assignment {
            AssignmentChoice::AllPairs => MonitorIndex::AllPairs {
                rule: AllPairsAssignment::new(config.cms, n as f64),
                row_of: vec![NO_ROW; n],
                row_monitors: Vec::new(),
                target_offsets: vec![0],
                target_ids: Vec::new(),
                estimators: Estimators::new(0, config.use_aged),
                inv_offsets: vec![0; n + 1],
                inv_entries: Vec::new(),
            },
            AssignmentChoice::Ring { vnodes, k } => {
                let members = (0..n as u32).filter(|&i| trace.is_online_in_slot(i as usize, 0));
                build_ring_index(
                    RingAssignment::new(n, vnodes, k, members),
                    n,
                    config.use_aged,
                )
            }
        };
        AvmonService {
            config,
            seed,
            threads: default_threads(),
            shards: default_threads(),
            index,
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

    /// The ring, if that is the assignment strategy in force (`None`
    /// under the paper's all-pairs relation).
    pub fn ring(&self) -> Option<&RingAssignment> {
        match &self.index {
            MonitorIndex::Ring { ring, .. } => Some(ring),
            MonitorIndex::AllPairs { .. } => None,
        }
    }

    /// Sets the chunk fan-out of the parallel slot phases. Purely a
    /// performance knob: every thread count produces bit-identical
    /// estimates (randomness is keyed, and the two phases write disjoint
    /// state), which the `service_equivalence` tests pin.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Sets the shard count partitioning the node-indexed slot phases —
    /// each shard owns the contiguous estimator-arena and aggregate rows
    /// of its nodes, matching the maintenance harness's ownership map
    /// (the all-pairs ping phase carves the rows built so far, which are
    /// in order of first appearance, into as many contiguous runs).
    /// Purely a performance knob: every shard count produces
    /// bit-identical estimates (per-edge randomness is keyed and every
    /// row's computation is independent), which the fan-out invariance
    /// tests pin.
    pub fn set_shards(&mut self, shards: usize) {
        self.shards = shards.max(1);
    }

    /// The monitors of `target` (by index) in this population, ascending.
    /// All-pairs answers from the rule — one batched column of `N` hashes
    /// — so the answer is the same pure function of ids before the first
    /// slot and after any (the inverted index holds only the monitors
    /// seen online so far); ring reads the fixed-width row, in `O(k)`.
    pub fn monitors_of_index(&self, target: usize) -> Vec<usize> {
        match &self.index {
            MonitorIndex::AllPairs { rule, .. } => {
                let ids: Vec<NodeId> = (0..self.aggregate.len() as u64).map(NodeId::new).collect();
                rule.monitors_in(ids[target], &ids)
            }
            MonitorIndex::Ring { k, monitors, .. } => {
                let mut row: Vec<usize> = monitors[target * k..(target + 1) * k]
                    .iter()
                    .filter(|&&m| m != NO_MONITOR)
                    .map(|&m| m as usize)
                    .collect();
                row.sort_unstable();
                row
            }
        }
    }

    /// Processes all trace slots with start time `<= now` that have not
    /// been processed yet: every online monitor pings its targets once
    /// per slot (an all-pairs monitor's row is hashed by the first slot
    /// that finds it online), then per-target aggregates are refreshed.
    /// Chopping the advance into several calls is identical to one big
    /// call.
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

    /// One slot of the monitoring pipeline: ring resync (if churning) or
    /// the rows of newly seen all-pairs monitors, then the two parallel
    /// phases, each partitioned into shard-owned contiguous slices of its
    /// state.
    fn process_slot(&mut self, trace: &ChurnTrace, slot: usize) {
        self.sync_ring_to(trace, slot);
        self.build_rows_first_online_in(trace, slot);
        let threads = self.threads;
        let shards = self.shards;
        let config = self.config;
        let seed = self.seed;
        // Ping phase — parallel, writing only the estimator arena.
        match &mut self.index {
            MonitorIndex::AllPairs {
                row_monitors,
                target_offsets,
                target_ids,
                estimators,
                ..
            } => {
                // Parallel over built rows — every monitor that is online
                // now has one: each row owns the disjoint arena range
                // `target_offsets[r]..target_offsets[r+1]`, carved into
                // per-row lanes up front; loss draws come from the
                // monitor-slot's keyed stream, in target (CSR) order.
                let mut lanes: Vec<EstimatorsMut> = Vec::with_capacity(row_monitors.len());
                let mut rest = estimators.as_mut();
                for bounds in target_offsets.windows(2) {
                    let (lane, tail) = rest.split_at_mut((bounds[1] - bounds[0]) as usize);
                    lanes.push(lane);
                    rest = tail;
                }
                let row_monitors = &*row_monitors;
                let target_ids = &*target_ids;
                let target_offsets = &*target_offsets;
                let part = ShardPartition::new(lanes.len(), shards);
                let mut tasks = shard_slices(part, 1, &mut lanes[..]);
                par_each_mut(&mut tasks, threads, |_, (offset, chunk)| {
                    let offset = *offset;
                    for (j, lane) in chunk.iter_mut().enumerate() {
                        let r = offset + j;
                        let m = row_monitors[r] as usize;
                        if lane.len() == 0 || !trace.is_online_in_slot(m, slot) {
                            continue;
                        }
                        let targets = &target_ids
                            [target_offsets[r] as usize..target_offsets[r + 1] as usize];
                        let mut loss = (config.ping_loss > 0.0).then(|| {
                            SplitMix64::keyed(&[seed, STREAM_PING, m as u64, slot as u64])
                        });
                        for (j, &t) in targets.iter().enumerate() {
                            // The loss draw happens only for online
                            // targets, mirroring a real ping: a down host
                            // loses the ping deterministically, no coin
                            // needed.
                            let answered = trace.is_online_in_slot(t as usize, slot)
                                && loss
                                    .as_mut()
                                    .is_none_or(|rng| !rng.chance(config.ping_loss));
                            lane.record(j, answered, config.alpha);
                        }
                    }
                });
            }
            MonitorIndex::Ring {
                k,
                monitors,
                estimators,
                ..
            } => {
                // Parallel over shard-owned arena slices (each shard owns
                // its targets' `k`-wide rows): each slot is one
                // (monitor, target) edge with its own keyed loss stream,
                // so outcomes are independent of the partitioning.
                let k = *k;
                let monitors = &*monitors;
                let part = ShardPartition::new(monitors.len() / k, shards);
                let mut tasks = shard_slices(part, k, estimators.as_mut());
                par_each_mut(&mut tasks, threads, |_, (start, chunk)| {
                    let offset = *start * k;
                    for j in 0..chunk.len() {
                        let idx = offset + j;
                        let m = monitors[idx];
                        if m == NO_MONITOR || !trace.is_online_in_slot(m as usize, slot) {
                            continue;
                        }
                        let t = (idx / k) as u32;
                        let answered = trace.is_online_in_slot(t as usize, slot)
                            && (config.ping_loss <= 0.0 || {
                                let mut rng = SplitMix64::keyed(&[
                                    seed,
                                    STREAM_PING_EDGE,
                                    u64::from(m),
                                    u64::from(t),
                                    slot as u64,
                                ]);
                                !rng.chance(config.ping_loss)
                            });
                        chunk.record(j, answered, config.alpha);
                    }
                });
            }
        }
        // Aggregation phase — parallel over shard-owned target slices:
        // median of the online monitors' current estimates, with one
        // reusable median scratch per worker. Values are sorted before
        // taking the median, so collection order never shows in the
        // result.
        {
            let index = &self.index;
            let part = ShardPartition::new(self.aggregate.len(), shards);
            let mut tasks = shard_slices(part, 1, &mut self.aggregate[..]);
            par_each_mut(&mut tasks, threads, |_, (offset, chunk)| {
                let offset = *offset;
                let mut values: Vec<f64> = Vec::new();
                for (j, slot_agg) in chunk.iter_mut().enumerate() {
                    let t = offset + j;
                    values.clear();
                    match index {
                        MonitorIndex::AllPairs {
                            estimators,
                            inv_offsets,
                            inv_entries,
                            ..
                        } => {
                            for &(m, est) in &inv_entries
                                [inv_offsets[t] as usize..inv_offsets[t + 1] as usize]
                            {
                                if !trace.is_online_in_slot(m as usize, slot) {
                                    continue;
                                }
                                values.extend(estimators.estimate(est as usize));
                            }
                        }
                        MonitorIndex::Ring {
                            k,
                            monitors,
                            estimators,
                            ..
                        } => {
                            for (slot_idx, &m) in
                                monitors[t * k..(t + 1) * k].iter().enumerate()
                            {
                                if m == NO_MONITOR
                                    || !trace.is_online_in_slot(m as usize, slot)
                                {
                                    continue;
                                }
                                values.extend(estimators.estimate(t * k + slot_idx));
                            }
                        }
                    }
                    if !values.is_empty() {
                        values.sort_by(|a, b| {
                            a.partial_cmp(b).expect("estimates are never NaN")
                        });
                        let median = values[values.len() / 2];
                        *slot_agg = Availability::saturating(median).value();
                    }
                    // else: keep the stale cached aggregate (or none).
                }
            });
        }
    }

    /// All-pairs strategy only: builds the row of every monitor that is
    /// online in `slot` and has none yet — each an independent N-scan of
    /// the consistent-assignment hash, so the slot's new rows are hashed
    /// in parallel (each one batch) — appends them to the forward CSR in
    /// ascending monitor id with fresh estimators, and re-derives the
    /// inverted CSR by counting sort. A monitor never records a ping nor
    /// contributes to a median before the first slot it is online in, so
    /// an estimator born here has missed nothing; a slot that meets no
    /// new monitor changes nothing.
    fn build_rows_first_online_in(&mut self, trace: &ChurnTrace, slot: usize) {
        let MonitorIndex::AllPairs {
            rule,
            row_of,
            row_monitors,
            target_offsets,
            target_ids,
            estimators,
            inv_offsets,
            inv_entries,
        } = &mut self.index
        else {
            return;
        };
        let rule = *rule;
        let n = row_of.len();
        let new: Vec<u32> = (0..n as u32)
            .filter(|&m| row_of[m as usize] == NO_ROW && trace.is_online_in_slot(m as usize, slot))
            .collect();
        if new.is_empty() {
            return;
        }
        let ids: Vec<NodeId> = trace.node_ids().collect();
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); new.len()];
        par_chunks_mut(&mut rows, 1, self.threads, |offset, chunk| {
            let mut hashes = Vec::new();
            for (j, row) in chunk.iter_mut().enumerate() {
                rule.targets_in(ids[new[offset + j] as usize], &ids, &mut hashes, row);
            }
        });
        let total = target_ids.len() + rows.iter().map(Vec::len).sum::<usize>();
        assert!(
            u32::try_from(total).is_ok(),
            "monitor-target pairs exceed the index width"
        );
        for (&m, row) in new.iter().zip(&rows) {
            row_of[m as usize] = row_monitors.len() as u32;
            row_monitors.push(m);
            target_ids.extend_from_slice(row);
            target_offsets.push(target_ids.len() as u32);
        }
        estimators.resize(total);
        // Invert: count per target, prefix-sum, then one placement pass
        // over the rows.
        inv_offsets.fill(0);
        for &t in target_ids.iter() {
            inv_offsets[t as usize + 1] += 1;
        }
        for t in 0..n {
            inv_offsets[t + 1] += inv_offsets[t];
        }
        let mut cursor: Vec<u32> = inv_offsets[..n].to_vec();
        inv_entries.clear();
        inv_entries.resize(total, (0, 0));
        for (r, &m) in row_monitors.iter().enumerate() {
            let start = target_offsets[r] as usize;
            for (j, &t) in target_ids[start..target_offsets[r + 1] as usize]
                .iter()
                .enumerate()
            {
                let t = t as usize;
                inv_entries[cursor[t] as usize] = (m, (start + j) as u32);
                cursor[t] += 1;
            }
        }
    }

    /// Ring strategy only: replays the trace's online-set transitions
    /// from the last synced slot up to `slot` through the ring's
    /// incremental join/leave, then repairs the affected fixed-width
    /// rows in place — surviving edges keep their estimator history,
    /// vacated slots are recycled (with a fresh estimator) for incoming
    /// monitors. This is where churn events become O(k) assignment
    /// deltas instead of rebuilds.
    fn sync_ring_to(&mut self, trace: &ChurnTrace, slot: usize) {
        let MonitorIndex::Ring {
            ring,
            k,
            monitors,
            estimators,
            synced_slot,
        } = &mut self.index
        else {
            return;
        };
        while *synced_slot < slot {
            let next = *synced_slot + 1;
            let mut affected: Vec<u32> = Vec::new();
            // Only the nodes whose bit differs between the two columns.
            for i in trace.changed_in(next) {
                let delta = if trace.is_online_in_slot(i, next) {
                    ring.join(i as u32)
                } else {
                    ring.leave(i as u32)
                };
                affected.extend_from_slice(&delta);
            }
            affected.sort_unstable();
            affected.dedup();
            for &t in &affected {
                let t = t as usize;
                let new_set = ring.monitors_of_index(t as u32);
                let row = &mut monitors[t * *k..(t + 1) * *k];
                // Evict monitors no longer assigned; keep survivors in
                // their slots so their estimator history continues.
                for entry in row.iter_mut() {
                    if *entry != NO_MONITOR && !new_set.contains(entry) {
                        *entry = NO_MONITOR;
                    }
                }
                // Recycle vacated slots for the incoming monitors, each
                // starting a fresh estimator.
                for m in new_set {
                    if row.contains(&m) {
                        continue;
                    }
                    let free = row
                        .iter()
                        .position(|&e| e == NO_MONITOR)
                        .expect("a k-wide row fits k distinct monitors");
                    row[free] = m;
                    estimators.reset(t * *k + free);
                }
            }
            *synced_slot = next;
        }
    }

    /// Number of monitor rows materialised so far: all-pairs builds a
    /// monitor's row in the first processed slot that finds it online;
    /// ring fills every target's row up front.
    pub fn rows_built(&self) -> usize {
        match &self.index {
            MonitorIndex::AllPairs { row_monitors, .. } => row_monitors.len(),
            MonitorIndex::Ring { k, monitors, .. } => monitors.len() / k,
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

/// Splits a node-indexed arena (`stride` slots per node) into one
/// `(first_node, slice)` task per shard of `part` — the disjoint `&mut`
/// sub-slices each shard owns during a slot phase.
fn shard_slices<S: SplitMut>(part: ShardPartition, stride: usize, items: S) -> Vec<(usize, S)> {
    debug_assert_eq!(items.len(), part.len() * stride);
    let mut tasks = Vec::with_capacity(part.shards());
    let mut rest = items;
    for s in 0..part.shards() {
        let range = part.range(s);
        let (head, tail) = rest.split_at_mut(range.len() * stride);
        tasks.push((range.start, head));
        rest = tail;
    }
    tasks
}

/// What [`shard_slices`] and the all-pairs lanes carve: a slice, or the
/// estimator arena's columns cut at the same slots.
trait SplitMut: Sized {
    fn len(&self) -> usize;
    fn split_at_mut(self, mid: usize) -> (Self, Self);
}

impl<T> SplitMut for &mut [T] {
    fn len(&self) -> usize {
        <[T]>::len(self)
    }

    fn split_at_mut(self, mid: usize) -> (Self, Self) {
        <[T]>::split_at_mut(self, mid)
    }
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

    /// Grows (or cuts) the arena to `len` slots, new ones fresh.
    fn resize(&mut self, len: usize) {
        self.counts.resize(len, PingCounts::default());
        if let Some(aged) = &mut self.aged {
            aged.resize(len, 0.0);
        }
    }

    /// A fresh estimator at slot `j`: zero counts, so its next ping
    /// restarts the EWMA too.
    fn reset(&mut self, j: usize) {
        self.counts[j] = PingCounts::default();
    }

    /// Slot `j`'s estimate — aged if the arena keeps the EWMA, raw
    /// otherwise — or `None` before its first ping.
    fn estimate(&self, j: usize) -> Option<f64> {
        let counts = self.counts[j];
        let est = match &self.aged {
            Some(aged) => counts.aged(aged[j]),
            None => counts.raw(),
        };
        est.map(Availability::value)
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
    /// Records one ping outcome at slot `j` of the run.
    #[inline]
    fn record(&mut self, j: usize, answered: bool, alpha: f64) {
        let counts = &mut self.counts[j];
        if let Some(aged) = &mut self.aged {
            aged[j] = counts.fold_aged(aged[j], answered, alpha);
        }
        counts.record(answered);
    }
}

impl SplitMut for EstimatorsMut<'_> {
    fn len(&self) -> usize {
        self.counts.len()
    }

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

/// The ring build: one `k`-wide row per target, filled in one sweep of
/// the ring ([`RingAssignment::monitor_rows`]).
fn build_ring_index(ring: RingAssignment, n: usize, aged: bool) -> MonitorIndex {
    let k = ring.k() as usize;
    let monitors = ring.monitor_rows();
    MonitorIndex::Ring {
        ring,
        k,
        monitors,
        estimators: Estimators::new(n * k, aged),
        synced_slot: 0,
    }
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
        // Ring estimates are noisier than all-pairs: every reassignment
        // under churn starts the affected edges' estimators fresh, so
        // observations cover windows, not lifetimes. The bound here is
        // accordingly looser than the all-pairs 0.12.
        let trace = small_trace();
        let mut service = AvmonService::new(&trace, ring_config(), 1);
        service.step_to(&trace, SimTime::ZERO + trace.duration());
        let mae = service.mean_absolute_error(&trace).unwrap();
        assert!(mae < 0.3, "ring mean absolute error {mae} too large");
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
    fn forward_and_inverted_indexes_agree() {
        let trace = small_trace();
        let mut service = AvmonService::new(&trace, AvmonConfig::default(), 1);
        service.step_to(&trace, SimTime::ZERO + SimDuration::from_hours(20));
        let n = trace.num_nodes();
        let MonitorIndex::AllPairs {
            row_of,
            row_monitors,
            target_offsets,
            target_ids,
            estimators,
            inv_offsets,
            inv_entries,
            ..
        } = &service.index
        else {
            panic!("default config builds the all-pairs index");
        };
        // Every forward (m → t) edge appears exactly once inverted, and
        // its arena index points back into monitor m's lane.
        let mut seen = 0usize;
        for t in 0..n {
            for &(m, est) in
                &inv_entries[inv_offsets[t] as usize..inv_offsets[t + 1] as usize]
            {
                let r = row_of[m as usize] as usize;
                assert_eq!(row_monitors[r], m);
                assert!(est >= target_offsets[r]);
                assert!(est < target_offsets[r + 1]);
                assert_eq!(target_ids[est as usize] as usize, t);
                seen += 1;
            }
        }
        assert_eq!(seen, target_ids.len());
        assert_eq!(estimators.counts.len(), target_ids.len());
        // Exactly the monitors online in some processed slot have a row;
        // one that never was owns no row, hence no lane of the arena.
        let (mut with_row, mut without) = (0, 0);
        for (m, &row) in row_of.iter().enumerate() {
            let seen_online =
                (0..service.slots_processed()).any(|slot| trace.is_online_in_slot(m, slot));
            assert_eq!(row != NO_ROW, seen_online, "monitor {m}");
            with_row += usize::from(seen_online);
            without += usize::from(!seen_online);
        }
        assert_eq!(row_monitors.len(), with_row);
        assert!(with_row > 0 && without > 0, "{with_row} rows, {without} monitors without");
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
                let (MonitorIndex::AllPairs { estimators, .. }
                | MonitorIndex::Ring { estimators, .. }) = &service.index;
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
    fn ring_rows_match_the_ring_assignment_after_stepping() {
        let trace = small_trace();
        let mut service = AvmonService::new(&trace, ring_config(), 1);
        service.step_to(&trace, SimTime::ZERO + SimDuration::from_hours(20));
        let ring = service.ring().unwrap();
        for t in 0..trace.num_nodes() {
            let mut expected = ring.monitors_of_index(t as u32);
            expected.sort_unstable();
            let row: Vec<u32> = service
                .monitors_of_index(t)
                .into_iter()
                .map(|m| m as u32)
                .collect();
            assert_eq!(row, expected, "target {t}");
        }
        // The ring's member set is exactly the slot's online set.
        let synced = service.slots_processed() - 1;
        for i in 0..trace.num_nodes() {
            assert_eq!(
                ring.is_member(i as u32),
                trace.is_online_in_slot(i, synced),
                "node {i}"
            );
        }
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
}
