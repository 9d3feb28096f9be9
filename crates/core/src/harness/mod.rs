//! The full-system simulation harness.
//!
//! [`AvmemSim`] binds every substrate together the way the paper's
//! evaluation does (§4): a churn trace drives node up/down state; an
//! availability oracle (exact, noisy, or full AVMON) answers availability
//! queries; the membership predicate builds each node's HS/VS lists —
//! either directly ("converged", the post-warm-up state the paper
//! snapshots) or by actually running the shuffle + discovery + refresh
//! sub-protocols through the event engine. The management operations
//! ([`crate::ops::run_anycast`] / [`crate::ops::run_multicast`]) execute
//! over the resulting overlay through [`AvmemSim::world`], with the
//! caller's latency network and random stream.
//!
//! This file holds [`AvmemSim`], its constructor and the advance loop
//! (`warm_up` / `advance_to` / `run_event_driven`); the rest of the
//! simulation lives beside it, one seam a file: `schedule` (the periodic
//! wheel cohorts are popped from), `cohort` (one cohort's shard phases and
//! their driver), `finalize` (discovery + refresh for one node, its
//! per-shard memory and counters), `rebuild` (the converged rebuild),
//! `query` (health, the online index, the operations' world view), and —
//! test-only — `model`, the slow obvious implementation of event-driven
//! maintenance that the tests hold all of the above to.
//!
//! # Examples
//!
//! ```
//! use avmem::harness::{AvmemSim, SimConfig};
//! use avmem::ops::{run_anycast, AnycastConfig, AvailabilityTarget, OpScratch};
//! use avmem_sim::{LatencyModel, Network, SimDuration};
//! use avmem_trace::OvernetModel;
//! use avmem_util::{NodeId, SplitMix64};
//!
//! let trace = OvernetModel::default().hosts(120).days(1).generate(7);
//! let mut sim = AvmemSim::new(trace, SimConfig::paper_default(1));
//! sim.warm_up(SimDuration::from_hours(24));
//!
//! let initiator = NodeId::new(u64::from(sim.online().online()[0]));
//! let outcome = run_anycast(
//!     &sim.world(),
//!     &mut Network::new(LatencyModel::PAPER, 1),
//!     &mut SplitMix64::new(2),
//!     &mut OpScratch::default(),
//!     initiator,
//!     AvailabilityTarget::range(0.85, 0.95),
//!     AnycastConfig::paper_default(),
//! );
//! println!("delivered: {}", outcome.is_delivered());
//! ```

mod cohort;
pub mod config;
mod finalize;
pub mod hashes;
pub mod index;
#[cfg(test)]
mod model;
pub mod oracle;
mod query;
mod rebuild;
mod schedule;
#[cfg(test)]
mod tests;

pub use config::{
    MaintenanceEngine, MaintenanceMode, OracleChoice, PredicateChoice, SimConfig,
};
pub use finalize::FinalizeStats;
pub use hashes::{PairHashes, PairStoreStats};
pub use index::CandidateIndex;
pub use oracle::SimOracle;
pub use query::HealthStats;

use std::sync::Arc;
use std::time::{Duration, Instant};

use avmem_avmon::AvailabilityOracle;
use avmem_metrics::{Histogram, Registry, Tracer};
use avmem_shuffle::{ShuffleConfig, ShuffleNode};
use avmem_sim::{SimDuration, SimTime};
use avmem_trace::{AvailabilityPdf, ChurnTrace, OnlineIndex};
use avmem_util::{Availability, NodeId, Rng, ShardPartition, SplitMix64};

use self::cohort::ShardScratch;
use self::finalize::FinalizeShardState;
use self::schedule::PeriodicWheel;
use crate::membership::Membership;
use crate::predicate::AvmemPredicate;

/// Purpose tags separating the counter-keyed RNG streams of event-driven
/// maintenance. Every stream is `SplitMix64::keyed(&[run_seed, TAG,
/// node, epoch])`: determinism is a property of the key, never of which
/// thread or in which order the stream is drawn. The owning shard is
/// deliberately *not* part of the key — the node index already implies
/// it under any fixed partition, and keying by shard would make every
/// draw depend on the shard count, breaking the bit-equality of runs
/// at different `S`.
const STREAM_STAGGER_TICK: u64 = 1;
const STREAM_STAGGER_REFRESH: u64 = 2;
const STREAM_SHUFFLE: u64 = 3;
const STREAM_BOOTSTRAP: u64 = 4;

/// Buckets of the availability PDF the predicate is built from: the
/// paper's 0.1-wide buckets.
const PDF_BUCKETS: usize = 10;

/// The largest population that keeps memory per ordered pair of hosts:
/// finalize's verdict rows (`N²/8` bytes; twice that with settled rows)
/// and the converged rebuild's hash rows (`8·N²` bytes, 512 MiB here).
/// Above it verdicts are view-slot marks and every row is hashed anew.
const PAIR_MEMORY_HOSTS: usize = 8192;

/// Which per-pair memories a run of `n` hosts keeps, for its life: verdict
/// rows within [`PAIR_MEMORY_HOSTS`]; and where, too, the oracle's epoch
/// moves, what ids alone decide and only a later epoch reads again —
/// finalize's settled rows, the converged rebuild's hash rows (a rebuild
/// at an unchanged epoch is skipped).
fn pair_memories(n: usize, epoch_moves: bool) -> (bool, bool) {
    let per_pair = n <= PAIR_MEMORY_HOSTS;
    (per_pair, per_pair && epoch_moves)
}

/// The persistent event-driven maintenance schedule, sharded.
///
/// Built once, on the first event-driven advance, and kept across
/// [`AvmemSim::warm_up`] / [`AvmemSim::advance_to`] calls: the wheel
/// carries every node's tick and refresh phase forward, so resuming
/// maintenance costs nothing, not an `O(N)` schedule rebuild (and
/// re-staggering) per call. A periodic protocol's phase is a
/// property of the node, not of how the driver chops the timeline into
/// advances — `warm_up(1h)` twice is identical to `warm_up(2h)` once.
///
/// Each shard owns its slice of the population: its slice of every
/// cohort the wheel pops ([`PeriodicWheel::due`]) and its scratch (work
/// lists + mailboxes). The slices of one cohort are exactly the cohort a
/// single global event queue would pop, split by owner.
#[derive(Debug, Clone)]
struct MaintSchedule {
    wheel: PeriodicWheel,
    part: ShardPartition,
    /// Per-shard phase scratch, reused across cohorts.
    scratches: Vec<ShardScratch>,
    /// The oracle epoch the last cohort met, and its number (0 before the
    /// first cohort).
    epoch: u64,
    stamp: u32,
}

impl MaintSchedule {
    /// Builds the initial schedule: every node's tick and refresh
    /// staggered on the period lattices from `now` on, and each shard's
    /// finalize columns sized for the memories the run keeps
    /// ([`AvmemSim::pair_memories`]).
    fn build(
        seed: u64,
        n: usize,
        shards: usize,
        now: SimTime,
        (protocol_period, refresh_period): (SimDuration, SimDuration),
        memories: (bool, bool),
    ) -> Self {
        let part = ShardPartition::new(n, shards);
        MaintSchedule {
            wheel: PeriodicWheel::build(seed, part, now, protocol_period, refresh_period),
            part,
            scratches: (0..part.shards())
                .map(|s| {
                    let mut scratch = ShardScratch::default();
                    let len = part.range(s).len();
                    scratch.finalize = FinalizeShardState::new(len, memories.0, memories.1);
                    scratch
                })
                .collect(),
            epoch: 0,
            stamp: 0,
        }
    }

    /// The stamp of a cohort that meets the oracle epoch `epoch`: the
    /// last cohort's while the epoch stands, the next number when it has
    /// moved. Epochs never go back, so equal stamps mean equal epochs.
    ///
    /// # Panics
    ///
    /// Panics at the run's 2³²−1th epoch change, whose number would not
    /// fit the finalize memos' `u32` stamps (a wrapped one would alias an
    /// old epoch's and license its stale memos).
    fn stamp(&mut self, epoch: u64) -> u32 {
        if self.stamp == 0 || epoch != self.epoch {
            self.stamp = self.stamp.checked_add(1).expect("more than 2^32 - 1 oracle epochs");
            self.epoch = epoch;
        }
        self.stamp
    }
}

/// Phase names of the harness [`Tracer`], index-aligned with the
/// `PH_*` constants. Spans are keyed `(phase, lane)`: lane 0 is the
/// coordinator (whose totals are the [`PhaseTimings`] wall-clock), the
/// other lanes accumulate shard-worker busy time.
const PHASES: &[&str] = &["oracle", "propose", "commit", "finalize"];
const PH_ORACLE: usize = 0;
const PH_PROPOSE: usize = 1;
const PH_COMMIT: usize = 2;
const PH_FINALIZE: usize = 3;

/// Cumulative wall-clock spent in each phase of maintenance, plus the
/// number of timestamp cohorts processed. Exposed through
/// [`AvmemSim::phase_timings`] so drivers (the scenario runner, the
/// `perf` benchmark) can report where a run's time went — in
/// particular what share the commit/merge barrier claims. Assembled
/// from the harness's span [`Tracer`] (coordinator lane).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Oracle advancement + online-index refresh (per distinct cohort
    /// timestamp; includes AVMON ping/aggregate processing).
    pub oracle: Duration,
    /// Propose phase: bootstrap + shuffle proposal, per ticking node.
    pub propose: Duration,
    /// Commit phase: message-batch transpose and request/reply/timeout
    /// application.
    pub commit: Duration,
    /// Finalize phase: discovery + refresh over post-commit views. In
    /// converged mode, the predicate rebuild is accounted here.
    pub finalize: Duration,
    /// Timestamp cohorts processed.
    pub cohorts: u64,
}

/// The full-system simulation.
///
/// A clone is the same simulation at the same instant — lists, views,
/// oracle, event-driven schedule and finalize memos copied as they stand
/// — so advancing the clone and a fresh simulation that never forked
/// gives bit-identical state. The two share the read-only pair-hash
/// store (and its `rows_built` counter) rather than copying it. The
/// clone starts with a fresh span [`Tracer`] and no attached metrics, so
/// its [`AvmemSim::phase_timings`] cover only what it runs itself.
pub struct AvmemSim {
    trace: ChurnTrace,
    config: SimConfig,
    predicate: AvmemPredicate,
    oracle: SimOracle,
    /// Shared between clones: every row is a pure function of its index,
    /// materialized once through a `OnceLock` and read through `&self`.
    hashes: Arc<PairHashes>,
    /// The oracle epoch of the last converged rebuild (`None` before the
    /// first): a rebuild at the same epoch would build the same lists.
    rebuilt_epoch: Option<u64>,
    /// The per-pair memories the run keeps ([`pair_memories`]).
    pair_memories: (bool, bool),
    memberships: Vec<Membership>,
    shuffles: Vec<ShuffleNode>,
    now: SimTime,
    /// Per-slot cache of the online population — list and bitset: who
    /// gets work in a cohort, bootstrap seeding, initiator selection, and
    /// every `is_online` of an operation. Always at `now`'s slot: it is
    /// refreshed wherever the clock moves.
    online: OnlineIndex,
    n_star: f64,
    /// Seed for the per-node randomized candidate order used by the
    /// converged rebuild (see [`AvmemSim::rebuild_converged`]).
    member_order_seed: u64,
    /// Persistent event-driven schedule (`None` until the first
    /// event-driven advance builds it).
    maint: Option<MaintSchedule>,
    /// Per-phase maintenance span accumulator
    /// ([`AvmemSim::phase_timings`] reads its coordinator lane).
    tracer: Tracer,
    /// Registry-backed instruments, present once
    /// [`AvmemSim::set_metrics`] attaches a registry.
    metrics: Option<HarnessInstruments>,
    /// Cumulative finalize counters.
    fin_stats: FinalizeStats,
}

/// Instrument handles the harness records into when a registry is
/// attached; everything here is off the per-node hot paths (the barrier
/// loops run at most `shards²` times per cohort).
struct HarnessInstruments {
    /// Cross-shard exchange batch sizes at the transpose barriers; their
    /// sums are the messages moved.
    exchange_req_batch: Histogram,
    exchange_reply_batch: Histogram,
}

impl std::fmt::Debug for AvmemSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AvmemSim")
            .field("nodes", &self.trace.num_nodes())
            .field("now", &self.now)
            .field("n_star", &self.n_star)
            .field("predicate", &self.predicate)
            .finish_non_exhaustive()
    }
}

impl Clone for AvmemSim {
    fn clone(&self) -> Self {
        AvmemSim {
            trace: self.trace.clone(),
            config: self.config,
            predicate: self.predicate.clone(),
            oracle: self.oracle.clone(),
            hashes: Arc::clone(&self.hashes),
            rebuilt_epoch: self.rebuilt_epoch,
            pair_memories: self.pair_memories,
            memberships: self.memberships.clone(),
            shuffles: self.shuffles.clone(),
            now: self.now,
            online: self.online.clone(),
            n_star: self.n_star,
            member_order_seed: self.member_order_seed,
            maint: self.maint.clone(),
            tracer: Tracer::new(PHASES),
            metrics: None,
            fin_stats: self.fin_stats,
        }
    }
}

impl AvmemSim {
    /// Builds a simulation over `trace` with the given configuration.
    ///
    /// `N*` is derived as the trace's mean online population and the
    /// availability PDF as the (availability-weighted) distribution of
    /// online nodes — both quantities the paper assumes are computed
    /// offline by a crawler and distributed consistently to all nodes.
    ///
    /// # Panics
    ///
    /// Panics if event-driven maintenance has a zero protocol or refresh
    /// period: its schedule would re-arm the same instant forever.
    pub fn new(trace: ChurnTrace, config: SimConfig) -> Self {
        if let MaintenanceMode::EventDriven {
            protocol_period,
            refresh_period,
        } = config.maintenance
        {
            assert!(
                protocol_period > SimDuration::ZERO && refresh_period > SimDuration::ZERO,
                "maintenance periods must be positive, got protocol {protocol_period:?} \
                 and refresh {refresh_period:?}"
            );
        }
        let n = trace.num_nodes();
        let stats = trace.stats();
        let n_star = stats.mean_online.max(2.0);

        let weighted: Vec<(Availability, f64)> = (0..n)
            .map(|i| {
                let av = trace.long_term_availability(i);
                (av, av.value())
            })
            .collect();
        let pdf = AvailabilityPdf::from_weighted_sample(&weighted, PDF_BUCKETS);

        let predicate = config.predicate.build(n, n_star, pdf);

        let mut seeder = SplitMix64::new(config.seed);
        let mut oracle = SimOracle::build(config.oracle, &trace, seeder.next_u64());
        // The AVMON service sweeps its ping/aggregate phases on the
        // worker pool, partitioned like the maintenance engine's cohorts:
        // one shard per thread (bit-identical for every thread count).
        oracle.set_threads(config.engine.threads());
        let memories = pair_memories(n, oracle.epoch_moves());
        // Two draws no stream reads, kept so that the shuffle seeds and
        // `member_order_seed` below stay the values the pinned
        // fingerprints and figures were produced with.
        let _ = (seeder.next_u64(), seeder.next_u64());

        let shuffle_config = ShuffleConfig::for_system_size(n);
        let mut shuffle_seeder = SplitMix64::new(seeder.next_u64());
        let shuffles = (0..n)
            .map(|i| {
                ShuffleNode::new(
                    NodeId::new(i as u64),
                    shuffle_config,
                    shuffle_seeder.fork(i as u64).next_u64(),
                )
            })
            .collect();

        // From here on the index stands at the clock's slot: whatever
        // moves `now` refreshes it, and operations answer `is_online`
        // from it.
        let mut online = OnlineIndex::new();
        online.refresh(&trace, SimTime::ZERO);

        AvmemSim {
            hashes: Arc::new(PairHashes::new(n, memories.1)),
            rebuilt_epoch: None,
            pair_memories: memories,
            memberships: (0..n).map(|i| Membership::new(NodeId::new(i as u64))).collect(),
            trace,
            config,
            predicate,
            oracle,
            shuffles,
            now: SimTime::ZERO,
            online,
            n_star,
            member_order_seed: seeder.next_u64(),
            maint: None,
            tracer: Tracer::new(PHASES),
            metrics: None,
            fin_stats: FinalizeStats::default(),
        }
    }

    /// Attaches a metrics registry: phase spans gain live span-duration
    /// histograms, a run of more than one shard records its cross-shard
    /// exchange batch sizes, and the oracle (AVMON) reports slot-advance
    /// cost. Without a registry the harness only pays the tracer's
    /// relaxed atomic adds — instrumentation stays allocation-free either
    /// way.
    pub fn set_metrics(&mut self, registry: &Arc<Registry>) {
        self.tracer.attach(registry, "avmem");
        self.oracle.set_metrics(registry);
        let batch_help = "Cross-shard exchange batch sizes at the phase barriers (messages).";
        self.metrics = Some(HarnessInstruments {
            exchange_req_batch: registry.histogram(
                "avmem_exchange_batch_msgs",
                batch_help,
                &[("dir", "request")],
            ),
            exchange_reply_batch: registry.histogram(
                "avmem_exchange_batch_msgs",
                batch_help,
                &[("dir", "reply")],
            ),
        });
    }

    /// The harness's phase-span tracer (published into a registry by the
    /// scenario session).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The churn trace driving the simulation.
    pub fn trace(&self) -> &ChurnTrace {
        &self.trace
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The derived stable-system-size parameter `N*`.
    pub fn n_star(&self) -> f64 {
        self.n_star
    }

    /// The predicate in force.
    pub fn predicate(&self) -> &AvmemPredicate {
        &self.predicate
    }

    /// The availability oracle in force.
    pub fn oracle(&self) -> &SimOracle {
        &self.oracle
    }

    /// A node's membership lists.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the population.
    pub fn membership(&self, id: NodeId) -> &Membership {
        &self.memberships[self.index(id)]
    }

    fn index(&self, id: NodeId) -> usize {
        let i = id.raw() as usize;
        assert!(i < self.trace.num_nodes(), "unknown node {id}");
        i
    }

    fn estimated_availability(&self, querier: usize, target: usize) -> Option<Availability> {
        self.oracle.estimate(
            NodeId::new(querier as u64),
            NodeId::new(target as u64),
            self.now,
        )
    }

    /// Advances simulation time by `duration`, running maintenance.
    ///
    /// In [`MaintenanceMode::Converged`] the membership lists are rebuilt
    /// from the predicate at the end of the interval — unless the oracle's
    /// epoch there is the last rebuild's, whose lists the rebuild would
    /// build again (they depend on ids and the oracle's answers alone). In
    /// [`MaintenanceMode::EventDriven`] the shuffle/discovery/refresh
    /// sub-protocols run period by period through the event engine; the
    /// schedule persists across calls, so chopping an interval into many
    /// `warm_up` calls produces the same state as one big call.
    pub fn warm_up(&mut self, duration: SimDuration) {
        let target = self.now + duration;
        match self.config.maintenance {
            MaintenanceMode::Converged => {
                {
                    let _span = self.tracer.span(PH_ORACLE, 0);
                    self.oracle.advance(&self.trace, target);
                    self.now = target;
                    self.online.refresh(&self.trace, target);
                }
                let epoch = self.oracle.epoch(target);
                if self.rebuilt_epoch != Some(epoch) {
                    // A span guard would hold `&self.tracer` across the
                    // `&mut self` rebuild; record the measured time instead.
                    let t0 = Instant::now();
                    self.rebuild_converged();
                    self.rebuilt_epoch = Some(epoch);
                    self.tracer.record(PH_FINALIZE, 0, t0.elapsed());
                }
            }
            MaintenanceMode::EventDriven {
                protocol_period,
                refresh_period,
            } => {
                self.run_event_driven(target, protocol_period, refresh_period);
            }
        }
    }

    /// Advances the simulation clock to the absolute instant `target`,
    /// running any maintenance that falls due on the way — the injection
    /// hook scenario drivers interleave operation traffic with.
    ///
    /// In [`MaintenanceMode::EventDriven`] every timestamp cohort with
    /// `time ≤ target` is processed (identically to [`AvmemSim::warm_up`],
    /// off the same persistent schedule), so operations fired after the
    /// call observe the live, possibly-unconverged overlay exactly as it
    /// stands between cohorts. In [`MaintenanceMode::Converged`] only the
    /// clock, the oracle and the online index advance — the lists keep
    /// their last rebuilt state (call [`AvmemSim::warm_up`] when a rebuild
    /// is wanted), so a driver controls staleness explicitly.
    ///
    /// A `target` at or before the current clock is a no-op.
    pub fn advance_to(&mut self, target: SimTime) {
        if target <= self.now {
            return;
        }
        match self.config.maintenance {
            MaintenanceMode::Converged => {
                let _span = self.tracer.span(PH_ORACLE, 0);
                self.oracle.advance(&self.trace, target);
                self.now = target;
                self.online.refresh(&self.trace, target);
            }
            MaintenanceMode::EventDriven {
                protocol_period,
                refresh_period,
            } => {
                self.run_event_driven(target, protocol_period, refresh_period);
            }
        }
    }

    /// Timestamp of the next pending maintenance event, if any — `None`
    /// for converged maintenance or before the first event-driven advance.
    pub fn next_maintenance_at(&self) -> Option<SimTime> {
        self.maint.as_ref().and_then(|m| m.wheel.peek_time())
    }

    /// Cumulative per-phase maintenance wall-clock since construction
    /// (the coordinator lane of the span tracer).
    pub fn phase_timings(&self) -> PhaseTimings {
        PhaseTimings {
            oracle: self.tracer.lane_total(PH_ORACLE, 0),
            propose: self.tracer.lane_total(PH_PROPOSE, 0),
            commit: self.tracer.lane_total(PH_COMMIT, 0),
            finalize: self.tracer.lane_total(PH_FINALIZE, 0),
            cohorts: self.tracer.cohorts(),
        }
    }

    /// Cumulative finalize counters since construction: how much work
    /// event-driven maintenance skipped and batched, the same on every
    /// engine. All zero until event-driven maintenance has run (the
    /// converged rebuild is not counted here).
    pub fn finalize_stats(&self) -> FinalizeStats {
        self.fin_stats
    }

    /// Counters of the pair-hash store the converged rebuild reads (rows
    /// built, rows kept): all zero in an event-driven run,
    /// whose finalize hashes its own candidate lists.
    pub fn hash_store_stats(&self) -> PairStoreStats {
        self.hashes.store_stats()
    }

    /// Runs the shuffle/discovery/refresh sub-protocols off the periodic
    /// schedule, one *timestamp cohort* at a time.
    ///
    /// Node offsets are staggered on a coarse per-period lattice (see
    /// [`schedule::STAGGER_COHORTS`]) so cohorts are sizeable — at the
    /// paper's 1 442 hosts a tick cohort is 90 nodes, some 39 of them
    /// online — and the whole schedule is at most 32 slots of nodes that
    /// fire together ([`PeriodicWheel`]). The loop pops the earliest
    /// slots, runs their cohort, and pops again: a slot re-arms itself
    /// one period on when it is popped, so no event is ever re-queued.
    /// Each cohort then runs its canonical phases — propose, commit
    /// (requests, then replies and timeouts), finalize — through the one
    /// path there is, [`AvmemSim::run_cohort`] (`cohort.rs` documents the
    /// phases): results are bit-equal across thread counts (the
    /// `event_driven_equivalence` integration tests pin the matrix against
    /// one shard on one thread, and the in-crate model, `model.rs`, pins
    /// that).
    fn run_event_driven(
        &mut self,
        target: SimTime,
        protocol_period: SimDuration,
        refresh_period: SimDuration,
    ) {
        // The schedule is built once — on the first event-driven advance —
        // and then carried across calls with every node's phase intact
        // (see [`MaintSchedule`]). Only that first call pays the `O(N)`
        // population scan and stagger draw, and fixes the partition —
        // one shard per thread — for the life of the simulation.
        let mut maint = self.maint.take().unwrap_or_else(|| {
            MaintSchedule::build(
                self.config.seed,
                self.trace.num_nodes(),
                self.config.engine.threads(),
                self.now,
                (protocol_period, refresh_period),
                self.pair_memories,
            )
        });
        while let Some(t) = maint.wheel.pop_until(target) {
            // Shared time-dependent state advances once per distinct
            // timestamp: the oracle (AVMON ping processing) and the
            // online index (slot-boundary crossings).
            {
                let _span = self.tracer.span(PH_ORACLE, 0);
                self.oracle.advance(&self.trace, t);
                self.online.refresh(&self.trace, t);
                self.now = self.now.max(t);
            }
            self.tracer.tick_cohort();
            self.run_cohort(t, &mut maint);
        }
        self.maint = Some(maint);
        let _span = self.tracer.span(PH_ORACLE, 0);
        self.oracle.advance(&self.trace, target);
        self.now = target;
        self.online.refresh(&self.trace, target);
    }

    #[cfg(test)]
    /// The one way into finalize's view-slot marks below
    /// [`PAIR_MEMORY_HOSTS`] hosts, for the differentials that hold that
    /// regime to the verdict rows and the model at sizes a test affords:
    /// the run keeps no per-pair memory.
    ///
    /// # Panics
    ///
    /// Panics once event-driven maintenance has sized its memories.
    pub(super) fn with_view_marks(mut self) -> Self {
        assert!(self.maint.is_none(), "the schedule is built already");
        self.pair_memories = (false, false);
        self
    }
}
