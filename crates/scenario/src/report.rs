//! Scenario metrics: per-operation outcomes, per-interval overlay health,
//! and the attack acceptance series.
//!
//! A [`ScenarioReport`] is a plain value — every field is an exact count
//! or a deterministically accumulated float, so two runs of the same spec
//! and seed produce *bit-identical* reports regardless of maintenance
//! engine or thread count (pinned by `tests/determinism.rs`). Rendering
//! comes in two flavors: a human-readable text block and a JSON object
//! (hand-rolled — the vendored `serde` does not serialize).

use std::time::Duration;

use avmem::ops::AnycastDrop;

/// Anycast hops histogram size: bucket `i` counts deliveries in `i` hops,
/// the last bucket everything at or beyond.
pub const HOPS_BUCKETS: usize = 12;

/// Availability-decile count for per-bucket series.
pub const DECILES: usize = 10;

/// Exact counts of a non-negative quantity in fixed-width buckets:
/// bucket `i` counts the values in `[i·width, (i+1)·width)`. The bucket
/// list grows to the largest value recorded, so nothing is clamped.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Buckets {
    /// Bucket width, in the quantity's unit.
    pub width: f64,
    /// Counts, bucket 0 first, up to the last non-empty bucket.
    pub counts: Vec<u64>,
}

impl Buckets {
    pub(crate) fn new(width: f64) -> Self {
        Buckets { width, counts: Vec::new() }
    }

    pub(crate) fn record(&mut self, value: f64) {
        let bucket = (value / self.width) as usize;
        if bucket >= self.counts.len() {
            self.counts.resize(bucket + 1, 0);
        }
        self.counts[bucket] += 1;
    }

    /// Adds `other`'s counts (same width) into these.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub(crate) fn merge(&mut self, other: &Buckets) {
        assert_eq!(self.width, other.width, "merging buckets of different widths");
        self.counts.resize(self.counts.len().max(other.counts.len()), 0);
        add(&mut self.counts, &other.counts);
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The lower edge of the bucket holding the `q`-quantile, by the rank
    /// rule of [`avmem_util::stats::Summary::quantile`]; `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics unless `q ∈ [0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let total = self.count();
        let rank = ((q * total as f64).ceil() as u64).max(1) - 1;
        let mut below = 0;
        let bucket = self.counts.iter().position(|&count| {
            below += count;
            below > rank
        })?;
        Some(bucket as f64 * self.width)
    }

    /// `{"width":…,"buckets":[[index,count],…]}`, non-empty buckets only.
    fn json(&self) -> String {
        let buckets = self.counts.iter().enumerate().filter(|&(_, &count)| count > 0);
        let buckets: Vec<String> = buckets.map(|(i, count)| format!("[{i},{count}]")).collect();
        format!("{{\"width\":{},\"buckets\":[{}]}}", json_f64(self.width), buckets.join(","))
    }
}

/// `into[i] += from[i]` over the common length.
fn add(into: &mut [u64], from: &[u64]) {
    for (mine, theirs) in into.iter_mut().zip(from) {
        *mine += theirs;
    }
}

/// Aggregated anycast outcomes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AnycastStats {
    /// Anycasts fired.
    pub sent: u64,
    /// Anycasts that reached a node believing itself in the target.
    pub delivered: u64,
    /// Deliveries whose receiver is *truly* inside the target.
    pub delivered_in_truth: u64,
    /// Total hops over delivered anycasts.
    pub total_hops: u64,
    /// Total messages over all anycasts (including failed attempts).
    pub total_messages: u64,
    /// Total end-to-end latency over all anycasts, in milliseconds.
    pub total_latency_ms: u64,
    /// Deliveries by hop count (`min(hops, HOPS_BUCKETS - 1)`).
    pub hops_histogram: Vec<u64>,
    /// Failed anycasts per [`AnycastDrop`], in [`AnycastDrop::ALL`]
    /// order; they sum to `sent - delivered`.
    pub drops: [u64; AnycastDrop::ALL.len()],
    /// Total end-to-end latency over delivered anycasts, in milliseconds.
    pub delivered_latency_ms: u64,
}

impl AnycastStats {
    /// No anycasts counted yet.
    pub fn new() -> Self {
        AnycastStats {
            hops_histogram: vec![0; HOPS_BUCKETS],
            ..AnycastStats::default()
        }
    }

    /// Anycasts dropped for `reason`.
    pub fn dropped(&self, reason: AnycastDrop) -> u64 {
        self.drops[reason as usize]
    }

    /// Adds `other`'s counts into these (pooling runs).
    pub fn merge(&mut self, other: &AnycastStats) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.delivered_in_truth += other.delivered_in_truth;
        self.total_hops += other.total_hops;
        self.total_messages += other.total_messages;
        self.total_latency_ms += other.total_latency_ms;
        add(&mut self.hops_histogram, &other.hops_histogram);
        add(&mut self.drops, &other.drops);
        self.delivered_latency_ms += other.delivered_latency_ms;
    }

    /// Fraction of sent anycasts delivered (`0.0` when none sent).
    pub fn delivery_rate(&self) -> f64 {
        ratio(self.delivered as f64, self.sent)
    }

    /// Mean hops per delivered anycast (`0.0` when none delivered).
    pub fn mean_hops(&self) -> f64 {
        ratio(self.total_hops as f64, self.delivered)
    }

    /// Mean end-to-end latency per sent anycast, in milliseconds.
    pub fn mean_latency_ms(&self) -> f64 {
        ratio(self.total_latency_ms as f64, self.sent)
    }
}

/// Aggregated multicast outcomes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MulticastStats {
    /// Multicasts fired.
    pub sent: u64,
    /// Multicasts whose stage-1 anycast entered the range.
    pub entered: u64,
    /// Sum of per-multicast reliability (delivered / eligible).
    pub reliability_sum: f64,
    /// Sum of per-multicast spam ratios.
    pub spam_sum: f64,
    /// Total dissemination messages (stage-1 anycast messages included).
    pub total_messages: u64,
    /// Payload deliveries bucketed by the receiver's true-availability
    /// decile — the AVCast incentive curve.
    pub deliveries_by_decile: Vec<u64>,
    /// Worst-case delivery latency of each multicast that reached anyone,
    /// in 10 ms buckets (Fig. 11).
    pub worst_latency_histogram: Buckets,
    /// Sum of those worst-case latencies, in milliseconds.
    pub worst_latency_sum_ms: u64,
    /// Per-multicast reliability in 0.01 buckets (Fig. 13), one entry per
    /// multicast with eligible receivers; its sum is `reliability_sum`.
    pub reliability_histogram: Buckets,
    /// Per-multicast spam ratio in 0.01 buckets (Fig. 12), one entry per
    /// multicast with eligible receivers; its sum is `spam_sum`.
    pub spam_histogram: Buckets,
}

impl MulticastStats {
    /// No multicasts counted yet.
    pub fn new() -> Self {
        MulticastStats {
            deliveries_by_decile: vec![0; DECILES],
            worst_latency_histogram: Buckets::new(10.0),
            reliability_histogram: Buckets::new(0.01),
            spam_histogram: Buckets::new(0.01),
            ..MulticastStats::default()
        }
    }

    /// Adds `other`'s counts into these (pooling runs).
    pub fn merge(&mut self, other: &MulticastStats) {
        self.sent += other.sent;
        self.entered += other.entered;
        self.reliability_sum += other.reliability_sum;
        self.spam_sum += other.spam_sum;
        self.total_messages += other.total_messages;
        add(&mut self.deliveries_by_decile, &other.deliveries_by_decile);
        self.worst_latency_histogram.merge(&other.worst_latency_histogram);
        self.worst_latency_sum_ms += other.worst_latency_sum_ms;
        self.reliability_histogram.merge(&other.reliability_histogram);
        self.spam_histogram.merge(&other.spam_histogram);
    }

    /// Multicasts with a defined reliability (eligible > 0).
    pub fn reliability_count(&self) -> u64 {
        self.reliability_histogram.count()
    }

    /// Multicasts with a defined spam ratio (eligible > 0).
    pub fn spam_count(&self) -> u64 {
        self.spam_histogram.count()
    }

    /// Mean reliability over multicasts that had eligible receivers.
    pub fn mean_reliability(&self) -> f64 {
        ratio(self.reliability_sum, self.reliability_count())
    }

    /// Mean spam ratio over multicasts that had eligible receivers.
    pub fn mean_spam(&self) -> f64 {
        ratio(self.spam_sum, self.spam_count())
    }
}

/// Aggregated selfish-flooder probe outcomes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AttackStats {
    /// Flood attempts fired.
    pub attempts: u64,
    /// Individual (sender, receiver) probes evaluated.
    pub probes: u64,
    /// Probes the receiver would have accepted.
    pub accepted: u64,
    /// `(probes, accepted)` by the attacker's true-availability decile.
    pub by_decile: Vec<(u64, u64)>,
}

impl AttackStats {
    pub(crate) fn new() -> Self {
        AttackStats {
            by_decile: vec![(0, 0); DECILES],
            ..AttackStats::default()
        }
    }

    /// Overall acceptance rate of selfish probes.
    pub fn acceptance_rate(&self) -> f64 {
        ratio(self.accepted as f64, self.probes)
    }
}

/// Sampled accuracy of the configured availability estimator: at every
/// health boundary the runner draws a fixed number of (querier, target)
/// pairs from a dedicated keyed stream and accumulates the absolute error
/// of the oracle's estimate against the trace's long-term availability.
/// Deterministic (engine- and thread-independent), so it participates in
/// report equality — and lets a sweep compare strategies (e.g. AVMON ring
/// vs all-pairs) on equal arrivals.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EstimatorAccuracy {
    /// Label of the estimation strategy (`exact`, `noisy`, `avmon-ring`,
    /// `avmon-all-pairs`, …).
    pub strategy: String,
    /// Sum of `|estimate − truth|` over answered samples.
    pub abs_error_sum: f64,
    /// Samples the oracle answered (unanswered queries are not errors:
    /// AVMON simply has no estimate before the first ping lands).
    pub answered: u64,
    /// Samples drawn in total.
    pub drawn: u64,
}

impl EstimatorAccuracy {
    /// Mean absolute error over answered samples (`0.0` when none).
    pub fn mae(&self) -> f64 {
        ratio(self.abs_error_sum, self.answered)
    }

    /// Fraction of drawn samples the oracle could answer.
    pub fn coverage(&self) -> f64 {
        ratio(self.answered as f64, self.drawn)
    }
}

/// Where a run's wall-clock time went: set-up — the trace built, then the
/// simulation constructed over it — and the maintenance phases after.
/// Excluded from report equality: wall-clock time varies run to run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunTimings {
    /// `ScenarioSpec::build_trace`: generating or reading the trace.
    pub trace: Duration,
    /// `AvmemSim::new`: the oracle (for AVMON's ring, the ring and its
    /// monitor rows), views and memberships.
    pub sim_new: Duration,
    /// Maintenance phase totals (oracle / propose / commit / finalize)
    /// over the whole run.
    pub phases: avmem::PhaseTimings,
}

/// Process-memory observations captured when the run finishes: peak
/// resident set from the kernel, plus heap-allocator gauges when the
/// binary was built with the `heap-stats` counting allocator. These are
/// environment facts, not functions of `(spec, seed)`, so they are
/// excluded from report equality exactly like wall-clock timings.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemoryStats {
    /// Peak resident set size (Linux `VmHWM`), bytes. `None` when the
    /// platform does not expose it.
    pub peak_rss_bytes: Option<u64>,
    /// Bytes live on the heap at report time (`heap-stats` builds only).
    pub heap_live_bytes: Option<u64>,
    /// Peak bytes ever live on the heap (`heap-stats` builds only).
    pub heap_peak_bytes: Option<u64>,
    /// Allocation calls over the process lifetime (`heap-stats` only).
    pub heap_alloc_calls: Option<u64>,
}

impl MemoryStats {
    /// True when nothing was observed (non-Linux, no counting allocator).
    pub fn is_empty(&self) -> bool {
        *self == MemoryStats::default()
    }
}

/// One overlay-health sample.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthSample {
    /// Sample time, minutes since simulation start.
    pub at_mins: u64,
    /// Online population at the sample instant.
    pub online: usize,
    /// Mean (out-)degree over online nodes.
    pub mean_degree: f64,
    /// Largest-connected-component fraction of the online overlay
    /// (HS+VS edges).
    pub largest_component: f64,
    /// Operations fired since the previous sample.
    pub ops_since_last: u64,
    /// Selfish probes evaluated since the previous sample
    /// (`probes, accepted`) — the attack acceptance series; zeros when no
    /// adversary is configured.
    pub attack_since_last: (u64, u64),
}

/// The complete result of one scenario run.
///
/// Equality deliberately ignores [`ScenarioReport::timings`]: wall-clock
/// phase timings vary run to run, while every other field is a
/// deterministic function of `(spec, seed)` — the determinism suite
/// compares whole reports with `==`.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name (from the spec).
    pub scenario: String,
    /// Seed the run used.
    pub seed: u64,
    /// Population size.
    pub hosts: usize,
    /// Operation-phase length in minutes.
    pub duration_mins: u64,
    /// Anycast aggregates.
    pub anycast: AnycastStats,
    /// Multicast aggregates.
    pub multicast: MulticastStats,
    /// Adversary aggregates (`None` without an adversary mix).
    pub attack: Option<AttackStats>,
    /// Health samples, chronological.
    pub health: Vec<HealthSample>,
    /// Operations skipped because no eligible initiator was online.
    pub skipped_ops: u64,
    /// Operations dropped by serve-mode admission control (always `0`
    /// for `run` and for unpaced serve, which keeps fixed-duration serve
    /// bit-identical to run).
    pub admission_drops: u64,
    /// Sampled estimator accuracy; see [`EstimatorAccuracy`].
    pub estimator: EstimatorAccuracy,
    /// Set-up and maintenance phase wall-clock totals; see
    /// [`RunTimings`]. Excluded from `==`.
    pub timings: RunTimings,
    /// Finalize fast-path counters (threshold memo, pair-hash reads,
    /// refresh short-circuit, batched estimates) accumulated over the
    /// whole run. Excluded from `==`: they describe how the overlay
    /// state was computed (which no-insert memory, which hash store),
    /// not the state.
    pub finalize: avmem::FinalizeStats,
    /// Process-memory observations (peak RSS, heap gauges). Excluded
    /// from `==`: memory is an environment fact, not a spec function.
    pub memory: MemoryStats,
}

impl PartialEq for ScenarioReport {
    fn eq(&self, other: &Self) -> bool {
        // Every field except `timings` (wall-clock noise) and `finalize`
        // (engine-shape-dependent counters).
        self.scenario == other.scenario
            && self.seed == other.seed
            && self.hosts == other.hosts
            && self.duration_mins == other.duration_mins
            && self.anycast == other.anycast
            && self.multicast == other.multicast
            && self.attack == other.attack
            && self.health == other.health
            && self.skipped_ops == other.skipped_ops
            && self.admission_drops == other.admission_drops
            && self.estimator == other.estimator
    }
}

/// `num / den`, `0.0` over nothing.
fn ratio(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

impl ScenarioReport {
    /// Human-readable report block.
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let w = &mut out;
        writeln!(
            w,
            "scenario {:?} (seed {}, {} hosts, {} min of operations)",
            self.scenario, self.seed, self.hosts, self.duration_mins
        )
        .unwrap();

        let a = &self.anycast;
        writeln!(w, "anycast:").unwrap();
        writeln!(
            w,
            "  sent {}  delivered {} ({:.1}%)  in-range-by-truth {}",
            a.sent,
            a.delivered,
            100.0 * a.delivery_rate(),
            a.delivered_in_truth
        )
        .unwrap();
        writeln!(
            w,
            "  mean hops {:.2}  mean latency {:.0} ms  messages {}",
            a.mean_hops(),
            a.mean_latency_ms(),
            a.total_messages
        )
        .unwrap();
        let histogram: Vec<String> = a
            .hops_histogram
            .iter()
            .enumerate()
            .filter(|&(_, &count)| count > 0)
            .map(|(hops, count)| {
                if hops + 1 == HOPS_BUCKETS {
                    format!("{hops}+:{count}")
                } else {
                    format!("{hops}:{count}")
                }
            })
            .collect();
        writeln!(w, "  hops histogram {{{}}}", histogram.join(", ")).unwrap();
        let drops = AnycastDrop::ALL.iter().zip(a.drops).filter(|&(_, count)| count > 0);
        let drops: Vec<String> =
            drops.map(|(reason, count)| format!("{}:{count}", reason.name())).collect();
        writeln!(w, "  drops {{{}}}", drops.join(", ")).unwrap();

        let m = &self.multicast;
        writeln!(w, "multicast:").unwrap();
        writeln!(
            w,
            "  sent {}  entered range {}  mean reliability {:.1}%  mean spam {:.1}%  messages {}",
            m.sent,
            m.entered,
            100.0 * m.mean_reliability(),
            100.0 * m.mean_spam(),
            m.total_messages
        )
        .unwrap();
        let deciles: Vec<String> = m
            .deliveries_by_decile
            .iter()
            .enumerate()
            .filter(|&(_, &count)| count > 0)
            .map(|(d, count)| format!("{:.1}-{:.1}:{count}", d as f64 / 10.0, (d + 1) as f64 / 10.0))
            .collect();
        writeln!(w, "  deliveries by availability decile {{{}}}", deciles.join(", ")).unwrap();
        // Quantiles of the per-multicast distributions, `-` over none.
        let at = |buckets: &Buckets, qs: &[f64], digits: usize| -> String {
            let at = |q| buckets.quantile(q).map_or("-".into(), |v| format!("{v:.digits$}"));
            qs.iter().map(|&q| at(q)).collect::<Vec<String>>().join("/")
        };
        let (l, r, s) = (&m.worst_latency_histogram, &m.reliability_histogram, &m.spam_histogram);
        let (l, r, s) = (at(l, &[0.5, 0.9, 1.0], 0), at(r, &[0.1, 0.5], 2), at(s, &[0.5, 0.9], 2));
        let line = format!("worst latency ms p50/p90/max {l}  reliability p10/p50 {r}  spam p50/p90 {s}");
        writeln!(w, "  {line}").unwrap();

        if let Some(attack) = &self.attack {
            writeln!(w, "adversary:").unwrap();
            writeln!(
                w,
                "  flood attempts {}  probes {}  accepted {} ({:.1}%)",
                attack.attempts,
                attack.probes,
                attack.accepted,
                100.0 * attack.acceptance_rate()
            )
            .unwrap();
        }

        writeln!(w, "overlay health (per {}):", interval_label(&self.health)).unwrap();
        writeln!(
            w,
            "  {:>8} {:>7} {:>8} {:>10} {:>6} {:>12}",
            "t (min)", "online", "degree", "component", "ops", "attack-acc"
        )
        .unwrap();
        for sample in &self.health {
            let (probes, accepted) = sample.attack_since_last;
            let attack = if probes == 0 {
                "-".to_string()
            } else {
                format!("{:.1}%", 100.0 * accepted as f64 / probes as f64)
            };
            writeln!(
                w,
                "  {:>8} {:>7} {:>8.2} {:>10.3} {:>6} {:>12}",
                sample.at_mins,
                sample.online,
                sample.mean_degree,
                sample.largest_component,
                sample.ops_since_last,
                attack
            )
            .unwrap();
        }
        if self.skipped_ops > 0 {
            writeln!(w, "skipped operations (no eligible initiator): {}", self.skipped_ops)
                .unwrap();
        }
        if self.admission_drops > 0 {
            writeln!(w, "admission drops (serve backpressure): {}", self.admission_drops)
                .unwrap();
        }
        let e = &self.estimator;
        if e.drawn > 0 {
            writeln!(
                w,
                "estimator {:?}: MAE {:.4} over {} answered of {} sampled ({:.1}% coverage)",
                e.strategy,
                e.mae(),
                e.answered,
                e.drawn,
                100.0 * e.coverage()
            )
            .unwrap();
        }
        let RunTimings {
            trace,
            sim_new,
            phases: t,
        } = &self.timings;
        if *trace + *sim_new > Duration::ZERO {
            writeln!(
                w,
                "set-up: trace {:.3} s  sim {:.3} s",
                trace.as_secs_f64(),
                sim_new.as_secs_f64()
            )
            .unwrap();
        }
        if t.cohorts > 0 {
            writeln!(
                w,
                "maintenance phase timings ({} cohorts): oracle {:.3} s  propose {:.3} s  \
                 commit {:.3} s  finalize {:.3} s",
                t.cohorts,
                t.oracle.as_secs_f64(),
                t.propose.as_secs_f64(),
                t.commit.as_secs_f64(),
                t.finalize.as_secs_f64()
            )
            .unwrap();
        }
        let f = &self.finalize;
        if f != &avmem::FinalizeStats::default() {
            // "discover pruned": view candidates a discovery filter
            // dropped without an estimate — neighbors and this epoch's
            // no-insert verdicts alike, in either no-insert regime.
            // "verdicts carried": no-insert verdicts that outlived an
            // epoch turnover (pair hash above the node's threshold
            // ceiling); "ceiling raises": nodes whose ceiling rose, which
            // re-opens theirs.
            writeln!(
                w,
                "finalize fast path: memo hits {}  misses {}  \
                 refresh skipped {}  evaluated {}  discover pruned {} (no estimate)  \
                 batched estimates {}  verdicts carried {}  ceiling raises {}",
                f.memo_hits,
                f.memo_misses,
                f.refresh_skipped,
                f.refresh_evaluated,
                f.discover_pruned,
                f.batched_estimates,
                f.verdicts_carried,
                f.ceiling_raises
            )
            .unwrap();
        }
        let mem = &self.memory;
        if !mem.is_empty() {
            let field = |label: &str, bytes: Option<u64>| match bytes {
                Some(b) => format!("{label} {:.1} MiB", b as f64 / (1024.0 * 1024.0)),
                None => format!("{label} -"),
            };
            writeln!(
                w,
                "memory: {}  {}  {}  allocs {}",
                field("peak RSS", mem.peak_rss_bytes),
                field("heap live", mem.heap_live_bytes),
                field("heap peak", mem.heap_peak_bytes),
                mem.heap_alloc_calls
                    .map_or_else(|| "-".to_string(), |c| c.to_string())
            )
            .unwrap();
        }
        out
    }

    /// JSON rendering (single object, stable key order).
    pub fn render_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let w = &mut out;
        write!(
            w,
            "{{\"scenario\":{:?},\"seed\":{},\"hosts\":{},\"duration_mins\":{}",
            self.scenario, self.seed, self.hosts, self.duration_mins
        )
        .unwrap();
        let a = &self.anycast;
        let drops = AnycastDrop::ALL.iter().zip(a.drops);
        let drops: Vec<String> =
            drops.map(|(reason, n)| format!("\"{}\":{n}", reason.name())).collect();
        write!(
            w,
            ",\"anycast\":{{\"sent\":{},\"delivered\":{},\"delivered_in_truth\":{},\
             \"total_hops\":{},\"total_messages\":{},\"total_latency_ms\":{},\
             \"hops_histogram\":{},\"drops\":{{{}}},\"delivered_latency_ms\":{}}}",
            a.sent,
            a.delivered,
            a.delivered_in_truth,
            a.total_hops,
            a.total_messages,
            a.total_latency_ms,
            json_u64_array(&a.hops_histogram),
            drops.join(","),
            a.delivered_latency_ms
        )
        .unwrap();
        let m = &self.multicast;
        write!(
            w,
            ",\"multicast\":{{\"sent\":{},\"entered\":{},\"reliability_sum\":{},\
             \"reliability_count\":{},\"spam_sum\":{},\"spam_count\":{},\
             \"total_messages\":{},\"deliveries_by_decile\":{},\
             \"worst_latency_histogram\":{},\"worst_latency_sum_ms\":{},\
             \"reliability_histogram\":{},\"spam_histogram\":{}}}",
            m.sent,
            m.entered,
            json_f64(m.reliability_sum),
            m.reliability_count(),
            json_f64(m.spam_sum),
            m.spam_count(),
            m.total_messages,
            json_u64_array(&m.deliveries_by_decile),
            m.worst_latency_histogram.json(),
            m.worst_latency_sum_ms,
            m.reliability_histogram.json(),
            m.spam_histogram.json()
        )
        .unwrap();
        match &self.attack {
            None => write!(w, ",\"attack\":null").unwrap(),
            Some(attack) => {
                let deciles: Vec<String> = attack
                    .by_decile
                    .iter()
                    .map(|&(p, acc)| format!("[{p},{acc}]"))
                    .collect();
                write!(
                    w,
                    ",\"attack\":{{\"attempts\":{},\"probes\":{},\"accepted\":{},\
                     \"by_decile\":[{}]}}",
                    attack.attempts,
                    attack.probes,
                    attack.accepted,
                    deciles.join(",")
                )
                .unwrap();
            }
        }
        write!(w, ",\"health\":[").unwrap();
        for (i, sample) in self.health.iter().enumerate() {
            if i > 0 {
                write!(w, ",").unwrap();
            }
            write!(
                w,
                "{{\"at_mins\":{},\"online\":{},\"mean_degree\":{},\
                 \"largest_component\":{},\"ops_since_last\":{},\"attack_since_last\":[{},{}]}}",
                sample.at_mins,
                sample.online,
                json_f64(sample.mean_degree),
                json_f64(sample.largest_component),
                sample.ops_since_last,
                sample.attack_since_last.0,
                sample.attack_since_last.1
            )
            .unwrap();
        }
        let e = &self.estimator;
        write!(
            w,
            "],\"skipped_ops\":{},\"admission_drops\":{},\
             \"estimator\":{{\"strategy\":{:?},\"abs_error_sum\":{},\"answered\":{},\
             \"drawn\":{},\"mae\":{}}}",
            self.skipped_ops,
            self.admission_drops,
            e.strategy,
            json_f64(e.abs_error_sum),
            e.answered,
            e.drawn,
            json_f64(e.mae())
        )
        .unwrap();
        let RunTimings {
            trace,
            sim_new,
            phases: t,
        } = &self.timings;
        write!(
            w,
            ",\"timings\":{{\"cohorts\":{},\"oracle_secs\":{},\
             \"propose_secs\":{},\"commit_secs\":{},\"finalize_secs\":{},\
             \"trace_secs\":{},\"sim_new_secs\":{}}}",
            t.cohorts,
            json_f64(t.oracle.as_secs_f64()),
            json_f64(t.propose.as_secs_f64()),
            json_f64(t.commit.as_secs_f64()),
            json_f64(t.finalize.as_secs_f64()),
            json_f64(trace.as_secs_f64()),
            json_f64(sim_new.as_secs_f64())
        )
        .unwrap();
        let f = &self.finalize;
        write!(
            w,
            ",\"finalize\":{{\"memo_hits\":{},\"memo_misses\":{},\
             \"refresh_skipped\":{},\"refresh_evaluated\":{},\"discover_pruned\":{},\
             \"batched_estimates\":{},\"verdicts_carried\":{},\"ceiling_raises\":{}}}",
            f.memo_hits,
            f.memo_misses,
            f.refresh_skipped,
            f.refresh_evaluated,
            f.discover_pruned,
            f.batched_estimates,
            f.verdicts_carried,
            f.ceiling_raises
        )
        .unwrap();
        let mem = &self.memory;
        write!(
            w,
            ",\"memory\":{{\"peak_rss_bytes\":{},\"heap_live_bytes\":{},\
             \"heap_peak_bytes\":{},\"heap_alloc_calls\":{}}}}}",
            json_opt_u64(mem.peak_rss_bytes),
            json_opt_u64(mem.heap_live_bytes),
            json_opt_u64(mem.heap_peak_bytes),
            json_opt_u64(mem.heap_alloc_calls)
        )
        .unwrap();
        out
    }
}

fn interval_label(health: &[HealthSample]) -> String {
    match health {
        [first, second, ..] => format!("{} min", second.at_mins - first.at_mins),
        _ => "interval".to_string(),
    }
}

fn json_u64_array(values: &[u64]) -> String {
    let items: Vec<String> = values.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(","))
}

/// JSON has no NaN/Inf; finite floats use Rust's shortest round-trip
/// formatting, which is valid JSON.
pub(crate) fn json_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

fn json_opt_u64(value: Option<u64>) -> String {
    value.map_or_else(|| "null".to_string(), |v| v.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ScenarioReport {
        let mut anycast = AnycastStats::new();
        anycast.sent = 10;
        anycast.delivered = 8;
        anycast.delivered_in_truth = 7;
        anycast.total_hops = 12;
        anycast.total_messages = 31;
        anycast.total_latency_ms = 900;
        anycast.hops_histogram[1] = 5;
        anycast.hops_histogram[2] = 3;
        anycast.drops[AnycastDrop::RetryExpired as usize] = 2;
        anycast.delivered_latency_ms = 700;
        let mut multicast = MulticastStats::new();
        multicast.sent = 3;
        multicast.entered = 3;
        multicast.reliability_sum = 2.7;
        multicast.total_messages = 120;
        multicast.deliveries_by_decile[8] = 40;
        for (latency, reliability) in [(140u32, 0.8), (180, 0.9), (260, 1.0)] {
            multicast.worst_latency_histogram.record(f64::from(latency));
            multicast.worst_latency_sum_ms += u64::from(latency);
            multicast.reliability_histogram.record(reliability);
        }
        ScenarioReport {
            scenario: "unit".into(),
            seed: 5,
            hosts: 100,
            duration_mins: 60,
            anycast,
            multicast,
            attack: Some(AttackStats {
                attempts: 2,
                probes: 40,
                accepted: 3,
                by_decile: vec![(0, 0); DECILES],
            }),
            health: vec![
                HealthSample {
                    at_mins: 0,
                    online: 40,
                    mean_degree: 9.5,
                    largest_component: 0.98,
                    ops_since_last: 0,
                    attack_since_last: (0, 0),
                },
                HealthSample {
                    at_mins: 60,
                    online: 42,
                    mean_degree: 9.8,
                    largest_component: 1.0,
                    ops_since_last: 13,
                    attack_since_last: (40, 3),
                },
            ],
            skipped_ops: 1,
            admission_drops: 0,
            estimator: EstimatorAccuracy {
                strategy: "exact".into(),
                abs_error_sum: 5.12,
                answered: 512,
                drawn: 1024,
            },
            timings: RunTimings {
                trace: Duration::from_millis(16),
                sim_new: Duration::from_millis(23),
                phases: avmem::PhaseTimings {
                    oracle: Duration::from_millis(120),
                    propose: Duration::from_millis(40),
                    commit: Duration::from_millis(35),
                    finalize: Duration::from_millis(80),
                    cohorts: 240,
                },
            },
            finalize: avmem::FinalizeStats {
                memo_hits: 900,
                memo_misses: 100,
                refresh_skipped: 50,
                refresh_evaluated: 25,
                discover_pruned: 700,
                batched_estimates: 4000,
                verdicts_carried: 600,
                ceiling_raises: 7,
            },
            memory: MemoryStats {
                peak_rss_bytes: Some(512 * 1024 * 1024),
                heap_live_bytes: Some(100 * 1024 * 1024),
                heap_peak_bytes: Some(300 * 1024 * 1024),
                heap_alloc_calls: Some(123_456),
            },
        }
    }

    #[test]
    fn means_handle_zero_denominators() {
        let empty = AnycastStats::new();
        assert_eq!(empty.delivery_rate(), 0.0);
        assert_eq!(empty.mean_hops(), 0.0);
        assert_eq!(empty.mean_latency_ms(), 0.0);
        assert_eq!(MulticastStats::new().mean_reliability(), 0.0);
        assert_eq!(AttackStats::new().acceptance_rate(), 0.0);
    }

    #[test]
    fn text_rendering_mentions_the_headline_numbers() {
        let text = sample_report().render_text();
        assert!(text.contains("sent 10"), "{text}");
        assert!(text.contains("80.0%"), "{text}");
        assert!(text.contains("drops {retry_expired:2}"), "{text}");
        assert!(text.contains("worst latency ms p50/p90/max 180/260/260"), "{text}");
        assert!(text.contains("reliability p10/p50 0.80/0.90  spam p50/p90 -/-"), "{text}");
        assert!(text.contains("flood attempts 2"), "{text}");
        assert!(text.contains("overlay health"), "{text}");
    }

    #[test]
    fn buckets_follow_the_ecdf_rank_rule_on_lower_edges() {
        let values = [0.0, 0.004, 0.013, 0.5, 0.507, 0.99, 1.0, 1.0, 2.5];
        let mut buckets = Buckets::new(0.01);
        values.into_iter().for_each(|v| buckets.record(v));
        let edge = |v: f64| (v / 0.01) as usize as f64 * 0.01;
        let edges = avmem_util::stats::Summary::from_values(values.map(edge));
        for q in [0.0, 0.1, 0.25, 0.5, 0.9, 1.0] {
            assert_eq!(buckets.quantile(q), Some(edges.quantile(q)), "q = {q}");
        }
        // Grown to the largest value, nothing clamped.
        assert_eq!((buckets.count(), buckets.counts.len()), (9, 251));
        assert_eq!(Buckets::new(10.0).quantile(0.5), None);
    }

    #[test]
    fn merging_pools_every_count() {
        let report = sample_report();
        let (mut anycast, mut multicast) = (AnycastStats::new(), MulticastStats::new());
        for _ in 0..2 {
            anycast.merge(&report.anycast);
            multicast.merge(&report.multicast);
        }
        let a = (anycast.sent, anycast.dropped(AnycastDrop::RetryExpired), anycast.hops_histogram[2]);
        assert_eq!((a, anycast.delivered_latency_ms), ((20, 4, 6), 1400));
        let m = (multicast.reliability_histogram.count(), multicast.deliveries_by_decile[8]);
        assert_eq!((m, multicast.worst_latency_sum_ms), ((6, 80), 1160));
    }

    #[test]
    fn json_rendering_is_structurally_sound() {
        let json = sample_report().render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces: {json}"
        );
        assert!(json.contains("\"anycast\":{"));
        assert!(json.contains(
            "\"drops\":{\"ttl_expired\":0,\"retry_expired\":2,\"no_candidates\":0,\
             \"next_hop_offline\":0},\"delivered_latency_ms\":700}"
        ));
        // Histograms list their non-empty buckets only.
        assert!(json.contains(
            "\"worst_latency_histogram\":{\"width\":10.0,\"buckets\":[[14,1],[18,1],[26,1]]},\
             \"worst_latency_sum_ms\":580"
        ));
        assert!(json.contains("\"spam_histogram\":{\"width\":0.01,\"buckets\":[]}}"));
        assert!(json.contains("\"attack\":{"));
        assert!(json.contains("\"health\":["));
        // No bare NaN can appear.
        assert!(!json.contains("NaN"));
    }

    #[test]
    fn json_null_for_missing_attack() {
        let mut report = sample_report();
        report.attack = None;
        assert!(report.render_json().contains("\"attack\":null"));
    }

    #[test]
    fn renderings_carry_phase_timings() {
        let report = sample_report();
        let text = report.render_text();
        assert!(text.contains("maintenance phase timings (240 cohorts)"), "{text}");
        assert!(text.contains("propose 0.040 s"), "{text}");
        let json = report.render_json();
        assert!(json.contains("\"timings\":{\"cohorts\":240"), "{json}");
        assert!(json.contains("\"propose_secs\":0.04"), "{json}");
    }

    #[test]
    fn renderings_carry_set_up_timings() {
        let report = sample_report();
        let text = report.render_text();
        assert!(
            text.contains("set-up: trace 0.016 s  sim 0.023 s"),
            "{text}"
        );
        let json = report.render_json();
        assert!(
            json.contains("\"trace_secs\":0.016,\"sim_new_secs\":0.023}"),
            "{json}"
        );
        let mut untimed = report;
        untimed.timings = RunTimings::default();
        assert!(!untimed.render_text().contains("set-up:"));
    }

    #[test]
    fn equality_ignores_wall_clock_timings() {
        let a = sample_report();
        let mut b = sample_report();
        b.timings = RunTimings::default();
        assert_eq!(a, b, "timings must not affect report equality");
        b.skipped_ops += 1;
        assert_ne!(a, b, "real fields still compare");
    }

    #[test]
    fn renderings_carry_finalize_counters() {
        let report = sample_report();
        let text = report.render_text();
        assert!(text.contains("finalize fast path: memo hits 900"), "{text}");
        assert!(text.contains("discover pruned 700"), "{text}");
        assert!(text.contains("verdicts carried 600  ceiling raises 7"), "{text}");
        let json = report.render_json();
        assert!(json.contains("\"finalize\":{\"memo_hits\":900"), "{json}");
        assert!(json.contains("\"discover_pruned\":700"), "{json}");
        assert!(json.contains("\"verdicts_carried\":600,\"ceiling_raises\":7"), "{json}");
        assert!(json.contains("\"ceiling_raises\":7}"), "{json}");
        // All-zero counters (converged maintenance) drop the text block
        // but keep the JSON object for a stable schema.
        let mut quiet = sample_report();
        quiet.finalize = avmem::FinalizeStats::default();
        assert!(!quiet.render_text().contains("finalize fast path"));
        assert!(quiet.render_json().contains("\"finalize\":{\"memo_hits\":0"));
    }

    #[test]
    fn renderings_carry_estimator_accuracy_and_drops() {
        let mut report = sample_report();
        report.admission_drops = 7;
        let text = report.render_text();
        assert!(text.contains("estimator \"exact\": MAE 0.0100"), "{text}");
        assert!(text.contains("50.0% coverage"), "{text}");
        assert!(text.contains("admission drops (serve backpressure): 7"), "{text}");
        let json = report.render_json();
        assert!(json.contains("\"admission_drops\":7"), "{json}");
        assert!(json.contains("\"estimator\":{\"strategy\":\"exact\""), "{json}");
        assert!(json.contains("\"answered\":512"), "{json}");
        // A run with no samples drops the text line but keeps the JSON
        // object for a stable schema.
        let mut quiet = sample_report();
        quiet.estimator = EstimatorAccuracy::default();
        assert!(!quiet.render_text().contains("estimator"));
        assert!(!quiet.render_text().contains("admission drops"));
        assert!(quiet.render_json().contains("\"estimator\":{\"strategy\":\"\""));
    }

    #[test]
    fn estimator_accuracy_participates_in_equality() {
        let a = sample_report();
        let mut b = sample_report();
        b.estimator.abs_error_sum += 0.5;
        assert_ne!(a, b, "estimator accuracy is deterministic and compared");
        let mut c = sample_report();
        c.admission_drops = 3;
        assert_ne!(a, c, "admission drops are compared");
    }

    #[test]
    fn equality_ignores_finalize_counters() {
        let a = sample_report();
        let mut b = sample_report();
        b.finalize = avmem::FinalizeStats::default();
        assert_eq!(a, b, "finalize counters must not affect report equality");
    }

    #[test]
    fn equality_ignores_memory_observations() {
        let a = sample_report();
        let mut b = sample_report();
        b.memory = MemoryStats::default();
        assert_eq!(a, b, "memory gauges must not affect report equality");
    }

    #[test]
    fn renderings_carry_memory_observations() {
        let report = sample_report();
        let text = report.render_text();
        assert!(text.contains("memory: peak RSS 512.0 MiB"), "{text}");
        assert!(text.contains("heap peak 300.0 MiB"), "{text}");
        assert!(text.contains("allocs 123456"), "{text}");
        let json = report.render_json();
        assert!(json.contains("\"memory\":{\"peak_rss_bytes\":536870912"), "{json}");
        assert!(json.contains("\"heap_alloc_calls\":123456"), "{json}");
        // A build with no observations drops the text line but keeps the
        // JSON object (nulls) for a stable schema.
        let mut quiet = sample_report();
        quiet.memory = MemoryStats::default();
        assert!(!quiet.render_text().contains("memory: peak RSS"));
        assert!(quiet.render_json().contains("\"memory\":{\"peak_rss_bytes\":null"));
    }
}
