//! Full-system simulation configuration.

use avmem_avmon::AvmonConfig;
use avmem_sim::SimDuration;
use avmem_trace::AvailabilityPdf;
use serde::{Deserialize, Serialize};

use crate::predicate::{AvmemPredicate, HorizontalRule, VerticalRule};

/// Which membership predicate builds the overlay.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PredicateChoice {
    /// The AVMEM predicate family (the paper's contribution). `N*` and
    /// the availability PDF are derived from the trace at build time.
    Avmem {
        /// Horizontal-band half-width (paper: 0.1).
        epsilon: f64,
        /// Vertical-sliver sub-predicate.
        vertical: VerticalRule,
        /// Horizontal-sliver sub-predicate.
        horizontal: HorizontalRule,
    },
    /// The availability-agnostic consistent-random baseline (Fig. 10):
    /// expected out-degree `expected_degree`. It is the AVMEM predicate
    /// under rules I.A + II.A with `d₁ = d₂ = p`, `p = min(degree / N, 1)`
    /// over a population of `N` hosts, and ε = 0.1.
    Random {
        /// Target expected out-degree.
        expected_degree: f64,
    },
}

impl PredicateChoice {
    /// The predicate this choice stands for over a population of
    /// `population` hosts, with the system-wide `N*` and availability PDF
    /// the simulation derived from its trace.
    ///
    /// # Panics
    ///
    /// Wherever [`AvmemPredicate::new`] does.
    pub fn build(self, population: usize, n_star: f64, pdf: AvailabilityPdf) -> AvmemPredicate {
        match self {
            PredicateChoice::Avmem {
                epsilon,
                vertical,
                horizontal,
            } => AvmemPredicate::new(epsilon, n_star, vertical, horizontal, pdf),
            PredicateChoice::Random { expected_degree } => {
                let p = (expected_degree / population as f64).min(1.0);
                AvmemPredicate::new(
                    0.1,
                    n_star,
                    VerticalRule::Constant { d1: p },
                    HorizontalRule::Constant { d2: p },
                    pdf,
                )
            }
        }
    }

    /// The paper's default predicates: ε = 0.1, I.B + II.B with
    /// [`crate::predicate::DEFAULT_C1`] / [`crate::predicate::DEFAULT_C2`].
    pub fn paper_default() -> Self {
        PredicateChoice::Avmem {
            epsilon: 0.1,
            vertical: VerticalRule::Logarithmic {
                c1: crate::predicate::DEFAULT_C1,
            },
            horizontal: HorizontalRule::LogarithmicConstant {
                c2: crate::predicate::DEFAULT_C2,
            },
        }
    }
}

/// Which availability oracle the overlay queries.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OracleChoice {
    /// Ground truth from the trace (a perfect monitoring service).
    Exact,
    /// Ground truth plus per-querier noise and staleness — the model the
    /// attack analysis (Figs. 5–6) uses: divergent caches are the worst
    /// case for receiver-side verification.
    Noisy {
        /// Uniform error amplitude.
        error: f64,
        /// How long a (querier, target) answer stays cached.
        staleness: SimDuration,
    },
    /// Ground truth plus noise *shared across queriers* (re-drawn each
    /// staleness epoch) — models AVMON's aggregated answers, which every
    /// client receives identically. Used by the multicast spam analysis
    /// (Fig. 12).
    NoisyShared {
        /// Uniform error amplitude.
        error: f64,
        /// How long an aggregate answer stays fixed.
        staleness: SimDuration,
    },
    /// The full ping-based AVMON service. `config.assignment` picks the
    /// monitor-assignment strategy: the paper's all-pairs rule, or the
    /// consistent-hash ring whose `N·vnodes` set-up hashes make
    /// 10⁵–10⁶-host populations buildable.
    Avmon {
        /// AVMON parameters.
        config: AvmonConfig,
    },
}

impl OracleChoice {
    /// The default fault model used for attack experiments: ±0.05 error,
    /// 20-minute staleness.
    pub fn paper_noise() -> Self {
        OracleChoice::Noisy {
            error: 0.05,
            staleness: SimDuration::from_mins(20),
        }
    }
}

/// How the overlay is maintained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MaintenanceMode {
    /// Compute the converged overlay directly from the predicate over the
    /// whole population — the state the discovery protocol reaches after
    /// running long enough (§3.1's discovery-time analysis shows full
    /// convergence in `O(N/v)` periods, well inside the paper's 24 h
    /// warm-up).
    Converged,
    /// Run the actual sub-protocols through the event engine: per-period
    /// CYCLON shuffling + discovery over the coarse view, and periodic
    /// refresh.
    EventDriven {
        /// Discovery/shuffle period (paper: 1 minute).
        protocol_period: SimDuration,
        /// Refresh period (paper: 20 minutes).
        refresh_period: SimDuration,
    },
}

impl MaintenanceMode {
    /// The paper's event-driven parameters: 1-minute protocol period,
    /// 20-minute refresh period.
    pub fn paper_event_driven() -> Self {
        MaintenanceMode::EventDriven {
            protocol_period: SimDuration::from_mins(1),
            refresh_period: SimDuration::from_mins(20),
        }
    }
}

/// How event-driven maintenance partitions each timestamp cohort.
///
/// The periodic schedule pops *cohorts* — every event sharing the next
/// timestamp — and the harness runs each cohort in canonical phases: a
/// per-node **propose** phase (shuffle initiation decisions, bootstrap
/// seeding, all randomness counter-keyed by `(run_seed, node,
/// timestamp)` — the shard id is deliberately *not* part of the key, so
/// draws are independent of the shard count), a **commit** phase applying
/// shuffle requests in ascending initiator id and then the replies and
/// timeouts, and a per-node **finalize** phase (discovery over the
/// post-commit view, then refresh). There is one implementation of those
/// phases: nodes are partitioned by id into `S` contiguous shards, each
/// owning its slice of the shuffle/membership state and of every cohort
/// the schedule pops; propose and finalize run per shard, commit
/// exchanges cross-shard request/reply batches at phase barriers and
/// applies them in a deterministic merge order. The engine only says how
/// many shards there are and how many worker threads may drive them —
/// read through [`MaintenanceEngine::shards`] and
/// [`MaintenanceEngine::threads`] — and the state after every cohort is
/// bit-identical for any choice of either. A shard count above the
/// population runs one node a shard (`avmem_util::ShardPartition`
/// clamps it): each barrier walks every (source, destination) pair of
/// shards, so its cost per cohort grows with the square of the count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MaintenanceEngine {
    /// One shard on one thread: the spelling of `Sharded { shards:
    /// Some(1), threads: Some(1) }` that specs, the CLI and sweeps use,
    /// and the baseline the equivalence matrix compares against.
    Serial,
    /// `S` shards driven by up to `K` worker threads. Small cohorts run
    /// their shard phases on the calling thread whatever the thread
    /// count: below a few hundred events the pool's wake-up and barriers
    /// cost more than the work.
    Sharded {
        /// Shard count; `None` matches the resolved thread count.
        shards: Option<usize>,
        /// Worker-thread cap; `None` uses all available cores (respecting
        /// any cgroup CPU quota).
        threads: Option<usize>,
    },
}

impl MaintenanceEngine {
    /// The worker-thread count this engine runs with.
    pub fn threads(self) -> usize {
        match self {
            MaintenanceEngine::Serial => 1,
            MaintenanceEngine::Sharded { threads, .. } => {
                threads.unwrap_or_else(avmem_util::parallel::default_threads)
            }
        }
    }

    /// The shard count this engine partitions the population into.
    /// Defaults to the resolved thread count, so an unconfigured run gets
    /// one shard per worker.
    pub fn shards(self) -> usize {
        match self {
            MaintenanceEngine::Serial => 1,
            MaintenanceEngine::Sharded { shards, .. } => {
                shards.unwrap_or_else(|| self.threads()).max(1)
            }
        }
    }
}

/// Complete configuration of an [`crate::harness::AvmemSim`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Master seed for all protocol randomness (latencies, gossip,
    /// annealing, shuffling). The trace carries its own seed.
    pub seed: u64,
    /// Overlay predicate.
    pub predicate: PredicateChoice,
    /// Availability oracle.
    pub oracle: OracleChoice,
    /// Maintenance mode.
    pub maintenance: MaintenanceMode,
    /// Shard and thread counts of event-driven maintenance (ignored in
    /// [`MaintenanceMode::Converged`], whose rebuild is always parallel).
    pub engine: MaintenanceEngine,
    /// Memory budget (bytes) for stored pair-hash rows. Populations
    /// whose dense matrix (`8·N²` bytes) fits the budget keep the rows
    /// the converged rebuild's full-row scans hash; larger ones store
    /// nothing and hash each row into scratch. See
    /// [`crate::harness::PairHashes::with_budget`]. Event-driven finalize
    /// reads no row — it hashes its own candidate lists — but the same
    /// bound decides whether it keeps its per-pair verdict
    /// memory — one bit per ordered pair, `N²/8` bytes; two, `N²/4`,
    /// under an oracle whose epoch moves (the second holds the verdicts
    /// that outlive a turnover), 1/32 of the matrix the budget stands for
    /// — or keeps its no-insert verdicts as mark bits in the view slots
    /// themselves, no byte beyond the views.
    pub hash_budget: usize,
}

/// The pair-hash budget for [`SimConfig::paper_default`]: the crate
/// default, overridable through the `AVMEM_HASH_BUDGET` environment
/// variable (bytes) so CI can run the suites on either side of it —
/// dense rows and verdict bits, or on-the-fly hashing and view-slot
/// marks — without code changes.
fn hash_budget_from_env() -> usize {
    std::env::var("AVMEM_HASH_BUDGET")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(crate::harness::hashes::DEFAULT_HASH_BUDGET)
}

impl SimConfig {
    /// The paper's evaluation setup: default predicates, exact oracle,
    /// converged maintenance. Hops take the paper's uniform 20–80 ms
    /// ([`avmem_sim::LatencyModel::PAPER`]) in every configuration.
    pub fn paper_default(seed: u64) -> Self {
        SimConfig {
            seed,
            predicate: PredicateChoice::paper_default(),
            oracle: OracleChoice::Exact,
            maintenance: MaintenanceMode::Converged,
            engine: MaintenanceEngine::Sharded {
                shards: None,
                threads: None,
            },
            hash_budget: hash_budget_from_env(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_paper_constants() {
        let cfg = SimConfig::paper_default(1);
        let PredicateChoice::Avmem {
            epsilon,
            vertical,
            horizontal,
        } = cfg.predicate
        else {
            panic!("paper default must be the AVMEM predicate");
        };
        assert_eq!(epsilon, 0.1);
        assert_eq!(
            vertical,
            VerticalRule::Logarithmic {
                c1: crate::predicate::DEFAULT_C1
            }
        );
        assert_eq!(
            horizontal,
            HorizontalRule::LogarithmicConstant {
                c2: crate::predicate::DEFAULT_C2
            }
        );
    }

    #[test]
    fn default_engine_is_sharded_with_machine_threads() {
        let cfg = SimConfig::paper_default(1);
        assert_eq!(
            cfg.engine,
            MaintenanceEngine::Sharded {
                shards: None,
                threads: None,
            }
        );
        assert!(cfg.engine.threads() >= 1);
        assert!(cfg.engine.shards() >= 1);
        assert_eq!(MaintenanceEngine::Serial.threads(), 1);
        assert_eq!(MaintenanceEngine::Serial.shards(), 1);
        let pinned = MaintenanceEngine::Sharded {
            shards: Some(4),
            threads: Some(6),
        };
        assert_eq!(pinned.threads(), 6);
        assert_eq!(pinned.shards(), 4);
        // Shards default to the resolved thread count.
        let auto = MaintenanceEngine::Sharded {
            shards: None,
            threads: Some(3),
        };
        assert_eq!(auto.shards(), 3);
    }

    #[test]
    fn paper_event_driven_periods() {
        let MaintenanceMode::EventDriven {
            protocol_period,
            refresh_period,
        } = MaintenanceMode::paper_event_driven()
        else {
            panic!("expected event driven");
        };
        assert_eq!(protocol_period, SimDuration::from_mins(1));
        assert_eq!(refresh_period, SimDuration::from_mins(20));
    }
}
