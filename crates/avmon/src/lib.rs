#![warn(missing_docs)]

//! AVMON-style availability monitoring substrate.
//!
//! The paper consumes an *availability monitoring service* as a black box
//! (§3.1): "one that can be queried for the long-term availability (e.g.,
//! raw, or aged) of any given node. It returns an answer that is
//! reasonably accurate, and that is reasonably consistent over time." The
//! authors use their own AVMON system (Morales & Gupta, ICDCS 2007). This
//! crate rebuilds the pieces of AVMON that AVMEM depends on:
//!
//! * [`assignment`] — AVMON's core idea: **consistent monitor selection**,
//!   as a strategy: the paper's all-pairs rule (`m` monitors `x` iff
//!   `H(id(m), id(x)) ≤ cms / N*`, a predicate any third party can
//!   verify, giving each node an expected `cms` uniformly random
//!   monitors — selfish nodes cannot choose their own monitors), and a
//!   consistent-hash-ring strategy ([`ring_rows`]) with the same
//!   consistency contract: a ring over all hosts, swept once into `k`
//!   monitors per target at set-up, O(N·vnodes) hashes where all-pairs
//!   costs O(N²);
//! * [`estimator`] — per-target ping bookkeeping: raw (lifetime fraction
//!   of answered pings) and aged (exponentially weighted) availability
//!   estimates;
//! * [`service`] — [`AvmonService`]: a full simulation-backed monitoring
//!   service over a churn trace. Each slot, online monitors ping their
//!   online targets; queries aggregate the monitors' current estimates
//!   (median), yielding the "reasonably accurate, reasonably consistent"
//!   answers the paper assumes — including their natural staleness and
//!   inconsistency. The pipeline is batched: build-once forward and
//!   inverted CSR monitor indexes, a flat estimator arena, counter-keyed
//!   ping-loss streams, and two parallel phases per slot on the
//!   persistent worker pool (see the [`service`] module docs);
//! * [`oracle`] — the [`AvailabilityOracle`] abstraction AVMEM queries,
//!   with ground-truth ([`TraceOracle`]) and fault-injecting
//!   ([`NoisyOracle`]) implementations used by the attack analysis
//!   (Figs. 5–6 of the paper).

pub mod assignment;
pub mod estimator;
pub mod oracle;
pub mod service;

pub use assignment::{ring_rows, AllPairsAssignment, NO_MONITOR};
pub use estimator::PingEstimator;
pub use oracle::{AvailabilityOracle, NoisyOracle, TraceOracle};
pub use service::{AssignmentChoice, AvmonConfig, AvmonService};
