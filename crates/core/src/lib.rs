#![warn(missing_docs)]

//! # AVMEM — availability-aware membership overlays
//!
//! A production-quality Rust reproduction of *"AVMEM — Availability-Aware
//! Overlays for Management Operations in Non-cooperative Distributed
//! Systems"* (Cho, Morales & Gupta, ACM/IFIP/USENIX Middleware 2007).
//!
//! AVMEM is a membership overlay in which every node `x` keeps two small
//! neighbor lists selected by a **random and consistent** predicate over
//! node identities and availabilities (Eq. 1 of the paper):
//!
//! ```text
//! M(x, y) ≡ { H(id(x), id(y)) ≤ f(av(x), av(y)) }
//! ```
//!
//! * the **horizontal sliver** holds a random subset of nodes with
//!   availability within `±ε` of `av(x)`;
//! * the **vertical sliver** holds a random sample across the whole
//!   availability spectrum.
//!
//! Consistency makes the relation verifiable by any third party, which
//! contains selfish nodes; randomness keeps the overlay connected with
//! `O(log N*)` degree. On top of the overlay, four availability-based
//! management operations run efficiently: threshold-/range-anycast and
//! threshold-/range-multicast.
//!
//! ## Module map
//!
//! | module | paper section | contents |
//! |--------|---------------|----------|
//! | [`predicate`] | §2 | Eq. 1 framework, sub-predicates I.A–I.C / II.A–II.B (the random baseline is I.A + II.A, `d₁ = d₂ = p`) |
//! | [`membership`] | §3.1 | HS/VS lists, discovery & refresh sub-protocols |
//! | [`verify`] | §4.1 | receiver-side admission checks + cushion |
//! | [`ops`] | §3.2 | anycast (greedy/retried/annealing) and multicast (flood/gossip) |
//! | [`graph`] | §4.1 | connectivity of the live lists: union-find components, hop distances |
//! | [`harness`] | §4 | the full-system simulation binding every substrate |
//!
//! ## Quickstart
//!
//! ```
//! use avmem::harness::{AvmemSim, SimConfig};
//! use avmem::ops::{run_anycast, AnycastConfig, AvailabilityTarget, OpScratch};
//! use avmem_sim::{LatencyModel, Network, SimDuration};
//! use avmem_trace::OvernetModel;
//! use avmem_util::{NodeId, SplitMix64};
//!
//! // A synthetic Overnet-like churn trace (the paper's workload).
//! let trace = OvernetModel::default().hosts(150).days(1).generate(42);
//!
//! // Build and warm up the overlay with the paper's default predicates.
//! let mut sim = AvmemSim::new(trace, SimConfig::paper_default(7));
//! sim.warm_up(SimDuration::from_hours(24));
//!
//! // Range-anycast into high availability from a mid-availability node.
//! let mid = |i: &&u32| {
//!     (1.0 / 3.0..2.0 / 3.0).contains(&sim.trace().long_term_availability(**i as usize).value())
//! };
//! if let Some(&initiator) = sim.online().online().iter().find(mid) {
//!     let outcome = run_anycast(
//!         &sim.world(),
//!         &mut Network::new(LatencyModel::PAPER, 1),
//!         &mut SplitMix64::new(2),
//!         &mut OpScratch::default(),
//!         NodeId::new(u64::from(initiator)),
//!         AvailabilityTarget::range(0.85, 0.95),
//!         AnycastConfig::paper_default(),
//!     );
//!     println!("delivered in {} hops", outcome.hops);
//! }
//! ```

pub mod graph;
pub mod harness;
pub mod membership;
pub mod ops;
pub mod predicate;
pub mod verify;

pub use harness::{AvmemSim, FinalizeStats, HealthStats, PhaseTimings, SimConfig};
pub use membership::{Membership, Neighbor, NeighborColumns, SliverScope};
pub use ops::{
    AnycastConfig, AnycastOutcome, AvailabilityTarget, ForwardPolicy, MulticastConfig,
    MulticastOutcome, MulticastStrategy,
};
pub use predicate::{AvmemPredicate, HorizontalRule, NodeInfo, Sliver, VerticalRule};
pub use verify::AdmissionPolicy;
