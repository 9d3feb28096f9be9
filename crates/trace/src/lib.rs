#![warn(missing_docs)]

//! Churn traces for the AVMEM reproduction.
//!
//! The paper's evaluation (§4) injects "churn (availability variation)
//! traces from the Overnet p2p system … collected over a 7 day period, at
//! 20 minute intervals, for a fixed population of 1442 hosts". The
//! original trace (Bhagwan et al., IPTPS'03) is not redistributable, so
//! this crate supplies:
//!
//! * [`ChurnTrace`] — the trace representation itself: a per-node
//!   online/offline matrix over fixed-width time slots, with availability
//!   accessors;
//! * [`OvernetModel`] — a synthetic generator reproducing the published
//!   Overnet marginals (heavily skewed availability — about half the hosts
//!   below 0.3 — with slot-level churn), so experiments run out of the box;
//! * [`GridModel`] — a reboot-heavy Grid'5000-style generator (§1 of the
//!   paper cites machines rebooting tens of times per day), for workload
//!   sensitivity studies;
//! * [`FlashCrowdModel`] — population-scale regime changes: a flash
//!   crowd joining a running system, or a mass departure, for scenario
//!   stress tests;
//! * [`AvailabilityPdf`] — the discretized availability PDF `p(·)` that
//!   the AVMEM predicates take as a consistent, system-wide input,
//!   together with the derived quantities `N*_av(x)` and `N*min_av(x)`
//!   from §2.1 of the paper;
//! * [`OnlineIndex`] — a per-slot cache of the online population, so
//!   event-driven drivers answer "who is up right now" without scanning
//!   the trace per event;
//! * [`io`] — a plain-text trace format, so real traces can be dropped in
//!   as a replacement for the synthetic ones.
//!
//! # Examples
//!
//! ```
//! use avmem_trace::{ChurnTrace, OvernetModel};
//!
//! let trace = OvernetModel::default().hosts(100).days(1).generate(42);
//! assert_eq!(trace.num_nodes(), 100);
//! // Long-term availability equals the fraction of slots spent online.
//! let av = trace.long_term_availability(0);
//! assert!((0.0..=1.0).contains(&av.value()));
//! ```

mod chain;
pub mod churn;
pub mod flash;
pub mod grid;
pub mod io;
pub mod online;
pub mod overnet;
pub mod pdf;

pub use churn::{ChurnStats, ChurnTrace};
pub use flash::{CrowdDirection, FlashCrowdModel};
pub use grid::GridModel;
pub use online::OnlineIndex;
pub use overnet::OvernetModel;
pub use pdf::AvailabilityPdf;
