#![warn(missing_docs)]

//! The paper's evaluation (§4), reproduced.
//!
//! [`paper`] holds the paper setting as one scenario spec (1442 hosts,
//! 7 days, 24-hour warm-up) and how an experiment reads it through
//! [`avmem_scenario::ScenarioRunner`], warming each seed once; [`figures`]
//! implements one experiment per table/figure of §4, each a family of
//! specs edited from that base, returning a printable, machine-checkable
//! result struct; [`ablations`] varies one design choice at a time. The
//! `figures` binary dispatches on experiment id. What the code costs to
//! run is measured by `perfbench/`, the repository's benchmark.

pub mod ablations;
pub mod figures;
pub mod paper;
