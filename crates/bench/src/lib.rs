#![warn(missing_docs)]

//! The paper's evaluation (§4), reproduced.
//!
//! [`paper`] holds the paper setting as one scenario spec (1442 hosts,
//! 7 days, 24-hour warm-up), run by [`avmem_scenario::ScenarioRunner`];
//! [`figures`] implements one experiment per table/figure of §4, each a
//! family of specs edited from that base, returning a printable result
//! struct; [`ablations`] varies one design choice at a time. Every result
//! states what the paper says about it as [`claims::Claim`] rows, each
//! with a band and a verdict. [`experiments`] lists them by id, for the
//! `figures` binary and `tests/paper_claims.rs` alike, and its
//! [`experiments::Harness`] gives every experiment its warm-ups, the base
//! spec's warmed once a seed. What the code costs to run is measured by
//! `perfbench/`, the repository's benchmark.

pub mod ablations;
pub mod claims;
pub mod experiments;
pub mod figures;
pub mod paper;
