#![warn(missing_docs)]

//! The paper's evaluation (§4), reproduced.
//!
//! [`setup`] builds paper-scale simulations (1442 hosts, 7 days, 20-minute
//! slots); [`figures`] implements one experiment per table/figure of the
//! paper's §4, each returning a printable, machine-checkable result
//! struct; [`ablations`] varies one design choice at a time. The `figures`
//! binary dispatches on experiment id. What the code costs to run is
//! measured elsewhere: by `perfbench/`, the repository's benchmark.

pub mod ablations;
pub mod figures;
pub mod setup;

pub use setup::PaperSetup;
