#![warn(missing_docs)]

//! Shuffling partial-membership substrate (the "coarse view").
//!
//! AVMEM's discovery sub-protocol (§3.1 of the paper) consumes "a
//! decentralized shuffling partial membership service, e.g., SCAMP,
//! CYCLON, T-MAN, LOCKSS": each node keeps a small, weakly consistent,
//! continuously *shuffled* list of random other nodes, so that any pair of
//! long-lived nodes eventually sees each other. The paper's implementation
//! reuses AVMON's coarse-view mechanism; ours is a faithful CYCLON-style
//! exchange (Voulgaris, Gavidia & van Steen, JNSM 2005):
//!
//! * every entry carries an **age**; each period a node contacts the
//!   *oldest* entry and swaps a small random subset of its view
//!   ([`ShuffleNode::initiate_with`] /
//!   [`ShuffleNode::handle_request_with`] /
//!   [`ShuffleNode::handle_reply_with`]);
//! * unresponsive targets are simply dropped (their entry was removed when
//!   the exchange started), which cleans dead nodes out of views;
//! * joining nodes bootstrap from any live seed.
//!
//! §3.1's optimality analysis picks the view size `v` to minimize
//! `v + N/v`, giving `v = O(√N)` — see [`optimal_view_size`].
//!
//! The state machines here are pure (no engine dependency): callers pass
//! messages between nodes however they like. Every exchange entry point
//! takes an [`EntryPool`] (the `_with` suffix): a driver that runs many
//! exchanges owns one, so message buffers are recycled and every view
//! merge indexes the view in the pool's id table instead of scanning it
//! per received entry; a test that wants no reuse passes
//! `&mut EntryPool::new()` per call. [`sim::RoundSim`] is a miniature
//! synchronous driver used by the tests and the discovery-time figures.

pub mod node;
pub mod pool;
pub mod sim;
pub mod view;

pub use node::{ShuffleConfig, ShuffleNode, ShuffleProposal};
pub use pool::EntryPool;
pub use view::{View, ViewEntry};

/// The view size minimizing memory/bandwidth vs discovery time, per the
/// paper's §3.1: `f(v) = v + N/v` is minimized at `v = √N`.
///
/// The result is at least 8, because tiny views make the exchange
/// degenerate in very small systems.
///
/// # Examples
///
/// ```
/// use avmem_shuffle::optimal_view_size;
///
/// assert_eq!(optimal_view_size(100_000), 316);
/// assert_eq!(optimal_view_size(1442), 37);
/// assert_eq!(optimal_view_size(4), 8); // floor for tiny systems
/// ```
pub fn optimal_view_size(n: usize) -> usize {
    ((n as f64).sqrt().floor() as usize).max(8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimal_view_size_is_sqrt_n() {
        assert_eq!(optimal_view_size(10_000), 100);
        assert_eq!(optimal_view_size(1_000_000), 1000);
    }

    #[test]
    fn optimal_view_size_has_floor() {
        assert_eq!(optimal_view_size(1), 8);
        assert_eq!(optimal_view_size(63), 8);
        assert_eq!(optimal_view_size(82), 9);
    }
}
