//! Availability-based management operations over the AVMEM overlay
//! (§3.2 of the paper): threshold-/range-anycast and
//! threshold-/range-multicast.
//!
//! * [`target`] — the availability region an operation addresses;
//! * [`world`] — the read-only system interface operations execute
//!   against;
//! * [`anycast`] — greedy / retried-greedy / simulated-annealing
//!   forwarding (§3.2-I);
//! * [`multicast`] — two-stage multicast: anycast into the range, then
//!   flooding or gossip within it (§3.2-II);
//! * [`OpScratch`] — the working memory both reuse from one operation to
//!   the next.
//!
//! An operation is a function of its world, its latency [`Network`], its
//! random stream and its arguments. Over a simulation the world is
//! [`crate::harness::AvmemSim::world`]; the caller owns the network and
//! the stream, so it decides what an operation's draws depend on (the
//! scenario runner keys both by seed and operation index).
//!
//! [`Network`]: avmem_sim::Network

pub mod anycast;
mod calendar;
pub mod multicast;
pub mod target;
pub mod world;

pub use anycast::{run_anycast, AnycastConfig, AnycastDrop, AnycastOutcome, ForwardPolicy};
pub use multicast::{run_multicast, MulticastConfig, MulticastOutcome, MulticastStrategy};
pub use target::AvailabilityTarget;
pub use world::OverlayWorld;

/// Working memory of the operations, reused from one operation to the
/// next so that a warm anycast allocates only its outcome and a warm
/// multicast costs what it reaches, never `O(N)` (given a world that
/// counts [`OverlayWorld::eligible`] without a scan, as the harness's
/// does): the anycast's candidate ranking and the multicast's dense,
/// generation-stamped per-node columns and calendar queue. Contents never
/// carry meaning across calls — any `OpScratch`, fresh or used, gives the
/// same result.
#[derive(Debug, Default)]
pub struct OpScratch {
    pub(crate) ranking: Vec<anycast::Candidate>,
    pub(crate) dissemination: multicast::Dissemination,
}
