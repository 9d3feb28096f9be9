#![warn(missing_docs)]

//! Shared utilities for the AVMEM reproduction.
//!
//! This crate hosts the small, dependency-free building blocks every other
//! crate in the workspace leans on:
//!
//! * [`NodeId`] — opaque node identifiers (the paper's `id(x)`, an IP:port
//!   or hash-based identity);
//! * [`Availability`] — a validated `[0, 1]` availability value (the
//!   paper's `av(x)`);
//! * [`sha256`] — a from-scratch SHA-256 used to build the *normalized
//!   consistent hash* `H(id(x), id(y)) ∈ [0, 1]` of the AVMEM predicate
//!   framework (Eq. 1 of the paper);
//! * [`ring`] — a keyed consistent-hash ring with virtual points, the
//!   `O(log N)` backbone of the AVMON ring assignment strategy;
//! * [`rng`] — a deterministic, seedable random number generator
//!   (SplitMix64) so that whole-system simulations are bit-reproducible;
//! * [`stats`] — summary statistics, histograms and empirical CDFs used by
//!   the experiment harness;
//! * [`parallel`] — chunk-parallelism for the simulator's hot loops on a
//!   persistent, lazily started worker pool (no external thread-pool
//!   dependency; `AVMEM_THREADS` caps it);
//! * [`shard`] — contiguous shard partitioning of the node population,
//!   the ownership map of the sharded maintenance harness;
//! * [`stamped`] — a dense generation-stamped `id → u32` table: O(1) id
//!   probes for the view merge and the discovery filter, emptied by
//!   bumping a counter.
//!
//! # Examples
//!
//! ```
//! use avmem_util::{consistent_hash, Availability, NodeId};
//!
//! let x = NodeId::new(42);
//! let y = NodeId::new(7);
//! let h = consistent_hash(x, y);
//! assert!((0.0..=1.0).contains(&h));
//! // Consistency: any party evaluating the hash gets the same value.
//! assert_eq!(h, consistent_hash(x, y));
//!
//! let av = Availability::new(0.73).unwrap();
//! assert_eq!(av.value(), 0.73);
//! ```

pub mod availability;
pub mod hash;
pub mod heap;
pub mod id;
pub mod parallel;
pub mod ring;
pub mod rng;
pub mod shard;
pub mod stamped;
pub mod stats;

pub use availability::{Availability, AvailabilityError};
pub use hash::{
    consistent_hash, consistent_hash_batch, consistent_hash_keyed, consistent_hash_keyed_batch,
    consistent_hash_keyed_pair_batch, consistent_point_keyed, consistent_point_keyed_batch,
    normalized_hash, sha256, Digest,
};
pub use heap::{heap_stats, heap_tracking_installed, peak_rss_bytes, HeapStats};
pub use id::NodeId;
pub use ring::HashRing;
pub use rng::{Rng, SplitMix64};
pub use shard::ShardPartition;
pub use stamped::StampedTable;
