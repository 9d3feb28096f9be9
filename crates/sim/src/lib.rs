#![warn(missing_docs)]

//! Deterministic discrete-event simulation engine.
//!
//! The AVMEM paper evaluates everything with a discrete event simulation
//! (§4). This crate provides the engine that the substrates (shuffling
//! membership, AVMON monitoring) and AVMEM itself run on:
//!
//! * [`SimTime`] / [`SimDuration`] — a millisecond-resolution virtual
//!   clock;
//! * [`Engine`] — a binary-heap scheduler with a deterministic tie-break,
//!   so that two runs with the same seed produce byte-identical histories;
//! * [`net`] — per-hop latency models (the paper draws hop latency
//!   uniformly from `[20 ms, 80 ms]`).
//!
//! The engine is generic over the event type: protocol crates define an
//! event enum and drive the loop themselves, which keeps this crate free
//! of any knowledge about overlays.
//!
//! # Examples
//!
//! ```
//! use avmem_sim::{Engine, SimDuration, SimTime};
//!
//! let mut engine: Engine<&'static str> = Engine::new();
//! engine.schedule(SimTime::ZERO + SimDuration::from_millis(5), "world");
//! engine.schedule(SimTime::ZERO, "hello");
//!
//! let mut seen = Vec::new();
//! engine.run_until(SimTime::ZERO + SimDuration::from_secs(1), |_, _, ev| {
//!     seen.push(ev);
//! });
//! assert_eq!(seen, vec!["hello", "world"]);
//! ```

pub mod engine;
pub mod net;
pub mod time;

pub use engine::Engine;
pub use net::{LatencyModel, Network};
pub use time::{SimDuration, SimTime};
