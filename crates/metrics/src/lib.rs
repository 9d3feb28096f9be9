#![warn(missing_docs)]

//! Observability surface for the AVMEM reproduction.
//!
//! Every long-running mode of the workspace — `scenario run`, `scenario
//! serve`, and the `perf` benchmark — reports through the one
//! [`Registry`] defined here. The design goals, in order:
//!
//! 1. **Lock-cheap hot path.** Instrument handles ([`Counter`], [`Gauge`],
//!    [`Histogram`]) are `Arc`s over atomics; recording is a relaxed
//!    `fetch_add`/`store` with no registry lock. The registry mutex is
//!    taken only at registration and render time.
//! 2. **Bounded memory.** Histograms are fixed arrays of
//!    [`histogram::BUCKETS`] log₂ buckets — percentile extraction
//!    (p50/p99/p999) costs one pass over 64 words, and a day of sustained
//!    traffic costs the same bytes as a minute.
//! 3. **No dependencies.** Everything (including the TCP endpoint in
//!    [`server`]) is `std`-only, so the crate stays a leaf every other
//!    crate can afford to depend on.
//!
//! Two exporters render the same registry: [`Registry::render_text`] (a
//! human snapshot) and [`Registry::render_prometheus`] (the Prometheus
//! text exposition format, served by [`MetricsServer`] at `/metrics`).
//!
//! [`Tracer`] is the phase-span layer: the maintenance harness opens a
//! [`Span`] per phase execution (keyed by `(phase, lane)`, where lane 0 is
//! the coordinator and the other lanes are shard workers) instead of
//! keeping ad-hoc `Instant` arithmetic, and the same spans feed both the
//! harness's `PhaseTimings` and, when a registry is attached, live
//! span-duration histograms.

pub mod histogram;
pub mod registry;
pub mod server;
pub mod trace;

pub use histogram::{Histogram, HistogramSnapshot};
pub use registry::{Counter, Gauge, Registry};
pub use server::{scrape, MetricsServer};
pub use trace::{shard_lane, Span, Tracer, LANES};
