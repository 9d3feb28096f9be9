//! Heap and resident-set observability.
//!
//! Two complementary sources feed the memory gauges of the scenario
//! layer:
//!
//! * a **counting global allocator** ([`CountingAlloc`]) that wraps the
//!   system allocator and keeps live/peak heap byte counters plus a
//!   cumulative allocation count. It is only installed when the
//!   `heap-stats` feature is enabled (the `avmem_scenario` crate turns
//!   it on by default); the counters are a handful of relaxed atomic
//!   ops per allocation, cheap enough to leave on in production runs.
//! * **kernel RSS sampling** ([`current_rss_bytes`], [`peak_rss_bytes`])
//!   parsed from `/proc/self/status`, available unconditionally on
//!   Linux and `None` elsewhere.
//!
//! The allocator counters answer "what does the *hot state* cost",
//! the RSS numbers answer "what does the *process* cost" (they include
//! allocator slack, code, and stacks); reports carry both.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

/// A point-in-time snapshot of the counting allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HeapStats {
    /// Bytes currently allocated and not yet freed.
    pub live_bytes: u64,
    /// High-water mark of `live_bytes` since process start.
    pub peak_bytes: u64,
    /// Cumulative number of allocation calls (alloc + realloc).
    pub alloc_calls: u64,
}

/// A [`GlobalAlloc`] wrapper around [`System`] that counts live bytes,
/// the peak, and allocation calls with relaxed atomics.
///
/// Declared as the global allocator by this crate when the
/// `heap-stats` feature is on; downstream crates never install it
/// themselves, they only read [`heap_stats`].
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn on_alloc(size: usize) {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        let live = LIVE_BYTES.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }

    #[inline]
    fn on_dealloc(size: usize) {
        let live = LIVE_BYTES.fetch_sub(size as u64, Ordering::Relaxed);
        // Every block freed was counted when it was allocated, and that
        // count precedes this one in the counter's modification order.
        debug_check(live >= size as u64);
    }
}

/// `debug_assert!` for the allocator's preconditions. A `GlobalAlloc`
/// must not unwind, so a broken one aborts instead of panicking.
#[inline]
fn debug_check(holds: bool) {
    if cfg!(debug_assertions) && !holds {
        std::process::abort();
    }
}

// SAFETY: defers every allocation to `System` and only adds counter
// bookkeeping; sizes passed to on_alloc/on_dealloc mirror the layouts
// handed to the system allocator (`on_dealloc` checks the live count
// never goes below zero).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        debug_check(layout.size() != 0);
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            Self::on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        debug_check(layout.size() != 0);
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            Self::on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        debug_check(!ptr.is_null() && layout.size() != 0);
        System.dealloc(ptr, layout);
        Self::on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        debug_check(!ptr.is_null() && layout.size() != 0 && new_size != 0);
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            Self::on_dealloc(layout.size());
            Self::on_alloc(new_size);
        }
        new_ptr
    }
}

#[cfg(feature = "heap-stats")]
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Whether the counting allocator is installed in this build.
///
/// When `false`, [`heap_stats`] returns all-zero counters.
#[must_use]
pub fn heap_tracking_installed() -> bool {
    cfg!(feature = "heap-stats")
}

/// Current counting-allocator snapshot (all zeros when the `heap-stats`
/// feature is off).
#[must_use]
pub fn heap_stats() -> HeapStats {
    HeapStats {
        live_bytes: LIVE_BYTES.load(Ordering::Relaxed),
        peak_bytes: PEAK_BYTES.load(Ordering::Relaxed),
        alloc_calls: ALLOC_CALLS.load(Ordering::Relaxed),
    }
}

/// Cumulative allocation-call count. Zero when tracking is off.
///
/// The difference across a call counts its allocations (the warm
/// multicast bound of `crates/scenario/tests/ops_alloc.rs` reads it so).
#[must_use]
pub fn alloc_calls() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// Current resident set size in bytes (`VmRSS`), if the platform
/// exposes it.
#[must_use]
pub fn current_rss_bytes() -> Option<u64> {
    proc_status_bytes("VmRSS:")
}

/// Peak resident set size in bytes (`VmHWM`), if the platform exposes
/// it.
#[must_use]
pub fn peak_rss_bytes() -> Option<u64> {
    proc_status_bytes("VmHWM:")
}

#[cfg(target_os = "linux")]
fn proc_status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(field) {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

#[cfg(not(target_os = "linux"))]
fn proc_status_bytes(_field: &str) -> Option<u64> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_are_coherent() {
        let stats = heap_stats();
        assert!(stats.peak_bytes >= stats.live_bytes || !heap_tracking_installed());
        if heap_tracking_installed() {
            // Allocate something and watch the counters move. The
            // counters are process-wide and the other tests of this
            // binary allocate and free on their own threads meanwhile,
            // so one observation can be off by their traffic: one
            // undisturbed observation among many is what must exist.
            let undisturbed = (0..1000).any(|_| {
                let before = heap_stats();
                let v: Vec<u8> = Vec::with_capacity(1 << 16);
                let during = heap_stats();
                drop(v);
                let after = heap_stats();
                during.alloc_calls > before.alloc_calls
                    && during.live_bytes >= before.live_bytes + (1 << 16)
                    && after.live_bytes < during.live_bytes
                    && after.peak_bytes >= during.live_bytes
            });
            assert!(undisturbed, "counters never followed a 64 KiB allocation");
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn rss_sampling_works_on_linux() {
        let rss = current_rss_bytes().expect("VmRSS present");
        let peak = peak_rss_bytes().expect("VmHWM present");
        assert!(rss > 0);
        assert!(peak >= rss);
    }
}
