//! The CPU-feature probe the hardware kernels are chosen by.
//!
//! A [`Kernels`] value comes only from [`Kernels::detect`] — the host's
//! cached feature probe — and can only be narrowed afterwards (the
//! crate's own tests drive every path on one host that way), so holding
//! one with a flag set is the proof the `unsafe` kernel calls rely on:
//! the pair-hash kernels of [`crate::hash`] and the churn lanes of the
//! trace generators. The fields are private to this module for that
//! reason.

use std::sync::atomic::{AtomicU8, Ordering};

/// The hardware kernels this CPU can run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Kernels {
    sha_ni: bool,
    avx512: bool,
    avx512dq: bool,
}

const PROBED: u8 = 1;
const SHA_NI: u8 = 2;
const AVX512: u8 = 4;
const AVX512DQ: u8 = 8;

/// The probe's answer, 0 until it has run. `Relaxed` suffices: the value
/// is a pure function of the CPU and publishes nothing else.
static DETECTED: AtomicU8 = AtomicU8::new(0);

// Off x86-64 nothing is ever detected and the hash kernels never ask.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
impl Kernels {
    /// What this CPU has. Probes once, then costs one relaxed load.
    #[inline]
    pub fn detect() -> Self {
        let mut bits = DETECTED.load(Ordering::Relaxed);
        if bits == 0 {
            bits = probe();
            DETECTED.store(bits, Ordering::Relaxed);
        }
        Kernels {
            sha_ni: bits & SHA_NI != 0,
            avx512: bits & AVX512 != 0,
            avx512dq: bits & AVX512DQ != 0,
        }
    }

    /// The SHA extensions plus the SSSE3 / SSE4.1 shuffles the two-lane
    /// hash kernel massages its state with.
    #[inline]
    pub fn sha_ni(self) -> bool {
        self.sha_ni
    }

    /// `avx512f`, all the sixteen-lane hash kernel uses: it builds its
    /// message words arithmetically, so it needs no `avx512bw` byte
    /// shuffle.
    #[inline]
    pub fn avx512(self) -> bool {
        self.avx512
    }

    /// `avx512f` and `avx512dq`: eight 64-bit lanes a vector with the
    /// 64-bit multiply (`vpmullq`) SplitMix64's output step needs.
    #[inline]
    pub fn avx512dq(self) -> bool {
        self.avx512dq
    }

    #[cfg(test)]
    pub(crate) fn without_sha_ni(self) -> Self {
        Kernels {
            sha_ni: false,
            ..self
        }
    }

    #[cfg(test)]
    pub(crate) fn without_avx512(self) -> Self {
        Kernels {
            avx512: false,
            avx512dq: false,
            ..self
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn probe() -> u8 {
    let mut bits = PROBED;
    if is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
    {
        bits |= SHA_NI;
    }
    if is_x86_feature_detected!("avx512f") {
        bits |= AVX512;
        if is_x86_feature_detected!("avx512dq") {
            bits |= AVX512DQ;
        }
    }
    bits
}

#[cfg(not(target_arch = "x86_64"))]
fn probe() -> u8 {
    PROBED
}
