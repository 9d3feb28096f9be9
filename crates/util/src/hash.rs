//! Consistent, normalized hashing.
//!
//! The AVMEM predicate framework (Eq. 1 of the paper) is
//!
//! ```text
//! M(x, y) ≡ { H(id(x), id(y)) ≤ f(av(x), av(y)) }
//! ```
//!
//! where `H` is "a (consistent) normalized cryptographic hash function with
//! range \[0, 1\] — a normalized version of SHA-1 or MD-5 could be used".
//! This module provides exactly that: a from-scratch [SHA-256](sha256)
//! implementation (FIPS 180-4) plus [`normalized_hash`] /
//! [`consistent_hash`] helpers that map digests to the unit interval.
//!
//! The implementation is self-contained so the workspace needs no external
//! cryptography crates; the predicate only requires a fixed, well-known
//! function with uniformly distributed output.
//!
//! # Three kernels, one digest
//!
//! A pair hash is one SHA-256 compression of one padded block, and where
//! monitoring runs at full fidelity that compression *is* the run, so it
//! has three implementations, each pinned to the scalar one by the module
//! tests and chosen by the cached CPU-feature probe ([`Kernels`]) and
//! the length of the list — no environment variable, feature or knob:
//!
//! * the portable scalar rounds (`compress_scalar`) — the reference,
//!   and what runs where the CPU offers nothing else;
//! * SHA-NI, one block or two interleaved (`ni`) — single pairs and short
//!   lists; ≈ 41 ns a pair two at a time, the SHA unit's throughput floor;
//! * sixteen blocks in AVX-512 lanes (`wide`) — lists from
//!   `WIDE_MIN_PAIRS` (10) pairs up; ≈ 22 ns a pair on full groups.
//!
//! `pair_prefixes` is the one funnel under the four `*_batch` front-ends
//! and the one place a list is split between them.

use crate::cpu::Kernels;
use crate::NodeId;

/// A SHA-256 digest.
pub type Digest = [u8; 32];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Computes the SHA-256 digest of `data`.
///
/// This is a straightforward implementation of FIPS 180-4, validated
/// against the official test vectors (see the module tests).
///
/// # Examples
///
/// ```
/// use avmem_util::sha256;
///
/// let digest = sha256(b"abc");
/// assert_eq!(digest[0], 0xba);
/// assert_eq!(digest[31], 0xad);
/// ```
pub fn sha256(data: &[u8]) -> Digest {
    let mut state = H0;

    // Whole blocks straight from the input; the FIPS padding (0x80, zero
    // fill, 8-byte big-endian bit length) fits a fixed two-block tail, so
    // hashing never allocates — the predicate and monitor-assignment hot
    // paths call this hundreds of millions of times per run.
    let kernels = Kernels::detect();
    let mut blocks = data.chunks_exact(64);
    for block in &mut blocks {
        compress(kernels, &mut state, block);
    }
    let rem = blocks.remainder();
    let bit_len = (data.len() as u64).wrapping_mul(8);
    let mut tail = [0u8; 128];
    tail[..rem.len()].copy_from_slice(rem);
    tail[rem.len()] = 0x80;
    let tail_len = if rem.len() < 56 { 64 } else { 128 };
    tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
    for block in tail[..tail_len].chunks_exact(64) {
        compress(kernels, &mut state, block);
    }

    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// One SHA-256 compression round over a 64-byte block.
///
/// Dispatches to the SHA-NI hardware implementation when the CPU supports
/// it (one relaxed atomic load of a cached `cpuid` probe), falling back to
/// the portable scalar rounds. Both produce bit-identical digests — SHA-256
/// is fully specified, so this is an implementation choice invisible to
/// every consumer, including the Eq. 1 predicate whose reproducibility
/// depends on exact digests.
fn compress(kernels: Kernels, state: &mut [u32; 8], block: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if kernels.sha_ni() {
        debug_assert!(Kernels::detect().sha_ni() && block.len() >= 64);
        // SAFETY: a `Kernels` with `sha_ni` set exists only if the probe
        // confirmed the sha/ssse3/sse4.1 features at runtime, and callers
        // always pass a full 64-byte block.
        unsafe { ni::compress(state, block) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = kernels; // no hardware kernel on this architecture
    compress_scalar(state, block);
}

/// Portable FIPS 180-4 compression (message schedule + 64 scalar rounds).
fn compress_scalar(state: &mut [u32; 8], block: &[u8]) {
    let mut w = [0u32; 64];
    for (i, word) in w.iter_mut().take(16).enumerate() {
        *word = u32::from_be_bytes([
            block[4 * i],
            block[4 * i + 1],
            block[4 * i + 2],
            block[4 * i + 3],
        ]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// SHA-NI (Intel SHA extensions) compression.
///
/// The pair-hash hot path is one compression per `H(id(x), id(y))`, so at
/// 10^4 hosts the maintenance loop runs tens of millions of compressions per
/// simulated hour; the hardware rounds cut each from roughly 280 ns to under
/// 60 ns on this workload. The implementation follows the standard
/// `sha256rnds2`/`sha256msg1`/`sha256msg2` schedule (the same structure as
/// Intel's reference code) and is pinned bit-for-bit by the FIPS 180-4
/// vectors in the module tests, which exercise both this path and the scalar
/// fallback.
///
/// One compression is latency-bound, not throughput-bound: its 64 rounds
/// are a chain of 32 `sha256rnds2`, each waiting for the one before it, so a
/// block costs about 32 × the instruction's latency however idle the SHA
/// unit is in between. The unit is pipelined, so a second, independent chain
/// issues into the gaps of the first: `compress2_h0` runs two messages
/// through the rounds side by side and finishes both in little more than
/// the time of one. More chains do not help: measured on the box this was
/// written on, `sha256rnds2` retires one per ≈ 0.93 ns whether 2, 3, 4 or 6
/// independent chains are interleaved (1.28 ns with one), so two lanes are
/// already at the unit's throughput — ≈ 30 ns of rounds a block before the
/// schedule. Short lists of pair hashes go through it two at a time; long
/// ones go to the `wide` kernel, which does not use the SHA unit at all.
#[cfg(target_arch = "x86_64")]
mod ni {
    use super::{Kernels, H0, K};
    use std::arch::x86_64::*;

    /// Hardware SHA-256 compression over one 64-byte block.
    ///
    /// # Safety
    ///
    /// Requires the `sha`, `ssse3`, and `sse4.1` target features (a
    /// [`Kernels`](super::Kernels) with `sha_ni` set) and `block.len() >= 64`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress(state: &mut [u32; 8], block: &[u8]) {
        debug_assert!(Kernels::detect().sha_ni() && block.len() >= 64);

        // `sha256rnds2` wants the state packed as ABEF / CDGH.
        let tmp = _mm_loadu_si128(state.as_ptr().cast::<__m128i>());
        let st1 = _mm_loadu_si128(state.as_ptr().add(4).cast::<__m128i>());
        let tmp = _mm_shuffle_epi32(tmp, 0xB1); // CDAB
        let st1 = _mm_shuffle_epi32(st1, 0x1B); // EFGH
        let mut state0 = _mm_alignr_epi8(tmp, st1, 8); // ABEF
        let mut state1 = _mm_blend_epi16(st1, tmp, 0xF0); // CDGH

        let abef_save = state0;
        let cdgh_save = state1;

        // Byte shuffle turning each big-endian 32-bit message word into a
        // little-endian lane.
        let mask = _mm_set_epi64x(0x0c0d0e0f08090a0b_u64 as i64, 0x0405060700010203_u64 as i64);

        // Sixteen message words in four rolling registers.
        let mut msgs = [
            _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().cast::<__m128i>()), mask),
            _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(16).cast::<__m128i>()), mask),
            _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(32).cast::<__m128i>()), mask),
            _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(48).cast::<__m128i>()), mask),
        ];

        for i in 0..16 {
            // W[4i..4i+4] + K[4i..4i+4]; `rnds2` consumes the low pair then
            // the high pair.
            let k = _mm_loadu_si128(K.as_ptr().add(4 * i).cast::<__m128i>());
            let wk = _mm_add_epi32(msgs[i & 3], k);
            state1 = _mm_sha256rnds2_epu32(state1, state0, wk);
            let wk_hi = _mm_shuffle_epi32(wk, 0x0E);
            state0 = _mm_sha256rnds2_epu32(state0, state1, wk_hi);

            if i < 12 {
                // Schedule the next four words:
                //   W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16]
                let x0 = msgs[i & 3];
                let x1 = msgs[(i + 1) & 3];
                let x2 = msgs[(i + 2) & 3];
                let x3 = msgs[(i + 3) & 3];
                let w_minus_7 = _mm_alignr_epi8(x3, x2, 4);
                let partial = _mm_add_epi32(_mm_sha256msg1_epu32(x0, x1), w_minus_7);
                msgs[i & 3] = _mm_sha256msg2_epu32(partial, x3);
            }
        }

        state0 = _mm_add_epi32(state0, abef_save);
        state1 = _mm_add_epi32(state1, cdgh_save);

        // Unpack ABEF / CDGH back to word order.
        let tmp = _mm_shuffle_epi32(state0, 0x1B); // FEBA
        let st1 = _mm_shuffle_epi32(state1, 0xB1); // DCHG
        let out0 = _mm_blend_epi16(tmp, st1, 0xF0); // DCBA
        let out1 = _mm_alignr_epi8(st1, tmp, 8); // HGFE

        _mm_storeu_si128(state.as_mut_ptr().cast::<__m128i>(), out0);
        _mm_storeu_si128(state.as_mut_ptr().add(4).cast::<__m128i>(), out1);
    }

    /// Two independent single-block messages compressed from `H0` with
    /// their round chains interleaved; returns the first 128 bits of each
    /// digest (words `A‖B‖C‖D`, big-endian) — all a pair hash or a ring
    /// point reads. Same rounds and schedule as [`compress`], lane by lane.
    ///
    /// # Safety
    ///
    /// Requires the `sha`, `ssse3`, and `sse4.1` target features (a
    /// [`Kernels`](super::Kernels) with `sha_ni` set).
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress2_h0(blocks: [&[u8; 64]; 2]) -> [u128; 2] {
        debug_assert!(Kernels::detect().sha_ni());
        // `H0` already packed the way `sha256rnds2` wants it.
        let abef0 = _mm_set_epi32(H0[0] as i32, H0[1] as i32, H0[4] as i32, H0[5] as i32);
        let cdgh0 = _mm_set_epi32(H0[2] as i32, H0[3] as i32, H0[6] as i32, H0[7] as i32);
        let mut state0 = [abef0; 2];
        let mut state1 = [cdgh0; 2];

        let mask = _mm_set_epi64x(0x0c0d0e0f08090a0b_u64 as i64, 0x0405060700010203_u64 as i64);
        let mut msgs = [[_mm_setzero_si128(); 4]; 2];
        for (lane, block) in msgs.iter_mut().zip(blocks) {
            for (j, words) in lane.iter_mut().enumerate() {
                let raw = _mm_loadu_si128(block.as_ptr().add(16 * j).cast::<__m128i>());
                *words = _mm_shuffle_epi8(raw, mask);
            }
        }

        for i in 0..16 {
            let k = _mm_loadu_si128(K.as_ptr().add(4 * i).cast::<__m128i>());
            for l in 0..2 {
                let wk = _mm_add_epi32(msgs[l][i & 3], k);
                state1[l] = _mm_sha256rnds2_epu32(state1[l], state0[l], wk);
                let wk_hi = _mm_shuffle_epi32(wk, 0x0E);
                state0[l] = _mm_sha256rnds2_epu32(state0[l], state1[l], wk_hi);
            }
            if i < 12 {
                for lane in &mut msgs {
                    let x0 = lane[i & 3];
                    let x1 = lane[(i + 1) & 3];
                    let x2 = lane[(i + 2) & 3];
                    let x3 = lane[(i + 3) & 3];
                    let w_minus_7 = _mm_alignr_epi8(x3, x2, 4);
                    let partial = _mm_add_epi32(_mm_sha256msg1_epu32(x0, x1), w_minus_7);
                    lane[i & 3] = _mm_sha256msg2_epu32(partial, x3);
                }
            }
        }

        // ABEF / CDGH: the high halves are `A‖B` and `C‖D`.
        let mut out = [0u128; 2];
        for l in 0..2 {
            let ab = _mm_extract_epi64(_mm_add_epi32(state0[l], abef0), 1) as u64;
            let cd = _mm_extract_epi64(_mm_add_epi32(state1[l], cdgh0), 1) as u64;
            out[l] = (u128::from(ab) << 64) | u128::from(cd);
        }
        out
    }
}

/// Sixteen single-block SHA-256 compressions side by side in AVX-512
/// lanes.
///
/// The two-lane SHA-NI kernel above is bounded by the SHA unit, not by
/// SHA-256: `sha256rnds2` retires one per ≈ 0.93 ns on the box this was
/// written on whether 2, 3, 4 or 6 independent chains are interleaved
/// (1.28 ns with one), so the 32 a block needs are ≈ 30 ns before the
/// schedule. The vector ALUs have no such unit in the way. Here every one
/// of the sixteen 32-bit lanes of a `__m512i` carries its own message: the
/// eight state words and the rolling sixteen-word schedule are vectors, a
/// rotation is one `vprord`, `Ch`, `Maj` and each three-way xor one
/// `vpternlogd`, and the round constants broadcast from memory — the
/// scalar rounds of [`compress_scalar`](super::compress_scalar), sixteen
/// at a time. One call costs the same whatever the lanes hold, so it pays
/// only from [`WIDE_MIN_PAIRS`](super::WIDE_MIN_PAIRS) live lanes up.
#[cfg(target_arch = "x86_64")]
mod wide {
    use super::{Kernels, H0, K};
    use std::arch::x86_64::*;

    /// Compresses sixteen one-block messages from `H0`; `words[j][lane]` is
    /// big-endian message word `j` of lane `lane`'s block (word-major, so
    /// each row loads as one vector). Returns the first 128 bits of each
    /// digest (words `A‖B‖C‖D`), by lane.
    ///
    /// # Safety
    ///
    /// Requires the `avx512f` target feature (a
    /// [`Kernels`](super::Kernels) with `avx512` set).
    #[target_feature(enable = "avx512f")]
    // Round 63 writes an `e` the `A‖B‖C‖D` prefix does not read.
    #[allow(unused_assignments)]
    pub(super) unsafe fn compress16_h0(words: &[[u32; 16]; 16]) -> [u128; 16] {
        debug_assert!(Kernels::detect().avx512());
        let mut w = [_mm512_setzero_si512(); 16];
        for (vector, row) in w.iter_mut().zip(words) {
            *vector = _mm512_loadu_si512(row.as_ptr().cast());
        }
        let h0 = H0.map(|word| _mm512_set1_epi32(word as i32));
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = h0;

        // One round with the schedule step that feeds it. The state names
        // rotate from round to round instead of the values moving: after
        // `round!(a b c d e f g h, i)` the new `e` sits in `d` and the new
        // `a` in `h`. `i` is a literal, so every `w` index is a constant
        // and the sixteen schedule vectors stay in registers.
        macro_rules! round {
            ($a:ident $b:ident $c:ident $d:ident $e:ident $f:ident $g:ident $h:ident, $i:expr) => {{
                const I: usize = $i;
                if I >= 16 {
                    let (w1, w14) = (w[(I + 1) & 15], w[(I + 14) & 15]);
                    let s0 = _mm512_ternarylogic_epi32::<0x96>(
                        _mm512_ror_epi32::<7>(w1),
                        _mm512_ror_epi32::<18>(w1),
                        _mm512_srli_epi32::<3>(w1),
                    );
                    let s1 = _mm512_ternarylogic_epi32::<0x96>(
                        _mm512_ror_epi32::<17>(w14),
                        _mm512_ror_epi32::<19>(w14),
                        _mm512_srli_epi32::<10>(w14),
                    );
                    w[I & 15] = _mm512_add_epi32(
                        _mm512_add_epi32(w[I & 15], s0),
                        _mm512_add_epi32(w[(I + 9) & 15], s1),
                    );
                }
                let big_s1 = _mm512_ternarylogic_epi32::<0x96>(
                    _mm512_ror_epi32::<6>($e),
                    _mm512_ror_epi32::<11>($e),
                    _mm512_ror_epi32::<25>($e),
                );
                // 0xCA: bitwise `e ? f : g`.
                let ch = _mm512_ternarylogic_epi32::<0xCA>($e, $f, $g);
                let wk = _mm512_add_epi32(w[I & 15], _mm512_set1_epi32(K[I] as i32));
                let t1 = _mm512_add_epi32(
                    _mm512_add_epi32($h, big_s1),
                    _mm512_add_epi32(ch, wk),
                );
                let big_s0 = _mm512_ternarylogic_epi32::<0x96>(
                    _mm512_ror_epi32::<2>($a),
                    _mm512_ror_epi32::<13>($a),
                    _mm512_ror_epi32::<22>($a),
                );
                // 0xE8: bitwise majority.
                let maj = _mm512_ternarylogic_epi32::<0xE8>($a, $b, $c);
                $d = _mm512_add_epi32($d, t1);
                $h = _mm512_add_epi32(t1, _mm512_add_epi32(big_s0, maj));
            }};
        }
        macro_rules! rounds8 {
            ($($base:literal)*) => {$(
                round!(a b c d e f g h, $base);
                round!(h a b c d e f g, $base + 1);
                round!(g h a b c d e f, $base + 2);
                round!(f g h a b c d e, $base + 3);
                round!(e f g h a b c d, $base + 4);
                round!(d e f g h a b c, $base + 5);
                round!(c d e f g h a b, $base + 6);
                round!(b c d e f g h a, $base + 7);
            )*};
        }
        rounds8!(0 8 16 24 32 40 48 56);

        let mut prefix = [[0u32; 16]; 4];
        for ((row, word), start) in prefix.iter_mut().zip([a, b, c, d]).zip(h0) {
            _mm512_storeu_si512(row.as_mut_ptr().cast(), _mm512_add_epi32(word, start));
        }
        let [a, b, c, d] = prefix;
        std::array::from_fn(|lane| {
            (u128::from(a[lane]) << 96)
                | (u128::from(b[lane]) << 64)
                | (u128::from(c[lane]) << 32)
                | u128::from(d[lane])
        })
    }
}

/// The first 128 bits of a digest, big-endian.
fn digest_prefix(digest: &Digest) -> u128 {
    u128::from_be_bytes(digest[..16].try_into().expect("digest has 32 bytes"))
}

/// Maps a digest prefix to the unit interval `[0, 1)` using its first 8
/// bytes.
///
/// The output is uniform on `[0, 1)` given a uniform digest, with 53 bits
/// of effective precision (an `f64` mantissa).
fn prefix_to_unit(prefix: u128) -> f64 {
    let raw = (prefix >> 64) as u64;
    // Keep 53 significant bits so the conversion to f64 is exact.
    (raw >> 11) as f64 / (1u64 << 53) as f64
}

/// Computes a normalized hash of an arbitrary byte string: `[0, 1)`.
///
/// # Examples
///
/// ```
/// use avmem_util::normalized_hash;
///
/// let h = normalized_hash(b"hello");
/// assert!((0.0..1.0).contains(&h));
/// assert_eq!(h, normalized_hash(b"hello"));
/// assert_ne!(h, normalized_hash(b"world"));
/// ```
pub fn normalized_hash(data: &[u8]) -> f64 {
    prefix_to_unit(digest_prefix(&sha256(data)))
}

/// The paper's `H(id(x), id(y))`: a consistent, normalized hash of an
/// **ordered** pair of node identifiers.
///
/// The pair is ordered — `consistent_hash(x, y)` and `consistent_hash(y, x)`
/// are independent values — because the membership relation `M(x, y)` is
/// directed: `y` may be in `x`'s list while `x` is not in `y`'s.
///
/// # Examples
///
/// ```
/// use avmem_util::{consistent_hash, NodeId};
///
/// let h_xy = consistent_hash(NodeId::new(1), NodeId::new(2));
/// let h_yx = consistent_hash(NodeId::new(2), NodeId::new(1));
/// assert!((0.0..1.0).contains(&h_xy));
/// // Directed: the two orientations hash independently.
/// assert_ne!(h_xy, h_yx);
/// ```
pub fn consistent_hash(x: NodeId, y: NodeId) -> f64 {
    consistent_hash_keyed(b"", x, y)
}

/// A keyed variant of [`consistent_hash`] for deriving independent
/// consistent values from the same node pair (e.g. the AVMON monitor
/// assignment needs a hash family independent from the AVMEM predicate's).
///
/// # Examples
///
/// ```
/// use avmem_util::{consistent_hash_keyed, NodeId};
///
/// let a = consistent_hash_keyed(b"avmon", NodeId::new(1), NodeId::new(2));
/// let b = consistent_hash_keyed(b"avmem", NodeId::new(1), NodeId::new(2));
/// assert_ne!(a, b);
/// ```
pub fn consistent_hash_keyed(key: &[u8], x: NodeId, y: NodeId) -> f64 {
    prefix_to_unit(consistent_point_keyed(key, x, y))
}

/// The 128-bit sibling of [`consistent_hash_keyed`]: the same keyed
/// digest of the ordered pair, exposed as a full-precision point on the
/// `u128` circle instead of a normalized `f64`.
///
/// Consistent-hash rings (the AVMON ring assignment, on its top 96 bits)
/// place members and lookups on this circle; 96 bits and more make
/// accidental point collisions negligible even with `10⁶ hosts × vnodes`
/// points on one ring, which an `f64` (53 significant bits) could not
/// guarantee.
///
/// # Examples
///
/// ```
/// use avmem_util::{consistent_point_keyed, NodeId};
///
/// let p = consistent_point_keyed(b"ring", NodeId::new(1), NodeId::new(0));
/// assert_eq!(p, consistent_point_keyed(b"ring", NodeId::new(1), NodeId::new(0)));
/// assert_ne!(p, consistent_point_keyed(b"ring", NodeId::new(2), NodeId::new(0)));
/// ```
pub fn consistent_point_keyed(key: &[u8], x: NodeId, y: NodeId) -> u128 {
    match PairBlock::new(key) {
        Some(mut block) => {
            block.set(x, y);
            block_prefix(Kernels::detect(), &block.bytes)
        }
        None => long_key_prefix(key, x, y),
    }
}

/// [`consistent_hash`] of `x` against every id in `ys`, written to `out`
/// in order — bit-identical to the single-pair function, but hashed
/// sixteen pairs at a time on CPUs with AVX-512 (lists of ten and more)
/// and two at a time on CPUs with SHA extensions, which takes the cost per
/// pair from ≈ 90 ns to ≈ 22 and ≈ 41 (see the module docs).
///
/// # Panics
///
/// Panics if `ys` and `out` differ in length.
///
/// # Examples
///
/// ```
/// use avmem_util::{consistent_hash, consistent_hash_batch, NodeId};
///
/// let x = NodeId::new(7);
/// let mut row = [0.0; 5];
/// consistent_hash_batch(x, [0, 1, 2, 3, 4].map(NodeId::new), &mut row);
/// assert_eq!(row[3], consistent_hash(x, NodeId::new(3)));
/// ```
pub fn consistent_hash_batch<I>(x: NodeId, ys: I, out: &mut [f64])
where
    I: IntoIterator<Item = NodeId>,
    I::IntoIter: ExactSizeIterator,
{
    consistent_hash_keyed_batch(b"", x, ys, out);
}

/// The batched [`consistent_hash_keyed`]; see [`consistent_hash_batch`].
///
/// # Panics
///
/// Panics if `ys` and `out` differ in length.
pub fn consistent_hash_keyed_batch<I>(key: &[u8], x: NodeId, ys: I, out: &mut [f64])
where
    I: IntoIterator<Item = NodeId>,
    I::IntoIter: ExactSizeIterator,
{
    pair_prefixes(key, ys.into_iter().map(|y| (x, y)), out, prefix_to_unit);
}

/// The batched [`consistent_hash_keyed`] over arbitrary ordered pairs — a
/// column of the pair space (`x` varies) as well as a row.
///
/// # Panics
///
/// Panics if `pairs` and `out` differ in length.
pub fn consistent_hash_keyed_pair_batch<I>(key: &[u8], pairs: I, out: &mut [f64])
where
    I: IntoIterator<Item = (NodeId, NodeId)>,
    I::IntoIter: ExactSizeIterator,
{
    pair_prefixes(key, pairs.into_iter(), out, prefix_to_unit);
}

/// The batched [`consistent_point_keyed`], over arbitrary ordered pairs:
/// a ring varies the second id for a member's virtual points and the
/// first for its targets' lookup points.
///
/// # Panics
///
/// Panics if `pairs` and `out` differ in length.
pub fn consistent_point_keyed_batch<I>(key: &[u8], pairs: I, out: &mut [u128])
where
    I: IntoIterator<Item = (NodeId, NodeId)>,
    I::IntoIter: ExactSizeIterator,
{
    pair_prefixes(key, pairs.into_iter(), out, |point| point);
}

/// Longest domain key whose message `key ‖ id(x) ‖ id(y)` still pads into
/// a single SHA-256 block: 64 bytes less the ids, the `0x80` marker and the
/// 8-byte bit length.
const ONE_BLOCK_KEY_MAX: usize = 64 - 16 - 1 - 8;

/// The one padded SHA-256 block of `key ‖ id(x) ‖ id(y)`. Key, padding and
/// length are written once; [`PairBlock::set`] rewrites only the ids, so a
/// batch pays 16 bytes of stores per pair — no tail buffer, no digest
/// serialization.
#[derive(Clone, Copy)]
struct PairBlock {
    bytes: [u8; 64],
    /// Offset of `id(x)`: the key length.
    ids_at: usize,
}

impl PairBlock {
    /// `None` when the key leaves no room for ids and padding in one block.
    fn new(key: &[u8]) -> Option<Self> {
        if key.len() > ONE_BLOCK_KEY_MAX {
            return None;
        }
        let len = key.len() + 16;
        let mut bytes = [0u8; 64];
        bytes[..key.len()].copy_from_slice(key);
        bytes[len] = 0x80;
        bytes[56..].copy_from_slice(&(len as u64 * 8).to_be_bytes());
        Some(PairBlock {
            bytes,
            ids_at: key.len(),
        })
    }

    fn set(&mut self, x: NodeId, y: NodeId) {
        let ids = &mut self.bytes[self.ids_at..self.ids_at + 16];
        ids[..8].copy_from_slice(&x.to_bytes());
        ids[8..].copy_from_slice(&y.to_bytes());
    }
}

/// Sixteen [`PairBlock`]s of one key side by side, word-major — the input
/// of the sixteen-lane kernel. Key, padding and length are the same in
/// every lane and are broadcast once; only the rows the ids reach — four
/// when the key length is a multiple of four, five otherwise — are
/// rewritten per group of pairs.
#[cfg(target_arch = "x86_64")]
struct PairBlocks16 {
    /// `words[j][lane]`: big-endian message word `j` of lane `lane`.
    words: [[u32; 16]; 16],
    /// Index of the word `id(x)` starts in.
    first: usize,
    /// Bits the ids sit below the top of that word: 8 × (key length mod 4).
    shift: u32,
    /// The template's words `first` and `first + 4`: the key's last bytes
    /// above the ids, the `0x80` marker and padding below them.
    head: u32,
    tail: u32,
}

#[cfg(target_arch = "x86_64")]
impl PairBlocks16 {
    fn new(template: &PairBlock) -> Self {
        let mut words = [[0u32; 16]; 16];
        for (row, bytes) in words.iter_mut().zip(template.bytes.chunks_exact(4)) {
            *row = [u32::from_be_bytes(bytes.try_into().expect("chunks of four")); 16];
        }
        // `ids_at <= ONE_BLOCK_KEY_MAX`, so `first + 4 <= 13`: the ids
        // never reach the length words.
        let first = template.ids_at / 4;
        PairBlocks16 {
            words,
            first,
            shift: 8 * (template.ids_at % 4) as u32,
            head: words[first][0],
            tail: words[first + 4][0],
        }
    }

    /// Writes `id(x) ‖ id(y)` into `lane`: the 128 id bits, `shift` bits
    /// down from the top of word `first`, cut into big-endian words — the
    /// same bytes [`PairBlock::set`] stores, composed arithmetically so
    /// the kernel needs no byte swap.
    #[inline]
    fn set(&mut self, lane: usize, x: NodeId, y: NodeId) {
        let (x, y, shift) = (x.raw(), y.raw(), self.shift);
        let rows = &mut self.words[self.first..self.first + 5];
        rows[0][lane] = self.head | (x >> (32 + shift)) as u32;
        rows[1][lane] = (x >> shift) as u32;
        rows[2][lane] = (((x << 32) | (y >> 32)) >> shift) as u32;
        rows[3][lane] = (y >> shift) as u32;
        rows[4][lane] = self.tail | ((y << 32) >> shift) as u32;
    }
}

/// Fewest pairs worth a call of the sixteen-lane kernel.
///
/// One `compress16_h0` costs the same whatever its lanes hold. Measured on
/// the Sapphire Rapids box this was written on, through
/// [`consistent_hash_keyed_batch`] at key `"avmon"`, best of seven: a list
/// of 10–14 pairs sent wide reads 390–400 ns (≈ 365 ns a group in long
/// lists: 22.7 ns a pair), while the two-lane SHA-NI kernel reads ≈ 42 ns
/// a pair at any length (8 pairs 343 ns, 9 pairs 416, 10 pairs 427, 12
/// pairs 497). Eight pairs are cheaper two-lane, nine are inside the
/// noise, ten are cheaper wide (427 → 393 ns) and sixteen by 1.6× (665 →
/// 404–440). Not a knob: the two costs are properties of the kernels, and
/// a host where their ratio differs much (an AMD part, where SHA-NI is
/// quicker and 512-bit operations may be double-pumped — not measured)
/// would want a different kernel choice, not a different constant.
#[cfg(target_arch = "x86_64")]
const WIDE_MIN_PAIRS: usize = 10;

/// How many of a list's leading pairs go through the sixteen-lane kernel:
/// every full group of sixteen, and the tail as well when it has at least
/// [`WIDE_MIN_PAIRS`] pairs.
#[cfg(target_arch = "x86_64")]
fn wide_share(len: usize) -> usize {
    if len % 16 >= WIDE_MIN_PAIRS {
        len
    } else {
        len - len % 16
    }
}

/// Hashes `pairs` under `key` into `out` (through `map`) — the one funnel
/// under the four batch front-ends, and the one place that picks a kernel.
///
/// There are three, all pinned to the same scalar reference:
///
/// * sixteen lanes wide on AVX-512 ([`wide`]) for every full group of 16
///   pairs and a tail of at least [`WIDE_MIN_PAIRS`] — all-pairs AVMON
///   rows, dense rows, ring points, the longer discovery gathers;
/// * two interleaved SHA-NI chains ([`ni`]) for what is left — lists and
///   tails under the crossover, which is most of what per-second cohorts
///   gather — and for everything on a host without AVX-512;
/// * the scalar rounds where the CPU has neither, and for an odd pair.
///
/// The choice reads only the cached feature probe and the list's length.
fn pair_prefixes<T>(
    key: &[u8],
    pairs: impl ExactSizeIterator<Item = (NodeId, NodeId)>,
    out: &mut [T],
    map: impl Fn(u128) -> T,
) {
    pair_prefixes_on(Kernels::detect(), key, pairs, out, map);
}

/// [`pair_prefixes`] on the given kernels: the tests drive every dispatch
/// path through this on one host.
fn pair_prefixes_on<T>(
    kernels: Kernels,
    key: &[u8],
    pairs: impl ExactSizeIterator<Item = (NodeId, NodeId)>,
    out: &mut [T],
    map: impl Fn(u128) -> T,
) {
    assert_eq!(pairs.len(), out.len(), "batch and output lengths differ");
    let Some(template) = PairBlock::new(key) else {
        for (slot, (x, y)) in out.iter_mut().zip(pairs) {
            *slot = map(long_key_prefix(key, x, y));
        }
        return;
    };

    #[cfg(target_arch = "x86_64")]
    let (pairs, out) = wide_groups(kernels, &template, pairs, out, &map);

    let mut work = out.iter_mut().zip(pairs);
    let mut blocks = [template; 2];
    while let Some((slot_a, (x, y))) = work.next() {
        blocks[0].set(x, y);
        match work.next() {
            Some((slot_b, (x, y))) => {
                blocks[1].set(x, y);
                let [a, b] = block_prefixes(kernels, [&blocks[0].bytes, &blocks[1].bytes]);
                *slot_a = map(a);
                *slot_b = map(b);
            }
            None => *slot_a = map(block_prefix(kernels, &blocks[0].bytes)),
        }
    }
}

/// The sixteen-lane share of a list: hashes its leading [`wide_share`]
/// pairs — none without AVX-512 — and hands back the rest.
#[cfg(target_arch = "x86_64")]
fn wide_groups<'a, T, I>(
    kernels: Kernels,
    template: &PairBlock,
    mut pairs: I,
    out: &'a mut [T],
    map: &impl Fn(u128) -> T,
) -> (I, &'a mut [T])
where
    I: Iterator<Item = (NodeId, NodeId)>,
{
    if !kernels.avx512() {
        return (pairs, out);
    }
    let (wide_out, out) = out.split_at_mut(wide_share(out.len()));
    if !wide_out.is_empty() {
        let mut blocks = PairBlocks16::new(template);
        for group in wide_out.chunks_mut(16) {
            // A short last group leaves its dead lanes as they are — the
            // template's zero ids or the previous group's: they are hashed
            // and never read.
            for (lane, (x, y)) in pairs.by_ref().take(group.len()).enumerate() {
                blocks.set(lane, x, y);
            }
            debug_assert!(Kernels::detect().avx512());
            // SAFETY: `kernels.avx512()` held above, and a `Kernels` has it
            // set only if the probe detected `avx512f` at runtime.
            let prefixes = unsafe { wide::compress16_h0(&blocks.words) };
            for (slot, prefix) in group.iter_mut().zip(prefixes) {
                *slot = map(prefix);
            }
        }
    }
    (pairs, out)
}

/// First 128 bits of the digest of one already padded block.
fn block_prefix(kernels: Kernels, block: &[u8; 64]) -> u128 {
    let mut state = H0;
    compress(kernels, &mut state, block);
    state_prefix(&state)
}

/// [`block_prefix`] of two blocks, interleaved on the SHA-NI kernel.
fn block_prefixes(kernels: Kernels, blocks: [&[u8; 64]; 2]) -> [u128; 2] {
    #[cfg(target_arch = "x86_64")]
    if kernels.sha_ni() {
        debug_assert!(Kernels::detect().sha_ni());
        // SAFETY: a `Kernels` with `sha_ni` set exists only if the probe
        // confirmed the sha/ssse3/sse4.1 features at runtime.
        return unsafe { ni::compress2_h0(blocks) };
    }
    blocks.map(|block| block_prefix(kernels, block))
}

/// Digest words `A‖B‖C‖D`: the first 16 digest bytes, big-endian.
fn state_prefix(state: &[u32; 8]) -> u128 {
    state[..4]
        .iter()
        .fold(0, |acc, &word| (acc << 32) | u128::from(word))
}

/// Keys too long for [`PairBlock`]: the general multi-block hash.
fn long_key_prefix(key: &[u8], x: NodeId, y: NodeId) -> u128 {
    let mut buf = Vec::with_capacity(key.len() + 16);
    buf.extend_from_slice(key);
    buf.extend_from_slice(&x.to_bytes());
    buf.extend_from_slice(&y.to_bytes());
    digest_prefix(&sha256(&buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(digest: &Digest) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    // FIPS 180-4 / NIST CAVP test vectors.
    #[test]
    fn sha256_empty_string() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn sha256_abc() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn sha256_two_block_message() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha256_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn sha256_exact_block_boundaries() {
        // Lengths 55, 56, 63, 64, 65 cross the padding boundary cases.
        for len in [55usize, 56, 63, 64, 65] {
            let data = vec![0x5au8; len];
            let d = sha256(&data);
            // Re-hashing must be deterministic.
            assert_eq!(d, sha256(&data), "len={len}");
        }
    }

    /// SHA-256 on the scalar rounds only, with the general FIPS padding:
    /// the reference both the dispatching [`sha256`] and the one-block
    /// pair paths are pinned against.
    fn sha256_scalar(data: &[u8]) -> Digest {
        let mut state = H0;
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            compress_scalar(&mut state, block);
        }
        let rem = blocks.remainder();
        let bit_len = (data.len() as u64).wrapping_mul(8);
        let mut tail = [0u8; 128];
        tail[..rem.len()].copy_from_slice(rem);
        tail[rem.len()] = 0x80;
        let tail_len = if rem.len() < 56 { 64 } else { 128 };
        tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
        for block in tail[..tail_len].chunks_exact(64) {
            compress_scalar(&mut state, block);
        }
        let mut out = [0u8; 32];
        for (i, word) in state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    #[test]
    fn hardware_and_scalar_compress_agree() {
        // The FIPS vectors above pin whichever path `compress` dispatches
        // to; this pins the two implementations against each other on
        // varied block counts and contents. On CPUs without SHA-NI both
        // sides are the scalar path and the test is trivially true.
        for len in [0usize, 1, 17, 55, 56, 63, 64, 65, 127, 128, 129, 1000] {
            let data: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(7)).collect();
            assert_eq!(sha256(&data), sha256_scalar(&data), "len={len}");
        }
    }

    /// The digest of `key ‖ id(x) ‖ id(y)` by the scalar reference, as
    /// the 128-bit point and the unit-interval value read from it.
    fn scalar_pair(key: &[u8], x: NodeId, y: NodeId) -> (u128, f64) {
        let mut message = [0u8; 80];
        let len = key.len() + 16;
        message[..key.len()].copy_from_slice(key);
        message[key.len()..len - 8].copy_from_slice(&x.to_bytes());
        message[len - 8..len].copy_from_slice(&y.to_bytes());
        let digest = sha256_scalar(&message[..len]);
        // The unit value read the long way: 53 bits of the first 8 bytes.
        let raw = u64::from_be_bytes(digest[..8].try_into().unwrap());
        (digest_prefix(&digest), (raw >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// `A‖B‖C‖D` of one block by the scalar rounds.
    fn scalar_block_prefix(block: &[u8; 64]) -> u128 {
        let mut state = H0;
        compress_scalar(&mut state, block);
        state_prefix(&state)
    }

    /// Every narrowing of the host's kernels, widest first, with a name;
    /// a path the CPU lacks is reported on stdout, not silently passed.
    fn kernel_sets() -> Vec<(&'static str, Kernels)> {
        let host = Kernels::detect();
        let mut sets = vec![("scalar", host.without_sha_ni().without_avx512())];
        if host.sha_ni() {
            sets.push(("two-lane SHA-NI", host.without_avx512()));
        } else {
            println!("hash kernels: this CPU has no SHA-NI — two-lane paths not exercised");
        }
        if host.avx512() {
            sets.push(("sixteen-lane AVX-512 over scalar", host.without_sha_ni()));
        } else {
            println!("hash kernels: this CPU has no AVX-512F — sixteen-lane paths not exercised");
        }
        if host.avx512() && host.sha_ni() {
            sets.push(("sixteen-lane AVX-512 over two-lane SHA-NI", host));
        }
        sets
    }

    #[test]
    fn every_dispatch_path_gives_the_scalar_reference() {
        // Lengths on both sides of the crossover, one and two full groups
        // and every tail; ids at every word alignment (key lengths 0–5),
        // the longest one-block key and the multi-block fallback.
        let pairs: Vec<(NodeId, NodeId)> = (0..40u64)
            .map(|i| {
                let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA5A5_5A5A_F00F_0FF0;
                (NodeId::new(x), NodeId::new(!x.rotate_left(29)))
            })
            .collect();
        let key = b"a domain key long enough to need a second block";
        for (name, kernels) in kernel_sets() {
            println!("hash kernels: driving {name}");
            for key_len in [0, 1, 2, 3, 4, 5, ONE_BLOCK_KEY_MAX, ONE_BLOCK_KEY_MAX + 1] {
                let key = &key[..key_len];
                let expect: Vec<u128> = pairs
                    .iter()
                    .map(|&(x, y)| scalar_pair(key, x, y).0)
                    .collect();
                for len in 0..=pairs.len() {
                    let mut got = vec![0u128; len];
                    pair_prefixes_on(kernels, key, pairs[..len].iter().copied(), &mut got, |p| p);
                    assert_eq!(got, expect[..len], "{name}, key_len={key_len}, len={len}");
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_wide_kernel_takes_full_groups_and_tails_from_the_crossover() {
        assert_eq!(WIDE_MIN_PAIRS, 10, "the measured crossover (see its doc)");
        for len in 0..100 {
            let tail = len % 16;
            let expect = if tail >= 10 { len } else { len - tail };
            assert_eq!(wide_share(len), expect, "len={len}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn wide_lanes_hold_the_bytes_of_the_single_block() {
        // Pure lane set-up, checked on any x86-64 host: every key length,
        // so ids at every word alignment, against `PairBlock::set`.
        let (x, y) = (
            NodeId::new(0x0123_4567_89AB_CDEF),
            NodeId::new(0xFEDC_BA98_7654_3210),
        );
        for key_len in 0..=ONE_BLOCK_KEY_MAX {
            let key: Vec<u8> = (0..key_len as u8).map(|b| b.wrapping_mul(37) | 1).collect();
            let mut single = PairBlock::new(&key).unwrap();
            let mut lanes = PairBlocks16::new(&single);
            single.set(x, y);
            // Dirty the lane first: `set` must overwrite, not accumulate.
            lanes.set(11, y, x);
            lanes.set(11, x, y);
            for (j, bytes) in single.bytes.chunks_exact(4).enumerate() {
                let word = u32::from_be_bytes(bytes.try_into().unwrap());
                assert_eq!(lanes.words[j][11], word, "key_len={key_len}, word {j}");
            }
            // The other lanes still hold the template: zero ids.
            let template = PairBlock::new(&key).unwrap();
            for (j, bytes) in template.bytes.chunks_exact(4).enumerate() {
                let word = u32::from_be_bytes(bytes.try_into().unwrap());
                assert_eq!(lanes.words[j][10], word, "key_len={key_len}, word {j}");
            }
        }
    }

    #[test]
    fn a_tail_after_a_full_group_does_not_read_the_previous_groups_ids() {
        // 26 pairs: one full group, then a 10-pair tail in lanes the first
        // group left dirty. The tail's own ids must be what is hashed, and
        // the six dead lanes' stale ids must not leak into any output.
        let pairs: Vec<(NodeId, NodeId)> = (0..26u64)
            .map(|i| (NodeId::new(i << 40 | 7), NodeId::new(!i)))
            .collect();
        for (name, kernels) in kernel_sets() {
            let mut got = [0u128; 26];
            pair_prefixes_on(kernels, b"avmon", pairs.iter().copied(), &mut got, |p| p);
            for (k, (&(x, y), &point)) in pairs.iter().zip(&got).enumerate() {
                assert_eq!(point, scalar_pair(b"avmon", x, y).0, "{name}, pair {k}");
            }
            for k in 16..26 {
                assert_ne!(
                    got[k],
                    got[k - 16],
                    "{name}: tail pair {k} repeats its lane"
                );
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn two_lane_kernel_matches_scalar_rounds_on_any_blocks(
            a in proptest::collection::vec(proptest::prelude::any::<u8>(), 64),
            b in proptest::collection::vec(proptest::prelude::any::<u8>(), 64),
        ) {
            let blocks: [&[u8; 64]; 2] = [a[..].try_into().unwrap(), b[..].try_into().unwrap()];
            let scalar = blocks.map(scalar_block_prefix);
            let host = Kernels::detect();
            proptest::prop_assert_eq!(block_prefixes(host, blocks), scalar);
            proptest::prop_assert_eq!(blocks.map(|block| block_prefix(host, block)), scalar);
        }

        #[cfg(target_arch = "x86_64")]
        #[test]
        fn sixteen_lane_kernel_matches_scalar_rounds_on_any_blocks(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 16 * 64),
        ) {
            if !Kernels::detect().avx512() {
                // `every_dispatch_path_gives_the_scalar_reference` prints it.
                return;
            }
            let mut words = [[0u32; 16]; 16];
            let mut scalar = [0u128; 16];
            for (lane, block) in bytes.chunks_exact(64).enumerate() {
                for (j, word) in block.chunks_exact(4).enumerate() {
                    words[j][lane] = u32::from_be_bytes(word.try_into().unwrap());
                }
                scalar[lane] = scalar_block_prefix(block.try_into().unwrap());
            }
            debug_assert!(Kernels::detect().avx512());
            // SAFETY: the probe reported `avx512f` just above.
            let wide = unsafe { wide::compress16_h0(&words) };
            proptest::prop_assert_eq!(wide, scalar);
        }

        #[test]
        fn batches_match_single_pairs_and_the_scalar_reference(
            key in proptest::collection::vec(proptest::prelude::any::<u8>(), 64),
            xs in proptest::collection::vec(proptest::prelude::any::<u64>(), 40),
            ys in proptest::collection::vec(proptest::prelude::any::<u64>(), 40),
        ) {
            // Ids are full-width (mostly above `u32::MAX`); batch lengths
            // 0–40 cover empty, odd and even, the wide kernel's crossover,
            // one and two full groups of 16 and every tail on either side
            // of the crossover; key lengths 0–39 are the one-block path
            // with the ids at every word alignment, longer ones the
            // multi-block fallback. A row holds `x` and varies `y`, a
            // column varies `x` in every lane.
            const N: usize = 40;
            let ids = |raw: Vec<u64>| raw.into_iter().map(NodeId::new).collect::<Vec<_>>();
            let (xs, ys) = (ids(xs), ids(ys));
            let x = xs[0];
            let column: Vec<(NodeId, NodeId)> = xs.iter().copied().zip(ys.iter().copied()).collect();
            let (mut row_points, mut row_units) = ([0u128; N], [0f64; N]);
            let (mut col_points, mut col_units) = ([0u128; N], [0f64; N]);
            let (mut got_points, mut got_units) = ([0u128; N], [0f64; N]);
            for key_len in (0..=ONE_BLOCK_KEY_MAX + 2).chain([55, 56, 64]) {
                let key = &key[..key_len];
                for (k, &(cx, y)) in column.iter().enumerate() {
                    (row_points[k], row_units[k]) = scalar_pair(key, x, y);
                    (col_points[k], col_units[k]) = scalar_pair(key, cx, y);
                    proptest::prop_assert_eq!(consistent_point_keyed(key, x, y), row_points[k]);
                    proptest::prop_assert_eq!(consistent_hash_keyed(key, x, y), row_units[k]);
                    if key.is_empty() {
                        proptest::prop_assert_eq!(consistent_hash(x, y), row_units[k]);
                    }
                }
                for len in 0..=N {
                    let (ys, column) = (&ys[..len], &column[..len]);
                    got_points.fill(0);
                    consistent_point_keyed_batch(
                        key,
                        ys.iter().map(|&y| (x, y)),
                        &mut got_points[..len],
                    );
                    proptest::prop_assert_eq!(got_points[..len], row_points[..len], "key_len={}", key_len);
                    got_points.fill(0);
                    consistent_point_keyed_batch(key, column.iter().copied(), &mut got_points[..len]);
                    proptest::prop_assert_eq!(got_points[..len], col_points[..len], "key_len={}", key_len);
                    got_units.fill(f64::NAN);
                    consistent_hash_keyed_batch(key, x, ys.iter().copied(), &mut got_units[..len]);
                    proptest::prop_assert_eq!(got_units[..len], row_units[..len], "key_len={}", key_len);
                    got_units.fill(f64::NAN);
                    consistent_hash_keyed_pair_batch(key, column.iter().copied(), &mut got_units[..len]);
                    proptest::prop_assert_eq!(got_units[..len], col_units[..len], "key_len={}", key_len);
                    if key.is_empty() {
                        got_units.fill(f64::NAN);
                        consistent_hash_batch(x, ys.iter().copied(), &mut got_units[..len]);
                        proptest::prop_assert_eq!(got_units[..len], row_units[..len]);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "lengths differ")]
    fn batch_rejects_a_length_mismatch() {
        consistent_hash_batch(NodeId::new(1), [NodeId::new(2)], &mut [0.0; 2]);
    }

    #[test]
    fn normalized_hash_is_in_unit_interval() {
        for i in 0..100u64 {
            let h = normalized_hash(&i.to_be_bytes());
            assert!((0.0..1.0).contains(&h));
        }
    }

    #[test]
    fn normalized_hash_looks_uniform() {
        // Crude uniformity check: mean of many hashes near 0.5.
        let n = 2000u64;
        let sum: f64 = (0..n).map(|i| normalized_hash(&i.to_be_bytes())).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean={mean}");
    }

    #[test]
    fn consistent_hash_is_directed() {
        let x = NodeId::new(10);
        let y = NodeId::new(20);
        assert_ne!(consistent_hash(x, y), consistent_hash(y, x));
    }

    #[test]
    fn consistent_hash_is_stable_across_calls() {
        let x = NodeId::new(123);
        let y = NodeId::new(456);
        assert_eq!(consistent_hash(x, y), consistent_hash(x, y));
    }

    #[test]
    fn keyed_hash_separates_domains() {
        let x = NodeId::new(1);
        let y = NodeId::new(2);
        assert_ne!(
            consistent_hash_keyed(b"a", x, y),
            consistent_hash_keyed(b"b", x, y)
        );
    }

    #[test]
    fn keyed_point_and_keyed_hash_share_one_digest() {
        // The f64 view is the first 8 bytes (53 bits kept); the u128
        // point is the first 16 bytes. Their common prefix must agree.
        for i in 0..50u64 {
            let x = NodeId::new(i);
            let y = NodeId::new(i.wrapping_mul(31) + 7);
            let point = consistent_point_keyed(b"avmon", x, y);
            let raw = (point >> 64) as u64;
            let expect = (raw >> 11) as f64 / (1u64 << 53) as f64;
            assert_eq!(consistent_hash_keyed(b"avmon", x, y), expect);
        }
    }

    #[test]
    fn keyed_point_separates_domains_and_pairs() {
        let x = NodeId::new(1);
        let y = NodeId::new(2);
        assert_ne!(
            consistent_point_keyed(b"a", x, y),
            consistent_point_keyed(b"b", x, y)
        );
        assert_ne!(
            consistent_point_keyed(b"a", x, y),
            consistent_point_keyed(b"a", y, x)
        );
    }
}
