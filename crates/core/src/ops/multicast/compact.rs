//! The forwarding pass's first step: which entries of a neighbor list
//! have a cached availability inside the target.
//!
//! [`compact`] writes the positions and ids of those entries to the
//! fronts of two `u32` columns, in list order, one entry at a time. Its
//! predicate is [`AvailabilityTarget::contains`]: `lo ≤ v ≤ hi` for a
//! range, `v > min` for a threshold, each comparison false on a NaN.
//!
//! A flood pass sends to every in-range neighbor and needs no positions,
//! only the count and the online receivers: on a CPU with AVX-512 F,
//! [`Lanes::compact_online`] gives both sixteen entries a step — two
//! eight-lane `f64` compares, one mask, a gather of each in-range id's
//! word of the world's online bits, the online ids compressed. It has no
//! scalar arm; there the caller runs [`compact`] and tests the bits
//! itself, which is also the reference its tests hold the vector arm to.

use avmem_util::cpu::Kernels;
use avmem_util::Availability;

use crate::ops::target::AvailabilityTarget;

/// Room [`Lanes::compact_online`]'s output column needs past the list's
/// length: the vector arm stores a whole vector of sixteen lanes at the
/// write cursor.
pub(super) const SLACK: usize = 16;

/// Which arm tests a flood's receivers: sixteen entries to a step, or
/// none (the caller's scalar loop). Only [`Lanes::detect`] (and the
/// tests' [`Lanes::every`]) builds the vector arm, and only on a CPU that
/// has it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct Lanes(Arm);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Arm {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Default for Lanes {
    fn default() -> Lanes {
        Lanes::detect()
    }
}

impl Lanes {
    /// The widest arm this CPU runs, from the cached feature probe.
    pub(super) fn detect() -> Lanes {
        #[cfg(target_arch = "x86_64")]
        if Kernels::detect().avx512() {
            return Lanes(Arm::Avx512);
        }
        Lanes(Arm::Scalar)
    }

    /// Every arm this CPU runs, scalar first, with a name; an arm the CPU
    /// lacks is reported on stdout, not silently passed.
    #[cfg(test)]
    pub(super) fn every() -> Vec<(&'static str, Lanes)> {
        let mut arms = vec![("scalar", Lanes(Arm::Scalar))];
        match Lanes::detect() {
            Lanes(Arm::Scalar) => {
                println!("flood receivers: this CPU has no AVX-512 F — vector arm not exercised")
            }
            wide => arms.push(("AVX-512", wide)),
        }
        arms
    }

    /// For a pass that sends to every in-range entry: how many `ids` have
    /// their `cached` availability in `target`, and how many of those are
    /// online by `words` (bit `id % 64` of word `id / 64`; an id past the
    /// last word is offline), their ids written to the front of
    /// `receivers` in order (past that count, garbage). `None` on the
    /// scalar arm, which leaves both steps to the caller.
    ///
    /// # Panics
    ///
    /// Panics unless `cached` is as long as `ids` and `receivers` has
    /// room for `ids.len() + SLACK` entries.
    pub(super) fn compact_online(
        self,
        target: AvailabilityTarget,
        ids: &[u32],
        cached: &[Availability],
        words: &[u64],
        receivers: &mut [u32],
    ) -> Option<(usize, usize)> {
        let len = ids.len();
        assert!(
            cached.len() == len && receivers.len() >= len + SLACK,
            "compaction columns are shorter than the list"
        );
        match self.0 {
            #[cfg(target_arch = "x86_64")]
            Arm::Avx512 => {
                debug_assert!(Kernels::detect().avx512());
                // SAFETY: only `Lanes::detect` and `Lanes::every` build this
                // arm, and only when the probe found `avx512f`; the lengths
                // were asserted above, and the gathers are bounded by
                // `words` inside the kernel.
                Some(unsafe { avx512::compact_online(target, ids, cached, words, receivers) })
            }
            Arm::Scalar => None,
        }
    }
}

/// Writes `base + i` to `positions` and `ids[i]` to `kept_ids`, at the
/// fronts and in order, for every `i` whose `cached[i]` lies in `target`;
/// returns how many. Past that count both columns hold garbage. Every
/// entry is stored and only the count depends on the test, a branch
/// nothing predicts when a broad target passes two entries in three.
///
/// # Panics
///
/// Panics unless `cached` is as long as `ids`, both columns are at least
/// as long, and `base + ids.len()` fits a `u32`.
pub(super) fn compact(
    target: AvailabilityTarget,
    ids: &[u32],
    cached: &[Availability],
    base: u32,
    positions: &mut [u32],
    kept_ids: &mut [u32],
) -> usize {
    let len = ids.len();
    assert!(
        cached.len() == len && positions.len() >= len && kept_ids.len() >= len,
        "compaction columns are shorter than the list"
    );
    assert!(
        u32::try_from(len).is_ok_and(|len| base.checked_add(len).is_some()),
        "list positions must fit u32"
    );
    let mut kept = 0;
    for (offset, (&id, &av)) in ids.iter().zip(cached).enumerate() {
        positions[kept] = base + offset as u32;
        kept_ids[kept] = id;
        kept += usize::from(target.contains(av));
    }
    kept
}

/// [`Lanes::compact_online`] sixteen entries to a step.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::AvailabilityTarget;
    use avmem_util::cpu::Kernels;
    use avmem_util::Availability;
    use std::arch::x86_64::*;

    // The loads below read a column of availabilities as `f64`s.
    const _: () = assert!(
        size_of::<Availability>() == size_of::<f64>()
            && align_of::<Availability>() == align_of::<f64>()
    );

    /// # Safety
    ///
    /// Requires the `avx512f` target feature (a [`Kernels`] with `avx512`
    /// set), `cached.len() == ids.len()` and room for `ids.len() + 16`
    /// entries in `receivers`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn compact_online(
        target: AvailabilityTarget,
        ids: &[u32],
        cached: &[Availability],
        words: &[u64],
        receivers: &mut [u32],
    ) -> (usize, usize) {
        debug_assert!(Kernels::detect().avx512());
        match target {
            AvailabilityTarget::Range { lo, hi } => {
                online_ids::<false>(lo, hi, ids, cached, words, receivers)
            }
            AvailabilityTarget::Threshold { min } => {
                online_ids::<true>(min, 0.0, ids, cached, words, receivers)
            }
        }
    }

    /// The lanes of the sixteen-entry step at `at` that hold an entry:
    /// all of them, or the list's tail.
    #[inline]
    fn valid_lanes(len: usize, at: usize) -> u16 {
        if len - at >= 16 {
            u16::MAX
        } else {
            (1u16 << (len - at)) - 1
        }
    }

    /// Which `valid` lanes of the step at `at` hold an availability in
    /// `lo ≤ v ≤ hi` or, under `THRESHOLD`, `v > lo` (`hi` unused).
    ///
    /// # Safety
    ///
    /// As [`compact_online`], `at < cached.len()`, and every `valid` lane
    /// lies inside `cached`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn in_range<const THRESHOLD: bool>(
        lo: __m512d,
        hi: __m512d,
        cached: &[Availability],
        at: usize,
        valid: u16,
    ) -> u16 {
        debug_assert!(at < cached.len());
        debug_assert!(at + (16 - valid.leading_zeros() as usize) <= cached.len());
        let avs = cached.as_ptr().cast::<f64>();
        let test = |lanes: __mmask8, v: __m512d| -> __mmask8 {
            if THRESHOLD {
                _mm512_mask_cmp_pd_mask::<_CMP_GT_OQ>(lanes, v, lo)
            } else {
                let above = _mm512_mask_cmp_pd_mask::<_CMP_LE_OQ>(lanes, lo, v);
                _mm512_mask_cmp_pd_mask::<_CMP_LE_OQ>(above, v, hi)
            }
        };
        let (low, high) = (valid as u8, (valid >> 8) as u8);
        // SAFETY: `at` lies inside `cached`, so `avs.add(at)` does; the
        // second half's pointer is formed only when one of its lanes is
        // valid, so `at + 8` lies inside `cached` too. A masked load reads
        // only its set lanes, each inside `cached` (the caller's
        // precondition).
        let (first, second) = unsafe {
            (
                _mm512_maskz_loadu_pd(low, avs.add(at)),
                if high == 0 {
                    _mm512_setzero_pd()
                } else {
                    _mm512_maskz_loadu_pd(high, avs.add(at + 8))
                },
            )
        };
        u16::from(test(low, first)) | u16::from(test(high, second)) << 8
    }

    /// [`compact_online`]'s loop, for one target kind.
    ///
    /// # Safety
    ///
    /// As [`compact_online`].
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn online_ids<const THRESHOLD: bool>(
        lo: f64,
        hi: f64,
        ids: &[u32],
        cached: &[Availability],
        words: &[u64],
        receivers: &mut [u32],
    ) -> (usize, usize) {
        let len = ids.len();
        debug_assert!(Kernels::detect().avx512());
        debug_assert!(cached.len() == len && receivers.len() >= len + 16);
        let (lo, hi) = (_mm512_set1_pd(lo), _mm512_set1_pd(hi));
        // The gathers read the words as `u32` halves (x86 is little-endian:
        // bit `id % 32` of half `id / 32` is bit `id % 64` of word
        // `id / 64`), and only for ids below this bound. An id of
        // `u32::MAX` (no node: ids are below `id_bound ≤ u32::MAX`) is
        // taken as offline even by words that would cover it.
        let bound = _mm512_set1_epi32(u32::try_from(64 * words.len()).unwrap_or(u32::MAX) as i32);
        let halves = words.as_ptr().cast::<i32>();
        let (mut kept, mut online) = (0, 0);
        let mut at = 0;
        while at < len {
            // Lanes past the list's end are neither read nor kept.
            let valid = valid_lanes(len, at);
            // SAFETY: `at < len`, and the valid lanes lie inside `cached`
            // and `ids`, as long; a gather reads only the lanes whose id is
            // below `64 * words.len()`, so half `id / 32` lies inside
            // `words`; the store writes sixteen lanes from
            // `online ≤ at < len`, inside the `len + 16` of the
            // precondition.
            unsafe {
                let mask = in_range::<THRESHOLD>(lo, hi, cached, at, valid);
                kept += mask.count_ones() as usize;
                let id = _mm512_maskz_loadu_epi32(valid, ids.as_ptr().add(at).cast());
                let covered = _mm512_mask_cmplt_epu32_mask(mask, id, bound);
                let half = _mm512_srli_epi32::<5>(id);
                let word =
                    _mm512_mask_i32gather_epi32::<4>(_mm512_setzero_si512(), covered, half, halves);
                let bit = _mm512_srlv_epi32(word, _mm512_and_si512(id, _mm512_set1_epi32(31)));
                let up = _mm512_mask_test_epi32_mask(covered, bit, _mm512_set1_epi32(1));
                let at_receivers = receivers.as_mut_ptr().add(online).cast();
                _mm512_storeu_si512(at_receivers, _mm512_maskz_compress_epi32(up, id));
                online += up.count_ones() as usize;
            }
            at += 16;
        }
        (kept, online)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the compaction must write: the in-range entries, filtered one
    /// by one with [`AvailabilityTarget::contains`].
    fn filtered(
        target: AvailabilityTarget,
        ids: &[u32],
        cached: &[Availability],
        base: u32,
    ) -> Vec<(u32, u32)> {
        (0..ids.len())
            .filter(|&i| target.contains(cached[i]))
            .map(|i| (base + i as u32, ids[i]))
            .collect()
    }

    /// At every length from 0 to 40, for a range and a threshold, with
    /// availabilities exactly on `lo`, `hi` and `min` and on either side
    /// of them, into garbage-filled columns.
    #[test]
    fn compact_keeps_what_the_filter_keeps_at_every_length() {
        let (lo, hi) = (0.25, 0.75);
        let targets = [
            AvailabilityTarget::range(lo, hi),
            AvailabilityTarget::threshold(lo),
            // Bounds no constructor allows: every comparison with a NaN
            // is false, here as in `contains`.
            AvailabilityTarget::Range { lo: f64::NAN, hi },
            AvailabilityTarget::Range { lo, hi: f64::NAN },
            AvailabilityTarget::Threshold { min: f64::NAN },
        ];
        let values = [
            0.0,
            lo,
            hi,
            lo.next_down(),
            lo.next_up(),
            hi.next_down(),
            hi.next_up(),
            0.5,
            1.0,
        ];
        for target in targets {
            for len in 0..=40usize {
                for shift in 0..values.len() {
                    let ids: Vec<u32> = (0..len as u32).map(|i| 1000 + 7 * i).collect();
                    let cached: Vec<Availability> = (0..len)
                        .map(|i| Availability::saturating(values[(i * 5 + shift) % values.len()]))
                        .collect();
                    let base = 3 * shift as u32;
                    let mut positions = vec![u32::MAX; len];
                    let mut kept_ids = vec![u32::MAX; len];
                    let kept = compact(target, &ids, &cached, base, &mut positions, &mut kept_ids);
                    let got: Vec<(u32, u32)> = positions[..kept]
                        .iter()
                        .copied()
                        .zip(kept_ids[..kept].iter().copied())
                        .collect();
                    assert_eq!(
                        got,
                        filtered(target, &ids, &cached, base),
                        "{target} len {len}"
                    );
                }
            }
        }
    }

    /// The vector arm against the filter and the bit test, over the same
    /// lengths and boundary values, with ids inside the words, past their
    /// end, and `u32::MAX`; the scalar arm has none.
    #[test]
    fn every_arm_tests_online_words_like_the_bits() {
        let (lo, hi) = (0.25, 0.75);
        let targets = [
            AvailabilityTarget::range(lo, hi),
            AvailabilityTarget::threshold(lo),
            AvailabilityTarget::Range { lo: f64::NAN, hi },
            AvailabilityTarget::Threshold { min: f64::NAN },
        ];
        let values = [
            0.0,
            lo,
            hi,
            lo.next_down(),
            lo.next_up(),
            hi.next_down(),
            hi.next_up(),
            1.0,
        ];
        let words = [
            0x9e37_79b9_7f4a_7c15_u64,
            u64::MAX,
            0,
            0xbf58_476d_1ce4_e5b9,
        ];
        let online = |id: u32| {
            let word = words.get(id as usize / 64).copied().unwrap_or(0);
            word >> (id % 64) & 1 != 0
        };
        for (name, lanes) in Lanes::every() {
            println!("flood receivers: driving the {name} arm against online words");
            for target in targets {
                for len in 0..=40usize {
                    for shift in 0..values.len() {
                        let ids: Vec<u32> = (0..len)
                            .map(|i| match (i + shift) % 11 {
                                0 => u32::MAX,
                                1 => 256 + 37 * i as u32,
                                _ => (59 * (i + shift) % 256) as u32,
                            })
                            .collect();
                        let cached: Vec<Availability> = (0..len)
                            .map(|i| {
                                Availability::saturating(values[(i * 3 + shift) % values.len()])
                            })
                            .collect();
                        let mut receivers = vec![u32::MAX; len + SLACK];
                        let got =
                            lanes.compact_online(target, &ids, &cached, &words, &mut receivers);
                        let Some((kept, up)) = got else {
                            assert_eq!(name, "scalar");
                            continue;
                        };
                        let in_range: Vec<u32> = (0..len)
                            .filter(|&i| target.contains(cached[i]))
                            .map(|i| ids[i])
                            .collect();
                        let expected: Vec<u32> =
                            in_range.iter().copied().filter(|&id| online(id)).collect();
                        assert_eq!(kept, in_range.len(), "{name} {target} len {len}");
                        assert_eq!(receivers[..up], expected[..], "{name} {target} len {len}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "compaction columns are shorter than the list")]
    fn columns_shorter_than_the_list_are_refused() {
        let mut short = vec![0; 2];
        let mut room = vec![0; 3];
        let cached = [Availability::ONE; 3];
        compact(
            AvailabilityTarget::threshold(0.5),
            &[1, 2, 3],
            &cached,
            0,
            &mut short,
            &mut room,
        );
    }

    #[test]
    #[should_panic(expected = "compaction columns are shorter than the list")]
    fn receivers_without_the_slack_are_refused() {
        let mut short = vec![0; 3 + SLACK - 1];
        let cached = [Availability::ONE; 3];
        Lanes::detect().compact_online(
            AvailabilityTarget::threshold(0.5),
            &[1, 2, 3],
            &cached,
            &[u64::MAX],
            &mut short,
        );
    }

    #[test]
    #[should_panic(expected = "list positions must fit u32")]
    fn positions_past_u32_are_refused() {
        let mut room = vec![0; 2];
        let mut more = vec![0; 2];
        let cached = [Availability::ONE; 2];
        compact(
            AvailabilityTarget::threshold(0.5),
            &[1, 2],
            &cached,
            u32::MAX - 1,
            &mut room,
            &mut more,
        );
    }
}
