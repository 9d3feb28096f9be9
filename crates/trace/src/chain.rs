//! The two-state churn chain, stepped 64 hosts a block.
//!
//! Every generator of this crate gives each host a two-state Markov
//! chain: an up host goes down with `P(up→down)`, a down host comes back
//! with `P(down→up)` ([`transition_probabilities`]), and one `next_f64`
//! from the host's own SplitMix64 stream decides each slot. A host's
//! draws do not depend on its chain's state — only the one `up` bit is
//! carried from slot to slot — and SplitMix64 is counter-based
//! ([`SplitMix64::counter`]), so a [`Block`] steps 64 hosts' chains side
//! by side, one lane each, and one slot of all 64 is one word of the
//! trace's column.
//!
//! A lane compares integers, not floats. With `x` the draw's top 53 bits,
//! `next_f64` is exactly `x / 2⁵³`, so `u ≥ p ⇔ x ≥ ⌈p·2⁵³⌉` and
//! `u < p ⇔ x < ⌈p·2⁵³⌉` for every `p ∈ [0, 1]` ([`cutoff`]). On a CPU
//! with AVX-512 F and DQ (the 64-bit multiply of SplitMix64's output
//! step) a block draws its 64 values eight to a vector; elsewhere it runs
//! scalar lanes of the same shape ([`Kernel`]). Both are held to the
//! one-host-at-a-time chain by this module's tests, and each generator to
//! its own per-host loop by its tests.

use avmem_util::cpu::Kernels;
use avmem_util::SplitMix64;

/// Computes `(P(up→down), P(down→up))` for a two-state chain with
/// stationary availability `a` and mean up-session `mean_up` slots.
///
/// Stationarity requires `p_up / (p_up + p_down) = a`. We fix
/// `p_down = 1 / mean_up` and derive `p_up = a·p_down / (1−a)`; when that
/// exceeds 1 (very high availability with short sessions) we instead pin
/// `p_up = 1` and derive `p_down = (1−a)/a`.
pub(crate) fn transition_probabilities(a: f64, mean_up: f64) -> (f64, f64) {
    let p_down = 1.0 / mean_up;
    let p_up = a * p_down / (1.0 - a);
    if p_up <= 1.0 {
        (p_down, p_up)
    } else {
        ((1.0 - a) / a, 1.0)
    }
}

/// `⌈p·2⁵³⌉`: a draw whose top 53 bits are `x` has `next_f64() ≥ p`
/// exactly when `x ≥ cutoff(p)`, and `next_f64() < p` exactly when
/// `x < cutoff(p)`, for `p ∈ [0, 1]`. Scaling by a power of two is exact,
/// and so is every integer up to 2⁵³ as an `f64`: the ceiling is the
/// truncation, plus one if that dropped a fraction (without `f64::ceil`,
/// a libm call on baseline x86-64).
fn cutoff(p: f64) -> u64 {
    let scaled = p * TWO_53;
    // `i64`, not `u64`: both casts are then one instruction each way.
    let floor = scaled as i64;
    (floor + i64::from(floor as f64 != scaled)) as u64
}

/// 2⁵³, the scale of a draw's top 53 bits.
const TWO_53: f64 = (1u64 << 53) as f64;

/// How a [`Block`] draws: eight lanes to an AVX-512 vector, or one lane
/// at a time. Only [`Kernel::detect`] (and the tests' [`Kernel::every`])
/// builds the vector arm, and only on a CPU that has it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Kernel(Arm);

#[derive(Clone, Copy, Debug)]
enum Arm {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Kernel {
    /// The widest kernel this CPU runs, from the cached feature probe.
    pub(crate) fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if Kernels::detect().avx512dq() {
            return Kernel(Arm::Avx512);
        }
        Kernel(Arm::Scalar)
    }

    /// Every kernel this CPU runs, scalar lanes first, with a name; an arm
    /// the CPU lacks is reported on stdout, not silently passed.
    #[cfg(test)]
    pub(crate) fn every() -> Vec<(&'static str, Kernel)> {
        let mut kernels = vec![("scalar lanes", Kernel(Arm::Scalar))];
        match Kernel::detect() {
            Kernel(Arm::Scalar) => {
                println!("churn lanes: this CPU has no AVX-512 F + DQ — vector lanes not exercised")
            }
            wide => kernels.push(("AVX-512 lanes", wide)),
        }
        kernels
    }
}

/// 64 hosts' chains, one lane each; bit `l` of every mask is lane `l`.
/// A lane no host was [started](Block::start) in stays down and draws
/// nothing as long as it is kept out of `live`.
#[derive(Clone, Debug)]
pub(crate) struct Block {
    kernel: Kernel,
    /// Per lane: the SplitMix64 counter of the host's stream.
    counters: [u64; 64],
    /// Per lane: `P(up→down)` and `P(down→up)`.
    p_down: [f64; 64],
    p_up: [f64; 64],
    /// The lanes whose probabilities moved since their cut-offs were
    /// taken; the next step takes them again first.
    stale: u64,
    /// Per lane: an up lane stays up iff its draw's top 53 bits are at
    /// least this, `cutoff(p_down)`.
    stay: [u64; 64],
    /// Per lane: a down lane comes up iff its draw's top 53 bits are
    /// below this, `cutoff(p_up)`.
    rise: [u64; 64],
    /// Per lane: the slots it was online in so far.
    online: [u32; 64],
    /// The lanes that are up.
    up: u64,
}

impl Block {
    /// A block of 64 idle lanes that will draw on `kernel`.
    pub(crate) fn new(kernel: Kernel) -> Block {
        Block {
            kernel,
            counters: [0; 64],
            p_down: [0.0; 64],
            p_up: [0.0; 64],
            stale: 0,
            stay: [0; 64],
            rise: [0; 64],
            online: [0; 64],
            up: 0,
        }
    }

    /// Lane `l` takes over a host whose stream stands at `rng` (after the
    /// host's scalar prelude), whose chain starts `up`, and whose first
    /// slot steps by `probabilities`.
    pub(crate) fn start(
        &mut self,
        l: usize,
        rng: &SplitMix64,
        up: bool,
        probabilities: (f64, f64),
    ) {
        self.counters[l] = rng.counter();
        self.up = self.up & !(1 << l) | u64::from(up) << l;
        self.set_probabilities(l, probabilities);
    }

    /// Lane `l` steps by `(P(up→down), P(down→up))` from the next slot on.
    pub(crate) fn set_probabilities(&mut self, l: usize, (p_down, p_up): (f64, f64)) {
        debug_assert!(
            (0.0..=1.0).contains(&p_down) && (0.0..=1.0).contains(&p_up),
            "probabilities ({p_down}, {p_up}) outside [0, 1]"
        );
        self.p_down[l] = p_down;
        self.p_up[l] = p_up;
        self.stale |= 1 << l;
    }

    /// One slot of every lane. Returns the slot's word: bit `l` set iff
    /// lane `l` is in `live` and up. A live lane counts the slot when it
    /// is up, draws once and steps; a lane outside `live` draws nothing
    /// and ends the slot down. Stale cut-offs are taken first — eight to a
    /// vector on the AVX-512 kernel, so lanes whose probabilities move
    /// every slot (drift, diurnal terms) pay little for it.
    #[inline]
    pub(crate) fn step(&mut self, live: u64) -> u64 {
        match self.kernel.0 {
            #[cfg(target_arch = "x86_64")]
            Arm::Avx512 => {
                debug_assert!(Kernels::detect().avx512dq());
                // SAFETY: only `Kernel::detect` and `Kernel::every` build
                // this arm, and only when the probe found `avx512f` and
                // `avx512dq` on this CPU.
                unsafe { avx512::step(self, live) }
            }
            Arm::Scalar => self.step_scalar(live),
        }
    }

    /// [`Block::step`], one lane at a time.
    fn step_scalar(&mut self, live: u64) -> u64 {
        let mut stale = std::mem::take(&mut self.stale);
        while stale != 0 {
            let l = stale.trailing_zeros() as usize;
            stale &= stale - 1;
            self.stay[l] = cutoff(self.p_down[l]);
            self.rise[l] = cutoff(self.p_up[l]);
        }
        let word = self.up & live;
        let mut next = 0;
        let lanes = self.counters.iter_mut().zip(&self.stay).zip(&self.rise);
        for (l, ((counter, &stay), &rise)) in lanes.enumerate() {
            let on = live >> l & 1;
            let up = word >> l & 1 != 0;
            self.online[l] += u32::from(up);
            *counter = counter.wrapping_add(SplitMix64::GAMMA & on.wrapping_neg());
            let x = SplitMix64::mix(*counter) >> 11;
            let after = up & (x >= stay) | !up & (x < rise);
            next |= (u64::from(after) & on) << l;
        }
        self.up = next;
        word
    }

    /// Per lane, the slots it was online in so far.
    pub(crate) fn online(&self) -> [u32; 64] {
        self.online
    }
}

/// [`Block::step`] eight lanes to a vector.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::Block;
    use avmem_util::cpu::Kernels;
    use avmem_util::SplitMix64;
    use std::arch::x86_64::*;

    /// # Safety
    ///
    /// Requires the `avx512f` and `avx512dq` target features (a
    /// [`Kernels`] with `avx512dq` set).
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn step(block: &mut Block, live: u64) -> u64 {
        debug_assert!(Kernels::detect().avx512dq());
        let stale = std::mem::take(&mut block.stale);
        let word = block.up & live;
        let gamma = _mm512_set1_epi64(SplitMix64::GAMMA as i64);
        let m1 = _mm512_set1_epi64(0xbf58_476d_1ce4_e5b9_u64 as i64);
        let m2 = _mm512_set1_epi64(0x94d0_49bb_1331_11eb_u64 as i64);
        let mut next = 0;
        for g in 0..8 {
            let lanes = (live >> (8 * g)) as u8;
            let up = (word >> (8 * g)) as u8;
            let at: *mut __m512i = block.counters.as_mut_ptr().add(8 * g).cast();
            let counter = _mm512_loadu_si512(at);
            let counter = _mm512_mask_add_epi64(counter, lanes, counter, gamma);
            _mm512_storeu_si512(at, counter);
            // `SplitMix64::mix`, then the top 53 bits.
            let z = _mm512_xor_si512(counter, _mm512_srli_epi64::<30>(counter));
            let z = _mm512_mullo_epi64(z, m1);
            let z = _mm512_xor_si512(z, _mm512_srli_epi64::<27>(z));
            let z = _mm512_mullo_epi64(z, m2);
            let z = _mm512_xor_si512(z, _mm512_srli_epi64::<31>(z));
            let x = _mm512_srli_epi64::<11>(z);
            let stay_at: *mut __m512i = block.stay.as_mut_ptr().add(8 * g).cast();
            let rise_at: *mut __m512i = block.rise.as_mut_ptr().add(8 * g).cast();
            let (stay, rise) = if (stale >> (8 * g)) as u8 == 0 {
                (_mm512_loadu_si512(stay_at), _mm512_loadu_si512(rise_at))
            } else {
                // A lane that did not move takes the cut-off it had.
                let stay = cutoffs(_mm512_loadu_pd(block.p_down.as_ptr().add(8 * g)));
                let rise = cutoffs(_mm512_loadu_pd(block.p_up.as_ptr().add(8 * g)));
                _mm512_storeu_si512(stay_at, stay);
                _mm512_storeu_si512(rise_at, rise);
                (stay, rise)
            };
            let stays = _mm512_mask_cmpge_epu64_mask(lanes & up, x, stay);
            let rises = _mm512_mask_cmplt_epu64_mask(lanes & !up, x, rise);
            next |= u64::from(stays | rises) << (8 * g);
        }
        let one = _mm512_set1_epi32(1);
        for h in 0..4 {
            let at: *mut __m512i = block.online.as_mut_ptr().add(16 * h).cast();
            let online = _mm512_loadu_si512(at);
            let up = (word >> (16 * h)) as u16;
            _mm512_storeu_si512(at, _mm512_mask_add_epi32(online, up, online, one));
        }
        block.up = next;
        word
    }

    /// `cutoff` of eight probabilities: the truncation, plus one where it
    /// dropped a fraction. Exact the same way: every value is an integer
    /// up to 2⁵³ or a fraction below it.
    ///
    /// # Safety
    ///
    /// As [`step`].
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn cutoffs(p: __m512d) -> __m512i {
        debug_assert!(Kernels::detect().avx512dq());
        let scaled = _mm512_mul_pd(p, _mm512_set1_pd(super::TWO_53));
        let floor = _mm512_cvttpd_epu64(scaled);
        let dropped = _mm512_cmp_pd_mask::<_CMP_NEQ_OQ>(scaled, _mm512_cvtepu64_pd(floor));
        _mm512_mask_add_epi64(floor, dropped, floor, _mm512_set1_epi64(1))
    }
}

/// Host counts for the generators' differentials: any of 1–300, or one
/// on either side of a block edge.
#[cfg(test)]
pub(crate) fn block_edge_hosts() -> impl proptest::prelude::Strategy<Value = usize> {
    use proptest::prelude::Strategy;
    const EDGES: [usize; 6] = [63, 64, 65, 127, 128, 129];
    proptest::prop_oneof![1usize..=300, (0..EDGES.len()).prop_map(|i| EDGES[i])]
}

#[cfg(test)]
mod tests {
    use super::*;
    use avmem_util::Rng;

    /// One host's chain the way the generators first wrote it: a
    /// `next_f64` per live slot and float comparisons; a dark slot draws
    /// nothing and leaves the host down.
    struct Reference {
        rng: SplitMix64,
        up: bool,
        probabilities: (f64, f64),
        online: u32,
    }

    impl Reference {
        fn step(&mut self, live: bool) -> bool {
            if !live {
                self.up = false;
                return false;
            }
            let online = self.up;
            self.online += u32::from(online);
            let (p_down, p_up) = self.probabilities;
            let u = self.rng.next_f64();
            self.up = if self.up { u >= p_down } else { u < p_up };
            online
        }
    }

    /// Probabilities that sit on the cut-offs' edges as well as between.
    fn probability(rng: &mut SplitMix64) -> f64 {
        match rng.index(6) {
            0 => 0.0,
            1 => 1.0,
            2 => rng.index(1 << 12) as f64 / (1u64 << 12) as f64,
            3 => f64::from_bits(rng.next_u64() % (1u64 << 52)), // subnormal or tiny
            _ => rng.next_f64(),
        }
    }

    #[test]
    fn cutoffs_decide_like_the_float_comparisons() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..20_000 {
            let p = probability(&mut rng);
            let c = cutoff(p);
            for x in [c.saturating_sub(1), c, c + 1, rng.next_u64() >> 11] {
                let x = x.min((1u64 << 53) - 1);
                let u = x as f64 / (1u64 << 53) as f64;
                assert_eq!(x >= c, u >= p, "p = {p:e}, x = {x}");
                assert_eq!(x < c, u < p, "p = {p:e}, x = {x}");
            }
        }
    }

    #[test]
    fn lanes_decide_draws_that_land_on_their_cut_off() {
        // Each lane's next draw is `u = x / 2⁵³`; a probability of exactly
        // `u`, or one ulp either side, puts the draw on or next to the
        // cut-off, where `≥` and `>` (or `<` and `≤`) part ways.
        for (name, kernel) in Kernel::every() {
            let mut block = Block::new(kernel);
            let mut hosts = Vec::new();
            for l in 0..64 {
                let rng = SplitMix64::new(l as u64 * 0x1234_5678_9abc);
                let u = rng.clone().next_f64();
                let p = match l % 3 {
                    0 => u,
                    1 => f64::from_bits(u.to_bits() + 1),
                    _ => f64::from_bits(u.to_bits().saturating_sub(1)),
                };
                let up = l % 2 == 0;
                block.start(l, &rng, up, (p, p));
                hosts.push(Reference {
                    rng,
                    up,
                    probabilities: (p, p),
                    online: 0,
                });
            }
            let expected = hosts.iter_mut().enumerate().fold(0u64, |word, (l, host)| {
                word | u64::from(host.step(true)) << l
            });
            assert_eq!(block.step(u64::MAX), expected, "{name}");
            let after = hosts
                .iter()
                .enumerate()
                .fold(0u64, |w, (l, h)| w | u64::from(h.up) << l);
            assert_eq!(block.up, after, "{name}");
        }
    }

    #[test]
    fn every_kernel_arm_runs_here_or_says_so() {
        for (name, kernel) in Kernel::every() {
            println!("churn lanes: driving {name}");
            let mut block = Block::new(kernel);
            block.start(3, &SplitMix64::new(1), true, (0.0, 1.0));
            assert_eq!(block.step(1 << 3), 1 << 3, "{name}");
            assert_eq!(block.online()[3], 1, "{name}");
        }
    }

    proptest::proptest! {
        /// A block on either kernel steps each lane exactly as that
        /// lane's host would alone: the words, the online counts, the
        /// streams' positions — through live windows that open and close
        /// per lane and probabilities that move mid-run.
        #[test]
        fn block_lanes_step_like_their_hosts_alone(
            seed in proptest::prelude::any::<u64>(),
            slots in 1usize..200,
        ) {
            let mut rng = SplitMix64::new(seed);
            let mut hosts: Vec<Reference> = (0..64)
                .map(|_| Reference {
                    rng: SplitMix64::new(rng.next_u64()),
                    up: rng.chance(0.5),
                    probabilities: (probability(&mut rng), probability(&mut rng)),
                    online: 0,
                })
                .collect();
            let kernels = Kernel::every();
            let mut blocks: Vec<Block> = kernels.iter().map(|&(_, k)| Block::new(k)).collect();
            for block in &mut blocks {
                for (l, host) in hosts.iter().enumerate() {
                    block.start(l, &host.rng, host.up, host.probabilities);
                }
            }
            // Half the lanes flicker in and out of the live set, a few
            // move their probabilities now and then.
            let steady = rng.next_u64();
            for _ in 0..slots {
                let live = steady | rng.next_u64();
                for (l, host) in hosts.iter_mut().enumerate() {
                    if rng.index(16) == 0 {
                        host.probabilities = (probability(&mut rng), probability(&mut rng));
                        for block in &mut blocks {
                            block.set_probabilities(l, host.probabilities);
                        }
                    }
                }
                let expected = hosts
                    .iter_mut()
                    .enumerate()
                    .fold(0u64, |word, (l, host)| word | u64::from(host.step(live >> l & 1 != 0)) << l);
                for (block, (name, _)) in blocks.iter_mut().zip(&kernels) {
                    proptest::prop_assert_eq!(block.step(live), expected, "{}", name);
                }
            }
            for (block, (name, _)) in blocks.iter().zip(&kernels) {
                for (l, host) in hosts.iter().enumerate() {
                    proptest::prop_assert_eq!(block.online()[l], host.online, "{} lane {}", name, l);
                    proptest::prop_assert_eq!(block.counters[l], host.rng.counter(), "{} lane {}", name, l);
                    proptest::prop_assert_eq!(block.up >> l & 1 != 0, host.up, "{} lane {}", name, l);
                }
            }
        }
    }
}
