//! Synthetic Overnet-like churn generation.
//!
//! The original evaluation replays the Overnet availability trace of
//! Bhagwan, Savage and Voelker (IPTPS'03): 1442 hosts probed every 20
//! minutes for 7 days, with a *heavily skewed* availability distribution —
//! "50% of hosts have a 10-day availability lower than 30%" (§1 of the
//! AVMEM paper). That data set is not redistributable, so [`OvernetModel`]
//! synthesizes traces with the same marginals:
//!
//! * per-host long-term availability drawn from a skewed three-component
//!   mixture (defaults: half the mass below 0.3, a thin tail of
//!   highly-available hosts);
//! * slot-level churn produced by a two-state Markov chain whose
//!   stationary distribution matches the host's target availability and
//!   whose mean session length is configurable (hosts churn multiple
//!   times per day, as in the measured trace);
//! * an optional diurnal modulation, since the measured trace shows
//!   day/night cycles.
//!
//! The generator is deterministic in its seed.

use avmem_sim::SimDuration;
use avmem_util::{Rng, SplitMix64};
use serde::{Deserialize, Serialize};

use crate::churn::{ChurnTrace, TraceBuilder};

/// Configuration and builder for synthetic Overnet-like churn traces.
///
/// The default configuration matches the paper's trace geometry: 1442
/// hosts, 7 days, 20-minute slots.
///
/// # Examples
///
/// ```
/// use avmem_trace::OvernetModel;
///
/// let trace = OvernetModel::default().hosts(200).days(2).generate(7);
/// assert_eq!(trace.num_nodes(), 200);
/// assert_eq!(trace.num_slots(), 2 * 72); // 72 twenty-minute slots per day
///
/// // Same seed, same trace.
/// let again = OvernetModel::default().hosts(200).days(2).generate(7);
/// assert_eq!(trace, again);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OvernetModel {
    hosts: usize,
    days: u64,
    slot_minutes: u64,
    mean_up_session_slots: f64,
    diurnal_amplitude: f64,
    drift_fraction: f64,
    low_fraction: f64,
    mid_fraction: f64,
    low_range: (f64, f64),
    mid_range: (f64, f64),
    high_range: (f64, f64),
}

impl Default for OvernetModel {
    fn default() -> Self {
        OvernetModel {
            hosts: 1442,
            days: 7,
            slot_minutes: 20,
            // ~2 hours mean up-session: hosts churn several times a day,
            // consistent with the Grid'5000/Overnet observations cited in §1.
            mean_up_session_slots: 6.0,
            diurnal_amplitude: 0.0,
            drift_fraction: 0.0,
            // Availability mixture: 50% low (matching "50% of hosts below
            // 0.3" from Bhagwan et al.), 30% middle, 20% concentrated
            // high. The high cluster mirrors the measured trace's heavy
            // mass of (near-)always-on hosts, which dominates the
            // *online* population (the paper's Fig. 2a peaks at the top
            // availability bucket).
            low_fraction: 0.5,
            mid_fraction: 0.3,
            low_range: (0.02, 0.30),
            mid_range: (0.30, 0.85),
            high_range: (0.85, 0.999),
        }
    }
}

impl OvernetModel {
    /// Creates the default model (1442 hosts, 7 days, 20-minute slots).
    pub fn new() -> Self {
        OvernetModel::default()
    }

    /// Sets the number of hosts.
    ///
    /// # Panics
    ///
    /// Panics if `hosts == 0`.
    pub fn hosts(mut self, hosts: usize) -> Self {
        assert!(hosts > 0, "need at least one host");
        self.hosts = hosts;
        self
    }

    /// Sets the trace length in days.
    ///
    /// # Panics
    ///
    /// Panics if `days == 0`.
    pub fn days(mut self, days: u64) -> Self {
        assert!(days > 0, "need at least one day");
        self.days = days;
        self
    }

    /// Sets the probe-slot width in minutes (the paper uses 20).
    ///
    /// # Panics
    ///
    /// Panics if `minutes == 0` or a day is not a whole number of slots.
    pub fn slot_minutes(mut self, minutes: u64) -> Self {
        assert!(minutes > 0, "slot width must be positive");
        assert!(
            1440 % minutes == 0,
            "a day must be a whole number of slots"
        );
        self.slot_minutes = minutes;
        self
    }

    /// Sets the mean up-session length in slots (controls churn rate
    /// independently of availability).
    ///
    /// # Panics
    ///
    /// Panics if `slots < 1.0`.
    pub fn mean_up_session_slots(mut self, slots: f64) -> Self {
        assert!(slots >= 1.0, "mean session must be at least one slot");
        self.mean_up_session_slots = slots;
        self
    }

    /// Sets the diurnal modulation amplitude in `[0, 1)`: availability
    /// targets swing by `±amplitude` over a 24-hour sine.
    ///
    /// # Panics
    ///
    /// Panics if `amplitude` is not in `[0, 1)`.
    pub fn diurnal_amplitude(mut self, amplitude: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&amplitude),
            "diurnal amplitude must be in [0, 1)"
        );
        self.diurnal_amplitude = amplitude;
        self
    }

    /// Sets the fraction of hosts whose availability *drifts*: a
    /// drifting host redraws a second target from the mixture and
    /// interpolates linearly from the first to the second across the
    /// trace. Availability in real systems is not stationary (users
    /// change habits, machines get redeployed); drift is what makes the
    /// monitoring service's *aged* estimates and AVMEM's refresh
    /// migration matter.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn drift_fraction(mut self, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "drift fraction must be in [0, 1]"
        );
        self.drift_fraction = fraction;
        self
    }

    /// Overrides the availability mixture: `low_fraction` of hosts drawn
    /// uniformly from `low_range`, `mid_fraction` from `mid_range`, the
    /// rest from `high_range`.
    ///
    /// # Panics
    ///
    /// Panics if fractions are negative or sum above 1, or any range is
    /// not inside `[0, 1]` in increasing order.
    pub fn mixture(
        mut self,
        low_fraction: f64,
        low_range: (f64, f64),
        mid_fraction: f64,
        mid_range: (f64, f64),
        high_range: (f64, f64),
    ) -> Self {
        assert!(low_fraction >= 0.0 && mid_fraction >= 0.0);
        assert!(low_fraction + mid_fraction <= 1.0, "fractions exceed 1");
        for (lo, hi) in [low_range, mid_range, high_range] {
            assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi) && lo <= hi);
        }
        self.low_fraction = low_fraction;
        self.mid_fraction = mid_fraction;
        self.low_range = low_range;
        self.mid_range = mid_range;
        self.high_range = high_range;
        self
    }

    /// Draws one host's target long-term availability from the mixture.
    fn draw_target_availability<R: Rng>(&self, rng: &mut R) -> f64 {
        let u = rng.next_f64();
        let (lo, hi) = if u < self.low_fraction {
            self.low_range
        } else if u < self.low_fraction + self.mid_fraction {
            self.mid_range
        } else {
            self.high_range
        };
        rng.range_f64(lo, hi.max(lo + f64::EPSILON))
    }

    /// Generates a deterministic trace for the given seed.
    ///
    /// The per-slot terms every host shares — drift progress and the
    /// diurnal factor — are computed once here, and a host's chain
    /// recomputes its transition probabilities only when its modulated
    /// target moves (never, with no drift and no diurnal term). Each
    /// slot draws exactly one `next_f64` from the host's stream, and its
    /// bit goes straight into the trace's column.
    pub fn generate(&self, seed: u64) -> ChurnTrace {
        let slots_per_day = (1440 / self.slot_minutes) as usize;
        let slots = slots_per_day * self.days as usize;
        let progress: Vec<f64> = (0..slots).map(|s| s as f64 / slots as f64).collect();
        let diurnal: Vec<f64> = (0..slots)
            .map(|s| {
                let phase = (s % slots_per_day) as f64 / slots_per_day as f64;
                1.0 + self.diurnal_amplitude * (std::f64::consts::TAU * phase).sin()
            })
            .collect();
        let mean_up = self.mean_up_session_slots;
        let flat = self.diurnal_amplitude == 0.0;
        let mut master = SplitMix64::new(seed);
        let mut trace =
            TraceBuilder::new(SimDuration::from_mins(self.slot_minutes), slots, self.hosts);
        for host in 0..self.hosts {
            let mut rng = master.fork(host as u64);
            let start_target = self.draw_target_availability(&mut rng);
            let end_target = if self.drift_fraction > 0.0 && rng.chance(self.drift_fraction) {
                self.draw_target_availability(&mut rng)
            } else {
                start_target
            };
            // Two-state Markov chain whose stationary availability
            // follows the (drifting, modulated) target, with mean
            // up-session `mean_up_session_slots`.
            let mut up = rng.chance(start_target);
            // Slot 0's target is the start target, whatever the drift and
            // the diurnal term; a host with neither keeps it throughout.
            let first = start_target.clamp(0.001, 0.999);
            let mut memo = (first.to_bits(), transition_probabilities(first, mean_up));
            let steady = flat && end_target == start_target;
            let row = progress
                .iter()
                .zip(&diurnal)
                .map(move |(&progress, &diurnal)| {
                    if !steady {
                        let target = start_target + (end_target - start_target) * progress;
                        let modulated = (target * diurnal).clamp(0.001, 0.999);
                        if modulated.to_bits() != memo.0 {
                            memo = (
                                modulated.to_bits(),
                                transition_probabilities(modulated, mean_up),
                            );
                        }
                    }
                    let (p_down, p_up) = memo.1;
                    let online = up;
                    // One draw decides both ways — up leaves with `p_down`,
                    // down returns with `p_up` — so the state picks a verdict
                    // without a branch on it.
                    let u = rng.next_f64();
                    up = up & (u >= p_down) | !up & (u < p_up);
                    online
                });
            trace.push_row_from(row);
        }
        trace.finish()
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;

    /// The generator as first written, kept as `generate`'s reference:
    /// one `bool` row per host, and every slot re-deriving its drift
    /// progress, diurnal phase, clamp and transition probabilities.
    fn reference_generate(model: &OvernetModel, seed: u64) -> ChurnTrace {
        let slots_per_day = (1440 / model.slot_minutes) as usize;
        let slots = slots_per_day * model.days as usize;
        let mut master = SplitMix64::new(seed);
        let mut trace = TraceBuilder::new(
            SimDuration::from_mins(model.slot_minutes),
            slots,
            model.hosts,
        );
        let mut row = vec![false; slots];
        for host in 0..model.hosts {
            let mut rng = master.fork(host as u64);
            let start_target = model.draw_target_availability(&mut rng);
            let end_target = if model.drift_fraction > 0.0 && rng.chance(model.drift_fraction) {
                model.draw_target_availability(&mut rng)
            } else {
                start_target
            };
            let mut up = rng.chance(start_target);
            for (s, slot) in row.iter_mut().enumerate() {
                *slot = up;
                let progress = s as f64 / slots.max(1) as f64;
                let target = start_target + (end_target - start_target) * progress;
                let phase = (s % slots_per_day) as f64 / slots_per_day as f64;
                let modulated = if model.diurnal_amplitude > 0.0 {
                    (target
                        * (1.0 + model.diurnal_amplitude * (std::f64::consts::TAU * phase).sin()))
                    .clamp(0.001, 0.999)
                } else {
                    target.clamp(0.001, 0.999)
                };
                let (p_down, p_up) =
                    transition_probabilities(modulated, model.mean_up_session_slots);
                up = if up {
                    !rng.chance(p_down)
                } else {
                    rng.chance(p_up)
                };
            }
            trace.push_row(&row);
        }
        trace.finish()
    }

    /// Every slot width a day divides into.
    const SLOT_MINUTES: [u64; 36] = [
        1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20, 24, 30, 32, 36, 40, 45, 48, 60, 72, 80, 90,
        96, 120, 144, 160, 180, 240, 288, 360, 480, 720, 1440,
    ];

    proptest::proptest! {
        /// `generate` — shared per-slot terms, memoized transition
        /// probabilities, bits written straight into the columns — is the
        /// reference bit for bit (`ChurnTrace ==`: the bits and the
        /// long-term availabilities), drift and diurnal terms included,
        /// which no spec sets but the builder reaches.
        #[test]
        fn generate_equals_the_per_slot_reference(
            hosts in 1usize..=300,
            days in 1u64..=3,
            width in 0usize..SLOT_MINUTES.len(),
            (amplitude, modulate) in (0.0f64..0.9, proptest::prelude::any::<bool>()),
            (drift, drifting) in (0.0f64..=1.0, proptest::prelude::any::<bool>()),
            session in 1.0f64..20.0,
            (low, mid) in (0.0f64..=1.0, 0.0f64..=1.0),
            bounds in proptest::collection::vec(0.0f64..=1.0, 6..=6),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let range = |i: usize| (bounds[i].min(bounds[i + 1]), bounds[i].max(bounds[i + 1]));
            let mid = mid * (1.0 - low);
            proptest::prop_assume!(low + mid <= 1.0);
            let model = OvernetModel::default()
                .hosts(hosts)
                .days(days)
                .slot_minutes(SLOT_MINUTES[width])
                .diurnal_amplitude(if modulate { amplitude } else { 0.0 })
                .drift_fraction(if drifting { drift } else { 0.0 })
                .mean_up_session_slots(session)
                .mixture(low, range(0), mid, range(2), range(4));
            proptest::prop_assert_eq!(model.generate(seed), reference_generate(&model, seed));
        }
    }

    #[test]
    fn default_geometry_matches_paper() {
        let model = OvernetModel::default();
        let trace = model.hosts(50).generate(1);
        assert_eq!(trace.num_slots(), 7 * 72);
        assert_eq!(
            trace.slot_duration(),
            SimDuration::from_mins(20)
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = OvernetModel::default().hosts(30).days(1).generate(5);
        let b = OvernetModel::default().hosts(30).days(1).generate(5);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = OvernetModel::default().hosts(30).days(1).generate(5);
        let b = OvernetModel::default().hosts(30).days(1).generate(6);
        assert_ne!(a, b);
    }

    #[test]
    fn availability_distribution_is_skewed() {
        // The headline Overnet stat: about half the hosts below 0.3.
        let trace = OvernetModel::default().hosts(1442).generate(42);
        let below = (0..trace.num_nodes())
            .filter(|&i| trace.long_term_availability(i).value() < 0.3)
            .count();
        let frac = below as f64 / trace.num_nodes() as f64;
        assert!(
            (0.40..0.60).contains(&frac),
            "fraction below 0.3 availability = {frac}"
        );
    }

    #[test]
    fn stationary_availability_tracks_target() {
        // With long traces the Markov chain's empirical availability
        // should be near its stationary target. We check the mean over
        // hosts lands near the mixture mean.
        let model = OvernetModel::default().hosts(300).days(7);
        let trace = model.generate(9);
        let stats = trace.stats();
        // Mixture mean: 0.5·0.16 + 0.3·0.5 + 0.2·0.8475 ≈ 0.40.
        assert!(
            (0.30..0.50).contains(&stats.mean_availability),
            "mean availability = {}",
            stats.mean_availability
        );
    }

    #[test]
    fn hosts_churn_multiple_times() {
        let trace = OvernetModel::default().hosts(100).generate(3);
        let stats = trace.stats();
        // With ~2 h mean sessions over 7 days, transitions are plentiful.
        assert!(
            stats.transitions > 1000,
            "transitions = {}",
            stats.transitions
        );
    }

    #[test]
    fn diurnal_modulation_changes_online_counts() {
        let flat = OvernetModel::default().hosts(400).days(2).generate(11);
        let wavy = OvernetModel::default()
            .hosts(400)
            .days(2)
            .diurnal_amplitude(0.8)
            .generate(11);
        // Peak-to-trough swing should widen under modulation.
        let swing = |t: &ChurnTrace| {
            let s = t.stats();
            s.max_online - s.min_online
        };
        assert!(swing(&wavy) >= swing(&flat), "diurnal should widen swing");
    }

    #[test]
    fn transition_probabilities_are_stationary() {
        for &(a, m) in &[(0.1, 6.0), (0.5, 6.0), (0.9, 6.0), (0.99, 3.0)] {
            let (p_down, p_up) = transition_probabilities(a, m);
            assert!((0.0..=1.0).contains(&p_down), "p_down={p_down}");
            assert!((0.0..=1.0).contains(&p_up), "p_up={p_up}");
            let stationary = p_up / (p_up + p_down);
            assert!(
                (stationary - a).abs() < 1e-9,
                "a={a} stationary={stationary}"
            );
        }
    }

    #[test]
    fn drift_changes_half_trace_availability() {
        // With 100% drift, per-host availability in the first half of the
        // trace should frequently differ from the second half.
        let trace = OvernetModel::default()
            .hosts(200)
            .days(6)
            .drift_fraction(1.0)
            .generate(31);
        let half = trace.num_slots() / 2;
        let mut moved = 0;
        for i in 0..trace.num_nodes() {
            let first: usize = (0..half)
                .filter(|&s| trace.is_online_in_slot(i, s))
                .count();
            let second: usize = (half..trace.num_slots())
                .filter(|&s| trace.is_online_in_slot(i, s))
                .count();
            let a1 = first as f64 / half as f64;
            let a2 = second as f64 / (trace.num_slots() - half) as f64;
            if (a1 - a2).abs() > 0.15 {
                moved += 1;
            }
        }
        assert!(
            moved > trace.num_nodes() / 4,
            "only {moved} hosts drifted noticeably"
        );
    }

    #[test]
    fn zero_drift_is_default_behaviour() {
        let plain = OvernetModel::default().hosts(40).days(1).generate(7);
        let no_drift = OvernetModel::default()
            .hosts(40)
            .days(1)
            .drift_fraction(0.0)
            .generate(7);
        assert_eq!(plain, no_drift);
    }

    #[test]
    fn mixture_override_is_respected() {
        let trace = OvernetModel::default()
            .hosts(300)
            .days(2)
            .mixture(1.0, (0.0, 0.05), 0.0, (0.5, 0.5), (0.9, 1.0))
            .generate(13);
        let stats = trace.stats();
        assert!(
            stats.mean_availability < 0.1,
            "all-low mixture should give low mean, got {}",
            stats.mean_availability
        );
    }

    #[test]
    #[should_panic(expected = "whole number of slots")]
    fn bad_slot_width_panics() {
        let _ = OvernetModel::default().slot_minutes(7);
    }
}
