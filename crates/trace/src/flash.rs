//! Flash-crowd and mass-departure churn generation.
//!
//! The Overnet and Grid models are stationary: every host churns around a
//! fixed long-term availability. Management-plane stress scenarios need
//! the opposite — population-scale regime changes. [`FlashCrowdModel`]
//! generates them:
//!
//! * **join** ([`CrowdDirection::Join`]) — a *crowd fraction* of the
//!   population is entirely offline until the switch point of the trace,
//!   then starts churning like everyone else (a flash crowd arriving on
//!   a running system);
//! * **leave** ([`CrowdDirection::Leave`]) — the crowd churns normally
//!   until the switch point, then goes dark for the rest of the trace (a
//!   mass departure / correlated failure).
//!
//! The steady population churns through the same two-state Markov chain
//! the Overnet model uses, with per-host availabilities drawn uniformly
//! from a configurable band. The generator is deterministic in its seed.

use avmem_sim::SimDuration;
use avmem_util::{Rng, SplitMix64};
use serde::{Deserialize, Serialize};

use crate::chain::{transition_probabilities, Block, Kernel};
use crate::churn::{ChurnTrace, TraceBuilder};

/// Which way the crowd moves at the switch point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrowdDirection {
    /// Crowd hosts are offline before the switch, churning after.
    Join,
    /// Crowd hosts churn before the switch, offline after.
    Leave,
}

/// Configuration and builder for flash-crowd / mass-departure traces.
///
/// # Examples
///
/// ```
/// use avmem_trace::{CrowdDirection, FlashCrowdModel};
///
/// let trace = FlashCrowdModel::new(CrowdDirection::Join)
///     .hosts(200)
///     .days(1)
///     .crowd_fraction(0.5)
///     .switch_point(0.25)
///     .generate(7);
/// assert_eq!(trace.num_nodes(), 200);
/// // The crowd is dark early on, so fewer hosts are online in the first
/// // slot than in the last.
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlashCrowdModel {
    direction: CrowdDirection,
    hosts: usize,
    days: u64,
    slot_minutes: u64,
    crowd_fraction: f64,
    switch_point: f64,
    mean_up_session_slots: f64,
    availability_range: (f64, f64),
}

impl FlashCrowdModel {
    /// Creates a model with paper-like defaults: 800 hosts, 1 day,
    /// 20-minute slots, half the population in the crowd, switch at a
    /// quarter of the trace, availabilities uniform in `[0.2, 0.95]`.
    pub fn new(direction: CrowdDirection) -> Self {
        FlashCrowdModel {
            direction,
            hosts: 800,
            days: 1,
            slot_minutes: 20,
            crowd_fraction: 0.5,
            switch_point: 0.25,
            mean_up_session_slots: 6.0,
            availability_range: (0.2, 0.95),
        }
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

    /// Sets the probe-slot width in minutes.
    ///
    /// # Panics
    ///
    /// Panics if `minutes == 0` or a day is not a whole number of slots.
    pub fn slot_minutes(mut self, minutes: u64) -> Self {
        assert!(minutes > 0, "slot width must be positive");
        assert!(1440 % minutes == 0, "a day must be a whole number of slots");
        self.slot_minutes = minutes;
        self
    }

    /// Sets the fraction of hosts belonging to the crowd.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn crowd_fraction(mut self, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "crowd fraction must be in [0, 1]"
        );
        self.crowd_fraction = fraction;
        self
    }

    /// Sets where in the trace the crowd switches, as a fraction of the
    /// total duration.
    ///
    /// # Panics
    ///
    /// Panics if `point` is outside `[0, 1]`.
    pub fn switch_point(mut self, point: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&point),
            "switch point must be in [0, 1]"
        );
        self.switch_point = point;
        self
    }

    /// Sets the mean up-session length in slots for churning hosts.
    ///
    /// # Panics
    ///
    /// Panics if `slots < 1.0`.
    pub fn mean_up_session_slots(mut self, slots: f64) -> Self {
        assert!(slots >= 1.0, "mean session must be at least one slot");
        self.mean_up_session_slots = slots;
        self
    }

    /// Sets the band per-host availabilities are drawn from (uniformly).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ lo ≤ hi ≤ 1`.
    pub fn availability_range(mut self, lo: f64, hi: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi) && lo <= hi,
            "availability range must satisfy 0 ≤ lo ≤ hi ≤ 1"
        );
        self.availability_range = (lo, hi);
        self
    }

    /// Generates a deterministic trace for the given seed. Crowd
    /// membership is assigned to the first `⌈crowd_fraction·hosts⌉` host
    /// indices (membership is observable, which scenario assertions use).
    ///
    /// Hosts run 64 to a [`Block`] of lanes; a crowd host's dark slots
    /// keep its lane out of the live set, so it draws nothing there and
    /// joins the system offline.
    pub fn generate(&self, seed: u64) -> ChurnTrace {
        self.generate_on(seed, Kernel::detect())
    }

    /// [`FlashCrowdModel::generate`] on the given lane kernel.
    fn generate_on(&self, seed: u64, kernel: Kernel) -> ChurnTrace {
        let slots = ((1440 / self.slot_minutes) * self.days) as usize;
        let switch_slot = ((slots as f64) * self.switch_point).round() as usize;
        let crowd = ((self.hosts as f64) * self.crowd_fraction).ceil() as usize;
        let dark = match self.direction {
            CrowdDirection::Join => 0..switch_slot,
            CrowdDirection::Leave => switch_slot..slots,
        };
        let mut master = SplitMix64::new(seed);
        let (lo, hi) = self.availability_range;
        let mut trace =
            TraceBuilder::new(SimDuration::from_mins(self.slot_minutes), slots, self.hosts);
        for first in (0..self.hosts).step_by(64) {
            let rows = (self.hosts - first).min(64);
            let mut block = Block::new(kernel);
            for l in 0..rows {
                let mut rng = master.fork((first + l) as u64);
                let target = rng
                    .range_f64(lo, hi.max(lo + f64::EPSILON))
                    .clamp(0.001, 0.999);
                let up = rng.chance(target);
                block.start(
                    l,
                    &rng,
                    up,
                    transition_probabilities(target, self.mean_up_session_slots),
                );
            }
            let live = u64::MAX >> (64 - rows);
            let crowd_rows = crowd.saturating_sub(first).min(rows);
            let dark_rows = u64::MAX.checked_shr(64 - crowd_rows as u32).unwrap_or(0);
            trace.push_block(rows, |column| {
                for (s, word) in column.enumerate() {
                    let dark = if dark.contains(&s) { dark_rows } else { 0 };
                    *word = block.step(live & !dark);
                }
                block.online()
            });
        }
        trace.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::block_edge_hosts;
    use avmem_sim::SimTime;

    /// The generator as first written, kept as `generate`'s reference:
    /// one `bool` row per host, a dark slot forcing the host down without
    /// a draw.
    fn reference_generate(model: &FlashCrowdModel, seed: u64) -> ChurnTrace {
        let slots = ((1440 / model.slot_minutes) * model.days) as usize;
        let switch_slot = ((slots as f64) * model.switch_point).round() as usize;
        let crowd = ((model.hosts as f64) * model.crowd_fraction).ceil() as usize;
        let mut master = SplitMix64::new(seed);
        let (lo, hi) = model.availability_range;
        let mut trace = TraceBuilder::new(
            SimDuration::from_mins(model.slot_minutes),
            slots,
            model.hosts,
        );
        let mut row = vec![false; slots];
        for host in 0..model.hosts {
            let mut rng = master.fork(host as u64);
            let target = rng
                .range_f64(lo, hi.max(lo + f64::EPSILON))
                .clamp(0.001, 0.999);
            let dark_range = if host < crowd {
                match model.direction {
                    CrowdDirection::Join => 0..switch_slot,
                    CrowdDirection::Leave => switch_slot..slots,
                }
            } else {
                0..0
            };
            let mut up = rng.chance(target);
            let (p_down, p_up) = transition_probabilities(target, model.mean_up_session_slots);
            for (s, slot) in row.iter_mut().enumerate() {
                if dark_range.contains(&s) {
                    *slot = false;
                    up = false;
                } else {
                    *slot = up;
                    up = if up {
                        !rng.chance(p_down)
                    } else {
                        rng.chance(p_up)
                    };
                }
            }
            trace.push_row(&row);
        }
        trace.finish()
    }

    proptest::proptest! {
        /// `generate` — hosts 64 to a block of lanes, the crowd's dark
        /// slots as lanes kept out of the live set — is the per-host loop
        /// bit for bit on every lane kernel this CPU runs, with crowd
        /// boundaries anywhere, inside a block included, both directions,
        /// and switch points from the first slot to past the last.
        #[test]
        fn generate_equals_the_per_host_reference(
            hosts in block_edge_hosts(),
            join in proptest::prelude::any::<bool>(),
            fraction in 0.0f64..=1.0,
            switch in 0.0f64..=1.0,
            days in 1u64..=2,
            width in 0usize..4,
            session in 1.0f64..12.0,
            (lo, hi) in (0.0f64..=1.0, 0.0f64..=1.0),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let direction = if join { CrowdDirection::Join } else { CrowdDirection::Leave };
            let model = FlashCrowdModel::new(direction)
                .hosts(hosts)
                .days(days)
                .slot_minutes([5, 20, 60, 1440][width])
                .crowd_fraction(fraction)
                .switch_point(switch)
                .mean_up_session_slots(session)
                .availability_range(lo.min(hi), lo.max(hi));
            let reference = reference_generate(&model, seed);
            for (name, kernel) in Kernel::every() {
                proptest::prop_assert_eq!(&model.generate_on(seed, kernel), &reference, "{}", name);
            }
        }
    }

    fn online_in_slot(trace: &ChurnTrace, s: usize) -> usize {
        (0..trace.num_nodes())
            .filter(|&i| trace.is_online_in_slot(i, s))
            .count()
    }

    #[test]
    fn generation_is_deterministic() {
        let model = FlashCrowdModel::new(CrowdDirection::Join).hosts(60);
        assert_eq!(model.generate(5), model.generate(5));
        assert_ne!(model.generate(5), model.generate(6));
    }

    #[test]
    fn join_crowd_is_dark_before_the_switch() {
        let trace = FlashCrowdModel::new(CrowdDirection::Join)
            .hosts(100)
            .crowd_fraction(0.4)
            .switch_point(0.5)
            .generate(11);
        let switch = trace.num_slots() / 2;
        for host in 0..40 {
            for s in 0..switch {
                assert!(!trace.is_online_in_slot(host, s), "crowd host {host} up early");
            }
        }
        assert!(
            online_in_slot(&trace, trace.num_slots() - 1) > 0,
            "someone must be online at the end"
        );
        // The arrival is visible as a population jump.
        let early = online_in_slot(&trace, switch.saturating_sub(1));
        let late = online_in_slot(&trace, trace.num_slots() - 1);
        assert!(late > early, "flash crowd should grow the population");
    }

    #[test]
    fn leave_crowd_is_dark_after_the_switch() {
        let trace = FlashCrowdModel::new(CrowdDirection::Leave)
            .hosts(100)
            .crowd_fraction(0.5)
            .switch_point(0.5)
            .generate(13);
        let switch = trace.num_slots() / 2;
        for host in 0..50 {
            for s in switch..trace.num_slots() {
                assert!(!trace.is_online_in_slot(host, s), "crowd host {host} up late");
            }
        }
    }

    #[test]
    fn steady_hosts_churn_throughout() {
        let trace = FlashCrowdModel::new(CrowdDirection::Join)
            .hosts(80)
            .crowd_fraction(0.25)
            .days(2)
            .generate(17);
        // Non-crowd hosts (indices ≥ 20) should be online a nontrivial
        // share of the time from the very start.
        let online_at_start = (20..80)
            .filter(|&i| trace.is_online(i, SimTime::ZERO))
            .count();
        assert!(online_at_start > 5, "only {online_at_start} steady hosts up");
    }

    #[test]
    fn availability_range_bounds_targets() {
        let trace = FlashCrowdModel::new(CrowdDirection::Join)
            .hosts(120)
            .crowd_fraction(0.0)
            .availability_range(0.8, 0.95)
            .days(3)
            .generate(23);
        let mean = (0..trace.num_nodes())
            .map(|i| trace.long_term_availability(i).value())
            .sum::<f64>()
            / trace.num_nodes() as f64;
        assert!((0.7..1.0).contains(&mean), "mean availability {mean}");
    }

    #[test]
    #[should_panic(expected = "crowd fraction")]
    fn bad_crowd_fraction_panics() {
        let _ = FlashCrowdModel::new(CrowdDirection::Join).crowd_fraction(1.5);
    }
}
