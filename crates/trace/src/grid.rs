//! Grid-style churn generation.
//!
//! §1 of the paper motivates AVMEM with Grid settings too: "Grid'5000
//! designers report that each machine reboots several tens of times per
//! day". That is a very different availability process from Overnet's:
//! most machines are *highly available in aggregate* but suffer frequent,
//! short outages (reboots between batch jobs), plus a minority of
//! long-maintenance stragglers. [`GridModel`] synthesizes such traces so
//! the overlay and operations can be evaluated under reboot-heavy churn
//! (see the `ablation-workload` experiment).

use avmem_sim::SimDuration;
use avmem_util::{Rng, SplitMix64};
use serde::{Deserialize, Serialize};

use crate::chain::{transition_probabilities, Block, Kernel};
use crate::churn::{ChurnTrace, TraceBuilder};

/// Configuration and builder for Grid-like churn traces.
///
/// Defaults model a Grid'5000-style cluster: 95 % of machines are up
/// ~90 % of slots with many short outages; 5 % are in long maintenance
/// (up only ~30 %).
///
/// # Examples
///
/// ```
/// use avmem_trace::GridModel;
///
/// let trace = GridModel::default().machines(64).days(1).generate(3);
/// let stats = trace.stats();
/// assert!(stats.mean_availability > 0.7);
/// // Reboot-heavy: plenty of up/down transitions.
/// assert!(stats.transitions > 100);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridModel {
    machines: usize,
    days: u64,
    slot_minutes: u64,
    healthy_availability: (f64, f64),
    maintenance_availability: (f64, f64),
    maintenance_fraction: f64,
    mean_up_session_slots: f64,
}

impl Default for GridModel {
    fn default() -> Self {
        GridModel {
            machines: 512,
            days: 7,
            // Finer slots than the Overnet probe: a reboot lasts minutes,
            // not a 20-minute probe period. At 5-minute slots a machine
            // with 90 % availability reboots ~30 times a day, matching
            // the Grid'5000 observation.
            slot_minutes: 5,
            healthy_availability: (0.80, 0.98),
            maintenance_availability: (0.15, 0.45),
            maintenance_fraction: 0.05,
            // Short sessions: a reboot every few slots on average.
            mean_up_session_slots: 3.0,
        }
    }
}

impl GridModel {
    /// Creates the default model (512 machines, 7 days, 20-minute slots).
    pub fn new() -> Self {
        GridModel::default()
    }

    /// Sets the number of machines.
    ///
    /// # Panics
    ///
    /// Panics if `machines == 0`.
    pub fn machines(mut self, machines: usize) -> Self {
        assert!(machines > 0, "need at least one machine");
        self.machines = machines;
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

    /// Sets the fraction of machines in long maintenance, in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if the fraction is outside `[0, 1]`.
    pub fn maintenance_fraction(mut self, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "maintenance fraction must be in [0, 1]"
        );
        self.maintenance_fraction = fraction;
        self
    }

    /// Sets the mean up-session length in slots (lower = more reboots).
    ///
    /// # Panics
    ///
    /// Panics if `slots < 1.0`.
    pub fn mean_up_session_slots(mut self, slots: f64) -> Self {
        assert!(slots >= 1.0, "mean session must be at least one slot");
        self.mean_up_session_slots = slots;
        self
    }

    /// Generates a deterministic trace for the given seed: the same
    /// two-state chain as the Overnet generator, with short sessions,
    /// hosts 64 to a [`Block`] of lanes.
    pub fn generate(&self, seed: u64) -> ChurnTrace {
        self.generate_on(seed, Kernel::detect())
    }

    /// [`GridModel::generate`] on the given lane kernel.
    fn generate_on(&self, seed: u64, kernel: Kernel) -> ChurnTrace {
        let slots = (self.days * 1440 / self.slot_minutes) as usize;
        let mut master = SplitMix64::new(seed ^ 0x6772_6964); // "grid"
        let mut trace = TraceBuilder::new(
            SimDuration::from_mins(self.slot_minutes),
            slots,
            self.machines,
        );
        for first in (0..self.machines).step_by(64) {
            let rows = (self.machines - first).min(64);
            let mut block = Block::new(kernel);
            for l in 0..rows {
                let mut rng = master.fork((first + l) as u64);
                let (lo, hi) = if rng.chance(self.maintenance_fraction) {
                    self.maintenance_availability
                } else {
                    self.healthy_availability
                };
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
            trace.push_block(rows, |column| {
                for word in column {
                    *word = block.step(live);
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

    /// The generator as first written, kept as `generate`'s reference:
    /// one `bool` row per machine, its own copy of the transition
    /// probabilities and `chance` draws.
    fn reference_generate(model: &GridModel, seed: u64) -> ChurnTrace {
        let slots = (model.days * 1440 / model.slot_minutes) as usize;
        let mut master = SplitMix64::new(seed ^ 0x6772_6964);
        let mut trace = TraceBuilder::new(
            SimDuration::from_mins(model.slot_minutes),
            slots,
            model.machines,
        );
        let mut row = vec![false; slots];
        for machine in 0..model.machines {
            let mut rng = master.fork(machine as u64);
            let (lo, hi) = if rng.chance(model.maintenance_fraction) {
                model.maintenance_availability
            } else {
                model.healthy_availability
            };
            let target = rng
                .range_f64(lo, hi.max(lo + f64::EPSILON))
                .clamp(0.001, 0.999);
            let p_down = 1.0 / model.mean_up_session_slots;
            let p_up_raw = target * p_down / (1.0 - target);
            let (p_down, p_up) = if p_up_raw <= 1.0 {
                (p_down, p_up_raw)
            } else {
                ((1.0 - target) / target, 1.0)
            };
            let mut up = rng.chance(target);
            for slot in row.iter_mut() {
                *slot = up;
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

    proptest::proptest! {
        /// `generate` — machines 64 to a block of lanes on the shared
        /// transition probabilities — is the per-machine loop bit for bit
        /// on every lane kernel this CPU runs.
        #[test]
        fn generate_equals_the_per_machine_reference(
            machines in block_edge_hosts(),
            days in 1u64..=2,
            maintenance in 0.0f64..=1.0,
            session in 1.0f64..12.0,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let model = GridModel::default()
                .machines(machines)
                .days(days)
                .maintenance_fraction(maintenance)
                .mean_up_session_slots(session);
            let reference = reference_generate(&model, seed);
            for (name, kernel) in Kernel::every() {
                proptest::prop_assert_eq!(&model.generate_on(seed, kernel), &reference, "{}", name);
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = GridModel::default().machines(40).days(1).generate(9);
        let b = GridModel::default().machines(40).days(1).generate(9);
        assert_eq!(a, b);
    }

    #[test]
    fn most_machines_are_highly_available() {
        let trace = GridModel::default().machines(400).days(3).generate(1);
        let high = (0..trace.num_nodes())
            .filter(|&i| trace.long_term_availability(i).value() > 0.7)
            .count();
        let frac = high as f64 / trace.num_nodes() as f64;
        assert!(frac > 0.85, "only {frac} of machines above 0.7");
    }

    #[test]
    fn maintenance_fraction_is_respected() {
        let trace = GridModel::default()
            .machines(600)
            .days(3)
            .maintenance_fraction(0.3)
            .generate(2);
        let low = (0..trace.num_nodes())
            .filter(|&i| trace.long_term_availability(i).value() < 0.5)
            .count();
        let frac = low as f64 / trace.num_nodes() as f64;
        assert!(
            (0.2..0.4).contains(&frac),
            "maintenance share {frac}, expected ≈ 0.3"
        );
    }

    /// Transitions per online node-hour (slot-width independent).
    fn hourly_churn(t: &ChurnTrace) -> f64 {
        let s = t.stats();
        let hours = t.duration().as_millis() as f64 / 3_600_000.0;
        s.transitions as f64 / (s.mean_online * hours)
    }

    #[test]
    fn grid_churns_more_than_overnet_per_online_hour() {
        // Reboot-heavy: transitions per online node-hour exceed the p2p
        // trace's.
        let grid = GridModel::default().machines(200).days(2).generate(3);
        let overnet = crate::OvernetModel::default().hosts(200).days(2).generate(3);
        assert!(
            hourly_churn(&grid) > hourly_churn(&overnet),
            "grid churn rate {} should exceed overnet {}",
            hourly_churn(&grid),
            hourly_churn(&overnet)
        );
    }

    #[test]
    fn healthy_machines_reboot_tens_of_times_a_day() {
        let trace = GridModel::default().machines(100).days(2).generate(4);
        // Count reboots (up→down transitions) for a healthy machine.
        let mut daily_rates = Vec::new();
        for i in 0..trace.num_nodes() {
            if trace.long_term_availability(i).value() < 0.7 {
                continue; // skip maintenance stragglers
            }
            let mut reboots = 0;
            let mut prev = trace.is_online_in_slot(i, 0);
            for s in 1..trace.num_slots() {
                let now = trace.is_online_in_slot(i, s);
                if prev && !now {
                    reboots += 1;
                }
                prev = now;
            }
            daily_rates.push(reboots as f64 / 2.0); // 2-day trace
        }
        let mean = daily_rates.iter().sum::<f64>() / daily_rates.len().max(1) as f64;
        assert!(
            (8.0..80.0).contains(&mean),
            "healthy machines reboot {mean}/day, expected tens"
        );
    }

    #[test]
    #[should_panic(expected = "maintenance fraction")]
    fn bad_maintenance_fraction_panics() {
        let _ = GridModel::default().maintenance_fraction(1.5);
    }
}
