//! Workload inputs: one generated day of smart-home data, cut to the
//! windows in which every coalition has both a seller and a buyer.

use pem_data::{Trace, TraceConfig, TraceGenerator};
use pem_market::{AgentWindow, Role};
use pem_sched::{Partitioner, SurplusBalanced};

/// Fraction of homes with solar panels.
const SOLAR_FRACTION: f64 = 0.35;

/// Fewest two-sided windows a day must have, so that a run does not
/// repeat one or two windows.
const MIN_WINDOWS: usize = 16;

/// Days tried for one seed before giving up.
const ATTEMPTS: u64 = 4096;

/// A generated day, the coalitions it is split into and the windows a
/// run cycles through.
pub struct Inputs {
    trace: Trace,
    /// Seed of the generated day: the run's seed, or the first usable
    /// one derived from it.
    pub day_seed: u64,
    /// Window whose net energies fix the coalition plan.
    pub anchor: usize,
    /// Member indices (into the population) of each coalition.
    pub coalitions: Vec<Vec<usize>>,
    /// The two-sided windows, in day order.
    pub windows: Vec<usize>,
}

impl Inputs {
    /// Generates `homes` homes over a day of 15-minute windows from the
    /// first usable day seed of a fixed sequence that starts at `seed`
    /// (the rest are derived from it), so the same seed always gives the
    /// same inputs. A day is usable when exactly
    /// `round(SOLAR_FRACTION · homes)` homes have solar panels and at
    /// least [`MIN_WINDOWS`] windows are two-sided in every coalition.
    ///
    /// The fixed solar count fixes the population's shape: the generator
    /// draws each home's panels independently, and in a 32-home
    /// population the count alone moved a window's cost by up to a third
    /// from seed to seed, as the sellers and buyers of every window
    /// follow from it.
    ///
    /// `coalition` is the maximum coalition size: a population no larger
    /// than it stays one coalition, a larger one is carved by the
    /// surplus-balanced partitioner at the anchor window (the two-sided
    /// window with the most sellers).
    ///
    /// # Errors
    ///
    /// When none of the days tried is usable.
    pub fn generate(homes: usize, coalition: usize, seed: u64) -> Result<Inputs, String> {
        (0..ATTEMPTS)
            .find_map(|attempt| {
                let day_seed = if attempt == 0 {
                    seed
                } else {
                    splitmix64(seed ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                };
                Self::day(homes, coalition, day_seed)
                    .filter(|inputs| inputs.windows.len() >= MIN_WINDOWS)
            })
            .ok_or_else(|| format!("seed {seed}: no usable day in {ATTEMPTS} tries"))
    }

    /// Homes with solar panels in a usable day of `homes` homes.
    fn solar_homes(homes: usize) -> usize {
        (SOLAR_FRACTION * homes as f64).round() as usize
    }

    /// The day of `day_seed`, or `None` when its solar count is off or no
    /// window is two-sided.
    fn day(homes: usize, coalition: usize, day_seed: u64) -> Option<Inputs> {
        let trace = TraceGenerator::new(TraceConfig {
            homes,
            windows: 96,
            window_minutes: 15,
            seed: day_seed,
            solar_fraction: SOLAR_FRACTION,
            ..TraceConfig::default()
        })
        .generate();
        let solar = trace
            .homes
            .iter()
            .filter(|h| h.solar_capacity > 0.0)
            .count();
        if solar != Self::solar_homes(homes) {
            return None;
        }
        let everyone = vec![(0..homes).collect::<Vec<_>>()];
        let anchor = (0..trace.window_count())
            .filter(|&w| two_sided(&trace.window_agents(w), &everyone))
            .max_by_key(|&w| (sellers(&trace.window_agents(w)), std::cmp::Reverse(w)))?;
        let coalitions = if homes <= coalition {
            everyone
        } else {
            SurplusBalanced
                .partition(&trace.window_agents(anchor), coalition)
                .shards()
                .to_vec()
        };
        let windows = (0..trace.window_count())
            .filter(|&w| two_sided(&trace.window_agents(w), &coalitions))
            .collect();
        Some(Inputs {
            trace,
            day_seed,
            anchor,
            coalitions,
            windows,
        })
    }

    /// The population's data in day window `w`.
    pub fn population(&self, w: usize) -> Vec<AgentWindow> {
        self.trace.window_agents(w)
    }

    /// The day window that run window `k` of `run` uses. A run shorter
    /// than the day's two-sided windows takes them at an even stride
    /// across the day, so it sees the day's mix of morning, noon and
    /// evening markets; a longer run cycles through all of them.
    pub fn window(&self, k: usize, run: usize) -> usize {
        let len = self.windows.len();
        if run >= len {
            self.windows[k % len]
        } else {
            self.windows[k * len / run]
        }
    }
}

/// SplitMix64's output function: spreads derived day seeds apart.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn sellers(agents: &[AgentWindow]) -> usize {
    agents.iter().filter(|a| a.role() == Role::Seller).count()
}

/// Whether every coalition holds at least one seller and one buyer.
fn two_sided(agents: &[AgentWindow], coalitions: &[Vec<usize>]) -> bool {
    coalitions.iter().all(|members| {
        let has = |role| members.iter().any(|&i| agents[i].role() == role);
        has(Role::Seller) && has(Role::Buyer)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::SPECS;

    #[test]
    fn every_workload_finds_usable_days_for_many_seeds() {
        for spec in SPECS {
            for seed in 0..40 {
                let inputs = Inputs::generate(spec.homes, spec.coalition, seed)
                    .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
                assert!(inputs.coalitions.iter().all(|c| c.len() <= spec.coalition));
                assert!(inputs.windows.len() >= MIN_WINDOWS);
                let solar = inputs.trace.homes.iter().filter(|h| h.solar_capacity > 0.0);
                assert_eq!(solar.count(), Inputs::solar_homes(spec.homes));
            }
        }
    }

    #[test]
    fn a_usable_seed_keeps_its_own_day() {
        let fabric = SPECS.iter().find(|s| s.name == "fabric-multiplex").unwrap();
        let day = |seed| {
            Inputs::generate(fabric.homes, fabric.coalition, seed)
                .unwrap()
                .day_seed
        };
        let usable = day(129);
        assert_eq!(day(129), usable);
        assert_eq!(day(usable), usable);
    }

    #[test]
    fn a_short_run_strides_across_the_day_and_a_long_one_cycles() {
        let inputs = Inputs::generate(12, 12, 1).unwrap();
        let len = inputs.windows.len();
        let short: Vec<usize> = (0..6).map(|k| inputs.window(k, 6)).collect();
        assert!(short.windows(2).all(|p| p[0] < p[1]));
        assert_eq!(short[0], inputs.windows[0]);
        assert!(*short.last().unwrap() >= inputs.windows[len * 5 / 6 - 1]);
        let long: Vec<usize> = (0..2 * len).map(|k| inputs.window(k, 2 * len)).collect();
        assert_eq!(long[..len], inputs.windows[..]);
        assert_eq!(long[len..], inputs.windows[..]);
    }
}
