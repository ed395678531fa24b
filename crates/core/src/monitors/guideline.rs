//! The medical-guidelines baseline monitor (Table III).
//!
//! Generic safety rules with no knowledge of the controller or the
//! patient: BG must stay in `[70, 180]` mg/dL, per-cycle changes must
//! stay in `(−5, 3)` mg/dL, and excursions past the patient's 10th/90th
//! BG percentiles must return within α minutes.

use crate::monitors::{HazardMonitor, MonitorInput};
use aps_types::{Hazard, UnitsPerHour, CONTROL_CYCLE_MINUTES};
use serde::{Deserialize, Serialize};

/// Guideline-monitor parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GuidelineConfig {
    /// Lower bound of the normal range (mg/dL).
    pub bg_low: f64,
    /// Upper bound of the normal range (mg/dL).
    pub bg_high: f64,
    /// Largest allowed per-cycle BG drop (mg/dL, positive number).
    pub max_drop: f64,
    /// Largest allowed per-cycle BG rise (mg/dL).
    pub max_rise: f64,
    /// 10th-percentile excursion floor λ₁₀ (mg/dL).
    pub lambda10: f64,
    /// 90th-percentile excursion ceiling λ₉₀ (mg/dL).
    pub lambda90: f64,
    /// Excursions must return within α minutes.
    pub alpha_minutes: f64,
}

impl Default for GuidelineConfig {
    fn default() -> GuidelineConfig {
        GuidelineConfig {
            bg_low: 70.0,
            bg_high: 180.0,
            max_drop: 5.0,
            max_rise: 3.0,
            lambda10: 85.0,
            lambda90: 190.0,
            alpha_minutes: 25.0,
        }
    }
}

/// The guideline monitor.
#[derive(Debug, Clone)]
pub struct GuidelineMonitor {
    config: GuidelineConfig,
    prev_bg: Option<f64>,
    below_lambda10_cycles: u32,
    above_lambda90_cycles: u32,
}

impl GuidelineMonitor {
    /// Creates the monitor.
    pub fn new(config: GuidelineConfig) -> GuidelineMonitor {
        GuidelineMonitor {
            config,
            prev_bg: None,
            below_lambda10_cycles: 0,
            above_lambda90_cycles: 0,
        }
    }

    fn alpha_cycles(&self) -> u32 {
        (self.config.alpha_minutes / CONTROL_CYCLE_MINUTES).ceil() as u32
    }
}

impl Default for GuidelineMonitor {
    fn default() -> GuidelineMonitor {
        GuidelineMonitor::new(GuidelineConfig::default())
    }
}

impl HazardMonitor for GuidelineMonitor {
    fn name(&self) -> &str {
        "guideline"
    }

    fn check(&mut self, input: &MonitorInput) -> Option<Hazard> {
        let bg = input.bg.value();
        let c = &self.config;
        let delta = self.prev_bg.map(|p| bg - p);
        self.prev_bg = Some(bg);

        // Rules 3/4 bookkeeping: how long has BG been past the
        // percentile bounds.
        if bg < c.lambda10 {
            self.below_lambda10_cycles += 1;
        } else {
            self.below_lambda10_cycles = 0;
        }
        if bg > c.lambda90 {
            self.above_lambda90_cycles += 1;
        } else {
            self.above_lambda90_cycles = 0;
        }

        // Rule 1: normal range.
        if bg <= c.bg_low {
            return Some(Hazard::H1);
        }
        if bg >= c.bg_high {
            return Some(Hazard::H2);
        }
        // Rule 2: rate limits.
        if let Some(d) = delta {
            if d <= -c.max_drop {
                return Some(Hazard::H1);
            }
            if d >= c.max_rise {
                return Some(Hazard::H2);
            }
        }
        // Rules 3/4: percentile excursions not corrected within alpha.
        if self.below_lambda10_cycles > self.alpha_cycles() {
            return Some(Hazard::H1);
        }
        if self.above_lambda90_cycles > self.alpha_cycles() {
            return Some(Hazard::H2);
        }
        None
    }

    fn observe_delivery(&mut self, _delivered: UnitsPerHour) {}

    fn reset(&mut self) {
        self.prev_bg = None;
        self.below_lambda10_cycles = 0;
        self.above_lambda90_cycles = 0;
    }

    fn fork(&self) -> Box<dyn HazardMonitor> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aps_types::{MgDl, Step};

    fn input(step: u32, bg: f64) -> MonitorInput {
        MonitorInput {
            step: Step(step),
            bg: MgDl(bg),
            commanded: UnitsPerHour(1.0),
            previous_rate: UnitsPerHour(1.0),
        }
    }

    #[test]
    fn range_violations() {
        let mut m = GuidelineMonitor::default();
        assert_eq!(m.check(&input(0, 65.0)), Some(Hazard::H1));
        m.reset();
        assert_eq!(m.check(&input(0, 200.0)), Some(Hazard::H2));
        m.reset();
        assert_eq!(m.check(&input(0, 120.0)), None);
    }

    #[test]
    fn rate_violations() {
        let mut m = GuidelineMonitor::default();
        assert_eq!(m.check(&input(0, 120.0)), None);
        assert_eq!(m.check(&input(1, 114.0)), Some(Hazard::H1)); // drop 6
        m.reset();
        m.check(&input(0, 120.0));
        assert_eq!(m.check(&input(1, 124.0)), Some(Hazard::H2)); // rise 4
        m.reset();
        m.check(&input(0, 120.0));
        assert_eq!(m.check(&input(1, 122.0)), None); // rise 2 ok
    }

    #[test]
    fn percentile_excursion_needs_persistence() {
        let mut m = GuidelineMonitor::default();
        // 84 mg/dL is below lambda10 but inside [70,180]; only persistent
        // excursions alarm. alpha = 25 min = 5 cycles.
        let mut verdicts = Vec::new();
        for i in 0..8 {
            verdicts.push(m.check(&input(i, 84.0)));
        }
        assert!(verdicts[..5].iter().all(|v| v.is_none()), "{verdicts:?}");
        assert_eq!(verdicts[6], Some(Hazard::H1));
    }

    #[test]
    fn excursion_counter_resets_on_recovery() {
        let mut m = GuidelineMonitor::default();
        for i in 0..4 {
            m.check(&input(i, 84.0));
        }
        // Recovery above lambda10 (small enough step not to trip the
        // rate rule) resets the persistence counter.
        m.check(&input(4, 86.0));
        for i in 5..9 {
            assert_eq!(m.check(&input(i, 84.0)), None, "counter should restart");
        }
    }

    #[test]
    fn reset_forgets_history() {
        let mut m = GuidelineMonitor::default();
        m.check(&input(0, 120.0));
        m.reset();
        // No delta on the first post-reset cycle.
        assert_eq!(m.check(&input(1, 100.0)), None);
    }
}
