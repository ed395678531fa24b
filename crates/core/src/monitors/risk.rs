//! Streaming BG-risk-index monitor.
//!
//! The paper computes the Kovatchev risk indices only *post hoc*, to
//! label recorded traces. [`RiskIndexMonitor`] runs the same
//! trailing-window LBGI/HBGI computation **online**, via the O(1)
//! [`RiskTracker`]: each control cycle it folds the CGM reading into
//! the rolling indices and alerts the moment the current window
//! satisfies the hazard condition (index above threshold and still
//! rising) — the exact condition the offline labeler uses, so an alert
//! at cycle `t` means "the labeler will mark this window hazardous".
//!
//! This is not a *predictive* monitor like CAWT (it fires at hazard
//! onset, not ahead of it); its role is ground-truth hazard awareness
//! inside the loop — a floor every predictive monitor should beat on
//! reaction time, and a trigger of last resort for the mitigation /
//! HMS layer when the predictive monitors stay silent.

use crate::monitors::{HazardMonitor, MonitorInput};
use aps_risk::{LabelConfig, RiskSample, RiskTracker};
use aps_types::{Hazard, UnitsPerHour};

/// Online hazard detector over the streaming BG risk indices.
#[derive(Debug, Clone, PartialEq)]
pub struct RiskIndexMonitor {
    tracker: RiskTracker,
    last: Option<RiskSample>,
}

impl RiskIndexMonitor {
    /// Creates the monitor with the given labeling configuration
    /// (window length and LBGI/HBGI thresholds).
    pub fn new(config: LabelConfig) -> RiskIndexMonitor {
        RiskIndexMonitor {
            tracker: RiskTracker::new(config),
            last: None,
        }
    }

    /// The most recent window state, if a cycle has been checked.
    pub fn last_sample(&self) -> Option<&RiskSample> {
        self.last.as_ref()
    }
}

impl Default for RiskIndexMonitor {
    fn default() -> RiskIndexMonitor {
        RiskIndexMonitor::new(LabelConfig::default())
    }
}

impl HazardMonitor for RiskIndexMonitor {
    fn name(&self) -> &str {
        "risk-index"
    }

    fn check(&mut self, input: &MonitorInput) -> Option<Hazard> {
        let sample = self.tracker.push(input.bg.value());
        let hazard = sample.hazard;
        self.last = Some(sample);
        hazard
    }

    fn observe_delivery(&mut self, _delivered: UnitsPerHour) {}

    fn reset(&mut self) {
        self.tracker.reset();
        self.last = None;
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
    fn alerts_during_hypoglycemic_descent() {
        let mut m = RiskIndexMonitor::default();
        let mut first = None;
        for s in 0..60u32 {
            let bg = (120.0 - 2.0 * f64::from(s)).max(40.0);
            if m.check(&input(s, bg)).is_some() && first.is_none() {
                first = Some(s);
            }
        }
        let onset = first.expect("descent to 40 never alerted");
        assert_eq!(
            m.last_sample().map(|s| s.index),
            Some(59),
            "tracker out of sync with checks"
        );
        assert!(onset < 40, "alert after the floor was reached: {onset}");
    }

    #[test]
    fn silent_on_normal_glycemia() {
        let mut m = RiskIndexMonitor::default();
        for s in 0..150u32 {
            let bg = 110.0 + 15.0 * (f64::from(s) * 0.1).sin();
            assert_eq!(m.check(&input(s, bg)), None, "false alarm at {s}");
        }
    }

    #[test]
    fn alert_agrees_with_offline_labeler() {
        // The monitor's alert at cycle t must equal the hazard the
        // batch labeler assigns to the window ending at t.
        let series: Vec<f64> = (0..80)
            .map(|i| 120.0 + 5.0 * i as f64 * if i < 40 { 1.0 } else { 0.0 })
            .collect();
        let config = LabelConfig::default();
        let mut m = RiskIndexMonitor::new(config.clone());
        let mut tracker = RiskTracker::new(config);
        for (s, &bg) in series.iter().enumerate() {
            let alert = m.check(&input(s as u32, bg));
            assert_eq!(alert, tracker.push(bg).hazard, "cycle {s}");
        }
    }

    #[test]
    fn reset_forgets_history() {
        let mut m = RiskIndexMonitor::default();
        for s in 0..30u32 {
            m.check(&input(s, 40.0 + f64::from(s)));
        }
        m.reset();
        assert!(m.last_sample().is_none());
        // After reset the first cycle can never alert (it seeds the
        // rising comparison).
        assert_eq!(m.check(&input(0, 40.0)), None);
    }
}
