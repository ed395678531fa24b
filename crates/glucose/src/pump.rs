//! Insulin pump actuation model.
//!
//! Commands leave the controller as continuous U/h rates; a physical
//! pump clamps them to its hardware range and quantizes to its basal
//! step resolution (0.05 U/h on common devices).

use aps_types::UnitsPerHour;
use serde::{Deserialize, Serialize};

/// Pump hardware characteristics.
///
/// `Copy`: two scalars, copied per run rather than cloned.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PumpConfig {
    /// Maximum deliverable rate (U/h).
    pub max_rate: f64,
    /// Basal rate resolution (U/h); 0 disables quantization.
    pub step: f64,
}

impl Default for PumpConfig {
    fn default() -> PumpConfig {
        PumpConfig {
            max_rate: 10.0,
            step: 0.05,
        }
    }
}

/// An insulin pump executing rate commands.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Pump {
    config: PumpConfig,
    total_delivered: f64,
}

impl Pump {
    /// Creates a pump from configuration.
    pub fn new(config: PumpConfig) -> Pump {
        Pump {
            config,
            total_delivered: 0.0,
        }
    }

    /// Clamps and quantizes a commanded rate to what the hardware will
    /// actually deliver.
    pub fn actuate(&self, commanded: UnitsPerHour) -> UnitsPerHour {
        let mut v = commanded.value().clamp(0.0, self.config.max_rate);
        if self.config.step > 0.0 {
            v = (v / self.config.step).round() * self.config.step;
            // Rounding can push past the clamp ceiling by one step.
            v = v.min(self.config.max_rate);
        }
        UnitsPerHour(v)
    }

    /// Actuates and records delivery over `minutes` of the cycle.
    pub fn deliver(&mut self, commanded: UnitsPerHour, minutes: f64) -> UnitsPerHour {
        let actual = self.actuate(commanded);
        self.total_delivered += actual.over_minutes(minutes).value();
        actual
    }

    /// Total insulin delivered so far (U).
    pub fn total_delivered(&self) -> f64 {
        self.total_delivered
    }

    /// The pump's configuration.
    pub fn config(&self) -> &PumpConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamps_to_hardware_range() {
        let pump = Pump::default();
        assert_eq!(pump.actuate(UnitsPerHour(-2.0)), UnitsPerHour(0.0));
        assert_eq!(pump.actuate(UnitsPerHour(99.0)), UnitsPerHour(10.0));
    }

    #[test]
    fn quantizes_to_step() {
        let pump = Pump::default();
        assert_eq!(pump.actuate(UnitsPerHour(1.02)), UnitsPerHour(1.0));
        assert_eq!(pump.actuate(UnitsPerHour(1.03)), UnitsPerHour(1.05));
    }

    #[test]
    fn actuation_is_idempotent() {
        let pump = Pump::default();
        let once = pump.actuate(UnitsPerHour(1.337));
        let twice = pump.actuate(once);
        assert_eq!(once, twice);
    }

    #[test]
    fn delivery_accumulates() {
        let mut pump = Pump::default();
        pump.deliver(UnitsPerHour(2.0), 30.0);
        pump.deliver(UnitsPerHour(2.0), 30.0);
        assert!((pump.total_delivered() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_step_disables_quantization() {
        let pump = Pump::new(PumpConfig {
            max_rate: 10.0,
            step: 0.0,
        });
        assert_eq!(pump.actuate(UnitsPerHour(1.337)), UnitsPerHour(1.337));
    }
}
