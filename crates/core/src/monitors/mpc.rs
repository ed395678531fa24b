//! The model-predictive-control baseline monitor.
//!
//! Uses the Bergman/Sherwin model of Eq. 6,
//! `dBG/dt = −(GEZI + IEFF)·BG + EGP + RA(t)`, to predict where the
//! commanded insulin rate will take the patient's glucose over a short
//! horizon; alarms when the prediction leaves the normal range.
//! Configured with the population-average model (patient-specific
//! parameters can be supplied for a stronger variant).

use crate::monitors::{HazardMonitor, MonitorInput};
use aps_glucose::bergman::BergmanParams;
use aps_types::{Hazard, UnitsPerHour, CONTROL_CYCLE_MINUTES};
use serde::{Deserialize, Serialize};

/// MPC-monitor parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MpcConfig {
    /// Prediction horizon (minutes).
    pub horizon_minutes: f64,
    /// Alarm floor (mg/dL).
    pub bg_low: f64,
    /// Alarm ceiling (mg/dL).
    pub bg_high: f64,
}

impl Default for MpcConfig {
    fn default() -> MpcConfig {
        MpcConfig {
            horizon_minutes: 30.0,
            bg_low: 70.0,
            bg_high: 180.0,
        }
    }
}

/// The MPC baseline monitor.
#[derive(Debug, Clone)]
pub struct MpcMonitor {
    config: MpcConfig,
    model: BergmanParams,
    /// Internal insulin states (Isc, Ip, Ieff), driven by deliveries.
    isc: f64,
    ip: f64,
    ieff: f64,
}

impl MpcMonitor {
    /// Creates the monitor with the given model parameters.
    pub fn new(config: MpcConfig, model: BergmanParams) -> MpcMonitor {
        let mut m = MpcMonitor {
            config,
            model,
            isc: 0.0,
            ip: 0.0,
            ieff: 0.0,
        };
        m.reset();
        m
    }

    /// Population-average configuration (the paper's default).
    pub fn population() -> MpcMonitor {
        MpcMonitor::new(MpcConfig::default(), BergmanParams::population_average())
    }

    /// One Euler step of the insulin subsystem at rate `uu_per_min`.
    fn advance_insulin(&mut self, uu_per_min: f64, dt: f64) {
        let p = &self.model;
        let d_isc = uu_per_min / (p.tau1 * p.ci) - self.isc / p.tau1;
        let d_ip = (self.isc - self.ip) / p.tau2;
        let d_ieff = -p.p2 * self.ieff + p.p2 * p.si * self.ip;
        self.isc += dt * d_isc;
        self.ip += dt * d_ip;
        self.ieff += dt * d_ieff;
    }

    /// Predicted BG after the horizon if `rate` is held, starting from
    /// the current reading and internal insulin state.
    pub fn predict(&self, bg0: f64, rate: UnitsPerHour) -> f64 {
        let p = self.model.clone();
        let uu_per_min = rate.max_zero().value() * 1e6 / 60.0;
        let mut sim = self.clone();
        let mut bg = bg0;
        let dt = 1.0;
        let steps = (self.config.horizon_minutes / dt) as usize;
        for _ in 0..steps {
            sim.advance_insulin(uu_per_min, dt);
            bg += dt * (-(p.gezi + sim.ieff) * bg + p.egp);
        }
        bg
    }
}

impl HazardMonitor for MpcMonitor {
    fn name(&self) -> &str {
        "mpc"
    }

    fn check(&mut self, input: &MonitorInput) -> Option<Hazard> {
        let predicted = self.predict(input.bg.value(), input.commanded);
        if predicted < self.config.bg_low {
            Some(Hazard::H1)
        } else if predicted > self.config.bg_high {
            Some(Hazard::H2)
        } else {
            None
        }
    }

    fn observe_delivery(&mut self, delivered: UnitsPerHour) {
        // Track the true delivery so the internal insulin state stays
        // aligned with reality between predictions.
        let uu_per_min = delivered.max_zero().value() * 1e6 / 60.0;
        let mut remaining = CONTROL_CYCLE_MINUTES;
        while remaining > 0.0 {
            let dt = remaining.min(1.0);
            self.advance_insulin(uu_per_min, dt);
            remaining -= dt;
        }
    }

    fn reset(&mut self) {
        // Start at the steady state of the 120 mg/dL equilibrium basal.
        let basal = self.model.equilibrium_basal(aps_types::MgDl(120.0));
        let uu_per_min = basal.value() * 1e6 / 60.0;
        let ip = uu_per_min / self.model.ci;
        self.isc = ip;
        self.ip = ip;
        self.ieff = self.model.si * ip;
    }

    fn fork(&self) -> Box<dyn HazardMonitor> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aps_types::{MgDl, Step};

    fn input(bg: f64, commanded: f64) -> MonitorInput {
        MonitorInput {
            step: Step(0),
            bg: MgDl(bg),
            commanded: UnitsPerHour(commanded),
            previous_rate: UnitsPerHour(1.0),
        }
    }

    #[test]
    fn quiet_at_equilibrium() {
        let mut m = MpcMonitor::population();
        let basal = m.model.equilibrium_basal(MgDl(120.0)).value();
        assert_eq!(m.check(&input(120.0, basal)), None);
    }

    #[test]
    fn predicts_hypoglycemia_from_overdose_near_range_edge() {
        let mut m = MpcMonitor::population();
        // Pile on insulin state as if a max-rate fault ran 90 minutes.
        for _ in 0..18 {
            m.observe_delivery(UnitsPerHour(10.0));
        }
        let verdict = m.check(&input(85.0, 10.0));
        assert_eq!(verdict, Some(Hazard::H1));
    }

    #[test]
    fn predicts_hyperglycemia_when_rising_unchecked() {
        let mut m = MpcMonitor::population();
        // Zero insulin for hours: internal insulin state decays.
        for _ in 0..36 {
            m.observe_delivery(UnitsPerHour(0.0));
        }
        let verdict = m.check(&input(175.0, 0.0));
        assert_eq!(verdict, Some(Hazard::H2));
    }

    #[test]
    fn prediction_monotone_in_insulin() {
        let m = MpcMonitor::population();
        let low = m.predict(150.0, UnitsPerHour(0.0));
        let high = m.predict(150.0, UnitsPerHour(8.0));
        assert!(
            high < low,
            "more insulin must predict lower BG: {high} vs {low}"
        );
    }

    #[test]
    fn reset_restores_equilibrium_state() {
        let mut m = MpcMonitor::population();
        for _ in 0..24 {
            m.observe_delivery(UnitsPerHour(10.0));
        }
        let drifted = m.ieff;
        m.reset();
        assert!(m.ieff < drifted);
    }
}
