//! Basal–bolus protocol controller.
//!
//! The paper pairs the UVA-Padova simulator with a basal–bolus
//! controller: a scheduled basal infusion plus correction doses when
//! glucose runs above target (the standard hospital protocol for
//! insulin-treated inpatients). Corrections are computed with a
//! correction factor (mg/dL per U), rate-limited by an IOB guard so
//! doses do not stack, and delivery is suspended below a safety
//! threshold.

use crate::{Controller, StateVar};
use aps_glucose::iob::{IobCurve, IobEstimator};
use aps_types::{MgDl, Step, Units, UnitsPerHour, CONTROL_CYCLE_MINUTES};
use serde::{Deserialize, Serialize};

/// Tunable profile of the basal–bolus controller.
///
/// `Copy`: nine scalars, copied by value in the decision hot loop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BasalBolusProfile {
    /// Scheduled basal rate (U/h).
    pub basal: f64,
    /// Correction target (mg/dL).
    pub target_bg: f64,
    /// Correction factor (mg/dL per U).
    pub correction_factor: f64,
    /// Band above target inside which no correction is dosed (mg/dL).
    pub correction_band: f64,
    /// Suspend threshold (mg/dL).
    pub suspend_bg: f64,
    /// Maximum net IOB before corrections are withheld (U).
    pub max_iob: f64,
    /// Maximum rate (U/h).
    pub max_rate: f64,
    /// Minutes over which one correction dose is spread.
    pub correction_spread_min: f64,
    /// Carbohydrate ratio for announced meals (grams covered per unit
    /// of prandial insulin).
    pub carb_ratio_g_per_u: f64,
}

impl Default for BasalBolusProfile {
    fn default() -> BasalBolusProfile {
        BasalBolusProfile {
            basal: 1.0,
            target_bg: 120.0,
            correction_factor: 50.0,
            correction_band: 30.0,
            suspend_bg: 80.0,
            max_iob: 3.0,
            max_rate: 6.0,
            correction_spread_min: 60.0,
            carb_ratio_g_per_u: 10.0,
        }
    }
}

/// The basal–bolus controller.
#[derive(Debug, Clone)]
pub struct BasalBolusController {
    profile: BasalBolusProfile,
    estimator: IobEstimator,
    prev_rate: UnitsPerHour,
    pending_bolus: f64,
    /// Values the FI engine forces for the next decision cycle,
    /// indexed by [`var_slot`]. Fixed arrays instead of `HashMap`s:
    /// the decision loop touches every variable every cycle, and the
    /// per-cycle SipHash lookups were measurable campaign overhead
    /// (same rework as the oref0 controller).
    overrides: [Option<f64>; N_VARS],
    /// Last cycle's observable internal values (FI read surface).
    last_vars: [Option<f64>; N_VARS],
}

const VAR_GLUCOSE: &str = "glucose";
const VAR_IOB: &str = "iob";
const VAR_RATE: &str = "rate";
const VAR_TARGET: &str = "target_bg";
const VAR_CF: &str = "correction_factor";

/// Number of observable/overridable controller variables.
const N_VARS: usize = 5;

/// Slot index of a controller variable name.
fn var_slot(name: &str) -> Option<usize> {
    match name {
        "glucose" => Some(0),
        "iob" => Some(1),
        "rate" => Some(2),
        "target_bg" => Some(3),
        "correction_factor" => Some(4),
        _ => None,
    }
}

impl BasalBolusController {
    /// Creates a controller with the given profile at basal equilibrium.
    pub fn new(profile: BasalBolusProfile) -> BasalBolusController {
        let mut estimator =
            IobEstimator::new(IobCurve::default_exponential(), CONTROL_CYCLE_MINUTES);
        estimator.set_basal_baseline(UnitsPerHour(profile.basal));
        estimator.prefill_basal(UnitsPerHour(profile.basal));
        let prev_rate = UnitsPerHour(profile.basal);
        BasalBolusController {
            profile,
            estimator,
            prev_rate,
            pending_bolus: 0.0,
            overrides: [None; N_VARS],
            last_vars: [None; N_VARS],
        }
    }

    /// The active profile.
    pub fn profile(&self) -> &BasalBolusProfile {
        &self.profile
    }

    /// Announced-meal insulin not yet delivered (U).
    pub fn pending_bolus(&self) -> f64 {
        self.pending_bolus
    }

    fn take_override(&mut self, var: &'static str, fallback: f64) -> f64 {
        let slot = var_slot(var).expect("known variable");
        self.overrides[slot].take().unwrap_or(fallback)
    }
}

impl Controller for BasalBolusController {
    fn name(&self) -> &str {
        "basal-bolus"
    }

    fn decide(&mut self, _step: Step, bg: MgDl) -> UnitsPerHour {
        let p = self.profile;
        let glucose = self.take_override(VAR_GLUCOSE, bg.value());
        let iob = self.take_override(VAR_IOB, self.estimator.iob().value());
        let target = self.take_override(VAR_TARGET, p.target_bg);
        let cf = self.take_override(VAR_CF, p.correction_factor).max(1.0);

        let suspended = glucose < p.suspend_bg;
        let mut rate = if suspended {
            0.0
        } else if glucose > target + p.correction_band && iob < p.max_iob {
            // Correction dose spread over the configured window, net of
            // insulin already on board.
            let dose = ((glucose - target) / cf - iob).max(0.0);
            p.basal + dose * 60.0 / p.correction_spread_min
        } else {
            p.basal
        };
        rate = rate.clamp(0.0, p.max_rate);

        // Deliver any announced-meal bolus as fast as the rate ceiling
        // allows (a pump bolus is a short burst of rate) — but never
        // while suspended for hypoglycemia: a prandial dose on top of a
        // low-glucose suspend would infuse at up to `max_rate` exactly
        // when insulin is most dangerous. The bolus stays pending until
        // glucose clears the suspend threshold.
        if !suspended && self.pending_bolus > 1e-9 {
            let headroom = (p.max_rate - rate).max(0.0);
            let add = headroom.min(self.pending_bolus * 60.0 / CONTROL_CYCLE_MINUTES);
            rate += add;
            self.pending_bolus = (self.pending_bolus - add * CONTROL_CYCLE_MINUTES / 60.0).max(0.0);
        }

        let rate = self.take_override(VAR_RATE, rate);
        let rate = UnitsPerHour(rate.clamp(0.0, p.max_rate));

        self.last_vars = [
            Some(glucose),
            Some(iob),
            Some(rate.value()),
            Some(target),
            Some(cf),
        ];
        self.prev_rate = rate;
        rate
    }

    fn iob(&self) -> Units {
        self.estimator.iob()
    }

    fn previous_rate(&self) -> UnitsPerHour {
        self.prev_rate
    }

    fn target_bg(&self) -> MgDl {
        MgDl(self.profile.target_bg)
    }

    fn basal_rate(&self) -> UnitsPerHour {
        UnitsPerHour(self.profile.basal)
    }

    fn reset(&mut self) {
        self.estimator
            .set_basal_baseline(UnitsPerHour(self.profile.basal));
        self.estimator
            .prefill_basal(UnitsPerHour(self.profile.basal));
        self.prev_rate = UnitsPerHour(self.profile.basal);
        self.pending_bolus = 0.0;
        self.overrides = [None; N_VARS];
        self.last_vars = [None; N_VARS];
    }

    fn fork(&self) -> Box<dyn Controller> {
        Box::new(self.clone())
    }

    fn observe_delivery(&mut self, delivered: UnitsPerHour) {
        self.estimator.record(delivered);
    }

    fn state_vars(&self) -> Vec<StateVar> {
        let p = &self.profile;
        vec![
            StateVar {
                name: VAR_GLUCOSE,
                min: 40.0,
                max: 400.0,
            },
            StateVar {
                name: VAR_IOB,
                min: 0.0,
                max: p.max_iob * 2.0,
            },
            StateVar {
                name: VAR_RATE,
                min: 0.0,
                max: p.max_rate,
            },
            StateVar {
                name: VAR_TARGET,
                min: 80.0,
                max: 200.0,
            },
            StateVar {
                name: VAR_CF,
                min: 10.0,
                max: 120.0,
            },
        ]
    }

    fn get_state(&self, var: &str) -> Option<f64> {
        var_slot(var).and_then(|slot| self.last_vars[slot])
    }

    fn set_state(&mut self, var: &str, value: f64) -> bool {
        match var_slot(var) {
            Some(slot) => {
                self.overrides[slot] = Some(value);
                true
            }
            None => false,
        }
    }

    fn announce_meal(&mut self, carbs_g: f64) {
        self.pending_bolus += carbs_g.max(0.0) / self.profile.carb_ratio_g_per_u.max(1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl() -> BasalBolusController {
        BasalBolusController::new(BasalBolusProfile::default())
    }

    fn run_cycle(c: &mut BasalBolusController, step: u32, bg: f64) -> UnitsPerHour {
        let rate = c.decide(Step(step), MgDl(bg));
        c.observe_delivery(rate);
        rate
    }

    #[test]
    fn basal_inside_band() {
        let mut c = ctl();
        assert_eq!(run_cycle(&mut c, 0, 120.0), UnitsPerHour(1.0));
        assert_eq!(run_cycle(&mut c, 1, 140.0), UnitsPerHour(1.0));
    }

    #[test]
    fn corrects_above_band() {
        let mut c = ctl();
        let rate = run_cycle(&mut c, 0, 250.0);
        assert!(rate.value() > 1.0, "{rate:?}");
    }

    #[test]
    fn suspends_when_low() {
        let mut c = ctl();
        assert_eq!(run_cycle(&mut c, 0, 75.0), UnitsPerHour(0.0));
    }

    #[test]
    fn iob_guard_withholds_corrections() {
        // Sustained hyperglycemia: the IOB guard must keep net IOB
        // bounded near the ceiling instead of stacking corrections.
        let mut c = ctl();
        let mut max_iob_seen: f64 = 0.0;
        for s in 0..72 {
            run_cycle(&mut c, s, 300.0);
            max_iob_seen = max_iob_seen.max(c.iob().value());
        }
        assert!(
            max_iob_seen <= c.profile().max_iob + 0.5,
            "net IOB ran away to {max_iob_seen}"
        );
        assert!(
            max_iob_seen > 1.0,
            "controller never corrected: {max_iob_seen}"
        );
    }

    #[test]
    fn correction_nets_out_existing_iob() {
        let mut c = ctl();
        let fresh = run_cycle(&mut c, 0, 250.0);
        // Now with IOB piled on, the same reading yields a smaller dose.
        for s in 1..6 {
            run_cycle(&mut c, s, 250.0);
        }
        let later = run_cycle(&mut c, 6, 250.0);
        assert!(later <= fresh, "{fresh:?} -> {later:?}");
    }

    #[test]
    fn overrides_and_reset() {
        let mut c = ctl();
        assert!(c.set_state("rate", 5.0));
        let rate = run_cycle(&mut c, 0, 120.0);
        assert_eq!(rate, UnitsPerHour(5.0));
        c.reset();
        assert_eq!(c.previous_rate(), UnitsPerHour(1.0));
        assert!(!c.set_state("bogus", 1.0));
    }

    #[test]
    fn max_rate_cap() {
        let mut c = ctl();
        c.set_state("glucose", 400.0);
        let rate = run_cycle(&mut c, 0, 120.0);
        assert!(rate.value() <= c.profile().max_rate);
    }

    #[test]
    fn suspend_blocks_pending_bolus() {
        // Regression: the seed delivered announced-meal boluses at up
        // to max_rate *while suspended for hypoglycemia* — the pending
        // headroom was added after the suspend branch zeroed the rate.
        let mut c = ctl();
        c.announce_meal(30.0); // 3 U pending at the default carb ratio
        let pending_before = c.pending_bolus();
        assert!(pending_before > 2.9);

        // BG below suspend_bg: no insulin at all, bolus stays pending.
        let rate = run_cycle(&mut c, 0, 70.0);
        assert_eq!(rate, UnitsPerHour(0.0), "bolus infused while suspended");
        assert_eq!(c.pending_bolus(), pending_before, "pending bolus consumed");

        // Glucose recovers above the threshold: the withheld bolus is
        // delivered now, as fast as the rate ceiling allows.
        let rate = run_cycle(&mut c, 1, 130.0);
        assert_eq!(rate, UnitsPerHour(c.profile().max_rate));
        assert!(c.pending_bolus() < pending_before);
    }

    #[test]
    fn pending_bolus_drains_across_cycles() {
        let mut c = ctl();
        c.announce_meal(20.0); // 2 U pending
        let mut delivered_above_basal = 0.0;
        for s in 0..12 {
            let rate = run_cycle(&mut c, s, 120.0);
            delivered_above_basal +=
                (rate.value() - c.profile().basal) * CONTROL_CYCLE_MINUTES / 60.0;
        }
        assert!(c.pending_bolus() < 1e-9, "bolus never fully delivered");
        assert!(
            (delivered_above_basal - 2.0).abs() < 1e-9,
            "prandial insulin delivered {delivered_above_basal} U, announced 2 U"
        );
    }
}
