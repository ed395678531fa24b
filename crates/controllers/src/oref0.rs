//! An oref0-style (OpenAPS) controller.
//!
//! This is a faithful port of the *decision structure* of OpenAPS's
//! `determine-basal.js`: estimate IOB from delivery history, project an
//! eventual BG from the current reading, the recent trend, and the
//! glucose-lowering effect of active insulin, then set a temporary
//! basal rate that corrects the projected error — under low-glucose
//! suspend, max-IOB, and max-basal safety caps.

use crate::{Controller, StateVar};
use aps_glucose::iob::{IobCurve, IobEstimator};
use aps_types::{MgDl, Step, Units, UnitsPerHour, CONTROL_CYCLE_MINUTES};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Tunable profile of the oref0 controller.
///
/// `Copy`: nine scalars, copied by value in the decision hot loop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Oref0Profile {
    /// Scheduled basal rate (U/h).
    pub basal: f64,
    /// Regulation target (mg/dL).
    pub target_bg: f64,
    /// Insulin sensitivity factor (mg/dL per U).
    pub isf: f64,
    /// Low-glucose suspend threshold (mg/dL).
    pub suspend_bg: f64,
    /// Eventual-BG suspend threshold (mg/dL).
    pub suspend_eventual_bg: f64,
    /// Maximum temp basal (U/h).
    pub max_basal: f64,
    /// Maximum net IOB above basal equilibrium (U).
    pub max_iob: f64,
    /// Minutes of trend projected into the eventual BG.
    pub trend_horizon_min: f64,
    /// Minutes over which a correction is spread.
    pub correction_horizon_min: f64,
}

impl Default for Oref0Profile {
    fn default() -> Oref0Profile {
        Oref0Profile {
            basal: 1.0,
            target_bg: 110.0,
            isf: 45.0,
            suspend_bg: 80.0,
            suspend_eventual_bg: 65.0,
            max_basal: 4.0,
            max_iob: 3.5,
            trend_horizon_min: 30.0,
            correction_horizon_min: 30.0,
        }
    }
}

/// The oref0-style controller.
#[derive(Debug, Clone)]
pub struct Oref0Controller {
    profile: Oref0Profile,
    estimator: IobEstimator,
    bg_history: VecDeque<f64>,
    prev_rate: UnitsPerHour,
    /// Values the FI engine forces for the next decision cycle,
    /// indexed by [`var_slot`]. Fixed arrays instead of `HashMap`s:
    /// the decision loop touches every variable every cycle, and seven
    /// SipHash lookups per cycle were measurable campaign overhead.
    overrides: [Option<f64>; N_VARS],
    /// Last cycle's observable internal values (FI read surface).
    last_vars: [Option<f64>; N_VARS],
}

const VAR_GLUCOSE: &str = "glucose";
const VAR_IOB: &str = "iob";
const VAR_EVENTUAL_BG: &str = "eventual_bg";
const VAR_RATE: &str = "rate";
const VAR_TARGET: &str = "target_bg";
const VAR_ISF: &str = "isf";
const VAR_DELTA: &str = "delta";

/// Number of observable/overridable controller variables.
const N_VARS: usize = 7;

/// Slot index of a controller variable name.
fn var_slot(name: &str) -> Option<usize> {
    match name {
        "glucose" => Some(0),
        "iob" => Some(1),
        "eventual_bg" => Some(2),
        "rate" => Some(3),
        "target_bg" => Some(4),
        "isf" => Some(5),
        "delta" => Some(6),
        _ => None,
    }
}

impl Oref0Controller {
    /// Creates a controller with the given profile, starting at basal
    /// IOB equilibrium.
    pub fn new(profile: Oref0Profile) -> Oref0Controller {
        let mut estimator =
            IobEstimator::new(IobCurve::default_exponential(), CONTROL_CYCLE_MINUTES);
        estimator.set_basal_baseline(UnitsPerHour(profile.basal));
        estimator.prefill_basal(UnitsPerHour(profile.basal));
        let prev_rate = UnitsPerHour(profile.basal);
        Oref0Controller {
            profile,
            estimator,
            bg_history: VecDeque::new(),
            prev_rate,
            overrides: [None; N_VARS],
            last_vars: [None; N_VARS],
        }
    }

    /// The active profile.
    pub fn profile(&self) -> &Oref0Profile {
        &self.profile
    }

    fn take_override(&mut self, var: &'static str, fallback: f64) -> f64 {
        let slot = var_slot(var).expect("known variable");
        self.overrides[slot].take().unwrap_or(fallback)
    }

    /// Average 5-minute delta over the last 15 minutes (oref0's
    /// `avgdelta`), or plain delta when history is short.
    fn avg_delta(&self) -> f64 {
        let n = self.bg_history.len();
        if n < 2 {
            return 0.0;
        }
        let span = (n - 1).min(3);
        let newest = self.bg_history[n - 1];
        let oldest = self.bg_history[n - 1 - span];
        (newest - oldest) / span as f64
    }
}

impl Controller for Oref0Controller {
    fn name(&self) -> &str {
        "oref0"
    }

    fn decide(&mut self, _step: Step, bg: MgDl) -> UnitsPerHour {
        let p = self.profile;
        let glucose = self.take_override(VAR_GLUCOSE, bg.value());
        self.bg_history.push_back(glucose);
        if self.bg_history.len() > 5 {
            self.bg_history.pop_front();
        }

        let delta = self.take_override(VAR_DELTA, self.avg_delta());
        let iob = self.take_override(VAR_IOB, self.estimator.iob().value());
        let target = self.take_override(VAR_TARGET, p.target_bg);
        let isf = self.take_override(VAR_ISF, p.isf).max(1.0);

        // Eventual BG: current reading, plus the projected trend, minus
        // what active (net) insulin will still remove.
        let trend = delta * p.trend_horizon_min / CONTROL_CYCLE_MINUTES;
        let naive_eventual = glucose - iob * isf;
        let eventual_bg = self.take_override(VAR_EVENTUAL_BG, naive_eventual + trend);

        let mut rate = if glucose < p.suspend_bg || eventual_bg < p.suspend_eventual_bg {
            // Low-glucose suspend.
            0.0
        } else {
            // Correction: insulin needed to move eventual BG to target,
            // delivered over the correction horizon as a temp basal.
            let error = eventual_bg - target;
            let insulin_req = error / isf;
            let correction = insulin_req * 60.0 / p.correction_horizon_min;
            p.basal + correction
        };

        // Max-IOB cap: don't stack corrections past the IOB ceiling.
        if rate > p.basal && iob >= p.max_iob {
            rate = p.basal;
        }
        // Hardware/profile caps.
        rate = rate.clamp(0.0, p.max_basal);

        let rate = self.take_override(VAR_RATE, rate);
        let rate = UnitsPerHour(rate.clamp(0.0, p.max_basal));

        self.last_vars = [
            Some(glucose),
            Some(iob),
            Some(eventual_bg),
            Some(rate.value()),
            Some(target),
            Some(isf),
            Some(delta),
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
        self.bg_history.clear();
        self.prev_rate = UnitsPerHour(self.profile.basal);
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
                name: VAR_EVENTUAL_BG,
                min: 40.0,
                max: 400.0,
            },
            StateVar {
                name: VAR_RATE,
                min: 0.0,
                max: p.max_basal,
            },
            StateVar {
                name: VAR_TARGET,
                min: 80.0,
                max: 200.0,
            },
            StateVar {
                name: VAR_ISF,
                min: 10.0,
                max: 120.0,
            },
            StateVar {
                name: VAR_DELTA,
                min: -20.0,
                max: 20.0,
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl() -> Oref0Controller {
        Oref0Controller::new(Oref0Profile::default())
    }

    fn run_cycle(c: &mut Oref0Controller, step: u32, bg: f64) -> UnitsPerHour {
        let rate = c.decide(Step(step), MgDl(bg));
        c.observe_delivery(rate);
        rate
    }

    #[test]
    fn holds_basal_at_target() {
        let mut c = ctl();
        let mut rate = UnitsPerHour(0.0);
        for s in 0..6 {
            rate = run_cycle(&mut c, s, 110.0);
        }
        assert!(
            (rate.value() - 1.0).abs() < 0.3,
            "expected ~basal at target, got {rate:?}"
        );
    }

    #[test]
    fn corrects_upward_when_high() {
        let mut c = ctl();
        let rate = run_cycle(&mut c, 0, 250.0);
        assert!(
            rate.value() > 1.5,
            "high BG should raise rate, got {rate:?}"
        );
    }

    #[test]
    fn low_glucose_suspends() {
        let mut c = ctl();
        let rate = run_cycle(&mut c, 0, 70.0);
        assert_eq!(rate, UnitsPerHour(0.0));
    }

    #[test]
    fn falling_trend_with_high_iob_suspends() {
        let mut c = ctl();
        // Build IOB with sustained highs, then crash the reading.
        for s in 0..12 {
            run_cycle(&mut c, s, 260.0);
        }
        assert!(c.iob().value() > 1.0);
        // Rapidly falling BG near range: eventual BG goes below suspend.
        let r1 = run_cycle(&mut c, 12, 150.0);
        let r2 = run_cycle(&mut c, 13, 120.0);
        assert!(
            r2 < r1 || r2.value() == 0.0,
            "should back off: {r1:?} -> {r2:?}"
        );
    }

    #[test]
    fn max_basal_cap_enforced() {
        let mut c = ctl();
        let rate = run_cycle(&mut c, 0, 400.0);
        assert!(rate.value() <= c.profile().max_basal + 1e-12);
    }

    #[test]
    fn max_iob_cap_prevents_stacking() {
        // Sustained extreme hyperglycemia: without the cap, 4 U/h over
        // basal would stack ~6 U of net IOB; the correction/IOB logic
        // must keep net IOB bounded near the configured ceiling.
        let mut c = ctl();
        let mut max_iob_seen: f64 = 0.0;
        for s in 0..72 {
            run_cycle(&mut c, s, 300.0);
            max_iob_seen = max_iob_seen.max(c.iob().value());
        }
        assert!(
            max_iob_seen <= c.profile().max_iob + 0.3,
            "net IOB ran away to {max_iob_seen}"
        );
        assert!(
            max_iob_seen > 2.0,
            "controller never corrected: {max_iob_seen}"
        );
    }

    #[test]
    fn glucose_override_changes_decision_once() {
        let mut c = ctl();
        assert!(c.set_state("glucose", 300.0));
        let faulty = run_cycle(&mut c, 0, 110.0);
        assert!(faulty.value() > 1.5, "override ignored: {faulty:?}");
        // Override consumed: next cycle sees the true reading again.
        // (The trend now *falls* from 300 to 110, so the controller backs off.)
        let clean = run_cycle(&mut c, 1, 110.0);
        assert!(clean < faulty);
    }

    #[test]
    fn rate_override_bypasses_logic_but_not_caps() {
        let mut c = ctl();
        assert!(c.set_state("rate", 99.0));
        let rate = run_cycle(&mut c, 0, 110.0);
        assert!((rate.value() - c.profile().max_basal).abs() < 1e-12);
    }

    #[test]
    fn unknown_var_rejected() {
        let mut c = ctl();
        assert!(!c.set_state("nonsense", 1.0));
        assert_eq!(c.get_state("nonsense"), None);
    }

    #[test]
    fn get_state_reflects_last_cycle() {
        let mut c = ctl();
        run_cycle(&mut c, 0, 180.0);
        assert_eq!(c.get_state("glucose"), Some(180.0));
        assert!(c.get_state("rate").is_some());
        assert!(c.get_state("eventual_bg").is_some());
    }

    #[test]
    fn reset_restores_equilibrium() {
        let mut c = ctl();
        for s in 0..10 {
            run_cycle(&mut c, s, 300.0);
        }
        let iob_before = c.iob().value();
        c.reset();
        assert!(c.iob().value() < iob_before);
        assert_eq!(c.previous_rate(), UnitsPerHour(1.0));
    }

    #[test]
    fn state_vars_have_sane_ranges() {
        let c = ctl();
        for v in c.state_vars() {
            assert!(v.min < v.max, "{}", v.name);
        }
    }
}
