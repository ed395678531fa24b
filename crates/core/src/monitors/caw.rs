//! The context-aware monitor (CAWT when thresholds are learned, CAWOT
//! with guideline defaults).

use crate::context::{ContextBuilder, ContextVector, Trend};
use crate::monitors::{HazardMonitor, MonitorInput};
use crate::scs::Scs;
use aps_types::{ControlAction, Hazard, UnitsPerHour};
use serde::{Deserialize, Serialize};

/// The safe-region `X*` used by the alert latch: once a UCA fires, the
/// alert persists until the context returns here (Algorithm 1 clears
/// its `Mitigate` flag only when `ρ(µ(x)) ∈ X*`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SafeRegion {
    /// Lower glucose bound of the safe region (mg/dL).
    pub bg_low: f64,
    /// Upper glucose bound of the safe region (mg/dL).
    pub bg_high: f64,
}

impl Default for SafeRegion {
    fn default() -> SafeRegion {
        SafeRegion {
            bg_low: 100.0,
            bg_high: 160.0,
        }
    }
}

impl SafeRegion {
    /// `true` when a latched alert for `hazard` may clear: the glucose
    /// has stopped moving toward the hazard (mirroring the labeler's
    /// "risk index kept increasing" condition), with an extra hold
    /// below `bg_low` where a recovering hypoglycemia is still acute.
    pub fn clears(&self, ctx: &ContextVector, hazard: Hazard) -> bool {
        match hazard {
            Hazard::H1 => ctx.bg_trend() != Trend::Falling && ctx.bg >= self.bg_low.min(80.0),
            Hazard::H2 => ctx.bg_trend() != Trend::Rising,
        }
    }
}

/// The paper's context-aware monitor: per cycle, infer the context
/// `µ(x)`, classify the commanded action, and flag the first violated
/// SCS rule. A fired alert latches until the context returns to the
/// safe region (Algorithm 1 semantics).
#[derive(Debug, Clone)]
pub struct CawMonitor {
    name: String,
    scs: Scs,
    context: ContextBuilder,
    safe: SafeRegion,
    latched: Option<Hazard>,
    /// Id of the rule that fired on the last alert (for transparency /
    /// explainability reports).
    last_rule: Option<u8>,
}

impl CawMonitor {
    /// Creates a monitor from an SCS; `basal` is the wrapped
    /// controller's basal rate (reference point of the net-IOB
    /// estimate).
    pub fn new(name: &str, scs: Scs, basal: UnitsPerHour) -> CawMonitor {
        CawMonitor {
            name: name.to_owned(),
            scs,
            context: ContextBuilder::new(basal),
            safe: SafeRegion::default(),
            latched: None,
            last_rule: None,
        }
    }

    /// Overrides the safe region used by the alert latch.
    pub fn with_safe_region(mut self, safe: SafeRegion) -> CawMonitor {
        self.safe = safe;
        self
    }

    /// The SCS the monitor enforces.
    pub fn scs(&self) -> &Scs {
        &self.scs
    }

    /// The Table I rule id behind the most recent alert.
    pub fn last_rule(&self) -> Option<u8> {
        self.last_rule
    }
}

impl HazardMonitor for CawMonitor {
    fn name(&self) -> &str {
        &self.name
    }

    fn check(&mut self, input: &MonitorInput) -> Option<Hazard> {
        let ctx = self.context.observe_bg(input.bg);
        let action = ControlAction::classify(input.commanded, input.previous_rate);
        if let Some(rule) = self.scs.first_violation(&ctx, action) {
            self.last_rule = Some(rule.id);
            self.latched = Some(rule.hazard);
            return Some(rule.hazard);
        }
        // No fresh violation: a latched alert persists until the
        // context returns to the safe region.
        if let Some(h) = self.latched {
            if self.safe.clears(&ctx, h) {
                self.latched = None;
            } else {
                return Some(h);
            }
        }
        None
    }

    fn observe_delivery(&mut self, delivered: UnitsPerHour) {
        self.context.observe_delivery(delivered);
    }

    fn reset(&mut self) {
        self.context.reset();
        self.latched = None;
        self.last_rule = None;
    }

    fn fork(&self) -> Box<dyn HazardMonitor> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aps_types::{MgDl, Step};

    fn monitor() -> CawMonitor {
        CawMonitor::new(
            "cawot",
            Scs::with_default_thresholds(MgDl(110.0)),
            UnitsPerHour(1.0),
        )
    }

    fn input(step: u32, bg: f64, commanded: f64, prev: f64) -> MonitorInput {
        MonitorInput {
            step: Step(step),
            bg: MgDl(bg),
            commanded: UnitsPerHour(commanded),
            previous_rate: UnitsPerHour(prev),
        }
    }

    #[test]
    fn flags_stop_during_hyperglycemia() {
        let mut m = monitor();
        // A stuck-at-zero rate fault: the stop executes for ~an hour,
        // so the monitor's net IOB falls clearly below basal while BG
        // climbs. Rule 9's default -0.5 U ceiling then flags the stop.
        let mut verdict = None;
        for i in 0..12u32 {
            verdict = m.check(&input(i, 180.0 + 5.0 * i as f64, 0.0, 1.0));
            m.observe_delivery(UnitsPerHour(0.0));
            if verdict.is_some() {
                break;
            }
        }
        assert_eq!(verdict, Some(Hazard::H2));
        assert_eq!(m.last_rule(), Some(9));
    }

    #[test]
    fn flags_missing_suspend_below_floor() {
        let mut m = monitor();
        m.check(&input(0, 75.0, 1.0, 1.0));
        m.observe_delivery(UnitsPerHour(1.0));
        let verdict = m.check(&input(1, 60.0, 1.0, 1.0));
        assert_eq!(verdict, Some(Hazard::H1));
        assert_eq!(m.last_rule(), Some(10));
    }

    #[test]
    fn quiet_in_normal_operation() {
        let mut m = monitor();
        for (i, bg) in [112.0, 114.0, 111.0, 113.0, 112.0].iter().enumerate() {
            let verdict = m.check(&input(i as u32, *bg, 1.0, 1.0));
            assert_eq!(verdict, None, "false alarm at cycle {i}");
            m.observe_delivery(UnitsPerHour(1.0));
        }
    }

    #[test]
    fn alert_latches_until_safe_region() {
        let mut m = monitor();
        // Rule 10 fires: BG 60, insulin kept running.
        m.check(&input(0, 75.0, 1.0, 1.0));
        m.observe_delivery(UnitsPerHour(1.0));
        assert_eq!(m.check(&input(1, 60.0, 1.0, 1.0)), Some(Hazard::H1));
        m.observe_delivery(UnitsPerHour(0.0));
        // Controller now suspends (the *safe* action) but BG is still
        // low and falling: the latch keeps the alert raised.
        assert_eq!(m.check(&input(2, 55.0, 0.0, 0.0)), Some(Hazard::H1));
        m.observe_delivery(UnitsPerHour(0.0));
        // Recovery begins but BG is still acutely low: latch holds.
        assert_eq!(m.check(&input(3, 72.0, 0.0, 0.0)), Some(Hazard::H1));
        m.observe_delivery(UnitsPerHour(0.0));
        // Rising and back above the acute floor: latch clears.
        assert_eq!(m.check(&input(4, 88.0, 0.0, 0.0)), None);
    }

    #[test]
    fn safe_region_clearing_logic() {
        let safe = SafeRegion::default();
        let falling = ContextVector {
            bg: 110.0,
            dbg: -3.0,
            iob: 0.0,
            diob: 0.0,
        };
        assert!(!safe.clears(&falling, Hazard::H1), "still falling in band");
        let recovered = ContextVector {
            bg: 110.0,
            dbg: 1.0,
            iob: 0.0,
            diob: 0.0,
        };
        assert!(safe.clears(&recovered, Hazard::H1));
        let high_rising = ContextVector {
            bg: 200.0,
            dbg: 4.0,
            iob: 0.0,
            diob: 0.0,
        };
        assert!(!safe.clears(&high_rising, Hazard::H2));
        let high_falling = ContextVector {
            bg: 150.0,
            dbg: -4.0,
            iob: 0.0,
            diob: 0.0,
        };
        assert!(safe.clears(&high_falling, Hazard::H2));
    }

    #[test]
    fn reset_clears_rule_memory() {
        let mut m = monitor();
        m.check(&input(0, 60.0, 1.0, 1.0));
        assert!(m.last_rule().is_some());
        m.reset();
        assert_eq!(m.last_rule(), None);
    }

    #[test]
    fn learned_scs_changes_behavior() {
        // A CAWT monitor whose rule-9 ceiling was *loosened* to +0.5 U
        // flags a stop command immediately (IOB ~0 < 0.5), while the
        // default (-0.5) monitor stays quiet at basal equilibrium.
        let mut learned = Scs::with_default_thresholds(MgDl(110.0));
        learned.rule_mut(9).unwrap().beta = 0.5;
        let mut cawt = CawMonitor::new("cawt", learned, UnitsPerHour(1.0));
        let mut cawot = monitor();
        for m in [&mut cawt, &mut cawot] {
            m.check(&input(0, 200.0, 1.0, 1.0));
            m.observe_delivery(UnitsPerHour(1.0));
        }
        let v_learned = cawt.check(&input(1, 210.0, 0.0, 1.0));
        let v_default = cawot.check(&input(1, 210.0, 0.0, 1.0));
        assert_eq!(v_learned, Some(Hazard::H2));
        assert_eq!(cawt.last_rule(), Some(9));
        assert_eq!(
            v_default, None,
            "default ceiling should not fire at basal IOB"
        );
    }
}
