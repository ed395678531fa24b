//! Safety Context Specification: the Table I rule set and its STL form.
//!
//! Each rule pairs a context pattern over `µ(x) = (BG, BG′, IOB, IOB′)`
//! with a control action that is unsafe in that context and the hazard
//! it would cause:
//!
//! ```text
//! G[t0,te]( φ_bg ∧ φ_bg′ ∧ φ_iob′ ∧ φ_iob(β) ⇒ ¬u )
//! ```
//!
//! Rule 10 is the one *mandatory*-action rule: below a learnable BG
//! floor β₂₁ the controller **must** stop insulin. The βᵢ are the
//! learnable thresholds of §III-C2.

use crate::context::{ContextVector, Trend};
use aps_stl::{CmpOp, Formula};
use aps_types::{ControlAction, Hazard, MgDl};
use serde::{Deserialize, Serialize};

/// Constraint on BG relative to the target (or to the rule's own β for
/// rule 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BgCond {
    /// `BG > BGT`.
    AboveTarget,
    /// `BG < BGT`.
    BelowTarget,
    /// `BG < β` (rule 10's learnable glucose floor).
    BelowBeta,
}

/// Constraint on a trend sign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrendCond {
    /// Strictly positive.
    Pos,
    /// Strictly negative.
    Neg,
    /// Flat (within dead-band).
    Zero,
    /// Flat or negative.
    NonPos,
    /// Flat or positive.
    NonNeg,
    /// Unconstrained.
    Any,
}

impl TrendCond {
    fn matches(self, t: Trend) -> bool {
        match self {
            TrendCond::Pos => t == Trend::Rising,
            TrendCond::Neg => t == Trend::Falling,
            TrendCond::Zero => t == Trend::Flat,
            TrendCond::NonPos => t != Trend::Rising,
            TrendCond::NonNeg => t != Trend::Falling,
            TrendCond::Any => true,
        }
    }
}

/// Constraint on IOB relative to the rule's learnable β.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IobCond {
    /// `IOB < β` (the H2-side rules).
    BelowBeta,
    /// `IOB > β` (the H1-side rules).
    AboveBeta,
    /// Unconstrained (rule 10 constrains BG instead).
    Any,
}

/// What the rule says about the control action in context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ActionCond {
    /// The action must **not** be issued in this context.
    Forbidden(ControlAction),
    /// The action **must** be issued in this context (rule 10).
    Required(ControlAction),
}

/// One unsafe-control-action rule (a row of Table I).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UcaRule {
    /// Row number in Table I (1-based).
    pub id: u8,
    /// BG-side context constraint.
    pub bg: BgCond,
    /// BG′ constraint.
    pub bg_trend: TrendCond,
    /// IOB′ constraint.
    pub iob_trend: TrendCond,
    /// IOB-side constraint (carries the learnable β except for rule 10).
    pub iob: IobCond,
    /// The learnable threshold βᵢ (IOB in U, or BG in mg/dL for rule 10).
    pub beta: f64,
    /// Action constraint.
    pub action: ActionCond,
    /// Hazard predicted if the rule is violated.
    pub hazard: Hazard,
}

impl UcaRule {
    /// `true` if the *context* part of the rule (everything but the
    /// action) matches, given the regulation target.
    pub fn context_matches(&self, ctx: &ContextVector, target: MgDl) -> bool {
        let bg_ok = match self.bg {
            BgCond::AboveTarget => ctx.bg > target.value(),
            BgCond::BelowTarget => ctx.bg < target.value(),
            BgCond::BelowBeta => ctx.bg < self.beta,
        };
        let iob_ok = match self.iob {
            IobCond::BelowBeta => ctx.iob < self.beta,
            IobCond::AboveBeta => ctx.iob > self.beta,
            IobCond::Any => true,
        };
        bg_ok
            && iob_ok
            && self.bg_trend.matches(ctx.bg_trend())
            && self.iob_trend.matches(ctx.iob_trend())
    }

    /// `true` if issuing `action` in context `ctx` violates this rule.
    /// The action, one comparison, is tested before the context.
    pub fn violated_by(&self, ctx: &ContextVector, action: ControlAction, target: MgDl) -> bool {
        let action_violates = match self.action {
            ActionCond::Forbidden(u) => action == u,
            ActionCond::Required(u) => action != u,
        };
        action_violates && self.context_matches(ctx, target)
    }

    /// The rule as a bounded-time STL formula over the signals
    /// `bg, bg', iob, iob', u` (`u` = the action's paper index), for
    /// the horizon `[0, te]` in samples.
    pub fn to_stl(&self, target: MgDl, te: usize) -> Formula {
        let context = self.context_stl(target);
        let consequent = match self.action {
            ActionCond::Forbidden(u) => Formula::pred("u", CmpOp::Eq, u.paper_index() as f64).not(),
            ActionCond::Required(u) => Formula::pred("u", CmpOp::Eq, u.paper_index() as f64),
        };
        context.implies(consequent).globally(0, te)
    }

    /// The *context* part of the rule (`ρ(µ(x))` only, no action) as an
    /// STL conjunction over `bg, bg', iob, iob'`. This is the
    /// antecedent of [`to_stl`](Self::to_stl) and the trigger of the
    /// mitigation specification (Eq. 2, [`hms`](crate::hms)).
    pub fn context_stl(&self, target: MgDl) -> Formula {
        use crate::context::{BG_TREND_EPS, IOB_TREND_EPS};
        let mut conjuncts: Vec<Formula> = Vec::new();
        match self.bg {
            BgCond::AboveTarget => conjuncts.push(Formula::pred("bg", CmpOp::Gt, target.value())),
            BgCond::BelowTarget => conjuncts.push(Formula::pred("bg", CmpOp::Lt, target.value())),
            BgCond::BelowBeta => conjuncts.push(Formula::pred("bg", CmpOp::Lt, self.beta)),
        }
        let trend = |signal: &str, cond: TrendCond, eps: f64| -> Option<Formula> {
            match cond {
                TrendCond::Pos => Some(Formula::pred(signal, CmpOp::Gt, eps)),
                TrendCond::Neg => Some(Formula::pred(signal, CmpOp::Lt, -eps)),
                TrendCond::Zero => Some(Formula::pred(signal, CmpOp::Ge, -eps).and(Formula::pred(
                    signal,
                    CmpOp::Le,
                    eps,
                ))),
                TrendCond::NonPos => Some(Formula::pred(signal, CmpOp::Le, eps)),
                TrendCond::NonNeg => Some(Formula::pred(signal, CmpOp::Ge, -eps)),
                TrendCond::Any => None,
            }
        };
        if let Some(f) = trend("bg'", self.bg_trend, BG_TREND_EPS) {
            conjuncts.push(f);
        }
        if let Some(f) = trend("iob'", self.iob_trend, IOB_TREND_EPS) {
            conjuncts.push(f);
        }
        match self.iob {
            IobCond::BelowBeta => conjuncts.push(Formula::pred("iob", CmpOp::Lt, self.beta)),
            IobCond::AboveBeta => conjuncts.push(Formula::pred("iob", CmpOp::Gt, self.beta)),
            IobCond::Any => {}
        }
        Formula::And(conjuncts)
    }
}

/// The full Safety Context Specification: the rule set plus the target.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scs {
    /// Regulation target `BGT`.
    pub target: MgDl,
    /// The UCA rules (Table I).
    pub rules: Vec<UcaRule>,
}

impl Scs {
    /// The Table I rule set with *guideline-default* thresholds — this
    /// is exactly the CAWOT monitor's configuration.
    ///
    /// IOB here is *net of basal* (oref0's convention), so 0 means
    /// "normally insulinized". Defaults: H2-side ceilings at −0.5 U
    /// (flag insulin-reducing actions only once the patient is clearly
    /// under-insulinized), H1-side floors at 2 U above basal, and a
    /// 70 mg/dL glucose floor for the mandatory-suspend rule. The βᵢ
    /// of the CAWT monitor are learned instead (see
    /// [`learning`](crate::learning)).
    pub fn with_default_thresholds(target: MgDl) -> Scs {
        use ActionCond::{Forbidden, Required};
        use BgCond::{AboveTarget, BelowTarget};
        use ControlAction::{DecreaseInsulin, IncreaseInsulin, KeepInsulin, StopInsulin};
        use IobCond::{AboveBeta, BelowBeta};
        let r = |id, bg, bg_t, iob_t, iob, beta, action, hazard| UcaRule {
            id,
            bg,
            bg_trend: bg_t,
            iob_trend: iob_t,
            iob,
            beta,
            action,
            hazard,
        };
        let rules = vec![
            // 1-5: decreasing insulin while hyperglycemic with little IOB -> H2.
            r(
                1,
                AboveTarget,
                TrendCond::Pos,
                TrendCond::Neg,
                BelowBeta,
                -0.5,
                Forbidden(DecreaseInsulin),
                Hazard::H2,
            ),
            r(
                2,
                AboveTarget,
                TrendCond::Pos,
                TrendCond::Zero,
                BelowBeta,
                -0.5,
                Forbidden(DecreaseInsulin),
                Hazard::H2,
            ),
            r(
                3,
                AboveTarget,
                TrendCond::Neg,
                TrendCond::Pos,
                BelowBeta,
                -0.5,
                Forbidden(DecreaseInsulin),
                Hazard::H2,
            ),
            r(
                4,
                AboveTarget,
                TrendCond::Neg,
                TrendCond::Neg,
                BelowBeta,
                -0.5,
                Forbidden(DecreaseInsulin),
                Hazard::H2,
            ),
            r(
                5,
                AboveTarget,
                TrendCond::Neg,
                TrendCond::Zero,
                BelowBeta,
                -0.5,
                Forbidden(DecreaseInsulin),
                Hazard::H2,
            ),
            // 6-8: increasing insulin while hypoglycemic with IOB already high -> H1.
            r(
                6,
                BelowTarget,
                TrendCond::Neg,
                TrendCond::Pos,
                AboveBeta,
                2.0,
                Forbidden(IncreaseInsulin),
                Hazard::H1,
            ),
            r(
                7,
                BelowTarget,
                TrendCond::Neg,
                TrendCond::Neg,
                AboveBeta,
                2.0,
                Forbidden(IncreaseInsulin),
                Hazard::H1,
            ),
            r(
                8,
                BelowTarget,
                TrendCond::Neg,
                TrendCond::Zero,
                AboveBeta,
                2.0,
                Forbidden(IncreaseInsulin),
                Hazard::H1,
            ),
            // 9: stopping insulin while hyperglycemic with little IOB -> H2.
            r(
                9,
                AboveTarget,
                TrendCond::Any,
                TrendCond::Any,
                BelowBeta,
                -0.5,
                Forbidden(StopInsulin),
                Hazard::H2,
            ),
            // 10: below the glucose floor insulin MUST stop -> else H1.
            r(
                10,
                BgCond::BelowBeta,
                TrendCond::Any,
                TrendCond::Any,
                IobCond::Any,
                70.0,
                Required(StopInsulin),
                Hazard::H1,
            ),
            // 11: keeping the rate while hyperglycemic, IOB flat/falling and low -> H2.
            r(
                11,
                AboveTarget,
                TrendCond::Pos,
                TrendCond::NonPos,
                BelowBeta,
                -0.5,
                Forbidden(KeepInsulin),
                Hazard::H2,
            ),
            // 12: keeping the rate while hypoglycemic, IOB flat/rising and high -> H1.
            r(
                12,
                BelowTarget,
                TrendCond::Neg,
                TrendCond::NonNeg,
                AboveBeta,
                2.0,
                Forbidden(KeepInsulin),
                Hazard::H1,
            ),
        ];
        Scs { target, rules }
    }

    /// First rule violated by `(ctx, action)`, if any (the monitor's
    /// per-cycle check).
    pub fn first_violation(&self, ctx: &ContextVector, action: ControlAction) -> Option<&UcaRule> {
        self.rules
            .iter()
            .find(|r| r.violated_by(ctx, action, self.target))
    }

    /// All rules as STL formulas for the horizon `[0, te]`.
    pub fn to_stl(&self, te: usize) -> Vec<Formula> {
        self.rules
            .iter()
            .map(|r| r.to_stl(self.target, te))
            .collect()
    }

    /// Looks up a rule by Table I row id.
    pub fn rule(&self, id: u8) -> Option<&UcaRule> {
        self.rules.iter().find(|r| r.id == id)
    }

    /// Mutable lookup (used by the threshold learner).
    pub fn rule_mut(&mut self, id: u8) -> Option<&mut UcaRule> {
        self.rules.iter_mut().find(|r| r.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aps_stl::Trace;

    fn scs() -> Scs {
        Scs::with_default_thresholds(MgDl(110.0))
    }

    fn ctx(bg: f64, dbg: f64, iob: f64, diob: f64) -> ContextVector {
        ContextVector { bg, dbg, iob, diob }
    }

    #[test]
    fn twelve_rules_matching_table_i() {
        let s = scs();
        assert_eq!(s.rules.len(), 12);
        for id in 1..=12u8 {
            assert!(s.rule(id).is_some(), "rule {id} missing");
        }
        // Spot-check hazards per the table.
        assert_eq!(s.rule(1).unwrap().hazard, Hazard::H2);
        assert_eq!(s.rule(6).unwrap().hazard, Hazard::H1);
        assert_eq!(s.rule(10).unwrap().hazard, Hazard::H1);
    }

    #[test]
    fn rule1_fires_on_decrease_during_rising_hyper() {
        let s = scs();
        // BG 200 rising, IOB falling and below the -0.5 U ceiling.
        let c = ctx(200.0, 5.0, -0.8, -0.002);
        let v = s.first_violation(&c, ControlAction::DecreaseInsulin);
        assert_eq!(v.map(|r| r.id), Some(1));
        assert_eq!(v.map(|r| r.hazard), Some(Hazard::H2));
        // Same context, increasing insulin is fine.
        assert!(s
            .first_violation(&c, ControlAction::IncreaseInsulin)
            .is_none());
    }

    #[test]
    fn rule6_fires_on_increase_during_falling_hypo() {
        let s = scs();
        let c = ctx(80.0, -4.0, 3.0, 0.002);
        let v = s.first_violation(&c, ControlAction::IncreaseInsulin);
        assert_eq!(v.map(|r| r.id), Some(6));
        assert_eq!(v.map(|r| r.hazard), Some(Hazard::H1));
    }

    #[test]
    fn rule9_fires_on_stop_during_hyper() {
        let s = scs();
        let c = ctx(250.0, 0.0, -0.8, 0.0);
        let v = s.first_violation(&c, ControlAction::StopInsulin);
        assert_eq!(v.map(|r| r.id), Some(9));
    }

    #[test]
    fn rule10_requires_stop_below_floor() {
        let s = scs();
        let c = ctx(60.0, 0.0, 0.5, 0.0);
        let v = s.first_violation(&c, ControlAction::KeepInsulin);
        assert_eq!(v.map(|r| r.id), Some(10));
        // Stopping satisfies the mandatory rule.
        assert!(s.first_violation(&c, ControlAction::StopInsulin).is_none());
    }

    #[test]
    fn rule11_and_12_guard_keep() {
        let s = scs();
        let c_hyper = ctx(220.0, 6.0, -0.8, -0.001);
        assert_eq!(
            s.first_violation(&c_hyper, ControlAction::KeepInsulin)
                .map(|r| r.id),
            Some(11)
        );
        let c_hypo = ctx(90.0, -5.0, 2.5, 0.001);
        assert_eq!(
            s.first_violation(&c_hypo, ControlAction::KeepInsulin)
                .map(|r| r.id),
            Some(12)
        );
    }

    #[test]
    fn safe_context_has_no_violation() {
        let s = scs();
        let c = ctx(115.0, 0.2, 0.1, 0.0);
        for action in ControlAction::ALL {
            assert!(
                s.first_violation(&c, action).is_none(),
                "{action} flagged in a safe context"
            );
        }
    }

    #[test]
    fn beta_tightening_changes_verdict() {
        let mut s = scs();
        let c = ctx(200.0, 5.0, 1.5, -0.002);
        // Default beta1 = -0.5: IOB 1.5 not below beta -> safe.
        assert!(s
            .first_violation(&c, ControlAction::DecreaseInsulin)
            .is_none());
        // Learned looser ceiling 2.0: now flagged.
        s.rule_mut(1).unwrap().beta = 2.0;
        assert_eq!(
            s.first_violation(&c, ControlAction::DecreaseInsulin)
                .map(|r| r.id),
            Some(1)
        );
    }

    #[test]
    fn stl_agrees_with_native_evaluation() {
        let s = scs();
        // Build a 1-sample trace per scenario and compare verdicts.
        let scenarios = vec![
            (
                ctx(200.0, 5.0, -0.8, -0.002),
                ControlAction::DecreaseInsulin,
            ),
            (
                ctx(200.0, 5.0, -0.8, -0.002),
                ControlAction::IncreaseInsulin,
            ),
            (ctx(200.0, 5.0, 0.2, -0.002), ControlAction::DecreaseInsulin),
            (ctx(80.0, -4.0, 3.0, 0.002), ControlAction::IncreaseInsulin),
            (ctx(60.0, 0.0, 0.5, 0.0), ControlAction::KeepInsulin),
            (ctx(60.0, 0.0, 0.5, 0.0), ControlAction::StopInsulin),
            (ctx(115.0, 0.0, 0.1, 0.0), ControlAction::KeepInsulin),
            (ctx(250.0, 0.0, 0.1, 0.0), ControlAction::StopInsulin),
        ];
        for (c, action) in scenarios {
            let mut trace = Trace::new(5.0);
            trace.push_signal("bg", vec![c.bg]);
            trace.push_signal("bg'", vec![c.dbg]);
            trace.push_signal("iob", vec![c.iob]);
            trace.push_signal("iob'", vec![c.diob]);
            trace.push_signal("u", vec![action.paper_index() as f64]);
            let native_violation = s.first_violation(&c, action).map(|r| r.id);
            let stl_violation = s
                .rules
                .iter()
                .find(|r| !r.to_stl(s.target, 0).sat(&trace, 0))
                .map(|r| r.id);
            assert_eq!(
                native_violation, stl_violation,
                "ctx {c:?} action {action}: native vs STL disagree"
            );
        }
    }

    #[test]
    fn stl_formulas_reference_expected_signals() {
        let s = scs();
        for f in s.to_stl(150) {
            let signals = f.signals();
            assert!(signals.contains(&"u".to_owned()) || !signals.is_empty());
        }
    }

    #[test]
    fn serde_roundtrip() {
        let s = scs();
        let j = serde_json::to_string(&s).unwrap();
        let back: Scs = serde_json::from_str(&j).unwrap();
        assert_eq!(s, back);
    }
}
