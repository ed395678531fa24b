//! The context-aware monitor synthesized from its STL formulas.
//!
//! The paper frames the contribution as "synthesize the generated STL
//! formulas as an online context-aware monitor". [`CawMonitor`] hard-
//! codes the Table I rules as native Rust checks for speed;
//! [`StlCawMonitor`] instead *executes the formulas themselves*: each
//! rule's `G`-body (an instantaneous past-time formula over
//! `bg, bg', iob, iob', u`) is compiled into an
//! [`OnlineMonitor`](aps_stl::online::OnlineMonitor) and stepped once
//! per control cycle. Equivalence of the two (on quantized CGM traces,
//! away from measure-zero robustness ties) is pinned by unit tests
//! here and by replay tests against live campaigns — which is what
//! makes the native monitor a faithful *synthesis* of the
//! specification rather than a reimplementation beside it.
//!
//! [`CawMonitor`]: crate::monitors::CawMonitor

use crate::context::ContextBuilder;
use crate::monitors::caw::SafeRegion;
use crate::monitors::{HazardMonitor, MonitorInput};
use crate::scs::Scs;
use aps_stl::online::OnlineMonitor;
use aps_stl::Formula;
use aps_types::{ControlAction, Hazard, UnitsPerHour};
use std::collections::HashMap;

/// A compiled SCS rule: the online evaluator for its `G`-body plus the
/// verdict metadata.
#[derive(Debug, Clone)]
struct CompiledRule {
    monitor: OnlineMonitor,
    hazard: Hazard,
    id: u8,
}

/// Context-aware monitor that runs the SCS *as STL* (see module docs).
#[derive(Debug, Clone)]
pub struct StlCawMonitor {
    name: String,
    rules: Vec<CompiledRule>,
    context: ContextBuilder,
    safe: SafeRegion,
    latched: Option<Hazard>,
    last_rule: Option<u8>,
}

impl StlCawMonitor {
    /// Compiles every rule of `scs` into an online STL evaluator.
    ///
    /// # Panics
    ///
    /// Panics if a rule's formula body is not past-time — impossible
    /// for formulas produced by [`UcaRule::to_stl`], whose bodies are
    /// instantaneous.
    ///
    /// [`UcaRule::to_stl`]: crate::scs::UcaRule::to_stl
    pub fn new(name: &str, scs: Scs, basal: UnitsPerHour) -> StlCawMonitor {
        let rules = scs
            .rules
            .iter()
            .map(|rule| {
                let formula = rule.to_stl(scs.target, 0);
                let body = match formula {
                    Formula::Globally(_, inner) => *inner,
                    other => other,
                };
                CompiledRule {
                    monitor: OnlineMonitor::new(body).expect("SCS rule bodies are past-time"),
                    hazard: rule.hazard,
                    id: rule.id,
                }
            })
            .collect();
        StlCawMonitor {
            name: name.to_owned(),
            rules,
            context: ContextBuilder::new(basal),
            safe: SafeRegion::default(),
            latched: None,
            last_rule: None,
        }
    }

    /// The Table I rule id behind the most recent alert.
    pub fn last_rule(&self) -> Option<u8> {
        self.last_rule
    }
}

impl HazardMonitor for StlCawMonitor {
    fn name(&self) -> &str {
        &self.name
    }

    fn check(&mut self, input: &MonitorInput) -> Option<Hazard> {
        let ctx = self.context.observe_bg(input.bg);
        let action = ControlAction::classify(input.commanded, input.previous_rate);
        let sample: HashMap<String, f64> = [
            ("bg".to_owned(), ctx.bg),
            ("bg'".to_owned(), ctx.dbg),
            ("iob".to_owned(), ctx.iob),
            ("iob'".to_owned(), ctx.diob),
            ("u".to_owned(), action.paper_index() as f64),
        ]
        .into_iter()
        .collect();

        // Step every compiled rule (keeping all their internal states
        // in lockstep); the first strictly violated one decides.
        let mut fired: Option<(u8, Hazard)> = None;
        for rule in &mut self.rules {
            let rob = rule.monitor.step(&sample);
            // Strictly negative robustness = definite violation; a tie
            // at 0 means a context conjunct sits exactly on its
            // boundary, where the native strict comparisons do not
            // match either.
            if rob < 0.0 && fired.is_none() {
                fired = Some((rule.id, rule.hazard));
            }
        }
        if let Some((id, hazard)) = fired {
            self.last_rule = Some(id);
            self.latched = Some(hazard);
            return Some(hazard);
        }
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
        for rule in &mut self.rules {
            rule.monitor.reset();
        }
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
    use crate::monitors::CawMonitor;
    use aps_types::{MgDl, Step};

    fn scs() -> Scs {
        Scs::with_default_thresholds(MgDl(110.0))
    }

    fn pair() -> (CawMonitor, StlCawMonitor) {
        (
            CawMonitor::new("native", scs(), UnitsPerHour(1.0)),
            StlCawMonitor::new("stl", scs(), UnitsPerHour(1.0)),
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
    fn flags_rule_10_like_the_native_monitor() {
        let (mut native, mut stl) = pair();
        // BG below the 70 floor while insulin keeps running.
        let inp = input(0, 60.0, 1.0, 1.0);
        assert_eq!(native.check(&inp), Some(Hazard::H1));
        assert_eq!(stl.check(&inp), Some(Hazard::H1));
        assert_eq!(stl.last_rule(), Some(10));
    }

    #[test]
    fn agrees_with_native_on_a_synthetic_stream() {
        let (mut native, mut stl) = pair();
        // A stream that wanders through hyper, hypo, and safe contexts
        // with varying commands (quantized BG like a real CGM).
        let bgs = [
            120.0, 150.0, 190.0, 220.0, 240.0, 230.0, 200.0, 160.0, 120.0, 90.0, 70.0, 62.0, 58.0,
            64.0, 72.0, 85.0, 100.0, 115.0, 125.0, 130.0,
        ];
        let rates = [
            1.0, 1.2, 1.6, 2.0, 2.0, 1.6, 1.2, 1.0, 0.8, 0.5, 0.5, 0.8, 0.0, 0.0, 0.3, 0.6, 0.9,
            1.0, 1.0, 1.0,
        ];
        let mut prev = 1.0;
        for (i, (&bg, &rate)) in bgs.iter().zip(&rates).enumerate() {
            let inp = input(i as u32, bg, rate, prev);
            let a = native.check(&inp);
            let b = stl.check(&inp);
            assert_eq!(a, b, "divergence at step {i} (bg {bg}, rate {rate})");
            native.observe_delivery(UnitsPerHour(rate));
            stl.observe_delivery(UnitsPerHour(rate));
            prev = rate;
        }
    }

    #[test]
    fn reset_clears_latch_and_formula_state() {
        let (_, mut stl) = pair();
        assert!(stl.check(&input(0, 60.0, 1.0, 1.0)).is_some());
        stl.reset();
        assert_eq!(stl.last_rule(), None);
        assert_eq!(stl.check(&input(0, 120.0, 1.0, 1.0)), None);
    }

    #[test]
    fn latch_persists_until_safe_region() {
        let (_, mut stl) = pair();
        // Fire rule 10, then feed a still-falling low BG with the pump
        // stopped: no fresh violation, but the latch must hold.
        assert_eq!(stl.check(&input(0, 60.0, 1.0, 1.0)), Some(Hazard::H1));
        stl.observe_delivery(UnitsPerHour(0.0));
        assert_eq!(stl.check(&input(1, 58.0, 0.0, 0.0)), Some(Hazard::H1));
        stl.observe_delivery(UnitsPerHour(0.0));
        // Recovered and rising above the floor: latch clears.
        assert_eq!(stl.check(&input(2, 101.0, 0.0, 0.0)), None);
    }
}
