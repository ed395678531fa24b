//! Run-time hazard-prediction monitors.
//!
//! All monitors — the proposed [`CawMonitor`] (CAWT/CAWOT), the
//! baselines ([`GuidelineMonitor`], [`MpcMonitor`], [`MlMonitor`],
//! [`LstmMonitor`]) and the streaming ground-truth
//! [`RiskIndexMonitor`] — implement [`HazardMonitor`]: one `check` per
//! control cycle over the controller's I/O interface, plus an
//! `observe_delivery` callback so the monitor's own context tracks what
//! actually reached the pump. A monitor that only observes cannot
//! perturb the loop, so any number of them can be stepped against a
//! single closed-loop pass (`aps_sim`'s sessions take a list of
//! monitors), which is how campaign tooling scores a whole zoo for the
//! price of one simulation.

pub(crate) mod caw;
mod guideline;
mod ml;
mod mpc;
mod risk;
mod stl_caw;

pub use caw::{CawMonitor, SafeRegion};
pub use guideline::{GuidelineConfig, GuidelineMonitor};
pub use ml::{LstmMonitor, MlFeatures, MlMonitor};
pub use mpc::{MpcConfig, MpcMonitor};
pub use risk::RiskIndexMonitor;
pub use stl_caw::StlCawMonitor;

use aps_types::{Hazard, MgDl, Step, UnitsPerHour};

/// What the monitor observes each control cycle (the controller's
/// input/output interface only).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorInput {
    /// Control-cycle index.
    pub step: Step,
    /// CGM reading (assumed fault-free per the paper's threat model).
    pub bg: MgDl,
    /// Rate the controller just commanded.
    pub commanded: UnitsPerHour,
    /// Rate commanded on the previous cycle (for action
    /// classification).
    pub previous_rate: UnitsPerHour,
}

/// A run-time hazard predictor wrapping an APS controller.
pub trait HazardMonitor: Send {
    /// Monitor identifier (e.g. `"cawt"`).
    fn name(&self) -> &str;

    /// Checks the current cycle; returns the predicted hazard if the
    /// commanded action is unsafe in the inferred context.
    fn check(&mut self, input: &MonitorInput) -> Option<Hazard>;

    /// Informs the monitor what was actually delivered this cycle
    /// (post-mitigation), so its internal context stays truthful.
    fn observe_delivery(&mut self, delivered: UnitsPerHour);

    /// Resets internal state for a fresh simulation.
    fn reset(&mut self);

    /// A copy of this monitor in its current state, which then checks
    /// exactly as this one would from here on. Campaign groups fork a
    /// job's run off the loop it shares with other jobs where its fault
    /// first changes that loop, so every monitor a campaign runs is
    /// forked there. State that never changes after construction, such
    /// as a trained model, may be shared with the copy.
    fn fork(&self) -> Box<dyn HazardMonitor>;
}

/// A monitor that never alerts (the "no monitor" baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullMonitor;

impl HazardMonitor for NullMonitor {
    fn name(&self) -> &str {
        "none"
    }

    fn check(&mut self, _input: &MonitorInput) -> Option<Hazard> {
        None
    }

    fn observe_delivery(&mut self, _delivered: UnitsPerHour) {}

    fn reset(&mut self) {}

    fn fork(&self) -> Box<dyn HazardMonitor> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_monitor_never_alerts() {
        let mut m = NullMonitor;
        assert_eq!(m.name(), "none");
        for step in 0..10u32 {
            let verdict = m.check(&MonitorInput {
                step: Step(step),
                bg: MgDl(40.0),
                commanded: UnitsPerHour(10.0),
                previous_rate: UnitsPerHour(0.0),
            });
            assert_eq!(verdict, None);
        }
    }
}
