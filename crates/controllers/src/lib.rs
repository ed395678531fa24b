//! APS controllers: the decision logic the safety monitor wraps.
//!
//! Two controllers matching the paper's two platforms:
//!
//! * [`oref0::Oref0Controller`] — a Rust port of the OpenAPS
//!   `determine-basal` decision structure (eventual-BG prediction from
//!   IOB and trend, low-glucose suspend, temp-basal corrections,
//!   max-IOB / max-basal safety caps).
//! * [`basal_bolus::BasalBolusController`] — the hospital basal–bolus
//!   protocol (scheduled basal plus correction dosing above target).
//!
//! Every controller implements [`Controller`], which includes the
//! *fault-injection surface*: named internal state variables that the
//! FI engine can read and override, mirroring the paper's source-level
//! fault injector perturbing "inputs, outputs, and the internal state
//! variables of the APS control software".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod basal_bolus;
pub mod oref0;

use aps_types::{MgDl, Step, Units, UnitsPerHour};

/// Description of one injectable controller state variable.
#[derive(Debug, Clone, PartialEq)]
pub struct StateVar {
    /// Variable name (stable identifier used by FI scenarios).
    pub name: &'static str,
    /// Smallest value the variable can legitimately take.
    pub min: f64,
    /// Largest value the variable can legitimately take.
    pub max: f64,
}

/// A closed-loop APS controller.
///
/// The harness calls [`decide`](Controller::decide) once per 5-minute
/// control cycle with the current CGM reading; the controller returns
/// the insulin rate to command.
pub trait Controller: Send {
    /// Controller identifier (e.g. `"oref0"`).
    fn name(&self) -> &str;

    /// Computes the rate command for this cycle.
    fn decide(&mut self, step: Step, bg: MgDl) -> UnitsPerHour;

    /// The controller's current insulin-on-board estimate.
    fn iob(&self) -> Units;

    /// The rate commanded on the previous cycle.
    fn previous_rate(&self) -> UnitsPerHour;

    /// The glucose target the controller regulates toward (the SCS
    /// rules' `BGT`).
    fn target_bg(&self) -> MgDl;

    /// The controller's configured basal rate.
    fn basal_rate(&self) -> UnitsPerHour;

    /// Returns to the initial state for a fresh simulation.
    fn reset(&mut self);

    /// A copy of this controller in its current state, which then
    /// decides exactly as this one would from here on. Campaign groups
    /// fork a job's run off the loop it shares with other jobs, mid
    /// cycle, where its fault first changes that loop.
    fn fork(&self) -> Box<dyn Controller>;

    /// Informs the controller what was *actually* delivered this cycle
    /// (post-mitigation, post-pump); controllers track IOB from this.
    fn observe_delivery(&mut self, delivered: UnitsPerHour);

    /// The injectable state variables and their legitimate ranges.
    fn state_vars(&self) -> Vec<StateVar>;

    /// Reads an injectable variable (last cycle's value).
    fn get_state(&self, var: &str) -> Option<f64>;

    /// Overrides an injectable variable for the *next* decision; the
    /// override is consumed by one `decide` call. Returns `false` for
    /// unknown names.
    fn set_state(&mut self, var: &str, value: f64) -> bool;

    /// Announces a meal of `carbs_g` grams about to be eaten, so the
    /// controller can dose a prandial bolus.
    ///
    /// The default is a no-op: a purely reactive controller (like the
    /// oref0 port here) handles meals through its correction logic.
    /// The basal-bolus protocol overrides this with carb-ratio dosing.
    fn announce_meal(&mut self, carbs_g: f64) {
        let _ = carbs_g;
    }
}
