//! Patient glucose simulators for closed-loop APS evaluation.
//!
//! The paper evaluates on two simulation platforms:
//!
//! * **Glucosym** — patient models identified from 10 real adults with
//!   Type-1 diabetes, implementing the Kanderian *glucose–insulin
//!   metabolism* (GIM) / Bergman minimal-model equations. Reproduced by
//!   [`bergman::BergmanPatient`].
//! * **UVA-Padova T1DS2013** — the FDA-accepted simulator built on the
//!   Dalla Man meal-simulation model. Reproduced in simplified form by
//!   [`dalla_man::DallaManPatient`].
//!
//! Both implement the common [`PatientSim`] trait, are integrated with
//! the fixed-step RK4 integrator in [`ode`], and come with deterministic
//! cohorts of ten virtual patients each ([`patients`]). CGM sampling and
//! pump actuation models live in [`sensor`] and [`pump`].
//!
//! # Example
//!
//! ```
//! use aps_glucose::{patients, PatientSim};
//! use aps_types::{MgDl, UnitsPerHour};
//!
//! let mut patient = patients::glucosym_cohort().remove(0);
//! patient.reset(MgDl(140.0));
//! let basal = patient.equilibrium_basal(MgDl(120.0));
//! for _ in 0..12 {
//!     patient.step(basal, 5.0); // one hour of closed-loop time
//! }
//! assert!(patient.bg().value() > 60.0 && patient.bg().value() < 250.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bergman;
pub mod dalla_man;
pub mod iob;
pub mod ode;
pub mod patients;
pub mod pump;
pub mod sensor;
pub mod sensor_error;

use aps_types::{MgDl, UnitsPerHour};

/// A virtual Type-1 diabetes patient that the closed loop can drive.
///
/// One `step` advances physiological time by `minutes` under a constant
/// insulin infusion rate; the APS control loop calls it once per
/// 5-minute control cycle.
pub trait PatientSim: Send {
    /// Patient identifier (e.g. `"glucosym/patientA"`).
    fn name(&self) -> &str;

    /// Current blood glucose as observable by a CGM.
    fn bg(&self) -> MgDl;

    /// Advances the model by `minutes` with insulin infused at `rate`.
    fn step(&mut self, rate: UnitsPerHour, minutes: f64);

    /// Re-initializes the model at the given starting glucose, with
    /// insulin pools at their basal steady state.
    fn reset(&mut self, bg0: MgDl);

    /// Adds a meal of `carbs_g` grams of carbohydrate to the gut
    /// absorption model (no-op for models without a meal subsystem).
    fn ingest(&mut self, carbs_g: f64);

    /// Starts an exercise bout: for the next `duration_min` minutes,
    /// insulin-independent glucose uptake is elevated in proportion to
    /// `intensity` (0 = rest, 1 = brisk aerobic exercise). Overlapping
    /// bouts replace any bout in progress. No-op for models without an
    /// exercise subsystem.
    fn exert(&mut self, intensity: f64, duration_min: f64) {
        let _ = (intensity, duration_min);
    }

    /// The constant infusion rate that holds the patient at `target`
    /// in steady state (found numerically; used to initialize
    /// controllers and to parameterize the paper's MPC baseline).
    fn equilibrium_basal(&self, target: MgDl) -> UnitsPerHour;

    /// Whether every internal state component is finite.
    ///
    /// Checking `bg()` alone is not enough: physiological floors and
    /// clamps are `f64::max`-style, and `f64::max(NaN, floor)` returns
    /// the floor — a diverged model can report a plausible glucose
    /// while the rest of its state is poisoned. The simulation harness
    /// calls this after every step and converts `false` into a typed
    /// error instead of silently continuing. Models that cannot
    /// diverge (pure table lookups, mocks) may keep the default.
    fn state_is_finite(&self) -> bool {
        true
    }
}

/// Boxed patient, the form the simulation harness passes around.
pub type BoxedPatient = Box<dyn PatientSim>;

/// A lane-batched cohort of `LANES` virtual patients of one model,
/// advanced in lockstep through a single instruction stream.
///
/// Implementations keep state as structure-of-arrays (`[f64; LANES]`
/// per compartment) and step all lanes with one
/// [`ode::BatchedRk4Scratch`] pass. Lanes are arithmetically
/// independent — no horizontal reductions — so each lane's trajectory
/// is bit-identical to stepping the corresponding scalar [`PatientSim`]
/// alone. Per-lane mutators (`ingest`, `exert`) mirror the scalar trait
/// so the closed-loop harness can drive individual lanes between
/// lockstep physics steps.
///
/// A lane that diverges (NaN/±∞) keeps free-running — non-finite values
/// are absorbing under the RK4 update, so divergence is detected with
/// [`lane_is_finite`](BatchedPatientSim::lane_is_finite) after each
/// step without coupling lanes.
pub trait BatchedPatientSim<const LANES: usize>: Send {
    /// Current blood glucose of one lane, as observable by a CGM.
    fn bg(&self, lane: usize) -> MgDl;

    /// Advances every lane by `minutes`, lane `l` infusing at
    /// `rates[l]`.
    fn step_all(&mut self, rates: &[UnitsPerHour; LANES], minutes: f64);

    /// Adds a meal to one lane's gut absorption model.
    fn ingest(&mut self, lane: usize, carbs_g: f64);

    /// Starts an exercise bout on one lane (see [`PatientSim::exert`]).
    fn exert(&mut self, lane: usize, intensity: f64, duration_min: f64);

    /// Whether every state component of one lane is finite (see
    /// [`PatientSim::state_is_finite`] for why `bg` alone is not
    /// enough).
    fn lane_is_finite(&self, lane: usize) -> bool;
}

/// A [`BatchedPatientSim`] whose lanes can be copied into one another,
/// so that one lockstep run can split into two mid-run.
///
/// A lane's state is its ODE state and its exercise bout. It leaves out
/// the parameters, so copy it only between lanes loaded with the same
/// patient. The bank's clock is shared by every lane.
pub trait SplitLanes<const LANES: usize>: BatchedPatientSim<LANES> + Clone {
    /// The state of one lane.
    type Lane: Copy;

    /// The state of `lane`.
    fn lane(&self, lane: usize) -> Self::Lane;

    /// Overwrites the state of `lane` with `state`.
    fn set_lane(&mut self, lane: usize, state: Self::Lane);
}

/// The state of one lane of a [`SplitLanes`] bank of an `N`-compartment model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneSnapshot<const N: usize> {
    state: [f64; N],
    exercise_minutes_left: f64,
    exercise_intensity: f64,
}
