//! Bergman minimal model / Kanderian GIM patient — the Glucosym
//! substitute.
//!
//! Glucosym implements the glucose–insulin metabolism (GIM) model that
//! Kanderian et al. identified from data of ten adults with Type-1
//! diabetes. The equations (with the paper's Eq. 6 as the glucose
//! subsystem) are:
//!
//! ```text
//! dIsc/dt  = ID(t)/(τ₁·CI) − Isc/τ₁          subcutaneous insulin (µU/mL)
//! dIp/dt   = (Isc − Ip)/τ₂                   plasma insulin (µU/mL)
//! dIeff/dt = −p₂·Ieff + p₂·SI·Ip             insulin effect (1/min)
//! dBG/dt   = −(GEZI + Ieff)·BG + EGP + RA(t) glucose (mg/dL)
//! ```
//!
//! `ID(t)` is the insulin delivery rate in µU/min, `RA(t)` the meal
//! glucose appearance (mg/dL/min, two-compartment gut model here).
//!
//! At steady state `BG_ss = EGP / (GEZI + SI·ID/CI)`, which gives each
//! virtual patient a closed-form equilibrium basal rate — handy both
//! for controller initialization and for validating the integrator.

use crate::ode::{BatchedRk4Scratch, Rk4Scratch};
use crate::{BatchedPatientSim, LaneSnapshot, PatientSim, SplitLanes};
use aps_types::{MgDl, UnitsPerHour};
use serde::{Deserialize, Serialize};

/// Identified parameters of one GIM/Bergman patient.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BergmanParams {
    /// Patient identifier.
    pub name: String,
    /// Glucose effectiveness at zero insulin (1/min).
    pub gezi: f64,
    /// Endogenous glucose production (mg/dL/min).
    pub egp: f64,
    /// Insulin sensitivity (1/min per µU/mL).
    pub si: f64,
    /// Insulin-effect time constant p₂ (1/min).
    pub p2: f64,
    /// Subcutaneous insulin absorption time constant τ₁ (min).
    pub tau1: f64,
    /// Plasma insulin time constant τ₂ (min).
    pub tau2: f64,
    /// Insulin clearance (mL/min).
    pub ci: f64,
    /// Carb-to-glucose appearance gain (mg/dL per gram of carbs).
    pub carb_gain: f64,
    /// Gut absorption time constant for meals (min).
    pub tau_meal: f64,
}

impl BergmanParams {
    /// The Kanderian population-average adult, used as the cohort
    /// template and by the MPC baseline monitor.
    pub fn population_average() -> BergmanParams {
        BergmanParams {
            name: "glucosym/average".to_owned(),
            gezi: 2.2e-3,
            egp: 1.33,
            si: 7.0e-4,
            p2: 0.011,
            tau1: 55.0,
            tau2: 50.0,
            ci: 1200.0,
            carb_gain: 3.5,
            tau_meal: 40.0,
        }
    }

    /// Closed-form steady-state glucose under a constant infusion rate.
    pub fn steady_state_bg(&self, rate: UnitsPerHour) -> MgDl {
        let id_uu_per_min = rate.value() * 1e6 / 60.0; // U/h -> µU/min
        let ip = id_uu_per_min / self.ci; // µU/mL at steady state
        let ieff = self.si * ip;
        MgDl(self.egp / (self.gezi + ieff))
    }

    /// Closed-form equilibrium basal rate for a steady-state target.
    ///
    /// Inverts `BG_ss = EGP/(GEZI + SI·ID/CI)`; clamped at zero when the
    /// target exceeds the zero-insulin equilibrium `EGP/GEZI`.
    pub fn equilibrium_basal(&self, target: MgDl) -> UnitsPerHour {
        let needed_ieff = self.egp / target.value() - self.gezi;
        if needed_ieff <= 0.0 {
            return UnitsPerHour(0.0);
        }
        let ip = needed_ieff / self.si;
        let id_uu_per_min = ip * self.ci;
        UnitsPerHour(id_uu_per_min * 60.0 / 1e6)
    }
}

/// State indices in the ODE vector.
const ISC: usize = 0;
const IP: usize = 1;
const IEFF: usize = 2;
const BG: usize = 3;
const QGUT1: usize = 4;
const QGUT2: usize = 5;
const NSTATE: usize = 6;

/// Multiplier applied to GEZI per unit of exercise intensity: brisk
/// exercise (intensity 1) raises insulin-independent glucose uptake to
/// 1 + this factor times its resting value, the dominant acute effect
/// of aerobic exercise in T1D.
pub const EXERCISE_GEZI_GAIN: f64 = 4.0;

/// A simulated GIM/Bergman patient.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BergmanPatient {
    params: BergmanParams,
    state: [f64; NSTATE],
    t_minutes: f64,
    #[serde(default)]
    exercise_minutes_left: f64,
    #[serde(default)]
    exercise_intensity: f64,
}

impl BergmanPatient {
    /// Creates a patient initialized at 120 mg/dL basal equilibrium.
    pub fn new(params: BergmanParams) -> BergmanPatient {
        let mut p = BergmanPatient {
            params,
            state: [0.0; NSTATE],
            t_minutes: 0.0,
            exercise_minutes_left: 0.0,
            exercise_intensity: 0.0,
        };
        p.reset(MgDl(120.0));
        p
    }

    /// The patient's parameters.
    pub fn params(&self) -> &BergmanParams {
        &self.params
    }

    /// Elapsed physiological time in minutes.
    pub fn elapsed_minutes(&self) -> f64 {
        self.t_minutes
    }

    /// Current insulin-effect state (1/min) — exposed for tests and for
    /// the MPC baseline's state estimate.
    pub fn insulin_effect(&self) -> f64 {
        self.state[IEFF]
    }

    /// Current plasma insulin (µU/mL).
    pub fn plasma_insulin(&self) -> f64 {
        self.state[IP]
    }
}

impl PatientSim for BergmanPatient {
    fn name(&self) -> &str {
        &self.params.name
    }

    fn bg(&self) -> MgDl {
        MgDl(self.state[BG]).clamp_physiological()
    }

    fn step(&mut self, rate: UnitsPerHour, minutes: f64) {
        let rate = rate.max_zero();
        let id_uu_per_min = rate.value() * 1e6 / 60.0;
        // Borrow (not clone) the parameters: the closure only reads
        // them, and `state` is a disjoint field.
        let p = &self.params;
        // Exercise elevates insulin-independent uptake for the active
        // part of the step (5-minute resolution).
        let active = self.exercise_minutes_left.min(minutes);
        let intensity = if active > 0.0 {
            self.exercise_intensity
        } else {
            0.0
        };
        let gezi = p.gezi * (1.0 + EXERCISE_GEZI_GAIN * intensity * (active / minutes));
        self.exercise_minutes_left = (self.exercise_minutes_left - minutes).max(0.0);
        let dynamics = move |_t: f64, x: &[f64], d: &mut [f64]| {
            let ra = p.carb_gain * x[QGUT2] / p.tau_meal;
            d[ISC] = id_uu_per_min / (p.tau1 * p.ci) - x[ISC] / p.tau1;
            d[IP] = (x[ISC] - x[IP]) / p.tau2;
            d[IEFF] = -p.p2 * x[IEFF] + p.p2 * p.si * x[IP];
            d[BG] = -(gezi + x[IEFF]) * x[BG] + p.egp + ra;
            d[QGUT1] = -x[QGUT1] / p.tau_meal;
            d[QGUT2] = (x[QGUT1] - x[QGUT2]) / p.tau_meal;
        };
        // Stack-only scratch: the simulation hot loop performs no heap
        // allocation per step.
        let finite = Rk4Scratch::<NSTATE>::new()
            .try_integrate(&dynamics, self.t_minutes, &mut self.state, minutes, 1.0)
            .is_ok();
        if finite {
            // Glucose cannot go negative; extreme insulin faults can
            // push the linear model below zero where the physiology
            // saturates. Applied only to finite states: f64::max(NaN,
            // floor) is the floor, which would mask divergence from
            // `state_is_finite`.
            self.state[BG] = self.state[BG].max(10.0);
        }
        self.t_minutes += minutes;
    }

    fn reset(&mut self, bg0: MgDl) {
        // Insulin pools at the steady state of the 120 mg/dL basal rate;
        // glucose at the requested starting point.
        let basal = self.params.equilibrium_basal(MgDl(120.0));
        let id_uu_per_min = basal.value() * 1e6 / 60.0;
        let ip = id_uu_per_min / self.params.ci;
        self.state = [0.0; NSTATE];
        self.state[ISC] = ip;
        self.state[IP] = ip;
        self.state[IEFF] = self.params.si * ip;
        self.state[BG] = bg0.value();
        self.t_minutes = 0.0;
        self.exercise_minutes_left = 0.0;
        self.exercise_intensity = 0.0;
    }

    fn ingest(&mut self, carbs_g: f64) {
        self.state[QGUT1] += carbs_g.max(0.0);
    }

    fn exert(&mut self, intensity: f64, duration_min: f64) {
        self.exercise_intensity = intensity.clamp(0.0, 1.0);
        self.exercise_minutes_left = duration_min.max(0.0);
    }

    fn equilibrium_basal(&self, target: MgDl) -> UnitsPerHour {
        self.params.equilibrium_basal(target)
    }

    fn state_is_finite(&self) -> bool {
        self.state.iter().all(|v| v.is_finite())
    }
}

/// A lane-batched cohort of `LANES` Bergman patients stepped in
/// lockstep.
///
/// State and parameters are structure-of-arrays: each ODE compartment
/// and each identified parameter is one contiguous `[f64; LANES]` row,
/// so the RK4 stage math and the dynamics below are plain per-lane
/// loops the compiler autovectorizes.
///
/// Every lane computes the same values as [`BergmanPatient::step`], bit
/// for bit, but terms that are fixed for a whole step are computed once
/// per step instead of at every derivative evaluation (20 per 5-minute
/// step: 4 RK4 stages × 5 one-minute substeps):
///
/// * the insulin inflow `ID/(τ₁·CI)`, the same expression the scalar
///   derivative evaluates every time;
/// * when every lane's gut is empty (both gut compartments `+0.0`),
///   the meal appearance `RA` and both gut derivatives. An empty gut
///   stays `+0.0` through every RK4 stage — its derivatives are `±0.0`,
///   and `+0.0 + c·(±0.0)` is `+0.0` for finite `c` — so the values at
///   step start are the exact values of every evaluation.
///
/// Lanes are loaded from already-constructed scalar patients with
/// [`load_lane`](BatchedBergman::load_lane); all lanes must be loaded
/// (padding lanes may duplicate a real one) before stepping.
#[derive(Debug, Clone)]
pub struct BatchedBergman<const LANES: usize> {
    params: LaneParams<LANES>,
    state: [[f64; LANES]; NSTATE],
    /// Shared clock: lanes advance in lockstep, so one `t` serves all.
    t_minutes: f64,
    exercise_minutes_left: [f64; LANES],
    exercise_intensity: [f64; LANES],
    /// Reused across [`step_all`](BatchedPatientSim::step_all) calls so
    /// the per-cycle step does not re-zero ~2 KB of stage buffers.
    scratch: BatchedRk4Scratch<NSTATE, LANES>,
}

/// The identified parameters of a [`BatchedBergman`], one row per
/// parameter.
#[derive(Debug, Clone)]
struct LaneParams<const LANES: usize> {
    gezi: [f64; LANES],
    egp: [f64; LANES],
    si: [f64; LANES],
    p2: [f64; LANES],
    tau1: [f64; LANES],
    tau2: [f64; LANES],
    ci: [f64; LANES],
    carb_gain: [f64; LANES],
    tau_meal: [f64; LANES],
}

/// The batched GIM dynamics over one step, with the step's invariant
/// terms computed once.
struct StepDynamics<'a, const LANES: usize> {
    params: &'a LaneParams<LANES>,
    /// GEZI with the step's exercise factor applied.
    gezi: [f64; LANES],
    /// Insulin inflow `ID/(τ₁·CI)` (µU/mL/min).
    uin: [f64; LANES],
    /// Meal appearance `RA` and the two gut derivatives at step start.
    ra: [f64; LANES],
    dq1: [f64; LANES],
    dq2: [f64; LANES],
}

impl<const LANES: usize> StepDynamics<'_, LANES> {
    /// The derivative of `x`. With `EMPTY_GUT` every lane's gut is
    /// empty for the whole step, so its terms are the step-start ones.
    fn derivative<const EMPTY_GUT: bool>(
        &self,
        x: &[[f64; LANES]; NSTATE],
        d: &mut [[f64; LANES]; NSTATE],
    ) {
        let p = self.params;
        for l in 0..LANES {
            let ra = if EMPTY_GUT {
                self.ra[l]
            } else {
                p.carb_gain[l] * x[QGUT2][l] / p.tau_meal[l]
            };
            d[ISC][l] = self.uin[l] - x[ISC][l] / p.tau1[l];
            d[IP][l] = (x[ISC][l] - x[IP][l]) / p.tau2[l];
            d[IEFF][l] = -p.p2[l] * x[IEFF][l] + p.p2[l] * p.si[l] * x[IP][l];
            d[BG][l] = -(self.gezi[l] + x[IEFF][l]) * x[BG][l] + p.egp[l] + ra;
            if EMPTY_GUT {
                d[QGUT1][l] = self.dq1[l];
                d[QGUT2][l] = self.dq2[l];
            } else {
                d[QGUT1][l] = -x[QGUT1][l] / p.tau_meal[l];
                d[QGUT2][l] = (x[QGUT1][l] - x[QGUT2][l]) / p.tau_meal[l];
            }
        }
    }
}

impl<const LANES: usize> BatchedBergman<LANES> {
    /// Empty batch (all lanes zeroed); load every lane before stepping.
    pub const fn new() -> BatchedBergman<LANES> {
        BatchedBergman {
            params: LaneParams {
                gezi: [0.0; LANES],
                egp: [0.0; LANES],
                si: [0.0; LANES],
                p2: [0.0; LANES],
                tau1: [0.0; LANES],
                tau2: [0.0; LANES],
                ci: [0.0; LANES],
                carb_gain: [0.0; LANES],
                tau_meal: [0.0; LANES],
            },
            state: [[0.0; LANES]; NSTATE],
            t_minutes: 0.0,
            exercise_minutes_left: [0.0; LANES],
            exercise_intensity: [0.0; LANES],
            scratch: BatchedRk4Scratch::new(),
        }
    }

    /// Copies one scalar patient's parameters and full state into a
    /// lane. Lanes advance on a shared clock, so every loaded patient
    /// must be at the same elapsed time (freshly `reset` patients are).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= LANES` or the patient's clock disagrees with
    /// lanes already loaded.
    pub fn load_lane(&mut self, lane: usize, patient: &BergmanPatient) {
        assert!(lane < LANES, "lane {lane} out of range (LANES = {LANES})");
        assert!(
            self.t_minutes == patient.t_minutes || self.t_minutes == 0.0,
            "lockstep lanes must share one clock"
        );
        let (p, rows) = (&patient.params, &mut self.params);
        rows.gezi[lane] = p.gezi;
        rows.egp[lane] = p.egp;
        rows.si[lane] = p.si;
        rows.p2[lane] = p.p2;
        rows.tau1[lane] = p.tau1;
        rows.tau2[lane] = p.tau2;
        rows.ci[lane] = p.ci;
        rows.carb_gain[lane] = p.carb_gain;
        rows.tau_meal[lane] = p.tau_meal;
        for d in 0..NSTATE {
            self.state[d][lane] = patient.state[d];
        }
        self.t_minutes = patient.t_minutes;
        self.exercise_minutes_left[lane] = patient.exercise_minutes_left;
        self.exercise_intensity[lane] = patient.exercise_intensity;
    }
}

impl<const LANES: usize> Default for BatchedBergman<LANES> {
    fn default() -> BatchedBergman<LANES> {
        BatchedBergman::new()
    }
}

impl<const LANES: usize> SplitLanes<LANES> for BatchedBergman<LANES> {
    type Lane = LaneSnapshot<NSTATE>;

    fn lane(&self, lane: usize) -> LaneSnapshot<NSTATE> {
        LaneSnapshot {
            state: std::array::from_fn(|d| self.state[d][lane]),
            exercise_minutes_left: self.exercise_minutes_left[lane],
            exercise_intensity: self.exercise_intensity[lane],
        }
    }

    fn set_lane(&mut self, lane: usize, state: LaneSnapshot<NSTATE>) {
        for (row, value) in self.state.iter_mut().zip(state.state) {
            row[lane] = value;
        }
        self.exercise_minutes_left[lane] = state.exercise_minutes_left;
        self.exercise_intensity[lane] = state.exercise_intensity;
    }
}

impl<const LANES: usize> BatchedPatientSim<LANES> for BatchedBergman<LANES> {
    fn bg(&self, lane: usize) -> MgDl {
        MgDl(self.state[BG][lane]).clamp_physiological()
    }

    fn step_all(&mut self, rates: &[UnitsPerHour; LANES], minutes: f64) {
        let p = &self.params;
        let x = &self.state;
        // Per-lane step invariants: the scalar `step` preamble, the
        // insulin inflow, and the gut terms at step start.
        let mut dynamics = StepDynamics {
            params: p,
            gezi: [0.0; LANES],
            uin: [0.0; LANES],
            ra: [0.0; LANES],
            dq1: [0.0; LANES],
            dq2: [0.0; LANES],
        };
        for l in 0..LANES {
            let rate = rates[l].max_zero();
            let id_uu_per_min = rate.value() * 1e6 / 60.0;
            dynamics.uin[l] = id_uu_per_min / (p.tau1[l] * p.ci[l]);
            let active = self.exercise_minutes_left[l].min(minutes);
            let intensity = if active > 0.0 {
                self.exercise_intensity[l]
            } else {
                0.0
            };
            dynamics.gezi[l] =
                p.gezi[l] * (1.0 + EXERCISE_GEZI_GAIN * intensity * (active / minutes));
            self.exercise_minutes_left[l] = (self.exercise_minutes_left[l] - minutes).max(0.0);
            dynamics.ra[l] = p.carb_gain[l] * x[QGUT2][l] / p.tau_meal[l];
            dynamics.dq1[l] = -x[QGUT1][l] / p.tau_meal[l];
            dynamics.dq2[l] = (x[QGUT1][l] - x[QGUT2][l]) / p.tau_meal[l];
        }
        // Bit-zero, not `== 0.0`: a `-0.0` gut turns `+0.0` at the
        // first stage, so its derivatives change within the step.
        let empty_gut =
            (0..LANES).all(|l| x[QGUT1][l].to_bits() == 0 && x[QGUT2][l].to_bits() == 0);
        // Free-running lanes: a diverged lane churns NaN harmlessly
        // (non-finite is absorbing under the RK4 update) instead of
        // early-aborting the whole batch the way the scalar
        // `try_integrate` does; `lane_is_finite` reports it afterward.
        let (t, state) = (self.t_minutes, &mut self.state);
        if empty_gut {
            let f = |_t: f64, x: &_, d: &mut _| dynamics.derivative::<true>(x, d);
            self.scratch.integrate(&f, t, state, minutes, 1.0);
        } else {
            let f = |_t: f64, x: &_, d: &mut _| dynamics.derivative::<false>(x, d);
            self.scratch.integrate(&f, t, state, minutes, 1.0);
        }
        for l in 0..LANES {
            // Same floor as the scalar path, applied only to finite
            // lanes: f64::max(NaN, floor) is the floor, which would
            // mask divergence from `lane_is_finite`.
            let finite = self.state.iter().all(|row| row[l].is_finite());
            if finite {
                self.state[BG][l] = self.state[BG][l].max(10.0);
            }
        }
        self.t_minutes += minutes;
    }

    fn ingest(&mut self, lane: usize, carbs_g: f64) {
        self.state[QGUT1][lane] += carbs_g.max(0.0);
    }

    fn exert(&mut self, lane: usize, intensity: f64, duration_min: f64) {
        // `clamp` would mask a non-finite intensity into the exercise
        // state; scenario specs only carry finite values, assert so.
        debug_assert!(intensity.is_finite() && duration_min.is_finite());
        self.exercise_intensity[lane] = intensity.clamp(0.0, 1.0);
        self.exercise_minutes_left[lane] = duration_min.max(0.0);
    }

    fn lane_is_finite(&self, lane: usize) -> bool {
        self.state.iter().all(|row| row[lane].is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn avg_patient() -> BergmanPatient {
        BergmanPatient::new(BergmanParams::population_average())
    }

    #[test]
    fn steady_state_formula_consistency() {
        let p = BergmanParams::population_average();
        let basal = p.equilibrium_basal(MgDl(120.0));
        assert!(
            basal.value() > 0.1 && basal.value() < 5.0,
            "basal = {basal:?}"
        );
        let ss = p.steady_state_bg(basal);
        assert!((ss.value() - 120.0).abs() < 1e-9);
    }

    #[test]
    fn holds_equilibrium_under_basal() {
        let mut pt = avg_patient();
        pt.reset(MgDl(120.0));
        let basal = pt.equilibrium_basal(MgDl(120.0));
        for _ in 0..144 {
            pt.step(basal, 5.0); // 12 hours
        }
        assert!(
            (pt.bg().value() - 120.0).abs() < 2.0,
            "drifted to {} mg/dL",
            pt.bg().value()
        );
    }

    #[test]
    fn no_insulin_raises_bg_toward_zero_insulin_equilibrium() {
        let mut pt = avg_patient();
        pt.reset(MgDl(120.0));
        for _ in 0..144 {
            pt.step(UnitsPerHour(0.0), 5.0);
        }
        let p = pt.params().clone();
        let max_bg = p.egp / p.gezi;
        assert!(
            pt.bg().value() > 250.0,
            "BG only reached {}",
            pt.bg().value()
        );
        assert!(pt.bg().value() <= max_bg + 1.0);
    }

    #[test]
    fn insulin_overdose_causes_hypoglycemia() {
        let mut pt = avg_patient();
        pt.reset(MgDl(120.0));
        let basal = pt.equilibrium_basal(MgDl(120.0));
        for _ in 0..72 {
            pt.step(basal * 8.0, 5.0); // 6 hours of 8x basal
        }
        assert!(pt.bg().value() < 70.0, "BG still {}", pt.bg().value());
    }

    #[test]
    fn exercise_lowers_bg() {
        let basal = avg_patient().equilibrium_basal(MgDl(120.0));
        let run = |intensity: f64| -> f64 {
            let mut pt = avg_patient();
            pt.reset(MgDl(120.0));
            pt.exert(intensity, 60.0);
            for _ in 0..12 {
                pt.step(basal, 5.0);
            }
            pt.bg().value()
        };
        let rest = run(0.0);
        let moderate = run(0.5);
        let brisk = run(1.0);
        assert!(
            moderate < rest - 3.0,
            "moderate exercise barely moved BG ({rest} -> {moderate})"
        );
        assert!(brisk < moderate, "effect not monotone in intensity");
    }

    #[test]
    fn exercise_effect_expires() {
        let basal = avg_patient().equilibrium_basal(MgDl(120.0));
        let mut pt = avg_patient();
        pt.reset(MgDl(120.0));
        pt.exert(1.0, 30.0);
        for _ in 0..6 {
            pt.step(basal, 5.0); // the bout
        }
        let after_bout = pt.bg().value();
        for _ in 0..72 {
            pt.step(basal, 5.0); // 6 h of recovery
        }
        // Glucose recovers toward the basal equilibrium once the bout ends.
        assert!(pt.bg().value() > after_bout, "no recovery after exercise");
    }

    #[test]
    fn reset_cancels_exercise() {
        let mut pt = avg_patient();
        pt.exert(1.0, 120.0);
        pt.reset(MgDl(120.0));
        let basal = pt.equilibrium_basal(MgDl(120.0));
        for _ in 0..12 {
            pt.step(basal, 5.0);
        }
        assert!(
            (pt.bg().value() - 120.0).abs() < 2.0,
            "reset left exercise active"
        );
    }

    #[test]
    fn meal_raises_bg() {
        let mut pt = avg_patient();
        pt.reset(MgDl(120.0));
        let basal = pt.equilibrium_basal(MgDl(120.0));
        pt.ingest(60.0);
        let mut peak: f64 = 0.0;
        for _ in 0..36 {
            pt.step(basal, 5.0);
            peak = peak.max(pt.bg().value());
        }
        assert!(peak > 150.0, "meal peak only {peak}");
    }

    #[test]
    fn negative_rate_treated_as_zero() {
        let mut a = avg_patient();
        let mut b = avg_patient();
        a.reset(MgDl(120.0));
        b.reset(MgDl(120.0));
        a.step(UnitsPerHour(-5.0), 5.0);
        b.step(UnitsPerHour(0.0), 5.0);
        assert!((a.bg().value() - b.bg().value()).abs() < 1e-9);
    }

    #[test]
    fn bg_never_below_physiological_floor() {
        let mut pt = avg_patient();
        pt.reset(MgDl(80.0));
        for _ in 0..288 {
            pt.step(UnitsPerHour(30.0), 5.0); // absurd overdose, 24 h
        }
        assert!(pt.bg().value() >= 10.0);
    }

    #[test]
    fn reset_restores_time_and_state() {
        let mut pt = avg_patient();
        pt.step(UnitsPerHour(1.0), 5.0);
        assert!(pt.elapsed_minutes() > 0.0);
        pt.reset(MgDl(150.0));
        assert_eq!(pt.elapsed_minutes(), 0.0);
        assert!((pt.bg().value() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn equilibrium_basal_clamps_at_zero_for_high_targets() {
        let p = BergmanParams::population_average();
        let max_bg = p.egp / p.gezi;
        assert_eq!(p.equilibrium_basal(MgDl(max_bg + 50.0)), UnitsPerHour(0.0));
    }

    #[test]
    fn batched_lanes_bit_identical_to_scalar_patients() {
        // Four parameter-varied patients driven through meals, exercise,
        // and varied infusion rates: every lane of the batch must track
        // its scalar twin bit-for-bit, including the BG floor.
        const LANES: usize = 4;
        let mut scalars: Vec<BergmanPatient> = (0..LANES)
            .map(|l| {
                let mut p = BergmanParams::population_average();
                p.si *= 1.0 + 0.3 * l as f64;
                p.gezi *= 1.0 + 0.1 * l as f64;
                BergmanPatient::new(p)
            })
            .collect();
        let mut batch = BatchedBergman::<LANES>::new();
        for (l, pt) in scalars.iter_mut().enumerate() {
            pt.reset(MgDl(100.0 + 20.0 * l as f64));
            batch.load_lane(l, pt);
        }
        for cycle in 0..48 {
            if cycle == 4 {
                scalars[1].ingest(60.0);
                batch.ingest(1, 60.0);
            }
            if cycle == 10 {
                scalars[2].exert(0.8, 45.0);
                batch.exert(2, 0.8, 45.0);
            }
            let mut rates = [UnitsPerHour(0.0); LANES];
            for (l, r) in rates.iter_mut().enumerate() {
                // Lane 3 gets an absurd overdose to exercise the floor.
                *r = if l == 3 {
                    UnitsPerHour(30.0)
                } else {
                    UnitsPerHour(0.5 + 0.2 * (l as f64) + 0.1 * (cycle % 5) as f64)
                };
            }
            batch.step_all(&rates, 5.0);
            for (l, pt) in scalars.iter_mut().enumerate() {
                pt.step(rates[l], 5.0);
                assert_eq!(
                    BatchedPatientSim::bg(&batch, l).value(),
                    pt.bg().value(),
                    "lane {l} diverged at cycle {cycle}"
                );
                for d in 0..NSTATE {
                    assert_eq!(batch.state[d][l], pt.state[d], "lane {l} comp {d}");
                }
                assert!(batch.lane_is_finite(l));
            }
        }
    }

    #[test]
    fn batched_meals_at_different_steps_bit_identical_to_scalar_patients() {
        // Lanes eat at different steps, so the batch steps with every
        // gut empty, then with empty and non-empty guts mixed, and lane
        // 7's first meal arrives mid-run. Lane 0 never eats.
        const LANES: usize = 8;
        const MEALS: [(usize, usize, f64); 8] = [
            (2, 1, 45.0),
            (2, 2, 20.0),
            (5, 3, 80.0),
            (9, 4, 30.0),
            (14, 5, 60.0),
            (20, 6, 10.0),
            (20, 2, 35.0),
            (30, 7, 50.0),
        ];
        let mut scalars: Vec<BergmanPatient> = (0..LANES)
            .map(|l| {
                let mut p = BergmanParams::population_average();
                p.si *= 1.0 + 0.15 * l as f64;
                p.carb_gain *= 1.0 + 0.05 * l as f64;
                p.tau_meal *= 1.0 + 0.1 * l as f64;
                BergmanPatient::new(p)
            })
            .collect();
        let mut batch = BatchedBergman::<LANES>::new();
        for (l, pt) in scalars.iter_mut().enumerate() {
            pt.reset(MgDl(110.0 + 10.0 * l as f64));
            batch.load_lane(l, pt);
        }
        let (mut all_empty, mut mixed) = (0, 0);
        for cycle in 0..60 {
            for &(_, lane, carbs) in MEALS.iter().filter(|m| m.0 == cycle) {
                scalars[lane].ingest(carbs);
                batch.ingest(lane, carbs);
            }
            let empty = (0..LANES)
                .filter(|&l| batch.state[QGUT1][l] == 0.0 && batch.state[QGUT2][l] == 0.0)
                .count();
            match empty {
                LANES => all_empty += 1,
                0 => {}
                _ => mixed += 1,
            }
            let mut rates = [UnitsPerHour(0.0); LANES];
            for (l, r) in rates.iter_mut().enumerate() {
                *r = UnitsPerHour(0.6 + 0.1 * l as f64 + 0.05 * (cycle % 3) as f64);
            }
            batch.step_all(&rates, 5.0);
            for (l, pt) in scalars.iter_mut().enumerate() {
                pt.step(rates[l], 5.0);
                for d in 0..NSTATE {
                    assert_eq!(
                        batch.state[d][l].to_bits(),
                        pt.state[d].to_bits(),
                        "lane {l} comp {d} diverged at cycle {cycle}"
                    );
                }
            }
        }
        assert_eq!(all_empty, 2, "cycles before the first meal");
        assert_eq!(mixed, 58, "lane 0 never eats, so every later cycle mixes");
        assert!(scalars[7].state[QGUT2] > 0.0, "lane 7's meal was absorbed");
    }

    #[test]
    fn higher_sensitivity_needs_less_insulin() {
        let mut hi = BergmanParams::population_average();
        hi.si *= 2.0;
        let lo = BergmanParams::population_average();
        assert!(
            hi.equilibrium_basal(MgDl(120.0)).value() < lo.equilibrium_basal(MgDl(120.0)).value()
        );
    }
}
