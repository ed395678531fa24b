//! Simplified Dalla Man meal-simulation model — the UVA-Padova
//! T1DS2013 substitute.
//!
//! The UVA-Padova simulator is proprietary; its published core is the
//! Dalla Man glucose–insulin model (two glucose compartments, hepatic
//! production with delayed insulin signal, insulin-dependent
//! utilization, two-compartment subcutaneous insulin kinetics, a gut
//! absorption chain, and an interstitial CGM delay). We implement that
//! published equation set with the standard adult parameter averages;
//! the glucagon subsystem of S2013 is omitted (the paper's scenarios
//! never trigger glucagon counter-regulation — no rescue dosing is
//! modelled).
//!
//! Units: glucose masses `Gp, Gt` in mg/kg; plasma/liver insulin
//! `Ip, Il` in pmol/kg; concentrations `I, I1, Id, Ib` in pmol/L;
//! infusion in pmol/kg/min (1 U/h = 100 pmol/min spread over `BW` kg).

use crate::ode::{BatchedRk4Scratch, Rk4Scratch};
use crate::{BatchedPatientSim, LaneSnapshot, PatientSim, SplitLanes};
use aps_types::{MgDl, UnitsPerHour};
use serde::{Deserialize, Serialize};

/// Parameters of one virtual Dalla Man adult.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DallaManParams {
    /// Patient identifier.
    pub name: String,
    /// Body weight (kg).
    pub bw: f64,
    /// Glucose distribution volume (dL/kg).
    pub vg: f64,
    /// Glucose compartment exchange rates (1/min).
    pub k1: f64,
    /// Reverse exchange rate (1/min).
    pub k2: f64,
    /// EGP at zero glucose and insulin (mg/kg/min).
    pub kp1: f64,
    /// EGP glucose sensitivity (1/min).
    pub kp2: f64,
    /// EGP insulin sensitivity (mg/kg/min per pmol/L).
    pub kp3: f64,
    /// Delayed insulin-signal rate (1/min).
    pub ki: f64,
    /// Insulin-independent utilization (mg/kg/min).
    pub fsnc: f64,
    /// Basal insulin-dependent utilization V_m0 (mg/kg/min).
    pub vm0: f64,
    /// Insulin sensitivity of utilization V_mx (mg/kg/min per pmol/L).
    pub vmx: f64,
    /// Michaelis constant K_m0 (mg/kg).
    pub km0: f64,
    /// Remote-insulin action rate p2U (1/min).
    pub p2u: f64,
    /// Renal extraction rate ke1 (1/min).
    pub ke1: f64,
    /// Renal threshold ke2 (mg/kg).
    pub ke2: f64,
    /// SC insulin: kd, ka1, ka2 (1/min).
    pub kd: f64,
    /// SC-to-plasma absorption (first pathway, 1/min).
    pub ka1: f64,
    /// SC-to-plasma absorption (second pathway, 1/min).
    pub ka2: f64,
    /// Insulin kinetics m1, m2, m3, m4 (1/min).
    pub m1: f64,
    /// Liver-bound transfer rate (1/min).
    pub m2: f64,
    /// Degradation rate (1/min).
    pub m3: f64,
    /// Peripheral degradation rate (1/min).
    pub m4: f64,
    /// Insulin distribution volume (L/kg).
    pub vi: f64,
    /// Gastric emptying rate (1/min; constant simplification of the
    /// nonlinear kempt(Qsto) of the full model).
    pub kempt: f64,
    /// Intestinal absorption rate (1/min).
    pub kabs: f64,
    /// Fraction of carbs reaching circulation.
    pub f: f64,
    /// CGM interstitial delay time constant (min).
    pub tau_cgm: f64,
}

impl DallaManParams {
    /// The published average adult of the Dalla Man model.
    ///
    /// `kp1` is set to 3.18 (rather than the oft-quoted 2.70) so the
    /// simplified model satisfies the simulator's basal consistency
    /// constraints: basal plasma insulin ≈ 70 pmol/L at 120 mg/dL
    /// (≈ 1.3 U/h) and a zero-insulin equilibrium near 200 mg/dL —
    /// without which insulin suspension could never produce the H2
    /// hazards the paper's campaigns rely on.
    pub fn average_adult() -> DallaManParams {
        DallaManParams {
            name: "t1ds/average".to_owned(),
            bw: 78.0,
            vg: 1.88,
            k1: 0.065,
            k2: 0.079,
            kp1: 3.18,
            kp2: 0.0021,
            kp3: 0.009,
            ki: 0.0079,
            fsnc: 1.0,
            vm0: 2.50,
            vmx: 0.047,
            km0: 225.59,
            p2u: 0.0331,
            ke1: 0.0005,
            ke2: 339.0,
            kd: 0.0164,
            ka1: 0.0018,
            ka2: 0.0182,
            m1: 0.190,
            m2: 0.484,
            m3: 0.285,
            m4: 0.194,
            vi: 0.05,
            kempt: 0.035,
            kabs: 0.057,
            f: 0.90,
            tau_cgm: 10.0,
        }
    }

    /// Plasma-insulin steady state (pmol/L) under infusion `iir`
    /// (pmol/kg/min); the SC chain passes through in steady state.
    pub fn plasma_insulin_ss(&self, iir: f64) -> f64 {
        let factor = (self.m2 + self.m4) - self.m1 * self.m2 / (self.m1 + self.m3);
        let ip = iir / factor; // pmol/kg
        ip / self.vi // pmol/L
    }

    /// Inverse of [`plasma_insulin_ss`](Self::plasma_insulin_ss).
    fn iir_for_plasma(&self, i_conc: f64) -> f64 {
        let factor = (self.m2 + self.m4) - self.m1 * self.m2 / (self.m1 + self.m3);
        i_conc * self.vi * factor
    }

    /// Solves the tissue-glucose steady state `Gt` for a given `Gp`
    /// (bisection on the monotone balance `Uid(Gt) + k2·Gt = k1·Gp`).
    fn gt_steady_state(&self, gp: f64) -> f64 {
        let target = self.k1 * gp;
        let balance = |gt: f64| self.vm0 * gt / (self.km0 + gt) + self.k2 * gt;
        let (mut lo, mut hi) = (0.0, gp.max(1.0) * 2.0 + 1000.0);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if balance(mid) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// Basal plasma-insulin concentration `Ib` (pmol/L) that holds the
    /// patient at `target` glucose in steady state (clamped at zero).
    fn basal_insulin_for(&self, target: MgDl) -> f64 {
        let gp = target.value() * self.vg;
        let gt = self.gt_steady_state(gp);
        let e = if gp > self.ke2 {
            self.ke1 * (gp - self.ke2)
        } else {
            0.0
        };
        // 0 = kp1 - kp2*Gp - kp3*Ib - Fsnc - E - k1*Gp + k2*Gt
        let ib =
            (self.kp1 - self.kp2 * gp - self.fsnc - e - self.k1 * gp + self.k2 * gt) / self.kp3;
        ib.max(0.0)
    }

    /// Closed-form equilibrium basal rate for a steady-state target.
    pub fn equilibrium_basal(&self, target: MgDl) -> UnitsPerHour {
        let ib = self.basal_insulin_for(target);
        let iir = self.iir_for_plasma(ib); // pmol/kg/min
        UnitsPerHour(iir * self.bw * 60.0 / 6000.0)
    }
}

// State vector layout.
const GP: usize = 0;
const GT: usize = 1;
const IP: usize = 2;
const IL: usize = 3;
const I1: usize = 4;
const ID: usize = 5;
const X: usize = 6;
const ISC1: usize = 7;
const ISC2: usize = 8;
const QSTO1: usize = 9;
const QSTO2: usize = 10;
const QGUT: usize = 11;
const GS: usize = 12;
const NSTATE: usize = 13;

/// A simulated Dalla Man adult patient.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DallaManPatient {
    params: DallaManParams,
    /// Basal plasma insulin the remote compartment is referenced to.
    ib: f64,
    state: [f64; NSTATE],
    t_minutes: f64,
    #[serde(default)]
    exercise_minutes_left: f64,
    #[serde(default)]
    exercise_intensity: f64,
}

/// Multiplier applied to peripheral glucose utilization per unit of
/// exercise intensity (see
/// [`bergman::EXERCISE_GEZI_GAIN`](crate::bergman::EXERCISE_GEZI_GAIN)
/// for the same idea on the minimal model).
pub const EXERCISE_UPTAKE_GAIN: f64 = 1.5;

impl DallaManPatient {
    /// Creates a patient initialized at 120 mg/dL basal equilibrium.
    pub fn new(params: DallaManParams) -> DallaManPatient {
        let ib = params.basal_insulin_for(MgDl(120.0));
        let mut p = DallaManPatient {
            params,
            ib,
            state: [0.0; NSTATE],
            t_minutes: 0.0,
            exercise_minutes_left: 0.0,
            exercise_intensity: 0.0,
        };
        p.reset(MgDl(120.0));
        p
    }

    /// The patient's parameters.
    pub fn params(&self) -> &DallaManParams {
        &self.params
    }

    /// Plasma glucose concentration (mg/dL), undelayed.
    pub fn plasma_glucose(&self) -> MgDl {
        MgDl(self.state[GP] / self.params.vg).clamp_physiological()
    }

    /// Plasma insulin concentration (pmol/L).
    pub fn plasma_insulin(&self) -> f64 {
        self.state[IP] / self.params.vi
    }

    /// Elapsed physiological time in minutes.
    pub fn elapsed_minutes(&self) -> f64 {
        self.t_minutes
    }
}

impl PatientSim for DallaManPatient {
    fn name(&self) -> &str {
        &self.params.name
    }

    fn bg(&self) -> MgDl {
        MgDl(self.state[GS]).clamp_physiological()
    }

    fn step(&mut self, rate: UnitsPerHour, minutes: f64) {
        let rate = rate.max_zero();
        // U/h -> pmol/kg/min.
        let iir = rate.value() * 6000.0 / 60.0 / self.params.bw;
        // Borrow (not clone) the parameters: the closure only reads
        // them, and `state` is a disjoint field.
        let p = &self.params;
        let ib = self.ib;
        let active = self.exercise_minutes_left.min(minutes);
        let intensity = if active > 0.0 {
            self.exercise_intensity
        } else {
            0.0
        };
        let uptake_scale = 1.0 + EXERCISE_UPTAKE_GAIN * intensity * (active / minutes);
        self.exercise_minutes_left = (self.exercise_minutes_left - minutes).max(0.0);
        let dynamics = move |_t: f64, x: &[f64], d: &mut [f64]| {
            let g = x[GP] / p.vg;
            let i_conc = x[IP] / p.vi;
            let egp = (p.kp1 - p.kp2 * x[GP] - p.kp3 * x[ID]).max(0.0);
            let ra = p.f * p.kabs * x[QGUT] / p.bw;
            let vm = (p.vm0 + p.vmx * x[X]).max(0.0) * uptake_scale;
            let uid = vm * x[GT] / (p.km0 + x[GT]);
            let e = if x[GP] > p.ke2 {
                p.ke1 * (x[GP] - p.ke2)
            } else {
                0.0
            };

            d[GP] = egp + ra - p.fsnc - e - p.k1 * x[GP] + p.k2 * x[GT];
            d[GT] = -uid + p.k1 * x[GP] - p.k2 * x[GT];
            d[IP] = -(p.m2 + p.m4) * x[IP] + p.m1 * x[IL] + p.ka1 * x[ISC1] + p.ka2 * x[ISC2];
            d[IL] = -(p.m1 + p.m3) * x[IL] + p.m2 * x[IP];
            d[I1] = -p.ki * (x[I1] - i_conc);
            d[ID] = -p.ki * (x[ID] - x[I1]);
            d[X] = -p.p2u * x[X] + p.p2u * (i_conc - ib);
            d[ISC1] = -(p.kd + p.ka1) * x[ISC1] + iir;
            d[ISC2] = p.kd * x[ISC1] - p.ka2 * x[ISC2];
            d[QSTO1] = -p.kempt * x[QSTO1];
            d[QSTO2] = p.kempt * x[QSTO1] - p.kempt * x[QSTO2];
            d[QGUT] = p.kempt * x[QSTO2] - p.kabs * x[QGUT];
            d[GS] = (g - x[GS]) / p.tau_cgm;
        };
        // Stack-only scratch: the simulation hot loop performs no heap
        // allocation per step.
        let finite = Rk4Scratch::<NSTATE>::new()
            .try_integrate(&dynamics, self.t_minutes, &mut self.state, minutes, 1.0)
            .is_ok();
        if finite {
            // Physiological floors: masses and the remote signal
            // saturate. Applied only to finite states — `f64::max(NaN,
            // floor)` is the floor, which would hide divergence from
            // `state_is_finite`.
            self.state[GP] = self.state[GP].max(10.0 * self.params.vg);
            self.state[GT] = self.state[GT].max(0.0);
            self.state[GS] = self.state[GS].max(10.0);
        }
        self.t_minutes += minutes;
    }

    fn reset(&mut self, bg0: MgDl) {
        let p = &self.params;
        self.ib = p.basal_insulin_for(MgDl(120.0));
        let basal_iir = p.iir_for_plasma(self.ib);
        let gp = bg0.value() * p.vg;
        let gt = p.gt_steady_state(gp);
        let ip = self.ib * p.vi;
        let il = p.m2 * ip / (p.m1 + p.m3);
        let isc1 = basal_iir / (p.kd + p.ka1);
        let isc2 = p.kd * isc1 / p.ka2;
        self.state = [0.0; NSTATE];
        self.state[GP] = gp;
        self.state[GT] = gt;
        self.state[IP] = ip;
        self.state[IL] = il;
        self.state[I1] = self.ib;
        self.state[ID] = self.ib;
        self.state[X] = 0.0;
        self.state[ISC1] = isc1;
        self.state[ISC2] = isc2;
        self.state[GS] = bg0.value();
        self.t_minutes = 0.0;
        self.exercise_minutes_left = 0.0;
        self.exercise_intensity = 0.0;
    }

    fn ingest(&mut self, carbs_g: f64) {
        self.state[QSTO1] += (carbs_g * 1000.0).max(0.0); // grams -> mg
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

/// Structure-of-arrays parameter bank for a Dalla Man lane batch: one
/// contiguous `[f64; LANES]` row per identified parameter, plus the
/// per-lane basal insulin reference `ib`.
#[derive(Debug, Clone)]
struct DallaManParamLanes<const LANES: usize> {
    bw: [f64; LANES],
    vg: [f64; LANES],
    k1: [f64; LANES],
    k2: [f64; LANES],
    kp1: [f64; LANES],
    kp2: [f64; LANES],
    kp3: [f64; LANES],
    ki: [f64; LANES],
    fsnc: [f64; LANES],
    vm0: [f64; LANES],
    vmx: [f64; LANES],
    km0: [f64; LANES],
    p2u: [f64; LANES],
    ke1: [f64; LANES],
    ke2: [f64; LANES],
    kd: [f64; LANES],
    ka1: [f64; LANES],
    ka2: [f64; LANES],
    m1: [f64; LANES],
    m2: [f64; LANES],
    m3: [f64; LANES],
    m4: [f64; LANES],
    vi: [f64; LANES],
    kempt: [f64; LANES],
    kabs: [f64; LANES],
    f: [f64; LANES],
    tau_cgm: [f64; LANES],
    ib: [f64; LANES],
}

impl<const LANES: usize> DallaManParamLanes<LANES> {
    const fn zeroed() -> DallaManParamLanes<LANES> {
        DallaManParamLanes {
            bw: [0.0; LANES],
            vg: [0.0; LANES],
            k1: [0.0; LANES],
            k2: [0.0; LANES],
            kp1: [0.0; LANES],
            kp2: [0.0; LANES],
            kp3: [0.0; LANES],
            ki: [0.0; LANES],
            fsnc: [0.0; LANES],
            vm0: [0.0; LANES],
            vmx: [0.0; LANES],
            km0: [0.0; LANES],
            p2u: [0.0; LANES],
            ke1: [0.0; LANES],
            ke2: [0.0; LANES],
            kd: [0.0; LANES],
            ka1: [0.0; LANES],
            ka2: [0.0; LANES],
            m1: [0.0; LANES],
            m2: [0.0; LANES],
            m3: [0.0; LANES],
            m4: [0.0; LANES],
            vi: [0.0; LANES],
            kempt: [0.0; LANES],
            kabs: [0.0; LANES],
            f: [0.0; LANES],
            tau_cgm: [0.0; LANES],
            ib: [0.0; LANES],
        }
    }
}

/// A lane-batched cohort of `LANES` Dalla Man patients stepped in
/// lockstep; the Dalla Man sibling of
/// [`BatchedBergman`](crate::bergman::BatchedBergman).
///
/// Per lane the arithmetic is expression-for-expression
/// [`DallaManPatient::step`] — including the clamped EGP and uptake
/// terms and the physiological floors — which keeps every lane
/// bit-identical to its scalar counterpart. Lanes are loaded from
/// already-constructed scalar patients with
/// [`load_lane`](BatchedDallaMan::load_lane).
#[derive(Debug, Clone)]
pub struct BatchedDallaMan<const LANES: usize> {
    p: DallaManParamLanes<LANES>,
    state: [[f64; LANES]; NSTATE],
    /// Shared clock: lanes advance in lockstep, so one `t` serves all.
    t_minutes: f64,
    exercise_minutes_left: [f64; LANES],
    exercise_intensity: [f64; LANES],
    /// Reused across [`step_all`](BatchedPatientSim::step_all) calls so
    /// the per-cycle step does not re-zero ~4 KB of stage buffers.
    scratch: BatchedRk4Scratch<NSTATE, LANES>,
}

impl<const LANES: usize> BatchedDallaMan<LANES> {
    /// Empty batch (all lanes zeroed); load every lane before stepping.
    pub const fn new() -> BatchedDallaMan<LANES> {
        BatchedDallaMan {
            p: DallaManParamLanes::zeroed(),
            state: [[0.0; LANES]; NSTATE],
            t_minutes: 0.0,
            exercise_minutes_left: [0.0; LANES],
            exercise_intensity: [0.0; LANES],
            scratch: BatchedRk4Scratch::new(),
        }
    }

    /// Copies one scalar patient's parameters, basal reference, and
    /// full state into a lane. Lanes advance on a shared clock, so
    /// every loaded patient must be at the same elapsed time (freshly
    /// `reset` patients are).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= LANES` or the patient's clock disagrees with
    /// lanes already loaded.
    pub fn load_lane(&mut self, lane: usize, patient: &DallaManPatient) {
        assert!(lane < LANES, "lane {lane} out of range (LANES = {LANES})");
        assert!(
            self.t_minutes == patient.t_minutes || self.t_minutes == 0.0,
            "lockstep lanes must share one clock"
        );
        let p = &patient.params;
        self.p.bw[lane] = p.bw;
        self.p.vg[lane] = p.vg;
        self.p.k1[lane] = p.k1;
        self.p.k2[lane] = p.k2;
        self.p.kp1[lane] = p.kp1;
        self.p.kp2[lane] = p.kp2;
        self.p.kp3[lane] = p.kp3;
        self.p.ki[lane] = p.ki;
        self.p.fsnc[lane] = p.fsnc;
        self.p.vm0[lane] = p.vm0;
        self.p.vmx[lane] = p.vmx;
        self.p.km0[lane] = p.km0;
        self.p.p2u[lane] = p.p2u;
        self.p.ke1[lane] = p.ke1;
        self.p.ke2[lane] = p.ke2;
        self.p.kd[lane] = p.kd;
        self.p.ka1[lane] = p.ka1;
        self.p.ka2[lane] = p.ka2;
        self.p.m1[lane] = p.m1;
        self.p.m2[lane] = p.m2;
        self.p.m3[lane] = p.m3;
        self.p.m4[lane] = p.m4;
        self.p.vi[lane] = p.vi;
        self.p.kempt[lane] = p.kempt;
        self.p.kabs[lane] = p.kabs;
        self.p.f[lane] = p.f;
        self.p.tau_cgm[lane] = p.tau_cgm;
        self.p.ib[lane] = patient.ib;
        for d in 0..NSTATE {
            self.state[d][lane] = patient.state[d];
        }
        self.t_minutes = patient.t_minutes;
        self.exercise_minutes_left[lane] = patient.exercise_minutes_left;
        self.exercise_intensity[lane] = patient.exercise_intensity;
    }
}

impl<const LANES: usize> Default for BatchedDallaMan<LANES> {
    fn default() -> BatchedDallaMan<LANES> {
        BatchedDallaMan::new()
    }
}

impl<const LANES: usize> SplitLanes<LANES> for BatchedDallaMan<LANES> {
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

impl<const LANES: usize> BatchedPatientSim<LANES> for BatchedDallaMan<LANES> {
    fn bg(&self, lane: usize) -> MgDl {
        MgDl(self.state[GS][lane]).clamp_physiological()
    }

    fn step_all(&mut self, rates: &[UnitsPerHour; LANES], minutes: f64) {
        // Per-lane pre-step scalars, mirroring the scalar `step`
        // preamble expression for expression.
        let mut iir = [0.0; LANES];
        let mut uptake_scale = [0.0; LANES];
        for l in 0..LANES {
            let rate = rates[l].max_zero();
            iir[l] = rate.value() * 6000.0 / 60.0 / self.p.bw[l];
            let active = self.exercise_minutes_left[l].min(minutes);
            let intensity = if active > 0.0 {
                self.exercise_intensity[l]
            } else {
                0.0
            };
            uptake_scale[l] = 1.0 + EXERCISE_UPTAKE_GAIN * intensity * (active / minutes);
            self.exercise_minutes_left[l] = (self.exercise_minutes_left[l] - minutes).max(0.0);
        }
        // Borrow the parameter bank as one disjoint field so the
        // closure does not conflict with `&mut self.state`.
        let p = &self.p;
        let dynamics =
            move |_t: f64, x: &[[f64; LANES]; NSTATE], d: &mut [[f64; LANES]; NSTATE]| {
                for l in 0..LANES {
                    let g = x[GP][l] / p.vg[l];
                    let i_conc = x[IP][l] / p.vi[l];
                    let egp = (p.kp1[l] - p.kp2[l] * x[GP][l] - p.kp3[l] * x[ID][l]).max(0.0);
                    let ra = p.f[l] * p.kabs[l] * x[QGUT][l] / p.bw[l];
                    let vm = (p.vm0[l] + p.vmx[l] * x[X][l]).max(0.0) * uptake_scale[l];
                    let uid = vm * x[GT][l] / (p.km0[l] + x[GT][l]);
                    let e = if x[GP][l] > p.ke2[l] {
                        p.ke1[l] * (x[GP][l] - p.ke2[l])
                    } else {
                        0.0
                    };

                    d[GP][l] = egp + ra - p.fsnc[l] - e - p.k1[l] * x[GP][l] + p.k2[l] * x[GT][l];
                    d[GT][l] = -uid + p.k1[l] * x[GP][l] - p.k2[l] * x[GT][l];
                    d[IP][l] = -(p.m2[l] + p.m4[l]) * x[IP][l]
                        + p.m1[l] * x[IL][l]
                        + p.ka1[l] * x[ISC1][l]
                        + p.ka2[l] * x[ISC2][l];
                    d[IL][l] = -(p.m1[l] + p.m3[l]) * x[IL][l] + p.m2[l] * x[IP][l];
                    d[I1][l] = -p.ki[l] * (x[I1][l] - i_conc);
                    d[ID][l] = -p.ki[l] * (x[ID][l] - x[I1][l]);
                    d[X][l] = -p.p2u[l] * x[X][l] + p.p2u[l] * (i_conc - p.ib[l]);
                    d[ISC1][l] = -(p.kd[l] + p.ka1[l]) * x[ISC1][l] + iir[l];
                    d[ISC2][l] = p.kd[l] * x[ISC1][l] - p.ka2[l] * x[ISC2][l];
                    d[QSTO1][l] = -p.kempt[l] * x[QSTO1][l];
                    d[QSTO2][l] = p.kempt[l] * x[QSTO1][l] - p.kempt[l] * x[QSTO2][l];
                    d[QGUT][l] = p.kempt[l] * x[QSTO2][l] - p.kabs[l] * x[QGUT][l];
                    d[GS][l] = (g - x[GS][l]) / p.tau_cgm[l];
                }
            };
        // Free-running lanes: a diverged lane churns NaN harmlessly
        // (non-finite is absorbing under the RK4 update) instead of
        // early-aborting the whole batch the way the scalar
        // `try_integrate` does; `lane_is_finite` reports it afterward.
        self.scratch
            .integrate(&dynamics, self.t_minutes, &mut self.state, minutes, 1.0);
        for l in 0..LANES {
            // Same floors as the scalar path, applied only to finite
            // lanes: f64::max(NaN, floor) is the floor, which would
            // mask divergence from `lane_is_finite`.
            let finite = self.state.iter().all(|row| row[l].is_finite());
            if finite {
                self.state[GP][l] = self.state[GP][l].max(10.0 * self.p.vg[l]);
                self.state[GT][l] = self.state[GT][l].max(0.0);
                self.state[GS][l] = self.state[GS][l].max(10.0);
            }
        }
        self.t_minutes += minutes;
    }

    fn ingest(&mut self, lane: usize, carbs_g: f64) {
        self.state[QSTO1][lane] += (carbs_g * 1000.0).max(0.0); // grams -> mg
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

    fn avg() -> DallaManPatient {
        DallaManPatient::new(DallaManParams::average_adult())
    }

    #[test]
    fn equilibrium_basal_is_plausible() {
        let p = DallaManParams::average_adult();
        let basal = p.equilibrium_basal(MgDl(120.0));
        assert!(
            basal.value() > 0.05 && basal.value() < 3.0,
            "basal = {} U/h",
            basal.value()
        );
    }

    #[test]
    fn holds_near_equilibrium_under_basal() {
        let mut pt = avg();
        pt.reset(MgDl(120.0));
        let basal = pt.equilibrium_basal(MgDl(120.0));
        for _ in 0..144 {
            pt.step(basal, 5.0);
        }
        let bg = pt.bg().value();
        assert!((bg - 120.0).abs() < 15.0, "drifted to {bg} mg/dL");
    }

    #[test]
    fn suspension_raises_bg() {
        let mut pt = avg();
        pt.reset(MgDl(120.0));
        for _ in 0..144 {
            pt.step(UnitsPerHour(0.0), 5.0);
        }
        assert!(pt.bg().value() > 160.0, "BG only {}", pt.bg().value());
    }

    #[test]
    fn overdose_drops_bg() {
        let mut pt = avg();
        pt.reset(MgDl(120.0));
        let basal = pt.equilibrium_basal(MgDl(120.0));
        for _ in 0..144 {
            pt.step(basal * 10.0, 5.0);
        }
        assert!(pt.bg().value() < 70.0, "BG still {}", pt.bg().value());
    }

    #[test]
    fn exercise_lowers_bg() {
        let basal = avg().equilibrium_basal(MgDl(120.0));
        let run = |intensity: f64| -> f64 {
            let mut pt = avg();
            pt.reset(MgDl(140.0));
            pt.exert(intensity, 60.0);
            for _ in 0..12 {
                pt.step(basal, 5.0);
            }
            pt.bg().value()
        };
        let rest = run(0.0);
        let brisk = run(1.0);
        assert!(
            brisk < rest - 3.0,
            "exercise barely moved BG ({rest} -> {brisk})"
        );
    }

    #[test]
    fn meal_produces_excursion() {
        let mut pt = avg();
        pt.reset(MgDl(120.0));
        let basal = pt.equilibrium_basal(MgDl(120.0));
        pt.ingest(75.0);
        let mut peak: f64 = 0.0;
        for _ in 0..48 {
            pt.step(basal, 5.0);
            peak = peak.max(pt.bg().value());
        }
        assert!(peak > 140.0, "meal peak only {peak}");
    }

    #[test]
    fn cgm_lags_plasma() {
        let mut pt = avg();
        pt.reset(MgDl(120.0));
        // Strong overdose: plasma falls first, CGM follows.
        for _ in 0..24 {
            pt.step(UnitsPerHour(15.0), 5.0);
        }
        assert!(
            pt.bg().value() > pt.plasma_glucose().value() - 1.0,
            "CGM {} should lag plasma {}",
            pt.bg().value(),
            pt.plasma_glucose().value()
        );
    }

    #[test]
    fn reset_is_idempotent() {
        let mut a = avg();
        let mut b = avg();
        a.step(UnitsPerHour(2.0), 30.0);
        a.reset(MgDl(150.0));
        b.reset(MgDl(150.0));
        assert_eq!(a, b);
    }

    #[test]
    fn batched_lanes_bit_identical_to_scalar_patients() {
        // Parameter-varied patients through meals, exercise, suspension,
        // and an overdose lane: every lane must track its scalar twin
        // bit-for-bit, including the EGP/uptake clamps and floors.
        const LANES: usize = 4;
        let mut scalars: Vec<DallaManPatient> = (0..LANES)
            .map(|l| {
                let mut p = DallaManParams::average_adult();
                p.vmx *= 1.0 + 0.2 * l as f64;
                p.bw += 5.0 * l as f64;
                DallaManPatient::new(p)
            })
            .collect();
        let mut batch = BatchedDallaMan::<LANES>::new();
        for (l, pt) in scalars.iter_mut().enumerate() {
            pt.reset(MgDl(100.0 + 15.0 * l as f64));
            batch.load_lane(l, pt);
        }
        for cycle in 0..48 {
            if cycle == 3 {
                scalars[0].ingest(75.0);
                batch.ingest(0, 75.0);
            }
            if cycle == 8 {
                scalars[1].exert(0.6, 30.0);
                batch.exert(1, 0.6, 30.0);
            }
            let mut rates = [UnitsPerHour(0.0); LANES];
            for (l, r) in rates.iter_mut().enumerate() {
                *r = match l {
                    2 => UnitsPerHour(0.0),  // suspension
                    3 => UnitsPerHour(40.0), // overdose, exercises floors
                    _ => UnitsPerHour(1.0 + 0.1 * (cycle % 7) as f64),
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
            }
        }
    }

    #[test]
    fn bg_floor_holds_under_extreme_overdose() {
        let mut pt = avg();
        pt.reset(MgDl(90.0));
        for _ in 0..288 {
            pt.step(UnitsPerHour(40.0), 5.0);
        }
        assert!(pt.bg().value() >= 10.0);
    }
}
