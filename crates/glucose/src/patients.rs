//! Deterministic virtual-patient cohorts.
//!
//! The paper evaluates on 10 Glucosym patients (models identified from
//! real adults, aged 42.5 ± 11.5) and 10 UVA-Padova virtual patients.
//! Both cohorts are proprietary, so we generate synthetic cohorts by
//! sampling each model's parameters around its published population
//! average with the inter-patient spread reported in the identification
//! literature (±30–50% on sensitivity-related parameters). Generation
//! is seeded and deterministic: `patientA..patientJ` are the same
//! virtual people in every build, which keeps experiments reproducible
//! and lets Table VIII refer to named patients.

use crate::bergman::{BergmanParams, BergmanPatient};
use crate::dalla_man::{DallaManParams, DallaManPatient};
use crate::{BoxedPatient, PatientSim};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Number of patients in each cohort (matches the paper).
pub const COHORT_SIZE: usize = 10;

/// Letters used to name cohort members (`patientA` … `patientJ`).
pub const PATIENT_LETTERS: [char; COHORT_SIZE] = ['A', 'B', 'C', 'D', 'E', 'F', 'G', 'H', 'I', 'J'];

fn vary(rng: &mut ChaCha8Rng, base: f64, rel_spread: f64) -> f64 {
    let factor = 1.0 + rng.gen_range(-rel_spread..rel_spread);
    base * factor
}

/// The ten Glucosym-style Bergman/GIM parameter sets.
pub fn glucosym_params() -> Vec<BergmanParams> {
    let mut rng = ChaCha8Rng::seed_from_u64(0x61_70_73_2d_67_6c_75_63); // "aps-gluc"
    PATIENT_LETTERS
        .iter()
        .map(|letter| {
            let base = BergmanParams::population_average();
            BergmanParams {
                name: format!("glucosym/patient{letter}"),
                gezi: vary(&mut rng, base.gezi, 0.45),
                egp: vary(&mut rng, base.egp, 0.25),
                si: vary(&mut rng, base.si, 0.50),
                p2: vary(&mut rng, base.p2, 0.35),
                tau1: vary(&mut rng, base.tau1, 0.30),
                tau2: vary(&mut rng, base.tau2, 0.30),
                ci: vary(&mut rng, base.ci, 0.25),
                carb_gain: vary(&mut rng, base.carb_gain, 0.20),
                tau_meal: vary(&mut rng, base.tau_meal, 0.20),
            }
        })
        .collect()
}

/// The ten UVA-Padova-style Dalla Man parameter sets.
pub fn t1ds_params() -> Vec<DallaManParams> {
    let mut rng = ChaCha8Rng::seed_from_u64(0x74_31_64_73_32_30_31_33); // "t1ds2013"
    PATIENT_LETTERS
        .iter()
        .map(|letter| {
            let base = DallaManParams::average_adult();
            DallaManParams {
                name: format!("t1ds/patient{letter}"),
                bw: vary(&mut rng, base.bw, 0.25),
                vg: vary(&mut rng, base.vg, 0.15),
                kp1: vary(&mut rng, base.kp1, 0.15),
                kp3: vary(&mut rng, base.kp3, 0.40),
                vm0: vary(&mut rng, base.vm0, 0.25),
                vmx: vary(&mut rng, base.vmx, 0.45),
                p2u: vary(&mut rng, base.p2u, 0.30),
                kd: vary(&mut rng, base.kd, 0.20),
                kabs: vary(&mut rng, base.kabs, 0.25),
                ..base
            }
        })
        .collect()
}

/// The Glucosym cohort as boxed [`PatientSim`]s.
pub fn glucosym_cohort() -> Vec<BoxedPatient> {
    glucosym_params()
        .into_iter()
        .map(|p| Box::new(BergmanPatient::new(p)) as BoxedPatient)
        .collect()
}

/// The UVA-Padova-style cohort as boxed patients.
pub fn t1ds_cohort() -> Vec<BoxedPatient> {
    t1ds_params()
        .into_iter()
        .map(|p| Box::new(DallaManPatient::new(p)) as BoxedPatient)
        .collect()
}

/// A concretely typed cohort member.
///
/// `dyn PatientSim` deliberately erases the model, but the batched
/// lockstep engine needs the concrete type to load a patient into the
/// matching structure-of-arrays bank
/// ([`BatchedBergman`](crate::bergman::BatchedBergman) /
/// [`BatchedDallaMan`](crate::dalla_man::BatchedDallaMan)). This enum is
/// the non-erased form of the same cohort members.
// Not boxing the larger variant: a campaign materializes one of these
// per job and steps it in place; the size skew is a few hundred stack
// bytes, while a Box would put a pointer-chase in the scalar hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum CohortPatient {
    /// A Glucosym-style Bergman/GIM patient.
    Bergman(BergmanPatient),
    /// A UVA-Padova-style Dalla Man patient.
    DallaMan(DallaManPatient),
}

impl CohortPatient {
    /// The patient as the erased trait object the scalar harness uses.
    pub fn as_dyn(&self) -> &dyn PatientSim {
        match self {
            CohortPatient::Bergman(p) => p,
            CohortPatient::DallaMan(p) => p,
        }
    }

    /// Mutable erased form (reset, scalar stepping).
    pub fn as_dyn_mut(&mut self) -> &mut dyn PatientSim {
        match self {
            CohortPatient::Bergman(p) => p,
            CohortPatient::DallaMan(p) => p,
        }
    }
}

/// Looks up a patient by qualified name (e.g. `"glucosym/patientC"`).
pub fn by_name(name: &str) -> Option<BoxedPatient> {
    if let Some(p) = glucosym_params().into_iter().find(|p| p.name == name) {
        return Some(Box::new(BergmanPatient::new(p)));
    }
    if let Some(p) = t1ds_params().into_iter().find(|p| p.name == name) {
        return Some(Box::new(DallaManPatient::new(p)));
    }
    None
}

/// The paper's seven initial glucose values (80–200 mg/dL).
pub fn initial_bg_values() -> [f64; 7] {
    [80.0, 100.0, 120.0, 140.0, 160.0, 180.0, 200.0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use aps_types::MgDl;

    #[test]
    fn cohorts_have_ten_distinct_patients() {
        let g = glucosym_params();
        assert_eq!(g.len(), COHORT_SIZE);
        let names: std::collections::HashSet<_> = g.iter().map(|p| p.name.clone()).collect();
        assert_eq!(names.len(), COHORT_SIZE);
        // Parameters actually vary between patients.
        assert!(g.iter().any(|p| (p.si - g[0].si).abs() > 1e-6));

        let t = t1ds_params();
        assert_eq!(t.len(), COHORT_SIZE);
        assert!(t.iter().any(|p| (p.vmx - t[0].vmx).abs() > 1e-6));
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(glucosym_params(), glucosym_params());
        assert_eq!(t1ds_params(), t1ds_params());
    }

    #[test]
    fn by_name_finds_both_cohorts() {
        assert!(by_name("glucosym/patientA").is_some());
        assert!(by_name("t1ds/patientJ").is_some());
        assert!(by_name("nope/patientZ").is_none());
    }

    #[test]
    fn all_patients_hold_rough_equilibrium() {
        for mut p in glucosym_cohort().into_iter().chain(t1ds_cohort()) {
            p.reset(MgDl(120.0));
            let basal = p.equilibrium_basal(MgDl(120.0));
            for _ in 0..72 {
                p.step(basal, 5.0);
            }
            let bg = p.bg().value();
            assert!(
                (60.0..=220.0).contains(&bg),
                "{} ran away to {bg} mg/dL under its own basal",
                p.name()
            );
        }
    }

    #[test]
    fn initial_bg_grid_matches_paper_range() {
        let grid = initial_bg_values();
        assert_eq!(grid.len(), 7);
        assert_eq!(grid[0], 80.0);
        assert_eq!(grid[6], 200.0);
    }
}
