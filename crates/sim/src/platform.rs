//! The two closed-loop evaluation platforms of the paper.

use aps_controllers::basal_bolus::{BasalBolusController, BasalBolusProfile};
use aps_controllers::oref0::{Oref0Controller, Oref0Profile};
use aps_controllers::Controller;
use aps_fault::InjectionTarget;
use aps_glucose::bergman::BergmanPatient;
use aps_glucose::dalla_man::DallaManPatient;
use aps_glucose::patients::{self, CohortPatient};
use aps_glucose::{BoxedPatient, PatientSim};
use aps_types::{MgDl, UnitsPerHour};
use serde::{Deserialize, Serialize};

/// A simulator + controller pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Platform {
    /// OpenAPS-style controller on the Glucosym-style (Bergman/GIM)
    /// cohort — the paper's main case study.
    GlucosymOref0,
    /// Basal-Bolus controller on the UVA-Padova-style (Dalla Man)
    /// cohort — the generalization case study.
    T1dsBasalBolus,
}

impl Platform {
    /// Both platforms, in paper order.
    pub const ALL: [Platform; 2] = [Platform::GlucosymOref0, Platform::T1dsBasalBolus];

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Platform::GlucosymOref0 => "glucosym+oref0",
            Platform::T1dsBasalBolus => "t1ds+basal-bolus",
        }
    }

    /// The platform's ten-patient cohort.
    pub fn patients(&self) -> Vec<BoxedPatient> {
        match self {
            Platform::GlucosymOref0 => patients::glucosym_cohort(),
            Platform::T1dsBasalBolus => patients::t1ds_cohort(),
        }
    }

    /// One cohort member by index (`None` when out of range).
    pub fn patient(&self, index: usize) -> Option<BoxedPatient> {
        Some(match self.concrete_patient(index)? {
            CohortPatient::Bergman(p) => Box::new(p),
            CohortPatient::DallaMan(p) => Box::new(p),
        })
    }

    /// One cohort member by index without type erasure — the form a
    /// campaign job holds, so the batched lockstep engine can load it
    /// into the matching structure-of-arrays bank. Indexing matches
    /// [`patients`](Platform::patients) order (the order campaign jobs
    /// reference by `patient_idx`).
    ///
    /// The cohort's parameter list is drawn in full (its seeded stream
    /// is sequential), but only member `index` is built.
    pub fn concrete_patient(&self, index: usize) -> Option<CohortPatient> {
        match self {
            Platform::GlucosymOref0 => patients::glucosym_params()
                .into_iter()
                .nth(index)
                .map(|p| CohortPatient::Bergman(BergmanPatient::new(p))),
            Platform::T1dsBasalBolus => patients::t1ds_params()
                .into_iter()
                .nth(index)
                .map(|p| CohortPatient::DallaMan(DallaManPatient::new(p))),
        }
    }

    /// Cohort size (every platform ships ten virtual patients).
    pub fn cohort_size(&self) -> usize {
        patients::COHORT_SIZE
    }

    /// Builds the platform's controller tuned to a patient (basal rate
    /// from the patient's 120 mg/dL equilibrium).
    pub fn controller_for(&self, patient: &dyn PatientSim) -> Box<dyn Controller> {
        self.controller_with_basal(self.basal_for(patient))
    }

    /// Builds the platform's controller around a basal rate already
    /// solved by [`basal_for`](Platform::basal_for).
    pub fn controller_with_basal(&self, basal: UnitsPerHour) -> Box<dyn Controller> {
        let basal = basal.value();
        match self {
            Platform::GlucosymOref0 => Box::new(Oref0Controller::new(Oref0Profile {
                basal,
                max_basal: (4.0 * basal).max(2.0),
                ..Oref0Profile::default()
            })),
            Platform::T1dsBasalBolus => Box::new(BasalBolusController::new(BasalBolusProfile {
                basal,
                max_rate: (6.0 * basal).max(2.0),
                ..BasalBolusProfile::default()
            })),
        }
    }

    /// The controller's basal rate for a patient (monitor context
    /// reference).
    pub fn basal_for(&self, patient: &dyn PatientSim) -> UnitsPerHour {
        UnitsPerHour(patient.equilibrium_basal(MgDl(120.0)).value().max(0.05))
    }

    /// The regulation target of the platform's controller.
    pub fn target(&self) -> MgDl {
        match self {
            Platform::GlucosymOref0 => MgDl(Oref0Profile::default().target_bg),
            Platform::T1dsBasalBolus => MgDl(BasalBolusProfile::default().target_bg),
        }
    }

    /// The maximum rate the platform's mitigation may command on a
    /// predicted H2.
    ///
    /// The paper deliberately uses "a fixed maximum value of insulin to
    /// enable a fair comparison with baseline non-context-aware
    /// monitors" — fixed across patients, so over-mitigation of false
    /// alarms is genuinely dangerous for insulin-sensitive patients
    /// (the source of Table VII's "new hazards" column).
    pub fn max_mitigation_rate(&self, _patient: &dyn PatientSim) -> UnitsPerHour {
        match self {
            Platform::GlucosymOref0 => UnitsPerHour(6.0),
            Platform::T1dsBasalBolus => UnitsPerHour(8.0),
        }
    }

    /// Fault-injection targets for the platform's controller: its
    /// injectable state variables with offsets scaled to each range.
    pub fn injection_targets(&self, patient: &dyn PatientSim) -> Vec<InjectionTarget> {
        let controller = self.controller_for(patient);
        controller
            .state_vars()
            .into_iter()
            .map(|v| InjectionTarget::with_span(v.name, v.max - v.min))
            .collect()
    }

    /// [`injection_targets`](Platform::injection_targets) with the
    /// extended fault-kind alphabet (gain errors, sensor drift,
    /// deterministic jitter, flapping dropouts) parameterized per
    /// variable range.
    pub fn injection_targets_extended(&self, patient: &dyn PatientSim) -> Vec<InjectionTarget> {
        let controller = self.controller_for(patient);
        controller
            .state_vars()
            .into_iter()
            .map(|v| InjectionTarget::with_span_extended(v.name, v.max - v.min))
            .collect()
    }

    /// Names of the three primary injection targets used by the
    /// scaled-down default campaigns (input, internal state, output).
    pub const PRIMARY_TARGET_NAMES: [&'static str; 3] = ["glucose", "iob", "rate"];

    /// The three primary injection targets
    /// ([`PRIMARY_TARGET_NAMES`](Platform::PRIMARY_TARGET_NAMES)).
    pub fn primary_targets(&self, patient: &dyn PatientSim) -> Vec<InjectionTarget> {
        self.injection_targets(patient)
            .into_iter()
            .filter(|t| Platform::PRIMARY_TARGET_NAMES.contains(&t.name.as_str()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platforms_build_cohorts_and_controllers() {
        for platform in Platform::ALL {
            let cohort = platform.patients();
            assert_eq!(cohort.len(), 10, "{}", platform.name());
            let controller = platform.controller_for(cohort[0].as_ref());
            assert!(controller.basal_rate().value() > 0.0);
            assert!(platform.target().value() > 100.0);
        }
    }

    #[test]
    fn injection_targets_cover_io_and_state() {
        let platform = Platform::GlucosymOref0;
        let patient = platform.patients().remove(0);
        let targets = platform.injection_targets(patient.as_ref());
        let names: Vec<&str> = targets.iter().map(|t| t.name.as_str()).collect();
        assert!(names.contains(&"glucose"));
        assert!(names.contains(&"rate"));
        assert!(names.contains(&"iob"));
        let primary = platform.primary_targets(patient.as_ref());
        assert_eq!(primary.len(), 3);
    }

    #[test]
    fn mitigation_rate_scales_with_basal() {
        let platform = Platform::GlucosymOref0;
        let patient = platform.patients().remove(0);
        let max = platform.max_mitigation_rate(patient.as_ref());
        assert!(max.value() >= 2.0);
    }
}
