//! One closed-loop simulation run.

use aps_controllers::Controller;
use aps_core::hms::ContextMitigatorConfig;
use aps_core::mitigation::Mitigator;
use aps_core::monitors::HazardMonitor;
use aps_fault::FaultInjector;
use aps_glucose::pump::PumpConfig;
use aps_glucose::sensor::CgmConfig;
use aps_glucose::PatientSim;
use aps_risk::LabelConfig;
use aps_types::{SimTrace, Step};
use serde::{Deserialize, Serialize};

/// A scheduled meal: `carbs_g` grams of carbohydrate ingested at the
/// start of control cycle `step`.
///
/// The paper's simulations assume no meals ("mimicking a scenario of
/// patient eating dinner, going to sleep"); scheduling meals exercises
/// the simulators' gut-absorption subsystems and stresses monitors
/// with legitimate glucose excursions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Meal {
    /// Control cycle at which the meal is eaten.
    pub step: Step,
    /// Carbohydrate content (grams).
    pub carbs_g: f64,
    /// Whether the patient announces the meal to the controller (which
    /// may dose a prandial bolus; see
    /// [`Controller::announce_meal`]).
    ///
    /// [`Controller::announce_meal`]: aps_controllers::Controller::announce_meal
    pub announced: bool,
}

impl Meal {
    /// An unannounced meal (the harder, purely reactive case).
    pub fn new(step: Step, carbs_g: f64) -> Meal {
        Meal {
            step,
            carbs_g,
            announced: false,
        }
    }

    /// An announced meal: the controller is told the carbs and may
    /// bolus for them.
    pub fn announced(step: Step, carbs_g: f64) -> Meal {
        Meal {
            step,
            carbs_g,
            announced: true,
        }
    }
}

/// A scheduled exercise bout: at control cycle `step` the patient
/// starts `duration_min` minutes of activity at `intensity` (0–1),
/// which elevates insulin-independent glucose uptake in the patient
/// models — the second disturbance class (besides [`Meal`]s) the
/// paper's overnight scenario excludes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExerciseBout {
    /// Control cycle at which the bout starts.
    pub step: Step,
    /// Intensity, 0 = rest to 1 = brisk aerobic exercise.
    pub intensity: f64,
    /// Duration in minutes.
    pub duration_min: f64,
}

impl ExerciseBout {
    /// Convenience constructor.
    pub fn new(step: Step, intensity: f64, duration_min: f64) -> ExerciseBout {
        ExerciseBout {
            step,
            intensity,
            duration_min,
        }
    }
}

/// Configuration of one closed-loop run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopConfig {
    /// Number of control cycles (paper: 150 ≈ 12 h).
    pub steps: u32,
    /// Initial true glucose (mg/dL).
    pub initial_bg: f64,
    /// CGM model.
    pub cgm: CgmConfig,
    /// Pump model.
    pub pump: PumpConfig,
    /// Hazard labeling configuration.
    pub labels: LabelConfig,
    /// When set, monitor alerts trigger Algorithm-1 mitigation.
    pub mitigator: Option<Mitigator>,
    /// When set, monitor alerts instead trigger the context-dependent
    /// mitigation policy (takes precedence over [`mitigator`]).
    ///
    /// [`mitigator`]: LoopConfig::mitigator
    #[serde(default)]
    pub context_mitigation: Option<ContextMitigatorConfig>,
    /// Meals ingested during the run (default: none, the paper's
    /// overnight scenario).
    #[serde(default)]
    pub meals: Vec<Meal>,
    /// Exercise bouts during the run (default: none).
    #[serde(default)]
    pub exercise: Vec<ExerciseBout>,
}

impl Default for LoopConfig {
    fn default() -> LoopConfig {
        LoopConfig {
            steps: 150,
            initial_bg: 120.0,
            cgm: CgmConfig::default(),
            pump: PumpConfig::default(),
            labels: LabelConfig::default(),
            mitigator: None,
            context_mitigation: None,
            meals: Vec::new(),
            exercise: Vec::new(),
        }
    }
}

/// Runs one closed-loop simulation (legacy positional entry point).
///
/// This is a documented thin wrapper over the closed-loop cycle every
/// engine shares — the same cycle that powers
/// [`Session::run`](crate::session::Session) and the campaign
/// executors — retained for source compatibility. New
/// code should prefer [`Session::builder`](crate::session::Session),
/// which accepts any number of monitors (recorded as
/// [`monitor_tracks`](aps_types::SimTrace::monitor_tracks)), a
/// per-step observer, and — unlike this function, which silently
/// treats an unknown fault-target name as an *unbounded* variable —
/// validates the fault target at build time.
///
/// The monitor (when present) sees the *clean* CGM reading and the
/// controller's (possibly fault-corrupted) command — the paper's threat
/// model assumes sensor data is protected and faults target the
/// controller. The injector perturbs the controller's named input /
/// internal / output variables while its activation window is open.
///
/// # Panics
///
/// Panics if the patient ODE state becomes non-finite mid-run (the
/// session API offers [`Session::try_run`](crate::session::Session)
/// for the typed error; this frozen positional signature stays
/// infallible).
pub fn run(
    patient: &mut dyn PatientSim,
    controller: &mut dyn Controller,
    monitor: Option<&mut (dyn HazardMonitor + 'static)>,
    injector: Option<&mut FaultInjector>,
    config: &LoopConfig,
) -> SimTrace {
    crate::engine::run_one(
        patient,
        controller,
        monitor.map(|m| m as &mut dyn HazardMonitor),
        injector,
        config,
        None,
    )
    .unwrap_or_else(|e| panic!("closed-loop run failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;
    use aps_core::monitors::NullMonitor;
    use aps_fault::{FaultKind, FaultScenario};

    #[test]
    fn fault_free_run_stays_safe() {
        let platform = Platform::GlucosymOref0;
        let mut patient = platform.patients().remove(0);
        let mut controller = platform.controller_for(patient.as_ref());
        let config = LoopConfig::default();
        let trace = run(patient.as_mut(), controller.as_mut(), None, None, &config);
        assert_eq!(trace.len(), 150);
        assert!(
            !trace.is_hazardous(),
            "fault-free run should be safe; onset {:?}, bg range {:?}..{:?}",
            trace.meta.hazard_onset,
            trace
                .bg_true_series()
                .iter()
                .cloned()
                .fold(f64::INFINITY, f64::min),
            trace
                .bg_true_series()
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max),
        );
        assert!(trace.meta.fault_start.is_none());
    }

    #[test]
    fn max_rate_fault_causes_hypoglycemia_hazard() {
        let platform = Platform::GlucosymOref0;
        let mut patient = platform.patients().remove(0);
        let mut controller = platform.controller_for(patient.as_ref());
        let scenario = FaultScenario::new("rate", FaultKind::Max, Step(20), 36);
        let mut injector = FaultInjector::new(scenario);
        let config = LoopConfig::default();
        let trace = run(
            patient.as_mut(),
            controller.as_mut(),
            None,
            Some(&mut injector),
            &config,
        );
        assert!(injector.activations() > 0, "fault never activated");
        assert!(
            trace.is_hazardous(),
            "3 hours of max-rate insulin should be hazardous; min BG {}",
            trace
                .bg_true_series()
                .iter()
                .cloned()
                .fold(f64::INFINITY, f64::min)
        );
        assert_eq!(trace.meta.hazard_type, Some(aps_types::Hazard::H1));
        assert!(trace.records.iter().any(|r| r.fault_active));
    }

    #[test]
    fn monitor_alerts_are_recorded() {
        let platform = Platform::GlucosymOref0;
        let mut patient = platform.patients().remove(0);
        let mut controller = platform.controller_for(patient.as_ref());
        let mut monitor = NullMonitor;
        let config = LoopConfig::default();
        let trace = run(
            patient.as_mut(),
            controller.as_mut(),
            Some(&mut monitor),
            None,
            &config,
        );
        assert!(trace.first_alert().is_none());
    }

    #[test]
    fn runs_are_deterministic() {
        let platform = Platform::GlucosymOref0;
        let config = LoopConfig::default();
        let scenario = FaultScenario::new("glucose", FaultKind::Max, Step(30), 12);
        let mk = || {
            let mut patient = platform.patients().remove(2);
            let mut controller = platform.controller_for(patient.as_ref());
            let mut injector = FaultInjector::new(scenario.clone());
            run(
                patient.as_mut(),
                controller.as_mut(),
                None,
                Some(&mut injector),
                &config,
            )
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn meals_produce_excursions_the_controller_absorbs() {
        let platform = Platform::GlucosymOref0;
        let mut patient = platform.patients().remove(0);
        let mut controller = platform.controller_for(patient.as_ref());
        let config = LoopConfig {
            steps: 150,
            meals: vec![Meal::new(Step(30), 45.0)],
            ..LoopConfig::default()
        };
        let trace = run(patient.as_mut(), controller.as_mut(), None, None, &config);
        let bg = trace.bg_true_series();
        let pre_meal = bg[..30].iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let post_peak = bg[30..90].iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            post_peak > pre_meal + 20.0,
            "45 g of carbs barely moved BG ({pre_meal} -> {post_peak})"
        );
        // The controller brings the excursion back toward target by
        // the end of the run.
        let last = *bg.last().unwrap();
        assert!(
            last < post_peak - 10.0,
            "no post-meal regulation ({post_peak} -> {last})"
        );
    }

    #[test]
    fn meal_day_is_not_labeled_hazardous() {
        // Moderate meals on both platforms: a legitimate disturbance,
        // not a hazard. The reactive oref0 platform handles
        // unannounced meals; the basal–bolus protocol (which by design
        // doses per announced carbs) gets announcements and smaller
        // portions — its pump-rate-limited bolus cannot blunt a large
        // unannounced-scale excursion, and the HBGI-based labeling
        // (tuned for the paper's no-meal overnight runs) flags
        // sustained climbs past ≈210 mg/dL.
        for platform in Platform::ALL {
            let mut patient = platform.patients().remove(0);
            let mut controller = platform.controller_for(patient.as_ref());
            let meals = match platform {
                Platform::GlucosymOref0 => vec![
                    Meal::new(Step(10), 30.0),
                    Meal::new(Step(60), 40.0),
                    Meal::new(Step(110), 35.0),
                ],
                Platform::T1dsBasalBolus => vec![
                    Meal::announced(Step(10), 20.0),
                    Meal::announced(Step(60), 25.0),
                    Meal::announced(Step(110), 20.0),
                ],
            };
            let config = LoopConfig {
                steps: 150,
                meals,
                ..LoopConfig::default()
            };
            let trace = run(patient.as_mut(), controller.as_mut(), None, None, &config);
            assert!(
                !trace.is_hazardous(),
                "{}: meal day labeled hazardous (onset {:?})",
                platform.name(),
                trace.meta.hazard_onset
            );
        }
    }

    #[test]
    fn exercise_bout_depresses_glucose_during_the_window() {
        let platform = Platform::GlucosymOref0;
        let run_with = |bouts: Vec<ExerciseBout>| -> Vec<f64> {
            let mut patient = platform.patients().remove(0);
            let mut controller = platform.controller_for(patient.as_ref());
            let config = LoopConfig {
                steps: 100,
                exercise: bouts,
                ..LoopConfig::default()
            };
            run(patient.as_mut(), controller.as_mut(), None, None, &config).bg_true_series()
        };
        let rest = run_with(vec![]);
        let active = run_with(vec![ExerciseBout::new(Step(20), 0.8, 60.0)]);
        // During the bout (steps 20..32) BG must dip below the resting run.
        let dip: f64 = (22..32)
            .map(|i| rest[i] - active[i])
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            dip > 3.0,
            "exercise left no mark on the trajectory (max dip {dip:.1})"
        );
        // Long after the bout the two runs re-converge.
        let tail_gap = (rest[99] - active[99]).abs();
        assert!(
            tail_gap < 15.0,
            "loop failed to re-regulate after exercise ({tail_gap:.1})"
        );
    }

    #[test]
    fn announcing_a_meal_shrinks_the_excursion() {
        let platform = Platform::T1dsBasalBolus;
        let peak = |announced: bool| -> f64 {
            let mut patient = platform.patients().remove(0);
            let mut controller = platform.controller_for(patient.as_ref());
            let meal = if announced {
                Meal::announced(Step(20), 40.0)
            } else {
                Meal::new(Step(20), 40.0)
            };
            let config = LoopConfig {
                steps: 120,
                meals: vec![meal],
                ..LoopConfig::default()
            };
            let trace = run(patient.as_mut(), controller.as_mut(), None, None, &config);
            trace
                .bg_true_series()
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max)
        };
        let unannounced = peak(false);
        let announced = peak(true);
        assert!(
            announced < unannounced - 15.0,
            "prandial bolus should blunt the peak ({announced:.0} vs {unannounced:.0})"
        );
    }

    #[test]
    fn t1ds_platform_also_runs() {
        let platform = Platform::T1dsBasalBolus;
        let mut patient = platform.patients().remove(0);
        let mut controller = platform.controller_for(patient.as_ref());
        let config = LoopConfig {
            steps: 60,
            ..LoopConfig::default()
        };
        let trace = run(patient.as_mut(), controller.as_mut(), None, None, &config);
        assert_eq!(trace.len(), 60);
        let min_bg = trace
            .bg_true_series()
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert!(min_bg > 40.0, "basal-bolus loop collapsed to {min_bg}");
    }
}
