//! Composable simulation sessions: the primary entry point of the
//! closed-loop harness.
//!
//! A [`Session`] owns everything one closed-loop run needs — patient,
//! controller, any number of hazard monitors, an optional fault
//! injector, the [`LoopConfig`], and an optional per-step observer —
//! and is assembled fluently:
//!
//! ```
//! use aps_sim::platform::Platform;
//! use aps_sim::session::{MonitorSpec, Session};
//! use aps_fault::{FaultKind, FaultScenario};
//! use aps_types::Step;
//!
//! let trace = Session::builder(Platform::GlucosymOref0)
//!     .patient(0)
//!     .monitor_spec(MonitorSpec::Cawot)
//!     .monitor_spec(MonitorSpec::RiskIndex)
//!     .inject(FaultScenario::new("rate", FaultKind::Max, Step(20), 36))
//!     .run()
//!     .expect("valid session");
//! assert_eq!(trace.len(), 150);
//! // One physics pass, two alert streams:
//! assert_eq!(trace.monitor_tracks.len(), 2);
//! ```
//!
//! Runs compose *as data* too: a serde [`SessionSpec`] names the
//! platform, patient, monitors, fault, and loop configuration, and
//! [`Session::from_spec`] turns it into a runnable session (the
//! `repro run --spec file.json` subcommand is exactly this).
//!
//! This module only assembles runs; it holds no control loop. A session
//! runs as the one-lane instance of the closed-loop cycle every engine
//! shares, the same cycle a campaign group runs as lanes of
//! [batched physics banks](crate::batch). The
//! legacy positional entry point [`closed_loop::run`] runs that cycle
//! too and remains supported; new code should prefer the builder, which
//! validates the fault target at build time instead of silently
//! treating an unknown variable as unbounded.
//!
//! [`closed_loop::run`]: crate::closed_loop::run

use crate::closed_loop::LoopConfig;
use crate::outcome::SimError;
use crate::platform::Platform;
use aps_controllers::Controller;
use aps_core::monitors::{
    CawMonitor, GuidelineConfig, GuidelineMonitor, HazardMonitor, MpcMonitor, NullMonitor,
    RiskIndexMonitor,
};
use aps_core::scs::Scs;
use aps_fault::{FaultInjector, FaultScenario};
use aps_glucose::{BoxedPatient, PatientSim};
use aps_types::{SimTrace, StepRecord};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a [`SessionBuilder`] could not produce a runnable [`Session`].
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// The requested cohort index does not exist on the platform.
    PatientIndex {
        /// Requested index.
        index: usize,
        /// Cohort size of the platform.
        cohort: usize,
    },
    /// The fault scenario targets a variable the controller does not
    /// expose — the legacy path silently injected with *unbounded*
    /// range here, which no experiment ever wants.
    UnknownFaultTarget {
        /// The scenario's target name.
        target: String,
        /// The names the controller actually exposes.
        valid: Vec<String>,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::PatientIndex { index, cohort } => write!(
                f,
                "patient index {index} out of range (cohort has {cohort} patients)"
            ),
            SessionError::UnknownFaultTarget { target, valid } => write!(
                f,
                "fault targets unknown controller variable `{target}` \
                 (injectable variables: {})",
                valid.join(", ")
            ),
        }
    }
}

impl std::error::Error for SessionError {}

/// A monitor named *as data*.
///
/// These are the zoo members a [`SessionSpec`] can request from a JSON
/// file: everything that needs only the platform context (target BG
/// and the patient's basal rate). Monitors requiring training — CAWT's
/// learned thresholds, the DT/MLP/LSTM classifier baselines — are
/// constructed in code (e.g. via the bench crate's `Zoo`) and attached
/// with [`SessionBuilder::monitor`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MonitorSpec {
    /// The never-alerting baseline.
    Null,
    /// Medical-guidelines baseline (Table III).
    Guideline,
    /// Model-predictive-control baseline (Eq. 6).
    Mpc,
    /// Context-aware monitor with guideline-default thresholds.
    Cawot,
    /// Streaming BG-risk-index ground truth (the reaction-time floor).
    RiskIndex,
}

impl MonitorSpec {
    /// Builds the monitor for a platform/patient pairing.
    pub fn build(&self, platform: Platform, patient: &dyn PatientSim) -> Box<dyn HazardMonitor> {
        match self {
            MonitorSpec::Null => Box::new(NullMonitor),
            MonitorSpec::Guideline => Box::new(GuidelineMonitor::new(GuidelineConfig::default())),
            MonitorSpec::Mpc => Box::new(MpcMonitor::population()),
            MonitorSpec::Cawot => Box::new(CawMonitor::new(
                "cawot",
                Scs::with_default_thresholds(platform.target()),
                platform.basal_for(patient),
            )),
            MonitorSpec::RiskIndex => Box::new(RiskIndexMonitor::default()),
        }
    }
}

/// One closed-loop run described entirely as data.
///
/// ```json
/// {
///   "platform": "GlucosymOref0",
///   "patient": 0,
///   "monitors": ["Cawot", "RiskIndex"],
///   "fault": { "target": "rate", "kind": "Max", "start": 20, "duration": 36 }
/// }
/// ```
///
/// Every field except `platform` is optional; `config` defaults to the
/// paper's 150-step overnight run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSpec {
    /// Which simulator/controller pairing.
    pub platform: Platform,
    /// Cohort index of the patient (0..10).
    #[serde(default)]
    pub patient: usize,
    /// Monitors to run against the single physics pass, primary first.
    #[serde(default)]
    pub monitors: Vec<MonitorSpec>,
    /// Fault scenario to inject (None = fault-free).
    #[serde(default)]
    pub fault: Option<FaultScenario>,
    /// Loop configuration (steps, initial BG, CGM/pump models, meals…).
    #[serde(default)]
    pub config: LoopConfig,
}

impl SessionSpec {
    /// A fault-free overnight run on `platform`'s first patient.
    pub fn new(platform: Platform) -> SessionSpec {
        SessionSpec {
            platform,
            patient: 0,
            monitors: Vec::new(),
            fault: None,
            config: LoopConfig::default(),
        }
    }
}

/// How the builder was given a monitor: ready-made or as data.
enum MonitorSel {
    Boxed(Box<dyn HazardMonitor>),
    Spec(MonitorSpec),
}

/// A per-step observer callback (see [`SessionBuilder::observer`]).
pub type Observer<'obs> = Box<dyn FnMut(&StepRecord) + 'obs>;

/// Fluent assembly of a [`Session`]; see the [module docs](self).
///
/// The lifetime parameter bounds the optional observer callback; with
/// no observer it is inferred as `'static`.
pub struct SessionBuilder<'obs> {
    platform: Platform,
    patient_index: usize,
    patient: Option<BoxedPatient>,
    controller: Option<Box<dyn Controller>>,
    monitors: Vec<MonitorSel>,
    scenario: Option<FaultScenario>,
    config: LoopConfig,
    observer: Option<Observer<'obs>>,
}

impl<'obs> SessionBuilder<'obs> {
    fn new(platform: Platform) -> SessionBuilder<'obs> {
        SessionBuilder {
            platform,
            patient_index: 0,
            patient: None,
            controller: None,
            monitors: Vec::new(),
            scenario: None,
            config: LoopConfig::default(),
            observer: None,
        }
    }

    /// Selects the cohort patient by index (default 0; validated by
    /// [`build`](SessionBuilder::build)).
    pub fn patient(mut self, index: usize) -> Self {
        self.patient_index = index;
        self.patient = None;
        self
    }

    /// Supplies a custom patient simulator instead of a cohort member.
    pub fn patient_sim(mut self, patient: BoxedPatient) -> Self {
        self.patient = Some(patient);
        self
    }

    /// Supplies a custom controller (default: the platform's controller
    /// tuned to the patient's equilibrium basal).
    pub fn controller(mut self, controller: Box<dyn Controller>) -> Self {
        self.controller = Some(controller);
        self
    }

    /// Attaches a monitor. Repeatable: every monitor added here is
    /// stepped against the session's one physics pass and gets its own
    /// alert stream in [`SimTrace::monitor_tracks`]; the *first*
    /// monitor is the primary one whose alerts drive mitigation (when
    /// enabled) and fill the classic [`StepRecord::alert`] column.
    /// Under active mitigation the other streams therefore describe how
    /// each monitor judges the *mitigated* loop, not the loop it would
    /// itself have produced.
    pub fn monitor(mut self, monitor: Box<dyn HazardMonitor>) -> Self {
        self.monitors.push(MonitorSel::Boxed(monitor));
        self
    }

    /// Attaches a monitor named as data (repeatable, same semantics as
    /// [`monitor`](SessionBuilder::monitor)); resolved against the
    /// platform/patient context at build time.
    pub fn monitor_spec(mut self, spec: MonitorSpec) -> Self {
        self.monitors.push(MonitorSel::Spec(spec));
        self
    }

    /// Injects a fault scenario. The target variable is validated at
    /// build time against the controller's injectable surface.
    pub fn inject(mut self, scenario: FaultScenario) -> Self {
        self.scenario = Some(scenario);
        self
    }

    /// Sets the loop configuration (default: [`LoopConfig::default`]).
    pub fn config(mut self, config: LoopConfig) -> Self {
        self.config = config;
        self
    }

    /// Registers a per-step observer: called once per control cycle
    /// with the freshly recorded [`StepRecord`], *before* post-hoc
    /// hazard labeling (so `hazard` is always `None` in the callback).
    /// This is the hook for live sinks — progress bars, streaming
    /// writers, online dashboards.
    pub fn observer(mut self, observer: impl FnMut(&StepRecord) + 'obs) -> Self {
        self.observer = Some(Box::new(observer));
        self
    }

    /// Validates the configuration and assembles the [`Session`].
    ///
    /// # Errors
    ///
    /// [`SessionError::PatientIndex`] for an out-of-range cohort index;
    /// [`SessionError::UnknownFaultTarget`] when the fault scenario
    /// names a variable the controller does not expose (the legacy
    /// [`closed_loop::run`](crate::closed_loop::run) silently injected
    /// with infinite bounds instead).
    pub fn build(self) -> Result<Session<'obs>, SessionError> {
        let platform = self.platform;
        let patient = match self.patient {
            Some(p) => p,
            None => platform
                .patient(self.patient_index)
                .ok_or(SessionError::PatientIndex {
                    index: self.patient_index,
                    cohort: platform.cohort_size(),
                })?,
        };
        let controller = self
            .controller
            .unwrap_or_else(|| platform.controller_for(patient.as_ref()));

        if let Some(scenario) = &self.scenario {
            let mut valid: Vec<String> = controller
                .state_vars()
                .iter()
                .map(|v| v.name.to_owned())
                .collect();
            for builtin in ["rate", "glucose"] {
                if !valid.iter().any(|v| v == builtin) {
                    valid.push(builtin.to_owned());
                }
            }
            if !valid.iter().any(|v| v == &scenario.target) {
                return Err(SessionError::UnknownFaultTarget {
                    target: scenario.target.clone(),
                    valid,
                });
            }
        }

        let monitors = self
            .monitors
            .into_iter()
            .map(|sel| match sel {
                MonitorSel::Boxed(m) => m,
                MonitorSel::Spec(s) => s.build(platform, patient.as_ref()),
            })
            .collect();

        Ok(Session {
            platform,
            patient,
            controller,
            monitors,
            injector: self.scenario.map(FaultInjector::new),
            config: self.config,
            observer: self.observer,
        })
    }

    /// [`build`](SessionBuilder::build) + [`Session::run`] in one call.
    ///
    /// # Errors
    ///
    /// Propagates [`build`](SessionBuilder::build) errors.
    pub fn run(self) -> Result<SimTrace, SessionError> {
        Ok(self.build()?.run())
    }
}

/// A fully assembled closed-loop run, ready to execute (repeatedly —
/// every [`run`](Session::run) resets all components first, and runs
/// are deterministic).
pub struct Session<'obs> {
    platform: Platform,
    patient: BoxedPatient,
    controller: Box<dyn Controller>,
    monitors: Vec<Box<dyn HazardMonitor>>,
    injector: Option<FaultInjector>,
    config: LoopConfig,
    observer: Option<Observer<'obs>>,
}

impl Session<'static> {
    /// Builds a session from its data description.
    ///
    /// # Errors
    ///
    /// Same as [`SessionBuilder::build`].
    pub fn from_spec(spec: &SessionSpec) -> Result<Session<'static>, SessionError> {
        let mut builder = Session::builder(spec.platform)
            .patient(spec.patient)
            .config(spec.config.clone());
        for m in &spec.monitors {
            builder = builder.monitor_spec(m.clone());
        }
        if let Some(fault) = &spec.fault {
            builder = builder.inject(fault.clone());
        }
        builder.build()
    }
}

impl<'obs> Session<'obs> {
    /// Starts assembling a session on `platform`.
    pub fn builder(platform: Platform) -> SessionBuilder<'obs> {
        SessionBuilder::new(platform)
    }

    /// The platform this session runs on.
    pub fn platform(&self) -> Platform {
        self.platform
    }

    /// The patient's qualified name.
    pub fn patient_name(&self) -> &str {
        self.patient.name()
    }

    /// Names of the attached monitors, primary first.
    pub fn monitor_names(&self) -> Vec<String> {
        self.monitors.iter().map(|m| m.name().to_owned()).collect()
    }

    /// The loop configuration.
    pub fn config(&self) -> &LoopConfig {
        &self.config
    }

    /// Executes the closed loop once: a single physics pass, however
    /// many monitors are attached. Produces the labeled trace, with one
    /// [`AlertTrack`](aps_types::AlertTrack) per monitor in `monitor_tracks`.
    ///
    /// # Panics
    ///
    /// Panics if the patient ODE state becomes non-finite (NaN/∞)
    /// mid-run. Use [`try_run`](Session::try_run) to receive the
    /// typed [`SimError`] instead; the fault-tolerant campaign
    /// executor does, and ledgers it.
    pub fn run(&mut self) -> SimTrace {
        self.try_run()
            .unwrap_or_else(|e| panic!("session failed: {e}"))
    }

    /// Executes the closed loop once, surfacing mid-run failures as a
    /// typed [`SimError`] instead of a panic.
    ///
    /// # Errors
    ///
    /// [`SimError::NonFinite`] when the patient ODE state leaves the
    /// representable range at some control cycle (caught by the RK4
    /// finiteness guard plus the engine's per-cycle
    /// [`PatientSim::state_is_finite`] check).
    pub fn try_run(&mut self) -> Result<SimTrace, SimError> {
        crate::engine::run_one(
            self.patient.as_mut(),
            self.controller.as_mut(),
            self.monitors
                .iter_mut()
                .map(|m| m.as_mut() as &mut dyn HazardMonitor),
            self.injector.as_mut(),
            &self.config,
            self.observer
                .as_mut()
                .map(|o| &mut **o as &mut dyn FnMut(&StepRecord)),
        )
    }
}

impl fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("platform", &self.platform.name())
            .field("patient", &self.patient.name())
            .field("monitors", &self.monitor_names())
            .field(
                "fault",
                &self.injector.as_ref().map(|i| i.scenario().name()),
            )
            .field("steps", &self.config.steps)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closed_loop;
    use aps_fault::FaultKind;
    use aps_types::Step;

    #[test]
    fn builder_run_matches_legacy_monitorless_run() {
        let platform = Platform::GlucosymOref0;
        let scenario = FaultScenario::new("rate", FaultKind::Max, Step(20), 36);

        let mut patient = platform.patients().remove(0);
        let mut controller = platform.controller_for(patient.as_ref());
        let mut injector = FaultInjector::new(scenario.clone());
        let legacy = closed_loop::run(
            patient.as_mut(),
            controller.as_mut(),
            None,
            Some(&mut injector),
            &LoopConfig::default(),
        );

        let session = Session::builder(platform)
            .patient(0)
            .inject(scenario)
            .run()
            .unwrap();
        assert_eq!(session, legacy);
    }

    #[test]
    fn bank_records_one_track_per_monitor() {
        let platform = Platform::GlucosymOref0;
        let trace = Session::builder(platform)
            .monitor_spec(MonitorSpec::Guideline)
            .monitor_spec(MonitorSpec::Cawot)
            .monitor_spec(MonitorSpec::RiskIndex)
            .inject(FaultScenario::new("rate", FaultKind::Max, Step(20), 36))
            .run()
            .unwrap();
        assert_eq!(trace.monitor_tracks.len(), 3);
        for track in &trace.monitor_tracks {
            assert_eq!(track.alerts.len(), trace.len(), "{}", track.monitor);
        }
        // Primary stream mirrors the classic alert column.
        let column: Vec<_> = trace.records.iter().map(|r| r.alert).collect();
        assert_eq!(trace.monitor_tracks[0].alerts, column);
        assert_eq!(trace.track("cawot").unwrap().alerts.len(), trace.len());
    }

    #[test]
    fn monitors_keep_attach_order() {
        let platform = Platform::GlucosymOref0;
        let mut session = Session::builder(platform)
            .monitor(Box::new(NullMonitor))
            .monitor_spec(MonitorSpec::Cawot)
            .monitor(Box::new(NullMonitor))
            .config(LoopConfig {
                steps: 20,
                ..LoopConfig::default()
            })
            .build()
            .unwrap();
        assert_eq!(session.monitor_names(), vec!["none", "cawot", "none"]);
        let tracks: Vec<String> = session
            .run()
            .monitor_tracks
            .into_iter()
            .map(|t| t.monitor)
            .collect();
        assert_eq!(tracks, session.monitor_names());
    }

    #[test]
    fn unknown_fault_target_is_rejected_at_build_time() {
        let platform = Platform::GlucosymOref0;
        let err = Session::builder(platform)
            .inject(FaultScenario::new("bogus_var", FaultKind::Max, Step(5), 5))
            .build()
            .unwrap_err();
        match &err {
            SessionError::UnknownFaultTarget { target, valid } => {
                assert_eq!(target, "bogus_var");
                assert!(valid.iter().any(|v| v == "glucose"));
                assert!(valid.iter().any(|v| v == "rate"));
            }
            other => panic!("wrong error: {other:?}"),
        }
        assert!(err.to_string().contains("bogus_var"));
    }

    #[test]
    fn removed_monitor_spec_is_rejected() {
        // A spec naming a monitor kind that no longer exists must fail to
        // parse rather than be silently dropped.
        let json = r#"{"platform": "GlucosymOref0",
            "monitors": ["Cawot", {"Forecast": {"path": "results/forecast_model.json"}}]}"#;
        assert!(serde_json::from_str::<SessionSpec>(json).is_err());
        let ok = r#"{"platform": "GlucosymOref0", "monitors": ["Cawot"]}"#;
        assert!(serde_json::from_str::<SessionSpec>(ok).is_ok());
    }

    #[test]
    fn patient_index_is_validated() {
        let err = Session::builder(Platform::GlucosymOref0)
            .patient(99)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            SessionError::PatientIndex {
                index: 99,
                cohort: 10
            }
        );
    }

    #[test]
    fn observer_sees_every_step_in_order() {
        let mut seen: Vec<u32> = Vec::new();
        let trace = Session::builder(Platform::GlucosymOref0)
            .config(LoopConfig {
                steps: 40,
                ..LoopConfig::default()
            })
            .observer(|rec: &StepRecord| seen.push(rec.step.0))
            .run()
            .unwrap();
        assert_eq!(trace.len(), 40);
        assert_eq!(seen, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn sessions_rerun_deterministically() {
        let mut session = Session::builder(Platform::T1dsBasalBolus)
            .patient(2)
            .monitor_spec(MonitorSpec::Mpc)
            .inject(FaultScenario::new("glucose", FaultKind::Min, Step(30), 24))
            .build()
            .unwrap();
        let a = session.run();
        let b = session.run();
        assert_eq!(a, b);
    }

    #[test]
    fn spec_roundtrips_and_builds() {
        let spec = SessionSpec {
            platform: Platform::GlucosymOref0,
            patient: 1,
            monitors: vec![MonitorSpec::Cawot, MonitorSpec::RiskIndex],
            fault: Some(FaultScenario::new("iob", FaultKind::Hold, Step(10), 20)),
            config: LoopConfig {
                steps: 60,
                ..LoopConfig::default()
            },
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: SessionSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);

        let trace = Session::from_spec(&back).unwrap().run();
        assert_eq!(trace.len(), 60);
        assert_eq!(trace.monitor_tracks.len(), 2);
        assert_eq!(trace.meta.fault_name, "hold_iob@t10x20");
    }

    #[test]
    fn minimal_spec_json_uses_defaults() {
        let spec: SessionSpec = serde_json::from_str(r#"{ "platform": "GlucosymOref0" }"#).unwrap();
        assert_eq!(spec, SessionSpec::new(Platform::GlucosymOref0));
        assert_eq!(spec.config.steps, 150);
    }
}
