//! The closed-loop cycle, written once.
//!
//! Every run executes [`run_lanes`] over `L` lanes: a
//! [`Session`](crate::session::Session), the positional
//! [`closed_loop::run`](crate::closed_loop::run), and a campaign job
//! run on its own are its one-lane instance ([`run_one`] puts the patient
//! behind a [`BatchedPatientSim<1>`] adapter), and a lockstep block of
//! [`BATCH_LANES`](crate::batch::BATCH_LANES) jobs is its batched
//! instance over a structure-of-arrays physics bank. Only physics is
//! batched. Every other stage runs per lane, on that lane's own
//! components, in the same order whatever the lane count — which is why
//! a lane of a block produces, bit for bit, the trace of the same run
//! alone.
//!
//! Per cycle, each live lane goes through meals/exercise → CGM → fault
//! route → decide → rate fault → classify → monitor bank → mitigate →
//! pump → observe delivery → record (+ observer); then the physics
//! steps every lane at once and each lane's state is checked for
//! finiteness.
//!
//! [`run_lanes`] runs a range of steps, so a run can pause at a step
//! boundary. A campaign group's fault-free trunk ([`crate::fork`])
//! pauses at each fault start, copies its lane's own state
//! ([`LaneState`]), and every faulty run of the group resumes from that
//! copy ([`Lane::resume`]) instead of re-running the steps before its
//! fault.
//!
//! Hazard labelling is part of a lane's state too. A lane labels its
//! records with its own labeller when it is forked ([`Lane::label`])
//! and when it finishes ([`Lane::finish`]), each time only the records
//! not labelled yet, so a resumed lane labels only its own steps.

use crate::closed_loop::LoopConfig;
use crate::outcome::SimError;
use aps_controllers::Controller;
use aps_core::hms::ContextMitigator;
use aps_core::monitors::{HazardMonitor, MonitorInput};
use aps_fault::FaultInjector;
use aps_glucose::pump::Pump;
use aps_glucose::sensor::Cgm;
use aps_glucose::{BatchedPatientSim, PatientSim};
use aps_risk::RiskTracker;
use aps_types::{
    AlertTrack, ControlAction, Hazard, MgDl, SimTrace, Step, StepRecord, TraceMeta, Units,
    UnitsPerHour, CONTROL_CYCLE_MINUTES,
};
use std::ops::Range;

/// Where the scenario's target variable sits in the control loop.
enum FaultRoute {
    /// Actuator command, perturbed after the controller decision.
    Rate,
    /// CGM input, perturbed before the decision.
    Glucose,
    /// Controller-internal variable.
    Internal,
}

/// A lane's fault injector with its target's route and legitimate
/// bounds, resolved once per run: the cycle compares no strings.
struct Fault<'a> {
    injector: &'a mut FaultInjector,
    route: FaultRoute,
    lo: f64,
    hi: f64,
}

impl Fault<'_> {
    /// Brings a fresh injector to the state it has after `step` steps
    /// of a fault-free prefix, as recorded in `trace`: before its start
    /// a fault only remembers the last value its route read (for a
    /// later `Hold`), so this replays the last step's read.
    /// `target_before` is the controller's value of the target as of
    /// that step, read by an internal-variable route.
    fn catch_up(&mut self, step: u32, trace: &SimTrace, target_before: Option<f64>) {
        let Some(last) = step.checked_sub(1) else {
            return;
        };
        let rec = &trace.records[last as usize];
        let seen = match self.route {
            FaultRoute::Rate => Some(rec.commanded.value()),
            FaultRoute::Glucose => Some(rec.bg.value()),
            FaultRoute::Internal => target_before,
        };
        if let Some(value) = seen {
            self.injector
                .perturb_target(Step(last), value, self.lo, self.hi);
        }
    }
}

/// What a lane owns of its run — every piece of loop state that is not
/// a borrowed component. A lane paused at a step boundary labels its
/// records and copies it ([`Lane::label`], [`Lane::state`],
/// [`LaneState::fork`]) so other lanes can resume from there.
pub(crate) struct LaneState {
    cgm: Cgm,
    pump: Pump,
    ctx_mitigator: Option<ContextMitigator>,
    /// One record per step run so far.
    trace: SimTrace,
    /// The hazard labeller, as far as it has labelled `trace`.
    labeller: RiskTracker,
    /// One verdict stream per monitor, primary first.
    alerts: Vec<Vec<Option<Hazard>>>,
    /// Action classification compares against the previous
    /// *commanded* rate (the paper's u1..u4 alphabet is over the
    /// controller's command stream). Comparing against the previous
    /// *delivered* rate let pump quantization (4.29 commanded vs 4.30
    /// delivered) misclassify a steady max-rate fault as
    /// `DecreaseInsulin` every cycle, so no SCS rule could ever fire.
    prev_commanded: UnitsPerHour,
}

impl LaneState {
    /// Steps run so far.
    pub(crate) fn step(&self) -> u32 {
        self.trace.records.len() as u32
    }

    /// A copy with room for the rest of a `steps`-step run.
    pub(crate) fn fork(&self, steps: u32) -> LaneState {
        fn with_room<T: Copy>(prefix: &[T], steps: u32) -> Vec<T> {
            let mut copy = Vec::with_capacity(prefix.len().max(steps as usize));
            copy.extend_from_slice(prefix);
            copy
        }
        let records = with_room(&self.trace.records, steps);
        let alerts = self.alerts.iter().map(|a| with_room(a, steps)).collect();
        LaneState {
            cgm: self.cgm.clone(),
            pump: self.pump.clone(),
            ctx_mitigator: self.ctx_mitigator.clone(),
            trace: SimTrace {
                meta: self.trace.meta.clone(),
                records,
                monitor_tracks: Vec::new(),
            },
            alerts,
            labeller: self.labeller.clone(),
            prev_commanded: self.prev_commanded,
        }
    }
}

/// One closed-loop run minus its physics: the per-lane state of
/// [`run_lanes`].
pub(crate) struct Lane<'a> {
    controller: &'a mut dyn Controller,
    /// Primary first: its verdicts drive mitigation and fill
    /// [`StepRecord::alert`].
    monitors: Vec<&'a mut dyn HazardMonitor>,
    fault: Option<Fault<'a>>,
    config: &'a LoopConfig,
    observer: Option<&'a mut dyn FnMut(&StepRecord)>,
    state: LaneState,
    dead: Option<SimError>,
}

/// Resets `injector` for a run of `controller`, names its scenario in
/// `meta`, and resolves the target's route and legitimate bounds.
///
/// A fault target the controller does not expose falls back to
/// unbounded injection (legacy behaviour of the positional API;
/// [`SessionBuilder`](crate::session::SessionBuilder) rejects such
/// targets before a run is built).
fn attach<'a>(
    injector: &'a mut FaultInjector,
    controller: &dyn Controller,
    meta: &mut TraceMeta,
) -> Fault<'a> {
    injector.reset();
    let scenario = injector.scenario();
    meta.fault_name = scenario.name();
    meta.fault_start = Some(scenario.start);
    let route = match scenario.target.as_str() {
        "rate" => FaultRoute::Rate,
        "glucose" => FaultRoute::Glucose,
        _ => FaultRoute::Internal,
    };
    let (lo, hi) = controller
        .state_vars()
        .iter()
        .find(|v| v.name == scenario.target)
        .map(|v| (v.min, v.max))
        .unwrap_or((f64::NEG_INFINITY, f64::INFINITY));
    Fault {
        injector,
        route,
        lo,
        hi,
    }
}

impl<'a> Lane<'a> {
    /// Sets up one run of `patient`: resets the controller, monitors
    /// and injector, builds the run's own sensor, pump and context
    /// mitigator, resolves the fault route and bounds, and preallocates
    /// the trace and verdict streams. The patient itself is the
    /// caller's physics and is reset by the caller.
    pub(crate) fn new(
        patient: &str,
        controller: &'a mut dyn Controller,
        monitors: impl IntoIterator<Item = &'a mut dyn HazardMonitor>,
        injector: Option<&'a mut FaultInjector>,
        config: &'a LoopConfig,
        observer: Option<&'a mut dyn FnMut(&StepRecord)>,
    ) -> Lane<'a> {
        let steps = config.steps as usize;
        controller.reset();
        let mut monitors: Vec<&'a mut dyn HazardMonitor> = monitors.into_iter().collect();
        for monitor in monitors.iter_mut() {
            monitor.reset();
        }
        let mut meta = TraceMeta {
            patient: patient.to_owned(),
            initial_bg: config.initial_bg,
            ..TraceMeta::default()
        };
        let fault = injector.map(|injector| attach(injector, controller, &mut meta));
        let state = LaneState {
            // Configs are `Copy` scalars: no heap allocation here.
            cgm: Cgm::new(config.cgm),
            pump: Pump::new(config.pump),
            ctx_mitigator: config.context_mitigation.map(ContextMitigator::new),
            trace: SimTrace::with_capacity(meta, steps),
            alerts: monitors.iter().map(|_| Vec::with_capacity(steps)).collect(),
            labeller: RiskTracker::new(config.labels.clone()),
            prev_commanded: UnitsPerHour(controller.basal_rate().value()),
        };
        Lane {
            controller,
            monitors,
            fault,
            config,
            observer,
            state,
            dead: None,
        }
    }

    /// Resumes a run from `state`, a fault-free run's state after its
    /// first `state.step()` steps, without resetting anything:
    /// `controller` and `monitors` are that run's components as of the
    /// same step (forks of them), and the injector, reset, is brought
    /// to the state a run from step 0 has at that step.
    /// `target_before` is the value the fault target read on the last
    /// of those steps, when it is a controller-internal variable (the
    /// fault-free controller's one step before `state`).
    ///
    /// The lane then runs, from `state.step()` on, exactly as the
    /// faulty run would have from step 0 — provided its fault is not
    /// active before `state.step()` and `config` equals the fault-free
    /// run's.
    pub(crate) fn resume(
        mut state: LaneState,
        target_before: Option<f64>,
        controller: &'a mut dyn Controller,
        monitors: impl IntoIterator<Item = &'a mut dyn HazardMonitor>,
        injector: Option<&'a mut FaultInjector>,
        config: &'a LoopConfig,
    ) -> Lane<'a> {
        let monitors: Vec<&'a mut dyn HazardMonitor> = monitors.into_iter().collect();
        debug_assert_eq!(
            monitors.len(),
            state.alerts.len(),
            "one verdict stream per monitor"
        );
        let fault = injector.map(|injector| {
            let mut fault = attach(injector, controller, &mut state.trace.meta);
            debug_assert!(
                fault.injector.scenario().start.0 >= state.step(),
                "a fault active before the fork step"
            );
            fault.catch_up(state.step(), &state.trace, target_before);
            fault
        });
        Lane {
            controller,
            monitors,
            fault,
            config,
            observer: None,
            state,
            dead: None,
        }
    }

    /// Hazard-labels the lane's records not labelled yet, so that
    /// forks of its state inherit the labels and the labeller.
    pub(crate) fn label(&mut self) {
        let state = &mut self.state;
        state.labeller.label_tail(&mut state.trace.records);
    }

    /// The lane's own state, or `None` once the run has died.
    pub(crate) fn state(&self) -> Option<&LaneState> {
        self.dead.is_none().then_some(&self.state)
    }

    /// The lane's controller.
    pub(crate) fn controller(&self) -> &dyn Controller {
        &*self.controller
    }

    /// The lane's primary monitor, if it has any.
    pub(crate) fn primary_monitor(&self) -> Option<&dyn HazardMonitor> {
        self.monitors.first().map(|m| &**m)
    }

    /// The run's result: its first non-finite cycle, or the trace with
    /// one [`AlertTrack`] per monitor, hazard-labelled as
    /// [`aps_risk::label_trace`] labels it.
    pub(crate) fn finish(mut self) -> Result<SimTrace, SimError> {
        if let Some(e) = self.dead {
            return Err(e);
        }
        // A resumed lane labels only its own steps: its prefix came
        // labelled, with the labeller, from the run it forked off.
        self.label();
        let mut trace = self.state.trace;
        trace.monitor_tracks = self
            .monitors
            .into_iter()
            .zip(self.state.alerts)
            .map(|(monitor, alerts)| AlertTrack {
                monitor: monitor.name().to_owned(),
                alerts,
            })
            .collect();
        trace.refresh_meta();
        Ok(trace)
    }
}

/// Runs `lanes` (at most `L`) through `steps` of their closed loops in
/// lockstep, lane `l` on physics lane `l`. Every lane has run exactly
/// the steps before `steps.start`, and `physics` holds their state at
/// that step boundary.
///
/// Lanes are independent: nothing crosses lanes but the batched
/// physics step, whose arithmetic is per lane. Padding lanes (beyond
/// `lanes.len()`) and dead lanes infuse nothing. A lane whose state
/// turns non-finite dies with [`SimError::NonFinite`] at that cycle
/// (non-finite state is absorbing, so it cannot recover and never
/// poisons its lane-mates); the loop stops once every lane is dead.
///
/// Each cycle makes two passes over the lanes, split at the pump: the
/// first runs every lane up to its delivery and pushes its step record,
/// the second observes the delivery and completes that record's `iob`
/// in place before the observer sees it. Per lane that is the order of
/// the cycle; across a block it keeps each half's code hot for all
/// lanes, which measured about 5% faster at `L = 8` than one pass per
/// lane (2-core x86-64, Glucosym cohort).
pub(crate) fn run_lanes<const L: usize>(
    physics: &mut dyn BatchedPatientSim<L>,
    lanes: &mut [Lane<'_>],
    steps: Range<u32>,
) {
    debug_assert!(lanes.len() <= L, "{} lanes exceed {L}", lanes.len());
    debug_assert!(
        lanes
            .iter()
            .all(|lane| lane.dead.is_some() || lane.state.step() == steps.start),
        "lanes out of step"
    );
    for s in steps {
        let step = Step(s);
        // What each lane's pump delivers this cycle (the physics input).
        let mut rates = [UnitsPerHour(0.0); L];
        for (l, lane) in lanes.iter_mut().enumerate() {
            if lane.dead.is_some() {
                continue;
            }
            let config = lane.config;
            for meal in config.meals.iter().filter(|m| m.step == step) {
                physics.ingest(l, meal.carbs_g);
                if meal.announced {
                    lane.controller.announce_meal(meal.carbs_g);
                }
            }
            for bout in config.exercise.iter().filter(|b| b.step == step) {
                physics.exert(l, bout.intensity, bout.duration_min);
            }
            let true_bg = physics.bg(l);
            let reading = lane.state.cgm.sample(true_bg);

            // Fault injection on the controller's input/internal
            // variables; output faults are applied after the decision.
            if let Some(f) = lane.fault.as_mut() {
                let (inj, lo, hi) = (&mut *f.injector, f.lo, f.hi);
                match f.route {
                    FaultRoute::Rate => {}
                    FaultRoute::Glucose => {
                        let faulty = inj.perturb_target(step, reading.value(), lo, hi);
                        if inj.is_active(step) {
                            lane.controller.set_state("glucose", faulty);
                        }
                    }
                    FaultRoute::Internal if inj.is_active(step) => {
                        // Perturb last cycle's value (the freshest
                        // observable) and force it for this decision.
                        let base = lane
                            .controller
                            .get_state(&inj.scenario().target)
                            .unwrap_or(0.5 * (lo + hi));
                        let faulty = inj.perturb_target(step, base, lo, hi);
                        lane.controller.set_state(&inj.scenario().target, faulty);
                    }
                    FaultRoute::Internal => {
                        // Keep the injector's Hold history fresh
                        // pre-activation.
                        if let Some(base) = lane.controller.get_state(&inj.scenario().target) {
                            inj.perturb_target(step, base, lo, hi);
                        }
                    }
                }
            }

            let mut commanded = lane.controller.decide(step, reading);
            if let Some(Fault {
                injector,
                route: FaultRoute::Rate,
                lo,
                hi,
            }) = lane.fault.as_mut()
            {
                commanded =
                    UnitsPerHour(injector.perturb_target(step, commanded.value(), *lo, *hi));
            }
            let action = ControlAction::classify(commanded, lane.state.prev_commanded);

            // Every monitor sees the same input; the primary's verdict
            // feeds mitigation and the alert column.
            let input = MonitorInput {
                step,
                bg: reading,
                commanded,
                previous_rate: lane.state.prev_commanded,
            };
            let mut alert = None;
            let tracked = lane.monitors.iter_mut().zip(&mut lane.state.alerts);
            for (i, (monitor, alerts)) in tracked.enumerate() {
                let verdict = monitor.check(&input);
                alerts.push(verdict);
                if i == 0 {
                    alert = verdict;
                }
            }

            let mitigated = if let Some(cm) = lane.state.ctx_mitigator.as_mut() {
                let mit_ctx = cm.observe_bg(reading);
                cm.mitigate(alert, &mit_ctx, commanded)
            } else {
                match (&config.mitigator, alert) {
                    (Some(mit), Some(_)) => mit.mitigate(alert, commanded),
                    _ => commanded,
                }
            };

            let delivered = lane.state.pump.deliver(mitigated, CONTROL_CYCLE_MINUTES);
            rates[l] = delivered;
            lane.state.trace.push(StepRecord {
                step,
                bg: reading,
                bg_true: true_bg,
                iob: Units(0.0), // read once the delivery is observed
                commanded,
                delivered,
                action,
                fault_active: lane
                    .fault
                    .as_ref()
                    .is_some_and(|f| f.injector.is_active(step)),
                hazard: None,
                alert,
            });
        }

        for lane in lanes.iter_mut() {
            if lane.dead.is_some() {
                continue;
            }
            let Some(rec) = lane.state.trace.records.last_mut() else {
                continue;
            };
            lane.controller.observe_delivery(rec.delivered);
            for monitor in lane.monitors.iter_mut() {
                monitor.observe_delivery(rec.delivered);
            }
            if let Some(cm) = lane.state.ctx_mitigator.as_mut() {
                cm.observe_delivery(rec.delivered);
            }
            rec.iob = lane.controller.iob();
            if let Some(obs) = lane.observer.as_mut() {
                obs(rec);
            }
            lane.state.prev_commanded = rec.commanded;
        }

        physics.step_all(&rates, CONTROL_CYCLE_MINUTES);

        let mut live = false;
        for (l, lane) in lanes.iter_mut().enumerate() {
            if lane.dead.is_none() {
                if physics.lane_is_finite(l) {
                    live = true;
                } else {
                    lane.dead = Some(SimError::NonFinite { cycle: s });
                }
            }
        }
        if !live {
            break;
        }
    }
}

/// A scalar patient as a one-lane physics bank.
struct OneLane<'p>(&'p mut dyn PatientSim);

impl BatchedPatientSim<1> for OneLane<'_> {
    fn bg(&self, _lane: usize) -> MgDl {
        self.0.bg()
    }

    fn step_all(&mut self, rates: &[UnitsPerHour; 1], minutes: f64) {
        self.0.step(rates[0], minutes);
    }

    fn ingest(&mut self, _lane: usize, carbs_g: f64) {
        self.0.ingest(carbs_g);
    }

    fn exert(&mut self, _lane: usize, intensity: f64, duration_min: f64) {
        self.0.exert(intensity, duration_min);
    }

    fn lane_is_finite(&self, _lane: usize) -> bool {
        self.0.state_is_finite()
    }
}

/// Runs one closed loop on `patient` (reset to the configured initial
/// glucose first): the one-lane instance of [`run_lanes`].
///
/// The run is *checked*: a patient state that turns non-finite (NaN/∞)
/// ends it with [`SimError::NonFinite`] instead of letting NaN poison
/// the rest of the trace (physiological floors are `f64::max`-style
/// and would silently absorb it).
pub(crate) fn run_one<'a>(
    patient: &mut dyn PatientSim,
    controller: &'a mut dyn Controller,
    monitors: impl IntoIterator<Item = &'a mut dyn HazardMonitor>,
    injector: Option<&'a mut FaultInjector>,
    config: &'a LoopConfig,
    observer: Option<&'a mut dyn FnMut(&StepRecord)>,
) -> Result<SimTrace, SimError> {
    patient.reset(MgDl(config.initial_bg));
    let mut lane = Lane::new(
        patient.name(),
        controller,
        monitors,
        injector,
        config,
        observer,
    );
    run_alone(patient, &mut lane, 0..config.steps);
    lane.finish()
}

/// Runs one lane through `steps` on `patient` (the one-lane instance
/// of [`run_lanes`]); the patient holds the lane's physics state at
/// `steps.start`.
pub(crate) fn run_alone(patient: &mut dyn PatientSim, lane: &mut Lane<'_>, steps: Range<u32>) {
    run_lanes::<1>(&mut OneLane(patient), std::slice::from_mut(lane), steps);
}
