//! The closed-loop cycle, written once.
//!
//! Every run executes [`run_lanes`] over a set of lanes: a
//! [`Session`](crate::session::Session), the positional
//! [`closed_loop::run`](crate::closed_loop::run), and a campaign job
//! run on its own are its one-lane instance ([`run_one`] puts the patient
//! behind a one-lane [`LanePhysics`] adapter), and a campaign group's
//! lanes are its batched instance over structure-of-arrays physics
//! banks of [`BATCH_LANES`](crate::batch::BATCH_LANES) lanes. Only
//! physics is batched. Every other stage runs per lane, on that lane's
//! own components, in the same order whatever the lane count — which
//! is why a lane of a bank produces, bit for bit, the trace of the same
//! run alone.
//!
//! Per cycle, each live lane goes through meals/exercise → CGM → fault
//! route → decide → rate fault → classify → monitor bank → mitigate →
//! pump → observe delivery → record (+ observer); then the physics
//! steps the lanes' bank at once and each lane's state is checked for
//! finiteness.
//!
//! # Riders and splits
//!
//! A lane carries one or more jobs, its **riders**, in job order. The
//! jobs of a lane share everything but their fault injectors, so the
//! lane runs the loop once for all of them. Each cycle every rider's
//! injector is evaluated on the lane's values: the CGM reading, or the
//! controller's value of the target, before the decision, and the
//! decided rate after it. What a rider would do there is its
//! *effect*: which variable it writes and the written value's bits (or
//! no write) before the decision, the commanded rate's bits after it.
//! The first rider is the lane's own job, and its effects are the
//! lane's. A rider whose effect differs from the lane's **splits** off
//! to a new lane, a copy of this one as it stands at that point of the
//! cycle, on a copy of its physics lane ([`LanePhysics::split`]);
//! riders with equal effects split together, led by the first in job
//! order. A rider that never splits takes its lane's trace, with its
//! own meta and `fault_active` column ([`Lane::finish`]). From the
//! lanes' common start the loop is a pure function of the effect
//! sequence, so every rider gets, bit for bit, the trace of its job run
//! alone.
//!
//! Hazard labelling is part of a lane's state too. A lane labels its
//! records with its own labeller before it splits and when it
//! finishes, each time only the records not labelled yet, so a split
//! lane labels only its own steps.

use crate::closed_loop::LoopConfig;
use crate::outcome::SimError;
use aps_controllers::Controller;
use aps_core::hms::ContextMitigator;
use aps_core::monitors::{HazardMonitor, MonitorInput};
use aps_fault::FaultInjector;
use aps_glucose::pump::Pump;
use aps_glucose::sensor::Cgm;
use aps_glucose::PatientSim;
use aps_risk::RiskTracker;
use aps_types::{
    AlertTrack, ControlAction, Hazard, MgDl, SimTrace, Step, StepRecord, TraceMeta, Units,
    UnitsPerHour, CONTROL_CYCLE_MINUTES,
};
use std::ops::{Deref, DerefMut};

/// The physics of a set of lanes, lane `l` on physics lane `l`, in
/// banks of [`width`](LanePhysics::width) lanes stepped one bank at a
/// time.
pub(crate) trait LanePhysics {
    /// Lanes per bank: lane `l` is lane `l % width` of bank
    /// `l / width`.
    fn width(&self) -> usize;

    /// Current blood glucose of one lane, as observable by a CGM.
    fn bg(&self, lane: usize) -> MgDl;

    /// Advances every lane of bank `bank` by `minutes`, its lane `i`
    /// infusing at `rates[i]` (lanes past the end of `rates` at none).
    fn step_bank(&mut self, bank: usize, rates: &[UnitsPerHour], minutes: f64);

    /// Adds a meal to one lane's gut absorption model.
    fn ingest(&mut self, lane: usize, carbs_g: f64);

    /// Starts an exercise bout on one lane.
    fn exert(&mut self, lane: usize, intensity: f64, duration_min: f64);

    /// Whether every state component of one lane is finite.
    fn lane_is_finite(&self, lane: usize) -> bool;

    /// Copies lane `from` into lane `to`, the lowest lane not in use,
    /// adding a bank when `to` starts one.
    fn split(&mut self, from: usize, to: usize);
}

/// A job's index in the caller's job list, and its result.
pub(crate) type JobResult = (usize, Result<SimTrace, SimError>);

/// Where the scenario's target variable sits in the control loop.
enum FaultRoute {
    /// Actuator command, perturbed after the controller decision.
    Rate,
    /// CGM input, perturbed before the decision.
    Glucose,
    /// Controller-internal variable, read and written by name
    /// (`get_state` / `set_state`) before the decision.
    Internal,
}

/// A rider's fault injector with its target's route and legitimate
/// bounds, resolved once per run. The route spares the cycle a match
/// on the target's name, but an internal-variable fault still names
/// its target to the controller every cycle (`get_state`, and
/// `set_state` while active).
struct Fault<'a> {
    injector: &'a mut FaultInjector,
    route: FaultRoute,
    lo: f64,
    hi: f64,
}

/// One job carried by a lane: its own fault injector (none for the
/// fault-free job), evaluated every cycle on the lane's values, and
/// what it made of them this cycle.
struct Rider<'a> {
    /// The job's index in the caller's job list.
    job: usize,
    fault: Option<Fault<'a>>,
    /// This cycle's write to the target before the decision, if any.
    write: Option<f64>,
    /// This cycle's commanded rate.
    command: UnitsPerHour,
}

impl<'a> Rider<'a> {
    /// Resets `injector` for a run of `controller` and resolves the
    /// target's route and legitimate bounds.
    ///
    /// A fault target the controller does not expose falls back to
    /// unbounded injection (legacy behaviour of the positional API;
    /// [`SessionBuilder`](crate::session::SessionBuilder) rejects such
    /// targets before a run is built).
    fn new(
        job: usize,
        injector: Option<&'a mut FaultInjector>,
        controller: &dyn Controller,
    ) -> Self {
        let fault = injector.map(|injector| {
            injector.reset();
            let target = injector.scenario().target.as_str();
            let route = match target {
                "rate" => FaultRoute::Rate,
                "glucose" => FaultRoute::Glucose,
                _ => FaultRoute::Internal,
            };
            let (lo, hi) = controller
                .state_vars()
                .iter()
                .find(|v| v.name == target)
                .map(|v| (v.min, v.max))
                .unwrap_or((f64::NEG_INFINITY, f64::INFINITY));
            Fault {
                injector,
                route,
                lo,
                hi,
            }
        });
        Rider {
            job,
            fault,
            write: None,
            command: UnitsPerHour(0.0),
        }
    }

    /// The fault's target variable.
    fn target(&self) -> Option<&str> {
        let fault = self.fault.as_ref()?;
        Some(fault.injector.scenario().target.as_str())
    }

    /// Evaluates the fault before the decision, on the lane's CGM
    /// `reading` or `controller`'s value of the target, and records the
    /// write it makes (`write`) without making it. An input or
    /// internal fault reads its route every cycle, which keeps its
    /// `Hold` history fresh before it activates.
    fn before_decision(&mut self, step: Step, reading: MgDl, controller: &dyn Controller) {
        self.write = None;
        let Some(f) = self.fault.as_mut() else {
            return;
        };
        let (inj, lo, hi) = (&mut *f.injector, f.lo, f.hi);
        match f.route {
            FaultRoute::Rate => {}
            FaultRoute::Glucose => {
                let faulty = inj.perturb_target(step, reading.value(), lo, hi);
                if inj.is_active(step) {
                    self.write = Some(faulty);
                }
            }
            FaultRoute::Internal if inj.is_active(step) => {
                // Perturb last cycle's value (the freshest observable)
                // and force it for this decision.
                let base = controller
                    .get_state(&inj.scenario().target)
                    .unwrap_or(0.5 * (lo + hi));
                self.write = Some(inj.perturb_target(step, base, lo, hi));
            }
            FaultRoute::Internal => {
                if let Some(base) = controller.get_state(&inj.scenario().target) {
                    inj.perturb_target(step, base, lo, hi);
                }
            }
        }
    }

    /// Evaluates the fault after the decision: the rate it commands
    /// instead of `decided` (`command`).
    fn after_decision(&mut self, step: Step, decided: UnitsPerHour) {
        self.command = match self.fault.as_mut() {
            Some(Fault {
                injector,
                route: FaultRoute::Rate,
                lo,
                hi,
            }) => UnitsPerHour(injector.perturb_target(step, decided.value(), *lo, *hi)),
            _ => decided,
        };
    }

    /// Whether this cycle's write is `lead`'s: the same variable and
    /// value bits, or no write for both.
    fn writes_as(&self, lead: &Rider<'_>) -> bool {
        match (self.write, lead.write) {
            (None, None) => true,
            (Some(a), Some(b)) => a.to_bits() == b.to_bits() && self.target() == lead.target(),
            _ => false,
        }
    }

    /// Whether this cycle's command has `lead`'s bits.
    fn commands_as(&self, lead: &Rider<'_>) -> bool {
        self.command.value().to_bits() == lead.command.value().to_bits()
    }

    /// `trace`, the trace of the rider's lane, as the rider's own: its
    /// scenario in the meta and its `fault_active` column.
    fn claim(&self, mut trace: SimTrace) -> SimTrace {
        let scenario = self.fault.as_ref().map(|f| f.injector.scenario());
        trace.meta.fault_name = scenario.map(|s| s.name()).unwrap_or_default();
        trace.meta.fault_start = scenario.map(|s| s.start);
        for rec in &mut trace.records {
            rec.fault_active = scenario.is_some_and(|s| s.is_active(rec.step));
        }
        trace
    }
}

/// A lane's controller or monitor: the caller's, or the lane's own
/// copy once it split off.
enum Part<'a, T: ?Sized> {
    Lent(&'a mut T),
    Own(Box<T>),
}

impl<T: ?Sized> Deref for Part<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        match self {
            Part::Lent(part) => part,
            Part::Own(part) => part,
        }
    }
}

impl<T: ?Sized> DerefMut for Part<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match self {
            Part::Lent(part) => part,
            Part::Own(part) => part,
        }
    }
}

/// What a lane owns of its run — every piece of loop state that is not
/// a controller or monitor. A split copies it ([`LaneState::fork`]).
struct LaneState {
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
    /// A copy with room for the rest of a `steps`-step run.
    fn fork(&self, steps: u32) -> LaneState {
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

/// How far a lane has run the current cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Not at all.
    Start,
    /// Through the CGM sample and every rider's evaluation before the
    /// decision.
    Sampled,
    /// Through the decision and every rider's evaluation after it.
    Decided,
}

/// One closed loop minus its physics, carrying one or more jobs: the
/// per-lane state of [`run_lanes`].
pub(crate) struct Lane<'a> {
    controller: Part<'a, dyn Controller + 'a>,
    /// Primary first: its verdicts drive mitigation and fill
    /// [`StepRecord::alert`].
    monitors: Vec<Part<'a, dyn HazardMonitor + 'a>>,
    /// The jobs the lane carries, in job order; the first is the lane's
    /// own, and its effects are the lane's.
    riders: Vec<Rider<'a>>,
    config: &'a LoopConfig,
    observer: Option<&'a mut dyn FnMut(&StepRecord)>,
    state: LaneState,
    stage: Stage,
    /// This cycle's true glucose and CGM reading, once sampled.
    true_bg: MgDl,
    reading: MgDl,
    dead: Option<SimError>,
}

impl<'a> Lane<'a> {
    /// Sets up one run of `patient` carrying `jobs` (job index and
    /// injector, in job order; at least one): resets the controller,
    /// monitors and injectors, builds the run's own sensor, pump and
    /// context mitigator, resolves each fault's route and bounds, and
    /// preallocates the trace and verdict streams. The patient itself
    /// is the caller's physics and is reset by the caller.
    pub(crate) fn new(
        patient: &str,
        controller: &'a mut dyn Controller,
        monitors: impl IntoIterator<Item = &'a mut dyn HazardMonitor>,
        jobs: impl IntoIterator<Item = (usize, Option<&'a mut FaultInjector>)>,
        config: &'a LoopConfig,
        observer: Option<&'a mut dyn FnMut(&StepRecord)>,
    ) -> Lane<'a> {
        let steps = config.steps as usize;
        controller.reset();
        let mut monitors: Vec<Part<'a, dyn HazardMonitor + 'a>> =
            monitors.into_iter().map(Part::Lent).collect();
        for monitor in monitors.iter_mut() {
            monitor.reset();
        }
        let riders: Vec<Rider<'a>> = jobs
            .into_iter()
            .map(|(job, injector)| Rider::new(job, injector, &*controller))
            .collect();
        debug_assert!(!riders.is_empty(), "a lane carries its own job");
        let meta = TraceMeta {
            patient: patient.to_owned(),
            initial_bg: config.initial_bg,
            ..TraceMeta::default()
        };
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
            controller: Part::Lent(controller),
            monitors,
            riders,
            config,
            observer,
            state,
            stage: Stage::Start,
            true_bg: MgDl(0.0),
            reading: MgDl(0.0),
            dead: None,
        }
    }

    /// A copy of the lane as it stands, carrying no job yet: forks of
    /// its controller and monitors, and a copy of its state.
    fn fork(&self) -> Lane<'a> {
        let monitors = self.monitors.iter().map(|m| Part::Own(m.fork())).collect();
        Lane {
            controller: Part::Own(self.controller.fork()),
            monitors,
            riders: Vec::new(),
            config: self.config,
            observer: None,
            state: self.state.fork(self.config.steps),
            stage: self.stage,
            true_bg: self.true_bg,
            reading: self.reading,
            dead: None,
        }
    }

    /// Moves every rider whose effect this cycle is not the lead's
    /// (`same`) to a new lane, riders with equal effects to one lane,
    /// led by the first of them. The lane is at `stage` of the cycle;
    /// each new lane is a copy of it there and goes to the end of
    /// `spawned`, for the caller to give it a copy of this lane's
    /// physics.
    fn split(
        &mut self,
        stage: Stage,
        same: fn(&Rider<'a>, &Rider<'a>) -> bool,
        spawned: &mut Vec<Lane<'a>>,
    ) {
        self.stage = stage;
        let lead = &self.riders[0];
        if self.riders[1..].iter().all(|rider| same(rider, lead)) {
            return;
        }
        // The copies inherit the records labelled, with the labeller.
        let state = &mut self.state;
        state.labeller.label_tail(&mut state.trace.records);
        let first = spawned.len();
        for rider in std::mem::take(&mut self.riders) {
            if self.riders.first().is_none_or(|lead| same(&rider, lead)) {
                self.riders.push(rider);
            } else if let Some(lane) = spawned[first..]
                .iter_mut()
                .find(|lane| same(&rider, &lane.riders[0]))
            {
                lane.riders.push(rider);
            } else {
                let mut lane = self.fork();
                lane.riders.push(rider);
                spawned.push(lane);
            }
        }
    }

    /// Runs the lane, physics lane `l`, through this cycle up to its
    /// pump delivery, from wherever it stands in the cycle, and pushes
    /// the cycle's record. Riders that split off go to `spawned` (see
    /// [`split`](Lane::split)).
    fn run_to_delivery(
        &mut self,
        l: usize,
        step: Step,
        physics: &mut dyn LanePhysics,
        spawned: &mut Vec<Lane<'a>>,
    ) {
        let config = self.config;
        if self.stage == Stage::Start {
            for meal in config.meals.iter().filter(|m| m.step == step) {
                physics.ingest(l, meal.carbs_g);
                if meal.announced {
                    self.controller.announce_meal(meal.carbs_g);
                }
            }
            for bout in config.exercise.iter().filter(|b| b.step == step) {
                physics.exert(l, bout.intensity, bout.duration_min);
            }
            self.true_bg = physics.bg(l);
            self.reading = self.state.cgm.sample(self.true_bg);
            let (reading, controller) = (self.reading, &*self.controller);
            for rider in &mut self.riders {
                rider.before_decision(step, reading, controller);
            }
            self.split(Stage::Sampled, Rider::writes_as, spawned);
        }
        if self.stage == Stage::Sampled {
            // Fault injection on the controller's input/internal
            // variables; output faults are applied after the decision.
            let lead = &self.riders[0];
            if let (Some(value), Some(target)) = (lead.write, lead.target()) {
                self.controller.set_state(target, value);
            }
            let decided = self.controller.decide(step, self.reading);
            for rider in &mut self.riders {
                rider.after_decision(step, decided);
            }
            self.split(Stage::Decided, Rider::commands_as, spawned);
        }
        self.stage = Stage::Start;
        let (true_bg, reading) = (self.true_bg, self.reading);
        let lead = &self.riders[0];
        let commanded = lead.command;
        let fault_active = lead
            .fault
            .as_ref()
            .is_some_and(|f| f.injector.is_active(step));
        let state = &mut self.state;
        let action = ControlAction::classify(commanded, state.prev_commanded);

        // Every monitor sees the same input; the primary's verdict
        // feeds mitigation and the alert column.
        let input = MonitorInput {
            step,
            bg: reading,
            commanded,
            previous_rate: state.prev_commanded,
        };
        let mut alert = None;
        let tracked = self.monitors.iter_mut().zip(&mut state.alerts);
        for (i, (monitor, alerts)) in tracked.enumerate() {
            let verdict = monitor.check(&input);
            alerts.push(verdict);
            if i == 0 {
                alert = verdict;
            }
        }

        let mitigated = if let Some(cm) = state.ctx_mitigator.as_mut() {
            let mit_ctx = cm.observe_bg(reading);
            cm.mitigate(alert, &mit_ctx, commanded)
        } else {
            match (&config.mitigator, alert) {
                (Some(mit), Some(_)) => mit.mitigate(alert, commanded),
                _ => commanded,
            }
        };

        let delivered = state.pump.deliver(mitigated, CONTROL_CYCLE_MINUTES);
        state.trace.push(StepRecord {
            step,
            bg: reading,
            bg_true: true_bg,
            iob: Units(0.0), // read once the delivery is observed
            commanded,
            delivered,
            action,
            fault_active,
            hazard: None,
            alert,
        });
    }

    /// Observes this cycle's delivery and completes its record's `iob`
    /// before the observer sees it. Returns the delivered rate.
    fn observe_delivery(&mut self) -> UnitsPerHour {
        let Some(rec) = self.state.trace.records.last_mut() else {
            return UnitsPerHour(0.0);
        };
        self.controller.observe_delivery(rec.delivered);
        for monitor in self.monitors.iter_mut() {
            monitor.observe_delivery(rec.delivered);
        }
        if let Some(cm) = self.state.ctx_mitigator.as_mut() {
            cm.observe_delivery(rec.delivered);
        }
        rec.iob = self.controller.iob();
        if let Some(obs) = self.observer.as_mut() {
            obs(rec);
        }
        self.state.prev_commanded = rec.commanded;
        rec.delivered
    }

    /// Each rider's job index and result: its lane's first non-finite
    /// cycle, or the lane's trace as the rider's own, with one
    /// [`AlertTrack`] per monitor, hazard-labelled as
    /// [`aps_risk::label_trace`] labels it.
    pub(crate) fn finish(self) -> Vec<JobResult> {
        let Lane {
            riders,
            monitors,
            mut state,
            dead,
            ..
        } = self;
        if let Some(e) = dead {
            return riders.iter().map(|r| (r.job, Err(e.clone()))).collect();
        }
        // A split lane labels only its own steps: its prefix came
        // labelled, with the labeller, from the lane it split off.
        state.labeller.label_tail(&mut state.trace.records);
        let mut trace = state.trace;
        trace.monitor_tracks = monitors
            .iter()
            .zip(state.alerts)
            .map(|(monitor, alerts)| AlertTrack {
                monitor: monitor.name().to_owned(),
                alerts,
            })
            .collect();
        trace.refresh_meta();
        let Some((lead, rest)) = riders.split_first() else {
            return Vec::new();
        };
        let mut results: Vec<_> = rest
            .iter()
            .map(|rider| (rider.job, Ok(rider.claim(trace.clone()))))
            .collect();
        results.push((lead.job, Ok(lead.claim(trace))));
        results
    }
}

/// Runs `lanes` through `steps` cycles of their closed loops in
/// lockstep from step 0, lane `l` on physics lane `l`, and returns the
/// lane-cycles it stepped. `physics` holds every lane's state at step
/// 0.
///
/// Lanes are independent: nothing crosses lanes but the batched
/// physics step, whose arithmetic is per lane, and the splits. Padding
/// lanes (beyond `lanes.len()`) and dead lanes infuse nothing. A lane
/// whose state turns non-finite dies with [`SimError::NonFinite`] at
/// that cycle, and so does every rider it carries (non-finite state is
/// absorbing, so it cannot recover and never poisons its lane-mates);
/// the loop stops once every lane is dead.
///
/// A rider whose effect differs from its lane's splits off mid-cycle
/// to a lane appended to `lanes`, which runs the rest of the cycle in
/// its bank's turn (see the [module docs](self)). Appended lanes land
/// in the last bank or a new one, so their bank has not stepped yet.
///
/// Each cycle runs bank by bank, and makes two passes over a bank's
/// lanes, split at the pump: the first runs every lane up to its
/// delivery and pushes its step record, the second observes the
/// delivery and completes that record's `iob` in place before the
/// observer sees it; then the bank's physics steps. Per lane that is
/// the order of the cycle; across a bank it keeps each half's code hot
/// for all lanes, which measured about 5% faster at 8 lanes than one
/// pass per lane (2-core x86-64, Glucosym cohort). Going bank by bank
/// keeps the working set of a group with many lanes to one bank's
/// lanes between the passes.
pub(crate) fn run_lanes<'a>(
    physics: &mut dyn LanePhysics,
    lanes: &mut Vec<Lane<'a>>,
    steps: u32,
) -> u64 {
    let width = physics.width();
    let mut lane_cycles = 0;
    let mut spawned = Vec::new();
    // What each lane of a bank delivers this cycle (the physics input).
    let mut rates = vec![UnitsPerHour(0.0); width];
    for s in 0..steps {
        let step = Step(s);
        let mut live = false;
        let mut first = 0;
        while first < lanes.len() {
            let mut l = first;
            while l < lanes.len().min(first + width) {
                if lanes[l].dead.is_none() {
                    lanes[l].run_to_delivery(l, step, physics, &mut spawned);
                    for lane in spawned.drain(..) {
                        physics.split(l, lanes.len());
                        lanes.push(lane);
                    }
                    lane_cycles += 1;
                }
                l += 1;
            }
            let bank = &mut lanes[first..l];
            for (lane, rate) in bank.iter_mut().zip(&mut rates) {
                *rate = match lane.dead {
                    None => lane.observe_delivery(),
                    Some(_) => UnitsPerHour(0.0),
                };
            }
            physics.step_bank(first / width, &rates[..bank.len()], CONTROL_CYCLE_MINUTES);
            for (i, lane) in bank.iter_mut().enumerate() {
                if lane.dead.is_none() {
                    if physics.lane_is_finite(first + i) {
                        live = true;
                    } else {
                        lane.dead = Some(SimError::NonFinite { cycle: s });
                    }
                }
            }
            first = l;
        }
        if !live {
            break;
        }
    }
    lane_cycles
}

/// A scalar patient as the physics of one lane.
struct OneLane<'p>(&'p mut dyn PatientSim);

impl LanePhysics for OneLane<'_> {
    fn width(&self) -> usize {
        1
    }

    fn bg(&self, _lane: usize) -> MgDl {
        self.0.bg()
    }

    fn step_bank(&mut self, _bank: usize, rates: &[UnitsPerHour], minutes: f64) {
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

    fn split(&mut self, _from: usize, _to: usize) {
        unreachable!("a lane with one job never splits");
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
    let lane = Lane::new(
        patient.name(),
        controller,
        monitors,
        [(0, injector)],
        config,
        observer,
    );
    let mut lanes = vec![lane];
    run_lanes(&mut OneLane(patient), &mut lanes, config.steps);
    let (_, result) = lanes.swap_remove(0).finish().swap_remove(0);
    result
}
