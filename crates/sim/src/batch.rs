//! Batched lockstep campaign execution.
//!
//! The scalar executors run campaign jobs one closed loop at a time;
//! every control cycle pays the full RK4 integration for a single
//! patient. This module steps a *block* of up to [`BATCH_LANES`] jobs
//! in lockstep instead: each job becomes a lane of a
//! structure-of-arrays patient bank
//! ([`aps_glucose::bergman::BatchedBergman`] /
//! [`aps_glucose::dalla_man::BatchedDallaMan`]), the
//! physics integrates all lanes with per-lane loops over flat arrays
//! (the shape the auto-vectorizer turns into SIMD), and the scalar
//! per-cycle components — controller, CGM, pump, monitor, injector,
//! mitigation, trace recording — run per lane exactly as the scalar
//! engine runs them.
//!
//! # Bit-identity
//!
//! [`run_block`] is defined to produce, lane for lane, the same bytes
//! as [`run_campaign_serial`](crate::campaign::run_campaign_serial)
//! produces job for job (pinned by `tests/batched_equivalence.rs`).
//! Lanes are arithmetically independent — no horizontal reductions,
//! no lane-crossing terms — and every per-lane expression keeps the
//! scalar engine's operation order, so IEEE-754 determinism carries
//! the equivalence. A lane whose ODE state diverges to NaN/∞ fails its
//! end-of-cycle finiteness check at the same cycle index as the scalar
//! engine's `state_is_finite` check (non-finite state is absorbing
//! under the additive RK4 update), surfaces as that job's
//! [`SimError::NonFinite`], and — because nothing crosses lanes —
//! never poisons its lane-mates.

use crate::campaign::{
    campaign_jobs, worker_count, CampaignJob, CampaignSpec, MonitorFactory, ScenarioCtx,
};
use crate::closed_loop::LoopConfig;
use crate::exec::ordered_par_map;
use crate::outcome::SimError;
use crate::session::FaultRoute;
use aps_controllers::Controller;
use aps_core::hms::{ContextMitigator, ContextMitigatorConfig};
use aps_core::mitigation::Mitigator;
use aps_core::monitors::{HazardMonitor, MonitorInput};
use aps_fault::FaultInjector;
use aps_glucose::bergman::BatchedBergman;
use aps_glucose::dalla_man::BatchedDallaMan;
use aps_glucose::patients::CohortPatient;
use aps_glucose::pump::PumpBank;
use aps_glucose::sensor::CgmBank;
use aps_glucose::BatchedPatientSim;
use aps_types::{
    AlertTrack, ControlAction, Hazard, MgDl, SimTrace, Step, StepRecord, TraceMeta, UnitsPerHour,
    CONTROL_CYCLE_MINUTES,
};
use std::convert::Infallible;

/// Lane width of the batched campaign executor.
///
/// Eight f64 lanes fill one AVX-512 register or two AVX2 / NEON
/// registers per state component — wide enough that the per-lane
/// stage loops vectorize profitably, narrow enough that a block's
/// scratch stays resident in L1 and ragged campaign tails waste few
/// lanes.
pub const BATCH_LANES: usize = 8;

/// The per-lane scalar harness: everything a closed-loop run owns
/// besides the physics, which lives in the shared lane bank.
struct Lane {
    controller: Box<dyn Controller>,
    monitor: Option<Box<dyn HazardMonitor>>,
    injector: Option<FaultInjector>,
    config: LoopConfig,
    fault_plan: Option<(FaultRoute, (f64, f64), String)>,
    ctx_mitigator: Option<ContextMitigator>,
    trace: SimTrace,
    stream: Vec<Option<Hazard>>,
    prev_commanded: UnitsPerHour,
    dead: Option<SimError>,
}

impl Lane {
    /// Mirrors the scalar engine's per-run setup: reset components,
    /// resolve the fault route and bounds once, preallocate the trace.
    fn new(
        mut controller: Box<dyn Controller>,
        mut monitor: Option<Box<dyn HazardMonitor>>,
        mut injector: Option<FaultInjector>,
        config: LoopConfig,
        patient_name: &str,
    ) -> Lane {
        controller.reset();
        if let Some(m) = monitor.as_deref_mut() {
            m.reset();
        }
        if let Some(inj) = injector.as_mut() {
            inj.reset();
        }
        let ctx_mitigator = config.context_mitigation.map(ContextMitigator::new);
        let vars = controller.state_vars();
        let fault_plan = injector.as_ref().map(|inj| {
            let target = &inj.scenario().target;
            let route = match target.as_str() {
                "rate" => FaultRoute::Rate,
                "glucose" => FaultRoute::Glucose,
                _ => FaultRoute::Internal,
            };
            let bounds = vars
                .iter()
                .find(|v| v.name == *target)
                .map(|v| (v.min, v.max))
                .unwrap_or((f64::NEG_INFINITY, f64::INFINITY));
            (route, bounds, target.clone())
        });
        let mut meta = TraceMeta {
            patient: patient_name.to_owned(),
            initial_bg: config.initial_bg,
            ..TraceMeta::default()
        };
        if let Some(inj) = injector.as_ref() {
            meta.fault_name = inj.scenario().name();
            meta.fault_start = Some(inj.scenario().start);
        }
        let trace = SimTrace::with_capacity(meta, config.steps as usize);
        let stream = if monitor.is_some() {
            Vec::with_capacity(config.steps as usize)
        } else {
            Vec::new()
        };
        let prev_commanded = UnitsPerHour(controller.basal_rate().value());
        Lane {
            controller,
            monitor,
            injector,
            config,
            fault_plan,
            ctx_mitigator,
            trace,
            stream,
            prev_commanded,
            dead: None,
        }
    }
}

/// Builds one lane's scalar harness exactly as the campaign's scalar
/// path builds a job's run (same construction order, same defaults).
fn build_lane(
    spec: &CampaignSpec,
    job: &CampaignJob,
    monitor_factory: Option<&MonitorFactory<'_>>,
) -> (CohortPatient, Lane) {
    let platform = spec.platform;
    let mut patient = platform
        .concrete_patient(job.patient_idx)
        .unwrap_or_else(|| panic!("patient index {} out of cohort range", job.patient_idx));
    let controller = platform.controller_for(patient.as_dyn());
    let ctx = ScenarioCtx {
        patient: patient.as_dyn().name().to_owned(),
        basal: platform.basal_for(patient.as_dyn()),
        target: platform.target(),
        max_rate: platform.max_mitigation_rate(patient.as_dyn()),
    };
    let monitor = monitor_factory.map(|f| f(&ctx));
    let injector = job.scenario.clone().map(FaultInjector::new);
    let config = LoopConfig {
        steps: spec.steps,
        initial_bg: job.initial_bg,
        mitigator: (spec.mitigate && !spec.context_mitigate)
            .then(|| Mitigator::paper_default(ctx.max_rate)),
        context_mitigation: (spec.mitigate && spec.context_mitigate)
            .then(|| ContextMitigatorConfig::for_run(ctx.target, ctx.basal, ctx.max_rate)),
        cgm: spec.cgm,
        ..LoopConfig::default()
    };
    patient.as_dyn_mut().reset(MgDl(config.initial_bg));
    let lane = Lane::new(controller, monitor, injector, config, &ctx.patient);
    (patient, lane)
}

/// Runs a block of up to `LANES` campaign jobs in lockstep, returning
/// one result per job in job order — each bit-identical to what the
/// scalar [`run_campaign_serial`](crate::campaign::run_campaign_serial)
/// path produces for that job.
///
/// Ragged blocks (fewer jobs than lanes) pad the unused lanes with a
/// copy of the first job's patient under a zero insulin rate; padding
/// lanes have no scalar harness and their physics is discarded.
///
/// # Panics
///
/// Panics when `jobs` is empty, longer than `LANES`, or names a
/// patient index outside the platform's cohort.
pub fn run_block<const LANES: usize>(
    spec: &CampaignSpec,
    jobs: &[CampaignJob],
    monitor_factory: Option<&MonitorFactory<'_>>,
) -> Vec<Result<SimTrace, SimError>> {
    assert!(!jobs.is_empty(), "empty lockstep block");
    assert!(
        jobs.len() <= LANES,
        "block of {} jobs exceeds {LANES} lanes",
        jobs.len()
    );
    let mut patients: Vec<CohortPatient> = Vec::with_capacity(LANES);
    let mut lanes: Vec<Lane> = Vec::with_capacity(jobs.len());
    for job in jobs {
        let (patient, lane) = build_lane(spec, job, monitor_factory);
        patients.push(patient);
        lanes.push(lane);
    }
    // Padding lanes: a copy of the first job's freshly reset patient,
    // stepped at a zero rate and discarded. Copying a real parameter
    // set (instead of leaving the bank's zeroed defaults) keeps the
    // dead lanes' ODE arithmetic finite, so no spurious NaNs ride
    // along in the block.
    while patients.len() < LANES {
        let mut p = patients[0].clone();
        p.as_dyn_mut().reset(MgDl(jobs[0].initial_bg));
        patients.push(p);
    }
    match &patients[0] {
        CohortPatient::Bergman(_) => {
            let mut bank = BatchedBergman::<LANES>::new();
            for (l, p) in patients.iter().enumerate() {
                match p {
                    CohortPatient::Bergman(bp) => bank.load_lane(l, bp),
                    CohortPatient::DallaMan(_) => {
                        unreachable!("one platform yields one patient model")
                    }
                }
            }
            run_block_engine(&mut bank, lanes)
        }
        CohortPatient::DallaMan(_) => {
            let mut bank = BatchedDallaMan::<LANES>::new();
            for (l, p) in patients.iter().enumerate() {
                match p {
                    CohortPatient::DallaMan(dp) => bank.load_lane(l, dp),
                    CohortPatient::Bergman(_) => {
                        unreachable!("one platform yields one patient model")
                    }
                }
            }
            run_block_engine(&mut bank, lanes)
        }
    }
}

/// What one lane staged between its controller decision and the
/// pump's delivery (the scalar engine records the step only after the
/// pump actuates).
struct Staged {
    commanded: UnitsPerHour,
    action: ControlAction,
    alert: Option<Hazard>,
}

/// The lockstep control loop: batched physics, per-lane scalar
/// everything else, in exactly the scalar engine's per-cycle order.
fn run_block_engine<const LANES: usize>(
    bank: &mut dyn BatchedPatientSim<LANES>,
    mut lanes: Vec<Lane>,
) -> Vec<Result<SimTrace, SimError>> {
    let steps = lanes[0].config.steps;
    // Sensor and pump configs are spec-level, identical across lanes.
    let mut cgm = CgmBank::<LANES>::new(lanes[0].config.cgm);
    let mut pump = PumpBank::<LANES>::new(lanes[0].config.pump);

    for s in 0..steps {
        let step = Step(s);
        for (l, lane) in lanes.iter_mut().enumerate() {
            if lane.dead.is_some() {
                continue;
            }
            for meal in lane.config.meals.iter().filter(|m| m.step == step) {
                bank.ingest(l, meal.carbs_g);
                if meal.announced {
                    lane.controller.announce_meal(meal.carbs_g);
                }
            }
            for bout in lane.config.exercise.iter().filter(|b| b.step == step) {
                bank.exert(l, bout.intensity, bout.duration_min);
            }
        }
        let true_bg: [MgDl; LANES] = std::array::from_fn(|l| bank.bg(l));
        let readings = cgm.sample_all(&true_bg);

        // Decide + mitigate per lane; delivery happens bank-wide below
        // because the scalar engine records each step with its
        // delivered rate.
        let mut mitigated = [UnitsPerHour(0.0); LANES];
        let mut staged: [Option<Staged>; LANES] = std::array::from_fn(|_| None);
        for (l, lane) in lanes.iter_mut().enumerate() {
            if lane.dead.is_some() {
                continue;
            }
            let reading = readings[l];
            if let (Some(inj), Some((route, (lo, hi), target))) =
                (lane.injector.as_mut(), lane.fault_plan.as_ref())
            {
                match route {
                    // Output faults are applied after the decision below.
                    FaultRoute::Rate => {}
                    FaultRoute::Glucose => {
                        let faulty = inj.perturb_target(step, reading.value(), *lo, *hi);
                        if inj.is_active(step) {
                            lane.controller.set_state("glucose", faulty);
                        }
                    }
                    FaultRoute::Internal if inj.is_active(step) => {
                        let base = lane.controller.get_state(target).unwrap_or(0.5 * (lo + hi));
                        let faulty = inj.perturb_target(step, base, *lo, *hi);
                        lane.controller.set_state(target, faulty);
                    }
                    FaultRoute::Internal => {
                        // Keep the injector's Hold history fresh
                        // pre-activation, like the scalar engine.
                        if let Some(base) = lane.controller.get_state(target) {
                            inj.perturb_target(step, base, *lo, *hi);
                        }
                    }
                }
            }

            let mut commanded = lane.controller.decide(step, reading);
            if let (Some(inj), Some((FaultRoute::Rate, (lo, hi), _))) =
                (lane.injector.as_mut(), lane.fault_plan.as_ref())
            {
                commanded = UnitsPerHour(inj.perturb_target(step, commanded.value(), *lo, *hi));
            }

            let action = ControlAction::classify(commanded, lane.prev_commanded);
            let input = MonitorInput {
                step,
                bg: reading,
                commanded,
                previous_rate: lane.prev_commanded,
            };
            let mut alert = None;
            if let Some(m) = lane.monitor.as_deref_mut() {
                let verdict = m.check(&input);
                lane.stream.push(verdict);
                alert = verdict;
            }

            mitigated[l] = if let Some(cm) = lane.ctx_mitigator.as_mut() {
                let mit_ctx = cm.observe_bg(reading);
                cm.mitigate(alert, &mit_ctx, commanded)
            } else {
                match (&lane.config.mitigator, alert) {
                    (Some(mit), Some(_)) => mit.mitigate(alert, commanded),
                    _ => commanded,
                }
            };
            staged[l] = Some(Staged {
                commanded,
                action,
                alert,
            });
        }

        let delivered = pump.deliver_all(&mitigated, CONTROL_CYCLE_MINUTES);

        for (l, lane) in lanes.iter_mut().enumerate() {
            let Some(st) = staged[l].take() else {
                continue; // dead lane: nothing staged
            };
            lane.controller.observe_delivery(delivered[l]);
            if let Some(m) = lane.monitor.as_deref_mut() {
                m.observe_delivery(delivered[l]);
            }
            if let Some(cm) = lane.ctx_mitigator.as_mut() {
                cm.observe_delivery(delivered[l]);
            }
            let fault_active = lane
                .injector
                .as_ref()
                .map(|i| i.is_active(step))
                .unwrap_or(false);
            lane.trace.push(StepRecord {
                step,
                bg: readings[l],
                bg_true: true_bg[l],
                iob: lane.controller.iob(),
                commanded: st.commanded,
                delivered: delivered[l],
                action: st.action,
                fault_active,
                hazard: None,
                alert: st.alert,
            });
            lane.prev_commanded = st.commanded;
        }

        // One lockstep physics step for every lane — dead and padding
        // lanes ride along (non-finite state is absorbing, zero-rate
        // padding is finite) without any lane-crossing arithmetic.
        bank.step_all(&delivered, CONTROL_CYCLE_MINUTES);

        for (l, lane) in lanes.iter_mut().enumerate() {
            if lane.dead.is_none() && !bank.lane_is_finite(l) {
                lane.dead = Some(SimError::NonFinite { cycle: s });
            }
        }
    }

    lanes
        .into_iter()
        .map(|lane| {
            if let Some(e) = lane.dead {
                return Err(e);
            }
            let mut trace = lane.trace;
            if let Some(m) = &lane.monitor {
                trace.monitor_tracks = vec![AlertTrack {
                    monitor: m.name().to_owned(),
                    alerts: lane.stream,
                }];
            }
            aps_risk::label_trace(&mut trace, &lane.config.labels);
            Ok(trace)
        })
        .collect()
}

/// Runs the whole campaign through the batched lockstep engine,
/// streaming each finished trace — **in deterministic job order** —
/// into `sink(job_index, trace)`.
///
/// Each unit of the [ordered executor](crate::exec) is a block of
/// [`BATCH_LANES`] consecutive jobs run in lockstep; the calling thread
/// unpacks each block into its jobs' positions. Output is defined to
/// equal
/// [`run_campaign_serial`](crate::campaign::run_campaign_serial),
/// bit for bit.
///
/// # Panics
///
/// Panics if any job fails mid-run (same contract as the scalar
/// executors; the fault-tolerant path is
/// [`run_campaign_resumable`](crate::campaign::run_campaign_resumable)).
pub fn run_campaign_batched_with(
    spec: &CampaignSpec,
    monitor_factory: Option<&MonitorFactory<'_>>,
    sink: impl FnMut(usize, SimTrace),
) {
    run_campaign_batched_with_workers(spec, monitor_factory, None, sink);
}

/// [`run_campaign_batched_with`] with an explicit worker-count
/// override (`None` = `APS_WORKERS` env, then detection). The
/// workers-scaling sweep of `repro bench-campaign --sweep-workers`
/// drives this directly so each sweep point runs at a pinned worker
/// count.
pub fn run_campaign_batched_with_workers(
    spec: &CampaignSpec,
    monitor_factory: Option<&MonitorFactory<'_>>,
    workers: Option<usize>,
    mut sink: impl FnMut(usize, SimTrace),
) {
    let jobs = campaign_jobs(spec);
    let n = jobs.len();
    let Ok(_) = ordered_par_map(
        n.div_ceil(BATCH_LANES),
        worker_count(workers).0,
        None,
        |b| {
            let lo = b * BATCH_LANES;
            let hi = (lo + BATCH_LANES).min(n);
            run_block::<BATCH_LANES>(spec, &jobs[lo..hi], monitor_factory)
                .into_iter()
                .map(|r| r.unwrap_or_else(|e| panic!("campaign job failed: {e}")))
                .collect::<Vec<_>>()
        },
        |b, traces| -> Result<(), Infallible> {
            for (j, trace) in traces.into_iter().enumerate() {
                sink(b * BATCH_LANES + j, trace);
            }
            Ok(())
        },
    );
}

/// [`run_campaign_batched_with`] collected into a `Vec` — the batched
/// counterpart of [`run_campaign`](crate::campaign::run_campaign),
/// defined to produce bit-identical output.
pub fn run_campaign_batched(
    spec: &CampaignSpec,
    monitor_factory: Option<&MonitorFactory<'_>>,
) -> Vec<SimTrace> {
    let mut out: Vec<SimTrace> = Vec::new();
    run_campaign_batched_with(spec, monitor_factory, |i, trace| {
        debug_assert_eq!(i, out.len(), "stream out of order");
        out.push(trace);
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign_serial;
    use crate::platform::Platform;

    #[test]
    fn single_block_matches_serial_jobs() {
        let spec = CampaignSpec {
            patient_indices: vec![0, 1],
            steps: 40,
            ..CampaignSpec::quick(Platform::GlucosymOref0)
        };
        let jobs = campaign_jobs(&spec);
        let serial = run_campaign_serial(&spec, None);
        let block = run_block::<4>(&spec, &jobs[..4], None);
        for (l, res) in block.into_iter().enumerate() {
            assert_eq!(res.unwrap(), serial[l], "lane {l} diverged");
        }
    }

    #[test]
    fn ragged_block_pads_and_matches() {
        let spec = CampaignSpec {
            patient_indices: vec![0],
            steps: 30,
            ..CampaignSpec::quick(Platform::T1dsBasalBolus)
        };
        let jobs = campaign_jobs(&spec);
        let serial = run_campaign_serial(&spec, None);
        // 3 jobs in an 8-lane block: 5 padding lanes.
        let block = run_block::<8>(&spec, &jobs[..3], None);
        assert_eq!(block.len(), 3);
        for (l, res) in block.into_iter().enumerate() {
            assert_eq!(res.unwrap(), serial[l], "lane {l} diverged");
        }
    }

    #[test]
    fn batched_campaign_equals_serial() {
        let spec = CampaignSpec {
            patient_indices: vec![0],
            steps: 40,
            ..CampaignSpec::quick(Platform::GlucosymOref0)
        };
        let serial = run_campaign_serial(&spec, None);
        let batched = run_campaign_batched(&spec, None);
        assert_eq!(batched, serial);
    }
}
