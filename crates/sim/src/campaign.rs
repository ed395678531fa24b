//! Fault-injection campaign runner.
//!
//! Expands a [`CampaignSpec`] into the grid of (patient × initial BG ×
//! fault scenario) runs — plus optional fault-free runs — and executes
//! them, optionally in parallel with scoped worker threads. Monitors
//! are created through a [`MonitorFactory`], since a patient-specific
//! monitor needs the run's basal/target context.
//!
//! Four entry points run a campaign, all in the same deterministic job
//! order and all defined to equal the serial reference:
//!
//! * [`run_campaign_resumable`] — the executor: [`CampaignOptions`]
//!   (workers, retries, checkpoints, cancel, chaos), an optional resume
//!   checkpoint, a sink for every [`JobOutcome`], and a
//!   [`CampaignReport`];
//! * [`run_campaign_with_workers`] — streams each trace into a sink with
//!   bounded memory and panics on a failed job;
//! * [`run_campaign`] — collects that stream into a `Vec`;
//! * [`run_campaign_serial`] — the reference, one job after another on
//!   the calling thread.
//!
//! # One engine
//!
//! Every parallel executor claims *groups* of pending jobs from the
//! [ordered executor](crate::exec): a group is the jobs of one
//! (patient, initial BG) cell. Within a group the fault scenario is
//! the only per-job input, so the group's loop is set up once, as one
//! lane carrying every job, and a job forks off to a lane of its own
//! only at the first cycle where its fault changes the loop
//! differently from its lane's. The lanes step in lockstep banks of
//! [`BATCH_LANES`], and every lane that splits off forks the group's
//! monitor, so every group runs this one way. Outcomes come back per
//! job, in job order. A job a lane cannot hold (invalid spec, chaos
//! plan, per-job deadline), every job of a lane that failed, and every
//! job of a group whose set-up or lanes panicked runs on its own from
//! attempt 1, so outcomes, ledger, digest and retries equal running
//! each job alone, as [`run_campaign_serial`] does.
//!
//! # Job set-up
//!
//! A job's patient and its controller basal rate are a pure function
//! of `(platform, patient_idx)`. Every executor therefore builds the
//! platform's cohort template once per campaign segment — each member's
//! patient, with its basal solved once — and sets each job up by
//! cloning its member. The serial reference builds each job's patient,
//! basal and controller afresh, so the equivalence suites compare a
//! cloned template against an independent build.
//!
//! # Fault tolerance
//!
//! [`run_campaign_resumable`] is the hardened execution path: every job
//! runs behind `catch_unwind` with its spec validated first, failures
//! retry under a [`RetryPolicy`] with bounded backoff, and whatever
//! still fails becomes a [`JobOutcome::Failed`] entry in the campaign's
//! [`ErrorLedger`] — the campaign degrades to partial results plus a
//! machine-readable ledger instead of a torn-down executor. With a
//! [`CheckpointPolicy`] the executor snapshots a versioned
//! [`CampaignCheckpoint`] every N completed jobs, and a later run can
//! resume from it, bit-identical to an uninterrupted run (pinned by the
//! kill-at-every-checkpoint test in `tests/campaign_ft.rs`). A
//! test-only [`ChaosConfig`] injects deterministic worker panics,
//! delays, and poisoned specs to exercise all of the above.

use crate::batch::BATCH_LANES;
use crate::chaos::{ChaosConfig, ChaosPlan};
use crate::checkpoint::{spec_hash, to_hex, CampaignCheckpoint, CheckpointError, CheckpointLog};
use crate::closed_loop::LoopConfig;
use crate::engine::run_one;
use crate::exec::{is_cancelled, ordered_par_map};
use crate::fork::run_group;
use crate::outcome::{ErrorLedger, JobOutcome, LedgerEntry, RetryPolicy, SimError};
use crate::platform::Platform;
use aps_controllers::Controller;
use aps_core::hms::ContextMitigatorConfig;
use aps_core::mitigation::Mitigator;
use aps_core::monitors::HazardMonitor;
use aps_fault::{campaign_grid, CampaignConfig, FaultInjector, FaultKind, FaultScenario};
use aps_glucose::patients::CohortPatient;
use aps_glucose::sensor::CgmConfig;
use aps_types::{MgDl, SimTrace, Step, UnitsPerHour};
use serde::{Deserialize, Serialize};
use std::convert::Infallible;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Context handed to the monitor factory for each run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioCtx {
    /// Qualified patient name.
    pub patient: String,
    /// Controller basal rate for this patient.
    pub basal: UnitsPerHour,
    /// Controller regulation target.
    pub target: MgDl,
    /// Maximum mitigation rate for this patient.
    pub max_rate: UnitsPerHour,
}

/// Creates a fresh monitor for a run (monitors are stateful).
///
/// The campaign executors call it once per group of jobs sharing a
/// patient and initial BG, for the lane that first carries them all,
/// and every lane that splits off [forks](HazardMonitor::fork) that
/// monitor. A job that runs on its own (the serial reference, or the
/// executors' per-job path) calls it once more. It must therefore be
/// a pure function of the [`ScenarioCtx`]: equal contexts, equal
/// monitors.
pub type MonitorFactory<'a> = dyn Fn(&ScenarioCtx) -> Box<dyn HazardMonitor> + Sync + 'a;

/// What to simulate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Which simulator/controller pairing.
    pub platform: Platform,
    /// Cohort indices to include (0..10).
    pub patient_indices: Vec<usize>,
    /// Initial glucose values (paper: seven values in 80–200).
    pub initial_bgs: Vec<f64>,
    /// Fault grid timing parameters.
    pub faults: CampaignConfig,
    /// Restrict injection to these variables (empty = the platform's
    /// primary input/state/output targets).
    pub fault_targets: Vec<String>,
    /// Also run one fault-free simulation per (patient, initial BG).
    pub include_fault_free: bool,
    /// Steps per simulation.
    pub steps: u32,
    /// Apply mitigation on monitor alerts.
    pub mitigate: bool,
    /// Use the context-dependent mitigation policy instead of the
    /// fixed Algorithm-1 rates (only meaningful with `mitigate`).
    #[serde(default)]
    pub context_mitigate: bool,
    /// Also sweep the extended fault-kind alphabet (`Scale`, `Drift`,
    /// `Noise`, `Intermittent`) over every target.
    #[serde(default)]
    pub extended_faults: bool,
    /// CGM model for every run (default: clean, the paper's
    /// assumption; used by the sensor-noise robustness ablation).
    #[serde(default)]
    pub cgm: CgmConfig,
}

impl CampaignSpec {
    /// A small smoke-test campaign: 2 patients, 1 initial BG, the
    /// quick fault grid.
    pub fn quick(platform: Platform) -> CampaignSpec {
        CampaignSpec {
            platform,
            patient_indices: vec![0, 1],
            initial_bgs: vec![120.0],
            faults: CampaignConfig::quick(),
            fault_targets: Vec::new(),
            include_fault_free: true,
            steps: 150,
            mitigate: false,
            context_mitigate: false,
            extended_faults: false,
            cgm: CgmConfig::default(),
        }
    }

    /// The paper-scale campaign: all 10 patients, 7 initial BG values,
    /// the full 9-combination fault grid over all injectable variables.
    pub fn paper(platform: Platform) -> CampaignSpec {
        CampaignSpec {
            platform,
            patient_indices: (0..10).collect(),
            initial_bgs: aps_glucose::patients::initial_bg_values().to_vec(),
            faults: CampaignConfig::paper(),
            fault_targets: Vec::new(),
            include_fault_free: true,
            steps: 150,
            mitigate: false,
            context_mitigate: false,
            extended_faults: false,
            cgm: CgmConfig::default(),
        }
    }

    /// [`quick`](CampaignSpec::quick) with the extended fault alphabet
    /// switched on — the widest per-run scenario diversity at smoke
    /// scale.
    pub fn extended(platform: Platform) -> CampaignSpec {
        CampaignSpec {
            extended_faults: true,
            ..CampaignSpec::quick(platform)
        }
    }
}

/// One expanded unit of campaign work: the coordinates of a single
/// closed-loop run in the (patient × initial BG × scenario) grid.
///
/// Public so session-level tooling (e.g. the bench crate's
/// monitor-bank zoo report) can walk the exact grid a
/// [`CampaignSpec`] describes while building its own
/// [`Session`](crate::session::Session)s per run.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignJob {
    /// Cohort index of the patient.
    pub patient_idx: usize,
    /// Initial true glucose (mg/dL).
    pub initial_bg: f64,
    /// Fault scenario (`None` = the fault-free run).
    pub scenario: Option<FaultScenario>,
}

type Job = CampaignJob;

/// Expands the spec into its deterministic job list (per patient and
/// initial BG: the fault-free run first, then every fault scenario).
/// [`run_campaign`] executes exactly this list, in this order.
pub fn campaign_jobs(spec: &CampaignSpec) -> Vec<CampaignJob> {
    let platform = spec.platform;
    // The first cohort member probes the controller's injectable
    // variables and their ranges.
    let all = platform
        .patient(0)
        .map(|probe| {
            if spec.extended_faults {
                platform.injection_targets_extended(probe.as_ref())
            } else {
                platform.injection_targets(probe.as_ref())
            }
        })
        .unwrap_or_default();
    let targets: Vec<_> = if spec.fault_targets.is_empty() {
        // The platform's primary input/state/output trio.
        all.into_iter()
            .filter(|t| Platform::PRIMARY_TARGET_NAMES.contains(&t.name.as_str()))
            .collect()
    } else {
        all.into_iter()
            .filter(|t| spec.fault_targets.iter().any(|n| n == &t.name))
            .collect()
    };
    let scenarios = campaign_grid(&targets, &spec.faults);
    let mut jobs = Vec::new();
    for &pi in &spec.patient_indices {
        for &bg0 in &spec.initial_bgs {
            if spec.include_fault_free {
                jobs.push(Job {
                    patient_idx: pi,
                    initial_bg: bg0,
                    scenario: None,
                });
            }
            for s in &scenarios {
                jobs.push(Job {
                    patient_idx: pi,
                    initial_bg: bg0,
                    scenario: Some(s.clone()),
                });
            }
        }
    }
    jobs
}

/// Number of runs the spec will execute.
pub fn campaign_size(spec: &CampaignSpec) -> usize {
    campaign_jobs(spec).len()
}

/// Every member of one platform's cohort, built once per campaign:
/// the template campaign jobs are set up from.
///
/// A member is a concrete patient together with its controller basal
/// rate, solved once ([`Platform::basal_for`]). Setting a job up clones
/// its patient and builds the controller around the cached basal
/// ([`Platform::controller_with_basal`]), which equals building both
/// from scratch bit for bit. Every executor builds one per campaign
/// segment; [`run_campaign_serial`] builds each job's patient, basal
/// and controller afresh instead, so it stays an independent oracle.
#[derive(Debug)]
pub(crate) struct Cohort {
    members: Vec<(CohortPatient, UnitsPerHour)>,
}

impl Cohort {
    /// Builds every member of `platform`'s cohort and solves its basal.
    pub(crate) fn new(platform: Platform) -> Cohort {
        let members = (0..)
            .map_while(|i| platform.concrete_patient(i))
            .map(|p| {
                let basal = platform.basal_for(p.as_dyn());
                (p, basal)
            })
            .collect();
        Cohort { members }
    }

    /// Number of members.
    pub(crate) fn len(&self) -> usize {
        self.members.len()
    }

    /// A copy of member `index`'s patient, and its basal rate.
    ///
    /// # Panics
    ///
    /// Panics when `index` is outside the cohort (the campaign
    /// executors validate every job first and run an invalid one only
    /// on the per-job path, which reports it).
    pub(crate) fn member(&self, index: usize) -> (CohortPatient, UnitsPerHour) {
        let (patient, basal) = self
            .members
            .get(index)
            .unwrap_or_else(|| panic!("patient index {index} out of cohort range"));
        (patient.clone(), *basal)
    }
}

/// One campaign job's closed loop, set up from the spec: the same
/// setup whether the job runs alone ([`JobRun::run`]) or as the trunk
/// whose lanes carry its group's jobs (the crate-private `fork`
/// module).
pub(crate) struct JobRun {
    /// The job's patient; the caller's physics.
    pub(crate) patient: CohortPatient,
    pub(crate) controller: Box<dyn Controller>,
    pub(crate) monitor: Option<Box<dyn HazardMonitor>>,
    pub(crate) injector: Option<FaultInjector>,
    pub(crate) config: LoopConfig,
}

impl JobRun {
    /// Builds the job's controller, monitor, injector and loop
    /// configuration around its patient and that patient's basal rate
    /// (a [`Cohort`] member, or built afresh by the serial reference).
    pub(crate) fn new(
        spec: &CampaignSpec,
        job: &Job,
        (patient, basal): (CohortPatient, UnitsPerHour),
        monitor_factory: Option<&MonitorFactory<'_>>,
    ) -> JobRun {
        let platform = spec.platform;
        let p = patient.as_dyn();
        let ctx = ScenarioCtx {
            patient: p.name().to_owned(),
            basal,
            target: platform.target(),
            max_rate: platform.max_mitigation_rate(p),
        };
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
        JobRun {
            controller: platform.controller_with_basal(basal),
            monitor: monitor_factory.map(|f| f(&ctx)),
            injector: job.scenario.clone().map(FaultInjector::new),
            config,
            patient,
        }
    }

    /// Runs the job alone from step 0, surfacing mid-run failures as a
    /// typed error.
    pub(crate) fn run(mut self) -> Result<SimTrace, SimError> {
        run_one(
            self.patient.as_dyn_mut(),
            self.controller.as_mut(),
            self.monitor
                .as_deref_mut()
                .map(|m| m as &mut dyn HazardMonitor),
            self.injector.as_mut(),
            &self.config,
            None,
        )
    }
}

/// Upper bound on the worker count, however it was requested. High
/// enough for any machine this runs on, low enough that a typo'd
/// `APS_WORKERS=2566` cannot fork-bomb the host.
pub const MAX_WORKERS: usize = 256;

/// Where the executor's worker count came from — surfaced in the
/// [`CampaignReport`] so a silent fallback to one worker (the old
/// `available_parallelism().unwrap_or(1)` behavior) is visible.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkerSource {
    /// `std::thread::available_parallelism` succeeded. The default:
    /// the provenance every run has when nothing overrides detection,
    /// and what a missing field in an older recorded report
    /// deserializes to.
    #[default]
    Detected,
    /// A valid `APS_WORKERS` environment override.
    Env,
    /// An explicit [`CampaignOptions::workers`] override (e.g. the
    /// `repro campaign --workers` flag).
    Override,
    /// `APS_WORKERS` was set but unusable (non-numeric or zero); the
    /// executor fell back to detection.
    InvalidEnv {
        /// The rejected raw value.
        raw: String,
    },
    /// Parallelism detection failed; the executor fell back to one
    /// worker.
    DetectFailed {
        /// The detection error.
        detail: String,
    },
}

/// Resolves the worker count from an explicit override, the raw
/// `APS_WORKERS` value, and the detected parallelism — in that
/// precedence order. Pure (no environment reads), so it is directly
/// testable; [`worker_count`] is the environment-reading wrapper.
/// Every source is clamped to `1..=`[`MAX_WORKERS`].
pub fn worker_count_from(
    explicit: Option<usize>,
    env_raw: Option<&str>,
    detected: Result<usize, String>,
) -> (usize, WorkerSource) {
    if let Some(w) = explicit {
        return (w.clamp(1, MAX_WORKERS), WorkerSource::Override);
    }
    let invalid_env = match env_raw {
        Some(raw) => match raw.trim().parse::<usize>() {
            Ok(w) if w > 0 => return (w.clamp(1, MAX_WORKERS), WorkerSource::Env),
            _ => Some(raw.to_owned()),
        },
        None => None,
    };
    match (detected, invalid_env) {
        (Ok(n), None) => (n.clamp(1, MAX_WORKERS), WorkerSource::Detected),
        (Ok(n), Some(raw)) => (n.clamp(1, MAX_WORKERS), WorkerSource::InvalidEnv { raw }),
        (Err(detail), _) => (1, WorkerSource::DetectFailed { detail }),
    }
}

/// [`worker_count_from`] fed from the live environment:
/// `APS_WORKERS`, then `std::thread::available_parallelism`.
pub fn worker_count(explicit: Option<usize>) -> (usize, WorkerSource) {
    let env_raw = std::env::var("APS_WORKERS").ok();
    let detected = std::thread::available_parallelism()
        .map(|p| p.get())
        .map_err(|e| e.to_string());
    worker_count_from(explicit, env_raw.as_deref(), detected)
}

/// When and where to snapshot a [`CampaignCheckpoint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint file: a log of snapshots, appended to and rewritten
    /// when full (see [`crate::checkpoint`]).
    pub path: PathBuf,
    /// Snapshot after every this-many completed jobs (≥ 1).
    pub every_jobs: usize,
}

/// Execution options for the fault-tolerant campaign path.
///
/// The default: one attempt, no deadline, no chaos, auto worker
/// count, no checkpointing.
#[derive(Debug, Clone, Default)]
pub struct CampaignOptions {
    /// Attempts per job and the backoff between them.
    pub retry: RetryPolicy,
    /// Per-job wall-clock budget. Checked *after* the attempt (jobs
    /// are not preempted), so an overrun fails the attempt
    /// deterministically in its effect but the *detection* depends on
    /// host timing — leave `None` (the default) for bit-reproducible
    /// campaigns. With a deadline every job runs on its own from step
    /// 0, outside its group's lanes.
    pub deadline: Option<Duration>,
    /// Deterministic executor-fault injection (tests/hardening only).
    pub chaos: Option<ChaosConfig>,
    /// Explicit worker-count override (`None` = `APS_WORKERS` env,
    /// then detection), capped at the number of groups (one per
    /// patient and initial BG) with pending jobs.
    pub workers: Option<usize>,
    /// Periodic checkpointing (`None` = never snapshot).
    pub checkpoint: Option<CheckpointPolicy>,
    /// Cooperative cancellation: set the flag and workers stop
    /// claiming new groups. Outcomes not yet emitted when it is seen —
    /// the rest of the current group and of any group already claimed
    /// — are dropped: neither emitted nor marked done, so the emitted
    /// jobs stay a prefix of the pending ones. The executor then
    /// returns with [`CampaignReport::cancelled`] set.
    pub cancel: Option<Arc<AtomicBool>>,
}

/// What a fault-tolerant campaign run did, including the error
/// ledger. Serializable for machine consumption (`repro campaign`
/// prints it).
///
/// Container-level `#[serde(default)]` keeps recorded reports loading
/// as fields are added.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(default)]
pub struct CampaignReport {
    /// Total jobs in the campaign grid.
    pub total_jobs: usize,
    /// Jobs skipped because a resume checkpoint already had them.
    pub skipped_resumed: usize,
    /// Jobs that produced a trace (cumulative across resume
    /// segments).
    pub completed_jobs: usize,
    /// Jobs that exhausted their attempts (cumulative).
    pub failed_jobs: usize,
    /// Completed jobs whose trace contains a labeled hazard
    /// (cumulative).
    pub hazardous_jobs: usize,
    /// Rolling digest over every outcome in job order (hex); equal
    /// digests witness bit-identical campaigns.
    pub digest: String,
    /// Worker threads used: at most one per group (patient and
    /// initial BG) with pending jobs, since a group is the executor's
    /// unit of work.
    pub workers: usize,
    /// Where that worker count came from.
    pub worker_source: WorkerSource,
    /// Whether the run was cancelled before finishing.
    pub cancelled: bool,
    /// Every failed job, in job order.
    pub ledger: ErrorLedger,
}

/// Renders a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// The poisoned spec chaos substitutes for a job's scenario:
/// structurally invalid on two axes (empty target, non-finite gain),
/// so spec validation must catch it before the engine runs.
fn poisoned_scenario() -> FaultScenario {
    FaultScenario::new("", FaultKind::Scale(f64::NAN), Step(0), 1)
}

/// Validates a job before simulation: a patient index inside a cohort
/// of `cohort_size`, finite initial BG and a structurally valid
/// scenario.
fn validate_job(job: &Job, cohort_size: usize) -> Result<(), SimError> {
    if job.patient_idx >= cohort_size {
        return Err(SimError::InvalidSpec {
            detail: format!(
                "patient index {} out of range (cohort has {cohort_size} patients)",
                job.patient_idx
            ),
        });
    }
    if !job.initial_bg.is_finite() {
        return Err(SimError::InvalidSpec {
            detail: format!("initial_bg must be finite, got {}", job.initial_bg),
        });
    }
    if let Some(s) = &job.scenario {
        s.validate().map_err(|e| SimError::InvalidSpec {
            detail: e.to_string(),
        })?;
    }
    Ok(())
}

/// Runs one job with full isolation: spec validation, optional chaos
/// injection, `catch_unwind`, an optional post-hoc deadline check,
/// and retries under the options' [`RetryPolicy`].
fn run_job_checked(
    spec: &CampaignSpec,
    cohort: &Cohort,
    job: &Job,
    monitor_factory: Option<&MonitorFactory<'_>>,
    options: &CampaignOptions,
    job_index: usize,
) -> JobOutcome {
    let mut attempt: u32 = 1;
    loop {
        let plan = options
            .chaos
            .as_ref()
            .map(|c| c.plan(job_index, attempt))
            .unwrap_or(ChaosPlan::NONE);
        if plan.delay_ms > 0 {
            std::thread::sleep(Duration::from_millis(plan.delay_ms));
        }
        let effective_job;
        let job_ref = if plan.poison {
            effective_job = Job {
                scenario: Some(poisoned_scenario()),
                ..job.clone()
            };
            &effective_job
        } else {
            job
        };
        let started = options.deadline.map(|_| Instant::now());
        let mut result = catch_unwind(AssertUnwindSafe(|| {
            if plan.panic {
                panic!(
                    "{} worker panic (job {job_index}, attempt {attempt})",
                    crate::chaos::INJECTED_PANIC_PREFIX
                );
            }
            validate_job(job_ref, cohort.len())?;
            let member = cohort.member(job_ref.patient_idx);
            JobRun::new(spec, job_ref, member, monitor_factory).run()
        }))
        .unwrap_or_else(|payload| {
            Err(SimError::Panicked {
                message: panic_message(payload),
            })
        });
        if let (Ok(_), Some(t0), Some(budget)) = (&result, started, options.deadline) {
            let elapsed = t0.elapsed();
            if elapsed > budget {
                result = Err(SimError::DeadlineExceeded {
                    elapsed_ms: elapsed.as_millis() as u64,
                    budget_ms: budget.as_millis() as u64,
                });
            }
        }
        match result {
            Ok(trace) => return JobOutcome::Completed(trace),
            Err(error) => {
                if attempt >= options.retry.max_attempts.max(1) {
                    return JobOutcome::Failed {
                        error,
                        attempts: attempt,
                    };
                }
                let delay = options.retry.backoff.delay_ms(attempt);
                if delay > 0 {
                    std::thread::sleep(Duration::from_millis(delay));
                }
                attempt += 1;
            }
        }
    }
}

/// Runs one group of jobs (`group` indexes `jobs`) and returns each
/// job's outcome, equal to what [`run_job_checked`] returns for it:
/// jobs whose attempt 1 runs clean ride one set of lockstep lanes that
/// forks where a job's fault first changes the loop (the crate-private
/// `fork` module), and every other job, job of a failed lane, or job
/// of a group whose set-up or lanes panicked goes through
/// [`run_job_checked`] from attempt 1.
fn run_group_checked(
    spec: &CampaignSpec,
    cohort: &Cohort,
    jobs: &[Job],
    group: &[usize],
    monitor_factory: Option<&MonitorFactory<'_>>,
    options: &CampaignOptions,
) -> Vec<JobOutcome> {
    let clean = |i: usize| {
        options.deadline.is_none()
            && validate_job(&jobs[i], cohort.len()).is_ok()
            && options
                .chaos
                .as_ref()
                .is_none_or(|c| c.plan(i, 1) == ChaosPlan::NONE)
    };
    let lanes: Vec<usize> = (0..group.len()).filter(|&k| clean(group[k])).collect();
    let lane_jobs: Vec<&Job> = lanes.iter().map(|&k| &jobs[group[k]]).collect();
    let mut outcomes: Vec<Option<JobOutcome>> = group.iter().map(|_| None).collect();
    let group_run = run_group::<BATCH_LANES>(spec, cohort, &lane_jobs, monitor_factory);
    for (&k, result) in lanes.iter().zip(group_run.results) {
        outcomes[k] = result.and_then(Result::ok).map(JobOutcome::Completed);
    }
    outcomes
        .into_iter()
        .zip(group)
        .map(|(outcome, &i)| {
            outcome.unwrap_or_else(|| {
                run_job_checked(spec, cohort, &jobs[i], monitor_factory, options, i)
            })
        })
        .collect()
}

/// Splits the `pending` job indices into groups: runs of consecutive
/// jobs of one patient and initial BG, the executor's unit of work.
fn groups<'p>(jobs: &[Job], pending: &'p [usize]) -> Vec<&'p [usize]> {
    let cell = |i: usize| (jobs[i].patient_idx, jobs[i].initial_bg.to_bits());
    pending.chunk_by(|&a, &b| cell(a) == cell(b)).collect()
}

/// Runs the `groups` of pending jobs on the
/// [ordered executor](crate::exec), one group per unit, and hands each
/// outcome to `emit(job_index, outcome)` in job order. Once
/// `options.cancel` is raised, outcomes not yet emitted are dropped.
/// Every job is set up from one [`Cohort`] template, built here.
fn run_pending<E>(
    spec: &CampaignSpec,
    jobs: &[Job],
    groups: &[&[usize]],
    monitor_factory: Option<&MonitorFactory<'_>>,
    options: &CampaignOptions,
    workers: usize,
    mut emit: impl FnMut(usize, JobOutcome) -> Result<(), E>,
) -> Result<(), E> {
    let cohort = Cohort::new(spec.platform);
    let cancel = options.cancel.as_deref();
    ordered_par_map(
        groups.len(),
        workers,
        cancel,
        |g| run_group_checked(spec, &cohort, jobs, groups[g], monitor_factory, options),
        |g, outcomes| {
            for (&i, outcome) in groups[g].iter().zip(outcomes) {
                if is_cancelled(cancel) {
                    break;
                }
                emit(i, outcome)?;
            }
            Ok(())
        },
    )
    .map(drop)
}

/// Mutable in-order emission state of a resumable run: the
/// checkpoint being built (bitmap, ledger, partials) and its periodic
/// snapshots.
struct EmitState<'a> {
    jobs: &'a [Job],
    ckpt: CampaignCheckpoint,
    /// The open checkpoint log and its cadence in jobs, if
    /// snapshotting.
    log: Option<(CheckpointLog, usize)>,
    emitted_this_segment: usize,
}

impl EmitState<'_> {
    /// Records one outcome (bitmap + partials + ledger), hands it to
    /// the sink, and checkpoints at the configured cadence.
    fn emit(
        &mut self,
        job_index: usize,
        outcome: JobOutcome,
        sink: &mut dyn FnMut(usize, JobOutcome),
    ) -> Result<(), CheckpointError> {
        self.ckpt.completed.set(job_index);
        match &outcome {
            JobOutcome::Completed(trace) => self.ckpt.partials.fold_completed(trace),
            JobOutcome::Failed { error, attempts } => {
                self.ckpt
                    .partials
                    .fold_failed(&error.to_string(), *attempts);
                let job = &self.jobs[job_index];
                self.ckpt.ledger.push(LedgerEntry {
                    job_index,
                    patient_idx: job.patient_idx,
                    initial_bg: job.initial_bg,
                    fault_name: job.scenario.as_ref().map(|s| s.name()).unwrap_or_default(),
                    error: error.clone(),
                    attempts: *attempts,
                });
            }
        }
        sink(job_index, outcome);
        self.emitted_this_segment += 1;
        if let Some((log, every)) = &mut self.log {
            if self.emitted_this_segment.is_multiple_of(*every) {
                log.save(&self.ckpt)?;
            }
        }
        Ok(())
    }
}

/// The fault-tolerant, resumable campaign executor.
///
/// Every job runs isolated (`catch_unwind` + spec validation +
/// optional deadline) with retries under `options.retry`; outcomes —
/// [`JobOutcome::Completed`] or [`JobOutcome::Failed`] — stream into
/// `sink(job_index, outcome)` in **deterministic job order**. Pending
/// jobs run in groups, each as riders of lockstep lanes in banks of
/// [`BATCH_LANES`] that fork where a job's fault first changes the
/// loop, falling back to one job at a time wherever a lane cannot hold
/// them (see the [module docs](self)). Cancelling leaves the emitted jobs a prefix
/// of the pending ones, and a failed checkpoint write stops the run.
/// Failed jobs are final
/// after their attempt budget: they are ledgered, marked done, and
/// never re-run by a resume (failures under a fixed seed/spec are
/// deterministic). A caller that needs only the report passes a no-op
/// sink, `|_, _| {}`; one that needs the outcomes pushes them.
///
/// With `resume`, jobs already recorded in the checkpoint's bitmap
/// are skipped and the ledger/partials continue from the snapshot;
/// the concatenation of all segments' sink emissions, and the final
/// report, are bit-identical to an uninterrupted run.
///
/// # Errors
///
/// [`CheckpointError::Mismatch`]/[`CheckpointError::Version`] when
/// `resume` does not belong to this campaign, and
/// [`CheckpointError::Io`] when a snapshot cannot be written. Job
/// failures are *not* errors — they are ledger entries.
pub fn run_campaign_resumable(
    spec: &CampaignSpec,
    monitor_factory: Option<&MonitorFactory<'_>>,
    options: &CampaignOptions,
    resume: Option<&CampaignCheckpoint>,
    mut sink: impl FnMut(usize, JobOutcome),
) -> Result<CampaignReport, CheckpointError> {
    let jobs = campaign_jobs(spec);
    let n = jobs.len();
    let chaos_seed = options.chaos.as_ref().map(|c| c.seed);
    let fresh = CampaignCheckpoint::fresh(to_hex(spec_hash(spec)), chaos_seed, n);
    let ckpt = match resume {
        Some(saved) => {
            saved.validate_for(&fresh.spec_hash, chaos_seed, n)?;
            CampaignCheckpoint {
                completed: saved.completed.clone(),
                ledger: saved.ledger.clone(),
                partials: saved.partials.clone(),
                ..fresh
            }
        }
        None => fresh,
    };
    let pending: Vec<usize> = (0..n).filter(|&i| !ckpt.completed.get(i)).collect();
    let skipped_resumed = n - pending.len();
    let m = pending.len();

    let groups = groups(&jobs, &pending);
    let (workers, worker_source) = worker_count(options.workers);
    let workers = workers.min(groups.len().max(1));
    let mut state = EmitState {
        jobs: &jobs,
        ckpt,
        log: options
            .checkpoint
            .as_ref()
            .map(|p| (CheckpointLog::new(&p.path), p.every_jobs.max(1))),
        emitted_this_segment: 0,
    };
    run_pending(
        spec,
        &jobs,
        &groups,
        monitor_factory,
        options,
        workers,
        |i, outcome| state.emit(i, outcome, &mut sink),
    )?;

    let was_cancelled = state.emitted_this_segment < m;
    // A final snapshot so the on-disk checkpoint always reflects the
    // end state (resuming a finished campaign is then a no-op).
    if let Some((log, every)) = &mut state.log {
        if !state.emitted_this_segment.is_multiple_of(*every) {
            log.save(&state.ckpt)?;
        }
    }

    let partials = state.ckpt.partials;
    Ok(CampaignReport {
        total_jobs: n,
        skipped_resumed,
        completed_jobs: partials.completed_jobs,
        failed_jobs: partials.failed_jobs,
        hazardous_jobs: partials.hazardous_jobs,
        digest: partials.digest,
        workers,
        worker_source,
        cancelled: was_cancelled,
        ledger: state.ckpt.ledger,
    })
}

/// Runs the whole campaign serially on the calling thread. This is the
/// reference executor: every other entry point is defined to produce
/// exactly this output, and the equivalence suites hold them to it.
///
/// Every job builds its own patient, basal rate and controller from
/// scratch instead of cloning a cohort template, so the executors'
/// shared set-up is checked against an independent one.
pub fn run_campaign_serial(
    spec: &CampaignSpec,
    monitor_factory: Option<&MonitorFactory<'_>>,
) -> Vec<SimTrace> {
    let platform = spec.platform;
    campaign_jobs(spec)
        .iter()
        .map(|job| {
            let patient = platform
                .concrete_patient(job.patient_idx)
                .unwrap_or_else(|| panic!("patient index {} out of cohort range", job.patient_idx));
            let basal = platform.basal_for(patient.as_dyn());
            JobRun::new(spec, job, (patient, basal), monitor_factory).run()
        })
        .map(|run| run.unwrap_or_else(|e| panic!("campaign job failed: {e}")))
        .collect()
}

/// Runs the whole campaign, streaming each finished trace — **in
/// deterministic job order** — into `sink(job_index, trace)` without
/// ever materializing the full result vector.
///
/// Jobs run in groups on the [ordered executor](crate::exec), each
/// group as lockstep lanes that fork where a job's fault first changes
/// the loop (see the [module docs](self)), so peak buffering is O(workers) groups,
/// never O(campaign): paper-scale sweeps can score, aggregate, or
/// persist traces as they arrive. Output order and contents are
/// defined to equal [`run_campaign_serial`].
///
/// `workers` overrides the worker count (`None` = `APS_WORKERS` env,
/// then detection — the default resolution). The workers-scaling
/// sweep of `repro bench-campaign --sweep-workers` passes it so each
/// sweep point runs at a pinned worker count.
///
/// # Panics
///
/// Panics on the calling thread when a job fails, after emitting the
/// jobs before it; [`run_campaign_resumable`] reports failures instead.
pub fn run_campaign_with_workers(
    spec: &CampaignSpec,
    monitor_factory: Option<&MonitorFactory<'_>>,
    workers: Option<usize>,
    mut sink: impl FnMut(usize, SimTrace),
) {
    let jobs = campaign_jobs(spec);
    let pending: Vec<usize> = (0..jobs.len()).collect();
    let Ok(_) = run_pending(
        spec,
        &jobs,
        &groups(&jobs, &pending),
        monitor_factory,
        &CampaignOptions::default(),
        worker_count(workers).0,
        |i, outcome| -> Result<(), Infallible> {
            match outcome {
                JobOutcome::Completed(trace) => sink(i, trace),
                JobOutcome::Failed { error, .. } => panic!("campaign job failed: {error}"),
            }
            Ok(())
        },
    );
}

/// Runs the whole campaign, parallelized over the available cores.
/// Results are returned in job order (deterministic, identical to
/// [`run_campaign_serial`]).
///
/// Thin wrapper over [`run_campaign_with_workers`] that collects the
/// ordered stream; prefer the sink when the campaign is large and
/// traces can be consumed incrementally.
pub fn run_campaign(
    spec: &CampaignSpec,
    monitor_factory: Option<&MonitorFactory<'_>>,
) -> Vec<SimTrace> {
    // No capacity precompute: sizing via `campaign_size` would expand
    // the whole job grid a second time just to be discarded.
    let mut out: Vec<SimTrace> = Vec::new();
    run_campaign_with_workers(spec, monitor_factory, None, |i, trace| {
        debug_assert_eq!(i, out.len(), "stream out of order");
        out.push(trace);
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aps_core::monitors::NullMonitor;
    use std::sync::atomic::Ordering;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            patient_indices: vec![0],
            initial_bgs: vec![120.0],
            ..CampaignSpec::quick(Platform::GlucosymOref0)
        }
    }

    #[test]
    fn campaign_size_matches_expansion() {
        let spec = tiny_spec();
        // 3 primary targets x 10 kinds x 1 start x 1 duration + 1 fault-free.
        assert_eq!(campaign_size(&spec), 31);
    }

    #[test]
    fn campaign_produces_ordered_labeled_traces() {
        let spec = tiny_spec();
        let traces = run_campaign(&spec, None);
        assert_eq!(traces.len(), campaign_size(&spec));
        // First job is the fault-free run.
        assert!(traces[0].meta.fault_start.is_none());
        assert!(traces[1..].iter().all(|t| t.meta.fault_start.is_some()));
        // Some fault in this grid should produce at least one hazard.
        assert!(
            traces.iter().any(|t| t.is_hazardous()),
            "no scenario in the quick grid was hazardous"
        );
    }

    #[test]
    fn monitor_factory_is_used() {
        let spec = tiny_spec();
        let factory: Box<MonitorFactory<'_>> =
            Box::new(|_ctx| Box::new(NullMonitor) as Box<dyn HazardMonitor>);
        let traces = run_campaign(&spec, Some(factory.as_ref()));
        assert!(traces.iter().all(|t| t.first_alert().is_none()));
    }

    #[test]
    fn campaign_is_deterministic() {
        let spec = CampaignSpec {
            steps: 40,
            ..tiny_spec()
        };
        let a = run_campaign(&spec, None);
        let b = run_campaign(&spec, None);
        assert_eq!(a, b);
    }

    #[test]
    fn extended_campaign_widens_the_grid_and_stays_deterministic() {
        let quick = CampaignSpec {
            steps: 40,
            patient_indices: vec![0],
            ..CampaignSpec::quick(Platform::GlucosymOref0)
        };
        let extended = CampaignSpec {
            extended_faults: true,
            ..quick.clone()
        };
        // 3 primary targets x 6 extra kinds x 1 time combo on top of
        // the 31-job quick grid.
        assert_eq!(campaign_size(&extended), campaign_size(&quick) + 18);
        let names: std::collections::HashSet<String> = run_campaign(&extended, None)
            .iter()
            .map(|t| t.meta.fault_name.clone())
            .collect();
        for expected in ["scale0.5_rate@t30x24", "int6d3_glucose@t30x24"] {
            assert!(names.contains(expected), "missing {expected}");
        }
        assert_eq!(run_campaign(&extended, None), run_campaign(&extended, None));
    }

    #[test]
    fn extended_faults_perturb_the_loop() {
        // Each new kind must actually leave a mark on some trace
        // (otherwise the wider grid is decorative).
        let spec = CampaignSpec {
            steps: 60,
            patient_indices: vec![0],
            ..CampaignSpec::extended(Platform::GlucosymOref0)
        };
        let faulty = run_campaign(&spec, None);
        let baseline = &faulty[0]; // job 0 is the fault-free run
        for prefix in ["scale", "drift", "noise", "int"] {
            let touched = faulty
                .iter()
                .filter(|t| t.meta.fault_name.starts_with(prefix))
                .any(|t| t.bg_true_series() != baseline.bg_true_series());
            assert!(touched, "no `{prefix}` scenario changed the trajectory");
        }
    }

    #[test]
    fn parallel_matches_serial_order_and_contents() {
        let spec = CampaignSpec {
            steps: 40,
            ..tiny_spec()
        };
        let parallel = run_campaign(&spec, None);
        let serial = run_campaign_serial(&spec, None);
        assert_eq!(parallel.len(), serial.len());
        for (i, (p, s)) in parallel.iter().zip(&serial).enumerate() {
            assert_eq!(p.meta.fault_name, s.meta.fault_name, "job {i} out of order");
            assert_eq!(p, s, "job {i} diverged between executors");
        }
    }

    #[test]
    fn sink_streams_in_job_order_and_matches_serial() {
        let spec = CampaignSpec {
            steps: 40,
            ..tiny_spec()
        };
        let serial = run_campaign_serial(&spec, None);
        let order: Vec<usize> = (0..serial.len()).collect();
        for workers in [None, Some(1), Some(2)] {
            let mut indices = Vec::new();
            let mut streamed = Vec::new();
            run_campaign_with_workers(&spec, None, workers, |i, t| {
                indices.push(i);
                streamed.push(t);
            });
            assert_eq!(indices, order, "workers {workers:?}");
            assert_eq!(streamed, serial, "workers {workers:?}");
        }
    }

    #[test]
    fn cohort_template_equals_a_fresh_build() {
        for platform in Platform::ALL {
            let cohort = Cohort::new(platform);
            assert_eq!(cohort.len(), platform.cohort_size());
            for i in 0..cohort.len() {
                let case = format!("{} patient {i}", platform.name());
                let (template, basal) = cohort.member(i);
                let fresh = platform.concrete_patient(i).unwrap();
                let solved = platform.basal_for(fresh.as_dyn());
                assert_eq!(basal.value().to_bits(), solved.value().to_bits(), "{case}");
                for bg in [80.0, 120.0, 157.3, 200.0] {
                    let (mut copy, mut built) = (template.clone(), fresh.clone());
                    copy.as_dyn_mut().reset(MgDl(bg));
                    built.as_dyn_mut().reset(MgDl(bg));
                    assert_eq!(copy, built, "{case}, bg {bg}");
                }
                let mut cached = platform.controller_with_basal(basal);
                let mut from_scratch = platform.controller_for(fresh.as_dyn());
                for k in 0..20 {
                    let bg = MgDl(70.0 + 9.5 * k as f64);
                    let a = cached.decide(Step(k), bg);
                    let b = from_scratch.decide(Step(k), bg);
                    assert_eq!(
                        a.value().to_bits(),
                        b.value().to_bits(),
                        "{case}, cycle {k}"
                    );
                    cached.observe_delivery(a);
                    from_scratch.observe_delivery(b);
                }
            }
        }
    }

    #[test]
    fn jobs_expose_the_grid() {
        let spec = tiny_spec();
        let jobs = campaign_jobs(&spec);
        assert_eq!(jobs.len(), campaign_size(&spec));
        assert_eq!(jobs[0].scenario, None);
        assert!(jobs[1..].iter().all(|j| j.scenario.is_some()));
    }

    #[test]
    fn worker_count_resolution_precedence() {
        // Explicit override beats everything and is clamped.
        assert_eq!(
            worker_count_from(Some(4), Some("8"), Ok(2)),
            (4, WorkerSource::Override)
        );
        assert_eq!(
            worker_count_from(Some(0), None, Ok(2)),
            (1, WorkerSource::Override)
        );
        assert_eq!(
            worker_count_from(Some(100_000), None, Ok(2)),
            (MAX_WORKERS, WorkerSource::Override)
        );
        // Valid env beats detection.
        assert_eq!(
            worker_count_from(None, Some("3"), Ok(8)),
            (3, WorkerSource::Env)
        );
        assert_eq!(
            worker_count_from(None, Some(" 5 "), Ok(8)),
            (5, WorkerSource::Env)
        );
        // Invalid env (zero, junk) falls back to detection and says so.
        assert_eq!(
            worker_count_from(None, Some("0"), Ok(8)),
            (8, WorkerSource::InvalidEnv { raw: "0".into() })
        );
        assert_eq!(
            worker_count_from(None, Some("lots"), Ok(8)),
            (8, WorkerSource::InvalidEnv { raw: "lots".into() })
        );
        // Plain detection, and the failure fallback to one worker.
        assert_eq!(
            worker_count_from(None, None, Ok(8)),
            (8, WorkerSource::Detected)
        );
        assert_eq!(
            worker_count_from(None, None, Err("nope".into())),
            (
                1,
                WorkerSource::DetectFailed {
                    detail: "nope".into()
                }
            )
        );
    }

    /// Every outcome of [`run_campaign_resumable`] (no resume), in job
    /// order, and its report.
    fn run_collecting(
        spec: &CampaignSpec,
        factory: Option<&MonitorFactory<'_>>,
        options: &CampaignOptions,
    ) -> (Vec<JobOutcome>, CampaignReport) {
        let mut outcomes = Vec::new();
        let report = run_campaign_resumable(spec, factory, options, None, |i, o| {
            assert_eq!(i, outcomes.len(), "stream out of order");
            outcomes.push(o);
        })
        .unwrap();
        (outcomes, report)
    }

    #[test]
    fn ft_clean_path_matches_serial() {
        let spec = CampaignSpec {
            steps: 40,
            ..tiny_spec()
        };
        let serial = run_campaign_serial(&spec, None);
        let (outcomes, report) = run_collecting(&spec, None, &CampaignOptions::default());
        assert_eq!(report.total_jobs, serial.len());
        assert_eq!(report.completed_jobs, serial.len());
        assert_eq!(report.failed_jobs, 0);
        assert!(report.ledger.is_empty());
        assert!(!report.cancelled);
        let traces: Vec<&SimTrace> = outcomes.iter().filter_map(|o| o.trace()).collect();
        assert_eq!(traces.len(), serial.len());
        for (got, want) in traces.iter().zip(&serial) {
            assert_eq!(*got, want);
        }
        assert_eq!(
            report.hazardous_jobs,
            serial.iter().filter(|t| t.is_hazardous()).count()
        );
    }

    #[test]
    fn invalid_jobs_are_ledgered_not_fatal() {
        // A non-finite initial BG and a patient index outside the
        // cohort are caught by validation before the engine ever runs,
        // and the rest of the campaign survives.
        let spec = CampaignSpec {
            steps: 40,
            patient_indices: vec![0, 12],
            initial_bgs: vec![120.0, f64::NAN],
            ..tiny_spec()
        };
        let report =
            run_campaign_resumable(&spec, None, &CampaignOptions::default(), None, |_, _| {})
                .unwrap();
        let quarter = report.total_jobs / 4;
        assert_eq!(report.failed_jobs, 3 * quarter);
        assert_eq!(report.completed_jobs, quarter);
        assert_eq!(report.ledger.len(), 3 * quarter);
        for entry in &report.ledger.entries {
            assert!(
                matches!(entry.error, SimError::InvalidSpec { .. }),
                "{:?}",
                entry.error
            );
            assert_eq!(entry.attempts, 1);
        }
        let out_of_range = report.ledger.entries.iter();
        assert_eq!(
            out_of_range.filter(|e| e.patient_idx == 12).count(),
            2 * quarter
        );
    }

    #[test]
    fn retry_policy_bounds_attempts_for_deterministic_failures() {
        let spec = CampaignSpec {
            steps: 10,
            initial_bgs: vec![f64::INFINITY],
            ..tiny_spec()
        };
        let options = CampaignOptions {
            retry: RetryPolicy {
                max_attempts: 3,
                ..RetryPolicy::default()
            },
            workers: Some(1),
            ..CampaignOptions::default()
        };
        let report = run_campaign_resumable(&spec, None, &options, None, |_, _| {}).unwrap();
        assert_eq!(report.completed_jobs, 0);
        assert!(report
            .ledger
            .entries
            .iter()
            .all(|e| e.attempts == 3 && matches!(e.error, SimError::InvalidSpec { .. })));
    }

    #[test]
    fn cancellation_stops_claiming_and_reports_it() {
        let spec = CampaignSpec {
            steps: 40,
            ..tiny_spec()
        };
        let cancel = Arc::new(AtomicBool::new(false));
        let options = CampaignOptions {
            cancel: Some(Arc::clone(&cancel)),
            workers: Some(1),
            ..CampaignOptions::default()
        };
        let mut seen = Vec::new();
        let report = run_campaign_resumable(&spec, None, &options, None, |i, _| {
            seen.push(i);
            if seen.len() == 5 {
                cancel.store(true, Ordering::Release);
            }
        })
        .unwrap();
        assert!(report.cancelled);
        assert_eq!(seen, (0..5).collect::<Vec<_>>());
        assert_eq!(report.completed_jobs, 5);
    }

    /// Never alerts, like [`NullMonitor`] (whose name it takes, so its
    /// traces equal a `NullMonitor` run), but panics at cycle 20 when
    /// the commanded rate is pinned at `max`: the rate-max fault's
    /// signature, so exactly one scenario per patient and BG panics.
    #[derive(Clone)]
    struct PanicsOnMaxRate {
        max: f64,
    }

    impl HazardMonitor for PanicsOnMaxRate {
        fn name(&self) -> &str {
            NullMonitor.name()
        }

        fn check(&mut self, input: &aps_core::monitors::MonitorInput) -> Option<aps_types::Hazard> {
            assert!(
                !(input.step == Step(20) && input.commanded.0 >= self.max),
                "monitor failed at cycle 20"
            );
            None
        }

        fn observe_delivery(&mut self, _delivered: UnitsPerHour) {}

        fn reset(&mut self) {}

        fn fork(&self) -> Box<dyn HazardMonitor> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn panicking_lane_sets_equal_the_per_job_reference() {
        // Patient 12 is outside the cohort, and rate faults start at
        // cycle 10, so the rate-max jobs (3 and 14) split off their
        // groups' lanes there and panic at cycle 20, which fails the
        // lane sets of the first two groups: every job of those groups
        // reruns on its own. Chaos perturbs a seeded share of the jobs;
        // one attempt and two attempts both run, since a retry can hide
        // a chaos plan mistaken for a clean lane.
        let spec = CampaignSpec {
            patient_indices: vec![0, 12],
            initial_bgs: vec![120.0, 160.0],
            faults: CampaignConfig {
                starts: vec![10],
                durations: vec![24],
            },
            fault_targets: vec!["rate".to_owned()],
            steps: 40,
            ..tiny_spec()
        };
        let platform = spec.platform;
        let probe = platform.patients().remove(0);
        let max = platform
            .controller_for(probe.as_ref())
            .state_vars()
            .into_iter()
            .find(|v| v.name == "rate")
            .map(|v| v.max)
            .unwrap();
        let factory =
            move |_: &ScenarioCtx| Box::new(PanicsOnMaxRate { max }) as Box<dyn HazardMonitor>;
        let factory: &MonitorFactory<'_> = &factory;
        let jobs = campaign_jobs(&spec);
        let cohort = Cohort::new(platform);
        let max_rate = |i: &usize| {
            let scenario = jobs[*i].scenario.as_ref();
            scenario.is_some_and(|s| s.name().starts_with("max_rate"))
        };
        let panicking: Vec<usize> = (1..22).filter(max_rate).collect();
        assert_eq!(panicking, [3, 14], "the rate-max jobs");

        // The other jobs of those groups equal the serial reference.
        let serial = run_campaign_serial(
            &CampaignSpec {
                patient_indices: vec![0],
                ..spec.clone()
            },
            Some(&|_: &ScenarioCtx| Box::new(NullMonitor) as Box<dyn HazardMonitor>),
        );
        assert_eq!(serial.len(), 22, "the first two groups");
        let (outcomes, _) = run_collecting(&spec, Some(factory), &CampaignOptions::default());
        let mut group_mates = 0;
        for i in (0..serial.len()).filter(|i| !panicking.contains(i)) {
            if let JobOutcome::Completed(trace) = &outcomes[i] {
                assert_eq!(trace, &serial[i], "group-mate {i}");
                group_mates += 1;
            }
        }
        assert_eq!(group_mates, serial.len() - 2);

        for max_attempts in [1, 2] {
            let base = CampaignOptions {
                chaos: Some(ChaosConfig {
                    max_delay_ms: 1,
                    ..ChaosConfig::with_seed(9)
                }),
                retry: RetryPolicy {
                    max_attempts,
                    ..RetryPolicy::default()
                },
                ..CampaignOptions::default()
            };

            // The reference: every job on its own.
            let reference: Vec<JobOutcome> = jobs
                .iter()
                .enumerate()
                .map(|(i, job)| run_job_checked(&spec, &cohort, job, Some(factory), &base, i))
                .collect();
            let mut ledger = ErrorLedger::new();
            for (i, outcome) in reference.iter().enumerate() {
                if let JobOutcome::Failed { error, attempts } = outcome {
                    ledger.push(LedgerEntry {
                        job_index: i,
                        patient_idx: jobs[i].patient_idx,
                        initial_bg: jobs[i].initial_bg,
                        fault_name: jobs[i]
                            .scenario
                            .as_ref()
                            .map(|s| s.name())
                            .unwrap_or_default(),
                        error: error.clone(),
                        attempts: *attempts,
                    });
                }
            }
            let failed_with = |needle: &str| {
                let mut errors = ledger.entries.iter().map(|e| e.error.to_string());
                errors.any(|e| e.contains(needle))
            };
            assert!(failed_with("monitor failed at cycle 20"));
            assert!(failed_with("out of range"));
            assert!(failed_with(crate::chaos::INJECTED_PANIC_PREFIX));

            for workers in [1, 2] {
                let case = format!("attempts {max_attempts}, workers {workers}");
                let options = CampaignOptions {
                    workers: Some(workers),
                    ..base.clone()
                };
                let (outcomes, report) = run_collecting(&spec, Some(factory), &options);
                assert_eq!(outcomes, reference, "{case}");
                assert_eq!(report.ledger, ledger, "{case}");
                assert_eq!(report.workers, workers);

                // Kill at every checkpoint boundary (mid-group at every
                // third job), resume, and get the uninterrupted run back.
                let path = std::env::temp_dir().join(format!(
                    "aps_group_ckpt_{}_{max_attempts}_{workers}.json",
                    std::process::id()
                ));
                let options = CampaignOptions {
                    checkpoint: Some(CheckpointPolicy {
                        path: path.clone(),
                        every_jobs: 3,
                    }),
                    ..options
                };
                for kill_at in (3..jobs.len()).step_by(3) {
                    let cancel = Arc::new(AtomicBool::new(false));
                    let killing = CampaignOptions {
                        cancel: Some(Arc::clone(&cancel)),
                        ..options.clone()
                    };
                    let mut emissions = Vec::new();
                    let killed =
                        run_campaign_resumable(&spec, Some(factory), &killing, None, |i, o| {
                            emissions.push((i, o));
                            if emissions.len() == kill_at {
                                cancel.store(true, Ordering::Release);
                            }
                        })
                        .unwrap();
                    assert!(killed.cancelled, "{case}, kill at {kill_at}");
                    assert_eq!(emissions.len(), kill_at, "{case}, kill at {kill_at}");
                    let snapshot = CampaignCheckpoint::load(&path).unwrap();
                    assert_eq!(snapshot.completed.count(), kill_at);
                    let resumed = run_campaign_resumable(
                        &spec,
                        Some(factory),
                        &options,
                        Some(&snapshot),
                        |i, o| emissions.push((i, o)),
                    )
                    .unwrap();
                    let (order, outcomes): (Vec<usize>, Vec<JobOutcome>) =
                        emissions.into_iter().unzip();
                    assert_eq!(order, (0..jobs.len()).collect::<Vec<_>>());
                    assert_eq!(outcomes, reference, "{case}, kill at {kill_at}");
                    assert_eq!(resumed.ledger, ledger, "{case}, kill at {kill_at}");
                    assert_eq!(resumed.digest, report.digest, "{case}, kill at {kill_at}");
                }
                let _ = std::fs::remove_file(&path);
            }
        }

        // Workers beyond the number of units, one per (patient, initial
        // BG) group, are not started.
        let options = CampaignOptions {
            workers: Some(8),
            ..CampaignOptions::default()
        };
        let wide = run_campaign_resumable(&spec, Some(factory), &options, None, |_, _| {}).unwrap();
        let groups = spec.patient_indices.len() * spec.initial_bgs.len();
        assert_eq!(wide.workers, groups);

        // A deadline is a per-job clock: no job may share a lane.
        let options = CampaignOptions {
            deadline: Some(Duration::ZERO),
            ..CampaignOptions::default()
        };
        let late = run_campaign_resumable(&tiny_spec(), None, &options, None, |_, _| {}).unwrap();
        assert_eq!(late.completed_jobs, 0);
        let mut errors = late.ledger.entries.iter().map(|e| &e.error);
        assert!(errors.all(|e| matches!(e, SimError::DeadlineExceeded { .. })));

        // The non-resumable executor runs the same groups and panics on
        // the first failed job.
        let run = catch_unwind(AssertUnwindSafe(|| {
            run_campaign_with_workers(&spec, Some(factory), Some(2), |_, _| {});
        }));
        assert!(run.is_err(), "a failed job must panic");
    }
}
