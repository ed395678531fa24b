//! Forking a campaign group's faulty runs from one fault-free trunk.
//!
//! A *group* is the jobs of one (patient, initial BG) cell of a
//! campaign grid. Within a group the fault scenario is the only per-job
//! input, so every faulty run repeats the group's fault-free run step
//! for step until its fault starts. [`run_group`] therefore runs the
//! fault-free loop once, as a one-lane **trunk**, and pauses it at each
//! distinct fork step to copy its lane ([`Fork`]): patient, controller
//! and monitor (forks of both), CGM with its RNG, pump, context
//! mitigator, the trace and verdict prefix, and the hazard labeller. The
//! trunk labels its records before each fork, so the copied prefix
//! comes labelled and a job labels only the steps after its fork. A
//! job's fork step is its fault start, clamped to the step count; the
//! fault-free job forks with the group's latest faulty job.
//!
//! Every job then runs as a lane of a lockstep block of the jobs that
//! share its fork step, resuming from that copy, with its own injector
//! first brought to the state a run from step 0 has at that step
//! ([`Lane::resume`](crate::engine::Lane::resume)). Jobs that fork at
//! step 0 — faults that start at once, and every job of a group whose
//! monitor cannot [fork](HazardMonitor::fork) — run through the same
//! blocks from a fresh setup, with the monitor factory called per job.
//!
//! # Bit-identity
//!
//! A forked lane produces, bit for bit, the trace of the same job run
//! alone from step 0: the prefix it copies is the one that run would
//! have recorded, and from the fork on it runs the same cycle on
//! copies of the same state. Its labels are those of one labelling pass
//! over the whole trace: the labeller resumes where the trunk's left
//! off and marks hazard windows back into the copied prefix
//! ([`RiskTracker::label_tail`](aps_risk::RiskTracker::label_tail)). [`run_campaign_serial`] and the per-job
//! isolation path still run every job from step 0, so the equivalence
//! suites check every fork against an independent full run
//! (`tests/fork_equivalence.rs`).
//!
//! # Isolation
//!
//! The trunk and each block run under their own `catch_unwind`. A job
//! whose block panicked, or whose fork was never made because the trunk
//! panicked or died before its fork step, comes back `None`, and the
//! campaign executor reruns it on its own.
//!
//! [`run_campaign_serial`]: crate::campaign::run_campaign_serial

use crate::batch::run_runs;
use crate::campaign::{CampaignJob, CampaignSpec, Cohort, JobRun, MonitorFactory};
use crate::closed_loop::LoopConfig;
use crate::engine::{run_alone, LaneState};
use crate::outcome::SimError;
use aps_controllers::Controller;
use aps_core::monitors::HazardMonitor;
use aps_fault::FaultInjector;
use aps_glucose::patients::CohortPatient;
use aps_types::{MgDl, SimTrace};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Where a forked job's lane resumes.
pub(crate) struct Resume {
    /// The lane's own state at the fork step (a copy of the trunk's).
    pub(crate) state: LaneState,
    /// The trunk controller's value of the job's fault target one step
    /// before the fork, which an internal-variable fault read there.
    pub(crate) target_before: Option<f64>,
}

/// A group's trunk paused at a step boundary: what the jobs that fork
/// there copy.
struct Fork {
    patient: CohortPatient,
    controller: Box<dyn Controller>,
    /// The controller one step earlier.
    before: Box<dyn Controller>,
    monitor: Option<Box<dyn HazardMonitor>>,
    config: LoopConfig,
    state: LaneState,
}

/// A fork of a monitor that forked before.
///
/// # Panics
///
/// Panics when the monitor refuses this time; the executor then reruns
/// the jobs that needed the copy on their own.
fn fork_monitor(monitor: &dyn HazardMonitor) -> Box<dyn HazardMonitor> {
    monitor
        .fork()
        .unwrap_or_else(|| panic!("monitor `{}` stopped forking", monitor.name()))
}

impl Fork {
    /// `job`, a job of the trunk's group, as a run resuming here.
    fn job(&self, job: &CampaignJob) -> JobRun {
        let monitor = self.monitor.as_deref().map(fork_monitor);
        let target_before = job
            .scenario
            .as_ref()
            .and_then(|s| self.before.get_state(&s.target));
        JobRun {
            patient: self.patient.clone(),
            controller: self.controller.fork(),
            monitor,
            injector: job.scenario.clone().map(FaultInjector::new),
            config: self.config.clone(),
            resume: Some(Resume {
                state: self.state.fork(self.config.steps),
                target_before,
            }),
        }
    }
}

/// Runs the trunk alone and pauses at each step of `at` (ascending,
/// each in `1..=steps`) to fork it. A fork the trunk did not reach
/// alive is `None`.
fn run_trunk(trunk: &mut JobRun, at: &[u32]) -> Vec<Option<Fork>> {
    let config = trunk.config.clone();
    let (patient, mut lane) = trunk.lane();
    patient.as_dyn_mut().reset(MgDl(config.initial_bg));
    let mut forks = Vec::with_capacity(at.len());
    let mut from = 0;
    for &step in at {
        run_alone(patient.as_dyn_mut(), &mut lane, from..step - 1);
        let before = lane.controller().fork();
        run_alone(patient.as_dyn_mut(), &mut lane, step - 1..step);
        from = step;
        lane.label();
        let Some(state) = lane.state() else { break };
        forks.push(Some(Fork {
            patient: patient.clone(),
            controller: lane.controller().fork(),
            before,
            monitor: lane.primary_monitor().map(fork_monitor),
            config: config.clone(),
            state: state.fork(config.steps),
        }));
    }
    forks.resize_with(at.len(), || None);
    forks
}

/// The step each of a group's jobs forks from the trunk at: its fault
/// start, clamped to `steps`; for the fault-free job the group's latest
/// fork step (`steps` when the group has no faulty job). Every job
/// forks at step 0 when the group's monitor cannot fork.
fn fork_steps(jobs: &[&CampaignJob], steps: u32, forkable: bool) -> Vec<u32> {
    let start = |job: &CampaignJob| job.scenario.as_ref().map(|s| s.start.0.min(steps));
    let last = jobs.iter().filter_map(|job| start(job)).max();
    jobs.iter()
        .map(|job| match (forkable, start(job)) {
            (false, _) => 0,
            (true, Some(step)) => step,
            (true, None) => last.unwrap_or(steps),
        })
        .collect()
}

/// Runs one group's jobs — jobs of one patient and initial BG, valid
/// and in job order — in lockstep blocks of up to `LANES` jobs forked
/// from the group's trunk, and returns each job's result in the same
/// order: `None` where the job did not run (see the
/// [module docs](self)).
pub(crate) fn run_group<const LANES: usize>(
    spec: &CampaignSpec,
    cohort: &Cohort,
    jobs: &[&CampaignJob],
    monitor_factory: Option<&MonitorFactory<'_>>,
) -> Vec<Option<Result<SimTrace, SimError>>> {
    let mut results: Vec<Option<Result<SimTrace, SimError>>> = jobs.iter().map(|_| None).collect();
    let Some(first) = jobs.first() else {
        return results;
    };
    let trunk = catch_unwind(AssertUnwindSafe(|| {
        let fault_free = CampaignJob {
            patient_idx: first.patient_idx,
            initial_bg: first.initial_bg,
            scenario: None,
        };
        let member = cohort.member(first.patient_idx);
        let trunk = JobRun::new(spec, &fault_free, member, monitor_factory);
        let forkable = trunk.monitor.as_ref().is_none_or(|m| m.fork().is_some());
        (trunk, forkable)
    }));
    let forkable = trunk.as_ref().is_ok_and(|(_, forkable)| *forkable);
    let fork_at = fork_steps(jobs, spec.steps, forkable);
    let mut at: Vec<u32> = fork_at.iter().copied().filter(|&step| step > 0).collect();
    at.sort_unstable();
    at.dedup();
    let forks = match trunk {
        Ok((mut trunk, true)) if !at.is_empty() => {
            catch_unwind(AssertUnwindSafe(|| run_trunk(&mut trunk, &at))).unwrap_or_default()
        }
        _ => Vec::new(),
    };

    // Jobs by fork step, in job order within a step.
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&k| fork_at[k]);
    for same_step in order.chunk_by(|&a, &b| fork_at[a] == fork_at[b]) {
        let step = fork_at[same_step[0]];
        let fork = match step {
            0 => None,
            _ => match at.binary_search(&step).ok().and_then(|i| forks.get(i)) {
                Some(Some(fork)) => Some(fork),
                // The trunk panicked or died first: these jobs run alone.
                _ => continue,
            },
        };
        for block in same_step.chunks(LANES) {
            let run = catch_unwind(AssertUnwindSafe(|| {
                let runs = block.iter().map(|&k| match fork {
                    Some(fork) => fork.job(jobs[k]),
                    None => {
                        let member = cohort.member(jobs[k].patient_idx);
                        JobRun::new(spec, jobs[k], member, monitor_factory)
                    }
                });
                run_runs::<LANES>(runs.collect())
            }));
            if let Ok(block_results) = run {
                for (&k, result) in block.iter().zip(block_results) {
                    results[k] = Some(result);
                }
            }
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;
    use aps_fault::{FaultKind, FaultScenario};
    use aps_types::Step;

    /// Every fork's caught-up injector equals the injector of the same
    /// job run from step 0 up to the fork step, on every route: CGM
    /// input, rate output, every controller-internal variable, and a
    /// target the controller does not expose.
    #[test]
    fn caught_up_injectors_equal_a_run_from_step_0() {
        for platform in Platform::ALL {
            let steps = 40;
            let spec = CampaignSpec {
                patient_indices: vec![0],
                steps,
                ..CampaignSpec::quick(platform)
            };
            let cohort = Cohort::new(platform);
            let job = |scenario: Option<FaultScenario>| CampaignJob {
                patient_idx: 0,
                initial_bg: 150.0,
                scenario,
            };
            let mut targets: Vec<&str> = platform
                .controller_with_basal(cohort.member(0).1)
                .state_vars()
                .iter()
                .map(|v| v.name)
                .collect();
            assert!(["glucose", "rate", "iob"]
                .iter()
                .all(|t| targets.contains(t)));
            targets.push("not_a_variable");

            let at = [1, 2, 17, steps - 1, steps];
            let mut trunk = JobRun::new(&spec, &job(None), cohort.member(0), None);
            let forks = run_trunk(&mut trunk, &at);
            for (fork, &step) in forks.iter().zip(&at) {
                let fork = fork.as_ref().expect("the trunk stays finite");
                assert_eq!(fork.state.step(), step);
                for target in &targets {
                    let case = format!("{platform:?}, `{target}` forked at {step}");
                    let scenario = FaultScenario::new(target, FaultKind::Hold, Step(steps), 6);
                    let job = job(Some(scenario.clone()));
                    let mut forked = fork.job(&job);
                    drop(forked.lane());

                    let mut scratch = JobRun::new(&spec, &job, cohort.member(0), None);
                    let (patient, mut lane) = scratch.lane();
                    patient.as_dyn_mut().reset(MgDl(job.initial_bg));
                    run_alone(patient.as_dyn_mut(), &mut lane, 0..step);
                    drop(lane);

                    assert_eq!(forked.injector, scratch.injector, "{case}");
                    // A route that read a value remembers it for a later
                    // `Hold`, so the catch-up is not vacuous. An internal
                    // variable has no value before the first decision.
                    let fresh = FaultInjector::new(scenario);
                    let io = ["glucose", "rate"].contains(target);
                    let remembers = io || (*target != "not_a_variable" && step > 1);
                    assert_eq!(forked.injector != Some(fresh), remembers, "{case}");
                }
            }
        }
    }
}
