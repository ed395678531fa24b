//! Running a campaign group's jobs as riders of one set of lanes that
//! forks where a job's fault first changes the loop.
//!
//! A *group* is the jobs of one (patient, initial BG) cell of a
//! campaign grid. Within a group the fault scenario is the only per-job
//! input, so two jobs run the same loop for as long as their faults do
//! the same thing to it: before either fault starts, while a clamped
//! rate fault commands what the controller decided anyway, or while two
//! faults write the same value to the same variable. [`run_group`]
//! therefore sets up the group's closed loop once, as one lane that
//! carries every job as a *rider*, and lets a rider split off to a lane
//! of its own only at the first cycle where its fault's effect differs
//! from its lane's (the crate-private `engine` module has the rules). A
//! split copies the lane mid-cycle: patient (into a free lane of a
//! [`BATCH_LANES`](crate::batch::BATCH_LANES) physics bank, banks being
//! added as lanes split), controller and monitor (forks of both), CGM
//! with its RNG, pump, context mitigator, the trace and verdict prefix,
//! and the hazard labeller. The lane labels its records before each
//! split, so the copied prefix comes labelled and a lane labels only
//! its own steps.
//!
//! # Bit-identity
//!
//! Every rider produces, bit for bit, the trace of the same job run
//! alone from step 0: from the group's common start the loop is a pure
//! function of the effect sequence, and a rider leaves its lane the
//! moment its effects stop being the lane's, carrying a copy of the
//! state that run would have had there. Its labels are those of one
//! labelling pass over the whole trace: the labeller resumes where its
//! lane's left off and marks hazard windows back into the copied prefix
//! ([`RiskTracker::label_tail`](aps_risk::RiskTracker::label_tail)).
//! [`run_campaign_serial`] and the per-job isolation path still run
//! every job from step 0, so the equivalence suites check every rider
//! against an independent full run (`tests/fork_equivalence.rs`).
//!
//! # Isolation
//!
//! The group's set-up and its lane set run under one `catch_unwind`.
//! When either panics, every job of the group comes back `None`, and
//! the campaign executor reruns each on its own.
//!
//! [`run_campaign_serial`]: crate::campaign::run_campaign_serial

use crate::batch::banks;
use crate::campaign::{CampaignJob, CampaignSpec, Cohort, JobRun, MonitorFactory};
use crate::engine::{run_lanes, JobResult, Lane};
use crate::outcome::SimError;
use aps_core::monitors::HazardMonitor;
use aps_fault::FaultInjector;
use aps_types::{MgDl, SimTrace};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What [`run_group`] did.
pub(crate) struct GroupRun {
    /// Each job's result, in job order: `None` where the job did not
    /// run.
    pub(crate) results: Vec<Option<Result<SimTrace, SimError>>>,
    /// The lane-cycles stepped: one per lane per cycle it ran, a lane
    /// that split off mid-cycle included.
    pub(crate) lane_cycles: u64,
}

/// Runs one group's jobs — jobs of one patient and initial BG, valid
/// and in job order — as riders of one set of lanes in banks of
/// `LANES` (see the [module docs](self)). The lanes start as one lane,
/// the group's fault-free closed loop carrying every job, in a bank
/// whose other lanes are padding; a bank is added whenever the last
/// one is full.
pub(crate) fn run_group<const LANES: usize>(
    spec: &CampaignSpec,
    cohort: &Cohort,
    jobs: &[&CampaignJob],
    monitor_factory: Option<&MonitorFactory<'_>>,
) -> GroupRun {
    let mut run = GroupRun {
        results: jobs.iter().map(|_| None).collect(),
        lane_cycles: 0,
    };
    let Some(first) = jobs.first() else {
        return run;
    };
    let riders = catch_unwind(AssertUnwindSafe(|| {
        let fault_free = CampaignJob {
            patient_idx: first.patient_idx,
            initial_bg: first.initial_bg,
            scenario: None,
        };
        let member = cohort.member(first.patient_idx);
        let mut trunk = JobRun::new(spec, &fault_free, member, monitor_factory);
        let mut injectors: Vec<Option<FaultInjector>> = jobs
            .iter()
            .map(|job| job.scenario.clone().map(FaultInjector::new))
            .collect();
        trunk
            .patient
            .as_dyn_mut()
            .reset(MgDl(trunk.config.initial_bg));
        let mut physics = banks::<LANES>(&trunk.patient);
        let lane = Lane::new(
            trunk.patient.as_dyn().name(),
            trunk.controller.as_mut(),
            trunk
                .monitor
                .as_deref_mut()
                .map(|m| m as &mut dyn HazardMonitor),
            injectors.iter_mut().map(Option::as_mut).enumerate(),
            &trunk.config,
            None,
        );
        let mut lanes = vec![lane];
        let lane_cycles = run_lanes(physics.as_mut(), &mut lanes, trunk.config.steps);
        let results: Vec<JobResult> = lanes.into_iter().flat_map(Lane::finish).collect();
        (results, lane_cycles)
    }));
    if let Ok((results, lane_cycles)) = riders {
        for (k, result) in results {
            run.results[k] = Some(result);
        }
        run.lane_cycles = lane_cycles;
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BATCH_LANES;
    use crate::campaign::campaign_jobs;
    use crate::platform::Platform;
    use aps_fault::{FaultKind, FaultScenario};
    use aps_types::Step;

    /// The lane-cycles of one paper-grid group, pinned, below what
    /// forking every job at its fault start stepped: the fault-free
    /// trunk up to the latest fault start, plus each job's steps from
    /// its fault start (the fault-free job's from the latest).
    #[test]
    fn a_paper_group_steps_fewer_lane_cycles_than_forking_at_fault_starts() {
        for (platform, pinned) in Platform::ALL.into_iter().zip([18_041, 15_087]) {
            let spec = CampaignSpec::paper(platform);
            let jobs = campaign_jobs(&spec);
            let group: Vec<&CampaignJob> = jobs
                .iter()
                .take_while(|j| j.patient_idx == jobs[0].patient_idx)
                .take_while(|j| j.initial_bg == jobs[0].initial_bg)
                .collect();
            let start = |job: &CampaignJob| job.scenario.as_ref().map(|s| s.start.0);
            let latest = group.iter().filter_map(|j| start(j)).max().unwrap();
            let at_fault_starts: u64 = u64::from(latest)
                + group
                    .iter()
                    .map(|j| u64::from(spec.steps - start(j).unwrap_or(latest)))
                    .sum::<u64>();
            let cohort = Cohort::new(platform);
            let run = run_group::<BATCH_LANES>(&spec, &cohort, &group, None);
            assert!(run.results.iter().all(|r| matches!(r, Some(Ok(_)))));
            assert_eq!(at_fault_starts, 26_250, "{platform:?}");
            assert_eq!(run.lane_cycles, pinned, "{platform:?}");
            assert!(run.lane_cycles < at_fault_starts, "{platform:?}");
        }
    }

    fn job(initial_bg: f64, scenario: Option<FaultScenario>) -> CampaignJob {
        CampaignJob {
            patient_idx: 0,
            initial_bg,
            scenario,
        }
    }

    /// Each job of `jobs` run alone from step 0.
    fn solo(spec: &CampaignSpec, jobs: &[&CampaignJob]) -> Vec<Result<SimTrace, SimError>> {
        let cohort = Cohort::new(spec.platform);
        let run = |job: &&CampaignJob| JobRun::new(spec, job, cohort.member(0), None).run();
        jobs.iter().map(run).collect()
    }

    /// Every group size from one job to one more than a bank's lanes:
    /// each rider equals its job run alone, however many of the bank's
    /// lanes stay padding.
    #[test]
    fn every_group_size_matches_solo_runs() {
        let spec = CampaignSpec {
            patient_indices: vec![0],
            steps: 25,
            ..CampaignSpec::quick(Platform::GlucosymOref0)
        };
        let all = campaign_jobs(&spec);
        assert!(all.len() > BATCH_LANES);
        for size in 1..=BATCH_LANES + 1 {
            let jobs: Vec<&CampaignJob> = all[..size].iter().collect();
            let run = run_group::<BATCH_LANES>(&spec, &Cohort::new(spec.platform), &jobs, None);
            let results: Vec<_> = run.results.into_iter().map(Option::unwrap).collect();
            assert_eq!(results, solo(&spec, &jobs), "group of {size}");
        }
    }

    /// `Max` on `glucose` and `Max` on `eventual_bg` write the same
    /// 400.0 on the same cycle, to different variables: the second
    /// splits off there instead of riding the first's lane.
    #[test]
    fn equal_writes_to_different_variables_split() {
        let spec = CampaignSpec {
            steps: 40,
            ..CampaignSpec::quick(Platform::GlucosymOref0)
        };
        let max = |target| FaultScenario::new(target, FaultKind::Max, Step(10), 6);
        let jobs = [
            job(120.0, Some(max("glucose"))),
            job(120.0, Some(max("eventual_bg"))),
        ];
        let jobs: Vec<&CampaignJob> = jobs.iter().collect();
        let run = run_group::<BATCH_LANES>(&spec, &Cohort::new(spec.platform), &jobs, None);
        assert_eq!(run.lane_cycles, 40 + 30);
        let results: Vec<_> = run.results.into_iter().map(Option::unwrap).collect();
        assert_eq!(results, solo(&spec, &jobs));
    }

    /// A lane that turns non-finite while it carries riders fails every
    /// one of them at the cycle each fails alone. An initial BG of 1e308
    /// overflows the Dalla Man plasma glucose.
    #[test]
    fn riders_of_a_non_finite_lane_fail_as_they_fail_alone() {
        let spec = CampaignSpec {
            steps: 40,
            ..CampaignSpec::quick(Platform::T1dsBasalBolus)
        };
        let poisoned: Vec<CampaignJob> = campaign_jobs(&spec)
            .into_iter()
            .filter(|j| j.patient_idx == 0)
            .map(|j| job(1e308, j.scenario))
            .collect();
        let jobs: Vec<&CampaignJob> = poisoned.iter().collect();
        let run = run_group::<BATCH_LANES>(&spec, &Cohort::new(spec.platform), &jobs, None);
        let results: Vec<_> = run.results.into_iter().map(Option::unwrap).collect();
        assert!(results
            .iter()
            .all(|r| matches!(r, Err(SimError::NonFinite { .. }))));
        assert_eq!(results, solo(&spec, &jobs));
    }
}
