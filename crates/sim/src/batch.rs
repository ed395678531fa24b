//! Batched lockstep campaign execution.
//!
//! A job run on its own pays the full RK4 integration for a single
//! patient every control cycle. This module steps a *block* of up to
//! [`BATCH_LANES`] jobs in lockstep instead: each job becomes a lane of a
//! structure-of-arrays patient bank
//! ([`aps_glucose::bergman::BatchedBergman`] /
//! [`aps_glucose::dalla_man::BatchedDallaMan`]), and the physics
//! integrates all lanes with per-lane loops over flat arrays (the shape
//! the auto-vectorizer turns into SIMD).
//!
//! Only the physics is batched. [`run_block`] sets each job up exactly
//! as a scalar run is set up — cloning its patient and basal rate from
//! the campaign's [`Cohort`] template, where the serial reference
//! builds them afresh — loads the patients into the bank, and
//! hands the bank to the closed-loop cycle every engine shares; a
//! scalar run is that same cycle with one lane. Controller, CGM, pump,
//! monitor, injector, mitigation and trace recording are each lane's
//! own components, stepped by the same code in the same order.
//!
//! A block need not start at step 0: the campaign executors run a
//! group of jobs as blocks of the jobs that fork from the group's
//! fault-free trunk at the same step (see the crate-private `fork`
//! module). Such a block loads each job's copy of the trunk's patient
//! and runs the steps after the fork. [`run_block`] is the block at
//! fork step 0.
//!
//! # Bit-identity
//!
//! [`run_block`] is defined to produce, lane for lane, the same bytes
//! as [`run_campaign_serial`](crate::campaign::run_campaign_serial)
//! produces job for job (pinned by `tests/batched_equivalence.rs`).
//! Lanes are arithmetically independent — no horizontal reductions,
//! no lane-crossing terms — and the batched physics keeps the scalar
//! patient's per-lane operation order, so IEEE-754 determinism carries
//! the equivalence. A lane whose ODE state diverges to NaN/∞ fails its
//! end-of-cycle finiteness check at the same cycle index as a scalar
//! run (non-finite state is absorbing under the additive RK4 update),
//! surfaces as that job's [`SimError::NonFinite`], and — because
//! nothing crosses lanes — never poisons its lane-mates.

use crate::campaign::{CampaignJob, CampaignSpec, Cohort, JobRun, MonitorFactory};
use crate::engine::{run_lanes, Lane};
use crate::outcome::SimError;
use aps_glucose::bergman::BatchedBergman;
use aps_glucose::dalla_man::BatchedDallaMan;
use aps_glucose::patients::CohortPatient;
use aps_glucose::BatchedPatientSim;
use aps_types::{MgDl, SimTrace};

/// Lane width of the batched campaign executor.
///
/// Eight f64 lanes fill one AVX-512 register or two AVX2 / NEON
/// registers per state component — wide enough that the per-lane
/// stage loops vectorize profitably, narrow enough that a block's
/// scratch stays resident in L1 and ragged campaign tails waste few
/// lanes.
pub const BATCH_LANES: usize = 8;

/// Runs a block of up to `LANES` campaign jobs in lockstep from step 0,
/// returning one result per job in job order — each bit-identical to
/// what the scalar
/// [`run_campaign_serial`](crate::campaign::run_campaign_serial) path
/// produces for that job. Each job's patient and basal rate are copied
/// from `cohort`, the template of `spec.platform`'s cohort.
///
/// Ragged blocks (fewer jobs than lanes) pad the unused lanes with a
/// copy of the first job's patient under a zero insulin rate; padding
/// lanes have no closed loop and their physics is discarded.
///
/// # Panics
///
/// Panics when `jobs` is empty, longer than `LANES`, or names a
/// patient index outside the platform's cohort, or when `cohort`
/// belongs to another platform than `spec`.
pub fn run_block<const LANES: usize>(
    spec: &CampaignSpec,
    cohort: &Cohort,
    jobs: &[CampaignJob],
    monitor_factory: Option<&MonitorFactory<'_>>,
) -> Vec<Result<SimTrace, SimError>> {
    assert!(!jobs.is_empty(), "empty lockstep block");
    assert!(
        jobs.len() <= LANES,
        "block of {} jobs exceeds {LANES} lanes",
        jobs.len()
    );
    assert_eq!(
        cohort.platform(),
        spec.platform,
        "cohort of another platform"
    );
    let runs = jobs
        .iter()
        .map(|job| JobRun::new(spec, job, cohort.member(job.patient_idx), monitor_factory))
        .collect();
    run_runs::<LANES>(runs)
}

/// Runs up to `LANES` job runs that all start at the same step in
/// lockstep, returning one result per run in order.
///
/// Ragged blocks (fewer runs than lanes) pad the unused lanes with a
/// copy of the first run's patient under a zero insulin rate; padding
/// lanes have no closed loop and their physics is discarded.
pub(crate) fn run_runs<const LANES: usize>(
    mut runs: Vec<JobRun>,
) -> Vec<Result<SimTrace, SimError>> {
    let start = runs[0].start();
    debug_assert!(runs.iter().all(|run| run.start() == start));
    if start == 0 {
        for run in &mut runs {
            run.patient.as_dyn_mut().reset(MgDl(run.config.initial_bg));
        }
    }
    // Padding lanes load the first run's patient again. A real
    // parameter set at the block's step (instead of the bank's zeroed
    // defaults) keeps their ODE arithmetic finite, so no spurious NaNs
    // ride along in the block.
    let lane_patient = |l: usize| &runs.get(l).unwrap_or(&runs[0]).patient;
    if let CohortPatient::Bergman(_) = runs[0].patient {
        let mut bank = BatchedBergman::<LANES>::new();
        for l in 0..LANES {
            match lane_patient(l) {
                CohortPatient::Bergman(p) => bank.load_lane(l, p),
                CohortPatient::DallaMan(_) => unreachable!("one platform yields one patient model"),
            }
        }
        run_jobs(&mut bank, &mut runs, start)
    } else {
        let mut bank = BatchedDallaMan::<LANES>::new();
        for l in 0..LANES {
            match lane_patient(l) {
                CohortPatient::DallaMan(p) => bank.load_lane(l, p),
                CohortPatient::Bergman(_) => unreachable!("one platform yields one patient model"),
            }
        }
        run_jobs(&mut bank, &mut runs, start)
    }
}

/// Runs the jobs' closed loops as the lanes of `physics`, from step
/// `start` to the end of the run.
fn run_jobs<const LANES: usize>(
    physics: &mut dyn BatchedPatientSim<LANES>,
    runs: &mut [JobRun],
    start: u32,
) -> Vec<Result<SimTrace, SimError>> {
    let steps = runs[0].config.steps;
    let mut lanes: Vec<Lane<'_>> = runs.iter_mut().map(|run| run.lane().1).collect();
    run_lanes(physics, &mut lanes, start..steps);
    lanes.into_iter().map(Lane::finish).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{campaign_jobs, run_campaign, run_campaign_serial};
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
        let cohort = Cohort::new(spec.platform);
        let block = run_block::<4>(&spec, &cohort, &jobs[..4], None);
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
        let cohort = Cohort::new(spec.platform);
        let block = run_block::<8>(&spec, &cohort, &jobs[..3], None);
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
        let batched = run_campaign(&spec, None);
        assert_eq!(batched, serial);
    }
}
