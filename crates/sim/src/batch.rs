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
//! The campaign executors run a group of jobs (one patient and initial
//! BG) as riders of lanes in such banks: the group starts as one lane
//! carrying every job, and a lane splits into a free lane of the last
//! bank, or of a bank added for it, wherever a job's fault first
//! changes the loop (see the crate-private `fork` module).
//! [`run_block`] runs its jobs from step 0 instead, one job per lane.
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
use crate::engine::{run_lanes, JobResult, Lane, LanePhysics};
use crate::outcome::SimError;
use aps_fault::FaultInjector;
use aps_glucose::bergman::BatchedBergman;
use aps_glucose::dalla_man::BatchedDallaMan;
use aps_glucose::patients::CohortPatient;
use aps_glucose::SplitLanes;
use aps_types::{MgDl, SimTrace, UnitsPerHour};

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
    let mut runs: Vec<JobRun> = jobs
        .iter()
        .map(|job| JobRun::new(spec, job, cohort.member(job.patient_idx), monitor_factory))
        .collect();
    for run in &mut runs {
        run.patient.as_dyn_mut().reset(MgDl(run.config.initial_bg));
    }
    let patients: Vec<&CohortPatient> = runs.iter().map(|run| &run.patient).collect();
    let mut physics = banks::<LANES>(&patients);
    let mut lanes: Vec<Lane<'_>> = runs
        .iter_mut()
        .enumerate()
        .map(|(k, run)| run.lane(k))
        .collect();
    run_lanes(physics.as_mut(), &mut lanes, spec.steps);
    // One job per lane, in lane order.
    let results = lanes.into_iter().flat_map(Lane::finish);
    results.map(|(_, result)| result).collect()
}

/// Runs `jobs`, jobs of one patient and initial BG, as riders of one
/// set of lockstep lanes that starts as `trunk`'s closed loop and
/// splits wherever a job's fault first changes the loop (see the
/// crate-private `engine` module). Returns each job's index in `jobs`
/// with its result, and the lane-cycles stepped. The lanes sit in
/// banks of `LANES`, and a bank is added whenever the last one is
/// full.
pub(crate) fn run_riders<const LANES: usize>(
    mut trunk: JobRun,
    jobs: &[&CampaignJob],
) -> (Vec<JobResult>, u64) {
    let mut injectors: Vec<Option<FaultInjector>> = jobs
        .iter()
        .map(|job| job.scenario.clone().map(FaultInjector::new))
        .collect();
    trunk
        .patient
        .as_dyn_mut()
        .reset(MgDl(trunk.config.initial_bg));
    let mut physics = banks::<LANES>(&[&trunk.patient]);
    let steps = trunk.config.steps;
    let lane = trunk.lane_with(injectors.iter_mut().map(Option::as_mut).enumerate());
    let mut lanes = vec![lane];
    let lane_cycles = run_lanes(physics.as_mut(), &mut lanes, steps);
    let results = lanes.into_iter().flat_map(Lane::finish).collect();
    (results, lane_cycles)
}

/// A bank of `LANES` lanes loaded with `patients`, lane `l` with
/// `patients[l]` and each lane past them with `patients[0]`, as the
/// physics of a lane set. A real parameter set in the padding lanes
/// (instead of the bank's zeroed defaults) keeps their ODE arithmetic
/// finite, so no spurious NaNs ride along in the block.
///
/// # Panics
///
/// Panics when `patients` is empty or mixes patient models.
fn banks<const LANES: usize>(patients: &[&CohortPatient]) -> Box<dyn LanePhysics> {
    let patient = |l: usize| *patients.get(l).unwrap_or(&patients[0]);
    if let CohortPatient::Bergman(_) = patients[0] {
        let mut bank = BatchedBergman::<LANES>::new();
        for l in 0..LANES {
            match patient(l) {
                CohortPatient::Bergman(p) => bank.load_lane(l, p),
                CohortPatient::DallaMan(_) => unreachable!("one platform yields one patient model"),
            }
        }
        Box::new(Banks(vec![bank]))
    } else {
        let mut bank = BatchedDallaMan::<LANES>::new();
        for l in 0..LANES {
            match patient(l) {
                CohortPatient::DallaMan(p) => bank.load_lane(l, p),
                CohortPatient::Bergman(_) => unreachable!("one platform yields one patient model"),
            }
        }
        Box::new(Banks(vec![bank]))
    }
}

/// Lockstep physics in banks of `L` lanes: lane `l` is lane `l % L` of
/// bank `l / L`.
struct Banks<B, const L: usize>(Vec<B>);

impl<B: SplitLanes<L>, const L: usize> LanePhysics for Banks<B, L> {
    fn width(&self) -> usize {
        L
    }

    fn bg(&self, lane: usize) -> MgDl {
        self.0[lane / L].bg(lane % L)
    }

    fn step_bank(&mut self, bank: usize, rates: &[UnitsPerHour], minutes: f64) {
        let mut all = [UnitsPerHour(0.0); L];
        all[..rates.len()].copy_from_slice(rates);
        self.0[bank].step_all(&all, minutes);
    }

    fn ingest(&mut self, lane: usize, carbs_g: f64) {
        self.0[lane / L].ingest(lane % L, carbs_g);
    }

    fn exert(&mut self, lane: usize, intensity: f64, duration_min: f64) {
        self.0[lane / L].exert(lane % L, intensity, duration_min);
    }

    fn lane_is_finite(&self, lane: usize) -> bool {
        self.0[lane / L].lane_is_finite(lane % L)
    }

    /// A new bank starts as a copy of the bank of `from`, so its
    /// padding lanes hold the same patient.
    fn split(&mut self, from: usize, to: usize) {
        if to / L == self.0.len() {
            let bank = self.0[from / L].clone();
            self.0.push(bank);
        }
        let state = self.0[from / L].lane(from % L);
        self.0[to / L].set_lane(to % L, state);
    }
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
