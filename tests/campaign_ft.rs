//! Fault-tolerant campaign execution: the tentpole equivalences.
//!
//! * The hardened executor's clean path is bit-identical to
//!   `run_campaign_serial` (the anchor all executors are defined
//!   against).
//! * Killing a checkpointed campaign at every checkpoint boundary and
//!   resuming from the snapshot reproduces the uninterrupted run —
//!   same emissions, same ledger, same rolling digest.
//! * A chaos-seeded run (injected panics, delays, poisoned specs) is
//!   deterministic: same seed ⇒ byte-identical serialized ledger; and
//!   it degrades gracefully — every non-failed job's trace equals the
//!   chaos-free reference.
//! * A diverging patient model surfaces as `SimError::NonFinite` from
//!   `Session::try_run` instead of poisoning the trace.

use aps_repro::prelude::*;
use aps_repro::sim::campaign::{
    run_campaign_resumable, run_campaign_serial, CampaignOptions, CampaignReport, CheckpointPolicy,
};
use aps_repro::sim::chaos::ChaosConfig;
use aps_repro::sim::checkpoint::{CampaignCheckpoint, CheckpointError};
use aps_repro::sim::outcome::{JobOutcome, RetryPolicy, SimError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn tiny_spec() -> CampaignSpec {
    CampaignSpec {
        patient_indices: vec![0],
        initial_bgs: vec![120.0],
        steps: 40,
        ..CampaignSpec::quick(Platform::GlucosymOref0)
    }
}

/// Every outcome of an uninterrupted run, in job order, and its report.
fn run_collecting(
    spec: &CampaignSpec,
    options: &CampaignOptions,
) -> (Vec<JobOutcome>, CampaignReport) {
    let mut outcomes = Vec::new();
    let report = run_campaign_resumable(spec, None, options, None, |i, o| {
        assert_eq!(i, outcomes.len(), "stream out of order");
        outcomes.push(o);
    })
    .unwrap();
    (outcomes, report)
}

fn tmp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("aps_ft_{}_{name}", std::process::id()));
    p
}

#[test]
fn ft_clean_path_is_bit_identical_to_serial() {
    let spec = tiny_spec();
    let serial = run_campaign_serial(&spec, None);
    // Force the parallel executor even on single-core machines, so the
    // reorder/run-ahead machinery is what this equivalence pins.
    let options = CampaignOptions {
        workers: Some(4),
        ..CampaignOptions::default()
    };
    let (outcomes, report) = run_collecting(&spec, &options);
    assert_eq!(outcomes.len(), serial.len());
    for (i, (outcome, want)) in outcomes.iter().zip(&serial).enumerate() {
        match outcome {
            JobOutcome::Completed(trace) => assert_eq!(trace, want, "job {i} diverged"),
            JobOutcome::Failed { error, .. } => panic!("job {i} failed on the clean path: {error}"),
        }
    }
    assert!(report.ledger.is_empty());
    assert_eq!(report.failed_jobs, 0);
}

#[test]
fn kill_at_every_checkpoint_boundary_then_resume_is_bit_identical() {
    let spec = tiny_spec();
    let ckpt_path = tmp_path("kill_resume.json");
    let every = 5usize;

    // Uninterrupted reference run (checkpointed, single worker so the
    // kill points below are exact).
    let base_options = CampaignOptions {
        checkpoint: Some(CheckpointPolicy {
            path: ckpt_path.clone(),
            every_jobs: every,
        }),
        workers: Some(1),
        ..CampaignOptions::default()
    };
    let mut reference = Vec::new();
    let ref_report = run_campaign_resumable(&spec, None, &base_options, None, |i, o| {
        reference.push((i, o));
    })
    .unwrap();
    let total = ref_report.total_jobs;
    assert!(total > every, "spec too small to exercise checkpoints");

    for kill_at in (every..total).step_by(every) {
        // Run until `kill_at` jobs have been emitted, then cancel.
        let cancel = Arc::new(AtomicBool::new(false));
        let options = CampaignOptions {
            cancel: Some(Arc::clone(&cancel)),
            ..base_options.clone()
        };
        let mut emissions = Vec::new();
        let killed = run_campaign_resumable(&spec, None, &options, None, |i, o| {
            emissions.push((i, o));
            if emissions.len() == kill_at {
                cancel.store(true, Ordering::Release);
            }
        })
        .unwrap();
        assert!(killed.cancelled, "kill at {kill_at} did not cancel");
        assert!(
            emissions.len() < total,
            "cancel at {kill_at} finished anyway"
        );

        // Resume from the snapshot on disk and let it finish.
        let snapshot = CampaignCheckpoint::load(&ckpt_path).unwrap();
        assert_eq!(snapshot.completed.count(), emissions.len());
        let resumed_report =
            run_campaign_resumable(&spec, None, &base_options, Some(&snapshot), |i, o| {
                emissions.push((i, o));
            })
            .unwrap();
        assert!(!resumed_report.cancelled);
        assert_eq!(resumed_report.skipped_resumed, kill_at);

        // The concatenation of both segments is the uninterrupted run.
        assert_eq!(emissions.len(), reference.len(), "kill at {kill_at}");
        for ((gi, go), (ri, ro)) in emissions.iter().zip(&reference) {
            assert_eq!(gi, ri, "kill at {kill_at}: emission order diverged");
            assert_eq!(go, ro, "kill at {kill_at}: job {gi} diverged after resume");
        }
        assert_eq!(
            resumed_report.digest, ref_report.digest,
            "kill at {kill_at}"
        );
        assert_eq!(
            resumed_report.ledger, ref_report.ledger,
            "kill at {kill_at}"
        );
        assert_eq!(
            resumed_report.completed_jobs, ref_report.completed_jobs,
            "kill at {kill_at}"
        );
    }
    let _ = std::fs::remove_file(&ckpt_path);
}

#[test]
fn chaos_is_deterministic_and_degrades_gracefully() {
    let spec = tiny_spec();
    let reference = run_campaign_serial(&spec, None);
    let options = CampaignOptions {
        chaos: Some(ChaosConfig {
            max_delay_ms: 1, // keep the test fast; delays still exercised
            ..ChaosConfig::with_seed(9)
        }),
        retry: RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        },
        // Multi-worker on purpose: chaos decisions are pure functions
        // of (seed, job, attempt), so thread interleaving must not
        // change the ledger.
        workers: Some(4),
        ..CampaignOptions::default()
    };
    let (outcomes_a, a) = run_collecting(&spec, &options);
    let (outcomes_b, b) = run_collecting(&spec, &options);

    // Same seed => same ledger, byte for byte, and same digest.
    let ledger_a = serde_json::to_string(&a.ledger).unwrap();
    let ledger_b = serde_json::to_string(&b.ledger).unwrap();
    assert_eq!(ledger_a, ledger_b);
    assert_eq!(a.digest, b.digest);
    assert_eq!(outcomes_a, outcomes_b);

    // The chaos parameters above make some failures and some
    // retry-rescues statistically certain over 31 jobs; if this seed
    // ever produces neither, pick another seed rather than weakening
    // the assertions.
    assert!(
        !a.ledger.is_empty(),
        "chaos seed 9 produced no permanent failures"
    );
    assert!(a.completed_jobs > 0, "chaos seed 9 failed every job");
    let retried_success = a.completed_jobs + a.failed_jobs == a.total_jobs;
    assert!(retried_success);

    // Graceful degradation: every completed job's trace is exactly the
    // chaos-free reference trace (chaos perturbs the executor, never
    // the physics).
    for (i, outcome) in outcomes_a.iter().enumerate() {
        if let JobOutcome::Completed(trace) = outcome {
            assert_eq!(trace, &reference[i], "chaos changed the physics of job {i}");
        }
    }

    // A different seed gives a different schedule (ledger differs).
    let other = run_campaign_resumable(
        &spec,
        None,
        &CampaignOptions {
            chaos: Some(ChaosConfig {
                max_delay_ms: 1,
                ..ChaosConfig::with_seed(8)
            }),
            ..options.clone()
        },
        None,
        |_, _| {},
    )
    .unwrap();
    assert_ne!(
        serde_json::to_string(&other.ledger).unwrap(),
        ledger_a,
        "seeds 9 and 8 produced identical ledgers"
    );
}

/// Non-contiguous, repeated patient indices on the Dalla Man cohort:
/// forked groups and the per-job path (which chaos sends jobs down)
/// both set a job up from its cohort index, so every completed job
/// equals the serial reference.
#[test]
fn non_contiguous_patients_match_serial_on_both_paths() {
    let spec = CampaignSpec {
        patient_indices: vec![7, 2, 7],
        steps: 30,
        ..CampaignSpec::quick(Platform::T1dsBasalBolus)
    };
    let reference = run_campaign_serial(&spec, None);
    let chaos = ChaosConfig {
        max_delay_ms: 1,
        ..ChaosConfig::with_seed(9)
    };
    for chaos in [None, Some(chaos)] {
        let clean = chaos.is_none();
        let options = CampaignOptions {
            chaos,
            retry: RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::default()
            },
            workers: Some(2),
            ..CampaignOptions::default()
        };
        let (outcomes, report) = run_collecting(&spec, &options);
        assert_eq!(outcomes.len(), reference.len());
        let mut completed = 0;
        for (i, outcome) in outcomes.iter().enumerate() {
            if let JobOutcome::Completed(trace) = outcome {
                assert_eq!(trace, &reference[i], "job {i} diverged (clean: {clean})");
                completed += 1;
            }
        }
        assert!(completed > 0, "no job completed (clean: {clean})");
        if clean {
            assert_eq!(completed, reference.len());
        } else {
            assert!(!report.ledger.is_empty(), "chaos seed 9 failed no job");
        }
    }
}

#[test]
fn chaos_failures_report_real_error_kinds() {
    // With one attempt, the ledger must contain the injected kinds.
    let spec = tiny_spec();
    let options = CampaignOptions {
        chaos: Some(ChaosConfig {
            max_delay_ms: 0,
            ..ChaosConfig::with_seed(3)
        }),
        ..CampaignOptions::default()
    };
    let report = run_campaign_resumable(&spec, None, &options, None, |_, _| {}).unwrap();
    let panicked = report
        .ledger
        .entries
        .iter()
        .any(|e| matches!(e.error, SimError::Panicked { .. }));
    let poisoned = report
        .ledger
        .entries
        .iter()
        .any(|e| matches!(e.error, SimError::InvalidSpec { .. }));
    assert!(
        panicked && poisoned,
        "chaos seed 3 exercised only some fault kinds: {:?}",
        report.ledger
    );
}

#[test]
fn resume_rejects_foreign_checkpoints() {
    let spec = tiny_spec();
    let ckpt_path = tmp_path("foreign.json");
    let options = CampaignOptions {
        checkpoint: Some(CheckpointPolicy {
            path: ckpt_path.clone(),
            every_jobs: 10,
        }),
        ..CampaignOptions::default()
    };
    run_campaign_resumable(&spec, None, &options, None, |_, _| {}).unwrap();
    let snapshot = CampaignCheckpoint::load(&ckpt_path).unwrap();

    // Different spec (more steps) => spec-hash mismatch.
    let other_spec = CampaignSpec {
        steps: 41,
        ..tiny_spec()
    };
    let err = run_campaign_resumable(
        &other_spec,
        None,
        &CampaignOptions::default(),
        Some(&snapshot),
        |_, _| {},
    )
    .unwrap_err();
    assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err}");

    // Same spec but a chaos seed the snapshot was not taken under.
    let err = run_campaign_resumable(
        &spec,
        None,
        &CampaignOptions {
            chaos: Some(ChaosConfig::with_seed(1)),
            ..CampaignOptions::default()
        },
        Some(&snapshot),
        |_, _| {},
    )
    .unwrap_err();
    assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err}");
    let _ = std::fs::remove_file(&ckpt_path);
}

/// A patient model that silently corrupts its internal state after a
/// fixed number of steps while still reporting a plausible BG — the
/// exact failure mode the `state_is_finite` harness check exists for.
struct ExplodingPatient {
    bg: f64,
    steps: u32,
    explode_at: u32,
}

impl PatientSim for ExplodingPatient {
    fn name(&self) -> &str {
        "test/exploding"
    }
    fn bg(&self) -> MgDl {
        MgDl(self.bg)
    }
    fn step(&mut self, _rate: UnitsPerHour, _minutes: f64) {
        self.steps += 1;
    }
    fn reset(&mut self, bg0: MgDl) {
        self.bg = bg0.0;
        self.steps = 0;
    }
    fn ingest(&mut self, _carbs_g: f64) {}
    fn equilibrium_basal(&self, _target: MgDl) -> UnitsPerHour {
        UnitsPerHour(1.0)
    }
    fn state_is_finite(&self) -> bool {
        self.steps < self.explode_at
    }
}

#[test]
fn diverging_patient_surfaces_as_typed_non_finite_error() {
    let patient = ExplodingPatient {
        bg: 120.0,
        steps: 0,
        explode_at: 13,
    };
    let mut session = Session::builder(Platform::GlucosymOref0)
        .patient_sim(Box::new(patient))
        .build()
        .unwrap();
    match session.try_run() {
        Err(SimError::NonFinite { cycle }) => assert_eq!(cycle, 12),
        other => panic!("expected NonFinite, got {other:?}"),
    }
}
