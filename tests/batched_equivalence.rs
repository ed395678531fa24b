//! Equivalence guarantees behind the batched lockstep campaign engine.
//!
//! The structure-of-arrays physics banks (`BatchedBergman`,
//! `BatchedDallaMan`) are required to be *behavior-preserving*: a
//! campaign whose groups step in lockstep banks of [`BATCH_LANES`]
//! lanes must emit exactly the traces the scalar serial executor
//! emits, bit for bit. These tests pin that down:
//!
//! * full quick-campaign corpora on **both** platforms (Bergman and
//!   Dalla Man), with and without a monitor factory, and with
//!   alert-driven mitigation (both policies) or a noisy CGM;
//! * the **extended fault alphabet** (every injectable target ×
//!   fault kind the campaign generator knows);
//! * **padding lanes** — every group starts as one live lane in a
//!   bank whose other lanes are padding, so every case here runs
//!   beside them, and groups of every size from one rider to a full
//!   bank are checked on their own;
//! * randomized campaign shapes under proptest;
//! * a **non-finite lane** fails with the same typed
//!   [`SimError::NonFinite`] (same cycle index) as the scalar
//!   executor, without perturbing its lane-mates.

use aps_repro::glucose::sensor::CgmConfig;
use aps_repro::prelude::*;
use aps_repro::sim::campaign::{run_campaign_resumable, run_campaign_serial, CampaignOptions};
use aps_repro::sim::checkpoint::{spec_hash, to_hex, CampaignCheckpoint};
use proptest::prelude::*;

/// A monitor factory mirroring the one used by the parallel-executor
/// equivalence suite: per-scenario CAW monitors carry basal context,
/// so any cross-lane state leak would show up in the alert streams.
fn caw_factory() -> Box<MonitorFactory<'static>> {
    Box::new(|ctx: &ScenarioCtx| {
        Box::new(CawMonitor::new(
            "cawot",
            Scs::with_default_thresholds(MgDl(110.0)),
            ctx.basal,
        )) as Box<dyn HazardMonitor>
    })
}

/// Quick corpus, both platforms, with and without monitors: the
/// batched engine's output equals the serial executor's exactly. The
/// quick corpus (62 jobs) is deliberately not a multiple of
/// `BATCH_LANES = 8` (62 = 7×8 + 6).
#[test]
fn batched_campaign_equals_serial_on_both_platforms() {
    for platform in Platform::ALL {
        let spec = CampaignSpec {
            steps: 60,
            ..CampaignSpec::quick(platform)
        };
        let jobs = campaign_jobs(&spec);
        assert_ne!(
            jobs.len() % BATCH_LANES,
            0,
            "corpus must have a ragged tail to exercise padding"
        );

        let serial = run_campaign_serial(&spec, None);
        let batched = run_campaign(&spec, None);
        assert_eq!(serial, batched, "batched engine diverged on {platform:?}");

        let factory = caw_factory();
        let serial_m = run_campaign_serial(&spec, Some(factory.as_ref()));
        let batched_m = run_campaign(&spec, Some(factory.as_ref()));
        assert_eq!(serial_m, batched_m, "monitored engines diverged");

        // Alert-driven mitigation (fixed Algorithm-1 and context-aware
        // policies) and a noisy CGM: the per-lane branches a clean,
        // unmitigated corpus never reaches.
        let variants = [
            CampaignSpec {
                mitigate: true,
                ..spec.clone()
            },
            CampaignSpec {
                mitigate: true,
                context_mitigate: true,
                ..spec.clone()
            },
            CampaignSpec {
                cgm: CgmConfig {
                    noise_sd: 4.0,
                    ..CgmConfig::default()
                },
                ..spec.clone()
            },
        ];
        for variant in &variants {
            let serial_v = run_campaign_serial(variant, Some(factory.as_ref()));
            assert_ne!(serial_v, serial_m, "variant must change the corpus");
            let batched_v = run_campaign(variant, Some(factory.as_ref()));
            assert_eq!(
                serial_v, batched_v,
                "batched engine diverged on {platform:?} (mitigate {}, context {}, noise {})",
                variant.mitigate, variant.context_mitigate, variant.cgm.noise_sd
            );
        }
    }
}

/// The extended fault alphabet (every injectable target × fault kind)
/// through both platforms: per-lane fault injection in the lockstep
/// engine follows the scalar route/bounds logic exactly.
#[test]
fn batched_campaign_equals_serial_on_extended_fault_alphabet() {
    for platform in Platform::ALL {
        let spec = CampaignSpec {
            patient_indices: vec![0],
            steps: 40,
            ..CampaignSpec::extended(platform)
        };
        let serial = run_campaign_serial(&spec, None);
        let batched = run_campaign(&spec, None);
        assert_eq!(
            serial, batched,
            "extended-fault batched engine diverged on {platform:?}"
        );
    }
}

/// The streaming entry point emits every trace in job order (the same
/// contract the scalar streaming executor has), independent of block
/// boundaries.
#[test]
fn batched_streaming_sink_preserves_job_order() {
    let spec = CampaignSpec {
        patient_indices: vec![0],
        steps: 30,
        ..CampaignSpec::quick(Platform::GlucosymOref0)
    };
    let serial = run_campaign_serial(&spec, None);
    let mut indices = Vec::new();
    let mut traces = Vec::new();
    run_campaign_with_workers(&spec, None, None, |i, trace| {
        indices.push(i);
        traces.push(trace);
    });
    assert_eq!(indices, (0..serial.len()).collect::<Vec<_>>());
    assert_eq!(traces, serial);
}

/// One lane going non-finite must surface as that job's typed
/// [`SimError::NonFinite`] at the same cycle the scalar executor
/// reports, and every other job must stay bit-identical to its serial
/// twin — a dead lane is isolated, not contagious.
#[test]
fn nonfinite_lane_is_isolated_and_matches_scalar_error() {
    // An initial BG of 1e308 overflows the Dalla Man plasma-glucose
    // compartment (Gp = BG × Vg) at reset, so those jobs diverge on
    // the very first finiteness check. It is finite, so job validation
    // accepts it and the engine (not the spec check) must catch it.
    let spec = CampaignSpec {
        patient_indices: vec![0],
        initial_bgs: vec![120.0, 1e308, 140.0],
        steps: 30,
        ..CampaignSpec::quick(Platform::T1dsBasalBolus)
    };
    let jobs = campaign_jobs(&spec);
    assert!(jobs.iter().any(|j| j.initial_bg == 1e308));

    // Scalar reference: with a deadline the fault-tolerant executor
    // runs every job on its own from step 0 (`run_job_checked`) and
    // reports per-job outcomes (trace or typed error) without tearing
    // down.
    let per_job = CampaignOptions {
        deadline: Some(std::time::Duration::from_secs(3600)),
        ..CampaignOptions::default()
    };
    let mut scalar: Vec<Option<JobOutcome>> = vec![None; jobs.len()];
    run_campaign_resumable(&spec, None, &per_job, None, |i, outcome| {
        scalar[i] = Some(outcome);
    })
    .expect("no checkpointing configured");

    // The default executor runs each group's jobs as riders of lanes
    // that fork where a fault first changes the loop. The 1e308 group's
    // first lane diverges with every job aboard, so its jobs fall back
    // to running alone, with the same error.
    let mut forked = Vec::new();
    run_campaign_resumable(&spec, None, &CampaignOptions::default(), None, |_, o| {
        forked.push(o)
    })
    .expect("no checkpointing configured");
    for (i, (s, f)) in scalar.iter().zip(&forked).enumerate() {
        assert_eq!(s.as_ref(), Some(f), "job {i}: forked executor diverged");
    }

    let mut nonfinite_seen = 0;
    for (i, outcome) in forked.iter().enumerate() {
        if let JobOutcome::Failed { error, .. } = outcome {
            assert!(
                matches!(error, SimError::NonFinite { .. }),
                "job {i}: expected NonFinite, got {error:?}"
            );
            nonfinite_seen += 1;
        }
    }
    assert!(nonfinite_seen > 0, "the poison BG produced no failures");
    assert!(
        nonfinite_seen < jobs.len(),
        "healthy lane-mates must survive"
    );
}

/// Patient indices that are neither contiguous nor distinct: each job
/// is set up from its cohort index, not its position in the spec, and
/// a member used twice starts both times from the untouched template.
#[test]
fn non_contiguous_patient_indices_match_serial() {
    let spec = CampaignSpec {
        patient_indices: vec![7, 2, 7],
        steps: 30,
        ..CampaignSpec::quick(Platform::T1dsBasalBolus)
    };
    let serial = run_campaign_serial(&spec, None);
    let patients: Vec<&str> = serial.iter().map(|t| t.meta.patient.as_str()).collect();
    let per_patient = serial.len() / 3;
    assert_eq!(patients[0], "t1ds/patientH");
    assert_eq!(patients[per_patient], "t1ds/patientC");
    assert_eq!(patients[2 * per_patient], "t1ds/patientH");
    assert_eq!(run_campaign(&spec, None), serial);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized campaign shapes (patient subset, BG grid, step
    /// count) on both platforms: batched == serial, bit for bit.
    #[test]
    fn batched_equals_serial_on_random_campaign_shapes(
        patient_a in 0usize..10,
        patient_b in 0usize..10,
        bg in 90.0f64..200.0,
        steps in 10u32..45,
    ) {
        for platform in Platform::ALL {
            let spec = CampaignSpec {
                patient_indices: if patient_a == patient_b {
                    vec![patient_a]
                } else {
                    vec![patient_a, patient_b]
                },
                initial_bgs: vec![bg],
                steps,
                ..CampaignSpec::quick(platform)
            };
            let serial = run_campaign_serial(&spec, None);
            let batched = run_campaign(&spec, None);
            prop_assert_eq!(&serial, &batched, "diverged on {:?}", platform);
        }
    }

    /// Every group occupancy from one rider to a full bank: a one-group
    /// campaign resumed with only its first `occupancy` jobs pending
    /// runs them as one group of that many riders, beside however many
    /// padding lanes, and each equals its serial trace.
    #[test]
    fn every_ragged_block_size_matches_serial(occupancy in 1usize..BATCH_LANES + 1) {
        let spec = CampaignSpec {
            patient_indices: vec![0],
            steps: 25,
            ..CampaignSpec::quick(Platform::GlucosymOref0)
        };
        let serial = run_campaign_serial(&spec, None);
        prop_assert!(serial.len() >= BATCH_LANES);
        let mut resume = CampaignCheckpoint::fresh(to_hex(spec_hash(&spec)), None, serial.len());
        for (i, trace) in serial.iter().enumerate().skip(occupancy) {
            resume.completed.set(i);
            resume.partials.fold_completed(trace);
        }
        let mut ran = Vec::new();
        let report = run_campaign_resumable(
            &spec,
            None,
            &CampaignOptions::default(),
            Some(&resume),
            |i, outcome| ran.push((i, outcome)),
        )
        .expect("checkpoint belongs to this campaign");
        prop_assert_eq!(report.skipped_resumed, serial.len() - occupancy);
        prop_assert_eq!(ran.len(), occupancy);
        for (lane, (i, outcome)) in ran.into_iter().enumerate() {
            prop_assert_eq!(i, lane);
            match outcome {
                JobOutcome::Completed(trace) => {
                    prop_assert_eq!(&trace, &serial[i], "rider {} diverged", i)
                }
                JobOutcome::Failed { error, .. } => {
                    prop_assert!(false, "rider {} failed: {:?}", i, error)
                }
            }
        }
    }
}
