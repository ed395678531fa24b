//! Pinned equivalences of the Session API redesign: the composable
//! builder is a *re-surfacing* of the closed-loop engine, not a
//! reimplementation, so its traces must be bit-identical to the legacy
//! positional `closed_loop::run` — across random platforms, patients,
//! configurations, and fault scenarios — and every one of several
//! monitors attached to one session must produce exactly the alert
//! stream it would produce running solo.

use aps_repro::prelude::*;
use aps_repro::sim::closed_loop;
use proptest::prelude::*;

/// The full fault alphabet exercised by the equivalence properties.
fn fault_kind(sel: u8) -> FaultKind {
    match sel % 8 {
        0 => FaultKind::Max,
        1 => FaultKind::Min,
        2 => FaultKind::Truncate,
        3 => FaultKind::Hold,
        4 => FaultKind::Scale(0.5),
        5 => FaultKind::Drift { per_step: 0.8 },
        6 => FaultKind::Noise { amplitude: 15.0 },
        _ => FaultKind::Intermittent { period: 6, duty: 3 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `Session::builder(..).run()` == legacy `closed_loop::run` for
    /// arbitrary monitor-less runs: same platform, patient, config,
    /// and fault scenario ⇒ the same trace, bit for bit.
    #[test]
    fn builder_runs_are_bit_identical_to_legacy(
        platform_sel in 0usize..2,
        patient_idx in 0usize..10,
        target_idx in 0usize..3,
        kind_sel in any::<u8>(),
        start in 5u32..80,
        duration in 1u32..40,
        initial_bg in 80.0f64..200.0,
        steps in 40u32..120,
    ) {
        let platform = Platform::ALL[platform_sel];
        let target = ["glucose", "iob", "rate"][target_idx];
        let scenario = FaultScenario::new(target, fault_kind(kind_sel), Step(start), duration);
        let config = LoopConfig { steps, initial_bg, ..LoopConfig::default() };

        let mut patient = platform.patients().remove(patient_idx);
        let mut controller = platform.controller_for(patient.as_ref());
        let mut injector = FaultInjector::new(scenario.clone());
        let legacy = closed_loop::run(
            patient.as_mut(),
            controller.as_mut(),
            None,
            Some(&mut injector),
            &config,
        );

        let session = Session::builder(platform)
            .patient(patient_idx)
            .inject(scenario)
            .config(config)
            .run()
            .expect("valid session");
        prop_assert_eq!(session, legacy);
    }

    /// The same bit-identity with a live monitor in the loop: the
    /// legacy wrapper and the builder drive the identical engine, so
    /// the records, metadata, and the monitor's alert track all agree.
    #[test]
    fn builder_with_monitor_is_bit_identical_to_legacy(
        patient_idx in 0usize..10,
        kind_sel in any::<u8>(),
        start in 5u32..60,
        duration in 6u32..36,
        initial_bg in 90.0f64..180.0,
    ) {
        let platform = Platform::GlucosymOref0;
        let scenario = FaultScenario::new("rate", fault_kind(kind_sel), Step(start), duration);
        let config = LoopConfig { steps: 100, initial_bg, ..LoopConfig::default() };

        let mut patient = platform.patients().remove(patient_idx);
        let mut controller = platform.controller_for(patient.as_ref());
        let scs = Scs::with_default_thresholds(platform.target());
        let basal = platform.basal_for(patient.as_ref());
        let mut monitor = CawMonitor::new("cawot", scs.clone(), basal);
        let mut injector = FaultInjector::new(scenario.clone());
        let legacy = closed_loop::run(
            patient.as_mut(),
            controller.as_mut(),
            Some(&mut monitor),
            Some(&mut injector),
            &config,
        );

        let session = Session::builder(platform)
            .patient(patient_idx)
            .monitor(Box::new(CawMonitor::new("cawot", scs, basal)))
            .inject(scenario)
            .config(config)
            .run()
            .expect("valid session");

        prop_assert_eq!(&session, &legacy);
        // The track is the alert column, stream-shaped.
        let column: Vec<_> = legacy.records.iter().map(|r| r.alert).collect();
        prop_assert_eq!(session.monitor_tracks.len(), 1);
        prop_assert_eq!(&session.monitor_tracks[0].alerts, &column);
    }
}

/// Every attached monitor's alert stream over the quick-campaign
/// corpus is bit-identical to that monitor running solo — the property
/// that makes 1×physics + M×monitor a legitimate replacement for
/// M×(physics + monitor).
#[test]
fn bank_members_match_solo_runs_across_quick_campaign() {
    let platform = Platform::GlucosymOref0;
    let spec = CampaignSpec {
        patient_indices: vec![0],
        initial_bgs: vec![140.0],
        steps: 60,
        ..CampaignSpec::quick(platform)
    };
    let members = [
        MonitorSpec::Guideline,
        MonitorSpec::Cawot,
        MonitorSpec::RiskIndex,
    ];
    let jobs = campaign_jobs(&spec);
    assert!(jobs.len() > 20, "corpus unexpectedly small: {}", jobs.len());
    for job in &jobs {
        let config = LoopConfig {
            steps: spec.steps,
            initial_bg: job.initial_bg,
            ..LoopConfig::default()
        };
        let mut builder = Session::builder(platform)
            .patient(job.patient_idx)
            .config(config.clone());
        for m in &members {
            builder = builder.monitor_spec(m.clone());
        }
        if let Some(s) = &job.scenario {
            builder = builder.inject(s.clone());
        }
        let banked = builder.run().expect("valid banked session");
        assert_eq!(banked.monitor_tracks.len(), members.len());

        for (i, member) in members.iter().enumerate() {
            let mut solo_builder = Session::builder(platform)
                .patient(job.patient_idx)
                .monitor_spec(member.clone())
                .config(config.clone());
            if let Some(s) = &job.scenario {
                solo_builder = solo_builder.inject(s.clone());
            }
            let solo = solo_builder.run().expect("valid solo session");
            let scenario_name = &banked.meta.fault_name;
            let member_name = &banked.monitor_tracks[i].monitor;
            // Observing monitors cannot perturb the loop. (The records'
            // `alert` column legitimately differs — it carries the
            // *primary* monitor's verdicts — so compare modulo it.)
            let strip = |t: &SimTrace| -> Vec<StepRecord> {
                t.records
                    .iter()
                    .map(|r| StepRecord { alert: None, ..*r })
                    .collect()
            };
            assert_eq!(
                strip(&solo),
                strip(&banked),
                "{member_name} perturbed the physics on {scenario_name}"
            );
            // …and the banked stream is exactly the solo stream.
            assert_eq!(
                banked.monitor_tracks[i].alerts, solo.monitor_tracks[0].alerts,
                "{member_name} diverged between bank and solo on {scenario_name}"
            );
        }
    }
}

/// The streaming executor agrees with the materializing executor on
/// the integration corpus.
#[test]
fn streaming_campaign_matches_materialized_campaign() {
    let spec = CampaignSpec {
        patient_indices: vec![0],
        initial_bgs: vec![120.0],
        steps: 40,
        ..CampaignSpec::quick(Platform::GlucosymOref0)
    };
    let materialized = run_campaign(&spec, None);
    let mut order = Vec::new();
    let mut streamed = Vec::new();
    run_campaign_with_workers(&spec, None, None, |i, t| {
        order.push(i);
        streamed.push(t);
    });
    assert_eq!(order, (0..materialized.len()).collect::<Vec<_>>());
    assert_eq!(streamed, materialized);
}

/// Fault-target validation: the builder rejects a typo'd target with a
/// descriptive error where the legacy path injected unbounded.
#[test]
fn builder_rejects_unknown_fault_targets() {
    for platform in Platform::ALL {
        let err = Session::builder(platform)
            .inject(FaultScenario::new("glucos", FaultKind::Max, Step(10), 10))
            .build()
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("glucos"), "{platform:?}: {msg}");
        assert!(msg.contains("glucose"), "{platform:?}: {msg}");
        match err {
            SessionError::UnknownFaultTarget { valid, .. } => {
                assert!(valid.iter().any(|v| v == "rate"));
            }
            other => panic!("wrong error variant: {other:?}"),
        }
    }
}
