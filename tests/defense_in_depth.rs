//! Integration tests of the extension layers working together:
//! context-aware monitor + mitigation (fixed and context-dependent),
//! HMS deadline auditing, meals, and noisy sensors — the full
//! defense-in-depth stack on live closed loops.

use aps_repro::core::hms::{Hms, TsLearnConfig};
use aps_repro::glucose::sensor::CgmConfig;
use aps_repro::glucose::sensor_error::ErrorModelConfig;
use aps_repro::prelude::*;
use aps_repro::sim::closed_loop::{self, LoopConfig, Meal};
use aps_repro::sim::platform::Platform;

fn overdose_scenario() -> FaultScenario {
    FaultScenario::new("rate", FaultKind::Max, Step(30), 30)
}

/// Fixed Algorithm-1 mitigation driven by the CAWOT monitor prevents
/// the overdose hazard that an unmonitored loop suffers.
#[test]
fn monitored_mitigation_prevents_overdose_hazard() {
    let platform = Platform::GlucosymOref0;

    let run_with = |monitored: bool| -> SimTrace {
        let mut patient = platform.patients().remove(0);
        let mut controller = platform.controller_for(patient.as_ref());
        let scs = Scs::with_default_thresholds(platform.target());
        let mut monitor = CawMonitor::new("cawot", scs, platform.basal_for(patient.as_ref()));
        let mut injector = FaultInjector::new(overdose_scenario());
        let config = LoopConfig {
            mitigator: monitored
                .then(|| Mitigator::paper_default(platform.max_mitigation_rate(patient.as_ref()))),
            ..LoopConfig::default()
        };
        closed_loop::run(
            patient.as_mut(),
            controller.as_mut(),
            monitored.then_some(&mut monitor as &mut dyn HazardMonitor),
            Some(&mut injector),
            &config,
        )
    };

    let exposed = run_with(false);
    let defended = run_with(true);
    assert!(
        exposed.is_hazardous(),
        "baseline overdose must be hazardous"
    );
    let exposed_min = exposed
        .bg_true_series()
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    let defended_min = defended
        .bg_true_series()
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    assert!(
        defended_min > exposed_min + 5.0,
        "mitigation did not raise the nadir ({exposed_min:.0} -> {defended_min:.0})"
    );
}

/// Context-dependent mitigation also defuses the hazard, and on the
/// H2 (under-insulinization) side it injects no more insulin than the
/// fixed maximum-rate policy.
#[test]
fn context_mitigation_defuses_with_less_insulin() {
    let platform = Platform::GlucosymOref0;
    // An under-insulinization fault: insulin output truncated to zero
    // for 3 hours while the patient runs high.
    let scenario = FaultScenario::new("rate", FaultKind::Truncate, Step(20), 36);

    let run_with = |context: bool| -> SimTrace {
        let mut patient = platform.patients().remove(1);
        let mut controller = platform.controller_for(patient.as_ref());
        let scs = Scs::with_default_thresholds(platform.target());
        let mut monitor = CawMonitor::new("cawot", scs, platform.basal_for(patient.as_ref()));
        let mut injector = FaultInjector::new(scenario.clone());
        let max = platform.max_mitigation_rate(patient.as_ref());
        let config = LoopConfig {
            initial_bg: 180.0,
            mitigator: (!context).then(|| Mitigator::paper_default(max)),
            context_mitigation: context.then(|| {
                aps_repro::core::hms::ContextMitigatorConfig::for_run(
                    platform.target(),
                    platform.basal_for(patient.as_ref()),
                    max,
                )
            }),
            ..LoopConfig::default()
        };
        closed_loop::run(
            patient.as_mut(),
            controller.as_mut(),
            Some(&mut monitor),
            Some(&mut injector),
            &config,
        )
    };

    let fixed = run_with(false);
    let contextual = run_with(true);

    let delivered =
        |t: &SimTrace| -> f64 { t.records.iter().map(|r| r.delivered.value() / 12.0).sum() };
    let (du_fixed, du_ctx) = (delivered(&fixed), delivered(&contextual));
    assert!(
        du_ctx <= du_fixed + 1e-9,
        "context policy should not out-dose the fixed-max policy \
         ({du_ctx:.2} U vs {du_fixed:.2} U)"
    );
    // Both policies keep the run out of the severe band.
    for t in [&fixed, &contextual] {
        let min = t
            .bg_true_series()
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert!(
            min > 40.0,
            "mitigation itself caused severe hypoglycemia ({min:.0})"
        );
    }
}

/// HMS deadline compliance is higher on mitigated runs than on
/// unmitigated ones: mitigation is exactly what injects the safe
/// corrective actions the deadlines demand.
#[test]
fn hms_audit_improves_under_mitigation() {
    let platform = Platform::GlucosymOref0;
    let scs = Scs::with_default_thresholds(platform.target());
    let mut hms = Hms::for_scs(&scs);

    let run_with = |mitigate: bool| -> Vec<SimTrace> {
        [
            overdose_scenario(),
            FaultScenario::new("rate", FaultKind::Truncate, Step(20), 36),
        ]
        .into_iter()
        .map(|scenario| {
            let mut patient = platform.patients().remove(0);
            let mut controller = platform.controller_for(patient.as_ref());
            let mut monitor =
                CawMonitor::new("cawot", scs.clone(), platform.basal_for(patient.as_ref()));
            let mut injector = FaultInjector::new(scenario);
            let config = LoopConfig {
                mitigator: mitigate.then(|| {
                    Mitigator::paper_default(platform.max_mitigation_rate(patient.as_ref()))
                }),
                ..LoopConfig::default()
            };
            closed_loop::run(
                patient.as_mut(),
                controller.as_mut(),
                Some(&mut monitor),
                Some(&mut injector),
                &config,
            )
        })
        .collect()
    };

    let unmitigated = run_with(false);
    let mitigated = run_with(true);
    // Deadlines learned from the unmitigated (hazard-bearing) traces.
    hms.learn_ts(&unmitigated, &TsLearnConfig::default());

    let compliance = |traces: &[SimTrace]| -> (usize, usize) {
        let mut honored = 0;
        let mut violated = 0;
        for t in traces {
            let r = hms.check_trace(&scs, t);
            honored += r.honored;
            violated += r.violations.len();
        }
        (honored, violated)
    };
    let (h_un, v_un) = compliance(&unmitigated);
    let (h_mit, v_mit) = compliance(&mitigated);
    let rate = |h: usize, v: usize| h as f64 / (h + v).max(1) as f64;
    assert!(
        rate(h_mit, v_mit) >= rate(h_un, v_un),
        "mitigation should raise HMS compliance \
         ({h_mit}/{v_mit} vs {h_un}/{v_un})"
    );
}

/// The context-aware monitor flags the controller overdose fault on
/// an unmitigated loop.
#[test]
fn cawot_flags_the_controller_overdose() {
    let platform = Platform::GlucosymOref0;
    let mut patient = platform.patients().remove(0);
    let mut controller = platform.controller_for(patient.as_ref());
    let scs = Scs::with_default_thresholds(platform.target());
    let mut monitor = CawMonitor::new("cawot", scs, platform.basal_for(patient.as_ref()));
    let mut injector = FaultInjector::new(overdose_scenario());
    let trace = closed_loop::run(
        patient.as_mut(),
        controller.as_mut(),
        Some(&mut monitor),
        Some(&mut injector),
        &LoopConfig::default(),
    );
    assert!(
        trace.first_alert().is_some(),
        "hazard monitor must flag the controller fault"
    );
}

/// A realistic (AR + calibration) sensor error model in the loop does
/// not destabilize fault-free regulation on either platform.
#[test]
fn noisy_sensor_keeps_fault_free_loop_safe() {
    for platform in Platform::ALL {
        let mut patient = platform.patients().remove(0);
        let mut controller = platform.controller_for(patient.as_ref());
        let config = LoopConfig {
            cgm: CgmConfig {
                error_model: Some(ErrorModelConfig::dexcom_like()),
                ..CgmConfig::default()
            },
            ..LoopConfig::default()
        };
        let trace = closed_loop::run(patient.as_mut(), controller.as_mut(), None, None, &config);
        let min = trace
            .bg_true_series()
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert!(
            min > 54.0,
            "{}: realistic sensor noise drove the loop to {min:.0} mg/dL",
            platform.name()
        );
    }
}

/// Meals + fault + monitor: the combination from the `meal_day`
/// example, pinned as a regression test — no false alarms before the
/// fault, alert raised after it.
#[test]
fn meals_do_not_mask_or_fake_hazards() {
    let platform = Platform::GlucosymOref0;
    let mut patient = platform.patients().remove(0);
    let mut controller = platform.controller_for(patient.as_ref());
    let scs = Scs::with_default_thresholds(platform.target());
    let mut monitor = CawMonitor::new("cawot", scs, platform.basal_for(patient.as_ref()));
    let fault_start = 100u32;
    let mut injector = FaultInjector::new(FaultScenario::new(
        "rate",
        FaultKind::Max,
        Step(fault_start),
        24,
    ));
    let config = LoopConfig {
        steps: 200,
        meals: vec![Meal::new(Step(20), 35.0), Meal::new(Step(60), 40.0)],
        ..LoopConfig::default()
    };
    let trace = closed_loop::run(
        patient.as_mut(),
        controller.as_mut(),
        Some(&mut monitor),
        Some(&mut injector),
        &config,
    );
    let pre_fault_alerts = trace
        .records
        .iter()
        .take(fault_start as usize)
        .filter(|r| r.alert.is_some())
        .count();
    assert_eq!(pre_fault_alerts, 0, "meal excursions raised false alarms");
    assert!(
        trace.records[fault_start as usize..]
            .iter()
            .any(|r| r.alert.is_some()),
        "fault during the meal day was never flagged"
    );
}

/// The STL-synthesized monitor and the native rule monitor produce the
/// same alert sequence across an entire fault campaign — the formulas
/// of Table I *are* the monitor, not documentation beside it.
#[test]
fn stl_synthesized_monitor_matches_native_on_campaigns() {
    use aps_repro::core::monitors::StlCawMonitor;
    use aps_repro::sim::replay::replay_monitor;

    let platform = Platform::GlucosymOref0;
    let spec = CampaignSpec {
        patient_indices: vec![0, 3],
        initial_bgs: vec![100.0, 160.0],
        ..CampaignSpec::quick(platform)
    };
    let traces = run_campaign(&spec, None);
    assert!(traces.len() > 50, "campaign too small to be meaningful");

    let scs = Scs::with_default_thresholds(platform.target());
    let basal = platform.basal_for(platform.patients().remove(0).as_ref());
    let mut disagreements = 0usize;
    for trace in &traces {
        let mut native = CawMonitor::new("native", scs.clone(), basal);
        let mut stl = StlCawMonitor::new("stl", scs.clone(), basal);
        let a = replay_monitor(trace, &mut native);
        let b = replay_monitor(trace, &mut stl);
        for (ra, rb) in a.records.iter().zip(&b.records) {
            if ra.alert != rb.alert {
                disagreements += 1;
            }
        }
    }
    assert_eq!(
        disagreements, 0,
        "native and STL-synthesized monitors diverged on {disagreements} cycles"
    );
}

/// Persisted traces are interchangeable with live ones: replaying a
/// monitor over a JSONL round-trip gives the identical alert stream.
#[test]
fn persisted_traces_replay_identically() {
    use aps_repro::sim::io::{read_jsonl, write_jsonl};
    use aps_repro::sim::replay::replay_monitor;

    let platform = Platform::GlucosymOref0;
    let spec = CampaignSpec {
        patient_indices: vec![2],
        initial_bgs: vec![140.0],
        steps: 80,
        ..CampaignSpec::quick(platform)
    };
    let traces = run_campaign(&spec, None);

    let mut buf = Vec::new();
    write_jsonl(&traces, &mut buf).unwrap();
    let reloaded = read_jsonl(buf.as_slice()).unwrap();
    assert_eq!(traces.len(), reloaded.len());

    let scs = Scs::with_default_thresholds(platform.target());
    let basal = platform.basal_for(platform.patients().remove(2).as_ref());
    for (live, stored) in traces.iter().zip(&reloaded) {
        let mut m1 = CawMonitor::new("cawot", scs.clone(), basal);
        let mut m2 = CawMonitor::new("cawot", scs.clone(), basal);
        let a = replay_monitor(live, &mut m1);
        let b = replay_monitor(stored, &mut m2);
        assert_eq!(a, b, "alert stream changed across persistence");
    }
}
