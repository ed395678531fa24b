//! §VI discussion ablations: adversarial vs fault-free training,
//! binary vs multi-class ML monitors, and ML overfitting on fault-free
//! data.

use crate::experiments::{fold_indices, sample_counts, select};
use crate::opts::ExpOpts;
use crate::report::{rate, write_json, Table};
use crate::zoo::{MonitorKind, Zoo};
use aps_core::context::ContextBuilder;
use aps_core::scs::{ActionCond, BgCond, IobCond, Scs};
use aps_metrics::timing::early_detection_rate;
use aps_sim::campaign::run_campaign;
use aps_sim::platform::Platform;
use aps_sim::replay::replay_campaign;
use aps_types::{SimTrace, UnitsPerHour};
use serde_json::json;

/// One-class threshold fitting from *fault-free* traces: each rule's β
/// is pushed to the boundary of normal behaviour so that normal
/// operation is never flagged — the paper's "thresholds learned from
/// fault-free data" variant, which lacks the adversarial tightening
/// against actual hazard trajectories.
fn fault_free_thresholds(scs: &Scs, traces: &[SimTrace], basal: UnitsPerHour) -> Scs {
    let mut out = scs.clone();
    for rule in &scs.rules {
        let mut extreme: Option<f64> = None;
        for trace in traces.iter().filter(|t| t.meta.fault_start.is_none()) {
            let mut builder = ContextBuilder::new(basal);
            for rec in trace.iter() {
                let ctx = builder.observe_bg(rec.bg);
                builder.observe_delivery(rec.delivered);
                let action_matches = match rule.action {
                    ActionCond::Forbidden(u) => rec.action == u,
                    ActionCond::Required(u) => rec.action != u,
                };
                if !action_matches {
                    continue;
                }
                let mut relaxed = rule.clone();
                match rule.iob {
                    IobCond::Any => {
                        if matches!(rule.bg, BgCond::BelowBeta) {
                            relaxed.beta = f64::INFINITY;
                        }
                    }
                    _ => relaxed.iob = IobCond::Any,
                }
                if !relaxed.context_matches(&ctx, scs.target) {
                    continue;
                }
                let mu = match rule.iob {
                    IobCond::Any => ctx.bg,
                    _ => ctx.iob,
                };
                extreme = Some(match (extreme, rule.iob) {
                    (None, _) => mu,
                    // BelowBeta rules fire when µ < β: to spare normal
                    // behaviour, β must sit below every normal µ.
                    (Some(prev), IobCond::BelowBeta | IobCond::Any) => prev.min(mu),
                    (Some(prev), IobCond::AboveBeta) => prev.max(mu),
                });
            }
        }
        if let Some(mu) = extreme {
            let margin = if matches!(rule.iob, IobCond::Any) {
                2.0
            } else {
                0.05
            };
            let beta = match rule.iob {
                IobCond::BelowBeta | IobCond::Any => mu - margin,
                IobCond::AboveBeta => mu + margin,
            };
            if let Some(r) = out.rule_mut(rule.id) {
                r.beta = beta;
            }
        }
    }
    out
}

/// Ablation 1: adversarial (fault-injected) training vs fault-free
/// threshold derivation.
pub fn adversarial(opts: &ExpOpts) {
    println!("§VI ablation — adversarial training improves the CAWT monitor\n");
    let platform = Platform::GlucosymOref0;
    let traces = run_campaign(&opts.campaign(platform), None);
    let (train_idx, test_idx) = fold_indices(traces.len(), opts.folds).remove(0);
    let train = select(&traces, &train_idx);
    let test = select(&traces, &test_idx);

    // Adversarial: the standard CAWT pipeline.
    let zoo = Zoo::train(platform, opts, &train, &[MonitorKind::Cawt]);
    let adversarial = replay_campaign(&test, |t| zoo.make(MonitorKind::Cawt, &t.meta.patient));

    // Fault-free: thresholds pushed to the normal-behaviour boundary.
    let probe = platform.patients().remove(0);
    let basal = platform.basal_for(probe.as_ref());
    let ff_scs = fault_free_thresholds(
        &Scs::with_default_thresholds(platform.target()),
        &train,
        basal,
    );
    let ff_replayed: Vec<SimTrace> = test
        .iter()
        .map(|t| {
            let mut m = aps_core::monitors::CawMonitor::new(
                "cawt-ff",
                ff_scs.clone(),
                zoo.basal(&t.meta.patient),
            );
            aps_sim::replay::replay_monitor(t, &mut m)
        })
        .collect();

    let mut table = Table::new(&["training", "FPR", "FNR", "F1", "EDR"]);
    let mut results = Vec::new();
    for (label, ts) in [
        ("adversarial (faulty)", &adversarial),
        ("fault-free only", &ff_replayed),
    ] {
        let c = sample_counts(ts);
        let edr = early_detection_rate(ts.iter());
        table.row(&[
            label.to_owned(),
            rate(c.fpr()),
            rate(c.fnr()),
            format!("{:.2}", c.f1()),
            format!("{:.0}%", edr * 100.0),
        ]);
        results.push(json!({
            "training": label, "fpr": c.fpr(), "fnr": c.fnr(),
            "f1": c.f1(), "edr": edr,
        }));
    }
    println!("{}", table.render());
    println!(
        "reproduction target: adversarial refinement raises EDR and F1 over the\n\
         fault-free-trained monitor (paper: +11.3% EDR, +8.5% F1)."
    );
    write_json(
        &opts.out_dir,
        "ablation_adversarial",
        &json!({ "rows": results }),
    );
}

/// Ablation 2: binary vs multi-class ML monitors.
pub fn multiclass(opts: &ExpOpts) {
    println!("§VI ablation — binary vs multi-class ML monitors\n");
    let platform = Platform::GlucosymOref0;
    let traces = run_campaign(&opts.campaign(platform), None);
    let (train_idx, test_idx) = fold_indices(traces.len(), opts.folds).remove(0);
    let train = select(&traces, &train_idx);
    let test = select(&traces, &test_idx);
    let rows = [
        (MonitorKind::Dt, "DT", "2"),
        (MonitorKind::DtMulti, "DT", "3"),
        (MonitorKind::Mlp, "MLP", "2"),
        (MonitorKind::MlpMulti, "MLP", "3"),
        (MonitorKind::Cawt, "CAWT", "n/a (from SCS)"),
    ];
    let kinds = rows.map(|(kind, _, _)| kind);
    let zoo = Zoo::train(platform, opts, &train, &kinds);

    let mut table = Table::new(&["monitor", "classes", "FPR", "FNR", "ACC", "F1"]);
    let mut results = Vec::new();
    for (kind, label, classes) in rows {
        let ts = replay_campaign(&test, |t| zoo.make(kind, &t.meta.patient));
        let c = sample_counts(&ts);
        table.row(&[
            label.to_owned(),
            classes.to_owned(),
            rate(c.fpr()),
            rate(c.fnr()),
            format!("{:.2}", c.accuracy()),
            format!("{:.2}", c.f1()),
        ]);
        results.push(json!({
            "monitor": label, "classes": classes, "fpr": c.fpr(),
            "fnr": c.fnr(), "acc": c.accuracy(), "f1": c.f1(),
        }));
    }
    println!("{}", table.render());
    println!(
        "reproduction target: moving the ML monitors from binary to 3-class (needed\n\
         for mitigation) costs them FNR/accuracy; CAWT already knows the hazard type\n\
         from its SCS rules (paper: ≥14.3% FNR increase for the ML monitors)."
    );
    write_json(
        &opts.out_dir,
        "ablation_multiclass",
        &json!({ "rows": results }),
    );
}

/// Ablation 3: monitors evaluated on *fault-free* simulations only —
/// the overfitting check.
pub fn fault_free_eval(opts: &ExpOpts) {
    println!("§VI ablation — monitors on fault-free data (overfitting check)\n");
    let platform = Platform::GlucosymOref0;
    let traces = run_campaign(&opts.campaign(platform), None);
    let kinds = [
        MonitorKind::Cawt,
        MonitorKind::Dt,
        MonitorKind::Mlp,
        MonitorKind::Lstm,
    ];
    let zoo = Zoo::train(platform, opts, &traces, &kinds);

    // A fresh fault-free set (different initial BGs than training used).
    let mut ff_spec = opts.campaign(platform);
    ff_spec.faults = aps_fault::CampaignConfig {
        starts: vec![],
        durations: vec![],
    };
    ff_spec.include_fault_free = true;
    let fault_free = run_campaign(&ff_spec, None);

    let mut table = Table::new(&["monitor", "FPR", "false-alarm sims"]);
    let mut results = Vec::new();
    for kind in kinds {
        let ts = replay_campaign(&fault_free, |t| zoo.make(kind, &t.meta.patient));
        let c = sample_counts(&ts);
        let alarmed = ts.iter().filter(|t| t.first_alert().is_some()).count();
        table.row(&[
            kind.name().to_owned(),
            rate(c.fpr()),
            format!("{alarmed}/{}", ts.len()),
        ]);
        results.push(json!({
            "monitor": kind.name(), "fpr": c.fpr(),
            "false_alarm_sims": alarmed, "total_sims": ts.len(),
        }));
    }
    println!("{}", table.render());
    println!(
        "reproduction target: the weakly-supervised CAWT degrades least on data it\n\
         never trained on; fully-supervised ML monitors lose far more (paper: ≥48.9%\n\
         F1 drop for ML vs 3.9% for CAWT)."
    );
    write_json(
        &opts.out_dir,
        "ablation_faultfree",
        &json!({ "rows": results }),
    );
}

/// Extension ablation: monitor accuracy under realistic CGM sensor
/// error.
///
/// The paper's threat model assumes the monitor sees fault-free sensor
/// data; its Threats-to-Validity section argues established CGM error
/// models (Facchinetti/Vettoretti) cover the residual sensor noise.
/// This experiment quantifies the assumption: the CAWT monitor is
/// trained on clean-sensor traces, then evaluated on campaigns whose
/// CGM runs progressively worse error models.
pub fn sensor_noise(opts: &ExpOpts) {
    use aps_glucose::sensor::CgmConfig;
    use aps_glucose::sensor_error::{mard, ErrorModelConfig};
    use aps_sim::campaign::ScenarioCtx;

    println!("extension ablation — CAWT accuracy under CGM sensor error\n");
    let platform = Platform::GlucosymOref0;
    let clean_spec = opts.campaign(platform);

    eprintln!("  clean-sensor training campaign ...");
    let clean = run_campaign(&clean_spec, None);
    let zoo = Zoo::train(platform, opts, &clean, &[MonitorKind::Cawt]);

    let conditions: Vec<(&str, CgmConfig)> = vec![
        ("clean (paper assumption)", CgmConfig::default()),
        (
            "white noise sd=5",
            CgmConfig {
                noise_sd: 5.0,
                ..CgmConfig::default()
            },
        ),
        (
            "Dexcom-like AR+cal",
            CgmConfig {
                error_model: Some(ErrorModelConfig::dexcom_like()),
                ..CgmConfig::default()
            },
        ),
        (
            "degraded sensor",
            CgmConfig {
                error_model: Some(ErrorModelConfig::degraded()),
                ..CgmConfig::default()
            },
        ),
    ];

    let mut table = Table::new(&["sensor condition", "MARD", "FPR", "FNR", "ACC", "F1"]);
    let mut results = Vec::new();
    for (label, cgm) in conditions {
        eprintln!("  evaluation campaign, {label} ...");
        let spec = aps_sim::campaign::CampaignSpec {
            cgm,
            ..clean_spec.clone()
        };
        let factory = |ctx: &ScenarioCtx| -> Box<dyn aps_core::monitors::HazardMonitor> {
            zoo.make(MonitorKind::Cawt, &ctx.patient)
        };
        let traces = run_campaign(&spec, Some(&factory));
        let c = sample_counts(&traces);
        // Observed MARD of the condition, pooled over all traces.
        let (mut t_all, mut d_all) = (Vec::new(), Vec::new());
        for t in &traces {
            t_all.extend(t.bg_true_series());
            d_all.extend(t.bg_series());
        }
        let m = mard(&t_all, &d_all);
        table.row(&[
            label.to_owned(),
            format!("{:.1}%", m * 100.0),
            rate(c.fpr()),
            rate(c.fnr()),
            format!("{:.2}", c.accuracy()),
            format!("{:.2}", c.f1()),
        ]);
        results.push(json!({
            "condition": label, "mard": m, "fpr": c.fpr(), "fnr": c.fnr(),
            "acc": c.accuracy(), "f1": c.f1(),
        }));
    }
    println!("{}", table.render());
    println!(
        "extension target: graceful degradation — the SCS trend dead-bands and the\n\
         tolerance window should absorb realistic sensor error without the FPR\n\
         blowing up (colored noise can even dither borderline contexts into\n\
         slightly earlier detections)."
    );
    write_json(&opts.out_dir, "ablation_noise", &json!({ "rows": results }));
}
