//! Table V (CAWT vs non-ML monitors), Table VI (CAWT vs ML monitors)
//! and Fig. 9 (reaction time) — prediction-accuracy experiments.

use crate::experiments::{fold_indices, sample_counts, select, simulation_counts};
use crate::opts::ExpOpts;
use crate::report::{rate, write_json, Table};
use crate::zoo::{MonitorKind, Zoo};
use aps_metrics::timing::{early_detection_rate, reaction_time, TimingStats};
use aps_sim::campaign::run_campaign;
use aps_sim::platform::Platform;
use aps_sim::replay::replay_campaign;
use aps_types::SimTrace;
use serde_json::json;
use std::collections::HashMap;

/// Cross-validated replay: trains a zoo for `kinds` per fold and
/// replays each monitor kind over that fold's test traces. Returns, per
/// kind, the full campaign with alerts attached (each trace evaluated
/// exactly once, by a model that never saw it).
pub fn cv_replay(
    platform: Platform,
    opts: &ExpOpts,
    traces: &[SimTrace],
    kinds: &[MonitorKind],
) -> HashMap<MonitorKind, Vec<SimTrace>> {
    let mut out: HashMap<MonitorKind, Vec<SimTrace>> =
        kinds.iter().map(|&k| (k, Vec::new())).collect();
    let needs_training = kinds.iter().any(|k| k.needs_training());
    if !needs_training {
        // No trained artifacts: single pass, no folds needed.
        let zoo = Zoo::train(platform, opts, &[], kinds);
        for &kind in kinds {
            out.entry(kind)
                .or_default()
                .extend(replay_campaign(traces, |t| zoo.make(kind, &t.meta.patient)));
        }
        return out;
    }
    for (fold, (train_idx, test_idx)) in fold_indices(traces.len(), opts.folds)
        .into_iter()
        .enumerate()
    {
        eprintln!(
            "  fold {}/{} (train {}, test {})",
            fold + 1,
            opts.folds,
            train_idx.len(),
            test_idx.len()
        );
        let train = select(traces, &train_idx);
        let test = select(traces, &test_idx);
        let zoo = Zoo::train(platform, opts, &train, kinds);
        for &kind in kinds {
            out.entry(kind)
                .or_default()
                .extend(replay_campaign(&test, |t| zoo.make(kind, &t.meta.patient)));
        }
    }
    out
}

/// Paper reference numbers for Table V, keyed by (platform, monitor):
/// (FPR, FNR, ACC, F1).
fn paper_table5(platform: Platform, kind: MonitorKind) -> Option<(f64, f64, f64, f64)> {
    use MonitorKind::*;
    match (platform, kind) {
        (Platform::GlucosymOref0, Guideline) => Some((0.02, 0.32, 0.95, 0.73)),
        (Platform::GlucosymOref0, Mpc) => Some((0.02, 0.33, 0.95, 0.73)),
        (Platform::GlucosymOref0, Cawot) => Some((0.01, 0.21, 0.96, 0.84)),
        (Platform::GlucosymOref0, Cawt) => Some((0.005, 0.005, 0.99, 0.97)),
        (Platform::T1dsBasalBolus, Guideline) => Some((0.99, 0.00, 0.26, 0.41)),
        (Platform::T1dsBasalBolus, Mpc) => Some((0.01, 0.005, 0.99, 0.96)),
        (Platform::T1dsBasalBolus, Cawot) => Some((0.05, 0.005, 0.96, 0.87)),
        (Platform::T1dsBasalBolus, Cawt) => Some((0.005, 0.02, 1.00, 0.98)),
        _ => None,
    }
}

/// Table V: CAWT vs Guideline / MPC / CAWOT on both platforms.
pub fn table5(opts: &ExpOpts) {
    println!("Table V — CAWT vs non-ML monitors (sample level, tolerance window)\n");
    let mut results = Vec::new();
    for platform in Platform::ALL {
        println!("== {} ==", platform.name());
        let traces = run_campaign(&opts.campaign(platform), None);
        let hazardous =
            traces.iter().filter(|t| t.is_hazardous()).count() as f64 / traces.len() as f64;
        println!(
            "{} simulations, {:.1}% hazardous",
            traces.len(),
            hazardous * 100.0
        );

        let kinds = [
            MonitorKind::Guideline,
            MonitorKind::Mpc,
            MonitorKind::Cawot,
            MonitorKind::Cawt,
        ];
        // Untrained monitors in one pass; CAWT cross-validated.
        let untrained = cv_replay(platform, opts, &traces, &kinds[..3]);
        let trained = cv_replay(platform, opts, &traces, &kinds[3..]);

        let mut table = Table::new(&[
            "monitor", "FPR", "FNR", "ACC", "F1", "| paper:", "FPR", "FNR", "ACC", "F1",
        ]);
        for kind in kinds {
            let Some(replayed) = untrained.get(&kind).or_else(|| trained.get(&kind)) else {
                continue; // monitor kind produced no replays: no row
            };
            let c = sample_counts(replayed);
            let mut row = vec![
                kind.name().to_owned(),
                rate(c.fpr()),
                rate(c.fnr()),
                format!("{:.2}", c.accuracy()),
                format!("{:.2}", c.f1()),
                "|".to_owned(),
            ];
            if let Some((fpr, fnr, acc, f1)) = paper_table5(platform, kind) {
                row.extend([
                    rate(fpr),
                    rate(fnr),
                    format!("{acc:.2}"),
                    format!("{f1:.2}"),
                ]);
            }
            results.push(json!({
                "platform": platform.name(),
                "monitor": kind.name(),
                "fpr": c.fpr(), "fnr": c.fnr(), "acc": c.accuracy(), "f1": c.f1(),
            }));
            table.row(&row);
        }
        println!("{}", table.render());
    }
    println!(
        "reproduction target: CAWT holds the best F1 on both platforms; CAWOT sits\n\
         between CAWT and the Guideline/MPC baselines on Glucosym."
    );
    write_json(&opts.out_dir, "table5", &json!({ "rows": results }));
}

/// Paper reference numbers for Table VI (sample level): (FPR, FNR, ACC, F1).
fn paper_table6(platform: Platform, kind: MonitorKind) -> Option<(f64, f64, f64, f64)> {
    use MonitorKind::*;
    match (platform, kind) {
        (Platform::GlucosymOref0, Dt) => Some((0.08, 0.005, 0.93, 0.81)),
        (Platform::GlucosymOref0, Mlp) => Some((0.05, 0.03, 0.96, 0.86)),
        (Platform::GlucosymOref0, Lstm) => Some((0.04, 0.01, 0.96, 0.88)),
        (Platform::GlucosymOref0, Cawt) => Some((0.01, 0.005, 0.99, 0.97)),
        (Platform::T1dsBasalBolus, Dt) => Some((0.20, 0.005, 0.83, 0.62)),
        (Platform::T1dsBasalBolus, Mlp) => Some((0.01, 0.45, 0.93, 0.67)),
        (Platform::T1dsBasalBolus, Lstm) => Some((0.01, 0.03, 0.98, 0.94)),
        (Platform::T1dsBasalBolus, Cawt) => Some((0.005, 0.02, 1.00, 0.98)),
        _ => None,
    }
}

/// Table VI: CAWT vs the ML monitors, sample and simulation level.
pub fn table6(opts: &ExpOpts) {
    println!("Table VI — CAWT vs ML monitors (sample + simulation level)\n");
    let kinds = [
        MonitorKind::Dt,
        MonitorKind::Mlp,
        MonitorKind::Lstm,
        MonitorKind::Cawt,
    ];
    let mut results = Vec::new();
    for platform in Platform::ALL {
        println!("== {} ==", platform.name());
        let traces = run_campaign(&opts.campaign(platform), None);
        let replayed = cv_replay(platform, opts, &traces, &kinds);

        let mut table = Table::new(&[
            "monitor",
            "FPR",
            "FNR",
            "ACC",
            "F1",
            "| sim:",
            "FPR",
            "FNR",
            "ACC",
            "F1",
            "| paper F1:",
            "sample",
        ]);
        for kind in kinds {
            let ts = &replayed[&kind];
            let s = sample_counts(ts);
            let sim = simulation_counts(ts);
            let mut row = vec![
                kind.name().to_owned(),
                rate(s.fpr()),
                rate(s.fnr()),
                format!("{:.2}", s.accuracy()),
                format!("{:.2}", s.f1()),
                "|".to_owned(),
                rate(sim.fpr()),
                rate(sim.fnr()),
                format!("{:.2}", sim.accuracy()),
                format!("{:.2}", sim.f1()),
                "|".to_owned(),
            ];
            if let Some((_, _, _, f1)) = paper_table6(platform, kind) {
                row.push(format!("{f1:.2}"));
            }
            results.push(json!({
                "platform": platform.name(), "monitor": kind.name(),
                "sample": {"fpr": s.fpr(), "fnr": s.fnr(), "acc": s.accuracy(), "f1": s.f1()},
                "simulation": {"fpr": sim.fpr(), "fnr": sim.fnr(), "acc": sim.accuracy(), "f1": sim.f1()},
            }));
            table.row(&row);
        }
        println!("{}", table.render());
    }
    println!(
        "reproduction target: CAWT keeps the lowest FPR and best F1; the DT trades\n\
         a very low FNR for a much higher FPR."
    );
    write_json(&opts.out_dir, "table6", &json!({ "rows": results }));
}

/// Fig. 9: average reaction time (minutes before hazard onset) and
/// early-detection rate per monitor.
pub fn fig9(opts: &ExpOpts) {
    println!("Fig. 9 — reaction time per monitor (minutes, positive = early)\n");
    let platform = Platform::GlucosymOref0;
    let traces = run_campaign(&opts.campaign(platform), None);
    let kinds = [
        MonitorKind::Guideline,
        MonitorKind::Mpc,
        MonitorKind::Cawot,
        MonitorKind::Cawt,
        MonitorKind::Dt,
        MonitorKind::Mlp,
        MonitorKind::Lstm,
    ];
    let replayed = cv_replay(platform, opts, &traces, &kinds);

    let mut table = Table::new(&["monitor", "mean", "sd", "n", "EDR", "paper mean"]);
    let paper_mean: HashMap<MonitorKind, f64> = [
        (MonitorKind::Guideline, 20.0),
        (MonitorKind::Mpc, 25.0),
        (MonitorKind::Cawt, 120.0),
        (MonitorKind::Dt, 160.0),
        (MonitorKind::Mlp, 160.0),
        (MonitorKind::Lstm, 160.0),
    ]
    .into_iter()
    .collect();
    let mut results = Vec::new();
    for kind in kinds {
        let ts = &replayed[&kind];
        let rts: Vec<f64> = ts.iter().filter_map(reaction_time).collect();
        let stats = TimingStats::from_values(&rts);
        let edr = early_detection_rate(ts.iter());
        results.push(json!({
            "monitor": kind.name(), "mean_min": stats.mean, "sd_min": stats.sd,
            "n": stats.n, "edr": edr,
        }));
        table.row(&[
            kind.name().to_owned(),
            format!("{:.0}", stats.mean),
            format!("{:.0}", stats.sd),
            stats.n.to_string(),
            format!("{:.0}%", edr * 100.0),
            paper_mean
                .get(&kind)
                .map(|m| format!("~{m:.0}"))
                .unwrap_or_default(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "reproduction target: the context-aware monitors alert hours ahead with a\n\
         smaller spread than the Guideline/MPC baselines (paper: CAWT ≈ 2 h early,\n\
         ≥ 1.6 h earlier than Guideline/MPC)."
    );
    write_json(&opts.out_dir, "fig9", &json!({ "rows": results }));
}
