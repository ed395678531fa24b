//! Table VII — mitigation performance: recovery rate, new hazards,
//! average risk, with the same Algorithm-1 strategy under every
//! monitor.

use crate::opts::ExpOpts;
use crate::report::{write_json, Table};
use crate::zoo::{MonitorKind, Zoo};
use aps_core::monitors::HazardMonitor;
use aps_metrics::outcome::{average_risk, new_hazards, recovery_rate, RiskContribution};
use aps_risk::mean_risk_index;
use aps_sim::campaign::{run_campaign, CampaignSpec, ScenarioCtx};
use aps_sim::platform::Platform;
use serde_json::json;

/// Table VII: rerun the campaign with each monitor driving Algorithm-1
/// mitigation and compare patient outcomes against the unmitigated
/// baseline.
pub fn table7(opts: &ExpOpts) {
    println!("Table VII — hazard mitigation with the fixed Algorithm-1 strategy\n");
    let platform = Platform::GlucosymOref0;
    let spec = opts.campaign(platform);

    // Baseline: no monitor (also the training data for CAWT/ML).
    eprintln!("  baseline campaign ...");
    let baseline = run_campaign(&spec, None);
    let kinds = [
        MonitorKind::Cawt,
        MonitorKind::Dt,
        MonitorKind::Mlp,
        MonitorKind::Mpc,
    ];
    let zoo = Zoo::train(platform, opts, &baseline, &kinds);
    let paper: &[(MonitorKind, f64, u64, f64)] = &[
        (MonitorKind::Cawt, 0.54, 8, 0.02),
        (MonitorKind::Dt, 0.403, 227, 0.76),
        (MonitorKind::Mlp, 0.39, 177, 0.68),
        (MonitorKind::Mpc, 0.043, 123, 0.22),
    ];

    let mut table = Table::new(&[
        "monitor",
        "recovery",
        "new hazards",
        "avg risk",
        "| paper:",
        "recovery",
        "new",
        "risk",
    ]);
    let mut results = Vec::new();
    for kind in kinds {
        eprintln!("  mitigated campaign with {} ...", kind.name());
        let spec_mit = CampaignSpec {
            mitigate: true,
            ..spec.clone()
        };
        let factory =
            |ctx: &ScenarioCtx| -> Box<dyn HazardMonitor> { zoo.make(kind, &ctx.patient) };
        let mitigated = run_campaign(&spec_mit, Some(&factory));

        let pairs: Vec<_> = baseline.iter().zip(mitigated.iter()).collect();
        let recovery = recovery_rate(pairs.iter().copied());
        let new = new_hazards(pairs.iter().copied());
        let contributions: Vec<RiskContribution> = pairs
            .iter()
            .map(|(base, mit)| RiskContribution {
                mean_risk_index: mean_risk_index(&mit.bg_true_series()),
                // Harm persists: the scenario still ends hazardous
                // despite (or without) mitigation.
                is_false_negative: base.is_hazardous() && mit.is_hazardous(),
                is_new_hazard: !base.is_hazardous() && mit.is_hazardous(),
            })
            .collect();
        let risk = average_risk(&contributions);
        let Some(p) = paper.iter().find(|(k, _, _, _)| *k == kind) else {
            continue; // no paper reference row for this monitor
        };
        table.row(&[
            kind.name().to_owned(),
            format!("{:.1}%", recovery * 100.0),
            new.to_string(),
            format!("{risk:.2}"),
            "|".to_owned(),
            format!("{:.1}%", p.1 * 100.0),
            p.2.to_string(),
            format!("{:.2}", p.3),
        ]);
        results.push(json!({
            "monitor": kind.name(),
            "recovery_rate": recovery,
            "new_hazards": new,
            "avg_risk": risk,
        }));
    }
    println!("{}", table.render());
    println!(
        "reproduction target: CAWT prevents the most hazards while introducing the\n\
         fewest new ones (lowest average risk); MPC recovers the least; the ML\n\
         monitors pay for their FPR with mitigation-induced hazards."
    );
    write_json(&opts.out_dir, "table7", &json!({ "rows": results }));
}
