//! HMS extension ablation — fixed Algorithm-1 mitigation vs the
//! context-dependent policy, with data-driven deadline (`t_s`)
//! learning and Eq. 2 compliance checking.
//!
//! The paper evaluates mitigation with a deliberately fixed policy
//! ("we instead use a fixed maximum value of insulin to enable a fair
//! comparison") and leaves both the context-dependent selection
//! function `f(ρ(µ(x)), u_t)` and learning the deadline `t_s` as
//! future work. This experiment implements that future work and
//! quantifies what it buys: the CAWT monitor drives either policy on
//! the same fault campaign, and the mitigated runs are additionally
//! audited against the learned HMS deadlines.

use crate::opts::ExpOpts;
use crate::report::{write_json, Table};
use crate::zoo::{MonitorKind, Zoo};
use aps_core::hms::{Hms, TsLearnConfig};
use aps_core::monitors::HazardMonitor;
use aps_metrics::glycemic::GlycemicSummary;
use aps_metrics::outcome::{average_risk, new_hazards, recovery_rate, RiskContribution};
use aps_risk::mean_risk_index;
use aps_sim::campaign::{run_campaign, CampaignSpec, ScenarioCtx};
use aps_sim::platform::Platform;
use aps_types::Hazard;
use serde_json::json;

/// `repro ablation-hms`: learned mitigation deadlines + fixed vs
/// context-dependent mitigation under the same CAWT monitor.
pub fn hms_mitigation(opts: &ExpOpts) {
    println!("HMS extension — Eq. 2 deadlines and context-dependent mitigation\n");
    let platform = Platform::GlucosymOref0;
    let spec = opts.campaign(platform);

    eprintln!("  baseline campaign ...");
    let baseline = run_campaign(&spec, None);
    let zoo = Zoo::train(
        platform,
        opts,
        &baseline,
        &[MonitorKind::Cawt, MonitorKind::CawtPopulation],
    );

    // Deadline learning from the campaign's TTH distribution.
    let scs = zoo.population_scs().clone();
    let mut hms = Hms::for_scs(&scs);
    let updated = hms.learn_ts(&baseline, &TsLearnConfig::default());
    let ts_of = |h: Hazard| {
        hms.rules
            .iter()
            .find(|r| r.hazard == h)
            .map(|r| r.ts_minutes())
            .unwrap_or(f64::NAN)
    };
    println!(
        "learned deadlines t_s from {} hazardous traces ({} rules updated):",
        baseline.iter().filter(|t| t.is_hazardous()).count(),
        updated,
    );
    println!(
        "  H1 (hypoglycemia side): mitigate within {:.0} min",
        ts_of(Hazard::H1)
    );
    println!(
        "  H2 (hyperglycemia side): mitigate within {:.0} min\n",
        ts_of(Hazard::H2)
    );

    let mut table = Table::new(&[
        "mitigation policy",
        "recovery",
        "new hazards",
        "avg risk",
        "TIR",
        "TBR",
        "HMS deadline compliance",
    ]);
    let mut results = Vec::new();
    for (label, context_mitigate) in [
        ("fixed (Algorithm 1)", false),
        ("context-aware f(rho,u)", true),
    ] {
        eprintln!("  mitigated campaign, {label} ...");
        let spec_mit = CampaignSpec {
            mitigate: true,
            context_mitigate,
            ..spec.clone()
        };
        let factory = |ctx: &ScenarioCtx| -> Box<dyn HazardMonitor> {
            zoo.make(MonitorKind::Cawt, &ctx.patient)
        };
        let mitigated = run_campaign(&spec_mit, Some(&factory));

        let pairs: Vec<_> = baseline.iter().zip(mitigated.iter()).collect();
        let recovery = recovery_rate(pairs.iter().copied());
        let new = new_hazards(pairs.iter().copied());
        let contributions: Vec<RiskContribution> = pairs
            .iter()
            .map(|(base, mit)| RiskContribution {
                mean_risk_index: mean_risk_index(&mit.bg_true_series()),
                is_false_negative: base.is_hazardous() && mit.is_hazardous(),
                is_new_hazard: !base.is_hazardous() && mit.is_hazardous(),
            })
            .collect();
        let risk = average_risk(&contributions);

        // Eq. 2 audit: of all unsafe-context entries in the mitigated
        // runs, how many saw a safe corrective action in time?
        let (mut entries, mut honored, mut violations) = (0usize, 0usize, 0usize);
        for trace in &mitigated {
            let report = hms.check_trace(&scs, trace);
            entries += report.entries;
            honored += report.honored;
            violations += report.violations.len();
        }
        let compliance = if entries > 0 {
            honored as f64 / (honored + violations).max(1) as f64
        } else {
            1.0
        };

        // Clinical endpoints of the mitigated runs, pooled.
        let glycemic = GlycemicSummary::from_traces(mitigated.iter());

        table.row(&[
            label.to_owned(),
            format!("{:.1}%", recovery * 100.0),
            new.to_string(),
            format!("{risk:.2}"),
            format!("{:.1}%", glycemic.tir * 100.0),
            format!("{:.1}%", glycemic.tbr * 100.0),
            format!("{:.1}% of {} UCA onsets", compliance * 100.0, entries),
        ]);
        results.push(json!({
            "policy": label,
            "recovery_rate": recovery,
            "new_hazards": new,
            "avg_risk": risk,
            "tir": glycemic.tir,
            "tbr": glycemic.tbr,
            "gmi": glycemic.gmi,
            "hms_entries": entries,
            "hms_honored": honored,
            "hms_violations": violations,
        }));
    }
    println!("{}", table.render());
    println!(
        "extension target: the context-dependent policy should match the fixed\n\
         policy's recovery while introducing fewer mitigation-induced hazards\n\
         (its H2 correction is discounted by pending IOB instead of always\n\
         commanding the maximum rate)."
    );
    write_json(
        &opts.out_dir,
        "ablation_hms",
        &json!({
            "ts_minutes": { "h1": ts_of(Hazard::H1), "h2": ts_of(Hazard::H2) },
            "rows": results,
        }),
    );
}
