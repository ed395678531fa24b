//! Table VIII — patient-specific vs population-based thresholds.

use crate::experiments::sample_counts;
use crate::opts::ExpOpts;
use crate::report::{rate, write_json, Table};
use crate::zoo::{MonitorKind, Zoo};
use aps_metrics::timing::early_detection_rate;
use aps_sim::campaign::run_campaign;
use aps_sim::platform::Platform;
use aps_sim::replay::replay_campaign;
use serde_json::json;

/// Table VIII: for three named patients, compare a monitor with
/// thresholds learned from the patient's own traces against one with
/// population thresholds learned from the *other* patients (the
/// paper's 70/30 split).
pub fn table8(opts: &ExpOpts) {
    println!("Table VIII — patient-specific vs population-based thresholds\n");
    let platform = Platform::GlucosymOref0;
    // The paper reports patients A, H, J.
    let featured: Vec<usize> = [0usize, 7, 9]
        .into_iter()
        .filter(|i| opts.patients.contains(i))
        .collect();
    let featured = if featured.is_empty() {
        opts.patients.iter().copied().take(3).collect()
    } else {
        featured
    };

    // One campaign over all requested patients.
    let traces = run_campaign(&opts.campaign(platform), None);

    let mut table = Table::new(&["patient", "thresholds", "FPR", "FNR", "ACC", "F1", "EDR"]);
    let mut results = Vec::new();
    for &pi in &featured {
        let patient_name = platform.patients()[pi].name().to_owned();
        let own: Vec<_> = traces
            .iter()
            .filter(|t| t.meta.patient == patient_name)
            .cloned()
            .collect();
        let others: Vec<_> = traces
            .iter()
            .filter(|t| t.meta.patient != patient_name)
            .cloned()
            .collect();

        // Patient-specific: learned on the patient's own traces
        // (70/30 split within the patient).
        let split = (own.len() * 7) / 10;
        let (own_train, own_test) = own.split_at(split.max(1).min(own.len() - 1));
        let zoo_specific = Zoo::train(platform, opts, own_train, &[MonitorKind::Cawt]);
        // Population: learned on every *other* patient, tested on the
        // same held-out traces.
        let zoo_population = Zoo::train(platform, opts, &others, &[MonitorKind::CawtPopulation]);

        for (label, zoo, kind) in [
            ("patient-specific", &zoo_specific, MonitorKind::Cawt),
            ("population", &zoo_population, MonitorKind::CawtPopulation),
        ] {
            let replayed = replay_campaign(own_test, |t| zoo.make(kind, &t.meta.patient));
            let c = sample_counts(&replayed);
            let edr = early_detection_rate(replayed.iter());
            table.row(&[
                patient_name.clone(),
                label.to_owned(),
                rate(c.fpr()),
                rate(c.fnr()),
                format!("{:.2}", c.accuracy()),
                format!("{:.2}", c.f1()),
                format!("{:.0}%", edr * 100.0),
            ]);
            results.push(json!({
                "patient": patient_name, "thresholds": label,
                "fpr": c.fpr(), "fnr": c.fnr(), "acc": c.accuracy(),
                "f1": c.f1(), "edr": edr,
            }));
        }
    }
    println!("{}", table.render());
    println!(
        "reproduction target: patient-specific thresholds keep FNR lower and reach a\n\
         higher F1/EDR than population thresholds (paper: up to +24.4% F1, +5.3% EDR)."
    );
    write_json(&opts.out_dir, "table8", &json!({ "rows": results }));
}
