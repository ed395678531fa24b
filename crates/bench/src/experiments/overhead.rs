//! §V-E6 — per-cycle time overhead of each safety monitor, and the
//! per-call cost of the context-dependent mitigator on the same
//! control cycle.
//!
//! The paper reports average per-cycle overheads of 252.7 µs (CAWT),
//! 664.1 µs (Guideline), 123.9 ms (MPC), 1.3 ms (DT), 30.7 ms (MLP) and
//! 32.6 ms (LSTM) on its Python/TensorFlow stack. The *ordering* — rule
//! checks ≪ tree ≪ model-predictive rollout ≈ neural inference — is the
//! reproduction target; absolute numbers are native-Rust fast. The
//! context-dependent mitigator sits on the same 5-minute cycle, so its
//! target is the same: negligible against the cycle budget.
//!
//! Every row is the minimum over [`SAMPLES`] timed batches. The report
//! is printed only: timings are not deterministic, so they stay out of
//! `results/`.

use crate::report::Table;
use aps_core::context::ContextVector;
use aps_core::hms::{ContextMitigator, ContextMitigatorConfig};
use aps_core::monitors::{
    CawMonitor, GuidelineMonitor, HazardMonitor, LstmMonitor, MlMonitor, MonitorInput, MpcMonitor,
    StlCawMonitor,
};
use aps_core::scs::Scs;
use aps_ml::data::{Dataset, StandardScaler};
use aps_ml::lstm::{Lstm, LstmConfig, SeqDataset};
use aps_ml::mlp::{Mlp, MlpConfig};
use aps_ml::tree::{DecisionTree, TreeConfig};
use aps_types::{Hazard, MgDl, Step, UnitsPerHour};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Timed batches per row; each row reports the fastest.
pub const SAMPLES: usize = 20;

/// Control cycles per monitor call of [`drive`].
const CYCLES: usize = 10;

/// One measured row of the report.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadRow {
    /// What was timed.
    pub name: &'static str,
    /// Best time per control cycle (monitors) or per call (layers), ns.
    pub ns: f64,
    /// The paper's §V-E6 per-cycle figure, where it reports one.
    pub paper: Option<&'static str>,
}

/// Best of `samples` timed batches, in nanoseconds per call of `f`.
/// One untimed call warms up and sizes the batch to about a
/// millisecond, so the clock's own cost stays negligible.
fn min_ns_per_call(samples: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    let once = start.elapsed().as_nanos().max(1);
    let batch = (1_000_000 / once).clamp(1, 10_000) as u32;
    (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                f();
            }
            start.elapsed().as_nanos() as f64 / f64::from(batch)
        })
        .fold(f64::INFINITY, f64::min)
}

fn toy_flat_dataset() -> Dataset {
    // Shape-compatible with MlFeatures::DIM = 6.
    let x: Vec<Vec<f64>> = (0..200)
        .map(|i| {
            let v = f64::from(i);
            vec![
                100.0 + v,
                v % 7.0 - 3.0,
                v % 3.0,
                0.001 * v,
                1.0 + v % 2.0,
                1.0 + v % 4.0,
            ]
        })
        .collect();
    let y: Vec<usize> = (0..200).map(|i| usize::from(i % 5 == 0)).collect();
    Dataset::new(x, y)
}

fn toy_seq_dataset(window: usize) -> SeqDataset {
    let flat = toy_flat_dataset();
    let x: Vec<Vec<Vec<f64>>> = flat.x.windows(window).map(|w| w.to_vec()).collect();
    let y: Vec<usize> = flat.y[window - 1..].to_vec();
    SeqDataset::new(x, y)
}

/// A small deterministic scenario exercising the check path.
fn drive(monitor: &mut dyn HazardMonitor, cycles: usize) {
    for i in 0..cycles {
        let bg = 110.0 + 40.0 * ((i as f64) * 0.21).sin();
        let commanded = 1.0 + ((i % 5) as f64) * 0.4;
        let verdict = monitor.check(&MonitorInput {
            step: Step(i as u32),
            bg: MgDl(bg),
            commanded: UnitsPerHour(commanded),
            previous_rate: UnitsPerHour(1.0),
        });
        black_box(verdict);
        monitor.observe_delivery(UnitsPerHour(commanded));
    }
}

/// The seven monitors of §V-E6, in the paper's order, each timed per
/// control cycle.
pub fn monitor_rows(samples: usize) -> Vec<OverheadRow> {
    let basal = UnitsPerHour(1.0);
    let target = MgDl(110.0);
    let scaler = StandardScaler::fit(&toy_flat_dataset());
    let tree = DecisionTree::fit(&toy_flat_dataset(), &TreeConfig::default());
    // Paper-size architectures for a fair overhead comparison.
    let mlp = Mlp::fit(
        &toy_flat_dataset(),
        &MlpConfig {
            hidden: vec![256, 128],
            max_epochs: 1,
            ..MlpConfig::default()
        },
    );
    let lstm = Lstm::fit(
        &toy_seq_dataset(6),
        &LstmConfig {
            hidden: vec![128, 64],
            max_epochs: 1,
            ..LstmConfig::default()
        },
    );
    let scs = || Scs::with_default_thresholds(target);
    let time = |name, paper, monitor: &mut dyn HazardMonitor| OverheadRow {
        name,
        ns: min_ns_per_call(samples, || drive(monitor, CYCLES)) / CYCLES as f64,
        paper,
    };
    vec![
        time(
            "CAWT",
            Some("252.7 µs"),
            &mut CawMonitor::new("cawt", scs(), basal),
        ),
        // The same SCS executed as online STL formulas instead of
        // native checks: the cost of interpreting the specification.
        time(
            "STL-CAW",
            None,
            &mut StlCawMonitor::new("stl", scs(), basal),
        ),
        time(
            "Guideline",
            Some("664.1 µs"),
            &mut GuidelineMonitor::default(),
        ),
        time("MPC", Some("123.9 ms"), &mut MpcMonitor::population()),
        time(
            "DT",
            Some("1.3 ms"),
            &mut MlMonitor::binary("dt", Arc::new(tree), scaler.clone(), basal, target),
        ),
        time(
            "MLP 256-128",
            Some("30.7 ms"),
            &mut MlMonitor::binary("mlp", Arc::new(mlp), scaler.clone(), basal, target),
        ),
        time(
            "LSTM 128-64",
            Some("32.6 ms"),
            &mut LstmMonitor::binary("lstm", Arc::new(lstm), scaler, basal, target, 6),
        ),
    ]
}

/// The extension layer on the same cycle: the context-dependent
/// mitigator, per call.
pub fn layer_rows(samples: usize) -> Vec<OverheadRow> {
    let mitigator = ContextMitigator::new(ContextMitigatorConfig::for_run(
        MgDl(110.0),
        UnitsPerHour(1.0),
        UnitsPerHour(6.0),
    ));
    let ctx = ContextVector {
        bg: 250.0,
        dbg: 3.0,
        iob: 1.2,
        diob: 0.001,
    };
    let mitigate_ns = min_ns_per_call(samples, || {
        black_box(mitigator.mitigate(
            black_box(Some(Hazard::H2)),
            black_box(&ctx),
            black_box(UnitsPerHour(0.5)),
        ));
    });

    vec![OverheadRow {
        name: "ContextMitigator::mitigate",
        ns: mitigate_ns,
        paper: None,
    }]
}

/// A duration in the unit that keeps it readable.
fn format_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

fn render(rows: &[OverheadRow], header: &[&str]) -> String {
    let mut table = Table::new(header);
    for r in rows {
        table.row(&[
            r.name.to_owned(),
            format_ns(r.ns),
            r.paper.unwrap_or("—").to_owned(),
        ]);
    }
    table.render()
}

/// The `repro overhead` entry point: times every row at [`SAMPLES`]
/// and prints both tables.
pub fn overhead() {
    println!("§V-E6 — per-cycle monitor overhead (best of {SAMPLES} batches)\n");
    println!(
        "{}",
        render(
            &monitor_rows(SAMPLES),
            &["monitor", "per cycle", "paper (Python/TF)"]
        )
    );
    println!(
        "the paper's ordering: rule checks << tree << MPC rollout ~ neural \
         inference; absolute times here are native Rust, not Python/TF.\n"
    );
    println!("Extension layer on the same cycle (best of {SAMPLES} batches)\n");
    println!(
        "{}",
        render(&layer_rows(SAMPLES), &["layer", "per call", "paper"])
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_builds_all_eight_rows() {
        let rows: Vec<OverheadRow> = monitor_rows(1).into_iter().chain(layer_rows(1)).collect();
        let names: Vec<&str> = rows.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            [
                "CAWT",
                "STL-CAW",
                "Guideline",
                "MPC",
                "DT",
                "MLP 256-128",
                "LSTM 128-64",
                "ContextMitigator::mitigate",
            ]
        );
        assert_eq!(rows.iter().filter(|r| r.paper.is_some()).count(), 6);
    }
}
