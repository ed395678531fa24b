//! One module per paper table/figure, plus shared evaluation helpers.

pub mod ablations;
pub mod accuracy;
pub mod fig3;
pub mod hms;
pub mod mitigation;
pub mod overhead;
pub mod patient_specific;
pub mod resilience;
pub mod zoo_report;

use aps_metrics::simulation::campaign_simulation_counts;
use aps_metrics::tolerance::{trace_tolerance_counts, DEFAULT_TOLERANCE};
use aps_metrics::ConfusionCounts;
use aps_types::SimTrace;

/// Aggregated sample-level (tolerance-window) counts over traces that
/// already carry alerts.
pub fn sample_counts(traces: &[SimTrace]) -> ConfusionCounts {
    traces
        .iter()
        .map(|t| trace_tolerance_counts(t, DEFAULT_TOLERANCE))
        .sum()
}

/// Aggregated simulation-level (two-region) counts.
pub fn simulation_counts(traces: &[SimTrace]) -> ConfusionCounts {
    campaign_simulation_counts(traces)
}

/// Deterministic k-fold split over trace indices.
pub fn fold_indices(n: usize, folds: usize) -> Vec<(Vec<usize>, Vec<usize>)> {
    aps_ml::data::kfold_indices(n, folds.max(2), 0x5eed)
}

/// Selects traces by index.
pub fn select(traces: &[SimTrace], idx: &[usize]) -> Vec<SimTrace> {
    idx.iter().map(|&i| traces[i].clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_partition() {
        let folds = fold_indices(37, 4);
        assert_eq!(folds.len(), 4);
        let total: usize = folds.iter().map(|(_, test)| test.len()).sum();
        assert_eq!(total, 37);
    }
}
