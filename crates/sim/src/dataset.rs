//! Supervised dataset extraction from simulation traces.
//!
//! Implements the paper's ML-monitor task framing (Eq. 7/8): the input
//! is the current system state and issued action, the label is whether
//! *any* hazard occurs at a future time of the same trace (binary), or
//! which hazard type (multi-class). Features are the shared
//! [`MlFeatures`] encoding, reconstructed with the same monitor-side
//! [`ContextBuilder`] the run-time monitors use.

use aps_core::context::ContextBuilder;
use aps_core::monitors::MlFeatures;
use aps_ml::data::Dataset;
use aps_ml::lstm::SeqDataset;
use aps_types::{Hazard, SimTrace, UnitsPerHour};
use serde::{Deserialize, Serialize};

/// Labeling mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LabelMode {
    /// 0 = safe, 1 = a hazard occurs later in this trace.
    Binary,
    /// 0 = safe, 1 = H1 occurs later, 2 = H2 occurs later.
    MultiClass,
}

impl LabelMode {
    fn label(&self, future_hazard: Option<Hazard>) -> usize {
        match (self, future_hazard) {
            (_, None) => 0,
            (LabelMode::Binary, Some(_)) => 1,
            (LabelMode::MultiClass, Some(Hazard::H1)) => 1,
            (LabelMode::MultiClass, Some(Hazard::H2)) => 2,
        }
    }
}

/// Per-step feature extraction shared by all dataset builders.
fn trace_features(trace: &SimTrace, basal: UnitsPerHour) -> Vec<Vec<f64>> {
    let mut builder = ContextBuilder::new(basal);
    let mut rows = Vec::with_capacity(trace.len());
    for rec in trace.iter() {
        let ctx = builder.observe_bg(rec.bg);
        rows.push(MlFeatures::vector(&ctx, rec.commanded, rec.action));
        builder.observe_delivery(rec.delivered);
    }
    rows
}

/// Future-hazard label per step: the first hazard at `t' >= t`, if any.
fn future_hazards(trace: &SimTrace) -> Vec<Option<Hazard>> {
    let n = trace.len();
    let mut out = vec![None; n];
    let mut next: Option<Hazard> = None;
    for t in (0..n).rev() {
        if let Some(h) = trace.records[t].hazard {
            next = Some(h);
        }
        out[t] = next;
    }
    out
}

/// Builds a flat feature dataset (for the DT and MLP monitors).
pub fn build_dataset(traces: &[SimTrace], basal: UnitsPerHour, mode: LabelMode) -> Dataset {
    let mut x = Vec::new();
    let mut y = Vec::new();
    for trace in traces {
        let rows = trace_features(trace, basal);
        let labels = future_hazards(trace);
        for (row, label) in rows.into_iter().zip(labels) {
            x.push(row);
            y.push(mode.label(label));
        }
    }
    Dataset::new(x, y)
}

/// Builds a sliding-window sequence dataset (for the LSTM monitor).
/// Each sample is `window` consecutive feature vectors labeled by the
/// future-hazard status at the window's last step.
pub fn build_seq_dataset(
    traces: &[SimTrace],
    basal: UnitsPerHour,
    mode: LabelMode,
    window: usize,
) -> SeqDataset {
    assert!(window >= 1, "window must be at least 1");
    let mut x = Vec::new();
    let mut y = Vec::new();
    for trace in traces {
        let rows = trace_features(trace, basal);
        let labels = future_hazards(trace);
        if rows.len() < window {
            continue;
        }
        for end in (window - 1)..rows.len() {
            x.push(rows[end + 1 - window..=end].to_vec());
            y.push(mode.label(labels[end]));
        }
    }
    SeqDataset::new(x, y)
}

/// Deterministically subsamples the majority class so that the
/// negative:positive ratio is at most `max_ratio` (ML training on FI
/// campaigns is dominated by safe samples otherwise).
pub fn balance(dataset: &Dataset, max_ratio: usize) -> Dataset {
    assert!(max_ratio >= 1, "ratio must be at least 1");
    let positives: Vec<usize> = (0..dataset.len()).filter(|&i| dataset.y[i] != 0).collect();
    let negatives: Vec<usize> = (0..dataset.len()).filter(|&i| dataset.y[i] == 0).collect();
    let keep_neg = (positives.len() * max_ratio).max(1).min(negatives.len());
    // Deterministic stride subsampling keeps temporal spread.
    let stride = (negatives.len() / keep_neg.max(1)).max(1);
    let mut idx: Vec<usize> = negatives
        .into_iter()
        .step_by(stride)
        .take(keep_neg)
        .collect();
    idx.extend(positives);
    idx.sort_unstable();
    dataset.subset(&idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aps_types::{ControlAction, MgDl, Step, StepRecord, TraceMeta, Units};

    fn synthetic_trace(hazard_at: Option<(usize, Hazard)>) -> SimTrace {
        let mut t = SimTrace::new(TraceMeta::default());
        for i in 0..30u32 {
            let mut r = StepRecord::blank(Step(i));
            r.bg = MgDl(120.0 + i as f64);
            r.bg_true = r.bg;
            r.commanded = UnitsPerHour(1.0);
            r.delivered = r.commanded;
            r.action = ControlAction::KeepInsulin;
            r.iob = Units(0.1);
            if let Some((at, h)) = hazard_at {
                if i as usize >= at {
                    r.hazard = Some(h);
                }
            }
            t.push(r);
        }
        t.refresh_meta();
        t
    }

    #[test]
    fn binary_labels_are_future_looking() {
        let trace = synthetic_trace(Some((20, Hazard::H1)));
        let ds = build_dataset(&[trace], UnitsPerHour(1.0), LabelMode::Binary);
        assert_eq!(ds.len(), 30);
        // Every step up to and including the hazard is labeled positive
        // (a hazard occurs at a future time).
        assert!(ds.y[..=20].iter().all(|&y| y == 1));
        assert_eq!(ds.dim(), MlFeatures::DIM);
    }

    #[test]
    fn multiclass_distinguishes_hazards() {
        let h1 = synthetic_trace(Some((5, Hazard::H1)));
        let h2 = synthetic_trace(Some((5, Hazard::H2)));
        let safe = synthetic_trace(None);
        let ds = build_dataset(&[h1, h2, safe], UnitsPerHour(1.0), LabelMode::MultiClass);
        assert!(ds.y.contains(&1));
        assert!(ds.y.contains(&2));
        assert!(ds.y.contains(&0));
        assert_eq!(ds.n_classes(), 3);
    }

    #[test]
    fn seq_dataset_window_shapes() {
        let trace = synthetic_trace(Some((20, Hazard::H2)));
        let ds = build_seq_dataset(&[trace], UnitsPerHour(1.0), LabelMode::Binary, 6);
        assert_eq!(ds.len(), 25); // 30 - 6 + 1
        assert_eq!(ds.x[0].len(), 6);
        assert_eq!(ds.x[0][0].len(), MlFeatures::DIM);
    }

    #[test]
    fn short_traces_are_skipped_by_seq_builder() {
        let mut t = SimTrace::new(TraceMeta::default());
        for i in 0..3u32 {
            t.push(StepRecord::blank(Step(i)));
        }
        let ds = build_seq_dataset(&[t], UnitsPerHour(1.0), LabelMode::Binary, 6);
        assert!(ds.is_empty());
    }

    #[test]
    fn balance_caps_negative_ratio() {
        let safe = synthetic_trace(None);
        let hazardous = synthetic_trace(Some((28, Hazard::H1)));
        let ds = build_dataset(
            &[safe.clone(), safe.clone(), safe, hazardous],
            UnitsPerHour(1.0),
            LabelMode::Binary,
        );
        let balanced = balance(&ds, 2);
        let pos = balanced.y.iter().filter(|&&y| y != 0).count();
        let neg = balanced.y.iter().filter(|&&y| y == 0).count();
        // Every step of the hazardous trace is future-positive.
        assert_eq!(pos, 30);
        assert!(neg <= pos * 2 + 1, "neg {neg} vs pos {pos}");
    }
}
