//! Equivalence of the streaming O(n) risk engine with the seed's
//! O(n·window) labeler.
//!
//! Every pin compares against the retained O(n·window) reference
//! implementation, [`label_series_reference`]:
//!
//! * **proptests** that the online [`RiskTracker`] API and the
//!   production labeler [`label_trace`] produce byte-identical labels
//!   to it on arbitrary BG series and window sizes;
//! * a **corpus test** that [`label_trace`] agrees with it
//!   label-for-label on every trace of the quick fault campaign, for a
//!   range of window lengths.
//!
//! A third pin covers resumed labelling: [`RiskTracker::label_tail`]
//! over a trace split at any index — the prefix first, then the rest
//! by a copy of the tracker, as a forked campaign job labels — equals
//! the reference over the whole series.

use aps_repro::prelude::*;
use aps_repro::risk::{label_series_reference, label_trace, LabelConfig, RiskTracker};
use aps_repro::types::TraceMeta;
use proptest::prelude::*;

/// Drives the online tracker one sample at a time and reconstructs the
/// retro-marked label vector the way a live consumer would.
fn labels_via_streaming(series: &[f64], config: &LabelConfig) -> Vec<Option<Hazard>> {
    let mut tracker = RiskTracker::new(config.clone());
    let mut labels: Vec<Option<Hazard>> = vec![None; series.len()];
    for (t, &bg) in series.iter().enumerate() {
        let sample = tracker.push(bg);
        assert_eq!(sample.index, t);
        match sample.hazard {
            Some(Hazard::H1) => {
                for l in labels[sample.window_start..=t].iter_mut() {
                    *l = Some(Hazard::H1);
                }
            }
            Some(Hazard::H2) => {
                for l in labels[sample.window_start..=t].iter_mut() {
                    if *l != Some(Hazard::H1) {
                        *l = Some(Hazard::H2);
                    }
                }
            }
            None => {}
        }
    }
    labels
}

/// Records whose ground-truth BG is `series`, unlabelled.
fn records(series: &[f64]) -> Vec<StepRecord> {
    series
        .iter()
        .enumerate()
        .map(|(i, &bg)| {
            let mut rec = StepRecord::blank(Step(i as u32));
            rec.bg_true = MgDl(bg);
            rec.bg = MgDl(bg);
            rec
        })
        .collect()
}

fn hazards(records: &[StepRecord]) -> Vec<Option<Hazard>> {
    records.iter().map(|r| r.hazard).collect()
}

/// Labels `series` through [`label_trace`], the production labeler.
fn labels_via_trace(series: &[f64], config: &LabelConfig) -> Vec<Option<Hazard>> {
    let mut trace = SimTrace::new(TraceMeta::default());
    trace.records = records(series);
    label_trace(&mut trace, config);
    hazards(&trace.records)
}

/// Labels `series` through `label_tail` split at `split`: a tracker
/// labels the first `split` records, then a copy of it labels a copy of
/// the records from there on — the way a lane that splits off resumes
/// its parent lane's labelling. Returns the prefix's labels as of the split and the final
/// labels.
fn labels_split_at(
    series: &[f64],
    split: usize,
    config: &LabelConfig,
) -> (Vec<Option<Hazard>>, Vec<Option<Hazard>>) {
    let mut trunk = records(series);
    let mut tracker = RiskTracker::new(config.clone());
    tracker.label_tail(&mut trunk[..split]);
    assert_eq!(tracker.len(), split);
    let prefix = hazards(&trunk[..split]);
    let mut fork = trunk.clone();
    tracker.clone().label_tail(&mut fork);
    (prefix, hazards(&fork))
}

/// Piecewise-linear BG series clamped to the physiological range
/// `[10, 600]`: segments of `(start, length, slope)`, shallow slopes
/// flattened to plateaus. Values that start or run outside the range
/// give plateaus at the clamps.
fn piecewise_series(segments: &[(f64, usize, f64)]) -> Vec<f64> {
    let mut series = Vec::new();
    for &(start, len, slope) in segments {
        let slope = if slope.abs() < 4.0 { 0.0 } else { slope };
        series.extend((0..len).map(|i| (start + slope * i as f64).clamp(10.0, 600.0)));
    }
    series
}

proptest! {
    /// `label_tail` split at every index == the reference over the
    /// whole series, on plateaus, ramps and clamped values.
    #[test]
    fn label_tail_split_anywhere_matches_batch_labeler(
        segments in prop::collection::vec((-100.0f64..700.0, 1usize..30, -25.0f64..25.0), 1..8),
        window in 1usize..30,
    ) {
        let series = piecewise_series(&segments);
        let config = LabelConfig { window, ..LabelConfig::default() };
        let expected = label_series_reference(&series, &config);
        for split in 0..=series.len() {
            let (_, labels) = labels_split_at(&series, split, &config);
            prop_assert_eq!(&labels, &expected, "split at {}", split);
        }
    }

    /// Streaming tracker == the batch reference, byte for byte, on
    /// arbitrary series and windows.
    #[test]
    fn streaming_tracker_matches_batch_labeler(
        series in prop::collection::vec(20.0f64..600.0, 0..250),
        window in 1usize..40,
    ) {
        let config = LabelConfig { window, ..LabelConfig::default() };
        prop_assert_eq!(
            labels_via_streaming(&series, &config),
            label_series_reference(&series, &config)
        );
    }

    /// The O(n) production labeler ([`label_trace`]) == the seed
    /// O(n·window) reference on arbitrary series and windows.
    #[test]
    fn linear_labeler_matches_reference(
        series in prop::collection::vec(20.0f64..600.0, 0..250),
        window in 1usize..40,
    ) {
        let config = LabelConfig { window, ..LabelConfig::default() };
        prop_assert_eq!(
            labels_via_trace(&series, &config),
            label_series_reference(&series, &config)
        );
    }

    /// Adversarial shape for a rolling sum: long plateaus (where the
    /// indices must *not* look rising) joined by ramps.
    #[test]
    fn plateaus_and_ramps_match_reference(
        low in 30.0f64..90.0,
        high in 150.0f64..500.0,
        hold in 5usize..40,
        window in 1usize..25,
    ) {
        let mut series = Vec::new();
        for _ in 0..hold {
            series.push(high);
        }
        let ramp = 20;
        for i in 0..=ramp {
            series.push(high + (low - high) * i as f64 / ramp as f64);
        }
        for _ in 0..hold {
            series.push(low);
        }
        let config = LabelConfig { window, ..LabelConfig::default() };
        prop_assert_eq!(
            labels_via_trace(&series, &config),
            label_series_reference(&series, &config)
        );
        prop_assert_eq!(
            labels_via_streaming(&series, &config),
            label_series_reference(&series, &config)
        );
    }
}

/// Label-for-label agreement on real closed-loop traces: every run of
/// the quick fault campaign (both platforms, extended fault alphabet
/// included), across the window lengths the experiments use.
#[test]
fn quick_campaign_corpus_labels_are_bit_identical() {
    for platform in Platform::ALL {
        let spec = CampaignSpec {
            patient_indices: vec![0],
            extended_faults: true,
            ..CampaignSpec::quick(platform)
        };
        let traces = run_campaign(&spec, None);
        assert!(!traces.is_empty());
        let mut labeled = 0usize;
        for trace in &traces {
            let series = trace.bg_true_series();
            for window in [4usize, 12, 24] {
                let config = LabelConfig {
                    window,
                    ..LabelConfig::default()
                };
                let fast = labels_via_trace(&series, &config);
                let reference = label_series_reference(&series, &config);
                assert_eq!(
                    fast,
                    reference,
                    "{}: labels diverged (window {window}, fault {})",
                    platform.name(),
                    trace.meta.fault_name
                );
                labeled += fast.iter().flatten().count();
            }
        }
        assert!(
            labeled > 0,
            "{}: corpus contains no hazardous window — equivalence vacuous",
            platform.name()
        );
    }
}

/// H1 and H2 windows whose marks reach back across the split: the
/// prefix alone is labelled differently from its final labels, and the
/// resumed tail puts the missing marks there. The series runs safe,
/// rises into hyperglycemia, comes back, then falls into hypoglycemia.
#[test]
fn label_tail_marks_reach_back_across_the_split() {
    let mut series = vec![115.0; 20];
    series.extend((0..40).map(|i| 115.0 + 12.0 * i as f64));
    series.extend((0..30).map(|i| 583.0 - 16.0 * i as f64));
    series.extend((0..30).map(|i| (110.0 - 4.0 * i as f64).max(10.0)));
    for window in [4usize, 12, 24] {
        let config = LabelConfig {
            window,
            ..LabelConfig::default()
        };
        let expected = label_series_reference(&series, &config);
        assert!(expected.contains(&Some(Hazard::H1)), "window {window}");
        assert!(expected.contains(&Some(Hazard::H2)), "window {window}");
        let mut reached_back = [false; 2];
        for split in 0..=series.len() {
            let (prefix, labels) = labels_split_at(&series, split, &config);
            assert_eq!(labels, expected, "window {window}, split at {split}");
            if prefix != expected[..split] {
                // Marks only ever get added after the split.
                let later = prefix.iter().zip(&expected).find(|(p, e)| p != e);
                let (before, after) = later.unwrap();
                assert!(before.is_none() || *after == Some(Hazard::H1));
                reached_back[usize::from(*after == Some(Hazard::H1))] = true;
            }
        }
        assert_eq!(reached_back, [true, true], "window {window}");
    }
}

/// `label_trace` relabels from scratch: labels already on a trace are
/// cleared where the series is safe and corrected where it is not.
#[test]
fn label_trace_clears_stale_labels() {
    let series: Vec<f64> = (0..60)
        .map(|i| 110.0 + 10.0 * (i as f64 * 0.2).sin())
        .collect();
    let mut trace = SimTrace::new(TraceMeta::default());
    for mut rec in records(&series) {
        rec.hazard = Some(Hazard::H2);
        trace.push(rec);
    }
    trace.refresh_meta();
    assert!(trace.is_hazardous());
    label_trace(&mut trace, &LabelConfig::default());
    assert!(trace.records.iter().all(|r| r.hazard.is_none()));
    assert!(!trace.is_hazardous());
    assert_eq!(trace.meta.hazard_type, None);

    let falling: Vec<f64> = (0..60)
        .map(|i| (120.0 - 2.0 * i as f64).max(40.0))
        .collect();
    let expected = label_series_reference(&falling, &LabelConfig::default());
    let mut trace = SimTrace::new(TraceMeta::default());
    for mut rec in records(&falling) {
        rec.hazard = Some(Hazard::H2);
        trace.push(rec);
    }
    label_trace(&mut trace, &LabelConfig::default());
    assert_eq!(hazards(&trace.records), expected);
    assert_eq!(trace.meta.hazard_type, Some(Hazard::H1));
}
