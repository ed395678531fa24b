//! Kovatchev blood-glucose risk index and hazard labeling.
//!
//! The paper labels simulation samples as hazardous using the BG Risk
//! Index (Eq. 5):
//!
//! ```text
//! risk(BG) = 10 · (1.509 · (ln(BG)^1.084 − 5.381))²
//! ```
//!
//! The symmetrizing transform is zero at BG ≈ 112.5 mg/dL; its left
//! branch (BG below the zero point) accumulates into the Low BG Index
//! (LBGI) and the right branch into the High BG Index (HBGI) over a
//! window of readings. A window is hazardous when LBGI crosses 5 (H1,
//! hypoglycemia risk) or HBGI crosses 9 (H2) **and keeps increasing**.
//!
//! Labeling is built on a streaming [`RiskTracker`] that maintains the
//! trailing-window indices in O(1) per sample, so the same engine
//! serves batch post-hoc labeling ([`label_trace`], O(n)) and
//! run-time hazard awareness inside the closed loop (see
//! `aps_core::monitors::RiskIndexMonitor`).
//!
//! # Example
//!
//! ```
//! use aps_risk::{risk_bg, lbgi, hbgi};
//! assert!(risk_bg(112.5) < 0.01);          // zero point
//! assert!(lbgi(&[50.0; 12]) > 5.0);        // severe lows
//! assert!(hbgi(&[320.0; 12]) > 9.0);       // severe highs
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use aps_types::{Hazard, SimTrace, StepRecord};
use serde::{Deserialize, Serialize};

/// LBGI threshold above which hypoglycemia risk is "high" (Kovatchev).
pub const LBGI_HIGH_RISK: f64 = 5.0;
/// HBGI threshold above which hyperglycemia risk is "high".
pub const HBGI_HIGH_RISK: f64 = 9.0;
/// Default labeling window: one hour of 5-minute readings.
pub const DEFAULT_WINDOW: usize = 12;

/// The symmetrizing transform `f(BG) = 1.509·(ln(BG)^1.084 − 5.381)`,
/// negative below ≈112.5 mg/dL and positive above.
pub fn bg_transform(bg: f64) -> f64 {
    let bg = bg.max(1.0);
    1.509 * (bg.ln().powf(1.084) - 5.381)
}

/// The BG risk function of Eq. 5 (always non-negative, 0 at ≈112.5).
pub fn risk_bg(bg: f64) -> f64 {
    let f = bg_transform(bg);
    10.0 * f * f
}

/// `(risk_low(bg), risk_high(bg))` from one evaluation of the
/// transform: the risk goes to the branch the transform's sign picks.
fn risk_pair(bg: f64) -> (f64, f64) {
    let f = bg_transform(bg);
    let risk = 10.0 * f * f;
    let low = if f < 0.0 { risk } else { 0.0 };
    let high = if f > 0.0 { risk } else { 0.0 };
    (low, high)
}

/// Risk attributed to lows: `rl(BG) = risk(BG)` when the transform is
/// negative, else 0.
pub fn risk_low(bg: f64) -> f64 {
    risk_pair(bg).0
}

/// Risk attributed to highs: `rh(BG) = risk(BG)` when the transform is
/// positive, else 0.
pub fn risk_high(bg: f64) -> f64 {
    risk_pair(bg).1
}

/// Low Blood Glucose Index: mean low-side risk over a window.
pub fn lbgi(window: &[f64]) -> f64 {
    if window.is_empty() {
        return 0.0;
    }
    window.iter().map(|&bg| risk_low(bg)).sum::<f64>() / window.len() as f64
}

/// High Blood Glucose Index: mean high-side risk over a window.
pub fn hbgi(window: &[f64]) -> f64 {
    if window.is_empty() {
        return 0.0;
    }
    window.iter().map(|&bg| risk_high(bg)).sum::<f64>() / window.len() as f64
}

/// Mean total risk index of a whole BG series (the `R̄I` of the
/// average-risk metric, Eq. 9).
pub fn mean_risk_index(series: &[f64]) -> f64 {
    if series.is_empty() {
        return 0.0;
    }
    series.iter().map(|&bg| risk_bg(bg)).sum::<f64>() / series.len() as f64
}

/// Labeler configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabelConfig {
    /// Trailing window length in samples.
    pub window: usize,
    /// LBGI threshold for H1.
    pub lbgi_threshold: f64,
    /// HBGI threshold for H2.
    pub hbgi_threshold: f64,
}

impl Default for LabelConfig {
    fn default() -> LabelConfig {
        LabelConfig {
            window: DEFAULT_WINDOW,
            lbgi_threshold: LBGI_HIGH_RISK,
            hbgi_threshold: HBGI_HIGH_RISK,
        }
    }
}

/// Minimum increase of a risk index between consecutive windows for
/// the "kept increasing" condition to hold (absorbs floating-point
/// noise in the windowed means).
const RISING_EPS: f64 = 1e-12;

/// One streaming update produced by [`RiskTracker::push`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RiskSample {
    /// Index of the sample that produced this update (0-based).
    pub index: usize,
    /// First sample index inside the current trailing window.
    pub window_start: usize,
    /// Trailing-window Low BG Index.
    pub lbgi: f64,
    /// Trailing-window High BG Index.
    pub hbgi: f64,
    /// `true` while the LBGI keeps increasing window-over-window.
    pub rising_low: bool,
    /// `true` while the HBGI keeps increasing window-over-window.
    pub rising_high: bool,
    /// The hazard the current window is in **right now** (`H1` when
    /// the LBGI crossed its threshold while rising, else `H2` for the
    /// HBGI), or `None` when the window is safe.
    pub hazard: Option<Hazard>,
}

impl RiskSample {
    /// `true` when the trailing window is hazardous.
    pub fn is_hazardous(&self) -> bool {
        self.hazard.is_some()
    }
}

/// Incremental BG risk engine: maintains the trailing-window LBGI /
/// HBGI and the "kept increasing" state in **O(1) per sample**, so
/// hazard awareness is available *during* a run (run-time monitors,
/// the HMS layer) and not only from post-hoc labeling.
///
/// Feeding a whole series through [`push`](RiskTracker::push) produces
/// exactly the per-window decisions of [`label_series_reference`], in
/// O(n) instead of O(n·window).
/// [`label_tail`](RiskTracker::label_tail) labels trace records that
/// way and can resume: a copy of a tracker that labelled a
/// trace's first records labels only the records after them.
///
/// # Numerical faithfulness
///
/// The rolling sums are maintained incrementally, with two guards:
///
/// * an incoming sample whose risk equals the outgoing one leaves the
///   sums untouched (a plateau never jitters the "rising" test);
/// * every time the ring buffer wraps, the sums are recomputed from
///   the ring in window order (amortized O(1)), so rounding drift
///   cannot accumulate beyond one window length.
///
/// Growing windows, plateaus, and every wrap point are therefore
/// bit-exact against a fresh left-to-right window sum; between wraps
/// the sums may differ from a fresh sum by a few ulps, which both
/// decision comparisons absorb — the "rising" test carries an explicit
/// `1e-12` epsilon, and a threshold crossing flips only if a window
/// mean lands within that ulp-scale band of the 5.0/9.0 constants.
/// Label agreement with the reference is pinned by proptests and the
/// quick-campaign corpus test in `tests/risk_equivalence.rs`.
#[derive(Debug, Clone, PartialEq)]
pub struct RiskTracker {
    config: LabelConfig,
    /// `(risk_low, risk_high)` of the last `window` samples; circular,
    /// allocated at full length up front (slots past `count` unused).
    ring: Vec<(f64, f64)>,
    /// Next write position in `ring`.
    head: usize,
    /// Samples pushed so far.
    count: usize,
    sum_low: f64,
    sum_high: f64,
    prev_lbgi: f64,
    prev_hbgi: f64,
}

/// Samples whose risks [`RiskTracker::label_tail`] evaluates in one
/// batch ahead of the window updates.
const LABEL_CHUNK: usize = 64;

impl RiskTracker {
    /// Creates a tracker (windows of length 0 behave as length 1, like
    /// the batch labeler).
    pub fn new(config: LabelConfig) -> RiskTracker {
        let window = config.window.max(1);
        RiskTracker {
            config,
            ring: vec![(0.0, 0.0); window],
            head: 0,
            count: 0,
            sum_low: 0.0,
            sum_high: 0.0,
            prev_lbgi: 0.0,
            prev_hbgi: 0.0,
        }
    }

    /// The labeling configuration in use.
    pub fn config(&self) -> &LabelConfig {
        &self.config
    }

    /// Number of samples pushed since the last reset.
    pub fn len(&self) -> usize {
        self.count
    }

    /// `true` before the first sample.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Clears all state for a fresh series.
    pub fn reset(&mut self) {
        self.ring.fill((0.0, 0.0));
        self.head = 0;
        self.count = 0;
        self.sum_low = 0.0;
        self.sum_high = 0.0;
        self.prev_lbgi = 0.0;
        self.prev_hbgi = 0.0;
    }

    /// Consumes one BG reading and returns the updated window state.
    /// O(1) (amortized — the rolling sums are re-anchored once per
    /// ring wrap).
    pub fn push(&mut self, bg: f64) -> RiskSample {
        let (rl, rh) = risk_pair(bg);
        self.push_risks(rl, rh)
    }

    /// [`push`](RiskTracker::push) of a reading whose low- and
    /// high-side risks are `rl` and `rh`.
    fn push_risks(&mut self, rl: f64, rh: f64) -> RiskSample {
        let window = self.ring.len();
        if self.count < window {
            // Growing window: sums accumulate left-to-right, exactly
            // like a fresh sum over `series[0..=t]`.
            self.ring[self.head] = (rl, rh);
            self.sum_low += rl;
            self.sum_high += rh;
            self.head += 1;
            if self.head == window {
                self.head = 0;
            }
        } else {
            let (ol, oh) = self.ring[self.head];
            // A bit-equal replacement must leave the sums untouched:
            // `(s - r) + r` can round away from `s`, and a plateau must
            // never look like a rising index.
            if ol.to_bits() != rl.to_bits() {
                self.sum_low = self.sum_low - ol + rl;
            }
            if oh.to_bits() != rh.to_bits() {
                self.sum_high = self.sum_high - oh + rh;
            }
            self.ring[self.head] = (rl, rh);
            self.head += 1;
            if self.head == window {
                // Ring wrapped: `ring[0..]` is the window in series
                // order — re-anchor the sums to the exact
                // left-to-right value to cancel rounding drift.
                self.head = 0;
                self.sum_low = self.ring.iter().map(|p| p.0).sum();
                self.sum_high = self.ring.iter().map(|p| p.1).sum();
            }
        }

        let index = self.count;
        self.count += 1;
        let len = self.count.min(window) as f64;
        let l = self.sum_low / len;
        let h = self.sum_high / len;

        // The first sample seeds the "kept increasing" comparison: a
        // simulation *started* in a high-risk state is not hazardous
        // until its risk actually grows (the initial condition is the
        // scenario's premise, not a controller-caused hazard).
        let (rising_low, rising_high, hazard) = if index == 0 {
            (false, false, None)
        } else {
            let rising_l = l > self.prev_lbgi + RISING_EPS;
            let rising_h = h > self.prev_hbgi + RISING_EPS;
            let hazard = if l > self.config.lbgi_threshold && rising_l {
                Some(Hazard::H1)
            } else if h > self.config.hbgi_threshold && rising_h {
                Some(Hazard::H2)
            } else {
                None
            };
            (rising_l, rising_h, hazard)
        };
        self.prev_lbgi = l;
        self.prev_hbgi = h;

        RiskSample {
            index,
            window_start: index.saturating_sub(window - 1),
            lbgi: l,
            hbgi: h,
            rising_low,
            rising_high,
            hazard,
        }
    }

    /// Labels `records[self.len()..]` from their ground-truth BG, in
    /// place: when the trailing-window LBGI crosses its threshold while
    /// still increasing, the **whole window** of readings is marked
    /// `Some(H1)` (the paper "marked a window of BG readings as
    /// hazardous"); likewise HBGI and `Some(H2)`. H1 wins overlaps
    /// (hypoglycemia is the more acutely dangerous hazard). A window
    /// reaches back into records before `self.len()` when it starts
    /// there. The tail's old
    /// labels are overwritten; earlier records keep theirs and only
    /// gain marks.
    ///
    /// A tracker that labelled `records[..n]` and a copy of it (with a
    /// copy of those records) label the rest exactly as one pass over
    /// the whole trace would, so a run forked after `n` steps labels
    /// only its own steps.
    pub fn label_tail(&mut self, records: &mut [StepRecord]) {
        debug_assert!(
            self.count <= records.len(),
            "records this tracker never saw"
        );
        let mut risks = [(0.0, 0.0); LABEL_CHUNK];
        let mut from = self.count;
        while from < records.len() {
            let to = records.len().min(from + LABEL_CHUNK);
            // The transcendental risk transform first, for the whole
            // chunk: it depends on no window state.
            for (risk, rec) in risks.iter_mut().zip(&mut records[from..to]) {
                *risk = risk_pair(rec.bg_true.value());
                rec.hazard = None;
            }
            for &(rl, rh) in &risks[..to - from] {
                let sample = self.push_risks(rl, rh);
                let window = &mut records[sample.window_start..=sample.index];
                match sample.hazard {
                    Some(Hazard::H1) => {
                        for rec in window {
                            rec.hazard = Some(Hazard::H1);
                        }
                    }
                    Some(Hazard::H2) => {
                        for rec in window {
                            // Don't overwrite an H1 mark from an
                            // overlapping window.
                            if rec.hazard != Some(Hazard::H1) {
                                rec.hazard = Some(Hazard::H2);
                            }
                        }
                    }
                    None => {}
                }
            }
            from = to;
        }
    }
}

/// The original windowed labeler: recomputes the full LBGI/HBGI window
/// sums at every step (O(n·window)). Semantically identical to
/// [`RiskTracker::label_tail`]; retained as the reference
/// implementation that the equivalence tests pin the streaming engine
/// against.
pub fn label_series_reference(series: &[f64], config: &LabelConfig) -> Vec<Option<Hazard>> {
    let n = series.len();
    let mut labels: Vec<Option<Hazard>> = vec![None; n];
    if n == 0 {
        return labels;
    }
    let mut prev_lbgi = lbgi(&series[0..1]);
    let mut prev_hbgi = hbgi(&series[0..1]);
    for t in 1..n {
        let lo = t.saturating_sub(config.window.saturating_sub(1));
        let w = &series[lo..=t];
        let l = lbgi(w);
        let h = hbgi(w);
        let rising_l = l > prev_lbgi + RISING_EPS;
        let rising_h = h > prev_hbgi + RISING_EPS;
        if l > config.lbgi_threshold && rising_l {
            for label in labels[lo..=t].iter_mut() {
                *label = Some(Hazard::H1);
            }
        } else if h > config.hbgi_threshold && rising_h {
            for label in labels[lo..=t].iter_mut() {
                if *label != Some(Hazard::H1) {
                    *label = Some(Hazard::H2);
                }
            }
        }
        prev_lbgi = l;
        prev_hbgi = h;
    }
    labels
}

/// Labels a [`SimTrace`] in place from its ground-truth BG series and
/// refreshes the trace metadata.
pub fn label_trace(trace: &mut SimTrace, config: &LabelConfig) {
    // A fresh tracker labels every record, overwriting stale labels.
    RiskTracker::new(config.clone()).label_tail(&mut trace.records);
    trace.refresh_meta();
}

#[cfg(test)]
mod tests {
    use super::*;
    use aps_types::{MgDl, Step, TraceMeta};

    #[test]
    fn zero_point_near_112_5() {
        assert!(risk_bg(112.5) < 0.01);
        assert!(bg_transform(112.0) < 0.0);
        assert!(bg_transform(113.0) > 0.0);
    }

    #[test]
    fn risk_is_asymmetric_like_kovatchev() {
        // 50 mg/dL and 400 mg/dL should both be severe; lows steeper.
        assert!(risk_low(50.0) > 20.0);
        assert!(risk_high(400.0) > 20.0);
        // Equidistant in mg/dL from the zero point, the low side risks more.
        assert!(risk_bg(62.5) > risk_bg(162.5));
    }

    #[test]
    fn branches_are_exclusive() {
        for bg in [40.0, 80.0, 112.5, 150.0, 300.0] {
            let low = risk_low(bg);
            let high = risk_high(bg);
            assert!(low == 0.0 || high == 0.0, "bg={bg}");
            assert!((low + high - risk_bg(bg)).abs() < 1e-9);
        }
    }

    #[test]
    fn indices_on_flat_series() {
        assert!(lbgi(&[110.0; 12]) < 0.1);
        assert!(hbgi(&[110.0; 12]) < 0.1);
        assert_eq!(lbgi(&[]), 0.0);
        assert_eq!(hbgi(&[]), 0.0);
        assert_eq!(mean_risk_index(&[]), 0.0);
    }

    /// Labels `series` as production does: one
    /// [`RiskTracker::label_tail`] pass over records carrying it as
    /// ground-truth BG.
    fn labels_via_tail(series: &[f64], config: &LabelConfig) -> Vec<Option<Hazard>> {
        let mut records: Vec<StepRecord> = series
            .iter()
            .enumerate()
            .map(|(i, &bg)| {
                let mut r = StepRecord::blank(Step(i as u32));
                r.bg_true = MgDl(bg);
                r
            })
            .collect();
        RiskTracker::new(config.clone()).label_tail(&mut records);
        records.iter().map(|r| r.hazard).collect()
    }

    fn falling_series() -> Vec<f64> {
        // 120 down to 40 over 40 steps, then flat at 40.
        let mut s: Vec<f64> = (0..40).map(|i| 120.0 - 2.0 * i as f64).collect();
        s.extend(std::iter::repeat_n(40.0, 20));
        s
    }

    #[test]
    fn labeler_flags_hypoglycemia_descent_as_h1() {
        let labels = labels_via_tail(&falling_series(), &LabelConfig::default());
        let first = labels.iter().position(|l| l.is_some());
        assert!(first.is_some(), "no hazard found");
        assert_eq!(labels[first.unwrap()], Some(Hazard::H1));
    }

    #[test]
    fn labeler_flags_hyperglycemia_ascent_as_h2() {
        let series: Vec<f64> = (0..60).map(|i| 140.0 + 4.0 * i as f64).collect();
        let labels = labels_via_tail(&series, &LabelConfig::default());
        let kinds: Vec<Hazard> = labels.iter().flatten().copied().collect();
        assert!(!kinds.is_empty());
        assert!(kinds.iter().all(|&h| h == Hazard::H2));
    }

    #[test]
    fn stable_high_risk_is_not_flagged_when_plateaued() {
        // Once the series plateaus at 40, the index stops rising and the
        // "kept increasing" condition clears the label.
        let labels = labels_via_tail(&falling_series(), &LabelConfig::default());
        assert_eq!(labels[59], None, "plateau should not keep the label");
    }

    #[test]
    fn normal_series_is_unlabeled() {
        let series: Vec<f64> = (0..150)
            .map(|i| 110.0 + 15.0 * ((i as f64) * 0.1).sin())
            .collect();
        let labels = labels_via_tail(&series, &LabelConfig::default());
        assert!(labels.iter().all(|l| l.is_none()));
    }

    #[test]
    fn label_trace_updates_meta() {
        let mut trace = SimTrace::new(TraceMeta::default());
        for (i, bg) in falling_series().into_iter().enumerate() {
            let mut r = StepRecord::blank(Step(i as u32));
            r.bg_true = MgDl(bg);
            r.bg = MgDl(bg);
            trace.push(r);
        }
        label_trace(&mut trace, &LabelConfig::default());
        assert!(trace.is_hazardous());
        assert_eq!(trace.meta.hazard_type, Some(Hazard::H1));
        assert!(trace.meta.hazard_onset.is_some());
    }

    #[test]
    fn mean_risk_index_orders_scenarios() {
        let safe = vec![110.0; 50];
        let risky: Vec<f64> = (0..50).map(|i| 110.0 - i as f64).collect();
        assert!(mean_risk_index(&risky) > mean_risk_index(&safe));
    }

    #[test]
    fn streaming_labels_match_reference_on_test_series() {
        let mut plateau_high = vec![300.0; 30];
        plateau_high.extend((0..30).map(|i| 300.0 + 2.0 * i as f64));
        let series_set: Vec<Vec<f64>> = vec![
            falling_series(),
            (0..60).map(|i| 140.0 + 4.0 * i as f64).collect(),
            (0..150)
                .map(|i| 110.0 + 15.0 * ((i as f64) * 0.1).sin())
                .collect(),
            plateau_high,
            vec![40.0; 40],
            vec![120.0],
            vec![],
        ];
        for window in [1, 2, 6, 12, 24] {
            let config = LabelConfig {
                window,
                ..LabelConfig::default()
            };
            for series in &series_set {
                assert_eq!(
                    labels_via_tail(series, &config),
                    label_series_reference(series, &config),
                    "window {window}, series len {}",
                    series.len()
                );
            }
        }
    }

    #[test]
    fn tracker_flags_hypoglycemia_descent_online() {
        let mut tracker = RiskTracker::new(LabelConfig::default());
        let mut first_alert = None;
        for (i, bg) in falling_series().into_iter().enumerate() {
            let sample = tracker.push(bg);
            assert_eq!(sample.index, i);
            if first_alert.is_none() && sample.is_hazardous() {
                first_alert = Some((i, sample.hazard));
            }
        }
        let (onset, hazard) = first_alert.expect("descent to 40 never flagged");
        assert_eq!(hazard, Some(Hazard::H1));
        // Online detection fires while the descent is still in
        // progress (the series reaches 40 at step 40).
        assert!(onset < 40, "alert too late: step {onset}");
    }

    #[test]
    fn tracker_plateau_clears_the_hazard() {
        let mut tracker = RiskTracker::new(LabelConfig::default());
        let mut last = None;
        for bg in falling_series() {
            last = Some(tracker.push(bg));
        }
        let last = last.unwrap();
        // Flat at 40 for 20 steps: the window risk stopped rising.
        assert_eq!(last.hazard, None);
        assert!(last.lbgi > LBGI_HIGH_RISK, "lows still dominate the window");
        assert!(!last.rising_low);
    }

    #[test]
    fn tracker_first_sample_never_alerts() {
        let mut tracker = RiskTracker::new(LabelConfig::default());
        let sample = tracker.push(20.0);
        assert_eq!(sample.hazard, None);
        assert!(!sample.rising_low && !sample.rising_high);
        assert!(sample.lbgi > LBGI_HIGH_RISK);
    }

    #[test]
    fn tracker_reset_restarts_the_series() {
        let config = LabelConfig::default();
        let mut tracker = RiskTracker::new(config.clone());
        let series = falling_series();
        let first: Vec<RiskSample> = series.iter().map(|&bg| tracker.push(bg)).collect();
        tracker.reset();
        assert!(tracker.is_empty());
        let second: Vec<RiskSample> = series.iter().map(|&bg| tracker.push(bg)).collect();
        assert_eq!(first, second);
        assert_eq!(tracker.len(), series.len());
    }

    #[test]
    fn tracker_window_indices_match_batch_windows() {
        let config = LabelConfig {
            window: 6,
            ..LabelConfig::default()
        };
        let mut tracker = RiskTracker::new(config);
        for t in 0..20usize {
            let sample = tracker.push(120.0 + t as f64);
            assert_eq!(sample.window_start, t.saturating_sub(5));
        }
    }

    #[test]
    fn zero_window_behaves_as_one() {
        let config = LabelConfig {
            window: 0,
            ..LabelConfig::default()
        };
        let series = falling_series();
        assert_eq!(
            labels_via_tail(&series, &config),
            label_series_reference(&series, &config)
        );
    }
}
