//! Predictive glucose-forecast monitor.
//!
//! The paper's context-aware monitors (CAWT/CAWOT) alert when the
//! *current* action is unsafe in the inferred context; the streaming
//! [`RiskIndexMonitor`](crate::monitors::RiskIndexMonitor) confirms a
//! hazard once the rolling risk window crosses its threshold. The
//! [`ForecastMonitor`] closes the remaining gap with a *learned
//! predictive* arm: a trained [`LstmForecaster`] runs **incrementally**
//! inside the loop — hidden state carried across cycles, one O(1)
//! [`LstmForecaster::step`] per sample, zero per-step heap allocation —
//! and raises as soon as the predicted BG at the forecast horizon
//! crosses the hazard band.
//!
//! The band itself is not an ad-hoc constant: it is the labeler's own
//! LBGI/HBGI thresholds inverted through the Kovatchev risk transform
//! ([`ForecastBand::from_label_config`]), i.e. "the predicted BG
//! would, if sustained, satisfy the offline hazard condition".
//!
//! Feeding samples one-by-one with carried state is bit-identical to a
//! batch forward pass over the same prefix (pinned in
//! `tests/forecast_pipeline.rs`), so the online monitor scores exactly
//! the function `repro train` validated offline.
//!
//! The trained forecaster and its scaler never change after training,
//! so a [fork](HazardMonitor::fork) shares them and copies only the
//! carried [`LstmState`] and the cycle counters.

use crate::monitors::{HazardMonitor, MonitorInput};
use aps_ml::data::{StandardScaler, TraceDataset};
use aps_ml::forecast::{ForecastModel, LstmForecaster, LstmState};
use aps_risk::{risk_high, risk_low, LabelConfig};
use aps_types::{Hazard, UnitsPerHour};
use std::sync::Arc;

/// Predicted-BG alert band: alert H1 below `low`, H2 above `high`
/// (mg/dL).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForecastBand {
    /// Hypoglycemia bound (mg/dL).
    pub low: f64,
    /// Hyperglycemia bound (mg/dL).
    pub high: f64,
}

impl ForecastBand {
    /// Inverts the labeler's risk thresholds through the Kovatchev
    /// transform: `low` is the BG whose low-side risk equals the LBGI
    /// threshold, `high` the BG whose high-side risk equals the HBGI
    /// threshold. A constant BG at either bound makes the rolling
    /// window exactly threshold-critical.
    pub fn from_label_config(config: &LabelConfig) -> ForecastBand {
        // risk_low is monotone decreasing in BG below the zero point
        // (≈112.5 mg/dL); risk_high monotone increasing above it.
        let mut lo = 1.0;
        let mut hi = 112.0;
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if risk_low(mid) > config.lbgi_threshold {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let low = 0.5 * (lo + hi);
        let mut lo = 113.0;
        let mut hi = 1000.0;
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if risk_high(mid) < config.hbgi_threshold {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let high = 0.5 * (lo + hi);
        ForecastBand { low, high }
    }
}

impl Default for ForecastBand {
    fn default() -> ForecastBand {
        ForecastBand::from_label_config(&LabelConfig::default())
    }
}

/// Online learned glucose forecaster: a trained [`LstmForecaster`]
/// streamed incrementally, alerting when the horizon-BG prediction
/// crosses the risk-derived [`ForecastBand`].
#[derive(Clone)]
pub struct ForecastMonitor {
    name: String,
    model: Arc<LstmForecaster>,
    scaler: Arc<StandardScaler>,
    state: LstmState,
    features: [f64; TraceDataset::DIM],
    scaled: [f64; TraceDataset::DIM],
    band: ForecastBand,
    /// Cycles before predictions are trusted. Cold-start predictions
    /// are *supervised* (the trainer targets every timestep of every
    /// subsequence), so only the first cycles — where no trend exists
    /// yet — are muted.
    warmup: usize,
    seen: usize,
    last: Option<f64>,
}

/// Cycles muted after reset: one sample carries no trend information.
const WARMUP_CYCLES: usize = 2;

impl ForecastMonitor {
    /// Builds the monitor from a trained model bundle, alerting on the
    /// given predicted-BG band.
    ///
    /// # Panics
    ///
    /// Panics when the model's input dimension is not the
    /// [`TraceDataset`] feature encoding the monitor feeds it.
    pub fn from_model(model: &ForecastModel, band: ForecastBand) -> ForecastMonitor {
        assert_eq!(
            model.lstm.input_dim(),
            TraceDataset::DIM,
            "forecaster was not trained on the [bg, commanded] encoding"
        );
        ForecastMonitor {
            name: "forecast".to_owned(),
            state: model.lstm.state(),
            model: Arc::new(model.lstm.clone()),
            scaler: Arc::new(model.scaler.clone()),
            features: [0.0; TraceDataset::DIM],
            scaled: [0.0; TraceDataset::DIM],
            band,
            warmup: WARMUP_CYCLES,
            seen: 0,
            last: None,
        }
    }

    /// The monitor's alert band (mg/dL).
    pub fn band(&self) -> ForecastBand {
        self.band
    }

    /// The latest horizon-BG prediction (mg/dL), if a cycle has been
    /// checked.
    pub fn last_prediction(&self) -> Option<f64> {
        self.last
    }
}

impl HazardMonitor for ForecastMonitor {
    fn name(&self) -> &str {
        &self.name
    }

    fn check(&mut self, input: &MonitorInput) -> Option<Hazard> {
        self.features = [input.bg.value(), input.commanded.value()];
        self.scaler.transform_into(&self.features, &mut self.scaled);
        let yhat = self.model.step(&mut self.state, &self.scaled);
        self.seen += 1;
        self.last = Some(yhat);
        // `seen` counts this cycle already, so cycles 0..warmup are
        // muted (matching the offline evaluation's warm-up skip).
        if self.seen <= self.warmup {
            return None;
        }
        if yhat <= self.band.low {
            Some(Hazard::H1)
        } else if yhat >= self.band.high {
            Some(Hazard::H2)
        } else {
            None
        }
    }

    fn observe_delivery(&mut self, _delivered: UnitsPerHour) {}

    fn reset(&mut self) {
        self.state.reset();
        self.seen = 0;
        self.last = None;
    }

    fn fork(&self) -> Box<dyn HazardMonitor> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aps_ml::data::ForecastSet;
    use aps_ml::forecast::{ForecastConfig, MlpForecaster};
    use aps_types::{MgDl, Step};

    fn input(step: u32, bg: f64, commanded: f64) -> MonitorInput {
        MonitorInput {
            step: Step(step),
            bg: MgDl(bg),
            commanded: UnitsPerHour(commanded),
            previous_rate: UnitsPerHour(1.0),
        }
    }

    /// A tiny trained bundle over a linear-trend task (constant slope
    /// per sequence, so the horizon target is BG + 5 × slope). The
    /// training windows are *long* (24 steps) on purpose: streaming
    /// inference carries its hidden state far past any short window,
    /// and only long supervised sequences pin the state's steady
    /// behavior (a short-window forecaster's carried state drifts).
    /// Trained once and shared across tests.
    fn tiny_model() -> &'static ForecastModel {
        use std::sync::OnceLock;
        static MODEL: OnceLock<ForecastModel> = OnceLock::new();
        MODEL.get_or_init(|| {
            const W: usize = 24;
            const H: usize = 5;
            let mut x: Vec<Vec<Vec<f64>>> = Vec::new();
            let mut y: Vec<Vec<f64>> = Vec::new();
            for i in 0..80 {
                let start = 50.0 + 3.1 * i as f64;
                let slope = ((i % 5) as f64 - 2.0) * 2.0; // -4, -2, 0, 2, 4
                let series: Vec<f64> = (0..W + H)
                    .map(|t| (start + slope * t as f64).clamp(35.0, 380.0))
                    .collect();
                x.push(series[..W].iter().map(|&bg| vec![bg, 1.0]).collect());
                y.push((0..W).map(|t| series[t + H]).collect());
            }
            let mut set = ForecastSet::new(x, y);
            let scaler = StandardScaler::fit_sequences(&set.x);
            set.standardize(&scaler);
            let config = ForecastConfig {
                hidden: vec![16],
                mlp_hidden: vec![8],
                learning_rate: 3e-3,
                max_epochs: 90,
                patience: 15,
                seed: 5,
                ..ForecastConfig::default()
            };
            ForecastModel {
                window: W,
                horizon: H,
                lstm: LstmForecaster::fit(&set, &config),
                mlp: MlpForecaster::fit(&set, &config),
                scaler,
                config,
                lstm_val_rmse: 0.0,
                mlp_val_rmse: 0.0,
                persistence_val_rmse: 0.0,
                trained_pairs: set.len(),
            }
        })
    }

    #[test]
    fn band_inverts_the_risk_thresholds() {
        let band = ForecastBand::default();
        // Kovatchev: LBGI 5 ≈ 77 mg/dL, HBGI 9 ≈ 187 mg/dL.
        assert!((risk_low(band.low) - 5.0).abs() < 1e-9, "low {}", band.low);
        assert!(
            (risk_high(band.high) - 9.0).abs() < 1e-9,
            "high {}",
            band.high
        );
        assert!(band.low > 60.0 && band.low < 90.0, "low {}", band.low);
        assert!(band.high > 150.0 && band.high < 220.0, "high {}", band.high);
    }

    #[test]
    fn warmup_then_alerts_on_predicted_descent() {
        let model = tiny_model();
        let mut m = ForecastMonitor::from_model(model, ForecastBand::default());
        assert_eq!(m.name(), "forecast");
        // A steep descent toward hypoglycemia: the 40-min-ahead
        // prediction crosses the band while BG is still above it.
        let mut first_alert = None;
        let mut bg_at_alert = None;
        for s in 0..40u32 {
            let bg = 160.0 - 4.0 * f64::from(s);
            let verdict = m.check(&input(s, bg, 1.0));
            if s < 2 {
                assert_eq!(verdict, None, "warm-up cycle {s}");
            }
            if let (Some(h), None) = (verdict, first_alert) {
                first_alert = Some((s, h));
                bg_at_alert = Some(bg);
            }
        }
        let (s, hazard) = first_alert.expect("descent never alerted");
        assert_eq!(hazard, Hazard::H1);
        let bg = bg_at_alert.unwrap();
        assert!(
            bg > m.band().low,
            "alert at cycle {s} should PRECEDE the band crossing (bg {bg:.0} vs band {:.0})",
            m.band().low
        );
    }

    #[test]
    fn silent_on_steady_normoglycemia() {
        let model = tiny_model();
        let mut m = ForecastMonitor::from_model(model, ForecastBand::default());
        for s in 0..60u32 {
            let verdict = m.check(&input(s, 115.0, 1.0));
            assert_eq!(verdict, None, "false alarm at cycle {s}");
        }
    }

    #[test]
    fn reset_clears_the_carried_state() {
        let model = tiny_model();
        let mut m = ForecastMonitor::from_model(model, ForecastBand::default());
        for s in 0..20u32 {
            m.check(&input(s, 60.0 - f64::from(s), 1.0));
        }
        m.reset();
        assert_eq!(m.last_prediction(), None);
        // Post-reset the monitor warms up again from a cold state.
        assert_eq!(m.check(&input(0, 115.0, 1.0)), None);
        // And the first prediction equals a fresh monitor's.
        let mut fresh = ForecastMonitor::from_model(model, ForecastBand::default());
        fresh.check(&input(0, 115.0, 1.0));
        assert_eq!(m.last_prediction(), fresh.last_prediction());
    }

    /// A fork taken mid-run carries the original's LSTM state: checked
    /// in turn on the same inputs, both give the same verdicts.
    #[test]
    fn a_fork_predicts_as_the_original_would() {
        let mut m = ForecastMonitor::from_model(tiny_model(), ForecastBand::default());
        let bg = |s: u32| 160.0 - 4.0 * f64::from(s);
        for s in 0..5u32 {
            m.check(&input(s, bg(s), 1.0));
        }
        let mut fork = m.fork();
        let mut alerts = 0;
        for s in 5..40u32 {
            let original = m.check(&input(s, bg(s), 1.0));
            let forked = fork.check(&input(s, bg(s), 1.0));
            assert_eq!(forked, original, "cycle {s}");
            alerts += usize::from(original.is_some());
        }
        assert!(alerts > 0, "the descent never alerted");
    }
}
