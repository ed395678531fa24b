//! ML-based baseline monitors (DT / MLP / LSTM adapters).
//!
//! The ML monitors model UCA detection as a conditional classification
//! (Eq. 7/8): input = current state and issued action, output = safe /
//! unsafe (binary) or safe / H1 / H2 (multi-class). The feature vector
//! is shared with the dataset builder through [`MlFeatures`] so train
//! and inference views cannot drift apart.
//!
//! A trained model never changes after training, so the monitors share
//! it (and its feature scaler) behind an [`Arc`]: a
//! [fork](HazardMonitor::fork) copies only the run state, the context
//! builder and the LSTM monitor's sequence window.

use crate::context::{ContextBuilder, ContextVector};
use crate::monitors::{HazardMonitor, MonitorInput};
use aps_ml::data::StandardScaler;
use aps_ml::{Classifier, SequenceClassifier};
use aps_types::{ControlAction, Hazard, MgDl, UnitsPerHour};
use std::collections::VecDeque;
use std::sync::Arc;

/// The shared feature encoding: `[bg, bg', iob, iob', rate, action]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MlFeatures;

impl MlFeatures {
    /// Feature dimension.
    pub const DIM: usize = 6;

    /// Encodes one cycle's observation.
    pub fn vector(ctx: &ContextVector, commanded: UnitsPerHour, action: ControlAction) -> Vec<f64> {
        vec![
            ctx.bg,
            ctx.dbg,
            ctx.iob,
            ctx.diob,
            commanded.value(),
            action.paper_index() as f64,
        ]
    }
}

/// How an ML classifier's classes map to hazards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClassMap {
    /// Class 1 = unsafe; hazard type inferred from context.
    Binary,
    /// Class 1 = H1, class 2 = H2.
    MultiClass,
}

fn hazard_from_context(ctx: &ContextVector, target: MgDl) -> Hazard {
    if ctx.bg < target.value() || ctx.dbg < 0.0 {
        Hazard::H1
    } else {
        Hazard::H2
    }
}

/// Feature-vector ML monitor (Decision Tree or MLP).
#[derive(Clone)]
pub struct MlMonitor {
    name: String,
    model: Arc<dyn Classifier>,
    scaler: Arc<StandardScaler>,
    context: ContextBuilder,
    target: MgDl,
    map: ClassMap,
}

impl MlMonitor {
    /// Wraps a trained binary classifier (class 1 = unsafe).
    pub fn binary(
        name: &str,
        model: Arc<dyn Classifier>,
        scaler: StandardScaler,
        basal: UnitsPerHour,
        target: MgDl,
    ) -> MlMonitor {
        MlMonitor {
            name: name.to_owned(),
            model,
            scaler: Arc::new(scaler),
            context: ContextBuilder::new(basal),
            target,
            map: ClassMap::Binary,
        }
    }

    /// Wraps a trained 3-class classifier (0 = safe, 1 = H1, 2 = H2).
    pub fn multiclass(
        name: &str,
        model: Arc<dyn Classifier>,
        scaler: StandardScaler,
        basal: UnitsPerHour,
        target: MgDl,
    ) -> MlMonitor {
        let mut m = MlMonitor::binary(name, model, scaler, basal, target);
        m.map = ClassMap::MultiClass;
        m
    }

    fn verdict(&self, class: usize, ctx: &ContextVector) -> Option<Hazard> {
        match (self.map, class) {
            (_, 0) => None,
            (ClassMap::Binary, _) => Some(hazard_from_context(ctx, self.target)),
            (ClassMap::MultiClass, 1) => Some(Hazard::H1),
            (ClassMap::MultiClass, _) => Some(Hazard::H2),
        }
    }
}

impl HazardMonitor for MlMonitor {
    fn name(&self) -> &str {
        &self.name
    }

    fn check(&mut self, input: &MonitorInput) -> Option<Hazard> {
        let ctx = self.context.observe_bg(input.bg);
        let action = ControlAction::classify(input.commanded, input.previous_rate);
        let features = self
            .scaler
            .transform(&MlFeatures::vector(&ctx, input.commanded, action));
        let class = self.model.predict(&features);
        self.verdict(class, &ctx)
    }

    fn observe_delivery(&mut self, delivered: UnitsPerHour) {
        self.context.observe_delivery(delivered);
    }

    fn reset(&mut self) {
        self.context.reset();
    }

    fn fork(&self) -> Box<dyn HazardMonitor> {
        Box::new(self.clone())
    }
}

/// Sliding-window sequence monitor (the LSTM baseline, k = 6 cycles).
#[derive(Clone)]
pub struct LstmMonitor {
    name: String,
    model: Arc<dyn SequenceClassifier>,
    scaler: Arc<StandardScaler>,
    context: ContextBuilder,
    target: MgDl,
    window: usize,
    buffer: VecDeque<Vec<f64>>,
    map: ClassMap,
}

impl LstmMonitor {
    /// Wraps a trained binary sequence classifier with window length
    /// `window` (paper: 6 cycles = 30 minutes).
    pub fn binary(
        name: &str,
        model: Arc<dyn SequenceClassifier>,
        scaler: StandardScaler,
        basal: UnitsPerHour,
        target: MgDl,
        window: usize,
    ) -> LstmMonitor {
        LstmMonitor {
            name: name.to_owned(),
            model,
            scaler: Arc::new(scaler),
            context: ContextBuilder::new(basal),
            target,
            window,
            buffer: VecDeque::new(),
            map: ClassMap::Binary,
        }
    }

    /// Multi-class variant (0 = safe, 1 = H1, 2 = H2).
    pub fn multiclass(
        name: &str,
        model: Arc<dyn SequenceClassifier>,
        scaler: StandardScaler,
        basal: UnitsPerHour,
        target: MgDl,
        window: usize,
    ) -> LstmMonitor {
        let mut m = LstmMonitor::binary(name, model, scaler, basal, target, window);
        m.map = ClassMap::MultiClass;
        m
    }
}

impl HazardMonitor for LstmMonitor {
    fn name(&self) -> &str {
        &self.name
    }

    fn check(&mut self, input: &MonitorInput) -> Option<Hazard> {
        let ctx = self.context.observe_bg(input.bg);
        let action = ControlAction::classify(input.commanded, input.previous_rate);
        let features = self
            .scaler
            .transform(&MlFeatures::vector(&ctx, input.commanded, action));
        self.buffer.push_back(features);
        if self.buffer.len() > self.window {
            self.buffer.pop_front();
        }
        if self.buffer.len() < self.window {
            return None; // warm-up
        }
        let seq: Vec<Vec<f64>> = self.buffer.iter().cloned().collect();
        let class = self.model.predict_seq(&seq);
        match (self.map, class) {
            (_, 0) => None,
            (ClassMap::Binary, _) => Some(hazard_from_context(&ctx, self.target)),
            (ClassMap::MultiClass, 1) => Some(Hazard::H1),
            (ClassMap::MultiClass, _) => Some(Hazard::H2),
        }
    }

    fn observe_delivery(&mut self, delivered: UnitsPerHour) {
        self.context.observe_delivery(delivered);
    }

    fn reset(&mut self) {
        self.context.reset();
        self.buffer.clear();
    }

    fn fork(&self) -> Box<dyn HazardMonitor> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aps_ml::data::Dataset;
    use aps_types::Step;

    /// A stub classifier flagging "unsafe" when the (standardized)
    /// commanded-rate feature is extreme.
    struct StubClassifier;
    impl Classifier for StubClassifier {
        fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
            if x[4].abs() > 1.0 {
                vec![0.0, 1.0]
            } else {
                vec![1.0, 0.0]
            }
        }
        fn n_classes(&self) -> usize {
            2
        }
    }

    struct StubSeq;
    impl SequenceClassifier for StubSeq {
        fn predict_proba_seq(&self, xs: &[Vec<f64>]) -> Vec<f64> {
            if xs.iter().any(|x| x[4].abs() > 1.0) {
                vec![0.0, 1.0]
            } else {
                vec![1.0, 0.0]
            }
        }
        fn n_classes(&self) -> usize {
            2
        }
    }

    fn scaler() -> StandardScaler {
        // Fit on a spread of feature vectors so rate=10 standardizes to
        // an extreme value.
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|i| {
                vec![
                    100.0 + i as f64,
                    0.0,
                    0.5,
                    0.0,
                    0.8 + (i % 5) as f64 * 0.1,
                    4.0,
                ]
            })
            .collect();
        let n = rows.len();
        StandardScaler::fit(&Dataset::new(rows, vec![0; n]))
    }

    fn input(step: u32, bg: f64, commanded: f64) -> MonitorInput {
        MonitorInput {
            step: Step(step),
            bg: MgDl(bg),
            commanded: UnitsPerHour(commanded),
            previous_rate: UnitsPerHour(1.0),
        }
    }

    #[test]
    fn binary_monitor_maps_hazard_from_context() {
        let mut m = MlMonitor::binary(
            "dt",
            Arc::new(StubClassifier),
            scaler(),
            UnitsPerHour(1.0),
            MgDl(110.0),
        );
        // Extreme rate + hyperglycemic rising context -> H2.
        m.check(&input(0, 200.0, 1.0));
        m.observe_delivery(UnitsPerHour(1.0));
        let v = m.check(&input(1, 220.0, 10.0));
        assert_eq!(v, Some(Hazard::H2));
        // Extreme rate + low BG -> H1.
        m.reset();
        m.check(&input(0, 100.0, 1.0));
        m.observe_delivery(UnitsPerHour(1.0));
        let v = m.check(&input(1, 90.0, 10.0));
        assert_eq!(v, Some(Hazard::H1));
        // Normal rate -> quiet.
        let v = m.check(&input(2, 90.0, 1.0));
        assert_eq!(v, None);
    }

    #[test]
    fn multiclass_monitor_uses_class_directly() {
        struct AlwaysH2;
        impl Classifier for AlwaysH2 {
            fn predict_proba(&self, _x: &[f64]) -> Vec<f64> {
                vec![0.0, 0.0, 1.0]
            }
            fn n_classes(&self) -> usize {
                3
            }
        }
        let mut m = MlMonitor::multiclass(
            "mlp3",
            Arc::new(AlwaysH2),
            scaler(),
            UnitsPerHour(1.0),
            MgDl(110.0),
        );
        assert_eq!(m.check(&input(0, 80.0, 1.0)), Some(Hazard::H2));
    }

    #[test]
    fn lstm_monitor_warms_up_before_predicting() {
        let mut m = LstmMonitor::binary(
            "lstm",
            Arc::new(StubSeq),
            scaler(),
            UnitsPerHour(1.0),
            MgDl(110.0),
            3,
        );
        assert_eq!(m.check(&input(0, 200.0, 10.0)), None, "warm-up cycle 1");
        assert_eq!(m.check(&input(1, 205.0, 10.0)), None, "warm-up cycle 2");
        let v = m.check(&input(2, 210.0, 10.0));
        assert_eq!(v, Some(Hazard::H2), "window full: prediction starts");
    }

    #[test]
    fn lstm_reset_clears_window() {
        let mut m = LstmMonitor::binary(
            "lstm",
            Arc::new(StubSeq),
            scaler(),
            UnitsPerHour(1.0),
            MgDl(110.0),
            2,
        );
        m.check(&input(0, 200.0, 10.0));
        m.check(&input(1, 200.0, 10.0));
        m.reset();
        assert_eq!(m.check(&input(2, 200.0, 10.0)), None);
    }
}
