//! From-scratch machine-learning baselines.
//!
//! The paper compares its context-aware monitor to three ML-based
//! monitors (trained with scikit-learn / TensorFlow): a Decision Tree,
//! a 2-layer MLP (256/128, ReLU, softmax), and a stacked LSTM (128/64,
//! 30-minute input window). This crate implements those architectures
//! natively:
//!
//! * [`matrix::Matrix`] — minimal dense linear algebra;
//! * [`tree::DecisionTree`] — CART with Gini impurity;
//! * [`mlp::Mlp`] — fully-connected ReLU network with softmax output,
//!   Adam, inverted dropout, and early stopping;
//! * [`lstm::Lstm`] — stacked LSTM with full BPTT and gradient
//!   clipping (allocation-free scratch training; see
//!   [`lstm::LstmTrainer`]);
//! * [`data`] — standardization, splits and k-fold indices.
//!
//! All classifiers implement [`Classifier`]. Training is deterministic
//! per seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adam;
pub mod data;
pub mod lstm;
pub mod matrix;
pub mod mlp;
mod train_util;
pub mod tree;

/// A trained multi-class classifier over fixed-length feature vectors.
///
/// `Sync`, so that the copies of a monitor can share one trained model.
pub trait Classifier: Send + Sync {
    /// Class-probability vector for one sample (sums to ≈1).
    fn predict_proba(&self, x: &[f64]) -> Vec<f64>;

    /// Most probable class index.
    fn predict(&self, x: &[f64]) -> usize {
        let p = self.predict_proba(x);
        p.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Number of classes.
    fn n_classes(&self) -> usize;
}

/// A classifier over *sequences* of feature vectors (the LSTM monitor's
/// sliding window). `Sync` for the same reason as [`Classifier`].
pub trait SequenceClassifier: Send + Sync {
    /// Class probabilities for one sequence of shape `[T][D]`.
    fn predict_proba_seq(&self, xs: &[Vec<f64>]) -> Vec<f64>;

    /// Most probable class for one sequence.
    fn predict_seq(&self, xs: &[Vec<f64>]) -> usize {
        let p = self.predict_proba_seq(xs);
        p.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Number of classes.
    fn n_classes(&self) -> usize;
}
