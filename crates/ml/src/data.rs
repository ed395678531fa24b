//! Dataset utilities: standardization, splits and k-fold indices.

use rand::seq::SliceRandom;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// A supervised dataset of flat feature vectors with integer labels.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Dataset {
    /// Feature rows (each of equal length).
    pub x: Vec<Vec<f64>>,
    /// Class labels, one per row.
    pub y: Vec<usize>,
}

impl Dataset {
    /// Creates a dataset; validates shapes.
    ///
    /// # Panics
    ///
    /// Panics if `x` and `y` lengths differ or rows are ragged.
    pub fn new(x: Vec<Vec<f64>>, y: Vec<usize>) -> Dataset {
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        if let Some(first) = x.first() {
            let d = first.len();
            assert!(x.iter().all(|r| r.len() == d), "ragged feature rows");
        }
        Dataset { x, y }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Feature dimension (0 when empty).
    pub fn dim(&self) -> usize {
        self.x.first().map(|r| r.len()).unwrap_or(0)
    }

    /// Number of classes (max label + 1; 0 when empty).
    pub fn n_classes(&self) -> usize {
        self.y.iter().max().map(|&m| m + 1).unwrap_or(0)
    }

    /// Selects a subset by indices.
    pub fn subset(&self, idx: &[usize]) -> Dataset {
        Dataset {
            x: idx.iter().map(|&i| self.x[i].clone()).collect(),
            y: idx.iter().map(|&i| self.y[i]).collect(),
        }
    }

    /// Shuffled train/validation split (fraction `val` to validation).
    pub fn split(&self, val: f64, seed: u64) -> (Dataset, Dataset) {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        idx.shuffle(&mut rng);
        let n_val = ((self.len() as f64) * val).round() as usize;
        let (val_idx, train_idx) = idx.split_at(n_val.min(self.len()));
        (self.subset(train_idx), self.subset(val_idx))
    }
}

/// Per-feature standardizer (zero mean, unit variance).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct StandardScaler {
    mean: Vec<f64>,
    sd: Vec<f64>,
}

impl StandardScaler {
    /// Fits mean/sd on a dataset's features.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset.
    pub fn fit(data: &Dataset) -> StandardScaler {
        assert!(!data.is_empty(), "cannot fit a scaler on an empty dataset");
        let d = data.dim();
        let n = data.len() as f64;
        let mut mean = vec![0.0; d];
        for row in &data.x {
            for (m, v) in mean.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut sd = vec![0.0; d];
        for row in &data.x {
            for ((s, v), m) in sd.iter_mut().zip(row).zip(&mean) {
                *s += (v - m) * (v - m);
            }
        }
        for s in &mut sd {
            *s = (*s / n).sqrt().max(1e-9);
        }
        StandardScaler { mean, sd }
    }

    /// Standardizes one feature vector.
    pub fn transform(&self, x: &[f64]) -> Vec<f64> {
        x.iter()
            .zip(&self.mean)
            .zip(&self.sd)
            .map(|((v, m), s)| (v - m) / s)
            .collect()
    }

    /// Standardizes a whole dataset (labels untouched).
    pub fn transform_dataset(&self, data: &Dataset) -> Dataset {
        Dataset {
            x: data.x.iter().map(|r| self.transform(r)).collect(),
            y: data.y.clone(),
        }
    }
}

/// Deterministic k-fold index sets: returns `k` (train, test) pairs.
pub fn kfold_indices(n: usize, k: usize, seed: u64) -> Vec<(Vec<usize>, Vec<usize>)> {
    assert!(k >= 2, "k-fold needs k >= 2");
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    idx.shuffle(&mut rng);
    let mut folds: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (i, v) in idx.into_iter().enumerate() {
        folds[i % k].push(v);
    }
    (0..k)
        .map(|f| {
            let test = folds[f].clone();
            let train: Vec<usize> = folds
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != f)
                .flat_map(|(_, v)| v.iter().copied())
                .collect();
            (train, test)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::new(
            (0..10).map(|i| vec![i as f64, 2.0 * i as f64]).collect(),
            (0..10).map(|i| i % 2).collect(),
        )
    }

    #[test]
    fn shapes_and_classes() {
        let d = toy();
        assert_eq!(d.len(), 10);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.n_classes(), 2);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let _ = Dataset::new(vec![vec![1.0], vec![1.0, 2.0]], vec![0, 1]);
    }

    #[test]
    fn split_partitions_everything() {
        let d = toy();
        let (train, val) = d.split(0.3, 42);
        assert_eq!(train.len() + val.len(), d.len());
        assert_eq!(val.len(), 3);
    }

    #[test]
    fn scaler_zero_mean_unit_var() {
        let d = toy();
        let scaler = StandardScaler::fit(&d);
        let t = scaler.transform_dataset(&d);
        for j in 0..t.dim() {
            let mean: f64 = t.x.iter().map(|r| r[j]).sum::<f64>() / t.len() as f64;
            let var: f64 = t.x.iter().map(|r| (r[j] - mean).powi(2)).sum::<f64>() / t.len() as f64;
            assert!(mean.abs() < 1e-9);
            assert!((var - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn scaler_handles_constant_features() {
        let d = Dataset::new(vec![vec![5.0], vec![5.0]], vec![0, 1]);
        let scaler = StandardScaler::fit(&d);
        let t = scaler.transform(&[5.0]);
        assert!(t[0].abs() < 1e-6);
    }

    #[test]
    fn kfold_covers_all_indices_once() {
        let folds = kfold_indices(103, 4, 7);
        assert_eq!(folds.len(), 4);
        let mut seen = vec![0usize; 103];
        for (train, test) in &folds {
            assert_eq!(train.len() + test.len(), 103);
            for &i in test {
                seen[i] += 1;
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "each index tested exactly once"
        );
    }

    #[test]
    fn kfold_is_deterministic() {
        assert_eq!(kfold_indices(50, 4, 9), kfold_indices(50, 4, 9));
    }
}
