//! Dataset utilities: standardization, splits, k-fold indices, and the
//! streaming [`TraceDataset`] adapter that turns simulation traces into
//! glucose-forecast training pairs.

use aps_types::SimTrace;
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

    /// Fits mean/sd over every timestep of every sequence (the
    /// sequence-dataset counterpart of [`StandardScaler::fit`]).
    ///
    /// # Panics
    ///
    /// Panics when no timestep is present.
    pub fn fit_sequences(x: &[Vec<Vec<f64>>]) -> StandardScaler {
        let d = x
            .first()
            .and_then(|s| s.first())
            .map(|r| r.len())
            .unwrap_or(0);
        let n: usize = x.iter().map(|s| s.len()).sum();
        assert!(n > 0 && d > 0, "cannot fit a scaler on an empty dataset");
        let mut mean = vec![0.0; d];
        for row in x.iter().flatten() {
            for (m, v) in mean.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n as f64;
        }
        let mut sd = vec![0.0; d];
        for row in x.iter().flatten() {
            for ((s, v), m) in sd.iter_mut().zip(row).zip(&mean) {
                *s += (v - m) * (v - m);
            }
        }
        for s in &mut sd {
            *s = (*s / n as f64).sqrt().max(1e-9);
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

    /// Standardizes one feature vector into a caller-owned buffer —
    /// the allocation-free path used by per-cycle online monitors.
    ///
    /// # Panics
    ///
    /// Panics if `x` and `out` do not match the fitted dimension.
    pub fn transform_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.mean.len(), "input dimension mismatch");
        assert_eq!(out.len(), self.mean.len(), "output dimension mismatch");
        for (((o, v), m), s) in out.iter_mut().zip(x).zip(&self.mean).zip(&self.sd) {
            *o = (v - m) / s;
        }
    }

    /// Standardizes one feature vector in place (allocation-free).
    ///
    /// # Panics
    ///
    /// Panics if `x` does not match the fitted dimension.
    pub fn transform_in_place(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.mean.len(), "input dimension mismatch");
        for ((v, m), s) in x.iter_mut().zip(&self.mean).zip(&self.sd) {
            *v = (*v - m) / s;
        }
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

/// A sequence-regression dataset: each sample is a `[T][D]` feature
/// window with a **per-timestep** target (BG at the forecast horizon
/// from that step). Supervising every step — not only the window's
/// last — is what lets a recurrent forecaster stream online with a
/// carried hidden state: cold-start and warmed-up behavior are both in
/// the training distribution.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ForecastSet {
    /// Feature windows (equal length, equal feature dimension).
    pub x: Vec<Vec<Vec<f64>>>,
    /// Targets, one per window timestep.
    pub y: Vec<Vec<f64>>,
}

impl ForecastSet {
    /// Creates a forecast set, validating shapes.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches or ragged windows.
    pub fn new(x: Vec<Vec<Vec<f64>>>, y: Vec<Vec<f64>>) -> ForecastSet {
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        if let Some(first) = x.first() {
            let t = first.len();
            let d = first.first().map(|v| v.len()).unwrap_or(0);
            for (s, ys) in x.iter().zip(&y) {
                assert_eq!(s.len(), t, "ragged sequence lengths");
                assert_eq!(ys.len(), t, "target/step length mismatch");
                assert!(s.iter().all(|f| f.len() == d), "ragged feature dims");
            }
        }
        ForecastSet { x, y }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Window length (0 when empty).
    pub fn window(&self) -> usize {
        self.x.first().map(|s| s.len()).unwrap_or(0)
    }

    /// Per-step feature dimension (0 when empty).
    pub fn dim(&self) -> usize {
        self.x
            .first()
            .and_then(|s| s.first())
            .map(|r| r.len())
            .unwrap_or(0)
    }

    /// Standardizes every timestep's features in place (targets are
    /// left in mg/dL).
    pub fn standardize(&mut self, scaler: &StandardScaler) {
        for window in &mut self.x {
            for row in window.iter_mut() {
                scaler.transform_in_place(row);
            }
        }
    }

    /// Shuffled train/validation split (fraction `val` to validation).
    pub fn split(&self, val: f64, seed: u64) -> (ForecastSet, ForecastSet) {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        idx.shuffle(&mut rng);
        let n_val = ((self.len() as f64) * val).round() as usize;
        let (val_idx, train_idx) = idx.split_at(n_val.min(self.len()));
        let pick = |idx: &[usize]| ForecastSet {
            x: idx.iter().map(|&i| self.x[i].clone()).collect(),
            y: idx.iter().map(|&i| self.y[i].clone()).collect(),
        };
        (pick(train_idx), pick(val_idx))
    }
}

/// SplitMix64: a stateless deterministic hash used for reservoir
/// acceptance decisions (no RNG state to carry or serialize).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Streaming adapter from simulation traces to glucose-forecast
/// training pairs.
///
/// Feed it one [`SimTrace`] at a time — e.g. as the sink of
/// `run_campaign_with_workers`, so a paper-scale campaign never
/// materializes — and it windows each trace's per-cycle `[CGM BG, commanded insulin]`
/// series into subsequences targeted with the BG `horizon` cycles
/// ahead of **each** timestep (sequence-to-sequence supervision). The
/// number of retained pairs is bounded by `cap` via reservoir sampling
/// whose acceptance decisions are a pure hash of `(seed, pair index)`:
/// construction is deterministic under a fixed seed and memory stays
/// `O(cap)` however large the campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceDataset {
    window: usize,
    horizon: usize,
    cap: usize,
    seed: u64,
    seen: usize,
    traces: usize,
    x: Vec<Vec<Vec<f64>>>,
    y: Vec<Vec<f64>>,
}

impl TraceDataset {
    /// Per-step features extracted from a trace record: the CGM
    /// reading and the rate the controller commanded — exactly what an
    /// online monitor observes each control cycle.
    pub const DIM: usize = 2;

    /// Creates an unbounded adapter (`cap = 0` keeps every pair).
    ///
    /// # Panics
    ///
    /// Panics when `window` or `horizon` is zero.
    pub fn new(window: usize, horizon: usize) -> TraceDataset {
        TraceDataset::with_cap(window, horizon, 0, 0)
    }

    /// Creates a bounded adapter retaining at most `cap` pairs,
    /// reservoir-sampled deterministically under `seed`.
    ///
    /// # Panics
    ///
    /// Panics when `window` or `horizon` is zero.
    pub fn with_cap(window: usize, horizon: usize, cap: usize, seed: u64) -> TraceDataset {
        assert!(window >= 1, "window must be at least 1");
        assert!(horizon >= 1, "horizon must be at least 1");
        TraceDataset {
            window,
            horizon,
            cap,
            seed,
            seen: 0,
            traces: 0,
            x: Vec::new(),
            y: Vec::new(),
        }
    }

    /// Window length in control cycles.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Forecast horizon in control cycles.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Pairs currently retained.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// `true` when no pair has been retained.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Total pairs offered so far (before reservoir capping).
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// Traces consumed so far.
    pub fn traces(&self) -> usize {
        self.traces
    }

    /// Consumes one trace: windows its series into subsequences with a
    /// BG-at-horizon target at **every** timestep and offers each to
    /// the reservoir. Usable directly as a campaign sink:
    ///
    /// ```ignore
    /// run_campaign_with_workers(&spec, None, None, |_, trace| dataset.push_trace(&trace));
    /// ```
    pub fn push_trace(&mut self, trace: &SimTrace) {
        self.push_windows(
            trace.len(),
            |t| trace.records[t].bg.value(),
            |t| trace.records[t].commanded.value(),
        );
    }

    /// Consumes one trace's series as two parallel columns — the
    /// CGM BG and commanded-rate values per control cycle. This is the
    /// columnar-store path: a store reader copies its `bg`/`commanded`
    /// columns into reusable buffers and streams windows off them
    /// without materializing `SimTrace`s. Window, target, and
    /// reservoir decisions are shared with [`push_trace`], so the two
    /// paths are bit-identical on equal series.
    ///
    /// # Panics
    ///
    /// Panics when the columns have different lengths.
    ///
    /// [`push_trace`]: TraceDataset::push_trace
    pub fn push_series(&mut self, bg: &[f64], commanded: &[f64]) {
        assert_eq!(bg.len(), commanded.len(), "bg/commanded length mismatch");
        self.push_windows(bg.len(), |t| bg[t], |t| commanded[t]);
    }

    /// The shared windowing + reservoir core behind [`push_trace`] and
    /// [`push_series`]: per-step values come through accessors so both
    /// row-oriented and columnar callers drive identical sampling.
    ///
    /// [`push_trace`]: TraceDataset::push_trace
    /// [`push_series`]: TraceDataset::push_series
    fn push_windows(
        &mut self,
        n: usize,
        bg_at: impl Fn(usize) -> f64,
        commanded_at: impl Fn(usize) -> f64,
    ) {
        self.traces += 1;
        if n < self.window + self.horizon {
            return;
        }
        for start in 0..=(n - self.window - self.horizon) {
            let i = self.seen;
            self.seen += 1;
            let slot = if self.cap == 0 || self.x.len() < self.cap {
                self.x.len() // append
            } else {
                let j = (splitmix64(self.seed ^ (i as u64)) % (i as u64 + 1)) as usize;
                if j >= self.cap {
                    continue; // rejected by the reservoir
                }
                j // replace
            };
            let pair_x: Vec<Vec<f64>> = (start..start + self.window)
                .map(|t| vec![bg_at(t), commanded_at(t)])
                .collect();
            let pair_y: Vec<f64> = (start + self.horizon..start + self.window + self.horizon)
                .map(&bg_at)
                .collect();
            if slot == self.x.len() {
                self.x.push(pair_x);
                self.y.push(pair_y);
            } else {
                self.x[slot] = pair_x;
                self.y[slot] = pair_y;
            }
        }
    }

    /// Finalizes into a [`ForecastSet`].
    pub fn into_set(self) -> ForecastSet {
        ForecastSet::new(self.x, self.y)
    }
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

    use aps_types::{MgDl, SimTrace, Step, StepRecord, TraceMeta, UnitsPerHour};

    fn ramp_trace(n: u32) -> SimTrace {
        let mut t = SimTrace::new(TraceMeta::default());
        for i in 0..n {
            let mut r = StepRecord::blank(Step(i));
            r.bg = MgDl(100.0 + f64::from(i));
            r.bg_true = r.bg;
            r.commanded = UnitsPerHour(1.0 + 0.1 * f64::from(i));
            r.delivered = r.commanded;
            t.push(r);
        }
        t
    }

    #[test]
    fn trace_dataset_windows_and_targets() {
        let mut ds = TraceDataset::new(4, 3);
        ds.push_trace(&ramp_trace(10));
        // Starts s = 0..=3 (the last target needs s+4-1+3 <= 9).
        assert_eq!(ds.len(), 4);
        assert_eq!(ds.seen(), 4);
        let set = ds.into_set();
        assert_eq!(set.window(), 4);
        assert_eq!(set.dim(), TraceDataset::DIM);
        // First window covers steps 0..=3; targets are BG at 3..=6.
        assert_eq!(set.x[0][0], vec![100.0, 1.0]);
        assert_eq!(set.x[0][3][0], 103.0);
        assert_eq!(set.y[0], vec![103.0, 104.0, 105.0, 106.0]);
        // Last window covers 3..=6, targets 6..=9.
        assert_eq!(set.y[3], vec![106.0, 107.0, 108.0, 109.0]);
    }

    #[test]
    fn trace_dataset_short_traces_are_skipped() {
        let mut ds = TraceDataset::new(6, 6);
        ds.push_trace(&ramp_trace(11));
        assert!(ds.is_empty());
        assert_eq!(ds.traces(), 1);
    }

    #[test]
    fn trace_dataset_reservoir_is_bounded_and_deterministic() {
        let build = |cap, seed| {
            let mut ds = TraceDataset::with_cap(4, 2, cap, seed);
            for n in [40u32, 60, 80] {
                ds.push_trace(&ramp_trace(n));
            }
            ds
        };
        let a = build(50, 7);
        assert_eq!(a.len(), 50);
        assert!(a.seen() > 100);
        assert_eq!(a, build(50, 7), "same seed must reproduce exactly");
        assert_ne!(
            a.y,
            build(50, 8).y,
            "different seeds should sample differently"
        );
        // Uncapped keeps everything.
        assert_eq!(build(0, 7).len(), a.seen());
    }

    #[test]
    fn push_series_matches_push_trace_exactly() {
        let traces: Vec<SimTrace> = [40u32, 13, 60, 5, 80]
            .iter()
            .map(|&n| ramp_trace(n))
            .collect();
        let mut rows = TraceDataset::with_cap(4, 2, 50, 7);
        let mut cols = TraceDataset::with_cap(4, 2, 50, 7);
        for t in &traces {
            rows.push_trace(t);
            let bg: Vec<f64> = t.records.iter().map(|r| r.bg.value()).collect();
            let cmd: Vec<f64> = t.records.iter().map(|r| r.commanded.value()).collect();
            cols.push_series(&bg, &cmd);
        }
        assert_eq!(rows, cols, "columnar path must drive identical sampling");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn push_series_rejects_ragged_columns() {
        let mut ds = TraceDataset::new(2, 1);
        ds.push_series(&[1.0, 2.0], &[1.0]);
    }

    #[test]
    fn forecast_set_standardize_and_split() {
        let mut ds = TraceDataset::new(3, 2);
        ds.push_trace(&ramp_trace(30));
        let mut set = ds.into_set();
        let scaler = StandardScaler::fit_sequences(&set.x);
        set.standardize(&scaler);
        let mean0: f64 = set.x.iter().flatten().map(|r| r[0]).sum::<f64>()
            / set.x.iter().map(|s| s.len()).sum::<usize>() as f64;
        assert!(mean0.abs() < 1e-9, "feature 0 mean {mean0}");
        let (train, val) = set.split(0.25, 3);
        assert_eq!(train.len() + val.len(), set.len());
        assert!(!val.is_empty());
    }

    #[test]
    fn transform_into_matches_transform() {
        let d = toy();
        let scaler = StandardScaler::fit(&d);
        let mut out = vec![0.0; 2];
        scaler.transform_into(&[3.0, 8.0], &mut out);
        assert_eq!(out, scaler.transform(&[3.0, 8.0]));
        let mut in_place = vec![3.0, 8.0];
        scaler.transform_in_place(&mut in_place);
        assert_eq!(in_place, out);
    }
}
