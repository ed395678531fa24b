//! Training-loop plumbing for the scratch LSTM trainer: the
//! Fisher–Yates shuffle, the shuffled validation split, and the
//! early-stopping epoch loop.
//!
//! The draw sequence of [`shuffle`]/[`val_split`] is exactly the one
//! the pre-refactor implementations performed, so `Lstm::fit` remains
//! bit-identical to the retained allocating `Lstm::fit_reference`
//! (which keeps its own verbatim copy of these loops on purpose — it
//! is the frozen executable specification, not live code).

use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// In-place Fisher–Yates shuffle.
pub(crate) fn shuffle(order: &mut [usize], rng: &mut ChaCha8Rng) {
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
}

/// Shuffled validation split over `0..n`: returns `(train, val)` index
/// sets, falling back to training on everything when the split would
/// leave the training side empty.
pub(crate) fn val_split(
    n: usize,
    val_fraction: f64,
    rng: &mut ChaCha8Rng,
) -> (Vec<usize>, Vec<usize>) {
    let mut idx: Vec<usize> = (0..n).collect();
    shuffle(&mut idx, rng);
    let n_val = ((n as f64) * val_fraction).round() as usize;
    let (val_idx, train_idx) = idx.split_at(n_val.min(n));
    let train = if train_idx.is_empty() {
        idx.clone()
    } else {
        train_idx.to_vec()
    };
    (train, val_idx.to_vec())
}

/// Shared scaling policy of global-norm gradient clipping: the factor
/// to multiply every gradient tensor by (`1.0` when the norm is within
/// `clip_norm`). Callers keep the shape-specific norm accumulation and
/// scaling loops (so their zero-allocation property holds) but share
/// the threshold semantics.
pub(crate) fn clip_factor(norm_sq: f64, clip_norm: f64) -> f64 {
    let norm = norm_sq.sqrt();
    if norm > clip_norm {
        clip_norm / norm
    } else {
        1.0
    }
}

/// The index/schedule inputs of one early-stopped training run.
pub(crate) struct EpochPlan<'a> {
    pub(crate) max_epochs: usize,
    pub(crate) batch_size: usize,
    pub(crate) patience: usize,
    pub(crate) train_idx: &'a [usize],
    pub(crate) val_idx: &'a [usize],
}

/// The shuffled-minibatch / validation / early-stopping epoch loop,
/// generic over the training context `C` (closures receive `ctx`
/// explicitly so one `&mut C` serves all three hooks). Draw sequence
/// per epoch: one [`shuffle`] of the training order — identical to the
/// frozen `Lstm::fit_reference` loop, preserving scratch-vs-reference
/// bit-identity.
///
/// Returns the best snapshot: `snapshot(ctx, epoch)` is invoked
/// whenever the validation loss improves, with `epoch` the 1-based
/// epoch count that produced it.
pub(crate) fn train_epochs<C, M>(
    ctx: &mut C,
    plan: &EpochPlan<'_>,
    rng: &mut ChaCha8Rng,
    initial: M,
    mut train_batch: impl FnMut(&mut C, &[usize]),
    mut val_loss: impl FnMut(&mut C, &[usize]) -> f64,
    mut snapshot: impl FnMut(&mut C, usize) -> M,
) -> M {
    let mut best = initial;
    let mut stopper = EarlyStopper::new(plan.patience);
    let mut order = plan.train_idx.to_vec();
    let mut epoch = 0usize;
    for _ in 0..plan.max_epochs {
        epoch += 1;
        shuffle(&mut order, rng);
        for chunk in order.chunks(plan.batch_size.max(1)) {
            train_batch(ctx, chunk);
        }
        let vset = if plan.val_idx.is_empty() {
            plan.train_idx
        } else {
            plan.val_idx
        };
        let vloss = val_loss(ctx, vset);
        if stopper.improved(vloss) {
            best = snapshot(ctx, epoch);
        } else if stopper.should_stop() {
            break;
        }
    }
    best
}

/// Early-stopping state: best validation loss seen and epochs since it
/// improved.
pub(crate) struct EarlyStopper {
    best: f64,
    since: usize,
    patience: usize,
}

impl EarlyStopper {
    /// The minimum validation improvement that counts, frozen by
    /// `Lstm::fit_reference` bit-identity.
    const TOL: f64 = 1e-6;

    pub(crate) fn new(patience: usize) -> EarlyStopper {
        EarlyStopper {
            best: f64::INFINITY,
            since: 0,
            patience,
        }
    }

    /// Records an epoch's validation loss; `true` when it improved
    /// (the caller snapshots the model then).
    pub(crate) fn improved(&mut self, vloss: f64) -> bool {
        if vloss < self.best - Self::TOL {
            self.best = vloss;
            self.since = 0;
            true
        } else {
            self.since += 1;
            false
        }
    }

    /// `true` once `patience` consecutive epochs failed to improve.
    pub(crate) fn should_stop(&self) -> bool {
        self.since > self.patience
    }
}
