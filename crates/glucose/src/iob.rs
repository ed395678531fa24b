//! Insulin-on-board (IOB) estimation from delivery history.
//!
//! Both the OpenAPS-style controller and the paper's context-aware
//! monitor estimate IOB "based on previous insulin deliveries". The
//! estimate is the sum, over a sliding window of past micro-deliveries
//! (one per control cycle), of the *remaining fraction* of each
//! according to an insulin activity curve.

use aps_types::{Units, UnitsPerHour};
use serde::{Deserialize, Serialize};

/// An insulin activity curve: what fraction of a dose is still active
/// `age` minutes after delivery.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum IobCurve {
    /// Linear decay over the duration of insulin action (DIA): simple,
    /// transparent, oref0's historical default shape.
    Linear {
        /// Duration of insulin action in minutes.
        dia_minutes: f64,
    },
    /// Bi-exponential decay, the smooth two-compartment absorption
    /// model used by modern oref0 "exponential" curves.
    BiExponential {
        /// Fast compartment time constant (min).
        tau1: f64,
        /// Slow compartment time constant (min).
        tau2: f64,
    },
}

impl IobCurve {
    /// The default curve: bi-exponential with τ₁ = 55, τ₂ = 70 minutes
    /// (≈ 5 h effective DIA).
    pub fn default_exponential() -> IobCurve {
        IobCurve::BiExponential {
            tau1: 55.0,
            tau2: 70.0,
        }
    }

    /// Fraction of a dose still active `age_minutes` after delivery,
    /// in `[0, 1]`, monotonically non-increasing in age.
    pub fn remaining(&self, age_minutes: f64) -> f64 {
        let t = age_minutes.max(0.0);
        match *self {
            IobCurve::Linear { dia_minutes } => (1.0 - t / dia_minutes).max(0.0),
            IobCurve::BiExponential { tau1, tau2 } => {
                if (tau1 - tau2).abs() < 1e-9 {
                    // Degenerate to Erlang-2 remaining fraction.
                    let x = t / tau1;
                    ((1.0 + x) * (-x).exp()).clamp(0.0, 1.0)
                } else {
                    let r = (tau1 * (-t / tau1).exp() - tau2 * (-t / tau2).exp()) / (tau1 - tau2);
                    r.clamp(0.0, 1.0)
                }
            }
        }
    }

    /// Horizon beyond which remaining activity is negligible (<0.5%).
    pub fn horizon_minutes(&self) -> f64 {
        match *self {
            IobCurve::Linear { dia_minutes } => dia_minutes,
            IobCurve::BiExponential { tau1, tau2 } => 7.0 * tau1.max(tau2),
        }
    }
}

/// Sliding-window IOB estimator.
///
/// Feed one delivery per control cycle with
/// [`record`](IobEstimator::record); read the current estimate with
/// [`iob`](IobEstimator::iob) and its rate of change with
/// [`diob_per_min`](IobEstimator::diob_per_min).
///
/// A delivery stays in the window for the `W` whole-cycle ages
/// `0..W` with `age * cycle <= horizon`, so it contributes to exactly
/// the next `W` window sums, and its term in each is known the moment
/// it is recorded. The estimator keeps those sums *pending* instead of
/// re-folding the window: [`record`](IobEstimator::record) scatters
/// `amount * remaining(age)` into the `W` pending sums (independent
/// adds, no dependent chain) and takes the one that is now complete.
/// Every sum receives the same products, in the same oldest-first
/// order, starting from the same `-0.0` seed as std's `f64` [`Sum`]
/// over the window; rustc never contracts a multiply and an add into
/// an FMA, so each value is bit-identical to that fold.
///
/// [`Sum`]: std::iter::Sum
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IobEstimator {
    curve: IobCurve,
    /// Ring of the next `W` window sums, without the baseline: the
    /// sum completed by the `k`-th next [`record`](IobEstimator::record)
    /// (`k = 0, 1, ..`) sits at `pending[(head + k) % W]`. A slot is
    /// re-seeded with `-0.0` when its sum completes.
    pending: Vec<f64>,
    /// Ring index of the sum the next record completes.
    head: usize,
    /// Basal-equilibrium IOB subtracted so that "IOB" means insulin
    /// *above* the steady basal background (0 disables).
    baseline: f64,
    /// Window sum of the last record or prefill, without the baseline;
    /// `None` until the first one.
    last_raw: Option<f64>,
    last_diob: f64,
    cycle_minutes: f64,
    /// Memoized `curve.remaining(k * cycle_minutes)`. Every delivery's
    /// age is an exact multiple of the cycle length, so the estimator
    /// never re-evaluates the (expensive, `exp`-heavy) curve — the
    /// table value at index `k` is the identical `f64` the direct call
    /// would produce. Cloned from a process-wide per-curve cache (the
    /// free function `remaining_table`).
    remaining_table: Vec<f64>,
}

impl IobEstimator {
    /// Creates an estimator with the given activity curve and control
    /// cycle length. The curve's horizon must be finite.
    pub fn new(curve: IobCurve, cycle_minutes: f64) -> IobEstimator {
        assert!(cycle_minutes > 0.0, "cycle length must be positive");
        let window = window_len(curve.horizon_minutes(), cycle_minutes);
        IobEstimator {
            curve,
            pending: vec![-0.0; window],
            head: 0,
            baseline: 0.0,
            last_raw: None,
            last_diob: 0.0,
            cycle_minutes,
            remaining_table: remaining_table(&curve, cycle_minutes),
        }
    }

    /// Sets the basal-equilibrium baseline to subtract: the IOB that a
    /// constant `basal` infusion sustains forever.
    pub fn set_basal_baseline(&mut self, basal: UnitsPerHour) {
        // Steady-state IOB of a constant rate = rate * integral of the
        // remaining fraction (numerically at 1-min resolution). The
        // integral depends only on the curve, and every controller
        // construction used to pay the full ~500-term `exp` sum — a
        // visible slice of campaign job setup — so it is computed once
        // per distinct curve and cached process-wide. Reads subtract
        // it from the last raw sum, so the current estimate follows.
        let per_min = basal.value() / 60.0;
        self.baseline = per_min * basal_remaining_integral(&self.curve);
    }

    /// Records one control cycle's delivery and ages the window.
    pub fn record(&mut self, delivered: UnitsPerHour) {
        let amount = delivered
            .max_zero()
            .over_minutes(self.cycle_minutes)
            .value();
        // The pending sum `k` records ahead gets this delivery at age
        // `k`: two contiguous runs of the ring, each an independent
        // multiply-add per slot that vectorizes.
        let window = self.pending.len();
        let (wrapped, ahead) = self.pending.split_at_mut(self.head);
        let (near, far) = self.remaining_table[..window].split_at(ahead.len());
        for (sum, &r) in ahead.iter_mut().zip(near) {
            *sum += amount * r;
        }
        for (sum, &r) in wrapped.iter_mut().zip(far) {
            *sum += amount * r;
        }
        let raw = match self.pending.get_mut(self.head) {
            Some(done) => std::mem::replace(done, -0.0),
            // An empty window (negative horizon) sums nothing.
            None => -0.0,
        };
        self.head += 1;
        if self.head >= window {
            self.head = 0;
        }
        if let Some(prev) = self.last_raw {
            let iob = raw - self.baseline;
            self.last_diob = (iob - (prev - self.baseline)) / self.cycle_minutes;
        }
        self.last_raw = Some(raw);
    }

    /// Current IOB estimate (U), net of the basal baseline. Negative
    /// values mean the patient is running *below* basal insulinization
    /// (matching oref0's net-IOB convention, where suspending insulin
    /// drives IOB negative).
    ///
    /// O(1): the window sum is completed by [`record`] /
    /// [`prefill_basal`] and cannot change between deliveries (ages
    /// only advance on `record`).
    ///
    /// [`record`]: IobEstimator::record
    /// [`prefill_basal`]: IobEstimator::prefill_basal
    pub fn iob(&self) -> Units {
        Units(self.last_raw.map_or(0.0, |raw| raw - self.baseline))
    }

    /// Rate of change of IOB between the last two cycles (U/min).
    pub fn diob_per_min(&self) -> f64 {
        self.last_diob
    }

    /// Forgets all history (new simulation).
    pub fn reset(&mut self) {
        self.pending.fill(-0.0);
        self.head = 0;
        self.last_raw = None;
        self.last_diob = 0.0;
    }

    /// Pre-fills the window as if `basal` had been running forever, so
    /// a simulation starts at basal equilibrium instead of zero IOB.
    ///
    /// The prefill holds one delivery at each age `steps..=1` cycles,
    /// `steps = ceil(horizon / cycle)`; the current estimate is their
    /// oldest-first fold. By the `(m + 1)`-th record after the prefill
    /// every prefill term has aged `m + 1` more cycles and those past
    /// age `W - 1` have left the window, so pending sum `m` starts as
    /// the fold of the prefill terms at ages (as of that record) `W - 1`
    /// down to `m + 2`. Each such fold extends the next slot's by one
    /// term, so one running chain fills the ring in place.
    pub fn prefill_basal(&mut self, basal: UnitsPerHour) {
        self.reset();
        let horizon = self.curve.horizon_minutes();
        let steps = (horizon / self.cycle_minutes).ceil() as usize;
        let amount = basal.max_zero().over_minutes(self.cycle_minutes).value();
        let table = &self.remaining_table;
        let window = self.pending.len();
        debug_assert!(window <= steps + 2, "prefill must cover the window");
        let mut chain = -0.0;
        for age in (2..window).rev() {
            chain += amount * table[age];
            self.pending[age - 2] = chain;
        }
        let raw: f64 = table[1..=steps].iter().rev().map(|&r| amount * r).sum();
        self.last_raw = Some(raw);
        self.last_diob = 0.0;
    }
}

/// Number of whole-cycle ages `0..W` a delivery stays in the window:
/// those with `age * cycle_minutes <= horizon`. Zero for a negative
/// horizon.
fn window_len(horizon: f64, cycle_minutes: f64) -> usize {
    let mut window = ((horizon / cycle_minutes).ceil() as usize).saturating_add(1);
    while window > 0 && (window - 1) as f64 * cycle_minutes > horizon {
        window -= 1;
    }
    window
}

impl IobCurve {
    /// Exact bit pattern of the curve, for cache lookups: unlike `==`
    /// it tells `-0.0` from `0.0` and matches a NaN parameter to
    /// itself, so a cache hit always returns what recomputing would.
    fn bits_key(&self) -> [u64; 3] {
        match *self {
            IobCurve::Linear { dia_minutes } => [0, dia_minutes.to_bits(), 0],
            IobCurve::BiExponential { tau1, tau2 } => [1, tau1.to_bits(), tau2.to_bits()],
        }
    }
}

/// Locks a process-wide append-only cache.
fn lock_cache<T>(cache: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match cache.lock() {
        Ok(guard) => guard,
        // sound: a poisoned lock only means another thread panicked
        // mid-push; the Vec is append-only and every stored pair is
        // complete, so the data is still valid.
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// `curve.remaining(k * cycle_minutes)` on the cycle grid out to the
/// horizon (plus one slot for the pop boundary), from a process-wide
/// cache keyed by the curve's and the cycle length's exact bits.
///
/// Every controller and every monitor context owns an estimator, and
/// building the table costs two `exp` calls per slot — most of a
/// campaign job's set-up — while a campaign uses one or two distinct
/// curves. The cached values are the identical `f64`s a fresh
/// computation produces.
fn remaining_table(curve: &IobCurve, cycle_minutes: f64) -> Vec<f64> {
    use std::sync::Mutex;
    type Key = ([u64; 3], u64);
    static CACHE: Mutex<Vec<(Key, Vec<f64>)>> = Mutex::new(Vec::new());
    let key = (curve.bits_key(), cycle_minutes.to_bits());
    let mut cache = lock_cache(&CACHE);
    if let Some((_, table)) = cache.iter().find(|(k, _)| *k == key) {
        return table.clone();
    }
    let slots = (curve.horizon_minutes() / cycle_minutes).ceil() as usize + 2;
    let table: Vec<f64> = (0..slots)
        .map(|k| curve.remaining(k as f64 * cycle_minutes))
        .collect();
    cache.push((key, table.clone()));
    table
}

/// Process-wide cache of `Σ curve.remaining(t)` over the 1-min grid
/// `t = 0, 1, .. < horizon` — the basal-equilibrium integral used by
/// [`IobEstimator::set_basal_baseline`]. A linear scan over a tiny Vec:
/// real campaigns use one or two distinct curves, so exact-bits lookup
/// is both cheap and — by reusing the identical cached `f64` —
/// bit-identical to recomputing.
fn basal_remaining_integral(curve: &IobCurve) -> f64 {
    use std::sync::Mutex;
    static CACHE: Mutex<Vec<([u64; 3], f64)>> = Mutex::new(Vec::new());
    let key = curve.bits_key();
    let mut cache = lock_cache(&CACHE);
    if let Some(&(_, sum)) = cache.iter().find(|(k, _)| *k == key) {
        return sum;
    }
    let horizon = curve.horizon_minutes();
    let mut sum = 0.0;
    let mut t = 0.0;
    while t < horizon {
        sum += curve.remaining(t);
        t += 1.0;
    }
    cache.push((key, sum));
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curves_start_at_one_and_decay() {
        for curve in [
            IobCurve::Linear { dia_minutes: 180.0 },
            IobCurve::default_exponential(),
            IobCurve::BiExponential {
                tau1: 60.0,
                tau2: 60.0,
            },
        ] {
            assert!((curve.remaining(0.0) - 1.0).abs() < 1e-9, "{curve:?}");
            let mut prev = 1.0;
            let mut t = 0.0;
            while t < curve.horizon_minutes() {
                let r = curve.remaining(t);
                assert!(r <= prev + 1e-12, "{curve:?} not monotone at {t}");
                assert!((0.0..=1.0).contains(&r));
                prev = r;
                t += 5.0;
            }
            assert!(curve.remaining(curve.horizon_minutes()) < 0.01);
        }
    }

    #[test]
    fn bolus_iob_decays_to_zero() {
        let mut est = IobEstimator::new(IobCurve::Linear { dia_minutes: 60.0 }, 5.0);
        est.record(UnitsPerHour(12.0)); // 1 U in 5 min
        assert!((est.iob().value() - 1.0).abs() < 1e-9);
        for _ in 0..13 {
            est.record(UnitsPerHour(0.0));
        }
        assert!(est.iob().value() < 1e-9, "iob = {:?}", est.iob());
    }

    #[test]
    fn diob_sign_tracks_delivery_changes() {
        let mut est = IobEstimator::new(IobCurve::default_exponential(), 5.0);
        est.prefill_basal(UnitsPerHour(1.0));
        // Step the rate up: IOB rises.
        est.record(UnitsPerHour(4.0));
        est.record(UnitsPerHour(4.0));
        assert!(est.diob_per_min() > 0.0);
        // Suspend: IOB falls.
        for _ in 0..3 {
            est.record(UnitsPerHour(0.0));
        }
        assert!(est.diob_per_min() < 0.0);
    }

    #[test]
    fn prefill_reaches_steady_state() {
        let mut est = IobEstimator::new(IobCurve::default_exponential(), 5.0);
        est.prefill_basal(UnitsPerHour(1.0));
        let before = est.iob().value();
        est.record(UnitsPerHour(1.0));
        let after = est.iob().value();
        assert!(
            (before - after).abs() < 0.02,
            "steady basal should hold IOB: {before} -> {after}"
        );
    }

    #[test]
    fn baseline_subtraction_zeroes_basal_iob() {
        let mut est = IobEstimator::new(IobCurve::default_exponential(), 5.0);
        est.set_basal_baseline(UnitsPerHour(1.0));
        est.prefill_basal(UnitsPerHour(1.0));
        assert!(
            est.iob().value() < 0.05,
            "net IOB at basal = {:?}",
            est.iob()
        );
        // Extra insulin shows up as positive net IOB.
        for _ in 0..6 {
            est.record(UnitsPerHour(3.0));
        }
        assert!(est.iob().value() > 0.5);
    }

    #[test]
    fn negative_rates_ignored() {
        let mut est = IobEstimator::new(IobCurve::default_exponential(), 5.0);
        est.record(UnitsPerHour(-5.0));
        assert_eq!(est.iob(), Units(0.0));
    }

    #[test]
    fn cached_remaining_table_matches_a_fresh_build() {
        for curve in [
            IobCurve::default_exponential(),
            IobCurve::Linear { dia_minutes: 180.0 },
        ] {
            let cycle = 5.0;
            let cached = remaining_table(&curve, cycle);
            let slots = (curve.horizon_minutes() / cycle).ceil() as usize + 2;
            assert_eq!(cached.len(), slots, "{curve:?}");
            for (k, &r) in cached.iter().enumerate() {
                let fresh = curve.remaining(k as f64 * cycle);
                assert_eq!(r.to_bits(), fresh.to_bits(), "{curve:?} slot {k}");
            }
            // A second construction clones the cached table; after the
            // same prefill it is indistinguishable from one whose table
            // is built from scratch.
            let mut fresh = IobEstimator::new(curve, cycle);
            fresh.remaining_table = (0..slots)
                .map(|k| curve.remaining(k as f64 * cycle))
                .collect();
            let mut cloned = IobEstimator::new(curve, cycle);
            fresh.prefill_basal(UnitsPerHour(1.1));
            cloned.prefill_basal(UnitsPerHour(1.1));
            assert_eq!(cloned, fresh, "{curve:?}");
            assert_eq!(
                cloned.iob().value().to_bits(),
                fresh.iob().value().to_bits()
            );
        }
    }

    #[test]
    fn reset_clears_history() {
        let mut est = IobEstimator::new(IobCurve::default_exponential(), 5.0);
        est.record(UnitsPerHour(6.0));
        assert!(est.iob().value() > 0.0);
        est.reset();
        assert_eq!(est.iob(), Units(0.0));
        assert_eq!(est.diob_per_min(), 0.0);
    }
}
