//! Insulin-on-board (IOB) estimation from delivery history.
//!
//! Both the OpenAPS-style controller and the paper's context-aware
//! monitor estimate IOB "based on previous insulin deliveries". The
//! estimator here keeps a sliding window of past micro-deliveries (one
//! per control cycle) and sums the *remaining fraction* of each
//! according to an insulin activity curve.

use aps_types::{Units, UnitsPerHour};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IobEstimator {
    curve: IobCurve,
    /// (birth_cycle, amount_units) pairs, newest last. Each entry
    /// remembers the [`now`](#structfield.now) tick at which it was
    /// recorded; its age in cycles is `now - birth_cycle`. Keeping ages
    /// implicit makes [`record`](IobEstimator::record) O(1) outside the
    /// window sum (no per-entry aging pass), and keeping them as
    /// *integer cycle counts* means an integer index addresses the
    /// memoized activity table directly — no per-entry float division
    /// or grid-alignment check in the window sum, which runs once per
    /// control cycle and used to dominate the campaign's non-physics
    /// time.
    deliveries: VecDeque<(u32, f64)>,
    /// Monotone cycle counter; advanced once per
    /// [`record`](IobEstimator::record).
    now: u32,
    /// Basal-equilibrium IOB subtracted so that "IOB" means insulin
    /// *above* the steady basal background (0 disables).
    baseline: f64,
    last_iob: Option<f64>,
    last_diob: f64,
    cycle_minutes: f64,
    /// Memoized `curve.remaining(k * cycle_minutes)`. Every delivery's
    /// age is an exact multiple of the cycle length, so the window sum
    /// never needs to re-evaluate the (expensive, `exp`-heavy) curve —
    /// the table value at index `k` is the identical `f64` the direct
    /// call would produce. Cloned from a process-wide per-curve cache
    /// (the free function `remaining_table`).
    #[serde(default)]
    remaining_table: Vec<f64>,
}

impl IobEstimator {
    /// Creates an estimator with the given activity curve and control
    /// cycle length.
    pub fn new(curve: IobCurve, cycle_minutes: f64) -> IobEstimator {
        assert!(cycle_minutes > 0.0, "cycle length must be positive");
        IobEstimator {
            curve,
            deliveries: VecDeque::new(),
            now: 0,
            baseline: 0.0,
            last_iob: None,
            last_diob: 0.0,
            cycle_minutes,
            remaining_table: remaining_table(&curve, cycle_minutes),
        }
    }

    /// Remaining fraction at an age of `k` whole cycles: a direct table
    /// index (the steady-state case), falling back to the curve for
    /// ages past the table (only reachable with a hand-built table).
    #[inline]
    fn remaining_at_cycles(&self, k: u32) -> f64 {
        match self.remaining_table.get(k as usize) {
            Some(&r) => r,
            None => self.curve.remaining(k as f64 * self.cycle_minutes),
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
        // per distinct curve and cached process-wide.
        let per_min = basal.value() / 60.0;
        self.baseline = per_min * basal_remaining_integral(&self.curve);
        // Keep the cached estimate consistent with the new baseline.
        if self.last_iob.is_some() {
            self.last_iob = Some(self.raw_iob());
        }
    }

    /// Records one control cycle's delivery and ages the window.
    pub fn record(&mut self, delivered: UnitsPerHour) {
        let amount = delivered
            .max_zero()
            .over_minutes(self.cycle_minutes)
            .value();
        self.now += 1;
        self.deliveries.push_back((self.now, amount));
        let horizon = self.curve.horizon_minutes();
        while let Some(&(birth, _)) = self.deliveries.front() {
            if f64::from(self.now - birth) * self.cycle_minutes > horizon {
                self.deliveries.pop_front();
            } else {
                break;
            }
        }
        let iob = self.raw_iob();
        if let Some(prev) = self.last_iob {
            self.last_diob = (iob - prev) / self.cycle_minutes;
        }
        self.last_iob = Some(iob);
    }

    fn raw_iob(&self) -> f64 {
        let total: f64 = self
            .deliveries
            .iter()
            .map(|&(birth, amount)| amount * self.remaining_at_cycles(self.now - birth))
            .sum();
        total - self.baseline
    }

    /// Current IOB estimate (U), net of the basal baseline. Negative
    /// values mean the patient is running *below* basal insulinization
    /// (matching oref0's net-IOB convention, where suspending insulin
    /// drives IOB negative).
    ///
    /// O(1): the window sum is maintained by [`record`] /
    /// [`prefill_basal`] and cannot change between deliveries (ages
    /// only advance on `record`). The seed recomputed the full
    /// `exp`-heavy window sum on every read — several times per
    /// control cycle — which dominated campaign run time.
    ///
    /// [`record`]: IobEstimator::record
    /// [`prefill_basal`]: IobEstimator::prefill_basal
    pub fn iob(&self) -> Units {
        Units(self.last_iob.unwrap_or(0.0))
    }

    /// Rate of change of IOB between the last two cycles (U/min).
    pub fn diob_per_min(&self) -> f64 {
        self.last_diob
    }

    /// Forgets all history (new simulation).
    pub fn reset(&mut self) {
        self.deliveries.clear();
        self.now = 0;
        self.last_iob = None;
        self.last_diob = 0.0;
    }

    /// Pre-fills the window as if `basal` had been running forever, so
    /// a simulation starts at basal equilibrium instead of zero IOB.
    pub fn prefill_basal(&mut self, basal: UnitsPerHour) {
        self.reset();
        let horizon = self.curve.horizon_minutes();
        let steps = (horizon / self.cycle_minutes).ceil() as u32;
        let amount = basal.max_zero().over_minutes(self.cycle_minutes).value();
        // Oldest first: ages `steps * cycle` down to `1 * cycle`
        // (expressed as birth ticks relative to `now = steps`).
        self.now = steps;
        for k in (1..=steps).rev() {
            self.deliveries.push_back((steps - k, amount));
        }
        self.last_iob = Some(self.raw_iob());
        self.last_diob = 0.0;
    }
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
