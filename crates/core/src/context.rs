//! Monitor-side context inference.
//!
//! The monitor only sees the controller's input/output interface: CGM
//! readings in, (delivered) insulin rates out. From that it maintains
//! the paper's context transformation `µ(x) = (BG, BG′, IOB, IOB′)`,
//! estimating IOB from the delivery history exactly as the controller
//! does (same insulin-activity curve), and trend signs with a small
//! dead-band so sensor jitter does not flip them.

use aps_glucose::iob::{IobCurve, IobEstimator};
use aps_types::{MgDl, UnitsPerHour, CONTROL_CYCLE_MINUTES};
use serde::{Deserialize, Serialize};

/// Dead-band on BG′ (mg/dL per 5-min cycle) below which the trend is
/// considered flat.
pub const BG_TREND_EPS: f64 = 0.5;
/// Dead-band on IOB′ (U per minute) below which the trend is flat.
pub const IOB_TREND_EPS: f64 = 5e-4;

/// Sign of a rate of change, with a dead-band.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Trend {
    /// Strictly increasing (beyond the dead-band).
    Rising,
    /// Strictly decreasing.
    Falling,
    /// Within the dead-band.
    Flat,
}

impl Trend {
    /// Classifies a derivative with the given dead-band.
    pub fn of(derivative: f64, eps: f64) -> Trend {
        if derivative > eps {
            Trend::Rising
        } else if derivative < -eps {
            Trend::Falling
        } else {
            Trend::Flat
        }
    }
}

/// The context vector `µ(x_t)` at one control cycle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ContextVector {
    /// Glucose reading (mg/dL).
    pub bg: f64,
    /// Glucose rate of change (mg/dL per cycle).
    pub dbg: f64,
    /// Estimated insulin on board above basal (U).
    pub iob: f64,
    /// IOB rate of change (U/min).
    pub diob: f64,
}

impl ContextVector {
    /// BG trend with the standard dead-band.
    pub fn bg_trend(&self) -> Trend {
        Trend::of(self.dbg, BG_TREND_EPS)
    }

    /// IOB trend with the standard dead-band.
    pub fn iob_trend(&self) -> Trend {
        Trend::of(self.diob, IOB_TREND_EPS)
    }
}

/// Incrementally builds [`ContextVector`]s from the monitor's two
/// observation streams.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContextBuilder {
    estimator: IobEstimator,
    prev_bg: Option<f64>,
    basal: UnitsPerHour,
}

impl ContextBuilder {
    /// Creates a builder whose IOB estimate is relative to the given
    /// basal rate (net IOB, matching the SCS rules' semantics).
    pub fn new(basal: UnitsPerHour) -> ContextBuilder {
        let mut estimator =
            IobEstimator::new(IobCurve::default_exponential(), CONTROL_CYCLE_MINUTES);
        estimator.set_basal_baseline(basal);
        estimator.prefill_basal(basal);
        ContextBuilder {
            estimator,
            prev_bg: None,
            basal,
        }
    }

    /// Builds the context for the current cycle from the latest CGM
    /// reading (call once per cycle, *before*
    /// [`observe_delivery`](Self::observe_delivery)).
    pub fn observe_bg(&mut self, bg: MgDl) -> ContextVector {
        let bg = bg.value();
        let dbg = self.prev_bg.map(|p| bg - p).unwrap_or(0.0);
        self.prev_bg = Some(bg);
        ContextVector {
            bg,
            dbg,
            iob: self.estimator.iob().value(),
            diob: self.estimator.diob_per_min(),
        }
    }

    /// Records what was actually delivered this cycle, updating IOB.
    pub fn observe_delivery(&mut self, delivered: UnitsPerHour) {
        self.estimator.record(delivered);
    }

    /// Resets to basal equilibrium for a fresh run. The IOB baseline
    /// depends only on the curve and the basal, both fixed at
    /// construction, so it is kept.
    pub fn reset(&mut self) {
        self.estimator.prefill_basal(self.basal);
        self.prev_bg = None;
    }

    /// Current IOB estimate (U above basal).
    pub fn iob(&self) -> f64 {
        self.estimator.iob().value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trend_deadband() {
        assert_eq!(Trend::of(1.0, 0.5), Trend::Rising);
        assert_eq!(Trend::of(-1.0, 0.5), Trend::Falling);
        assert_eq!(Trend::of(0.3, 0.5), Trend::Flat);
        assert_eq!(Trend::of(-0.3, 0.5), Trend::Flat);
    }

    #[test]
    fn first_observation_has_flat_bg_trend() {
        let mut cb = ContextBuilder::new(UnitsPerHour(1.0));
        let ctx = cb.observe_bg(MgDl(140.0));
        assert_eq!(ctx.dbg, 0.0);
        assert_eq!(ctx.bg_trend(), Trend::Flat);
    }

    #[test]
    fn dbg_tracks_consecutive_readings() {
        let mut cb = ContextBuilder::new(UnitsPerHour(1.0));
        cb.observe_bg(MgDl(140.0));
        cb.observe_delivery(UnitsPerHour(1.0));
        let ctx = cb.observe_bg(MgDl(130.0));
        assert_eq!(ctx.dbg, -10.0);
        assert_eq!(ctx.bg_trend(), Trend::Falling);
    }

    #[test]
    fn iob_rises_with_extra_insulin_and_falls_on_suspend() {
        let mut cb = ContextBuilder::new(UnitsPerHour(1.0));
        cb.observe_bg(MgDl(120.0));
        for _ in 0..6 {
            cb.observe_delivery(UnitsPerHour(4.0));
        }
        let ctx = cb.observe_bg(MgDl(120.0));
        assert!(ctx.iob > 0.5, "iob = {}", ctx.iob);
        assert_eq!(ctx.iob_trend(), Trend::Rising);
        for _ in 0..6 {
            cb.observe_delivery(UnitsPerHour(0.0));
        }
        let ctx = cb.observe_bg(MgDl(120.0));
        assert_eq!(ctx.iob_trend(), Trend::Falling);
    }

    #[test]
    fn basal_equilibrium_is_flat_near_zero() {
        let mut cb = ContextBuilder::new(UnitsPerHour(1.0));
        cb.observe_bg(MgDl(120.0));
        for _ in 0..5 {
            cb.observe_delivery(UnitsPerHour(1.0));
        }
        let ctx = cb.observe_bg(MgDl(120.0));
        assert!(ctx.iob < 0.1, "net IOB at basal = {}", ctx.iob);
        assert_eq!(ctx.iob_trend(), Trend::Flat);
    }

    #[test]
    fn reset_clears_history() {
        let mut cb = ContextBuilder::new(UnitsPerHour(1.0));
        cb.observe_bg(MgDl(300.0));
        for _ in 0..5 {
            cb.observe_delivery(UnitsPerHour(4.0));
        }
        cb.reset();
        let ctx = cb.observe_bg(MgDl(120.0));
        assert_eq!(ctx.dbg, 0.0);
        assert!(ctx.iob < 0.1);
    }

    #[test]
    fn reset_equals_a_fresh_builder() {
        let basal = UnitsPerHour(0.8);
        let mut cb = ContextBuilder::new(basal);
        for (i, rate) in [4.0, 0.0, 2.5, 0.8, 6.0, 0.0].into_iter().enumerate() {
            cb.observe_bg(MgDl(100.0 + 10.0 * i as f64));
            cb.observe_delivery(UnitsPerHour(rate));
        }
        cb.reset();
        assert_eq!(cb, ContextBuilder::new(basal));
    }
}
