//! Bit-identity of the pending-sum IOB estimator against the window fold.
//!
//! `IobEstimator` keeps the next window sums pending and scatters each
//! delivery into them. The reference here is the direct form: a window
//! of `(birth_cycle, amount)` pairs that is re-folded, oldest first,
//! with std's `f64` `Sum` after every delivery. After every call the two
//! must agree on `iob()` and `diob_per_min()` to the bit.

use std::collections::VecDeque;

use aps_repro::glucose::iob::{IobCurve, IobEstimator};
use aps_repro::types::UnitsPerHour;

const CYCLE: f64 = 5.0;

/// The window-fold estimator, built only from the public curve.
struct Reference {
    curve: IobCurve,
    /// `curve.remaining(k * CYCLE)` out past the prefill's oldest age.
    table: Vec<f64>,
    deliveries: VecDeque<(u32, f64)>,
    now: u32,
    baseline: f64,
    last_iob: Option<f64>,
    last_diob: f64,
}

impl Reference {
    fn new(curve: IobCurve) -> Reference {
        let slots = (curve.horizon_minutes() / CYCLE).ceil() as usize + 2;
        Reference {
            curve,
            table: (0..slots)
                .map(|k| curve.remaining(k as f64 * CYCLE))
                .collect(),
            deliveries: VecDeque::new(),
            now: 0,
            baseline: 0.0,
            last_iob: None,
            last_diob: 0.0,
        }
    }

    fn raw_iob(&self) -> f64 {
        let total: f64 = self
            .deliveries
            .iter()
            .map(|&(birth, amount)| amount * self.table[(self.now - birth) as usize])
            .sum();
        total - self.baseline
    }

    fn set_basal_baseline(&mut self, basal: f64) {
        let horizon = self.curve.horizon_minutes();
        let mut integral = 0.0;
        let mut t = 0.0;
        while t < horizon {
            integral += self.curve.remaining(t);
            t += 1.0;
        }
        self.baseline = basal / 60.0 * integral;
        if self.last_iob.is_some() {
            self.last_iob = Some(self.raw_iob());
        }
    }

    fn record(&mut self, rate: f64) {
        let amount = UnitsPerHour(rate).max_zero().over_minutes(CYCLE).value();
        self.now += 1;
        self.deliveries.push_back((self.now, amount));
        let horizon = self.curve.horizon_minutes();
        while let Some(&(birth, _)) = self.deliveries.front() {
            if f64::from(self.now - birth) * CYCLE > horizon {
                self.deliveries.pop_front();
            } else {
                break;
            }
        }
        let iob = self.raw_iob();
        if let Some(prev) = self.last_iob {
            self.last_diob = (iob - prev) / CYCLE;
        }
        self.last_iob = Some(iob);
    }

    fn reset(&mut self) {
        self.deliveries.clear();
        self.now = 0;
        self.last_iob = None;
        self.last_diob = 0.0;
    }

    fn prefill_basal(&mut self, basal: f64) {
        self.reset();
        let steps = (self.curve.horizon_minutes() / CYCLE).ceil() as u32;
        let amount = UnitsPerHour(basal).max_zero().over_minutes(CYCLE).value();
        self.now = steps;
        for k in (1..=steps).rev() {
            self.deliveries.push_back((steps - k, amount));
        }
        self.last_iob = Some(self.raw_iob());
        self.last_diob = 0.0;
    }
}

/// One call, applied to both estimators.
#[derive(Debug, Clone, Copy)]
enum Op {
    Record(f64),
    Baseline(f64),
    Prefill(f64),
    Reset,
}

/// The estimator under test and its reference, checked after each call.
struct Pair {
    est: IobEstimator,
    reference: Reference,
    calls: usize,
}

impl Pair {
    fn new(curve: IobCurve) -> Pair {
        Pair {
            est: IobEstimator::new(curve, CYCLE),
            reference: Reference::new(curve),
            calls: 0,
        }
    }

    fn apply(&mut self, op: Op) {
        match op {
            Op::Record(rate) => {
                self.est.record(UnitsPerHour(rate));
                self.reference.record(rate);
            }
            Op::Baseline(basal) => {
                self.est.set_basal_baseline(UnitsPerHour(basal));
                self.reference.set_basal_baseline(basal);
            }
            Op::Prefill(basal) => {
                self.est.prefill_basal(UnitsPerHour(basal));
                self.reference.prefill_basal(basal);
            }
            Op::Reset => {
                self.est.reset();
                self.reference.reset();
            }
        }
        self.calls += 1;
        let want_iob = self.reference.last_iob.unwrap_or(0.0);
        assert_eq!(
            self.est.iob().value().to_bits(),
            want_iob.to_bits(),
            "{:?}: iob after call {} ({op:?}): {} vs {want_iob}",
            self.reference.curve,
            self.calls,
            self.est.iob().value(),
        );
        assert_eq!(
            self.est.diob_per_min().to_bits(),
            self.reference.last_diob.to_bits(),
            "{:?}: diob after call {} ({op:?}): {} vs {}",
            self.reference.curve,
            self.calls,
            self.est.diob_per_min(),
            self.reference.last_diob,
        );
    }
}

fn curves() -> [IobCurve; 4] {
    [
        IobCurve::default_exponential(),
        IobCurve::Linear { dia_minutes: 60.0 },
        // 182 / 5 = 36.4: the prefill holds 37 deliveries (ages 37..=1)
        // while a recorded delivery leaves the window after age 36.
        IobCurve::Linear { dia_minutes: 182.0 },
        // Degenerate bi-exponential (τ₁ = τ₂): the Erlang-2 branch.
        IobCurve::BiExponential {
            tau1: 60.0,
            tau2: 60.0,
        },
    ]
}

/// SplitMix64: a small self-contained stream for reproducible inputs.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A delivery rate: mostly ordinary, with zero, negative-zero,
    /// negative and large rates mixed in.
    fn rate(&mut self) -> f64 {
        match self.next_u64() % 10 {
            0 => 0.0,
            1 => -0.0,
            2 => -3.0 * self.unit(),
            3 => 30.0 * self.unit(),
            _ => 4.0 * self.unit(),
        }
    }

    fn basal(&mut self) -> f64 {
        if self.next_u64().is_multiple_of(5) {
            0.0
        } else {
            0.3 + 2.0 * self.unit()
        }
    }
}

#[test]
fn scripted_stream_matches_the_window_fold() {
    for curve in curves() {
        let mut pair = Pair::new(curve);
        let mut rng = Rng(1);
        // Records before any prefill, into an empty window.
        for _ in 0..5 {
            pair.apply(Op::Record(rng.rate()));
        }
        pair.apply(Op::Baseline(1.1));
        pair.apply(Op::Prefill(1.1));
        // Far past the horizon (98 cycles at most for these curves).
        for i in 0..320 {
            pair.apply(Op::Record(rng.rate()));
            if i == 150 {
                pair.apply(Op::Baseline(0.7));
            }
        }
        // Re-prefill at a different basal after a reset.
        pair.apply(Op::Reset);
        pair.apply(Op::Prefill(2.3));
        for _ in 0..120 {
            pair.apply(Op::Record(rng.rate()));
        }
        // Zero basal: an empty-valued prefill and zero deliveries.
        pair.apply(Op::Baseline(0.0));
        pair.apply(Op::Prefill(0.0));
        for _ in 0..40 {
            pair.apply(Op::Record(0.0));
        }
        pair.apply(Op::Record(-1.0));
        // A reset without a prefill starts from an empty window again.
        pair.apply(Op::Reset);
        for _ in 0..110 {
            pair.apply(Op::Record(rng.rate()));
        }
    }
}

#[test]
fn random_streams_match_the_window_fold() {
    for curve in curves() {
        for seed in 0..24 {
            let mut rng = Rng(seed);
            let mut pair = Pair::new(curve);
            for _ in 0..600 {
                let op = match rng.next_u64() % 100 {
                    0 => Op::Reset,
                    1..=2 => Op::Prefill(rng.basal()),
                    3..=4 => Op::Baseline(rng.basal()),
                    _ => Op::Record(rng.rate()),
                };
                pair.apply(op);
            }
        }
    }
}

#[test]
fn reference_windows_have_the_documented_sizes() {
    // Linear 182 min at 5-min cycles: 37 prefill entries, and a
    // delivery stays in the window through age 36.
    let mut reference = Reference::new(IobCurve::Linear { dia_minutes: 182.0 });
    reference.prefill_basal(1.0);
    assert_eq!(reference.deliveries.len(), 37);
    for _ in 0..100 {
        reference.record(1.0);
    }
    assert_eq!(reference.deliveries.len(), 37);
    let oldest = reference.deliveries.front().map(|&(birth, _)| birth);
    assert_eq!(oldest.map(|birth| reference.now - birth), Some(36));
}
