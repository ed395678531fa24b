//! Order statistics and metric-name rules.

/// Percentiles the tail rule may report, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: f64 = 10.0;

/// Whether `n` samples leave at least [`TAIL_MIN_BEYOND`] beyond
/// percentile `p` (with a tolerance for the rounding of `100 - p`).
fn enough_beyond(n: f64, p: f64) -> bool {
    n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND * (1.0 - 1e-9)
}

/// Sorted copy of finite samples.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Percentile `p` (0–100) by linear interpolation between closest
/// ranks. `None` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(v[lo] + (v[hi] - v[lo]) * frac)
}

/// Median of the samples (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The highest percentile on [`TAIL_LADDER`] that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, with its value. `None` when
/// there are too few samples for any of them.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = sorted(samples).len() as f64;
    TAIL_LADDER
        .iter()
        .find(|&&p| enough_beyond(n, p))
        .and_then(|&p| percentile(samples, p).map(|v| (p, v)))
}

/// The requested percentile `p` when at least [`TAIL_MIN_BEYOND`]
/// samples lie beyond it, otherwise the [`tail`] percentile, otherwise
/// the median. Returns the percentile used with its value.
pub fn tail_at_most(samples: &[f64], p: f64) -> Option<(f64, f64)> {
    let n = sorted(samples).len() as f64;
    if enough_beyond(n, p) {
        return percentile(samples, p).map(|v| (p, v));
    }
    tail(samples)
        .filter(|&(q, _)| q <= p)
        .or_else(|| median(samples).map(|v| (50.0, v)))
}

/// Whether `name` is a valid metric name: one or more of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit, at most 64 long.
pub fn valid_metric_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}
