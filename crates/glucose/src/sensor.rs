//! Continuous glucose monitor (CGM) sampling model.
//!
//! The paper assumes sensor data delivered to controller and monitor is
//! fault-free (protected by existing techniques), so the default sensor
//! is noise-free; white Gaussian noise, quantization, and the full
//! colored-noise calibration error model of
//! [`sensor_error`](crate::sensor_error) are available for robustness
//! experiments.

use crate::sensor_error::{CgmErrorModel, ErrorModelConfig};
use aps_types::{MgDl, CONTROL_CYCLE_MINUTES};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// CGM configuration.
///
/// `Copy`: the config is a handful of scalars, so per-run sensor
/// construction copies it instead of cloning heap data.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CgmConfig {
    /// Standard deviation of additive white Gaussian noise (mg/dL);
    /// 0 = clean.
    pub noise_sd: f64,
    /// Reporting resolution (mg/dL); CGMs report integers.
    pub quantization: f64,
    /// RNG seed for reproducible noise.
    pub seed: u64,
    /// Optional realistic (AR(1) + calibration drift) error model,
    /// applied *instead of* the white noise.
    #[serde(default)]
    pub error_model: Option<ErrorModelConfig>,
}

impl Default for CgmConfig {
    fn default() -> CgmConfig {
        CgmConfig {
            noise_sd: 0.0,
            quantization: 1.0,
            seed: 7,
            error_model: None,
        }
    }
}

/// A CGM sensor sampling a patient's glucose once per control cycle.
#[derive(Debug, Clone)]
pub struct Cgm {
    config: CgmConfig,
    rng: ChaCha8Rng,
    error_model: Option<CgmErrorModel>,
    last: Option<MgDl>,
}

impl Cgm {
    /// Creates a sensor from configuration.
    pub fn new(config: CgmConfig) -> Cgm {
        let rng = ChaCha8Rng::seed_from_u64(config.seed);
        let error_model = config.error_model.map(CgmErrorModel::new);
        Cgm {
            config,
            rng,
            error_model,
            last: None,
        }
    }

    /// Samples the true glucose, applying noise and quantization.
    pub fn sample(&mut self, true_bg: MgDl) -> MgDl {
        let mut v = match self.error_model.as_mut() {
            Some(model) => model.distort(true_bg, CONTROL_CYCLE_MINUTES).value(),
            None => {
                let mut v = true_bg.value();
                if self.config.noise_sd > 0.0 {
                    // Box-Muller transform for a standard normal draw.
                    let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
                    let u2: f64 = self.rng.gen_range(0.0..1.0);
                    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                    v += z * self.config.noise_sd;
                }
                v
            }
        };
        let q = self.config.quantization.max(f64::MIN_POSITIVE);
        v = (v / q).round() * q;
        let reading = MgDl(v).clamp_physiological();
        self.last = Some(reading);
        reading
    }

    /// The most recent reading, if any.
    pub fn last(&self) -> Option<MgDl> {
        self.last
    }
}

impl Default for Cgm {
    fn default() -> Cgm {
        Cgm::new(CgmConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_sensor_quantizes_only() {
        let mut cgm = Cgm::default();
        assert_eq!(cgm.sample(MgDl(123.4)), MgDl(123.0));
        assert_eq!(cgm.last(), Some(MgDl(123.0)));
    }

    #[test]
    fn noise_is_reproducible_per_seed() {
        let cfg = CgmConfig {
            noise_sd: 5.0,
            ..CgmConfig::default()
        };
        let mut a = Cgm::new(cfg);
        let mut b = Cgm::new(cfg);
        for _ in 0..10 {
            assert_eq!(a.sample(MgDl(120.0)), b.sample(MgDl(120.0)));
        }
    }

    #[test]
    fn noise_has_roughly_zero_mean() {
        let cfg = CgmConfig {
            noise_sd: 5.0,
            quantization: 0.001,
            ..CgmConfig::default()
        };
        let mut cgm = Cgm::new(cfg);
        let n = 2000;
        let mean: f64 = (0..n)
            .map(|_| cgm.sample(MgDl(120.0)).value() - 120.0)
            .sum::<f64>()
            / n as f64;
        assert!(mean.abs() < 0.5, "noise mean {mean}");
    }

    #[test]
    fn readings_stay_physiological() {
        let cfg = CgmConfig {
            noise_sd: 100.0,
            ..CgmConfig::default()
        };
        let mut cgm = Cgm::new(cfg);
        for _ in 0..100 {
            let r = cgm.sample(MgDl(15.0)).value();
            assert!((10.0..=600.0).contains(&r));
        }
    }
}
