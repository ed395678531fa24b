//! Experiment workload options and minimal CLI flag parsing.

use aps_fault::CampaignConfig;
use aps_glucose::patients::COHORT_SIZE;
use aps_glucose::sensor::CgmConfig;
use aps_sim::campaign::CampaignSpec;
use aps_sim::platform::Platform;
use serde::{Deserialize, Serialize};

/// Workload scaling options shared by all experiments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExpOpts {
    /// Cohort indices to simulate.
    pub patients: Vec<usize>,
    /// Initial glucose values.
    pub initial_bgs: Vec<f64>,
    /// Fault activation steps.
    pub starts: Vec<u32>,
    /// Fault durations (steps).
    pub durations: Vec<u32>,
    /// Cross-validation folds.
    pub folds: usize,
    /// Steps per simulation.
    pub steps: u32,
    /// Hidden sizes for the MLP baseline.
    pub mlp_hidden: Vec<usize>,
    /// Hidden sizes for the LSTM baseline.
    pub lstm_hidden: Vec<usize>,
    /// Max training epochs for neural baselines.
    pub max_epochs: usize,
    /// Cap on flat training samples after balancing (0 = no cap).
    pub train_cap: usize,
    /// Cap on sequence training samples (0 = no cap).
    pub seq_train_cap: usize,
    /// Directory for JSON result dumps (None = stdout only).
    pub out_dir: Option<String>,
}

impl Default for ExpOpts {
    fn default() -> ExpOpts {
        ExpOpts {
            patients: (0..10).collect(),
            initial_bgs: vec![80.0, 120.0, 160.0, 200.0],
            starts: vec![20, 60],
            durations: vec![24, 48],
            folds: 4,
            steps: 150,
            mlp_hidden: vec![64, 32],
            lstm_hidden: vec![32],
            max_epochs: 20,
            train_cap: 6000,
            seq_train_cap: 1500,
            out_dir: Some("results".to_owned()),
        }
    }
}

impl ExpOpts {
    /// Paper-scale workload: all ten patients, the seven initial BG
    /// values, the nine-combination fault grid, and the paper's network
    /// architectures. Expect hours on a single core.
    pub fn full() -> ExpOpts {
        ExpOpts {
            patients: (0..10).collect(),
            initial_bgs: aps_glucose::patients::initial_bg_values().to_vec(),
            starts: vec![20, 50, 90],
            durations: vec![6, 18, 36],
            mlp_hidden: vec![256, 128],
            lstm_hidden: vec![128, 64],
            max_epochs: 60,
            train_cap: 30000,
            seq_train_cap: 8000,
            ..ExpOpts::default()
        }
    }

    /// Smoke-test workload for CI (two patients, one BG, tiny grid).
    pub fn quick() -> ExpOpts {
        ExpOpts {
            patients: vec![0, 1],
            initial_bgs: vec![140.0],
            starts: vec![30],
            durations: vec![24],
            folds: 2,
            mlp_hidden: vec![24],
            lstm_hidden: vec![12],
            max_epochs: 8,
            train_cap: 2000,
            seq_train_cap: 400,
            ..ExpOpts::default()
        }
    }

    /// The campaign spec these options describe (no monitor/mitigation).
    pub fn campaign(&self, platform: Platform) -> CampaignSpec {
        CampaignSpec {
            platform,
            patient_indices: self.patients.clone(),
            initial_bgs: self.initial_bgs.clone(),
            faults: CampaignConfig {
                starts: self.starts.clone(),
                durations: self.durations.clone(),
            },
            fault_targets: Vec::new(),
            include_fault_free: true,
            steps: self.steps,
            mitigate: false,
            context_mitigate: false,
            extended_faults: false,
            cgm: CgmConfig::default(),
        }
    }

    /// Parses `--flag value` style arguments on top of a base preset.
    ///
    /// Supported: `--full`, `--quick`, `--patients 0,1,2`,
    /// `--bgs 100,140`, `--starts 20,60`, `--durations 12,30`,
    /// `--folds N`, `--steps N`, `--epochs N`, `--out DIR`,
    /// `--no-out`.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown flags or malformed values: a
    /// patient index outside the cohort, a non-finite initial BG, zero
    /// steps, or fewer than two folds.
    pub fn parse(args: &[String]) -> Result<ExpOpts, String> {
        let mut opts = ExpOpts::default();
        let mut i = 0;
        // Presets first, wherever they appear.
        if args.iter().any(|a| a == "--full") {
            opts = ExpOpts::full();
        } else if args.iter().any(|a| a == "--quick") {
            opts = ExpOpts::quick();
        }
        while i < args.len() {
            let flag = &args[i];
            let take = |name: &str| -> Result<String, String> {
                args.get(i + 1)
                    .cloned()
                    .ok_or_else(|| format!("missing value for {name}"))
            };
            match flag.as_str() {
                "--full" | "--quick" => {
                    i += 1;
                    continue;
                }
                "--patients" => {
                    opts.patients = parse_list(&take("--patients")?)?;
                    i += 2;
                }
                "--bgs" => {
                    opts.initial_bgs = parse_list(&take("--bgs")?)?;
                    i += 2;
                }
                "--starts" => {
                    opts.starts = parse_list(&take("--starts")?)?;
                    i += 2;
                }
                "--durations" => {
                    opts.durations = parse_list(&take("--durations")?)?;
                    i += 2;
                }
                "--folds" => {
                    opts.folds = take("--folds")?
                        .parse()
                        .map_err(|e| format!("--folds: {e}"))?;
                    i += 2;
                }
                "--steps" => {
                    opts.steps = take("--steps")?
                        .parse()
                        .map_err(|e| format!("--steps: {e}"))?;
                    i += 2;
                }
                "--epochs" => {
                    opts.max_epochs = take("--epochs")?
                        .parse()
                        .map_err(|e| format!("--epochs: {e}"))?;
                    i += 2;
                }
                "--out" => {
                    opts.out_dir = Some(take("--out")?);
                    i += 2;
                }
                "--no-out" => {
                    opts.out_dir = None;
                    i += 1;
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        if opts.patients.is_empty() || opts.initial_bgs.is_empty() {
            return Err("patients and bgs must be non-empty".to_owned());
        }
        if let Some(p) = opts.patients.iter().find(|&&p| p >= COHORT_SIZE) {
            return Err(format!(
                "--patients: index {p} out of range (the cohort has {COHORT_SIZE} patients)"
            ));
        }
        if let Some(bg) = opts.initial_bgs.iter().find(|bg| !bg.is_finite()) {
            return Err(format!("--bgs: initial BG {bg} is not finite"));
        }
        if opts.steps == 0 {
            return Err("--steps: need at least 1 cycle".to_owned());
        }
        if opts.folds < 2 {
            return Err(format!("--folds: need at least 2, got {}", opts.folds));
        }
        Ok(opts)
    }
}

fn parse_list<T: std::str::FromStr>(s: &str) -> Result<Vec<T>, String>
where
    T::Err: std::fmt::Display,
{
    s.split(',')
        .map(|p| {
            p.trim()
                .parse::<T>()
                .map_err(|e| format!("bad list item `{p}`: {e}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| (*x).to_owned()).collect()
    }

    #[test]
    fn default_parse_is_default() {
        assert_eq!(ExpOpts::parse(&[]).unwrap(), ExpOpts::default());
    }

    #[test]
    fn presets_and_overrides_compose() {
        let o = ExpOpts::parse(&args(&["--quick", "--patients", "3,4", "--folds", "3"])).unwrap();
        assert_eq!(o.patients, vec![3, 4]);
        assert_eq!(o.folds, 3);
        assert_eq!(o.mlp_hidden, ExpOpts::quick().mlp_hidden);
    }

    #[test]
    fn full_preset_is_paper_scale() {
        let o = ExpOpts::parse(&args(&["--full"])).unwrap();
        assert_eq!(o.patients.len(), 10);
        assert_eq!(o.initial_bgs.len(), 7);
        assert_eq!(o.starts.len() * o.durations.len(), 9);
        assert_eq!(o.mlp_hidden, vec![256, 128]);
    }

    #[test]
    fn bad_flags_are_reported() {
        assert!(ExpOpts::parse(&args(&["--bogus"])).is_err());
        assert!(ExpOpts::parse(&args(&["--folds"])).is_err());
        assert!(ExpOpts::parse(&args(&["--folds", "x"])).is_err());
        assert!(ExpOpts::parse(&args(&["--patients", ""])).is_err());
        // Flags of removed experiments are rejected, not ignored.
        assert!(ExpOpts::parse(&args(&["--forecast-epochs", "3"]))
            .unwrap_err()
            .contains("unknown flag"));
    }

    #[test]
    fn out_of_range_workloads_are_rejected() {
        let err = |a: &[&str]| ExpOpts::parse(&args(a)).unwrap_err();
        assert!(err(&["--quick", "--patients", "12"]).contains("index 12"));
        assert!(err(&["--patients", "0,10"]).contains("index 10"));
        assert!(err(&["--bgs", "nan"]).contains("not finite"));
        assert!(err(&["--bgs", "120,inf"]).contains("not finite"));
        assert!(err(&["--folds", "1"]).contains("at least 2"));
        assert!(err(&["--folds", "0"]).contains("at least 2"));
        assert!(err(&["--quick", "--steps", "0"]).contains("at least 1"));
        let edge =
            ExpOpts::parse(&args(&["--patients", "9", "--folds", "2", "--steps", "1"])).unwrap();
        assert_eq!((edge.patients, edge.folds, edge.steps), (vec![9], 2, 1));
    }

    #[test]
    fn campaign_spec_reflects_options() {
        let o = ExpOpts::quick();
        let spec = o.campaign(Platform::GlucosymOref0);
        assert_eq!(spec.patient_indices, o.patients);
        assert_eq!(spec.faults.starts, o.starts);
        assert!(spec.include_fault_free);
        assert!(!spec.mitigate);
    }
}
