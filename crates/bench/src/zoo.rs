//! The monitor zoo: construction and training of every monitor the
//! paper compares. A zoo trains only the monitors it is asked for.

use crate::opts::ExpOpts;
use aps_core::learning::{learn_thresholds, traces_for_patient, LearnConfig};
use aps_core::monitors::{
    CawMonitor, GuidelineConfig, GuidelineMonitor, HazardMonitor, LstmMonitor, MlMonitor,
    MpcMonitor, RiskIndexMonitor,
};
use aps_core::scs::Scs;
use aps_ml::data::{Dataset, StandardScaler};
use aps_ml::lstm::{Lstm, LstmConfig, SeqDataset};
use aps_ml::mlp::{Mlp, MlpConfig};
use aps_ml::tree::{DecisionTree, TreeConfig};
use aps_sim::dataset::{balance, build_dataset, build_seq_dataset, LabelMode};
use aps_sim::platform::Platform;
use aps_types::{SimTrace, UnitsPerHour};
use std::collections::HashMap;
use std::sync::Arc;

/// The monitors of Tables V–VII.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MonitorKind {
    /// Medical-guidelines baseline (Table III).
    Guideline,
    /// Model-predictive-control baseline (Eq. 6).
    Mpc,
    /// Context-aware, guideline-default thresholds.
    Cawot,
    /// Context-aware with learned patient-specific thresholds.
    Cawt,
    /// Context-aware with population-based thresholds (Table VIII).
    CawtPopulation,
    /// Decision-tree baseline (binary).
    Dt,
    /// MLP baseline (binary).
    Mlp,
    /// LSTM baseline (binary, 30-minute window).
    Lstm,
    /// Decision tree retrained as 3-class (§VI ablation).
    DtMulti,
    /// MLP retrained as 3-class (§VI ablation).
    MlpMulti,
    /// Streaming BG-risk-index ground truth (alerts at hazard onset;
    /// the reaction-time floor every predictive monitor should beat).
    RiskIndex,
}

impl MonitorKind {
    /// Display name used in tables.
    pub fn name(&self) -> &'static str {
        match self {
            MonitorKind::Guideline => "Guideline",
            MonitorKind::Mpc => "MPC",
            MonitorKind::Cawot => "CAWOT",
            MonitorKind::Cawt => "CAWT",
            MonitorKind::CawtPopulation => "CAWT-pop",
            MonitorKind::Dt => "DT",
            MonitorKind::Mlp => "MLP",
            MonitorKind::Lstm => "LSTM",
            MonitorKind::DtMulti => "DT-3c",
            MonitorKind::MlpMulti => "MLP-3c",
            MonitorKind::RiskIndex => "RiskIdx",
        }
    }

    /// `true` for monitors needing trained artifacts.
    pub fn needs_training(&self) -> bool {
        !matches!(
            self,
            MonitorKind::Guideline | MonitorKind::Mpc | MonitorKind::Cawot | MonitorKind::RiskIndex
        )
    }
}

/// The kinds that train an ML model.
const ML_KINDS: [MonitorKind; 5] = [
    MonitorKind::Dt,
    MonitorKind::Mlp,
    MonitorKind::Lstm,
    MonitorKind::DtMulti,
    MonitorKind::MlpMulti,
];

/// The LSTM monitor's sliding-window length (30 minutes).
pub const LSTM_WINDOW: usize = 6;

/// Trained artifacts for one platform, built from one training set:
/// exactly those the kinds passed to [`Zoo::train`] need.
pub struct Zoo {
    platform: Platform,
    basal_by_patient: HashMap<String, UnitsPerHour>,
    cawot: Scs,
    cawt: Option<LearnedScs>,
    /// Fitted on the binary flat dataset; shared by every ML monitor.
    scaler: Option<StandardScaler>,
    /// The trained models, shared by every monitor made from them.
    dt: Option<Arc<DecisionTree>>,
    dt_multi: Option<Arc<DecisionTree>>,
    mlp: Option<Arc<Mlp>>,
    mlp_multi: Option<Arc<Mlp>>,
    lstm: Option<Arc<Lstm>>,
}

/// Learned thresholds: patient-specific (CAWT) and population
/// (CAWT-pop), always learned together.
struct LearnedScs {
    by_patient: HashMap<String, Scs>,
    population: Scs,
}

/// The artifact trained for `kind`.
///
/// # Panics
///
/// Names `kind` when the zoo was not trained for it.
fn trained<T>(artifact: &Option<T>, kind: MonitorKind) -> &T {
    artifact.as_ref().unwrap_or_else(|| {
        panic!(
            "zoo was not trained for {} (pass it in Zoo::train's kinds)",
            kind.name()
        )
    })
}

/// Deterministically caps a flat dataset at `cap` samples (stride
/// subsampling; 0 disables).
fn cap_dataset(ds: Dataset, cap: usize) -> Dataset {
    if cap == 0 || ds.len() <= cap {
        return ds;
    }
    let stride = ds.len().div_ceil(cap);
    let idx: Vec<usize> = (0..ds.len()).step_by(stride).collect();
    ds.subset(&idx)
}

fn cap_seq(ds: SeqDataset, cap: usize) -> SeqDataset {
    if cap == 0 || ds.len() <= cap {
        return ds;
    }
    let stride = ds.len().div_ceil(cap);
    let mut x = Vec::new();
    let mut y = Vec::new();
    for i in (0..ds.len()).step_by(stride) {
        x.push(ds.x[i].clone());
        y.push(ds.y[i]);
    }
    SeqDataset::new(x, y)
}

/// Groups traces by patient and builds a flat dataset with the right
/// per-patient basal for context reconstruction.
fn dataset_across_patients(
    traces: &[SimTrace],
    basal_by_patient: &HashMap<String, UnitsPerHour>,
    mode: LabelMode,
) -> Dataset {
    let mut x = Vec::new();
    let mut y = Vec::new();
    let mut by_patient: HashMap<&str, Vec<SimTrace>> = HashMap::new();
    for t in traces {
        by_patient
            .entry(t.meta.patient.as_str())
            .or_default()
            .push(t.clone());
    }
    let mut keys: Vec<&str> = by_patient.keys().copied().collect();
    keys.sort_unstable();
    for patient in keys {
        let basal = basal_by_patient
            .get(patient)
            .copied()
            .unwrap_or(UnitsPerHour(1.0));
        let ds = build_dataset(&by_patient[patient], basal, mode);
        x.extend(ds.x);
        y.extend(ds.y);
    }
    Dataset::new(x, y)
}

fn seq_dataset_across_patients(
    traces: &[SimTrace],
    basal_by_patient: &HashMap<String, UnitsPerHour>,
    mode: LabelMode,
) -> SeqDataset {
    let mut x = Vec::new();
    let mut y = Vec::new();
    let mut by_patient: HashMap<&str, Vec<SimTrace>> = HashMap::new();
    for t in traces {
        by_patient
            .entry(t.meta.patient.as_str())
            .or_default()
            .push(t.clone());
    }
    let mut keys: Vec<&str> = by_patient.keys().copied().collect();
    keys.sort_unstable();
    for patient in keys {
        let basal = basal_by_patient
            .get(patient)
            .copied()
            .unwrap_or(UnitsPerHour(1.0));
        let ds = build_seq_dataset(&by_patient[patient], basal, mode, LSTM_WINDOW);
        x.extend(ds.x);
        y.extend(ds.y);
    }
    SeqDataset::new(x, y)
}

impl Zoo {
    /// Trains what `kinds` needs from `train_traces`, and nothing
    /// else:
    /// - the patient-specific and population SCSs when [`MonitorKind::Cawt`]
    ///   or [`MonitorKind::CawtPopulation`] is requested;
    /// - the feature scaler when any ML kind is requested;
    /// - each of DT, DT-3c, MLP, MLP-3c and LSTM when its own kind is
    ///   requested.
    ///
    /// Every fit is seeded from its own config and the scaler always
    /// comes from the binary flat dataset, so a model is the same
    /// whatever else the zoo trains.
    pub fn train(
        platform: Platform,
        opts: &ExpOpts,
        train_traces: &[SimTrace],
        kinds: &[MonitorKind],
    ) -> Zoo {
        let wants = |kind: MonitorKind| kinds.contains(&kind);
        let basal_by_patient: HashMap<String, UnitsPerHour> = platform
            .patients()
            .iter()
            .map(|p| (p.name().to_owned(), platform.basal_for(p.as_ref())))
            .collect();
        let cawot = Scs::with_default_thresholds(platform.target());

        // Threshold learning: patient-specific and population.
        let cawt = (wants(MonitorKind::Cawt) || wants(MonitorKind::CawtPopulation)).then(|| {
            let learn_cfg = LearnConfig::default();
            let mut by_patient = HashMap::new();
            for (patient, basal) in &basal_by_patient {
                let subset = traces_for_patient(train_traces, patient);
                let (scs, _fits) = learn_thresholds(&cawot, &subset, *basal, &learn_cfg);
                by_patient.insert(patient.clone(), scs);
            }
            let mean_basal = UnitsPerHour(
                basal_by_patient.values().map(|b| b.value()).sum::<f64>()
                    / basal_by_patient.len().max(1) as f64,
            );
            let (population, _) = learn_thresholds(&cawot, train_traces, mean_basal, &learn_cfg);
            LearnedScs {
                by_patient,
                population,
            }
        });

        let mut zoo = Zoo {
            platform,
            basal_by_patient,
            cawot,
            cawt,
            scaler: None,
            dt: None,
            dt_multi: None,
            mlp: None,
            mlp_multi: None,
            lstm: None,
        };
        if !ML_KINDS.into_iter().any(wants) {
            return zoo;
        }

        // ML datasets (balanced, capped, standardized).
        let basal_by_patient = &zoo.basal_by_patient;
        let flat = dataset_across_patients(train_traces, basal_by_patient, LabelMode::Binary);
        let flat = cap_dataset(balance(&flat, 3), opts.train_cap);
        let scaler = StandardScaler::fit(&flat);
        let tree_cfg = TreeConfig::default();
        let mlp_cfg = MlpConfig {
            hidden: opts.mlp_hidden.clone(),
            max_epochs: opts.max_epochs,
            ..MlpConfig::default()
        };
        if wants(MonitorKind::Dt) || wants(MonitorKind::Mlp) {
            let flat_scaled = scaler.transform_dataset(&flat);
            zoo.dt = wants(MonitorKind::Dt)
                .then(|| Arc::new(DecisionTree::fit(&flat_scaled, &tree_cfg)));
            zoo.mlp = wants(MonitorKind::Mlp).then(|| Arc::new(Mlp::fit(&flat_scaled, &mlp_cfg)));
        }
        if wants(MonitorKind::DtMulti) || wants(MonitorKind::MlpMulti) {
            let flat3 =
                dataset_across_patients(train_traces, basal_by_patient, LabelMode::MultiClass);
            let flat3 = cap_dataset(balance(&flat3, 3), opts.train_cap);
            let flat3_scaled = scaler.transform_dataset(&flat3);
            zoo.dt_multi = wants(MonitorKind::DtMulti)
                .then(|| Arc::new(DecisionTree::fit(&flat3_scaled, &tree_cfg)));
            zoo.mlp_multi =
                wants(MonitorKind::MlpMulti).then(|| Arc::new(Mlp::fit(&flat3_scaled, &mlp_cfg)));
        }
        if wants(MonitorKind::Lstm) {
            let seq =
                seq_dataset_across_patients(train_traces, basal_by_patient, LabelMode::Binary);
            let seq = cap_seq(seq, opts.seq_train_cap);
            let seq_scaled = SeqDataset::new(
                seq.x
                    .iter()
                    .map(|s| s.iter().map(|f| scaler.transform(f)).collect())
                    .collect(),
                seq.y,
            );
            let lstm_cfg = LstmConfig {
                hidden: opts.lstm_hidden.clone(),
                max_epochs: opts.max_epochs.min(30),
                ..LstmConfig::default()
            };
            zoo.lstm = Some(Arc::new(Lstm::fit(&seq_scaled, &lstm_cfg)));
        }
        zoo.scaler = Some(scaler);
        zoo
    }

    /// The platform the zoo was trained for.
    pub fn platform(&self) -> Platform {
        self.platform
    }

    /// The learned patient-specific SCS for one patient.
    ///
    /// # Panics
    ///
    /// When the zoo was not trained for [`MonitorKind::Cawt`].
    pub fn cawt_scs(&self, patient: &str) -> &Scs {
        let learned = trained(&self.cawt, MonitorKind::Cawt);
        learned
            .by_patient
            .get(patient)
            .unwrap_or(&learned.population)
    }

    /// The learned population SCS.
    ///
    /// # Panics
    ///
    /// When the zoo was not trained for [`MonitorKind::CawtPopulation`].
    pub fn population_scs(&self) -> &Scs {
        &trained(&self.cawt, MonitorKind::CawtPopulation).population
    }

    /// Basal rate for a patient (monitor context reference).
    pub fn basal(&self, patient: &str) -> UnitsPerHour {
        self.basal_by_patient
            .get(patient)
            .copied()
            .unwrap_or(UnitsPerHour(1.0))
    }

    /// Builds a fresh monitor of `kind` for a trace's patient.
    ///
    /// # Panics
    ///
    /// Panics, naming `kind`, when the zoo was not trained for it.
    pub fn make(&self, kind: MonitorKind, patient: &str) -> Box<dyn HazardMonitor> {
        let basal = self.basal(patient);
        let target = self.platform.target();
        let scaler = || trained(&self.scaler, kind).clone();
        match kind {
            MonitorKind::Guideline => Box::new(GuidelineMonitor::new(GuidelineConfig::default())),
            MonitorKind::Mpc => Box::new(MpcMonitor::population()),
            MonitorKind::Cawot => Box::new(CawMonitor::new("cawot", self.cawot.clone(), basal)),
            MonitorKind::Cawt => Box::new(CawMonitor::new(
                "cawt",
                self.cawt_scs(patient).clone(),
                basal,
            )),
            MonitorKind::CawtPopulation => Box::new(CawMonitor::new(
                "cawt-pop",
                self.population_scs().clone(),
                basal,
            )),
            MonitorKind::Dt => Box::new(MlMonitor::binary(
                "dt",
                trained(&self.dt, kind).clone(),
                scaler(),
                basal,
                target,
            )),
            MonitorKind::DtMulti => Box::new(MlMonitor::multiclass(
                "dt-3c",
                trained(&self.dt_multi, kind).clone(),
                scaler(),
                basal,
                target,
            )),
            MonitorKind::Mlp => Box::new(MlMonitor::binary(
                "mlp",
                trained(&self.mlp, kind).clone(),
                scaler(),
                basal,
                target,
            )),
            MonitorKind::MlpMulti => Box::new(MlMonitor::multiclass(
                "mlp-3c",
                trained(&self.mlp_multi, kind).clone(),
                scaler(),
                basal,
                target,
            )),
            MonitorKind::RiskIndex => Box::new(RiskIndexMonitor::default()),
            MonitorKind::Lstm => Box::new(LstmMonitor::binary(
                "lstm",
                trained(&self.lstm, kind).clone(),
                scaler(),
                basal,
                target,
                LSTM_WINDOW,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aps_sim::campaign::{run_campaign, CampaignSpec};
    use aps_sim::replay::replay_campaign;

    /// A one-patient quick corpus.
    fn corpus(platform: Platform) -> Vec<SimTrace> {
        let spec = CampaignSpec {
            patient_indices: vec![0],
            initial_bgs: vec![140.0],
            ..CampaignSpec::quick(platform)
        };
        run_campaign(&spec, None)
    }

    #[test]
    fn zoo_trains_and_builds_every_monitor() {
        let platform = Platform::GlucosymOref0;
        let traces = corpus(platform);
        let kinds = [
            MonitorKind::Guideline,
            MonitorKind::Mpc,
            MonitorKind::Cawot,
            MonitorKind::Cawt,
            MonitorKind::CawtPopulation,
            MonitorKind::Dt,
            MonitorKind::Mlp,
            MonitorKind::Lstm,
            MonitorKind::DtMulti,
            MonitorKind::MlpMulti,
            MonitorKind::RiskIndex,
        ];
        let zoo = Zoo::train(platform, &ExpOpts::quick(), &traces, &kinds);
        for kind in kinds {
            let mut m = zoo.make(kind, "glucosym/patientA");
            // A monitor must at least survive a few checks.
            let replayed = aps_sim::replay::replay_monitor(&traces[1], m.as_mut());
            assert_eq!(replayed.len(), traces[1].len(), "{}", kind.name());
        }
    }

    #[test]
    fn zoo_trained_for_some_kinds_replays_like_one_trained_for_all() {
        let platform = Platform::GlucosymOref0;
        let traces = corpus(platform);
        let opts = ExpOpts::quick();
        let kinds = [MonitorKind::Dt, MonitorKind::Mlp];
        let some = Zoo::train(platform, &opts, &traces, &kinds);
        let all = Zoo::train(platform, &opts, &traces, &ML_KINDS);
        for kind in kinds {
            assert_eq!(
                replay_campaign(&traces, |t| some.make(kind, &t.meta.patient)),
                replay_campaign(&traces, |t| all.make(kind, &t.meta.patient)),
                "{}",
                kind.name()
            );
        }
    }

    #[test]
    #[should_panic(expected = "not trained for LSTM")]
    fn kind_the_zoo_was_not_trained_for_panics() {
        let platform = Platform::GlucosymOref0;
        let traces = corpus(platform);
        let kinds = [MonitorKind::Dt, MonitorKind::Mlp];
        let zoo = Zoo::train(platform, &ExpOpts::quick(), &traces, &kinds);
        let _ = zoo.make(MonitorKind::Lstm, "glucosym/patientA");
    }

    #[test]
    fn zoo_makes_each_kind_under_its_name() {
        let platform = Platform::GlucosymOref0;
        let kinds = [
            MonitorKind::Guideline,
            MonitorKind::Cawot,
            MonitorKind::RiskIndex,
        ];
        let zoo = Zoo::train(platform, &ExpOpts::quick(), &[], &kinds);
        let names: Vec<String> = kinds
            .iter()
            .map(|&k| zoo.make(k, "glucosym/patientA").name().to_owned())
            .collect();
        assert_eq!(names, vec!["guideline", "cawot", "risk-index"]);
    }

    #[test]
    fn cap_helpers_respect_limits() {
        let ds = Dataset::new((0..100).map(|i| vec![i as f64]).collect(), vec![0; 100]);
        assert_eq!(cap_dataset(ds.clone(), 0).len(), 100);
        assert!(cap_dataset(ds, 25).len() <= 25);
    }
}
