//! End-to-end guarantees of the LSTM classifier monitor (the paper's
//! sequence baseline): campaign → Eq. 7/8 sequence dataset → trained
//! classifier → serialized weights → online monitor.
//!
//! * **Training determinism** — the same seed over the same campaign
//!   produces bit-identical weights, and a different seed does not.
//! * **Serde round-trip** — saved weights reload to an equal model with
//!   bit-identical class probabilities and a byte-stable encoding.
//! * **Online == offline** — stepping the `LstmMonitor` through a live
//!   session alerts exactly where the trained classifier, run over the
//!   dataset builder's windows of the same trace, predicts a hazard. So
//!   the features the monitor builds at run time are the features the
//!   model was trained on.
//! * **Observation only** — attaching the learned monitor beside
//!   monitors named in a `SessionSpec` leaves their verdicts and the
//!   physics untouched.

use aps_repro::core::monitors::MlFeatures;
use aps_repro::ml::data::Dataset;
use aps_repro::ml::lstm::{Lstm, LstmConfig, SeqDataset};
use aps_repro::ml::SequenceClassifier;
use aps_repro::prelude::*;
use aps_repro::sim::dataset::{build_seq_dataset, LabelMode};
use std::sync::Arc;

/// Window length of the paper's LSTM monitor (30 minutes).
const WINDOW: usize = 6;

/// A small-but-real training campaign (one patient, one initial BG).
fn campaign_spec() -> CampaignSpec {
    CampaignSpec {
        patient_indices: vec![0],
        initial_bgs: vec![120.0],
        ..CampaignSpec::quick(Platform::GlucosymOref0)
    }
}

fn basal(platform: Platform, patient: usize) -> UnitsPerHour {
    let probe = platform.patients().remove(patient);
    platform.basal_for(probe.as_ref())
}

/// Fits a scaler on every per-step row of the windows.
fn fit_scaler(seq: &SeqDataset) -> StandardScaler {
    let rows: Vec<Vec<f64>> = seq.x.iter().flatten().cloned().collect();
    let labels = vec![0; rows.len()];
    StandardScaler::fit(&Dataset::new(rows, labels))
}

fn scale(seq: &SeqDataset, scaler: &StandardScaler) -> SeqDataset {
    SeqDataset::new(
        seq.x
            .iter()
            .map(|w| w.iter().map(|f| scaler.transform(f)).collect())
            .collect(),
        seq.y.clone(),
    )
}

/// The pipeline under test: run the campaign, window it into the
/// binary sequence dataset, standardize, fit a small LSTM.
fn train(seed: u64) -> (Lstm, StandardScaler) {
    let spec = campaign_spec();
    let mut traces = Vec::new();
    run_campaign_with_workers(&spec, None, None, |_, trace| traces.push(trace));
    assert_eq!(traces.len(), 31, "campaign changed size");
    let seq = build_seq_dataset(&traces, basal(spec.platform, 0), LabelMode::Binary, WINDOW);
    assert!(seq.y.contains(&1), "no positive windows to learn from");
    let scaler = fit_scaler(&seq);
    let config = LstmConfig {
        hidden: vec![6],
        max_epochs: 3,
        seed,
        ..LstmConfig::default()
    };
    (Lstm::fit(&scale(&seq, &scaler), &config), scaler)
}

fn faulty_loop() -> (FaultScenario, LoopConfig) {
    (
        FaultScenario::new("rate", FaultKind::Max, Step(15), 30),
        LoopConfig {
            steps: 50,
            ..LoopConfig::default()
        },
    )
}

#[test]
fn lstm_training_on_a_campaign_is_bit_deterministic() {
    let (a, scaler_a) = train(7);
    let (b, scaler_b) = train(7);
    assert_eq!(a, b, "same campaign + seed must reproduce the model");
    assert_eq!(scaler_a, scaler_b);
    let (c, _) = train(8);
    assert_ne!(a, c, "different seeds should differ");
}

#[test]
fn lstm_weights_roundtrip_through_serde() {
    let (model, _) = train(3);
    let json = serde_json::to_string(&model).expect("serialize");
    let back: Lstm = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(model, back);
    // Bit-identical inference from the reloaded weights.
    for t in 0..20 {
        let seq: Vec<Vec<f64>> = (0..WINDOW)
            .map(|k| {
                (0..MlFeatures::DIM)
                    .map(|d| 0.3 - 0.05 * (t + k) as f64 + 0.1 * d as f64)
                    .collect()
            })
            .collect();
        let bits = |p: Vec<f64>| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(model.predict_proba_seq(&seq)),
            bits(back.predict_proba_seq(&seq))
        );
    }
    // And a second serialization is byte-identical (stable format).
    assert_eq!(json, serde_json::to_string(&back).unwrap());
}

#[test]
fn lstm_monitor_alerts_match_offline_windows_over_live_session() {
    let (model, scaler) = train(5);
    let platform = Platform::GlucosymOref0;
    let patient_basal = basal(platform, 0);
    let model = Arc::new(model);
    let monitor = LstmMonitor::binary(
        "lstm",
        model.clone(),
        scaler.clone(),
        patient_basal,
        platform.target(),
        WINDOW,
    );

    let (fault, config) = faulty_loop();
    let trace = Session::builder(platform)
        .patient(0)
        .inject(fault)
        .config(config)
        .monitor(Box::new(monitor))
        .run()
        .expect("valid session");
    let alerts = &trace.track("lstm").expect("lstm track").alerts;
    assert_eq!(alerts.len(), trace.len());

    // Warm-up cycles, before the first full window, never alert.
    assert!(alerts[..WINDOW - 1].iter().all(Option::is_none));
    // The fault drives the model to both verdicts, so the comparison
    // below checks alerts as well as silences.
    let after_warmup = &alerts[WINDOW - 1..];
    assert!(after_warmup.iter().any(Option::is_some));
    assert!(after_warmup.iter().any(Option::is_none));
    // Every later cycle alerts iff the model flags the window the
    // offline dataset builder cuts from the recorded trace.
    let offline = scale(
        &build_seq_dataset(
            std::slice::from_ref(&trace),
            patient_basal,
            LabelMode::Binary,
            WINDOW,
        ),
        &scaler,
    );
    assert_eq!(offline.len(), trace.len() + 1 - WINDOW);
    for (i, window) in offline.x.iter().enumerate() {
        let step = i + WINDOW - 1;
        assert_eq!(
            alerts[step].is_some(),
            model.predict_seq(window) != 0,
            "online and offline verdicts diverged at step {step}"
        );
    }
}

#[test]
fn lstm_monitor_beside_spec_monitors_changes_none_of_their_verdicts() {
    let (model, scaler) = train(2);
    let platform = Platform::GlucosymOref0;
    let (fault, config) = faulty_loop();
    let spec = SessionSpec {
        platform,
        patient: 0,
        monitors: vec![MonitorSpec::Cawot, MonitorSpec::RiskIndex],
        fault: Some(fault),
        config,
    };
    // The spec is serializable data.
    let spec_json = serde_json::to_string(&spec).unwrap();
    let spec: SessionSpec = serde_json::from_str(&spec_json).unwrap();
    let plain = Session::from_spec(&spec).expect("buildable spec").run();

    let mut builder = Session::builder(spec.platform)
        .patient(spec.patient)
        .config(spec.config.clone())
        .inject(spec.fault.clone().unwrap());
    for m in &spec.monitors {
        builder = builder.monitor_spec(m.clone());
    }
    let with_lstm = builder
        .monitor(Box::new(LstmMonitor::binary(
            "lstm",
            Arc::new(model),
            scaler,
            basal(platform, 0),
            platform.target(),
            WINDOW,
        )))
        .run()
        .expect("valid session");

    assert_eq!(plain.monitor_tracks.len(), 2);
    assert_eq!(with_lstm.monitor_tracks.len(), 3);
    assert_eq!(with_lstm.monitor_tracks[..2], plain.monitor_tracks[..]);
    assert_eq!(with_lstm.records, plain.records);
    assert_eq!(
        with_lstm.track("lstm").unwrap().alerts.len(),
        with_lstm.len()
    );
}
