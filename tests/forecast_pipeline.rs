//! End-to-end guarantees of the prediction subsystem: campaign →
//! dataset → trained forecaster → serialized model → online monitor.
//!
//! * **Training determinism** — the same seed over the same campaign
//!   produces bit-identical weights (so the committed
//!   `results/forecast_model.json` is reproducible by rerunning
//!   `repro train`, and no opaque artifacts exist).
//! * **Serde round-trip** — a saved model reloads to an equal value
//!   with bit-identical predictions.
//! * **Incremental == batch** — stepping the `ForecastMonitor` through
//!   a live session one cycle at a time (carried hidden state, O(1)
//!   per step) produces exactly the prediction a batch forward pass
//!   over the same observed prefix produces.
//! * **Sessions as data** — `MonitorSpec::Forecast { path }` builds
//!   the monitor from the saved file inside `Session::from_spec`.

use aps_repro::prelude::*;

/// A small-but-real training campaign (one patient, short runs).
fn campaign_spec() -> CampaignSpec {
    CampaignSpec {
        patient_indices: vec![0],
        initial_bgs: vec![120.0],
        steps: 60,
        ..CampaignSpec::quick(Platform::GlucosymOref0)
    }
}

const HORIZON: usize = 6;

/// The pipeline under test: stream the campaign into a bounded
/// TraceDataset, standardize, fit both forecasters, bundle.
fn train_bundle(seed: u64) -> ForecastModel {
    let spec = campaign_spec();
    let window = spec.steps as usize - HORIZON;
    let mut dataset = TraceDataset::with_cap(window, HORIZON, 40, seed);
    run_campaign_with_workers(&spec, None, None, |_, trace| dataset.push_trace(&trace));
    assert_eq!(dataset.traces(), 31, "campaign changed size");
    let raw = dataset.into_set();
    let scaler = StandardScaler::fit_sequences(&raw.x);
    let mut scaled = raw;
    scaled.standardize(&scaler);
    let config = ForecastConfig {
        hidden: vec![6],
        mlp_hidden: vec![6],
        max_epochs: 3,
        seed,
        ..ForecastConfig::default()
    };
    ForecastModel {
        window,
        horizon: HORIZON,
        lstm: LstmForecaster::fit(&scaled, &config),
        mlp: MlpForecaster::fit(&scaled, &config),
        scaler,
        config,
        lstm_val_rmse: 0.0,
        mlp_val_rmse: 0.0,
        persistence_val_rmse: 0.0,
        trained_pairs: scaled.len(),
    }
}

#[test]
fn training_on_a_campaign_is_bit_deterministic() {
    let a = train_bundle(7);
    let b = train_bundle(7);
    assert_eq!(a, b, "same campaign + seed must reproduce the model");
    let c = train_bundle(8);
    assert_ne!(a.lstm, c.lstm, "different seeds should differ");
}

#[test]
fn saved_weights_roundtrip_through_serde() {
    let model = train_bundle(3);
    let json = serde_json::to_string(&model).expect("serialize");
    let back: ForecastModel = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(model, back);
    // Bit-identical inference from reloaded weights, streamed.
    let mut s1 = model.lstm.state();
    let mut s2 = back.lstm.state();
    for t in 0..20 {
        let x = [0.3 - 0.05 * t as f64, 0.1];
        assert_eq!(model.lstm.step(&mut s1, &x), back.lstm.step(&mut s2, &x));
    }
    // And a second serialization is byte-identical (stable format).
    assert_eq!(json, serde_json::to_string(&back).unwrap());
}

#[test]
fn monitor_stepping_matches_batch_forward_over_live_session() {
    let model = train_bundle(5);
    let mut monitor = ForecastMonitor::from_model(&model, ForecastBand::default());

    // Drive a real faulty session while replaying the monitor's inputs
    // into a parallel batch check: at every cycle the incremental
    // prediction must equal a cold-start batch pass over the full
    // observed prefix.
    let trace = Session::builder(Platform::GlucosymOref0)
        .patient(0)
        .inject(FaultScenario::new("rate", FaultKind::Max, Step(15), 30))
        .config(LoopConfig {
            steps: 50,
            ..LoopConfig::default()
        })
        .run()
        .expect("valid session");

    let mut prefix: Vec<Vec<f64>> = Vec::new();
    for rec in trace.iter() {
        let verdict = monitor.check(&MonitorInput {
            step: rec.step,
            bg: rec.bg,
            commanded: rec.commanded,
            previous_rate: UnitsPerHour(0.0),
        });
        prefix.push(
            model
                .scaler
                .transform(&[rec.bg.value(), rec.commanded.value()]),
        );
        let incremental = monitor.last_prediction().expect("checked at least once");
        let batch = model.lstm.predict_seq(&prefix);
        assert_eq!(
            incremental,
            batch,
            "incremental and batch forecasts diverged at step {}",
            rec.step.index()
        );
        // Warm-up cycles never alert.
        if rec.step.index() < 2 {
            assert_eq!(verdict, None);
        }
    }
    assert_eq!(prefix.len(), trace.len());
}

#[test]
fn forecast_monitor_runs_from_a_session_spec_file() {
    let model = train_bundle(2);
    let dir = std::env::temp_dir().join("aps_forecast_pipeline_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let model_path = dir.join("model.json");
    std::fs::write(&model_path, serde_json::to_string(&model).unwrap()).expect("write model");

    let spec = SessionSpec {
        platform: Platform::GlucosymOref0,
        patient: 1,
        monitors: vec![
            MonitorSpec::Forecast {
                path: model_path.to_string_lossy().into_owned(),
            },
            MonitorSpec::RiskIndex,
        ],
        fault: Some(FaultScenario::new("rate", FaultKind::Max, Step(20), 36)),
        config: LoopConfig {
            steps: 60,
            ..LoopConfig::default()
        },
    };
    // The spec itself is serializable data, model path included.
    let spec_json = serde_json::to_string(&spec).unwrap();
    let spec_back: SessionSpec = serde_json::from_str(&spec_json).unwrap();
    assert_eq!(spec, spec_back);

    let trace = Session::from_spec(&spec_back)
        .expect("buildable spec")
        .run();
    assert_eq!(trace.monitor_tracks.len(), 2);
    assert!(trace.track("forecast").is_some(), "forecast track missing");
    assert_eq!(trace.track("forecast").unwrap().alerts.len(), trace.len());
}
