//! `repro train` — the train-on-campaign forecasting pipeline.
//!
//! Streams a fault-injection campaign through the bounded-memory
//! [`TraceDataset`] sink (`run_campaign_with_workers`: traces are
//! windowed and reservoir-capped as they arrive, never materialized as
//! a collection), standardizes features, and trains the two glucose
//! forecasters of `aps_ml::forecast` — the streaming LSTM and the
//! flattened-window MLP baseline — on BG-at-horizon targets at every
//! timestep. The trained [`ForecastModel`] bundle (scaler + both
//! networks + held-out RMSEs) is serialized to
//! `<out>/forecast_model.json`, where `repro zoo` and
//! `MonitorSpec::Forecast` pick it up.
//!
//! Everything is deterministic under the fixed seed: rerunning the
//! command on the same campaign reproduces the committed weights bit
//! for bit (pinned in `tests/forecast_pipeline.rs`), so no opaque
//! artifacts live in the repository — only outputs of this command.

use crate::opts::ExpOpts;
use crate::report::{write_json, Table};
use aps_ml::data::{StandardScaler, TraceDataset};
use aps_ml::forecast::{ForecastConfig, ForecastModel, LstmForecaster, MlpForecaster};
use aps_sim::campaign::run_campaign_with_workers;
use aps_sim::platform::Platform;
use serde_json::json;
use std::path::{Path, PathBuf};

/// Forecast horizon in control cycles (12 × 5 min = 60 minutes). A
/// 30-minute horizon also beats the RiskIdx floor but alerts ~17 min
/// later at quick scale; the hour-ahead prediction is what first
/// pushes the zoo's Forecast reaction time *positive* (alerts before
/// labeled onset).
pub const FORECAST_HORIZON: usize = 12;

/// Reservoir seed for dataset construction.
pub const DATASET_SEED: u64 = 42;

/// Model filename under the results directory.
pub const MODEL_FILE: &str = "forecast_model.json";

/// The model file path for the given options (`None` with `--no-out`).
pub fn model_path(opts: &ExpOpts) -> Option<PathBuf> {
    opts.out_dir
        .as_ref()
        .map(|dir| Path::new(dir).join(MODEL_FILE))
}

/// An empty [`TraceDataset`] sized for the options' runs. One
/// subsequence per trace, anchored at step 0 with `window = steps −
/// horizon`: exactly the cold-start stream an online monitor sees, so
/// training and deployment share one distribution.
fn empty_dataset(opts: &ExpOpts) -> TraceDataset {
    let window = (opts.steps as usize)
        .saturating_sub(FORECAST_HORIZON)
        .max(1);
    TraceDataset::with_cap(window, FORECAST_HORIZON, opts.seq_train_cap, DATASET_SEED)
}

/// Builds the forecast dataset by streaming the options' campaign
/// through a [`TraceDataset`] sink — the bounded-memory path `repro
/// train` uses (no trace collection ever materializes).
pub fn build_dataset(opts: &ExpOpts, platform: Platform) -> TraceDataset {
    let spec = opts.campaign(platform);
    let mut dataset = empty_dataset(opts);
    run_campaign_with_workers(&spec, None, None, |_, trace| dataset.push_trace(&trace));
    dataset
}

/// Trains the full forecast bundle by streaming the options' campaign.
pub fn train_model(opts: &ExpOpts) -> ForecastModel {
    fit_dataset(opts, build_dataset(opts, Platform::GlucosymOref0))
}

/// Trains the full forecast bundle from already-recorded campaign
/// traces (identical result to [`train_model`] on the campaign that
/// produced them — the dataset adapter consumes traces in the same
/// order either way). Lets callers that already hold the traces (e.g.
/// the zoo report's threshold training) avoid a second physics pass.
pub fn train_model_from(opts: &ExpOpts, traces: &[aps_types::SimTrace]) -> ForecastModel {
    let mut dataset = empty_dataset(opts);
    for trace in traces {
        dataset.push_trace(trace);
    }
    fit_dataset(opts, dataset)
}

/// The shared fitting path behind both `train_model` variants.
fn fit_dataset(opts: &ExpOpts, dataset: TraceDataset) -> ForecastModel {
    let window = dataset.window();
    let horizon = dataset.horizon();
    println!(
        "forecast dataset: {} windows of {} cycles (dim {}) from {} traces ({} offered)",
        dataset.len(),
        window,
        TraceDataset::DIM,
        dataset.traces(),
        dataset.seen(),
    );
    let raw = dataset.into_set();
    assert!(!raw.is_empty(), "campaign produced no training windows");

    // Held-out split BEFORE any fitting: reported RMSEs are honest.
    // Only the validation windows keep a raw copy (the persistence
    // baseline reads unscaled BG); the training side standardizes in
    // place.
    let (raw_train, raw_val) = raw.split(0.2, DATASET_SEED);
    let trained_pairs = raw_train.len();
    let scaler = StandardScaler::fit_sequences(&raw_train.x);
    let mut train_set = raw_train;
    train_set.standardize(&scaler);
    let mut val_set = raw_val.clone();
    val_set.standardize(&scaler);

    let config = ForecastConfig {
        hidden: opts.lstm_hidden.clone(),
        mlp_hidden: opts.mlp_hidden.clone(),
        learning_rate: 3e-3,
        max_epochs: opts.forecast_epochs,
        patience: 12,
        seed: DATASET_SEED,
        ..ForecastConfig::default()
    };
    let lstm = LstmForecaster::fit(&train_set, &config);
    let mlp = MlpForecaster::fit(&train_set, &config);

    // Deployment-view evaluation: stream each held-out window through
    // the LSTM exactly as the online monitor does (carried state, one
    // prediction per cycle) and score every cycle past the trend
    // warm-up against the raw-BG persistence baseline ("BG stays where
    // it is"). The MLP consumes whole windows, so its RMSE is the
    // window-end prediction.
    const EVAL_WARMUP: usize = 2;
    let (mut lstm_sq, mut pers_sq, mut steps) = (0.0f64, 0.0f64, 0usize);
    let (mut mlp_sq, mut ends) = (0.0f64, 0usize);
    for i in 0..raw_val.len() {
        let mut state = lstm.state();
        for (t, scaled_row) in val_set.x[i].iter().enumerate() {
            let yhat = lstm.step(&mut state, scaled_row);
            if t < EVAL_WARMUP {
                continue;
            }
            let y = raw_val.y[i][t];
            lstm_sq += (yhat - y) * (yhat - y);
            let pers = raw_val.x[i][t][0];
            pers_sq += (pers - y) * (pers - y);
            steps += 1;
        }
        // Windows with no targets contribute nothing (rather than
        // panicking on a malformed dataset).
        let Some(&y_end) = raw_val.y[i].last() else {
            continue;
        };
        let e = mlp.predict_seq(&val_set.x[i]) - y_end;
        mlp_sq += e * e;
        ends += 1;
    }
    let lstm_val_rmse = (lstm_sq / steps.max(1) as f64).sqrt();
    let persistence_val_rmse = (pers_sq / steps.max(1) as f64).sqrt();
    let mlp_val_rmse = (mlp_sq / ends.max(1) as f64).sqrt();

    ForecastModel {
        window,
        horizon,
        scaler,
        config,
        lstm,
        mlp,
        lstm_val_rmse,
        mlp_val_rmse,
        persistence_val_rmse,
        trained_pairs,
    }
}

/// Loads the saved model when present, otherwise trains one from the
/// caller's already-recorded campaign traces (and saves it) — how
/// `repro zoo` obtains its ForecastMonitor weights without retraining
/// (or re-simulating) on every invocation.
pub fn load_or_train(opts: &ExpOpts, traces: &[aps_types::SimTrace]) -> ForecastModel {
    let expected_window = empty_dataset(opts).window();
    if let Some(path) = model_path(opts) {
        if let Ok(json) = std::fs::read_to_string(&path) {
            match serde_json::from_str::<ForecastModel>(&json) {
                // Geometry must match the requested workload: a model
                // trained at another horizon or step count would
                // silently skew the zoo's Forecast row.
                Ok(model)
                    if model.horizon == FORECAST_HORIZON && model.window == expected_window =>
                {
                    println!(
                        "loaded forecast model from {} (LSTM val RMSE {:.1} mg/dL)",
                        path.display(),
                        model.lstm_val_rmse
                    );
                    return model;
                }
                Ok(model) => eprintln!(
                    "warning: {} was trained at window {} / horizon {} (expected {} / {}); \
                     retraining",
                    path.display(),
                    model.window,
                    model.horizon,
                    expected_window,
                    FORECAST_HORIZON
                ),
                Err(e) => eprintln!(
                    "warning: {} is not a valid forecast model ({e:?}); retraining",
                    path.display()
                ),
            }
        }
    }
    let model = train_model_from(opts, traces);
    save_model(opts, &model);
    model
}

fn save_model(opts: &ExpOpts, model: &ForecastModel) {
    let Some(path) = model_path(opts) else { return };
    if let Some(dir) = path.parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return;
        }
    }
    match serde_json::to_string(model) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                println!("model saved to {}", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialize model: {e:?}"),
    }
}

/// Runs the `train` experiment: build dataset → fit both forecasters →
/// report RMSEs → persist the model bundle.
pub fn train(opts: &ExpOpts) {
    println!("Glucose-forecast training (streamed campaign -> LSTM + MLP)\n");
    let model = train_model(opts);
    save_model(opts, &model);

    let mut table = Table::new(&["forecaster", "val RMSE (mg/dL)", "epochs"]);
    table.row(&[
        "LSTM (per-cycle stream)".to_owned(),
        format!("{:.1}", model.lstm_val_rmse),
        model.lstm.epochs_trained().to_string(),
    ]);
    table.row(&[
        "persistence (per-cycle)".to_owned(),
        format!("{:.1}", model.persistence_val_rmse),
        "-".to_owned(),
    ]);
    table.row(&[
        "MLP (window end)".to_owned(),
        format!("{:.1}", model.mlp_val_rmse),
        model.mlp.epochs_trained().to_string(),
    ]);
    println!(
        "\nhorizon: {} cycles ({} min); window: {} cycles; training pairs: {}\n",
        model.horizon,
        model.horizon * 5,
        model.window,
        model.trained_pairs
    );
    println!("{}", table.render());
    println!(
        "The LSTM is the monitor-grade artifact: it streams O(1) per cycle with carried\n\
         hidden state. `repro zoo` now reports its online reaction time as the `Forecast`\n\
         row; `MonitorSpec::Forecast {{ \"path\": ... }}` attaches it to any session."
    );

    write_json(
        &opts.out_dir,
        "train_forecast",
        &json!({
            "horizon_cycles": model.horizon,
            "window_cycles": model.window,
            "trained_pairs": model.trained_pairs,
            "lstm_val_rmse": model.lstm_val_rmse,
            "mlp_val_rmse": model.mlp_val_rmse,
            "persistence_val_rmse": model.persistence_val_rmse,
            "lstm_epochs": model.lstm.epochs_trained(),
            "mlp_epochs": model.mlp.epochs_trained(),
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> ExpOpts {
        ExpOpts {
            patients: vec![0],
            initial_bgs: vec![120.0],
            starts: vec![30],
            durations: vec![24],
            steps: 60,
            lstm_hidden: vec![8],
            mlp_hidden: vec![8],
            max_epochs: 2,
            forecast_epochs: 2,
            seq_train_cap: 40,
            out_dir: None,
            ..ExpOpts::quick()
        }
    }

    #[test]
    fn dataset_streams_the_whole_campaign() {
        let opts = tiny_opts();
        let ds = build_dataset(&opts, Platform::GlucosymOref0);
        assert_eq!(ds.traces(), 31); // quick grid for one patient/bg
        assert_eq!(ds.window(), 60 - FORECAST_HORIZON);
        assert!(!ds.is_empty());
    }

    #[test]
    fn training_is_deterministic() {
        let opts = tiny_opts();
        let a = train_model(&opts);
        let b = train_model(&opts);
        assert_eq!(a, b, "same campaign + seed must give identical models");
        assert!(a.lstm_val_rmse.is_finite());
        // Training from pre-recorded traces is the same pipeline.
        let traces = aps_sim::campaign::run_campaign(&opts.campaign(Platform::GlucosymOref0), None);
        assert_eq!(a, train_model_from(&opts, &traces));
    }
}
