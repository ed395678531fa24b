//! Train a glucose forecaster on a mini campaign and run it online.
//!
//! The prediction pipeline end-to-end, at example scale: stream a
//! fault-injection campaign through the bounded-memory `TraceDataset`
//! sink, fit the streaming LSTM forecaster, then attach the resulting
//! `ForecastMonitor` to a live overdose session next to the
//! `RiskIndexMonitor` ground truth — one physics pass, two alert
//! streams, and the forecaster should fire first.
//!
//! (`repro train` is the full-scale version of the first half; it also
//! fits the MLP baseline and saves `results/forecast_model.json`.)

use aps_repro::prelude::*;

fn main() {
    // 1. Stream a small campaign into forecast training windows.
    let spec = CampaignSpec {
        patient_indices: vec![0, 1],
        initial_bgs: vec![120.0],
        steps: 80,
        ..CampaignSpec::quick(Platform::GlucosymOref0)
    };
    let horizon = 12; // 12 cycles x 5 min = one hour ahead
    let window = spec.steps as usize - horizon;
    let mut dataset = TraceDataset::with_cap(window, horizon, 200, 42);
    run_campaign_with_workers(&spec, None, None, |_, trace| dataset.push_trace(&trace));
    println!(
        "dataset: {} windows of {} cycles from {} traces",
        dataset.len(),
        dataset.window(),
        dataset.traces()
    );

    // 2. Standardize and fit the streaming LSTM (and the MLP baseline).
    let raw = dataset.into_set();
    let scaler = StandardScaler::fit_sequences(&raw.x);
    let mut scaled = raw;
    scaled.standardize(&scaler);
    let config = ForecastConfig {
        hidden: vec![12],
        mlp_hidden: vec![12],
        learning_rate: 3e-3,
        max_epochs: 60,
        ..ForecastConfig::default()
    };
    let model = ForecastModel {
        window,
        horizon,
        lstm: LstmForecaster::fit(&scaled, &config),
        mlp: MlpForecaster::fit(&scaled, &config),
        scaler,
        config,
        lstm_val_rmse: 0.0,
        mlp_val_rmse: 0.0,
        persistence_val_rmse: 0.0,
        trained_pairs: scaled.len(),
    };
    println!(
        "trained LSTM forecaster: {} epochs, horizon {} min",
        model.lstm.epochs_trained(),
        model.horizon * 5
    );

    // 3. Run it online against an insulin-overdose attack, with the
    //    risk-index ground truth in the same monitor bank.
    let band = ForecastBand::default();
    println!(
        "alert band: predicted BG < {:.0} or > {:.0} mg/dL\n",
        band.low, band.high
    );
    let trace = Session::builder(Platform::GlucosymOref0)
        .patient(0)
        .monitor(Box::new(ForecastMonitor::from_model(&model, band)))
        .monitor_spec(MonitorSpec::RiskIndex)
        .inject(FaultScenario::new("rate", FaultKind::Max, Step(20), 36))
        .run()
        .expect("valid session");

    let onset = trace.hazard_onset();
    println!(
        "hazard onset : {}",
        onset.map_or("none".to_owned(), |s| format!(
            "cycle {} ({} min)",
            s.index(),
            s.index() * 5
        ))
    );
    for track in &trace.monitor_tracks {
        let first = track.first_alert();
        println!(
            "{:<12} first alert: {}",
            track.monitor,
            first.map_or("never".to_owned(), |s| {
                let lead = onset.map_or(String::new(), |o| {
                    format!(
                        " ({:+} min vs onset)",
                        (o.index() as i64 - s.index() as i64) * 5
                    )
                });
                format!("cycle {}{lead}", s.index())
            })
        );
    }
}
