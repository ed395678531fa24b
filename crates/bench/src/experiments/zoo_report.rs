//! The monitor-zoo latency report: every monitor scored against **one
//! physics pass per scenario** (the whole zoo attached to one
//! [`Session`]), with reaction-time and time-to-hazard columns —
//! including the streaming [`RiskIndexMonitor`]'s detection-latency
//! floor, the ROADMAP item this report closes.
//!
//! Scoring M monitors *live* one session each would mean M
//! identical patient-ODE integrations per scenario. Here each scenario
//! is simulated exactly once with the whole zoo attached, and a
//! step-count probe on the patient model asserts the 1×physics +
//! M×monitor cost model (the run aborts if any monitor secretly
//! re-simulates).
//!
//! [`RiskIndexMonitor`]: aps_core::monitors::RiskIndexMonitor

use crate::opts::ExpOpts;
use crate::report::{write_json, Table};
use crate::zoo::{MonitorKind, Zoo};
use aps_glucose::{BoxedPatient, PatientSim};
use aps_metrics::timing::{time_to_hazard, TimingStats};
use aps_sim::campaign::{campaign_jobs, run_campaign};
use aps_sim::closed_loop::LoopConfig;
use aps_sim::platform::Platform;
use aps_sim::session::Session;
use aps_types::{MgDl, SimTrace, UnitsPerHour, CONTROL_CYCLE_MINUTES};
use serde_json::json;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Patient decorator counting ODE steps — the probe proving the zoo
/// runs one physics pass per scenario regardless of monitor count.
struct CountingPatient {
    inner: BoxedPatient,
    steps: Arc<AtomicUsize>,
}

impl PatientSim for CountingPatient {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn bg(&self) -> MgDl {
        self.inner.bg()
    }
    fn step(&mut self, rate: UnitsPerHour, minutes: f64) {
        self.steps.fetch_add(1, Ordering::Relaxed);
        self.inner.step(rate, minutes);
    }
    fn reset(&mut self, bg0: MgDl) {
        self.inner.reset(bg0);
    }
    fn ingest(&mut self, carbs_g: f64) {
        self.inner.ingest(carbs_g);
    }
    fn exert(&mut self, intensity: f64, duration_min: f64) {
        self.inner.exert(intensity, duration_min);
    }
    fn equilibrium_basal(&self, target: MgDl) -> UnitsPerHour {
        self.inner.equilibrium_basal(target)
    }
}

/// The zoo members this report scores (everything that needs at most
/// threshold training; the ML classifier monitors live in Table VI).
const KINDS: [MonitorKind; 5] = [
    MonitorKind::Guideline,
    MonitorKind::Mpc,
    MonitorKind::Cawot,
    MonitorKind::Cawt,
    MonitorKind::RiskIndex,
];

/// Runs the zoo report; see the [module docs](self).
pub fn zoo(opts: &ExpOpts) {
    println!("Monitor zoo — one physics pass per scenario\n");
    let platform = Platform::GlucosymOref0;
    let spec = opts.campaign(platform);

    // Threshold training (CAWT) on the recorded campaign. In-sample on
    // purpose: this report measures detection *latency*, not
    // generalization — Table V/VI own the cross-validated accuracy.
    let train = run_campaign(&spec, None);
    let zoo = Zoo::train(platform, opts, &train, &KINDS);

    let jobs = campaign_jobs(&spec);
    let physics_steps = Arc::new(AtomicUsize::new(0));
    let mut banked_traces: Vec<SimTrace> = Vec::with_capacity(jobs.len());

    for job in &jobs {
        let inner = platform
            .patient(job.patient_idx)
            .expect("campaign grid indexes an existing cohort member");
        let patient_name = inner.name().to_owned();
        let counting = CountingPatient {
            inner,
            steps: Arc::clone(&physics_steps),
        };
        let mut builder = Session::builder(platform)
            .patient_sim(Box::new(counting))
            .config(LoopConfig {
                steps: spec.steps,
                initial_bg: job.initial_bg,
                cgm: spec.cgm,
                ..LoopConfig::default()
            });
        for kind in KINDS {
            builder = builder.monitor(zoo.make(kind, &patient_name));
        }
        if let Some(scenario) = &job.scenario {
            builder = builder.inject(scenario.clone());
        }
        // One simulation carries every member's alert stream in its
        // `monitor_tracks` — no per-monitor copies needed.
        banked_traces.push(
            builder
                .run()
                .expect("campaign grid produces valid sessions"),
        );
    }

    // The probe: M monitors, exactly jobs × steps patient-ODE steps.
    let stepped = physics_steps.load(Ordering::Relaxed);
    let expected = jobs.len() * spec.steps as usize;
    assert_eq!(
        stepped,
        expected,
        "zoo re-simulated physics: {stepped} patient steps for {} scenarios × {} cycles",
        jobs.len(),
        spec.steps
    );
    println!(
        "{} scenarios × {} monitors: {} patient-ODE steps ({} per scenario — one physics pass, \
         monitor count free)\n",
        jobs.len(),
        KINDS.len(),
        stepped,
        spec.steps
    );

    // Campaign-level hazard timing (monitor-independent).
    let tths: Vec<f64> = banked_traces.iter().filter_map(time_to_hazard).collect();
    let tth = TimingStats::from_values(&tths);
    println!(
        "time-to-hazard over the campaign: mean {:.0} min (sd {:.0}, n {}, min {:.0}, max {:.0})\n",
        tth.mean, tth.sd, tth.n, tth.min, tth.max
    );

    let mut table = Table::new(&["monitor", "RT mean", "RT sd", "n", "EDR", "alerts"]);
    let mut results = Vec::new();
    let hazardous = banked_traces
        .iter()
        .filter(|t| t.hazard_onset().is_some())
        .count();
    for (i, kind) in KINDS.into_iter().enumerate() {
        // Timing metrics straight off each trace's i-th alert track —
        // the same quantities `reaction_time`/`early_detection_rate`
        // compute from a projected alert column, without cloning.
        let onset_and_alert = |t: &SimTrace| {
            let onset = t.hazard_onset()?;
            Some((onset, t.monitor_tracks[i].first_alert()))
        };
        let rts: Vec<f64> = banked_traces
            .iter()
            .filter_map(|t| {
                let (onset, alert) = onset_and_alert(t)?;
                Some((onset - alert?) as f64 * CONTROL_CYCLE_MINUTES)
            })
            .collect();
        let stats = TimingStats::from_values(&rts);
        let early = banked_traces
            .iter()
            .filter_map(onset_and_alert)
            .filter(|&(onset, alert)| alert.is_some_and(|a| a < onset))
            .count();
        let edr = if hazardous == 0 {
            0.0
        } else {
            early as f64 / hazardous as f64
        };
        let alerting = banked_traces
            .iter()
            .filter(|t| t.monitor_tracks[i].first_alert().is_some())
            .count();
        results.push(json!({
            "monitor": kind.name(),
            "reaction_mean_min": stats.mean,
            "reaction_sd_min": stats.sd,
            "n": stats.n,
            "edr": edr,
            "alerting_traces": alerting,
        }));
        table.row(&[
            kind.name().to_owned(),
            format!("{:.0}", stats.mean),
            format!("{:.0}", stats.sd),
            stats.n.to_string(),
            format!("{:.0}%", edr * 100.0),
            alerting.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "RiskIdx is the ground-truth risk labeler run *online*: its (negative) reaction time\n\
         is the detection-latency floor — how long after onset a purely risk-threshold\n\
         detector needs before the rolling LBGI/HBGI window confirms the hazard. Any monitor\n\
         worth deploying must sit above that row; the context-aware monitors' margin over it\n\
         is their prediction value."
    );
    write_json(
        &opts.out_dir,
        "zoo",
        &json!({
            "platform": platform.name(),
            "scenarios": jobs.len(),
            "physics_steps": stepped,
            "monitors": KINDS.len(),
            "tth": { "mean_min": tth.mean, "sd_min": tth.sd, "n": tth.n },
            "rows": results,
        }),
    );
}
