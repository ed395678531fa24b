//! Campaign-throughput benchmark (`repro bench-campaign`).
//!
//! Measures the quick fault-injection campaign twice on the current
//! machine:
//!
//! * **baseline** — a faithful reconstruction of the seed's hot path:
//!   Bergman patients stepped with the five-`Vec`-per-RK4-step
//!   integrator and a per-step parameter clone, executed by the seed's
//!   mutex-funneled worker loop (one global
//!   `Mutex<Vec<Option<SimTrace>>>` behind an atomic job counter);
//! * **optimized** — the current stack: stack-scratch RK4, clone-free
//!   closed loop, and the campaign executor of
//!   [`aps_sim::campaign::run_campaign`], whose blocks of
//!   [`BATCH_LANES`](aps_sim::batch::BATCH_LANES) jobs share one
//!   structure-of-arrays physics bank, bit-identical to
//!   [`aps_sim::campaign::run_campaign_serial`].
//!
//! Both run the identical job grid (2 patients × 1 initial BG ×
//! {fault-free + quick fault grid} × 150 steps). With `sweep_workers`
//! the campaign executor is additionally timed at pinned worker counts
//! (1, 2, 4, …) to record the scaling curve. The report
//! is written to `BENCH_campaign.json` so later PRs can show a
//! trajectory; see the "Performance" section of the `aps_repro` crate
//! docs for how to regenerate it.

use crate::report::Table;
use aps_glucose::ode::Dynamics;
use aps_glucose::patients::glucosym_params;
use aps_glucose::PatientSim;
use aps_sim::campaign::{
    campaign_size, run_campaign, run_campaign_serial, run_campaign_with_workers, worker_count,
    worker_count_from, CampaignSpec, WorkerSource,
};
use aps_sim::closed_loop::{run, LoopConfig};
use aps_sim::platform::Platform;
use aps_types::{MgDl, SimTrace, Units, UnitsPerHour};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Worker count and provenance every benchmark executor shares.
///
/// One resolution point (explicit override absent → `APS_WORKERS` env
/// → detection, clamped) replaces the two hand-rolled
/// `available_parallelism().unwrap_or(1)` fallbacks this file used to
/// carry, so the report's `workers`/`worker_source` fields always
/// describe what actually ran — including the seed-faithful executor.
pub fn bench_workers() -> (usize, WorkerSource) {
    worker_count(None)
}

/// One side's measurement.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct Throughput {
    /// Best-of-reps wall time in seconds.
    pub secs: f64,
    /// Simulation runs per second.
    pub runs_per_sec: f64,
    /// Control-cycle steps per second.
    pub steps_per_sec: f64,
}

impl Throughput {
    fn from_secs(secs: f64, runs: usize, steps_per_run: u32) -> Throughput {
        Throughput {
            secs,
            runs_per_sec: runs as f64 / secs,
            steps_per_sec: runs as f64 * f64::from(steps_per_run) / secs,
        }
    }
}

/// One point of the workers-scaling sweep: the campaign executor
/// timed at a pinned worker count.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct WorkerSweepPoint {
    /// Pinned worker-thread count.
    pub workers: usize,
    /// The campaign executor at this worker count (the key keeps the
    /// name of the one-job-at-a-time executor it used to time).
    pub scalar: Throughput,
}

/// The `BENCH_campaign.json` document.
///
/// Container-level `#[serde(default)]`: the committed report must keep
/// loading (the CI `--guard` path reads it) as fields are added.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct CampaignBenchReport {
    /// Campaign preset measured.
    pub campaign: String,
    /// Number of simulation runs in the grid.
    pub runs: usize,
    /// Control cycles per run.
    pub steps_per_run: u32,
    /// Worker threads each executor used.
    pub workers: usize,
    /// Where that worker count came from.
    pub worker_source: WorkerSource,
    /// Timing repetitions (best is reported).
    pub reps: usize,
    /// Seed-faithful pre-optimization measurement.
    pub baseline: Throughput,
    /// Current implementation ([`run_campaign`]).
    pub optimized: Throughput,
    /// `baseline.secs / optimized.secs`.
    pub speedup: f64,
    /// The lockstep executor's speedup from reports recorded while a
    /// separate one existed; a fresh run leaves it 0. The guard
    /// holds `speedup` to the larger of the two committed values.
    pub batched_speedup: f64,
    /// Workers-scaling curve (empty unless the benchmark ran with
    /// `sweep_workers`).
    pub sweep: Vec<WorkerSweepPoint>,
}

/// Runs the benchmark and returns the report. With `sweep_workers` the
/// campaign executor is additionally timed at pinned worker counts
/// 1, 2, 4, … (doubling up to the detected ambient parallelism,
/// minimum 2) to record the scaling curve.
pub fn run_campaign_bench(reps: usize, sweep_workers: bool) -> CampaignBenchReport {
    let reps = reps.max(1);
    let spec = CampaignSpec::quick(Platform::GlucosymOref0);
    let runs = campaign_size(&spec);
    let (workers, worker_source) = bench_workers();

    // Warm-up + correctness guards: both paths must produce the same
    // number of traces; the executor must agree with the serial
    // reference bit for bit (that is its contract), the seed baseline
    // on at least 90% of hazard labels.
    let opt_traces = run_campaign(&spec, None);
    let base_traces = seed_baseline::run_campaign(&spec);
    assert_eq!(
        opt_traces.len(),
        base_traces.len(),
        "executor grid mismatch"
    );
    assert_eq!(
        opt_traces,
        run_campaign_serial(&spec, None),
        "campaign executor diverged from the serial reference"
    );
    let agree = opt_traces
        .iter()
        .zip(&base_traces)
        .filter(|(a, b)| a.is_hazardous() == b.is_hazardous())
        .count();
    assert!(
        agree * 10 >= opt_traces.len() * 9,
        "baseline and optimized campaigns disagree on hazards ({agree}/{})",
        opt_traces.len()
    );

    let time_best = |f: &dyn Fn() -> usize| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let start = Instant::now();
            let n = f();
            let secs = start.elapsed().as_secs_f64();
            assert_eq!(n, runs, "campaign size changed mid-benchmark");
            best = best.min(secs);
        }
        best
    };

    let base_secs = time_best(&|| seed_baseline::run_campaign(&spec).len());
    let opt_secs = time_best(&|| run_campaign(&spec, None).len());

    let mut sweep = Vec::new();
    if sweep_workers {
        // The sweep ceiling comes from *detected* parallelism, not the
        // resolved count: CI pins APS_WORKERS=1 to keep the headline
        // single-core ratios machine-comparable, and that pin must not
        // collapse the scaling curve. Each sweep point pins its own
        // worker count explicitly (Override beats Env in
        // `worker_count_from`), so the env var never distorts a row.
        let detected = worker_count_from(
            None,
            None,
            std::thread::available_parallelism()
                .map(std::num::NonZero::get)
                .map_err(|e| e.to_string()),
        )
        .0;
        let mut w = 1;
        while w <= detected.max(2) {
            let secs = time_best(&|| {
                let mut n = 0;
                run_campaign_with_workers(&spec, None, Some(w), |_, _| n += 1);
                n
            });
            sweep.push(WorkerSweepPoint {
                workers: w,
                scalar: Throughput::from_secs(secs, runs, spec.steps),
            });
            w *= 2;
        }
    }

    CampaignBenchReport {
        campaign: "quick".to_owned(),
        runs,
        steps_per_run: spec.steps,
        workers,
        worker_source,
        reps,
        baseline: Throughput::from_secs(base_secs, runs, spec.steps),
        optimized: Throughput::from_secs(opt_secs, runs, spec.steps),
        speedup: base_secs / opt_secs,
        batched_speedup: 0.0,
        sweep,
    }
}

/// Runs the benchmark, prints a table, and writes
/// `BENCH_campaign.json` to `out_path`.
pub fn bench_campaign(reps: usize, out_path: &str, sweep_workers: bool) -> CampaignBenchReport {
    let report = run_campaign_bench(reps, sweep_workers);
    let mut table = Table::new(&["path", "wall (s)", "runs/s", "steps/s"]);
    let fmt = |t: &Throughput| {
        vec![
            format!("{:.4}", t.secs),
            format!("{:.1}", t.runs_per_sec),
            format!("{:.0}", t.steps_per_sec),
        ]
    };
    let mut base_row = vec!["baseline (seed-faithful)".to_owned()];
    base_row.extend(fmt(&report.baseline));
    let mut opt_row = vec!["optimized".to_owned()];
    opt_row.extend(fmt(&report.optimized));
    table.row(&base_row);
    table.row(&opt_row);
    println!(
        "campaign throughput — {} runs x {} steps, {} worker(s), best of {}\n",
        report.runs, report.steps_per_run, report.workers, report.reps
    );
    println!("{}", table.render());
    println!("speedup: {:.2}x", report.speedup);
    if !report.sweep.is_empty() {
        let mut sweep_table = Table::new(&["workers", "runs/s"]);
        for point in &report.sweep {
            sweep_table.row(&[
                point.workers.to_string(),
                format!("{:.1}", point.scalar.runs_per_sec),
            ]);
        }
        println!("\nworkers-scaling sweep\n\n{}", sweep_table.render());
    }
    match serde_json::to_string_pretty(&report) {
        Ok(json) => {
            if let Err(e) = std::fs::write(out_path, json + "\n") {
                eprintln!("warning: cannot write {out_path}: {e}");
            } else {
                println!("[report written to {out_path}]");
            }
        }
        Err(e) => eprintln!("warning: cannot serialize report: {e}"),
    }
    report
}

/// Fraction of the committed speedup a fresh measurement must retain
/// for the CI perf-regression guard to pass.
pub const GUARD_MIN_FRACTION: f64 = 0.8;

/// Perf-regression guard: compares a freshly measured report against
/// the committed baseline report and returns `Err` when the fresh
/// speedup fell below `min_fraction` of the committed one — the larger
/// of its `speedup` and `batched_speedup`, so a report recorded while
/// two executors existed holds the one left to the faster's figure
/// (CI uses [`GUARD_MIN_FRACTION`]). The speedup *ratio* is
/// machine-portable —
/// both sides of it are measured on the same host in the same process
/// — which is what makes this guard meaningful on arbitrary CI
/// hardware where absolute wall times are not.
pub fn check_speedup_guard(
    fresh: &CampaignBenchReport,
    committed: &CampaignBenchReport,
    min_fraction: f64,
) -> Result<(), String> {
    let target = committed.speedup.max(committed.batched_speedup);
    let floor = target * min_fraction;
    if !fresh.speedup.is_finite() || fresh.speedup < floor {
        return Err(format!(
            "campaign speedup regressed: fresh {:.2}x < {:.2}x \
             ({}% of the committed {:.2}x)",
            fresh.speedup,
            floor,
            (min_fraction * 100.0).round(),
            target,
        ));
    }
    Ok(())
}

/// Runs [`bench_campaign`] and enforces [`check_speedup_guard`]
/// against the report committed at `baseline_path`. Exits the process
/// with a failure code on regression — this is the CI entry point.
pub fn bench_campaign_guarded(
    reps: usize,
    out_path: &str,
    baseline_path: &str,
    sweep_workers: bool,
) {
    let committed: CampaignBenchReport = match std::fs::read_to_string(baseline_path) {
        Ok(json) => match serde_json::from_str(&json) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("error: cannot parse baseline {baseline_path}: {e}");
                std::process::exit(2);
            }
        },
        Err(e) => {
            eprintln!("error: cannot read baseline {baseline_path}: {e}");
            std::process::exit(2);
        }
    };
    let fresh = bench_campaign(reps, out_path, sweep_workers);
    match check_speedup_guard(&fresh, &committed, GUARD_MIN_FRACTION) {
        Ok(()) => println!(
            "perf guard ok: {:.2}x >= {}% of committed {:.2}x",
            fresh.speedup,
            (GUARD_MIN_FRACTION * 100.0).round(),
            committed.speedup.max(committed.batched_speedup)
        ),
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
    }
}

/// Multi-core scaling gate over a recorded workers sweep: the
/// campaign executor's 2-worker throughput must be at least
/// `min_ratio` times its 1-worker throughput. Like the speedup guard, the *ratio* is
/// machine-portable — both points come from the same host and process
/// — so the gate is meaningful on arbitrary CI hardware. Returns a
/// human-readable summary on success.
pub fn check_sweep_gate(report: &CampaignBenchReport, min_ratio: f64) -> Result<String, String> {
    let point = |workers: usize| {
        report
            .sweep
            .iter()
            .find(|p| p.workers == workers)
            .ok_or_else(|| {
                format!(
                    "sweep gate needs a {workers}-worker point; report has {:?} \
                     (run bench-campaign with --sweep-workers)",
                    report.sweep.iter().map(|p| p.workers).collect::<Vec<_>>()
                )
            })
    };
    let one = point(1)?;
    let two = point(2)?;
    let ratio = two.scalar.runs_per_sec / one.scalar.runs_per_sec;
    if !ratio.is_finite() {
        return Err(format!(
            "sweep gate: non-finite ratio ({} / {} runs/s)",
            two.scalar.runs_per_sec, one.scalar.runs_per_sec
        ));
    }
    if ratio < min_ratio {
        return Err(format!(
            "multi-core scaling regressed: 2-worker throughput is \
             {ratio:.2}x the 1-worker throughput (< required {min_ratio:.2}x; \
             {:.1} vs {:.1} runs/s)",
            two.scalar.runs_per_sec, one.scalar.runs_per_sec
        ));
    }
    Ok(format!(
        "sweep gate ok: 2-worker/1-worker = {ratio:.2}x (>= {min_ratio:.2}x)"
    ))
}

/// Faithful reconstruction of the seed's simulation hot path, kept as
/// the pre-optimization baseline. Everything here intentionally
/// mirrors the seed commit: do not "fix" it.
pub mod seed_baseline {
    use super::*;
    use aps_controllers::oref0::Oref0Profile;
    use aps_controllers::{Controller, StateVar};
    use aps_fault::{campaign_grid, FaultInjector, FaultScenario};
    use aps_glucose::bergman::{BergmanParams, EXERCISE_GEZI_GAIN};
    use aps_glucose::iob::IobCurve;

    /// The seed's `rk4_step`: five fresh `Vec` allocations per step.
    fn rk4_step_alloc<D: Dynamics + ?Sized>(dyn_: &D, t: f64, x: &mut [f64], dt: f64) {
        let n = x.len();
        let mut k1 = vec![0.0; n];
        let mut k2 = vec![0.0; n];
        let mut k3 = vec![0.0; n];
        let mut k4 = vec![0.0; n];
        let mut tmp = vec![0.0; n];
        dyn_.derivative(t, x, &mut k1);
        for i in 0..n {
            tmp[i] = x[i] + 0.5 * dt * k1[i];
        }
        dyn_.derivative(t + 0.5 * dt, &tmp, &mut k2);
        for i in 0..n {
            tmp[i] = x[i] + 0.5 * dt * k2[i];
        }
        dyn_.derivative(t + 0.5 * dt, &tmp, &mut k3);
        for i in 0..n {
            tmp[i] = x[i] + dt * k3[i];
        }
        dyn_.derivative(t + dt, &tmp, &mut k4);
        for i in 0..n {
            x[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
    }

    /// The seed's `integrate`: one allocating `rk4_step_alloc` per
    /// substep. `tests/perf_equivalence.rs` holds the scratch
    /// integrator bit-identical to it.
    pub fn integrate_alloc<D: Dynamics + ?Sized>(
        dyn_: &D,
        t0: f64,
        x: &mut [f64],
        duration: f64,
        max_dt: f64,
    ) {
        let steps = (duration / max_dt).ceil() as usize;
        let dt = duration / steps as f64;
        let mut t = t0;
        for _ in 0..steps {
            rk4_step_alloc(dyn_, t, x, dt);
            t += dt;
        }
    }

    const ISC: usize = 0;
    const IP: usize = 1;
    const IEFF: usize = 2;
    const BG: usize = 3;
    const QGUT1: usize = 4;
    const QGUT2: usize = 5;
    const NSTATE: usize = 6;

    /// The seed's `BergmanPatient::step`: clones the parameter struct
    /// (one `String` heap allocation) every control cycle and
    /// integrates with the allocating RK4.
    pub struct SeedBergmanPatient {
        params: BergmanParams,
        state: [f64; NSTATE],
        t_minutes: f64,
        exercise_minutes_left: f64,
        exercise_intensity: f64,
    }

    impl SeedBergmanPatient {
        /// Builds the patient at 120 mg/dL equilibrium.
        pub fn new(params: BergmanParams) -> SeedBergmanPatient {
            let mut p = SeedBergmanPatient {
                params,
                state: [0.0; NSTATE],
                t_minutes: 0.0,
                exercise_minutes_left: 0.0,
                exercise_intensity: 0.0,
            };
            p.reset(MgDl(120.0));
            p
        }
    }

    impl PatientSim for SeedBergmanPatient {
        fn name(&self) -> &str {
            &self.params.name
        }

        fn bg(&self) -> MgDl {
            MgDl(self.state[BG]).clamp_physiological()
        }

        fn step(&mut self, rate: UnitsPerHour, minutes: f64) {
            let rate = rate.max_zero();
            let id_uu_per_min = rate.value() * 1e6 / 60.0;
            let p = self.params.clone();
            let active = self.exercise_minutes_left.min(minutes);
            let intensity = if active > 0.0 {
                self.exercise_intensity
            } else {
                0.0
            };
            let gezi = p.gezi * (1.0 + EXERCISE_GEZI_GAIN * intensity * (active / minutes));
            self.exercise_minutes_left = (self.exercise_minutes_left - minutes).max(0.0);
            let dynamics = move |_t: f64, x: &[f64], d: &mut [f64]| {
                let ra = p.carb_gain * x[QGUT2] / p.tau_meal;
                d[ISC] = id_uu_per_min / (p.tau1 * p.ci) - x[ISC] / p.tau1;
                d[IP] = (x[ISC] - x[IP]) / p.tau2;
                d[IEFF] = -p.p2 * x[IEFF] + p.p2 * p.si * x[IP];
                d[BG] = -(gezi + x[IEFF]) * x[BG] + p.egp + ra;
                d[QGUT1] = -x[QGUT1] / p.tau_meal;
                d[QGUT2] = (x[QGUT1] - x[QGUT2]) / p.tau_meal;
            };
            integrate_alloc(&dynamics, self.t_minutes, &mut self.state, minutes, 1.0);
            self.state[BG] = self.state[BG].max(10.0);
            self.t_minutes += minutes;
        }

        fn reset(&mut self, bg0: MgDl) {
            let basal = self.params.equilibrium_basal(MgDl(120.0));
            let id_uu_per_min = basal.value() * 1e6 / 60.0;
            let ip = id_uu_per_min / self.params.ci;
            self.state = [0.0; NSTATE];
            self.state[ISC] = ip;
            self.state[IP] = ip;
            self.state[IEFF] = self.params.si * ip;
            self.state[BG] = bg0.value();
            self.t_minutes = 0.0;
            self.exercise_minutes_left = 0.0;
            self.exercise_intensity = 0.0;
        }

        fn ingest(&mut self, carbs_g: f64) {
            self.state[QGUT1] += carbs_g.max(0.0);
        }

        fn exert(&mut self, intensity: f64, duration_min: f64) {
            self.exercise_intensity = intensity.clamp(0.0, 1.0);
            self.exercise_minutes_left = duration_min.max(0.0);
        }

        fn equilibrium_basal(&self, target: MgDl) -> UnitsPerHour {
            self.params.equilibrium_basal(target)
        }
    }

    /// The seed's `IobEstimator`: recomputes the full `exp`-heavy
    /// activity-curve window sum on *every* read (the current one
    /// caches it and memoizes the curve on the cycle grid).
    #[derive(Clone)]
    struct SeedIobEstimator {
        curve: IobCurve,
        deliveries: std::collections::VecDeque<(f64, f64)>,
        baseline: f64,
        last_iob: Option<f64>,
        cycle_minutes: f64,
    }

    impl SeedIobEstimator {
        fn new(curve: IobCurve, cycle_minutes: f64) -> SeedIobEstimator {
            SeedIobEstimator {
                curve,
                deliveries: std::collections::VecDeque::new(),
                baseline: 0.0,
                last_iob: None,
                cycle_minutes,
            }
        }

        fn set_basal_baseline(&mut self, basal: UnitsPerHour) {
            let per_min = basal.value() / 60.0;
            let horizon = self.curve.horizon_minutes();
            let mut sum = 0.0;
            let mut t = 0.0;
            while t < horizon {
                sum += self.curve.remaining(t);
                t += 1.0;
            }
            self.baseline = per_min * sum;
        }

        fn record(&mut self, delivered: UnitsPerHour) {
            let amount = delivered
                .max_zero()
                .over_minutes(self.cycle_minutes)
                .value();
            for entry in &mut self.deliveries {
                entry.0 += self.cycle_minutes;
            }
            self.deliveries.push_back((0.0, amount));
            let horizon = self.curve.horizon_minutes();
            while let Some(&(age, _)) = self.deliveries.front() {
                if age > horizon {
                    self.deliveries.pop_front();
                } else {
                    break;
                }
            }
            self.last_iob = Some(self.raw_iob());
        }

        fn raw_iob(&self) -> f64 {
            let total: f64 = self
                .deliveries
                .iter()
                .map(|&(age, amount)| amount * self.curve.remaining(age))
                .sum();
            total - self.baseline
        }

        fn iob(&self) -> Units {
            // Seed behavior: full window recomputation per read.
            Units(self.last_iob.map(|_| self.raw_iob()).unwrap_or(0.0))
        }

        fn reset(&mut self) {
            self.deliveries.clear();
            self.last_iob = None;
        }

        fn prefill_basal(&mut self, basal: UnitsPerHour) {
            self.reset();
            let horizon = self.curve.horizon_minutes();
            let steps = (horizon / self.cycle_minutes).ceil() as usize;
            let amount = basal.max_zero().over_minutes(self.cycle_minutes).value();
            for k in (1..=steps).rev() {
                self.deliveries
                    .push_back((k as f64 * self.cycle_minutes, amount));
            }
            self.last_iob = Some(self.raw_iob());
        }
    }

    /// The seed's oref0 controller hot path: per-cycle profile clone,
    /// a `Vec`-collecting `avg_delta`, `HashMap`-backed variable
    /// state, and the recompute-per-read IOB estimator above. The
    /// decision *logic* is identical to the current controller.
    #[derive(Clone)]
    pub struct SeedOref0Controller {
        profile: Oref0Profile,
        estimator: SeedIobEstimator,
        bg_history: std::collections::VecDeque<f64>,
        prev_rate: UnitsPerHour,
        overrides: std::collections::HashMap<&'static str, f64>,
        last_vars: std::collections::HashMap<&'static str, f64>,
    }

    impl SeedOref0Controller {
        /// Builds the controller the Glucosym platform would use.
        pub fn new(profile: Oref0Profile) -> SeedOref0Controller {
            let mut estimator = SeedIobEstimator::new(
                IobCurve::default_exponential(),
                aps_types::CONTROL_CYCLE_MINUTES,
            );
            estimator.set_basal_baseline(UnitsPerHour(profile.basal));
            estimator.prefill_basal(UnitsPerHour(profile.basal));
            let prev_rate = UnitsPerHour(profile.basal);
            SeedOref0Controller {
                profile,
                estimator,
                bg_history: std::collections::VecDeque::new(),
                prev_rate,
                overrides: std::collections::HashMap::new(),
                last_vars: std::collections::HashMap::new(),
            }
        }

        fn take_override(&mut self, var: &'static str, fallback: f64) -> f64 {
            self.overrides.remove(var).unwrap_or(fallback)
        }

        fn avg_delta(&self) -> f64 {
            let h: Vec<f64> = self.bg_history.iter().copied().collect();
            let n = h.len();
            if n < 2 {
                return 0.0;
            }
            let span = (n - 1).min(3);
            (h[n - 1] - h[n - 1 - span]) / span as f64
        }
    }

    impl Controller for SeedOref0Controller {
        fn name(&self) -> &str {
            "oref0-seed"
        }

        fn decide(&mut self, _step: aps_types::Step, bg: MgDl) -> UnitsPerHour {
            let p = self.profile;
            let glucose = self.take_override("glucose", bg.value());
            self.bg_history.push_back(glucose);
            if self.bg_history.len() > 5 {
                self.bg_history.pop_front();
            }
            let delta = self.take_override("delta", self.avg_delta());
            let iob = self.take_override("iob", self.estimator.iob().value());
            let target = self.take_override("target_bg", p.target_bg);
            let isf = self.take_override("isf", p.isf).max(1.0);
            let trend = delta * p.trend_horizon_min / aps_types::CONTROL_CYCLE_MINUTES;
            let naive_eventual = glucose - iob * isf;
            let eventual_bg = self.take_override("eventual_bg", naive_eventual + trend);
            let mut rate = if glucose < p.suspend_bg || eventual_bg < p.suspend_eventual_bg {
                0.0
            } else {
                let error = eventual_bg - target;
                let insulin_req = error / isf;
                let correction = insulin_req * 60.0 / p.correction_horizon_min;
                p.basal + correction
            };
            if rate > p.basal && iob >= p.max_iob {
                rate = p.basal;
            }
            rate = rate.clamp(0.0, p.max_basal);
            let rate = self.take_override("rate", rate);
            let rate = UnitsPerHour(rate.clamp(0.0, p.max_basal));
            self.last_vars.insert("glucose", glucose);
            self.last_vars.insert("delta", delta);
            self.last_vars.insert("iob", iob);
            self.last_vars.insert("eventual_bg", eventual_bg);
            self.last_vars.insert("rate", rate.value());
            self.last_vars.insert("target_bg", target);
            self.last_vars.insert("isf", isf);
            self.prev_rate = rate;
            rate
        }

        fn iob(&self) -> Units {
            self.estimator.iob()
        }

        fn previous_rate(&self) -> UnitsPerHour {
            self.prev_rate
        }

        fn target_bg(&self) -> MgDl {
            MgDl(self.profile.target_bg)
        }

        fn basal_rate(&self) -> UnitsPerHour {
            UnitsPerHour(self.profile.basal)
        }

        fn reset(&mut self) {
            self.estimator
                .set_basal_baseline(UnitsPerHour(self.profile.basal));
            self.estimator
                .prefill_basal(UnitsPerHour(self.profile.basal));
            self.bg_history.clear();
            self.prev_rate = UnitsPerHour(self.profile.basal);
            self.overrides.clear();
            self.last_vars.clear();
        }

        fn fork(&self) -> Box<dyn Controller> {
            Box::new(self.clone())
        }

        fn observe_delivery(&mut self, delivered: UnitsPerHour) {
            self.estimator.record(delivered);
        }

        fn state_vars(&self) -> Vec<StateVar> {
            let p = &self.profile;
            vec![
                StateVar {
                    name: "glucose",
                    min: 40.0,
                    max: 400.0,
                },
                StateVar {
                    name: "iob",
                    min: 0.0,
                    max: p.max_iob * 2.0,
                },
                StateVar {
                    name: "eventual_bg",
                    min: 40.0,
                    max: 400.0,
                },
                StateVar {
                    name: "rate",
                    min: 0.0,
                    max: p.max_basal,
                },
                StateVar {
                    name: "target_bg",
                    min: 80.0,
                    max: 200.0,
                },
                StateVar {
                    name: "isf",
                    min: 10.0,
                    max: 120.0,
                },
                StateVar {
                    name: "delta",
                    min: -20.0,
                    max: 20.0,
                },
            ]
        }

        fn get_state(&self, var: &str) -> Option<f64> {
            self.last_vars.get(var).copied()
        }

        fn set_state(&mut self, var: &str, value: f64) -> bool {
            let known = self.state_vars().into_iter().find(|v| v.name == var);
            match known {
                Some(v) => {
                    self.overrides.insert(v.name, value);
                    true
                }
                None => false,
            }
        }
    }

    struct Job {
        patient_idx: usize,
        initial_bg: f64,
        scenario: Option<FaultScenario>,
    }

    fn expand(spec: &CampaignSpec) -> Vec<Job> {
        let platform = spec.platform;
        let probe = platform.patients().remove(0);
        let targets = platform.primary_targets(probe.as_ref());
        let scenarios = campaign_grid(&targets, &spec.faults);
        let mut jobs = Vec::new();
        for &pi in &spec.patient_indices {
            for &bg0 in &spec.initial_bgs {
                if spec.include_fault_free {
                    jobs.push(Job {
                        patient_idx: pi,
                        initial_bg: bg0,
                        scenario: None,
                    });
                }
                for s in &scenarios {
                    jobs.push(Job {
                        patient_idx: pi,
                        initial_bg: bg0,
                        scenario: Some(s.clone()),
                    });
                }
            }
        }
        jobs
    }

    fn run_job(spec: &CampaignSpec, job: &Job) -> SimTrace {
        let params = glucosym_params().remove(job.patient_idx);
        let mut patient = SeedBergmanPatient::new(params);
        // The profile the Glucosym platform would build for this
        // patient, driven through the seed-faithful controller.
        let basal = patient.equilibrium_basal(MgDl(120.0)).value().max(0.05);
        let mut controller = SeedOref0Controller::new(Oref0Profile {
            basal,
            max_basal: (4.0 * basal).max(2.0),
            ..Oref0Profile::default()
        });
        let mut injector = job.scenario.clone().map(FaultInjector::new);
        let config = LoopConfig {
            steps: spec.steps,
            initial_bg: job.initial_bg,
            cgm: spec.cgm,
            ..LoopConfig::default()
        };
        run(
            &mut patient,
            &mut controller,
            None,
            injector.as_mut(),
            &config,
        )
    }

    /// The seed's executor: an atomic job counter feeding scoped
    /// workers that all write through one global mutex-guarded result
    /// vector.
    pub fn run_campaign(spec: &CampaignSpec) -> Vec<SimTrace> {
        let jobs = expand(spec);
        let n = jobs.len();
        // Worker resolution is shared with the modern executors (the
        // seed's raw `available_parallelism().unwrap_or(1)` fallback
        // lived here *and* at the report top — one helper now), so the
        // reported provenance covers this executor too.
        let workers = bench_workers().0.min(n.max(1));
        if workers <= 1 {
            return jobs.iter().map(|j| run_job(spec, j)).collect();
        }
        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<Option<SimTrace>>> = Mutex::new((0..n).map(|_| None).collect());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let trace = run_job(spec, &jobs[i]);
                    // A poisoned lock still holds valid data: writers
                    // only ever fill disjoint slots, so recover the
                    // guard instead of propagating the panic.
                    results
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)[i] = Some(trace);
                });
            }
        });
        let collected: Vec<SimTrace> = results
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .into_iter()
            .flatten()
            .collect();
        // Every index < n is claimed exactly once by the atomic
        // counter; a shorter vector means a worker died mid-job.
        assert_eq!(collected.len(), n, "seed executor dropped a job");
        collected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_patient_matches_optimized_patient() {
        // The baseline must be *faithful*: its trajectory agrees with
        // the optimized patient (the integrator rewrite is
        // bit-identical, so so are the patients).
        use aps_glucose::bergman::BergmanPatient;
        let params = glucosym_params().remove(0);
        let mut seed = seed_baseline::SeedBergmanPatient::new(params.clone());
        let mut opt = BergmanPatient::new(params);
        seed.reset(MgDl(140.0));
        opt.reset(MgDl(140.0));
        for i in 0..100 {
            let rate = UnitsPerHour(0.5 + 0.1 * f64::from(i % 7));
            seed.step(rate, 5.0);
            opt.step(rate, 5.0);
            assert_eq!(seed.bg(), opt.bg(), "diverged at cycle {i}");
        }
    }

    #[test]
    fn speedup_guard_thresholds() {
        let t = Throughput::from_secs(1.0, 62, 150);
        let report = |speedup: f64, batched_speedup: f64| CampaignBenchReport {
            campaign: "quick".to_owned(),
            runs: 62,
            steps_per_run: 150,
            workers: 1,
            reps: 1,
            baseline: t.clone(),
            optimized: t.clone(),
            speedup,
            batched_speedup,
            ..CampaignBenchReport::default()
        };
        // A committed report without a lockstep figure (recorded
        // before it existed, or by the one executor) guards `speedup`.
        let committed = report(3.4, 0.0);
        assert!(check_speedup_guard(&report(3.4, 0.0), &committed, 0.8).is_ok());
        assert!(check_speedup_guard(&report(2.8, 0.0), &committed, 0.8).is_ok());
        // Below 80% of the committed value: regression.
        assert!(check_speedup_guard(&report(2.6, 0.0), &committed, 0.8).is_err());
        assert!(check_speedup_guard(&report(f64::NAN, 0.0), &committed, 0.8).is_err());
        // A committed lockstep figure raises the bar for `speedup`; the
        // fresh report's own `batched_speedup` is ignored.
        let two_engines = report(3.4, 6.0);
        assert!(check_speedup_guard(&report(4.9, 0.0), &two_engines, 0.8).is_ok());
        assert!(check_speedup_guard(&report(4.7, 9.0), &two_engines, 0.8).is_err());
        assert!(check_speedup_guard(&report(3.4, 6.0), &two_engines, 0.8).is_err());
        // A faster run always passes.
        assert!(check_speedup_guard(&report(9.0, 0.0), &two_engines, 0.8).is_ok());
    }

    #[test]
    fn sweep_gate_enforces_two_worker_ratio() {
        let point = |workers: usize, rps: f64| WorkerSweepPoint {
            workers,
            scalar: Throughput {
                secs: 1.0,
                runs_per_sec: rps,
                steps_per_sec: rps * 150.0,
            },
        };
        let report = |two_rps: f64| CampaignBenchReport {
            sweep: vec![point(1, 1000.0), point(2, two_rps)],
            ..CampaignBenchReport::default()
        };
        // 1.8x scaling clears the 1.3x bar.
        assert!(check_sweep_gate(&report(1800.0), 1.3).is_ok());
        // 1.1x does not.
        let err = check_sweep_gate(&report(1100.0), 1.3).unwrap_err();
        assert!(err.contains("regressed"), "{err}");
        // Missing sweep points and degenerate throughputs are typed
        // failures, not panics.
        let empty = CampaignBenchReport::default();
        assert!(check_sweep_gate(&empty, 1.3)
            .unwrap_err()
            .contains("--sweep-workers"));
        assert!(check_sweep_gate(&report(f64::NAN), 1.3).is_err());
        let zero_base = CampaignBenchReport {
            sweep: vec![point(1, 0.0), point(2, 1000.0)],
            ..CampaignBenchReport::default()
        };
        assert!(check_sweep_gate(&zero_base, 1.3).is_err());
    }

    #[test]
    fn bench_report_shape() {
        let report = run_campaign_bench(1, true);
        assert_eq!(report.runs, 62);
        assert!(report.baseline.secs > 0.0 && report.optimized.secs > 0.0);
        assert!(report.speedup > 0.0);
        // Sweep starts at one worker and doubles.
        assert!(report.sweep.len() >= 2);
        assert_eq!(report.sweep[0].workers, 1);
        assert_eq!(report.sweep[1].workers, 2);
        assert!(report.sweep.iter().all(|p| p.scalar.secs > 0.0));
        let json = serde_json::to_string(&report).unwrap();
        let back: CampaignBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn legacy_bench_report_json_still_loads() {
        // A pre-batching BENCH_campaign.json (no batched/sweep fields)
        // must keep deserializing — the CI guard reads the committed
        // file before overwriting it.
        let legacy = r#"{
            "campaign": "quick", "runs": 62, "steps_per_run": 150,
            "workers": 1, "reps": 5,
            "baseline": {"secs": 0.04, "runs_per_sec": 1550.0, "steps_per_sec": 232500.0},
            "optimized": {"secs": 0.008, "runs_per_sec": 7750.0, "steps_per_sec": 1162500.0},
            "speedup": 5.0
        }"#;
        let report: CampaignBenchReport = serde_json::from_str(legacy).unwrap();
        assert_eq!(report.speedup, 5.0);
        assert_eq!(report.batched_speedup, 0.0);
        assert!(report.sweep.is_empty());
        assert_eq!(report.worker_source, WorkerSource::Detected);

        // The committed report, recorded while a separate lockstep
        // executor existed, loads with its figure for the guard.
        let committed: CampaignBenchReport =
            serde_json::from_str(include_str!("../../../BENCH_campaign.json")).unwrap();
        assert!(committed.speedup > 0.0);
    }
}
