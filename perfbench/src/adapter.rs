//! Every call the benchmark makes into the library lives in this file.
//!
//! The workloads see only the functions and type names below. When a
//! library entry point is renamed or removed (the executor, service log
//! and fault-tolerant APIs are expected to consolidate), only this file
//! needs to change. No metric reads the service's shard-log format:
//! log sizes come from a directory listing.

use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

use aps_core::learning::{extract_rule_samples, learn_thresholds, traces_for_patient, LearnConfig};
use aps_core::mitigation::Mitigator;
use aps_core::monitors::{CawMonitor, MonitorInput};
use aps_core::scs::IobCond;
use aps_fault::FaultInjector;
use aps_glucose::pump::{Pump, PumpConfig};
use aps_glucose::sensor::Cgm;
use aps_optim::{lbfgsb, Bounds, Options};
use aps_service::client::EventStream;
use aps_service::{Client, Event};
use aps_sim::campaign::{
    campaign_jobs, run_campaign_resumable, run_campaign_serial, run_campaign_with_workers,
    CampaignOptions, CheckpointPolicy, ScenarioCtx,
};
use aps_sim::checkpoint::AggregatePartials;
use aps_tracestore::{FileTraceWriter, TraceStoreReader};
use aps_types::{UnitsPerHour, CONTROL_CYCLE_MINUTES};

pub use aps_core::monitors::HazardMonitor;
pub use aps_core::scs::Scs;
pub use aps_service::ServiceError;
pub use aps_sim::campaign::{CampaignJob, CampaignReport, CampaignSpec};
pub use aps_sim::platform::Platform;
pub use aps_types::{AlertTrack, SimTrace};

/// Result of one call that can fail with a printable error.
pub type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// ---------------------------------------------------------------- specs

/// Fault grid of a benchmark campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    /// The paper's full 9-combination grid (271 runs per patient and BG).
    Paper,
    /// The quick smoke grid (31 runs per patient and BG).
    Quick,
}

/// The seven initial glucose values of the paper's campaigns.
pub fn initial_bgs() -> Vec<f64> {
    aps_glucose::patients::initial_bg_values().to_vec()
}

/// A campaign over the given patients and initial BGs, without monitor.
pub fn campaign_spec(
    platform: Platform,
    grid: Grid,
    patients: Vec<usize>,
    bgs: Vec<f64>,
) -> CampaignSpec {
    let base = match grid {
        Grid::Paper => CampaignSpec::paper(platform),
        Grid::Quick => CampaignSpec::quick(platform),
    };
    CampaignSpec {
        patient_indices: patients,
        initial_bgs: bgs,
        ..base
    }
}

/// `spec` with Algorithm-1 mitigation on monitor alerts.
pub fn with_mitigation(spec: &CampaignSpec) -> CampaignSpec {
    CampaignSpec {
        mitigate: true,
        ..spec.clone()
    }
}

/// Number of shards the daemon splits `spec` into when asked for
/// `requested`.
pub fn planned_shards(spec: &CampaignSpec, requested: usize) -> usize {
    aps_sim::shard::plan_shards(spec, requested).len()
}

/// The spec's jobs in execution order.
pub fn jobs(spec: &CampaignSpec) -> Vec<CampaignJob> {
    campaign_jobs(spec)
}

/// Name and basal rate of every patient in the spec, in spec order.
pub fn patient_basals(spec: &CampaignSpec) -> Vec<(String, f64)> {
    spec.patient_indices
        .iter()
        .filter_map(|&i| spec.platform.patient(i))
        .map(|p| {
            (
                p.name().to_owned(),
                spec.platform.basal_for(p.as_ref()).value(),
            )
        })
        .collect()
}

// --------------------------------------------------------------- digest

/// Rolling campaign digest, folded exactly as the executors fold it.
#[derive(Debug, Clone, Default)]
pub struct Digest(AggregatePartials);

impl Digest {
    /// Folds one completed trace.
    pub fn fold(&mut self, trace: &SimTrace) {
        self.0.fold_completed(trace);
    }

    /// Hex digest.
    pub fn hex(&self) -> &str {
        &self.0.digest
    }

    /// Completed traces folded.
    pub fn completed(&self) -> usize {
        self.0.completed_jobs
    }

    /// Folded traces that carry a labelled hazard.
    pub fn hazardous(&self) -> usize {
        self.0.hazardous_jobs
    }
}

// ------------------------------------------------------------ executors

/// Creates the per-run monitor from the run's patient name.
pub type Factory<'a> = &'a (dyn Fn(&str) -> Box<dyn HazardMonitor> + Sync);

/// Serial reference digest of `spec`, computed with
/// `run_campaign_serial` one patient at a time so the reference never
/// holds more than one patient's traces. Jobs are patient-major, so the
/// per-patient runs concatenate to the full job order.
pub fn serial_digest(spec: &CampaignSpec, factory: Option<Factory<'_>>) -> Digest {
    let adapted = factory.map(|f| move |ctx: &ScenarioCtx| f(&ctx.patient));
    let dynf = adapted
        .as_ref()
        .map(|f| f as &(dyn Fn(&ScenarioCtx) -> Box<dyn HazardMonitor> + Sync));
    let mut digest = Digest::default();
    for &p in &spec.patient_indices {
        let one = CampaignSpec {
            patient_indices: vec![p],
            ..spec.clone()
        };
        for trace in run_campaign_serial(&one, dynf) {
            digest.fold(&trace);
        }
    }
    digest
}

/// Serial reference traces of `spec` (small campaigns only).
pub fn serial_traces(spec: &CampaignSpec) -> Vec<SimTrace> {
    run_campaign_serial(spec, None)
}

/// The default in-process streaming executor, pinned to `workers`.
pub fn stream_campaign(spec: &CampaignSpec, workers: usize, sink: impl FnMut(usize, SimTrace)) {
    run_campaign_with_workers(spec, None, Some(workers), sink);
}

/// The fault-tolerant resumable executor with a monitor, pinned to
/// `workers`, checkpointing to `ckpt` every `every` jobs. The sink gets
/// each completed trace; failed jobs are counted in the report.
pub fn resumable_campaign(
    spec: &CampaignSpec,
    factory: Factory<'_>,
    workers: usize,
    ckpt: &Path,
    every: usize,
    mut sink: impl FnMut(usize, Option<SimTrace>),
) -> Res<CampaignReport> {
    let adapted = |ctx: &ScenarioCtx| factory(&ctx.patient);
    let options = CampaignOptions {
        workers: Some(workers),
        checkpoint: Some(CheckpointPolicy {
            path: ckpt.to_path_buf(),
            every_jobs: every,
        }),
        ..CampaignOptions::default()
    };
    run_campaign_resumable(spec, Some(&adapted), &options, None, |i, outcome| {
        sink(i, outcome.into_trace());
    })
    .map_err(err)
}

// ----------------------------------------------------------- trace store

/// Writes traces to a store file at `path`.
pub fn write_store(path: &Path, traces: &[SimTrace]) -> Res<()> {
    let mut w = FileTraceWriter::create(path, 0).map_err(err)?;
    for t in traces {
        w.push(t).map_err(err)?;
    }
    w.finalize().map(|_| ()).map_err(err)
}

/// An open, validated trace store.
pub struct Store(TraceStoreReader);

impl Store {
    /// Opens and validates a store file.
    pub fn open(path: &Path) -> Res<Store> {
        TraceStoreReader::open(path).map(Store).map_err(err)
    }

    /// Number of traces.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the store holds no traces.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// File size in bytes.
    pub fn bytes(&self) -> u64 {
        self.0.byte_len()
    }

    /// Materializes trace `i`.
    pub fn get(&self, i: usize) -> SimTrace {
        self.0.get(i)
    }

    /// Materializes every trace.
    pub fn read_all(&self) -> Vec<SimTrace> {
        self.0.read_all()
    }
}

// ------------------------------------------------------- learning, CAWT

/// Learns one patient's CAWT thresholds from the baseline traces.
/// Returns the refined rule set and each rule's (β bits, iterations).
pub fn learn_patient(
    platform: Platform,
    traces: &[SimTrace],
    patient: &str,
    basal: f64,
) -> (Scs, Vec<(u64, usize)>) {
    let subset = traces_for_patient(traces, patient);
    let cawot = Scs::with_default_thresholds(platform.target());
    let (scs, fits) = learn_thresholds(
        &cawot,
        &subset,
        UnitsPerHour(basal),
        &LearnConfig::default(),
    );
    let fits = fits
        .iter()
        .map(|f| (f.beta.to_bits(), f.iterations))
        .collect();
    (scs, fits)
}

/// The CAWT monitor for one patient.
pub fn cawt_monitor(scs: &Scs, basal: f64) -> Box<dyn HazardMonitor> {
    Box::new(CawMonitor::new("cawt", scs.clone(), UnitsPerHour(basal)))
}

/// Replays a stored corpus through per-trace monitors (parallel,
/// `available_parallelism` workers; the executor takes no pin).
pub fn replay_store(store: &Store, factory: Factory<'_>) -> Vec<SimTrace> {
    aps_sim::replay::replay_store(&store.0, |t: &SimTrace| factory(&t.meta.patient))
}

/// Replays one trace through a monitor (the serial reference path).
pub fn replay_one(trace: &SimTrace, monitor: &mut dyn HazardMonitor) -> SimTrace {
    aps_sim::replay::replay_monitor(trace, monitor)
}

/// Number of UCA rules in the platform's rule set.
pub fn rule_count(platform: Platform) -> usize {
    Scs::with_default_thresholds(platform.target()).rules.len()
}

/// Re-drives sample extraction for rule `k` of the default rule set
/// over one patient's traces; returns the samples.
pub fn extract_samples(
    platform: Platform,
    subset: &[SimTrace],
    rule: usize,
    basal: f64,
) -> Vec<f64> {
    let scs = Scs::with_default_thresholds(platform.target());
    extract_rule_samples(
        &scs,
        &scs.rules[rule],
        subset,
        UnitsPerHour(basal),
        &LearnConfig::default(),
    )
}

/// One patient's traces, as `learn_patient` selects them.
pub fn patient_subset(traces: &[SimTrace], patient: &str) -> Vec<SimTrace> {
    traces_for_patient(traces, patient)
}

/// Whether rule `k` has enough samples for a fit.
pub fn enough_samples(samples: &[f64]) -> bool {
    samples.len() >= LearnConfig::default().min_samples.max(1)
}

/// Re-drives the box-constrained L-BFGS fit of rule `k`'s β over its
/// samples with the threshold learner's objective and options; returns
/// (β bits, iterations).
pub fn fit_rule(platform: Platform, rule: usize, samples: &[f64]) -> Option<(u64, usize)> {
    let scs = Scs::with_default_thresholds(platform.target());
    let rule = &scs.rules[rule];
    let cfg = LearnConfig::default();
    let below = !matches!(rule.iob, IobCond::AboveBeta);
    let (lo, hi) = if matches!(rule.iob, IobCond::Any) {
        cfg.bg_bounds
    } else {
        cfg.iob_bounds
    };
    let loss = cfg.loss;
    let objective = |x: &[f64], g: &mut [f64]| -> f64 {
        let (mut value, mut grad) = (0.0, 0.0);
        for &mu in samples {
            let r = if below { x[0] - mu } else { mu - x[0] };
            value += loss.value(r);
            grad += loss.grad(r) * if below { 1.0 } else { -1.0 };
        }
        let n = samples.len() as f64;
        g[0] = grad / n;
        value / n
    };
    let start = samples.iter().sum::<f64>() / samples.len() as f64;
    let sol = lbfgsb::minimize(
        objective,
        &[start.clamp(lo, hi)],
        &Bounds::new(vec![lo], vec![hi]),
        &Options {
            max_iters: 300,
            ..Options::default()
        },
    )
    .ok()?;
    Some((sol.x[0].to_bits(), sol.iterations))
}

// ----------------------------------------------------- cycle-stage redrive

/// Per-run objects the closed loop builds before its first cycle.
pub struct JobParts {
    patient: aps_glucose::BoxedPatient,
    controller: Box<dyn aps_controllers::Controller>,
    injector: Option<FaultInjector>,
    bounds: (f64, f64),
    max_rate: f64,
}

/// Builds a job's patient, controller and injector the way the
/// executor does (the `sim.job_setup` stage).
pub fn job_parts(spec: &CampaignSpec, job: &CampaignJob) -> Option<JobParts> {
    let platform = spec.platform;
    let patient = platform.patient(job.patient_idx)?;
    let controller = platform.controller_for(patient.as_ref());
    let injector = job.scenario.clone().map(FaultInjector::new);
    let bounds = injector
        .as_ref()
        .and_then(|inj| {
            controller
                .state_vars()
                .into_iter()
                .find(|v| v.name == inj.scenario().target)
                .map(|v| (v.min, v.max))
        })
        .unwrap_or((f64::NEG_INFINITY, f64::INFINITY));
    // The executor also derives the run's basal rate for the monitor
    // context; that equilibrium solve is part of job set-up.
    let _ = platform.basal_for(patient.as_ref());
    let max_rate = platform.max_mitigation_rate(patient.as_ref()).value();
    Some(JobParts {
        patient,
        controller,
        injector,
        bounds,
        max_rate,
    })
}

impl JobParts {
    /// Patient physics: reset, then one RK4 step per recorded delivery.
    pub fn physics(&mut self, trace: &SimTrace) -> f64 {
        self.patient.reset(aps_types::MgDl(trace.meta.initial_bg));
        for r in &trace.records {
            self.patient.step(r.delivered, CONTROL_CYCLE_MINUTES);
        }
        self.patient.bg().value()
    }

    /// Controller decision plus delivery bookkeeping per recorded cycle.
    pub fn decide(&mut self, trace: &SimTrace) -> f64 {
        self.controller.reset();
        let mut acc = 0.0;
        for r in &trace.records {
            acc += self.controller.decide(r.step, r.bg).value();
            self.controller.observe_delivery(r.delivered);
        }
        acc
    }

    /// Fault injection on the recorded command stream.
    pub fn inject(&mut self, trace: &SimTrace) -> f64 {
        let Some(inj) = self.injector.as_mut() else {
            return 0.0;
        };
        inj.reset();
        let (lo, hi) = self.bounds;
        let mut acc = 0.0;
        for r in &trace.records {
            acc += inj.perturb_target(r.step, r.commanded.value(), lo, hi);
            acc += f64::from(u8::from(inj.is_active(r.step)));
        }
        acc
    }

    /// Algorithm-1 mitigation of the recorded commands on recorded alerts.
    pub fn mitigate(&self, trace: &SimTrace) -> f64 {
        let mit = Mitigator::paper_default(UnitsPerHour(self.max_rate));
        trace
            .records
            .iter()
            .map(|r| mit.mitigate(r.alert, r.commanded).value())
            .sum()
    }
}

/// CGM sampling of the recorded true glucose.
pub fn cgm(spec: &CampaignSpec, trace: &SimTrace) -> f64 {
    let mut cgm = Cgm::new(spec.cgm);
    trace
        .records
        .iter()
        .map(|r| cgm.sample(r.bg_true).value())
        .sum()
}

/// Pump delivery of the recorded commands.
pub fn pump(trace: &SimTrace) -> f64 {
    let mut pump = Pump::new(PumpConfig::default());
    trace
        .records
        .iter()
        .map(|r| pump.deliver(r.commanded, CONTROL_CYCLE_MINUTES).value())
        .sum()
}

/// Post-hoc risk labelling of a trace (labels `trace` in place).
pub fn label(trace: &mut SimTrace) {
    aps_risk::label_trace(trace, &aps_risk::LabelConfig::default());
}

/// Monitor checks over the recorded loop inputs, as the live loop
/// feeds them. Returns the number of alerts.
pub fn monitor_checks(monitor: &mut dyn HazardMonitor, trace: &SimTrace) -> usize {
    monitor.reset();
    let mut prev = trace
        .records
        .first()
        .map_or(UnitsPerHour(0.0), |r| r.commanded);
    let mut alerts = 0;
    for r in &trace.records {
        let input = MonitorInput {
            step: r.step,
            bg: r.bg,
            commanded: r.commanded,
            previous_rate: prev,
        };
        alerts += usize::from(monitor.check(&input).is_some());
        monitor.observe_delivery(r.delivered);
        prev = r.commanded;
    }
    alerts
}

// --------------------------------------------------------------- service

/// A daemon running on a thread of this process.
pub struct Daemon {
    handle: Option<JoinHandle<Result<(), ServiceError>>>,
    socket: PathBuf,
    data: PathBuf,
}

/// What the benchmark needs from one event on a job's stream.
#[derive(Debug, Clone, PartialEq)]
pub enum JobEvent {
    /// One more job of the campaign has run.
    Progress,
    /// A shard finished.
    ShardDone,
    /// The job is terminal.
    Done {
        /// Terminal state (`done`, `failed`, `cancelled`).
        state: String,
        /// Campaign digest (hex).
        digest: String,
    },
    /// The daemon is closing.
    Closing,
}

/// An open event subscription.
pub struct Events(EventStream);

impl Events {
    /// Blocks for the next event.
    pub fn next_event(&mut self) -> Res<JobEvent> {
        Ok(match self.0.next_event().map_err(err)? {
            Event::Progress { .. } => JobEvent::Progress,
            Event::ShardDone { .. } => JobEvent::ShardDone,
            Event::JobDone { state, digest, .. } => JobEvent::Done { state, digest },
            Event::Closing => JobEvent::Closing,
        })
    }
}

/// A submission's reply.
#[derive(Debug, Clone, PartialEq)]
pub struct Submitted {
    /// Job id.
    pub job: String,
    /// Served from the result cache with no executor work.
    pub cached: bool,
}

impl Daemon {
    /// Starts `run_daemon` on a thread with `workers` pinned executor
    /// workers and the default checkpoint cadence, and waits until its
    /// socket accepts connections.
    pub fn start(socket: &Path, data: &Path, workers: usize) -> Res<Daemon> {
        let mut config = aps_service::ServiceConfig::new(socket, data);
        config.workers = Some(workers);
        let handle = std::thread::spawn(move || aps_service::run_daemon(config));
        let mut daemon = Daemon {
            handle: Some(handle),
            socket: socket.to_path_buf(),
            data: data.to_path_buf(),
        };
        for _ in 0..2000 {
            if Client::connect(socket).is_ok() {
                return Ok(daemon);
            }
            if daemon.handle.as_ref().is_some_and(JoinHandle::is_finished) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let e = daemon
            .stop()
            .err()
            .unwrap_or_else(|| "daemon did not start".to_owned());
        Err(e)
    }

    fn client(&self) -> Res<Client> {
        Client::connect(&self.socket).map_err(err)
    }

    /// Submits a campaign under a seed lane.
    pub fn submit(&self, spec: &CampaignSpec, shards: usize, lane: &str) -> Res<Submitted> {
        let s = self
            .client()?
            .submit(spec.clone(), shards, 0, lane)
            .map_err(err)?;
        Ok(Submitted {
            job: s.job,
            cached: s.cached,
        })
    }

    /// Blocks until the job is terminal: (state, digest).
    pub fn wait(&self, job: &str) -> Res<(String, String)> {
        self.client()?.wait(job).map_err(err)
    }

    /// Subscribes to a job's event stream.
    pub fn subscribe(&self, job: &str) -> Res<Events> {
        self.client()?.subscribe(job).map(Events).map_err(err)
    }

    /// Locates a finished job's result store.
    pub fn fetch(&self, job: &str) -> Res<PathBuf> {
        let (path, _) = self.client()?.fetch(job).map_err(err)?;
        Ok(PathBuf::from(path))
    }

    /// Opens a connection for repeated status requests.
    pub fn status_conn(&self) -> Res<StatusConn> {
        self.client().map(StatusConn)
    }

    /// Directory holding a job's on-disk state.
    pub fn job_dir(&self, job: &str) -> PathBuf {
        self.data.join("jobs").join(job)
    }

    /// Shuts the daemon down and joins its thread.
    pub fn stop(&mut self) -> Res<()> {
        let Some(handle) = self.handle.take() else {
            return Ok(());
        };
        if !handle.is_finished() {
            if let Ok(mut c) = Client::connect(&self.socket) {
                let _ = c.shutdown();
            }
        }
        match handle.join() {
            Ok(r) => r.map_err(err),
            Err(_) => Err("daemon thread panicked".to_owned()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// A connection used for status round trips.
pub struct StatusConn(Client);

impl StatusConn {
    /// One `Status` round trip: the job's executed-job count.
    pub fn executed_jobs(&mut self, job: &str) -> Res<usize> {
        let jobs = self.0.status(job).map_err(err)?;
        jobs.first()
            .map(|m| m.executed_jobs)
            .ok_or_else(|| format!("no status for {job}"))
    }
}
