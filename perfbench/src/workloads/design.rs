//! `design_deploy`: the paper's monitor design → deploy loop on
//! T1DS + basal-bolus (13-state Dalla Man).
//!
//! Set-up runs the faulty baseline once, stores it as a trace store,
//! and computes references. Each pass then (1) learns CAWT thresholds
//! per patient, (2) replays CAWT over the stored corpus, and (3)
//! redeploys the grid with the CAWT monitor and mitigation through the
//! resumable executor, checkpointing into the scratch directory. The
//! learned β, replayed alert tracks, and deploy digest and counts must
//! equal the set-up references.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::adapter::{
    self, AlertTrack, CampaignSpec, Digest, Grid, Platform, Scs, SimTrace, Store,
};
use crate::harness::{
    gap_stats, med, mix, peak_rss_mb, permutation, secs, timed_passes, timed_setups, Config,
    FileWatch, Outcome, Res, Size, TempDir,
};
use crate::spans::{totals_by_name, Tracer};
use crate::stages::{self, Redrive};
use crate::workloads::finish_layers;

const PLATFORM: Platform = Platform::T1dsBasalBolus;
/// Executor workers of the measured deploy phase.
const DEPLOY_WORKERS: usize = 2;
/// Checkpoint cadence of the deploy phase, in jobs.
const CHECKPOINT_EVERY: usize = 8;
/// Set-ups per run.
const SETUPS: usize = 3;

/// Learned CAWT rule sets with their basal rates, by patient name.
type Learned = BTreeMap<String, (Scs, f64)>;
/// Per patient: each rule's (β bits, optimizer iterations).
type Fits = Vec<Vec<(u64, usize)>>;

struct Design {
    deploy: CampaignSpec,
    patients: Vec<(String, f64)>,
    baseline: Vec<SimTrace>,
    store: Store,
    dir: PathBuf,
    ref_fits: Fits,
    ref_tracks: Vec<AlertTrack>,
    ref_deploy: Digest,
}

struct DeployOut {
    wall_s: f64,
    busy_s: f64,
    digest: Digest,
    report_ok: bool,
    failed_jobs: u64,
    emits: Vec<Instant>,
    kept: Vec<(usize, SimTrace)>,
    checkpoints: FileWatch,
}

struct PassOut {
    learn_s: f64,
    replay_s: f64,
    deploy: DeployOut,
    total_s: f64,
    iterations: usize,
}

/// The campaign for a seed: every patient and initial BG in seeded
/// order over the quick fault grid.
pub fn spec_for(seed: u64, size: Size) -> CampaignSpec {
    let patients = permutation(PLATFORM.cohort_size(), mix(seed ^ 0xD1));
    let all_bgs = adapter::initial_bgs();
    let bgs: Vec<f64> = permutation(all_bgs.len(), mix(seed ^ 0xD2))
        .into_iter()
        .map(|i| all_bgs[i])
        .collect();
    match size {
        Size::Full => adapter::campaign_spec(PLATFORM, Grid::Quick, patients, bgs),
        Size::Tiny => adapter::campaign_spec(
            PLATFORM,
            Grid::Quick,
            patients[..2].to_vec(),
            bgs[..1].to_vec(),
        ),
    }
}

fn learn_all(state: &Design, tr: &mut Tracer) -> (Learned, Fits) {
    let mut learned = Learned::new();
    let mut fits = Vec::with_capacity(state.patients.len());
    for (name, basal) in &state.patients {
        let (scs, f) = tr.span("core.learning.learn_thresholds", || {
            adapter::learn_patient(PLATFORM, &state.baseline, name, *basal)
        });
        learned.insert(name.clone(), (scs, *basal));
        fits.push(f);
    }
    (learned, fits)
}

fn factory(learned: &Learned) -> impl Fn(&str) -> Box<dyn adapter::HazardMonitor> + Sync + '_ {
    move |patient: &str| {
        let (scs, basal) = learned
            .get(patient)
            .expect("every deployed patient has learned thresholds");
        adapter::cawt_monitor(scs, *basal)
    }
}

fn tracks_of(replayed: &[SimTrace]) -> Vec<AlertTrack> {
    replayed
        .iter()
        .map(|t| t.monitor_tracks.first().cloned().unwrap_or_default())
        .collect()
}

fn deploy(
    state: &Design,
    learned: &Learned,
    workers: usize,
    ckpt: &Path,
    tr: &mut Tracer,
    keep: bool,
) -> Res<DeployOut> {
    let _ = std::fs::remove_file(ckpt);
    let traced = tr.enabled();
    let f = factory(learned);
    let mut digest = Digest::default();
    let mut emits = Vec::new();
    let mut kept = Vec::new();
    let mut checkpoints = FileWatch::default();
    let t = Instant::now();
    let root = tr.begin("sim.campaign.run_campaign_resumable");
    let report = adapter::resumable_campaign(
        &state.deploy,
        &f,
        workers,
        ckpt,
        CHECKPOINT_EVERY,
        |i, trace| {
            let s = tr.begin("bench.sink");
            if traced {
                emits.push(Instant::now());
                checkpoints.observe(ckpt);
            }
            if let Some(trace) = trace {
                digest.fold(&trace);
                if keep {
                    kept.push((i, trace));
                }
            }
            tr.end(s);
        },
    )?;
    tr.end(root);
    let wall_s = secs(t);
    if traced {
        checkpoints.observe(ckpt);
    }
    let _ = std::fs::remove_file(ckpt);
    let r = &state.ref_deploy;
    let report_ok = report.digest == r.hex()
        && report.completed_jobs == r.completed()
        && report.hazardous_jobs == r.hazardous()
        && digest.hex() == r.hex();
    let busy_ns = tr.self_ns(root);
    Ok(DeployOut {
        wall_s,
        busy_s: busy_ns as f64 / 1e9,
        digest,
        report_ok,
        failed_jobs: report.failed_jobs as u64,
        emits,
        kept,
        checkpoints,
    })
}

fn pass(state: &Design, id: u32, tr: &mut Tracer, keep: bool, out: &mut Outcome) -> Res<PassOut> {
    let t0 = Instant::now();
    let (learned, fits) = learn_all(state, tr);
    let learn_s = secs(t0);
    for (got, want) in fits.iter().zip(&state.ref_fits) {
        out.checks.record(
            1,
            got == want,
            "learned thresholds differ from the reference",
        );
    }

    let t1 = Instant::now();
    let f = factory(&learned);
    let replayed = tr.span("sim.replay.replay_store", || {
        adapter::replay_store(&state.store, &f)
    });
    let replay_s = secs(t1);
    out.checks.record(
        1,
        tracks_of(&replayed) == state.ref_tracks,
        "replayed alert tracks differ from the reference",
    );
    drop(replayed);

    let ckpt = state.dir.join(format!("deploy-{id}.ckpt.json"));
    let deploy = deploy(state, &learned, DEPLOY_WORKERS, &ckpt, tr, keep)?;
    let total = state.ref_deploy.completed() as u64;
    out.checks
        .record_failed(total, deploy.failed_jobs, "deploy jobs failed");
    out.checks.record(
        1,
        deploy.report_ok,
        "deploy digest or counts differ from the reference",
    );
    let iterations = fits.iter().flatten().map(|&(_, it)| it).sum();
    Ok(PassOut {
        learn_s,
        replay_s,
        total_s: secs(t0),
        deploy,
        iterations,
    })
}

fn setup(cfg: &Config, dir: &Path) -> Res<Design> {
    let spec = spec_for(cfg.seed, cfg.size);
    let deploy_spec = adapter::with_mitigation(&spec);
    let patients = adapter::patient_basals(&spec);
    let mut baseline = Vec::new();
    adapter::stream_campaign(&spec, 1, |_, t| baseline.push(t));
    let store_path = dir.join("baseline.apst");
    adapter::write_store(&store_path, &baseline)?;
    let store = Store::open(&store_path)?;

    let mut learned = Learned::new();
    let mut ref_fits = Vec::new();
    for (name, basal) in &patients {
        let (scs, fits) = adapter::learn_patient(PLATFORM, &baseline, name, *basal);
        learned.insert(name.clone(), (scs, *basal));
        ref_fits.push(fits);
    }
    let f = factory(&learned);
    // Serial replay reference over the in-memory baseline.
    let ref_tracks = baseline
        .iter()
        .map(|t| {
            let mut monitor = f(&t.meta.patient);
            let replayed = adapter::replay_one(t, monitor.as_mut());
            replayed.monitor_tracks.first().cloned().unwrap_or_default()
        })
        .collect();
    let ref_deploy = adapter::serial_digest(&deploy_spec, Some(&f));
    Ok(Design {
        deploy: deploy_spec,
        patients,
        baseline,
        store,
        dir: dir.to_path_buf(),
        ref_fits,
        ref_tracks,
        ref_deploy,
    })
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Res<Outcome> {
    let tmp = TempDir::new(&cfg.tmp_root, "design")?;
    let mut out = Outcome::default();
    let (state, setup_s) = timed_setups(SETUPS, tmp.path(), |dir| setup(cfg, dir))?;
    out.set("setup_s", setup_s);
    let total = state.ref_deploy.completed();

    let mut passes = Vec::new();
    let mut off = Tracer::off();
    let n = timed_passes(cfg.seconds, 1, |i| {
        let p = pass(&state, i, &mut off, false, &mut out)?;
        passes.push(p);
        Ok(())
    })?;
    let collect = |f: &dyn Fn(&PassOut) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let walls = collect(&|p| p.total_s);
    out.set(
        "runs_per_s",
        med(&collect(&|p| total as f64 / p.deploy.wall_s)),
    );
    out.set("time_to_results_s", med(&walls));
    out.set("learn_s", med(&collect(&|p| p.learn_s)));
    out.set(
        "replay_traces_per_s",
        med(&collect(&|p| state.store.len() as f64 / p.replay_s)),
    );
    out.note("runs_per_pass", total);
    out.note("passes", n);
    out.note("samples.time_to_results_s", format!("{walls:?}"));
    out.note("workers.baseline", 1);
    out.note("workers.deploy", DEPLOY_WORKERS);
    out.note(
        "workers.replay",
        format!(
            "{} (replay_store takes no pin and uses available_parallelism)",
            std::thread::available_parallelism().map_or(0, |p| p.get())
        ),
    );
    out.note("checkpoint_every", CHECKPOINT_EVERY);

    if cfg.trace {
        traced(cfg, &state, med(&walls), n, &mut out)?;
    }
    out.set("peak_rss_mb", peak_rss_mb());
    Ok(out)
}

fn traced(
    cfg: &Config,
    state: &Design,
    untraced_s: f64,
    first_pass: u32,
    out: &mut Outcome,
) -> Res<()> {
    let total = state.ref_deploy.completed();
    let mut tr = Tracer::on();
    tr.set_pass(1);
    let main = pass(state, first_pass, &mut tr, true, out)?;

    // The deploy phase at the other worker count, for parallel
    // efficiency; the one-worker run's busy time anchors coverage.
    let (learned, _) = learn_all(state, &mut Tracer::off());
    tr.set_pass(2);
    let other_workers = if DEPLOY_WORKERS == 1 { 2 } else { 1 };
    let ckpt = state.dir.join("deploy-other.ckpt.json");
    let other = deploy(state, &learned, other_workers, &ckpt, &mut tr, false)?;
    out.checks.record(
        1,
        other.report_ok,
        "deploy digest differs at the other worker count",
    );
    let (one, two) = if DEPLOY_WORKERS == 1 {
        (&main.deploy, &other)
    } else {
        (&other, &main.deploy)
    };
    out.set(
        "sim.executor.parallel_efficiency",
        one.wall_s / (2.0 * two.wall_s),
    );

    // Learning layers, re-driven rule by rule. The re-driven fit repeats
    // the learner's objective and options, so each must reproduce the
    // learner's own (β, iterations); a divergence fails the run rather
    // than timing a fit the learner no longer does.
    tr.set_pass(3);
    let (mut fits, mut matching) = (0, 0);
    for ((name, basal), learned_fits) in state.patients.iter().zip(&state.ref_fits) {
        let subset = adapter::patient_subset(&state.baseline, name);
        for rule in 0..adapter::rule_count(PLATFORM) {
            let samples = tr.span("core.learning.extract_rule_samples", || {
                adapter::extract_samples(PLATFORM, &subset, rule, *basal)
            });
            if adapter::enough_samples(&samples) {
                let fit = tr.span("optim.lbfgsb.minimize", || {
                    adapter::fit_rule(PLATFORM, rule, &samples)
                });
                fits += 1;
                matching += usize::from(fit.as_ref() == learned_fits.get(rule));
            }
        }
    }
    out.checks.record_failed(
        fits as u64,
        (fits - matching) as u64,
        "re-driven L-BFGS-B fits differ from the threshold learner's",
    );
    out.note("redrive.lbfgsb_fits", fits);
    let t3 = totals_by_name(tr.spans(), Some(3));
    let ms = |name: &str| t3.get(name).map_or(0, |t| t.total_ns) as f64 / 1e6;
    out.set(
        "core.learning.extract_ms",
        ms("core.learning.extract_rule_samples"),
    );
    out.set("optim.lbfgsb_ms", ms("optim.lbfgsb.minimize"));
    out.set("optim.lbfgsb_iters", main.iterations as f64);

    // Store materialization and per-trace monitor replay.
    tr.set_pass(4);
    let f = factory(&learned);
    for i in 0..state.store.len() {
        let t = tr.span("tracestore.get", || state.store.get(i));
        let mut monitor = f(&t.meta.patient);
        tr.span("sim.replay.replay_monitor", || {
            adapter::replay_one(&t, monitor.as_mut())
        });
    }
    let t4 = totals_by_name(tr.spans(), Some(4));
    let n = state.store.len().max(1) as f64;
    let us = |name: &str| t4.get(name).map_or(0, |t| t.total_ns) as f64 / 1e3 / n;
    out.set("tracestore.materialize_us_per_trace", us("tracestore.get"));
    out.set(
        "sim.replay.monitor_us_per_trace",
        us("sim.replay.replay_monitor"),
    );
    out.set("tracestore.bytes_per_trace", state.store.bytes() as f64 / n);

    // Cycle stages over the traced deploy pass's traces.
    let jobs = adapter::jobs(&state.deploy);
    let costs = stages::redrive(
        &mut tr,
        5,
        &Redrive {
            spec: &state.deploy,
            jobs: &jobs,
            traces: &main.deploy.kept,
            monitor: Some(&f),
        },
    );
    for &(name, ns) in &costs.ns_per_cycle {
        out.set(name, ns);
    }
    out.set("sim.job_setup_us", costs.job_setup_us);
    let explained = costs.explained_s(total, state.deploy.steps as usize);
    out.set("sim.cycle_coverage", explained / one.busy_s);

    let (p50, tail, tail_p, samples) = gap_stats(&main.deploy.emits);
    out.set("sim.executor.emit_gap_p50_ms", p50);
    out.set("sim.executor.emit_gap_p99_ms", tail);
    out.set(
        "sim.checkpoint.writes",
        main.deploy.checkpoints.writes as f64,
    );
    out.set("sim.checkpoint.bytes", main.deploy.checkpoints.bytes as f64);
    out.note("emit_gap.percentile", tail_p);
    out.note("emit_gap.samples", samples);
    out.note("redrive.traces", costs.traces);
    out.note("workers.efficiency_pass", other_workers);
    out.note("traced.learn_s", main.learn_s);
    out.note("traced.replay_s", main.replay_s);
    out.note("traced.deploy_digest", main.deploy.digest.hex());

    // The service layers are measured here, by a traced daemon round
    // trip after the design loop: a service workload of its own spreads
    // too widely on a shared host to be bounded, but its layers still
    // need a traced run.
    super::service::measure_layers(cfg, &state.dir.join("service"), &mut tr, 6, out)?;
    finish_layers(out, untraced_s, main.total_s);
    out.tracer = Some(tr);
    Ok(())
}
