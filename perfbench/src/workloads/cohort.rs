//! `cohort_campaign`: the paper's full Glucosym/oref0 grid through the
//! default in-process streaming executor, with no monitor.
//!
//! A pass streams every run into a sink that folds the campaign digest;
//! the digest must equal the serial reference computed in set-up. This
//! workload never enters the monitor, mitigation, checkpoint, store or
//! service layers.

use std::time::Instant;

use crate::adapter::{self, CampaignSpec, Digest, Grid, Platform, SimTrace};
use crate::harness::{
    gap_stats, med, mix, peak_rss_mb, permutation, secs, timed_passes, timed_setups, Config,
    Outcome, Res, Size, TempDir,
};
use crate::spans::Tracer;
use crate::stages::{self, Redrive};
use crate::workloads::{finish_layers, not_applicable};

/// Executor workers for the measured passes.
const WORKERS: usize = 1;
/// Set-ups per run (each computes the serial reference, ~2 s).
const SETUPS: usize = 3;
/// The traced pass keeps every `STRIDE`-th trace for the stage re-drive.
const STRIDE: usize = 8;

struct Cohort {
    spec: CampaignSpec,
    reference: Digest,
}

struct PassOut {
    wall_s: f64,
    busy_s: f64,
    digest: Digest,
    emits: Vec<Instant>,
    kept: Vec<(usize, SimTrace)>,
}

/// The campaign for a seed: every patient and initial BG in seeded order.
pub fn spec_for(seed: u64, size: Size) -> CampaignSpec {
    let patients = permutation(Platform::GlucosymOref0.cohort_size(), mix(seed));
    let all_bgs = adapter::initial_bgs();
    let bgs: Vec<f64> = permutation(all_bgs.len(), mix(seed ^ 0xB6))
        .into_iter()
        .map(|i| all_bgs[i])
        .collect();
    match size {
        Size::Full => adapter::campaign_spec(Platform::GlucosymOref0, Grid::Paper, patients, bgs),
        Size::Tiny => adapter::campaign_spec(
            Platform::GlucosymOref0,
            Grid::Quick,
            patients[..1].to_vec(),
            bgs[..1].to_vec(),
        ),
    }
}

fn pass(state: &Cohort, workers: usize, tr: &mut Tracer, keep: Option<usize>) -> PassOut {
    let traced = tr.enabled();
    let mut digest = Digest::default();
    let mut emits = Vec::new();
    let mut kept = Vec::new();
    let t = Instant::now();
    let root = tr.begin("sim.campaign.run_campaign_with_workers");
    adapter::stream_campaign(&state.spec, workers, |i, trace| {
        let s = tr.begin("bench.sink");
        digest.fold(&trace);
        if traced {
            emits.push(Instant::now());
        }
        if keep.is_some_and(|k| i % k == 0) {
            kept.push((i, trace));
        }
        tr.end(s);
    });
    tr.end(root);
    PassOut {
        wall_s: secs(t),
        busy_s: tr.self_ns(root) as f64 / 1e9,
        digest,
        emits,
        kept,
    }
}

fn check(out: &mut Outcome, state: &Cohort, p: &PassOut) {
    let total = state.reference.completed() as u64;
    let ok = p.digest.hex() == state.reference.hex()
        && p.digest.completed() == state.reference.completed();
    out.checks
        .record(total, ok, "cohort digest differs from the serial reference");
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Res<Outcome> {
    let tmp = TempDir::new(&cfg.tmp_root, "cohort")?;
    let mut out = Outcome::default();
    let (state, setup_s) = timed_setups(SETUPS, tmp.path(), |_| {
        let spec = spec_for(cfg.seed, cfg.size);
        let reference = adapter::serial_digest(&spec, None);
        Ok(Cohort { spec, reference })
    })?;
    let total = state.reference.completed();
    out.set("setup_s", setup_s);

    let mut walls = Vec::new();
    let mut off = Tracer::off();
    let passes = timed_passes(cfg.seconds, 1, |_| {
        let p = pass(&state, WORKERS, &mut off, None);
        check(&mut out, &state, &p);
        walls.push(p.wall_s);
        Ok(())
    })?;
    let rates: Vec<f64> = walls.iter().map(|w| total as f64 / w).collect();
    out.set("runs_per_s", med(&rates));
    out.set("time_to_results_s", med(&walls));
    out.note("runs_per_pass", total);
    out.note("passes", passes);
    out.note("samples.time_to_results_s", format!("{walls:?}"));
    out.note("workers.campaign", WORKERS);

    if cfg.trace {
        traced(&state, &walls, &mut out);
    }
    out.set("peak_rss_mb", peak_rss_mb());
    Ok(out)
}

fn traced(state: &Cohort, walls: &[f64], out: &mut Outcome) {
    let total = state.reference.completed();
    let mut tr = Tracer::on();
    tr.set_pass(1);
    let main = pass(state, WORKERS, &mut tr, Some(STRIDE));
    check(out, state, &main);
    // The same campaign at two workers, for parallel efficiency.
    tr.set_pass(2);
    let wide = pass(state, 2, &mut tr, None);
    check(out, state, &wide);

    let jobs = adapter::jobs(&state.spec);
    let costs = stages::redrive(
        &mut tr,
        3,
        &Redrive {
            spec: &state.spec,
            jobs: &jobs,
            traces: &main.kept,
            monitor: None,
        },
    );
    for &(name, ns) in &costs.ns_per_cycle {
        out.set(name, ns);
    }
    out.set("sim.job_setup_us", costs.job_setup_us);
    let explained = costs.explained_s(total, state.spec.steps as usize);
    out.set("sim.cycle_coverage", explained / main.busy_s);
    out.set(
        "sim.executor.parallel_efficiency",
        main.wall_s / (2.0 * wide.wall_s),
    );
    let (p50, tail, tail_p, n) = gap_stats(&main.emits);
    out.set("sim.executor.emit_gap_p50_ms", p50);
    out.set("sim.executor.emit_gap_p99_ms", tail);
    out.note("emit_gap.percentile", tail_p);
    out.note("emit_gap.samples", n);
    out.note("redrive.traces", costs.traces);
    out.note("redrive.stride", STRIDE);
    out.note("workers.efficiency_pass", 2);

    finish_layers(out, med(walls), main.wall_s);
    not_applicable(
        out,
        &[
            "learn_s",
            "replay_traces_per_s",
            "cached_time_to_results_s",
            "sim.checkpoint.writes",
            "sim.checkpoint.bytes",
            "core.learning.extract_ms",
            "optim.lbfgsb_ms",
            "optim.lbfgsb_iters",
            "tracestore.materialize_us_per_trace",
            "sim.replay.monitor_us_per_trace",
            "tracestore.bytes_per_trace",
        ],
    );
    not_applicable(out, crate::workloads::SERVICE_LAYERS);
    out.tracer = Some(tr);
}
