//! The service layers: the campaign daemon in this process on a scratch
//! socket and data directory, driven by one closed-loop client. They are
//! measured at the end of `design_deploy`'s traced run.
//!
//! Each pass submits the campaign under a fresh seed lane (a cache
//! miss), waits for it, fetches the result store and materializes every
//! trace; then it resubmits the identical campaign several times, each
//! a cache hit that must do no executor work. The daemon's digest and
//! the fetched traces must equal the in-process serial reference.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::adapter::{
    self, CampaignSpec, Daemon, Digest, Grid, JobEvent, Platform, SimTrace, Store,
};
use crate::harness::{dir_bytes, med, mix, permutation, Config, Outcome, Res, Size};
use crate::spans::Tracer;

const PLATFORM: Platform = Platform::GlucosymOref0;
/// Executor workers of the daemon.
const WORKERS: usize = 2;
/// Shards requested per submission.
const SHARDS: usize = 4;
/// Cached resubmits per pass.
const RESUBMITS: usize = 20;
/// Status round trips timed in the traced pass.
const STATUS_RTTS: usize = 200;
/// Initial BG of every run (mg/dL).
const SERVICE_BG: f64 = 120.0;
/// Traced passes tried until one receives the job's whole event stream.
const TRACED_TRIES: u32 = 3;

struct Service {
    spec: CampaignSpec,
    reference: Vec<SimTrace>,
    ref_digest: String,
    /// Shards the daemon plans for the submission.
    shards: usize,
    daemon: Daemon,
    socket_len: usize,
}

/// Client-side timestamps of one submit → results round trip.
struct RoundTrip {
    job: String,
    t0: Instant,
    submitted: Instant,
    done: Instant,
    end: Instant,
    /// (event, arrival) in arrival order; traced passes only.
    events: Vec<(JobEvent, Instant)>,
    store_path: PathBuf,
    traces: usize,
}

/// The campaign for a seed: every patient in seeded order at the
/// quick grid's initial BG (120 mg/dL), the quick fault grid. The seed
/// orders the work but never changes how much there is: the service's
/// cost depends on trace content, which the initial BG changes.
pub fn spec_for(seed: u64, size: Size) -> CampaignSpec {
    let patients = permutation(PLATFORM.cohort_size(), mix(seed ^ 0x5E));
    let patients = match size {
        Size::Full => patients,
        Size::Tiny => patients[..2].to_vec(),
    };
    adapter::campaign_spec(PLATFORM, Grid::Quick, patients, vec![SERVICE_BG])
}

/// Seed lane of pass `i`: fresh for every pass of a run.
fn lane(seed: u64, i: u32) -> String {
    format!(
        "{:016x}",
        mix(seed.wrapping_mul(0x1_0000_01B3) ^ u64::from(i))
    )
}

fn setup(cfg: &Config, dir: &Path) -> Res<Service> {
    let spec = spec_for(cfg.seed, cfg.size);
    let reference = adapter::serial_traces(&spec);
    let mut digest = Digest::default();
    for trace in &reference {
        digest.fold(trace);
    }
    // A relative socket path keeps the address far below the 107-byte
    // limit wherever the working directory is.
    let socket = dir.join("d.sock");
    let daemon = Daemon::start(&socket, &dir.join("data"), WORKERS)?;
    Ok(Service {
        shards: adapter::planned_shards(&spec, SHARDS),
        spec,
        reference,
        ref_digest: digest.hex().to_owned(),
        daemon,
        socket_len: socket.as_os_str().len(),
    })
}

/// Submit → done → fetch → materialize. With a recording tracer the
/// wait follows the event stream and timestamps every event.
fn round_trip(
    state: &Service,
    lane: &str,
    tr: &mut Tracer,
    out: &mut Outcome,
    miss: bool,
) -> Res<RoundTrip> {
    let traced = tr.enabled();
    let total = state.reference.len() as u64;
    let t0 = Instant::now();
    let sub = tr.span("service.client.submit", || {
        state.daemon.submit(&state.spec, SHARDS, lane)
    })?;
    let submitted = Instant::now();
    out.checks.record(
        1,
        sub.cached != miss,
        "cache state of a submission differs from expected",
    );

    let mut events = Vec::new();
    let (state_str, digest) = if traced {
        let s = tr.begin("service.client.subscribe");
        let mut stream = state.daemon.subscribe(&sub.job)?;
        let end = loop {
            let e = stream.next_event()?;
            events.push((e.clone(), Instant::now()));
            match e {
                JobEvent::Done { state, digest } => break (state, digest),
                JobEvent::Closing => return Err("daemon closed during the pass".to_owned()),
                JobEvent::Progress | JobEvent::ShardDone => {}
            }
        };
        tr.end(s);
        end
    } else {
        tr.span("service.client.wait", || state.daemon.wait(&sub.job))?
    };
    let done = Instant::now();

    let path = tr.span("service.client.fetch", || state.daemon.fetch(&sub.job))?;
    let store = tr.span("tracestore.open", || Store::open(&path))?;
    let traces = tr.span("tracestore.read_all", || store.read_all());
    let end = Instant::now();

    out.checks
        .record(1, state_str == "done", "job did not finish in state done");
    out.checks.record(
        1,
        digest == state.ref_digest,
        "daemon digest differs from the serial reference",
    );
    out.checks.record(
        total,
        traces == state.reference,
        "fetched traces differ from the serial reference",
    );
    Ok(RoundTrip {
        job: sub.job,
        t0,
        submitted,
        done,
        end,
        events,
        store_path: path,
        traces: traces.len(),
    })
}

struct PassOut {
    miss: RoundTrip,
    cached_s: f64,
}

fn pass(state: &Service, lane: &str, tr: &mut Tracer, out: &mut Outcome) -> Res<PassOut> {
    let miss = round_trip(state, lane, tr, out, true)?;
    let mut status = state.daemon.status_conn()?;
    let executed = status.executed_jobs(&miss.job)?;
    out.checks.record(
        1,
        executed == state.reference.len(),
        "executed job count differs from the campaign size",
    );
    let mut cached = Vec::with_capacity(RESUBMITS);
    let mut off = Tracer::off();
    for _ in 0..RESUBMITS {
        let hit = round_trip(state, lane, &mut off, out, false)?;
        cached.push(hit.end.duration_since(hit.t0).as_secs_f64());
    }
    let after = status.executed_jobs(&miss.job)?;
    out.checks
        .record(1, after == executed, "a cached resubmit ran executor jobs");
    Ok(PassOut {
        miss,
        cached_s: med(&cached),
    })
}

fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

/// Whether the stream holds one progress event per run and one
/// completion per shard. The daemon does not replay events sent before
/// a subscription lands, so a late subscriber misses the first ones and
/// the phase boundaries would move.
fn complete_stream(state: &Service, m: &RoundTrip) -> bool {
    let count = |want: fn(&JobEvent) -> bool| m.events.iter().filter(|(e, _)| want(e)).count();
    count(|e| matches!(e, JobEvent::Progress)) == state.reference.len()
        && count(|e| matches!(e, JobEvent::ShardDone)) == state.shards
}

/// Sets every `service.*` per-layer metric from one traced pass. The
/// five phases partition submit sent → traces materialized, from
/// client-side timestamps on the job's event stream.
fn service_layers(state: &Service, p: &PassOut, out: &mut Outcome) -> Res<()> {
    let m = &p.miss;
    let first_progress = m
        .events
        .iter()
        .find(|(e, _)| matches!(e, JobEvent::Progress))
        .map_or(m.done, |(_, t)| *t);
    let last_shard = m
        .events
        .iter()
        .rev()
        .find(|(e, _)| matches!(e, JobEvent::ShardDone))
        .map_or(m.done, |(_, t)| *t);
    out.set("service.submit_ms", ms(m.t0, m.submitted));
    out.set("service.queue_wait_ms", ms(m.submitted, first_progress));
    out.set("service.exec_ms", ms(first_progress, last_shard));
    out.set("service.merge_ms", ms(last_shard, m.done));
    out.set("service.fetch_ms", ms(m.done, m.end));
    out.set("service.phase_sum_ms", ms(m.t0, m.end));
    out.set("service.events", m.events.len() as f64);
    let n = m.traces.max(1) as f64;
    let log_bytes = dir_bytes(&state.daemon.job_dir(&m.job), "shard-", ".ckpt.json");
    out.set("service.job.log_bytes_per_trace", log_bytes as f64 / n);
    let entry_bytes = std::fs::metadata(&m.store_path).map_or(0, |meta| meta.len());
    out.set(
        "service.cache.entry_bytes_per_trace",
        entry_bytes as f64 / n,
    );

    let mut conn = state.daemon.status_conn()?;
    let mut rtts = Vec::with_capacity(STATUS_RTTS);
    for _ in 0..STATUS_RTTS {
        let t = Instant::now();
        conn.executed_jobs(&m.job)?;
        rtts.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out.set("service.wire.status_rtt_us", med(&rtts));
    Ok(())
}

/// Measures the service layers for another workload's traced run: a
/// daemon in `dir`, one untimed warm-up pass, one untraced pass, then
/// traced passes recorded in `tr` as pass `pass_id` until one receives
/// the whole event stream (at most `TRACED_TRIES`; if none does, the
/// run fails its check). Sets every `service.*` metric and
/// `cached_time_to_results_s` (the traced pass's median resubmit); the
/// report notes the untraced time to results and the tracing overhead
/// the phases are measured with.
pub fn measure_layers(
    cfg: &Config,
    dir: &Path,
    tr: &mut Tracer,
    pass_id: u32,
    out: &mut Outcome,
) -> Res<()> {
    let mut state = setup(cfg, dir)?;
    pass(&state, &lane(cfg.seed, 0), &mut Tracer::off(), out)?;
    let untraced = pass(&state, &lane(cfg.seed, 1), &mut Tracer::off(), out)?.miss;
    let untraced_s = untraced.end.duration_since(untraced.t0).as_secs_f64();
    tr.set_pass(pass_id);
    let mut tries = 0;
    let (traced, complete) = loop {
        tries += 1;
        let p = pass(&state, &lane(cfg.seed, 1 + tries), tr, out)?;
        let complete = complete_stream(&state, &p.miss);
        if complete || tries == TRACED_TRIES {
            break (p, complete);
        }
    };
    out.checks.record(
        1,
        complete,
        "no traced pass received every progress and shard event",
    );
    service_layers(&state, &traced, out)?;
    let m = &traced.miss;
    let traced_s = m.end.duration_since(m.t0).as_secs_f64();
    out.note("service.untraced_time_to_results_s", untraced_s);
    out.note("service.tracing_overhead_s", traced_s - untraced_s);
    out.note("service.traced_passes", tries);
    out.set("cached_time_to_results_s", traced.cached_s);
    out.note("workers.daemon", WORKERS);
    out.note("shards", state.shards);
    out.note("socket_path_bytes", state.socket_len);
    state.daemon.stop()
}
