//! The campaign service daemon: socket accept loop, request handling,
//! and the shard scheduler.
//!
//! One daemon owns one data directory (`jobs/` + `cache/`) and one
//! Unix socket. Connections are handled a thread apiece; a single
//! scheduler thread runs jobs one at a time (each job's shards run
//! sequentially, and each shard is internally parallel through the
//! existing campaign executor). Every piece of job state lives on
//! disk in crash-safe form — atomic manifests, the executor's own
//! versioned checkpoints, flushed-ahead result logs — so a SIGKILLed
//! daemon restarts, re-queues every incomplete job, and resumes each
//! shard bit-identically.

use std::collections::BTreeMap;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::cache::{cache_key, CacheStats, ResultCache};
use crate::job::{
    JobManifest, MANIFEST_VERSION, STATE_CANCELLED, STATE_DONE, STATE_FAILED, STATE_QUEUED,
    STATE_RUNNING,
};
use crate::wire::{
    encode_event, encode_response, read_frame, write_frame, Event, Request, Response, WireError,
};
use crate::ServiceError;
use aps_sim::campaign::{
    campaign_size, run_campaign_resumable, CampaignOptions, CampaignSpec, CheckpointPolicy,
};
use aps_sim::checkpoint::{from_hex, spec_hash, to_hex, AggregatePartials, CampaignCheckpoint};
use aps_sim::outcome::JobOutcome;
use aps_sim::shard::plan_shards;
use aps_tracestore::{
    code_version_hash, FileTraceWriter, StoreInfo, TraceLogWriter, TraceStoreReader,
};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Unix socket path to listen on.
    pub socket: PathBuf,
    /// Data directory (holds `jobs/` and `cache/`).
    pub data_dir: PathBuf,
    /// Worker-count override for the campaign executor
    /// (`None` = `APS_WORKERS` env, then detection).
    pub workers: Option<usize>,
    /// Checkpoint cadence: snapshot after every N emitted jobs.
    pub checkpoint_every: usize,
    /// Artificial per-job delay in milliseconds (0 = none). Lets the
    /// CI smoke test open a kill window inside a quick campaign.
    pub throttle_ms: u64,
    /// Test hook: behave as if killed after this many lifetime job
    /// executions — the scheduler stops mid-shard, leaving checkpoint
    /// and log exactly as a real SIGKILL would, and the daemon
    /// returns. CI exercises the real `kill -9`; in-process tests use
    /// this.
    pub interrupt_after: Option<usize>,
}

impl ServiceConfig {
    /// Config with default cadence and no throttling.
    pub fn new(socket: impl Into<PathBuf>, data_dir: impl Into<PathBuf>) -> ServiceConfig {
        ServiceConfig {
            socket: socket.into(),
            data_dir: data_dir.into(),
            workers: None,
            checkpoint_every: 8,
            throttle_ms: 0,
            interrupt_after: None,
        }
    }
}

struct JobEntry {
    manifest: JobManifest,
    cancel: Arc<AtomicBool>,
    subscribers: Vec<UnixStream>,
    /// Every event broadcast so far while the job runs, encoded, so a
    /// late subscriber gets the whole stream.
    events: Vec<Vec<u8>>,
    seq: u64,
}

struct Inner {
    jobs: BTreeMap<String, JobEntry>,
    seq: u64,
}

struct Shared {
    config: ServiceConfig,
    cache: ResultCache,
    inner: Mutex<Inner>,
    cv: Condvar,
    stop: AtomicBool,
    /// Jobs executed by this daemon process, across all campaigns —
    /// the cache-hit assertions ("zero executor jobs") read this.
    executed_total: AtomicUsize,
}

impl Inner {
    /// Adds a job to the registry, after every job already in it.
    fn register(&mut self, manifest: JobManifest) {
        let seq = self.seq;
        self.seq += 1;
        let entry = JobEntry {
            manifest,
            cancel: Arc::new(AtomicBool::new(false)),
            subscribers: Vec::new(),
            events: Vec::new(),
            seq,
        };
        self.jobs.insert(entry.manifest.job.clone(), entry);
    }
}

fn lock(shared: &Shared) -> MutexGuard<'_, Inner> {
    shared.inner.lock().unwrap_or_else(PoisonError::into_inner)
}

fn jobs_dir(config: &ServiceConfig) -> PathBuf {
    config.data_dir.join("jobs")
}

/// How one scheduled job run ended.
enum RunEnd {
    Done,
    Cancelled,
    Interrupted,
}

/// Runs the daemon until a `Shutdown` request (or the
/// `interrupt_after` test hook) stops it. Blocking; returns after
/// subscribers are drained and the socket is removed.
///
/// # Errors
///
/// Only startup failures (data dir, socket bind) are fatal; per-job
/// failures are recorded in the job's manifest instead.
pub fn run_daemon(config: ServiceConfig) -> Result<(), ServiceError> {
    let jobs = jobs_dir(&config);
    std::fs::create_dir_all(&jobs).map_err(ServiceError::io(&jobs))?;
    let cache = ResultCache::open(&config.data_dir)?;

    let mut inner = Inner {
        jobs: BTreeMap::new(),
        seq: 0,
    };
    rescan_jobs(&jobs, &mut inner);

    let _ = std::fs::remove_file(&config.socket);
    let listener = UnixListener::bind(&config.socket).map_err(ServiceError::io(&config.socket))?;

    let shared = Arc::new(Shared {
        config,
        cache,
        inner: Mutex::new(inner),
        cv: Condvar::new(),
        stop: AtomicBool::new(false),
        executed_total: AtomicUsize::new(0),
    });

    let scheduler = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || scheduler_loop(&shared))
    };

    log_line(&shared.config, "daemon listening");
    for conn in listener.incoming() {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        match conn {
            Ok(stream) => {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || handle_connection(&shared, stream));
            }
            Err(_) => break,
        }
    }

    // Shutdown path: stop the scheduler, drain every subscriber with
    // a Closing event, and remove the socket.
    shared.stop.store(true, Ordering::Release);
    shared.cv.notify_all();
    let _ = scheduler.join();
    if let Ok(payload) = encode_event(&Event::Closing) {
        let mut inner = lock(&shared);
        for entry in inner.jobs.values_mut() {
            for mut sub in entry.subscribers.drain(..) {
                let _ = write_frame(&mut sub, &payload);
            }
        }
    }
    let _ = std::fs::remove_file(&shared.config.socket);
    log_line(&shared.config, "daemon stopped");
    Ok(())
}

fn log_line(config: &ServiceConfig, msg: &str) {
    println!("[serve {}] {msg}", config.socket.display());
}

/// Re-registers every job directory found on disk; incomplete jobs
/// (`queued`/`running` at the time of the kill) go back to the queue.
fn rescan_jobs(jobs: &Path, inner: &mut Inner) {
    let entries = match std::fs::read_dir(jobs) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let dir = entry.path();
        if !dir.is_dir() {
            continue;
        }
        let mut manifest = match JobManifest::load(&dir) {
            Ok(m) => m,
            Err(_) => continue,
        };
        if manifest.state == STATE_RUNNING {
            manifest.state = String::from(STATE_QUEUED);
            let _ = manifest.save(&dir);
        }
        inner.register(manifest);
    }
}

fn handle_connection(shared: &Shared, mut stream: UnixStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(p) => p,
            Err(WireError::Closed) => return,
            Err(e) => {
                // Typed protocol error back to the peer, then drop the
                // connection — after a framing error the stream
                // position is unreliable.
                respond_error(&mut stream, &e);
                return;
            }
        };
        let request = match crate::wire::decode_request(&payload) {
            Ok(r) => r,
            Err(e) => {
                // The frame boundary is intact, so the connection can
                // continue after a payload-level error.
                respond_error(&mut stream, &e);
                continue;
            }
        };
        match request {
            Request::SubmitCampaign {
                spec,
                shards,
                priority,
                seed,
            } => {
                let resp = handle_submit(shared, spec, shards, priority, &seed);
                respond(&mut stream, &resp);
            }
            Request::Status { job } => {
                let resp = handle_status(shared, &job);
                respond(&mut stream, &resp);
            }
            Request::Cancel { job } => {
                let resp = handle_cancel(shared, &job);
                respond(&mut stream, &resp);
            }
            Request::Fetch { job } => {
                let resp = handle_fetch(shared, &job);
                respond(&mut stream, &resp);
            }
            Request::Subscribe { job } => {
                // Terminal request for this connection: the stream
                // becomes the event channel.
                handle_subscribe(shared, &job, stream);
                return;
            }
            Request::Shutdown => {
                shared.stop.store(true, Ordering::Release);
                shared.cv.notify_all();
                respond(&mut stream, &Response::Done);
                // Wake the accept loop so it observes the stop flag.
                let _ = UnixStream::connect(&shared.config.socket);
                return;
            }
        }
    }
}

fn respond(stream: &mut UnixStream, response: &Response) {
    if let Ok(payload) = encode_response(response) {
        let _ = write_frame(stream, &payload);
    }
}

fn respond_error(stream: &mut UnixStream, e: &WireError) {
    let code = match e {
        WireError::Version { .. } => "version",
        WireError::Oversized { .. } => "oversized",
        WireError::Truncated => "truncated",
        WireError::Malformed { .. } => "malformed",
        WireError::Io { .. } | WireError::Closed => "io",
    };
    respond(
        stream,
        &Response::Error {
            code: String::from(code),
            detail: e.to_string(),
        },
    );
}

/// Marks `manifest` done from a validated cache entry, folded exactly
/// the way the campaign executor folds a zero-failure run.
fn serve_cached(manifest: &mut JobManifest, reader: &TraceStoreReader) {
    let mut partials = AggregatePartials::default();
    for view in reader.iter() {
        partials.fold_completed(&view.materialize());
    }
    manifest.state = String::from(STATE_DONE);
    manifest.cached = true;
    manifest.completed_jobs = partials.completed_jobs;
    manifest.digest = partials.digest;
}

fn handle_submit(
    shared: &Shared,
    spec: Box<CampaignSpec>,
    shards: usize,
    priority: u32,
    seed: &str,
) -> Response {
    let seed_u64 = if seed.is_empty() {
        0
    } else {
        match from_hex(seed).or_else(|| seed.parse::<u64>().ok().filter(|_| seed.len() < 16)) {
            Some(s) => s,
            None => {
                return Response::Error {
                    code: String::from("bad-seed"),
                    detail: format!("seed `{seed}` is not a hex u64"),
                }
            }
        }
    };
    let spec_hash_u64 = spec_hash(spec.as_ref());
    let key = cache_key(spec_hash_u64, seed_u64, code_version_hash());
    let id = to_hex(key);
    let total = campaign_size(&spec);
    let dir = JobManifest::dir(&jobs_dir(&shared.config), &id);

    let mut inner = lock(shared);
    if let Some(entry) = inner.jobs.get(&id) {
        let cached = entry.manifest.state == STATE_DONE;
        if cached {
            bump_stats(&shared.cache, &inner, |s| s.hits += 1);
        }
        return Response::Submitted {
            job: id,
            state: entry.manifest.state.clone(),
            total_jobs: entry.manifest.total_jobs,
            cached,
        };
    }

    // Normalize the requested shard count to what the planner can
    // actually cut (a grid with 2 patients × 1 BG caps at 2 shards).
    // The planned count is a fixed point of `plan_shards`, so the
    // executor re-planning from the manifest reproduces this plan.
    let shards = plan_shards(&spec, shards.max(1)).len();
    let mut manifest = JobManifest {
        version: MANIFEST_VERSION,
        job: id.clone(),
        spec: Some(*spec),
        spec_hash: to_hex(spec_hash_u64),
        seed: to_hex(seed_u64),
        shards,
        priority,
        state: String::from(STATE_QUEUED),
        total_jobs: total,
        ..JobManifest::default()
    };

    // Content-addressed cache front: an existing, validated entry
    // makes the job terminal without ever touching the executor.
    let cached = if let Some(reader) = shared.cache.lookup(key, spec_hash_u64) {
        serve_cached(&mut manifest, &reader);
        bump_stats(&shared.cache, &inner, |s| s.hits += 1);
        true
    } else {
        bump_stats(&shared.cache, &inner, |s| s.misses += 1);
        false
    };

    if let Err(e) = manifest.save(&dir) {
        return Response::Error {
            code: String::from("io"),
            detail: e.to_string(),
        };
    }
    let state = manifest.state.clone();
    inner.register(manifest);
    drop(inner);
    shared.cv.notify_all();
    log_line(
        &shared.config,
        &format!("submit {id}: state {state} cached {cached}"),
    );
    Response::Submitted {
        job: id,
        state,
        total_jobs: total,
        cached,
    }
}

/// Applies `f` to the persisted cache stats. Every caller must hold
/// the registry lock (hence the unused guard argument): that is what
/// serializes the load-modify-save of `stats.json` and its shared
/// temp file.
fn bump_stats(cache: &ResultCache, _held: &MutexGuard<'_, Inner>, f: impl FnOnce(&mut CacheStats)) {
    let mut stats = cache.load_stats();
    stats.version = 1;
    f(&mut stats);
    let _ = cache.save_stats(&stats);
}

fn handle_status(shared: &Shared, job: &str) -> Response {
    let inner = lock(shared);
    let jobs: Vec<JobManifest> = if job.is_empty() {
        inner.jobs.values().map(|e| e.manifest.clone()).collect()
    } else {
        match inner.jobs.get(job) {
            Some(e) => vec![e.manifest.clone()],
            None => {
                return Response::Error {
                    code: String::from("unknown-job"),
                    detail: format!("no job {job}"),
                }
            }
        }
    };
    Response::Status { jobs }
}

fn handle_cancel(shared: &Shared, job: &str) -> Response {
    let mut inner = lock(shared);
    let jobs = jobs_dir(&shared.config);
    match inner.jobs.get_mut(job) {
        Some(entry) => {
            if entry.manifest.is_terminal() {
                return Response::Error {
                    code: String::from("terminal"),
                    detail: format!("job {job} is already {}", entry.manifest.state),
                };
            }
            entry.cancel.store(true, Ordering::Release);
            if entry.manifest.state == STATE_QUEUED {
                entry.manifest.state = String::from(STATE_CANCELLED);
                entry.manifest.detail = String::from("cancelled while queued");
                let _ = entry.manifest.save(&JobManifest::dir(&jobs, job));
                notify_terminal(entry);
            }
            Response::Done
        }
        None => Response::Error {
            code: String::from("unknown-job"),
            detail: format!("no job {job}"),
        },
    }
}

fn handle_fetch(shared: &Shared, job: &str) -> Response {
    let inner = lock(shared);
    let entry = match inner.jobs.get(job) {
        Some(e) => e,
        None => {
            return Response::Error {
                code: String::from("unknown-job"),
                detail: format!("no job {job}"),
            }
        }
    };
    if entry.manifest.state != STATE_DONE {
        return Response::Error {
            code: String::from("not-done"),
            detail: format!("job {job} is {}", entry.manifest.state),
        };
    }
    if entry.manifest.failed_jobs > 0 {
        return Response::Error {
            code: String::from("has-failures"),
            detail: format!(
                "job {job} has {} failed jobs; only zero-failure campaigns are cached",
                entry.manifest.failed_jobs
            ),
        };
    }
    let key = match from_hex(job) {
        Some(k) => k,
        None => {
            return Response::Error {
                code: String::from("unknown-job"),
                detail: format!("job id {job} is not a hex key"),
            }
        }
    };
    let path = shared.cache.entry_path(key);
    match TraceStoreReader::open(&path) {
        Ok(reader) => Response::Fetched {
            path: path.display().to_string(),
            info: StoreInfo::of(&reader),
        },
        Err(e) => Response::Error {
            code: String::from("missing-store"),
            detail: e.to_string(),
        },
    }
}

fn handle_subscribe(shared: &Shared, job: &str, mut stream: UnixStream) {
    let mut inner = lock(shared);
    match inner.jobs.get_mut(job) {
        Some(entry) => {
            respond(&mut stream, &Response::Done);
            if entry.manifest.is_terminal() {
                // Already terminal: deliver the final event at once.
                let event = Event::JobDone {
                    job: entry.manifest.job.clone(),
                    state: entry.manifest.state.clone(),
                    digest: entry.manifest.digest.clone(),
                };
                if let Ok(payload) = encode_event(&event) {
                    let _ = write_frame(&mut stream, &payload);
                }
            } else {
                // Event delivery has no bounded cadence, so the
                // subscriber read side must not time out.
                let _ = stream.set_read_timeout(None);
                // The events so far first, under the same lock as the
                // registration, so none is missed or sent twice.
                if entry
                    .events
                    .iter()
                    .all(|payload| write_frame(&mut stream, payload).is_ok())
                {
                    entry.subscribers.push(stream);
                }
            }
        }
        None => {
            respond(
                &mut stream,
                &Response::Error {
                    code: String::from("unknown-job"),
                    detail: format!("no job {job}"),
                },
            );
        }
    }
}

/// Sends `event` to every subscriber of `entry`, dropping subscribers
/// whose stream has failed, and keeps it for later subscribers.
fn broadcast(entry: &mut JobEntry, event: &Event) {
    let payload = match encode_event(event) {
        Ok(p) => p,
        Err(_) => return,
    };
    entry
        .subscribers
        .retain_mut(|sub| write_frame(sub, &payload).is_ok());
    entry.events.push(payload);
}

/// Broadcasts the terminal event and closes every subscriber.
fn notify_terminal(entry: &mut JobEntry) {
    let event = Event::JobDone {
        job: entry.manifest.job.clone(),
        state: entry.manifest.state.clone(),
        digest: entry.manifest.digest.clone(),
    };
    broadcast(entry, &event);
    entry.subscribers.clear();
    // A terminal job answers a subscriber with its final event alone.
    entry.events = Vec::new();
}

fn scheduler_loop(shared: &Shared) {
    loop {
        let job_id = {
            let mut inner = lock(shared);
            loop {
                if shared.stop.load(Ordering::Acquire) {
                    drop(inner);
                    // Wake the accept loop in case the stop came from
                    // the interrupt hook rather than a Shutdown frame.
                    let _ = UnixStream::connect(&shared.config.socket);
                    return;
                }
                if let Some(id) = pick_next(&inner) {
                    if let Some(entry) = inner.jobs.get_mut(&id) {
                        entry.manifest.state = String::from(STATE_RUNNING);
                        let _ = entry
                            .manifest
                            .save(&JobManifest::dir(&jobs_dir(&shared.config), &id));
                    }
                    break id;
                }
                let (guard, _) = shared
                    .cv
                    .wait_timeout(inner, Duration::from_millis(200))
                    .unwrap_or_else(PoisonError::into_inner);
                inner = guard;
            }
        };
        log_line(&shared.config, &format!("start {job_id}"));
        let end = run_one_job(shared, &job_id);
        let mut inner = lock(shared);
        let dir = JobManifest::dir(&jobs_dir(&shared.config), &job_id);
        if let Some(entry) = inner.jobs.get_mut(&job_id) {
            match end {
                Ok(RunEnd::Done) => {
                    log_line(
                        &shared.config,
                        &format!("done {job_id}: digest {}", entry.manifest.digest),
                    );
                    notify_terminal(entry);
                }
                Ok(RunEnd::Cancelled) => {
                    entry.manifest.state = String::from(STATE_CANCELLED);
                    entry.manifest.detail = String::from("cancelled by request");
                    let _ = entry.manifest.save(&dir);
                    log_line(&shared.config, &format!("cancelled {job_id}"));
                    notify_terminal(entry);
                }
                Ok(RunEnd::Interrupted) => {
                    // Leave the on-disk state as the kill would have:
                    // manifest `running`, checkpoint and log mid-shard.
                    // The next daemon's rescan re-queues and resumes.
                    log_line(&shared.config, &format!("interrupted {job_id}"));
                }
                Err(e) => {
                    entry.manifest.state = String::from(STATE_FAILED);
                    entry.manifest.detail = e.to_string();
                    let _ = entry.manifest.save(&dir);
                    log_line(&shared.config, &format!("failed {job_id}: {e}"));
                    notify_terminal(entry);
                }
            }
        }
    }
}

/// Highest priority first, then submission order.
fn pick_next(inner: &Inner) -> Option<String> {
    inner
        .jobs
        .values()
        .filter(|e| e.manifest.state == STATE_QUEUED)
        .max_by_key(|e| (e.manifest.priority, std::cmp::Reverse(e.seq)))
        .map(|e| e.manifest.job.clone())
}

fn run_one_job(shared: &Shared, id: &str) -> Result<RunEnd, ServiceError> {
    let dir = JobManifest::dir(&jobs_dir(&shared.config), id);
    let (spec, shards_requested, user_cancel) = {
        let inner = lock(shared);
        let entry = inner.jobs.get(id).ok_or_else(|| ServiceError::Corrupt {
            path: id.to_string(),
            detail: String::from("job vanished from the registry"),
        })?;
        let spec = entry
            .manifest
            .spec
            .clone()
            .ok_or_else(|| ServiceError::Corrupt {
                path: dir.display().to_string(),
                detail: String::from("manifest has no spec"),
            })?;
        (spec, entry.manifest.shards, Arc::clone(&entry.cancel))
    };

    let spec_hash_u64 = spec_hash(&spec);
    let key = from_hex(id).unwrap_or_else(|| cache_key(spec_hash_u64, 0, code_version_hash()));

    // Late cache check: another daemon sharing the data dir may have
    // published this key since submission.
    if let Some(reader) = shared.cache.lookup(key, spec_hash_u64) {
        let mut inner = lock(shared);
        if let Some(entry) = inner.jobs.get_mut(id) {
            serve_cached(&mut entry.manifest, &reader);
            entry.manifest.save(&dir)?;
        }
        bump_stats(&shared.cache, &inner, |s| s.hits += 1);
        return Ok(RunEnd::Done);
    }

    let plans = plan_shards(&spec, shards_requested.max(1));
    let total_shards = plans.len();

    for plan in &plans {
        if user_cancel.load(Ordering::Acquire) {
            return Ok(RunEnd::Cancelled);
        }
        if shared.stop.load(Ordering::Acquire) {
            return Ok(RunEnd::Interrupted);
        }
        let ckpt_path = JobManifest::ckpt_path(&dir, plan.index);
        let log_path = JobManifest::log_path(&dir, plan.index);
        let shard_hash = spec_hash(&plan.spec);

        // Recover the shard's resume state. A checkpoint is honored
        // only when it validates against this shard's spec AND the log
        // holds a block for each completed job it covers (its count
        // minus the ledgered failures, which get no block). The sink
        // appends each block before a checkpoint covering it can be
        // written, so a shorter log was lost or damaged: the shard
        // re-runs from scratch rather than guess. Otherwise the log is
        // cut back to exactly those blocks, dropping emissions past
        // the checkpoint (they re-run) and any torn tail.
        let resume = CampaignCheckpoint::load(&ckpt_path)
            .ok()
            .filter(|c| {
                c.validate_for(&to_hex(shard_hash), None, plan.job_count)
                    .is_ok()
            })
            .and_then(|ckpt| {
                let blocks = ckpt.completed.count().saturating_sub(ckpt.ledger.len());
                let end = match blocks {
                    0 => 0,
                    k => TraceStoreReader::open_log(&log_path)
                        .ok()
                        .filter(|log| log.len() >= k)?
                        .block_end(k - 1),
                };
                Some((ckpt, end))
            });
        let resume = match resume {
            Some((ckpt, end)) => {
                std::fs::OpenOptions::new()
                    .write(true)
                    .create(true)
                    .truncate(false)
                    .open(&log_path)
                    .and_then(|log| log.set_len(end))
                    .map_err(ServiceError::io(&log_path))?;
                Some(ckpt)
            }
            None => {
                let _ = std::fs::remove_file(&ckpt_path);
                let _ = std::fs::remove_file(&log_path);
                None
            }
        };

        let already_done = resume
            .as_ref()
            .is_some_and(|c| c.completed.count() == plan.job_count);
        if !already_done {
            let mut log = TraceLogWriter::append(&log_path, shard_hash)
                .map_err(ServiceError::io(&log_path))?;
            let run_cancel = Arc::new(AtomicBool::new(false));
            let options = CampaignOptions {
                workers: shared.config.workers,
                checkpoint: Some(CheckpointPolicy {
                    path: ckpt_path.clone(),
                    every_jobs: shared.config.checkpoint_every.max(1),
                }),
                cancel: Some(Arc::clone(&run_cancel)),
                ..CampaignOptions::default()
            };
            let mut sink_err: Option<ServiceError> = None;
            let report = run_campaign_resumable(
                &plan.spec,
                None,
                &options,
                resume.as_ref(),
                |_, outcome| {
                    if sink_err.is_some() {
                        run_cancel.store(true, Ordering::Release);
                        return;
                    }
                    // A completed job's block must reach the OS before
                    // the executor can write a checkpoint covering it:
                    // that ordering is the resume-correctness
                    // invariant. A failed job needs no entry, since the
                    // checkpoint's ledger records it.
                    if let JobOutcome::Completed(trace) = &outcome {
                        if let Err(e) = log.push(trace) {
                            sink_err = Some(ServiceError::io(&log_path)(e));
                            run_cancel.store(true, Ordering::Release);
                            return;
                        }
                    }
                    let executed = shared.executed_total.fetch_add(1, Ordering::AcqRel) + 1;
                    {
                        let mut inner = lock(shared);
                        if let Some(entry) = inner.jobs.get_mut(id) {
                            entry.manifest.executed_jobs += 1;
                            let event = Event::Progress {
                                job: id.to_string(),
                                executed: entry.manifest.executed_jobs,
                                total: entry.manifest.total_jobs,
                            };
                            broadcast(entry, &event);
                        }
                    }
                    if shared.config.throttle_ms > 0 {
                        std::thread::sleep(Duration::from_millis(shared.config.throttle_ms));
                    }
                    if shared.config.interrupt_after.is_some_and(|n| executed >= n) {
                        shared.stop.store(true, Ordering::Release);
                        shared.cv.notify_all();
                    }
                    if user_cancel.load(Ordering::Acquire) || shared.stop.load(Ordering::Acquire) {
                        run_cancel.store(true, Ordering::Release);
                    }
                },
            )
            .map_err(ServiceError::corrupt(&ckpt_path))?;
            if let Some(e) = sink_err {
                return Err(e);
            }
            if user_cancel.load(Ordering::Acquire) {
                return Ok(RunEnd::Cancelled);
            }
            if report.cancelled || shared.stop.load(Ordering::Acquire) {
                // Persist progress so the restart sees the counters.
                let mut inner = lock(shared);
                if let Some(entry) = inner.jobs.get_mut(id) {
                    entry.manifest.save(&dir)?;
                }
                return Ok(RunEnd::Interrupted);
            }
        }

        let mut inner = lock(shared);
        if let Some(entry) = inner.jobs.get_mut(id) {
            entry.manifest.shards_done = plan.index + 1;
            entry.manifest.save(&dir)?;
            let event = Event::ShardDone {
                job: id.to_string(),
                shard: plan.index,
                shards: total_shards,
            };
            broadcast(entry, &event);
        }
    }

    merge_job(shared, id, &dir, &plans, spec_hash_u64, key)
}

/// Merges the complete shards, in shard order, into the final
/// campaign aggregate, publishes the trace store to the cache when
/// the campaign had zero failures, and marks the job done.
///
/// Every shard's checkpoint is loaded first, and the cache entry is
/// encoded only when no ledger holds a failure. A shard's jobs are
/// then walked in order: an index in the checkpoint's ledger folds
/// that failure, and every other index takes the log's next block.
fn merge_job(
    shared: &Shared,
    id: &str,
    dir: &Path,
    plans: &[aps_sim::shard::ShardPlan],
    spec_hash_u64: u64,
    key: u64,
) -> Result<RunEnd, ServiceError> {
    let ckpts = plans
        .iter()
        .map(|plan| {
            let ckpt_path = JobManifest::ckpt_path(dir, plan.index);
            CampaignCheckpoint::load(&ckpt_path).map_err(ServiceError::corrupt(&ckpt_path))
        })
        .collect::<Result<Vec<_>, _>>()?;
    // Only zero-failure campaigns are cached: the cache contract is
    // "these traces ARE the campaign", which failed jobs would break.
    let entry_path = shared.cache.entry_path(key);
    let mut writer = if ckpts.iter().all(|c| c.ledger.is_empty()) {
        Some(
            FileTraceWriter::create_unique(&entry_path, spec_hash_u64)
                .map_err(ServiceError::io(&entry_path))?,
        )
    } else {
        None
    };

    let mut partials = AggregatePartials::default();
    for (plan, ckpt) in plans.iter().zip(&ckpts) {
        let log_path = JobManifest::log_path(dir, plan.index);
        let log = TraceStoreReader::open_log(&log_path).map_err(ServiceError::io(&log_path))?;
        let failures = &ckpt.ledger.entries;
        let mismatch = || ServiceError::Corrupt {
            path: log_path.display().to_string(),
            detail: format!(
                "shard log has {} blocks and the ledger {} failures, expected {} jobs",
                log.len(),
                failures.len(),
                plan.job_count
            ),
        };
        if log.len() + failures.len() != plan.job_count {
            return Err(mismatch());
        }
        let mut failures = failures.iter().peekable();
        let mut blocks = log.iter();
        for i in 0..plan.job_count {
            if let Some(f) = failures.next_if(|f| f.job_index == i) {
                partials.fold_failed(&f.error.to_string(), f.attempts);
            } else {
                let trace = blocks.next().ok_or_else(mismatch)?.materialize();
                partials.fold_completed(&trace);
                if let Some(writer) = writer.as_mut() {
                    writer.push(&trace).map_err(ServiceError::io(&entry_path))?;
                }
            }
        }
    }

    // A dropped writer removes its unique temp file.
    let published = writer
        .map(|w| w.finalize_if_absent())
        .transpose()
        .map_err(ServiceError::io(&entry_path))?;

    let mut inner = lock(shared);
    match published {
        Some(Some(_)) => bump_stats(&shared.cache, &inner, |s| s.writes += 1),
        Some(None) => bump_stats(&shared.cache, &inner, |s| s.skipped_writes += 1),
        None => {}
    }
    if let Some(entry) = inner.jobs.get_mut(id) {
        entry.manifest.state = String::from(STATE_DONE);
        entry.manifest.completed_jobs = partials.completed_jobs;
        entry.manifest.failed_jobs = partials.failed_jobs;
        entry.manifest.digest = partials.digest.clone();
        entry.manifest.save(dir)?;
    }
    Ok(RunEnd::Done)
}
