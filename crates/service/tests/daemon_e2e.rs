//! End-to-end daemon tests over a real Unix socket: kill/resume
//! bit-identity (also with failed jobs, and with a shard's log or
//! checkpoint lost), the content-addressed cache hit path and its
//! counters, refusal of pre-v2 shard checkpoints, cancellation,
//! shutdown draining subscribers, and late subscribers getting the
//! whole event stream.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use aps_service::daemon::{run_daemon, ServiceConfig};
use aps_service::{CacheStats, Client, Event, ServiceError};
use aps_sim::campaign::{run_campaign_resumable, CampaignOptions, CampaignSpec};
use aps_sim::checkpoint::{to_hex, CampaignCheckpoint, CHECKPOINT_VERSION};
use aps_sim::platform::Platform;
use aps_tracestore::{read_store, TraceStoreReader};

/// Short-lived unique scratch dir (sockets have a ~107-byte path
/// limit, so everything stays under /tmp with terse names).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apssvc-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn small_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::quick(Platform::GlucosymOref0);
    spec.initial_bgs = vec![120.0, 160.0];
    spec.steps = 20;
    spec
}

/// Connects with retries while the daemon binds its socket.
fn connect(socket: &Path) -> Client {
    for _ in 0..500 {
        if let Ok(client) = Client::connect(socket) {
            return client;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("daemon never came up on {}", socket.display());
}

/// Polls status until the job is terminal (for restarts where a
/// subscription from the old daemon is gone).
fn wait_done(socket: &Path, job: &str) -> aps_service::JobManifest {
    for _ in 0..3000 {
        let mut client = connect(socket);
        if let Ok(jobs) = client.status(job) {
            if let Some(m) = jobs.first() {
                if m.is_terminal() {
                    return m.clone();
                }
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("job {job} never finished");
}

#[test]
fn kill_resume_is_bit_identical_and_resubmit_hits_cache() {
    let dir = scratch("resume");
    let socket = dir.join("s1.sock");
    let data = dir.join("data");
    let spec = small_spec();

    // Uninterrupted reference: the serial fault-tolerant run.
    let mut serial = Vec::new();
    let reference =
        run_campaign_resumable(&spec, None, &CampaignOptions::default(), None, |_, o| {
            serial.extend(o.into_trace())
        })
        .expect("reference");
    let total = reference.total_jobs;
    assert!(total > 60, "spec should be non-trivial, got {total}");

    // Daemon #1: configured to behave as if SIGKILLed after 40
    // executed jobs, mid-shard.
    let mut config = ServiceConfig::new(&socket, &data);
    config.checkpoint_every = 3;
    config.interrupt_after = Some(40);
    let daemon = std::thread::spawn(move || run_daemon(config));

    let mut client = connect(&socket);
    let submitted = client.submit(spec.clone(), 4, 0, "0").expect("submit");
    assert!(!submitted.cached, "first submission cannot be cached");
    assert_eq!(submitted.total_jobs, total);
    let job = submitted.job.clone();

    daemon.join().expect("daemon thread").expect("daemon run");

    // The kill left the job incomplete on disk.
    let manifest = aps_service::JobManifest::load(&data.join("jobs").join(&job))
        .expect("manifest survives the kill");
    assert!(
        !manifest.is_terminal(),
        "job must not be terminal after kill"
    );
    assert!(manifest.executed_jobs < total);

    // Daemon #2: same data dir, no interrupt — the rescan re-queues
    // and resumes every incomplete shard.
    let socket2 = dir.join("s2.sock");
    let config2 = ServiceConfig::new(&socket2, &data);
    let daemon2 = std::thread::spawn(move || run_daemon(config2));

    let manifest = wait_done(&socket2, &job);
    assert_eq!(manifest.state, "done");
    assert_eq!(
        manifest.digest, reference.digest,
        "resumed digest must be bit-identical to the uninterrupted run"
    );
    assert_eq!(manifest.completed_jobs, total);
    assert_eq!(manifest.failed_jobs, 0);

    // Trace-level bit-identity through fetch.
    let mut client = connect(&socket2);
    let (path, info) = client.fetch(&job).expect("fetch");
    assert_eq!(info.traces as usize, total);
    let reader = TraceStoreReader::open(Path::new(&path)).expect("open store");
    let merged = read_store(&reader);
    assert_eq!(merged, serial, "merged traces != uninterrupted serial run");

    // Resubmitting the identical spec is served entirely from cache:
    // zero newly executed jobs.
    let executed_before = manifest.executed_jobs;
    let resubmit = client.submit(spec.clone(), 4, 0, "0").expect("resubmit");
    assert!(resubmit.cached, "identical resubmission must hit");
    assert_eq!(resubmit.job, job);
    let manifest = wait_done(&socket2, &job);
    assert_eq!(
        manifest.executed_jobs, executed_before,
        "cache hit must not execute jobs"
    );

    // A different seed lane misses (new job id, queued not cached).
    let other = client
        .submit(spec.clone(), 4, 0, "7")
        .expect("seeded submit");
    assert_ne!(other.job, job, "seed must change the content address");
    assert!(!other.cached);
    let _ = client.cancel(&other.job);

    let mut client = connect(&socket2);
    client.shutdown().expect("shutdown");
    daemon2
        .join()
        .expect("daemon2 thread")
        .expect("daemon2 run");

    // Cross-daemon hit: wipe the job registry but keep the cache; a
    // fresh daemon must serve the submission from the cache file.
    std::fs::remove_dir_all(data.join("jobs")).expect("wipe jobs");
    let socket3 = dir.join("s3.sock");
    let config3 = ServiceConfig::new(&socket3, &data);
    let daemon3 = std::thread::spawn(move || run_daemon(config3));
    let mut client = connect(&socket3);
    let cold = client.submit(spec, 4, 0, "0").expect("cold submit");
    assert!(cold.cached, "cache file alone must serve the hit");
    assert_eq!(cold.job, job);
    let manifest = wait_done(&socket3, &job);
    assert_eq!(manifest.digest, reference.digest);
    assert_eq!(manifest.executed_jobs, 0, "no executor work on a cache hit");

    let stats: CacheStats = serde_json::from_str(
        &std::fs::read_to_string(data.join("cache").join("stats.json")).expect("stats"),
    )
    .expect("parse stats");
    assert!(stats.hits >= 2, "expected at least two hits, got {stats:?}");
    assert!(stats.writes >= 1);

    client.shutdown().expect("shutdown 3");
    daemon3
        .join()
        .expect("daemon3 thread")
        .expect("daemon3 run");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pre_v2_shard_checkpoint_is_rerun_not_continued() {
    let dir = scratch("v1ckpt");
    let socket = dir.join("s1.sock");
    let data = dir.join("data");
    let spec = small_spec();
    let reference =
        run_campaign_resumable(&spec, None, &CampaignOptions::default(), None, |_, _| {})
            .expect("reference");

    let mut config = ServiceConfig::new(&socket, &data);
    config.checkpoint_every = 3;
    config.interrupt_after = Some(40);
    let daemon = std::thread::spawn(move || run_daemon(config));
    let submitted = connect(&socket).submit(spec, 4, 0, "0").expect("submit");
    let job = submitted.job.clone();
    daemon.join().expect("daemon thread").expect("daemon run");

    // Shard 0 finished before the kill. Make its checkpoint look like
    // one written by a v1 build, with a digest from the old scheme.
    let job_dir = data.join("jobs").join(&job);
    let ckpt_path = aps_service::JobManifest::ckpt_path(&job_dir, 0);
    let mut ckpt = CampaignCheckpoint::load(&ckpt_path).expect("shard 0 checkpoint");
    assert_eq!(
        ckpt.completed.count(),
        ckpt.total_jobs,
        "shard 0 should be complete at the kill"
    );
    ckpt.version = 1;
    ckpt.partials.digest = to_hex(0x0123_4567_89AB_CDEF);
    ckpt.save(&ckpt_path).expect("rewrite as v1");

    let socket2 = dir.join("s2.sock");
    let config2 = ServiceConfig::new(&socket2, &data);
    let daemon2 = std::thread::spawn(move || run_daemon(config2));
    let manifest = wait_done(&socket2, &job);
    assert_eq!(manifest.state, "done");
    assert_eq!(manifest.digest, reference.digest);
    assert_eq!(manifest.completed_jobs, reference.total_jobs);

    // The refused shard was re-run from scratch: a complete shard
    // that had been honoured would have kept its v1 file untouched.
    let rerun = CampaignCheckpoint::load(&ckpt_path).expect("re-run checkpoint");
    assert_eq!(rerun.version, CHECKPOINT_VERSION);
    assert_eq!(rerun.completed.count(), rerun.total_jobs);
    assert_ne!(rerun.partials.digest, to_hex(0x0123_4567_89AB_CDEF));

    connect(&socket2).shutdown().expect("shutdown");
    daemon2
        .join()
        .expect("daemon2 thread")
        .expect("daemon2 run");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_is_terminal_and_shutdown_drains_subscribers() {
    let dir = scratch("cancel");
    let socket = dir.join("s.sock");
    let data = dir.join("data");

    let mut config = ServiceConfig::new(&socket, &data);
    // Slow the executor down so cancellation lands mid-run.
    config.throttle_ms = 5;
    let daemon = std::thread::spawn(move || run_daemon(config));

    let mut client = connect(&socket);
    let submitted = client.submit(small_spec(), 2, 0, "0").expect("submit");
    let job = submitted.job.clone();

    // Cancel while running (or still queued — both are legal).
    let waiter = {
        let socket = socket.clone();
        let job = job.clone();
        std::thread::spawn(move || connect(&socket).wait(&job))
    };
    std::thread::sleep(Duration::from_millis(50));
    client.cancel(&job).expect("cancel");
    let (state, _) = waiter
        .join()
        .expect("waiter thread")
        .expect("subscription delivers the terminal event");
    assert_eq!(state, "cancelled");
    let manifest = wait_done(&socket, &job);
    assert_eq!(manifest.state, "cancelled");

    // A subscriber to a job that never finishes must be drained with
    // Closing on shutdown, not left hanging.
    let mut spec = small_spec();
    spec.steps = 25; // different spec → different job
    let submitted = client.submit(spec, 2, 0, "0").expect("submit 2");
    let waiter = {
        let socket = socket.clone();
        let job = submitted.job.clone();
        std::thread::spawn(move || connect(&socket).wait(&job))
    };
    std::thread::sleep(Duration::from_millis(30));
    connect(&socket).shutdown().expect("shutdown");
    match waiter.join().expect("waiter thread") {
        // Daemon closed before the job finished: drained via Closing.
        Err(ServiceError::Remote { code, .. }) => assert_eq!(code, "closing"),
        // Or the tiny campaign actually finished first — also fine.
        Ok((state, _)) => assert_eq!(state, "done"),
        Err(other) => panic!("subscriber saw unexpected error: {other}"),
    }
    daemon.join().expect("daemon thread").expect("daemon run");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A subscriber that attaches after a running job broadcast events
/// first receives every one of them, then the rest: each event exactly
/// once, in order.
#[test]
fn a_late_subscriber_receives_every_event_once_in_order() {
    let dir = scratch("late");
    let socket = dir.join("s.sock");
    let data = dir.join("data");

    let mut config = ServiceConfig::new(&socket, &data);
    // Slow enough that the job is still running when the subscriber
    // attaches (124 jobs at 20 ms each).
    config.throttle_ms = 20;
    let daemon = std::thread::spawn(move || run_daemon(config));

    let mut client = connect(&socket);
    let submitted = client.submit(small_spec(), 2, 0, "0").expect("submit");
    let job = submitted.job.clone();
    let seen = |client: &mut Client| {
        let jobs = client.status(&job).expect("status");
        jobs.first().map_or(0, |m| m.executed_jobs)
    };
    while seen(&mut client) < 3 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut events = connect(&socket).subscribe(&job).expect("subscribe");

    let mut progress = Vec::new();
    let mut shards = Vec::new();
    let total = loop {
        match events.next_event().expect("event") {
            Event::Progress {
                executed, total, ..
            } => {
                progress.push(executed);
                assert!(executed <= total);
            }
            Event::ShardDone {
                shard, shards: n, ..
            } => shards.push((shard, n)),
            Event::JobDone { state, .. } => {
                assert_eq!(state, "done");
                break progress.len();
            }
            Event::Closing => panic!("daemon closed mid-job"),
        }
    };
    assert_eq!(total, submitted.total_jobs, "one progress event per job");
    assert_eq!(progress, (1..=total).collect::<Vec<_>>());
    assert_eq!(shards, vec![(0, 2), (1, 2)]);

    connect(&socket).shutdown().expect("shutdown");
    daemon.join().expect("daemon thread").expect("daemon run");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_jobs_survive_kill_resume_and_fetch_refuses() {
    let dir = scratch("failed");
    let socket = dir.join("s1.sock");
    let data = dir.join("data");
    // Cohort index 12 does not exist: every job of that patient fails
    // validation, so each shard interleaves failures with traces.
    let mut spec = small_spec();
    spec.patient_indices = vec![0, 12, 1];
    let reference =
        run_campaign_resumable(&spec, None, &CampaignOptions::default(), None, |_, _| {})
            .expect("reference");
    assert_eq!(reference.total_jobs, 186);
    assert_eq!(reference.failed_jobs, 62);

    let mut config = ServiceConfig::new(&socket, &data);
    config.checkpoint_every = 3;
    config.interrupt_after = Some(90);
    let daemon = std::thread::spawn(move || run_daemon(config));
    let job = connect(&socket)
        .submit(spec, 2, 0, "0")
        .expect("submit")
        .job;
    daemon.join().expect("daemon thread").expect("daemon run");
    let manifest = aps_service::JobManifest::load(&data.join("jobs").join(&job))
        .expect("manifest survives the kill");
    assert!(
        !manifest.is_terminal(),
        "job must not be terminal after kill"
    );
    assert!(manifest.executed_jobs < 186, "the kill lands mid-campaign");

    let socket2 = dir.join("s2.sock");
    let daemon2 = std::thread::spawn({
        let config2 = ServiceConfig::new(&socket2, &data);
        move || run_daemon(config2)
    });
    let manifest = wait_done(&socket2, &job);
    assert_eq!(manifest.state, "done");
    assert_eq!(manifest.digest, reference.digest);
    assert_eq!(manifest.failed_jobs, reference.failed_jobs);
    assert_eq!(manifest.completed_jobs, reference.completed_jobs);
    match connect(&socket2).fetch(&job) {
        Err(ServiceError::Remote { code, .. }) => assert_eq!(code, "has-failures"),
        other => panic!("fetch of a job with failures must refuse, got {other:?}"),
    }

    connect(&socket2).shutdown().expect("shutdown");
    daemon2
        .join()
        .expect("daemon2 thread")
        .expect("daemon2 run");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lost_shard_log_or_checkpoint_reruns_the_shard() {
    let dir = scratch("lostlog");
    let socket = dir.join("s1.sock");
    let data = dir.join("data");
    let spec = small_spec();
    let mut serial = Vec::new();
    let reference =
        run_campaign_resumable(&spec, None, &CampaignOptions::default(), None, |_, o| {
            serial.extend(o.into_trace())
        })
        .expect("reference");
    let total = reference.total_jobs;

    let mut config = ServiceConfig::new(&socket, &data);
    config.checkpoint_every = 3;
    config.interrupt_after = Some(40);
    let daemon = std::thread::spawn(move || run_daemon(config));
    let job = connect(&socket)
        .submit(spec, 4, 0, "0")
        .expect("submit")
        .job;
    daemon.join().expect("daemon thread").expect("daemon run");

    // Shard 0 finished before the kill and shard 1 started. Losing
    // shard 0's log leaves a checkpoint the log cannot back; losing
    // shard 1's checkpoint leaves blocks no checkpoint covers. Both
    // shards must re-run from scratch.
    let job_dir = data.join("jobs").join(&job);
    let before = aps_service::JobManifest::load(&job_dir).expect("manifest");
    let log0 = aps_service::JobManifest::log_path(&job_dir, 0);
    let ckpt1 = aps_service::JobManifest::ckpt_path(&job_dir, 1);
    assert!(CampaignCheckpoint::load(&ckpt1).is_ok(), "shard 1 started");
    std::fs::remove_file(&log0).expect("shard 0 log");
    std::fs::remove_file(&ckpt1).expect("shard 1 checkpoint");

    let socket2 = dir.join("s2.sock");
    let daemon2 = std::thread::spawn({
        let config2 = ServiceConfig::new(&socket2, &data);
        move || run_daemon(config2)
    });
    let manifest = wait_done(&socket2, &job);
    assert_eq!(manifest.state, "done");
    assert_eq!(manifest.digest, reference.digest);
    assert_eq!(
        manifest.executed_jobs - before.executed_jobs,
        total,
        "shards 0 and 1 re-ran in full and shards 2 and 3 ran once"
    );
    let (path, _) = connect(&socket2).fetch(&job).expect("fetch");
    let merged = read_store(&TraceStoreReader::open(Path::new(&path)).expect("open store"));
    assert_eq!(merged, serial);

    connect(&socket2).shutdown().expect("shutdown");
    daemon2
        .join()
        .expect("daemon2 thread")
        .expect("daemon2 run");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cached_resubmits_racing_a_merge_count_exactly() {
    let dir = scratch("statsrace");
    let socket = dir.join("s.sock");
    let data = dir.join("data");
    let daemon = std::thread::spawn({
        let config = ServiceConfig::new(&socket, &data);
        move || run_daemon(config)
    });

    // A finished job whose resubmits are cache hits.
    let cached_spec = small_spec();
    let first = connect(&socket)
        .submit(cached_spec.clone(), 1, 0, "0")
        .expect("submit");
    wait_done(&socket, &first.job);

    // Hammer it with resubmits from several clients until a second
    // job has run and merged.
    let running = Arc::new(AtomicBool::new(true));
    let hammers: Vec<_> = (0..4)
        .map(|_| {
            let (socket, spec, running) = (socket.clone(), cached_spec.clone(), running.clone());
            std::thread::spawn(move || {
                let mut client = connect(&socket);
                let mut hits = 0;
                while running.load(Ordering::Acquire) {
                    let resubmit = client.submit(spec.clone(), 1, 0, "0").expect("resubmit");
                    assert!(resubmit.cached);
                    hits += 1;
                }
                hits
            })
        })
        .collect();
    let second = connect(&socket)
        .submit(small_spec(), 2, 0, "1")
        .expect("submit");
    let manifest = wait_done(&socket, &second.job);
    running.store(false, Ordering::Release);
    let hits: usize = hammers.into_iter().map(|h| h.join().expect("hammer")).sum();
    assert_eq!(manifest.state, "done");
    assert!(hits > 0);

    connect(&socket).shutdown().expect("shutdown");
    daemon.join().expect("daemon thread").expect("daemon run");
    let stats: CacheStats = serde_json::from_str(
        &std::fs::read_to_string(data.join("cache").join("stats.json")).expect("stats"),
    )
    .expect("parse stats");
    assert_eq!(stats.hits, hits, "{stats:?}");
    assert_eq!(stats.misses, 2, "{stats:?}");
    assert_eq!(stats.writes, 2, "{stats:?}");
    assert_eq!(stats.skipped_writes, 0, "{stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
