//! `repro` service subcommands — the CLI face of the campaign
//! orchestrator daemon in [`aps_service`]:
//!
//! * `serve` — run the daemon on a Unix socket;
//! * `submit` / `status` / `fetch` / `cancel` / `shutdown` — the
//!   client side, speaking the length-prefixed JSON wire protocol;
//! * `sweep-gate` — the multi-core scaling gate over a recorded
//!   `bench-campaign --sweep-workers` report.
//!
//! Output is line-oriented `key        : value` pairs so CI shell
//! steps can extract fields with `grep`/`awk` (e.g.
//! `grep '^job' | awk '{print $3}'`).

use std::path::Path;
use std::time::{Duration, Instant};

use crate::perf::{check_sweep_gate, CampaignBenchReport};
use aps_service::{run_daemon, Client, JobManifest, ServiceConfig};
use aps_sim::campaign::{run_campaign_resumable, CampaignOptions, CampaignSpec};
use aps_sim::platform::Platform;
use aps_tracestore::{read_store, TraceStoreReader};

/// Dispatches one service subcommand. Returns the process exit code:
/// `0` success, `1` operational failure, `2` usage error.
pub fn run_service(cmd: &str, args: &[String]) -> i32 {
    let args = args.to_vec();
    let result = match cmd {
        "serve" => run_serve(args),
        "submit" => run_submit(args),
        "status" => run_status(args),
        "fetch" => run_fetch(args),
        "cancel" => run_cancel(args),
        "shutdown" => run_shutdown(args),
        "sweep-gate" => run_sweep_gate(args),
        other => Err(Failure::usage(format!("unknown service command `{other}`"))),
    };
    match result {
        Ok(code) => code,
        Err(failure) => {
            eprintln!("error: {}", failure.detail);
            failure.code
        }
    }
}

/// A failed subcommand: message plus the exit code it maps to.
#[derive(Debug)]
struct Failure {
    code: i32,
    detail: String,
}

impl Failure {
    fn usage(detail: impl Into<String>) -> Failure {
        Failure {
            code: 2,
            detail: detail.into(),
        }
    }

    fn run(detail: impl Into<String>) -> Failure {
        Failure {
            code: 1,
            detail: detail.into(),
        }
    }
}

/// Removes a boolean switch from the argument list.
fn take_switch(args: &mut Vec<String>, name: &str) -> bool {
    match args.iter().position(|a| a == name) {
        Some(pos) => {
            args.remove(pos);
            true
        }
        None => false,
    }
}

/// Removes `name VALUE` from the argument list.
fn take_value(args: &mut Vec<String>, name: &str) -> Result<Option<String>, Failure> {
    match args.iter().position(|a| a == name) {
        Some(pos) => {
            if pos + 1 >= args.len() {
                return Err(Failure::usage(format!("missing value for {name}")));
            }
            let value = args.remove(pos + 1);
            args.remove(pos);
            Ok(Some(value))
        }
        None => Ok(None),
    }
}

/// Removes and parses `name VALUE`.
fn take_parsed<T: std::str::FromStr>(
    args: &mut Vec<String>,
    name: &str,
) -> Result<Option<T>, Failure> {
    match take_value(args, name)? {
        Some(raw) => raw
            .parse()
            .map(Some)
            .map_err(|_| Failure::usage(format!("bad value for {name}: `{raw}`"))),
        None => Ok(None),
    }
}

fn require(value: Option<String>, what: &str) -> Result<String, Failure> {
    value.ok_or_else(|| Failure::usage(format!("missing required {what}")))
}

/// Everything left after flag extraction is an unknown flag.
fn reject_leftovers(args: &[String]) -> Result<(), Failure> {
    match args.first() {
        Some(stray) => Err(Failure::usage(format!("unknown flag `{stray}`"))),
        None => Ok(()),
    }
}

fn connect(socket: &str) -> Result<Client, Failure> {
    Client::connect(Path::new(socket))
        .map_err(|e| Failure::run(format!("cannot connect to {socket}: {e}")))
}

/// `repro serve --socket PATH --data DIR [--workers N]
/// [--checkpoint-every N] [--throttle-ms N]` — run the daemon in the
/// foreground until a client sends `Shutdown`.
fn run_serve(mut args: Vec<String>) -> Result<i32, Failure> {
    let socket = require(take_value(&mut args, "--socket")?, "--socket PATH")?;
    let data = require(take_value(&mut args, "--data")?, "--data DIR")?;
    let workers = take_parsed::<usize>(&mut args, "--workers")?;
    let checkpoint_every = take_parsed::<usize>(&mut args, "--checkpoint-every")?;
    let throttle_ms = take_parsed::<u64>(&mut args, "--throttle-ms")?;
    reject_leftovers(&args)?;

    let mut config = ServiceConfig::new(&socket, &data);
    config.workers = workers;
    if let Some(every) = checkpoint_every {
        config.checkpoint_every = every;
    }
    if let Some(ms) = throttle_ms {
        config.throttle_ms = ms;
    }
    println!("socket     : {socket}");
    println!("data dir   : {data}");
    match run_daemon(config) {
        Ok(()) => {
            println!("daemon     : clean shutdown");
            Ok(0)
        }
        Err(e) => Err(Failure::run(format!("daemon: {e}"))),
    }
}

/// Builds the campaign spec for `submit` from `--quick` or `--spec F`,
/// with optional `--steps` / `--bgs` overrides.
fn load_spec(args: &mut Vec<String>) -> Result<CampaignSpec, Failure> {
    let spec_path = take_value(args, "--spec")?;
    let quick = take_switch(args, "--quick");
    let mut spec = match (quick, spec_path) {
        (true, None) => CampaignSpec::quick(Platform::GlucosymOref0),
        (false, Some(path)) => {
            let json = std::fs::read_to_string(&path)
                .map_err(|e| Failure::run(format!("cannot read `{path}`: {e}")))?;
            serde_json::from_str(&json)
                .map_err(|e| Failure::run(format!("`{path}` is not a campaign spec: {e:?}")))?
        }
        _ => {
            return Err(Failure::usage(
                "submit needs exactly one of --quick or --spec <file.json>",
            ))
        }
    };
    if let Some(steps) = take_parsed::<u32>(args, "--steps")? {
        spec.steps = steps;
    }
    if let Some(raw) = take_value(args, "--bgs")? {
        let mut bgs = Vec::new();
        for part in raw.split(',') {
            bgs.push(
                part.trim()
                    .parse::<f64>()
                    .map_err(|_| Failure::usage(format!("bad value in --bgs: `{part}`")))?,
            );
        }
        spec.initial_bgs = bgs;
    }
    Ok(spec)
}

/// `repro submit --socket PATH (--quick | --spec F) [--steps N]
/// [--bgs 120,160] [--shards N] [--priority N] [--seed S] [--wait]
/// [--verify-serial] [--expect-cached] [--timeout-s N]`.
fn run_submit(mut args: Vec<String>) -> Result<i32, Failure> {
    let socket = require(take_value(&mut args, "--socket")?, "--socket PATH")?;
    let spec = load_spec(&mut args)?;
    let shards = take_parsed::<usize>(&mut args, "--shards")?.unwrap_or(4);
    let priority = take_parsed::<u32>(&mut args, "--priority")?.unwrap_or(0);
    let seed = take_value(&mut args, "--seed")?.unwrap_or_else(|| String::from("0"));
    let wait = take_switch(&mut args, "--wait");
    let verify_serial = take_switch(&mut args, "--verify-serial");
    let expect_cached = take_switch(&mut args, "--expect-cached");
    let timeout_s = take_parsed::<u64>(&mut args, "--timeout-s")?.unwrap_or(300);
    reject_leftovers(&args)?;

    let mut client = connect(&socket)?;
    let submitted = client
        .submit(spec.clone(), shards, priority, &seed)
        .map_err(|e| Failure::run(format!("submit: {e}")))?;
    println!("job        : {}", submitted.job);
    println!("state      : {}", submitted.state);
    println!("cached     : {}", submitted.cached);
    println!("total jobs : {}", submitted.total_jobs);
    if expect_cached && !submitted.cached {
        return Err(Failure::run(
            "expected the submission to be served from cache, but it was queued",
        ));
    }

    if wait || verify_serial || expect_cached {
        // Executed-job count right after submission: a cache hit must
        // not grow it (a re-served job keeps its historical count, so
        // "zero new work" is the invariant, not "zero lifetime work").
        let executed_at_submit = connect(&socket)?
            .status(&submitted.job)
            .ok()
            .and_then(|jobs| jobs.first().map(|m| m.executed_jobs));
        let manifest = wait_terminal(&socket, &submitted.job, timeout_s)?;
        print_manifest(&manifest);
        if manifest.state != "done" {
            return Err(Failure::run(format!(
                "job {} finished in state `{}`",
                manifest.job, manifest.state
            )));
        }
        if expect_cached && Some(manifest.executed_jobs) != executed_at_submit {
            return Err(Failure::run(format!(
                "cache hit still executed jobs ({:?} at submit, {} at completion)",
                executed_at_submit, manifest.executed_jobs
            )));
        }
        if verify_serial {
            // Recompute the whole campaign serially in-process; the
            // sharded/resumed service digest must be bit-identical.
            let reference =
                run_campaign_resumable(&spec, None, &CampaignOptions::default(), None, |_, _| {})
                    .map_err(|e| Failure::run(format!("serial reference run: {e}")))?;
            if reference.digest != manifest.digest {
                return Err(Failure::run(format!(
                    "digest mismatch: service {} != serial {}",
                    manifest.digest, reference.digest
                )));
            }
            println!(
                "verify     : digest bit-identical to the uninterrupted serial run ({})",
                manifest.digest
            );
        }
    }
    Ok(0)
}

/// `repro status --socket PATH [--job ID] [--wait] [--timeout-s N]` —
/// with `--wait`, polls until the job is terminal and exits non-zero
/// unless it finished `done`.
fn run_status(mut args: Vec<String>) -> Result<i32, Failure> {
    let socket = require(take_value(&mut args, "--socket")?, "--socket PATH")?;
    let job = take_value(&mut args, "--job")?.unwrap_or_default();
    let wait = take_switch(&mut args, "--wait");
    let timeout_s = take_parsed::<u64>(&mut args, "--timeout-s")?.unwrap_or(300);
    reject_leftovers(&args)?;

    if wait {
        if job.is_empty() {
            return Err(Failure::usage("--wait needs --job ID"));
        }
        let manifest = wait_terminal(&socket, &job, timeout_s)?;
        print_manifest(&manifest);
        return if manifest.state == "done" {
            Ok(0)
        } else {
            Err(Failure::run(format!(
                "job {job} finished in state `{}`",
                manifest.state
            )))
        };
    }

    let jobs = connect(&socket)?
        .status(&job)
        .map_err(|e| Failure::run(format!("status: {e}")))?;
    if jobs.is_empty() {
        println!("(no jobs)");
    }
    for (i, manifest) in jobs.iter().enumerate() {
        if i > 0 {
            println!();
        }
        print_manifest(manifest);
    }
    Ok(0)
}

/// `repro fetch --socket PATH --job ID [--out PATH]
/// [--verify-serial]` — locate (and optionally copy) the finished
/// job's result store; with `--verify-serial`, re-run the campaign
/// serially and require trace-level bit-identity.
fn run_fetch(mut args: Vec<String>) -> Result<i32, Failure> {
    let socket = require(take_value(&mut args, "--socket")?, "--socket PATH")?;
    let job = require(take_value(&mut args, "--job")?, "--job ID")?;
    let out = take_value(&mut args, "--out")?;
    let verify_serial = take_switch(&mut args, "--verify-serial");
    reject_leftovers(&args)?;

    let mut client = connect(&socket)?;
    let (path, info) = client
        .fetch(&job)
        .map_err(|e| Failure::run(format!("fetch: {e}")))?;
    println!("store      : {path}");
    println!("traces     : {}", info.traces);
    println!("records    : {}", info.records);
    println!("bytes      : {}", info.bytes);
    println!("spec hash  : {}", info.spec_hash);
    if let Some(out) = out {
        std::fs::copy(&path, &out)
            .map_err(|e| Failure::run(format!("cannot copy store to `{out}`: {e}")))?;
        println!("copied     : {out}");
    }

    if verify_serial {
        let manifests = client
            .status(&job)
            .map_err(|e| Failure::run(format!("status: {e}")))?;
        let manifest = manifests
            .first()
            .ok_or_else(|| Failure::run(format!("job {job} has no manifest")))?;
        let spec = manifest
            .spec
            .clone()
            .ok_or_else(|| Failure::run(format!("job {job} manifest carries no spec")))?;
        let mut serial = Vec::new();
        let reference = run_campaign_resumable(
            &spec,
            None,
            &CampaignOptions::default(),
            None,
            |_, outcome| serial.extend(outcome.into_trace()),
        )
        .map_err(|e| Failure::run(format!("serial reference run: {e}")))?;
        let reader = TraceStoreReader::open(Path::new(&path))
            .map_err(|e| Failure::run(format!("cannot open store `{path}`: {e}")))?;
        let merged = read_store(&reader);
        if merged != serial {
            return Err(Failure::run(format!(
                "store traces differ from the serial run ({} vs {} traces)",
                merged.len(),
                serial.len()
            )));
        }
        if reference.digest != manifest.digest {
            return Err(Failure::run(format!(
                "digest mismatch: service {} != serial {}",
                manifest.digest, reference.digest
            )));
        }
        println!(
            "verify     : {} traces bit-identical to the serial run",
            merged.len()
        );
    }
    Ok(0)
}

/// `repro cancel --socket PATH --job ID`.
fn run_cancel(mut args: Vec<String>) -> Result<i32, Failure> {
    let socket = require(take_value(&mut args, "--socket")?, "--socket PATH")?;
    let job = require(take_value(&mut args, "--job")?, "--job ID")?;
    reject_leftovers(&args)?;
    connect(&socket)?
        .cancel(&job)
        .map_err(|e| Failure::run(format!("cancel: {e}")))?;
    println!("cancelled  : {job}");
    Ok(0)
}

/// `repro shutdown --socket PATH`.
fn run_shutdown(mut args: Vec<String>) -> Result<i32, Failure> {
    let socket = require(take_value(&mut args, "--socket")?, "--socket PATH")?;
    reject_leftovers(&args)?;
    connect(&socket)?
        .shutdown()
        .map_err(|e| Failure::run(format!("shutdown: {e}")))?;
    println!("daemon asked to shut down");
    Ok(0)
}

/// `repro sweep-gate <report.json> [--min-ratio X]` — the CI
/// multi-core scaling gate over a `--sweep-workers` report.
fn run_sweep_gate(mut args: Vec<String>) -> Result<i32, Failure> {
    let min_ratio = take_parsed::<f64>(&mut args, "--min-ratio")?.unwrap_or(1.3);
    if args.len() != 1 {
        return Err(Failure::usage(
            "usage: repro sweep-gate <report.json> [--min-ratio X]",
        ));
    }
    let path = args.remove(0);
    let json = std::fs::read_to_string(&path)
        .map_err(|e| Failure::run(format!("cannot read `{path}`: {e}")))?;
    let report: CampaignBenchReport = serde_json::from_str(&json)
        .map_err(|e| Failure::run(format!("`{path}` is not a bench report: {e:?}")))?;
    match check_sweep_gate(&report, min_ratio) {
        Ok(msg) => {
            println!("{msg}");
            Ok(0)
        }
        Err(msg) => Err(Failure::run(msg)),
    }
}

fn wait_terminal(socket: &str, job: &str, timeout_s: u64) -> Result<JobManifest, Failure> {
    let deadline = Instant::now() + Duration::from_secs(timeout_s);
    loop {
        // Reconnect per poll: the daemon may be restarting underneath
        // us (that is exactly the resume scenario CI exercises).
        if let Ok(mut client) = Client::connect(Path::new(socket)) {
            if let Ok(jobs) = client.status(job) {
                if let Some(manifest) = jobs.first() {
                    if manifest.is_terminal() {
                        return Ok(manifest.clone());
                    }
                }
            }
        }
        if Instant::now() >= deadline {
            return Err(Failure::run(format!(
                "timed out after {timeout_s}s waiting for job {job}"
            )));
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

fn print_manifest(m: &JobManifest) {
    println!("job        : {}", m.job);
    println!("state      : {}", m.state);
    println!("cached     : {}", m.cached);
    println!("executed   : {}/{}", m.executed_jobs, m.total_jobs);
    println!("completed  : {}", m.completed_jobs);
    println!("failed     : {}", m.failed_jobs);
    println!("shards     : {}/{}", m.shards_done, m.shards);
    println!("digest     : {}", m.digest);
    if !m.detail.is_empty() {
        println!("detail     : {}", m.detail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::{Throughput, WorkerSweepPoint};

    fn strs(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| String::from(*s)).collect()
    }

    #[test]
    fn flag_extraction() {
        let mut args = strs(&["--socket", "/tmp/x.sock", "--wait", "--shards", "3"]);
        assert_eq!(
            take_value(&mut args, "--socket").unwrap().as_deref(),
            Some("/tmp/x.sock")
        );
        assert!(take_switch(&mut args, "--wait"));
        assert!(!take_switch(&mut args, "--wait"));
        assert_eq!(
            take_parsed::<usize>(&mut args, "--shards").unwrap(),
            Some(3)
        );
        assert!(reject_leftovers(&args).is_ok());

        let mut args = strs(&["--shards"]);
        assert!(take_value(&mut args, "--shards").is_err());
        let mut args = strs(&["--shards", "three"]);
        assert!(take_parsed::<usize>(&mut args, "--shards").is_err());
        assert!(reject_leftovers(&strs(&["--bogus"])).is_err());
    }

    #[test]
    fn spec_loading_applies_overrides() {
        let mut args = strs(&["--quick", "--steps", "20", "--bgs", "120,160"]);
        let spec = load_spec(&mut args).unwrap();
        assert_eq!(spec.steps, 20);
        assert_eq!(spec.initial_bgs, vec![120.0, 160.0]);
        assert!(args.is_empty());

        // Exactly one source is required.
        assert!(load_spec(&mut strs(&[])).is_err());
        assert!(load_spec(&mut strs(&["--quick", "--spec", "x.json"])).is_err());
    }

    #[test]
    fn sweep_gate_cli_reads_reports() {
        let point = |workers: usize, rps: f64| WorkerSweepPoint {
            workers,
            scalar: Throughput {
                secs: 1.0,
                runs_per_sec: rps,
                steps_per_sec: rps * 150.0,
            },
        };
        let report = CampaignBenchReport {
            sweep: vec![point(1, 1000.0), point(2, 1700.0)],
            ..CampaignBenchReport::default()
        };
        let dir = std::env::temp_dir().join(format!("apssg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        std::fs::write(&path, serde_json::to_string(&report).unwrap()).unwrap();
        let path = path.display().to_string();

        assert_eq!(run_sweep_gate(strs(&[&path])).unwrap(), 0);
        assert!(run_sweep_gate(strs(&[&path, "--min-ratio", "1.9"])).is_err());
        assert!(run_sweep_gate(strs(&["/nonexistent.json"])).is_err());
        assert!(run_sweep_gate(strs(&[])).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
