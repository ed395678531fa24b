//! Fault-tolerant campaign mode of `repro bench-campaign`.
//!
//! Plain `bench-campaign` measures throughput; adding any of the
//! fault-tolerance flags (`--chaos-seed`, `--retry`, `--backoff-ms`,
//! `--deadline-ms`, `--checkpoint`, `--checkpoint-every`, `--resume`,
//! `--workers`) switches it to the hardened executor
//! ([`aps_sim::campaign::run_campaign_resumable`]): run the campaign,
//! survive job failures into the error ledger, optionally snapshot a
//! [`CampaignCheckpoint`] every N jobs, and resume from one. The
//! process exits 0 whenever the campaign itself ran to completion —
//! failed *jobs* are graceful degradation, reported via the ledger,
//! not a process failure.

use crate::opts::ExpOpts;
use aps_sim::campaign::{
    run_campaign_resumable, CampaignOptions, CampaignReport, CheckpointPolicy, WorkerSource,
};
use aps_sim::chaos::ChaosConfig;
use aps_sim::checkpoint::CampaignCheckpoint;
use aps_sim::outcome::{Backoff, RetryPolicy};
use aps_sim::platform::Platform;
use std::path::PathBuf;
use std::time::Duration;

/// Parsed fault-tolerance flags for `bench-campaign`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FtFlags {
    /// `--chaos-seed N`: run under deterministic chaos injection.
    pub chaos_seed: Option<u64>,
    /// `--retry N`: attempts per job (≥ 1).
    pub retry: Option<u32>,
    /// `--backoff-ms N`: base backoff between attempts.
    pub backoff_ms: Option<u64>,
    /// `--deadline-ms N`: per-job wall-clock budget.
    pub deadline_ms: Option<u64>,
    /// `--checkpoint PATH`: snapshot file.
    pub checkpoint: Option<String>,
    /// `--checkpoint-every N`: snapshot cadence (jobs).
    pub checkpoint_every: Option<usize>,
    /// `--resume PATH`: checkpoint to continue from.
    pub resume: Option<String>,
    /// `--workers N`: explicit worker count (≥ 1).
    pub workers: Option<usize>,
}

impl FtFlags {
    /// Removes every fault-tolerance flag from `args`, validating
    /// values as it goes. Returns `None` when no such flag was
    /// present (plain throughput-benchmark mode).
    ///
    /// # Errors
    ///
    /// A message for a missing value, a non-numeric value, or a
    /// zero where at least one is required (`--retry`, `--workers`,
    /// `--checkpoint-every`).
    pub fn extract(args: &mut Vec<String>) -> Result<Option<FtFlags>, String> {
        let mut flags = FtFlags::default();
        let mut any = false;
        let take = |args: &mut Vec<String>, name: &str| -> Result<String, String> {
            let pos = match args.iter().position(|a| a == name) {
                Some(p) => p,
                None => return Err(String::new()), // sentinel: flag absent
            };
            if pos + 1 >= args.len() {
                return Err(format!("missing value for {name}"));
            }
            let value = args.remove(pos + 1);
            args.remove(pos);
            Ok(value)
        };
        // Each pass removes the first copy of each flag, so a repeated
        // flag's later value overwrites the earlier one: scan until a
        // pass removes nothing, and the last value wins.
        fn parse_num<T: std::str::FromStr>(name: &str, raw: &str) -> Result<T, String>
        where
            T::Err: std::fmt::Display,
        {
            raw.parse::<T>().map_err(|e| format!("{name}: {e}"))
        }
        loop {
            let before = args.len();
            match take(args, "--chaos-seed") {
                Ok(v) => {
                    flags.chaos_seed = Some(parse_num("--chaos-seed", &v)?);
                    any = true;
                }
                Err(e) if !e.is_empty() => return Err(e),
                Err(_) => {}
            }
            match take(args, "--retry") {
                Ok(v) => {
                    let n: u32 = parse_num("--retry", &v)?;
                    if n == 0 {
                        return Err("--retry must be at least 1".to_owned());
                    }
                    flags.retry = Some(n);
                    any = true;
                }
                Err(e) if !e.is_empty() => return Err(e),
                Err(_) => {}
            }
            match take(args, "--backoff-ms") {
                Ok(v) => {
                    flags.backoff_ms = Some(parse_num("--backoff-ms", &v)?);
                    any = true;
                }
                Err(e) if !e.is_empty() => return Err(e),
                Err(_) => {}
            }
            match take(args, "--deadline-ms") {
                Ok(v) => {
                    flags.deadline_ms = Some(parse_num("--deadline-ms", &v)?);
                    any = true;
                }
                Err(e) if !e.is_empty() => return Err(e),
                Err(_) => {}
            }
            match take(args, "--checkpoint") {
                Ok(v) => {
                    flags.checkpoint = Some(v);
                    any = true;
                }
                Err(e) if !e.is_empty() => return Err(e),
                Err(_) => {}
            }
            match take(args, "--checkpoint-every") {
                Ok(v) => {
                    let n: usize = parse_num("--checkpoint-every", &v)?;
                    if n == 0 {
                        return Err("--checkpoint-every must be at least 1".to_owned());
                    }
                    flags.checkpoint_every = Some(n);
                    any = true;
                }
                Err(e) if !e.is_empty() => return Err(e),
                Err(_) => {}
            }
            match take(args, "--resume") {
                Ok(v) => {
                    flags.resume = Some(v);
                    any = true;
                }
                Err(e) if !e.is_empty() => return Err(e),
                Err(_) => {}
            }
            match take(args, "--workers") {
                Ok(v) => {
                    let n: usize = parse_num("--workers", &v)?;
                    if n == 0 {
                        return Err("--workers must be at least 1".to_owned());
                    }
                    flags.workers = Some(n);
                    any = true;
                }
                Err(e) if !e.is_empty() => return Err(e),
                Err(_) => {}
            }
            if args.len() == before {
                break;
            }
        }
        if flags.checkpoint_every.is_some() && flags.checkpoint.is_none() {
            return Err("--checkpoint-every requires --checkpoint PATH".to_owned());
        }
        Ok(any.then_some(flags))
    }
}

fn describe_source(source: &WorkerSource) -> String {
    match source {
        WorkerSource::Detected => "detected".to_owned(),
        WorkerSource::Env => "APS_WORKERS".to_owned(),
        WorkerSource::Override => "--workers".to_owned(),
        WorkerSource::InvalidEnv { raw } => {
            format!("detected; ignored invalid APS_WORKERS={raw:?}")
        }
        WorkerSource::DetectFailed { detail } => {
            format!("fallback to 1 worker: {detail}")
        }
    }
}

fn print_report(report: &CampaignReport) {
    println!("total jobs : {}", report.total_jobs);
    println!("resumed    : {} already done", report.skipped_resumed);
    println!("completed  : {}", report.completed_jobs);
    println!("failed     : {}", report.failed_jobs);
    println!("hazardous  : {}", report.hazardous_jobs);
    println!(
        "workers    : {} ({})",
        report.workers,
        describe_source(&report.worker_source)
    );
    println!("digest     : {}", report.digest);
    if report.cancelled {
        println!("cancelled  : yes (partial campaign)");
    }
    if report.ledger.is_empty() {
        println!("ledger     : empty");
    } else {
        println!("ledger     : {} entries", report.ledger.len());
        for e in &report.ledger.entries {
            println!(
                "  job {:>4}  patient {} bg {:>5.1} {:<24} attempts {}: {}",
                e.job_index,
                e.patient_idx,
                e.initial_bg,
                if e.fault_name.is_empty() {
                    "(fault-free)"
                } else {
                    &e.fault_name
                },
                e.attempts,
                e.error
            );
        }
    }
}

/// Runs `bench-campaign` in fault-tolerant mode and returns the
/// process exit code: 0 when the campaign ran (failed jobs included —
/// they are ledger entries, not process failures), 1 on a hard error
/// (unreadable/mismatched checkpoint, snapshot write failure).
pub fn run_ft_campaign(opts: &ExpOpts, flags: &FtFlags) -> i32 {
    let spec = opts.campaign(Platform::GlucosymOref0);
    let mut options = CampaignOptions {
        retry: RetryPolicy {
            max_attempts: flags.retry.unwrap_or(1),
            backoff: Backoff {
                base_ms: flags.backoff_ms.unwrap_or(0),
                ..Backoff::default()
            },
        },
        deadline: flags.deadline_ms.map(Duration::from_millis),
        chaos: flags.chaos_seed.map(ChaosConfig::with_seed),
        workers: flags.workers,
        checkpoint: flags.checkpoint.as_ref().map(|path| CheckpointPolicy {
            path: PathBuf::from(path),
            every_jobs: flags.checkpoint_every.unwrap_or(10),
        }),
        cancel: None,
    };
    // Resuming without an explicit snapshot target keeps checkpointing
    // to the same file, so repeated kill/resume cycles make progress.
    if options.checkpoint.is_none() {
        if let Some(path) = &flags.resume {
            options.checkpoint = Some(CheckpointPolicy {
                path: PathBuf::from(path),
                every_jobs: flags.checkpoint_every.unwrap_or(10),
            });
        }
    }
    let resume = match &flags.resume {
        Some(path) => match CampaignCheckpoint::load(std::path::Path::new(path)) {
            Ok(ckpt) => Some(ckpt),
            Err(e) => {
                eprintln!("error: cannot resume from `{path}`: {e}");
                return 1;
            }
        },
        None => None,
    };
    if let Some(seed) = flags.chaos_seed {
        // Injected panics are part of the schedule; keep them out of
        // stderr (real panics still report through the previous hook).
        aps_sim::chaos::silence_injected_panics();
        println!("chaos      : seed {seed} (panics + delays + poisoned specs)");
    }
    match run_campaign_resumable(&spec, None, &options, resume.as_ref(), |_, _| {}) {
        Ok(report) => {
            print_report(&report);
            if let Some(policy) = &options.checkpoint {
                println!("checkpoint : {}", policy.path.display());
            }
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| (*x).to_owned()).collect()
    }

    #[test]
    fn extract_returns_none_without_ft_flags() {
        let mut a = args(&["--quick", "--steps", "40"]);
        assert_eq!(FtFlags::extract(&mut a).unwrap(), None);
        assert_eq!(a, args(&["--quick", "--steps", "40"]));
    }

    #[test]
    fn extract_removes_only_ft_flags() {
        let mut a = args(&[
            "--quick",
            "--chaos-seed",
            "7",
            "--retry",
            "2",
            "--checkpoint",
            "ck.json",
            "--checkpoint-every",
            "5",
            "--steps",
            "40",
        ]);
        let flags = FtFlags::extract(&mut a).unwrap().unwrap();
        assert_eq!(flags.chaos_seed, Some(7));
        assert_eq!(flags.retry, Some(2));
        assert_eq!(flags.checkpoint.as_deref(), Some("ck.json"));
        assert_eq!(flags.checkpoint_every, Some(5));
        assert_eq!(a, args(&["--quick", "--steps", "40"]));
    }

    #[test]
    fn extract_removes_every_copy_of_a_repeated_flag() {
        let mut a = args(&["--quick", "--retry", "2", "--retry", "3", "--retry", "4"]);
        let flags = FtFlags::extract(&mut a).unwrap().unwrap();
        assert_eq!(flags.retry, Some(4));
        assert_eq!(a, args(&["--quick"]));
    }

    #[test]
    fn extract_validates_values() {
        assert!(FtFlags::extract(&mut args(&["--retry", "0"])).is_err());
        assert!(FtFlags::extract(&mut args(&["--workers", "0"])).is_err());
        assert!(FtFlags::extract(&mut args(&["--workers", "many"])).is_err());
        assert!(FtFlags::extract(&mut args(&["--chaos-seed"])).is_err());
        assert!(FtFlags::extract(&mut args(&["--checkpoint-every", "4"])).is_err());
    }
}
