//! Fault-tolerant campaign execution: chaos, ledger, checkpoint,
//! resume.
//!
//! Runs a small campaign under deterministic chaos injection (seeded
//! worker panics, delays, poisoned specs) with retries and periodic
//! checkpoints, then "crashes" halfway (cooperative cancel), resumes
//! from the snapshot, and shows that the stitched-together run is
//! bit-identical to an uninterrupted one.
//!
//! ```text
//! cargo run --release --example resumable_campaign
//! ```

use aps_repro::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn main() {
    // Chaos-injected panics are expected; don't let the default hook
    // spray backtraces for them (real panics still report).
    aps_repro::sim::chaos::silence_injected_panics();
    let spec = CampaignSpec {
        patient_indices: vec![0, 1],
        initial_bgs: vec![120.0],
        steps: 60,
        ..CampaignSpec::quick(Platform::GlucosymOref0)
    };
    let ckpt_path = std::env::temp_dir().join("resumable_campaign_ckpt.json");
    let options = CampaignOptions {
        // Two attempts per job: transient chaos clears on retry.
        retry: RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        },
        // Deterministic executor-fault injection; same seed, same ledger.
        chaos: Some(ChaosConfig {
            max_delay_ms: 1,
            ..ChaosConfig::with_seed(9)
        }),
        checkpoint: Some(CheckpointPolicy {
            path: ckpt_path.clone(),
            every_jobs: 10,
        }),
        ..CampaignOptions::default()
    };

    // Reference: the same campaign, uninterrupted.
    let reference =
        run_campaign_resumable(&spec, None, &options, None, |_, _| {}).expect("temp dir writable");
    println!(
        "uninterrupted: {} jobs, {} completed, {} failed (ledger below), digest {}",
        reference.total_jobs, reference.completed_jobs, reference.failed_jobs, reference.digest,
    );
    for e in &reference.ledger.entries {
        println!(
            "  ledger: job {} ({}) after {} attempts: {}",
            e.job_index, e.fault_name, e.attempts, e.error
        );
    }

    // "Crash" after 15 emitted jobs: cancel cooperatively; the last
    // checkpoint (and a final snapshot) stay on disk.
    let cancel = Arc::new(AtomicBool::new(false));
    let crashing = CampaignOptions {
        cancel: Some(Arc::clone(&cancel)),
        ..options.clone()
    };
    let mut emitted = 0usize;
    let partial = run_campaign_resumable(&spec, None, &crashing, None, |_i, _outcome| {
        emitted += 1;
        if emitted == 15 {
            cancel.store(true, Ordering::Release);
        }
    })
    .expect("temp dir writable");
    println!(
        "\n'crashed' run: cancelled={} after {} of {} jobs",
        partial.cancelled,
        partial.completed_jobs + partial.failed_jobs,
        partial.total_jobs
    );

    // Resume: completed jobs are skipped, the rest run, and the final
    // report is bit-identical to the uninterrupted reference.
    let snapshot = CampaignCheckpoint::load(&ckpt_path).expect("snapshot written");
    let resumed = run_campaign_resumable(&spec, None, &options, Some(&snapshot), |_i, _outcome| {})
        .expect("snapshot matches spec and chaos seed");
    println!(
        "resumed      : skipped {} already-done jobs, finished the rest",
        resumed.skipped_resumed
    );
    println!(
        "bit-identical: digest {} == {} -> {}",
        resumed.digest,
        reference.digest,
        resumed.digest == reference.digest
    );
    assert_eq!(resumed.digest, reference.digest);
    assert_eq!(resumed.ledger, reference.ledger);

    let _ = std::fs::remove_file(&ckpt_path);
}
