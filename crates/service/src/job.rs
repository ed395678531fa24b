//! On-disk job state: the per-job manifest and the paths of each
//! shard's checkpoint and trace log.
//!
//! A job directory (`<data>/jobs/<id>/`) holds:
//!
//! * `manifest.json` — the versioned [`JobManifest`], replaced whole
//!   by a temp file and a rename, so a killed daemon always restarts
//!   from a coherent view;
//! * `shard-<k>.ckpt.json` — the existing versioned
//!   `CampaignCheckpoint` log for shard `k` (one snapshot per line),
//!   written by `run_campaign_resumable` itself (the service invents
//!   no new checkpoint format). Its last complete snapshot's `ledger`
//!   is the only record of the shard's failed jobs;
//! * `shard-<k>.log` — an append-only trace log in the trace store's
//!   own encoding (`aps_tracestore::TraceLogWriter`): the 32-byte
//!   store header, then one trace block per *completed* job in job
//!   order, with no footer. Each block reaches the OS from the
//!   emission sink *before* the checkpoint that covers it can be
//!   written, so the log always holds at least the checkpoint's
//!   completed count minus its ledgered failures. Resume cuts the log
//!   back to exactly that many blocks (`File::set_len`) and re-runs
//!   the remainder; merge walks the shard's job indices, folding a
//!   ledger entry for each failed index and the next block for every
//!   other, so the merged result is bit-identical to an
//!   uninterrupted run.

use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

use crate::ServiceError;
use aps_sim::campaign::CampaignSpec;

/// Manifest schema version.
pub const MANIFEST_VERSION: u32 = 1;

/// Queued, waiting for the scheduler.
pub const STATE_QUEUED: &str = "queued";
/// Claimed by the scheduler (also the on-disk state of a job whose
/// daemon was killed — the restart rescan re-queues it).
pub const STATE_RUNNING: &str = "running";
/// All shards complete, results merged.
pub const STATE_DONE: &str = "done";
/// An internal error stopped the job (detail in the manifest).
pub const STATE_FAILED: &str = "failed";
/// Cancelled by request; terminal.
pub const STATE_CANCELLED: &str = "cancelled";

/// Serde view of one job, persisted as `manifest.json` and returned
/// verbatim by `Status`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct JobManifest {
    /// Manifest schema version ([`MANIFEST_VERSION`]).
    pub version: u32,
    /// Job id: hex content-address of (spec hash, seed, code hash).
    pub job: String,
    /// The submitted campaign spec (absent only in corrupt files).
    pub spec: Option<CampaignSpec>,
    /// Campaign spec fingerprint (hex u64).
    pub spec_hash: String,
    /// Seed lane of the cache key (hex u64).
    pub seed: String,
    /// Requested shard count.
    pub shards: usize,
    /// Scheduling priority (higher first).
    pub priority: u32,
    /// Lifecycle state: one of the `STATE_*` constants.
    pub state: String,
    /// `true` when the result came from the content-addressed cache
    /// with zero executor work.
    pub cached: bool,
    /// Total jobs in the campaign grid.
    pub total_jobs: usize,
    /// Jobs actually executed for this submission. A cache hit adds
    /// none. A restarted daemon keeps counting from the value in the
    /// last manifest save, so after a SIGKILL the jobs run since that
    /// save are missing from the count.
    pub executed_jobs: usize,
    /// Completed jobs across all merged shards.
    pub completed_jobs: usize,
    /// Failed jobs across all merged shards.
    pub failed_jobs: usize,
    /// Shards that have fully completed.
    pub shards_done: usize,
    /// Campaign digest (hex u64) once terminal; byte-equal to the
    /// uninterrupted serial run's digest.
    pub digest: String,
    /// Human-readable detail for `failed` / `cancelled`.
    pub detail: String,
}

impl JobManifest {
    /// Directory of this job under `jobs_dir`.
    pub fn dir(jobs_dir: &Path, job: &str) -> PathBuf {
        jobs_dir.join(job)
    }

    /// Path of shard `k`'s checkpoint file.
    pub fn ckpt_path(dir: &Path, shard: usize) -> PathBuf {
        dir.join(format!("shard-{shard}.ckpt.json"))
    }

    /// Path of shard `k`'s trace log.
    pub fn log_path(dir: &Path, shard: usize) -> PathBuf {
        dir.join(format!("shard-{shard}.log"))
    }

    /// Loads a manifest from `dir/manifest.json`.
    pub fn load(dir: &Path) -> Result<JobManifest, ServiceError> {
        let path = dir.join("manifest.json");
        let text = std::fs::read_to_string(&path).map_err(ServiceError::io(&path))?;
        let manifest: JobManifest =
            serde_json::from_str(&text).map_err(ServiceError::corrupt(&path))?;
        if manifest.version > MANIFEST_VERSION {
            return Err(ServiceError::Corrupt {
                path: path.display().to_string(),
                detail: format!(
                    "manifest version {} newer than supported {MANIFEST_VERSION}",
                    manifest.version
                ),
            });
        }
        Ok(manifest)
    }

    /// Atomically writes the manifest to `dir/manifest.json`
    /// (tmp + rename).
    pub fn save(&self, dir: &Path) -> Result<(), ServiceError> {
        std::fs::create_dir_all(dir).map_err(ServiceError::io(dir))?;
        crate::save_json(self, &dir.join("manifest.json"))
    }

    /// `true` for `done`/`failed`/`cancelled`.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self.state.as_str(),
            STATE_DONE | STATE_FAILED | STATE_CANCELLED
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trips_atomically() {
        let dir = std::env::temp_dir().join("aps_service_job_test");
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = JobManifest {
            version: MANIFEST_VERSION,
            job: String::from("00000000deadbeef"),
            spec_hash: String::from("00000000deadbeef"),
            seed: String::from("0"),
            shards: 3,
            priority: 1,
            state: String::from(STATE_QUEUED),
            total_jobs: 62,
            ..JobManifest::default()
        };
        manifest.save(&dir).unwrap();
        let back = JobManifest::load(&dir).unwrap();
        assert_eq!(back, manifest);
        assert!(!dir.join("manifest.json.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn future_manifest_version_is_rejected() {
        let dir = std::env::temp_dir().join("aps_service_job_test_v");
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = JobManifest {
            version: MANIFEST_VERSION + 1,
            ..JobManifest::default()
        };
        manifest.save(&dir).unwrap();
        assert!(matches!(
            JobManifest::load(&dir),
            Err(ServiceError::Corrupt { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
