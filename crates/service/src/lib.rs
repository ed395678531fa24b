//! Campaign-as-a-service: a single-node asynchronous campaign
//! orchestrator over a local Unix socket.
//!
//! The daemon ([`daemon::run_daemon`], `repro serve`) accepts jobs
//! over the length-prefixed JSON protocol in [`wire`]
//! (`SubmitCampaign`/`Status`/`Subscribe`/`Cancel`/`Fetch`/
//! `Shutdown`); the existing `aps_sim` serde specs are the currency —
//! the protocol adds no second schema. Each submission is:
//!
//! 1. **content-addressed** — [`cache::cache_key`] over (spec hash,
//!    seed, code-version hash), the same fingerprints the tracestore
//!    header carries, fronts a result cache of `aps_tracestore`
//!    files: a resubmitted campaign returns cached traces with zero
//!    executor work;
//! 2. **sharded** — `aps_sim::shard::plan_shards` splits the grid
//!    into standalone sub-specs whose expansions concatenate to
//!    exactly the parent job list;
//! 3. **resumable** — every shard runs through the existing
//!    `run_campaign_resumable` with its versioned
//!    `CampaignCheckpoint` persisted per shard and a flushed-ahead
//!    result log, so a SIGKILLed daemon restarts, resumes every
//!    incomplete shard, and merges a result bit-identical to an
//!    uninterrupted serial run (pinned by tests and the CI
//!    `service-smoke` job).
//!
//! Durability: the job state on disk is consistent after a process
//! crash (SIGKILL at any write, including mid-append to a shard log or
//! checkpoint log); no fsync, so an OS crash may lose recent snapshots.
//! A shard whose log or checkpoint came back short or unreadable after
//! such a crash re-runs from scratch.
//!
//! The client half ([`client::Client`], `repro submit`/`status`/
//! `fetch`/`cancel`) speaks the same protocol.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::Path;

pub mod cache;
pub mod client;
pub mod daemon;
pub mod job;
pub mod wire;

pub use cache::{cache_key, CacheStats, ResultCache};
pub use client::Client;
pub use daemon::{run_daemon, ServiceConfig};
pub use job::JobManifest;
pub use wire::{Event, Request, Response, WireError, MAX_FRAME, PROTOCOL_VERSION};

/// Service-level failure (I/O, corrupt state, protocol errors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// Filesystem or socket I/O failed.
    Io {
        /// Path (or socket) involved.
        path: String,
        /// Rendered OS error.
        detail: String,
    },
    /// On-disk state failed to parse or is from a newer version.
    Corrupt {
        /// Offending file.
        path: String,
        /// What failed.
        detail: String,
    },
    /// A wire-protocol failure, wrapped for daemon/client callers.
    Wire(WireError),
    /// The peer reported an error response.
    Remote {
        /// Stable machine-readable error class.
        code: String,
        /// Human-readable explanation.
        detail: String,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Io { path, detail } => write!(f, "i/o error on {path}: {detail}"),
            ServiceError::Corrupt { path, detail } => {
                write!(f, "corrupt state in {path}: {detail}")
            }
            ServiceError::Wire(e) => write!(f, "{e}"),
            ServiceError::Remote { code, detail } => {
                write!(f, "service error [{code}]: {detail}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl ServiceError {
    /// `map_err` adapter: an [`Io`](Self::Io) error on `path`.
    pub(crate) fn io<E: std::fmt::Display>(path: &Path) -> impl Fn(E) -> ServiceError + '_ {
        move |e| ServiceError::Io {
            path: path.display().to_string(),
            detail: e.to_string(),
        }
    }

    /// `map_err` adapter: a [`Corrupt`](Self::Corrupt) error on `path`.
    pub(crate) fn corrupt<E: std::fmt::Display>(path: &Path) -> impl Fn(E) -> ServiceError + '_ {
        move |e| ServiceError::Corrupt {
            path: path.display().to_string(),
            detail: e.to_string(),
        }
    }
}

/// Writes `value` as JSON to `path` atomically: to `<path>.tmp`, then
/// a rename.
pub(crate) fn save_json<T: serde::Serialize>(value: &T, path: &Path) -> Result<(), ServiceError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let text = serde_json::to_string_pretty(value).map_err(ServiceError::corrupt(path))?;
    std::fs::write(&tmp, text).map_err(ServiceError::io(&tmp))?;
    std::fs::rename(&tmp, path).map_err(ServiceError::io(path))
}

impl From<WireError> for ServiceError {
    fn from(e: WireError) -> ServiceError {
        ServiceError::Wire(e)
    }
}
