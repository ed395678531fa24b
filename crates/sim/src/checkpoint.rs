//! Versioned campaign checkpoints for kill/resume.
//!
//! A [`CampaignCheckpoint`] captures everything a campaign needs to
//! continue after its process dies: which jobs are done (a bitmap),
//! which failed (the [`ErrorLedger`]), and the aggregate partials —
//! including a rolling digest of every emitted trace, which is what
//! makes resume *provably* bit-identical to an uninterrupted run (the
//! kill-at-every-checkpoint equivalence test compares final digests).
//!
//! The digest runs on the executor's single emit thread, once per
//! emitted trace, so it is a per-record cost of every campaign, not
//! a free one: the byte-serial FNV-1a fold of format v1 cost about a
//! quarter of a simulated T1DS cycle per record. Format v2 folds each
//! record as six 64-bit words through a bijective multiply-rotate mix
//! (see [`trace_digest`]), about 16 ns per record. A v1 checkpoint
//! carries a digest from the old byte-wise scheme, which the
//! word-wise one cannot continue: it still loads, but
//! [`CampaignCheckpoint::validate_for`] refuses to resume it, so a
//! digest never mixes the two schemes.
//!
//! The checkpoint file is an append-only log of snapshots, each one
//! line of compact versioned serde JSON (the writer escapes every
//! newline inside a string). A running campaign keeps the file open
//! and appends each snapshot with one `write_all`. Its first save, and
//! any save that would take the log past [`MAX_LOG_SNAPSHOTS`]
//! snapshots, rewrites the file instead: a temp file holding the one
//! snapshot, renamed over the log. So the file stays bounded, and its
//! first line is never torn. [`CampaignCheckpoint::load`] reads the
//! last newline-terminated line and ignores a torn tail.
//!
//! Durability: the file is consistent after a process crash (SIGKILL
//! at any write, including mid-append): a resume starts from the last
//! complete snapshot. Nothing calls fsync, so an OS crash may lose
//! recent snapshots. A checkpoint written before the log format is one
//! JSON object with no line ending; it reads as "no complete snapshot".
//!
//! The container carries `#[serde(default)]` so a checkpoint written
//! by an older build that lacks newer fields still loads.
//!
//! Numeric caveat: the vendored serde shim routes all numbers through
//! `f64`, which is exact only below 2^53 — so the 64-bit spec hash,
//! trace digest, and chaos seed are stored as hex *strings*, and the
//! completed-job bitmap as 32-bit words.

use crate::outcome::ErrorLedger;
use aps_types::{ControlAction, Hazard, SimTrace};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Current checkpoint format version. Version 2 introduced the
/// word-wise [`trace_digest`].
pub const CHECKPOINT_VERSION: u32 = 2;

/// Snapshots a checkpoint log holds at most: the save that would add
/// one more rewrites the file with that snapshot alone.
pub const MAX_LOG_SNAPSHOTS: usize = 64;

/// Oldest version whose rolling digest the current [`trace_digest`]
/// can continue.
const WORD_DIGEST_VERSION: u32 = 2;

/// Why a checkpoint could not be written, read, or used.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// Filesystem or serialization failure.
    Io {
        /// The checkpoint path.
        path: String,
        /// What went wrong.
        detail: String,
    },
    /// The file's format version is newer than this build supports.
    Version {
        /// Version found in the file.
        found: u32,
        /// Highest version this build reads.
        supported: u32,
    },
    /// The checkpoint does not belong to the campaign being resumed
    /// (different spec, chaos seed, or job count).
    Mismatch {
        /// Human-readable description of the disagreement.
        detail: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, detail } => {
                write!(f, "checkpoint I/O error at `{path}`: {detail}")
            }
            CheckpointError::Version { found, supported } => write!(
                f,
                "checkpoint format version {found} is newer than the supported version {supported}"
            ),
            CheckpointError::Mismatch { detail } => {
                write!(f, "checkpoint does not match this campaign: {detail}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// FNV-1a over a byte slice, continuing from `acc`.
fn fnv1a(mut acc: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        acc ^= u64::from(b);
        acc = acc.wrapping_mul(0x0000_0100_0000_01B3);
    }
    acc
}

/// FNV-1a offset basis — the seed for every rolling digest here.
pub const DIGEST_SEED: u64 = 0xCBF2_9CE4_8422_2325;

/// Folds one `u64` into a rolling FNV-1a accumulator.
fn fold_u64(acc: u64, x: u64) -> u64 {
    fnv1a(acc, &x.to_le_bytes())
}

/// Folds a string into a rolling FNV-1a accumulator.
fn fold_str(acc: u64, s: &str) -> u64 {
    fnv1a(fnv1a(acc, s.as_bytes()), &[0xFF])
}

/// Folds one 64-bit word into a rolling accumulator: xor, multiply by
/// an odd constant, rotate. Each of the three steps is a bijection of
/// `acc` for a fixed `x`, so two word sequences that differ in exactly
/// one word always end in different accumulators.
#[inline]
fn mix(acc: u64, x: u64) -> u64 {
    (acc ^ x)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(29)
}

/// Stable digest code of a control action. Explicit values, not
/// discriminant casts, so reordering the enum cannot silently change
/// every stored digest.
fn action_code(action: ControlAction) -> u64 {
    match action {
        ControlAction::DecreaseInsulin => 1,
        ControlAction::IncreaseInsulin => 2,
        ControlAction::StopInsulin => 3,
        ControlAction::KeepInsulin => 4,
    }
}

/// Stable digest code of an optional hazard (`None` is 0).
fn hazard_code(hazard: Option<Hazard>) -> u64 {
    match hazard {
        None => 0,
        Some(Hazard::H1) => 1,
        Some(Hazard::H2) => 2,
    }
}

/// 64-bit content hash of anything serde-serializable (FNV-1a over
/// its canonical JSON). Used to bind a checkpoint to its
/// [`CampaignSpec`](crate::campaign::CampaignSpec).
pub fn spec_hash<T: Serialize>(value: &T) -> u64 {
    let json = serde_json::to_string(value).unwrap_or_default();
    fnv1a(DIGEST_SEED, json.as_bytes())
}

/// Per-trace content digest: the trace identity, every per-cycle
/// column (exact f64 bits), and every monitor track. Two traces with
/// equal digests at every job index witness a bit-identical campaign.
///
/// Layout (checkpoint format v2):
///
/// * `meta.patient` and `meta.fault_name` as FNV-1a strings, then
///   `meta.initial_bg`'s bits through FNV-1a;
/// * per record, six words through the word mix: one tag word
///   `step | action << 32 | fault_active << 40 | hazard << 48 |
///   alert << 56`, then the bits of `bg`, `bg_true`, `iob`,
///   `commanded` and `delivered`. The action codes are
///   Decrease/Increase/Stop/Keep → 1/2/3/4; the hazard and alert
///   codes are `None`/H1/H2 → 0/1/2;
/// * per monitor track, its name as an FNV-1a string and one code
///   word per alert through the word mix.
///
/// The word mix is `(acc ^ x) * 0x9E37_79B9_7F4A_7C15`, rotated left
/// by 29. Every step is a bijection of the accumulator, so changing
/// any single field always changes the digest.
///
/// Cost, timed on a 150-record trace with one monitor track on a
/// 2-core x86-64-v3 host: about 16 ns per record, against about
/// 120 ns for the v1 fold (FNV-1a over ~75 bytes plus three `Display`
/// calls per record). Allocation-free (pinned by `lint.toml`'s
/// `deny_alloc`).
pub fn trace_digest(trace: &SimTrace) -> u64 {
    let mut acc = DIGEST_SEED;
    acc = fold_str(acc, &trace.meta.patient);
    acc = fold_str(acc, &trace.meta.fault_name);
    acc = fold_u64(acc, trace.meta.initial_bg.to_bits());
    for r in trace.iter() {
        let tag = u64::from(r.step.0)
            | action_code(r.action) << 32
            | u64::from(r.fault_active) << 40
            | hazard_code(r.hazard) << 48
            | hazard_code(r.alert) << 56;
        acc = mix(acc, tag);
        acc = mix(acc, r.bg.value().to_bits());
        acc = mix(acc, r.bg_true.value().to_bits());
        acc = mix(acc, r.iob.value().to_bits());
        acc = mix(acc, r.commanded.value().to_bits());
        acc = mix(acc, r.delivered.value().to_bits());
    }
    for track in &trace.monitor_tracks {
        acc = fold_str(acc, &track.monitor);
        for &a in &track.alerts {
            acc = mix(acc, hazard_code(a));
        }
    }
    acc
}

/// Fixed-width lowercase hex for `u64`s (shim-safe storage), shared
/// with the trace store.
pub use aps_tracestore::{from_hex, to_hex};

/// Completed-job set as packed 32-bit words (32-bit, not 64-bit,
/// because the vendored serde shim stores numbers as `f64`, exact
/// only below 2^53).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(default)]
pub struct JobBitmap {
    /// Packed bits, little-endian within each word.
    pub words: Vec<u32>,
    /// Number of addressable jobs.
    pub len: usize,
}

impl JobBitmap {
    /// An all-clear bitmap for `len` jobs.
    pub fn new(len: usize) -> JobBitmap {
        JobBitmap {
            words: vec![0; len.div_ceil(32)],
            len,
        }
    }

    /// Marks job `i` completed.
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "job index {i} out of range ({})", self.len);
        self.words[i / 32] |= 1 << (i % 32);
    }

    /// Whether job `i` is completed.
    pub fn get(&self, i: usize) -> bool {
        i < self.len && (self.words[i / 32] >> (i % 32)) & 1 == 1
    }

    /// Number of completed jobs.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Aggregate statistics accumulated so far, continued on resume.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default)]
pub struct AggregatePartials {
    /// Jobs that produced a trace.
    pub completed_jobs: usize,
    /// Jobs that exhausted their attempts and failed.
    pub failed_jobs: usize,
    /// Completed jobs whose trace contains a labeled hazard.
    pub hazardous_jobs: usize,
    /// Rolling digest over every emitted outcome, in job order, as
    /// hex (see [`trace_digest`]).
    pub digest: String,
}

impl Default for AggregatePartials {
    fn default() -> AggregatePartials {
        AggregatePartials {
            completed_jobs: 0,
            failed_jobs: 0,
            hazardous_jobs: 0,
            digest: to_hex(DIGEST_SEED),
        }
    }
}

impl AggregatePartials {
    /// Folds one completed trace into the partials.
    pub fn fold_completed(&mut self, trace: &SimTrace) {
        self.completed_jobs += 1;
        if trace.is_hazardous() {
            self.hazardous_jobs += 1;
        }
        let acc = from_hex(&self.digest).unwrap_or(DIGEST_SEED);
        self.digest = to_hex(fold_u64(acc, trace_digest(trace)));
    }

    /// Folds one failed job into the partials (the error's rendered
    /// message keeps the digest sensitive to failure causes).
    pub fn fold_failed(&mut self, error_message: &str, attempts: u32) {
        self.failed_jobs += 1;
        let acc = from_hex(&self.digest).unwrap_or(DIGEST_SEED);
        self.digest = to_hex(fold_u64(fold_str(acc, error_message), u64::from(attempts)));
    }
}

/// Versioned snapshot of a campaign in flight.
///
/// The container carries `#[serde(default)]`: fields added in future
/// versions deserialize to their defaults when absent, so old
/// checkpoints keep loading (forward compatibility is pinned by
/// `tests/checkpoint_roundtrip.rs`).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(default)]
pub struct CampaignCheckpoint {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Hex [`spec_hash`] of the campaign spec this belongs to.
    pub spec_hash: String,
    /// Hex chaos seed, if the run had chaos injection (`None`
    /// otherwise); a resume must use the same chaos schedule.
    pub chaos_seed: Option<String>,
    /// Total jobs in the campaign's deterministic order.
    pub total_jobs: usize,
    /// Which jobs are already done (completed *or* deterministically
    /// failed — both are final).
    pub completed: JobBitmap,
    /// Failures so far, in job order.
    pub ledger: ErrorLedger,
    /// Aggregates so far.
    pub partials: AggregatePartials,
}

impl CampaignCheckpoint {
    /// A fresh checkpoint for a campaign of `total_jobs` jobs.
    pub fn fresh(spec_hash_hex: String, chaos_seed: Option<u64>, total_jobs: usize) -> Self {
        CampaignCheckpoint {
            version: CHECKPOINT_VERSION,
            spec_hash: spec_hash_hex,
            chaos_seed: chaos_seed.map(to_hex),
            total_jobs,
            completed: JobBitmap::new(total_jobs),
            ledger: ErrorLedger::new(),
            partials: AggregatePartials::default(),
        }
    }

    /// Replaces the checkpoint file with a log holding this one
    /// snapshot (temp file in the same directory, then rename), so a
    /// crash mid-write never leaves a torn checkpoint behind.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on any filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        CheckpointLog::new(path).save(self)
    }

    /// Loads and version-checks the last complete snapshot of a
    /// checkpoint log.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] for unreadable files, files without a
    /// complete snapshot line, and unparsable snapshots;
    /// [`CheckpointError::Version`] for files written by a newer
    /// format.
    pub fn load(path: &Path) -> Result<CampaignCheckpoint, CheckpointError> {
        let io_err = |detail: String| CheckpointError::Io {
            path: path.display().to_string(),
            detail,
        };
        let bytes = std::fs::read(path).map_err(|e| io_err(e.to_string()))?;
        // Only newline-terminated lines are complete; a torn append
        // leaves a tail without one, which is ignored.
        let complete = match bytes.iter().rposition(|&b| b == b'\n') {
            Some(end) => &bytes[..end],
            None => return Err(io_err(String::from("no complete snapshot line"))),
        };
        let last = complete.rsplit(|&b| b == b'\n').next().unwrap_or_default();
        let json = std::str::from_utf8(last).map_err(|e| io_err(e.to_string()))?;
        let ckpt: CampaignCheckpoint =
            serde_json::from_str(json).map_err(|e| io_err(format!("{e:?}")))?;
        if ckpt.version > CHECKPOINT_VERSION {
            return Err(CheckpointError::Version {
                found: ckpt.version,
                supported: CHECKPOINT_VERSION,
            });
        }
        Ok(ckpt)
    }

    /// Checks that this checkpoint belongs to the campaign described
    /// by (`spec_hash_hex`, `chaos_seed`, `total_jobs`) and that its
    /// rolling digest uses the current word-wise scheme.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Mismatch`] naming the first disagreement; a
    /// pre-v2 checkpoint is always a mismatch.
    pub fn validate_for(
        &self,
        spec_hash_hex: &str,
        chaos_seed: Option<u64>,
        total_jobs: usize,
    ) -> Result<(), CheckpointError> {
        if self.version < WORD_DIGEST_VERSION {
            return Err(CheckpointError::Mismatch {
                detail: format!(
                    "format version {} predates the word-wise trace digest of version {}; \
                     its rolling digest cannot be continued",
                    self.version, WORD_DIGEST_VERSION
                ),
            });
        }
        if self.spec_hash != spec_hash_hex {
            return Err(CheckpointError::Mismatch {
                detail: format!(
                    "spec hash {} in checkpoint, campaign has {}",
                    self.spec_hash, spec_hash_hex
                ),
            });
        }
        let seed_hex = chaos_seed.map(to_hex);
        if self.chaos_seed != seed_hex {
            return Err(CheckpointError::Mismatch {
                detail: format!(
                    "chaos seed {:?} in checkpoint, campaign has {:?}",
                    self.chaos_seed, seed_hex
                ),
            });
        }
        if self.total_jobs != total_jobs {
            return Err(CheckpointError::Mismatch {
                detail: format!(
                    "{} total jobs in checkpoint, campaign has {}",
                    self.total_jobs, total_jobs
                ),
            });
        }
        if self.completed.len != total_jobs {
            return Err(CheckpointError::Mismatch {
                detail: format!(
                    "bitmap addresses {} jobs, campaign has {}",
                    self.completed.len, total_jobs
                ),
            });
        }
        Ok(())
    }
}

/// A checkpoint file kept open for one run: each save appends one
/// snapshot line, except that the first save and the save that would
/// pass [`MAX_LOG_SNAPSHOTS`] rewrite the file (see the
/// [module docs](self)).
pub(crate) struct CheckpointLog {
    path: PathBuf,
    /// The open file and the snapshots it holds; `None` until the
    /// first save.
    file: Option<(File, usize)>,
}

impl CheckpointLog {
    /// A log at `path`; nothing is written before the first save.
    pub(crate) fn new(path: &Path) -> CheckpointLog {
        CheckpointLog {
            path: path.to_path_buf(),
            file: None,
        }
    }

    /// Writes `ckpt` as the log's next snapshot. This is the only
    /// code that writes checkpoint files.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on any filesystem failure. The log then
    /// forgets its file, so the next save rewrites it rather than
    /// append after a torn line.
    pub(crate) fn save(&mut self, ckpt: &CampaignCheckpoint) -> Result<(), CheckpointError> {
        let io_err = |detail: String| CheckpointError::Io {
            path: self.path.display().to_string(),
            detail,
        };
        let mut line = serde_json::to_string(ckpt).map_err(|e| io_err(format!("{e:?}")))?;
        line.push('\n');
        self.file = Some(match self.file.take() {
            Some((mut file, n)) if n < MAX_LOG_SNAPSHOTS => {
                file.write_all(line.as_bytes())
                    .map_err(|e| io_err(e.to_string()))?;
                (file, n + 1)
            }
            _ => {
                let mut tmp = self.path.as_os_str().to_owned();
                tmp.push(".tmp");
                let tmp = PathBuf::from(tmp);
                let mut file = File::create(&tmp).map_err(|e| io_err(e.to_string()))?;
                file.write_all(line.as_bytes())
                    .map_err(|e| io_err(e.to_string()))?;
                std::fs::rename(&tmp, &self.path).map_err(|e| io_err(e.to_string()))?;
                (file, 1)
            }
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::LedgerEntry;

    #[test]
    fn bitmap_set_get_count() {
        let mut b = JobBitmap::new(70);
        assert_eq!(b.words.len(), 3);
        assert_eq!(b.count(), 0);
        for i in [0, 31, 32, 63, 69] {
            assert!(!b.get(i));
            b.set(i);
            assert!(b.get(i));
        }
        assert_eq!(b.count(), 5);
        assert!(!b.get(70), "out of range reads as not-completed");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bitmap_set_out_of_range_panics() {
        JobBitmap::new(4).set(4);
    }

    #[test]
    fn partials_digest_distinguishes_failure_causes() {
        let mut a = AggregatePartials::default();
        let mut b = AggregatePartials::default();
        assert_eq!(a, b);
        a.fold_failed("job panicked: chaos", 2);
        b.fold_failed("non-finite ODE state at cycle 3", 2);
        assert_ne!(a.digest, b.digest);
        assert_eq!(a.failed_jobs, 1);
    }

    #[test]
    fn checkpoint_save_load_roundtrip_and_validation() {
        let dir = std::env::temp_dir().join("aps_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let mut ckpt = CampaignCheckpoint::fresh(to_hex(0xDEAD_BEEF), Some(u64::MAX), 31);
        ckpt.completed.set(0);
        ckpt.completed.set(30);
        ckpt.partials.fold_failed("boom", 1);
        ckpt.save(&path).unwrap();
        let back = CampaignCheckpoint::load(&path).unwrap();
        assert_eq!(ckpt, back);
        assert!(back
            .validate_for(&to_hex(0xDEAD_BEEF), Some(u64::MAX), 31)
            .is_ok());
        assert!(matches!(
            back.validate_for(&to_hex(0xDEAD_BEEF), Some(7), 31),
            Err(CheckpointError::Mismatch { .. })
        ));
        assert!(matches!(
            back.validate_for(&to_hex(1), Some(u64::MAX), 31),
            Err(CheckpointError::Mismatch { .. })
        ));
        assert!(matches!(
            back.validate_for(&to_hex(0xDEAD_BEEF), Some(u64::MAX), 32),
            Err(CheckpointError::Mismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn newer_version_is_rejected() {
        let dir = std::env::temp_dir().join("aps_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("future.json");
        let mut ckpt = CampaignCheckpoint::fresh(to_hex(1), None, 4);
        ckpt.version = CHECKPOINT_VERSION + 1;
        ckpt.save(&path).unwrap();
        assert!(matches!(
            CampaignCheckpoint::load(&path),
            Err(CheckpointError::Version { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn atomic_save_leaves_no_tmp_file() {
        let dir = std::env::temp_dir().join("aps_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("atomic.json");
        CampaignCheckpoint::fresh(to_hex(2), None, 4)
            .save(&path)
            .unwrap();
        assert!(path.exists());
        assert!(!dir.join("atomic.json.tmp").exists());
        std::fs::remove_file(&path).ok();
    }

    /// Snapshot `k` of a test log: its bitmap and ledger differ from
    /// every other's, and its ledger message holds a newline and
    /// multi-byte characters, so a cut can fall inside one.
    fn log_snapshot(k: usize) -> CampaignCheckpoint {
        let mut ckpt = CampaignCheckpoint::fresh(to_hex(0xFEED), None, 40);
        for i in 0..k {
            ckpt.completed.set(i);
        }
        let error = crate::outcome::SimError::Panicked {
            message: format!("dose ≥ cap × {k}\nat cycle {k}"),
        };
        ckpt.partials.fold_failed(&error.to_string(), 1);
        ckpt.ledger.push(LedgerEntry {
            job_index: k,
            patient_idx: 0,
            initial_bg: 120.0,
            fault_name: String::from("glucose_max_2"),
            error,
            attempts: 1,
        });
        ckpt
    }

    fn newlines(bytes: &[u8]) -> usize {
        bytes.iter().filter(|&&b| b == b'\n').count()
    }

    #[test]
    fn load_returns_the_last_complete_snapshot_at_every_cut() {
        let dir = std::env::temp_dir().join("aps_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.json");
        let snapshots: Vec<_> = (1..=4).map(log_snapshot).collect();
        let mut log = CheckpointLog::new(&path);
        for s in &snapshots {
            log.save(s).unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(newlines(&bytes), snapshots.len(), "one line per snapshot");

        // A cut inside the first line is also what a file written
        // before the log format looks like: one object, no line end.
        let cut = dir.join("log_cut.json");
        for end in 0..=bytes.len() {
            std::fs::write(&cut, &bytes[..end]).unwrap();
            match (newlines(&bytes[..end]), CampaignCheckpoint::load(&cut)) {
                (0, Err(CheckpointError::Io { .. })) => {}
                (k, Ok(back)) if k > 0 => assert_eq!(back, snapshots[k - 1], "cut at {end}"),
                (k, other) => panic!("cut at {end} after {k} complete lines: {other:?}"),
            }
        }

        // A new run's first save replaces a torn log outright.
        std::fs::write(&cut, &bytes[..bytes.len() - 1]).unwrap();
        CheckpointLog::new(&cut).save(&snapshots[0]).unwrap();
        assert_eq!(newlines(&std::fs::read(&cut).unwrap()), 1);
        assert_eq!(CampaignCheckpoint::load(&cut).unwrap(), snapshots[0]);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&cut).ok();
    }

    #[test]
    fn a_long_log_stays_bounded_and_loads_its_last_snapshot() {
        let dir = std::env::temp_dir().join("aps_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("long.json");
        let mut log = CheckpointLog::new(&path);
        let mut ckpt = CampaignCheckpoint::fresh(to_hex(3), None, 200);
        for i in 0..200 {
            ckpt.completed.set(i);
            log.save(&ckpt).unwrap();
        }
        let lines = newlines(&std::fs::read(&path).unwrap());
        assert!(lines <= MAX_LOG_SNAPSHOTS, "{lines} snapshots in the log");
        let back = CampaignCheckpoint::load(&path).unwrap();
        assert_eq!(back.completed.count(), 200);
        assert_eq!(back, ckpt);
        assert!(!dir.join("long.json.tmp").exists());
        std::fs::remove_file(&path).ok();
    }

    /// A fixed 3-record trace with one monitor track; every field
    /// differs between records so a swap is visible.
    fn sample_trace() -> SimTrace {
        use aps_types::{AlertTrack, MgDl, Step, StepRecord, TraceMeta, Units, UnitsPerHour};
        let actions = [
            ControlAction::DecreaseInsulin,
            ControlAction::IncreaseInsulin,
            ControlAction::KeepInsulin,
        ];
        let hazards = [None, Some(Hazard::H1), Some(Hazard::H2)];
        let records = (0..3)
            .map(|i| {
                let x = f64::from(i);
                StepRecord {
                    step: Step(i),
                    bg: MgDl(120.0 + x),
                    bg_true: MgDl(118.5 + 2.0 * x),
                    iob: Units(0.25 + x),
                    commanded: UnitsPerHour(1.5 - 0.5 * x),
                    delivered: UnitsPerHour(1.25 - 0.25 * x),
                    action: actions[i as usize],
                    fault_active: i == 1,
                    hazard: hazards[i as usize],
                    alert: hazards[(i as usize + 1) % 3],
                }
            })
            .collect();
        SimTrace {
            meta: TraceMeta {
                patient: String::from("t1ds/adult#003"),
                initial_bg: 120.0,
                fault_name: String::from("glucose_max_2"),
                ..TraceMeta::default()
            },
            records,
            monitor_tracks: vec![AlertTrack {
                monitor: String::from("cawt"),
                alerts: hazards.to_vec(),
            }],
        }
    }

    fn next_ulp(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    #[test]
    fn trace_digest_is_pure_and_sensitive_to_every_field() {
        let base = sample_trace();
        let d0 = trace_digest(&base);
        assert_eq!(d0, trace_digest(&base), "digest must be a pure function");
        assert_eq!(d0, trace_digest(&base.clone()));

        let case = |what: String, edit: &dyn Fn(&mut SimTrace)| {
            let mut t = base.clone();
            edit(&mut t);
            assert_ne!(t, base, "case `{what}` must edit the trace");
            assert_ne!(trace_digest(&t), d0, "digest blind to `{what}`");
        };
        for i in 0..3 {
            case(format!("bg ulp @{i}"), &|t| {
                t.records[i].bg.0 = next_ulp(t.records[i].bg.0)
            });
            case(format!("bg_true ulp @{i}"), &|t| {
                t.records[i].bg_true.0 = next_ulp(t.records[i].bg_true.0)
            });
            case(format!("iob ulp @{i}"), &|t| {
                t.records[i].iob.0 = next_ulp(t.records[i].iob.0)
            });
            case(format!("commanded ulp @{i}"), &|t| {
                t.records[i].commanded.0 = next_ulp(t.records[i].commanded.0)
            });
            case(format!("delivered ulp @{i}"), &|t| {
                t.records[i].delivered.0 = next_ulp(t.records[i].delivered.0)
            });
            case(format!("step @{i}"), &|t| t.records[i].step.0 += 7);
            case(format!("action @{i}"), &|t| {
                t.records[i].action = ControlAction::StopInsulin
            });
            case(format!("fault_active @{i}"), &|t| {
                t.records[i].fault_active = !t.records[i].fault_active
            });
        }
        case(String::from("hazard None -> H1"), &|t| {
            t.records[0].hazard = Some(Hazard::H1)
        });
        case(String::from("hazard H1 -> None"), &|t| {
            t.records[1].hazard = None
        });
        case(String::from("hazard H1 -> H2"), &|t| {
            t.records[1].hazard = Some(Hazard::H2)
        });
        case(String::from("hazard H2 -> H1"), &|t| {
            t.records[2].hazard = Some(Hazard::H1)
        });
        case(String::from("alert None -> H2"), &|t| {
            t.records[2].alert = Some(Hazard::H2)
        });
        case(String::from("alert H1 -> None"), &|t| {
            t.records[0].alert = None
        });
        case(String::from("alert H1 -> H2"), &|t| {
            t.records[0].alert = Some(Hazard::H2)
        });
        case(String::from("patient"), &|t| {
            t.meta.patient = String::from("t1ds/adult#004")
        });
        case(String::from("fault name"), &|t| {
            t.meta.fault_name = String::from("glucose_max_3")
        });
        case(String::from("initial_bg"), &|t| {
            t.meta.initial_bg = next_ulp(t.meta.initial_bg)
        });
        case(String::from("track name"), &|t| {
            t.monitor_tracks[0].monitor = String::from("cawot")
        });
        case(String::from("track alert None -> H1"), &|t| {
            t.monitor_tracks[0].alerts[0] = Some(Hazard::H1)
        });
        case(String::from("track alert H1 -> H2"), &|t| {
            t.monitor_tracks[0].alerts[1] = Some(Hazard::H2)
        });
        case(String::from("swap records 0 and 2"), &|t| {
            t.records.swap(0, 2)
        });
        case(String::from("added empty track"), &|t| {
            t.monitor_tracks.push(aps_types::AlertTrack::default())
        });
    }
}
