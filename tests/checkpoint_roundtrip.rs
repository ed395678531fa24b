//! Checkpoint persistence properties.
//!
//! * `CampaignCheckpoint` round-trips through the vendored serde shim
//!   for arbitrary contents (bitmaps, ledgers with every error kind,
//!   64-bit hex hashes — including values above 2^53 that would not
//!   survive as raw JSON numbers).
//! * Forward compatibility: a checkpoint written before new fields
//!   existed (missing `chaos_seed`, `partials`, …) still loads via the
//!   container-level `#[serde(default)]`.
//! * A checkpoint from a newer format version is rejected with
//!   `CheckpointError::Version`, not misread.
//! * A pre-v2 checkpoint (byte-wise trace digest) still loads but is
//!   refused at resume with `CheckpointError::Mismatch`, so a rolling
//!   digest never mixes the two digest schemes.

use aps_repro::prelude::*;
use aps_repro::sim::campaign::{run_campaign_resumable, CampaignOptions};
use aps_repro::sim::checkpoint::{
    from_hex, spec_hash, to_hex, AggregatePartials, CampaignCheckpoint, CheckpointError, JobBitmap,
    CHECKPOINT_VERSION,
};
use aps_repro::sim::outcome::{ErrorLedger, LedgerEntry, SimError};
use proptest::prelude::*;

fn error_from(pick: u8, detail: u64) -> SimError {
    match pick % 4 {
        0 => SimError::NonFinite {
            cycle: detail as u32,
        },
        1 => SimError::Panicked {
            message: format!("panic payload {detail}"),
        },
        2 => SimError::DeadlineExceeded {
            elapsed_ms: detail,
            budget_ms: detail / 2,
        },
        _ => SimError::InvalidSpec {
            detail: format!("bad field {detail}"),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn checkpoint_roundtrips_through_the_shim(
        total in 0usize..200,
        done in prop::collection::vec(0usize..200, 0..64),
        failures in prop::collection::vec(0u8..255, 0..8),
        hash in 0u64..u64::MAX,
        seed in 0u64..u64::MAX,
        with_seed in 0u8..2,
    ) {
        let mut bitmap = JobBitmap::new(total);
        for &i in done.iter().filter(|&&i| i < total) {
            bitmap.set(i);
        }
        let mut ledger = ErrorLedger::new();
        let mut partials = AggregatePartials::default();
        for (k, &pick) in failures.iter().enumerate() {
            let error = error_from(pick, u64::from(pick) * 977 + k as u64);
            partials.fold_failed(&error.to_string(), u32::from(pick) % 5 + 1);
            ledger.push(LedgerEntry {
                job_index: k,
                patient_idx: k % 10,
                initial_bg: 80.0 + f64::from(pick),
                fault_name: format!("fault_{pick}"),
                error,
                attempts: u32::from(pick) % 5 + 1,
            });
        }
        let ckpt = CampaignCheckpoint {
            version: CHECKPOINT_VERSION,
            spec_hash: to_hex(hash),
            chaos_seed: (with_seed == 1).then(|| to_hex(seed)),
            total_jobs: total,
            completed: bitmap,
            ledger,
            partials,
        };
        let json = serde_json::to_string(&ckpt).unwrap();
        let back: CampaignCheckpoint = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &ckpt);
        // The 64-bit hashes survive exactly (stored as hex strings,
        // immune to the shim's f64 number representation).
        prop_assert_eq!(from_hex(&back.spec_hash), Some(hash));
        if with_seed == 1 {
            prop_assert_eq!(back.chaos_seed.as_deref().and_then(from_hex), Some(seed));
        }
    }

    /// Checkpoints and trace-store headers share one hex codec: the
    /// same fixed-width lowercase text for every `u64`, and either
    /// side parses what the other wrote.
    #[test]
    fn checkpoint_hex_is_the_trace_store_hex(x in any::<u64>()) {
        let text = to_hex(x);
        prop_assert_eq!(&text, &aps_repro::tracestore::to_hex(x));
        prop_assert_eq!(text.len(), 16);
        prop_assert!(text.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b)));
        prop_assert_eq!(from_hex(&text), Some(x));
        prop_assert_eq!(aps_repro::tracestore::from_hex(&text), Some(x));
    }
}

#[test]
fn hex_hashes_survive_beyond_f64_precision() {
    for x in [u64::MAX, (1u64 << 53) + 1, 0, 1] {
        assert_eq!(from_hex(&to_hex(x)), Some(x));
    }
}

#[test]
fn old_checkpoint_missing_new_fields_still_loads() {
    // A v1 snapshot from before `chaos_seed`/`partials`/`ledger`
    // existed: the container-level `#[serde(default)]` fills them.
    let old = r#"{
        "version": 1,
        "spec_hash": "00000000deadbeef",
        "total_jobs": 4,
        "completed": {"words": [5], "len": 4}
    }"#;
    let ckpt: CampaignCheckpoint = serde_json::from_str(old).unwrap();
    assert_eq!(ckpt.version, 1);
    assert_eq!(ckpt.spec_hash, "00000000deadbeef");
    assert_eq!(ckpt.total_jobs, 4);
    assert_eq!(ckpt.completed.count(), 2);
    assert!(ckpt.chaos_seed.is_none());
    assert!(ckpt.ledger.is_empty());
    assert_eq!(ckpt.partials, AggregatePartials::default());
}

#[test]
fn future_version_is_rejected_on_load() {
    let mut path = std::env::temp_dir();
    path.push(format!("aps_ckpt_future_{}.json", std::process::id()));
    let future = CampaignCheckpoint {
        version: CHECKPOINT_VERSION + 1,
        ..CampaignCheckpoint::fresh("abc".to_owned(), None, 3)
    };
    future.save(&path).unwrap();
    match CampaignCheckpoint::load(&path) {
        Err(CheckpointError::Version { found, supported }) => {
            assert_eq!(found, CHECKPOINT_VERSION + 1);
            assert_eq!(supported, CHECKPOINT_VERSION);
        }
        other => panic!("expected Version error, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn load_reports_missing_file_as_io_error() {
    let err =
        CampaignCheckpoint::load(std::path::Path::new("/nonexistent/definitely/missing.json"))
            .unwrap_err();
    assert!(matches!(err, CheckpointError::Io { .. }), "{err}");
}

#[test]
fn pre_v2_checkpoint_is_refused_at_resume() {
    let spec = CampaignSpec {
        patient_indices: vec![0],
        initial_bgs: vec![120.0],
        steps: 30,
        ..CampaignSpec::quick(Platform::GlucosymOref0)
    };
    let mut outcomes = Vec::new();
    let full = run_campaign_resumable(&spec, None, &CampaignOptions::default(), None, |_, o| {
        outcomes.push(o)
    })
    .expect("reference");
    let total = full.total_jobs;

    // A mid-campaign snapshot: the first two jobs done, their traces
    // folded into the partials.
    let mut current = CampaignCheckpoint::fresh(to_hex(spec_hash(&spec)), None, total);
    for (i, outcome) in outcomes.iter().take(2).enumerate() {
        current.completed.set(i);
        current
            .partials
            .fold_completed(outcome.trace().expect("job completes"));
    }
    assert_ne!(current.partials, AggregatePartials::default());
    let v1 = CampaignCheckpoint {
        version: 1,
        ..current.clone()
    };

    match v1.validate_for(&current.spec_hash, None, total) {
        Err(CheckpointError::Mismatch { detail }) => {
            assert!(detail.contains("digest"), "{detail}")
        }
        other => panic!("expected Mismatch for a v1 checkpoint, got {other:?}"),
    }
    let mut emitted = 0;
    let err = run_campaign_resumable(
        &spec,
        None,
        &CampaignOptions::default(),
        Some(&v1),
        |_, _| {
            emitted += 1;
        },
    )
    .unwrap_err();
    assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err}");
    assert_eq!(emitted, 0, "a refused checkpoint must not run any job");

    // Control: the identical snapshot at the current version resumes
    // to the uninterrupted digest.
    assert!(current
        .validate_for(&current.spec_hash, None, total)
        .is_ok());
    let report = run_campaign_resumable(
        &spec,
        None,
        &CampaignOptions::default(),
        Some(&current),
        |_, _| {},
    )
    .expect("current-version resume");
    assert_eq!(report.skipped_resumed, 2);
    assert_eq!(report.digest, full.digest);
}
