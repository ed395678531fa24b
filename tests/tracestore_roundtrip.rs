//! Trace-store round-trip properties.
//!
//! * Arbitrary corpora — empty campaigns, empty traces, traces with and
//!   without monitor banks, ragged alert tracks, exotic f64 bit
//!   patterns — survive `write_store` → `TraceStoreReader` →
//!   `read_all` **bit-identical**.
//! * Header hashes are exact u64s (including values above 2^53 that a
//!   JSON number would mangle).
//! * A store truncated at *any* byte is rejected with a typed error,
//!   never misread; a store from a newer format version is rejected
//!   with `StoreError::Version`.
//! * The columnar paths match the in-memory and JSONL paths: the ML
//!   monitors' flat and windowed training datasets built from
//!   store-read traces equal those built from the written and from
//!   JSONL-loaded traces, and `replay_store` equals `replay_campaign`
//!   on a real quick-campaign corpus.

use aps_repro::ml::data::Dataset;
use aps_repro::ml::lstm::SeqDataset;
use aps_repro::prelude::*;
use aps_repro::sim::dataset::{build_dataset, build_seq_dataset, LabelMode};
use aps_repro::sim::io::{read_jsonl, write_jsonl};
use aps_repro::tracestore::{
    code_version_hash, read_store, write_store, StoreError, TraceStoreReader,
};
use aps_repro::types::{
    AlertTrack, ControlAction, Hazard, MgDl, SimTrace, Step, StepRecord, TraceMeta, Units,
    UnitsPerHour,
};
use proptest::prelude::*;

/// splitmix64: cheap, deterministic stream of u64s from one seed.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn gen_f64(state: &mut u64) -> f64 {
    // Mix ordinary magnitudes with exact-bit hostile values: negative
    // zero, subnormals, and full-precision mantissas all have to
    // round-trip bit-for-bit through the column encoding.
    match splitmix64(state) % 6 {
        0 => 0.0,
        1 => -0.0,
        2 => f64::MIN_POSITIVE / 2.0, // subnormal
        3 => (splitmix64(state) % 600) as f64 / 3.0,
        4 => f64::from_bits(splitmix64(state) >> 12 | 0x3FF0_0000_0000_0000),
        _ => -((splitmix64(state) % 1000) as f64) * 0.125,
    }
}

fn gen_hazard(state: &mut u64) -> Option<Hazard> {
    match splitmix64(state) % 3 {
        0 => None,
        1 => Some(Hazard::H1),
        _ => Some(Hazard::H2),
    }
}

fn gen_trace(state: &mut u64, len: usize, with_tracks: bool) -> SimTrace {
    let mut t = SimTrace::new(TraceMeta {
        patient: format!("patient#{}", splitmix64(state) % 100),
        initial_bg: gen_f64(state),
        fault_name: if splitmix64(state).is_multiple_of(2) {
            String::new()
        } else {
            format!("fault_{}", splitmix64(state) % 8)
        },
        fault_start: (splitmix64(state).is_multiple_of(2))
            .then(|| Step((splitmix64(state) % 500) as u32)),
        hazard_onset: (splitmix64(state).is_multiple_of(3))
            .then(|| Step((splitmix64(state) % 500) as u32)),
        hazard_type: gen_hazard(state),
    });
    for i in 0..len {
        t.push(StepRecord {
            step: Step(i as u32),
            bg: MgDl(gen_f64(state)),
            bg_true: MgDl(gen_f64(state)),
            iob: Units(gen_f64(state)),
            commanded: UnitsPerHour(gen_f64(state)),
            delivered: UnitsPerHour(gen_f64(state)),
            action: ControlAction::ALL[(splitmix64(state) % 4) as usize],
            fault_active: splitmix64(state).is_multiple_of(2),
            hazard: gen_hazard(state),
            alert: gen_hazard(state),
        });
    }
    if with_tracks {
        // Ragged on purpose: different monitors, different stream
        // lengths, including an empty one.
        let n_tracks = (splitmix64(state) % 3) as usize + 1;
        for k in 0..n_tracks {
            let track_len = (splitmix64(state) as usize) % (len + 2);
            t.monitor_tracks.push(AlertTrack {
                monitor: format!("monitor_{k}"),
                alerts: (0..track_len).map(|_| gen_hazard(state)).collect(),
            });
        }
    }
    t
}

fn gen_corpus(seed: u64, n_traces: usize) -> Vec<SimTrace> {
    let mut state = seed;
    (0..n_traces)
        .map(|i| {
            let len = if i == 0 {
                0
            } else {
                (splitmix64(&mut state) % 120) as usize
            };
            let with_tracks = splitmix64(&mut state).is_multiple_of(2);
            gen_trace(&mut state, len, with_tracks)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any corpus — including the empty one and empty traces — reads
    /// back bit-identical, and the u64 header hashes survive exactly
    /// even above 2^53.
    #[test]
    fn store_roundtrip_is_bit_identical(
        seed in any::<u64>(),
        spec_hash in any::<u64>(),
        n_traces in 0usize..6,
    ) {
        let traces = gen_corpus(seed, n_traces);
        let bytes = write_store(&traces, spec_hash).unwrap();
        let reader = TraceStoreReader::from_bytes(bytes).unwrap();
        prop_assert_eq!(reader.header().spec_hash, spec_hash);
        prop_assert_eq!(reader.header().code_version_hash, code_version_hash());
        prop_assert_eq!(reader.len(), traces.len());
        let back = read_store(&reader);
        // PartialEq on f64 treats -0.0 == 0.0; compare the raw bits of
        // every column as well as the structural equality.
        prop_assert_eq!(&back, &traces);
        for (a, b) in back.iter().zip(&traces) {
            for (ra, rb) in a.records.iter().zip(&b.records) {
                prop_assert_eq!(ra.bg.value().to_bits(), rb.bg.value().to_bits());
                prop_assert_eq!(ra.bg_true.value().to_bits(), rb.bg_true.value().to_bits());
                prop_assert_eq!(ra.iob.value().to_bits(), rb.iob.value().to_bits());
                prop_assert_eq!(ra.commanded.value().to_bits(), rb.commanded.value().to_bits());
                prop_assert_eq!(ra.delivered.value().to_bits(), rb.delivered.value().to_bits());
            }
            prop_assert_eq!(
                a.meta.initial_bg.to_bits(),
                b.meta.initial_bg.to_bits()
            );
        }
    }

    /// A store cut short at any byte must fail validation with a typed
    /// error — `from_bytes` never yields a reader over a torn file.
    #[test]
    fn any_truncation_is_rejected(
        seed in any::<u64>(),
        cut_sel in any::<u64>(),
    ) {
        let traces = gen_corpus(seed, 3);
        let bytes = write_store(&traces, 7).unwrap();
        let cut = (cut_sel as usize) % bytes.len(); // strictly short
        let err = TraceStoreReader::from_bytes(bytes[..cut].to_vec())
            .expect_err("torn store must not validate");
        prop_assert!(
            matches!(
                err,
                StoreError::Truncated { .. }
                    | StoreError::Corrupt { .. }
                    | StoreError::BadMagic
            ),
            "unexpected error for cut at {}: {:?}", cut, err
        );
    }

    /// Flipping the version field to anything newer than this build
    /// supports yields the typed `Version` error, exact fields intact.
    #[test]
    fn future_versions_are_rejected(bump in 1u32..1000) {
        let bytes = write_store(&gen_corpus(1, 1), 0).unwrap();
        let mut future = bytes;
        let v = aps_repro::tracestore::FORMAT_VERSION + bump;
        future[8..12].copy_from_slice(&v.to_le_bytes());
        match TraceStoreReader::from_bytes(future) {
            Err(StoreError::Version { found, supported }) => {
                prop_assert_eq!(found, v);
                prop_assert_eq!(supported, aps_repro::tracestore::FORMAT_VERSION);
            }
            other => prop_assert!(false, "expected Version error, got {:?}", other),
        }
    }

    /// The DT/MLP flat dataset and the LSTM windowed dataset built from
    /// store-read traces are bit-identical to those built from the
    /// traces that were written, and equal to those built from traces
    /// that went through JSONL. JSONL writes `-0.0` as `0`, so that
    /// path is compared with the sign of zero folded away.
    #[test]
    fn ml_datasets_from_store_match_datasets_from_jsonl(
        seed in any::<u64>(),
        window_sel in 0usize..3,
        multiclass in any::<bool>(),
    ) {
        let traces = gen_corpus(seed, 4);

        let mut jsonl = Vec::new();
        write_jsonl(&traces, &mut jsonl).unwrap();
        let from_jsonl = read_jsonl(&jsonl[..]).unwrap();
        let reader = TraceStoreReader::from_bytes(write_store(&traces, 0).unwrap()).unwrap();
        let from_store = read_store(&reader);

        let basal = UnitsPerHour(0.9);
        let mode = if multiclass { LabelMode::MultiClass } else { LabelMode::Binary };
        let window = [1, 6, 12][window_sel];
        // Every feature of every sample, as raw bits (`fold_zero` maps
        // -0.0 to 0.0 first), in dataset order.
        let flat_bits = |ds: &Dataset, fold_zero: bool| -> Vec<u64> {
            ds.x.iter()
                .flatten()
                .map(|&v| if fold_zero { v + 0.0 } else { v }.to_bits())
                .collect()
        };
        let seq_bits = |ds: &SeqDataset, fold_zero: bool| -> Vec<u64> {
            ds.x.iter()
                .flatten()
                .flatten()
                .map(|&v| if fold_zero { v + 0.0 } else { v }.to_bits())
                .collect()
        };

        let flat_written = build_dataset(&traces, basal, mode);
        let flat_store = build_dataset(&from_store, basal, mode);
        let flat_jsonl = build_dataset(&from_jsonl, basal, mode);
        prop_assert_eq!(&flat_store.y, &flat_written.y);
        prop_assert_eq!(flat_bits(&flat_store, false), flat_bits(&flat_written, false));
        prop_assert_eq!(&flat_jsonl.y, &flat_store.y);
        prop_assert_eq!(flat_bits(&flat_jsonl, true), flat_bits(&flat_store, true));

        let seq_written = build_seq_dataset(&traces, basal, mode, window);
        let seq_store = build_seq_dataset(&from_store, basal, mode, window);
        let seq_jsonl = build_seq_dataset(&from_jsonl, basal, mode, window);
        prop_assert_eq!(&seq_store.y, &seq_written.y);
        prop_assert_eq!(seq_bits(&seq_store, false), seq_bits(&seq_written, false));
        prop_assert_eq!(&seq_jsonl.y, &seq_store.y);
        prop_assert_eq!(seq_bits(&seq_jsonl, true), seq_bits(&seq_store, true));
    }
}

/// A real campaign corpus (physics, faults, hazard labels, monitor
/// bank) survives the store, and replaying monitors straight out of
/// the store matches the in-memory replay exactly.
#[test]
fn quick_campaign_survives_store_and_replays_identically() {
    let platform = Platform::GlucosymOref0;
    let spec = CampaignSpec {
        patient_indices: vec![0],
        initial_bgs: vec![120.0],
        ..CampaignSpec::quick(platform)
    };
    let recorded = run_campaign(&spec, None);
    assert!(!recorded.is_empty(), "quick campaign produced no traces");

    let reader = TraceStoreReader::from_bytes(write_store(&recorded, 0).unwrap()).unwrap();
    assert_eq!(
        read_store(&reader),
        recorded,
        "campaign corpus must round-trip"
    );

    let scs = Scs::with_default_thresholds(platform.target());
    let probe = platform.patients().remove(0);
    let basal = platform.basal_for(probe.as_ref());
    let from_memory = replay_campaign(&recorded, |_t| {
        Box::new(CawMonitor::new("cawot", scs.clone(), basal))
    });
    let from_store = replay_store(&reader, |_t| {
        Box::new(CawMonitor::new("cawot", scs.clone(), basal))
    });
    assert_eq!(
        from_store, from_memory,
        "store replay must match in-memory replay"
    );
}

/// The file writer streams a campaign to disk as a
/// `run_campaign_with_workers` sink and the result equals the in-memory
/// encoding.
#[test]
fn file_writer_sink_matches_in_memory_encoding() {
    let spec = CampaignSpec {
        patient_indices: vec![0],
        initial_bgs: vec![140.0],
        steps: 40,
        ..CampaignSpec::quick(Platform::GlucosymOref0)
    };
    let traces = run_campaign(&spec, None);

    let path = std::env::temp_dir().join(format!("aps-store-sink-{}.apst", std::process::id()));
    let mut writer = FileTraceWriter::create(&path, 42).unwrap();
    let mut sink_err = None;
    aps_repro::sim::campaign::run_campaign_with_workers(&spec, None, None, |_i, t| {
        if let Err(e) = writer.push(&t) {
            sink_err.get_or_insert(e);
        }
    });
    assert!(sink_err.is_none(), "sink write failed: {sink_err:?}");
    let stats = writer.finalize().unwrap();
    assert_eq!(stats.traces as usize, traces.len());

    let reader = TraceStoreReader::open(&path).unwrap();
    assert_eq!(reader.header().spec_hash, 42);
    assert_eq!(read_store(&reader), traces);
    let _ = std::fs::remove_file(&path);
}
