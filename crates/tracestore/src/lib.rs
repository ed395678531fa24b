//! `aps_tracestore` — versioned columnar binary container for
//! campaign trace corpora.
//!
//! The JSON shim is the right currency for specs and reports; it is
//! the wrong one for bulk trace data — cohort-scale campaigns (~10⁸
//! step records) cannot afford full-text deserialization and
//! per-record allocation on every replay or training pass. This crate
//! stores a corpus of [`SimTrace`]s in a compact little-endian binary
//! file that reads back with zero per-record allocation.
//!
//! # Layout (format version 1)
//!
//! ```text
//! ┌────────────────────────────────────────────────────────────────┐
//! │ header (32 B): "APSTRACE" | version u32 | flags u32            │
//! │                | code_version_hash u64 | spec_hash u64         │
//! ├────────────────────────────────────────────────────────────────┤
//! │ trace block 0                                                  │
//! │   n_records u32 | steps_len u32                                │
//! │   steps     : n zigzag-varint deltas (monotone ⇒ 1 B/record)   │
//! │   bg        : n × f64 bits      ┐                              │
//! │   bg_true   : n × f64 bits      │ one contiguous column        │
//! │   iob       : n × f64 bits      │ per StepRecord field         │
//! │   commanded : n × f64 bits      │                              │
//! │   delivered : n × f64 bits      ┘                              │
//! │   action    : n × u8 (paper index u1..u4)                      │
//! │   fault     : ⌈n/8⌉ B bitset (LSB-first)                       │
//! │   hazard    : n × u8 (0=None, 1=H1, 2=H2)                      │
//! │   alert     : n × u8                                           │
//! │   meta_len u32   | meta   (TraceMeta side table)               │
//! │   tracks_len u32 | tracks (AlertTrack side table)              │
//! ├────────────────────────────────────────────────────────────────┤
//! │ trace block 1 … trace block N-1                                │
//! ├────────────────────────────────────────────────────────────────┤
//! │ footer: N × u64 absolute block offsets                         │
//! │         | index_offset u64 | trace_count u64 | "APSTREND"      │
//! └────────────────────────────────────────────────────────────────┘
//! ```
//!
//! # Trace log (append-only variant)
//!
//! A trace log is the same header followed by whole trace blocks, with
//! no offset index and no footer: `[header | block 0 | … | block N-1]`.
//! [`TraceLogWriter`] appends one block per push (writing the header
//! only into an empty file) and hands each block to the OS before the
//! push returns. [`TraceStoreReader::open_log`] rebuilds the block
//! offsets by validating blocks one after another from the header and
//! stops at the first that does not validate, so a tail torn by a
//! killed writer is dropped and every whole block before it is kept;
//! [`TraceStoreReader::block_end`] gives the length to cut the file to.
//! The campaign service writes each shard's results this way.
//!
//! # Compatibility
//!
//! - A reader rejects any file whose header version is **newer** than
//!   [`FORMAT_VERSION`] with the typed [`StoreError::Version`].
//! - Side tables are length-prefixed: a v1 reader defaults fields an
//!   older writer omitted and ignores bytes a newer writer appended,
//!   so additive evolution never needs a version bump.
//! - Truncation is detected structurally (trailing `"APSTREND"`
//!   magic plus offset-index bounds checks) before any trace decodes.
//!
//! # Example
//!
//! ```
//! use aps_tracestore::{read_store, write_store, TraceStoreReader};
//! use aps_types::{SimTrace, TraceMeta};
//!
//! let mut trace = SimTrace::new(TraceMeta {
//!     patient: "adult#001".into(),
//!     ..TraceMeta::default()
//! });
//! trace.push(aps_types::StepRecord::blank(aps_types::Step(0)));
//!
//! // In-memory round trip (files go through FileTraceWriter /
//! // TraceStoreReader::open).
//! let bytes = write_store(&[trace.clone()], 0).unwrap();
//! let reader = TraceStoreReader::from_bytes(bytes).unwrap();
//! assert_eq!(reader.len(), 1);
//! assert_eq!(reader.get(0), trace);
//! assert_eq!(read_store(&reader), vec![trace]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod format;
pub mod reader;
pub mod writer;

pub use format::{code_version_hash, StoreError, FORMAT_VERSION};
pub use reader::{F64Column, RecordCursor, StoreHeader, TraceStoreReader, TraceView};
pub use writer::{FileTraceWriter, StoreStats, TraceLogWriter, TraceWriter};

use aps_types::SimTrace;
use serde::{Deserialize, Serialize};

/// Human-readable summary of a store, serde-serializable for reports.
///
/// Header hashes are hex strings because the JSON shim routes numbers
/// through `f64` (exact only below 2^53); counts stay far below that.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
#[serde(default)]
pub struct StoreInfo {
    /// Format version found in the file.
    pub format_version: u32,
    /// Hash of the code that wrote the store (hex).
    pub code_version_hash: String,
    /// Campaign spec fingerprint recorded at write time (hex).
    pub spec_hash: String,
    /// Number of traces.
    // lint: hex-exempt — trace counts stay far below 2^53.
    pub traces: u64,
    /// Total step records across all traces.
    // lint: hex-exempt — record counts stay far below 2^53.
    pub records: u64,
    /// File size in bytes.
    // lint: hex-exempt — file sizes stay far below 2^53.
    pub bytes: u64,
}

impl StoreInfo {
    /// Summarizes an open reader.
    pub fn of(reader: &TraceStoreReader) -> StoreInfo {
        let h = reader.header();
        StoreInfo {
            format_version: h.format_version,
            code_version_hash: to_hex(h.code_version_hash),
            spec_hash: to_hex(h.spec_hash),
            traces: reader.len() as u64,
            records: reader.total_records(),
            bytes: reader.byte_len(),
        }
    }
}

/// Formats a `u64` as a fixed-width lowercase hex string.
pub fn to_hex(v: u64) -> String {
    format!("{v:016x}")
}

/// Parses a hex string written by [`to_hex`].
pub fn from_hex(s: &str) -> Option<u64> {
    u64::from_str_radix(s, 16).ok()
}

/// Encodes a corpus into an in-memory store image (header, blocks,
/// footer). The file path goes through [`FileTraceWriter`]; this is
/// the buffer-level equivalent used by tests and round-trip checks.
pub fn write_store(traces: &[SimTrace], spec_hash: u64) -> Result<Vec<u8>, StoreError> {
    let mut w = TraceWriter::new(Vec::new(), "<memory>", spec_hash)?;
    for t in traces {
        w.push(t)?;
    }
    let (buf, _) = w.finish()?;
    Ok(buf)
}

/// Materializes every trace in an open store (the bulk-read path).
pub fn read_store(reader: &TraceStoreReader) -> Vec<SimTrace> {
    reader.read_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aps_types::{Step, StepRecord, TraceMeta};

    fn corpus() -> Vec<SimTrace> {
        let mut t0 = SimTrace::new(TraceMeta {
            patient: String::from("adult#001"),
            initial_bg: 140.0,
            ..TraceMeta::default()
        });
        for i in 0..10 {
            t0.push(StepRecord::blank(Step(i)));
        }
        let t1 = SimTrace::new(TraceMeta::default()); // empty trace
        vec![t0, t1]
    }

    #[test]
    fn roundtrip_through_memory() {
        let traces = corpus();
        let bytes = write_store(&traces, 0xDEAD_BEEF).unwrap();
        let reader = TraceStoreReader::from_bytes(bytes).unwrap();
        assert_eq!(reader.header().spec_hash, 0xDEAD_BEEF);
        assert_eq!(read_store(&reader), traces);
    }

    #[test]
    fn info_summarizes_header_and_counts() {
        let bytes = write_store(&corpus(), u64::MAX).unwrap();
        let reader = TraceStoreReader::from_bytes(bytes).unwrap();
        let info = StoreInfo::of(&reader);
        assert_eq!(info.format_version, FORMAT_VERSION);
        assert_eq!(info.spec_hash, "ffffffffffffffff");
        assert_eq!(from_hex(&info.spec_hash), Some(u64::MAX));
        assert_eq!(info.traces, 2);
        assert_eq!(info.records, 10);
        assert_eq!(info.bytes, reader.byte_len());
    }

    #[test]
    fn info_serde_roundtrip() {
        let bytes = write_store(&corpus(), 42).unwrap();
        let reader = TraceStoreReader::from_bytes(bytes).unwrap();
        let info = StoreInfo::of(&reader);
        let json = serde_json::to_string(&info).unwrap();
        let back: StoreInfo = serde_json::from_str(&json).unwrap();
        assert_eq!(back, info);
    }

    #[test]
    fn hex_helpers_are_exact_above_2_53() {
        for v in [
            0u64,
            1,
            u64::MAX,
            0xCBF2_9CE4_8422_2325,
            1 << 53,
            (1 << 53) + 1,
        ] {
            assert_eq!(from_hex(&to_hex(v)), Some(v));
        }
        assert_eq!(from_hex("zz"), None);
    }
}
