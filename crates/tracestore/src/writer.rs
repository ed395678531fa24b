//! Streaming store writer: encode traces one at a time, finalize with
//! an atomic rename.
//!
//! [`TraceWriter`] is generic over any [`Write`] sink and is the
//! campaign-sink building block — wrap one in a closure and hand it to
//! `run_campaign_with_workers` to stream a campaign straight to disk
//! without ever holding the corpus in memory. [`FileTraceWriter`] adds the
//! file-backed convenience: it writes to `<path>.tmp` and renames into
//! place on [`finalize`](FileTraceWriter::finalize), so a crashed or
//! killed campaign never leaves a half-written store at the final
//! path (the same atomicity idiom as the campaign checkpoints).

use crate::format::{
    action_to_byte, code_version_hash, hazard_to_byte, push_varint, zigzag, StoreError, END_MAGIC,
    FORMAT_VERSION, MAGIC,
};
use aps_types::{AlertTrack, SimTrace, StepRecord, TraceMeta};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Encodes the delta+varint step column: each step is stored as the
/// zigzag varint of its difference from the previous step (first delta
/// is from 0). Monotone step sequences — the normal case — pack to
/// one byte per record; arbitrary sequences still round-trip exactly.
pub fn encode_steps(records: &[StepRecord], out: &mut Vec<u8>) {
    let mut prev: i64 = 0;
    for rec in records {
        let cur = i64::from(rec.step.0);
        push_varint(out, zigzag(cur - prev));
        prev = cur;
    }
}

/// Encodes the fixed-width columns: five contiguous `f64`-bits columns
/// (`bg`, `bg_true`, `iob`, `commanded`, `delivered`), the one-byte
/// action column, the `fault_active` bitset (LSB-first, one bit per
/// record), and the one-byte `hazard` and `alert` columns.
pub fn encode_columns(records: &[StepRecord], out: &mut Vec<u8>) {
    let n = records.len();
    out.reserve(n * 43 + n.div_ceil(8));
    for rec in records {
        out.extend_from_slice(&rec.bg.value().to_bits().to_le_bytes());
    }
    for rec in records {
        out.extend_from_slice(&rec.bg_true.value().to_bits().to_le_bytes());
    }
    for rec in records {
        out.extend_from_slice(&rec.iob.value().to_bits().to_le_bytes());
    }
    for rec in records {
        out.extend_from_slice(&rec.commanded.value().to_bits().to_le_bytes());
    }
    for rec in records {
        out.extend_from_slice(&rec.delivered.value().to_bits().to_le_bytes());
    }
    for rec in records {
        out.extend_from_slice(&[action_to_byte(rec.action)]);
    }
    for chunk in records.chunks(8) {
        let mut byte = 0u8;
        for (bit, rec) in chunk.iter().enumerate() {
            if rec.fault_active {
                byte |= 1 << bit;
            }
        }
        out.extend_from_slice(&[byte]);
    }
    for rec in records {
        out.extend_from_slice(&[hazard_to_byte(rec.hazard)]);
    }
    for rec in records {
        out.extend_from_slice(&[hazard_to_byte(rec.alert)]);
    }
}

/// Encodes the `TraceMeta` side table: varint-length-prefixed UTF-8
/// strings, `initial_bg` as `f64` bits, optional steps as `0 = None`
/// else `step + 1`, hazard type as one byte. A v1 reader defaults any
/// fields a shorter (older) region omits and ignores trailing bytes a
/// longer (newer) region appends.
pub fn encode_meta(meta: &TraceMeta, out: &mut Vec<u8>) {
    push_varint(out, meta.patient.len() as u64);
    out.extend_from_slice(meta.patient.as_bytes());
    push_varint(out, meta.fault_name.len() as u64);
    out.extend_from_slice(meta.fault_name.as_bytes());
    out.extend_from_slice(&meta.initial_bg.to_bits().to_le_bytes());
    push_varint(out, meta.fault_start.map_or(0, |s| u64::from(s.0) + 1));
    push_varint(out, meta.hazard_onset.map_or(0, |s| u64::from(s.0) + 1));
    out.extend_from_slice(&[hazard_to_byte(meta.hazard_type)]);
}

/// Encodes the monitor side table: varint track count, then per track
/// a varint-length-prefixed monitor name and a varint-length-prefixed
/// run of one-byte alerts.
pub fn encode_tracks(tracks: &[AlertTrack], out: &mut Vec<u8>) {
    push_varint(out, tracks.len() as u64);
    for track in tracks {
        push_varint(out, track.monitor.len() as u64);
        out.extend_from_slice(track.monitor.as_bytes());
        push_varint(out, track.alerts.len() as u64);
        for &alert in &track.alerts {
            out.extend_from_slice(&[hazard_to_byte(alert)]);
        }
    }
}

/// Encodes the 32-byte store header (magic, format version, reserved
/// flags, code-version hash, `spec_hash`).
pub(crate) fn encode_header(spec_hash: u64, out: &mut Vec<u8>) {
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // flags, reserved
    out.extend_from_slice(&code_version_hash().to_le_bytes());
    out.extend_from_slice(&spec_hash.to_le_bytes());
}

/// Encodes one self-contained trace block onto `out`: the record
/// count, the length-prefixed step column, the fixed-width columns,
/// and the length-prefixed meta and track side tables. `side` is
/// scratch reused across calls.
pub(crate) fn encode_block(trace: &SimTrace, out: &mut Vec<u8>, side: &mut Vec<u8>) {
    out.extend_from_slice(&(trace.records.len() as u32).to_le_bytes());
    side.clear();
    encode_steps(&trace.records, side);
    push_framed(side, out);
    encode_columns(&trace.records, out);
    side.clear();
    encode_meta(&trace.meta, side);
    push_framed(side, out);
    side.clear();
    encode_tracks(&trace.monitor_tracks, side);
    push_framed(side, out);
}

/// Appends `region` to `out` behind its `u32` byte length.
fn push_framed(region: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(region.len() as u32).to_le_bytes());
    out.extend_from_slice(region);
}

/// Summary of a finished store, returned by the finalizing calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of traces written.
    pub traces: usize,
    /// Total step records across all traces.
    pub records: u64,
    /// Total file size in bytes, header and footer included.
    pub bytes: u64,
}

/// Streaming encoder over any [`Write`] sink.
///
/// The header goes out at construction; each [`push`](Self::push)
/// appends one self-contained trace block; [`finish`](Self::finish)
/// appends the offset index and footer tail. Scratch buffers are
/// reused across pushes, so steady-state writing allocates only when
/// a trace is larger than every previous one.
pub struct TraceWriter<W: Write> {
    out: W,
    /// Label used in I/O error messages (a path for file sinks).
    label: String,
    pos: u64,
    records: u64,
    offsets: Vec<u64>,
    block: Vec<u8>,
    side: Vec<u8>,
}

impl<W: Write> TraceWriter<W> {
    /// Starts a store on `out`, writing the 32-byte header. `label`
    /// names the sink in error messages; `spec_hash` is the campaign
    /// spec fingerprint recorded in the header (0 if unknown).
    pub fn new(out: W, label: &str, spec_hash: u64) -> Result<TraceWriter<W>, StoreError> {
        let mut w = TraceWriter {
            out,
            label: String::from(label),
            pos: 0,
            records: 0,
            offsets: Vec::new(),
            block: Vec::new(),
            side: Vec::new(),
        };
        encode_header(spec_hash, &mut w.block);
        w.flush_block()?;
        Ok(w)
    }

    /// Appends one trace as a self-contained block.
    pub fn push(&mut self, trace: &SimTrace) -> Result<(), StoreError> {
        self.offsets.extend_from_slice(&[self.pos]);
        self.records += trace.records.len() as u64;
        encode_block(trace, &mut self.block, &mut self.side);
        self.flush_block()
    }

    /// Number of traces pushed so far.
    pub fn trace_count(&self) -> usize {
        self.offsets.len()
    }

    /// Bytes written so far (header included).
    pub fn bytes_written(&self) -> u64 {
        self.pos
    }

    /// Writes the offset index and footer tail, flushes, and returns
    /// the sink together with the store summary.
    pub fn finish(mut self) -> Result<(W, StoreStats), StoreError> {
        let index_offset = self.pos;
        self.block.clear();
        let offsets = std::mem::take(&mut self.offsets);
        for &off in &offsets {
            self.block.extend_from_slice(&off.to_le_bytes());
        }
        self.block.extend_from_slice(&index_offset.to_le_bytes());
        self.block
            .extend_from_slice(&(offsets.len() as u64).to_le_bytes());
        self.block.extend_from_slice(&END_MAGIC);
        self.offsets = offsets;
        self.flush_block()?;
        let stats = StoreStats {
            traces: self.offsets.len(),
            records: self.records,
            bytes: self.pos,
        };
        if let Err(e) = self.out.flush() {
            return Err(StoreError::Io {
                path: self.label,
                detail: e.to_string(),
            });
        }
        Ok((self.out, stats))
    }

    fn flush_block(&mut self) -> Result<(), StoreError> {
        if let Err(e) = self.out.write_all(&self.block) {
            return Err(StoreError::Io {
                path: self.label.clone(),
                detail: e.to_string(),
            });
        }
        self.pos += self.block.len() as u64;
        self.block.clear();
        Ok(())
    }
}

/// File-backed writer with atomic finalize.
///
/// Writes to `<path>.tmp` and renames to `path` only in
/// [`finalize`](Self::finalize); dropping the writer without
/// finalizing removes the temp file, so the destination path is either
/// absent or a complete store — never a torn one.
pub struct FileTraceWriter {
    inner: Option<TraceWriter<std::io::BufWriter<std::fs::File>>>,
    tmp: PathBuf,
    dst: PathBuf,
}

impl FileTraceWriter {
    /// Creates `<path>.tmp` and writes the store header to it.
    pub fn create(path: &Path, spec_hash: u64) -> Result<FileTraceWriter, StoreError> {
        FileTraceWriter::create_as(path, ".tmp", spec_hash)
    }

    /// Creates `<path><suffix>` and writes the store header to it.
    fn create_as(path: &Path, suffix: &str, spec_hash: u64) -> Result<FileTraceWriter, StoreError> {
        let dst = path.to_path_buf();
        let mut tmp = dst.clone().into_os_string();
        tmp.push(suffix);
        let tmp = PathBuf::from(tmp);
        let file = std::fs::File::create(&tmp).map_err(|e| StoreError::Io {
            path: tmp.display().to_string(),
            detail: e.to_string(),
        })?;
        let inner = TraceWriter::new(
            std::io::BufWriter::new(file),
            &dst.display().to_string(),
            spec_hash,
        )?;
        Ok(FileTraceWriter {
            inner: Some(inner),
            tmp,
            dst,
        })
    }

    /// Appends one trace. See [`TraceWriter::push`].
    pub fn push(&mut self, trace: &SimTrace) -> Result<(), StoreError> {
        match self.inner.as_mut() {
            Some(w) => w.push(trace),
            None => Err(StoreError::Io {
                path: self.dst.display().to_string(),
                detail: String::from("writer already finalized"),
            }),
        }
    }

    /// Number of traces pushed so far.
    pub fn trace_count(&self) -> usize {
        self.inner.as_ref().map_or(0, TraceWriter::trace_count)
    }

    /// Writes the footer, flushes, and atomically renames the temp
    /// file into place.
    pub fn finalize(mut self) -> Result<StoreStats, StoreError> {
        let inner = self.inner.take().ok_or_else(|| StoreError::Io {
            path: self.dst.display().to_string(),
            detail: String::from("writer already finalized"),
        })?;
        let (buf, stats) = inner.finish()?;
        drop(buf);
        std::fs::rename(&self.tmp, &self.dst).map_err(|e| StoreError::Io {
            path: self.dst.display().to_string(),
            detail: e.to_string(),
        })?;
        Ok(stats)
    }
}

/// Monotone per-process tag for [`FileTraceWriter::create_unique`]
/// temp names (combined with the pid so concurrent processes cannot
/// collide either; deliberately not time- or randomness-based).
static UNIQUE_TMP: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl FileTraceWriter {
    /// Like [`create`](Self::create), but with a writer-unique temp
    /// name (`<path>.<pid>.<n>.tmp`) so any number of concurrent
    /// writers can race toward the same destination without clobbering
    /// each other's in-progress bytes. Pair with
    /// [`finalize_if_absent`](Self::finalize_if_absent): the campaign
    /// service's content-addressed cache uses this pair, where the
    /// destination name is derived from the content key and every
    /// racer is writing identical bytes.
    pub fn create_unique(path: &Path, spec_hash: u64) -> Result<FileTraceWriter, StoreError> {
        let tag = UNIQUE_TMP.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let suffix = format!(".{}.{}.tmp", std::process::id(), tag);
        FileTraceWriter::create_as(path, &suffix, spec_hash)
    }

    /// Finalizes only if the destination does not exist yet: the
    /// first writer to finish links its complete temp file into
    /// place and returns `Some(stats)`; every later writer removes
    /// its temp file untouched and returns `None`. Unlike
    /// [`finalize`](Self::finalize) (whose rename silently replaces),
    /// this never overwrites an existing store, which is exactly the
    /// semantics a content-addressed cache needs — same key, same
    /// bytes, first writer wins, losers are free no-ops.
    pub fn finalize_if_absent(mut self) -> Result<Option<StoreStats>, StoreError> {
        let inner = self.inner.take().ok_or_else(|| StoreError::Io {
            path: self.dst.display().to_string(),
            detail: String::from("writer already finalized"),
        })?;
        let (buf, stats) = inner.finish()?;
        drop(buf);
        // `hard_link` (not `rename`) is the atomic publish: it fails
        // with `AlreadyExists` instead of replacing, so exactly one
        // racer's bytes become the store.
        let linked = std::fs::hard_link(&self.tmp, &self.dst);
        let _ = std::fs::remove_file(&self.tmp);
        match linked {
            Ok(()) => Ok(Some(stats)),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => Ok(None),
            Err(e) => {
                if self.dst.exists() {
                    // Filesystems without precise error mapping: the
                    // destination is there, so some writer won.
                    Ok(None)
                } else {
                    Err(StoreError::Io {
                        path: self.dst.display().to_string(),
                        detail: e.to_string(),
                    })
                }
            }
        }
    }
}

impl Drop for FileTraceWriter {
    fn drop(&mut self) {
        if self.inner.take().is_some() {
            // Abandoned mid-write: drop the handle, then best-effort
            // remove the temp file so nothing torn lingers on disk.
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

/// Append-only trace log: the store header, then one trace block per
/// [`push`](Self::push), with no offset index and no footer (see the
/// crate docs). Every push reaches the OS before it returns, so a
/// killed writer leaves at most one torn block at the tail;
/// [`TraceStoreReader::open_log`](crate::TraceStoreReader::open_log)
/// reads the whole blocks before it.
pub struct TraceLogWriter {
    file: std::fs::File,
    path: String,
    block: Vec<u8>,
    side: Vec<u8>,
}

impl TraceLogWriter {
    /// Opens `path` for appending, creating it if absent. The header
    /// (carrying `spec_hash`) is written only when the file is empty;
    /// otherwise blocks go after the existing bytes.
    pub fn append(path: &Path, spec_hash: u64) -> Result<TraceLogWriter, StoreError> {
        let label = path.display().to_string();
        let io = |e: std::io::Error| StoreError::Io {
            path: label.clone(),
            detail: e.to_string(),
        };
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(io)?;
        let empty = file.metadata().map_err(io)?.len() == 0;
        let mut log = TraceLogWriter {
            file,
            path: label.clone(),
            block: Vec::new(),
            side: Vec::new(),
        };
        if empty {
            encode_header(spec_hash, &mut log.block);
            log.write_block()?;
        }
        Ok(log)
    }

    /// Appends one trace block and hands it to the OS.
    pub fn push(&mut self, trace: &SimTrace) -> Result<(), StoreError> {
        encode_block(trace, &mut self.block, &mut self.side);
        self.write_block()
    }

    fn write_block(&mut self) -> Result<(), StoreError> {
        // One unbuffered `write_all` per block: nothing is held back
        // in user space once it returns.
        let written = self.file.write_all(&self.block);
        self.block.clear();
        written.map_err(|e| StoreError::Io {
            path: self.path.clone(),
            detail: e.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{FOOTER_TAIL_LEN, HEADER_LEN};
    use aps_types::{Hazard, MgDl, Step, Units, UnitsPerHour};

    fn rec(step: u32, bg: f64) -> StepRecord {
        StepRecord {
            step: Step(step),
            bg: MgDl(bg),
            bg_true: MgDl(bg + 1.0),
            iob: Units(0.5),
            commanded: UnitsPerHour(1.0),
            delivered: UnitsPerHour(1.0),
            action: aps_types::ControlAction::KeepInsulin,
            fault_active: step.is_multiple_of(2),
            hazard: None,
            alert: Some(Hazard::H1),
        }
    }

    fn trace(n: u32) -> SimTrace {
        let meta = TraceMeta {
            patient: String::from("adult#001"),
            initial_bg: 120.0,
            fault_name: String::from("none"),
            fault_start: None,
            hazard_onset: Some(Step(3)),
            hazard_type: Some(Hazard::H2),
        };
        let mut t = SimTrace::new(meta);
        for i in 0..n {
            t.push(rec(i, 100.0 + f64::from(i)));
        }
        t
    }

    #[test]
    fn empty_store_is_header_plus_tail() {
        let (buf, stats) = TraceWriter::new(Vec::new(), "<mem>", 7)
            .unwrap()
            .finish()
            .unwrap();
        assert_eq!(buf.len(), HEADER_LEN + FOOTER_TAIL_LEN);
        assert_eq!(stats.traces, 0);
        assert_eq!(stats.records, 0);
        assert_eq!(stats.bytes, buf.len() as u64);
        assert_eq!(&buf[..8], b"APSTRACE");
        assert_eq!(&buf[buf.len() - 8..], b"APSTREND");
    }

    #[test]
    fn monotone_steps_pack_to_one_byte_each() {
        let t = trace(100);
        let mut out = Vec::new();
        encode_steps(&t.records, &mut out);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn stats_count_traces_and_records() {
        let mut w = TraceWriter::new(Vec::new(), "<mem>", 0).unwrap();
        w.push(&trace(5)).unwrap();
        w.push(&trace(0)).unwrap();
        w.push(&trace(3)).unwrap();
        assert_eq!(w.trace_count(), 3);
        let (_, stats) = w.finish().unwrap();
        assert_eq!(stats.traces, 3);
        assert_eq!(stats.records, 8);
    }

    #[test]
    fn file_writer_is_atomic() {
        let dir = std::env::temp_dir().join("aps_tracestore_writer_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("atomic.apst");
        let _ = std::fs::remove_file(&path);

        // Abandoned writer leaves nothing at the destination.
        {
            let mut w = FileTraceWriter::create(&path, 0).unwrap();
            w.push(&trace(4)).unwrap();
        }
        assert!(!path.exists(), "abandoned writer must not leave a store");
        assert!(!path.with_extension("apst.tmp").exists());

        // Finalized writer leaves exactly one complete store.
        let mut w = FileTraceWriter::create(&path, 0).unwrap();
        w.push(&trace(4)).unwrap();
        let stats = w.finalize().unwrap();
        assert!(path.exists());
        assert_eq!(stats.traces, 1);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            stats.bytes,
            "stats.bytes matches the on-disk size"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_writers_first_finalize_wins() {
        let dir = std::env::temp_dir().join("aps_tracestore_unique_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache-entry.apst");
        let _ = std::fs::remove_file(&path);

        // Two writers race toward the same content-addressed name.
        let mut a = FileTraceWriter::create_unique(&path, 42).unwrap();
        let mut b = FileTraceWriter::create_unique(&path, 42).unwrap();
        a.push(&trace(4)).unwrap();
        b.push(&trace(4)).unwrap();

        let won = a.finalize_if_absent().unwrap();
        assert!(won.is_some(), "first finalize publishes the store");
        let lost = b.finalize_if_absent().unwrap();
        assert!(lost.is_none(), "second finalize is a skip, not an error");

        // The published store is complete and valid.
        let reader = crate::TraceStoreReader::open(&path).unwrap();
        assert_eq!(reader.len(), 1);
        assert_eq!(reader.header().spec_hash, 42);

        // No temp files linger in the directory.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files must be cleaned up");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn finalize_if_absent_skips_existing_store() {
        let dir = std::env::temp_dir().join("aps_tracestore_unique_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("existing.apst");
        let _ = std::fs::remove_file(&path);

        let mut w = FileTraceWriter::create_unique(&path, 7).unwrap();
        w.push(&trace(2)).unwrap();
        assert!(w.finalize_if_absent().unwrap().is_some());
        let before = std::fs::metadata(&path).unwrap().len();

        // A later writer with different content for the same name
        // (cannot happen for a content-addressed key, but the API must
        // still never clobber) leaves the original bytes in place.
        let mut w = FileTraceWriter::create_unique(&path, 7).unwrap();
        w.push(&trace(9)).unwrap();
        w.push(&trace(9)).unwrap();
        assert!(w.finalize_if_absent().unwrap().is_none());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), before);
        let _ = std::fs::remove_file(&path);
    }

    /// Writes `traces` as a fresh log at `path`; returns its bytes.
    fn write_log(path: &Path, traces: &[SimTrace]) -> Vec<u8> {
        let _ = std::fs::remove_file(path);
        let mut log = TraceLogWriter::append(path, 9).unwrap();
        for t in traces {
            log.push(t).unwrap();
        }
        std::fs::read(path).unwrap()
    }

    #[test]
    fn log_cut_anywhere_keeps_the_whole_blocks_before_the_cut() {
        let dir = std::env::temp_dir().join("aps_tracestore_log_cut");
        std::fs::create_dir_all(&dir).unwrap();
        let traces = [trace(5), trace(0), trace(7)];
        let bytes = write_log(&dir.join("shard.log"), &traces);
        let full = crate::TraceStoreReader::from_log_bytes(bytes.clone()).unwrap();
        assert_eq!(full.read_all(), traces);
        assert_eq!(full.header().spec_hash, 9);
        let ends: Vec<u64> = (0..traces.len()).map(|i| full.block_end(i)).collect();
        assert_eq!(ends[2], bytes.len() as u64);
        // Every cut inside the header and inside the last block.
        let cuts = (0..HEADER_LEN).chain(ends[1] as usize..bytes.len());
        for cut in cuts {
            let log = crate::TraceStoreReader::from_log_bytes(bytes[..cut].to_vec()).unwrap();
            let whole = ends.iter().filter(|&&e| e as usize <= cut).count();
            assert_eq!(log.read_all(), traces[..whole], "cut at byte {cut}");
            let kept = if whole == 0 { 0 } else { ends[whole - 1] };
            assert_eq!(log.byte_len(), kept, "cut at byte {cut}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn log_truncated_then_appended_matches_an_uninterrupted_log() {
        let dir = std::env::temp_dir().join("aps_tracestore_log_resume");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard.log");
        let traces = [trace(3), trace(9), trace(0), trace(4)];
        let reference = write_log(&path, &traces);
        for k in 0..=traces.len() {
            write_log(&path, &traces);
            let log = crate::TraceStoreReader::open_log(&path).unwrap();
            let end = if k == 0 { 0 } else { log.block_end(k - 1) };
            let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            file.set_len(end).unwrap();
            drop(file);
            let mut w = TraceLogWriter::append(&path, 9).unwrap();
            for t in &traces[k..] {
                w.push(t).unwrap();
            }
            assert_eq!(
                std::fs::read(&path).unwrap(),
                reference,
                "resumed after {k}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn log_rejects_foreign_bytes() {
        let not_a_log = b"{\"job_index\": 0}".to_vec();
        assert_eq!(
            crate::TraceStoreReader::from_log_bytes(not_a_log).unwrap_err(),
            StoreError::BadMagic
        );
        let missing = std::env::temp_dir().join("aps_tracestore_no_such.log");
        assert!(matches!(
            crate::TraceStoreReader::open_log(&missing),
            Err(StoreError::Io { .. })
        ));
    }
}
