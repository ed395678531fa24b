//! Zero-copy store reader: validate once at open, then infallible,
//! allocation-free access.
//!
//! [`TraceStoreReader::open`] reads the whole file into one buffer and
//! eagerly validates every block — header, footer, offset index, step
//! varints, enum bytes, side-table framing. All the fallible work
//! happens there, so [`view`](TraceStoreReader::view) is infallible
//! and iterating a [`TraceView`]'s records decodes straight off the
//! column bytes without touching the heap. Owned [`SimTrace`]s are
//! materialized only on demand.

use crate::format::{
    byte_to_action, byte_to_hazard, read_f64, read_u32, read_u64, read_varint, unzigzag,
    StoreError, END_MAGIC, FOOTER_TAIL_LEN, FORMAT_VERSION, HEADER_LEN, MAGIC,
};
use aps_types::{AlertTrack, MgDl, SimTrace, Step, StepRecord, TraceMeta, Units, UnitsPerHour};
use std::path::Path;

/// The five `f64` columns of a trace block, in on-disk order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum F64Column {
    /// CGM-observed blood glucose (mg/dL).
    Bg,
    /// True (plant) blood glucose (mg/dL).
    BgTrue,
    /// Insulin on board (U).
    Iob,
    /// Commanded basal rate (U/h).
    Commanded,
    /// Delivered basal rate (U/h).
    Delivered,
}

/// Validated byte ranges of one trace block. All offsets are absolute
/// into the store buffer and pre-checked, so access through them never
/// fails.
#[derive(Debug, Clone)]
struct BlockLayout {
    n: usize,
    steps_off: usize,
    cols_off: usize,
    meta_off: usize,
    meta_len: usize,
    tracks_off: usize,
    tracks_len: usize,
}

impl BlockLayout {
    fn col_off(&self, col: F64Column) -> usize {
        let idx = match col {
            F64Column::Bg => 0,
            F64Column::BgTrue => 1,
            F64Column::Iob => 2,
            F64Column::Commanded => 3,
            F64Column::Delivered => 4,
        };
        self.cols_off + idx * 8 * self.n
    }

    fn end(&self) -> usize {
        self.tracks_off + self.tracks_len
    }

    fn action_off(&self) -> usize {
        self.cols_off + 40 * self.n
    }

    fn bitset_off(&self) -> usize {
        self.action_off() + self.n
    }

    fn hazard_off(&self) -> usize {
        self.bitset_off() + self.n.div_ceil(8)
    }

    fn alert_off(&self) -> usize {
        self.hazard_off() + self.n
    }
}

/// Header fields of an open store (all zero for a log cut inside its
/// header).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreHeader {
    /// Format version found in the file (≤ [`FORMAT_VERSION`]).
    pub format_version: u32,
    /// Hash of the code that wrote the store.
    pub code_version_hash: u64,
    /// Campaign spec fingerprint recorded at write time (0 = unknown).
    pub spec_hash: u64,
}

/// An open, fully validated trace store.
pub struct TraceStoreReader {
    buf: Vec<u8>,
    header: StoreHeader,
    blocks: Vec<BlockLayout>,
}

impl std::fmt::Debug for TraceStoreReader {
    /// Compact summary — the buffer itself can be cohort-scale.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceStoreReader")
            .field("header", &self.header)
            .field("traces", &self.blocks.len())
            .field("bytes", &self.buf.len())
            .finish()
    }
}

impl TraceStoreReader {
    /// Reads `path` into memory and validates it end to end.
    pub fn open(path: &Path) -> Result<TraceStoreReader, StoreError> {
        TraceStoreReader::from_bytes(read_file(path)?)
    }

    /// Validates an in-memory store image. Every structural check the
    /// format allows happens here: anything that passes yields a
    /// reader whose accessors are infallible.
    pub fn from_bytes(buf: Vec<u8>) -> Result<TraceStoreReader, StoreError> {
        if buf.len() < 8 || buf[..8] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        if buf.len() < HEADER_LEN + FOOTER_TAIL_LEN {
            return Err(StoreError::Truncated {
                detail: String::from("file shorter than header + footer"),
            });
        }
        let header = read_header(&buf)?;

        let tail = buf.len() - FOOTER_TAIL_LEN;
        if buf[buf.len() - 8..] != END_MAGIC {
            return Err(StoreError::Truncated {
                detail: String::from("end magic missing (torn write?)"),
            });
        }
        let index_offset = read_u64(&buf, tail) as usize;
        let trace_count = read_u64(&buf, tail + 8) as usize;
        let index_len = trace_count
            .checked_mul(8)
            .ok_or_else(|| StoreError::Corrupt {
                offset: tail + 8,
                detail: String::from("trace count overflows the index"),
            })?;
        if index_offset < HEADER_LEN || index_offset.checked_add(index_len) != Some(tail) {
            return Err(StoreError::Corrupt {
                offset: tail,
                detail: String::from("offset index does not fit between header and footer"),
            });
        }

        let mut blocks = Vec::with_capacity(trace_count);
        for i in 0..trace_count {
            let off = read_u64(&buf, index_offset + 8 * i) as usize;
            if off < HEADER_LEN || off >= index_offset {
                return Err(StoreError::Corrupt {
                    offset: index_offset + 8 * i,
                    detail: String::from("trace offset out of range"),
                });
            }
            blocks.push(validate_block(&buf, off, index_offset)?);
        }

        Ok(TraceStoreReader {
            buf,
            header,
            blocks,
        })
    }

    /// Reads the append-only trace log at `path` (see
    /// [`TraceLogWriter`](crate::TraceLogWriter)) and keeps its whole
    /// blocks. It scans the header, then validates blocks one after
    /// another until the first that does not validate, which is the
    /// torn tail a killed appender leaves. Bytes past the last whole
    /// block are dropped, so [`block_end`](Self::block_end) of the
    /// last block equals [`byte_len`](Self::byte_len). A log cut
    /// inside its header holds no blocks and no bytes.
    pub fn open_log(path: &Path) -> Result<TraceStoreReader, StoreError> {
        TraceStoreReader::from_log_bytes(read_file(path)?)
    }

    /// [`open_log`](Self::open_log) over an in-memory log image.
    pub(crate) fn from_log_bytes(mut buf: Vec<u8>) -> Result<TraceStoreReader, StoreError> {
        if !buf.starts_with(&MAGIC[..buf.len().min(MAGIC.len())]) {
            return Err(StoreError::BadMagic);
        }
        if buf.len() < HEADER_LEN {
            return Ok(TraceStoreReader {
                buf: Vec::new(),
                header: StoreHeader::default(),
                blocks: Vec::new(),
            });
        }
        let header = read_header(&buf)?;
        let mut blocks = Vec::new();
        let mut end = HEADER_LEN;
        while let Ok(block) = validate_block(&buf, end, buf.len()) {
            end = block.end();
            blocks.push(block);
        }
        buf.truncate(end);
        Ok(TraceStoreReader {
            buf,
            header,
            blocks,
        })
    }

    /// Byte offset just past trace `i`'s block. Panics if
    /// `i >= len()`, like [`view`](Self::view).
    pub fn block_end(&self, i: usize) -> u64 {
        self.blocks[i].end() as u64
    }

    /// Number of traces in the store.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True when the store holds no traces.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Header fields (format version, code-version hash, spec hash).
    pub fn header(&self) -> StoreHeader {
        self.header
    }

    /// Total step records across all traces.
    pub fn total_records(&self) -> u64 {
        self.blocks.iter().map(|b| b.n as u64).sum()
    }

    /// Store image size in bytes.
    pub fn byte_len(&self) -> u64 {
        self.buf.len() as u64
    }

    /// Zero-copy view of trace `i`. Panics if `i >= len()` — the
    /// index is the caller's loop variable, not untrusted input.
    pub fn view(&self, i: usize) -> TraceView<'_> {
        TraceView {
            buf: &self.buf,
            layout: &self.blocks[i],
        }
    }

    /// Materializes trace `i` as an owned [`SimTrace`].
    pub fn get(&self, i: usize) -> SimTrace {
        self.view(i).materialize()
    }

    /// Iterates zero-copy views over all traces.
    pub fn iter(&self) -> impl Iterator<Item = TraceView<'_>> {
        (0..self.blocks.len()).map(|i| self.view(i))
    }

    /// Materializes the whole store (the JSONL-compatible bulk path).
    pub fn read_all(&self) -> Vec<SimTrace> {
        self.iter().map(|v| v.materialize()).collect()
    }
}

fn read_file(path: &Path) -> Result<Vec<u8>, StoreError> {
    std::fs::read(path).map_err(|e| StoreError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    })
}

/// Parses the 32-byte header; the caller has checked magic and length.
fn read_header(buf: &[u8]) -> Result<StoreHeader, StoreError> {
    let format_version = read_u32(buf, 8);
    if format_version > FORMAT_VERSION {
        return Err(StoreError::Version {
            found: format_version,
            supported: FORMAT_VERSION,
        });
    }
    Ok(StoreHeader {
        format_version,
        code_version_hash: read_u64(buf, 16),
        spec_hash: read_u64(buf, 24),
    })
}

/// Checks the framing and contents of the block at `off`, which must
/// end by `end`; returns its layout.
fn validate_block(buf: &[u8], off: usize, end: usize) -> Result<BlockLayout, StoreError> {
    // Framing helper: ensure `want` bytes exist at `at` inside the block region.
    let need = |at: usize, want: usize| -> Result<(), StoreError> {
        match at.checked_add(want) {
            Some(e) if e <= end => Ok(()),
            _ => Err(StoreError::Truncated {
                detail: format!("trace block at byte {off} runs past byte {end}"),
            }),
        }
    };

    need(off, 8)?;
    let n = read_u32(buf, off) as usize;
    let steps_len = read_u32(buf, off + 4) as usize;
    let steps_off = off + 8;
    need(steps_off, steps_len)?;

    // Step column: exactly n varints filling exactly steps_len bytes.
    let mut pos = steps_off;
    for _ in 0..n {
        if read_varint(&buf[..steps_off + steps_len], &mut pos).is_none() {
            return Err(StoreError::Corrupt {
                offset: pos,
                detail: String::from("step varint truncated"),
            });
        }
    }
    if pos != steps_off + steps_len {
        return Err(StoreError::Corrupt {
            offset: pos,
            detail: String::from("step column length does not match record count"),
        });
    }

    let cols_off = steps_off + steps_len;
    let cols_len = 43 * n + n.div_ceil(8);
    need(cols_off, cols_len)?;
    let layout = BlockLayout {
        n,
        steps_off,
        cols_off,
        meta_off: 0,
        meta_len: 0,
        tracks_off: 0,
        tracks_len: 0,
    };
    for i in 0..n {
        if byte_to_action(buf[layout.action_off() + i]).is_none() {
            return Err(StoreError::Corrupt {
                offset: layout.action_off() + i,
                detail: String::from("invalid action byte"),
            });
        }
        if byte_to_hazard(buf[layout.hazard_off() + i]).is_none() {
            return Err(StoreError::Corrupt {
                offset: layout.hazard_off() + i,
                detail: String::from("invalid hazard byte"),
            });
        }
        if byte_to_hazard(buf[layout.alert_off() + i]).is_none() {
            return Err(StoreError::Corrupt {
                offset: layout.alert_off() + i,
                detail: String::from("invalid alert byte"),
            });
        }
    }

    let mut cursor = cols_off + cols_len;
    need(cursor, 4)?;
    let meta_len = read_u32(buf, cursor) as usize;
    let meta_off = cursor + 4;
    need(meta_off, meta_len)?;
    if decode_meta(&buf[meta_off..meta_off + meta_len]).is_none() {
        return Err(StoreError::Corrupt {
            offset: meta_off,
            detail: String::from("trace meta fails to decode"),
        });
    }

    cursor = meta_off + meta_len;
    need(cursor, 4)?;
    let tracks_len = read_u32(buf, cursor) as usize;
    let tracks_off = cursor + 4;
    need(tracks_off, tracks_len)?;
    if decode_tracks(&buf[tracks_off..tracks_off + tracks_len]).is_none() {
        return Err(StoreError::Corrupt {
            offset: tracks_off,
            detail: String::from("monitor tracks fail to decode"),
        });
    }

    Ok(BlockLayout {
        meta_off,
        meta_len,
        tracks_off,
        tracks_len,
        ..layout
    })
}

/// Decodes a meta region. Fields missing entirely from a shorter
/// (older-writer) region default; a field that *starts* but cannot
/// finish is an error (`None`). Trailing bytes from a newer writer are
/// ignored.
fn decode_meta(buf: &[u8]) -> Option<TraceMeta> {
    let mut meta = TraceMeta::default();
    let mut pos = 0usize;

    let Some(len) = read_varint(buf, &mut pos) else {
        return if pos == 0 { Some(meta) } else { None };
    };
    let s = buf.get(pos..pos + len as usize)?;
    meta.patient = String::from_utf8(s.to_vec()).ok()?;
    pos += len as usize;

    let Some(len) = read_varint(buf, &mut pos) else {
        return if pos == buf.len() { Some(meta) } else { None };
    };
    let s = buf.get(pos..pos + len as usize)?;
    meta.fault_name = String::from_utf8(s.to_vec()).ok()?;
    pos += len as usize;

    if pos == buf.len() {
        return Some(meta);
    }
    let bits = buf.get(pos..pos + 8)?;
    let mut b = [0u8; 8];
    b.copy_from_slice(bits);
    meta.initial_bg = f64::from_bits(u64::from_le_bytes(b));
    pos += 8;

    let Some(v) = read_varint(buf, &mut pos) else {
        return if pos == buf.len() { Some(meta) } else { None };
    };
    meta.fault_start = decode_opt_step(v)?;

    let Some(v) = read_varint(buf, &mut pos) else {
        return if pos == buf.len() { Some(meta) } else { None };
    };
    meta.hazard_onset = decode_opt_step(v)?;

    if pos == buf.len() {
        return Some(meta);
    }
    meta.hazard_type = byte_to_hazard(buf[pos])?;
    // Anything after this is a newer writer's extension: ignored.
    Some(meta)
}

/// Decodes the `0 = None, else step + 1` optional-step encoding.
fn decode_opt_step(v: u64) -> Option<Option<Step>> {
    if v == 0 {
        Some(None)
    } else if v - 1 <= u64::from(u32::MAX) {
        Some(Some(Step((v - 1) as u32)))
    } else {
        None
    }
}

/// Decodes the monitor-track side table; `None` on any framing error.
fn decode_tracks(buf: &[u8]) -> Option<Vec<AlertTrack>> {
    let mut pos = 0usize;
    if buf.is_empty() {
        return Some(Vec::new()); // older writer: no track table at all
    }
    let count = read_varint(buf, &mut pos)?;
    let mut tracks = Vec::with_capacity(count.min(1024) as usize);
    for _ in 0..count {
        let name_len = read_varint(buf, &mut pos)? as usize;
        let name = buf.get(pos..pos + name_len)?;
        let monitor = String::from_utf8(name.to_vec()).ok()?;
        pos += name_len;
        let alerts_len = read_varint(buf, &mut pos)? as usize;
        let bytes = buf.get(pos..pos + alerts_len)?;
        let mut alerts = Vec::with_capacity(alerts_len);
        for &b in bytes {
            alerts.push(byte_to_hazard(b)?);
        }
        pos += alerts_len;
        tracks.push(AlertTrack { monitor, alerts });
    }
    Some(tracks)
}

/// Zero-copy view of one trace inside an open store.
///
/// All accessors are infallible: the block was validated when the
/// store was opened. Column reads and [`records`](Self::records)
/// decode directly off the store buffer without allocating; only
/// [`meta`](Self::meta), [`tracks`](Self::tracks), and
/// [`materialize`](Self::materialize) build owned values.
#[derive(Clone, Copy)]
pub struct TraceView<'a> {
    buf: &'a [u8],
    layout: &'a BlockLayout,
}

impl<'a> TraceView<'a> {
    /// Number of step records in this trace.
    pub fn len(&self) -> usize {
        self.layout.n
    }

    /// True when the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.layout.n == 0
    }

    /// Reads one value from an `f64` column (bit-exact).
    pub fn f64_at(&self, col: F64Column, i: usize) -> f64 {
        debug_assert!(i < self.layout.n);
        read_f64(self.buf, self.layout.col_off(col) + 8 * i)
    }

    /// Copies a whole `f64` column into `out` (cleared first). The
    /// caller's buffer is reused across traces, so a campaign-long
    /// scan allocates only when a trace is longer than every previous
    /// one.
    pub fn copy_f64_column(&self, col: F64Column, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.layout.n);
        let base = self.layout.col_off(col);
        for i in 0..self.layout.n {
            out.extend_from_slice(&[read_f64(self.buf, base + 8 * i)]);
        }
    }

    /// Iterates the records of this trace, decoding each
    /// [`StepRecord`] straight off the columns without allocating.
    pub fn records(&self) -> RecordCursor<'a> {
        RecordCursor {
            buf: self.buf,
            layout: self.layout.clone(),
            i: 0,
            steps_pos: self.layout.steps_off,
            prev_step: 0,
        }
    }

    /// Decodes this trace's [`TraceMeta`] (allocates the strings).
    pub fn meta(&self) -> TraceMeta {
        let region = &self.buf[self.layout.meta_off..self.layout.meta_off + self.layout.meta_len];
        // Validated at open; default is unreachable.
        decode_meta(region).unwrap_or_default()
    }

    /// Decodes this trace's monitor side table.
    pub fn tracks(&self) -> Vec<AlertTrack> {
        let region =
            &self.buf[self.layout.tracks_off..self.layout.tracks_off + self.layout.tracks_len];
        // Validated at open; default is unreachable.
        decode_tracks(region).unwrap_or_default()
    }

    /// Materializes an owned [`SimTrace`] from this view.
    pub fn materialize(&self) -> SimTrace {
        SimTrace {
            meta: self.meta(),
            records: self.records().collect(),
            monitor_tracks: self.tracks(),
        }
    }
}

/// Allocation-free record iterator over one trace's columns.
pub struct RecordCursor<'a> {
    buf: &'a [u8],
    layout: BlockLayout,
    i: usize,
    steps_pos: usize,
    prev_step: i64,
}

impl Iterator for RecordCursor<'_> {
    type Item = StepRecord;

    fn next(&mut self) -> Option<StepRecord> {
        if self.i >= self.layout.n {
            return None;
        }
        let i = self.i;
        // Validated at open: the varint read cannot fail here.
        let delta = read_varint(self.buf, &mut self.steps_pos)?;
        self.prev_step += unzigzag(delta);
        let step = Step(self.prev_step as u32);
        let fault_byte = self.buf[self.layout.bitset_off() + i / 8];
        let rec = StepRecord {
            step,
            bg: MgDl(read_f64(
                self.buf,
                self.layout.col_off(F64Column::Bg) + 8 * i,
            )),
            bg_true: MgDl(read_f64(
                self.buf,
                self.layout.col_off(F64Column::BgTrue) + 8 * i,
            )),
            iob: Units(read_f64(
                self.buf,
                self.layout.col_off(F64Column::Iob) + 8 * i,
            )),
            commanded: UnitsPerHour(read_f64(
                self.buf,
                self.layout.col_off(F64Column::Commanded) + 8 * i,
            )),
            delivered: UnitsPerHour(read_f64(
                self.buf,
                self.layout.col_off(F64Column::Delivered) + 8 * i,
            )),
            action: byte_to_action(self.buf[self.layout.action_off() + i])?,
            fault_active: fault_byte & (1 << (i % 8)) != 0,
            hazard: byte_to_hazard(self.buf[self.layout.hazard_off() + i])?,
            alert: byte_to_hazard(self.buf[self.layout.alert_off() + i])?,
        };
        self.i += 1;
        Some(rec)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.layout.n - self.i;
        (rem, Some(rem))
    }
}
