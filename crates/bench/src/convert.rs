//! `repro convert` — move trace corpora between JSONL and the binary
//! trace store, with a measured round-trip verification.
//!
//! ```text
//! repro convert <input> --to-store corpus.apst [--verify]
//! repro convert <input> --to-jsonl corpus.jsonl [--verify]
//! repro convert --gen-quick --to-store corpus.apst --verify
//! ```
//!
//! The input format is sniffed from the file's magic bytes (a store
//! starts with `APSTRACE`; anything else is treated as JSONL).
//! `--gen-quick` runs the quick campaign instead of reading a file —
//! the CI smoke path. `--verify` re-encodes the corpus both ways in
//! memory, checks the store read path yields bit-identical
//! [`SimTrace`]s, measures read throughput and file size against
//! JSONL, and records everything in `results/convert_verify.json`.
//! Besides full materialization it times the two other store access
//! shapes: iterating every trace's record views
//! ([`ConvertReport::store_iter_records_per_s`], replay-shaped) and
//! copying the `bg` and `commanded` columns
//! ([`ConvertReport::store_columns_records_per_s`], dataset-shaped).
//!
//! Exit codes: 0 converted (and verified), 1 runtime failure or
//! verification mismatch, 2 usage error.

use aps_sim::campaign::{run_campaign, run_campaign_with_workers, CampaignSpec};
use aps_sim::checkpoint::{spec_hash, trace_digest};
use aps_sim::io::{read_jsonl, write_jsonl};
use aps_sim::platform::Platform;
use aps_tracestore::{
    to_hex, write_store, F64Column, FileTraceWriter, StoreError, StoreStats, TraceStoreReader,
};
use aps_types::SimTrace;
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Measured result of a `--verify` round trip, recorded as JSON so CI
/// artifacts carry the numbers. Hashes are hex; the counts and
/// float measurements stay exact in the f64-backed JSON shim.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
#[serde(default)]
pub struct ConvertReport {
    /// Where the corpus came from (`<quick campaign>` for `--gen-quick`).
    pub input: String,
    /// Traces in the corpus.
    // lint: hex-exempt — trace counts stay far below 2^53.
    pub traces: u64,
    /// Step records in the corpus.
    // lint: hex-exempt — record counts stay far below 2^53.
    pub records: u64,
    /// Bytes of the corpus as JSONL.
    // lint: hex-exempt — sizes stay far below 2^53.
    pub jsonl_bytes: u64,
    /// Bytes of the corpus as a binary store.
    // lint: hex-exempt — sizes stay far below 2^53.
    pub store_bytes: u64,
    /// `store_bytes / jsonl_bytes` (acceptance target ≤ 0.5).
    pub size_ratio: f64,
    /// JSONL read throughput, records per second (best of 3).
    pub jsonl_read_records_per_s: f64,
    /// Store read throughput, records per second (best of 3; open +
    /// materialize every trace).
    pub store_read_records_per_s: f64,
    /// `store / jsonl` read throughput (acceptance target ≥ 5).
    pub read_speedup: f64,
    /// Record-view iteration over every trace of the open store,
    /// records per second (best of 3).
    pub store_iter_records_per_s: f64,
    /// `bg` + `commanded` column copies of every trace of the open
    /// store, records per second (best of 3).
    pub store_columns_records_per_s: f64,
    /// True when the store read path returned `SimTrace`s bit-identical
    /// to the source corpus (exact f64 bits, via `trace_digest`).
    pub bit_identical: bool,
    /// Folded per-trace content digest of the corpus (hex).
    pub corpus_digest: String,
}

struct ConvertFlags {
    input: Option<String>,
    to_store: Option<String>,
    to_jsonl: Option<String>,
    verify: bool,
    gen_quick: bool,
    out_dir: Option<String>,
}

fn parse(args: &[String]) -> Result<ConvertFlags, String> {
    let mut flags = ConvertFlags {
        input: None,
        to_store: None,
        to_jsonl: None,
        verify: false,
        gen_quick: false,
        out_dir: Some("results".to_owned()),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--to-store" => {
                let v = it.next().ok_or("missing value for --to-store")?;
                flags.to_store = Some(v.clone());
            }
            "--to-jsonl" => {
                let v = it.next().ok_or("missing value for --to-jsonl")?;
                flags.to_jsonl = Some(v.clone());
            }
            "--verify" => flags.verify = true,
            "--gen-quick" => flags.gen_quick = true,
            "--out" => {
                let v = it.next().ok_or("missing value for --out")?;
                flags.out_dir = Some(v.clone());
            }
            "--no-out" => flags.out_dir = None,
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`"));
            }
            other => {
                if flags.input.is_some() {
                    return Err(format!("unexpected extra input `{other}`"));
                }
                flags.input = Some(other.to_owned());
            }
        }
    }
    if flags.gen_quick && flags.input.is_some() {
        return Err("--gen-quick replaces the input file; drop one of them".to_owned());
    }
    if !flags.gen_quick && flags.input.is_none() {
        return Err("missing input (a file path, or --gen-quick)".to_owned());
    }
    if flags.to_store.is_none() && flags.to_jsonl.is_none() && !flags.verify {
        return Err("nothing to do: pass --to-store, --to-jsonl, and/or --verify".to_owned());
    }
    Ok(flags)
}

/// Loads the corpus named by the CLI: a quick campaign, a binary
/// store, or a JSONL file (sniffed by magic). Returns the traces, the
/// spec hash to stamp into store output, and a display name.
fn load_corpus(flags: &ConvertFlags) -> Result<(Vec<SimTrace>, u64, String), String> {
    if flags.gen_quick {
        let spec = CampaignSpec::quick(Platform::GlucosymOref0);
        let traces = run_campaign(&spec, None);
        return Ok((traces, spec_hash(&spec), "<quick campaign>".to_owned()));
    }
    let Some(path) = flags.input.as_deref() else {
        return Err("missing input (a file path, or --gen-quick)".to_owned());
    };
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    if bytes.len() >= 8 && &bytes[..8] == b"APSTRACE" {
        let reader = TraceStoreReader::from_bytes(bytes).map_err(|e| e.to_string())?;
        let hash = reader.header().spec_hash;
        Ok((reader.read_all(), hash, path.to_owned()))
    } else {
        let traces = read_jsonl(&bytes[..]).map_err(|e| format!("`{path}` as JSONL: {e}"))?;
        Ok((traces, 0, path.to_owned()))
    }
}

/// Folds every trace's content digest into one corpus digest.
fn corpus_digest(traces: &[SimTrace]) -> u64 {
    traces.iter().fold(0xCBF2_9CE4_8422_2325u64, |acc, t| {
        acc.wrapping_mul(0x0000_0100_0000_01B3) ^ trace_digest(t)
    })
}

/// Best-of-3 wall-clock for `f`, in seconds.
fn best_of_3(mut f: impl FnMut()) -> f64 {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Runs the measured round-trip verification on an in-memory corpus.
pub fn verify_corpus(traces: &[SimTrace], hash: u64, input: &str) -> Result<ConvertReport, String> {
    let records: u64 = traces.iter().map(|t| t.records.len() as u64).sum();

    let mut jsonl = Vec::new();
    write_jsonl(traces, &mut jsonl).map_err(|e| format!("JSONL encode: {e}"))?;
    let store = write_store(traces, hash).map_err(|e| e.to_string())?;

    // Decode failures inside the timed closures count as a length
    // mismatch; both paths are re-decoded fallibly below anyway.
    let jsonl_s = best_of_3(|| {
        let n = read_jsonl(&jsonl[..])
            .map(|b| b.len())
            .unwrap_or(usize::MAX);
        assert_eq!(n, traces.len(), "re-reading our own JSONL");
    });
    let store_s = best_of_3(|| {
        let n = TraceStoreReader::from_bytes(store.clone())
            .map(|r| r.read_all().len())
            .unwrap_or(usize::MAX);
        assert_eq!(n, traces.len(), "re-reading our own store");
    });

    let reader = TraceStoreReader::from_bytes(store.clone()).map_err(|e| e.to_string())?;
    let iter_s = best_of_3(|| {
        let n: usize = reader.iter().map(|view| view.records().count()).sum();
        assert_eq!(n as u64, records, "iterating our own store");
    });
    let (mut bg, mut commanded) = (Vec::new(), Vec::new());
    let columns_s = best_of_3(|| {
        let mut n = 0;
        for view in reader.iter() {
            view.copy_f64_column(F64Column::Bg, &mut bg);
            view.copy_f64_column(F64Column::Commanded, &mut commanded);
            n += black_box(&commanded).len();
        }
        assert_eq!(n as u64, records, "copying our own store's columns");
    });
    let store_traces = reader.read_all();
    let jsonl_traces = read_jsonl(&jsonl[..]).map_err(|e| format!("JSONL decode: {e}"))?;
    let digest = corpus_digest(traces);
    let bit_identical = corpus_digest(&store_traces) == digest
        && store_traces == traces
        && corpus_digest(&jsonl_traces) == digest;

    let per_s = |secs: f64| {
        if secs > 0.0 {
            records as f64 / secs
        } else {
            f64::INFINITY
        }
    };
    let jsonl_rps = per_s(jsonl_s);
    let store_rps = per_s(store_s);
    Ok(ConvertReport {
        input: input.to_owned(),
        traces: traces.len() as u64,
        records,
        jsonl_bytes: jsonl.len() as u64,
        store_bytes: store.len() as u64,
        size_ratio: store.len() as f64 / jsonl.len().max(1) as f64,
        jsonl_read_records_per_s: jsonl_rps,
        store_read_records_per_s: store_rps,
        read_speedup: store_rps / jsonl_rps,
        store_iter_records_per_s: per_s(iter_s),
        store_columns_records_per_s: per_s(columns_s),
        bit_identical,
        corpus_digest: to_hex(digest),
    })
}

fn print_report(r: &ConvertReport) {
    println!("convert --verify: {}", r.input);
    println!("  traces          : {}", r.traces);
    println!("  records         : {}", r.records);
    println!(
        "  size            : store {} B vs JSONL {} B  ({:.3}x)",
        r.store_bytes, r.jsonl_bytes, r.size_ratio
    );
    println!(
        "  read throughput : store {:.0} rec/s vs JSONL {:.0} rec/s  ({:.1}x)",
        r.store_read_records_per_s, r.jsonl_read_records_per_s, r.read_speedup
    );
    println!(
        "  store access    : record views {:.0} rec/s, bg+commanded columns {:.0} rec/s",
        r.store_iter_records_per_s, r.store_columns_records_per_s
    );
    println!(
        "  bit-identical   : {}  (digest {})",
        if r.bit_identical { "yes" } else { "NO" },
        r.corpus_digest
    );
}

/// The `repro convert` entry point. Returns the process exit code:
/// 0 on success, 1 on runtime failure or verification mismatch, 2 on
/// usage errors.
pub fn run_convert(args: &[String]) -> i32 {
    let flags = match parse(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: repro convert <input>|--gen-quick \
                 [--to-store F] [--to-jsonl F] [--verify] [--out DIR|--no-out]"
            );
            return 2;
        }
    };

    let (traces, hash, input) = match load_corpus(&flags) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };

    if let Some(path) = &flags.to_store {
        match write_store_file(Path::new(path), &traces, hash) {
            Ok(stats) => println!(
                "wrote {path}: {} traces, {} records, {} B",
                stats.traces, stats.records, stats.bytes
            ),
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        }
    }
    if let Some(path) = &flags.to_jsonl {
        let file = match std::fs::File::create(path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("error: cannot create `{path}`: {e}");
                return 1;
            }
        };
        if let Err(e) = write_jsonl(&traces, file) {
            eprintln!("error: writing `{path}`: {e}");
            return 1;
        }
        println!("wrote {path}: {} traces (JSONL)", traces.len());
    }

    if flags.verify {
        let report = match verify_corpus(&traces, hash, &input) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        };
        print_report(&report);
        if let Some(dir) = &flags.out_dir {
            let dir = Path::new(dir);
            if std::fs::create_dir_all(dir).is_ok() {
                let path = dir.join("convert_verify.json");
                match serde_json::to_string_pretty(&report) {
                    Ok(json) => {
                        if let Err(e) = std::fs::write(&path, json) {
                            eprintln!("warning: cannot write {}: {e}", path.display());
                        }
                    }
                    Err(e) => eprintln!("warning: cannot serialize report: {e:?}"),
                }
            }
        }
        if !report.bit_identical {
            eprintln!("error: store round trip is NOT bit-identical to the source corpus");
            return 1;
        }
    }
    0
}

/// Writes `traces` to a store file via the atomic temp-and-rename
/// writer.
fn write_store_file(path: &Path, traces: &[SimTrace], hash: u64) -> Result<StoreStats, StoreError> {
    let mut w = FileTraceWriter::create(path, hash)?;
    for t in traces {
        w.push(t)?;
    }
    w.finalize()
}

/// Streams the quick campaign straight into a store file — the
/// `repro bench-campaign --store PATH` path. The writer is the
/// campaign sink, so the corpus is never resident in memory.
pub fn emit_quick_store(path: &Path) -> Result<StoreStats, String> {
    let spec = CampaignSpec::quick(Platform::GlucosymOref0);
    let mut w = FileTraceWriter::create(path, spec_hash(&spec)).map_err(|e| e.to_string())?;
    let mut write_err: Option<StoreError> = None;
    run_campaign_with_workers(&spec, None, None, |_, trace| {
        if write_err.is_none() {
            if let Err(e) = w.push(&trace) {
                write_err = Some(e);
            }
        }
    });
    if let Some(e) = write_err {
        return Err(e.to_string());
    }
    w.finalize().map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `convert_verify.json` as written before the store-access rates
    /// existed.
    const OLD_REPORT: &str = r#"{
  "input": "<quick campaign>",
  "traces": 62,
  "records": 9300,
  "jsonl_bytes": 1886919,
  "store_bytes": 415076,
  "size_ratio": 0.219975526241455,
  "jsonl_read_records_per_s": 28779.333215465977,
  "store_read_records_per_s": 29555804.85541491,
  "read_speedup": 1026.9801817205291,
  "bit_identical": true,
  "corpus_digest": "f701565451764a6a"
}"#;

    #[test]
    fn verify_measures_every_store_access_shape() {
        let spec = CampaignSpec {
            patient_indices: vec![0],
            ..CampaignSpec::quick(Platform::GlucosymOref0)
        };
        let traces = run_campaign(&spec, None);
        let report = verify_corpus(&traces, spec_hash(&spec), "one patient").unwrap();
        assert!(report.bit_identical);
        assert_eq!(report.traces, traces.len() as u64);
        for rate in [
            report.store_iter_records_per_s,
            report.store_columns_records_per_s,
        ] {
            assert!(rate.is_finite() && rate > 0.0, "{report:?}");
        }
    }

    #[test]
    fn report_without_store_access_rates_still_loads() {
        let report: ConvertReport = serde_json::from_str(OLD_REPORT).unwrap();
        assert!(report.bit_identical);
        assert_eq!(report.records, 9300);
        assert_eq!(report.store_iter_records_per_s, 0.0);
        assert_eq!(report.store_columns_records_per_s, 0.0);
    }
}
