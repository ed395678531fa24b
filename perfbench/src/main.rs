//! Command-line entry point; see the library docs for the contract.

use std::path::PathBuf;
use std::process::ExitCode;

use aps_perfbench::harness::{report_json, result_line, Config, Size, Workload};

const USAGE: &str =
    "usage: perfbench --workload <cohort_campaign|design_deploy> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        size: Size::Full,
        tmp_root: PathBuf::from(".perfbench_tmp"),
        out_dir: PathBuf::from(".perfbench_out"),
    })
}

fn write_outputs(cfg: &Config, outcome: &aps_perfbench::harness::Outcome, line: &str) {
    let stem = format!(
        "{}-seed{}-trace{}",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace)
    );
    if std::fs::create_dir_all(&cfg.out_dir).is_err() {
        return;
    }
    let report = cfg.out_dir.join(format!("{stem}.json"));
    if let Err(e) = std::fs::write(&report, report_json(outcome, line)) {
        eprintln!("perfbench: cannot write {}: {e}", report.display());
    }
    if let Some(tr) = &outcome.tracer {
        let path = cfg.out_dir.join(format!("{stem}.spans.jsonl"));
        let written = std::fs::File::create(&path)
            .map(std::io::BufWriter::new)
            .and_then(|f| tr.write_jsonl(f));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match aps_perfbench::run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cfg.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let line = match result_line(&outcome, cfg.trace) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (k, v) in &outcome.env {
        eprintln!("perfbench env: {k} = {v}");
    }
    write_outputs(&cfg, &outcome, &line);
    println!("{line}");
    if outcome.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
