//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p aps-bench --bin repro -- <experiment> [flags]
//!
//! experiments:
//!   fig3                  loss-function shapes
//!   fig7                  hazard coverage per patient + TTH distribution
//!   fig8                  hazard coverage by fault type x initial BG
//!   fig9                  reaction time per monitor
//!   table5                CAWT vs Guideline/MPC/CAWOT (both platforms)
//!   table6                CAWT vs DT/MLP/LSTM (sample + simulation level)
//!   table7                mitigation: recovery rate / new hazards / risk
//!   table8                patient-specific vs population thresholds
//!   ablation-adversarial  faulty vs fault-free threshold training
//!   ablation-multiclass   binary vs 3-class ML monitors
//!   ablation-faultfree    monitors on fault-free data
//!   ablation-hms          Eq.2 deadlines + context-dependent mitigation
//!   ablation-noise        CAWT accuracy under CGM sensor error
//!   zoo                   monitor zoo in one session: one physics pass per
//!                         scenario, reaction-time/TTH incl. RiskIdx floor
//!   run --spec F          one session described by a JSON SessionSpec
//!   summary               digest of all recorded results
//!   bench-campaign        campaign-throughput baseline -> BENCH_campaign.json
//!                         (--sweep-workers adds the worker-scaling curve;
//!                         --store PATH also streams the quick campaign into
//!                         a binary trace store)
//!   convert               JSONL <-> binary trace store (--to-store /
//!                         --to-jsonl / --verify / --gen-quick)
//!   overhead              §V-E6 per-cycle monitor overhead + per-call cost
//!                         of the context mitigator (printed only; takes
//!                         no flags)
//!   lint                  aps-lint static analysis vs the committed baseline
//!   serve                 campaign-service daemon on a Unix socket
//!   submit/status/fetch/cancel/shutdown
//!                         campaign-service client commands
//!   sweep-gate            multi-core scaling gate over a --sweep-workers report
//!   all                   everything above, in order
//!
//! flags (workload scaling):
//!   --quick | --full      presets (default: reduced single-core scale)
//!   --patients 0,1,2      cohort indices
//!   --bgs 100,140,180     initial glucose values
//!   --starts 20,60        fault start steps
//!   --durations 12,30     fault durations (steps)
//!   --folds N             cross-validation folds
//!   --steps N             cycles per simulation (150 = 12 h)
//!   --epochs N            max training epochs for MLP/LSTM
//!   --out DIR | --no-out  JSON result directory (default: results/)
//! ```

use aps_bench::experiments::{
    ablations, accuracy, fig3, hms, mitigation, overhead, patient_specific, resilience, zoo_report,
};
use aps_bench::ftrun::FtFlags;
use aps_bench::opts::ExpOpts;
use aps_sim::session::{Session, SessionSpec};
use std::time::Instant;

/// `repro run --spec file.json`: one closed-loop session described as
/// data — the scriptable single-run counterpart to the campaign
/// experiments.
fn run_spec(args: &[String]) -> ! {
    let path = match args.iter().position(|a| a == "--spec") {
        Some(pos) => match args.get(pos + 1) {
            Some(p) => p.clone(),
            None => {
                eprintln!("error: missing value for --spec");
                std::process::exit(2);
            }
        },
        None => {
            eprintln!("usage: repro run --spec <file.json>");
            std::process::exit(2);
        }
    };
    let json = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read `{path}`: {e}");
            std::process::exit(2);
        }
    };
    let spec: SessionSpec = match serde_json::from_str(&json) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: `{path}` is not a valid session spec: {e:?}");
            std::process::exit(2);
        }
    };
    let mut session = match Session::from_spec(&spec) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let trace = session.run();
    println!("patient    : {}", trace.meta.patient);
    println!(
        "fault      : {}",
        if trace.meta.fault_name.is_empty() {
            "(fault-free)"
        } else {
            &trace.meta.fault_name
        }
    );
    println!("steps      : {}", trace.len());
    println!(
        "hazard     : {}",
        match (trace.meta.hazard_type, trace.meta.hazard_onset) {
            (Some(h), Some(s)) => format!("{h:?} at {} min", s.minutes().value()),
            _ => "none".to_owned(),
        }
    );
    for track in &trace.monitor_tracks {
        println!(
            "monitor {:<11}: first alert {}",
            track.monitor,
            match track.first_alert() {
                Some(s) => format!("at {} min", s.minutes().value()),
                None => "never".to_owned(),
            }
        );
    }
    std::process::exit(0);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let Some(which) = args.first().cloned() else {
        eprintln!("usage: repro <experiment> [flags]   (see --help)");
        std::process::exit(2);
    };
    if which == "--help" || which == "-h" || which == "help" {
        print!("{}", HELP);
        return;
    }
    if which == "run" {
        run_spec(&args[1..]);
    }
    if which == "lint" {
        // Static analysis has its own flag set (baseline paths, ratchet
        // modes) — dispatch before the experiment flag parser.
        std::process::exit(aps_bench::lintcmd::run_lint(&args[1..]));
    }
    if which == "convert" {
        // Corpus conversion likewise has its own flag set (input
        // sniffing, output formats, verification).
        std::process::exit(aps_bench::convert::run_convert(&args[1..]));
    }
    if which == "overhead" {
        // A timing report: no workload flags, nothing written.
        if args.len() > 1 {
            eprintln!("error: overhead takes no flags");
            std::process::exit(2);
        }
        overhead::overhead();
        return;
    }
    if matches!(
        which.as_str(),
        "serve" | "submit" | "status" | "fetch" | "cancel" | "shutdown" | "sweep-gate"
    ) {
        // Campaign-service daemon/client commands and the CI scaling
        // gate: own flag sets, dispatched before the experiment parser.
        std::process::exit(aps_bench::servicecmd::run_service(&which, &args[1..]));
    }
    // `--guard <baseline.json>` is a bench-campaign-only flag: compare
    // the fresh speedup against a committed report and fail the
    // process below 80% of it (the CI perf-regression guard).
    let guard_baseline = args.iter().position(|a| a == "--guard").map(|pos| {
        if pos + 1 >= args.len() {
            eprintln!("error: missing value for --guard");
            std::process::exit(2);
        }
        let path = args.remove(pos + 1);
        args.remove(pos);
        path
    });
    if guard_baseline.is_some() && which != "bench-campaign" {
        eprintln!("error: --guard only applies to bench-campaign");
        std::process::exit(2);
    }
    // `--store <path>` is bench-campaign-only: additionally stream the
    // quick campaign into a binary trace store at that path (the
    // direct campaign→store emission path).
    let store_path = args.iter().position(|a| a == "--store").map(|pos| {
        if pos + 1 >= args.len() {
            eprintln!("error: missing value for --store");
            std::process::exit(2);
        }
        let path = args.remove(pos + 1);
        args.remove(pos);
        path
    });
    if store_path.is_some() && which != "bench-campaign" {
        eprintln!("error: --store only applies to bench-campaign");
        std::process::exit(2);
    }
    // `--sweep-workers` is likewise bench-campaign-only: re-times the
    // campaign executor at 1/2/4/... pinned workers and records the
    // scaling curve in BENCH_campaign.json.
    let sweep_workers = match args.iter().position(|a| a == "--sweep-workers") {
        Some(pos) => {
            args.remove(pos);
            true
        }
        None => false,
    };
    if sweep_workers && which != "bench-campaign" {
        eprintln!("error: --sweep-workers only applies to bench-campaign");
        std::process::exit(2);
    }
    // Fault-tolerance flags switch bench-campaign from throughput
    // benchmarking to the hardened executor (ledger, chaos,
    // checkpoint/resume). They are extracted before ExpOpts sees the
    // argument list.
    let ft_flags = match FtFlags::extract(&mut args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if ft_flags.is_some() && which != "bench-campaign" {
        eprintln!("error: fault-tolerance flags only apply to bench-campaign");
        std::process::exit(2);
    }
    if ft_flags.is_some() && guard_baseline.is_some() {
        eprintln!("error: --guard measures the clean path; drop the fault-tolerance flags");
        std::process::exit(2);
    }
    if ft_flags.is_some() && sweep_workers {
        eprintln!("error: --sweep-workers measures the clean path; drop the fault-tolerance flags");
        std::process::exit(2);
    }
    let opts = match ExpOpts::parse(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    let start = Instant::now();
    let run_one = |name: &str| match name {
        "fig3" => fig3::run(&opts),
        "fig7" => resilience::fig7(&opts),
        "fig8" => resilience::fig8(&opts),
        "fig9" => accuracy::fig9(&opts),
        "table5" => accuracy::table5(&opts),
        "table6" => accuracy::table6(&opts),
        "table7" => mitigation::table7(&opts),
        "table8" => patient_specific::table8(&opts),
        "ablation-adversarial" => ablations::adversarial(&opts),
        "ablation-multiclass" => ablations::multiclass(&opts),
        "ablation-faultfree" => ablations::fault_free_eval(&opts),
        "ablation-hms" => hms::hms_mitigation(&opts),
        "ablation-noise" => ablations::sensor_noise(&opts),
        "zoo" => zoo_report::zoo(&opts),
        "summary" => {
            let dir = opts.out_dir.clone().unwrap_or_else(|| "results".to_owned());
            aps_bench::summary::print_summary(std::path::Path::new(&dir));
        }
        "bench-campaign" => {
            // Perf baseline, not a paper experiment: measures quick-
            // campaign throughput (seed-faithful hot path vs current)
            // and records BENCH_campaign.json for the perf trajectory.
            // With fault-tolerance flags, runs the hardened executor
            // instead (see `aps_bench::ftrun`).
            if let Some(path) = &store_path {
                match aps_bench::convert::emit_quick_store(std::path::Path::new(path)) {
                    Ok(stats) => println!(
                        "store: wrote {path}: {} traces, {} records, {} B",
                        stats.traces, stats.records, stats.bytes
                    ),
                    Err(e) => {
                        eprintln!("error: --store {path}: {e}");
                        std::process::exit(1);
                    }
                }
            }
            match (&ft_flags, &guard_baseline) {
                (Some(flags), _) => {
                    std::process::exit(aps_bench::ftrun::run_ft_campaign(&opts, flags))
                }
                (None, Some(path)) => aps_bench::perf::bench_campaign_guarded(
                    5,
                    "BENCH_campaign.json",
                    path,
                    sweep_workers,
                ),
                (None, None) => {
                    aps_bench::perf::bench_campaign(5, "BENCH_campaign.json", sweep_workers);
                }
            }
        }
        other => {
            eprintln!("unknown experiment `{other}` (see --help)");
            std::process::exit(2);
        }
    };

    if which == "all" {
        for name in [
            "fig3",
            "fig7",
            "fig8",
            "table5",
            "table6",
            "fig9",
            "table7",
            "table8",
            "ablation-adversarial",
            "ablation-multiclass",
            "ablation-faultfree",
            "ablation-hms",
            "ablation-noise",
            "zoo",
        ] {
            println!("\n{}\n## {}\n{}", "=".repeat(72), name, "=".repeat(72));
            run_one(name);
        }
    } else {
        run_one(&which);
    }
    eprintln!("\n[{} finished in {:.1?}]", which, start.elapsed());
}

const HELP: &str = r#"repro — regenerate the paper's tables and figures

usage: repro <experiment> [flags]

experiments:
  fig3, fig7, fig8, fig9, table5, table6, table7, table8,
  ablation-adversarial, ablation-multiclass, ablation-faultfree,
  ablation-hms, ablation-noise, zoo, summary, all

sessions:
  run --spec <file.json>     one closed-loop run described as data (a
                             serde SessionSpec: platform, patient,
                             monitors, fault, loop config); prints the
                             hazard verdict and every monitor's first
                             alert

perf:
  bench-campaign             quick-campaign throughput baseline; writes
                             BENCH_campaign.json (seed-faithful baseline
                             vs the campaign executor)
  bench-campaign --guard F   also compare against the committed report F
                             and exit non-zero below 80% of its larger
                             committed speedup (`speedup` or, in older
                             reports, `batched_speedup`)
  bench-campaign --sweep-workers
                             additionally re-time the campaign executor
                             at 1/2/4/... pinned workers and record the
                             scaling curve
  bench-campaign --store F   additionally stream the quick campaign
                             into a binary trace store at F
  overhead                   §V-E6 per-cycle overhead of the seven
                             monitors (CAWT, STL-CAW, Guideline, MPC, DT,
                             MLP, LSTM) beside the paper's figures, and
                             the per-call cost of ContextMitigator; best
                             of 20 batches, printed only (no flags)

trace storage:
  convert <input>            move a trace corpus between formats; the
                             input format is sniffed (APSTRACE magic =
                             store, else JSONL)
  convert --gen-quick        use a freshly run quick campaign as the
                             corpus instead of reading a file
  convert ... --to-store F   write the corpus as a binary trace store
  convert ... --to-jsonl F   write the corpus as JSON Lines
  convert ... --verify       round-trip in memory, check the store read
                             path is bit-identical, measure read
                             throughput + size vs JSONL (plus record-view
                             iteration and bg/commanded column copies),
                             and record results/convert_verify.json
                             (exit 1 on any mismatch)

static analysis:
  lint                       scan the workspace with aps-lint (rule
                             families: alloc, nan, det, serde, sound,
                             unwrap; see lint.toml) and diff against the
                             committed lint.baseline; writes
                             results/lint.json
  lint --deny-new            exit non-zero on any violation not in the
                             baseline (the CI gate)
  lint --write-baseline      regenerate lint.baseline; refuses to grow it
  lint --root/--config/--baseline/--out/--no-out
                             override the default paths

campaign service (daemon + client over a length-prefixed JSON wire
protocol on a Unix socket; shard-resumable, content-addressed cache):
  serve --socket P --data D  run the daemon in the foreground
        [--workers N] [--checkpoint-every N] [--throttle-ms N]
  submit --socket P (--quick | --spec F)
        [--steps N] [--bgs 120,160] [--shards N] [--priority N]
        [--seed S] [--wait] [--verify-serial] [--expect-cached]
                             submit a campaign; --verify-serial waits
                             and requires the service digest to be
                             bit-identical to an in-process serial run;
                             --expect-cached fails unless the result
                             was served from the content-addressed
                             cache with zero executor work
  status --socket P [--job ID] [--wait [--timeout-s N]]
                             job manifests; --wait polls to terminal
  fetch --socket P --job ID [--out F] [--verify-serial]
                             locate/copy a finished job's trace store
  cancel --socket P --job ID / shutdown --socket P
  sweep-gate <report.json> [--min-ratio X]
                             fail unless the recorded 2-worker
                             throughput is >= X times the 1-worker one
                             (default 1.3; the CI scaling gate)

fault tolerance (any of these switches bench-campaign to the hardened
executor: isolated jobs, error ledger, partial results):
  --chaos-seed N             deterministic chaos injection (panics,
                             delays, poisoned specs); same seed =>
                             byte-identical ledger
  --retry N                  attempts per job (default 1)
  --backoff-ms N             base backoff between attempts (doubles per
                             retry, capped)
  --deadline-ms N            per-job wall-clock budget
  --checkpoint PATH          snapshot a resumable checkpoint here
  --checkpoint-every N       snapshot cadence in jobs (default 10)
  --resume PATH              skip jobs a checkpoint already completed;
                             bit-identical to an uninterrupted run
  --workers N                worker threads (also: APS_WORKERS env var)

flags:
  --quick | --full           workload presets
  --patients 0,1,2           cohort indices (default 0..4)
  --bgs 100,140,180          initial glucose values
  --starts 20,60             fault start steps
  --durations 12,30          fault durations in steps
  --folds N                  cross-validation folds (default 4)
  --steps N                  cycles per simulation (default 150)
  --epochs N                 max MLP/LSTM training epochs
  --out DIR | --no-out       JSON result directory (default results/)
"#;
