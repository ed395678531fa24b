//! Tiny-grid smoke runs: every workload, untraced and traced, emits
//! every declared metric and passes its correctness checks.

use std::path::PathBuf;

use aps_perfbench::harness::{declared, result_line, Config, Size, Workload};

fn run(workload: Workload, trace: bool) -> aps_perfbench::harness::Outcome {
    let cfg = Config {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
        tmp_root: PathBuf::from(".perfbench_tmp"),
        out_dir: PathBuf::from(".perfbench_out"),
    };
    let out = aps_perfbench::run(&cfg).expect("workload runs");
    assert!(
        out.checks.attempted > 0,
        "{}: nothing checked",
        workload.name()
    );
    assert_eq!(
        out.checks.failed,
        0,
        "{}: correctness failures",
        workload.name()
    );
    let line = result_line(&out, trace).expect("every declared metric measured");
    for (name, unit) in declared(trace) {
        let v = out.metrics[name];
        assert!(v.is_finite(), "{}: {name} = {v}", workload.name());
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name}"
        );
        assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
    }
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
    for key in ["nproc", "aps_workers_env", "git_revision", "seed"] {
        assert!(
            out.env.contains_key(key),
            "{key} missing from the environment report"
        );
    }
    out
}

fn positive(out: &aps_perfbench::harness::Outcome, names: &[&str]) {
    for name in names {
        assert!(out.metrics[name] > 0.0, "{name} = {}", out.metrics[name]);
    }
}

#[test]
fn cohort_campaign_smoke() {
    run(Workload::CohortCampaign, false);
    let out = run(Workload::CohortCampaign, true);
    positive(
        &out,
        &[
            "glucose.physics_ns",
            "controllers.decide_ns",
            "sim.cycle_coverage",
            "sim.job_setup_us",
        ],
    );
    assert_eq!(out.metrics["core.monitors.check_ns"], 0.0);
    assert!(out.tracer.is_some_and(|t| !t.spans().is_empty()));
}

#[test]
fn design_deploy_smoke() {
    let untraced = run(Workload::DesignDeploy, false);
    positive(&untraced, &["setup_s", "runs_per_s", "time_to_results_s"]);
    let out = run(Workload::DesignDeploy, true);
    positive(
        &out,
        &[
            "learn_s",
            "replay_traces_per_s",
            "core.monitors.check_ns",
            "core.mitigation_ns",
            "sim.checkpoint.writes",
            "sim.checkpoint.bytes",
            "core.learning.extract_ms",
            "tracestore.materialize_us_per_trace",
            "sim.replay.monitor_us_per_trace",
            "tracestore.bytes_per_trace",
            "sim.cycle_coverage",
            // Its traced run also measures the service layers.
            "cached_time_to_results_s",
            "service.exec_ms",
            "service.merge_ms",
            "service.events",
            "service.job.log_bytes_per_trace",
            "service.cache.entry_bytes_per_trace",
            "service.wire.status_rtt_us",
        ],
    );
    // The traced pass saw the whole event stream: one progress event
    // per run (2 patients × 31), one per shard, and the terminal event.
    let shards: usize = out.env["shards"].parse().expect("shard count");
    assert_eq!(out.metrics["service.events"], (62 + shards + 1) as f64);
    // The phases partition the traced submit → results time.
    let phases: f64 = [
        "service.submit_ms",
        "service.queue_wait_ms",
        "service.exec_ms",
        "service.merge_ms",
        "service.fetch_ms",
    ]
    .iter()
    .map(|n| out.metrics[n])
    .sum();
    let total = out.metrics["service.phase_sum_ms"];
    assert!(
        (phases - total).abs() <= 1e-6 * total,
        "{phases} vs {total}"
    );
}
