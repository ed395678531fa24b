//! The metric names the benchmark reports, with units.
//!
//! `BENCHMARK.json` declares the same lists; a test keeps them equal.

/// End-to-end metrics, reported from untraced passes (`--trace 0`).
/// Every workload reports every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("runs_per_s", "1/s"),
    ("time_to_results_s", "s"),
];

/// Per-layer metrics, reported by the traced run (`--trace 1`). A
/// workload that never enters a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("learn_s", "s"),
    ("replay_traces_per_s", "1/s"),
    ("cached_time_to_results_s", "s"),
    ("failed_frac", "ratio"),
    ("peak_rss_mb", "MB"),
    ("trace.untraced_pass_s", "s"),
    ("trace.traced_pass_s", "s"),
    ("trace.overhead_s", "s"),
    ("glucose.physics_ns", "ns"),
    ("glucose.cgm_ns", "ns"),
    ("glucose.pump_ns", "ns"),
    ("controllers.decide_ns", "ns"),
    ("fault.inject_ns", "ns"),
    ("risk.label_ns", "ns"),
    ("core.monitors.check_ns", "ns"),
    ("core.mitigation_ns", "ns"),
    ("sim.job_setup_us", "us"),
    ("sim.cycle_coverage", "ratio"),
    ("sim.executor.parallel_efficiency", "ratio"),
    ("sim.executor.emit_gap_p50_ms", "ms"),
    ("sim.executor.emit_gap_p99_ms", "ms"),
    ("sim.checkpoint.writes", "count"),
    ("sim.checkpoint.bytes", "B"),
    ("core.learning.extract_ms", "ms"),
    ("optim.lbfgsb_ms", "ms"),
    ("optim.lbfgsb_iters", "count"),
    ("tracestore.materialize_us_per_trace", "us"),
    ("sim.replay.monitor_us_per_trace", "us"),
    ("tracestore.bytes_per_trace", "B"),
    ("service.submit_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.exec_ms", "ms"),
    ("service.merge_ms", "ms"),
    ("service.fetch_ms", "ms"),
    ("service.phase_sum_ms", "ms"),
    ("service.events", "count"),
    ("service.job.log_bytes_per_trace", "B"),
    ("service.cache.entry_bytes_per_trace", "B"),
    ("service.wire.status_rtt_us", "us"),
];
