//! The benchmark's workloads. Each `run` does its set-up several times,
//! measures untraced passes for the configured time, and with tracing
//! on adds a traced run that fills the per-layer metrics.

pub mod cohort;
pub mod design;
pub mod service;

use crate::harness::Outcome;

/// Per-layer metrics only the daemon round trip measures.
pub const SERVICE_LAYERS: &[&str] = &[
    "service.submit_ms",
    "service.queue_wait_ms",
    "service.exec_ms",
    "service.merge_ms",
    "service.fetch_ms",
    "service.phase_sum_ms",
    "service.events",
    "service.job.log_bytes_per_trace",
    "service.cache.entry_bytes_per_trace",
    "service.wire.status_rtt_us",
];

/// Reports 0 for layers the workload never enters.
pub fn not_applicable(out: &mut Outcome, names: &[&'static str]) {
    for &name in names {
        out.set(name, 0.0);
    }
}

/// Metrics every traced run reports: untraced and traced pass wall
/// time, their difference (the tracing overhead), and the failed share.
pub fn finish_layers(out: &mut Outcome, untraced_s: f64, traced_s: f64) {
    out.set("trace.untraced_pass_s", untraced_s);
    out.set("trace.traced_pass_s", traced_s);
    out.set("trace.overhead_s", traced_s - untraced_s);
    let c = &out.checks;
    let frac = c.failed as f64 / c.attempted.max(1) as f64;
    out.set("failed_frac", frac);
}
