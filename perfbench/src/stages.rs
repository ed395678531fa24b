//! Per-cycle stage costs, measured by re-driving each stage's public
//! function over a pass's recorded inputs.
//!
//! Each stage of the closed-loop cycle (sensor, fault routing,
//! controller decision, monitor, mitigation, pump, physics) and the
//! post-hoc risk labelling is re-run alone over the recorded per-cycle
//! values of the pass's traces, inside one span per trace. Dividing
//! the span time by the cycles driven gives ns per cycle; job set-up
//! (patient, controller, injector construction) is timed per job.

use std::hint::black_box;

use crate::adapter::{self, CampaignJob, CampaignSpec, Factory, SimTrace};
use crate::spans::{totals_by_name, Tracer};

/// Span names of the re-driven stages, with the metric each feeds.
pub const STAGES: &[(&str, &str)] = &[
    ("stage.glucose.physics", "glucose.physics_ns"),
    ("stage.glucose.cgm", "glucose.cgm_ns"),
    ("stage.glucose.pump", "glucose.pump_ns"),
    ("stage.controllers.decide", "controllers.decide_ns"),
    ("stage.fault.inject", "fault.inject_ns"),
    ("stage.risk.label", "risk.label_ns"),
    ("stage.core.monitors.check", "core.monitors.check_ns"),
    ("stage.core.mitigation", "core.mitigation_ns"),
];

/// Re-drive results.
#[derive(Debug, Clone, Default)]
pub struct StageCosts {
    /// (metric name, ns per cycle) for every stage in [`STAGES`]; 0 for
    /// a stage the workload does not run.
    pub ns_per_cycle: Vec<(&'static str, f64)>,
    /// Job set-up cost in µs per job.
    pub job_setup_us: f64,
    /// Traces re-driven.
    pub traces: usize,
}

impl StageCosts {
    /// Predicted busy time of `jobs` runs of `cycles` cycles each, from
    /// the per-stage costs, in seconds.
    pub fn explained_s(&self, jobs: usize, cycles: usize) -> f64 {
        let per_cycle: f64 = self.ns_per_cycle.iter().map(|(_, ns)| ns).sum();
        (per_cycle * (jobs * cycles) as f64 + self.job_setup_us * 1e3 * jobs as f64) / 1e9
    }
}

/// What to re-drive.
pub struct Redrive<'a> {
    /// The campaign the traces came from.
    pub spec: &'a CampaignSpec,
    /// Its jobs, indexed by job index.
    pub jobs: &'a [CampaignJob],
    /// (job index, recorded trace) pairs.
    pub traces: &'a [(usize, SimTrace)],
    /// The live monitor, when the campaign ran one.
    pub monitor: Option<Factory<'a>>,
}

/// Re-drives every stage over the recorded traces, recording spans in
/// pass `pass` of `tr`, and returns per-cycle costs.
pub fn redrive(tr: &mut Tracer, pass: u32, input: &Redrive<'_>) -> StageCosts {
    tr.set_pass(pass);
    let mut cycles = 0usize;
    let mut jobs = 0usize;
    for (job_index, trace) in input.traces {
        let Some(job) = input.jobs.get(*job_index) else {
            continue;
        };
        let s = tr.begin("stage.sim.job_setup");
        let parts = adapter::job_parts(input.spec, job);
        tr.end(s);
        let Some(mut parts) = parts else { continue };
        jobs += 1;
        cycles += trace.records.len();

        tr.span("stage.glucose.physics", || black_box(parts.physics(trace)));
        tr.span("stage.glucose.cgm", || {
            black_box(adapter::cgm(input.spec, trace))
        });
        tr.span("stage.glucose.pump", || black_box(adapter::pump(trace)));
        tr.span("stage.controllers.decide", || {
            black_box(parts.decide(trace))
        });
        if job.scenario.is_some() {
            tr.span("stage.fault.inject", || black_box(parts.inject(trace)));
        }
        let mut copy = trace.clone();
        tr.span("stage.risk.label", || adapter::label(black_box(&mut copy)));
        if let Some(factory) = input.monitor {
            let mut monitor = factory(&trace.meta.patient);
            tr.span("stage.core.monitors.check", || {
                black_box(adapter::monitor_checks(monitor.as_mut(), trace))
            });
        }
        if input.spec.mitigate {
            tr.span("stage.core.mitigation", || black_box(parts.mitigate(trace)));
        }
    }
    let totals = totals_by_name(tr.spans(), Some(pass));
    // Every stage is charged per cycle of every re-driven job, so the
    // costs add up to a per-cycle total (fault routing, for one, runs
    // only on faulty jobs and averages below its per-call cost).
    let ns_per_cycle = STAGES
        .iter()
        .map(|&(span, metric)| {
            let total = totals.get(span).map_or(0, |t| t.total_ns) as f64;
            (
                metric,
                if cycles == 0 {
                    0.0
                } else {
                    total / cycles as f64
                },
            )
        })
        .collect();
    let setup_ns = totals.get("stage.sim.job_setup").map_or(0, |t| t.total_ns) as f64;
    StageCosts {
        ns_per_cycle,
        job_setup_us: if jobs == 0 {
            0.0
        } else {
            setup_ns / jobs as f64 / 1e3
        },
        traces: jobs,
    }
}
