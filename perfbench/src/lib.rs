//! End-to-end and per-layer benchmark of the APS reproduction pipeline.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload (see [`harness::Workload`]) and prints, as its last
//! line of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. Untraced runs report the
//! end-to-end metrics of [`metrics::END_TO_END`]; traced runs add a
//! traced run and report [`metrics::PER_LAYER`]. Every library call
//! goes through [`adapter`].

pub mod adapter;
pub mod harness;
pub mod metrics;
pub mod spans;
pub mod stages;
pub mod stats;
pub mod workloads;

use harness::{Config, Outcome, Res, Workload};

/// Runs one configured workload.
///
/// # Errors
///
/// When set-up or a pass fails outright (a correctness mismatch is not
/// an error: it is counted in the outcome).
pub fn run(cfg: &Config) -> Res<Outcome> {
    let mut out = match cfg.workload {
        Workload::CohortCampaign => workloads::cohort::run(cfg)?,
        Workload::DesignDeploy => workloads::design::run(cfg)?,
    };
    let env = harness::base_env(cfg);
    out.env.extend(env);
    Ok(out)
}
