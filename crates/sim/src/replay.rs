//! Offline monitor replay.
//!
//! A monitor that only *observes* (no mitigation) does not perturb the
//! closed loop, so its alert sequence on a recorded trace is identical
//! to what it would have produced live. Replaying lets one fault
//! campaign be evaluated against any number of monitors — the paper's
//! Table V/VI/Fig. 9 comparisons — at a fraction of the cost of
//! re-simulating. (For *live* multi-monitor scoring in a single
//! physics pass, attach several monitors to one
//! [`Session`](crate::session::Session).)
//!
//! Campaign-scale replay is parallel, on the same
//! [ordered executor](crate::exec) as the live campaign, and comes in
//! two forms that share one implementation: [`replay_campaign`] over
//! traces in memory, and [`replay_store`] straight out of a binary
//! trace store, which materializes each trace from the store's columns
//! only while it is in flight instead of loading the whole campaign as
//! owned traces. One executor unit replays a run of consecutive
//! traces, up to 32 of them, so the per-unit claim and reorder cost is
//! shared by the run. The worker count, like every campaign
//! executor's, comes from [`crate::campaign::worker_count`], so
//! `APS_WORKERS` applies to replay too.

use crate::campaign::worker_count;
use crate::exec::ordered_par_map;
use aps_core::monitors::{HazardMonitor, MonitorInput};
use aps_tracestore::TraceStoreReader;
use aps_types::{AlertTrack, SimTrace, UnitsPerHour};
use std::borrow::Cow;
use std::convert::Infallible;
use std::ops::Range;

/// Replays `trace` through `monitor`, returning a copy with the
/// `alert` column rewritten to the monitor's verdicts (and
/// `monitor_tracks` replaced by the replaying monitor's stream — any
/// tracks recorded by monitors *live* in the original run would
/// otherwise misattribute stale alerts alongside the new column).
///
/// The monitor sees exactly what it would have seen live: the clean
/// CGM reading, the commanded rate, the previously *commanded* rate —
/// and is told the recorded delivery each cycle.
pub fn replay_monitor(trace: &SimTrace, monitor: &mut dyn HazardMonitor) -> SimTrace {
    replay_owned(trace.clone(), monitor)
}

/// [`replay_monitor`] on a trace the caller already owns: the alert
/// column and tracks are rewritten in place, with no copy.
fn replay_owned(mut out: SimTrace, monitor: &mut dyn HazardMonitor) -> SimTrace {
    monitor.reset();
    // The live loop seeds previous_rate with the controller's basal;
    // the first record's commanded rate is the closest recorded proxy
    // (at reset the controller commands its basal).
    let mut prev_commanded = UnitsPerHour(
        out.records
            .first()
            .map(|r| r.commanded.value())
            .unwrap_or(0.0),
    );
    let mut alerts = Vec::with_capacity(out.records.len());
    for rec in &mut out.records {
        let alert = monitor.check(&MonitorInput {
            step: rec.step,
            bg: rec.bg,
            commanded: rec.commanded,
            previous_rate: prev_commanded,
        });
        monitor.observe_delivery(rec.delivered);
        rec.alert = alert;
        alerts.push(alert);
        prev_commanded = rec.commanded;
    }
    out.monitor_tracks = vec![AlertTrack {
        monitor: monitor.name().to_owned(),
        alerts,
    }];
    out
}

/// Replays a whole stored campaign through monitors produced per trace
/// by `factory`; results come back in store order. Workers materialize
/// traces from the store's columns on demand, so only the traces in
/// flight are ever held as owned `SimTrace`s besides the results.
pub fn replay_store<F>(store: &TraceStoreReader, factory: F) -> Vec<SimTrace>
where
    F: Fn(&SimTrace) -> Box<dyn HazardMonitor> + Sync,
{
    replay_source(store.len(), |i| Cow::Owned(store.get(i)), factory)
}

/// Most traces in one replay unit. A unit of one trace holds about as
/// much monitor work as the executor spends claiming, sending and
/// reordering it, so a run of traces shares that cost. Longer units
/// hold more traces in flight and balance worse: replaying 2 170 T1DS
/// traces on 2 workers (2 vCPUs) ran slower with 128-trace units than
/// with 32.
const MAX_REPLAY_UNIT: usize = 32;

/// Traces per replay unit for `n` traces on `workers` workers:
/// `ceil(n / (8 × workers))`, clamped to `1..=32`. Small corpora keep
/// at least eight units per worker, so heavy monitors still balance.
fn replay_unit_len(n: usize, workers: usize) -> usize {
    n.div_ceil(8 * workers.max(1)).clamp(1, MAX_REPLAY_UNIT)
}

/// The trace indices of unit `u` of length `len` over `n` traces.
fn replay_unit(u: usize, len: usize, n: usize) -> Range<usize> {
    u * len..((u + 1) * len).min(n)
}

/// The replay shared by the in-memory and store paths: `get(i)`
/// supplies trace `i` (borrowed from a slice, or materialized from
/// store columns), and the replayed traces come back in index order.
/// Each unit of the [ordered executor](crate::exec) is a run of
/// [`replay_unit_len`] consecutive traces.
fn replay_source<'a, G, F>(n: usize, get: G, factory: F) -> Vec<SimTrace>
where
    G: Fn(usize) -> Cow<'a, SimTrace> + Sync,
    F: Fn(&SimTrace) -> Box<dyn HazardMonitor> + Sync,
{
    let workers = worker_count(None).0;
    let len = replay_unit_len(n, workers);
    let mut out = Vec::with_capacity(n);
    let Ok(_) = ordered_par_map(
        n.div_ceil(len),
        workers,
        None,
        |u| {
            replay_unit(u, len, n)
                .map(|i| {
                    let t = get(i);
                    let mut monitor = factory(&t);
                    replay_owned(t.into_owned(), monitor.as_mut())
                })
                .collect::<Vec<_>>()
        },
        |_, traces| -> Result<(), Infallible> {
            out.extend(traces);
            Ok(())
        },
    );
    out
}

/// Replays a whole campaign through monitors produced per trace by
/// `factory` (monitors are stateful and patient-specific, so each
/// trace gets a fresh one), parallelized over the available cores
/// (replays are independent, so this is the same embarrassingly
/// parallel shape as [`run_campaign`]); results come back in input
/// order.
///
/// The factory bound is `Fn + Sync` (it is called concurrently from
/// worker threads); a factory that must mutate shared state can wrap
/// it in interior mutability (e.g. a `Mutex`) or fall back to a
/// sequential [`replay_monitor`] loop.
///
/// [`run_campaign`]: crate::campaign::run_campaign
pub fn replay_campaign<F>(traces: &[SimTrace], factory: F) -> Vec<SimTrace>
where
    F: Fn(&SimTrace) -> Box<dyn HazardMonitor> + Sync,
{
    replay_source(traces.len(), |i| Cow::Borrowed(&traces[i]), factory)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignSpec};
    use crate::platform::Platform;
    use aps_core::monitors::CawMonitor;
    use aps_core::scs::Scs;

    /// The gold test: replaying a monitor over a recorded trace must
    /// produce the same alerts as running it live in the loop.
    #[test]
    fn replay_matches_live_alerts() {
        let platform = Platform::GlucosymOref0;
        let spec = CampaignSpec {
            patient_indices: vec![0],
            initial_bgs: vec![140.0],
            ..CampaignSpec::quick(platform)
        };
        let scs = Scs::with_default_thresholds(platform.target());
        let mk = |basal| Box::new(CawMonitor::new("cawot", scs.clone(), basal));

        // Live: monitor inside the loop (no mitigation).
        let scs_live = scs.clone();
        let factory = move |ctx: &crate::campaign::ScenarioCtx| {
            Box::new(CawMonitor::new("cawot", scs_live.clone(), ctx.basal))
                as Box<dyn HazardMonitor>
        };
        let live = run_campaign(&spec, Some(&factory));

        // Replay: same campaign recorded without a monitor.
        let recorded = run_campaign(&spec, None);
        let probe = platform.patients().remove(0);
        let basal = platform.basal_for(probe.as_ref());
        for (live_t, rec_t) in live.iter().zip(&recorded) {
            let mut monitor = mk(basal);
            let replayed = replay_monitor(rec_t, monitor.as_mut());
            let live_alerts: Vec<_> = live_t.records.iter().map(|r| r.alert).collect();
            let replay_alerts: Vec<_> = replayed.records.iter().map(|r| r.alert).collect();
            assert_eq!(
                live_alerts, replay_alerts,
                "divergence on {}",
                rec_t.meta.fault_name
            );
        }
    }

    /// Live-vs-replay equivalence must also hold across the extended
    /// fault alphabet — in particular `Noise`, whose jitter has to be
    /// a pure function of the fault clock for a recorded trace to mean
    /// anything on replay.
    #[test]
    fn replay_matches_live_alerts_on_extended_faults() {
        let platform = Platform::GlucosymOref0;
        let spec = CampaignSpec {
            patient_indices: vec![0],
            initial_bgs: vec![140.0],
            ..CampaignSpec::extended(platform)
        };
        let scs = Scs::with_default_thresholds(platform.target());
        let scs_live = scs.clone();
        let factory = move |ctx: &crate::campaign::ScenarioCtx| {
            Box::new(CawMonitor::new("cawot", scs_live.clone(), ctx.basal))
                as Box<dyn HazardMonitor>
        };
        let live = run_campaign(&spec, Some(&factory));
        let recorded = run_campaign(&spec, None);
        let probe = platform.patients().remove(0);
        let basal = platform.basal_for(probe.as_ref());
        for (live_t, rec_t) in live.iter().zip(&recorded) {
            let mut monitor = CawMonitor::new("cawot", scs.clone(), basal);
            let replayed = replay_monitor(rec_t, &mut monitor);
            let live_alerts: Vec<_> = live_t.records.iter().map(|r| r.alert).collect();
            let replay_alerts: Vec<_> = replayed.records.iter().map(|r| r.alert).collect();
            assert_eq!(
                live_alerts, replay_alerts,
                "divergence on {}",
                rec_t.meta.fault_name
            );
        }
    }

    #[test]
    fn replay_campaign_preserves_everything_but_alerts() {
        let platform = Platform::GlucosymOref0;
        let spec = CampaignSpec {
            patient_indices: vec![1],
            initial_bgs: vec![120.0],
            ..CampaignSpec::quick(platform)
        };
        let recorded = run_campaign(&spec, None);
        let scs = Scs::with_default_thresholds(platform.target());
        let probe = platform.patients().remove(1);
        let basal = platform.basal_for(probe.as_ref());
        let replayed = replay_campaign(&recorded, |_t| {
            Box::new(CawMonitor::new("cawot", scs.clone(), basal))
        });
        assert_eq!(replayed.len(), recorded.len());
        for (a, b) in recorded.iter().zip(&replayed) {
            assert_eq!(a.bg_true_series(), b.bg_true_series());
            assert_eq!(a.meta, b.meta);
        }
    }

    #[test]
    fn replay_units_are_bounded_and_tile_the_corpus() {
        for workers in [0, 1, 2, 3, 4, 7, 16, 64] {
            for n in (0..1200).chain([2170, 4999, 100_000]) {
                let len = replay_unit_len(n, workers);
                assert!((1..=MAX_REPLAY_UNIT).contains(&len), "n={n} w={workers}");
                let covered: Vec<usize> = (0..n.div_ceil(len))
                    .flat_map(|u| replay_unit(u, len, n))
                    .collect();
                assert_eq!(covered, (0..n).collect::<Vec<_>>(), "n={n} w={workers}");
            }
        }
        assert_eq!(replay_unit_len(2170, 2), 32);
        assert_eq!(replay_unit_len(31, 2), 2);
    }

    /// The parallel executor must be invisible: same traces, same
    /// order as replaying one by one on the calling thread.
    #[test]
    fn parallel_replay_matches_sequential() {
        let platform = Platform::GlucosymOref0;
        let spec = CampaignSpec {
            patient_indices: (0..10).collect(),
            initial_bgs: vec![140.0, 180.0],
            steps: 60,
            ..CampaignSpec::quick(platform)
        };
        let mut recorded = run_campaign(&spec, None);
        // A prime length: several full units and a partial last one at
        // any worker count below 77.
        recorded.truncate(613);
        let n = recorded.len();
        let len = replay_unit_len(n, worker_count(None).0);
        assert!(
            n == 613 && n > 2 * len && !n.is_multiple_of(len),
            "{n} traces, units of {len}"
        );
        let scs = Scs::with_default_thresholds(platform.target());
        let probe = platform.patients().remove(0);
        let basal = platform.basal_for(probe.as_ref());
        let factory = |_t: &SimTrace| {
            Box::new(CawMonitor::new("cawot", scs.clone(), basal)) as Box<dyn HazardMonitor>
        };

        let sequential: Vec<SimTrace> = recorded
            .iter()
            .map(|t| {
                let mut m = factory(t);
                replay_monitor(t, m.as_mut())
            })
            .collect();
        let parallel = replay_campaign(&recorded, factory);
        assert_eq!(parallel, sequential);
    }
}
