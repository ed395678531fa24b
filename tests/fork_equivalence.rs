//! Equivalence guarantees behind forking a campaign group's faulty runs
//! from its fault-free trunk.
//!
//! The campaign executors run each (patient, initial BG) group's
//! fault-free loop once and fork every job from it at the job's fault
//! start. Every case here compares that against runs from step 0: the
//! serial reference `run_campaign_serial`, or the per-job outcomes of
//! the fault-tolerant executor with a deadline (which routes every job
//! through its own run), bit for bit:
//!
//! * fault starts at 0, 1, 2, 20, the last step and past the end;
//! * every primary target (CGM input, controller-internal IOB, rate
//!   output) × the extended fault alphabet, `Hold` included;
//! * the CAW monitor under both mitigation policies, and a noisy CGM
//!   whose RNG state crosses the fork;
//! * campaigns without the fault-free job;
//! * a monitor that cannot fork (every job then runs from step 0);
//! * a kill and resume inside a group whose fault-free job was already
//!   emitted.

use aps_repro::fault::CampaignConfig;
use aps_repro::glucose::sensor::CgmConfig;
use aps_repro::prelude::*;
use aps_repro::sim::campaign::run_campaign_serial;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const STEPS: u32 = 40;

/// Fault starts covering every fork-step edge: at once (no fork), the
/// first two steps, mid-run, the last step, and at or past the end.
const STARTS: [u32; 7] = [0, 1, 2, 20, STEPS - 1, STEPS, STEPS + 7];

fn spec(platform: Platform) -> CampaignSpec {
    CampaignSpec {
        patient_indices: vec![0, 3],
        initial_bgs: vec![95.0, 170.0],
        steps: STEPS,
        ..CampaignSpec::quick(platform)
    }
}

fn caw_factory() -> Box<MonitorFactory<'static>> {
    Box::new(|ctx: &ScenarioCtx| {
        Box::new(CawMonitor::new(
            "cawot",
            Scs::with_default_thresholds(ctx.target),
            ctx.basal,
        )) as Box<dyn HazardMonitor>
    })
}

/// The forked executors — streaming, and fault-tolerant at one and two
/// workers — equal the serial reference on `spec`.
fn assert_forks_match_serial(spec: &CampaignSpec, factory: Option<&MonitorFactory<'_>>) {
    let case = format!(
        "{:?} ({} jobs, mitigate {}, context {}, noise {}, fault-free {})",
        spec.platform,
        campaign_jobs(spec).len(),
        spec.mitigate,
        spec.context_mitigate,
        spec.cgm.noise_sd,
        spec.include_fault_free
    );
    let serial = run_campaign_serial(spec, factory);
    assert_eq!(run_campaign(spec, factory), serial, "{case}");
    for workers in [1, 2] {
        let options = CampaignOptions {
            workers: Some(workers),
            ..CampaignOptions::default()
        };
        let mut traces = Vec::new();
        run_campaign_resumable(spec, factory, &options, None, |_, o| {
            traces.push(o.into_trace().expect("clean job failed"));
        })
        .unwrap();
        assert_eq!(traces, serial, "{case}, {workers} workers");
    }
}

#[test]
fn fault_starts_at_every_fork_edge_match_serial() {
    for platform in Platform::ALL {
        let spec = CampaignSpec {
            faults: CampaignConfig {
                starts: STARTS.to_vec(),
                durations: vec![3],
            },
            ..spec(platform)
        };
        assert_forks_match_serial(&spec, None);
        assert_forks_match_serial(&spec, Some(caw_factory().as_ref()));
    }
}

#[test]
fn every_primary_target_and_extended_kind_matches_serial() {
    for platform in Platform::ALL {
        let spec = CampaignSpec {
            patient_indices: vec![1],
            initial_bgs: vec![140.0],
            faults: CampaignConfig {
                starts: vec![2, 20],
                durations: vec![12],
            },
            steps: STEPS,
            ..CampaignSpec::extended(platform)
        };
        let names: Vec<String> = campaign_jobs(&spec)
            .iter()
            .filter_map(|j| j.scenario.as_ref().map(|s| s.name()))
            .collect();
        for target in ["glucose", "iob", "rate"] {
            let on_target = format!("_{target}@");
            for kind in ["hold", "max", "scale", "drift", "noise", "int"] {
                assert!(
                    names
                        .iter()
                        .any(|n| n.starts_with(kind) && n.contains(&on_target)),
                    "{platform:?}: no {kind} fault on {target}"
                );
            }
        }
        assert_forks_match_serial(&spec, None);
        assert_forks_match_serial(&spec, Some(caw_factory().as_ref()));
    }
}

#[test]
fn mitigation_and_noisy_cgm_match_serial() {
    for platform in Platform::ALL {
        let base = CampaignSpec {
            faults: CampaignConfig {
                starts: vec![1, 20],
                durations: vec![12],
            },
            ..spec(platform)
        };
        let factory = caw_factory();
        for context_mitigate in [false, true] {
            let spec = CampaignSpec {
                mitigate: true,
                context_mitigate,
                ..base.clone()
            };
            assert_forks_match_serial(&spec, Some(factory.as_ref()));
        }
        let noisy = CampaignSpec {
            cgm: CgmConfig {
                noise_sd: 6.0,
                ..CgmConfig::default()
            },
            ..base.clone()
        };
        assert_ne!(
            run_campaign_serial(&noisy, None),
            run_campaign_serial(&base, None),
            "noise must change the corpus"
        );
        assert_forks_match_serial(&noisy, None);
        assert_forks_match_serial(&noisy, Some(factory.as_ref()));
    }
}

#[test]
fn campaigns_without_the_fault_free_job_match_serial() {
    for platform in Platform::ALL {
        let spec = CampaignSpec {
            include_fault_free: false,
            faults: CampaignConfig {
                starts: vec![2, 20],
                durations: vec![6],
            },
            ..spec(platform)
        };
        assert!(campaign_jobs(&spec).iter().all(|j| j.scenario.is_some()));
        assert_forks_match_serial(&spec, Some(caw_factory().as_ref()));
    }
}

/// A CAW monitor that keeps [`HazardMonitor::fork`]'s default, `None`.
struct Unforkable(CawMonitor);

impl HazardMonitor for Unforkable {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn check(&mut self, input: &MonitorInput) -> Option<Hazard> {
        self.0.check(input)
    }

    fn observe_delivery(&mut self, delivered: UnitsPerHour) {
        self.0.observe_delivery(delivered);
    }

    fn reset(&mut self) {
        self.0.reset();
    }
}

/// A monitor that cannot fork runs every job of its group from step 0
/// and still equals the reference. The factory's call count shows
/// which path ran: once per group for a forking monitor, and once more
/// per job for one that cannot fork.
#[test]
fn a_monitor_that_cannot_fork_runs_from_step_0_and_matches_serial() {
    for platform in Platform::ALL {
        let spec = CampaignSpec {
            faults: CampaignConfig {
                starts: vec![20],
                durations: vec![6],
            },
            ..spec(platform)
        };
        let jobs = campaign_jobs(&spec).len();
        let groups = spec.patient_indices.len() * spec.initial_bgs.len();
        for forkable in [true, false] {
            let calls = AtomicUsize::new(0);
            let factory = |ctx: &ScenarioCtx| {
                calls.fetch_add(1, Ordering::Relaxed);
                let caw =
                    CawMonitor::new("cawot", Scs::with_default_thresholds(ctx.target), ctx.basal);
                if forkable {
                    Box::new(caw) as Box<dyn HazardMonitor>
                } else {
                    Box::new(Unforkable(caw))
                }
            };
            let serial = run_campaign_serial(&spec, Some(&factory));
            calls.store(0, Ordering::Relaxed);
            assert_eq!(run_campaign(&spec, Some(&factory)), serial);
            let expected = if forkable { groups } else { groups + jobs };
            assert_eq!(
                calls.load(Ordering::Relaxed),
                expected,
                "forkable {forkable}"
            );
        }
    }
}

/// Killed inside a group whose fault-free job was already emitted, a
/// resume forks the group's remaining jobs from a fresh trunk and
/// finishes bit-identical to the per-job reference.
#[test]
fn kill_and_resume_inside_a_group_matches_the_per_job_reference() {
    for platform in Platform::ALL {
        let spec = CampaignSpec {
            faults: CampaignConfig {
                starts: vec![2, 20],
                durations: vec![6],
            },
            ..spec(platform)
        };
        let factory = caw_factory();
        let factory = Some(factory.as_ref());
        // A generous deadline routes every job through its own run
        // from step 0.
        let per_job = CampaignOptions {
            deadline: Some(Duration::from_secs(3600)),
            ..CampaignOptions::default()
        };
        let mut reference = Vec::new();
        let reference_report =
            run_campaign_resumable(&spec, factory, &per_job, None, |_, o| reference.push(o))
                .unwrap();
        let jobs = campaign_jobs(&spec);
        assert!(jobs[0].scenario.is_none(), "group 0 starts fault-free");
        let group = jobs.len() / 4;

        let path = std::env::temp_dir().join(format!(
            "aps_fork_resume_{}_{platform:?}.json",
            std::process::id()
        ));
        let options = CampaignOptions {
            checkpoint: Some(CheckpointPolicy {
                path: path.clone(),
                every_jobs: 1,
            }),
            workers: Some(1),
            ..CampaignOptions::default()
        };
        for kill_at in [1, 2, group / 2, group + 3] {
            let cancel = Arc::new(AtomicBool::new(false));
            let killing = CampaignOptions {
                cancel: Some(Arc::clone(&cancel)),
                ..options.clone()
            };
            let mut emissions = Vec::new();
            let killed = run_campaign_resumable(&spec, factory, &killing, None, |i, o| {
                emissions.push((i, o));
                if emissions.len() == kill_at {
                    cancel.store(true, Ordering::Release);
                }
            })
            .unwrap();
            assert!(killed.cancelled, "kill at {kill_at}");
            let snapshot = CampaignCheckpoint::load(&path).unwrap();
            assert_eq!(snapshot.completed.count(), kill_at);
            let resumed =
                run_campaign_resumable(&spec, factory, &options, Some(&snapshot), |i, o| {
                    emissions.push((i, o))
                })
                .unwrap();
            let (order, outcomes): (Vec<usize>, Vec<JobOutcome>) = emissions.into_iter().unzip();
            assert_eq!(
                order,
                (0..jobs.len()).collect::<Vec<_>>(),
                "kill at {kill_at}"
            );
            assert_eq!(outcomes, reference, "kill at {kill_at}");
            assert_eq!(resumed.digest, reference_report.digest, "kill at {kill_at}");
        }
        let _ = std::fs::remove_file(&path);
    }
}
