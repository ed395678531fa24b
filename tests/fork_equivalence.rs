//! Equivalence guarantees behind running a campaign group's jobs as
//! riders of one set of lanes that forks where a job's fault first
//! changes the loop.
//!
//! The campaign executors set each (patient, initial BG) group's loop
//! up once, as one lane carrying every job, and split a job off to a
//! lane of its own at the first cycle where its fault's effect (the
//! variable it writes and the written bits, or the commanded rate's
//! bits) differs from its lane's. Every case here compares that against
//! runs from step 0: the serial reference `run_campaign_serial`, or the
//! per-job outcomes of the fault-tolerant executor with a deadline
//! (which routes every job through its own run), bit for bit:
//!
//! * fault starts at 0, 1, 2, 20, the last step and past the end;
//! * every primary target (CGM input, controller-internal IOB, rate
//!   output) × the extended fault alphabet, `Hold` included;
//! * one target, kind and start at durations 1, 6 and 36, which share a
//!   lane until the shortest window ends;
//! * a `Min` rate fault whose command equals the decided one on an
//!   active cycle, while the controller suspends;
//! * `Max` on `glucose` and `Max` on `eventual_bg`, which write the same
//!   400.0 on the same cycle to different variables;
//! * a paper-grid group that splits into more than 3 × `BATCH_LANES`
//!   lanes;
//! * the CAW monitor under both mitigation policies, and a noisy CGM
//!   whose RNG state crosses the splits;
//! * campaigns without the fault-free job;
//! * the DT/MLP (binary and 3-class) and LSTM monitors, with the
//!   factory called once per group;
//! * a kill and resume inside a group whose fault-free job was already
//!   emitted.
//!
//! A lane that turns non-finite while carrying riders is covered by the
//! unit tests of the crate-private `fork` module, which see each
//! rider's own error.

use aps_repro::fault::CampaignConfig;
use aps_repro::glucose::sensor::CgmConfig;
use aps_repro::ml::data::Dataset;
use aps_repro::ml::{Classifier, SequenceClassifier};
use aps_repro::prelude::*;
use aps_repro::sim::campaign::run_campaign_serial;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const STEPS: u32 = 40;

/// Fault starts covering every edge of a split: at once, the first
/// two steps, mid-run, the last step, and at or past the end.
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
fn durations_sharing_a_lane_match_serial() {
    for platform in Platform::ALL {
        let spec = CampaignSpec {
            fault_targets: vec!["glucose".to_owned()],
            faults: CampaignConfig {
                starts: vec![5],
                durations: vec![1, 6, 36],
            },
            ..spec(platform)
        };
        assert_forks_match_serial(&spec, None);
        assert_forks_match_serial(&spec, Some(caw_factory().as_ref()));
    }
}

/// A `Min` rate fault that starts on a cycle where the controller
/// suspends commands what it decided: the job rides the fault-free lane
/// through that active cycle and splits later.
#[test]
fn a_rate_fault_commanding_the_decided_rate_matches_serial() {
    let mut suspended = 0;
    for platform in Platform::ALL {
        let base = CampaignSpec {
            patient_indices: vec![0],
            initial_bgs: vec![70.0],
            ..spec(platform)
        };
        let fault_free = &run_campaign_serial(
            &CampaignSpec {
                faults: CampaignConfig {
                    starts: Vec::new(),
                    durations: Vec::new(),
                },
                ..base.clone()
            },
            None,
        )[0];
        let Some(start) = fault_free
            .records
            .iter()
            .skip(1)
            .find(|r| r.commanded.value() == 0.0)
            .map(|r| r.step.0)
        else {
            continue;
        };
        suspended += 1;
        let spec = CampaignSpec {
            fault_targets: vec!["rate".to_owned()],
            faults: CampaignConfig {
                starts: vec![start],
                durations: vec![6],
            },
            ..base
        };
        let serial = run_campaign_serial(&spec, None);
        let min = serial
            .iter()
            .find(|t| t.meta.fault_name.starts_with("min_rate@"))
            .expect("a Min rate fault");
        let at = |t: &SimTrace| t.records[start as usize].commanded.value().to_bits();
        assert_eq!(
            at(min),
            at(fault_free),
            "{platform:?}: active Min equals the decision"
        );
        assert_forks_match_serial(&spec, None);
    }
    assert_eq!(suspended, 2, "every controller suspends at 70 mg/dL");
}

/// `Max` on `glucose` and `Max` on `eventual_bg` both write 400.0 on
/// the same cycle, to different variables, so the jobs must not share
/// a lane. Here both push oref0 to its maximum rate, so their traces
/// are equal and only the lane count shows a shared lane (the `fork`
/// module's unit tests count it); this case holds each to its run from
/// step 0.
#[test]
fn equal_writes_to_different_variables_match_serial() {
    let spec = CampaignSpec {
        fault_targets: vec!["glucose".to_owned(), "eventual_bg".to_owned()],
        faults: CampaignConfig {
            starts: vec![10],
            durations: vec![6],
        },
        ..spec(Platform::GlucosymOref0)
    };
    assert_forks_match_serial(&spec, None);
}

/// A paper-grid group produces more distinct traces, hence lanes, than
/// three banks hold.
#[test]
fn a_group_of_many_lanes_matches_serial() {
    for platform in Platform::ALL {
        let spec = CampaignSpec {
            patient_indices: vec![2],
            initial_bgs: vec![140.0],
            ..CampaignSpec::paper(platform)
        };
        let serial = run_campaign_serial(&spec, None);
        let mut distinct: Vec<&[StepRecord]> = Vec::new();
        for trace in &serial {
            if !distinct.contains(&trace.records.as_slice()) {
                distinct.push(&trace.records);
            }
        }
        assert!(
            distinct.len() > 3 * BATCH_LANES,
            "{platform:?}: {} distinct traces",
            distinct.len()
        );
        assert_forks_match_serial(&spec, None);
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

/// Flags a cycle whose standardized BG (feature 0) is low, as class 1,
/// or whose standardized commanded rate (feature 4) is high, as the
/// last class: a stand-in for a trained DT or MLP.
struct StubClassifier {
    classes: usize,
}

impl Classifier for StubClassifier {
    fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        let class = if x[0] < -1.0 {
            1
        } else if x[4] > 1.0 {
            self.classes - 1
        } else {
            0
        };
        let mut p = vec![0.0; self.classes];
        p[class] = 1.0;
        p
    }

    fn n_classes(&self) -> usize {
        self.classes
    }
}

/// Flags a window in which the rate rose on every cycle but the
/// first, or that ends in a low BG: a stand-in for a trained LSTM.
struct StubSequence;

impl SequenceClassifier for StubSequence {
    fn predict_proba_seq(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        let rising = xs.windows(2).all(|w| w[1][4] > w[0][4]);
        let low = xs.last().is_some_and(|x| x[0] < -1.0);
        if rising || low {
            vec![0.0, 1.0]
        } else {
            vec![1.0, 0.0]
        }
    }

    fn n_classes(&self) -> usize {
        2
    }
}

/// A scaler fit on feature vectors spread over the campaigns' BG and
/// rate ranges.
fn scaler() -> StandardScaler {
    let rows: Vec<Vec<f64>> = (0..40)
        .map(|i| {
            let i = f64::from(i);
            vec![80.0 + 3.0 * i, 0.0, 0.5, 0.0, 0.05 * i, 4.0]
        })
        .collect();
    let n = rows.len();
    StandardScaler::fit(&Dataset::new(rows, vec![0; n]))
}

/// The DT/MLP (binary and 3-class) and LSTM monitors fork: their
/// groups run as riders like every other group, with the factory
/// called once per group, and equal the serial reference with and
/// without mitigation.
#[test]
fn ml_monitors_fork_and_match_serial() {
    let binary: Arc<dyn Classifier> = Arc::new(StubClassifier { classes: 2 });
    let multiclass: Arc<dyn Classifier> = Arc::new(StubClassifier { classes: 3 });
    let sequence: Arc<dyn SequenceClassifier> = Arc::new(StubSequence);
    let make = |kind: usize, ctx: &ScenarioCtx| -> Box<dyn HazardMonitor> {
        match kind {
            0 => Box::new(MlMonitor::binary(
                "dt",
                Arc::clone(&binary),
                scaler(),
                ctx.basal,
                ctx.target,
            )),
            1 => Box::new(MlMonitor::multiclass(
                "mlp-3c",
                Arc::clone(&multiclass),
                scaler(),
                ctx.basal,
                ctx.target,
            )),
            _ => Box::new(LstmMonitor::binary(
                "lstm",
                Arc::clone(&sequence),
                scaler(),
                ctx.basal,
                ctx.target,
                6,
            )),
        }
    };
    for platform in Platform::ALL {
        let base = CampaignSpec {
            faults: CampaignConfig {
                starts: vec![2, 20],
                durations: vec![12],
            },
            ..spec(platform)
        };
        let groups = base.patient_indices.len() * base.initial_bgs.len();
        for kind in 0..3 {
            for mitigate in [false, true] {
                let spec = CampaignSpec {
                    mitigate,
                    ..base.clone()
                };
                let name = ["dt", "mlp-3c", "lstm"][kind];
                let case = format!("{platform:?}, {name}, mitigate {mitigate}");
                let calls = AtomicUsize::new(0);
                let factory = |ctx: &ScenarioCtx| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    make(kind, ctx)
                };
                let serial = run_campaign_serial(&spec, Some(&factory));
                let alerts = serial
                    .iter()
                    .flat_map(|t| &t.records)
                    .filter(|r| r.alert.is_some())
                    .count();
                assert!(alerts > 0, "{case}: no alert");
                for workers in [1, 2] {
                    let options = CampaignOptions {
                        workers: Some(workers),
                        ..CampaignOptions::default()
                    };
                    calls.store(0, Ordering::Relaxed);
                    let mut traces = Vec::new();
                    run_campaign_resumable(&spec, Some(&factory), &options, None, |_, o| {
                        traces.push(o.into_trace().expect("clean job failed"));
                    })
                    .unwrap();
                    assert_eq!(traces, serial, "{case}, {workers} workers");
                    assert_eq!(
                        calls.load(Ordering::Relaxed),
                        groups,
                        "{case}, {workers} workers"
                    );
                }
            }
        }
    }
}

/// Killed inside a group whose fault-free job was already emitted, a
/// resume runs the group's remaining jobs as riders of a fresh lane and
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
