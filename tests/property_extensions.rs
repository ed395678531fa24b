//! Property-based tests for the extension layers: the CGM error
//! model, the monitor-side context builder, the HMS mitigation
//! specification, and the context-dependent mitigator.

use aps_repro::core::context::{ContextVector, Trend, BG_TREND_EPS, IOB_TREND_EPS};
use aps_repro::core::hms::{
    context_series, ContextMitigator, ContextMitigatorConfig, Hms, TsLearnConfig, DEFAULT_TS_STEPS,
};
use aps_repro::glucose::sensor_error::{mard, CgmErrorModel, ErrorModelConfig};
use aps_repro::prelude::*;
use aps_repro::types::{StepRecord, TraceMeta, CONTROL_CYCLE_MINUTES};
use proptest::prelude::*;

proptest! {
    /// CGM error model: distorted readings are always physiological
    /// and the process is deterministic per seed.
    #[test]
    fn error_model_is_bounded_and_deterministic(
        bg in 20.0f64..500.0,
        seed in any::<u64>(),
        n in 1usize..100,
    ) {
        let config = ErrorModelConfig { seed, ..ErrorModelConfig::degraded() };
        let run = || -> Vec<f64> {
            let mut m = CgmErrorModel::new(config);
            (0..n).map(|_| m.distort(MgDl(bg), 5.0).value()).collect()
        };
        let a = run();
        let b = run();
        prop_assert_eq!(&a, &b);
        for v in a {
            prop_assert!((10.0..=600.0).contains(&v));
        }
    }

    /// MARD is scale-invariant: scaling truth and distorted series by
    /// the same positive factor leaves it unchanged.
    #[test]
    fn mard_is_scale_invariant(
        pairs in prop::collection::vec((50.0f64..400.0, -30.0f64..30.0), 1..50),
        k in 0.1f64..10.0,
    ) {
        let truth: Vec<f64> = pairs.iter().map(|(t, _)| *t).collect();
        let distorted: Vec<f64> = pairs.iter().map(|(t, e)| t + e).collect();
        let m1 = mard(&truth, &distorted);
        let ts: Vec<f64> = truth.iter().map(|t| t * k).collect();
        let ds: Vec<f64> = distorted.iter().map(|d| d * k).collect();
        let m2 = mard(&ts, &ds);
        prop_assert!((m1 - m2).abs() < 1e-9);
    }

    /// HMS deadline learning always lands inside the configured
    /// bounds, whatever the TTH distribution looks like.
    #[test]
    fn ts_learning_respects_bounds(
        tths in prop::collection::vec(0u32..150, 1..40),
        quantile in 0.0f64..1.0,
        fraction in 0.0f64..1.0,
    ) {
        let scs = Scs::with_default_thresholds(MgDl(110.0));
        let mut hms = Hms::for_scs(&scs);
        let traces: Vec<SimTrace> = tths.iter().map(|&dt| {
            let meta = TraceMeta {
                patient: "p".into(),
                initial_bg: 120.0,
                fault_name: "f".into(),
                fault_start: Some(Step(10)),
                hazard_onset: Some(Step(10 + dt)),
                hazard_type: Some(Hazard::H1),
            };
            let mut t = SimTrace::new(meta);
            for s in 0..(11 + dt) {
                t.records.push(StepRecord::blank(Step(s)));
            }
            t
        }).collect();
        let cfg = TsLearnConfig {
            quantile,
            safety_fraction: fraction,
            min_steps: 2,
            max_steps: 18,
        };
        hms.learn_ts(&traces, &cfg);
        for rule in &hms.rules {
            if rule.hazard == Hazard::H1 {
                prop_assert!((2..=18).contains(&rule.ts_steps));
            } else {
                prop_assert_eq!(rule.ts_steps, DEFAULT_TS_STEPS);
            }
        }
    }

    /// Context mitigation output is always inside [0, max_rate]; H2
    /// corrections are monotone in BG excess and antitone in IOB.
    #[test]
    fn context_mitigation_is_bounded_and_monotone(
        bg1 in 60.0f64..400.0,
        bg_delta in 0.0f64..100.0,
        iob1 in -1.0f64..6.0,
        iob_delta in 0.0f64..3.0,
        commanded in 0.0f64..8.0,
    ) {
        let m = ContextMitigator::new(ContextMitigatorConfig::for_run(
            MgDl(110.0),
            UnitsPerHour(1.0),
            UnitsPerHour(6.0),
        ));
        let ctx = |bg: f64, iob: f64| ContextVector { bg, dbg: 0.0, iob, diob: 0.0 };
        for hazard in [None, Some(Hazard::H1), Some(Hazard::H2)] {
            let out = m.mitigate(hazard, &ctx(bg1, iob1), UnitsPerHour(commanded));
            prop_assert!((0.0..=8.0).contains(&out.value()), "{hazard:?} -> {out:?}");
            if hazard.is_some() {
                prop_assert!(out.value() <= 6.0, "corrective rate above ceiling");
            }
        }
        // Monotonicity on the H2 side.
        let low = m.mitigate(Some(Hazard::H2), &ctx(bg1, iob1), UnitsPerHour(0.0));
        let high = m.mitigate(Some(Hazard::H2), &ctx(bg1 + bg_delta, iob1), UnitsPerHour(0.0));
        prop_assert!(high >= low, "correction not monotone in BG");
        let more_iob =
            m.mitigate(Some(Hazard::H2), &ctx(bg1, iob1 + iob_delta), UnitsPerHour(0.0));
        prop_assert!(more_iob <= low, "correction not antitone in IOB");
    }

    /// Context reconstruction from a trace matches exact finite
    /// differences for arbitrary BG/IOB series.
    #[test]
    fn context_series_is_exact_finite_differences(
        series in prop::collection::vec((40.0f64..400.0, 0.0f64..5.0), 1..60),
    ) {
        let mut trace = SimTrace::new(TraceMeta::default());
        for (i, (bg, iob)) in series.iter().enumerate() {
            let mut rec = StepRecord::blank(Step(i as u32));
            rec.bg = MgDl(*bg);
            rec.iob = Units(*iob);
            trace.records.push(rec);
        }
        let ctx = context_series(&trace);
        prop_assert_eq!(ctx.len(), series.len());
        for i in 1..series.len() {
            prop_assert!((ctx[i].dbg - (series[i].0 - series[i - 1].0)).abs() < 1e-12);
            let diob = (series[i].1 - series[i - 1].1) / CONTROL_CYCLE_MINUTES;
            prop_assert!((ctx[i].diob - diob).abs() < 1e-12);
        }
    }

    /// The HMS audit never reports more honored entries than total
    /// entries, and `entries = honored + truncated + violations`.
    #[test]
    fn hms_report_is_an_exact_partition(
        bgs in prop::collection::vec(40.0f64..300.0, 5..80),
        action_seed in any::<u8>(),
    ) {
        let scs = Scs::with_default_thresholds(MgDl(110.0));
        let hms = Hms::for_scs(&scs);
        let mut trace = SimTrace::new(TraceMeta::default());
        let actions = ControlAction::ALL;
        for (i, bg) in bgs.iter().enumerate() {
            let mut rec = StepRecord::blank(Step(i as u32));
            rec.bg = MgDl(*bg);
            rec.iob = Units(((i as u32 ^ u32::from(action_seed)) % 5) as f64 - 1.0);
            rec.action = actions[(i + action_seed as usize) % 4];
            trace.records.push(rec);
        }
        let report = hms.check_trace(&scs, &trace);
        prop_assert_eq!(
            report.entries,
            report.honored + report.truncated + report.violations.len()
        );
    }

    /// With every error term at zero the error model is the identity
    /// on physiological readings, whatever the seed: the calibration
    /// and noise draws reach the output only through their scales.
    #[test]
    fn error_model_without_error_terms_is_identity(
        bgs in prop::collection::vec(10.0f64..600.0, 1..100),
        seed in any::<u64>(),
        ar_coeff in 0.0f64..1.0,
    ) {
        let config = ErrorModelConfig {
            ar_coeff,
            noise_sd: 0.0,
            gain_sd: 0.0,
            offset_sd: 0.0,
            gain_drift_per_hour: 0.0,
            calibration_interval_min: 60.0,
            seed,
        };
        let mut m = CgmErrorModel::new(config);
        let out: Vec<f64> = bgs.iter().map(|&bg| m.distort(MgDl(bg), 5.0).value()).collect();
        prop_assert_eq!(&out, &bgs);
        prop_assert_eq!(mard(&bgs, &out), 0.0);
    }

    /// MARD is non-negative, zero on agreement, and symmetric in the
    /// sign of each error.
    #[test]
    fn mard_is_nonnegative_and_sign_symmetric(
        pairs in prop::collection::vec((50.0f64..400.0, -30.0f64..30.0), 1..50),
    ) {
        let truth: Vec<f64> = pairs.iter().map(|(t, _)| *t).collect();
        let over: Vec<f64> = pairs.iter().map(|(t, e)| t + e).collect();
        let under: Vec<f64> = pairs.iter().map(|(t, e)| t - e).collect();
        let m = mard(&truth, &over);
        prop_assert!(m >= 0.0);
        prop_assert!((m - mard(&truth, &under)).abs() < 1e-12);
        prop_assert_eq!(mard(&truth, &truth), 0.0);
    }

    /// Trend classification honours its dead-band exactly and mirrors
    /// under negation of the derivative.
    #[test]
    fn trend_respects_dead_band_and_mirrors(
        d in -10.0f64..10.0,
        eps in 0.0f64..5.0,
    ) {
        let t = Trend::of(d, eps);
        let expected = if d > eps {
            Trend::Rising
        } else if d < -eps {
            Trend::Falling
        } else {
            Trend::Flat
        };
        prop_assert_eq!(t, expected);
        let mirrored = match t {
            Trend::Rising => Trend::Falling,
            Trend::Falling => Trend::Rising,
            Trend::Flat => Trend::Flat,
        };
        prop_assert_eq!(Trend::of(-d, eps), mirrored);
        let ctx = ContextVector { bg: 120.0, dbg: d, iob: 0.0, diob: d * 1e-3 };
        prop_assert_eq!(ctx.bg_trend(), Trend::of(d, BG_TREND_EPS));
        prop_assert_eq!(ctx.iob_trend(), Trend::of(d * 1e-3, IOB_TREND_EPS));
    }

    /// With no hazard predicted the mitigator passes the command
    /// through untouched; a predicted H1 always suspends delivery; an
    /// H2 correction never drops below basal.
    #[test]
    fn mitigator_passes_through_suspends_and_floors_at_basal(
        bg in 40.0f64..400.0,
        iob in -2.0f64..8.0,
        commanded in 0.0f64..10.0,
        basal in 0.1f64..2.0,
    ) {
        let m = ContextMitigator::new(ContextMitigatorConfig::for_run(
            MgDl(110.0),
            UnitsPerHour(basal),
            UnitsPerHour(6.0),
        ));
        let ctx = ContextVector { bg, dbg: 0.0, iob, diob: 0.0 };
        prop_assert_eq!(m.mitigate(None, &ctx, UnitsPerHour(commanded)), UnitsPerHour(commanded));
        prop_assert_eq!(
            m.mitigate(Some(Hazard::H1), &ctx, UnitsPerHour(commanded)),
            UnitsPerHour(0.0)
        );
        let h2 = m.mitigate(Some(Hazard::H2), &ctx, UnitsPerHour(commanded)).value();
        prop_assert!((basal..=6.0).contains(&h2), "H2 rate {h2} outside [basal, max]");
    }

    /// The online context builder reports exact BG differences, starts
    /// every run flat, and after `reset` replays a run identically.
    #[test]
    fn context_builder_reset_replays_identically(
        steps in prop::collection::vec((40.0f64..400.0, 0.0f64..6.0), 1..60),
        basal in 0.1f64..2.0,
    ) {
        let mut builder = ContextBuilder::new(UnitsPerHour(basal));
        let run = |b: &mut ContextBuilder| -> Vec<ContextVector> {
            steps.iter().map(|&(bg, rate)| {
                let ctx = b.observe_bg(MgDl(bg));
                b.observe_delivery(UnitsPerHour(rate));
                ctx
            }).collect()
        };
        let first = run(&mut builder);
        prop_assert_eq!(first[0].dbg, 0.0);
        for i in 1..steps.len() {
            prop_assert_eq!(first[i].dbg, steps[i].0 - steps[i - 1].0);
        }
        builder.reset();
        let second = run(&mut builder);
        prop_assert_eq!(&first, &second);
        let fresh = run(&mut ContextBuilder::new(UnitsPerHour(basal)));
        prop_assert_eq!(&first, &fresh);
    }

    /// Learned deadlines never shrink when the anchoring TTH quantile
    /// rises, and both hazard types learn from their own traces only.
    #[test]
    fn learned_deadlines_are_monotone_in_quantile(
        tths in prop::collection::vec((0u32..150, any::<bool>()), 1..40),
        q_lo in 0.0f64..1.0,
        q_step in 0.0f64..1.0,
        fraction in 0.0f64..1.0,
    ) {
        let scs = Scs::with_default_thresholds(MgDl(110.0));
        let traces: Vec<SimTrace> = tths.iter().map(|&(dt, h1)| {
            let hazard = if h1 { Hazard::H1 } else { Hazard::H2 };
            let meta = TraceMeta {
                patient: "p".into(),
                initial_bg: 120.0,
                fault_name: "f".into(),
                fault_start: Some(Step(10)),
                hazard_onset: Some(Step(10 + dt)),
                hazard_type: Some(hazard),
            };
            let mut t = SimTrace::new(meta);
            for s in 0..(11 + dt) {
                t.records.push(StepRecord::blank(Step(s)));
            }
            t
        }).collect();
        let learn = |quantile: f64| -> Hms {
            let mut hms = Hms::for_scs(&scs);
            hms.learn_ts(&traces, &TsLearnConfig {
                quantile,
                safety_fraction: fraction,
                min_steps: 1,
                max_steps: 24,
            });
            hms
        };
        let lo = learn(q_lo);
        let hi = learn((q_lo + q_step).min(1.0));
        for (a, b) in lo.rules.iter().zip(&hi.rules) {
            prop_assert!(a.ts_steps <= b.ts_steps, "rule {}: {} > {}", a.uca_id, a.ts_steps, b.ts_steps);
        }
        for hazard in [Hazard::H1, Hazard::H2] {
            let seen = tths.iter().any(|&(_, h1)| h1 == (hazard == Hazard::H1));
            for rule in lo.rules.iter().filter(|r| r.hazard == hazard) {
                if !seen {
                    prop_assert_eq!(rule.ts_steps, DEFAULT_TS_STEPS);
                }
            }
        }
    }
}
