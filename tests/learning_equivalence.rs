//! Bit-identity of threshold learning with the per-rule extractor it
//! replaced.
//!
//! [`learn_thresholds`] extracts every rule's samples in one context
//! pass per hazardous trace, and that pass ends at hazard onset when
//! only pre-hazard samples count. The reference below is a copy of the
//! per-rule extractor: a fresh context pass per rule and trace, run to
//! the end of the trace, with the relaxed rule cloned per record. Both
//! must give the same samples, bit for bit, and the same fits (β bits,
//! sample counts, optimizer iterations) on recorded quick campaigns of
//! both platforms, per patient and for the whole population.

use aps_repro::core::learning::{
    extract_rule_samples, learn_thresholds, traces_for_patient, LearnConfig, RuleFit,
};
use aps_repro::core::scs::{ActionCond, BgCond, IobCond, UcaRule};
use aps_repro::optim::{lbfgsb, Bounds, Options};
use aps_repro::prelude::*;
use aps_repro::sim::campaign::{run_campaign, CampaignSpec};

/// The per-rule extractor: one fresh context pass per trace.
fn reference_extract(
    scs: &Scs,
    rule: &UcaRule,
    traces: &[SimTrace],
    basal: UnitsPerHour,
    config: &LearnConfig,
) -> Vec<f64> {
    let below = !matches!(rule.iob, IobCond::AboveBeta);
    let mut samples = Vec::new();
    for trace in traces {
        let Some(hazard_type) = trace.meta.hazard_type else {
            continue;
        };
        if hazard_type != rule.hazard {
            continue;
        }
        let onset = trace
            .meta
            .hazard_onset
            .map(|s| s.index())
            .unwrap_or(usize::MAX);
        let earliest = onset.saturating_sub(config.lead_window as usize);
        let mut builder = ContextBuilder::new(basal);
        let mut extreme: Option<f64> = None;
        for rec in trace.iter() {
            let ctx = builder.observe_bg(rec.bg);
            builder.observe_delivery(rec.delivered);
            if config.pre_hazard_only && (rec.step.index() > onset || rec.step.index() < earliest) {
                continue;
            }
            let action_matches = match rule.action {
                ActionCond::Forbidden(u) => rec.action == u,
                ActionCond::Required(u) => rec.action != u,
            };
            if !action_matches {
                continue;
            }
            let mut relaxed = rule.clone();
            match rule.iob {
                IobCond::Any => {
                    if matches!(rule.bg, BgCond::BelowBeta) {
                        relaxed.beta = f64::INFINITY;
                    }
                }
                _ => relaxed.iob = IobCond::Any,
            }
            if !relaxed.context_matches(&ctx, scs.target) {
                continue;
            }
            let mu = match rule.iob {
                IobCond::Any => ctx.bg,
                _ => ctx.iob,
            };
            extreme = Some(match extreme {
                None => mu,
                Some(prev) if below => prev.min(mu),
                Some(prev) => prev.max(mu),
            });
        }
        if let Some(mu) = extreme {
            samples.push(mu);
        }
    }
    samples
}

/// The β fit of the learner, unchanged, fed from the reference samples.
fn reference_fit(rule: &UcaRule, samples: &[f64], config: &LearnConfig) -> Option<(f64, usize)> {
    if samples.is_empty() {
        return None;
    }
    let below = !matches!(rule.iob, IobCond::AboveBeta);
    let (lo, hi) = if matches!(rule.iob, IobCond::Any) {
        config.bg_bounds
    } else {
        config.iob_bounds
    };
    let loss = config.loss;
    let objective = |x: &[f64], g: &mut [f64]| -> f64 {
        let beta = x[0];
        let mut value = 0.0;
        let mut grad = 0.0;
        for &mu in samples {
            let r = if below { beta - mu } else { mu - beta };
            value += loss.value(r);
            let dr_dbeta = if below { 1.0 } else { -1.0 };
            grad += loss.grad(r) * dr_dbeta;
        }
        let n = samples.len() as f64;
        g[0] = grad / n;
        value / n
    };
    let start = samples.iter().sum::<f64>() / samples.len() as f64;
    let sol = lbfgsb::minimize(
        objective,
        &[start.clamp(lo, hi)],
        &Bounds::new(vec![lo], vec![hi]),
        &Options {
            max_iters: 300,
            ..Options::default()
        },
    )
    .ok()?;
    Some((sol.x[0], sol.iterations))
}

/// `learn_thresholds` over the reference extractor.
fn reference_learn(
    scs: &Scs,
    traces: &[SimTrace],
    basal: UnitsPerHour,
    config: &LearnConfig,
) -> Vec<RuleFit> {
    scs.rules
        .iter()
        .map(|rule| {
            let samples = reference_extract(scs, rule, traces, basal, config);
            let fitted = (samples.len() >= config.min_samples.max(1))
                .then(|| reference_fit(rule, &samples, config))
                .flatten();
            let (beta, iterations) = fitted.unwrap_or((rule.beta, 0));
            RuleFit {
                rule_id: rule.id,
                beta,
                n_samples: samples.len(),
                iterations,
            }
        })
        .collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Each fit as (rule, β bits, samples, iterations).
fn fit_bits(fits: &[RuleFit]) -> Vec<(u8, u64, usize, usize)> {
    fits.iter()
        .map(|f| (f.rule_id, f.beta.to_bits(), f.n_samples, f.iterations))
        .collect()
}

/// The learning configurations under test: the default, every record
/// of the trace, and short lead windows.
fn configs() -> Vec<(&'static str, LearnConfig)> {
    let default = LearnConfig::default();
    vec![
        ("default", default.clone()),
        (
            "whole trace",
            LearnConfig {
                pre_hazard_only: false,
                ..default.clone()
            },
        ),
        (
            "lead 3",
            LearnConfig {
                lead_window: 3,
                min_samples: 1,
                ..default.clone()
            },
        ),
        (
            "lead 0",
            LearnConfig {
                lead_window: 0,
                min_samples: 1,
                ..default
            },
        ),
    ]
}

/// Recorded quick campaign of `platform` over three initial BGs, plus a
/// copy of some hazardous traces whose onset is unknown: their hazard
/// type still selects rules, but no record falls in a pre-hazard window.
fn corpus(platform: Platform) -> Vec<SimTrace> {
    let spec = CampaignSpec {
        initial_bgs: vec![80.0, 140.0, 200.0],
        ..CampaignSpec::quick(platform)
    };
    let mut traces = run_campaign(&spec, None);
    let no_onset: Vec<SimTrace> = traces
        .iter()
        .filter(|t| t.meta.hazard_type.is_some())
        .step_by(3)
        .map(|t| {
            let mut t = t.clone();
            t.meta.hazard_onset = None;
            t
        })
        .collect();
    assert!(!no_onset.is_empty(), "{platform:?}: no hazardous traces");
    traces.extend(no_onset);
    traces
}

/// Compares per-rule samples and fits against the reference on every
/// patient's traces and on the whole corpus.
fn check_platform(platform: Platform) {
    let traces = corpus(platform);
    let scs = Scs::with_default_thresholds(platform.target());
    let mut basals: Vec<(String, UnitsPerHour)> = Vec::new();
    for t in &traces {
        if !basals.iter().any(|(p, _)| *p == t.meta.patient) {
            let index = basals.len();
            let probe = platform.patients().remove(index);
            assert_eq!(probe.name(), t.meta.patient, "campaign patient order");
            basals.push((t.meta.patient.clone(), platform.basal_for(probe.as_ref())));
        }
    }
    let mean_basal =
        UnitsPerHour(basals.iter().map(|(_, b)| b.value()).sum::<f64>() / basals.len() as f64);
    let mut groups: Vec<(String, Vec<SimTrace>, UnitsPerHour)> = basals
        .iter()
        .map(|(p, b)| (p.clone(), traces_for_patient(&traces, p), *b))
        .collect();
    groups.push(("population".to_owned(), traces, mean_basal));

    let (mut sampled, mut fitted) = (0, 0);
    for (name, subset, basal) in &groups {
        for (label, config) in configs() {
            let case = format!("{platform:?} {name} {label}");
            for rule in &scs.rules {
                let got = extract_rule_samples(&scs, rule, subset, *basal, &config);
                let want = reference_extract(&scs, rule, subset, *basal, &config);
                assert_eq!(bits(&got), bits(&want), "{case}: rule {} samples", rule.id);
                sampled += usize::from(!got.is_empty());
            }
            let (refined, fits) = learn_thresholds(&scs, subset, *basal, &config);
            let want = reference_learn(&scs, subset, *basal, &config);
            assert_eq!(fit_bits(&fits), fit_bits(&want), "{case}: fits");
            for fit in &fits {
                let beta = refined.rule(fit.rule_id).map(|r| r.beta.to_bits());
                assert_eq!(beta, Some(fit.beta.to_bits()), "{case}: refined β");
            }
            fitted += fits.iter().filter(|f| f.iterations > 0).count();
        }
    }
    assert!(sampled > 0, "{platform:?}: no rule collected samples");
    assert!(fitted > 0, "{platform:?}: no rule was fitted");
}

#[test]
fn one_pass_learning_matches_per_rule_reference_on_glucosym() {
    check_platform(Platform::GlucosymOref0);
}

#[test]
fn one_pass_learning_matches_per_rule_reference_on_t1ds() {
    check_platform(Platform::T1dsBasalBolus);
}
