//! Data-driven refinement of the SCS thresholds (§III-C2).
//!
//! Fault-injection campaigns produce hazardous traces; for each rule we
//! collect the `µ` values (IOB, or BG for rule 10) at the pre-hazard
//! steps whose context and action match the rule, then fit the rule's β
//! by minimizing a tightness loss (TMEE by default) of the robustness
//! residual with box-constrained L-BFGS. Patient-specific monitors
//! learn from one patient's traces; population monitors from all.
//!
//! Extraction takes one pass per hazardous trace: the monitor-side
//! context series is built once and every rule of the trace's hazard
//! type folds its matches from it. With `pre_hazard_only` the pass
//! stops at hazard onset, since no later record can contribute.

use crate::context::{ContextBuilder, ContextVector};
use crate::scs::{ActionCond, BgCond, IobCond, Scs, UcaRule};
use aps_optim::{lbfgsb, Bounds, LossKind, Options};
use aps_types::{ControlAction, MgDl, SimTrace, UnitsPerHour};
use serde::{Deserialize, Serialize};

/// Threshold-learning configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LearnConfig {
    /// Tightness loss (paper default: TMEE).
    pub loss: LossKind,
    /// Bounds for IOB thresholds (U).
    pub iob_bounds: (f64, f64),
    /// Bounds for the rule-10 glucose floor (mg/dL).
    pub bg_bounds: (f64, f64),
    /// Only steps at or before hazard onset are used as negative
    /// examples when `true` (the paper's pre-hazard UCA samples).
    pub pre_hazard_only: bool,
    /// Only steps within this many cycles *before* onset contribute —
    /// the UCA definition's "period T that u_t can affect the state
    /// space". Steps hours before the hazard carry no causal signal
    /// and would dilute the fit.
    pub lead_window: u32,
    /// Minimum number of trace extremes a rule must collect before its
    /// β moves off the guideline default. A threshold fitted from a
    /// couple of samples is statistical noise and can easily *relax*
    /// the monitor below guideline sensitivity; paper-scale campaigns
    /// clear this floor comfortably. (No `#[serde(default)]`: that
    /// would silently deserialize to 0 and disable the guard.)
    pub min_samples: usize,
}

impl Default for LearnConfig {
    fn default() -> LearnConfig {
        LearnConfig {
            loss: LossKind::Tmee,
            iob_bounds: (-5.0, 10.0),
            // The mandatory-suspend glucose floor may not be learned
            // above 80 mg/dL: a higher floor would flag routine dips
            // (clinically, <80 is the boundary of biochemical
            // hypoglycemia).
            bg_bounds: (45.0, 80.0),
            pre_hazard_only: true,
            lead_window: 36,
            min_samples: 4,
        }
    }
}

/// Outcome of fitting one rule's threshold.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuleFit {
    /// Table I rule id.
    pub rule_id: u8,
    /// Learned β (or the default if no samples matched).
    pub beta: f64,
    /// Number of hazardous samples the fit used.
    pub n_samples: usize,
    /// Optimizer iterations (0 if skipped).
    pub iterations: usize,
}

/// Extracts one `µ` value per matching hazardous trace — the trace's
/// *extreme* over the pre-hazard window (Eq. 3 sums the loss over
/// traces in `H`, so each trace contributes one robustness residual).
///
/// For a `µ < β` predicate the extreme is the trace's **minimum** µ
/// (the tightest witness that the unsafe context occurred: any β above
/// it catches the trace); for `µ > β` it is the **maximum**.
///
/// `basal` is the basal rate the monitor-side IOB estimate is relative
/// to (the wrapped controller's configured basal).
///
/// This is the one-rule call of the extractor that
/// [`learn_thresholds`] runs over every rule at once.
pub fn extract_rule_samples(
    scs: &Scs,
    rule: &UcaRule,
    traces: &[SimTrace],
    basal: UnitsPerHour,
    config: &LearnConfig,
) -> Vec<f64> {
    extract_samples(scs, std::slice::from_ref(rule), traces, basal, config)
        .pop()
        .unwrap_or_default()
}

/// One rule's share of an extraction pass: the rule with its learnable
/// predicate removed, the extreme µ of the current trace, and the
/// extremes of the traces before it.
struct RuleProbe<'r> {
    rule: &'r UcaRule,
    relaxed: UcaRule,
    /// `µ < β` predicate: the extreme is a minimum.
    below: bool,
    extreme: Option<f64>,
    samples: Vec<f64>,
}

impl<'r> RuleProbe<'r> {
    fn new(rule: &'r UcaRule) -> RuleProbe<'r> {
        let mut relaxed = rule.clone();
        match rule.iob {
            IobCond::Any => {
                // Rule 10: relax the BG<beta predicate itself.
                if matches!(rule.bg, BgCond::BelowBeta) {
                    relaxed.beta = f64::INFINITY;
                }
            }
            _ => relaxed.iob = IobCond::Any,
        }
        RuleProbe {
            rule,
            relaxed,
            below: !matches!(rule.iob, IobCond::AboveBeta),
            extreme: None,
            samples: Vec::new(),
        }
    }

    /// Folds one in-window record into the trace's extreme when its
    /// action and its context, less the learnable predicate, match.
    fn observe(&mut self, ctx: &ContextVector, action: ControlAction, target: MgDl) {
        let action_matches = match self.rule.action {
            ActionCond::Forbidden(u) => action == u,
            ActionCond::Required(u) => action != u,
        };
        if !action_matches || !self.relaxed.context_matches(ctx, target) {
            return;
        }
        let mu = match self.rule.iob {
            IobCond::Any => ctx.bg,
            _ => ctx.iob,
        };
        self.extreme = Some(match self.extreme {
            None => mu,
            Some(prev) if self.below => prev.min(mu),
            Some(prev) => prev.max(mu),
        });
    }

    /// Ends the current trace: its extreme, if any record matched,
    /// becomes the trace's sample.
    fn finish_trace(&mut self) {
        if let Some(mu) = self.extreme.take() {
            self.samples.push(mu);
        }
    }
}

/// The sample extractor behind [`extract_rule_samples`] and
/// [`learn_thresholds`]: entry `k` of the result holds `rules[k]`'s
/// samples, in trace order.
///
/// Each hazardous trace gets one context pass shared by every rule of
/// its hazard type. With `pre_hazard_only` the pass ends at onset:
/// records are in step order, so no later record can contribute.
fn extract_samples(
    scs: &Scs,
    rules: &[UcaRule],
    traces: &[SimTrace],
    basal: UnitsPerHour,
    config: &LearnConfig,
) -> Vec<Vec<f64>> {
    let mut probes: Vec<RuleProbe> = rules.iter().map(RuleProbe::new).collect();
    let mut builder = ContextBuilder::new(basal);
    for trace in traces {
        let Some(hazard_type) = trace.meta.hazard_type else {
            continue;
        };
        if !probes.iter().any(|p| p.rule.hazard == hazard_type) {
            continue;
        }
        let onset = trace
            .meta
            .hazard_onset
            .map(|s| s.index())
            .unwrap_or(usize::MAX);
        let earliest = onset.saturating_sub(config.lead_window as usize);
        builder.reset();
        for rec in trace.iter() {
            let step = rec.step.index();
            if config.pre_hazard_only && step > onset {
                break;
            }
            let ctx = builder.observe_bg(rec.bg);
            builder.observe_delivery(rec.delivered);
            if config.pre_hazard_only && step < earliest {
                continue;
            }
            for probe in probes.iter_mut().filter(|p| p.rule.hazard == hazard_type) {
                probe.observe(&ctx, rec.action, scs.target);
            }
        }
        probes.iter_mut().for_each(RuleProbe::finish_trace);
    }
    probes.into_iter().map(|p| p.samples).collect()
}

/// Fits one rule's β from its hazardous samples. Returns `None` when no
/// samples matched (the default β is kept).
fn fit_beta(rule: &UcaRule, samples: &[f64], config: &LearnConfig) -> Option<(f64, usize)> {
    if samples.is_empty() {
        return None;
    }
    // Residual orientation: positive residual = hazardous sample is
    // inside the rule's context (covered by the monitor).
    let below = match rule.iob {
        IobCond::BelowBeta => true,
        IobCond::AboveBeta => false,
        IobCond::Any => true, // rule 10: BG < beta
    };
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

/// Learns all rule thresholds from hazardous traces, returning the
/// refined SCS (the CAWT configuration) and per-rule fit reports.
pub fn learn_thresholds(
    scs: &Scs,
    traces: &[SimTrace],
    basal: UnitsPerHour,
    config: &LearnConfig,
) -> (Scs, Vec<RuleFit>) {
    let mut refined = scs.clone();
    let mut fits = Vec::new();
    let samples = extract_samples(scs, &scs.rules, traces, basal, config);
    for (rule, samples) in scs.rules.iter().zip(samples) {
        let fitted = (samples.len() >= config.min_samples.max(1))
            .then(|| fit_beta(rule, &samples, config))
            .flatten();
        let (beta, iterations) = match fitted {
            Some((b, it)) => (b, it),
            None => (rule.beta, 0),
        };
        refined.rule_mut(rule.id).expect("rule exists").beta = beta;
        fits.push(RuleFit {
            rule_id: rule.id,
            beta,
            n_samples: samples.len(),
            iterations,
        });
    }
    (refined, fits)
}

/// Filters traces to one patient (for patient-specific learning).
pub fn traces_for_patient(traces: &[SimTrace], patient: &str) -> Vec<SimTrace> {
    traces
        .iter()
        .filter(|t| t.meta.patient == patient)
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aps_types::{ControlAction, Hazard, MgDl, Step, StepRecord, TraceMeta, Units};

    /// Builds a synthetic hazardous trace: hyperglycemic, rising BG,
    /// controller wrongly *decreasing* insulin, ending in H2, with the
    /// IOB profile shaped so rule 1's context matches.
    fn h2_trace(iob_scale: f64) -> SimTrace {
        let meta = TraceMeta {
            patient: "glucosym/patientA".to_owned(),
            fault_start: Some(Step(5)),
            ..TraceMeta::default()
        };
        let mut t = SimTrace::new(meta);
        // Monitor-side IOB starts at basal equilibrium (=0 net) and the
        // delivered rate drops to 0, so net IOB stays ~0 and falls —
        // matching rule 1's IOB'<0, IOB small context. We scale
        // delivered to vary the observed IOB samples.
        for i in 0..40u32 {
            let mut r = StepRecord::blank(Step(i));
            r.bg = MgDl(150.0 + 4.0 * i as f64);
            r.bg_true = r.bg;
            r.action = ControlAction::DecreaseInsulin;
            r.delivered = UnitsPerHour(if i < 3 { 1.0 + iob_scale } else { 0.0 });
            r.commanded = r.delivered;
            r.iob = Units(0.0);
            if i >= 25 {
                r.hazard = Some(Hazard::H2);
            }
            t.push(r);
        }
        t.refresh_meta();
        t
    }

    #[test]
    fn extracts_samples_only_from_matching_traces() {
        let scs = Scs::with_default_thresholds(MgDl(110.0));
        let traces = vec![h2_trace(0.0)];
        let rule1 = scs.rule(1).unwrap().clone();
        let samples = extract_rule_samples(
            &scs,
            &rule1,
            &traces,
            UnitsPerHour(1.0),
            &LearnConfig::default(),
        );
        assert!(!samples.is_empty(), "rule 1 should collect samples");
        // H1-side rules find nothing in an H2 trace.
        let rule6 = scs.rule(6).unwrap().clone();
        let none = extract_rule_samples(
            &scs,
            &rule6,
            &traces,
            UnitsPerHour(1.0),
            &LearnConfig::default(),
        );
        assert!(none.is_empty());
    }

    /// Fraction of hazardous samples the threshold covers (µ < β for a
    /// BelowBeta rule).
    fn coverage_below(samples: &[f64], beta: f64) -> f64 {
        samples.iter().filter(|&&mu| mu < beta).count() as f64 / samples.len() as f64
    }

    #[test]
    fn learned_beta_covers_most_hazardous_samples_tightly() {
        let scs = Scs::with_default_thresholds(MgDl(110.0));
        let traces: Vec<SimTrace> = (0..4).map(|k| h2_trace(k as f64 * 0.2)).collect();
        let (refined, fits) =
            learn_thresholds(&scs, &traces, UnitsPerHour(1.0), &LearnConfig::default());
        let fit1 = fits.iter().find(|f| f.rule_id == 1).unwrap();
        assert!(fit1.n_samples > 0);
        let rule1 = scs.rule(1).unwrap().clone();
        let samples = extract_rule_samples(
            &scs,
            &rule1,
            &traces,
            UnitsPerHour(1.0),
            &LearnConfig::default(),
        );
        let max_mu = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let beta = refined.rule(1).unwrap().beta;
        // TMEE's exponential wall makes beta cover the large majority
        // of the hazardous contexts while staying tight against the
        // sample distribution (the hard r >= 0 constraint of Eq. 3 is
        // soft here, so extreme-tail samples may remain uncovered).
        let cov = coverage_below(&samples, beta);
        assert!(cov >= 0.7, "coverage only {cov:.2} with beta {beta}");
        assert!(
            beta <= max_mu + 1.5,
            "beta {beta} too loose vs max {max_mu}"
        );
    }

    #[test]
    fn rules_without_samples_keep_defaults() {
        let scs = Scs::with_default_thresholds(MgDl(110.0));
        let (refined, fits) =
            learn_thresholds(&scs, &[], UnitsPerHour(1.0), &LearnConfig::default());
        assert_eq!(refined, scs);
        assert!(fits.iter().all(|f| f.n_samples == 0 && f.iterations == 0));
    }

    #[test]
    fn patient_filter() {
        let traces = vec![h2_trace(0.0)];
        assert_eq!(traces_for_patient(&traces, "glucosym/patientA").len(), 1);
        assert_eq!(traces_for_patient(&traces, "glucosym/patientB").len(), 0);
    }

    #[test]
    fn mse_loss_lands_in_the_middle_unlike_tmee() {
        // Demonstrates the Fig. 3 point: with MSE the fitted beta sits
        // at the sample mean (violating ~half the hazardous samples);
        // TMEE's asymmetric wall pushes it to cover far more.
        let scs = Scs::with_default_thresholds(MgDl(110.0));
        let traces: Vec<SimTrace> = (0..5).map(|k| h2_trace(k as f64 * 0.3)).collect();
        let rule1 = scs.rule(1).unwrap().clone();
        let cfg_tmee = LearnConfig::default();
        let samples = extract_rule_samples(&scs, &rule1, &traces, UnitsPerHour(1.0), &cfg_tmee);

        let cfg_mse = LearnConfig {
            loss: LossKind::Mse,
            ..LearnConfig::default()
        };
        let (beta_mse, _) = fit_beta(&rule1, &samples, &cfg_mse).unwrap();
        let (beta_tmee, _) = fit_beta(&rule1, &samples, &cfg_tmee).unwrap();
        let cov_mse = coverage_below(&samples, beta_mse);
        let cov_tmee = coverage_below(&samples, beta_tmee);
        assert!(
            beta_tmee > beta_mse,
            "TMEE {beta_tmee} should sit above MSE {beta_mse}"
        );
        assert!(
            cov_tmee > cov_mse + 0.1,
            "TMEE coverage {cov_tmee:.2} should beat MSE {cov_mse:.2}"
        );
        assert!(cov_mse < 0.75, "MSE should undercover, got {cov_mse:.2}");
    }
}
