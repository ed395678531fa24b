//! Golden campaign digests.
//!
//! Every other equivalence suite compares two execution paths that
//! share the lockstep engine (`run_lanes`) and the same patients, IOB,
//! CGM, pump and hazard labeller, so a behaviour change inside that
//! shared code moves both sides and passes them all. These constants
//! pin the rolling campaign digest (see
//! `aps_repro::sim::checkpoint::trace_digest`) of fixed quick
//! campaigns instead: a change to any bit of any trace fails here.
//! Re-record them only for an intended behaviour change, and say why
//! in the change log.

use aps_repro::prelude::*;
use aps_repro::sim::campaign::{run_campaign_resumable, CampaignOptions};

fn digest(spec: &CampaignSpec, factory: Option<&MonitorFactory<'_>>) -> String {
    let report =
        run_campaign_resumable(spec, factory, &CampaignOptions::default(), None, |_, _| {})
            .unwrap();
    assert_eq!(report.failed_jobs, 0, "{:?}", report.ledger);
    report.digest
}

#[test]
fn quick_campaign_digests_are_pinned() {
    for (platform, want) in [
        (Platform::GlucosymOref0, "2be9f26fae87671b"),
        (Platform::T1dsBasalBolus, "5a91d7150a5551cd"),
    ] {
        let got = digest(&CampaignSpec::quick(platform), None);
        assert_eq!(got, want, "{platform:?}");
    }
}

#[test]
fn mitigated_cawot_campaign_digest_is_pinned() {
    let spec = CampaignSpec {
        mitigate: true,
        ..CampaignSpec::quick(Platform::T1dsBasalBolus)
    };
    let factory = |ctx: &ScenarioCtx| {
        Box::new(CawMonitor::new(
            "cawot",
            Scs::with_default_thresholds(ctx.target),
            ctx.basal,
        )) as Box<dyn HazardMonitor>
    };
    assert_eq!(digest(&spec, Some(&factory)), "764d0248bf6aebaa");
}
