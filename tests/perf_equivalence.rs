//! Equivalence guarantees behind the PR-1 performance work.
//!
//! The hot-path rewrites (scratch-buffer RK4, lock-free campaign
//! executor) are required to be *behavior-preserving*. These property
//! tests pin that down:
//!
//! * the scratch integrator produces bit-identical trajectories to the
//!   seed's allocating RK4 on randomized dynamics at the patient
//!   models' dimensions (Bergman: 6 states, Dalla Man: 13);
//! * both patient models are deterministic under randomized insulin
//!   schedules (the integrator swap introduced no hidden state);
//! * the parallel campaign executor returns exactly the serial
//!   executor's traces, in the same order.

use aps_bench::perf::seed_baseline::integrate_alloc;
use aps_repro::glucose::ode::Rk4Scratch;
use aps_repro::prelude::*;
use aps_repro::sim::campaign::run_campaign_serial;
use proptest::prelude::*;

/// A randomized but bounded nonlinear system over `N` states: linear
/// leak per state plus saturated cross-coupling, the structural shape
/// of the glucose models (compartment leaks + bounded interactions).
fn coupled_dynamics<const N: usize>(coeffs: [f64; N]) -> impl Fn(f64, &[f64], &mut [f64]) {
    move |t: f64, x: &[f64], d: &mut [f64]| {
        for i in 0..N {
            let neighbor = x[(i + 1) % N];
            d[i] = -0.1 * (1.0 + coeffs[i].abs()) * x[i]
                + (0.05 * coeffs[i] * neighbor).tanh()
                + 0.001 * t;
        }
    }
}

fn to_array<const N: usize>(v: &[f64]) -> [f64; N] {
    let mut out = [0.0; N];
    for (o, &s) in out.iter_mut().zip(v) {
        *o = s;
    }
    out
}

/// Drives the seed and the scratch integrator over a multi-window
/// schedule and asserts exact equality after every window. `N` is
/// const-generic so the scratch is exercised at the real model
/// dimensions.
fn check_bit_identical<const N: usize>(
    coeffs: [f64; N],
    x0: [f64; N],
    windows: &[f64],
) -> Result<(), String> {
    let f = coupled_dynamics::<N>(coeffs);
    let mut seed_x = x0.to_vec();
    let mut fixed_x = x0;
    let mut fixed = Rk4Scratch::<N>::new();
    let mut t = 0.0;
    for &w in windows {
        integrate_alloc(&f, t, &mut seed_x, w, 1.0);
        fixed.integrate(&f, t, &mut fixed_x, w, 1.0);
        t += w;
        if fixed_x.to_vec() != seed_x {
            return Err(format!("fixed scratch diverged: {fixed_x:?} vs {seed_x:?}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bergman dimension (6 states): scratch RK4 == seed RK4, bitwise.
    #[test]
    fn rk4_bit_identical_at_bergman_dimension(
        coeffs in prop::collection::vec(-2.0f64..2.0, 6..7),
        x0 in prop::collection::vec(-50.0f64..200.0, 6..7),
        windows in prop::collection::vec(0.5f64..12.0, 1..6),
    ) {
        let r = check_bit_identical::<6>(to_array(&coeffs), to_array(&x0), &windows);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    /// Dalla Man dimension (13 states): scratch RK4 == seed RK4, bitwise.
    #[test]
    fn rk4_bit_identical_at_dalla_man_dimension(
        coeffs in prop::collection::vec(-2.0f64..2.0, 13..14),
        x0 in prop::collection::vec(-50.0f64..200.0, 13..14),
        windows in prop::collection::vec(0.5f64..12.0, 1..6),
    ) {
        let r = check_bit_identical::<13>(to_array(&coeffs), to_array(&x0), &windows);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    /// Both patient models stay deterministic under randomized insulin
    /// schedules: two identical replays produce identical trajectories
    /// (the scratch integrator carries no hidden state across steps).
    #[test]
    fn patient_models_are_deterministic_with_scratch_integrator(
        patient_idx in 0usize..10,
        rates in prop::collection::vec(0.0f64..6.0, 10..40),
        bg0 in 80.0f64..200.0,
    ) {
        for platform in Platform::ALL {
            let replay = || {
                let mut p = platform.patients().remove(patient_idx);
                p.reset(MgDl(bg0));
                let mut series = Vec::with_capacity(rates.len());
                for &r in &rates {
                    p.step(UnitsPerHour(r), 5.0);
                    series.push(p.bg().value());
                }
                series
            };
            let a = replay();
            prop_assert!(a.iter().all(|v| v.is_finite()), "non-finite BG");
            prop_assert_eq!(&a, &replay());
        }
    }
}

/// The parallel executor's output is exactly the serial executor's,
/// for several campaign shapes (including one smaller than the worker
/// count and one with a monitor factory).
#[test]
fn parallel_campaign_equals_serial_campaign() {
    let base = CampaignSpec::quick(Platform::GlucosymOref0);
    let specs = [
        CampaignSpec {
            patient_indices: vec![0],
            initial_bgs: vec![120.0],
            steps: 30,
            ..base.clone()
        },
        CampaignSpec {
            patient_indices: vec![0, 2],
            initial_bgs: vec![100.0, 160.0],
            steps: 25,
            ..base.clone()
        },
    ];
    for spec in specs {
        let serial = run_campaign_serial(&spec, None);
        let parallel = run_campaign(&spec, None);
        assert_eq!(serial, parallel, "executors diverged on {spec:?}");

        let factory: Box<MonitorFactory<'_>> = Box::new(|ctx: &ScenarioCtx| {
            Box::new(CawMonitor::new(
                "cawot",
                Scs::with_default_thresholds(MgDl(110.0)),
                ctx.basal,
            )) as Box<dyn HazardMonitor>
        });
        let serial_m = run_campaign_serial(&spec, Some(factory.as_ref()));
        let parallel_m = run_campaign(&spec, Some(factory.as_ref()));
        assert_eq!(serial_m, parallel_m, "monitored executors diverged");
    }
}
