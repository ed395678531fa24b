//! The physics banks campaign groups run on.
//!
//! A job run on its own pays the full RK4 integration for a single
//! patient every control cycle. A campaign group's lanes instead sit
//! in structure-of-arrays patient banks of [`BATCH_LANES`] lanes
//! ([`aps_glucose::bergman::BatchedBergman`] /
//! [`aps_glucose::dalla_man::BatchedDallaMan`]), and the physics
//! integrates a bank's lanes with per-lane loops over flat arrays (the
//! shape the auto-vectorizer turns into SIMD).
//!
//! Only the physics is batched. Controller, CGM, pump, monitor,
//! injector, mitigation and trace recording are each lane's own
//! components, stepped by the closed-loop cycle every engine shares
//! (the crate-private `engine` module), of which a scalar run is the
//! one-lane instance. A group starts as one live lane in a bank whose
//! other lanes are padding, and a lane that splits off takes a free
//! lane of the last bank, or of a bank added for it (see the
//! crate-private `fork` module).
//!
//! # Bit-identity
//!
//! Lanes are arithmetically independent — no horizontal reductions, no
//! lane-crossing terms — and the batched physics keeps the scalar
//! patient's per-lane operation order, so IEEE-754 determinism makes
//! every lane's trace equal, bit for bit, the same job run alone by
//! [`run_campaign_serial`](crate::campaign::run_campaign_serial)
//! (pinned by `tests/batched_equivalence.rs` and
//! `tests/fork_equivalence.rs`). A lane whose ODE state diverges to
//! NaN/∞ fails its end-of-cycle finiteness check at the same cycle
//! index as a scalar run (non-finite state is absorbing under the
//! additive RK4 update), surfaces as its jobs'
//! [`SimError::NonFinite`](crate::outcome::SimError::NonFinite), and —
//! because nothing crosses lanes — never poisons its lane-mates.

use crate::engine::LanePhysics;
use aps_glucose::bergman::BatchedBergman;
use aps_glucose::dalla_man::BatchedDallaMan;
use aps_glucose::patients::CohortPatient;
use aps_glucose::SplitLanes;
use aps_types::{MgDl, UnitsPerHour};

/// Lane width of the batched campaign executor.
///
/// Eight f64 lanes fill one AVX-512 register or two AVX2 / NEON
/// registers per state component — wide enough that the per-lane
/// stage loops vectorize profitably, narrow enough that a bank's
/// scratch stays resident in L1 and a group with few lanes wastes few
/// of them.
pub const BATCH_LANES: usize = 8;

/// One bank of `LANES` lanes, each loaded with `patient`, as the
/// physics of a lane set. A real parameter set in the padding lanes
/// (instead of the bank's zeroed defaults) keeps their ODE arithmetic
/// finite, so no spurious NaNs ride along in the bank.
pub(crate) fn banks<const LANES: usize>(patient: &CohortPatient) -> Box<dyn LanePhysics> {
    match patient {
        CohortPatient::Bergman(p) => {
            let mut bank = BatchedBergman::<LANES>::new();
            for l in 0..LANES {
                bank.load_lane(l, p);
            }
            Box::new(Banks(vec![bank]))
        }
        CohortPatient::DallaMan(p) => {
            let mut bank = BatchedDallaMan::<LANES>::new();
            for l in 0..LANES {
                bank.load_lane(l, p);
            }
            Box::new(Banks(vec![bank]))
        }
    }
}

/// Lockstep physics in banks of `L` lanes: lane `l` is lane `l % L` of
/// bank `l / L`.
struct Banks<B, const L: usize>(Vec<B>);

impl<B: SplitLanes<L>, const L: usize> LanePhysics for Banks<B, L> {
    fn width(&self) -> usize {
        L
    }

    fn bg(&self, lane: usize) -> MgDl {
        self.0[lane / L].bg(lane % L)
    }

    fn step_bank(&mut self, bank: usize, rates: &[UnitsPerHour], minutes: f64) {
        let mut all = [UnitsPerHour(0.0); L];
        all[..rates.len()].copy_from_slice(rates);
        self.0[bank].step_all(&all, minutes);
    }

    fn ingest(&mut self, lane: usize, carbs_g: f64) {
        self.0[lane / L].ingest(lane % L, carbs_g);
    }

    fn exert(&mut self, lane: usize, intensity: f64, duration_min: f64) {
        self.0[lane / L].exert(lane % L, intensity, duration_min);
    }

    fn lane_is_finite(&self, lane: usize) -> bool {
        self.0[lane / L].lane_is_finite(lane % L)
    }

    /// A new bank starts as a copy of the bank of `from`, so its
    /// padding lanes hold the same patient.
    fn split(&mut self, from: usize, to: usize) {
        if to / L == self.0.len() {
            let bank = self.0[from / L].clone();
            self.0.push(bank);
        }
        let state = self.0[from / L].lane(from % L);
        self.0[to / L].set_lane(to % L, state);
    }
}

#[cfg(test)]
mod tests {
    use crate::campaign::{run_campaign, run_campaign_serial, CampaignSpec};
    use crate::platform::Platform;

    #[test]
    fn batched_campaign_equals_serial() {
        let spec = CampaignSpec {
            patient_indices: vec![0],
            steps: 40,
            ..CampaignSpec::quick(Platform::GlucosymOref0)
        };
        let serial = run_campaign_serial(&spec, None);
        let batched = run_campaign(&spec, None);
        assert_eq!(batched, serial);
    }
}
