//! Fixed-step Runge–Kutta integration for the patient ODE models.
//!
//! Two steppers share the classical RK4 arithmetic, expression for
//! expression, so their trajectories are bit-identical:
//!
//! * [`Rk4Scratch`] — a const-generic, stack-only scratch for one state
//!   of statically known dimension (Bergman is 6, Dalla Man 13). No
//!   heap allocation anywhere: the five k/tmp buffers live inline in
//!   the struct. The scalar patient models step with it.
//! * [`BatchedRk4Scratch`] — the same stepper over `LANES` independent
//!   states in structure-of-arrays rows, which the batched physics
//!   banks of the lockstep campaign engine step with.

/// The state stopped being representable: some component became NaN or
/// ±∞ during (or before) an RK4 step.
///
/// Divergence is not a property of the integrator — a fault campaign
/// can legitimately push a model into a regime where the ODE blows up —
/// but letting NaN propagate *silently* is: downstream physiological
/// floors (`f64::max`) absorb NaN into their floor value and the poison
/// becomes an innocuous-looking trajectory. The `try_*` entry points
/// turn that into a typed error at the first non-finite substep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NonFiniteState {
    /// Simulation time (minutes) at the start of the offending substep.
    pub at_minutes: f64,
    /// Index of the first non-finite state component.
    pub component: usize,
}

impl std::fmt::Display for NonFiniteState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "non-finite ODE state (component {}) at t = {} min",
            self.component, self.at_minutes
        )
    }
}

impl std::error::Error for NonFiniteState {}

/// Index of the first non-finite component, if any.
#[inline]
fn first_non_finite(x: &[f64]) -> Option<usize> {
    x.iter().position(|v| !v.is_finite())
}

/// Continuous-time dynamics `dx/dt = f(t, x)` over a fixed-size state.
pub trait Dynamics {
    /// Writes the derivative of `x` at time `t` (minutes) into `dxdt`.
    fn derivative(&self, t: f64, x: &[f64], dxdt: &mut [f64]);
}

impl<F> Dynamics for F
where
    F: Fn(f64, &[f64], &mut [f64]),
{
    fn derivative(&self, t: f64, x: &[f64], dxdt: &mut [f64]) {
        self(t, x, dxdt)
    }
}

/// Subdivision of `duration` into equal steps no longer than `max_dt`.
#[inline]
fn substeps(duration: f64, max_dt: f64) -> (usize, f64) {
    assert!(max_dt > 0.0, "max_dt must be positive");
    assert!(duration > 0.0, "duration must be positive");
    let steps = (duration / max_dt).ceil() as usize;
    (steps, duration / steps as f64)
}

/// Reusable, allocation-free RK4 scratch for an `N`-dimensional state.
///
/// Construction is trivially cheap (five zeroed stack arrays), so
/// callers may either keep one instance alive across steps or build a
/// fresh one per call — neither touches the heap.
///
/// ```
/// use aps_glucose::ode::Rk4Scratch;
///
/// let mut scratch = Rk4Scratch::<1>::new();
/// let f = |_t: f64, x: &[f64], d: &mut [f64]| d[0] = -0.3 * x[0];
/// let mut x = [1.0];
/// scratch.integrate(&f, 0.0, &mut x, 10.0, 0.1);
/// assert!((x[0] - (-3.0f64).exp()).abs() < 1e-8);
/// ```
#[derive(Debug, Clone)]
pub struct Rk4Scratch<const N: usize> {
    k1: [f64; N],
    k2: [f64; N],
    k3: [f64; N],
    k4: [f64; N],
    tmp: [f64; N],
}

impl<const N: usize> Rk4Scratch<N> {
    /// Fresh scratch (all buffers zeroed; their contents never carry
    /// over between steps).
    pub const fn new() -> Rk4Scratch<N> {
        Rk4Scratch {
            k1: [0.0; N],
            k2: [0.0; N],
            k3: [0.0; N],
            k4: [0.0; N],
            tmp: [0.0; N],
        }
    }

    /// Advances `x` from `t` by `dt` with one classical RK4 step.
    pub fn step<D: Dynamics + ?Sized>(&mut self, dyn_: &D, t: f64, x: &mut [f64; N], dt: f64) {
        let Rk4Scratch {
            k1,
            k2,
            k3,
            k4,
            tmp,
        } = self;
        dyn_.derivative(t, x, k1);
        for i in 0..N {
            tmp[i] = x[i] + 0.5 * dt * k1[i];
        }
        dyn_.derivative(t + 0.5 * dt, tmp, k2);
        for i in 0..N {
            tmp[i] = x[i] + 0.5 * dt * k2[i];
        }
        dyn_.derivative(t + 0.5 * dt, tmp, k3);
        for i in 0..N {
            tmp[i] = x[i] + dt * k3[i];
        }
        dyn_.derivative(t + dt, tmp, k4);
        for i in 0..N {
            x[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
    }

    /// Integrates from `t0` over `duration` using steps of at most
    /// `max_dt`, mutating `x` in place.
    ///
    /// # Panics
    ///
    /// Panics if `max_dt` or `duration` is non-positive.
    pub fn integrate<D: Dynamics + ?Sized>(
        &mut self,
        dyn_: &D,
        t0: f64,
        x: &mut [f64; N],
        duration: f64,
        max_dt: f64,
    ) {
        let (steps, dt) = substeps(duration, max_dt);
        let mut t = t0;
        for _ in 0..steps {
            self.step(dyn_, t, x, dt);
            t += dt;
        }
    }

    /// Like [`step`](Rk4Scratch::step), but fails if the state is
    /// non-finite on entry or becomes non-finite during the step.
    ///
    /// Bit-identical to `step` on trajectories that stay finite (the
    /// arithmetic is `step`'s; only a check is added).
    ///
    /// # Errors
    ///
    /// Returns [`NonFiniteState`] naming the first offending component.
    pub fn try_step<D: Dynamics + ?Sized>(
        &mut self,
        dyn_: &D,
        t: f64,
        x: &mut [f64; N],
        dt: f64,
    ) -> Result<(), NonFiniteState> {
        if let Some(component) = first_non_finite(x) {
            return Err(NonFiniteState {
                at_minutes: t,
                component,
            });
        }
        self.step(dyn_, t, x, dt);
        match first_non_finite(x) {
            Some(component) => Err(NonFiniteState {
                at_minutes: t,
                component,
            }),
            None => Ok(()),
        }
    }

    /// Like [`integrate`](Rk4Scratch::integrate), but stops at the
    /// first substep that produces a non-finite state instead of
    /// churning NaN through the remaining substeps.
    ///
    /// # Errors
    ///
    /// Returns [`NonFiniteState`] for the offending substep; `x` holds
    /// the (poisoned) state as of that substep.
    ///
    /// # Panics
    ///
    /// Panics if `max_dt` or `duration` is non-positive.
    pub fn try_integrate<D: Dynamics + ?Sized>(
        &mut self,
        dyn_: &D,
        t0: f64,
        x: &mut [f64; N],
        duration: f64,
        max_dt: f64,
    ) -> Result<(), NonFiniteState> {
        let (steps, dt) = substeps(duration, max_dt);
        let mut t = t0;
        for _ in 0..steps {
            self.try_step(dyn_, t, x, dt)?;
            t += dt;
        }
        Ok(())
    }
}

impl<const N: usize> Default for Rk4Scratch<N> {
    fn default() -> Rk4Scratch<N> {
        Rk4Scratch::new()
    }
}

/// Continuous-time dynamics over a lane-batched structure-of-arrays
/// state: `D` compartments, each a contiguous `[f64; LANES]` row.
///
/// Lanes must stay arithmetically independent — `dxdt[d][l]` may read
/// only lane `l` of `x` (no horizontal reductions across lanes). That
/// is what lets [`BatchedRk4Scratch`] guarantee each lane's operation
/// sequence is identical to the scalar [`Rk4Scratch`] path, so batched
/// trajectories are bit-identical to scalar ones.
pub trait BatchedDynamics<const D: usize, const LANES: usize> {
    /// Writes the per-lane derivative of `x` at time `t` (minutes) into
    /// `dxdt`.
    fn derivative(&self, t: f64, x: &[[f64; LANES]; D], dxdt: &mut [[f64; LANES]; D]);
}

impl<F, const D: usize, const LANES: usize> BatchedDynamics<D, LANES> for F
where
    F: Fn(f64, &[[f64; LANES]; D], &mut [[f64; LANES]; D]),
{
    fn derivative(&self, t: f64, x: &[[f64; LANES]; D], dxdt: &mut [[f64; LANES]; D]) {
        self(t, x, dxdt)
    }
}

/// Allocation-free RK4 scratch advancing `LANES` independent
/// `D`-dimensional states in lockstep through one instruction stream.
///
/// The stage math is written as plain per-lane loops over the flat
/// rows; with lanes independent, the compiler autovectorizes each loop.
/// Per lane the arithmetic is expression-for-expression the same as
/// [`Rk4Scratch::step`] (`x + 0.5*dt*k1`, …, `x += dt/6 * (k1 + 2k2 +
/// 2k3 + k4)`), and IEEE-754 `f64` ops are deterministic with no
/// reassociation or FMA contraction at play, so every lane's trajectory is
/// bit-identical to running [`Rk4Scratch`] on that lane alone.
///
/// ```
/// use aps_glucose::ode::{BatchedRk4Scratch, Rk4Scratch};
///
/// // Two decay lanes with different rates, stepped in lockstep.
/// let rates = [0.3, 0.7];
/// let f = move |_t: f64, x: &[[f64; 2]; 1], d: &mut [[f64; 2]; 1]| {
///     for l in 0..2 {
///         d[0][l] = -rates[l] * x[0][l];
///     }
/// };
/// let mut batch = [[1.0, 2.0]];
/// BatchedRk4Scratch::<1, 2>::new().integrate(&f, 0.0, &mut batch, 10.0, 0.1);
/// for l in 0..2 {
///     let g = move |_t: f64, x: &[f64], d: &mut [f64]| d[0] = -rates[l] * x[0];
///     let mut lane = [[1.0, 2.0][l]];
///     Rk4Scratch::<1>::new().integrate(&g, 0.0, &mut lane, 10.0, 0.1);
///     assert_eq!(batch[0][l], lane[0]);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct BatchedRk4Scratch<const D: usize, const LANES: usize> {
    k1: [[f64; LANES]; D],
    k2: [[f64; LANES]; D],
    k3: [[f64; LANES]; D],
    k4: [[f64; LANES]; D],
    tmp: [[f64; LANES]; D],
}

impl<const D: usize, const LANES: usize> BatchedRk4Scratch<D, LANES> {
    /// Fresh scratch (all buffers zeroed; their contents never carry
    /// over between steps).
    pub const fn new() -> BatchedRk4Scratch<D, LANES> {
        BatchedRk4Scratch {
            k1: [[0.0; LANES]; D],
            k2: [[0.0; LANES]; D],
            k3: [[0.0; LANES]; D],
            k4: [[0.0; LANES]; D],
            tmp: [[0.0; LANES]; D],
        }
    }

    /// Advances all lanes of `x` from `t` by `dt` with one classical
    /// RK4 step. Mirrors [`Rk4Scratch::step`] stage for stage, with
    /// each scalar combine loop widened into a per-lane loop.
    // Indexed `[d][l]` loops on purpose: the lane index must address
    // the same slot across four arrays per stage, which iterator/zip
    // chains over nested fixed arrays obscure without helping codegen.
    #[allow(clippy::needless_range_loop)]
    pub fn step<B: BatchedDynamics<D, LANES> + ?Sized>(
        &mut self,
        dyn_: &B,
        t: f64,
        x: &mut [[f64; LANES]; D],
        dt: f64,
    ) {
        dyn_.derivative(t, x, &mut self.k1);
        for d in 0..D {
            for l in 0..LANES {
                self.tmp[d][l] = x[d][l] + 0.5 * dt * self.k1[d][l];
            }
        }
        dyn_.derivative(t + 0.5 * dt, &self.tmp, &mut self.k2);
        for d in 0..D {
            for l in 0..LANES {
                self.tmp[d][l] = x[d][l] + 0.5 * dt * self.k2[d][l];
            }
        }
        dyn_.derivative(t + 0.5 * dt, &self.tmp, &mut self.k3);
        for d in 0..D {
            for l in 0..LANES {
                self.tmp[d][l] = x[d][l] + dt * self.k3[d][l];
            }
        }
        dyn_.derivative(t + dt, &self.tmp, &mut self.k4);
        for d in 0..D {
            for l in 0..LANES {
                x[d][l] += dt / 6.0
                    * (self.k1[d][l] + 2.0 * self.k2[d][l] + 2.0 * self.k3[d][l] + self.k4[d][l]);
            }
        }
    }

    /// Integrates all lanes from `t0` over `duration` using steps of at
    /// most `max_dt`, mutating `x` in place. Substep subdivision is the
    /// same `substeps` rule as the scalar integrators, so lane
    /// trajectories stay aligned with [`Rk4Scratch::integrate`].
    ///
    /// Unlike the scalar `try_integrate`, a lane that goes non-finite
    /// keeps free-running: NaN/±∞ persist through every subsequent
    /// substep (IEEE-754 non-finite values are absorbing under the RK4
    /// update `x += delta`), so callers detect divergence with a
    /// per-lane finiteness check after the window — at the same substep
    /// granularity the scalar path reports — without a horizontal
    /// early-exit that would couple lanes.
    ///
    /// # Panics
    ///
    /// Panics if `max_dt` or `duration` is non-positive.
    pub fn integrate<B: BatchedDynamics<D, LANES> + ?Sized>(
        &mut self,
        dyn_: &B,
        t0: f64,
        x: &mut [[f64; LANES]; D],
        duration: f64,
        max_dt: f64,
    ) {
        let (steps, dt) = substeps(duration, max_dt);
        let mut t = t0;
        for _ in 0..steps {
            self.step(dyn_, t, x, dt);
            t += dt;
        }
    }
}

impl<const D: usize, const LANES: usize> Default for BatchedRk4Scratch<D, LANES> {
    fn default() -> BatchedRk4Scratch<D, LANES> {
        BatchedRk4Scratch::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_decay_matches_closed_form() {
        // dx/dt = -k x  =>  x(t) = x0 e^{-k t}
        let k = 0.3;
        let f = move |_t: f64, x: &[f64], d: &mut [f64]| d[0] = -k * x[0];
        let mut x = [1.0];
        Rk4Scratch::<1>::new().integrate(&f, 0.0, &mut x, 10.0, 0.1);
        let exact = (-k * 10.0f64).exp();
        assert!((x[0] - exact).abs() < 1e-8, "{} vs {}", x[0], exact);
    }

    #[test]
    fn harmonic_oscillator_energy_preserved() {
        // x'' = -x as a 2-state system; RK4 should conserve energy well.
        let f = |_t: f64, x: &[f64], d: &mut [f64]| {
            d[0] = x[1];
            d[1] = -x[0];
        };
        let mut x = [1.0, 0.0];
        Rk4Scratch::<2>::new().integrate(&f, 0.0, &mut x, 2.0 * std::f64::consts::PI, 0.01);
        assert!((x[0] - 1.0).abs() < 1e-6);
        assert!(x[1].abs() < 1e-6);
    }

    #[test]
    fn time_dependent_rhs() {
        // dx/dt = t  =>  x(T) = T^2 / 2
        let f = |t: f64, _x: &[f64], d: &mut [f64]| d[0] = t;
        let mut x = [0.0];
        Rk4Scratch::<1>::new().integrate(&f, 0.0, &mut x, 4.0, 0.5);
        assert!((x[0] - 8.0).abs() < 1e-9);
    }

    #[test]
    fn uneven_duration_is_subdivided() {
        let f = |_t: f64, x: &[f64], d: &mut [f64]| d[0] = -x[0];
        let mut x = [1.0];
        // 5 minutes with max_dt 0.4 -> 13 steps of 5/13.
        Rk4Scratch::<1>::new().integrate(&f, 0.0, &mut x, 5.0, 0.4);
        assert!((x[0] - (-5.0f64).exp()).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "max_dt")]
    fn zero_dt_panics() {
        let f = |_t: f64, _x: &[f64], _d: &mut [f64]| {};
        let mut x = [0.0];
        Rk4Scratch::<1>::new().integrate(&f, 0.0, &mut x, 1.0, 0.0);
    }

    #[test]
    fn try_integrate_matches_integrate_on_finite_trajectories() {
        let f = |t: f64, x: &[f64], d: &mut [f64]| {
            d[0] = -0.07 * x[0] + 2.0 * (0.1 * x[1]).tanh() + 0.01 * t;
            d[1] = 0.03 * x[0] - 0.2 * x[1];
        };
        let mut plain = [120.0, 3.0];
        let mut checked = plain;
        let mut a = Rk4Scratch::<2>::new();
        let mut b = Rk4Scratch::<2>::new();
        a.integrate(&f, 0.0, &mut plain, 17.0, 1.0);
        b.try_integrate(&f, 0.0, &mut checked, 17.0, 1.0)
            .expect("finite trajectory");
        assert_eq!(plain, checked);
    }

    #[test]
    fn try_step_rejects_non_finite_input() {
        let f = |_t: f64, x: &[f64], d: &mut [f64]| d[0] = -x[0];
        let mut x = [f64::NAN];
        let err = Rk4Scratch::<1>::new()
            .try_step(&f, 3.0, &mut x, 1.0)
            .unwrap_err();
        assert_eq!(err.component, 0);
        assert_eq!(err.at_minutes, 3.0);
    }

    #[test]
    fn try_integrate_catches_blowup_mid_window() {
        // Super-exponential growth: x' = x^2 diverges in finite time
        // from x(0) = 1 (pole at t = 1); the fixed-step integrator
        // overflows to inf shortly after.
        let f = |_t: f64, x: &[f64], d: &mut [f64]| d[0] = x[0] * x[0];
        let mut x = [1.0];
        let err = Rk4Scratch::<1>::new()
            .try_integrate(&f, 0.0, &mut x, 500.0, 1.0)
            .unwrap_err();
        assert_eq!(err.component, 0);
        assert!(err.at_minutes < 500.0);
    }

    #[test]
    fn non_finite_display_names_component_and_time() {
        let e = NonFiniteState {
            at_minutes: 35.0,
            component: 4,
        };
        let msg = e.to_string();
        assert!(msg.contains("component 4") && msg.contains("35"), "{msg}");
    }

    #[test]
    fn batched_lanes_are_bit_identical_to_scalar() {
        // Four lanes with different parameters through a nonlinear
        // 3-compartment system over uneven windows: every lane must
        // reproduce the scalar scratch's trajectory exactly.
        const D: usize = 3;
        const LANES: usize = 4;
        let gains = [0.07, 0.11, 0.05, 0.2];
        let batched = move |t: f64, x: &[[f64; LANES]; D], d: &mut [[f64; LANES]; D]| {
            for l in 0..LANES {
                d[0][l] = -gains[l] * x[0][l] + 2.0 * (0.1 * x[1][l] * x[2][l]).tanh() + 0.01 * t;
                d[1][l] = 0.03 * x[0][l] - 0.2 * x[1][l];
                d[2][l] = (x[0][l] - x[2][l]) / 7.0;
            }
        };
        let mut batch = [[120.0, 90.0, 150.0, 200.0], [3.0; LANES], [0.5; LANES]];
        let mut scratch = BatchedRk4Scratch::<D, LANES>::new();
        let mut scalar_lanes: Vec<[f64; D]> = (0..LANES)
            .map(|l| [batch[0][l], batch[1][l], batch[2][l]])
            .collect();
        let mut t = 0.0;
        for window in [5.0, 3.3, 7.1, 0.4, 12.0] {
            scratch.integrate(&batched, t, &mut batch, window, 1.0);
            for (l, lane) in scalar_lanes.iter_mut().enumerate() {
                let g = gains[l];
                let f = move |t: f64, x: &[f64], d: &mut [f64]| {
                    d[0] = -g * x[0] + 2.0 * (0.1 * x[1] * x[2]).tanh() + 0.01 * t;
                    d[1] = 0.03 * x[0] - 0.2 * x[1];
                    d[2] = (x[0] - x[2]) / 7.0;
                };
                Rk4Scratch::<D>::new().integrate(&f, t, lane, window, 1.0);
                for d in 0..D {
                    assert_eq!(batch[d][l], lane[d], "lane {l} component {d} diverged");
                }
            }
            t += window;
        }
    }

    #[test]
    fn non_finite_lane_does_not_poison_lane_mates() {
        // Lane 1 blows up (x' = x^2 from 1.0 diverges in finite time);
        // lanes 0 and 2 must still match their scalar trajectories
        // bit-for-bit, and lane 1's divergence must be detectable by a
        // plain finiteness check after the window.
        const LANES: usize = 3;
        let batched = |_t: f64, x: &[[f64; LANES]; 1], d: &mut [[f64; LANES]; 1]| {
            for l in 0..LANES {
                d[0][l] = if l == 1 {
                    x[0][l] * x[0][l]
                } else {
                    -0.3 * x[0][l]
                };
            }
        };
        let mut batch = [[1.0, 1.0, 2.0]];
        BatchedRk4Scratch::<1, LANES>::new().integrate(&batched, 0.0, &mut batch, 500.0, 1.0);
        assert!(!batch[0][1].is_finite(), "lane 1 should have diverged");
        for (l, x0) in [(0usize, 1.0f64), (2, 2.0)] {
            let f = |_t: f64, x: &[f64], d: &mut [f64]| d[0] = -0.3 * x[0];
            let mut lane = [x0];
            Rk4Scratch::<1>::new().integrate(&f, 0.0, &mut lane, 500.0, 1.0);
            assert_eq!(batch[0][l], lane[0], "healthy lane {l} was poisoned");
        }
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch() {
        let f = |_t: f64, x: &[f64], d: &mut [f64]| {
            d[0] = -x[1];
            d[1] = x[0];
        };
        let mut reused = Rk4Scratch::<2>::new();
        let mut a = [1.0, 0.0];
        let mut b = [1.0, 0.0];
        for i in 0..50 {
            let t = i as f64 * 0.25;
            reused.step(&f, t, &mut a, 0.25);
            Rk4Scratch::<2>::new().step(&f, t, &mut b, 0.25);
        }
        assert_eq!(a, b);
    }
}
