import warnings

import numpy as np
import numpy.testing as npt
import pytest

from geomflow.ode import (
    DegenerateOrder,
    IntegratorConfig,
    MaxStepsExceeded,
    NonFiniteState,
    ODESystem,
    PositivityLost,
    Trajectory,
    convergence_order,
    integrate_adaptive,
    integrate_fixed,
    log_sample_times,
    rk4_step,
)

DECAY = ODESystem(lambda t, y: -y)
GROWTH = ODESystem(lambda t, y: y)


class TestRK4Step:
    def test_zero_rhs(self):
        sys = ODESystem(lambda t, y: np.zeros(2))
        npt.assert_array_equal(rk4_step(sys, 0.0, np.array([3.0, -1.0]), 0.1),
                               [3.0, -1.0])

    def test_constant_rhs_exact(self):
        sys = ODESystem(lambda t, y: np.ones(1))
        npt.assert_allclose(rk4_step(sys, 0.0, np.array([2.0]), 0.25), [2.25])

    def test_exponential_one_step(self):
        out = rk4_step(GROWTH, 0.0, np.array([1.0]), 0.1)
        assert abs(out[0] - np.e**0.1) <= 1e-7

    def test_invalid_step(self):
        with pytest.raises(ValueError):
            rk4_step(GROWTH, 0.0, np.array([1.0]), -0.1)


class TestLogSampling:
    def test_endpoints(self):
        t = log_sample_times(0.0, 1e4, 32)
        assert t[0] == 0.0
        assert t[-1] == 1e4
        assert np.all(np.diff(t) > 0)

    def test_samples_per_decade(self):
        t = log_sample_times(0.0, 99.0, 10)
        assert len(t) == 21  # two decades in 1 + t


class TestTrajectory:
    def test_lengths_must_match(self):
        with pytest.raises(ValueError, match="^times and states lengths differ$"):
            Trajectory(np.array([0.0, 1.0]), np.ones((3, 1)))

    def test_times_must_increase(self):
        with pytest.raises(ValueError, match="^times must be strictly increasing$"):
            Trajectory(np.array([0.0, 1.0, 1.0]), np.ones((3, 1)))


class TestAdaptive:
    def test_degenerate_interval(self):
        traj = integrate_adaptive(DECAY, 2.0, 2.0, [5.0])
        assert len(traj.times) == 1
        npt.assert_array_equal(traj.states, [[5.0]])

    def test_exponential_decay_endpoint(self):
        cfg = IntegratorConfig(rtol=1e-9, atol=1e-12)
        traj = integrate_adaptive(DECAY, 0.0, 10.0, [1.0], cfg)
        assert abs(traj.states[-1, 0] - np.exp(-10.0)) <= 1e-9

    def test_tolerance_tightening(self):
        # halving rtol must not grow the endpoint error by more than 2x
        errs = []
        for rtol in (1e-7, 5e-8):
            cfg = IntegratorConfig(rtol=rtol, atol=1e-14)
            traj = integrate_adaptive(DECAY, 0.0, 5.0, [1.0], cfg)
            errs.append(abs(traj.states[-1, 0] - np.exp(-5.0)))
        assert errs[1] <= 2.0 * errs[0] + 1e-15

    def test_deterministic(self):
        cfg = IntegratorConfig()
        a = integrate_adaptive(DECAY, 0.0, 3.0, [1.0], cfg)
        b = integrate_adaptive(DECAY, 0.0, 3.0, [1.0], cfg)
        npt.assert_array_equal(a.states, b.states)
        npt.assert_array_equal(a.times, b.times)

    def test_dense_output_accuracy(self):
        cfg = IntegratorConfig(rtol=1e-9, atol=1e-12, samples_per_decade=64)
        traj = integrate_adaptive(DECAY, 0.0, 20.0, [1.0], cfg)
        npt.assert_allclose(traj.states[:, 0], np.exp(-traj.times),
                            rtol=1e-7, atol=1e-12)

    def test_max_steps_reported(self):
        cfg = IntegratorConfig(max_steps=5)
        with pytest.raises(MaxStepsExceeded):
            integrate_adaptive(DECAY, 0.0, 1e6, [1.0], cfg)

    def test_positivity_guard(self):
        # y' = -1 crosses zero at t = 1; the flagged component must trigger
        sys = ODESystem(lambda t, y: -np.ones(1), positive_components=(0,))
        with pytest.raises(PositivityLost) as info:
            integrate_adaptive(sys, 0.0, 5.0, [1.0], IntegratorConfig(h_init=0.1))
        assert info.value.t <= 1.0 + 1e-6

    def test_nan_rhs_reported_as_non_finite_state(self):
        sys = ODESystem(lambda t, y: np.where(t > 0.5, np.nan, -y))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteState, match="state became non-finite") as info:
                integrate_adaptive(sys, 0.0, 2.0, [1.0])
        assert info.value.t == pytest.approx(0.5, abs=1e-12)

    def test_blowup_reported_as_non_finite_state(self):
        # y' = exp(50 y), y(0) = 1 blows up at t = exp(-50)/50
        sys = ODESystem(lambda t, y: np.exp(50.0 * y))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteState, match="state became non-finite") as info:
                integrate_adaptive(sys, 0.0, 2.0, [1.0])
        assert info.value.t == 0.0

    def test_infinite_stage_reported_without_numpy_warning(self):
        # an inf stage derivative meets zero and opposite tableau weights in
        # the stage sums; the integrator reports the state, numpy stays quiet
        sys = ODESystem(lambda t, y: np.where(t > 0.3, np.inf, -y))
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteState, match="state became non-finite") as info:
                integrate_adaptive(sys, 0.0, 1.0, [1.0])
        assert info.value.t == pytest.approx(0.3, abs=1e-12)
        assert np.geterr() == before

    @pytest.mark.parametrize("t0,t1", [(0.0, np.inf), (0.0, np.nan), (np.nan, 1.0),
                                       (-np.inf, 1.0)])
    def test_non_finite_interval_rejected(self, t0, t1):
        with pytest.raises(ValueError, match="^t0 and t1 must be finite, got "):
            integrate_adaptive(DECAY, t0, t1, [1.0])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(rtol=0.0)

    def test_non_finite_initial_state_rejected(self):
        with pytest.raises(NonFiniteState, match="initial state is not finite"):
            integrate_adaptive(DECAY, 0.0, 1.0, [np.nan])

    def test_backward_interval_rejected(self):
        with pytest.raises(ValueError, match="^t1 must be >= t0$"):
            integrate_adaptive(DECAY, 1.0, 0.0, [1.0])

    @pytest.mark.parametrize("field", ["rtol", "atol"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_tolerance_rejected(self, field, value):
        with pytest.raises(ValueError, match="rtol and atol must be positive and finite"):
            IntegratorConfig(**{field: value})


class TestConvergenceOrder:
    def test_exponential_order_four(self):
        slope = convergence_order(
            GROWTH, lambda t: np.array([np.exp(t)]), 1.0, [0.1, 0.05, 0.025, 0.0125]
        )
        assert 3.8 <= slope <= 4.2

    def test_degenerate_constant_rhs(self):
        sys = ODESystem(lambda t, y: np.full(1, 2.0))
        with pytest.raises(DegenerateOrder):
            convergence_order(sys, lambda t: np.array([2.0 * t]), 1.0,
                              [0.1, 0.05, 0.025])

    def test_needs_three_steps(self):
        with pytest.raises(ValueError):
            convergence_order(GROWTH, lambda t: np.array([np.exp(t)]), 1.0, [0.1, 0.05])


def test_integrate_fixed_lands_on_endpoint():
    out = integrate_fixed(DECAY, 0.0, 1.0, np.array([1.0]), 0.3)
    assert abs(out[0] - np.exp(-1.0)) <= 1e-4
