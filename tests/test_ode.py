import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from geomflow import nil3, ode
from geomflow.ode import (
    DegenerateOrder,
    IntegratorConfig,
    MaxStepsExceeded,
    NonFiniteState,
    ODESystem,
    StepSizeUnderflow,
    Trajectory,
    convergence_order,
    integrate_adaptive,
    integrate_fixed,
    log_sample_times,
    rk4_step,
)

DECAY = ODESystem(lambda t, y: -y)
GROWTH = ODESystem(lambda t, y: y)
NIL3 = nil3.Nil3Params(nil3.Nil3State(1.0, 1.0, 1.0))


def adaptive(sys, t0, t1, y0, tol, samples_per_decade=32):
    """``integrate_adaptive`` from t0 to t1 at error scale ``tol``, sampled at
    ``log_sample_times``."""
    return integrate_adaptive(sys, log_sample_times(t0, t1, samples_per_decade), y0, tol)


class TestRK4Step:
    def test_zero_rhs(self):
        sys = ODESystem(lambda t, y: np.zeros(2))
        npt.assert_array_equal(rk4_step(sys.rhs, 0.0, np.array([3.0, -1.0]), 0.1),
                               [3.0, -1.0])

    def test_constant_rhs_exact(self):
        sys = ODESystem(lambda t, y: np.ones(1))
        npt.assert_allclose(rk4_step(sys.rhs, 0.0, np.array([2.0]), 0.25), [2.25])

    def test_exponential_one_step(self):
        out = rk4_step(GROWTH.rhs, 0.0, np.array([1.0]), 0.1)
        assert abs(out[0] - np.e**0.1) <= 1e-7

    @pytest.mark.parametrize("h", [np.nan, np.inf, -np.inf])
    def test_non_finite_step_rejected_before_any_stage(self, h):
        # not reported as a non-finite state, and no stage runs to warn first
        calls = []
        with pytest.raises(ValueError, match=f"^step size must be positive and finite, got {h}$"):
            rk4_step(lambda t, y: (calls.append(t), y)[1], 0.0, np.array([1.0]), h)
        assert calls == []


class TestLogSampling:
    def test_endpoints(self):
        t = log_sample_times(0.0, 1e4, 32)
        assert t[0] == 0.0
        assert t[-1] == 1e4
        assert np.all(np.diff(t) > 0)

    def test_samples_per_decade(self):
        t = log_sample_times(0.0, 99.0, 10)
        assert len(t) == 21  # two decades in 1 + t

    @pytest.mark.parametrize("t0,t1,message", [
        (-1.0, 1.0, r"^t0 must be > -1, samples are log-spaced in 1 \+ t, got -1.0$"),
        (-2.0, 1.0, r"^t0 must be > -1, samples are log-spaced in 1 \+ t, got -2.0$"),
        (np.nan, 1.0, "^t0 must be finite, got nan$"),
        (-np.inf, 1.0, "^t0 must be finite, got -inf$"),
        (0.0, np.inf, "^t1 must be finite, got inf$"),
        (1.0, 0.0, "^t1 must be >= t0$"),
    ], ids=["t0=-1", "t0=-2", "t0=nan", "t0=-inf", "t1=inf", "backward"])
    def test_bad_bounds_rejected(self, t0, t1, message):
        with pytest.raises(ValueError, match=message):
            log_sample_times(t0, t1, 32)


class TestTrajectory:
    def test_lengths_must_match(self):
        with pytest.raises(ValueError, match="^times and states lengths differ$"):
            Trajectory(np.array([0.0, 1.0]), np.ones((3, 1)))

    def test_times_must_increase(self):
        with pytest.raises(ValueError, match="^times must be strictly increasing$"):
            Trajectory(np.array([0.0, 1.0, 1.0]), np.ones((3, 1)))


class TestAdaptive:
    def test_degenerate_interval(self):
        traj = adaptive(DECAY, 2.0, 2.0, [5.0], 1e-10)
        assert len(traj.times) == 1
        npt.assert_array_equal(traj.states, [[5.0]])

    def test_samples_at_the_callers_times(self):
        times = [-0.5, 0.0, 0.3, 1.0, 2.5]  # any increasing times, not only log-spaced ones
        traj = integrate_adaptive(DECAY, times, [1.0], 1e-10)
        assert traj.times.tolist() == times
        npt.assert_allclose(traj.states[:, 0], np.exp(-0.5 - traj.times), rtol=1e-8, atol=0.0)

    @pytest.mark.parametrize("times, message", [
        ([], r"^times must be a non-empty 1-D vector, got shape \(0,\)$"),
        ([[0.0, 1.0]], r"^times must be a non-empty 1-D vector, got shape \(1, 2\)$"),
        ([0.0, 2.0, 1.0], "^times must be strictly increasing$"),
        ([0.0, 0.0], "^times must be strictly increasing$"),
        ([0.0, np.nan, 1.0], "^times must be strictly increasing$"),
        ([0.0, 1.0, np.inf], "^t1 must be finite, got inf$"),
    ], ids=["empty", "2d", "backward", "repeated", "nan-inside", "inf-end"])
    def test_bad_sample_times_rejected_before_any_rhs_call(self, times, message):
        calls = []
        with pytest.raises(ValueError, match=message):
            integrate_adaptive(ODESystem(lambda t, y: calls.append(t) or -y), times, [1.0], 1e-10)
        assert calls == []

    def test_exponential_decay_endpoint(self):
        traj = adaptive(DECAY, 0.0, 10.0, [1.0], 1e-10)
        assert abs(traj.states[-1, 0] - np.exp(-10.0)) <= 1e-9

    def test_tolerance_tightening(self):
        # halving tol must not grow the endpoint error by more than 2x
        errs = []
        for tol in (1e-7, 5e-8):
            traj = adaptive(DECAY, 0.0, 5.0, [1.0], tol)
            errs.append(abs(traj.states[-1, 0] - np.exp(-5.0)))
        assert errs[1] <= 2.0 * errs[0] + 1e-15

    def test_deterministic(self):
        a = adaptive(DECAY, 0.0, 3.0, [1.0], 1e-10)
        b = adaptive(DECAY, 0.0, 3.0, [1.0], 1e-10)
        npt.assert_array_equal(a.states, b.states)
        npt.assert_array_equal(a.times, b.times)

    def test_dense_output_accuracy(self):
        traj = adaptive(DECAY, 0.0, 20.0, [1.0], 1e-12, samples_per_decade=64)
        npt.assert_allclose(traj.states[:, 0], np.exp(-traj.times),
                            rtol=1e-7, atol=1e-12)

    def test_max_steps_reported(self, monkeypatch):
        monkeypatch.setattr(ode, "_MAX_STEPS", 5)
        with pytest.raises(MaxStepsExceeded):
            adaptive(DECAY, 0.0, 1e6, [1.0], 1e-10)

    def test_consecutive_error_rejections_reported(self, monkeypatch):
        # a stiff y' = -1e8 y from h = 1e-4: with the step cut by at most 1 % per
        # rejection, the 51st rejection in a row at t = 0 ends the run
        monkeypatch.setattr(ode, "_MIN_FACTOR", 0.99)
        calls = []
        sys = ODESystem(lambda t, y: (calls.append(t), -1e8 * y)[1])
        with pytest.raises(StepSizeUnderflow, match="^50 consecutive error rejections") as info:
            adaptive(sys, 0.0, 1.0, [1.0], 1e-10)
        assert info.value.t == 0.0
        assert len(calls) == 1 + 51 * 6  # the FSAL start and 51 rejected steps

    def test_nan_rhs_reported_as_non_finite_state(self):
        sys = ODESystem(lambda t, y: np.where(t > 0.5, np.nan, -y))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteState, match="state became non-finite") as info:
                adaptive(sys, 0.0, 2.0, [1.0], 1e-10)
        assert info.value.t == pytest.approx(0.5, abs=1e-12)

    def test_blowup_reported_as_non_finite_state(self):
        # y' = exp(50 y), y(0) = 1 blows up at t = exp(-50)/50
        sys = ODESystem(lambda t, y: np.exp(50.0 * y))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteState, match="state became non-finite") as info:
                adaptive(sys, 0.0, 2.0, [1.0], 1e-10)
        assert info.value.t == 0.0

    def test_infinite_stage_reported_without_numpy_warning(self):
        # an inf stage derivative meets zero and opposite tableau weights in
        # the stage sums; the integrator reports the state, numpy stays quiet
        sys = ODESystem(lambda t, y: np.where(t > 0.3, np.inf, -y))
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteState, match="state became non-finite") as info:
                adaptive(sys, 0.0, 1.0, [1.0], 1e-10)
        assert info.value.t == pytest.approx(0.3, abs=1e-12)
        assert np.geterr() == before

    @pytest.mark.parametrize("t0,t1", [(0.0, np.inf), (0.0, np.nan), (np.nan, 1.0),
                                       (-np.inf, 1.0)])
    def test_non_finite_interval_rejected(self, t0, t1):
        with pytest.raises(ValueError, match="^t[01] must be finite, got (nan|-?inf)$"):
            adaptive(DECAY, t0, t1, [1.0], 1e-10)

    @pytest.mark.parametrize("t_bad, message", [
        (0.5, "state became non-finite"),
        (0.0, "right-hand side is not finite at the initial state")], ids=["stage", "initial"])
    @pytest.mark.parametrize("error", [ZeroDivisionError, OverflowError])
    def test_float_error_in_rhs_is_a_non_finite_state(self, error, t_bad, message):
        """A right-hand side on Python floats raises where numpy gives inf or NaN."""
        def rhs(t, y):
            if t >= t_bad:
                raise error
            return -y

        with pytest.raises(NonFiniteState, match=f"^{message} ") as info:
            adaptive(ODESystem(rhs), 0.0, 2.0, [1.0], 1e-10)
        assert info.value.t == pytest.approx(t_bad, abs=1e-12)

    def test_non_finite_initial_state_rejected(self):
        with pytest.raises(NonFiniteState, match="initial state is not finite"):
            adaptive(DECAY, 0.0, 1.0, [np.nan], 1e-10)

    @pytest.mark.parametrize("y0, t1", [(1.0, 1.0), (1.0, 0.0), ([], 1.0), ([[1.0]], 1.0)],
                             ids=["scalar", "scalar-empty-interval", "empty", "2d"])
    def test_non_vector_initial_state_rejected_before_any_rhs_call(self, y0, t1):
        calls = []
        system = ODESystem(lambda t, y: calls.append(t) or -y)
        with pytest.raises(ValueError, match="^y0 must be a non-empty 1-D vector, got shape "):
            adaptive(system, 0.0, t1, y0, 1e-10)
        assert calls == []

    @pytest.mark.parametrize("t0", [-1.0, -2.0])
    def test_start_at_or_below_minus_one_rejected(self, t0):
        with pytest.raises(ValueError, match=r"^t0 must be > -1, samples are log-spaced in 1 \+ t"):
            adaptive(DECAY, t0, 1.0, [1.0], 1e-10)

    @pytest.mark.parametrize("y0", [3e307, 1e308])
    def test_state_near_largest_double_decays_without_overflow(self, y0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = adaptive(DECAY, 0.0, 1.0, [y0], 1e-10 * y0)
        assert traj.times[-1] == 1.0
        assert abs(traj.states[-1, 0] / (y0 * np.exp(-1.0)) - 1.0) <= 1e-9

    @pytest.mark.parametrize("field", ["rtol", "atol"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_tolerance_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite, got {value}$"):
            IntegratorConfig(**{field: value})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 2.5])
    def test_non_integer_samples_per_decade_rejected(self, value):
        with pytest.raises(ValueError, match="^samples_per_decade must be an integer >= 1, got "):
            nil3.integrate_nil3(NIL3, 10.0, samples_per_decade=value)

    def test_integral_float_samples_per_decade_kept_as_int(self):
        traj = nil3.integrate_nil3(NIL3, 1e4, samples_per_decade=8.0)
        ref = nil3.integrate_nil3(NIL3, 1e4, samples_per_decade=8)
        npt.assert_array_equal(traj.times, ref.times)
        npt.assert_array_equal(traj.states, ref.states)


class TestIntervalEnds:
    """Intervals that end below zero or are shorter than the step floor
    1e-14 * max(|t|, 1): the step that lands on t1 is taken."""

    @pytest.mark.parametrize("t0,t1", [(-0.9, -0.5), (-0.5, -1e-3), (-0.5, 0.0),
                                       (-0.5, 0.5)])
    def test_interval_below_zero_reaches_t1(self, t0, t1):
        traj = adaptive(DECAY, t0, t1, [1.0], 1e-10)
        assert traj.times[0] == t0 and traj.times[-1] == t1
        npt.assert_allclose(traj.states[:, 0], np.exp(t0 - traj.times), rtol=1e-8, atol=0.0)

    @pytest.mark.parametrize("t0,t1", [(0.0, 1e-15), (0.0, 1e-300), (-0.5, -0.5 + 4e-15)])
    def test_interval_shorter_than_step_floor(self, t0, t1):
        calls = []
        traj = adaptive(ODESystem(lambda t, y: (calls.append(t), -y)[1]), t0, t1, [2.0], 1e-10)
        assert traj.times[-1] == t1
        assert len(calls) == 7  # the FSAL start and one step
        assert traj.states[-1, 0] == pytest.approx(2.0 * np.exp(t0 - t1), rel=1e-15)

    def test_halved_landing_step_still_underflows(self):
        sys = ODESystem(lambda t, y: -y if t == 0.0 else np.full(1, np.nan))
        with pytest.raises(NonFiniteState, match="state became non-finite") as info:
            adaptive(sys, 0.0, 1e-15, [1.0], 1e-10)
        assert info.value.t == 0.0


class TestDP5Stages:
    def test_non_finite_last_stage_halves_the_step(self):
        """Only k7 = f(y_new) of the first step is inf: the step is halved as
        a non-finite state (the retry's stage 2 at t = 0.2 * 5e-5), not
        rejected by its error estimate."""
        calls = []

        def rhs(t, y):
            calls.append(t)
            return np.full_like(y, np.inf) if len(calls) == 7 else -y

        traj = adaptive(ODESystem(rhs), 0.0, 1.0, [1.0], 1e-10)
        assert calls[7] == 1e-5
        assert len(calls) == 199
        assert traj.states[-1, 0] == float.fromhex("0x1.78b56362f4b32p-2")
        assert abs(traj.states[-1, 0] / np.exp(-1.0) - 1.0) <= 1e-9

    @staticmethod
    def eleven_component_run(k=0):
        """y' = M y with n = 11, where numpy's pairwise sum of the squared error
        components is not a sequential one, from y0 2^k at tol 1e-10 2^k: the
        trajectory and its RHS count."""
        n = 11
        M = -np.diag(1.0 + np.arange(n) / 4) + 0.5 * (np.eye(n, k=1) - np.eye(n, k=-1))
        calls = []

        def rhs(t, y):
            calls.append(t)
            return M @ y

        traj = adaptive(ODESystem(rhs), 0.0, 5.0, np.ldexp(np.linspace(1.0, 2.0, n), k),
                        math.ldexp(1e-10, k))
        return traj, len(calls)

    def test_eleven_component_linear_system_pinned(self):
        """The RHS count and the final state, recorded as float.hex literals, exactly."""
        traj, calls = self.eleven_component_run()
        assert calls == 1003
        final = ["0x1.5e3d31d243979p-8", "-0x1.797fe800ab135p-8", "0x1.e0a9ba15a888dp-9",
                 "-0x1.91627e7ab3e7bp-10", "0x1.0524b40031244p-11", "-0x1.0cd9d867740e9p-13",
                 "0x1.da7f6bce1b841p-16", "-0x1.65bb3ee7ce648p-18", "0x1.caddd055efb72p-21",
                 "-0x1.24e584e817064p-23", "0x1.5cccd77f20fc9p-26"]
        assert traj.states[-1].tolist() == [float.fromhex(v) for v in final]

    @pytest.mark.parametrize("k", [40, -40, 600])
    def test_error_scale_is_absolute(self, k):
        """The error norm is that of d_i / tol alone: y0 and tol scaled by 2^k take the
        same steps, and every state is 2^k times the unscaled one, bitwise."""
        ref, ref_calls = self.eleven_component_run()
        traj, calls = self.eleven_component_run(k)
        assert calls == ref_calls
        assert np.array_equal(traj.states, np.ldexp(ref.states, k))


class TestRejectionRules:
    """The trial step's slopes: a right-hand side that returns a tuple of floats
    steps exactly as one that returns the same values as an array."""

    def test_tuple_rhs_equals_array_rhs(self):
        def f(t, y):
            a, b = y.tolist()
            return (b, -a - 0.1 * b + math.cos(t))

        ref = adaptive(ODESystem(lambda t, y: np.array(f(t, y))),
                       0.0, 50.0, [1.0, 0.0], 1e-10, samples_per_decade=64)
        traj = adaptive(ODESystem(f), 0.0, 50.0, [1.0, 0.0], 1e-10, samples_per_decade=64)
        assert np.array_equal(traj.times, ref.times)
        assert np.array_equal(traj.states, ref.states)


class TestConvergenceOrder:
    def test_exponential_order_four(self):
        slope = convergence_order(
            GROWTH.rhs, lambda t: np.array([np.exp(t)]), 1.0, [0.1, 0.05, 0.025, 0.0125]
        )
        assert 3.8 <= slope <= 4.2

    def test_degenerate_constant_rhs(self):
        sys = ODESystem(lambda t, y: np.full(1, 2.0))
        with pytest.raises(DegenerateOrder):
            convergence_order(sys.rhs, lambda t: np.array([2.0 * t]), 1.0,
                              [0.1, 0.05, 0.025])

    @pytest.mark.parametrize("t_end,h_list,message", [
        (-1.0, [0.1, 0.05, 0.025], "^t1 must be >= t0$"),
        (np.inf, [0.1, 0.05, 0.025], "^t1 must be finite, got inf$"),
        (1.0, [0.1, 0.0, 0.025], "^step size must be positive and finite, got 0.0$"),
        (1.0, [0.1, -0.05, 0.025], "^step size must be positive and finite, got -0.05$"),
    ])
    def test_fixed_step_interval_and_step_checked(self, t_end, h_list, message):
        with pytest.raises(ValueError, match=message):
            convergence_order(GROWTH.rhs, lambda t: np.array([np.exp(-t)]), t_end, h_list)

    def test_needs_three_steps(self):
        with pytest.raises(ValueError):
            convergence_order(GROWTH.rhs, lambda t: np.array([np.exp(t)]), 1.0, [0.1, 0.05])

    # RK4-order cases: (rhs, exact, t_end, step sizes)
    ORDER_CASES = {
        "growth": (GROWTH.rhs, lambda t: np.array([np.exp(t)]), 1.0, [0.1, 0.05, 0.025, 0.0125]),
        "decay": (DECAY.rhs, lambda t: np.array([np.exp(-t)]), 2.0, [0.2, 0.1, 0.05]),
        "rotation": (lambda t, y: np.array([-y[1], y[0]]),
                     lambda t: np.array([np.cos(t), np.sin(t)]), 3.0, [0.3, 0.2, 0.1, 0.05]),
        "nil3-ricci": (lambda t, y: nil3.rhs(nil3.Nil3State(*y), t,
                                             nil3.Nil3Params(nil3.Nil3State(1, 1, 1))),
                       lambda t: nil3.exact_ricci_solution(t, 1.0, 1.0).as_array(), 5.0,
                       [0.5, 0.25, 0.125, 0.0625]),
    }

    @pytest.mark.parametrize("case", ORDER_CASES.values(), ids=ORDER_CASES.keys())
    def test_slope_matches_polyfit(self, case):
        rhs, exact, t_end, h_list = case
        errs = [np.linalg.norm(integrate_fixed(rhs, 0.0, t_end, exact(0.0), h) - exact(t_end))
                for h in h_list]
        ref_slope = np.polyfit(np.log(h_list), np.log(errs), 1)[0]
        slope = convergence_order(rhs, exact, t_end, h_list)
        assert 3.8 <= slope <= 4.2
        assert slope == pytest.approx(ref_slope, rel=0, abs=1e-12)

    def test_no_polyfit_or_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("convergence_order called a linear-algebra routine")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        monkeypatch.setattr(np, "polyfit", refuse)
        for rhs, exact, t_end, h_list in self.ORDER_CASES.values():
            convergence_order(rhs, exact, t_end, h_list)


def test_integrate_fixed_lands_on_endpoint():
    out = integrate_fixed(DECAY.rhs, 0.0, 1.0, np.array([1.0]), 0.3)
    assert abs(out[0] - np.exp(-1.0)) <= 1e-4


@pytest.mark.parametrize("t0,t1,h,message", [
    (0.0, 1.0, -0.1, "^step size must be positive and finite, got -0.1$"),
    (0.0, 1.0, np.inf, "^step size must be positive and finite, got inf$"),
    (0.0, 1.0, 0.0, "^step size must be positive and finite, got 0.0$"),
    (0.0, 1.0, np.nan, "^step size must be positive and finite, got nan$"),
    (0.0, -1.0, 0.1, "^t1 must be >= t0$"),
    (np.nan, 1.0, 0.1, "^t0 must be finite, got nan$"),
    (0.0, np.inf, 0.1, "^t1 must be finite, got inf$"),
])
def test_integrate_fixed_rejects_bad_interval_or_step(t0, t1, h, message):
    with pytest.raises(ValueError, match=message):
        integrate_fixed(DECAY.rhs, t0, t1, np.array([1.0]), h)


@pytest.mark.parametrize("t0,t1,h,message", [
    (0.0, 1.0, 5e-324, "t1 - t0 = 1 is more than 1000000 steps of h = 4.94066e-324 (at t = 0)"),
    (0.0, 1.0, 1e-300, "t1 - t0 = 1 is more than 1000000 steps of h = 1e-300 (at t = 0)"),
    (-1e308, 1e308, 1.0, "t1 - t0 = inf is more than 1000000 steps of h = 1 (at t = -1e+308)"),
])
def test_integrate_fixed_refuses_more_than_max_steps(t0, t1, h, message):
    """The step count is checked before the first step, which would raise TypeError."""
    with pytest.raises(MaxStepsExceeded) as info:
        integrate_fixed(None, t0, t1, np.array([1.0]), h)
    assert str(info.value) == message


def test_integrate_fixed_runs_max_steps(monkeypatch):
    monkeypatch.setattr(ode, "_MAX_STEPS", 5)
    assert integrate_fixed(DECAY.rhs, 0.0, 1.0, np.array([1.0]), 0.2)[0] == pytest.approx(
        np.exp(-1.0), rel=1e-4)
    with pytest.raises(MaxStepsExceeded):
        integrate_fixed(None, 0.0, 1.0, np.array([1.0]), 0.19)


class TestDenseBlocks:
    """Dense samples are recorded per step and evaluated ``_DENSE_BLOCK`` at a
    time, and once more at the end."""

    @pytest.mark.parametrize("samples_per_decade", [4096, 8],
                             ids=["many-per-step", "fewer-than-a-block"])
    def test_blocks_equal_per_sample_evaluation(self, samples_per_decade, monkeypatch):
        dense_eval, calls = ode._dense_eval, []

        def spy(*args):
            calls.append((*args, dense_eval(*args)))
            return calls[-1][-1]

        monkeypatch.setattr(ode, "_dense_eval", spy)
        traj = adaptive(DECAY, 0.0, 20.0, [1.0], 1e-12, samples_per_decade=samples_per_decade)
        block, n = ode._DENSE_BLOCK, len(traj.times) - 1  # rows 1..n, row n then y(t1)
        sizes = [block] * (n // block) + ([n % block] if n % block else [])
        assert [len(c[0]) for c in calls] == sizes
        thetas = np.concatenate([c[0][:, 0] for c in calls])
        hs = np.concatenate([c[3][:, 0] for c in calls])
        assert np.all((0 < thetas) & (thetas <= 1))
        if samples_per_decade == 4096:
            assert len(np.unique(hs)) < n / 10  # many samples share a step
        else:
            assert n < block
        npt.assert_array_equal(np.concatenate([c[-1] for c in calls])[:-1], traj.states[1:-1])
        for theta, y0, ydiff, h, k, out in calls:
            for i in range(len(theta)):
                one = dense_eval(float(theta[i, 0]), y0[i], ydiff[i], float(h[i, 0]), k[i])
                npt.assert_allclose(out[i], one, rtol=4.5e-16, atol=0.0)  # 2 ulp
        npt.assert_allclose(traj.states[:, 0], np.exp(-traj.times), rtol=1e-7, atol=1e-12)

    @pytest.mark.parametrize("block", [1, 7, 10**6])
    def test_block_size_does_not_change_samples(self, block, monkeypatch):
        ref = adaptive(DECAY, 0.0, 20.0, [1.0, 2.0], 1e-12, samples_per_decade=512)
        monkeypatch.setattr(ode, "_DENSE_BLOCK", block)
        traj = adaptive(DECAY, 0.0, 20.0, [1.0, 2.0], 1e-12, samples_per_decade=512)
        npt.assert_array_equal(traj.states, ref.states)
