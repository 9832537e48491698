import dataclasses
import itertools
import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomflow import nil3
from geomflow.nil3 import (
    AsymptoticFit,
    CouplingSchedule,
    MapSlope,
    Nil3Params,
    Nil3State,
    blowdown,
    bounds_check,
    conserved_phi,
    exact_ricci_solution,
    fit_log_growth,
    fit_power_law,
    flow_residual,
    integrate_nil3,
    minus_two_ricci,
    predicted_constants,
    rhs,
)
from geomflow.ode import IntegratorConfig, ODESystem, Trajectory, log_sample_times


def ricci_params(A0=1.0, B0=1.0, C0=1.0):
    return Nil3Params(Nil3State(A0, B0, C0))


def oracle_trajectory(t_end=1e4, samples_per_decade=64):
    times = log_sample_times(0.0, t_end, samples_per_decade)
    states = np.array(
        [exact_ricci_solution(t, 1.0, 1.0).as_array() for t in times]
    )
    return Trajectory(times, states)


class TestTypes:
    def test_state_positivity(self):
        with pytest.raises(ValueError):
            Nil3State(1.0, -1.0, 1.0)

    def test_coupling_kinds(self):
        assert CouplingSchedule.zero()(17.0) == 0.0
        assert CouplingSchedule.constant(0.5)(17.0) == 0.5
        c = CouplingSchedule.power(2.0, 1.5)
        assert c(0.0) == 2.0
        assert c(3.0) == pytest.approx(2.0 * 4.0**-1.5)
        # the factories fill in values of one formula; a schedule has no kind
        assert CouplingSchedule.power(0.5, 0.0) == CouplingSchedule.constant(0.5)
        assert [f.name for f in dataclasses.fields(CouplingSchedule)] == [
            "c0", "r", "time_scale"]

    def test_coupling_non_increasing(self):
        for c in (CouplingSchedule.zero(), CouplingSchedule.constant(1.0),
                  CouplingSchedule.power(1.0, 2.0)):
            ts = np.linspace(0, 100, 50)
            vals = [c(t) for t in ts]
            assert all(v >= 0 for v in vals)
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    @staticmethod
    def by_values(sched, t):
        """c(t) case by case: 0 for c0 = 0, c0 for r = 0, else c0 (1 + time_scale t)^(-r)."""
        if sched.c0 == 0:
            return 0.0
        if sched.r == 0:
            return sched.c0
        return sched.c0 * (1.0 + sched.time_scale * t) ** (-sched.r)

    @pytest.mark.parametrize("sched", [
        CouplingSchedule.zero(), CouplingSchedule.constant(0.5),
        CouplingSchedule.constant(5e-324), CouplingSchedule.constant(1e300),
        CouplingSchedule.power(2.0, 1.5), CouplingSchedule.power(0.5, 2 / 3),
        CouplingSchedule.zero().blowdown(10.0), CouplingSchedule.constant(0.5).blowdown(1e-3),
        CouplingSchedule.power(2.0, 1.3).blowdown(4.0)],
        ids=["zero", "constant-0.5", "constant-5e-324", "constant-1e300", "power-2-1.5",
             "power-0.5-2/3", "zero-blowdown-10", "constant-0.5-blowdown-1e-3",
             "power-2-1.3-blowdown-4"])
    def test_one_formula_equals_case_by_case_values(self, sched):
        times = [0.0, 5e-324, 1.0, 1e8, 1e300, np.inf, np.float64(3.5)]
        for t in times:
            got, want = sched(t), self.by_values(sched, t)
            assert got == want and np.signbit(got) == np.signbit(want), t
        ts = np.concatenate([times, log_sample_times(0.0, 1e8, 16)])
        got = sched(ts)  # flow_residual evaluates c on its sample array
        want = np.broadcast_to(self.by_values(sched, ts), ts.shape)
        assert got.shape == ts.shape
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("time_scale", [-2.0, -0.0, 0.0, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name,c0,r", [("zero", 0.0, 0.0), ("constant", 1.0, 0.0),
                                           ("power", 1.0, 1.5)])
    def test_time_scale_must_be_finite_and_positive(self, name, c0, r, time_scale):
        # time_scale = -2 made the power schedule's c(1) complex, and nan made it nan
        message = f"^time_scale must be positive and finite, got {time_scale}$"
        with pytest.raises(ValueError, match=message):
            CouplingSchedule(c0=c0, r=r, time_scale=time_scale)

    def test_phi0_recorded(self):
        assert ricci_params(1.0, 5.0, 3.0).phi0 == 15.0


class TestRHS:
    def test_minus_two_ricci_unit(self):
        assert minus_two_ricci(Nil3State(1, 1, 1)) == (1.0, 1.0, -1.0)

    def test_minus_two_ricci_236(self):
        assert minus_two_ricci(Nil3State(2, 3, 6)) == (2.0, 3.0, -6.0)

    def test_minus_two_ricci_scale_invariant(self):
        s = Nil3State(1.3, 0.7, 2.1)
        lam = 5.0
        npt.assert_allclose(
            minus_two_ricci(Nil3State(lam * s.A, lam * s.B, lam * s.C)),
            minus_two_ricci(s),
        )

    def test_rhs_zero_coupling_matches_ricci(self):
        p = ricci_params()
        for state in (Nil3State(1, 1, 1), Nil3State(0.3, 2.0, 7.0)):
            assert rhs(state, 3.0, p) == minus_two_ricci(state)

    def test_system_rhs_is_public_rhs(self):
        # the system's RHS is the public rhs in tau = log(1 + t/t_s) and (a, b, c) =
        # (log A - p tau, log B - e tau, log C + e tau): a' = t_s e^tau A'/A - p, and
        # likewise for b and c; Nil3Params.f reads the forcing factor 2 a^2 once
        for coupling in (CouplingSchedule.zero(), CouplingSchedule.constant(0.5),
                         CouplingSchedule.power(0.5, 0.3), CouplingSchedule.power(0.5, 2.0)):
            p = Nil3Params(Nil3State(1.0, 2.0, 3.0), MapSlope(3.0), coupling)
            assert p.forcing == 18.0
            assert dataclasses.replace(p, slope=MapSlope(0.5)).forcing == 0.5
            log_ts, p_A, e, _ = nil3._log_frame(p)
            # t_s is A0/(2a^2 c0) with coupling, else A0 B0/C0
            assert math.exp(log_ts) == pytest.approx(1 / 9 if coupling.c0 else 2 / 3)
            system = nil3.make_system(p)
            y = np.array([0.3, -0.4, 1.1])
            for tau in (0.0, 0.7, 18.0):
                t = math.exp(log_ts) * math.expm1(tau)
                assert p.f(t) == 2.0 * 3.0**2 * p.coupling(t)
                A, B, C = np.exp(y + tau * np.array([p_A, e, -e]))
                dA, dB, dC = rhs(Nil3State(A, B, C), t, p)
                dt_dtau = math.exp(log_ts + tau)
                want = [dt_dtau * dA / A - p_A, dt_dtau * dB / B - e, dt_dtau * dC / C + e]
                npt.assert_allclose(system.rhs(tau, y), want, rtol=1e-12, atol=1e-12)

    def test_rhs_with_coupling(self):
        p = Nil3Params(Nil3State(1, 1, 1), MapSlope(1.0), CouplingSchedule.constant(0.5))
        assert rhs(Nil3State(1, 1, 1), 0.0, p) == (2.0, 1.0, -1.0)

    def test_phi_conservation_identity(self):
        # dB*C + B*dC = 0 algebraically
        rng = np.random.default_rng(0)
        p = ricci_params()
        for _ in range(20):
            A, B, C = rng.uniform(0.1, 5.0, 3)
            dA, dB, dC = rhs(Nil3State(A, B, C), 1.0, p)
            assert dB * C + B * dC == pytest.approx(0.0, abs=1e-14)

    def test_monotonicity_signs(self):
        rng = np.random.default_rng(1)
        p = Nil3Params(Nil3State(1, 1, 1), MapSlope(1.0), CouplingSchedule.constant(0.1))
        for _ in range(20):
            A, B, C = rng.uniform(0.1, 5.0, 3)
            dA, dB, dC = rhs(Nil3State(A, B, C), 1.0, p)
            assert dA > 0 and dB > 0 and dC < 0


class TestConservedPhi:
    def test_values(self):
        assert conserved_phi(Nil3State(1, 1, 1)) == 1.0
        assert conserved_phi(Nil3State(5, 2, 3)) == 6.0

    def test_drift_along_trajectory(self):
        traj = integrate_nil3(ricci_params(), 1e4, IntegratorConfig(rtol=1e-9))
        phi = traj.states[:, 1] * traj.states[:, 2]
        assert np.abs(phi - 1.0).max() <= 1e-8


class TestRicciOracle:
    def test_initial_condition(self):
        s = exact_ricci_solution(0.0, 2.0, 3.0)
        assert (s.A, s.B, s.C) == (2.0, 2.0, 3.0)
        s = exact_ricci_solution(0.0, 2.0, 3.0, 5.0)
        npt.assert_allclose([s.A, s.B, s.C], [2.0, 5.0, 3.0], rtol=1e-15)

    @pytest.mark.parametrize("A0, C0", [(1.0, 1.0), (1.5, 0.7), (2.0, 3.0), (1e-3, 7e2)])
    def test_symmetric_form_unchanged(self, A0, C0):
        # B0 = A0 gives the closed form A = B = (A0^3 + 3 Phi t)^(1/3) exactly
        for t in (0.0, 0.5, 21.0, 1e8, 1e200):
            A = (A0**3 + 3.0 * (A0 * C0) * t) ** (1.0 / 3.0)
            want = Nil3State(A, A, A0 * C0 / A)
            assert exact_ricci_solution(t, A0, C0) == want
            assert exact_ricci_solution(t, A0, C0, A0) == want

    def test_t21(self):
        s = exact_ricci_solution(21.0, 1.0, 1.0)
        assert s.A == pytest.approx(4.0)
        assert s.B == pytest.approx(4.0)
        assert s.C == pytest.approx(0.25)

    def test_satisfies_flow(self):
        # dA/dt = phi/A^2 for the closed form; must equal C/B exactly
        p = ricci_params(1.5, 1.5, 0.7)
        phi = 1.5 * 0.7
        for t in (0.0, 0.5, 3.0, 1e3):
            s = exact_ricci_solution(t, 1.5, 0.7)
            dA_closed = phi / s.A**2
            dA_rhs, dB_rhs, dC_rhs = rhs(s, t, p)
            assert dA_closed == pytest.approx(dA_rhs, rel=1e-12)
            assert dB_rhs == pytest.approx(dA_closed, rel=1e-12)
            # C = phi/A, so dC = -phi A'/A^2
            assert dC_rhs == pytest.approx(-phi * dA_closed / s.A**2, rel=1e-12)

    def test_unequal_data_satisfy_flow(self):
        # A = k B with k = A0/B0 and B^3 = B0^3 + 3 Phi t / k: A' = kB' = C/B, B' = C/A
        A0, B0, C0 = 2.0, 3.0, 0.7
        p = ricci_params(A0, B0, C0)
        for t in (0.0, 0.5, 3.0, 1e3):
            s = exact_ricci_solution(t, A0, C0, B0)
            assert s.A / s.B == pytest.approx(A0 / B0, rel=1e-15)
            assert s.B * s.C == pytest.approx(p.phi0, rel=1e-15)
            dB = p.phi0 / (3.0 * s.B**2) * 3.0 * B0 / A0  # d/dt of (B0^3 + 3 Phi t / k)^(1/3)
            npt.assert_allclose(rhs(s, t, p), [A0 / B0 * dB, dB, -p.phi0 * dB / s.B**2],
                                rtol=1e-12)


@st.composite
def zero_coupling_data(draw):
    """A0, B0, C0 log-uniform in [1e-3, 1e3], with zero coupling or a zero slope."""
    A0, B0, C0 = (10.0 ** draw(st.floats(-3.0, 3.0)) for _ in range(3))
    zero = draw(st.sampled_from([(0.0, CouplingSchedule.constant(0.5)),
                                 (1.0, CouplingSchedule.zero())]))
    return Nil3Params(Nil3State(A0, B0, C0), MapSlope(zero[0]), zero[1])


class TestClosedFormRuns:
    """``integrate_nil3`` against the zero-coupling closed form, and Phi over 200
    decades: the regime-scaled log variables keep b + c = log Phi up to rounding."""

    RTOL = IntegratorConfig().rtol

    @settings(max_examples=25, deadline=None)
    @given(zero_coupling_data())
    def test_every_sample_within_rtol(self, params):
        # measured at most 6.9e-10 = 0.69 rtol, on 300 random data and the 27 corners
        s0 = params.state0
        traj = integrate_nil3(params, 1e8)
        exact = np.array([exact_ricci_solution(t, s0.A, s0.C, s0.B).as_array()
                          for t in traj.times])
        assert np.abs(traj.states / exact - 1.0).max() <= self.RTOL

    @pytest.mark.parametrize("state0, coupling", [
        ((2.0, 3.0, 0.7), CouplingSchedule.zero()),
        ((2.0, 3.0, 0.7), CouplingSchedule.constant(0.5)),
        ((0.3, 5.0, 0.11), CouplingSchedule.constant(0.5)),
        ((2.0, 3.0, 0.7), CouplingSchedule.power(0.5, 0.3)),
        ((2.0, 3.0, 0.7), CouplingSchedule.power(0.5, 2.0)),
    ], ids=["zero", "constant", "constant-2", "slow_decay", "fast_decay"])
    def test_phi_held_to_1e200(self, state0, coupling):
        # measured at most 1.7e-14; in (A, B, C) variables the zero case drifted by 3.8e-8
        params = Nil3Params(Nil3State(*state0), MapSlope(1.0), coupling)
        traj = integrate_nil3(params, 1e200)
        assert np.abs(traj.states[:, 1] * traj.states[:, 2] / params.phi0 - 1.0).max() <= 1e-13


class TestBlowdown:
    def test_identity_transform(self):
        p = ricci_params()
        traj = oracle_trajectory(1e2)
        p1, t1 = blowdown(p, traj, 1.0)
        npt.assert_array_equal(t1.times, traj.times)
        npt.assert_array_equal(t1.states, traj.states)
        assert p1.slope.a == p.slope.a

    def test_coupling_scaling_invariant(self):
        # a_s^2 c_s(t) = a^2 c(s t) pointwise
        p = Nil3Params(Nil3State(1, 1, 1), MapSlope(0.7),
                       CouplingSchedule.power(2.0, 1.3))
        s = 4.0
        ps, _ = blowdown(p, oracle_trajectory(1e2), s)
        for t in (0.0, 0.1, 3.0, 50.0):
            lhs = ps.slope.a**2 * ps.coupling(t)
            rhs_val = p.slope.a**2 * p.coupling(s * t)
            assert lhs == pytest.approx(rhs_val, rel=1e-14)
            assert ps.f(t) == pytest.approx(p.f(s * t), rel=1e-14)

    def test_coupling_c0_absorbs_s_squared(self):
        sched = CouplingSchedule.power(2.0, 1.3).blowdown(4.0)
        assert sched == CouplingSchedule(c0=32.0, r=1.3, time_scale=4.0)
        assert sched(0.5) == 32.0 * 3.0 ** -1.3

    def test_oracle_blowdown_state(self):
        # A_s(t) = (1 + 12 t)^{1/3} / 4 for s = 4 applied to the unit oracle
        p = ricci_params()
        traj = oracle_trajectory(1e3)
        _, ts = blowdown(p, traj, 4.0)
        expect = (1.0 + 12.0 * ts.times) ** (1.0 / 3.0) / 4.0
        npt.assert_allclose(ts.states[:, 0], expect, rtol=1e-13)

    def test_residual_closure(self):
        p = ricci_params()
        traj = integrate_nil3(p, 1e4, IntegratorConfig(samples_per_decade=64))
        res0 = flow_residual(traj, p)
        for s in (0.5, 4.0):
            ps, ts = blowdown(p, traj, s)
            assert flow_residual(ts, ps) <= 10.0 * res0

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            blowdown(ricci_params(), oracle_trajectory(10.0), -1.0)

    def test_residual_of_a_far_blowdown(self):
        # the stencil's weights are formed on offsets scaled to 1: at s = 1e70 the
        # products of four offsets of about 1e-71 underflowed to a NaN residual
        p = ricci_params()
        traj = integrate_nil3(p, 10.0, IntegratorConfig(samples_per_decade=64))
        near = flow_residual(*blowdown(p, traj, 1e40)[::-1])
        for s in (1e70, 1e150):
            assert flow_residual(*blowdown(p, traj, s)[::-1]) == pytest.approx(near, rel=1e-9)

    @pytest.mark.parametrize("state0, s, message", [
        (Nil3State(1.7976931348623157e308, 1.0, 1.0), 0.5,
         "the blowdown by s = 0.5 overflows the initial state"),
        (Nil3State(1.0, 1.0, 5e-324), 4.0,
         "the blowdown by s = 4.0 underflows the initial state to 0"),
    ], ids=["overflow", "underflow"])
    def test_scaled_initial_state_out_of_range(self, state0, s, message):
        with pytest.raises(ValueError) as info:
            blowdown(Nil3Params(state0), oracle_trajectory(10.0), s)
        assert str(info.value) == message


class TestFlowResidual:
    def test_oracle_residual_small(self):
        # 4th-order log-time differencing: ~2e-5 at 64/decade, ~1/256 of that
        # at 256/decade
        p = ricci_params()
        assert flow_residual(oracle_trajectory(1e4, 64), p) <= 1e-4
        assert flow_residual(oracle_trajectory(1e4, 256), p) <= 1e-6

    def test_constant_extension_flagged(self):
        p = ricci_params()
        times = log_sample_times(0.0, 100.0, 32)
        states = np.tile([1.0, 1.0, 1.0], (len(times), 1))
        res = flow_residual(Trajectory(times, states), p)
        assert res > 0.1  # d(state)/dt = 0 but rhs = (1, 1, -1)

    @pytest.mark.parametrize("coupling", [CouplingSchedule.constant(0.5),
                                          CouplingSchedule.power(1.0, 1.5)])
    def test_equals_per_sample_loop(self, coupling):
        # the vectorised residual against a loop over the scalar rhs
        p = Nil3Params(Nil3State(1.0, 2.0, 3.0), MapSlope(1.3), coupling)
        traj = integrate_nil3(p, 1e4)
        d_fd = nil3._fd_derivative(traj.times, traj.states)
        res = 0.0
        for i, (t, y) in enumerate(zip(traj.times[2:-2], traj.states[2:-2])):
            f = np.array(rhs(Nil3State(*y), t, p))
            res = max(res, float(np.max(np.abs(d_fd[i] - f) / (1.0 + np.abs(f)))))
        assert flow_residual(traj, p) == res

    def test_too_few_samples(self):
        times = np.array([0.0, 1.0, 2.0, 3.0])
        states = np.ones((4, 3))
        with pytest.raises(ValueError):
            flow_residual(Trajectory(times, states), ricci_params())


class TestFits:
    def test_exact_power_law(self):
        times = log_sample_times(1.0, 1e4, 32)
        states = np.empty((len(times), 3))
        states[:, 0] = 7.0 * times**0.5
        states[:, 1] = states[:, 2] = 1.0
        fit = fit_power_law(Trajectory(times, states), "A", (1.0, 1e4))
        assert fit.exponent == pytest.approx(0.5, abs=1e-10)
        assert fit.prefactor == pytest.approx(7.0, rel=1e-10)
        assert fit.r_squared == pytest.approx(1.0)

    def test_oracle_asymptotics(self):
        traj = integrate_nil3(ricci_params(), 1e8, IntegratorConfig())
        fA = fit_power_law(traj, "A", (1e6, 1e8))
        fC = fit_power_law(traj, "C", (1e6, 1e8))
        assert fA.exponent == pytest.approx(1.0 / 3.0, abs=0.01)
        assert fA.prefactor == pytest.approx(3.0 ** (1.0 / 3.0), rel=0.02)
        assert fC.exponent == pytest.approx(-1.0 / 3.0, abs=0.01)

    def test_exact_log_growth(self):
        times = log_sample_times(1.0, 1e6, 32)
        states = np.empty((len(times), 3))
        states[:, 1] = np.sqrt(5.0 * np.log(times))
        states[:, 0] = states[:, 2] = 1.0
        fit = fit_log_growth(Trajectory(times, states), "B", (10.0, 1e6))
        assert fit.prefactor == pytest.approx(5.0, abs=1e-8)
        assert fit.mode == "log_growth"

    def test_window_validation(self):
        traj = oracle_trajectory(1e4)
        with pytest.raises(ValueError):
            fit_power_law(traj, "A", (10.0, 100.0))  # under two decades
        with pytest.raises(ValueError):
            fit_power_law(traj, "A", (1.0, 1e7))  # outside range

    @pytest.mark.parametrize("fit", [fit_power_law, fit_log_growth])
    def test_window_a_rounding_short_of_two_decades_is_fitted(self, fit):
        # t_hi / t_lo = 100 * 10^(-5e-10) lies below 100 (1 - 1e-9), yet within the
        # 1e-9 of a decade that the one window rule allows
        t_lo, t_hi = 1e4 / (100 * 10 ** -5e-10), 1e4
        assert t_hi / t_lo < 100 * (1 - 1e-9)
        assert nil3.spans_two_decades(t_lo, t_hi)
        assert not nil3.spans_two_decades(t_lo * 10**2e-9, t_hi)
        assert fit(oracle_trajectory(1e4), "B", (t_lo, t_hi)).window == (t_lo, t_hi)

    def test_window_from_t_zero_rejected(self):
        traj = oracle_trajectory(1e4)
        for fit in (fit_power_law, fit_log_growth):
            with pytest.raises(ValueError, match="^fit window must start at a positive time$"):
                fit(traj, "C", (0.0, 1e4))

    def test_nonpositive_sample_in_window_rejected(self):
        traj = oracle_trajectory(1e4)
        traj.states[-3, 2] = 0.0
        for fit in (fit_power_law, fit_log_growth):
            with pytest.raises(ValueError, match="^nonpositive samples in fit window$"):
                fit(traj, "C", (1.0, 1e4))


def vandermonde_derivative(times, values):
    """The five-point stencil of each interior sample solved from its Vandermonde
    system in u = log(1 + t): the reference for ``nil3._fd_derivative``."""
    n = len(times)
    m = n - 4
    u = np.log1p(times)
    idx = np.arange(m)[:, None] + np.arange(5)[None, :]
    dx = u[idx] - u[2 : n - 2][:, None]
    powers = dx[:, None, :] ** np.arange(5)[None, :, None]
    target = np.zeros((m, 5, 1))
    target[:, 1, 0] = 1.0
    w = np.linalg.solve(powers, target)[..., 0]
    du = np.einsum("mk,mk...->m...", w, values[idx])
    return du / (1.0 + times[2 : n - 2]).reshape((m,) + (1,) * (values.ndim - 1))


REGIMES = {"zero": CouplingSchedule.zero(), "constant": CouplingSchedule.constant(0.5),
           "slow_decay": CouplingSchedule.power(0.5, 0.3),
           "marginal": CouplingSchedule.power(0.5, 2 / 3),
           "fast_decay": CouplingSchedule.power(0.5, 2.0)}


@pytest.fixture(scope="module", params=list(REGIMES))
def regime_run(request):
    params = Nil3Params(Nil3State(1.0, 2.0, 3.0), MapSlope(1.3), REGIMES[request.param])
    assert predicted_constants(params)["regime"] == request.param
    return params, integrate_nil3(params, 1e8)


class TestKernels:
    """The closed-form stencil weights and least-squares line against the linear
    algebra they replace, and the stencil's exactness on quartics."""

    QUARTIC = [0.3, -1.2, 0.7, 0.05, -0.002]  # coefficients of u^0 .. u^4

    @pytest.mark.parametrize("times", [
        log_sample_times(0.0, 1e8, 32),
        # non-uniform in u: a blowdown's times t/s, with t log-spaced in 1 + t
        blowdown(ricci_params(), oracle_trajectory(1e4, 16), 0.5)[1].times,
    ], ids=["log-spaced", "blowdown"])
    @pytest.mark.parametrize("ndim", [1, 2])
    def test_exact_on_quartics_in_u(self, times, ndim):
        poly = np.polynomial.polynomial
        u = np.log1p(times)
        values = poly.polyval(u, self.QUARTIC)
        exact = poly.polyval(u, poly.polyder(self.QUARTIC)) / (1.0 + times)
        if ndim == 2:
            values, exact = np.stack([values, -2.0 * values], 1), np.stack([exact, -2.0 * exact], 1)
        npt.assert_allclose(nil3._fd_derivative(times, values), exact[2:-2], rtol=1e-12)

    @pytest.mark.parametrize("s", [None, 4.0], ids=["source", "blowdown-4"])
    def test_stencil_matches_vandermonde_solve(self, regime_run, s):
        params, traj = regime_run
        if s is not None:
            traj = blowdown(params, traj, s)[1]
        npt.assert_allclose(nil3._fd_derivative(traj.times, traj.states),
                            vandermonde_derivative(traj.times, traj.states), rtol=1e-12)

    @pytest.mark.parametrize("transform", [np.log, np.square])
    @pytest.mark.parametrize("component", "ABC")
    def test_line_matches_polyfit(self, regime_run, component, transform):
        _, traj = regime_run
        window = (1e6, 1e8)
        slope, intercept, r2 = nil3._fit_line(traj, component, window, transform)
        mask = (traj.times >= window[0]) & (traj.times <= window[1])
        x, y = np.log(traj.times[mask]), transform(traj.component("ABC".index(component))[mask])
        ref_slope, ref_intercept = np.polyfit(x, y, 1)
        assert slope == pytest.approx(ref_slope, rel=1e-13)
        assert intercept == pytest.approx(ref_intercept, rel=1e-13, abs=1e-13)
        resid = y - (ref_slope * x + ref_intercept)
        assert r2 == pytest.approx(1.0 - np.sum(resid**2) / np.sum((y - y.mean()) ** 2),
                                   abs=1e-14)

    def test_no_linear_algebra(self, regime_run, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("nil3's analysis called a linear-algebra routine")

        for name in ("solve", "lstsq", "inv", "pinv", "svd", "qr"):
            monkeypatch.setattr(np.linalg, name, refuse)
        monkeypatch.setattr(np, "polyfit", refuse)
        params, traj = regime_run
        flow_residual(traj, params)
        flow_residual(*blowdown(params, traj, 4.0)[::-1])
        for component in "ABC":
            fit_power_law(traj, component, (1e6, 1e8))
            fit_log_growth(traj, component, (1e6, 1e8))


class TestPredictedConstants:
    def test_ricci_unit(self):
        out = predicted_constants(ricci_params())
        assert out["K"] == pytest.approx(1.0 / 3.0)
        assert out["prefactors"]["A"] == pytest.approx(3.0 ** (1.0 / 3.0))

    def test_ricci_211(self):
        assert predicted_constants(ricci_params(2.0, 1.0, 1.0))["K"] == pytest.approx(
            2.0 / 3.0
        )

    def test_constant_regime(self):
        p = Nil3Params(Nil3State(1, 1, 1), MapSlope(1.0), CouplingSchedule.constant(0.5))
        out = predicted_constants(p)
        assert out["A_slope"] == pytest.approx(1.0)
        assert out["kappa_B2"] == pytest.approx(2.0)
        assert out["C_prefactor_doubled"] == pytest.approx(2 * out["C_prefactor"])

    def test_constant_regime_without_coupling_is_zero_regime(self):
        # a^2 c0 = 0 selects the zero regime for every schedule
        state = Nil3State(2.0, 1.0, 3.0)
        ref = predicted_constants(Nil3Params(state))
        assert ref["regime"] == "zero"
        for a, c0 in ((0.0, 0.5), (1.0, 0.0)):
            p = Nil3Params(state, MapSlope(a), CouplingSchedule.constant(c0))
            assert predicted_constants(p) == ref

    def test_constant_that_is_not_finite_is_none(self):
        # K = A0 B0 / (3 C0) overflows, and in the zero regime C's prefactor with it;
        # in the constant regime kappa_B2 = Phi / (a^2 c0) overflows for a subnormal c0
        zero = predicted_constants(ricci_params(1.0, 1.0, 5e-324))
        assert zero["K"] is None and zero["prefactors"]["C"] is None
        assert zero["prefactors"]["A"] == 0.0 and zero["phi"] == 5e-324
        p = Nil3Params(Nil3State(1, 1, 1), MapSlope(1.0), CouplingSchedule.constant(5e-324))
        out = predicted_constants(p)
        assert out["kappa_B2"] is None and out["K"] == 1 / 3 and out["A_slope"] == 1e-323

    @pytest.mark.parametrize("alpha", [0.0, -0.0, -1.0, np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("coupling", [CouplingSchedule.power(0.5, 2.0),
                                          CouplingSchedule.power(0.5, 0.3),
                                          CouplingSchedule.constant(0.5)],
                             ids=["fast", "slow", "constant"])
    def test_alpha_must_be_finite_and_positive(self, coupling, alpha):
        # 0 and inf raised ZeroDivisionError, -1 and nan gave a NaN B_prefactor
        p = Nil3Params(Nil3State(1, 1, 1), MapSlope(1.0), coupling)
        message = f"^A-prefactor alpha must be positive and finite, got {alpha}$"
        with pytest.raises(ValueError, match=message):
            predicted_constants(p, alpha=alpha)

    def test_power_regime_with_alpha(self):
        p = Nil3Params(Nil3State(1, 1, 1), MapSlope(1.0), CouplingSchedule.power(1.0, 2.0))
        out = predicted_constants(p, alpha=3.0 ** (1.0 / 3.0))
        assert out["exponents"]["C"] == pytest.approx(-1.0 / 3.0)
        assert out["B_prefactor"] == pytest.approx(np.sqrt(3.0 / 3.0 ** (1 / 3)))


class TestPowerRegimes:
    """Power coupling c0 (1 + t)^(-r), r > 0, splits at r = 2/3 (``regime``)."""

    @staticmethod
    def params(r, a=1.0, c0=0.5):
        return Nil3Params(Nil3State(1, 1, 1), MapSlope(a), CouplingSchedule.power(c0, r))

    @pytest.mark.parametrize("r,name", [(0.3, "slow_decay"), (2 / 3, "marginal"),
                                        (0.8, "fast_decay"), (2.0, "fast_decay")])
    def test_regime_named(self, r, name):
        out = predicted_constants(self.params(r))
        assert out["regime"] == name and "power_regime" not in out

    def test_slow_decay_exponents_and_prefactor(self):
        out = predicted_constants(self.params(0.3))
        assert out["exponents"] == {"A": 0.7, "B": 0.15, "C": -0.15}
        assert out["A_prefactor"] == pytest.approx(2 * 0.5 / (1 - 0.45))
        assert "B_prefactor" not in out
        out = predicted_constants(self.params(0.3), alpha=2.0)
        assert out["B_prefactor"] == pytest.approx(np.sqrt(2.0 / (2.0 * 0.3)))
        assert out["C_prefactor"] * out["B_prefactor"] == pytest.approx(1.0)

    def test_slow_decay_prefactor_follows_blowdown(self):
        # c(t) = c0 s^2 (1 + s t)^(-r) ~ c0 s^(2-r) t^(-r); A_s(t) = A(s t)/s
        p = self.params(0.3)
        s = 10.0
        p_s, _ = blowdown(p, oracle_trajectory(1.0), s)
        alpha, alpha_s = (predicted_constants(q)["A_prefactor"] for q in (p, p_s))
        assert alpha_s == pytest.approx(alpha * s ** (1 - 0.3) / s)

    def test_marginal_has_no_prefactors(self):
        out = predicted_constants(self.params(2 / 3), alpha=1.0)
        assert out["exponents"] == {"A": 1 / 3, "B": 1 / 3, "C": -1 / 3}
        assert not [k for k in out if "prefactor" in k]

    @pytest.mark.parametrize("a,c0", [(0.0, 0.5), (1.0, 0.0)])
    @pytest.mark.parametrize("r", [0.3, 2 / 3, 2.0])
    def test_zero_coupling_answer(self, a, c0, r):
        out = predicted_constants(self.params(r, a, c0))
        assert out["regime"] == "zero"
        assert out == predicted_constants(ricci_params(1.0, 1.0, 1.0))

    @pytest.mark.parametrize("r,e", [(0.3, 0.15), (2.0, 1 / 3)])
    @pytest.mark.parametrize("alpha", [0.123456789, 2.0, 17.3])
    def test_prefactor_law(self, r, e, alpha):
        # A ~ alpha t^(1 - 2e) and (B^2)' = 2 Phi/A give B^2 alpha e = Phi, C = Phi/B
        p = Nil3Params(Nil3State(0.7, 3.1, 0.2), MapSlope(1.0), CouplingSchedule.power(0.5, r))
        out = predicted_constants(p, alpha=alpha)
        B, C, phi = out["B_prefactor"], out["C_prefactor"], p.phi0
        assert out["exponents"]["B"] == e
        assert B * B * alpha * e == pytest.approx(phi, rel=1e-15)
        assert B * C == pytest.approx(phi, rel=1e-15)

    @pytest.mark.parametrize("r", [0.1, 0.3, 0.5, 0.6])
    @pytest.mark.parametrize("alpha", [0.123456789, 1.0, 2.0, 17.3])
    def test_slow_decay_prefactor_bit_equal(self, r, alpha):
        p = Nil3Params(Nil3State(0.7, 3.1, 0.2), MapSlope(1.0), CouplingSchedule.power(0.5, r))
        out = predicted_constants(p, alpha=alpha)
        assert out["B_prefactor"] == float(np.sqrt(2.0 * p.phi0 / (alpha * r)))

    @pytest.mark.parametrize("r", [0.3, 0.5])
    def test_slow_decay_fits(self, r):
        # unit data, a = 1, c0 = 0.5, fitted on the last three of twelve decades
        p = self.params(r)
        traj = integrate_nil3(p, 1e12)
        fits = {c: fit_power_law(traj, c, (1e9, 1e12)) for c in "ABC"}
        pred = predicted_constants(p, alpha=fits["A"].prefactor)
        for c in "ABC":
            assert fits[c].exponent == pytest.approx(pred["exponents"][c], abs=0.02)
        assert fits["B"].prefactor == pytest.approx(pred["B_prefactor"], rel=0.05)
        assert fits["C"].prefactor == pytest.approx(pred["C_prefactor"], rel=0.05)
        if r == 0.3:  # at r = 0.5 the t^(-r) corrections are still large at 1e12
            assert fits["A"].prefactor == pytest.approx(pred["A_prefactor"], rel=0.02)


class TestBounds:
    def test_oracle_run_satisfies_bounds(self):
        p = ricci_params()
        report = bounds_check(oracle_trajectory(1e4), p)
        assert report.ok
        assert report.worst_slack >= -1e-12

    def test_saturation_at_zero(self):
        p = ricci_params()
        traj = oracle_trajectory(10.0)
        report = bounds_check(traj, p)
        assert report.ok
        # C = C0 at t = 0: the upper bound saturates with zero slack
        assert report.worst_slack == pytest.approx(0.0, abs=1e-12)

    def test_violation_reported(self):
        p = ricci_params()
        times = log_sample_times(0.0, 10.0, 16)
        states = np.tile([1.0, 1.0, 2.0], (len(times), 1))  # C > C0
        report = bounds_check(Trajectory(times, states), p)
        assert not report.ok
        assert any(name == "C_upper" for name, _, _ in report.violations)

    def test_c_lower_is_c0_where_a0_b0_overflows(self):
        # C0 A0 B0 / (A0 B0 + C0 t) was inf / inf, a NaN slack that no check could fail
        times = log_sample_times(0.0, 10.0, 16)
        report = bounds_check(Trajectory(times, np.tile([1e200, 1e200, 0.5], (len(times), 1))),
                              ricci_params(1e200, 1e200))
        assert report.worst_slack == -0.5  # C - C0

    def test_each_bound_has_the_tolerance_of_its_component(self):
        # C at half its lower bound C0; one tolerance of 1e-9 max(A0, B0, C0, 1) = 1e191
        # passed it, where the bounds on C take 1e-9 C0
        times = log_sample_times(0.0, 10.0, 16)
        states = np.tile([1e200, 1e200, 0.5], (len(times), 1))
        report = bounds_check(Trajectory(times, states), ricci_params(1e200, 1e200))
        assert not report.ok
        assert [name for name, _, _ in report.violations] == ["C_lower"]
        # A = 1 + t falls by 1e-12 of its size once: rounding at A's scale, 1e8, which
        # the one tolerance of 1e-9 took for a violation of A's monotonicity
        times = log_sample_times(0.0, 1e8, 16)
        states = np.ones((len(times), 3))
        states[:, 0] += times
        states[-1, 0] = states[-2, 0] * (1 - 1e-12)
        assert bounds_check(Trajectory(times, states), ricci_params()).ok

    def test_tolerance_follows_the_sample(self):
        # A = 1 + t saturates A_upper; at t ~ 1 it is 1e-3 above it.  A tolerance
        # scaled by A's largest value, 1e8, took that for rounding
        times = log_sample_times(0.0, 1e8, 16)
        states = np.ones((len(times), 3))
        states[:, 0] += times
        i = int(np.argmin(np.abs(times - 1.0)))
        states[i, 0] += 1e-3
        report = bounds_check(Trajectory(times, states), ricci_params())
        assert [(name, t) for name, t, _ in report.violations] == [("A_upper", times[i])]
        assert report.violations[0][2] == pytest.approx(-1e-3)


@st.composite
def random_params(draw):
    """Nil3 data over A0, B0, C0 in [0.1, 10], a in [-2, 2], a zero, constant
    or power coupling with c0 in [0, 2] and r in [0.1, 3], and a horizon
    t_end in [1, 100]."""
    A0, B0, C0 = (draw(st.floats(0.1, 10.0)) for _ in range(3))
    c0, r = draw(st.floats(0.0, 2.0)), draw(st.floats(0.1, 3.0))
    coupling = draw(st.sampled_from([
        CouplingSchedule.zero(), CouplingSchedule.constant(c0),
        CouplingSchedule.power(c0, r)]))
    params = Nil3Params(Nil3State(A0, B0, C0), MapSlope(draw(st.floats(-2.0, 2.0))),
                        coupling)
    return params, draw(st.floats(1.0, 100.0))


class TestRandomDataProperties:
    CFG = IntegratorConfig(samples_per_decade=16)

    @settings(max_examples=30)
    @given(random_params())
    def test_phi_conserved(self, case):
        params, t_end = case
        traj = integrate_nil3(params, t_end, self.CFG)
        phi = traj.states[:, 1] * traj.states[:, 2]
        assert np.abs(phi / params.phi0 - 1.0).max() <= 1e-7

    @settings(max_examples=30)
    @given(random_params(), st.sampled_from([0.5, 4.0]))
    def test_blowdown_closure(self, case, s):
        """The blowdown of a solution solves the blown-down system: the two
        right-hand sides agree sample by sample, and integrating the
        blown-down data lands on the blown-down end state.  (The ratio of
        the finite-difference residuals, which AC-5 bounds by 10 on its
        scenarios, is a property of the log(1 + t) sampling and exceeds 10
        on some of these data.)"""
        params, t_end = case
        traj = integrate_nil3(params, t_end, self.CFG)
        p_s, t_s = blowdown(params, traj, s)
        f = np.stack(nil3._flow(*traj.states.T, params.f(traj.times)))
        f_s = np.stack(nil3._flow(*t_s.states.T, p_s.f(t_s.times)))
        npt.assert_allclose(f_s, f, rtol=1e-13, atol=1e-15 * np.abs(f).max())
        direct = integrate_nil3(p_s, t_end / s, self.CFG)
        assert direct.times[-1] == t_s.times[-1]
        npt.assert_allclose(direct.states[-1], t_s.states[-1], rtol=1e-8)


class TestDP5Pin:
    """The adaptive Dormand-Prince path from unit data with a = 1 to t = 1e8
    at the default config, in the regime-scaled log variables: RHS calls (one
    for the first-same-as-last start plus 6 per attempted step) and the final
    state, recorded as float.hex literals."""

    CASES = {
        "zero": (CouplingSchedule.zero(), 805,
                 ("0x1.4eb76aeebb193p+9", "0x1.4eb76aeebb193p+9", "0x1.879753bd8cfcdp-10")),
        "const:0.5": (CouplingSchedule.constant(0.5), 1039,
                      ("0x1.894809cd55bf3p+26", "0x1.772e29cccd64cp+2", "0x1.5d5b7a8d33c05p-3")),
        "power:0.5,1": (CouplingSchedule.power(0.5, 1.0), 1027,
                        ("0x1.934333bf93425p+10", "0x1.af7565a14ff25p+8", "0x1.2fc9c3869996dp-9")),
        "power:0.5,2": (CouplingSchedule.power(0.5, 2.0), 757,
                        ("0x1.d3d0cf0b24260p+9", "0x1.1b2001bf99c4cp+9", "0x1.cef289f825764p-10")),
        "power:0.5,0.3": (CouplingSchedule.power(0.5, 0.3), 865,  # slow decay
                          ("0x1.62a097fc0543ap+19", "0x1.e2eb5e2d1b67ep+4",
                           "0x1.0f6a77b974dc0p-5")),
        # c0 = 8, time_scale = 4: the power:0.5,1 schedule blown down by s = 4
        "power:0.5,1 blowdown 4": (CouplingSchedule.power(0.5, 1.0).blowdown(4.0), 1117,
                                   ("0x1.48ad960140bc1p+12", "0x1.ddf661341c3e1p+7",
                                    "0x1.123b1360b270bp-8")),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_rhs_calls_and_final_state(self, name, monkeypatch):
        coupling, calls, final = self.CASES[name]
        make_system = nil3.make_system
        count = [0]

        def counted_system(params):
            sys = make_system(params)

            def counted(t, y):
                count[0] += 1
                return sys.rhs(t, y)

            return ODESystem(counted, sys.positive_components)

        monkeypatch.setattr(nil3, "make_system", counted_system)
        params = Nil3Params(Nil3State(1.0, 1.0, 1.0), MapSlope(1.0), coupling)
        traj = integrate_nil3(params, 1e8)
        assert count[0] == calls and calls % 6 == 1
        assert traj.times[-1] == 1e8
        npt.assert_allclose(traj.states[-1], [float.fromhex(v) for v in final],
                            rtol=1e-12, atol=0.0)


PANEL_COUPLINGS = {"const:1": CouplingSchedule.constant(1.0),
                   "power:1,0.3": CouplingSchedule.power(1.0, 0.3),
                   "power:1,2": CouplingSchedule.power(1.0, 2.0)}


@pytest.mark.parametrize("A0, B0, C0, a, coupling", [
    pytest.param(A0, B0, C0, a, coupling, id=f"{A0:g},{B0:g},{C0:g}-a{a:g}-{coupling}")
    for A0, B0, C0, a, coupling in itertools.product(
        [1e-6, 1e-3, 1.0, 1e3], [1e-6, 1.0, 1e6], [1e-6, 1.0, 1e6], [0.0, 1.0, 1e3, 1e8],
        PANEL_COUPLINGS)])
def test_extreme_data_panel(A0, B0, C0, a, coupling):
    """Data over twelve decades and slopes to 1e8, each run to t = 1e8 with numpy's
    warnings as errors: the run is taken, its growth bounds hold, and Phi to 1e-6.
    In (A, B, C) variables 45 of these 432 failed: 39 lost positivity, 6 drifted."""
    params = Nil3Params(Nil3State(A0, B0, C0), MapSlope(a), PANEL_COUPLINGS[coupling])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate_nil3(params, 1e8)
        report = bounds_check(traj, params)
    assert report.ok, report.violations
    assert np.abs(traj.states[:, 1] * traj.states[:, 2] / params.phi0 - 1.0).max() <= 1e-6
