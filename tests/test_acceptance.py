"""Acceptance suite: one pass/fail line printed per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
are produced.  Long integrations are shared through module-scoped fixtures.
"""

import time

import numpy as np
import pytest

from geomflow import nil3, ode, rrfs
from geomflow.cli import verify_tension


def report(name: str, ok: bool, detail: str):
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


CFG = ode.IntegratorConfig(rtol=1e-9, atol=1e-12)


def integrate(params, t_end):
    """An AC run: ``CFG``, sampled 64 times per decade of 1 + t."""
    return nil3.integrate_nil3(params, t_end, CFG, samples_per_decade=64)


@pytest.fixture(scope="module")
def ricci_unit_run():
    params = nil3.Nil3Params(nil3.Nil3State(1, 1, 1))
    start = time.perf_counter()
    traj = integrate(params, 1e4)
    return params, traj, time.perf_counter() - start


@pytest.fixture(scope="module")
def ricci_211_run():
    params = nil3.Nil3Params(nil3.Nil3State(2, 1, 1))
    start = time.perf_counter()
    traj = integrate(params, 1e8)
    return params, traj, time.perf_counter() - start


@pytest.fixture(scope="module")
def const_coupling_run():
    params = nil3.Nil3Params(
        nil3.Nil3State(1, 1, 1), nil3.MapSlope(1.0),
        nil3.CouplingSchedule.constant(0.5),
    )
    traj = integrate(params, 1e8)
    return params, traj


@pytest.fixture(scope="module")
def power_coupling_runs():
    out = {}
    for r in (1.0, 2.0):
        params = nil3.Nil3Params(
            nil3.Nil3State(1, 1, 1), nil3.MapSlope(1.0),
            nil3.CouplingSchedule.power(1.0, r),
        )
        out[r] = (params, integrate(params, 1e8))
    return out


@pytest.fixture(scope="module")
def s1_map_flow_run():
    grid = rrfs.PeriodicGrid((64,), (2 * np.pi,))
    state0 = rrfs.random_smooth_state(0, grid, 2)
    start = time.perf_counter()
    run = rrfs.integrate_rrfs(
        state0, grid, rrfs.RescalingSpec("off"), 2.0,
        evolve_g=False, evolve_A=False,
    )
    return grid, run, time.perf_counter() - start


def test_ac1_ricci_oracle(ricci_unit_run):
    params, traj, elapsed = ricci_unit_run
    exact = (1.0 + 3.0 * traj.times) ** (1.0 / 3.0)
    err = np.abs(traj.states[:, 0] / exact - 1.0).max()
    phi = traj.states[:, 1] * traj.states[:, 2]
    drift = np.abs(phi - 1.0).max()
    ok = err <= 1e-6 and drift <= 1e-8 and elapsed <= 1.0
    assert report(
        "AC-1 closed-form oracle",
        ok,
        f"rel err {err:.2e}, drift {drift:.2e}, {elapsed:.2f}s",
    )


def test_ac2_zero_coupling_prefactors(ricci_211_run):
    params, traj, elapsed = ricci_211_run
    fA = nil3.fit_power_law(traj, "A", (1e6, 1e8))
    fC = nil3.fit_power_law(traj, "C", (1e6, 1e8))
    pred = nil3.predicted_constants(params)
    ratio = traj.states[-1, 0] / (pred["prefactors"]["A"] * 1e8 ** (1.0 / 3.0))
    ok = (
        abs(fA.exponent - 1 / 3) <= 0.01
        and abs(fC.exponent + 1 / 3) <= 0.01
        and 0.98 <= ratio <= 1.02
        and elapsed <= 10.0
    )
    assert report(
        "AC-2 zero-coupling prefactors",
        ok,
        f"slopes ({fA.exponent:.4f}, {fC.exponent:.4f}), "
        f"A ratio {ratio:.4f}, {elapsed:.2f}s",
    )


def test_ac3_constant_coupling_linear_band(const_coupling_run):
    # A grows linearly with slope f = 2 a^2 c, to within +-2% at t = 1e8.
    # The linear law carries a derived logarithmic correction.  With
    # Phi = B C conserved, A' = Phi / B^2 + f and (B^2)' = 2 Phi / A.  So
    # A ~ f t, hence B^2 ~ (2 Phi / f) log t, hence A - f t ~ (f / 2) li(t),
    # and A / (f t) = 1 + 1 / (2 log t) + O(log log t / log^2 t).  At
    # t = 1e8 the correction is +0.027, so the raw ratio alone cannot reach
    # the band there; the band is asserted for A over the two-term law
    # f t (1 + 1 / (2 log t)).  The 1/2 is derived, not fitted.
    def ratios(params, traj, t):
        # raw A / (f t) and A over the two-term law, at the first sample >= t
        i = np.searchsorted(traj.times, t)
        t_i, A_i = traj.times[i], traj.states[i, 0]
        raw = A_i / (nil3.predicted_constants(params)["A_slope"] * t_i)
        return raw, raw / (1.0 + 1.0 / (2.0 * np.log(t_i)))

    params, traj = const_coupling_run
    other = nil3.Nil3Params(
        nil3.Nil3State(2, 1, 3), nil3.MapSlope(1.0),
        nil3.CouplingSchedule.constant(0.5),
    )
    raw, corrected = ratios(params, traj, 1e8)
    raw_1e6, _ = ratios(params, traj, 1e6)
    raw_213, corrected_213 = ratios(
        other, integrate(other, 1e8), 1e8
    )
    ok = (
        0.98 <= corrected <= 1.02
        and 0.98 <= corrected_213 <= 1.02
        and raw < raw_1e6
    )
    assert report(
        "AC-3a constant-coupling A/(2a^2 c t (1 + 1/(2 log t))) band",
        ok,
        f"(1,1,1) raw {raw:.4f}, corrected {corrected:.4f}, "
        f"raw at 1e6 {raw_1e6:.4f}; "
        f"(2,1,3) raw {raw_213:.4f}, corrected {corrected_213:.4f}",
    )


def test_ac3_constant_coupling_log_growth(const_coupling_run):
    params, traj = const_coupling_run
    pred = nil3.predicted_constants(params)
    kappa = nil3.fit_log_growth(traj, "B", (1e6, 1e8)).prefactor
    phi = traj.states[:, 1] * traj.states[:, 2]
    drift = np.abs(phi - 1.0).max()
    # measured C-prefactor: C * sqrt(log t) at the end of the run
    c_meas = traj.states[-1, 2] * np.sqrt(np.log(traj.times[-1]))
    rel_consistent = abs(c_meas / pred["C_prefactor"] - 1.0)
    rel_doubled = abs(c_meas - pred["C_prefactor_doubled"]) / pred[
        "C_prefactor_doubled"
    ]
    ok = (
        abs(kappa / pred["kappa_B2"] - 1.0) <= 0.05
        and drift <= 1e-8
        and rel_consistent <= 0.05
        and rel_doubled >= 0.40
    )
    assert report(
        "AC-3b constant-coupling log growth + prefactor discrepancy",
        ok,
        f"kappa {kappa:.4f} (expect {pred['kappa_B2']:.1f}), drift {drift:.1e}, "
        f"C-prefactor {c_meas:.4f} vs consistent {pred['C_prefactor']:.4f} "
        f"(off {rel_consistent:.1%}) vs doubled {pred['C_prefactor_doubled']:.4f} "
        f"(off {rel_doubled:.1%})",
    )


def test_ac4_power_coupling_asymptotics(power_coupling_runs):
    ok_all = True
    details = []
    for r, (params, traj) in power_coupling_runs.items():
        fA = nil3.fit_power_law(traj, "A", (1e6, 1e8))
        fB = nil3.fit_power_law(traj, "B", (1e6, 1e8))
        fC = nil3.fit_power_law(traj, "C", (1e6, 1e8))
        pred = nil3.predicted_constants(params, alpha=fA.prefactor)
        ok = (
            abs(fA.exponent - 1 / 3) <= 0.02
            and abs(fB.exponent - 1 / 3) <= 0.02
            and abs(fC.exponent + 1 / 3) <= 0.02
            and abs(fB.prefactor / pred["B_prefactor"] - 1.0) <= 0.05
            and abs(fC.prefactor / pred["C_prefactor"] - 1.0) <= 0.05
        )
        ok_all = ok_all and ok
        details.append(
            f"r={r:g}: slopes ({fA.exponent:.3f}, {fB.exponent:.3f}, "
            f"{fC.exponent:.3f}), B pref off "
            f"{abs(fB.prefactor / pred['B_prefactor'] - 1):.1%}, C pref off "
            f"{abs(fC.prefactor / pred['C_prefactor'] - 1):.1%}"
        )
    assert report("AC-4 power-coupling asymptotics", ok_all, "; ".join(details))


def test_ac5_blowdown_closure(ricci_unit_run, const_coupling_run):
    ok_all = True
    details = []
    for label, (params, traj) in {
        "ricci": ricci_unit_run[:2],
        "const": const_coupling_run,
    }.items():
        res0 = nil3.flow_residual(traj, params)
        for s in (0.5, 4.0):
            p_s, t_s = nil3.blowdown(params, traj, s)
            res_s = nil3.flow_residual(t_s, p_s)
            ok_all = ok_all and res_s <= 10.0 * res0
            details.append(f"{label} s={s:g}: {res_s / res0:.2f}x")
    assert report("AC-5 blowdown closure", ok_all, "; ".join(details))


def test_ac6_tension_identity():
    worst = 0.0
    for n_base in (1, 2):
        for n_fiber in (2, 3):
            worst = max(
                worst, verify_tension(0, n_base, n_fiber, 64, 5)
            )
    ok = worst <= 1e-10
    assert report("AC-6 tension-field identity", ok, f"max residual {worst:.2e}")


def test_ac7_growth_bounds(
    ricci_unit_run, ricci_211_run, const_coupling_run, power_coupling_runs
):
    runs = [ricci_unit_run[:2], ricci_211_run[:2], const_coupling_run]
    runs += list(power_coupling_runs.values())
    worst = np.inf
    ok_all = True
    for params, traj in runs:
        rep = nil3.bounds_check(traj, params)
        worst = min(worst, rep.worst_slack)
        ok_all = ok_all and rep.ok and rep.worst_slack >= -1e-9
    assert report("AC-7 growth bounds", ok_all, f"worst slack {worst:.2e}")


def test_ac8_energy_monotonicity(s1_map_flow_run):
    grid, run, elapsed = s1_map_flow_run
    monotone = bool(np.all(np.diff(run.energies) <= 0.0))
    factor = run.energies[0] / run.energies[-1]
    ok = monotone and factor >= 10.0 and elapsed <= 10.0
    assert report(
        "AC-8 energy monotonicity",
        ok,
        f"monotone {monotone}, decay {factor:.0f}x, {elapsed:.2f}s",
    )


def test_ac9_integrator_orders():
    params = nil3.Nil3Params(nil3.Nil3State(1, 1, 1))
    slope_ode = ode.convergence_order(
        lambda t, y: nil3.rhs(nil3.Nil3State(*y), t, params),
        lambda t: nil3.exact_ricci_solution(t, 1.0, 1.0).as_array(),
        5.0,
        [0.5, 0.25, 0.125, 0.0625],
    )
    finals = {}
    for m in (32, 64, 128):
        grid = rrfs.PeriodicGrid((m,), (2 * np.pi,))
        st = rrfs.random_smooth_state(0, grid, 2)
        out = rrfs.integrate_rrfs(
            st, grid, rrfs.RescalingSpec("off"), 0.25,
            evolve_g=False, evolve_A=False,
        )
        finals[m] = out.final_state.G
    d1 = np.abs(finals[64][::2] - finals[32]).max()
    d2 = np.abs(finals[128][::2] - finals[64]).max()
    slope_pde = float(np.log2(d1 / d2))
    ok = 3.8 <= slope_ode <= 4.2 and slope_pde >= 2.0
    assert report(
        "AC-9 integrator orders",
        ok,
        f"RK4 slope {slope_ode:.2f}, grid-refinement slope {slope_pde:.2f}",
    )


def test_ac10_volume_normalization():
    grid = rrfs.PeriodicGrid((64,), (2 * np.pi,))
    state0 = rrfs.random_smooth_state(0, grid, 2)
    run = rrfs.integrate_rrfs(state0, grid, rrfs.RescalingSpec("volume"), 1.0)
    drift = float(np.abs(run.volumes / run.volumes[0] - 1.0).max())
    ok = drift <= 1e-6
    assert report("AC-10 volume normalization", ok, f"drift {drift:.2e}")
