"""Left-invariant coupled Ricci / harmonic-map flow on the Heisenberg group.

The metric is diag(A, B, C) in the standard left-invariant coframe and the
harmonic map is the linear function with slope ``a`` in the first
coordinate.  The flow is the ODE system

    A' = C/B + 2 a^2 c(t),   B' = C/A,   C' = -C^2/(A B),

with c(t) a non-increasing coupling schedule.  The product Phi = B*C is an
exact first integral.  This module carries the right-hand side, the
closed-form zero-coupling oracle, the blowdown rescaling, growth-bound
checks, and power-law / log-growth asymptotic fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .ode import (IntegratorConfig, ODESystem, Trajectory, _check_finite, _check_nonnegative,
                  _check_positive, integrate_adaptive)


@dataclass(frozen=True)
class Nil3State:
    A: float
    B: float
    C: float

    def __post_init__(self):
        for name in "ABC":
            _check_positive(name, getattr(self, name))

    def as_array(self) -> np.ndarray:
        return np.array([self.A, self.B, self.C])


@dataclass(frozen=True)
class MapSlope:
    a: float

    def __post_init__(self):
        _check_finite("slope a", self.a)
        if abs(self.a) > 2.0**511:  # the largest |a| whose forcing factor 2 a^2 is finite
            raise ValueError(f"slope |a| must be at most 2^511, got {self.a!r}")

    def blowdown(self, s: float) -> "MapSlope":
        return MapSlope(self.a / s)


@dataclass(frozen=True)
class CouplingSchedule:
    """Coupling c(t) = c0 (1 + time_scale t)^(-r), with finite c0 >= 0 and r >= 0
    and a finite ``time_scale`` > 0.

    A schedule is its values: ``zero()`` is c0 = 0, ``constant(c0)`` is r = 0, and
    ``power(c0, 0)`` equals ``constant(c0)``.  A blowdown by s multiplies ``c0`` by
    s^2 and ``time_scale`` by s, so the transformed schedule evaluates to
    s^2 * c(s t) without leaving the type.
    """

    c0: float = 0.0
    r: float = 0.0
    time_scale: float = 1.0

    def __post_init__(self):
        _check_nonnegative("c0", self.c0)
        _check_nonnegative("r", self.r)
        _check_positive("time_scale", self.time_scale)

    @staticmethod
    def zero() -> "CouplingSchedule":
        return CouplingSchedule()

    @staticmethod
    def constant(c0: float) -> "CouplingSchedule":
        return CouplingSchedule(c0)

    @staticmethod
    def power(c0: float, r: float) -> "CouplingSchedule":
        return CouplingSchedule(c0, r)

    def __call__(self, t):  # t: a time >= 0, or an array of them
        if t < 0.0 if isinstance(t, float) else np.any(t < 0.0):  # a float per RHS call
            raise ValueError(f"coupling time must be >= 0, got {t!r}")
        return self.c0 * (1.0 + self.time_scale * t) ** -self.r  # x ** -0.0 == 1.0 for all x

    def blowdown(self, s: float) -> "CouplingSchedule":
        return replace(self, c0=self.c0 * (s * s), time_scale=self.time_scale * s)


@dataclass(frozen=True)
class Nil3Params:
    state0: Nil3State
    slope: MapSlope = MapSlope(0.0)
    coupling: CouplingSchedule = CouplingSchedule.zero()
    phi0: float = field(init=False)
    forcing: float = field(init=False)  # 2 a^2, the factor of c(t) in the A-equation

    def __post_init__(self):
        object.__setattr__(self, "phi0", self.state0.B * self.state0.C)
        object.__setattr__(self, "forcing", 2.0 * self.slope.a**2)

    def f(self, t: float) -> float:
        """Effective forcing 2 a^2 c(t) in the A-equation."""
        return self.forcing * self.coupling(t)


@dataclass(frozen=True)
class AsymptoticFit:
    exponent: float
    prefactor: float
    window: tuple[float, float]
    r_squared: float
    mode: str  # "power_law" | "log_growth"


_COMPONENTS = {"A": 0, "B": 1, "C": 2}


def _flow(A, B, C, f):
    """(A', B', C') = (C/B + f, C/A, -C^2/(AB)) on floats or arrays."""
    return (C / B + f, C / A, -C * C / (A * B))


def minus_two_ricci(state: Nil3State) -> tuple[float, float, float]:
    """Coefficients of -2 Rc in the invariant coframe: (C/B, C/A, -C^2/(AB))."""
    return _flow(state.A, state.B, state.C, 0.0)


def rhs(state: Nil3State, t: float, params: Nil3Params) -> tuple[float, float, float]:
    return _flow(state.A, state.B, state.C, params.f(t))


def conserved_phi(state: Nil3State) -> float:
    return state.B * state.C


def exact_ricci_solution(t: float, A0: float, C0: float) -> Nil3State:
    """Zero-coupling closed form for symmetric data B0 = A0.

    A(t) = B(t) = (A0^3 + 3 Phi t)^(1/3) with Phi = A0 C0, and C = Phi/A.
    """
    phi = A0 * C0
    A = (A0**3 + 3.0 * phi * t) ** (1.0 / 3.0)
    return Nil3State(A, A, phi / A)


def make_system(params: Nil3Params) -> ODESystem:
    forcing, coupling = params.forcing, params.coupling

    def f(t, y):  # params.f(t), with its factor read once
        return _flow(*y.tolist(), forcing * coupling(t))  # three floats, not numpy scalars

    return ODESystem(rhs=f, positive_components=(0, 1, 2))


def integrate_nil3(
    params: Nil3Params, t_end: float, cfg: IntegratorConfig | None = None
) -> Trajectory:
    _check_positive("t_end", t_end)
    cfg = cfg or IntegratorConfig()
    return integrate_adaptive(
        make_system(params), 0.0, t_end, params.state0.as_array(), cfg
    )


def blowdown(
    params: Nil3Params, traj: Trajectory, s: float
) -> tuple[Nil3Params, Trajectory]:
    """Rescale a solution: state_s(t) = state(s t)/s, a_s = a/s, c_s = s^2 c(s t).

    The sample times t/s reuse the source samples, so the transformed
    trajectory covers exactly [t0/s, t1/s].
    """
    _check_positive("blowdown scale s", s)
    st0 = params.state0
    with np.errstate(over="ignore"):  # an overflowing or vanishing value is rejected below
        A, B, C = st0.A / s, st0.B / s, st0.C / s
        times, states = traj.times / s, traj.states / s
    if not math.isfinite(max(A, B, C)):
        raise ValueError(f"the blowdown by s = {s!r} overflows the initial state")
    if min(A, B, C) == 0.0:
        raise ValueError(f"the blowdown by s = {s!r} underflows the initial state to 0")
    new_params = Nil3Params(
        state0=Nil3State(A, B, C),
        slope=params.slope.blowdown(s),
        coupling=params.coupling.blowdown(s),
    )
    if not (np.isfinite(times[-1]) and np.isfinite(states).all()):
        raise ValueError(f"the blowdown by s = {s!r} overflows the trajectory")
    return new_params, Trajectory(times, states)


def _fd_derivative(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """4th-order five-point d(values)/dt at interior points (index 2..n-3).

    Differencing runs in u = log(1 + t), where log-sampled trajectories are
    (near-)uniform and the flow's slow power-law behavior keeps higher
    u-derivatives tame; the chain rule converts back to d/dt.  Stencil
    weights are solved per point from the local Vandermonde system, so
    non-uniform samples (e.g. blowdown-transformed) are handled.
    """
    n = len(times)
    m = n - 4
    u = np.log1p(times)
    # offsets of the 5 stencil points around each interior center
    idx = np.arange(m)[:, None] + np.arange(5)[None, :]
    dx = u[idx] - u[2 : n - 2][:, None]  # (m, 5)
    powers = dx[:, None, :] ** np.arange(5)[None, :, None]  # (m, 5, 5)
    target = np.zeros((m, 5, 1))
    target[:, 1, 0] = 1.0
    w = np.linalg.solve(powers, target)[..., 0]  # (m, 5)
    du = np.einsum("mk,mk...->m...", w, values[idx])
    shape = (m,) + (1,) * (values.ndim - 1)
    return du / (1.0 + times[2 : n - 2]).reshape(shape)


@np.errstate(over="ignore")  # A B may round to inf here as in the float right-hand side
def flow_residual(traj: Trajectory, params: Nil3Params) -> float:
    """Max normalized gap between finite-difference d(state)/dt and the rhs."""
    if len(traj.times) < 5:
        raise ValueError("need at least 5 samples for the residual stencil")
    d_fd = _fd_derivative(traj.times, traj.states)
    f = np.stack(_flow(*traj.states[2:-2].T, params.f(traj.times[2:-2])), axis=1)
    return float(np.max(np.abs(d_fd - f) / (1.0 + np.abs(f))))


def spans_two_decades(t_lo: float, t_hi: float) -> bool:
    """Whether a fit window 0 < t_lo < t_hi spans the two decades a fit needs,
    to within 1e-9 of a decade."""
    return bool(np.log10(t_hi / t_lo) >= 2 - 1e-9)


def _fit_line(traj: Trajectory, component: str, window: tuple[float, float], transform):
    """Least-squares line y = slope * log t + intercept with y = transform(Q)
    over the samples in ``window``; returns (slope, intercept, r^2)."""
    t_lo, t_hi = window
    times = traj.times
    if not t_lo < t_hi:
        raise ValueError("window must satisfy t_lo < t_hi")
    if not t_lo > 0:
        raise ValueError("fit window must start at a positive time")
    if t_lo < times[0] * (1 - 1e-12) or t_hi > times[-1] * (1 + 1e-12):
        raise ValueError("window outside trajectory range")
    if not spans_two_decades(t_lo, t_hi):
        raise ValueError("window must span at least 2 decades")
    mask = (times >= t_lo) & (times <= t_hi) & (times > 0)
    q = traj.component(_COMPONENTS[component])[mask]
    if np.any(q <= 0):
        raise ValueError("nonpositive samples in fit window")
    with np.errstate(over="ignore"):  # an overflowing sample is rejected below
        x, y = np.log(times[mask]), transform(q)
    if not np.isfinite(y).all():
        raise ValueError(f"{component} samples in the fit window transform to non-finite values")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def fit_power_law(
    traj: Trajectory, component: str, window: tuple[float, float]
) -> AsymptoticFit:
    """Fit Q ~ prefactor * t^exponent by least squares in log-log coordinates."""
    slope, intercept, r2 = _fit_line(traj, component, window, np.log)
    return AsymptoticFit(
        exponent=slope,
        prefactor=float(np.exp(intercept)),
        window=window,
        r_squared=r2,
        mode="power_law",
    )


def fit_log_growth(
    traj: Trajectory, component: str, window: tuple[float, float]
) -> AsymptoticFit:
    """Fit Q^2 ~ kappa * log t + const; kappa is returned as the prefactor."""
    slope, _, r2 = _fit_line(traj, component, window, np.square)
    return AsymptoticFit(
        exponent=0.0, prefactor=slope, window=window, r_squared=r2, mode="log_growth"
    )


def predicted_constants(params: Nil3Params, alpha: float | None = None) -> dict:
    """Predicted asymptotic constants for the regime of the coupling c0 (1 + t)^(-r).

    With f = 2 a^2 c(t), A' = Phi/B^2 + f, (B^2)' = 2 Phi/A and C = Phi/B.  One rule
    names the ``regime`` of every schedule:

    * ``"zero"``, a^2 c0 = 0: exponents (1/3, 1/3, -1/3) and ``prefactors`` from
      K = A0 B0 / (3 C0).
    * ``"constant"``, r = 0 and a^2 c0 > 0: the leading-order A-slope 2 a^2 c0, the
      log-growth slope kappa of B^2, and the C-prefactor consistent with B*C = Phi
      beside its doubled variant, which conservation rules out.  ``A_slope`` is
      leading order only: A / (A_slope t) = 1 + 1/(2 log t) + O(log log t / log^2 t).
      B^2 grows like log t, the r -> 0 limit of (t^r - 1)/r, so no power law covers it.
    * ``"slow_decay"``, 0 < r < 2/3: Phi/B^2 is of the forcing's order t^(-r), so
      A' = f gives ``A_prefactor`` alpha = 2 a^2 c0 time_scale^(-r) / (1 - 3r/2).
    * ``"fast_decay"``, r > 2/3: the forcing integral grows slower than t^(1/3).
    * ``"marginal"``, r = 2/3, the pole of alpha: A ~ t^(1/3) log t and
      B^2 ~ t^(2/3) / log t, so no prefactors are given.

    The zero, slow, marginal and fast regimes give exponents (1 - 2e, e, -e), e = r/2
    in slow decay and 1/3 otherwise.  In slow and fast decay, a measured ``alpha`` > 0
    with A ~ alpha t^(1 - 2e) gives B^2 ~ Phi t^(2e)/(alpha e): ``B_prefactor``
    sqrt(Phi/(alpha e)), ``C_prefactor`` Phi/B.

    A constant that is not finite, such as K for a subnormal C0, is None.
    """
    if alpha is not None:
        _check_positive("A-prefactor alpha", alpha)
    s0 = params.state0
    K = s0.A * s0.B / (3.0 * s0.C)
    phi = params.phi0
    coupling, r = params.coupling, params.coupling.r
    a2c = params.slope.a**2 * coupling.c0
    regime = ("zero" if a2c == 0 else "constant" if r == 0 else "slow_decay" if r < 2 / 3
              else "marginal" if r == 2 / 3 else "fast_decay")
    out = {"K": K, "phi": phi, "regime": regime}
    if regime == "constant":
        out.update(A_slope=2.0 * a2c, kappa_B2=phi / a2c, C_prefactor=np.sqrt(a2c * phi),
                   C_prefactor_doubled=2.0 * np.sqrt(a2c * phi))
        return _finite_or_none(out)
    slow = regime == "slow_decay"
    e = r / 2 if slow else 1 / 3
    out["exponents"] = {"A": 1 - r if slow else 1 / 3, "B": e, "C": -e}
    if regime == "zero":
        out["prefactors"] = {"A": s0.A * K ** (-1 / 3), "B": s0.B * K ** (-1 / 3),
                             "C": s0.C * K ** (1 / 3)}
    if slow:
        out["A_prefactor"] = 2.0 * a2c * coupling.time_scale ** (-r) / (1 - 1.5 * r)
    if alpha is not None and regime in ("slow_decay", "fast_decay"):
        if not alpha * e > 0:
            raise ValueError(f"alpha * e underflows to 0 (alpha = {alpha!r}, e = {e!r})")
        B = float(np.sqrt(phi / (alpha * e)))
        out.update(B_prefactor=B, C_prefactor=phi / B)
    return _finite_or_none(out)


def _finite_or_none(constants: dict) -> dict:
    """``constants`` with each number that is not finite, nested ones too, as None."""
    return {key: _finite_or_none(v) if isinstance(v, dict)
            else None if isinstance(v, float) and not math.isfinite(v) else v
            for key, v in constants.items()}


@dataclass(frozen=True)
class BoundsReport:
    ok: bool
    worst_slack: float
    violations: list


_BOUNDS_TOL = 1e-9


def bounds_check(traj: Trajectory, params: Nil3Params) -> BoundsReport:
    """Check the a-priori growth bounds at every trajectory sample.

    Bounds: C0 * A0 B0 / (A0 B0 + C0 t) <= C(t) <= C0,
    A(t) <= A0 + (C0/B0 + f(0)) t, and monotonicity of A, B (up) and C (down),
    each to within 1e-9 times max(A0, B0, C0, 1).
    """
    s0 = params.state0
    A0, B0, C0 = s0.A, s0.B, s0.C
    f0 = params.f(0.0)
    t = traj.times
    A, B, C = traj.states.T
    checks = [
        ("C_lower", C - A0 * B0 * C0 / (A0 * B0 + C0 * t)),
        ("C_upper", C0 - C),
        ("A_upper", A0 + (C0 / B0 + f0) * t - A),
        ("A_monotone", np.diff(A, prepend=A0)),
        ("B_monotone", np.diff(B, prepend=B0)),
        ("C_monotone", -np.diff(C, prepend=C0)),
    ]
    worst = np.inf
    violations = []
    for name, slack in checks:
        i = int(np.argmin(slack))
        worst = min(worst, float(slack[i]))
        if slack[i] < -_BOUNDS_TOL * max(A0, B0, C0, 1.0):
            violations.append((name, float(t[i]), float(slack[i])))
    return BoundsReport(ok=not violations, worst_slack=worst, violations=violations)
