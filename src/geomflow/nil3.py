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
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .ode import (IntegratorConfig, NonFiniteState, ODESystem, Trajectory, _check_finite,
                  _check_nonnegative, _check_positive, _count, _least_squares_line,
                  integrate_adaptive, log_sample_times)


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
        if abs(self.a) > _MAX_SLOPE:
            raise ValueError(f"slope |a| must be at most 2^511, got {self.a!r}")

    def blowdown(self, s: float) -> "MapSlope":
        _check_positive("blowdown scale s", s)
        a = self.a / s
        _check_blowdown(s, "slope", (abs(self.a),), (abs(a),), _MAX_SLOPE)
        return MapSlope(a)


_MAX_SLOPE = 2.0**511  # the largest |a| whose forcing factor 2 a^2 is finite


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
        if np.any(t < 0.0):
            raise ValueError(f"coupling time must be >= 0, got {t!r}")
        return self.c0 * (1.0 + self.time_scale * t) ** -self.r  # x ** -0.0 == 1.0 for all x

    def blowdown(self, s: float) -> "CouplingSchedule":
        _check_positive("blowdown scale s", s)
        # left to right: for s >= 1 c0 s overflows only if c0 s^2 does, for s <= 1 it
        # underflows only if c0 s^2 does, and a zero c0 stays 0
        c0, time_scale = self.c0 * s * s, self.time_scale * s
        _check_blowdown(s, "coupling", (self.c0, self.time_scale), (c0, time_scale))
        return replace(self, c0=c0, time_scale=time_scale)


def _check_blowdown(s: float, what: str, values, scaled, limit: float = sys.float_info.max):
    if not max(scaled) <= limit:
        raise ValueError(f"the blowdown by s = {s!r} overflows the {what}")
    if any(new == 0.0 < old for old, new in zip(values, scaled)):
        raise ValueError(f"the blowdown by s = {s!r} underflows the {what} to 0")


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


def exact_ricci_solution(t: float, A0: float, C0: float, B0: float | None = None) -> Nil3State:
    """Zero-coupling closed form from (A0, B0, C0), with B0 = A0 where it is not given.

    With f = 0, (A/B)' = 0, so A = k B with k = A0/B0; then (B^3)' = 3 Phi / k, so
    B(t) = (B0^3 + 3 Phi t / k)^(1/3) with Phi = B0 C0, and C = Phi/B, for t >= 0.
    """
    _check_nonnegative("t", t)
    _check_positive("A0", A0)
    _check_positive("C0", C0)
    B0 = A0 if B0 is None else B0
    _check_positive("B0", B0)
    phi, k = B0 * C0, A0 / B0
    try:
        B = (B0**3 + 3.0 * phi * t / k) ** (1.0 / 3.0)
        A, C = k * B, phi / B
    except (OverflowError, ZeroDivisionError):  # float ** and / raise where numpy gives inf
        A = B = C = math.nan
    if not all(0.0 < v < math.inf for v in (A, B, C)):
        raise ValueError(f"the closed form at t = {t!r} from A0 = {A0!r}, B0 = {B0!r}, "
                         f"C0 = {C0!r} leaves the float range")
    return Nil3State(A, B, C)


def _regime(params: Nil3Params) -> tuple[str, float, float]:
    """The regime of the coupling, and its exponents (p, e): A ~ t^p, B ~ t^e and
    C ~ t^(-e), with p + 2e = 1 (the constant regime's A ~ t, B^2 ~ log t give (1, 0))."""
    r = params.coupling.r
    if params.slope.a**2 * params.coupling.c0 == 0:
        return "zero", 1 / 3, 1 / 3
    if r == 0:
        return "constant", 1.0, 0.0
    if r < 2 / 3:
        return "slow_decay", 1 - r, r / 2
    return ("marginal" if r == 2 / 3 else "fast_decay"), 1 / 3, 1 / 3


def _log_frame(params: Nil3Params) -> tuple[float, float, float, float | None]:
    """(log t_s, p, e, log(t_s 2a^2 c0)) of ``make_system``'s variables; the last is
    None in the regime that ``_regime`` names zero.  Sums of logs, so no product of
    the data over- or underflows."""
    s0 = params.state0
    regime, p, e = _regime(params)
    log_A0 = math.log(s0.A)
    log_ts = min(0.0, log_A0 + math.log(s0.B) - math.log(s0.C))  # A0 B0 / C0
    if regime == "zero":
        return log_ts, p, e, None
    log_f0 = math.log(params.forcing) + math.log(params.coupling.c0)  # 2a^2 c0
    log_ts = min(log_ts, log_A0 - log_f0)
    return log_ts, p, e, log_ts + log_f0


def make_system(params: Nil3Params) -> ODESystem:
    """The flow in tau = log(1 + t/t_s) for (a, b, c) = (log A - p tau, log B - e tau,
    log C + e tau), with (p, e) the exponents of the regime (``_regime``):

        regime                        p        e
        zero, fast_decay, marginal    1/3      1/3
        slow_decay                    1 - r    r/2
        constant                      1        0

    Each regime's law A ~ t^p, B ~ t^e, C ~ t^(-e) is then a fixed point, or, where
    it is not one, a slow drift, so the steps grow with tau instead of following the
    growth in t.  With dt/dtau = t_s e^tau, d(log A)/dt = C/(AB) + f/A,
    d(log B)/dt = C/(AB) = -d(log C)/dt and C/(AB) = e^(c - (a + b)) e^(-(p + 2e) tau):

        a' = t_s q + t_s f(t) e^((1 - p) tau - a) - p,   b' = t_s q - e = -c',

    where q = e^(c - (a + b)) needs no factor of tau since 1 - 2e - p = 0 in every
    regime, and f = 2 a^2 c(t).  b' and c' are one value with opposite signs, so
    Phi = e^(b + c) moves only by rounding.  t_s = min(1, A0/(2a^2 c0), A0 B0/C0),
    with the middle term left out in the zero regime, is the datum's own time scale:
    at tau = 0 each term of a' and b' is at most 1 in size.  t_s enters the
    exponents as log t_s, and c(t) as -r log1p(time_scale t), so no factor leaves
    the float range before the state does.  In these variables an absolute error
    is a relative error of A, B and C, so ``integrate_nil3`` holds each step's error
    to an absolute scale.
    """
    log_ts, p, e, log_drive = _log_frame(params)
    r, time_scale = params.coupling.r, params.coupling.time_scale
    p_tau = 1.0 - p  # the factor of tau in the forcing's exponent

    def f(tau, y):
        a, b, c = y.tolist()  # three floats, not numpy scalars
        tq = math.exp(c - (a + b) + log_ts)  # t_s q; c - (a + b) keeps the A <-> B swap
        if log_drive is None:
            return (tq - p, tq - e, e - tq)
        x = log_drive + p_tau * tau - a
        if r:  # t = t_s (e^tau - 1), formed so that it overflows only past the float range
            x -= r * math.log1p(time_scale * math.exp(log_ts + tau) * -math.expm1(-tau))
        return (tq + math.exp(x) - p, tq - e, e - tq)

    return ODESystem(rhs=f)


def integrate_nil3(
    params: Nil3Params, t_end: float, cfg: IntegratorConfig | None = None, *,
    samples_per_decade: int = 32
) -> Trajectory:
    """The flow from ``params`` to ``t_end``, sampled at ``log_sample_times`` with
    ``samples_per_decade`` samples per decade of 1 + t: it runs in ``make_system``'s
    variables and maps each sample back to (A, B, C) in t.  ``cfg.rtol`` / 10 +
    ``cfg.atol``, which must not overflow, is the integrator's absolute error scale in
    log A, log B and log C, that is a relative one of A, B and C.  A sample whose A, B,
    C or Phi = BC leaves the float range is a ``NonFiniteState``."""
    _check_positive("t_end", t_end)
    cfg = cfg or IntegratorConfig()
    log_ts, p, e, _ = _log_frame(params)
    times = log_sample_times(0.0, t_end, samples_per_decade)
    with np.errstate(divide="ignore"):  # log 0 = -inf gives tau = 0 at t = 0
        tau = np.logaddexp(0.0, np.log(times) - log_ts)  # log1p(t / t_s), with no overflow
    s0 = params.state0
    tol = cfg.rtol / 10 + cfg.atol
    if tol == math.inf:
        raise ValueError(f"rtol / 10 + atol overflows, got rtol {cfg.rtol} and atol {cfg.atol}")
    traj = integrate_adaptive(make_system(params), tau,
                              [math.log(s0.A), math.log(s0.B), math.log(s0.C)], tol)
    with np.errstate(over="ignore"):  # a sample past the float range is refused below
        states = np.exp(traj.states + np.outer(tau, (p, e, -e)))
        values = np.column_stack([states, states[:, 1] * states[:, 2]])  # A, B, C, Phi
    outside = ~((values > 0) & (values < np.inf)).all(axis=1)
    if outside.any():
        raise NonFiniteState("the solution leaves the float range", times[np.argmax(outside)])
    return Trajectory(times, states)


def blowdown(
    params: Nil3Params, traj: Trajectory, s: float
) -> tuple[Nil3Params, Trajectory]:
    """Rescale a solution: state_s(t) = state(s t)/s, a_s = a/s, c_s = s^2 c(s t).

    The sample times t/s reuse the source samples, so the transformed
    trajectory covers exactly [t0/s, t1/s].
    """
    _check_positive("blowdown scale s", s)
    st0 = params.state0
    with np.errstate(over="ignore"):  # an overflowing or vanishing value is rejected
        state0 = (st0.A / s, st0.B / s, st0.C / s)
        _check_blowdown(s, "initial state", (st0.A, st0.B, st0.C), state0)
        new_params = Nil3Params(Nil3State(*state0), params.slope.blowdown(s),
                                params.coupling.blowdown(s))
        times, states = traj.times / s, traj.states / s
    if not (np.isfinite(times[-1]) and np.isfinite(states).all()):
        raise ValueError(f"the blowdown by s = {s!r} overflows the trajectory")
    return new_params, Trajectory(times, states)


_OUTER = (0, 1, 3, 4)  # the stencil's nodes other than its centre, 2
_DIAG = np.arange(4)


def _fd_derivative(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """4th-order five-point d(values)/dt at interior points (index 2..n-3).

    Differencing runs in u = log(1 + t), where log-sampled trajectories are
    (near-)uniform and the flow's slow power-law behavior keeps higher
    u-derivatives tame; the chain rule converts back to d/dt.  The weights are
    the derivatives at the centre of the five Lagrange basis polynomials on the
    offsets d_k of each stencil (d_c = 0 at the centre; Fornberg, Math. Comp. 51,
    1988): w_k = prod_{j != k, c} (-d_j) / prod_{j != k} (d_k - d_j) and
    w_c = -sum_{j != c} 1 / d_j, in closed form per point, so non-uniform samples
    (e.g. blowdown-transformed) are handled without a linear solve.  A weight is
    1/offset in size, so each stencil's are formed on its offsets over their
    largest |d_k| and divided by it after: the products of four offsets neither
    under- nor overflow, however far a blowdown moves the times.
    """
    n = len(times)
    u = np.log1p(times)
    d = np.stack([u[k : n - 4 + k] - u[2 : n - 2] for k in _OUTER])  # (4, n - 4) offsets
    scale = np.abs(d).max(axis=0)
    d = d / scale
    gaps = d[:, None] - d[None]  # d_k - d_j between outer nodes,
    gaps[_DIAG, _DIAG] = d  # with d_k - d_c in place of the zero d_k - d_k
    # prod_{j != k, c} (-d_j) is prod(-d) / (-d_k)
    w = np.prod(-d, axis=0) / (-d * np.prod(gaps, axis=1)) / scale
    shape = (n - 4,) + (1,) * (values.ndim - 1)
    du = (-np.sum(1.0 / d, axis=0) / scale).reshape(shape) * values[2 : n - 2]
    for w_k, k in zip(w, _OUTER):
        du += w_k.reshape(shape) * values[k : n - 4 + k]
    return du / (1.0 + times[2 : n - 2]).reshape(shape)


@np.errstate(over="ignore", invalid="ignore")  # A B may round to inf: see the last check
def flow_residual(traj: Trajectory, params: Nil3Params) -> float:
    """Max normalized gap between finite-difference d(state)/dt and the rhs."""
    _count("number of samples for the residual stencil", len(traj.times), 5)
    d_fd = _fd_derivative(traj.times, traj.states)
    f = np.stack(_flow(*traj.states[2:-2].T, params.f(traj.times[2:-2])), axis=1)
    residual = float(np.max(np.abs(d_fd - f) / (1.0 + np.abs(f))))
    _check_finite("flow residual", residual)
    return residual


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
    _count("number of samples in the fit window", len(q), 2)  # two for a line
    if np.any(q <= 0):
        raise ValueError("nonpositive samples in fit window")
    with np.errstate(over="ignore"):  # an overflowing sample is rejected below
        x, y = np.log(times[mask]), transform(q)
    if not np.isfinite(y).all():
        raise ValueError(f"{component} samples in the fit window transform to non-finite values")
    return _least_squares_line(x, y)


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
    regime, p, e = _regime(params)
    out = {"K": K, "phi": phi, "regime": regime}
    if regime == "constant":
        out.update(A_slope=2.0 * a2c, kappa_B2=phi / a2c, C_prefactor=np.sqrt(a2c * phi),
                   C_prefactor_doubled=2.0 * np.sqrt(a2c * phi))
        return _finite_or_none(out)
    slow = regime == "slow_decay"
    out["exponents"] = {"A": p, "B": e, "C": -e}
    if regime == "zero":
        K_13 = K ** (-1 / 3) if K else math.inf  # a K that underflows to 0 has no ** -1/3
        out["prefactors"] = {"A": s0.A * K_13, "B": s0.B * K_13, "C": s0.C * K ** (1 / 3)}
    if slow:
        out["A_prefactor"] = 2.0 * a2c * coupling.time_scale ** (-r) / (1 - 1.5 * r)
    if alpha is not None and regime in ("slow_decay", "fast_decay"):
        if not alpha * e > 0:
            raise ValueError(f"alpha * e underflows to 0 (alpha = {alpha!r}, e = {e!r})")
        B = float(np.sqrt(phi / (alpha * e)))
        out.update(B_prefactor=B, C_prefactor=phi / B if B else math.inf)
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


@np.errstate(over="ignore")  # a bound, slack or tolerance past the float range is inf
def bounds_check(traj: Trajectory, params: Nil3Params) -> BoundsReport:
    """Check the a-priori growth bounds at every trajectory sample.

    Bounds: C0 * A0 B0 / (A0 B0 + C0 t) <= C(t) <= C0,
    A(t) <= A0 + (C0/B0 + f(0)) t, and monotonicity of A, B (up) and C (down),
    each at each sample to within 1e-9 times the larger of the initial value
    and the sample's value of the component it bounds.
    """
    s0 = params.state0
    A0, B0, C0 = s0.A, s0.B, s0.C
    A_rate = C0 / B0 + params.f(0.0)  # inf where C0 / B0 overflows
    t = traj.times
    A, B, C = traj.states.T
    # C_lower = C0 r / (r + t) with r = A0 B0 / C0, formed from logs: C0 throughout where
    # r overflows, and C0 at t = 0 and 0 after where it underflows
    r = np.exp(math.log(A0) + math.log(B0) - math.log(C0))
    C_lower = C0 / (1.0 + t / r) if r > 0 else np.where(t > 0, 0.0, C0)
    A_upper = A0 + (A_rate * t if math.isfinite(A_rate) else np.where(t > 0, np.inf, 0.0))
    checks = [
        ("C_lower", C0, C, C - C_lower),
        ("C_upper", C0, C, C0 - C),
        ("A_upper", A0, A, A_upper - A),
        ("A_monotone", A0, A, np.diff(A, prepend=A0)),
        ("B_monotone", B0, B, np.diff(B, prepend=B0)),
        ("C_monotone", C0, C, -np.diff(C, prepend=C0)),
    ]
    worst = np.inf
    violations = []
    for name, q0, q, slack in checks:
        worst = min(worst, float(slack.min()))
        excess = slack + _BOUNDS_TOL * np.maximum(q0, q)
        i = int(np.argmin(excess))
        if excess[i] < 0:
            violations.append((name, float(t[i]), float(slack[i])))
    return BoundsReport(ok=not violations, worst_slack=worst, violations=violations)
