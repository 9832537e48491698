"""Explicit time integration: fixed-step RK4 and an adaptive embedded pair.

The adaptive integrator is a Dormand-Prince 5(4) pair with a PI step-size
controller and a 4th-order dense-output interpolant.  Output is sampled at the
times its caller gives, such as ``log_sample_times``, a grid logarithmically
spaced in ``1 + t``, which is what the asymptotic-exponent fits downstream
need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class IntegrationError(RuntimeError):
    """Base class for integration failures; carries the failing time."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} (at t = {t:.6g})")
        self.t = t


class MaxStepsExceeded(IntegrationError):
    pass


class StepSizeUnderflow(IntegrationError):
    pass


class NonFiniteState(IntegrationError):
    pass


class DegenerateOrder(RuntimeError):
    """Convergence-order measurement on an exactly integrable system."""


@dataclass(frozen=True)
class ODESystem:
    """The input of ``integrate_adaptive``: the right-hand side.

    ``rhs(t, y)`` returns dy/dt as any length-n sequence of floats (an ndarray,
    a list or a tuple), n = len(y).
    """

    rhs: callable  # (t, y) -> dy/dt, pure and deterministic


@dataclass(frozen=True)
class IntegratorConfig:
    rtol: float = 1e-9
    atol: float = 1e-12

    def __post_init__(self):
        _check_positive("rtol", self.rtol)
        _check_positive("atol", self.atol)


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # shape (len(times), dimension)

    def __post_init__(self):
        if np.ndim(self.states) != 2:
            raise ValueError(f"states must be a 2-D array, one row per time, got shape "
                             f"{np.shape(self.states)}")
        if len(self.times) != len(self.states):
            raise ValueError("times and states lengths differ")
        if len(self.times) == 0:
            raise ValueError("a trajectory needs at least one sample")
        if not np.all(np.diff(self.times) > 0):  # a NaN time is not increasing
            raise ValueError("times must be strictly increasing")

    def component(self, index: int) -> np.ndarray:
        return self.states[:, index]


# Dormand-Prince 5(4) tableau.  Row i < 7 of _TABLEAU holds stage i's weights
# in [:i]; row 6 is also the 5th-order solution's weights (b7 = 0), so the 7th
# stage is evaluated at the solution (FSAL).  Row 7 holds the error weights.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)  # floats: they only feed stage times
_TABLEAU = np.array(
    [
        [0.0] * 7,
        [1 / 5] + [0.0] * 6,
        [3 / 40, 9 / 40] + [0.0] * 5,
        [44 / 45, -56 / 15, 32 / 9] + [0.0] * 4,
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729] + [0.0] * 3,
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656] + [0.0] * 2,
        [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
        [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40],
    ]
)
# dense-output weights (Hairer's contd5)
_D = np.array(
    [
        -12715105075.0 / 11282082432.0,
        0.0,
        87487479700.0 / 32700410799.0,
        -10690763975.0 / 1880347072.0,
        701980252875.0 / 199316789632.0,
        -1453857185.0 / 822651844.0,
        69997945.0 / 29380423.0,
    ]
)

_SAFETY = 0.9
_H_INIT = 1e-4
_MAX_STEPS = 1_000_000
# A chosen seed limit, not numpy's (SeedSequence takes any int >= 0): 64 bits name
# more streams than any run uses, and a mistyped 400-digit seed is refused at once.
_MAX_SEED = 2**64 - 1
# A chosen cap on a grid axis and on the fiber dimension, not numpy's 2^63 bytes, whose
# errors name no input: in _MAX_STEPS CFL steps a run with g = 1 on a 2^20-node axis of
# period 2 pi reaches t = 7e-6, and one node's G of fiber dimension 2^20 is 8 TiB.
_MAX_SIZE = 2**20
# A chosen cap on the floats of one grid state, nodes x (n^2 + nN + N^2), since each
# count alone passes _MAX_SIZE: 2^27 floats are 1 GiB, and a right-hand side holds dozens
# of such fields.  A 2^20-node axis with N = 2 has 7 * 2^20, a 2^20 x 2^20 grid 12 * 2^40.
_MAX_STATE_SIZE = 2**27
_MAX_SAMPLES = 2**62  # more samples than numpy can lay out: linspace refuses this count
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_DENSE_BLOCK = 64  # dense-output samples evaluated per vectorised call
_UNDERFLOW_MESSAGES = {
    StepSizeUnderflow: "step size underflow",
    NonFiniteState: "state became non-finite",
}


# The numeric-input rules, each written once: a value that breaks one is a
# ValueError naming the input (NaN and inf are no integers and not finite).
def _count(name: str, value, minimum: int, maximum: float = math.inf) -> int:
    """``value`` as an int from ``minimum`` to ``maximum``.  An int is compared as it
    is, with no ``float``, which overflows past the largest double."""
    if not (minimum <= value <= maximum and (isinstance(value, int) or float(value).is_integer())):
        # a finite value above the maximum breaks that; any other is too small or no integer
        bound = f"<= {maximum}" if maximum < value < math.inf else f">= {minimum}"
        raise ValueError(f"{name} must be an integer {bound}, got {value}")
    return int(value)


def _check_finite(name: str, value: float):
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _check_positive(name: str, value: float):  # e.g. the horizon t_end of a run from t = 0
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_nonnegative(name: str, value: float):
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


@np.errstate(over="ignore", invalid="ignore")  # a non-finite step is reported as NonFiniteState
def rk4_step(rhs, t: float, y: np.ndarray, h: float) -> np.ndarray:
    """One classical 4-stage Runge-Kutta step of y' = rhs(t, y)."""
    _check_positive("step size", h)
    k1 = np.asarray(rhs(t, y))
    k2 = np.asarray(rhs(t + h / 2, y + h / 2 * k1))
    k3 = np.asarray(rhs(t + h / 2, y + h / 2 * k2))
    k4 = np.asarray(rhs(t + h, y + h * k3))
    out = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise NonFiniteState("non-finite right-hand side in RK4 step", t)
    return out


def _check_interval(t0: float, t1: float):
    _check_finite("t0", t0)
    _check_finite("t1", t1)
    if t1 < t0:
        raise ValueError("t1 must be >= t0")


def log_sample_times(t0: float, t1: float, samples_per_decade: int) -> np.ndarray:
    """Sample times log-spaced in 1 + t, always including t0 and t1 (one sample
    where they are equal); needs finite -1 < t0 <= t1."""
    _check_interval(t0, t1)
    if t0 <= -1:
        raise ValueError(f"t0 must be > -1, samples are log-spaced in 1 + t, got {t0!r}")
    u0 = np.log10(1.0 + t0)
    u1 = np.log10(1.0 + t1)
    with np.errstate(over="ignore"):  # linspace rejects the capped count; t1 is set below
        n = min((u1 - u0) * _count("samples_per_decade", samples_per_decade, 1, _MAX_SAMPLES),
                _MAX_SAMPLES)
        # t1 > t0 has two samples at least, though 1 + t1 may round to 1 + t0
        count = 1 if t1 == t0 else max(int(np.ceil(n)), 1) + 1
        times = 10.0 ** np.linspace(u0, u1, count) - 1.0
    times[0] = t0
    times[-1] = t1
    return times


def _dense_eval(theta, y0, ydiff, h, kstack):
    """Hairer's contd5 interpolant at theta in [0, 1] of a step of size h from y0
    to y0 + ydiff with stage slopes kstack: theta and h scalars with y0 of shape
    (n,) and kstack (7, n), or (m, 1) columns with (m, n) and (m, 7, n)."""
    r3 = h * kstack[..., 0, :] - ydiff
    r4 = ydiff - h * kstack[..., 6, :] - r3
    r5 = ((h * _D)[..., None, :] @ kstack)[..., 0, :]
    return y0 + theta * (ydiff + (1 - theta) * (r3 + theta * (r4 + (1 - theta) * r5)))


def _fill_dense(out_states, end, pending):
    """Evaluate the samples recorded as (theta, h, y, y_new, k) into the rows up
    to ``end`` of ``out_states``, and clear ``pending``."""
    theta, h, y0, y1, k = zip(*pending)
    theta, h = np.array([theta, h])[..., None]
    y0 = np.array(y0)
    out_states[end - len(pending) : end] = _dense_eval(
        theta, y0, np.array(y1) - y0, h, np.array(k)
    )
    pending.clear()


# a non-finite stage is reported as NonFiniteState; an error scale rtol |y| past the
# largest double is inf, and the step's error reads 0
@np.errstate(over="ignore", invalid="ignore")
def integrate_adaptive(
    sys: ODESystem, times, y0, cfg: IntegratorConfig | None = None
) -> Trajectory:
    """Integrate with the embedded 5(4) pair from ``times[0]`` to ``times[-1]``, with
    dense output at each of ``times``: finite and strictly increasing, one or more.
    ``cfg`` gives rtol and atol."""
    cfg = cfg or IntegratorConfig()
    sample_t = np.array(times, dtype=float)  # a copy: the trajectory keeps it
    if sample_t.ndim != 1 or not len(sample_t):
        raise ValueError(f"times must be a non-empty 1-D vector, got shape {sample_t.shape}")
    t0, t1 = float(sample_t[0]), float(sample_t[-1])
    _check_interval(t0, t1)
    if not np.all(np.diff(sample_t) > 0):  # the ends are finite, so every time is
        raise ValueError("times must be strictly increasing")
    y0 = np.asarray(y0, dtype=float)
    if y0.ndim != 1 or not len(y0):  # a scalar has no len(), [] no RMS error norm
        raise ValueError(f"y0 must be a non-empty 1-D vector, got shape {y0.shape}")
    if not np.isfinite(y0).all():
        raise NonFiniteState("initial state is not finite", t0)
    if t1 == t0:
        return Trajectory(sample_t, y0[None, :].copy())

    out_states = np.empty((len(sample_t), len(y0)))
    out_states[0] = y0
    next_sample = 1
    times = sample_t.tolist()  # Python floats keep numpy scalars out of the step
    pending = []  # dense samples recorded but not yet evaluated, up to row next_sample
    # t1 less a relative 1e-15, toward zero when t1 < 0
    t_stop = t1 * (1 - 1e-15) if t1 >= 0 else t1 * (1 + 1e-15)

    t, y = t0, y0.copy()
    abs_y = [abs(v) for v in y.tolist()]
    atol, rtol = cfg.atol, cfg.rtol
    try:  # an RHS on Python floats raises where numpy would give inf or NaN
        k1 = np.asarray(sys.rhs(t, y))
    except (ZeroDivisionError, OverflowError):  # every stage weighs k1: no step can be taken
        raise NonFiniteState("right-hand side is not finite at the initial state", t0) from None
    h = min(_H_INIT, t1 - t0)
    err_prev = 1.0
    rejects_in_a_row = 0
    # what a step-size underflow reports: NonFiniteState after a non-finite trial
    # step since the last accepted step, else the underflow itself
    cause = StepSizeUnderflow

    for _ in range(_MAX_STEPS):
        h = min(h, t1 - t)
        # the step that lands on t1 is taken however short; a retry of it is not
        if h < t1 - t and h < 1e-14 * max(abs(t), 1.0):
            raise cause(_UNDERFLOW_MESSAGES[cause], t)

        hw = h * _TABLEAU  # h scales the weights first, so no sum of slopes overflows
        k = np.empty((7, len(y0)))
        k[0] = k1
        try:
            for i in range(1, 7):
                yi = y + hw[i, :i].dot(k[:i])  # the same double as @, at less call cost
                k[i] = sys.rhs(t + _C[i] * h, yi)
            y_new = yi  # the 7th stage's state is the solution (FSAL)
            # a non-finite k7 = f(y_new) makes it a non-finite state too, rather than
            # an error estimate whose norm is NaN or inf; the test runs on Python floats
            y_list = y_new.tolist()
            finite = all(map(math.isfinite, y_list)) and all(map(math.isfinite, k[6].tolist()))
        except (ZeroDivisionError, OverflowError):  # a stage the RHS cannot evaluate
            finite = False
        if not finite:
            cause = NonFiniteState
            h *= 0.5
            continue

        # the RMS error norm on Python floats, each operation as numpy's; x * x, not
        # x**2, which raises OverflowError, and numpy's pairwise sum of the squares
        abs_new = [abs(v) for v in y_list]
        e = [d / (atol + rtol * max(a, b))
             for d, a, b in zip(hw[7].dot(k).tolist(), abs_y, abs_new)]
        err = math.sqrt(float(np.add.reduce([x * x for x in e])) / len(e))

        if err <= 1.0:
            # PI controller (beta = 0.04)
            factor = _SAFETY * max(err, 1e-16) ** -0.17 * err_prev**0.04
            err_prev = max(err, 1e-16)
            rejects_in_a_row = 0
            cause = StepSizeUnderflow
            t_new = t + h
            # record the dense samples inside (t, t_new], t_new plus a relative 1e-14
            t_reach = t_new * (1 + 1e-14) if t_new >= 0 else t_new * (1 - 1e-14)
            while next_sample < len(times) and times[next_sample] <= t_reach:
                pending.append(((min(times[next_sample], t_new) - t) / h, h, y, y_new, k))
                next_sample += 1
                if len(pending) == _DENSE_BLOCK:
                    _fill_dense(out_states, next_sample, pending)
            t, y, k1, abs_y = t_new, y_new, k[6], abs_new  # FSAL
            if t >= t_stop and next_sample >= len(times):
                if pending:
                    _fill_dense(out_states, next_sample, pending)
                out_states[-1] = y
                return Trajectory(sample_t, out_states)
        else:
            factor = max(_SAFETY * err**-0.2, _MIN_FACTOR)
            rejects_in_a_row += 1
            if rejects_in_a_row > 50:
                raise StepSizeUnderflow("50 consecutive error rejections", t)
        h *= min(max(factor, _MIN_FACTOR), _MAX_FACTOR)

    raise MaxStepsExceeded(f"{_MAX_STEPS} steps did not reach t1 = {t1:.6g}", t)


def integrate_fixed(rhs, t0: float, t1: float, y0, h: float) -> np.ndarray:
    """Fixed-step RK4 endpoint of y' = rhs(t, y); the last step is shortened to land on t1.

    A run takes at most ``_MAX_STEPS`` steps: a longer one raises ``MaxStepsExceeded``
    before the first step."""
    _check_interval(t0, t1)
    _check_positive("step size", h)  # here too: h = inf would take no step at all
    span = float(t1) - float(t0)  # on Python floats, an overflow is inf, not a warning
    steps = span / float(h)
    if steps > _MAX_STEPS:
        raise MaxStepsExceeded(f"t1 - t0 = {span:.6g} is more than {_MAX_STEPS} steps of "
                               f"h = {h:.6g}", t0)
    y = np.asarray(y0, dtype=float).copy()
    t = t0
    n_full = int(math.floor(steps * (1 + 1e-12)))
    for _ in range(n_full):
        y = rk4_step(rhs, t, y, h)
        t += h
    if t1 - t > 1e-12 * max(abs(t1), 1.0):
        y = rk4_step(rhs, t, y, t1 - t)
    return y


def convergence_order(rhs, exact, t_end: float, h_list) -> float:
    """Least-squares slope of log(error) vs log(h) for fixed-step RK4 from t = 0.

    ``exact`` maps a time to the exact state; ``exact(0)`` is the initial
    state.  Raises DegenerateOrder when the scheme integrates the system
    exactly (errors at rounding level).
    """
    h_list = np.asarray(h_list, dtype=float)
    _count("number of step sizes", len(h_list), 3)
    y0 = np.asarray(exact(0.0), dtype=float)
    ref = np.asarray(exact(t_end), dtype=float)
    errs = np.array([np.linalg.norm(integrate_fixed(rhs, 0.0, t_end, y0, h) - ref)
                     for h in h_list])
    if np.all(errs < 1e-13 * max(np.linalg.norm(ref), 1.0)):
        raise DegenerateOrder("errors at rounding level; system integrated exactly")
    return _least_squares_line(np.log(h_list), np.log(errs))[0]


def _least_squares_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """The centred least-squares line y = slope x + intercept: (slope, intercept, r^2).
    It is fitted to y / 2^k, with 2^k at the scale of the largest |y|, so that no sum of
    squares overflows; a power of two scales exactly, so the line is the unscaled one."""
    scale = math.ldexp(1.0, math.frexp(float(np.abs(y).max()))[1] - 1)
    y = y / scale
    x_mean, y_mean = x.mean(), y.mean()
    dx, dy = x - x_mean, y - y_mean
    slope = float(dx @ dy / (dx @ dx))
    intercept = float(y_mean - slope * x_mean)
    ss_res, ss_tot = float(np.sum((y - (slope * x + intercept))**2)), float(np.sum(dy**2))
    return slope * scale, intercept * scale, 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
