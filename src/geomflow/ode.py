"""Explicit time integration: fixed-step RK4 and an adaptive embedded pair.

The adaptive integrator is a Dormand-Prince 5(4) pair with a PI step-size
controller and a 4th-order dense-output interpolant.  Output is sampled on
a grid that is logarithmically spaced in ``1 + t``, which is what the
asymptotic-exponent fits downstream need.  An optional positivity guard
rejects any step that drives a flagged component to zero or below.
"""

from __future__ import annotations

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


class PositivityLost(IntegrationError):
    pass


class DegenerateOrder(RuntimeError):
    """Convergence-order measurement on an exactly integrable system."""


@dataclass(frozen=True)
class ODESystem:
    """The input of ``integrate_adaptive``: rhs and the components it keeps positive."""

    rhs: callable  # (t, y) -> dy/dt, pure and deterministic
    positive_components: tuple[int, ...] = ()


@dataclass(frozen=True)
class IntegratorConfig:
    rtol: float = 1e-9
    atol: float = 1e-12
    samples_per_decade: int = 32

    def __post_init__(self):
        if not all(np.isfinite(v) and v > 0 for v in (self.rtol, self.atol)):
            raise ValueError("rtol and atol must be positive and finite")
        if self.samples_per_decade < 1:
            raise ValueError("samples_per_decade must be at least 1")


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # shape (len(times), dimension)

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states lengths differ")
        if len(self.times) > 1 and np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    def component(self, index: int) -> np.ndarray:
        return self.states[:, index]


# Dormand-Prince 5(4) tableau
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
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
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_UNDERFLOW_MESSAGES = {
    StepSizeUnderflow: "step size underflow",
    NonFiniteState: "state became non-finite",
    PositivityLost: "flagged component forced the step size to underflow",
}


def rk4_step(rhs, t: float, y: np.ndarray, h: float) -> np.ndarray:
    """One classical 4-stage Runge-Kutta step of y' = rhs(t, y)."""
    if h <= 0:
        raise ValueError("step size must be positive")
    k1 = np.asarray(rhs(t, y))
    k2 = np.asarray(rhs(t + h / 2, y + h / 2 * k1))
    k3 = np.asarray(rhs(t + h / 2, y + h / 2 * k2))
    k4 = np.asarray(rhs(t + h, y + h * k3))
    out = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise NonFiniteState("non-finite right-hand side in RK4 step", t)
    return out


def _check_interval(t0: float, t1: float):
    if not (np.isfinite(t0) and np.isfinite(t1)):
        raise ValueError(f"t0 and t1 must be finite, got {t0!r} and {t1!r}")
    if t1 < t0:
        raise ValueError("t1 must be >= t0")


def log_sample_times(t0: float, t1: float, samples_per_decade: int) -> np.ndarray:
    """Sample times log-spaced in 1 + t, always including t0 and t1."""
    u0 = np.log10(1.0 + t0)
    u1 = np.log10(1.0 + t1)
    n = max(int(np.ceil((u1 - u0) * samples_per_decade)), 1)
    u = np.linspace(u0, u1, n + 1)
    times = 10.0**u - 1.0
    times[0] = t0
    times[-1] = t1
    return times


def _dense_eval(theta, y0, ydiff, h, kstack):
    r3 = h * kstack[0] - ydiff
    r4 = ydiff - h * kstack[6] - r3
    r5 = (h * _D) @ kstack
    return y0 + theta * (ydiff + (1 - theta) * (r3 + theta * (r4 + (1 - theta) * r5)))


@np.errstate(invalid="ignore")  # a non-finite stage is reported as NonFiniteState
def integrate_adaptive(
    sys: ODESystem, t0: float, t1: float, y0, cfg: IntegratorConfig | None = None
) -> Trajectory:
    """Integrate with the embedded 5(4) pair and log-spaced dense output."""
    cfg = cfg or IntegratorConfig()
    _check_interval(t0, t1)
    if t0 <= -1:
        raise ValueError(f"t0 must be > -1, samples are log-spaced in 1 + t, got {t0!r}")
    y0 = np.asarray(y0, dtype=float)
    if not np.all(np.isfinite(y0)):
        raise NonFiniteState("initial state is not finite", t0)
    if t1 == t0:
        return Trajectory(np.array([t0]), y0[None, :].copy())

    sample_t = log_sample_times(t0, t1, cfg.samples_per_decade)
    out_states = np.empty((len(sample_t), len(y0)))
    out_states[0] = y0
    next_sample = 1

    pos = list(sys.positive_components)
    t, y = t0, y0.copy()
    k1 = np.asarray(sys.rhs(t, y))
    h = min(_H_INIT, t1 - t0)
    err_prev = 1.0
    rejects_in_a_row = 0
    # what a step-size underflow reports: the cause of the last bad-state
    # rejection since the last accepted step, else the underflow itself
    cause = StepSizeUnderflow

    for _ in range(_MAX_STEPS):
        h = min(h, t1 - t)
        if h < 1e-14 * max(abs(t), 1.0):
            raise cause(_UNDERFLOW_MESSAGES[cause], t)

        k = np.empty((7, len(y0)))
        k[0] = k1
        for i in range(1, 7):  # h scales the weights first, so no sum of slopes overflows
            yi = y + (h * _A[i]) @ k[:i]
            k[i] = sys.rhs(t + _C[i] * h, yi)
        y_new = y + (h * _B) @ k

        finite = np.all(np.isfinite(y_new))
        if not finite or (pos and np.any(y_new[pos] <= 0.0)):
            cause = PositivityLost if finite else NonFiniteState
            h *= 0.5
            continue

        scale = cfg.atol + cfg.rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.sqrt(np.mean(((h * _E) @ k / scale) ** 2)))

        if err <= 1.0:
            # PI controller (beta = 0.04)
            factor = _SAFETY * max(err, 1e-16) ** -0.17 * err_prev**0.04
            err_prev = max(err, 1e-16)
            rejects_in_a_row = 0
            cause = StepSizeUnderflow
            t_new = t + h
            # fill dense output inside (t, t_new]
            while next_sample < len(sample_t) and sample_t[next_sample] <= t_new * (
                1 + 1e-14
            ):
                ts = min(sample_t[next_sample], t_new)
                theta = (ts - t) / h
                out_states[next_sample] = _dense_eval(theta, y, y_new - y, h, k)
                next_sample += 1
            t, y, k1 = t_new, y_new, k[6]  # FSAL
            if t >= t1 * (1 - 1e-15) and next_sample >= len(sample_t):
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
    """Fixed-step RK4 endpoint of y' = rhs(t, y); the last step is shortened to land on t1."""
    _check_interval(t0, t1)
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"step size must be positive and finite, got {h:.6g}")
    y = np.asarray(y0, dtype=float).copy()
    t = t0
    n_full = int(np.floor((t1 - t0) / h * (1 + 1e-12)))
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
    if len(h_list) < 3:
        raise ValueError("need at least 3 step sizes")
    y0 = np.asarray(exact(0.0), dtype=float)
    ref = np.asarray(exact(t_end), dtype=float)
    errs = np.array(
        [
            np.linalg.norm(integrate_fixed(rhs, 0.0, t_end, y0, h) - ref)
            for h in h_list
        ]
    )
    if np.all(errs < 1e-13 * max(np.linalg.norm(ref), 1.0)):
        raise DegenerateOrder("errors at rounding level; system integrated exactly")
    slope, _ = np.polyfit(np.log(h_list), np.log(errs), 1)
    return float(slope)
