"""Geometry of the manifold of symmetric positive-definite matrices.

Points live in the full SPD cone; the unit-determinant slice is reached
through :func:`project_unit_det`.  The metric is the trace form
``tr(G^-1 X G^-1 Y)`` and the connection is the symmetric bilinear map
``Gamma(X, Y) = -1/2 (X G^-1 Y + Y G^-1 X)``, which makes
``G(u) = G0^{1/2} exp(u G0^{-1/2} X G0^{-1/2}) G0^{1/2}`` a geodesic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SYM_RTOL = 1e-14


class SPDError(ValueError):
    """Raised when a matrix fails the symmetric positive-definite checks."""


class DimensionMismatchError(ValueError):
    """Raised when operands of an operation have different sizes."""


def _as_square(entries) -> np.ndarray:
    arr = np.array(entries, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise SPDError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _sym(m: np.ndarray) -> np.ndarray:
    """(m + m^T) / 2 over the last two axes."""
    h = 0.5 * m  # halve first: exact, and the sum cannot overflow
    return h + np.swapaxes(h, -1, -2)


def is_spd(fld: np.ndarray) -> np.ndarray:
    """Per node of a finite symmetric [..., k, k] field: whether every pivot d_i of
    LDL^T without pivoting is positive, which by Sylvester's criterion is SPD."""
    a, tiny = np.ascontiguousarray(fld.transpose(-2, -1, *range(fld.ndim - 2))), 5e-324
    k, s = len(a), [np.sqrt(np.maximum(a[i, i], tiny)) for i in range(len(a))]  # floors d_i
    c = [[a[j, i] / np.maximum(s[i] * s[j], np.abs(a[j, i])) for i in range(j)] + [1.0]
         for j in range(k)]  # unit diagonal: SPD keeps |c| < 1, max(., |a|) clamps the others
    ok, u = a[0, 0] > 0, [row[0] for row in c[1:]]  # the multipliers of d_0 = 1
    for i in range(1, k):
        for j in range(i, k):
            c[j][i:j + 1] = [x - u[j - i] * v for x, v in zip(c[j][i:j + 1], u)]
        ok, r = ok & (a[i, i] > 0) & (c[i][i] > 0), np.sqrt(np.maximum(c[i][i], tiny))
        u = [c[j][i] / np.maximum(r, np.abs(c[j][i])) for j in range(i + 1, k)]  # |u| <= 1 too
    return ok


def _check_symmetric(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise SPDError(f"{what} has non-finite entries")
    sym = _sym(arr)  # |arr - sym| is |arr - arr^T| / 2, which cannot overflow
    if np.abs(arr - sym).max() > 500 * SYM_RTOL * max(np.abs(arr).max(), 1.0):
        raise SPDError(f"{what} is not symmetric")
    return sym


@dataclass(frozen=True)
class SPDMatrix:
    """A symmetric positive-definite matrix; symmetrized on construction."""

    entries: np.ndarray

    def __post_init__(self):
        arr = _check_symmetric(_as_square(self.entries), "SPD matrix")
        if not is_spd(arr):
            raise SPDError("matrix is not positive definite")
        object.__setattr__(self, "entries", arr)
        self.entries.setflags(write=False)

    @property
    def n_dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class TangentVector:
    """A symmetric matrix viewed as a tangent vector at some base point."""

    entries: np.ndarray

    def __post_init__(self):
        arr = _check_symmetric(_as_square(self.entries), "tangent vector")
        object.__setattr__(self, "entries", arr)
        self.entries.setflags(write=False)

    @property
    def n_dim(self) -> int:
        return self.entries.shape[0]


def _check_dims(G: SPDMatrix, *vectors: TangentVector):
    for X in vectors:
        if X.n_dim != G.n_dim:
            raise DimensionMismatchError(
                f"base point is {G.n_dim}x{G.n_dim}, operand is {X.n_dim}x{X.n_dim}"
            )


def metric_at(G: SPDMatrix, X: TangentVector, Y: TangentVector) -> float:
    """Trace-form inner product tr(G^-1 X G^-1 Y) at base point G."""
    _check_dims(G, X, Y)
    GX = np.linalg.solve(G.entries, X.entries)
    GY = np.linalg.solve(G.entries, Y.entries)
    return float(np.trace(GX @ GY))


def christoffel(G: SPDMatrix, X: TangentVector, Y: TangentVector) -> TangentVector:
    """Connection bilinear form -1/2 (X G^-1 Y + Y G^-1 X) at base point G."""
    _check_dims(G, X, Y)
    XGY = X.entries @ np.linalg.solve(G.entries, Y.entries)
    return TangentVector(-_sym(XGY))


def _christoffel_stacked(Ginv: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The connection -1/2 (X G^-1 Y + Y G^-1 X) for symmetric X and Y, on
    node-stacked [..., N, N] arrays that broadcast together, given G^-1."""
    return -_sym(X @ Ginv @ Y)


def project_unit_det(G: SPDMatrix) -> SPDMatrix:
    """Rescale G to the unit-determinant slice, G / det(G)^{1/N}."""
    sign, logdet = np.linalg.slogdet(G.entries)
    n = G.n_dim
    return SPDMatrix(G.entries * np.exp(-logdet / n))


def random_spd(seed: int, N: int, cond_max: float = 10.0) -> SPDMatrix:
    """Deterministic random SPD matrix with condition number <= cond_max."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if cond_max < 1:
        raise ValueError(f"cond_max must be >= 1, got {cond_max}")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((N, N)))
    # eigenvalues in [1, cond_max); ratio of extremes stays below cond_max
    lam = 1.0 + (cond_max - 1.0) * rng.random(N)
    return SPDMatrix((q * lam) @ q.T)
