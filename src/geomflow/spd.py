"""Geometry of the manifold of symmetric positive-definite matrices.

Points live in the full SPD cone; the unit-determinant slice is reached
through :func:`project_unit_det`.  The metric is the trace form
``tr(G^-1 X G^-1 Y)`` and the connection is the symmetric bilinear map
``Gamma(X, Y) = -1/2 (X G^-1 Y + Y G^-1 X)``, which makes
``G(u) = G0^{1/2} exp(u G0^{-1/2} X G0^{-1/2}) G0^{1/2}`` a geodesic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ode import _MAX_SEED, _MAX_SIZE, _count

SYM_RTOL = 1e-14


class SPDError(ValueError):
    """Raised when a matrix fails the symmetric positive-definite checks."""


class DimensionMismatchError(ValueError):
    """Raised when operands of an operation have different sizes."""


def _sym(m: np.ndarray, axes=(-2, -1)) -> np.ndarray:
    """(m + m^T) / 2 over two axes, by default the last two."""
    h = 0.5 * m  # halve first: exact, and the sum cannot overflow
    return h + np.swapaxes(h, *axes)


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
        ok = ok & (a[i, i] > 0) & (c[i][i] > 0)
        if i + 1 < k:  # the scaled root feeds only the multipliers of the rows below
            r = np.sqrt(np.maximum(c[i][i], tiny))
            u = [c[j][i] / np.maximum(r, np.abs(c[j][i])) for j in range(i + 1, k)]  # |u| <= 1
    return ok


@dataclass(frozen=True)
class _Symmetric:
    """A square, finite matrix, symmetric to rounding and then symmetrized; read-only."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise SPDError(f"expected a square matrix, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise SPDError(f"{self.what} has non-finite entries")
        sym = _sym(arr)  # |arr - sym| is |arr - arr^T| / 2, which cannot overflow
        if np.abs(arr - sym).max() > 500 * SYM_RTOL * max(np.abs(arr).max(), 1.0):
            raise SPDError(f"{self.what} is not symmetric")
        sym.setflags(write=False)
        object.__setattr__(self, "entries", sym)


class SPDMatrix(_Symmetric):
    """A symmetric positive-definite matrix; symmetrized on construction."""

    what = "SPD matrix"

    def __post_init__(self):
        super().__post_init__()
        if not is_spd(self.entries):
            raise SPDError("matrix is not positive definite")


class TangentVector(_Symmetric):
    """A symmetric matrix viewed as a tangent vector at some base point."""

    what = "tangent vector"


def inv(fld: np.ndarray) -> np.ndarray:
    """G^-1 of a checked SPD field [N, N, *nodes], as a contiguous field of that layout:
    one LAPACK inverse of the node-major view."""
    k = fld.ndim - 2  # node axes
    out = np.linalg.inv(fld.transpose(*range(2, k + 2), 0, 1))
    return np.ascontiguousarray(out.transpose(k, k + 1, *range(k)))


def inv_times(Ginv: np.ndarray, X: np.ndarray) -> np.ndarray:
    """G^-1 X_a [a, i, j, *nodes] of a stack of fields X [a, i, j, *nodes], given G^-1."""
    return np.einsum("ik...,akj...->aij...", Ginv, X)


def trace_form(M: np.ndarray) -> np.ndarray:
    """The metric tr(G^-1 X_a G^-1 X_b) [a, b, *nodes] from M = inv_times(G^-1, X)."""
    return np.einsum("aij...,bji...->ab...", M, M)


def connection(Ginv: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The connection -1/2 (X G^-1 Y + Y G^-1 X) of symmetric X and Y, given G^-1, on
    fields [N, N, ...] whose node axes broadcast together: two einsums, no per-node loop."""
    XG = np.einsum("ik...,kl...->il...", X, Ginv)
    return -_sym(np.einsum("il...,lj...->ij...", XG, Y), (0, 1))


def _inv_at(G: SPDMatrix, *vectors: TangentVector) -> np.ndarray:
    """G^-1 at base point G, once each operand is checked to have G's size."""
    n = len(G.entries)
    for m in (len(X.entries) for X in vectors):
        if m != n:
            raise DimensionMismatchError(f"base point is {n}x{n}, operand is {m}x{m}")
    return inv(G.entries)


def metric_at(G: SPDMatrix, X: TangentVector, Y: TangentVector) -> float:
    """Trace-form inner product tr(G^-1 X G^-1 Y) at base point G."""
    return float(trace_form(inv_times(_inv_at(G, X, Y), np.stack([X.entries, Y.entries])))[0, 1])


def christoffel(G: SPDMatrix, X: TangentVector, Y: TangentVector) -> TangentVector:
    """Connection bilinear form -1/2 (X G^-1 Y + Y G^-1 X) at base point G."""
    return TangentVector(connection(_inv_at(G, X, Y), X.entries, Y.entries))


def project_unit_det(G: SPDMatrix) -> SPDMatrix:
    """Rescale G to the unit-determinant slice, G / det(G)^{1/N}."""
    logdet = np.linalg.slogdet(G.entries)[1]
    return SPDMatrix(G.entries * np.exp(-logdet / len(G.entries)))


def random_spd(seed: int, N: int, cond_max: float = 10.0) -> SPDMatrix:
    """Deterministic random SPD matrix with condition number <= cond_max."""
    N = _count("N", N, 1, _MAX_SIZE)
    if not 1 <= cond_max < math.inf:
        raise ValueError(f"cond_max must be finite and >= 1, got {cond_max}")
    rng = np.random.default_rng(_count("seed", seed, 0, _MAX_SEED))
    q, _ = np.linalg.qr(rng.standard_normal((N, N)))
    # eigenvalues in [1, cond_max); ratio of extremes stays below cond_max
    lam = 1.0 + (cond_max - 1.0) * rng.random(N)
    return SPDMatrix((q * lam) @ q.T)
