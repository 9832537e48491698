"""Method-of-lines solver for the rescaled invariant-metric flow system.

State is a triple of periodic node fields on a flat torus base (1D or 2D):
a base metric ``g`` (n x n SPD per node), a connection ``A`` (n x N per
node) and a fiber metric ``G`` (N x N SPD per node).  Spatial derivatives
are 4th-order central differences with periodic wraparound; time stepping
is explicit RK4 under a diffusive CFL cap with an SPD positivity guard.

Public arrays are node-major: the grid axes first, then the tensor axes,
e.g. ``christoffels_of_g(...)[..., c, a, b]`` is Gamma^c_ab.  Inside
``_Geometry`` fields are component-major: the tensor axes first, the grid
axes last and contiguous, a derivative index leading, e.g. ``dg[d, a, b]``
is the d-derivative of ``g_ab`` as a grid-shaped array.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cache, reduce
from itertools import accumulate

import numpy as np

from .ode import (_MAX_SEED, _MAX_SIZE, _MAX_STATE_SIZE, _MAX_STEPS, MaxStepsExceeded,
                  NonFiniteState, _check_finite, _check_positive, _count, rk4_step)
from .spd import _sym, connection, inv, inv_times, is_spd, trace_form

KAPPA_CFL = 0.2
_MAX_SNAPSHOTS = _MAX_STEPS + 1  # the states of the longest run
_SMOOTH_MODES = 3  # Fourier modes of each random scalar field
_TAYLOR_DEGREE = 14  # of exp on a row-sum norm of at most 1/2, see _expm_sym
_EPS = {1: (), 2: ((0, 1, 1.0), (1, 0, -1.0))}  # per base dimension, see _Geometry.eps
# text-table rows formatted per % operation: larger blocks format a little faster, but
# hold more Python floats at once (256 rows raised the peak memory of a CLI session)
_TABLE_BLOCK = 64


class SPDFieldError(RuntimeError):
    """SPD structure lost at some node; carries node index and time."""

    def __init__(self, message, node=None, t=None):
        extra = "" if node is None else f" at node {node}"
        extra += "" if t is None else f" at t = {t:.6g}"
        super().__init__(message + extra)
        self.node = node
        self.t = t


class CFLCollapse(RuntimeError):
    pass


class _memo:
    """A cached property without functools' lock: ``func``'s value, kept in ``__dict__``."""

    def __init__(self, func):
        self.func, self.name = func, func.__name__

    def __get__(self, obj, cls=None):  # only called while obj.__dict__ lacks the name
        return self if obj is None else obj.__dict__.setdefault(self.name, self.func(obj))


@dataclass(frozen=True)
class PeriodicGrid:
    sizes: tuple[int, ...]
    period: tuple[float, ...]

    def __post_init__(self):
        sizes = tuple(_count("grid size", s, 8, _MAX_SIZE) for s in self.sizes)
        period = tuple(float(p) for p in self.period)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "period", period)
        if len(sizes) not in (1, 2):
            raise ValueError("grid must be 1- or 2-dimensional")
        if len(period) != len(sizes):
            raise ValueError(f"{len(period)} periods given for {len(sizes)} grid axes")
        for p in period:
            _check_positive("period", p)
        object.__setattr__(self, "_hash", hash((sizes, period)))  # the dataclass's hash, once

    def __hash__(self):  # a grid keys each state's bundle dict, several lookups per stage
        return self._hash

    @property
    def n_base(self) -> int:
        return len(self.sizes)

    @_memo
    def spacing(self) -> tuple[float, ...]:
        return tuple(p / s for p, s in zip(self.period, self.sizes))

    def axis_coords(self, axis: int) -> np.ndarray:
        return np.arange(self.sizes[axis]) * self.spacing[axis]

    def coords(self) -> list[np.ndarray]:
        """Node coordinate arrays broadcast to the full grid shape."""
        axes = [self.axis_coords(a) for a in range(self.n_base)]
        return list(np.meshgrid(*axes, indexing="ij"))

    @_memo
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))


def _check_spd_field(fld: np.ndarray, what: str):
    """Raise SPDFieldError at the first node in C order that ``spd.is_spd`` rejects."""
    if not np.isfinite(fld).all():
        raise SPDFieldError(f"{what} has non-finite entries")
    _raise_at_first(is_spd(fld), f"{what} is not positive definite")


def _raise_at_first(ok: np.ndarray, message: str):
    """Raise SPDFieldError at the first node in C order where ``ok`` is False."""
    if not ok.all():
        raise SPDFieldError(message, node=tuple(int(i) for i in np.argwhere(~ok)[0]))


class _Metric:
    """A checked base metric g with det g, sqrt(det g) and min-eig g; ``per_grid`` is None,
    or for a frozen g a dict per grid where its bundles keep g^-1, Gamma, gamma, R, volume."""

    def __init__(self, g: np.ndarray):
        _check_spd_field(g, "base metric g")
        # g = 2^k s with the largest s_aa in [0.5, 1), exactly; SPD keeps |s_ab| < 1
        n = g.shape[-1]
        k = np.frexp(reduce(np.maximum, [g[..., a, a] for a in range(n)]))[1]
        s = np.ldexp(g, -k[..., None, None])
        diag = [s[..., a, a] for a in range(n)]
        pairs = [(s[..., a, b] ** 2, ((diag[a] - diag[b]) / n) ** 2)  # a < b: none if n = 1
                 for b in range(n) for a in range(b)]
        det = math.prod(diag[1:], start=diag[0]) - sum(off for off, _ in pairs)  # det s
        max_eig = sum(diag[1:], diag[0]) / n + np.sqrt(sum(off + d for off, d in pairs))
        self.min_eig = float(np.ldexp(det / max_eig ** (n - 1), k).min())  # CFL step
        det, e = np.frexp(det)  # det g = det 2^(e + nk)
        _raise_at_first((det > 0) & (e + n * k > -1074) & (e + n * k <= 1024),
                        "base metric g has a determinant outside the floating-point range")
        det = np.ldexp(det, e + n * k)
        self.g, self.det, self.sqrt_det, self.per_grid = g, det, np.sqrt(det), None
        for arr in (self.det, self.sqrt_det):
            arr.setflags(write=False)


class _Stepped(np.ndarray):
    """A field that ``integrate_rrfs`` vouches for: a g or G that RK4 formed from its
    checked input and symmetrised right-hand sides, so bitwise symmetric with the
    input's fiber dimension, or the input's checked A while A is frozen.
    ``RRFSState`` keeps the unmarked array ``plain``, so no state's field carries the mark."""

    @classmethod
    def of(cls, fld: np.ndarray) -> _Stepped:
        out = fld.view(cls)
        out.plain = fld
        return out


def _symmetrised(fld) -> np.ndarray:
    """(f + f^T) / 2 per node, or a _Stepped field's plain array: symmetric already."""
    return fld.plain if type(fld) is _Stepped else _sym(np.asarray(fld, dtype=float))


@dataclass(frozen=True)
class RRFSState:
    g: np.ndarray  # (*sizes, n, n), or the _Metric of an already checked g
    A: np.ndarray  # (*sizes, n, N)
    G: np.ndarray  # (*sizes, N, N)

    def __post_init__(self):
        metric = self.g if isinstance(self.g, _Metric) else None
        g = metric.g if metric else _symmetrised(self.g)
        checked_A = type(self.A) is _Stepped
        A = self.A.plain if checked_A else np.asarray(self.A, dtype=float)
        if A.flags.writeable:  # the caller's A stays writable; a read-only A is shared
            A = A.copy()
        if type(self.G) is not _Stepped:  # before any copy
            _count("fiber dimension", (np.shape(self.G) or (0,))[-1], 1, _MAX_SIZE)
        G = _symmetrised(self.G)
        if g.shape[-1] not in (1, 2):
            raise ValueError(f"base metric g must be 1x1 or 2x2 per node, got {g.shape[-2:]}")
        if A.shape != g.shape[:-1] + G.shape[-1:] or G.shape[:-2] != g.shape[:-2]:
            raise ValueError(f"fields of shapes {g.shape}, {A.shape}, {G.shape} do not fit")
        if not checked_A and not np.isfinite(A).all():
            raise SPDFieldError("connection A has non-finite entries")
        metric = metric or _Metric(g)
        _check_spd_field(G, "fiber metric G")
        object.__setattr__(self, "_metric", metric)
        object.__setattr__(self, "_bundles", {})  # grid -> _Geometry, see _Geometry.of
        for name, arr in zip("gAG", (g, A, G)):
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)

    @property
    def n_fiber(self) -> int:
        return self.G.shape[-1]


@dataclass(frozen=True)
class RescalingSpec:
    mode: str = "off"  # "off" | "constant" | "volume"
    s0: float = 0.0
    c_coupling: float = 0.0

    def __post_init__(self):
        if self.mode not in ("off", "constant", "volume"):
            raise ValueError(f"unknown rescaling mode {self.mode!r}")
        _check_finite("s0", self.s0)
        _check_finite("c_coupling", self.c_coupling)
        if self.s0 != 0 and self.mode != "constant":
            raise ValueError(f"rescaling mode {self.mode!r} takes no s0, got {self.s0!r}")


# ---------------------------------------------------------------------------
# spatial derivatives


def _neighbours(fld: np.ndarray, axis: int, grid: PeriodicGrid):
    """f[i-2], f[i-1], f[i+1], f[i+2] along a base axis, from one wrapped copy."""
    if not 0 <= axis < grid.n_base:
        raise ValueError(f"axis {axis} out of range for n = {grid.n_base}")
    m = fld.shape[axis]
    lead = (slice(None),) * axis
    wrapped = np.concatenate(
        [fld[lead + (slice(m - 2, m),)], fld, fld[lead + (slice(0, 2),)]], axis=axis
    )
    return (wrapped[lead + (slice(0, m),)], wrapped[lead + (slice(1, m + 1),)],
            wrapped[lead + (slice(3, m + 3),)], wrapped[lead + (slice(4, m + 4),)])


def d_central(fld: np.ndarray, axis: int, grid: PeriodicGrid) -> np.ndarray:
    """4th-order periodic central first derivative along a base axis; keeps fld's memory order."""
    fm2, fm1, fp1, fp2 = _neighbours(fld, axis, grid)
    return (8.0 * (fp1 - fm1) - (fp2 - fm2)) / (12.0 * grid.spacing[axis])


def d2_central(fld: np.ndarray, axis1: int, axis2: int, grid: PeriodicGrid) -> np.ndarray:
    """4th-order periodic second derivative (pure or mixed)."""
    if axis1 != axis2:
        return d_central(d_central(fld, axis1, grid), axis2, grid)
    fm2, fm1, fp1, fp2 = _neighbours(fld, axis1, grid)
    h = grid.spacing[axis1]
    return (16.0 * (fp1 + fm1) - 30.0 * fld - (fp2 + fm2)) / (12.0 * h * h)


@cache
def _rotation(ndim: int, k: int) -> tuple[int, ...]:  # moves the first k of ndim axes last
    return (*range(k, ndim), *range(k))


def _grid_last(fld: np.ndarray, n: int) -> np.ndarray:
    """Component-major view [<tensor axes>, *grid] of a node-major field."""
    return fld.transpose(_rotation(fld.ndim, n))


def _grid_first(fld: np.ndarray, n: int) -> np.ndarray:
    """Node-major view [*grid, <tensor axes>] of a component-major field."""
    return fld.transpose(_rotation(fld.ndim, fld.ndim - n))


def _check_fits(state: RRFSState, grid: PeriodicGrid):
    """Refuse a state whose nodes or base dimension are not those of ``grid``."""
    if state.g.shape != grid.sizes + (grid.n_base,) * 2:
        raise ValueError(f"state with g of shape {state.g.shape} does not fit "
                         f"grid {grid.sizes}")


# ---------------------------------------------------------------------------
# geometry of one state


class _of_g(_memo):  # a _memo of g alone, once per of_g dict (a frozen g's bundles share one)
    def __get__(self, obj, cls=None):
        if obj is not None and self.name not in obj.of_g:
            obj.of_g[self.name] = self.func(obj)
        return self if obj is None else obj.__dict__.setdefault(self.name, obj.of_g[self.name])


class _Geometry:
    """Geometric quantities of one state, component-major, each computed once.

    ``first`` stacks (A | G) once, component-major (G alone on a 1D base, as
    is), and writes one ``d_central`` call per base axis into one
    [axis, component, *grid] array; G and its derivatives are views of the
    two.  ``second`` does the same on (F | dG) once per axis pair, and
    ``d2_central`` runs once per axis on G.  ``christoffels`` differentiates
    g and ``scalar_curvature`` the Gamma rows it reads; a frozen g's bundles
    share these (``of_g``).  A base of dimension n <= 2 has one curvature
    component F = d_0 A_1 - d_1 A_0 with F_ab = eps_ab F, and every sum
    over dA, and the Ricci sum over c != b (its c = b terms cancel), runs
    over the ordered axis pairs (a, b, eps_ab): on a 1D base there are none
    and no F, so dA, delta dA and R are exactly 0, no Ricci or dA term is
    built, and the stencil leaves A out.

    A bundle keeps the state's fields and ``_Metric``, not the state, so a
    state that keeps its bundle (``of``) forms no reference cycle with it.
    """

    def __init__(self, state: RRFSState, grid: PeriodicGrid):
        _check_fits(state, grid)
        self.g, self.A, self.G, self.metric = state.g, state.A, state.G, state._metric
        self.grid, self.n = grid, grid.n_base
        per_grid = self.metric.per_grid
        self.of_g = {} if per_grid is None else per_grid.setdefault(grid, {})
        # (a, b, eps_ab) with a != b; the pair at position e starts on axis e
        self.eps = _EPS[self.n]

    @classmethod
    def of(cls, state: RRFSState, grid: PeriodicGrid) -> _Geometry:
        """The bundle ``state`` keeps for ``grid``, built on first use; it lives as
        long as the state, or until ``integrate_rrfs`` records the state."""
        geo = state._bundles.get(grid)
        if geo is None:
            geo = state._bundles[grid] = cls(state, grid)
        return geo

    def _d(self, fields: list, axes: list) -> tuple[list, list]:
        """The fields as views of one component stack (a single field as is), and the
        d_central of each along ``axes`` [axis, ...]: one call per axis on the whole stack."""
        rows = [f.reshape((-1,) + self.grid.sizes) for f in fields] if fields[1:] else fields
        stack = fields[0] if rows is fields else np.concatenate(
            rows, out=np.empty((sum(map(len, rows)),) + self.grid.sizes))
        d = np.empty((len(axes),) + stack.shape)
        for k, e in enumerate(axes):
            d[k] = _grid_last(d_central(_grid_first(stack, self.n), e, self.grid), self.n)
        if rows is fields:
            return fields, [d]
        cuts = [slice(end - len(r), end) for r, end in zip(rows, accumulate(map(len, rows)))]
        return ([stack[c].reshape(f.shape) for c, f in zip(cuts, fields)],
                [d[:, c].reshape(d.shape[:1] + f.shape) for c, f in zip(cuts, fields)])

    @_memo
    def first(self) -> dict:  # G [i, j], dA [d, a, i] (2D; no F reads it in 1D), dG [d, i, j]
        names = "AG" if self.n == 2 else "G"
        fields, d = self._d([_grid_last(getattr(self, x), self.n) for x in names],
                            list(range(self.n)))
        return {"G": fields[-1], **dict(zip(("d" + x for x in names), d))}

    @_memo
    def second(self) -> list:
        """Per pair (e, f): d_e F [i] and d_e d_a G [a, i, j] (a < e)."""
        return [[d[0] for d in self._d([*self.F, self.first["dG"][:e]], [e])[1]]
                for e, _, _ in self.eps]

    @_of_g
    def ginv(self) -> np.ndarray:  # [a, b] = adj(g)_ab / det g
        g = _grid_last(self.g, self.n)
        adj = np.negative(g, out=np.empty(g.shape))  # adj_ab = -g_ab off the diagonal (n <= 2)
        for a in range(self.n):
            adj[a, a] = math.prod(g[c, c] for c in range(self.n) if c != a)
        return np.divide(adj, self.metric.det, out=adj)

    @_memo
    def Ginv(self) -> np.ndarray:  # [i, j]
        return inv(_grid_last(self.G, self.n))

    @_of_g
    def christoffels(self) -> np.ndarray:  # [c, a, b]
        dg = self._d([_grid_last(self.g, self.n)], list(range(self.n)))[1][0]  # [d, a, b]
        # T[d, a, b] = d_a g_db + d_b g_da - d_d g_ab
        T = dg.swapaxes(0, 1) + dg.transpose(1, 2, 0, *range(3, dg.ndim)) - dg
        return 0.5 * np.einsum("cd...,dab...->cab...", self.ginv, T)

    @_of_g
    def gamma(self) -> np.ndarray:  # [c] = g^{ab} Gamma^c_ab
        return np.einsum("ab...,cab...->c...", self.ginv, self.christoffels)

    @_memo
    def F(self) -> list:  # [i] = d_0 A_1 - d_1 A_0: one field on a 2D base, none on a 1D one
        return [self.first["dA"][a, b] - self.first["dA"][b, a] for a, b, s in self.eps if s > 0]

    @_memo
    def dA_sums(self) -> dict:
        """delta dA [a, i], |dA|^2 and the dA terms of the A and G equations."""
        n, N, gi, G = self.n, self.G.shape[-1], self.ginv, self.first["G"]
        out = {k: np.zeros(shape + self.grid.sizes) for k, shape in (
            ("delta", (n, N)), ("norm_sq", ()), ("A", (n, N)), ("G", (N, N)))}
        for F in self.F:  # g^{ac} g^{bd} F_cd = eps_ab F / det g gives |dA|^2 and the G term
            FG = np.einsum("i...,ij...->j...", F, G)
            out["norm_sq"] += 2.0 * np.einsum("j...,j...->...", FG, F) / self.metric.det
            out["G"] -= FG[:, None] * FG / self.metric.det
            dF = np.stack([dF_e for dF_e, _ in self.second])  # [d, i]
            for x, y, s in self.eps:
                # -g^{bc} (d_b F_ca - Gamma^m_bc F_ma - Gamma^m_ba F_cm) with (x, y)
                # read as (c, a), (m, a) and (c, m)
                dF_x = np.einsum("d...,di...->i...", gi[x], dF)
                out["delta"][y] += s * (self.gamma[x] * F - dF_x)
                Gam_yx = np.einsum("b...,ba...->a...", gi[x], self.christoffels[y])
                out["delta"] += s * Gam_yx[:, None] * F
                out["A"][y] += s * np.einsum("b...,bik...,k...->i...", gi[x], self.M, F)
        return out

    @_memo
    def laplacian_G(self) -> np.ndarray:  # [i, j]
        # g^{ab} (d_a d_b G - Gamma^c_ab d_c G), each mixed derivative once
        n, gi, G = self.n, self.ginv, _grid_first(self.first["G"], self.n)
        out = -np.einsum("c...,cij...->ij...", self.gamma, self.first["dG"])
        for a in range(n):
            out += gi[a, a] * _grid_last(d2_central(G, a, a, self.grid), n)
        for e, (_, ddG) in enumerate(self.second):
            for a in range(e):  # each mixed derivative once
                out += 2.0 * gi[a, e] * ddG[a]
        return out

    @_memo
    def M(self) -> np.ndarray:  # [a, i, j] = G^-1 d_a G
        return inv_times(self.Ginv, self.first["dG"])

    @_memo
    def grad_square(self) -> np.ndarray:  # [i, j] = g^{ab} d_a G G^-1 d_b G
        return np.einsum("aik...,ab...,bkj...->ij...", self.first["dG"], self.ginv, self.M)

    @_memo
    def trace_MM(self) -> np.ndarray:  # [a, b] = tr(G^-1 d_a G G^-1 d_b G)
        return trace_form(self.M)

    @_memo
    def grad_G_norm_sq(self) -> np.ndarray:
        return np.einsum("ab...,ab...->...", self.ginv, self.trace_MM)

    @_of_g
    def scalar_curvature(self) -> np.ndarray:
        # g^{ab} Rc_ab, Rc_ab = sum over c != b of
        # d_c Gamma^c_ab - d_b Gamma^c_ac + Gamma^c_cd Gamma^d_ab - Gamma^c_bd Gamma^d_ac
        gi, Gam, out = self.ginv, self.christoffels, np.zeros(self.grid.sizes)
        # per pair (e, f): d_e Gamma^c_af [c, a], the Gamma rows that the sum differentiates
        dGam = [self._d([Gam[:, :, f]], [e])[1][0][0] for e, f, _ in self.eps]
        for c, b, _ in self.eps:
            out += np.einsum("a...,a...->...", gi[b], dGam[c][c] - dGam[b][c])
            out += np.einsum("d...,a...,da...->...", Gam[c, c], gi[b], Gam[:, :, b])
            out -= np.einsum("d...,a...,da...->...", Gam[c, b], gi[b], Gam[:, :, c])
        return out

    @_of_g
    def volume(self) -> float:
        return float(self.metric.sqrt_det.sum() * self.grid.cell_volume)

    @_memo
    def energy(self) -> float:
        w = self.metric.sqrt_det
        return float(0.5 * (self.grad_G_norm_sq * w).sum() * self.grid.cell_volume)

    @_memo
    def s_volume(self) -> float:
        w = self.metric.sqrt_det
        r = self.scalar_curvature - 0.25 * self.grad_G_norm_sq
        if self.F:  # |dA|^2 = 0 without F
            r = r - 0.5 * self.dA_sums["norm_sq"]
        return float(-(2.0 / self.grid.n_base) * (r * w).sum() / w.sum())

    def s(self, spec: RescalingSpec) -> float:
        """The rescaling value that ``spec`` prescribes at this state."""
        return self.s_volume if spec.mode == "volume" else spec.s0


def _view(fld: np.ndarray, n: int) -> np.ndarray:
    """A read-only node-major view of a component-major bundle array."""
    out = _grid_first(fld, n)
    out.flags.writeable = False
    return out


def christoffels_of_g(state: RRFSState, grid: PeriodicGrid) -> np.ndarray:
    """Christoffel symbols of g, indexed [..., c, a, b] for Gamma^c_ab."""
    return _view(_Geometry.of(state, grid).christoffels, grid.n_base)


def dA_field(state: RRFSState, grid: PeriodicGrid) -> np.ndarray:
    """Curvature 2-form of the connection, [..., a, b, i] antisymmetric in (a, b)."""
    geo = _Geometry.of(state, grid)
    F = np.zeros((geo.n, geo.n, state.n_fiber) + grid.sizes)
    for a, b, s in geo.eps:
        F[a, b] = s * geo.F[0]
    return _grid_first(F, geo.n)


def delta_dA(state: RRFSState, grid: PeriodicGrid) -> np.ndarray:
    """Codifferential of dA: -g^{bc} (cov d)_b (dA)_{c a}^i, shape [..., a, i]."""
    return _view(_Geometry.of(state, grid).dA_sums["delta"], grid.n_base)


def laplacian_G(state: RRFSState, grid: PeriodicGrid) -> np.ndarray:
    """Base-metric Laplacian of G: g^{ab} (d_a d_b G - Gamma^c_ab d_c G)."""
    return _view(_Geometry.of(state, grid).laplacian_G, grid.n_base)


def tension_G_simplified(state: RRFSState, grid: PeriodicGrid) -> np.ndarray:
    """Tension field in divergence form: Laplacian minus the gradient square."""
    geo = _Geometry.of(state, grid)
    return _grid_first(geo.laplacian_G - geo.grad_square, geo.n)


def tension_G_general(state: RRFSState, grid: PeriodicGrid) -> np.ndarray:
    """Tension field built from the target-manifold connection.

    g^{ab} (d_a d_b G - Gamma^c_ab d_c G + Gamma_target(d_a G, d_b G)) with
    Gamma_target(X, Y) = -1/2 (X G^-1 Y + Y G^-1 X).  Agrees with the
    divergence form identically; both share the same discrete derivatives.
    ``spd.connection`` forms Gamma_target one (a, b) at a time, component-major,
    before g^{ab} weighs it into one [i, j] sum.
    """
    geo = _Geometry.of(state, grid)
    dG, out = geo.first["dG"], geo.laplacian_G.copy()
    for a in range(geo.n):
        for b in range(geo.n):
            out += geo.ginv[a, b] * connection(geo.Ginv, dG[a], dG[b])
    return _grid_first(out, geo.n)


def grad_G_norm_sq(state: RRFSState, grid: PeriodicGrid) -> np.ndarray:
    """|grad G|^2 = g^{ab} tr(G^-1 d_a G G^-1 d_b G) per node."""
    return _view(_Geometry.of(state, grid).grad_G_norm_sq, grid.n_base)


def dA_norm_sq(state: RRFSState, grid: PeriodicGrid) -> np.ndarray:
    """|dA|^2 = g^{ac} g^{bd} G_ij (dA)^i_ab (dA)^j_cd per node."""
    return _view(_Geometry.of(state, grid).dA_sums["norm_sq"], grid.n_base)


def volume(state: RRFSState, grid: PeriodicGrid) -> float:
    """Discrete base volume, integral of sqrt(det g)."""
    return _Geometry.of(state, grid).volume


def energy_G(state: RRFSState, grid: PeriodicGrid) -> float:
    """Discrete map energy: 1/2 integral of |grad G|^2 with weight sqrt(det g)."""
    return _Geometry.of(state, grid).energy


def scalar_curvature(state: RRFSState, grid: PeriodicGrid) -> np.ndarray:
    """Scalar curvature of g per node; identically zero on a 1D base."""
    return _view(_Geometry.of(state, grid).scalar_curvature, grid.n_base)


def s_volume(state: RRFSState, grid: PeriodicGrid) -> float:
    """Volume-normalizing rescaling: -(2/n) times the sqrt(det g)-weighted
    mean of r = R - 1/4 |grad G|^2 - 1/2 |dA|^2."""
    return _Geometry.of(state, grid).s_volume


# The terms of each field's equation, None for the Ricci and dA terms on a 1D base, where
# R = 0 and there is no F, and for G's rescaling term when c s = 0.  -2 Rc = -R g and
# 1/2 |dA|^2 g hold on a 2D base (Rc = (R/2) g and eps g^-1 eps^T = g / det g).


def _g_terms(geo: _Geometry, s: float, c: float) -> dict:
    g = geo.g
    return {
        "g_ricci": -geo.scalar_curvature[..., None, None] * g if geo.F else None,
        "g_gradG": 0.5 * _grid_first(geo.trace_MM, geo.n),
        "g_dA": 0.5 * geo.dA_sums["norm_sq"][..., None, None] * g if geo.F else None,
        "g_rescale": -s * g,
    }


def _A_terms(geo: _Geometry, s: float, c: float) -> dict:
    return {
        "A_codiff": -_grid_first(geo.dA_sums["delta"], geo.n) if geo.F else None,
        "A_gradG": _grid_first(geo.dA_sums["A"], geo.n) if geo.F else None,
        "A_rescale": -0.5 * (1.0 + c) * s * geo.A,
    }


def _G_terms(geo: _Geometry, s: float, c: float) -> dict:
    return {
        "G_laplace": _grid_first(geo.laplacian_G, geo.n),
        "G_gradsq": -_grid_first(geo.grad_square, geo.n),
        "G_dA": _grid_first(geo.dA_sums["G"], geo.n) if geo.F else None,
        "G_rescale": c * s * geo.G if c * s else None,
    }


_TERMS = {"g": _g_terms, "A": _A_terms, "G": _G_terms}


def rrfs_rhs_terms(
    state: RRFSState, grid: PeriodicGrid, spec: RescalingSpec
) -> dict[str, np.ndarray | float]:
    """Term-by-term decomposition of the flow's right-hand side: s and every
    term of g, A and G as a read-only array, of zeros for a term that vanishes."""
    geo = _Geometry.of(state, grid)
    s = geo.s(spec)
    out = {"s": s}
    for field, build in _TERMS.items():
        for key, term in build(geo, s, spec.c_coupling).items():
            out[key] = np.zeros(getattr(state, field).shape) if term is None else term
            out[key].flags.writeable = False  # some terms are views of the state's bundle
    return out


def rrfs_rhs(
    state: RRFSState, grid: PeriodicGrid, spec: RescalingSpec, *, fields="gAG"
) -> tuple[np.ndarray, ...]:
    """Right-hand side of the rescaled flow system for each of ``fields`` ("g",
    "A", "G"), by default (dg/dt, dA/dt, dG/dt); no other field's terms are built.
    It reads the state's own bundle, which the diagnostics then share."""
    geo = _Geometry.of(state, grid)
    s = geo.s(spec)
    out = []
    for field in fields:
        terms = [t for t in _TERMS[field](geo, s, spec.c_coupling).values() if t is not None]
        total = sum(terms[1:], terms[0])
        out.append(total if field == "A" else _sym(total))
    return tuple(out)


# ---------------------------------------------------------------------------
# time integration


@dataclass(frozen=True)
class RRFSRun:
    step_times: np.ndarray
    energies: np.ndarray
    volumes: np.ndarray
    s_values: np.ndarray
    snapshots: list  # RRFSState at the snapshot times, the final state last

    @property
    def final_state(self) -> RRFSState:
        return self.snapshots[-1]


@np.errstate(over="ignore", invalid="ignore")  # a non-finite step is rejected as one
def integrate_rrfs(
    state0: RRFSState,
    grid: PeriodicGrid,
    spec: RescalingSpec,
    t_end: float,
    kappa_cfl: float = KAPPA_CFL,
    evolve_g: bool = True,
    evolve_A: bool = True,
    n_snapshots: int = 5,
) -> RRFSRun:
    """Explicit RK4 time stepping under a diffusive CFL cap.

    dt <= kappa_cfl * h_min^2 * min-eig(g); steps that lose positive
    definiteness of g or G are rejected with dt halved, up to 50 times.
    ``evolve_g`` / ``evolve_A`` freeze the respective fields (harmonic-map
    -only mode is g frozen, A frozen).  The snapshots are the initial state,
    the first state at or past each of ``n_snapshots`` - 2 evenly spaced
    interior times and the final state, so ``n_snapshots`` must be at least 2, and
    at most ``_MAX_SNAPSHOTS``, the ``ode._MAX_STEPS`` + 1 states of the longest run.
    A run takes at most ``ode._MAX_STEPS`` steps: a ``t_end`` past that many initial
    CFL steps is refused before the first step, and a run that the cap stops
    raises ``MaxStepsExceeded``.
    The steps run through ``ode.rk4_step`` on the evolving fields packed into
    one flat array.  Every state shares the frozen fields, and a frozen g its
    checked ``_Metric``.  Each state the loop builds still runs the ``RRFSState``
    check, less what the step guarantees (see ``_Stepped``): no symmetrisation of
    the moving g and G, no finiteness test of a frozen A, no count of N.

    Stage 1 runs once per accepted state; its k1 serves every halving and its
    bundle gives the state's energy, volume and s.  Recording a state drops
    its bundle, so no state of the run, the input included, keeps one.
    """
    _check_positive("t_end", t_end)
    _check_positive("kappa_cfl", kappa_cfl)
    n_snapshots = _count("n_snapshots", n_snapshots, 2, _MAX_SNAPSHOTS)
    h_min = min(grid.spacing)
    cfl = kappa_cfl * h_min * h_min  # the CFL step per unit of min-eig(g)
    dt0 = cfl * state0._metric.min_eig
    if t_end > _MAX_STEPS * float(dt0) > 0:  # a collapsed dt0 is the loop's CFLCollapse
        raise MaxStepsExceeded(f"t_end = {t_end:.6g} is more than {_MAX_STEPS} steps of "
                               f"the initial CFL step {dt0:.6g}", 0.0)
    snap_req = np.linspace(0.0, t_end, n_snapshots)
    if not evolve_g and state0._metric.per_grid is None:  # a memo: g is read-only
        state0._metric.per_grid = {}
    moving = [key for key, keep in zip("gAG", (evolve_g, evolve_A, True)) if keep]
    # the frozen fields as checked in state0; RK4 keeps a moving g and G bitwise symmetric,
    # and a moving A, which RK4 may take past the largest double, stays unmarked
    fixed = {key: f for key, f in (("g", state0._metric), ("A", _Stepped.of(state0.A)))
             if key not in moving}
    fields = [getattr(state0, key) for key in moving]
    cuts = [(key, slice(end - f.size, end), f.shape, np.asarray if key == "A" else _Stepped.of)
            for key, f, end in zip(moving, fields, accumulate(f.size for f in fields))]

    def unpack(y) -> RRFSState:
        y.setflags(write=False)  # ours alone: read-only, so RRFSState shares A, not copies it
        return RRFSState(**fixed, **{key: mark(y[c].reshape(shape))
                                     for key, c, shape, mark in cuts})

    def rhs_flat(st):
        k = [k_field.ravel() for k_field in rrfs_rhs(st, grid, spec, fields=moving)]
        return np.concatenate(k) if k[1:] else k[0]

    def stage(t, y):  # the RK4 right-hand side; k1 is computed once per accepted state
        return k1 if y is y_state else rhs_flat(unpack(y))

    def record(t, st):  # the row of an accepted state, from the bundle stage 1 left; drops it
        geo = _Geometry.of(st, grid)
        rows.append((t, geo.energy, geo.volume, geo.s(spec)))
        del st._bundles[grid]

    rows = []  # (t, energy, volume, s) at each accepted state
    t = 0.0
    state, y_state = state0, np.concatenate([f.ravel() for f in fields])
    snapshots = [state0]
    next_snap = 1

    t_stop = t_end * (1 - 1e-12)
    for _ in range(_MAX_STEPS):
        if t >= t_stop:
            break
        dt_cfl = cfl * state._metric.min_eig
        if dt_cfl <= 0 or not np.isfinite(dt_cfl):
            raise CFLCollapse(f"CFL step collapsed at t = {t:.6g}")
        dt = min(dt_cfl, t_end - t)
        k1 = rhs_flat(state)  # stage 1, at a state that is already checked
        record(t, state)
        rejections = 0
        while True:
            try:
                new_state = unpack(y := rk4_step(stage, t, y_state, dt))
                break
            except (SPDFieldError, NonFiniteState) as err:
                rejections += 1
                if rejections > 50:
                    raise SPDFieldError("SPD structure lost after 50 step halvings",
                                        node=getattr(err, "node", None), t=t) from err
                dt *= 0.5
        t += dt
        # new_state's moving fields are views of y; g and G are bitwise symmetric
        state, y_state = new_state, y
        while next_snap < len(snap_req) - 1 and t >= snap_req[next_snap]:
            snapshots.append(state)
            next_snap += 1
    else:
        if t < t_stop:  # the CFL step shrank as g evolved, or steps were halved
            raise MaxStepsExceeded(f"{_MAX_STEPS} steps did not reach t_end = {t_end:.6g}", t)

    record(t, state)
    snapshots.append(state)
    return RRFSRun(*np.array(rows).T, snapshots)


# ---------------------------------------------------------------------------
# smooth random fields and serialization


def _smooth_scalar(rng: np.random.Generator, grid: PeriodicGrid):
    """Random low-frequency periodic scalar field with unit-scale amplitude."""
    coords = [grid.axis_coords(a) for a in range(grid.n_base)]
    out = np.zeros(tuple(grid.sizes))
    for _ in range(_SMOOTH_MODES):
        phase = rng.uniform(0, 2 * np.pi, size=grid.n_base)
        ks = rng.integers(1, 4, size=grid.n_base)
        wave = reduce(np.multiply.outer, [np.cos(2 * np.pi * k * x / p + ph)
                                          for k, x, p, ph in zip(ks, coords, grid.period, phase)])
        out += rng.normal() * wave
    return out / _SMOOTH_MODES


def _expm_sym(S: np.ndarray) -> np.ndarray:
    """exp(S) per node of a symmetric component-major [i, j, *grid] field, by scaling
    and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 2005): S = mu I + X with
    mu = tr S / N, X halved s times (exactly) to a row-sum norm of at most 1/2, the
    degree-14 Taylor polynomial of X by Horner, s squarings, then e^mu.  Each node's
    value depends on its own S alone, N = 1 gives e^S, and N must be at least 1."""
    N = len(S)
    mu = sum(S[i, i] for i in range(N)) / N
    X = S.copy()
    for i in range(N):
        X[i, i] -= mu
    norm = reduce(np.maximum, [sum(map(np.abs, row)) for row in X])  # row-sum norm per node
    s = np.maximum(np.frexp(2.0 * norm)[1], 0)  # 2 norm < 2^s, so |X 2^-s| <= 1/2
    X = np.ldexp(X, -s)
    E = X / _TAYLOR_DEGREE  # Taylor remainder < eps / 9, and |exp X| >= 1 as tr X = 0
    for k in range(_TAYLOR_DEGREE - 1, -1, -1):
        for i in range(N):
            E[i, i] += 1.0
        if k:
            E = np.einsum("ik...,kj...->ij...", X, E)
            E /= k
    for r in range(int(s.max())):  # only the nodes halved more than r times square again
        E = np.where(s > r, np.einsum("ik...,kj...->ij...", E, E), E)
    return E * np.exp(mu)


def random_smooth_state(
    seed: int,
    grid: PeriodicGrid,
    n_fiber: int,
    amplitude: float = 0.3,
    perturb_g: bool = False,
    perturb_A: bool = False,
) -> RRFSState:
    """Seeded smooth periodic state: G = exp(symmetric Fourier field), flat-ish g.
    A state of more than ``ode._MAX_STATE_SIZE`` floats is refused before any field
    is allocated."""
    _check_finite("amplitude", amplitude)
    n_fiber = _count("n_fiber", n_fiber, 1, _MAX_SIZE)
    rng = np.random.default_rng(_count("seed", seed, 0, _MAX_SEED))
    n = grid.n_base
    size = math.prod(grid.sizes) * (n * n + n * n_fiber + n_fiber * n_fiber)
    if size > _MAX_STATE_SIZE:  # before the first field is allocated
        raise ValueError(f"grid {'x'.join(map(str, grid.sizes))} with fiber dimension "
                         f"{n_fiber} needs {size} floats per state, more than {_MAX_STATE_SIZE}")
    shape = tuple(grid.sizes)
    S = np.empty((n_fiber, n_fiber) + shape)
    with np.errstate(over="ignore", invalid="ignore"):  # RRFSState reports a non-finite G
        for i, j in zip(*np.triu_indices(n_fiber)):
            S[i, j] = S[j, i] = amplitude * _smooth_scalar(rng, grid)
        G = np.ascontiguousarray(_grid_first(_expm_sym(S), n))
    g = np.broadcast_to(np.eye(n), shape + (n, n)).copy()
    if perturb_g:
        for a, b in zip(*np.triu_indices(n)):
            g[..., a, b] += 0.2 * amplitude * _smooth_scalar(rng, grid)
            g[..., b, a] = g[..., a, b]
    A = np.zeros(shape + (n, n_fiber))
    if perturb_A:
        for a in range(n):
            for i in range(n_fiber):
                A[..., a, i] = amplitude * _smooth_scalar(rng, grid)
    return RRFSState(g, A, G)


def _write_table(path, header: str, rows: np.ndarray, delimiter: str):
    """Write a header line, then the 2D ``rows`` with floats at 17 significant
    digits.  The bytes are those of ``np.savetxt(path, rows, fmt="%.17g",
    delimiter=delimiter, header=header, comments="")``; one ``%`` operation
    formats ``_TABLE_BLOCK`` rows at a time."""
    row_fmt = delimiter.join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, len(rows), _TABLE_BLOCK):
            block = rows[start:start + _TABLE_BLOCK]
            fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


def save_snapshot(state: RRFSState, grid: PeriodicGrid, path):
    """Write a field snapshot as text: a header line, then one (g | A | G)
    row per node, floats at 17 significant digits.  A state that does not fit
    ``grid`` is refused before the file is opened."""
    _check_fits(state, grid)
    n, N = grid.n_base, state.n_fiber
    header = " ".join([str(n), str(N), *map(str, grid.sizes),
                       *(f"{p:.17g}" for p in grid.period)])
    rows = np.hstack([state.g.reshape(-1, n * n), state.A.reshape(-1, n * N),
                      state.G.reshape(-1, N * N)])
    _write_table(path, header, rows, " ")


def _read_table(fh, name: str, columns: int, delimiter=None) -> np.ndarray:
    """The rows of floats after the header line of the open text file ``fh``: at least
    one row, each of ``columns`` numbers.  Any other table is a ValueError that names
    ``name``; numpy's warning for a file with no rows becomes that refusal."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        try:
            rows = np.loadtxt(fh, delimiter=delimiter, ndmin=2)
        except UserWarning:
            raise ValueError(f"{name} holds no rows after its header") from None
        except ValueError as err:
            raise ValueError(f"{name}: {err}") from None
    if rows.shape[1] != columns:
        raise ValueError(f"{name} has rows of {rows.shape[1]} numbers, not {columns}")
    return rows


def load_snapshot(path) -> tuple[RRFSState, PeriodicGrid]:
    def named(make, *args):  # a type that refuses a value of the file names the file
        try:
            return make(*args)
        except ValueError as err:
            raise ValueError(f"snapshot {path}: {err}") from None

    with open(path) as fh:
        header = fh.readline()
        try:
            n, N, *axes = header.split()
            n, N = int(n), int(N)
            if n not in (1, 2) or N < 0 or len(axes) != 2 * n:
                raise ValueError
            sizes, period = tuple(map(int, axes[:n])), tuple(map(float, axes[n:]))
        except ValueError:
            raise ValueError(f"malformed snapshot header in {path}: {header.strip()!r}") from None
        grid = named(PeriodicGrid, sizes, period)
        data = _read_table(fh, f"snapshot {path}", n * n + n * N + N * N)
    n_nodes = int(np.prod(sizes))
    if len(data) != n_nodes:
        raise ValueError(f"snapshot {path} has {len(data)} node rows, not {n_nodes}")
    g = data[:, : n * n].reshape(sizes + (n, n))
    A = data[:, n * n : n * n + n * N].reshape(sizes + (n, N))
    G = data[:, n * n + n * N :].reshape(sizes + (N, N))
    return named(RRFSState, g, A, G), grid
