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
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .ode import NonFiniteState, rk4_step
from .spd import _christoffel_stacked, _sym, is_spd

KAPPA_CFL = 0.2
_SMOOTH_MODES = 3  # Fourier modes of each random scalar field


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


@dataclass(frozen=True)
class PeriodicGrid:
    sizes: tuple[int, ...]
    period: tuple[float, ...]

    def __post_init__(self):
        if not all(float(s).is_integer() for s in self.sizes):
            raise ValueError(f"grid sizes must be integers, got {self.sizes}")
        sizes = tuple(int(s) for s in self.sizes)
        period = tuple(float(p) for p in self.period)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "period", period)
        if len(sizes) not in (1, 2):
            raise ValueError("grid must be 1- or 2-dimensional")
        if len(period) != len(sizes):
            raise ValueError(f"{len(period)} periods given for {len(sizes)} grid axes")
        if any(s < 8 for s in sizes):
            raise ValueError("each axis needs at least 8 points")
        if not all(np.isfinite(p) and p > 0 for p in period):
            raise ValueError("periods must be positive and finite")

    @property
    def n_base(self) -> int:
        return len(self.sizes)

    @cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple(p / s for p, s in zip(self.period, self.sizes))

    def axis_coords(self, axis: int) -> np.ndarray:
        return np.arange(self.sizes[axis]) * self.spacing[axis]

    def coords(self) -> list[np.ndarray]:
        """Node coordinate arrays broadcast to the full grid shape."""
        axes = [self.axis_coords(a) for a in range(self.n_base)]
        return list(np.meshgrid(*axes, indexing="ij"))

    @cached_property
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
    """A checked base metric g with det g, sqrt(det g) and min-eig g; ``per_grid`` is
    None, or for a frozen g a dict per grid where its bundles keep g^-1, Gamma, gamma."""

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


@dataclass(frozen=True)
class RRFSState:
    g: np.ndarray  # (*sizes, n, n), or the _Metric of an already checked g
    A: np.ndarray  # (*sizes, n, N)
    G: np.ndarray  # (*sizes, N, N)

    def __post_init__(self):
        metric = self.g if isinstance(self.g, _Metric) else None
        g = metric.g if metric else _sym(np.asarray(self.g, dtype=float))
        A = np.asarray(self.A, dtype=float)
        if A.flags.writeable:  # the caller's A stays writable; a read-only A is shared
            A = A.copy()
        G = _sym(np.asarray(self.G, dtype=float))
        if G.shape[-1] < 1:
            raise ValueError("fiber dimension must be at least 1")
        if g.shape[-1] not in (1, 2):
            raise ValueError(f"base metric g must be 1x1 or 2x2 per node, got {g.shape[-2:]}")
        if A.shape != g.shape[:-1] + G.shape[-1:] or G.shape[:-2] != g.shape[:-2]:
            raise ValueError(f"fields of shapes {g.shape}, {A.shape}, {G.shape} do not fit")
        if not np.isfinite(A).all():
            raise SPDFieldError("connection A has non-finite entries")
        metric = metric or _Metric(g)
        _check_spd_field(G, "fiber metric G")
        object.__setattr__(self, "_metric", metric)
        object.__setattr__(self, "_g_min_eig", metric.min_eig)
        for name, arr in zip(("g", "A", "G", "_g_det", "_g_sqrt_det"),
                             (g, A, G, metric.det, metric.sqrt_det)):
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
        if not (np.isfinite(self.s0) and np.isfinite(self.c_coupling)):
            raise ValueError("rescaling s0 and c_coupling must be finite")


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
    return tuple(wrapped[lead + (slice(k, k + m),)] for k in (0, 1, 3, 4))


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


def _grid_last(fld: np.ndarray, n: int) -> np.ndarray:
    """Component-major view [<tensor axes>, *grid] of a node-major field."""
    return fld.transpose(*range(n, fld.ndim), *range(n))


def _grid_first(fld: np.ndarray, n: int) -> np.ndarray:
    """Node-major view [*grid, <tensor axes>] of a component-major field."""
    k = fld.ndim - n
    return fld.transpose(*range(k, fld.ndim), *range(k))


# ---------------------------------------------------------------------------
# geometry of one state


def _of_g(fn):  # a cached property of g alone, kept in the bundle's ``of_g`` dict
    return property(lambda self: self.of_g[fn.__name__] if fn.__name__ in self.of_g
                    else self.of_g.setdefault(fn.__name__, fn(self)))


class _Geometry:
    """Geometric quantities of one state, component-major, each computed once.

    The stencil is one ``d_central`` call per base axis on the stacked
    (g | A | G), one more on the stacked (Gamma | F | dG), and
    ``d2_central`` on G.  A base of dimension n <= 2 has one curvature
    component F = d_0 A_1 - d_1 A_0 with F_ab = eps_ab F, and every sum over
    dA, and the Ricci sum over c != b (its c = b terms cancel), runs over the
    ordered axis pairs (a, b, eps_ab): on a 1D base there are none and no F,
    so dA, delta dA and R are exactly 0 and cost nothing.  The bundles of a
    frozen g share ``of_g``, and once Gamma is known the stencil leaves g out.
    """

    def __init__(self, state: RRFSState, grid: PeriodicGrid):
        if state.g.shape != grid.sizes + (grid.n_base,) * 2:
            raise ValueError(f"state with g of shape {state.g.shape} does not fit "
                             f"grid {grid.sizes}")
        self.state, self.grid, self.n = state, grid, grid.n_base
        per_grid = state._metric.per_grid
        self.of_g = {} if per_grid is None else per_grid.setdefault(grid, {})
        # (a, b, eps_ab) with a != b; the pair at position e starts on axis e
        self.eps = [(a, b, 1.0 if a < b else -1.0)
                    for a in range(self.n) for b in range(self.n) if a != b]

    def _d(self, fields: list, axis: int) -> list:
        """d_central of each field along ``axis``, in one call on all their components."""
        rows = [f.reshape((-1,) + self.grid.sizes) for f in fields]
        stacked = np.concatenate(rows, out=np.empty((sum(map(len, rows)),) + self.grid.sizes))
        d = _grid_last(d_central(_grid_first(stacked, self.n), axis, self.grid), self.n)
        ends = np.cumsum([len(r) for r in rows])
        return [d[end - len(r):end].reshape(f.shape) for f, r, end in zip(fields, rows, ends)]

    @cached_property
    def first(self) -> dict:  # G [i, j], dg [d, a, b] (while Gamma is unknown), dA, dG
        fields = [_grid_last(f, self.n) for f in (self.state.g, self.state.A, self.state.G)]
        known = "christoffels" in self.of_g
        d = map(np.stack, zip(*(self._d(fields[known:], e) for e in range(self.n))))
        return {"G": np.ascontiguousarray(fields[2]), **dict(zip(("dg", "dA", "dG")[known:], d))}

    @cached_property
    def second(self) -> list:
        """Per pair (e, f): d_e Gamma^c_af [c, a], d_e F [i] and d_e d_a G [a, i, j] (a < e)."""
        return [self._d([self.christoffels[:, :, f], *self.F, self.first["dG"][:e]], e)
                for e, f, _ in self.eps]

    @_of_g
    def ginv(self) -> np.ndarray:  # [a, b] = adj(g)_ab / det g
        g = _grid_last(self.state.g, self.n)
        adj = np.negative(g, out=np.empty(g.shape))  # adj_ab = -g_ab off the diagonal (n <= 2)
        for a in range(self.n):
            adj[a, a] = math.prod(g[c, c] for c in range(self.n) if c != a)
        return np.divide(adj, self.state._g_det, out=adj)

    @cached_property
    def Ginv(self) -> np.ndarray:  # [i, j]
        return np.ascontiguousarray(_grid_last(np.linalg.inv(self.state.G), self.n))

    @_of_g
    def christoffels(self) -> np.ndarray:  # [c, a, b]
        dg = self.first["dg"]
        # T[d, a, b] = d_a g_db + d_b g_da - d_d g_ab
        T = dg.swapaxes(0, 1) + dg.transpose(1, 2, 0, *range(3, dg.ndim)) - dg
        return 0.5 * np.einsum("cd...,dab...->cab...", self.ginv, T)

    @_of_g
    def gamma(self) -> np.ndarray:  # [c] = g^{ab} Gamma^c_ab
        return np.einsum("ab...,cab...->c...", self.ginv, self.christoffels)

    @cached_property
    def F(self) -> list:  # [i] = d_0 A_1 - d_1 A_0: one field on a 2D base, none on a 1D one
        return [self.first["dA"][a, b] - self.first["dA"][b, a] for a, b, s in self.eps if s > 0]

    @cached_property
    def dA_sums(self) -> dict:
        """delta dA [a, i], |dA|^2 and the dA terms of the A and G equations."""
        n, N, gi, G = self.n, self.state.n_fiber, self.ginv, self.first["G"]
        out = {k: np.zeros(shape + self.grid.sizes) for k, shape in (
            ("delta", (n, N)), ("norm_sq", ()), ("A", (n, N)), ("G", (N, N)))}
        for F in self.F:  # g^{ac} g^{bd} F_cd = eps_ab F / det g gives |dA|^2 and the G term
            FG = np.einsum("i...,ij...->j...", F, G)
            out["norm_sq"] += 2.0 * np.einsum("j...,j...->...", FG, F) / self.state._g_det
            out["G"] -= FG[:, None] * FG / self.state._g_det
            dF = np.stack([dF_e for _, dF_e, _ in self.second])  # [d, i]
            for x, y, s in self.eps:
                # -g^{bc} (d_b F_ca - Gamma^m_bc F_ma - Gamma^m_ba F_cm) with (x, y)
                # read as (c, a), (m, a) and (c, m)
                dF_x = np.einsum("d...,di...->i...", gi[x], dF)
                out["delta"][y] += s * (self.gamma[x] * F - dF_x)
                Gam_yx = np.einsum("b...,ba...->a...", gi[x], self.christoffels[y])
                out["delta"] += s * Gam_yx[:, None] * F
                out["A"][y] += s * np.einsum("b...,bik...,k...->i...", gi[x], self.M, F)
        return out

    @cached_property
    def laplacian_G(self) -> np.ndarray:  # [i, j]
        # g^{ab} (d_a d_b G - Gamma^c_ab d_c G), each mixed derivative once
        n, gi, G = self.n, self.ginv, _grid_first(self.first["G"], self.n)
        out = -np.einsum("c...,cij...->ij...", self.gamma, self.first["dG"])
        for a in range(n):
            out += gi[a, a] * _grid_last(d2_central(G, a, a, self.grid), n)
        for e, (_, _, ddG) in enumerate(self.second):
            for a in range(e):  # each mixed derivative once
                out += 2.0 * gi[a, e] * ddG[a]
        return out

    @cached_property
    def M(self) -> np.ndarray:  # [a, i, j] = G^-1 d_a G
        return np.einsum("ik...,akj...->aij...", self.Ginv, self.first["dG"])

    @cached_property
    def grad_square(self) -> np.ndarray:  # [i, j] = g^{ab} d_a G G^-1 d_b G
        return np.einsum("aik...,ab...,bkj...->ij...", self.first["dG"], self.ginv, self.M)

    @cached_property
    def trace_MM(self) -> np.ndarray:  # [a, b] = tr(G^-1 d_a G G^-1 d_b G)
        return np.einsum("aij...,bji...->ab...", self.M, self.M)

    @cached_property
    def grad_G_norm_sq(self) -> np.ndarray:
        return np.einsum("ab...,ab...->...", self.ginv, self.trace_MM)

    @cached_property
    def scalar_curvature(self) -> np.ndarray:
        # g^{ab} Rc_ab, Rc_ab = sum over c != b of
        # d_c Gamma^c_ab - d_b Gamma^c_ac + Gamma^c_cd Gamma^d_ab - Gamma^c_bd Gamma^d_ac
        gi, Gam, out = self.ginv, self.christoffels, np.zeros(self.grid.sizes)
        for c, b, _ in self.eps:
            dGam = self.second[c][0][c] - self.second[b][0][c]
            out += np.einsum("a...,a...->...", gi[b], dGam)
            out += np.einsum("d...,a...,da...->...", Gam[c, c], gi[b], Gam[:, :, b])
            out -= np.einsum("d...,a...,da...->...", Gam[c, b], gi[b], Gam[:, :, c])
        return out

    @cached_property
    def volume(self) -> float:
        return float(self.state._g_sqrt_det.sum() * self.grid.cell_volume)

    @cached_property
    def energy(self) -> float:
        w = self.state._g_sqrt_det
        return float(0.5 * (self.grad_G_norm_sq * w).sum() * self.grid.cell_volume)

    @cached_property
    def s_volume(self) -> float:
        w = self.state._g_sqrt_det
        r = self.scalar_curvature - 0.25 * self.grad_G_norm_sq - 0.5 * self.dA_sums["norm_sq"]
        return float(-(2.0 / self.grid.n_base) * (r * w).sum() / w.sum())

    def s(self, spec: RescalingSpec) -> float:
        """The rescaling value that ``spec`` prescribes at this state."""
        if spec.mode == "off":
            return 0.0
        return spec.s0 if spec.mode == "constant" else self.s_volume


def christoffels_of_g(state: RRFSState, grid: PeriodicGrid) -> np.ndarray:
    """Christoffel symbols of g, indexed [..., c, a, b] for Gamma^c_ab."""
    return _grid_first(_Geometry(state, grid).christoffels, grid.n_base)


def dA_field(state: RRFSState, grid: PeriodicGrid) -> np.ndarray:
    """Curvature 2-form of the connection, [..., a, b, i] antisymmetric in (a, b)."""
    geo = _Geometry(state, grid)
    F = np.zeros((geo.n, geo.n, state.n_fiber) + grid.sizes)
    for a, b, s in geo.eps:
        F[a, b] = s * geo.F[0]
    return _grid_first(F, geo.n)


def delta_dA(state: RRFSState, grid: PeriodicGrid) -> np.ndarray:
    """Codifferential of dA: -g^{bc} (cov d)_b (dA)_{c a}^i, shape [..., a, i]."""
    return _grid_first(_Geometry(state, grid).dA_sums["delta"], grid.n_base)


def laplacian_G(state: RRFSState, grid: PeriodicGrid) -> np.ndarray:
    """Base-metric Laplacian of G: g^{ab} (d_a d_b G - Gamma^c_ab d_c G)."""
    return _grid_first(_Geometry(state, grid).laplacian_G, grid.n_base)


def tension_G_simplified(state: RRFSState, grid: PeriodicGrid) -> np.ndarray:
    """Tension field in divergence form: Laplacian minus the gradient square."""
    geo = _Geometry(state, grid)
    return _grid_first(geo.laplacian_G - geo.grad_square, geo.n)


def tension_G_general(state: RRFSState, grid: PeriodicGrid) -> np.ndarray:
    """Tension field built from the target-manifold connection.

    g^{ab} (d_a d_b G - Gamma^c_ab d_c G + Gamma_target(d_a G, d_b G)) with
    Gamma_target(X, Y) = -1/2 (X G^-1 Y + Y G^-1 X).  Agrees with the
    divergence form identically; both share the same discrete derivatives.
    """
    geo = _Geometry(state, grid)
    ginv, Ginv, dG = (_grid_first(f, geo.n) for f in (geo.ginv, geo.Ginv, geo.first["dG"]))
    gamma = _christoffel_stacked(Ginv[..., None, None, :, :], dG[..., :, None, :, :],
                                 dG[..., None, :, :, :])  # [..., a, b, i, j]
    return _grid_first(geo.laplacian_G, geo.n) + np.einsum("...ab,...abij->...ij", ginv, gamma)


def grad_G_norm_sq(state: RRFSState, grid: PeriodicGrid) -> np.ndarray:
    """|grad G|^2 = g^{ab} tr(G^-1 d_a G G^-1 d_b G) per node."""
    return _Geometry(state, grid).grad_G_norm_sq


def dA_norm_sq(state: RRFSState, grid: PeriodicGrid) -> np.ndarray:
    """|dA|^2 = g^{ac} g^{bd} G_ij (dA)^i_ab (dA)^j_cd per node."""
    return _Geometry(state, grid).dA_sums["norm_sq"]


def volume(state: RRFSState, grid: PeriodicGrid) -> float:
    """Discrete base volume, integral of sqrt(det g)."""
    return _Geometry(state, grid).volume


def energy_G(state: RRFSState, grid: PeriodicGrid) -> float:
    """Discrete map energy: 1/2 integral of |grad G|^2 with weight sqrt(det g)."""
    return _Geometry(state, grid).energy


def scalar_curvature(state: RRFSState, grid: PeriodicGrid) -> np.ndarray:
    """Scalar curvature of g per node; identically zero on a 1D base."""
    return _Geometry(state, grid).scalar_curvature


def s_volume(state: RRFSState, grid: PeriodicGrid) -> float:
    """Volume-normalizing rescaling: -(2/n) times the sqrt(det g)-weighted
    mean of r = R - 1/4 |grad G|^2 - 1/2 |dA|^2."""
    return _Geometry(state, grid).s_volume


def rrfs_rhs_terms(
    state: RRFSState, grid: PeriodicGrid, spec: RescalingSpec, *, geometry=None
) -> dict[str, np.ndarray | float]:
    """Term-by-term decomposition of the flow's right-hand side.

    The Ricci term is -2 Rc = -R g and the dA term of g is 1/2 |dA|^2 g,
    which hold on the 1D and 2D bases the grid allows (Rc = 0 and dA = 0 in
    1D; in 2D, Rc = (R/2) g and eps g^-1 eps^T = g / det g).  ``geometry``
    is a fresh ``_Geometry`` of ``state`` to fill in place of a new one;
    ``integrate_rrfs`` passes it at stage 1 to read the diagnostics of the
    state afterwards.
    """
    geo = _Geometry(state, grid) if geometry is None else geometry
    g, A, G, n = state.g, state.A, state.G, geo.n
    s = geo.s(spec)
    c = spec.c_coupling
    return {
        "s": s,
        "g_ricci": -geo.scalar_curvature[..., None, None] * g,
        "g_gradG": 0.5 * _grid_first(geo.trace_MM, n),
        "g_dA": 0.5 * geo.dA_sums["norm_sq"][..., None, None] * g,
        "g_rescale": -s * g,
        "A_codiff": -_grid_first(geo.dA_sums["delta"], n),
        "A_gradG": _grid_first(geo.dA_sums["A"], n),
        "A_rescale": -0.5 * (1.0 + c) * s * A,
        "G_laplace": _grid_first(geo.laplacian_G, n),
        "G_gradsq": -_grid_first(geo.grad_square, n),
        "G_dA": _grid_first(geo.dA_sums["G"], n),
        "G_rescale": c * s * G,
    }


def rrfs_rhs(
    state: RRFSState, grid: PeriodicGrid, spec: RescalingSpec, *, geometry=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Right-hand side (dg/dt, dA/dt, dG/dt) of the rescaled flow system."""
    T = rrfs_rhs_terms(state, grid, spec, geometry=geometry)
    dg = T["g_ricci"] + T["g_gradG"] + T["g_dA"] + T["g_rescale"]
    dA = T["A_codiff"] + T["A_gradG"] + T["A_rescale"]
    dG = T["G_laplace"] + T["G_gradsq"] + T["G_dA"] + T["G_rescale"]
    return _sym(dg), dA, _sym(dG)


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
    -only mode is g frozen, A frozen).  The steps run through
    ``ode.rk4_step`` on the evolving fields packed into one flat array.  Every
    state shares the frozen fields, and a frozen g its checked ``_Metric``.

    Stage 1 runs once per accepted state, and its k1 serves every halving.
    The energy, volume and s of each accepted state but the last come from
    the ``_Geometry`` of that ``rrfs_rhs``; the final state builds its own.
    """
    if not (np.isfinite(t_end) and t_end > 0):
        raise ValueError(f"t_end must be a positive finite number, got {t_end!r}")
    if not (np.isfinite(kappa_cfl) and kappa_cfl > 0):
        raise ValueError(f"kappa_cfl must be a positive finite number, got {kappa_cfl!r}")
    h_min = min(grid.spacing)
    snap_req = np.linspace(0.0, t_end, max(n_snapshots, 2))
    if not evolve_g and state0._metric.per_grid is None:  # a memo: g is read-only
        state0._metric.per_grid = {}
    fixed = {"g": state0._metric, "A": state0.A}  # unpack overrides the moving ones
    moving = [key for key, keep in zip("gAG", (evolve_g, evolve_A, True)) if keep]
    ends = np.cumsum([getattr(state0, key).size for key in moving])

    def unpack(y) -> RRFSState:
        y.setflags(write=False)  # ours alone: read-only, so RRFSState shares A, not copies it
        return RRFSState(**dict(fixed, **{key: p.reshape(getattr(state0, key).shape)
                                          for key, p in zip(moving, np.split(y, ends[:-1]))}))

    def rhs_flat(st, **kwargs):
        k = dict(zip("gAG", rrfs_rhs(st, grid, spec, **kwargs)))
        return np.concatenate([k[key].ravel() for key in moving])

    def stage(t, y):  # the RK4 right-hand side; k1 is computed once per accepted state
        return k1 if y is y_state else rhs_flat(unpack(y))

    rows = []  # (t, energy, volume, s) at each accepted state

    t = 0.0
    state = state0
    snapshots = [state0]
    next_snap = 1

    while t < t_end * (1 - 1e-12):
        dt_cfl = kappa_cfl * h_min * h_min * state._g_min_eig
        if dt_cfl <= 0 or not np.isfinite(dt_cfl):
            raise CFLCollapse(f"CFL step collapsed at t = {t:.6g}")
        dt = min(dt_cfl, t_end - t)
        y_state = np.concatenate([getattr(state, key).ravel() for key in moving])
        geo = _Geometry(state, grid)
        k1 = rhs_flat(state, geometry=geo)  # stage 1, at a state that is already checked
        rows.append((t, geo.energy, geo.volume, geo.s(spec)))
        del geo  # no bundle outlives its stage
        rejections = 0
        while True:
            try:
                new_state = unpack(rk4_step(stage, t, y_state, dt))
                break
            except (SPDFieldError, NonFiniteState) as err:
                rejections += 1
                if rejections > 50:
                    raise SPDFieldError("SPD structure lost after 50 step halvings",
                                        node=getattr(err, "node", None), t=t) from err
                dt *= 0.5
        t += dt
        state = new_state
        while next_snap < len(snap_req) - 1 and t >= snap_req[next_snap]:
            snapshots.append(state)
            next_snap += 1

    geo = _Geometry(state, grid)
    rows.append((t, geo.energy, geo.volume, geo.s(spec)))
    snapshots.append(state)
    return RRFSRun(*np.array(rows).T, snapshots)


# ---------------------------------------------------------------------------
# smooth random fields and serialization


def _smooth_scalar(rng: np.random.Generator, grid: PeriodicGrid):
    """Random low-frequency periodic scalar field with unit-scale amplitude."""
    coords = grid.coords()
    out = np.zeros(tuple(grid.sizes))
    for _ in range(_SMOOTH_MODES):
        phase = rng.uniform(0, 2 * np.pi, size=grid.n_base)
        ks = rng.integers(1, 4, size=grid.n_base)
        wave = np.prod([np.cos(2 * np.pi * k * x / p + ph)
                        for k, x, p, ph in zip(ks, coords, grid.period, phase)], axis=0)
        out += rng.normal() * wave
    return out / _SMOOTH_MODES


def _expm_sym(S: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(_sym(S))
    return np.einsum("...ik,...k,...jk->...ij", v, np.exp(w), v)


def random_smooth_state(
    seed: int,
    grid: PeriodicGrid,
    n_fiber: int,
    amplitude: float = 0.3,
    perturb_g: bool = False,
    perturb_A: bool = False,
) -> RRFSState:
    """Seeded smooth periodic state: G = exp(symmetric Fourier field), flat-ish g."""
    if not np.isfinite(amplitude):
        raise ValueError(f"amplitude must be finite, got {amplitude!r}")
    rng = np.random.default_rng(seed)
    n = grid.n_base
    shape = tuple(grid.sizes)
    S = np.zeros(shape + (n_fiber, n_fiber))
    for i, j in zip(*np.triu_indices(n_fiber)):
        S[..., i, j] = S[..., j, i] = amplitude * _smooth_scalar(rng, grid)
    G = _expm_sym(S)
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


def save_snapshot(state: RRFSState, grid: PeriodicGrid, path):
    """Write a field snapshot as text: a header line, then one (g | A | G)
    row per node, floats at 17 significant digits."""
    n, N = grid.n_base, state.n_fiber
    header = " ".join([str(n), str(N), *map(str, grid.sizes),
                       *(f"{p:.17g}" for p in grid.period)])
    rows = np.hstack([state.g.reshape(-1, n * n), state.A.reshape(-1, n * N),
                      state.G.reshape(-1, N * N)])
    np.savetxt(path, rows, fmt="%.17g", header=header, comments="")


def load_snapshot(path) -> tuple[RRFSState, PeriodicGrid]:
    with open(path) as fh:
        header = fh.readline().split()
        n = int(header[0]) if header and header[0].isdigit() else 0
        if n not in (1, 2) or len(header) != 2 + 2 * n:
            raise ValueError(f"malformed snapshot header in {path}")
        N = int(header[1])
        sizes = tuple(int(x) for x in header[2 : 2 + n])
        period = tuple(float(x) for x in header[2 + n : 2 + 2 * n])
        grid = PeriodicGrid(sizes, period)
        data = np.loadtxt(fh, ndmin=2)
    n_nodes = int(np.prod(sizes))
    if data.shape != (n_nodes, n * n + n * N + N * N):
        raise ValueError("snapshot node data has wrong shape")
    g = data[:, : n * n].reshape(sizes + (n, n))
    A = data[:, n * n : n * n + n * N].reshape(sizes + (n, N))
    G = data[:, n * n + n * N :].reshape(sizes + (N, N))
    return RRFSState(g, A, G), grid
