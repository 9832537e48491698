"""Method-of-lines solver for the rescaled invariant-metric flow system.

State is a triple of periodic node fields on a flat torus base (1D or 2D):
a base metric ``g`` (n x n SPD per node), a connection ``A`` (n x N per
node) and a fiber metric ``G`` (N x N SPD per node).  Spatial derivatives
are 4th-order central differences with periodic wraparound; time stepping
is explicit RK4 under a diffusive CFL cap with an SPD positivity guard.

Index conventions for derivative stacks: the grid axes come first, then
``[d, ...]`` for the derivative direction, e.g. ``dg[..., d, a, b]`` is
the d-derivative of ``g_ab``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ode import NonFiniteState, ODESystem, rk4_step

KAPPA_CFL = 0.2


class SPDFieldError(RuntimeError):
    """SPD structure lost at some node; carries node index and time."""

    def __init__(self, message, node=None, t=None):
        extra = ""
        if node is not None:
            extra += f" at node {node}"
        if t is not None:
            extra += f" at t = {t:.6g}"
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
        sizes = tuple(int(s) for s in self.sizes)
        period = tuple(float(p) for p in self.period)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "period", period)
        if len(sizes) not in (1, 2) or len(period) != len(sizes):
            raise ValueError("grid must be 1- or 2-dimensional")
        if any(s < 8 for s in sizes):
            raise ValueError("each axis needs at least 8 points")
        if any(p <= 0 for p in period):
            raise ValueError("periods must be positive")

    @property
    def n_base(self) -> int:
        return len(self.sizes)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(p / s for p, s in zip(self.period, self.sizes))

    def axis_coords(self, axis: int) -> np.ndarray:
        return np.arange(self.sizes[axis]) * self.spacing[axis]

    def coords(self) -> list[np.ndarray]:
        """Node coordinate arrays broadcast to the full grid shape."""
        axes = [self.axis_coords(a) for a in range(self.n_base)]
        return list(np.meshgrid(*axes, indexing="ij"))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def _check_spd_field(fld: np.ndarray, what: str) -> float:
    """Raise SPDFieldError unless every node is SPD; return the smallest eigenvalue."""
    if not np.all(np.isfinite(fld)):
        raise SPDFieldError(f"{what} has non-finite entries")
    w = np.linalg.eigvalsh(fld)[..., 0]
    if np.any(w <= 0):
        node = tuple(int(i) for i in np.argwhere(w <= 0)[0])
        raise SPDFieldError(f"{what} is not positive definite", node=node)
    return float(w.min())


@dataclass(frozen=True)
class RRFSState:
    g: np.ndarray  # (*sizes, n, n)
    A: np.ndarray  # (*sizes, n, N)
    G: np.ndarray  # (*sizes, N, N)

    def __post_init__(self):
        g = _sym(np.asarray(self.g, dtype=float))
        A = np.asarray(self.A, dtype=float)
        G = _sym(np.asarray(self.G, dtype=float))
        if G.shape[-1] < 1:
            raise ValueError("fiber dimension must be at least 1")
        # smallest eigenvalue of g, read by the CFL step of integrate_rrfs
        object.__setattr__(self, "_g_min_eig", _check_spd_field(g, "base metric g"))
        _check_spd_field(G, "fiber metric G")
        for name, arr in (("g", g), ("A", A), ("G", G)):
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)

    @property
    def n_base(self) -> int:
        return self.g.shape[-1]

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
    """4th-order periodic central first derivative along a base axis."""
    fm2, fm1, fp1, fp2 = _neighbours(fld, axis, grid)
    return (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * grid.spacing[axis])


def d2_central(fld: np.ndarray, axis1: int, axis2: int, grid: PeriodicGrid) -> np.ndarray:
    """4th-order periodic second derivative (pure or mixed)."""
    if axis1 != axis2:
        return d_central(d_central(fld, axis1, grid), axis2, grid)
    fm2, fm1, fp1, fp2 = _neighbours(fld, axis1, grid)
    h = grid.spacing[axis1]
    return (-fp2 + 16.0 * fp1 - 30.0 * fld + 16.0 * fm1 - fm2) / (12.0 * h * h)


def _grad(fld: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Stack of first derivatives, new axis [..., d, <tensor axes>]."""
    n = grid.n_base
    return np.stack([d_central(fld, a, grid) for a in range(n)], axis=n)


def _hess(fld: np.ndarray, dfld: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Second derivatives [..., a, b, <tensor axes>]; mixed ones differentiate
    the first-derivative stack ``dfld``."""
    n = grid.n_base
    lead = (slice(None),) * n
    rows = [
        [d2_central(fld, a, a, grid) if a == b else d_central(dfld[lead + (a,)], b, grid)
         for b in range(n)]
        for a in range(n)
    ]
    return np.stack([np.stack(row, axis=n) for row in rows], axis=n)


# ---------------------------------------------------------------------------
# geometry of one state


class _Geometry:
    """Geometric quantities of one state, each computed once on first use.

    The public functions below read one attribute each.  The formulas hold
    on a 1D and a 2D base alike; on a 1D base dA and R come out exactly 0.
    """

    def __init__(self, state: RRFSState, grid: PeriodicGrid):
        self.state = state
        self.grid = grid

    @cached_property
    def ginv(self) -> np.ndarray:
        return np.linalg.inv(self.state.g)

    @cached_property
    def Ginv(self) -> np.ndarray:
        return np.linalg.inv(self.state.G)

    @cached_property
    def dG(self) -> np.ndarray:  # [..., d, i, j]
        return _grad(self.state.G, self.grid)

    @cached_property
    def christoffels(self) -> np.ndarray:  # [..., c, a, b]
        dg = _grad(self.state.g, self.grid)  # [..., d, a, b]
        return 0.5 * np.einsum(
            "...cd,...dab->...cab",
            self.ginv,
            np.moveaxis(dg, -1, -3) + np.swapaxes(dg, -1, -3) - dg,
        )

    @cached_property
    def F(self) -> np.ndarray:  # [..., a, b, i]
        dA = _grad(self.state.A, self.grid)  # [..., d, a, i]
        return dA - np.swapaxes(dA, -3, -2)

    @cached_property
    def delta_dA(self) -> np.ndarray:  # [..., a, i]
        F, Gam = self.F, self.christoffels
        covF = (
            _grad(F, self.grid)  # [..., b, c, a, i]
            - np.einsum("...mbc,...mai->...bcai", Gam, F)
            - np.einsum("...mba,...cmi->...bcai", Gam, F)
        )
        return -np.einsum("...bc,...bcai->...ai", self.ginv, covF)

    @cached_property
    def laplacian_G(self) -> np.ndarray:
        hessG = _hess(self.state.G, self.dG, self.grid)  # [..., a, b, i, j]
        covhess = hessG - np.einsum("...cab,...cij->...abij", self.christoffels, self.dG)
        return np.einsum("...ab,...abij->...ij", self.ginv, covhess)

    @cached_property
    def M(self) -> np.ndarray:  # [..., a, i, j]
        """G^-1 d_a G."""
        return self.Ginv[..., None, :, :] @ self.dG

    @cached_property
    def M_sharp(self) -> np.ndarray:  # [..., a, i, j]
        """g^{ab} M_b."""
        return np.einsum("...ab,...bij->...aij", self.ginv, self.M)

    @cached_property
    def F_up(self) -> np.ndarray:  # [..., a, b, i]
        """g^{bd} F_ad, the curvature form with its second index raised."""
        return self.ginv[..., None, :, :] @ self.F

    @cached_property
    def F_sharp(self) -> np.ndarray:  # [..., a, b, i]
        """g^{ac} g^{bd} F_cd."""
        return np.einsum("...ac,...cbi->...abi", self.ginv, self.F_up)

    @cached_property
    def FG(self) -> np.ndarray:  # [..., a, b, j]
        """F_ab^i G_ij."""
        return self.F @ self.state.G[..., None, :, :]

    @cached_property
    def grad_square(self) -> np.ndarray:
        """g^{ab} (d_a G  G^-1  d_b G), the gradient-square matrix field."""
        return (self.dG @ self.M_sharp).sum(axis=-3)

    @cached_property
    def trace_MM(self) -> np.ndarray:
        """tr(G^-1 d_a G  G^-1 d_b G) as a field [..., a, b]."""
        return np.einsum("...aij,...bji->...ab", self.M, self.M)

    @cached_property
    def grad_G_norm_sq(self) -> np.ndarray:
        return np.einsum("...ab,...ab->...", self.ginv, self.trace_MM)

    @cached_property
    def dA_norm_sq(self) -> np.ndarray:
        return np.einsum("...abj,...abj->...", self.FG, self.F_sharp)

    @cached_property
    def scalar_curvature(self) -> np.ndarray:
        Gam = self.christoffels  # [..., c, a, b]
        dGam = _grad(Gam, self.grid)  # [..., d, c, a, b]
        ricci = (
            np.einsum("...ccab->...ab", dGam)
            - np.einsum("...bcac->...ab", dGam)
            + np.einsum("...ccd,...dab->...ab", Gam, Gam)
            - np.einsum("...cbd,...dac->...ab", Gam, Gam)
        )
        return np.einsum("...ab,...ab->...", self.ginv, ricci)

    @cached_property
    def sqrt_det_g(self) -> np.ndarray:
        return np.sqrt(np.linalg.det(self.state.g))

    @cached_property
    def volume(self) -> float:
        return float(self.sqrt_det_g.sum() * self.grid.cell_volume)

    @cached_property
    def energy(self) -> float:
        w = self.sqrt_det_g
        return float(0.5 * (self.grad_G_norm_sq * w).sum() * self.grid.cell_volume)

    @cached_property
    def s_volume(self) -> float:
        w = self.sqrt_det_g
        r = self.scalar_curvature - 0.25 * self.grad_G_norm_sq - 0.5 * self.dA_norm_sq
        return float(-(2.0 / self.grid.n_base) * (r * w).sum() / w.sum())

    def s(self, spec: RescalingSpec) -> float:
        """The rescaling value that ``spec`` prescribes at this state."""
        if spec.mode == "off":
            return 0.0
        if spec.mode == "constant":
            return spec.s0
        return self.s_volume


def christoffels_of_g(state: RRFSState, grid: PeriodicGrid) -> np.ndarray:
    """Christoffel symbols of g, indexed [..., c, a, b] for Gamma^c_ab."""
    return _Geometry(state, grid).christoffels


def dA_field(state: RRFSState, grid: PeriodicGrid) -> np.ndarray:
    """Curvature 2-form of the connection, [..., a, b, i] antisymmetric in (a, b)."""
    return _Geometry(state, grid).F


def delta_dA(state: RRFSState, grid: PeriodicGrid) -> np.ndarray:
    """Codifferential of dA: -g^{bc} (cov d)_b (dA)_{c a}^i, shape [..., a, i]."""
    return _Geometry(state, grid).delta_dA


def laplacian_G(state: RRFSState, grid: PeriodicGrid) -> np.ndarray:
    """Base-metric Laplacian of G: g^{ab} (d_a d_b G - Gamma^c_ab d_c G)."""
    return _Geometry(state, grid).laplacian_G


def tension_G_simplified(state: RRFSState, grid: PeriodicGrid) -> np.ndarray:
    """Tension field in divergence form: Laplacian minus the gradient square."""
    geo = _Geometry(state, grid)
    return geo.laplacian_G - geo.grad_square


def tension_G_general(state: RRFSState, grid: PeriodicGrid) -> np.ndarray:
    """Tension field built from the target-manifold connection.

    g^{ab} (d_a d_b G - Gamma^c_ab d_c G + Gamma_target(d_a G, d_b G)) with
    Gamma_target(X, Y) = -1/2 (X G^-1 Y + Y G^-1 X).  Agrees with the
    divergence form identically; both share the same discrete derivatives.
    """
    geo = _Geometry(state, grid)
    XGY = np.einsum("...aik,...kl,...blj->...abij", geo.dG, geo.Ginv, geo.dG)
    gamma = -0.5 * (XGY + np.swapaxes(XGY, -1, -2))
    return geo.laplacian_G + np.einsum("...ab,...abij->...ij", geo.ginv, gamma)


def grad_G_norm_sq(state: RRFSState, grid: PeriodicGrid) -> np.ndarray:
    """|grad G|^2 = g^{ab} tr(G^-1 d_a G G^-1 d_b G) per node."""
    return _Geometry(state, grid).grad_G_norm_sq


def dA_norm_sq(state: RRFSState, grid: PeriodicGrid) -> np.ndarray:
    """|dA|^2 = g^{ac} g^{bd} G_ij (dA)^i_ab (dA)^j_cd per node."""
    return _Geometry(state, grid).dA_norm_sq


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
    state: RRFSState, grid: PeriodicGrid, spec: RescalingSpec
) -> dict[str, np.ndarray | float]:
    """Term-by-term decomposition of the flow's right-hand side.

    The Ricci term is -2 Rc = -R g, which holds on the 1D and 2D bases the
    grid allows (Rc = 0 in 1D, Rc = (R/2) g in 2D).
    """
    geo = _Geometry(state, grid)
    g, A, G = state.g, state.A, state.G
    s = geo.s(spec)
    c = spec.c_coupling
    return {
        "s": s,
        "g_ricci": -geo.scalar_curvature[..., None, None] * g,
        "g_gradG": 0.5 * geo.trace_MM,
        "g_dA": np.einsum("...acj,...bcj->...ab", geo.FG, geo.F_up),
        "g_rescale": -s * g,
        "A_codiff": -geo.delta_dA,
        "A_gradG": np.einsum("...bik,...bak->...ai", geo.M_sharp, geo.F),
        "A_rescale": -0.5 * (1.0 + c) * s * A,
        "G_laplace": geo.laplacian_G,
        "G_gradsq": -geo.grad_square,
        "G_dA": -0.5 * np.einsum("...abi,...abj->...ij", geo.FG, geo.F_sharp) @ G,
        "G_rescale": c * s * G,
    }


def rrfs_rhs(
    state: RRFSState, grid: PeriodicGrid, spec: RescalingSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Right-hand side (dg/dt, dA/dt, dG/dt) of the rescaled flow system."""
    T = rrfs_rhs_terms(state, grid, spec)
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
    snapshot_times: list
    snapshots: list  # RRFSState at the snapshot times
    final_state: RRFSState


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
    ``ode.rk4_step`` on the fields packed into one flat array.
    """
    h_min = min(grid.spacing)
    snap_req = np.linspace(0.0, t_end, max(n_snapshots, 2))
    shapes = [state0.g.shape, state0.A.shape, state0.G.shape]
    ends = np.cumsum([state0.g.size, state0.A.size, state0.G.size])
    frozen = [slice(lo, hi) for lo, hi, keep in
              zip([0, *ends[:-1]], ends, (evolve_g, evolve_A, True)) if not keep]

    def unpack(y) -> RRFSState:
        return RRFSState(*(p.reshape(s) for p, s in zip(np.split(y, ends[:-1]), shapes)))

    def rhs_flat(t, y):
        # stage 1 is evaluated at the accepted state, which is already checked
        st = state if y is y_state else unpack(y)
        k = np.concatenate([f.ravel() for f in rrfs_rhs(st, grid, spec)])
        for sl in frozen:
            k[sl] = 0.0
        return k

    system = ODESystem(dimension=int(ends[-1]), rhs=rhs_flat)
    rows = []  # (t, energy, volume, s) at each accepted state

    def record(t, st):
        geo = _Geometry(st, grid)
        rows.append((t, geo.energy, geo.volume, geo.s(spec)))

    t = 0.0
    state = state0
    record(t, state)
    snapshots = [state0]
    snapshot_times = [0.0]
    next_snap = 1

    while t < t_end * (1 - 1e-12):
        dt_cfl = kappa_cfl * h_min * h_min * state._g_min_eig
        if dt_cfl <= 0 or not np.isfinite(dt_cfl):
            raise CFLCollapse(f"CFL step collapsed at t = {t:.6g}")
        dt = min(dt_cfl, t_end - t)
        y_state = np.concatenate([state.g.ravel(), state.A.ravel(), state.G.ravel()])
        rejections = 0
        while True:
            try:
                new_state = unpack(rk4_step(system, t, y_state, dt))
                break
            except (SPDFieldError, NonFiniteState) as err:
                rejections += 1
                if rejections > 50:
                    raise SPDFieldError(
                        "SPD structure lost after 50 step halvings",
                        node=getattr(err, "node", None),
                        t=t,
                    ) from err
                dt *= 0.5
        t += dt
        state = new_state
        record(t, state)
        while next_snap < len(snap_req) - 1 and t >= snap_req[next_snap]:
            snapshots.append(state)
            snapshot_times.append(t)
            next_snap += 1

    snapshots.append(state)
    snapshot_times.append(t)
    times, energies, volumes, s_values = np.array(rows).T
    return RRFSRun(
        step_times=times,
        energies=energies,
        volumes=volumes,
        s_values=s_values,
        snapshot_times=snapshot_times,
        snapshots=snapshots,
        final_state=state,
    )


# ---------------------------------------------------------------------------
# smooth random fields and serialization


def _smooth_scalar(rng: np.random.Generator, grid: PeriodicGrid, n_modes: int = 3):
    """Random low-frequency periodic scalar field with unit-scale amplitude."""
    coords = grid.coords()
    out = np.zeros(tuple(grid.sizes))
    for _ in range(n_modes):
        phase = rng.uniform(0, 2 * np.pi, size=grid.n_base)
        ks = rng.integers(1, 4, size=grid.n_base)
        wave = np.ones_like(out)
        for ax in range(grid.n_base):
            wave = wave * np.cos(
                2 * np.pi * ks[ax] * coords[ax] / grid.period[ax] + phase[ax]
            )
        out += rng.normal() * wave
    return out / max(n_modes, 1)


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
    rng = np.random.default_rng(seed)
    n = grid.n_base
    shape = tuple(grid.sizes)
    S = np.zeros(shape + (n_fiber, n_fiber))
    for i in range(n_fiber):
        for j in range(i, n_fiber):
            f = amplitude * _smooth_scalar(rng, grid)
            S[..., i, j] += f
            if i != j:
                S[..., j, i] += f
    G = _expm_sym(S)
    g = np.broadcast_to(np.eye(n), shape + (n, n)).copy()
    if perturb_g:
        for a in range(n):
            for b in range(a, n):
                f = 0.2 * amplitude * _smooth_scalar(rng, grid)
                g[..., a, b] += f
                if a != b:
                    g[..., b, a] += f
    A = np.zeros(shape + (n, n_fiber))
    if perturb_A:
        for a in range(n):
            for i in range(n_fiber):
                A[..., a, i] = amplitude * _smooth_scalar(rng, grid)
    return RRFSState(g, A, G)


def save_snapshot(state: RRFSState, grid: PeriodicGrid, path):
    """Write a field snapshot as text; floats at 17 significant digits."""
    n = grid.n_base
    N = state.n_fiber
    with open(path, "w") as fh:
        sizes = " ".join(str(s) for s in grid.sizes)
        periods = " ".join(f"{p:.17g}" for p in grid.period)
        fh.write(f"{n} {N} {sizes} {periods}\n")
        g2 = state.g.reshape(-1, n * n)
        A2 = state.A.reshape(-1, n * N)
        G2 = state.G.reshape(-1, N * N)
        for row in range(g2.shape[0]):
            vals = np.concatenate([g2[row], A2[row], G2[row]])
            fh.write(" ".join(f"{v:.17g}" for v in vals) + "\n")


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
