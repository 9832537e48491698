"""Exact symmetries of the grid flow, checked on one ``rrfs_rhs`` call and on whole runs.

A change of fiber basis P in GL(N) acts by G -> P^T G P and A -> A P^-T.  The
flow is equivariant under it: g' is unchanged, A' -> A' P^-T and G' -> P^T G' P.
It pins the route by which the right-hand side forms G^-1.

The lattice maps of the torus act on the nodes and on the base indices: a node
shift, a reflection x^e -> -x^e (node j -> -j, and each component with an odd
number of e indices changes sign) and, on a square grid, the swap of the two
axes.  A signed fiber permutation acts on the fiber indices, G_ij -> s_i s_j
G_p(i)p(j) and A_ai -> s_i A_ap(i).  Each maps a state's right-hand side, and
its run, to those of the image state.  A shift, a reflection or fiber signs
alone move values and flip signs, so each node's arithmetic is the same:
bitwise in mode off, while in volume mode s_volume sums the nodes in another
order.  A fiber permutation or the axis swap also reorders the sums over fiber
or base indices, and the LAPACK inverse pivots on other entries.

The Nil3 flow at slope a = 0, A' = C/B, B' = C/A, C' = -C^2/(AB), is symmetric in
A and B, whatever the coupling.  So is each adaptive step: its error norm adds the
squared errors of A, B and C in that order, and a + b = b + a.  Swapping A0 and B0
swaps the trajectory bitwise.
"""

import functools

import numpy as np
import pytest

from geomflow.nil3 import CouplingSchedule, MapSlope, Nil3Params, Nil3State, integrate_nil3
from geomflow.rrfs import (PeriodicGrid, RescalingSpec, RRFSState, integrate_rrfs,
                           random_smooth_state, rrfs_rhs)

GRIDS = {"1d-32": PeriodicGrid((32,), (2 * np.pi,)),
         "2d-16x16": PeriodicGrid((16, 16), (2 * np.pi,) * 2)}
SPECS = {"off": RescalingSpec("off"), "volume": RescalingSpec("volume", c_coupling=0.5)}
EPS = np.finfo(float).eps
# steps of the whole runs, per base dimension
RUN_STEPS = {1: 26, 2: 2}
# (one right-hand side, a whole run's final fields) per kind of map and mode; 0 is
# bitwise.  Measured on seeds 3-5 (right-hand sides) and 3 (runs), N = 1-3: at most
# 2.4 eps and 0.97 eps for the exact maps in volume mode, 5.1 eps and 0.97 eps for the
# reordering ones
BOUNDS = {("exact", "off"): (0.0, 0.0), ("exact", "volume"): (4 * EPS, EPS),
          ("reordering", "off"): (8 * EPS, 2 * EPS),
          ("reordering", "volume"): (8 * EPS, 2 * EPS)}
# the run's step times, energies, volumes and s values: sums over nodes in another order
# (at most 2.4 eps measured)
SERIES_BOUND = 4 * EPS


def _relative_gap(got, want) -> float:
    """max |got - want| / max |want|, where an exactly zero ``want`` counts as 1."""
    scale = np.abs(want).max()
    return float(np.abs(got - want).max() / (scale if scale > 0 else 1.0))


@pytest.mark.parametrize("mode", SPECS)
@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
def test_fiber_change_of_basis(grid, N, mode):
    st = random_smooth_state(3, grid, N, perturb_g=True, perturb_A=True)
    P = np.eye(N) + 0.3 * np.random.default_rng(10 + N).standard_normal((N, N))
    P_inv_T = np.linalg.inv(P).T
    image = RRFSState(st.g, st.A @ P_inv_T, P.T @ st.G @ P)
    dg, dA, dG = rrfs_rhs(st, grid, SPECS[mode])
    image_dg, image_dA, image_dG = rrfs_rhs(image, grid, SPECS[mode])
    assert _relative_gap(image_dg, dg) <= 1e-12
    assert _relative_gap(image_dA, dA @ P_inv_T) <= 1e-12
    assert _relative_gap(image_dG, P.T @ dG @ P) <= 1e-12


class LatticeMap:
    """A lattice map with a signed fiber permutation: ``nodes`` moves the node axes,
    R [a] is the sign of base axis a, P the base axes' order, p and s the fiber's."""

    def __init__(self, kind, n, N, nodes=None, R=None, P=None, p=None, s=None):
        self.kind, self.nodes = kind, nodes or (lambda f: f)
        self.R = np.ones(n) if R is None else np.asarray(R, dtype=float)
        self.P = np.arange(n) if P is None else np.asarray(P)
        self.p = np.arange(N) if p is None else np.asarray(p)
        self.s = np.ones(N) if s is None else np.asarray(s, dtype=float)

    def __call__(self, g, A, G):
        """The images of (g, A, G), or of their right-hand sides, each node-major."""
        R, P, p, s = self.R, self.P, self.p, self.s
        return (self.nodes(g)[..., P, :][..., :, P] * R[:, None] * R,
                self.nodes(A)[..., P, :][..., :, p] * R[:, None] * s,
                self.nodes(G)[..., p, :][..., :, p] * s[:, None] * s)


def _maps(n, N) -> dict:
    alternating = np.where(np.arange(N) % 2, 1.0, -1.0)
    maps = {"shift": LatticeMap("exact", n, N, lambda f: np.roll(f, (5, 3)[:n],
                                                                 axis=tuple(range(n))))}
    for e in range(n):  # node j -> node -j along axis e
        maps[f"reflect-{e}"] = LatticeMap(
            "exact", n, N, lambda f, e=e: np.roll(np.flip(f, axis=e), 1, axis=e),
            R=np.where(np.arange(n) == e, -1.0, 1.0))
    maps["fiber-signs"] = LatticeMap("exact", n, N, s=alternating)
    maps["fiber-permutation"] = LatticeMap("reordering", n, N, p=np.roll(np.arange(N), 1),
                                           s=-alternating)
    if n == 2:
        maps["axis-swap"] = LatticeMap("reordering", n, N, lambda f: np.swapaxes(f, 0, 1),
                                       P=[1, 0])
    return maps


def _cases(Ns):
    return [pytest.param(grid, N, name, mode, id=f"{gid}-N{N}-{name}-{mode}")
            for gid, grid in GRIDS.items() for N in Ns
            for name in _maps(grid.n_base, N) for mode in SPECS]


@functools.cache
def _state(grid, N) -> RRFSState:
    return random_smooth_state(3, grid, N, perturb_g=True, perturb_A=True)


@pytest.mark.parametrize("grid, N, name, mode", _cases([1, 2, 3]))
def test_lattice_map_of_the_rhs(grid, N, name, mode):
    st, lattice_map = _state(grid, N), _maps(grid.n_base, N)[name]
    bound = BOUNDS[lattice_map.kind, mode][0]
    want = lattice_map(*rrfs_rhs(st, grid, SPECS[mode]))
    got = rrfs_rhs(RRFSState(*lattice_map(st.g, st.A, st.G)), grid, SPECS[mode])
    for field, g, w in zip("gAG", got, want):
        assert _relative_gap(g, w) <= bound, field


@functools.cache
def _run(grid, N, mode, image=None):
    """The run of the seeded state, or of its image under the map named ``image``."""
    st = _state(grid, N)
    if image:
        st = RRFSState(*_maps(grid.n_base, N)[image](st.g, st.A, st.G))
    h = min(grid.spacing)
    dt0 = 0.2 * h * h * np.linalg.eigvalsh(_state(grid, N).g)[..., 0].min()
    return integrate_rrfs(st, grid, SPECS[mode], (RUN_STEPS[grid.n_base] - 0.5) * dt0)


@pytest.mark.parametrize("grid, N, name, mode", _cases([2]))
def test_lattice_map_of_a_run(grid, N, name, mode):
    lattice_map = _maps(grid.n_base, N)[name]
    bound = BOUNDS[lattice_map.kind, mode][1]
    run, image_run = _run(grid, N, mode), _run(grid, N, mode, name)
    assert len(run.step_times) == RUN_STEPS[grid.n_base] + 1
    fin, image_fin = run.final_state, image_run.final_state
    want = lattice_map(fin.g, fin.A, fin.G)
    for field, w in zip("gAG", want):
        assert _relative_gap(getattr(image_fin, field), w) <= bound, field
    for series in ("step_times", "energies", "volumes", "s_values"):
        assert _relative_gap(getattr(image_run, series), getattr(run, series)) <= SERIES_BOUND


NIL3_COUPLINGS = {
    "zero": lambda rng: CouplingSchedule.zero(),
    "constant": lambda rng: CouplingSchedule.constant(rng.uniform(0.1, 2.0)),
    "power": lambda rng: CouplingSchedule.power(rng.uniform(0.1, 2.0), rng.uniform(0.1, 3.0)),
}


@pytest.mark.parametrize("seed", range(7))
@pytest.mark.parametrize("coupling", NIL3_COUPLINGS)
def test_nil3_swap_of_A_and_B_at_zero_slope(coupling, seed):
    rng = np.random.default_rng(seed)
    A0, B0, C0 = np.exp(rng.uniform(-2.0, 2.0, 3)).tolist()
    schedule = NIL3_COUPLINGS[coupling](rng)

    def run(A, B):
        return integrate_nil3(Nil3Params(Nil3State(A, B, C0), MapSlope(0.0), schedule), 1e6)

    traj, image = run(A0, B0), run(B0, A0)
    assert np.array_equal(image.times, traj.times)
    assert np.array_equal(image.states, traj.states[:, [1, 0, 2]])
