"""Exact symmetries of the grid flow, checked on one ``rrfs_rhs`` call.

A change of fiber basis P in GL(N) acts by G -> P^T G P and A -> A P^-T.  The
flow is equivariant under it: g' is unchanged, A' -> A' P^-T and G' -> P^T G' P.
It pins the route by which the right-hand side forms G^-1.
"""

import numpy as np
import pytest

from geomflow.rrfs import PeriodicGrid, RescalingSpec, RRFSState, random_smooth_state, rrfs_rhs

GRIDS = {"1d-32": PeriodicGrid((32,), (2 * np.pi,)),
         "2d-16x16": PeriodicGrid((16, 16), (2 * np.pi,) * 2)}
SPECS = {"off": RescalingSpec("off"), "volume": RescalingSpec("volume", c_coupling=0.5)}


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
