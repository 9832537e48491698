"""Per-grid and per-metric quantities: grid spacing, and min-eig g without
cancellation on anisotropic base metrics."""

import numpy as np
import pytest

from geomflow import rrfs


def test_grid_spacing_and_cell_volume_computed_once():
    grid = rrfs.PeriodicGrid((16, 12), (2 * np.pi, 3.0))
    assert grid.spacing is grid.spacing
    assert grid.spacing == (2 * np.pi / 16, 3.0 / 12)
    assert grid.cell_volume == float(np.prod(grid.spacing))
    same = rrfs.PeriodicGrid((16, 12), (2 * np.pi, 3.0))
    assert grid == same and hash(grid) == hash(same)  # sizes and period only
    assert grid != rrfs.PeriodicGrid((16, 12), (2 * np.pi, 3.5))


GRID_8 = rrfs.PeriodicGrid((8, 8), (2 * np.pi, 2 * np.pi))
ANISOTROPIC = {"diag-1e17": [[1e17, 0.0], [0.0, 1.0]],
               "off-diag-1e13": [[1e13, 0.3], [0.3, 1.3]]}


def state_with_g(g):
    g = np.broadcast_to(np.asarray(g, dtype=float), GRID_8.sizes + (2, 2)).copy()
    return rrfs.RRFSState(g, np.zeros(GRID_8.sizes + (2, 2)),
                          rrfs.random_smooth_state(4, GRID_8, 2).G)


@pytest.mark.parametrize("g", ANISOTROPIC.values(), ids=ANISOTROPIC.keys())
def test_min_eig_of_anisotropic_g_against_eigvalsh(g):
    st = state_with_g(g)
    want = float(np.linalg.eigvalsh(st.g)[..., 0].min())
    assert abs(st._metric.min_eig / want - 1) <= 1e-13


def test_run_from_anisotropic_g_completes():
    st = state_with_g(ANISOTROPIC["diag-1e17"])
    h = min(GRID_8.spacing)
    run = rrfs.integrate_rrfs(st, GRID_8, rrfs.RescalingSpec("off"), 3 * rrfs.KAPPA_CFL * h * h)
    assert len(run.step_times) == 4
    assert np.isfinite(run.final_state.G).all()
