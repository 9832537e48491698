"""Pinned values of the periodic-grid right-hand side and a 2D coupled run.

``tests/data/rrfs_pinned.npz`` holds ``rrfs_rhs_terms`` on seeded 1D and 2D
states and the final state and diagnostic series of a short 2D 16x16
volume-mode run with g, A and G all evolving.  The fixture was written by
the per-function geometry code that preceded the shared per-state geometry
bundle; refactors of the geometry must reproduce it to 1e-12 relative.

Regenerate (only when the numbers are meant to change) with::

    PYTHONPATH=src python tests/test_pinned.py
"""

from pathlib import Path

import numpy as np
import pytest

from geomflow import rrfs

FIXTURE = Path(__file__).parent / "data" / "rrfs_pinned.npz"
RTOL = 1e-12
SPEC = rrfs.RescalingSpec("volume", c_coupling=0.7)
GRIDS = {
    "1d": rrfs.PeriodicGrid((64,), (2 * np.pi,)),
    "2d": rrfs.PeriodicGrid((16, 16), (2 * np.pi, 2 * np.pi)),
}
RUN_CFL_STEPS = 4


def seeded_state(grid):
    return rrfs.random_smooth_state(
        5, grid, 2, amplitude=0.3, perturb_g=True, perturb_A=True
    )


def coupled_run():
    grid = GRIDS["2d"]
    st = seeded_state(grid)
    h = min(grid.spacing)
    dt0 = rrfs.KAPPA_CFL * h * h * float(np.linalg.eigvalsh(st.g)[..., 0].min())
    return rrfs.integrate_rrfs(st, grid, SPEC, RUN_CFL_STEPS * dt0)


def computed() -> dict[str, np.ndarray]:
    out = {}
    for name, grid in GRIDS.items():
        for key, val in rrfs.rrfs_rhs_terms(seeded_state(grid), grid, SPEC).items():
            out[f"terms_{name}_{key}"] = np.asarray(val)
    run = coupled_run()
    fin = run.final_state
    out.update(
        run_g=fin.g, run_A=fin.A, run_G=fin.G, run_times=run.step_times,
        run_energies=run.energies, run_volumes=run.volumes, run_s=run.s_values,
    )
    return out


def assert_close(got, want, name):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, name
    err = float(np.abs(got - want).max(initial=0.0))
    assert err <= RTOL * float(np.abs(want).max(initial=0.0)), (name, err)


@pytest.fixture(scope="module")
def pinned():
    with np.load(FIXTURE) as data:
        return dict(data)


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_rhs_terms_match_pinned(pinned, name):
    grid = GRIDS[name]
    terms = rrfs.rrfs_rhs_terms(seeded_state(grid), grid, SPEC)
    prefix = f"terms_{name}_"
    assert {k[len(prefix):] for k in pinned if k.startswith(prefix)} == set(terms)
    for key, val in terms.items():
        assert_close(val, pinned[prefix + key], key)


def test_2d_coupled_run_matches_pinned(pinned):
    run = coupled_run()
    st0, fin = seeded_state(GRIDS["2d"]), run.final_state
    assert len(run.step_times) - 1 >= RUN_CFL_STEPS
    for key in ("g", "A", "G"):
        val = getattr(fin, key)
        assert_close(val, pinned[f"run_{key}"], key)
        assert np.abs(val - getattr(st0, key)).max() > 1e-6  # every field evolved
    for key, val in (("times", run.step_times), ("energies", run.energies),
                     ("volumes", run.volumes), ("s", run.s_values)):
        assert_close(val, pinned[f"run_{key}"], key)
    assert np.abs(run.volumes / run.volumes[0] - 1.0).max() <= 1e-6
    assert np.linalg.eigvalsh(fin.g)[..., 0].min() > 0
    assert np.linalg.eigvalsh(fin.G)[..., 0].min() > 0


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    np.savez_compressed(FIXTURE, **computed())
    print(f"wrote {FIXTURE}")
