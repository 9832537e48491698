"""Pinned runs that freeze a field, and the SPD guard on the frozen path.

``tests/data/rrfs_frozen_pinned.npz`` holds the final state and the step
time, energy, volume and s series of three seeded runs: a 1D 64-node
harmonic-map run with g and A frozen, and two 16x16 volume-mode runs, one
with g frozen and one with A frozen.  The fixture was written by the code
that carried frozen fields through the RK4 state with a zero derivative;
runs must reproduce it to 1e-12 relative.

Regenerate (only when the numbers are meant to change) with::

    PYTHONPATH=src python tests/test_frozen.py
"""

from pathlib import Path

import numpy as np
import pytest

from geomflow import rrfs

FIXTURE = Path(__file__).parent / "data" / "rrfs_frozen_pinned.npz"
RTOL = 1e-12
GRID_1D = rrfs.PeriodicGrid((64,), (2 * np.pi,))
GRID_2D = rrfs.PeriodicGrid((16, 16), (2 * np.pi, 2 * np.pi))
VOLUME = rrfs.RescalingSpec("volume", c_coupling=0.7)
# name: (grid, spec, t_end in initial CFL steps, evolve_g, evolve_A)
RUNS = {
    "hmap_1d": (GRID_1D, rrfs.RescalingSpec("off"), 40, False, False),
    "frozen_g_2d": (GRID_2D, VOLUME, 4, False, True),
    "frozen_A_2d": (GRID_2D, VOLUME, 4, True, False),
}
SERIES = ("step_times", "energies", "volumes", "s_values")


def seeded_state(grid):
    return rrfs.random_smooth_state(7, grid, 2, amplitude=0.3, perturb_g=True, perturb_A=True)


def frozen_run(name):
    grid, spec, cfl_steps, evolve_g, evolve_A = RUNS[name]
    st = seeded_state(grid)
    h = min(grid.spacing)
    dt0 = rrfs.KAPPA_CFL * h * h * float(np.linalg.eigvalsh(st.g)[..., 0].min())
    run = rrfs.integrate_rrfs(st, grid, spec, cfl_steps * dt0,
                              evolve_g=evolve_g, evolve_A=evolve_A)
    return st, run


def computed() -> dict[str, np.ndarray]:
    out = {}
    for name in RUNS:
        _, run = frozen_run(name)
        for key in ("g", "A", "G"):
            out[f"{name}_{key}"] = getattr(run.final_state, key)
        for key in SERIES:
            out[f"{name}_{key}"] = getattr(run, key)
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


@pytest.mark.parametrize("name", RUNS)
def test_frozen_run_matches_pinned(pinned, name):
    st0, run = frozen_run(name)
    _, _, cfl_steps, evolve_g, evolve_A = RUNS[name]
    assert len(run.step_times) - 1 >= cfl_steps
    fin = run.final_state
    for key, evolves in (("g", evolve_g), ("A", evolve_A), ("G", True)):
        assert_close(getattr(fin, key), pinned[f"{name}_{key}"], key)
        changed = np.abs(getattr(fin, key) - getattr(st0, key)).max()
        assert changed > 1e-6 if evolves else changed == 0.0
    for key in SERIES:
        assert_close(getattr(run, key), pinned[f"{name}_{key}"], key)


def test_frozen_fields_are_shared_and_g_is_not_checked_again(monkeypatch):
    st0, checked = seeded_state(GRID_2D), []
    check = rrfs._check_spd_field
    monkeypatch.setattr(rrfs, "_check_spd_field",
                        lambda fld, what: (checked.append(what), check(fld, what))[1])
    run = rrfs.integrate_rrfs(st0, GRID_2D, VOLUME, 0.01, evolve_g=False, evolve_A=False)
    assert len(run.snapshots) > 2 and "base metric g" not in checked
    for st in (*run.snapshots, run.final_state):
        assert st.g is st0.g and st.A is st0.A


def test_data_of_a_frozen_g_is_kept_per_grid():
    # a grid with the same sizes and other periods has other derivatives of g
    st0, other = seeded_state(GRID_2D), rrfs.PeriodicGrid(GRID_2D.sizes, (3.0, 5.0))
    fin = rrfs.integrate_rrfs(st0, GRID_2D, VOLUME, 0.01, evolve_g=False).final_state
    fresh = rrfs.RRFSState(fin.g.copy(), fin.A, fin.G)
    for grid in (other, GRID_2D):
        for fn in (rrfs.christoffels_of_g, rrfs.laplacian_G, rrfs.scalar_curvature):
            np.testing.assert_array_equal(fn(fin, grid), fn(fresh, grid))


def test_evolving_runs_keep_no_data_of_g():
    st0 = seeded_state(GRID_2D)
    run = rrfs.integrate_rrfs(st0, GRID_2D, VOLUME, 0.01, evolve_A=False)
    for st in (st0, *run.snapshots, run.final_state):
        assert st._metric.per_grid is None


def test_frozen_spd_guard_halves_and_names_the_node(monkeypatch):
    # the G check of every stage state still runs: the run halves its steps
    # 692 times, each at node (10,), and near t = 0.0135 no halving helps
    grid = rrfs.PeriodicGrid((16,), (2 * np.pi,))
    st = rrfs.random_smooth_state(0, grid, 2, amplitude=1.5)
    check, errors = rrfs._check_spd_field, []

    def recording(fld, what):
        try:
            return check(fld, what)
        except rrfs.SPDFieldError as err:
            errors.append(str(err))
            raise

    monkeypatch.setattr(rrfs, "_check_spd_field", recording)
    with pytest.raises(rrfs.SPDFieldError,
                       match=r"^SPD structure lost after 50 step halvings at node \(10,\)") as info:
        rrfs.integrate_rrfs(st, grid, rrfs.RescalingSpec("off"), 0.02,
                            evolve_g=False, evolve_A=False)
    assert info.value.node == (10,)
    assert info.value.t == pytest.approx(0.013490305147064516, rel=1e-12)
    assert errors == ["fiber metric G is not positive definite at node (10,)"] * 692


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    np.savez_compressed(FIXTURE, **computed())
    print(f"wrote {FIXTURE}")
