"""Byte-level checks of the text writers: CSV, snapshot and JSON summary.

The ``tests/data/golden_*`` files were written by the CLI before its
writers moved to ``np.savetxt`` and a single JSON emitter, with the
commands below (``python -m geomflow.cli <args>``):

- ``golden_nil3.csv``, ``golden_nil3.json``: ``NIL3`` with ``--csv`` and
  ``--json``; ``golden_nil3_stdout.txt``: ``NIL3`` alone.
- ``golden_rrfs_series.csv``: ``RRFS_SERIES`` with ``--csv``.
- ``golden_snapshot_2d.txt``: ``RRFS_SNAPSHOT`` with ``--out-prefix snap``,
  file ``snap_001.txt`` (2D 8x8 grid, N = 2).

Each writer must reproduce those bytes from the values the file holds.  A
rerun of the commands must reproduce the values to 1e-12 relative; it is
not held to the bytes, because the numbers themselves may move at rounding
level between numpy builds and CPUs (SIMD exp/log/pow, LAPACK kernels).
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from geomflow import cli, ode, rrfs

DATA = Path(__file__).parent / "data"
RTOL = 1e-12
NIL3 = ["nil3", "--coupling", "const:0.5", "--t-end", "1e3", "--samples-per-decade", "4"]
RRFS_SERIES = ["rrfs", "--grid", "8", "--n-fiber", "2", "--seed", "0", "--t-end", "0.5"]
RRFS_SNAPSHOT = ["rrfs", "--grid", "8,8", "--n-fiber", "2", "--seed", "1", "--perturb-g",
                 "--perturb-A", "--mode", "volume", "--c", "0.5", "--t-end", "0.05",
                 "--snapshots", "2"]


def golden(name: str) -> bytes:
    return (DATA / name).read_bytes()


def read_csv(path):
    with open(path) as fh:
        return fh.readline().rstrip("\n"), np.loadtxt(fh, delimiter=",", ndmin=2)


def assert_bits_equal(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def assert_json_close(got, want, where="$"):
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            assert_json_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (a, b) in enumerate(zip(got, want)):
            assert_json_close(a, b, f"{where}[{i}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=RTOL), where
    else:
        assert got == want, where


class TestGoldenBytes:
    def test_nil3_csv(self, tmp_path):
        cli.write_nil3_csv(tmp_path / "t.csv", cli.read_nil3_csv(DATA / "golden_nil3.csv"))
        assert (tmp_path / "t.csv").read_bytes() == golden("golden_nil3.csv")

    def test_rrfs_series_csv(self, tmp_path):
        header, data = read_csv(DATA / "golden_rrfs_series.csv")
        cli._write_csv(tmp_path / "s.csv", header, data.T)
        assert (tmp_path / "s.csv").read_bytes() == golden("golden_rrfs_series.csv")

    def test_snapshot_2d(self, tmp_path):
        state, grid = rrfs.load_snapshot(DATA / "golden_snapshot_2d.txt")
        assert (grid.n_base, state.n_fiber) == (2, 2)
        rrfs.save_snapshot(state, grid, tmp_path / "snap.txt")
        assert (tmp_path / "snap.txt").read_bytes() == golden("golden_snapshot_2d.txt")

    def test_json_summary_file_and_stdout(self, tmp_path, capsys):
        payload = json.loads(golden("golden_nil3.json"))
        cli._emit_json(tmp_path / "s.json", payload)
        assert (tmp_path / "s.json").read_bytes() == golden("golden_nil3.json")
        cli._emit_json(None, payload)
        assert capsys.readouterr().out.encode() == golden("golden_nil3_stdout.txt")


class TestGoldenReruns:
    def test_nil3(self, tmp_path, capsys):
        csv, js = tmp_path / "t.csv", tmp_path / "s.json"
        assert cli.main([*NIL3, "--csv", str(csv), "--json", str(js)]) == 0
        assert cli.main(NIL3) == 0
        out = capsys.readouterr().out
        header, data = read_csv(csv)
        want_header, want = read_csv(DATA / "golden_nil3.csv")
        assert header == want_header
        np.testing.assert_allclose(data, want, rtol=RTOL)
        pairs = [(json.loads(js.read_text()), json.loads(golden("golden_nil3.json"))),
                 (json.loads(out), json.loads(golden("golden_nil3_stdout.txt")))]
        for got, want_summary in pairs:
            # Phi = e^(b + c) moves only by rounding, whose last bits follow the platform's
            # exp: the drift is held to 4 eps, not to its golden bits
            for summary in (got, want_summary):
                assert summary.pop("phi_drift") <= 4 * np.finfo(float).eps
            assert_json_close(got, want_summary)

    def test_rrfs_series(self, tmp_path):
        csv = tmp_path / "s.csv"
        assert cli.main([*RRFS_SERIES, "--csv", str(csv)]) == 0
        header, data = read_csv(csv)
        want_header, want = read_csv(DATA / "golden_rrfs_series.csv")
        assert header == want_header
        np.testing.assert_allclose(data, want, rtol=RTOL)

    def test_rrfs_snapshot(self, tmp_path):
        prefix = tmp_path / "snap"
        assert cli.main([*RRFS_SNAPSHOT, "--out-prefix", str(prefix)]) == 0
        state, grid = rrfs.load_snapshot(f"{prefix}_001.txt")
        want, want_grid = rrfs.load_snapshot(DATA / "golden_snapshot_2d.txt")
        assert grid == want_grid
        for name in ("g", "A", "G"):
            got, ref = getattr(state, name), getattr(want, name)
            np.testing.assert_allclose(got, ref, rtol=0, atol=RTOL * np.abs(ref).max())


# ---------------------------------------------------------------------------
# round-trip properties

FINITE = st.floats(allow_nan=False, allow_infinity=False)


def spd_fields(sizes: tuple, k: int):
    """Exactly symmetric, diagonally dominant k x k fields: diagonal in
    [1, 4], off-diagonal in [-1/4, 1/4], so every node is SPD."""

    def build(diag, off):
        upper = np.triu(off, 1)
        return upper + np.swapaxes(upper, -1, -2) + diag[..., None] * np.eye(k)

    return st.builds(
        build,
        hnp.arrays(np.float64, sizes + (k,), elements=st.floats(1.0, 4.0)),
        hnp.arrays(np.float64, sizes + (k, k), elements=st.floats(-0.25, 0.25)),
    )


@st.composite
def snapshot_states(draw):
    n = draw(st.sampled_from([1, 2]))
    N = draw(st.sampled_from([1, 2, 3]))
    sizes = tuple(draw(st.lists(st.integers(8, 12), min_size=n, max_size=n)))
    period = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    A = draw(hnp.arrays(np.float64, sizes + (n, N), elements=FINITE))
    A.flat[draw(st.integers(0, A.size - 1))] = -0.0
    state = rrfs.RRFSState(draw(spd_fields(sizes, n)), A, draw(spd_fields(sizes, N)))
    return state, rrfs.PeriodicGrid(sizes, period)


@st.composite
def nil3_trajectories(draw):
    m = draw(st.integers(1, 20))
    times = np.sort(draw(hnp.arrays(np.float64, m, elements=st.floats(0.0, 1e12),
                                    unique=True)))
    # |B|, |C| <= 1e150 keeps the Phi = B*C column finite
    states = draw(hnp.arrays(np.float64, (m, 3), elements=st.floats(-1e150, 1e150)))
    return ode.Trajectory(times, states)


class TestRoundTripProperties:
    @settings(max_examples=60)
    @given(snapshot_states())
    def test_snapshot_save_load_bit_exact(self, tmp_path_factory, case):
        state, grid = case
        d = tmp_path_factory.mktemp("snap")
        rrfs.save_snapshot(state, grid, d / "a.txt")
        loaded, loaded_grid = rrfs.load_snapshot(d / "a.txt")
        assert loaded_grid == grid
        for name in ("g", "A", "G"):
            assert_bits_equal(getattr(loaded, name), getattr(state, name))
        rrfs.save_snapshot(loaded, loaded_grid, d / "b.txt")
        assert (d / "b.txt").read_bytes() == (d / "a.txt").read_bytes()

    # around the writer's 64-row block: one block, one row over, two blocks, three and
    # a partial one; 2D grids need 8 nodes per axis, so 72 stands in for 65 there.  The
    # CSV form takes the rrfs series' 4 columns and the nil3 trajectory's 5.
    BLOCK_CASES = [
        *(pytest.param(s, None, id="x".join(map(str, s)))
          for s in [(64,), (65,), (128,), (200,), (8, 8), (8, 9), (8, 16), (10, 20)]),
        *(pytest.param((m,), k, id=f"csv{k}-{m}") for k in (4, 5) for m in (64, 65, 128, 200)),
    ]

    @pytest.mark.parametrize("sizes,csv_columns", BLOCK_CASES)
    def test_block_writer_equals_savetxt(self, tmp_path, sizes, csv_columns):
        n, N = len(sizes), 3
        nodes = int(np.prod(sizes))
        rng = np.random.default_rng(len(sizes) * 1000 + nodes + (csv_columns or 0))
        if csv_columns:
            delimiter, header = ",", ",".join("tABCD"[:csv_columns])
            rows = rng.normal(size=(nodes, csv_columns)) * 10.0 ** rng.integers(
                -300, 300, (nodes, csv_columns))
            rows.flat[[1, csv_columns + 2, 2 * csv_columns, rows.size - 1]] = (
                -0.0, 5e-324, 1e300, -1e300)
            cli._write_csv(tmp_path / "block.txt", header, rows.T)
        else:
            delimiter = " "
            A = rng.normal(size=(nodes, n, N)) * 10.0 ** rng.integers(-300, 300, (nodes, n, N))
            A.flat[[0, nodes, 2 * nodes, A.size - 1]] = -0.0, 5e-324, 1e300, -1e300

            def spd(k):  # diagonally dominant, so SPD at every node
                return (np.eye(k) * rng.uniform(1, 4, (nodes, k, 1)) + 0.1 / k).reshape(
                    sizes + (k, k))

            state = rrfs.RRFSState(spd(n), A.reshape(sizes + (n, N)), spd(N))
            grid = rrfs.PeriodicGrid(sizes, (2 * np.pi, np.e)[:n])
            rrfs.save_snapshot(state, grid, tmp_path / "block.txt")
            header = " ".join([str(n), str(N), *map(str, sizes),
                               *(f"{p:.17g}" for p in grid.period)])
            rows = np.hstack([state.g.reshape(nodes, -1), state.A.reshape(nodes, -1),
                              state.G.reshape(nodes, -1)])

        np.savetxt(tmp_path / "savetxt.txt", rows, fmt="%.17g", delimiter=delimiter,
                   header=header, comments="")
        text = (tmp_path / "block.txt").read_bytes()
        assert text == (tmp_path / "savetxt.txt").read_bytes()
        assert text.count(b"\n") == nodes + 1
        for word in ("-0", "4.9406564584124654e-324"):
            assert f"{delimiter}{word}{delimiter}".encode() in text
        if csv_columns:
            loaded = np.loadtxt(tmp_path / "block.txt", delimiter=",", skiprows=1)
            assert_bits_equal(loaded, rows)
        else:
            loaded, loaded_grid = rrfs.load_snapshot(tmp_path / "block.txt")
            assert loaded_grid == grid
            for name in ("g", "A", "G"):
                assert_bits_equal(getattr(loaded, name), getattr(state, name))

    @settings(max_examples=60)
    @given(nil3_trajectories())
    def test_nil3_csv_write_read_bit_exact(self, tmp_path_factory, traj):
        path = tmp_path_factory.mktemp("nil3") / "t.csv"
        cli.write_nil3_csv(path, traj)
        back = cli.read_nil3_csv(path)
        assert_bits_equal(back.times, traj.times)
        assert_bits_equal(back.states, traj.states)
        _, data = read_csv(path)
        assert_bits_equal(data[:, 4], traj.states[:, 1] * traj.states[:, 2])
