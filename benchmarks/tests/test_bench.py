"""Tests of the benchmark harness itself (not part of the tier-1 suite).

Run from the root of a checkout::

    python3 -m pytest benchmarks/tests -q

Traced single passes are run twice per workload: the deterministic counts
must repeat exactly, and the counting identities of the two integrators
must hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402

worker.import_program()

import tracer as T  # noqa: E402
import workloads as W  # noqa: E402
from geomflow import rrfs  # noqa: E402

SEED = 3


def traced_pass(name: str):
    """One traced pass of a workload: (per-layer metrics, tracer)."""
    wl = W.build(name, SEED, worker.OUT_DIR)
    worker.OUT_DIR.mkdir(parents=True, exist_ok=True)
    tr = T.Tracer()
    tr.install()
    try:
        log = worker.traced_passes(wl, 0.0, tr)
    finally:
        tr.uninstall()
        getattr(wl, "close", lambda: None)()
    assert log.failed == 0, log.failures
    return T.pass_metrics(tr, 0), tr


@pytest.fixture(scope="module", params=sorted(W.WORKLOADS))
def two_passes(request):
    return request.param, traced_pass(request.param), traced_pass(request.param)


def counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


def test_counts_repeat_exactly(two_passes):
    _, (m1, _), (m2, _) = two_passes
    assert counts(m1) == counts(m2)


def test_rk4_rhs_count(two_passes):
    name, (m, _), _ = two_passes
    assert m["rrfs.rrfs_rhs.calls"] == 4 * (m["rrfs.steps"] + m["rrfs.halvings"])
    if name.startswith("rrfs_"):
        assert m["rrfs.steps"] > 0


def test_dp5_fsal_count(two_passes):
    name, (m, tr), _ = two_passes
    a = tr.arrays()
    per_int = T.rhs_calls_per_integration(a, {n: i for i, n in enumerate(tr.names)})
    assert all(n % 6 == 1 for n in per_int)
    assert sum(per_int) == m["nil3.rhs.calls"]
    assert m["ode.attempted_steps"] == sum((n - 1) // 6 for n in per_int)
    if name in ("nil3_sweep", "cli_readme"):
        assert per_int


def test_inv_calls_per_rhs_constant(two_passes):
    name, (m, tr), _ = two_passes
    per_rhs = T.inv_per_rhs(tr)
    assert len(set(per_rhs)) <= 1
    if per_rhs:
        assert m["numpy.inv.calls_per_rhs"] == per_rhs[0]


def test_inv_calls_per_rhs_by_base_dimension():
    """The 2D volume-mode RHS makes the same inversions in both 2D workloads."""
    grid = rrfs.PeriodicGrid(*W.COUPLED_GRID)
    cases = [(W.coupled_base_state(grid), grid), W.cli_rrfs_base_state()]
    tr = T.Tracer()
    tr.install()
    try:
        tr.begin_op(1)
        for state, grid in cases:
            rrfs.rrfs_rhs(state, grid, rrfs.RescalingSpec("volume"))
    finally:
        tr.active = False
        tr.uninstall()
    per_rhs = T.inv_per_rhs(tr)
    assert len(per_rhs) == 2 and per_rhs[0] == per_rhs[1] > 0


@pytest.mark.parametrize("n_base", [1, 2])
def test_symmetry_images_are_equivariant(n_base):
    """A symmetry image evolves into the image of the evolved base state."""
    spec = W.HMAP_GRID if n_base == 1 else ((16, 16), W.COUPLED_GRID[1])
    grid = rrfs.PeriodicGrid(*spec)
    base = rrfs.random_smooth_state(0, grid, 2, perturb_g=True, perturb_A=True)
    sym = W.Symmetry.from_seed(11, grid, 2)
    image = rrfs.RRFSState(*sym.apply(base.g, base.A, base.G))
    assert not np.allclose(image.G, base.G)
    t = 3 * W.cfl_step(base, grid, rrfs.KAPPA_CFL)
    a = rrfs.integrate_rrfs(base, grid, rrfs.RescalingSpec("volume"), t).final_state
    b = rrfs.integrate_rrfs(image, grid, rrfs.RescalingSpec("volume"), t).final_state
    for x, y in zip(sym.apply(a.g, a.A, a.G), (b.g, b.A, b.G)):
        assert np.abs(x - y).max() <= 1e-12 * max(np.abs(y).max(), 1.0)


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_result_line(trace, section):
    proc = run_bench(ROOT, "--workload", "nil3_sweep", "--seed", "1",
                     "--seconds", "0.5", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 12
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(out["metrics"]) == {m["name"] for m in spec[section]}
    for m in spec[section]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        if section == "end_to_end":
            assert out["metrics"][m["name"]]["value"] > 0


def test_run_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "nil3_sweep", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
