"""Benchmark workloads: seeded inputs, one pass of each job, correctness checks.

Every workload drives geomflow's public API the way a researcher's script
does: one closed-loop caller, the next operation ("op") starts when the
previous one returns.  A pass is one full job; ``run_pass`` times each op
through an ``OpLog``, runs the checks outside the timed region and returns
the relative deviation of each checked result from its stored reference.

Seeds and stored references (see ``make_refs.py``):

* ``nil3_sweep`` and the ``nil3`` command of ``cli_readme`` draw their
  parameters from pool entry ``seed % NIL3_POOL``; the references at
  rtol = 1e-12 (and the closed-form oracle values) are stored per entry.
* ``rrfs_1d_hmap`` and ``rrfs_2d_coupled`` start from a seeded symmetry
  image of one base state: a grid translation, reflections and (2D) an axis
  swap, and a permutation and sign change of the fiber basis.  The flow is
  equivariant under these maps, so every seed gets different arrays but the
  same step count, the same work and the same discretisation error, and the
  stored reference final state is mapped by the same symmetry.
* The ``rrfs`` commands of ``cli_readme`` use the README's ``--seed 0``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from geomflow import cli, nil3, ode, rrfs

HERE = Path(__file__).resolve().parent
REFS_PATH = HERE / "refs" / "references.npz"

NIL3_POOL = 64
NIL3_T_END = 1e8
NIL3_REGIMES = (
    ("zero_sym",) * 3 + ("zero",) * 2 + ("const",) * 3 + ("power1",) * 2 + ("power2",) * 2
)
FIT_WINDOW = (1e6, 1e8)
PHI_DRIFT_MAX = 1e-6
EXPONENT_TOL = 0.02
NIL3_REF_TOL = 1e-6
RRFS_REF_TOL = 1e-3
VOLUME_DRIFT_MAX = 1e-6

HMAP_GRID = ((64,), (2 * math.pi,))
HMAP_T_END = 2.0
HMAP_SEGMENTS = 40

COUPLED_GRID = ((32, 32), (2 * math.pi, 2 * math.pi))
COUPLED_SEGMENTS = 8
# segment length in initial CFL steps; the half step keeps the step count per
# segment (three) fixed while the CFL step drifts as g evolves
COUPLED_SEGMENT_DT0 = 2.5

CLI_GRID = "64,64"
CLI_RRFS_T1 = 0.004
CLI_RRFS_T2 = 0.002
CLI_REF_STRIDE = 4
KAPPA_REF = rrfs.KAPPA_CFL / 4


# ---------------------------------------------------------------------------
# op accounting

# On a shared 2-core virtual machine the speed drifts by up to ~1.6x, over
# periods from a fraction of a second to tens of seconds, for interpreter and
# small-array numpy work alike.  A fixed calibration kernel, independent of geomflow, runs
# between consecutive ops; each op's wall time is scaled by
# CAL_MS / sqrt(kernel time before * kernel time after), i.e. to a host on
# which the kernel takes CAL_MS.  Raw wall times are kept in the report.
CAL_MS = 4.0
_CAL_FIELD = np.random.default_rng(0).random((16, 16, 3, 3)) + 3.0 * np.eye(3)


def calibration_kernel() -> float:
    """Seconds taken by fixed interpreter-loop and small-array numpy work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i
    for k in range(8):
        x = np.roll(_CAL_FIELD, k, axis=0)
        np.linalg.inv(np.einsum("...ij,...jk->...ik", x, x))
    return time.perf_counter() - t0


class CheckFailed(Exception):
    """A correctness check on an op's output was violated."""


def check(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    t0: float
    t1: float | None = None
    tracer: object = None
    failed: bool = False

    def done(self):
        """Stop the op's clock; what follows in the op is a check."""
        if self.t1 is None:
            self.t1 = time.perf_counter()
            if self.tracer is not None:
                self.tracer.active = False


@dataclass
class OpLog:
    """Per-op latencies, speed scales and failures of one run, pass by pass."""

    tracer: object = None
    latencies: list = field(default_factory=list)
    scales: list = field(default_factory=list)
    calibrations: list = field(default_factory=list)
    pass_ops: list = field(default_factory=list)  # (first op, end) per pass
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def begin_pass(self):
        self.pass_ops.append((len(self.latencies), None))

    def end_pass(self):
        self.pass_ops[-1] = (self.pass_ops[-1][0], len(self.latencies))

    @property
    def pass_times(self) -> list:
        """Wall time of each pass: the sum of its op latencies."""
        return [sum(self.latencies[a:b]) for a, b in self.pass_ops]

    def normalized(self) -> tuple[list, list]:
        """Op latencies and pass times scaled to the reference host speed."""
        ops = [t * s for t, s in zip(self.latencies, self.scales)]
        return ops, [sum(ops[a:b]) for a, b in self.pass_ops]

    def pass_scales(self) -> list:
        """Normalized over raw time, pass by pass."""
        return [n / r for n, r in zip(self.normalized()[1], self.pass_times)]

    @contextlib.contextmanager
    def op(self, label: str):
        """Time one op; an exception or a failed check marks it failed.

        The exception is recorded and swallowed, so a failure never stops
        the harness; the caller sees ``op.failed``.
        """
        if not self.calibrations:
            self.calibrations.append(calibration_kernel())
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.begin_op(self.attempted)
        op = Op(time.perf_counter(), tracer=self.tracer)
        try:
            yield op
        except Exception as err:  # boundary: count the failure, keep running
            op.done()
            op.failed = True
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{label}: {type(err).__name__}: {err}")
        op.done()
        self.latencies.append(op.t1 - op.t0)
        self.calibrations.append(calibration_kernel())
        before, after = self.calibrations[-2:]
        self.scales.append(1e-3 * CAL_MS / math.sqrt(before * after))


def rel_dev(results, refs) -> float:
    """Max over fields of max|x - ref| / max|ref|; all-zero references skipped."""
    worst = 0.0
    for x, ref in zip(results, refs):
        scale = float(np.max(np.abs(ref)))
        if scale > 0:
            worst = max(worst, float(np.max(np.abs(np.asarray(x) - ref))) / scale)
    return worst


def load_refs() -> dict:
    with np.load(REFS_PATH) as data:
        return {k: data[k] for k in data.files}


# ---------------------------------------------------------------------------
# Nil3 scenarios


def nil3_scenarios(seed: int) -> list[dict]:
    """Scenario parameters of pool entry ``seed % NIL3_POOL``."""
    rng = np.random.default_rng([seed % NIL3_POOL, 3])
    out = []
    for regime in NIL3_REGIMES:
        A0, B0, C0 = rng.uniform(0.5, 2.0, size=3)
        a, c0, r = 0.0, 0.0, 0.0
        if regime == "zero_sym":
            B0 = A0
        elif regime == "const":
            a, c0 = rng.uniform(0.8, 1.2), rng.uniform(0.25, 1.0)
        elif regime.startswith("power"):
            a, c0, r = rng.uniform(0.8, 1.2), rng.uniform(0.5, 1.0), float(regime[-1])
        out.append(dict(regime=regime, A0=A0, B0=B0, C0=C0, a=a, c0=c0, r=r))
    return out


def nil3_params(sc: dict) -> nil3.Nil3Params:
    if sc["regime"] in ("zero_sym", "zero"):
        coupling = nil3.CouplingSchedule.zero()
    elif sc["regime"] == "const":
        coupling = nil3.CouplingSchedule.constant(sc["c0"])
    else:
        coupling = nil3.CouplingSchedule.power(sc["c0"], sc["r"])
    return nil3.Nil3Params(
        nil3.Nil3State(sc["A0"], sc["B0"], sc["C0"]), nil3.MapSlope(sc["a"]), coupling
    )


def params_vector(sc: dict) -> np.ndarray:
    return np.array([sc[k] for k in ("A0", "B0", "C0", "a", "c0", "r")])


def oracle_final(sc: dict, t: float) -> np.ndarray:
    """Closed form for zero coupling and A0 = B0: A = B = (A0^3 + 3 Phi t)^(1/3)."""
    phi = sc["A0"] * sc["C0"]
    A = (sc["A0"] ** 3 + 3.0 * phi * t) ** (1.0 / 3.0)
    return np.array([A, A, phi / A])


def cli_nil3_args(seed: int) -> dict:
    """The README ``nil3`` command's data (1, 1, 1, a = 1, const:0.5), each +-10%."""
    rng = np.random.default_rng([seed % NIL3_POOL, 5])
    A0, B0, C0, c = rng.uniform(0.9, 1.1, size=4)
    return dict(A0=A0, B0=B0, C0=C0, a=1.0, c0=0.5 * c)


def _match(stored: np.ndarray, generated: np.ndarray, what: str):
    if stored.shape != generated.shape or not np.allclose(
        stored, generated, rtol=1e-12, atol=0.0
    ):
        raise RuntimeError(f"stored references do not match the {what} inputs")


class Nil3Sweep:
    """Seeded Nil3 scenarios over all coupling regimes, each to t = 1e8.

    Op = one scenario: integrate, bounds check, fits, flow residual.
    """

    name = "nil3_sweep"

    def __init__(self, seed: int, refs: dict | None = None):
        refs = refs if refs is not None else load_refs()
        entry = seed % NIL3_POOL
        self.scenarios = nil3_scenarios(seed)
        _match(
            refs["nil3_params"][entry],
            np.array([params_vector(sc) for sc in self.scenarios]),
            "nil3_sweep",
        )
        self.refs = refs["nil3_final"][entry]
        self.params = [nil3_params(sc) for sc in self.scenarios]
        self.cfg = ode.IntegratorConfig()

    def run_pass(self, log: OpLog) -> list[float]:
        errors = []
        for sc, params, ref in zip(self.scenarios, self.params, self.refs):
            with log.op(f"nil3 {sc['regime']}") as op:
                traj = nil3.integrate_nil3(params, NIL3_T_END, self.cfg)
                report = nil3.bounds_check(traj, params)
                fits = [nil3.fit_power_law(traj, c, FIT_WINDOW) for c in "ABC"]
                if sc["regime"] == "const":
                    nil3.fit_log_growth(traj, "B", FIT_WINDOW)
                residual = nil3.flow_residual(traj, params)
                op.done()
                phi = traj.states[:, 1] * traj.states[:, 2]
                drift = float(np.max(np.abs(phi / params.phi0 - 1.0)))
                check(drift <= PHI_DRIFT_MAX, f"phi drift {drift:.3e}")
                check(report.ok, f"growth bounds violated: {report.violations}")
                check(math.isfinite(residual), "flow residual not finite")
                if sc["regime"] != "const":
                    got = [f.exponent for f in fits]
                    check(
                        np.allclose(got, [1 / 3, 1 / 3, -1 / 3], rtol=0, atol=EXPONENT_TOL),
                        f"fitted exponents {got}",
                    )
                err = rel_dev([traj.states[-1]], [ref])
                errors.append(err)
                check(err <= NIL3_REF_TOL, f"final state off reference by {err:.3e}")
        return errors


# ---------------------------------------------------------------------------
# periodic-grid symmetry images


@dataclass(frozen=True)
class Symmetry:
    """A lattice symmetry of the torus combined with a signed fiber permutation."""

    axis_perm: tuple[int, ...]
    reflect: tuple[float, ...]
    shift: tuple[int, ...]
    fiber_perm: tuple[int, ...]
    fiber_sign: tuple[float, ...]

    @staticmethod
    def from_seed(seed: int, grid: rrfs.PeriodicGrid, n_fiber: int) -> "Symmetry":
        rng = np.random.default_rng([seed % 2**32, 7])
        n = grid.n_base
        square = len(set(grid.sizes)) == 1 and len(set(grid.period)) == 1
        axis_perm = rng.permutation(n) if square else np.arange(n)
        return Symmetry(
            axis_perm=tuple(int(a) for a in axis_perm),
            reflect=tuple(float(s) for s in rng.choice([-1.0, 1.0], size=n)),
            shift=tuple(int(rng.integers(s)) for s in grid.sizes),
            fiber_perm=tuple(int(i) for i in rng.permutation(n_fiber)),
            fiber_sign=tuple(float(s) for s in rng.choice([-1.0, 1.0], size=n_fiber)),
        )

    def _nodes(self, f: np.ndarray) -> np.ndarray:
        n = len(self.axis_perm)
        f = np.transpose(f, self.axis_perm + tuple(range(n, f.ndim)))
        for ax, s in enumerate(self.reflect):
            if s < 0:  # x -> -x, node j -> node (-j) mod size
                f = np.roll(np.flip(f, axis=ax), 1, axis=ax)
        return np.roll(f, self.shift, axis=tuple(range(n)))

    def apply(self, g, A, G):
        """Image of the fields (g, A, G); each is (*sizes, ...) as in RRFSState."""
        P, R = list(self.axis_perm), np.array(self.reflect)
        p, s = list(self.fiber_perm), np.array(self.fiber_sign)
        g = self._nodes(g)[..., P, :][..., :, P] * R[:, None] * R[None, :]
        A = self._nodes(A)[..., P, :][..., :, p] * R[:, None] * s[None, :]
        G = self._nodes(G)[..., p, :][..., :, p] * s[:, None] * s[None, :]
        return np.ascontiguousarray(g), np.ascontiguousarray(A), np.ascontiguousarray(G)


def hmap_base_state(grid: rrfs.PeriodicGrid) -> rrfs.RRFSState:
    """AC-8 initial state: seed-0 smooth G, flat g, zero A."""
    return rrfs.random_smooth_state(0, grid, 2)


def coupled_base_state(grid: rrfs.PeriodicGrid) -> rrfs.RRFSState:
    return rrfs.random_smooth_state(0, grid, 2, perturb_g=True, perturb_A=True)


def cfl_step(state: rrfs.RRFSState, grid: rrfs.PeriodicGrid, kappa: float) -> float:
    h = min(grid.spacing)
    return kappa * h * h * float(np.linalg.eigvalsh(state.g)[..., 0].min())


def coupled_t_end(state, grid) -> float:
    return COUPLED_SEGMENTS * COUPLED_SEGMENT_DT0 * cfl_step(state, grid, rrfs.KAPPA_CFL)


class _ChainedRRFS:
    """Chained ``integrate_rrfs`` segments of fixed length from a symmetry image.

    Each segment restarts from the previous segment's ``final_state``; the
    last segment also compares the final state with the stored reference.
    """

    name: str
    segments: int
    spec: rrfs.RescalingSpec
    evolve_g: bool
    evolve_A: bool

    def __init__(self, seed: int, grid, base, t_end: float, ref_key: str):
        refs = load_refs()
        _match(refs[f"{ref_key}_t_end"], np.array(t_end), self.name)
        self.grid = grid
        self.t_end = t_end
        self.sym = Symmetry.from_seed(seed, grid, base.n_fiber)
        self.state0 = rrfs.RRFSState(*self.sym.apply(base.g, base.A, base.G))
        self.ref = self.sym.apply(*(refs[f"{ref_key}_{f}"] for f in ("g", "A", "G")))
        self.volume0 = rrfs.volume(self.state0, grid)

    def check_segment(self, run: rrfs.RRFSRun):
        raise NotImplementedError

    def run_pass(self, log: OpLog) -> list[float]:
        state = self.state0
        errors = []
        for k in range(self.segments):
            with log.op(f"{self.name} segment {k}") as op:
                run = rrfs.integrate_rrfs(
                    state, self.grid, self.spec, self.t_end / self.segments,
                    evolve_g=self.evolve_g, evolve_A=self.evolve_A,
                )
                op.done()
                state = run.final_state
                self.check_segment(run)
                if k == self.segments - 1:
                    err = rel_dev((state.g, state.A, state.G), self.ref)
                    errors.append(err)
                    check(err <= RRFS_REF_TOL, f"final state off reference by {err:.3e}")
            if op.failed:
                break
        return errors


class RRFS1DHarmonicMap(_ChainedRRFS):
    """AC-8: 1D 64-node harmonic-map flow (g, A frozen) to t = 2, 40 segments."""

    name = "rrfs_1d_hmap"
    segments = HMAP_SEGMENTS
    spec = rrfs.RescalingSpec("off")
    evolve_g = False
    evolve_A = False

    def __init__(self, seed: int):
        grid = rrfs.PeriodicGrid(*HMAP_GRID)
        super().__init__(seed, grid, hmap_base_state(grid), HMAP_T_END, "hmap")

    def check_segment(self, run):
        check(bool(np.all(np.diff(run.energies) <= 0.0)), "energy increased")


class RRFS2DCoupled(_ChainedRRFS):
    """2D 32^2 volume-mode flow with g, A and G evolving, 8 segments of 2.5 CFL steps."""

    name = "rrfs_2d_coupled"
    segments = COUPLED_SEGMENTS
    spec = rrfs.RescalingSpec("volume")
    evolve_g = True
    evolve_A = True

    def __init__(self, seed: int):
        grid = rrfs.PeriodicGrid(*COUPLED_GRID)
        base = coupled_base_state(grid)
        super().__init__(seed, grid, base, coupled_t_end(base, grid), "coupled")

    def check_segment(self, run):
        drift = float(np.max(np.abs(run.volumes / self.volume0 - 1.0)))
        check(drift <= VOLUME_DRIFT_MAX, f"volume drift {drift:.3e}")
        st = run.final_state
        for name, fld in (("g", st.g), ("G", st.G)):
            lam = float(np.linalg.eigvalsh(fld)[..., 0].min())
            check(lam > 0.0, f"lambda_min({name}) = {lam:.3e}")


# ---------------------------------------------------------------------------
# README commands through geomflow.cli.main


def cli_rrfs_base_state() -> tuple[rrfs.RRFSState, rrfs.PeriodicGrid]:
    """Initial state the README ``rrfs --grid 64,64 --seed 0`` command builds."""
    sizes = tuple(int(s) for s in CLI_GRID.split(","))
    grid = rrfs.PeriodicGrid(sizes, (2 * math.pi,) * len(sizes))
    return rrfs.random_smooth_state(0, grid, 2), grid


def _fmt(x: float) -> str:
    return repr(float(x))


class CLIReadme:
    """The README's commands, in-process through ``geomflow.cli.main``.

    Op = one command.  Files go to a temporary directory inside the
    checkout's ``.bench_build``.
    """

    name = "cli_readme"

    def __init__(self, seed: int, workdir: Path):
        refs = load_refs()
        entry = seed % NIL3_POOL
        self.seed = seed
        self.nil3_args = cli_nil3_args(seed)
        _match(
            refs["cli_nil3_params"][entry],
            np.array([self.nil3_args[k] for k in ("A0", "B0", "C0", "a", "c0")]),
            "cli_readme",
        )
        self.nil3_ref = refs["cli_nil3_final"][entry]
        self.rrfs_ref = tuple(refs[f"cli_rrfs_{f}"] for f in ("g", "A", "G"))
        self.workdir = Path(tempfile.mkdtemp(prefix="cli_", dir=workdir))

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def commands(self) -> list[tuple[str, list[str]]]:
        a = self.nil3_args
        d = self.workdir
        coupling = f"const:{_fmt(a['c0'])}"
        return [
            ("nil3", ["nil3", "--A0", _fmt(a["A0"]), "--B0", _fmt(a["B0"]),
                      "--C0", _fmt(a["C0"]), "--a", _fmt(a["a"]),
                      "--coupling", coupling, "--t-end", "1e8",
                      "--csv", str(d / "traj.csv"), "--json", str(d / "summary.json")]),
            ("fit", ["fit", "--csv", str(d / "traj.csv"), "--component", "C",
                     "--t-lo", "1e4", "--t-hi", "1e6"]),
            ("fit-log", ["fit", "--csv", str(d / "traj.csv"), "--component", "B",
                         "--t-lo", "1e4", "--t-hi", "1e8", "--mode", "log"]),
            ("blowdown-check", ["blowdown-check", "--coupling", coupling,
                                "--t-end", "1e4", "--s", "0.5", "4"]),
            ("verify-tension", ["verify-tension", "--n-base", "1", "2",
                                "--n-fiber", "3", "--size", "64", "--fields", "5",
                                "--seed", str(self.seed)]),
            ("rrfs", ["rrfs", "--grid", CLI_GRID, "--n-fiber", "2", "--seed", "0",
                      "--mode", "volume", "--t-end", repr(CLI_RRFS_T1),
                      "--csv", str(d / "series.csv"), "--json", str(d / "run.json"),
                      "--out-prefix", str(d / "snap"), "--snapshots", "2"]),
            ("rrfs-restart", ["rrfs", "--init-file", str(d / "snap_001.txt"),
                              "--mode", "volume", "--t-end", repr(CLI_RRFS_T2),
                              "--json", str(d / "run2.json"),
                              "--out-prefix", str(d / "restart"), "--snapshots", "2"]),
        ]

    def run_pass(self, log: OpLog) -> list[float]:
        d = self.workdir
        for old in d.iterdir():
            old.unlink()
        errors = []
        for label, argv in self.commands():
            with log.op(f"cli {label}") as op:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    rc = cli.main(argv)
                op.done()
                check(rc == 0, f"exit code {rc}")
                self._check(label, out.getvalue(), errors)
        return errors

    def _check(self, label: str, stdout: str, errors: list):
        d = self.workdir
        if label == "nil3":
            summary = json.loads((d / "summary.json").read_text())
            rows = np.loadtxt(d / "traj.csv", delimiter=",", skiprows=1, ndmin=2)
            check(rows.shape[1] == 5 and np.all(np.isfinite(rows)), "bad trajectory CSV")
            fin = summary["final_state"]
            err = rel_dev([[fin["A"], fin["B"], fin["C"]]], [self.nil3_ref])
            errors.append(err)
            check(err <= NIL3_REF_TOL, f"nil3 final state off reference by {err:.3e}")
        elif label in ("fit", "fit-log"):
            fit = json.loads(stdout)
            check(math.isfinite(fit["prefactor"]), "fit prefactor not finite")
        elif label == "rrfs":
            run = json.loads((d / "run.json").read_text())
            rows = np.loadtxt(d / "series.csv", delimiter=",", skiprows=1, ndmin=2)
            check(rows.shape == (len(run["times"]), 4), "series CSV does not match JSON")
            check(run["volume_drift"] <= VOLUME_DRIFT_MAX, "volume drift")
            snap = d / "snap_001.txt"
            state, grid = rrfs.load_snapshot(snap)
            rrfs.save_snapshot(state, grid, d / "roundtrip.txt")
            check(snap.read_bytes() == (d / "roundtrip.txt").read_bytes(),
                  "snapshot round trip is not bit-exact")
        elif label == "rrfs-restart":
            json.loads((d / "run2.json").read_text())
            state, _ = rrfs.load_snapshot(d / "restart_001.txt")
            k = CLI_REF_STRIDE
            got = (state.g[::k, ::k], state.A[::k, ::k], state.G[::k, ::k])
            err = rel_dev(got, self.rrfs_ref)
            errors.append(err)
            check(err <= RRFS_REF_TOL, f"rrfs final state off reference by {err:.3e}")


WORKLOADS = {
    "nil3_sweep": Nil3Sweep,
    "rrfs_1d_hmap": RRFS1DHarmonicMap,
    "rrfs_2d_coupled": RRFS2DCoupled,
    "cli_readme": CLIReadme,
}


def build(name: str, seed: int, workdir: Path):
    """Inputs and references of a workload; the benchmark's set-up."""
    if name == "cli_readme":
        return CLIReadme(seed, workdir)
    return WORKLOADS[name](seed)
