"""Traced run: spans around geomflow's public functions, from outside.

``Tracer.install`` replaces module attributes with timing wrappers, in every
geomflow module that holds the function (so ``nil3.integrate_adaptive``,
imported from ``ode``, is wrapped too), plus four numpy entry points.
Spans live in flat in-memory arrays (name, start, end, parent span, op,
pass, an error flag and a per-span quantity such as bytes); ``save`` writes
them out at the end and ``pass_metrics`` derives self times and counts.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import time
from array import array

import numpy as np
import numpy.linalg

from geomflow import cli, nil3, ode, rrfs, spd

MODULES = (ode, nil3, rrfs, spd, cli)

RHS_TERMS = (
    "rrfs_rhs_terms", "christoffels_of_g", "dA_field", "delta_dA", "laplacian_G",
    "scalar_curvature", "grad_G_norm_sq", "dA_norm_sq", "tension_G_simplified",
    "tension_G_general",
)
NUMPY_PER_RHS = ("inv", "einsum", "roll")
CLI_COMMANDS = ("nil3", "fit", "blowdown-check", "verify-tension", "rrfs")


def _arg_bytes(args, kwargs, result):
    return args[0].nbytes


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[2])


def _steps(args, kwargs, result):
    return len(result.step_times) - 1


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.main.{argv[0]}"


# (module, attribute, span name, per-span quantity)
TARGETS = [
    (ode, "integrate_adaptive", "ode.integrate_adaptive", None),
    (nil3, "flow_residual", "nil3.flow_residual", None),
    (nil3, "fit_power_law", "nil3.fit", None),
    (nil3, "fit_log_growth", "nil3.fit", None),
    (nil3, "bounds_check", "nil3.bounds_check", None),
    (rrfs, "integrate_rrfs", "rrfs.integrate_rrfs", _steps),
    (rrfs, "energy_G", "rrfs.diagnostics", None),
    (rrfs, "volume", "rrfs.diagnostics", None),
    (rrfs, "s_volume", "rrfs.diagnostics", None),
    (rrfs, "rrfs_rhs", "rrfs.rrfs_rhs", None),
    *[(rrfs, f, f"rrfs.{f}", None) for f in RHS_TERMS],
    (rrfs, "d_central", "rrfs.d_central", _arg_bytes),
    (rrfs, "d2_central", "rrfs.d2_central", _arg_bytes),
    (rrfs, "save_snapshot", "rrfs.save_snapshot", _file_bytes),
    (rrfs, "load_snapshot", "rrfs.load_snapshot", None),
    (numpy.linalg, "inv", "numpy.inv", None),
    (np, "einsum", "numpy.einsum", None),
    (np, "roll", "numpy.roll", None),
    (numpy.linalg, "eigvalsh", "numpy.eigvalsh", None),
]


class Tracer:
    """In-memory span recorder; records only between ``begin_op`` and op end."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.qty = array("q")
        self.err = array("b")
        self.op = array("i")
        self.pass_no = array("i")
        self._stack = [-1]
        self._undo: list = []
        self.active = False
        self.current_op = 0
        self.current_pass = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_op(self, op_no: int):
        self.current_op = op_no
        self.active = True

    def wrap(self, fn, name, qty=None, name_of=None):
        """``fn`` recording a span per call while the tracer is active."""
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(self.start)
            self.name.append(self.name_id(name_of(args, kwargs)) if name_of else nid)
            self.parent.append(self._stack[-1])
            self.op.append(self.current_op)
            self.pass_no.append(self.current_pass)
            self.qty.append(0)
            self.err.append(0)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.err[sid] = 1
                raise
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1
            if qty is not None:
                self.qty[sid] = qty(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every target, wherever a geomflow module holds it by name."""
        for module, attr, name, qty in TARGETS:
            orig = getattr(module, attr)
            traced = self.wrap(orig, name, qty)
            for owner in (module,) + MODULES:
                for key, value in list(vars(owner).items()):
                    if value is orig:
                        self._patch(owner, key, traced)
        # the RHS closure that make_system hands to the integrator
        make_system = nil3.make_system

        def traced_make_system(params):
            system = make_system(params)
            return dataclasses.replace(system, rhs=self.wrap(system.rhs, "nil3.rhs"))

        self._patch(nil3, "make_system", traced_make_system)
        # RRFSState construction: symmetrisation and the SPD eigenvalue check
        self._patch(
            rrfs.RRFSState, "__post_init__",
            self.wrap(rrfs.RRFSState.__post_init__, "rrfs.state_check"),
        )
        self._patch(cli, "main", self.wrap(cli.main, "cli.main", name_of=_cli_name))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "qty": np.frombuffer(self.qty, dtype=np.int64),
            "err": np.frombuffer(self.err, dtype=np.int8),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "pass": np.frombuffer(self.pass_no, dtype=np.int32),
        }

    def save(self, path):
        """Write all spans (and the name table) as an uncompressed .npz."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def _self_times(a: dict[str, np.ndarray]) -> np.ndarray:
    dur = a["end"] - a["start"]
    child = np.zeros_like(dur)
    has_parent = a["parent"] >= 0
    np.add.at(child, a["parent"][has_parent], dur[has_parent])
    return dur - child


def _rhs_owner(a: dict[str, np.ndarray], rhs_id: int) -> np.ndarray:
    """Index of each span's nearest ``rrfs_rhs`` ancestor span, or -1."""
    names = a["name"].tolist()
    owner = [-1] * len(names)
    for i, p in enumerate(a["parent"].tolist()):  # parents precede children
        if p >= 0:
            owner[i] = p if names[p] == rhs_id else owner[p]
    return np.array(owner, dtype=np.int64)


def pass_metrics(tr: Tracer, pass_no: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (0 where a layer did no work)."""
    full = tr.arrays()
    sel = full["pass"] == pass_no
    idx = np.flatnonzero(sel)
    remap = np.full(len(sel), -1, dtype=np.int64)
    remap[idx] = np.arange(len(idx))
    a = {k: v[idx] for k, v in full.items()}
    a["parent"] = np.where(a["parent"] >= 0, remap[np.maximum(a["parent"], 0)], -1)
    self_s = _self_times(a)
    ids = {n: i for i, n in enumerate(tr.names)}

    def mask(name):
        return a["name"] == ids.get(name, -1)

    def calls(name):
        return int(mask(name).sum())

    def self_of(name):
        return float(self_s[mask(name)].sum())

    m: dict[str, float] = {}
    # ode / nil3
    m["ode.integrate_adaptive.self_s"] = self_of("ode.integrate_adaptive")
    rhs_per_int = rhs_calls_per_integration(a, ids)
    m["ode.attempted_steps"] = float(sum((n - 1) // 6 for n in rhs_per_int))
    m["nil3.rhs.calls"] = calls("nil3.rhs")
    m["nil3.rhs.self_s"] = self_of("nil3.rhs")
    for f in ("flow_residual", "fit", "bounds_check"):
        m[f"nil3.{f}.self_s"] = self_of(f"nil3.{f}")
    # rrfs step loop
    steps = int(a["qty"][mask("rrfs.integrate_rrfs")].sum())
    loop = ids.get("rrfs.integrate_rrfs", -1)
    halvings = int(
        np.sum(mask("rrfs.state_check") & (a["err"] == 1)
               & (a["name"][np.maximum(a["parent"], 0)] == loop) & (a["parent"] >= 0))
    )
    m["rrfs.integrate_rrfs.self_s"] = self_of("rrfs.integrate_rrfs")
    m["rrfs.state_check.calls"] = calls("rrfs.state_check")
    m["rrfs.state_check.self_s"] = self_of("rrfs.state_check")
    m["rrfs.diagnostics.self_s"] = self_of("rrfs.diagnostics")
    m["rrfs.steps"] = steps
    m["rrfs.halvings"] = halvings
    m["rrfs.accept_ratio"] = steps / (steps + halvings) if steps + halvings else 0.0
    # rrfs right-hand side and geometry
    n_rhs = calls("rrfs.rrfs_rhs")
    m["rrfs.rrfs_rhs.calls"] = n_rhs
    for f in RHS_TERMS:
        m[f"rrfs.{f}.calls"] = calls(f"rrfs.{f}")
        m[f"rrfs.{f}.self_s"] = self_of(f"rrfs.{f}")
    for f in ("d_central", "d2_central"):
        m[f"rrfs.{f}.calls"] = calls(f"rrfs.{f}")
        m[f"rrfs.{f}.self_s"] = self_of(f"rrfs.{f}")
        m[f"rrfs.{f}.bytes_in"] = int(a["qty"][mask(f"rrfs.{f}")].sum())
    # numpy entry points
    in_rhs = _rhs_owner(a, ids.get("rrfs.rrfs_rhs", -1)) >= 0
    for f in NUMPY_PER_RHS:
        k = mask(f"numpy.{f}")
        m[f"numpy.{f}.calls_per_rhs"] = float((k & in_rhs).sum()) / n_rhs if n_rhs else 0.0
        m[f"numpy.{f}.self_s"] = float(self_s[k].sum())
    m["numpy.eigvalsh.calls"] = calls("numpy.eigvalsh")
    m["numpy.eigvalsh.self_s"] = self_of("numpy.eigvalsh")
    # I/O and the command line
    m["rrfs.save_snapshot.self_s"] = self_of("rrfs.save_snapshot")
    m["rrfs.save_snapshot.bytes"] = int(a["qty"][mask("rrfs.save_snapshot")].sum())
    m["rrfs.load_snapshot.self_s"] = self_of("rrfs.load_snapshot")
    for c in CLI_COMMANDS:
        m[f"cli.main.{c}.self_s"] = self_of(f"cli.main.{c}")
    return m


def rhs_calls_per_integration(a: dict[str, np.ndarray], ids: dict[str, int]) -> list[int]:
    """nil3.rhs calls made directly by each integrate_adaptive span, in order."""
    integ = np.flatnonzero(a["name"] == ids.get("ode.integrate_adaptive", -1))
    rhs = a["name"] == ids.get("nil3.rhs", -1)
    counts = np.bincount(a["parent"][rhs & (a["parent"] >= 0)], minlength=len(a["name"]))
    return [int(counts[i]) for i in integ]


def inv_per_rhs(tr: Tracer) -> list[int]:
    """numpy.inv calls inside each rrfs_rhs span, in call order."""
    a = tr.arrays()
    ids = {n: i for i, n in enumerate(tr.names)}
    rhs_id = ids.get("rrfs.rrfs_rhs", -1)
    owner = _rhs_owner(a, rhs_id)
    inv = a["name"] == ids.get("numpy.inv", -1)
    counts = np.bincount(owner[inv & (owner >= 0)], minlength=len(a["name"]))
    return [int(counts[i]) for i in np.flatnonzero(a["name"] == rhs_id)]
