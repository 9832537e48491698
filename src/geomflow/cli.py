"""Command-line front end: reproducible scenario runs with CSV/JSON output.

Exit codes: 0 success, 1 parse/integration error, 2 assertion failure
(a verification threshold or invariant was breached).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import nil3, ode, rrfs

# A chosen cap, not a limit of the check: a field takes 0.6 ms or more (2-core x86),
# so a million fields is ten minutes or more; a count such as 2^63 ran without end.
_MAX_FIELDS = 1_000_000


def _parse(option: str, form: str, text: str, parse):
    """``parse(text)``, where a ValueError is a malformed ``text``: it names ``option``
    and the ``form`` that the option takes."""
    try:
        return parse(text)
    except ValueError:
        raise ValueError(f"{option} takes {form}, got {text!r}") from None


def _coupling_values(text: str) -> tuple[float, ...]:
    """The values of ``zero``, ``const:<c0>`` or ``power:<c0>,<r>``."""
    kind, _, values = text.partition(":")
    numbers = () if text == "zero" else tuple(float(v) for v in values.split(","))
    if (kind, len(numbers)) not in (("zero", 0), ("const", 1), ("power", 2)):
        raise ValueError(text)
    return numbers


def parse_coupling(text: str) -> nil3.CouplingSchedule:
    """Parse ``zero``, ``const:<c0>`` or ``power:<c0>,<r>``: the schedule of those values."""
    return nil3.CouplingSchedule(*_parse(
        "--coupling", "the form zero | const:<c0> | power:<c0>,<r>", text, _coupling_values))


def _write_csv(path, header: str, columns):
    rrfs._write_table(path, header, np.column_stack(columns), ",")


def write_nil3_csv(path, traj: ode.Trajectory):
    A, B, C = traj.states.T
    _write_csv(path, "t,A,B,C,Phi", (traj.times, A, B, C, B * C))


def read_nil3_csv(path) -> ode.Trajectory:
    """The trajectory of a CSV that ``write_nil3_csv`` wrote: rows of t, A, B, C, Phi."""
    with open(path) as fh:
        fh.readline()
        data = rrfs._read_table(fh, f"trajectory CSV {path}", 5, ",")
    try:
        return ode.Trajectory(data[:, 0], data[:, 1:4])
    except ValueError as err:
        raise ValueError(f"trajectory CSV {path}: {err}") from None


def _emit_json(path, payload):
    """Write ``payload`` as sorted, indented, strict JSON to ``path``, or to stdout;
    a NaN or infinite number is a ValueError, and then nothing is written."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)


def _nil3_params(args) -> nil3.Nil3Params:
    return nil3.Nil3Params(
        state0=nil3.Nil3State(args.A0, args.B0, args.C0),
        slope=nil3.MapSlope(args.a),
        coupling=parse_coupling(args.coupling),
    )


def cmd_nil3(args) -> int:
    params = _nil3_params(args)
    traj = nil3.integrate_nil3(params, args.t_end, ode.IntegratorConfig(args.rtol, args.atol),
                               samples_per_decade=args.samples_per_decade)
    if args.csv:
        write_nil3_csv(args.csv, traj)

    phi = traj.states[:, 1] * traj.states[:, 2]
    phi_drift = float(np.max(np.abs(phi / params.phi0 - 1.0)))
    report = nil3.bounds_check(traj, params)

    window = (max(args.t_end / 100.0, traj.times[1]), args.t_end)
    fits = {}
    kappa_fit = None
    if nil3.spans_two_decades(*window):
        for comp in "ABC":
            f = nil3.fit_power_law(traj, comp, window)
            fits[comp] = {
                "exponent": f.exponent,
                "prefactor": f.prefactor,
                "r_squared": f.r_squared,
            }

    constants = nil3.predicted_constants(params, alpha=fits.get("A", {}).get("prefactor"))
    if fits and constants["regime"] == "constant":
        kf = nil3.fit_log_growth(traj, "B", window)
        kappa_fit = {"kappa": kf.prefactor, "r_squared": kf.r_squared}

    summary = {
        "config": {"scenario": "nil3", **{k: v for k, v in vars(args).items()
                                          if k not in ("csv", "json", "command", "func")}},
        "phi0": params.phi0,
        "phi_drift": phi_drift,
        "fits": fits,
        "log_growth_B": kappa_fit,
        "predicted_constants": constants,
        "bounds": dataclasses.asdict(report),
        "final_state": {
            "t": float(traj.times[-1]),
            "A": float(traj.states[-1, 0]),
            "B": float(traj.states[-1, 1]),
            "C": float(traj.states[-1, 2]),
        },
    }
    _emit_json(args.json, summary)
    if not report.ok:
        print("bounds check failed:", report.violations, file=sys.stderr)
        return 2
    if phi_drift > 1e-6:
        print(f"conserved product drifted by {phi_drift:.3e}", file=sys.stderr)
        return 2
    return 0


def _mode_values(text: str) -> tuple[str, float]:
    """The mode and s0 of ``--mode``, where a missing s0 is float(""), a ValueError:
    RescalingSpec cannot tell it from 0."""
    mode, sep, s0 = text.partition(":")
    return mode, float(s0) if sep or mode == "constant" else 0.0


def cmd_rrfs(args) -> int:
    if args.init_file:
        state0, grid = rrfs.load_snapshot(args.init_file)
        source = {"init_file": args.init_file}
    else:
        sizes = _parse("--grid", "comma-separated integer axis sizes, such as 64 or 32,32",
                       args.grid, lambda text: [int(x) for x in text.split(",")])
        period = (_parse("--period", "comma-separated axis periods, such as 6.28 or 6.28,1",
                         args.period, lambda text: [float(x) for x in text.split(",")])
                  if args.period else (2 * np.pi,) * len(sizes))
        grid = rrfs.PeriodicGrid(sizes, period)
        init = {"amplitude": args.amplitude, "perturb_g": args.perturb_g,
                "perturb_A": args.perturb_A}
        state0 = rrfs.random_smooth_state(args.seed, grid, args.n_fiber, **init)
        source = {"seed": args.seed, **init}
    spec = rrfs.RescalingSpec(*_parse("--mode", "the form off | constant:<s0> | volume",
                                      args.mode, _mode_values), args.c)

    run = rrfs.integrate_rrfs(state0, grid, spec, args.t_end, evolve_g=not args.freeze_g,
                              evolve_A=not args.freeze_A, n_snapshots=args.snapshots)
    if args.csv:
        _write_csv(args.csv, "t,energy,volume,s",
                   (run.step_times, run.energies, run.volumes, run.s_values))
    if args.out_prefix:
        for i, st in enumerate(run.snapshots):
            rrfs.save_snapshot(st, grid, f"{args.out_prefix}_{i:03d}.txt")
    summary = {
        "config": {
            "scenario": "rrfs",
            "grid": ",".join(str(m) for m in grid.sizes),
            "period": list(grid.period),
            "n_fiber": state0.n_fiber,
            **source,
            "mode": args.mode,
            "c": args.c,
            "t_end": args.t_end,
            "freeze_g": args.freeze_g,
            "freeze_A": args.freeze_A,
        },
        "times": run.step_times.tolist(),
        "energy": run.energies.tolist(),
        "volume": run.volumes.tolist(),
        "s": run.s_values.tolist(),
        "volume_drift": float(
            np.max(np.abs(run.volumes / run.volumes[0] - 1.0))
        ),
    }
    _emit_json(args.json, summary if args.json
               else {k: summary[k] for k in ("config", "volume_drift")})
    return 0


def _tension_gap(seed: int, grid: rrfs.PeriodicGrid, n_fiber: int) -> float:
    """Relative sup-gap of the two tension fields of one seeded state, which
    share the state's geometry bundle; both die when this returns.  The general
    form runs first and forms its connection terms one base-index pair at a
    time, so its temporaries are a few [i, j] fields and meet a bundle that
    does not yet hold G^-1 dG and the gradient square."""
    state = rrfs.random_smooth_state(seed, grid, n_fiber, perturb_g=True)
    gen = rrfs.tension_G_general(state, grid)
    simp = rrfs.tension_G_simplified(state, grid)
    scale = max(float(np.abs(simp).max()), 1e-30)
    return float(np.abs(gen - simp).max()) / scale


def verify_tension(seed: int, n_base: int, n_fiber: int, size: int,
                   n_fields: int) -> float:
    """Max relative sup-gap between the two tension-field constructions, over the
    states seeded ``seed``, ..., ``seed + n_fields - 1``."""
    n_fields = ode._count("n_fields", n_fields, 1, _MAX_FIELDS)
    ode._count("seed", seed, 0, ode._MAX_SEED - (n_fields - 1))
    n_base = ode._count("n_base", n_base, 1, 2)
    worst = 0.0
    grid = rrfs.PeriodicGrid((size,) * n_base, (2 * np.pi,) * n_base)
    for k in range(n_fields):
        worst = max(worst, _tension_gap(seed + k, grid, n_fiber))
    return worst


def cmd_verify_tension(args) -> int:
    ode._check_nonnegative("--threshold", args.threshold)
    worst = max(verify_tension(args.seed, n_base, args.n_fiber, args.size, args.fields)
                for n_base in args.n_base)
    print(f"max tension identity residual: {worst:.3e}")
    return 0 if worst <= args.threshold else 2


def cmd_blowdown_check(args) -> int:
    params = _nil3_params(args)
    traj = nil3.integrate_nil3(params, args.t_end, samples_per_decade=args.samples_per_decade)
    blowdowns = [(s, *nil3.blowdown(params, traj, s)) for s in args.s]  # each s is checked first
    res0 = nil3.flow_residual(traj, params)
    worst_ratio = 0.0
    for s, p_s, t_s in blowdowns:
        res_s = nil3.flow_residual(t_s, p_s)
        worst_ratio = max(worst_ratio, res_s / max(res0, 1e-300))
        print(f"s = {s:g}: residual {res_s:.3e} (source {res0:.3e})")
    return 0 if worst_ratio <= 10.0 else 2


def cmd_fit(args) -> int:
    traj = read_nil3_csv(args.csv)
    window = (args.t_lo, args.t_hi)
    if args.mode == "power":
        f = nil3.fit_power_law(traj, args.component, window)
    else:
        f = nil3.fit_log_growth(traj, args.component, window)
    _emit_json(None, {"component": args.component, **dataclasses.asdict(f)})
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, which ``main`` parses every call with; its
    defaults are immutable, so no call sees a value that another changed."""
    p = argparse.ArgumentParser(
        prog="geomflow",
        description="Coupled Ricci / harmonic-map flow scenarios",
    )
    sub = p.add_subparsers(dest="command", required=True)

    nil3_data = argparse.ArgumentParser(add_help=False)
    nil3_data.add_argument("--A0", type=float, default=1.0)
    nil3_data.add_argument("--B0", type=float, default=1.0)
    nil3_data.add_argument("--C0", type=float, default=1.0)
    nil3_data.add_argument("--a", type=float, default=1.0, help="harmonic map slope")
    nil3_data.add_argument("--coupling", default="zero",
                           help="zero | const:<c0> | power:<c0>,<r>")

    n3 = sub.add_parser("nil3", parents=[nil3_data],
                        help="integrate the Heisenberg-group flow")
    n3.add_argument("--t-end", type=float, default=1e4)
    n3.add_argument("--rtol", type=float, default=1e-9)
    n3.add_argument("--atol", type=float, default=1e-12)
    n3.add_argument("--samples-per-decade", type=int, default=32)
    n3.add_argument("--csv", help="trajectory CSV output path")
    n3.add_argument("--json", help="summary JSON output path")
    n3.set_defaults(func=cmd_nil3)

    rr = sub.add_parser("rrfs", help="integrate the periodic-grid flow")
    rr.add_argument("--grid", default="64", help="comma-separated axis sizes")
    rr.add_argument("--period", help="comma-separated axis periods (default 2*pi)")
    rr.add_argument("--n-fiber", type=int, default=2)
    rr.add_argument("--seed", type=int, default=0)
    rr.add_argument("--amplitude", type=float, default=0.3)
    rr.add_argument("--perturb-g", action="store_true")
    rr.add_argument("--perturb-A", action="store_true")
    rr.add_argument("--init-file", help="start from a saved snapshot")
    rr.add_argument("--mode", default="off", help="off | constant:<s0> | volume")
    rr.add_argument("--c", type=float, default=0.0, help="rescaling coupling constant")
    rr.add_argument("--t-end", type=float, default=1.0)
    rr.add_argument("--freeze-g", action="store_true")
    rr.add_argument("--freeze-A", action="store_true")
    rr.add_argument("--snapshots", type=int, default=5)
    rr.add_argument("--csv", help="t,energy,volume,s series output path")
    rr.add_argument("--json", help="summary JSON output path")
    rr.add_argument("--out-prefix", help="snapshot file prefix")
    rr.set_defaults(func=cmd_rrfs)

    vt = sub.add_parser("verify-tension", help="check the tension-field identity")
    vt.add_argument("--seed", type=int, default=0)
    vt.add_argument("--n-base", type=int, nargs="+", default=(1, 2))
    vt.add_argument("--n-fiber", type=int, default=2)
    vt.add_argument("--size", type=int, default=64)
    vt.add_argument("--fields", type=int, default=5)
    vt.add_argument("--threshold", type=float, default=1e-10)
    vt.set_defaults(func=cmd_verify_tension)

    bd = sub.add_parser("blowdown-check", parents=[nil3_data],
                        help="check blowdown solution closure")
    bd.add_argument("--t-end", type=float, default=1e4)
    bd.add_argument("--samples-per-decade", type=int, default=64)
    bd.add_argument("--s", type=float, nargs="+", default=(0.5, 4.0))
    bd.set_defaults(func=cmd_blowdown_check)

    ft = sub.add_parser("fit", help="fit asymptotics from a trajectory CSV")
    ft.add_argument("--csv", required=True)
    ft.add_argument("--component", choices=["A", "B", "C"], default="A")
    ft.add_argument("--t-lo", type=float, required=True)
    ft.add_argument("--t-hi", type=float, required=True)
    ft.add_argument("--mode", choices=["power", "log"], default="power")
    ft.set_defaults(func=cmd_fit)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError, ode.IntegrationError, rrfs.SPDFieldError,
            rrfs.CFLCollapse) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
