"""Command-line front end: reproducible scenario runs with CSV/JSON output.

Exit codes: 0 success, 1 parse/integration error, 2 assertion failure
(a verification threshold or invariant was breached).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import nil3, ode, rrfs

FLOAT_FMT = "%.17g"


def _fmt(x: float) -> str:
    return FLOAT_FMT % x


def parse_coupling(text: str) -> nil3.CouplingSchedule:
    """Parse ``zero``, ``const:<c0>`` or ``power:<c0>,<r>``."""
    if text == "zero":
        return nil3.CouplingSchedule.zero()
    if text.startswith("const:"):
        return nil3.CouplingSchedule.constant(float(text.split(":", 1)[1]))
    if text.startswith("power:"):
        c0, r = text.split(":", 1)[1].split(",")
        return nil3.CouplingSchedule.power(float(c0), float(r))
    raise ValueError(f"bad coupling spec {text!r}")


def _write_csv(path, header: str, rows):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_nil3_csv(path, traj: ode.Trajectory):
    rows = ((t, A, B, C, B * C) for t, (A, B, C) in zip(traj.times, traj.states))
    _write_csv(path, "t,A,B,C,Phi", rows)


def read_nil3_csv(path) -> ode.Trajectory:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return ode.Trajectory(data[:, 0], data[:, 1:4], samples_per_decade=0)


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not serializable: {type(o)}")


def _dump_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _check_t_end(t_end: float):
    if not (np.isfinite(t_end) and t_end > 0):
        raise ValueError(f"--t-end must be a positive finite number, got {t_end!r}")


def _nil3_params(args) -> nil3.Nil3Params:
    return nil3.Nil3Params(
        state0=nil3.Nil3State(args.A0, args.B0, args.C0),
        slope=nil3.MapSlope(args.a),
        coupling=parse_coupling(args.coupling),
    )


def cmd_nil3(args) -> int:
    _check_t_end(args.t_end)
    params = _nil3_params(args)
    cfg = ode.IntegratorConfig(
        rtol=args.rtol, atol=args.atol, samples_per_decade=args.samples_per_decade
    )
    traj = nil3.integrate_nil3(params, args.t_end, cfg)
    if args.csv:
        write_nil3_csv(args.csv, traj)

    phi = traj.states[:, 1] * traj.states[:, 2]
    phi_drift = float(np.max(np.abs(phi / params.phi0 - 1.0)))
    report = nil3.bounds_check(traj, params)

    window = (max(args.t_end / 100.0, traj.times[1]), args.t_end)
    fits = {}
    kappa_fit = None
    if window[1] / window[0] >= 100 * (1 - 1e-9):
        for comp in "ABC":
            f = nil3.fit_power_law(traj, comp, window)
            fits[comp] = {
                "exponent": f.exponent,
                "prefactor": f.prefactor,
                "r_squared": f.r_squared,
            }
        if params.coupling.kind == "constant":
            kf = nil3.fit_log_growth(traj, "B", window)
            kappa_fit = {"kappa": kf.prefactor, "r_squared": kf.r_squared}

    alpha = fits.get("A", {}).get("prefactor")
    try:
        constants = nil3.predicted_constants(params, alpha=alpha)
    except ValueError:
        constants = {"K": params.state0.A * params.state0.B / (3 * params.state0.C)}

    summary = {
        "config": {
            "scenario": "nil3",
            "A0": args.A0,
            "B0": args.B0,
            "C0": args.C0,
            "a": args.a,
            "coupling": args.coupling,
            "t_end": args.t_end,
            "rtol": args.rtol,
            "atol": args.atol,
            "samples_per_decade": args.samples_per_decade,
        },
        "phi0": params.phi0,
        "phi_drift": phi_drift,
        "fits": fits,
        "log_growth_B": kappa_fit,
        "predicted_constants": constants,
        "bounds": {
            "ok": report.ok,
            "worst_slack": report.worst_slack,
            "violations": report.violations,
        },
        "final_state": {
            "t": float(traj.times[-1]),
            "A": float(traj.states[-1, 0]),
            "B": float(traj.states[-1, 1]),
            "C": float(traj.states[-1, 2]),
        },
    }
    if args.json:
        _dump_json(args.json, summary)
    else:
        print(json.dumps(summary, indent=2, sort_keys=True, default=_json_default))
    if not report.ok:
        print("bounds check failed:", report.violations, file=sys.stderr)
        return 2
    if phi_drift > 1e-6:
        print(f"conserved product drifted by {phi_drift:.3e}", file=sys.stderr)
        return 2
    return 0


def cmd_rrfs(args) -> int:
    _check_t_end(args.t_end)
    if args.init_file:
        state0, grid = rrfs.load_snapshot(args.init_file)
    else:
        sizes = tuple(int(x) for x in args.grid.split(","))
        period = (tuple(float(x) for x in args.period.split(",")) if args.period
                  else (2 * np.pi,) * len(sizes))
        grid = rrfs.PeriodicGrid(sizes, period)
        state0 = rrfs.random_smooth_state(
            args.seed,
            grid,
            args.n_fiber,
            amplitude=args.amplitude,
            perturb_g=args.perturb_g,
            perturb_A=args.perturb_A,
        )
    if args.mode == "volume":
        spec = rrfs.RescalingSpec("volume", c_coupling=args.c)
    elif args.mode.startswith("constant:"):
        spec = rrfs.RescalingSpec(
            "constant", s0=float(args.mode.split(":", 1)[1]), c_coupling=args.c
        )
    elif args.mode == "off":
        spec = rrfs.RescalingSpec("off", c_coupling=args.c)
    else:
        raise ValueError(f"bad rescaling mode {args.mode!r}")

    run = rrfs.integrate_rrfs(
        state0,
        grid,
        spec,
        args.t_end,
        evolve_g=not args.freeze_g,
        evolve_A=not args.freeze_A,
        n_snapshots=args.snapshots,
    )
    if args.csv:
        rows = zip(run.step_times, run.energies, run.volumes, run.s_values)
        _write_csv(args.csv, "t,energy,volume,s", rows)
    if args.out_prefix:
        for i, (ts, st) in enumerate(zip(run.snapshot_times, run.snapshots)):
            rrfs.save_snapshot(st, grid, f"{args.out_prefix}_{i:03d}.txt")
    summary = {
        "config": {
            "scenario": "rrfs",
            "grid": ",".join(str(m) for m in grid.sizes),
            "period": list(grid.period),
            "n_fiber": state0.n_fiber,
            "seed": args.seed,
            "mode": args.mode,
            "c": args.c,
            "t_end": args.t_end,
            "freeze_g": args.freeze_g,
            "freeze_A": args.freeze_A,
        },
        "times": run.step_times,
        "energy": run.energies,
        "volume": run.volumes,
        "s": run.s_values,
        "volume_drift": float(
            np.max(np.abs(run.volumes / run.volumes[0] - 1.0))
        ),
    }
    if args.json:
        _dump_json(args.json, summary)
    else:
        print(
            json.dumps(
                {k: v for k, v in summary.items() if k in ("config", "volume_drift")},
                indent=2,
                sort_keys=True,
            )
        )
    return 0


def verify_tension(seed: int, n_base: int, n_fiber: int, size: int,
                   n_fields: int) -> float:
    """Max relative sup-gap between the two tension-field constructions."""
    worst = 0.0
    grid = rrfs.PeriodicGrid(
        (size,) * n_base, (2 * np.pi,) * n_base
    )
    for k in range(n_fields):
        state = rrfs.random_smooth_state(
            seed + k, grid, n_fiber, perturb_g=True
        )
        simp = rrfs.tension_G_simplified(state, grid)
        gen = rrfs.tension_G_general(state, grid)
        scale = max(float(np.abs(simp).max()), 1e-30)
        worst = max(worst, float(np.abs(gen - simp).max()) / scale)
    return worst


def cmd_verify_tension(args) -> int:
    worst = max(verify_tension(args.seed, n_base, args.n_fiber, args.size, args.fields)
                for n_base in args.n_base)
    print(f"max tension identity residual: {worst:.3e}")
    return 0 if worst <= args.threshold else 2


def cmd_blowdown_check(args) -> int:
    _check_t_end(args.t_end)
    params = _nil3_params(args)
    cfg = ode.IntegratorConfig(samples_per_decade=args.samples_per_decade)
    traj = nil3.integrate_nil3(params, args.t_end, cfg)
    res0 = nil3.flow_residual(traj, params)
    worst_ratio = 0.0
    for s in args.s:
        p_s, t_s = nil3.blowdown(params, traj, s)
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
    print(
        json.dumps(
            {
                "component": args.component,
                "mode": f.mode,
                "exponent": f.exponent,
                "prefactor": f.prefactor,
                "r_squared": f.r_squared,
                "window": list(f.window),
            },
            indent=2,
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
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
    vt.add_argument("--n-base", type=int, nargs="+", default=[1, 2])
    vt.add_argument("--n-fiber", type=int, default=2)
    vt.add_argument("--size", type=int, default=64)
    vt.add_argument("--fields", type=int, default=5)
    vt.add_argument("--threshold", type=float, default=1e-10)
    vt.set_defaults(func=cmd_verify_tension)

    bd = sub.add_parser("blowdown-check", parents=[nil3_data],
                        help="check blowdown solution closure")
    bd.add_argument("--t-end", type=float, default=1e4)
    bd.add_argument("--samples-per-decade", type=int, default=64)
    bd.add_argument("--s", type=float, nargs="+", default=[0.5, 4.0])
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
    except (ValueError, OSError, ode.IntegrationError, rrfs.SPDFieldError,
            rrfs.CFLCollapse) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
