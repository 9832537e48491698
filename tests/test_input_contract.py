"""The input contract, by enumeration rather than by sampling.

Every value that comes from outside is checked once, by the type or function
it fills.  Each case below swaps one argument for one value of ``EDGES`` and
has a stable id, ``<command or call>-<argument>=<value>``.

* CLI: each README command runs through ``cli.main`` in process, in its own
  directory, with one numeric option swapped (or a pair of them, ``PAIRS``).
  The exit code is 0, 1 or 2 and no traceback or warning escapes.  Exit 1
  writes one ``error: ...`` line to stderr and nothing else there; argparse's
  exit 2 for a value its type cannot read ends stderr with
  ``geomflow <command>: error: ...``; a returned 2 is a verification failure.
  On exit 0 every JSON output is strict JSON, every CSV and snapshot parses,
  and every number in them, and in the text on stdout, is finite (or null).
  A few cases read a trajectory CSV or a snapshot of ``FILES`` that its reader
  refuses, by a message that names the file.
* Library: the public constructors and functions return a value or raise one
  of the package's own exceptions, never ``ZeroDivisionError``,
  ``OverflowError``, ``TypeError``, ``IndexError`` or a numpy warning.

The message tables pin, by the same case ids, the text of a rejection: one row
for each place that applies one of ``ode``'s numeric rules, for the grammar of
the options read as text, and for boundaries the enumeration lacks; where the
rest of the text is numpy's, the start that the program writes.  A
message-only per-module test is folded here only into rows of its own, one new
row for each of its ids; the ones that predate this rule stay where they are.
"""

import functools
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from geomflow import cli, nil3, ode, rrfs, spd

EDGES = ["0", "-0.0", "5e-324", "1e-300", "-1", "1e300", "1.7976931348623157e308",
         "inf", "-inf", "nan"]
# integer options and arguments also get a non-integer, and integers past int64 and
# past the largest double, which a case id names by their power
BIG_INTS = {"2**63": 2**63, "10**400": 10**400}
INT_EDGES = EDGES + ["2.5", *BIG_INTS]

OWN_ERRORS = (ValueError, rrfs.SPDFieldError, ode.IntegrationError, rrfs.CFLCollapse)

# ---------------------------------------------------------------------------
# CLI

# README commands on 16-node grids and short horizons (nil3 runs to t = 100, the
# shortest whose fit window spans the two decades the fits need); TRAJ is the fit input
TRAJ = "traj_1e8.csv"
COMMANDS = {
    "nil3": ["nil3", "--A0", "1", "--B0", "1", "--C0", "1", "--a", "1",
             "--coupling", "const:0.5", "--t-end", "100", "--csv", "traj.csv",
             "--json", "summary.json"],
    "rrfs": ["rrfs", "--grid", "16", "--n-fiber", "2", "--seed", "0", "--mode", "volume",
             "--t-end", "0.01", "--csv", "series.csv", "--json", "run.json",
             "--out-prefix", "snap"],
    "verify-tension": ["verify-tension", "--n-base", "1", "2", "--n-fiber", "3",
                       "--size", "16", "--fields", "5"],
    "blowdown-check": ["blowdown-check", "--coupling", "const:0.5", "--t-end", "10",
                       "--s", "0.5", "4"],
    "fit": ["fit", "--csv", TRAJ, "--component", "C", "--t-lo", "1e4", "--t-hi", "1e6"],
    "fit-log": ["fit", "--csv", TRAJ, "--component", "B", "--t-lo", "1e4", "--t-hi", "1e6",
                "--mode", "log"],
}
NIL3_DATA = ["--A0", "--B0", "--C0", "--a", "--coupling=const:{}", "--coupling=power:{},0.3",
             "--coupling=power:0.5,{}"]
FLOAT_OPTIONS = {
    "nil3": NIL3_DATA + ["--t-end", "--rtol", "--atol"],
    "rrfs": ["--period", "--amplitude", "--c", "--mode=constant:{}", "--t-end"],
    "verify-tension": ["--threshold"],
    "blowdown-check": NIL3_DATA + ["--t-end", "--s"],
    "fit": ["--t-lo", "--t-hi"],
    "fit-log": ["--t-lo", "--t-hi"],
}
INT_OPTIONS = {
    "nil3": ["--samples-per-decade"],
    "rrfs": ["--grid", "--n-fiber", "--seed", "--snapshots"],
    "verify-tension": ["--n-base", "--n-fiber", "--size", "--fields", "--seed"],
    "blowdown-check": ["--samples-per-decade"],
}
# outcomes fixed beyond the contract, by case (a pair's options and values are tuples):
# the exit code, and the predicted constant that the JSON summary gives as null
PINNED = {
    # about 1e301 CFL steps, past the step cap: refused before the first step
    ("rrfs", "--t-end", "1e300"): (1, None),
    ("rrfs", "--t-end", "1.7976931348623157e308"): (1, None),
    # valid runs whose K = A0 B0 / (3 C0) or kappa_B2 = Phi / (a^2 c0) overflows
    ("nil3", "--C0", "5e-324"): (0, "K"),
    ("nil3", "--coupling=const:{}", "5e-324"): (0, "kappa_B2"),
    # the trajectory is written, then B^2 of the log-growth fit overflows
    ("nil3", ("--A0", "--B0"), ("1e200", "1e200")): (1, None),
    # PAIRS whose A B underflows to 0: the regime-scaled log variables never form it
    ("nil3", ("--A0", "--B0"), ("1e-200", "1e-200")): (0, None),
    ("nil3", ("--A0", "--B0"), ("1e-300", "1e-300")): (0, None),
    # PAIRS refused with a message form that CLI_MESSAGES pins for another pair
    ("blowdown-check", ("--A0", "--s"), ("1.7976931348623157e308", "4")): (1, None),
    ("blowdown-check", ("--a", "--s"), ("0", "1e-200")): (1, None),
}
# pairs of values that are each fine alone but not together, as (command, options,
# values); each ended in a traceback, a NaN verdict or a message naming another value
PAIRS = [
    ("nil3", ("--A0", "--B0"), ("1e-200", "1e-200")),  # A B underflows to 0 (exit 0)
    ("nil3", ("--A0", "--B0"), ("1e-300", "1e-300")),
    # A0 B0 overflows in the lower bound of C, which is checked before the fits
    ("nil3", ("--A0", "--B0"), ("1e200", "1e200")),
    # A B and C^2 overflow in the residual: of the blown-down run, or of the source
    ("blowdown-check", ("--a", "--s"), ("0", "1e-160")),
    ("blowdown-check", ("--A0", "--s"), ("1.7976931348623157e308", "4")),
    # the blowdown overflows the coupling, or takes a positive c0 to 0
    ("blowdown-check", ("--coupling=const:{}", "--s"), ("1e300", "1e5")),
    ("blowdown-check", ("--coupling=const:{}", "--s"), ("5e-324", "0.5")),
    ("blowdown-check", ("--a", "--s"), ("0", "1e-200")),
    # rtol / 10 + atol overflows, which named atol as inf
    ("nil3", ("--rtol", "--atol"), ("1.7976931348623157e308", "1.7976931348623157e308")),
    # fit windows in the trajectory's range that hold no sample, or only t = 0.0746
    ("fit", ("--t-lo", "--t-hi"), ("1e-6", "1e-4")),
    ("fit", ("--t-lo", "--t-hi"), ("1e-3", "1e-1")),
    ("fit-log", ("--t-lo", "--t-hi"), ("1e-6", "1e-4")),
    ("fit-log", ("--t-lo", "--t-hi"), ("1e-3", "1e-1")),
]
# text inputs that their reader refuses, by file name; a case reads one from its directory
FILES = {
    "header.csv": "t,A,B,C,Phi\n",
    "t_and_A.csv": "t,A\n0,1\n1,2\n",
    "nan_time.csv": "t,A,B,C,Phi\n0,1,1,1,1\nnan,2,2,1,2\n10,3,3,1,3\n",
    "header.txt": "1 1 8 6.2831853071795862\n",
    "size_x.txt": "1 x 8 6.28\n",
    "size_8.5.txt": "1 1 8.5 6.28\n",
    "period_abc.txt": "1 1 8 abc\n",
    # a base dimension other than 1 or 2, a negative fiber dimension, an axis field short
    "n_3.txt": "3 1 8 8 8 1 1 1\n",
    "N_-1.txt": "1 -1 8 6.28\n",
    "axes_3.txt": "1 1 8 8 6.28\n",
    # header values that the grid or the state refuses
    "N_0.txt": "1 0 8 6.28\n" + "1\n" * 8,
    "size_7.txt": "1 1 7 6.28\n",
    "period_-1.txt": "1 1 8 -1\n",
    # a non-numeric entry in a row
    "entry_abc.txt": "1 1 8 6.28\n1 0 abc\n",
    "entry_abc.csv": "t,A,B,C,Phi\n0,1,1,1,1\n1,abc,2,1,2\n",
}
FILE_CASES = [("fit", "--csv", name) if name.endswith(".csv") else ("rrfs", "--init-file", name)
              for name in FILES]


def _settings(option, value):
    """The (option, value) pairs of a case, which sets one option or a tuple of them."""
    return zip(option, value) if isinstance(option, tuple) else [(option, value)]


def _case_id(command, option, value) -> str:
    return f"{command}-" + ",".join(f"{o}={v}" for o, v in _settings(option, value))


def _swap(argv: list, option: str, value: str) -> list:
    """``argv`` with ``option`` (``--flag`` or ``--flag=template``) set to ``value``
    alone, as one ``--flag=value`` token, so that argparse reads ``-inf`` as a value;
    a value list such as ``--s 0.5 4`` or ``--n-base 1 2`` becomes one value."""
    flag, _, template = option.partition("=")
    out = list(argv)
    if flag in out:
        start = end = out.index(flag)
        end += 1
        while end < len(out) and not out[end].startswith("--"):
            end += 1
        del out[start:end]
    return out + [f"{flag}={(template or '{}').format(value)}"]


CLI_CASES = [pytest.param(*case, id=_case_id(*case)) for case in [
    (command, option, value)
    for command in COMMANDS
    for options, values in ((FLOAT_OPTIONS, EDGES), (INT_OPTIONS, INT_EDGES))
    for option in options.get(command, [])
    for value in values
] + PAIRS + FILE_CASES]


@pytest.fixture(scope="module")
def trajectory(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("fit") / TRAJ
    assert cli.main(["nil3", "--coupling", "const:0.5", "--t-end", "1e8",
                     "--csv", str(path), "--json", str(path.with_suffix(".json"))]) == 0
    return path


def _strict_json(text: str):
    def reject(token):
        raise AssertionError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


def _numbers(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)
    elif isinstance(obj, float):
        yield obj


def _check_outputs(directory: Path, stdout: str):
    for path in sorted(directory.iterdir()):
        if path.suffix == ".json":
            numbers = list(_numbers(_strict_json(path.read_text())))
        else:  # a CSV or a snapshot: one header line, then a table of floats
            numbers = np.loadtxt(path, delimiter="," if path.suffix == ".csv" else None,
                                 skiprows=1, ndmin=2).ravel().tolist()
        assert all(map(math.isfinite, numbers)), path.name
    if stdout.startswith("{"):
        assert all(map(math.isfinite, _numbers(_strict_json(stdout))))
    assert not re.search(r"\b(nan|inf)", stdout, re.IGNORECASE), stdout


def _write_input(directory: Path, value) -> list:
    """Write the file of ``FILES`` that a case's value names into ``directory``: its
    name, or no name."""
    if value not in FILES:
        return []
    (directory / value).write_text(FILES[value])
    return [value]


def _argv(command: str, option, value, trajectory: Path) -> list:
    argv = COMMANDS[command]
    for o, v in _settings(option, value):
        argv = _swap(argv, o, str(BIG_INTS.get(v, v)))
    return [str(trajectory) if a == TRAJ else a for a in argv]


@pytest.mark.parametrize("command, option, value", CLI_CASES)
def test_cli_case(command, option, value, trajectory, tmp_path, monkeypatch, capsys):
    argv = _argv(command, option, value, trajectory)
    monkeypatch.chdir(tmp_path)
    _write_input(tmp_path, value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code, usage_error = cli.main(argv), False
        except SystemExit as exc:  # argparse: a value its type cannot read
            code, usage_error = exc.code, True
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    pinned_code, null = PINNED.get((command, option, value), (code, None))
    assert code == pinned_code, err
    assert "Traceback" not in err
    if usage_error:
        assert code == 2 and re.match(r"geomflow [\w-]+: error: ", err.splitlines()[-1]), err
    elif code == 1:
        assert re.fullmatch(r"error: [^\n]+\n", err), err
    elif code == 0:
        _check_outputs(tmp_path, out)
        if null:
            summary = json.loads((tmp_path / "summary.json").read_text())
            assert summary["predicted_constants"][null] is None


@pytest.mark.parametrize("mode", ["constant", "constant:"])
def test_rrfs_constant_mode_without_s0(mode, tmp_path, monkeypatch, capsys):
    """A missing s0 is named as such, with the form that constant mode takes."""
    monkeypatch.chdir(tmp_path)
    assert cli.main(_swap(COMMANDS["rrfs"], "--mode", mode)) == 1
    err = capsys.readouterr().err
    assert err == f"error: {MODE_FORM}, got {mode!r}\n"
    assert not list(tmp_path.iterdir())


def test_cli_cases_cover_every_numeric_option():
    """Each subcommand's options of a numeric type are all swapped in some case."""
    subcommands = next(a for a in cli.build_parser()._actions if a.choices).choices
    numeric = {(name, a.option_strings[0]) for name, parser in subcommands.items()
               for a in parser._actions if a.type in (int, float)}
    swapped = {(COMMANDS[command][0], option.partition("=")[0])
               for options in (FLOAT_OPTIONS, INT_OPTIONS)
               for command, opts in options.items() for option in opts}
    assert numeric <= swapped, numeric - swapped


# ---------------------------------------------------------------------------
# library


@functools.cache
def _params(r: float = 0.3, a: float = 1.0, c0: float = 0.5) -> nil3.Nil3Params:
    return nil3.Nil3Params(nil3.Nil3State(1.0, 1.0, 1.0), nil3.MapSlope(a),
                           nil3.CouplingSchedule.power(c0, r))


@functools.cache
def _trajectory(t_end: float = 10.0, a: float = 1.0, c0: float = 0.5) -> ode.Trajectory:
    return nil3.integrate_nil3(_params(a=a, c0=c0), t_end)


GRID = rrfs.PeriodicGrid((16,), (2 * np.pi,))
OFF = rrfs.RescalingSpec("off")


def _state(**fields) -> rrfs.RRFSState:
    base = {"g": np.ones((16, 1, 1)), "A": np.zeros((16, 1, 2)),
            "G": np.broadcast_to(np.eye(2), (16, 2, 2))}
    return rrfs.RRFSState(**{**base, **fields})


def _decay(t, y):
    return -y


def _adaptive(t0=0.0, t1=10.0, B0=1.0, tol=1e-10):
    """The Nil3 system in ``make_system``'s log variables, sampled at tau = t0 and t1: its
    steps grow with tau, and past tau = 709 e^tau overflows to a NonFiniteState.  y' = -y,
    whose steps its stability bounds, would run into the 1e6-step cap after over 30 s."""
    return ode.integrate_adaptive(nil3.make_system(_params()), [t0, t1], [1.0, B0, 1.0], tol)


LIBRARY = {
    "Nil3State.A": lambda v: nil3.Nil3State(v, 1.0, 1.0),
    "Nil3State.B": lambda v: nil3.Nil3State(1.0, v, 1.0),
    "Nil3State.C": lambda v: nil3.Nil3State(1.0, 1.0, v),
    "MapSlope.a": nil3.MapSlope,
    "MapSlope.blowdown.s": lambda v: nil3.MapSlope(1.0).blowdown(v),
    "CouplingSchedule.c0": lambda v: nil3.CouplingSchedule(v, 0.3),
    "CouplingSchedule.r": lambda v: nil3.CouplingSchedule(0.5, v),
    "CouplingSchedule.time_scale": lambda v: nil3.CouplingSchedule(0.5, 0.3, v),
    "CouplingSchedule.blowdown.s": lambda v: nil3.CouplingSchedule(0.5, 0.3).blowdown(v),
    "Nil3Params.f.t": lambda v: _params().f(v),
    "Nil3Params.f.a": lambda v: _params(a=v).f(1.0),
    "predicted_constants.alpha.r0.3": lambda v: nil3.predicted_constants(_params(), v),
    "predicted_constants.alpha.r2": lambda v: nil3.predicted_constants(_params(2.0), v),
    "predicted_constants.a": lambda v: nil3.predicted_constants(_params(a=v), 1.0),
    "exact_ricci_solution.t": lambda v: nil3.exact_ricci_solution(v, 1.0, 1.0),
    "exact_ricci_solution.A0": lambda v: nil3.exact_ricci_solution(1.0, v, 1.0),
    "exact_ricci_solution.C0": lambda v: nil3.exact_ricci_solution(1.0, 1.0, v),
    "exact_ricci_solution.B0": lambda v: nil3.exact_ricci_solution(1.0, 1.0, 1.0, v),
    "blowdown.s": lambda v: nil3.blowdown(_params(), _trajectory(), v),
    # with a = 0 a small s still stops before the times: 1 / s overflows the initial
    # state (s = 5e-324), or s^2 c0 underflows the coupling to 0 (s = 1e-300)
    "blowdown.s.a0.t1e9": lambda v: nil3.blowdown(_params(a=0.0), _trajectory(1e9, 0.0), v),
    # with zero coupling too, s = 1e-300 reaches the times: t / s overflows past t = 1.8e8
    "blowdown.s.zero.a0.t1e9": lambda v: nil3.blowdown(_params(a=0.0, c0=0.0),
                                                       _trajectory(1e9, 0.0, 0.0), v),
    "IntegratorConfig.rtol": lambda v: ode.IntegratorConfig(rtol=v),
    "IntegratorConfig.atol": lambda v: ode.IntegratorConfig(atol=v),
    "log_sample_times.t0": lambda v: ode.log_sample_times(v, 10.0, 32),
    "log_sample_times.t1": lambda v: ode.log_sample_times(0.0, v, 32),
    "rk4_step.t": lambda v: ode.rk4_step(_decay, v, np.ones(2), 0.1),
    "rk4_step.y": lambda v: ode.rk4_step(_decay, 0.0, np.full(2, v), 0.1),
    "rk4_step.h": lambda v: ode.rk4_step(_decay, 0.0, np.ones(2), v),
    "integrate_adaptive.t0": lambda v: _adaptive(t0=v),
    "integrate_adaptive.t1": lambda v: _adaptive(t1=v),
    "integrate_adaptive.y0": lambda v: _adaptive(B0=v),
    "integrate_adaptive.tol": lambda v: _adaptive(tol=v),
    # a step count past the step cap is refused before the first step
    "integrate_fixed.h": lambda v: ode.integrate_fixed(_decay, 0.0, 1.0, np.ones(2), v),
    "integrate_fixed.t1": lambda v: ode.integrate_fixed(_decay, 0.0, v, np.ones(2), 0.1),
    "PeriodicGrid.period": lambda v: rrfs.PeriodicGrid((16,), (v,)),
    "RescalingSpec.s0": lambda v: rrfs.RescalingSpec("constant", s0=v),
    "RescalingSpec.c_coupling": lambda v: rrfs.RescalingSpec("volume", c_coupling=v),
    "RRFSState.g": lambda v: _state(g=np.full((16, 1, 1), v)),
    "RRFSState.A": lambda v: _state(A=np.full((16, 1, 2), v)),
    "RRFSState.G": lambda v: _state(G=np.broadcast_to(np.diag([v, v]), (16, 2, 2))),
    "random_smooth_state.amplitude": lambda v: rrfs.random_smooth_state(0, GRID, 2, v),
    "integrate_rrfs.t_end": lambda v: rrfs.integrate_rrfs(_state(), GRID, OFF, v),
    "integrate_rrfs.kappa_cfl": lambda v: rrfs.integrate_rrfs(_state(), GRID, OFF, 0.01,
                                                              kappa_cfl=v),
    "SPDMatrix": lambda v: spd.SPDMatrix(np.diag([v, v])),
    "random_spd.cond_max": lambda v: spd.random_spd(0, 2, v),
}
INT_LIBRARY = {
    "integrate_nil3.samples_per_decade": lambda v: nil3.integrate_nil3(
        _params(), 10.0, samples_per_decade=v),
    "log_sample_times.samples_per_decade": lambda v: ode.log_sample_times(0.0, 10.0, v),
    "PeriodicGrid.sizes": lambda v: rrfs.PeriodicGrid((v,), (2 * np.pi,)),
    "random_smooth_state.seed": lambda v: rrfs.random_smooth_state(v, GRID, 2),
    "random_smooth_state.n_fiber": lambda v: rrfs.random_smooth_state(0, GRID, v),
    "integrate_rrfs.n_snapshots": lambda v: rrfs.integrate_rrfs(_state(), GRID, OFF, 0.01,
                                                                n_snapshots=v),
    # the 4-node grid is refused once the count passes, so no count runs a field
    "verify_tension.n_fields": lambda v: cli.verify_tension(0, 1, 2, 4, v),
    "random_spd.seed": lambda v: spd.random_spd(v, 2),
    "random_spd.N": lambda v: spd.random_spd(0, v),
}


def _value(text: str):
    """The number of an edge: an int for ``BIG_INTS``, else a float."""
    return BIG_INTS[text] if text in BIG_INTS else float(text)


LIBRARY_CASES = [
    pytest.param(call, _value(value), id=f"{name}={value}")
    for table, values in ((LIBRARY, EDGES), (INT_LIBRARY, INT_EDGES))
    for name, call in table.items()
    for value in values
]


@pytest.mark.parametrize("call, value", LIBRARY_CASES)
def test_library_case(call, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(value)
        except OWN_ERRORS:
            pass


# ---------------------------------------------------------------------------
# messages

GRID_FORM = "--grid takes comma-separated integer axis sizes, such as 64 or 32,32"
PERIOD_FORM = "--period takes comma-separated axis periods, such as 6.28 or 6.28,1"
MODE_FORM = "--mode takes the form off | constant:<s0> | volume"
COUPLING_FORM = "--coupling takes the form zero | const:<c0> | power:<c0>,<r>"

# The message of a CLI rejection, by case; the case exits 1, writes "error: <message>"
# alone to stderr and nothing to stdout or to a file.  Text values are the grammar of
# the options read as text, which the enumeration does not swap.
CLI_MESSAGES = {
    # ode._check_positive
    ("nil3", "--A0", "-1"): "A must be positive and finite, got -1.0",
    ("nil3", "--B0", "0"): "B must be positive and finite, got 0.0",
    ("nil3", "--C0", "nan"): "C must be positive and finite, got nan",
    ("nil3", "--rtol", "-0.0"): "rtol must be positive and finite, got -0.0",
    ("nil3", "--atol", "inf"): "atol must be positive and finite, got inf",
    ("nil3", "--rtol", "nan"): "rtol must be positive and finite, got nan",
    ("nil3", "--atol", "nan"): "atol must be positive and finite, got nan",
    ("nil3", "--t-end", "0"): "t_end must be positive and finite, got 0.0",
    ("blowdown-check", "--s", "-inf"): "blowdown scale s must be positive and finite, got -inf",
    ("rrfs", "--period", "-1"): "period must be positive and finite, got -1.0",
    ("rrfs", "--period", "nan"): "period must be positive and finite, got nan",
    ("rrfs", "--period", "inf"): "period must be positive and finite, got inf",
    ("rrfs", "--period", "-inf"): "period must be positive and finite, got -inf",
    ("rrfs", "--t-end", "nan"): "t_end must be positive and finite, got nan",
    # ode._check_finite
    ("nil3", "--a", "nan"): "slope a must be finite, got nan",
    ("rrfs", "--amplitude", "inf"): "amplitude must be finite, got inf",
    ("rrfs", "--mode=constant:{}", "nan"): "s0 must be finite, got nan",
    ("rrfs", "--mode=constant:{}", "inf"): "s0 must be finite, got inf",
    ("rrfs", "--mode=constant:{}", "-inf"): "s0 must be finite, got -inf",
    ("rrfs", "--c", "nan"): "c_coupling must be finite, got nan",
    # ode._check_nonnegative
    ("nil3", "--coupling=const:{}", "-1"): "c0 must be finite and >= 0, got -1.0",
    ("blowdown-check", "--coupling=power:0.5,{}", "inf"): "r must be finite and >= 0, got inf",
    ("verify-tension", "--threshold", "nan"): "--threshold must be finite and >= 0, got nan",
    # ode._count
    ("rrfs", "--n-fiber", "0"): "n_fiber must be an integer >= 1, got 0",
    ("rrfs", "--seed", "-1"): "seed must be an integer >= 0, got -1",
    ("verify-tension", "--fields", "0"): "n_fields must be an integer >= 1, got 0",
    ("rrfs", "--snapshots", "1"): "n_snapshots must be an integer >= 2, got 1",
    ("rrfs", "--snapshots", "0"): "n_snapshots must be an integer >= 2, got 0",
    ("rrfs", "--snapshots", "-1"): "n_snapshots must be an integer >= 2, got -1",
    ("nil3", "--samples-per-decade", "0"): "samples_per_decade must be an integer >= 1, got 0",
    ("nil3", "--samples-per-decade", "-1"): "samples_per_decade must be an integer >= 1, got -1",
    ("blowdown-check", "--samples-per-decade", "0"):
        "samples_per_decade must be an integer >= 1, got 0",
    ("blowdown-check", "--samples-per-decade", "-1"):
        "samples_per_decade must be an integer >= 1, got -1",
    ("rrfs", "--seed", "10**400"): f"seed must be an integer <= {2**64 - 1}, got {10**400}",
    ("rrfs", "--snapshots", "2**63"): f"n_snapshots must be an integer <= 1000001, got {2**63}",
    ("rrfs", "--grid", "2**63"): f"grid size must be an integer <= 1048576, got {2**63}",
    ("rrfs", "--n-fiber", "2**63"): f"n_fiber must be an integer <= 1048576, got {2**63}",
    ("verify-tension", "--size", "2**63"): f"grid size must be an integer <= 1048576, got {2**63}",
    # each count within ode._MAX_SIZE, their state past ode._MAX_STATE_SIZE floats: refused
    # before the first field is allocated
    ("rrfs", "--grid", "1048576,1048576"): "grid 1048576x1048576 with fiber dimension 2 "
                                           "needs 13194139533312 floats per state, more "
                                           "than 134217728",
    ("rrfs", "--n-fiber", "1048576"): "grid 16 with fiber dimension 1048576 needs "
                                      "17592202821648 floats per state, more than 134217728",
    # the line of a fit needs two samples
    ("fit", ("--t-lo", "--t-hi"), ("1e-6", "1e-4")):
        "number of samples in the fit window must be an integer >= 2, got 0",
    ("fit-log", ("--t-lo", "--t-hi"), ("1e-3", "1e-1")):
        "number of samples in the fit window must be an integer >= 2, got 1",
    # grammar
    ("rrfs", "--grid", "16,"): f"{GRID_FORM}, got '16,'",
    ("rrfs", "--grid", ",16"): f"{GRID_FORM}, got ',16'",
    ("rrfs", "--grid", "2.5"): f"{GRID_FORM}, got '2.5'",
    ("rrfs", "--period", "1,"): f"{PERIOD_FORM}, got '1,'",
    ("rrfs", "--mode", "volume:"): f"{MODE_FORM}, got 'volume:'",
    ("rrfs", "--mode", "off:"): f"{MODE_FORM}, got 'off:'",
    ("rrfs", "--mode", "constant:x"): f"{MODE_FORM}, got 'constant:x'",
    ("rrfs", "--mode", "volume:3"): "rescaling mode 'volume' takes no s0, got 3.0",
    ("rrfs", "--mode", "banana"): "unknown rescaling mode 'banana'",
    ("nil3", "--coupling", "bogus"): f"{COUPLING_FORM}, got 'bogus'",
    ("nil3", "--coupling", "const:"): f"{COUPLING_FORM}, got 'const:'",
    ("nil3", "--coupling", "power:1"): f"{COUPLING_FORM}, got 'power:1'",
    ("nil3", "--coupling", "power:1,2,3"): f"{COUPLING_FORM}, got 'power:1,2,3'",
    ("nil3", "--coupling", "power:"): f"{COUPLING_FORM}, got 'power:'",
    ("blowdown-check", "--coupling", "zero:1"): f"{COUPLING_FORM}, got 'zero:1'",
    # bounds beyond the four rules: A0 / s overflows for the first s, 0.5
    ("blowdown-check", "--A0", "1.7976931348623157e308"):
        "the blowdown by s = 0.5 overflows the initial state",
    # PAIRS
    ("blowdown-check", ("--a", "--s"), ("0", "1e-160")):
        "flow residual must be finite, got nan",
    ("nil3", ("--rtol", "--atol"), ("1.7976931348623157e308", "1.7976931348623157e308")):
        "rtol / 10 + atol overflows, got rtol 1.7976931348623157e+308 and atol "
        "1.7976931348623157e+308",
    # c0 s s keeps a zero coupling 0; the residual's C C / (A B) underflows to NaN
    ("blowdown-check", ("--a", "--coupling", "--s"), ("0", "zero", "1e200")):
        "flow residual must be finite, got nan",
    ("blowdown-check", ("--coupling=const:{}", "--s"), ("1e300", "1e5")):
        "the blowdown by s = 100000.0 overflows the coupling",
    ("blowdown-check", ("--coupling=const:{}", "--s"), ("5e-324", "0.5")):
        "the blowdown by s = 0.5 underflows the coupling to 0",
    # FILES
    ("fit", "--csv", "header.csv"): "trajectory CSV header.csv holds no rows after its header",
    ("fit", "--csv", "t_and_A.csv"): "trajectory CSV t_and_A.csv has rows of 2 numbers, not 5",
    ("fit", "--csv", "nan_time.csv"):
        "trajectory CSV nan_time.csv: times must be strictly increasing",
    ("rrfs", "--init-file", "header.txt"): "snapshot header.txt holds no rows after its header",
    ("rrfs", "--init-file", "size_x.txt"):
        "malformed snapshot header in size_x.txt: '1 x 8 6.28'",
    ("rrfs", "--init-file", "size_8.5.txt"):
        "malformed snapshot header in size_8.5.txt: '1 1 8.5 6.28'",
    ("rrfs", "--init-file", "period_abc.txt"):
        "malformed snapshot header in period_abc.txt: '1 1 8 abc'",
    ("rrfs", "--init-file", "n_3.txt"):
        "malformed snapshot header in n_3.txt: '3 1 8 8 8 1 1 1'",
    ("rrfs", "--init-file", "N_-1.txt"): "malformed snapshot header in N_-1.txt: '1 -1 8 6.28'",
    ("rrfs", "--init-file", "axes_3.txt"):
        "malformed snapshot header in axes_3.txt: '1 1 8 8 6.28'",
    ("rrfs", "--init-file", "N_0.txt"):
        "snapshot N_0.txt: fiber dimension must be an integer >= 1, got 0",
    ("rrfs", "--init-file", "size_7.txt"):
        "snapshot size_7.txt: grid size must be an integer >= 8, got 7",
    ("rrfs", "--init-file", "period_-1.txt"):
        "snapshot period_-1.txt: period must be positive and finite, got -1.0",
}
# The start of a CLI rejection that the program writes, by case, where the rest is
# numpy's parse error, whose wording is numpy's; the line names the entry it refused.
CLI_MESSAGE_PREFIXES = {
    ("rrfs", "--init-file", "entry_abc.txt"): "snapshot entry_abc.txt: ",
    ("fit", "--csv", "entry_abc.csv"): "trajectory CSV entry_abc.csv: ",
}

# The message of a library rejection, by case; the case raises ValueError.
LIBRARY_MESSAGES = {
    # ode._check_positive
    ("Nil3State.A", "0"): "A must be positive and finite, got 0.0",
    ("IntegratorConfig.rtol", "nan"): "rtol must be positive and finite, got nan",
    ("IntegratorConfig.atol", "-1"): "atol must be positive and finite, got -1.0",
    ("CouplingSchedule.time_scale", "-0.0"): "time_scale must be positive and finite, got -0.0",
    ("blowdown.s", "inf"): "blowdown scale s must be positive and finite, got inf",
    ("MapSlope.blowdown.s", "0"): "blowdown scale s must be positive and finite, got 0.0",
    ("MapSlope.blowdown.s", "-1"): "blowdown scale s must be positive and finite, got -1.0",
    ("CouplingSchedule.blowdown.s", "-1"):
        "blowdown scale s must be positive and finite, got -1.0",
    ("CouplingSchedule.blowdown.s", "nan"):
        "blowdown scale s must be positive and finite, got nan",
    ("exact_ricci_solution.A0", "-1"): "A0 must be positive and finite, got -1.0",
    ("exact_ricci_solution.C0", "-1"): "C0 must be positive and finite, got -1.0",
    ("exact_ricci_solution.B0", "-1"): "B0 must be positive and finite, got -1.0",
    ("predicted_constants.alpha.r2", "-inf"):
        "A-prefactor alpha must be positive and finite, got -inf",
    ("PeriodicGrid.period", "0"): "period must be positive and finite, got 0.0",
    ("rk4_step.h", "nan"): "step size must be positive and finite, got nan",
    ("rk4_step.h", "-1"): "step size must be positive and finite, got -1.0",
    ("integrate_adaptive.tol", "0"): "tol must be positive and finite, got 0.0",
    ("integrate_adaptive.tol", "nan"): "tol must be positive and finite, got nan",
    ("integrate_adaptive.tol", "inf"): "tol must be positive and finite, got inf",
    ("IntegratorConfig.rtol", "0"): "rtol must be positive and finite, got 0.0",
    # ode._check_finite
    ("MapSlope.a", "-inf"): "slope a must be finite, got -inf",
    ("RescalingSpec.s0", "nan"): "s0 must be finite, got nan",
    ("RescalingSpec.c_coupling", "inf"): "c_coupling must be finite, got inf",
    ("random_smooth_state.amplitude", "-inf"): "amplitude must be finite, got -inf",
    ("log_sample_times.t0", "nan"): "t0 must be finite, got nan",
    ("integrate_adaptive.t1", "inf"): "t1 must be finite, got inf",
    # ode._check_nonnegative
    ("CouplingSchedule.c0", "-1"): "c0 must be finite and >= 0, got -1.0",
    ("CouplingSchedule.r", "nan"): "r must be finite and >= 0, got nan",
    ("exact_ricci_solution.t", "-1"): "t must be finite and >= 0, got -1.0",
    ("integrate_rrfs.t_end", "0"): "t_end must be positive and finite, got 0.0",
    ("integrate_rrfs.kappa_cfl", "-inf"): "kappa_cfl must be positive and finite, got -inf",
    # ode._count
    ("PeriodicGrid.sizes", "2.5"): "grid size must be an integer >= 8, got 2.5",
    ("PeriodicGrid.sizes", "7"): "grid size must be an integer >= 8, got 7.0",
    ("integrate_nil3.samples_per_decade", "inf"):
        "samples_per_decade must be an integer >= 1, got inf",
    ("log_sample_times.samples_per_decade", "0"):
        "samples_per_decade must be an integer >= 1, got 0.0",
    ("random_smooth_state.seed", "nan"): "seed must be an integer >= 0, got nan",
    ("random_smooth_state.n_fiber", "-1"): "n_fiber must be an integer >= 1, got -1.0",
    ("integrate_rrfs.n_snapshots", "2.5"): "n_snapshots must be an integer >= 2, got 2.5",
    ("integrate_rrfs.n_snapshots", "1"): "n_snapshots must be an integer >= 2, got 1.0",
    ("integrate_rrfs.n_snapshots", "0"): "n_snapshots must be an integer >= 2, got 0.0",
    ("integrate_rrfs.n_snapshots", "-1"): "n_snapshots must be an integer >= 2, got -1.0",
    ("integrate_rrfs.n_snapshots", "2**63"):
        f"n_snapshots must be an integer <= 1000001, got {2**63}",
    ("random_smooth_state.seed", "10**400"):
        f"seed must be an integer <= {2**64 - 1}, got {10**400}",
    ("PeriodicGrid.sizes", "2**63"): f"grid size must be an integer <= 1048576, got {2**63}",
    ("random_smooth_state.n_fiber", "2**63"):
        f"n_fiber must be an integer <= 1048576, got {2**63}",
    ("random_spd.N", "2**63"): f"N must be an integer <= 1048576, got {2**63}",
    ("random_smooth_state.n_fiber", "1048576"):
        "grid 16 with fiber dimension 1048576 needs 17592202821648 floats per state, more "
        "than 134217728",
    # bounds beyond the four rules
    ("MapSlope.a", "1e300"): "slope |a| must be at most 2^511, got 1e+300",
    ("log_sample_times.t0", "-1"): "t0 must be > -1, samples are log-spaced in 1 + t, got -1.0",
    ("log_sample_times.t1", "-1"): "t1 must be >= t0",
    ("integrate_adaptive.t1", "-1"): "t1 must be >= t0",
    ("blowdown.s.zero.a0.t1e9", "1e-300"): "the blowdown by s = 1e-300 overflows the trajectory",
    ("random_spd.cond_max", "nan"): "cond_max must be finite and >= 1, got nan",
    ("random_spd.cond_max", "inf"): "cond_max must be finite and >= 1, got inf",
    ("exact_ricci_solution.A0", "1e300"):
        "the closed form at t = 1.0 from A0 = 1e+300, B0 = 1e+300, C0 = 1.0 leaves the "
        "float range",
    ("exact_ricci_solution.B0", "1e300"):
        "the closed form at t = 1.0 from A0 = 1.0, B0 = 1e+300, C0 = 1.0 leaves the float range",
    # a/s past the bound of MapSlope: the refusal names the blowdown, not a slope never given
    ("MapSlope.blowdown.s", "5e-324"): "the blowdown by s = 5e-324 overflows the slope",
    ("MapSlope.blowdown.s", "1e-300"): "the blowdown by s = 1e-300 overflows the slope",
}


@pytest.mark.parametrize("command, option, value, message", [
    pytest.param(*case, message, id=_case_id(*case))
    for case, message in CLI_MESSAGES.items()
])
def test_cli_message(command, option, value, message, trajectory, tmp_path, monkeypatch,
                     capsys):
    monkeypatch.chdir(tmp_path)
    inputs = _write_input(tmp_path, value)
    assert cli.main(_argv(command, option, value, trajectory)) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert [path.name for path in tmp_path.iterdir()] == inputs


@pytest.mark.parametrize("command, option, value, prefix", [
    pytest.param(*case, prefix, id=_case_id(*case))
    for case, prefix in CLI_MESSAGE_PREFIXES.items()
])
def test_cli_message_prefix(command, option, value, prefix, trajectory, tmp_path,
                            monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    inputs = _write_input(tmp_path, value)
    assert cli.main(_argv(command, option, value, trajectory)) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {prefix}") and "'abc'" in err, err
    assert re.fullmatch(r"error: [^\n]+\n", err), err
    assert [path.name for path in tmp_path.iterdir()] == inputs


@pytest.mark.parametrize("name, value, message", [
    pytest.param(name, value, message, id=f"{name}={value}")
    for (name, value), message in LIBRARY_MESSAGES.items()
])
def test_library_message(name, value, message):
    with pytest.raises(ValueError) as info:
        {**LIBRARY, **INT_LIBRARY}[name](_value(value))
    assert str(info.value) == message


@pytest.mark.parametrize("c0, s, scaled", [(0.0, 1e200, 0.0), (1e-300, 1e200, 1e100),
                                           (1e300, 1e-200, 1e-100)],
                         ids=["zero", "tiny-c0", "huge-c0"])
def test_blowdown_coupling_is_c0_s_s(c0, s, scaled):
    """The blown-down c0 is formed as c0 s s, which leaves the float range only where
    c0 s^2 does, though s s overflows at s = 1e200 and underflows at s = 1e-200."""
    assert nil3.CouplingSchedule(c0).blowdown(s).c0 == scaled


def test_fiber_dimension_past_the_cap_is_refused_before_g_is_copied():
    """A G whose fiber dimension passes ``ode._MAX_SIZE`` = 2^20 is refused by its shape:
    this one has no memory of its own, and a copy of its 2^20 + 1 fiber would be 128 TiB."""
    N = 2**20 + 1
    G = np.broadcast_to(0.0, (16, N, N))
    with pytest.raises(ValueError, match=f"^fiber dimension must be an integer <= {2**20}, "
                                         f"got {N}$"):
        rrfs.RRFSState(np.ones((16, 1, 1)), np.broadcast_to(0.0, (16, 1, N)), G)


@pytest.mark.parametrize("states, message", [
    (np.zeros((0, 3)), "a trajectory needs at least one sample"),
    (np.zeros(2), "states must be a 2-D array, one row per time, got shape (2,)"),
], ids=["empty", "1d-states"])
def test_trajectory_shape_message(states, message):
    """A trajectory holds a row per time and at least one row, which the fits, the
    bounds check and the blowdown index."""
    with pytest.raises(ValueError) as info:
        ode.Trajectory(np.zeros(len(states)), states)
    assert str(info.value) == message
