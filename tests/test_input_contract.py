"""The input contract, by enumeration rather than by sampling.

Every value that comes from outside is checked once, by the type or function
it fills.  Each case below swaps one argument for one value of ``EDGES`` and
has a stable id, ``<command or call>-<argument>=<value>``.

* CLI: each README command runs through ``cli.main`` in process, in its own
  directory, with one numeric option swapped.  The exit code is 0, 1 or 2 and
  no traceback or warning escapes.  Exit 1 writes one ``error: ...`` line to
  stderr and nothing else there; argparse's exit 2 for a value its type cannot
  read ends stderr with ``geomflow <command>: error: ...``; a returned 2 is a
  verification failure.
  On exit 0 every JSON output is strict JSON, every CSV and snapshot parses,
  and every number in them, and in the text on stdout, is finite (or null).
* Library: the public constructors and functions return a value or raise one
  of the package's own exceptions, never ``ZeroDivisionError``,
  ``OverflowError``, ``TypeError``, ``IndexError`` or a numpy warning.

The message tables pin, by the same case ids, the text of a rejection: one row
for each place that applies one of ``ode``'s numeric rules, for the grammar of
the options read as text, and for boundaries the enumeration lacks.
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
INT_EDGES = EDGES + ["2.5"]  # integer options and arguments also get a non-integer

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
# outcomes fixed beyond the contract, by (command, option, value): the exit code, and
# the predicted constant that the JSON summary gives as null
PINNED = {
    # about 1e301 CFL steps, past the step cap: refused before the first step
    ("rrfs", "--t-end", "1e300"): (1, None),
    ("rrfs", "--t-end", "1.7976931348623157e308"): (1, None),
    # valid runs whose K = A0 B0 / (3 C0) or kappa_B2 = Phi / (a^2 c0) overflows
    ("nil3", "--C0", "5e-324"): (0, "K"),
    ("nil3", "--coupling=const:{}", "5e-324"): (0, "kappa_B2"),
}


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


CLI_CASES = [
    pytest.param(command, option, value, id=f"{command}-{option}={value}")
    for command in COMMANDS
    for options, values in ((FLOAT_OPTIONS, EDGES), (INT_OPTIONS, INT_EDGES))
    for option in options.get(command, [])
    for value in values
]


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


def _argv(command: str, option: str, value: str, trajectory: Path) -> list:
    return [str(trajectory) if a == TRAJ else a for a in _swap(COMMANDS[command], option, value)]


@pytest.mark.parametrize("command, option, value", CLI_CASES)
def test_cli_case(command, option, value, trajectory, tmp_path, monkeypatch, capsys):
    argv = _argv(command, option, value, trajectory)
    monkeypatch.chdir(tmp_path)
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
def _params(r: float = 0.3, a: float = 1.0) -> nil3.Nil3Params:
    return nil3.Nil3Params(nil3.Nil3State(1.0, 1.0, 1.0), nil3.MapSlope(a),
                           nil3.CouplingSchedule.power(0.5, r))


@functools.cache
def _trajectory(t_end: float = 10.0, a: float = 1.0) -> ode.Trajectory:
    return nil3.integrate_nil3(_params(a=a), t_end)


GRID = rrfs.PeriodicGrid((16,), (2 * np.pi,))


def _state(**fields) -> rrfs.RRFSState:
    base = {"g": np.ones((16, 1, 1)), "A": np.zeros((16, 1, 2)),
            "G": np.broadcast_to(np.eye(2), (16, 2, 2))}
    return rrfs.RRFSState(**{**base, **fields})


def _decay(t, y):
    return -y


def _adaptive(t0=0.0, t1=10.0, B0=1.0):
    """The Nil3 system, which steps to t1 = 1e300 in about 0.2 s; y' = -y, whose steps
    its stability bounds, would run into the 1e6-step cap after over 30 s."""
    return ode.integrate_adaptive(nil3.make_system(_params()), t0, t1, [1.0, B0, 1.0])


LIBRARY = {
    "Nil3State.A": lambda v: nil3.Nil3State(v, 1.0, 1.0),
    "Nil3State.B": lambda v: nil3.Nil3State(1.0, v, 1.0),
    "Nil3State.C": lambda v: nil3.Nil3State(1.0, 1.0, v),
    "MapSlope.a": nil3.MapSlope,
    "CouplingSchedule.c0": lambda v: nil3.CouplingSchedule(v, 0.3),
    "CouplingSchedule.r": lambda v: nil3.CouplingSchedule(0.5, v),
    "CouplingSchedule.time_scale": lambda v: nil3.CouplingSchedule(0.5, 0.3, v),
    "Nil3Params.f.t": lambda v: _params().f(v),
    "Nil3Params.f.a": lambda v: _params(a=v).f(1.0),
    "predicted_constants.alpha.r0.3": lambda v: nil3.predicted_constants(_params(), v),
    "predicted_constants.alpha.r2": lambda v: nil3.predicted_constants(_params(2.0), v),
    "predicted_constants.a": lambda v: nil3.predicted_constants(_params(a=v), 1.0),
    "blowdown.s": lambda v: nil3.blowdown(_params(), _trajectory(), v),
    # with a = 0 no slope bound stops a small s first: times / s overflow past t = 1.8e8
    "blowdown.s.a0.t1e9": lambda v: nil3.blowdown(_params(a=0.0), _trajectory(1e9, 0.0), v),
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
    "SPDMatrix": lambda v: spd.SPDMatrix(np.diag([v, v])),
}
INT_LIBRARY = {
    "IntegratorConfig.samples_per_decade": lambda v: ode.IntegratorConfig(
        samples_per_decade=v),
    "log_sample_times.samples_per_decade": lambda v: ode.log_sample_times(0.0, 10.0, v),
    "PeriodicGrid.sizes": lambda v: rrfs.PeriodicGrid((v,), (2 * np.pi,)),
    "random_smooth_state.seed": lambda v: rrfs.random_smooth_state(v, GRID, 2),
    "random_smooth_state.n_fiber": lambda v: rrfs.random_smooth_state(0, GRID, v),
}
LIBRARY_CASES = [
    pytest.param(call, float(value), id=f"{name}={value}")
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
    ("nil3", "--t-end", "0"): "t_end must be positive and finite, got 0.0",
    ("blowdown-check", "--s", "-inf"): "blowdown scale s must be positive and finite, got -inf",
    ("rrfs", "--period", "-1"): "period must be positive and finite, got -1.0",
    ("rrfs", "--t-end", "nan"): "t_end must be positive and finite, got nan",
    # ode._check_finite
    ("nil3", "--a", "nan"): "slope a must be finite, got nan",
    ("rrfs", "--amplitude", "inf"): "amplitude must be finite, got inf",
    ("rrfs", "--mode=constant:{}", "-inf"): "s0 must be finite, got -inf",
    ("rrfs", "--c", "nan"): "c_coupling must be finite, got nan",
    # ode._check_nonnegative
    ("nil3", "--coupling=const:{}", "-1"): "c0 must be finite and >= 0, got -1.0",
    ("blowdown-check", "--coupling=power:0.5,{}", "inf"): "r must be finite and >= 0, got inf",
    ("verify-tension", "--threshold", "nan"): "--threshold must be finite and >= 0, got nan",
    # grammar
    ("rrfs", "--grid", "16,"): f"{GRID_FORM}, got '16,'",
    ("rrfs", "--grid", ",16"): f"{GRID_FORM}, got ',16'",
    ("rrfs", "--grid", "2.5"): f"{GRID_FORM}, got '2.5'",
    ("rrfs", "--period", "1,"): f"{PERIOD_FORM}, got '1,'",
    ("rrfs", "--mode", "volume:"): f"{MODE_FORM}, got 'volume:'",
    ("rrfs", "--mode", "off:"): f"{MODE_FORM}, got 'off:'",
    ("rrfs", "--mode", "constant:x"): f"{MODE_FORM}, got 'constant:x'",
    ("rrfs", "--mode", "volume:3"): "rescaling mode 'volume' takes no s0, got 3.0",
    ("nil3", "--coupling", "bogus"): f"{COUPLING_FORM}, got 'bogus'",
    ("nil3", "--coupling", "const:"): f"{COUPLING_FORM}, got 'const:'",
    ("nil3", "--coupling", "power:1"): f"{COUPLING_FORM}, got 'power:1'",
    ("blowdown-check", "--coupling", "zero:1"): f"{COUPLING_FORM}, got 'zero:1'",
    # bounds beyond the four rules: A0 / s overflows for the first s, 0.5
    ("blowdown-check", "--A0", "1.7976931348623157e308"):
        "the blowdown by s = 0.5 overflows the initial state",
}

# The message of a library rejection, by case; the case raises ValueError.
LIBRARY_MESSAGES = {
    # ode._check_positive
    ("Nil3State.A", "0"): "A must be positive and finite, got 0.0",
    ("IntegratorConfig.rtol", "nan"): "rtol must be positive and finite, got nan",
    ("IntegratorConfig.atol", "-1"): "atol must be positive and finite, got -1.0",
    ("CouplingSchedule.time_scale", "-0.0"): "time_scale must be positive and finite, got -0.0",
    ("blowdown.s", "inf"): "blowdown scale s must be positive and finite, got inf",
    ("predicted_constants.alpha.r2", "-inf"):
        "A-prefactor alpha must be positive and finite, got -inf",
    ("PeriodicGrid.period", "0"): "period must be positive and finite, got 0.0",
    ("rk4_step.h", "nan"): "step size must be positive and finite, got nan",
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
    # ode._integer
    ("PeriodicGrid.sizes", "2.5"): "grid size must be an integer, got 2.5",
    ("IntegratorConfig.samples_per_decade", "inf"): "samples_per_decade must be an integer, got inf",
    ("random_smooth_state.seed", "nan"): "seed must be an integer, got nan",
    # bounds beyond the four rules
    ("MapSlope.a", "1e300"): "slope |a| must be at most 2^511, got 1e+300",
    ("PeriodicGrid.sizes", "7"): "each axis needs at least 8 points",
}


@pytest.mark.parametrize("command, option, value, message", [
    pytest.param(*case, message, id=f"{case[0]}-{case[1]}={case[2]}")
    for case, message in CLI_MESSAGES.items()
])
def test_cli_message(command, option, value, message, trajectory, tmp_path, monkeypatch,
                     capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(_argv(command, option, value, trajectory)) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name, value, message", [
    pytest.param(name, value, message, id=f"{name}={value}")
    for (name, value), message in LIBRARY_MESSAGES.items()
])
def test_library_message(name, value, message):
    with pytest.raises(ValueError) as info:
        {**LIBRARY, **INT_LIBRARY}[name](float(value))
    assert str(info.value) == message
