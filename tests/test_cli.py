import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from geomflow import cli, nil3, ode, rrfs
from geomflow.nil3 import CouplingSchedule


class TestParser:
    """``cli.main`` parses every call with the one parser of the process."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_reuse_leaves_no_trace(self, tmp_path):
        """A run after other commands and a usage error writes the bytes of the first."""
        csv, js = tmp_path / "traj.csv", tmp_path / "summary.json"
        nil3_argv = ["nil3", "--coupling", "const:0.5", "--t-end", "1e4",
                     "--csv", str(csv), "--json", str(js)]
        assert cli.main(nil3_argv) == 0
        first = csv.read_bytes(), js.read_bytes()
        assert cli.main(["fit", "--csv", str(csv), "--t-lo", "100", "--t-hi", "1e4"]) == 0
        with pytest.raises(SystemExit) as info:
            cli.main(["nil3", "--t-end", "x"])
        assert info.value.code == 2
        assert cli.main(nil3_argv) == 0
        assert (csv.read_bytes(), js.read_bytes()) == first

    def test_list_defaults_are_tuples(self):
        parser = cli.build_parser()
        assert parser.parse_args(["verify-tension"]).n_base == (1, 2)
        assert parser.parse_args(["blowdown-check"]).s == (0.5, 4.0)


class TestCouplingParsing:
    def test_kinds(self):
        assert cli.parse_coupling("zero") == CouplingSchedule.zero()
        assert cli.parse_coupling("const:0.5") == CouplingSchedule.constant(0.5)
        assert cli.parse_coupling("power:1,2") == CouplingSchedule.power(1.0, 2.0)
        assert cli.parse_coupling("power:0.5,0") == cli.parse_coupling("const:0.5")


class TestNil3Command:
    def run(self, tmp_path, *extra):
        csv = tmp_path / "traj.csv"
        js = tmp_path / "summary.json"
        code = cli.main(
            ["nil3", "--t-end", "1e4", "--csv", str(csv), "--json", str(js), *extra]
        )
        return code, csv, js

    def test_ricci_run_matches_oracle(self, tmp_path):
        code, csv, js = self.run(tmp_path, "--coupling", "zero")
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "t,A,B,C,Phi"
        last = [float(v) for v in lines[-1].split(",")]
        assert abs(last[1] / (1 + 3 * last[0]) ** (1 / 3) - 1) <= 1e-6
        summary = json.loads(js.read_text())
        assert summary["phi_drift"] <= 1e-8
        assert summary["bounds"]["ok"]
        assert summary["config"]["coupling"] == "zero"

    def test_far_horizon_run(self, tmp_path):
        """At t = 1e300 the unit-data run holds Phi to rounding and meets the closed form;
        in (A, B, C) variables it drifted by 6.1e28 and exited 2."""
        code, _, js = self.run(tmp_path, "--coupling", "zero", "--t-end", "1e300")
        assert code == 0
        summary = json.loads(js.read_text())
        assert summary["phi_drift"] <= 1e-13
        final = [summary["final_state"][c] for c in "ABC"]
        exact = nil3.exact_ricci_solution(1e300, 1.0, 1.0).as_array()
        assert np.abs(np.array(final) / exact - 1.0).max() <= 1e-7

    def test_constant_coupling_linear_growth(self, tmp_path):
        code, csv, js = self.run(tmp_path, "--coupling", "const:0.5", "--a", "1",
                                 "--t-end", "1e6")
        assert code == 0
        summary = json.loads(js.read_text())
        assert summary["fits"]["A"]["exponent"] == pytest.approx(1.0, abs=0.05)

    def test_power_coupling_exponents(self, tmp_path):
        code, csv, js = self.run(tmp_path, "--coupling", "power:1,1", "--a", "1",
                                 "--t-end", "1e6")
        assert code == 0
        summary = json.loads(js.read_text())
        assert summary["fits"]["A"]["exponent"] == pytest.approx(1 / 3, abs=0.03)
        assert summary["fits"]["C"]["exponent"] == pytest.approx(-1 / 3, abs=0.03)

    def test_byte_identical_reruns(self, tmp_path):
        _, csv1, js1 = self.run(tmp_path, "--coupling", "const:0.25")
        out1, sum1 = csv1.read_bytes(), js1.read_bytes()
        _, csv2, js2 = self.run(tmp_path, "--coupling", "const:0.25")
        assert csv2.read_bytes() == out1
        assert js2.read_bytes() == sum1

    def test_csv_rows_positive_and_phi_constant(self, tmp_path):
        _, csv, _ = self.run(tmp_path)
        data = np.loadtxt(csv, delimiter=",", skiprows=1)
        assert np.all(data[:, 1:4] > 0)
        assert np.abs(data[:, 4] / data[0, 4] - 1).max() <= 1e-6

    def test_zero_constant_coupling_predicts_zero_regime(self, capsys):
        # a^2 c0 = 0 is the zero regime for every schedule: Ricci-flow exponents and
        # prefactors, and no log-growth fit of B^2, which grows like t^(2/3) here
        assert cli.main(["nil3", "--coupling", "const:0", "--t-end", "1e4"]) == 0
        summary = json.loads(capsys.readouterr().out)
        fits, pred = summary["fits"], summary["predicted_constants"]
        assert pred["regime"] == "zero" and summary["log_growth_B"] is None
        assert pred["exponents"] == {"A": 1 / 3, "B": 1 / 3, "C": -1 / 3}
        ricci = nil3.predicted_constants(nil3.Nil3Params(nil3.Nil3State(1.0, 1.0, 1.0)))
        assert pred["prefactors"] == ricci["prefactors"]
        for c in "ABC":
            assert fits[c]["exponent"] == pytest.approx(pred["exponents"][c], abs=0.02)
            assert fits[c]["prefactor"] == pytest.approx(pred["prefactors"][c], rel=0.05)

    def test_window_a_rounding_short_of_two_decades_is_fitted(self, tmp_path, monkeypatch):
        """The fit window runs from the first sample past t = 0 when that lies beyond
        t_end / 100; at a ratio t_end / t_1 = 100 * 10^(-5e-10) the fits are made, as
        ``nil3.fit_power_law`` accepts that window."""
        t_end = 1e4
        t_1 = t_end / (100 * 10 ** -5e-10)
        monkeypatch.setattr(nil3, "log_sample_times", lambda t0, t1, samples_per_decade: (
            np.concatenate([[0.0], np.geomspace(t_1, t1, 65)])))
        code, _, js = self.run(tmp_path)
        assert code == 0
        summary = json.loads(js.read_text())
        assert sorted(summary["fits"]) == ["A", "B", "C"]
        assert summary["fits"]["A"]["exponent"] == pytest.approx(1 / 3, abs=0.05)

    def test_overflowing_a_prefactor_exits_1(self, monkeypatch, capsys):
        fit = nil3.fit_power_law

        def overflowing(traj, component, window):
            return dataclasses.replace(fit(traj, component, window), prefactor=np.inf)

        monkeypatch.setattr(nil3, "fit_power_law", overflowing)
        assert cli.main(["nil3", "--coupling", "power:0.5,2", "--t-end", "1e4"]) == 1
        assert capsys.readouterr().err == (
            "error: A-prefactor alpha must be positive and finite, got inf\n")

    def test_bounds_failure_exits_2_after_writing_the_summary(self, tmp_path, monkeypatch,
                                                              capsys):
        report = nil3.BoundsReport(ok=False, worst_slack=-1.0,
                                   violations=[("C_upper", 2.0, -1.0)])
        monkeypatch.setattr(nil3, "bounds_check", lambda traj, params: report)
        js = tmp_path / "s.json"
        assert cli.main(["nil3", "--t-end", "100", "--json", str(js)]) == 2
        assert capsys.readouterr() == ("", "bounds check failed: [('C_upper', 2.0, -1.0)]\n")
        assert json.loads(js.read_text())["bounds"] == {
            "ok": False, "worst_slack": -1.0, "violations": [["C_upper", 2.0, -1.0]]}

    def test_phi_drift_exits_2_after_writing_the_summary(self, tmp_path, monkeypatch,
                                                         capsys):
        integrate = nil3.integrate_nil3

        def drifting(*args, **kwargs):
            traj = integrate(*args, **kwargs)
            traj.states[-1, 1] *= 1 + 2e-6  # the last B: Phi drifts, and B still grows
            return traj

        monkeypatch.setattr(nil3, "integrate_nil3", drifting)
        js = tmp_path / "s.json"
        assert cli.main(["nil3", "--t-end", "100", "--json", str(js)]) == 2
        assert capsys.readouterr() == ("", "conserved product drifted by 2.000e-06\n")
        summary = json.loads(js.read_text())
        assert summary["bounds"]["ok"]
        assert summary["phi_drift"] == pytest.approx(2e-6, rel=1e-6)


class TestVerifyTension:
    def test_default_passes(self):
        assert cli.main(["verify-tension", "--size", "32", "--fields", "2"]) == 0

    def test_corrupted_christoffel_fails(self, monkeypatch):
        general = rrfs.tension_G_general

        def corrupted(state, grid):
            # flip the sign of the connection correction
            return 2 * rrfs.laplacian_G(state, grid) - general(state, grid)

        monkeypatch.setattr(rrfs, "tension_G_general", corrupted)
        assert cli.main(["verify-tension", "--size", "32", "--fields", "1"]) == 2

    @pytest.mark.parametrize("n_base", [1, 2])
    def test_one_bundle_per_field(self, n_base, monkeypatch):
        # both tension fields of a state read its one geometry bundle
        built = []

        class Counting(rrfs._Geometry):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(rrfs, "_Geometry", Counting)
        assert cli.verify_tension(0, n_base, 3, 16, 2) <= 1e-10
        assert len(built) == 2

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-1", "-inf"])
    def test_threshold_must_be_finite_and_non_negative(self, threshold, capsys):
        assert cli.main(["verify-tension", "--size", "16", "--fields", "1",
                         f"--threshold={threshold}"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: --threshold must be finite and >= 0, got {float(threshold)}\n")
        assert "residual" not in captured.out

    def test_zero_and_huge_thresholds_accepted(self):
        argv = ["verify-tension", "--size", "16", "--fields", "1", "--threshold"]
        assert cli.main([*argv, "1e300"]) == 0
        assert cli.main([*argv, "0"]) in (0, 2)  # 2 unless the gap is exactly 0


class TestBlowdownCheck:
    def test_ricci_scenario(self):
        assert cli.main(["blowdown-check", "--t-end", "1e3",
                         "--s", "0.5", "4"]) == 0


class TestFitCommand:
    def test_fit_from_csv(self, tmp_path, capsys):
        csv = tmp_path / "traj.csv"
        assert cli.main(["nil3", "--t-end", "1e6", "--csv", str(csv),
                         "--json", str(tmp_path / "s.json")]) == 0
        assert cli.main(["fit", "--csv", str(csv), "--component", "A",
                         "--t-lo", "1e4", "--t-hi", "1e6"]) == 0
        capsys.readouterr()
        assert cli.main(["fit", "--csv", str(csv), "--component", "C",
                         "--t-lo", "1e4", "--t-hi", "1e6"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exponent"] == pytest.approx(-1 / 3, abs=0.02)

    @pytest.fixture
    def csv(self, tmp_path):
        path = tmp_path / "traj.csv"
        assert cli.main(["nil3", "--t-end", "1e6", "--csv", str(path),
                         "--json", str(tmp_path / "s.json")]) == 0
        return path

    @pytest.mark.parametrize("mode,name", [("power", "power_law"), ("log", "log_growth")])
    def test_fit_stdout_fields(self, csv, capsys, mode, name):
        assert cli.main(["fit", "--csv", str(csv), "--component", "B",
                         "--t-lo", "1e4", "--t-hi", "1e6", "--mode", mode]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload.keys() == {"component", "mode", "exponent", "prefactor",
                                  "r_squared", "window"}
        assert (payload["component"], payload["mode"]) == ("B", name)
        assert payload["window"] == [1e4, 1e6]

    def test_fit_stdout_is_sorted_json(self, csv, capsys):
        assert cli.main(["fit", "--csv", str(csv), "--t-lo", "1e4", "--t-hi", "1e6"]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


class TestRRFSCommand:
    def test_smoothing_run_outputs(self, tmp_path):
        csv = tmp_path / "series.csv"
        js = tmp_path / "run.json"
        prefix = tmp_path / "snap"
        code = cli.main([
            "rrfs", "--grid", "32", "--n-fiber", "2", "--seed", "0",
            "--t-end", "0.2", "--freeze-g", "--freeze-A",
            "--csv", str(csv), "--json", str(js), "--out-prefix", str(prefix),
        ])
        assert code == 0
        data = np.loadtxt(csv, delimiter=",", skiprows=1)
        energy = data[:, 1]
        assert np.all(np.diff(energy) <= 0)
        snaps = sorted(tmp_path.glob("snap_*.txt"))
        assert len(snaps) >= 2
        summary = json.loads(js.read_text())
        assert summary["config"]["scenario"] == "rrfs"

    def test_volume_mode_drift(self, tmp_path):
        js = tmp_path / "run.json"
        code = cli.main([
            "rrfs", "--grid", "32", "--seed", "1", "--mode", "volume",
            "--t-end", "0.2", "--json", str(js),
        ])
        assert code == 0
        assert json.loads(js.read_text())["volume_drift"] <= 1e-6

    def test_restart_takes_grid_from_snapshot(self, tmp_path):
        prefix = tmp_path / "snap"
        assert cli.main([
            "rrfs", "--grid", "16", "--n-fiber", "3", "--t-end", "0.01",
            "--snapshots", "2", "--out-prefix", str(prefix),
        ]) == 0
        js = tmp_path / "restart.json"
        # --grid and --period would be invalid for a fresh run
        assert cli.main([
            "rrfs", "--init-file", f"{prefix}_001.txt", "--grid", "4",
            "--period", "-1", "--t-end", "0.01", "--json", str(js),
        ]) == 0
        cfg = json.loads(js.read_text())["config"]
        assert (cfg["grid"], cfg["period"], cfg["n_fiber"]) == ("16", [2 * np.pi], 3)

    def test_config_echo_determines_initial_state(self, tmp_path):
        prefix = tmp_path / "snap"
        js = tmp_path / "run.json"
        assert cli.main([
            "rrfs", "--grid", "16", "--seed", "3", "--amplitude", "0.2", "--perturb-g",
            "--t-end", "0.01", "--snapshots", "2", "--json", str(js),
            "--out-prefix", str(prefix),
        ]) == 0
        cfg = json.loads(js.read_text())["config"]
        assert (cfg["seed"], cfg["amplitude"], cfg["perturb_g"], cfg["perturb_A"]) == (
            3, 0.2, True, False)
        assert "init_file" not in cfg
        grid = rrfs.PeriodicGrid(tuple(int(m) for m in cfg["grid"].split(",")),
                                 cfg["period"])
        rebuilt = rrfs.random_smooth_state(
            cfg["seed"], grid, cfg["n_fiber"], amplitude=cfg["amplitude"],
            perturb_g=cfg["perturb_g"], perturb_A=cfg["perturb_A"])
        first, _ = rrfs.load_snapshot(f"{prefix}_000.txt")
        for name in ("g", "A", "G"):
            npt.assert_array_equal(getattr(rebuilt, name), getattr(first, name))

        js2 = tmp_path / "restart.json"
        init = f"{prefix}_001.txt"
        assert cli.main(["rrfs", "--init-file", init, "--t-end", "0.01",
                         "--json", str(js2)]) == 0
        cfg2 = json.loads(js2.read_text())["config"]
        assert cfg2["init_file"] == init
        assert not {"seed", "amplitude", "perturb_g", "perturb_A"} & cfg2.keys()

    def test_stdout_holds_config_and_drift_only(self, capsys):
        assert cli.main(["rrfs", "--grid", "16", "--t-end", "0.01"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out.keys() == {"config", "volume_drift"}
        assert out["config"]["seed"] == 0


class TestInputBoundary:
    def test_one_token_snapshot_header(self, tmp_path, capsys):
        snap = tmp_path / "bad.txt"
        snap.write_text("1\n")
        code = cli.main(["rrfs", "--init-file", str(snap), "--t-end", "0.01"])
        assert code == 1
        assert "snapshot header" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["nil3"], ["rrfs", "--grid", "16"],
                                      ["blowdown-check"]],
                             ids=["nil3", "rrfs", "blowdown-check"])
    @pytest.mark.parametrize("t_end", ["nan", "inf", "-1", "0"])
    def test_bad_t_end_rejected(self, argv, t_end, capsys):
        assert cli.main([*argv, f"--t-end={t_end}"]) == 1
        assert capsys.readouterr().err == (
            f"error: t_end must be positive and finite, got {float(t_end)}\n")

    def test_nil3_shorter_than_step_floor(self, capsys):
        # the one landing step h = 1e-15 is below the step floor 1e-14
        assert cli.main(["nil3", "--t-end", "1e-15"]) == 0
        assert capsys.readouterr().err == ""

    def test_overflowing_amplitude_rejected_without_warning(self, capsys):
        assert cli.main(["rrfs", "--grid", "16", "--n-fiber", "2", "--amplitude", "1000",
                         "--t-end", "0.01"]) == 1
        assert "fiber metric G has non-finite entries" in capsys.readouterr().err

    def test_zero_fiber_snapshot_rejected(self, tmp_path, capsys):
        snap = tmp_path / "n0.txt"
        snap.write_text("1 0 8 6.2831853071795862\n" + "1\n" * 8)
        assert cli.main(["rrfs", "--init-file", str(snap), "--t-end", "0.01"]) == 1
        assert "fiber dimension must be an integer >= 1, got 0" in capsys.readouterr().err

    def test_period_count_mismatch_rejected(self, capsys):
        assert cli.main(["rrfs", "--grid", "16", "--period", "1,2", "--t-end", "0.01"]) == 1
        assert "2 periods given for 1 grid axes" in capsys.readouterr().err

    def test_non_finite_connection_snapshot_rejected(self, tmp_path, capsys):
        snap = tmp_path / "nan_A.txt"
        snap.write_text("1 1 8 6.2831853071795862\n" + "1 0 1\n" * 7 + "1 nan 1\n")
        assert cli.main(["rrfs", "--init-file", str(snap), "--t-end", "0.01"]) == 1
        assert "connection A has non-finite entries" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["power:1", "power:1,2,3", "power:"])
    def test_malformed_power_coupling_rejected(self, spec):
        # cli.parse_coupling raises on its own the message that CLI_MESSAGES pins for nil3
        message = f"--coupling takes the form zero | const:<c0> | power:<c0>,<r>, got {spec!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cli.parse_coupling(spec)

    @pytest.mark.parametrize("spec", ["const:nan", "const:inf", "power:1,nan",
                                      "power:nan,1", "power:inf,1", "power:1,inf"])
    def test_non_finite_coupling_rejected(self, spec, capsys):
        assert cli.main(["nil3", "--coupling", spec, "--t-end", "10"]) == 1
        name, value = next((name, v) for name, v in zip(("c0", "r"), spec[6:].split(","))
                           if v in ("nan", "inf"))
        assert capsys.readouterr().err == f"error: {name} must be finite and >= 0, got {value}\n"

    @pytest.mark.parametrize("amplitude", ["nan", "inf", "-inf"])
    def test_non_finite_amplitude_rejected(self, amplitude, capsys):
        assert cli.main(["rrfs", "--grid", "16", f"--amplitude={amplitude}",
                         "--t-end", "0.01"]) == 1
        assert capsys.readouterr().err == f"error: amplitude must be finite, got {amplitude}\n"

    @pytest.mark.parametrize("data", [
        ["--A0", "1e-200", "--B0", "1e-200", "--coupling", "zero"],
        ["--A0", "1e6", "--C0", "1.7976931348623157e308", "--coupling", "const:0.5"],
        ["--B0", "5e-324", "--coupling", "power:0.5,0.3"],
    ], ids=["K-underflows", "r-overflows", "B-prefactor-underflows"])
    def test_data_past_the_float_range_in_products(self, data, tmp_path):
        """A B, A0 B0 C0 or C0 / B0 leaves the float range: the Nil3 run forms none of
        them, and neither do the checks and constants after it (K = A0 B0 / (3 C0) = 0
        has no power -1/3, C0 r / (r + t) is not inf / inf, B = 0 is no divisor).  Each
        ended at t = 0 with exit 1 in (A, B, C) variables."""
        js = tmp_path / "s.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["nil3", *data, "--t-end", "100", "--json", str(js)]) == 0
        summary = json.loads(js.read_text())
        assert summary["bounds"]["ok"] and summary["phi_drift"] <= 1e-11

    def test_sample_grid_too_large_for_memory(self, monkeypatch, capsys):
        """`nil3 --t-end 1e3 --samples-per-decade 1000000000` asks numpy for
        about 22 GiB of sample times; the MemoryError is reported like any
        other bad input, not as a traceback.  The allocation is simulated."""
        def too_large(t0, t1, samples_per_decade):
            raise MemoryError("Unable to allocate 22.4 GiB for an array")

        monkeypatch.setattr(nil3, "log_sample_times", too_large)
        code = cli.main(["nil3", "--t-end", "1e3", "--samples-per-decade", "1000000000"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: Unable to allocate 22.4 GiB for an array\n"

    def test_fit_window_from_t_zero_rejected(self, tmp_path, capsys):
        csv = tmp_path / "traj.csv"
        assert cli.main(["nil3", "--t-end", "1e6", "--csv", str(csv),
                         "--json", str(tmp_path / "s.json")]) == 0
        capsys.readouterr()
        assert cli.main(["fit", "--csv", str(csv), "--component", "C",
                         "--t-lo", "0", "--t-hi", "1e6"]) == 1
        assert "fit window must start at a positive time" in capsys.readouterr().err

    def test_base_metric_determinant_out_of_range_rejected(self, tmp_path, capsys):
        snap = tmp_path / "huge_g.txt"
        snap.write_text("2 1 8 8 6.2831853071795862 6.2831853071795862\n"
                        + "1e160 0 0 1e160 0 0 1\n" * 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["rrfs", "--init-file", str(snap), "--t-end", "0.01"]) == 1
        err = capsys.readouterr().err
        assert ("base metric g has a determinant outside the floating-point range "
                "at node (0, 0)") in err
        assert "RuntimeWarning" not in err

    def test_module_entry_point_has_no_runtime_warning(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "geomflow.cli",
             "--help"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr


def test_readme_library_quick_start_runs_without_warnings():
    """README's only python block, run as written with every warning an error."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    assert readme.index("## Library quick start") < readme.index("```python")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(blocks[0], "README.md", "exec"), {})
