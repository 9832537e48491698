import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from geomflow import cli, rrfs
from geomflow.nil3 import CouplingSchedule


class TestCouplingParsing:
    def test_kinds(self):
        assert cli.parse_coupling("zero") == CouplingSchedule.zero()
        assert cli.parse_coupling("const:0.5") == CouplingSchedule.constant(0.5)
        assert cli.parse_coupling("power:1,2") == CouplingSchedule.power(1.0, 2.0)

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            cli.parse_coupling("linear:3")


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

    def test_parse_error_exit_code(self):
        assert cli.main(["nil3", "--coupling", "bogus"]) == 1

    def test_invalid_initial_data_exit_code(self):
        assert cli.main(["nil3", "--A0", "-1"]) == 1


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
        assert "--t-end must be a positive finite number" in capsys.readouterr().err

    def test_zero_fiber_dimension_rejected(self, capsys):
        assert cli.main(["rrfs", "--grid", "16", "--n-fiber", "0", "--t-end", "0.01"]) == 1
        assert "fiber dimension must be at least 1" in capsys.readouterr().err

    def test_zero_fiber_snapshot_rejected(self, tmp_path, capsys):
        snap = tmp_path / "n0.txt"
        snap.write_text("1 0 8 6.2831853071795862\n" + "1\n" * 8)
        assert cli.main(["rrfs", "--init-file", str(snap), "--t-end", "0.01"]) == 1
        assert "fiber dimension must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--mode", "constant:nan"],
                                       ["--mode", "constant:inf"], ["--c", "nan"]],
                             ids=["s0-nan", "s0-inf", "c-nan"])
    def test_non_finite_rescaling_rejected(self, flags, capsys):
        assert cli.main(["rrfs", "--grid", "16", "--t-end", "0.01", *flags]) == 1
        assert "s0 and c_coupling must be finite" in capsys.readouterr().err

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
