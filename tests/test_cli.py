"""Tests for configuration loading and the command-line entry point."""

import json

import numpy as np
import pytest

from leviflat import cli, continuation, geometry
from leviflat.errors import ConfigError, DiscSolveFailed


def write_config(tmp_path, **fields):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fields))
    return str(path)


class TestLoadConfig:
    def test_defaults_filled(self, tmp_path):
        cfg = cli.load_config(write_config(tmp_path, scenario="ball"))
        assert cfg.scenario == "ball"
        assert cfg.n_theta == 64 and cfg.n_rho == 32
        assert cfg.n_taylor == 24
        assert cfg.newton_tol == 1e-10
        assert cfg.grad_cap == 1000.0

    def test_overrides(self, tmp_path):
        cfg = cli.load_config(write_config(
            tmp_path, scenario="weak-m2", n_theta=128, glue_tol=1e-6))
        assert cfg.n_theta == 128
        assert cfg.glue_tol == 1e-6

    def test_taylor_alias(self, tmp_path):
        cfg = cli.load_config(write_config(
            tmp_path, scenario="ball", N_taylor=16))
        assert cfg.n_taylor == 16

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            cli.load_config(str(tmp_path / "absent.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            cli.load_config(str(path))

    def test_non_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            cli.load_config(str(path))

    def test_unknown_field(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config fields"):
            cli.load_config(write_config(tmp_path, scenario="ball", typo=1))

    def test_missing_scenario(self, tmp_path):
        with pytest.raises(ConfigError, match="scenario"):
            cli.load_config(write_config(tmp_path, n_theta=64))

    def test_unknown_scenario(self, tmp_path):
        with pytest.raises(ConfigError):
            cli.load_config(write_config(tmp_path, scenario="torus"))

    def test_gamma_restricted_to_quadric(self, tmp_path):
        with pytest.raises(ConfigError, match="gamma"):
            cli.load_config(write_config(tmp_path, scenario="ball", gamma=0.3))

    def test_epsilon_restricted_to_perturbed(self, tmp_path):
        with pytest.raises(ConfigError, match="epsilon"):
            cli.load_config(write_config(
                tmp_path, scenario="ball", epsilon=0.05))

    def test_parabolic_gamma_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="parabolic"):
            cli.load_config(write_config(
                tmp_path, scenario="model-quadric", gamma=1.0))

    def test_m_compatibility(self, tmp_path):
        with pytest.raises(ConfigError, match="incompatible"):
            cli.load_config(write_config(tmp_path, scenario="weak-m2", m=1))

    def test_positive_tolerances(self, tmp_path):
        with pytest.raises(ConfigError):
            cli.load_config(write_config(
                tmp_path, scenario="ball", newton_tol=-1e-10))

    @pytest.mark.parametrize("key", ["newton_tol", "glue_tol", "grad_cap"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_finite_tolerances(self, tmp_path, key, value):
        # json writes these as the tokens Infinity and NaN, which json reads
        with pytest.raises(ConfigError, match=f"'{key}' must be positive "
                                              "and finite"):
            cli.load_config(write_config(tmp_path, scenario="ball",
                                         **{key: value}))

    def test_m_not_for_quadric(self, tmp_path):
        with pytest.raises(ConfigError,
                           match="'m' does not apply to 'model-quadric'"):
            cli.load_config(write_config(
                tmp_path, scenario="model-quadric", m=7))

    def test_minimum_resolution(self, tmp_path):
        with pytest.raises(ConfigError):
            cli.load_config(write_config(tmp_path, scenario="ball", n_rho=4))

    @pytest.mark.parametrize("n_theta", [24, 8, 48])
    def test_n_theta_power_of_two(self, tmp_path, n_theta):
        with pytest.raises(ConfigError, match="power of two, >= 16"):
            cli.load_config(write_config(
                tmp_path, scenario="ball", n_theta=n_theta, n_rho=8,
                n_taylor=8))

    def test_taylor_order_left_to_run(self, tmp_path):
        # leaf and levi never use n_taylor, so loading does not check it
        cfg = cli.load_config(write_config(
            tmp_path, scenario="ball", n_theta=32, n_rho=16))
        assert (cfg.n_theta, cfg.n_rho, cfg.n_taylor) == (32, 16, 24)


class TestMain:
    def test_check_passes(self, capsys):
        assert cli.main(["check"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "PASS" in out

    def test_quadric_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scenario="model-quadric", gamma=0.4)
        out_dir = tmp_path / "out"
        code = cli.main(["--out", str(out_dir), "--quiet", "run", cfg])
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["status"] == "PASS"
        assert report["checks"]["mu_zero"] == "PASS"
        assert sorted(report["manifest"]) == ["family.json", "gamma_cloud.csv"]
        assert [s["name"] for s in report["stages"]] == [
            "chart_invariants", "validate_adapted", "model_family",
            "write_outputs"]
        assert (out_dir / "family.json").exists()
        assert (out_dir / "gamma_cloud.csv").exists()
        assert not (out_dir / "FAILED").exists()
        fam = json.loads((out_dir / "family.json").read_text())
        assert fam["scenario"] == "model-quadric"
        assert fam["junction_t"] is None
        assert fam["n_discs"] == 10
        assert report["diagnostics"]["bytes_written"] == {
            name: (out_dir / name).stat().st_size
            for name in ("family.json", "gamma_cloud.csv")}

    def test_quadric_run_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, scenario="model-quadric")
        outs = []
        for sub in ("a", "b"):
            out_dir = tmp_path / sub
            assert cli.main(["--out", str(out_dir), "--quiet",
                             "run", cfg]) == 0
            outs.append((out_dir / "family.json").read_bytes()
                        + (out_dir / "gamma_cloud.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_quadric_area_exact(self, tmp_path):
        # oracle: the model disc of radius r bounds an ellipse of area
        # pi r / sqrt(1 - gamma^2)
        cfg = write_config(tmp_path, scenario="model-quadric", gamma=0.7)
        out_dir = tmp_path / "out"
        assert cli.main(["--out", str(out_dir), "--quiet", "run", cfg]) == 0
        fam = json.loads((out_dir / "family.json").read_text())
        for disc in fam["discs"]:
            exact = np.pi * disc["t"] / np.sqrt(1.0 - 0.7 ** 2)
            assert disc["diagnostics"]["area"] == pytest.approx(exact,
                                                               rel=1e-12)

    def test_config_error_exit_and_marker(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scenario="nonsense")
        out_dir = tmp_path / "out"
        code = cli.main(["--out", str(out_dir), "run", cfg])
        assert code == 2
        assert (out_dir / "FAILED").exists()
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [
        {"scenario": "ball", "newton_tol": "abc"},
        {"scenario": "ball", "n_theta": "x"},
        {"scenario": "ball", "m": "two"},
        {"scenario": "ball", "n_taylor": None},
        {"scenario": "perturbed-ball", "epsilon": "big"}])
    def test_malformed_number_is_config_error(self, tmp_path, capsys, config):
        cfg = write_config(tmp_path, **config)
        out_dir = tmp_path / "out"
        code = cli.main(["--out", str(out_dir), "--quiet", "leaf", cfg])
        assert code == 2
        assert (out_dir / "FAILED").exists()
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "levi"])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, scenario="ball", seed=-1)
        out_dir = tmp_path / "out"
        assert cli.main(["--out", str(out_dir), "--quiet", command, cfg]) == 2
        assert "'seed' must be non-negative, got -1" in capsys.readouterr().err
        assert (out_dir / "FAILED").read_text().startswith("ConfigError: ")

    def test_bad_resolution_flag(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, scenario="model-quadric")
        code = cli.main(["--resolution", "64x32", "--quiet", "run", cfg])
        assert code == 2
        assert (tmp_path / "out" / "FAILED").exists()

    @pytest.mark.parametrize("flag", [None, "24,8"])
    def test_run_n_theta_not_power_of_two(self, tmp_path, capsys, flag):
        fields = {"n_theta": 24, "n_rho": 8, "n_taylor": 8} if flag is None \
            else {}
        cfg = write_config(tmp_path, scenario="ball", **fields)
        out_dir = tmp_path / "out"
        argv = ["--out", str(out_dir), "--quiet", "run", cfg]
        if flag:
            argv[:0] = ["--resolution", flag]
        assert cli.main(argv) == 2
        assert "n_theta = 24 must be a power of two" in capsys.readouterr().err
        assert (out_dir / "FAILED").exists()

    def test_resolution_flag_minimum_n_rho(self, tmp_path, monkeypatch,
                                           capsys):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, scenario="ball")
        assert cli.main(["--resolution", "32,4", "--quiet", "leaf", cfg]) == 2
        assert "n_rho = 4" in capsys.readouterr().err
        assert (tmp_path / "out" / "FAILED").exists()

    @pytest.mark.parametrize("command,config,error", [
        ("leaf", {"scenario": "ball", "n_theta": 24, "output_dir": "myout"},
         "n_theta = 24 must be a power of two"),
        ("run", {"scenario": "ball", "n_theta": 32, "n_rho": 16,
                 "output_dir": "myout"}, "exceeds 15"),
        ("run", {"scenario": "ball", "n_theta": 24, "output_dir": 7},
         "power of two"),
        ("leaf", {"scenario": "torus", "output_dir": "myout"},
         "unknown scenario")])
    def test_config_error_marker_without_out_flag(
            self, tmp_path, monkeypatch, capsys, command, config, error):
        # without --out the marker goes to the config's output_dir when it
        # names one as a string, else to the default out
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, **config)
        assert cli.main(["--quiet", command, cfg]) == 2
        assert error in capsys.readouterr().err
        out_dir = config["output_dir"] \
            if isinstance(config["output_dir"], str) else "out"
        marker = tmp_path / out_dir / "FAILED"
        assert marker.read_text().startswith("ConfigError: ")
        assert not (tmp_path / "FAILED").exists()

    @pytest.mark.parametrize("n_theta,n_rho,flag,limit", [
        (32, 16, None, 15), (64, 16, None, 16),
        (64, 32, "32,16", 15), (64, 32, "64,16", 16)])
    def test_run_taylor_limit(self, tmp_path, capsys, n_theta, n_rho, flag,
                              limit):
        cfg = write_config(tmp_path, scenario="ball", n_theta=n_theta,
                           n_rho=n_rho, n_taylor=24)
        out_dir = tmp_path / "out"
        argv = ["--out", str(out_dir), "--quiet", "run", cfg]
        if flag:
            argv[:0] = ["--resolution", flag]
        assert cli.main(argv) == 2
        assert f"exceeds {limit}" in capsys.readouterr().err
        assert (out_dir / "FAILED").exists()

    @pytest.mark.parametrize("command,scenario", [
        ("leaf", "ball"), ("run", "model-quadric")])
    def test_taylor_order_unused_elsewhere(self, tmp_path, command, scenario):
        # 24 Taylor terms exceed a 32x16 grid, but these never use them
        cfg = write_config(tmp_path, scenario=scenario)
        out_dir = tmp_path / "out"
        assert cli.main(["--out", str(out_dir), "--resolution", "32,16",
                         "--quiet", command, cfg]) == 0
        assert not (out_dir / "FAILED").exists()

    def test_leaf_command(self, tmp_path):
        cfg = write_config(tmp_path, scenario="ball")
        out_dir = tmp_path / "out"
        code = cli.main(["--out", str(out_dir), "--quiet", "leaf", cfg])
        assert code == 0
        lines = (out_dir / "leaf.csv").read_text().strip().split("\n")
        assert lines[0] == "leaf,t,u,v,x1,y1,x2,y2"
        rows = np.array([[float(x) for x in line.split(",")[:2]]
                         for line in lines[1:]])
        assert sorted(set(rows[:, 0])) == [0.0, 1.0, 2.0]
        for k in range(3):
            t = rows[rows[:, 0] == k, 1]
            assert len(t) == 257
            assert t[0] == pytest.approx(0.02) and t[-1] == pytest.approx(0.98)
        report = json.loads((out_dir / "report.json").read_text())
        # the ball's leaves are meridians: u0 is a fixed point at once
        assert report["diagnostics"]["leaf_sweeps"] == [1, 1, 1]
        assert [s["name"] for s in report["stages"]] == [
            "integrate_leaf", "write_outputs"]
        assert report["diagnostics"]["bytes_written"] == {
            "leaf.csv": (out_dir / "leaf.csv").stat().st_size}

    def test_leaf_needs_two_complex_points(self, tmp_path):
        cfg = write_config(tmp_path, scenario="model-quadric")
        out_dir = tmp_path / "out"
        assert cli.main(["--out", str(out_dir), "--quiet", "leaf", cfg]) == 2
        assert (out_dir / "FAILED").exists()
        report = json.loads((out_dir / "report.json").read_text())
        assert report["status"] == "FAIL"
        assert report["error"] == ("ConfigError: leaf needs a sphere with two "
                                   "complex points; model-quadric has 1")
        assert "in _run_leaf" in report["traceback"]

    def test_failed_marker_cleared_on_success(self, tmp_path):
        cfg = write_config(tmp_path, scenario="model-quadric")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / "FAILED").write_text("stale\n")
        assert cli.main(["--out", str(out_dir), "--quiet", "run", cfg]) == 0
        assert not (out_dir / "FAILED").exists()


def exploding_stage(*args, **kwargs):
    raise RuntimeError("unexpected")


def failing_stage(*args, **kwargs):
    raise DiscSolveFailed("diagnostic")


class TestPerturbedRuns:
    """Perturbed-ball fillings at 32x16 (the benchmark's resolution)."""

    def run(self, tmp_path, epsilon, n_taylor):
        cfg = write_config(tmp_path, scenario="perturbed-ball",
                           epsilon=epsilon, n_theta=32, n_rho=16,
                           n_taylor=n_taylor)
        out_dir = tmp_path / "out"
        code = cli.main(["--out", str(out_dir), "--quiet", "run", cfg])
        return code, json.loads((out_dir / "report.json").read_text())

    # Newton iterations with the previous disc as the seed of every solve
    @pytest.mark.parametrize("epsilon,n_taylor,previous_disc_iters",
                             [(0.01, 12, 186), (0.05, 15, 253)])
    def test_secant_predictor_keeps_the_discs(self, tmp_path, epsilon,
                                              n_taylor, previous_disc_iters):
        code, report = self.run(tmp_path, epsilon, n_taylor)
        diag = report["diagnostics"]
        assert code == 0 and report["status"] == "PASS"
        assert diag["n_discs"] == 37
        assert diag["rejected_steps"] == []
        assert diag["total_newton_iters"] < previous_disc_iters
        assert diag["total_psi_sweeps"] > diag["total_newton_iters"]

    def test_work_counts(self, tmp_path):
        # the benchmark's perturbed-filling run: inexact Psi^-1 and the
        # four-disc predictor took 136 iterations and 248 sweeps, against
        # 153 and 555 with exact solves and the secant
        code, report = self.run(tmp_path, 0.01, 12)
        diag = report["diagnostics"]
        assert code == 0 and report["status"] == "PASS"
        assert diag["n_discs"] == 37
        assert diag["rejected_steps"] == []
        assert diag["max_cr_residual"] <= 1e-12
        assert diag["total_newton_iters"] <= 140
        assert diag["total_psi_sweeps"] <= 330
        assert 37 < diag["total_psi_solves"] <= diag["total_psi_sweeps"]

    def test_taylor_floor_is_underresolved(self, tmp_path):
        code, report = self.run(tmp_path, 0.08, 15)
        assert code == 2 and report["status"] == "FAIL"
        assert report["error"].startswith("Underresolved: t = 0.225: "
                                          "residual floor")
        assert "15-term Taylor ansatz" in report["error"]
        assert "32x16 grid holds up to 15 terms" in report["error"]
        assert (tmp_path / "out" / "FAILED").exists()


class TestFailureReports:
    """run, leaf and levi share one failure path that keeps the traceback."""

    STAGES = [("run", continuation, "reference_leaves"),
              ("leaf", continuation, "reference_leaves"),
              ("levi", geometry, "levi_form")]

    def run_with(self, tmp_path, monkeypatch, command, owner, attr, stage):
        monkeypatch.setattr(owner, attr, stage)
        cfg = write_config(tmp_path, scenario="ball")
        out_dir = tmp_path / "out"
        code = cli.main(["--out", str(out_dir), "--quiet", command, cfg])
        assert (out_dir / "FAILED").exists()
        return code, json.loads((out_dir / "report.json").read_text())

    @pytest.mark.parametrize("command,owner,attr", STAGES,
                             ids=[s[0] for s in STAGES])
    def test_unexpected_exception(self, tmp_path, monkeypatch, command,
                                  owner, attr):
        code, report = self.run_with(tmp_path, monkeypatch, command, owner,
                                     attr, exploding_stage)
        assert code == 1
        assert report["status"] == "ERROR"
        assert report["error"] == "RuntimeError: unexpected"
        assert "in exploding_stage" in report["traceback"]

    @pytest.mark.parametrize("command,owner,attr", STAGES,
                             ids=[s[0] for s in STAGES])
    def test_diagnostic_failure(self, tmp_path, monkeypatch, command, owner,
                                attr):
        code, report = self.run_with(tmp_path, monkeypatch, command, owner,
                                     attr, failing_stage)
        assert code == 2
        assert report["status"] == "FAIL"
        assert report["error"] == "DiscSolveFailed: diagnostic"
        assert "in failing_stage" in report["traceback"]

    def test_pass_has_no_traceback(self, tmp_path):
        cfg = write_config(tmp_path, scenario="ball")
        out_dir = tmp_path / "out"
        assert cli.main(["--out", str(out_dir), "--quiet", "leaf", cfg]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["status"] == "PASS" and report["traceback"] is None
