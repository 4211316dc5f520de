"""Command-line interface: commands, config layering, exit codes, files."""

import csv
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

CLI = [sys.executable, "-m", "slipchan.cli"]


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env, cwd=cwd
    )


def run_main(argv, capsys):
    """(exit code, stdout, stderr) of one in-process `main` call."""
    import slipchan.cli

    try:
        code = slipchan.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# eigenvalue
# ---------------------------------------------------------------------------


class TestEigenvalueCommand:
    def test_finite_friction_headline(self):
        proc = run_cli("eigenvalue", "--m", "0", "--n", "0", "--p", "0", "--beta", "1")
        assert proc.returncode == 0
        assert "lambda = 0.740173884395" in proc.stdout
        assert "bracket = " in proc.stdout
        assert "branch = " in proc.stdout

    def test_no_slip_pressure_class(self):
        proc = run_cli(
            "eigenvalue", "--m", "1", "--n", "0", "--p", "0",
            "--dirichlet", "--pressure-class", "nonconst",
        )
        assert proc.returncode == 0
        assert "lambda = 9.31373985392" in proc.stdout

    def test_frictionless_ground_mode(self):
        proc = run_cli("eigenvalue", "--m", "0", "--n", "0", "--p", "0", "--navier")
        assert proc.returncode == 0
        assert "lambda = 0" in proc.stdout

    def test_limits_print_a_closed_bracket(self):
        # the closed-form eigenvalue is an end of the printed bracket
        proc = run_cli("eigenvalue", "--m", "0", "--n", "0", "--p", "1", "--dirichlet")
        assert proc.stdout == ("lambda = 2.46740110027\nbracket = [0, 2.46740110027]\n"
                               "branch = closed-form\n")
        proc = run_cli("eigenvalue", "--m", "1", "--n", "0", "--p", "2", "--navier")
        assert proc.stdout == ("lambda = 10.8696044011\n"
                               "bracket = [10.8696044011, 23.2066099025]\n"
                               "branch = closed-form\n")

    def test_beta_zero_gets_a_redirect_hint(self):
        proc = run_cli("eigenvalue", "--m", "0", "--n", "0", "--p", "0", "--beta", "0")
        assert proc.returncode == 2
        assert "--navier" in proc.stderr

    def test_beta_inf_gets_a_redirect_hint(self):
        proc = run_cli("eigenvalue", "--m", "1", "--n", "1", "--p", "0", "--beta=inf")
        assert proc.returncode == 2
        assert "--dirichlet" in proc.stderr
        assert "navier" not in proc.stderr

    def test_invalid_case_messages(self):
        proc = run_cli("eigenvalue", "--m", "0", "--n", "0", "--p", "0", "--dirichlet")
        assert proc.returncode == 2
        assert "p >= 1" in proc.stderr
        proc = run_cli(
            "eigenvalue", "--m", "0", "--n", "0", "--p", "0",
            "--beta", "1", "--pressure-class", "nonconst",
        )
        assert proc.returncode == 2
        assert "m^2 + n^2 > 0" in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["--m", "1", "--n", "0", "--p", str(10**200), "--navier"],
        ["--m", "1", "--n", "0", "--p", str(10**200), "--beta", "1"],
        ["--m", str(10**160), "--n", "0", "--p", "0", "--dirichlet", "--pressure-class", "nonconst"],
        ["--m", "1", "--n", "0", "--p", str(10**155), "--dirichlet", "--pressure-class", "nonconst"],
    ], ids=["p-navier", "p-beta1", "m-dirichlet-nonconst", "p-dirichlet-nonconst"])
    def test_an_eigenvalue_beyond_double_precision_is_an_error(self, capsys, argv):
        # once a bare OverflowError traceback with exit 1
        code, out, err = run_main(["eigenvalue", *argv], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: the eigenvalue of WaveIndex(")
        assert err.endswith("leaves double precision\n")

    def test_friction_flags_are_mutually_exclusive(self):
        proc = run_cli(
            "eigenvalue", "--m", "0", "--n", "0", "--p", "0",
            "--beta", "1", "--navier",
        )
        assert proc.returncode == 2

    def test_missing_friction(self):
        proc = run_cli("eigenvalue", "--m", "0", "--n", "0", "--p", "0")
        assert proc.returncode == 2
        assert "friction" in proc.stderr

    def test_unknown_pressure_class(self):
        proc = run_cli(
            "eigenvalue", "--m", "1", "--n", "0", "--p", "0",
            "--beta", "1", "--pressure-class", "weird",
        )
        assert proc.returncode == 2
        assert "const" in proc.stderr and "nonconst" in proc.stderr

    def test_unknown_pressure_class_via_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"m": 1, "n": 0, "p": 0, "beta": 1.0, "pressure_class": "weird"}
        ))
        proc = run_cli("eigenvalue", "--config", str(cfg))
        assert proc.returncode == 2
        assert "invalid choice: 'weird'" in proc.stderr
        assert "(choose from const, nonconst)" in proc.stderr.replace("'", "")

    @pytest.mark.parametrize("friction", [
        ["--beta", "1"], ["--navier"], ["--dirichlet"],
        ["--beta", "1", "--pressure-class", "nonconst"],
    ], ids=["beta1", "navier", "dirichlet", "beta1-nonconst"])
    def test_a_collapsed_rung_still_prints_its_bracket(self, capsys, friction):
        # at p = 1e20 the rung's two ends round to one float; the bracket
        # widens to that float's neighbours instead of failing as empty
        argv = ["eigenvalue", "--m", "1", "--n", "0", "--p", str(10**20), *friction]
        code, out, err = run_main(argv, capsys)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[:2] == ["lambda = 2.46740110027e+40",
                             "bracket = [2.46740110027e+40, 2.46740110027e+40]"]
        assert len(lines) == 3 and lines[2].startswith("branch = ")

    @pytest.mark.parametrize("p,value", [(10**16, "2.46740110027e+32"),
                                         (10**20, "2.46740110027e+40")])
    def test_no_slip_pressure_root_at_huge_p(self, capsys, p, value):
        # the root sits within rounding of its interval's upper end; this
        # once exited 2 with "no sign change"
        argv = ["eigenvalue", "--m", "1", "--n", "0", "--p", str(p), "--dirichlet",
                "--pressure-class", "nonconst"]
        code, out, err = run_main(argv, capsys)
        assert (code, err) == (0, "")
        assert out.splitlines() == [f"lambda = {value}", f"bracket = [{value}, {value}]",
                                    "branch = even"]

    def test_pressure_root_below_the_last_bit_of_its_lower_end(self, capsys):
        # (mu^2 + s^2) / beta overflows at beta = 1e-12; this once exited 2
        # with "no sign change"
        argv = ["eigenvalue", "--m", "1", "--n", "0", "--p", str(10**150), "--beta", "1e-12",
                "--pressure-class", "nonconst"]
        code, out, err = run_main(argv, capsys)
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "lambda = 2.46740110027e+300"


class TestConfigLayering:
    def test_config_supplies_settings(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 0, "n": 0, "p": 0, "beta": 1.0}))
        proc = run_cli("eigenvalue", "--config", str(cfg))
        assert proc.returncode == 0
        assert "0.740173884395" in proc.stdout

    def test_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 0, "n": 0, "p": 0, "beta": 1.0}))
        proc = run_cli("eigenvalue", "--config", str(cfg), "--beta", "10")
        assert proc.returncode == 0
        assert "2.04166950895" in proc.stdout

    def test_bad_config_contents(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        proc = run_cli("eigenvalue", "--config", str(bad))
        assert proc.returncode == 2

        worse = tmp_path / "worse.json"
        worse.write_text("{not json")
        proc = run_cli("eigenvalue", "--config", str(worse))
        assert proc.returncode == 2

    def test_missing_config_file(self, tmp_path):
        proc = run_cli("eigenvalue", "--config", str(tmp_path / "nope.json"))
        assert proc.returncode == 2

    # (command line without the option, config key, valid value, bad value)
    TYPED = [
        (["eigenvalue", "--beta", "1"], "m", 1, 1.5),
        (["eigenvalue", "--beta", "1"], "n", 2, "two"),
        (["eigenvalue", "--beta", "1"], "p", 1, True),
        (["eigenvalue", "--m", "1"], "beta", 2.5, "abc"),
        (["table", "--beta", "1"], "count", 3, 4.7),
        (["figure", "--friction-list", "1,inf"], "count", 3, "x"),
        (["verify", "--suite", "modes", "--beta", "1"], "max_index", 4, 4.0),
        (["verify", "--suite", "oracle", "--beta", "1"], "grid_n", 100, "x"),
        (["verify", "--suite", "modes", "--beta", "1", "--max-index", "4"], "seed", 1, 1.5),
    ]

    @pytest.mark.parametrize(
        "argv,key,good,bad", TYPED, ids=[f"{t[0][0]}-{t[1]}" for t in TYPED]
    )
    def test_config_values_are_typed_like_flags(
        self, tmp_path, capsys, argv, key, good, bad
    ):
        flag = "--" + key.replace("_", "-")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: bad}))
        code, out, err = run_main(argv + ["--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert f"argument {flag}: invalid" in err
        cfg.write_text(json.dumps({key: good}))
        via_config = run_main(argv + ["--config", str(cfg)], capsys)
        assert via_config[0] in (0, 1)
        assert via_config == run_main(argv + [flag, str(good)], capsys)

    CHOICES = [
        (["table", "--beta", "1"], "family", "CONSTANT"),
        (["table", "--beta", "1"], "format", "xml"),
        (["verify", "--beta", "1"], "suite", "everything"),
        (["eigenvalue", "--m", "1", "--beta", "1"], "pressure_class", "weird"),
    ]

    @pytest.mark.parametrize(
        "argv,key,bad", CHOICES, ids=[f"{t[0][0]}-{t[1]}" for t in CHOICES]
    )
    def test_config_values_are_checked_against_choices(
        self, tmp_path, capsys, argv, key, bad
    ):
        flag = "--" + key.replace("_", "-")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: bad}))
        via_config = run_main(argv + ["--config", str(cfg)], capsys)
        assert via_config[:2] == (2, "")
        assert f"argument {flag}: invalid choice: {bad!r}" in via_config[2]
        assert via_config == run_main(argv + [flag, bad], capsys)

    def test_config_value_that_looks_like_a_flag_is_a_value(
        self, tmp_path, capsys, monkeypatch
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": "-x.csv"}))
        monkeypatch.chdir(tmp_path)
        argv = ["table", "--beta", "1", "--count", "2", "--config", str(cfg)]
        assert run_main(argv, capsys) == (0, "", "")
        assert (tmp_path / "-x.csv").read_text().startswith("j,family,")

    @pytest.mark.parametrize("value", [["x.csv"], {"path": "x.csv"}, True, False], ids=repr)
    def test_config_value_that_is_not_a_scalar_is_rejected(
        self, tmp_path, capsys, monkeypatch, value
    ):
        # {"out": ["x.csv"]} once wrote the table to a file named "['x.csv']"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": value, "beta": 1}))
        monkeypatch.chdir(tmp_path)
        code, out, err = run_main(["table", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert f"argument --out: invalid config value {value!r}" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_config_zero_is_kept(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"count": 0}))
        argv = ["figure", "--friction-list", "1,inf"]
        via_config = run_main(argv + ["--config", str(cfg)], capsys)
        assert via_config[:2] == (2, "")
        assert "--count must be positive, got 0" in via_config[2]
        assert via_config == run_main(argv + ["--count", "0"], capsys)

    def test_config_friction_yields_to_any_friction_flag(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"navier": True}))
        argv = ["eigenvalue", "--config", str(cfg), "--beta", "10"]
        assert run_main(argv, capsys)[1].startswith("lambda = 2.04166950895\n")
        cfg.write_text(json.dumps({"beta": 2.5, "navier": True}))
        code, _, err = run_main(["eigenvalue", "--config", str(cfg)], capsys)
        assert code == 2
        assert "conflicting frictions: ['beta', 'navier']" in err
        argv = ["eigenvalue", "--config", str(cfg), "--dirichlet", "--p", "1"]
        assert run_main(argv, capsys)[1].startswith("lambda = 2.46740110027\n")

    @pytest.mark.parametrize("key", ["navier", "dirichlet"])
    @pytest.mark.parametrize("value", ["false", "true", 0, 1, [True]], ids=repr)
    def test_config_friction_switches_must_be_booleans(self, tmp_path, capsys, key, value):
        # {"navier": "false"} used to select the frictionless wall
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code, out, err = run_main(["eigenvalue", "--m", "1", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert f"argument --{key}: config value must be true or false, got {value!r}" in err
        cfg.write_text(json.dumps({key: False, "beta": 1.0}))
        assert run_main(["eigenvalue", "--m", "1", "--config", str(cfg)], capsys)[0] == 0

    def test_config_out_is_a_path(self, tmp_path):
        # a subprocess, so a number read as a file descriptor stays harmless
        import slipchan

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": 5}))
        src = str(Path(slipchan.__file__).resolve().parents[1])
        proc = run_cli("table", "--beta", "1", "--count", "2", "--config", str(cfg),
                       env_extra={"PYTHONPATH": src}, cwd=tmp_path)
        assert (proc.returncode, proc.stdout) == (0, ""), proc.stderr
        assert (tmp_path / "5").read_text().startswith("j,family,")


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


class TestTableCommand:
    def test_constant_family_table(self):
        proc = run_cli("table", "--beta", "1", "--family", "const", "--count", "10")
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "j,family,m,n,p,permuted,value,multiplicity"
        values = [round(float(r.split(",")[6]), 2) for r in lines[1:]]
        mults = [int(r.split(",")[7]) for r in lines[1:]]
        assert values == [0.74, 1.74, 2.74, 4.12, 4.74, 5.12, 5.74, 6.12, 8.12, 8.74]
        assert mults == [2, 8, 4, 2, 8, 8, 8, 4, 8, 4]

    def test_frictionless_single_row(self):
        proc = run_cli("table", "--navier", "--count", "1")
        assert proc.stdout.strip().splitlines()[1] == "1,const,0,0,0,false,0,2"

    def test_reruns_are_byte_identical(self):
        a = run_cli("table", "--beta", "10", "--family", "nonconst", "--count", "10")
        b = run_cli("table", "--beta", "10", "--family", "nonconst", "--count", "10")
        assert a.stdout == b.stdout

    def test_json_format(self):
        proc = run_cli("table", "--beta", "1", "--count", "3", "--format", "json")
        rows = json.loads(proc.stdout)["rows"]
        assert rows[0]["value"] == pytest.approx(0.740174, abs=1e-6)
        assert rows[0]["multiplicity"] == 2

    def test_out_file(self, tmp_path):
        target = tmp_path / "table.csv"
        proc = run_cli("table", "--beta", "1", "--count", "2", "--out", str(target))
        assert proc.returncode == 0
        assert target.read_text().startswith("j,family,")

    def test_out_write_failure(self, tmp_path):
        proc = run_cli(
            "table", "--beta", "1", "--count", "2",
            "--out", str(tmp_path / "no" / "dir" / "t.csv"),
        )
        assert proc.returncode == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class TestVerifyCommand:
    def test_modes_suite_green(self):
        proc = run_cli(
            "verify", "--suite", "modes", "--beta", "1", "--max-index", "6"
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["pass"] is True
        assert report["failures"] == 0
        assert report["checks"] == len(report["rows"])
        assert "tol_override" not in report

    def test_free_wall_modes_suite_green(self):
        proc = run_cli("verify", "--navier", "--suite", "modes")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["pass"] is True

    def test_oracle_suite_green(self):
        proc = run_cli(
            "verify", "--suite", "oracle", "--beta", "1", "--grid-n", "400"
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["pass"] is True

    def test_there_is_no_tolerance_override(self, capsys):
        # every verdict comes from its row's own rule
        code, out, err = run_main(["verify", "--beta", "1.3", "--tol", "1e-3"], capsys)
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --tol 1e-3" in err

    def test_oracle_reruns_are_byte_identical(self):
        args = ("verify", "--suite", "oracle", "--beta", "1.3", "--grid-n", "2000")
        first, second = run_cli(*args), run_cli(*args)
        assert first.returncode == 0, first.stderr
        assert first.stdout == second.stdout

    def test_coarsest_oracle_reruns_are_byte_identical(self):
        # two processes on the smallest --grid-n the CLI accepts, which
        # the spectral oracle does not use
        args = ("verify", "--suite", "oracle", "--beta", "1.3", "--grid-n", "100")
        first, second = run_cli(*args), run_cli(*args)
        assert first.returncode == 0, first.stderr
        assert json.loads(first.stdout)["checks"] == 5
        assert first.stdout == second.stdout

    def test_grid_n_is_recorded_but_changes_no_row(self, capsys):
        reports = []
        for grid in ("100", "2000"):
            argv = ["verify", "--suite", "oracle", "--beta", "1.3", "--grid-n", grid]
            code, out, _ = run_main(argv, capsys)
            assert code == 0
            reports.append(json.loads(out))
        assert [r.pop("grid_n") for r in reports] == [100, 2000]
        assert reports[0] == reports[1]
        assert {(row["check"], row["tolerance"]) for row in reports[0]["rows"]} == {
            ("spectral_oracle", 1e-8)}

    def test_unknown_suite(self):
        proc = run_cli("verify", "--suite", "everything", "--beta", "1")
        assert proc.returncode == 2

    def test_small_oracle_grid_is_a_usage_error(self):
        proc = run_cli("verify", "--suite", "oracle", "--beta", "1", "--grid-n", "50")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and "100 intervals" in proc.stderr

    def test_small_oracle_grid_is_rejected_before_any_suite(self, monkeypatch, capsys):
        import slipchan.cli
        import slipchan.verify

        ran = []
        for name in ("suite_modes", "suite_helmholtz"):
            monkeypatch.setattr(slipchan.verify, name,
                                lambda *args, name=name, **kwargs: ran.append(name) or [])
        argv = ["verify", "--beta", "1.3", "--grid-n", "50", "--max-index", "40"]
        assert slipchan.cli.main(argv) == 2
        assert ran == []
        assert capsys.readouterr().err == (
            "error: oracle grid must have at least 100 intervals, got 50\n")
        # without the oracle the grid is not checked
        argv = ["verify", "--suite", "modes", "--beta", "1.3", "--grid-n", "50",
                "--out", os.devnull]
        assert slipchan.cli.main(argv) == 0
        assert ran == ["suite_modes"]

    def test_negative_seed_is_a_usage_error(self):
        proc = run_cli("verify", "--suite", "modes", "--beta", "1", "--seed", "-1")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "--seed must be non-negative" in proc.stderr


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


class TestSimulateCommand:
    def test_single_mode_run(self, tmp_path):
        manifest = tmp_path / "run.json"
        manifest.write_text(json.dumps({
            "friction": 1.0,
            "indices": [[1, 1, 0]],
            "gammas": [1.0],
            "coeffs": "matched",
            "dt": 1e-3,
            "T": 1.0,
            "stride": 100,
        }))
        out_dir = tmp_path / "out"
        proc = run_cli("simulate", "--manifest", str(manifest), "--out-dir", str(out_dir))
        assert proc.returncode == 0
        summary = json.loads(proc.stdout)
        assert summary["dropped_tail"] == 0
        assert summary["trajectory_csv"].endswith("run_trajectory.csv")

        with open(out_dir / "run_trajectory.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["t", "A_1", "energy", "dissipation"]
        final = float(rows[-1][1])
        exact = math.exp(-2.7401738843949675)
        assert abs(final - exact) / exact < 1e-9
        assert (out_dir / "run_energy.csv").exists()

    def test_manifest_error_exits_2(self, tmp_path):
        manifest = tmp_path / "bad.json"
        manifest.write_text(json.dumps({"friction": 1.0}))
        proc = run_cli("simulate", "--manifest", str(manifest))
        assert proc.returncode == 2

    def test_missing_manifest_file(self, tmp_path):
        proc = run_cli("simulate", "--manifest", str(tmp_path / "none.json"))
        assert proc.returncode == 2

    VALID = {
        "friction": 1.0, "indices": [[1, 1, 0]], "gammas": [1.0],
        "coeffs": "matched", "dt": 1e-3, "T": 0.01,
    }
    # (manifest change, text the error names)
    MALFORMED = [
        ({"gammas": ["x"]}, "gammas"),
        ({"gammas": [None]}, "gammas"),
        ({"gammas": 3}, "gammas"),
        ({"gammas": [True]}, "gammas"),
        ({"dt": "abc"}, "dt"),
        ({"dt": True}, "dt"),
        ({"T": "1"}, "T"),
        ({"truncate": "x"}, "truncate"),
        ({"truncate": 1.0}, "truncate"),
        ({"stride": 1.5}, "stride"),
        ({"coeffs": 5}, "coeffs"),
        ({"coeffs": [[1, 0, 0]]}, "coeffs"),
        ({"coeffs": [[1, 0, 0, "x"]]}, "coeffs"),
        ({"indices": 5}, "indices"),
        ({"indices": [[1, 1, "a"]]}, "p must"),
        ({"indices": [[1.5, 1, 0]]}, "m must"),
        ({"indices": [[1.0, 1, 0]]}, "m must"),
        ({"friction": {"beta": None}}, "friction"),
        ({"friction": {"beta": True}}, "friction"),
        ({"friction": "0.0"}, "navier"),
        ({"indices": "110"}, "indices must be a list"),
        ({"gammas": {"a": 1}}, "gammas must be a list"),
        ({"indices": [], "gammas": []}, "at least one basis index is required"),
        ({"indices": [[1, 1, 0], [1, 1, 0]], "gammas": [1, 1], "truncate": 1},
         "duplicate basis entry"),
        ({"indices": [[1, 1, 0], [1, 2, 0]], "gammas": [1, math.inf], "truncate": 1},
         "initial amplitudes must be finite"),
        ({"T": 1e308, "dt": 1e-3}, "too many steps"),
        ({"T": 1, "dt": 5e-324}, "too many steps"),
        ({"T": 1e300, "dt": 1e-3}, "MAX_STEPS = 1000000"),
    ]

    @pytest.mark.parametrize(
        "change,named", MALFORMED, ids=[json.dumps(c) for c, _ in MALFORMED]
    )
    def test_malformed_manifest_value_exits_2(self, tmp_path, capsys, change, named):
        manifest = tmp_path / "run.json"
        manifest.write_text(json.dumps(dict(self.VALID, **change)))
        argv = ["simulate", "--manifest", str(manifest), "--out-dir", str(tmp_path)]
        code, out, err = run_main(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize("key,value,named", [
        ("friction", 10**400, "finite friction beta"),
        ("gammas", [10**400], "gammas"),
        ("dt", 10**400, "dt"),
    ], ids=["friction", "gammas", "dt"])
    def test_number_too_large_for_a_float_exits_2(
        self, tmp_path, capsys, key, value, named
    ):
        manifest = tmp_path / "run.json"
        manifest.write_text(json.dumps(dict(self.VALID, **{key: value})))
        argv = ["simulate", "--manifest", str(manifest), "--out-dir", str(tmp_path)]
        code, out, err = run_main(argv, capsys)
        assert (code, out, err) == (2, "", f"error: {named} is too large for a float\n")

    def test_nested_friction_name(self, tmp_path, capsys):
        outputs = []
        for friction in ("navier", {"beta": "navier"}):
            manifest = tmp_path / "run.json"
            manifest.write_text(json.dumps(dict(self.VALID, friction=friction)))
            argv = ["simulate", "--manifest", str(manifest), "--out-dir", str(tmp_path)]
            outputs.append(run_main(argv, capsys))
        assert outputs[0][0] == 0
        assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# figure
# ---------------------------------------------------------------------------


class TestFigureCommand:
    def test_staircase_orderings(self):
        proc = run_cli(
            "figure", "--friction-list", "0,1,10,inf", "--count", "46"
        )
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "beta,k,lambda_k"
        table = {}
        for line in lines[1:]:
            beta, k, lam = line.split(",")
            table.setdefault(beta, []).append((int(k), float(lam)))
        assert set(table) == {"0", "1", "10", "inf"}
        for beta, rows in table.items():
            ks = [k for k, _ in rows]
            vals = [v for _, v in rows]
            assert ks == list(range(1, 47))
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:])), beta
        # wall friction only raises each staircase level
        for k in range(46):
            seq = [table[b][k][1] for b in ("0", "1", "10", "inf")]
            assert all(a <= b + 1e-9 for a, b in zip(seq, seq[1:])), k

    def test_pressure_family_staircases(self):
        proc = run_cli(
            "figure", "--friction-list", "1,10,inf",
            "--family", "nonconst", "--count", "20",
        )
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()[1:]
        table = {}
        for line in lines:
            beta, k, lam = line.split(",")
            table.setdefault(beta, []).append(float(lam))
        for k in range(20):
            seq = [table[b][k] for b in ("1", "10", "inf")]
            assert all(a <= b + 1e-9 for a, b in zip(seq, seq[1:]))

    @pytest.mark.parametrize("argv", [[], ["--friction-list", ""], ["--friction-list", ","],
                                      ["--friction-list", " , "]], ids=repr)
    def test_an_empty_friction_list_is_one_error(self, capsys, argv):
        # a list of only commas once had its own message
        code, out, err = run_main(["figure", *argv, "--count", "5"], capsys)
        assert (code, out) == (2, "")
        assert err.endswith("error: --friction-list is required, e.g. --friction-list 0,1,10,inf\n")

    def test_bad_friction_token(self):
        proc = run_cli("figure", "--friction-list", "1,zero", "--count", "5")
        assert proc.returncode == 2

    def test_only_positive_infinity_means_no_slip(self):
        proc = run_cli("figure", "--friction-list=-inf", "--count", "5")
        assert proc.returncode == 2
        assert "beta > 0" in proc.stderr
        proc = run_cli("figure", "--friction-list=+inf", "--count", "5")
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1].startswith("inf,1,")

    def test_beta_zero_token_redirects(self):
        proc = run_cli("figure", "--friction-list", "0.0", "--count", "5")
        assert proc.returncode == 2
        assert "--navier" in proc.stderr or "navier" in proc.stderr

    def test_deterministic(self):
        a = run_cli("figure", "--friction-list", "1,10", "--count", "12")
        b = run_cli("figure", "--friction-list", "1,10", "--count", "12")
        assert a.stdout == b.stdout


class TestStartup:
    def test_no_command_loads_scipy_or_an_executor(self, tmp_path):
        manifest = tmp_path / "run.json"
        manifest.write_text(json.dumps({
            "friction": 1.0, "indices": [[1, 1, 0]], "gammas": [1.0],
            "coeffs": "matched", "dt": 1e-3, "T": 0.01,
        }))
        script = f"""
import json, os, sys
import slipchan.cli

def loaded(top):
    return sorted(m for m in sys.modules if m.split(".")[0] == top)

scipy = {{"import": loaded("scipy")}}
pools = {{"import": loaded("concurrent")}}
runs = {{
    "eigenvalue": ["eigenvalue", "--m", "1", "--n", "0", "--p", "2", "--beta", "3"],
    "table": ["table", "--family", "merged", "--count", "40", "--beta", "3"],
    "figure": ["figure", "--family", "merged", "--count", "400",
               "--friction-list", "0,0.5,inf", "--out", os.devnull],
    "simulate": ["simulate", "--manifest", {str(manifest)!r},
                 "--out-dir", {str(tmp_path / "out")!r}],
    "verify": ["verify", "--suite", "all", "--beta", "1", "--max-index", "6",
               "--out", os.devnull],
}}
for name, argv in runs.items():
    assert slipchan.cli.main(argv) == 0, name
    scipy[name] = loaded("scipy")
    pools[name] = loaded("concurrent")
print(json.dumps({{"scipy": scipy, "pools": pools}}))
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=dict(os.environ))
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout.strip().splitlines()[-1])
        # the oracle is a dense numpy solve and every suite a serial loop
        commands = ("import", "eigenvalue", "table", "figure", "simulate", "verify")
        assert seen["scipy"] == {name: [] for name in commands}
        assert seen["pools"] == {name: [] for name in commands}

    def test_root_only_commands_load_no_numpy(self):
        # the numpy layers are registered unexecuted, so that lookups by
        # module name (as the traced benchmark does) work without loading
        # numpy; eigenvalue, table and figure need only `math`
        script = """
import json, os, sys
seen = {}
import slipchan
seen["import slipchan"] = "numpy" in sys.modules
import slipchan.cli
seen["import slipchan.cli"] = "numpy" in sys.modules
layers = [name for name in ("fields", "helmholtz", "galerkin", "verify")
          if "slipchan." + name in sys.modules]
runs = {
    "eigenvalue": ["eigenvalue", "--m", "1", "--n", "0", "--p", "2", "--beta", "3"],
    "table": ["table", "--family", "merged", "--count", "40", "--beta", "3"],
    "figure": ["figure", "--family", "merged", "--count", "400",
               "--friction-list", "0,0.5,inf", "--out", os.devnull],
}
for name, argv in runs.items():
    assert slipchan.cli.main(argv) == 0, name
    seen[name] = "numpy" in sys.modules
print(json.dumps({"numpy": seen, "layers": layers}))
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=dict(os.environ))
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout.strip().splitlines()[-1])
        assert seen["numpy"] == {
            name: False for name in ("import slipchan", "import slipchan.cli",
                                     "eigenvalue", "table", "figure")}
        assert seen["layers"] == ["fields", "helmholtz", "galerkin", "verify"]

    def test_verify_loads_neither_numpy_random_nor_numpy_ma(self):
        # numpy imports both only on first use: the seeded draws come from
        # `random` and the oracle's kept indices are a plain list
        script = """
import os, sys
import slipchan.cli
argv = ["verify", "--suite", "all", "--beta", "1.3", "--max-index", "40",
        "--out", os.devnull]
assert slipchan.cli.main(argv) == 0
print(" ".join(sorted(m for m in ("numpy", "numpy.random", "numpy.ma") if m in sys.modules)))
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=dict(os.environ))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["numpy"]

    def test_verify_leaves_the_galerkin_layer_unexecuted(self):
        # verify reads the coefficient policies from core; a lazy module
        # turns into a plain module when it first executes
        script = """
import os, sys, types
import slipchan.cli
argv = ["verify", "--suite", "all", "--beta", "1", "--max-index", "6",
        "--out", os.devnull]
assert slipchan.cli.main(argv) == 0
print(type(sys.modules["slipchan.verify"]) is types.ModuleType,
      type(sys.modules["slipchan.galerkin"]) is types.ModuleType)
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=dict(os.environ))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "False"]

    def test_reloading_the_package_keeps_its_layers(self):
        import importlib

        import slipchan

        names = ("fields", "helmholtz", "galerkin", "verify")
        before = [sys.modules["slipchan." + name] for name in names]
        importlib.reload(slipchan)
        assert [sys.modules["slipchan." + name] for name in names] == before
        assert [getattr(slipchan, name) for name in names] == before

    def test_star_import_binds_every_public_name(self):
        import slipchan

        namespace = {}
        exec("from slipchan import *", namespace)
        assert [name for name in slipchan.__all__ if name not in namespace] == []

    def test_wave_index_takes_numpy_integers_but_not_bools(self):
        import numpy as np

        from slipchan.core import WaveIndex
        from slipchan.errors import InvalidIndex

        assert WaveIndex(np.int64(1), 0, 0).mu2 == 1
        big = WaveIndex(np.int64(3037000500), 0, 0)
        assert type(big.m) is int and big.mu2 == 3037000500**2
        with pytest.raises(InvalidIndex):
            WaveIndex(True, 0, 0)


class TestReadmeExamples:
    """Every README `$ slipchan ...` block without elisions prints its text."""

    README = Path(__file__).resolve().parents[1] / "README.md"
    BLOCKS = [
        block for block in README.read_text(encoding="utf-8").split("```")[1::2]
        if block.lstrip("\n").startswith("$ slipchan ") and "..." not in block
    ]

    def test_blocks_found(self):
        assert [b.split()[2] for b in self.BLOCKS] == ["eigenvalue", "table", "figure"]

    @pytest.mark.parametrize("block", BLOCKS, ids=lambda b: b.split()[2])
    def test_example_output(self, block):
        command, *expected = block.strip("\n").split("\n")
        proc = run_cli(*shlex.split(command)[2:])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "\n".join(expected) + "\n"


class TestTopLevel:
    def test_no_command_shows_usage(self):
        proc = run_cli()
        assert proc.returncode == 2

    def test_unknown_command(self):
        proc = run_cli("spectrum")
        assert proc.returncode == 2
