"""Command-line interface: commands, config layering, exit codes, files."""

import csv
import json
import math
import os
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "slipchan.cli"]


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env, cwd=cwd
    )


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

    def test_beta_zero_gets_a_redirect_hint(self):
        proc = run_cli("eigenvalue", "--m", "0", "--n", "0", "--p", "0", "--beta", "0")
        assert proc.returncode == 2
        assert "--navier" in proc.stderr

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
        assert "use const or nonconst" in proc.stderr


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

    def test_tol_override_can_fail_the_suite(self):
        proc = run_cli(
            "verify", "--suite", "modes", "--beta", "1",
            "--max-index", "4", "--tol", "1e-30",
        )
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert report["pass"] is False
        assert report["failures"] > 0

    def test_oracle_reruns_are_byte_identical(self):
        args = ("verify", "--suite", "oracle", "--beta", "1.3", "--grid-n", "2000")
        first, second = run_cli(*args), run_cli(*args)
        assert first.returncode == 0, first.stderr
        assert first.stdout == second.stdout

    def test_unknown_suite(self):
        proc = run_cli("verify", "--suite", "everything", "--beta", "1")
        assert proc.returncode == 2

    def test_thread_env_guard(self):
        proc = run_cli(
            "verify", "--suite", "oracle", "--beta", "1", "--grid-n", "400",
            env_extra={"SLIPCHAN_THREADS": "lots"},
        )
        assert proc.returncode == 2
        assert "SLIPCHAN_THREADS" in proc.stderr


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

    def test_bad_friction_token(self):
        proc = run_cli("figure", "--friction-list", "1,zero", "--count", "5")
        assert proc.returncode == 2

    def test_beta_zero_token_redirects(self):
        proc = run_cli("figure", "--friction-list", "0.0", "--count", "5")
        assert proc.returncode == 2
        assert "--navier" in proc.stderr or "navier" in proc.stderr

    def test_deterministic(self):
        a = run_cli("figure", "--friction-list", "1,10", "--count", "12")
        b = run_cli("figure", "--friction-list", "1,10", "--count", "12")
        assert a.stdout == b.stdout


class TestStartup:
    def test_scipy_is_loaded_only_by_verify(self, tmp_path):
        manifest = tmp_path / "run.json"
        manifest.write_text(json.dumps({
            "friction": 1.0, "indices": [[1, 1, 0]], "gammas": [1.0],
            "coeffs": "matched", "dt": 1e-3, "T": 0.01,
        }))
        script = f"""
import json, os, sys
import slipchan.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

seen = {{"import": scipy_modules()}}
runs = {{
    "eigenvalue": ["eigenvalue", "--m", "1", "--n", "0", "--p", "2", "--beta", "3"],
    "table": ["table", "--family", "merged", "--count", "40", "--beta", "3"],
    "figure": ["figure", "--family", "merged", "--count", "400",
               "--friction-list", "0,0.5,inf", "--out", os.devnull],
    "simulate": ["simulate", "--manifest", {str(manifest)!r},
                 "--out-dir", {str(tmp_path / "out")!r}],
}}
for name, argv in runs.items():
    assert slipchan.cli.main(argv) == 0, name
    seen[name] = scipy_modules()
print(json.dumps(seen))
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=dict(os.environ))
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout.strip().splitlines()[-1])
        assert seen == {name: [] for name in
                        ("import", "eigenvalue", "table", "figure", "simulate")}


class TestTopLevel:
    def test_no_command_shows_usage(self):
        proc = run_cli()
        assert proc.returncode == 2

    def test_unknown_command(self):
        proc = run_cli("spectrum")
        assert proc.returncode == 2
