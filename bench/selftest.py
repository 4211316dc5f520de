"""Self-tests of the benchmark's own arithmetic and output checks.

    python3 -m pytest bench/selftest.py -q

Not collected by the repository's test suite (the file name does not match
test_*.py); the checks that run real operations use small inputs.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from pathlib import Path

import pytest

import checks
import reference
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


def cli(tmp_path: Path, *argv: str, files: dict[str, str] | None = None) -> str:
    for name, text in (files or {}).items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    res = run.Runner().spawn([sys.executable, "-m", "slipchan.cli", *argv],
                             tmp_path, tmp_path / "stdout.txt")
    assert res["rc"] == 0, res["stderr"]
    return (tmp_path / "stdout.txt").read_text(encoding="utf-8")


# -- span arithmetic ----------------------------------------------------------

def test_self_time_subtracts_union_of_nested_and_threaded_children():
    S = spans.Span
    tree = [
        S(0, "root", 0.0, 10.0, -1, 0, False),
        S(1, "a", 1.0, 4.0, 0, 0, False),      # main thread
        S(2, "leaf", 2.0, 3.0, 1, 0, False),
        S(3, "pool", 5.0, 8.0, 0, 0, False),   # two pool threads, overlapping
        S(4, "pool", 6.0, 9.0, 0, 0, True),
        S(5, "leaf", 6.5, 7.5, 4, 0, False),
    ]
    own = spans.self_times(tree)
    # root: 10 minus the union [1,4] + [5,9] = 10 - 7
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 2.0, 5: 1.0})
    agg = spans.aggregate(tree)
    assert agg["pool"] == pytest.approx(
        {"calls": 2, "errors": 1, "self_s": 5.0, "total_s": 6.0})
    assert agg["root"]["self_s"] == pytest.approx(3.0)


def test_total_time_counts_only_the_outermost_span_of_a_name():
    S = spans.Span
    tree = [S(0, "f", 0.0, 4.0, -1, 0, False), S(1, "g", 1.0, 3.0, 0, 0, False),
            S(2, "f", 1.5, 2.5, 1, 0, False)]
    agg = spans.aggregate(tree)
    assert agg["f"]["total_s"] == pytest.approx(4.0)
    assert agg["f"]["self_s"] == pytest.approx(2.0 + 1.0)
    assert agg["g"]["self_s"] == pytest.approx(1.0)


def test_union_length_clips_to_parent():
    assert spans.union_length([(-1.0, 2.0), (1.0, 3.0), (5.0, 9.0)], 0.0, 6.0) == 4.0


def test_paired_order_alternates_ends_of_the_range():
    assert run.paired_order(6) == [0, 5, 1, 4, 2, 3]
    assert run.paired_order(3) == [0, 2, 1]


def test_tail_has_ten_operations_beyond_it():
    value, pct = run.tail([float(v) for v in range(12, 0, -1)])
    assert value == 2.0 and pct == pytest.approx(100 * 2 / 12)


# -- metric names -------------------------------------------------------------

def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# -- reference and checkers ---------------------------------------------------

def test_reference_matches_the_readme_staircase():
    # `slipchan figure --friction-list 0,1,inf --count 3` in the README
    assert [f"{v:.12g}" for v in reference.staircase("navier", 3)] == ["0", "0", "1"]
    assert [f"{v:.12g}" for v in reference.staircase(1.0, 3)] == [
        "0.740173884395", "0.740173884395", "1.74017388439"]
    assert [f"{v:.12g}" for v in reference.staircase("dirichlet", 3)] == [
        "2.46740110027", "2.46740110027", "3.46740110027"]


def _bump_10th_digit(line: str) -> str:
    label, k, value = line.split(",")
    digits = [i for i, ch in enumerate(value) if ch.isdigit()]
    first = next(i for i in digits if value[i] != "0")
    pos = [i for i in digits if i >= first][9]
    bumped = value[:pos] + str((int(value[pos]) + 1) % 10) + value[pos + 1:]
    return f"{label},{k},{bumped}"


def test_spectrum_check_accepts_the_cli_and_rejects_a_10th_digit_change(tmp_path):
    tokens, count = ["0", "0.0123457", "2.5", "inf"], 120
    text = cli(tmp_path, "figure", "--family", "merged", "--count", str(count),
               "--friction-list", ",".join(tokens))
    ref = {t: reference.staircase({"0": "navier", "inf": "dirichlet"}.get(t) or float(t),
                                  count) for t in tokens}
    assert checks.check_spectrum(text, tokens, count, ref) == []
    lines = text.splitlines()
    row = 2 * count + 77
    assert len(lines[row].split(",")[2].replace(".", "")) >= 10
    lines[row] = _bump_10th_digit(lines[row])
    assert checks.check_spectrum("\n".join(lines) + "\n", tokens, count, ref)


def test_galerkin_check_rejects_a_final_amplitude_off_by_1e_6(tmp_path):
    manifest = {"friction": 0.7, "indices": [[1, 1, 0], [1, 2, 0], [2, 1, 0], [1, 1, 1]],
                "gammas": [0.5, -0.3, 0.2, 0.4], "coeffs": "c", "dt": 0.001,
                "T": 0.1, "stride": 10, "seed": 0}
    summary = cli(tmp_path, "simulate", "--manifest", "run.json", "--out-dir", "out",
                  files={"run.json": json.dumps(manifest)})
    energy = (tmp_path / "out/run_energy.csv").read_text(encoding="utf-8")
    trajectory = (tmp_path / "out/run_trajectory.csv").read_text(encoding="utf-8")
    eigenvalues = {tuple(ix): reference.const_eigenvalue(0.7, *ix)
                   for ix in manifest["indices"]}
    rows = list(csv.reader(io.StringIO(trajectory)))
    final = [float(v) for v in rows[-1][1:5]]
    args = (summary, energy, trajectory, manifest, eigenvalues)
    assert checks.check_galerkin(*args, final) == []
    assert checks.check_galerkin(*args, [final[0] + 1e-6] + final[1:])
    rows[-1][2] = repr(float(rows[-1][2]) + 1e-6)
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    assert checks.check_galerkin(summary, energy, out.getvalue(), manifest,
                                 eigenvalues, final)


def test_verify_check_counts_rows_and_rejects_a_failed_report(tmp_path):
    max_index, seed = 3, 11
    text = cli(tmp_path, "verify", "--suite", "all", "--beta", "0.5",
               "--grid-n", "400", "--max-index", str(max_index), "--seed", str(seed))
    expected = workloads.verify_checks(max_index)
    assert checks.check_verify(text, expected, "0.5", seed) == []
    report = json.loads(text)
    report["pass"] = False
    assert checks.check_verify(json.dumps(report), expected, "0.5", seed)


def test_inputs_are_a_function_of_the_seed():
    assert workloads.galerkin_manifests(5) == workloads.galerkin_manifests(5)
    assert workloads.galerkin_manifests(5) != workloads.galerkin_manifests(6)
    argv = [v.argv for v in workloads.verify(3)]
    assert argv == [v.argv for v in workloads.verify(3)]


def test_committed_seeds_have_recorded_galerkin_amplitudes():
    recorded = json.loads(workloads.GALERKIN_REFERENCE.read_text(encoding="utf-8"))
    for seed in (workloads.DEFAULT_SEED, workloads.HELDOUT_SEED):
        for manifest in workloads.galerkin_manifests(seed):
            assert workloads.manifest_digest(manifest) in recorded
