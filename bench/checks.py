"""Output checks, one per workload.  Each returns a list of problems; an
empty list means the output is correct.  They run outside the timed
region, and any problem counts the operation as failed."""

from __future__ import annotations

import csv
import io
import json
import math

# The staircase is printed with 12 significant digits (rounding error at
# most 5e-12 relative) and the reference roots are exact to ~1e-15, so
# 1e-11 accepts every correct row while rejecting a change of one unit in
# the 10th significant digit (1e-10 relative or more).
SPECTRUM_RTOL = 1e-11
EIGENVALUE_RTOL = 1e-12
BALANCE_MAX = 1e-12
AMPLITUDE_ATOL = 1e-9


def friction_label(token: str) -> str:
    """The label the CLI prints for one --friction-list token."""
    if token == "0":
        return "0"
    if token == "inf":
        return "inf"
    return f"{float(token):g}"


def check_spectrum(text: str, tokens: list[str], count: int,
                   reference: dict[str, list[float]]) -> list[str]:
    """Rows `beta,k,lambda_k` per friction, in order, matching the reference
    staircase of each friction to SPECTRUM_RTOL."""
    lines = text.splitlines()
    if not lines or lines[0] != "beta,k,lambda_k":
        return ["missing header beta,k,lambda_k"]
    expected_rows = len(tokens) * count
    if len(lines) - 1 != expected_rows:
        return [f"{len(lines) - 1} rows, expected {expected_rows}"]
    problems = []
    row = 1
    for token in tokens:
        label, ref = friction_label(token), reference[token]
        for k in range(1, count + 1):
            parts = lines[row].split(",")
            row += 1
            try:
                got_label, got_k, value = parts[0], int(parts[1]), float(parts[2])
            except (IndexError, ValueError):
                problems.append(f"row {row - 1} malformed: {lines[row - 1]!r}")
                continue
            want = ref[k - 1]
            if got_label != label or got_k != k:
                problems.append(f"row {row - 1}: got ({got_label}, {got_k}), "
                                f"expected ({label}, {k})")
            elif not abs(value - want) <= SPECTRUM_RTOL * abs(want):
                problems.append(f"beta={label} k={k}: {value!r} vs reference "
                                f"{want!r}")
            if len(problems) >= 5:
                return problems
    return problems


def _read_csv(text: str) -> list[dict[str, float]]:
    return [{k: float(v) for k, v in row.items()}
            for row in csv.DictReader(io.StringIO(text))]


def check_galerkin(summary_text: str, energy_text: str, trajectory_text: str,
                   manifest: dict, eigenvalues: dict[tuple, float],
                   final_reference: list[float] | None) -> list[str]:
    """Eigenvalues against independent roots, monotone kinetic energy, the
    energy-balance defect, and (when recorded) the final amplitudes."""
    try:
        summary = json.loads(summary_text)
        energy = _read_csv(energy_text)
        trajectory = _read_csv(trajectory_text)
    except (json.JSONDecodeError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    problems = []
    indices = [tuple(ix) for ix in summary.get("indices", [])]
    if sorted(indices) != sorted(tuple(ix) for ix in manifest["indices"]):
        return ["basis indices differ from the manifest"]
    values = summary["eigenvalues"]
    for ix, value in zip(indices, values):
        want = eigenvalues[ix]
        if not abs(value - want) <= EIGENVALUE_RTOL * abs(want):
            problems.append(f"eigenvalue of {ix}: {value!r} vs {want!r}")
    if values != sorted(values):
        problems.append("basis is not in ascending eigenvalue order")
    steps = round(manifest["T"] / manifest["dt"])
    rows = steps // manifest["stride"] + 1
    if len(energy) != rows or len(trajectory) != rows:
        problems.append(f"{len(energy)} energy / {len(trajectory)} trajectory "
                        f"rows, expected {rows}")
        return problems
    kinetic = [row["kinetic"] for row in energy]
    if any(b > a for a, b in zip(kinetic, kinetic[1:])):
        problems.append("kinetic energy increases")
    worst = max(row["balance_residual"] for row in energy)
    if not worst <= BALANCE_MAX:
        problems.append(f"balance residual {worst:.3e} > {BALANCE_MAX:g}")
    final = [trajectory[-1][f"A_{k + 1}"] for k in range(len(indices))]
    if not all(math.isfinite(a) for a in final):
        problems.append("final amplitudes are not finite")
    elif final_reference is not None:
        if len(final_reference) != len(final):
            problems.append("final amplitude count differs from the reference")
        else:
            worst = max(abs(a - b) for a, b in zip(final, final_reference))
            if not worst <= AMPLITUDE_ATOL:
                problems.append(f"final amplitudes off the recorded reference "
                                f"by {worst:.3e}")
    return problems


def check_verify(text: str, expected_checks: int, friction: str,
                 seed: int) -> list[str]:
    """A passing report with the expected number of checks."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    if report.get("pass") is not True:
        problems.append("report says pass = false")
    if report.get("failures") != 0:
        problems.append(f"failures = {report.get('failures')}")
    if report.get("checks") != expected_checks:
        problems.append(f"checks = {report.get('checks')}, "
                        f"expected {expected_checks}")
    if report.get("friction") != friction or report.get("seed") != seed:
        problems.append("report echoes the wrong friction or seed")
    return problems
