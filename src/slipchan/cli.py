"""Command-line front end: every capability as a reproducible command.

Commands
--------
eigenvalue   one eigenvalue with its bracket and branch
table        spectrum table (CSV or JSON) for one friction and family
verify       run the numerical check suites, emit a JSON report
simulate     integrate a truncated-evolution run manifest
figure       long-format staircase data (beta, k, lambda_k) for plotting

Conventions
-----------
* Friction is spelled with exactly one of --beta X, --navier, --dirichlet.
  A bare ``--beta 0`` is rejected (spell the frictionless limit --navier):
  the two limits are separate code paths, not small numbers.
* Exit codes: 0 success, 1 verification failure, 2 usage or I/O error.
* Numeric terminal output is locale-independent; reruns with the same
  flags are byte-identical.  ``eigenvalue``, ``figure`` and the ``verify``
  report print 12 significant digits, ``table`` prints 6 (its JSON values
  are parsed back from the same strings), and ``simulate`` prints floats
  at full round-trip precision.
* ``--config FILE`` supplies defaults from a JSON object whose keys are
  the long option names with dashes replaced by underscores (for the
  friction, use "beta": X, "navier": true, or "dirichlet": true).
  Explicit flags always win over the config file.
* ``--seed`` feeds the seeded random draws inside the verify suites and
  is recorded in every report; no other randomness exists (the oracle's
  sparse eigensolver starts from a fixed seeded vector), so ``verify``
  reruns are byte-identical too.
* The SLIPCHAN_THREADS environment variable caps internal parallelism
  (the oracle suite solves its sample wavenumbers on a thread pool).

Run-manifest schema for ``simulate`` (JSON object)::

    {
      "friction": "navier" | "dirichlet" | 1.0 | {"beta": 1.0},
      "indices":  [[m, n, p], ...],          # constant-pressure family
      "coeffs":   "ab" | "ad" | "bd" | "c" | "matched" | [[a,b,c,d], ...],
      "gammas":   [g1, ...],                 # initial amplitudes
      "truncate": K,                         # optional: keep K lowest modes
      "dt":       0.001,
      "T":        1.0,
      "stride":   10,                        # optional: sample every so many steps
      "seed":     0                          # optional: recorded verbatim
    }
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .core import Friction, PressureFamily, WaveIndex
from .eigensolver import solve_details
from .errors import SlipchanError
from .galerkin import (
    load_manifest,
    run_simulation,
    write_energy_csv,
    write_trajectory_csv,
)
from .modes import emit_table, expanded_spectrum
from .verify import suite_helmholtz, suite_modes, suite_oracle

SIG_DIGITS = "{:.12g}"


def _fmt(value: float) -> str:
    return SIG_DIGITS.format(value)


# --------------------------------------------------------------------------
# shared flag plumbing
# --------------------------------------------------------------------------


def _add_friction_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--beta", type=float, default=None, metavar="X",
        help="finite friction coefficient (> 0)",
    )
    group.add_argument(
        "--navier", action="store_true",
        help="frictionless walls (the beta -> 0 limit)",
    )
    group.add_argument(
        "--dirichlet", action="store_true",
        help="no-slip walls (the beta -> infinity limit)",
    )


def _add_config_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config", default=None, metavar="FILE",
        help="JSON file with default values for the long options",
    )


def _load_config(parser: argparse.ArgumentParser, args) -> dict:
    path = getattr(args, "config", None)
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config file {path!r}: {exc}")
    if not isinstance(data, dict):
        parser.error(f"config file {path!r} must hold a JSON object")
    return data


def _setting(args, config: dict, name: str, fallback):
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in config:
        return config[name]
    return fallback


def _beta_zero_error(parser: argparse.ArgumentParser) -> None:
    parser.error(
        "--beta 0 is the frictionless limit and has its own code path; "
        "spell it --navier"
    )


def _resolve_friction(parser, args, config: dict, fallback: Friction | None):
    """Friction from flags, then config, then the command's fallback."""
    if getattr(args, "navier", False):
        return Friction.navier()
    if getattr(args, "dirichlet", False):
        return Friction.dirichlet()
    beta = getattr(args, "beta", None)
    if beta is None:
        picked = [k for k in ("beta", "navier", "dirichlet") if config.get(k)]
        if len(picked) > 1:
            parser.error(f"config file sets conflicting frictions: {picked}")
        if config.get("navier"):
            return Friction.navier()
        if config.get("dirichlet"):
            return Friction.dirichlet()
        beta = config.get("beta")
    if beta is not None:
        beta = float(beta)
        if beta == 0.0:
            _beta_zero_error(parser)
        try:
            return Friction.finite(beta)
        except SlipchanError as exc:
            parser.error(str(exc))
    if fallback is not None:
        return fallback
    parser.error("a friction is required: --beta X, --navier, or --dirichlet")


def _write_text(parser, path: str, text: str) -> None:
    try:
        if path == "-":
            sys.stdout.write(text)
        else:
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
    except OSError as exc:
        parser.error(f"cannot write {path!r}: {exc}")


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


def cmd_eigenvalue(parser, args) -> int:
    config = _load_config(parser, args)
    friction = _resolve_friction(parser, args, config, None)
    raw_family = str(_setting(args, config, "pressure_class", "const"))
    try:
        family = PressureFamily(raw_family)
    except ValueError:
        parser.error(
            f"unknown pressure class {raw_family!r}; use const or nonconst"
        )
    index = WaveIndex(
        int(_setting(args, config, "m", 0)),
        int(_setting(args, config, "n", 0)),
        int(_setting(args, config, "p", 0)),
        family,
    )
    result = solve_details(index, friction)
    print(f"lambda = {_fmt(result.value)}")
    print(f"bracket = [{_fmt(result.bracket.lo)}, {_fmt(result.bracket.hi)}]")
    print(f"branch = {result.branch}")
    return 0


def cmd_table(parser, args) -> int:
    config = _load_config(parser, args)
    friction = _resolve_friction(parser, args, config, None)
    family = str(_setting(args, config, "family", "const"))
    count = int(_setting(args, config, "count", 10))
    fmt = str(_setting(args, config, "format", "csv"))
    text = emit_table(friction, family, count, fmt)
    _write_text(parser, _setting(args, config, "out", "-"), text)
    return 0


_SUITES = ("modes", "helmholtz", "oracle", "all")


def cmd_verify(parser, args) -> int:
    config = _load_config(parser, args)
    friction = _resolve_friction(parser, args, config, Friction.finite(1.0))
    suite = str(_setting(args, config, "suite", "all"))
    if suite not in _SUITES:
        parser.error(f"unknown suite {suite!r}; choose from {_SUITES}")
    max_index = int(_setting(args, config, "max_index", 15))
    grid_n = int(_setting(args, config, "grid_n", 1000))
    seed = int(_setting(args, config, "seed", 0))
    tol = _setting(args, config, "tol", None)

    rows: list[dict] = []
    if suite in ("modes", "all"):
        rows.extend(suite_modes(friction, max_index, seed=seed))
    if suite in ("helmholtz", "all"):
        rows.extend(suite_helmholtz(friction, seed=seed))
    if suite in ("oracle", "all"):
        rows.extend(suite_oracle(friction, grid_n=grid_n))

    if tol is not None:
        tol = float(tol)
        for row in rows:
            row["tolerance"] = tol
            row["pass"] = row["value"] < tol

    for row in rows:  # 12-significant-digit, locale-independent numbers
        row["value"] = float(_fmt(row["value"]))
        row["tolerance"] = float(_fmt(row["tolerance"]))
    ok = all(row["pass"] for row in rows)
    report = {
        "suite": suite,
        "friction": friction.label(),
        "max_index": max_index,
        "grid_n": grid_n,
        "seed": seed,
        "tol_override": tol,
        "checks": len(rows),
        "failures": sum(not row["pass"] for row in rows),
        "pass": ok,
        "rows": rows,
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    _write_text(parser, _setting(args, config, "out", "-"), text)
    return 0 if ok else 1


def cmd_simulate(parser, args) -> int:
    config = _load_config(parser, args)
    manifest_path = _setting(args, config, "manifest", None)
    if not manifest_path:
        parser.error("--manifest FILE is required")
    try:
        manifest = load_manifest(manifest_path)
    except OSError as exc:
        parser.error(f"cannot read manifest {manifest_path!r}: {exc}")
    except json.JSONDecodeError as exc:
        parser.error(f"manifest {manifest_path!r} is not valid JSON: {exc}")
    result = run_simulation(manifest)

    out_dir = Path(_setting(args, config, "out_dir", "."))
    stem = Path(manifest_path).stem
    traj_path = out_dir / f"{stem}_trajectory.csv"
    energy_path = out_dir / f"{stem}_energy.csv"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_trajectory_csv(traj_path, result.system, result.trajectory, result.report)
        write_energy_csv(energy_path, result.report)
    except OSError as exc:
        parser.error(f"cannot write outputs under {out_dir}: {exc}")

    summary = dict(result.summary)
    summary["trajectory_csv"] = str(traj_path)
    summary["energy_csv"] = str(energy_path)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_figure(parser, args) -> int:
    config = _load_config(parser, args)
    raw_list = _setting(args, config, "friction_list", None)
    if not raw_list:
        parser.error("--friction-list is required, e.g. --friction-list 0,1,10,inf")
    # staircases are compared per family: each family's values rise with
    # beta at matched indices and carry beta-independent multiplicities,
    # so the sorted curves never cross; the merged union loses that
    # property because the non-constant family is empty at beta = 0
    family = str(_setting(args, config, "family", "const"))
    count = int(_setting(args, config, "count", 46))
    if count < 1:
        parser.error(f"--count must be positive, got {count}")

    frictions = []
    for token in str(raw_list).split(","):
        token = token.strip()
        if not token:
            continue
        if token == "0":
            frictions.append(Friction.navier())
        elif token in ("inf", "dirichlet"):
            frictions.append(Friction.dirichlet())
        elif token == "navier":
            frictions.append(Friction.navier())
        else:
            try:
                beta = float(token)
            except ValueError:
                parser.error(f"unrecognized friction {token!r} in --friction-list")
            if beta == 0.0:
                _beta_zero_error(parser)
            if math.isinf(beta):
                frictions.append(Friction.dirichlet())
            else:
                try:
                    frictions.append(Friction.finite(beta))
                except SlipchanError as exc:
                    parser.error(str(exc))
    if not frictions:
        parser.error("--friction-list holds no frictions")

    lines = ["beta,k,lambda_k"]
    for friction in frictions:
        for k, value in enumerate(expanded_spectrum(friction, family, count), start=1):
            lines.append(f"{friction.label()},{k},{_fmt(value)}")
    _write_text(parser, _setting(args, config, "out", "-"), "\n".join(lines) + "\n")
    return 0


# --------------------------------------------------------------------------
# parser wiring
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slipchan",
        description="Stokes eigenmodes and truncated flow evolution "
        "on the doubly periodic slip channel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eig = sub.add_parser("eigenvalue", help="one eigenvalue, bracket and branch")
    p_eig.add_argument("--m", type=int, default=None)
    p_eig.add_argument("--n", type=int, default=None)
    p_eig.add_argument("--p", type=int, default=None)
    p_eig.add_argument(
        "--pressure-class", dest="pressure_class",
        choices=("const", "nonconst"), default=None,
    )
    _add_friction_flags(p_eig)
    _add_config_flag(p_eig)
    p_eig.set_defaults(func=cmd_eigenvalue)

    p_table = sub.add_parser("table", help="spectrum table as CSV or JSON")
    p_table.add_argument("--family", choices=("const", "nonconst", "merged"), default=None)
    p_table.add_argument("--count", type=int, default=None)
    p_table.add_argument("--format", choices=("csv", "json"), default=None)
    p_table.add_argument("--out", default=None, metavar="FILE", help="output path ('-' = stdout)")
    _add_friction_flags(p_table)
    _add_config_flag(p_table)
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="numerical check suites, JSON report")
    p_verify.add_argument("--suite", choices=_SUITES, default=None)
    p_verify.add_argument("--max-index", dest="max_index", type=int, default=None)
    p_verify.add_argument("--grid-n", dest="grid_n", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument(
        "--tol", type=float, default=None,
        help="override every row tolerance (debugging aid)",
    )
    p_verify.add_argument("--out", default=None, metavar="FILE")
    _add_friction_flags(p_verify)
    _add_config_flag(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="integrate a run manifest")
    p_sim.add_argument("--manifest", default=None, metavar="FILE")
    p_sim.add_argument("--out-dir", dest="out_dir", default=None, metavar="DIR")
    _add_config_flag(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_fig = sub.add_parser("figure", help="staircase data (beta, k, lambda_k)")
    p_fig.add_argument(
        "--friction-list", dest="friction_list", default=None,
        metavar="LIST", help="comma-separated, e.g. 0,1,10,inf",
    )
    p_fig.add_argument("--count", type=int, default=None)
    p_fig.add_argument("--family", choices=("const", "nonconst", "merged"), default=None)
    p_fig.add_argument("--out", default=None, metavar="FILE")
    _add_config_flag(p_fig)
    p_fig.set_defaults(func=cmd_figure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except SlipchanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
