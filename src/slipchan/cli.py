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
  A bare ``--beta 0`` or ``--beta inf`` is rejected (spell the limits
  --navier and --dirichlet): they are separate code paths, not numbers.
* Exit codes: 0 success, 1 verification failure, 2 usage or I/O error.
* Numeric terminal output is locale-independent; reruns with the same
  flags are byte-identical.  ``eigenvalue``, ``figure`` and the ``verify``
  report print 12 significant digits, ``table`` prints 6 (its JSON values
  are parsed back from the same strings), and ``simulate`` prints floats
  at full round-trip precision.
* ``--config FILE`` supplies settings from a JSON object whose keys are
  the long option names with dashes replaced by underscores (for the
  friction, use "beta": X, "navier": true, or "dirichlet": true; the two
  switches take JSON booleans only, every other key a number or a string).  Each value becomes a flag ahead of
  the command line's own, so argparse checks it like a flag and explicit
  flags win; config friction counts only when no friction flag is given.
* ``figure --friction-list`` and the manifest "friction" share the
  grammar of `Friction.parse`.
* ``--seed`` feeds the seeded random draws inside the verify suites and
  is recorded in every report; no other randomness exists (the oracle is
  a dense deterministic solve), so ``verify`` reruns are byte-identical
  too.  ``verify --grid-n`` is checked (an integer >= 100) and recorded
  but changes nothing: the oracle picks its own resolution.

Run-manifest schema for ``simulate`` (JSON object)::

    {
      "friction": "navier" | "dirichlet" | 1.0 | {"beta": 1.0},
      "indices":  [[m, n, p], ...],          # integers; constant-pressure family
      "coeffs":   "ab" | "ad" | "bd" | "c" | "matched" | [[a,b,c,d], ...],
      "gammas":   [g1, ...],                 # initial amplitudes
      "truncate": K,                         # optional: keep K lowest modes
      "dt":       0.001,
      "T":        1.0,
      "stride":   10,                        # optional: sample every so many steps
      "seed":     0                          # optional: recorded verbatim
    }

Numbers must be JSON numbers (indices, truncate and stride integers).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import galerkin, verify
from .core import Friction, PressureFamily, WaveIndex
from .eigensolver import solve_details
from .errors import SlipchanError
from .modes import emit_table, expanded_spectrum

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


_FRICTION_KEYS = ("beta", "navier", "dirichlet")


def _config_flags(parser: argparse.ArgumentParser, args) -> list[str]:
    """The config file's values for this command's options, as flags.

    Each value becomes ``--key-with-dashes=value`` (``=`` keeps a value such
    as "-1" from reading as a flag), placed before the command line's own
    flags, so argparse checks it like a flag and the command line wins.
    Keys the command does not have, null values and false switches are
    dropped; a list, object or boolean is an error for any other key.
    Friction keys count only when no friction flag was given.
    """
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config file {args.config!r}: {exc}")
    if not isinstance(config, dict):
        parser.error(f"config file {args.config!r} must hold a JSON object")
    settings, flags = vars(args), {}
    for key, value in config.items():
        if key not in settings or key in ("command", "config", "func") or value is None:
            continue
        flag = "--" + key.replace("_", "-")
        if key in ("navier", "dirichlet"):
            if type(value) is not bool:
                parser.error(f"argument {flag}: config value must be true or false, got {value!r}")
            if value:
                flags[key] = flag
        elif isinstance(value, (bool, list, dict)):
            parser.error(f"argument {flag}: invalid config value {value!r}; use a number or a string")
        else:
            flags[key] = f"{flag}={value}"
    picked = [key for key in _FRICTION_KEYS if key in flags]
    if picked and (args.beta is not None or args.navier or args.dirichlet):
        for key in picked:
            del flags[key]
    elif len(picked) > 1:
        parser.error(f"config file sets conflicting frictions: {picked}")
    return list(flags.values())


def _resolve_friction(parser, args, fallback: Friction | None):
    """Friction from the three flags, else the command's fallback."""
    if args.navier:
        return Friction.navier()
    if args.dirichlet:
        return Friction.dirichlet()
    if args.beta is None:
        if fallback is None:
            parser.error("a friction is required: --beta X, --navier, or --dirichlet")
        return fallback
    if args.beta == 0.0:
        parser.error(
            "--beta 0 is the frictionless limit and has its own code path; "
            "spell it --navier"
        )
    if args.beta == math.inf:
        parser.error(
            "--beta inf is the no-slip limit and has its own code path; "
            "spell it --dirichlet"
        )
    try:
        return Friction.finite(args.beta)
    except SlipchanError as exc:
        parser.error(str(exc))


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
    friction = _resolve_friction(parser, args, None)
    family = PressureFamily(args.pressure_class)
    result = solve_details(WaveIndex(args.m, args.n, args.p, family), friction)
    bracket = result.bracket  # may raise; then nothing is printed
    print(f"lambda = {_fmt(result.value)}")
    print(f"bracket = [{_fmt(bracket.lo)}, {_fmt(bracket.hi)}]")
    print(f"branch = {result.branch}")
    return 0


def cmd_table(parser, args) -> int:
    friction = _resolve_friction(parser, args, None)
    text = emit_table(friction, args.family, args.count, args.format)
    _write_text(parser, args.out, text)
    return 0


_SUITES = ("modes", "helmholtz", "oracle", "all")


def cmd_verify(parser, args) -> int:
    friction = _resolve_friction(parser, args, Friction.finite(1.0))
    suite = args.suite
    if args.seed < 0:
        parser.error(f"--seed must be non-negative, got {args.seed}")
    if suite in ("oracle", "all"):
        verify.check_oracle_grid(args.grid_n)  # before any suite spends time

    rows: list[dict] = []
    if suite in ("modes", "all"):
        rows.extend(verify.suite_modes(friction, args.max_index, seed=args.seed))
    if suite in ("helmholtz", "all"):
        rows.extend(verify.suite_helmholtz(friction, seed=args.seed))
    if suite in ("oracle", "all"):
        rows.extend(verify.suite_oracle(friction))

    for row in rows:  # 12-significant-digit, locale-independent numbers
        row["value"] = float(_fmt(row["value"]))
        row["tolerance"] = float(_fmt(row["tolerance"]))
    ok = all(row["pass"] for row in rows)
    report = {
        "suite": suite,
        "friction": friction.label(),
        "max_index": args.max_index,
        "grid_n": args.grid_n,
        "seed": args.seed,
        "checks": len(rows),
        "failures": sum(not row["pass"] for row in rows),
        "pass": ok,
        "rows": rows,
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    _write_text(parser, args.out, text)
    return 0 if ok else 1


def cmd_simulate(parser, args) -> int:
    if not args.manifest:
        parser.error("--manifest FILE is required")
    try:
        manifest = galerkin.load_manifest(args.manifest)
    except OSError as exc:
        parser.error(f"cannot read manifest {args.manifest!r}: {exc}")
    except json.JSONDecodeError as exc:
        parser.error(f"manifest {args.manifest!r} is not valid JSON: {exc}")
    result = galerkin.run_simulation(manifest)

    out_dir = Path(args.out_dir)
    stem = Path(args.manifest).stem
    traj_path = out_dir / f"{stem}_trajectory.csv"
    energy_path = out_dir / f"{stem}_energy.csv"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        galerkin.write_trajectory_csv(traj_path, result.system, result.trajectory, result.report)
        galerkin.write_energy_csv(energy_path, result.report)
    except OSError as exc:
        parser.error(f"cannot write outputs under {out_dir}: {exc}")

    summary = dict(result.summary)
    summary["trajectory_csv"] = str(traj_path)
    summary["energy_csv"] = str(energy_path)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_figure(parser, args) -> int:
    tokens = [token for token in (args.friction_list or "").split(",") if token.strip()]
    if not tokens:
        parser.error("--friction-list is required, e.g. --friction-list 0,1,10,inf")
    # staircases are compared per family: each family's values rise with
    # beta at matched indices and carry beta-independent multiplicities,
    # so the sorted curves never cross; the merged union loses that
    # property because the non-constant family is empty at beta = 0
    if args.count < 1:
        parser.error(f"--count must be positive, got {args.count}")
    frictions = [Friction.parse(token) for token in tokens]

    lines = ["beta,k,lambda_k"]
    for friction in frictions:
        label, last = friction.label(), None
        # a value repeats on consecutive lines for its whole multiplicity
        for k, value in enumerate(
            expanded_spectrum(friction, args.family, args.count), start=1
        ):
            if value != last:
                last, text = value, _fmt(value)
            lines.append(f"{label},{k},{text}")
    _write_text(parser, args.out, "\n".join(lines) + "\n")
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
    p_eig.add_argument("--m", type=int, default=0)
    p_eig.add_argument("--n", type=int, default=0)
    p_eig.add_argument("--p", type=int, default=0)
    p_eig.add_argument("--pressure-class", dest="pressure_class",
                       choices=("const", "nonconst"), default="const")
    _add_friction_flags(p_eig)
    _add_config_flag(p_eig)
    p_eig.set_defaults(func=cmd_eigenvalue)

    p_table = sub.add_parser("table", help="spectrum table as CSV or JSON")
    p_table.add_argument("--family", choices=("const", "nonconst", "merged"), default="const")
    p_table.add_argument("--count", type=int, default=10)
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.add_argument("--out", default="-", metavar="FILE", help="output path ('-' = stdout)")
    _add_friction_flags(p_table)
    _add_config_flag(p_table)
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="numerical check suites, JSON report")
    p_verify.add_argument("--suite", choices=_SUITES, default="all")
    p_verify.add_argument("--max-index", dest="max_index", type=int, default=15)
    p_verify.add_argument("--grid-n", dest="grid_n", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", default="-", metavar="FILE")
    _add_friction_flags(p_verify)
    _add_config_flag(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="integrate a run manifest")
    p_sim.add_argument("--manifest", default=None, metavar="FILE")
    p_sim.add_argument("--out-dir", dest="out_dir", default=".", metavar="DIR")
    _add_config_flag(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_fig = sub.add_parser("figure", help="staircase data (beta, k, lambda_k)")
    p_fig.add_argument(
        "--friction-list", dest="friction_list", default=None,
        metavar="LIST", help="comma-separated, e.g. 0,1,10,inf",
    )
    p_fig.add_argument("--count", type=int, default=46)
    p_fig.add_argument("--family", choices=("const", "nonconst", "merged"), default="const")
    p_fig.add_argument("--out", default="-", metavar="FILE")
    _add_config_flag(p_fig)
    p_fig.set_defaults(func=cmd_figure)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.config:  # config values become flags ahead of the command line's own
        args = parser.parse_args(argv[:1] + _config_flags(parser, args) + argv[1:])
    try:
        return args.func(parser, args)
    except (SlipchanError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
