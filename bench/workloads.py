"""Seeded inputs and output checks for the three workloads.

Every input comes from the seed; the program receives only the generated
command lines and manifest.  Each run cycles through VARIANTS input sets.
Their friction values are stratified over the workload's range, one draw
per stratum, so every run covers the whole range.  Since cost depends on
friction, the run's median then comes from the middle strata and runs with
different seeds cost about the same.

spectrum  `figure --family merged --count 4000` over 0, five betas and inf.
          The betas of all input sets are log-uniform in [1e-4, 1e4], one
          per stratum, dealt round-robin so each set spans the range.
          Root solves and spectrum enumeration do nearly all the work.
galerkin  `simulate` with the c pick on the 48 lowest constant-pressure
          indices with m, n >= 1 and p <= 1; beta in [0.1, 10], seeded
          amplitudes, dt = 1e-3, T = 1, stride 100.  Assembly (field
          products, inner products, convection) and RK4 stepping dominate.
verify    `verify --suite all --grid-n 2000 --max-index 40` at beta in
          [0.1, 10]; the finite-difference oracle dominates.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import reference

DEFAULT_SEED = 1
HELDOUT_SEED = 2
VARIANTS = 6

SPECTRUM_COUNT = 4000
SPECTRUM_BETAS = 5
GALERKIN_SIZE = 48
VERIFY_MAX_INDEX = 40
VERIFY_GRID_N = 2000


def verify_checks(max_index: int) -> int:
    """Rows of `verify --suite all`: four residual rows per mode, two Gram,
    five strain and five Poincare rows; eleven Helmholtz rows; one oracle
    row per sample wavenumber."""
    return 4 * max_index + 12 + 11 + 5


GALERKIN_REFERENCE = Path(__file__).with_name("galerkin_reference.json")


@dataclass
class Variant:
    """One input set: the CLI arguments, files to place in the operation's
    directory first, the check of what the operation left there, and a note
    on what that check covers when it depends on the seed."""

    argv: list[str]
    check: Callable[[Path], list[str]]
    files: dict[str, str] = field(default_factory=dict)
    note: str = ""


def _stratified_betas(rng: random.Random, lo_exp: float, hi_exp: float,
                      strata: int = VARIANTS) -> list[str]:
    """One log-uniform draw per equal stratum of [10^lo_exp, 10^hi_exp],
    printed with 6 significant digits (the CLI's own label precision)."""
    width = (hi_exp - lo_exp) / strata
    return ["%.6g" % 10 ** rng.uniform(lo_exp + k * width, lo_exp + (k + 1) * width)
            for k in range(strata)]


def manifest_digest(manifest: dict) -> str:
    return hashlib.sha256(
        json.dumps(manifest, sort_keys=True).encode("utf-8")).hexdigest()


def spectrum(seed: int) -> list[Variant]:
    rng = random.Random(f"spectrum:{seed}")
    betas = _stratified_betas(rng, -4.0, 4.0, VARIANTS * SPECTRUM_BETAS)
    out = []
    for k in range(VARIANTS):
        tokens = ["0", *betas[k::VARIANTS], "inf"]
        ref = {}
        for token in tokens:
            friction = {"0": "navier", "inf": "dirichlet"}.get(token)
            ref[token] = reference.staircase(friction or float(token), SPECTRUM_COUNT)

        def check(workdir: Path, tokens=tokens, ref=ref) -> list[str]:
            text = (workdir / "stdout.txt").read_text(encoding="utf-8")
            return checks.check_spectrum(text, tokens, SPECTRUM_COUNT, ref)

        out.append(Variant(
            ["figure", "--family", "merged", "--count", str(SPECTRUM_COUNT),
             "--friction-list", ",".join(tokens)], check))
    return out


def galerkin_manifests(seed: int) -> list[dict]:
    rng = random.Random(f"galerkin:{seed}")
    manifests = []
    for beta in _stratified_betas(rng, -1.0, 1.0):
        indices = reference.galerkin_basis(float(beta), GALERKIN_SIZE)
        gammas = [float("%.6g" % rng.uniform(-1.0, 1.0)) for _ in indices]
        manifests.append({
            "friction": float(beta), "indices": [list(ix) for ix in indices],
            "gammas": gammas, "coeffs": "c", "dt": 0.001, "T": 1.0,
            "stride": 100, "seed": seed,
        })
    return manifests


def galerkin(seed: int) -> list[Variant]:
    recorded = json.loads(GALERKIN_REFERENCE.read_text(encoding="utf-8"))
    out = []
    for manifest in galerkin_manifests(seed):
        beta = manifest["friction"]
        eigenvalues = {tuple(ix): reference.const_eigenvalue(beta, *ix)
                       for ix in manifest["indices"]}
        final = recorded.get(manifest_digest(manifest))

        def check(workdir: Path, manifest=manifest, eigenvalues=eigenvalues,
                  final=final) -> list[str]:
            def read(name: str) -> str:
                return (workdir / name).read_text(encoding="utf-8")
            return checks.check_galerkin(
                read("stdout.txt"), read("out/run_energy.csv"),
                read("out/run_trajectory.csv"), manifest, eigenvalues,
                None if final is None else final["final"])

        out.append(Variant(
            ["simulate", "--manifest", "run.json", "--out-dir", "out"], check,
            {"run.json": json.dumps(manifest, sort_keys=True)},
            "final amplitudes checked against the recorded reference" if final
            else "no recorded final amplitudes for this seed: that check is skipped"))
    return out


def verify(seed: int) -> list[Variant]:
    rng = random.Random(f"verify:{seed}")
    out = []
    for beta in _stratified_betas(rng, -1.0, 1.0):
        suite_seed = rng.randrange(1 << 16)

        def check(workdir: Path, beta=beta, suite_seed=suite_seed) -> list[str]:
            text = (workdir / "stdout.txt").read_text(encoding="utf-8")
            return checks.check_verify(text, verify_checks(VERIFY_MAX_INDEX),
                                       checks.friction_label(beta), suite_seed)

        out.append(Variant(
            ["verify", "--suite", "all", "--beta", beta,
             "--grid-n", str(VERIFY_GRID_N), "--max-index", str(VERIFY_MAX_INDEX),
             "--seed", str(suite_seed)], check))
    return out


WORKLOADS = {"spectrum": spectrum, "galerkin": galerkin, "verify": verify}
