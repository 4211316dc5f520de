"""Truncated spectral evolution of the slip-channel flow.

Expanding the velocity in the normalized constant-pressure eigenmodes,
v(t) = sum_k A_k(t) u_k, and testing the momentum equation against each
basis element turns the PDE into the quadratic ODE system

    dA_k/dt = -lambda_k A_k - sum_{ij} N[i,j,k] A_i A_j,
    N[i,j,k] = <(u_i . grad) u_j, u_k>,

integrated here with a fixed-step classical Runge-Kutta scheme.  The
witness slot of N absorbs the divergence-free projection (each u_k is
solenoidal and tangent to the walls), and antisymmetry of N in its last
two slots makes the convective term energy-neutral:

    d/dt (1/2 |A|^2) = -sum_k lambda_k A_k^2.

Certain data switch the nonlinearity off, and the system then decays mode
by mode, A_k(t) = gamma_k exp(-lambda_k t).  A single mode with the matched
pick a = -c, b = d, or any collection of streamwise shear modes (m = 0,
a/d slots only), has zero convection (v . grad) v, so these decays are
exact Navier-Stokes solutions; `explicit_solution` produces them directly,
and they double as integration oracles.  A basis from one of the two-slot
families with c = 0 ("ab", "ad", "bd") has a zero tensor too, but only the
truncated system decays: its projected convection P[(v . grad) v] is
nonzero, merely orthogonal to the basis.

Pressure carries no degree of freedom in this basis (the projected system
evolves velocity amplitudes only), so the reported pressure is the
constant 0.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import (COEFF_POLICIES, EigenMode, Friction, PlanarCoeffs, PressureFamily,
                   WaveIndex, _listed, _number, _numbers)
from .errors import (
    BlowupDetected,
    HypothesisViolated,
    InvalidCase,
    StabilityViolation,
)
from .helmholtz import transport_tensor
from .modes import build_mode

#: Explicit-scheme stability bound on dt * lambda_max.
STABILITY_LIMIT = 2.5
#: Amplitude norm past which the run is abandoned as blown up.
BLOWUP_NORM = 1.0e6
#: Tolerated defect in the last-two-slot antisymmetry of the tensor.
ANTISYMMETRY_TOL = 1.0e-10
#: Relative tolerance for the matched-pick test a = -c, b = d.
MATCHED_TOL = 1.0e-12
#: Most RK4 steps one `integrate` call takes.
MAX_STEPS = 10**6

class SolutionFamily(Enum):
    """Closed-form decaying solutions reproduced by the truncated system."""

    MONO = "mono"
    SINGLE = "single"


def is_matched_pick(coeffs: PlanarCoeffs) -> bool:
    """True when a = -c and b = d, the pick whose self-advection vanishes."""
    scale = max(1.0, *(abs(v) for v in coeffs.as_tuple()))
    return (
        abs(coeffs.a + coeffs.c) <= MATCHED_TOL * scale
        and abs(coeffs.b - coeffs.d) <= MATCHED_TOL * scale
    )


# --------------------------------------------------------------------------
# System and state
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GalerkinSystem:
    """Eigenmode basis plus the projected quadratic interaction tensor."""

    basis: tuple[EigenMode, ...]
    eigenvalues: tuple[float, ...]
    tensor: np.ndarray

    def __post_init__(self) -> None:
        k = len(self.basis)
        if k == 0:
            raise InvalidCase("the basis must contain at least one mode")
        if len(self.eigenvalues) != k:
            raise InvalidCase("one eigenvalue per basis mode is required")
        if not isinstance(self.tensor, np.ndarray) or self.tensor.dtype.kind not in "iuf":
            kind = getattr(self.tensor, "dtype", type(self.tensor).__name__)
            raise InvalidCase(
                f"interaction tensor must be a numpy array of reals, got {kind}"
            )
        if self.tensor.shape != (k, k, k):
            raise InvalidCase(
                f"interaction tensor must be {k}x{k}x{k}, got {self.tensor.shape}"
            )
        if not np.isfinite(self.tensor).all():
            raise InvalidCase("interaction tensor entries must be finite")
        for lam, mode in zip(self.eigenvalues, self.basis):
            if abs(lam - mode.eigenvalue) > 1e-12 * max(1.0, abs(lam)):
                raise InvalidCase(
                    "eigenvalue list disagrees with the basis modes"
                )
        for lo, hi in zip(self.eigenvalues, self.eigenvalues[1:]):
            if hi < lo - 1e-12 * max(1.0, abs(lo)):
                raise InvalidCase("basis eigenvalues must be non-decreasing")
        skew = float(np.max(np.abs(self.tensor + np.swapaxes(self.tensor, 1, 2))))
        if skew > ANTISYMMETRY_TOL:
            raise InvalidCase(
                "interaction tensor must be antisymmetric in its last two "
                f"slots (energy-neutral convection); defect {skew:.3e}"
            )
        self.tensor.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.basis)

    @property
    def lambda_max(self) -> float:
        return max(self.eigenvalues)

    @functools.cached_property
    def _terms(self) -> tuple[np.ndarray, ...]:
        """`_pair_terms`, built once and shared by `integrate` and
        `energy_report`, which only read them.  They stay writeable:
        read-only arrays made `_rhs` slower."""
        return _pair_terms(np.asarray(self.eigenvalues), self.tensor)


@dataclass(frozen=True)
class GalerkinState:
    """Mode amplitudes at one instant."""

    t: float
    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", _number("time", self.t))
        object.__setattr__(self, "coeffs", tuple(_numbers("mode amplitudes", self.coeffs)))
        if not math.isfinite(self.t) or self.t < 0.0:
            raise InvalidCase(
                f"time must be a finite non-negative real, got {self.t!r}"
            )
        if not all(math.isfinite(c) for c in self.coeffs):
            raise InvalidCase("mode amplitudes must be finite")

    @property
    def norm(self) -> float:
        return math.sqrt(sum(c * c for c in self.coeffs))


# --------------------------------------------------------------------------
# Assembly
# --------------------------------------------------------------------------


def _coerce_index(spec) -> WaveIndex:
    if not isinstance(spec, WaveIndex):
        try:
            m, n, p = spec
        except (TypeError, ValueError) as exc:
            raise InvalidCase(
                f"basis indices are (m, n, p) triples, got {spec!r}"
            ) from exc
        spec = WaveIndex(m, n, p)
    if spec.family is not PressureFamily.CONSTANT:
        raise InvalidCase(
            "the truncated evolution runs on the constant-pressure family; "
            f"got {spec}"
        )
    return spec


def _pick(entry) -> PlanarCoeffs:
    """One explicit pick: a PlanarCoeffs, or a list of four numbers."""
    if isinstance(entry, PlanarCoeffs):
        return entry
    values = _numbers("coeffs", entry)
    if len(values) != 4:
        raise InvalidCase(f"coeffs must be a list of 4 numbers, got {values!r}")
    return PlanarCoeffs(*values)


def _resolve_coeffs(indices: Sequence[WaveIndex], coeffs) -> list[PlanarCoeffs]:
    if isinstance(coeffs, str):
        try:
            pick = COEFF_POLICIES[coeffs]
        except KeyError as exc:
            raise InvalidCase(
                f"unknown coefficient policy {coeffs!r}; "
                f"known policies: {sorted(COEFF_POLICIES)}"
            ) from exc
        return [pick] * len(indices)
    out = [_pick(entry) for entry in _listed("coeffs", coeffs, "picks")]
    if len(out) != len(indices):
        raise InvalidCase(
            f"got {len(out)} coefficient picks for {len(indices)} indices"
        )
    return out


def _basis(indices, friction: Friction, coeffs) -> list[tuple[int, EigenMode]]:
    """The checked basis: one (position, mode) entry per input index, each
    mode built once, sorted by (mode.eigenvalue, position).  Raises
    InvalidCase unless `indices` is a non-empty list of constant-pressure
    (m, n, p) triples with no repeated (index, pick) entry, and ZeroMode for
    a pick that builds no mode."""
    index_list = [_coerce_index(s) for s in _listed("indices", indices, "(m, n, p) triples")]
    if not index_list:
        raise InvalidCase("at least one basis index is required")
    picks = _resolve_coeffs(index_list, coeffs)
    entries = {}
    for position, (index, pick) in enumerate(zip(index_list, picks)):
        key = (index, pick.as_tuple())
        if key in entries:
            raise InvalidCase(f"duplicate basis entry {key}")
        entries[key] = (position, build_mode(index, friction, pick))
    return sorted(entries.values(), key=lambda entry: (entry[1].eigenvalue, entry[0]))


def _gammas(gammas, count: int) -> list[float]:
    """`gammas` as `count` finite floats, one initial amplitude per index."""
    gamma_list = _numbers("gammas", gammas)
    if len(gamma_list) != count:
        raise InvalidCase(f"got {len(gamma_list)} amplitudes for {count} indices")
    if not all(math.isfinite(g) for g in gamma_list):
        raise InvalidCase("initial amplitudes must be finite")
    return gamma_list


def assemble(indices: Iterable, friction: Friction, coeffs="ab") -> GalerkinSystem:
    """Build the truncated system on the given constant-pressure indices.

    `coeffs` is either a policy name from COEFF_POLICIES (the same pick for
    every index) or an explicit list of picks, one per index.  The basis
    is sorted by eigenvalue (stable in the input order), so positions in the
    returned system follow ascending eigenvalues; each mode carries its
    index for identification.  The interaction entry N[i, j, k] is the
    projected convective pairing <(u_i . grad) u_j, u_k>, computed in
    closed form by `helmholtz.transport_tensor` (signed wavevectors that
    add to zero times one z-integral, every entry bitwise equal to
    `triple_product`).  That tensor kernel, not `convect`, is restricted to
    flat modes: every basis mode must be wall-parallel (vanishing third
    velocity component), so e.g. the frictionless b/c-slot modes with
    p >= 1 are rejected.
    """
    modes = tuple(mode for _, mode in _basis(indices, friction, coeffs))
    return GalerkinSystem(modes, tuple(m.eigenvalue for m in modes), transport_tensor(modes))


# --------------------------------------------------------------------------
# Time stepping
# --------------------------------------------------------------------------


def _pair_terms(lam: np.ndarray, tensor: np.ndarray) -> tuple[np.ndarray, ...]:
    """The right-hand side -lam_k a_k - sum_ij N[i,j,k] a_i a_j as terms
    (i, j, k, w), each adding w a_i a_j to slot k of the state extended by
    a constant a_K = 1: first one per nonzero quadratic term, each pair
    i <= j once (w = -(N[i,j,k] + N[j,i,k]), or -N[i,i,k] on the
    diagonal), then the K linear terms (k, K, k, -lam_k).  The tensor is
    scanned once as a boolean mask, several times faster than `np.nonzero`
    of its floats."""
    i, j, k = np.unravel_index(np.flatnonzero(tensor != 0.0), tensor.shape)
    first = (i <= j) | (tensor[j, i, k] == 0.0)
    lo, hi, k = np.minimum(i, j)[first], np.maximum(i, j)[first], k[first]
    w = tensor[lo, hi, k] + np.where(lo < hi, tensor[hi, lo, k], 0.0)
    slots = np.arange(lam.size)
    one = np.full(lam.size, lam.size)  # the slot of the constant 1
    return (np.concatenate([lo, slots]), np.concatenate([hi, one]),
            np.concatenate([k, slots]), -np.concatenate([w, lam]))


def _rhs(terms: tuple[np.ndarray, ...], a: np.ndarray) -> np.ndarray:
    """dA/dt on the extended state `a` as one weighted bincount over the
    terms of `_pair_terms`, nonzero only on wavenumber triads (3.2% of the
    dense entries at K = 48).  Its last slot is 0, so RK4 stages keep the
    constant exactly."""
    i, j, k, w = terms
    return np.bincount(k, weights=w * a.take(i) * a.take(j), minlength=a.size)


def _require_size(system: GalerkinSystem, state: GalerkinState, role: str) -> None:
    if len(state.coeffs) != system.size:
        raise InvalidCase(
            f"{role} has {len(state.coeffs)} amplitudes "
            f"for a basis of size {system.size}"
        )


def integrate(
    system: GalerkinSystem,
    initial: GalerkinState,
    T: float,
    dt: float,
    stride: int = 1,
) -> list[GalerkinState]:
    """Advance the amplitudes from `initial` over a horizon T with step dt.

    Classical four-stage Runge-Kutta, fixed step.  The horizon must be a
    whole number of steps and a whole multiple of the output stride; the
    trajectory is sampled every `stride` steps, starting from the initial
    state.  Raises InvalidCase, before any step, for a horizon of more
    than MAX_STEPS steps; StabilityViolation when dt * lambda_max reaches
    the explicit-scheme bound; BlowupDetected when the amplitude norm
    leaves [0, 1e6] or stops being finite.
    """
    _require_size(system, initial, "initial state")
    dt = _number("dt", dt)
    T = _number("the horizon T", T)
    if not (math.isfinite(dt) and dt > 0.0):
        raise InvalidCase(f"dt must be a positive real, got {dt!r}")
    if not (math.isfinite(T) and T > 0.0):
        raise InvalidCase(f"the horizon T must be a positive real, got {T!r}")
    courant = dt * system.lambda_max
    if not courant < STABILITY_LIMIT:
        raise StabilityViolation(
            f"dt * lambda_max = {courant:.6g} is not below the "
            f"explicit-scheme bound {STABILITY_LIMIT}"
        )
    if not T / dt < MAX_STEPS + 0.5:
        raise InvalidCase(
            f"the horizon T = {T!r} is too many steps of dt = {dt!r}: "
            f"integrate takes at most MAX_STEPS = {MAX_STEPS}"
        )
    steps = round(T / dt)
    if steps <= 0 or abs(steps * dt - T) > 1e-9 * max(1.0, abs(T)):
        raise InvalidCase(
            f"the horizon T = {T!r} must be a whole number of steps dt = {dt!r}"
        )
    stride = _number("stride", stride, integer=True)
    if stride < 1:
        raise InvalidCase(f"stride must be a positive integer, got {stride!r}")
    if steps % stride:
        raise InvalidCase(
            f"the horizon ({steps} steps) must be a whole multiple "
            f"of the output stride ({stride})"
        )
    terms = system._terms
    a = np.asarray(initial.coeffs)
    t0 = initial.t
    if float(np.linalg.norm(a)) > BLOWUP_NORM:
        raise BlowupDetected(
            f"|A| = {float(np.linalg.norm(a)):.3e} already exceeds "
            f"{BLOWUP_NORM:g} at the initial state"
        )
    k = system.size
    a = np.append(a, 1.0)  # the constant that carries the linear terms
    out = [initial]
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, steps + 1):
            k1 = _rhs(terms, a)
            k2 = _rhs(terms, a + (0.5 * dt) * k1)
            k3 = _rhs(terms, a + (0.5 * dt) * k2)
            k4 = _rhs(terms, a + dt * k3)
            a = a + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            size = float(np.linalg.norm(a[:k]))
            if not math.isfinite(size) or size > BLOWUP_NORM:
                raise BlowupDetected(
                    f"|A| = {size:.3e} at t = {t0 + step * dt:.6g} "
                    f"exceeds {BLOWUP_NORM:g}"
                )
            if step % stride == 0:
                out.append(GalerkinState(t0 + step * dt, tuple(a[:k])))
    return out


def energy_report(
    system: GalerkinSystem, trajectory: Sequence[GalerkinState]
) -> list[dict]:
    """Kinetic energy, dissipation and power-balance defect per state.

    Orthonormality of the basis gives the kinetic energy 1/2 sum A_k^2;
    the eigenvalue identity 2|Du_k|^2 + beta |u_k|^2 on the walls = lambda_k
    turns the dissipation functional into sum lambda_k A_k^2.  The balance
    residual |A . dA/dt + dissipation| isolates the energy leaked by the
    convective tensor; it vanishes with exact antisymmetry.
    """
    lam = np.asarray(system.eigenvalues)
    terms = system._terms
    rows = []
    for state in trajectory:
        _require_size(system, state, "a trajectory state")
        a = np.asarray(state.coeffs)
        kinetic = 0.5 * float(a @ a)
        dissipation = float(lam @ (a * a))
        rate = _rhs(terms, np.append(a, 1.0))[:-1]
        residual = abs(float(a @ rate) + dissipation)
        rows.append(
            {
                "t": state.t,
                "kinetic": kinetic,
                "dissipation": dissipation,
                "balance_residual": residual,
            }
        )
    return rows


# --------------------------------------------------------------------------
# Closed-form decaying solutions
# --------------------------------------------------------------------------


def explicit_solution(
    family,
    *,
    friction: Friction,
    indices: Iterable,
    gammas: Sequence[float],
    coeffs="ad",
    t: float,
) -> GalerkinState:
    """Closed-form amplitudes gamma_k * exp(-lambda_k t) at time t.

    Two families are supported.  `SolutionFamily.SINGLE` is one mode with
    the matched pick a = -c, b = d (its self-advection vanishes), and
    `SolutionFamily.MONO` is a collection of streamwise shears: every index
    has m = 0 and only the a/d coefficient slots may be nonzero, so all
    velocities point in x and depend on (y, z) only -- nothing advects
    anything.  Amplitudes are reported in ascending-eigenvalue order,
    matching `assemble` on the same indices.  Raises HypothesisViolated
    when the requested data sits outside the family.
    """
    try:
        fam = SolutionFamily(family.strip().lower() if isinstance(family, str) else family)
    except ValueError as exc:
        raise InvalidCase(
            f"unknown solution family {family!r}; "
            f"known: {[f.value for f in SolutionFamily]}"
        ) from exc
    positions, modes = zip(*_basis(indices, friction, coeffs))
    gamma_list = _gammas(gammas, len(modes))
    start = GalerkinState(t, tuple(gamma_list[j] for j in positions))

    if fam is SolutionFamily.SINGLE:
        if len(modes) != 1:
            raise HypothesisViolated(
                "the single-mode solution takes exactly one index, "
                f"got {len(modes)}"
            )
        if not is_matched_pick(modes[0].coeffs):
            raise HypothesisViolated(
                "single-mode decay requires the matched coefficient pick "
                "a = -c, b = d; any other pick self-advects"
            )
    else:
        for mode in modes:
            if mode.index.m != 0:
                raise HypothesisViolated(
                    "the shear family requires m = 0 for every index, "
                    f"got {mode.index}"
                )
            if mode.coeffs.b != 0.0 or mode.coeffs.c != 0.0:
                raise HypothesisViolated(
                    "the shear family uses the a/d coefficient slots only "
                    "(b = c = 0); crossflow slots couple the modes"
                )

    return GalerkinState(start.t, tuple(
        gamma * math.exp(-mode.eigenvalue * start.t)
        for gamma, mode in zip(start.coeffs, modes)
    ))


# --------------------------------------------------------------------------
# Manifest-driven runs and file output
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RunResult:
    """Everything one manifest run produces."""

    system: GalerkinSystem
    trajectory: list[GalerkinState]
    report: list[dict]
    summary: dict


def run_simulation(manifest: Mapping) -> RunResult:
    """Execute one run manifest: assemble, truncate, integrate, report.

    Required keys: friction, indices, gammas, dt, T.  Optional: coeffs
    (policy name or per-index picks, default "ab"), truncate (keep the K
    lowest modes; the dissipation-weighted tail sum lambda_k gamma_k^2 of
    the dropped ones is recorded in the summary), stride (default 1) and
    seed (recorded verbatim; the run itself is deterministic).
    """
    for key in ("friction", "indices", "gammas", "dt", "T"):
        if key not in manifest:
            raise InvalidCase(f"run manifest is missing the {key!r} key")
    friction = Friction.parse(manifest["friction"])
    entries = _basis(manifest["indices"], friction, manifest.get("coeffs", "ab"))
    gamma_list = _gammas(manifest["gammas"], len(entries))
    keep = _number("truncate", manifest.get("truncate", len(entries)), integer=True)
    if not 1 <= keep <= len(entries):
        raise InvalidCase(
            f"truncate = {keep} must keep between 1 and {len(entries)} modes"
        )
    positions, modes = zip(*entries[:keep])
    tail = sum(mode.eigenvalue * gamma_list[j] ** 2 for j, mode in entries[keep:])
    # the kept entries are in (eigenvalue, position) order, so assemble keeps it
    system = assemble([m.index for m in modes], friction, [m.coeffs for m in modes])
    initial = GalerkinState(0.0, tuple(gamma_list[j] for j in positions))
    dt = _number("dt", manifest["dt"])
    horizon = _number("T", manifest["T"])
    stride = _number("stride", manifest.get("stride", 1), integer=True)
    trajectory = integrate(system, initial, horizon, dt, stride=stride)
    report = energy_report(system, trajectory)
    summary = {
        "friction": friction.label(),
        "indices": [[m.index.m, m.index.n, m.index.p] for m in system.basis],
        "coeffs": [list(m.coeffs.as_tuple()) for m in system.basis],
        "gammas": list(initial.coeffs),
        "eigenvalues": list(system.eigenvalues),
        "dt": dt,
        "T": horizon,
        "stride": stride,
        "steps": round(horizon / dt),
        "seed": manifest.get("seed"),
        "dropped_tail": tail,
        "final_energy": report[-1]["kinetic"],
    }
    return RunResult(system, trajectory, report, summary)


def load_manifest(path) -> dict:
    """Read a JSON run manifest from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    if not isinstance(manifest, dict):
        raise InvalidCase("a run manifest must be a JSON object")
    return manifest


def _write_csv(path, header, rows) -> None:
    """A header row, then each row's values by their repr (full precision)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows([repr(v) for v in row] for row in rows)


def write_trajectory_csv(path, system, trajectory, report) -> None:
    """Rows (t, A_1..A_K, energy, dissipation from `report`)."""
    _write_csv(path, ["t", *(f"A_{k + 1}" for k in range(system.size)), "energy", "dissipation"],
               ((state.t, *state.coeffs, row["kinetic"], row["dissipation"])
                for state, row in zip(trajectory, report)))


def write_energy_csv(path, report) -> None:
    """Rows (t, kinetic, dissipation, balance_residual)."""
    header = ["t", "kinetic", "dissipation", "balance_residual"]
    _write_csv(path, header, ([row[key] for key in header] for row in report))
