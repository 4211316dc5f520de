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

Certain coefficient picks switch the nonlinearity off entirely -- a single
mode with the matched pick a = -c, b = d, any collection of streamwise
shear modes (m = 0, a/d slots only), or a basis drawn from one of the
two-slot families with c = 0 -- and the system then decays mode by mode,
A_k(t) = gamma_k exp(-lambda_k t).  Those closed forms double as
integration oracles; `explicit_solution` produces them directly.

Pressure carries no degree of freedom in this basis (the projected system
evolves velocity amplitudes only), so the reported pressure is the
constant 0.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import EigenMode, Friction, PlanarCoeffs, PressureFamily, WaveIndex
from .eigensolver import eigenvalue
from .errors import (
    BlowupDetected,
    HypothesisViolated,
    InvalidCase,
    StabilityViolation,
)
from .fields import PlanarField
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

#: Named coefficient policies: one pick applied to every basis index.
#: "matched" is the self-advection-free pick; "ab"/"ad"/"bd" are the
#: two-slot families on c = 0; "c" deliberately excites the nonlinearity.
COEFF_POLICIES: Mapping[str, PlanarCoeffs] = {
    "ab": PlanarCoeffs(a=1.0, b=1.0),
    "ad": PlanarCoeffs(a=1.0, d=1.0),
    "bd": PlanarCoeffs(b=1.0, d=1.0),
    "c": PlanarCoeffs(c=1.0),
    "matched": PlanarCoeffs(a=1.0, b=1.0, c=-1.0, d=1.0),
}


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
        if self.tensor.shape != (k, k, k):
            raise InvalidCase(
                f"interaction tensor must be {k}x{k}x{k}, got {self.tensor.shape}"
            )
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


@dataclass(frozen=True)
class GalerkinState:
    """Mode amplitudes at one instant."""

    t: float
    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(
            self, "coeffs", tuple(float(c) for c in self.coeffs)
        )
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
    if isinstance(spec, WaveIndex):
        index = spec
    else:
        try:
            m, n, p = spec
        except (TypeError, ValueError) as exc:
            raise InvalidCase(
                f"basis indices are (m, n, p) triples, got {spec!r}"
            ) from exc
        index = WaveIndex(int(m), int(n), int(p))
    if index.family is not PressureFamily.CONSTANT:
        raise InvalidCase(
            "the truncated evolution runs on the constant-pressure family; "
            f"got {index}"
        )
    return index


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
    out = []
    for entry in coeffs:
        if isinstance(entry, PlanarCoeffs):
            out.append(entry)
        else:
            out.append(PlanarCoeffs(*(float(v) for v in entry)))
    if len(out) != len(indices):
        raise InvalidCase(
            f"got {len(out)} coefficient picks for {len(indices)} indices"
        )
    return out


def assemble(indices: Iterable, friction: Friction, coeffs="ab") -> GalerkinSystem:
    """Build the truncated system on the given constant-pressure indices.

    `coeffs` is either a policy name from COEFF_POLICIES (the same pick for
    every index) or an explicit sequence of picks, one per index.  The basis
    is sorted by eigenvalue (stable in the input order), so positions in the
    returned system follow ascending eigenvalues; each mode carries its
    index for identification.  The interaction entry N[i, j, k] is the
    projected convective pairing <(u_i . grad) u_j, u_k>, computed in
    closed form by `helmholtz.transport_tensor` (a z-integral of three
    atoms times a planar triad integral, every entry bitwise equal to
    `triple_product`).  Every basis mode
    must be wall-parallel (vanishing third velocity component) --
    the convective pairing is only defined on that family, so e.g. the
    frictionless b/c-slot modes with p >= 1 are rejected.
    """
    index_list = [_coerce_index(s) for s in indices]
    if not index_list:
        raise InvalidCase("at least one basis index is required")
    picks = _resolve_coeffs(index_list, coeffs)
    seen = set()
    for index, pick in zip(index_list, picks):
        key = (index, pick.as_tuple())
        if key in seen:
            raise InvalidCase(f"duplicate basis entry {key}")
        seen.add(key)
    modes = [build_mode(i, friction, c) for i, c in zip(index_list, picks)]
    order = sorted(range(len(modes)), key=lambda j: (modes[j].eigenvalue, j))
    modes = [modes[j] for j in order]
    tensor = transport_tensor(modes)
    return GalerkinSystem(
        tuple(modes), tuple(m.eigenvalue for m in modes), tensor
    )


# --------------------------------------------------------------------------
# Time stepping
# --------------------------------------------------------------------------


def _rhs(lam: np.ndarray, tensor: np.ndarray, a: np.ndarray) -> np.ndarray:
    """-lam_k a_k - sum_ij N[i,j,k] a_i a_j, as two matrix-vector products
    on the (K, K*K) view of the tensor."""
    k = a.size
    return -(lam * a) - a @ (a @ tensor.reshape(k, k * k)).reshape(k, k)


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
    state.  Raises StabilityViolation when dt * lambda_max reaches the
    explicit-scheme bound, BlowupDetected when the amplitude norm leaves
    [0, 1e6] or stops being finite.
    """
    if len(initial.coeffs) != system.size:
        raise InvalidCase(
            f"initial state has {len(initial.coeffs)} amplitudes "
            f"for a basis of size {system.size}"
        )
    dt = float(dt)
    T = float(T)
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
    steps = round(T / dt)
    if steps <= 0 or abs(steps * dt - T) > 1e-9 * max(1.0, abs(T)):
        raise InvalidCase(
            f"the horizon T = {T!r} must be a whole number of steps dt = {dt!r}"
        )
    stride = int(stride)
    if stride < 1:
        raise InvalidCase(f"stride must be a positive integer, got {stride!r}")
    if steps % stride:
        raise InvalidCase(
            f"the horizon ({steps} steps) must be a whole multiple "
            f"of the output stride ({stride})"
        )
    lam = np.asarray(system.eigenvalues)
    tensor = system.tensor
    a = np.asarray(initial.coeffs)
    t0 = initial.t
    if float(np.linalg.norm(a)) > BLOWUP_NORM:
        raise BlowupDetected(
            f"|A| = {float(np.linalg.norm(a)):.3e} already exceeds "
            f"{BLOWUP_NORM:g} at the initial state"
        )
    out = [initial]
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, steps + 1):
            k1 = _rhs(lam, tensor, a)
            k2 = _rhs(lam, tensor, a + (0.5 * dt) * k1)
            k3 = _rhs(lam, tensor, a + (0.5 * dt) * k2)
            k4 = _rhs(lam, tensor, a + dt * k3)
            a = a + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            size = float(np.linalg.norm(a))
            if not math.isfinite(size) or size > BLOWUP_NORM:
                raise BlowupDetected(
                    f"|A| = {size:.3e} at t = {t0 + step * dt:.6g} "
                    f"exceeds {BLOWUP_NORM:g}"
                )
            if step % stride == 0:
                out.append(GalerkinState(t0 + step * dt, tuple(a)))
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
    rows = []
    for state in trajectory:
        a = np.asarray(state.coeffs)
        kinetic = 0.5 * float(a @ a)
        dissipation = float(lam @ (a * a))
        residual = abs(float(a @ _rhs(lam, system.tensor, a)) + dissipation)
        rows.append(
            {
                "t": state.t,
                "kinetic": kinetic,
                "dissipation": dissipation,
                "balance_residual": residual,
            }
        )
    return rows


def strain_norm(system: GalerkinSystem, state: GalerkinState) -> float:
    """L2 norm of the symmetric velocity gradient at one trajectory state."""
    from .verify import strain_identity

    combo = PlanarField.zero()
    for amp, mode in zip(state.coeffs, system.basis):
        if amp != 0.0:
            combo = combo + PlanarField.from_mode(mode).scale(amp)
    strain_sq, _ = strain_identity(combo)
    return math.sqrt(max(strain_sq, 0.0))


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
    if isinstance(family, SolutionFamily):
        fam = family
    else:
        try:
            fam = SolutionFamily(str(family).strip().lower())
        except ValueError as exc:
            raise InvalidCase(
                f"unknown solution family {family!r}; "
                f"known: {[f.value for f in SolutionFamily]}"
            ) from exc
    t = float(t)
    if not math.isfinite(t) or t < 0.0:
        raise InvalidCase(f"time must be a finite non-negative real, got {t!r}")
    index_list = [_coerce_index(s) for s in indices]
    if not index_list:
        raise InvalidCase("at least one index is required")
    gamma_list = [float(g) for g in gammas]
    if len(gamma_list) != len(index_list):
        raise InvalidCase(
            f"got {len(gamma_list)} amplitudes for {len(index_list)} indices"
        )
    if not all(math.isfinite(g) for g in gamma_list):
        raise InvalidCase("initial amplitudes must be finite")
    picks = _resolve_coeffs(index_list, coeffs)

    if fam is SolutionFamily.SINGLE:
        if len(index_list) != 1:
            raise HypothesisViolated(
                "the single-mode solution takes exactly one index, "
                f"got {len(index_list)}"
            )
        if not is_matched_pick(picks[0]):
            raise HypothesisViolated(
                "single-mode decay requires the matched coefficient pick "
                "a = -c, b = d; any other pick self-advects"
            )
    else:
        for index, pick in zip(index_list, picks):
            if index.m != 0:
                raise HypothesisViolated(
                    "the shear family requires m = 0 for every index, "
                    f"got {index}"
                )
            if pick.b != 0.0 or pick.c != 0.0:
                raise HypothesisViolated(
                    "the shear family uses the a/d coefficient slots only "
                    "(b = c = 0); crossflow slots couple the modes"
                )

    values = [eigenvalue(i, friction) for i in index_list]
    order = sorted(range(len(index_list)), key=lambda j: (values[j], j))
    amplitudes = tuple(
        gamma_list[j] * math.exp(-values[j] * t) for j in order
    )
    return GalerkinState(t, amplitudes)


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


def parse_friction_spec(spec) -> Friction:
    """Friction from a manifest entry: name, number, or {"beta": x}."""
    if isinstance(spec, Friction):
        return spec
    if isinstance(spec, str):
        low = spec.strip().lower()
        if low == "navier":
            return Friction.navier()
        if low in ("dirichlet", "inf"):
            return Friction.dirichlet()
        try:
            return _friction_from_number(float(low))
        except ValueError as exc:
            raise InvalidCase(f"unrecognized friction {spec!r}") from exc
    if isinstance(spec, Mapping):
        if "beta" in spec:
            return _friction_from_number(float(spec["beta"]))
        raise InvalidCase(f"friction mapping needs a 'beta' key, got {spec!r}")
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return _friction_from_number(float(spec))
    raise InvalidCase(f"unrecognized friction {spec!r}")


def _friction_from_number(value: float) -> Friction:
    if value == 0.0:
        return Friction.navier()
    if math.isinf(value) and value > 0.0:
        return Friction.dirichlet()
    return Friction.finite(value)


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
    friction = parse_friction_spec(manifest["friction"])
    index_list = [_coerce_index(entry) for entry in manifest["indices"]]
    gamma_list = [float(g) for g in manifest["gammas"]]
    if len(gamma_list) != len(index_list):
        raise InvalidCase(
            f"got {len(gamma_list)} amplitudes for {len(index_list)} indices"
        )
    picks = _resolve_coeffs(index_list, manifest.get("coeffs", "ab"))
    keep = int(manifest.get("truncate", len(index_list)))
    if not 1 <= keep <= len(index_list):
        raise InvalidCase(
            f"truncate = {keep} must keep between 1 and {len(index_list)} modes"
        )
    values = [eigenvalue(i, friction) for i in index_list]
    order = sorted(range(len(index_list)), key=lambda j: (values[j], j))
    kept, dropped = order[:keep], order[keep:]
    tail = sum(values[j] * gamma_list[j] ** 2 for j in dropped)
    system = assemble(
        [index_list[j] for j in kept], friction, [picks[j] for j in kept]
    )
    initial = GalerkinState(0.0, tuple(gamma_list[j] for j in kept))
    dt = float(manifest["dt"])
    horizon = float(manifest["T"])
    stride = int(manifest.get("stride", 1))
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


def write_trajectory_csv(path, system, trajectory, report=None) -> None:
    """Rows (t, A_1..A_K, energy, dissipation), full float precision."""
    if report is None:
        report = energy_report(system, trajectory)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["t"]
            + [f"A_{k + 1}" for k in range(system.size)]
            + ["energy", "dissipation"]
        )
        for state, row in zip(trajectory, report):
            writer.writerow(
                [repr(state.t)]
                + [repr(c) for c in state.coeffs]
                + [repr(row["kinetic"]), repr(row["dissipation"])]
            )


def write_energy_csv(path, report) -> None:
    """Rows (t, kinetic, dissipation, balance_residual)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "kinetic", "dissipation", "balance_residual"])
        for row in report:
            writer.writerow(
                [
                    repr(row["t"]),
                    repr(row["kinetic"]),
                    repr(row["dissipation"]),
                    repr(row["balance_residual"]),
                ]
            )
