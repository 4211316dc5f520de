"""Independent numerical checks of the analytic mode constructions.

Everything here re-derives quantities -- exact z-integrals, termwise
derivatives of the profile atoms, or a Chebyshev collocation that never
sees the closed forms -- and compares the result with what a built mode
claims.  The spectral oracle in particular solves each wavenumber as a
toroidal and a poloidal block, dense and numpy-only, so it shares no
derivation path with the root-finding solver it cross-checks.  The `norm`
and Gram rows use the box integral that normalises the modes at k = 0
(`core._box_inner`); their independent reference is the 50-digit mpmath
quadrature in the test suite.
"""

from __future__ import annotations

import functools
import math
import random
from typing import Sequence

import numpy as np

from .core import (
    COEFF_POLICIES,
    EigenMode,
    Friction,
    PlanarCoeffs,
    PressureFamily,
    WaveIndex,
    _number,
)
from .eigensolver import solve_details
from .errors import (
    HypothesisViolated,
    InvalidCase,
    NonConvergence,
    ZeroMode,
)
from .fields import PlanarField, pressure_field
from .helmholtz import convect, is_flat, leray_project, transport_tensor
from .modes import build_mode, enumerate_spectrum, mode_sequence

# Sample-grid shape for pointwise residual checks: periodic directions do
# not need endpoint duplication, the wall-normal direction must include
# the walls themselves.
PDE_GRID = (16, 16, 96)


@functools.cache
def _sample_grid():
    nx, ny, nz = PDE_GRID
    xs = np.linspace(0.0, 2.0 * math.pi, nx, endpoint=False)
    ys = np.linspace(0.0, 2.0 * math.pi, ny, endpoint=False)
    zs = np.linspace(-1.0, 1.0, nz)
    return np.meshgrid(xs, ys, zs, indexing="ij", sparse=True)


# ---------------------------------------------------------------------------
# pointwise checks and exact integrals on a single mode
# ---------------------------------------------------------------------------

def pde_residual(mode: EigenMode) -> float:
    """Max-norm of  -lap(u) + grad(q) - lambda*u  on the sample grid."""
    return _pde_residual(mode, PlanarField.from_mode(mode))


def _pde_residual(mode: EigenMode, velocity: PlanarField) -> float:
    residual = (velocity.laplacian() + velocity.scale(mode.eigenvalue)).scale(-1.0)
    if not mode.q_profile.is_zero:  # the constant-pressure family has no gradient
        residual = residual + pressure_field(mode).gradient()
    gx, gy, gz = _sample_grid()
    worst = 0.0
    for component in ("u", "v", "w"):
        part = residual.component(component)
        if not part.is_zero():  # an all-zero grid would add a max of 0.0
            worst = max(worst, float(np.max(np.abs(part.eval(gx, gy, gz)))))
    return worst


def boundary_residual(mode: EigenMode) -> float:
    """Max wall-condition defect of the mode's profiles under its own wall
    law; `dataclasses.replace` gives a mode another law to test against."""
    worst = 0.0
    for profile in (mode.u_profile, mode.v_profile):
        slope = profile.derivative()
        for z, sign in ((1.0, 1.0), (-1.0, -1.0)):
            if mode.friction.is_dirichlet:
                defect = profile.at(z)
            else:  # the frictionless wall is this rule at beta = 0
                defect = sign * slope.at(z) + mode.friction.beta * profile.at(z)
            worst = max(worst, abs(defect))
    worst = max(worst, abs(mode.w_profile.at(1.0)), abs(mode.w_profile.at(-1.0)))
    return worst


def divergence_residual(mode: EigenMode) -> float:
    """Max over a z-grid of the recombined divergence constraint."""
    zs = np.linspace(-1.0, 1.0, 257)
    values = (
        mode.w_profile.derivative().eval(zs)
        - mode.index.m * mode.u_profile.eval(zs)
        - mode.index.n * mode.v_profile.eval(zs)
    )
    return float(np.max(np.abs(values)))


def strain_identity(field: PlanarField) -> tuple[float, float]:
    """Return (2*||D field||^2, ||grad field||^2), integrated exactly.

    For solenoidal fields tangent to the walls the two agree; the pair is
    returned rather than the difference so callers can judge scale.
    """
    derivative_ops = ("dx", "dy", "dz")
    grads = [
        [getattr(field.component(c), op)() for c in ("u", "v", "w")]
        for op in derivative_ops
    ]
    grad_sq = 0.0
    strain_sq = 0.0
    for i in range(3):
        for j in range(3):
            grad_sq += grads[i][j].inner(grads[i][j])
            symmetrized = grads[i][j] + grads[j][i]
            strain_sq += 0.5 * symmetrized.inner(symmetrized)
    return strain_sq, grad_sq


# ---------------------------------------------------------------------------
# spectral Stokes oracle
# ---------------------------------------------------------------------------

#: Chebyshev resolutions tried in turn: a wavenumber's values are taken
#: from the first pair of successive rungs that agree.
ORACLE_LADDER = (24, 32, 48, 64, 96)
#: Agreement of two successive rungs, relative to max(1, |value|).
ORACLE_AGREEMENT = 1e-9


@functools.cache
def _cheb(size: int) -> tuple[np.ndarray, np.ndarray]:
    """First and second differentiation matrices on the Chebyshev points
    z_j = cos(pi j / size), j = 0..size, so z_0 = 1 and z_size = -1
    (Trefethen, Spectral Methods in MATLAB, 2000, `cheb`)."""
    j = np.arange(size + 1)
    z = np.sin(np.pi * (size - 2 * j) / (2 * size))  # cos(pi j/size), symmetric
    c = np.where((j == 0) | (j == size), 2.0, 1.0) * (-1.0) ** j
    d = np.outer(c, 1.0 / c) / (z[:, None] - z[None, :] + np.eye(size + 1))
    d -= np.diag(d.sum(axis=1))
    d2 = d @ d
    d.flags.writeable = d2.flags.writeable = False  # shared by every caller
    return d, d2


def _eliminate(wall: np.ndarray, ends: list[int]):
    """Restriction of an operator to the unknowns outside `ends`, once the
    wall rows `wall` (one per entry of `ends`) are solved for those."""
    keep = [k for k in range(wall.shape[1]) if k not in ends]
    fill = -np.linalg.solve(wall[:, ends], wall[:, keep])
    return lambda op: op[np.ix_(keep, keep)] + op[np.ix_(keep, ends)] @ fill


def _spectral_eigs(mu2: float, friction: Friction, size: int) -> np.ndarray:
    """Unfiltered eigenvalues of both blocks of a wavenumber with
    mu^2 = m^2 + n^2 at one Chebyshev resolution.

    Toroidal block: -U'' + mu^2 U = lambda U with the wall rows
    +-U'(+-1) + beta U(+-1) = 0 (U(+-1) = 0 on the no-slip wall), counted
    twice at mu = 0, where U and V each obey it.  Poloidal block, absent at
    mu = 0: -(D^2 - mu^2)^2 W = lambda (D^2 - mu^2) W with W(+-1) = 0 and
    +-W''(+-1) + beta W'(+-1) = 0 (W'(+-1) = 0 on the no-slip wall); its
    four wall rows are solved for the wall values and their neighbours.
    """
    d, d2 = _cheb(size)
    eye = np.eye(size + 1)
    walls = [0, size]
    outward = np.array([[1.0], [-1.0]])  # the outward normal is +z at z = 1, -z at z = -1
    if friction.is_dirichlet:
        tangential, slope = eye[walls], d[walls]
    else:
        tangential = outward * d[walls] + friction.beta * eye[walls]
        slope = outward * d2[walls] + friction.beta * d[walls]
    toroidal = np.linalg.eigvals(_eliminate(tangential, walls)(mu2 * eye - d2))
    if mu2 == 0.0:
        return np.repeat(toroidal, 2)
    lap = d2 - mu2 * eye
    restrict = _eliminate(np.vstack([eye[walls], slope]), [0, 1, size - 1, size])
    poloidal = np.linalg.eigvals(np.linalg.solve(restrict(lap), restrict(-lap @ lap)))
    return np.concatenate([toroidal, poloidal])


def _filter_real(raw: np.ndarray, count: int) -> list[float]:
    finite = raw[np.isfinite(raw)]
    real = finite[np.abs(finite.imag) <= 1e-6 * np.maximum(1.0, np.abs(finite.real))]
    values = sorted(float(v) for v in real.real if v > -1e-3)
    return values[:count]


def check_oracle_grid(grid_n: int) -> None:
    """Reject a grid that is not an integer or too coarse: raises
    InvalidCase.  The spectral oracle picks its own resolution, so the
    CLI's `--grid-n` is checked by this rule and otherwise unused."""
    if _number("oracle grid", grid_n, integer=True) < 100:
        raise InvalidCase(f"oracle grid must have at least 100 intervals, got {grid_n}")


def fd_oracle_eigs(m: int, n: int, friction: Friction, count: int = 10) -> list[float]:
    """Lowest `count` real eigenvalues of the Stokes system at wavenumber (m, n).

    Each block of `_spectral_eigs` is a dense standard eigenproblem by
    Chebyshev collocation (Orszag, JFM 50, 1971), solved at the rungs of
    `ORACLE_LADDER` until two successive rungs agree on the lowest `count`
    real values to `ORACLE_AGREEMENT`; the finer rung's values are
    returned.  The oracle shares no code with the root solver.  Raises
    NonConvergence when no pair of rungs agrees, and InvalidCase for
    wavenumbers that are not integers (or overflow a float) and for a
    count that is not a non-negative integer.  (The name dates from the
    finite-difference oracle and stays because the benchmark's trace lists
    it.)
    """
    if _number("oracle count", count, integer=True) < 0:
        raise InvalidCase(f"oracle count must be non-negative, got {count!r}")
    m, n = (_number("oracle wavenumber", v, integer=True) for v in (m, n))
    mu2 = _number("oracle wavenumber (m, n)", m * m + n * n)
    coarse = None
    for size in ORACLE_LADDER:
        values = _filter_real(_spectral_eigs(mu2, friction, size), count)
        if coarse is not None and len(coarse) == len(values) == count and all(
            abs(a - b) <= ORACLE_AGREEMENT * max(1.0, abs(b)) for a, b in zip(coarse, values)
        ):
            return values
        coarse = values
    raise NonConvergence(
        f"oracle values at ({m}, {n}) did not settle to {ORACLE_AGREEMENT:g} "
        f"up to {ORACLE_LADDER[-1]} Chebyshev points"
    )


# ---------------------------------------------------------------------------
# Poincare / dissipation structure
# ---------------------------------------------------------------------------

def poincare_constant(friction: Friction) -> float:
    """1 / (bottom of the spectrum), kernel excluded for the free wall."""
    entries = enumerate_spectrum(friction, count=2)
    bottom = entries[1].value if entries[0].value <= 0.0 else entries[0].value
    return 1.0 / bottom


def dissipation_quotient(field: PlanarField, friction: Friction) -> float:
    """||v||^2 / (2||Dv||^2 + beta ||v_tau||^2 on the walls).

    Raises HypothesisViolated for a field that dissipates nothing (e.g. a
    rigid translation of the free wall), where the quotient is undefined.
    """
    return _quotient(field, friction, strain_identity(field)[0])


def _quotient(field: PlanarField, friction: Friction, strain_sq: float) -> float:
    """`dissipation_quotient` given the field's 2*||D field||^2."""
    dissipation = strain_sq
    if friction.is_finite:
        dissipation += friction.beta * field.boundary_tangential_sq()
    if not dissipation > 0.0:
        raise HypothesisViolated(
            "the dissipation quotient needs a field with positive "
            f"dissipation, got {dissipation!r}"
        )
    return field.inner(field) / dissipation


def _poincare_rows(friction: Friction, fields: Sequence[PlanarField],
                   strains: Sequence[float]) -> list[dict]:
    """Check ||v||^2 <= C0 * dissipation for each sample field, given each
    field's 2*||D field||^2."""
    bound = poincare_constant(friction) * (1.0 + 1e-8)
    quotients = [_quotient(field, friction, strain_sq)
                 for field, strain_sq in zip(fields, strains)]
    return [report_row("poincare", f"sample-{k}", friction, quotient, bound, quotient <= bound)
            for k, quotient in enumerate(quotients)]


# ---------------------------------------------------------------------------
# report plumbing and suites
# ---------------------------------------------------------------------------

def report_row(
    check: str,
    index,
    friction: Friction,
    value: float,
    tolerance: float,
    passed: bool | None = None,
) -> dict:
    if passed is None:
        passed = value < tolerance
    return {
        "check": check,
        "index": str(index),
        "friction": friction.label(),
        "value": float(value),
        "tolerance": float(tolerance),
        "pass": bool(passed),
    }


def _mode_label(mode: EigenMode) -> str:
    index = mode.index
    return f"{index.m},{index.n},{index.p},{index.family.value}"


def _mode_rows(mode: EigenMode, velocity: PlanarField) -> list[dict]:
    label = _mode_label(mode)
    friction = mode.friction
    return [
        report_row("pde_residual", label, friction, _pde_residual(mode, velocity), 1e-8),
        report_row("boundary_residual", label, friction, boundary_residual(mode), 1e-10),
        report_row("divergence_residual", label, friction, divergence_residual(mode), 1e-10),
        report_row("norm", label, friction, abs(velocity.inner(velocity) - 1.0), 1e-8),
    ]


def suite_modes(friction: Friction, max_index: int = 15, seed: int = 0) -> list[dict]:
    """Residuals, Gram matrix, strain identity, and the Poincare bound.

    `seed` seeds the `random.Random` whose Gaussian draws weight the
    linear combinations used as strain/Poincare sample fields (single modes
    alone would not exercise cross terms).
    """
    modes = mode_sequence(friction, max_index)
    fields = [PlanarField.from_mode(mode) for mode in modes]
    rows: list[dict] = []
    for mode, field in zip(modes, fields):
        rows.extend(_mode_rows(mode, field))

    worst_off = 0.0
    for i, left in enumerate(fields):
        for j in range(i + 1, len(fields)):
            worst_off = max(worst_off, abs(left.inner(fields[j])))
    worst_diag = 0.0
    for row in rows:  # a norm row holds its Gram diagonal entry's distance from 1
        if row["check"] == "norm":
            worst_diag = max(worst_diag, row["value"])
    rows.append(report_row("gram_offdiag", f"first-{len(modes)}", friction, worst_off, 1e-8))
    rows.append(report_row("gram_diag", f"first-{len(modes)}", friction, worst_diag, 1e-8))

    # the kernel (rigid modes of the free wall) dissipates nothing, so the
    # strain and Poincare samples come from the positive spectrum only
    dissipative = [k for k, mode in enumerate(modes) if mode.eigenvalue > 0.0]
    if len(dissipative) < 3:
        raise InvalidCase(
            f"max_index {max_index} leaves {len(dissipative)} modes with positive "
            "eigenvalue; the strain and Poincare samples need 3"
        )
    rng = random.Random(seed)
    samples = [fields[k] for k in dissipative[:3]]
    for _ in range(2):
        weights = [rng.gauss(0.0, 1.0) for _ in range(min(len(dissipative), 6))]
        combo = PlanarField.zero()
        for w, k in zip(weights, dissipative):
            combo = combo + fields[k].scale(w)
        samples.append(combo)

    strains = []
    for k, field in enumerate(samples):
        strain_sq, grad_sq = strain_identity(field)
        strains.append(strain_sq)
        gap = abs(strain_sq - grad_sq) / max(1.0, grad_sq)
        label = _mode_label(modes[dissipative[k]]) if k < 3 else f"combo-{k - 3}"
        rows.append(report_row("strain_identity", label, friction, gap, 1e-8))

    rows.extend(_poincare_rows(friction, samples, strains))
    return rows


# The staple cross-check indices: one per planar-index shape and family.
ORACLE_SAMPLES: tuple[tuple[int, int], ...] = ((0, 0), (1, 0), (1, 1), (2, 1), (0, 2))


def _analytic_union(m: int, n: int, friction: Friction, count: int) -> list[float]:
    """Lowest analytic eigenvalues of the same per-wavenumber system."""
    values: list[float] = []
    for family in (PressureFamily.CONSTANT, PressureFamily.NONCONSTANT):
        first = friction.first_p(family)
        if first is None or (family is PressureFamily.NONCONSTANT and m == n == 0):
            continue  # a family the wall, or the wavenumber, does not carry
        for p in range(first, count + 4):
            res = solve_details(WaveIndex(m, n, p, family), friction)
            values.append(res.value)
            if friction.is_navier and p >= 1 and (m, n) != (0, 0):
                # at beta = 0 the tangential and normal-velocity families
                # coincide, so each p >= 1 level is doubled per wavenumber
                values.append(res.value)
    if m == 0 and n == 0:
        values = sorted(values + values)  # U and V branches coincide
    return sorted(values)[:count]


def suite_oracle(friction: Friction) -> list[dict]:
    """Compare oracle spectra against the analytic ones, one row per
    `ORACLE_SAMPLES` wavenumber: the worst gap among the lowest three
    eigenvalues, against a tolerance of 1e-8."""
    rows = []
    for m, n in ORACLE_SAMPLES:
        reference = _analytic_union(m, n, friction, 3)
        computed = fd_oracle_eigs(m, n, friction, count=3)
        delta = max(abs(c - r) for c, r in zip(computed, reference))
        rows.append(report_row("spectral_oracle", f"{m},{n}", friction, delta, 1e-8))
    return rows


# ---------------------------------------------------------------------------
# projection / convection suite
# ---------------------------------------------------------------------------

def _wall_trace(field: PlanarField) -> float:
    """Sum over the harmonics W_k of the third component of
    |W_k(1)| + |W_k(-1)|: no planar phase exceeds 1 in modulus, so this
    bounds |w| on both walls."""
    return sum(abs(c) for wall in (1.0, -1.0)
               for *_, c in field.component("w").at(wall).terms)


#: Largest m and n of the two-slot sweep; its dense tensor grows as this bound^6.
TWO_SLOT_MAX_INDEX = 2


def suite_helmholtz(friction: Friction, seed: int = 0) -> list[dict]:
    """Projection identities and convective triple-product structure.

    Checks, in order: the projection fixes solenoidal tangent fields and
    kills gradients; projected convective products (one of a W != 0 mode)
    are solenoidal with a vanishing wall trace, idempotent under
    re-projection, and orthogonal to what was removed; the c-slot pick's
    triples are antisymmetric in their last two slots; every two-slot
    coefficient family on c = 0 has vanishing triples (swept exhaustively
    up to TWO_SLOT_MAX_INDEX); and one c-slot triple is genuinely nonzero.
    """
    rows: list[dict] = []
    rng = random.Random(seed)

    def sample_pick(index: WaveIndex) -> PlanarCoeffs:
        # frictionless p >= 1 levels couple the vertical velocity to the
        # coefficients weighting the eigen-pressure planar factor; only the
        # slots absent from that factor stay wall-parallel
        if friction.is_navier and index.p >= 1:
            return PlanarCoeffs(a=1.0, d=-0.5)
        raw = (rng.gauss(0.0, 1.0) for _ in range(4))
        return PlanarCoeffs(*(0.5 if abs(v) < 0.1 else v for v in raw))

    p_base = friction.first_p(PressureFamily.CONSTANT)
    sample_indices = [
        WaveIndex(1, 1, p_base),
        WaveIndex(1, 2, p_base),
        # frictionless walls have no wall-parallel pick on full (m, n)
        # indices with p >= 1, so sample an axis index there instead
        WaveIndex(0, 2, 1) if friction.is_navier else WaveIndex(2, 1, p_base + 1),
    ]
    sample_modes = [build_mode(i, friction, sample_pick(i)) for i in sample_indices]
    sample_fields = [PlanarField.from_mode(m) for m in sample_modes]

    worst = 0.0
    for field in sample_fields:
        worst = max(worst, (leray_project(field) - field).norm())
    rows.append(report_row("projection_identity", f"{len(sample_fields)}-modes", friction, worst, 1e-10))

    # gradients must project to zero; the potentials are eigen-pressures
    # of the pressure-carrying family (friction-independent check)
    potentials = [
        pressure_field(build_mode(
            WaveIndex(m, n, 0, PressureFamily.NONCONSTANT),
            Friction.finite(1.0),
            PlanarCoeffs(c=1.0, d=0.4) if n == 0 else PlanarCoeffs(b=1.0, c=-0.3),
        ))
        for m, n in ((1, 0), (1, 1))
    ]
    worst = max(leray_project(q.gradient()).norm() for q in potentials)
    rows.append(report_row("gradient_kill", "2-potentials", friction, worst, 1e-10))

    # a mode with W != 0 advecting itself reaches convect's A_w d/dz term
    # and the projection's zero-wavevector rule
    sample_modes.append(build_mode(WaveIndex(1, 1, 1) if friction.is_navier else WaveIndex(
        1, 1, 0, PressureFamily.NONCONSTANT), friction, PlanarCoeffs(c=1.0)))
    pair_picks = [(0, 1), (1, 2), (2, 0), (1, 1), (3, 3)]
    div_w = trace_w = idem_w = orth_w = 0.0
    for i, j in pair_picks:
        raw = convect(sample_modes[i], sample_modes[j])
        projected = leray_project(raw)
        removed = raw - projected
        div_w = max(div_w, math.sqrt(max(projected.divergence().l2_sq(), 0.0)))
        trace_w = max(trace_w, _wall_trace(projected))
        idem_w = max(idem_w, (leray_project(projected) - projected).norm())
        orth_w = max(orth_w, abs(removed.inner(projected)))
    label = f"{len(pair_picks)}-pairs"
    rows.append(report_row("projection_divergence", label, friction, div_w, 1e-10))
    rows.append(report_row("projection_trace", label, friction, trace_w, 1e-10))
    rows.append(report_row("projection_idempotence", label, friction, idem_w, 1e-10))
    rows.append(report_row("projection_orthogonality", label, friction, orth_w, 1e-10))

    # the c-slot pick interacts, so its whole tensor (entries equal to
    # `triple_product` bit for bit) tests antisymmetry and, below, a witness
    c_modes = [
        build_mode(WaveIndex(m, n, p_base), friction, PlanarCoeffs(c=1.0))
        for m, n in ((1, 1), (1, 2), (2, 1))
    ]
    c_label = f"c-pick(1,1,{p_base})(1,2,{p_base})(2,1,{p_base})"
    tensor = transport_tensor(c_modes)
    worst = float(np.max(np.abs(tensor + tensor.swapaxes(1, 2))))
    rows.append(report_row("triple_antisymmetry", c_label, friction, worst, 1e-10))

    # exhaustive sweep of the two-slot families on c = 0
    sweep_indices = [
        WaveIndex(m, n, p)
        for m in range(0, TWO_SLOT_MAX_INDEX + 1)
        for n in range(1, TWO_SLOT_MAX_INDEX + 1)
        for p in range(p_base, p_base + 2)
    ]
    for name in ("ab", "ad", "bd"):
        pick = COEFF_POLICIES[name]
        family_modes = []
        for index in sweep_indices:
            try:
                mode = build_mode(index, friction, pick)
            except ZeroMode:
                continue  # the pick has no weight on this index's slots
            if not is_flat(mode):
                continue  # not wall-parallel; the transport tensor needs flat modes
            family_modes.append(mode)
        worst = float(np.max(np.abs(transport_tensor(family_modes)), initial=0.0))
        rows.append(
            report_row(f"two_slot_{name}", f"{len(family_modes)}-modes", friction, worst, 1e-10)
        )

    witness = abs(float(tensor[0, 1, 2]))
    rows.append(report_row("witness_nonzero", c_label, friction, witness, 1e-4,
                           passed=witness > 1e-4))
    return rows
