"""Independent numerical checks of the analytic mode constructions.

Everything here re-derives quantities -- exact z-integrals, termwise
derivatives of the profile atoms, or a finite-difference discretization
that never sees the closed forms -- and compares the result with what a
built mode claims.  The finite-difference oracle in particular works on
a staggered grid per wavenumber, split into a pressure-free tangential
block and a real pressure-coupled block, so it shares no derivation path
with the root-finding solver it cross-checks.  The `norm` and Gram rows
use the same exact z-integral (`ZProfile.inner`) that normalises the
modes; their independent reference is the 50-digit mpmath quadrature in
the test suite.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .core import (
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
    InvalidIndex,
    NonConvergence,
    ZeroMode,
)
from .fields import PlanarField, pressure_field
from .galerkin import COEFF_POLICIES, GalerkinState, GalerkinSystem
from .helmholtz import convect, is_flat, leray_project, transport_tensor, triple_product
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
    return np.meshgrid(xs, ys, zs, indexing="ij")


# ---------------------------------------------------------------------------
# pointwise checks and exact integrals on a single mode
# ---------------------------------------------------------------------------

def inner_product(a: EigenMode, b: EigenMode) -> float:
    """Velocity L2 inner product over the whole channel."""
    return PlanarField.from_mode(a).inner(PlanarField.from_mode(b))


def pde_residual(mode: EigenMode) -> float:
    """Max-norm of  -lap(u) + grad(q) - lambda*u  on the sample grid."""
    return _pde_residual(mode, PlanarField.from_mode(mode))


def _pde_residual(mode: EigenMode, velocity: PlanarField) -> float:
    residual = velocity.laplacian().scale(-1.0) - velocity.scale(mode.eigenvalue)
    residual = residual + pressure_field(mode).gradient()
    gx, gy, gz = _sample_grid()
    worst = 0.0
    for component in ("u", "v", "w"):
        values = residual.eval_component(component, gx, gy, gz)
        worst = max(worst, float(np.max(np.abs(values))))
    return worst


def boundary_residual(mode: EigenMode, friction: Friction | None = None) -> float:
    """Max wall-condition defect of the mode's profiles.

    ``friction`` overrides the rule the mode is tested against, which is
    how a mode built for one wall law can be shown to violate another.
    """
    rule = mode.friction if friction is None else friction
    worst = 0.0
    for profile in (mode.u_profile, mode.v_profile):
        slope = profile.derivative()
        for z, sign in ((1.0, 1.0), (-1.0, -1.0)):
            if rule.is_dirichlet:
                defect = profile.at(z)
            elif rule.is_navier:
                defect = slope.at(z)
            else:
                defect = sign * slope.at(z) + rule.beta * profile.at(z)
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


def strain_norm(system: GalerkinSystem, state: GalerkinState) -> float:
    """L2 norm of the symmetric velocity gradient at one trajectory state."""
    combo = PlanarField.zero()
    for amp, mode in zip(state.coeffs, system.basis):
        if amp != 0.0:
            combo = combo + PlanarField.from_mode(mode).scale(amp)
    strain_sq, _ = strain_identity(combo)
    return math.sqrt(max(strain_sq, 0.0))


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def _coupled_block(m: int, n: int, friction: Friction, grid_n: int):
    """The pressure-coupled block of wavenumber (m, n) != (0, 0).

    Rotating (U, V) to U_par = (mU+nV)/mu leaves U_par, W and Q coupled.
    The unknowns X = i*U_par and W sit at the grid_n+1 nodes of z in
    [-1,1] and Q at the grid_n cell midpoints, and every entry is real:
    second-order staggered stencils with -mu (Q_{i-1}+Q_i)/2 in the X
    momentum rows and mu (X_j+X_{j+1})/2 in the divergence rows.
    Momentum rows carry the identity on the right-hand side; wall and
    divergence rows are pure constraints (zero rows of B).  Each stencil
    band is laid down as (row, column, value) index arrays and the matrix
    is converted to CSC once, so assembly costs a few vector operations
    rather than one Python step per nonzero.
    """
    import scipy.sparse

    mu2 = float(m * m + n * n)
    mu = math.sqrt(mu2)
    h = 2.0 / grid_n
    inv_h2 = 1.0 / (h * h)
    x_at = np.arange(grid_n + 1)
    w_at = x_at + (grid_n + 1)
    q_at = x_at[:-1] + 2 * (grid_n + 1)
    size = 3 * grid_n + 2
    bands = []
    for row in (x_at[1:-1], w_at[1:-1]):
        bands += [(row, row - 1, -inv_h2), (row, row, 2.0 * inv_h2 + mu2),
                  (row, row + 1, -inv_h2)]
    bands += [(x_at[1:-1], q_at[:-1], -0.5 * mu), (x_at[1:-1], q_at[1:], -0.5 * mu),
              (w_at[1:-1], q_at[1:], 1.0 / h), (w_at[1:-1], q_at[:-1], -1.0 / h)]
    ends = x_at[[0, grid_n]]
    if friction.is_dirichlet:
        bands.append((ends, ends, 1.0))
    else:
        # -X'(-1) + beta X(-1) = 0 and X'(1) + beta X(1) = 0, one-sided
        bands += [(ends, ends, 3.0 / (2.0 * h) + friction.beta),
                  (ends, x_at[[1, grid_n - 1]], -4.0 / (2.0 * h)),
                  (ends, x_at[[2, grid_n - 2]], 1.0 / (2.0 * h))]
    bands.append((w_at[[0, grid_n]], w_at[[0, grid_n]], 1.0))
    # divergence rows, one per cell
    bands += [(q_at, x_at[:-1], 0.5 * mu), (q_at, x_at[1:], 0.5 * mu),
              (q_at, w_at[:-1], -1.0 / h), (q_at, w_at[1:], 1.0 / h)]
    values = np.concatenate([np.full(row.shape, value) for row, _, value in bands])
    rows, cols, _ = zip(*bands)
    a = scipy.sparse.coo_matrix(
        (values, (np.concatenate(rows), np.concatenate(cols))), shape=(size, size)
    ).tocsc()
    b_diag = np.zeros(size)
    b_diag[x_at[1:-1]] = b_diag[w_at[1:-1]] = 1.0
    return a, scipy.sparse.diags(b_diag).tocsc()


def _scalar_block(m: int, n: int, friction: Friction, grid_n: int):
    """Symmetric tridiagonal form of the pressure-free tangential block.

    U_perp = (-nU+mV)/mu (or U and V themselves at mu = 0) obeys the same
    stencil and wall rows with no pressure coupling.  Each one-sided wall
    row gives X_0 = c (4 X_1 - X_2) with c = 1/(3 + 2 h beta), which is 0
    on the no-slip wall (beta = inf); substituting it into the first
    interior row leaves a tridiagonal block on the interior nodes whose
    corner off-diagonal product (1-c)/h^4 is positive, so a diagonal
    similarity makes it symmetric.  Returns its diagonal and off-diagonal.
    """
    h = 2.0 / grid_n
    inv_h2 = 1.0 / (h * h)
    c = 1.0 / (3.0 + 2.0 * h * friction.beta)
    diagonal = np.full(grid_n - 1, 2.0 * inv_h2 + float(m * m + n * n))
    diagonal[[0, -1]] -= 4.0 * c * inv_h2
    off = np.full(grid_n - 2, -inv_h2)
    off[[0, -1]] = -math.sqrt(1.0 - c) * inv_h2
    return diagonal, off


def _block_eigs(
    m: int, n: int, friction: Friction, grid_n: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Unfiltered low eigenvalues of the (scalar, coupled) blocks; the
    scalar ones are repeated at mu = 0, where U and V each obey them."""
    import scipy.linalg
    import scipy.sparse.linalg

    diagonal, off = _scalar_block(m, n, friction, grid_n)
    # the block holds grid_n - 1 values; callers filter to `count` anyway
    top = min(max(count, 1), diagonal.size) - 1
    try:
        scalar = scipy.linalg.eigh_tridiagonal(
            diagonal, off, eigvals_only=True, select="i", select_range=(0, top)
        )
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise NonConvergence(f"tridiagonal oracle solve failed: {exc}") from exc
    if m == 0 and n == 0:
        return np.repeat(scalar, 2), np.empty(0)

    a, b = _coupled_block(m, n, friction, grid_n)
    # a seeded start vector instead of ARPACK's random one, so that
    # reruns are bitwise identical; k stays below ARPACK's limit of the
    # block size minus one, so an oversized count ends in NonConvergence
    start = np.random.default_rng(0).standard_normal(a.shape[0])
    try:
        coupled = scipy.sparse.linalg.eigs(
            a, k=min(max(count, 1), a.shape[0] - 2), M=b, sigma=-1.0, which="LM",
            v0=start, return_eigenvectors=False,
        )
    except (
        scipy.sparse.linalg.ArpackNoConvergence,
        scipy.sparse.linalg.ArpackError,
        RuntimeError,
    ) as exc:
        raise NonConvergence(f"shift-invert oracle solve failed: {exc}") from exc
    return scalar, coupled


def _filter_real(raw: np.ndarray, count: int) -> list[float]:
    finite = raw[np.isfinite(raw)]
    real = finite[np.abs(finite.imag) <= 1e-6 * np.maximum(1.0, np.abs(finite.real))]
    values = sorted(float(v) for v in real.real if v > -1e-3)
    return values[:count]


def check_oracle_grid(grid_n: int) -> None:
    """Reject a grid that is not an integer or too coarse for the oracle:
    raises InvalidCase."""
    if _number("oracle grid", grid_n, integer=True) < 100:
        raise InvalidCase(f"oracle grid must have at least 100 intervals, got {grid_n}")


def fd_oracle_eigs(
    m: int,
    n: int,
    friction: Friction,
    grid_n: int,
    count: int = 10,
) -> list[float]:
    """Lowest `count` real eigenvalues of the discretized per-wavenumber system.

    The system splits into two decoupled blocks.  The pressure-free
    tangential block (`_scalar_block`, counted twice at mu = 0, where U
    and V each obey it) is solved by bisection on its symmetric
    tridiagonal form.  The real pressure-coupled block (`_coupled_block`,
    absent at mu = 0, where it has no finite eigenvalue) is solved by
    shift-invert Arnoldi around sigma = -1 from a fixed seeded start
    vector, so reruns are bitwise identical.  Raises NonConvergence when
    either solve fails or fewer than `count` real values come back, and
    InvalidCase for a grid or a count that is not a usable integer.
    """
    check_oracle_grid(grid_n)
    if _number("oracle count", count, integer=True) < 0:
        raise InvalidCase(f"oracle count must be non-negative, got {count!r}")
    raw = np.concatenate(_block_eigs(m, n, friction, grid_n, count))
    values = _filter_real(raw, count)
    if len(values) < count:
        raise NonConvergence(
            f"oracle found only {len(values)} real eigenvalues of {count} requested"
        )
    return values


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
    strain_sq, _ = strain_identity(field)
    dissipation = strain_sq
    if friction.is_finite:
        dissipation += friction.beta * field.boundary_tangential_sq()
    if not dissipation > 0.0:
        raise HypothesisViolated(
            "the dissipation quotient needs a field with positive "
            f"dissipation, got {dissipation!r}"
        )
    return field.inner(field) / dissipation


def poincare_check(friction: Friction, fields: Sequence[PlanarField]) -> list[dict]:
    """Check ||v||^2 <= C0 * dissipation for each sample field."""
    constant = poincare_constant(friction)
    rows = []
    for k, field in enumerate(fields):
        quotient = dissipation_quotient(field, friction)
        rows.append(
            report_row(
                check="poincare",
                index=f"sample-{k}",
                friction=friction,
                value=quotient,
                tolerance=constant * (1.0 + 1e-8),
                passed=quotient <= constant * (1.0 + 1e-8),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# report plumbing and suites
# ---------------------------------------------------------------------------

def report_row(
    check: str,
    index,
    friction: Friction | None,
    value: float,
    tolerance: float,
    passed: bool | None = None,
) -> dict:
    if passed is None:
        passed = value < tolerance
    return {
        "check": check,
        "index": str(index),
        "friction": friction.label() if friction is not None else "",
        "value": float(value),
        "tolerance": float(tolerance),
        "pass": bool(passed),
    }


def _mode_label(mode: EigenMode) -> str:
    index = mode.index
    return f"{index.m},{index.n},{index.p},{index.family.value}"


def mode_rows(mode: EigenMode) -> list[dict]:
    """The standard residual battery for one built mode."""
    return _mode_rows(mode, PlanarField.from_mode(mode))


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

    `seed` drives the random linear combinations used as strain/Poincare
    sample fields (single modes alone would not exercise cross terms).
    """
    modes = mode_sequence(friction, max_index)
    fields = [PlanarField.from_mode(mode) for mode in modes]
    rows: list[dict] = []
    for mode, field in zip(modes, fields):
        rows.extend(_mode_rows(mode, field))

    worst_off = 0.0
    worst_diag = 0.0
    for i, left in enumerate(fields):
        for j in range(i, len(fields)):
            value = left.inner(fields[j])
            if i == j:
                worst_diag = max(worst_diag, abs(value - 1.0))
            else:
                worst_off = max(worst_off, abs(value))
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
    rng = np.random.default_rng(seed)
    samples = [fields[k] for k in dissipative[:3]]
    for _ in range(2):
        weights = rng.standard_normal(min(len(dissipative), 6))
        combo = PlanarField.zero()
        for w, k in zip(weights, dissipative):
            combo = combo + fields[k].scale(float(w))
        samples.append(combo)

    for k, field in enumerate(samples):
        strain_sq, grad_sq = strain_identity(field)
        gap = abs(strain_sq - grad_sq) / max(1.0, grad_sq)
        label = _mode_label(modes[dissipative[k]]) if k < 3 else f"combo-{k - 3}"
        rows.append(report_row("strain_identity", label, friction, gap, 1e-8))

    rows.extend(poincare_check(friction, samples))
    return rows


# The staple cross-check indices: one per planar-index shape and family.
ORACLE_SAMPLES: tuple[tuple[int, int], ...] = ((0, 0), (1, 0), (1, 1), (2, 1), (0, 2))


def _analytic_union(m: int, n: int, friction: Friction, count: int) -> list[float]:
    """Lowest analytic eigenvalues of the same per-wavenumber system."""
    values: list[float] = []
    for family in (PressureFamily.CONSTANT, PressureFamily.NONCONSTANT):
        for p in range(count + 4):
            try:
                res = solve_details(WaveIndex(m, n, p, family), friction)
            except (InvalidCase, InvalidIndex):
                continue  # e.g. the no-slip wall has no constant-pressure p=0
            values.append(res.value)
            if friction.is_navier and p >= 1 and (m, n) != (0, 0):
                # at beta = 0 the tangential and normal-velocity families
                # coincide, so each p >= 1 level is doubled per wavenumber
                values.append(res.value)
    if m == 0 and n == 0:
        values = sorted(values + values)  # U and V branches coincide
    return sorted(values)[:count]


def suite_oracle(friction: Friction, grid_n: int) -> list[dict]:
    """Compare oracle spectra against the analytic ones, one row per
    `ORACLE_SAMPLES` wavenumber: the worst gap among the lowest three
    eigenvalues, against a tolerance of 4e-3."""
    rows = []
    for m, n in ORACLE_SAMPLES:
        reference = _analytic_union(m, n, friction, 3)
        computed = fd_oracle_eigs(m, n, friction, grid_n, count=3)
        delta = max(abs(c - r) for c, r in zip(computed, reference))
        rows.append(report_row("fd_oracle", f"{m},{n}", friction, delta, 4e-3))
    return rows


# ---------------------------------------------------------------------------
# projection / convection suite
# ---------------------------------------------------------------------------

def _wall_trace(field: PlanarField) -> float:
    xs = np.linspace(0.0, 2.0 * math.pi, 17, endpoint=False)
    grid_x, grid_y = np.meshgrid(xs, xs, indexing="ij")
    worst = 0.0
    for wall in (-1.0, 1.0):
        grid_z = np.full_like(grid_x, wall)
        worst = max(
            worst,
            float(np.max(np.abs(field.eval_component("w", grid_x, grid_y, grid_z)))),
        )
    return worst


def suite_helmholtz(friction: Friction, max_index: int = 2, seed: int = 0) -> list[dict]:
    """Projection identities and convective triple-product structure.

    Checks, in order: the projection fixes solenoidal tangent fields and
    kills gradients; projected convective products are solenoidal with a
    vanishing wall trace, idempotent under re-projection, and orthogonal
    to what was removed; triple products are antisymmetric in their last
    two slots; every two-slot coefficient family on c = 0 has vanishing
    triples (swept exhaustively up to `max_index`); and the c-slot pick
    produces at least one triple that is genuinely nonzero.
    """
    rows: list[dict] = []
    rng = np.random.default_rng(seed)

    def sample_pick(index: WaveIndex) -> PlanarCoeffs:
        # frictionless p >= 1 levels couple the vertical velocity to the
        # coefficients weighting the eigen-pressure planar factor; only the
        # slots absent from that factor stay wall-parallel
        if friction.is_navier and index.p >= 1:
            if index.n == 0:
                return PlanarCoeffs(a=1.0, b=-0.5)
            return PlanarCoeffs(a=1.0, d=-0.5)
        raw = rng.standard_normal(4)
        raw = np.where(np.abs(raw) < 0.1, 0.5, raw)
        return PlanarCoeffs(*(float(v) for v in raw))

    # the no-slip wall has no constant-pressure p = 0 level
    p_base = 1 if friction.is_dirichlet else 0
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

    pair_picks = [(0, 1), (1, 2), (2, 0), (1, 1)]
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

    worst = 0.0
    for _ in range(6):
        i, j, k = rng.integers(0, len(sample_modes), size=3)
        forward = triple_product(sample_modes[i], sample_modes[j], sample_modes[k])
        swapped = triple_product(sample_modes[i], sample_modes[k], sample_modes[j])
        worst = max(worst, abs(forward + swapped))
    rows.append(report_row("triple_antisymmetry", "6-draws", friction, worst, 1e-10))

    # exhaustive sweep of the two-slot families on c = 0
    sweep_indices = [
        WaveIndex(m, n, p)
        for m in range(0, max_index + 1)
        for n in range(1, max_index + 1)
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
                continue  # not wall-parallel; convective products undefined
            family_modes.append(mode)
        worst = float(np.max(np.abs(transport_tensor(family_modes)), initial=0.0))
        rows.append(
            report_row(f"two_slot_{name}", f"{len(family_modes)}-modes", friction, worst, 1e-10)
        )

    # ...and the c-slot pick must NOT vanish: a genuine interaction
    c_modes = [
        build_mode(WaveIndex(m, n, p_base), friction, PlanarCoeffs(c=1.0))
        for m, n in ((1, 1), (1, 2), (2, 1))
    ]
    witness = abs(triple_product(c_modes[0], c_modes[1], c_modes[2]))
    rows.append(
        report_row(
            "witness_nonzero",
            f"c-pick(1,1,{p_base})(1,2,{p_base})(2,1,{p_base})",
            friction,
            witness,
            1e-4,
            passed=witness > 1e-4,
        )
    )
    return rows
