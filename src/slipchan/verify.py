"""Independent numerical checks of the analytic mode constructions.

Everything here re-derives quantities -- exact z-integrals, termwise
derivatives of the profile atoms, or a finite-difference discretization
that never sees the closed forms -- and compares the result with what a
built mode claims.  The finite-difference oracle in particular works in
the complex per-wavenumber formulation on a staggered grid, so it shares
no derivation path with the root-finding solver it cross-checks.  The
`norm` and Gram rows use the same exact z-integral (`ZProfile.inner`)
that normalises the modes; their independent reference is the 50-digit
mpmath quadrature in the test suite.
"""

from __future__ import annotations

import dataclasses
import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, Sequence

import numpy as np

from .core import (
    EigenMode,
    Friction,
    PlanarCoeffs,
    PressureFamily,
    WaveIndex,
)
from .errors import HypothesisViolated, InvalidCase, NonConvergence, ZeroMode
from .fields import PlanarField, ScalarField, pressure_field
from .modes import enumerate_spectrum, mode_sequence

# Sample-grid shape for pointwise residual checks: periodic directions do
# not need endpoint duplication, the wall-normal direction must include
# the walls themselves.
PDE_GRID = (16, 16, 96)

_GRID_CACHE: dict[tuple[int, int, int], tuple[np.ndarray, ...]] = {}


def _sample_grid(shape: tuple[int, int, int] = PDE_GRID):
    if shape not in _GRID_CACHE:
        nx, ny, nz = shape
        xs = np.linspace(0.0, 2.0 * math.pi, nx, endpoint=False)
        ys = np.linspace(0.0, 2.0 * math.pi, ny, endpoint=False)
        zs = np.linspace(-1.0, 1.0, nz)
        _GRID_CACHE[shape] = np.meshgrid(xs, ys, zs, indexing="ij")
    return _GRID_CACHE[shape]


# ---------------------------------------------------------------------------
# pointwise checks and exact integrals on a single mode
# ---------------------------------------------------------------------------

def inner_product(a: EigenMode, b: EigenMode) -> float:
    """Velocity L2 inner product over the whole channel."""
    return PlanarField.from_mode(a).inner(PlanarField.from_mode(b))


def pde_residual(mode: EigenMode) -> float:
    """Max-norm of  -lap(u) + grad(q) - lambda*u  on the sample grid."""
    velocity = PlanarField.from_mode(mode)
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


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def _assemble_fd_pencil(m: int, n: int, friction: Friction, grid_n: int):
    """Second-order staggered discretization of the per-wavenumber system.

    Unknowns: U, V, W at the grid_n+1 nodes of z in [-1,1], Q at the
    grid_n cell midpoints.  Momentum rows carry the identity on the
    right-hand side; wall rows, divergence rows, and the zero-wavenumber
    pressure gauge are pure constraints (zero rows of B).  Each stencil
    band is laid down as (row, column, value) index arrays and the whole
    matrix is converted to CSC once, so assembly costs a few vector
    operations rather than one Python step per nonzero.
    """
    import scipy.sparse

    size = 4 * grid_n + 3
    h = 2.0 / grid_n
    mu2 = float(m * m + n * n)
    b_diag = np.zeros(size)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []

    def band(row: np.ndarray, col: np.ndarray, value: complex) -> None:
        rows.append(row)
        cols.append(col)
        vals.append(np.full(row.shape, value, dtype=complex))

    nodes = np.arange(grid_n + 1)
    u_at = nodes
    v_at = (grid_n + 1) + nodes
    w_at = 2 * (grid_n + 1) + nodes
    q_at = 3 * (grid_n + 1) + nodes[:-1]

    inv_h2 = 1.0 / (h * h)
    for at, wavenumber in ((u_at, 1j * m), (v_at, 1j * n), (w_at, None)):
        row = at[1:-1]
        band(row, row - 1, -inv_h2)
        band(row, row, 2.0 * inv_h2 + mu2)
        band(row, row + 1, -inv_h2)
        if wavenumber is None:
            band(row, q_at[1:], 1.0 / h)
            band(row, q_at[:-1], -1.0 / h)
        elif wavenumber != 0:
            band(row, q_at[:-1], 0.5 * wavenumber)
            band(row, q_at[1:], 0.5 * wavenumber)
        b_diag[row] = 1.0

    # wall rows, lower wall first
    for at in (u_at, v_at):
        ends = at[[0, grid_n]]
        if friction.is_dirichlet:
            band(ends, ends, 1.0)
        else:
            beta = 0.0 if friction.is_navier else friction.beta
            # -U'(-1) + beta U(-1) = 0 and U'(1) + beta U(1) = 0, one-sided
            band(ends, ends, 3.0 / (2.0 * h) + beta)
            band(ends, at[[1, grid_n - 1]], -4.0 / (2.0 * h))
            band(ends, at[[2, grid_n - 2]], 1.0 / (2.0 * h))
    ends = w_at[[0, grid_n]]
    band(ends, ends, 1.0)

    # divergence rows, one per cell
    if m != 0:
        band(q_at, u_at[:-1], 0.5j * m)
        band(q_at, u_at[1:], 0.5j * m)
    if n != 0:
        band(q_at, v_at[:-1], 0.5j * n)
        band(q_at, v_at[1:], 0.5j * n)
    band(q_at, w_at[:-1], -1.0 / h)
    band(q_at, w_at[1:], 1.0 / h)

    rows_all = np.concatenate(rows)
    cols_all = np.concatenate(cols)
    vals_all = np.concatenate(vals)
    if mu2 == 0.0:
        # the pressure enters only through its gradient; clear the last
        # divergence row and pin one pressure value there instead
        gauge = q_at[-1]
        keep = rows_all != gauge
        rows_all = np.append(rows_all[keep], gauge)
        cols_all = np.append(cols_all[keep], gauge)
        vals_all = np.append(vals_all[keep], 1.0 + 0j)

    a = scipy.sparse.coo_matrix(
        (vals_all, (rows_all, cols_all)), shape=(size, size)
    ).tocsc()
    b = scipy.sparse.diags(b_diag).tocsc()
    return a, b


def _filter_real(raw: np.ndarray, count: int) -> list[float]:
    finite = raw[np.isfinite(raw)]
    real = finite[np.abs(finite.imag) <= 1e-6 * np.maximum(1.0, np.abs(finite.real))]
    values = sorted(float(v) for v in real.real if v > -1e-3)
    return values[:count]


def fd_oracle_eigs(
    m: int,
    n: int,
    friction: Friction,
    grid_n: int,
    count: int = 10,
    method: str = "auto",
) -> list[float]:
    """Lowest real eigenvalues of the discretized per-wavenumber pencil.

    ``method`` selects the linear-algebra route: "sparse" (and "auto", at
    every grid size) runs shift-invert Arnoldi around sigma = -1 from a
    fixed seeded start vector, so reruns are bitwise identical; "dense"
    runs the QZ factorization of the full pencil and is kept as an
    independent cross-check of the sparse route.  The pencil is built from
    index arrays, so the sparse route's cost is the shift-invert
    factorization and Arnoldi iteration, which run in compiled code.
    """
    import scipy.linalg
    import scipy.sparse.linalg

    if grid_n < 100:
        raise ValueError(f"oracle grid must have at least 100 intervals, got {grid_n}")
    if method not in ("auto", "dense", "sparse"):
        raise ValueError(f"unknown oracle method {method!r}")

    a, b = _assemble_fd_pencil(m, n, friction, grid_n)
    if method == "dense":
        try:
            raw = scipy.linalg.eigvals(a.toarray(), b.toarray())
        except (scipy.linalg.LinAlgError, ValueError) as exc:
            raise NonConvergence(f"dense oracle solve failed: {exc}") from exc
    else:
        # a seeded start vector instead of ARPACK's random one, so that
        # reruns are bitwise identical
        start = np.random.default_rng(0).standard_normal(a.shape[0])
        try:
            raw = scipy.sparse.linalg.eigs(
                a,
                k=count + 8,
                M=b,
                sigma=-1.0,
                which="LM",
                v0=start.astype(complex),
                return_eigenvectors=False,
            )
        except (
            scipy.sparse.linalg.ArpackNoConvergence,
            scipy.sparse.linalg.ArpackError,
            RuntimeError,
        ) as exc:
            raise NonConvergence(f"shift-invert oracle solve failed: {exc}") from exc
    values = _filter_real(np.asarray(raw), count)
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


def mode_rows(mode: EigenMode, pde_tol: float = 1e-8, wall_tol: float = 1e-10) -> list[dict]:
    """The standard residual battery for one built mode."""
    label = (
        f"{mode.index.m},{mode.index.n},{mode.index.p},{mode.index.family.value}"
    )
    friction = mode.friction
    return [
        report_row("pde_residual", label, friction, pde_residual(mode), pde_tol),
        report_row("boundary_residual", label, friction, boundary_residual(mode), wall_tol),
        report_row("divergence_residual", label, friction, divergence_residual(mode), wall_tol),
        report_row(
            "norm",
            label,
            friction,
            abs(inner_product(mode, mode) - 1.0),
            1e-8,
        ),
    ]


def suite_modes(friction: Friction, max_index: int = 15, seed: int = 0) -> list[dict]:
    """Residuals, Gram matrix, strain identity, and the Poincare bound.

    `seed` drives the random linear combinations used as strain/Poincare
    sample fields (single modes alone would not exercise cross terms).
    """
    modes = mode_sequence(friction, max_index)
    rows: list[dict] = []
    for mode in modes:
        rows.extend(mode_rows(mode))

    fields = [PlanarField.from_mode(mode) for mode in modes]
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
        if k < 3:
            mode = modes[dissipative[k]]
            label = f"{mode.index.m},{mode.index.n},{mode.index.p},{mode.index.family.value}"
        else:
            label = f"combo-{k - 3}"
        rows.append(report_row("strain_identity", label, friction, gap, 1e-8))

    rows.extend(poincare_check(friction, samples))
    return rows


# The staple cross-check indices: one per planar-index shape and family.
ORACLE_SAMPLES: tuple[tuple[int, int], ...] = ((0, 0), (1, 0), (1, 1), (2, 1), (0, 2))


def _analytic_union(m: int, n: int, friction: Friction, count: int) -> list[float]:
    """Lowest analytic eigenvalues of the same per-wavenumber system."""
    from .eigensolver import solve_details
    from .errors import InvalidCase, InvalidIndex

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


def thread_cap() -> int:
    """Worker cap for suite parallelism, from the SLIPCHAN_THREADS env var.

    Without it, the cap is the number of cores this process may run on
    (its affinity mask where the platform has one), at most 4.
    """
    raw = os.environ.get("SLIPCHAN_THREADS", "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError as exc:
            raise InvalidCase(
                f"SLIPCHAN_THREADS must be an integer, got {raw!r}"
            ) from exc
    if hasattr(os, "sched_getaffinity"):
        return min(4, len(os.sched_getaffinity(0)))
    return min(4, os.cpu_count() or 1)


def suite_oracle(
    friction: Friction,
    grid_n: int = 1000,
    count: int = 3,
    tolerance: float = 4e-3,
    samples: Iterable[tuple[int, int]] = ORACLE_SAMPLES,
) -> list[dict]:
    """Compare oracle spectra against the analytic ones, per wavenumber.

    Sample wavenumbers are independent, so they are solved on a small
    thread pool (the heavy lifting is in compiled linear algebra); the
    row order always follows the sample order.
    """
    sample_list = list(samples)

    def one(mn: tuple[int, int]) -> dict:
        m, n = mn
        reference = _analytic_union(m, n, friction, count)
        computed = fd_oracle_eigs(m, n, friction, grid_n, count=count)
        delta = max(abs(c - r) for c, r in zip(computed, reference))
        return report_row("fd_oracle", f"{m},{n}", friction, delta, tolerance)

    workers = min(thread_cap(), max(1, len(sample_list)))
    if workers > 1:
        # import scipy here, before the pool threads race to import it
        import scipy.sparse.linalg  # noqa: F401

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(one, sample_list))
    return [one(mn) for mn in sample_list]


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
    from .helmholtz import convect, leray_project, transport_tensor, triple_product
    from .modes import build_mode

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
    two_slot = {
        "ab": PlanarCoeffs(a=1.0, b=1.0),
        "ad": PlanarCoeffs(a=1.0, d=1.0),
        "bd": PlanarCoeffs(b=1.0, d=1.0),
    }
    sweep_indices = [
        WaveIndex(m, n, p)
        for m in range(0, max_index + 1)
        for n in range(1, max_index + 1)
        for p in range(p_base, p_base + 2)
    ]
    for name, pick in two_slot.items():
        family_modes = []
        for index in sweep_indices:
            try:
                mode = build_mode(index, friction, pick)
            except ZeroMode:
                continue  # the pick has no weight on this index's slots
            if not PlanarField.from_mode(mode).component("w").is_zero():
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
