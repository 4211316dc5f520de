"""Residual checks, spectral and finite-difference oracles, Poincare
structure, suites."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slipchan.verify as verify
from slipchan.core import (
    EigenMode,
    Friction,
    PlanarCoeffs,
    PressureFamily,
    WaveIndex,
    ZProfile,
)
from slipchan.eigensolver import solve_details
from slipchan.errors import HypothesisViolated, InvalidCase, NonConvergence
from slipchan.fields import PlanarField, ScalarField
from slipchan.modes import build_mode, mode_sequence
from slipchan.verify import (
    ORACLE_SAMPLES,
    _analytic_union,
    _filter_real,
    boundary_residual,
    dissipation_quotient,
    divergence_residual,
    _mode_rows,
    pde_residual,
    poincare_constant,
    report_row,
    strain_identity,
    suite_helmholtz,
    suite_modes,
    suite_oracle,
)

import fd_reference
from fd_reference import _block_eigs, _coupled_block, fd_oracle_eigs

B1 = Friction.finite(1.0)
B10 = Friction.finite(10.0)
NAVIER = Friction.navier()
DIRICHLET = Friction.dirichlet()
NONCONST = PressureFamily.NONCONSTANT

GROUND = 0.7401738843949676  # smallest eigenvalue at beta = 1

ORACLE_FRICTIONS = [NAVIER, DIRICHLET, Friction.finite(1e-3), Friction.finite(1.3),
                    Friction.finite(100.0)]


def sample_modes():
    return [
        build_mode(WaveIndex(0, 0, 0), B1, PlanarCoeffs(d=1)),
        build_mode(WaveIndex(1, 0, 0), B1, PlanarCoeffs(a=1)),
        build_mode(WaveIndex(1, 1, 0, NONCONST), B1, PlanarCoeffs(a=1)),
        build_mode(WaveIndex(1, 1, 1), B10, PlanarCoeffs(b=1)),
        build_mode(WaveIndex(2, 1, 0, NONCONST), DIRICHLET, PlanarCoeffs(c=1)),
        build_mode(WaveIndex(1, 0, 1), NAVIER, PlanarCoeffs(a=1)),
    ]


def zero_mode_shell():
    """A hand-built EigenMode whose velocity is identically zero."""
    return EigenMode(
        index=WaveIndex(0, 0, 0),
        friction=B1,
        eigenvalue=GROUND,
        coeffs=PlanarCoeffs(d=1),
        u_profile=ZProfile.zero(),
        v_profile=ZProfile.zero(),
        w_profile=ZProfile.zero(),
        q_profile=ZProfile.zero(),
        norm=1.0,
    )


# ---------------------------------------------------------------------------
# pointwise residuals
# ---------------------------------------------------------------------------


class TestPdeResidual:
    def test_built_modes_satisfy_the_pde(self):
        for mode in sample_modes():
            assert pde_residual(mode) < 1e-8, mode.index

    def test_perturbed_eigenvalue_is_detected(self):
        mode = build_mode(WaveIndex(1, 0, 0), B1, PlanarCoeffs(a=1))
        wrong = dataclasses.replace(mode, eigenvalue=mode.eigenvalue + 0.1)
        # the defect is 0.1 * u, so it scales with the field's sup norm
        xs = np.linspace(0, 2 * math.pi, 16, endpoint=False)
        zs = np.linspace(-1, 1, 96)
        X, Y, Z = np.meshgrid(xs, xs, zs, indexing="ij")
        field = PlanarField.from_mode(mode)
        sup = max(
            float(np.max(np.abs(field.eval_component(c, X, Y, Z))))
            for c in ("u", "v", "w")
        )
        assert pde_residual(wrong) >= 0.05 * sup

    def test_zero_field_has_zero_residual(self):
        assert pde_residual(zero_mode_shell()) == 0.0


class TestBoundaryResidual:
    def test_built_modes_respect_their_wall_law(self):
        for mode in sample_modes():
            assert boundary_residual(mode) < 1e-10, mode.index

    def test_frictionless_mode_violates_friction_rule(self):
        # a free-slip overtone has nonzero wall trace, so any finite
        # friction coefficient sees a defect of size beta * |u(1)|
        mode = build_mode(WaveIndex(1, 0, 1), NAVIER, PlanarCoeffs(a=1))
        assert boundary_residual(mode) < 1e-10
        assert boundary_residual(dataclasses.replace(mode, friction=B1)) > 1e-2

    def test_constant_mode_is_exactly_frictionless(self):
        mode = build_mode(WaveIndex(0, 0, 0), NAVIER, PlanarCoeffs(d=1))
        assert boundary_residual(mode) == 0.0

    def test_zero_field(self):
        assert boundary_residual(zero_mode_shell()) == 0.0


class TestDivergenceResidual:
    def test_built_modes_are_solenoidal(self):
        for mode in sample_modes():
            assert divergence_residual(mode) < 1e-10, mode.index

    def test_parabolic_vertical_profile(self):
        # w = z^2 - 1 with no planar compensation leaves div = 2z, max 2
        bad = dataclasses.replace(
            zero_mode_shell(), w_profile=ZProfile.poly(2) - ZProfile.const(1)
        )
        assert divergence_residual(bad) == pytest.approx(2.0, abs=1e-14)

    def test_zero_field(self):
        assert divergence_residual(zero_mode_shell()) == 0.0


class TestStrainIdentity:
    def test_single_modes(self):
        for mode in sample_modes()[1:3]:
            strain_sq, grad_sq = strain_identity(PlanarField.from_mode(mode))
            assert strain_sq == pytest.approx(grad_sq, rel=1e-8)

    def test_constant_field_has_no_strain(self):
        mode = build_mode(WaveIndex(0, 0, 0), NAVIER, PlanarCoeffs(d=1))
        strain_sq, grad_sq = strain_identity(PlanarField.from_mode(mode))
        assert strain_sq == 0.0
        assert grad_sq == 0.0

    def test_random_combination(self):
        rng = np.random.default_rng(7)
        modes = mode_sequence(B1, 5)
        combo = PlanarField.zero()
        for w, m in zip(rng.standard_normal(5), modes):
            combo = combo + PlanarField.from_mode(m).scale(float(w))
        strain_sq, grad_sq = strain_identity(combo)
        assert strain_sq == pytest.approx(grad_sq, rel=1e-8)


# ---------------------------------------------------------------------------
# spectral oracle
# ---------------------------------------------------------------------------


class TestSpectralOracle:
    @given(
        m=st.integers(0, 100),
        n_frac=st.floats(0.0, 1.0),
        log_beta=st.one_of(st.floats(-12.0, 15.0), st.just(-math.inf), st.just(math.inf)),
        count=st.integers(1, 20),
    )
    @settings(max_examples=80, deadline=None)
    def test_whole_domain_property(self, m, n_frac, log_beta, count):
        # mu^2 = m^2 + n^2 <= 1e4; beta in [1e-12, 1e15], frictionless or
        # no-slip; the union holds both pressure families
        n = math.isqrt(int(n_frac * (10**4 - m * m)))
        if log_beta == -math.inf:
            friction = NAVIER
        elif log_beta == math.inf:
            friction = DIRICHLET
        else:
            friction = Friction.finite(min(max(10.0**log_beta, 1e-12), 1e15))
        got = verify.fd_oracle_eigs(m, n, friction, count=count)
        ref = _analytic_union(m, n, friction, count)
        assert len(got) == len(ref) == count
        for g, r in zip(got, ref):
            assert abs(g - r) <= 1e-9 * max(1.0, abs(r)), (m, n, friction.label(), g, r)

    @pytest.mark.parametrize("friction", ORACLE_FRICTIONS, ids=lambda f: f.label())
    def test_matches_fd_within_its_own_error(self, friction):
        # Richardson: the second-order FD error at grid 2000 is a third of
        # the change from grid 1000; 1e-9 absolute covers the FD solves'
        # own rounding where that change vanishes (the frictionless ground
        # value 0)
        for m, n in ORACLE_SAMPLES + ((3, 0),):
            spectral = verify.fd_oracle_eigs(m, n, friction, count=3)
            coarse = fd_oracle_eigs(m, n, friction, 1000, count=3)
            fine = fd_oracle_eigs(m, n, friction, 2000, count=3)
            for s, c, f in zip(spectral, coarse, fine):
                assert abs(s - f) <= 1.05 * abs(c - f) / 3.0 + 1e-9, (m, n, s, c, f)

    def test_reruns_are_identical(self):
        for m, n in ((0, 0), (2, 1), (30, 40)):
            first = verify.fd_oracle_eigs(m, n, B1, count=5)
            assert verify.fd_oracle_eigs(m, n, B1, count=5) == first

    def test_count_past_the_top_rung_is_nonconvergence(self):
        # 96 Chebyshev points cannot settle 60 values of one wavenumber
        assert len(verify.fd_oracle_eigs(1, 1, B1, count=40)) == 40
        with pytest.raises(NonConvergence, match="up to 96 Chebyshev points"):
            verify.fd_oracle_eigs(1, 1, B1, count=60)

    def test_unsettled_ladder_is_nonconvergence(self, monkeypatch):
        # rungs of 8, 10 and 12 points still differ by 1e-5 at (1, 1)
        monkeypatch.setattr(verify, "ORACLE_LADDER", (8, 10, 12))
        with pytest.raises(NonConvergence, match="did not settle"):
            verify.fd_oracle_eigs(1, 1, B1, count=3)

    def test_zero_count(self):
        assert verify.fd_oracle_eigs(1, 1, B1, count=0) == []

    @pytest.mark.parametrize("count", [-1, 1.5, 3.0, True, "3", None], ids=repr)
    def test_count_must_be_a_non_negative_integer(self, count):
        with pytest.raises(InvalidCase, match="oracle count must be"):
            verify.fd_oracle_eigs(1, 1, B1, count=count)

    @pytest.mark.parametrize("m", [1.5, 1.0, True, "1", None, 10**200], ids=repr)
    def test_wavenumbers_must_be_integers_within_float_range(self, m):
        with pytest.raises(InvalidCase, match="oracle wavenumber"):
            verify.fd_oracle_eigs(m, 0, B1, count=2)


# ---------------------------------------------------------------------------
# finite-difference reference (tests/fd_reference.py)
# ---------------------------------------------------------------------------


class TestOracle:
    def test_ground_state_against_analytic_value(self):
        got = fd_oracle_eigs(0, 0, B1, 600, count=2)
        # the zero wavenumber carries two identical scalar problems
        for v in got:
            assert abs(v - GROUND) < 1e-3

    def test_near_frictionless_ground_state_vanishes(self):
        got = fd_oracle_eigs(0, 0, Friction.finite(1e-8), 300, count=1)
        assert abs(got[0]) < 1e-6

    def test_dense_and_sparse_routes_agree(self):
        dense = dense_pencil_eigs(1, 1, B1, 150, count=3)
        sparse = fd_oracle_eigs(1, 1, B1, 150, count=3)
        assert max(abs(a - b) for a, b in zip(dense, sparse)) < 1e-8

    def test_sparse_route_is_deterministic(self):
        for m, n in ((0, 0), (2, 1)):
            first = fd_oracle_eigs(m, n, B1, 400, count=3)
            second = fd_oracle_eigs(m, n, B1, 400, count=3)
            assert np.array_equal(first, second)

    def test_second_order_convergence(self):
        ref = _analytic_union(1, 1, B10, 3)
        errs = []
        for grid_n in (300, 600):
            got = fd_oracle_eigs(1, 1, B10, grid_n, count=3)
            errs.append(max(abs(a - b) for a, b in zip(got, ref)))
        assert 3.2 < errs[0] / errs[1] < 4.8  # halving the step quarters the error

    def test_count_beyond_one_scalar_block(self):
        assert fd_oracle_eigs(1, 1, B1, 100, count=0) == []
        # 99 interior nodes per scalar block: U and V give 198 values
        sparse = fd_oracle_eigs(0, 0, B1, 100, count=120)
        dense = dense_pencil_eigs(0, 0, B1, 100, count=120)
        assert len(sparse) == 120
        assert max(abs(a - b) / b for a, b in zip(sparse, dense)) < 1e-9

    def test_grid_size_guard(self):
        with pytest.raises(InvalidCase):
            fd_oracle_eigs(0, 0, B1, 50)

    @pytest.mark.parametrize("grid_n", [100.5, 100.0, True, "100", None], ids=repr)
    def test_grid_must_be_an_integer(self, grid_n):
        with pytest.raises(InvalidCase, match="oracle grid must be an integer"):
            fd_oracle_eigs(1, 1, B1, grid_n)

    @pytest.mark.parametrize("count", [-1, 1.5, 3.0, True, "3", None], ids=repr)
    def test_count_must_be_a_non_negative_integer(self, count):
        with pytest.raises(InvalidCase, match="oracle count must be"):
            fd_oracle_eigs(1, 1, B1, 100, count=count)

    def test_nonconvergence_is_a_package_error(self):
        from slipchan.errors import SlipchanError

        assert issubclass(NonConvergence, SlipchanError)

    def test_complex_values_leave_the_result_short(self, monkeypatch):
        def pair(m, n, friction, grid_n, count):
            return np.array([1.0, 2.0]), np.array([3.0 + 1.0j, 3.0 - 1.0j])

        monkeypatch.setattr(fd_reference, "_block_eigs", pair)
        with pytest.raises(NonConvergence, match="only 2 real eigenvalues of 3"):
            fd_oracle_eigs(1, 1, B1, 100, count=3)

    def test_oversized_count_is_nonconvergence(self):
        # the 302-unknown coupled block holds far fewer finite eigenvalues
        with pytest.raises(NonConvergence):
            fd_oracle_eigs(1, 1, B1, 100, count=295)


def dense_pencil_eigs(m, n, friction, grid_n, count):
    """QZ of the full complex pencil, which never splits the blocks: the
    dense cross-check of the decoupled route."""
    import scipy.linalg

    a, b = array_pencil(m, n, friction, grid_n)
    return _filter_real(scipy.linalg.eigvals(a.toarray(), b.toarray()), count)


def array_pencil(m, n, friction, grid_n):
    """The full complex pencil of wavenumber (m, n) on the staggered grid.

    Unknowns: U, V and W at the grid_n+1 nodes, Q at the grid_n cell
    midpoints.  Each stencil band is laid down as (row, column, value)
    index arrays and converted to CSC once; `lil_pencil` builds the same
    matrix one nonzero at a time.
    """
    import scipy.sparse

    couplings = [1j * m, 1j * n]  # gradient and divergence weight of U, V
    mu2 = float(m * m + n * n)
    stride = grid_n + 1
    size = 4 * stride - 1
    h = 2.0 / grid_n
    b_diag = np.zeros(size)
    rows, cols, vals = [], [], []

    def band(row, col, value):
        rows.append(row)
        cols.append(col)
        vals.append(np.full(row.shape, value, dtype=complex))

    nodes = np.arange(stride)
    tangential = [nodes, stride + nodes]
    w_at = 2 * stride + nodes
    q_at = 3 * stride + nodes[:-1]

    inv_h2 = 1.0 / (h * h)
    for at, gradient in zip(tangential + [w_at], couplings + [None]):
        row = at[1:-1]
        band(row, row - 1, -inv_h2)
        band(row, row, 2.0 * inv_h2 + mu2)
        band(row, row + 1, -inv_h2)
        if gradient is None:
            band(row, q_at[1:], 1.0 / h)
            band(row, q_at[:-1], -1.0 / h)
        elif gradient != 0:
            band(row, q_at[:-1], 0.5 * gradient)
            band(row, q_at[1:], 0.5 * gradient)
        b_diag[row] = 1.0

    for at in tangential:
        ends = at[[0, grid_n]]
        if friction.is_dirichlet:
            band(ends, ends, 1.0)
        else:
            band(ends, ends, 3.0 / (2.0 * h) + friction.beta)
            band(ends, at[[1, grid_n - 1]], -4.0 / (2.0 * h))
            band(ends, at[[2, grid_n - 2]], 1.0 / (2.0 * h))
    ends = w_at[[0, grid_n]]
    band(ends, ends, 1.0)

    for at, divergence in zip(tangential, couplings):
        if divergence != 0:
            band(q_at, at[:-1], 0.5 * divergence)
            band(q_at, at[1:], 0.5 * divergence)
    band(q_at, w_at[:-1], -1.0 / h)
    band(q_at, w_at[1:], 1.0 / h)

    rows_all, cols_all, vals_all = map(np.concatenate, (rows, cols, vals))
    if mu2 == 0.0:
        # the pressure enters only through its gradient; clear the last
        # divergence row and pin one pressure value there instead
        gauge = q_at[-1]
        keep = rows_all != gauge
        rows_all = np.append(rows_all[keep], gauge)
        cols_all = np.append(cols_all[keep], gauge)
        vals_all = np.append(vals_all[keep], 1.0)

    a = scipy.sparse.coo_matrix(
        (vals_all, (rows_all, cols_all)), shape=(size, size)
    ).tocsc()
    return a, scipy.sparse.diags(b_diag).tocsc()


def lil_pencil(m, n, friction, grid_n):
    """Reference assembly of the oracle pencil, one scalar lil_matrix
    assignment per nonzero (the construction the array-built pencil must
    reproduce entry for entry)."""
    import scipy.sparse

    size = 4 * grid_n + 3
    h = 2.0 / grid_n
    mu2 = float(m * m + n * n)
    a = scipy.sparse.lil_matrix((size, size), dtype=complex)
    b_diag = np.zeros(size)

    def u_at(i): return i
    def v_at(i): return (grid_n + 1) + i
    def w_at(i): return 2 * (grid_n + 1) + i
    def q_at(j): return 3 * (grid_n + 1) + j

    inv_h2 = 1.0 / (h * h)
    for i in range(1, grid_n):
        for row, wavenumber in ((u_at(i), 1j * m), (v_at(i), 1j * n)):
            a[row, row - 1] = -inv_h2
            a[row, row] = 2.0 * inv_h2 + mu2
            a[row, row + 1] = -inv_h2
            if wavenumber != 0:
                a[row, q_at(i - 1)] = 0.5 * wavenumber
                a[row, q_at(i)] = 0.5 * wavenumber
            b_diag[row] = 1.0
        row = w_at(i)
        a[row, row - 1] = -inv_h2
        a[row, row] = 2.0 * inv_h2 + mu2
        a[row, row + 1] = -inv_h2
        a[row, q_at(i)] = 1.0 / h
        a[row, q_at(i - 1)] = -1.0 / h
        b_diag[row] = 1.0

    for at in (u_at, v_at):
        if friction.is_dirichlet:
            a[at(0), at(0)] = 1.0
            a[at(grid_n), at(grid_n)] = 1.0
        else:
            beta = 0.0 if friction.is_navier else friction.beta
            a[at(0), at(0)] += 3.0 / (2.0 * h) + beta
            a[at(0), at(1)] += -4.0 / (2.0 * h)
            a[at(0), at(2)] += 1.0 / (2.0 * h)
            a[at(grid_n), at(grid_n)] += 3.0 / (2.0 * h) + beta
            a[at(grid_n), at(grid_n - 1)] += -4.0 / (2.0 * h)
            a[at(grid_n), at(grid_n - 2)] += 1.0 / (2.0 * h)
    a[w_at(0), w_at(0)] = 1.0
    a[w_at(grid_n), w_at(grid_n)] = 1.0

    for j in range(grid_n):
        row = q_at(j)
        if m != 0:
            a[row, u_at(j)] = 0.5j * m
            a[row, u_at(j + 1)] = 0.5j * m
        if n != 0:
            a[row, v_at(j)] = 0.5j * n
            a[row, v_at(j + 1)] = 0.5j * n
        a[row, w_at(j)] = -1.0 / h
        a[row, w_at(j + 1)] = 1.0 / h
    if mu2 == 0.0:
        row = q_at(grid_n - 1)
        a[row, :] = 0.0
        a[row, q_at(grid_n - 1)] = 1.0

    b = scipy.sparse.diags(b_diag).tocsc()
    return a.tocsc(), b


def assert_same_csc(got, ref, label):
    assert got.format == ref.format == "csc"
    assert got.shape == ref.shape
    assert got.dtype == ref.dtype
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, part), getattr(ref, part)), (label, part)


class TestPencil:
    @pytest.mark.parametrize(
        "friction",
        [NAVIER, DIRICHLET, Friction.finite(1e-3), Friction.finite(1.3),
         Friction.finite(100.0)],
        ids=lambda f: f.label(),
    )
    @pytest.mark.parametrize("grid_n", [100, 2000])
    def test_equals_scalar_reference(self, friction, grid_n):
        # (0, 0) carries the pressure-gauge row
        for m, n in ORACLE_SAMPLES + ((3, 0), (0, 1)):
            a, b = array_pencil(m, n, friction, grid_n)
            ref_a, ref_b = lil_pencil(m, n, friction, grid_n)
            assert_same_csc(a, ref_a, (m, n))
            assert_same_csc(b, ref_b, (m, n))


def lil_coupled_block(m, n, friction, grid_n):
    """Reference assembly of the real coupled block (unknowns i*U_par and
    W at the nodes, Q at the midpoints), one lil_matrix assignment per
    nonzero."""
    import scipy.sparse

    size = 3 * grid_n + 2
    h = 2.0 / grid_n
    mu2 = float(m * m + n * n)
    mu = math.sqrt(mu2)
    a = scipy.sparse.lil_matrix((size, size))
    b_diag = np.zeros(size)

    def x_at(i): return i
    def w_at(i): return (grid_n + 1) + i
    def q_at(j): return 2 * (grid_n + 1) + j

    inv_h2 = 1.0 / (h * h)
    for i in range(1, grid_n):
        for row in (x_at(i), w_at(i)):
            a[row, row - 1] = -inv_h2
            a[row, row] = 2.0 * inv_h2 + mu2
            a[row, row + 1] = -inv_h2
            b_diag[row] = 1.0
        a[x_at(i), q_at(i - 1)] = -0.5 * mu
        a[x_at(i), q_at(i)] = -0.5 * mu
        a[w_at(i), q_at(i)] = 1.0 / h
        a[w_at(i), q_at(i - 1)] = -1.0 / h

    if friction.is_dirichlet:
        a[x_at(0), x_at(0)] = 1.0
        a[x_at(grid_n), x_at(grid_n)] = 1.0
    else:
        beta = 0.0 if friction.is_navier else friction.beta
        for wall, inward in ((0, 1), (grid_n, -1)):
            a[x_at(wall), x_at(wall)] = 3.0 / (2.0 * h) + beta
            a[x_at(wall), x_at(wall + inward)] = -4.0 / (2.0 * h)
            a[x_at(wall), x_at(wall + 2 * inward)] = 1.0 / (2.0 * h)
    a[w_at(0), w_at(0)] = 1.0
    a[w_at(grid_n), w_at(grid_n)] = 1.0

    for j in range(grid_n):
        row = q_at(j)
        a[row, x_at(j)] = 0.5 * mu
        a[row, x_at(j + 1)] = 0.5 * mu
        a[row, w_at(j)] = -1.0 / h
        a[row, w_at(j + 1)] = 1.0 / h

    return a.tocsc(), scipy.sparse.diags(b_diag).tocsc()


class TestCoupledBlock:
    @pytest.mark.parametrize(
        "friction",
        [NAVIER, DIRICHLET] + [Friction.finite(b) for b in (1e-12, 1e-3, 1.3, 100.0, 1e8)],
        ids=lambda f: f.label(),
    )
    @pytest.mark.parametrize("grid_n", [100, 2000])
    def test_equals_scalar_reference(self, friction, grid_n):
        for m, n in ORACLE_SAMPLES[1:] + ((3, 0), (0, 1), (5, 7)):
            a, b = _coupled_block(m, n, friction, grid_n)
            ref_a, ref_b = lil_coupled_block(m, n, friction, grid_n)
            assert_same_csc(a, ref_a, (m, n))
            assert_same_csc(b, ref_b, (m, n))


def complex_pencil_eigs(m, n, friction, grid_n, count=10):
    """The oracle's former sparse route: complex shift-invert Arnoldi
    around -1 on the full pencil (equal entry for entry to `lil_pencil`),
    from the seeded start vector."""
    import scipy.sparse.linalg

    a, b = array_pencil(m, n, friction, grid_n)
    start = np.random.default_rng(0).standard_normal(a.shape[0]).astype(complex)
    raw = scipy.sparse.linalg.eigs(
        a, k=count + 8, M=b, sigma=-1.0, which="LM", v0=start,
        return_eigenvectors=False,
    )
    return _filter_real(raw, count)


def mp_scalar_block(mu2, friction, grid_n):
    """Diagonal and off-diagonal products of the pressure-free block in
    mpmath arithmetic.  The one-sided wall row (3 U_0 - 4 U_1 + U_2)/(2h)
    + beta U_0 = 0 is solved for U_0 and substituted into the first
    interior row (and its mirror image at the top wall); beta = inf is
    the no-slip row U_0 = 0."""
    h = mpmath.mpf(2) / grid_n
    wall = 1 / (3 + 2 * h * mpmath.mpf(friction.beta))  # U_0 = wall (4 U_1 - U_2)
    diagonal = [2 / h**2 + mu2] * (grid_n - 1)
    diagonal[0] = diagonal[-1] = 2 / h**2 + mu2 - 4 * wall / h**2
    products = [1 / h**4] * (grid_n - 2)
    products[0] = products[-1] = (1 - wall) / h**4
    return diagonal, products


def sturm_count(diagonal, products, x):
    """Eigenvalues below x of a tridiagonal matrix with the given diagonal
    and off-diagonal products: the negative pivots of its LDL^T form."""
    below = 0
    pivot = diagonal[0] - x
    for k in range(len(diagonal)):
        if k:
            pivot = diagonal[k] - x - products[k - 1] / pivot
        if pivot == 0:
            pivot = mpmath.mpf("1e-60")
        below += pivot < 0
    return below


class TestDecoupledOracle:
    @pytest.mark.parametrize("friction", ORACLE_FRICTIONS, ids=lambda f: f.label())
    @pytest.mark.parametrize("grid_n", [100, 2000])
    def test_equals_complex_pencil_route(self, friction, grid_n):
        self.check_against_complex_pencil(friction, grid_n, 10)

    @pytest.mark.parametrize("friction", ORACLE_FRICTIONS, ids=lambda f: f.label())
    @pytest.mark.parametrize("grid_n", [100, 2000])
    def test_three_values_equal_complex_pencil_route(self, friction, grid_n):
        # the coupled block is asked for exactly the values requested,
        # the reference for eight more
        self.check_against_complex_pencil(friction, grid_n, 3)

    @staticmethod
    def check_against_complex_pencil(friction, grid_n, count):
        for m, n in ORACLE_SAMPLES + ((3, 0), (0, 1)):
            got = fd_oracle_eigs(m, n, friction, grid_n, count=count)
            ref = complex_pencil_eigs(m, n, friction, grid_n, count=count)
            assert len(got) == len(ref) == count
            for g, r in zip(got, ref):
                assert abs(g - r) <= 1e-9 * max(1.0, abs(r)), (m, n, g, r)

    @pytest.mark.parametrize("friction", ORACLE_FRICTIONS, ids=lambda f: f.label())
    @pytest.mark.parametrize("m, n", [(0, 0), (1, 0)])
    def test_scalar_block_against_sturm_count(self, friction, m, n):
        # 40-digit Sturm counts bracket each exact block eigenvalue: the
        # k-th lies within the tolerance of the k-th computed value iff k
        # of them lie below the bracket and k+1 below its top
        grid_n = 2000
        scalar, _ = _block_eigs(m, n, friction, grid_n, 3)
        if (m, n) == (0, 0):
            assert np.array_equal(scalar[0::2], scalar[1::2])  # U and V
            scalar = scalar[0::2]
        with mpmath.workdps(40):
            diagonal, products = mp_scalar_block(m * m + n * n, friction, grid_n)
            for k, value in enumerate(scalar):
                tol = 1e-9 * max(1.0, abs(value))
                assert sturm_count(diagonal, products, mpmath.mpf(value) - tol) == k
                assert sturm_count(diagonal, products, mpmath.mpf(value) + tol) == k + 1

    @pytest.mark.parametrize("m, n", [(1, 1), (2, 1)])
    def test_each_block_carries_its_family(self, m, n):
        # the scalar block is the constant-pressure family and the coupled
        # block the pressure-carrying one: a swapped or mis-rotated block
        # misses its own family's roots even where the union looks right
        friction = Friction.finite(1.3)
        blocks = {grid_n: _block_eigs(m, n, friction, grid_n, 3) for grid_n in (1000, 2000)}
        for slot, family in enumerate((PressureFamily.CONSTANT, NONCONST)):
            exact = [
                solve_details(WaveIndex(m, n, p, family), friction).value for p in range(3)
            ]
            errs = []
            for grid_n in (1000, 2000):
                got = _filter_real(blocks[grid_n][slot], 3)
                errs.append(max(abs(g - e) for g, e in zip(got, exact)))
            assert errs[1] < 4e-3, family
            assert 3.2 < errs[0] / errs[1] < 4.8, family


# ---------------------------------------------------------------------------
# Poincare structure
# ---------------------------------------------------------------------------


class TestPoincare:
    def test_constants(self):
        assert poincare_constant(B1) == pytest.approx(1 / GROUND, rel=1e-12)
        assert poincare_constant(DIRICHLET) == pytest.approx(
            4 / math.pi**2, rel=1e-12
        )
        # free wall: the rigid motions are excluded, bottom eigenvalue is 1
        assert poincare_constant(NAVIER) == pytest.approx(1.0, rel=1e-12)

    def test_ground_mode_attains_the_constant(self):
        mode = build_mode(WaveIndex(0, 0, 0), B1, PlanarCoeffs(d=1))
        q = dissipation_quotient(PlanarField.from_mode(mode), B1)
        assert q == pytest.approx(1 / GROUND, rel=1e-8)

    def test_frictionless_first_nonrigid_mode_attains_one(self):
        mode = build_mode(WaveIndex(1, 0, 0), NAVIER, PlanarCoeffs(a=1))
        q = dissipation_quotient(PlanarField.from_mode(mode), NAVIER)
        assert q == pytest.approx(1.0, rel=1e-8)

    def test_rigid_mode_quotient_is_rejected(self):
        rigid = mode_sequence(NAVIER, 1)[0]
        assert rigid.eigenvalue == 0.0
        with pytest.raises(HypothesisViolated):
            dissipation_quotient(PlanarField.from_mode(rigid), NAVIER)

    def test_bound_holds_for_combinations(self):
        rng = np.random.default_rng(5)
        modes = mode_sequence(B10, 6)
        fields = []
        for _ in range(3):
            combo = PlanarField.zero()
            for w, m in zip(rng.standard_normal(6), modes):
                combo = combo + PlanarField.from_mode(m).scale(float(w))
            fields.append(combo)
        bound = poincare_constant(B10) * (1.0 + 1e-8)
        assert all(dissipation_quotient(field, B10) <= bound for field in fields)


# ---------------------------------------------------------------------------
# completeness (empirical)
# ---------------------------------------------------------------------------


class TestCompleteness:
    def test_projection_error_decreases_and_vanishes_in_span(self):
        modes = mode_sequence(B1, 40)
        fields = [PlanarField.from_mode(m) for m in modes]
        target = (
            fields[0].scale(1.0)
            + fields[1].scale(-0.6)
            + fields[2].scale(0.3)
            + fields[39].scale(1e-3)
        )
        total = target.inner(target)
        errors = []
        captured = 0.0
        for k in (3, 10, 25, 40):
            captured = sum(target.inner(fields[i]) ** 2 for i in range(k))
            errors.append(total - captured)
        assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 1e-6


# ---------------------------------------------------------------------------
# report plumbing and suites
# ---------------------------------------------------------------------------


class TestReportRows:
    def test_row_schema_and_auto_pass(self):
        row = report_row("check", "1,0,0,const", B1, 0.5, 1.0)
        assert row == {
            "check": "check",
            "index": "1,0,0,const",
            "friction": "1",
            "value": 0.5,
            "tolerance": 1.0,
            "pass": True,
        }
        assert report_row("check", "x", B1, 2.0, 1.0)["pass"] is False
        assert report_row("check", "x", B1, 2.0, 1.0, passed=True)["pass"] is True

    def test_mode_rows_battery(self):
        mode = build_mode(WaveIndex(1, 0, 0), B1, PlanarCoeffs(a=1))
        rows = _mode_rows(mode, PlanarField.from_mode(mode))
        assert [r["check"] for r in rows] == [
            "pde_residual",
            "boundary_residual",
            "divergence_residual",
            "norm",
        ]
        assert all(r["pass"] for r in rows)
        assert all(r["index"] == "1,0,0,const" for r in rows)


class TestSuites:
    def test_mode_suite_all_green(self):
        # the free wall's rigid kernel stays in the residual and Gram rows
        # but is not drawn as a strain/Poincare sample
        for friction in (B1, DIRICHLET, NAVIER):
            rows = suite_modes(friction, max_index=8, seed=3)
            assert len(rows) == 4 * 8 + 12, friction
            assert all(r["pass"] for r in rows), [
                r for r in rows if not r["pass"]
            ]

    def test_mode_suite_needs_three_dissipative_samples(self):
        # the free wall's two rigid modes come first and dissipate nothing
        with pytest.raises(InvalidCase, match="leaves 2 modes"):
            suite_modes(NAVIER, max_index=4)
        assert suite_modes(NAVIER, max_index=5)

    def test_mode_suite_covers_expected_checks(self):
        rows = suite_modes(B1, max_index=6, seed=0)
        kinds = {r["check"] for r in rows}
        assert kinds == {
            "pde_residual",
            "boundary_residual",
            "divergence_residual",
            "norm",
            "gram_offdiag",
            "gram_diag",
            "strain_identity",
            "poincare",
        }

    def test_oracle_suite_green(self):
        rows = suite_oracle(B1)
        assert len(rows) == 5
        assert all(r["pass"] for r in rows)
        assert {(r["check"], r["tolerance"]) for r in rows} == {("spectral_oracle", 1e-8)}

    def test_helmholtz_suite_green(self):
        rows = suite_helmholtz(B1, seed=1)
        assert rows
        assert all(r["pass"] for r in rows)

    @pytest.mark.parametrize("friction", [NAVIER, DIRICHLET] + [
        Friction.finite(b) for b in (1e-3, 0.1, 1.3, 9.5, 1e3)], ids=lambda f: f.label())
    def test_antisymmetry_row_catches_a_symmetric_defect(self, friction, monkeypatch):
        # a kernel that adds |T| breaks antisymmetry on the nonzero entries
        # only, so the row must look at a tensor that has some
        def row():
            return next(r for r in suite_helmholtz(friction)
                        if r["check"] == "triple_antisymmetry")

        def symmetric_defect(modes, kernel=verify.transport_tensor):
            tensor = kernel(modes)
            return tensor + np.abs(tensor)

        assert row()["pass"]
        monkeypatch.setattr(verify, "transport_tensor", symmetric_defect)
        mutated = row()
        assert not mutated["pass"]
        assert mutated["value"] > 0.1

    @pytest.mark.parametrize("friction", [NAVIER, DIRICHLET, B1], ids=lambda f: f.label())
    def test_projection_rows_reach_the_zero_wavevector_rule(self, friction, monkeypatch):
        # a projection that forgets to remove the k = 0 harmonic of w leaves
        # flat pairs alone; the pair whose W != 0 must expose it
        def row():
            return next(r for r in suite_helmholtz(friction)
                        if r["check"] == "projection_divergence")

        def zero_rule_dropped(field, project=verify.leray_project):
            w = field.component("w")._harmonics
            kept = ScalarField._of({(0, 0): w[0, 0]} if (0, 0) in w else {})
            return project(field) + PlanarField.from_scalars(ScalarField(), ScalarField(), kept)

        assert row()["pass"]
        monkeypatch.setattr(verify, "leray_project", zero_rule_dropped)
        assert not row()["pass"]


def per_pair_two_slot_rows(friction, max_index):
    """Reference two-slot sweep: one `convect` per ordered pair, each
    tested against every family mode's freshly built field."""
    from slipchan.errors import ZeroMode
    from slipchan.helmholtz import convect

    p_base = 1 if friction.is_dirichlet else 0
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
    rows = []
    for name, pick in two_slot.items():
        family_modes = []
        for index in sweep_indices:
            try:
                mode = build_mode(index, friction, pick)
            except ZeroMode:
                continue
            if not PlanarField.from_mode(mode).component("w").is_zero():
                continue
            family_modes.append(mode)
        worst = 0.0
        for mi in family_modes:
            for mj in family_modes:
                conv = convect(mi, mj)
                if conv.is_zero():
                    continue
                for mk in family_modes:
                    worst = max(worst, abs(conv.inner(PlanarField.from_mode(mk))))
        rows.append(
            report_row(f"two_slot_{name}", f"{len(family_modes)}-modes", friction, worst, 1e-10)
        )
    return rows


class TestTwoSlotSweep:
    @pytest.mark.parametrize(
        "friction", [Friction.finite(1.3), NAVIER, DIRICHLET], ids=lambda f: f.label()
    )
    @pytest.mark.parametrize("max_index", [2, 3])
    def test_rows_equal_per_pair_reference(self, friction, max_index, monkeypatch):
        monkeypatch.setattr(verify, "TWO_SLOT_MAX_INDEX", max_index)
        rows = [
            r for r in suite_helmholtz(friction)
            if r["check"].startswith("two_slot_")
        ]
        assert rows == per_pair_two_slot_rows(friction, max_index)


def inner_product(a, b):
    """Velocity L2 inner product of two modes over the whole channel."""
    return PlanarField.from_mode(a).inner(PlanarField.from_mode(b))


class TestInnerProduct:
    def test_normalized_and_orthogonal(self):
        a = build_mode(WaveIndex(1, 0, 0), B1, PlanarCoeffs(a=1))
        b = build_mode(WaveIndex(1, 0, 0), B1, PlanarCoeffs(b=1))
        assert inner_product(a, a) == pytest.approx(1.0, abs=1e-8)
        assert inner_product(a, b) == pytest.approx(0.0, abs=1e-10)

    def test_families_are_orthogonal_at_equal_index(self):
        c = build_mode(WaveIndex(1, 1, 0), B1, PlanarCoeffs(a=1))
        n = build_mode(WaveIndex(1, 1, 0, NONCONST), B1, PlanarCoeffs(a=1))
        assert abs(inner_product(c, n)) < 1e-10
