"""Residual checks, finite-difference oracle, Poincare structure, suites."""

import dataclasses
import math

import numpy as np
import pytest

from slipchan.core import (
    EigenMode,
    Friction,
    PlanarCoeffs,
    PressureFamily,
    WaveIndex,
    ZProfile,
)
from slipchan.errors import HypothesisViolated, InvalidCase, NonConvergence
from slipchan.fields import PlanarField
from slipchan.modes import build_mode, mode_sequence
from slipchan.verify import (
    boundary_residual,
    dissipation_quotient,
    divergence_residual,
    fd_oracle_eigs,
    inner_product,
    mode_rows,
    pde_residual,
    poincare_check,
    poincare_constant,
    report_row,
    strain_identity,
    suite_helmholtz,
    suite_modes,
    suite_oracle,
    thread_cap,
)

B1 = Friction.finite(1.0)
B10 = Friction.finite(10.0)
NAVIER = Friction.navier()
DIRICHLET = Friction.dirichlet()
NONCONST = PressureFamily.NONCONSTANT

GROUND = 0.7401738843949676  # smallest eigenvalue at beta = 1


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
        assert boundary_residual(mode, B1) > 1e-2

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
# finite-difference oracle
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
        dense = fd_oracle_eigs(1, 1, B1, 150, count=3, method="dense")
        sparse = fd_oracle_eigs(1, 1, B1, 150, count=3, method="sparse")
        assert max(abs(a - b) for a, b in zip(dense, sparse)) < 1e-8

    def test_sparse_route_is_deterministic(self):
        for m, n in ((0, 0), (2, 1)):
            first = fd_oracle_eigs(m, n, B1, 400, count=3, method="sparse")
            second = fd_oracle_eigs(m, n, B1, 400, count=3, method="sparse")
            assert np.array_equal(first, second)

    def test_auto_route_is_sparse_at_every_size(self):
        for grid_n in (100, 150):
            assert fd_oracle_eigs(1, 1, B1, grid_n, count=3) == \
                fd_oracle_eigs(1, 1, B1, grid_n, count=3, method="sparse")

    def test_second_order_convergence(self):
        from slipchan.verify import _analytic_union

        ref = _analytic_union(1, 1, B10, 3)
        errs = []
        for grid_n in (300, 600):
            got = fd_oracle_eigs(1, 1, B10, grid_n, count=3)
            errs.append(max(abs(a - b) for a, b in zip(got, ref)))
        assert 3.2 < errs[0] / errs[1] < 4.8  # halving the step quarters the error

    def test_grid_size_guard(self):
        with pytest.raises(ValueError):
            fd_oracle_eigs(0, 0, B1, 50)

    def test_method_guard(self):
        with pytest.raises(ValueError):
            fd_oracle_eigs(0, 0, B1, 200, method="qz")

    def test_nonconvergence_is_a_package_error(self):
        from slipchan.errors import SlipchanError

        assert issubclass(NonConvergence, SlipchanError)


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
        rows = poincare_check(B10, fields)
        assert len(rows) == 3
        assert all(r["pass"] for r in rows)


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
        assert report_row("check", "x", None, 2.0, 1.0)["pass"] is False
        assert report_row("check", "x", None, 2.0, 1.0, passed=True)["pass"] is True

    def test_mode_rows_battery(self):
        rows = mode_rows(build_mode(WaveIndex(1, 0, 0), B1, PlanarCoeffs(a=1)))
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
        rows = suite_oracle(B1, grid_n=400)
        assert len(rows) == 5
        assert all(r["pass"] for r in rows)

    def test_helmholtz_suite_green(self):
        rows = suite_helmholtz(B1, seed=1)
        assert rows
        assert all(r["pass"] for r in rows)


class TestThreadCap:
    def test_reads_environment(self, monkeypatch):
        monkeypatch.setenv("SLIPCHAN_THREADS", "3")
        assert thread_cap() == 3
        monkeypatch.setenv("SLIPCHAN_THREADS", "0")
        assert thread_cap() == 1

    def test_default_without_environment(self, monkeypatch):
        monkeypatch.delenv("SLIPCHAN_THREADS", raising=False)
        assert 1 <= thread_cap() <= 4

    def test_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("SLIPCHAN_THREADS", "many")
        with pytest.raises(InvalidCase):
            thread_cap()


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
