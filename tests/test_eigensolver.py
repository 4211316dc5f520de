"""Transcendental eigenvalue solver: anchors, brackets, limits, residuals."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slipchan.core import Friction, PressureFamily, WaveIndex
from slipchan import eigensolver
from slipchan.eigensolver import (
    _const_branches,
    _const_root,
    _hybrid_root,
    _solve_branchpair,
    beta_sweep,
    bracket_for,
    eigenvalue,
    s_interval,
    solve_details,
)
from slipchan.errors import (
    InvalidCase,
    InvalidIndex,
    NoRootInBracket,
    NonConvergence,
    SlipchanError,
)

HALF_PI = math.pi / 2

B1 = Friction.finite(1.0)
B10 = Friction.finite(10.0)
NAVIER = Friction.navier()
DIRICHLET = Friction.dirichlet()


def const(m, n, p):
    return WaveIndex(m, n, p, PressureFamily.CONSTANT)


def nonconst(m, n, p):
    return WaveIndex(m, n, p, PressureFamily.NONCONSTANT)


# ---------------------------------------------------------------------------
# frozen high-precision anchors (independently cross-checked against a
# finite-difference discretization of the boundary-value problem)
# ---------------------------------------------------------------------------

CONST_ANCHORS = [
    (const(0, 0, 0), B1, 0.7401738843949676),
    (const(0, 0, 0), B10, 2.0416695089469165),
    (const(0, 0, 0), Friction.finite(0.5), 0.4267632438877306),
    (const(0, 0, 1), B1, 4.115858365694523),
    (const(1, 1, 1), B10, 10.195466887828515),
    (const(0, 1, 0), B1, 1.7401738843949675),
    (const(0, 1, 1), B1, 5.115858365694526),
]

NONCONST_ANCHORS = [
    (nonconst(1, 0, 0), B1, 4.648834803158002),
    (nonconst(1, 1, 0), B10, 7.966518265074386),
    (nonconst(2, 2, 0), B1, 10.869685835921887),
    (nonconst(1, 0, 1), B1, 12.442793643890014),
    (nonconst(1, 0, 0), DIRICHLET, 9.31373985391922),
    (nonconst(1, 1, 0), DIRICHLET, 9.328230829049164),
    (nonconst(4, 0, 0), DIRICHLET, 20.175269829933351),
    (nonconst(1, 0, 1), DIRICHLET, 20.570570840222348),
    (nonconst(2, 1, 0), DIRICHLET, 10.777721626878822),
]


class TestAnchorValues:
    @pytest.mark.parametrize("index,friction,expected", CONST_ANCHORS)
    def test_constant_family(self, index, friction, expected):
        assert eigenvalue(index, friction) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("index,friction,expected", NONCONST_ANCHORS)
    def test_nonconstant_family(self, index, friction, expected):
        assert eigenvalue(index, friction) == pytest.approx(expected, rel=1e-12)

    def test_two_decimal_headline_values(self):
        # smallest eigenvalues quoted to 2 d.p. for each wall condition
        assert round(eigenvalue(const(0, 0, 0), B1), 2) == 0.74
        assert round(eigenvalue(const(0, 0, 0), B10), 2) == 2.04
        assert round(eigenvalue(const(0, 1, 0), B1), 2) == 1.74
        assert round(eigenvalue(nonconst(1, 0, 0), B1), 2) == 4.65
        assert round(eigenvalue(nonconst(1, 1, 0), B10), 2) == 7.97
        assert round(eigenvalue(nonconst(2, 2, 0), B1), 2) == 10.87
        assert round(eigenvalue(nonconst(1, 0, 0), DIRICHLET), 2) == 9.31
        assert round(eigenvalue(nonconst(1, 1, 0), DIRICHLET), 2) == 9.33
        assert round(eigenvalue(nonconst(4, 0, 0), DIRICHLET), 2) == 20.18


class TestClosedForms:
    def test_frictionless_constant_family_is_exact(self):
        # lambda = mu^2 + (p*pi/2)^2, attained exactly
        assert eigenvalue(const(0, 0, 0), NAVIER) == 0.0
        assert eigenvalue(const(1, 0, 1), NAVIER) == pytest.approx(
            1 + HALF_PI**2, rel=1e-15
        )
        assert eigenvalue(const(2, 1, 0), NAVIER) == 5.0

    def test_no_slip_constant_family_is_exact(self):
        # lambda = mu^2 + (p*pi/2)^2 with p >= 1
        assert eigenvalue(const(0, 0, 1), DIRICHLET) == pytest.approx(
            HALF_PI**2, rel=1e-15
        )
        assert eigenvalue(const(0, 0, 2), DIRICHLET) == pytest.approx(
            math.pi**2, rel=1e-15
        )
        assert eigenvalue(const(1, 1, 2), DIRICHLET) == pytest.approx(
            2 + math.pi**2, rel=1e-15
        )

    def test_closed_form_branch_is_reported(self):
        assert solve_details(const(1, 0, 1), NAVIER).branch == "closed-form"
        assert solve_details(const(1, 1, 2), DIRICHLET).branch == "closed-form"

    def test_no_slip_constant_family_rejects_flat_profile(self):
        with pytest.raises(InvalidIndex):
            eigenvalue(const(0, 0, 0), DIRICHLET)

    def test_frictionless_nonconstant_family_rejected(self):
        with pytest.raises(InvalidCase):
            eigenvalue(nonconst(1, 0, 0), NAVIER)


class TestBranchEquations:
    """The solved root must satisfy the defining transcendental equation."""

    @pytest.mark.parametrize("index,friction,_", CONST_ANCHORS)
    def test_constant_family_equation(self, index, friction, _):
        r = solve_details(index, friction)
        beta, s = friction.beta, r.s
        if r.branch == "even":
            resid = beta * math.cos(s) - s * math.sin(s)
        else:
            assert r.branch == "odd"
            resid = beta * math.sin(s) + s * math.cos(s)
        assert abs(resid) < 1e-10

    @pytest.mark.parametrize("index,friction,_", NONCONST_ANCHORS)
    def test_nonconstant_family_equation(self, index, friction, _):
        r = solve_details(index, friction)
        s, lam, mu = r.s, r.value, index.mu
        if friction.is_dirichlet:
            if r.branch == "even":
                resid = s * math.tan(s) + mu * math.tanh(mu)
            else:
                assert r.branch == "odd"
                resid = s / math.tan(s) - mu / math.tanh(mu)
        else:
            beta = friction.beta
            if r.branch == "even":
                resid = s * math.tan(s) + lam / beta + mu * math.tanh(mu)
            else:
                assert r.branch == "odd"
                resid = s / math.tan(s) - lam / beta - mu / math.tanh(mu)
        assert abs(resid) < 1e-9

    def test_eigenvalue_recovers_from_s(self):
        for index, friction, _ in CONST_ANCHORS + NONCONST_ANCHORS:
            r = solve_details(index, friction)
            assert r.value == pytest.approx(index.mu2 + r.s**2, rel=1e-13)


class TestBrackets:
    def test_constant_family_bracket_formula(self):
        b = bracket_for(const(1, 1, 1))
        assert b.lo == pytest.approx(2 + HALF_PI**2, rel=1e-15)
        assert b.hi == pytest.approx(2 + math.pi**2, rel=1e-15)
        assert b.family is PressureFamily.CONSTANT

    def test_nonconstant_family_bracket_formula(self):
        b = bracket_for(nonconst(1, 1, 1))
        assert b.lo == pytest.approx(2 + math.pi**2, rel=1e-15)
        assert b.hi == pytest.approx(2 + (3 * HALF_PI) ** 2, rel=1e-15)
        assert b.family is PressureFamily.NONCONSTANT

    def test_families_tile_disjointly(self):
        # for equal (m, n, p) the constant-family bracket ends exactly where
        # the non-constant-family bracket begins
        for m, n, p in [(1, 0, 0), (1, 1, 1), (2, 3, 2)]:
            hi = bracket_for(const(m, n, p)).hi
            lo = bracket_for(nonconst(m, n, p)).lo
            assert hi == lo

    def test_solved_values_respect_brackets_randomized(self):
        import random

        rng = random.Random(20240817)
        count = 0
        while count < 200:
            m, n = rng.randint(0, 8), rng.randint(0, 8)
            p = rng.randint(0, 6)
            fam = rng.choice(list(PressureFamily))
            if fam is PressureFamily.NONCONSTANT and m == n == 0:
                continue
            beta = 10 ** rng.uniform(-3, 3)
            idx = WaveIndex(m, n, p, fam)
            friction = Friction.finite(beta)
            lam = eigenvalue(idx, friction)
            b = bracket_for(idx)
            assert b.lo < lam < b.hi, (idx, beta, lam, b)
            count += 1


class TestStructure:
    def test_planar_shift_identity(self):
        # constant family: lambda(m,n,p) = lambda(0,0,p) + mu^2 exactly
        for beta in (0.05, 1.0, 37.0):
            friction = Friction.finite(beta)
            for m, n, p in [(1, 0, 0), (2, 3, 1), (5, 5, 4)]:
                base = eigenvalue(const(0, 0, p), friction)
                assert eigenvalue(const(m, n, p), friction) == pytest.approx(
                    base + m * m + n * n, abs=1e-12
                )

    def test_monotone_in_friction(self):
        idx_c, idx_n = const(0, 0, 0), nonconst(1, 0, 0)
        betas = [0.01, 0.1, 1.0, 10.0, 100.0, 1e4]
        vals_c = [eigenvalue(idx_c, Friction.finite(b)) for b in betas]
        vals_n = [eigenvalue(idx_n, Friction.finite(b)) for b in betas]
        assert vals_c == sorted(vals_c)
        assert vals_n == sorted(vals_n)

    def test_ground_mode_stays_below_no_slip_limit(self):
        for b in (0.01, 0.1, 1.0, 10.0, 100.0, 1e4):
            lam = eigenvalue(const(0, 0, 0), Friction.finite(b))
            assert 0.0 < lam < HALF_PI**2

    def test_large_friction_approaches_no_slip(self):
        for m, n, p in [(0, 0, 0), (1, 0, 0), (2, 1, 3)]:
            lam = eigenvalue(const(m, n, p), Friction.finite(1e6))
            limit = m * m + n * n + (HALF_PI * (p + 1)) ** 2
            assert abs(lam - limit) < 1e-4

    def test_small_friction_approaches_frictionless(self):
        for m, n, p in [(0, 0, 0), (1, 0, 0), (2, 1, 3)]:
            lam = eigenvalue(const(m, n, p), Friction.finite(1e-6))
            limit = m * m + n * n + (HALF_PI * p) ** 2
            assert abs(lam - limit) < 1e-4

    def test_nonconstant_large_friction_approaches_no_slip(self):
        # convergence is first order in 1/beta with rate constant ~19 for
        # this index, so the beta = 1e4 gap sits just below 2e-3
        idx = nonconst(1, 0, 0)
        limit = eigenvalue(idx, DIRICHLET)
        gap4 = abs(eigenvalue(idx, Friction.finite(1e4)) - limit)
        gap5 = abs(eigenvalue(idx, Friction.finite(1e5)) - limit)
        assert gap4 < 2.5e-3
        assert gap5 < 2.5e-4
        assert 0.08 < gap5 / gap4 < 0.12  # first-order rate in 1/beta

    @given(
        m=st.integers(0, 6),
        n=st.integers(0, 6),
        p=st.integers(0, 4),
        log_beta=st.floats(-2, 2, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_value_in_bracket_property(self, m, n, p, log_beta):
        idx = const(m, n, p)
        friction = Friction.finite(10.0**log_beta)
        lam = eigenvalue(idx, friction)
        b = bracket_for(idx)
        assert b.lo < lam < b.hi


class TestBetaSweep:
    def test_matches_pointwise_solution(self):
        vals = beta_sweep(const(0, 0, 0), [1.0, 10.0])
        assert vals[0] == pytest.approx(0.7401738843949676, rel=1e-12)
        assert vals[1] == pytest.approx(2.0416695089469165, rel=1e-12)

    def test_monotone_and_below_no_slip(self):
        idx = const(1, 1, 1)
        betas = [10.0**k for k in range(-3, 4)]
        vals = beta_sweep(idx, betas)
        assert vals == sorted(vals)
        assert vals[-1] < 2 + math.pi**2  # the no-slip limit for this index

    def test_converges_to_no_slip_value(self):
        idx = nonconst(1, 0, 0)
        vals = beta_sweep(idx, [1.0, 10.0, 1e4])
        assert vals == sorted(vals)
        # the O(1/beta) gap at beta = 1e4 is 1.9e-3; one more decade lands
        # well inside 1e-3 of the no-slip value 9.3137...
        assert round(vals[-1], 2) == 9.31
        assert abs(vals[-1] - 9.31373985391922) < 2.5e-3
        tail = beta_sweep(idx, [1e5])
        assert abs(tail[0] - 9.31373985391922) < 1e-3

    def test_singleton(self):
        assert beta_sweep(const(0, 0, 0), [1.0]) == pytest.approx(
            [0.7401738843949676]
        )

    def test_requires_strictly_ascending(self):
        with pytest.raises(InvalidCase):
            beta_sweep(const(0, 0, 0), [1.0, 1.0])
        with pytest.raises(InvalidCase):
            beta_sweep(const(0, 0, 0), [10.0, 1.0])


class TestConstRoot:
    def test_bitwise_equal_to_direct_solve(self):
        rng = random.Random(7)
        _const_root.cache_clear()
        for _ in range(200):
            p = rng.randrange(0, 51)
            beta = 10.0 ** rng.uniform(-4.0, 4.0)
            direct = _solve_branchpair(*_const_branches(beta),
                                       *s_interval(p, PressureFamily.CONSTANT))
            assert _const_root(p, beta) == direct   # computed
            assert _const_root(p, beta) == direct   # served from the cache
            m, n = rng.randrange(0, 9), rng.randrange(0, 9)
            res = solve_details(const(m, n, p), Friction.finite(beta))
            assert (res.branch, res.s) == direct
            assert res.value == m * m + n * n + direct[1] * direct[1]

    def test_one_root_per_rung(self):
        _const_root.cache_clear()
        beta = 0.377
        for m in range(6):
            for n in range(6):
                for p in range(4):
                    solve_details(const(m, n, p), Friction.finite(beta))
        info = _const_root.cache_info()
        assert (info.misses, info.hits) == (4, 36 * 4 - 4)


class TestErrors:
    def test_no_root_in_bracket_is_importable_and_specific(self):
        assert issubclass(NoRootInBracket, SlipchanError)

    def test_iteration_cap_raises_nonconvergence(self, monkeypatch):
        monkeypatch.setattr(eigensolver, "MAX_ITER", 1)
        with pytest.raises(NonConvergence):
            _hybrid_root(math.cos, 1.0, 2.0)
        assert issubclass(NonConvergence, SlipchanError)

    def test_failed_root_is_not_memoised(self, monkeypatch):
        _const_root.cache_clear()
        index, friction = const(1, 2, 3), Friction.finite(2.5)
        monkeypatch.setattr(eigensolver, "MAX_ITER", 1)
        with pytest.raises(NonConvergence):
            solve_details(index, friction)
        monkeypatch.undo()
        value = solve_details(index, friction).value
        assert bracket_for(index).lo < value < bracket_for(index).hi
