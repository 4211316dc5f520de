"""Transcendental eigenvalue solver: anchors, brackets, limits, residuals."""

import math
import random
import sys

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slipchan.core import Friction, PressureFamily, WaveIndex
from slipchan import cli, eigensolver
from slipchan.eigensolver import (
    _const_root,
    _phase_root,
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


# The wall ladders written out per friction kind and family: the lowest p,
# or None where the wall carries no mode of the family.
LADDER_STARTS = {
    ("navier", "const"): 0, ("navier", "nonconst"): None,
    ("finite", "const"): 0, ("finite", "nonconst"): 0,
    ("dirichlet", "const"): 1, ("dirichlet", "nonconst"): 0,
}


class TestLadderRule:
    @pytest.mark.parametrize("friction", [NAVIER, B1, DIRICHLET], ids=lambda f: f.label())
    @pytest.mark.parametrize("family", list(PressureFamily), ids=lambda f: f.value)
    def test_solver_raises_exactly_below_the_first_rung(self, friction, family):
        first = friction.first_p(family)
        assert first == LADDER_STARTS[(friction.kind.value, family.value)]
        for m, n in ((1, 0), (1, 1), (0, 0)):
            if family is PressureFamily.NONCONSTANT and (m, n) == (0, 0):
                continue
            for p in range(4):
                index = WaveIndex(m, n, p, family)
                if first is not None and p >= first:
                    assert math.isfinite(solve_details(index, friction).value)
                    continue
                with pytest.raises(SlipchanError) as caught:
                    solve_details(index, friction)
                if first is None:
                    assert type(caught.value) is InvalidCase
                    assert str(caught.value) == (
                        "the frictionless wall admits only constant-pressure modes")
                else:
                    assert type(caught.value) is InvalidIndex
                    assert str(caught.value) == (
                        "no-slip constant-pressure modes require p >= 1")


class TestBetaSweep:
    @pytest.mark.parametrize("betas", [["a"], [1, 10**400], [None]], ids=repr)
    def test_rejects_non_numbers(self, betas):
        with pytest.raises(InvalidCase, match="betas"):
            beta_sweep(const(0, 0, 0), betas)

    @pytest.mark.parametrize("betas", [5, None, 1.0, "12", {1.0: 2.0}], ids=repr)
    def test_rejects_a_non_list(self, betas):
        with pytest.raises(InvalidCase, match="betas must be a list"):
            beta_sweep(WaveIndex(1, 1, 0), betas)

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


# ---------------------------------------------------------------------------
# the former root route: pole-free residual pair, shrunk bracket, empirical
# branch pick (kept here as a cross-check of the phase-form solve)
# ---------------------------------------------------------------------------

OLD_BRACKET_SHRINK = 1e-9


def old_const_branches(beta):
    def even(s):
        return beta * math.cos(s) - s * math.sin(s)

    def odd(s):
        return s * math.cos(s) + beta * math.sin(s)

    return even, odd


def old_hybrid_root(f, a, b):
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    assert math.copysign(1.0, fa) != math.copysign(1.0, fb)
    for _ in range(200):
        mid = 0.5 * (a + b)
        if b - a <= eigensolver.REL_TOL * max(1.0, abs(mid)):
            return mid
        denom = fb - fa
        x = mid
        if denom != 0.0:
            cand = a - fa * (b - a) / denom
            gap = 0.01 * (b - a)
            if a + gap < cand < b - gap:
                x = cand
        fx = f(x)
        if fx == 0.0:
            return x
        if math.copysign(1.0, fx) == math.copysign(1.0, fa):
            a, fa = x, fx
        else:
            b, fb = x, fx
    raise AssertionError("old route did not converge")


def old_solve_branchpair(even, odd, s_lo, s_hi):
    eps = OLD_BRACKET_SHRINK * (s_hi - s_lo)
    a, b = s_lo + eps, s_hi - eps
    picks = []
    for name, f in (("even", even), ("odd", odd)):
        fa, fb = f(a), f(b)
        if fa == 0.0 or fb == 0.0 or math.copysign(1.0, fa) != math.copysign(1.0, fb):
            picks.append((name, f))
    assert len(picks) == 1
    name, f = picks[0]
    return name, old_hybrid_root(f, a, b)


class TestConstRoot:
    def test_bitwise_equal_to_direct_solve(self):
        rng = random.Random(7)
        _const_root.cache_clear()
        for _ in range(200):
            p = rng.randrange(0, 51)
            beta = 10.0 ** rng.uniform(-4.0, 4.0)
            direct = _phase_root(HALF_PI * p, lambda s: beta, lambda s: s)
            assert _const_root(p, beta) == direct   # computed
            assert _const_root(p, beta) == direct   # served from the cache
            m, n = rng.randrange(0, 9), rng.randrange(0, 9)
            res = solve_details(const(m, n, p), Friction.finite(beta))
            assert res.s == direct
            assert res.branch == ("even" if p % 2 == 0 else "odd")
            assert res.value == m * m + n * n + direct * direct

    def test_matches_old_branchpair_route(self):
        # mid-range friction keeps the old route's roots clear of its
        # shrunk bracket ends, where it was accurate
        rng = random.Random(11)
        for _ in range(300):
            p = rng.randrange(0, 51)
            beta = 10.0 ** rng.uniform(-4.0, 4.0)
            name, s_old = old_solve_branchpair(
                *old_const_branches(beta), *s_interval(p, PressureFamily.CONSTANT))
            res = solve_details(const(0, 0, p), Friction.finite(beta))
            assert res.branch == name, (p, beta)
            assert res.s == pytest.approx(s_old, rel=1e-14, abs=0.0), (p, beta)

    def test_one_root_per_rung(self):
        _const_root.cache_clear()
        beta = 0.377
        for m in range(6):
            for n in range(6):
                for p in range(4):
                    solve_details(const(m, n, p), Friction.finite(beta))
        info = _const_root.cache_info()
        assert (info.misses, info.hits) == (4, 36 * 4 - 4)


# ---------------------------------------------------------------------------
# independent reference: the original transcendental equations (not the
# phase form) bisected at 40 digits on the exact open interval
# ---------------------------------------------------------------------------


def mp_root(index, beta, dps=40):
    """s of `index` at friction beta (math.inf = no-slip), to ~35 digits;
    `dps` must also resolve the trig factors at s."""
    with mpmath.workdps(dps):
        pi, p = mpmath.pi, index.p
        even = p % 2 == 0
        if index.family is PressureFamily.CONSTANT:
            if math.isinf(beta):
                return mpmath.mpf(p) * pi / 2     # cos or sin of s vanishes
            b = mpmath.mpf(beta)
            lo = mpmath.mpf(p) * pi / 2
            if even:
                def f(s):
                    return b * mpmath.cos(s) - s * mpmath.sin(s)
            else:
                def f(s):
                    return s * mpmath.cos(s) + b * mpmath.sin(s)
        else:
            mu2 = mpmath.mpf(index.mu2)
            mu = mpmath.sqrt(mu2)
            hyp = mu * mpmath.tanh(mu) if even else mu / mpmath.tanh(mu)
            inv_b = 0 if math.isinf(beta) else 1 / mpmath.mpf(beta)
            lo = mpmath.mpf(p + 1) * pi / 2
            if even:
                def f(s):
                    return s * mpmath.sin(s) + ((mu2 + s * s) * inv_b + hyp) * mpmath.cos(s)
            else:
                def f(s):
                    return s * mpmath.cos(s) - ((mu2 + s * s) * inv_b + hyp) * mpmath.sin(s)
        hi = lo + pi / 2
        f_lo = f(lo)
        assert f_lo * f(hi) < 0
        for _ in range(140):
            mid = (lo + hi) / 2
            f_mid = f(mid)
            if (f_mid < 0) == (f_lo < 0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        return (lo + hi) / 2


def _friction(beta):
    return DIRICHLET if math.isinf(beta) else Friction.finite(beta)


def assert_matches_reference(index, beta, rel=1e-13):
    res = solve_details(index, _friction(beta))
    ref = mp_root(index, beta)
    assert abs(mpmath.mpf(res.s) - ref) <= rel * ref, (index, beta, res.s, ref)
    if res.branch != "closed-form":
        assert res.branch == ("even" if index.p % 2 == 0 else "odd")


# edge cases named in the defect list, plus both ends of the friction range
EDGE_CASES = [
    (const(1, 1, 0), 1e10), (const(0, 0, 10), 1e-8), (nonconst(1, 0, 10), 1e-8),
    (const(1, 1, 999), 1e-6), (nonconst(100000, 0, 0), 1.0),
    (nonconst(300000, 0, 0), 1.0), (nonconst(1000000, 0, 0), 100.0),
    (const(0, 0, 0), 1e-12), (const(0, 0, 0), 1e-9), (const(0, 0, 1000), 1e-12),
    (const(0, 0, 0), 1e15), (const(3, 4, 1000), 1e15),
    (nonconst(1, 0, 0), 1e-12), (nonconst(1, 0, 1000), 1e-12),
    (nonconst(1, 0, 0), 1e15), (nonconst(1000000, 0, 1000), 1e-12),
    (nonconst(1000000, 0, 1), math.inf), (nonconst(1, 0, 1000), math.inf),
    (const(0, 0, 1), math.inf),
]


class TestReference:
    @pytest.mark.parametrize("index,beta", EDGE_CASES)
    def test_edge_cases(self, index, beta):
        assert_matches_reference(index, beta)

    def test_roots_within_eight_ulps(self):
        # both families, p <= 20, mu up to about 1e6, beta over the whole
        # documented range and the no-slip wall
        rng = random.Random(20)
        for _ in range(200):
            family = rng.choice(list(PressureFamily))
            p = rng.randrange(21)
            m = int(10.0 ** rng.uniform(0.0, 6.0))
            n = rng.randrange(m + 1)
            beta = math.inf
            if rng.random() >= 0.125:
                beta = 10.0 ** rng.uniform(-12.0, 15.0)
            elif family is PressureFamily.CONSTANT:
                p = max(p, 1)
            assert_matches_reference(WaveIndex(m, n, p, family), beta,
                                     rel=8 * sys.float_info.epsilon)

    def test_small_friction_ground_rung_sweep(self):
        # s ~ sqrt(beta) is tiny here: only a stopping width relative to s
        # (not an absolute one) keeps its relative precision
        for k in range(40):
            assert_matches_reference(const(0, 0, 0), 10.0 ** (-12 + 6 * k / 40))

    @given(
        family=st.sampled_from(list(PressureFamily)),
        p=st.integers(0, 1000),
        m=st.integers(0, 10**6),
        n_frac=st.floats(0.0, 1.0),
        log_beta=st.one_of(st.floats(-12.0, 15.0), st.just(math.inf)),
    )
    @settings(max_examples=150, deadline=None)
    def test_whole_domain_property(self, family, p, m, n_frac, log_beta):
        # mu^2 = m^2 + n^2 <= 1e12; beta in [1e-12, 1e15] or no-slip
        n = math.isqrt(int(n_frac * (10**12 - m * m)))
        beta = math.inf
        if math.isfinite(log_beta):
            beta = min(max(10.0**log_beta, 1e-12), 1e15)
        if family is PressureFamily.NONCONSTANT and m == n == 0:
            with pytest.raises(InvalidIndex):   # the family needs mu > 0
                WaveIndex(m, n, p, family)
        elif family is PressureFamily.CONSTANT and math.isinf(beta) and p == 0:
            with pytest.raises(InvalidIndex):
                solve_details(WaveIndex(m, n, p, family), DIRICHLET)
        else:
            assert_matches_reference(WaveIndex(m, n, p, family), beta)


def _cli_lambda(capsys, argv):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    return out.splitlines()[0]


class TestCliRegressions:
    """Each command once exited 2 (roots lost next to a bracket end) or
    printed a value wrong in the 10th digit (absolute stopping width)."""

    @pytest.mark.parametrize("m,n,p,beta,family", [
        (1, 1, 0, "1e10", "const"),
        (0, 0, 10, "1e-8", "const"),
        (1, 0, 10, "1e-8", "nonconst"),
        (1, 1, 999, "1e-6", "const"),
        (100000, 0, 0, "1", "nonconst"),
        (0, 0, 0, "1e-12", "const"),
    ])
    def test_eigenvalue_command(self, capsys, m, n, p, beta, family):
        argv = ["eigenvalue", "--m", str(m), "--n", str(n), "--p", str(p),
                "--beta", beta, "--pressure-class", family]
        index = WaveIndex(m, n, p, PressureFamily(family))
        with mpmath.workdps(40):
            lam = index.mu2 + mp_root(index, float(beta)) ** 2
        assert _cli_lambda(capsys, argv) == f"lambda = {float(lam):.12g}"


class TestErrors:
    def test_no_root_in_bracket_is_importable_and_specific(self):
        assert issubclass(NoRootInBracket, SlipchanError)

    def test_wrong_end_signs_raise_no_root_in_bracket(self):
        # atan2(-1, 1) < 0, so d - atan2 is positive at both ends
        with pytest.raises(NoRootInBracket):
            _phase_root(1.0, lambda s: -1.0, lambda s: 1.0)

    def test_iteration_cap_raises_nonconvergence(self, monkeypatch):
        monkeypatch.setattr(eigensolver, "MAX_ITER", 1)
        with pytest.raises(NonConvergence):
            _phase_root(0.0, lambda s: 1.0, lambda s: s)
        assert issubclass(NonConvergence, SlipchanError)

    def test_roots_resolve_well_inside_the_iteration_cap(self, monkeypatch):
        # the hardest grids (tiny beta at p = 0 needs a stopping width near
        # 1e-21) converge in under a third of MAX_ITER
        monkeypatch.setattr(eigensolver, "MAX_ITER", 64)
        _const_root.cache_clear()
        for k in range(4000):
            _const_root(0, 10.0 ** (-12.0 + 4.0 * k / 3999))
        betas = [10.0 ** (-12.0 + 27.0 * k / 499) for k in range(500)]
        for p in range(0, 41, 5):
            for beta in betas:
                _const_root(p, beta)
        for p in (0, 1, 7):
            for m, n in ((1, 0), (5, 5), (100, 0)):   # mu^2 = 1, 50, 1e4
                for beta in betas:
                    solve_details(nonconst(m, n, p), Friction.finite(beta))

    BEYOND_DOUBLE = [
        (const(1, 0, 10**200), NAVIER),
        (const(1, 0, 10**200), B1),
        (const(1, 0, 10**400), B1),   # s0 = p pi / 2 is not a float
        (const(10**160, 0, 0), B1),   # mu^2 is not a float
        (nonconst(10**160, 0, 0), DIRICHLET),
        (nonconst(10**160, 0, 0), B1),
        (nonconst(1, 0, 10**155), DIRICHLET),   # once "no sign change": inf/inf is nan
    ]

    @pytest.mark.parametrize("index,friction", BEYOND_DOUBLE, ids=repr)
    def test_an_eigenvalue_beyond_double_precision_raises_invalid_index(self, index, friction):
        with pytest.raises(InvalidIndex, match="leaves double precision"):
            solve_details(index, friction)

    @pytest.mark.parametrize("index", [index for index, _ in BEYOND_DOUBLE] + [
        const(10**200, 0, 0),
        const(0, 0, 10**400),
        nonconst(10**200, 0, 0),
        const(13 * 10**153, 0, 64 * 10**152),   # two finite terms add to inf
    ], ids=repr)
    def test_a_bracket_beyond_double_precision_raises_invalid_index(self, index):
        # once a bare OverflowError, or an empty [inf, inf] for a sum of two floats
        with pytest.raises(InvalidIndex, match="leaves double precision"):
            bracket_for(index)

    @pytest.mark.parametrize("p", [10**16, 10**20])
    def test_no_slip_pressure_root_that_rounds_onto_its_upper_end(self, p):
        # the root sits about hyp/s below (p + 2) pi / 2, so the phase at
        # d = pi/2 rounds to 0 (once a NoRootInBracket)
        index = nonconst(1, 0, p)
        value = solve_details(index, DIRICHLET).value
        ref = mp_root(index, math.inf)
        with mpmath.workdps(40):
            exact = index.mu2 + ref * ref
            assert abs(mpmath.mpf(value) - exact) <= 5e-16 * exact, (p, value)

    def test_pressure_root_below_the_last_bit_of_its_lower_end(self):
        # (mu^2 + s^2) / beta overflows, so the phase at d = 0 is -0.0: the
        # root is s0 (once a NoRootInBracket)
        tiny = Friction.finite(1e-12)
        assert solve_details(nonconst(10**149, 0, 0), tiny).s == HALF_PI
        index = nonconst(1, 0, 10**150)
        value = solve_details(index, tiny).value
        ref = mp_root(index, 1e-12, dps=400)   # sin s at s ~ 1e150 needs the digits
        with mpmath.workdps(60):
            exact = index.mu2 + ref * ref
            assert abs(mpmath.mpf(value) - exact) <= 2e-16 * exact, value

    def test_every_draw_over_the_whole_domain_finds_its_root(self):
        # m, n up to 1e160, p up to 1e200, beta log-uniform on [1e-12, 1e300]
        # or a limit: each draw solves to a finite eigenvalue with s0 <= s
        # <= s0 + pi/2 or raises InvalidIndex or InvalidCase, never
        # NoRootInBracket (about one draw in twenty once did)
        rng = random.Random(34)
        solved = 0
        for _ in range(5000):
            m, n, p = (rng.choice((rng.randint(0, 3), int(10.0 ** rng.uniform(0, top))))
                       for top in (160, 160, 200))
            family = rng.choice(list(PressureFamily))
            u = rng.random()
            friction = (NAVIER if u < 0.1 else DIRICHLET if u < 0.2
                        else Friction.finite(10.0 ** rng.uniform(-12.0, 300.0)))
            try:
                result = solve_details(WaveIndex(m, n, p, family), friction)
            except (InvalidIndex, InvalidCase):
                continue
            lo = s_interval(p, family)[0]
            assert math.isfinite(result.value) and lo <= result.s <= lo + HALF_PI, (m, n, p, friction)
            solved += 1
        assert solved > 3000

    def test_the_largest_finite_eigenvalues_solve(self):
        p = int(math.sqrt(sys.float_info.max) / HALF_PI) - 2
        for friction in (NAVIER, B1, DIRICHLET):
            assert math.isfinite(solve_details(const(0, 0, p), friction).value)
        with pytest.raises(InvalidIndex):
            solve_details(const(0, 0, 2 * p), B1)

    def test_failed_root_is_not_memoised(self, monkeypatch):
        _const_root.cache_clear()
        index, friction = const(1, 2, 3), Friction.finite(2.5)
        monkeypatch.setattr(eigensolver, "MAX_ITER", 1)
        with pytest.raises(NonConvergence):
            solve_details(index, friction)
        monkeypatch.undo()
        value = solve_details(index, friction).value
        assert bracket_for(index).lo < value < bracket_for(index).hi
