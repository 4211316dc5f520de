"""Domain types: indices, friction, planar weights, z-profiles, exact z-integrals."""

import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slipchan.core import (
    TWO_PI,
    Friction,
    FrictionKind,
    PlanarCoeffs,
    PressureFamily,
    WaveIndex,
    ZProfile,
    _canonical,
    _halves,
    _moment,
    _product,
    _slope,
    planar_l2_weight,
    planar_terms,
)
from slipchan.errors import InvalidCase, InvalidIndex
from slipchan.fields import COMPONENTS, PlanarField, ScalarField
from slipchan.modes import _profiles


# ---------------------------------------------------------------------------
# WaveIndex
# ---------------------------------------------------------------------------


class TestWaveIndex:
    def test_mu2_exact_integer(self):
        idx = WaveIndex(3, 4, 2)
        assert idx.mu2 == 25
        assert isinstance(idx.mu2, int)
        assert idx.mu == 5.0

    def test_rejects_negative_components(self):
        for bad in [(-1, 0, 0), (0, -2, 0), (0, 0, -1)]:
            with pytest.raises(InvalidIndex):
                WaveIndex(*bad)

    def test_rejects_non_integer_components(self):
        with pytest.raises(InvalidIndex):
            WaveIndex(1.5, 0, 0)
        with pytest.raises(InvalidIndex):
            WaveIndex(True, 0, 0)

    def test_nonconstant_family_needs_planar_oscillation(self):
        with pytest.raises(InvalidIndex):
            WaveIndex(0, 0, 1, PressureFamily.NONCONSTANT)
        # fine once mu2 > 0
        WaveIndex(1, 0, 0, PressureFamily.NONCONSTANT)

    @pytest.mark.parametrize("m,n", [(1, 1), (0, 0)])
    def test_rejects_a_family_that_is_not_a_member(self, m, n):
        # a string family used to pass and solve the other family's root
        # (1,1,0) or skip the mu^2 > 0 check (0,0,0); it is not coerced
        for family in ("const", "nonconst", None):
            with pytest.raises(InvalidIndex, match="PressureFamily"):
                WaveIndex(m, n, 0, family)


# ---------------------------------------------------------------------------
# Friction
# ---------------------------------------------------------------------------


class TestFriction:
    def test_three_kinds(self):
        assert Friction.navier().is_navier
        assert Friction.finite(2.0).is_finite
        assert Friction.dirichlet().is_dirichlet

    def test_finite_rejects_nonpositive_and_infinite(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(InvalidCase):
                Friction.finite(bad)

    @pytest.mark.parametrize("bad", ["x", "1.5", None, True, 10**400], ids=repr)
    def test_finite_rejects_non_numbers(self, bad):
        with pytest.raises(InvalidCase, match="finite friction beta"):
            Friction.finite(bad)

    def test_infinite_beta_names_the_no_slip_limit(self):
        with pytest.raises(InvalidCase, match=r"Friction\.dirichlet\(\)") as info:
            Friction.finite(math.inf)
        assert "navier" not in str(info.value)

    def test_finite_rejects_below_minimum(self):
        with pytest.raises(InvalidCase):
            Friction.finite(1e-15)
        Friction.finite(1e-12)  # the documented minimum itself is accepted

    BAD_PAIRS = [
        (FrictionKind.FINITE, -1.0), (FrictionKind.FINITE, math.nan),
        (FrictionKind.FINITE, 0.0), (FrictionKind.FINITE, 1e-15),
        (FrictionKind.FINITE, math.inf), (FrictionKind.FINITE, "1.5"),
        (FrictionKind.NAVIER, 3.0), (FrictionKind.NAVIER, math.inf),
        (FrictionKind.DIRICHLET, 0.0), (FrictionKind.DIRICHLET, 1.0),
        (FrictionKind.DIRICHLET, math.nan), ("finite", 1.0),
    ]

    @pytest.mark.parametrize("kind,beta", BAD_PAIRS, ids=repr)
    def test_constructor_rejects_inconsistent_pairs(self, kind, beta):
        # the raw constructor keeps the rules of the named ones, so no
        # wall reaches the solver with a beta its kind does not carry
        with pytest.raises(InvalidCase):
            Friction(kind, beta)

    def test_constructor_keeps_the_finite_messages(self):
        with pytest.raises(InvalidCase, match=r"requires beta > 0, got -1\.0"):
            Friction(FrictionKind.FINITE, -1.0)
        with pytest.raises(InvalidCase, match=r"Friction\.dirichlet\(\)"):
            Friction(FrictionKind.FINITE, math.inf)

    def test_constructor_accepts_consistent_pairs(self):
        assert Friction(FrictionKind.NAVIER, 0) == Friction.navier()
        assert Friction(FrictionKind.DIRICHLET, math.inf) == Friction.dirichlet()
        assert Friction(FrictionKind.FINITE, 3) == Friction.finite(3.0)

    def test_labels(self):
        assert Friction.navier().label() == "0"
        assert Friction.dirichlet().label() == "inf"
        assert Friction.finite(2.5).label() == "2.5"
        assert Friction.finite(10.0).label() == "10"

    PARSED = [
        ("navier", Friction.navier()),
        ("NAVIER", Friction.navier()),
        (" Navier ", Friction.navier()),
        ("0", Friction.navier()),
        (0, Friction.navier()),
        (0.0, Friction.navier()),
        ("dirichlet", Friction.dirichlet()),
        ("INF", Friction.dirichlet()),
        ("+inf", Friction.dirichlet()),
        (math.inf, Friction.dirichlet()),
        ("2.5", Friction.finite(2.5)),
        (10, Friction.finite(10.0)),
        ({"beta": 3.0}, Friction.finite(3.0)),
        ({"beta": "navier"}, Friction.navier()),
        ({"beta": "inf"}, Friction.dirichlet()),
    ]

    @pytest.mark.parametrize("spec,expected", PARSED, ids=[repr(s) for s, _ in PARSED])
    def test_parse(self, spec, expected):
        assert Friction.parse(spec) == expected

    @pytest.mark.parametrize(
        "spec",
        ["0.0", "-0", "sticky", "-inf", "nan", "1e-13", -1.0, True, False, np.bool_(True), None,
         [1.0], {"beta": None}, {"beta": True}, {"alpha": 1.0}],
        ids=repr,
    )
    def test_parse_rejects(self, spec):
        with pytest.raises(InvalidCase):
            Friction.parse(spec)

    def test_parse_zero_string_points_at_navier(self):
        with pytest.raises(InvalidCase, match="navier"):
            Friction.parse("0.0")

    @pytest.mark.parametrize("spec,expected", [
        (np.int64(2), Friction.finite(2.0)), (np.float32(2.5), Friction.finite(2.5)),
        (np.float64(0.0), Friction.navier()), (np.float32(np.inf), Friction.dirichlet()),
    ], ids=repr)
    def test_parse_takes_the_numbers_finite_takes(self, spec, expected):
        # numpy scalars were once an "unrecognized friction"
        assert Friction.parse(spec) == expected
        assert Friction.parse({"beta": spec}) == expected


# ---------------------------------------------------------------------------
# PlanarCoeffs
# ---------------------------------------------------------------------------


class TestPlanarCoeffs:
    def test_rejects_all_zero(self):
        with pytest.raises(InvalidCase):
            PlanarCoeffs()

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidCase):
            PlanarCoeffs(a=math.nan)
        with pytest.raises(InvalidCase):
            PlanarCoeffs(b=math.inf)

    @pytest.mark.parametrize("bad", ["a", None, 10**400], ids=repr)
    def test_rejects_non_numbers(self, bad):
        with pytest.raises(InvalidCase, match="planar coefficient"):
            PlanarCoeffs(bad)

    def test_as_tuple(self):
        assert PlanarCoeffs(a=1, b=2, c=3, d=4).as_tuple() == (1, 2, 3, 4)
        # checked as floats and stored as the floats the check computed
        assert type(PlanarCoeffs(a=1).a) is float

    def test_stores_plain_floats(self):
        coeffs = PlanarCoeffs(a=1, b=np.float32(0.5), c=np.int64(-2))
        assert coeffs.as_tuple() == (1.0, 0.5, -2.0, 0.0)
        assert all(type(v) is float for v in coeffs.as_tuple())
        assert coeffs == PlanarCoeffs(a=1.0, b=0.5, c=-2.0)
        assert hash(coeffs) == hash(PlanarCoeffs(a=1.0, b=0.5, c=-2.0))


# ---------------------------------------------------------------------------
# planar factors
# ---------------------------------------------------------------------------


def planar_factor(index, coeffs, comp, x, y):
    """One planar factor sampled from its (weight, x parity, y parity) terms."""
    trig = {"sin": np.sin, "cos": np.cos}
    return sum(w * trig[xpar](index.m * x) * trig[ypar](index.n * y)
               for w, xpar, ypar in planar_terms(index, coeffs, comp))


class TestPlanarL2Weight:
    def test_single_slot_full_wavenumbers(self):
        w = planar_l2_weight(WaveIndex(1, 1, 0), PlanarCoeffs(a=1), "u")
        assert w == pytest.approx(math.pi**2, rel=1e-14)

    def test_constant_factor(self):
        w = planar_l2_weight(WaveIndex(0, 0, 0), PlanarCoeffs(d=1), "u")
        assert w == pytest.approx(4 * math.pi**2, rel=1e-14)

    def test_degenerate_x_axis(self):
        w = planar_l2_weight(WaveIndex(0, 1, 0), PlanarCoeffs(a=1), "u")
        assert w == pytest.approx(2 * math.pi * math.pi, rel=1e-14)

    def test_matches_trapezoid_quadrature(self):
        # closed form vs 128-point trapezoid over the periodic square
        rng = np.random.default_rng(11)
        t = np.linspace(0.0, 2 * np.pi, 128, endpoint=False)
        X, Y = np.meshgrid(t, t)
        cell = (2 * np.pi / 128) ** 2
        for _ in range(50):
            m, n = int(rng.integers(0, 5)), int(rng.integers(0, 5))
            coeffs = PlanarCoeffs(*(rng.standard_normal(4) + 0.05))
            comp = rng.choice(["u", "v", "w"])
            quad = float(np.sum(planar_factor(WaveIndex(m, n, 0), coeffs, comp, X, Y) ** 2)) * cell
            exact = planar_l2_weight(WaveIndex(m, n, 0), coeffs, comp)
            assert abs(quad - exact) < 1e-10 * max(1.0, exact)


# ---------------------------------------------------------------------------
# ZProfile
# ---------------------------------------------------------------------------


class TestZProfile:
    def test_canonicalization_drops_null_atoms(self):
        assert ZProfile.sin(0.0).is_zero
        assert ZProfile.sinh(0.0).is_zero
        # cos(0 z) and cosh(0 z) collapse to the constant 1
        assert ZProfile.cos(0.0).at(0.37) == pytest.approx(1.0)
        assert ZProfile.cosh(0.0).at(-0.9) == pytest.approx(1.0)
        assert ZProfile.cos(0.0) == ZProfile.cosh(0.0) == ZProfile.const(1.0)

    @pytest.mark.parametrize("raw", [[("exp", 1.0, 1.0)], [("exp", 0.0, 1.0)],
                                     [("cos", 1.0, 1.0), ("tanh", 2.0, 0.0)]])
    def test_unknown_atom_kind_is_invalid_case(self, raw):
        # a term is (j, lam, c); a (kind, frequency, weight) triple of any
        # kind has no meaning there, so it is refused where the profile is made
        with pytest.raises(InvalidCase, match="z-profile term"):
            ZProfile.make(raw)

    @pytest.mark.parametrize("raw", [[(-1, 0.0, 1.0)], [(1.5, 0.0, 1.0)], [(0, "x", 1.0)],
                                     [(0, 1.0, None)], [(0, 1.0, 1e308), (0, 1.0, 1e308)],
                                     [(0, math.inf, 1.0)]])
    def test_malformed_or_overflowing_terms_are_invalid_case(self, raw):
        with pytest.raises(InvalidCase):
            ZProfile.make(raw)

    @pytest.mark.parametrize("kind", ["sinh", "cosh"])
    def test_a_weight_past_double_precision_is_invalid_case(self, kind):
        # the weight of w cosh(k z) is w e^k / 2 at each wall
        assert math.isfinite(getattr(ZProfile, kind)(700.0).at(1.0))
        with pytest.raises(InvalidCase, match="leaves double precision"):
            getattr(ZProfile, kind)(720.0)
        with pytest.raises(InvalidCase, match="leaves double precision"):
            getattr(ZProfile, kind)(700.0, 1e10)

    def test_terms_are_the_exponential_form(self):
        # c z^j exp(lam (z - z0)), z0 = sign(Re lam); conjugates folded
        assert ZProfile.cos(2.0, 3.0).terms == ((0, 2j, 3.0),)
        assert ZProfile.sin(-2.0, 3.0).terms == ((0, 2j, 3j),)
        assert ZProfile.poly(2, 0.5).terms == ((2, 0j, 0.5),)
        (j1, l1, c1), (j2, l2, c2) = ZProfile.sinh(1.5, 2.0).terms
        assert (j1, l1, j2, l2) == (0, -1.5, 0, 1.5)
        assert c2 == -c1 == pytest.approx(math.exp(1.5), rel=1e-15)
        assert ZProfile.make([(1, 2 - 3j, 1 + 1j)]).terms == ((1, 2 + 3j, 1 - 1j),)
        assert ZProfile.make([(0, 2.0, 1j)]).is_zero  # Re(i e^{2 z}) = 0

    def test_negative_frequency_folds_into_weight(self):
        z = np.linspace(-1, 1, 13)
        assert np.allclose(ZProfile.sin(-2.0).eval(z), -np.sin(2 * z))
        assert np.allclose(ZProfile.cos(-2.0).eval(z), np.cos(2 * z))

    def test_algebra_matches_pointwise(self):
        z = np.linspace(-1, 1, 17)
        f = ZProfile.sin(1.3) + ZProfile.cos(0.7).scale(2.0) - ZProfile.poly(2)
        expect = np.sin(1.3 * z) + 2 * np.cos(0.7 * z) - z**2
        assert np.allclose(f.eval(z), expect, atol=1e-14)

    def test_exact_derivative_against_finite_differences(self):
        f = (ZProfile.sin(2.0) + ZProfile.cosh(1.1).scale(0.5)
             + ZProfile.poly(3, -0.7))
        df = f.derivative()
        z = np.linspace(-0.95, 0.95, 21)
        h = 1e-6
        fd = (f.eval(z + h) - f.eval(z - h)) / (2 * h)
        assert np.max(np.abs(df.eval(z) - fd)) < 1e-8

    def test_derivative_closed_under_atoms(self):
        f = ZProfile.sin(2.0) + ZProfile.sinh(3.0) + ZProfile.poly(4)
        g = f
        for _ in range(5):
            g = g.derivative()  # stays inside the exponential form
            assert {lam for _, lam, _ in g.terms} <= {2j, 3, -3, 0}
            assert all(isinstance(j, int) and 0 <= j <= 4 for j, _, _ in g.terms)

    def test_endpoint_evaluation_is_exact(self):
        f = ZProfile.cos(math.pi / 2)
        assert f.at(1.0) == pytest.approx(0.0, abs=1e-16)
        assert f.at(-1.0) == pytest.approx(0.0, abs=1e-16)

    def test_product_expands_exactly(self):
        z = np.linspace(-1, 1, 29)
        f, g = ZProfile.sin(2.0), ZProfile.cos(3.0)
        prod = f.product(g)
        assert np.allclose(prod.eval(z), f.eval(z) * g.eval(z), atol=1e-14)
        h = ZProfile.sinh(1.0).product(ZProfile.cosh(2.0))
        assert np.allclose(h.eval(z), np.sinh(z) * np.cosh(2 * z), atol=1e-12)

    def test_mixed_trig_hyperbolic_product_is_exact(self):
        # sin(z) cosh(z) is two terms, with rates -1 + i and 1 + i
        z = np.linspace(-1, 1, 21)
        prod = ZProfile.sin(1.0).product(ZProfile.cosh(1.0))
        assert [lam for _, lam, _ in prod.terms] == [-1 + 1j, 1 + 1j]
        assert np.allclose(prod.eval(z), np.sin(z) * np.cosh(z), rtol=0, atol=1e-15)
        with mpmath.workdps(40):
            ref = mpmath.quad(lambda t: mpmath.sin(t) ** 2 * mpmath.cosh(t), [-1, 1])
        assert prod.inner(ZProfile.sin(1.0)) == pytest.approx(float(ref), rel=1e-14)

    def test_steep_boundary_layers_stay_in_range(self):
        # e^{mu z} / e^{mu} at mu = 1e4: the factor peaks at 1 on the wall
        # and its square and moments are exact where e^mu would overflow
        layer = ZProfile.make([(0, 1e4, 1.0)])
        assert layer.at(1.0) == 1.0 and layer.at(0.0) == 0.0
        assert layer.inner(layer) == pytest.approx(1.0 / 2e4, rel=1e-14)
        wave = ZProfile.cos(1e3)
        assert wave.product(layer).inner(ZProfile.const(1.0)) == pytest.approx(
            (1e4 * math.cos(1e3) + 1e3 * math.sin(1e3)) / (1e8 + 1e6), rel=1e-13)

    @given(
        w1=st.floats(-5, 5, allow_nan=False),
        w2=st.floats(-5, 5, allow_nan=False),
        freq=st.floats(0.1, 8.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_linearity_property(self, w1, w2, freq):
        f = ZProfile.sin(freq, w1) + ZProfile.sin(freq, w2)
        g = ZProfile.sin(freq, w1 + w2)
        z = np.linspace(-1, 1, 9)
        assert np.allclose(f.eval(z), g.eval(z), atol=1e-12)

    @given(
        f1=st.sampled_from(["sin", "cos"]),
        f2=st.sampled_from(["sin", "cos"]),
        k1=st.floats(0.2, 6.0, allow_nan=False),
        k2=st.floats(0.2, 6.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_trig_product_commutes_and_matches_pointwise(self, f1, f2, k1, k2):
        a = getattr(ZProfile, f1)(k1)
        b = getattr(ZProfile, f2)(k2)
        z = np.linspace(-1, 1, 11)
        ab = a.product(b)
        ba = b.product(a)
        assert np.allclose(ab.eval(z), a.eval(z) * b.eval(z), atol=1e-12)
        assert np.allclose(ab.eval(z), ba.eval(z), atol=1e-12)


# ---------------------------------------------------------------------------
# one derivative, product and evaluation rule: the z-rules against 40-digit
# mpmath, the planar sin/cos rule against in-test copies of former rules
# ---------------------------------------------------------------------------


_MP_ATOMS = {"sin": mpmath.sin, "cos": mpmath.cos,
             "sinh": mpmath.sinh, "cosh": mpmath.cosh}


def former_terms(kind, j, p, w):
    """w z^j kind(p z) in the exponential form, written out here apart from
    the named constructors: cos(p z) = Re e^{i p z}, sin(p z) = Re(-i e^{i p z}),
    and e^{+-p z} = e^p e^{+-p (z -+ 1)}."""
    if kind == "poly":
        return [(j, 0.0, w)]
    if kind in ("sin", "cos"):
        return [(j, 1j * p, w if kind == "cos" else -1j * w)]
    half = 0.5 * w * math.exp(p)
    return [(j, p, half), (j, -p, half if kind == "cosh" else -half)]


def build(atoms):
    """The profile of (kind, j, p, w) atoms, kind "poly" being z^j alone."""
    return ZProfile.make([term for atom in atoms for term in former_terms(*atom)])


def mp_value(atoms, z, envelope=False):
    """sum of w z^j kind(p z) at the working precision; the envelope takes
    |.| of every factor, with 1 for sin/cos and cosh for sinh/cosh."""
    total = mpmath.mpf(0)
    for kind, j, p, w in atoms:
        if envelope:
            atom = (1 if kind in ("poly", "sin", "cos")
                    else mpmath.cosh(mpmath.mpf(p) * z))
            total += abs(w) * abs(z) ** j * atom
        else:
            atom = 1 if kind == "poly" else _MP_ATOMS[kind](mpmath.mpf(p) * z)
            total += mpmath.mpf(w) * z ** j * atom
    return total


_MP_SLOPES = {"sin": mpmath.cos, "cos": lambda x: -mpmath.sin(x),
              "sinh": mpmath.cosh, "cosh": mpmath.sinh}


def mp_slope(atoms, z, envelope=False):
    """d/dz of `mp_value`: w (j z^(j-1) kind(p z) + p z^j kind'(p z)); the
    envelope bounds each factor as `mp_value` does."""
    total = mpmath.mpf(0)
    for kind, j, p, w in atoms:
        atom = mp_value([(kind, 0, p, 1.0)], z, envelope)
        if envelope:
            total += abs(w) * (j * abs(z) ** max(j - 1, 0) + p * abs(z) ** j) * atom
            continue
        slope = 0 if kind == "poly" else _MP_SLOPES[kind](mpmath.mpf(p) * z)
        total += mpmath.mpf(w) * ((j * z ** (j - 1) * atom if j else 0) + p * z ** j * slope)
    return total


def mp_quad(f, rates):
    """mpmath.quad over [-1, 1] on pieces spanning about 32 radians of the
    summed trig rate plus 16 e-folds of the hyperbolic one."""
    trig, hyp = rates
    pts = mpmath.linspace(-1, 1, int(trig / 32.0 + hyp / 16.0) + 3)
    return mpmath.quad(f, pts, method="gauss-legendre")


def rates(*profiles):
    """(summed trig rate, summed hyperbolic rate) of atom lists."""
    return tuple(sum(p for atoms in profiles for kind, _, p, _ in atoms if kind in kinds)
                 for kinds in (("sin", "cos"), ("sinh", "cosh")))


@st.composite
def mixed_profiles(draw):
    """Two profiles of one to three atoms w z^j kind(p z) of every former
    kind with j <= 2: trig rates log-uniform in [1e-3, 1e2], hyperbolic ones
    in [1e-3, 30]."""
    out = []
    for _ in range(2):
        atoms = []
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(("sin", "cos", "sinh", "cosh", "poly")))
            top = 2.0 if kind in ("sin", "cos") else math.log10(30.0)
            p = 0.0 if kind == "poly" else 10.0 ** draw(st.floats(-3.0, top))
            w = draw(st.floats(0.1, 2.0)) * draw(st.sampled_from((-1.0, 1.0)))
            atoms.append((kind, draw(st.integers(0, 2)), p, w))
        out.append(atoms)
    return out


ZS = (-1.0, -0.83, -0.5, -0.1, 0.0, 0.27, 0.6, 0.95, 1.0)


class TestExponentialRules:
    """Each z-rule against a 40-digit mpmath evaluation of the closed form.
    A rate p amplifies the rounding of p z by p, so pointwise bounds are
    1e-14 (1 + summed rates) times the envelope, and integrals keep the
    1e-14 (1 + hyperbolic rate) times the envelope integral of
    `TestInnerProperty`."""

    @given(mixed_profiles())
    @example([[("sin", 0, 3.0, 1.0)], [("cosh", 0, 20.0, 1.0)]])
    @example([[("sinh", 2, 25.0, -0.5), ("cos", 1, 0.1, 1.0)],
              [("cosh", 2, 30.0, 1.0), ("sin", 0, 90.0, 2.0)]])
    @example([[("sin", 1, 1e-3, 1.0)], [("sinh", 2, 1e-3, 1.0)]])
    @settings(max_examples=20, deadline=None)
    def test_rules_match_mpmath(self, profiles):
        a_atoms, b_atoms = profiles
        a, b = build(a_atoms), build(b_atoms)
        product, slope = a.product(b), a.derivative()
        trig, hyp = rates(a_atoms, b_atoms)
        tol = 1e-14 * (1.0 + trig + hyp)
        with mpmath.workdps(40):
            for z in ZS:
                mz = mpmath.mpf(z)
                va, vb = mp_value(a_atoms, mz), mp_value(b_atoms, mz)
                ea, eb = mp_value(a_atoms, mz, True), mp_value(b_atoms, mz, True)
                assert abs(a.at(z) - va) <= tol * ea, ("eval", z)
                assert abs(product.at(z) - va * vb) <= tol * ea * eb, ("product", z)
                ref, env = mp_slope(a_atoms, mz), mp_slope(a_atoms, mz, True)
                assert abs(slope.at(z) - ref) <= tol * env, ("derivative", z)

            ref = mp_quad(lambda t: mp_value(a_atoms, t) * mp_value(b_atoms, t), (trig, hyp))
            scale = mp_quad(lambda t: mp_value(a_atoms, t, True) * mp_value(b_atoms, t, True),
                            (0.0, hyp))
            bound = 1e-14 * (1.0 + hyp) * scale
            assert abs(a.inner(b) - ref) <= bound, ("inner", a.inner(b), ref)
            total = product.inner(ZProfile.const(1.0))
            assert abs(total - ref) <= bound, ("product integral", total, ref)


def parity_derivative(raw, axis):
    """Reference: the former sin/cos rule of `ScalarField._derivative`,
    d/dt trig(k t) = +-k next(k t), on (profile, kx, ky, xpar, ypar, weight)
    entries; the result goes through the constructor."""
    out = []
    for entry in raw:
        k, par = entry[1 + axis], entry[3 + axis]
        if k == 0:
            continue
        entry = list(entry)
        entry[3 + axis] = "cos" if par == "sin" else "sin"
        entry[5] *= float(k) if par == "sin" else -float(k)
        out.append(tuple(entry))
    return ScalarField(out)


# points spanning the periodic square and the channel, walls included
_XS, _YS, _ZS = np.meshgrid(np.linspace(0.0, 2.0 * np.pi, 11, endpoint=False),
                            np.linspace(0.0, 2.0 * np.pi, 7, endpoint=False),
                            np.array(ZS), indexing="ij", sparse=True)


def assert_same_values(got, ref, rtol=1e-14):
    """Two fields agree at `_XS, _YS, _ZS`, relative to the reference's
    largest value there."""
    want = ref.eval(_XS, _YS, _ZS)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got.eval(_XS, _YS, _ZS) - want)) <= rtol * scale


def table_trig_product(k1, par1, k2, par2):
    """Reference: the former four-case table of `fields.trig_product`."""
    lo, hi = k1 - k2, k1 + k2
    raw = {("sin", "sin"): [(0.5, lo, "cos"), (-0.5, hi, "cos")],
           ("cos", "cos"): [(0.5, lo, "cos"), (0.5, hi, "cos")],
           ("sin", "cos"): [(0.5, lo, "sin"), (0.5, hi, "sin")],
           ("cos", "sin"): [(-0.5, lo, "sin"), (0.5, hi, "sin")]}[par1, par2]
    out = []
    for w, k, par in raw:
        if k < 0:
            k = -k
            if par == "sin":
                w = -w
        if not (k == 0 and par == "sin"):
            out.append((w, k, par))
    return out


def chain_atom_product(k1, p1, k2, p2, w):
    """Reference: the former if-chain of `core._atom_product`, as
    (kind, frequency, weight) atoms; frequencies may be negative or zero."""
    if k1 == "poly" and p1 == 0.0:
        return [(k2, p2, w)]
    if k2 == "poly" and p2 == 0.0:
        return [(k1, p1, w)]
    if k1 == "poly" and k2 == "poly":
        return [("poly", p1 + p2, w)]
    if k1 in ("sin", "cos") and k2 in ("sin", "cos"):
        if k1 == "sin" and k2 == "sin":
            return [("cos", p1 - p2, 0.5 * w), ("cos", p1 + p2, -0.5 * w)]
        if k1 == "cos" and k2 == "cos":
            return [("cos", p1 - p2, 0.5 * w), ("cos", p1 + p2, 0.5 * w)]
        if k1 == "sin" and k2 == "cos":
            return [("sin", p1 + p2, 0.5 * w), ("sin", p1 - p2, 0.5 * w)]
        return [("sin", p1 + p2, 0.5 * w), ("sin", p2 - p1, 0.5 * w)]
    if k1 == "sinh" and k2 == "sinh":
        return [("cosh", p1 + p2, 0.5 * w), ("cosh", p1 - p2, -0.5 * w)]
    if k1 == "cosh" and k2 == "cosh":
        return [("cosh", p1 + p2, 0.5 * w), ("cosh", p1 - p2, 0.5 * w)]
    if k1 == "sinh" and k2 == "cosh":
        return [("sinh", p1 + p2, 0.5 * w), ("sinh", p1 - p2, 0.5 * w)]
    return [("sinh", p1 + p2, 0.5 * w), ("sinh", p2 - p1, 0.5 * w)]


# profiles holding every former atom kind, down to tiny and up to large
# frequencies, as (kind, j, p, w) atoms
EVERY_KIND = (
    [("sin", 0, 1.3, 0.7), ("cos", 0, 2.1, -0.4), ("sinh", 0, 1.5, 0.3),
     ("cosh", 0, 0.9, 0.2), ("poly", 0, 0.0, -1.5), ("poly", 1, 0.0, 0.25),
     ("poly", 2, 0.0, 0.1)],
    [("sin", 0, 1e-8, 2.0), ("cos", 0, 1e3, 0.5), ("sinh", 0, 12.0, 1e-5),
     ("cosh", 0, 3.3, -0.9), ("poly", 3, 0.0, 2.0)],
    [("sin", 0, 7.25, -3.0), ("cos", 0, 0.1, 1e-3), ("sinh", 0, 0.5, -2.0),
     ("cosh", 0, 40.0, 1e-12)],
)


class TestOneAtomRule:
    @pytest.mark.parametrize("profile", EVERY_KIND)
    def test_derivative_matches_the_if_chain(self, profile):
        # five derivatives against the former per-kind rule, d/dz of
        # w kind(p z) = w p next(p z) and of w z^j = w j z^(j-1), taken at
        # 40 digits; each derivative multiplies the scale by at most the rate
        nxt = {"sin": ("cos", 1), "cos": ("sin", -1), "sinh": ("cosh", 1), "cosh": ("sinh", 1)}
        got, ref = build(profile), list(profile)
        top = max(p for _, _, p, _ in profile)
        for order in range(1, 6):
            got = got.derivative()
            ref = [(nxt[kind][0], j, p, nxt[kind][1] * w * p) if kind != "poly"
                   else ("poly", j - 1, 0.0, w * j)
                   for kind, j, p, w in ref if kind != "poly" or j >= 1]
            with mpmath.workdps(40):
                for z in ZS:
                    mz = mpmath.mpf(z)
                    env = mp_value(ref, mz, True)
                    assert abs(got.at(z) - mp_value(ref, mz)) <= 1e-14 * (1 + top) * env, \
                        (order, z)

    @pytest.mark.parametrize("profile", EVERY_KIND)
    def test_planar_derivative_matches_the_parity_rule(self, profile):
        profile = build(profile)
        raw = [(profile, 2, 3, "sin", "cos", 1.0), (profile.scale(-0.5), 1, 0, "cos", "cos", 1.0),
               (profile, 0, 4, "cos", "sin", -2.0), (profile, 5, 1, "cos", "sin", 0.25)]
        field = ScalarField(raw)
        for axis, derivative in enumerate((field.dx(), field.dy())):
            assert_same_values(derivative, parity_derivative(raw, axis))

    def test_product_rule_matches_pointwise_for_every_kind_pair(self):
        z = np.linspace(-1.0, 1.0, 21)
        kinds = ("sin", "cos", "sinh", "cosh")
        for k1, k2 in itertools.product(kinds, repeat=2):
            for p1, p2 in ((1.3, 0.7), (0.7, 1.3), (2.0, 2.0)):
                a, b = getattr(ZProfile, k1)(p1), getattr(ZProfile, k2)(p2)
                got = a.product(b).eval(z)
                assert np.allclose(got, a.eval(z) * b.eval(z), rtol=0, atol=1e-14)

    def test_product_matches_the_if_chain(self):
        # the former product-to-sum expansion, evaluated at 40 digits; the
        # top hyperbolic rate is 100, since e^1000 / 2 is past double precision
        for kinds, top in ((("sin", "cos"), 1e3), (("sinh", "cosh"), 1e2)):
            profiles = [[(kind, 0, p, w) for kind, p, w in zip(
                itertools.cycle(kinds), freqs, (0.7, -0.4, 0.3, 1e-5, -2.0))]
                + [("poly", 0, 0.0, c)]
                for freqs, c in (((1.3, 2.1, 1.5, 0.9), -1.5),
                                 ((1e-8, top, 12.0, 3.3, 7.25), 0.0),
                                 ((0.5, 1.0, 1.5, 0.5, 2.0), 0.25))]
            for a, b in itertools.product(profiles, repeat=2):
                got = build(a).product(build(b))
                ref = [(kind, 0, p, w) for k1, _, p1, w1 in a for k2, _, p2, w2 in b
                       for kind, p, w in chain_atom_product(k1, p1, k2, p2, w1 * w2)]
                trig, hyp = rates(a, b)
                with mpmath.workdps(40):
                    for z in ZS:
                        mz = mpmath.mpf(z)
                        env = mp_value(a, mz, True) * mp_value(b, mz, True)
                        assert abs(got.at(z) - mp_value(ref, mz)) <= \
                            1e-14 * (1 + trig + hyp) * env, (kinds, z)

    def test_trig_product_matches_the_four_case_table(self):
        # one planar factor per axis, sampled along that axis at 40 digits
        t = np.linspace(-7.0, 7.0, 29)
        one = ZProfile.const(1.0)
        with mpmath.workdps(40):
            for k1, k2 in itertools.product(range(9), repeat=2):
                for par1, par2 in itertools.product(("sin", "cos"), repeat=2):
                    ref = [sum(w * _MP_ATOMS[par](k * mpmath.mpf(x)) for w, k, par in
                               table_trig_product(k1, par1, k2, par2)) for x in t]
                    for axis in (0, 1):
                        def factor(k, par):
                            return ScalarField([(one, *((k, 0) if axis == 0 else (0, k)),
                                                 *((par, "cos") if axis == 0 else ("cos", par)),
                                                 1.0)])

                        prod = factor(k1, par1).product(factor(k2, par2))
                        assert all(type(kx) is int and type(ky) is int
                                   for kx, ky, *_ in prod.terms)
                        xy = (t, 0.0 * t) if axis == 0 else (0.0 * t, t)
                        got = prod.eval(*xy, 0.0 * t)
                        assert all(abs(g - r) <= 1e-15 * (1 + (k1 + k2) * abs(x))
                                   for g, r, x in zip(got, ref, t)), (k1, par1, k2, par2)

    def test_field_product_matches_the_constructor_route(self):
        # keys that collide after the product-to-sum expansion, zero
        # wavenumbers and cancelling terms: the product must agree pointwise
        # with the expansion by the four-case table sent through the
        # constructor
        def entries(profile, sign):
            return [(profile, 2, 3, "sin", "cos", 1.0),
                    (profile.scale(-0.5), 1, 0, "cos", "cos", sign),
                    (profile, 0, 4, "cos", "sin", -2.0),
                    (profile, 1, 1, "sin", "sin", 0.25 * sign),
                    (profile, 3, 1, "cos", "sin", 0.25)]

        raws = [entries(build(atoms), sign) for atoms in EVERY_KIND for sign in (1.0, -1.0)]
        for f, g in itertools.product(raws, repeat=2):
            route = [(p1.product(p2), kx, ky, xp, yp, w1 * w2 * wx * wy)
                     for p1, kx1, ky1, xp1, yp1, w1 in f
                     for p2, kx2, ky2, xp2, yp2, w2 in g
                     for wx, kx, xp in table_trig_product(kx1, xp1, kx2, xp2)
                     for wy, ky, yp in table_trig_product(ky1, yp1, ky2, yp2)]
            assert_same_values(ScalarField(f).product(ScalarField(g)), ScalarField(route))

    def test_factor_evaluation_matches_trig(self):
        # the planar factors against 40-digit sin/cos at the same points
        t = np.linspace(-7.0, 7.0, 29)
        one = ZProfile.const(1.0)
        with mpmath.workdps(40):
            for k in range(9):
                for par in ("cos",) if k == 0 else ("sin", "cos"):  # sin(0 t) is zero
                    ref = [_MP_ATOMS[par](k * mpmath.mpf(x)) for x in t]
                    for xpar, ypar, kx, ky, xy in ((par, "cos", k, 0, (t, 0.0 * t)),
                                                   ("cos", par, 0, k, (0.0 * t, t))):
                        got = ScalarField([(one, kx, ky, xpar, ypar, 1.0)]).eval(*xy, 0.0 * t)
                        assert all(abs(g - r) <= 1e-15 * (1 + k * abs(x))
                                   for g, r, x in zip(got, ref, t)), (par, k)
        edges = np.array([-np.inf, np.inf])
        constant = ScalarField([(one, 0, 0, "cos", "cos", 1.0)])
        assert np.array_equal(constant.eval(edges, edges, np.zeros(2)), [1.0, 1.0])

    @pytest.mark.parametrize("k", [1.5, True, math.nan, -1, "2"], ids=repr)
    def test_wavenumber_must_be_a_non_negative_integer(self, k):
        # a float key would weigh the harmonic as a full period: 1.5 gave
        # an L2 norm of 39.48 where the field's is 27.17
        for kx, ky in ((k, 0), (0, k)):
            with pytest.raises(InvalidCase, match="wavenumber"):
                ScalarField([(ZProfile.const(1.0), kx, ky, "cos", "cos", 1.0)])
        assert ScalarField([(ZProfile.const(1.0), np.int64(2), 0, "cos", "cos", 1.0)]) \
            .l2_sq() == pytest.approx(2.0 * 2.0 * math.pi ** 2)

    def test_unknown_kind_is_not_evaluated(self):
        # a parity other than sin or cos is refused where the field is made
        with pytest.raises(InvalidCase, match="parity must be sin or cos, got 'exp'"):
            ScalarField([(ZProfile.const(1.0), 1, 0, "exp", "cos", 1.0)])


# ---------------------------------------------------------------------------
# the field algebra against references written out apart from the package
# ---------------------------------------------------------------------------

# zero, axis and oblique wavevectors, of either sign
_WAVEVECTORS = ((0, 0), (2, 0), (0, 3), (0, -1), (1, 2), (2, -1), (-1, -3), (-3, 1))


def random_terms(rng, count=5):
    """Raw (kx, ky, j, lam, c) terms: trig (imaginary rate), hyperbolic
    (real rate), polynomial (zero rate) and mixed z-factors, j <= 2."""
    terms = []
    for _ in range(count):
        kx, ky = _WAVEVECTORS[rng.integers(len(_WAVEVECTORS))]
        lam = (1j * rng.uniform(-3.0, 3.0), complex(rng.uniform(-3.0, 3.0)), 0j,
               complex(*rng.uniform(-2.0, 2.0, 2)))[rng.integers(4)]
        terms.append((kx, ky, int(rng.integers(0, 3)), lam, complex(*rng.normal(size=2))))
    return terms


def direct(terms, x, y, z, envelope=False):
    """The terms at the points (x, y, z), term by term with numpy:
    Re c z^j e^{lam (z - z0)} e^{i (kx x + ky y)}, z0 = sign(Re lam).  The
    envelope sums |c| |z|^j e^{Re lam (z - z0)} instead."""
    total = 0.0
    for kx, ky, j, lam, c in terms:
        z0 = np.sign(lam.real)
        if envelope:
            total = total + abs(c) * np.abs(z) ** j * np.exp(lam.real * (z - z0))
        else:
            total = total + (c * z ** j * np.exp(lam * (z - z0) + 1j * (kx * x + ky * y))).real
    return total


def field_of(terms):
    """The field of raw (kx, ky, j, lam, c) terms, in canonical form."""
    return ScalarField._of(_canonical(terms))


def random_points(rng, count=40, wall_gap=0.0):
    x, y = rng.uniform(0.0, 2.0 * np.pi, (2, count))
    return x, y, rng.uniform(-1.0 + wall_gap, 1.0 - wall_gap, count)


class TestFieldAlgebra:
    """Fields of random terms mixing zero, axis and oblique wavevectors with
    trig, hyperbolic and polynomial z-terms, checked pointwise and by
    quadrature against the terms written out here."""

    SEEDS = range(12)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_evaluation_matches_the_terms(self, seed):
        rng = np.random.default_rng(seed)
        terms = random_terms(rng)
        points = random_points(rng)
        got = field_of(terms).eval(*points)
        assert np.all(np.abs(got - direct(terms, *points)) <= 1e-14 * direct(terms, *points, True))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_either_conjugate_spelling_is_one_field(self, seed):
        rng = np.random.default_rng(seed)
        terms = random_terms(rng)
        flips = rng.integers(0, 2, len(terms))
        spelled = [(-kx, -ky, j, lam.conjugate(), c.conjugate()) if flip else (kx, ky, j, lam, c)
                   for (kx, ky, j, lam, c), flip in zip(terms, flips)]
        assert field_of(spelled).terms == field_of(terms).terms
        profile = [(j, lam, c) for _, _, j, lam, c in terms]
        assert ZProfile.make([(j, lam.conjugate(), c.conjugate()) for j, lam, c in profile]) \
            == ZProfile.make(profile)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_product_matches_pointwise(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_terms(rng), random_terms(rng)
        points = random_points(rng)
        got = field_of(a).product(field_of(b)).eval(*points)
        ref = direct(a, *points) * direct(b, *points)
        bound = 1e-14 * direct(a, *points, True) * direct(b, *points, True)
        assert np.all(np.abs(got - ref) <= bound)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_derivatives_match_central_differences(self, seed):
        # step 1e-5: truncation about h^2 / 6 rate^3 and rounding about
        # 1e-16 / h, both below 1e-8 of the envelope at rates up to 3
        rng = np.random.default_rng(seed)
        terms = random_terms(rng)
        field = field_of(terms)
        x, y, z = random_points(rng, wall_gap=0.05)
        h = 1e-5
        steps = ((h, 0, 0), (0, h, 0), (0, 0, h))
        bound = 1e-8 * (1.0 + direct(terms, x, y, z, True))
        for derivative, (dx, dy, dz) in zip((field.dx(), field.dy(), field.dz()), steps):
            fd = (field.eval(x + dx, y + dy, z + dz) - field.eval(x - dx, y - dy, z - dz)) / (2 * h)
            assert np.all(np.abs(derivative.eval(x, y, z) - fd) <= bound)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_inner_matches_tensor_product_quadrature(self, seed):
        # Gauss-Legendre in z; the trapezoid rule in x and y is exact for
        # the product's wavevectors, all below the 16 points per period
        rng = np.random.default_rng(seed)
        a, b = random_terms(rng), random_terms(rng)
        nodes, weights = np.polynomial.legendre.leggauss(64)
        t = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
        x, y, z = np.meshgrid(t, t, nodes, indexing="ij", sparse=True)
        cell = (2.0 * np.pi / 16) ** 2 * weights
        ref = float(np.sum(direct(a, x, y, z) * direct(b, x, y, z) * cell))
        mass = float(np.sum(np.abs(direct(a, x, y, z) * direct(b, x, y, z)) * cell))
        got = field_of(a).inner(field_of(b))
        assert abs(got - ref) <= 1e-12 * mass, (got, ref, mass)
        if seed == 0:
            both = PlanarField.from_scalars(*(field_of(terms) for terms in (a, b, a)))
            twice = 2.0 * field_of(a).l2_sq() + field_of(b).l2_sq()
            assert both.inner(both) == pytest.approx(twice, rel=1e-14)


    @pytest.mark.parametrize("seed", SEEDS)
    def test_sum_is_the_canonical_form_of_both_term_lists_bit_for_bit(self, seed):
        # `+` merges two canonical maps; it must add the same weights in the
        # same order as `_canonical` of the concatenated terms
        rng = np.random.default_rng(seed)
        a, b = field_of(random_terms(rng)), field_of(random_terms(rng))
        partly_cancelled = ScalarField._of({k: terms[:1] for k, terms in a._harmonics.items()})
        for left, right in ((a, b), (b, a), (a, a), (a, a.scale(-1.0)),
                            (a, partly_cancelled.scale(-1.0)), (a, ScalarField())):
            assert repr((left + right).terms) == repr(field_of([*left.terms, *right.terms]).terms)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_inner_is_the_integral_of_the_product_bit_for_bit(self, seed):
        # `inner` pairs terms with conjugate halves directly; it must add the
        # same weights in the same order as the per-harmonic integral of the
        # raw product, the route it replaced
        def former_integral(raw):
            acc = {}
            for kx, ky, j, lam, c in raw:
                if not (kx or ky):
                    if lam.imag < 0.0:
                        lam, c = lam.conjugate(), c.conjugate()
                    acc[j, lam] = acc[j, lam] + c if (j, lam) in acc else c
            return sum((c * _moment(j, lam)).real for (j, lam), c in acc.items())

        def former_inner(a, b):
            total = 0.0
            for (kx, ky), terms in a.items():
                if (kx, ky) in b:
                    halves = _halves((kx, ky, j, lam, c) for j, lam, c in b[kx, ky])
                    if kx or ky:
                        halves = halves[1::2]
                    total += former_integral(_product([(kx, ky, *term) for term in terms], halves))
            return TWO_PI * TWO_PI * total

        rng = np.random.default_rng(seed)
        a, b = field_of(random_terms(rng)), field_of(random_terms(rng))
        for left, right in ((a, b), (b, a), (a, a), (b, b)):
            assert repr(left.inner(right)) == repr(former_inner(left._harmonics, right._harmonics))

    @staticmethod
    def former_laplacian(field):
        """The route `PlanarField.laplacian` replaced: one `_canonical` pass
        over each harmonic's slope of its slope and -(kx^2 + ky^2) times it."""
        return ScalarField._of(_canonical(
            (kx, ky, j, lam, c) for (kx, ky), terms in field._harmonics.items()
            for j, lam, c in (*_slope(_slope(terms)),
                              *((j, lam, -(kx * kx + ky * ky) * c) for j, lam, c in terms))))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_laplacian_is_the_former_inline_route_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        parts = [field_of(random_terms(rng, count=8)) for _ in range(3)]
        terms = [term for part in parts for term in part.terms]
        assert any(j for _, _, j, _, _ in terms) and any(not (kx or ky) for kx, ky, *_ in terms)
        got = PlanarField.from_scalars(*parts).laplacian()
        for comp, part in zip(COMPONENTS, parts):
            assert repr(got.component(comp).terms) == repr(self.former_laplacian(part).terms)

    def test_laplacian_of_powers_sharing_a_rate_agrees_with_the_former_route_to_rounding(self):
        # z^j e^{lam z} terms of one rate feed each other's derivatives, and
        # d/dz now merges them once per derivative, not once for both: the
        # weights are the same sums rounded in another order
        rng = np.random.default_rng(3)
        rates = (0.7j, complex(-1.3), complex(0.4, 2.1))
        terms = [(kx, ky, j, lam, complex(*rng.normal(size=2)))
                 for kx, ky in ((0, 0), (1, 2)) for lam in rates for j in range(3)]
        field = field_of(terms)
        got = PlanarField.from_scalars(field, field, field).laplacian().component("u")
        want = self.former_laplacian(field)
        assert [t[:4] for t in got.terms] == [t[:4] for t in want.terms]
        scale = max(abs(c) for *_, c in want.terms)
        assert all(abs(a[4] - b[4]) <= 1e-15 * scale for a, b in zip(got.terms, want.terms))

    @pytest.mark.parametrize("inputs", ["random_terms", "profiles_sweep"])
    def test_profile_is_the_field_at_zero_wavevector_bit_for_bit(self, inputs):
        # every ZProfile rule is the k = 0 call of the kernel its ScalarField
        # counterpart calls; the former routes (a sum re-sorted through
        # `_canonical`, a scale loop, an inner product that integrates the
        # canonical product) give the same bits
        def former_sum(a, b):
            return _canonical((0, 0, *term) for term in a.terms + b.terms).get((0, 0), ())

        def former_scale(a, factor):
            return tuple((j, lam, w) for j, lam, c in a.terms if (w := c * factor))

        def former_inner(a, b):
            return float(sum((c * _moment(j, lam)).real for j, lam, c in a.product(b).terms))

        def at_k0(field):
            assert set(field._harmonics) <= {(0, 0)}
            return field._harmonics.get((0, 0), ())

        if inputs == "random_terms":
            rng = np.random.default_rng(7)
            profiles = [ZProfile.make([(j, lam, c) for _, _, j, lam, c in random_terms(rng)])
                        for _ in range(16)]
        else:
            profiles = []  # (U, V, W, Q) of every index with m, n, p < 3
            for fr in (Friction.navier(), Friction.finite(1.3), Friction.dirichlet()):
                for m, n, p in itertools.product(range(3), repeat=3):
                    for family in PressureFamily:
                        first = fr.first_p(family)
                        if first is not None and p >= first and (
                                m or n or family is PressureFamily.CONSTANT):
                            profiles.extend(_profiles(WaveIndex(m, n, p, family), fr)[2])
            assert any(profile.is_zero for profile in profiles)
        for a, b in zip(profiles, profiles[1:] + profiles[:1]):
            fa, fb = ScalarField._of(a._harmonics), ScalarField._of(b._harmonics)
            assert repr(a.terms) == repr(at_k0(field_of([(0, 0, *t) for t in a.terms])))
            for got, field in ((a + b, fa + fb), (a - b, fa - fb), (a.scale(-0.7), fa.scale(-0.7)),
                               (a.derivative(), fa.dz()), (a.product(b), fa.product(fb))):
                assert repr(got.terms) == repr(at_k0(field))
            assert repr((a + b).terms) == repr(former_sum(a, b))
            # `_canonical` stores a real weight as complex(c.real), +0j, where
            # the merge keeps the -0j of a term that only the scale touched
            assert (a - b).terms == former_sum(a, ZProfile(former_scale(b, -1.0)))
            assert repr(a.scale(-0.7).terms) == repr(former_scale(a, -0.7))
            assert repr(a.inner(b) * (TWO_PI * TWO_PI)) == repr(fa.inner(fb))
            former = former_inner(a, b)
            if inputs == "profiles_sweep":  # the integrals that normalise the modes
                assert repr(a.inner(b)) == repr(former)
            else:  # the same weights, summed in another order
                mass = sum(abs(c * _moment(j, lam)) for j, lam, c in a.product(b).terms)
                assert abs(a.inner(b) - former) <= 1e-15 * mass


# ---------------------------------------------------------------------------
# exact z-integrals
# ---------------------------------------------------------------------------


class TestQuadrature:
    """z-integrals are closed form (`ZProfile.inner`), not sampled."""

    def test_polynomial_exactness_degree_ten(self):
        got = ZProfile.poly(10).inner(ZProfile.const(1.0))
        assert got == pytest.approx(2.0 / 11.0, rel=1e-14)

    def test_trig_integral(self):
        got = ZProfile.cos(math.pi / 2).inner(ZProfile.const(1.0))
        assert got == pytest.approx(4.0 / math.pi, rel=1e-13)


def mp_pair(a, b):
    """(integral, envelope integral) over [-1, 1] of one atom pair at 20
    digits, by mpmath.quad on pieces spanning about 128 radians of the
    summed trig frequency plus 64 e-folds of the hyperbolic one.  The
    envelope replaces sin/cos by 1, sinh/cosh by cosh and z^j by |z|^j: the
    scale of the integrand before any cancellation."""

    def atom(kind, param, z, envelope):
        if kind == "poly":
            return abs(z) ** int(param) if envelope else z ** int(param)
        if envelope:
            return 1 if kind in ("sin", "cos") else mpmath.cosh(param * z)
        return _MP_ATOMS[kind](param * z)

    trig = sum(p for k, p in (a, b) if k in ("sin", "cos"))
    hyp = sum(p for k, p in (a, b) if k in ("sinh", "cosh"))
    with mpmath.workdps(20):
        (k1, p1), (k2, p2) = ((k, mpmath.mpf(p)) for k, p in (a, b))
        pts = mpmath.linspace(-1, 1, int(trig / 64.0 + hyp / 32.0) + 3)
        return tuple(
            mpmath.quad(lambda z: atom(k1, p1, z, env) * atom(k2, p2, z, env), pts,
                        method="gauss-legendre")
            for env in (False, True))


@st.composite
def atom_pairs(draw):
    """Two atoms of any kinds: frequencies log-uniform in [1e-8, 1e3],
    powers of degree 0-3, and trig pairs drawn near-coincident half the
    time."""
    atoms = []
    for _ in range(2):
        kind = draw(st.sampled_from(("sin", "cos", "sinh", "cosh", "poly")))
        param = (float(draw(st.integers(0, 3))) if kind == "poly"
                 else 10.0 ** draw(st.floats(-8.0, 3.0)))
        atoms.append((kind, param))
    (k1, p1), (k2, _) = atoms
    if k1 in ("sin", "cos") and k2 in ("sin", "cos") and draw(st.booleans()):
        atoms[1] = (k2, p1 * (1.0 + 10.0 ** draw(st.floats(-15.0, -3.0))))
    return atoms


class TestInnerProperty:
    @given(atom_pairs())
    # small |lam| against a power, where integration by parts cancels
    @example([("poly", 3.0), ("sin", 1e-3)])
    @example([("poly", 2.0), ("cosh", 0.5)])
    @example([("cos", 2.9), ("poly", 3.0)])
    # frequencies a few ulps apart; hyperbolic growth near and past e^709
    @example([("sin", 1000.0), ("sin", 1000.0000000000002)])
    @example([("cosh", 300.0), ("sinh", 400.0)])
    @example([("cosh", 300.0), ("sinh", 700.0)])
    @example([("sinh", 900.0), ("cosh", 1000.0)])
    @settings(max_examples=60, deadline=None)
    def test_every_atom_pair_matches_mpmath(self, atoms):
        try:
            a, b = (ZProfile.poly(int(param)) if kind == "poly"
                    else getattr(ZProfile, kind)(param) for kind, param in atoms)
        except InvalidCase:
            # the weight e^k / 2 of sinh(k z) or cosh(k z) is past double precision
            assert max(param for kind, param in atoms if kind in ("sinh", "cosh")) > 709.0
            return
        hyp = sum(param for kind, param in atoms if kind in ("sinh", "cosh"))
        ref, scale = mp_pair(*atoms)
        try:
            got = a.inner(b)
        except InvalidCase:
            # a product weight leaves double precision
            assert scale > 1e300
            return
        if not math.isfinite(got):
            assert scale > 1e300
            return
        # a hyperbolic factor amplifies the rounding of its parameter k by k
        assert abs(got - ref) <= 1e-14 * (1.0 + hyp) * scale, (got, ref)
