"""Domain types: indices, friction, planar weights, z-profiles, exact z-integrals."""

import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slipchan.core import (
    Friction,
    PlanarCoeffs,
    PressureFamily,
    WaveIndex,
    ZProfile,
    _atom_eval,
    planar_l2_weight,
    planar_terms,
)
from slipchan.errors import InvalidCase, InvalidIndex
from slipchan.fields import ScalarField, trig_product


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

    def test_with_family(self):
        idx = WaveIndex(1, 2, 3)
        other = idx.with_family(PressureFamily.NONCONSTANT)
        assert other.family is PressureFamily.NONCONSTANT
        assert (other.m, other.n, other.p) == (1, 2, 3)
        assert idx.family is PressureFamily.CONSTANT


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
        ["0.0", "-0", "sticky", "-inf", "nan", "1e-13", -1.0, True, False, None,
         [1.0], {"beta": None}, {"beta": True}, {"alpha": 1.0}],
        ids=repr,
    )
    def test_parse_rejects(self, spec):
        with pytest.raises(InvalidCase):
            Friction.parse(spec)

    def test_parse_zero_string_points_at_navier(self):
        with pytest.raises(InvalidCase, match="navier"):
            Friction.parse("0.0")


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

    @pytest.mark.parametrize("raw", [[("exp", 1.0, 1.0)], [("exp", 0.0, 1.0)],
                                     [("cos", 1.0, 1.0), ("tanh", 2.0, 0.0)]])
    def test_unknown_atom_kind_is_invalid_case(self, raw):
        # an unknown kind would integrate as if it were 1 and have no
        # derivative rule, so it is refused where the profile is made
        with pytest.raises(InvalidCase, match="unknown z-atom kind"):
            ZProfile.make(raw)

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
            g = g.derivative()  # stays inside the atom algebra
        assert all(kind in ("sin", "cos", "sinh", "cosh", "poly")
                   for kind, _, _ in g.terms)

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

    def test_mixed_trig_hyperbolic_product_raises(self):
        with pytest.raises(InvalidCase):
            ZProfile.sin(1.0).product(ZProfile.cosh(1.0))

    def test_max_frequency_tracks_trig_atoms_only(self):
        f = ZProfile.sin(4.0) + ZProfile.cosh(9.0)
        assert f.max_frequency == 4.0
        assert ZProfile.cosh(9.0).max_frequency == 0.0

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
# one derivative, product and evaluation rule per atom kind, checked against
# in-test copies of the per-layer rules it replaced
# ---------------------------------------------------------------------------


def chain_derivative(profile):
    """Reference: the former if-chain of `ZProfile.derivative`."""
    out = []
    for kind, param, weight in profile.terms:
        if kind == "sin":
            out.append(("cos", param, weight * param))
        elif kind == "cos":
            out.append(("sin", param, -weight * param))
        elif kind == "sinh":
            out.append(("cosh", param, weight * param))
        elif kind == "cosh":
            out.append(("sinh", param, weight * param))
        else:
            j = int(param)
            if j >= 1:
                out.append(("poly", float(j - 1), weight * j))
    return ZProfile.make(out)


def parity_derivative(field, axis):
    """Reference: the former sin/cos rule of `ScalarField._derivative`."""
    table = {}
    for key, prof in field.terms.items():
        k, par = key[axis], key[axis + 2]
        if k == 0:
            continue
        new = key[:axis + 2] + ("cos" if par == "sin" else "sin",) + key[axis + 3:]
        scaled = prof.scale(float(k) if par == "sin" else -float(k))
        table[new] = table[new] + scaled if new in table else scaled
    return {key: prof for key, prof in table.items() if not prof.is_zero}


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
    """Reference: the former if-chain of `core._atom_product`."""
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


def trig_factor(par, k, t):
    """Reference: the former `core._trig`."""
    t = np.asarray(t, dtype=float)
    if k == 0:
        return np.ones_like(t) if par == "cos" else np.zeros_like(t)
    return np.sin(k * t) if par == "sin" else np.cos(k * t)


# profiles holding every atom kind, down to tiny and up to large frequencies
EVERY_KIND = (
    ZProfile.make([("sin", 1.3, 0.7), ("cos", 2.1, -0.4), ("sinh", 1.5, 0.3),
                   ("cosh", 0.9, 0.2), ("poly", 0.0, -1.5), ("poly", 1.0, 0.25),
                   ("poly", 2.0, 0.1)]),
    ZProfile.make([("sin", 1e-8, 2.0), ("cos", 1e3, 0.5), ("sinh", 12.0, 1e-5),
                   ("cosh", 3.3, -0.9), ("poly", 3.0, 2.0)]),
    ZProfile.make([("sin", 7.25, -3.0), ("cos", 0.1, 1e-3), ("sinh", 0.5, -2.0),
                   ("cosh", 40.0, 1e-12)]),
)


class TestOneAtomRule:
    @pytest.mark.parametrize("profile", EVERY_KIND)
    def test_derivative_matches_the_if_chain(self, profile):
        got, ref = profile, profile
        for _ in range(5):
            got, ref = got.derivative(), chain_derivative(ref)
            assert got == ref

    @pytest.mark.parametrize("profile", EVERY_KIND)
    def test_planar_derivative_matches_the_parity_rule(self, profile):
        field = ScalarField([(profile, 2, 3, "sin", "cos", 1.0),
                             (profile.scale(-0.5), 1, 0, "cos", "cos", 1.0),
                             (profile, 0, 4, "cos", "sin", -2.0),
                             (profile, 5, 1, "cos", "sin", 0.25)])
        for axis, derivative in enumerate((field.dx(), field.dy())):
            assert derivative.terms == parity_derivative(field, axis)

    def test_product_rule_matches_pointwise_for_every_kind_pair(self):
        z = np.linspace(-1.0, 1.0, 21)
        for family in (("sin", "cos"), ("sinh", "cosh")):
            for k1, k2 in itertools.product(family, repeat=2):
                for p1, p2 in ((1.3, 0.7), (0.7, 1.3), (2.0, 2.0)):
                    a, b = getattr(ZProfile, k1)(p1), getattr(ZProfile, k2)(p2)
                    got = a.product(b).eval(z)
                    assert np.allclose(got, a.eval(z) * b.eval(z), rtol=0, atol=1e-14)

    def test_product_matches_the_if_chain(self):
        for kinds in (("sin", "cos"), ("sinh", "cosh")):
            profiles = [ZProfile.make([(kind, p, w) for kind, p, w in zip(
                itertools.cycle(kinds), freqs, (0.7, -0.4, 0.3, 1e-5, -2.0))]
                + [("poly", 0.0, c)])
                for freqs, c in (((1.3, 2.1, 1.5, 0.9), -1.5),
                                 ((1e-8, 1e3, 12.0, 3.3, 7.25), 0.0),
                                 ((0.5, 1.0, 1.5, 0.5, 2.0), 0.25))]
            for a, b in itertools.product(profiles, repeat=2):
                ref = ZProfile.make([atom for k1, p1, w1 in a.terms
                                     for k2, p2, w2 in b.terms
                                     for atom in chain_atom_product(k1, p1, k2, p2, w1 * w2)])
                assert a.product(b) == ref

    def test_trig_product_matches_the_four_case_table(self):
        for k1, k2 in itertools.product(range(9), repeat=2):
            for par1, par2 in itertools.product(("sin", "cos"), repeat=2):
                got = list(trig_product(k1, par1, k2, par2))
                assert got == table_trig_product(k1, par1, k2, par2)
                assert all(type(k) is int for _, k, _ in got)

    def test_factor_evaluation_matches_trig(self):
        t = np.linspace(-7.0, 7.0, 29)
        for k in range(9):
            for par in ("cos",) if k == 0 else ("sin", "cos"):  # no sin(0 t) key
                assert np.array_equal(_atom_eval(par, k, t), trig_factor(par, k, t))
        edges = np.array([-np.inf, np.inf])
        assert np.array_equal(_atom_eval("cos", 0, edges), trig_factor("cos", 0, edges))

    def test_unknown_kind_is_not_evaluated(self):
        with pytest.raises(ValueError, match="unknown atom kind 'exp'"):
            _atom_eval("exp", 1.0, [0.0])


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


_MP_ATOMS = {"sin": mpmath.sin, "cos": mpmath.cos,
             "sinh": mpmath.sinh, "cosh": mpmath.cosh}


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
    @example([("sinh", 900.0), ("cosh", 1000.0)])
    @settings(max_examples=60, deadline=None)
    def test_every_atom_pair_matches_mpmath(self, atoms):
        a, b = (ZProfile.make([(kind, param, 1.0)]) for kind, param in atoms)
        hyp = sum(param for kind, param in atoms if kind in ("sinh", "cosh"))
        if hyp > 711.0:
            # sinh(hyp) itself is past double precision
            with pytest.raises(OverflowError):
                a.inner(b)
            return
        ref, scale = mp_pair(*atoms)
        try:
            got = a.inner(b)
        except OverflowError:
            assert scale > 1e300
            return
        # a hyperbolic factor amplifies the rounding of its parameter k by k
        assert abs(got - ref) <= 1e-14 * (1.0 + hyp) * scale, (got, ref)
