"""Transport products, per-harmonic Neumann solves, and the projection."""

import dataclasses
import itertools
import math

import mpmath
import numpy as np
import pytest

from slipchan.core import (
    SIN,
    Friction,
    PlanarCoeffs,
    PressureFamily,
    WaveIndex,
    ZProfile,
    planar_terms,
)
from slipchan.errors import HypothesisViolated, ResonanceImpossible, SlipchanError
from slipchan.fields import PlanarField, ScalarField
from slipchan.helmholtz import (
    convect,
    leray_project,
    neumann_profile,
    transport_tensor,
    triple_product,
)
from slipchan.modes import build_mode

B1 = Friction.finite(1.0)
NAVIER = Friction.navier()
NONCONST = PressureFamily.NONCONSTANT


def mode(m, n, p, friction=B1, **coeffs):
    return build_mode(WaveIndex(m, n, p), friction, PlanarCoeffs(**coeffs))


def norm(field: PlanarField) -> float:
    return math.sqrt(max(field.inner(field), 0.0))


def random_flat_modes(rng, count):
    out = []
    while len(out) < count:
        m, n, p = int(rng.integers(0, 3)), int(rng.integers(0, 3)), int(rng.integers(0, 2))
        raw = {k: float(rng.standard_normal()) for k in "abcd"}
        try:
            out.append(mode(m, n, p, **raw))
        except SlipchanError:
            continue  # zero-velocity picks on degenerate indices
    return out


# ---------------------------------------------------------------------------
# convect
# ---------------------------------------------------------------------------


class TestConvect:
    def test_matched_pick_self_transport_vanishes(self):
        # coefficient picks with a = -c, b = d ride their own streamlines
        cases = [
            dict(a=0.6, b=-0.3, c=-0.6, d=-0.3),
            dict(a=1.0, c=-1.0),
            dict(b=0.8, d=0.8),
        ]
        for coeffs in cases:
            m = mode(1, 1, 0, **coeffs)
            assert convect(m, m).is_zero(), coeffs
        m21 = mode(2, 1, 0, a=1.0, c=-1.0)
        assert convect(m21, m21).is_zero()

    def test_planar_shear_pair_vanishes(self):
        # two x-independent modes advect each other trivially
        a = mode(0, 1, 0, a=1)
        b = mode(0, 2, 1, a=1)
        assert convect(a, b).is_zero()
        assert convect(b, a).is_zero()

    def test_matches_directional_finite_difference(self):
        a = mode(1, 1, 0, a=1, b=0.5)
        b = mode(2, 1, 0, a=0.3, d=-1.1)
        conv = convect(a, b)
        fa = PlanarField.from_mode(a)
        fb = PlanarField.from_mode(b)
        rng = np.random.default_rng(17)
        h = 1e-5
        for _ in range(10):
            x, y = rng.uniform(0, 2 * math.pi, 2)
            z = rng.uniform(-0.9, 0.9)
            au = fa.eval_component("u", x, y, z)
            av = fa.eval_component("v", x, y, z)
            for comp in ("u", "v"):
                dx = (fb.eval_component(comp, x + h, y, z)
                      - fb.eval_component(comp, x - h, y, z)) / (2 * h)
                dy = (fb.eval_component(comp, x, y + h, z)
                      - fb.eval_component(comp, x, y - h, z)) / (2 * h)
                expected = au * dx + av * dy
                got = conv.eval_component(comp, x, y, z)
                assert abs(got - expected) < 1e-6
            assert conv.eval_component("w", x, y, z) == 0.0

    def test_rejects_pressure_carrying_modes(self):
        flat = mode(1, 1, 0, a=1)
        carrier = build_mode(
            WaveIndex(1, 1, 0, NONCONST), B1, PlanarCoeffs(a=1)
        )
        with pytest.raises(HypothesisViolated):
            convect(carrier, flat)
        with pytest.raises(HypothesisViolated):
            convect(flat, carrier)

    def test_rejects_modes_with_vertical_velocity(self):
        # free-slip overtones on a full wavenumber pair couple into w
        rich = build_mode(WaveIndex(1, 1, 1), NAVIER, PlanarCoeffs(a=1))
        assert not PlanarField.from_mode(rich).component("w").is_zero()
        with pytest.raises(HypothesisViolated):
            convect(rich, rich)

    def test_accepts_axis_modes_whose_planar_factor_kills_w(self):
        axis = build_mode(WaveIndex(1, 0, 1), NAVIER, PlanarCoeffs(a=1))
        assert PlanarField.from_mode(axis).component("w").is_zero()
        out = convect(axis, axis)  # no error; result is a legal field
        assert out.component("w").is_zero()


# ---------------------------------------------------------------------------
# neumann_profile
# ---------------------------------------------------------------------------


def bvp_residual(sol: ZProfile, rhs: ZProfile, k2: float) -> float:
    zs = np.linspace(-1.0, 1.0, 96)
    lhs = sol.derivative().derivative().eval(zs) - k2 * sol.eval(zs)
    return float(np.max(np.abs(lhs - rhs.eval(zs))))


class TestNeumannProfile:
    def test_zero_forcing_gives_zero(self):
        assert neumann_profile(ZProfile.zero(), 5.0).is_zero

    def test_cosine_squared_forcing(self):
        # rhs = cos(z)^2 expanded into atoms, squared harmonic 2^2 + 3^2
        rhs = ZProfile.const(0.5) + ZProfile.cos(2.0, 0.5)
        sol = neumann_profile(rhs, 13.0)
        assert sol.at(0.3) == pytest.approx(-0.06406274154004521, rel=1e-13)
        assert bvp_residual(sol, rhs, 13.0) < 1e-12
        assert abs(sol.derivative().at(1.0)) < 1e-15
        assert abs(sol.derivative().at(-1.0)) < 1e-15
        kinds = sorted(kind for kind, _, _ in sol.terms)
        assert kinds == ["cos", "cosh", "poly"]

    def test_sine_product_forcing(self):
        # rhs = sin(z)*sin(z) = (1 - cos 2z)/2
        rhs = ZProfile.const(0.5) - ZProfile.cos(2.0, 0.5)
        sol = neumann_profile(rhs, 13.0)
        assert bvp_residual(sol, rhs, 13.0) < 1e-12
        assert sol.derivative().at(1.0) == pytest.approx(0.0, abs=1e-15)
        assert sol.derivative().at(-1.0) == pytest.approx(0.0, abs=1e-15)

    def test_odd_forcing(self):
        rhs = ZProfile.sin(3.0) + ZProfile.poly(3, 0.25)
        sol = neumann_profile(rhs, 2.0)
        assert bvp_residual(sol, rhs, 2.0) < 1e-12
        assert abs(sol.derivative().at(1.0)) < 1e-14
        assert abs(sol.derivative().at(-1.0)) < 1e-14

    def test_requires_positive_harmonic(self):
        with pytest.raises(ValueError):
            neumann_profile(ZProfile.const(1.0), 0.0)

    def test_resonance_guard_is_a_package_error(self):
        assert issubclass(ResonanceImpossible, SlipchanError)


# ---------------------------------------------------------------------------
# leray_project
# ---------------------------------------------------------------------------


def wall_normal_trace(field: PlanarField) -> float:
    xs = np.linspace(0, 2 * math.pi, 9, endpoint=False)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    worst = 0.0
    for wall in (-1.0, 1.0):
        Z = np.full_like(X, wall)
        worst = max(worst, float(np.max(np.abs(field.eval_component("w", X, Y, Z)))))
    return worst


def sampled_divergence(field: PlanarField) -> float:
    div = field.divergence()
    xs = np.linspace(0, 2 * math.pi, 8, endpoint=False)
    zs = np.linspace(-1, 1, 33)
    X, Y, Z = np.meshgrid(xs, xs, zs, indexing="ij")
    return float(np.max(np.abs(div.eval(X, Y, Z))))


class TestLerayProject:
    def test_identity_on_divergence_free_fields(self):
        for m in (mode(1, 1, 0, a=1), mode(2, 1, 1, b=1),
                  build_mode(WaveIndex(1, 1, 0, NONCONST), B1, PlanarCoeffs(a=1))):
            field = PlanarField.from_mode(m)
            assert norm(leray_project(field) - field) < 1e-12

    def test_kills_gradients(self):
        potential = ScalarField(
            [(ZProfile.cosh(math.sqrt(2.0)), 1, 1, SIN, SIN, 1.0)]
        )
        assert norm(leray_project(potential.gradient())) < 1e-10

    def test_idempotent_on_transport_terms(self):
        a = mode(1, 1, 0, a=1)
        b = mode(1, 2, 0, a=0.4, b=-0.9)
        once = leray_project(convect(a, b))
        twice = leray_project(once)
        assert norm(twice - once) < 1e-12

    def test_split_is_orthogonal_and_clean(self):
        rng = np.random.default_rng(8)
        modes = random_flat_modes(rng, 10)
        for k in range(0, 10, 2):
            raw = convect(modes[k], modes[k + 1])
            projected = leray_project(raw)
            gradient_part = (raw - projected)
            assert abs(gradient_part.inner(projected)) < 1e-10
            assert sampled_divergence(projected) < 1e-10
            assert wall_normal_trace(projected) < 1e-12

    def test_orthogonality_over_many_samples(self):
        rng = np.random.default_rng(99)
        modes = random_flat_modes(rng, 12)
        checked = 0
        for a, b in itertools.combinations(modes, 2):
            raw = convect(a, b)
            if raw.is_zero():
                continue
            projected = leray_project(raw)
            assert abs((raw - projected).inner(projected)) < 1e-10
            checked += 1
            if checked >= 20:
                break
        assert checked >= 20


# ---------------------------------------------------------------------------
# triple_product
# ---------------------------------------------------------------------------


class TestTripleProduct:
    def test_tangential_branch_vanishes(self):
        # all three picks drawn from the (a, b) slots
        picks = [dict(a=1.0), dict(b=1.0), dict(a=0.7, b=-0.4)]
        indices = [(1, 1, 0), (1, 2, 0), (2, 1, 0)]
        for pa, pb, pc in itertools.product(picks, repeat=3):
            a = mode(*indices[0], **pa)
            b = mode(*indices[1], **pb)
            c = mode(*indices[2], **pc)
            assert abs(triple_product(a, b, c)) < 1e-10

    def test_other_flat_branches_vanish(self):
        # (a, d) and (b, d) slot pairs are transport-silent as well
        for branch in (dict(a=0.5, d=1.0), dict(b=0.5, d=-1.0)):
            ms = [mode(1, 1, 0, **branch), mode(1, 2, 1, **branch),
                  mode(2, 1, 0, **branch)]
            assert abs(triple_product(*ms)) < 1e-10

    def test_antisymmetry_in_the_last_two_slots(self):
        rng = np.random.default_rng(23)
        modes = random_flat_modes(rng, 6)
        for a, b, c in itertools.permutations(modes[:4], 3):
            lhs = triple_product(a, b, c)
            rhs = triple_product(a, c, b)
            assert abs(lhs + rhs) < 1e-10

    def test_diagonal_vanishes(self):
        rng = np.random.default_rng(31)
        for m in random_flat_modes(rng, 4):
            assert abs(triple_product(m, m, m)) < 1e-12

    def test_cross_slot_witness_is_nonzero(self):
        a = mode(1, 1, 0, c=1)
        b = mode(1, 2, 0, c=1)
        c = mode(2, 1, 0, c=1)
        value = triple_product(a, b, c)
        assert abs(value) > 1e-4
        assert value == pytest.approx(-0.09737045295323836, rel=1e-6)

    def test_more_cross_slot_witnesses(self):
        cases = [
            ((1, 1, 0), (1, 2, 1), (2, 1, 1), -0.08906403),
            ((1, 1, 0), (1, 3, 0), (2, 2, 0), -0.14515130),
        ]
        for ia, ib, ic, expected in cases:
            got = triple_product(
                mode(*ia, c=1), mode(*ib, c=1), mode(*ic, c=1)
            )
            assert got == pytest.approx(expected, abs=1e-6)

    def test_consistent_with_projected_inner_product(self):
        rng = np.random.default_rng(41)
        modes = random_flat_modes(rng, 6)
        for a, b, c in [modes[:3], modes[3:], (modes[0], modes[2], modes[4])]:
            direct = triple_product(a, b, c)
            via_projection = leray_project(convect(a, b)).inner(
                PlanarField.from_mode(c)
            )
            assert abs(direct - via_projection) < 1e-10


class TestTransportTensor:
    def test_every_entry_equals_triple_product(self):
        # the c pick plus explicit picks on indices sharing its planar
        # harmonics, in an order that is not sorted by eigenvalue, so
        # witnesses collide on planar keys
        modes = [
            mode(1, 2, 0, c=1),
            mode(1, 1, 0, c=1),
            mode(1, 1, 0, a=1, b=-0.5, c=0.3, d=2),
            mode(2, 1, 0, c=1),
            mode(1, 1, 1, a=0.2, c=1),
            mode(1, 2, 0, a=1, b=0.5, c=-0.25, d=1),
        ]
        tensor = transport_tensor(modes)
        k = len(modes)
        assert tensor.shape == (k, k, k)
        assert np.count_nonzero(tensor) > k
        for i, j, w in itertools.product(range(k), repeat=3):
            assert tensor[i, j, w] == triple_product(modes[i], modes[j], modes[w]), (i, j, w)

    def test_empty_set(self):
        assert transport_tensor([]).shape == (0, 0, 0)

    def test_rejects_modes_with_vertical_velocity(self):
        with pytest.raises(HypothesisViolated):
            transport_tensor([mode(1, 1, 0, c=1), mode(1, 1, 1, NAVIER, b=1.0)])

    def test_rejects_a_profile_of_two_atoms(self):
        # a hand-built flat mode whose u profile is not one z-atom
        base = mode(1, 1, 0, c=1)
        s = base.u_profile.terms[0][1]
        two = dataclasses.replace(
            base, u_profile=base.u_profile + ZProfile.cos(3.0 * s, 0.1)
        )
        for basis in ([two], [base, two]):
            with pytest.raises(HypothesisViolated, match="one z-atom"):
                transport_tensor(basis)
        with pytest.raises(HypothesisViolated, match="witness"):
            triple_product(base, base, two)


# ---------------------------------------------------------------------------
# the closed-form tensor against independent references
# ---------------------------------------------------------------------------


def c_pick_basis(friction, size=48):
    """The `size` lowest constant-pressure c-pick modes with m, n >= 1 and
    p <= 1, in eigenvalue order, like the benchmark's Galerkin basis."""
    modes = [mode(m, n, p, friction, c=1.0)
             for m in range(1, 8) for n in range(1, 8) for p in (0, 1)]
    return sorted(modes, key=lambda md: md.eigenvalue)[:size]


def mixed_basis(friction, p0):
    """The c pick plus four-slot picks that share its planar harmonics."""
    return [
        mode(1, 2, p0, friction, c=1),
        mode(1, 1, p0, friction, c=1),
        mode(1, 1, p0, friction, a=1, b=-0.5, c=0.3, d=2),
        mode(2, 1, p0, friction, c=1),
        mode(1, 1, p0 + 1, friction, a=0.2, c=1),
        mode(1, 2, p0, friction, a=1, b=0.5, c=-0.25, d=1),
    ]


def _mp_profile(profile, z):
    funcs = {"sin": mpmath.sin, "cos": mpmath.cos}
    total = mpmath.mpf(0)
    for kind, param, weight in profile.terms:
        atom = z ** int(param) if kind == "poly" else funcs[kind](mpmath.mpf(param) * z)
        total += mpmath.mpf(weight) * atom
    return total


def _mp_planar(md, comp, x, y, axis=None):
    """One planar factor of a mode (or its x/y derivative) at a point."""
    m, n = md.index.m, md.index.n
    trig = {"sin": (mpmath.sin, mpmath.cos, 1), "cos": (mpmath.cos, mpmath.sin, -1)}
    total = mpmath.mpf(0)
    for weight, xpar, ypar in planar_terms(md.index, md.coeffs, comp):
        fx, dfx, sx = trig[xpar]
        fy, dfy, sy = trig[ypar]
        px, py = fx(m * x), fy(n * y)
        if axis == "x":
            px = sx * m * dfx(m * x)
        elif axis == "y":
            py = sy * n * dfy(n * y)
        total += mpmath.mpf(weight) * px * py
    return total


def _mp_planar_integral(a, b, c, ca, cb, cc, axis):
    """integral over the periodic square of  Pa * d_axis Pb * Pc  by the
    uniform rule, exact for trig polynomials below its point count."""
    top = 3 * max(md.index.m + md.index.n for md in (a, b, c)) + 1
    pts = [2 * mpmath.pi * t / top for t in range(top)]
    total = mpmath.mpf(0)
    for x in pts:
        for y in pts:
            total += (_mp_planar(a, ca, x, y) * _mp_planar(b, cb, x, y, axis)
                      * _mp_planar(c, cc, x, y))
    return total * (2 * mpmath.pi / top) ** 2


def mp_triple(a, b, c):
    """<(u_a . grad) u_b, u_c> at 30 digits from the modes' own z-profiles:
    the exact planar integral of each u/v term times its z-profiles, summed
    and integrated over z by mpmath quadrature on pieces spanning about 32
    radians of the summed frequencies."""
    prof = {"u": "u_profile", "v": "v_profile"}
    terms = []
    with mpmath.workdps(30):
        for ca, cb, axis in (("u", "u", "x"), ("v", "u", "y"),
                             ("u", "v", "x"), ("v", "v", "y")):
            planar = _mp_planar_integral(a, b, c, ca, cb, cb, axis)
            if abs(planar) > mpmath.mpf(10) ** -25:
                zs = [getattr(md, prof[k]) for md, k in ((a, ca), (b, cb), (c, cb))]
                terms.append((planar, zs))
        if not terms:
            return 0.0

        def f(z):
            return sum(planar * _mp_profile(zs[0], z) * _mp_profile(zs[1], z)
                       * _mp_profile(zs[2], z) for planar, zs in terms)

        freq = max(sum(p.max_frequency for p in zs) for _, zs in terms)
        pieces = max(2, int(freq / 16.0) + 2)
        return float(mpmath.quad(f, mpmath.linspace(-1, 1, pieces + 1),
                                 method="gauss-legendre"))


class TestTensorReference:
    """Entries of the closed form against a 30-digit mpmath quadrature."""

    BASES = {
        "finite": lambda: mixed_basis(Friction.finite(1.3), 0),
        "navier_p0": lambda: [mode(1, 2, 0, NAVIER, c=1), mode(1, 1, 0, NAVIER, c=1),
                              mode(1, 1, 0, NAVIER, a=1, b=-0.5, c=0.3, d=2),
                              mode(2, 1, 0, NAVIER, c=1), mode(0, 1, 0, NAVIER, a=1, d=0.5)],
        "dirichlet_p1": lambda: mixed_basis(Friction.dirichlet(), 1),
        # p ~ 150: a fixed-size sampled z-rule is wrong there (defect (a))
        "beta1_p150": lambda: [mode(1, 1, 150, c=1), mode(1, 2, 150, c=1),
                               mode(2, 1, 151, c=1), mode(1, 1, 151, a=1, c=0.5)],
    }

    @pytest.mark.parametrize("name", sorted(BASES))
    def test_entries_match_mpmath(self, name):
        basis = self.BASES[name]()
        # a few entries at p ~ 150, where each quadrature is slow
        few = 1 if name == "beta1_p150" else 3
        tensor = transport_tensor(basis)
        scale = max(1.0, float(np.max(np.abs(tensor))))
        rng = np.random.default_rng(5)
        # the largest entries, random admissible ones and exact zeros
        order = np.argsort(-np.abs(tensor), axis=None)
        nonzero = np.flatnonzero(tensor)
        zero = np.flatnonzero(tensor == 0.0)
        picks = set(order[:few + 1].tolist())
        picks |= set(rng.choice(nonzero, size=min(few, nonzero.size), replace=False).tolist())
        picks |= set(rng.choice(zero, size=2, replace=False).tolist())
        assert nonzero.size > 0
        for flat in sorted(picks):
            i, j, k = np.unravel_index(flat, tensor.shape)
            ref = mp_triple(basis[i], basis[j], basis[k])
            assert abs(tensor[i, j, k] - ref) <= 1e-14 * scale, (name, i, j, k, tensor[i, j, k], ref)


class TestTensorStructure:
    @pytest.mark.parametrize("beta", [0.1, 1.0, 10.0])
    def test_matches_the_field_algebra_route(self, beta):
        # `inner` integrates the convected profiles exactly
        basis = c_pick_basis(Friction.finite(beta))
        tensor = transport_tensor(basis)
        fields = [PlanarField.from_mode(md) for md in basis]
        ref = np.array([[[convected.inner(f) for f in fields]
                         for convected in (convect(a, b) for b in basis)]
                        for a in basis])
        assert np.max(np.abs(tensor - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_exact_zeros_and_antisymmetry(self):
        basis = c_pick_basis(Friction.finite(1.0))
        tensor = transport_tensor(basis)
        m = np.array([md.index.m for md in basis])
        n = np.array([md.index.n for md in basis])

        def admissible(k):
            return ((np.abs(k[:, None, None] - k[None, :, None]) == k[None, None, :])
                    | (k[:, None, None] + k[None, :, None] == k[None, None, :]))

        off = ~(admissible(m) & admissible(n))
        assert off.any() and (~off).any()
        assert np.all(tensor[off] == 0.0)
        # an odd number of sin(s z) atoms is odd in z
        sine = np.array([md.u_profile.terms[0][0] == SIN for md in basis], dtype=int)
        odd = (sine[:, None, None] + sine[None, :, None] + sine[None, None, :]) % 2 == 1
        assert odd.any() and np.all(tensor[odd] == 0.0)
        assert np.count_nonzero(tensor) > 0
        assert np.max(np.abs(tensor + np.swapaxes(tensor, 1, 2))) <= 1e-15
