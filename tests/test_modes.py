"""Mode construction, spectrum enumeration, multiplicities, table rendering."""

import heapq
import itertools
import json
import math

import mpmath
import numpy as np
import pytest

from slipchan.core import (
    Friction,
    PlanarCoeffs,
    PressureFamily,
    WaveIndex,
    ZProfile,
    planar_l2_weight,
)
from slipchan.eigensolver import bracket_for, eigenvalue, solve_details
from slipchan.errors import InvalidCase, InvalidCount, InvalidIndex, SlipchanError, ZeroMode
from slipchan.fields import PlanarField
from slipchan.verify import boundary_residual, divergence_residual, pde_residual, suite_modes
from slipchan.modes import (
    CSV_HEADER,
    GROUP_TOL,
    MERGED,
    _const_profiles,
    _lattice,
    _nonconst_profiles,
    _normalize_family,
    _profile_parity,
    _profiles,
    _row_tuple,
    _witness_contribution,
    build_mode,
    coeff_basis,
    emit_table,
    enumerate_spectrum,
    expanded_spectrum,
    mode_sequence,
    multiplicity_of_value,
    render_json,
)

B1 = Friction.finite(1.0)
B10 = Friction.finite(10.0)
NAVIER = Friction.navier()
DIRICHLET = Friction.dirichlet()

CONST = PressureFamily.CONSTANT
NONCONST = PressureFamily.NONCONSTANT


# ---------------------------------------------------------------------------
# reference spectra (values to 2 d.p., multiplicities exact)
# ---------------------------------------------------------------------------

CONST_TABLE = {
    "navier": ([0.00, 1.00, 2.00, 2.47, 3.47, 4.00, 4.47, 5.00, 6.47, 7.47],
               [2, 8, 4, 2, 8, 8, 4, 8, 8, 8]),
    "1": ([0.74, 1.74, 2.74, 4.12, 4.74, 5.12, 5.74, 6.12, 8.12, 8.74],
          [2, 8, 4, 2, 8, 8, 8, 4, 8, 4]),
    "10": ([2.04, 3.04, 4.04, 6.04, 7.04, 8.20, 9.20, 10.04, 10.20, 11.04],
           [2, 8, 4, 8, 8, 2, 8, 4, 4, 8]),
    "dirichlet": ([2.47, 3.47, 4.47, 6.47, 7.47, 9.87, 10.47, 10.87, 11.47, 11.87],
                  [2, 8, 4, 8, 8, 2, 4, 8, 8, 4]),
}

NONCONST_TABLE = {
    "1": ([4.65, 5.39, 7.11, 8.03, 10.87, 11.84, 12.44, 12.81, 13.31, 15.11],
          [8, 4, 8, 8, 4, 8, 8, 8, 4, 8]),
    "10": ([7.80, 7.97, 9.02, 9.72, 12.16, 13.04, 13.93, 16.69, 17.53, 18.07],
           [8, 4, 8, 8, 4, 8, 8, 8, 8, 4]),
    "dirichlet": ([9.31, 9.33, 10.16, 10.77, 13.04, 13.87, 14.73, 17.40, 20.18, 20.57],
                  [8, 4, 8, 8, 4, 8, 8, 8, 8, 8]),
}

FRICTIONS = {"navier": NAVIER, "1": B1, "10": B10, "dirichlet": DIRICHLET}


def assert_spectrum_matches(entries, values, mults):
    assert len(entries) == len(values)
    for entry, val, mult in zip(entries, values, mults):
        # printed reference values are rounded to 2 d.p.; one no-slip value
        # (10.7777...) sits on the rounding boundary, so compare by distance
        assert abs(entry.value - val) <= 0.0105, (entry.value, val)
        assert entry.multiplicity == mult


# ---------------------------------------------------------------------------
# build_mode
# ---------------------------------------------------------------------------


class TestBuildMode:
    def test_an_eigenvalue_beyond_double_precision_raises_invalid_index(self):
        # once a bare OverflowError from mu^2 + s^2
        with pytest.raises(InvalidIndex, match="leaves double precision"):
            build_mode(WaveIndex(10**160, 0, 0), B1, PlanarCoeffs(c=1))

    def test_constant_mode(self):
        mode = build_mode(WaveIndex(0, 0, 0), NAVIER, PlanarCoeffs(d=1))
        assert mode.eigenvalue == 0.0
        # normalized over the slab of volume 8*pi^2
        assert mode.u_profile.at(0.3) == pytest.approx(
            1 / math.sqrt(8 * math.pi**2), rel=1e-14
        )
        field = PlanarField.from_mode(mode)
        assert field.component("v").is_zero()
        assert field.component("w").is_zero()
        assert field.norm() == pytest.approx(1.0, abs=1e-10)

    def test_constant_family_velocity_profile_is_cosine(self):
        idx = WaveIndex(1, 1, 0, CONST)
        lam = eigenvalue(idx, B1)
        s = math.sqrt(lam - 2)
        mode = build_mode(idx, B1, PlanarCoeffs(a=1))
        assert PlanarField.from_mode(mode).component("w").is_zero()
        ratios = [mode.u_profile.at(z) / math.cos(s * z) for z in (0.0, 0.4, 0.9)]
        assert max(ratios) - min(ratios) < 1e-12

    def test_nonconstant_family_vertical_profile(self):
        # W(z) proportional to cos(s) cosh(mu z) - cosh(mu) cos(s z)
        idx = WaveIndex(1, 1, 0, NONCONST)
        lam = eigenvalue(idx, B1)
        s, mu = math.sqrt(lam - 2), math.sqrt(2)
        mode = build_mode(idx, B1, PlanarCoeffs(a=1))

        def expect(z):
            return math.cos(s) * math.cosh(mu * z) - math.cosh(mu) * math.cos(s * z)

        ratios = [mode.w_profile.at(z) / expect(z) for z in (0.0, 0.3, 0.8)]
        assert max(ratios) - min(ratios) < 1e-12

    def test_zero_velocity_pick_is_rejected(self):
        with pytest.raises(ZeroMode):
            build_mode(WaveIndex(0, 0, 0), NAVIER, PlanarCoeffs(c=1))

    def test_requires_explicit_coefficients(self):
        with pytest.raises(TypeError):
            build_mode(WaveIndex(1, 1, 0), B1)

    def test_normalization_across_cases(self):
        cases = [
            (WaveIndex(1, 0, 0), B1, PlanarCoeffs(a=1)),
            (WaveIndex(1, 1, 1), B10, PlanarCoeffs(b=0.5)),
            (WaveIndex(2, 1, 0, NONCONST), B1, PlanarCoeffs(c=2.0)),
            (WaveIndex(1, 1, 0, NONCONST), DIRICHLET, PlanarCoeffs(d=1)),
            (WaveIndex(0, 2, 1), DIRICHLET, PlanarCoeffs(a=1)),
            (WaveIndex(2, 0, 1), NAVIER, PlanarCoeffs(a=1, b=1)),
        ]
        for idx, friction, coeffs in cases:
            mode = build_mode(idx, friction, coeffs)
            assert PlanarField.from_mode(mode).norm() == pytest.approx(
                1.0, abs=1e-8
            ), (idx, friction)

    @pytest.mark.filterwarnings("error")
    def test_large_mu_no_slip_mode_still_builds(self):
        for index in ((300, 0, 0), (180, 240, 0)):
            mode = build_mode(WaveIndex(*index, NONCONST), DIRICHLET, PlanarCoeffs(c=1))
            assert math.isfinite(mode.norm)
            assert PlanarField.from_mode(mode).norm() == pytest.approx(1.0, abs=1e-8)

    def test_scaling_coefficients_does_not_change_field(self):
        idx = WaveIndex(1, 1, 0, CONST)
        a = build_mode(idx, B1, PlanarCoeffs(a=1))
        b = build_mode(idx, B1, PlanarCoeffs(a=-3.7))
        fa, fb = PlanarField.from_mode(a), PlanarField.from_mode(b)
        # same up to overall sign
        assert abs(abs(fa.inner(fb)) - 1.0) < 1e-10


def no_slip_branch(index, s):
    """Reference: the former no-slip rule of `_const_profiles`, which fixed
    the wall-vanishing parity itself (sin for even p, cos for odd p)."""
    m, n, p = index.m, index.n, index.p
    zero = ZProfile.zero()
    base = ZProfile.sin(s) if p % 2 == 0 else ZProfile.cos(s)
    if m == 0 and n == 0:
        return base, base, zero
    if n == 0:
        return zero, base, zero
    if m == 0:
        return base, zero, zero
    return base, base.scale(-m / n), zero


def navier_rich_branch(index, s, even):
    """Reference: the former two-parity form of the frictionless p >= 1
    rule of `_const_profiles`."""
    m, n = index.m, index.n
    base = ZProfile.cos(s) if even else ZProfile.sin(s)
    wprof = ZProfile.sin(s) if even else ZProfile.cos(s)
    if m == 0 and n == 0:
        return base, base, ZProfile.zero()
    if n == 0:
        u = base.scale(s / m) if even else base.scale(-s / m)
        return u, base, wprof
    vcoef = (-m + s) / n if even else -(m + s) / n
    return base, base.scale(vcoef), wprof


def former_const_profiles(index, friction, s, even):
    """Reference: the former `_const_profiles`, with its own m = 0 branch."""
    m, n, p = index.m, index.n, index.p
    zero = ZProfile.zero()
    base = ZProfile.cos(s) if even else ZProfile.sin(s)
    if m == 0 and n == 0:
        return base, base, zero
    if friction.is_navier and p >= 1:
        sign = 1.0 if even else -1.0
        wprof = ZProfile.sin(s) if even else ZProfile.cos(s)
        if n == 0:
            return base.scale(sign * s / m), base, wprof
        return base, base.scale((-m + sign * s) / n), wprof
    if n == 0:
        return zero, base, zero
    if m == 0:
        return base, zero, zero
    return base, base.scale(-m / n), zero


class TestConstProfiles:
    def test_axis_profiles_match_the_former_m_zero_branch(self):
        # at m = 0 the general rule scales by -0 / n, which is the zero profile
        frictions = (B1, B10, Friction.finite(1e-3), NAVIER, DIRICHLET)
        for friction, n, p in itertools.product(frictions, range(6), range(7)):
            if p < friction.first_p(CONST):
                continue
            index = WaveIndex(0, n, p)
            res = solve_details(index, friction)
            even = _profile_parity(index, friction)
            got = _const_profiles(index, friction, res.s, even)
            assert got == former_const_profiles(index, friction, res.s, even), (n, p)

    def test_no_slip_is_the_finite_rule_at_the_wall_parity(self):
        for m in range(6):
            for n in range(6):
                for p in range(1, 30):
                    index = WaveIndex(m, n, p)
                    res = solve_details(index, DIRICHLET)
                    even = _profile_parity(index, DIRICHLET)
                    got = _const_profiles(index, DIRICHLET, res.s, even)
                    assert got == no_slip_branch(index, res.s), (m, n, p)

    def test_frictionless_sign_matches_both_parity_branches(self):
        for m, n, p in itertools.product(range(6), range(6), range(1, 30)):
            index = WaveIndex(m, n, p)
            res = solve_details(index, NAVIER)
            even = _profile_parity(index, NAVIER)
            got = _const_profiles(index, NAVIER, res.s, even)
            assert got == navier_rich_branch(index, res.s, even), (m, n, p)


def two_branch_nonconst(index, friction, value, s, even):
    """Reference: the former `_nonconst_profiles`, one branch per parity,
    with unscaled hyperbolic factors, as functions of z at the working
    mpmath precision.  Returns (U, V, W, Q) and cosh(mu), the factor the
    package divides them by."""
    m, n = index.m, index.n
    mu, s, value = mpmath.sqrt(index.mu2), mpmath.mpf(s), mpmath.mpf(value)
    beta = mpmath.mpf(friction.beta) if friction.is_finite else None
    sin_s, cos_s = mpmath.sin(s), mpmath.cos(s)
    sinh_mu, cosh_mu = mpmath.sinh(mu), mpmath.cosh(mu)
    if even:
        if beta is None:
            denom, amp = sin_s, sinh_mu
        else:
            denom = beta * sin_s + s * cos_s
            amp = mu * cosh_mu + beta * sinh_mu
        u = (m, mpmath.sinh, mpmath.sin, -m * amp / denom)
        w = (mu, mpmath.cosh, mpmath.cos, -mu * cosh_mu / cos_s)
        wall = m * m * sinh_mu + mu * s * cosh_mu * mpmath.tan(s)
        if beta is None:
            vc = wall / (n * sin_s) if n else 0
        else:
            vc = (mu * (value - n * n) * cosh_mu + beta * wall) / (n * denom) if n else 0
        v = (n, mpmath.sinh, mpmath.sin, vc)
        q = (value, mpmath.sinh, mpmath.sin, 0)
    else:
        if beta is None:
            denom, amp = cos_s, cosh_mu
        else:
            denom = beta * cos_s - s * sin_s
            amp = mu * sinh_mu + beta * cosh_mu
        u = (m, mpmath.cosh, mpmath.cos, -m * amp / denom)
        w = (mu, mpmath.sinh, mpmath.sin, -mu * sinh_mu / sin_s)
        wall = m * m * cosh_mu - mu * s * sinh_mu / mpmath.tan(s)
        if beta is None:
            vc = wall / (n * cos_s) if n else 0
        else:
            vc = (mu * (value - n * n) * sinh_mu + beta * wall) / (n * denom) if n else 0
        v = (n, mpmath.cosh, mpmath.cos, vc)
        q = (value, mpmath.cosh, mpmath.cos, 0)

    def profile(hw, hyp, trig, tw):
        return lambda z: hw * hyp(mu * z) + tw * trig(s * z)

    return [profile(*parts) for parts in (u, v, w, q)], cosh_mu


def profile_defect(got, ref, scale, zs):
    """max |got - ref / scale| over zs, against max |got| there."""
    values = got.eval(np.array(zs))
    top = max(abs(x) for x in values)
    return max(abs(x - ref(mpmath.mpf(z)) / scale) for x, z in zip(values, zs)), top


def assert_matches_closed_form(index, friction, profiles, zs, norm=1.0):
    """Each of (U, V, W, Q) equals the former closed form divided by
    cosh(mu) * norm within 1e-12 of its largest value on zs, at 40 digits."""
    res = solve_details(index, friction)
    with mpmath.workdps(40):
        refs, cosh_mu = two_branch_nonconst(index, friction, res.value, res.s,
                                            _profile_parity(index, friction))
        for name, got, ref in zip("uvwq", profiles, refs):
            defect, top = profile_defect(got, ref, cosh_mu * mpmath.mpf(norm), zs)
            assert defect <= 1e-12 * top, (index, friction.label(), name, defect, top)


ZS_COARSE = (-1.0, -0.55, 0.0, 0.3, 1.0)


class TestNonconstProfiles:
    FRICTIONS = [DIRICHLET] + [Friction.finite(10.0 ** k) for k in range(-12, 13, 2)]

    def test_one_formula_equals_both_parity_branches(self):
        for m, n, p in itertools.product(range(5), range(5), range(7)):
            if m == n == 0:
                continue
            index = WaveIndex(m, n, p, NONCONST)
            for friction in self.FRICTIONS:
                res = solve_details(index, friction)
                got = _nonconst_profiles(index, friction, res.value, res.s,
                                         _profile_parity(index, friction))
                assert_matches_closed_form(index, friction, got, ZS_COARSE)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m", [355, 400, 720])
    def test_defect_c_profiles_match_the_closed_form(self, m):
        # defect (c): the unscaled closed form overflowed from mu ~ 340;
        # divided by cosh(mu) it is exact at every mu, both parities
        zs = ZS_COARSE + tuple(sign * (1.0 - t / m) for sign in (-1, 1) for t in (0.5, 2.0))
        for p, friction in itertools.product((0, 1), (DIRICHLET, B1)):
            index = WaveIndex(m, 0, p, NONCONST)
            res = solve_details(index, friction)
            got = _nonconst_profiles(index, friction, res.value, res.s,
                                     _profile_parity(index, friction))
            assert_matches_closed_form(index, friction, got, zs)


class TestDefectC:
    """Defect (c): pressure-carrying modes overflowed from mu ~ 340 and
    raised InvalidCase; with cosh-scaled profiles every index builds."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("friction", [Friction.finite(1e-3), B1, Friction.finite(1e3),
                                          DIRICHLET], ids=lambda f: f.label())
    @pytest.mark.parametrize("index", [(400, 0, 0), (240, 320, 0), (800, 0, 0), (480, 640, 0),
                                       (6000, 8000, 0), (10000, 0, 0)], ids=str)
    def test_pressure_carrying_modes_build(self, friction, index):
        idx = WaveIndex(*index, NONCONST)
        mu = idx.mu
        zs = tuple(np.linspace(-1.0, 1.0, 21)) + tuple(
            sign * (1.0 - t / mu) for sign in (-1, 1) for t in (0.5, 1.0, 3.0, 10.0))
        basis = coeff_basis(idx, friction)
        assert basis
        for pick in basis:
            mode = build_mode(idx, friction, pick)
            assert math.isfinite(mode.norm)
            assert abs(PlanarField.from_mode(mode).norm() - 1.0) <= 1e-12
            profiles = (mode.u_profile, mode.v_profile, mode.w_profile, mode.q_profile)
            assert_matches_closed_form(idx, friction, profiles, zs, mode.norm)


class TestCoeffBasis:
    def test_full_wavenumber_pair_has_four_picks(self):
        assert len(coeff_basis(WaveIndex(1, 1, 0), B1)) == 4
        assert len(coeff_basis(WaveIndex(2, 1, 0), B1)) == 4
        assert len(coeff_basis(WaveIndex(1, 1, 0, NONCONST), B1)) == 4

    def test_degenerate_indices_have_two_picks(self):
        assert len(coeff_basis(WaveIndex(1, 0, 0), B1)) == 2
        assert len(coeff_basis(WaveIndex(0, 0, 0), B1)) == 2
        assert len(coeff_basis(WaveIndex(1, 0, 1, NONCONST), B1)) == 2

    def test_picks_build_orthonormal_modes(self):
        for idx in (WaveIndex(1, 1, 0), WaveIndex(1, 0, 0),
                    WaveIndex(2, 1, 0, NONCONST)):
            fields = [
                PlanarField.from_mode(build_mode(idx, B1, c))
                for c in coeff_basis(idx, B1)
            ]
            for i, fi in enumerate(fields):
                for j, fj in enumerate(fields):
                    want = 1.0 if i == j else 0.0
                    assert fi.inner(fj) == pytest.approx(want, abs=1e-9)


def table_coeff_basis(index, friction):
    """Reference: the case table of slots that `coeff_basis` kept before it
    read the profiles (it also answered for indices with no mode)."""
    m, n = index.m, index.n
    if index.family is CONST:
        rich = friction.is_navier and index.p >= 1
        if m == 0 and n == 0:
            return ("d", "b")
        if n == 0:
            return ("a", "b", "c", "d") if rich else ("a", "b")
        if m == 0:
            return ("a", "b", "c", "d") if rich else ("a", "d")
        return ("a", "b", "c", "d")
    if n == 0:
        return ("c", "d")
    if m == 0:
        return ("b", "c")
    return ("a", "b", "c", "d")


UNIT_PICKS = {slot: PlanarCoeffs(**{slot: 1.0}) for slot in "abcd"}


def slots_of(basis):
    return tuple(next(s for s, v in zip("abcd", c.as_tuple()) if v) for c in basis)


def rule_cases():
    """Every index with m, n, p <= 5 of both families at five frictions."""
    for friction in (NAVIER, Friction.finite(1e-9), Friction.finite(1.3),
                     Friction.finite(1e6), DIRICHLET):
        for m, n, p in itertools.product(range(6), repeat=3):
            for family in (CONST, NONCONST) if (m, n) != (0, 0) else (CONST,):
                yield WaveIndex(m, n, p, family), friction


class TestCoeffBasisRule:
    def test_is_the_set_of_unit_picks_that_build_a_mode(self):
        raised = 0
        for index, friction in rule_cases():
            built, error = set(), None
            for slot, pick in UNIT_PICKS.items():
                try:
                    build_mode(index, friction, pick)
                except ZeroMode:
                    continue
                except SlipchanError as exc:
                    error = type(exc)
                    break
                built.add(slot)
            if error is not None:
                raised += 1
                with pytest.raises(error):
                    coeff_basis(index, friction)
            else:
                basis = slots_of(coeff_basis(index, friction))
                assert len(set(basis)) == len(basis)
                assert set(basis) == built, (index, friction.label())
        assert raised > 0

    def test_matches_the_former_table_where_a_mode_exists(self):
        for index, friction in rule_cases():
            try:
                basis = slots_of(coeff_basis(index, friction))
            except SlipchanError:
                continue
            table = table_coeff_basis(index, friction)
            if friction.is_navier and index.p >= 1 and (index.m == 0) != (index.n == 0):
                # frictionless axis levels: the picks now follow the u, v, w
                # components that first meet them, not the alphabet
                assert sorted(basis) == list(table), (index, friction.label())
            else:
                assert basis == table, (index, friction.label())

    def test_index_without_a_mode_raises(self):
        with pytest.raises(InvalidIndex):
            coeff_basis(WaveIndex(1, 0, 0), DIRICHLET)
        with pytest.raises(InvalidCase):
            coeff_basis(WaveIndex(1, 1, 0, NONCONST), NAVIER)


class TestOneStepPerIndex:
    @pytest.mark.parametrize("mu", [340, 355, 400])
    def test_defect_c_index_builds_in_basis_and_build_alike(self, mu):
        # defect (c): these indices once raised InvalidCase in both
        index = WaveIndex(mu, 0, 0, NONCONST)
        basis = coeff_basis(index, B1)
        assert slots_of(basis) == ("c", "d")
        for pick in basis:
            assert math.isfinite(build_mode(index, B1, pick).norm)
        for slot in "ab":
            with pytest.raises(ZeroMode):
                build_mode(index, B1, UNIT_PICKS[slot])

    def test_below_the_overflow_the_basis_builds(self):
        index = WaveIndex(300, 0, 0, NONCONST)
        basis = coeff_basis(index, B1)
        assert slots_of(basis) == ("c", "d")
        for pick in basis:
            assert math.isfinite(build_mode(index, B1, pick).norm)
        for slot in "ab":
            with pytest.raises(ZeroMode):
                build_mode(index, B1, UNIT_PICKS[slot])

    def test_mode_sequence_solves_each_orientation_once(self, monkeypatch):
        calls = []

        def counting(index, friction):
            calls.append(index)
            return solve_details(index, friction)

        monkeypatch.setattr("slipchan.modes.solve_details", counting)
        _profiles.cache_clear()
        sequence = mode_sequence(Friction.finite(1.3), 40)
        assert len(sequence) == 40
        # 12 spectrum candidates plus 15 orientations; one solve per
        # orientation serves its basis and all of its modes
        assert len(calls) <= 27

    def test_cached_step_builds_the_cold_modes_bit_for_bit(self):
        friction = Friction.finite(1.3)
        indices = [WaveIndex(0, 0, 0), WaveIndex(1, 1, 0), WaveIndex(2, 1, 1),
                   WaveIndex(1, 0, 0, NONCONST), WaveIndex(2, 1, 1, NONCONST)]

        def modes_of(index):
            # repr round-trips every float, so equal reprs are equal bits
            return [repr(build_mode(index, friction, pick))
                    for pick in coeff_basis(index, friction)]

        cold = {}
        for index in indices:
            _profiles.cache_clear()
            cold[index] = modes_of(index)
        _profiles.cache_clear()
        for index in indices:
            _profiles(index, friction)
        hits = _profiles.cache_info().hits
        assert {index: modes_of(index) for index in indices} == cold
        assert _profiles.cache_info().hits > hits

    def test_cached_step_holds_no_mutable_state(self):
        # hashing recurses through tuples and frozen dataclasses and fails
        # on any list, dict or set inside the shared step
        friction = Friction.finite(1.3)
        for index in (WaveIndex(1, 1, 0), WaveIndex(2, 1, 1, NONCONST)):
            step = _profiles(index, friction)
            hash(step)
            assert type(step[3]) is tuple
            mode = build_mode(index, friction, coeff_basis(index, friction)[0])
            with pytest.raises(AttributeError):
                mode.u_profile.terms = ()
            assert _profiles(index, friction) is step


class TestDefectL:
    """Defect (l), open: at small beta the axis pressure-carrying modes miss
    the divergence constraint W' = m U + n V by far more than rounding, while
    their PDE and wall residuals stay at rounding level.  The likely cause is
    W's trig weight, which grows like 1/beta, cancelling against its O(1)
    hyperbolic part in W'."""

    @pytest.mark.xfail(strict=True, reason="defect (l): divergence residual grows as beta falls")
    @pytest.mark.parametrize("index, beta", [((1, 0, 0), 1e-12), ((1, 0, 0), 1e-8),
                                             ((2, 0, 0), 1e-12), ((1, 0, 1), 1e-12)],
                             ids=str)
    def test_axis_mode_meets_the_divergence_tolerance(self, index, beta):
        mode = build_mode(WaveIndex(*index, NONCONST), Friction.finite(beta),
                          PlanarCoeffs(c=1.0))
        assert divergence_residual(mode) < 1e-10

    @pytest.mark.parametrize("beta", [1e-12, 1e-8])
    def test_other_residuals_stay_at_rounding(self, beta):
        friction = Friction.finite(beta)
        for index in ((1, 0, 0), (2, 0, 0), (1, 0, 1), (1, 1, 0)):
            mode = build_mode(WaveIndex(*index, NONCONST), friction, PlanarCoeffs(c=1.0))
            assert pde_residual(mode) <= 1e-15, index
            assert boundary_residual(mode) <= 1e-15, index
        off_axis = build_mode(WaveIndex(1, 1, 0, NONCONST), friction, PlanarCoeffs(c=1.0))
        assert divergence_residual(off_axis) <= 1e-15

    @pytest.mark.xfail(strict=True, reason="defect (l): the (1,0,0) rows fail at beta = 1e-6")
    def test_mode_suite_passes_at_small_beta(self):
        rows = suite_modes(Friction.finite(1e-6), max_index=40)
        assert all(row["pass"] for row in rows)


class TestOrthogonality:
    def test_across_indices_and_families(self):
        picks = [
            build_mode(WaveIndex(0, 0, 0), B1, PlanarCoeffs(d=1)),
            build_mode(WaveIndex(1, 0, 0), B1, PlanarCoeffs(a=1)),
            build_mode(WaveIndex(1, 1, 0), B1, PlanarCoeffs(a=1)),
            build_mode(WaveIndex(1, 1, 0, NONCONST), B1, PlanarCoeffs(a=1)),
            build_mode(WaveIndex(1, 1, 1), B1, PlanarCoeffs(a=1)),
            build_mode(WaveIndex(1, 1, 1, NONCONST), B1, PlanarCoeffs(a=1)),
        ]
        fields = [PlanarField.from_mode(m) for m in picks]
        for i in range(len(fields)):
            for j in range(i + 1, len(fields)):
                assert abs(fields[i].inner(fields[j])) < 1e-8, (i, j)

    def test_same_planar_index_different_family(self):
        # same (m, n, p) but different pressure family must be orthogonal
        c = build_mode(WaveIndex(2, 1, 0, CONST), B10, PlanarCoeffs(a=1))
        n = build_mode(WaveIndex(2, 1, 0, NONCONST), B10, PlanarCoeffs(a=1))
        lhs = PlanarField.from_mode(c).inner(PlanarField.from_mode(n))
        assert abs(lhs) < 1e-10


def mp_inner(a, b):
    """Velocity inner product of two modes sharing (m, n) and coefficients,
    at 50 digits: mpmath.quad of the modes' own z-profiles, weighted by the
    closed-form planar integral of each component, on pieces spanning about
    64 radians of the product's frequency.  With lam = a + i b, a term
    (j, lam, c) is Re c f_0 - Im c f_1 with the atoms
    f_0, f_1 = z^j e^{a (z - z0)} (cos t, sin t), t = b (z - z0).  The
    integrand is gathered into one coefficient per pair of atoms, each atom
    evaluated once per node."""
    assert (a.index.m, a.index.n, a.coeffs) == (b.index.m, b.index.n, b.coeffs)

    def atoms(prof):
        return [((j, lam, part), w) for j, lam, c in prof.terms
                for part, w in ((0, c.real), (1, -c.imag)) if w]

    with mpmath.workdps(50):
        coef, freq = {}, 0.0
        for comp in ("u", "v", "w"):
            weight = planar_l2_weight(a.index, a.coeffs, comp)
            pa, pb = getattr(a, comp + "_profile"), getattr(b, comp + "_profile")
            if weight == 0.0 or pa.is_zero or pb.is_zero:
                continue
            freq = max(freq, sum(max(lam.imag for _, lam, _ in prof.terms) for prof in (pa, pb)))
            for ka, wa in atoms(pa):
                for kb, wb in atoms(pb):
                    coef[ka, kb] = coef.get((ka, kb), 0) + mpmath.mpf(weight) * wa * wb
        rates = {(j, lam) for pair in coef for j, lam, _ in pair}

        def integrand(z):
            at = {}
            for j, lam in rates:
                shift = z - (lam.real > 0) + (lam.real < 0)
                grow = z ** j * (mpmath.exp(lam.real * shift) if lam.real else 1)
                cos, sin = mpmath.cos_sin(lam.imag * shift)
                at[j, lam, 0], at[j, lam, 1] = grow * cos, grow * sin
            return mpmath.fsum(c * at[ka] * at[kb] for (ka, kb), c in coef.items())

        pieces = int(freq / 32.0) + 2
        return float(mpmath.quad(integrand, mpmath.linspace(-1, 1, pieces + 1),
                                 method="gauss-legendre"))


class TestExactNormalisation:
    """Norms and inner products are exact at every p (ROADMAP defect (a)):
    a sampled z-rule reported unit norm for (1, 1, 120) at beta = 1 while
    the true squared norm was 1.048."""

    # (friction, [(family, p), ...]): every mode has (m, n) = (1, 1) and the
    # c pick, so each adjacent pair in a list must be orthogonal; p = 1000
    # is checked alone, its reference costing most
    CASES = [
        ("navier", [(CONST, 0), (CONST, 120)]),
        ("1e-3", [(NONCONST, 0), (CONST, 0), (CONST, 7)]),
        ("1e-3", [(CONST, 1000)]),
        ("1", [(CONST, 0), (NONCONST, 7), (CONST, 120), (CONST, 150)]),
        ("1e3", [(NONCONST, 0), (CONST, 7), (NONCONST, 150)]),
        ("dirichlet", [(CONST, 7), (NONCONST, 7), (CONST, 150)]),
    ]
    FRICTIONS = {"navier": NAVIER, "dirichlet": DIRICHLET}

    @pytest.mark.parametrize("label, picks", CASES,
                             ids=[f"{f}-p{ps[-1][1]}" for f, ps in CASES])
    def test_norm_and_orthogonality_match_mpmath(self, label, picks):
        friction = self.FRICTIONS.get(label) or Friction.finite(float(label))
        modes = [build_mode(WaveIndex(1, 1, p, family), friction, PlanarCoeffs(c=1.0))
                 for family, p in picks]
        fields = [PlanarField.from_mode(md) for md in modes]
        for md, field in zip(modes, fields):
            ref = mp_inner(md, md)
            assert abs(ref - 1.0) <= 1e-12, (md.index, ref)
            assert abs(field.inner(field) - ref) <= 1e-12, md.index
        for (a, fa), (b, fb) in zip(zip(modes, fields), zip(modes[1:], fields[1:])):
            ref = mp_inner(a, b)
            assert abs(ref) <= 1e-12, (a.index, b.index, ref)
            assert abs(fa.inner(fb) - ref) <= 1e-12, (a.index, b.index)


# ---------------------------------------------------------------------------
# multiplicity counting
# ---------------------------------------------------------------------------


def lattice_multiplicity(mu2: int) -> int:
    """Independent recount: 8 per perfect square, 4 per ordered positive pair."""
    if mu2 == 0:
        return 2
    total = 8 if math.isqrt(mu2) ** 2 == mu2 else 0
    total += 4 * sum(
        1
        for m in range(1, math.isqrt(mu2) + 1)
        for n in range(1, math.isqrt(mu2) + 1)
        if m * m + n * n == mu2
    )
    return total


def fresh_witnesses(mu2, p, family):
    """A candidate's witnesses built afresh, outside the shared lattice cache."""
    return _lattice.__wrapped__(mu2, p, family)[0]


class TestMultiplicity:
    def test_reference_values(self):
        assert multiplicity_of_value(0) == 2
        assert multiplicity_of_value(1) == 8
        assert multiplicity_of_value(2) == 4
        assert multiplicity_of_value(325) == 24

    def test_matches_independent_lattice_count(self):
        for mu2 in range(0, 101):
            expected = lattice_multiplicity(mu2)
            if expected == 0:
                with pytest.raises(InvalidIndex):
                    multiplicity_of_value(mu2)
            else:
                assert multiplicity_of_value(mu2) == expected, mu2

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidIndex):
            multiplicity_of_value(-1)
        with pytest.raises(InvalidIndex):
            multiplicity_of_value(2.0)
        for flag in (True, False):  # WaveIndex rejects bools too
            with pytest.raises(InvalidIndex):
                multiplicity_of_value(flag)
        with pytest.raises(InvalidIndex):
            multiplicity_of_value(3)  # not a sum of two squares

    def test_zero_shell_excluded_from_pressure_family(self):
        with pytest.raises(InvalidIndex):
            multiplicity_of_value(0, NONCONST)

    def test_witnesses_ascend_in_m(self):
        # the axis witness sorts last: mu2 = 25 is labelled by (4, 3)
        wits = fresh_witnesses(25, 0, CONST)
        assert [(ix.m, ix.n, perm) for ix, perm in wits] == [(4, 3, True), (5, 0, True)]
        shells = {mu2: [] for mu2 in range(3000)}
        for m in range(55):
            for n in range(m + 1):
                shells.get(m * m + n * n, []).append((m, n, 1, m != n))
        for mu2, pairs in shells.items():
            wits = fresh_witnesses(mu2, 1, CONST)
            assert [(ix.m, ix.n, ix.p, perm) for ix, perm in wits] == pairs, mu2


# ---------------------------------------------------------------------------
# spectrum enumeration
# ---------------------------------------------------------------------------


class TestEnumerateSpectrum:
    @pytest.mark.parametrize("key", list(CONST_TABLE))
    def test_constant_family_reference_table(self, key):
        entries = enumerate_spectrum(FRICTIONS[key], CONST, 10)
        assert_spectrum_matches(entries, *CONST_TABLE[key])

    @pytest.mark.parametrize("key", list(NONCONST_TABLE))
    def test_nonconstant_family_reference_table(self, key):
        entries = enumerate_spectrum(FRICTIONS[key], NONCONST, 10)
        assert_spectrum_matches(entries, *NONCONST_TABLE[key])

    def test_two_decimal_rounding_matches_reference(self):
        # rounding to 2 d.p. agrees with the printed reference everywhere
        # except the no-slip 10.7777... row, which sits on the boundary
        entries = enumerate_spectrum(DIRICHLET, NONCONST, 10)
        printed = NONCONST_TABLE["dirichlet"][0]
        for k, (entry, val) in enumerate(zip(entries, printed)):
            if k == 3:
                assert entry.value == pytest.approx(10.777721626878822, rel=1e-12)
                continue
            assert round(entry.value, 2) == val

    def test_no_slip_constant_rows_match_closed_form(self):
        vals = [e.value for e in enumerate_spectrum(DIRICHLET, CONST, 10)]
        quarter = (math.pi / 2) ** 2
        assert vals[0] == pytest.approx(quarter, rel=1e-14)        # (0,0,1)
        assert vals[5] == pytest.approx(4 * quarter, rel=1e-14)    # (0,0,2)
        assert vals[7] == pytest.approx(1 + 4 * quarter, rel=1e-14)  # (1,0,2)

    def test_merged_is_strictly_increasing_and_starts_constant(self):
        for friction in (B1, B10, DIRICHLET):
            entries = enumerate_spectrum(friction, MERGED, 15)
            vals = [e.value for e in entries]
            assert all(a < b for a, b in zip(vals, vals[1:]))
            assert entries[0].family is CONST

    def test_frictionless_merged_equals_constant_family(self):
        merged = enumerate_spectrum(NAVIER, MERGED, 10)
        const_only = enumerate_spectrum(NAVIER, CONST, 10)
        assert [(e.value, e.multiplicity) for e in merged] == [
            (e.value, e.multiplicity) for e in const_only
        ]

    def test_frictionless_nonconstant_family_raises(self):
        with pytest.raises(InvalidCase):
            enumerate_spectrum(NAVIER, NONCONST, 5)

    @pytest.mark.parametrize("family,expected", [
        (CONST, (CONST,)), (NONCONST, (NONCONST,)),
        ("const", (CONST,)), ("CONST", (CONST,)), ("Const", (CONST,)),
        ("nonconst", (NONCONST,)), ("NONCONST", (NONCONST,)), ("NonConst", (NONCONST,)),
        (MERGED, (CONST, NONCONST)), ("MERGED", (CONST, NONCONST)), ("Merged", (CONST, NONCONST)),
    ], ids=repr)
    def test_family_spellings(self, family, expected):
        assert _normalize_family(family) == expected

    @pytest.mark.parametrize("family", [
        "constant", "nonconstant", "Constant", "NONCONSTANT",   # accepted once, used by no caller
        " const", "", "mixed", 3, None, 1.5, ["const"],
    ], ids=repr)
    def test_unknown_families_raise(self, family):
        message = f"unknown family {family!r}; use const, nonconst or merged"
        with pytest.raises(InvalidCase) as info:
            _normalize_family(family)
        assert str(info.value) == message
        with pytest.raises(InvalidCase):
            enumerate_spectrum(B1, family, 3)

    def test_count_validation(self):
        with pytest.raises(InvalidCount):
            enumerate_spectrum(B1, CONST, 0)
        with pytest.raises(InvalidCount):
            enumerate_spectrum(B1, CONST, -3)

    def test_entries_expose_witnesses(self):
        entries = enumerate_spectrum(B1, CONST, 2)
        first = entries[0]
        idx, permuted = first.lead
        assert (idx.m, idx.n, idx.p) == (0, 0, 0)
        assert permuted is False
        assert first.family is CONST
        # second group: mu^2 = 1 shell, multiplicity 8
        assert entries[1].multiplicity == 8
        total = sum(
            (8 if (perm and ix.m != ix.n) else 4) if ix.mu2 > 0 else 2
            for ix, perm in entries[1].witnesses
        )
        assert total == 8


def eager_spectrum(friction, family, count):
    """Reference: the eager heap loop, which groups every popped candidate
    and stops only once the count-th group can no longer change.  It builds
    every witness list afresh, so it shares no cache with `_spectrum`."""
    families = [f for f in _normalize_family(family)
                if not (friction.is_navier and f is NONCONST)]
    rank = {CONST: 0, NONCONST: 1}
    by_rank = {0: CONST, 1: NONCONST}
    first_p = {f: 1 if f is CONST and friction.is_dirichlet else 0 for f in families}
    heap = []

    def push(fam, mu2, p):
        rep = fresh_witnesses(mu2, p, fam)[0][0]
        heapq.heappush(heap, (bracket_for(rep).lo, rank[fam], mu2, p))

    for fam in families:
        push(fam, 0 if fam is CONST else 1, first_p[fam])
    groups = []  # [value, multiplicity, witnesses], sorted by value
    while True:
        floor = heap[0][0]
        if len(groups) >= count:
            cutoff = groups[count - 1][0]
            if floor > cutoff + GROUP_TOL * max(1.0, abs(cutoff)):
                break
        _, fam_rank, mu2, p = heapq.heappop(heap)
        fam = by_rank[fam_rank]
        wits = fresh_witnesses(mu2, p, fam)
        value = solve_details(wits[0][0], friction).value
        mult = sum(_witness_contribution(ix, perm) for ix, perm in wits)
        tol = GROUP_TOL * max(1.0, abs(value))
        lo = sum(1 for g in groups if g[0] < value)
        for j in (lo - 1, lo):
            if 0 <= j < len(groups) and abs(groups[j][0] - value) <= tol:
                groups[j][1] += mult
                groups[j][2] += list(wits)
                break
        else:
            groups.insert(lo, [value, mult, list(wits)])
        push(fam, mu2, p + 1)
        if p == first_p[fam]:
            step = mu2 + 1
            while not fresh_witnesses(step, 0, CONST):
                step += 1
            push(fam, step, p)
    out = []
    for value, mult, wits in groups[:count]:
        wits = sorted(wits, key=lambda w: (w[0].mu2, w[0].m, w[0].n, w[0].p))
        out.append((value, mult, tuple(wits)))
    return out


def eager_expansion(friction, family, count):
    """Reference: the figure's old (count+1)//2-groups expansion."""
    groups = max(1, (count + 1) // 2)
    while True:
        values = []
        for value, mult, _ in eager_spectrum(friction, family, groups):
            values.extend([value] * mult)
            if len(values) >= count:
                return values[:count]
        groups += max(2, groups // 2)


LAZY_CASES = [(NAVIER, "const"), (DIRICHLET, "const"), (DIRICHLET, "nonconst"),
              (DIRICHLET, MERGED)] + [
    (Friction.finite(beta), fam)
    for beta in (1e-4, 1e-2, 1.0, 1e2, 1e4)
    for fam in ("const", "nonconst", MERGED)
] + [(NAVIER, MERGED)] + [
    (Friction.finite(beta), fam)
    for beta in (1e-12, 1e15)
    for fam in ("const", "nonconst", MERGED)
]

# frictions that share one process's lattice cache, in forward order
SHARED_FRICTIONS = [NAVIER, Friction.finite(1e-12), Friction.finite(1e-4), B1,
                    Friction.finite(1e4), Friction.finite(1e15), DIRICHLET]




class TestLazyEnumeration:
    @pytest.mark.parametrize("friction,family", LAZY_CASES)
    def test_matches_eager_reference(self, friction, family):
        reference = eager_spectrum(friction, family, 120)
        for count in (1, 2, 17, 120):
            got = enumerate_spectrum(friction, family, count)
            assert [(e.value, e.multiplicity, e.witnesses) for e in got] == \
                reference[:count]
            # the eager loop stopped at this count rather than running on
            assert [(e.value, e.multiplicity, e.witnesses) for e in got] == \
                eager_spectrum(friction, family, count)

    @pytest.mark.parametrize("friction,family", LAZY_CASES)
    def test_expansion_matches_group_guess(self, friction, family):
        for count in (1, 2, 7, 500):
            assert expanded_spectrum(friction, family, count) == \
                eager_expansion(friction, family, count)

    @pytest.mark.parametrize("family", ["const", "nonconst", MERGED])
    def test_frictions_share_the_lattice_in_any_order(self, family):
        cases = [f for f in SHARED_FRICTIONS if not (f.is_navier and family == "nonconst")]
        reference = {f: eager_spectrum(f, family, 150) for f in cases}

        def entries(friction):
            return [(e.value, e.multiplicity, e.witnesses)
                    for e in enumerate_spectrum(friction, family, 150)]

        _lattice.cache_clear()
        for order in (cases, cases[::-1]):
            assert {f: entries(f) for f in order} == reference
        assert _lattice.cache_info().hits > 0
        _lattice.cache_clear()
        assert {f: entries(f) for f in cases[::-1]} == reference

    def test_cached_lattice_is_unchanged_by_enumeration(self, monkeypatch):
        def enumerate_all():
            for friction in SHARED_FRICTIONS:
                enumerate_spectrum(friction, MERGED, 300)
                expanded_spectrum(friction, MERGED, 1000)
            mode_sequence(B1, 60)

        keys = []
        lattice = _lattice

        def recording(*key):
            keys.append(key)
            return lattice(*key)

        _lattice.cache_clear()
        monkeypatch.setattr("slipchan.modes._lattice", recording)
        enumerate_all()
        built = _lattice.cache_info()
        assert built.misses == built.currsize == len(set(keys))  # each built once
        cached = {key: _lattice(*key) for key in set(keys)}
        enumerate_all()
        assert _lattice.cache_info().misses == built.misses  # every lookup a hit
        for key, (wits, mult) in cached.items():
            assert _lattice(*key)[0] is wits
            assert type(wits) is tuple and all(type(w) is tuple for w in wits)
            assert (wits, mult) == _lattice.__wrapped__(*key)
            assert mult == sum(_witness_contribution(*w) for w in wits)
        assert _lattice.cache_info().maxsize is not None

    def test_count_beyond_maxsize_is_invalid_count(self):
        huge = 10**400
        with pytest.raises(InvalidCount, match="sys.maxsize"):
            enumerate_spectrum(B1, CONST, huge)
        with pytest.raises(InvalidCount, match="sys.maxsize"):
            expanded_spectrum(B1, CONST, huge)
        with pytest.raises(InvalidCount, match="sys.maxsize"):
            mode_sequence(B1, huge)

    def test_expansion_validates_like_enumeration(self):
        with pytest.raises(InvalidCount):
            expanded_spectrum(B1, CONST, 0)
        with pytest.raises(InvalidCase):
            expanded_spectrum(NAVIER, NONCONST, 5)

    def test_mode_sequence_follows_reference_entries(self):
        modes = mode_sequence(B10, 40)
        expected = []
        for value, _, wits in eager_spectrum(B10, MERGED, 40):
            for index, permuted in wits:
                orients = [index]
                if permuted and index.m != index.n:
                    orients.append(WaveIndex(index.n, index.m, index.p, index.family))
                expected += [(o, c.as_tuple(), value)
                             for o in orients for c in coeff_basis(o, B10)]
        assert [(m.index, m.coeffs.as_tuple(), m.eigenvalue) for m in modes] == \
            expected[:40]


class TestModeSequence:
    def test_returns_requested_count_and_is_orthonormal(self):
        modes = mode_sequence(B1, 12)
        assert len(modes) == 12
        fields = [PlanarField.from_mode(m) for m in modes]
        for i, fi in enumerate(fields):
            for j in range(i, len(fields)):
                want = 1.0 if i == j else 0.0
                assert fi.inner(fields[j]) == pytest.approx(want, abs=1e-8)

    def test_eigenvalues_are_sorted(self):
        modes = mode_sequence(B10, 10)
        vals = [m.eigenvalue for m in modes]
        assert vals == sorted(vals)


# ---------------------------------------------------------------------------
# table rendering
# ---------------------------------------------------------------------------


class TestEmitTable:
    def test_csv_headline_row(self):
        out = emit_table(B1, CONST, 3, "csv")
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == "1,const,0,0,0,false,0.740174,2"

    def test_csv_vertical_overtone_row(self):
        out = emit_table(B1, CONST, 4, "csv")
        row4 = out.strip().splitlines()[4].split(",")
        assert row4[:6] == ["4", "const", "0", "0", "1", "false"]
        assert float(row4[6]) == pytest.approx(4.115858365694523, rel=1e-5)
        assert row4[7] == "2"

    def test_frictionless_first_row_is_exact_zero(self):
        out = emit_table(NAVIER, MERGED, 1, "csv")
        assert out.strip().splitlines()[1] == "1,const,0,0,0,false,0,2"

    def test_rerenders_identically(self):
        a = emit_table(B10, NONCONST, 10, "csv")
        b = emit_table(B10, NONCONST, 10, "csv")
        assert a == b

    def test_json_mirrors_csv(self):
        csv_out = emit_table(B1, MERGED, 5, "csv").strip().splitlines()[1:]
        rows = json.loads(emit_table(B1, MERGED, 5, "json"))["rows"]
        assert len(rows) == 5
        for line, row in zip(csv_out, rows):
            j, family, m, n, p, permuted, value, mult = line.split(",")
            assert row["j"] == int(j)
            assert row["family"] == family
            assert (row["m"], row["n"], row["p"]) == (int(m), int(n), int(p))
            assert row["permuted"] is (permuted == "true")
            assert row["value"] == float(value)
            assert row["multiplicity"] == int(mult)

    def test_json_matches_the_former_writer(self):
        # the former writer listed CSV_HEADER's eight keys itself
        def former_render_json(entries):
            rows = []
            for j, entry in enumerate(entries, start=1):
                row = _row_tuple(j, entry)
                rows.append({
                    "j": row[0], "family": row[1], "m": row[2], "n": row[3],
                    "p": row[4], "permuted": row[5] == "true",
                    "value": float(row[6]), "multiplicity": row[7],
                })
            return json.dumps({"rows": rows}, indent=2) + "\n"

        for friction in (B1, B10, Friction.finite(1e-3), NAVIER, DIRICHLET):
            for family in (CONST, NONCONST, MERGED):
                if friction.first_p(NONCONST) is None and family is NONCONST:
                    continue
                entries = enumerate_spectrum(friction, family, 60)
                assert render_json(entries) == former_render_json(entries), (friction, family)
        assert render_json([]) == former_render_json([])

    def test_rejects_zero_count(self):
        with pytest.raises(InvalidCount):
            emit_table(B1, CONST, 0, "csv")

    def test_rejects_an_unknown_format_before_enumerating(self, monkeypatch):
        def enumerate_spectrum(*args):
            raise AssertionError("the spectrum was enumerated")

        monkeypatch.setattr("slipchan.modes.enumerate_spectrum", enumerate_spectrum)
        with pytest.raises(InvalidCase, match="format must be csv or json, got 'xml'"):
            emit_table(B1, MERGED, 200000, "xml")
