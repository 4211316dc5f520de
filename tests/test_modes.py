"""Mode construction, spectrum enumeration, multiplicities, table rendering."""

import heapq
import json
import math

import mpmath
import pytest

from slipchan.core import (
    Friction,
    PlanarCoeffs,
    PressureFamily,
    WaveIndex,
    planar_l2_weight,
)
from slipchan.eigensolver import bracket_for, eigenvalue, solve_details
from slipchan.errors import InvalidCase, InvalidCount, InvalidIndex, ZeroMode
from slipchan.fields import PlanarField
from slipchan.modes import (
    CSV_HEADER,
    GROUP_TOL,
    MERGED,
    _lattice_witnesses,
    _next_shell,
    _normalize_family,
    _witness_contribution,
    build_mode,
    coeff_basis,
    emit_table,
    enumerate_spectrum,
    expanded_spectrum,
    mode_sequence,
    multiplicity_of_value,
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
    @pytest.mark.parametrize("friction", [B1, DIRICHLET], ids=lambda f: f.label())
    @pytest.mark.parametrize(
        "index",
        [(400, 0, 0), (240, 320, 0), (800, 0, 0), (480, 640, 0)],
        ids=str,
    )
    def test_overflowing_profiles_are_rejected(self, friction, index):
        # at mu = 400 the squared profiles overflow inside the norm, at
        # mu = 800 sinh(mu) itself does; either way no mode comes back
        idx = WaveIndex(*index, NONCONST)
        with pytest.raises(InvalidCase, match=f"mu = {idx.mu:g}"):
            build_mode(idx, friction, PlanarCoeffs(a=1, c=1))

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


_MP_ATOMS = {"sin": mpmath.sin, "cos": mpmath.cos,
             "sinh": mpmath.sinh, "cosh": mpmath.cosh}


def mp_inner(a, b):
    """Velocity inner product of two modes sharing (m, n) and coefficients,
    at 50 digits: mpmath.quad of the modes' own z-profiles, weighted by the
    closed-form planar integral of each component, on pieces spanning about
    64 radians of the product's frequency.  The integrand is gathered into
    one coefficient per pair of atoms, each atom evaluated once per node."""
    assert (a.index.m, a.index.n, a.coeffs) == (b.index.m, b.index.n, b.coeffs)
    with mpmath.workdps(50):
        coef, freq = {}, 0.0
        for comp in ("u", "v", "w"):
            weight = planar_l2_weight(a.index, a.coeffs, comp)
            pa, pb = getattr(a, comp + "_profile"), getattr(b, comp + "_profile")
            if weight == 0.0 or pa.is_zero or pb.is_zero:
                continue
            freq = max(freq, pa.max_frequency + pb.max_frequency)
            for ka, qa, wa in pa.terms:
                for kb, qb, wb in pb.terms:
                    key = ((ka, qa), (kb, qb))
                    coef[key] = coef.get(key, 0) + mpmath.mpf(weight) * wa * wb
        atoms = [(key, _MP_ATOMS.get(key[0]), mpmath.mpf(key[1]))
                 for key in {k for pair in coef for k in pair}]

        def integrand(z):
            at = {key: z ** int(q) if f is None else f(q * z) for key, f, q in atoms}
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
        with pytest.raises(InvalidIndex):
            multiplicity_of_value(3)  # not a sum of two squares

    def test_zero_shell_excluded_from_pressure_family(self):
        with pytest.raises(InvalidIndex):
            multiplicity_of_value(0, NONCONST)


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
    and stops only once the count-th group can no longer change."""
    families = [f for f in _normalize_family(family)
                if not (friction.is_navier and f is NONCONST)]
    rank = {CONST: 0, NONCONST: 1}
    by_rank = {0: CONST, 1: NONCONST}
    first_p = {f: 1 if f is CONST and friction.is_dirichlet else 0 for f in families}
    heap = []

    def push(fam, mu2, p):
        rep = _lattice_witnesses(mu2, p, fam)[0][0]
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
        wits = _lattice_witnesses(mu2, p, fam)
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
            push(fam, _next_shell(mu2), p)
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
]


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

    def test_expansion_validates_like_enumeration(self):
        with pytest.raises(InvalidCount):
            expanded_spectrum(B1, CONST, 0)
        with pytest.raises(InvalidCase):
            expanded_spectrum(NAVIER, NONCONST, 5)

    def test_mode_sequence_follows_reference_entries(self):
        modes = mode_sequence(B10, 40, MERGED)
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
        modes = mode_sequence(B1, 12, MERGED)
        assert len(modes) == 12
        fields = [PlanarField.from_mode(m) for m in modes]
        for i, fi in enumerate(fields):
            for j in range(i, len(fields)):
                want = 1.0 if i == j else 0.0
                assert fi.inner(fields[j]) == pytest.approx(want, abs=1e-8)

    def test_eigenvalues_are_sorted(self):
        modes = mode_sequence(B10, 10, MERGED)
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

    def test_rejects_zero_count(self):
        with pytest.raises(InvalidCount):
            emit_table(B1, CONST, 0, "csv")
