"""Eigenmode construction, spectrum enumeration and table rendering.

The z-profiles per case:

Constant-pressure family (pressure gradient zero, reported q = 0):
  * finite friction: third component zero; the active profile is cos(s z)
    on the even branch, sin(s z) on the odd one, with the pair (U, V)
    tied by the divergence constraint m*U + n*V = 0.
  * frictionless walls: same shapes with s = pi*p/2; for p >= 1 the
    eigenspace also contains modes with a nonzero third component
    (W = sin/cos paired with U, V so that W' = m*U + n*V).
  * no-slip walls: p >= 1, s = pi*p/2, profile sin(s z) for even p and
    cos(s z) for odd p (the parity that vanishes at the walls).  The
    third component is identically zero: a nonzero W would need
    m*U + n*V proportional to W', whose trig parity is the opposite of
    the one the wall conditions leave available.

Non-constant-pressure family (mu > 0): hyperbolic/trigonometric pairs whose
boundary conditions hold identically; the eigenvalue equation is exactly the
divergence constraint W' = m*U + n*V.  One formula serves both parities: on
the even one U, V and Q carry sin(s z) and sinh(mu z) and W carries cos(s z)
and cosh(mu z); the odd one is the even one with sin <-> cos and
sinh <-> cosh swapped and the s-terms negated.  Every hyperbolic factor is
divided by cosh(mu), so no weight grows with mu and every index builds.

One root-profile-norm step per index (`_profiles`) decides its eigenspace:
`build_mode` weights its z-integrals of U^2, V^2, W^2 by a pick's planar
factors, and `coeff_basis` keeps the unit picks of nonzero weighted norm.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import json
import math
import sys
from dataclasses import dataclass

from .core import (
    EigenMode,
    Friction,
    PlanarCoeffs,
    PressureFamily,
    WaveIndex,
    ZProfile,
    planar_l2_weight,
)
from .eigensolver import s_interval, solve_details
from .errors import InvalidCase, InvalidCount, InvalidIndex, ZeroMode

CONSTANT = PressureFamily.CONSTANT
NONCONSTANT = PressureFamily.NONCONSTANT

MERGED = "merged"

# relative tolerance for grouping two eigenvalues into one spectrum entry
GROUP_TOL = 1e-9


# --------------------------------------------------------------------------
# profile construction
# --------------------------------------------------------------------------


def _const_profiles(index: WaveIndex, friction: Friction, s: float, even: bool):
    """(U, V, W) for the constant-pressure family; Q is always zero."""
    m, n, p = index.m, index.n, index.p
    zero = ZProfile.zero()
    base = ZProfile.cos(s) if even else ZProfile.sin(s)
    if m == 0 and n == 0:
        return base, base, zero
    if friction.is_navier and p >= 1:
        # richer frictionless eigenspace: third component present; the odd
        # parity swaps sin <-> cos and negates the s-terms
        sign = 1.0 if even else -1.0
        wprof = ZProfile.sin(s) if even else ZProfile.cos(s)
        if n == 0:
            return base.scale(sign * s / m), base, wprof
        return base, base.scale((-m + sign * s) / n), wprof
    # finite friction, no-slip walls (`_profile_parity` has picked the
    # wall-vanishing parity: sin for even p, cos for odd p) and the
    # frictionless p = 0 constants, where s = 0 collapses cos(s z) to 1
    if n == 0:
        return zero, base, zero
    return base, base.scale(-m / n), zero


def _nonconst_profiles(index: WaveIndex, friction: Friction, value: float,
                       s: float, even: bool):
    """(U, V, W, Q) for the pressure-carrying family, both parities in one
    formula (see the module docstring), with every hyperbolic factor divided
    by cosh(mu) so that no weight grows with mu; tu, tw, hu, hw are the trig
    and scaled hyperbolic parts of U and W at z = 1."""
    m, n, mu = index.m, index.n, index.mu
    beta = friction.beta if friction.is_finite else None
    sign = 1.0 if even else -1.0
    trig_u, trig_w = (ZProfile.sin, ZProfile.cos) if even else (ZProfile.cos, ZProfile.sin)
    tu, tw = (math.sin(s), math.cos(s)) if even else (math.cos(s), math.sin(s))
    hu, hw = (math.tanh(mu), 1.0) if even else (1.0, math.tanh(mu))
    half = 1.0 / (1.0 + math.exp(-2.0 * mu))

    def hyperbolic(parity: float, w: float) -> ZProfile:
        # w cosh(mu z) / cosh(mu) (parity 1) or w sinh(mu z) / cosh(mu) (-1)
        return ZProfile.make([(0, mu, w * half), (0, -mu, parity * w * half)])

    if beta is None:
        denom, amp = tu, hu
    else:
        denom = beta * tu + sign * s * tw
        amp = mu * hw + beta * hu
    u = hyperbolic(-sign, m) + trig_u(s, -m * amp / denom)
    w = hyperbolic(sign, mu) + trig_w(s, -mu * hw / tw)
    v = ZProfile.zero()
    if n > 0:
        slope = mu * s * hw
        wall = m * m * hu + (slope * math.tan(s) if even else -(slope / math.tan(s)))
        if beta is None:
            vc = wall / (n * tu)
        else:
            vc = (mu * (value - n * n) * hw + beta * wall) / (n * denom)
        v = hyperbolic(-sign, n) + trig_u(s, vc)
    return u, v, w, hyperbolic(-sign, value)


def _profile_parity(index: WaveIndex, friction: Friction) -> bool:
    """True when the trig part of the profiles is the even (cos-type) one.

    Parity counts from the ladder's first rung (`Friction.first_p`), so the
    no-slip constant family, whose sin or cos of p*pi*z/2 vanishes at the
    walls, has the parity of p - 1.
    """
    return (index.p - friction.first_p(index.family)) % 2 == 0


# Shared by build_mode, coeff_basis and mode_sequence: verify's suites meet
# each index of a friction up to three times.
@functools.lru_cache(maxsize=1024)
def _profiles(index: WaveIndex, friction: Friction):
    """The one root-profile-norm step of an index: its root, parity,
    unnormalised (U, V, W, Q) and the z-integrals of U^2, V^2 and W^2,
    all immutable, so that the cached step is shared safely."""
    res = solve_details(index, friction)
    even = _profile_parity(index, friction)
    if index.family is CONSTANT:
        profiles = (*_const_profiles(index, friction, res.s, even), ZProfile.zero())
    else:
        profiles = _nonconst_profiles(index, friction, res.value, res.s, even)
    return res, even, profiles, tuple(prof.inner(prof) for prof in profiles[:3])


def _norm_sq(step, coeffs: PlanarCoeffs):
    """A pick's squared velocity norm and its u, v and w shares, each planar
    weight times its z-integral."""
    res, _, _, squares = step
    su, sv, sw = (planar_l2_weight(res.index, coeffs, comp) * sq
                  for comp, sq in zip("uvw", squares))
    return su + sv + sw, (su, sv, sw)


def _mode(step, coeffs: PlanarCoeffs) -> EigenMode:
    """The normalised mode of one pick, from its index's step."""
    res, even, profiles, _ = step
    norm_sq, _ = _norm_sq(step, coeffs)
    if norm_sq <= 0.0:
        raise ZeroMode(
            f"coefficients {coeffs.as_tuple()} annihilate the eigenfunction "
            f"of {res.index}")
    norm = math.sqrt(norm_sq)
    inv = 1.0 / norm
    return EigenMode(res.index, res.friction, res.value, coeffs,
                     *(prof.scale(inv) for prof in profiles), norm,
                     "even" if even else "odd")


def build_mode(index: WaveIndex, friction: Friction,
               coeffs: PlanarCoeffs) -> EigenMode:
    """Normalized eigenmode for one wave index, friction and coefficient pick."""
    return _mode(_profiles(index, friction), coeffs)


_UNIT_PICKS = tuple(PlanarCoeffs(**{slot: 1.0}) for slot in "abcd")


def _unit_picks(step) -> tuple[PlanarCoeffs, ...]:
    shares = [_norm_sq(step, pick)[1] for pick in _UNIT_PICKS]
    return tuple(dict.fromkeys(pick for k in range(3) for pick, share
                               in zip(_UNIT_PICKS, shares) if share[k] > 0.0))


def coeff_basis(index: WaveIndex, friction: Friction) -> tuple[PlanarCoeffs, ...]:
    """Unit coefficient picks spanning the eigenspace `build_mode` builds.

    Both read the index's one root-profile-norm step: a unit pick belongs
    exactly when it meets a component of nonzero norm; any other pick raises
    ZeroMode.  Picks come in the order the components u, v, w first meet
    them, and distinct picks build pairwise orthogonal modes.  An index with
    no eigenmode raises what `build_mode` does.
    """
    return _unit_picks(_profiles(index, friction))


# --------------------------------------------------------------------------
# multiplicities and spectrum enumeration
# --------------------------------------------------------------------------


def _shell(mu2: int) -> list[tuple[int, int]]:
    """Lattice pairs (m, n) with m >= n >= 0 and m^2 + n^2 = mu2, ascending m."""
    out = []
    for m in range(math.isqrt(mu2 // 2), math.isqrt(mu2) + 1):
        n = math.isqrt(mu2 - m * m)
        if n <= m and n * n == mu2 - m * m:
            out.append((m, n))
    return out


def multiplicity_of_value(mu2: int, family: PressureFamily | None = None) -> int:
    """Reported multiplicity of the eigenvalue carried by one mu^2 shell.

    Counting convention: 2 for the zero shell, 8 per axis pair {(k,0),(0,k)},
    4 per ordered positive pair (m, n) — i.e. 8 per unordered pair with
    m != n plus 4 for a diagonal pair (m, m).
    """
    if not isinstance(mu2, int) or isinstance(mu2, bool) or mu2 < 0:
        raise InvalidIndex(f"mu^2 must be a non-negative integer, got {mu2!r}")
    if mu2 == 0 and family is NONCONSTANT:
        raise InvalidIndex(
            "the pressure-carrying family needs a nonzero planar wavenumber")
    total = _lattice(mu2, 0, CONSTANT)[1]
    if total == 0:
        raise InvalidIndex(f"{mu2} is not a sum of two squares")
    return total


def _witness_contribution(index: WaveIndex, permuted: bool) -> int:
    if index.m == 0 and index.n == 0:
        return 2
    if permuted:
        return 8
    return 4


# The lattice half of the spectrum, built once per process and shared by
# every friction; seven merged 4000-value staircases reach 740 candidates.
@functools.lru_cache(maxsize=4096)
def _lattice(mu2: int, p: int, family: PressureFamily):
    """(witnesses, multiplicity) of the candidate (mu2, p) of `family`: the
    canonical (WaveIndex, permuted) witnesses of one mu^2 shell and the sum
    of their contributions.

    Contributions: (0,0) -> 2; (k,0) permuted -> 8; (m,n) with m > n >= 1
    permuted -> 8; (m,m) -> 4.  Ascending m, so the axis witness (k, 0)
    comes last and the smallest-m pair leads and labels the table row
    (mu2 = 25 gives (4,3), (5,0), labelled 4,3).
    """
    wits = tuple((WaveIndex(m, n, p, family), m != n) for m, n in _shell(mu2))
    return wits, sum(_witness_contribution(index, permuted) for index, permuted in wits)


@dataclass(frozen=True)
class SpectrumEntry:
    """One distinct eigenvalue with its reported multiplicity."""

    value: float
    multiplicity: int
    witnesses: tuple[tuple[WaveIndex, bool], ...]

    @property
    def lead(self) -> tuple[WaveIndex, bool]:
        return self.witnesses[0]

    @property
    def family(self) -> PressureFamily:
        return self.lead[0].family


def _next_shell(mu2: int) -> int:
    t = mu2 + 1
    while not _shell(t):
        t += 1
    return t


def _normalize_family(family) -> tuple[PressureFamily, ...]:
    label = family.lower() if isinstance(family, str) else family
    if label == MERGED:
        return (CONSTANT, NONCONSTANT)
    try:
        return (PressureFamily(label),)
    except ValueError:
        raise InvalidCase(f"unknown family {family!r}; use const, nonconst or merged") from None


def _spectrum(friction: Friction, families: list[PressureFamily]):
    """Every distinct eigenvalue, smallest first, as (value, multiplicity,
    witnesses), each yielded once final.

    Candidates (mu^2, p) are explored in increasing bracket-floor order and
    grouped in that pop order.  The smallest held group is final, and is
    yielded, once the smallest unexplored floor exceeds its value plus the
    grouping tolerance: no later value can join it or sort before it, so
    the entries do not depend on where the caller stops.
    """
    # (floor, k, mu2, p) for families[k], which lists CONSTANT first
    heap: list[tuple[float, int, int, int]] = []
    first_p = [friction.first_p(fam) for fam in families]

    def push(k: int, mu2: int, p: int) -> None:
        heapq.heappush(heap, (mu2 + s_interval(p, families[k])[0] ** 2, k, mu2, p))

    for k, fam in enumerate(families):
        push(k, 0 if fam is CONSTANT else 1, first_p[k])

    # held groups by ascending values[j]: [multiplicity, sorted witnesses];
    # a candidate's own witnesses already ascend in m at its (mu2, p)
    values: list[float] = []
    groups: list[list] = []
    while True:
        _, k, mu2, p = heapq.heappop(heap)
        wits, mult = _lattice(mu2, p, families[k])
        value = solve_details(wits[0][0], friction).value
        tol = GROUP_TOL * max(1.0, abs(value))
        lo = bisect.bisect_left(values, value)
        for j in (lo - 1, lo):
            if 0 <= j < len(values) and abs(values[j] - value) <= tol:
                groups[j][0] += mult
                groups[j][1] = tuple(sorted(groups[j][1] + wits, key=lambda wit: (
                    wit[0].mu2, wit[0].m, wit[0].n, wit[0].p)))
                break
        else:
            values.insert(lo, value)
            groups.insert(lo, [mult, wits])
        push(k, mu2, p + 1)
        if p == first_p[k]:
            push(k, _next_shell(mu2), p)
        floor = heap[0][0]
        while values and floor > values[0] + GROUP_TOL * max(1.0, abs(values[0])):
            yield values.pop(0), *groups.pop(0)


def _entries(friction: Friction, family, count):
    """The lazy spectrum of `family`, after the checks its callers share."""
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise InvalidCount(f"count must be a positive integer, got {count!r}")
    if count > sys.maxsize:
        raise InvalidCount(f"count must be at most sys.maxsize = {sys.maxsize}")
    families = [fam for fam in _normalize_family(family)
                if friction.first_p(fam) is not None]
    if not families:
        raise InvalidCase("frictionless walls admit only constant-pressure modes")
    return _spectrum(friction, families)


def enumerate_spectrum(friction: Friction, family=MERGED,
                       count: int = 10) -> list[SpectrumEntry]:
    """First `count` distinct eigenvalues, smallest first, with witnesses.

    Candidates are explored lazily in increasing bracket-floor order, so the
    search is exhaustive by construction: it stops only when every
    unexplored index has a floor above the current count-th value.
    """
    return [SpectrumEntry(*entry)
            for entry in itertools.islice(_entries(friction, family, count), count)]


def expanded_spectrum(friction: Friction, family, count: int) -> list[float]:
    """First `count` eigenvalues with each value repeated per multiplicity."""
    values: list[float] = []
    for value, multiplicity, _ in _entries(friction, family, count):
        values.extend([value] * multiplicity)
        if len(values) >= count:
            return values[:count]


def mode_sequence(friction: Friction, count: int) -> list[EigenMode]:
    """First `count` constructible modes of the merged spectrum, in order.

    Entries expand into orientations ((m,n) plus (n,m) when permuted) and
    then into the coefficient basis of each orientation, giving a
    deterministic orthonormal sequence.
    """
    modes: list[EigenMode] = []
    for _, _, witnesses in _entries(friction, MERGED, count):
        for index, permuted in witnesses:
            flipped = WaveIndex(index.n, index.m, index.p, index.family)
            for orient in (index, flipped) if permuted else (index,):
                step = _profiles(orient, friction)
                for coeffs in _unit_picks(step):
                    modes.append(_mode(step, coeffs))
                    if len(modes) == count:
                        return modes


# --------------------------------------------------------------------------
# table rendering
# --------------------------------------------------------------------------

CSV_HEADER = "j,family,m,n,p,permuted,value,multiplicity"


def _row_tuple(j: int, entry: SpectrumEntry):
    index, permuted = entry.lead
    return (j, index.family.value, index.m, index.n, index.p,
            "true" if permuted else "false",
            f"{entry.value:.6g}", entry.multiplicity)


def render_csv(entries: list[SpectrumEntry]) -> str:
    lines = [CSV_HEADER]
    for j, entry in enumerate(entries, start=1):
        lines.append(",".join(str(x) for x in _row_tuple(j, entry)))
    return "\n".join(lines) + "\n"


def render_json(entries: list[SpectrumEntry]) -> str:
    rows = []
    for j, entry in enumerate(entries, start=1):
        row = _row_tuple(j, entry)
        rows.append(dict(zip(CSV_HEADER.split(","), row),
                         permuted=row[5] == "true", value=float(row[6])))
    return json.dumps({"rows": rows}, indent=2) + "\n"


def emit_table(friction: Friction, family, count: int, fmt: str = "csv") -> str:
    """Rendered spectrum table; `fmt` is csv or json, checked before the
    spectrum is enumerated."""
    if fmt not in ("csv", "json"):
        raise InvalidCase(f"format must be csv or json, got {fmt!r}")
    entries = enumerate_spectrum(friction, family, count)
    return render_csv(entries) if fmt == "csv" else render_json(entries)
