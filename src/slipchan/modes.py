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
divergence constraint W' = m*U + n*V.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
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


def _even_odd_profile(even: bool, s: float) -> ZProfile:
    return ZProfile.cos(s) if even else ZProfile.sin(s)


def _const_profiles(index: WaveIndex, friction: Friction, s: float, even: bool):
    """(U, V, W) for the constant-pressure family; Q is always zero."""
    m, n, p = index.m, index.n, index.p
    zero = ZProfile.zero()
    if friction.is_navier and p >= 1:
        # richer frictionless eigenspace: third component present
        base = _even_odd_profile(even, s)
        wprof = ZProfile.sin(s) if even else ZProfile.cos(s)
        if m == 0 and n == 0:
            return base, base, zero
        if n == 0:
            u = base.scale(s / m) if even else base.scale(-s / m)
            return u, base, wprof
        vcoef = (-m + s) / n if even else -(m + s) / n
        return base, base.scale(vcoef), wprof
    if friction.is_dirichlet:
        # wall-vanishing parity: sin for even p, cos for odd p
        base = ZProfile.sin(s) if p % 2 == 0 else ZProfile.cos(s)
        if m == 0 and n == 0:
            return base, base, zero
        if n == 0:
            return zero, base, zero
        if m == 0:
            return base, zero, zero
        return base, base.scale(-m / n), zero
    # finite friction (and the frictionless p = 0 constants, where s = 0
    # collapses cos(s z) to 1)
    base = _even_odd_profile(even, s)
    if m == 0 and n == 0:
        return base, base, zero
    if n == 0:
        return zero, base, zero
    if m == 0:
        return base, zero, zero
    return base, base.scale(-m / n), zero


def _nonconst_profiles(index: WaveIndex, friction: Friction, value: float,
                       s: float, even: bool):
    """(U, V, W, Q) for the pressure-carrying family."""
    m, n = index.m, index.n
    mu = index.mu
    mu2 = float(index.mu2)
    beta = friction.beta if friction.is_finite else None
    sin_s, cos_s = math.sin(s), math.cos(s)
    sinh_mu, cosh_mu = math.sinh(mu), math.cosh(mu)
    zero = ZProfile.zero()
    if even:
        if beta is None:
            denom = sin_s
            amp = sinh_mu
        else:
            denom = beta * sin_s + s * cos_s
            amp = mu * cosh_mu + beta * sinh_mu
        u = ZProfile.sinh(mu, m) + ZProfile.sin(s, -m * amp / denom)
        w = ZProfile.cosh(mu, mu) + ZProfile.cos(s, -mu * cosh_mu / cos_s)
        if n > 0:
            if beta is None:
                vc = (m * m * sinh_mu + mu * s * cosh_mu * math.tan(s)) / (n * sin_s)
            else:
                vc = (mu * (value - n * n) * cosh_mu
                      + beta * (m * m * sinh_mu + mu * s * cosh_mu * math.tan(s))
                      ) / (n * denom)
            v = ZProfile.sinh(mu, float(n)) + ZProfile.sin(s, vc)
        else:
            v = zero
        q = ZProfile.sinh(mu, value)
    else:
        if beta is None:
            denom = cos_s
            amp = cosh_mu
        else:
            denom = beta * cos_s - s * sin_s
            amp = mu * sinh_mu + beta * cosh_mu
        u = ZProfile.cosh(mu, m) + ZProfile.cos(s, -m * amp / denom)
        w = ZProfile.sinh(mu, mu) + ZProfile.sin(s, -mu * sinh_mu / sin_s)
        if n > 0:
            if beta is None:
                vc = (m * m * cosh_mu - mu * s * sinh_mu / math.tan(s)) / (n * cos_s)
            else:
                vc = (mu * (value - n * n) * sinh_mu
                      + beta * (m * m * cosh_mu - mu * s * sinh_mu / math.tan(s))
                      ) / (n * denom)
            v = ZProfile.cosh(mu, float(n)) + ZProfile.cos(s, vc)
        else:
            v = zero
        q = ZProfile.cosh(mu, value)
    return u, v, w, q


def _profile_parity(index: WaveIndex, friction: Friction, branch: str) -> bool:
    """True when the trig part of the profiles is the even (cos-type) one."""
    if branch in ("even", "odd"):
        return branch == "even"
    # closed forms: frictionless keeps the bracket parity, no-slip flips it
    if friction.is_dirichlet and index.family is CONSTANT:
        return index.p % 2 == 1
    return index.p % 2 == 0


def _overflow(index: WaveIndex) -> InvalidCase:
    return InvalidCase(
        f"the profiles of {index} overflow double precision at "
        f"mu = {index.mu:.6g}")


def build_mode(index: WaveIndex, friction: Friction,
               coeffs: PlanarCoeffs) -> EigenMode:
    """Normalized eigenmode for one wave index, friction and coefficient pick."""
    res = solve_details(index, friction)
    even = _profile_parity(index, friction, res.branch)
    try:
        if index.family is CONSTANT:
            u, v, w = _const_profiles(index, friction, res.s, even)
            q = ZProfile.zero()
        else:
            u, v, w, q = _nonconst_profiles(index, friction, res.value, res.s, even)
        norm_sq = 0.0
        for comp, prof in (("u", u), ("v", v), ("w", w)):
            weight = planar_l2_weight(index, coeffs, comp)
            if weight != 0.0:
                norm_sq += weight * prof.inner(prof)
    except OverflowError as exc:
        raise _overflow(index) from exc
    if not math.isfinite(norm_sq):
        raise _overflow(index)
    if norm_sq <= 0.0:
        raise ZeroMode(
            f"coefficients {coeffs.as_tuple()} annihilate the eigenfunction "
            f"of {index}")
    norm = math.sqrt(norm_sq)
    inv = 1.0 / norm
    return EigenMode(
        index=index,
        friction=friction,
        eigenvalue=res.value,
        coeffs=coeffs,
        u_profile=u.scale(inv),
        v_profile=v.scale(inv),
        w_profile=w.scale(inv),
        q_profile=q.scale(inv),
        norm=norm,
        branch="even" if even else "odd",
    )


def coeff_basis(index: WaveIndex, friction: Friction) -> tuple[PlanarCoeffs, ...]:
    """Unit coefficient picks spanning the actual eigenspace of one index.

    Modes built from distinct picks of this list are pairwise orthogonal
    (the active planar slots either coincide — then orthogonality is the
    dot product of the coefficient vectors — or live on disjoint trig
    factors).
    """
    m, n = index.m, index.n
    if index.family is CONSTANT:
        if m == 0 and n == 0:
            slots = ("d", "b")
        elif n == 0:
            rich = friction.is_navier and index.p >= 1
            slots = ("a", "b", "c", "d") if rich else ("a", "b")
        elif m == 0:
            rich = friction.is_navier and index.p >= 1
            slots = ("a", "b", "c", "d") if rich else ("a", "d")
        else:
            slots = ("a", "b", "c", "d")
    else:
        if n == 0:
            slots = ("c", "d")
        elif m == 0:
            slots = ("b", "c")
        else:
            slots = ("a", "b", "c", "d")
    return tuple(PlanarCoeffs(**{s: 1.0}) for s in slots)


# --------------------------------------------------------------------------
# multiplicities and spectrum enumeration
# --------------------------------------------------------------------------


def _positive_pairs(mu2: int) -> list[tuple[int, int]]:
    """Ordered lattice pairs (m, n) with m, n >= 1 and m^2 + n^2 = mu2."""
    out = []
    for m in range(1, math.isqrt(mu2) + 1):
        rem = mu2 - m * m
        if rem < 1:
            continue
        n = math.isqrt(rem)
        if n >= 1 and n * n == rem:
            out.append((m, n))
    return out


def multiplicity_of_value(mu2: int, family: PressureFamily | None = None) -> int:
    """Reported multiplicity of the eigenvalue carried by one mu^2 shell.

    Counting convention: 2 for the zero shell, 8 per axis pair {(k,0),(0,k)},
    4 per ordered positive pair (m, n) — i.e. 8 per unordered pair with
    m != n plus 4 for a diagonal pair (m, m).
    """
    if not isinstance(mu2, int) or mu2 < 0:
        raise InvalidIndex(f"mu^2 must be a non-negative integer, got {mu2!r}")
    if mu2 == 0:
        if family is NONCONSTANT:
            raise InvalidIndex(
                "the pressure-carrying family needs a nonzero planar wavenumber")
        return 2
    total = 0
    k = math.isqrt(mu2)
    if k * k == mu2:
        total += 8
    total += 4 * len(_positive_pairs(mu2))
    if total == 0:
        raise InvalidIndex(f"{mu2} is not a sum of two squares")
    return total


def _lattice_witnesses(mu2: int, p: int, family: PressureFamily):
    """Canonical (WaveIndex, permuted) witnesses of one mu^2 shell.

    Contributions: (0,0) -> 2; (k,0) permuted -> 8; (m,n) with m > n >= 1
    permuted -> 8; (m,m) -> 4.  Sorted by (m, n) descending m first so the
    axis witness (k, 0) leads, matching the table labels.
    """
    if mu2 == 0:
        return ((WaveIndex(0, 0, p, family), False),)
    out = []
    k = math.isqrt(mu2)
    if k * k == mu2:
        out.append((WaveIndex(k, 0, p, family), True))
    for m, n in _positive_pairs(mu2):
        if m > n:
            out.append((WaveIndex(m, n, p, family), True))
        elif m == n:
            out.append((WaveIndex(m, m, p, family), False))
    out.sort(key=lambda wit: (wit[0].m, wit[0].n))
    return tuple(out)


def _witness_contribution(index: WaveIndex, permuted: bool) -> int:
    if index.m == 0 and index.n == 0:
        return 2
    if permuted:
        return 8
    return 4


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


def _is_sum_of_two_squares(t: int) -> bool:
    for m in range(math.isqrt(t) + 1):
        n2 = t - m * m
        n = math.isqrt(n2)
        if n * n == n2:
            return True
    return False


def _next_shell(mu2: int) -> int:
    t = mu2 + 1
    while not _is_sum_of_two_squares(t):
        t += 1
    return t


def _normalize_family(family) -> tuple[PressureFamily, ...] | str:
    if isinstance(family, PressureFamily):
        return (family,)
    if isinstance(family, str):
        label = family.lower()
        if label in ("const", "constant", CONSTANT.value):
            return (CONSTANT,)
        if label in ("nonconst", "nonconstant", NONCONSTANT.value):
            return (NONCONSTANT,)
        if label == MERGED:
            return (CONSTANT, NONCONSTANT)
    raise InvalidCase(f"unknown family {family!r}; use const, nonconst or merged")


def _spectrum(friction: Friction, families: list[PressureFamily]):
    """Every distinct eigenvalue, smallest first, each yielded once final.

    Candidates (mu^2, p) are explored in increasing bracket-floor order and
    grouped in that pop order.  The smallest held group is final, and is
    yielded, once the smallest unexplored floor exceeds its value plus the
    grouping tolerance: no later value can join it or sort before it, so
    the entries do not depend on where the caller stops.
    """
    heap: list[tuple[float, int, int, int]] = []  # (floor, fam_rank, mu2, p)
    rank = {CONSTANT: 0, NONCONSTANT: 1}
    by_rank = {0: CONSTANT, 1: NONCONSTANT}

    def first_p(fam: PressureFamily) -> int:
        return 1 if fam is CONSTANT and friction.is_dirichlet else 0

    def push(fam: PressureFamily, mu2: int, p: int) -> None:
        floor = mu2 + s_interval(p, fam)[0] ** 2
        heapq.heappush(heap, (floor, rank[fam], mu2, p))

    for fam in families:
        push(fam, 0 if fam is CONSTANT else 1, first_p(fam))

    # groups kept sorted by value: list of [value, multiplicity, witnesses]
    groups: list[list] = []

    def insort(value: float, wits) -> None:
        mult = sum(_witness_contribution(ix, perm) for ix, perm in wits)
        tol = GROUP_TOL * max(1.0, abs(value))
        lo, hi = 0, len(groups)
        while lo < hi:
            mid = (lo + hi) // 2
            if groups[mid][0] < value:
                lo = mid + 1
            else:
                hi = mid
        for j in (lo - 1, lo):
            if 0 <= j < len(groups) and abs(groups[j][0] - value) <= tol:
                groups[j][1] += mult
                groups[j][2] += list(wits)
                return
        groups.insert(lo, [value, mult, list(wits)])

    while True:
        _, fam_rank, mu2, p = heapq.heappop(heap)
        fam = by_rank[fam_rank]
        wits = _lattice_witnesses(mu2, p, fam)
        insort(solve_details(wits[0][0], friction).value, wits)
        push(fam, mu2, p + 1)
        if p == first_p(fam):
            push(fam, _next_shell(mu2), p)
        floor = heap[0][0]
        while groups:
            value = groups[0][0]
            if floor <= value + GROUP_TOL * max(1.0, abs(value)):
                break
            value, mult, wits = groups.pop(0)
            wits.sort(key=lambda wit: (wit[0].mu2, wit[0].m, wit[0].n, wit[0].p))
            yield SpectrumEntry(value=value, multiplicity=mult,
                                witnesses=tuple(wits))


def _entries(friction: Friction, family, count):
    """The lazy spectrum of `family`, after the checks its callers share."""
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise InvalidCount(f"count must be a positive integer, got {count!r}")
    families = list(_normalize_family(family))
    if friction.is_navier and NONCONSTANT in families:
        if families == [NONCONSTANT]:
            raise InvalidCase(
                "frictionless walls admit only constant-pressure modes")
        families.remove(NONCONSTANT)
    return _spectrum(friction, families)


def enumerate_spectrum(friction: Friction, family=MERGED,
                       count: int = 10) -> list[SpectrumEntry]:
    """First `count` distinct eigenvalues, smallest first, with witnesses.

    Candidates are explored lazily in increasing bracket-floor order, so the
    search is exhaustive by construction: it stops only when every
    unexplored index has a floor above the current count-th value.
    """
    return list(itertools.islice(_entries(friction, family, count), count))


def expanded_spectrum(friction: Friction, family, count: int) -> list[float]:
    """First `count` eigenvalues with each value repeated per multiplicity."""
    values: list[float] = []
    for entry in _entries(friction, family, count):
        values.extend([entry.value] * entry.multiplicity)
        if len(values) >= count:
            return values[:count]


def mode_sequence(friction: Friction, count: int, family=MERGED,
                  coeff_scale: float = 1.0) -> list[EigenMode]:
    """First `count` constructible modes in spectrum order.

    Entries expand into orientations ((m,n) plus (n,m) when permuted) and
    then into the coefficient basis of each orientation, giving a
    deterministic orthonormal sequence.
    """
    modes: list[EigenMode] = []
    for entry in _entries(friction, family, count):
        for index, permuted in entry.witnesses:
            orientations = [index]
            if permuted and index.m != index.n:
                orientations.append(
                    WaveIndex(index.n, index.m, index.p, index.family))
            for orient in orientations:
                for coeffs in coeff_basis(orient, friction):
                    if coeff_scale != 1.0:
                        a, b, c, d = (coeff_scale * t for t in coeffs.as_tuple())
                        coeffs = PlanarCoeffs(a, b, c, d)
                    modes.append(build_mode(orient, friction, coeffs))
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
        rows.append({
            "j": row[0], "family": row[1], "m": row[2], "n": row[3],
            "p": row[4], "permuted": row[5] == "true",
            "value": float(row[6]), "multiplicity": row[7],
        })
    return json.dumps({"rows": rows}, indent=2) + "\n"


def emit_table(friction: Friction, family, count: int, fmt: str = "csv") -> str:
    """Rendered spectrum table; `fmt` is csv or json."""
    entries = enumerate_spectrum(friction, family, count)
    if fmt == "csv":
        return render_csv(entries)
    if fmt == "json":
        return render_json(entries)
    raise InvalidCase(f"format must be csv or json, got {fmt!r}")
