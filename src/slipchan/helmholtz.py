"""Convective products, the per-harmonic Neumann solver, and the
projection of separable fields onto the divergence-free subspace.

The chain stays closed-form for every eigenmode: products are exponential
terms again, and the projection's potential separates over wavevectors into
two-point ODE solves with exponential solutions.  Triple products and the
Galerkin tensor skip the field algebra: a flat mode is one z-atom times a
planar trig field, so each entry is a z-integral of three atoms times a
planar triad integral.  Only they need flat modes.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .core import (
    COS,
    K0,
    SIN,
    EigenMode,
    PressureFamily,
    ZProfile,
    _canonical,
    _slope,
    _value,
    planar_terms,
)
from .errors import HypothesisViolated, InvalidCase, ResonanceImpossible
from .fields import COMPONENTS, PlanarField, ScalarField

# Below this, a term's squared rate lam^2 counts as equal to the harmonic's
# k^2 and the particular solution would lose all precision.
_RESONANCE_GAP = 1e-9

# A resonant term this far below the solve's scale is floating-point residue
# of a homogeneous piece (e.g. sqrt(k2)^2 - k2), not actual forcing.
_DUST = 1e-9


def is_flat(mode: EigenMode) -> bool:
    """True for a flat (wall-parallel) mode: constant pressure and no third
    velocity component, because W(z) is zero or the coefficient pick zeroes
    its planar factor.  The transport tensor is defined on these alone."""
    return mode.index.family is PressureFamily.CONSTANT and (
        mode.w_profile.is_zero or not planar_terms(mode.index, mode.coeffs, "w"))


def _require_flat(mode: EigenMode, role: str) -> None:
    if is_flat(mode):
        return
    if mode.index.family is not PressureFamily.CONSTANT:
        raise HypothesisViolated(
            f"{role} mode {mode.index} carries a non-constant pressure; "
            "the transport tensor is defined on the flat family only"
        )
    raise HypothesisViolated(
        f"{role} mode {mode.index} has a nonzero third velocity "
        "component; the transport tensor needs the wall-parallel family"
    )


# parity bit of a trig factor; the sign pairs (s2, s3) of k1 + s2 k2 + s3 k3
_BIT = {COS: 0, SIN: 1}
_SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _flat_factors(mode: EigenMode, role: str):
    """(sine bit, s, m, n, table) of a flat mode: u = A(z) U(x, y) and
    v = A(z) V(x, y) with one atom A = sin(s z) (bit 1) or cos(s z) (bit 0;
    the constant is cos(0 z)); table[c, a, b] weighs trig_a(m x) trig_b(n y)
    in U (c = 0) or V (c = 1), the profile weight folded in.  A term
    (0, i s, c) is c.real cos(s z) - c.imag sin(s z)."""
    _require_flat(mode, role)
    table = np.zeros((2, 2, 2))
    atoms = set()
    for c, (comp, profile) in enumerate((("u", mode.u_profile), ("v", mode.v_profile))):
        terms = planar_terms(mode.index, mode.coeffs, comp)
        if profile.is_zero or not terms:
            continue
        parts = [(j, lam, bit, part) for j, lam, w in profile.terms
                 for bit, part in enumerate((w.real, -w.imag)) if part]
        atoms.update(part[:3] for part in parts)
        for weight, xpar, ypar in terms:
            table[c, _BIT[xpar], _BIT[ypar]] = parts[0][3] * weight
    (j, lam, bit), *rest = atoms or {(0, 0j, 0)}  # velocity-free: any atom
    if rest or j or lam.real:
        raise HypothesisViolated(
            f"{role} mode {mode.index} is not one z-atom sin(s z) or cos(s z) "
            "shared by u and v; the transport tensor needs that form"
        )
    return bit, lam.imag, mode.index.m, mode.index.n, table


def _triads(k: np.ndarray) -> np.ndarray:
    """mask[i, j, l]: k_l = |k_i +- k_j|, else trig(k_i t) trig(k_j t)
    trig(k_l t) has period mean zero."""
    return (np.abs(k[:, None] - k)[..., None] == k) | ((k[:, None] + k)[..., None] == k)


def _sinc(x: np.ndarray) -> np.ndarray:
    return np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0.0)


def _derivative(table: np.ndarray, k: np.ndarray, axis: int) -> np.ndarray:
    """d/dx (axis 1) or d/dy (axis 2) of planar tables: cos(k t) -> -k sin(k t)
    and sin(k t) -> k cos(k t)."""
    k = k[:, None].astype(float)
    return np.stack((k * np.take(table, 1, axis), -k * np.take(table, 0, axis)), axis)


def _tensor(factors) -> np.ndarray:
    """T[i, j, l] = <(u_i . grad) u_j, u_l> of flat modes in closed form.

    A product of three trig factors with sine bits a, b, c integrates to
    (-1)^((a+b+c)/2) Sum_{s2, s3} s2^b s3^c I(k1 + s2 k2 + s3 k3) when
    a + b + c is even and to zero otherwise, with I(sigma) a quarter of the
    integral of cos(sigma t): (pi/2) [sigma == 0] over a planar period and
    sin(sigma) / (2 sigma) over z in [-1, 1].  Only admissible triads are
    evaluated, each from its own three modes alone.
    """
    size = len(factors)
    tensor = np.zeros((size, size, size))
    if not size:
        return tensor
    sine, s, m, n, table = (np.array(column) for column in zip(*factors))
    bits = sine[:, None, None] + sine[:, None] + sine
    i, j, l = np.nonzero(_triads(m) & _triads(n) & (bits % 2 == 0))

    def triad(kernel, k, b, c):
        return sum(s2 ** b * s3 ** c * kernel(k[i] + s2 * k[j] + s3 * k[l])
                   for s2, s3 in _SIGNS)

    zint = 0.5 * (1 - bits[i, j, l]) * triad(_sinc, s, sine[j], sine[l])
    pairs = list(itertools.product((0, 1), repeat=2))
    ex, ey = ({(b, c): triad(np.logical_not, k, b, c) for b, c in pairs} for k in (m, n))
    u, v = table[:, 0], table[:, 1]
    # (U . grad) U . U + (U . grad) V . V: advecting, differentiated and
    # witness factor of each product
    terms = [(a[i], b[j], c[l]) for a, b, c in (
        (u, _derivative(u, m, 1), u), (v, _derivative(u, n, 2), u),
        (u, _derivative(v, m, 1), v), (v, _derivative(v, n, 2), v))]
    planar = 0.0
    for (bx, cx), (by, cy) in itertools.product(pairs, repeat=2):
        ax, ay = (bx + cx) % 2, (by + cy) % 2
        weight = sum(a[:, ax, ay] * b[:, bx, by] * c[:, cx, cy] for a, b, c in terms)
        sign = (1 - ax - bx - cx) * (1 - ay - by - cy)
        planar = planar + sign * ex[bx, cx] * ey[by, cy] * weight
    tensor[i, j, l] = (0.5 * math.pi) ** 2 * planar * zint
    return tensor


def transport_tensor(modes: Sequence[EigenMode]) -> np.ndarray:
    """T[i, j, k] = <(u_i . grad) u_j, u_k> over one set of flat modes.

    Each flat mode is one z-atom times a planar trig field, so every entry
    factors exactly into a z-integral of three atoms and a planar triad
    integral over integer wavenumbers (`_tensor`): no field products and
    no quadrature.  Entries outside the admissible triads are exact zeros,
    and every entry is bitwise equal to `triple_product`.
    """
    return _tensor([_flat_factors(mode, "basis") for mode in modes])


def convect(advecting: EigenMode, advected: EigenMode) -> PlanarField:
    """The quadratic transport term (A . grad) B of any two eigenmodes.

    Every component is A_u dB/dx + A_v dB/dy + A_w dB/dz, each product
    expanded exactly into sum/difference harmonics; the A_w term vanishes
    for wall-parallel modes.
    """
    carrier, carried = PlanarField.from_mode(advecting), PlanarField.from_mode(advected)
    a_u, a_v, a_w = (carrier.component(c) for c in COMPONENTS)
    return PlanarField.from_scalars(*(
        a_u.product(scalar.dx()) + a_v.product(scalar.dy()) + a_w.product(scalar.dz())
        for scalar in (carried.component(c) for c in COMPONENTS)))


# ---------------------------------------------------------------------------
# the one-dimensional Neumann solves
# ---------------------------------------------------------------------------

def _particular(terms, k2: float, scale: float) -> list:
    """Raw (j, lam, c) terms of any solution of  y'' - k2*y = rhs  (k2 > 0),
    linear in c.  For a term c z^j e^{lam z} with gap = lam^2 - k2, the trial
    (c / gap) z^j e^{lam z} leaves the remainder -(c / gap) (2 lam j z^(j-1)
    + j (j - 1) z^(j-2)) e^{lam z}, solved the same way."""
    out = []
    for j, lam, c in terms:
        gap = lam * lam - k2
        if abs(gap) <= _RESONANCE_GAP * max(1.0, k2):
            if abs(c) <= _DUST * max(1.0, scale):
                continue
            raise ResonanceImpossible(
                f"exponential rate^2 = {lam * lam:g} collides with harmonic k^2 = {k2:g}"
            )
        lead = c / gap
        out.append((j, lam, lead))
        out.extend(_particular([(i, lam, -lead * f) for i, f in (
            (j - 1, 2.0 * lam * j), (j - 2, j * (j - 1))) if i >= 0 and f], k2, scale))
    return out


def _neumann_solve(terms, k2: float, upper: complex, lower: complex) -> list:
    """Raw terms of the solution of  y'' - k2*y = rhs,  y'(+/-1) = upper/lower
    (complex).  The homogeneous part a e^{r (z - 1)} + b e^{-r (z + 1)}, r^2 =
    k2, has slopes r (a - b e) at z = 1 and r (a e - b) at z = -1, e = e^{-2r}."""
    root = math.sqrt(k2)
    part = _particular(terms, k2, scale=max(abs(upper), abs(lower)))
    slope = _slope(part)
    need_hi = (upper - _value(slope, 1.0)) / root
    need_lo = (lower - _value(slope, -1.0)) / root
    e = math.exp(-2.0 * root)
    det = -math.expm1(-4.0 * root)
    return part + [(0, root, (need_hi - need_lo * e) / det),
                   (0, -root, (need_hi * e - need_lo) / det)]


def neumann_profile(rhs: ZProfile, k2: float) -> ZProfile:
    """Solve  y'' - k2*y = rhs  with insulated ends y'(+/-1) = 0, k2 > 0."""
    if not k2 > 0.0:
        raise InvalidCase(f"harmonic solve needs k2 > 0, got {k2!r}")
    return ZProfile.make(_neumann_solve(rhs.terms, k2, 0.0, 0.0))


# ---------------------------------------------------------------------------
# the projection
# ---------------------------------------------------------------------------

def leray_project(field: PlanarField) -> PlanarField:
    """Split off the gradient part: the result is divergence-free with zero
    normal trace, and field minus the result is a gradient.

    The potential solves a Neumann problem per nonzero wavevector, the
    complex wall values of the third component's harmonic W as data.  At
    k = 0 the divergence is W', so the gradient part there is W itself.
    """
    source, trace = field.divergence()._harmonics, field.component("w")._harmonics
    potential = []
    for kx, ky in (set(source) | set(trace)) - {K0}:
        wall = trace.get((kx, ky), ())
        solved = _neumann_solve(source.get((kx, ky), ()), float(kx * kx + ky * ky),
                                _value(wall, 1.0), _value(wall, -1.0))
        potential += [(kx, ky, *term) for term in solved]
    potential = ScalarField._of(_canonical(potential))
    zero = ScalarField._of({K0: trace[K0]} if K0 in trace else {})
    return field - PlanarField.from_scalars(potential.dx(), potential.dy(), potential.dz() + zero)


def triple_product(advecting: EigenMode, advected: EigenMode, witness: EigenMode) -> float:
    """The transport trilinear form  integral of (A.grad)B . C: the one
    entry of the three-mode `transport_tensor`."""
    factors = [_flat_factors(advecting, "advecting"),
               _flat_factors(advected, "advected"),
               _flat_factors(witness, "witness")]
    return float(_tensor(factors)[0, 1, 2])
