"""Convective products, the per-harmonic Neumann solver, and the
projection of separable fields onto the divergence-free subspace.

The whole chain stays closed-form: products of separable terms are
re-expanded exactly, and the scalar potential of the projection separates
over planar harmonics into two-point ODE solves whose particular and
homogeneous parts are atoms again.  No grid Poisson solve is involved.
Triple products and the Galerkin tensor skip the field algebra: a flat mode
is one z-atom times a planar trig field, so each entry is a closed-form
z-integral of three atoms times a planar triad integral.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .core import (
    COS,
    COSH,
    POLY,
    SIN,
    SINH,
    EigenMode,
    PressureFamily,
    ZProfile,
)
from .errors import HypothesisViolated, ResonanceImpossible
from .fields import PlanarField, ScalarField

# Below this, a hyperbolic atom's squared frequency counts as equal to the
# harmonic's k^2 and the particular solution would lose all precision.
_RESONANCE_GAP = 1e-9

# A resonant atom this far below the solve's scale is floating-point residue
# of a homogeneous piece (e.g. sqrt(k2)^2 - k2), not actual forcing.
_DUST = 1e-9


def _flat_field(mode: EigenMode, role: str) -> PlanarField:
    """The mode's velocity field, once the mode is checked to be flat."""
    if mode.index.family is not PressureFamily.CONSTANT:
        raise HypothesisViolated(
            f"{role} mode {mode.index} carries a non-constant pressure; "
            "convective products are defined on the flat family only"
        )
    field = PlanarField.from_mode(mode)
    # field-level check: a nonzero W(z) profile is still wall-parallel
    # when the coefficient pick zeroes its planar factor
    if not field.component("w").is_zero():
        raise HypothesisViolated(
            f"{role} mode {mode.index} has a nonzero third velocity "
            "component; convective products need the wall-parallel family"
        )
    return field


# parity bit of a trig factor; the sign pairs (s2, s3) of k1 + s2 k2 + s3 k3
_BIT = {COS: 0, SIN: 1}
_SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _flat_factors(mode: EigenMode, role: str):
    """(sine bit, s, m, n, table) of a flat mode: u = A(z) U(x, y) and
    v = A(z) V(x, y) with one atom A = sin(s z) (bit 1) or cos(s z) (bit 0;
    the constant is cos(0 z)); table[c, a, b] weighs trig_a(m x) trig_b(n y)
    in U (c = 0) or V (c = 1), the profile weight folded in."""
    table = np.zeros((2, 2, 2))
    atoms = set()
    for term in _flat_field(mode, role).terms:
        atoms.update((COS, 0.0) if atom[:2] == (POLY, 0.0) else atom[:2]
                     for atom in term.profile.terms)
        table["uv".index(term.component), _BIT[term.x_parity],
              _BIT[term.y_parity]] = term.profile.terms[0][2]
    (kind, s), *rest = atoms or {(COS, 0.0)}  # velocity-free: any atom
    if rest or kind not in _BIT:
        raise HypothesisViolated(
            f"{role} mode {mode.index} is not one z-atom sin(s z) or cos(s z) "
            "shared by u and v; the transport tensor needs that form"
        )
    return _BIT[kind], s, mode.index.m, mode.index.n, table


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
    """The quadratic transport term (A . grad) B for wall-parallel modes.

    Both inputs must come from the constant-pressure family with vanishing
    third component; the result then has a vanishing third component too
    and expands exactly into sum/difference harmonics.
    """
    carrier = _flat_field(advecting, "advecting")
    carried = _flat_field(advected, "advected")
    a_u, a_v = carrier.component("u"), carrier.component("v")
    u, v = (
        a_u.product(scalar.dx()) + a_v.product(scalar.dy())
        for scalar in (carried.component("u"), carried.component("v"))
    )
    return PlanarField.from_scalars(u, v, ScalarField())


# ---------------------------------------------------------------------------
# the one-dimensional Neumann solves
# ---------------------------------------------------------------------------

def _particular(rhs: ZProfile, k2: float, scale: float = 1.0) -> ZProfile:
    """Any solution of  y'' - k2*y = rhs  in atom form (k2 > 0)."""
    out: list[tuple[str, float, float]] = []
    for kind, param, weight in rhs.terms:
        if kind in (SIN, COS):
            out.append((kind, param, -weight / (param * param + k2)))
        elif kind in (SINH, COSH):
            gap = param * param - k2
            if abs(gap) <= _RESONANCE_GAP * max(1.0, k2):
                if abs(weight) <= _DUST * max(1.0, scale):
                    continue
                raise ResonanceImpossible(
                    f"hyperbolic atom frequency^2 = {param * param:g} "
                    f"collides with harmonic k^2 = {k2:g}"
                )
            out.append((kind, param, weight / gap))
        else:  # polynomial: recurse on the degree-lowered remainder
            exponent = int(param)
            out.append((POLY, param, -weight / k2))
            if exponent >= 2:
                lowered = ZProfile.make(
                    [(POLY, float(exponent - 2), weight * exponent * (exponent - 1) / k2)]
                )
                out.extend(_particular(lowered, k2, scale).terms)
    return ZProfile.make(out)


def _neumann_solve(rhs: ZProfile, k2: float, upper: float, lower: float) -> ZProfile:
    """The unique solution of  y'' - k2*y = rhs,  y'(+/-1) = upper/lower."""
    root = math.sqrt(k2)
    part = _particular(rhs, k2, scale=max(abs(upper), abs(lower)))
    slope = part.derivative()
    need_hi = upper - slope.at(1.0)
    need_lo = lower - slope.at(-1.0)
    c_even = (need_hi - need_lo) / (2.0 * root * math.sinh(root))
    c_odd = (need_hi + need_lo) / (2.0 * root * math.cosh(root))
    return part + ZProfile.cosh(root, c_even) + ZProfile.sinh(root, c_odd)


def neumann_profile(rhs: ZProfile, k2: float) -> ZProfile:
    """Solve  y'' - k2*y = rhs  with insulated ends y'(+/-1) = 0.

    The positive-harmonic restriction is structural: the zero harmonic of a
    transport term never reaches this solver.
    """
    if not k2 > 0.0:
        raise ValueError(f"harmonic solve needs k2 > 0, got {k2!r}")
    return _neumann_solve(rhs, k2, 0.0, 0.0)


def _antiderivative(profile: ZProfile) -> ZProfile:
    """An antiderivative in atom form (integration constant zero)."""
    out: list[tuple[str, float, float]] = []
    for kind, param, weight in profile.terms:
        if kind == SIN:
            out.append((COS, param, -weight / param))
        elif kind == COS:
            out.append((SIN, param, weight / param))
        elif kind == SINH:
            out.append((COSH, param, weight / param))
        elif kind == COSH:
            out.append((SINH, param, weight / param))
        else:
            out.append((POLY, param + 1.0, weight / (param + 1.0)))
    return ZProfile.make(out)


# ---------------------------------------------------------------------------
# the projection
# ---------------------------------------------------------------------------

def leray_project(field: PlanarField) -> PlanarField:
    """Split off the gradient part: the result is divergence-free with zero
    normal trace, and field minus the result is a gradient.

    The scalar potential solves a Neumann problem per planar harmonic; the
    wall data comes from the normal trace of the input's third component.
    """
    source = field.divergence().terms
    trace = field.component("w").terms

    potential: dict[tuple[int, int, str, str], ZProfile] = {}
    for key in sorted(set(source) | set(trace)):
        kx, ky, _, _ = key
        rhs = source.get(key, ZProfile.zero())
        wall = trace.get(key, ZProfile.zero())
        k2 = float(kx * kx + ky * ky)
        if k2 > 0.0:
            potential[key] = _neumann_solve(rhs, k2, wall.at(1.0), wall.at(-1.0))
        else:
            # zero harmonic: the divergence is the z-derivative of the
            # trace profile, so the Neumann data is consistent iff the
            # compatibility integral vanishes; then the potential is a
            # plain antiderivative (its additive constant never matters).
            slope = _antiderivative(rhs)
            mismatch = wall.at(1.0) - wall.at(-1.0) - (slope.at(1.0) - slope.at(-1.0))
            if abs(mismatch) > 1e-10 * max(1.0, abs(wall.at(1.0)), abs(wall.at(-1.0))):
                raise HypothesisViolated(
                    "zero-harmonic Neumann data is incompatible with the "
                    f"divergence (defect {mismatch:.3e}); the input is not "
                    "a periodic channel field"
                )
            shift = wall.at(1.0) - slope.at(1.0)
            potential[key] = _antiderivative(slope + ZProfile.const(shift))
    gradient_part = ScalarField._from_table(potential).gradient()
    return field - gradient_part


def triple_product(advecting: EigenMode, advected: EigenMode, witness: EigenMode) -> float:
    """The transport trilinear form  integral of (A.grad)B . C: the one
    entry of the three-mode `transport_tensor`."""
    factors = [_flat_factors(advecting, "advecting"),
               _flat_factors(advected, "advected"),
               _flat_factors(witness, "witness")]
    return float(_tensor(factors)[0, 1, 2])
