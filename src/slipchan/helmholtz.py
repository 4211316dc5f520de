"""Convective products, the per-harmonic Neumann solver, and the
projection of separable fields onto the divergence-free subspace.

The whole chain stays closed-form: products of separable terms are
re-expanded exactly, and the scalar potential of the projection separates
over planar harmonics into two-point ODE solves whose particular and
homogeneous parts are atoms again.  No grid Poisson solve is involved.
"""

from __future__ import annotations

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
from .fields import PlanarField, ScalarField, WitnessIndex

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


def _planar_gradients(field: PlanarField):
    """((du/dx, du/dy), (dv/dx, dv/dy)): what the transport kernel needs of
    the advected field."""
    return tuple(
        (scalar.dx(), scalar.dy())
        for scalar in (field.component("u"), field.component("v"))
    )


def _transport(a_u: ScalarField, a_v: ScalarField, gradients) -> PlanarField:
    """The kernel of (A . grad) B: A's u/v scalars against B's planar
    gradients (from `_planar_gradients`), expanded exactly."""
    u, v = (a_u.product(gx) + a_v.product(gy) for gx, gy in gradients)
    return PlanarField.from_scalars(u, v, ScalarField())


def transport_tensor(modes: Sequence[EigenMode]) -> np.ndarray:
    """T[i, j, k] = <(u_i . grad) u_j, u_k> over one set of flat modes.

    Each mode's field, u/v carriers and planar gradients are built once,
    each ordered pair goes through `_transport` once, and the result is
    tested only against the modes sharing one of its planar harmonics
    (`WitnessIndex`); every entry is bitwise equal to `triple_product`.
    """
    fields = [_flat_field(mode, "basis") for mode in modes]
    carriers = [(f.component("u"), f.component("v")) for f in fields]
    gradients = [_planar_gradients(f) for f in fields]
    witnesses = WitnessIndex(fields)
    k = len(fields)
    tensor = np.zeros((k, k, k))
    for i in range(k):
        for j in range(k):
            tensor[i, j] = witnesses.inners(_transport(*carriers[i], gradients[j]))
    return tensor


def convect(advecting: EigenMode, advected: EigenMode) -> PlanarField:
    """The quadratic transport term (A . grad) B for wall-parallel modes.

    Both inputs must come from the constant-pressure family with vanishing
    third component; the result then has a vanishing third component too
    and expands exactly into sum/difference harmonics.
    """
    carrier = _flat_field(advecting, "advecting")
    carried = _flat_field(advected, "advected")
    return _transport(
        carrier.component("u"), carrier.component("v"), _planar_gradients(carried)
    )


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
    """The transport trilinear form  integral of (A.grad)B . C."""
    tested = _flat_field(witness, "witness")
    return convect(advecting, advected).inner(tested)
