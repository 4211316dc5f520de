"""Convective products, the per-harmonic Neumann solver, and the
projection of separable fields onto the divergence-free subspace.

The chain stays closed-form for every eigenmode: products are exponential
terms again, and the projection's potential separates over wavevectors into
two-point ODE solves with exponential solutions.  Triple products and the
Galerkin tensor skip the field algebra: a flat mode is one exponential
z-atom times planar exponentials, so each entry is a sum over signed
wavevectors that add to zero times one z-integral, by `core`'s planar trig
rule, which also builds the fields.  Only they need flat modes.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .core import (
    _PHASE,
    COS,
    K0,
    EigenMode,
    PressureFamily,
    ZProfile,
    _canonical,
    _slope,
    _trig_terms,
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


def _flat_factors(mode: EigenMode, role: str):
    """(phase, s, m, n, weights) of a flat mode: u = A(z) U(x, y) and
    v = A(z) V(x, y), one atom A = Re(phase e^{i s z}) with `_PHASE`'s
    phase 1 (cos; the constant at s = 0) or -i (sin), U = Re(weights[0][0]
    e^{i (m x + n y)} + weights[0][1] e^{i (m x - n y)}) and V likewise
    with weights[1], each profile weight relative to the atom folded in."""
    if not is_flat(mode):
        raise HypothesisViolated(
            f"{role} mode {mode.index} is not flat: the transport tensor needs "
            "constant pressure and no third velocity component")
    m, n = mode.index.m, mode.index.n
    weights = [[0j, 0j], [0j, 0j]]
    atoms = set()
    for c, (comp, profile) in enumerate((("u", mode.u_profile), ("v", mode.v_profile))):
        terms = planar_terms(mode.index, mode.coeffs, comp)
        if profile.is_zero or not terms:
            continue
        # Re(w e^{i t}) sums Re(w conj(phase)) Re(phase e^{i t}) over both phases
        parts = [(j, lam, phase, part) for j, lam, w in profile.terms
                 for phase in _PHASE.values() if (part := (w * phase.conjugate()).real)]
        atoms.update(part[:3] for part in parts)
        for weight, xpar, ypar in terms:
            for t, (*_, w) in enumerate(_trig_terms(m, n, xpar, ypar, parts[0][3] * weight)):
                weights[c][t] += w
    (j, lam, phase), *rest = atoms or {(0, 0j, _PHASE[COS])}  # velocity-free: any atom
    if rest or j or lam.real:
        raise HypothesisViolated(
            f"{role} mode {mode.index} is not one z-atom sin(s z) or cos(s z) "
            "shared by u and v; the transport tensor needs that form"
        )
    return phase, lam.imag, m, n, weights


def _triads(k: np.ndarray) -> np.ndarray:
    """mask[i, j, l]: k_l = |k_i +- k_j|, else trig(k_i t) trig(k_j t)
    trig(k_l t) has period mean zero."""
    return (np.abs(k[:, None] - k)[..., None] == k) | ((k[:, None] + k)[..., None] == k)


def _sinc(x: np.ndarray) -> np.ndarray:
    return np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0.0)


def _tensor(factors) -> np.ndarray:
    """T[i, j, l] = <(u_i . grad) u_j, u_l> of flat modes in closed form.

    Flipping every sign of a product of exponentials conjugates it, so the
    first factor keeps its sign and the real part is doubled.  The z-part
    is half the sum of Re(phase_i phase_j^+- phase_l^+-) sinc(s_i +- s_j
    +- s_l), exactly 0 for an odd number of sines.  With U and V weighted
    on all four signed wavevectors, the planar part is pi^2 Re of the sum
    of i (U_i kx_j + V_i ky_j)(U_j U_l + V_j V_l) over those that add to
    zero.  Only admissible triads with a nonzero z-part are evaluated, each
    from its own three modes alone.
    """
    size = len(factors)
    tensor = np.zeros((size, size, size))
    if not size:
        return tensor
    phase, s, m, n, weights = (np.array(column) for column in zip(*factors))
    i, j, l = np.nonzero(_triads(m) & _triads(n))
    zint = sum((phase[i] * pj * pl).real * _sinc(s[i] + sj * s[j] + sl * s[l])
               for sj, pj in ((1, phase[j]), (-1, phase[j].conj()))
               for sl, pl in ((1, phase[l]), (-1, phase[l].conj())))
    i, j, l, zint = (a[zint != 0.0] for a in (i, j, l, zint))
    # per triad: kx, ky, U, V at (m, n), (m, -n), (-m, n), (-m, -n); negating conjugates
    weights = np.concatenate((weights, weights[..., ::-1].conj()), axis=2).T
    kx, ky = np.outer((1, 1, -1, -1), m), np.outer((1, -1, 1, -1), n)
    (xi, xj, xl), (yi, yj, yl), (ui, uj, ul), (vi, vj, vl) = (
        (a[:, i], a[:, j], a[:, l]) for a in (kx, ky, *weights.transpose(1, 0, 2)))
    planar = np.zeros(i.size, complex)
    for ti, tj, tl in itertools.product(range(2), range(4), range(4)):
        hit = np.flatnonzero((xi[ti] + xj[tj] + xl[tl] == 0) & (yi[ti] + yj[tj] + yl[tl] == 0))
        advect = ui[ti, hit] * xj[tj, hit] + vi[ti, hit] * yj[tj, hit]
        planar[hit] += advect * (uj[tj, hit] * ul[tl, hit] + vj[tj, hit] * vl[tl, hit])
    tensor[i, j, l] = -0.5 * math.pi ** 2 * planar.imag * zint + 0.0  # no -0.0
    return tensor


def transport_tensor(modes: Sequence[EigenMode]) -> np.ndarray:
    """T[i, j, k] = <(u_i . grad) u_j, u_k> over one set of flat modes.

    Each flat mode is one exponential z-atom times planar exponentials, so
    every entry sums the signed wavevectors that add to zero times one
    z-integral of three atoms (`_tensor`): no field products, no quadrature.
    Entries outside the admissible triads or with an odd number of sine
    atoms are exact zeros; each is bitwise equal to `triple_product`.
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
