"""Separable fields on the periodic channel: sums of Z(z)*trig(kx*x)*trig(ky*y).

The residual checks, convective products and the Leray projection work
with separable terms: a PlanarField holds one ScalarField (planar key ->
z-profile) per component.  The transport tensor builds no field: it is
read from each flat mode's closed form in `helmholtz`.
Planar directions stay exact: the trig factors sin(k t) and cos(k t) with
integer k keep their (k, parity) keys and have one derivative, product and
evaluation rule each here; their integrals over the periodic square are
closed-form.
The z-direction carries a ZProfile, differentiated symbolically and
integrated exactly (`ZProfile.inner`), so inner products are closed form in
all three directions.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .core import (
    COS,
    SIN,
    EigenMode,
    ZProfile,
    _axis_integral,
    _number,
    planar_terms,
)
from .errors import InvalidCase

COMPONENTS = ("u", "v", "w")

# planar key: (kx, ky, x_parity, y_parity)
PlanarKey = tuple[int, int, str, str]


# d/dt trig(k t) = sign * k * next(k t): the one planar derivative rule
_DIFF = {SIN: (COS, 1.0), COS: (SIN, -1.0)}


def _canon_axis(k: int, par: str) -> tuple[int, str] | None:
    """Canonical (wavenumber, parity) for one axis factor; None if the factor
    is identically zero (sin of the zero wavenumber).  Raises InvalidCase
    unless k is a non-negative integer and the parity sin or cos."""
    k = _number("planar wavenumber", k, integer=True)
    if k < 0:
        raise InvalidCase(f"negative wavenumber {k}")
    if par not in _DIFF:
        raise InvalidCase(f"planar parity must be sin or cos, got {par!r}")
    if k == 0:
        return None if par == SIN else (0, COS)
    return (k, par)


def trig_product(k1: int, par1: str, k2: int, par2: str):
    """Product-to-sum expansion of trig(k1 t) * trig(k2 t).

    Returns canonical (weight, wavenumber, parity) triples with wavenumbers
    |k1 - k2| and k1 + k2, in that order; zero factors are dropped and
    cos(0 t) is wavenumber 0 with parity cos.  Equal parities give cosines,
    mixed ones sines; the difference term of cos * sin and the sum term of
    sin * sin are negative.
    """
    par = COS if par1 == par2 else SIN
    out = []
    for k, w in ((k1 - k2, -0.5 if (par1, par2) == (COS, SIN) else 0.5),
                 (k1 + k2, -0.5 if par1 == par2 == SIN else 0.5)):
        if k < 0:  # sin is odd, cos even
            k, w = -k, (-w if par == SIN else w)
        if k or par == COS:
            out.append((w, k, par))
    return out


def _trig(par: str, k: int, t):
    """One planar factor at the points t; cos(0 t) is 1 at every t."""
    t = np.asarray(t, dtype=float)
    if k == 0:
        return (np.zeros_like if par == SIN else np.ones_like)(t)
    return (np.sin if par == SIN else np.cos)(k * t)


def _planar_weight(kx: int, ky: int, xpar: str, ypar: str) -> float:
    """Integral over the periodic square of one squared planar harmonic."""
    return _axis_integral(kx, xpar) * _axis_integral(ky, ypar)


def _inner(pairs) -> float:
    """Exact L2 inner product summed over pairs of scalar fields."""
    total = 0.0
    for mine, theirs in pairs:
        for key, p1 in mine._terms.items():
            p2 = theirs._terms.get(key)
            if p2 is not None:
                total += _planar_weight(*key) * p1.inner(p2)
    return total


class ScalarField:
    """Scalar-valued separable field: dict planar-key -> ZProfile."""

    __slots__ = ("_terms",)

    def __init__(self, raw: Iterable[tuple[ZProfile, int, int, str, str, float]] = ()):
        """Fold weights into profiles, drop null factors, merge duplicate keys."""
        table: dict[PlanarKey, ZProfile] = {}
        for profile, kx, ky, xpar, ypar, weight in raw:
            if weight == 0.0 or profile.is_zero:
                continue
            ax = _canon_axis(kx, xpar)
            ay = _canon_axis(ky, ypar)
            if ax is None or ay is None:
                continue
            key = (ax[0], ay[0], ax[1], ay[1])
            scaled = profile.scale(weight)
            table[key] = table[key] + scaled if key in table else scaled
        self._terms = {k: p for k, p in sorted(table.items()) if not p.is_zero}

    @classmethod
    def _from_table(cls, table) -> "ScalarField":
        """The field of a planar-key -> profile table: sorted, zero
        profiles dropped."""
        out = cls.__new__(cls)
        out._terms = {k: v for k, v in sorted(table.items()) if not v.is_zero}
        return out

    @property
    def terms(self) -> dict[PlanarKey, ZProfile]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "ScalarField") -> "ScalarField":
        table = dict(self._terms)
        for key, prof in other._terms.items():
            table[key] = table[key] + prof if key in table else prof
        return self._from_table(table)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        return self + other.scale(-1.0)

    def scale(self, factor: float) -> "ScalarField":
        return self._from_table({k: p.scale(factor) for k, p in self._terms.items()})

    def inner(self, other: "ScalarField") -> float:
        return _inner([(self, other)])

    def _derivative(self, axis: int) -> "ScalarField":
        """d/dx (axis 0) or d/dy (axis 1), by the rule `_DIFF`."""
        table: dict[PlanarKey, ZProfile] = {}
        for key, prof in self._terms.items():
            k, par = key[axis], key[axis + 2]
            if k == 0:
                continue
            next_par, sign = _DIFF[par]
            new = key[:axis + 2] + (next_par,) + key[axis + 3:]
            scaled = prof.scale(sign * float(k))
            table[new] = table[new] + scaled if new in table else scaled
        return ScalarField._from_table(table)

    def dx(self) -> "ScalarField":
        return self._derivative(0)

    def dy(self) -> "ScalarField":
        return self._derivative(1)

    def dz(self) -> "ScalarField":
        return ScalarField._from_table(
            {k: p.derivative() for k, p in self._terms.items()}
        )

    def gradient(self) -> "PlanarField":
        return PlanarField.from_scalars(self.dx(), self.dy(), self.dz())

    def product(self, other: "ScalarField") -> "ScalarField":
        """Exact product, expanded back into canonical harmonics; the factors
        of `trig_product` are canonical, with weights +-1/2."""
        table: dict[PlanarKey, ZProfile] = {}
        for (kx1, ky1, xp1, yp1), p1 in self._terms.items():
            for (kx2, ky2, xp2, yp2), p2 in other._terms.items():
                zprof = p1.product(p2)
                for wx, kx, xp in trig_product(kx1, xp1, kx2, xp2):
                    for wy, ky, yp in trig_product(ky1, yp1, ky2, yp2):
                        key = (kx, ky, xp, yp)
                        scaled = zprof.scale(wx * wy)
                        table[key] = table[key] + scaled if key in table else scaled
        return ScalarField._from_table(table)

    def l2_sq(self) -> float:
        return self.inner(self)

    def eval(self, x, y, z):
        total = np.zeros(np.broadcast(x, y, z).shape)
        for (kx, ky, xpar, ypar), prof in self._terms.items():
            total = total + prof.eval(z) * _trig(xpar, kx, x) * _trig(ypar, ky, y)
        return total


class PlanarField:
    """Vector-valued separable field: one ScalarField per component u, v, w."""

    __slots__ = ("_parts",)

    def __init__(self) -> None:
        """The zero field; `from_scalars` builds any other."""
        self._parts = (ScalarField(),) * 3

    @classmethod
    def zero(cls) -> "PlanarField":
        return cls()

    @classmethod
    def from_scalars(cls, u: ScalarField, v: ScalarField, w: ScalarField) -> "PlanarField":
        out = cls.__new__(cls)
        out._parts = (u, v, w)
        return out

    @classmethod
    def from_mode(cls, mode: EigenMode) -> "PlanarField":
        """Velocity field of an eigenmode as separable terms: each nonzero
        term of a component's planar factor scales that component's profile."""
        m, n = mode.index.m, mode.index.n
        profiles = (mode.u_profile, mode.v_profile, mode.w_profile)
        return cls.from_scalars(*(ScalarField._from_table({
            (m, n, xpar, ypar): profile.scale(weight)
            for weight, xpar, ypar in planar_terms(mode.index, mode.coeffs, comp)})
            for comp, profile in zip(COMPONENTS, profiles)))

    def component(self, comp: str) -> ScalarField:
        if comp not in COMPONENTS:
            raise InvalidCase(f"component must be one of {COMPONENTS}, got {comp!r}")
        return self._parts[COMPONENTS.index(comp)]

    def is_zero(self) -> bool:
        return all(part.is_zero() for part in self._parts)

    def __add__(self, other: "PlanarField") -> "PlanarField":
        return self.from_scalars(*(a + b for a, b in zip(self._parts, other._parts)))

    def __sub__(self, other: "PlanarField") -> "PlanarField":
        return self.from_scalars(*(a - b for a, b in zip(self._parts, other._parts)))

    def scale(self, factor: float) -> "PlanarField":
        return self.from_scalars(*(part.scale(factor) for part in self._parts))

    def inner(self, other: "PlanarField") -> float:
        return _inner(zip(self._parts, other._parts))

    def divergence(self) -> ScalarField:
        u, v, w = self._parts
        return u.dx() + v.dy() + w.dz()

    def laplacian(self) -> "PlanarField":
        """Componentwise Laplacian: Z'' - (kx^2 + ky^2) Z per term."""
        return self.from_scalars(*(ScalarField._from_table({
            (kx, ky, xpar, ypar): prof.derivative().derivative()
            - prof.scale(float(kx * kx + ky * ky))
            for (kx, ky, xpar, ypar), prof in part._terms.items()})
            for part in self._parts))

    def norm(self) -> float:
        return math.sqrt(max(self.inner(self), 0.0))

    def eval(self, x, y, z):
        """Evaluate all three components; returns (u, v, w) arrays."""
        return tuple(part.eval(x, y, z) for part in self._parts)

    def eval_component(self, comp: str, x, y, z):
        return self.component(comp).eval(x, y, z)

    def boundary_tangential_sq(self) -> float:
        """Integral over both walls of u^2 + v^2 (the tangential trace)."""
        total = 0.0
        for scalar in self._parts[:2]:
            for key, prof in scalar._terms.items():
                trace = prof.at(1.0) ** 2 + prof.at(-1.0) ** 2
                total += _planar_weight(*key) * trace
        return total


def pressure_field(mode: EigenMode) -> ScalarField:
    """Pressure q = Q(z) * P(x,y) of a mode as a scalar field."""
    m, n = mode.index.m, mode.index.n
    return ScalarField((mode.q_profile, m, n, xpar, ypar, weight)
                       for weight, xpar, ypar in planar_terms(mode.index, mode.coeffs, "w"))
