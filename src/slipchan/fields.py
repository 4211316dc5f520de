"""Separable fields on the periodic channel: sums of Z(z)*trig(kx*x)*trig(ky*y).

Everything downstream of the eigensolver (residual checks, convective
products, the Leray projection) works with finite lists of separable terms.
Planar directions stay exact: derivatives and products of the trig factors
are tabulated, and their integrals over the periodic square are closed-form.
The z-direction carries a ZProfile, differentiated symbolically and
integrated exactly (`ZProfile.inner`), so inner products are closed form in
all three directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import (
    COS,
    SIN,
    EigenMode,
    ZProfile,
    _axis_integral,
    _trig,
    planar_terms,
)
from .errors import InvalidCase

COMPONENTS = ("u", "v", "w")

# planar key: (kx, ky, x_parity, y_parity)
PlanarKey = tuple[int, int, str, str]


def _canon_axis(k: int, par: str) -> tuple[int, str] | None:
    """Canonical (wavenumber, parity) for one axis factor; None if the factor
    is identically zero (sin of the zero wavenumber)."""
    if k < 0:
        raise InvalidCase(f"negative wavenumber {k}")
    if k == 0:
        return None if par == SIN else (0, COS)
    return (k, par)


def trig_product(k1: int, par1: str, k2: int, par2: str):
    """Product-to-sum expansion of trig(k1 t) * trig(k2 t).

    Returns canonical (weight, wavenumber, parity) triples with wavenumbers
    |k1 - k2| and k1 + k2; zero factors are dropped.
    """
    lo, hi = k1 - k2, k1 + k2
    if par1 == SIN and par2 == SIN:
        raw = [(0.5, lo, COS), (-0.5, hi, COS)]
    elif par1 == COS and par2 == COS:
        raw = [(0.5, lo, COS), (0.5, hi, COS)]
    elif par1 == SIN and par2 == COS:
        raw = [(0.5, lo, SIN), (0.5, hi, SIN)]
    else:  # cos * sin
        raw = [(-0.5, lo, SIN), (0.5, hi, SIN)]
    out = []
    for w, k, par in raw:
        if k < 0:
            k = -k
            if par == SIN:
                w = -w
        axis = _canon_axis(k, par)
        if axis is not None:
            out.append((w, axis[0], axis[1]))
    return out


@dataclass(frozen=True)
class Term:
    """One separable term weight * Z(z) * trig(kx x) * trig(ky y).

    Canonical terms keep weight == 1.0 (scales are absorbed into the
    profile); the field constructors accept arbitrary weights.
    """

    component: str
    profile: ZProfile
    kx: int
    ky: int
    x_parity: str
    y_parity: str
    weight: float = 1.0


def _merge_terms(raw: Iterable[tuple[str, ZProfile, int, int, str, str, float]]):
    """Fold weights into profiles, drop null factors, merge duplicate keys."""
    table: dict[tuple[str, int, int, str, str], ZProfile] = {}
    for comp, profile, kx, ky, xpar, ypar, weight in raw:
        if weight == 0.0 or profile.is_zero:
            continue
        ax = _canon_axis(kx, xpar)
        ay = _canon_axis(ky, ypar)
        if ax is None or ay is None:
            continue
        key = (comp, ax[0], ay[0], ax[1], ay[1])
        scaled = profile.scale(weight)
        table[key] = table[key] + scaled if key in table else scaled
    out = {}
    for key in sorted(table):
        if not table[key].is_zero:
            out[key] = table[key]
    return out


def _planar_weight(kx: int, ky: int, xpar: str, ypar: str) -> float:
    """Integral over the periodic square of one squared planar harmonic."""
    return _axis_integral(kx, xpar) * _axis_integral(ky, ypar)


class _Separable:
    """Separable terms keyed by (component,) + planar key or by the planar
    key alone: sorted, zero profiles dropped."""

    __slots__ = ("_terms",)

    @classmethod
    def _from_table(cls, table):
        out = cls.__new__(cls)
        out._terms = {k: v for k, v in sorted(table.items()) if not v.is_zero}
        return out

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other):
        table = dict(self._terms)
        for key, prof in other._terms.items():
            table[key] = table[key] + prof if key in table else prof
        return self._from_table(table)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, factor: float):
        return self._from_table({k: p.scale(factor) for k, p in self._terms.items()})

    def inner(self, other) -> float:
        total = 0.0
        for key, p1 in self._terms.items():
            p2 = other._terms.get(key)
            if p2 is not None:
                total += _planar_weight(*key[-4:]) * p1.inner(p2)
        return total


class ScalarField(_Separable):
    """Scalar-valued separable field: dict planar-key -> ZProfile."""

    __slots__ = ()

    def __init__(self, raw: Iterable[tuple[ZProfile, int, int, str, str, float]] = ()):
        merged = _merge_terms(
            ("s", profile, kx, ky, xpar, ypar, weight)
            for profile, kx, ky, xpar, ypar, weight in raw
        )
        self._terms = {key[1:]: prof for key, prof in merged.items()}

    @property
    def terms(self) -> dict[PlanarKey, ZProfile]:
        return dict(self._terms)

    def _derivative(self, axis: int) -> "ScalarField":
        """d/dx (axis 0) or d/dy (axis 1): sin(k t) -> k cos(k t) and
        cos(k t) -> -k sin(k t)."""
        table: dict[PlanarKey, ZProfile] = {}
        for key, prof in self._terms.items():
            k, par = key[axis], key[axis + 2]
            if k == 0:
                continue
            new = key[:axis + 2] + (COS if par == SIN else SIN,) + key[axis + 3:]
            scaled = prof.scale(float(k) if par == SIN else -float(k))
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
        """Exact product, expanded back into canonical harmonics."""
        raw = []
        for (kx1, ky1, xp1, yp1), p1 in self._terms.items():
            for (kx2, ky2, xp2, yp2), p2 in other._terms.items():
                zprof = p1.product(p2)
                for wx, kx, xp in trig_product(kx1, xp1, kx2, xp2):
                    for wy, ky, yp in trig_product(ky1, yp1, ky2, yp2):
                        raw.append((zprof, kx, ky, xp, yp, wx * wy))
        return ScalarField(raw)

    def l2_sq(self) -> float:
        return self.inner(self)

    def eval(self, x, y, z):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        total = np.zeros(np.broadcast(x, y, z).shape)
        for (kx, ky, xpar, ypar), prof in self._terms.items():
            total = total + prof.eval(z) * _trig(xpar, kx, x) * _trig(ypar, ky, y)
        return total


class PlanarField(_Separable):
    """Vector-valued separable field with components u, v, w."""

    __slots__ = ()
    inner = _Separable.inner  # its own attribute, so tracing can wrap it

    def __init__(self, raw: Iterable[Term] = ()):
        self._terms = _merge_terms(
            (t.component, t.profile, t.kx, t.ky, t.x_parity, t.y_parity, t.weight)
            for t in raw
        )
        for key in self._terms:
            if key[0] not in COMPONENTS:
                raise InvalidCase(f"component must be one of {COMPONENTS}, got {key[0]!r}")

    @classmethod
    def zero(cls) -> "PlanarField":
        return cls(())

    @classmethod
    def from_scalars(cls, u: ScalarField, v: ScalarField, w: ScalarField) -> "PlanarField":
        table = {}
        for comp, scalar in zip(COMPONENTS, (u, v, w)):
            for key, prof in scalar._terms.items():
                table[(comp,) + key] = prof
        return cls._from_table(table)

    @classmethod
    def from_mode(cls, mode: EigenMode) -> "PlanarField":
        """Velocity field of an eigenmode as separable terms."""
        profiles = {"u": mode.u_profile, "v": mode.v_profile, "w": mode.w_profile}
        m, n = mode.index.m, mode.index.n
        raw = []
        for comp in COMPONENTS:
            if profiles[comp].is_zero:
                continue
            for weight, xpar, ypar in planar_terms(mode.index, mode.coeffs, comp):
                raw.append(Term(comp, profiles[comp], m, n, xpar, ypar, weight))
        return cls(raw)

    @property
    def terms(self) -> tuple[Term, ...]:
        return tuple(
            Term(comp, prof, kx, ky, xpar, ypar, 1.0)
            for (comp, kx, ky, xpar, ypar), prof in self._terms.items()
        )

    def component(self, comp: str) -> ScalarField:
        if comp not in COMPONENTS:
            raise InvalidCase(f"component must be one of {COMPONENTS}, got {comp!r}")
        return ScalarField._from_table(
            {key[1:]: prof for key, prof in self._terms.items() if key[0] == comp}
        )

    def divergence(self) -> ScalarField:
        return (
            self.component("u").dx()
            + self.component("v").dy()
            + self.component("w").dz()
        )

    def laplacian(self) -> "PlanarField":
        """Componentwise Laplacian: Z'' - (kx^2 + ky^2) Z per term."""
        table = {}
        for (comp, kx, ky, xpar, ypar), prof in self._terms.items():
            lap = prof.derivative().derivative() - prof.scale(float(kx * kx + ky * ky))
            table[(comp, kx, ky, xpar, ypar)] = lap
        return PlanarField._from_table(table)

    def norm(self) -> float:
        return math.sqrt(max(self.inner(self), 0.0))

    def eval(self, x, y, z):
        """Evaluate all three components; returns (u, v, w) arrays."""
        return tuple(self.component(c).eval(x, y, z) for c in COMPONENTS)

    def eval_component(self, comp: str, x, y, z):
        return self.component(comp).eval(x, y, z)

    def boundary_tangential_sq(self) -> float:
        """Integral over both walls of u^2 + v^2 (the tangential trace)."""
        total = 0.0
        for comp in ("u", "v"):
            scalar = self.component(comp)
            for key, prof in scalar._terms.items():
                trace = prof.at(1.0) ** 2 + prof.at(-1.0) ** 2
                total += _planar_weight(*key) * trace
        return total


def pressure_field(mode: EigenMode) -> ScalarField:
    """Pressure q = Q(z) * P(x,y) of a mode as a scalar field."""
    if mode.q_profile.is_zero:
        return ScalarField(())
    m, n = mode.index.m, mode.index.n
    raw = []
    for weight, xpar, ypar in planar_terms(mode.index, mode.coeffs, "w"):
        raw.append((mode.q_profile, m, n, xpar, ypar, weight))
    return ScalarField(raw)
