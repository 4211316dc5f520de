"""Separable fields on the periodic channel, as sums of exponential terms.

A scalar field is the real part of a sum of c z^j exp(lam (z - z0))
exp(i (kx x + ky y)): `core.ZProfile`'s terms with an integer wavevector,
held as a harmonic map {(kx, ky): terms} in the half-plane kx > 0 or
kx = 0 <= ky, so each nonzero harmonic is one complex z-profile.  Its sin
and cos factors become exponentials by `core`'s planar trig rule, and each
method calls the `core` kernel that `ZProfile` calls at k = 0.  A
PlanarField holds one ScalarField per component.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .core import (_PHASE, TWO_PI, EigenMode, ZProfile, _box_inner, _canonical, _dz, _flat,
                   _halves, _merged, _multiplied, _number, _product, _term_values, _times,
                   _trig_terms, _value, planar_terms)
from .errors import InvalidCase

COMPONENTS = ("u", "v", "w")


class ScalarField:
    """Scalar-valued separable field: its canonical exponential terms, held
    per wavevector as {(kx, ky): ((j, lam, c), ...)}."""

    __slots__ = ("_harmonics",)

    def __init__(self, raw: Iterable[tuple[ZProfile, int, int, str, str, float]] = ()):
        """The sum of weight * profile(z) * trig(kx x) * trig(ky y) over
        (profile, kx, ky, xpar, ypar, weight); raises InvalidCase unless kx
        and ky are non-negative integers and the parities sin or cos."""
        terms = []
        for profile, kx, ky, xpar, ypar, weight in raw:
            for k, par in ((kx, xpar), (ky, ypar)):
                if _number("planar wavenumber", k, integer=True) < 0:
                    raise InvalidCase(f"negative wavenumber {k}")
                if par not in _PHASE:
                    raise InvalidCase(f"planar parity must be sin or cos, got {par!r}")
            planar = _trig_terms(int(kx), int(ky), xpar, ypar, weight)
            terms.extend(_product(planar, _halves(_flat(profile._harmonics))))
        self._harmonics = _canonical(terms)

    @classmethod
    def _of(cls, harmonics: dict) -> "ScalarField":
        out = cls.__new__(cls)
        out._harmonics = harmonics
        return out

    @classmethod
    def _of_mode(cls, profile: ZProfile, mode: EigenMode, component: str) -> "ScalarField":
        """profile(z) times one planar factor of a mode, from its (a, b, c, d) pick."""
        m, n = mode.index.m, mode.index.n
        return cls((profile, m, n, xpar, ypar, weight)
                   for weight, xpar, ypar in planar_terms(mode.index, mode.coeffs, component))

    @property
    def terms(self) -> tuple[tuple[int, int, int, complex, complex], ...]:
        """The canonical (kx, ky, j, lam, c) terms, sorted."""
        return tuple(_flat(self._harmonics))

    def is_zero(self) -> bool:
        return not self._harmonics

    def __add__(self, other: "ScalarField") -> "ScalarField":
        return ScalarField._of(_merged(self._harmonics, other._harmonics))

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        return self + other.scale(-1.0)

    def scale(self, factor: float) -> "ScalarField":
        return ScalarField._of(_times(self._harmonics, lambda kx, ky: factor))

    def inner(self, other: "ScalarField") -> float:
        return TWO_PI * TWO_PI * _box_inner(self._harmonics, other._harmonics)

    def dx(self) -> "ScalarField":
        return ScalarField._of(_times(self._harmonics, lambda kx, ky: 1j * kx))

    def dy(self) -> "ScalarField":
        return ScalarField._of(_times(self._harmonics, lambda kx, ky: 1j * ky))

    def dz(self) -> "ScalarField":
        return ScalarField._of(_dz(self._harmonics))

    def gradient(self) -> "PlanarField":
        return PlanarField.from_scalars(self.dx(), self.dy(), self.dz())

    def product(self, other: "ScalarField") -> "ScalarField":
        return ScalarField._of(_multiplied(self._harmonics, other._harmonics))

    def l2_sq(self) -> float:
        return self.inner(self)

    def at(self, z: float) -> "ScalarField":
        """The planar function at one height z, as a z-independent field."""
        return ScalarField._of(_canonical((kx, ky, 0, 0j, _value(terms, z))
                                          for (kx, ky), terms in self._harmonics.items()))

    def eval(self, x, y, z):
        """Each harmonic's complex z-profile times its phase: on a grid, an
        outer product."""
        x, y, z = (np.asarray(t, dtype=float) for t in (x, y, z))
        total = np.zeros(np.broadcast(x, y, z).shape)
        for (kx, ky), terms in self._harmonics.items():
            values = _term_values(terms, z).sum(axis=-1)
            if kx or ky:
                values = values * np.exp(1j * (kx * x + ky * y))
            total = total + values.real
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
        """Velocity field of an eigenmode: each profile times its planar factor."""
        profiles = (mode.u_profile, mode.v_profile, mode.w_profile)
        return cls.from_scalars(*(ScalarField._of_mode(profile, mode, comp)
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
        return sum(a.inner(b) for a, b in zip(self._parts, other._parts))

    def divergence(self) -> ScalarField:
        u, v, w = self._parts
        return u.dx() + v.dy() + w.dz()

    def laplacian(self) -> "PlanarField":
        """Componentwise Laplacian: Z'' - (kx^2 + ky^2) Z per harmonic."""
        return self.from_scalars(*(ScalarField._of(_merged(
            _dz(_dz(h)), _times(h, lambda kx, ky: -(kx * kx + ky * ky))))
            for h in (part._harmonics for part in self._parts)))

    def norm(self) -> float:
        return math.sqrt(max(self.inner(self), 0.0))

    def eval(self, x, y, z):
        """Evaluate all three components; returns (u, v, w) arrays."""
        return tuple(part.eval(x, y, z) for part in self._parts)

    def eval_component(self, comp: str, x, y, z):
        return self.component(comp).eval(x, y, z)

    def boundary_tangential_sq(self) -> float:
        """Integral over both walls of u^2 + v^2: half the box integral of
        each wall trace, which is constant in z."""
        return 0.5 * sum(part.at(z).l2_sq() for part in self._parts[:2] for z in (1.0, -1.0))


def pressure_field(mode: EigenMode) -> ScalarField:
    """Pressure q = Q(z) * P(x,y) of a mode as a scalar field."""
    return ScalarField._of_mode(mode.q_profile, mode, "w")
