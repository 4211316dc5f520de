"""Separable fields on the periodic channel, as sums of exponential terms.

A scalar field is the real part of a sum of c z^j exp(lam (z - z0))
exp(i (kx x + ky y)): `core.ZProfile`'s terms with an integer wavevector,
kept in the half-plane kx > 0 or kx = 0 <= ky, so each nonzero harmonic is
one complex z-profile.  Product, derivatives, evaluation and the exact box
integral are ZProfile's rules: Re a Re b = (Re(a b) + Re(a conj b)) / 2
with wavevectors added (subtracted for the conjugate), d/dx multiplies c by
i kx, and only zero-wavevector terms survive the integral, times 4 pi^2.
A PlanarField holds one ScalarField per component.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .core import (
    COS,
    SIN,
    K0,
    TWO_PI,
    EigenMode,
    ZProfile,
    _canonical,
    _finite,
    _halves,
    _lifted,
    _merged,
    _number,
    _pair_integral,
    _product,
    _slope,
    _term_values,
    _value,
    _z0,
    planar_terms,
)
from .errors import InvalidCase

COMPONENTS = ("u", "v", "w")

# cos t = Re e^{i t} and sin t = Re(-i e^{i t})
_PHASE = {COS: 1 + 0j, SIN: -1j}


def _flat(harmonics: dict):
    """The (kx, ky, j, lam, c) terms of a {wavevector: terms} map."""
    return ((kx, ky, j, lam, c) for (kx, ky), terms in harmonics.items() for j, lam, c in terms)


def _trig_terms(kx: int, ky: int, xpar: str, ypar: str, weight: float) -> list:
    """weight trig(kx x) trig(ky y) by the product rule, a and b the phases."""
    half, b = 0.5 * weight * _PHASE[xpar], _PHASE[ypar]
    return [(kx, ky, 0, 0j, half * b), (kx, -ky, 0, 0j, half * b.conjugate())]


def _box_inner(a: dict, b: dict) -> float:
    """Exact box integral of the product of two harmonic maps: only equal
    wavevectors meet at k = 0, away from k = 0 through the conjugate halves
    alone."""
    total = 0.0
    for k, terms in a.items():
        other = b.get(k)
        if other is not None:
            if k == K0:
                halves = [half[2:] for half in _halves(_lifted(other))]
            else:
                halves = [(j, lam.conjugate(), c.conjugate(), _z0(lam)) for j, lam, c in other]
            total += _pair_integral(terms, halves)
    return TWO_PI * TWO_PI * total


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
            terms.extend(_product(planar, _halves(_lifted(profile.terms))))
        self._harmonics = _canonical(terms)

    @classmethod
    def _of(cls, harmonics: dict) -> "ScalarField":
        out = cls.__new__(cls)
        out._harmonics = harmonics
        return out

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

    def _times(self, factor) -> "ScalarField":
        """Each harmonic's weights times factor(kx, ky), zeros dropped."""
        out = {}
        for k, terms in self._harmonics.items():
            f = factor(*k)
            if scaled := tuple((j, lam, w) for j, lam, c in terms if (w := c * f)):
                out[k] = scaled
                _finite([w for *_, w in scaled])
        return ScalarField._of(out)

    def scale(self, factor: float) -> "ScalarField":
        return self._times(lambda kx, ky: factor)

    def inner(self, other: "ScalarField") -> float:
        return _box_inner(self._harmonics, other._harmonics)

    def dx(self) -> "ScalarField":
        return self._times(lambda kx, ky: 1j * kx)

    def dy(self) -> "ScalarField":
        return self._times(lambda kx, ky: 1j * ky)

    def dz(self) -> "ScalarField":
        return ScalarField._of(_canonical((kx, ky, j, lam, c) for (kx, ky), terms in
                                          self._harmonics.items() for j, lam, c in _slope(terms)))

    def gradient(self) -> "PlanarField":
        return PlanarField.from_scalars(self.dx(), self.dy(), self.dz())

    def product(self, other: "ScalarField") -> "ScalarField":
        return ScalarField._of(_canonical(_product(_flat(self._harmonics),
                                                   _halves(_flat(other._harmonics)))))

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
        return cls.from_scalars(*(_mode_field(profile, mode, comp)
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
        return self.from_scalars(*(ScalarField._of(_canonical(
            (kx, ky, j, lam, c) for (kx, ky), terms in part._harmonics.items()
            for j, lam, c in (*_slope(_slope(terms)),
                              *((j, lam, -(kx * kx + ky * ky) * c) for j, lam, c in terms))))
            for part in self._parts))

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


def _mode_field(profile: ZProfile, mode: EigenMode, component: str) -> ScalarField:
    """profile(z) times one planar factor of a mode, from its (a, b, c, d) pick."""
    planar = [term for weight, xpar, ypar in planar_terms(mode.index, mode.coeffs, component)
              for term in _trig_terms(mode.index.m, mode.index.n, xpar, ypar, weight)]
    return ScalarField._of(_canonical(_product(planar, _halves(_lifted(profile.terms)))))


def pressure_field(mode: EigenMode) -> ScalarField:
    """Pressure q = Q(z) * P(x,y) of a mode as a scalar field."""
    return _mode_field(mode.q_profile, mode, "w")
