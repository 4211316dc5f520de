"""Domain types: mode indices, friction, planar trig factors, z-profiles.

Everything here is immutable after construction and safe to share between
threads.  The z-profiles form a small symbolic algebra over the atoms
{sin(s z), cos(s z), sinh(k z), cosh(k z), z^j} closed under differentiation,
which is what makes exact boundary evaluation, exact PDE residuals and
exact z-integrals (`ZProfile.inner`) possible downstream.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidCase, InvalidIndex

TWO_PI = 2.0 * math.pi

# Finite friction below this is numerically indistinguishable from the
# frictionless case and destroys the conditioning of the even-branch
# residual, so it must be requested through Friction.navier().
MIN_BETA = 1e-12


class PressureFamily(enum.Enum):
    """The two spectral families: eigen-pressure gradient zero or not."""

    CONSTANT = "const"
    NONCONSTANT = "nonconst"


@dataclass(frozen=True)
class WaveIndex:
    """Mode index (m, n, p) plus the pressure-family tag.

    m, n are the x/y wavenumbers on the 2*pi-periodic directions, p counts
    vertical oscillations.  mu2 = m^2 + n^2 is kept in exact integer
    arithmetic.  The non-constant-pressure family requires mu2 > 0.
    """

    m: int
    n: int
    p: int
    family: PressureFamily = PressureFamily.CONSTANT

    def __post_init__(self) -> None:
        for name in ("m", "n", "p"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or v < 0:
                raise InvalidIndex(f"{name} must be a non-negative integer, got {v!r}")
        if self.family is PressureFamily.NONCONSTANT and self.mu2 == 0:
            raise InvalidIndex(
                "non-constant-pressure modes require m^2 + n^2 > 0"
            )

    @property
    def mu2(self) -> int:
        return self.m * self.m + self.n * self.n

    @property
    def mu(self) -> float:
        return math.sqrt(self.mu2)

    def with_family(self, family: PressureFamily) -> "WaveIndex":
        return WaveIndex(self.m, self.n, self.p, family)


class FrictionKind(enum.Enum):
    NAVIER = "navier"       # beta = 0, free slip
    FINITE = "finite"       # 0 < beta < infinity
    DIRICHLET = "dirichlet"  # beta -> infinity, no slip


@dataclass(frozen=True)
class Friction:
    """Wall friction: frictionless, finite beta, or no-slip limit.

    The limits are distinct enum cases rather than extreme beta values
    because their eigenvalue equations differ structurally (and huge beta
    overflows the hyperbolic terms).
    """

    kind: FrictionKind
    beta: float = 0.0

    @staticmethod
    def navier() -> "Friction":
        return Friction(FrictionKind.NAVIER, 0.0)

    @staticmethod
    def finite(beta: float) -> "Friction":
        beta = float(beta)
        if not math.isfinite(beta) or beta <= 0.0:
            raise InvalidCase(
                f"finite friction requires beta > 0, got {beta!r}; "
                "use Friction.navier() for beta = 0"
            )
        if beta < MIN_BETA:
            raise InvalidCase(
                f"beta = {beta:g} is below the supported minimum {MIN_BETA:g}; "
                "request the frictionless case through Friction.navier()"
            )
        return Friction(FrictionKind.FINITE, beta)

    @staticmethod
    def dirichlet() -> "Friction":
        return Friction(FrictionKind.DIRICHLET, math.inf)

    @property
    def is_navier(self) -> bool:
        return self.kind is FrictionKind.NAVIER

    @property
    def is_finite(self) -> bool:
        return self.kind is FrictionKind.FINITE

    @property
    def is_dirichlet(self) -> bool:
        return self.kind is FrictionKind.DIRICHLET

    def label(self) -> str:
        if self.is_navier:
            return "0"
        if self.is_dirichlet:
            return "inf"
        return f"{self.beta:g}"


@dataclass(frozen=True)
class PlanarCoeffs:
    """The four coefficients spanning a planar-factor eigenspace."""

    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0

    def __post_init__(self) -> None:
        vals = (self.a, self.b, self.c, self.d)
        if not all(math.isfinite(v) for v in vals):
            raise InvalidCase(f"planar coefficients must be finite, got {vals}")
        if all(v == 0.0 for v in vals):
            raise InvalidCase("planar coefficients must not all vanish")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


# --------------------------------------------------------------------------
# z-profile atoms
# --------------------------------------------------------------------------

SIN, COS, SINH, COSH, POLY = "sin", "cos", "sinh", "cosh", "poly"
_TRIG = (SIN, COS)
_HYP = (SINH, COSH)


def _atom_eval(kind: str, param: float, z):
    if kind == SIN:
        return np.sin(param * np.asarray(z, dtype=float))
    if kind == COS:
        return np.cos(param * np.asarray(z, dtype=float))
    if kind == SINH:
        return np.sinh(param * np.asarray(z, dtype=float))
    if kind == COSH:
        return np.cosh(param * np.asarray(z, dtype=float))
    if kind == POLY:
        return np.asarray(z, dtype=float) ** int(param)
    raise ValueError(f"unknown atom kind {kind!r}")


def _canon_atom(kind: str, param: float, weight: float):
    """Normalize an atom to param >= 0, folding signs/degeneracies into weight."""
    if kind == POLY:
        return (POLY, float(int(param)), weight)
    if param == 0.0:
        if kind in (COS, COSH):
            return (POLY, 0.0, weight)  # cos(0) = cosh(0) = 1
        return None                     # sin(0) = sinh(0) = 0
    if param < 0.0:
        if kind in (SIN, SINH):
            return (kind, -param, -weight)
        return (kind, -param, weight)
    return (kind, param, weight)


def _exponentials(kind: str, param: float):
    """An atom as (c, lam) pairs of the sum of c * exp(lam z); z^j is the
    single pair (1, 0), its degree carried separately."""
    if kind == SIN:
        return ((-0.5j, 1j * param), (0.5j, -1j * param))
    if kind == COS:
        return ((0.5, 1j * param), (0.5, -1j * param))
    if kind == SINH:
        return ((0.5, param), (-0.5, -param))
    if kind == COSH:
        return ((0.5, param), (0.5, -param))
    return ((1.0, 0.0),)


def _moment(j: int, lam: complex) -> complex:
    """Integral over [-1, 1] of z^j exp(lam z).

    Below |lam| = j integration by parts would amplify rounding by j/|lam|
    per step, so the Taylor series of exp(lam z) is summed instead.
    """
    if lam == 0 or abs(lam) < j:
        total, term, k = 0j, 1 + 0j, 0
        while term != 0 and (total == 0 or abs(term) > 1e-17 * abs(total)):
            if (j + k) % 2 == 0:
                total += term * (2.0 / (j + k + 1))
            k += 1
            term *= lam / k
        return total
    sinh, cosh = cmath.sinh(lam), cmath.cosh(lam)
    total = 2.0 * sinh / lam
    for i in range(1, j + 1):
        total = (2.0 * (cosh if i % 2 else sinh) - i * total) / lam
    return total


def _atom_pair_integral(k1: str, p1: float, k2: str, p2: float) -> float:
    j = sum(int(p) for k, p in ((k1, p1), (k2, p2)) if k == POLY)
    return sum(c1 * c2 * _moment(j, l1 + l2)
               for c1, l1 in _exponentials(k1, p1)
               for c2, l2 in _exponentials(k2, p2)).real


@dataclass(frozen=True)
class ZProfile:
    """Finite linear combination of z-atoms with exact differentiation.

    terms: tuple of (kind, param, weight).  kind "poly" uses param as the
    integer exponent; trig/hyperbolic kinds use it as the frequency.
    """

    terms: tuple[tuple[str, float, float], ...] = ()

    # -- constructors -----------------------------------------------------
    @staticmethod
    def make(raw: list[tuple[str, float, float]]) -> "ZProfile":
        acc: dict[tuple[str, float], float] = {}
        for kind, param, weight in raw:
            if weight == 0.0:
                continue
            canon = _canon_atom(kind, float(param), float(weight))
            if canon is None:
                continue
            k, p, w = canon
            acc[(k, p)] = acc.get((k, p), 0.0) + w
        terms = tuple(
            (k, p, w) for (k, p), w in sorted(acc.items()) if w != 0.0
        )
        return ZProfile(terms)

    @staticmethod
    def zero() -> "ZProfile":
        return ZProfile(())

    @staticmethod
    def const(c: float) -> "ZProfile":
        return ZProfile.make([(POLY, 0.0, c)])

    @staticmethod
    def linear(w: float = 1.0) -> "ZProfile":
        return ZProfile.make([(POLY, 1.0, w)])

    @staticmethod
    def poly(exponent: int, w: float = 1.0) -> "ZProfile":
        return ZProfile.make([(POLY, float(exponent), w)])

    @staticmethod
    def sin(freq: float, w: float = 1.0) -> "ZProfile":
        return ZProfile.make([(SIN, freq, w)])

    @staticmethod
    def cos(freq: float, w: float = 1.0) -> "ZProfile":
        return ZProfile.make([(COS, freq, w)])

    @staticmethod
    def sinh(k: float, w: float = 1.0) -> "ZProfile":
        return ZProfile.make([(SINH, k, w)])

    @staticmethod
    def cosh(k: float, w: float = 1.0) -> "ZProfile":
        return ZProfile.make([(COSH, k, w)])

    # -- algebra -----------------------------------------------------------
    def __add__(self, other: "ZProfile") -> "ZProfile":
        return ZProfile.make(list(self.terms) + list(other.terms))

    def __sub__(self, other: "ZProfile") -> "ZProfile":
        return self + other.scale(-1.0)

    def scale(self, factor: float) -> "ZProfile":
        return ZProfile.make([(k, p, w * factor) for k, p, w in self.terms])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def max_frequency(self) -> float:
        freqs = [abs(p) for k, p, _ in self.terms if k in _TRIG]
        return max(freqs, default=0.0)

    def derivative(self) -> "ZProfile":
        out: list[tuple[str, float, float]] = []
        for kind, param, weight in self.terms:
            if kind == SIN:
                out.append((COS, param, weight * param))
            elif kind == COS:
                out.append((SIN, param, -weight * param))
            elif kind == SINH:
                out.append((COSH, param, weight * param))
            elif kind == COSH:
                out.append((SINH, param, weight * param))
            else:  # poly
                j = int(param)
                if j >= 1:
                    out.append((POLY, float(j - 1), weight * j))
        return ZProfile.make(out)

    def eval(self, z):
        z = np.asarray(z, dtype=float)
        total = np.zeros_like(z)
        for kind, param, weight in self.terms:
            total = total + weight * _atom_eval(kind, param, z)
        return total

    def at(self, z: float) -> float:
        return float(self.eval(np.asarray(z, dtype=float)))

    def product(self, other: "ZProfile") -> "ZProfile":
        """Exact product, re-expanded into atoms.

        Supports the pairs that actually occur in convective products of the
        constant-pressure family (trig x trig and anything x polynomial of
        degree 0); hyperbolic x hyperbolic is included since it is exact too.
        Mixed trig x hyperbolic has no finite atom expansion and raises.
        """
        out: list[tuple[str, float, float]] = []
        for k1, p1, w1 in self.terms:
            for k2, p2, w2 in other.terms:
                w = w1 * w2
                out.extend(_atom_product(k1, p1, k2, p2, w))
        return ZProfile.make(out)

    def inner(self, other: "ZProfile") -> float:
        """Exact integral over [-1, 1] of self * other, for every atom pair
        (trig x hyperbolic included).  Raises OverflowError when a
        hyperbolic term exceeds double precision."""
        total = sum(w1 * w2 * _atom_pair_integral(k1, p1, k2, p2)
                    for k1, p1, w1 in self.terms for k2, p2, w2 in other.terms)
        if not math.isfinite(total):
            raise OverflowError("z-integral exceeds double precision")
        return total


def _atom_product(k1, p1, k2, p2, w):
    if k1 == POLY and p1 == 0.0:
        return [(k2, p2, w)]
    if k2 == POLY and p2 == 0.0:
        return [(k1, p1, w)]
    if k1 == POLY and k2 == POLY:
        return [(POLY, p1 + p2, w)]
    if k1 in _TRIG and k2 in _TRIG:
        if k1 == SIN and k2 == SIN:
            return [(COS, p1 - p2, 0.5 * w), (COS, p1 + p2, -0.5 * w)]
        if k1 == COS and k2 == COS:
            return [(COS, p1 - p2, 0.5 * w), (COS, p1 + p2, 0.5 * w)]
        if k1 == SIN and k2 == COS:
            return [(SIN, p1 + p2, 0.5 * w), (SIN, p1 - p2, 0.5 * w)]
        # cos * sin
        return [(SIN, p1 + p2, 0.5 * w), (SIN, p2 - p1, 0.5 * w)]
    if k1 in _HYP and k2 in _HYP:
        if k1 == SINH and k2 == SINH:
            return [(COSH, p1 + p2, 0.5 * w), (COSH, p1 - p2, -0.5 * w)]
        if k1 == COSH and k2 == COSH:
            return [(COSH, p1 + p2, 0.5 * w), (COSH, p1 - p2, 0.5 * w)]
        if k1 == SINH and k2 == COSH:
            return [(SINH, p1 + p2, 0.5 * w), (SINH, p1 - p2, 0.5 * w)]
        return [(SINH, p1 + p2, 0.5 * w), (SINH, p2 - p1, 0.5 * w)]
    raise InvalidCase(
        f"no closed-form atom expansion for {k1} x {k2} products"
    )


@dataclass(frozen=True)
class EigenMode:
    """One normalized eigenfunction: z-profiles x planar factors.

    Velocity components are u = U(z)*Pu(x,y), v = V(z)*Pv(x,y),
    w = W(z)*P(x,y) and the pressure is q = Q(z)*P(x,y).  `norm` records the
    L2 velocity norm of the unnormalized closed form (profiles below are
    already divided by it).
    """

    index: WaveIndex
    friction: Friction
    eigenvalue: float
    coeffs: PlanarCoeffs
    u_profile: ZProfile
    v_profile: ZProfile
    w_profile: ZProfile
    q_profile: ZProfile
    norm: float
    branch: str = ""   # "even" / "odd" vertical parity, informational


# --------------------------------------------------------------------------
# planar factors
# --------------------------------------------------------------------------

# Component expansions of the three planar factors in the (a,b,c,d) basis:
# list of (coefficient picker, x parity, y parity).
_PU_TERMS = (("a", COS, SIN, 1.0), ("b", SIN, SIN, -1.0),
             ("c", SIN, COS, -1.0), ("d", COS, COS, 1.0))
_PV_TERMS = (("a", SIN, COS, 1.0), ("b", COS, COS, 1.0),
             ("c", COS, SIN, -1.0), ("d", SIN, SIN, -1.0))
_P_TERMS = (("a", SIN, SIN, 1.0), ("b", COS, SIN, 1.0),
            ("c", COS, COS, 1.0), ("d", SIN, COS, 1.0))

_COMPONENT_TERMS = {"u": _PU_TERMS, "v": _PV_TERMS, "w": _P_TERMS}


def planar_terms(index: WaveIndex, coeffs: PlanarCoeffs, component: str):
    """Nonzero (weight, x_parity, y_parity) terms of one planar factor.

    Degenerate wavenumbers are canonicalized: sin(0*t) terms are dropped,
    cos(0*t) collapses to the constant 1 (represented as parity "cos" with
    wavenumber 0).
    """
    if component not in _COMPONENT_TERMS:
        raise InvalidCase(f"component must be u, v or w, got {component!r}")
    m, n = index.m, index.n
    out = []
    for name, xpar, ypar, sign in _COMPONENT_TERMS[component]:
        w = sign * getattr(coeffs, name)
        if w == 0.0:
            continue
        if m == 0 and xpar == SIN:
            continue
        if n == 0 and ypar == SIN:
            continue
        out.append((w, xpar, ypar))
    return out


def _trig(par: str, k: int, t):
    if k == 0:
        return np.ones_like(np.asarray(t, dtype=float)) if par == COS else np.zeros_like(np.asarray(t, dtype=float))
    return np.sin(k * np.asarray(t, dtype=float)) if par == SIN else np.cos(k * np.asarray(t, dtype=float))


def _axis_integral(k: int, par: str) -> float:
    # integral over one period of sin^2(k t) or cos^2(k t)
    if k == 0:
        return TWO_PI if par == COS else 0.0
    return math.pi


def planar_l2_weight(index: WaveIndex, coeffs: PlanarCoeffs, component: str) -> float:
    """Closed-form integral over the periodic square of one squared factor.

    Cross terms always vanish: distinct terms differ in at least one axis
    parity, and mixed sin*cos integrates to zero over a full period.
    """
    total = 0.0
    for w, xpar, ypar in planar_terms(index, coeffs, component):
        total += w * w * _axis_integral(index.m, xpar) * _axis_integral(index.n, ypar)
    return total
