"""Domain types: mode indices, friction, planar trig factors, z-profiles.

Everything here is immutable after construction and safe to share between
threads.  A z-profile is the real part of a sum of terms c z^j e^{lam z},
the paper's form of the eigenfunctions: imaginary lam gives the oscillating
part, real lam the pressure boundary layer.  With a planar factor
e^{i (kx x + ky y)} the same terms make the separable fields of `fields`,
held as harmonic maps {(kx, ky): terms}.  One kernel per rule lives here:
the planar trig rule, canonical form, sum, scaling with d/dx and d/dy, d/dz,
product, box inner product and evaluation; each `ZProfile` method is a k = 0
call of one.  Each exponential is stored relative to the end of [-1, 1]
where it peaks, so no weight grows with the boundary-layer rate.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
import numbers
import operator
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .errors import InvalidCase, InvalidIndex

TWO_PI = 2.0 * math.pi

# Finite friction below this is numerically indistinguishable from the
# frictionless case and destroys the conditioning of the even-branch
# residual, so it must be requested through Friction.navier().
MIN_BETA = 1e-12


def _number(key: str, value, integer: bool = False):
    """`value` as a float (an int with `integer`): raises InvalidCase for
    a non-number, a bool, or an integer too large for a float."""
    if type(value) is (int if integer else float):  # skips the slow ABC checks
        return value
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "an integer" if integer else "a number"
        raise InvalidCase(f"{key} must be {noun}, got {value!r}")
    try:
        return int(value) if integer else float(value)
    except OverflowError:
        raise InvalidCase(f"{key} is too large for a float") from None


def _listed(key: str, values, items: str):
    """`values` itself if it is an iterable that is not a str or a
    mapping; otherwise raises InvalidCase: `key` must be a list of `items`."""
    if isinstance(values, (str, Mapping)) or not isinstance(values, Iterable):
        raise InvalidCase(f"{key} must be a list of {items}, got {values!r}")
    return values


def _numbers(key: str, values) -> list[float]:
    """`values` as a list of floats: raises InvalidCase unless it is an
    iterable of numbers (a str or a mapping is not one)."""
    return [_number(key, v) for v in _listed(key, values, "numbers")]


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
            exact = type(v) is int  # the common case skips the slow ABC check
            if not (exact or (isinstance(v, numbers.Integral)
                              and not isinstance(v, bool))) or v < 0:
                raise InvalidIndex(f"{name} must be a non-negative integer, got {v!r}")
            if not exact:  # a numpy integer would wrap in mu2
                object.__setattr__(self, name, operator.index(v))
        if not isinstance(self.family, PressureFamily):
            raise InvalidIndex(f"family must be a PressureFamily, got {self.family!r}")
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

    def __post_init__(self) -> None:
        """Accept (NAVIER, 0), (DIRICHLET, inf) and FINITE with
        MIN_BETA <= beta < inf; anything else raises InvalidCase."""
        if not isinstance(self.kind, FrictionKind):
            raise InvalidCase(f"friction kind must be a FrictionKind, got {self.kind!r}")
        beta = _number(f"{self.kind.value} friction beta", self.beta)
        object.__setattr__(self, "beta", beta)
        if self.kind is not FrictionKind.FINITE:
            if beta != (0.0 if self.kind is FrictionKind.NAVIER else math.inf):
                raise InvalidCase(f"{self.kind.value} friction has beta = {self.label()} "
                                  f"only, got {beta!r}; use Friction.finite(beta)")
            return
        if beta == math.inf:
            raise InvalidCase(
                "finite friction requires a finite beta, got inf; "
                "use Friction.dirichlet() for the no-slip limit"
            )
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

    @staticmethod
    def navier() -> "Friction":
        return Friction(FrictionKind.NAVIER, 0.0)

    @staticmethod
    def finite(beta: float) -> "Friction":
        return Friction(FrictionKind.FINITE, beta)

    @staticmethod
    def dirichlet() -> "Friction":
        return Friction(FrictionKind.DIRICHLET, math.inf)

    @staticmethod
    def parse(spec) -> "Friction":
        """Friction from "navier"/"0", "dirichlet"/"inf" (any case), a number
        or {"beta": x}: 0 is frictionless, +inf no-slip, anything else
        finite.  Zero spelled any other way as a string is rejected, since
        the frictionless limit is its own code path, not a small number.
        """
        if isinstance(spec, Friction):
            return spec
        if isinstance(spec, Mapping) and "beta" in spec:
            return Friction.parse(spec["beta"])
        if isinstance(spec, str):
            name = spec.strip().lower()
            limits = {"navier": 0.0, "0": 0.0, "dirichlet": math.inf, "inf": math.inf}
            try:
                value = limits[name] if name in limits else float(name)
            except ValueError:
                raise InvalidCase(f"unrecognized friction {spec!r}") from None
            if value == 0.0 and name not in limits:
                raise InvalidCase(
                    f"friction {spec!r} is the frictionless limit; spell it navier"
                )
            spec = value
        if isinstance(spec, bool) or not isinstance(spec, numbers.Real):
            raise InvalidCase(f"unrecognized friction {spec!r}")
        if spec == 0.0:
            return Friction.navier()
        if spec == math.inf:
            return Friction.dirichlet()
        return Friction.finite(spec)

    @property
    def is_navier(self) -> bool:
        return self.kind is FrictionKind.NAVIER

    @property
    def is_finite(self) -> bool:
        return self.kind is FrictionKind.FINITE

    @property
    def is_dirichlet(self) -> bool:
        return self.kind is FrictionKind.DIRICHLET

    def first_p(self, family: PressureFamily) -> int | None:
        """Lowest p of `family`'s ladder on this wall (1 for the no-slip
        constant family), or None where the wall has no mode of that family."""
        if family is PressureFamily.CONSTANT:
            return 1 if self.is_dirichlet else 0
        return None if self.is_navier else 0

    def label(self) -> str:
        if self.is_navier:
            return "0"
        if self.is_dirichlet:
            return "inf"
        return f"{self.beta:g}"


@dataclass(frozen=True)
class PlanarCoeffs:
    """The four coefficients spanning a planar-factor eigenspace, as floats."""

    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0

    def __post_init__(self) -> None:
        vals = tuple(_number("planar coefficient", v) for v in self.as_tuple())
        if not all(math.isfinite(v) for v in vals):
            raise InvalidCase(f"planar coefficients must be finite, got {vals}")
        if all(v == 0.0 for v in vals):
            raise InvalidCase("planar coefficients must not all vanish")
        for slot, v in zip("abcd", vals):
            object.__setattr__(self, slot, v)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


#: Named coefficient policies: one pick applied to every basis index.
#: "matched" is the self-advection-free pick; "ab"/"ad"/"bd" are the
#: two-slot families on c = 0; "c" deliberately excites the nonlinearity.
COEFF_POLICIES: Mapping[str, PlanarCoeffs] = {
    "ab": PlanarCoeffs(a=1.0, b=1.0),
    "ad": PlanarCoeffs(a=1.0, d=1.0),
    "bd": PlanarCoeffs(b=1.0, d=1.0),
    "c": PlanarCoeffs(c=1.0),
    "matched": PlanarCoeffs(a=1.0, b=1.0, c=-1.0, d=1.0),
}


# --------------------------------------------------------------------------
# exponential terms: one algebra for z-profiles and separable fields
# --------------------------------------------------------------------------

SIN, COS = "sin", "cos"   # the parities of a planar trig factor

# cos t = Re e^{i t} and sin t = Re(-i e^{i t})
_PHASE = {COS: 1 + 0j, SIN: -1j}

K0 = (0, 0)   # the zero wavevector, where a field's harmonic is a z-profile


def _z0(lam: complex) -> int:
    """The end of [-1, 1] where exp(lam z) peaks: sign(Re lam)."""
    return (lam.real > 0.0) - (lam.real < 0.0)


@functools.lru_cache(maxsize=4096)
def _moment(j: int, lam: complex) -> complex:
    """Integral over [-1, 1] of z^j exp(lam (z - z0)), z0 = sign(Re lam).

    The factor is at most 1 on [-1, 1], so no moment overflows.  Below
    |lam| = j integration by parts would amplify rounding by j/|lam| per
    step, and below |lam| = 1 with Re lam != 0 its two boundary terms
    cancel, so there the Taylor series of exp(lam z) is summed instead.
    """
    z0 = _z0(lam)
    if not lam or abs(lam) < max(j, abs(z0)):
        total, term, k = 0j, 1 + 0j, 0
        while term != 0 and (total == 0 or abs(term) > 1e-17 * abs(total)):
            if (j + k) % 2 == 0:
                total += term * (2.0 / (j + k + 1))
            k += 1
            term *= lam / k
        return total * cmath.exp(-lam * z0)
    up, down = cmath.exp(lam * (1 - z0)), cmath.exp(-lam * (1 + z0))
    total = (up - down) / lam
    for i in range(1, j + 1):
        total = (up + (down if i % 2 else -down) - i * total) / lam
    return total


def _finite(values) -> None:
    """Raise InvalidCase unless every rate or weight in `values` is finite."""
    if not all(map(cmath.isfinite, values)):
        raise InvalidCase("a z-profile weight leaves double precision")


def _trig_terms(kx: int, ky: int, xpar: str, ypar: str, weight: float) -> list:
    """weight trig(kx x) trig(ky y) by the product rule, a and b the phases."""
    half, b = 0.5 * weight * _PHASE[xpar], _PHASE[ypar]
    return [(kx, ky, 0, 0j, half * b), (kx, -ky, 0, 0j, half * b.conjugate())]


def _canonical(raw) -> dict:
    """Raw (kx, ky, j, lam, c) terms as the harmonic map {k: ((j, lam, c),
    ...)}: each term conjugated (-k, conj lam, conj c has the same real
    part) into kx > 0 or kx = 0 <= ky, at k = 0 to Im lam >= 0 with a real
    c where lam is real; merged per (k, j, lam) and sorted, zeros dropped."""
    acc: dict[tuple, complex] = {}
    for kx, ky, j, lam, c in raw:
        if kx < 0 or (not kx and (ky < 0 or (not ky and lam.imag < 0.0))):
            kx, ky, lam, c = -kx, -ky, lam.conjugate(), c.conjugate()
        if not (kx or ky or lam.imag):
            c = complex(c.real)
        key = (kx, ky, j, lam.real + 0.0, lam.imag + 0.0)
        acc[key] = acc[key] + c if key in acc else c
    out: dict[tuple[int, int], list] = {}
    for (kx, ky, j, re, im), c in sorted(acc.items()):
        if c:
            out.setdefault((kx, ky), []).append((j, complex(re, im), c))
    _finite([x for terms in out.values() for _, lam, c in terms for x in (lam, c)])
    return {k: tuple(terms) for k, terms in out.items()}


def _flat(harmonics: dict):
    """The (kx, ky, j, lam, c) terms of a harmonic map."""
    return ((kx, ky, j, lam, c) for (kx, ky), terms in harmonics.items() for j, lam, c in terms)


def _merged(a: dict, b: dict) -> dict:
    """The sum of two harmonic maps, `_canonical` of their terms, a's
    first: each shared harmonic's sorted terms merged in one pass, with the
    weights of equal (j, lam) added in the same order, instead of a
    re-sort.  Only those sums are new, so only they are checked."""
    out, sums = {}, []
    for k in sorted(a.keys() | b.keys()):
        left, right = a.get(k), b.get(k)
        if left is None or right is None:
            out[k] = left or right
            continue
        keys = [(j, lam.real, lam.imag) for j, lam, _ in left]
        terms, i, n = [], 0, len(left)
        for j, lam, c in right:
            key = (j, lam.real, lam.imag)
            while i < n and keys[i] < key:
                terms.append(left[i])
                i += 1
            if i < n and keys[i] == key:
                c = left[i][2] + c
                i += 1
                sums.append(c)
                if not c:
                    continue
            terms.append((j, lam, c))
        terms.extend(left[i:])
        if terms:
            out[k] = tuple(terms)
    _finite(sums)
    return out


def _times(harmonics: dict, factor) -> dict:
    """Each harmonic's weights times factor(kx, ky), zeros dropped: a
    scaling, or d/dx and d/dy with factors i kx and i ky."""
    out = {}
    for k, terms in harmonics.items():
        f = factor(*k)
        if scaled := tuple((j, lam, w) for j, lam, c in terms if (w := c * f)):
            out[k] = scaled
            _finite([w for *_, w in scaled])
    return out


def _slope(terms) -> list:
    """d/dz of (j, lam, c) terms: (c z^j e)' = c j z^(j-1) e + c lam z^j e."""
    return [term for j, lam, c in terms
            for term in ((j - 1, lam, c * j), (j, lam, c * lam))]


def _dz(harmonics: dict) -> dict:
    """d/dz of a harmonic map, harmonic by harmonic."""
    return _canonical((kx, ky, *term) for (kx, ky), terms in harmonics.items()
                      for term in _slope(terms))


def _halves(terms) -> list:
    """Canonical terms as Re a Re b = (Re(a b) + Re(a conj b)) / 2 pairs
    them, with peak ends z0: each followed by its conjugate, or once with
    twice its weight where it is its own conjugate (k = 0, real lam)."""
    return [(kx, ky, j, lam, w, _z0(lam)) for kx2, ky2, j, l2, c2 in terms
            for kx, ky, lam, w in (
                ((kx2, ky2, l2, c2), (-kx2, -ky2, l2.conjugate(), c2.conjugate()))
                if kx2 or ky2 or l2.imag else ((0, 0, l2, 2.0 * c2),))]


def _product(terms, halves) -> list:
    """Raw terms of the product of terms with another set's `_halves`,
    wavevectors added.  Each exponent is re-centred where the product peaks:
    the cross factor folded into its weight can underflow, never overflow."""
    out = []
    for kx1, ky1, j1, l1, c1 in terms:
        z1, half = _z0(l1), 0.5 * c1
        for kx2, ky2, j2, l2, c2, z2 in halves:
            lam = l1 + l2
            re = lam.real
            z0 = (re > 0.0) - (re < 0.0)  # _z0(lam), inlined in this hot loop
            cross = (z0 != z1 or z0 != z2) and l1 * (z0 - z1) + l2 * (z0 - z2)
            out.append((kx1 + kx2, ky1 + ky2, j1 + j2, lam,
                        half * c2 * cmath.exp(cross) if cross else half * c2))
    return out


def _multiplied(a: dict, b: dict) -> dict:
    """The product of two harmonic maps."""
    return _canonical(_product(_flat(a), _halves(_flat(b))))


def _pair_integral(terms, halves) -> float:
    """Integral over the box [0, 2 pi]^2 x [-1, 1] over 4 pi^2 of the
    product of (j, lam, c) terms with (j, lam, c, z0) halves, `_halves`
    without their wavevectors, which cancel the terms': each product weight,
    formed as `_product` forms it, is merged per (j, lam) up to conjugation,
    so that cancelling pairs cancel exactly, before each takes its moment."""
    acc: dict[tuple[int, complex], complex] = {}
    for j1, l1, c1 in terms:
        z1, half = (l1.real > 0.0) - (l1.real < 0.0), 0.5 * c1
        for j2, l2, c2, z2 in halves:
            lam = l1 + l2
            re = lam.real
            z0 = (re > 0.0) - (re < 0.0)
            cross = (z0 != z1 or z0 != z2) and l1 * (z0 - z1) + l2 * (z0 - z2)
            c = half * c2 * cmath.exp(cross) if cross else half * c2
            if lam.imag < 0.0:
                lam, c = lam.conjugate(), c.conjugate()
            key = (j1 + j2, lam)
            acc[key] = acc[key] + c if key in acc else c
    return sum((c * _moment(j, lam)).real for (j, lam), c in acc.items())


def _box_inner(a: dict, b: dict) -> float:
    """Exact integral over the box of the product of two harmonic maps,
    over 4 pi^2: only equal wavevectors meet at k = 0, away from k = 0
    through the conjugate halves alone."""
    total = 0.0
    for k, terms in a.items():
        other = b.get(k)
        if other is not None:
            if k == K0:
                halves = [half[2:] for half in _halves(_flat({K0: other}))]
            else:
                halves = [(j, lam.conjugate(), c.conjugate(), _z0(lam)) for j, lam, c in other]
            total += _pair_integral(terms, halves)
    return total


def _value(terms, z: float) -> complex:
    """The sum of (j, lam, c) terms at one height z."""
    return sum(c * z ** j * cmath.exp(lam * (z - _z0(lam))) for j, lam, c in terms)


def _term_values(terms, z):
    """Each of the (j, lam, c) terms at the heights z, along a last axis."""
    import numpy as np

    j, lam, c = (np.array(column) for column in zip(*terms))
    z = z[..., None]
    return c * z ** j * np.exp(lam * (z - np.sign(lam.real)))


@dataclass(frozen=True)
class ZProfile:
    """A real z-profile: the real part of a sum of exponential terms.

    terms: sorted tuple of (j, lam, c), the term c * z^j * exp(lam (z - z0))
    with complex lam and c and z0 = sign(Re lam) in {-1, 0, 1}, so each
    exponential factor is at most 1 on [-1, 1] and no weight grows with
    |Re lam|.  cos(s z) is (0, i s, 1), sin(s z) is (0, i s, -i) and z^j is
    (j, 0, 1).  A profile is a field's zero-wavevector harmonic: each rule
    is the k = 0 call of the harmonic-map kernel `fields.ScalarField` calls.
    """

    terms: tuple[tuple[int, complex, complex], ...] = ()

    # -- constructors -----------------------------------------------------
    @staticmethod
    def make(raw) -> "ZProfile":
        """The canonical profile of (j, lam, c) triples, or InvalidCase."""
        try:
            terms = [(operator.index(j), complex(lam), complex(c)) for j, lam, c in raw]
            if any(j < 0 for j, _, _ in terms):
                raise ValueError
        except (TypeError, ValueError):
            raise InvalidCase("a z-profile term is (j, lam, c) with an integer "
                              "j >= 0 and numbers lam and c") from None
        return ZProfile._of(_canonical(_flat({K0: terms})))

    @staticmethod
    def _of(harmonics: dict) -> "ZProfile":
        """The profile of a harmonic map with no harmonic but k = 0."""
        return ZProfile(harmonics.get(K0, ()))

    @property
    def _harmonics(self) -> dict:
        """The profile as a harmonic map: its terms at k = 0."""
        return {K0: self.terms} if self.terms else {}

    @staticmethod
    def zero() -> "ZProfile":
        return ZProfile(())

    @staticmethod
    def const(c: float) -> "ZProfile":
        return ZProfile.make([(0, 0.0, c)])

    @staticmethod
    def poly(exponent: int, w: float = 1.0) -> "ZProfile":
        return ZProfile.make([(exponent, 0.0, w)])

    @staticmethod
    def sin(freq: float, w: float = 1.0) -> "ZProfile":
        return ZProfile.make([(0, 1j * freq, -1j * w)])

    @staticmethod
    def cos(freq: float, w: float = 1.0) -> "ZProfile":
        return ZProfile.make([(0, 1j * freq, w)])

    @staticmethod
    def sinh(k: float, w: float = 1.0) -> "ZProfile":
        return ZProfile._hyperbolic(k, w, -w)

    @staticmethod
    def cosh(k: float, w: float = 1.0) -> "ZProfile":
        return ZProfile._hyperbolic(k, w, w)

    @staticmethod
    def _hyperbolic(k: float, up: float, down: float) -> "ZProfile":
        """(up e^{k z} + down e^{-k z}) / 2 for real k: each exponential
        carries e^{|k|} / 2 into its weight."""
        try:
            half = 0.5 * math.exp(abs(k))
        except OverflowError:
            raise InvalidCase(f"the weight e^|k| / 2 at k = {k:g} leaves "
                              "double precision") from None
        return ZProfile.make([(0, k, up * half), (0, -k, down * half)])

    # -- algebra -----------------------------------------------------------
    def __add__(self, other: "ZProfile") -> "ZProfile":
        return ZProfile._of(_merged(self._harmonics, other._harmonics))

    def __sub__(self, other: "ZProfile") -> "ZProfile":
        return self + other.scale(-1.0)

    def scale(self, factor: float) -> "ZProfile":
        return ZProfile._of(_times(self._harmonics, lambda kx, ky: factor))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def derivative(self) -> "ZProfile":
        return ZProfile._of(_dz(self._harmonics))

    def eval(self, z):
        import numpy as np

        z = np.asarray(z, dtype=float)
        return _term_values(self.terms, z).real.sum(axis=-1) if self.terms else np.zeros_like(z)

    def at(self, z: float) -> float:
        return float(_value(self.terms, z).real)

    def product(self, other: "ZProfile") -> "ZProfile":
        return ZProfile._of(_multiplied(self._harmonics, other._harmonics))

    def inner(self, other: "ZProfile") -> float:
        """Exact integral over [-1, 1] of self * other."""
        return _box_inner(self._harmonics, other._harmonics)


@dataclass(frozen=True)
class EigenMode:
    """One normalized eigenfunction: z-profiles x planar factors.

    Velocity components are u = U(z)*Pu(x,y), v = V(z)*Pv(x,y),
    w = W(z)*P(x,y) and the pressure is q = Q(z)*P(x,y).  `norm` records the
    L2 velocity norm of the unnormalized closed form, whose hyperbolic
    factors are divided by cosh(mu) in the pressure-carrying family
    (profiles below are already divided by it).
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
    """Nonzero (weight, x_parity, y_parity) terms of one planar factor:
    sin(0 t) terms are dropped, and cos(0 t) is the constant 1."""
    if component not in _COMPONENT_TERMS:
        raise InvalidCase(f"component must be u, v or w, got {component!r}")
    m, n = index.m, index.n
    out = []
    for name, xpar, ypar, sign in _COMPONENT_TERMS[component]:
        w = sign * getattr(coeffs, name)
        if w != 0.0 and not (m == 0 and xpar == SIN) and not (n == 0 and ypar == SIN):
            out.append((w, xpar, ypar))
    return out


def planar_l2_weight(index: WaveIndex, coeffs: PlanarCoeffs, component: str) -> float:
    """Closed-form integral over the periodic square of one squared factor:
    distinct terms are orthogonal, and a squared trig factor integrates to
    pi over a period, or to 2 pi at wavenumber 0 (a cosine)."""
    x, y = (TWO_PI if k == 0 else math.pi for k in (index.m, index.n))
    return sum(w * w * x * y for w, _, _ in planar_terms(index, coeffs, component))
