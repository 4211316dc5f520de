"""Root solvers for the transcendental eigenvalue families.

Each eigenvalue is lambda = mu^2 + s^2 with s in an open interval of width
pi/2 whose endpoints are never eigenvalues.  Writing s = s0 + d with s0 the
interval's lower end, every family's equation becomes one phase equation

    d = atan2(num(s), den(s)),   0 < d < pi/2,

whose right side falls (or rises more slowly than d) as d grows, so
d - atan2(...) is increasing and changes sign exactly once on [0, pi/2]:

* constant family, s0 = p*pi/2: num = beta, den = s, from
  beta*cos(s) = s*sin(s) (even p, cosine profile) and
  s*cos(s) + beta*sin(s) = 0 (odd p, sine profile);
* pressure-carrying family, s0 = (p+1)*pi/2: num = s, den = coef(s) with
  coef = (mu^2 + s^2)/beta + hyp, hyp = mu*tanh(mu) for even p and
  mu/tanh(mu) for odd p, from s*sin(s) + coef*cos(s) = 0 (even) and
  s*cos(s) = coef*sin(s) (odd); on the no-slip wall coef = hyp.

The vertical parity of the profile is that of p.  atan2 covers p = 0
(s0 = 0) and the no-slip wall without special cases, and solving for d to a
width relative to s keeps full relative precision when the root sits next to
either end of its interval (tiny or huge beta, huge mu).  An Illinois
regula falsi on d needs about five atan2 evaluations per root.

Which rungs exist is one rule, `Friction.first_p`: no-slip constant-pressure
modes start at p = 1, and frictionless walls carry no pressure-carrying ones.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

from .core import Friction, PressureFamily, WaveIndex, _numbers
from .errors import InvalidCase, InvalidIndex, NoRootInBracket, NonConvergence

HALF_PI = 0.5 * math.pi

REL_TOL = 4.0 * sys.float_info.epsilon
MAX_ITER = 200


@dataclass(frozen=True)
class EigenvalueBracket:
    """[lo, hi] around one eigenvalue; open, except in the closed-form
    limits, where the eigenvalue is one end."""

    lo: float
    hi: float
    family: PressureFamily

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise InvalidCase(f"empty bracket [{self.lo}, {self.hi}]")


def s_interval(p: int, family: PressureFamily) -> tuple[float, float]:
    """Open s-interval of the p-th root of one family; lambda = mu^2 + s^2."""
    if family is PressureFamily.CONSTANT:
        return (HALF_PI * p, HALF_PI * (p + 1))
    return (HALF_PI * (1 + p), HALF_PI * (2 + p))


def bracket_for(index: WaveIndex) -> EigenvalueBracket:
    """Interval holding the eigenvalue strictly inside at finite friction;
    in the closed-form limits the eigenvalue is its lower end.  Ends that
    round to one finite float (huge p) widen to its two neighbours, which
    hold the eigenvalue, that same float, strictly inside.  Raises
    InvalidIndex where the ends leave double precision."""
    try:
        s_lo, s_hi = s_interval(index.p, index.family)
        lo, hi = index.mu2 + s_lo ** 2, index.mu2 + s_hi ** 2
    except OverflowError:
        lo = math.inf
    if not math.isfinite(lo):
        raise InvalidIndex(f"the bracket of {index} leaves double precision")
    if lo == hi:
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    return EigenvalueBracket(lo, hi, index.family)


def _phase_root(s0: float, num, den) -> float:
    """s = s0 + d with d = atan2(num(s), den(s)) on [0, pi/2].

    Illinois regula falsi on the bracket [a, b] of d (Dowell & Jarratt,
    BIT 11, 1971): an end kept twice in a row has its stored f halved, so
    both ends close in, and a candidate not strictly inside is replaced by
    the midpoint.  Stopped at a width relative to s.
    """
    def h(d: float) -> float:
        s = s0 + d
        return d - math.atan2(num(s), den(s))

    a, b = 0.0, HALF_PI
    fa, fb = h(a), h(b)
    if fa == 0.0:   # num/den underflows: d is below s0's last bit
        return s0
    if not fa < 0.0 <= fb:   # h(pi/2) rounds to 0 at huge s
        raise NoRootInBracket(f"no sign change on [{s0}, {s0 + b}]")
    side = 0   # the end the last step replaced: -1 for a, +1 for b
    for _ in range(MAX_ITER):
        mid = 0.5 * (a + b)
        if b - a <= REL_TOL * (s0 + mid):
            return s0 + mid
        x = a - fa * (b - a) / (fb - fa)
        x = x if a < x < b else mid
        fx = h(x)
        if fx == 0.0:
            return s0 + x
        if fx < 0.0:
            fb *= 0.5 if side < 0 else 1.0
            a, fa, side = x, fx, -1
        else:
            fa *= 0.5 if side > 0 else 1.0
            b, fb, side = x, fx, 1
    raise NonConvergence(
        f"root not resolved in {MAX_ITER} iterations; "
        f"bracket [{s0 + a}, {s0 + b}]")


@functools.lru_cache(maxsize=1024)
def _const_root(p: int, beta: float) -> float:
    """s of the constant-pressure family at finite friction.

    The equation involves only (p, beta), so every lattice shell (m, n) of
    one rung shares this root.
    """
    return _phase_root(HALF_PI * p, lambda s: beta, lambda s: s)


@dataclass(frozen=True)
class SolveResult:
    value: float
    s: float
    branch: str            # "even" / "odd" / "closed-form"
    index: WaveIndex
    friction: Friction

    @functools.cached_property
    def bracket(self) -> EigenvalueBracket:
        """The bracket of the rung p - first_p: open except on the
        "closed-form" branch, where `value` is its lower end (frictionless)
        or upper end (no-slip, rung p - 1's) unless `bracket_for` widened
        the rung.  Built on first access, since the spectrum reads only
        `value`."""
        index, first = self.index, self.friction.first_p(self.index.family)
        return bracket_for(WaveIndex(index.m, index.n, index.p - first, index.family)
                           if first else index)


def solve_details(index: WaveIndex, friction: Friction) -> SolveResult:
    """Eigenvalue plus bracket/branch metadata for any valid combination;
    raises InvalidIndex where mu^2 + s^2 leaves double precision."""
    fam, p = index.family, index.p
    first = friction.first_p(fam)
    if first is None:
        raise InvalidCase("the frictionless wall admits only constant-pressure modes")
    if p < first:
        raise InvalidIndex("no-slip constant-pressure modes require p >= 1")
    branch = "even" if p % 2 == 0 else "odd"
    try:
        if fam is PressureFamily.CONSTANT and not friction.is_finite:
            s, branch = HALF_PI * p, "closed-form"
        elif fam is PressureFamily.CONSTANT:
            s = _const_root(p, friction.beta)
        else:
            # pressure-carrying family; the no-slip wall (beta = inf) drops
            # the 1/beta term, which is inf/inf = nan once s^2 overflows
            mu2, mu, beta = index.mu2, index.mu, friction.beta
            hyp = mu * math.tanh(mu) if p % 2 == 0 else mu / math.tanh(mu)
            s = _phase_root(HALF_PI * (p + 1), lambda s: s,
                            (lambda s: (mu2 + s * s) / beta + hyp) if friction.is_finite
                            else lambda s: hyp)
        value = index.mu2 + s * s
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise InvalidIndex(f"the eigenvalue of {index} leaves double precision")
    return SolveResult(value, s, branch, index, friction)


def eigenvalue(index: WaveIndex, friction: Friction) -> float:
    return solve_details(index, friction).value


def beta_sweep(index: WaveIndex, betas) -> list[float]:
    """Eigenvalues along a strictly ascending list of finite frictions."""
    betas = _numbers("betas", betas)
    if not all(b2 > b1 for b1, b2 in zip(betas, betas[1:])):
        raise InvalidCase("betas must be strictly ascending")
    return [eigenvalue(index, Friction.finite(b)) for b in betas]
