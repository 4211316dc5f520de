"""Root solvers for the transcendental eigenvalue families.

Each eigenvalue is lambda = mu^2 + s^2 with s confined to an open interval of
width pi/2 whose endpoints are never eigenvalues, so bisection on a slightly
shrunk bracket is guaranteed to work.  Within each bracket exactly one of the
two vertical-parity branch equations changes sign; the solver picks that
branch empirically instead of trusting parity labels (the even/cosine profile
pairs with beta*cos(s) - s*sin(s), the odd/sine profile with
s*cos(s) + beta*sin(s); the analogous pairing holds for the pressure-carrying
family, with tanh for even and coth for odd vertical parity).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

from .core import Friction, PressureFamily, WaveIndex
from .errors import InvalidCase, InvalidIndex, NoRootInBracket, NonConvergence

HALF_PI = 0.5 * math.pi

BRACKET_SHRINK = 1e-9   # relative shrink keeping tan/cot poles out of play
REL_TOL = 4.0 * sys.float_info.epsilon
MAX_ITER = 200
TANH_SATURATION = 30.0  # tanh/coth are 1.0 to machine precision beyond this


@dataclass(frozen=True)
class EigenvalueBracket:
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
    """Open interval guaranteed to contain the eigenvalue, endpoints excluded."""
    s_lo, s_hi = s_interval(index.p, index.family)
    return EigenvalueBracket(index.mu2 + s_lo ** 2, index.mu2 + s_hi ** 2,
                             index.family)


def saturated_tanh(mu: float) -> float:
    return 1.0 if mu > TANH_SATURATION else math.tanh(mu)


def saturated_coth(mu: float) -> float:
    if mu > TANH_SATURATION:
        return 1.0
    return math.cosh(mu) / math.sinh(mu)


# Pole-free branch residuals, one per vertical parity. ----------------------

def _const_branches(beta: float):
    def even(s: float) -> float:      # cosine profile
        return beta * math.cos(s) - s * math.sin(s)

    def odd(s: float) -> float:       # sine profile
        return s * math.cos(s) + beta * math.sin(s)

    return even, odd


def _nonconst_branches(mu2: int, beta: float | None):
    # beta None means the no-slip limit: the 1/beta term drops out.
    mu = math.sqrt(mu2)
    t = mu * saturated_tanh(mu)
    c = mu * saturated_coth(mu)

    def even(s: float) -> float:
        coef = t if beta is None else (mu2 + s * s) / beta + t
        return s * math.sin(s) + coef * math.cos(s)

    def odd(s: float) -> float:
        coef = c if beta is None else (mu2 + s * s) / beta + c
        return s * math.cos(s) - coef * math.sin(s)

    return even, odd


def _hybrid_root(f, a: float, b: float) -> float:
    """Safeguarded bisection/secant on a sign-changing bracket."""
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if math.copysign(1.0, fa) == math.copysign(1.0, fb):
        raise NoRootInBracket(f"no sign change on [{a}, {b}]")
    for _ in range(MAX_ITER):
        mid = 0.5 * (a + b)
        if b - a <= REL_TOL * max(1.0, abs(mid)):
            return mid
        # secant candidate from the bracket endpoints, used when it lands
        # comfortably inside; otherwise plain bisection keeps the guarantee
        denom = fb - fa
        x = mid
        if denom != 0.0:
            cand = a - fa * (b - a) / denom
            gap = 0.01 * (b - a)
            if a + gap < cand < b - gap:
                x = cand
        fx = f(x)
        if fx == 0.0:
            return x
        if math.copysign(1.0, fx) == math.copysign(1.0, fa):
            a, fa = x, fx
        else:
            b, fb = x, fx
    raise NonConvergence(
        f"root not resolved in {MAX_ITER} iterations; bracket [{a}, {b}]")


def _solve_branchpair(even, odd, s_lo: float, s_hi: float):
    eps = BRACKET_SHRINK * (s_hi - s_lo)
    a, b = s_lo + eps, s_hi - eps
    picks = []
    for name, f in (("even", even), ("odd", odd)):
        fa, fb = f(a), f(b)
        if fa == 0.0 or fb == 0.0 or math.copysign(1.0, fa) != math.copysign(1.0, fb):
            picks.append((name, f))
    if len(picks) != 1:
        raise NoRootInBracket(
            f"expected exactly one sign-changing branch on ({s_lo}, {s_hi}), "
            f"found {len(picks)}"
        )
    name, f = picks[0]
    return name, _hybrid_root(f, a, b)


@functools.lru_cache(maxsize=1024)
def _const_root(p: int, beta: float) -> tuple[str, float]:
    """(branch, s) of the constant-pressure family at finite friction.

    The branch equations involve only (p, beta), so every lattice shell
    (m, n) of one rung shares this root.
    """
    even, odd = _const_branches(beta)
    return _solve_branchpair(even, odd, *s_interval(p, PressureFamily.CONSTANT))


@dataclass(frozen=True)
class SolveResult:
    value: float
    s: float
    branch: str            # "even" / "odd" / "closed-form"
    bracket: EigenvalueBracket
    index: WaveIndex
    friction: Friction


def _require(cond: bool, err, msg: str) -> None:
    if not cond:
        raise err(msg)


def solve_details(index: WaveIndex, friction: Friction) -> SolveResult:
    """Eigenvalue plus bracket/branch metadata for any valid combination."""
    fam = index.family
    if fam is PressureFamily.CONSTANT:
        if friction.is_finite:
            brk = bracket_for(index)
            name, s = _const_root(index.p, friction.beta)
            return SolveResult(index.mu2 + s * s, s, name, brk, index, friction)
        if friction.is_navier:
            s = HALF_PI * index.p
            return SolveResult(index.mu2 + s * s, s, "closed-form",
                               bracket_for(index), index, friction)
        # no-slip limit: the constant-pressure ladder starts at p = 1
        _require(index.p >= 1, InvalidIndex,
                 "no-slip constant-pressure modes require p >= 1")
        s = HALF_PI * index.p
        low_brk = bracket_for(WaveIndex(index.m, index.n, index.p - 1, fam))
        return SolveResult(index.mu2 + s * s, s, "closed-form", low_brk,
                           index, friction)
    # pressure-carrying family
    _require(not friction.is_navier, InvalidCase,
             "the frictionless wall admits only constant-pressure modes")
    brk = bracket_for(index)
    beta = friction.beta if friction.is_finite else None
    even, odd = _nonconst_branches(index.mu2, beta)
    name, s = _solve_branchpair(even, odd, *s_interval(index.p, fam))
    return SolveResult(index.mu2 + s * s, s, name, brk, index, friction)


def eigenvalue(index: WaveIndex, friction: Friction) -> float:
    return solve_details(index, friction).value


def beta_sweep(index: WaveIndex, betas) -> list[float]:
    """Eigenvalues along a strictly ascending list of finite frictions."""
    betas = [float(b) for b in betas]
    _require(all(b2 > b1 for b1, b2 in zip(betas, betas[1:])), InvalidCase,
             "betas must be strictly ascending")
    return [eigenvalue(index, Friction.finite(b)) for b in betas]
