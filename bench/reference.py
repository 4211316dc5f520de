"""Independent reference eigenvalues for the benchmark's output checks.

The roots come from the branch equations of the slip channel, solved with
``scipy.optimize.brentq``; the multiplicities come from a direct count of
lattice points.  Nothing here imports slipchan, so a wrong number in the
program cannot also be wrong here by shared code.

Eigenvalues are lambda = mu^2 + s^2 with mu^2 = m^2 + n^2.

* Constant pressure, finite beta: s lies in (p pi/2, (p+1) pi/2) and is a
  root of  beta cos s - s sin s  (cosine profile) or  s cos s + beta sin s
  (sine profile).  Frictionless walls give s = p pi/2; no-slip walls give
  s = p pi/2 with p >= 1.
* Non-constant pressure (mu > 0): s lies in ((p+1) pi/2, (p+2) pi/2) and is
  a root of  s sin s + (g + mu tanh mu) cos s  or
  s cos s - (g + mu coth mu) sin s,  with g = (mu^2 + s^2)/beta, and g = 0
  on no-slip walls.  Frictionless walls have no such modes.

Multiplicity of a mu^2 shell (the README's convention): each lattice point
(m, n) of Z^2 with m^2 + n^2 = mu^2 counts 2 when it lies on an axis and 1
otherwise, so the zero shell counts 2, (k, 0) shells 8, and each ordered
positive pair (m, n) 4.
"""

from __future__ import annotations

import math

from scipy.optimize import brentq

HALF_PI = 0.5 * math.pi
# the roots sit strictly inside their intervals; evaluating the branch
# functions this far inside keeps tan/cot-type endpoints out of play
END_SHRINK = 1e-13


def _root(functions, lo: float, hi: float) -> float:
    """The root of whichever branch function changes sign on (lo, hi)."""
    eps = END_SHRINK * (hi - lo)
    a, b = lo + eps, hi - eps
    for f in functions:
        fa, fb = f(a), f(b)
        if fa == 0.0:
            return a
        if fb == 0.0:
            return b
        if (fa < 0.0) != (fb < 0.0):
            return brentq(f, a, b, xtol=1e-300, rtol=4 * 2.220446049250313e-16,
                          maxiter=400)
    raise ValueError(f"no branch changes sign on ({lo}, {hi})")


def const_s(beta: float, p: int) -> float:
    """s of the constant-pressure mode of vertical order p at finite beta."""
    return _root(
        (lambda s: beta * math.cos(s) - s * math.sin(s),
         lambda s: s * math.cos(s) + beta * math.sin(s)),
        HALF_PI * p, HALF_PI * (p + 1),
    )


def nonconst_s(mu2: int, beta: float | None, p: int) -> float:
    """s of the pressure-carrying mode; beta None means no-slip walls."""
    mu = math.sqrt(mu2)
    th = math.tanh(mu)
    t, c = mu * th, mu / th

    def g(s: float) -> float:
        return 0.0 if beta is None else (mu2 + s * s) / beta

    return _root(
        (lambda s: s * math.sin(s) + (g(s) + t) * math.cos(s),
         lambda s: s * math.cos(s) - (g(s) + c) * math.sin(s)),
        HALF_PI * (p + 1), HALF_PI * (p + 2),
    )


def shell_multiplicity(mu2: int) -> int:
    """Multiplicity of a mu^2 shell; 0 when mu2 is not a sum of two squares."""
    total = 0
    r = math.isqrt(mu2)
    for m in range(-r, r + 1):
        rest = mu2 - m * m
        n = math.isqrt(rest)
        if n * n != rest:
            continue
        for nn in {n, -n}:
            total += 2 if (m == 0 or nn == 0) else 1
    return total


def _candidates(friction, cutoff: float):
    """(value, multiplicity) of every mode whose interval floor <= cutoff.

    `friction` is "navier", "dirichlet" or a finite beta (float).
    """
    out = []
    shells = [(mu2, shell_multiplicity(mu2)) for mu2 in range(int(cutoff) + 1)]
    shells = [(mu2, mult) for mu2, mult in shells if mult]
    finite = not isinstance(friction, str)
    # constant-pressure family
    p = 1 if friction == "dirichlet" else 0
    while (HALF_PI * p) ** 2 <= cutoff:
        s = const_s(friction, p) if finite else HALF_PI * p
        for mu2, mult in shells:
            if mu2 + (HALF_PI * p) ** 2 > cutoff:
                break
            out.append((mu2 + s * s, mult))
        p += 1
    # pressure-carrying family
    if friction != "navier":
        beta = friction if finite else None
        for mu2, mult in shells:
            if mu2 == 0:
                continue
            p = 0
            while mu2 + (HALF_PI * (p + 1)) ** 2 <= cutoff:
                s = nonconst_s(mu2, beta, p)
                out.append((mu2 + s * s, mult))
                p += 1
    return out


def staircase(friction, count: int) -> list[float]:
    """First `count` eigenvalues of the merged spectrum, each repeated by
    its multiplicity (frictionless walls: constant-pressure family only)."""
    cutoff = 16.0
    while True:
        values = []
        for value, mult in sorted(_candidates(friction, cutoff)):
            values.extend([value] * mult)
        # every mode left out has a floor above the cutoff, hence a value
        # above it too: the prefix is final once it ends below the cutoff
        if len(values) >= count and values[count - 1] <= cutoff:
            return values[:count]
        cutoff *= 2.0


def galerkin_basis(beta: float, size: int) -> list[tuple[int, int, int]]:
    """The `size` lowest constant-pressure indices with m, n >= 1, p <= 1.

    Ties (m, n) / (n, m) share an eigenvalue; they are ordered by (m, n, p).
    """
    s = [const_s(beta, 0), const_s(beta, 1)]
    span = math.isqrt(size) + 8
    ranked = sorted(
        (m * m + n * n + s[p] ** 2, m, n, p)
        for m in range(1, span) for n in range(1, span) for p in (0, 1)
    )
    chosen = ranked[:size]
    # every index left out must lie above the last one kept
    if chosen[-1][0] >= 1 + span * span:
        raise ValueError("basis search range too small")
    return [(m, n, p) for _, m, n, p in chosen]


def const_eigenvalue(beta: float, m: int, n: int, p: int) -> float:
    return m * m + n * n + const_s(beta, p) ** 2
