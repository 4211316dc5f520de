"""Exception types shared across the package."""


class SlipchanError(Exception):
    """Base class for all package-specific errors."""


class NoRootInBracket(SlipchanError):
    """An eigenvalue's phase equation did not change sign on [0, pi/2].

    In exact arithmetic the phase d - atan2(num, den) is negative at d = 0
    and positive at d = pi/2 for every valid index and friction, but where
    its terms round, valid input can still raise it as a failed solve.
    """


class InvalidIndex(SlipchanError):
    """Mode index violates a structural precondition (e.g. p=0 Dirichlet)."""


class InvalidCase(SlipchanError):
    """Index/friction/family combination does not correspond to a mode family."""


class ZeroMode(SlipchanError):
    """The planar coefficients annihilate the eigenfunction."""


class InvalidCount(SlipchanError):
    """A requested enumeration length is not positive."""


class StabilityViolation(SlipchanError):
    """Explicit time step too large for the stiffest retained mode."""


class BlowupDetected(SlipchanError):
    """Galerkin coefficient norm exceeded the blow-up guard."""


class HypothesisViolated(SlipchanError):
    """Closed-form solution requested outside its coefficient hypotheses."""


class ResonanceImpossible(SlipchanError):
    """A Neumann profile denominator vanished; unreachable for valid input."""


class NonConvergence(SlipchanError):
    """The eigenvalue oracle's values did not converge with resolution."""
