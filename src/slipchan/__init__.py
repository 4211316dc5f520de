"""Stokes eigenmodes and truncated flow evolution on the periodic slip channel.

The package computes the full spectrum of the Stokes operator on the
doubly periodic channel with slip-with-friction walls, builds the
eigenfields explicitly, projects the quadratic convection term onto the
divergence-free wall-parallel subspace, and integrates the resulting
truncated evolution.  Everything is driven by three inputs: a wall
friction (frictionless, finite, or no-slip), a wavenumber triple
(m, n, p), and the pressure family of the mode.
"""

import importlib.util
import sys

from .core import (
    EigenMode,
    Friction,
    FrictionKind,
    PlanarCoeffs,
    PressureFamily,
    WaveIndex,
    ZProfile,
)
from .eigensolver import (
    EigenvalueBracket,
    SolveResult,
    beta_sweep,
    bracket_for,
    eigenvalue,
    solve_details,
)
from .errors import (
    BlowupDetected,
    HypothesisViolated,
    InvalidCase,
    InvalidCount,
    InvalidIndex,
    NoRootInBracket,
    SlipchanError,
    StabilityViolation,
    ZeroMode,
)
from .modes import (
    SpectrumEntry,
    build_mode,
    emit_table,
    enumerate_spectrum,
    multiplicity_of_value,
)


def _lazy(name: str):
    """Register submodule `name` in sys.modules unexecuted: it runs on its
    first attribute access.  The root solve and the spectrum need only
    `math`, so `eigenvalue`, `table` and `figure` never load numpy."""
    fullname = f"{__name__}.{name}"
    if fullname in sys.modules:  # a reload of the package keeps its layers
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


fields = _lazy("fields")
helmholtz = _lazy("helmholtz")
galerkin = _lazy("galerkin")
verify = _lazy("verify")

# Public names defined by the lazy numpy layers, resolved on first use.
_LAZY_NAMES = {
    "PlanarField": fields,
    "ScalarField": fields,
    "GalerkinState": galerkin,
    "GalerkinSystem": galerkin,
    "SolutionFamily": galerkin,
    "assemble": galerkin,
    "energy_report": galerkin,
    "explicit_solution": galerkin,
    "integrate": galerkin,
    "load_manifest": galerkin,
    "run_simulation": galerkin,
    "convect": helmholtz,
    "leray_project": helmholtz,
    "triple_product": helmholtz,
}


def __getattr__(name: str):
    module = _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY_NAMES))


__version__ = "0.1.0"

__all__ = [
    "BlowupDetected",
    "EigenMode",
    "EigenvalueBracket",
    "Friction",
    "FrictionKind",
    "GalerkinState",
    "GalerkinSystem",
    "HypothesisViolated",
    "InvalidCase",
    "InvalidCount",
    "InvalidIndex",
    "NoRootInBracket",
    "PlanarCoeffs",
    "PlanarField",
    "PressureFamily",
    "ScalarField",
    "SlipchanError",
    "SolutionFamily",
    "SolveResult",
    "SpectrumEntry",
    "StabilityViolation",
    "WaveIndex",
    "ZProfile",
    "ZeroMode",
    "assemble",
    "beta_sweep",
    "bracket_for",
    "build_mode",
    "convect",
    "emit_table",
    "energy_report",
    "enumerate_spectrum",
    "eigenvalue",
    "explicit_solution",
    "integrate",
    "leray_project",
    "load_manifest",
    "multiplicity_of_value",
    "run_simulation",
    "solve_details",
    "triple_product",
    "__version__",
]
