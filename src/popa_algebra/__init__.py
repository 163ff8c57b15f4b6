"""Solution families of the composition law S(x + S(x)y) = S(x)S(y) on
concrete commutative unital algebras, with the induced group structure,
structure/classification theory, exponential tilting, and a CLI.

Each public name is imported from its module on first use (PEP 562), so
that ``import popa_algebra`` loads no module, and numpy not before a name
that needs it.
"""

import importlib

#: module -> the public names it exports here
_EXPORTS = {
    "algebra": ("AlgebraDescriptor", "AlgebraKind", "Element", "complex_plane",
                "grid_interval", "hadamard"),
    "errors": ("ConstraintViolated", "DimensionMismatch", "DomainExhausted",
               "InvalidTriple", "LogBranchViolation", "NoConvergence",
               "NotDifferentiable", "NotInGroup", "NotInRange",
               "NotOmegaHomogeneous", "NotOrthogonalIdempotents",
               "PopaAlgebraError", "UnitNotInGroup", "UnsupportedDimension"),
    "solutions": ("CanonicalSolution", "ComplexReImSolution",
                  "DegenerateExpSolution", "DegenerateForm",
                  "GoldieResidualReport", "GsSolution", "IdempotentSolution",
                  "LinearCandidate", "LinearSolution", "PartitionSolution",
                  "PartitionSpec", "gamma", "rho_of", "solution_from_json",
                  "verify_gs"),
    "roots": ("StSolution", "st_roots", "xi_root"),
    "special": ("WjSolutionOracle", "WjTriple", "wj_extract"),
    "structure": ("SigmaMatrix", "StructureReport", "TwoDClass",
                  "TwoDClassification", "analyse_sigma"),
    "tilting": ("Direction", "TiltResult", "UnboundednessVerdict", "radiality_check",
                "tilt_T", "tilt_inverse", "tilt_solve_fixed_point",
                "unboundedness_direction"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name or a submodule, imported now and kept in the globals."""
    if name in _EXPORTS:   # importing a submodule binds it here
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_HOME[name]}", __name__),
                                      name)
    return value


def __dir__():
    return __all__
