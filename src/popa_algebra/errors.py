"""Exception types shared across the package."""


class PopaAlgebraError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(PopaAlgebraError):
    """Operands live in different algebras or have incompatible sizes."""


class LogBranchViolation(PopaAlgebraError):
    """The principal logarithm is undefined: spectrum meets (-inf, 0]."""


class NotInGroup(PopaAlgebraError):
    """A point lies outside the Popa group (its image is not invertible)."""


class UnitNotInGroup(PopaAlgebraError):
    """The algebra unit is not in the group, so the linear offset is undefined."""


class DomainExhausted(PopaAlgebraError):
    """Rejection sampling discarded nearly every draw."""


class ConstraintViolated(PopaAlgebraError):
    """A coefficient matrix fails the row-coupling constraint."""


class UnsupportedDimension(PopaAlgebraError):
    """The operation only applies at a specific dimension."""


class NotDifferentiable(PopaAlgebraError):
    """The solution map has no derivative at the origin."""


class NotOmegaHomogeneous(PopaAlgebraError):
    """The closed-form tilt inverse is only valid for power-compatible derivatives."""


class NoConvergence(PopaAlgebraError):
    """An iteration hit its step limit or started diverging."""


class NotInRange(PopaAlgebraError):
    """A requested value has no preimage under the solution map."""


class InvalidTriple(PopaAlgebraError):
    """A kernel/group/section triple fails its defining conditions."""


class NotOrthogonalIdempotents(PopaAlgebraError):
    """Supplied elements are not mutually orthogonal idempotents."""
