"""Concrete commutative unital real Banach algebras.

Three kinds are supported: R^d with the componentwise (Hadamard) product,
the complex numbers viewed as R^2, and a sampled-grid stand-in for C[0,1]
(same ring operations as the Hadamard case, grid kept for reporting).

All elements are immutable; every operation is a pure function, so values
may be shared freely across threads.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, LogBranchViolation, NotInvertible

#: spectral points with modulus below this count as zero for invertibility
INVERTIBILITY_EPS = 1e-12

#: switch point between the direct formula and the truncated Taylor series
SERIES_THRESHOLD = 1e-5

_SERIES_TERMS = 8

#: branch trigger for the "value t where e^z = 1" convention
UNITY_EPS = 1e-12


class AlgebraKind(str, Enum):
    HADAMARD_RD = "HadamardRd"
    COMPLEX_AS_R2 = "ComplexAsR2"
    GRID_C_INTERVAL = "GridCInterval"


@dataclass(frozen=True)
class AlgebraDescriptor:
    """Which algebra an element lives in.

    ``grid`` is only meaningful for ``GridCInterval``: strictly increasing
    sample abscissae in [0, 1], one per coordinate.
    """

    kind: AlgebraKind
    dim: int
    grid: Optional[tuple] = None

    def __post_init__(self):
        kind = AlgebraKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if self.dim < 1:
            raise DimensionMismatch(f"dim must be >= 1, got {self.dim}")
        if kind is AlgebraKind.COMPLEX_AS_R2 and self.dim != 2:
            raise DimensionMismatch("ComplexAsR2 requires dim == 2")
        if kind is AlgebraKind.GRID_C_INTERVAL:
            if self.grid is None:
                raise DimensionMismatch("GridCInterval requires a grid")
            grid = tuple(float(t) for t in self.grid)
            if len(grid) != self.dim:
                raise DimensionMismatch("grid length must equal dim")
            if any(t < 0.0 or t > 1.0 for t in grid):
                raise DimensionMismatch("grid abscissae must lie in [0, 1]")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise DimensionMismatch("grid must be strictly increasing")
            object.__setattr__(self, "grid", grid)
        elif self.grid is not None:
            object.__setattr__(self, "grid", None)

    @property
    def componentwise(self) -> bool:
        """True when multiplication acts coordinate by coordinate."""
        return self.kind is not AlgebraKind.COMPLEX_AS_R2

    def element(self, coords) -> "Element":
        return Element(np.asarray(coords, dtype=float), self)

    def unit(self) -> "Element":
        if self.componentwise:
            return self.element(np.ones(self.dim))
        return self.element([1.0, 0.0])

    def zero(self) -> "Element":
        return self.element(np.zeros(self.dim))

    def to_json(self) -> dict:
        out = {"kind": self.kind.value, "dim": self.dim}
        if self.grid is not None:
            out["grid"] = list(self.grid)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "AlgebraDescriptor":
        grid = data.get("grid")
        return cls(AlgebraKind(data["kind"]), int(data["dim"]),
                   tuple(grid) if grid is not None else None)


def hadamard(dim: int) -> AlgebraDescriptor:
    return AlgebraDescriptor(AlgebraKind.HADAMARD_RD, dim)


def complex_plane() -> AlgebraDescriptor:
    return AlgebraDescriptor(AlgebraKind.COMPLEX_AS_R2, 2)


def grid_interval(grid: Sequence[float]) -> AlgebraDescriptor:
    grid = tuple(float(t) for t in grid)
    return AlgebraDescriptor(AlgebraKind.GRID_C_INTERVAL, len(grid), grid)


@dataclass(frozen=True)
class Spectrum:
    """Multiset of spectral points, as complex numbers."""

    points: tuple

    def moduli(self) -> np.ndarray:
        return np.array([abs(p) for p in self.points])

    def min_modulus(self) -> float:
        return float(min(abs(p) for p in self.points))


@dataclass(frozen=True)
class Element:
    """A point of a concrete algebra: coordinate vector plus descriptor."""

    coords: np.ndarray
    algebra: AlgebraDescriptor

    def __post_init__(self):
        coords = np.array(self.coords, dtype=float, copy=True)
        if coords.shape != (self.algebra.dim,):
            raise DimensionMismatch(
                f"coords shape {coords.shape} does not match dim {self.algebra.dim}")
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)

    # -- ring structure -------------------------------------------------

    def _check_same(self, other: "Element"):
        if self.algebra != other.algebra:
            raise DimensionMismatch("operands belong to different algebras")

    def __add__(self, other: "Element") -> "Element":
        self._check_same(other)
        return Element(self.coords + other.coords, self.algebra)

    def __sub__(self, other: "Element") -> "Element":
        self._check_same(other)
        return Element(self.coords - other.coords, self.algebra)

    def __neg__(self) -> "Element":
        return Element(-self.coords, self.algebra)

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check_same(other)
            if self.algebra.componentwise:
                return Element(self.coords * other.coords, self.algebra)
            a, b = self.coords, other.coords
            return Element([a[0] * b[0] - a[1] * b[1],
                            a[0] * b[1] + a[1] * b[0]], self.algebra)
        return self.scale(other)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def scale(self, scalar: float) -> "Element":
        return Element(float(scalar) * self.coords, self.algebra)

    # -- norm and spectrum ----------------------------------------------

    def norm(self) -> float:
        """Max-norm on coordinates (modulus for the complex kind).

        Submultiplicative with norm(unit) == 1, as the Banach-algebra
        axioms require.
        """
        if self.algebra.componentwise:
            return float(np.max(np.abs(self.coords))) if self.algebra.dim else 0.0
        return float(math.hypot(self.coords[0], self.coords[1]))

    def spectrum(self) -> Spectrum:
        if self.algebra.componentwise:
            return Spectrum(tuple(complex(c) for c in self.coords))
        z = complex(self.coords[0], self.coords[1])
        return Spectrum((z, z.conjugate()))

    def as_complex(self) -> complex:
        if self.algebra.componentwise:
            raise DimensionMismatch("not a complex-kind element")
        return complex(self.coords[0], self.coords[1])

    def is_invertible(self, eps: float = INVERTIBILITY_EPS) -> bool:
        return self.spectrum().min_modulus() > eps

    def invert(self) -> "Element":
        if not self.is_invertible():
            raise NotInvertible(f"spectral point within {INVERTIBILITY_EPS} of 0")
        if self.algebra.componentwise:
            return Element(1.0 / self.coords, self.algebra)
        z = 1.0 / self.as_complex()
        return Element([z.real, z.imag], self.algebra)

    # -- functional calculus ---------------------------------------------

    def apply_scalar(self, fn) -> "Element":
        """Evaluate an entire/holomorphic scalar map on every spectral point."""
        if self.algebra.componentwise:
            return Element([fn(float(c)) for c in self.coords], self.algebra)
        w = fn(self.as_complex())
        w = complex(w)
        return Element([w.real, w.imag], self.algebra)

    def exp(self) -> "Element":
        if self.algebra.componentwise:
            return Element(np.exp(self.coords), self.algebra)
        w = cmath.exp(self.as_complex())
        return Element([w.real, w.imag], self.algebra)

    def log(self) -> "Element":
        """Principal logarithm; spectrum must avoid (-inf, 0]."""
        if self.algebra.componentwise:
            if np.any(self.coords <= 0.0):
                raise LogBranchViolation("spectral point on (-inf, 0]")
            return Element(np.log(self.coords), self.algebra)
        z = self.as_complex()
        if z.imag == 0.0 and z.real <= 0.0:
            raise LogBranchViolation("spectral point on (-inf, 0]")
        w = cmath.log(z)
        return Element([w.real, w.imag], self.algebra)

    def mu(self) -> "Element":
        """Tilting multiplier (e^z - 1)/z per spectral point, 1 at z = 0."""
        return self.apply_scalar(mu_scalar)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {"algebra": self.algebra.to_json(), "coords": list(map(float, self.coords))}

    @classmethod
    def from_json(cls, data: dict) -> "Element":
        return cls(np.asarray(data["coords"], dtype=float),
                   AlgebraDescriptor.from_json(data["algebra"]))

    def __repr__(self):
        return f"Element({list(self.coords)!r}, {self.algebra.kind.value})"


# ---------------------------------------------------------------------------
# scalar special functions (real or complex argument)
# ---------------------------------------------------------------------------

_FACTORIALS = [math.factorial(k) for k in range(_SERIES_TERMS + 2)]


def cexpm1(z: complex) -> complex:
    """e^z - 1 without cancellation for small z (complex argument)."""
    x, y = z.real, z.imag
    # expm1(x)cos(y) + (cos(y) - 1) + i e^x sin(y); cos(y)-1 = -2 sin^2(y/2)
    s = math.sin(0.5 * y)
    return complex(math.expm1(x) * math.cos(y) - 2.0 * s * s,
                   math.exp(x) * math.sin(y))


def expm1_any(z):
    return cexpm1(z) if isinstance(z, complex) else math.expm1(z)


def mu_scalar(z):
    """(e^z - 1)/z with the limiting value 1 at z = 0.

    Truncated Taylor series below SERIES_THRESHOLD avoids catastrophic
    cancellation in expm1(z)/z.
    """
    if abs(z) < SERIES_THRESHOLD:
        acc = 0.0
        for k in range(_SERIES_TERMS - 1, -1, -1):
            acc = acc * z + 1.0 / _FACTORIALS[k + 1]
        return acc
    return expm1_any(z) / z


def h_scalar(z):
    """(e^z - 1 - z)/z, i.e. mu(z) - 1, stable near 0."""
    if abs(z) < SERIES_THRESHOLD:
        acc = 0.0
        for k in range(_SERIES_TERMS, 0, -1):
            acc = acc * z + 1.0 / _FACTORIALS[k + 1]
        return acc * z
    return (expm1_any(z) - z) / z


def log1p_over_scalar(z):
    """log(1 + z)/z with the limiting value 1 at z = 0.

    Requires 1 + z off (-inf, 0]; the caller checks the branch condition.
    """
    if abs(z) < SERIES_THRESHOLD:
        acc = 0.0
        for k in range(_SERIES_TERMS - 1, -1, -1):
            acc = acc * (-z) + 1.0 / (k + 1.0)
        return acc
    if isinstance(z, complex):
        return cmath.log(1.0 + z) / z
    return math.log1p(z) / z


def exp_ratio_scalar(z, t: float):
    """(e^{tz} - 1)/(e^z - 1), with the value t wherever e^z = 1."""
    d = expm1_any(z)
    if abs(d) < UNITY_EPS:
        return t
    return expm1_any(t * z) / d


def growth_scalar(z, t: float):
    """(e^{tz} - 1)/z, with the limiting value t at z = 0."""
    return t * mu_scalar(t * z)
