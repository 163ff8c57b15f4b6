"""Concrete commutative unital real Banach algebras.

Three kinds are supported: R^d with the componentwise (Hadamard) product,
the complex numbers viewed as R^2, and a sampled-grid stand-in for C[0,1]
(same ring operations as the Hadamard case, grid kept for reporting).

All elements are immutable; every operation is a pure function, so values
may be shared freely across threads.  Scalar maps act through
``Element.apply_scalar``: the tilt's are ``mu_h_scalar``, ``log1p_over_scalar``
and ``path_scale_scalar``, written once over arrays of spectral points.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from . import _read
from .errors import DimensionMismatch

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


class _Frozen:
    """Base of the value types: each attribute is set once, in the constructor,
    through ``object.__setattr__`` or its slot's descriptor."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class AlgebraDescriptor(_Frozen):
    """Which algebra an element lives in.

    ``grid`` is only meaningful for ``GridCInterval``: strictly increasing
    sample abscissae in [0, 1], one per coordinate.  ``componentwise`` is
    True when multiplication acts coordinate by coordinate.
    """

    __slots__ = ("kind", "dim", "grid", "componentwise", "_unit")

    def __init__(self, kind: AlgebraKind, dim: int, grid: Optional[tuple] = None):
        kind = AlgebraKind(kind)
        if dim < 1:
            raise DimensionMismatch(f"dim must be >= 1, got {dim}")
        if kind is AlgebraKind.COMPLEX_AS_R2 and dim != 2:
            raise DimensionMismatch("ComplexAsR2 requires dim == 2")
        if kind is AlgebraKind.GRID_C_INTERVAL:
            if grid is None:
                raise DimensionMismatch("GridCInterval requires a grid")
            grid = tuple(float(t) for t in grid)
            if len(grid) != dim:
                raise DimensionMismatch("grid length must equal dim")
            if not all(0.0 <= t <= 1.0 for t in grid):
                raise DimensionMismatch("grid abscissae must lie in [0, 1]")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise DimensionMismatch("grid must be strictly increasing")
        else:
            grid = None
        for name, value in (("kind", kind), ("dim", dim), ("grid", grid),
                            ("componentwise", kind is not AlgebraKind.COMPLEX_AS_R2),
                            ("_unit", None)):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, AlgebraDescriptor):
            return NotImplemented
        return (self.kind, self.dim, self.grid) == (other.kind, other.dim, other.grid)

    def __hash__(self):
        return hash((self.kind, self.dim, self.grid))

    def __reduce__(self):   # copy and pickle through the constructor
        return AlgebraDescriptor, (self.kind, self.dim, self.grid)

    def __repr__(self):
        return f"AlgebraDescriptor({self.kind.value!r}, {self.dim}, {self.grid!r})"

    def mul(self, a: np.ndarray, b: np.ndarray, out=None, scratch=None) -> np.ndarray:
        """Product of coordinate arrays of shape (d,) or (d, rows).

        ``a`` broadcasts against ``b``, whose shape the product has;
        ``out`` may be ``a`` or ``b``.  The complex product keeps its two
        temporaries in ``scratch``, two length-rows arrays, when given.
        """
        if self.componentwise:
            return np.multiply(a, b, out=out)
        if b.ndim == 1 and out is None:   # one point: Python floats round as the ufuncs do
            (a0, a1), (b0, b1) = a.tolist(), b.tolist()
            return np.array([a0 * b0 - a1 * b1, a0 * b1 + a1 * b0])
        re, im = (None, None) if scratch is None else scratch
        re = np.subtract(np.multiply(a[0], b[0], out=re), np.multiply(a[1], b[1], out=im),
                         out=re)
        im = np.multiply(a[1], b[0], out=im)
        out = np.empty_like(b) if out is None else out
        out_im = out[1, ...]
        # a[0] b[1] + a[1] b[0], written over a[1] or b[1] only once both are read
        np.add(np.multiply(a[0], b[1], out=out_im), im, out=out_im)
        out[0] = re
        return out

    def norm(self, a: np.ndarray) -> float:
        """Max-norm of a (d,) coordinate array, modulus for the complex kind:
        submultiplicative with norm(unit) == 1, as a Banach algebra's is."""
        if self.componentwise:
            return float(np.abs(a).max())
        return math.hypot(a[0], a[1])

    def element(self, coords) -> "Element":
        return Element(np.asarray(coords, dtype=float), self)

    def unit(self) -> "Element":
        """The unit: one read-only Element per descriptor, built on first use."""
        if self._unit is None:
            coords = np.ones(self.dim) if self.componentwise else np.array([1.0, 0.0])
            object.__setattr__(self, "_unit", _adopt(coords, self))
        return self._unit

    def to_json(self) -> dict:
        out = {"kind": self.kind.value, "dim": self.dim}
        if self.grid is not None:
            out["grid"] = list(self.grid)
        return out

    @classmethod
    def from_json(cls, data: dict, where: str = "") -> "AlgebraDescriptor":
        return cls(AlgebraKind(_read.get(data, "kind", where, _read.choice, tuple(AlgebraKind))),
                   _read.get(data, "dim", where, _read.integer),
                   _read.get(data, "grid", where, _read.vector, default=None))


def hadamard(dim: int) -> AlgebraDescriptor:
    return AlgebraDescriptor(AlgebraKind.HADAMARD_RD, dim)


def complex_plane() -> AlgebraDescriptor:
    return AlgebraDescriptor(AlgebraKind.COMPLEX_AS_R2, 2)


def grid_interval(grid: Sequence[float]) -> AlgebraDescriptor:
    grid = tuple(float(t) for t in grid)
    return AlgebraDescriptor(AlgebraKind.GRID_C_INTERVAL, len(grid), grid)


class Element(_Frozen):
    """A point of a concrete algebra: coordinate vector plus descriptor.

    The constructor copies ``coords`` and makes the copy read-only.  Two
    elements are equal when they share the algebra and their coordinates
    are ``np.array_equal``; elements are not hashable.
    """

    __slots__ = ("coords", "algebra")

    def __init__(self, coords, algebra: AlgebraDescriptor):
        coords = np.array(coords, dtype=float, copy=True)
        if coords.shape != (algebra.dim,):
            raise DimensionMismatch(
                f"coords shape {coords.shape} does not match dim {algebra.dim}")
        coords.setflags(write=False)
        _set_coords(self, coords)
        _set_algebra(self, algebra)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra == other.algebra and np.array_equal(self.coords, other.coords)

    __hash__ = None

    def __reduce__(self):
        return Element, (self.coords, self.algebra)

    # -- ring structure -------------------------------------------------

    def _check_same(self, other: "Element"):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise DimensionMismatch("operands belong to different algebras")

    def __add__(self, other: "Element") -> "Element":
        self._check_same(other)
        return _adopt(self.coords + other.coords, self.algebra)

    def __sub__(self, other: "Element") -> "Element":
        self._check_same(other)
        return _adopt(self.coords - other.coords, self.algebra)

    def __neg__(self) -> "Element":
        return _adopt(-self.coords, self.algebra)

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check_same(other)
            return _adopt(self.algebra.mul(self.coords, other.coords), self.algebra)
        return self.scale(other)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def scale(self, scalar: float) -> "Element":
        return _adopt(float(scalar) * self.coords, self.algebra)

    # -- norm and spectrum ----------------------------------------------

    def norm(self) -> float:
        """Max-norm on coordinates (modulus for the complex kind)."""
        return self.algebra.norm(self.coords)

    def spectrum(self) -> np.ndarray:
        """Multiset of spectral points, as a complex array."""
        if self.algebra.componentwise:
            return self.coords.astype(complex)
        z = self.as_complex()
        return np.array([z, z.conjugate()])

    def as_complex(self) -> complex:
        if self.algebra.componentwise:
            raise DimensionMismatch("not a complex-kind element")
        return complex(self.coords[0], self.coords[1])

    def is_invertible(self) -> bool:
        return float(np.min(np.abs(self.spectrum()))) > INVERTIBILITY_EPS

    # -- functional calculus ---------------------------------------------

    def apply_scalar(self, fn):
        """Evaluate an entire/holomorphic scalar map on every spectral point.

        ``fn`` maps an array of spectral points elementwise: the real
        coordinates on a componentwise algebra, a one-element complex array
        on ComplexAsR2.  A map that returns a tuple of such arrays gives a
        tuple of Elements, one per array.  A writable float array of the
        coordinates' shape that owns its memory, as a ufunc returns, becomes
        the result's coordinates without a copy: ``fn`` must not keep it.
        """
        alg = self.algebra
        out = fn(self.coords if alg.componentwise else np.array([self.as_complex()]))
        if type(out) is tuple:
            return tuple(_from_map(o, alg) for o in out)
        return _from_map(out, alg)

    def in_log_branch(self) -> bool:
        """Whether the spectrum avoids (-inf, 0], the principal log's cut."""
        z = self.spectrum()
        return not np.any((z.imag == 0.0) & (z.real <= 0.0))

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {"algebra": self.algebra.to_json(), "coords": list(map(float, self.coords))}

    @classmethod
    def from_json(cls, data: dict, where: str = "") -> "Element":
        return cls(_read.get(data, "coords", where, _read.vector),
                   _read.get(data, "algebra", where, AlgebraDescriptor.from_json))

    def __repr__(self):
        return f"Element({list(self.coords)!r}, {self.algebra.kind.value})"


_new = object.__new__
_set_coords = Element.coords.__set__
_set_algebra = Element.algebra.__set__


def _adopt(coords: np.ndarray, algebra: AlgebraDescriptor) -> Element:
    """An Element over ``coords`` without a copy: a float array of shape
    (dim,) that the library has just made and that nothing else writes.
    It is made read-only, as the constructor's copy is."""
    coords.setflags(write=False)
    e = _new(Element)
    _set_coords(e, coords)
    _set_algebra(e, algebra)
    return e


def _from_map(out, algebra: AlgebraDescriptor) -> Element:
    """The Element of one output of a map that ``apply_scalar`` ran."""
    if not algebra.componentwise:
        w = complex(out[0])
        return _adopt(np.array([w.real, w.imag]), algebra)
    if (type(out) is np.ndarray and out.dtype == np.float64 and out.shape == (algebra.dim,)
            and out.base is None and out.flags.writeable):
        return _adopt(out, algebra)
    return Element(out, algebra)


# ---------------------------------------------------------------------------
# scalar special functions on arrays of spectral points.  The direct formula
# runs on every point and the Taylor series only on the points below
# SERIES_THRESHOLD, over whose direct value it is written; np.errstate
# silences the overflow or 0/0 there.  Overflow at a larger point gives inf.
# Values that share one exponential come from one map, as a tuple.
# ---------------------------------------------------------------------------

#: Taylor coefficients, highest power first: mu = sum z^k/(k+1)!,
#: h = z sum z^k/(k+2)!, log(1+z)/z = sum (-z)^k/(k+1)
_MU_SERIES = [1.0 / math.factorial(k + 1) for k in range(_SERIES_TERMS - 1, -1, -1)]
_H_SERIES = [1.0 / math.factorial(k + 1) for k in range(_SERIES_TERMS, 0, -1)]
_LOG1P_SERIES = [1.0 / (k + 1.0) for k in range(_SERIES_TERMS - 1, -1, -1)]


def _horner(coeffs, z) -> np.ndarray:
    """np.polyval(coeffs, z), on up to 16 real points in Python floats: its steps in its
    order, so its bits, without a numpy call per step (complex products round apart)."""
    if np.iscomplexobj(z) or z.size > 16:
        return np.polyval(coeffs, z)
    out = np.empty_like(z)
    for i, x in enumerate(z.tolist()):
        y = 0.0
        for c in coeffs:
            y = y * x + c
        out[i] = y
    return out


def _series_below_threshold(z, direct, series) -> list:
    """Each ``direct`` value, with its ``series(z)`` written over it where
    |z| < SERIES_THRESHOLD: one mask for all of them.

    Every map is elementwise, so each point gets the bits it would get alone.
    """
    out = [np.asarray(d) for d in direct]
    small = np.abs(z) < SERIES_THRESHOLD
    if np.count_nonzero(small):
        zs = z[small]
        for o, f in zip(out, series):
            o[small] = f(zs)
    return out


@np.errstate(all="ignore")
def mu_h_scalar(z) -> tuple:
    """The tilt's multiplier mu = (e^z - 1)/z, 1 at z = 0, and the solver's
    h = (e^z - 1 - z)/z = mu - 1, from one expm1.  Below SERIES_THRESHOLD the
    Taylor series gives mu its value 1 at z = 0, where it is 0/0, and replaces
    expm1(z) - z, which cancels (relative error 5e-5 at z = 1e-12)."""
    z = np.asarray(z)
    e = np.expm1(z)
    mu, h = _series_below_threshold(z, (e / z, (e - z) / z),
                                    (lambda w: _horner(_MU_SERIES, w),
                                     lambda w: _horner(_H_SERIES, w) * w))
    return mu, h


@np.errstate(all="ignore")
def log1p_over_scalar(z):
    """log(1 + z)/z with the limiting value 1 at z = 0.

    Requires 1 + z off (-inf, 0]; the caller checks the branch condition.
    """
    z = np.asarray(z)
    direct = (np.log(1.0 + z) if np.iscomplexobj(z) else np.log1p(z)) / z
    return _series_below_threshold(z, (direct,), (lambda w: _horner(_LOG1P_SERIES, -w),))[0]


@np.errstate(all="ignore")
def path_scale_scalar(z, t: float) -> tuple:
    """The tilt path's growth (e^{tz} - 1)/z, t at z = 0, and the scale
    (e^{tz} - 1)/(e^z - 1), t wherever e^z = 1, from one expm1(tz)."""
    tz = np.asarray(t * z)
    e, d = np.expm1(tz), np.expm1(z)
    (mu,) = _series_below_threshold(tz, (e / tz,), (lambda w: _horner(_MU_SERIES, w),))
    return t * mu, np.where(np.abs(d) < UNITY_EPS, t, e / d)
