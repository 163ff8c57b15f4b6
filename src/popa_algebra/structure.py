"""Classification of coefficient-matrix solutions on componentwise algebras.

A matrix Sigma defines the candidate map x -> 1 + Sigma x.  The map solves
the composition law iff every nonzero entry couples two identical rows;
valid matrices decompose the coordinate set into a partition whose parts
factor the induced group into independent blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence

import numpy as np

from .algebra import Element, grid_interval, hadamard
from .errors import ConstraintViolated, UnsupportedDimension
from .solutions import (GsSolution, LinearSolution, PartitionSpec, PartitionSolution,
                        circle_op)

DEFAULT_ROW_TOL = 1e-9

#: singular values below this fraction of the largest count as zero
RANK_REL_THRESHOLD = 1e-10


@dataclass(frozen=True)
class SigmaMatrix:
    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=float, copy=True)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConstraintViolated("sigma matrix must be square")
        if not np.all(np.isfinite(m)):
            raise ConstraintViolated("sigma matrix entries must be finite")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def to_json(self) -> dict:
        return {"sigma": [list(map(float, row)) for row in self.entries]}

    @classmethod
    def from_json(cls, data: dict) -> "SigmaMatrix":
        return cls(np.asarray(data["sigma"], dtype=float))


def _rows_equal(m: np.ndarray, i: int, j: int, tol: float) -> bool:
    scale = max(1.0, float(np.max(np.abs(m[i]))), float(np.max(np.abs(m[j]))))
    return float(np.max(np.abs(m[i] - m[j]))) <= tol * scale


def validate_sigma(m: SigmaMatrix, tol: float = DEFAULT_ROW_TOL) -> bool:
    """True iff every entry above tol couples two rows that agree entrywise."""
    a = m.entries
    d = m.dim
    for i in range(d):
        for j in range(d):
            if abs(a[i, j]) > tol and not _rows_equal(a, i, j, tol):
                return False
    return True


def _components(m: np.ndarray, tol: float) -> List[List[int]]:
    # edge (i, j) whenever either coupling entry is nonzero
    d = m.shape[0]
    adj = (np.abs(m) > tol) | (np.abs(m.T) > tol)
    seen = [False] * d
    comps = []
    for start in range(d):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in range(d):
                if not seen[u] and (adj[v, u] or adj[u, v]):
                    seen[u] = True
                    stack.append(u)
        comps.append(sorted(comp))
    return sorted(comps, key=lambda c: c[0])


def recover_partition(m: SigmaMatrix, tol: float = DEFAULT_ROW_TOL) -> PartitionSpec:
    """Extract the coordinate partition and generator vector of a valid matrix."""
    if not validate_sigma(m, tol):
        raise ConstraintViolated("matrix fails the row-coupling constraint")
    a = m.entries
    parts = _components(a, tol)
    rho = np.zeros(m.dim)
    for part in parts:
        rep = part[0]
        for i in part[1:]:
            if not _rows_equal(a, rep, i, tol):
                raise ConstraintViolated("coupled rows disagree within a part")
        for j in part:
            rho[j] = a[rep, j]
    return PartitionSpec(tuple(tuple(p) for p in parts), rho)


def kernel_subspace(m: SigmaMatrix, tol: float = DEFAULT_ROW_TOL) -> List[Element]:
    """Orthonormal basis of the null space, as elements of the d-dim algebra."""
    if not validate_sigma(m, tol):
        raise ConstraintViolated("matrix fails the row-coupling constraint")
    basis = null_space_basis(m.entries)
    alg = hadamard(m.dim)
    return [alg.element(v) for v in basis]


def null_space_basis(a: np.ndarray) -> np.ndarray:
    """Rows spanning null(a), via rank-revealing SVD."""
    if not np.any(a):
        return np.eye(a.shape[0])
    _, s, vt = np.linalg.svd(a)
    rank = int(np.sum(s > RANK_REL_THRESHOLD * s[0]))
    return vt[rank:]


class TwoDClass(str, Enum):
    CO_DEPENDENT = "CoDependent"
    INDEPENDENT = "Independent"
    DEGENERATE_UNIVARIATE = "DegenerateUnivariate"
    TRIVIAL = "Trivial"


@dataclass(frozen=True)
class TwoDClassification:
    cls: TwoDClass
    params: dict

    def to_json(self) -> dict:
        return {"class": self.cls.value, "params": self.params}


def _classify_partition_2d(spec: PartitionSpec) -> TwoDClassification:
    rho = spec.rho
    if np.all(rho == 0.0):
        return TwoDClassification(TwoDClass.TRIVIAL, {})
    if len(spec.parts) == 1:
        return TwoDClassification(TwoDClass.CO_DEPENDENT,
                                  {"rho": list(map(float, rho))})
    return TwoDClassification(TwoDClass.INDEPENDENT,
                              {"rho": list(map(float, rho))})


def classify_2d(sol: GsSolution) -> TwoDClassification:
    """Assign one of the four two-dimensional classes to a represented solution.

    A linear solution is classified by the partition recovered from its
    derivative matrix, so a candidate matrix that fails the row-coupling
    constraint raises ConstraintViolated.
    """
    if not sol.algebra.componentwise or sol.algebra.dim != 2:
        raise UnsupportedDimension("classification applies on the 2-d componentwise algebra")
    if sol.variant == "DegenerateExp":
        return TwoDClassification(TwoDClass.DEGENERATE_UNIVARIATE, sol.params_json())
    return _classify_partition_2d(recover_partition(SigmaMatrix(sol.gamma_matrix())))


@dataclass(frozen=True)
class StructureReport:
    """Outcome of analysing a coefficient matrix."""

    valid: bool
    partition: Optional[PartitionSpec]
    kernel_basis: tuple
    kernel_dim: int
    factors: tuple  # (1-based part, generator row restricted to the part)

    def to_json(self) -> dict:
        out = {"valid": self.valid, "kernel_dim": self.kernel_dim,
               "kernel_basis": [list(map(float, e.coords)) for e in self.kernel_basis]}
        if self.partition is not None:
            out["partition"] = [[i + 1 for i in p] for p in self.partition.parts]
            out["rho"] = list(map(float, self.partition.rho))
        out["factors"] = [{"part": list(part), "generator": list(gen)}
                          for part, gen in self.factors]
        return out


def factorize(m: SigmaMatrix, tol: float = DEFAULT_ROW_TOL,
              n_check: int = 64, seed: int = 0) -> StructureReport:
    """Split the induced group into independent per-part factors.

    Each part carries the restricted generator row; the projected group
    operation is cross-checked against the factor operation on sampled
    pairs before the report is returned.
    """
    spec = recover_partition(m, tol)  # raises ConstraintViolated when invalid
    sol = PartitionSolution(spec)
    basis = kernel_subspace(m, tol)
    factors = []
    for part in spec.parts:
        gen = [float(spec.rho[j]) for j in part]
        factors.append((tuple(i + 1 for i in part), tuple(gen)))

    rng = np.random.default_rng(seed)
    alg = sol.algebra
    X = rng.uniform(-0.4, 0.4, size=(n_check, m.dim))
    Y = rng.uniform(-0.4, 0.4, size=(n_check, m.dim))
    for x_row, y_row in zip(X, Y):
        x, y = alg.element(x_row), alg.element(y_row)
        z = circle_op(sol, x, y)
        for part in spec.parts:
            idx = list(part)
            s_part = 1.0 + float(spec.rho[idx] @ x_row[idx])
            proj = x_row[idx] + s_part * y_row[idx]
            if float(np.max(np.abs(z.coords[idx] - proj))) > 1e-10:
                raise ConstraintViolated("projected operation disagrees with the factor")

    return StructureReport(True, spec, tuple(basis), len(basis), tuple(factors))


def analyse_sigma(m: SigmaMatrix, tol: float = DEFAULT_ROW_TOL) -> StructureReport:
    """Non-raising wrapper: an invalid matrix yields a report with valid=False."""
    if not validate_sigma(m, tol):
        return StructureReport(False, None, (), m.dim - int(np.linalg.matrix_rank(m.entries)),
                               ())
    return factorize(m, tol)


def grid_cinterval_solution(grid: Sequence[float], rho_values: Sequence[float],
                            parts: Sequence[Sequence[int]]) -> LinearSolution:
    """Partition solution on the sampled-interval algebra.

    ``parts`` uses 0-based grid indices; all-singleton parts reduce to the
    affine family with the sampled coefficient function.
    """
    alg = grid_interval(grid)
    spec = PartitionSpec(tuple(tuple(p) for p in parts),
                         np.asarray(rho_values, dtype=float))
    if spec.dim != alg.dim:
        raise ConstraintViolated("rho_values length must match the grid")
    return PartitionSolution(spec, alg)
