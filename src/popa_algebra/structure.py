"""Classification of coefficient-matrix solutions on componentwise algebras.

A matrix Sigma defines the candidate map x -> 1 + Sigma x.  The map solves
the composition law iff every nonzero entry couples two identical rows;
valid matrices decompose the coordinate set into a partition whose parts
factor the induced group into independent blocks.
"""

from __future__ import annotations

from enum import Enum
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from . import _read
from .algebra import _Frozen, _adopt, hadamard
from .errors import ConstraintViolated
from .solutions import PartitionSpec

DEFAULT_ROW_TOL = 1e-9

#: singular values below this fraction of the largest count as zero
RANK_REL_THRESHOLD = 1e-10


class SigmaMatrix(_Frozen):
    __slots__ = ("entries",)

    def __init__(self, entries):
        m = np.array(entries, dtype=float, copy=True)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise ConstraintViolated("sigma matrix must be square, at least 1 x 1")
        if not np.all(np.isfinite(m)):
            raise ConstraintViolated("sigma matrix entries must be finite")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    def __eq__(self, other):
        if not isinstance(other, SigmaMatrix):
            return NotImplemented
        return np.array_equal(self.entries, other.entries)

    __hash__ = None

    def __reduce__(self):
        return SigmaMatrix, (self.entries,)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_json(cls, data: dict, where: str = "") -> "SigmaMatrix":
        return cls(_read.get(data, "sigma", where, _read.matrix))


#: coordinates compared per block of row pairs: a block of P = max(1,
#: _PAIR_BLOCK_COORDS // d) pairs gathers two (P, d) row arrays
_PAIR_BLOCK_COORDS = 2**15


def _rows_agree(a: np.ndarray, rowmax: np.ndarray, i: np.ndarray, j: np.ndarray,
                tol: float) -> bool:
    """True iff max|a_i - a_j| <= tol * max(1, rowmax_i, rowmax_j) for every pair,
    where rowmax holds each row's max|a_i|.

    The pairs are compared in blocks, stopping at the first block with a
    disagreeing pair.
    """
    step = max(1, _PAIR_BLOCK_COORDS // a.shape[1])
    for s in range(0, len(i), step):
        bi, bj = i[s:s + step], j[s:s + step]
        diff = a[bi]
        diff -= a[bj]
        np.abs(diff, out=diff)
        bound = tol * np.maximum(1.0, np.maximum(rowmax[bi], rowmax[bj]))
        if not np.all(np.max(diff, axis=1) <= bound):
            return False
    return True


def _components(adj: np.ndarray) -> List[List[int]]:
    """Connected components of a symmetric adjacency, each sorted, by first index."""
    d = adj.shape[0]
    seen = np.zeros(d, dtype=bool)
    comps = []
    for start in range(d):
        if seen[start]:
            continue
        comp = np.zeros(d, dtype=bool)
        comp[start] = True
        frontier = comp
        while frontier.any():
            frontier = adj[frontier].any(axis=0) & ~comp
            comp |= frontier
        seen |= comp
        comps.append(np.flatnonzero(comp).tolist())
    return comps


def _structure(a: np.ndarray, tol: float) -> Optional[PartitionSpec]:
    """The partition of a valid matrix, or None when a coupled pair of rows
    disagrees or a row disagrees with its part's first row (coupled rows
    agree pairwise but drift along a chain).

    Rows i and j agree when max|a_i - a_j| <= tol * max(1, max|a_i|, max|a_j|).
    A negative tol fails every matrix; a NaN tol couples nothing.

    The parts are the components of the coupling graph: when it is a union
    of cliques (no zero generators), each row's first coupled index labels
    its part, else a BFS finds them.  A part passes if its rows are equal,
    or if its column range max_k (max_i a_ik - min_i a_ik) is within
    tol * max(1, min_i max|a_i|), since a rounded difference of two entries
    never exceeds the rounded difference of their column's max and min.
    Only a part that fails has its rows compared pair by pair, and the pass
    stops at the first part whose rows disagree.
    """
    if tol < 0:
        return None
    d = a.shape[0]
    coupled = (a > tol) | (a < -tol)
    coupled |= coupled.T
    linked = coupled | np.eye(d, dtype=bool)
    lab = linked.argmax(axis=1)
    if not np.array_equal(linked, lab[:, None] == lab[None, :]):
        for part in _components(coupled):
            lab[part] = part[0]
    rowmax = np.maximum(a.max(axis=1), -a.min(axis=1))
    with np.errstate(over="ignore"):
        for first in sorted(set(lab[np.any(a != a[lab], axis=1)].tolist())):
            part = np.flatnonzero(lab == first)
            rows = a[part]
            if np.max(rows.max(axis=0) - rows.min(axis=0)) <= tol * max(1.0, rowmax[part].min()):
                continue
            # the first row's coupled pairs first: when one disagrees, as when the
            # first row is the odd one out, no other pair needs comparing
            nb = part[coupled[first, part]]
            if not _rows_agree(a, rowmax, np.full(len(nb), first), nb, tol):
                return None
            i, j = np.nonzero(coupled[part])
            i = part[i]
            if not (_rows_agree(a, rowmax, i[i < j], j[i < j], tol)
                    and _rows_agree(a, rowmax, np.full(len(part) - 1, first), part[1:], tol)):
                return None
    order = np.argsort(lab, kind="stable").tolist()
    ends = np.flatnonzero(np.diff(lab[order], append=d)).tolist()
    parts = tuple(tuple(order[s + 1:e + 1]) for s, e in zip([-1] + ends, ends))
    return PartitionSpec(parts, a[lab, np.arange(d)])


def _svd_rank(a: np.ndarray, compute_uv: bool = False) -> Tuple[int, Optional[np.ndarray]]:
    """(rank, vt): the count of singular values above RANK_REL_THRESHOLD times
    the largest, and the right singular vectors when compute_uv, else None.

    When the largest singular value overflows, a / max|a| is decomposed
    instead: it has the same rank and singular vectors.
    """
    def svd(b):
        out = np.linalg.svd(b, compute_uv=compute_uv)
        return (out[1], out[2]) if compute_uv else (out, None)

    s, vt = svd(a)
    if not np.isfinite(s[0]):
        s, vt = svd(a / np.max(np.abs(a)))
    return int(np.sum(s > RANK_REL_THRESHOLD * s[0])), vt


def null_space_basis(a: np.ndarray) -> np.ndarray:
    """Rows spanning null(a), via rank-revealing SVD."""
    if not np.any(a):
        return np.eye(a.shape[0])
    rank, vt = _svd_rank(a, compute_uv=True)
    return vt[rank:]


class TwoDClass(str, Enum):
    CO_DEPENDENT = "CoDependent"
    INDEPENDENT = "Independent"
    DEGENERATE_UNIVARIATE = "DegenerateUnivariate"
    TRIVIAL = "Trivial"


class TwoDClassification(NamedTuple):
    cls: TwoDClass
    params: dict

    def to_json(self) -> dict:
        return {"class": self.cls.value, "params": self.params}


def classify_partition_2d(spec: PartitionSpec) -> TwoDClassification:
    """The two-dimensional class of a recovered partition and its generator."""
    rho = spec.rho
    if np.all(rho == 0.0):
        return TwoDClassification(TwoDClass.TRIVIAL, {})
    if len(spec.parts) == 1:
        return TwoDClassification(TwoDClass.CO_DEPENDENT,
                                  {"rho": list(map(float, rho))})
    return TwoDClassification(TwoDClass.INDEPENDENT,
                              {"rho": list(map(float, rho))})


class StructureReport(NamedTuple):
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


def analyse_sigma(m: SigmaMatrix, tol: float = DEFAULT_ROW_TOL) -> StructureReport:
    """The structure of a coefficient matrix, from one pass over its rows.

    A valid matrix reports its partition, an orthonormal basis of its null
    space, and one factor per part: the part with the generator row
    restricted to it, on which the operation is
    x + (1 + sum of x * rho over the part) y.  A matrix that fails the
    row-coupling constraint, or whose parts' rows disagree, reports
    valid=False and its kernel dimension alone.  Either way the kernel
    dimension is d minus the rank that _svd_rank reveals.
    """
    a = m.entries
    spec = _structure(a, tol)
    if spec is None:
        return StructureReport(False, None, (), m.dim - _svd_rank(a)[0], ())
    alg = hadamard(m.dim)
    kernel = np.array(null_space_basis(a))   # owned, so each row is adopted, not copied
    kernel.flags.writeable = False
    basis = tuple(_adopt(v, alg) for v in kernel)
    rho = spec.rho.tolist()
    factors = tuple((tuple(i + 1 for i in part), tuple(rho[j] for j in part))
                    for part in spec.parts)
    return StructureReport(True, spec, basis, len(basis), factors)
