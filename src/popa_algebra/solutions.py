"""Continuous solution families of the composition law S(x + S(x)y) = S(x)S(y).

Each family knows how to evaluate itself, on one point or on a block of
points, expose the derivative at the origin, and serialize to JSON.  Every linear family is one map, unit + M x,
held by ``LinearSolution``; the univariate-driven forms are
``DegenerateExpSolution``.  The linear offset ``rho_of``, sampled
verification of the defining identities and the derivative ``gamma`` live
here as free functions.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from enum import Enum
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import _kernels, _read
from .algebra import (AlgebraDescriptor, Element, _Frozen, _adopt, complex_plane,
                      hadamard)
from .errors import (ConstraintViolated, DimensionMismatch, DomainExhausted,
                     NotDifferentiable, NotInGroup, NotOrthogonalIdempotents,
                     UnitNotInGroup)

#: sampled points whose image has a spectral point below this are rejected
GROUP_REJECT_EPS = 1e-9

#: orthogonality tolerance for idempotent systems
IDEMPOTENT_TOL = 1e-12

_DOMAIN_EPS = 1e-9  # a power form's base must exceed this


class DegenerateForm(str, Enum):
    ONE_EXP = "One_Exp"
    AFFINE_POWER = "Affine_Power"
    PURE_POWER = "Pure_Power"


class PartitionSpec(_Frozen):
    """A partition of the coordinate set plus generator coefficients.

    ``parts`` holds 0-based index tuples (1-based in JSON); ``rho`` is the
    full-length coefficient vector, entry j only acting inside j's part.
    """

    __slots__ = ("parts", "rho")

    def __init__(self, parts, rho):
        parts = tuple(tuple(sorted(map(operator.index, p))) for p in parts)
        if not all(parts):
            raise ConstraintViolated("a part must not be empty")
        parts = tuple(sorted(parts, key=lambda p: p[0]))
        rho = np.array(rho, dtype=float, copy=True)
        rho.flags.writeable = False
        if rho.ndim != 1:
            raise DimensionMismatch("rho must be a vector")
        d = rho.shape[0]
        seen = [i for p in parts for i in p]
        if sorted(seen) != list(range(d)):
            raise ConstraintViolated("parts must partition the index set exactly")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "rho", rho)

    def __eq__(self, other):
        if not isinstance(other, PartitionSpec):
            return NotImplemented
        return self.parts == other.parts and np.array_equal(self.rho, other.rho)

    __hash__ = None

    def __reduce__(self):
        return PartitionSpec, (self.parts, self.rho)

    def __repr__(self):
        return f"PartitionSpec({self.parts!r}, {self.rho.tolist()!r})"

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    def part_ids(self) -> np.ndarray:
        """Index of the part holding each coordinate."""
        ids = np.empty(self.dim, dtype=int)
        for k, p in enumerate(self.parts):
            ids[list(p)] = k
        return ids

    def to_json(self) -> dict:
        return {"parts": [[i + 1 for i in p] for p in self.parts],
                "rho": list(map(float, self.rho))}


def _part_matrix(ids: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Dense M with M[i, j] = rho[j] where i and j share a part, else 0."""
    return np.where(ids[:, None] == ids[None, :], rho[None, :], 0.0)


# ---------------------------------------------------------------------------
# solution families
# ---------------------------------------------------------------------------

class GsSolution:
    """Base class: a represented continuous solution on a fixed algebra."""

    algebra: AlgebraDescriptor
    variant: str

    def eval(self, x: Element) -> Element:
        raise NotImplementedError

    def eval_block(self, Xb: np.ndarray, out=None, ok=None):
        """``(S, ok)``: the map on each column of a (d, rows) block of points.

        ``ok`` is False on points outside the map's domain, where ``S``
        holds a placeholder, and may be the scalar True.  ``S`` is written
        to ``out`` and a mask to ``ok`` when they are given: a (d, rows)
        array apart from ``Xb`` and a length-rows bool array.
        """
        raise NotImplementedError

    def gamma_matrix(self) -> np.ndarray:
        """Real coordinate matrix of the derivative of the map at 0."""
        raise NotImplementedError

    def gamma(self, u: Element) -> Element:
        self._check_point(u)
        return Element(self.gamma_matrix() @ u.coords, self.algebra)

    def gamma_norm(self) -> float:
        """Operator norm of the derivative at 0 under the algebra norm."""
        M = self.gamma_matrix()
        if self.algebra.componentwise:
            return float(np.max(np.sum(np.abs(M), axis=1)))
        return float(np.linalg.svd(M, compute_uv=False)[0])

    def omega_homogeneous(self) -> bool:
        """Whether the closed-form tilt inverse is validated for this family."""
        return False

    def _check_point(self, x: Element):
        if x.algebra is not self.algebra and x.algebra != self.algebra:
            raise DimensionMismatch("point does not belong to the solution's algebra")

    def params_json(self) -> dict:
        raise NotImplementedError

    def to_json(self) -> dict:
        out = {"variant": self.variant, "algebra": self.algebra.to_json()}
        out.update(self.params_json())
        return out

    def __repr__(self):
        return f"{type(self).__name__}({self.params_json()})"


class LinearSolution(GsSolution):
    """The linear map S(x) = unit + M x (algebra product), M a real d x d matrix.

    The affine, partition, complex real-linear and idempotent families are
    all this map; the constructor functions below build it and keep each
    family's ``variant`` name and JSON fields.  M is taken over read-only.
    A partition family (the componentwise affine one has singleton parts)
    passes ``parts = (part_ids, rho)`` instead, M[i, j] = rho[j] within a
    part: gamma and eval are O(d) part sums, and ``gamma_matrix`` builds M
    on its first call.  ``omega_homogeneous`` is False only for
    ``LinearCandidate``, whose M need not satisfy the row-coupling constraint.
    """

    def __init__(self, M, algebra: AlgebraDescriptor, variant: str, params: dict,
                 omega_homogeneous: bool = True, parts=None):
        if parts is None:
            M = np.asarray(M, dtype=float)
            if M.shape != (algebra.dim, algebra.dim):
                raise DimensionMismatch("matrix size does not match the algebra")
            M.flags.writeable = False
        self._M = M
        self._parts = parts
        # every part a singleton: gamma is rho * x, with no part sum to turn -0.0 into 0.0
        self._singletons = parts is not None and parts[0].max() + 1 == len(parts[0])
        self.algebra = algebra
        self.variant = variant
        self._params = params
        self._omega_homogeneous = omega_homogeneous

    def _apply(self, x: np.ndarray) -> np.ndarray:
        if self._parts is None:
            return self._M @ x
        ids, rho = self._parts
        return rho * x if self._singletons else np.bincount(ids, weights=rho * x)[ids]

    def eval(self, x: Element) -> Element:
        return self.algebra.unit() + self.gamma(x)

    def gamma(self, u: Element) -> Element:
        self._check_point(u)
        return _adopt(self._apply(u.coords), self.algebra)

    def gamma_norm(self) -> float:
        if self._parts is None:
            return super().gamma_norm()
        ids, rho = self._parts
        return float(np.max(np.bincount(ids, weights=np.abs(rho))))

    def gamma_matrix(self) -> np.ndarray:
        if self._M is None:
            self._M = _part_matrix(*self._parts)
            self._M.flags.writeable = False
        return self._M

    def omega_homogeneous(self) -> bool:
        return self._omega_homogeneous

    def eval_block(self, Xb: np.ndarray, out=None, ok=None):
        out = np.matmul(self.gamma_matrix(), Xb, out=out)
        out += self.algebra.unit().coords[:, None]
        return out, True

    def params_json(self) -> dict:
        return self._params


def CanonicalSolution(rho: Element) -> LinearSolution:
    """The affine family S(x) = unit + rho * x (algebra product)."""
    params = {"rho": list(map(float, rho.coords))}
    if rho.algebra.componentwise:
        return LinearSolution(None, rho.algebra, "Canonical", params,
                              parts=(np.arange(rho.algebra.dim), rho.coords))
    a, b = rho.coords
    return LinearSolution(np.array([[a, -b], [b, a]]), rho.algebra, "Canonical", params)


def PartitionSolution(spec: PartitionSpec,
                      algebra: Optional[AlgebraDescriptor] = None) -> LinearSolution:
    """Row-coupled linear family on a componentwise algebra."""
    algebra = algebra if algebra is not None else hadamard(spec.dim)
    if not algebra.componentwise:
        raise DimensionMismatch("partition solutions need a componentwise algebra")
    if algebra.dim != spec.dim:
        raise DimensionMismatch("partition dimension does not match the algebra")
    return LinearSolution(None, algebra, "Partition", spec.to_json(),
                          parts=(spec.part_ids(), spec.rho))


def ComplexReImSolution(a: float, b: float) -> LinearSolution:
    """Real-linear family on the complex plane: S(z) = 1 + a Re z + b Im z.

    Real-linear but not complex-linear: the derivative takes real values,
    so power-raising holds.
    """
    a, b = float(a), float(b)
    return LinearSolution(np.array([[a, b], [0.0, 0.0]]), complex_plane(),
                          "ComplexReIm", {"a": a, "b": b})


def IdempotentSolution(idempotents: Sequence[Element], sigma: Sequence[float],
                       algebra: Optional[AlgebraDescriptor] = None) -> LinearSolution:
    """Linear family built from orthogonal idempotents and a functional.

    nu(x) = sum_i sigma(e_i x) e_i and the map is unit + nu(x); on a
    componentwise algebra the idempotents are disjoint 0/1 indicator
    vectors, so this coincides with a partition family.
    """
    if not idempotents and algebra is None:
        raise DimensionMismatch("need an algebra when no idempotents are given")
    algebra = algebra if algebra is not None else idempotents[0].algebra
    idempotents = tuple(idempotents)
    sigma = np.array(sigma, dtype=float)
    if sigma.shape != (algebra.dim,):
        raise DimensionMismatch("sigma coefficients must match the dimension")
    for e in idempotents:
        if e.algebra != algebra:
            raise DimensionMismatch("idempotents must share the algebra")
    _check_orthogonal_idempotents(idempotents)
    d = algebra.dim
    nu = np.zeros((d, d))
    for e in idempotents:   # column j is the sum over e of sigma(e b_j) e
        nu += np.outer(e.coords, sigma @ algebra.mul(e.coords[:, None], np.eye(d)))
    return LinearSolution(nu, algebra, "IdempotentBuilt",
                          {"idempotents": [list(map(float, e.coords)) for e in idempotents],
                           "sigma": list(map(float, sigma))})


def LinearCandidate(matrix, algebra: Optional[AlgebraDescriptor] = None) -> LinearSolution:
    """Arbitrary unit-plus-linear candidate map x -> unit + M x.

    Not necessarily a solution: used to measure how badly a coefficient
    matrix that fails the row-coupling constraint violates the law.
    """
    M = np.array(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch("matrix must be square")
    algebra = algebra if algebra is not None else hadamard(M.shape[0])
    return LinearSolution(M, algebra, "LinearCandidate",
                          {"matrix": [list(map(float, row)) for row in M]},
                          omega_homogeneous=False)


@np.errstate(over="ignore")   # a product that overflows is inf, and fails the check
def _check_orthogonal_idempotents(elements: Sequence[Element]):
    for i, e in enumerate(elements):
        if (e * e - e).norm() > IDEMPOTENT_TOL:
            raise NotOrthogonalIdempotents(f"element {i} is not idempotent")
        for j in range(i + 1, len(elements)):
            if (e * elements[j]).norm() > IDEMPOTENT_TOL:
                raise NotOrthogonalIdempotents(f"elements {i} and {j} are not orthogonal")


class DegenerateExpSolution(GsSolution):
    """Univariate-driven families on a componentwise algebra.

    ``ONE_EXP``: every component is 1 except component ``exp_index``, which
    is exp(weights . x); the weight vector must vanish at ``exp_index``.
    Any dimension >= 2.

    ``AFFINE_POWER`` / ``PURE_POWER``: the two-dimensional forms driven by
    coordinate ``axis``: (1 + rho*x_a, (1 + rho*x_a)^g) and (x_a, x_a^g).
    The power forms are only defined where the base exceeds 1e-9; the pure
    power form is kept for completeness of the represented catalogue but
    does not satisfy the composition law away from its fixed points (see
    ``verify_gs``), and has no derivative at the origin.
    """

    variant = "DegenerateExp"

    def __init__(self, form: DegenerateForm, axis: int = 0, rho: float = 0.0,
                 gamma_exp: float = 1.0, weights=None,
                 exp_index: Optional[int] = None,
                 algebra: Optional[AlgebraDescriptor] = None):
        form = DegenerateForm(form)
        if algebra is None:
            algebra = hadamard(2 if weights is None else len(weights))
        if not algebra.componentwise:
            raise DimensionMismatch("degenerate solutions need a componentwise algebra")
        self.form = form
        self.axis = operator.index(axis)
        self.rho_coeff = float(rho)
        self.gamma_exp = float(gamma_exp)
        self.algebra = algebra
        d = algebra.dim
        if not 0 <= self.axis < d:
            raise DimensionMismatch(f"axis must lie in 0..{d - 1}")
        if form is DegenerateForm.ONE_EXP:
            if weights is None or exp_index is None:   # the dim-2 defaults
                if d != 2:
                    raise DimensionMismatch("weights and exp_index required when dim != 2")
                if weights is None:
                    weights = np.where(np.arange(2) == self.axis, self.gamma_exp, 0.0)
                if exp_index is None:
                    exp_index = 1 - self.axis
            w = np.asarray(weights, dtype=float)
            if w.shape != (d,):
                raise DimensionMismatch("weights length must equal dim")
            exp_index = operator.index(exp_index)
            if not 0 <= exp_index < d:
                raise DimensionMismatch(f"exp_index must lie in 0..{d - 1}")
            if abs(w[exp_index]) != 0.0:
                raise ConstraintViolated("weights must vanish at the exponential component")
            self.weights = w
            self.exp_index = exp_index
        elif d != 2:
            raise DimensionMismatch("power forms are two-dimensional")

    def eval(self, x: Element) -> Element:
        self._check_point(x)
        c = x.coords
        if self.form is DegenerateForm.ONE_EXP:
            out = np.ones(self.algebra.dim)
            try:
                out[self.exp_index] = math.exp(float(self.weights @ c))
            except OverflowError:   # inf, as eval_block's np.exp gives
                out[self.exp_index] = math.inf
            return Element(out, self.algebra)
        if self.form is DegenerateForm.AFFINE_POWER:
            base = 1.0 + self.rho_coeff * c[self.axis]
        else:
            base = c[self.axis]
        if not base > _DOMAIN_EPS:
            raise NotInGroup(f"power form undefined: base is not above {_DOMAIN_EPS}")
        out = np.empty(2)
        out[self.axis] = base
        with np.errstate(over="ignore"):   # inf, as eval_block's power gives
            out[1 - self.axis] = base ** self.gamma_exp
        return Element(out, self.algebra)

    def gamma_matrix(self) -> np.ndarray:
        d = self.algebra.dim
        M = np.zeros((d, d))
        if self.form is DegenerateForm.ONE_EXP:
            M[self.exp_index, :] = self.weights
            return M
        if self.form is DegenerateForm.AFFINE_POWER:
            M[self.axis, self.axis] = self.rho_coeff
            M[1 - self.axis, self.axis] = self.gamma_exp * self.rho_coeff
            return M
        raise NotDifferentiable("the pure power form has no derivative at 0")

    def eval_block(self, Xb: np.ndarray, out=None, ok=None):
        out = np.empty_like(Xb) if out is None else out
        out.fill(1.0)
        if self.form is DegenerateForm.ONE_EXP:
            e = out[self.exp_index]
            np.exp(np.matmul(self.weights, Xb, out=e), out=e)
            return out, True
        base, power = out[self.axis], out[1 - self.axis]
        if self.form is DegenerateForm.AFFINE_POWER:
            np.multiply(self.rho_coeff, Xb[self.axis], out=base)
            base += 1.0
        else:
            np.copyto(base, Xb[self.axis])
        ok = np.greater(base, _DOMAIN_EPS, out=ok)
        np.copyto(power, base, where=ok)   # 1 off the domain
        power **= self.gamma_exp
        return out, ok

    def params_json(self) -> dict:
        out = {"form": self.form.value, "axis": self.axis,
               "rho": self.rho_coeff, "gamma_exp": self.gamma_exp}
        if self.form is DegenerateForm.ONE_EXP:
            out["weights"] = list(map(float, self.weights))
            out["exp_index"] = self.exp_index
        return out


def _parts(value, where: str) -> list:
    return [[_read.integer(i, f"{where}[{k}][{j}]") - 1
             for j, i in enumerate(_read.array(part, f"{where}[{k}]"))]
            for k, part in enumerate(_read.array(value, where))]


def solution_from_json(data: dict, where: str = "") -> GsSolution:
    """A solution object at path ``where``, each field read once by its JSON type."""
    def field(name, read, *args, **kw):
        return _read.get(data, name, where, read, *args, **kw)

    variant = field("variant", None)
    algebra = field("algebra", AlgebraDescriptor.from_json)
    if variant == "Canonical":
        return CanonicalSolution(algebra.element(field("rho", _read.vector)))
    if variant == "Partition":
        return PartitionSolution(PartitionSpec(field("parts", _parts),
                                               field("rho", _read.vector)), algebra)
    if variant == "DegenerateExp":
        return DegenerateExpSolution(
            field("form", _read.choice, tuple(DegenerateForm)),
            axis=field("axis", _read.integer, default=0),
            rho=field("rho", _read.real, default=0.0),
            gamma_exp=field("gamma_exp", _read.real, default=1.0),
            weights=field("weights", _read.vector, default=None),
            exp_index=field("exp_index", _read.integer, default=None), algebra=algebra)
    if variant == "ComplexReIm":
        if algebra != complex_plane():
            _read.fail(f"{where} 'algebra'".lstrip(), "the ComplexAsR2 algebra", data["algebra"])
        return ComplexReImSolution(field("a", _read.real), field("b", _read.real))
    if variant == "IdempotentBuilt":
        return IdempotentSolution([algebra.element(c) for c in field("idempotents", _read.matrix)],
                                  field("sigma", _read.vector), algebra)
    if variant == "LinearCandidate":
        return LinearCandidate(field("matrix", _read.matrix), algebra)
    _read.fail(f"{where} 'variant'".lstrip(), "a solution variant", variant)


# ---------------------------------------------------------------------------
# the linear offset, sampled verification and the derivative at 0
# ---------------------------------------------------------------------------

def rho_of(sol: GsSolution) -> Element:
    """Linear offset S(unit) - unit; the unit must lie in the group."""
    s1 = sol.eval(sol.algebra.unit())
    if not s1.is_invertible():
        raise UnitNotInGroup("image of the unit is not invertible")
    return s1 - sol.algebra.unit()


class GoldieResidualReport(NamedTuple):
    """Sampled residuals of the composition law and the adjustor equation."""

    max_gs_residual: float
    max_goldie_residual: float
    samples_tested: int
    worst_pair: tuple

    def to_json(self) -> dict:
        return {"max_gs_residual": self.max_gs_residual,
                "max_goldie_residual": self.max_goldie_residual,
                "samples_tested": self.samples_tested,
                "worst_pair": [self.worst_pair[0].to_json(),
                               self.worst_pair[1].to_json()]}


def sample_box(algebra: AlgebraDescriptor, n: int, radius: float,
               rng: np.random.Generator, out=None) -> np.ndarray:
    """``n`` points uniform in the box [-radius, radius)^d, as an (n, d) array.

    Drawn into ``out`` when it is given.  Each coordinate is
    ``2 radius U - radius`` with ``U = rng.random()``: the bits of
    ``rng.uniform(-radius, radius)``, one PCG64 step each.  A radius below
    0, or one whose width ``2 radius`` overflows, is refused.
    """
    width = 2.0 * radius
    if not 0.0 <= width < math.inf:
        raise ConstraintViolated(f"box radius must be at least 0, with a finite "
                                 f"width 2 * radius, got {radius!r}")
    out = rng.random((n, algebra.dim), out=out)
    out *= width
    out -= radius
    return out


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def verify_gs(sol: GsSolution, n_samples: int = 10000, seed: int = 0,
              box_radius: float = 0.4) -> GoldieResidualReport:
    """Sample pairs in a box around 0 and measure both identity residuals.

    Pairs leaving the group domain (image spectrum within GROUP_REJECT_EPS
    of 0, or outside a power form's half-plane) are rejected; more than 99%
    rejected raises DomainExhausted.  Deterministic for a given seed.

    The samples are those of ``X = sample_box(...)`` then ``Y =
    sample_box(...)`` on one ``default_rng(seed)``, drawn one kernel block
    at a time: each double takes one PCG64 step, so ``advance`` starts any
    block's X and Y, and the worst pair's rows, at their place in that
    stream.  Blocks are dealt round-robin to the caller and a thread per
    further available CPU (a single block starts none); the report does not
    depend on the worker count, and the earliest failing block's error is raised.

    Each worker draws and computes its blocks in one ``_kernels._Workspace``
    (X and Y in the kernel's draw slots) and reduces each block as soon as
    it is computed, so a call holds six blocks per worker and a few numbers
    per block, whatever ``n_samples``.  The caller allocates every workspace
    before a thread starts: memory a thread allocates can come from another
    malloc arena, which keeps the last call's freed workspace resident.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    alg = sol.algebra
    seq = np.random.SeedSequence(seed)

    def draws(skip: int) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(seq).advance(skip))

    rho = rho_of(sol).coords
    if isinstance(sol, LinearSolution):
        # S(unit) - unit by the block's own product, not by part sums
        unit = alg.unit().coords
        rho = (unit + sol.gamma_matrix() @ unit) - unit
    rows = _kernels.block_rows(alg.dim)
    starts = range(0, n_samples, rows)
    n_workers = min(len(starts), _cpu_count())
    # per block: valid pairs, max gs, max goldie, and the first maximum of
    # where(valid, gs, -1), where a NaN beats any number, with its row
    blocks = [None] * len(starts)
    failed = []
    workspaces = [_kernels._Workspace(alg.dim, min(rows, n_samples)) for _ in range(n_workers)]

    def work(first: int) -> None:
        lo, ws = starts[first], workspaces[first]
        try:
            for b in range(first, len(starts), n_workers):
                lo = starts[b]
                m = min(rows, n_samples - lo)
                X, Y = ws.blocks(m, pairs=True)[4:]
                sample_box(alg, m, box_radius, draws(lo * alg.dim), out=X)
                sample_box(alg, m, box_radius, draws((n_samples + lo) * alg.dim), out=Y)
                gs, goldie, valid = _kernels.residuals(sol, rho, X, Y, GROUP_REJECT_EPS, ws)
                best = ws.vectors(m)[0]   # the kernel's spec, free once it returns
                best.fill(-1.0)
                np.copyto(best, gs, where=valid)
                k = int(np.argmax(best))
                blocks[b] = (int(np.count_nonzero(valid)), np.max(gs), np.max(goldie),
                             best[k], lo + k)
        except Exception as exc:
            failed.append((lo, exc))

    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, n_workers)]
    for t in threads:
        t.start()
    work(0)
    for t in threads:
        t.join()
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    counts, gs_max, goldie_max, bests, best_rows = zip(*blocks)
    n_valid = sum(counts)
    if n_valid < max(1, math.ceil(0.01 * n_samples)):
        raise DomainExhausted(f"{n_samples - n_valid} of {n_samples} samples rejected")
    idx = best_rows[int(np.argmax(bests))]
    pair = tuple(alg.element(sample_box(alg, 1, box_radius, draws(k * alg.dim))[0])
                 for k in (idx, n_samples + idx))
    return GoldieResidualReport(float(np.max(gs_max)), float(np.max(goldie_max)),
                                n_valid, pair)


def gamma(sol: GsSolution, u: Element) -> Element:
    """Derivative of the solution map at 0, applied to u (closed form)."""
    return sol.gamma(u)
