"""Special constructions: the kernel/group/section characterization of all
solutions.  The transcendental roots of e^w = 1 + w live in ``roots``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, List, Sequence

import numpy as np

from .algebra import AlgebraDescriptor, Element, _Frozen
from .errors import InvalidTriple, NotInRange
from .solutions import GsSolution
from .structure import RANK_REL_THRESHOLD, _svd_rank, null_space_basis


class WjTriple(_Frozen):
    """Kernel subspace sample, invertible-value samples, and a section map.

    ``kernel_basis`` spans the kernel at desk scale; ``lambda_samples`` are
    invertible target values; ``section`` maps a target value to one of its
    preimages (well-defined modulo the kernel).
    """

    def __init__(self, kernel_basis: tuple, lambda_samples: tuple,
                 section: Callable[[Element], Element]):
        object.__setattr__(self, "kernel_basis", kernel_basis)
        object.__setattr__(self, "lambda_samples", lambda_samples)
        object.__setattr__(self, "section", section)

    @property
    def algebra(self) -> AlgebraDescriptor:
        return self.lambda_samples[0].algebra

    @cached_property
    def kernel_matrix(self) -> np.ndarray:
        """Orthonormal rows spanning the kernel subspace, computed once."""
        if not self.kernel_basis:
            k = np.zeros((0, self.algebra.dim))
        else:
            rank, vt = _svd_rank(np.array([e.coords for e in self.kernel_basis]),
                                 compute_uv=True)
            k = vt[:rank]
        k.flags.writeable = False
        return k

    def complement_part(self, x: Element) -> np.ndarray:
        """Coordinates of x projected off the kernel subspace."""
        k = self.kernel_matrix
        c = x.coords
        if k.shape[0]:
            c = c - k.T @ (k @ c)
        return c


class WjSolutionOracle:
    """The solution map reconstructed from a triple, checked on construction.

    The constructor checks the three triple conditions on every sample and
    every ordered pair of samples, raising InvalidTriple at the first that
    fails: (i) the samples map the kernel into itself, (ii) the section
    lands in the kernel exactly at the unit, (iii) the section is a crossed
    homomorphism modulo the kernel.  The oracle evaluates to the matching
    target value on points congruent to a section image modulo the kernel,
    and to zero elsewhere.
    """

    def __init__(self, triple: WjTriple, tol: float = 1e-9):
        self.triple, self.tol = triple, tol
        lams, unit = triple.lambda_samples, triple.algebra.unit()

        def off_kernel(x: Element) -> float:
            return float(np.max(np.abs(triple.complement_part(x))))

        def require(ok: bool):
            if not ok:
                raise InvalidTriple("triple fails its defining conditions")

        def section(lam: Element) -> Element:   # condition (ii) at lam
            is_unit = (lam - unit).norm() <= tol
            w = triple.section(lam)
            require(is_unit == (off_kernel(w) <= tol * max(1.0, w.norm())))
            return w

        for lam in lams:
            require(lam.is_invertible())
            for lv in (lam * v for v in triple.kernel_basis):
                require(not off_kernel(lv) > tol * max(1.0, lv.norm()))
        sampled = list(zip(lams, map(section, lams)))
        self._sections = np.array([w.coords for _, w in sampled]).T
        values = list(sampled)
        for l1, w1 in sampled:
            for l2, w2 in sampled:
                lam = l1 * l2
                w = section(lam)
                require(not off_kernel(w - w1 - l1 * w2) > tol * max(1.0, w.norm()))
                values.append((lam, w))
        table = []
        for lam, w in values:
            if not any((lam - known).norm() <= tol for known, _ in table):
                table.append((lam, triple.complement_part(w)))
        self._covered = [lam for lam, _ in table]
        self._reps = np.array([rep for _, rep in table]).T
        self._values = np.array([lam.coords for lam in self._covered]).T

    def covered_values(self) -> List[Element]:
        return list(self._covered)

    def eval(self, x: Element) -> Element:
        return x.algebra.element(self._lookup(x.coords[:, None])[:, 0])

    def _lookup(self, points: np.ndarray) -> np.ndarray:
        """Oracle values at a (d, m) block of points: for each column, the first
        covered value whose section matches it modulo the kernel, else zero."""
        k = self.triple.kernel_matrix
        cx = points - k.T @ (k @ points)
        bound = self.tol * np.fmax(1.0, np.abs(cx).max(axis=0))
        hit = np.full(cx.shape[1], -1)
        for t in reversed(range(self._reps.shape[1])):   # the first match is written last
            hit[np.abs(cx - self._reps[:, t, None]).max(axis=0) <= bound] = t
        return np.where(hit >= 0, self._values[:, hit], 0.0)

    def gs_residual_on_covered(self, seed: int = 0) -> float:
        """Composition-law residual over 200 sampled pairs of covered points.

        Pairs are drawn from the generating samples so that their products
        stay inside the covered table; each point is a sample's section plus
        a uniform kernel vector.
        """
        rng = np.random.default_rng(seed)
        k = self.triple.kernel_matrix
        n, m = self._sections.shape[1], k.shape[0]
        draws = [(rng.integers(n), rng.integers(n), rng.uniform(-0.5, 0.5, m),
                  rng.uniform(-0.5, 0.5, m)) for _ in range(200)]
        i, j, u1, u2 = map(np.array, zip(*draws))
        x1 = self._sections[:, i] + k.T @ u1.T
        x2 = self._sections[:, j] + k.T @ u2.T
        s1, s2 = self._lookup(x1), self._lookup(x2)
        mul, norm = self.triple.algebra.mul, self.triple.algebra.norm
        residuals = self._lookup(x1 + mul(s1, x2)) - mul(s1, s2)
        return max(0.0, *map(norm, residuals.T))


def wj_extract(sol: GsSolution, lambda_samples: Sequence[Element],
               tol: float = 1e-9) -> WjTriple:
    """Extract a triple from a linear-family solution.

    The kernel is the null space of the derivative matrix; the section
    solves the linear system for a preimage (least squares), raising
    NotInRange when a sample has none.
    """
    M = sol.gamma_matrix()
    alg = sol.algebra
    unit = alg.unit()
    basis = [alg.element(v) for v in null_space_basis(M)]
    pinv = np.linalg.pinv(M, rcond=RANK_REL_THRESHOLD)

    def section(lam: Element) -> Element:
        target = (lam - unit).coords
        w = pinv @ target
        if float(np.max(np.abs(M @ w - target))) > tol * max(1.0, lam.norm()):
            raise NotInRange("value has no preimage under the solution map")
        return alg.element(w)

    for lam in lambda_samples:
        section(lam)  # fail fast on unreachable samples
    return WjTriple(tuple(basis), tuple(lambda_samples), section)

