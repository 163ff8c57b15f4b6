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


def wj_verify(t: WjTriple, tol: float = 1e-9) -> bool:
    """Check the three triple conditions on all sample pairs.

    (i) the samples map the kernel into itself, (ii) the section lands in
    the kernel exactly at the unit, (iii) the section is a crossed
    homomorphism modulo the kernel.
    """
    unit = t.algebra.unit()

    def off_kernel(x: Element) -> float:
        return float(np.max(np.abs(t.complement_part(x))))

    for lam in t.lambda_samples:
        if not lam.is_invertible():
            return False
        for v in t.kernel_basis:
            if off_kernel(lam * v) > tol * max(1.0, (lam * v).norm()):
                return False

    def cond_two(lam: Element) -> bool:
        is_unit = (lam - unit).norm() <= tol
        w = t.section(lam)
        in_kernel = off_kernel(w) <= tol * max(1.0, w.norm())
        return is_unit == in_kernel

    pairs = [(l1, l2) for l1 in t.lambda_samples for l2 in t.lambda_samples]
    for lam in t.lambda_samples:
        if not cond_two(lam):
            return False
    for l1, l2 in pairs:
        if not cond_two(l1 * l2):
            return False
        diff = t.section(l1 * l2) - t.section(l1) - l1 * t.section(l2)
        if off_kernel(diff) > tol * max(1.0, t.section(l1 * l2).norm()):
            return False
    return True


class WjSolutionOracle:
    """The solution map reconstructed from a verified triple.

    Evaluates to the matching target value on points congruent to a
    section image modulo the kernel, and to zero elsewhere.
    """

    def __init__(self, triple: WjTriple, tol: float = 1e-9):
        if not wj_verify(triple, tol):
            raise InvalidTriple("triple fails its defining conditions")
        self.triple = triple
        self.tol = tol
        lams = list(triple.lambda_samples)
        lams += [l1 * l2 for l1 in triple.lambda_samples
                 for l2 in triple.lambda_samples]
        self._table = []
        for lam in lams:
            if any((lam - known).norm() <= tol for known, _ in self._table):
                continue
            self._table.append((lam, triple.complement_part(triple.section(lam))))
        self._reps = np.array([rep for _, rep in self._table])

    def covered_values(self) -> List[Element]:
        return [lam for lam, _ in self._table]

    def eval(self, x: Element) -> Element:
        cx = self.triple.complement_part(x)
        scale = max(1.0, float(np.max(np.abs(cx))))
        hits = np.flatnonzero(np.abs(cx - self._reps).max(axis=1) <= self.tol * scale)
        return self._table[hits[0]][0] if hits.size else x.algebra.zero()

    def gs_residual_on_covered(self, seed: int = 0) -> float:
        """Composition-law residual over 200 sampled pairs of covered points.

        Pairs are drawn from the generating samples so that their products
        stay inside the covered table.
        """
        rng = np.random.default_rng(seed)
        k = self.triple.kernel_matrix
        worst = 0.0
        lams = list(self.triple.lambda_samples)
        reps = [self.triple.section(lam) for lam in lams]
        for _ in range(200):
            i = int(rng.integers(len(lams)))
            j = int(rng.integers(len(lams)))
            l1, l2 = lams[i], lams[j]
            x1 = reps[i] + self._kernel_noise(rng, k)
            x2 = reps[j] + self._kernel_noise(rng, k)
            s1, s2 = self.eval(x1), self.eval(x2)
            z = x1 + s1 * x2
            worst = max(worst, (self.eval(z) - s1 * s2).norm())
        return worst

    def _kernel_noise(self, rng, k) -> Element:
        alg = self.triple.algebra
        if not k.shape[0]:
            return alg.zero()
        return alg.element(k.T @ rng.uniform(-0.5, 0.5, size=k.shape[0]))


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

