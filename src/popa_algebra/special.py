"""Special constructions: the kernel/group/section characterization of all
solutions.  The transcendental roots of e^w = 1 + w live in ``roots``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

from .algebra import Element
from .errors import InvalidTriple, NotInRange
from .solutions import GsSolution
from .structure import RANK_REL_THRESHOLD, _svd_rank, null_space_basis


class WjTriple(NamedTuple):
    """Kernel subspace sample, invertible-value samples, and a section map.

    ``kernel_basis`` spans the kernel at desk scale; ``lambda_samples`` are
    invertible target values; ``section`` maps a target value to one of its
    preimages (well-defined modulo the kernel).
    """

    kernel_basis: tuple
    lambda_samples: tuple
    section: Callable[[Element], Element]


class WjSolutionOracle:
    """The solution map reconstructed from a triple, checked on construction.

    The constructor checks the three triple conditions on every sample and
    every ordered pair of samples, raising InvalidTriple at the first that
    fails: (i) the samples map the kernel into itself, (ii) the section
    lands in the kernel exactly at the unit, (iii) the section is a crossed
    homomorphism modulo the kernel.  ``covered`` lists the (value, section)
    pairs of the samples and their products, in that order, skipping each
    value whose section the lookup already matches.  The oracle evaluates to
    the first covered value whose section a point matches modulo the kernel,
    and to zero elsewhere.
    """

    def __init__(self, triple: WjTriple, tol: float = 1e-9):
        self.tol = tol
        lams = triple.lambda_samples
        alg = self._algebra = lams[0].algebra
        unit = alg.unit()
        self._kernel = np.zeros((0, alg.dim))   # orthonormal rows spanning the kernel
        if triple.kernel_basis:
            rank, vt = _svd_rank(np.array([e.coords for e in triple.kernel_basis]),
                                 compute_uv=True)
            self._kernel = vt[:rank]
        self._reps = np.zeros((alg.dim, 0))
        covered = []

        def off_kernel(x: Element) -> float:
            return float(np.max(np.abs(self._off_kernel(x.coords))))

        def require(ok: bool):
            if not ok:
                raise InvalidTriple("triple fails its defining conditions")

        def section(lam: Element) -> Element:   # condition (ii) at lam
            is_unit = (lam - unit).norm() <= tol
            w = triple.section(lam)
            require(is_unit == (off_kernel(w) <= tol * max(1.0, w.norm())))
            if self._hits(w.coords[:, None])[0] < 0:
                covered.append((lam, w))
                self._reps = np.column_stack([self._reps, self._off_kernel(w.coords)])
            return w

        for lam in lams:
            require(lam.is_invertible())
            for lv in (lam * v for v in triple.kernel_basis):
                require(off_kernel(lv) <= tol * max(1.0, lv.norm()))
        sampled = list(zip(lams, map(section, lams)))
        self._samples_covered = len(covered)   # the samples' values lead the table
        for l1, w1 in sampled:
            for l2, w2 in sampled:
                w = section(l1 * l2)
                require(off_kernel(w - w1 - l1 * w2) <= tol * max(1.0, w.norm()))
        self.covered = tuple(covered)
        self._values = np.array([lam.coords for lam, _ in covered]).T

    def eval(self, x: Element) -> Element:
        return x.algebra.element(self._lookup(x.coords[:, None])[:, 0])

    def _off_kernel(self, c: np.ndarray) -> np.ndarray:
        """A (d,) point or a (d, m) block of points projected off the kernel."""
        k = self._kernel
        return c - k.T @ (k @ c) if k.shape[0] else c

    def _hits(self, points: np.ndarray) -> np.ndarray:
        """For each column of a (d, m) block of points, the index of the first
        covered value whose section matches it modulo the kernel, else -1."""
        cx = self._off_kernel(points)
        bound = self.tol * np.fmax(1.0, np.abs(cx).max(axis=0))
        hit = np.full(cx.shape[1], -1)
        for t in reversed(range(self._reps.shape[1])):   # the first match is written last
            hit[np.abs(cx - self._reps[:, t, None]).max(axis=0) <= bound] = t
        return hit

    def _lookup(self, points: np.ndarray) -> np.ndarray:
        """Oracle values at a (d, m) block of points."""
        hit = self._hits(points)
        return np.where(hit >= 0, self._values[:, hit], 0.0)

    def residuals(self, sol: GsSolution, seed: int = 0) -> tuple:
        """``(match, covered)``: the rebuilt map's largest errors at the
        covered sections, each moved by a uniform kernel vector drawn from
        ``seed``.  ``match`` is ``|S(p) - O(p)| / max(1, |S(p)|)`` for the
        solution ``S`` and this oracle ``O``, and ``covered`` is
        ``|O(p + O(p) q) - O(p) O(q)| / max(1, |O(p) O(q)|)`` over every
        ordered pair of the points of covered samples.  A NaN stays NaN.
        """
        k, n = self._kernel, self._samples_covered
        p = np.array([w.coords for _, w in self.covered]).T
        p = p + k.T @ np.random.default_rng(seed).uniform(-0.5, 0.5, (k.shape[0], p.shape[1]))
        o, s = self._lookup(p), sol.eval_block(p)[0]
        i, j = np.divmod(np.arange(n * n), n)
        mul, norm = self._algebra.mul, self._algebra.norm
        prod = mul(o[:, i], o[:, j])
        errors = ((s - o, s), (self._lookup(p[:, i] + mul(o[:, i], p[:, j])) - prod, prod))
        return tuple(float(np.max([norm(e) / max(1.0, norm(v)) for e, v in zip(err.T, val.T)]))
                     for err, val in errors)


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
        if not float(np.max(np.abs(M @ w - target))) <= tol * max(1.0, lam.norm()):
            raise NotInRange("value has no preimage under the solution map")
        return alg.element(w)

    for lam in lambda_samples:
        section(lam)  # fail fast on unreachable samples
    return WjTriple(tuple(basis), tuple(lambda_samples), section)
