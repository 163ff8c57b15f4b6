"""Plain-loop reference for sigma-matrix validation and partition recovery.

These are the original double-loop implementations, kept as the oracle
that the blocked numpy code in ``popa_algebra.structure`` must agree with
exactly: same verdicts, same parts, same rho, for every tolerance.
"""

from typing import List

import numpy as np

from popa_algebra import ConstraintViolated, PartitionSpec, SigmaMatrix


def rows_equal(m: np.ndarray, i: int, j: int, tol: float) -> bool:
    scale = max(1.0, float(np.max(np.abs(m[i]))), float(np.max(np.abs(m[j]))))
    return float(np.max(np.abs(m[i] - m[j]))) <= tol * scale


def validate_sigma(m: SigmaMatrix, tol: float) -> bool:
    a = m.entries
    d = m.dim
    for i in range(d):
        for j in range(d):
            if abs(a[i, j]) > tol and not rows_equal(a, i, j, tol):
                return False
    return True


def components(m: np.ndarray, tol: float) -> List[List[int]]:
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


def recover_partition(m: SigmaMatrix, tol: float) -> PartitionSpec:
    if not validate_sigma(m, tol):
        raise ConstraintViolated("matrix fails the row-coupling constraint")
    a = m.entries
    parts = components(a, tol)
    rho = np.zeros(m.dim)
    for part in parts:
        rep = part[0]
        for i in part[1:]:
            if not rows_equal(a, rep, i, tol):
                raise ConstraintViolated("coupled rows disagree within a part")
        for j in part:
            rho[j] = a[rep, j]
    return PartitionSpec(tuple(tuple(p) for p in parts), rho)
