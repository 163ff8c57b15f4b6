"""One-shot reference for ``solutions.verify_gs``.

This is the original body of ``verify_gs``: all of X, then all of Y, drawn
up front from one ``default_rng(seed)``, then fed to the kernel in
``block_rows(d)`` slices, the blocks ``verify_gs`` uses (BLAS products,
and so the residual bits, depend on the width of a block).  The streamed
``verify_gs`` must return the same report, bit for bit.
``recording_kernel`` keeps copies of the blocks that ``verify_gs`` hands
the kernel, in the order the kernel was called; ``verify_gs`` shares its
blocks among threads, so ``in_stream_order`` puts them back in the order
of the samples.
"""

import math

import numpy as np

from popa_algebra import _kernels
from popa_algebra.errors import DomainExhausted
from popa_algebra.solutions import (GROUP_REJECT_EPS, GoldieResidualReport,
                                    LinearSolution, rho_of)


def draws(n_samples: int, dim: int, seed: int, box_radius: float):
    """The (X, Y) samples of verify_gs, drawn whole."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-box_radius, box_radius, size=(n_samples, dim))
    Y = rng.uniform(-box_radius, box_radius, size=(n_samples, dim))
    return X, Y


def recording_kernel(mp):
    """Patch the kernel to keep each block's (X, Y) and outputs."""
    calls = []
    real = _kernels.residuals

    def record(sol, rho, X, Y, inv_tol, ws=None):
        # copies: verify_gs reuses its workspace, and so these arrays, block
        # by block, and X and Y sit in the kernel's draw slots, which it overwrites
        drawn = (np.array(X), np.array(Y))
        out = real(sol, rho, X, Y, inv_tol, ws)
        calls.append(drawn + tuple(np.array(a) for a in out))
        return out

    mp.setattr(_kernels, "residuals", record)
    return calls


def in_stream_order(calls, X):
    """Recorded blocks sorted by the place of each block's first X row in X."""
    place = {row.tobytes(): i for i, row in enumerate(X)}
    return sorted(calls, key=lambda c: place[c[0][0].tobytes()])


def verify_gs(sol, n_samples: int = 10000, seed: int = 0,
              box_radius: float = 0.4) -> GoldieResidualReport:
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    X, Y = draws(n_samples, sol.algebra.dim, seed, box_radius)
    rho = rho_of(sol).coords
    if isinstance(sol, LinearSolution):
        unit = sol.algebra.unit().coords
        rho = (unit + sol.gamma_matrix() @ unit) - unit
    rows = _kernels.block_rows(sol.algebra.dim)
    blocks = [_kernels.residuals(sol, rho, X[lo:lo + rows], Y[lo:lo + rows],
                                 GROUP_REJECT_EPS)
              for lo in range(0, n_samples, rows)]
    gs, goldie, valid = (np.concatenate(part) for part in zip(*blocks))
    n_valid = int(valid.sum())
    if n_valid < max(1, math.ceil(0.01 * n_samples)):
        raise DomainExhausted(f"{n_samples - n_valid} of {n_samples} samples rejected")
    idx = int(np.argmax(np.where(valid, gs, -1.0)))
    pair = (sol.algebra.element(X[idx]), sol.algebra.element(Y[idx]))
    return GoldieResidualReport(float(np.max(gs)), float(np.max(goldie)),
                                n_valid, pair)
