"""One-shot reference for ``solutions.verify_gs``.

This is the original body of ``verify_gs``: all of X, then all of Y, drawn
up front from one ``default_rng(seed)``, and one kernel call over every
pair.  The streamed ``verify_gs`` must return the same report, bit for bit.

One known difference: the kernel writes ``rho * x`` over a block of X and
Y whose transpose is already contiguous (d = 1, or a block of one row),
so where such a row is the worst pair this body reports the overwritten
coordinates.  The streamed version draws the worst pair again and reports
the sample itself; compare the two only where no such block occurs.
"""

import math

import numpy as np

from popa_algebra import _kernels
from popa_algebra.errors import DomainExhausted
from popa_algebra.solutions import (GROUP_REJECT_EPS, GoldieResidualReport,
                                    rho_of, sample_box)


def draws(n_samples: int, dim: int, seed: int, box_radius: float):
    """The (X, Y) samples of verify_gs, drawn whole."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-box_radius, box_radius, size=(n_samples, dim))
    Y = rng.uniform(-box_radius, box_radius, size=(n_samples, dim))
    return X, Y


def verify_gs(sol, n_samples: int = 10000, seed: int = 0,
              box_radius: float = 0.4) -> GoldieResidualReport:
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    X = sample_box(sol.algebra, n_samples, box_radius, rng)
    Y = sample_box(sol.algebra, n_samples, box_radius, rng)
    fam, mult, M, w, axis, r, g = sol._kernel_args()
    rho = rho_of(sol).coords
    unit = sol.algebra.unit().coords
    if fam == 0:
        rho = (unit + M @ unit) - unit
    gs, goldie, valid = _kernels.gs_residual_batch(
        fam, mult, M, w, axis, r, g, rho, unit, X, Y, GROUP_REJECT_EPS)
    n_valid = int(valid.sum())
    if n_valid < max(1, math.ceil(0.01 * n_samples)):
        raise DomainExhausted(f"{n_samples - n_valid} of {n_samples} samples rejected")
    idx = int(np.argmax(np.where(valid.astype(bool), gs, -1.0)))
    pair = (sol.algebra.element(X[idx]), sol.algebra.element(Y[idx]))
    return GoldieResidualReport(float(np.max(gs)), float(np.max(goldie)),
                                n_valid, pair)
