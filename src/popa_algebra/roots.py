"""Roots of e^w = 1 + w in the right half plane and the boundary root xi of
e^{-x} = x - 1: the paper's transcendental constants on the complex plane,
in plain ``math``/``cmath``, so the CLI's ``solve-st`` and ``xi`` load no numpy.

Apart from the double root 0, no root lies in the closed left half plane.
Let w = x + iy be a root with x < 0.  The imaginary part of e^w = 1 + w
reads e^x sin y = y.  If y != 0, then sin y != 0 and
|y| = e^x |sin y| < |sin y| <= |y|, which is impossible.  So y = 0 and
e^x = 1 + x, which for real x holds only at x = 0.  On the line x = 0
the real part reads cos y = 1, so y = 2 pi k, and the imaginary part
sin y = y leaves only y = 0.
"""

from __future__ import annotations

import cmath
import math
from typing import List, NamedTuple

TWO_PI = 2.0 * math.pi


class StSolution(NamedTuple):
    """One root w = x + iy of e^w = 1 + w with x > 0."""

    x: float
    y: float
    branch_index: int
    residual: float

    def to_json(self) -> dict:
        return {"x": self.x, "y": self.y, "branch": self.branch_index,
                "residual": self.residual}


def st_residual(x: float, y: float) -> float:
    """|e^w - 1 - w| at w = x + iy."""
    ex = math.exp(x)
    return math.hypot(ex * math.cos(y) - 1.0 - x, ex * math.sin(y) - y)


def st_roots(n_roots: int) -> List[StSolution]:
    """First roots of e^w = 1 + w with positive real part, ordered by y.

    With W = -1 - w the equation reads W e^W = -1/e, so root k is
    -1 - W_{-(k+1)}(-1/e) (Corless et al., "On the Lambert W function",
    1996).  Each starts from the branch's asymptotic series L1 - L2 + L2/L1,
    L1 = log(-1/e) + 2 pi i branch, L2 = log L1, and is polished by Halley's
    iteration on e^w - 1 - w, which rounds the real part correctly more
    often than iterating on W.
    """
    if n_roots < 1:
        raise ValueError("n_roots must be >= 1")
    roots: List[StSolution] = []
    for k in range(1, n_roots + 1):
        l1 = complex(-1.0, math.pi) - 1j * TWO_PI * (k + 1)   # branch -(k+1)
        l2 = cmath.log(l1)
        w = -1.0 - (l1 - l2 + l2 / l1)
        for _ in range(100):
            ew = cmath.exp(w)
            f, fp = ew - 1.0 - w, ew - 1.0
            step = 2.0 * f * fp / (2.0 * fp * fp - f * ew)
            w -= step
            if abs(step) <= 1e-15 * abs(w):
                break
        roots.append(StSolution(w.real, w.imag, int(w.imag // TWO_PI),
                                st_residual(w.real, w.imag)))
    return roots


def xi_root() -> float:
    """The unique root > 1 of e^{-x} = x - 1 (edge of the curve's domain)."""
    f = lambda x: math.exp(-x) - x + 1.0
    lo, hi = 1.0, 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    for _ in range(8):
        x -= f(x) / (-math.exp(-x) - 1.0)
    return x
