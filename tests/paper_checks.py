"""The paper's identities, each checked on an input with the library's own
``eval`` and ``gamma``: the induced circle group, the adjustor and its
decomposition, omega-homogeneity, the dichotomy, the Popa isomorphism, the
lambda-scaling and tilt path, and the finite-index exponential-ratio limit.

These are test oracles, not library functions: the tests call them, the
program does not.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from popa_algebra.algebra import Element, path_scale_scalar
from popa_algebra.errors import NotInGroup, PopaAlgebraError
from popa_algebra.solutions import GsSolution, gamma, rho_of
from popa_algebra.tilting import KERNEL_EPS, _path_and_scale


class NotInvertible(PopaAlgebraError):
    """An element a check needs to invert has a spectral point at 0."""


def circle_op(sol: GsSolution, x: Element, y: Element) -> Element:
    """Group operation induced by the solution: x + S(x) y."""
    return x + sol.eval(x) * y


def circle_inv(sol: GsSolution, x: Element) -> Element:
    """Group inverse -x * S(x)^{-1}; x must have invertible image."""
    sx = sol.eval(x)
    if not sx.is_invertible():
        raise NotInGroup("point image is not invertible")
    return -(x * sx.apply_scalar(np.reciprocal))


def adjustor(sol: GsSolution, x: Element) -> Element:
    """Deviation from the affine form: S(x) - unit - rho x."""
    return sol.eval(x) - sol.algebra.unit() - rho_of(sol) * x


def gamma_fd(sol: GsSolution, u: Element) -> Element:
    """Central finite-difference cross-check of the analytic derivative."""
    h = 1e-6
    return (1.0 / (2.0 * h)) * (sol.eval(h * u) - sol.eval((-h) * u))


class DecompositionReport(NamedTuple):
    """Linear/non-linear split of the map at a point.

    ``n_x`` subtracts the derivative term, ``m_x`` the unit-scaled linear
    term; the four defects are the algebra-valued bilinear-form pairings
    that vanish for exact solutions (max-norms reported).
    """

    n_x: Element
    m_x: Element
    orth_defects: tuple


def decomposition_check(sol: GsSolution, x: Element) -> DecompositionReport:
    unit = sol.algebra.unit()
    sx = sol.eval(x)
    gx = sol.gamma(x)
    g1x = sol.gamma(unit) * x
    n_x = sx - unit - gx
    m_x = sx - unit - g1x
    form = lambda a, b: sol.gamma(a * b)                 # <a,b> = gamma(ab)
    form_g = lambda a, b: sol.gamma(a * sol.gamma(b))    # <a,b>_gamma
    defects = (form(gx, n_x).norm(), form_g(gx, n_x).norm(),
               form(gx, m_x).norm(), form_g(g1x, m_x).norm())
    return DecompositionReport(n_x, m_x, defects)


def check_omega_homogeneity(sol: GsSolution, u: Element, k_max: int) -> float:
    """Max defect of the power-raising identity over exponents 0..k_max."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    worst = 0.0
    gu = sol.gamma(u)
    for k in range(k_max + 1):
        lhs = sol.gamma(u * gu.apply_scalar(lambda z: z ** k))
        rhs = gu.apply_scalar(lambda z: z ** (k + 1))
        worst = max(worst, (lhs - rhs).norm())
    return worst


class DichotomyResult(NamedTuple):
    b: Element
    s_of_b: Element


def dichotomy_check(sol: GsSolution, a: Element) -> DichotomyResult:
    """Map a to b = a (unit - S(a))^{-1}; globally defined solutions send b
    to a non-invertible image (zero for the linear families)."""
    unit = sol.algebra.unit()
    w = unit - sol.eval(a)
    if not w.is_invertible():
        raise NotInvertible("unit - S(a) is not invertible")
    b = a * w.apply_scalar(np.reciprocal)
    return DichotomyResult(b, sol.eval(b))


def popa_isomorphism_check(rho: Element, t_grid: Sequence[float]) -> float:
    """Defect of the one-parameter subgroup g(t) = rho^{-1}(e^{t rho} - unit)
    under x o y = x + (unit + rho x) y, over all grid pairs."""
    if not rho.is_invertible():
        raise NotInvertible("rho must be invertible")
    alg = rho.algebra
    unit = alg.unit()
    rho_inv = rho.apply_scalar(np.reciprocal)
    g = {t: rho_inv * ((t * rho).apply_scalar(np.exp) - unit) for t in t_grid}
    worst = 0.0
    for s in t_grid:
        for t in t_grid:
            left = g[s] + (unit + rho * g[s]) * g[t]
            right = rho_inv * (((s + t) * rho).apply_scalar(np.exp) - unit)
            worst = max(worst, (left - right).norm())
    return worst


def lambda_scale(sol: GsSolution, u: Element, t: float) -> Element:
    """Exponential scaling factor (e^{tg} - 1)/(e^g - 1), value t where e^g = 1."""
    return _path_and_scale(u, gamma(sol, u), t)[1]


def tilt_path(sol: GsSolution, u: Element, t: float) -> Element:
    """The tilt at parameter t: u (e^{tg} - 1)/g, linear (t u) on the kernel."""
    return _path_and_scale(u, gamma(sol, u), t)[0]


def contraction_radius(sol: GsSolution) -> float:
    """Ball radius within which the solver's update map is a 1/2-contraction:
    min(1, 1/(3 g e^g)) for a derivative of norm g, 0 where e^g overflows."""
    gnorm = sol.gamma_norm()
    if gnorm == 0.0:
        return math.inf
    try:
        e = math.exp(gnorm)
    except OverflowError:
        e = math.inf
    return min(1.0, 1.0 / (3.0 * gnorm * e))


class RatioLimitResult(NamedTuple):
    """Finite-index approximation errors of the exponential-ratio limit."""

    ns: tuple
    errors: tuple
    limit: Element


@np.errstate(all="ignore")
def _finite_ratio_scalar(z, n: int, m: int):
    """((1 + z/n)^m - 1)/((1 + z/n)^n - 1) per point, m/n on the kernel."""
    b = 1.0 + z / n
    if np.iscomplexobj(z):
        num, den = b ** m - 1.0, b ** n - 1.0
    else:
        # through log1p/expm1 where the base is positive, for accuracy
        lg = np.log1p(z / n)
        num = np.where(b > 0.0, np.expm1(m * lg), b ** m - 1.0)
        den = np.where(b > 0.0, np.expm1(n * lg), b ** n - 1.0)
    kernel = np.abs(z) < KERNEL_EPS
    if np.any(~kernel & (np.abs(den) < 1e-12)):
        raise NotInvertible(f"(1 + a/n)^n - 1 singular at n={n}")
    return np.where(kernel, float(m) / float(n), num / den)


def ratio_limit_check(a: Element, t: float) -> RatioLimitResult:
    """Errors of ((1 + a/n)^{round(tn)} - 1)/((1 + a/n)^n - 1) against its limit.

    The limit is (e^{ta} - 1)/(e^a - 1) spectrally, with the value t at
    spectral points where e^z = 1, at n = 10, 100, 1000 and 10000.
    """
    if not 0 < t < math.inf:   # NaN fails too
        raise ValueError("t must be positive")
    ns = (10, 100, 1000, 10000)
    limit = a.apply_scalar(lambda z: path_scale_scalar(z, t)[1])
    errors = []
    for n in ns:
        m = int(round(t * n))
        approx = a.apply_scalar(lambda z: _finite_ratio_scalar(z, n, m))
        errors.append((approx - limit).norm())
    return RatioLimitResult(ns, tuple(errors), limit)
