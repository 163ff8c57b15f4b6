"""Exponential tilting: the curvilinear direction along which the adjustor
scales, its closed-form inverse, and a guaranteed fixed-point solver.

The tilt of u is T(u) = u (e^{g} - 1)/g with g the derivative of the
solution map at 0 applied to u; spectral points where the relevant ratio
degenerates take their limiting value (t at points where e^z = 1).  Each
solver iterate, and each t of ``radiality_check``, makes one spectral pass.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .algebra import Element, _adopt, log1p_over_scalar, mu_h_scalar, path_scale_scalar
from .errors import LogBranchViolation, NoConvergence, NotOmegaHomogeneous
from .solutions import GsSolution, gamma, rho_of

RESIDUAL_TOL = 1e-12
MAX_ITER_DEFAULT = 200

#: inside guarantee_radius each solver step is at most this times the last
CONTRACTION_BOUND = 0.5

#: spectral points below this are treated as lying in the kernel
KERNEL_EPS = 1e-12


@np.errstate(all="ignore")
def _gamma_and_tilt(sol: GsSolution, u: Element) -> tuple:
    """g = gamma(u), the coordinates of its tilt and h(g), silently as in tilt_T."""
    gu = gamma(sol, u)
    mu, h = gu.apply_scalar(mu_h_scalar)
    return gu, u.algebra.mul(u.coords, mu.coords), h


def _path_and_scale(u: Element, gu: Element, t: float) -> tuple:
    """The tilt path u (e^{tg} - 1)/g and lambda(t) = (e^{tg} - 1)/(e^g - 1)."""
    growth, scale = gu.apply_scalar(lambda z: path_scale_scalar(z, t))
    return u * growth, scale


def tilt_T(sol: GsSolution, u: Element) -> Element:
    """u times the tilting multiplier (e^g - 1)/g; the identity where g = 0.

    Where e^g overflows the result is inf (NaN at a zero of u), silently.
    """
    return _adopt(_gamma_and_tilt(sol, u)[1], u.algebra)


def radiality_check(sol: GsSolution, u: Element, t_grid: Sequence[float]) -> float:
    """Max defect of N(tilt at t) = lambda(t) * N(tilt at 1) over the grid.

    g(u) and rho are computed once: each t costs one evaluation of the map
    and one spectral pass.
    """
    if not all(0 <= t < math.inf for t in t_grid):   # NaN fails too
        raise ValueError("t_grid must be non-negative")
    gu, tilt, _ = _gamma_and_tilt(sol, u)
    alg, unit, rho = u.algebra, sol.algebra.unit().coords, rho_of(sol).coords

    def adjust(x: Element) -> np.ndarray:   # the adjustor S(x) - unit - rho x, rho reused
        return sol.eval(x).coords - unit - alg.mul(rho, x.coords)

    n_t1 = adjust(_adopt(tilt, alg))
    defects = []
    for t in t_grid:
        path, scale = _path_and_scale(u, gu, float(t))
        defects.append(alg.norm(adjust(path) - alg.mul(scale.coords, n_t1)))
    return float(np.max(defects, initial=0.0))   # a NaN defect is NaN, not a pass


def tilt_inverse(sol: GsSolution, v: Element) -> Element:
    """Closed-form solution u of T(u) = v: u = v log(unit + g(v))/g(v).

    Valid for families whose derivative satisfies the power-raising
    property (the linear families); the spectrum of unit + g(v) must avoid
    the closed negative real axis.
    """
    if not sol.omega_homogeneous():
        raise NotOmegaHomogeneous(
            f"closed-form inverse not validated for variant {sol.variant}")
    with np.errstate(all="ignore"):   # as in tilt_T: an overflow is inf
        gv = gamma(sol, v)
    if not (sol.algebra.unit() + gv).in_log_branch():
        raise LogBranchViolation("spectrum of unit + gamma(v) meets (-inf, 0]")
    ratio = gv.apply_scalar(log1p_over_scalar)
    return v * ratio


class TiltResult(NamedTuple):
    """Outcome of the fixed-point tilt solver."""

    u: Element
    iterations: int
    final_residual: float
    guaranteed: bool
    contraction_ratios: tuple = ()

    def to_json(self) -> dict:
        return {"u": self.u.to_json(), "iterations": self.iterations,
                "final_residual": self.final_residual, "guaranteed": self.guaranteed,
                "max_contraction_ratio": max(self.contraction_ratios, default=None),
                "contraction_bound": CONTRACTION_BOUND}


def guarantee_radius(sol: GsSolution) -> float:
    """Ball radius of guaranteed solvability for the fixed-point iteration,
    inside the radius delta where the solver's step is a 1/2-contraction."""
    gnorm = sol.gamma_norm()
    if gnorm == 0.0:
        return math.inf
    try:
        e = math.exp(gnorm)
    except OverflowError:   # the radius is then 0
        e = math.inf
    delta = min(1.0, 1.0 / (3.0 * gnorm * e))
    return min(1.0, delta / 2.0, delta / (2.0 * gnorm * e))


@np.errstate(all="ignore")   # as in tilt_T: an overflow is inf, silently
def tilt_solve_fixed_point(sol: GsSolution, v: Element,
                           max_iter: int = MAX_ITER_DEFAULT) -> TiltResult:
    """Solve T(u) = v by u <- v - u H(u), H = (e^g - 1 - g)/g, until norm(v - T(u))
    < RESIDUAL_TOL * max(1, norm(v)): the residual floor is a few ulps of norm(v).

    Convergence is guaranteed (contraction factor <= 1/2) for norm(v)
    inside the guarantee radius; outside it the solver still attempts and
    reports guaranteed=False.  Raises NoConvergence when the residual is
    not finite (a step that overflows makes it so), grows over five
    consecutive steps or the iteration cap is reached.
    """
    alg, vc, v_norm = v.algebra, v.coords, v.norm()
    guaranteed = v_norm < guarantee_radius(sol)
    tol = RESIDUAL_TOL * max(1.0, v_norm)
    u = v
    _, tilt, h = _gamma_and_tilt(sol, u)   # one pass serves the residual and the next step
    residual = alg.norm(vc - tilt)
    if residual < tol:
        return TiltResult(u, 0, residual, guaranteed)
    prev_step, ratios, growth_streak, prev_residual = None, [], 0, residual
    for it in range(1, max_iter + 1):
        if not math.isfinite(residual):
            raise NoConvergence(f"non-finite residual after {it - 1} iterations")
        u_next = vc - alg.mul(u.coords, h.coords)
        step = alg.norm(u_next - u.coords)
        if prev_step is not None and prev_step > 0.0:
            ratios.append(step / prev_step)
        prev_step = step
        u = _adopt(u_next, alg)
        _, tilt, h = _gamma_and_tilt(sol, u)
        residual = alg.norm(vc - tilt)
        if residual < tol:
            return TiltResult(u, it, residual, guaranteed, tuple(ratios))
        growth_streak = growth_streak + 1 if residual > prev_residual else 0
        prev_residual = residual
        if growth_streak >= 5:
            raise NoConvergence(f"residual grew for 5 consecutive steps (now {residual:.3e})")
    raise NoConvergence(f"no convergence after {max_iter} iterations "
                        f"(residual {residual:.3e})")


class Direction(str, Enum):
    PLUS_UNBOUNDED = "PlusUnbounded"
    MINUS_UNBOUNDED = "MinusUnbounded"
    UNIT_NORM = "UnitNorm"


class UnboundednessVerdict(NamedTuple):
    direction: Direction
    limit_point: Optional[Element]


def unboundedness_direction(sol: GsSolution, u: Element) -> UnboundednessVerdict:
    """Which of the two rays s -> T(+-su) is unbounded.

    Growth is measured only on the spectral coordinates where the
    derivative is nonzero; kernel coordinates grow linearly in both
    directions and carry no information.  In the bounded direction the
    tilt approaches -u/g(u) coordinatewise (reported with zeros on the
    kernel coordinates); verdicts with mixed growth report no limit.
    """
    gu = gamma(sol, u)
    points = gu.spectrum()
    res = points[np.abs(points) > KERNEL_EPS].real
    if res.size == 0 or np.all(np.abs(res) < 1e-9):
        # empty or purely rotational spectrum: norm(e^{g}) = 1, no growth
        return UnboundednessVerdict(Direction.UNIT_NORM, None)

    hi, lo = float(np.max(res)), float(np.min(res))
    plus_grows = hi > 0.0
    minus_grows = lo < 0.0
    if plus_grows and minus_grows:
        # mixed spectrum: both rays unbounded; report the faster one
        direction = (Direction.PLUS_UNBOUNDED if hi >= -lo
                     else Direction.MINUS_UNBOUNDED)
        return UnboundednessVerdict(direction, None)
    direction = Direction.PLUS_UNBOUNDED if plus_grows else Direction.MINUS_UNBOUNDED
    return UnboundednessVerdict(direction, _bounded_limit(u, gu))


# runs only when gamma(u) has a spectral point above KERNEL_EPS
def _bounded_limit(u: Element, gu: Element) -> Element:
    if gu.algebra.componentwise:
        return gu.algebra.element(np.divide(-u.coords, gu.coords, out=np.zeros(u.algebra.dim),
                                            where=np.abs(gu.coords) > KERNEL_EPS))
    w = -u.as_complex() / gu.as_complex()
    return gu.algebra.element([w.real, w.imag])
