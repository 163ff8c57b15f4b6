"""Per-point reference for the functional calculus of ``popa_algebra``.

These are the original scalar functions, one Python call per spectral
point, kept as the oracle that the array formulas in
``popa_algebra.algebra`` and ``popa_algebra.tilting`` must agree with.
They branch on ``isinstance(z, complex)`` and use the ``math`` and
``cmath`` modules, so they share no arithmetic with the numpy code; like
the original, ``math.expm1`` raises OverflowError where e^z overflows.
"""

import cmath
import math

from paper_checks import NotInvertible
from popa_algebra.algebra import SERIES_THRESHOLD, UNITY_EPS
from popa_algebra.tilting import KERNEL_EPS

SERIES_TERMS = 8

_FACTORIALS = [math.factorial(k) for k in range(SERIES_TERMS + 2)]


def cexpm1(z: complex) -> complex:
    """e^z - 1 without cancellation for small z (complex argument)."""
    x, y = z.real, z.imag
    # expm1(x)cos(y) + (cos(y) - 1) + i e^x sin(y); cos(y)-1 = -2 sin^2(y/2)
    s = math.sin(0.5 * y)
    return complex(math.expm1(x) * math.cos(y) - 2.0 * s * s,
                   math.exp(x) * math.sin(y))


def expm1_any(z):
    return cexpm1(z) if isinstance(z, complex) else math.expm1(z)


def mu_scalar(z):
    """(e^z - 1)/z with the limiting value 1 at z = 0."""
    if abs(z) < SERIES_THRESHOLD:
        acc = 0.0
        for k in range(SERIES_TERMS - 1, -1, -1):
            acc = acc * z + 1.0 / _FACTORIALS[k + 1]
        return acc
    return expm1_any(z) / z


def h_scalar(z):
    """(e^z - 1 - z)/z, i.e. mu(z) - 1, stable near 0."""
    if abs(z) < SERIES_THRESHOLD:
        acc = 0.0
        for k in range(SERIES_TERMS, 0, -1):
            acc = acc * z + 1.0 / _FACTORIALS[k + 1]
        return acc * z
    return (expm1_any(z) - z) / z


def log1p_over_scalar(z):
    """log(1 + z)/z with the limiting value 1 at z = 0."""
    if abs(z) < SERIES_THRESHOLD:
        acc = 0.0
        for k in range(SERIES_TERMS - 1, -1, -1):
            acc = acc * (-z) + 1.0 / (k + 1.0)
        return acc
    if isinstance(z, complex):
        return cmath.log(1.0 + z) / z
    return math.log1p(z) / z


def exp_ratio_scalar(z, t: float):
    """(e^{tz} - 1)/(e^z - 1), with the value t wherever e^z = 1."""
    d = expm1_any(z)
    if abs(d) < UNITY_EPS:
        return t
    return expm1_any(t * z) / d


def growth_scalar(z, t: float):
    """(e^{tz} - 1)/z, with the limiting value t at z = 0."""
    return t * mu_scalar(t * z)


def finite_ratio_scalar(z, n: int, m: int):
    """((1 + z/n)^m - 1)/((1 + z/n)^n - 1), m/n on the kernel."""
    if abs(z) < KERNEL_EPS:
        return float(m) / float(n)
    if isinstance(z, complex):
        b = 1.0 + z / n
        den = b ** n - 1.0
        if abs(den) < 1e-12:
            raise NotInvertible(f"(1 + a/n)^n - 1 singular at n={n}")
        return (b ** m - 1.0) / den
    b = 1.0 + z / n
    if b > 0.0:
        lg = math.log1p(z / n)
        den = math.expm1(n * lg)
        if abs(den) < 1e-12:
            raise NotInvertible(f"(1 + a/n)^n - 1 singular at n={n}")
        return math.expm1(m * lg) / den
    den = b ** n - 1.0
    if abs(den) < 1e-12:
        raise NotInvertible(f"(1 + a/n)^n - 1 singular at n={n}")
    return (b ** m - 1.0) / den
