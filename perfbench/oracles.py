"""Reference computations the benchmark checks the program against.

Nothing here imports popa_algebra: every formula is written out again in
plain numpy/scipy from its definition, so a fault in the program cannot
hide in its own cross-check.
"""

from __future__ import annotations

import json
import math

import numpy as np

#: residuals of a true solution, relative to the size of the values involved
ROUND_OFF = 1e-11


# ---------------------------------------------------------------------------
# solution families, evaluated on one point
# ---------------------------------------------------------------------------

def family_eval(fam: dict, x: np.ndarray) -> np.ndarray:
    """S(x) for a family described by the benchmark's own dict."""
    kind = fam["kind"]
    if kind == "linear":  # unit + M x on a componentwise algebra
        return 1.0 + fam["M"] @ x
    if kind == "complex_linear":  # 1 + rho z on the complex plane
        w = 1.0 + complex(*fam["rho"]) * complex(x[0], x[1])
        return np.array([w.real, w.imag])
    if kind == "complex_reim":  # 1 + a Re z + b Im z, a real value
        return np.array([1.0 + fam["a"] * x[0] + fam["b"] * x[1], 0.0])
    if kind == "one_exp":
        out = np.ones_like(x)
        out[fam["exp_index"]] = math.exp(float(fam["weights"] @ x))
        return out
    a = fam["axis"]
    base = 1.0 + fam["r"] * x[a] if kind == "affine_power" else x[a]
    out = np.empty(2)
    out[a] = base
    out[1 - a] = base ** fam["g"]
    return out


def _mul(fam: dict, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    if fam["complex"]:
        w = complex(*p) * complex(*q)
        return np.array([w.real, w.imag])
    return p * q


def _norm(fam: dict, p: np.ndarray) -> float:
    return float(math.hypot(p[0], p[1]) if fam["complex"] else np.max(np.abs(p)))


def gs_residual(fam: dict, x: np.ndarray, y: np.ndarray):
    """Residual of S(x + S(x)y) = S(x)S(y), and the size of the terms."""
    sx, sy = family_eval(fam, x), family_eval(fam, y)
    rhs = _mul(fam, sx, sy)
    lhs = family_eval(fam, x + _mul(fam, sx, y))
    return _norm(fam, lhs - rhs), max(1.0, _norm(fam, lhs), _norm(fam, rhs))


# ---------------------------------------------------------------------------
# partitions and coefficient matrices
# ---------------------------------------------------------------------------

def sigma_from_parts(parts, rho: np.ndarray) -> np.ndarray:
    """Coefficient matrix whose row i is rho restricted to i's part."""
    d = rho.shape[0]
    m = np.zeros((d, d))
    for part in parts:
        idx = np.asarray(part)
        m[np.ix_(idx, idx)] = rho[idx][None, :]
    return m


def recover(matrix: np.ndarray, tol: float = 1e-9):
    """Partition (sorted 0-based parts) and rho read off a coupled matrix.

    Parts are the connected components of the coupling graph; rho is the
    row of each part's first index.  Returns None when two coupled rows
    differ, i.e. the matrix is not a solution.
    """
    from scipy.sparse.csgraph import connected_components

    coupled = (np.abs(matrix) > tol) | (np.abs(matrix.T) > tol)
    n, labels = connected_components(coupled, directed=False)
    parts = sorted((np.flatnonzero(labels == k).tolist() for k in range(n)),
                   key=lambda p: p[0])
    rho = np.zeros(matrix.shape[0])
    for part in parts:
        rows = matrix[part]
        scale = max(1.0, float(np.max(np.abs(rows))))
        if float(np.max(np.abs(rows - rows[0]))) > tol * scale:
            return None
        rho[part] = rows[0, part]
    return parts, rho


def expected_structure(parts, rho: np.ndarray):
    """What classification must report for a matrix built from (parts, rho).

    A part whose rho vanishes has no coupling, so it falls apart into
    singletons; the kernel has one dimension per coordinate beyond the
    count of parts that carry a nonzero rho.
    """
    out = []
    live = 0
    for part in parts:
        if np.any(rho[list(part)] != 0.0):
            out.append(sorted(part))
            live += 1
        else:
            out.extend([i] for i in part)
    return sorted(out, key=lambda p: p[0]), rho.copy(), rho.shape[0] - live


# ---------------------------------------------------------------------------
# the tilt
# ---------------------------------------------------------------------------

def tilt(fam: dict, u: np.ndarray) -> np.ndarray:
    """T(u) = u (e^g - 1)/g with g = Gamma u, and the value u where g = 0."""
    if fam["complex"]:
        uz = complex(*u)
        g = fam["gamma_c"] * uz
        w = uz if g == 0 else uz * np.expm1(g) / g
        return np.array([w.real, w.imag])
    g = fam["M"] @ u
    safe = np.where(g == 0.0, 1.0, g)
    return u * np.where(g == 0.0, 1.0, np.expm1(g) / safe)


def unbounded_direction(fam: dict, u: np.ndarray, eps: float = 1e-12,
                        tol: float = 1e-9) -> str:
    """Which ray s -> T(su) grows, from the signs of the real parts of g."""
    if fam["complex"]:
        g = fam["gamma_c"] * complex(*u)
        re = [g.real, g.real] if abs(g) > eps else []
    else:
        g = fam["M"] @ u
        re = [float(z) for z in g if abs(z) > eps]
    if not re or all(abs(z) < tol for z in re):
        return "UnitNorm"
    if max(re) > 0.0 and min(re) < 0.0:
        return "PlusUnbounded" if max(re) >= -min(re) else "MinusUnbounded"
    return "PlusUnbounded" if max(re) > 0.0 else "MinusUnbounded"


# ---------------------------------------------------------------------------
# Lambert-W closed forms (Corless et al., 1996)
# ---------------------------------------------------------------------------

def st_roots(n: int) -> list:
    """The first n roots of e^w = 1 + w with Re w > 0, by increasing Im w.

    w = -1 - W_k(-1/e); the root with the k-th smallest positive
    imaginary part lies on branch -(k + 1).
    """
    from scipy.special import lambertw

    return [complex(-1.0 - lambertw(-math.exp(-1.0), -(k + 1)))
            for k in range(1, n + 1)]


def xi() -> float:
    """The root > 1 of e^{-x} = x - 1, that is 1 + W_0(1/e)."""
    from scipy.special import lambertw

    return float(1.0 + lambertw(math.exp(-1.0), 0).real)


# ---------------------------------------------------------------------------
# strict RFC 8259 JSON
# ---------------------------------------------------------------------------

def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} is not JSON")


def strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)
