"""Batched residual kernel for solution-map verification.

Sampling 10^4+ point pairs per solution family dominates the runtime of
the verification suite.  The kernel is plain numpy, streamed over the
pairs in blocks of ``BLOCK_COORDS`` coordinates.  Each block is held
coordinate-major, as ``(d, rows)`` arrays: every reduction over the d
coordinates is then elementwise on length-``rows`` vectors and the
linear family is one ``M @ Xb``; besides the outputs, the working
memory is a few blocks whatever the number of pairs.  Deterministic for
a given input.

Family codes (``fam``):
    0  linear:        S(x) = unit + M x
    1  exponential:   S_i = 1 except S_k = exp(w . x), w_k = 0
    2  affine power:  d = 2, S_a = 1 + r x_a, S_o = (1 + r x_a)^g
    3  pure power:    d = 2, S_a = x_a, S_o = x_a^g  (x_a > 0)

Multiplication codes (``mult``): 0 componentwise, 1 complex on R^2.
"""

from __future__ import annotations

import numpy as np

_DOMAIN_EPS = 1e-9  # power-form bases this close to 0 are rejected

#: coordinates per block: rows = max(256, BLOCK_COORDS // d)
BLOCK_COORDS = 2**16


def block_rows(d: int) -> int:
    """Pairs per block at dimension d."""
    return max(256, BLOCK_COORDS // d)


def _eval(fam, M, w, axis, r, g, unit, Xb):
    if fam == 0:
        out = M @ Xb
        out += unit
        return out
    out = np.ones_like(Xb)
    if fam == 1:
        out[axis] = np.exp(w @ Xb)
        return out
    base = 1.0 + r * Xb[axis] if fam == 2 else Xb[axis]
    out[axis] = base
    out[1 - axis] = np.where(base > _DOMAIN_EPS, base, 1.0) ** g
    return out


def _in_domain(fam, axis, r, Xb):
    if fam == 2:
        return 1.0 + r * Xb[axis] > _DOMAIN_EPS
    if fam == 3:
        return Xb[axis] > _DOMAIN_EPS
    return True


def _mul(mult, A, B, out=None):
    """Product in the algebra; ``out`` may be ``B``."""
    if mult == 1:
        re = A[0] * B[0] - A[1] * B[1]
        im = A[0] * B[1] + A[1] * B[0]
        out = np.empty_like(B) if out is None else out
        out[0], out[1] = re, im
        return out
    return np.multiply(A, B, out=out)


def _min_spec(mult, S):
    if mult == 1:
        return np.hypot(S[0], S[1])
    return np.abs(S).min(axis=0)


def _elem_norm(mult, V):
    if mult == 1:
        return np.hypot(V[0], V[1])
    return np.abs(V, out=V).max(axis=0)


def _block(fam, mult, M, w, axis, r, g, rho, unit, inv_tol, X, Y, gs, goldie, valid):
    """Residuals of the pairs (X[p], Y[p]), written into the output slices.

    Works on (d, rows) copies of X and Y.  Each array is dropped, or
    overwritten in place, once it has been read for the last time, so at
    most six blocks are held at once.
    """
    Xb = np.ascontiguousarray(X.T)
    Yb = np.ascontiguousarray(Y.T)
    ok = _in_domain(fam, axis, r, Xb) & _in_domain(fam, axis, r, Yb)
    sx = _eval(fam, M, w, axis, r, g, unit, Xb)
    sy = _eval(fam, M, w, axis, r, g, unit, Yb)
    ok = ok & (_min_spec(mult, sx) > inv_tol) & (_min_spec(mult, sy) > inv_tol)
    Zb = _mul(mult, sx, Yb)
    Zb += Xb
    ok = ok & _in_domain(fam, axis, r, Zb)
    # the adjustor N(p) = S(p) - unit - rho p at x and y
    nx = sx - unit
    nx -= _mul(mult, rho, Xb, out=Xb)
    del Xb
    ny = sy - unit
    ny -= _mul(mult, rho, Yb, out=Yb)
    del Yb
    sz = _eval(fam, M, w, axis, r, g, unit, Zb)
    t = _mul(mult, sx, sy, out=sy)
    np.subtract(sz, t, out=t)
    np.copyto(gs, _elem_norm(mult, t), where=ok)
    del sy, t
    nz = sz
    nz -= unit
    nz -= _mul(mult, rho, Zb, out=Zb)
    del Zb
    nz -= nx
    nz -= _mul(mult, sx, ny, out=ny)
    np.copyto(goldie, _elem_norm(mult, nz), where=ok)
    valid[:] = ok


def gs_residual_batch(fam, mult, M, w, axis, r, g, rho, unit, X, Y, inv_tol):
    """Per-pair residuals of the composition law and its adjustor equation.

    Returns ``(gs, goldie, valid)`` arrays of length ``len(X)``; entries of
    the residual arrays are zero wherever ``valid`` is 0 (pair rejected for
    leaving the group domain).
    """
    M = np.asarray(M, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    rho = np.asarray(rho, dtype=np.float64)[:, None]
    unit = np.asarray(unit, dtype=np.float64)[:, None]
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    n, d = X.shape
    gs = np.zeros(n)
    goldie = np.zeros(n)
    valid = np.zeros(n, dtype=np.uint8)
    rows = block_rows(d)
    args = (int(fam), int(mult), M, w, int(axis), float(r), float(g), rho, unit,
            float(inv_tol))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, rows):
            blk = slice(lo, lo + rows)
            _block(*args, X[blk], Y[blk], gs[blk], goldie[blk], valid[blk])
    return gs, goldie, valid
