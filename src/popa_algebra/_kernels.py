"""Residual kernel for sampled solution-map verification.

Sampling 10^4+ point pairs per solution family dominates the runtime of
the verification suite.  The kernel is plain numpy over one block of
pairs; ``verify_gs`` streams the pairs through it in blocks of
``block_rows(d)``, about ``BLOCK_COORDS`` coordinates each, shared
round-robin among one thread per available CPU (a single block starts no
thread).  A call touches only its own block, so its results, and the
report, do not depend on the number of threads.  A block is
held coordinate-major, as ``(d, rows)`` arrays: every reduction over the
d coordinates is then elementwise on length-``rows`` vectors.  The
solution evaluates a block itself (``GsSolution.eval_block``) and the
algebra multiplies blocks (``AlgebraDescriptor.mul``), so the kernel
holds no family formula; besides the outputs, its working memory is a
few blocks.  Deterministic for a given input.
"""

from __future__ import annotations

import numpy as np

#: coordinates per block: rows = max(256, BLOCK_COORDS // d)
BLOCK_COORDS = 2**16


def block_rows(d: int) -> int:
    """Pairs per block at dimension d."""
    return max(256, BLOCK_COORDS // d)


def _min_spec(componentwise, S):
    if componentwise:
        return np.abs(S).min(axis=0)
    return np.hypot(S[0], S[1])


def _elem_norm(componentwise, V):
    if componentwise:
        return np.abs(V, out=V).max(axis=0)
    return np.hypot(V[0], V[1])


@np.errstate(over="ignore", invalid="ignore")
def residuals(sol, rho, X, Y, inv_tol):
    """Residuals of the composition law and its adjustor equation on one block.

    ``X`` and ``Y`` are ``(rows, d)`` arrays of pairs and ``rho`` the
    adjustor's linear coefficient.  Returns ``(gs, goldie, valid)`` arrays
    of length ``rows``; the residuals are zero wherever ``valid`` is False
    (pair rejected for leaving the group domain).

    Works on (d, rows) copies of X and Y, which are left as they are.
    Each array is dropped, or overwritten in place, once it has been read
    for the last time, so at most six blocks are held at once.
    """
    alg = sol.algebra
    mul, cw = alg.mul, alg.componentwise
    unit = alg.unit().coords[:, None]
    rho = rho[:, None]
    Xb = np.array(X.T, order="C")
    Yb = np.array(Y.T, order="C")
    sx, ok_x = sol.eval_block(Xb)
    sy, ok_y = sol.eval_block(Yb)
    ok = ok_x & ok_y & (_min_spec(cw, sx) > inv_tol) & (_min_spec(cw, sy) > inv_tol)
    Zb = mul(sx, Yb)
    Zb += Xb
    # the adjustor N(p) = S(p) - unit - rho p at x and y
    nx = sx - unit
    nx -= mul(rho, Xb, out=Xb)
    del Xb
    ny = sy - unit
    ny -= mul(rho, Yb, out=Yb)
    del Yb
    sz, ok_z = sol.eval_block(Zb)
    ok = ok & ok_z
    t = mul(sx, sy, out=sy)
    np.subtract(sz, t, out=t)
    gs = np.where(ok, _elem_norm(cw, t), 0.0)
    del sy, t
    nz = sz
    nz -= unit
    nz -= mul(rho, Zb, out=Zb)
    del Zb
    nz -= nx
    nz -= mul(sx, ny, out=ny)
    goldie = np.where(ok, _elem_norm(cw, nz), 0.0)
    return gs, goldie, ok
