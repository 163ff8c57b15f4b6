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
holds no family formula.  Every array it writes is a view into one
``_Workspace``, which ``verify_gs`` allocates per worker in the calling
thread and reuses for each of the worker's blocks: six blocks, three
vectors and two masks, the most the kernel keeps live at once.
``verify_gs`` draws each block's X and Y into two of those blocks, which
the kernel reads before it first writes them.
Deterministic for a given input.
"""

from __future__ import annotations

import numpy as np

#: coordinates per block: rows = max(256, BLOCK_COORDS // d)
BLOCK_COORDS = 2**16


def block_rows(d: int) -> int:
    """Pairs per block at dimension d."""
    return max(256, BLOCK_COORDS // d)


class _Workspace:
    """The buffers of one worker's blocks of up to ``rows`` pairs.

    Each buffer is flat, and a block of m pairs views its first d*m (or m)
    entries: every view is C-contiguous, as a fresh array of its shape
    would be, so a short last block hands BLAS the same operands too.
    The six coordinate buffers are the kernel's blocks; buffers 4 and 5,
    viewed as (m, d) pairs, are also the draw slots of X and Y, which
    ``residuals`` copies out before it writes either.  The three vectors
    are the kernel's ``spec``, ``gs`` and ``goldie``; ``spec`` and
    ``goldie`` double as the complex product's scratch, and ``spec`` is
    free again once ``residuals`` has returned.
    """

    def __init__(self, d: int, rows: int):
        self._d = d
        self._coords = np.empty((6, d * rows))
        self._vectors = np.empty((3, rows))
        self._masks = np.empty((2, rows), dtype=bool)

    def blocks(self, m: int, pairs: bool = False) -> list:
        """The coordinate buffers as (d, m) blocks, or as (m, d) arrays of pairs."""
        shape = (m, self._d) if pairs else (self._d, m)
        return [c[:m * self._d].reshape(shape) for c in self._coords]

    def vectors(self, m: int) -> np.ndarray:
        return self._vectors[:, :m]

    def masks(self, m: int) -> np.ndarray:
        return self._masks[:, :m]


def _min_spec(componentwise, S, tmp, out):
    if componentwise:
        return np.abs(S, out=tmp).min(axis=0, out=out)
    return np.hypot(S[0], S[1], out=out)


def _elem_norm(componentwise, V, out):
    if componentwise:
        return np.abs(V, out=V).max(axis=0, out=out)
    return np.hypot(V[0], V[1], out=out)


@np.errstate(over="ignore", invalid="ignore")
def residuals(sol, rho, X, Y, inv_tol, ws=None):
    """Residuals of the composition law and its adjustor equation on one block.

    ``X`` and ``Y`` are ``(rows, d)`` arrays of pairs and ``rho`` the
    adjustor's linear coefficient.  Returns ``(gs, goldie, valid)`` arrays
    of length ``rows``; the residuals are zero wherever ``valid`` is False
    (pair rejected for leaving the group domain).

    Works on (d, rows) copies of X and Y.  The results, and every
    intermediate, are views into ``ws``, a ``_Workspace`` for at least
    ``rows`` pairs (made afresh when omitted): they hold until the
    workspace's next block.  Each block is overwritten in place once it has
    been read for the last time, so six are enough.  X and Y may be the
    workspace's draw slots, ``ws.blocks(rows, pairs=True)[4:]``, which are
    copied before they are first written; any other X and Y are left as
    they are.
    """
    alg = sol.algebra
    cw = alg.componentwise
    m = X.shape[0]
    ws = _Workspace(alg.dim, m) if ws is None else ws
    Xb, Yb, sx, sy, Zb, nx = ws.blocks(m)
    spec, gs, goldie = ws.vectors(m)
    ok, dom = ws.masks(m)

    def mul(a, b, out):
        # spec is read for the last time before the first product, and
        # goldie is written after the last one
        return alg.mul(a, b, out=out, scratch=(spec, goldie))

    unit = alg.unit().coords[:, None]
    rho = rho[:, None]
    np.copyto(Xb, X.T)
    np.copyto(Yb, Y.T)
    _, ok_x = sol.eval_block(Xb, out=sx, ok=dom)
    np.greater(_min_spec(cw, sx, Zb, spec), inv_tol, out=ok)
    ok &= ok_x
    _, ok_y = sol.eval_block(Yb, out=sy, ok=dom)
    ok &= ok_y
    ok &= np.greater(_min_spec(cw, sy, Zb, spec), inv_tol, out=dom)
    mul(sx, Yb, out=Zb)
    Zb += Xb
    # the adjustor N(p) = S(p) - unit - rho p at x and y
    np.subtract(sx, unit, out=nx)
    nx -= mul(rho, Xb, out=Xb)
    ny = np.subtract(sy, unit, out=Xb)
    ny -= mul(rho, Yb, out=Yb)
    sz, ok_z = sol.eval_block(Zb, out=Yb, ok=dom)
    ok &= ok_z
    t = mul(sx, sy, out=sy)
    np.subtract(sz, t, out=t)
    _elem_norm(cw, t, gs)
    nz = sz
    nz -= unit
    nz -= mul(rho, Zb, out=Zb)
    nz -= nx
    nz -= mul(sx, ny, out=ny)
    _elem_norm(cw, nz, goldie)
    rejected = np.logical_not(ok, out=dom)
    np.copyto(gs, 0.0, where=rejected)
    np.copyto(goldie, 0.0, where=rejected)
    return gs, goldie, ok
