"""The residual kernel must agree with the element ops, block by block."""

import numpy as np
import pytest

import verify_oracle as oracle
from popa_algebra import (CanonicalSolution, ComplexReImSolution,
                          DegenerateExpSolution, DegenerateForm,
                          IdempotentSolution, PartitionSolution, PartitionSpec,
                          complex_plane, grid_interval, hadamard, rho_of,
                          verify_gs)
from popa_algebra import _kernels
from popa_algebra.errors import NotInGroup
from popa_algebra.solutions import GROUP_REJECT_EPS


def _zoo():
    A2, A3 = hadamard(2), hadamard(3)
    return [
        CanonicalSolution(A3.element([0.8, -0.6, 0.3])),
        CanonicalSolution(complex_plane().element([0.5, 0.7])),
        PartitionSolution(PartitionSpec(((0, 1), (2,)), np.array([1.0, 2.0, 3.0]))),
        DegenerateExpSolution(DegenerateForm.ONE_EXP, axis=0, gamma_exp=1.3),
        DegenerateExpSolution(DegenerateForm.AFFINE_POWER, axis=1, rho=0.7,
                              gamma_exp=1.8),
        DegenerateExpSolution(DegenerateForm.PURE_POWER, axis=0, gamma_exp=1.5),
        ComplexReImSolution(0.4, 1.5),
        IdempotentSolution([A2.element([1, 0])], [1.0, 0.0], A2),
    ]


@pytest.mark.parametrize("sol", _zoo(), ids=lambda s: s.variant + "/" +
                         getattr(s, "form", type("", (), {"value": ""})).value)
def test_kernel_matches_element_path(sol):
    # independent slow route: evaluate the residuals with Element arithmetic
    rng = np.random.default_rng(7)
    d = sol.algebra.dim
    X = rng.uniform(-0.4, 0.4, size=(40, d))
    Y = rng.uniform(-0.4, 0.4, size=(40, d))
    rho_el = rho_of(sol)
    unit = sol.algebra.unit()
    gs, goldie, valid = _kernels.residuals(sol, rho_el.coords, X, Y, GROUP_REJECT_EPS)
    for p in range(X.shape[0]):
        if not valid[p]:
            continue
        x, y = sol.algebra.element(X[p]), sol.algebra.element(Y[p])
        sx, sy = sol.eval(x), sol.eval(y)
        z = x + sx * y
        sz = sol.eval(z)
        ref_gs = (sz - sx * sy).norm()
        n = lambda pt, spt: spt - unit - rho_el * pt
        ref_goldie = (n(z, sz) - n(x, sx) - sx * n(y, sy)).norm()
        assert abs(gs[p] - ref_gs) < 1e-13
        assert abs(goldie[p] - ref_goldie) < 1e-13


def _boundary_zoo():
    grid = np.linspace(0.01, 0.99, 64)
    parts64 = tuple(tuple(range(k, 64, 8)) for k in range(8))
    rho64 = np.linspace(-1.0, 1.0, 64) / 8
    return [
        CanonicalSolution(complex_plane().element([0.5, 0.7])),
        DegenerateExpSolution(DegenerateForm.ONE_EXP, axis=0, gamma_exp=1.3),
        DegenerateExpSolution(DegenerateForm.PURE_POWER, axis=0, gamma_exp=1.5),
        PartitionSolution(PartitionSpec(((0, 3), (1, 2, 5), (4,)),
                                        np.array([0.4, -0.3, 0.2, -0.35, 0.5, 0.15]))),
        PartitionSolution(PartitionSpec(parts64, rho64), grid_interval(grid)),
    ]


@pytest.mark.parametrize("sol", _boundary_zoo(),
                         ids=lambda s: f"{s.variant}-d{s.algebra.dim}")
def test_block_boundaries_match_element_path(sol, monkeypatch):
    # verify_gs over two full blocks and 5 pairs more; the 8 pairs on each
    # side of both block boundaries are checked against Element
    # arithmetic, their accept/reject verdict included
    d = sol.algebra.dim
    rows = max(256, _kernels.BLOCK_COORDS // d)
    n = 2 * rows + 5
    calls = oracle.recording_kernel(monkeypatch)
    verify_gs(sol, n, seed=11, box_radius=0.4)
    X1, Y1 = oracle.draws(n, d, 11, 0.4)
    calls = oracle.in_stream_order(calls, X1)
    assert [len(c[0]) for c in calls] == [rows, rows, 5]
    X, Y, gs, goldie, valid = (np.concatenate(part) for part in zip(*calls))
    assert X.tobytes() == X1.tobytes()
    assert Y.tobytes() == Y1.tobytes()
    rho_el = rho_of(sol)
    unit = sol.algebra.unit()
    assert gs.shape == goldie.shape == valid.shape == (n,)
    edges = [*range(rows - 8, rows + 8), *range(2 * rows - 8, n)]
    assert valid[edges].any()
    for p in edges:
        x, y = sol.algebra.element(X[p]), sol.algebra.element(Y[p])
        try:
            sx, sy = sol.eval(x), sol.eval(y)
            z = x + sx * y
            sz = sol.eval(z)
            in_group = min(np.abs(sx.spectrum()).min(),
                           np.abs(sy.spectrum()).min()) > GROUP_REJECT_EPS
        except NotInGroup:
            in_group = False
        assert bool(valid[p]) == in_group
        if not in_group:
            assert gs[p] == goldie[p] == 0.0
            continue
        n_of = lambda pt, spt: spt - unit - rho_el * pt
        assert abs(gs[p] - (sz - sx * sy).norm()) < 1e-13
        assert abs(goldie[p] - (n_of(z, sz) - n_of(x, sx) - sx * n_of(y, sy)).norm()) < 1e-13


@pytest.mark.parametrize("sol, rows", [
    (CanonicalSolution(hadamard(1).element([0.3])), 40),
    (CanonicalSolution(hadamard(2).element([0.8, -0.6])), 1),
], ids=["d1", "one-row"])
def test_kernel_leaves_its_inputs_alone(sol, rows):
    # the transposes of these blocks are contiguous views of X and Y
    rng = np.random.default_rng(3)
    X = rng.uniform(-0.4, 0.4, size=(rows, sol.algebra.dim))
    Y = rng.uniform(-0.4, 0.4, size=(rows, sol.algebra.dim))
    x0, y0 = X.tobytes(), Y.tobytes()
    _kernels.residuals(sol, rho_of(sol).coords, X, Y, GROUP_REJECT_EPS)
    assert X.tobytes() == x0
    assert Y.tobytes() == y0


@pytest.mark.parametrize("sol", _zoo(), ids=lambda s: s.variant + "/" +
                         getattr(s, "form", type("", (), {"value": ""})).value)
def test_kernel_reads_pairs_from_its_draw_slots(sol):
    # verify_gs draws X and Y into two of the kernel's own blocks; the
    # kernel must copy them out before it writes there.  A full block, then
    # a short last block through the same, now stale, workspace.
    d = sol.algebra.dim
    rows = _kernels.block_rows(d)
    rho = rho_of(sol).coords
    ws = _kernels._Workspace(d, rows)
    rng = np.random.default_rng(5)
    for m in (rows, rows // 3 + 1):
        X = rng.uniform(-0.4, 0.4, size=(m, d))
        Y = rng.uniform(-0.4, 0.4, size=(m, d))
        want = [a.tobytes() for a in
                _kernels.residuals(sol, rho, X.copy(), Y.copy(), GROUP_REJECT_EPS)]
        slot_x, slot_y = ws.blocks(m, pairs=True)[4:]
        np.copyto(slot_x, X)
        np.copyto(slot_y, Y)
        gs, goldie, valid = _kernels.residuals(sol, rho, slot_x, slot_y, GROUP_REJECT_EPS, ws)
        assert [gs.tobytes(), goldie.tobytes(), valid.tobytes()] == want
        if getattr(sol, "form", None) is DegenerateForm.PURE_POWER:
            assert 0 < np.count_nonzero(valid) < m
