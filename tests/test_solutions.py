"""Solution families: evaluation, group structure, adjustor, verification."""

import json
import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

import verify_oracle as oracle
from paper_checks import (NotInvertible, adjustor, check_omega_homogeneity, circle_inv, circle_op,
                          decomposition_check, dichotomy_check, gamma_fd,
                          popa_isomorphism_check)
from popa_algebra import (CanonicalSolution, ComplexReImSolution,
                          ConstraintViolated, DegenerateExpSolution,
                          DegenerateForm, DimensionMismatch, DomainExhausted,
                          IdempotentSolution,
                          LinearCandidate, LinearSolution, NotInGroup,
                          NotOmegaHomogeneous,
                          PartitionSolution, PartitionSpec,
                          complex_plane, gamma, hadamard,
                          grid_interval, rho_of, solution_from_json, tilt_inverse,
                          verify_gs)
from popa_algebra import _kernels, solutions
from popa_algebra.errors import NotDifferentiable
from conftest import random_partition_spec

E = math.e
A1, A2, A3 = hadamard(1), hadamard(2), hadamard(3)


def codependent(s1=1.0, s2=2.0):
    return PartitionSolution(PartitionSpec(((0, 1),), np.array([s1, s2])))


def one_exp_2d(g=1.0):
    # components (1, e^{g x_1})
    return DegenerateExpSolution(DegenerateForm.ONE_EXP, axis=0, gamma_exp=g)


def exp_3d():
    # components (1, 1, e^{x_1 + x_2})
    return DegenerateExpSolution(DegenerateForm.ONE_EXP, weights=[1.0, 1.0, 0.0],
                                 exp_index=2, algebra=A3)


def variant_zoo():
    return [
        CanonicalSolution(A2.element([0.8, -0.6])),
        CanonicalSolution(complex_plane().element([0.5, 0.7])),
        codependent(),
        PartitionSolution(PartitionSpec(((0,), (1,), (2,)), np.array([1.0, 0.5, -0.7])),
                          A3),
        one_exp_2d(1.3),
        exp_3d(),
        DegenerateExpSolution(DegenerateForm.AFFINE_POWER, axis=0, rho=0.7,
                              gamma_exp=1.8),
        ComplexReImSolution(0.4, 1.5),
        IdempotentSolution([A2.element([1, 0]), A2.element([0, 1])], [1.0, 1.0], A2),
        LinearCandidate([[0.6, -1.1], [0.6, -1.1]]),   # rows coupled: a solution
    ]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_canonical():
    sol = CanonicalSolution(A2.element([1, 1]))
    assert np.allclose(sol.eval(A2.element([1, 2])).coords, [2, 3])
    assert np.allclose(sol.eval(A2.element([0.0, 0.0])).coords, [1, 1])


def test_gamma_on_singleton_parts_keeps_the_sign_of_zero():
    # rho * x, with no part sum: a scatter-add would turn -1 * 0.0 into +0.0
    x = A3.element([0.0, -0.0, 1.0])
    for sol in (CanonicalSolution(A3.element([-1.0, 2.0, 0.5])),
                PartitionSolution(PartitionSpec(((0,), (1,), (2,)), [-1.0, 2.0, 0.5]))):
        got = sol.gamma(x).coords
        assert got.tolist() == [0.0, 0.0, 0.5]
        assert np.signbit(got).tolist() == [True, True, False]


def test_eval_codependent_instance():
    sol = codependent(1.0, 2.0)
    assert np.allclose(sol.eval(A2.element([1, 3])).coords, [8, 8])


def test_eval_exponential_form():
    sol = one_exp_2d(1.0)
    got = sol.eval(A2.element([1, 5])).coords
    assert np.allclose(got, [1.0, E])


def test_eval_exponential_form_overflows_to_inf_silently():
    # math.exp raises OverflowError at e^1000; eval gives inf, as eval_block does
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = one_exp_2d(1.0).eval(A2.element([1000.0, 0.0])).coords
    assert got.tolist() == [1.0, math.inf]


def test_linear_constructors_match_their_closed_forms():
    # each constructor builds one unit + M x map; it must agree with the
    # family's own formula, evaluated with plain Element arithmetic
    C = complex_plane()
    rho, rho_c = A3.element([0.8, -0.6, 0.3]), C.element([0.5, 0.7])
    spec = PartitionSpec(((0, 2), (1,)), np.array([1.0, -0.5, 0.25]))
    part_matrix = np.array([[1.0, 0.0, 0.25], [0.0, -0.5, 0.0], [1.0, 0.0, 0.25]])
    idems = [A3.element([1, 0, 1]), A3.element([0, 1, 0])]
    sigma = np.array([0.3, -1.2, 0.9])
    matrix = np.array([[0.5, -1.0, 2.0], [1.5, 0.25, -0.75], [0.0, 3.0, 1.0]])
    cases = [
        (CanonicalSolution(rho), lambda x: A3.unit() + rho * x),
        (CanonicalSolution(rho_c), lambda x: C.unit() + rho_c * x),
        (PartitionSolution(spec), lambda x: A3.element(1.0 + part_matrix @ x.coords)),
        (ComplexReImSolution(0.4, 1.5),
         lambda x: C.element([1.0 + 0.4 * x.coords[0] + 1.5 * x.coords[1], 0.0])),
        (IdempotentSolution(idems, sigma, A3),
         lambda x: A3.unit() + sum((float(sigma @ (e * x).coords) * e for e in idems),
                                   A3.element([0.0, 0.0, 0.0]))),
        (LinearCandidate(matrix), lambda x: A3.element(1.0 + matrix @ x.coords)),
    ]
    rng = np.random.default_rng(31)
    for sol, closed_form in cases:
        for _ in range(200):
            x = sol.algebra.element(rng.uniform(-2.0, 2.0, sol.algebra.dim))
            want = closed_form(x)
            assert (sol.eval(x) - want).norm() <= 1e-15 * max(1.0, want.norm())


def test_linear_gamma_matrix_is_shared_and_read_only():
    for sol in variant_zoo():
        if sol.variant == "DegenerateExp":
            continue
        M = sol.gamma_matrix()
        assert M is sol.gamma_matrix()
        with pytest.raises(ValueError):
            M[0, 0] = 1.0


def test_tilt_inverse_rejects_linear_candidate():
    # even a candidate whose rows are coupled is not validated for the
    # closed-form inverse, unlike the same matrix built as a partition
    cand = LinearCandidate([[1.0, 2.0], [1.0, 2.0]])
    assert not cand.omega_homogeneous()
    assert codependent(1.0, 2.0).omega_homogeneous()
    with pytest.raises(NotOmegaHomogeneous):
        tilt_inverse(cand, A2.element([0.01, 0.02]))


def test_unit_image_for_every_variant():
    for sol in variant_zoo():
        zero = sol.algebra.element(np.zeros(sol.algebra.dim))
        assert (sol.eval(zero) - sol.algebra.unit()).norm() < 1e-15


def test_pure_power_domain():
    sol = DegenerateExpSolution(DegenerateForm.PURE_POWER, axis=0, gamma_exp=2.0)
    got = sol.eval(A2.element([2.0, 7.0])).coords
    assert np.allclose(got, [2.0, 4.0])
    for base in (-1.0, 0.0, 5e-10, 1e-9):   # eval_block's domain: base > 1e-9
        with pytest.raises(NotInGroup):
            sol.eval(A2.element([base, 0.1]))
    with pytest.raises(NotDifferentiable):
        sol.gamma_matrix()


@pytest.mark.parametrize("kwargs", [
    {"form": DegenerateForm.ONE_EXP, "axis": 2},
    {"form": DegenerateForm.ONE_EXP, "axis": -1},
    {"form": DegenerateForm.AFFINE_POWER, "axis": 2},
    {"form": DegenerateForm.ONE_EXP, "weights": [1.0, 0.0], "exp_index": 2},
    # a negative index used to pick the last component
    {"form": DegenerateForm.ONE_EXP, "weights": [1.0, 0.0], "exp_index": -1},
], ids=["one-exp-axis-2", "one-exp-axis-minus-1", "affine-axis-2",
        "exp-index-2", "exp-index-minus-1"])
def test_degenerate_indices_must_lie_in_the_dimension(kwargs):
    with pytest.raises(DimensionMismatch):
        DegenerateExpSolution(**kwargs)


# ---------------------------------------------------------------------------
# group operation
# ---------------------------------------------------------------------------

def test_circle_scalar_example():
    sol = CanonicalSolution(A1.element([1.0]))
    x, y = A1.element([1.0]), A1.element([2.0])
    assert circle_op(sol, x, y).coords[0] == 5.0
    inv = circle_inv(sol, x)
    assert inv.coords[0] == -0.5
    assert abs(circle_op(sol, x, inv).coords[0]) < 1e-15


def test_circle_identity_and_inverse_random():
    rng = np.random.default_rng(2)
    for sol in variant_zoo():
        d = sol.algebra.dim
        for _ in range(25):
            x = sol.algebra.element(rng.uniform(-0.3, 0.3, d))
            y = sol.algebra.element(rng.uniform(-0.3, 0.3, d))
            z = sol.algebra.element(rng.uniform(-0.3, 0.3, d))
            assert (circle_op(sol, x, sol.algebra.element(np.zeros(d))) - x).norm() < 1e-14
            assert circle_op(sol, circle_inv(sol, x), x).norm() < 1e-10
            lhs = circle_op(sol, circle_op(sol, x, y), z)
            rhs = circle_op(sol, x, circle_op(sol, y, z))
            assert (lhs - rhs).norm() < 1e-10
            hom = sol.eval(circle_op(sol, x, y)) - sol.eval(x) * sol.eval(y)
            assert hom.norm() < 1e-10


def test_circle_inv_requires_invertible_image():
    sol = CanonicalSolution(A1.element([1.0]))
    with pytest.raises(NotInGroup):
        circle_inv(sol, A1.element([-1.0]))


# ---------------------------------------------------------------------------
# linear offset and adjustor
# ---------------------------------------------------------------------------

def test_rho_and_adjustor_codependent():
    sol = codependent(1.0, 2.0)
    assert np.allclose(rho_of(sol).coords, [3, 3])
    # (x2 - x1) * (s2, -s1) at x = (1, 3)
    assert np.allclose(adjustor(sol, A2.element([1, 3])).coords, [4, -2])


def test_rho_and_adjustor_exponential():
    sol = one_exp_2d(1.0)
    assert np.allclose(rho_of(sol).coords, [0, E - 1])
    assert np.allclose(adjustor(sol, A2.element([1, 0])).coords, [0, E - 1])


def test_adjustor_vanishes_at_unit_and_zero():
    for sol in variant_zoo():
        assert adjustor(sol, sol.algebra.unit()).norm() < 1e-12
        zero = sol.algebra.element(np.zeros(sol.algebra.dim))
        assert adjustor(sol, zero).norm() < 1e-15


def test_adjustor_reconstructs_map_exactly():
    rng = np.random.default_rng(3)
    for sol in variant_zoo():
        rho = rho_of(sol)
        unit = sol.algebra.unit()
        for _ in range(10):
            x = sol.algebra.element(rng.uniform(-0.4, 0.4, sol.algebra.dim))
            recon = unit + rho * x + adjustor(sol, x)
            assert (recon - sol.eval(x)).norm() < 1e-14


def test_kernel_closure_under_image_scaling():
    # images of group points map kernel members back into the kernel
    sol = codependent(1.0, 2.0)
    kernel_dir = A2.element([2.0, -1.0])  # tau = s1*2 - s2*1 = 0
    rng = np.random.default_rng(4)
    for _ in range(50):
        z = A2.element(rng.uniform(-0.4, 0.4, 2))
        a = float(rng.uniform(-2, 2)) * kernel_dir
        assert (sol.eval(sol.eval(z) * a) - A2.unit()).norm() < 1e-10


# ---------------------------------------------------------------------------
# sampled verification
# ---------------------------------------------------------------------------

def test_verify_gs_exact_families():
    sol = CanonicalSolution(A2.element([1.0, 1.0]))
    rep = verify_gs(sol, 10000, seed=7, box_radius=0.4)
    assert rep.max_gs_residual < 1e-12
    assert rep.max_goldie_residual < 1e-12
    assert rep.samples_tested > 9000


def test_verify_gs_exponential_3d():
    rep = verify_gs(exp_3d(), 10000, seed=7, box_radius=0.4)
    assert rep.max_gs_residual < 1e-10


def test_verify_gs_rejects_bad_matrix():
    # by hand at x = y = (0.1, 0.1): S(x) = (1.3, 1.7), x o y = (0.23, 0.27),
    # S(x o y) = (1.77, 2.77) vs S(x)S(y) = (1.69, 2.89): residual 0.12
    cand = LinearCandidate([[1.0, 2.0], [3.0, 4.0]])
    x = A2.element([0.1, 0.1])
    z = circle_op(cand, x, x)
    res = (cand.eval(z) - cand.eval(x) * cand.eval(x)).norm()
    assert abs(res - 0.12) < 1e-12
    rep = verify_gs(cand, 2000, seed=7, box_radius=0.4)
    assert rep.max_gs_residual > 1e-3


def test_verify_gs_deterministic():
    sol = codependent()
    a = verify_gs(sol, 3000, seed=11)
    b = verify_gs(sol, 3000, seed=11)
    assert a.max_gs_residual == b.max_gs_residual
    assert np.array_equal(a.worst_pair[0].coords, b.worst_pair[0].coords)
    assert a == b and a != verify_gs(sol, 3000, seed=12)


def test_verify_gs_domain_exhausted():
    sol = DegenerateExpSolution(DegenerateForm.PURE_POWER, axis=0, gamma_exp=1.5)
    with pytest.raises(DomainExhausted):
        verify_gs(sol, 500, seed=1, box_radius=1e-12)


def test_pure_power_is_not_a_solution():
    # the listed "power of the driving coordinate" form genuinely violates
    # the law: at a = b = (1, 1), S(a o b)_1 = 2 while (S(a)S(b))_1 = 1
    sol = DegenerateExpSolution(DegenerateForm.PURE_POWER, axis=0, gamma_exp=1.5)
    a = A2.element([1.0, 1.0])
    z = circle_op(sol, a, a)
    assert abs((sol.eval(z) - sol.eval(a) * sol.eval(a)).coords[0] - 1.0) < 1e-12
    rep = verify_gs(sol, 4000, seed=5, box_radius=0.4)
    assert rep.max_gs_residual > 1e-2


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=hst.sampled_from([0, 3, 14, 2**31 - 1]) | hst.integers(0, 2**63),
       d=hst.sampled_from([1, 2, 6, 64]),
       size=hst.sampled_from(["1", "small", "rows-1", "rows", "rows+1", "blocks"]),
       radius=hst.sampled_from([0.4, 3.0]))
def test_streamed_samples_equal_one_shot_draws(seed, d, size, radius):
    rows = _kernels.block_rows(d)
    n = {"1": 1, "small": 5, "rows-1": rows - 1, "rows": rows, "rows+1": rows + 1,
         "blocks": 3 * rows + 7}[size]
    rho = np.random.default_rng(seed).uniform(-1.0, 1.0, d)
    sol = CanonicalSolution(hadamard(d).element(rho))
    with pytest.MonkeyPatch.context() as mp:
        calls = oracle.recording_kernel(mp)
        rep = verify_gs(sol, n, seed=seed, box_radius=radius)
    X, Y = oracle.draws(n, d, seed, radius)
    calls = oracle.in_stream_order(calls, X)
    assert all(len(c[0]) <= rows for c in calls)
    assert np.concatenate([c[0] for c in calls]).tobytes() == X.tobytes()
    assert np.concatenate([c[1] for c in calls]).tobytes() == Y.tobytes()
    gs = np.concatenate([c[2] for c in calls])
    valid = np.concatenate([c[4] for c in calls]).astype(bool)
    idx = int(np.argmax(np.where(valid, gs, -1.0)))
    assert rep.worst_pair[0].coords.tobytes() == X[idx].tobytes()
    assert rep.worst_pair[1].coords.tobytes() == Y[idx].tobytes()


def _grid64():
    grid = np.arange(1, 65) / 65.0
    parts = tuple(tuple(range(k, 64, 8)) for k in range(8))
    return PartitionSolution(PartitionSpec(parts, np.linspace(-0.1, 0.1, 64)),
                             grid_interval(grid))


PURE_POWER = DegenerateExpSolution(DegenerateForm.PURE_POWER, axis=0, gamma_exp=1.5)

#: (solution, seed, box radius); pairs per case: two blocks and a bit
REFERENCE_CASES = [(sol, 5, 0.4) for sol in variant_zoo()] + [
    (PURE_POWER, 5, 0.4),
    # d = 1: every block's transpose is contiguous, and the kernel copies it
    (CanonicalSolution(A1.element([0.3])), 2, 0.4),
    (_grid64(), 6, 0.4),
    # exp overflows on part of the box: the worst pair is the first NaN
    (one_exp_2d(1.3), 0, 1000.0),
    # the control's worst pair lies in the second block (row 56580)
    (PURE_POWER, 4, 0.4),
]


@pytest.mark.parametrize("sol, seed, radius", REFERENCE_CASES,
                         ids=lambda v: getattr(v, "variant", None))
def test_verify_gs_matches_one_shot_reference(sol, seed, radius):
    n = 2 * _kernels.block_rows(sol.algebra.dim) + 5
    got = json.dumps(verify_gs(sol, n, seed=seed, box_radius=radius).to_json())
    want = json.dumps(oracle.verify_gs(sol, n, seed=seed, box_radius=radius).to_json())
    assert got == want


def test_reference_cases_reach_nan_and_a_later_block():
    n = 2 * _kernels.block_rows(2) + 5
    rep = verify_gs(one_exp_2d(1.3), n, seed=0, box_radius=1000.0)
    assert math.isnan(rep.max_gs_residual)
    rep = verify_gs(PURE_POWER, n, seed=4, box_radius=0.4)
    X, _ = oracle.draws(n, 2, 4, 0.4)
    assert np.flatnonzero((X == rep.worst_pair[0].coords).all(axis=1))[0] >= _kernels.block_rows(2)


#: solutions whose reports must not depend on the number of verify workers
WORKER_CASES = [(sol, 5, 0.4) for sol in variant_zoo()] + [
    (PURE_POWER, 5, 0.4),
    (one_exp_2d(1.3), 0, 1000.0),   # the worst pair is the first NaN
]


@pytest.fixture
def threads_switch_often():
    """Hand the interpreter lock over every microsecond while the test runs."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


@pytest.mark.parametrize("sol, seed, radius", WORKER_CASES,
                         ids=lambda v: getattr(v, "variant", None))
def test_verify_gs_report_does_not_depend_on_worker_count(sol, seed, radius,
                                                          monkeypatch,
                                                          threads_switch_often):
    # six blocks: with five workers the first one takes two
    n = 5 * _kernels.block_rows(sol.algebra.dim) + 5
    want = json.dumps(oracle.verify_gs(sol, n, seed=seed, box_radius=radius).to_json())
    for workers in (1, 2, 3, 5):
        monkeypatch.setattr(solutions, "_cpu_count", lambda: workers)
        got = json.dumps(verify_gs(sol, n, seed=seed, box_radius=radius).to_json())
        assert got == want, workers


def test_verify_gs_domain_exhausted_does_not_depend_on_worker_count(monkeypatch):
    n = 5 * _kernels.block_rows(2) + 5
    messages = set()
    for workers in (1, 2, 3, 5):
        monkeypatch.setattr(solutions, "_cpu_count", lambda: workers)
        with pytest.raises(DomainExhausted) as err:
            verify_gs(PURE_POWER, n, seed=1, box_radius=1e-12)
        messages.add(str(err.value))
    assert messages == {f"{n} of {n} samples rejected"}


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
def test_verify_gs_reraises_a_worker_threads_kernel_error(workers, monkeypatch,
                                                          threads_switch_often):
    # blocks 1 and 2 fail; with two workers block 1 is a thread's, with
    # three both are: the caller gets the error of the earlier block
    rows = _kernels.block_rows(2)
    n = 2 * rows + 5
    X, _ = oracle.draws(n, 2, 3, 0.4)
    place = {row.tobytes(): i for i, row in enumerate(X)}
    real = _kernels.residuals
    on_thread = []

    def failing(sol, rho, Xb, Yb, inv_tol, ws=None):
        lo = place[Xb[0].tobytes()]
        on_thread.append(threading.current_thread() is not threading.main_thread())
        if lo > 0:
            raise ArithmeticError(f"block at row {lo}")
        return real(sol, rho, Xb, Yb, inv_tol, ws)

    monkeypatch.setattr(_kernels, "residuals", failing)
    monkeypatch.setattr(solutions, "_cpu_count", lambda: workers)
    baseline = threading.active_count()
    with pytest.raises(ArithmeticError, match=f"^block at row {rows}$"):
        verify_gs(PURE_POWER, n, seed=3, box_radius=0.4)
    assert threading.active_count() == baseline
    assert any(on_thread) == (workers > 1)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_verify_gs_report_keeps_a_nan_from_a_later_block(workers, monkeypatch):
    # NaN residuals only in the third of four blocks, at its rows 7 and 3:
    # both maxima are NaN, and the worst pair is the stream's first NaN
    rows = _kernels.block_rows(2)
    n = 3 * rows + 5
    X, Y = oracle.draws(n, 2, 3, 0.4)
    place = {row.tobytes(): i for i, row in enumerate(X)}
    real = _kernels.residuals

    def nan_in_third_block(sol, rho, Xb, Yb, inv_tol, ws=None):
        first = place[Xb[0].tobytes()]   # before the kernel overwrites its draw slots
        gs, goldie, valid = real(sol, rho, Xb, Yb, inv_tol, ws)
        if first == 2 * rows:
            gs[[7, 3]] = np.nan
            goldie[5] = np.nan
        return gs, goldie, valid

    monkeypatch.setattr(_kernels, "residuals", nan_in_third_block)
    monkeypatch.setattr(solutions, "_cpu_count", lambda: workers)
    rep = verify_gs(CanonicalSolution(A2.element([0.5, 0.3])), n, seed=3, box_radius=0.4)
    assert math.isnan(rep.max_gs_residual)
    assert math.isnan(rep.max_goldie_residual)
    assert rep.worst_pair[0].coords.tobytes() == X[2 * rows + 3].tobytes()
    assert rep.worst_pair[1].coords.tobytes() == Y[2 * rows + 3].tobytes()


def test_verify_gs_allocates_every_workspace_on_the_calling_thread(monkeypatch):
    # memory a thread allocates can come from another malloc arena, which
    # keeps the last call's freed workspace resident
    sol = CanonicalSolution(A2.element([0.5, 0.3]))
    n = 3 * _kernels.block_rows(2) + 5
    want = json.dumps(oracle.verify_gs(sol, n, seed=3, box_radius=0.4).to_json())
    real, built = _kernels._Workspace, []

    def recorded(*args):
        built.append(threading.get_ident())
        return real(*args)

    monkeypatch.setattr(_kernels, "_Workspace", recorded)
    monkeypatch.setattr(solutions, "_cpu_count", lambda: 2)
    got = json.dumps(verify_gs(sol, n, seed=3, box_radius=0.4).to_json())
    assert built == [threading.get_ident()] * 2
    assert got == want


def test_verify_gs_memory_does_not_grow_with_the_samples():
    # X alone, drawn whole, would be 10^6 x 6 doubles = 45.8 MiB
    import tracemalloc
    sol = PartitionSolution(PartitionSpec(((0, 2, 4), (1, 3, 5)),
                                          np.array([0.5, -0.3, 0.2, 0.4, -0.1, 0.3])))
    tracemalloc.start()
    try:
        verify_gs(sol, 10**6, seed=1, box_radius=0.4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("sol", [
    PartitionSolution(PartitionSpec(((0, 2, 4), (1, 3, 5)),
                                    np.array([0.5, -0.3, 0.2, 0.4, -0.1, 0.3]))),
    CanonicalSolution(complex_plane().element([0.5, 0.3])),
], ids=["partition-d6", "canonical-complex"])
def test_verify_gs_peaks_at_its_workspaces(sol, workers, monkeypatch):
    # each worker's workspace holds what the kernel keeps live: six (d, rows)
    # blocks, three float vectors and two bool masks
    import tracemalloc
    d = sol.algebra.dim
    rows = _kernels.block_rows(d)
    workspace = 8 * (6 * d * rows + 3 * rows) + 2 * rows
    monkeypatch.setattr(solutions, "_cpu_count", lambda: workers)
    verify_gs(sol, rows, seed=1, box_radius=0.4)   # the imports a first call makes
    tracemalloc.start()
    try:
        verify_gs(sol, 10**6, seed=1, box_radius=0.4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= workers * workspace + 128 * 2**10, (peak, workspace)


def test_verify_gs_peak_memory_is_the_same_at_2_and_200_blocks(monkeypatch):
    # each worker runs its blocks through one workspace and keeps a few
    # numbers per block, so 198 more blocks cost less than one block more
    import tracemalloc
    sol = PartitionSolution(PartitionSpec(((0, 2, 4), (1, 3, 5)),
                                          np.array([0.5, -0.3, 0.2, 0.4, -0.1, 0.3])))
    rows = _kernels.block_rows(6)
    monkeypatch.setattr(solutions, "_cpu_count", lambda: 2)
    verify_gs(sol, 2 * rows, seed=1, box_radius=0.4)   # what a first call sets up once
    peaks = []
    for n_blocks in (2, 200):
        tracemalloc.start()
        try:
            verify_gs(sol, n_blocks * rows, seed=1, box_radius=0.4)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < rows * 6 * 8, peaks


@pytest.mark.parametrize("sol", variant_zoo() + [PURE_POWER, _grid64()],
                         ids=lambda s: f"{s.variant}-d{s.algebra.dim}")
@pytest.mark.parametrize("radius", [3.0, 1000.0])
def test_eval_block_into_out_equals_a_fresh_block(sol, radius):
    # radius 3 leaves the power forms' domain on part of the block, and
    # radius 1000 overflows exp
    d = sol.algebra.dim
    rows = _kernels.block_rows(d)
    for m in (1, rows + 1):
        Xb = np.random.default_rng(m).uniform(-radius, radius, (d, m))
        out = np.full((d, m), np.nan)
        ok = np.arange(m) % 2 == 0
        with np.errstate(over="ignore"):
            want_S, want_ok = sol.eval_block(Xb)
            got_S, got_ok = sol.eval_block(Xb, out=out, ok=ok)
        assert got_S is out
        assert got_S.tobytes() == want_S.tobytes()
        assert (np.broadcast_to(got_ok, (m,)).tobytes()
                == np.broadcast_to(want_ok, (m,)).tobytes())


@pytest.mark.parametrize("radius", [0.4, 3.0, 1000.0, 1e-3])
@pytest.mark.parametrize("d", [1, 2, 6, 64])
def test_sample_box_into_out_equals_uniform(radius, d):
    m = _kernels.block_rows(d) + 1
    want = np.random.default_rng(7).uniform(-radius, radius, (m, d))
    out = np.full((m, d), np.nan)
    got = solutions.sample_box(hadamard(d), m, radius, np.random.default_rng(7), out=out)
    assert got is out
    assert got.tobytes() == want.tobytes()
    fresh = solutions.sample_box(hadamard(d), m, radius, np.random.default_rng(7))
    assert fresh.tobytes() == want.tobytes()


@pytest.mark.parametrize("radius", [-0.4, 1e308, math.inf, math.nan])
def test_sample_box_refuses_a_box_it_cannot_draw(radius):
    # a negative radius, or a width 2 radius beyond the float range
    with pytest.raises(ConstraintViolated, match="box radius"):
        verify_gs(CanonicalSolution(A2.element([0.5, 0.3])), 10, box_radius=radius)


def _summand_scale(sol, x, value):
    """Per-coordinate size against which a computed S(x) is exact to rounding.

    A linear family's S(x) = unit + M x is a sum that may cancel, so its
    rounding scales with the summands, |unit| + |M| |x|; the exp and power
    forms are products, exact relative to the value itself.
    """
    if isinstance(sol, LinearSolution):
        return np.abs(sol.algebra.unit().coords) + np.abs(sol.gamma_matrix()) @ np.abs(x)
    return np.abs(value)


# coordinates on the grid k / 64, plus power bases at and around the domain
# edge: 0, 5e-10 and 1e-9 for the pure power form, -91/64 and -92/64
# straddle the affine one's (1 + 0.7 x = 0), and -(1 - 5e-10)/0.7 puts its
# base at 5e-10, inside the band (0, 1e-9] that both paths reject
EDGES = [0.0, 5e-10, 1e-9, -91 / 64, -92 / 64, -(1 - 5e-10) / 0.7]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sol=hst.sampled_from(variant_zoo() + [PURE_POWER]),
       cols=hst.lists(hst.lists(hst.sampled_from(EDGES)
                                | hst.integers(-256, 256).map(lambda k: k / 64),
                                min_size=3, max_size=3),
                      min_size=1, max_size=12))
def test_eval_block_matches_eval_per_column(sol, cols):
    d = sol.algebra.dim
    Xb = np.ascontiguousarray(np.array(cols, dtype=float)[:, :d].T)
    S, ok = sol.eval_block(Xb)
    ok = np.broadcast_to(ok, (Xb.shape[1],))
    assert S.shape == Xb.shape
    for j in range(Xb.shape[1]):
        x = Xb[:, j]
        try:
            want = sol.eval(sol.algebra.element(x)).coords
        except NotInGroup:
            assert not ok[j]
            continue
        assert ok[j]
        assert np.all(np.abs(S[:, j] - want) <= 1e-15 * _summand_scale(sol, x, want))


def _law_family(kind, rng):
    if kind == "partition":
        return PartitionSolution(random_partition_spec(rng, int(rng.integers(1, 7))))
    if kind == "canonical":
        d = int(rng.integers(1, 7))
        return CanonicalSolution(hadamard(d).element(rng.uniform(-2.0, 2.0, d)))
    if kind == "canonical-complex":
        return CanonicalSolution(complex_plane().element(rng.uniform(-2.0, 2.0, 2)))
    return ComplexReImSolution(*rng.uniform(-2.0, 2.0, 2))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=hst.integers(0, 2**32 - 1),
       kind=hst.sampled_from(["partition", "canonical", "canonical-complex", "complex-reim"]))
def test_composition_law_in_element_arithmetic(seed, kind):
    # S(x + S(x) y) = S(x) S(y) through Element's own sum and product, not the kernel
    rng = np.random.default_rng(seed)
    sol = _law_family(kind, rng)
    x, y = (sol.algebra.element(rng.uniform(-0.4, 0.4, sol.algebra.dim)) for _ in range(2))
    sx, sy = sol.eval(x), sol.eval(y)
    # rounding scales with the summands: 1, M x and M S(x) y on the left, S(x) S(y) right
    g = sol.gamma_norm()
    scale = 1.0 + g * (x.norm() + sx.norm() * y.norm()) + sx.norm() * sy.norm()
    assert (sol.eval(x + sx * y) - sx * sy).norm() <= 1e-12 * scale


# ---------------------------------------------------------------------------
# derivative at the origin
# ---------------------------------------------------------------------------

def test_gamma_closed_forms():
    assert np.allclose(gamma(codependent(1.0, 2.0), A2.element([1, 1])).coords, [3, 3])
    assert np.allclose(gamma(one_exp_2d(1.0), A2.element([1, 0])).coords, [0, 1])
    rho = A2.element([0.8, -0.6])
    sol = CanonicalSolution(rho)
    u = A2.element([0.3, 0.5])
    assert np.allclose(gamma(sol, u).coords, (rho * u).coords)


def test_gamma_matches_finite_differences():
    rng = np.random.default_rng(5)
    for sol in variant_zoo():
        for _ in range(5):
            u = sol.algebra.element(rng.uniform(-1, 1, sol.algebra.dim))
            assert (gamma(sol, u) - gamma_fd(sol, u)).norm() < 1e-6


def test_gamma_complex_re_im_lands_on_real_axis():
    sol = ComplexReImSolution(0.4, 1.5)
    u = complex_plane().element([2.0, 3.0])
    g = gamma(sol, u)
    assert g.coords[1] == 0.0
    assert abs(g.coords[0] - (0.4 * 2.0 + 1.5 * 3.0)) < 1e-15


# ---------------------------------------------------------------------------
# decomposition and homogeneity diagnostics
# ---------------------------------------------------------------------------

def test_decomposition_linear_families_have_zero_nonlinear_part():
    sol = CanonicalSolution(A2.element([1.0, 0.5]))
    rep = decomposition_check(sol, A2.element([0.3, -0.2]))
    assert rep.n_x.norm() < 1e-14
    assert rep.m_x.norm() < 1e-14
    assert max(rep.orth_defects) < 1e-14
    rep2 = decomposition_check(codependent(), A2.element([0.4, 0.1]))
    assert rep2.n_x.norm() < 1e-14


def test_decomposition_exponential_instance():
    rep = decomposition_check(one_exp_2d(1.0), A2.element([1.0, 0.0]))
    # S(x) - 1 - gamma(x) = (0, e-1) - (0, 1) = (0, e-2)
    assert np.allclose(rep.n_x.coords, [0.0, E - 2.0])


def test_omega_homogeneity_partition_family():
    rng = np.random.default_rng(6)
    for _ in range(10):
        u = A2.element(rng.uniform(-1, 1, 2))
        assert check_omega_homogeneity(codependent(), u, 5) < 1e-10


def test_omega_homogeneity_fails_for_exponential_form():
    # hand evaluation at u = (1, 0): g(u) = (0, 1), u g(u) = (0, 0) so the
    # k = 1 term compares 0 against g(u)^2 = (0, 1): defect exactly 1
    defect = check_omega_homogeneity(one_exp_2d(1.0), A2.element([1, 0]), 1)
    assert abs(defect - 1.0) < 1e-14


# ---------------------------------------------------------------------------
# vanishing direction and one-parameter subgroup
# ---------------------------------------------------------------------------

def test_dichotomy_codependent():
    sol = PartitionSolution(PartitionSpec(((0, 1),), np.array([1.0, 1.0])))
    res = dichotomy_check(sol, A2.element([1.0, 0.0]))
    assert np.allclose(res.b.coords, [-1.0, 0.0])
    assert res.s_of_b.norm() < 1e-14


def test_dichotomy_independent_canonical():
    sol = CanonicalSolution(A2.element([1.0, 1.0]))
    res = dichotomy_check(sol, A2.element([1.0, 1.0]))
    assert np.allclose(res.b.coords, [-1.0, -1.0])
    assert res.s_of_b.norm() < 1e-14


def test_dichotomy_rejects_unit_image():
    sol = CanonicalSolution(A2.element([1.0, 1.0]))
    with pytest.raises(NotInvertible):
        dichotomy_check(sol, A2.element([0.0, 0.0]))


def test_popa_isomorphism_scalar_identity():
    assert popa_isomorphism_check(A1.element([1.0]), [0.0]) < 1e-15
    # g(1) o g(1) = (e-1) + e(e-1) = e^2 - 1 = g(2)
    assert popa_isomorphism_check(A1.element([1.0]), [1.0]) < 1e-12


def test_popa_isomorphism_vector_grid():
    assert popa_isomorphism_check(A2.element([1.0, 2.0]),
                                  [-1.0, 0.0, 0.5, 1.0]) < 1e-12
    with pytest.raises(NotInvertible):
        popa_isomorphism_check(A2.element([1.0, 0.0]), [0.0, 1.0])


def test_scale_section_for_canonical():
    # with invertible rho, w = rho^{-1}(g - 1) satisfies S(w) = g on ran S
    rho = A2.element([0.8, -0.6])
    sol = CanonicalSolution(rho)
    rng = np.random.default_rng(8)
    for _ in range(50):
        w0 = A2.element(rng.uniform(-0.3, 0.3, 2))
        g = sol.eval(w0)
        w = rho.apply_scalar(np.reciprocal) * (g - A2.unit())
        assert (sol.eval(w) - g).norm() < 1e-12


# ---------------------------------------------------------------------------
# construction guards and serialization
# ---------------------------------------------------------------------------

def test_partition_spec_validation():
    with pytest.raises(ConstraintViolated):
        PartitionSpec(((0, 1), (1,)), np.array([1.0, 2.0]))
    with pytest.raises(ConstraintViolated):
        PartitionSpec(((0,),), np.array([1.0, 2.0]))


def test_similarity_of_derivatives_along_group():
    # finite-difference derivative at c equals S(c) gamma(.) S(c)^{-1}
    sol = codependent(1.0, 2.0)
    rng = np.random.default_rng(10)
    h = 1e-6
    for _ in range(10):
        c = A2.element(rng.uniform(-0.2, 0.2, 2))
        hdir = A2.element(rng.uniform(-1, 1, 2))
        fd = (1.0 / (2 * h)) * (sol.eval(c + h * hdir) - sol.eval(c + (-h) * hdir))
        sc = sol.eval(c)
        sim = sc * gamma(sol, hdir) * sc.apply_scalar(np.reciprocal)
        assert (fd - sim).norm() < 1e-6


def test_phantom_homogeneity_partition():
    sol = codependent(1.0, 2.0)
    rng = np.random.default_rng(12)
    for _ in range(25):
        a = A2.element(rng.uniform(-1, 1, 2))
        b = A2.element(rng.uniform(-1, 1, 2))
        lhs = gamma(sol, gamma(sol, a * gamma(sol, b)))
        rhs = gamma(sol, gamma(sol, a) * gamma(sol, b))
        assert (lhs - rhs).norm() < 1e-10


def test_solution_json_roundtrip():
    for sol in variant_zoo():
        data = sol.to_json()
        text = json.dumps(data, sort_keys=True)
        back = solution_from_json(json.loads(text))
        rng = np.random.default_rng(1)
        x = sol.algebra.element(rng.uniform(-0.3, 0.3, sol.algebra.dim))
        assert (back.eval(x) - sol.eval(x)).norm() < 1e-15
        assert back.to_json() == data
        assert json.dumps(back.to_json(), sort_keys=True) == text


@pytest.mark.parametrize("variant, field", [
    ({"variant": "Canonical", "rho": [math.inf, 1.0]}, "rho"),
    ({"variant": "Partition", "parts": [[1, 2]], "rho": [1.0, math.nan]}, "rho"),
    ({"variant": "DegenerateExp", "form": "One_Exp", "axis": 0, "gamma_exp": math.inf},
     "gamma_exp"),
    ({"variant": "DegenerateExp", "form": "One_Exp", "axis": math.inf}, "axis"),
    ({"variant": "LinearCandidate", "matrix": [[1.0, 0.0], [-math.inf, 1.0]]}, "matrix"),
    ({"variant": "IdempotentBuilt", "idempotents": [[1.0, math.nan]], "sigma": [1.0, 0.0]},
     "idempotents"),
])
def test_solution_from_json_rejects_non_finite_numbers(variant, field):
    data = dict(variant, algebra={"kind": "HadamardRd", "dim": 2})
    with pytest.raises(ConstraintViolated, match=f"'{field}'"):
        solution_from_json(json.loads(json.dumps(data)))
    finite = {"variant": "Canonical", "rho": [1.0, 1.0]}
    with pytest.raises(ConstraintViolated, match="'algebra'"):
        solution_from_json(dict(finite, algebra={"kind": "HadamardRd", "dim": math.inf}))


def test_partition_gamma_matches_its_dense_matrix():
    # the O(d) part sums and the lazily built M describe one linear map
    rng = np.random.default_rng(41)
    for d in (1, 2, 7, 33):
        spec = random_partition_spec(rng, d)
        sols = [PartitionSolution(spec), CanonicalSolution(hadamard(d).element(spec.rho))]
        ids = spec.part_ids()
        dense = np.where(ids[:, None] == ids[None, :], spec.rho, 0.0)
        for sol, M in zip(sols, [dense, np.diag(spec.rho)]):
            assert np.array_equal(sol.gamma_matrix(), M)
            assert abs(sol.gamma_norm() - np.max(np.sum(np.abs(M), axis=1))) <= 1e-15 * d
            for _ in range(10):
                x = sol.algebra.element(rng.uniform(-2.0, 2.0, d))
                scale = 1e-15 * max(1.0, float(np.max(np.abs(M) @ np.abs(x.coords))))
                assert np.max(np.abs(sol.gamma(x).coords - M @ x.coords)) <= scale
                assert np.max(np.abs(sol.eval(x).coords - (1.0 + M @ x.coords))) <= 2 * scale
