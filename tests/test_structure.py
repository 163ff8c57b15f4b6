"""Coefficient-matrix validation, partition recovery, kernels, factorization."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

import structure_oracle as oracle
from popa_algebra import structure
from popa_algebra import (ConstraintViolated, LinearCandidate,
                          PartitionSolution, PartitionSpec, SigmaMatrix,
                          analyse_sigma, grid_interval, hadamard, verify_gs)
from popa_algebra import CanonicalSolution, ComplexReImSolution
from popa_algebra import DegenerateExpSolution, DegenerateForm
from popa_algebra import IdempotentSolution
from popa_algebra.cli import main
from conftest import perturbed_sigma, random_partition_spec

A2 = hadamard(2)


def _partition(a, tol=1e-9):
    """The partition that analyse_sigma recovers from the matrix a, or None."""
    return analyse_sigma(SigmaMatrix(a), tol).partition


def _classify(sol, tmp_path, capsys, *flags):
    """Exit code and report of the classify verb on a solution file."""
    path = tmp_path / "sol.json"
    path.write_text(json.dumps(sol.to_json()), encoding="utf-8")
    code = main(["classify", "--input", str(path), *flags])
    captured = capsys.readouterr()
    return code, (json.loads(captured.out) if captured.out else captured.err)


def test_validate_examples():
    assert analyse_sigma(SigmaMatrix([[1, 2], [1, 2]])).valid
    assert analyse_sigma(SigmaMatrix([[1, 0], [0, 2]])).valid
    assert not analyse_sigma(SigmaMatrix([[1, 2], [3, 4]])).valid
    assert analyse_sigma(SigmaMatrix(np.zeros((3, 3)))).valid


def test_recover_partition_examples():
    spec = _partition([[1, 2], [1, 2]])
    assert spec.parts == ((0, 1),)
    assert np.allclose(spec.rho, [1, 2])

    spec = _partition([[5, 0], [0, 7]])
    assert spec.parts == ((0,), (1,))
    assert np.allclose(spec.rho, [5, 7])

    spec = _partition([[1, 2, 0], [1, 2, 0], [0, 0, 3]])
    assert spec.parts == ((0, 1), (2,))
    assert np.allclose(spec.rho, [1, 2, 3])

    assert _partition([[1, 2], [3, 4]]) is None


def test_empty_sigma_matrix_is_rejected():
    # d = 0 used to pass validation and then fail in hadamard(0)
    with pytest.raises(ConstraintViolated, match="at least 1 x 1"):
        SigmaMatrix(np.zeros((0, 0)))


def test_recover_partition_zero_rows_are_trivial_parts():
    spec = _partition([[0, 0], [0, 0]])
    assert spec.parts == ((0,), (1,))
    assert np.allclose(spec.rho, [0, 0])


def test_kernel_subspace_dimensions():
    basis = analyse_sigma(SigmaMatrix([[1, 1], [1, 1]])).kernel_basis
    assert len(basis) == 1
    v = basis[0].coords
    assert abs(abs(v @ np.array([1, -1]) / np.sqrt(2)) - 1.0) < 1e-12
    assert analyse_sigma(SigmaMatrix([[1, 0], [0, 1]])).kernel_basis == ()
    assert len(analyse_sigma(SigmaMatrix(np.zeros((2, 2)))).kernel_basis) == 2


def test_kernel_basis_has_no_writable_alias():
    rng = np.random.default_rng(5)
    spec = random_partition_spec(rng, 12)
    basis = analyse_sigma(SigmaMatrix(PartitionSolution(spec).gamma_matrix())).kernel_basis
    assert basis
    for e in basis:
        assert not e.coords.flags.writeable
        assert e.coords.base is None or not e.coords.base.flags.writeable


def test_nearly_rank_one_invalid_matrix_has_a_kernel():
    # s1 / s0 is 4e-11, below RANK_REL_THRESHOLD: the matrix has rank 1
    rep = analyse_sigma(SigmaMatrix([[1, 2], [2, 4 + 1e-9]]))
    assert not rep.valid
    assert rep.kernel_dim == 1


@pytest.mark.parametrize("a, kernel_dim", [
    ([[1e308, -1e308], [1e308, 1e308]], 0),          # the largest singular value is 1.4e308
    ([[1e308, 1e308], [1e308, 9e307]], 0),           # ... and here it overflows
    ([[1.2e308, 1.2e308], [0.6e308, 0.6e308]], 1),
], ids=["opposite-rows", "full-rank-overflow", "rank-one-overflow"])
def test_invalid_matrix_near_the_float_maximum(a, kernel_dim):
    a = np.array(a)
    s = np.linalg.svd(a / np.max(np.abs(a)), compute_uv=False)
    assert kernel_dim == 2 - int(np.sum(s > 1e-10 * s[0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = analyse_sigma(SigmaMatrix(a))
    assert not rep.valid
    assert rep.kernel_dim == kernel_dim


def test_null_space_rescales_when_the_largest_singular_value_overflows():
    a = np.full((2, 2), 1e308)
    assert np.linalg.svd(a, compute_uv=False)[0] == np.inf   # the case under test
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        basis = structure.null_space_basis(a)
    assert basis.shape == (1, 2)
    assert np.allclose(basis[0] * np.sign(basis[0, 0]), [2 ** -0.5, -2 ** -0.5], rtol=0, atol=1e-15)


def test_kernel_vectors_fix_the_unit_image():
    rng = np.random.default_rng(21)
    for _ in range(10):
        spec = random_partition_spec(rng, int(rng.integers(2, 7)))
        m = SigmaMatrix(PartitionSolution(spec).gamma_matrix())
        sol = PartitionSolution(spec)
        for v in analyse_sigma(m).kernel_basis:
            for t in (-1.0, -0.5, 0.5, 1.0):
                assert (sol.eval(t * v) - sol.algebra.unit()).norm() < 1e-9


def test_classify_examples(tmp_path, capsys):
    for sol, want in (
            (PartitionSolution(PartitionSpec(((0, 1),), np.array([1.0, 2.0]))), "CoDependent"),
            (PartitionSolution(PartitionSpec(((0,), (1,)), np.array([1.0, 2.0]))), "Independent"),
            (DegenerateExpSolution(DegenerateForm.ONE_EXP, axis=0, gamma_exp=1.0),
             "DegenerateUnivariate"),
            (PartitionSolution(PartitionSpec(((0, 1),), np.array([0.0, 0.0]))), "Trivial"),
            (CanonicalSolution(A2.element([1.0, 2.0])), "Independent"),
            (IdempotentSolution([A2.element([1, 0]), A2.element([0, 1])], [1.0, 1.0], A2),
             "Independent")):
        code, rep = _classify(sol, tmp_path, capsys)
        assert (code, rep["class"]) == (0, want)


@pytest.mark.parametrize("sol, want", [
    (PartitionSolution(PartitionSpec(((0, 1),), np.array([1.0, -2.0]))), "CoDependent"),
    (PartitionSolution(PartitionSpec(((0,), (1,)), np.array([0.5, 2.0]))), "Independent"),
    (PartitionSolution(PartitionSpec(((0, 1),), np.array([0.0, 0.0]))), "Trivial"),
    (CanonicalSolution(A2.element([1.0, 2.0])), "Independent"),
    (CanonicalSolution(A2.element([0.0, 3.0])), "Independent"),
    (IdempotentSolution([A2.element([1, 0]), A2.element([0, 1])], [1.0, 1.0], A2),
     "Independent"),
    (IdempotentSolution([A2.unit()], [1.0, 2.0], A2), "CoDependent"),
    (LinearCandidate([[0.5, 1.5], [0.5, 1.5]]), "CoDependent"),
    (LinearCandidate(np.zeros((2, 2))), "Trivial"),
], ids=lambda v: v if isinstance(v, str) else v.variant)
def test_classify_2d_agrees_with_classify_of_its_matrix(sol, want, tmp_path, capsys):
    code, got = _classify(sol, tmp_path, capsys)
    assert (code, got["class"]) == (0, want)
    path = tmp_path / "sigma.json"
    path.write_text(json.dumps({"sigma": sol.gamma_matrix().tolist()}), encoding="utf-8")
    assert main(["classify", "--input", str(path)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["class"] == want
    assert got["params"].get("rho", [0.0, 0.0]) == rep["rho"]


def test_classify_of_a_matrix_uses_its_recovered_partition(tmp_path, capsys):
    # coupled above the row tolerance, with every recovered rho entry below it
    a = [[0.6e-9, 0.0], [1.5e-9, 0.0]]
    assert _classify(LinearCandidate(a), tmp_path, capsys)[1]["class"] == "CoDependent"
    path = tmp_path / "sigma.json"
    path.write_text(json.dumps({"sigma": a}), encoding="utf-8")
    assert main(["classify", "--input", str(path)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["partition"] == [[1, 2]]
    assert rep["class"] == "CoDependent"


def test_classify_tol_applies_to_solution_files(tmp_path, capsys):
    a = [[1.0, 2.0], [1.000001, 2.0]]
    assert _partition(a, 1e-3).parts == ((0, 1),)
    for name, data in (("sigma", {"sigma": a}), ("cand", LinearCandidate(a).to_json())):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["classify", "--input", str(path), "--tol", "1e-3"]) == 0
        assert json.loads(capsys.readouterr().out)["class"] == "CoDependent"


def test_classify_invalid_candidate_is_a_constraint_violation(tmp_path, capsys):
    cand = LinearCandidate([[1.0, 2.0], [3.0, 4.0]])
    assert _partition(cand.gamma_matrix()) is None
    # the CLI prints the matrix's sigma report and exits 1 (it exited 2)
    path = tmp_path / "cand.json"
    path.write_text(json.dumps(cand.to_json()), encoding="utf-8")
    assert main(["classify", "--input", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["valid"] is False


def test_classify_wrong_dimension_or_kind(tmp_path, capsys):
    for sol in (CanonicalSolution(hadamard(3).element([1, 1, 1])),
                ComplexReImSolution(0.0, 1.0)):
        code, err = _classify(sol, tmp_path, capsys)
        assert code == 2
        assert err.startswith("input error: UnsupportedDimension: ")


def test_factorize_examples():
    rep = analyse_sigma(SigmaMatrix([[1, 2, 0], [1, 2, 0], [0, 0, 3]]))
    assert [f[0] for f in rep.factors] == [(1, 2), (3,)]
    assert [f[1] for f in rep.factors] == [(1.0, 2.0), (3.0,)]
    assert rep.kernel_dim == 1
    assert sum(len(f[0]) for f in rep.factors) == 3

    rep = analyse_sigma(SigmaMatrix(np.diag([1.0, 2.0, 3.0])))
    assert len(rep.factors) == 3

    rep = analyse_sigma(SigmaMatrix(np.ones((3, 3))))
    assert len(rep.factors) == 1
    assert len(rep.factors[0][0]) == 3


def test_factor_groups_satisfy_scalar_axioms():
    # each factor is a scalar-generator group: check assoc/identity/inverse
    rep = analyse_sigma(SigmaMatrix([[1, 2, 0], [1, 2, 0], [0, 0, 3]]))
    rng = np.random.default_rng(3)
    for part, gen in rep.factors:
        gen = np.array(gen)
        k = len(part)
        op = lambda x, y: x + (1.0 + gen @ x) * y
        for _ in range(20):
            x, y, z = (rng.uniform(-0.2, 0.2, k) for _ in range(3))
            assert np.allclose(op(op(x, y), z), op(x, op(y, z)), atol=1e-12)
            assert np.allclose(op(x, np.zeros(k)), x)
            s = 1.0 + gen @ x
            inv = -x / s
            assert np.allclose(op(x, inv), 0.0, atol=1e-12)


def test_analyse_sigma_invalid_report():
    rep = analyse_sigma(SigmaMatrix([[1, 2], [3, 4]]))
    assert not rep.valid
    assert rep.partition is None
    rep = analyse_sigma(SigmaMatrix(CHAIN), 1e-3)   # valid, but its part's rows drift
    assert not rep.valid
    assert rep.partition is None


@pytest.mark.parametrize("a", [np.full((2, 2), 1e8),
                               np.tile(np.linspace(0.5e6, 1.5e6, 64), (64, 1))],
                         ids=["2x2-1e8", "one-part-d64-1e6"])
def test_factor_check_scales_with_rho(a):
    # a valid matrix stays valid however large its generators are
    rep = analyse_sigma(SigmaMatrix(a))
    assert rep.valid
    spec = rep.partition
    assert rep.factors == tuple((tuple(i + 1 for i in part), tuple(spec.rho[j] for j in part))
                                for part in spec.parts)


def _random_partition_matrix(rng, d: int, scale: float) -> np.ndarray:
    """A[i, j] = g[j] where i and j share a part, else 0, over a shuffled
    partition whose parts have generators of magnitude up to scale; about
    one part in four has a zero generator."""
    labels = rng.integers(0, max(1, d // 3), size=d)
    g = scale * rng.uniform(-1.0, 1.0, size=d)
    zero_parts = rng.uniform(size=d) < 0.25
    g[zero_parts[labels]] = 0.0
    return np.where(labels[:, None] == labels[None, :], g[None, :], 0.0)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e8])
@pytest.mark.parametrize("d", [1, 2, 7, 24, 64])
def test_factors_reproduce_the_input_matrix_operation(d, scale):
    # x + (1 + A x) y from the input matrix, on each reported part, against
    # x + (1 + sum over the part of g x) y with the reported generator
    rng = np.random.default_rng(d * 1000 + int(np.log10(scale)) + 3)
    eps = np.finfo(float).eps
    for _ in range(5):
        a = _random_partition_matrix(rng, d, scale)
        rep = analyse_sigma(SigmaMatrix(a))
        assert rep.valid
        covered = sorted(i for part, _ in rep.factors for i in part)
        assert covered == list(range(1, d + 1))
        bound = 4 * d * eps * (1.0 + 0.4 * np.max(np.sum(np.abs(a), axis=1)))
        x = rng.uniform(-0.4, 0.4, size=(64, d))
        y = rng.uniform(-0.4, 0.4, size=(64, d))
        z = x + (1.0 + x @ a.T) * y
        for part, gen in rep.factors:
            idx = np.array(part) - 1
            zf = x[:, idx] + (1.0 + x[:, idx] @ np.array(gen))[:, None] * y[:, idx]
            assert np.max(np.abs(z[:, idx] - zf)) <= bound


def test_roundtrip_idempotence():
    rng = np.random.default_rng(17)
    for _ in range(25):
        spec = random_partition_spec(rng, int(rng.integers(1, 7)))
        m = SigmaMatrix(PartitionSolution(spec).gamma_matrix())
        assert analyse_sigma(m).valid
        rec = analyse_sigma(m).partition
        m2 = SigmaMatrix(PartitionSolution(rec).gamma_matrix())
        assert np.allclose(m.entries, m2.entries)
        rec2 = analyse_sigma(m2).partition
        assert rec2.parts == rec.parts
        assert np.allclose(rec2.rho, rec.rho)


def test_soundness_small():
    rng = np.random.default_rng(23)
    for _ in range(5):
        spec = random_partition_spec(rng, 4)
        assert verify_gs(PartitionSolution(spec), 2000, seed=1).max_gs_residual < 1e-10
        bad = perturbed_sigma(rng, spec)
        assert analyse_sigma(bad).partition is None
        assert not oracle.validate_sigma(bad, 1e-9)   # a coupled pair disagrees
        cand = LinearCandidate(bad.entries)
        assert verify_gs(cand, 2000, seed=1).max_gs_residual > 1e-6


def test_grid_solutions():
    alg = grid_interval([0.0, 0.5, 1.0])
    sol = PartitionSolution(PartitionSpec(((0,), (1,), (2,)), [1.0, 2.0, 3.0]), alg)
    x = sol.algebra.element([1.0, 1.0, 1.0])
    assert np.allclose(sol.eval(x).coords, [2, 3, 4])
    assert sol.algebra.grid == (0.0, 0.5, 1.0)

    co = PartitionSolution(PartitionSpec(((0, 1, 2),), [1.0, 1.0, 1.0]), alg)
    got = co.eval(sol.algebra.element([1.0, 2.0, 3.0]))
    assert np.allclose(got.coords, [7, 7, 7])

    mixed = PartitionSolution(PartitionSpec(((0, 1), (2,)), [1.0, 2.0, 3.0]), alg)
    rec = _partition(mixed.gamma_matrix())
    assert rec.parts == ((0, 1), (2,))
    assert np.allclose(rec.rho, [1, 2, 3])


def test_structure_report_json():
    rep = analyse_sigma(SigmaMatrix([[1, 2], [1, 2]]))
    blob = rep.to_json()
    assert blob["valid"] is True
    assert blob["partition"] == [[1, 2]]
    assert blob["kernel_dim"] == 1
    assert blob["factors"][0]["part"] == [1, 2]


def test_each_request_validates_once(monkeypatch, tmp_path, capsys):
    calls = []
    real = structure._structure

    def counting(a, tol):
        calls.append(tol)
        return real(a, tol)

    monkeypatch.setattr(structure, "_structure", counting)
    for a, tol in (([[1, 2], [1, 2]], 1e-9), (np.ones((5, 5)), 1e-9),
                   ([[1, 2], [3, 4]], 1e-9), (CHAIN, 1e-3)):
        calls.clear()
        analyse_sigma(SigmaMatrix(a), tol)
        assert len(calls) == 1
    # a solution file: a failing candidate, a valid partition, and a One_Exp,
    # which is classified by its variant alone
    for sol, code, passes in (
            (LinearCandidate([[1, 2], [3, 4]]), 1, 1),
            (PartitionSolution(PartitionSpec(((0, 1),), [1.0, 2.0])), 0, 1),
            (DegenerateExpSolution(DegenerateForm.ONE_EXP, axis=0, gamma_exp=1.3), 0, 0)):
        calls.clear()
        assert _classify(sol, tmp_path, capsys)[0] == code
        assert len(calls) == passes, sol.variant
    calls.clear()
    path = tmp_path / "sigma.json"
    path.write_text(json.dumps({"sigma": [[1, 2], [1, 2]]}), encoding="utf-8")
    assert main(["classify", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["class"] == "CoDependent"
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# the blocked validation against the plain-loop oracle in structure_oracle.py
# ---------------------------------------------------------------------------

def _outcome(spec):
    return None if spec is None else (spec.parts, spec.rho.tolist())


def _agrees_with_oracle(m, tol):
    try:
        want = oracle.recover_partition(m, tol)
    except ConstraintViolated:   # an invalid matrix, or rows that drift within a part
        want = None
    assert _outcome(analyse_sigma(m, tol).partition) == _outcome(want)


def _chain(perm, unit):
    """Rows coupled along a path in the order perm: at tol = unit each row
    agrees with its neighbours, but rows two steps apart disagree."""
    d = len(perm)
    a = np.zeros((d, d))
    for r in range(d):
        for s, g in zip(range(r - 2, r + 3), (1.0, 1.5, 1.5, 1.5, 1.0)):
            if 0 <= s < d:
                a[perm[r], perm[s]] = g * unit
    return a


def _sigma_case(seed, d, kind, tol):
    rng = np.random.default_rng(seed)
    spec = random_partition_spec(rng, d)
    if kind == "perturbed" and d > 1:
        return perturbed_sigma(rng, spec)
    if kind == "chain":
        return SigmaMatrix(_chain(rng.permutation(d), tol if tol > 0 else 1e-12))
    if kind == "zero-generators":
        # a part's zero generators couple only with its nonzero ones
        spec = PartitionSpec(spec.parts, np.where(rng.random(d) < 0.4, 0.0, spec.rho))
    a = PartitionSolution(spec).gamma_matrix()
    if kind == "jitter":
        # row gaps and stray entries within a small factor of the tolerance
        scale = tol if tol > 0 else 1e-12
        a = a + rng.uniform(-0.6, 0.6, a.shape) * scale * (a != 0)
        stray = (a == 0) & (rng.random(a.shape) < 0.2)
        a = a + rng.uniform(0.5, 1.5, a.shape) * scale * stray
    return SigmaMatrix(a)


KINDS = ["valid", "perturbed", "jitter", "zero-generators", "chain"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=hst.integers(0, 2**32 - 1), d=hst.integers(1, 40),
       kind=hst.sampled_from(KINDS), tol=hst.sampled_from([0.0, 1e-9, 1e-6, 1e-3]))
def test_validation_and_partition_match_plain_loops(seed, d, kind, tol):
    _agrees_with_oracle(_sigma_case(seed, d, kind, tol), tol)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=hst.integers(0, 2**32 - 1), d=hst.integers(1, 40),
       kind=hst.sampled_from(KINDS), tol=hst.sampled_from([0.0, 1e-9, 1e-6, 1e-3]))
def test_kernel_dim_counts_the_small_singular_values(seed, d, kind, tol):
    # valid or not, a singular value at most 1e-10 times the largest is zero
    m = _sigma_case(seed, d, kind, tol)
    s = np.linalg.svd(m.entries, compute_uv=False)
    assert analyse_sigma(m, tol).kernel_dim == d - int(np.sum(s > 1e-10 * s[0]))


def _count_bfs(monkeypatch):
    found = []
    real = structure._components

    def counting(adj):
        found.append(real(adj))
        return found[-1]

    monkeypatch.setattr(structure, "_components", counting)
    return found


def test_both_component_paths_match_plain_loops(monkeypatch):
    # parts whose generators are all nonzero are cliques of the coupling graph
    # and are labelled without a search; zero generators and chains are not
    found = _count_bfs(monkeypatch)
    for kind in KINDS:
        found.clear()
        for seed in range(20):
            _agrees_with_oracle(_sigma_case(seed, 30, kind, 1e-6), 1e-6)
        if kind == "valid":
            assert not found
        elif kind == "chain":   # one search per matrix
            assert len(found) == 20
        elif kind == "zero-generators":
            assert found


def test_random_order_chain_components_match_plain_loops(monkeypatch):
    tol = 2.0 ** -20
    a = _chain(np.random.default_rng(3).permutation(512), tol)
    found = _count_bfs(monkeypatch)
    _agrees_with_oracle(SigmaMatrix(a), tol)
    assert found and all(comps == oracle.components(a, tol) for comps in found)
    assert found[0] == [list(range(512))]


# rows 0-1 and 1-2 are coupled and agree at tol 1e-3, rows 0 and 2 are not
# coupled and lie 1.6e-3 apart: valid, but the part fails its row check
CHAIN = [[-0.0016, 0.5, 0.0], [-0.0008, 0.5, 0.0008], [0.0, 0.5, 0.0016]]


# at tol 0.6 the uneven rows agree only under the larger of their two scales;
# the wide row's scale covers its part's column range, but rows 0 and 1 disagree
@pytest.mark.parametrize("tol", [1e-9, 1e-3, 0.6, -1.0, -0.0, float("nan"), float("inf")])
@pytest.mark.parametrize("a", [CHAIN, [[1, 2], [1, 2]], [[1, 2], [3, 4]], np.diag([0.0, 3.0]),
                               [[1, 1], [1, 2]], [[1, 2], [1, 1]], [[2.0]],
                               [[1, 1, 1], [1, 1, 0.3], [2.4, 1, 1]]],
                         ids=["chain", "coupled", "invalid", "diagonal", "uneven",
                              "uneven-reversed", "one", "one-wide-row"])
def test_edge_tolerances_match_plain_loops(a, tol):
    _agrees_with_oracle(SigmaMatrix(a), tol)


def test_chain_fails_the_part_row_check():
    assert _partition(CHAIN, 1e-3) is None
    with pytest.raises(ConstraintViolated, match="disagree within a part"):
        oracle.recover_partition(SigmaMatrix(CHAIN), 1e-3)


def test_broken_pair_at_each_block_boundary():
    # dense d=64 couples all 2016 row pairs, which span several blocks
    d, tol = 64, 1e-6
    step = max(1, structure._PAIR_BLOCK_COORDS // d)
    pairs = list(zip(*np.triu_indices(d, 1)))  # the order they are compared in
    assert len(pairs) > 2 * step
    rho = np.linspace(0.5, 2.0, d)  # every row bound is 2 * tol
    for k in (0, step - 1, step, 2 * step - 1, 2 * step, len(pairs) - 1):
        i, j = pairs[k]
        a = np.tile(rho, (d, 1))
        # rows i and j each lie 1.5 tol from the rest but 3 tol from each other
        a[i, 0] += 1.5 * tol
        a[j, 0] -= 1.5 * tol
        assert _partition(a, tol) is None, k
        assert not oracle.validate_sigma(SigmaMatrix(a), tol), k
        a[j, 0] = rho[0]
        assert _partition(a, tol) is not None, k
