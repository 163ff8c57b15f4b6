"""Transcendental roots, kernel/group/section triples, idempotent builder."""

import cmath
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from conftest import random_partition_spec
from popa_algebra import (CanonicalSolution, IdempotentSolution, InvalidTriple,
                          NotInRange, NotOrthogonalIdempotents,
                          PartitionSolution, PartitionSpec, WjSolutionOracle,
                          WjTriple, complex_plane, grid_interval, hadamard,
                          solution_from_json, st_roots, verify_gs, wj_extract,
                          xi_root)
from popa_algebra.cli import main
from popa_algebra.roots import st_residual

A1, A2 = hadamard(1), hadamard(2)
TWO_PI = 2 * math.pi


# ---------------------------------------------------------------------------
# roots of e^w = 1 + w
# ---------------------------------------------------------------------------

def _y_curve(x):
    """Positive root of y^2 = e^{2x} - (1+x)^2 (the modulus constraint)."""
    val = math.expm1(2.0 * x) - x * (2.0 + x)  # e^{2x} - (1+x)^2, stable
    return math.sqrt(val) if val > 0.0 else 0.0


def _newton_roots_oracle(n_wanted):
    """Independent root finder: plain complex Newton from a coarse grid."""
    found = []
    for re0 in np.arange(0.25, 5.0, 0.25):
        for im0 in np.arange(0.5, TWO_PI * (n_wanted + 2), 0.5):
            w = complex(re0, im0)
            for _ in range(80):
                f = cmath.exp(w) - 1.0 - w
                fp = cmath.exp(w) - 1.0
                if abs(fp) < 1e-14:
                    break
                step = f / fp
                w -= step
                if abs(step) < 1e-14:
                    break
            if abs(cmath.exp(w) - 1.0 - w) < 1e-11 and w.real > 0 and w.imag > 0.5:
                if not any(abs(w - z) < 1e-6 for z in found):
                    found.append(w)
    return sorted(found, key=lambda z: z.imag)[:n_wanted]


def test_roots_satisfy_defining_equation():
    for r in st_roots(10):
        assert r.residual < 1e-12
        assert st_residual(r.x, r.y) < 1e-12
        assert r.x > 0
        assert r.branch_index >= 1


def test_roots_ordered_and_unbounded_in_y():
    roots = st_roots(10)
    ys = [r.y for r in roots]
    assert all(a < b for a, b in zip(ys, ys[1:]))
    gaps = [b - a for a, b in zip(ys, ys[1:])]
    # consecutive windows: spacing approaches one full period from below
    assert all(abs(g - TWO_PI) < 2.0 for g in gaps)
    assert abs(gaps[-1] - TWO_PI) < 0.2


def test_roots_against_independent_newton_scan():
    lib = st_roots(4)
    ora = _newton_roots_oracle(4)
    assert len(ora) == 4
    for r, z in zip(lib, ora):
        assert abs(complex(r.x, r.y) - z) < 1e-9


def test_roots_match_lambert_w_branches():
    # root k is -1 - W_{-(k+1)}(-1/e); scipy's lambertw and mpmath's
    # (at 30 digits) share no code with the library
    from scipy.special import lambertw

    roots = st_roots(1000)
    assert len(roots) == 1000
    for k, r in enumerate(roots, start=1):
        w = complex(r.x, r.y)
        want = complex(-1.0 - lambertw(-math.exp(-1.0), -(k + 1)))
        assert abs(w - want) <= 1e-16 * abs(want), k
        assert r.branch_index == k
    with mpmath.workdps(30):
        for k in (1, 2, 3, 4, 18, 19, 20, 30, 100, 500, 1000):
            exact = -1 - mpmath.lambertw(-mpmath.exp(-1), -(k + 1))
            got = roots[k - 1]
            assert abs(mpmath.mpc(got.x, got.y) - exact) <= 1e-16 * abs(exact), k


def _zeros_in_rectangle(x0, x1, y0, y1):
    """Zeros of e^w - 1 - w inside the rectangle, by the argument principle.

    (1/2 pi i) times the integral of f'/f around the boundary, each side cut
    into pieces of length about 2 so that quad sees at most one oscillation.
    """
    f_ratio = lambda w: (mpmath.exp(w) - 1) / (mpmath.exp(w) - 1 - w)
    corners = [mpmath.mpc(x0, y0), mpmath.mpc(x1, y0), mpmath.mpc(x1, y1), mpmath.mpc(x0, y1)]
    total = 0
    for a, b in zip(corners, corners[1:] + corners[:1]):
        n = max(1, int(abs(b - a) / 2))
        total += mpmath.quad(f_ratio, [a + (b - a) * k / n for k in range(n + 1)])
    return complex(total / (2j * mpmath.pi))


def test_no_roots_with_negative_real_part():
    # the roots module docstring proves it; this count shares no code with it
    assert abs(_zeros_in_rectangle(-1.3, -1e-3, -60.0, 60.0)) < 1e-9
    above = sum(r.y < 60.0 for r in st_roots(20))
    assert above == 9
    assert abs(_zeros_in_rectangle(1e-3, 5.0, 1.0, 60.0) - above) < 1e-9


def test_damping_ratio_increases_to_one():
    # e^{-x} y(x) climbs strictly from 0 toward 1
    xs = np.linspace(0.0, 12.0, 400)
    vals = [math.exp(-x) * _y_curve(x) for x in xs]
    assert vals[0] == 0.0
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1.0
    assert vals[-1] > 0.999


def test_xi_root_value():
    xi = xi_root()
    assert 1.27846 <= xi <= 1.27847
    assert abs(math.exp(-xi) - (xi - 1.0)) < 1e-13
    # the curve's squared ordinate vanishes at -xi
    assert abs(math.exp(-2 * xi) - (1.0 - xi) ** 2) < 1e-13


# ---------------------------------------------------------------------------
# kernel/group/section triples
# ---------------------------------------------------------------------------

def _scalar_triple(section):
    lams = (A1.element([0.5]), A1.element([2.0]), A1.element([3.0]))
    return WjTriple((), lams, section)


def test_wj_verify_affine_section():
    # the oracle's constructor is the triple check
    WjSolutionOracle(_scalar_triple(lambda lam: A1.element([lam.coords[0] - 1.0])))


def test_wj_verify_rejects_quadratic_section():
    # the crossed-homomorphism equation fails at the pair (2, 2):
    # W(4) = 15 but W(2) + 2 W(2) = 9
    triple = _scalar_triple(lambda lam: A1.element([lam.coords[0] ** 2 - 1.0]))
    w4 = 4.0 ** 2 - 1.0
    assert w4 == 15.0 and (2.0 ** 2 - 1.0) * 3.0 == 9.0
    with pytest.raises(InvalidTriple):
        WjSolutionOracle(triple)


_KERNEL_DIAGONAL = (A2.element(np.array([1.0, 1.0]) / math.sqrt(2.0)),)


def _shift(lam):
    return lam - lam.algebra.unit()


@pytest.mark.parametrize("kernel, samples, section", [
    ((), [[0.0]], _shift),                            # a non-invertible sample
    (_KERNEL_DIAGONAL, [[2.0, 3.0]], _shift),         # the sample moves the kernel
    ((), [[1.0]], lambda lam: lam),                   # off the kernel at the unit
    ((), [[2.0]], lambda lam: A1.element([0.0]) if lam.coords[0] == 4.0 else _shift(lam)),
], ids=["not-invertible", "moves-kernel", "unit-off-kernel", "product-in-kernel"])
def test_wj_verify_rejects_each_condition(kernel, samples, section):
    alg = A2 if kernel else A1
    triple = WjTriple(kernel, tuple(alg.element(c) for c in samples), section)
    with pytest.raises(InvalidTriple):
        WjSolutionOracle(triple)


def test_kernel_matrix_spans_a_repeated_basis():
    # the kernel is span{e1, e3}; an unpivoted QR cut at rank 2 spanned {e1, e2}
    a3 = hadamard(3)
    e1, e2, e3 = (a3.element(row) for row in np.eye(3))
    oracle = WjSolutionOracle(WjTriple((e1, e1, e3), (a3.unit(),), _shift))
    assert oracle._kernel.shape == (2, 3)
    # the unit's section is 0, so the kernel evaluates to the unit and e2 to zero
    for x in (e1, e3, 2.0 * e1 - e3):
        assert oracle.eval(x) == a3.unit()
    assert oracle.eval(e2).norm() == 0.0


def test_wj_oracle_reconstructs_affine_map():
    triple = _scalar_triple(lambda lam: A1.element([lam.coords[0] - 1.0]))
    oracle = WjSolutionOracle(triple)
    for lam, x in oracle.covered:
        assert x == triple.section(lam)
        assert abs(oracle.eval(x).coords[0] - (1.0 + x.coords[0])) < 1e-12
    assert oracle.eval(A1.element([10.0])).norm() == 0.0  # uncovered
    assert max(oracle.residuals(CanonicalSolution(A1.element([1.0])), seed=3)) < 1e-10


def test_wj_extract_canonical():
    sol = CanonicalSolution(A1.element([1.0]))
    lams = [A1.element([0.5]), A1.element([2.0]), A1.element([4.0])]
    triple = wj_extract(sol, lams)
    WjSolutionOracle(triple)
    assert np.allclose(triple.section(A1.element([2.0])).coords, [1.0])
    assert len(triple.kernel_basis) == 0


def test_wj_extract_codependent():
    sol = PartitionSolution(PartitionSpec(((0, 1),), np.array([1.0, 1.0])))
    lam = A2.element([1.4, 1.4])
    triple = wj_extract(sol, [lam, A2.element([0.8, 0.8])])
    WjSolutionOracle(triple)
    assert np.allclose(triple.section(lam).coords, [0.2, 0.2])
    assert len(triple.kernel_basis) == 1
    with pytest.raises(NotInRange):
        wj_extract(sol, [A2.element([2.0, 3.0])])  # off the diagonal range


def test_wj_roundtrip_matches_solution_mod_kernel():
    rng = np.random.default_rng(9)
    sol = PartitionSolution(PartitionSpec(((0, 1),), np.array([1.0, 1.0])))
    lams = [sol.eval(A2.element(rng.uniform(-0.3, 0.3, 2))) for _ in range(4)]
    triple = wj_extract(sol, lams)
    oracle = WjSolutionOracle(triple)
    k = oracle._kernel
    for _, base in oracle.covered:
        for _ in range(5):
            shift = A2.element(k.T @ rng.uniform(-0.5, 0.5, k.shape[0]))
            x = base + shift
            assert (oracle.eval(x) - sol.eval(x)).norm() < 1e-10


#: a d = 6 partition solution with a 4-dimensional kernel, and three values
#: constant on its parts: nine covered values
_D6_SOLUTION = {"variant": "Partition", "parts": [[1, 3, 5], [2, 4, 6]],
                "rho": [0.26, 0.30, 0.44, 0.29, 0.34, 0.16],
                "algebra": {"kind": "HadamardRd", "dim": 6}}
_D6_SAMPLES = [[1.23, 1.15] * 3, [0.93, 1.37] * 3, [1.13, 1.31] * 3]


def test_wj_oracle_computes_each_section_once():
    sol = solution_from_json(_D6_SOLUTION)
    base = wj_extract(sol, [sol.algebra.element(c) for c in _D6_SAMPLES])
    calls = []

    def section(lam):
        calls.append(lam)
        return base.section(lam)

    oracle = WjSolutionOracle(WjTriple(base.kernel_basis, base.lambda_samples, section))
    n = len(_D6_SAMPLES)
    assert len(calls) == n + n * n   # each sample, then each ordered pair's product
    oracle.residuals(sol, seed=1)
    assert len(calls) == n + n * n   # the residuals reuse the covered sections


def test_wj_oracle_takes_the_first_covered_value_that_matches():
    # the section of 2.0000000005 is within tol of 2's, and the sections of
    # 4.000000001 and 4.000000002 are within tol * 3 of 4's: the lookup
    # already matches them, so they join no table entry of their own
    sol = CanonicalSolution(A1.element([1.0]))
    oracle = WjSolutionOracle(wj_extract(sol, [A1.element([2.0]), A1.element([2.0000000005])]))
    assert [lam.coords[0] for lam, _ in oracle.covered] == [2.0, 4.0]
    for lam in (4.0, 2.0 * 2.0000000005, 2.0000000005 ** 2):
        assert oracle.eval(A1.element([lam - 1.0])).coords.tolist() == [4.0]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=hst.integers(0, 2 ** 32 - 1), canonical=hst.booleans())
def test_every_covered_section_looks_up_its_own_value(seed, canonical):
    # exact solutions, with one near-duplicate of each sample within tol / 2,
    # constant on each part so that it stays in the solution's range
    rng = np.random.default_rng(seed)
    d, tol = int(rng.integers(1, 7)), 1e-9
    spec = random_partition_spec(rng, d)
    if canonical:
        sol, ids = CanonicalSolution(hadamard(d).element(spec.rho)), np.arange(d)
    else:
        sol, ids = PartitionSolution(spec), spec.part_ids()
    lams = [sol.eval(sol.algebra.element(rng.uniform(-0.3, 0.3, d)))
            for _ in range(int(rng.integers(1, 4)))]
    lams += [lam + sol.algebra.element(rng.uniform(-tol / 2, tol / 2, d)[ids]) for lam in lams]
    oracle = WjSolutionOracle(wj_extract(sol, lams, tol), tol)
    for lam, w in oracle.covered:
        assert oracle.eval(w) == lam


def _residuals_per_pair(oracle, sol, lams, seed):
    """The oracle's two residuals, one point and one pair at a time."""
    k = oracle._kernel
    offsets = np.random.default_rng(seed).uniform(-0.5, 0.5, (k.shape[0], len(oracle.covered)))
    points = [w + sol.algebra.element(k.T @ u) for (_, w), u in zip(oracle.covered, offsets.T)]
    # the covered samples: the entries whose value is a sample's
    samples = [p for (lam, _), p in zip(oracle.covered, points) if any(lam == s for s in lams)]

    def scaled(error, value):
        return error.norm() / max(1.0, value.norm())

    def composition(p, q):
        s1, s2 = oracle.eval(p), oracle.eval(q)
        return scaled(oracle.eval(p + s1 * q) - s1 * s2, s1 * s2)

    return (max(scaled(sol.eval(p) - oracle.eval(p), sol.eval(p)) for p in points),
            max(composition(p, q) for p in samples for q in samples))


@pytest.mark.parametrize("solution, samples", [
    ({"variant": "Canonical", "rho": [1.0], "algebra": {"kind": "HadamardRd", "dim": 1}},
     [[2.0], [3.0], [6.0000000001]]),   # 6 and 6.0000000001 share a table entry
    ({"variant": "Partition", "parts": [[1, 2], [3]], "rho": [0.5, -0.3, 0.2],
      "algebra": {"kind": "HadamardRd", "dim": 3}}, [[2.0] * 3, [3.0] * 3, [6.0000000003] * 3]),
    ({"variant": "Canonical", "rho": [0.5, 0.7], "algebra": {"kind": "ComplexAsR2", "dim": 2}},
     [[1.2, 0.3], [0.8, -0.5], [1.1, 0.1]]),
    (_D6_SOLUTION, _D6_SAMPLES),
    ({"variant": "Canonical", "rho": [3.0], "algebra": {"kind": "HadamardRd", "dim": 1}},
     [[2.5656472796824485], [5.105735093428786], [2.5656472822200156]]),   # no entry of its own
], ids=["near-duplicate", "partition-d3", "complex", "partition-d6", "duplicate-sample"])
def test_covered_residual_matches_the_per_pair_loop(solution, samples):
    sol = solution_from_json(solution)
    lams = [sol.algebra.element(c) for c in samples]
    oracle = WjSolutionOracle(wj_extract(sol, lams))
    for seed in range(4):
        (match, covered), (want_match, want_covered) = (
            oracle.residuals(sol, seed), _residuals_per_pair(oracle, sol, lams, seed))
        # sol.eval and the block evaluation may round S(p) apart by an ulp
        assert covered == want_covered and abs(match - want_match) <= 2.0 ** -50


def test_residuals_fail_an_oracle_that_skips_the_kernel_or_the_products():
    # a lookup that compares whole points misses every point moved along the
    # kernel and reads zero, and so does a table without the products; the
    # composition residual alone reads 0 on the first, whose misses give
    # O(p + 0 q) - 0 O(q) = 0
    sol = solution_from_json(_D6_SOLUTION)
    lams = [sol.algebra.element(c) for c in _D6_SAMPLES]
    exact, skips_kernel, no_products = (WjSolutionOracle(wj_extract(sol, lams)) for _ in range(3))
    skips_kernel._reps = np.array([w.coords for _, w in skips_kernel.covered]).T
    skips_kernel._off_kernel = lambda c: c
    n = no_products._samples_covered
    no_products.covered = no_products.covered[:n]
    no_products._reps, no_products._values = no_products._reps[:, :n], no_products._values[:, :n]
    for seed in range(3):
        assert max(exact.residuals(sol, seed)) <= exact.tol
        assert skips_kernel.residuals(sol, seed)[0] == 1.0
        assert no_products.residuals(sol, seed)[1] == 1.0


def test_one_wj_request_computes_15_sections(tmp_path, monkeypatch, capsys):
    # every section call of wj_extract's triple makes one product with the
    # pseudo-inverse, so counting those products counts the section calls
    calls = []
    pinv = np.linalg.pinv

    class Counted:
        def __init__(self, matrix):
            self.matrix = matrix

        def __matmul__(self, target):
            calls.append(target)
            return self.matrix @ target

    monkeypatch.setattr(np.linalg, "pinv", lambda *a, **kw: Counted(pinv(*a, **kw)))
    path = tmp_path / "wj.json"
    path.write_text(json.dumps({"solution": _D6_SOLUTION, "lambda_samples": _D6_SAMPLES}),
                    encoding="utf-8")
    assert main(["wj", "--input", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["kernel_dim"], report["covered_values"]) == (4, 9)
    # 3 in wj_extract and 3 + 3 * 3 in the oracle; the residuals reuse the
    # oracle's covered sections
    assert len(calls) == 3 + 12


# ---------------------------------------------------------------------------
# idempotent builder
# ---------------------------------------------------------------------------

def test_idempotent_spanning_basis_reproduces_affine_family():
    e1, e2 = A2.element([1, 0]), A2.element([0, 1])
    sol = IdempotentSolution([e1, e2], [1.0, 1.0], A2)
    x = A2.element([0.3, -0.7])
    assert np.allclose(sol.eval(x).coords, (A2.unit() + x).coords)
    assert verify_gs(sol, 2000, seed=2).max_gs_residual < 1e-12


def test_idempotent_partial_system():
    sol = IdempotentSolution([A2.element([1, 0])], [1.0, 0.0], A2)
    got = sol.eval(A2.element([0.4, 5.0]))
    assert np.allclose(got.coords, [1.4, 1.0])
    assert verify_gs(sol, 2000, seed=2).max_gs_residual < 1e-12


def test_idempotent_general_functional_matches_affine_form():
    # spanning rank-one idempotents with the coefficient functional of rho
    rng = np.random.default_rng(11)
    rho = rng.uniform(-2, 2, 3)
    A3 = hadamard(3)
    idems = [A3.element(np.eye(3)[i]) for i in range(3)]
    sol = IdempotentSolution(idems, rho, A3)
    can = CanonicalSolution(A3.element(rho))
    for _ in range(20):
        x = A3.element(rng.uniform(-1, 1, 3))
        assert (sol.eval(x) - can.eval(x)).norm() < 1e-12


def test_idempotent_rejects_bad_inputs():
    with pytest.raises(NotOrthogonalIdempotents):
        IdempotentSolution([A2.element([1, 1]), A2.element([1, 0])],
                           [1.0, 0.0], A2)
    with pytest.raises(NotOrthogonalIdempotents):
        IdempotentSolution([A2.element([2, 0])], [1.0, 0.0], A2)


def test_idempotent_on_complex_plane():
    C = complex_plane()
    sol = IdempotentSolution([C.unit()], [1.0, 0.0], C)
    z = C.element([0.3, 0.4])
    # nu(z) = sigma(z) * 1 with sigma = Re: the real-linear family a=1, b=0
    assert np.allclose(sol.eval(z).coords, [1.3, 0.0])
    assert verify_gs(sol, 2000, seed=2).max_gs_residual < 1e-12


def _idempotent_nu_loop(algebra, idempotents, sigma):
    """Oracle: the builder's original loop, one Element sum per basis vector b_j."""
    d = algebra.dim
    nu = np.zeros((d, d))
    for j in range(d):
        basis = algebra.element(np.eye(d)[j])
        acc = algebra.element(np.zeros(d))
        for e in idempotents:
            acc = acc + float(sigma @ (e * basis).coords) * e
        nu[:, j] = acc.coords
    return nu


def _signed_zeros(rng, a):
    """a with each zero entry given a random sign."""
    return np.where(a == 0.0, np.where(rng.random(a.shape) < 0.5, -0.0, 0.0), a)


def test_idempotent_matrix_matches_element_loop_bitwise():
    for seed in range(90):
        rng = np.random.default_rng(seed)
        if seed % 3 == 2:   # the complex plane: its idempotents are 0 and 1
            alg = complex_plane()
            idems = [alg.element(_signed_zeros(rng, np.array(c)))
                     for c in ([1.0, 0.0], [0.0, 0.0])[:int(rng.integers(3))]]
        else:               # disjoint indicator vectors on part of the coordinates
            d = int(rng.integers(1, 65))
            alg = hadamard(d) if seed % 3 == 0 else grid_interval(np.linspace(0.0, 1.0, d))
            labels = rng.integers(-1, int(rng.integers(0, 6)), d)
            idems = [alg.element(_signed_zeros(rng, (labels == k).astype(float)))
                     for k in range(labels.max() + 1)]
        sigma = _signed_zeros(rng, rng.uniform(-2.0, 2.0, alg.dim) * (rng.random(alg.dim) < 0.8))
        nu = IdempotentSolution(idems, sigma, alg).gamma_matrix()
        assert nu.tobytes() == _idempotent_nu_loop(alg, idems, sigma).tobytes(), seed
