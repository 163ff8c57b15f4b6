"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math

import numpy as np
import pytest

from paper_checks import adjustor, dichotomy_check, lambda_scale, ratio_limit_check
from popa_algebra import (CanonicalSolution, ComplexReImSolution,
                          DegenerateExpSolution, DegenerateForm,
                          IdempotentSolution, InvalidTriple, LinearCandidate,
                          PartitionSolution, PartitionSpec, SigmaMatrix,
                          WjSolutionOracle, WjTriple, analyse_sigma, gamma, hadamard,
                          radiality_check, rho_of, st_roots,
                          tilt_T, tilt_inverse, tilt_solve_fixed_point,
                          verify_gs, wj_extract, xi_root)
from popa_algebra.tilting import guarantee_radius
from conftest import perturbed_sigma, random_partition_spec

E = math.e
A1, A2, A3 = hadamard(1), hadamard(2), hadamard(3)


def _ok(num: int, detail: str):
    print(f"PASS criterion {num}: {detail}")


# ---------------------------------------------------------------------------

def test_criterion_1_gs_homomorphism_suite():
    exact = {
        "Canonical": CanonicalSolution(A2.element([0.8, -0.6])),
        "Partition": PartitionSolution(
            PartitionSpec(((0, 1), (2,)), np.array([1.0, 2.0, 0.7])), A3),
        "ComplexReIm": ComplexReImSolution(0.4, 1.5),
        "IdempotentBuilt": IdempotentSolution([A2.element([1, 0])],
                                              [1.0, 0.0], A2),
    }
    exponential = {
        "DegenerateExp/One_Exp": DegenerateExpSolution(
            DegenerateForm.ONE_EXP, axis=0, gamma_exp=1.3),
        "DegenerateExp/Affine_Power": DegenerateExpSolution(
            DegenerateForm.AFFINE_POWER, axis=0, rho=0.7, gamma_exp=1.8),
    }
    worst_exact = worst_exp = 0.0
    for name, sol in exact.items():
        rep = verify_gs(sol, 10000, seed=101, box_radius=0.4)
        assert rep.max_gs_residual < 1e-12, name
        assert rep.max_goldie_residual < 1e-12, name
        worst_exact = max(worst_exact, rep.max_gs_residual)
    for name, sol in exponential.items():
        rep = verify_gs(sol, 10000, seed=101, box_radius=0.4)
        assert rep.max_gs_residual < 1e-10, name
        assert rep.max_goldie_residual < 1e-10, name
        worst_exp = max(worst_exp, rep.max_gs_residual)
    _ok(1, f"6 families x 10^4 pairs; worst residual exact={worst_exact:.2e} "
           f"exponential={worst_exp:.2e}")


def test_criterion_2_matrix_soundness_and_rejection():
    rng = np.random.default_rng(202)
    worst_valid = 0.0
    worst_reject = math.inf
    for _ in range(50):
        spec = random_partition_spec(rng, int(rng.integers(2, 7)))
        m = SigmaMatrix(PartitionSolution(spec).gamma_matrix())
        assert analyse_sigma(m).valid
        rep = verify_gs(PartitionSolution(spec), 10000, seed=7)
        assert rep.max_gs_residual < 1e-10
        worst_valid = max(worst_valid, rep.max_gs_residual)

        bad = perturbed_sigma(rng, spec, min_margin=1e-3)
        assert not analyse_sigma(bad).valid
        bad_rep = verify_gs(LinearCandidate(bad.entries), 10000, seed=7)
        assert bad_rep.max_gs_residual > 1e-6
        worst_reject = min(worst_reject, bad_rep.max_gs_residual)
    _ok(2, f"50 valid accepted (max residual {worst_valid:.2e}); "
           f"50 perturbed rejected (min residual {worst_reject:.2e})")


# closed-form oracles for the three worked instances ------------------------

def _oracle_codependent(s1, s2):
    def S(x):
        v = 1.0 + s1 * x[0] + s2 * x[1]
        return np.array([v, v])
    rho = np.array([s1 + s2, s1 + s2])
    N = lambda x: np.array([s2 * (x[1] - x[0]), s1 * (x[0] - x[1])])
    g = lambda u: np.full(2, s1 * u[0] + s2 * u[1])
    def lam(u, t):
        tau = s1 * u[0] + s2 * u[1]
        val = t if abs(math.expm1(tau)) < 1e-12 else math.expm1(t * tau) / math.expm1(tau)
        return np.array([val, val])
    def T(u):
        tau = s1 * u[0] + s2 * u[1]
        m = 1.0 if tau == 0.0 else math.expm1(tau) / tau
        return u * m
    return S, rho, N, g, lam, T


def _oracle_exp_2d():
    S = lambda x: np.array([1.0, math.exp(x[0])])
    rho = np.array([0.0, E - 1.0])
    N = lambda x: np.array([0.0, math.expm1(x[0]) - (E - 1.0) * x[1]])
    g = lambda u: np.array([0.0, u[0]])
    def lam(u, t):
        z = u[0]
        second = t if abs(math.expm1(z)) < 1e-12 else math.expm1(t * z) / math.expm1(z)
        return np.array([t, second])
    def T(u):
        z = u[0]
        m = 1.0 if z == 0.0 else math.expm1(z) / z
        return np.array([u[0], u[1] * m])
    return S, rho, N, g, lam, T


def _oracle_exp_3d():
    S = lambda x: np.array([1.0, 1.0, math.exp(x[0] + x[1])])
    rho = np.array([0.0, 0.0, E ** 2 - 1.0])
    N = lambda x: np.array([0.0, 0.0,
                            math.expm1(x[0] + x[1]) - (E ** 2 - 1.0) * x[2]])
    g = lambda u: np.array([0.0, 0.0, u[0] + u[1]])
    def lam(u, t):
        z = u[0] + u[1]
        third = t if abs(math.expm1(z)) < 1e-12 else math.expm1(t * z) / math.expm1(z)
        return np.array([t, t, third])
    def T(u):
        z = u[0] + u[1]
        m = 1.0 if z == 0.0 else math.expm1(z) / z
        return np.array([u[0], u[1], u[2] * m])
    return S, rho, N, g, lam, T


def _worked_instances():
    return [
        ("codependent(1,2)",
         PartitionSolution(PartitionSpec(((0, 1),), np.array([1.0, 2.0]))),
         _oracle_codependent(1.0, 2.0)),
        ("exp-2d",
         DegenerateExpSolution(DegenerateForm.ONE_EXP, axis=0, gamma_exp=1.0),
         _oracle_exp_2d()),
        ("exp-3d",
         DegenerateExpSolution(DegenerateForm.ONE_EXP, weights=[1.0, 1.0, 0.0],
                               exp_index=2, algebra=A3),
         _oracle_exp_3d()),
    ]


def test_criterion_3_worked_example_oracles():
    rng = np.random.default_rng(33)
    worst = 0.0
    for name, sol, (S, rho, N, g, lam, T) in _worked_instances():
        d = sol.algebra.dim
        assert np.max(np.abs(rho_of(sol).coords - rho)) < 1e-12
        for _ in range(20):
            x = rng.uniform(-0.8, 0.8, d)
            el = sol.algebra.element(x)
            t = float(rng.uniform(0.0, 3.0))
            diffs = [
                np.max(np.abs(sol.eval(el).coords - S(x))),
                np.max(np.abs(adjustor(sol, el).coords - N(x))),
                np.max(np.abs(gamma(sol, el).coords - g(x))),
                np.max(np.abs(lambda_scale(sol, el, t).coords - lam(x, t))),
                np.max(np.abs(tilt_T(sol, el).coords - T(x))),
            ]
            assert max(diffs) < 1e-12, name
            worst = max(worst, max(diffs))
    _ok(3, f"3 worked instances x 20 points, S/rho/N/gamma/lambda/T agree "
           f"(worst diff {worst:.2e})")


def test_criterion_4_radiality():
    grid = list(np.arange(0.0, 3.0 + 1e-9, 0.25))
    rng = np.random.default_rng(44)
    worst = 0.0
    for name, sol, _ in _worked_instances():
        for _ in range(5):
            u = sol.algebra.element(rng.uniform(-0.8, 0.8, sol.algebra.dim))
            worst = max(worst, radiality_check(sol, u, grid))
    for _ in range(20):
        spec = random_partition_spec(rng, int(rng.integers(2, 6)))
        sol = PartitionSolution(spec)
        u = sol.algebra.element(rng.uniform(-0.8, 0.8, sol.algebra.dim))
        worst = max(worst, radiality_check(sol, u, grid))
    assert worst < 1e-9
    _ok(4, f"radiality defect over t-grid, worked + 20 random families: "
           f"max {worst:.2e}")


def test_criterion_5_tilt_round_trip():
    rng = np.random.default_rng(55)
    worst = 0.0
    for trial in range(1000):
        if trial % 2 == 0:
            spec = random_partition_spec(rng, int(rng.integers(2, 6)))
            sol = PartitionSolution(spec)
        else:
            d = int(rng.integers(1, 6))
            sol = CanonicalSolution(hadamard(d).element(rng.uniform(-2, 2, d)))
        u = sol.algebra.element(rng.uniform(-1, 1, sol.algebra.dim))
        gn = gamma(sol, u).norm()
        if gn >= 0.9:
            u = (0.85 / gn) * u
        v = tilt_T(sol, u)
        worst = max(worst, (tilt_inverse(sol, v) - u).norm())
    assert worst < 1e-10
    _ok(5, f"10^3 tilt round trips (norm gamma < 0.9): max error {worst:.2e}")


def test_criterion_6_fixed_point_solver():
    rng = np.random.default_rng(66)
    worst_resid = worst_agree = worst_ratio = 0.0
    max_iters = 0
    solves = 0
    while solves < 50:
        d = int(rng.integers(1, 5))
        if solves % 2 == 0:
            sol = CanonicalSolution(hadamard(d).element(rng.uniform(-0.8, 0.8, d)))
        else:
            sol = PartitionSolution(random_partition_spec(rng, max(d, 2)))
        eta = guarantee_radius(sol)
        if not math.isfinite(eta):
            continue
        v = sol.algebra.element(rng.uniform(-1, 1, sol.algebra.dim))
        v = (0.9 * eta / max(v.norm(), 1e-12)) * v
        res = tilt_solve_fixed_point(sol, v)
        assert res.guaranteed
        assert res.final_residual < 1e-12
        assert res.iterations <= 60
        if res.contraction_ratios:
            worst_ratio = max(worst_ratio, max(res.contraction_ratios))
            assert max(res.contraction_ratios) <= 0.5 + 1e-9
        agree = (res.u - tilt_inverse(sol, v)).norm()
        assert agree < 1e-10
        worst_resid = max(worst_resid, res.final_residual)
        worst_agree = max(worst_agree, agree)
        max_iters = max(max_iters, res.iterations)
        solves += 1
    _ok(6, f"50 guaranteed solves: residual<=~{worst_resid:.1e}, "
           f"iters<={max_iters}, contraction<={worst_ratio:.3f}, "
           f"closed-form agreement<={worst_agree:.1e}")


def test_criterion_7_st_roots_and_xi():
    roots = st_roots(10)
    assert len(roots) == 10
    assert all(r.residual < 1e-12 for r in roots)
    ys = [r.y for r in roots]
    assert all(a < b for a, b in zip(ys, ys[1:]))
    xi = xi_root()
    assert 1.27846 <= xi <= 1.27847
    assert abs(math.exp(-xi) - (xi - 1.0)) < 1e-13
    _ok(7, f"10 roots (max residual {max(r.residual for r in roots):.1e}), xi={xi:.6f}")


def test_criterion_8_ratio_limit_convergence():
    cases = [A1.element([0.0]), A1.element([1.0]), A2.element([1.0, 0.0])]
    finals = []
    for a in cases:
        res = ratio_limit_check(a, 2.0)
        assert res.ns == (10, 100, 1000, 10000)
        assert all(x >= y for x, y in zip(res.errors, res.errors[1:]))
        assert res.errors[-1] < 5e-4
        finals.append(res.errors[-1])
    _ok(8, f"ratio errors decrease; n=10^4 errors {['%.1e' % f for f in finals]}")


def test_criterion_9_dichotomy():
    rng = np.random.default_rng(99)
    worst = 0.0
    done = 0
    while done < 100:
        spec = random_partition_spec(rng, int(rng.integers(2, 6)))
        sol = PartitionSolution(spec)
        a = sol.algebra.element(rng.uniform(-1.5, 1.5, sol.algebra.dim))
        w = sol.algebra.unit() - sol.eval(a)
        if np.min(np.abs(w.spectrum())) <= 1e-6:
            continue
        res = dichotomy_check(sol, a)
        worst = max(worst, res.s_of_b.norm())
        done += 1
    assert worst < 1e-10
    _ok(9, f"100 vanishing-image points: max norm S(b) = {worst:.2e}")


def test_criterion_10_wj_round_trip():
    rng = np.random.default_rng(1010)
    worst = 0.0
    points = 0
    sols = [
        CanonicalSolution(A2.element([1.0, 0.5])),
        PartitionSolution(PartitionSpec(((0, 1),), np.array([1.0, 1.0]))),
        PartitionSolution(PartitionSpec(((0, 1), (2,)), np.array([0.5, 1.5, 2.0])),
                          A3),
    ]
    for sol in sols:
        lams = [sol.eval(sol.algebra.element(
            rng.uniform(-0.25, 0.25, sol.algebra.dim))) for _ in range(5)]
        triple = wj_extract(sol, lams)
        oracle = WjSolutionOracle(triple)
        k = oracle._kernel
        per_sol = 1000 // len(sols) + 1
        covered = oracle.covered
        for _ in range(per_sol):
            _, x = covered[int(rng.integers(len(covered)))]
            if k.shape[0]:
                x = x + sol.algebra.element(k.T @ rng.uniform(-0.5, 0.5, k.shape[0]))
            diff = (oracle.eval(x) - sol.eval(x)).norm()
            worst = max(worst, diff)
            points += 1
    assert points >= 1000
    assert worst < 1e-10

    # corrupted section: shift one value's preimage off the kernel
    base = sols[1]
    lams = [base.eval(base.algebra.element([0.2, 0.1])),
            base.eval(base.algebra.element([-0.1, 0.15]))]
    good = wj_extract(base, lams)
    fake = WjTriple(good.kernel_basis, good.lambda_samples,
                    lambda lam: good.section(lam) + ((lam - base.algebra.unit()).norm() > 1e-12) * base.algebra.element([0.3, 0.3]))
    with pytest.raises(InvalidTriple):
        WjSolutionOracle(fake)
    _ok(10, f"{points} covered points reproduced mod kernel "
            f"(max diff {worst:.2e}); corrupted section rejected")


def test_criterion_11_kernel_characterization():
    rng = np.random.default_rng(1111)
    worst = 0.0
    for _ in range(20):
        spec = random_partition_spec(rng, int(rng.integers(2, 7)))
        sol = PartitionSolution(spec)
        m = SigmaMatrix(PartitionSolution(spec).gamma_matrix())
        for v in analyse_sigma(m).kernel_basis:
            nv = adjustor(sol, v)
            for t in np.linspace(-2.0, 2.0, 9):
                worst = max(worst, (sol.eval(t * v)
                                    - sol.algebra.unit()).norm())
                worst = max(worst, (adjustor(sol, t * v) - t * nv).norm())
    assert worst < 1e-9
    _ok(11, f"20 random families: kernel rays fix the unit and the adjustor "
            f"is linear there (max defect {worst:.2e})")
