"""Tilting map, exponential scale, closed-form inverse, fixed-point solver."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

import scalar_oracle as oracle
from conftest import random_partition_spec
from paper_checks import (NotInvertible, _finite_ratio_scalar, adjustor, contraction_radius,
                          lambda_scale, ratio_limit_check, tilt_path)
from popa_algebra import (CanonicalSolution, ComplexReImSolution,
                          DegenerateExpSolution, DegenerateForm, Direction, Element,
                          IdempotentSolution, LinearSolution, LogBranchViolation,
                          NoConvergence, NotOmegaHomogeneous,
                          PartitionSolution, PartitionSpec,
                          complex_plane, gamma, grid_interval, hadamard,
                          radiality_check, tilt_T, tilt_inverse,
                          tilt_solve_fixed_point, unboundedness_direction)
from popa_algebra.algebra import log1p_over_scalar, mu_h_scalar
from popa_algebra.tilting import KERNEL_EPS, RESIDUAL_TOL, guarantee_radius

E = math.e
A1, A2, A3 = hadamard(1), hadamard(2), hadamard(3)


def one_exp_2d(g=1.0):
    return DegenerateExpSolution(DegenerateForm.ONE_EXP, axis=0, gamma_exp=g)


def exp_3d():
    return DegenerateExpSolution(DegenerateForm.ONE_EXP, weights=[1.0, 1.0, 0.0],
                                 exp_index=2, algebra=A3)


def codependent(s1=1.0, s2=2.0):
    return PartitionSolution(PartitionSpec(((0, 1),), np.array([s1, s2])))


# ---------------------------------------------------------------------------
# the tilting map
# ---------------------------------------------------------------------------

def test_tilt_exponential_2d():
    got = tilt_T(one_exp_2d(1.0), A2.element([1.0, 1.0]))
    assert np.allclose(got.coords, [1.0, E - 1.0])


def test_tilt_exponential_3d():
    got = tilt_T(exp_3d(), A3.element([1.0, 1.0, 1.0]))
    assert np.allclose(got.coords, [1.0, 1.0, (E ** 2 - 1.0) / 2.0])


def test_tilt_is_identity_with_zero_derivative():
    sol = PartitionSolution(PartitionSpec(((0,), (1,)), np.array([0.0, 0.0])))
    u = A2.element([0.7, -0.3])
    assert (tilt_T(sol, u) - u).norm() < 1e-15


def test_tilt_zero_maps_to_zero():
    for sol in (codependent(), one_exp_2d()):
        zero = sol.algebra.element(np.zeros(sol.algebra.dim))
        assert tilt_T(sol, zero).norm() == 0.0


def test_tilt_multiplier_invertible_on_samples():
    rng = np.random.default_rng(4)
    sol = codependent()
    for _ in range(100):
        u = A2.element(rng.uniform(-0.4, 0.4, 2))
        assert gamma(sol, u).apply_scalar(mu_h_scalar)[0].is_invertible()


# ---------------------------------------------------------------------------
# lambda scaling
# ---------------------------------------------------------------------------

def test_lambda_at_one_is_unit():
    rng = np.random.default_rng(1)
    for sol in (codependent(), one_exp_2d(), exp_3d()):
        u = sol.algebra.element(rng.uniform(-1, 1, sol.algebra.dim))
        assert (lambda_scale(sol, u, 1.0) - sol.algebra.unit()).norm() < 1e-12
        assert lambda_scale(sol, u, 0.0).norm() < 1e-15


def test_lambda_exponential_instance():
    got = lambda_scale(one_exp_2d(1.0), A2.element([1.0, 0.0]), 2.0)
    assert np.allclose(got.coords, [2.0, (E ** 2 - 1.0) / (E - 1.0)])


def test_lambda_with_zero_derivative_is_scalar_t():
    sol = one_exp_2d(1.0)
    got = lambda_scale(sol, A2.element([0.0, 5.0]), 3.7)
    assert np.allclose(got.coords, [3.7, 3.7])


def test_lambda_goldie_identity():
    rng = np.random.default_rng(2)
    sol = codependent()
    for _ in range(25):
        u = A2.element(rng.uniform(-1, 1, 2))
        s, t = rng.uniform(0, 2, 2)
        lhs = lambda_scale(sol, u, s + t)
        rhs = (lambda_scale(sol, u, s)
               + (s * gamma(sol, u)).apply_scalar(np.exp) * lambda_scale(sol, u, t))
        assert (lhs - rhs).norm() < 1e-10


def test_tilt_homogeneity_along_rays():
    rng = np.random.default_rng(3)
    for sol in (codependent(), one_exp_2d(1.3), exp_3d()):
        for _ in range(20):
            u = sol.algebra.element(rng.uniform(-0.8, 0.8, sol.algebra.dim))
            for t in (0.0, 0.3, 1.0, 2.5):
                lhs = tilt_T(sol, t * u)
                rhs = lambda_scale(sol, u, t) * tilt_T(sol, u)
                # T(tu) uses gamma(tu) = t*gamma(u): same curve as the path form
                assert (lhs - rhs).norm() < 1e-10
                assert (tilt_path(sol, u, t) - lhs).norm() < 1e-10


# ---------------------------------------------------------------------------
# radiality of the adjustor
# ---------------------------------------------------------------------------

def test_radiality_exponential_hand_values():
    # adjustor along the tilt of (1, 0): N(t(1,0)) = (0, e^t - 1) equals
    # ((e^t - 1)/(e - 1)) * (0, e - 1)
    sol = one_exp_2d(1.0)
    u = A2.element([1.0, 0.0])
    for t in (0.0, 0.5, 1.0, 2.0, 3.0):
        path = tilt_path(sol, u, t)   # the ray (t, 0): kernel coord linear
        assert np.allclose(path.coords, [t, 0.0])
        assert np.allclose(adjustor(sol, path).coords, [0.0, math.expm1(t)])
    assert radiality_check(sol, u, [0.0, 0.5, 1.0, 2.0, 3.0]) < 1e-10


def test_radiality_trivial_cases():
    sol = one_exp_2d(1.0)
    assert radiality_check(sol, A2.element([1.0, 0.0]), [1.0]) == 0.0
    can = CanonicalSolution(A2.element([1.0, 0.5]))
    assert radiality_check(can, A2.element([0.3, 0.4]), [0.0, 0.5, 1.0, 2.0]) < 1e-12


def test_radiality_reports_a_nan_defect():
    # the tilt of u = (1e308, 0.1) holds NaN; max(0.0, nan) kept 0.0, a pass.
    # At t = 0 the path multiplies 0 by inf, silently
    sol = CanonicalSolution(A2.element([2.0, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(radiality_check(sol, A2.element([1e308, 0.1]), [0.0, 0.5, 1.0, 2.0]))


def test_radiality_partition_random():
    rng = np.random.default_rng(5)
    grid = [0.0, 0.25, 0.5, 1.0, 2.0, 3.0]
    for _ in range(10):
        sol = codependent(*rng.uniform(-1.5, 1.5, 2))
        u = A2.element(rng.uniform(-0.8, 0.8, 2))
        assert radiality_check(sol, u, grid) < 1e-9


# ---------------------------------------------------------------------------
# closed-form inverse
# ---------------------------------------------------------------------------

def test_tilt_inverse_roundtrip():
    rng = np.random.default_rng(6)
    sols = [codependent(), CanonicalSolution(A2.element([0.8, -0.6])),
            IdempotentSolution([A2.element([1, 0])], [1.0, 0.0], A2),
            ComplexReImSolution(0.3, 0.7),
            CanonicalSolution(complex_plane().element([0.5, 0.4]))]
    for sol in sols:
        for _ in range(20):
            u = sol.algebra.element(rng.uniform(-0.4, 0.4, sol.algebra.dim))
            g = gamma(sol, u)
            if g.norm() > 0.9:
                u = (0.8 / g.norm()) * u
            v = tilt_T(sol, u)
            back = tilt_inverse(sol, v)
            assert (back - u).norm() < 1e-10
            assert (tilt_T(sol, back) - v).norm() < 1e-10
            # derivative consistency: gamma(u) = log(unit + gamma(v))
            log1g = (sol.algebra.unit() + gamma(sol, v)).apply_scalar(np.log)
            assert (gamma(sol, back) - log1g).norm() < 1e-10


def test_tilt_inverse_kernel_direction_is_identity():
    sol = codependent(1.0, 1.0)
    v = A2.element([0.5, -0.5])  # gamma(v) = 0
    assert (tilt_inverse(sol, v) - v).norm() < 1e-14


def test_tilt_inverse_branch_violation():
    sol = CanonicalSolution(A1.element([1.0]))
    with pytest.raises(LogBranchViolation):
        tilt_inverse(sol, A1.element([-1.0]))   # 1 + gamma(v) = 0


def test_tilt_inverse_requires_power_compatible_derivative():
    with pytest.raises(NotOmegaHomogeneous):
        tilt_inverse(one_exp_2d(1.0), A2.element([0.1, 0.1]))


# ---------------------------------------------------------------------------
# fixed-point solver
# ---------------------------------------------------------------------------

def test_solver_trivial_when_derivative_vanishes():
    sol = PartitionSolution(PartitionSpec(((0,), (1,)), np.array([0.0, 0.0])))
    v = A2.element([0.3, 0.4])
    res = tilt_solve_fixed_point(sol, v)
    assert res.iterations == 0
    assert res.guaranteed
    assert (res.u - v).norm() == 0.0


def test_solver_agrees_with_closed_form():
    sol = codependent(0.3, 0.4)
    eta = guarantee_radius(sol)
    assert 0 < eta < 1
    rng = np.random.default_rng(7)
    for _ in range(20):
        v = sol.algebra.element(rng.uniform(-1, 1, 2))
        v = (0.9 * eta / max(v.norm(), 1e-12)) * v
        res = tilt_solve_fixed_point(sol, v)
        assert res.guaranteed
        assert res.final_residual < 1e-12
        assert res.iterations <= 60
        assert (res.u - tilt_inverse(sol, v)).norm() < 1e-10
        if res.contraction_ratios:
            assert max(res.contraction_ratios) <= 0.5 + 1e-9


def test_solver_reports_its_contraction_against_the_bound():
    # inside the guarantee radius the reported ratio is at most 1/2
    sol = codependent(0.3, 0.4)
    v = A2.element([0.6, -0.8])
    v = (0.9 * guarantee_radius(sol) / v.norm()) * v
    res = tilt_solve_fixed_point(sol, v)
    assert res.guaranteed and len(res.contraction_ratios) >= 1
    rep = res.to_json()
    assert rep["contraction_bound"] == 0.5
    assert rep["max_contraction_ratio"] == max(res.contraction_ratios)
    assert 0.0 < rep["max_contraction_ratio"] <= 0.5
    # with no step taken there is no ratio to report
    zero = PartitionSolution(PartitionSpec(((0,), (1,)), np.array([0.0, 0.0])))
    rep = tilt_solve_fixed_point(zero, v).to_json()
    assert rep["max_contraction_ratio"] is None
    assert rep["contraction_bound"] == 0.5


def test_solver_flags_outside_guarantee():
    sol = codependent(1.0, 1.0)
    v = 10.0 * A2.unit()
    assert guarantee_radius(sol) <= 1.0
    with pytest.raises(NoConvergence):
        tilt_solve_fixed_point(sol, v, max_iter=120)


def test_solver_unguaranteed_but_converging():
    sol = codependent(1.0, 2.0)
    v = A2.element([0.05, 0.05])
    res = tilt_solve_fixed_point(sol, v)
    assert not res.guaranteed            # norm(v) above the tiny eta here
    assert res.final_residual < 1e-12


def _tilt_families(rng):
    """One solution of each family the tilt runs on."""
    grid = grid_interval(np.linspace(0.0, 1.0, 7))
    return [PartitionSolution(random_partition_spec(rng, 12)),
            PartitionSolution(random_partition_spec(rng, 7), grid),
            CanonicalSolution(hadamard(5).element(rng.uniform(-1.0, 1.0, 5))),
            CanonicalSolution(grid.element(rng.uniform(-1.0, 1.0, 7))),
            CanonicalSolution(complex_plane().element(rng.uniform(-1.0, 1.0, 2))),
            ComplexReImSolution(*rng.uniform(-1.0, 1.0, 2)),
            one_exp_2d(0.7), exp_3d()]


def _count_gamma(sol):
    """Record each call of sol.gamma, which eval also goes through."""
    calls, inner = [], sol.gamma

    def counted(u):
        calls.append(u)
        return inner(u)

    sol.gamma = counted
    return calls


def _radiality_composed(sol, u, t_grid):
    n_t1 = adjustor(sol, tilt_T(sol, u))
    return max([0.0] + [(adjustor(sol, tilt_path(sol, u, t))
                         - lambda_scale(sol, u, t) * n_t1).norm() for t in t_grid])


def _solve_composed(sol, v, max_iter=200):
    u, ratios, prev_step = v, [], None
    residual = (v - tilt_T(sol, u)).norm()
    it = 0
    while residual >= RESIDUAL_TOL * max(1.0, v.norm()) and it < max_iter:
        it += 1
        u_next = v - u * gamma(sol, u).apply_scalar(mu_h_scalar)[1]
        step = (u_next - u).norm()
        if prev_step is not None and prev_step > 0.0:
            ratios.append(step / prev_step)
        prev_step, u = step, u_next
        residual = (v - tilt_T(sol, u)).norm()
    return u, it, residual, tuple(ratios)


def test_radiality_equals_the_public_composition_exactly():
    # g(u) and rho are computed once, with the same bits as through
    # tilt_T, tilt_path, lambda_scale and adjustor
    rng = np.random.default_rng(31)
    t_grid = [0.0, 0.25, 0.5, 1.0, 2.0, 3.0]
    for sol in _tilt_families(rng):
        for scale in (1e-7, 0.3, 1.0):
            coords = rng.uniform(-1.0, 1.0, sol.algebra.dim) * scale
            coords[0] = 0.0
            u = sol.algebra.element(coords)
            assert radiality_check(sol, u, t_grid) == _radiality_composed(sol, u, t_grid)
            calls = _count_gamma(sol)
            radiality_check(sol, u, [0.25, 0.5, 1.0, 2.0])
            del sol.gamma
            assert 1 <= len(calls) <= 7


def test_solver_equals_the_public_composition_exactly():
    # one gamma per iterate serves the residual and the next step
    rng = np.random.default_rng(32)
    for sol in _tilt_families(rng):
        eta = guarantee_radius(sol)
        for scale in (0.5 * eta, 0.9 * eta, 1e-9):
            direction = sol.algebra.element(rng.uniform(-1.0, 1.0, sol.algebra.dim))
            v = (scale / direction.norm()) * direction
            u, iterations, residual, ratios = _solve_composed(sol, v)
            calls = _count_gamma(sol)
            res = tilt_solve_fixed_point(sol, v)
            del sol.gamma
            assert res.u.coords.tobytes() == u.coords.tobytes()
            assert (res.iterations, res.final_residual, res.contraction_ratios) == (
                iterations, residual, ratios)
            assert len(calls) == res.iterations + 1


def _count_apply_scalar(monkeypatch):
    """Record each call of Element.apply_scalar, the one spectral pass."""
    calls, inner = [], Element.apply_scalar

    def counted(self, fn):
        calls.append(fn)
        return inner(self, fn)

    monkeypatch.setattr(Element, "apply_scalar", counted)
    return calls


def test_solver_makes_one_spectral_pass_per_iterate(monkeypatch):
    # the tilt's multiplier, for the residual, and h, for the next step,
    # come from one map: k iterates make k + 1 passes
    rng = np.random.default_rng(35)
    calls = _count_apply_scalar(monkeypatch)
    iterations = []
    for sol in _tilt_families(rng):
        for scale in (0.9 * guarantee_radius(sol), 0.1 * guarantee_radius(sol)):
            direction = sol.algebra.element(rng.uniform(-1.0, 1.0, sol.algebra.dim))
            calls.clear()
            res = tilt_solve_fixed_point(sol, (scale / direction.norm()) * direction)
            assert len(calls) == res.iterations + 1, sol.variant
            iterations.append(res.iterations)
    assert max(iterations) >= 3   # two passes per iterate would make 2k + 1


def test_radiality_makes_one_spectral_pass_per_t(monkeypatch):
    # the tilt path and lambda(t) come from one map: T values of t make T + 1
    rng = np.random.default_rng(36)
    calls = _count_apply_scalar(monkeypatch)
    for sol in _tilt_families(rng):
        u = sol.algebra.element(rng.uniform(-0.5, 0.5, sol.algebra.dim))
        for t_grid in ([], [1.0], [0.0, 0.25, 0.5, 1.0, 2.0, 3.0]):
            calls.clear()
            radiality_check(sol, u, t_grid)
            assert len(calls) == len(t_grid) + 1, sol.variant


def test_inverse_equals_the_public_composition_exactly():
    rng = np.random.default_rng(33)
    checked = 0
    for sol in _tilt_families(rng):
        for scale in (1e-9, 0.05, 0.3):
            v = sol.algebra.element(rng.uniform(-1.0, 1.0, sol.algebra.dim) * scale)
            if not sol.omega_homogeneous():
                with pytest.raises(NotOmegaHomogeneous):
                    tilt_inverse(sol, v)
                continue
            want = v * gamma(sol, v).apply_scalar(log1p_over_scalar)
            assert tilt_inverse(sol, v).coords.tobytes() == want.coords.tobytes()
            checked += 1
    assert checked == 18


def _limit_composed(u, gu):
    """-u/g(u) on each spectral point above KERNEL_EPS, 0 on the kernel."""
    if gu.algebra.componentwise:
        with np.errstate(all="ignore"):
            return np.where(np.abs(gu.coords) > KERNEL_EPS, -u.coords / gu.coords, 0.0)
    w = -complex(*u.coords) / complex(*gu.coords)
    return np.array([w.real, w.imag])


def test_limit_point_equals_the_public_composition_exactly():
    # u follows the sign of each column of M, so that gamma(u) has one sign
    # off the kernel and the bounded ray has a limit
    rng = np.random.default_rng(34)
    checked = 0
    for sol in _tilt_families(rng):
        signs = np.sign(sol.gamma_matrix().sum(axis=0))
        for scale in (1e-7, 0.3, -0.3, 1.0):
            u = sol.algebra.element(signs * rng.uniform(0.1, 1.0, sol.algebra.dim) * scale)
            verdict = unboundedness_direction(sol, u)
            if verdict.limit_point is None:
                continue
            want = _limit_composed(u, gamma(sol, u))
            assert verdict.limit_point.coords.tobytes() == want.tobytes()
            checked += 1
    assert checked == 32


def test_contraction_radius_formulas():
    sol = codependent(0.3, 0.4)
    gn = sol.gamma_norm()
    assert gn == 0.7
    delta = contraction_radius(sol)
    assert abs(delta - min(1.0, 1.0 / (3.0 * gn * math.exp(gn)))) < 1e-15
    eta = guarantee_radius(sol)
    assert abs(eta - min(1.0, delta / 2, delta / (2 * gn * math.exp(gn)))) < 1e-15


def test_radii_are_zero_where_the_growth_overflows():
    sol = codependent(1.0, 1e308)   # e^gamma_norm overflows
    assert contraction_radius(sol) == 0.0
    assert guarantee_radius(sol) == 0.0


# ---------------------------------------------------------------------------
# one-sided unboundedness
# ---------------------------------------------------------------------------

def test_unboundedness_exponential_form():
    sol = one_exp_2d(1.0)
    verdict = unboundedness_direction(sol, A2.element([1.0, 0.0]))
    assert verdict.direction is Direction.PLUS_UNBOUNDED
    # bounded-direction limit -u/g on the active coordinate, 0 on the kernel
    assert np.allclose(verdict.limit_point.coords, [0.0, 0.0])
    far = tilt_path(sol, A2.element([1.0, 0.0]), -30.0)
    assert abs(far.coords[1] - verdict.limit_point.coords[1]) < 1e-9


def test_unboundedness_scalar_canonical():
    sol = CanonicalSolution(A1.element([1.0]))
    verdict = unboundedness_direction(sol, A1.element([1.0]))
    assert verdict.direction is Direction.PLUS_UNBOUNDED
    assert np.allclose(verdict.limit_point.coords, [-1.0])
    # (e^{-s} - 1)/1 -> -1
    assert abs(tilt_path(sol, A1.element([1.0]), -40.0).coords[0] + 1.0) < 1e-12


def test_unboundedness_negative_derivative():
    sol = CanonicalSolution(A1.element([-0.5]))
    verdict = unboundedness_direction(sol, A1.element([1.0]))
    assert verdict.direction is Direction.MINUS_UNBOUNDED
    assert np.allclose(verdict.limit_point.coords, [2.0])  # -u/g = -1/-0.5


def test_unboundedness_unit_norm_cases():
    sol = codependent(1.0, 1.0)
    verdict = unboundedness_direction(sol, A2.element([0.5, -0.5]))  # gamma = 0
    assert verdict.direction is Direction.UNIT_NORM
    rot = CanonicalSolution(complex_plane().element([0.0, 1.0]))
    u = complex_plane().element([1.0, 0.0])   # gamma(u) = i: |e^{si}| = 1
    assert unboundedness_direction(rot, u).direction is Direction.UNIT_NORM


@pytest.mark.parametrize("re, im", [(0.01, math.pi / 20), (0.01, -math.pi / 20),
                                    (-0.01, math.pi / 20), (-0.01, -math.pi / 20)])
def test_unboundedness_oscillating_complex_spectrum(re, im):
    # gamma(u) = u = z: along s -> T(su) = (e^{sz} - 1) u / z the modulus
    # |e^{sz}| = e^{s Re z} grows on the ray of the sign of Re z, while
    # |e^{20 z} + 1| < 1, so the tilt at 40 is shorter than at 20
    sol = CanonicalSolution(complex_plane().element([1.0, 0.0]))
    z = complex(re, im)
    assert abs(cmath.exp(20 * z) + 1) < 1
    verdict = unboundedness_direction(sol, complex_plane().element([re, im]))
    assert verdict.direction is (Direction.PLUS_UNBOUNDED if re > 0
                                 else Direction.MINUS_UNBOUNDED)
    sign = 1.0 if re > 0 else -1.0
    assert abs(cmath.exp(sign * 3000 * z) - 1) > 1e12   # the verdict's ray grows
    assert abs(cmath.exp(-sign * 3000 * z)) < 1e-12     # the other tends to -u/z
    assert verdict.limit_point.as_complex() == pytest.approx(-1.0, abs=1e-15)   # -u / z


# ---------------------------------------------------------------------------
# finite-index ratio convergence
# ---------------------------------------------------------------------------

def test_ratio_limit_zero_element():
    res = ratio_limit_check(A1.element([0.0]), 2.0)
    assert np.allclose(res.limit.coords, [2.0])
    assert all(e == 0.0 for e in res.errors)   # round(tn)/n = t exactly here


def test_ratio_limit_scalar():
    res = ratio_limit_check(A1.element([1.0]), 2.0)
    assert abs(res.limit.coords[0] - (E + 1.0)) < 1e-14   # (e^2-1)/(e-1) = e+1
    assert res.ns == (10, 100, 1000, 10000)
    assert all(a >= b for a, b in zip(res.errors, res.errors[1:]))
    assert res.errors[-1] < 5e-4


def test_ratio_limit_mixed_coordinates():
    res = ratio_limit_check(A2.element([1.0, 0.0]), 2.0)
    assert np.allclose(res.limit.coords, [(E ** 2 - 1) / (E - 1), 2.0])
    assert all(a >= b for a, b in zip(res.errors, res.errors[1:]))


def test_ratio_limit_singular_intermediate():
    # (1 + z/n) = -1 at z = -2n with even n: power n gives 1, e^z != 1
    with pytest.raises(NotInvertible, match="at n=10$"):
        ratio_limit_check(A1.element([-20.0]), 2.0)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_ratio_limit_refuses_a_t_that_is_not_positive_and_finite(t):
    with pytest.raises(ValueError, match="^t must be positive$"):
        ratio_limit_check(A1.element([1.0]), t)


@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
def test_radiality_refuses_a_t_that_is_not_non_negative_and_finite(t):
    with pytest.raises(ValueError, match="^t_grid must be non-negative$"):
        radiality_check(codependent(), A2.element([0.1, 0.2]), [0.5, t, 1.0])


def test_solver_results_compare_by_value():
    sol, v = codependent(0.3, 0.2), A2.element([0.05, -0.02])
    first, again = tilt_solve_fixed_point(sol, v), tilt_solve_fixed_point(sol, v)
    assert first is not again and first == again
    assert first != first._replace(u=first.u + A2.element([1e-3, 0.0]))
    assert ratio_limit_check(v, 2.0) == ratio_limit_check(v, 2.0)


# ---------------------------------------------------------------------------
# kernel characterization via the derivative
# ---------------------------------------------------------------------------

def test_kernel_of_derivative_is_homogeneous_for_adjustor():
    rng = np.random.default_rng(8)
    from popa_algebra.structure import SigmaMatrix, analyse_sigma
    from conftest import random_partition_spec
    for _ in range(10):
        spec = random_partition_spec(rng, int(rng.integers(2, 6)))
        sol = PartitionSolution(spec)
        for v in analyse_sigma(SigmaMatrix(PartitionSolution(spec).gamma_matrix())).kernel_basis:
            nv = adjustor(sol, v)
            for t in np.linspace(-2, 2, 9):
                assert (sol.eval(t * v) - sol.algebra.unit()).norm() < 1e-9
                assert (adjustor(sol, t * v) - t * nv).norm() < 1e-9


def test_solver_stops_at_a_non_finite_residual():
    sol = CanonicalSolution(A2.element([1.0, 1.0]))
    calls = _count_gamma(sol)
    with pytest.raises(NoConvergence, match="non-finite residual"):
        tilt_solve_fixed_point(sol, A2.element([math.nan, 0.1]))
    assert len(calls) == 1  # the starting residual only: no step is taken


def test_solver_stops_when_the_residual_keeps_growing():
    # far outside the guarantee ball each step overshoots further
    sol = CanonicalSolution(A1.element([1.0]))
    with pytest.raises(NoConvergence, match="residual grew for 5 consecutive steps"):
        tilt_solve_fixed_point(sol, A1.element([2.0]))


def test_inverse_overflow_is_a_log_branch_violation_without_a_warning():
    # rho v overflows to gamma(v) = -inf, whose 1 + gamma is off the log branch
    sol = CanonicalSolution(A2.element([-2.0, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LogBranchViolation):
            tilt_inverse(sol, A2.element([1e308, 0.1]))


@pytest.mark.parametrize("rho, v0", [(6.605524798050306e-06, 34685.19605653322),
                                     (3.886303977238026e-05, 16614.37751735289)])
def test_solver_stops_on_the_backward_error(rho, v0):
    # the residual cannot go below about one ulp of |v| (7.3e-12 at 34685):
    # the solver stops once it is below RESIDUAL_TOL * |v|
    sol = CanonicalSolution(A2.element([rho, rho]))
    v = A2.element([v0, 0.2])
    res = tilt_solve_fixed_point(sol, v)
    assert RESIDUAL_TOL <= res.final_residual < RESIDUAL_TOL * v.norm()
    assert res.final_residual == (v - tilt_T(sol, res.u)).norm()
    assert res.iterations < 200


def test_tilt_overflow_is_non_finite_without_warnings():
    # e^800 overflows: the tilt holds inf where it used to raise OverflowError
    sol = CanonicalSolution(A2.element([1.0, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = tilt_T(sol, A2.element([800.0, 0.2]))
        coupled = tilt_T(codependent(1.0, 1.0), A2.element([800.0, 0.0]))
    assert math.isinf(t.coords[0])
    assert abs(t.coords[1] - 0.2 * oracle.mu_scalar(0.2)) < 1e-15
    assert not np.isfinite(coupled.coords).any()


@pytest.mark.parametrize("n", [10, 100, 1000, 10000])
def test_finite_ratio_matches_scalar_oracle(n):
    rng = np.random.default_rng(n)
    m = int(round(0.7 * n))
    # kernel points, a non-positive base 1 + z/n, and generic points
    real = np.concatenate([[0.0, 1e-13, -1.5 * n + 0.3], rng.uniform(-3, 3, 200)])
    cplx = rng.uniform(-3, 3, 200) + 1j * rng.uniform(-3, 3, 200)
    # complex (1 + z/n)^n comes from two different power routines: they
    # differ by up to a few ulp per factor of the rounded base
    for z, tol in ((real, 1e-14), (cplx, 1e-12)):
        got = _finite_ratio_scalar(z, n, m)
        for g, w in zip(got, z):
            want = oracle.finite_ratio_scalar(w.item(), n, m)
            assert abs(g - want) <= tol * abs(want)
    with pytest.raises(NotInvertible):
        _finite_ratio_scalar(np.array([0.5, -20.0]), 10, 20)


def _round_trip_family(family: str, rng, d: int):
    if family == "partition":
        return PartitionSolution(random_partition_spec(rng, d))
    if family == "grid":
        grid = np.sort(rng.choice(np.arange(1, 10**6), d, replace=False)) / 10**6
        return PartitionSolution(random_partition_spec(rng, d), grid_interval(grid))
    if family == "canonical":
        return CanonicalSolution(hadamard(d).element(rng.uniform(-2.0, 2.0, d)))
    return CanonicalSolution(complex_plane().element(rng.uniform(-2.0, 2.0, 2)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=hst.integers(0, 2**32 - 1), d=hst.integers(1, 40),
       family=hst.sampled_from(["partition", "grid", "canonical", "complex"]),
       size=hst.floats(0.0, 0.95))
def test_tilt_round_trip_inside_log_branch(seed, d, family, size):
    rng = np.random.default_rng(seed)
    sol = _round_trip_family(family, rng, d)
    u = sol.algebra.element(rng.uniform(-1.0, 1.0, sol.algebra.dim))
    g = gamma(sol, u).norm()
    if g > 0.0:
        # spectrum of gamma(u) within |z| < 1 < pi, so unit + gamma(T(u)) =
        # e^{gamma(u)} has gamma(u) as its principal logarithm
        u = (size / g) * u
    v = tilt_T(sol, u)
    back = tilt_inverse(sol, v)
    assert (back - u).norm() <= 1e-12 * max(1.0, u.norm())


def test_large_partition_tilt_never_builds_the_dense_matrix(monkeypatch):
    # d = 4096 in parts of 16: a dense M would take 128 MiB and O(d^2) per step
    rng = np.random.default_rng(12)
    d = 4096
    perm = rng.permutation(d)
    spec = PartitionSpec(tuple(tuple(perm[k:k + 16]) for k in range(0, d, 16)),
                         rng.uniform(0.5, 1.0, d) * rng.choice([-1.0, 1.0], d) / 16)
    grid = np.sort(rng.choice(np.arange(1, 10**6), d, replace=False)) / 10**6
    sol = PartitionSolution(spec, grid_interval(grid))

    def refuse(self):
        raise AssertionError("the dense derivative matrix was built")

    monkeypatch.setattr(LinearSolution, "gamma_matrix", refuse)
    eta = guarantee_radius(sol)
    direction = rng.uniform(-1.0, 1.0, d)
    v = sol.algebra.element(0.5 * eta * direction / np.max(np.abs(direction)))
    res = tilt_solve_fixed_point(sol, v)
    assert res.guaranteed and res.final_residual < 1e-12
    assert (tilt_inverse(sol, v) - res.u).norm() < 1e-12
    assert radiality_check(sol, v, [0.25, 0.5, 1.0, 2.0]) < 1e-9
    assert unboundedness_direction(sol, v).direction in tuple(Direction)
    # the O(d) gamma and norm agree with the dense matrix they stand for
    monkeypatch.undo()
    M = sol.gamma_matrix()
    assert np.allclose(gamma(sol, v).coords, M @ v.coords, rtol=0.0, atol=1e-15 * v.norm())
    assert abs(sol.gamma_norm() - np.max(np.sum(np.abs(M), axis=1))) < 1e-14
