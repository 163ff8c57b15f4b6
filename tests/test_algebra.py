"""Ring structure, norm, and functional calculus on the three algebra kinds."""

import copy
import json
import math
import pickle
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

import scalar_oracle as oracle
from popa_algebra import (AlgebraDescriptor, AlgebraKind, ConstraintViolated,
                          DimensionMismatch, Element, complex_plane, grid_interval,
                          hadamard)
from popa_algebra.algebra import (_H_SERIES, _LOG1P_SERIES, _MU_SERIES, SERIES_THRESHOLD,
                                  UNITY_EPS, _horner, log1p_over_scalar, mu_h_scalar,
                                  path_scale_scalar)
from scalar_oracle import cexpm1

E = math.e


def mu_scalar(z):
    """mu alone, from the map that gives the tilt's mu and the solver's h."""
    return mu_h_scalar(z)[0]


def h_scalar(z):
    """h alone, from the same map."""
    return mu_h_scalar(z)[1]


def mu(a):
    """The tilting multiplier (e^z - 1)/z of an element, 1 at z = 0."""
    return a.apply_scalar(mu_h_scalar)[0]


def test_hadamard_product_and_unit():
    A = hadamard(2)
    assert np.allclose((A.element([1, 2]) * A.element([3, 4])).coords, [3, 8])
    a = A.element([0.3, -1.7])
    assert np.allclose((a * A.unit()).coords, a.coords)


def test_complex_product_is_complex_multiplication():
    C = complex_plane()
    i = C.element([0, 1])
    assert np.allclose((i * i).coords, [-1, 0])
    assert np.allclose((C.element([1, 2]) * C.element([3, -1])).coords,
                       [5, 5])  # (1+2i)(3-i) = 5+5i


def test_one_point_complex_product_has_the_block_products_bits():
    # a (2,) product runs in Python floats, a (2, rows) one in ufuncs
    C = complex_plane()
    rng = np.random.default_rng(12)
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e-308, 5e-324]
    a = rng.standard_normal((2, 4000)) * 10.0 ** rng.integers(-200, 200, (2, 4000))
    b = rng.standard_normal((2, 4000)) * 10.0 ** rng.integers(-200, 200, (2, 4000))
    a[0, :64], b[1, :64] = np.repeat(special, 8), np.tile(special, 8)
    with np.errstate(all="ignore"):
        block = C.mul(a, b)
        for k in range(a.shape[1]):
            assert C.mul(a[:, k], b[:, k]).tobytes() == block[:, k].tobytes(), k


def test_invert():
    A = hadamard(2)
    assert np.allclose(A.element([2, 4]).apply_scalar(np.reciprocal).coords, [0.5, 0.25])
    assert not A.element([0, 1]).is_invertible()
    C = complex_plane()
    assert np.allclose(C.element([0, 2]).apply_scalar(np.reciprocal).coords, [0, -0.5])


def test_exp_log_inverse_pair():
    A = hadamard(2)
    assert np.allclose(A.element([0.0, 0.0]).apply_scalar(np.exp).coords, A.unit().coords)
    assert np.allclose(A.unit().apply_scalar(np.log).coords, 0.0)
    a = A.element([2, 3])
    assert (a.apply_scalar(np.log).apply_scalar(np.exp) - a).norm() < 1e-12

    C = complex_plane()
    z = C.element([1.0, 2.0])
    assert (z.apply_scalar(np.log).apply_scalar(np.exp) - z).norm() < 1e-12


def test_log_branch_violations():
    A = hadamard(2)
    assert not A.element([-1, 2]).in_log_branch()
    assert not A.element([0, 2]).in_log_branch()
    C = complex_plane()
    assert not C.element([-1, 0]).in_log_branch()
    assert C.element([-1, 0.1]).in_log_branch()  # off the axis: fine


def test_spectrum_and_norm():
    A = hadamard(3)
    a = A.element([2, -3, 0])
    assert sorted(z.real for z in a.spectrum()) == [-3, 0, 2]
    assert a.norm() == 3
    C = complex_plane()
    z = C.element([3, 4])
    assert set(z.spectrum()) == {3 + 4j, 3 - 4j}
    assert z.norm() == 5
    assert A.unit().norm() == 1.0
    assert C.unit().norm() == 1.0


def test_mu_values():
    A1 = hadamard(1)
    assert np.allclose(mu(A1.element([0.0])).coords, [1.0])
    assert abs(mu(A1.element([1.0])).coords[0] - (E - 1)) < 1e-15
    A = hadamard(2)
    assert np.allclose(mu(A.element([1, 0])).coords, [E - 1, 1.0])


def test_ring_axioms_random():
    rng = np.random.default_rng(11)
    for alg in (hadamard(4), complex_plane(), grid_interval([0, 0.5, 1])):
        for _ in range(50):
            a, b, c = (alg.element(rng.uniform(-3, 3, alg.dim)) for _ in range(3))
            scale = max(1.0, a.norm() * b.norm() * c.norm())
            assert ((a * b) * c - a * (b * c)).norm() <= 1e-12 * scale
            assert (a * b - b * a).norm() <= 1e-12 * scale
            assert (a * (b + c) - (a * b + a * c)).norm() <= 1e-12 * scale


def test_submultiplicativity_bulk():
    rng = np.random.default_rng(5)
    for alg in (hadamard(4), complex_plane()):
        X = rng.uniform(-5, 5, size=(10000, alg.dim))
        Y = rng.uniform(-5, 5, size=(10000, alg.dim))
        if alg.componentwise:
            prod_norm = np.max(np.abs(X * Y), axis=1)
            nx, ny = np.max(np.abs(X), axis=1), np.max(np.abs(Y), axis=1)
        else:
            zx, zy = X[:, 0] + 1j * X[:, 1], Y[:, 0] + 1j * Y[:, 1]
            prod_norm = np.abs(zx * zy)
            nx, ny = np.abs(zx), np.abs(zy)
        assert np.all(prod_norm <= nx * ny * (1 + 1e-12))


def test_exp_is_homomorphic_on_sums():
    rng = np.random.default_rng(7)
    exp = lambda e: e.apply_scalar(np.exp)
    for alg in (hadamard(3), complex_plane()):
        for _ in range(100):
            a = alg.element(rng.uniform(-2, 2, alg.dim))
            b = alg.element(rng.uniform(-2, 2, alg.dim))
            assert (exp(a + b) - exp(a) * exp(b)).norm() < 1e-10


def test_double_inverse():
    rng = np.random.default_rng(9)
    for alg in (hadamard(3), complex_plane()):
        for _ in range(100):
            coords = rng.uniform(0.2, 3.0, alg.dim) * rng.choice([-1, 1], alg.dim)
            a = alg.element(coords)
            assert (a.apply_scalar(np.reciprocal).apply_scalar(np.reciprocal) - a).norm() < 1e-10


def test_mu_identity_and_series_continuity():
    rng = np.random.default_rng(3)
    A = hadamard(3)
    for _ in range(50):
        a = A.element(rng.uniform(0.1, 2.0, 3) * rng.choice([-1, 1], 3))
        lhs = mu(a) * a
        rhs = a.apply_scalar(np.exp) - A.unit()
        assert (lhs - rhs).norm() < 1e-12 * max(1.0, rhs.norm())
    # both branches agree at the switch threshold
    for z in (SERIES_THRESHOLD, -SERIES_THRESHOLD, SERIES_THRESHOLD * (1 + 1e-9)):
        direct = math.expm1(z) / z
        series = mu_scalar(z * (1 - 1e-16))
        assert abs(mu_scalar(z) - direct) < 1e-12
        assert abs(series - direct) < 1e-12
    assert abs(h_scalar(SERIES_THRESHOLD) -
               (math.expm1(SERIES_THRESHOLD) - SERIES_THRESHOLD) / SERIES_THRESHOLD) < 1e-12
    assert abs(log1p_over_scalar(SERIES_THRESHOLD) -
               math.log1p(SERIES_THRESHOLD) / SERIES_THRESHOLD) < 1e-12


def _series_where(name, z):
    """The helpers' former form: both branches on every point, np.where per point."""
    z = np.asarray(z)
    small = np.abs(z) < SERIES_THRESHOLD
    with np.errstate(all="ignore"):
        if name == "mu":
            return np.where(small, np.polyval(_MU_SERIES, z), np.expm1(z) / z)
        if name == "h":
            return np.where(small, np.polyval(_H_SERIES, z) * z, (np.expm1(z) - z) / z)
        log1p = np.log(1.0 + z) if np.iscomplexobj(z) else np.log1p(z)
        return np.where(small, np.polyval(_LOG1P_SERIES, -z), log1p / z)


def _series_inputs():
    T = SERIES_THRESHOLD
    edge = [0.0, -0.0, T, -T, np.nextafter(T, 0.0), -np.nextafter(T, 0.0),
            np.nextafter(T, 1.0), -np.nextafter(T, 1.0), 0.5 * T, 1e-300, 5e-324,
            math.inf, -math.inf, math.nan, 1e3, -1e3, 800.0, -800.0, 1e300, -1e300,
            0.5, -2.0, -1.0]
    real = np.array(edge)
    cplx = np.array([complex(a, b) for a in edge[:12] + [math.inf, math.nan, 2.0]
                     for b in (0.0, -0.0, T, -np.nextafter(T, 0.0), 0.6 * T, math.nan,
                               math.inf, 3.0)])
    rng = np.random.default_rng(7)
    mixed = rng.standard_normal(1000) * 10.0 ** rng.uniform(-8.0, 2.5, 1000)
    small = np.array([0.0, 1e-6, -1e-7, 0.9 * T, -np.nextafter(T, 0.0)])
    arrays = [real, cplx, mixed, mixed + 1j * rng.permutation(mixed), small,
              small.astype(complex) * (1 - 1j) / 2, np.array([], dtype=float)]
    scalars = edge + [np.float64(T), np.asarray(-0.0), np.asarray(0.3 * T),
                      np.complex128(0.2 * T + 0.1j * T), np.asarray(1.0 + 2.0j)]
    return arrays + scalars


@pytest.mark.parametrize("name, fn", [("mu", mu_scalar), ("h", h_scalar),
                                      ("log1p", log1p_over_scalar)])
def test_series_helpers_match_the_where_form_bit_for_bit(name, fn):
    # the series now runs only at |z| < SERIES_THRESHOLD and is written over
    # the direct value there; every output bit must be the np.where form's
    for z in _series_inputs():
        got, want = fn(z), _series_where(name, z)
        assert isinstance(got, np.ndarray)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), z
        assert got.tobytes() == want.tobytes(), z


@pytest.mark.parametrize("t", [0.0, 0.25, 0.5, 1.0, 2.0, -1.5])
def test_path_scale_matches_the_separate_maps_bit_for_bit(t):
    # one expm1(tz) serves both outputs; each keeps the bits of its own map:
    # the growth t mu(tz), mu in the np.where form, and the ratio's np.where
    for z in _series_inputs():
        with np.errstate(all="ignore"):
            tz = t * np.asarray(z)
            d = np.expm1(z)
            want = (t * _series_where("mu", tz),
                    np.where(np.abs(d) < UNITY_EPS, t, np.expm1(tz) / d))
        for got, ref in zip(path_scale_scalar(z, t), want):
            got, ref = np.asarray(got), np.asarray(ref)
            assert (got.dtype, got.shape) == (ref.dtype, ref.shape), z
            assert got.tobytes() == ref.tobytes(), (t, z)


_BELOW = float(np.nextafter(SERIES_THRESHOLD, 0.0))   # the threshold less one ulp

#: points below SERIES_THRESHOLD, where the series replaces the direct formula
SERIES_REAL = [0.0, -0.0, 1e-300, -1e-300, _BELOW, -_BELOW, 3e-6, -7e-9, 1e-12, 5e-324]
SERIES_COMPLEX = ([complex(a, b) for a in (0.0, -0.0, 1e-300, -1e-300, -0.6 * _BELOW)
                   for b in (0.0, -0.0, 1e-300, 0.7 * _BELOW)]
                  + [_BELOW * complex(math.cos(a), math.sin(a)) for a in (0.3, 2.0, -1.2)])


@pytest.mark.parametrize("coeffs", [_MU_SERIES, _H_SERIES, _LOG1P_SERIES],
                         ids=["mu", "h", "log1p"])
def test_horner_equals_polyval_bit_for_bit(coeffs):
    rng = np.random.default_rng(11)
    noise = rng.uniform(-1.0, 1.0, 40) * _BELOW * 10.0 ** rng.integers(-300, 1, 40)
    arrays = [np.array(SERIES_REAL), -np.array(SERIES_REAL), noise[:16], noise,
              np.array(SERIES_COMPLEX), np.conj(SERIES_COMPLEX),
              noise[:10] + 1j * noise[10:20]]
    arrays += [np.array([z]) for z in SERIES_REAL + SERIES_COMPLEX]
    for z in arrays:
        got, want = _horner(coeffs, z), np.polyval(coeffs, z)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes(), z


def _mp_reference(name, z):
    """The function at z to 40 digits, its limit at z = 0.  e^z - 1 - z
    cancels about -log10|z| digits, which the working precision adds."""
    z = mpmath.mpmathify(z)
    if z == 0:
        return mpmath.mpf(0) if name == "h" else mpmath.mpf(1)
    with mpmath.workdps(40 + max(0, -int(mpmath.log10(abs(z))))):
        if name == "mu":
            return mpmath.expm1(z) / z
        if name == "h":
            return (mpmath.expm1(z) - z) / z
        return mpmath.log1p(z) / z


@pytest.mark.parametrize("name, fn", [("mu", mu_scalar), ("h", h_scalar),
                                      ("log1p", log1p_over_scalar)])
def test_series_matches_a_40_digit_mpmath_oracle(name, fn):
    # the series is the whole value below SERIES_THRESHOLD: within 2 eps of
    # the exact value, and exact at the limits z = 0.  h(5e-324) = 2.5e-324
    # lies halfway between two subnormals, hence the absolute term
    tiny = np.finfo(float).smallest_subnormal
    for points in (SERIES_REAL, SERIES_COMPLEX):
        for z, got in zip(points, fn(np.array(points))):
            want = _mp_reference(name, z)
            err = abs(mpmath.mpmathify(complex(got)) - want)
            assert err <= 2 * np.finfo(float).eps * abs(want) + tiny, (z, got)


def test_cexpm1_matches_direct_formula():
    # the array formulas take complex e^z - 1 from np.expm1, which computes
    # the same cancellation-free formula as the reference cexpm1
    for z in (0.3 + 0.4j, -1 + 2j, 1e-9 + 1e-9j, 2j):
        got = complex(np.expm1(np.array([z]))[0])
        assert abs(got - (np.exp(z) - 1)) < 1e-14 * max(1.0, abs(np.exp(z)))
        assert got == cexpm1(z)
    # small-argument accuracy: e^z - 1 = z + z^2/2 + O(z^3)
    z = 1e-12 + 1e-12j
    assert abs(complex(np.expm1(np.array([z]))[0]) - (z + z * z / 2)) < 1e-28


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        hadamard(2).element([1, 2, 3])
    with pytest.raises(DimensionMismatch):
        hadamard(2).element([1, 2]) * hadamard(3).element([1, 2, 3])
    with pytest.raises(DimensionMismatch):
        hadamard(2).element([1, 2]) + complex_plane().element([1, 2])


def test_grid_validation():
    grid_interval([0.0, 0.5, 1.0])
    with pytest.raises(DimensionMismatch):
        grid_interval([0.5, 0.5])
    with pytest.raises(DimensionMismatch):
        grid_interval([0.0, 1.5])
    with pytest.raises(DimensionMismatch):
        AlgebraDescriptor(AlgebraKind.GRID_C_INTERVAL, 3, (0.0, 1.0))
    g = grid_interval([0.0, 1.0])
    assert np.allclose((g.element([2, 3]) * g.element([4, 5])).coords, [8, 15])


def test_element_json_roundtrip():
    for alg in (hadamard(3), complex_plane(), grid_interval([0, 0.25, 1])):
        a = alg.element(np.linspace(-1.25, 2.5, alg.dim))
        blob = json.dumps(a.to_json())
        b = Element.from_json(json.loads(blob))
        assert b.algebra == a.algebra
        assert np.array_equal(b.coords, a.coords)


def test_elements_are_immutable():
    a = hadamard(2).element([1, 2])
    with pytest.raises(ValueError):
        a.coords[0] = 5.0


def test_element_equality_is_algebra_and_coordinates():
    a = hadamard(2).element([1, 2])
    assert a == hadamard(2).element([1.0, 2.0])
    assert a != hadamard(2).element([1.0, 2.5])
    assert a != complex_plane().element([1, 2])
    assert a != [1.0, 2.0]
    assert hadamard(2).element([math.nan, 1.0]) != hadamard(2).element([math.nan, 1.0])
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)


def test_constructor_neither_aliases_nor_freezes_the_callers_array():
    raw = np.array([1.0, 2.0, 3.0])
    for e in (hadamard(3).element(raw), Element(raw, hadamard(3))):
        assert not np.shares_memory(e.coords, raw)
        assert raw.flags.writeable and not e.coords.flags.writeable
    raw[0] = 5.0
    assert e.coords.tolist() == [1.0, 2.0, 3.0]


def test_ring_operation_results_are_read_only():
    for alg in (hadamard(3), complex_plane(), grid_interval([0.0, 0.5, 1.0])):
        a, b = alg.element(np.linspace(0.5, 1.5, alg.dim)), alg.unit()
        for out in (a + b, a - b, -a, a * b, 2.0 * a, a * 2.0, a.scale(3.0), mu(a),
                    a.apply_scalar(np.exp), a.apply_scalar(lambda z: z ** 2)):
            with pytest.raises(ValueError, match="read-only"):
                out.coords[0] = 0.0


def test_apply_scalar_copies_an_array_it_does_not_own():
    buf = np.arange(6.0)
    ints = np.array([1, 2, 3])
    for fn in (lambda z: buf[:3], lambda z: ints):
        out = hadamard(3).element([1, 2, 3]).apply_scalar(fn)
        assert out.coords.dtype == np.float64
        assert not np.shares_memory(out.coords, buf) and not np.shares_memory(out.coords, ints)
    assert buf.flags.writeable and ints.flags.writeable


def test_value_types_refuse_assignment():
    from paper_checks import DecompositionReport, DichotomyResult, RatioLimitResult
    from popa_algebra import (Direction, GoldieResidualReport, PartitionSpec,
                              SigmaMatrix, StructureReport, StSolution,
                              TiltResult, TwoDClass, TwoDClassification,
                              UnboundednessVerdict)
    a = hadamard(2).element([1, 2])
    values = [a, a.algebra, grid_interval([0, 1]), PartitionSpec([[0, 1]], [1.0, 2.0]),
              SigmaMatrix(np.eye(2)), StSolution(1.0, 2.0, 0, 0.0),
              GoldieResidualReport(0.0, 0.0, 1, (a, a)), DecompositionReport(a, a, ()),
              DichotomyResult(a, a), TwoDClassification(TwoDClass.TRIVIAL, {}),
              StructureReport(False, None, (), 0, ()), TiltResult(a, 0, 0.0, True),
              UnboundednessVerdict(Direction.UNIT_NORM, None),
              RatioLimitResult((10,), (0.0,), a)]
    for value in values:
        field = next(iter(getattr(value, "__slots__", None) or value._fields))
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            value.new_field = None


def test_value_types_copy_and_pickle():
    from popa_algebra import PartitionSpec, SigmaMatrix, TiltResult
    a = grid_interval([0, 0.5, 1]).element([1, 2, 3])
    for value in (a, a.algebra, PartitionSpec([[1], [0]], [1.0, 2.0]),
                  SigmaMatrix([[1, 1], [1, 1]]), TiltResult(a, 2, 0.0, True, (0.5,))):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and type(twin) is type(value)


def test_grid_descriptors_built_apart_are_equal_and_hash_alike():
    a = grid_interval([0, 0.5, 1])
    b = AlgebraDescriptor("GridCInterval", 3, [0.0, 0.5, 1.0])
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert a != grid_interval([0, 0.25, 1]) and a != hadamard(3)
    assert a.element([1, 2, 3]) + b.element([1, 1, 1]) == a.element([2, 3, 4])


def test_element_from_json_rejects_non_finite_coordinates():
    for coords in ([math.nan, 1.0], [1.0, math.inf], [-math.inf, 0.0]):
        with pytest.raises(ConstraintViolated, match="'coords'"):
            Element.from_json({"algebra": hadamard(2).to_json(), "coords": coords})
    # intermediate results may overflow: the constructor itself accepts them
    assert math.isinf(hadamard(2).element([math.inf, 1.0]).norm())


def test_grid_rejects_nan_abscissae():
    with pytest.raises(DimensionMismatch):
        grid_interval([0.0, math.nan, 1.0])


# ---------------------------------------------------------------------------
# the array functional calculus against the per-point scalar oracle
# ---------------------------------------------------------------------------

T = SERIES_THRESHOLD
EPS = 2.0 ** -52


def _point(re, im=0.0):
    return complex(re, im)


#: spectral points where the formulas switch branch or lose digits: around
#: 0 on both sides of the series threshold, on the threshold circle itself
#: (to a few ulp), near the roots 2 pi i k of e^z = 1, and at large |z|
#: (|Re z| <= 350, so e^{tz} stays finite for |t| <= 2)
POINTS = hst.one_of(
    hst.builds(_point, hst.floats(-10 * T, 10 * T), hst.floats(-10 * T, 10 * T)),
    hst.builds(lambda k, theta, sign: sign * T * (1.0 + k * EPS) * complex(math.cos(theta),
                                                                         math.sin(theta)),
               hst.integers(-4, 4), hst.sampled_from([0.0, 0.3, 1.0, math.pi / 2, 2.5]),
               hst.sampled_from([1.0, -1.0])),
    hst.builds(lambda k, re, im, e: complex(re * 10.0 ** -e, 2 * math.pi * k + im * 10.0 ** -e),
               hst.integers(-6, 6), hst.floats(-1, 1), hst.floats(-1, 1), hst.integers(3, 14)),
    hst.builds(_point, hst.floats(-5, 5), hst.floats(-20, 20)),
    hst.builds(_point, hst.floats(-350, 350), hst.floats(-1e4, 1e4)),
)


def _agree(got, want, floor: float = 0.0) -> bool:
    return got == want or abs(got - want) <= 1e-14 * max(floor, abs(want))


def _matches(got, ref, w, floor: float = 0.0, scale: float = 1.0) -> bool:
    """got agrees with ref(w), whose series branch switches at |scale w| = T.

    numpy's complex modulus can round across the threshold where Python's
    abs() does not, so on that circle either branch's value is accepted.
    """
    if abs(abs(scale * w) - T) > 8 * EPS * T:
        return _agree(got, complex(ref(w)), floor)
    return any(_agree(got, complex(ref(w * (1.0 + k * EPS))), floor) for k in (-16, 16))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(points=hst.lists(POINTS, min_size=1, max_size=8), is_complex=hst.booleans(),
       t=hst.sampled_from([0.25, 0.5, 2.0, -1.5]))
def test_array_formulas_match_scalar_oracle(points, is_complex, t):
    # one array mixes points of every region, so each call takes both
    # branches of np.where; a real array keeps the real parts only
    if is_complex:
        z = np.array(points, dtype=complex)
        scalars = [complex(p) for p in z]
    else:
        z = np.array([p.real for p in points])
        scalars = [float(p) for p in z]
    for fn, ref, floor, scale in (
            (mu_scalar, oracle.mu_scalar, 0.0, 1.0),
            # h = mu - 1 is a difference near 0: both sides carry an
            # absolute error of a few ulp of 1 there
            (h_scalar, oracle.h_scalar, 1.0, 1.0),
            # no series branch: scale 0 never meets the threshold circle
            (lambda w: path_scale_scalar(w, t)[1], lambda w: oracle.exp_ratio_scalar(w, t),
             0.0, 0.0),
            (lambda w: path_scale_scalar(w, t)[0], lambda w: oracle.growth_scalar(w, t),
             0.0, t)):
        got = fn(z)
        assert got.shape == z.shape
        for g, w in zip(got, scalars):
            assert _matches(complex(g), ref, w, floor, scale), (fn, w)
    in_branch = [not (w.imag == 0.0 and w.real <= -1.0) if is_complex else w > -1.0
                 for w in scalars]
    got = log1p_over_scalar(z[in_branch])
    for g, w in zip(got, [w for w, ok in zip(scalars, in_branch) if ok]):
        assert _matches(complex(g), oracle.log1p_over_scalar, w), w


def test_overflow_gives_infinity_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = np.array([800.0, 0.2, 0.0])
        m = mu_scalar(z)
        assert math.isinf(m[0]) and m[2] == 1.0
        assert abs(m[1] - oracle.mu_scalar(0.2)) < 1e-15
        assert math.isinf(h_scalar(z)[0])
        assert path_scale_scalar(np.array([0.0, 1e-300]), 2.0)[1].tolist() == [2.0, 2.0]
        assert math.isinf(mu(hadamard(3).element(z)).coords[0])
    with pytest.raises(OverflowError):
        oracle.mu_scalar(800.0)   # the per-point original raised instead


def test_apply_scalar_gives_one_element_per_output_of_a_tuple_map():
    # each output has the bits a map returning it alone gives
    for alg in (hadamard(3), complex_plane(), grid_interval([0.0, 0.5, 1.0])):
        a = alg.element(np.linspace(-0.7, 1e-7, alg.dim))
        for fn, alone in ((mu_h_scalar, (mu_scalar, h_scalar)),
                          (lambda z: path_scale_scalar(z, 0.5),
                           (lambda z: path_scale_scalar(z, 0.5)[0],
                            lambda z: path_scale_scalar(z, 0.5)[1]))):
            outs = a.apply_scalar(fn)
            assert type(outs) is tuple and len(outs) == 2
            for out, f in zip(outs, alone):
                assert isinstance(out, Element) and out.algebra == alg
                assert out.coords.tobytes() == a.apply_scalar(f).coords.tobytes()
                with pytest.raises(ValueError, match="read-only"):
                    out.coords[0] = 0.0


def test_apply_scalar_passes_one_array_per_element():
    seen = []

    def record(z):
        seen.append((z.dtype.kind, z.shape))
        return z * 2.0

    assert hadamard(3).element([1, 2, 3]).apply_scalar(record).coords.tolist() == [2, 4, 6]
    assert complex_plane().element([1, 2]).apply_scalar(record).coords.tolist() == [2, 4]
    assert seen == [("f", (3,)), ("c", (1,))]
