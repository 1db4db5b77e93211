import numpy as np
import pytest
import scipy.special
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from infogeom.derived import AffineMap
from infogeom.errors import AbsoluteContinuityError
from infogeom.geometry import FISHER, l1_perturbed_norm_functional
from infogeom.measures import (
    FiniteMeasure,
    SignedFiniteMeasure,
    TangentPair,
    almost_equal,
    moments,
    ndtr,
    push_forward,
    quantize,
    radon_nikodym,
)


def test_push_forward_injective_relabel():
    m = FiniteMeasure([[0.0], [1.0]], [0.25, 0.75])
    out = push_forward(m, lambda x: 2.0 * x + 1.0)
    assert out.points.ravel().tolist() == [1.0, 3.0]
    assert out.weights.tolist() == [0.25, 0.75]


def test_push_forward_merges_colliding_images():
    m = FiniteMeasure([[-1.0], [0.0], [1.0]], [0.2, 0.3, 0.5])
    out = push_forward(m, lambda x: x * x)
    assert out.points.ravel().tolist() == [0.0, 1.0]
    assert out.weights.tolist() == [0.3, 0.7]


def test_push_forward_signed_identity():
    a = SignedFiniteMeasure([[0.0], [1.0]], [-0.5, 0.5])
    out = push_forward(a, lambda x: x)
    assert isinstance(out, SignedFiniteMeasure)
    assert out.weights.tolist() == [-0.5, 0.5]


def test_push_forward_calls_a_plain_function_once_on_the_support():
    m = FiniteMeasure([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]], [0.25, 0.25, 0.5])
    calls = []

    def coordinate_sum(points):
        calls.append(points)
        return points.sum(axis=1)

    out = push_forward(m, coordinate_sum)
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], m.points)
    assert out.points.ravel().tolist() == [1.0, 4.0]
    assert out.weights.tolist() == [0.5, 0.5]


def test_moments_point_mass():
    mean, cov = moments(FiniteMeasure([[3.0]], [1.0]))
    assert mean.tolist() == [3.0]
    assert cov.tolist() == [[0.0]]


def test_moments_two_point():
    mean, cov = moments(FiniteMeasure([[0.0], [1.0]], [0.5, 0.5]))
    assert mean[0] == pytest.approx(0.5, abs=1e-15)
    assert cov[0, 0] == pytest.approx(0.25, abs=1e-15)

    mean, cov = moments(FiniteMeasure([[-1.0], [1.0]], [0.5, 0.5]))
    assert mean[0] == pytest.approx(0.0, abs=1e-15)
    assert cov[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_radon_nikodym_scalar_multiple():
    p = FiniteMeasure([[0.0], [1.0]], [0.4, 0.6])
    a = SignedFiniteMeasure(p.points, 0.5 * p.weights)
    assert radon_nikodym(a, p).tolist() == [0.5, 0.5]


def test_radon_nikodym_pointwise_division():
    p = FiniteMeasure([[0.0], [1.0]], [0.5, 0.5])
    a = SignedFiniteMeasure([[0.0], [1.0]], [-0.25, 0.25])
    assert radon_nikodym(a, p).tolist() == [-0.5, 0.5]


def test_radon_nikodym_outside_support_raises():
    p = FiniteMeasure([[0.0], [1.0]], [0.5, 0.5])
    a = SignedFiniteMeasure([[2.0]], [0.1])
    with pytest.raises(AbsoluteContinuityError):
        radon_nikodym(a, p)


def _assert_rejected(direction, base):
    """Neither radon_nikodym nor TangentPair takes the direction at the base."""
    with pytest.raises(AbsoluteContinuityError):
        radon_nikodym(direction, base)
    with pytest.raises(ValueError):
        TangentPair(base, direction)


def test_a_direction_is_given_on_the_base_support():
    p = FiniteMeasure([[0.3], [1.0], [2.5]], [0.25, 0.25, 0.5])
    on_support = SignedFiniteMeasure(p.support, [0.1, -0.1, 0.0])
    assert radon_nikodym(on_support, p).tolist() == [0.4, -0.4, 0.0]
    TangentPair(p, on_support)
    shifted = np.nextafter(p.points, np.inf)  # one ulp up: the same 12-digit keys, other points
    assert almost_equal(FiniteMeasure(shifted, p.weights), p)
    for direction in [
        SignedFiniteMeasure([[0.3], [1.0]], [0.1, -0.1]),  # strict subset
        SignedFiniteMeasure([[0.3], [1.0], [2.5], [4.0]], [0.1, -0.1, 0.0, 0.0]),  # superset
        SignedFiniteMeasure([[0.3, 1.0], [2.5, 0.0]], [0.1, -0.1]),  # another dimension
        SignedFiniteMeasure(shifted, [0.1, -0.1, 0.0]),  # ulp-shifted copy
    ]:
        _assert_rejected(direction, p)


def test_radon_nikodym_strict_subset_direction_is_zero_filled():
    # a direction on part of the support is given on all of it, with zero weights elsewhere
    p = FiniteMeasure([[0.0], [1.0], [2.0], [3.0]], [0.1, 0.2, 0.3, 0.4])
    a = SignedFiniteMeasure(p.support, [0.0, -0.1, 0.0, 0.1])
    assert radon_nikodym(a, p).tolist() == [0.0, -0.1 / 0.2, 0.0, 0.1 / 0.4]
    TangentPair(p, a)
    _assert_rejected(SignedFiniteMeasure([[3.0], [1.0]], [0.1, -0.1]), p)


def test_support_identity_within_one_quantize_cell():
    p = FiniteMeasure([[0.3], [1.0]], [0.5, 0.5])
    q = FiniteMeasure([[0.1 + 0.2], [1.0]], [0.5, 0.5])  # 0.1+0.2 != 0.3 in floats, same 12-digit key
    assert not np.array_equal(q.points, p.points)
    assert almost_equal(q, p) and almost_equal(p, q)
    assert radon_nikodym(SignedFiniteMeasure(p.support, [0.25, 0.0]), p).tolist() == [0.5, 0.0]
    with pytest.raises(AbsoluteContinuityError):  # a tangent is given on the base's own points
        radon_nikodym(SignedFiniteMeasure([[0.1 + 0.2]], [0.25]), p)


def test_support_identity_two_dimensional_keys():
    p = FiniteMeasure([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0]], [0.25, 0.25, 0.25, 0.25])
    assert p.points.tolist() == [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
    a = SignedFiniteMeasure(p.support, [0.0, -0.05, 0.0, 0.05])
    assert radon_nikodym(a, p).tolist() == [0.0, -0.2, 0.0, 0.2]
    TangentPair(p, a)
    _assert_rejected(SignedFiniteMeasure([[1.0, 1.0], [0.0, 1.0]], [0.05, -0.05]), p)


def test_radon_nikodym_outside_base_mass_raises_zero_weight_ignored():
    p = FiniteMeasure([[0.0], [1.0], [2.0]], [0.5, 0.5, 0.0])
    with pytest.raises(AbsoluteContinuityError):
        radon_nikodym(SignedFiniteMeasure(p.support, [0.0, 0.1, 0.1]), p)
    zero_outside = SignedFiniteMeasure(p.support, [0.0, 0.1, 0.0])
    assert radon_nikodym(zero_outside, p).tolist() == [0.0, 0.2, 0.0]
    with pytest.raises(AbsoluteContinuityError):  # zero weight on points outside the base is not given on it
        radon_nikodym(SignedFiniteMeasure([[1.0], [2.0]], [0.1, 0.0]), FiniteMeasure([[0.0], [1.0]], [0.5, 0.5]))


def test_direction_of_another_dimension_is_outside_the_support():
    # (2, 2) rows must not be read as four 1-D points, which all lie in the base
    p = FiniteMeasure([[0.0], [1.0], [2.0], [3.0]], [0.25, 0.25, 0.25, 0.25])
    _assert_rejected(SignedFiniteMeasure([[0.0, 1.0], [2.0, 3.0]], [-0.1, 0.1]), p)


def test_negative_weights_rejected():
    with pytest.raises(ValueError):
        FiniteMeasure([[0.0]], [-1.0])


def test_tangent_pair_validation():
    p = FiniteMeasure([[0.0], [1.0]], [0.5, 0.5])
    TangentPair(p, SignedFiniteMeasure(p.points, [-0.25, 0.25]))
    with pytest.raises(ValueError):
        TangentPair(p, SignedFiniteMeasure(p.points, [0.25, 0.25]))
    with pytest.raises(ValueError):
        TangentPair(p, SignedFiniteMeasure([[0.0], [2.0]], [-0.25, 0.25]))


def test_gaussian_reference_closed_forms():
    c = np.array([3.0, 4.0])
    assert FISHER.gauss_fn(c) == pytest.approx(5.0, abs=1e-14)
    l1 = l1_perturbed_norm_functional(1.0)
    assert l1.gauss_fn(c) == pytest.approx(5.0 + 5.0 * np.sqrt(2.0 / np.pi), abs=1e-13)


def _same_bits(ours, reference):
    ours, reference = np.asarray(ours), np.asarray(reference)
    assert ours.shape == reference.shape and ours.dtype == reference.dtype
    np.testing.assert_array_equal(ours.view(np.int64), reference.view(np.int64))


def test_ndtr_matches_scipy_bits_on_a_fine_grid():
    x = np.linspace(-40.0, 40.0, 300001)
    _same_bits(ndtr(x), scipy.special.ndtr(x))


# Branch edges of cephes ndtr, in a = sqrt(2) x: |x| = 1 (erf / erfc), x = 6
# (1 - 0.5 erfc rounds to 1), |x| = 8 (P/Q / R/S) and x^2 = MAXLOG (underflow).
_EDGES_X = np.array([1.0, 6.0, 8.0, np.sqrt(7.09782712893383996843e2)])


def test_ndtr_matches_scipy_bits_at_branch_edges():
    a = np.concatenate([_EDGES_X, -_EDGES_X]) / np.sqrt(0.5)
    a = np.concatenate([a, np.nextafter(a, np.inf), np.nextafter(a, -np.inf)])
    _same_bits(ndtr(a), scipy.special.ndtr(a))


def test_ndtr_special_values_and_shapes():
    special = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308])
    out = ndtr(special)
    _same_bits(out, scipy.special.ndtr(special))
    assert out[:2].tolist() == [1.0, 0.0] and np.isnan(out[2])
    for x in (0.0, np.float64(-1.5), np.array(2.5)):
        ours = ndtr(x)
        assert type(ours) is np.float64 and ours == scipy.special.ndtr(x)
    for shape in ((0,), (3, 1), (2, 20000)):  # the last spans two evaluation blocks
        x = np.random.default_rng(0).normal(scale=10.0, size=shape)
        _same_bits(ndtr(x), scipy.special.ndtr(x))
    assert ndtr(0.0) == 0.5


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-40.0, 40.0) | st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20))
def test_ndtr_matches_scipy_bits_on_finite_floats(values):
    x = np.array(values)
    _same_bits(ndtr(x), scipy.special.ndtr(x))


def test_quantize_merges_lattice_noise():
    pts = np.array([[0.1 + 0.2], [0.3]])  # 0.1+0.2 != 0.3 in floats
    m = FiniteMeasure(pts, [0.5, 0.5])
    assert m.size == 1
    assert m.weights[0] == pytest.approx(1.0, abs=1e-15)
    assert quantize(np.array([0.0]))[0] == 0.0


def _quantize_by_power(values):
    """``quantize`` as it was before its scale table: ``np.power`` per nonzero point, zeros kept as they are."""
    x = np.asarray(values, dtype=float)
    out = x.copy()
    nz = x != 0.0
    xn = x[nz]
    mag = np.floor(np.log10(np.abs(xn)))
    np.clip(mag, -250.0, 250.0, out=mag)
    scale = np.power(10.0, 11 - mag)
    with np.errstate(invalid="ignore"):  # a signaling NaN times a NaN
        out[nz] = np.round(xn * scale) / scale
    out += 0.0
    return out


def _same_keys(ours, reference):
    """Bitwise equal, but for a NaN's sign and payload: the power formula multiplied two NaNs, whose result the CPU
    picks (no caller quantizes a NaN: a measure and a sum plan reject points that are not finite first)."""
    nan = np.isnan(reference)
    assert np.array_equal(np.isnan(ours), nan)
    _same_bits(ours[~nan], reference[~nan])


def _decade(k, ulps, sign):
    """sign * 10**k (0 or inf past the float range) moved ``ulps`` ulps away from 0 (ulps < 0: toward it)."""
    x = float(f"1e{k}")
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, np.inf if ulps > 0 else 0.0))
    return sign * x


_QUANTIZE_SPECIALS = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e308, -1e308, 1.7976931348623157e308,
                      5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 1e-300]
_decades = st.builds(_decade, st.integers(-340, 340), st.integers(-2, 2), st.sampled_from([1.0, -1.0]))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.floats() | st.sampled_from(_QUANTIZE_SPECIALS) | _decades, min_size=1, max_size=40))
def test_quantize_by_table_is_quantize_by_power(values):
    # with warnings as errors: log10 of 0 and the cast of a NaN's magnitude must raise no warning either
    x = np.array(values)
    with np.errstate(all="raise"):
        ours = quantize(x)
    _same_keys(ours, _quantize_by_power(x))


def test_quantize_by_table_is_quantize_by_power_across_blocks():
    # every decade from 10^-330 to 10^330 with its neighbours, both signs and the specials, among random
    # floats of every magnitude, in more than two blocks and a short last one
    rng = np.random.default_rng(7)
    grid = [_decade(k, u, s) for k in range(-330, 331) for u in (-1, 0, 1) for s in (1.0, -1.0)]
    x = np.concatenate([grid, _QUANTIZE_SPECIALS, rng.integers(0, 2**64, 140_000, dtype=np.uint64).view(float)])
    rng.shuffle(x)
    with np.errstate(all="raise"):
        ours = quantize(x.reshape(-1, 2))
    _same_keys(ours.reshape(-1), _quantize_by_power(x))


# -- property tests ---------------------------------------------------------

# Coordinates live on a coarse decimal lattice so they sit well inside their
# 12-significant-digit quantization cells.
coords = st.floats(min_value=-8.0, max_value=8.0).map(lambda x: round(x, 4))
pos_weights = st.floats(min_value=1e-6, max_value=10.0).map(lambda x: round(x, 6))
any_weights = st.floats(min_value=-10.0, max_value=10.0).map(lambda x: round(x, 6))


@st.composite
def finite_measures(draw, dim=None, signed=False):
    m = dim if dim is not None else draw(st.integers(min_value=1, max_value=2))
    n = draw(st.integers(min_value=1, max_value=12))
    pts = draw(
        st.lists(st.tuples(*([coords] * m)), min_size=n, max_size=n).map(np.array)
    )
    w = draw(st.lists(any_weights if signed else pos_weights, min_size=n, max_size=n))
    cls = SignedFiniteMeasure if signed else FiniteMeasure
    return cls(pts.reshape(n, m), np.array(w))


@st.composite
def affine_maps(draw, dim):
    entries = draw(
        st.lists(
            st.floats(min_value=-2.0, max_value=2.0).map(lambda x: round(x, 3)),
            min_size=dim * dim,
            max_size=dim * dim,
        )
    )
    mat = np.array(entries).reshape(dim, dim) + 1.5 * np.eye(dim)
    assume(abs(np.linalg.det(mat)) >= 0.1)
    off = np.array(
        draw(
            st.lists(
                st.floats(min_value=-3.0, max_value=3.0).map(lambda x: round(x, 3)),
                min_size=dim,
                max_size=dim,
            )
        )
    )
    return AffineMap(mat, off)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_push_forward_preserves_mass(data):
    signed = data.draw(st.booleans())
    m = data.draw(finite_measures(signed=signed))
    lmap = data.draw(affine_maps(m.dim))
    out = push_forward(m, lmap)
    scale = max(1.0, float(np.sum(np.abs(m.weights))))
    assert abs(out.total_mass - m.total_mass) <= 1e-14 * scale


def _aligned(measure):
    # order by coarsely rounded coordinates: roundtrip noise (~1e-14) must not
    # flip the comparison order of points that sit on a 1e-4 lattice
    keys = np.round(measure.points, 6)
    order = np.lexsort(keys.T[::-1])
    return measure.points[order], measure.weights[order]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_push_forward_affine_roundtrip(data):
    m = data.draw(finite_measures())
    lmap = data.draw(affine_maps(m.dim))
    back = push_forward(push_forward(m, lmap), lmap.inverse())
    assert back.size == m.size
    pts_a, w_a = _aligned(m)
    pts_b, w_b = _aligned(back)
    assert np.max(np.abs(pts_a - pts_b)) <= 1e-9
    assert np.max(np.abs(w_a - w_b)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_moments_affine_covariance(data):
    m = data.draw(finite_measures())
    total = m.total_mass
    prob = FiniteMeasure(m.points, m.weights / total)
    lmap = data.draw(affine_maps(m.dim))
    mean, cov = moments(prob)
    mean2, cov2 = moments(push_forward(prob, lmap))
    assert np.max(np.abs(mean2 - (lmap.matrix @ mean + lmap.offset))) <= 1e-12 * 100
    assert np.max(np.abs(cov2 - lmap.matrix @ cov @ lmap.matrix.T)) <= 1e-12 * 100


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_radon_nikodym_integrates_to_direction_mass(data):
    p0 = data.draw(finite_measures())
    prob = FiniteMeasure(p0.points, p0.weights / p0.total_mass)
    values = data.draw(
        st.lists(
            st.floats(min_value=-2.0, max_value=2.0).map(lambda x: round(x, 6)),
            min_size=prob.size,
            max_size=prob.size,
        )
    )
    a = SignedFiniteMeasure(prob.points, prob.weights * np.array(values))
    integral = float(np.sum(radon_nikodym(a, prob) * prob.weights))
    assert abs(integral - a.total_mass) <= 1e-12


def _by_key(measure):
    # per-point reference: a dict from quantized key to weight
    return {tuple(row): w for row, w in zip(quantize(measure.points).tolist(), measure.weights.tolist())}


def _almost_equal_by_dict(m1, m2, tol=1e-12):
    k1, k2 = _by_key(m1), _by_key(m2)
    return k1.keys() == k2.keys() and all(abs(k1[key] - k2[key]) <= tol for key in k1)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_almost_equal_matches_supports_by_key(data):
    m = data.draw(finite_measures())
    order = np.array(data.draw(st.permutations(range(m.size))))
    # relative jitter of 1e-14 stays inside each point's 12-digit key cell (zero stays zero)
    signs = np.array(data.draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=m.size, max_size=m.size)))
    rebuilt = FiniteMeasure(m.points[order] * (1.0 + 1e-14 * signs[:, None]), m.weights[order])
    assert almost_equal(m, rebuilt) and _almost_equal_by_dict(m, rebuilt)
    row = data.draw(st.integers(0, m.size - 1))
    new = np.array(data.draw(st.tuples(*([coords] * m.dim))), dtype=float)
    assume(tuple(quantize(new).tolist()) not in _by_key(m))
    points = m.points.copy()
    points[row] = new
    moved = FiniteMeasure(points, m.weights)
    assert not almost_equal(m, moved) and not _almost_equal_by_dict(m, moved)


def test_measures_are_immutable():
    m = FiniteMeasure([[0.0], [1.0]], [0.5, 0.5])
    with pytest.raises(ValueError):
        m.points[0, 0] = 7.0
    with pytest.raises(ValueError):
        m.weights[0] = 7.0


def test_a_measure_on_a_canonical_support_keeps_frozen_weights_and_copies_others():
    plan = FiniteMeasure([[0.0], [1.0], [2.0]], [0.25, 0.5, 0.25]).support
    frozen = np.array([0.25, 0.5, 0.25])
    frozen.setflags(write=False)
    writable = frozen.copy()
    view = writable[:]  # read-only, but its data belongs to a writable array
    view.setflags(write=False)
    assert np.shares_memory(plan.merge(frozen), frozen)
    assert np.shares_memory(FiniteMeasure(plan, frozen).weights, frozen)
    for weights in (writable, view, [0.25, 0.5, 0.25]):
        kept = plan.merge(weights)
        assert not np.shares_memory(kept, writable) and not kept.flags.writeable
        assert not np.shares_memory(FiniteMeasure(plan, weights).weights, writable)
        assert kept.tolist() == [0.25, 0.5, 0.25]


def test_almost_equal_distinguishes_support():
    p = FiniteMeasure([[0.0], [1.0]], [0.5, 0.5])
    q = FiniteMeasure([[0.0], [2.0]], [0.5, 0.5])
    assert almost_equal(p, FiniteMeasure(p.points, p.weights))
    assert not almost_equal(p, q)
    assert not almost_equal(p, FiniteMeasure([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5]))  # another dimension
    assert not almost_equal(p, FiniteMeasure([[0.0]], [1.0]))
