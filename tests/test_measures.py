import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from infogeom.derived import AffineMap
from infogeom.errors import AbsoluteContinuityError
from infogeom.measures import (
    FiniteMeasure,
    GaussianReference,
    SignedFiniteMeasure,
    TangentPair,
    almost_equal,
    moments,
    push_forward,
    quantize,
    radon_nikodym,
    support_index,
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


def test_radon_nikodym_strict_subset_direction_is_zero_filled():
    p = FiniteMeasure([[0.0], [1.0], [2.0], [3.0]], [0.1, 0.2, 0.3, 0.4])
    a = SignedFiniteMeasure([[3.0], [1.0]], [0.1, -0.1])
    assert radon_nikodym(a, p).tolist() == [0.0, -0.1 / 0.2, 0.0, 0.1 / 0.4]
    TangentPair(p, a)  # a zero-mass direction on part of the support is a tangent


def test_support_identity_within_one_quantize_cell():
    p = FiniteMeasure([[0.3], [1.0]], [0.5, 0.5])
    a = SignedFiniteMeasure([[0.1 + 0.2]], [0.25])  # 0.1+0.2 != 0.3 in floats, same 12-digit key
    assert not np.array_equal(a.points, p.points[:1])
    assert support_index(p, a.points).tolist() == [0]
    assert radon_nikodym(a, p).tolist() == [0.5, 0.0]


def test_support_identity_two_dimensional_keys():
    p = FiniteMeasure([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0]], [0.25, 0.25, 0.25, 0.25])
    a = SignedFiniteMeasure([[1.0, 1.0], [0.0, 1.0]], [0.05, -0.05])
    assert support_index(p, [[1.0, 1.0], [0.0, 1.0], [1.0, 2.0]]).tolist() == [3, 1, -1]
    assert radon_nikodym(a, p).tolist() == [0.0, -0.2, 0.0, 0.2]
    TangentPair(p, a)


def test_radon_nikodym_outside_base_mass_raises_zero_weight_ignored():
    p = FiniteMeasure([[0.0], [1.0]], [0.5, 0.5])
    with pytest.raises(AbsoluteContinuityError):
        radon_nikodym(SignedFiniteMeasure([[1.0], [2.0]], [0.1, 0.1]), p)
    zero_outside = SignedFiniteMeasure([[1.0], [2.0]], [0.1, 0.0])
    assert radon_nikodym(zero_outside, p).tolist() == [0.0, 0.2]


def test_direction_of_another_dimension_is_outside_the_support():
    # (2, 2) rows must not be read as four 1-D points, which all lie in the base
    p = FiniteMeasure([[0.0], [1.0], [2.0], [3.0]], [0.25, 0.25, 0.25, 0.25])
    a = SignedFiniteMeasure([[0.0, 1.0], [2.0, 3.0]], [-0.1, 0.1])
    assert support_index(p, a.points).tolist() == [-1, -1]
    with pytest.raises(AbsoluteContinuityError):
        radon_nikodym(a, p)
    with pytest.raises(ValueError):
        TangentPair(p, a)


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
    phi = GaussianReference(2)
    assert phi.cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert phi.linear_l2_norm([3.0, 4.0]) == pytest.approx(5.0, abs=1e-14)
    assert phi.linear_abs_moment([3.0, 4.0]) == pytest.approx(5.0 * np.sqrt(2.0 / np.pi), abs=1e-13)


def test_quantize_merges_lattice_noise():
    pts = np.array([[0.1 + 0.2], [0.3]])  # 0.1+0.2 != 0.3 in floats
    m = FiniteMeasure(pts, [0.5, 0.5])
    assert m.size == 1
    assert m.weights[0] == pytest.approx(1.0, abs=1e-15)
    assert quantize(np.array([0.0]))[0] == 0.0


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


def _support_index_by_dict(base, points):
    # per-point reference: a dict from quantized key to base row
    index = {tuple(row): i for i, row in enumerate(quantize(base.points))}
    return [index.get(tuple(row), -1) for row in quantize(points)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_support_index_finds_base_rows(data):
    base = data.draw(finite_measures())
    rows = np.array(data.draw(st.lists(st.integers(0, base.size - 1), max_size=20)), dtype=int)
    assert support_index(base, base.points[rows]).tolist() == rows.tolist()
    others = data.draw(st.lists(st.tuples(*([coords] * base.dim)), max_size=10))
    queries = np.concatenate([base.points[rows], np.array(others, dtype=float).reshape(-1, base.dim)])
    assert support_index(base, queries).tolist() == _support_index_by_dict(base, queries)


def test_measures_are_immutable():
    m = FiniteMeasure([[0.0], [1.0]], [0.5, 0.5])
    with pytest.raises(ValueError):
        m.points[0, 0] = 7.0
    with pytest.raises(ValueError):
        m.weights[0] = 7.0


def test_almost_equal_distinguishes_support():
    p = FiniteMeasure([[0.0], [1.0]], [0.5, 0.5])
    q = FiniteMeasure([[0.0], [2.0]], [0.5, 0.5])
    assert almost_equal(p, FiniteMeasure(p.points, p.weights))
    assert not almost_equal(p, q)
