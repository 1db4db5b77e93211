import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import infogeom.geometry as geometry

from infogeom.derived import AffineMap, standardizing_map
from infogeom.derived import nef_distribution
from infogeom.errors import AbsoluteContinuityError, BasePointMismatchError
from infogeom.expfam import TangentCoord, fisher_information, model_tangent
from infogeom.geometry import (
    FISHER,
    fisher_metric_field,
    invariant_form,
    invariant_form_value,
    l1_perturbed_norm_functional,
    metric_eval,
    scaled_metric_field,
    scaled_norm_functional,
    sinusoidal_fisher_field,
)
from infogeom.measures import FiniteMeasure, SignedFiniteMeasure, TangentPair, push_forward, radon_nikodym


def test_metric_eval_identity_field():
    def field(theta):
        return np.eye(2)

    u = TangentCoord([0.0, 0.0], [1.0, 0.0])
    assert metric_eval(field, u, u) == 1.0
    zero = TangentCoord([0.0, 0.0], [0.0, 0.0])
    assert metric_eval(field, u, zero) == 0.0


def test_metric_eval_fisher_bernoulli(families):
    field = fisher_metric_field(families["bernoulli"])
    u = TangentCoord([0.0], [1.0])
    assert metric_eval(field, u, u) == pytest.approx(0.25, abs=1e-14)


def test_metric_eval_base_point_mismatch(families):
    field = fisher_metric_field(families["bernoulli"])
    with pytest.raises(BasePointMismatchError):
        metric_eval(field, TangentCoord([0.0], [1.0]), TangentCoord([0.5], [1.0]))


def test_metric_fields_spd_on_grid(families):
    for f in families.values():
        field = fisher_metric_field(f)
        for theta in f.theta_grid:
            mat = field(theta)
            assert np.max(np.abs(mat - mat.T)) <= 1e-12
            assert np.min(np.linalg.eigvalsh(mat)) > 0.0


def test_fisher_norm_functional_examples(families):
    h = FISHER
    std = FiniteMeasure([[-1.0], [1.0]], [0.5, 0.5])
    assert h.eval(std, [0.5]) == pytest.approx(0.5, abs=1e-14)
    assert h.eval_values(std, np.zeros(std.size)) == 0.0

    f = families["bernoulli"]
    q4 = nef_distribution(f, 0.0, 4)
    std4 = push_forward(q4, standardizing_map(f, 0.0, 4))
    assert h.eval(std4, [0.5]) == pytest.approx(0.5, abs=1e-12)


def test_norm_functional_on_gaussian_reference():
    assert FISHER.gauss_fn(np.array([3.0, 4.0])) == pytest.approx(5.0, abs=1e-14)


def test_norm_functional_standardized_linear_is_coefficient_norm(families):
    h = FISHER
    rng = np.random.default_rng(7)
    for f in families.values():
        theta = f.theta_grid[2]
        for n in (1, 2):
            std = push_forward(nef_distribution(f, theta, n), standardizing_map(f, theta, n))
            c = rng.standard_normal(f.order)
            assert abs(h.eval(std, c) - np.linalg.norm(c)) <= 1e-12


def test_norm_functional_affine_invariance(families):
    h = FISHER
    rng = np.random.default_rng(11)
    f = families["categorical"]
    std = nef_distribution(f, [0.25, -0.4], 2)
    for _ in range(10):
        mat = rng.uniform(-1.5, 1.5, size=(2, 2))
        if abs(np.linalg.det(mat)) < 0.2:
            continue
        lmap = AffineMap(mat, rng.uniform(-1.0, 1.0, size=2))
        c = rng.standard_normal(2)
        pushed = push_forward(std, lmap)
        inv = lmap.inverse()
        transported = h.eval_values(pushed, (pushed.points @ inv.matrix.T + inv.offset) @ c)
        assert abs(transported - h.eval(std, c)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(min_value=-3.0, max_value=3.0).map(lambda x: round(x, 4)),
    coeff=st.floats(min_value=-2.0, max_value=2.0).map(lambda x: round(x, 4)),
)
def test_norm_functionals_absolutely_homogeneous(alpha, coeff):
    p = FiniteMeasure([[-1.0], [0.5], [2.0]], [0.25, 0.5, 0.25])
    for h in (FISHER, l1_perturbed_norm_functional(0.1), scaled_norm_functional(FISHER, 3.0)):
        base = h.eval(p, [coeff])
        scaled = h.eval(p, [alpha * coeff])
        assert abs(scaled - abs(alpha) * base) <= 1e-12


def test_polarisation_consistency_random_trials(families):
    rng = np.random.default_rng(3)
    for f in families.values():
        field = fisher_metric_field(f)

        def h2(t):
            return metric_eval(field, t, t)

        for _ in range(20):
            theta = f.theta_grid[int(rng.integers(len(f.theta_grid)))]
            u = TangentCoord(theta, rng.standard_normal(f.order))
            v = TangentCoord(theta, rng.standard_normal(f.order))
            polarised = (h2(TangentCoord(theta, u.a + v.a)) - h2(TangentCoord(theta, u.a - v.a))) / 4.0
            assert abs(polarised - metric_eval(field, u, v)) <= 1e-10


def test_invariant_form_matches_route_b(families):
    for f in families.values():
        for theta in f.theta_grid:
            u = TangentCoord(theta, np.ones(f.order))
            v = TangentCoord(theta, np.array([1.5 if i % 2 == 0 else -0.5 for i in range(f.order)]))
            direct = u.a @ fisher_information(f, theta, "B") @ v.a
            assert abs(invariant_form_value(f, u, v) - direct) <= 1e-10


def test_invariant_form_of_model_tangents(families):
    # at theta = 0 the Bernoulli score is a (T - 1/2), T uniform on {0, 1}: the form is a b / 4, exactly
    pair_u = model_tangent(families["bernoulli"], TangentCoord([0.0], [2.0]))
    pair_v = model_tangent(families["bernoulli"], TangentCoord([0.0], [-3.0]))
    assert invariant_form(pair_u, pair_v) == -1.5
    assert invariant_form(pair_u, pair_u) == 1.0


def test_scaled_and_sinusoidal_fields(families):
    f = families["bernoulli"]
    base = fisher_metric_field(f)
    u = TangentCoord([0.0], [1.0])
    assert metric_eval(scaled_metric_field(base, 2.5), u, u) == pytest.approx(0.625, abs=1e-14)
    wobble = sinusoidal_fisher_field(f)
    assert wobble(np.array([0.0]))[0, 0] == pytest.approx(0.25, abs=1e-14)
    expected = (1.0 + 0.2 * math.sin(1.0)) * fisher_information(f, [1.0], "A")[0, 0]
    assert wobble(np.array([1.0]))[0, 0] == pytest.approx(expected, abs=1e-14)


def test_norm_of_tangent(families):
    field = fisher_metric_field(families["bernoulli"])
    u = TangentCoord([0.0], [1.0])
    assert math.sqrt(metric_eval(field, u, u)) == pytest.approx(0.5, abs=1e-14)


def test_eval_takes_linear_coefficients():
    p = FiniteMeasure([[1.0, 2.0], [3.0, 4.0]], [0.5, 0.5])
    h = FISHER
    assert h.eval(p, [1.0, 0.0]) == h.eval_values(p, [1.0, 3.0]) == math.sqrt(5.0)
    with pytest.raises(ValueError):
        h.eval(p, [1.0, 2.0, 3.0])


@st.composite
def _tangent_pairs(draw):
    """A base with some zero weights and two directions on its support, zero where it is, each of total mass 0."""
    size = draw(st.integers(2, 40))
    base = FiniteMeasure(np.arange(size, dtype=float), draw(st.lists(st.sampled_from([0.0, 0.25, 1e-3, 0.5, 3.0]),
                                                                        min_size=size, max_size=size)))
    has_mass = base.weights > 0.0
    directions = []
    for _ in range(2):
        raw = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=size, max_size=size))) * has_mass
        positive = np.flatnonzero(has_mass)
        if positive.size:  # total mass 0: the first positive point takes the rest
            raw[positive[0]] -= np.sum(raw)
        directions.append(TangentPair(base, SignedFiniteMeasure(base.support, raw)))
    return directions


@settings(max_examples=150, deadline=None)
@given(_tangent_pairs(), st.sampled_from([1, 2, 3, 7, 1 << 16]))
def test_invariant_form_in_blocks_is_the_whole_array_expression(pairs, block):
    # w (dA/dP)(dB/dP) written a block at a time into one array and summed whole: the bits of the whole-array form
    pair_u, pair_v = pairs
    product = pair_u.base.weights * radon_nikodym(pair_u.direction, pair_u.base)
    product *= radon_nikodym(pair_v.direction, pair_u.base)
    with mock.patch.object(geometry, "BLOCK", block):
        assert invariant_form(pair_u, pair_v) == float(np.sum(product))


@pytest.mark.parametrize("block", [1, 3, 1 << 16])
def test_invariant_form_checks_both_directions(block):
    base = FiniteMeasure([0.0, 1.0, 2.0], [0.5, 0.0, 0.5])
    fine = TangentPair(base, SignedFiniteMeasure(base.support, [1.0, 0.0, -1.0]))
    mass_off = TangentPair(base, SignedFiniteMeasure(base.support, [0.5, 0.5, -1.0]))  # mass where P has none
    other = FiniteMeasure([0.0, 1.0, 3.0], [0.5, 0.0, 0.5])
    elsewhere = TangentPair(other, SignedFiniteMeasure(other.support, [1.0, 0.0, -1.0]))  # another support
    with mock.patch.object(geometry, "BLOCK", block):
        assert invariant_form(fine, fine) == 4.0
        for bad in (mass_off, elsewhere):
            for first, second in ((fine, bad), (bad, fine)):
                with pytest.raises(AbsoluteContinuityError):
                    invariant_form(first, second)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(0.0, 4.0)), min_size=1, max_size=40),
    st.floats(-3.0, 3.0),
    st.sampled_from([1, 2, 3, 7, 1 << 16]),
)
def test_fisher_eval_in_place_is_the_expression(rows, coeff, block):
    # (w v) v formed in the values eval builds, a block at a time: the bits of sqrt(sum(w * v * v)), and the
    # l1-perturbed and scaled functionals read their values before the Fisher part overwrites them
    points, weights = zip(*rows)
    base = FiniteMeasure(np.array(points)[:, None], np.array(weights))
    w, v = base.weights, base.points @ np.array([coeff])
    fisher = math.sqrt(float(np.sum(w * v * v)))
    l1 = FISHER.finite_fn(w, v.copy()) + 0.1 * float(np.sum(w * np.abs(v)))
    values = v.copy()
    with mock.patch.object(geometry, "BLOCK", block):
        assert FISHER.eval(base, [coeff]) == FISHER.eval_values(base, values) == fisher
        assert np.array_equal(values, v)  # eval_values gives finite_fn a copy
        assert l1_perturbed_norm_functional(0.1).eval(base, [coeff]) == l1
        assert scaled_norm_functional(FISHER, 3.0).eval(base, [coeff]) == 3.0 * fisher
