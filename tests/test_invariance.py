import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from infogeom.errors import PreconditionError, RankError
from infogeom.expfam import TangentCoord, cov_statistic
from infogeom.geometry import (
    FISHER,
    fisher_metric_field,
    l1_perturbed_norm_functional,
    scaled_metric_field,
    scaled_norm_functional,
    sinusoidal_fisher_field,
)
from infogeom.invariance import (
    check_A1,
    check_A2,
    check_A3_affine,
    check_A3_constancy,
    claim1_pipeline,
    claim2_rotation_check,
    clt_diagnostics,
    ks_to_standard_normal,
    matched_direction,
    orthogonal_between,
    recover_constant,
    uniqueness_residual,
)
from infogeom.measures import FiniteMeasure

LOG3 = math.log(3.0)


def _directions(order):
    return np.ones(order), np.array([1.5 if i % 2 == 0 else -0.5 for i in range(order)])


def test_check_A1_examples(families):
    f = families["bernoulli"]
    u = TangentCoord([0.0], [1.0])
    assert check_A1(f, u, u, 2) <= 1e-12
    assert check_A1(f, u, u, 1) == 0.0

    cat = families["categorical"]
    e1 = TangentCoord([0.0, 0.0], [1.0, 0.0])
    residual = check_A1(cat, e1, e1, 3)
    assert 0.0 <= residual <= 1e-12
    assert check_A1(f, u, u, 2) >= 0.0


def test_check_A1_product_oracle_value(families):
    # n=2 Bernoulli at theta=0: product-space score integral equals 0.5
    f = families["bernoulli"]
    from infogeom.invariance import _product_score_form

    assert _product_score_form(f, np.array([0.0]), [1.0], [1.0], 2) == pytest.approx(0.5, abs=1e-14)


def test_check_A2_examples(families):
    f = families["bernoulli"]
    u = TangentCoord([0.0], [1.0])
    assert check_A2(f, u, u, 4) <= 1e-10
    assert check_A2(f, u, u, 1) <= 1e-12

    b4 = families["binomial"]
    ub = TangentCoord([0.0], [1.0])
    assert cov_statistic(b4, 0.0)[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert check_A2(b4, ub, ub, 2) <= 1e-10


def test_A1_A2_residuals_on_grids(discrete_families):
    for f in discrete_families:
        a, b = _directions(f.order)
        for theta in f.theta_grid:
            u = TangentCoord(theta, a)
            v = TangentCoord(theta, b)
            for n in (1, 2, 4, 8, 16):
                assert check_A1(f, u, v, n) <= 1e-9
                assert check_A2(f, u, v, n) <= 1e-9


def test_A1_A2_residuals_quadrature(quadrature_families):
    # A1 never convolves, so the full n sweep runs; A2 needs Q_n and stays
    # below the support cap for n <= 2 on every grid point
    for f in quadrature_families:
        a, b = _directions(f.order)
        for theta in f.theta_grid:
            u = TangentCoord(theta, a)
            v = TangentCoord(theta, b)
            for n in (1, 2, 4, 8, 16):
                assert check_A1(f, u, v, n) <= 1e-9
            for n in (1, 2):
                assert check_A2(f, u, v, n) <= 1e-9
        u = TangentCoord(f.theta_grid[2], a)
        assert check_A2(f, u, u, 3) <= 1e-9


def test_claim1_constancy_bernoulli(families):
    f = families["bernoulli"]
    u = TangentCoord([0.0], [1.0])
    values = [claim1_pipeline(f, u, n, [FISHER])[0] for n in (1, 2, 4, 8, 16, 32)]
    assert all(abs(v - 0.5) <= 1e-10 for v in values)

    zero = TangentCoord([0.0], [0.0])
    assert all(claim1_pipeline(f, zero, n, [FISHER])[0] == 0.0 for n in (1, 2, 4))


def test_claim1_poisson(families):
    f = families["poisson_trunc"]
    u = TangentCoord([0.0], [1.0])
    for n in (1, 2, 4, 8, 16):
        assert abs(claim1_pipeline(f, u, n, [FISHER])[0] - 1.0) <= 1e-9


def test_check_A3_constancy_report(families):
    f = families["binomial"]
    u = TangentCoord([0.75], [1.0])
    assert check_A3_constancy(f, u, (1, 2, 4, 8, 16, 32)) <= 1e-9


def test_check_A3_affine_report(families):
    for key in ("bernoulli", "categorical"):
        f = families[key]
        u = TangentCoord(f.theta_grid[1], np.ones(f.order))
        assert check_A3_affine(f, u, seed=42) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_zero_direction_gives_exactly_zero_residual(families, data):
    # a = 0 is a degenerate tangent: both sides of every axiom are exactly 0, and no check may divide by |a|
    f = families[data.draw(st.sampled_from(["bernoulli", "categorical"]))]
    theta = data.draw(st.sampled_from(list(f.theta_grid)))
    n = data.draw(st.sampled_from([1, 2, 3]))
    zero = TangentCoord(theta, np.zeros(f.order))
    other = TangentCoord(theta, data.draw(st.lists(st.floats(-2.0, 2.0), min_size=f.order, max_size=f.order)))
    for u, v in ((zero, other), (other, zero), (zero, zero)):
        assert check_A1(f, u, v, n) == 0.0
        assert check_A2(f, u, v, n) == 0.0
    assert check_A3_constancy(f, zero, [n]) == 0.0
    assert check_A3_affine(f, zero, n) == 0.0


def _ks_after_argsort(marginal):
    # the former body of ks_to_standard_normal, which sorted the points again
    order = np.argsort(marginal.points[:, 0], kind="stable")
    pts, wts = marginal.points[order, 0], marginal.weights[order]
    upper = np.cumsum(wts)
    lower = upper - wts
    cdf = ndtr(pts)
    return float(max(np.max(np.abs(upper - cdf)), np.max(np.abs(lower - cdf))))


# values that straddle decade boundaries and rounding cells of the 12-digit keys, with repeats to merge
_near_decades = st.builds(
    lambda sign, k, rel: sign * 10.0**k * (1.0 + rel),
    st.sampled_from([-1.0, 1.0]),
    st.integers(-4, 2),
    st.floats(-1e-11, 1e-11),
)
_coords = st.one_of(st.floats(-6.0, 6.0), _near_decades, st.sampled_from([0.0, -0.0, 0.1 + 0.2, 0.3]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_coords, st.floats(1e-6, 1.0)), min_size=1, max_size=40))
def test_ks_reads_canonical_points_in_order(draws):
    marginal = FiniteMeasure([[x] for x, _ in draws], [w for _, w in draws])
    assert np.all(np.diff(marginal.points[:, 0]) > 0.0)
    assert ks_to_standard_normal(marginal) == _ks_after_argsort(marginal)


def test_ks_binomial_oracle_n100(families):
    f = families["bernoulli"]
    ks_max, _ = clt_diagnostics(f, 0.0, 100)
    assert ks_max < 0.05

    # independent oracle: exact binomial CDF versus the analytic normal CDF
    pmf = [Fraction(math.comb(100, k), 2**100) for k in range(101)]
    cum = []
    running = Fraction(0)
    for w in pmf:
        running += w
        cum.append(running)
    pts = [(k - 50.0) / 5.0 for k in range(101)]
    ks = 0.0
    for k in range(101):
        phi = float(ndtr(pts[k]))
        ks = max(ks, abs(float(cum[k]) - phi), abs(float(cum[k] - pmf[k]) - phi))
    assert ks_max == pytest.approx(ks, abs=1e-12)


def test_ks_decreasing_bernoulli(families):
    f = families["bernoulli"]
    values = [clt_diagnostics(f, 0.0, n)[0] for n in (1, 4, 16, 64)]
    assert all(values[i + 1] < values[i] for i in range(3))


def test_ks_nonincreasing_all_discrete(discrete_families):
    for f in discrete_families:
        for theta in f.theta_grid:
            values = [clt_diagnostics(f, theta, n)[0] for n in (1, 4, 16, 64)]
            assert all(values[i + 1] <= values[i] + 1e-12 for i in range(3))


def test_gauss_family_is_clt_fixed_point(families):
    # the discretized normal already has exact standardized moments at n=1
    ks_max, moment_gap = clt_diagnostics(families["gauss_known_var"], 0.0, 1)
    assert moment_gap <= 1e-8
    # sup-KS of any atomic law to the continuous normal is >= half its top atom
    assert 1e-3 < ks_max < 0.05


def test_orthogonal_between_properties():
    rng = np.random.default_rng(5)
    for dim in (1, 2, 4):
        x = rng.standard_normal(dim)
        z = rng.standard_normal(dim)
        z *= np.linalg.norm(x) / np.linalg.norm(z)
        m = orthogonal_between(x, z)
        assert np.max(np.abs(m @ m.T - np.eye(dim))) <= 1e-12
        assert np.max(np.abs(m @ x - z)) <= 1e-12
    assert np.array_equal(orthogonal_between([1.0], [1.0]), np.eye(1))


def test_claim2_identical_vectors(families):
    f = families["bernoulli"]
    u = TangentCoord([0.0], [1.0])
    assert claim2_rotation_check(f, u, u) == 0.0


def test_claim2_bernoulli_matched_forms(families):
    f = families["bernoulli"]
    u = TangentCoord([0.0], [2.0])  # form = 4 * 0.25 = 1
    b = math.sqrt(1.0 / (3.0 / 16.0))
    v = TangentCoord([LOG3], [b])
    assert cov_statistic(f, LOG3)[0, 0] == pytest.approx(3.0 / 16.0, abs=1e-14)
    assert claim2_rotation_check(f, u, v) <= 1e-12


def test_claim2_categorical_rotation(families):
    f = families["categorical"]
    u = TangentCoord([0.0, 0.0], [1.0, 0.0])
    v = matched_direction(f, u, [0.0, 0.0], [0.0, 1.0])
    assert claim2_rotation_check(f, u, v) <= 1e-12


def test_claim2_precondition(families):
    f = families["bernoulli"]
    with pytest.raises(PreconditionError):
        claim2_rotation_check(f, TangentCoord([0.0], [1.0]), TangentCoord([0.0], [2.0]))


def test_claim2_matched_random_pairs(families):
    rng = np.random.default_rng(42)
    for f in families.values():
        for _ in range(20):
            theta = f.theta_grid[int(rng.integers(len(f.theta_grid)))]
            phi = f.theta_grid[int(rng.integers(len(f.theta_grid)))]
            u = TangentCoord(theta, rng.standard_normal(f.order))
            v = matched_direction(f, u, phi, rng.standard_normal(f.order))
            assert claim2_rotation_check(f, u, v) <= 1e-12


def test_uniqueness_residual_fisher_and_scaled(families):
    f = families["bernoulli"]
    u = TangentCoord([0.0], [1.0])
    assert uniqueness_residual([FISHER], f, u, 1, 4)[0] <= 1e-10
    assert uniqueness_residual([scaled_norm_functional(FISHER, 3.0)], f, u, 1, 4)[0] <= 1e-10
    for fam in families.values():
        uu = TangentCoord(fam.theta_grid[2], np.ones(fam.order))
        assert uniqueness_residual([FISHER], fam, uu, 1, 2)[0] <= 1e-10


def test_uniqueness_residual_perturbed_value(families):
    f = families["bernoulli"]
    u = TangentCoord([0.0], [1.0])
    residual = uniqueness_residual([l1_perturbed_norm_functional(0.1)], f, u, 1, 4)[0]
    assert residual == pytest.approx(0.0125, abs=1e-12)


def test_uniqueness_residual_requires_distinct_n(families):
    with pytest.raises(PreconditionError):
        uniqueness_residual([FISHER], families["bernoulli"], TangentCoord([0.0], [1.0]), 2, 2)


def test_perturbed_functional_detectable_on_grid(families):
    f = families["bernoulli"]
    pert = l1_perturbed_norm_functional(0.1)
    worst = max(
        uniqueness_residual([pert], f, TangentCoord(theta, [1.0]), 1, 4)[0] for theta in f.theta_grid
    )
    assert worst >= 1e-3


def test_recover_constant_scaled(families):
    f = families["bernoulli"]
    field = scaled_metric_field(fisher_metric_field(f), 2.5)
    c_hat, spread = recover_constant([field], f, trials=20, seed=42)
    assert c_hat == pytest.approx(2.5, abs=1e-10)
    assert spread <= 1e-10


def test_recover_constant_identity(families):
    f = families["poisson_trunc"]
    c_hat, spread = recover_constant([fisher_metric_field(f)], f, trials=20, seed=1)
    assert c_hat == pytest.approx(1.0, abs=1e-12)
    assert spread <= 1e-12


def test_recover_constant_scale_invariant_in_tangent(families):
    # the ratio is 0-homogeneous in the direction, so c_hat ignores tangent scale
    f = families["bernoulli"]
    field = scaled_metric_field(fisher_metric_field(f), 2.5)
    c1, _ = recover_constant([field], f, trials=7, seed=9)
    c2, _ = recover_constant([field], f, trials=13, seed=10)
    assert c1 == pytest.approx(c2, abs=1e-10)

    from infogeom.geometry import metric_eval

    fisher = fisher_metric_field(f)
    u = TangentCoord([0.5], [0.7])
    u3 = TangentCoord([0.5], [2.1])
    ratio = metric_eval(field, u, u) / metric_eval(fisher, u, u)
    ratio3 = metric_eval(field, u3, u3) / metric_eval(fisher, u3, u3)
    assert ratio == pytest.approx(ratio3, abs=1e-12)


def test_recover_constant_detects_sinusoidal(families):
    f = families["bernoulli"]
    _, spread = recover_constant([sinusoidal_fisher_field(f)], f, trials=20, seed=42)
    assert spread > 0.05


def test_recover_constant_degenerate_raises(families):
    f = families["bernoulli"]
    with pytest.raises(RankError):
        recover_constant([lambda t: np.zeros((1, 1))], f, trials=3, seed=0)


def test_quadrature_families_claim1_small_n(quadrature_families):
    for f in quadrature_families:
        u = TangentCoord(f.theta_grid[2], np.ones(f.order))
        coeff_norm = claim1_pipeline(f, u, 1, [FISHER])[0]
        for n in (2, 3):
            assert abs(claim1_pipeline(f, u, n, [FISHER])[0] - coeff_norm) <= 1e-9
