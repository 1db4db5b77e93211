import itertools
import math

import numpy as np
import pytest

from infogeom.expfam import TangentCoord, fisher_information
from infogeom.tensors import (
    amari_chentsov,
    amari_chentsov_field,
    fd_third_derivative,
    higher_scaling_check,
    odd_k_vanishing_check,
    polarize_symmetric4,
    power_tensor_field,
)

LOG3 = math.log(3.0)


def test_amari_chentsov_k3_symmetric_point(families):
    f = families["bernoulli"]
    assert amari_chentsov(f, 0.0, [np.ones(1)] * 3) == pytest.approx(0.0, abs=1e-14)


def test_amari_chentsov_k3_skewed_point(families):
    f = families["bernoulli"]
    value = amari_chentsov(f, LOG3, [np.ones(1)] * 3)
    assert value == pytest.approx(-0.09375, abs=1e-12)


def test_amari_chentsov_k2_is_fisher(families):
    for f in families.values():
        theta = f.theta_grid[1]
        a = np.ones(f.order)
        b = np.array([1.5 if i % 2 == 0 else -0.5 for i in range(f.order)])
        direct = a @ fisher_information(f, theta, "A") @ b
        assert amari_chentsov(f, theta, [a, b]) == pytest.approx(direct, abs=1e-12)


def test_amari_chentsov_matches_fd_third_derivative(families):
    for f in families.values():
        for theta in f.theta_grid:
            a = np.ones(f.order)
            value = amari_chentsov(f, theta, [a] * 3)
            fd = fd_third_derivative(f, theta, a)
            assert abs(value - fd) <= 1e-5


def test_tensor_field_symmetry_and_multilinearity(families):
    rng = np.random.default_rng(17)
    for key in ("bernoulli", "categorical"):
        f = families[key]
        theta = f.theta_grid[3]
        for k in (3, 4):
            field = amari_chentsov_field(f, k)
            dirs = [rng.standard_normal(f.order) for _ in range(k)]
            reference = field.eval(theta, dirs)
            for perm in itertools.permutations(range(k)):
                assert field.eval(theta, [dirs[i] for i in perm]) == pytest.approx(
                    reference, abs=1e-12
                )
            # linearity in the first slot
            alpha, beta = 0.7, -1.3
            mixed = [alpha * dirs[0] + beta * dirs[1]] + dirs[1:]
            lhs = field.eval(theta, mixed)
            rhs = alpha * field.eval(theta, dirs) + beta * field.eval(theta, [dirs[1]] + dirs[1:])
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_higher_scaling_k2_exact(families):
    f = families["bernoulli"]
    check = higher_scaling_check(f, 0.0, np.ones(1), 4, 2)
    assert check.residual <= 1e-10
    assert check.measured_exponent == pytest.approx(1.0, abs=1e-10)


def test_higher_scaling_k3_reports_exponent(families):
    f = families["bernoulli"]
    check = higher_scaling_check(f, LOG3, np.ones(1), 4, 3)
    assert check.rhs == pytest.approx(-0.09375, abs=1e-12)
    assert check.lhs == pytest.approx(4.0 * -0.09375, abs=1e-12)
    assert check.measured_exponent == pytest.approx(1.0, abs=1e-10)
    assert check.residual == pytest.approx(abs(-0.375 + 8.0 * 0.09375), abs=1e-10)


def test_higher_scaling_n1_trivial(families):
    f = families["poisson_trunc"]
    for k in (2, 3, 4):
        check = higher_scaling_check(f, 0.5, np.ones(1), 1, k)
        assert check.residual == 0.0
        assert math.isnan(check.measured_exponent)


def test_higher_scaling_power_family_law(families):
    # tensors proportional to a power of the Fisher form scale exactly as n^{k/2}
    f = families["binomial"]
    u = TangentCoord([0.5], [1.0])
    field = power_tensor_field(f, 4, 0.8)
    diag1 = field.eval(u.theta, [u.a] * 4)
    sigma_form = float(u.a @ fisher_information(f, u.theta, "A") @ u.a)
    assert diag1 == pytest.approx(0.8 * 3.0 * sigma_form**2, abs=1e-12)


def test_symmetric_power_examples(families):
    f = families["bernoulli"]
    dirs = [np.ones(1)] * 4
    assert power_tensor_field(f, 4, 1.0).eval(0.0, dirs) == pytest.approx(0.1875, abs=1e-14)
    assert power_tensor_field(f, 4, 0.0).eval(0.0, dirs) == 0.0
    with pytest.raises(ValueError):
        power_tensor_field(f, 4, 1.0).eval(0.0, dirs[:3])


def test_symmetric_power_permutation_invariance(families):
    f = families["categorical"]
    rng = np.random.default_rng(23)
    dirs = [rng.standard_normal(2) for _ in range(4)]
    quartic = power_tensor_field(f, 4, 1.3)
    reference = quartic.eval([0.1, -0.2], dirs)
    for perm in itertools.permutations(range(4)):
        value = quartic.eval([0.1, -0.2], [dirs[i] for i in perm])
        assert value == pytest.approx(reference, abs=1e-12)


def test_symmetric_power_polarisation_reconstruction(families):
    rng = np.random.default_rng(29)
    for key in ("bernoulli", "categorical"):
        f = families[key]
        theta = f.theta_grid[1]
        quartic = power_tensor_field(f, 4, 0.9)

        def diagonal(x):
            return quartic.eval(theta, [x] * 4)

        dirs = [rng.standard_normal(f.order) for _ in range(4)]
        direct = quartic.eval(theta, dirs)
        assert abs(polarize_symmetric4(diagonal, dirs) - direct) <= 1e-8


def test_odd_k_vanishing_zero_tensor(families):
    f = families["bernoulli"]
    for k in (3, 5):
        field = power_tensor_field(f, k, 0.0)
        for theta in f.theta_grid:
            assert odd_k_vanishing_check(field, theta, np.ones(1)) <= 1e-10


def test_odd_k_vanishing_detects_nonzero_candidate(families):
    f = families["bernoulli"]
    field = power_tensor_field(f, 3, 0.7)
    sigma = fisher_information(f, [0.5], "A")[0, 0]
    expected = 0.7 * sigma**1.5
    assert odd_k_vanishing_check(field, [0.5], np.ones(1)) == pytest.approx(expected, abs=1e-12)


def test_odd_k_vanishing_on_score_tensor(families):
    f = families["bernoulli"]
    field = amari_chentsov_field(f, 3)
    assert odd_k_vanishing_check(field, 0.0, np.ones(1)) <= 1e-14
    assert odd_k_vanishing_check(field, LOG3, np.ones(1)) == pytest.approx(0.09375, abs=1e-12)


def test_power_tensor_field_odd_requires_diagonal(families):
    f = families["categorical"]
    field = power_tensor_field(f, 3, 0.0)
    with pytest.raises(ValueError):
        field.eval([0.0, 0.0], [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 0.0])])


def test_even_power_field_matches_quartic_formula(families):
    f = families["categorical"]
    rng = np.random.default_rng(31)
    dirs = [rng.standard_normal(2) for _ in range(4)]
    field = power_tensor_field(f, 4, 1.3)
    g = fisher_information(f, [0.1, -0.2], "B")
    u, v, w, m = dirs
    quartic = (u @ g @ v) * (w @ g @ m) + (u @ g @ w) * (v @ g @ m) + (u @ g @ m) * (v @ g @ w)
    assert field.eval([0.1, -0.2], dirs) == pytest.approx(1.3 * quartic, abs=1e-12)
