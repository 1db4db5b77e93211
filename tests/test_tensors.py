import itertools
import math

import numpy as np
import pytest

from infogeom.derived import nef_tangent
from infogeom.expfam import TangentCoord, fisher_information
from infogeom.measures import radon_nikodym
from infogeom.tensors import amari_chentsov, fd_third_derivative, higher_scaling_check

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
            dirs = [rng.standard_normal(f.order) for _ in range(k)]
            reference = amari_chentsov(f, theta, dirs)
            for perm in itertools.permutations(range(k)):
                assert amari_chentsov(f, theta, [dirs[i] for i in perm]) == pytest.approx(reference, abs=1e-12)
            # linearity in the first slot
            alpha, beta = 0.7, -1.3
            mixed = [alpha * dirs[0] + beta * dirs[1]] + dirs[1:]
            lhs = amari_chentsov(f, theta, mixed)
            rhs = alpha * reference + beta * amari_chentsov(f, theta, [dirs[1]] + dirs[1:])
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_odd_k_vanishing_on_score_tensor(families):
    # odd order: the k = 3 tensor vanishes at p = 1/2, is nonzero at p = 3/4 and flips sign with the direction
    f, a = families["bernoulli"], np.ones(1)
    assert abs(amari_chentsov(f, 0.0, [a] * 3)) <= 1e-14
    assert abs(amari_chentsov(f, LOG3, [a] * 3)) == pytest.approx(0.09375, abs=1e-12)
    assert amari_chentsov(f, LOG3, [-a] * 3) == -amari_chentsov(f, LOG3, [a] * 3)


def test_higher_scaling_k2_exact(families):
    f = families["bernoulli"]
    residual, exponent = higher_scaling_check(f, 0.0, np.ones(1), 4, 2)
    assert residual <= 1e-10
    assert exponent == pytest.approx(1.0, abs=1e-10)


def test_higher_scaling_k3_reports_exponent(families):
    f = families["bernoulli"]
    # lhs = n^e rhs = 4 rhs, so residual = |lhs - n^{3/2} rhs| = 4 |rhs|: rhs = -0.09375, the k = 3 tensor, and lhs = 4 rhs
    residual, exponent = higher_scaling_check(f, LOG3, np.ones(1), 4, 3)
    assert exponent == pytest.approx(1.0, abs=1e-10)
    assert residual == pytest.approx(abs(-0.375 + 8.0 * 0.09375), abs=1e-10)


def test_higher_scaling_n1_trivial(families):
    f = families["poisson_trunc"]
    for k in (2, 3, 4):
        residual, exponent = higher_scaling_check(f, 0.5, np.ones(1), 1, k)
        assert residual == 0.0
        assert math.isnan(exponent)


def _expression_form(family, theta, a, n, k):
    """``higher_scaling_check`` with each integral written as the expression sum(weights * score**k)."""
    u = TangentCoord(np.asarray(theta, dtype=float).reshape(-1), a)

    def integral(m):
        pair = nef_tangent(family, u, m)
        score = radon_nikodym(pair.direction, pair.base)
        return float(np.sum(pair.base.weights * score**k))

    lhs, rhs = integral(n), integral(1)
    residual = abs(lhs - float(n) ** (k / 2.0) * rhs)
    if rhs != 0.0 and lhs != 0.0 and (lhs / rhs) > 0.0:
        return residual, float(np.log(lhs / rhs) / np.log(n))
    return residual, float("nan")


@pytest.mark.parametrize("key, theta, n", [("bernoulli", LOG3, 4), ("bernoulli", 0.0, 5), ("gauss_known_var", 0.7, 3)])
def test_higher_scaling_in_place_is_the_expression_bit_for_bit(families, key, theta, n):
    # score **= k dispatches as score**k does (the square fast path at k = 2) and the product commutes
    f = families[key]
    for k in (2, 3, 4):
        ours = np.array(higher_scaling_check(f, theta, np.ones(1), n, k))
        assert ours.tobytes() == np.array(_expression_form(f, theta, np.ones(1), n, k)).tobytes()
