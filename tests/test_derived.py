import sys
import threading
import weakref
from fractions import Fraction

import numpy as np
import pytest

from infogeom.derived import (
    AffineMap,
    affine_pushforward_pair,
    convolve,
    iid_fisher,
    iid_product_measure,
    nef_base,
    nef_distribution,
    nef_tangent,
    standardizing_map,
    sym_sqrt,
)
from infogeom.errors import RankError, SupportBlowupError
from infogeom.expfam import (
    TangentCoord,
    affine_transform_statistic,
    cov_statistic,
    density_measure,
    make_family,
    mean_statistic,
)
from infogeom.measures import FiniteMeasure, almost_equal, moments, push_forward, quantize, radon_nikodym


def test_affine_map_basics():
    lmap = AffineMap([[2.0]], [-1.0])
    assert lmap(np.array([0.5]))[0] == 0.0
    assert np.allclose(lmap.inverse()(lmap(np.array([0.3]))), [0.3])
    with pytest.raises(RankError):
        AffineMap([[0.0]], [0.0])
    ident = AffineMap.identity(2)
    assert np.array_equal(ident.matrix, np.eye(2))


def test_nef_base_examples(families):
    q1 = nef_base(families["bernoulli"], 0.0)
    assert q1.points.ravel().tolist() == [0.0, 1.0]
    assert q1.weights.tolist() == [0.5, 0.5]

    q1 = nef_base(families["binomial"], 0.0)
    assert np.allclose(q1.weights, np.array([1, 4, 6, 4, 1]) / 16.0, atol=1e-15)

    q1 = nef_base(families["categorical"], [0.0, 0.0])
    assert q1.size == 3
    assert np.allclose(q1.weights, 1.0 / 3.0, atol=1e-15)
    keys = {tuple(row) for row in q1.points}
    assert keys == {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)}


def test_nef_distribution_bernoulli_small_n(families):
    f = families["bernoulli"]
    q2 = nef_distribution(f, 0.0, 2)
    assert q2.points.ravel().tolist() == [0.0, 0.5, 1.0]
    assert q2.weights.tolist() == [0.25, 0.5, 0.25]

    q1 = nef_distribution(f, 0.0, 1)
    assert almost_equal(q1, nef_base(f, 0.0))

    q4 = nef_distribution(f, 0.0, 4)
    assert q4.points.ravel().tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert np.allclose(q4.weights, np.array([1, 4, 6, 4, 1]) / 16.0, atol=1e-15)


def test_nef_distribution_moments_discrete(discrete_families):
    for f in discrete_families:
        for theta in f.theta_grid:
            tau = mean_statistic(f, theta)
            sigma = cov_statistic(f, theta)
            for n in (1, 2, 4, 8, 16):
                qn = nef_distribution(f, theta, n)
                mean, cov = moments(qn)
                assert np.max(np.abs(mean - tau)) <= 1e-10
                assert np.max(np.abs(cov - sigma / n)) <= 1e-10


def test_nef_distribution_moments_quadrature(quadrature_families):
    for f in quadrature_families:
        for theta in (f.theta_grid[1], f.theta_grid[3]):
            tau = mean_statistic(f, theta)
            sigma = cov_statistic(f, theta)
            for n in (1, 2, 3):
                qn = nef_distribution(f, theta, n)
                mean, cov = moments(qn)
                assert np.max(np.abs(mean - tau)) <= 1e-10
                assert np.max(np.abs(cov - sigma / n)) <= 1e-10


def test_nef_distribution_support_cap(families):
    with pytest.raises(SupportBlowupError):
        nef_distribution(families["bernoulli"], 0.0, 64, support_cap=10)
    # a Q_64 already built at the default cap must not leak into a smaller cap
    nef_distribution(families["bernoulli"], 0.0, 64)
    with pytest.raises(SupportBlowupError):
        nef_distribution(families["bernoulli"], 0.0, 64, support_cap=10)


def _bitwise_equal(p, q):
    return np.array_equal(p.points, q.points) and np.array_equal(p.weights, q.weights)


def _cold(family, theta, n):
    """Q_n built from nothing: a request at another theta drops every reusable build."""
    assert not np.array_equal(np.ravel(theta), family.theta_grid[0])
    nef_distribution(family, family.theta_grid[0], 1)
    return nef_distribution(family, theta, n)


@pytest.mark.parametrize("key", ["gauss_known_var", "bernoulli"])
def test_nef_distribution_reuse_is_bitwise_cold(families, key):
    f = families[key]
    theta = f.theta_grid[2]
    order = (5, 1, 8, 3, 2, 4) if key == "bernoulli" else (3, 1, 2)
    warm = {n: nef_distribution(f, theta, n) for n in order}
    assert all(nef_distribution(f, theta, n) is warm[n] for n in order)
    for n in order:
        assert _bitwise_equal(warm[n], _cold(f, theta, n))


def test_nef_distribution_separates_family_objects():
    f1, f2 = make_family("binomial"), make_family("binomial")
    assert f1.name == f2.name
    q = nef_distribution(f1, 0.0, 4)
    assert nef_distribution(f2, 0.0, 4) is not q
    image = affine_transform_statistic(f1, [[2.0]], [1.0], name=f1.name)
    moved = nef_distribution(image, 0.0, 4)
    assert moved.points.min() == 1.0 and moved.points.max() == 9.0
    assert q.points.min() == 0.0 and q.points.max() == 4.0


def test_nef_distribution_copies_theta(families):
    f = families["poisson_trunc"]
    theta = np.array([0.5])
    q2 = nef_distribution(f, theta, 2)
    theta[0] = -0.5
    after = nef_distribution(f, theta, 2)
    assert after is not q2
    assert _bitwise_equal(after, _cold(f, [-0.5], 2))


def test_nef_distribution_keeps_one_theta(families):
    f = families["binomial"]
    ref = weakref.ref(nef_distribution(f, f.theta_grid[1], 8))
    assert ref() is not None
    nef_distribution(f, f.theta_grid[2], 8)
    assert ref() is None


def test_nef_distribution_threads_get_their_own_theta(families):
    # concurrent requests at alternating theta must each get their own Q_n
    f = families["poisson_trunc"]
    thetas = (f.theta_grid[1], f.theta_grid[3])
    expected = [_cold(f, theta, 6) for theta in thetas]
    wrong = []

    def worker(i):
        for step in range(20):
            which = (i + step) % 2
            if not _bitwise_equal(nef_distribution(f, thetas[which], 6), expected[which]):
                wrong.append((i, step))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_nef_tangent_examples(families):
    f = families["bernoulli"]
    pair = nef_tangent(f, TangentCoord([0.0], [1.0]), 2)
    assert pair.base.points.ravel().tolist() == [0.0, 0.5, 1.0]
    assert np.allclose(pair.direction.weights, [-0.25, 0.0, 0.25], atol=1e-15)

    pair1 = nef_tangent(f, TangentCoord([0.0], [1.0]), 1)
    assert np.allclose(pair1.direction.weights, [-0.25, 0.25], atol=1e-15)

    zero = nef_tangent(f, TangentCoord([0.0], [0.0]), 3)
    assert np.max(np.abs(zero.direction.weights)) == 0.0


def test_nef_tangent_homogeneity_is_exact(families):
    f = families["poisson_trunc"]
    u1 = nef_tangent(f, TangentCoord([0.5], [1.0]), 4)
    u2 = nef_tangent(f, TangentCoord([0.5], [2.0]), 4)
    assert np.array_equal(u2.direction.weights, 2.0 * u1.direction.weights)


def test_nef_tangent_mass_zero(discrete_families):
    for f in discrete_families:
        for theta in f.theta_grid:
            for n in (1, 2, 4, 8, 16):
                pair = nef_tangent(f, TangentCoord(theta, np.ones(f.order)), n)
                assert abs(sum(pair.direction.weights)) <= 1e-10


def test_standardizing_map_bernoulli(families):
    f = families["bernoulli"]
    lmap = standardizing_map(f, 0.0, 4)
    assert lmap.matrix[0, 0] == pytest.approx(4.0, abs=1e-12)
    assert lmap.offset[0] == pytest.approx(-2.0, abs=1e-12)
    std = push_forward(nef_distribution(f, 0.0, 4), lmap)
    assert np.allclose(std.points.ravel(), [-2, -1, 0, 1, 2], atol=1e-12)
    mean, cov = moments(std)
    assert abs(mean[0]) <= 1e-12 and abs(cov[0, 0] - 1.0) <= 1e-12

    lmap1 = standardizing_map(f, 0.0, 1)
    std1 = push_forward(nef_distribution(f, 0.0, 1), lmap1)
    assert std1.points.ravel().tolist() == [-1.0, 1.0]
    assert std1.weights.tolist() == [0.5, 0.5]


def test_standardizing_map_identity_case():
    # unit covariance, zero mean statistic at theta=0 for a +-1 base
    from infogeom.expfam import ExpFamily, ThetaBox

    f = ExpFamily(
        name="pm1",
        base=FiniteMeasure([[-1.0], [1.0]], [1.0, 1.0]),
        stat_values=[[-1.0], [1.0]],
        theta_domain=ThetaBox([-2.0], [2.0]),
    )
    lmap = standardizing_map(f, 0.0, 1)
    assert np.allclose(lmap.matrix, np.eye(1), atol=1e-12)
    assert np.allclose(lmap.offset, [0.0], atol=1e-12)


def test_standardized_moments_all_families(families):
    for f in families.values():
        n_values = (1, 2, 4, 8, 16) if f.kind == "discrete" else (1, 2)
        for theta in f.theta_grid:
            for n in n_values:
                std = push_forward(nef_distribution(f, theta, n), standardizing_map(f, theta, n))
                mean, cov = moments(std)
                assert np.max(np.abs(mean)) <= 1e-9
                assert np.max(np.abs(cov - np.eye(f.order))) <= 1e-9


def test_affine_pushforward_pair_examples(families):
    f = families["bernoulli"]
    pair = nef_tangent(f, TangentCoord([0.0], [1.0]), 1)

    moved = affine_pushforward_pair(AffineMap.identity(1), pair)
    assert almost_equal(moved.base, pair.base)
    assert np.allclose(moved.direction.weights, pair.direction.weights, atol=1e-15)

    lmap = AffineMap([[2.0]], [-1.0])
    moved = affine_pushforward_pair(lmap, pair)
    assert moved.base.points.ravel().tolist() == [-1.0, 1.0]
    assert moved.base.weights.tolist() == [0.5, 0.5]
    assert np.allclose(moved.direction.weights, [-0.25, 0.25], atol=1e-15)


def test_pushforward_pair_transports_score(families):
    # dA/dP transported by L equals the original score composed with L^{-1}
    f = families["bernoulli"]
    pair = nef_tangent(f, TangentCoord([0.0], [1.0]), 1)
    before = radon_nikodym(pair.direction, pair.base)
    lmap = AffineMap([[2.0]], [0.0])
    moved = affine_pushforward_pair(lmap, pair)
    after = radon_nikodym(moved.direction, moved.base)
    inv = lmap.inverse()
    for y, value in zip(moved.base.points, after):
        x = inv(y)
        i = int(np.argmin(np.abs(pair.base.points.ravel() - x[0])))
        assert value == pytest.approx(before[i], abs=1e-12)


def test_commutation_identity(families):
    # L_* A_n = sqrt(n) f L_* Q_n with f(y) = (Sigma^{1/2} a) . y
    for key in ("bernoulli", "categorical", "poisson_trunc"):
        f = families[key]
        theta = f.theta_grid[1]
        a = np.ones(f.order)
        for n in (1, 2, 4):
            pair = nef_tangent(f, TangentCoord(theta, a), n)
            lmap = standardizing_map(f, theta, n)
            moved = affine_pushforward_pair(lmap, pair)
            coeff = sym_sqrt(cov_statistic(f, theta)) @ a
            expected = np.sqrt(n) * (moved.base.points @ coeff) * moved.base.weights
            assert np.max(np.abs(moved.direction.weights - expected)) <= 1e-10


def test_iid_fisher_examples(families):
    f = families["bernoulli"]
    assert iid_fisher(f, 0.0, 10)[0, 0] == pytest.approx(2.5, abs=1e-12)
    assert np.allclose(iid_fisher(f, 0.0, 1), cov_statistic(f, 0.0), atol=1e-15)
    cat = families["categorical"]
    assert np.allclose(
        iid_fisher(cat, [0.0, 0.0], 3),
        3.0 * np.array([[2.0 / 9.0, -1.0 / 9.0], [-1.0 / 9.0, 2.0 / 9.0]]),
        atol=1e-12,
    )


def _statistic_lookup(family):
    table = {
        tuple(key): stat
        for key, stat in zip(quantize(family.base.points), family.stat_values)
    }
    m = family.base.dim

    def averaged(x):
        n = x.shape[0] // m
        blocks = [table[tuple(quantize(x[j * m : (j + 1) * m]))] for j in range(n)]
        return np.mean(blocks, axis=0)

    return averaged


def test_product_measure_pushforward_matches_convolution(families):
    # the two constructions of Q_n agree for n <= 3
    cases = [
        (families["bernoulli"], 3),
        (families["categorical"], 3),
        (families["binomial"], 3),
        (families["poisson_trunc"], 2),
    ]
    for f, n in cases:
        theta = f.theta_grid[3]
        product = iid_product_measure(f, theta, n)
        assert product.size <= f.base.size**n
        alt = push_forward(product, _statistic_lookup(f))
        direct = nef_distribution(f, theta, n)
        assert almost_equal(alt, direct, tol=1e-12)


def test_convolve_is_commutative_in_distribution(families):
    f = families["poisson_trunc"]
    a = nef_base(f, 0.5)
    b = nef_base(f, -0.5)
    assert almost_equal(convolve(a, b), convolve(b, a), tol=1e-15)


def test_product_measure_mass(families):
    p = density_measure(families["bernoulli"], 0.3)
    prod = iid_product_measure(families["bernoulli"], 0.3, 3)
    assert prod.total_mass == pytest.approx(p.total_mass**3, abs=1e-14)


@pytest.mark.parametrize("key, m", [("bernoulli", 1), ("binomial", 4)])
@pytest.mark.parametrize("theta", [0.0, 0.75, -1.5])
def test_nef_distribution_matches_exact_convolution(families, key, m, theta):
    # exact oracle: the n-fold convolution, in rationals, of the float Q_1 weights. Each float is a
    # dyadic rational, so over the common denominator 2^e the convolution runs on Python integers.
    family = families[key]
    q1 = nef_base(family, theta)
    assert q1.points.ravel().tolist() == list(range(m + 1))
    ratios = [Fraction(float(w)) for w in q1.weights]
    e = max(r.denominator for r in ratios)
    base = [int(r * e) for r in ratios]
    counts = [1]  # the weights of Q_n are counts / e^n
    for n in range(1, 101):
        counts = [
            sum(counts[j - i] * b for i, b in enumerate(base) if 0 <= j - i < len(counts))
            for j in range(len(counts) + m)
        ]
        if n not in (2, 7, 64, 100):
            continue
        qn = nef_distribution(family, theta, n)
        assert np.array_equal(qn.points.ravel(), np.arange(m * n + 1) / n)
        exact = [Fraction(c, e**n) for c in counts]
        worst = max(abs(Fraction(float(w)) - x) / x for w, x in zip(qn.weights, exact))
        assert worst <= Fraction(1, 10**14), float(worst)
