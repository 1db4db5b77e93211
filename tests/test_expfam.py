import math
import re
from fractions import Fraction

import numpy as np
import pytest
import scipy.special

from infogeom.errors import BadParamError, DomainError, RankError, UnknownFamilyError
from infogeom.expfam import (
    _REGISTRY,
    ExpFamily,
    _logsumexp,
    TangentCoord,
    ThetaBox,
    affine_transform_statistic,
    cov_statistic,
    density_measure,
    fisher_information,
    gradient_log_partition_fd,
    log_partition,
    make_family,
    mean_statistic,
    model_tangent,
)
from infogeom.measures import FiniteMeasure

LOG3 = math.log(3.0)


def test_log_partition_bernoulli(families):
    f = families["bernoulli"]
    assert log_partition(f, 0.0) == pytest.approx(math.log(2.0), abs=1e-14)
    assert log_partition(f, LOG3) == pytest.approx(math.log(4.0), abs=1e-14)


def test_log_partition_point_mass_base():
    f = ExpFamily(
        name="point-mass",
        base=FiniteMeasure([[2.0]], [1.0]),
        stat_values=[[3.0]],
        theta_domain=ThetaBox([-5.0], [5.0]),
        check_rank=False,
    )
    assert log_partition(f, 1.25) == pytest.approx(1.25 * 3.0, abs=1e-14)


def test_constructors_leave_caller_arrays_writeable():
    # the objects hold read-only copies: the caller's arrays stay writeable, and writing to them later
    # changes nothing inside
    stats, grid = np.array([[0.0], [1.0], [2.0]]), np.array([[-0.5], [0.5]])
    lo, hi, theta, a = np.array([-1.0]), np.array([1.0]), np.array([0.25]), np.array([1.0])
    f = ExpFamily(
        name="copies",
        base=FiniteMeasure([[0.0], [1.0], [2.0]], [1.0, 2.0, 1.0]),
        stat_values=stats,
        theta_domain=ThetaBox(lo, hi),
        theta_grid=grid,
    )
    u = TangentCoord(theta, a)
    held = [f.stat_values, f.theta_grid, f.theta_domain.lo, f.theta_domain.hi, u.theta, u.a]
    given = [stats, grid, lo, hi, theta, a]
    before = [x.copy() for x in held]
    for mine, theirs in zip(given, held):
        assert mine.flags.writeable and not theirs.flags.writeable
        mine += 7.0
    assert all(np.array_equal(x, y) for x, y in zip(held, before))


def test_log_partition_domain_error(families):
    with pytest.raises(DomainError):
        log_partition(families["bernoulli"], 11.0)


def test_log_partition_overflow_rejected_at_construction():
    with pytest.raises(OverflowError):
        ExpFamily(
            name="huge",
            base=FiniteMeasure([[0.0], [1.0]], [1e308, 1e308]),
            stat_values=[[0.0], [1.0]],
            theta_domain=ThetaBox([-1.0], [1.0]),
            check_rank=False,
        )


def _assert_scipy_bits(a, b):
    with np.errstate(over="ignore"):
        reference = scipy.special.logsumexp(a, b=b)
    assert np.float64(_logsumexp(a, b)).view(np.int64) == np.float64(reference).view(np.int64)


@pytest.mark.parametrize("name", sorted(_REGISTRY))
def test_log_partition_matches_scipy_logsumexp_bits(name):
    family = make_family(name)
    box = family.theta_domain
    rng = np.random.default_rng(7)
    thetas = list(family.theta_grid) + [rng.uniform(box.lo, box.hi) for _ in range(50)]
    weights = family.base.weights
    sparse = np.where(rng.random(weights.size) < 0.3, 0.0, weights)
    sparse[0] = 0.0
    for theta in thetas:
        a = family.stat_values @ theta
        _assert_scipy_bits(a, weights)
        assert log_partition(family, theta) == _logsumexp(a, weights)
        _assert_scipy_bits(a, sparse)
        # a zero weight drops its term even where the exponent is infinite
        a[0] = np.inf
        _assert_scipy_bits(a, sparse)


def test_logsumexp_edge_weights_match_scipy():
    cases = [
        ([1000.0, 1000.0], [1.0, 1e308]),  # shifted sum finite although exp(a) overflows
        ([1.0, 2.0], [0.0, 0.0]),
        ([-np.inf, -np.inf], [1.0, 1.0]),
        ([3.0, 3.0, 3.0], [0.5, 0.25, 0.25]),
        ([0.0, 1.0], [1e308, 1e308]),
        ([0.0, 0.0], [1e308, 1e308]),  # m overflows: the sum is inf, log_partition raises OverflowError
    ]
    for a, b in cases:
        _assert_scipy_bits(np.array(a), np.array(b))


def test_density_measure_bernoulli(families):
    f = families["bernoulli"]
    assert density_measure(f, 0.0).weights.tolist() == [0.5, 0.5]
    w = density_measure(f, LOG3).weights
    assert w[0] == pytest.approx(0.25, abs=1e-14)
    assert w[1] == pytest.approx(0.75, abs=1e-14)


def test_density_zero_statistic_recovers_normalized_base():
    f = ExpFamily(
        name="flat",
        base=FiniteMeasure([[0.0], [1.0], [2.0]], [1.0, 2.0, 1.0]),
        stat_values=np.zeros((3, 1)),
        theta_domain=ThetaBox([-1.0], [1.0]),
        check_rank=False,
    )
    assert density_measure(f, 0.0).weights.tolist() == [0.25, 0.5, 0.25]


def test_density_normalization_on_grids(families):
    for f in families.values():
        for theta in f.theta_grid:
            assert abs(density_measure(f, theta).total_mass - 1.0) <= 1e-12


def test_statistic_moments_bernoulli(families):
    f = families["bernoulli"]
    assert mean_statistic(f, 0.0)[0] == pytest.approx(0.5, abs=1e-14)
    assert cov_statistic(f, 0.0)[0, 0] == pytest.approx(0.25, abs=1e-14)


def test_statistic_moments_poisson_exact_fraction_oracle(families):
    f = families["poisson_trunc"]
    weights = [Fraction(1, math.factorial(x)) for x in range(51)]
    z = sum(weights)
    tau = sum(Fraction(x) * w for x, w in enumerate(weights)) / z
    var = sum((Fraction(x) - tau) ** 2 * w for x, w in enumerate(weights)) / z
    assert mean_statistic(f, 0.0)[0] == pytest.approx(float(tau), abs=1e-12)
    assert cov_statistic(f, 0.0)[0, 0] == pytest.approx(float(var), abs=1e-12)
    assert abs(mean_statistic(f, 0.0)[0] - 1.0) <= 1e-10
    assert abs(cov_statistic(f, 0.0)[0, 0] - 1.0) <= 1e-10


def test_statistic_moments_gauss_quadrature(families):
    f = families["gauss_known_var"]
    assert abs(mean_statistic(f, 0.0)[0]) <= 1e-8
    assert abs(cov_statistic(f, 0.0)[0, 0] - 1.0) <= 1e-8


def test_fisher_routes_bernoulli(families):
    f = families["bernoulli"]
    assert fisher_information(f, 0.0, "A")[0, 0] == pytest.approx(0.25, abs=1e-14)
    assert fisher_information(f, 0.0, "B")[0, 0] == pytest.approx(0.25, abs=1e-14)
    assert fisher_information(f, 0.0, "C")[0, 0] == pytest.approx(0.25, abs=1e-7)


def test_fisher_categorical_hand_matrix(families):
    mat = fisher_information(families["categorical"], [0.0, 0.0], "A")
    expected = np.array([[2.0 / 9.0, -1.0 / 9.0], [-1.0 / 9.0, 2.0 / 9.0]])
    assert np.max(np.abs(mat - expected)) <= 1e-12


def test_fisher_unknown_route(families):
    with pytest.raises(ValueError):
        fisher_information(families["bernoulli"], 0.0, "D")


def test_route_agreement_on_grids(families):
    for f in families.values():
        for theta in f.theta_grid:
            a = fisher_information(f, theta, "A")
            b = fisher_information(f, theta, "B")
            c = fisher_information(f, theta, "C")
            assert np.max(np.abs(a - b)) <= 1e-10
            assert np.max(np.abs(a - c)) <= 1e-6


def test_route_c_needs_interior_point(families):
    with pytest.raises(DomainError):
        fisher_information(families["bernoulli"], 10.0, "C")


def test_gradient_identity_on_grids(families):
    for f in families.values():
        for theta in f.theta_grid:
            fd = gradient_log_partition_fd(f, theta)
            assert np.max(np.abs(fd - mean_statistic(f, theta))) <= 1e-7


def test_model_tangent_bernoulli(families):
    f = families["bernoulli"]
    pair = model_tangent(f, TangentCoord([0.0], [1.0]))
    assert pair.direction.weights.tolist() == [-0.25, 0.25]
    assert abs(sum(pair.direction.weights)) <= 1e-12

    zero = model_tangent(f, TangentCoord([0.0], [0.0]))
    assert zero.direction.weights.tolist() == [0.0, 0.0]

    doubled = model_tangent(f, TangentCoord([0.0], [2.0]))
    assert doubled.direction.weights.tolist() == [-0.5, 0.5]


def test_model_tangent_mass_zero_on_grids(families):
    for f in families.values():
        for theta in f.theta_grid:
            pair = model_tangent(f, TangentCoord(theta, np.ones(f.order)))
            assert abs(sum(pair.direction.weights)) <= 1e-12


def test_reparameterization_invariance(families):
    cases = [
        (families["bernoulli"], np.array([[1.2]]), np.array([0.3])),
        (families["categorical"], np.array([[1.1, 0.2], [-0.3, 0.9]]), np.array([0.4, -0.2])),
    ]
    for f, m, c in cases:
        g = affine_transform_statistic(f, m, c)
        m_invt = np.linalg.inv(m).T
        for theta in f.theta_grid:
            a = np.ones(f.order)
            for route in ("A", "B"):
                lhs = a @ fisher_information(f, theta, route) @ a
                a2 = m_invt @ a
                rhs = a2 @ fisher_information(g, m_invt @ theta, route) @ a2
                assert abs(lhs - rhs) <= 1e-9


@pytest.mark.filterwarnings("error")  # a numpy warning on the way to the error fails the test
def test_make_family_errors():
    with pytest.raises(UnknownFamilyError):
        make_family("weibull")
    with pytest.raises(BadParamError):
        make_family("binomial", {"m": 0})
    with pytest.raises(BadParamError):
        make_family("categorical", {"k": 1})
    with pytest.raises(BadParamError):
        make_family("poisson_trunc", {"N": 50, "extra": 1})
    with pytest.raises(BadParamError):
        make_family("gauss_known_var", {"nodes": 3})
    # definitions past the float range or with a box the family cannot take; m = 200000 must not
    # build its 200,001 exact coefficients before the first overflowing one raises
    for name, params, bounds in [
        ("binomial", {"m": 1024}, {}),  # sum of C(m, k) = 2^m overflows at the box center
        ("binomial", {"m": 1030}, {}),  # C(1030, 515) itself overflows
        ("binomial", {"m": 200000}, {}),
        ("poisson_trunc", {"N": 171}, {}),
        ("gauss_known_var", {"nodes": 2000}, {}),  # hermgauss weights overflow to NaN
        ("bernoulli", {}, {"theta_lo": [3.0], "theta_hi": [-3.0]}),
        ("categorical", {"k": 3}, {"theta_lo": [-3.0], "theta_hi": [3.0]}),  # a 1-D box for a 2-D statistic
        ("bernoulli", {}, {"theta_lo": [math.nan], "theta_hi": [3.0]}),
        ("bernoulli", {}, {"theta_lo": [-3.0], "theta_hi": [math.inf]}),
        ("bernoulli", {}, {"theta_lo": [-math.inf], "theta_hi": [math.inf]}),
        ("bernoulli", {}, {"theta_lo": [-1e308], "theta_hi": [1e308]}),  # finite bounds, but hi - lo overflows
        ("categorical", {"k": 3}, {"theta_lo": [-3.0, math.nan], "theta_hi": [3.0, 3.0]}),
    ]:
        message = re.escape(f"cannot build family '{name}' with parameters {params}")
        with pytest.raises(BadParamError, match=message):
            make_family(name, params, **bounds)
    assert make_family("binomial", {"m": 1023}).base.size == 1024
    assert make_family("poisson_trunc", {"N": 170}).base.size == 171


def test_make_family_definitions(families):
    assert families["bernoulli"].base.points.ravel().tolist() == [0.0, 1.0]
    assert families["binomial"].base.weights.tolist() == [1.0, 4.0, 6.0, 4.0, 1.0]
    pw = families["poisson_trunc"].base.weights
    assert pw[3] == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert families["categorical"].order == 2
    assert families["gauss_known_var"].kind == "quadrature"


@pytest.mark.parametrize("name", sorted(_REGISTRY))
def test_builders_return_canonical_points(name):
    # FiniteMeasure keeps points that are already in canonical order where they are, so the
    # statistic rows a builder returns stay aligned with base.points
    build, spec = _REGISTRY[name][:2]
    for which in (0, 1):  # the default parameters, then the smallest allowed
        points, weights, stats = build(**{key: limits[which] for key, limits in spec.items()})
        base = FiniteMeasure(points, weights)
        assert np.array_equal(base.points, points) and np.array_equal(base.weights, weights)
        assert stats.shape[0] == points.shape[0]


@pytest.mark.parametrize("k", [2, 3, 5])
def test_categorical_statistic_row_by_row(k):
    f = make_family("categorical", {"k": k})
    assert f.base.points.shape == (k, k) and f.stat_values.shape == (k, k - 1)
    for x, t in zip(f.base.points, f.stat_values):
        assert np.sum(x) == 1.0 and np.all((x == 0.0) | (x == 1.0))
        assert t.tolist() == [x[i] for i in range(k - 1, 0, -1)]  # T(x) = (x_k, ..., x_2)


def test_make_family_box_override():
    f = make_family("bernoulli", theta_lo=[-2.0], theta_hi=[2.0])
    with pytest.raises(DomainError):
        log_partition(f, 3.0)
    assert np.all(f.theta_grid >= -2.0) and np.all(f.theta_grid <= 2.0)


def test_full_rank_validation_rejects_degenerate_statistic():
    with pytest.raises(RankError):
        ExpFamily(
            name="degenerate",
            base=FiniteMeasure([[0.0], [1.0]], [1.0, 1.0]),
            stat_values=np.zeros((2, 1)),
            theta_domain=ThetaBox([-1.0], [1.0]),
        )
