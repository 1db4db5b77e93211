import math
import sys
import threading
import tracemalloc
import weakref
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import infogeom.derived as derived
import infogeom.geometry as geometry
import infogeom.measures as measures
from infogeom.derived import (
    AffineMap,
    convolve,
    iid_fisher,
    iid_product,
    nef_base,
    nef_distribution,
    nef_tangent,
    standardizing_map,
    sym_sqrt,
)
from infogeom.errors import DomainError, RankError, SupportBlowupError
from infogeom.expfam import (
    TangentCoord,
    affine_transform_statistic,
    cov_statistic,
    density_measure,
    make_family,
    mean_statistic,
)
from infogeom.geometry import invariant_form
from infogeom.invariance import check_A1, check_A2, clt_diagnostics
from infogeom.measures import (
    FiniteMeasure,
    MergePlan,
    TangentPair,
    almost_equal,
    moments,
    push_forward,
    quantize,
    radon_nikodym,
)
from infogeom.tensors import higher_scaling_check


def test_affine_map_copies_its_arrays():
    matrix, offset = np.eye(2), np.zeros(2)
    lmap = AffineMap(matrix, offset)
    assert matrix.flags.writeable and offset.flags.writeable
    assert not lmap.matrix.flags.writeable and not lmap.offset.flags.writeable
    matrix[0, 0], offset[1] = 5.0, 3.0
    assert lmap([1.0, 1.0]).tolist() == [1.0, 1.0]


def test_affine_map_basics():
    lmap = AffineMap([[2.0]], [-1.0])
    assert lmap(np.array([0.5]))[0] == 0.0
    assert np.allclose(lmap.inverse()(lmap(np.array([0.3]))), [0.3])
    with pytest.raises(RankError):
        AffineMap([[0.0]], [0.0])
    ident = AffineMap.identity(2)
    assert np.array_equal(ident.matrix, np.eye(2))


@pytest.mark.parametrize("n", [2.7, 0])
def test_extension_size_must_be_a_positive_integer(families, n):
    # 2.7 was once truncated to 2, so Q_2 (3 points) stood in for a Q_2.7 that does not exist
    f = families["bernoulli"]
    u = TangentCoord([0.0], [1.0])
    calls = [
        lambda: nef_distribution(f, 0.0, n),
        lambda: check_A1(f, u, u, n),
        lambda: check_A2(f, u, u, n),
        lambda: higher_scaling_check(f, 0.0, [1.0], n, 3),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^n must be a positive integer$"):
            call()
    assert nef_distribution(f, 0.0, 2.0) is nef_distribution(f, 0.0, 2)


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


def _count_routes(monkeypatch):
    """Record the input size of each plan built from quantized float keys ("build") or integer cells ("cells").

    A plan of pairwise sums takes its quantized keys from ``measures._quantized_sum_keys``, not from
    ``MergePlan.build``, so both count as "build", a sum plan by its number of pairs.
    """
    calls = {"build": [], "cells": []}
    build, sum_cells, sum_keys = MergePlan.build, measures._sum_cells, measures._quantized_sum_keys

    def counting_build(points):
        calls["build"].append(len(points))
        return build(points)

    def counting_sum_keys(a, b):
        calls["build"].append(len(a) * len(b))
        return sum_keys(a, b)

    def counting_cells(a, b):
        cells = sum_cells(a, b)
        if cells is not None:
            calls["cells"].append(len(cells[0]) * len(cells[1]))
        return cells

    monkeypatch.setattr(MergePlan, "build", counting_build)
    monkeypatch.setattr(measures, "_sum_cells", counting_cells)
    monkeypatch.setattr(measures, "_quantized_sum_keys", counting_sum_keys)
    return calls


def test_nef_distribution_support_cap(families, monkeypatch):
    with pytest.raises(SupportBlowupError):
        nef_distribution(families["bernoulli"], 0.0, 64, support_cap=10)
    # a Q_64 already built at the default cap must not leak into a smaller cap
    nef_distribution(families["bernoulli"], 0.0, 64)
    with pytest.raises(SupportBlowupError):
        nef_distribution(families["bernoulli"], 0.0, 64, support_cap=10)
    # categorical Q_1 has 3 points, so Q_2's sum step has 9 pairs that merge to 6 points
    # (each store builds Q_1 from its 3 points; the 1/2 rescale of Q_2's 6 points takes the quantized route)
    f = families["categorical"]
    calls = _count_routes(monkeypatch)
    with pytest.raises(SupportBlowupError, match=r"^convolution needs 9 point pairs, above the working cap 8$"):
        nef_distribution(f, f.theta_grid[2], 2, support_cap=2)
    assert calls == {"build": [3], "cells": []}  # the pair check comes before any work
    with pytest.raises(SupportBlowupError, match=r"^convolution support has 6 points, above the cap 5$"):
        nef_distribution(f, f.theta_grid[2], 2, support_cap=5)
    assert calls == {"build": [3, 3], "cells": [9]}
    assert nef_distribution(f, f.theta_grid[2], 2, support_cap=6).size == 6
    assert calls == {"build": [3, 3, 3, 6], "cells": [9, 9]}


def _pair_cells(a, b):
    """The cells of the pair sums a_i + b_j, flattened over (i, j), from the factors' cells; None off the cells."""
    cells = measures._sum_cells(a, b)
    return None if cells is None else (cells[0][:, None] + cells[1][None, :]).reshape(-1)


def _effective_order(plan):
    """The plan's order as input positions, in the type of its starts.

    A plan that keeps none (its input is in key order already) has the identity. A plan of row cells has, for the
    pair of each row cell ca_i and its group's cell, the position i * nb + j of the column cell cb_j = cell - ca_i,
    each cell found among its factor's (IndexError or a failed assert if it is not there).
    """
    if plan.order is None:
        return np.arange(plan.shape[0], dtype=plan.starts.dtype)
    if plan.cells is None:
        return plan.order
    ca, cb, occupied = plan.cells
    row = plan.order.astype(np.int64)
    column = np.repeat(occupied, np.diff(plan.starts, append=row.shape[0])).astype(np.int64) - row
    i, j = np.searchsorted(ca, row), np.searchsorted(cb, column)
    assert np.array_equal(ca[i], row) and np.array_equal(cb[j], column)
    return (i * cb.shape[0] + j).astype(plan.starts.dtype)


def _plans_equal(plan, ref):
    """Bitwise equality of two merge plans, -0.0 told apart from 0.0, and of their effective orders.

    A plan of row cells keeps them as uint16, beside strictly increasing uint16 factor cells and its groups' cells.
    """
    if plan.cells is not None:
        ca, cb, occupied = plan.cells
        assert plan.order.dtype == ca.dtype == cb.dtype == occupied.dtype == np.uint16
        assert np.all(ca[1:] > ca[:-1]) and np.all(cb[1:] > cb[:-1]) and occupied.shape == plan.starts.shape
    return (
        plan.points.tobytes() == ref.points.tobytes()
        and plan.points.shape == ref.points.shape
        and plan.shape == ref.shape
        and _effective_order(plan).dtype == _effective_order(ref).dtype
        and np.array_equal(_effective_order(plan), _effective_order(ref))
        and plan.starts.dtype == ref.starts.dtype
        and np.array_equal(plan.starts, ref.starts)
    )


def _counted(a, b):
    """True when the sums of a and b take the counting sort: uint16 cells, strictly increasing in each factor."""
    cells = measures._sum_cells(a, b)
    return cells is not None and cells[0].dtype == np.uint16 and all(np.all(c[1:] > c[:-1]) for c in cells)


def _quantized_plan(a, b):
    """The plan of the materialized pair sums, by quantized float keys."""
    return MergePlan.build((a[:, None, :] + b[None, :, :]).reshape(-1, a.shape[1]))


@pytest.mark.parametrize(
    "key, ladder",
    [
        ("categorical", (1, 2, 4, 8, 16, 32, 64, 128)),
        ("binomial", (1, 4, 16, 64, 256, 1024)),
        ("poisson_trunc", (1, 2, 4, 8, 16, 32, 64)),
        ("bernoulli", (256, 1024)),
    ],
)
def test_lattice_sum_plans_equal_the_quantized_build(key, ladder, monkeypatch):
    # every sum step of the family's high-n ladder, taken by the integer-cell route: the factors are canonical, so
    # their cells rise strictly, and every step sorts its uint16 cells by counting and keeps its pairs' row cells
    f = make_family(key)
    calls = _count_routes(monkeypatch)
    for n in ladder:
        nef_distribution(f, f.theta_grid[1], n)
    store = derived._store
    steps = [step for step in store.plans if isinstance(step, tuple)]
    assert steps and len(calls["cells"]) == len(steps)
    for a, b in steps:
        p, q = store.sums[a].points, store.sums[b].points
        assert measures._sum_cells(p, q) is not None
        assert _counted(p, q) and store.plans[(a, b)].cells is not None
        assert _plans_equal(store.plans[(a, b)], _quantized_plan(p, q))


_KEY_MAX = 10**12 - 1  # the largest integer that is its own 12-digit key


def _centre(lo, hi):
    """An integer in [lo, hi], often the one nearest 0, so that zeros and the range's ends come up."""
    return st.integers(lo, hi) | st.just(min(max(0, lo), hi))


@st.composite
def _integer_factors(draw):
    """Two integer point arrays, with duplicate rows and -0.0, whose pair sums stay within +-_KEY_MAX."""
    dim = draw(st.integers(1, 3))
    axes = ([], [])  # (centre, spread) of each coordinate of each factor
    for _ in range(dim):
        spread = draw(st.sampled_from([0, 1, 7, 300, 70_000, 2**21, 10**11]))
        ca = draw(_centre(-(_KEY_MAX - spread), _KEY_MAX - spread))
        room = _KEY_MAX - 2 * spread
        cb = draw(_centre(max(-(_KEY_MAX - spread), -room - ca), min(_KEY_MAX - spread, room - ca)))
        axes[0].append((ca, spread))
        axes[1].append((cb, spread))
    arrays = []
    for factor in axes:
        rows = draw(st.integers(1, 6))
        columns = [draw(st.lists(st.integers(c - s, c + s), min_size=rows, max_size=rows)) for c, s in factor]
        x = np.array(columns, dtype=float).T
        x = x[draw(st.lists(st.integers(0, rows - 1), min_size=1, max_size=rows + 3))]  # repeats rows
        negative_zero = np.array(draw(st.lists(st.booleans(), min_size=x.size, max_size=x.size))).reshape(x.shape)
        arrays.append(np.where((x == 0.0) & negative_zero, -0.0, x))
    return arrays


@settings(max_examples=200, deadline=None)
@given(_integer_factors())
def test_integer_cells_give_the_quantized_plan(factors):
    a, b = factors
    sums = (a[:, None, :] + b[None, :, :]).reshape(-1, a.shape[1])
    assert np.all(np.abs(sums) <= _KEY_MAX)
    grid = math.prod(int(hi - lo) + 1 for lo, hi in zip(sums.min(axis=0), sums.max(axis=0)))
    cells = _pair_cells(a, b)
    assert (cells is not None) == (grid < 2**63)
    if cells is not None:
        assert cells.dtype == (np.uint16 if grid <= 65_535 else np.uint32 if grid <= 2**32 else np.int64)
    plan = derived._sum_plan(a, b, derived.SUPPORT_CAP)
    # repeated rows and -0.0 beside 0.0 repeat a cell, and such uint16 cells take argsort like wider ones
    assert (plan.cells is not None) == _counted(a, b)
    assert _plans_equal(plan, _quantized_plan(a, b))


@pytest.mark.parametrize(
    "a, b",
    [
        ([[0.0], [0.5]], [[0.0], [1.0]]),  # a coordinate that is not an integer
        ([[1e12], [0.0]], [[-1.0]]),  # a coordinate of 10^12, although every sum is below it
        ([[-1e12]], [[0.0], [1.0]]),
        ([[_KEY_MAX]], [[0.0], [1.0], [2.0]]),  # sums of 10^12 and 10^12 + 1, which share a 12-digit key
        ([[0.0, 0.0, 0.0], [2.0**21 - 1] * 3], [[0.0, 0.0, 0.0]]),  # a grid of 2^63 cells
        ([[0.0, 0.0], [2.0**39, 2.0**24]], [[0.0, 0.0], [1.0, 0.0]]),  # (2^39 + 2)(2^24 + 1) cells, past 2^63
    ],
)
def test_sums_off_the_integer_keys_take_the_quantized_route(a, b, monkeypatch):
    a, b = np.array(a), np.array(b)
    calls = _count_routes(monkeypatch)
    plan = derived._sum_plan(a, b, derived.SUPPORT_CAP)
    assert calls == {"build": [len(a) * len(b)], "cells": []}
    assert measures._sum_cells(a, b) is None
    assert _plans_equal(plan, _quantized_plan(a, b))


def _blocky_factors(lattice, dim):
    """Pairs of (N, dim) point arrays whose pair sums hold long groups, -0.0 and, off the lattice, 12-digit ties.

    On the lattice every point is an integer, so the sums take uint16 integer cells. The first pair repeats
    points and has -0.0 beside 0.0, so its cells do not rise strictly and it takes argsort; the second is canonical,
    and takes the counting sort. A second column is 2x beside each x of a, and -x beside each x of b; 2x in the
    canonical b too, because the sums of distinct canonical points would each be their own group.
    """
    rng = np.random.default_rng(7)
    if lattice:  # five values, so each group of sums is long; -0.0 first, so a -0.0 sum leads its group
        a = np.concatenate([[-0.0], rng.choice([-1.0, -0.0, 0.0, 1.0, 2.0], 40)]).reshape(-1, 1)
        b = np.array([-0.0, 0.0, 1.0, -1.0, 3.0, 0.0]).reshape(-1, 1)
        # canonical: a's first point is -0.0 and meets b's -0.0 first, so a -0.0 sum leads its group
        canonical_a = np.array([-0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 7.0, 8.0, 9.0, 11.0, 12.0]).reshape(-1, 1)
        canonical_b = np.array([-3.0, -1.0, -0.0, 1.0, 2.0, 4.0, 5.0]).reshape(-1, 1)
        pairs = [(a, b, -b), (canonical_a, canonical_b, 2.0 * canonical_b)]
    else:
        # long groups; -0.0 first, so a -0.0 sum leads its group
        grid = rng.choice([-0.25, -0.0, 0.0, 0.25, 0.5], 30)
        a = np.concatenate([[-0.0], grid, rng.standard_normal(10)]).reshape(-1, 1)
        b = np.concatenate([[-0.0, 0.0, 0.25, -0.25, 1.0 + 2.0**-45, 1.0], rng.standard_normal(5)]).reshape(-1, 1)
        pairs = [(a, b, -b)]
    return [(a, b) if dim == 1 else (np.hstack([a, 2.0 * a]), np.hstack([b, other])) for a, b, other in pairs]


@pytest.mark.parametrize(
    "block, dim, lattice",
    [
        pytest.param(block, dim, lattice, id=("lattice-" if lattice else "") + f"{dim}-{block}")
        for lattice in (False, True)
        for dim in (1, 2)
        for block in (1, 2, 3, 7, 64)
    ],
)
def test_blocks_change_no_bits(block, dim, lattice):
    # every result in blocks of `block` points against the one-shot reference (inputs below one default block)
    routes = []
    for a, b in _blocky_factors(lattice, dim):
        sums = (a[:, None, :] + b[None, :, :]).reshape(-1, dim)
        p = np.linspace(0.5, 2.0, a.shape[0]) / 3.0
        q = np.linspace(1.0, 0.25, b.shape[0]) / 7.0
        ref_keys = quantize(sums)
        ref_plan = _quantized_plan(a, b)
        cells = _pair_cells(a, b)
        assert (cells.dtype == np.uint16) if lattice else (cells is None)
        last = np.append(ref_plan.starts[1:], sums.shape[0]) - 1
        assert np.any(ref_plan.starts // block < last // block)  # a group straddles a block edge
        negative_zero = (ref_plan.points == 0.0) & np.signbit(ref_plan.points)
        # -0.0 sums, +0.0 keys
        assert np.any(negative_zero) and not np.any((ref_keys == 0.0) & np.signbit(ref_keys))
        ref_merge = np.add.reduceat(np.outer(p, q).reshape(-1)[_effective_order(ref_plan)], ref_plan.starts)

        with mock.patch.object(measures, "BLOCK", block):
            assert quantize(sums).tobytes() == ref_keys.tobytes()
            plan = MergePlan.of_sums(a, b)
            assert _plans_equal(plan, ref_plan) and _plans_equal(_quantized_plan(a, b), ref_plan)
            assert plan.merge_products(p, q).tobytes() == ref_merge.tobytes()
        routes.append(plan.cells is not None)
    assert routes == ([False, True] if lattice else [False])  # the canonical lattice factors alone are counted


@pytest.mark.parametrize("block", [3, 7])
@pytest.mark.parametrize(
    "a, b, canonical, long_rows",
    [
        # rows of 20 pairs: blocks start inside rows, and a block can lie within one row
        (
            np.array([[2.0], [-0.0], [1.0]]),
            np.arange(-4.0, 16.0).reshape(-1, 1) % 7,
            (np.array([[-0.0], [1.0], [2.0]]), np.arange(-4.0, 16.0).reshape(-1, 1)),
            True,
        ),
        # all 60 pairs in one group, longer than several blocks: a replay gathers it whole; canonical factors hold
        # no group longer than their shorter factor, here 30 pairs in the group of cell 29
        (
            np.zeros((5, 1)),
            np.array([[-0.0], [0.0]] * 6),
            (np.arange(30.0)[:, None], np.arange(30.0)[:, None]),
            False,
        ),
    ],
    ids=["rows-longer-than-a-block", "one-group-of-many-blocks"],
)
def test_counted_blocks_change_no_bits(a, b, canonical, long_rows, block):
    # blocks that start inside a row, and replays into buffers as long as the longest block: factors with repeated
    # points take argsort, and canonical ones the counting sort
    for (a, b), counted in (((a, b), False), (canonical, True)):
        pairs = a.shape[0] * b.shape[0]
        p = np.linspace(0.5, 2.0, a.shape[0]) / 3.0
        q = np.linspace(1.0, 0.25, b.shape[0]) / 7.0
        ref_plan = _quantized_plan(a, b)
        ref_merge = np.add.reduceat(np.outer(p, q).reshape(-1)[_effective_order(ref_plan)], ref_plan.starts)
        assert _pair_cells(a, b).dtype == np.uint16 and _counted(a, b) == counted
        longest = np.max(np.diff(np.append(ref_plan.starts, pairs)))
        assert b.shape[0] > block if long_rows else longest > 3 * block

        with mock.patch.object(measures, "BLOCK", block):
            plan = MergePlan.of_sums(a, b)
            assert (plan.cells is not None) == counted
            assert _plans_equal(plan, ref_plan)
            assert plan.merge_products(p, q).tobytes() == ref_merge.tobytes()


@st.composite
def _canonical_integer_factors(draw):
    """Two canonical integer supports of one or two columns: sorted, no point repeated, some zeros -0.0."""
    dim = draw(st.integers(1, 2))
    factors = []
    for _ in range(2):
        rows = draw(st.lists(st.tuples(*[st.integers(-9, 9)] * dim), min_size=1, max_size=40))
        x = np.array(rows, dtype=float).reshape(-1, dim)
        negative_zero = np.array(draw(st.lists(st.booleans(), min_size=x.size, max_size=x.size))).reshape(x.shape)
        x = np.where((x == 0.0) & negative_zero, -0.0, x)
        factors.append(FiniteMeasure(x, np.ones(x.shape[0])).points)
    return factors


@settings(max_examples=200, deadline=None)
@given(_canonical_integer_factors(), st.integers(1, 64), st.integers(0, 2**32 - 1))
@example([np.arange(30.0)[:, None], np.arange(-0.0, 30.0)[:, None]], 7, 0)  # a group of 30 pairs over 5 blocks
@example([np.array([[-0.0, 1.0], [2.0, -3.0]]), np.array([[-0.0, -0.0], [1.0, 2.0], [1.0, 3.0]])], 1, 1)
@example([np.array([[-0.0], [2.0], [5.0]]), np.array([[3.0]])], 2, 2)  # one column cell: rows of span 1
# a's cells 0, 9 and 99 lie further apart than b's span of 2 cells, so no two rows share a cell
@example([np.array([[0.0, 0.0], [0.0, 9.0], [9.0, -0.0]]), np.array([[-0.0, 0.0], [0.0, 1.0]])], 3, 3)
def test_row_cell_plans_are_the_quantized_plan(factors, block, seed):
    # canonical factors take the counting sort and keep each pair's row cell: decoded through the cells, the plan
    # is the quantized build's, and its replays and points are the quantized ones bit for bit, in blocks of `block`
    a, b = factors
    assert _counted(a, b)
    rng = np.random.default_rng(seed)
    p, q = rng.random(a.shape[0]) / 3.0, rng.random(b.shape[0]) / 7.0
    ref = _quantized_plan(a, b)
    with mock.patch.object(measures, "BLOCK", block):
        plan = MergePlan.of_sums(a, b)
        merged = plan.merge_products(p, q)
        points = replace(plan, points=None).sum_points(a, b)
    assert plan.cells is not None and _plans_equal(plan, ref)
    products = np.outer(p, q).ravel()[_effective_order(plan)]
    assert merged.tobytes() == np.add.reduceat(products, plan.starts).tobytes()
    assert points.tobytes() == ref.points.tobytes() and points.shape == ref.points.shape


def test_a_plan_merges_only_weights_of_its_input_points():
    # a plan of sums merges the products of its factors' weights alone: flat weights raise, even of the right count
    plan = MergePlan.of_sums(np.array([[0.0], [1.0]]), np.array([[0.0], [1.0], [2.0]]))
    repeated = MergePlan.of_sums(np.array([[0.0], [0.0]]), np.array([[0.0], [1.0], [2.0]]))  # takes argsort
    assert plan.cells is not None and repeated.cells is None and repeated.order.dtype == np.int32
    for merge in (
        lambda: plan.merge(np.ones(5)),
        lambda: plan.merge(np.ones(6)),  # row cells
        lambda: repeated.merge(np.ones(6)),  # int32 input positions
        lambda: plan.merge_products(np.ones(2), np.ones(2)),
        lambda: plan.merge_products(np.ones(3), np.ones(2)),  # 6 products, but of factors in swapped lengths
        lambda: FiniteMeasure([0, 1, 2], np.ones(3) / 3).support.merge(np.ones(5)),  # a plan with no starts
    ):
        with pytest.raises(ValueError, match=r"^weights must be given at each input point of the plan$"):
            merge()


# values a few ulps either side of these are 12-digit keys apart
_ROUNDING_EDGES = (1.000000000005, -2.000000000005e-7, 123456.7890125)


def _ulps(x, k):
    """x moved k ulps up (k < 0: down)."""
    for _ in range(abs(k)):
        x = float(np.nextafter(x, math.copysign(math.inf, k)))
    return x


@st.composite
def _nondecreasing_values(draw):
    """Nondecreasing (N,) values: runs of equal values, values ulps apart across a rounding edge, -0.0 by 0.0."""
    anchors = st.sampled_from((-0.0, 0.0, 0.25, -3.0) + _ROUNDING_EDGES)
    runs = draw(st.lists(st.tuples(anchors, st.integers(-3, 3), st.integers(1, 4)), min_size=1, max_size=30))
    return np.array(sorted(_ulps(x, k) for x, k, run in runs for _ in range(run)))  # stable: -0.0, 0.0 stay


@settings(max_examples=200, deadline=None)
@given(_nondecreasing_values(), st.sampled_from([1, 2, 3, 7, 1 << 16]))
@example(np.array([-0.0, 0.0, -0.0] + [_ulps(_ROUNDING_EDGES[0], k) for k in (-2, -1, -1, 1, 2, 2)]), 2)
def test_nondecreasing_1d_points_keep_no_order(values, block):
    # the identity-order plan against the sort of the same quantized keys, in blocks of `block` points
    points = values.reshape(-1, 1)
    order, starts = measures._groups(lambda: quantize(points))
    ref = MergePlan(points[order[starts]], order, starts, points.shape[:1])
    weights = np.linspace(-1.0, 2.0, points.shape[0]) / 7.0
    ref_merge = np.add.reduceat(weights[order], starts)
    with mock.patch.object(measures, "BLOCK", block):
        plan = MergePlan.build(values)
        merged, strided = plan.merge(weights), plan.merge(np.repeat(weights, 2)[::2])
    assert plan.order is None and _plans_equal(plan, ref)
    assert merged.tobytes() == ref_merge.tobytes() and strided.tobytes() == ref_merge.tobytes()


@pytest.mark.parametrize(
    "points",
    [[[3.0], [2.0], [2.0], [-0.0], [0.0]], [[0.0], [2.0], [1.0], [2.0]], [[0.0, 1.0], [1.0, 2.0], [1.0, 2.0]]],
    ids=["decreasing", "unsorted", "two-columns"],
)
def test_other_points_take_the_sort_route(points):
    pts = np.array(points)
    order, starts = measures._groups(lambda: quantize(pts))
    plan = MergePlan.build(pts)
    assert plan.order is not None  # also for two sorted columns: only (N, 1) points keep no order
    assert _plans_equal(plan, MergePlan(pts[order[starts]], order, starts, pts.shape[:1]))


def test_a_convolution_keeps_its_merged_weights(families, monkeypatch):
    # the frozen weights a replay returns become the measure's weights as they are, with no copy
    merged = []
    merge_products = MergePlan.merge_products

    def recorded(plan, p, q):
        merged.append(merge_products(plan, p, q))
        return merged[-1]

    monkeypatch.setattr(MergePlan, "merge_products", recorded)
    q1 = nef_base(families["binomial"], 0.0)
    q2 = convolve(q1, q1)
    assert len(merged) == 1 and q2.weights is merged[0]


@pytest.mark.parametrize("block", [1, 3, 1 << 16])
def test_a_non_finite_sum_raises_in_any_block(block, monkeypatch):
    monkeypatch.setattr(measures, "BLOCK", block)
    a = np.array([[0.5], [1.0], [1e308], [2.0]])
    b = np.array([[0.25], [1e308]])
    for plan in (lambda: MergePlan.of_sums(a, b), lambda: _quantized_plan(a, b)):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=r"^points and weights must be finite$"):
            plan()


def test_q_n_builds_keep_no_pair_sized_temporaries():
    # gauss Q_3 sums 4.06M pairs to 1.35M points; a float array per pair (32 MB) would double the peak.
    # tracemalloc counts numpy's array allocations alike on every machine
    f = make_family("gauss_known_var")  # a new family object: every plan is built cold
    tracemalloc.start()
    try:
        for theta in f.theta_grid[1], f.theta_grid[3]:  # a cold build, then a replay of its plans
            tracemalloc.reset_peak()
            nef_distribution(f, theta, 3)
            live, peak = tracemalloc.get_traced_memory()
            assert peak <= 1.5 * live
    finally:
        tracemalloc.stop()


def _sum_step_costs(key, n, monkeypatch):
    """Peak bytes per pair above what was live before it, of each sum step of a cold Q_n build, by its pairs."""
    f = make_family(key)  # a new family object: every plan is built cold
    per_pair = {}
    sum_plan = derived._sum_plan

    def measured(a, b, support_cap):
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        plan = sum_plan(a, b, support_cap)
        pairs = a.shape[0] * b.shape[0]
        per_pair[pairs] = (tracemalloc.get_traced_memory()[1] - live) / pairs
        return plan

    monkeypatch.setattr(derived, "_sum_plan", measured)
    tracemalloc.start()
    try:
        nef_distribution(f, f.theta_grid[1], n)
    finally:
        tracemalloc.stop()
    assert max(per_pair) > 4_000_000
    return {pairs: cost for pairs, cost in per_pair.items() if pairs >= 2**20}


@pytest.mark.parametrize("key, n", [("binomial", 1024), ("categorical", 128)])
def test_uint16_sum_steps_keep_no_int64_index_per_pair(key, n, monkeypatch):
    # the high-n lattice ladders' sum steps of 2^20 pairs and more (up to 4.6M) sort uint16 cells: an int64
    # index per pair (8 bytes) must not be made
    large = _sum_step_costs(key, n, monkeypatch)
    assert all(cost < 8.0 for cost in large.values()), large


@pytest.mark.parametrize("key, n", [("binomial", 1024), ("categorical", 128)])
def test_uint16_sum_steps_keep_only_their_row_cells(key, n, monkeypatch):
    # the same steps place the pairs row by row: beside the uint16 row cells (2 bytes per pair) they keep only
    # per-cell counts and free slots and a row's cells, about 0.1 bytes per pair on binomial's 1.05M-pair step
    large = _sum_step_costs(key, n, monkeypatch)
    assert all(cost < 2.5 for cost in large.values()), large


@pytest.mark.parametrize(
    "top, dtype",
    [
        ([65_534.0], np.uint16),
        ([65_535.0], np.uint32),
        ([2.0**32 - 1], np.uint32),
        ([2.0**32], np.int64),
        ([2.0**21 - 1, 2.0**21 - 1, 2.0**21 - 2], np.int64),  # 2^63 - 2^42 cells, the last one 2^63 - 2^42 - 1
    ],
)
def test_integer_cells_take_the_narrowest_type_and_never_wrap(top, dtype):
    # b repeats a point (0.0 and -0.0), so its cells do not rise and even uint16 cells take argsort; the canonical
    # factors span the same grid, and their uint16 cells alone take the counting sort
    below = [t - 1.0 for t in top]
    repeated = (np.array([[0.0] * len(top), top]), np.array([[0.0] * len(top), [-0.0] * len(top)]))
    canonical = (np.array([[0.0] * len(top), below]), np.array([[-0.0] * len(top), [1.0] * len(top)]))
    grid = math.prod(int(t) + 1 for t in top)
    for (a, b), counted in ((repeated, False), (canonical, dtype == np.uint16)):
        cells = _pair_cells(a, b)
        assert cells.dtype == dtype
        assert int(cells.min()) == 0 and int(cells.max()) == grid - 1
        plan = derived._sum_plan(a, b, derived.SUPPORT_CAP)
        assert (plan.cells is not None) == counted
        assert _plans_equal(plan, _quantized_plan(a, b))


@pytest.mark.parametrize(
    "top, counted",
    # grids of 65,535 and 255^2 cells (uint16), 65,536 (uint32) and 2^32 + 2 (int64)
    [([65_533.0], True), ([253.0, 253.0], True), ([65_534.0], False), ([2.0**32], False)],
)
def test_uint16_cells_of_canonical_factors_are_placed_without_a_sort(top, counted, monkeypatch):
    # 30 pairs: uint16 cells of canonical factors are placed row by row, with no sort at all, and wider cells, or
    # factors with a repeated point, by one argsort of them all. The canonical factors, 15 and 2 points, span the
    # same grid as the 5 and 6 points that repeat some
    repeated = (
        np.array([[0.0] * len(top), [1.0] * len(top), [2.0] * len(top), [1.0] * len(top), top]),
        np.array([[v] * len(top) for v in (0.0, -0.0, 1.0, 0.0, 1.0, 0.0)]),
    )
    canonical = (
        np.array([[float(v)] * len(top) for v in range(14)] + [top]),
        np.array([[-0.0] * len(top), [1.0] * len(top)]),
    )
    sizes = {"argsort": [], "sort": [], "lexsort": []}

    def spy(name):
        sort = getattr(np, name)
        monkeypatch.setattr(np, name, lambda keys, **kw: sizes[name].append(len(keys)) or sort(keys, **kw))

    for name in sizes:
        spy(name)
    for (a, b), placed in ((repeated, False), (canonical, counted)):
        ref = _quantized_plan(a, b)
        assert (_pair_cells(a, b).dtype == np.uint16) == counted
        for calls in sizes.values():
            calls.clear()
        plan = derived._sum_plan(a, b, derived.SUPPORT_CAP)
        assert _plans_equal(plan, ref) and (plan.cells is not None) == placed
        assert sizes == {"argsort": [] if placed else [30], "sort": [], "lexsort": []}


def _bitwise_equal(p, q):
    return np.array_equal(p.points, q.points) and np.array_equal(p.weights, q.weights)


def _cold(family, theta, n):
    """Q_n built from nothing by explicit convolve calls, in the ladder's binary-exponentiation order."""
    total, block, k = None, nef_base(family, theta), n
    while k:
        if k & 1:
            total = block if total is None else convolve(total, block)
        k >>= 1
        if k:
            block = convolve(block, block)
    return total if n == 1 else FiniteMeasure(total.points / n, total.weights)


@pytest.mark.parametrize("key", ["gauss_known_var", "bernoulli"])
def test_nef_distribution_reuse_is_bitwise_cold(key):
    f = make_family(key)  # a new family object: the store starts with no plan of it
    theta = f.theta_grid[2]
    order = (5, 1, 8, 3, 7, 11, 2, 4) if key == "bernoulli" else (3, 1, 2)
    warm, added, seen = {}, {}, set()
    for n in order:
        warm[n] = nef_distribution(f, theta, n)
        added[n], seen = set(derived._store.plans) - seen, set(derived._store.plans)
        if n == 3:  # Q_3 is planned, so the plan of Q_1^{*3}, a sum the store does not keep, keeps no points
            assert derived._store.plans[(1, 2)].points is None
    assert all(nef_distribution(f, theta, n) is warm[n] for n in order)
    for n in order:
        assert _bitwise_equal(warm[n], _cold(f, theta, n))
    # only power-of-two sums are kept, and only their plans keep points: Q_7 = Q_1^{*3} + Q_1^{*4} and
    # Q_11 = Q_1^{*3} + Q_1^{*8} form the Q_1^{*3} of n = 3 again by replaying its plan, with no new plan for it
    store = derived._store
    assert sorted(store.sums) == ([1, 2, 4, 8] if key == "bernoulli" else [1, 2])
    steps = [step for step in store.plans if isinstance(step, tuple)]
    assert all((store.plans[(a, b)].points is None) == (a != b) for a, b in steps)
    if key == "bernoulli":
        assert added[7] == {(3, 4), 7} and added[11] == {(3, 8), 11}


@pytest.mark.parametrize(
    "key, params, later", [("gauss_known_var", {"nodes": 11}, (3, 7)), ("bernoulli", None, (3, 7, 15))]
)
def test_sums_without_points_make_them_again_bitwise_cold(key, params, later):
    # Q_3 at one theta drops the points of Q_1^{*3}'s plan. At another theta Q_3 replays its weights, and the cold
    # (3, 4) step of Q_7 makes those points again from Q_1's and Q_1^{*2}'s; bernoulli's (7, 8) step of Q_15 makes
    # Q_1^{*7}'s from points made again themselves
    f = make_family(key, params)
    first, second = f.theta_grid[1], f.theta_grid[3]
    assert _bitwise_equal(nef_distribution(f, first, 3), _cold(f, first, 3))
    plan = derived._store.plans[(1, 2)]
    assert plan.points is None and plan.shape == (math.prod(plan.inputs),)  # it still merges its inputs
    for n in later:
        assert _bitwise_equal(nef_distribution(f, second, n), _cold(f, second, n))
    assert all(derived._store.plans[step].points is None for step in [(1, 2), (3, 4), (7, 8)][:len(later)])


def test_store_plans_of_a_quadrature_q3_keep_no_sum_points():
    # the plans of gauss Q_3 took 49.1 MB while the (1, 2) plan kept its 1.35M canonical sums (10.8 MB)
    f = make_family("gauss_known_var")
    nef_distribution(f, f.theta_grid[0], 3)
    arrays = [a for plan in derived._store.plans.values() for a in (plan.points, plan.order, plan.starts)]
    assert sum(a.nbytes for a in arrays if a is not None) < 39e6


def test_store_plans_of_a_binomial_q1024_keep_row_cells():
    # binomial's Q_1024 ladder kept 21.5 MiB of plans with an int32 index per pair; a uint16 row cell halves them
    f = make_family("binomial")
    for n in (1, 4, 16, 64, 256, 1024):
        nef_distribution(f, f.theta_grid[1], n)
    plans = derived._store.plans.values()
    arrays = [a for plan in plans for a in (plan.points, plan.order, plan.starts, *(plan.cells or ()))]
    assert sum(a.nbytes for a in arrays if a is not None) < 11.5 * 2**20


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


def test_nef_distribution_recovers_from_a_failed_theta(families):
    # a theta whose Q_1 cannot be built must leave no half-replaced builds behind
    f = families["binomial"]
    q = nef_distribution(f, f.theta_grid[1], 4)
    with pytest.raises(DomainError):
        nef_distribution(f, 50.0, 4)
    assert _bitwise_equal(nef_distribution(f, f.theta_grid[1], 4), q)


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


@pytest.mark.parametrize(
    "key, n", [("gauss_known_var", 3), ("exponential_dist", 3), ("categorical", 16), ("binomial", 64)]
)
def test_replayed_q_n_is_bitwise_cold(key, n):
    # a fresh family object: the first grid theta sorts every step, the other four replay its plans
    f = make_family(key)
    replayed = [nef_distribution(f, theta, n) for theta in f.theta_grid]
    assert derived._store.family is f
    plans = dict(derived._store.plans)
    assert (plans[n].order is None) == (f.order == 1)  # a 1/n rescale of 1-D points keeps them in order
    for theta, qn in zip(f.theta_grid, replayed):
        assert _bitwise_equal(qn, _cold(f, theta, n))
    assert all(derived._store.plans[step] is plan for step, plan in plans.items())


def test_merge_plans_keep_the_cap(families):
    f = families["bernoulli"]
    with pytest.raises(SupportBlowupError) as cold:
        nef_distribution(make_family("bernoulli"), 0.5, 64, support_cap=10)
    nef_distribution(f, 0.0, 64)  # plans of every step at the default cap
    with pytest.raises(SupportBlowupError) as warm:
        nef_distribution(f, 0.5, 64, support_cap=10)
    assert str(warm.value) == str(cold.value)


def test_merge_plans_keep_one_family(families):
    f, g = families["binomial"], families["poisson_trunc"]
    nef_distribution(f, f.theta_grid[1], 8)
    ref = weakref.ref(derived._store.plans[(1, 1)])
    nef_distribution(f, f.theta_grid[2], 8)
    assert ref() is derived._store.plans[(1, 1)]
    nef_distribution(g, g.theta_grid[1], 8)
    assert ref() is None


def test_a_tangent_keeps_the_weights_it_made(families, monkeypatch):
    made = []
    original = derived._tangent_weights
    monkeypatch.setattr(derived, "_tangent_weights", lambda *args: made.append(original(*args)) or made[-1])
    f = families["poisson_trunc"]
    pair = nef_tangent(f, TangentCoord(f.theta_grid[1], [1.0]), 4)
    assert len(made) == 1 and pair.direction.weights is made[0]


def test_directions_share_the_q_n_support(families, monkeypatch):
    f = families["poisson_trunc"]
    u, v = TangentCoord(f.theta_grid[1], [1.0]), TangentCoord(f.theta_grid[1], [-0.5])
    pair = nef_tangent(f, u, 4)
    assert pair.direction.points is pair.base.points
    shared = []
    original = geometry.radon_nikodym

    def recording(direction, base):
        shared.append(direction.points is base.points)
        return original(direction, base)

    monkeypatch.setattr(geometry, "radon_nikodym", recording)
    check_A2(f, u, v, 4)
    assert shared == [True, True]


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


def _moved(lmap, pair):
    """Both components of a tangent pair pushed through an affine map, as check_A3_affine moves them."""
    return TangentPair(push_forward(pair.base, lmap), push_forward(pair.direction, lmap))


def test_affine_pushforward_pair_examples(families):
    f = families["bernoulli"]
    pair = nef_tangent(f, TangentCoord([0.0], [1.0]), 1)

    moved = _moved(AffineMap.identity(1), pair)
    assert almost_equal(moved.base, pair.base)
    assert np.allclose(moved.direction.weights, pair.direction.weights, atol=1e-15)

    lmap = AffineMap([[2.0]], [-1.0])
    moved = _moved(lmap, pair)
    assert moved.base.points.ravel().tolist() == [-1.0, 1.0]
    assert moved.base.weights.tolist() == [0.5, 0.5]
    assert np.allclose(moved.direction.weights, [-0.25, 0.25], atol=1e-15)


def test_pushforward_pair_transports_score(families):
    # dA/dP transported by L equals the original score composed with L^{-1}
    f = families["bernoulli"]
    pair = nef_tangent(f, TangentCoord([0.0], [1.0]), 1)
    before = radon_nikodym(pair.direction, pair.base)
    lmap = AffineMap([[2.0]], [0.0])
    moved = _moved(lmap, pair)
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
            moved = _moved(lmap, pair)
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

    def averaged(rows):
        n = rows.shape[1] // m
        blocks = [[table[tuple(quantize(x[j * m : (j + 1) * m]))] for j in range(n)] for x in rows]
        return np.mean(blocks, axis=1)

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
        product = iid_product(density_measure(f, theta), n)
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
    prod = iid_product(p, 3)
    assert prod.total_mass == pytest.approx(p.total_mass**3, abs=1e-14)


def _mpf(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


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
    # first and second central moments of the exact Q_1, unnormalized as the code takes them (its mass is 1 +- 3e-16)
    tau = sum(k * r for k, r in enumerate(ratios))
    var1 = sum((k - tau) ** 2 * r for k, r in enumerate(ratios))
    u, v = TangentCoord([theta], [1.0]), TangentCoord([theta], [1.5])  # the directions of the CLI's A2 rows
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

        # A2's left side, the invariant form of (Q_n, A_n) and (Q_n, B_n), is n^2 a Cov(Q_n) b exactly
        points = [Fraction(k, n) for k in range(m * n + 1)]
        cov = sum(w * (y - tau) ** 2 for w, y in zip(exact, points))
        form = n * n * Fraction(3, 2) * cov
        lhs = invariant_form(nef_tangent(family, u, n), nef_tangent(family, v, n))
        assert abs(Fraction(lhs) - form) / form <= Fraction(1, 10**14), float(abs(Fraction(lhs) - form) / form)

        # ks_max: the exact step CDF of L_* Q_n against the normal CDF at 50 digits
        with mpmath.workdps(50):
            scale = mpmath.sqrt(n / _mpf(var1))
            upper, ks = Fraction(0), mpmath.mpf(0)
            for y, w in zip(points, exact):
                upper += w
                phi = mpmath.ncdf(scale * _mpf(y - tau))
                ks = max(ks, abs(_mpf(upper) - phi), abs(_mpf(upper - w) - phi))
            gap = abs(mpmath.mpf(clt_diagnostics(family, theta, n)[0]) - ks)
        assert gap <= 1e-14, float(gap)
