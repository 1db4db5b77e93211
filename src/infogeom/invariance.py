"""Machine verification of the metric invariance axioms.

The checks reify, as finite computations that each return a residual (a
non-negative float; the command line holds the tolerances and the one rule
by which a row passes):

* A1 - the IID extension map scales the metric by exactly n,
* A2 - the canonical-statistic push-forward is an isometry,
* A3 - the norms assemble into one functional that is constant along the
  standardized push-forward sequence (weak continuity) and affine invariant,

plus the derived pipelines: the standardized-pushforward norm (constant in n
and equal to the Gaussian closed form), the rotation argument identifying
norms at different base points, convergence diagnostics for the central
limit behaviour of Q_n, and the witnesses that pin the invariant metric down
to a single positive multiple of the Fisher metric.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .derived import (
    SUPPORT_CAP,
    AffineMap,
    _extension_size,
    _tangent_weights,
    iid_fisher,
    nef_distribution,
    nef_tangent,
    product_index,
    standardizing_map,
    sym_sqrt,
)
from .errors import PreconditionError, RankError
from .expfam import ExpFamily, TangentCoord, cov_statistic, density_weights, mean_statistic, require_shared_base
from .geometry import FISHER, NormFunctional, fisher_metric_field, invariant_form, metric_eval
from .measures import BLOCK, FiniteMeasure, SignedFiniteMeasure, TangentPair, ndtr, push_forward, radon_nikodym

FORM_MATCH_TOL = 1e-12
_PRODUCT_ROWS_CAP = 1_500_000


def _product_score_form(family: ExpFamily, theta, a, b, n: int) -> Optional[float]:
    """Score-product integral on the materialized n-fold product space.

    Scores of the product family are n (a . (T_bar - tau)) with T_bar the
    averaged statistic. Returns None when the product would be too large;
    intended for n <= 3.
    """
    rows = family.base.size ** n
    if rows > _PRODUCT_ROWS_CAP:
        return None
    dw = density_weights(family, theta)
    tau = mean_statistic(family, theta)
    idx = product_index(family.base.size, n)
    weights = dw[idx].prod(axis=1)
    t_bar = family.stat_values[idx].mean(axis=1)
    sa = (t_bar - tau) @ np.asarray(a, dtype=float)
    sb = (t_bar - tau) @ np.asarray(b, dtype=float)
    return float(n * n * np.sum(weights * sa * sb))


def check_A1(family: ExpFamily, u: TangentCoord, v: TangentCoord, n: int) -> float:
    """IID scaling: the extension metric equals n times the base metric.

    In natural coordinates both sides reduce to multiples of Sigma, so for
    n <= 3 the left side is additionally recomputed from the score
    representation on the materialized product space.
    """
    require_shared_base(u, v)
    n = _extension_size(n)
    lhs = float(u.a @ iid_fisher(family, u.theta, n) @ v.a)
    rhs = float(n * (u.a @ cov_statistic(family, u.theta) @ v.a))
    residual = abs(lhs - rhs)
    if n <= 3:
        alt = _product_score_form(family, u.theta, u.a, v.a, n)
        if alt is not None:
            residual = max(residual, abs(alt - rhs))
    return residual


def check_A2(family: ExpFamily, u: TangentCoord, v: TangentCoord, n: int, support_cap: int = SUPPORT_CAP) -> float:
    """Sufficient-statistic isometry: the invariant form on Q_n matches n Sigma.

    The left side is assembled on the derived family via tangent pairs and
    Radon-Nikodym derivatives: integral (dA_n/dQ_n)(dB_n/dQ_n) dQ_n, which
    expands to n^2 a^T Cov(Q_n) b. B_n is built on the support of u's Q_n.
    """
    require_shared_base(u, v)
    n = _extension_size(n)
    pair_u = nef_tangent(family, u, n, support_cap)
    tau = mean_statistic(family, u.theta)
    dir_v = SignedFiniteMeasure(pair_u.base.support, _tangent_weights(pair_u.base, tau, v.a, n))
    lhs = invariant_form(pair_u, TangentPair(pair_u.base, dir_v))
    rhs = float(u.a @ iid_fisher(family, u.theta, n) @ v.a)
    return abs(lhs - rhs)


def claim1_pipeline(
    family: ExpFamily, u: TangentCoord, n: int, functionals: Sequence[NormFunctional],
    support_cap: int = SUPPORT_CAP,
) -> list:
    """Norms of the standardized push-forward, H(L_* Q_n, f L_* Q_n), one per functional H.

    L is the standardizing map and f(y) = (Sigma^{1/2} a) . y; L_* Q_n is built
    once for all the functionals. For any functional satisfying the axioms the
    value is independent of n; for the Fisher functional it equals
    ||Sigma^{1/2} a|| exactly.
    """
    qn = nef_distribution(family, u.theta, n, support_cap)
    lmap = standardizing_map(family, u.theta, n)
    standardized = push_forward(qn, lmap)
    coeff = sym_sqrt(cov_statistic(family, u.theta)) @ u.a
    return [functional.eval(standardized, coeff) for functional in functionals]


def check_A3_constancy(
    family: ExpFamily, u: TangentCoord, n_values: Sequence[int], support_cap: int = SUPPORT_CAP
) -> float:
    """Weak-continuity witness: Fisher pipeline values equal the Gaussian closed form.

    Residual is the largest deviation of H(L_* Q_n, f L_* Q_n) over the given
    n from H(Phi, f Phi); only a finite-n trend, never the limit itself.
    """
    reference = FISHER.gauss_fn(sym_sqrt(cov_statistic(family, u.theta)) @ u.a)
    return max(abs(claim1_pipeline(family, u, n, [FISHER], support_cap)[0] - reference) for n in n_values)


def _random_affine(rng: np.random.Generator, dim: int) -> AffineMap:
    while True:
        m = rng.uniform(-1.5, 1.5, size=(dim, dim))
        if abs(np.linalg.det(m)) >= 0.2:
            break
    return AffineMap(m, rng.uniform(-2.0, 2.0, size=dim))


def check_A3_affine(
    family: ExpFamily, u: TangentCoord, n: int = 1, seed: int = 42, support_cap: int = SUPPORT_CAP
) -> float:
    """Affine invariance of the Fisher functional on tangent pairs.

    Pushes (Q_n, A_n) through three random invertible affine maps and
    compares the transported norms; also folds in one rotation check between
    matched tangent vectors at different base points.
    """
    rng = np.random.default_rng(seed)
    pair = nef_tangent(family, u, n, support_cap)
    h0 = FISHER.eval_values(pair.base, radon_nikodym(pair.direction, pair.base))
    residual = 0.0
    for _ in range(3):
        lmap = _random_affine(rng, family.order)
        moved = TangentPair(push_forward(pair.base, lmap), push_forward(pair.direction, lmap))
        h1 = FISHER.eval_values(moved.base, radon_nikodym(moved.direction, moved.base))
        residual = max(residual, abs(h1 - h0))
    others = [g for g in family.theta_grid if not np.array_equal(g, u.theta)]
    phi = others[-1] if others else u.theta
    v = matched_direction(family, u, phi, rng.standard_normal(family.order))
    return max(residual, claim2_rotation_check(family, u, v))


def orthogonal_between(x, z) -> np.ndarray:
    """Orthogonal matrix mapping x to z when ||x|| = ||z||.

    The Householder reflection about z - x (identity when the vectors already
    coincide); deterministic and exact up to rounding.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    z = np.asarray(z, dtype=float).reshape(-1)
    v = z - x
    nv = float(np.linalg.norm(v))
    if nv <= 1e-12:
        return np.eye(x.shape[0])
    v = v / nv
    return np.eye(x.shape[0]) - 2.0 * np.outer(v, v)


def matched_direction(family: ExpFamily, u: TangentCoord, phi, b_raw) -> TangentCoord:
    """Rescale b_raw at base point phi so its quadratic form matches u's."""
    phi = np.asarray(phi, dtype=float).reshape(-1)
    b_raw = np.asarray(b_raw, dtype=float).reshape(-1)
    form_u = float(u.a @ cov_statistic(family, u.theta) @ u.a)
    form_b = float(b_raw @ cov_statistic(family, phi) @ b_raw)
    if form_b <= 0.0:
        raise PreconditionError("cannot match a degenerate direction")
    return TangentCoord(phi, b_raw * np.sqrt(form_u / form_b))


def claim2_rotation_check(family: ExpFamily, u: TangentCoord, v: TangentCoord) -> float:
    """Rotation argument: matched quadratic forms give equal Gaussian norms.

    Requires a^T Sigma_theta a = b^T Sigma_phi b (within ``FORM_MATCH_TOL``);
    builds the orthogonal map M carrying Sigma_theta^{1/2} a to
    Sigma_phi^{1/2} b and returns |H(Phi, (f o M^-1) Phi) - H(Phi, f Phi)|,
    both evaluated in closed form.
    """
    form_u = float(u.a @ cov_statistic(family, u.theta) @ u.a)
    form_v = float(v.a @ cov_statistic(family, v.theta) @ v.a)
    if abs(form_u - form_v) >= FORM_MATCH_TOL:
        raise PreconditionError(
            f"quadratic forms differ by {abs(form_u - form_v):.3e}; rescale one direction first"
        )
    x = sym_sqrt(cov_statistic(family, u.theta)) @ u.a
    z = sym_sqrt(cov_statistic(family, v.theta)) @ v.a
    rotation = orthogonal_between(x, z)
    return abs(FISHER.gauss_fn(rotation @ x) - FISHER.gauss_fn(x))


def ks_to_standard_normal(marginal) -> float:
    """Kolmogorov-Smirnov distance of a one-dimensional finite measure to the standard normal.

    This is the exact sup-distance between its step CDF and the analytic
    normal CDF, attained at support points. The one-dimensional support is
    canonical, hence strictly increasing (quantization is monotone), so the
    step CDF is the cumulative sum of the weights as stored.
    """
    if marginal.dim != 1:
        raise ValueError("the KS diagnostic compares one-dimensional marginals")
    pts, wts = marginal.points[:, 0], marginal.weights
    upper = np.cumsum(wts)  # whole: its rounding depends on the whole array
    gap = 0.0
    for start in range(0, pts.shape[0], BLOCK):  # |step CDF - normal CDF| from above and below, a block at a time
        above = upper[start:start + BLOCK]
        below = above - wts[start:start + BLOCK]
        cdf = ndtr(pts[start:start + BLOCK])
        gap = max(gap, float(np.max(np.abs(above - cdf))), float(np.max(np.abs(below - cdf))))
    return gap


def clt_diagnostics(family: ExpFamily, theta, n: int, support_cap: int = SUPPORT_CAP) -> tuple:
    """KS and moment gaps between L_* Q_n and the standard normal, as (ks_max, moment_gap).

    ``ks_max``: largest per-axis KS distance to the analytic normal CDF.
    ``moment_gap``: worst deviation of standardized marginal third/fourth
    moments from (0, 3).
    """
    qn = nef_distribution(family, theta, n, support_cap)
    lmap = standardizing_map(family, theta, n)
    pts = lmap(qn.points)
    wts = qn.weights
    moment_gap = 0.0
    marginals = []
    for axis in range(pts.shape[1]):
        col = pts[:, axis]
        m3 = float(np.sum(wts * col**3))
        m4 = float(np.sum(wts * col**4))
        moment_gap = max(moment_gap, abs(m3), abs(m4 - 3.0))
        marginals.append(FiniteMeasure(col, wts))
    del pts, col  # the marginals keep their own points: the KS distances run without the standardized Q_n
    ks_max = 0.0
    for marginal in marginals:
        ks_max = max(ks_max, ks_to_standard_normal(marginal))
    return ks_max, moment_gap


def uniqueness_residual(
    functionals: Sequence[NormFunctional], family: ExpFamily, u: TangentCoord, n1: int, n2: int,
    support_cap: int = SUPPORT_CAP,
) -> list:
    """Across-n inconsistency of each candidate functional, from one L_* Q_n per n.

    Any functional satisfying the axioms gives the same standardized
    push-forward value at every n, so its difference must vanish; it is
    strictly positive for the perturbed demonstrators.
    """
    if int(n1) == int(n2):
        raise PreconditionError("uniqueness residual needs two distinct extension sizes")
    first = claim1_pipeline(family, u, n1, functionals, support_cap)
    second = claim1_pipeline(family, u, n2, functionals, support_cap)
    return [abs(h1 - h2) for h1, h2 in zip(first, second)]


def recover_constant(fields: Sequence[Callable], family: ExpFamily, trials: int = 20, seed: int = 42) -> list:
    """Ratio of each metric field (theta -> matrix) to the Fisher field over random tangents.

    Samples theta from the family grid and directions from the unit sphere,
    once for all the fields, and forms the metric-level ratio g(u, u) /
    g^F(u, u) (squared norms, so a field equal to c times the Fisher field
    recovers c_hat = c). Returns c_hat, the mean, and spread, max - min, per
    field: [c_hat_1, spread_1, c_hat_2, ...]; zero spread pins a field to one
    multiple.
    """
    rng = np.random.default_rng(seed)
    fisher = fisher_metric_field(family)
    grid = family.theta_grid
    ratios = np.empty((len(fields), int(trials)))
    for trial in range(int(trials)):
        theta = grid[int(rng.integers(len(grid)))]
        a = rng.standard_normal(family.order)
        norm = float(np.linalg.norm(a))
        while norm < 1e-6:
            a = rng.standard_normal(family.order)
            norm = float(np.linalg.norm(a))
        u = TangentCoord(theta, a / norm)
        denominator = metric_eval(fisher, u, u)
        for row, field in zip(ratios, fields):
            numerator = metric_eval(field, u, u)
            if not np.isfinite(numerator) or numerator <= 0.0:
                raise RankError("candidate metric is degenerate along a sampled tangent")
            row[trial] = numerator / denominator
    return [float(x) for row in ratios for x in (row.mean(), row.max() - row.min())]
