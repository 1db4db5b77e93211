"""Machine verification of the metric invariance axioms.

The checks reify, as finite computations with explicit tolerances:

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

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .derived import (
    SUPPORT_CAP,
    AffineMap,
    _tangent_weights,
    affine_pushforward_pair,
    iid_fisher,
    nef_distribution,
    nef_tangent,
    product_index,
    standardizing_map,
    sym_sqrt,
)
from .errors import PreconditionError, RankError
from .expfam import ExpFamily, TangentCoord, cov_statistic, density_weights, mean_statistic, require_shared_base
from .geometry import (
    MetricField,
    NormFunctional,
    fisher_metric_field,
    fisher_norm_functional,
    metric_eval,
)
from .measures import (
    FiniteMeasure,
    GaussianReference,
    SignedFiniteMeasure,
    radon_nikodym,
)

DISCRETE_TOL = 1e-9
AFFINE_TOL = 1e-12
FORM_MATCH_TOL = 1e-12
_PRODUCT_ROWS_CAP = 1_500_000


@dataclass(frozen=True, eq=False)
class AxiomReport:
    """One axiom check: residual against a tolerance at a (family, theta, n) cell."""

    axiom: str
    family: str
    theta: np.ndarray
    n_values: tuple
    residual: float
    tolerance: float
    passed: bool

    @classmethod
    def build(cls, axiom, family, theta, n_values, residual, tolerance) -> "AxiomReport":
        residual = abs(float(residual))
        tolerance = float(tolerance)
        return cls(
            axiom=axiom,
            family=family,
            theta=np.asarray(theta, dtype=float).reshape(-1),
            n_values=tuple(int(n) for n in n_values),
            residual=residual,
            tolerance=tolerance,
            passed=residual <= tolerance,
        )


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


def check_A1(family: ExpFamily, u: TangentCoord, v: TangentCoord, n: int, tol: float = DISCRETE_TOL) -> AxiomReport:
    """IID scaling: the extension metric equals n times the base metric.

    In natural coordinates both sides reduce to multiples of Sigma, so for
    n <= 3 the left side is additionally recomputed from the score
    representation on the materialized product space.
    """
    require_shared_base(u, v)
    n = int(n)
    lhs = float(u.a @ iid_fisher(family, u.theta, n) @ v.a)
    rhs = float(n * (u.a @ cov_statistic(family, u.theta) @ v.a))
    residual = abs(lhs - rhs)
    if n <= 3:
        alt = _product_score_form(family, u.theta, u.a, v.a, n)
        if alt is not None:
            residual = max(residual, abs(alt - rhs))
    return AxiomReport.build("A1", family.name, u.theta, (n,), residual, tol)


def check_A2(
    family: ExpFamily,
    u: TangentCoord,
    v: TangentCoord,
    n: int,
    tol: float = DISCRETE_TOL,
    support_cap: int = SUPPORT_CAP,
) -> AxiomReport:
    """Sufficient-statistic isometry: the invariant form on Q_n matches n Sigma.

    The left side is assembled on the derived family via tangent pairs and
    Radon-Nikodym derivatives: integral (dA_n/dQ_n)(dB_n/dQ_n) dQ_n, which
    expands to n^2 a^T Cov(Q_n) b.
    """
    require_shared_base(u, v)
    n = int(n)
    pair_u = nef_tangent(family, u, n, support_cap)
    tau = mean_statistic(family, u.theta)
    dir_v = SignedFiniteMeasure(pair_u.base.points, _tangent_weights(pair_u.base, tau, v.a, n))
    ra = radon_nikodym(pair_u.direction, pair_u.base)
    rb = radon_nikodym(dir_v, pair_u.base)
    lhs = float(np.sum(pair_u.base.weights * ra * rb))
    rhs = float(u.a @ iid_fisher(family, u.theta, n) @ v.a)
    return AxiomReport.build("A2", family.name, u.theta, (n,), abs(lhs - rhs), tol)


def claim1_pipeline(
    family: ExpFamily,
    u: TangentCoord,
    n: int,
    functional: Optional[NormFunctional] = None,
    support_cap: int = SUPPORT_CAP,
) -> float:
    """Norm of the standardized push-forward: H(L_* Q_n, f L_* Q_n).

    L is the standardizing map and f(y) = (Sigma^{1/2} a) . y. For any
    functional satisfying the axioms the value is independent of n; for the
    Fisher functional it equals ||Sigma^{1/2} a|| exactly.
    """
    functional = functional or fisher_norm_functional()
    qn = nef_distribution(family, u.theta, n, support_cap)
    lmap = standardizing_map(family, u.theta, n)
    standardized = FiniteMeasure(lmap.apply(qn.points), qn.weights)
    coeff = sym_sqrt(cov_statistic(family, u.theta)) @ u.a
    return functional.eval(standardized, coeff)


def check_A3_constancy(
    family: ExpFamily,
    u: TangentCoord,
    n_values: Sequence[int],
    tol: float = DISCRETE_TOL,
    functional: Optional[NormFunctional] = None,
    support_cap: int = SUPPORT_CAP,
) -> AxiomReport:
    """Weak-continuity witness: pipeline values equal the Gaussian closed form.

    Residual is the largest deviation of H(L_* Q_n, f L_* Q_n) over the given
    n from H(Phi, f Phi); only a finite-n trend, never the limit itself.
    """
    functional = functional or fisher_norm_functional()
    coeff = sym_sqrt(cov_statistic(family, u.theta)) @ u.a
    reference = functional.eval(GaussianReference(family.order), coeff)
    residual = max(
        abs(claim1_pipeline(family, u, n, functional, support_cap) - reference)
        for n in n_values
    )
    return AxiomReport.build("A3-constancy", family.name, u.theta, n_values, residual, tol)


def _random_affine(rng: np.random.Generator, dim: int) -> AffineMap:
    while True:
        m = rng.uniform(-1.5, 1.5, size=(dim, dim))
        if abs(np.linalg.det(m)) >= 0.2:
            break
    return AffineMap(m, rng.uniform(-2.0, 2.0, size=dim))


def check_A3_affine(
    family: ExpFamily,
    u: TangentCoord,
    n: int = 1,
    trials: int = 3,
    seed: int = 42,
    tol: float = AFFINE_TOL,
    support_cap: int = SUPPORT_CAP,
) -> AxiomReport:
    """Affine invariance of the Fisher functional on tangent pairs.

    Pushes (Q_n, A_n) through random invertible affine maps and compares the
    transported norms; also folds in one rotation check between matched
    tangent vectors at different base points.
    """
    rng = np.random.default_rng(seed)
    functional = fisher_norm_functional()
    pair = nef_tangent(family, u, n, support_cap)
    h0 = functional.eval_values(pair.base, radon_nikodym(pair.direction, pair.base))
    residual = 0.0
    for _ in range(int(trials)):
        moved = affine_pushforward_pair(_random_affine(rng, family.order), pair)
        h1 = functional.eval_values(moved.base, radon_nikodym(moved.direction, moved.base))
        residual = max(residual, abs(h1 - h0))
    others = [g for g in family.theta_grid if not np.array_equal(g, u.theta)]
    phi = others[-1] if others else u.theta
    v = matched_direction(family, u, phi, rng.standard_normal(family.order))
    residual = max(residual, claim2_rotation_check(family, u, v))
    return AxiomReport.build("A3-affine", family.name, u.theta, (n,), residual, tol)


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
    functional = fisher_norm_functional()
    phi = GaussianReference(family.order)
    return abs(functional.eval(phi, rotation @ x) - functional.eval(phi, x))


@dataclass(frozen=True, eq=False)
class CltDiagnostics:
    """Convergence indicators for the standardized push-forward L_* Q_n."""

    moment_gap: float
    ks_max: float


def ks_to_standard_normal(marginal) -> float:
    """Kolmogorov-Smirnov distance of a one-dimensional law to the standard normal.

    For a finite measure this is the exact sup-distance between its step CDF
    and the analytic normal CDF, attained at support points. The analytic
    reference itself gives 0.
    """
    if marginal.dim != 1:
        raise ValueError("the KS diagnostic compares one-dimensional marginals")
    if isinstance(marginal, GaussianReference):
        return 0.0
    order = np.argsort(marginal.points[:, 0], kind="stable")
    pts = marginal.points[order, 0]
    wts = marginal.weights[order]
    upper = np.cumsum(wts)
    lower = upper - wts
    cdf = GaussianReference.cdf(pts)
    return float(max(np.max(np.abs(upper - cdf)), np.max(np.abs(lower - cdf))))


def clt_diagnostics(family: ExpFamily, theta, n: int, support_cap: int = SUPPORT_CAP) -> CltDiagnostics:
    """Moment and KS gaps between L_* Q_n and the standard normal.

    ``moment_gap``: worst deviation of standardized marginal third/fourth
    moments from (0, 3). ``ks_max``: largest per-axis KS distance to the
    analytic normal CDF.
    """
    qn = nef_distribution(family, theta, n, support_cap)
    lmap = standardizing_map(family, theta, n)
    pts = lmap.apply(qn.points)
    wts = qn.weights
    moment_gap = 0.0
    ks_max = 0.0
    for axis in range(pts.shape[1]):
        col = pts[:, axis]
        m3 = float(np.sum(wts * col**3))
        m4 = float(np.sum(wts * col**4))
        moment_gap = max(moment_gap, abs(m3), abs(m4 - 3.0))
        ks_max = max(ks_max, ks_to_standard_normal(FiniteMeasure(col, wts)))
    return CltDiagnostics(moment_gap=moment_gap, ks_max=ks_max)


def uniqueness_residual(
    functional: NormFunctional,
    family: ExpFamily,
    u: TangentCoord,
    n1: int,
    n2: int,
    support_cap: int = SUPPORT_CAP,
) -> float:
    """Across-n inconsistency of a candidate functional.

    Any functional satisfying the axioms gives the same standardized
    push-forward value at every n, so this difference must vanish; it is
    strictly positive for the perturbed demonstrators.
    """
    if int(n1) == int(n2):
        raise PreconditionError("uniqueness residual needs two distinct extension sizes")
    return abs(
        claim1_pipeline(family, u, n1, functional, support_cap)
        - claim1_pipeline(family, u, n2, functional, support_cap)
    )


@dataclass(frozen=True, eq=False)
class RecoverResult:
    """Estimated proportionality constant of a metric field to the Fisher field."""

    c_hat: float
    spread: float


def recover_constant(
    field: MetricField,
    family: ExpFamily,
    trials: int = 20,
    seed: int = 42,
) -> RecoverResult:
    """Ratio of a candidate metric to the Fisher metric over random tangents.

    Samples theta from the family grid and directions from the unit sphere,
    and forms the metric-level ratio g(u, u) / g^F(u, u) (squared norms, so a
    field equal to c times the Fisher field recovers c_hat = c). ``spread``
    is max - min of the ratios; zero spread pins the field to one multiple.
    """
    rng = np.random.default_rng(seed)
    fisher = fisher_metric_field(family)
    grid = family.theta_grid
    ratios = []
    for _ in range(int(trials)):
        theta = grid[int(rng.integers(len(grid)))]
        a = rng.standard_normal(family.order)
        norm = float(np.linalg.norm(a))
        while norm < 1e-6:
            a = rng.standard_normal(family.order)
            norm = float(np.linalg.norm(a))
        u = TangentCoord(theta, a / norm)
        denominator = metric_eval(fisher, u, u)
        numerator = metric_eval(field, u, u)
        if not np.isfinite(numerator) or numerator <= 0.0:
            raise RankError("candidate metric is degenerate along a sampled tangent")
        ratios.append(numerator / denominator)
    ratios = np.asarray(ratios)
    return RecoverResult(c_hat=float(ratios.mean()), spread=float(ratios.max() - ratios.min()))
