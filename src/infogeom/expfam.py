"""Regular exponential families of order d on a finite (or quadrature) base.

A family is a base measure mu with statistic values T(x) attached to each
support point and a declared natural-parameter box. Densities are
``p_theta(x) = exp(theta . T(x)) / Z(theta)`` relative to mu. Because the
base is a finite point set, the log-partition, statistic moments and the
Fisher information are all exact finite sums; the three Fisher routes below
differ only in how the same quantity is assembled:

* route A: covariance matrix of the statistic under p_theta,
* route B: integral of score products with score T_i - tau_i,
* route C: central-difference Hessian of the log-partition.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .errors import (
    BadParamError,
    BasePointMismatchError,
    DomainError,
    RankError,
    UnknownFamilyError,
)
from .measures import FiniteMeasure, SignedFiniteMeasure, TangentPair, centered, weighted_cov

RANK_EPS = 1e-10
FD_STEP = 1e-4


@dataclass(frozen=True, eq=False)
class ThetaBox:
    """Axis-aligned natural-parameter box declared finite-normalizable."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.array(self.lo, dtype=float).reshape(-1)  # copies: the caller's arrays stay writeable
        hi = np.array(self.hi, dtype=float).reshape(-1)
        if lo.shape != hi.shape or np.any(lo >= hi):
            raise ValueError("need lo < hi componentwise")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def contains(self, theta, margin: float = 0.0) -> bool:
        t = np.asarray(theta, dtype=float).reshape(-1)
        if t.shape[0] != self.dim:
            return False
        return bool(np.all(t >= self.lo + margin) and np.all(t <= self.hi - margin))


@dataclass(frozen=True, eq=False)
class TangentCoord:
    """Tangent vector to the parameter space: base point theta and direction a."""

    theta: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        theta = np.array(self.theta, dtype=float).reshape(-1)  # copies: the caller's arrays stay writeable
        a = np.array(self.a, dtype=float).reshape(-1)
        if theta.shape != a.shape:
            raise ValueError("theta and a must have the same dimension")
        theta.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "a", a)


def require_shared_base(u: TangentCoord, v: TangentCoord) -> None:
    """Raise :class:`BasePointMismatchError` unless u and v sit at the same theta."""
    if not np.array_equal(u.theta, v.theta):
        raise BasePointMismatchError("tangent vectors have different base points")


@dataclass(frozen=True, eq=False)
class ExpFamily:
    """Exponential family: base measure, statistic values, parameter box.

    ``stat_values`` is (N, d), row-aligned with ``base.points`` as stored
    (i.e. after canonicalization). ``kind`` is ``"discrete"`` for inherently
    finite data spaces and ``"quadrature"`` for discretized continuous ones;
    ``theta_grid`` is the default parameter grid used by the check suites.
    Construction validates that the statistic is full rank (the covariance of
    T at the domain center has smallest eigenvalue above ``RANK_EPS``) unless
    ``check_rank=False``, and that the log-partition is finite at the center.
    """

    name: str
    base: FiniteMeasure
    stat_values: np.ndarray
    theta_domain: ThetaBox
    kind: str = "discrete"
    theta_grid: Optional[np.ndarray] = None
    check_rank: bool = True

    def __post_init__(self):
        stats = np.array(self.stat_values, dtype=float, order="C")  # copies: the caller's arrays stay writeable
        if stats.ndim == 1:
            stats = stats.reshape(-1, 1)
        if stats.shape[0] != self.base.size:
            raise ValueError("need one statistic row per base support point")
        if stats.shape[1] != self.theta_domain.dim:
            raise ValueError("statistic and parameter dimensions differ")
        stats.setflags(write=False)
        object.__setattr__(self, "stat_values", stats)
        if self.kind not in ("discrete", "quadrature"):
            raise ValueError("kind must be 'discrete' or 'quadrature'")
        grid = self.theta_grid
        if grid is None:
            grid = _default_grid(self.theta_domain)
        grid = np.array(grid, dtype=float)
        if grid.ndim == 1:
            grid = grid.reshape(-1, 1)
        if grid.shape[1] != self.theta_domain.dim:
            raise ValueError("theta_grid rows must match the parameter dimension")
        grid.setflags(write=False)
        object.__setattr__(self, "theta_grid", grid)
        log_partition(self, self.theta_domain.center)
        if self.check_rank:
            cov_statistic(self, self.theta_domain.center)

    @property
    def order(self) -> int:
        """Order d of the family (dimension of the natural parameter)."""
        return self.stat_values.shape[1]

    @property
    def data_dim(self) -> int:
        return self.base.dim


def _default_grid(box: ThetaBox) -> np.ndarray:
    lo = box.lo + 0.25 * (box.hi - box.lo)
    hi = box.hi - 0.25 * (box.hi - box.lo)
    return np.linspace(lo, hi, 5)


def _as_theta(family: ExpFamily, theta) -> np.ndarray:
    t = np.asarray(theta, dtype=float).reshape(-1)
    if t.shape[0] != family.order:
        raise DomainError(f"theta must have dimension {family.order}, got {t.shape[0]}")
    return t


def _logsumexp(a: np.ndarray, b: np.ndarray) -> float:
    """log sum(b exp(a)) for weights b >= 0, in the operations of scipy.special.logsumexp 1.17.

    Zero weights drop their term even at a = inf. The terms at the largest
    exponent a_max sum to m, the rest, shifted by a_max, to s; the result is
    log1p(s / m) + log(m) + a_max, or log sum(b exp(a)) where that is not finite.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        shifted = np.where(b == 0, -np.inf, a)
        a_max = np.max(shifted, keepdims=True)
        top = shifted == a_max
        m = np.sum(b * top, keepdims=True)
        shifted[top] = -np.inf
        s = np.sum(b * np.exp(shifted - a_max), keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        if not np.isfinite(out[0]):
            out = np.log(np.sum(b * np.exp(a), keepdims=True))
    return float(out[0])


def log_partition(family: ExpFamily, theta) -> float:
    """log Z(theta), computed with a max-shift so exp never overflows."""
    t = _as_theta(family, theta)
    if not family.theta_domain.contains(t):
        raise DomainError(f"theta {t.tolist()} outside the declared domain")
    value = _logsumexp(family.stat_values @ t, family.base.weights)
    if not math.isfinite(value):
        raise OverflowError("log-partition sum is not finite")
    return value


def density_weights(family: ExpFamily, theta) -> np.ndarray:
    """Weights of p_theta mu, aligned with ``family.base.points``."""
    t = _as_theta(family, theta)
    psi = log_partition(family, t)
    return family.base.weights * np.exp(family.stat_values @ t - psi)


def density_measure(family: ExpFamily, theta) -> FiniteMeasure:
    """The distribution P_theta = p_theta mu as a finite measure."""
    return FiniteMeasure(family.base.points, density_weights(family, theta))


def mean_statistic(family: ExpFamily, theta) -> np.ndarray:
    """tau_theta, the expectation of the statistic under P_theta."""
    return density_weights(family, theta) @ family.stat_values


def cov_statistic(family: ExpFamily, theta) -> np.ndarray:
    """Sigma_theta, the covariance of the statistic under P_theta.

    Raises :class:`RankError` when the smallest eigenvalue falls below
    ``RANK_EPS`` (the machine-checkable form of the full-rank assumption).
    """
    dw = density_weights(family, theta)
    cov = weighted_cov(dw, centered(dw, family.stat_values)[1])
    if float(np.min(np.linalg.eigvalsh(cov))) < RANK_EPS:
        raise RankError("statistic covariance is numerically singular")
    return cov


def _fisher_route_b(family: ExpFamily, theta) -> np.ndarray:
    dw = density_weights(family, theta)
    scores = centered(dw, family.stat_values)[1]  # d/dtheta_i log p_theta = T_i - tau_i
    mat = np.einsum("n,ni,nj->ij", dw, scores, scores)
    return 0.5 * (mat + mat.T)


def _tilted_log_mass(args: np.ndarray, weights: np.ndarray) -> float:
    # log sum w exp(args) with max-shift and exactly rounded summation; the
    # stencils divide this by h^2, so accumulation noise must stay at 1 ulp
    shift = float(np.max(args[weights > 0.0])) if np.any(weights > 0.0) else 0.0
    total = math.fsum((weights * np.exp(args - shift)).tolist())
    return shift + math.log(total)


def log_partition_shift(family: ExpFamily, theta, delta) -> float:
    """psi(theta + delta) - psi(theta), evaluated in tilted form.

    Equal to log sum dw_i exp(delta . T_i) with dw the density weights at
    theta; for small shifts the exponent arguments are O(|delta| |T|), which
    keeps finite-difference stencils of psi accurate where theta . T is
    large.
    """
    t = _as_theta(family, theta)
    d = np.asarray(delta, dtype=float).reshape(-1)
    if not family.theta_domain.contains(t + d):
        raise DomainError("shifted theta outside the declared domain")
    value = _tilted_log_mass(family.stat_values @ d, density_weights(family, t))
    if not math.isfinite(value):
        raise OverflowError("log-partition sum is not finite")
    return value


def _fisher_route_c(family: ExpFamily, theta) -> np.ndarray:
    t = _as_theta(family, theta)
    h = FD_STEP
    if not family.theta_domain.contains(t, margin=2.0 * h):
        raise DomainError("route C needs a finite-difference neighborhood inside the domain")
    d = family.order
    mat = np.empty((d, d))
    eye = np.eye(d)
    g0 = log_partition_shift(family, t, np.zeros(d))
    for i in range(d):
        plus, minus = log_partition_shift(family, t, h * eye[i]), log_partition_shift(family, t, -h * eye[i])
        mat[i, i] = (plus - 2.0 * g0 + minus) / (h * h)
    for i in range(d):
        for j in range(i + 1, d):
            pp = log_partition_shift(family, t, h * eye[i] + h * eye[j])
            pm = log_partition_shift(family, t, h * eye[i] - h * eye[j])
            mp = log_partition_shift(family, t, -h * eye[i] + h * eye[j])
            mm = log_partition_shift(family, t, -h * eye[i] - h * eye[j])
            mat[i, j] = mat[j, i] = (pp - pm - mp + mm) / (4.0 * h * h)
    return mat


def fisher_information(family: ExpFamily, theta, route: str = "A") -> np.ndarray:
    """Fisher information matrix in natural coordinates, by one of three routes.

    ``"A"``: statistic covariance. ``"B"``: score-product integral.
    ``"C"``: central-difference Hessian of the log-partition (step 1e-4).
    """
    if route == "A":
        return cov_statistic(family, theta)
    if route == "B":
        return _fisher_route_b(family, theta)
    if route == "C":
        return _fisher_route_c(family, theta)
    raise ValueError(f"unknown route {route!r}, expected 'A', 'B' or 'C'")


def gradient_log_partition_fd(family: ExpFamily, theta, step: float = FD_STEP) -> np.ndarray:
    """Central finite difference of the log-partition (checks the tau identity)."""
    t = _as_theta(family, theta)
    if not family.theta_domain.contains(t, margin=2.0 * step):
        raise DomainError("gradient check needs a neighborhood inside the domain")
    eye = np.eye(family.order)
    return np.array(
        [
            (log_partition_shift(family, t, step * eye[i]) - log_partition_shift(family, t, -step * eye[i]))
            / (2.0 * step)
            for i in range(family.order)
        ]
    )


def model_tangent(family: ExpFamily, u: TangentCoord) -> TangentPair:
    """Tangent pair (P_theta, A) with dA = (a . (T - tau)) dP_theta."""
    dw = density_weights(family, u.theta)
    slope = centered(dw, family.stat_values)[1] @ u.a
    base = FiniteMeasure(family.base.points, dw)
    direction = SignedFiniteMeasure(base.support, dw * slope)
    return TangentPair(base, direction)


# --------------------------------------------------------------------------
# family registry


def _bernoulli():
    points = np.array([[0.0], [1.0]])
    return points, np.ones(2), points


def _binomial(m):
    # one coefficient at a time, so the first past the float range raises before any more are built
    weights = np.array([float(math.comb(m, k)) for k in range(m + 1)])
    xs = np.arange(m + 1, dtype=float).reshape(-1, 1)
    return xs, weights, xs


def _categorical(k):
    points = np.eye(k)[::-1]  # one-hot rows in canonical (lexicographic) order
    return points, np.ones(k), points[:, :0:-1]  # T(x) = (x_k, ..., x_2)


def _poisson_trunc(N):
    weights = np.array([1.0 / math.factorial(k) for k in range(N + 1)])  # 171! overflows before any point is made
    xs = np.arange(N + 1, dtype=float).reshape(-1, 1)
    return xs, weights, xs


def _gauss_known_var(nodes):
    # Gauss-Hermite discretization of the standard normal base; the family
    # p_theta ~ exp(theta x) dN(0,1) is the unit-variance location family.
    # hermgauss overflows to NaN weights from 372 nodes; the registry's maximum stops short of that.
    with np.errstate(all="ignore"):
        x, w = np.polynomial.hermite.hermgauss(nodes)
    pts = (math.sqrt(2.0) * x).reshape(-1, 1)
    return pts, w / math.sqrt(math.pi), pts


def _exponential_dist(nodes):
    # Lebesgue measure on [0, inf) via Gauss-Legendre on t in [0,1] with the
    # bounded transform x = -3 log(1 - t); p_theta ~ exp(theta x) dx needs
    # theta < 0, and the declared box keeps the transform well resolved.
    u, w = np.polynomial.legendre.leggauss(nodes)
    one_minus_t = 0.5 * (1.0 - u)
    pts = (-3.0 * np.log(one_minus_t)).reshape(-1, 1)
    return pts, 0.5 * w * 3.0 / one_minus_t, pts


# name: (builder, {param: (default, minimum, maximum)}, kind, default box (lo, hi) on every axis,
#        default grid (lo, hi) on axis 0, scaled by 0.8^i on axis i); builder(**params)
#        returns the base points, the base weights and the statistic rows. A maximum rejects,
#        before any allocation, what no command can use: categorical's np.eye(k), whose pair keys
#        hold k - 1 coordinates each (at k = 64, clt at the default n ran for minutes past 1 GB),
#        and a quadrature rule's nodes x nodes eigenproblem (hermgauss weights are NaN from 372
#        nodes). None: the builder stops at its first weight past the float range on its own.
_REGISTRY = {
    "bernoulli": (_bernoulli, {}, "discrete", (-10.0, 10.0), (-1.5, 1.5)),
    "binomial": (_binomial, {"m": (4, 1, None)}, "discrete", (-10.0, 10.0), (-1.5, 1.5)),
    "categorical": (_categorical, {"k": (3, 2, 32)}, "discrete", (-8.0, 8.0), (-1.5, 1.5)),
    "poisson_trunc": (_poisson_trunc, {"N": (50, 5, None)}, "discrete", (-10.0, 2.5), (-1.0, 1.0)),
    "gauss_known_var": (_gauss_known_var, {"nodes": (201, 11, 360)}, "quadrature", (-4.0, 4.0), (-1.5, 1.5)),
    "exponential_dist": (_exponential_dist, {"nodes": (201, 11, 360)}, "quadrature", (-6.0, -0.5), (-4.0, -1.0)),
}


def make_family(
    name: str,
    params: Optional[Mapping] = None,
    *,
    theta_lo=None,
    theta_hi=None,
) -> ExpFamily:
    """Build a registered family; optional box bounds override the default.

    A definition that floats or the box cannot hold (a base weight or log-partition past the float range, lo >= hi,
    a box of another dimension than the statistic) raises :class:`BadParamError` naming the family and parameters.
    """
    if name not in _REGISTRY:
        raise UnknownFamilyError(f"unknown family {name!r}; known: {sorted(_REGISTRY)}")
    build, spec, kind, box_range, grid_range = _REGISTRY[name]
    if (theta_lo is None) != (theta_hi is None):
        raise BadParamError("theta_lo and theta_hi must be given together")
    params = dict(params or {})
    unknown = set(params) - set(spec)
    if unknown:
        raise BadParamError(f"unknown parameter(s) {sorted(unknown)} for family {name!r}")
    ints = {}
    for key, (default, lo, hi) in spec.items():
        raw = params.get(key, default)
        try:
            ints[key] = int(raw)
        except (TypeError, ValueError):
            raise BadParamError(f"parameter {key!r} must be an integer, got {raw!r}") from None
        if ints[key] != float(raw) or ints[key] < lo or (hi is not None and ints[key] > hi):
            limits = f">= {lo}" if hi is None else f"from {lo} to {hi}"
            raise BadParamError(
                f"cannot build family {name!r} with parameters {params}: "
                f"parameter {key!r} must be an integer {limits}, got {raw!r}"
            )
    try:
        box = None if theta_lo is None else ThetaBox(theta_lo, theta_hi)
        points, weights, stats = build(**ints)
        grid = None  # a given box gets ExpFamily's default grid
        if box is None:
            d = stats.shape[1]
            stagger = 0.8 ** np.arange(d)
            box = ThetaBox(box_range[0] * np.ones(d), box_range[1] * np.ones(d))
            grid = np.linspace(grid_range[0] * stagger, grid_range[1] * stagger, 5)
        return ExpFamily(
            name=name + "".join(f"({value})" for value in ints.values()),
            base=FiniteMeasure(points, weights),
            stat_values=stats,
            theta_domain=box,
            kind=kind,
            theta_grid=grid,
        )
    except (OverflowError, ValueError) as exc:
        bounds = [None if b is None else np.ravel(b).tolist() for b in (theta_lo, theta_hi)]
        given = f"parameters {ints}, theta_lo={bounds[0]}, theta_hi={bounds[1]}"
        raise BadParamError(f"cannot build family {name!r} with {given}: {exc}") from None


def builtin_families() -> tuple:
    """All registered families with their default parameters."""
    return tuple(make_family(name) for name in _REGISTRY)


def affine_transform_statistic(family: ExpFamily, matrix, offset, name=None) -> ExpFamily:
    """Replace the statistic T by L(T) = M T + c and reparameterize accordingly.

    The natural parameter transforms contragrediently (theta' = M^-T theta);
    the returned family carries the axis-aligned bounding box of the
    transformed domain corners and the transformed default grid. Only valid
    here because all bases have finite support (any box is normalizable).
    """
    m = np.asarray(matrix, dtype=float)
    c = np.asarray(offset, dtype=float).reshape(-1)
    d = family.order
    if m.shape != (d, d) or c.shape != (d,):
        raise ValueError("matrix/offset shape mismatch")
    if abs(np.linalg.det(m)) <= 1e-12:
        raise RankError("statistic transformation must be invertible")
    m_invt = np.linalg.inv(m).T
    corners = np.array(
        list(itertools.product(*zip(family.theta_domain.lo, family.theta_domain.hi)))
    )
    images = corners @ m_invt.T
    box = ThetaBox(images.min(axis=0), images.max(axis=0))
    return ExpFamily(
        name=name or f"{family.name}|stat-affine",
        base=family.base,
        stat_values=family.stat_values @ m.T + c,
        theta_domain=box,
        kind=family.kind,
        theta_grid=family.theta_grid @ m_invt.T,
        check_rank=family.check_rank,
    )
