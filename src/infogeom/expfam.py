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
from scipy.special import logsumexp

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
        lo = np.asarray(self.lo, dtype=float).reshape(-1)
        hi = np.asarray(self.hi, dtype=float).reshape(-1)
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
        theta = np.asarray(self.theta, dtype=float).reshape(-1)
        a = np.asarray(self.a, dtype=float).reshape(-1)
        if theta.shape != a.shape:
            raise ValueError("theta and a must have the same dimension")
        theta.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "a", a)

    def __add__(self, other: "TangentCoord") -> "TangentCoord":
        require_shared_base(self, other)
        return TangentCoord(self.theta, self.a + other.a)

    def __sub__(self, other: "TangentCoord") -> "TangentCoord":
        require_shared_base(self, other)
        return TangentCoord(self.theta, self.a - other.a)

    def __mul__(self, scalar) -> "TangentCoord":
        return TangentCoord(self.theta, float(scalar) * self.a)

    __rmul__ = __mul__

    def __neg__(self) -> "TangentCoord":
        return TangentCoord(self.theta, -self.a)


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
        stats = np.asarray(self.stat_values, dtype=float)
        if stats.ndim == 1:
            stats = stats.reshape(-1, 1)
        if stats.shape[0] != self.base.size:
            raise ValueError("need one statistic row per base support point")
        if stats.shape[1] != self.theta_domain.dim:
            raise ValueError("statistic and parameter dimensions differ")
        stats = np.ascontiguousarray(stats)
        stats.setflags(write=False)
        object.__setattr__(self, "stat_values", stats)
        if self.kind not in ("discrete", "quadrature"):
            raise ValueError("kind must be 'discrete' or 'quadrature'")
        grid = self.theta_grid
        if grid is None:
            grid = _default_grid(self.theta_domain)
        grid = np.asarray(grid, dtype=float)
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


def log_partition(family: ExpFamily, theta) -> float:
    """log Z(theta), computed with a max-shift so exp never overflows."""
    t = _as_theta(family, theta)
    if not family.theta_domain.contains(t):
        raise DomainError(f"theta {t.tolist()} outside the declared domain")
    with np.errstate(over="ignore"):  # a non-finite sum is raised below, not warned
        value = float(logsumexp(family.stat_values @ t, b=family.base.weights))
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
    dw = density_weights(family, t)

    def shifted(delta):
        # psi(t + delta) - psi(t); constant offsets cancel in the stencils
        return _tilted_log_mass(family.stat_values @ delta, dw)

    mat = np.empty((d, d))
    eye = np.eye(d)
    g0 = shifted(np.zeros(d))
    for i in range(d):
        mat[i, i] = (shifted(h * eye[i]) - 2.0 * g0 + shifted(-h * eye[i])) / (h * h)
    for i in range(d):
        for j in range(i + 1, d):
            pp = shifted(h * eye[i] + h * eye[j])
            pm = shifted(h * eye[i] - h * eye[j])
            mp = shifted(-h * eye[i] + h * eye[j])
            mm = shifted(-h * eye[i] - h * eye[j])
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
    t = _as_theta(family, u.theta)
    if u.a.shape[0] != family.order:
        raise ValueError("direction dimension mismatch")
    dw = density_weights(family, t)
    slope = centered(dw, family.stat_values)[1] @ u.a
    base = FiniteMeasure(family.base.points, dw)
    direction = SignedFiniteMeasure(family.base.points, dw * slope)
    return TangentPair(base, direction)


# --------------------------------------------------------------------------
# family registry


def _bernoulli():
    points = np.array([[0.0], [1.0]])
    return points, np.ones(2), points


def _binomial(m):
    xs = np.arange(m + 1, dtype=float).reshape(-1, 1)
    return xs, np.array([math.comb(m, k) for k in range(m + 1)], dtype=float), xs


def _categorical(k):
    points = np.eye(k)
    return points, np.ones(k), points[:, : k - 1]


def _poisson_trunc(N):
    xs = np.arange(N + 1, dtype=float).reshape(-1, 1)
    return xs, np.array([1.0 / math.factorial(k) for k in range(N + 1)]), xs


def _gauss_known_var(nodes):
    # Gauss-Hermite discretization of the standard normal base; the family
    # p_theta ~ exp(theta x) dN(0,1) is the unit-variance location family.
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


# name: (builder, {param: (default, minimum)}, kind, default box (lo, hi) on every axis,
#        default grid (lo, hi) on axis 0, scaled by 0.8^i on axis i); builder(**params)
#        returns the base points, the base weights and the statistic rows
_REGISTRY = {
    "bernoulli": (_bernoulli, {}, "discrete", (-10.0, 10.0), (-1.5, 1.5)),
    "binomial": (_binomial, {"m": (4, 1)}, "discrete", (-10.0, 10.0), (-1.5, 1.5)),
    "categorical": (_categorical, {"k": (3, 2)}, "discrete", (-8.0, 8.0), (-1.5, 1.5)),
    "poisson_trunc": (_poisson_trunc, {"N": (50, 5)}, "discrete", (-10.0, 2.5), (-1.0, 1.0)),
    "gauss_known_var": (_gauss_known_var, {"nodes": (201, 11)}, "quadrature", (-4.0, 4.0), (-1.5, 1.5)),
    "exponential_dist": (_exponential_dist, {"nodes": (201, 11)}, "quadrature", (-6.0, -0.5), (-4.0, -1.0)),
}


def family_names() -> tuple:
    return tuple(_REGISTRY)


def make_family(
    name: str,
    params: Optional[Mapping] = None,
    *,
    theta_lo=None,
    theta_hi=None,
) -> ExpFamily:
    """Build a registered family; optional box bounds override the default."""
    if name not in _REGISTRY:
        raise UnknownFamilyError(f"unknown family {name!r}; known: {sorted(_REGISTRY)}")
    build, spec, kind, box_range, grid_range = _REGISTRY[name]
    box = None
    if (theta_lo is None) != (theta_hi is None):
        raise BadParamError("theta_lo and theta_hi must be given together")
    if theta_lo is not None:
        box = ThetaBox(theta_lo, theta_hi)
    params = dict(params or {})
    unknown = set(params) - set(spec)
    if unknown:
        raise BadParamError(f"unknown parameter(s) {sorted(unknown)} for family {name!r}")
    ints = {}
    for key, (default, lo) in spec.items():
        raw = params.get(key, default)
        try:
            ints[key] = int(raw)
        except (TypeError, ValueError):
            raise BadParamError(f"parameter {key!r} must be an integer, got {raw!r}") from None
        if ints[key] != float(raw) or ints[key] < lo:
            raise BadParamError(f"parameter {key!r} must be an integer >= {lo}, got {raw!r}")
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


def builtin_families() -> tuple:
    """All registered families with their default parameters."""
    return tuple(make_family(name) for name in family_names())


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
