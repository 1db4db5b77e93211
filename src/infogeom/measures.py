"""Weighted point-set measures on R^m.

Every measure in the package is a finite support set with weights: signed
measures (:class:`SignedFiniteMeasure`), their non-negative subclass for
probability and general measures (:class:`FiniteMeasure`), and the analytic
standard normal reference (:class:`GaussianReference`) which is never
discretized.
Continuous inputs enter the system already discretized by the family
constructors, so every integral below is a finite sum and push-forward /
Radon-Nikodym manipulations are exact up to float rounding.

Support canonicalization: coordinates are compared after rounding to 12
significant decimal digits, coinciding points are merged (weights summed)
and rows are sorted lexicographically by the rounded key. Lattice-valued
supports (Bernoulli, binomial, ...) therefore merge exactly under sums and
affine maps, while quadrature nodes keep their full stored precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy.special import ndtr

from .errors import AbsoluteContinuityError

SIGNIFICANT_DIGITS = 12
TANGENT_MASS_TOL = 1e-10

PointMap = Callable[[np.ndarray], Union[np.ndarray, float]]


def quantize(values) -> np.ndarray:
    """Round coordinates to 12 significant decimal digits.

    The rounded values are the canonical keys for support-point equality.
    Rounding is monotone, so canonical sorting agrees with raw ordering.
    """
    x = np.asarray(values, dtype=float)
    out = x.copy()
    nz = x != 0.0
    if np.any(nz):
        mag = np.floor(np.log10(np.abs(x[nz])))
        np.clip(mag, -250.0, 250.0, out=mag)
        scale = np.power(10.0, (SIGNIFICANT_DIGITS - 1) - mag)
        out[nz] = np.round(x[nz] * scale) / scale
    return out + 0.0  # fold -0.0 into +0.0


def _key_groups(points):
    """Sort rows by their quantized keys; the one test of support-point identity.

    Returns ``order``, the lexicographic order of the (N, m) rows by key, and
    ``fresh``, true at each position of that order where a new key starts.
    """
    keys = quantize(points)
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    fresh = np.ones(keys.shape[0], dtype=bool)
    if keys.shape[0] > 1:
        fresh[1:] = np.any(keys[1:] != keys[:-1], axis=1)
    return order, fresh


def _canonical_support(points, weights):
    """Merge duplicate (quantized) points and sort lexicographically.

    Returns (points, weights) with the representative coordinates taken from
    the first occurrence inside each merge group, so exact lattice values are
    preserved bit for bit.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2:
        raise ValueError("points must be a (N, m) array")
    w = np.asarray(weights, dtype=float).reshape(-1)
    if pts.shape[0] != w.shape[0]:
        raise ValueError("points and weights must have the same length")
    if pts.shape[0] == 0:
        raise ValueError("a measure needs at least one support point")
    if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(w))):
        raise ValueError("points and weights must be finite")

    order, fresh = _key_groups(pts)
    starts = np.flatnonzero(fresh)
    merged_pts = np.ascontiguousarray(pts[order][starts])
    merged_w = np.add.reduceat(w[order], starts)
    merged_pts.setflags(write=False)
    merged_w.setflags(write=False)
    return merged_pts, merged_w


@dataclass(frozen=True, eq=False)
class SignedFiniteMeasure:
    """Signed measure with finite support on R^m (weights of any sign).

    ``points`` is (N, m), ``weights`` is (N,). The support is canonicalized on
    construction (see module docstring).
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts, w = _canonical_support(self.points, self.weights)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))


@dataclass(frozen=True, eq=False)
class FiniteMeasure(SignedFiniteMeasure):
    """Non-negative measure with finite support on R^m: a signed measure with all weights >= 0."""

    # canonicalizes itself rather than through super(): perfbench/tracer.py times
    # each class's __post_init__ as one canonicalization, which must not nest
    def __post_init__(self):
        if np.any(np.asarray(self.weights, dtype=float) < 0.0):
            raise ValueError("FiniteMeasure weights must be non-negative")
        pts, w = _canonical_support(self.points, self.weights)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True, eq=False)
class GaussianReference:
    """Standard normal distribution on R^d, evaluated analytically.

    Mean zero, identity covariance by definition. Used as the weak limit of
    standardized push-forwards; it is never discretized, all evaluations go
    through closed forms.
    """

    dim: int

    def __post_init__(self):
        if int(self.dim) < 1:
            raise ValueError("dimension must be a positive integer")
        object.__setattr__(self, "dim", int(self.dim))

    @staticmethod
    def cdf(x):
        """Standard normal CDF, per axis (same for every marginal)."""
        return ndtr(x)

    def linear_l2_norm(self, coeff) -> float:
        """L2 norm of the linear function y -> coeff . y, i.e. ||coeff||."""
        c = np.asarray(coeff, dtype=float).reshape(-1)
        if c.shape[0] != self.dim:
            raise ValueError("coefficient dimension mismatch")
        return float(np.linalg.norm(c))

    def linear_abs_moment(self, coeff) -> float:
        """First absolute moment of y -> coeff . y, i.e. ||coeff|| sqrt(2/pi)."""
        return self.linear_l2_norm(coeff) * math.sqrt(2.0 / math.pi)


@dataclass(frozen=True, eq=False)
class TangentPair:
    """Statistical tangent vector: base distribution plus a signed direction.

    ``direction`` must be supported inside ``base`` and have total mass zero
    (within ``TANGENT_MASS_TOL``); its density with respect to ``base`` is
    the directional score.
    """

    base: FiniteMeasure
    direction: SignedFiniteMeasure

    def __post_init__(self):
        s = float(np.sum(self.direction.weights))
        if abs(s) > TANGENT_MASS_TOL:
            raise ValueError(f"direction weights must sum to 0, got {s!r}")
        if not np.array_equal(self.direction.points, self.base.points):
            if np.any(support_index(self.base, self.direction.points) < 0):
                raise ValueError("direction support must lie inside base support")


def push_forward(measure, point_map: PointMap):
    """Image measure under a point map phi: R^m -> R^k.

    Image points phi(x) that coincide after quantization have their weights
    summed; total mass is preserved. Works for both signedness classes and
    returns the same class as the input. Objects exposing ``apply_batch``
    (affine maps) are applied vectorized, anything else is called per point
    with a 1-D coordinate array.
    """
    batch = getattr(point_map, "apply_batch", None)
    if batch is not None:
        images = np.asarray(batch(measure.points), dtype=float)
    else:
        rows = [np.atleast_1d(np.asarray(point_map(p), dtype=float)) for p in measure.points]
        images = np.vstack(rows)
    if images.ndim == 1:
        images = images.reshape(-1, 1)
    return type(measure)(images, measure.weights)


def moments(measure):
    """Mean vector and covariance matrix of a probability measure.

    ``mean = sum w_i x_i`` and ``cov = sum w_i (x_i - mean)(x_i - mean)^T``;
    the weights are used as given, so the probability normalization is the
    caller's responsibility.
    """
    mean, c = centered(measure.weights, measure.points)
    return mean, weighted_cov(measure.weights, c)


def centered(weights, points):
    """Weighted mean ``weights @ points`` of the rows, and the rows minus it."""
    mean = weights @ points
    return mean, points - mean


def weighted_cov(weights, c) -> np.ndarray:
    """Symmetrized ``sum_i w_i c_i c_i^T`` of centered rows ``c``."""
    cov = (weights[:, None] * c).T @ c
    return 0.5 * (cov + cov.T)


def support_index(base, points) -> np.ndarray:
    """Row of ``base`` holding each of ``points`` (same quantized key), or -1.

    ``base`` is a measure, so its keys are distinct. Points of another
    dimension than ``base`` are outside its support.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != base.dim:
        return np.full(pts.shape[0], -1)
    order, fresh = _key_groups(np.concatenate([base.points, pts]))
    group = np.cumsum(fresh) - 1
    base_row = np.full(group[-1] + 1, -1)
    in_base = order < base.size
    base_row[group[in_base]] = order[in_base]
    rows = np.empty(order.shape[0], dtype=int)
    rows[order] = base_row[group]
    return rows[base.size :]


def radon_nikodym(direction, base: FiniteMeasure) -> np.ndarray:
    """Density dA/dP of a signed measure A with respect to P, per point of P.

    Returns values aligned with ``base.points`` (0 where A carries no mass).
    Raises :class:`AbsoluteContinuityError` if A has mass at a point where P
    has none.
    """
    if np.array_equal(direction.points, base.points):
        num = np.asarray(direction.weights, dtype=float)
    else:
        rows = support_index(base, direction.points)
        inside = rows >= 0
        if np.any(direction.weights[~inside] != 0.0):
            raise AbsoluteContinuityError("signed measure has mass outside the base support")
        num = np.zeros(base.size)
        num[rows[inside]] = direction.weights[inside]
    positive = base.weights > 0.0
    if np.any(~positive & (num != 0.0)):
        raise AbsoluteContinuityError("signed measure has mass where the base weight is zero")
    out = np.zeros(base.size)
    out[positive] = num[positive] / base.weights[positive]
    return out


def almost_equal(m1, m2, tol: float = 1e-12) -> bool:
    """True when two measures share canonical support and weights within tol."""
    if m1.size != m2.size or not np.array_equal(support_index(m1, m2.points), np.arange(m1.size)):
        return False
    return bool(np.max(np.abs(m1.weights - m2.weights)) <= tol)
