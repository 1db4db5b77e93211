"""IID extensions and natural exponential families derived from a base family.

``Q_n`` is the distribution of the mean of n IID draws of the statistic; it
is computed by exact pairwise convolution of ``Q_1`` with quantized support
merging, followed by a 1/n coordinate scaling. ``measures.MergePlan.of_sums``
plans each sum step; it merges a sum of two integer supports (the lattice
families) by integer cells, bitwise as the quantized route would. Product
spaces X^n are never materialized here (a small index-product helper is
provided for n <= 3 cross-checks).
Convolution growth is family dependent, so an explicit support cap turns
blowup into :class:`SupportBlowupError` instead of a silent approximation.

``nef_distribution`` keeps one store of ``Q_n`` builds, for the most recent
(family, support cap). The support of ``Q_n`` does not depend on theta, only
its weights do, so the store keeps a merge plan (``measures.MergePlan``) per
build step: each sum ``Q_1^{*a} * Q_1^{*b}`` and each 1/n rescale is sorted
once, at the first theta, and every other theta only sums its weights
through the plan, forming the products of the two factors' weights a
block at a time (``MergePlan.merge_products``), never a weight per pair.
A 1/n rescale of 1-D points keeps them in order, so its plan holds no
sort order (``MergePlan.build``). For the most recent theta the store keeps
every finished ``Q_n`` and the sums ``Q_1^{*m}`` of m a power of two, which
every doubling needs, as measures whose plans keep their points. Any other
sum is never a measure: its weights are replayed through its plan wherever
they are needed, and checked as a measure checks its own. Once its ``Q_n``
has its 1/n plan, that sum's plan drops its canonical points, which only a
later cold plan of a sum with it as a factor reads (n = 7 = 3 + 4 after
n = 3); that one makes them again from the factors' points as
``MergePlan.of_sums`` made them (``MergePlan.sum_points``), bit for bit. A
request for another family or cap drops the store, and one at another theta
its sums and means, before anything is built. A plan holds, per input
point or pair, an int32 position (a sort of points), a uint16 row cell on
the row-placement route of the lattice families, a uint16 rank in its
bucket on the bucket route of the quadrature families (int32 when a bucket
holds more than 65,536 pairs, or when the plan is one bucket), and none for
a 1/n rescale of 1-D points, which keeps only the positions it joins to the
point before (97 of gauss Q_3's 1.35M); its canonical points, which the
measures built on it share, take 8 bytes a coordinate, and its group starts
4 bytes a point, or 2 on the bucket route, where a group's start is counted
in its bucket and takes the ranks' type. ``Q_1^{*m}`` is
always composed from the low bits of m up, in the order of a cold
binary-exponentiation build, and a plan replays the float work of the sort
it recorded, so a reused or replayed result is bitwise identical to a fresh
one; measures are immutable, so the function stays observably pure.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

import numpy as np

from .errors import RankError, SupportBlowupError
from .expfam import RANK_EPS, ExpFamily, TangentCoord, cov_statistic, density_weights, mean_statistic
from .measures import FiniteMeasure, MergePlan, SignedFiniteMeasure, TangentPair, checked_weights

SUPPORT_CAP = 2_000_000


@dataclass(frozen=True, eq=False)
class AffineMap:
    """Invertible affine transformation y -> M y + c of R^d."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float, order="C")  # copies: the caller's arrays stay writeable
        c = np.array(self.offset, dtype=float).reshape(-1)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != c.shape[0]:
            raise ValueError("matrix must be square and match the offset dimension")
        if abs(np.linalg.det(m)) <= 1e-12:
            raise RankError("affine map must be invertible")
        m.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "offset", c)

    def __call__(self, y):
        return np.asarray(y, dtype=float) @ self.matrix.T + self.offset

    def inverse(self) -> "AffineMap":
        inv = np.linalg.inv(self.matrix)
        return AffineMap(inv, -inv @ self.offset)

    @staticmethod
    def identity(dim: int) -> "AffineMap":
        return AffineMap(np.eye(dim), np.zeros(dim))


def _checked_eigh(matrix):
    """Eigenvectors and the square roots of the eigenvalues; RankError below ``RANK_EPS``."""
    vals, vecs = np.linalg.eigh(np.asarray(matrix, dtype=float))
    if float(vals.min()) < RANK_EPS:
        raise RankError("matrix is numerically singular")
    return np.sqrt(np.clip(vals, RANK_EPS, None)), vecs


def sym_sqrt(matrix) -> np.ndarray:
    """Symmetric square root via eigendecomposition; RankError below ``RANK_EPS``."""
    roots, vecs = _checked_eigh(matrix)
    return (vecs * roots) @ vecs.T


def sym_inv_sqrt(matrix) -> np.ndarray:
    """Symmetric inverse square root; eigenvalues below ``RANK_EPS`` raise RankError."""
    roots, vecs = _checked_eigh(matrix)
    return (vecs / roots) @ vecs.T


def _extension_size(n) -> int:
    """n as an int; ValueError unless it is a positive integer (2.0 is, 2.7 is not)."""
    size = int(n)
    if size < 1 or size != n:
        raise ValueError("n must be a positive integer")
    return size


def _sum_plan(a: np.ndarray, b: np.ndarray, support_cap: int) -> MergePlan:
    """Merge plan of the pairwise sums a_i + b_j of two point arrays; SupportBlowupError past the cap."""
    pairs = a.shape[0] * b.shape[0]
    if pairs > 4 * support_cap:
        raise SupportBlowupError(
            f"convolution needs {pairs} point pairs, above the working cap {4 * support_cap}"
        )
    plan = MergePlan.of_sums(a, b)
    support = plan.points.shape[0]
    if support > support_cap:
        raise SupportBlowupError(f"convolution support has {support} points, above the cap {support_cap}")
    return plan


def _convolved(plan: MergePlan, p: np.ndarray, q: np.ndarray) -> FiniteMeasure:
    """The convolution of measures with weights p and q, through the merge plan of their point sums."""
    return FiniteMeasure(MergePlan.canonical(plan.points), plan.merge_products(p, q))


def convolve(p: FiniteMeasure, q: FiniteMeasure, support_cap: int = SUPPORT_CAP) -> FiniteMeasure:
    """Distribution of the sum of independent draws from p and q (exact)."""
    return _convolved(_sum_plan(p.points, q.points, support_cap), p.weights, q.weights)


def nef_base(family: ExpFamily, theta) -> FiniteMeasure:
    """Q_1, the push-forward of P_theta under the statistic."""
    return FiniteMeasure(family.stat_values, density_weights(family, theta))


def _steps(m: int) -> tuple:
    """Factors (a, b) of Q_1^{*m}: a doubling 2^j = 2^(j-1) + 2^(j-1), else m's low bits plus its top bit 2^j."""
    top = 1 << (m.bit_length() - 1)
    return (top // 2, top // 2) if m == top else (m - top, top)


class _QnStore:
    """Q_n builds of one (family, support cap): merge plans for every theta, power-of-two sums and means for one."""

    def __init__(self, family: ExpFamily, support_cap: int):
        self.family = family
        self.support_cap = support_cap
        self.plans = {}  # (a, b): the sum of Q_1^{*a} and Q_1^{*b}; n: the 1/n rescale
        self.theta_key = None  # the theta that sums and means belong to
        self.sums = {}  # m, a power of two: Q_1^{*m} in the sum chart
        self.means = {}  # n: the finished Q_n

    def _weights(self, m: int) -> np.ndarray:
        """Weights of Q_1^{*m}: a kept sum's, else replayed through its plan (made at the first theta)."""
        total = self.sums.get(m)
        if total is not None:
            return total.weights
        a, b = _steps(m)
        p, q = self._weights(a), self._weights(b)
        plan = self.plans.get((a, b))
        if plan is None:
            plan = self.plans[(a, b)] = _sum_plan(self._points(a), self._points(b), self.support_cap)
        if a != b:  # not kept, so not a measure: its plan may keep no points
            return checked_weights(plan.merge_products(p, q))
        self.sums[m] = _convolved(plan, p, q)  # every doubling needs it
        return self.sums[m].weights

    def _points(self, m: int) -> np.ndarray:
        """Canonical points of Q_1^{*m}, once planned: its plan's, or made again from its factors' points."""
        if m == 1:
            return self.sums[1].points
        a, b = _steps(m)
        plan = self.plans[(a, b)]
        return plan.sum_points(self._points(a), self._points(b)) if plan.points is None else plan.points

    def mean(self, n: int) -> FiniteMeasure:
        """Q_n: the sum of n draws rescaled by 1/n."""
        qn = self.means.get(n)
        if qn is None:
            weights = self._weights(n)
            plan = self.plans.get(n)
            if plan is None:
                points = self._points(n) / n
                a, b = _steps(n)
                if a != b:  # a sum not kept: only a later cold plan reads its points, and makes them again
                    self.plans[(a, b)] = replace(self.plans[(a, b)], points=None)  # freed before Q_n is planned
                plan = self.plans[n] = MergePlan.build(points)
                del points  # the plan keeps its canonical points only: freed before the measure is built
            qn = self.means[n] = FiniteMeasure(plan, weights)
        return qn


_store = None  # the one live _QnStore, read and replaced under _store_lock
_store_lock = threading.Lock()


def nef_distribution(family: ExpFamily, theta, n: int, support_cap: int = SUPPORT_CAP) -> FiniteMeasure:
    """Q_n, the distribution of the mean of n IID draws from Q_1.

    The n-fold sum is built by exact pairwise convolutions (organized as
    binary exponentiation, which composes the same pairwise convolutions in
    a different order) and the support is then scaled by 1/n. Merge plans
    are shared per (family, support_cap) and builds per (family, theta,
    support_cap); see the module docstring.
    """
    global _store
    n = _extension_size(n)
    theta_key = np.asarray(theta, dtype=float).reshape(-1).tobytes()
    with _store_lock:
        if _store is None or _store.family is not family or _store.support_cap != support_cap:
            _store = None  # release the previous family's plans and builds before building
            _store = _QnStore(family, support_cap)
        if _store.theta_key != theta_key:
            _store.theta_key = _store.sums = _store.means = None  # release the previous theta's builds first
            q1 = nef_base(family, theta)
            _store.theta_key, _store.sums, _store.means = theta_key, {1: q1}, {1: q1}
        return _store.mean(n)


def _tangent_weights(qn: FiniteMeasure, tau: np.ndarray, a: np.ndarray, n: int) -> np.ndarray:
    """n (a . (y - tau)) w_y per point y of Q_n, multiplied in place and frozen."""
    weights = (qn.points - tau) @ a
    weights *= n
    weights *= qn.weights
    weights.setflags(write=False)  # so the measure built on them keeps them without a copy
    return weights


def nef_tangent(family: ExpFamily, u: TangentCoord, n: int, support_cap: int = SUPPORT_CAP) -> TangentPair:
    """Tangent pair (Q_n, A_n) with dA_n(y) = n (a . (y - tau)) dQ_n(y)."""
    qn = nef_distribution(family, u.theta, n, support_cap)
    tau = mean_statistic(family, u.theta)
    direction = SignedFiniteMeasure(qn.support, _tangent_weights(qn, tau, u.a, int(n)))
    return TangentPair(qn, direction)


def standardizing_map(family: ExpFamily, theta, n: int) -> AffineMap:
    """Affine map L(y) = sqrt(n) Sigma^{-1/2} (y - tau) standardizing Q_n."""
    n = _extension_size(n)
    tau = mean_statistic(family, theta)
    m = np.sqrt(float(n)) * sym_inv_sqrt(cov_statistic(family, theta))
    return AffineMap(m, -m @ tau)


def iid_fisher(family: ExpFamily, theta, n: int) -> np.ndarray:
    """Fisher matrix of the n-fold IID extension in natural coordinates: n Sigma."""
    n = _extension_size(n)
    return n * cov_statistic(family, theta)


def product_index(size: int, n: int) -> np.ndarray:
    """All index tuples of {0..size-1}^n as a (size^n, n) array, last index fastest."""
    grids = np.meshgrid(*([np.arange(size)] * n), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def iid_product(p: FiniteMeasure, n: int, max_points: int = SUPPORT_CAP) -> FiniteMeasure:
    """Product measure P^n on R^{n m}, materialized (intended for n <= 3)."""
    n = _extension_size(n)
    if p.size ** n > max_points:
        raise SupportBlowupError(f"product support {p.size}^{n} exceeds {max_points}")
    idx = product_index(p.size, n)
    pts = p.points[idx].reshape(idx.shape[0], n * p.dim)
    wts = p.weights[idx].prod(axis=1)
    return FiniteMeasure(pts, wts)
