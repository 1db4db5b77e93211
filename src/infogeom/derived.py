"""IID extensions and natural exponential families derived from a base family.

``Q_n`` is the distribution of the mean of n IID draws of the statistic; it
is computed by exact pairwise convolution of ``Q_1`` with quantized support
merging, followed by a 1/n coordinate scaling. Product spaces X^n are never
materialized here (a small index-product helper is provided for n <= 3
cross-checks). Convolution growth is family dependent, so an explicit
support cap turns blowup into :class:`SupportBlowupError` instead of a
silent approximation.

``nef_distribution`` memoizes: the doubling blocks ``Q_1^{*2^j}`` and every
finished ``Q_n`` of the most recent (family, theta, support cap) are kept
and reused, and a request for another key releases them before building
anything. Each ``Q_n`` is composed in the same convolution order as a cold
build, so a reused result is bitwise identical to a fresh one; measures are
immutable, so the function stays observably pure.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .errors import RankError, SupportBlowupError
from .expfam import ExpFamily, TangentCoord, cov_statistic, density_measure, density_weights, mean_statistic
from .measures import FiniteMeasure, SignedFiniteMeasure, TangentPair, push_forward

SUPPORT_CAP = 2_000_000
RANK_EPS = 1e-10


@dataclass(frozen=True, eq=False)
class AffineMap:
    """Invertible affine transformation y -> M y + c of R^d."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        c = np.asarray(self.offset, dtype=float).reshape(-1)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != c.shape[0]:
            raise ValueError("matrix must be square and match the offset dimension")
        if abs(np.linalg.det(m)) <= 1e-12:
            raise RankError("affine map must be invertible")
        m = np.ascontiguousarray(m)
        m.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "offset", c)

    @property
    def dim(self) -> int:
        return self.offset.shape[0]

    def apply(self, y):
        arr = np.asarray(y, dtype=float)
        return arr @ self.matrix.T + self.offset

    # vectorized hook used by measures.push_forward
    apply_batch = apply
    __call__ = apply

    def inverse(self) -> "AffineMap":
        inv = np.linalg.inv(self.matrix)
        return AffineMap(inv, -inv @ self.offset)

    @staticmethod
    def identity(dim: int) -> "AffineMap":
        return AffineMap(np.eye(dim), np.zeros(dim))


def _checked_eigh(matrix, floor: float):
    """Eigenvectors and the square roots of the eigenvalues; RankError below floor."""
    vals, vecs = np.linalg.eigh(np.asarray(matrix, dtype=float))
    if float(vals.min()) < floor:
        raise RankError("matrix is numerically singular")
    return np.sqrt(np.clip(vals, floor, None)), vecs


def sym_sqrt(matrix, floor: float = RANK_EPS) -> np.ndarray:
    """Symmetric square root via eigendecomposition; RankError below floor."""
    roots, vecs = _checked_eigh(matrix, floor)
    return (vecs * roots) @ vecs.T


def sym_inv_sqrt(matrix, floor: float = RANK_EPS) -> np.ndarray:
    """Symmetric inverse square root; eigenvalues below floor raise RankError."""
    roots, vecs = _checked_eigh(matrix, floor)
    return (vecs / roots) @ vecs.T


def _extension_size(n) -> int:
    """n as an int; ValueError unless it is a positive integer."""
    n = int(n)
    if n < 1:
        raise ValueError("n must be a positive integer")
    return n


def convolve(p: FiniteMeasure, q: FiniteMeasure, support_cap: int = SUPPORT_CAP) -> FiniteMeasure:
    """Distribution of the sum of independent draws from p and q (exact)."""
    pairs = p.size * q.size
    if pairs > 4 * support_cap:
        raise SupportBlowupError(
            f"convolution needs {pairs} point pairs, above the working cap {4 * support_cap}"
        )
    pts = (p.points[:, None, :] + q.points[None, :, :]).reshape(pairs, p.dim)
    wts = np.outer(p.weights, q.weights).reshape(pairs)
    out = FiniteMeasure(pts, wts)
    if out.size > support_cap:
        raise SupportBlowupError(
            f"convolution support has {out.size} points, above the cap {support_cap}"
        )
    return out


def nef_base(family: ExpFamily, theta) -> FiniteMeasure:
    """Q_1, the push-forward of P_theta under the statistic."""
    return FiniteMeasure(family.stat_values, density_weights(family, theta))


class _QnLadder:
    """Q_n builds of one (family, theta, support cap): doubling blocks and results."""

    def __init__(self, family: ExpFamily, theta, theta_key: bytes, support_cap: int):
        self.family = family
        self.theta_key = theta_key
        self.support_cap = support_cap
        q1 = nef_base(family, theta)
        self.blocks = [q1]  # blocks[j] is Q_1^{*2^j}, grown on demand
        self.finished = {1: q1}

    def serves(self, family: ExpFamily, theta_key: bytes, support_cap: int) -> bool:
        return self.family is family and self.theta_key == theta_key and self.support_cap == support_cap

    def _block(self, j: int) -> FiniteMeasure:
        while len(self.blocks) <= j:
            last = self.blocks[-1]
            self.blocks.append(convolve(last, last, self.support_cap))
        return self.blocks[j]

    def get(self, n: int) -> FiniteMeasure:
        qn = self.finished.get(n)
        if qn is None:
            total = None
            j, k = 0, n
            while k:
                if k & 1:
                    block = self._block(j)
                    total = block if total is None else convolve(total, block, self.support_cap)
                j, k = j + 1, k >> 1
            qn = self.finished[n] = FiniteMeasure(total.points / n, total.weights)
        return qn


_ladder = None  # the one live _QnLadder, read and replaced under _ladder_lock
_ladder_lock = threading.Lock()


def nef_distribution(family: ExpFamily, theta, n: int, support_cap: int = SUPPORT_CAP) -> FiniteMeasure:
    """Q_n, the distribution of the mean of n IID draws from Q_1.

    The n-fold sum is built by exact pairwise convolutions (organized as
    binary exponentiation, which composes the same pairwise convolutions in
    a different order) and the support is then scaled by 1/n. Builds are
    shared per (family, theta, support_cap); see the module docstring.
    """
    global _ladder
    n = _extension_size(n)
    theta_key = np.asarray(theta, dtype=float).reshape(-1).tobytes()
    with _ladder_lock:
        if _ladder is None or not _ladder.serves(family, theta_key, support_cap):
            _ladder = None  # release the previous theta's builds before building
            _ladder = _QnLadder(family, theta, theta_key, support_cap)
        return _ladder.get(n)


def _tangent_weights(qn: FiniteMeasure, tau: np.ndarray, a: np.ndarray, n: int) -> np.ndarray:
    return n * ((qn.points - tau) @ a) * qn.weights


def nef_tangent(family: ExpFamily, u: TangentCoord, n: int, support_cap: int = SUPPORT_CAP) -> TangentPair:
    """Tangent pair (Q_n, A_n) with dA_n(y) = n (a . (y - tau)) dQ_n(y)."""
    qn = nef_distribution(family, u.theta, n, support_cap)
    tau = mean_statistic(family, u.theta)
    direction = SignedFiniteMeasure(qn.points, _tangent_weights(qn, tau, u.a, int(n)))
    return TangentPair(qn, direction)


def standardizing_map(family: ExpFamily, theta, n: int) -> AffineMap:
    """Affine map L(y) = sqrt(n) Sigma^{-1/2} (y - tau) standardizing Q_n."""
    n = _extension_size(n)
    tau = mean_statistic(family, theta)
    m = np.sqrt(float(n)) * sym_inv_sqrt(cov_statistic(family, theta))
    return AffineMap(m, -m @ tau)


def affine_pushforward_pair(affine: AffineMap, pair: TangentPair) -> TangentPair:
    """Push both components of a tangent pair through an invertible affine map."""
    return TangentPair(push_forward(pair.base, affine), push_forward(pair.direction, affine))


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


def iid_product_measure(family: ExpFamily, theta, n: int, max_points: int = SUPPORT_CAP) -> FiniteMeasure:
    """P_theta^n on X^n (cross-validation helper, n <= 3 in practice)."""
    return iid_product(density_measure(family, theta), n, max_points)
