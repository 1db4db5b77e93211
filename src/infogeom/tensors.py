"""Higher-order symmetric tensors on exponential families.

The order-k statistic tensor integrates k directional scores against the
model distribution (the order-2 case is the Fisher quadratic form, order 3
the third mixed cumulant of the statistic). Alongside it live the scaling
probe for the n^{k/2} law on derived families, the symmetrized powers of the
Fisher form with their exact quartic polarisation, and the parity check that
forces every odd-order member of the c (g^F)^{k/2} family to vanish.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .derived import SUPPORT_CAP, nef_tangent
from .errors import DomainError
from .expfam import (
    ExpFamily,
    TangentCoord,
    cov_statistic,
    density_weights,
    log_partition_shift,
)
from .measures import centered, radon_nikodym

FD3_STEP = 1e-3


def amari_chentsov(family: ExpFamily, theta, dirs: Sequence) -> float:
    """Order-k score-product integral: integral of prod_j (a_j . (T - tau)) dP_theta."""
    dirs = [np.asarray(a, dtype=float).reshape(-1) for a in dirs]
    if len(dirs) < 2:
        raise ValueError("need at least two directions")
    dw = density_weights(family, theta)
    c = centered(dw, family.stat_values)[1]
    prod = np.ones(family.base.size)
    for a in dirs:
        prod *= c @ a
    return float(np.sum(dw * prod))


@dataclass(frozen=True, eq=False)
class SymmetricTensorField:
    """Order-k tensor field over a family: (theta, k directions) -> real."""

    name: str
    family: ExpFamily
    order: int
    eval_fn: Callable[[np.ndarray, tuple], float]

    def eval(self, theta, dirs: Sequence) -> float:
        dirs = tuple(np.asarray(a, dtype=float).reshape(-1) for a in dirs)
        if len(dirs) != self.order:
            raise ValueError(f"tensor of order {self.order} takes {self.order} directions")
        return float(self.eval_fn(np.asarray(theta, dtype=float).reshape(-1), dirs))


def amari_chentsov_field(family: ExpFamily, order: int) -> SymmetricTensorField:
    if int(order) < 2:
        raise ValueError("order must be at least 2")
    return SymmetricTensorField(
        name=f"score-product-k{order}[{family.name}]",
        family=family,
        order=int(order),
        eval_fn=lambda theta, dirs: amari_chentsov(family, theta, dirs),
    )


def _pairings(indices: tuple):
    if not indices:
        yield ()
        return
    first, rest = indices[0], indices[1:]
    for i in range(len(rest)):
        for tail in _pairings(rest[:i] + rest[i + 1 :]):
            yield ((first, rest[i]),) + tail


def power_tensor_field(family: ExpFamily, order: int, c: float) -> SymmetricTensorField:
    """The candidate family c (g^F)^{k/2}.

    Even orders give the symmetrized tensor power (sum over perfect pairings
    of Fisher quadratic forms). Odd orders are defined on the diagonal only,
    as c g^F(u, u)^{k/2}; the parity check shows such a member can satisfy
    multilinearity only with c = 0.
    """
    k = int(order)
    if k < 2:
        raise ValueError("order must be at least 2")
    c = float(c)

    if k % 2 == 0:
        matchings = tuple(_pairings(tuple(range(k))))

        def even_eval(theta, dirs):
            sigma = cov_statistic(family, theta)
            forms = {}

            def g(i, j):
                key = (min(i, j), max(i, j))
                if key not in forms:
                    forms[key] = float(dirs[key[0]] @ sigma @ dirs[key[1]])
                return forms[key]

            return c * sum(
                float(np.prod([g(i, j) for i, j in matching])) for matching in matchings
            )

        eval_fn = even_eval
    else:

        def odd_eval(theta, dirs):
            for a in dirs[1:]:
                if not np.array_equal(a, dirs[0]):
                    raise ValueError("odd-order power tensors are defined on the diagonal only")
            form = float(dirs[0] @ cov_statistic(family, theta) @ dirs[0])
            return c * form ** (k / 2.0)

        eval_fn = odd_eval

    return SymmetricTensorField(
        name=f"{c}*fisher^{k}/2[{family.name}]",
        family=family,
        order=k,
        eval_fn=eval_fn,
    )


@dataclass(frozen=True, eq=False)
class ScalingCheck:
    """Scaling probe of the order-k derived-family tensor against n^{k/2}."""

    order: int
    n: int
    lhs: float
    rhs: float
    residual: float
    measured_exponent: float


def higher_scaling_check(
    family: ExpFamily,
    theta,
    a,
    n: int,
    order: int,
    support_cap: int = SUPPORT_CAP,
) -> ScalingCheck:
    """Compare the order-k diagonal integral on Q_n with n^{k/2} times Q_1's.

    Both sides are integral (dA_n/dQ_n)^k dQ_n computed directly on the
    derived family. The residual vanishes for k = 2 (and for tensors
    proportional to a power of the Fisher form); for the score-product
    tensors at k > 2 the measured exponent log_n(lhs / rhs) is reported
    instead of asserting the k/2 law.
    """
    k = int(order)
    n = int(n)
    if k < 2 or n < 1:
        raise ValueError("need order >= 2 and n >= 1")
    u = TangentCoord(np.asarray(theta, dtype=float).reshape(-1), a)

    def diagonal_integral(m: int) -> float:
        pair = nef_tangent(family, u, m, support_cap)
        score = radon_nikodym(pair.direction, pair.base)
        return float(np.sum(pair.base.weights * score**k))

    lhs = diagonal_integral(n)
    rhs = diagonal_integral(1)
    residual = abs(lhs - float(n) ** (k / 2.0) * rhs)
    if n > 1 and rhs != 0.0 and lhs != 0.0 and (lhs / rhs) > 0.0:
        exponent = float(np.log(lhs / rhs) / np.log(n))
    else:
        exponent = float("nan")
    return ScalingCheck(order=k, n=n, lhs=lhs, rhs=rhs, residual=residual, measured_exponent=exponent)


def polarize_symmetric4(diagonal: Callable[[np.ndarray], float], dirs: Sequence) -> float:
    """Recover a symmetric quartic tensor from its diagonal D(x) = G(x,x,x,x).

    Fourth-order finite differencing over subset sums (inclusion-exclusion):
    G(a,b,c,e) = (1/24) sum_{S} (-1)^{4-|S|} D(sum_{s in S} s).
    """
    dirs = [np.asarray(a, dtype=float).reshape(-1) for a in dirs]
    if len(dirs) != 4:
        raise ValueError("quartic polarisation takes exactly four directions")
    total = 0.0
    for r in range(1, 5):
        sign = (-1.0) ** (4 - r)
        for subset in itertools.combinations(range(4), r):
            total += sign * float(diagonal(sum(dirs[i] for i in subset)))
    return total / 24.0


def odd_k_vanishing_check(tensor: SymmetricTensorField, theta, a) -> float:
    """Parity obstruction at odd order: deviation of the tensor from zero.

    An odd-order tensor whose diagonal is a function of the Fisher quadratic
    form is even in the direction, while multilinearity forces it to be odd;
    the only consistent value is zero. Returns the larger of the even/odd
    clash |eval(a...) + eval(-a...)| / 2 and the plain deviation |eval(a...)|.
    """
    if tensor.order % 2 == 0:
        raise ValueError("this check applies to odd orders only")
    a = np.asarray(a, dtype=float).reshape(-1)
    plus = tensor.eval(theta, (a,) * tensor.order)
    minus = tensor.eval(theta, (-a,) * tensor.order)
    return max(abs(plus + minus) / 2.0, abs(plus))


def fd_third_derivative(family: ExpFamily, theta, a, step: float = FD3_STEP) -> float:
    """Directional third derivative of the log-partition by central differences."""
    t = np.asarray(theta, dtype=float).reshape(-1)
    a = np.asarray(a, dtype=float).reshape(-1)
    h = float(step)
    margin = 2.0 * h * float(np.max(np.abs(a), initial=0.0))
    if not family.theta_domain.contains(t, margin=margin):
        raise DomainError("third-derivative stencil leaves the domain")

    def psi(s: float) -> float:
        # psi(t + s a) up to the shared psi(t) offset, which cancels below
        return log_partition_shift(family, t, s * a)

    return (psi(2 * h) - 2.0 * psi(h) + 2.0 * psi(-h) - psi(-2 * h)) / (2.0 * h**3)
