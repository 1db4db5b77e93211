"""Higher-order score-product tensors on exponential families.

The order-k statistic tensor integrates k directional scores against the
model distribution (the order-2 case is the Fisher quadratic form, order 3
the third mixed cumulant of the statistic). Alongside it live the
central-difference third derivative of the log-partition, an independent
route to the order-3 value, and the scaling probe that compares the order-k
diagonal integral on derived families with the n^{k/2} law.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .derived import SUPPORT_CAP, _extension_size, nef_tangent
from .errors import DomainError
from .expfam import ExpFamily, TangentCoord, density_weights, log_partition_shift
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


def higher_scaling_check(
    family: ExpFamily,
    theta,
    a,
    n: int,
    order: int,
    support_cap: int = SUPPORT_CAP,
) -> tuple:
    """Compare the order-k diagonal integral on Q_n with n^{k/2} times Q_1's, as (residual, measured_exponent).

    Both sides are integral (dA_n/dQ_n)^k dQ_n computed directly on the
    derived family, lhs on Q_n and rhs on Q_1; the residual is
    |lhs - n^{k/2} rhs|. It vanishes for k = 2 (and for tensors
    proportional to a power of the Fisher form); for the score-product
    tensors at k > 2 the measured exponent log_n(lhs / rhs) is reported
    instead of asserting the k/2 law (NaN at n = 1 or where the ratio is
    not positive).
    """
    k = int(order)
    n = _extension_size(n)
    if k < 2:
        raise ValueError("need order >= 2")
    u = TangentCoord(np.asarray(theta, dtype=float).reshape(-1), a)

    def diagonal_integral(m: int) -> float:
        pair = nef_tangent(family, u, m, support_cap)
        score = radon_nikodym(pair.direction, pair.base)
        score **= k  # in place, as score**k computes it; the product with the weights commutes
        score *= pair.base.weights
        return float(np.sum(score))

    lhs = diagonal_integral(n)
    rhs = diagonal_integral(1)
    residual = abs(lhs - float(n) ** (k / 2.0) * rhs)
    if n > 1 and rhs != 0.0 and lhs != 0.0 and (lhs / rhs) > 0.0:
        exponent = float(np.log(lhs / rhs) / np.log(n))
    else:
        exponent = float("nan")
    return residual, exponent


def fd_third_derivative(family: ExpFamily, theta, a) -> float:
    """Directional third derivative of the log-partition by central differences of step ``FD3_STEP``."""
    t = np.asarray(theta, dtype=float).reshape(-1)
    a = np.asarray(a, dtype=float).reshape(-1)
    h = FD3_STEP
    margin = 2.0 * h * float(np.max(np.abs(a), initial=0.0))
    if not family.theta_domain.contains(t, margin=margin):
        raise DomainError("third-derivative stencil leaves the domain")

    def psi(s: float) -> float:
        # psi(t + s a) up to the shared psi(t) offset, which cancels below
        return log_partition_shift(family, t, s * a)

    return (psi(2 * h) - 2.0 * psi(h) + 2.0 * psi(-h) - psi(-2 * h)) / (2.0 * h**3)
