"""Metric fields, norm functionals and the invariant form.

A metric field is a function theta -> SPD matrix over the admissible natural
parameters; a :class:`NormFunctional` acts on pairs (P, f P) where P is a
finite measure. ``eval`` takes f linear, f(y) = c . y, as its coefficient
vector c; any other f goes through ``eval_values`` as its values at the
support points of P. ``gauss_fn`` is the closed form of the functional on
the standard normal with linear f, the limit of the standardized
push-forwards.
Candidate functionals other than the Fisher one are first-class values so
the invariance suite can quantify over them. The invariant form integrates
the product of two Radon-Nikodym derivatives against their shared base, the
chart-free Fisher inner product of two tangent pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .expfam import ExpFamily, TangentCoord, cov_statistic, model_tangent, require_shared_base
from .measures import FiniteMeasure, TangentPair, radon_nikodym


@dataclass(frozen=True, eq=False)
class NormFunctional:
    """Norm-like functional H(P, f P) on base-measure/function pairs.

    ``finite_fn(weights, values)`` evaluates on finite supports;
    ``gauss_fn(coeff)`` is the closed form on the standard normal with
    linear f(y) = coeff . y.
    """

    finite_fn: Callable[[np.ndarray, np.ndarray], float]
    gauss_fn: Callable[[np.ndarray], float]

    def eval(self, base: FiniteMeasure, coeff) -> float:
        """Evaluate at f(y) = coeff . y, with ``coeff`` of the dimension of ``base``."""
        c = np.asarray(coeff, dtype=float).reshape(-1)
        if c.shape[0] != base.dim:
            raise ValueError(f"coefficient dimension {c.shape[0]} does not match support dimension {base.dim}")
        return float(self.finite_fn(base.weights, base.points @ c))

    def eval_values(self, base: FiniteMeasure, values) -> float:
        """Evaluate with precomputed per-point values (finite supports only)."""
        v = np.asarray(values, dtype=float).reshape(-1)
        if v.shape[0] != base.size:
            raise ValueError("values must align with the support")
        return float(self.finite_fn(base.weights, v))


# H(P, f) = sqrt(integral f^2 dP); equals ||c|| on standardized P with f = c . y
FISHER = NormFunctional(
    finite_fn=lambda w, v: math.sqrt(float(np.sum(w * v * v))),
    gauss_fn=lambda c: float(np.linalg.norm(c)),
)


def scaled_norm_functional(base: NormFunctional, alpha: float) -> NormFunctional:
    """alpha * H; global rescaling preserves all the invariance axioms."""
    a = float(alpha)
    if a <= 0.0:
        raise ValueError("scale must be positive")
    return NormFunctional(
        finite_fn=lambda w, v: a * base.finite_fn(w, v),
        gauss_fn=lambda c: a * base.gauss_fn(c),
    )


def l1_perturbed_norm_functional(eps: float = 0.1) -> NormFunctional:
    """Fisher norm plus eps * integral |f| dP: homogeneous but not IID-consistent.

    The demonstrator candidate: it satisfies absolute homogeneity yet its
    standardized-pushforward values drift with n, which the uniqueness
    residual detects.
    """
    e = float(eps)
    return NormFunctional(
        finite_fn=lambda w, v: FISHER.finite_fn(w, v) + e * float(np.sum(w * np.abs(v))),
        gauss_fn=lambda c: float(np.linalg.norm(c)) * (1.0 + e * math.sqrt(2.0 / math.pi)),
    )


def fisher_metric_field(family: ExpFamily) -> Callable:
    """The Fisher field: the statistic covariance (Fisher route A) at each theta."""
    return lambda t: cov_statistic(family, t)


def scaled_metric_field(field: Callable, c: float) -> Callable:
    c = float(c)
    if c <= 0.0:
        raise ValueError("scale must be positive")
    return lambda t: c * field(t)


def sinusoidal_fisher_field(family: ExpFamily) -> Callable:
    """(1 + 0.2 sin theta_1) times the Fisher field: smooth, SPD, not invariant."""
    return lambda t: (1.0 + 0.2 * math.sin(float(t[0]))) * cov_statistic(family, t)


def metric_eval(field: Callable, u: TangentCoord, v: TangentCoord) -> float:
    """Bilinear value a^T g(theta) b for tangent vectors at the same theta, with g = field."""
    require_shared_base(u, v)
    return float(u.a @ field(u.theta) @ v.a)


def invariant_form(pair_u: TangentPair, pair_v: TangentPair) -> float:
    """Invariant inner product integral (dA/dP)(dB/dP) dP of two tangent pairs at one base P.

    P is ``pair_u.base``; ``pair_v`` must sit at the same distribution (its
    direction is differentiated against P).
    """
    product = pair_u.base.weights * radon_nikodym(pair_u.direction, pair_u.base)
    product *= radon_nikodym(pair_v.direction, pair_u.base)
    return float(np.sum(product))


def invariant_form_value(family: ExpFamily, u: TangentCoord, v: TangentCoord) -> float:
    """Fisher inner product of u and v as the invariant form of their model tangents.

    Agrees with the parameterisation-dependent score-product matrix.
    """
    require_shared_base(u, v)
    return invariant_form(model_tangent(family, u), model_tangent(family, v))
