"""Metric fields, norm functionals and polarisation.

A :class:`MetricField` assigns an SPD matrix to each admissible natural
parameter; a :class:`NormFunctional` acts on pairs (P, f P) where P is a
finite measure or the analytic Gaussian reference and f is given either as
a linear coefficient vector or as a per-point function. Candidate
functionals other than the Fisher one are first-class values so the
invariance suite can quantify over them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .expfam import ExpFamily, TangentCoord, cov_statistic, fisher_information, model_tangent, require_shared_base
from .measures import FiniteMeasure, GaussianReference, radon_nikodym

METRIC_SYMMETRY_TOL = 1e-12


def point_values(measure: FiniteMeasure, f) -> np.ndarray:
    """Resolve f to per-point values on the support of ``measure``.

    ``f`` is either a callable (applied to each support point, a 1-D
    coordinate array) or a linear coefficient vector c meaning f(y) = c . y.
    """
    if callable(f):
        return np.array([float(np.asarray(f(p)).reshape(())) for p in measure.points])
    coeff = np.asarray(f, dtype=float).reshape(-1)
    if coeff.shape[0] != measure.dim:
        raise ValueError(
            f"linear coefficient dimension {coeff.shape[0]} does not match support dimension {measure.dim}"
        )
    return measure.points @ coeff


@dataclass(frozen=True, eq=False)
class NormFunctional:
    """Norm-like functional H(P, f P) on base-measure/function pairs.

    ``finite_fn(weights, values)`` evaluates on finite supports;
    ``gauss_fn(coeff)`` is the closed form on the analytic standard normal
    with linear f, when the functional has one.
    """

    name: str
    finite_fn: Callable[[np.ndarray, np.ndarray], float]
    gauss_fn: Optional[Callable[[np.ndarray], float]] = None

    def eval(self, base, f) -> float:
        if isinstance(base, GaussianReference):
            if self.gauss_fn is None:
                raise TypeError(f"{self.name} has no closed form on the Gaussian reference")
            if callable(f):
                raise TypeError("the Gaussian reference takes linear coefficient vectors only")
            coeff = np.asarray(f, dtype=float).reshape(-1)
            if coeff.shape[0] != base.dim:
                raise ValueError("coefficient dimension mismatch")
            return float(self.gauss_fn(coeff))
        return float(self.finite_fn(base.weights, point_values(base, f)))

    __call__ = eval

    def eval_values(self, base: FiniteMeasure, values) -> float:
        """Evaluate with precomputed per-point values (finite supports only)."""
        v = np.asarray(values, dtype=float).reshape(-1)
        if v.shape[0] != base.size:
            raise ValueError("values must align with the support")
        return float(self.finite_fn(base.weights, v))


def fisher_norm_functional() -> NormFunctional:
    """H(P, f) = sqrt(integral f^2 dP); equals ||c|| on standardized P with f = c . y."""
    return NormFunctional(
        name="fisher",
        finite_fn=lambda w, v: math.sqrt(float(np.sum(w * v * v))),
        gauss_fn=lambda c: float(np.linalg.norm(c)),
    )


def scaled_norm_functional(base: NormFunctional, alpha: float) -> NormFunctional:
    """alpha * H; global rescaling preserves all the invariance axioms."""
    a = float(alpha)
    if a <= 0.0:
        raise ValueError("scale must be positive")
    return NormFunctional(
        name=f"{a}*{base.name}",
        finite_fn=lambda w, v: a * base.finite_fn(w, v),
        gauss_fn=None if base.gauss_fn is None else (lambda c: a * base.gauss_fn(c)),
    )


def l1_perturbed_norm_functional(eps: float = 0.1) -> NormFunctional:
    """Fisher norm plus eps * integral |f| dP: homogeneous but not IID-consistent.

    The demonstrator candidate: it satisfies absolute homogeneity yet its
    standardized-pushforward values drift with n, which the uniqueness
    residual detects.
    """
    e = float(eps)
    fisher = fisher_norm_functional()
    return NormFunctional(
        name=f"fisher+{e}*L1",
        finite_fn=lambda w, v: fisher.finite_fn(w, v) + e * float(np.sum(w * np.abs(v))),
        gauss_fn=lambda c: float(np.linalg.norm(c)) * (1.0 + e * math.sqrt(2.0 / math.pi)),
    )


@dataclass(frozen=True, eq=False)
class MetricField:
    """Matrix field theta -> SPD matrix over a family's parameter domain."""

    name: str
    family: ExpFamily
    matrix_fn: Callable[[np.ndarray], np.ndarray]

    def matrix(self, theta) -> np.ndarray:
        mat = np.asarray(self.matrix_fn(np.asarray(theta, dtype=float).reshape(-1)), dtype=float)
        if np.max(np.abs(mat - mat.T)) > METRIC_SYMMETRY_TOL:
            raise ValueError(f"metric field {self.name} produced a non-symmetric matrix")
        return mat


def fisher_metric_field(family: ExpFamily, route: str = "A") -> MetricField:
    return MetricField(
        name=f"fisher[{family.name},{route}]",
        family=family,
        matrix_fn=lambda t: fisher_information(family, t, route=route),
    )


def scaled_metric_field(field: MetricField, c: float) -> MetricField:
    c = float(c)
    if c <= 0.0:
        raise ValueError("scale must be positive")
    return MetricField(
        name=f"{c}*{field.name}",
        family=field.family,
        matrix_fn=lambda t: c * field.matrix_fn(t),
    )


def sinusoidal_fisher_field(family: ExpFamily, amplitude: float = 0.2) -> MetricField:
    """(1 + amplitude sin theta_1) times the Fisher field: smooth, SPD, not invariant."""
    a = float(amplitude)
    if not 0.0 < a < 1.0:
        raise ValueError("amplitude must lie in (0, 1)")
    return MetricField(
        name=f"sin-perturbed[{family.name}]",
        family=family,
        matrix_fn=lambda t: (1.0 + a * math.sin(float(t[0]))) * cov_statistic(family, t),
    )


def metric_eval(field: MetricField, u: TangentCoord, v: TangentCoord) -> float:
    """Bilinear value a^T g(theta) b for tangent vectors at the same theta."""
    require_shared_base(u, v)
    return float(u.a @ field.matrix(u.theta) @ v.a)


def norm_of_tangent(field: MetricField, u: TangentCoord) -> float:
    return math.sqrt(metric_eval(field, u, u))


def polarize(h_squared: Callable[[TangentCoord], float], u: TangentCoord, v: TangentCoord) -> float:
    """Recover the bilinear value from diagonal values: [h2(u+v) - h2(u-v)] / 4."""
    require_shared_base(u, v)
    return (float(h_squared(u + v)) - float(h_squared(u - v))) / 4.0


def invariant_form_value(family: ExpFamily, u: TangentCoord, v: TangentCoord) -> float:
    """Fisher inner product assembled from Radon-Nikodym derivatives.

    Computes integral (dA/dP)(dB/dP) dP for the model tangents of u and v;
    agrees with the parameterisation-dependent score-product matrix.
    """
    require_shared_base(u, v)
    tu = model_tangent(family, u)
    tv = model_tangent(family, v)
    ra = radon_nikodym(tu.direction, tu.base)
    rb = radon_nikodym(tv.direction, tu.base)
    return float(np.sum(tu.base.weights * ra * rb))
