"""End-to-end acceptance checks.

Each test exercises one acceptance criterion at its pinned tolerance and
prints a single PASS/FAIL line (visible with ``pytest -s`` or on failure).
Criteria whose n-sweeps require exact convolution run on the discrete
families; the quadrature families join wherever their convolution supports
stay below the cap (n <= 3).
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import ndtr

from infogeom.expfam import TangentCoord, cov_statistic, fisher_information
from infogeom.geometry import (
    FISHER,
    fisher_metric_field,
    invariant_form_value,
    l1_perturbed_norm_functional,
    scaled_metric_field,
    sinusoidal_fisher_field,
)
from infogeom.invariance import (
    check_A1,
    check_A2,
    claim1_pipeline,
    claim2_rotation_check,
    clt_diagnostics,
    matched_direction,
    recover_constant,
    uniqueness_residual,
)
from infogeom.tensors import amari_chentsov, fd_third_derivative

LOG3 = math.log(3.0)


def _directions(order):
    return np.ones(order), np.array([1.5 if i % 2 == 0 else -0.5 for i in range(order)])


def _report(index, name, ok, detail=""):
    print(f"ACCEPTANCE {index} {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {index} ({name}) failed {detail}"


def test_criterion_1_fisher_route_agreement(families):
    start = time.perf_counter()
    worst_ab = worst_ac = 0.0
    for f in families.values():
        for theta in f.theta_grid:
            a = fisher_information(f, theta, "A")
            worst_ab = max(worst_ab, float(np.max(np.abs(a - fisher_information(f, theta, "B")))))
            worst_ac = max(worst_ac, float(np.max(np.abs(a - fisher_information(f, theta, "C")))))
    bern = abs(fisher_information(families["bernoulli"], 0.0, "A")[0, 0] - 0.25)
    bern_c = abs(fisher_information(families["bernoulli"], 0.0, "C")[0, 0] - 0.25)
    pois = abs(fisher_information(families["poisson_trunc"], 0.0, "A")[0, 0] - 1.0)
    elapsed = time.perf_counter() - start
    ok = worst_ab <= 1e-10 and worst_ac <= 1e-6 and bern <= 1e-10 and bern_c <= 1e-7 and pois <= 1e-10 and elapsed < 5.0
    _report(1, "fisher route agreement", ok, f"(AB {worst_ab:.2e}, AC {worst_ac:.2e}, {elapsed:.2f}s)")


def test_criterion_2_A1_iid_scaling(discrete_families):
    start = time.perf_counter()
    worst = 0.0
    cross_validated = 0
    for f in discrete_families:
        a, b = _directions(f.order)
        for theta in f.theta_grid:
            u, v = TangentCoord(theta, a), TangentCoord(theta, b)
            for n in (1, 2, 3, 4, 8, 16):
                worst = max(worst, check_A1(f, u, v, n))
                if n <= 3:
                    cross_validated += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and cross_validated == 4 * 5 * 3 and elapsed < 30.0
    _report(2, "A1 IID scaling", ok, f"(residual {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_3_A2_sufficient_statistic_isometry(discrete_families):
    start = time.perf_counter()
    worst = 0.0
    for f in discrete_families:
        a, b = _directions(f.order)
        for theta in f.theta_grid:
            u, v = TangentCoord(theta, a), TangentCoord(theta, b)
            for n in (1, 2, 4, 8, 16):
                worst = max(worst, check_A2(f, u, v, n))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 30.0
    _report(3, "A2 sufficient-statistic isometry", ok, f"(residual {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_4_claim1_constancy(families, discrete_families, quadrature_families):
    start = time.perf_counter()
    worst_range = worst_value = 0.0
    for f in families.values():
        n_values = (1, 2, 4, 8, 16, 32) if f.kind == "discrete" else (1, 2)
        a = np.ones(f.order)
        for theta in f.theta_grid:
            u = TangentCoord(theta, a)
            reference = float(np.linalg.norm(np.linalg.cholesky(cov_statistic(f, theta)).T @ a))
            values = [claim1_pipeline(f, u, n, [FISHER])[0] for n in n_values]
            worst_range = max(worst_range, max(values) - min(values))
            worst_value = max(worst_value, max(abs(v - reference) for v in values))
    elapsed = time.perf_counter() - start
    ok = worst_range <= 1e-9 and worst_value <= 1e-9 and elapsed < 60.0
    _report(4, "claim 1 constancy", ok, f"(range {worst_range:.2e}, value {worst_value:.2e}, {elapsed:.2f}s)")


def test_criterion_5_clt_diagnostics(families, discrete_families):
    start = time.perf_counter()
    ks_max, _ = clt_diagnostics(families["bernoulli"], 0.0, 100)

    pmf = [Fraction(math.comb(100, k), 2**100) for k in range(101)]
    cum, running = [], Fraction(0)
    for w in pmf:
        running += w
        cum.append(running)
    ks_oracle = 0.0
    for k in range(101):
        phi = float(ndtr((k - 50.0) / 5.0))
        ks_oracle = max(ks_oracle, abs(float(cum[k]) - phi), abs(float(cum[k] - pmf[k]) - phi))

    monotone = True
    for f in discrete_families:
        for theta in f.theta_grid:
            values = [clt_diagnostics(f, theta, n)[0] for n in (1, 4, 16, 64)]
            monotone = monotone and all(values[i + 1] <= values[i] + 1e-12 for i in range(3))
    elapsed = time.perf_counter() - start
    ok = ks_max < 0.05 and abs(ks_max - ks_oracle) <= 1e-12 and monotone
    _report(5, "CLT diagnostics", ok, f"(ks@100 {ks_max:.4f}, oracle gap {abs(ks_max - ks_oracle):.1e}, {elapsed:.2f}s)")


def test_criterion_6_claim2_rotation(families):
    rng = np.random.default_rng(42)
    worst = 0.0
    for f in families.values():
        for _ in range(20):
            theta = f.theta_grid[int(rng.integers(len(f.theta_grid)))]
            phi = f.theta_grid[int(rng.integers(len(f.theta_grid)))]
            u = TangentCoord(theta, rng.standard_normal(f.order))
            v = matched_direction(f, u, phi, rng.standard_normal(f.order))
            worst = max(worst, claim2_rotation_check(f, u, v))
    ok = worst <= 1e-12
    _report(6, "claim 2 rotation", ok, f"(residual {worst:.2e})")


def test_criterion_7_uniqueness_witness(families):
    f = families["bernoulli"]
    scaled = scaled_metric_field(fisher_metric_field(f), 2.5)
    c_hat, spread = recover_constant([scaled], f, trials=20, seed=42)

    u = TangentCoord([0.0], [1.0])
    perturbed = uniqueness_residual([l1_perturbed_norm_functional(0.1)], f, u, 1, 4)[0]
    fisher_res = uniqueness_residual([FISHER], f, u, 1, 4)[0]
    _, wobble = recover_constant([sinusoidal_fisher_field(f)], f, trials=20, seed=42)

    ok = (
        abs(c_hat - 2.5) <= 1e-10
        and spread <= 1e-10
        and abs(perturbed - 0.0125) <= 1e-12
        and fisher_res <= 1e-10
        and wobble > 0.05
    )
    _report(
        7,
        "uniqueness witness",
        ok,
        f"(c_hat {c_hat}, spread {spread:.1e}, perturbed {perturbed}, wobble {wobble:.3f})",
    )


def test_criterion_8_tensors(families):
    # The k = 3 value against its closed form and against an independent FD route. Permutation
    # symmetry and odd-order vanishing of symmetrized Fisher powers are not criteria: a sum over
    # every pairing is symmetric by construction and the c = 0 power is 0.0 * form**(k/2), so
    # each would compare a quantity with itself.
    f = families["bernoulli"]
    value = amari_chentsov(f, LOG3, [np.ones(1)] * 3)
    fd_gap = abs(value - fd_third_derivative(f, LOG3, np.ones(1)))
    ok = abs(value + 0.09375) <= 1e-12 and fd_gap <= 1e-5
    _report(8, "higher-order tensors", ok, f"(k3 {value}, fd gap {fd_gap:.1e})")


def test_criterion_9_invariant_form_equivalence(families):
    worst = 0.0
    for f in families.values():
        a, b = _directions(f.order)
        for theta in f.theta_grid:
            u, v = TangentCoord(theta, a), TangentCoord(theta, b)
            direct = float(a @ fisher_information(f, theta, "B") @ b)
            worst = max(worst, abs(invariant_form_value(f, u, v) - direct))
    ok = worst <= 1e-10
    _report(9, "invariant-form equivalence", ok, f"(gap {worst:.2e})")
