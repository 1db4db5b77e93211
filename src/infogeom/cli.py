"""Command-line front end.

Subcommands: ``families`` (registry listing), ``fisher`` (metric matrices by
route) and the row commands ``invariance`` (A1-A3), ``clt`` (convergence),
``tensor`` (higher-order tensors) and ``uniqueness`` (constant recovery and
candidate functionals). A row command is its list of checks in ``_CHECKS``,
the one place a row kind is declared: each names its scope (the n values it
runs at), its quantities with their tolerance keys and the call computing them.

Every CSV row carries: family, theta (semicolon-joined), n, quantity, value,
tolerance, pass. A row with a tolerance passes when value <= tolerance; a row
without one is informational and always passes. A check that raised writes a
failing NaN row for every quantity it would have written, so each theta gets
the same rows whether its checks pass or not. Reals are written with 17
significant digits so repeated runs with the same configuration and seed are
byte-identical. Tolerance defaults are those of ``_TOLERANCES``; ``--tol``
overrides them by key (or all at once by a bare value or ``default=``); an
unknown key, or a tolerance that is not positive and finite, is a usage error.

Exit codes: 0 every row passed, 1 usage error (or a config file or output
path that cannot be opened), 2 at least one row has pass=false. The run
ends with one standard-error line counting the rows that pass, fail and
have an undefined (NaN) value, e.g. an exponent at a theta where the
cumulant it divides by vanishes; an undefined informational row still
passes. Progress and warnings go to standard error.

Configuration files are INI-style ``key = value`` lines (``#`` comments,
no sections); command-line flags override file values. The recognized keys
are those of ``_OPTIONS``, each also a flag (``theta_lo`` is
``--theta-lo``). ``family``/``params``/``theta_lo``/``theta_hi`` define the
family, the rest configure the run.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import re
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import derived, geometry, invariance, tensors
from .errors import InfoGeomError
from .expfam import ExpFamily, TangentCoord, builtin_families, fisher_information, make_family

# every settable key: a config-file key and a flag of each command but families
_OPTIONS = {
    "family": "registered family name",
    "params": "family parameters, e.g. m=4",
    "theta": "theta values: 'grid' or comma-separated ;-joined vectors",
    "n": "ascending comma-separated extension sizes",
    "route": "fisher route: A, B, C or all",
    "tol": "tolerance overrides: value or key=value[,key=value...]",
    "seed": "seed for random tangent sampling",
    "out": "CSV output path (default stdout)",
    "cap": "convolution support cap",
    "k": "tensor order (tensor command)",
    "trials": "random tangents for constant recovery",
    "theta_lo": "domain lower bounds, ;-joined",
    "theta_hi": "domain upper bounds, ;-joined",
}
_INT_DEFAULTS = {"seed": (42, 0), "cap": (derived.SUPPORT_CAP, 1), "k": (3, 2), "trials": (20, 1)}  # (default, min)

# tolerance key -> default; axioms by family kind; ks has none, so its rows are informational unless --tol sets one
_TOLERANCES = {
    "axioms": {"discrete": 1e-9, "quadrature": 1e-6},
    "a3_affine": 1e-12,
    "ks": None,
    "fd3": 1e-5,
    "uniqueness": 1e-10,
    "spread": 1e-10,
    "route_ab": 1e-10,
    "route_ac": 1e-6,
}

# scope -> the n values a check runs at, given the config and the index of the theta
_SCOPES = {
    "every n": lambda cfg, i: cfg.n_list,
    "first n": lambda cfg, i: cfg.n_list[:1],
    "second n": lambda cfg, i: cfg.n_list[1:2],
    "last n": lambda cfg, i: cfg.n_list[-1:],
    "n > 1": lambda cfg, i: [n for n in cfg.n_list if n > 1],
    "n = 1": lambda cfg, i: [1],
    "n = 1 if k = 3": lambda cfg, i: [1] if cfg.k == 3 else [],
    "n = 1, first theta": lambda cfg, i: [1] if i == 0 else [],
}

# row command -> its checks in the order they run at each theta: (scope, [(quantity, tolerance key or None)],
# compute(cfg, u, n)), where u is the tangent (theta, 1...1), compute returns one value per quantity and "{k}"
# in a quantity is the tensor order --k
_CHECKS = {
    "invariance": [
        ("every n", [("A1", "axioms")],
         lambda cfg, u, n: [invariance.check_A1(cfg.family, u, _second_tangent(u), n)]),
        ("every n", [("A2", "axioms")],
         lambda cfg, u, n: [invariance.check_A2(cfg.family, u, _second_tangent(u), n, cfg.cap)]),
        ("last n", [("A3-constancy", "axioms")],
         lambda cfg, u, n: [invariance.check_A3_constancy(cfg.family, u, cfg.n_list, support_cap=cfg.cap)]),
        ("first n", [("A3-affine", "a3_affine")],
         lambda cfg, u, n: [invariance.check_A3_affine(cfg.family, u, n, seed=cfg.seed, support_cap=cfg.cap)]),
    ],
    "clt": [
        ("every n", [("ks_max", "ks"), ("moment_gap", None)],
         lambda cfg, u, n: invariance.clt_diagnostics(cfg.family, u.theta, n, cfg.cap)),
    ],
    "tensor": [
        ("n = 1", [("amari_chentsov_k{k}", None)],
         lambda cfg, u, n: [tensors.amari_chentsov(cfg.family, u.theta, [u.a] * cfg.k)]),
        ("n = 1 if k = 3", [("fd3_gap", "fd3")],
         lambda cfg, u, n: [abs(tensors.amari_chentsov(cfg.family, u.theta, [u.a] * 3)
                                - tensors.fd_third_derivative(cfg.family, u.theta, u.a))]),
        ("n > 1", [("scaling_residual_k{k}", None), ("scaling_exponent_k{k}", None)],
         lambda cfg, u, n: tensors.higher_scaling_check(cfg.family, u.theta, u.a, n, cfg.k, cfg.cap)),
    ],
    "uniqueness": [
        ("second n", [("uniqueness_residual[fisher]", "uniqueness")],
         lambda cfg, u, n: [invariance.uniqueness_residual(geometry.FISHER,
                                                           cfg.family, u, cfg.n_list[0], n, cfg.cap)]),
        ("second n", [("uniqueness_residual[3xfisher]", "uniqueness")],
         lambda cfg, u, n: [invariance.uniqueness_residual(geometry.scaled_norm_functional(geometry.FISHER, 3.0),
                                                           cfg.family, u, cfg.n_list[0], n, cfg.cap)]),
        ("second n", [("uniqueness_residual[l1_perturbed]", None)],
         lambda cfg, u, n: [invariance.uniqueness_residual(geometry.l1_perturbed_norm_functional(0.1),
                                                           cfg.family, u, cfg.n_list[0], n, cfg.cap)]),
        ("n = 1, first theta", [("recover_c_hat[2.5xfisher]", None), ("recover_spread[2.5xfisher]", "spread")],
         lambda cfg, u, n: invariance.recover_constant(
             geometry.scaled_metric_field(geometry.fisher_metric_field(cfg.family), 2.5),
             cfg.family, cfg.trials, cfg.seed)),
        ("n = 1, first theta", [("recover_c_hat[sin_perturbed]", None), ("recover_spread[sin_perturbed]", None)],
         lambda cfg, u, n: invariance.recover_constant(geometry.sinusoidal_fisher_field(cfg.family),
                                                       cfg.family, cfg.trials, cfg.seed)),
    ],
}

_DEFAULT_N = "1,2,4,8,16"
_QUADRATURE_DEFAULT_N = "1,2,3"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


@dataclass
class Row:
    family: str
    theta: str
    n: int
    quantity: str
    value: float
    tolerance: Optional[float]
    passed: bool


@dataclass
class RunConfig:
    family: ExpFamily
    thetas: list
    n_list: list
    route: str
    tol: dict
    seed: int
    out: Optional[str]
    cap: int
    k: int
    trials: int

    def tolerance(self, key: str) -> Optional[float]:
        """The --tol value for key, else the --tol default, else the _TOLERANCES default."""
        default = _TOLERANCES[key]
        if isinstance(default, dict):
            default = default[self.family.kind]
        return self.tol.get(key, self.tol.get("default", default))

    def row(self, theta, n: int, quantity: str, value: float, tol: Optional[float] = None) -> Row:
        """A CSV row; it passes when it has no tolerance or value <= tol (never when value is NaN)."""
        return Row(self.family.name, _theta_str(theta), n, quantity, value, tol, tol is None or bool(value <= tol))

    def guarded(self, rows: list, theta, n: int, quantities: list, compute) -> list:
        """Append the row (theta, n, name, value, tol) of each (name, tol) in quantities and return the values.

        compute() returns one value per quantity. If it raises InfoGeomError, the
        error goes to standard error and every quantity gets a failing NaN row
        (tolerance NaN where it has none), so the rows do not depend on success.
        """
        try:
            values = list(compute())
        except InfoGeomError as exc:
            names = ",".join(name for name, _ in quantities)
            print(f"[infogeom] {self.family.name} theta={_theta_str(theta)} n={n} {names}: {exc}", file=sys.stderr)
            values = [math.nan] * len(quantities)
            quantities = [(name, math.nan if tol is None else tol) for name, tol in quantities]
        for (name, tol), value in zip(quantities, values, strict=True):
            rows.append(self.row(theta, n, name, value, tol))
        return values


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _theta_str(theta) -> str:
    return ";".join(_fmt(t) for t in np.asarray(theta, dtype=float).reshape(-1))


def read_config(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _OPTIONS:
                raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value
    return values


def _pairs(text: Optional[str], bare_key: Optional[str] = None):
    """(item, key, value) per non-empty item of a comma list of key=value.

    An item without '=' is keyed ``bare_key``, or rejected when there is none.
    """
    for item in (text or "").split(","):
        item = item.strip()
        if not item:
            continue
        if "=" in item:
            key, value = (part.strip() for part in item.split("=", 1))
        elif bare_key is not None:
            key, value = bare_key, item
        else:
            raise UsageError(f"bad parameter {item!r}, expected key=value")
        yield item, key, value


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(";")])
    except ValueError as exc:
        raise UsageError(f"bad theta component in {text!r}") from exc


def _parse_thetas(text: Optional[str], family: ExpFamily) -> list:
    if text is None or text.strip() == "grid":
        return [np.array(row) for row in family.theta_grid]
    thetas = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        vec = _parse_vector(chunk)
        if vec.shape[0] != family.order:
            raise UsageError(f"theta {chunk!r} has dimension {vec.shape[0]}, family needs {family.order}")
        if _theta_str(vec) in {_theta_str(theta) for theta in thetas}:  # compared as the rows write it
            raise UsageError(f"theta {chunk!r} is given twice")
        thetas.append(vec)
    if not thetas:
        raise UsageError("no theta values given")
    return thetas


def _parse_n_list(text: str) -> list:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"bad n list {text!r}") from exc
    if not values or any(v < 1 for v in values) or values != sorted(values) or len(set(values)) != len(values):
        raise UsageError("n must be a non-empty, strictly ascending list of positive integers")
    return values


def _parse_tol(text: Optional[str]) -> dict:
    out = {}
    for item, key, value in _pairs(text, bare_key="default"):
        if key != "default" and key not in _TOLERANCES:
            raise UsageError(f"unknown tolerance key {key!r}; known keys: default, {', '.join(_TOLERANCES)}")
        try:
            out[key] = float(value)
        except ValueError as exc:
            raise UsageError(f"bad tolerance {item!r}") from exc
        if not 0.0 < out[key] < math.inf:
            raise UsageError(f"bad tolerance {item!r}: tolerances must be positive and finite")
    return out


def _build_config(args) -> RunConfig:
    file_values = read_config(args.config) if args.config else {}
    opt = {key: file_values.get(key) if getattr(args, key) is None else getattr(args, key) for key in _OPTIONS}
    if not opt["family"]:
        raise UsageError("--family is required (flag or config file)")
    bounds = {key: None if opt[key] is None else _parse_vector(opt[key]) for key in ("theta_lo", "theta_hi")}
    family = make_family(opt["family"], {key: value for _, key, value in _pairs(opt["params"])}, **bounds)

    n_text = opt["n"]
    if n_text is None:
        n_text = _QUADRATURE_DEFAULT_N if family.kind == "quadrature" else _DEFAULT_N
    ints = {}
    for key, (default, minimum) in _INT_DEFAULTS.items():
        try:
            ints[key] = default if opt[key] is None else int(opt[key])
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        if ints[key] < minimum:
            raise UsageError(f"{key} must be an integer >= {minimum}, got {ints[key]}")
    route = opt["route"] or "A"
    if route not in ("A", "B", "C", "all"):
        raise UsageError("route must be A, B, C or all")
    return RunConfig(
        family=family,
        thetas=_parse_thetas(opt["theta"], family),
        n_list=_parse_n_list(n_text),
        route=route,
        tol=_parse_tol(opt["tol"]),
        out=opt["out"],
        **ints,
    )


def _emit(rows: list, handle) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(["family", "theta", "n", "quantity", "value", "tolerance", "pass"])
    for row in sorted(rows, key=lambda r: (r.family, r.theta, r.n, r.quantity)):
        tolerance = "" if row.tolerance is None else _fmt(row.tolerance)
        passed = "true" if row.passed else "false"
        writer.writerow([row.family, row.theta, row.n, row.quantity, _fmt(row.value), tolerance, passed])


def cmd_families() -> None:
    print("name                   kind        d  m   theta box")
    for family in builtin_families():
        box = family.theta_domain
        bounds = f"[{', '.join(_fmt(x) for x in box.lo)}] .. [{', '.join(_fmt(x) for x in box.hi)}]"
        print(f"{family.name:<22} {family.kind:<10} {family.order:>2} {family.data_dim:>2}   {bounds}")


def cmd_fisher(cfg: RunConfig) -> list:
    rows = []
    routes = ["A", "B", "C"] if cfg.route == "all" else [cfg.route]
    indices = [(i, j) for i in range(cfg.family.order) for j in range(cfg.family.order)]
    for theta in cfg.thetas:
        mats = {}
        for route in routes:
            mats[route] = cfg.guarded(
                rows, theta, 1, [(f"fisher_{route}[{i},{j}]", None) for i, j in indices],
                lambda: fisher_information(cfg.family, theta, route=route).ravel(),
            )
        if cfg.route == "all":  # a route that raised has NaN entries, so its gap rows are NaN and fail
            for other in ("B", "C"):
                gap = float(np.max(np.abs(np.subtract(mats["A"], mats[other]))))
                tol = cfg.tolerance(f"route_a{other.lower()}")
                rows.append(cfg.row(theta, 1, f"route_gap_A{other}", gap, tol))
    return rows


def _second_tangent(u: TangentCoord) -> TangentCoord:
    """The second tangent of the axiom checks: direction (1.5, -0.5, 1.5, ...) at u's theta."""
    return TangentCoord(u.theta, [1.5 if i % 2 == 0 else -0.5 for i in range(u.a.shape[0])])


def run_checks(cfg: RunConfig, checks: list) -> list:
    """The rows of a command's ``_CHECKS`` entries: at each theta, each entry at each n of its scope."""
    rows = []
    ones = np.ones(cfg.family.order)
    for i, theta in enumerate(cfg.thetas):
        u = TangentCoord(theta, ones)
        for scope, quantities, compute in checks:
            named = [(name.format(k=cfg.k), None if key is None else cfg.tolerance(key))
                     for name, key in quantities]
            for n in _SCOPES[scope](cfg, i):
                cfg.guarded(rows, theta, n, named, lambda: compute(cfg, u, n))
    return rows


_COMMANDS = {
    "families": "list the registered families",
    "fisher": "Fisher information matrices by route",
    "invariance": "axiom residual report (A1, A2, A3)",
    "clt": "convergence diagnostics for the standardized push-forwards",
    "tensor": "higher-order tensor values, derivative and scaling checks",
    "uniqueness": "constant recovery and candidate-functional residuals",
}


def build_parser() -> _Parser:
    parser = _Parser(prog="infogeom", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == "families":
            continue
        for key, option_help in _OPTIONS.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=option_help)
        p.add_argument("--config", help="INI-style key=value configuration file")
    return parser


def _attach_negative_values(argv: list) -> list:
    """Join each flag to a following value that starts like a negative number (``--theta-lo=-3;-2``).

    argparse reads such a token as a flag unless it is one plain number, and
    every built-in box has a negative lower bound.
    """
    out = []
    for token in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and re.match(r"-[\d.]", token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else list(argv)))
        if args.command == "families":
            cmd_families()
            return 0
        cfg = _build_config(args)
        if args.command == "uniqueness" and len(cfg.n_list) < 2:
            raise UsageError("uniqueness needs at least two n values")
        # opened before any row is computed, so a path that cannot be written fails at once
        output = open(cfg.out, "w", encoding="utf-8", newline="") if cfg.out else contextlib.nullcontext(sys.stdout)
        with output as out:
            print(f"[infogeom] {args.command}: family={cfg.family.name} seed={cfg.seed}", file=sys.stderr)
            rows = cmd_fisher(cfg) if args.command == "fisher" else run_checks(cfg, _CHECKS[args.command])
            _emit(rows, out)
    except (UsageError, OSError) as exc:  # OSError: a config file or output path that cannot be opened
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except InfoGeomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = sum(not row.passed for row in rows)
    undefined = sum(math.isnan(row.value) for row in rows)
    print(
        f"[infogeom] {len(rows)} rows: {len(rows) - failed} pass, {failed} fail, {undefined} undefined (nan)",
        file=sys.stderr,
    )
    return 2 if failed else 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
