"""Command-line front end.

Subcommands: ``families`` (registry listing), ``fisher`` (metric matrices by
route), ``invariance`` (axiom residual CSV), ``clt`` (convergence table),
``tensor`` (higher-order tensor report), ``uniqueness`` (constant recovery
and candidate-functional residuals).

Every CSV row carries: family, theta (semicolon-joined), n, quantity, value,
tolerance, pass. A row with a tolerance passes when value <= tolerance; a row
without one is informational and always passes; a check that raised is a row
with value NaN that fails. Reals are written with 17 significant digits so
repeated runs with the same configuration and seed are byte-identical.

Exit codes: 0 every row passed, 1 usage error, 2 at least one row has
pass=false. The run ends with one standard-error line counting the rows that
pass, fail and have an undefined (NaN) value, e.g. an exponent at a theta
where the cumulant it divides by vanishes; an undefined informational row
still passes. Progress and warnings go to standard error.

Configuration files are INI-style ``key = value`` lines (``#`` comments,
no sections); command-line flags override file values. The recognized keys
are those of ``_OPTIONS``, each also a flag (``theta_lo`` is
``--theta-lo``). ``family``/``params``/``theta_lo``/``theta_hi`` define the
family, the rest configure the run.
"""

from __future__ import annotations

import argparse
import csv
import math
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

    def tolerance(self, key: str, default: float) -> float:
        if key in self.tol:
            return self.tol[key]
        return self.tol.get("default", default)

    def row(self, theta, n: int, quantity: str, value: float, tol: Optional[float] = None) -> Row:
        """A CSV row; it passes when it has no tolerance or value <= tol (never when value is NaN)."""
        return Row(self.family.name, _theta_str(theta), n, quantity, value, tol, tol is None or bool(value <= tol))

    def guarded(self, rows: list, theta, n: int, quantity: str, tol: Optional[float], compute) -> None:
        """Append compute()'s rows, or the row (theta, n, quantity, value, tol) if it returns a bare value.

        A numerical failure (InfoGeomError) is reported on standard error and
        becomes a failing row for ``quantity`` with value NaN (and tolerance
        NaN when the check has none), so the run goes on.
        """
        try:
            result = compute()
        except InfoGeomError as exc:
            where = f"{self.family.name} theta={_theta_str(theta)} n={n} {quantity}"
            print(f"[infogeom] {where}: {exc}", file=sys.stderr)
            rows.append(self.row(theta, n, quantity, math.nan, math.nan if tol is None else tol))
            return
        if isinstance(result, list):
            rows.extend(result)
        else:
            rows.append(self.row(theta, n, quantity, result, tol))


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


def _parse_params(text: Optional[str]) -> dict:
    return {key: value for _, key, value in _pairs(text)}


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
        try:
            out[key] = float(value)
        except ValueError as exc:
            raise UsageError(f"bad tolerance {item!r}") from exc
        if out[key] <= 0.0:
            raise UsageError("tolerances must be positive")
    return out


def _build_config(args) -> RunConfig:
    file_values = read_config(args.config) if args.config else {}
    opt = {key: file_values.get(key) if getattr(args, key) is None else getattr(args, key) for key in _OPTIONS}
    if not opt["family"]:
        raise UsageError("--family is required (flag or config file)")
    kwargs = {}
    if opt["theta_lo"] is not None or opt["theta_hi"] is not None:
        if opt["theta_lo"] is None or opt["theta_hi"] is None:
            raise UsageError("theta_lo and theta_hi must be given together")
        kwargs = {"theta_lo": _parse_vector(opt["theta_lo"]), "theta_hi": _parse_vector(opt["theta_hi"])}
    family = make_family(opt["family"], _parse_params(opt["params"]), **kwargs)

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


def _suite_directions(order: int):
    a = np.ones(order)
    b = np.array([1.5 if i % 2 == 0 else -0.5 for i in range(order)])
    return a, b


def _emit(rows: list, out: Optional[str]) -> None:
    rows = sorted(rows, key=lambda r: (r.family, r.theta, r.n, r.quantity))
    handle = open(out, "w", encoding="utf-8", newline="") if out else sys.stdout
    try:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["family", "theta", "n", "quantity", "value", "tolerance", "pass"])
        for row in rows:
            writer.writerow(
                [
                    row.family,
                    row.theta,
                    row.n,
                    row.quantity,
                    _fmt(row.value),
                    "" if row.tolerance is None else _fmt(row.tolerance),
                    "true" if row.passed else "false",
                ]
            )
    finally:
        if out:
            handle.close()


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

            def matrix_rows():
                mats[route] = fisher_information(cfg.family, theta, route=route)
                return [cfg.row(theta, 1, f"fisher_{route}[{i},{j}]", float(mats[route][i, j])) for i, j in indices]

            cfg.guarded(rows, theta, 1, f"fisher_{route}", None, matrix_rows)
        if cfg.route == "all" and len(mats) == 3:
            for other, default in (("B", 1e-10), ("C", 1e-6)):
                gap = float(np.max(np.abs(mats["A"] - mats[other])))
                tol = cfg.tolerance(f"route_a{other.lower()}", default)
                rows.append(cfg.row(theta, 1, f"route_gap_A{other}", gap, tol))
    return rows


def cmd_invariance(cfg: RunConfig) -> list:
    rows = []
    family, cap = cfg.family, cfg.cap
    tol = cfg.tolerance("axioms", 1e-9 if family.kind == "discrete" else 1e-6)
    affine_tol = cfg.tolerance("a3_affine", 1e-12)
    a, b = _suite_directions(family.order)
    first, last = cfg.n_list[0], cfg.n_list[-1]
    for theta in cfg.thetas:
        u = TangentCoord(theta, a)
        v = TangentCoord(theta, b)

        def axiom(n, name, check_tol, report):
            cfg.guarded(rows, theta, n, name, check_tol, lambda: report().residual)

        for n in cfg.n_list:
            axiom(n, "A1", tol, lambda: invariance.check_A1(family, u, v, n, tol=tol))
            axiom(n, "A2", tol, lambda: invariance.check_A2(family, u, v, n, tol=tol, support_cap=cap))
        axiom(
            last,
            "A3-constancy",
            tol,
            lambda: invariance.check_A3_constancy(family, u, cfg.n_list, tol=tol, support_cap=cap),
        )
        axiom(
            first,
            "A3-affine",
            affine_tol,
            lambda: invariance.check_A3_affine(family, u, n=first, seed=cfg.seed, tol=affine_tol, support_cap=cap),
        )
    return rows


def cmd_clt(cfg: RunConfig) -> list:
    rows = []
    ks_tol = cfg.tol.get("ks", cfg.tol.get("default"))
    for theta in cfg.thetas:
        for n in cfg.n_list:

            def diagnostic_rows():
                diag = invariance.clt_diagnostics(cfg.family, theta, n, support_cap=cfg.cap)
                return [
                    cfg.row(theta, n, "ks_max", diag.ks_max, ks_tol),
                    cfg.row(theta, n, "moment_gap", diag.moment_gap),
                ]

            cfg.guarded(rows, theta, n, "ks_max", ks_tol, diagnostic_rows)
    return rows


def cmd_tensor(cfg: RunConfig) -> list:
    rows = []
    fd_tol = cfg.tolerance("fd3", 1e-5)
    a = np.ones(cfg.family.order)
    residual, exponent = f"scaling_residual_k{cfg.k}", f"scaling_exponent_k{cfg.k}"
    for theta in cfg.thetas:
        value = tensors.amari_chentsov(cfg.family, theta, [a] * cfg.k)
        rows.append(cfg.row(theta, 1, f"amari_chentsov_k{cfg.k}", value))
        if cfg.k == 3:
            cfg.guarded(
                rows,
                theta,
                1,
                "fd3_gap",
                fd_tol,
                lambda: abs(value - tensors.fd_third_derivative(cfg.family, theta, a)),
            )
        for n in cfg.n_list:
            if n == 1:
                continue

            def scaling_rows():
                check = tensors.higher_scaling_check(cfg.family, theta, a, n, cfg.k, support_cap=cfg.cap)
                return [
                    cfg.row(theta, n, residual, check.residual),
                    cfg.row(theta, n, exponent, check.measured_exponent),
                ]

            cfg.guarded(rows, theta, n, residual, None, scaling_rows)
    return rows


def cmd_uniqueness(cfg: RunConfig) -> list:
    rows = []
    tol = cfg.tolerance("uniqueness", 1e-10)
    spread_tol = cfg.tolerance("spread", 1e-10)
    if len(cfg.n_list) < 2:
        raise UsageError("uniqueness needs at least two n values")
    n1, n2 = cfg.n_list[0], cfg.n_list[1]
    fisher_h = geometry.fisher_norm_functional()
    candidates = [
        ("fisher", fisher_h, tol),
        ("3xfisher", geometry.scaled_norm_functional(fisher_h, 3.0), tol),
        ("l1_perturbed", geometry.l1_perturbed_norm_functional(0.1), None),
    ]
    a = np.ones(cfg.family.order)
    for theta in cfg.thetas:
        u = TangentCoord(theta, a)
        for label, functional, check_tol in candidates:
            cfg.guarded(
                rows,
                theta,
                n2,
                f"uniqueness_residual[{label}]",
                check_tol,
                lambda: invariance.uniqueness_residual(functional, cfg.family, u, n1, n2, support_cap=cfg.cap),
            )
    fisher_field = geometry.fisher_metric_field(cfg.family)
    fields = [
        ("2.5xfisher", geometry.scaled_metric_field(fisher_field, 2.5), spread_tol),
        ("sin_perturbed", geometry.sinusoidal_fisher_field(cfg.family), None),
    ]
    theta0 = cfg.thetas[0]
    for label, metric_field, check_tol in fields:
        result = invariance.recover_constant(metric_field, cfg.family, trials=cfg.trials, seed=cfg.seed)
        rows.append(cfg.row(theta0, 1, f"recover_c_hat[{label}]", result.c_hat))
        rows.append(cfg.row(theta0, 1, f"recover_spread[{label}]", result.spread, check_tol))
    return rows


_COMMANDS = {
    "families": (cmd_families, "list the registered families"),
    "fisher": (cmd_fisher, "Fisher information matrices by route"),
    "invariance": (cmd_invariance, "axiom residual report (A1, A2, A3)"),
    "clt": (cmd_clt, "convergence diagnostics for the standardized push-forwards"),
    "tensor": (cmd_tensor, "higher-order tensor values, derivative and scaling checks"),
    "uniqueness": (cmd_uniqueness, "constant recovery and candidate-functional residuals"),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="infogeom", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == "families":
            continue
        for key, option_help in _OPTIONS.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=option_help)
        p.add_argument("--config", help="INI-style key=value configuration file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "families":
            cmd_families()
            return 0
        cfg = _build_config(args)
        print(f"[infogeom] {args.command}: family={cfg.family.name} seed={cfg.seed}", file=sys.stderr)
        rows = _COMMANDS[args.command][0](cfg)
        _emit(rows, cfg.out)
    except UsageError as exc:
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
