"""Span and count wrappers around infogeom's layers, and the traced CLI runner.

The wrappers live here, not in ``src/``: ``Tracer.install`` replaces each
target function in *every* loaded ``infogeom`` module namespace that bound it
(``invariance`` binds ``nef_distribution`` by name, for example, while
``tensors`` reaches it through ``nef_tangent``), and each target method in
its class, including aliases such as ``NormFunctional.__call__ = eval``.
Spans are kept in memory as ``[name, start, end, parent]`` and reduced to
per-layer sums once, when the run ends.

Run as a script it is the traced runner, one fresh interpreter per CLI call:

    PYTHONPATH=src python3 perfbench/tracer.py --spans spans.json -- \\
        invariance --family gauss_known_var --out out.csv

It times ``import infogeom.cli``, installs the wrappers, calls
``infogeom.cli.main(argv)`` in-process, writes ``import_s``, the per-layer
``calls`` and ``self_s`` and the counters to the spans file, and exits with
the CLI's exit code.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import sys
import time

INVARIANCE_SPANS = (
    "check_A1",
    "check_A2",
    "check_A3_constancy",
    "claim1_pipeline",
    "check_A3_affine",
    "clt_diagnostics",
    "ks_to_standard_normal",
    "uniqueness_residual",
    "recover_constant",
)
TENSOR_SPANS = ("higher_scaling_check", "amari_chentsov", "fd_third_derivative")

# (span name, module, function name)
FUNCTION_TARGETS = (
    ("derived.convolve", "infogeom.derived", "convolve"),
    ("derived.nef_distribution", "infogeom.derived", "nef_distribution"),
    ("derived.nef_tangent", "infogeom.derived", "nef_tangent"),
    ("derived.standardizing_map", "infogeom.derived", "standardizing_map"),
    ("measures.radon_nikodym", "infogeom.measures", "radon_nikodym"),
    ("measures.push_forward", "infogeom.measures", "push_forward"),
    ("expfam.density_weights", "infogeom.expfam", "density_weights"),
    ("expfam.cov_statistic", "infogeom.expfam", "cov_statistic"),
    *((f"invariance.{name}", "infogeom.invariance", name) for name in INVARIANCE_SPANS),
    *((f"tensors.{name}", "infogeom.tensors", name) for name in TENSOR_SPANS),
    ("cli.emit", "infogeom.cli", "_emit"),
)
# (span name, module, class name, method name); construction of a measure is
# its dataclass __post_init__, which canonicalizes the support.
METHOD_TARGETS = (
    ("measures.canonicalize", "infogeom.measures", "FiniteMeasure", "__post_init__"),
    ("measures.canonicalize", "infogeom.measures", "SignedFiniteMeasure", "__post_init__"),
    ("geometry.norm_eval", "infogeom.geometry", "NormFunctional", "eval"),
    ("geometry.norm_eval", "infogeom.geometry", "NormFunctional", "eval_values"),
)


class Tracer:
    """Records spans and layer counters of one process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.counters = {
            "canonicalize.points_in": 0,
            "canonicalize.points_out": 0,
            "convolve.pairs": 0,
            "convolve.min_headroom": 1.0,
            "nef_distribution.max_support": 0,
            "radon_nikodym.slow_path_calls": 0,
            "cli.rows": 0,
        }
        self._cells = set()

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            ctx = before(args, kwargs) if before else None
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if after:
                after(ctx, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self, name, fn):
        """Counter hooks (before, after) for the layers that count work."""
        import numpy as np

        counters = self.counters
        signature = inspect.signature(fn)

        def bound(args, kwargs):
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            return call.arguments

        if name == "measures.canonicalize":

            def before(args, kwargs):
                counters["canonicalize.points_in"] += int(np.shape(args[0].points)[0])

            def after(ctx, args, kwargs, result):
                counters["canonicalize.points_out"] += int(args[0].points.shape[0])

            return before, after
        if name == "derived.convolve":

            def before(args, kwargs):
                call = bound(args, kwargs)
                counters["convolve.pairs"] += call["p"].size * call["q"].size
                return call["support_cap"]

            def after(cap, args, kwargs, result):
                headroom = 1.0 - result.size / cap
                counters["convolve.min_headroom"] = min(counters["convolve.min_headroom"], headroom)

            return before, after
        if name == "derived.nef_distribution":

            def after(ctx, args, kwargs, result):
                call = bound(args, kwargs)
                theta = tuple(np.asarray(call["theta"], dtype=float).reshape(-1).tolist())
                self._cells.add((call["family"].name, theta, int(call["n"])))
                counters["nef_distribution.max_support"] = max(
                    counters["nef_distribution.max_support"], int(result.size)
                )

            return None, after
        if name == "measures.radon_nikodym":

            def before(args, kwargs):
                call = bound(args, kwargs)
                direction, base = call["direction"], call["base"]
                if direction.points is not base.points and not np.array_equal(direction.points, base.points):
                    counters["radon_nikodym.slow_path_calls"] += 1

            return before, None
        if name == "cli.emit":

            def before(args, kwargs):
                counters["cli.rows"] += len(bound(args, kwargs)["rows"])

            return before, None
        return None, None

    def install(self):
        """Wrap every target in every loaded infogeom namespace that binds it."""
        namespaces = [mod for key, mod in sys.modules.items() if key == "infogeom" or key.startswith("infogeom.")]
        missing = []
        for name, module, attr in FUNCTION_TARGETS:
            original = getattr(importlib.import_module(module), attr)
            wrapper = self._wrap(name, original, *self._hooks(name, original))
            count = 0
            for mod in namespaces:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        count += 1
            if not count:
                missing.append(f"{module}.{attr}")
        for name, module, cls_name, attr in METHOD_TARGETS:
            cls = getattr(importlib.import_module(module), cls_name)
            original = vars(cls)[attr]
            wrapper = self._wrap(name, original, *self._hooks(name, original))
            count = 0
            for key, value in list(vars(cls).items()):
                if value is original:
                    setattr(cls, key, wrapper)
                    count += 1
            if not count:
                missing.append(f"{module}.{cls_name}.{attr}")
        if missing:
            raise RuntimeError(f"no binding found for {missing}")

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls and self_s (span time minus child spans)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layers = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            entry = layers.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += end - start - inner
        counters = dict(self.counters)
        counters["nef_distribution.distinct_cells"] = len(self._cells)
        return {"layers": layers, "counters": counters}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one infogeom CLI call with layer spans.")
    parser.add_argument("--spans", required=True, help="JSON file written when the call ends")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- followed by the CLI arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    start = time.perf_counter()
    cli = importlib.import_module("infogeom.cli")
    import_s = time.perf_counter() - start

    tracer = Tracer()
    tracer.install()
    exit_code = 1
    try:
        exit_code = cli.main(cli_args)
    finally:
        record = {"import_s": import_s, **tracer.summary()}
        with open(args.spans, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
