"""Self-check of the benchmark's tracer (not part of the tier-1 suite).

    python3 -m pytest perfbench/test_selfcheck.py

Traced runs must write the golden CSV, repeat their counts exactly and
reproduce the known seed counts, which can only hold if the wrappers reach
every namespace that bound a traced function.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import child_env  # noqa: E402
from workloads import ROOT, Invocation  # noqa: E402

ENV = child_env(len(os.sched_getaffinity(0)))
TRACER = str(Path(__file__).with_name("tracer.py"))


def traced_call(inv: Invocation, workload: str, tmp_path: Path) -> tuple:
    spans, out = tmp_path / "spans.json", tmp_path / "out.csv"
    argv = [sys.executable, TRACER, "--spans", str(spans), "--", *inv.argv(0, out)]
    proc = subprocess.run(argv, cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=300)
    assert proc.returncode in (0, 2), proc.stderr
    assert out.read_bytes() == inv.golden(workload, 0).read_bytes()
    record = json.loads(spans.read_text())
    counts = {name: entry["calls"] for name, entry in record["layers"].items()}
    counts.update(record["counters"])
    del counts["convolve.min_headroom"]  # a ratio, compared separately below
    return counts, record


def test_wrappers_replace_every_binding():
    script = f"""
import importlib, sys
sys.path.insert(0, {str(Path(TRACER).parent)!r})
import infogeom, infogeom.cli
from tracer import Tracer, FUNCTION_TARGETS, METHOD_TARGETS
originals = [getattr(importlib.import_module(m), a) for _, m, a in FUNCTION_TARGETS]
originals += [vars(getattr(importlib.import_module(m), c))[a] for _, m, c, a in METHOD_TARGETS]
Tracer().install()
left = [f"{{mod.__name__}}.{{key}}" for mod in list(sys.modules.values())
        if mod.__name__.startswith("infogeom")
        for scope in [vars(mod)] + [vars(v) for v in vars(mod).values() if isinstance(v, type)]
        for key, value in scope.items() if any(value is o for o in originals)]
print(left)
"""
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "inv, workload, calls, cells",
    [
        (Invocation("invariance", "gauss_known_var"), "quadrature_n3", 35, 15),
        (Invocation("clt", "exponential_dist"), "quadrature_n3", 15, 15),
    ],
)
def test_seed_counts_repeat_exactly(inv, workload, calls, cells, tmp_path):
    first, record = traced_call(inv, workload, tmp_path)
    second, again = traced_call(inv, workload, tmp_path)
    assert first == second
    assert record["counters"]["convolve.min_headroom"] == again["counters"]["convolve.min_headroom"]
    assert first["derived.nef_distribution"] == calls
    assert first["nef_distribution.distinct_cells"] == cells
    assert first["radon_nikodym.slow_path_calls"] == 0
