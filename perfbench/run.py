"""infogeom benchmark: one run of one workload.

    python3 perfbench/run.py --workload quadrature_n3 --seed 1 --seconds 35 --trace 0

Run from a checkout's root; the program under test is ``src/infogeom``, found
through PYTHONPATH (nothing is installed). A warm-up import first compiles
bytecode and reports the BLAS build. The run then takes ``setup_s`` samples,
each a fresh interpreter importing ``infogeom.cli``, and repeats whole passes
over the workload's CLI invocations (see workloads.py) while another pass is
predicted to end within ``--seconds``. Invocations run one at a time, each in
its own interpreter.

Every invocation fails if it crashes, times out, exits with a code other than
0 or 2, or writes a CSV that is not byte-identical to its committed golden.

``--trace 0`` reports the end-to-end metrics from per-invocation medians.
``--trace 1`` instead repeats an untraced pass followed by a traced one, in
which every invocation runs under ``perfbench/tracer.py``, and reports the
per-layer metrics, summed over the invocations of a pass.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Exit code 0 when the run completed, 2 when it could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import INVARIANCE_SPANS, TENSOR_SPANS  # noqa: E402
from workloads import BENCH_DIR, COMMANDS, ROOT, WORKLOADS, Invocation, cli_seed  # noqa: E402

SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
RUN_LIMIT_S = 170.0  # every run must end within 180 s, including the first
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

WARMUP = """
import json
import infogeom.cli
import numpy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
except Exception:
    blas = {}
print(json.dumps({"name": blas.get("name"), "version": blas.get("version")}))
"""


@dataclass
class Outcome:
    invocation: Invocation
    traced: bool
    elapsed_s: float
    exit_code: int
    max_rss_mb: float
    rows: int
    error: str = ""
    layers: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.error


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in THREAD_VARS:
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(max(1, min(wanted, nproc)))
    return env


def spawn(argv: list, env: dict, log: Path, timeout: float):
    """Run argv to completion; return (elapsed_s, exit code, max RSS MB, timed out).

    The child is reaped with wait4 so its own rusage is read; a pidfd gives the
    timeout without polling.
    """
    with open(log, "wb") as handle:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=handle, stderr=handle)
        pidfd = os.pidfd_open(proc.pid)
        try:
            poller = select.poll()
            poller.register(pidfd, select.POLLIN)
            timed_out = not poller.poll(max(1, int(timeout * 1000)))
            if timed_out:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0, timed_out


class Runner:
    def __init__(self, workload: str, seed: int, env: dict, deadline: float):
        self.workload = workload
        self.cli_seed = cli_seed(seed)
        self.env = env
        self.deadline = deadline
        self.out = OUT_DIR / workload
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)

    def invoke(self, inv: Invocation, traced: bool) -> Outcome:
        stem = inv.label + (".traced" if traced else "")
        csv_path = self.out / f"{stem}.csv"
        spans_path = self.out / f"{stem}.spans.json"
        for path in (csv_path, spans_path):
            path.unlink(missing_ok=True)
        cli_args = inv.argv(self.cli_seed, csv_path)
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), "--spans", str(spans_path), "--", *cli_args]
        else:
            argv = [sys.executable, "-m", "infogeom.cli", *cli_args]
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            return Outcome(inv, traced, 0.0, -1, 0.0, 0, "not started: run time limit reached")
        elapsed, code, rss, timed_out = spawn(argv, self.env, self.out / f"{stem}.log", timeout)
        outcome = Outcome(inv, traced, elapsed, code, rss, 0)
        golden = inv.golden(self.workload, self.cli_seed)
        if timed_out:
            outcome.error = "timed out"
        elif code not in (0, 2):
            outcome.error = f"exit code {code}"
        elif not golden.is_file():
            outcome.error = f"no golden {golden.relative_to(ROOT)}"
        elif not csv_path.is_file():
            outcome.error = "no CSV written"
        elif csv_path.read_bytes() != golden.read_bytes():
            outcome.error = f"CSV differs from {golden.relative_to(ROOT)}"
        else:
            outcome.rows = golden.read_bytes().count(b"\n") - 1
        if traced and outcome.ok:
            with open(spans_path, encoding="utf-8") as handle:
                outcome.layers = json.load(handle)
        if not outcome.ok:
            tail = (self.out / f"{stem}.log").read_text(errors="replace")[-400:]
            print(f"FAIL {stem}: {outcome.error}\n{tail}", file=sys.stderr)
        return outcome

    def setup_sample(self) -> float:
        """Seconds for a fresh interpreter to import infogeom.cli."""
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import infogeom.cli"], cwd=ROOT, env=self.env, check=True, timeout=120)
        return time.perf_counter() - start

    def one_pass(self, traced: bool) -> list:
        # an invocation that times out used the rest of the run, so later ones do not start
        return [
            self.invoke(inv, traced) for inv in WORKLOADS[self.workload] for _ in range(1 if traced else inv.repeats)
        ]


def warm_up(env: dict) -> dict:
    """Import infogeom.cli once (compiling bytecode); return the BLAS build."""
    warm = subprocess.run(
        [sys.executable, "-c", WARMUP], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    if warm.returncode != 0:
        raise RuntimeError(f"cannot import infogeom.cli from {SRC}:\n{warm.stderr[-2000:]}")
    return json.loads(warm.stdout.strip().splitlines()[-1])


def machine_info(env: dict, blas: dict) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), "")
    except OSError:
        pass
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        **versions,
        "blas": blas,
        "threads": {var: env[var] for var in THREAD_VARS},
    }


def repeat(step, until: float, deadline: float) -> list:
    """Outcomes of step() calls, repeated while another is predicted to end by ``until``.

    Stops at the first failed invocation and never starts a call predicted to
    run past ``deadline``.
    """
    outcomes, lengths = [], []
    while True:
        began = time.perf_counter()
        batch = step()
        outcomes += batch
        lengths.append(time.perf_counter() - began)
        now = time.perf_counter()
        if not all(o.ok for o in batch) or now + statistics.median(lengths) > until or now + max(lengths) > deadline:
            return outcomes


def invocation_medians(outcomes: list) -> dict:
    invocations = dict.fromkeys(o.invocation for o in outcomes)
    return {inv: statistics.median(o.elapsed_s for o in outcomes if o.invocation == inv) for inv in invocations}


def end_to_end(outcomes: list, setup: list) -> dict:
    """wall_s and <command>_s sum per-invocation medians."""
    medians = invocation_medians(outcomes)
    wall = sum(medians.values())
    metrics = {"wall_s": (wall, "s")}
    for command in COMMANDS:
        metrics[f"{command}_s"] = (sum(t for inv, t in medians.items() if inv.command == command), "s")
    metrics["setup_s"] = (statistics.median(setup), "s")
    metrics["peak_rss_mb"] = (max(o.max_rss_mb for o in outcomes), "MB")
    rows = {o.invocation: o.rows for o in outcomes}
    metrics["rows_per_s"] = (sum(rows.values()) / wall, "1/s")
    return metrics


def layer_metrics(outcomes: list) -> dict:
    """Per-layer metrics of one traced pass (summed over its invocations)."""
    calls, self_s, counters = {}, {}, {}
    import_s = 0.0
    cells = 0
    max_support = 0
    headroom = 1.0
    for o in outcomes:
        import_s += o.layers["import_s"]
        for name, entry in o.layers["layers"].items():
            calls[name] = calls.get(name, 0) + entry["calls"]
            self_s[name] = self_s.get(name, 0.0) + entry["self_s"]
        c = o.layers["counters"]
        for key in ("canonicalize.points_in", "canonicalize.points_out", "convolve.pairs", "radon_nikodym.slow_path_calls", "cli.rows"):
            counters[key] = counters.get(key, 0) + c[key]
        cells += c["nef_distribution.distinct_cells"]
        max_support = max(max_support, c["nef_distribution.max_support"])
        headroom = min(headroom, c["convolve.min_headroom"])

    def s(name):
        return (self_s.get(name, 0.0), "s")

    def n(name):
        return (calls.get(name, 0), "count")

    m = {
        "measures.canonicalize.self_s": s("measures.canonicalize"),
        "measures.canonicalize.calls": n("measures.canonicalize"),
        "measures.canonicalize.points_in": (counters["canonicalize.points_in"], "points"),
        "measures.canonicalize.points_out": (counters["canonicalize.points_out"], "points"),
        "measures.canonicalize.keep_ratio": (
            counters["canonicalize.points_out"] / max(1, counters["canonicalize.points_in"]),
            "ratio",
        ),
        "derived.convolve.self_s": s("derived.convolve"),
        "derived.convolve.calls": n("derived.convolve"),
        "derived.convolve.pairs": (counters["convolve.pairs"], "count"),
        "derived.convolve.cap_headroom": (headroom, "ratio"),
        "derived.nef_distribution.self_s": s("derived.nef_distribution"),
        "derived.nef_distribution.calls": n("derived.nef_distribution"),
        "derived.nef_distribution.distinct_cells": (cells, "count"),
        "derived.nef_distribution.reuse_ratio": (cells / max(1, calls.get("derived.nef_distribution", 0)), "ratio"),
        "derived.nef_distribution.max_support": (max_support, "points"),
        "derived.nef_tangent.self_s": s("derived.nef_tangent"),
        "derived.nef_tangent.calls": n("derived.nef_tangent"),
        "derived.standardizing_map.self_s": s("derived.standardizing_map"),
        "measures.radon_nikodym.self_s": s("measures.radon_nikodym"),
        "measures.radon_nikodym.calls": n("measures.radon_nikodym"),
        "measures.radon_nikodym.slow_path_calls": (counters["radon_nikodym.slow_path_calls"], "count"),
        "measures.push_forward.self_s": s("measures.push_forward"),
        "measures.push_forward.calls": n("measures.push_forward"),
        "expfam.density_weights.self_s": s("expfam.density_weights"),
        "expfam.density_weights.calls": n("expfam.density_weights"),
        "expfam.cov_statistic.calls": n("expfam.cov_statistic"),
    }
    for name in [f"invariance.{n}" for n in INVARIANCE_SPANS] + [f"tensors.{n}" for n in TENSOR_SPANS]:
        m[f"{name}.self_s"] = s(name)
    m["geometry.norm_eval.self_s"] = s("geometry.norm_eval")
    m["cli.import_s"] = (import_s, "s")
    m["cli.emit_s"] = s("cli.emit")
    m["cli.rows"] = (counters["cli.rows"], "count")
    return m


def per_layer(outcomes: list, pass_size: int) -> dict:
    """Medians over the run's traced passes; trace.overhead_s from per-invocation medians."""
    traced = [o for o in outcomes if o.traced]
    samples = [layer_metrics(traced[i : i + pass_size]) for i in range(0, len(traced), pass_size)]
    metrics = {
        name: (statistics.median(sample[name][0] for sample in samples), unit)
        for name, (_, unit) in samples[0].items()
    }
    plain = [o for o in outcomes if not o.traced]
    overhead = sum(invocation_medians(traced).values()) - sum(invocation_medians(plain).values())
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.perf_counter() + RUN_LIMIT_S
    if not (SRC / "infogeom" / "cli.py").is_file():
        print(f"error: {SRC / 'infogeom' / 'cli.py'} not found; run from an infogeom checkout", file=sys.stderr)
        return 2
    env = child_env(len(os.sched_getaffinity(0)))
    try:
        blas = warm_up(env)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed, env, deadline)
    invocations = WORKLOADS[args.workload]
    until = time.perf_counter() + args.seconds
    if args.trace:
        outcomes = repeat(lambda: runner.one_pass(False) + runner.one_pass(True), until, deadline)
    else:
        setup = [runner.setup_sample() for _ in range(SETUP_REPEATS)]
        outcomes = repeat(lambda: runner.one_pass(False), until, deadline)
    samples = {inv: [o for o in outcomes if o.invocation == inv] for inv in invocations}
    attempted = len(outcomes)
    failed = sum(not o.ok for o in outcomes)
    if failed:
        metrics = {}
    else:
        metrics = per_layer(outcomes, len(invocations)) if args.trace else end_to_end(outcomes, setup)

    print(f"machine {json.dumps(machine_info(env, blas), sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} cli-seed {runner.cli_seed} trace {args.trace}")
    for inv, group in samples.items():
        times = ", ".join(f"{o.elapsed_s:.3f}{'T' if o.traced else ''}" for o in group)
        status = "ok" if all(o.ok for o in group) else "FAIL"
        rss = max(o.max_rss_mb for o in group)
        print(f"  {inv.label:<34} {status:<4} exit {group[0].exit_code} rss {rss:.0f} MB  s: {times}")
    print(f"fail_rate {failed}/{attempted}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
