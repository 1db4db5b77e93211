"""Run every workload several times and print each metric by name and unit.

    python3 perfbench/suite.py [--runs 10] [--first-seed 1] [--trace 0|1] [--json FILE]

Each run is ``perfbench/run.py`` for ``run_seconds`` of BENCHMARK.json, with
its own seed (first-seed, first-seed+1, ...), one at a time. Per workload
and metric it prints the median and the quartiles
(``statistics.quantiles(values, n=4)``), the quartile spread as a share of
the median and, for end-to-end metrics, the bound from BENCHMARK.json.
``fail_rate`` is failed/attempted invocations over all runs; every
invocation's CSV is checked against its golden by run.py. ``--json`` also
writes every run's result and the machine info, the form kept for
before/after records. Exit code 1 if any run failed or reported metric names
other than BENCHMARK.json lists.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import ROOT  # noqa: E402


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    argv = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run.py exited with {proc.returncode}")
    machine = next((json.loads(line[len("machine "):]) for line in lines if line.startswith("machine ")), {})
    return json.loads(lines[-1]), machine


def spread(values: list) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write all results and machine info here")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in listed}
    seconds = bench["run_seconds"]
    record = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in [w["name"] for w in bench["workloads"]]:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, machine = one_run(workload, seed, seconds, args.trace)
            results.append(result)
            record["machine"] = machine
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in list(result["metrics"].items())[:4]), flush=True)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        ok &= failed == 0 and all(r["correct"] for r in results)
        print(f"\n{workload}: runs {len(results)}  fail_rate {failed}/{attempted}")
        print(f"  {'metric':<42} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
            if len(values) != len(results):
                print(f"  {name:<42} missing from {len(results) - len(values)} runs")
                ok = False
                continue
            median, q1, q3, share = spread(values)
            unit = results[0]["metrics"][name]["unit"]
            flag = "" if bound is None else f"{bound:>6}" + ("" if share <= bound / 3 else "  > bound/3")
            print(f"  {name:<42} {unit:<6} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} {share:>8.4f} {flag}")
        extra = set().union(*(r["metrics"] for r in results)) - set(bounds)
        if extra:
            print(f"  not in BENCHMARK.json: {sorted(extra)}")
            ok = False
        record["workloads"][workload] = results
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
