"""Write the golden CSVs that every benchmark run is compared against.

    python3 perfbench/make_goldens.py

Run from the checkout root at the commit whose outputs are the reference.
Every invocation runs once per CLI seed 0..GOLDEN_SEEDS-1. Identical outputs
give one golden, ``<label>.csv``; otherwise each seed gets
``<label>.seed<k>.csv``. Exit codes 0 and 2 are both kept as produced (2
marks failed or NaN rows); any other exit code is an error.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import child_env, spawn  # noqa: E402
from workloads import GOLDEN_DIR, GOLDEN_SEEDS, ROOT, WORKLOADS  # noqa: E402


def produce(inv, seed: int, env: dict, scratch: Path) -> bytes:
    out = scratch / f"{inv.label}.seed{seed}.csv"
    argv = [sys.executable, "-m", "infogeom.cli", *inv.argv(seed, out)]
    _, code, _, _ = spawn(argv, env, scratch / "log.txt", timeout=600.0)
    if code not in (0, 2):
        log = (scratch / "log.txt").read_text(errors="replace")
        raise SystemExit(f"{inv.label} --seed {seed}: exit code {code}\n{log[-2000:]}")
    return out.read_bytes()


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    env = child_env(len(os.sched_getaffinity(0)))
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for workload in sorted(WORKLOADS):
            folder = GOLDEN_DIR / workload
            folder.mkdir(parents=True, exist_ok=True)
            for inv in WORKLOADS[workload]:
                outputs = [produce(inv, seed, env, Path(tmp)) for seed in range(GOLDEN_SEEDS)]
                for stale in folder.glob(f"{inv.label}.*csv"):
                    stale.unlink()
                if len(set(outputs)) == 1:
                    written = {folder / f"{inv.label}.csv": outputs[0]}
                else:
                    written = {folder / f"{inv.label}.seed{k}.csv": out for k, out in enumerate(outputs)}
                for path, data in written.items():
                    path.write_bytes(data)
                    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
