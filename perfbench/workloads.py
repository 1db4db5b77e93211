"""Workload table of the infogeom benchmark.

A workload is a fixed sequence of ``infogeom`` CLI invocations. Each one
writes its CSV with ``--out`` and receives the CLI seed derived from the
workload seed. An invocation whose output depends on ``--seed`` (uniqueness
tangents, A3-affine maps of 2-D families) has one golden CSV per CLI seed,
``<label>.seed<k>.csv``; any other has a single ``<label>.csv``, written only
after ``make_goldens.py`` saw identical bytes for every CLI seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_DIR = BENCH_DIR / "golden"

COMMANDS = ("invariance", "clt", "tensor", "uniqueness")
# Workload seed s runs the CLI with --seed (s mod GOLDEN_SEEDS); a golden CSV
# is committed for every CLI seed, so every output of every run is compared
# byte for byte.
GOLDEN_SEEDS = 4

LATTICE_FAMILIES = ("bernoulli", "binomial", "categorical", "poisson_trunc")


@dataclass(frozen=True)
class Invocation:
    """One CLI call of a workload: ``infogeom <command> --family <family> [--n <n>]``.

    An untraced pass runs it ``repeats`` times back to back and times it by
    the median; a traced pass runs it once.
    """

    command: str
    family: str
    n: Optional[str] = None
    repeats: int = 1

    @property
    def label(self) -> str:
        return f"{self.command}-{self.family}"

    def argv(self, cli_seed: int, out: Path) -> list:
        args = [self.command, "--family", self.family]
        if self.n is not None:
            args += ["--n", self.n]
        return args + ["--seed", str(cli_seed), "--out", str(out)]

    def golden(self, workload: str, cli_seed: int) -> Path:
        seeded = GOLDEN_DIR / workload / f"{self.label}.seed{cli_seed}.csv"
        return seeded if seeded.is_file() else GOLDEN_DIR / workload / f"{self.label}.csv"


# Why each workload exists is written in README.md next to this file. The
# calls of about a second are mostly interpreter start and imports, and a
# single sample of one varied by about a fifth from run to run, so they are
# repeated.
WORKLOADS = {
    "quadrature_n3": (
        Invocation("invariance", "gauss_known_var"),
        Invocation("clt", "exponential_dist"),
        Invocation("tensor", "gauss_known_var"),
        Invocation("uniqueness", "exponential_dist", repeats=5),
    ),
    "lattice_defaults": tuple(
        Invocation(command, family) for command in COMMANDS for family in LATTICE_FAMILIES
    ),
    "lattice_high_n": (
        Invocation("clt", "categorical", "1,2,4,8,16,32,64,128"),
        Invocation("clt", "binomial", "1,4,16,64,256,1024"),
        Invocation("invariance", "poisson_trunc", "1,2,4,8,16,32,64"),
        Invocation("tensor", "categorical", "1,2,4,8,16,32,64", repeats=3),
        Invocation("uniqueness", "bernoulli", "256,1024", repeats=3),
    ),
}


def cli_seed(workload_seed: int) -> int:
    return workload_seed % GOLDEN_SEEDS
