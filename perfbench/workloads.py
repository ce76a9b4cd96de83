"""The benchmark's workloads and the exact references their outputs must match.

Each workload is one fixed exact period computation, run single-process
through the public command line.  Nothing random reaches the program: the
seed only reorders work inside the benchmark.

The seed-series references under ``reference/`` were written by the seed
engine with

    PYTHONPATH=src python3 -m grperiod.cli period <argv> --dmax <dmax> \
        --format records --out perfbench/reference/<name>.records

and are compared by exact equality of every (degree, numerator,
denominator) record.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent  # the checkout: src/grperiod holds the program
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"
OUT = HERE / "out"  # outputs, results and spans of the last run
BUDGET_ENV = "GRPERIOD_WORK_BUDGET"


def use_checkout() -> None:
    """Import grperiod from this checkout's sources, with the default work budget.

    Raises FileNotFoundError when the checkout holds no program.
    """
    if not (SRC / "grperiod" / "cli.py").is_file():
        raise FileNotFoundError(f"no grperiod sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ.pop(BUDGET_ENV, None)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: str
    argv: tuple[str, ...]  # model flags of `grperiod period`, without --dmax
    dmax: int
    oracle: tuple[int, tuple[int, int]] | None = None  # r1_direct_period args

    @property
    def reference(self) -> str:
        return "oracle" if self.oracle else "seed series"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="deep-r1",
            why=(
                "P^3 blown up along a (1,2) conic, dmax 60, r=1: a one-scalar "
                "ring, so per-point factors and big rationals dominate; the "
                "control for ring-size work; checked by an oracle"
            ),
            model="blow-up of P^3 along a (1,2) conic, default twist",
            argv=("--base-dim", "3", "--center-degrees", "1,2"),
            dmax=60,
            oracle=(3, (1, 2)),
        ),
        Workload(
            name="highrank",
            why=(
                "P^8 blown up in (1,1,1,1,2), dmax 11, r=4 (5 generators, cap "
                "6): few lattice points, each summand a multivariate product; "
                "poly_mul and Fraction work dominate"
            ),
            model="blow-up of P^8 in (1,1,1,1,2), default twist",
            argv=("--base-dim", "8", "--center-degrees", "1,1,1,1,2"),
            dmax=11,
        ),
        Workload(
            name="pinned-sparse",
            why=(
                "example3-verbatim Gr(3, O^3+O(2)) over P^6, dmax 20: about "
                "2.6% of enumerated lattice points are evaluated, the rest "
                "skipped by the forced-nilpotent and nonconvex filters"
            ),
            model="example3-verbatim: Gr(3, O^3+O(2)) over P^6, grading 8h+3det, nonconvex skipped",
            argv=("--mode", "example3-verbatim"),
            dmax=20,
        ),
    )
}


def parse_records(text: str) -> tuple[Fraction, ...]:
    """Series from `degree<TAB>numerator<TAB>denominator` lines, degrees 0..n."""
    values = []
    for line in text.splitlines():
        if not line.strip():
            continue
        degree, num, den = line.split("\t")
        if int(degree) != len(values):
            raise ValueError(f"record for degree {degree} out of order")
        values.append(Fraction(int(num), int(den)))
    return tuple(values)


def reference_series(workload: Workload) -> tuple[Fraction, ...]:
    if workload.oracle:
        from grperiod.validation import r1_direct_period

        return tuple(r1_direct_period(*workload.oracle, workload.dmax))
    path = REFERENCE_DIR / f"{workload.name}.records"
    return parse_records(path.read_text(encoding="utf-8"))


def period_argv(workload: Workload, dmax: int, out: Path) -> list[str]:
    return [
        "period",
        *workload.argv,
        "--dmax",
        str(dmax),
        "--format",
        "records",
        "--out",
        str(out),
    ]
