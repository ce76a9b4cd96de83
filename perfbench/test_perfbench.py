"""Checks of the benchmark's own machinery, at tiny dmax.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import OUT, ROOT, WORKLOADS, parse_records, period_argv, reference_series, use_checkout

use_checkout()

import grperiod.cli  # noqa: E402
import run  # noqa: E402
from tracer import COUNTS, LAYERS, PER_LAYER, Tracer  # noqa: E402

TINY_DMAX = {"deep-r1": 8, "highrank": 6, "pinned-sparse": 9}


def traced_run(name: str) -> Tracer:
    workload = WORKLOADS[name]
    dmax = TINY_DMAX[name]
    OUT.mkdir(exist_ok=True)
    out = OUT / f"test-{name}.records"
    tracer = Tracer()
    tracer.install()
    try:
        code = grperiod.cli.main(period_argv(workload, dmax, out))
    finally:
        tracer.uninstall()
    assert code == 0
    assert parse_records(out.read_text(encoding="utf-8")) == reference_series(workload)[: dmax + 1]
    return tracer


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_trace_is_consistent(name):
    first, second = traced_run(name), traced_run(name)
    for tracer in (first, second):
        assert tracer.check() == []
        assert tracer.missing == []
        assert all(value >= 0 for value in tracer.self_times())
    a, b = first.layer_metrics(), second.layer_metrics()
    assert {m: a[m] for m in COUNTS} == {m: b[m] for m in COUNTS}
    assert a["assembler.points_evaluated"] > 0
    assert a["assembler.points_evaluated"] + a["assembler.points_skipped"] == a["targets.lattice_points"]


def test_wrappers_are_installed_only_while_tracing():
    import importlib

    modules = [importlib.import_module(f"grperiod.{layer}") for layer in LAYERS]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
    tracer = Tracer()
    tracer.install()
    try:
        summands = importlib.import_module("grperiod.summands")
        ring = importlib.import_module("grperiod.ring")
        assert summands.poly_mul is ring.poly_mul
        assert ring.poly_mul is not before[("grperiod.ring", "poly_mul")]
    finally:
        tracer.uninstall()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
    assert after == before


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([float(x) for x in range(20)]) == (9.0, 50.0)
    assert run.tail([float(x) for x in range(100)]) == (89.0, 90.0)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.items())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in PER_LAYER.items()
    ]
