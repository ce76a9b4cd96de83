"""Exact-period benchmark of grperiod.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; it imports the program from `src/`.
Each workload is one fixed exact period computation (see workloads.py),
run single-process in a closed loop: the next repetition starts when the
previous one returns.  Every output is compared exactly with its reference.

Times are wall times scaled to a reference machine speed.  On a shared
host the speed of the same code drifts by up to 1.7x within seconds, so
each timed call runs between two calibrations (a fixed loop of stdlib
Fraction and dict work that shares no code with grperiod) and its wall
time is multiplied by CALIBRATION_REF_S over their mean.  The unscaled
wall medians are printed beside the metrics.

With `--trace 0` a run reports, per workload:

* period_s       median time of one in-process `grperiod.cli.main(
                 ["period", ..., "--format", "records", "--out", ...])` call;
* period_tail_s  the highest percentile of the same samples with at least
                 ten samples beyond it;
* setup_s        median time of a fresh interpreter running
                 `grperiod period` on the model at `--dmax 0`;
* peak_rss_mb    ru_maxrss of a fresh child process that runs the workload once;
* failed_ratio   failed runs over attempted runs, carried by the `attempted`
                 and `failed` keys of the result line.

With `--trace 1` it alternates untraced and traced repetitions and reports
the per-layer metrics of tracer.py.  The seed only orders the work: it
shuffles the workloads and where the set-up launches fall among the timed
repetitions (or which of an untraced and a traced repetition goes first);
no randomness reaches the program.  The last line of standard output is
the JSON result; the exit code is nonzero when any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import replace
from fractions import Fraction

from tracer import COUNTS, PER_LAYER, Tracer, median_metrics, scale_times
from workloads import OUT, ROOT, SRC, BUDGET_ENV, WORKLOADS, Workload
from workloads import parse_records, period_argv, reference_series, use_checkout

MIN_SAMPLES = 11  # the tail percentile needs ten samples beyond it
SETUP_LAUNCHES = 11
CHILD_TIMEOUT_S = 90
HARD_LIMIT_S = 100  # stop repeating past this, whatever --seconds says
CALIBRATION_REF_S = 0.05  # calibrate() at the reference speed

END_TO_END_UNITS = {
    "period_s": "s",
    "period_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Tally:
    """Program runs attempted and failed, and every problem seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop(BUDGET_ENV, None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], label: str) -> tuple[int, float, int]:
    """Run `python -m grperiod.cli <argv>` to the end.

    Returns its exit code, wall seconds and peak RSS in KiB, the last read
    from that child's own resource usage.
    """
    err_path = OUT / f"{label}.stderr"
    with open(err_path, "w", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "grperiod.cli", *argv],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss


def output_matches(path, reference) -> bool:
    try:
        return parse_records(path.read_text(encoding="utf-8")) == reference
    except (OSError, ValueError):
        return False


def run_in_process(workload: Workload, reference, tally: Tally) -> float | None:
    """One timed `grperiod.cli.main` call; its wall time, or None if it failed."""
    import grperiod.cli

    out = OUT / f"{workload.name}.records"
    out.unlink(missing_ok=True)
    argv = period_argv(workload, workload.dmax, out)
    start = time.perf_counter()
    try:
        code = grperiod.cli.main(argv)
    except Exception as exc:  # an escaped engine error is a failed run
        tally.run(False, f"{workload.name}: {type(exc).__name__}: {exc}")
        return None
    elapsed = time.perf_counter() - start
    ok = code == 0 and output_matches(out, reference)
    tally.run(ok, f"{workload.name}: exit {code} or output differs from the reference")
    return elapsed if ok else None


def child_run(workload: Workload, dmax: int, reference, tally: Tally, label: str):
    out = OUT / f"{label}.records"
    out.unlink(missing_ok=True)
    code, elapsed, rss_kib = run_child(period_argv(workload, dmax, out), label)
    ok = code == 0 and output_matches(out, reference[: dmax + 1])
    tally.run(ok, f"{label}: exit {code} or output differs from the reference")
    return (elapsed, rss_kib) if ok else (None, None)


def calibrate() -> float:
    """Wall time of a fixed loop of stdlib Fraction and dict work: the speed gauge.

    It shares no code with grperiod, so no change to the program moves it;
    only the machine's speed at that moment does.
    """
    start = time.perf_counter()
    acc: dict = {}
    zero = Fraction(0)
    for i in range(1, 110):
        for j in range(1, 60):
            key = (i % 7, j % 5)
            acc[key] = acc.get(key, zero) + Fraction(i, j) * Fraction(j + 1, i + 2)
    return time.perf_counter() - start


def at_reference_speed(timed) -> tuple[float | None, float | None]:
    """(wall, scaled) seconds of `timed()` run between two calibrations.

    The machine's speed drifts by up to 1.7x within seconds (shared host),
    so each wall time is scaled by CALIBRATION_REF_S over the mean of the
    calibrations taken just before and just after it.
    """
    before = calibrate()
    wall = timed()
    after = calibrate()
    if wall is None:
        return None, None
    return wall, wall * 2 * CALIBRATION_REF_S / (before + after)


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With fewer than eleven samples no such percentile exists and the
    maximum is returned as the 100th percentile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    j = n - 11 if n >= 11 else n - 1
    return ordered[j], 100.0 * (j + 1) / n


def repeat_until(seconds: float, attempts: int):
    """Yield repetition indices until `seconds` have passed and `attempts` were made."""
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and i >= attempts) or elapsed >= HARD_LIMIT_S:
            return
        yield i
        i += 1


def measure(workload: Workload, seconds: float, rng: random.Random, tally: Tally) -> dict:
    """End-to-end metrics of one workload, tracing off."""
    reference = reference_series(workload)
    warm = run_in_process(workload, reference, tally)  # fills caches; not a sample
    _, rss_kib = child_run(workload, workload.dmax, reference, tally, f"{workload.name}.rss")
    expected = max(MIN_SAMPLES, int(seconds / warm) if warm else MIN_SAMPLES)
    slots = sorted(rng.sample(range(expected), SETUP_LAUNCHES))
    samples: list[float] = []  # scaled to the reference speed
    setups: list[float] = []
    walls: dict[str, list[float]] = {"period_s": [], "setup_s": []}

    def setup_launch():
        wall, scaled = at_reference_speed(
            lambda: child_run(workload, 0, reference, tally, f"{workload.name}.setup")[0]
        )
        if wall is not None:
            walls["setup_s"].append(wall)
            setups.append(scaled)

    for i in repeat_until(seconds, MIN_SAMPLES):
        while slots and slots[0] == i:
            slots.pop(0)
            setup_launch()
        wall, scaled = at_reference_speed(lambda: run_in_process(workload, reference, tally))
        if wall is not None:
            walls["period_s"].append(wall)
            samples.append(scaled)
    for _ in slots:
        setup_launch()

    metrics: dict = {}
    notes: dict = {}
    if samples:
        metrics["period_s"] = statistics.median(samples)
        metrics["period_tail_s"], pct = tail(samples)
        notes["period_s"] = f"median of {len(samples)} samples"
        notes["period_tail_s"] = f"P{pct:.0f} of {len(samples)} samples"
    if setups:
        metrics["setup_s"] = statistics.median(setups)
        notes["setup_s"] = f"median of {len(setups)} fresh interpreters at --dmax 0"
    for name, values in walls.items():
        if values:
            notes[name] += f"; unscaled wall median {statistics.median(values):.4f} s"
    if rss_kib is not None:
        metrics["peak_rss_mb"] = rss_kib / 1024
        notes["peak_rss_mb"] = "one fresh child running the workload once"
    return {"metrics": metrics, "notes": notes}


def trace(workload: Workload, seconds: float, rng: random.Random, tally: Tally) -> dict:
    """Per-layer metrics of one workload: traced repetitions against untraced ones."""
    reference = reference_series(workload)
    run_in_process(workload, reference, tally)  # warm-up
    tracer = Tracer()
    plain: list[float] = []  # scaled to the reference speed, like traced
    traced: list[float] = []
    runs: list[dict] = []

    def traced_once():
        tracer.install()
        try:
            return run_in_process(workload, reference, tally)
        finally:
            tracer.uninstall()

    for _ in repeat_until(seconds, 2):
        for kind in rng.sample(("plain", "traced"), 2):
            if kind == "plain":
                wall, scaled = at_reference_speed(lambda: run_in_process(workload, reference, tally))
                if wall is not None:
                    plain.append(scaled)
                continue
            wall, scaled = at_reference_speed(traced_once)
            if wall is None:
                continue
            traced.append(scaled)
            runs.append(scale_times(tracer.layer_metrics(), scaled / wall))
            tally.problems.extend(f"{workload.name}: {p}" for p in tracer.check()[:5])
    tracer.write_spans(OUT / f"{workload.name}.spans.csv")
    for note in tracer.missing:
        print(f"trace: {workload.name}: not traced: {note}", file=sys.stderr)
    if not runs or not plain:
        return {"metrics": {}, "notes": {}}

    for run in runs[1:]:
        differ = [name for name in COUNTS if run[name] != runs[0][name]]
        if differ:
            tally.problems.append(f"{workload.name}: traced runs disagree on {differ}")
            break
    skipped = tracer.counts
    metrics = median_metrics(runs)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    notes = {
        "trace.overhead_ratio": f"median of {len(traced)} traced / median of {len(plain)} untraced",
        "assembler.points_skipped": (
            f"forced nilpotent {skipped['assembler.skipped_forced_nilpotent']}, "
            f"nonconvex {skipped['assembler.skipped_nonconvex']}"
        ),
    }
    return {"metrics": metrics, "notes": notes}


def model_facts(workload: Workload) -> dict:
    """Ring size and work estimate of the workload's model, as the CLI builds it."""
    from grperiod import assembler, cli

    try:
        args = cli.build_parser().parse_args(period_argv(workload, workload.dmax, OUT / "unused"))
        cfg = cli.build_config({}, args)
        for key in ("mode", "base_dim", "center_degrees"):
            if getattr(args, key) is not None:
                cfg = replace(cfg, **{key: getattr(args, key)})
        model = cli.build_model(cfg)
        target = model.target
        return {
            "r": target.nvars - 1,
            "generators": target.nvars,
            "cap": target.omega_degree,
            "estimate_points": assembler.estimate_points(
                target, model.twist, workload.dmax, model.divisor
            ),
        }
    except (AttributeError, TypeError, ValueError) as exc:
        return {"unavailable": f"{type(exc).__name__}: {exc}"}


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_at_start": os.getloadavg(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_checkout()
    except FileNotFoundError as exc:
        print(f"error: {exc}; run from the root of a grperiod checkout", file=sys.stderr)
        return 2
    import grperiod

    if not os.path.realpath(grperiod.__file__).startswith(str(SRC)):
        print(f"error: grperiod imported from {grperiod.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    rng = random.Random(args.seed)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    rng.shuffle(names)
    host = machine()
    print("machine " + json.dumps(host))
    tally = Tally()
    results = {}
    for name in names:
        workload = WORKLOADS[name]
        run = trace if args.trace else measure
        before = (tally.attempted, tally.failed)
        result = run(workload, args.seconds, rng, tally)
        result["runs"] = {
            "attempted": tally.attempted - before[0],
            "failed": tally.failed - before[1],
        }
        result["provenance"] = {
            "workload": name,
            "why": workload.why,
            "model": workload.model,
            "dmax": workload.dmax,
            "reference": workload.reference,
            "seed": args.seed,
            "trace": args.trace,
            **model_facts(workload),
            **host,
        }
        results[name] = result
        report(name, result)
        with open(OUT / f"{name}.result.json", "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)

    units = {name: unit for name, (unit, _) in PER_LAYER.items()} if args.trace else END_TO_END_UNITS
    metrics = {}
    for name, result in results.items():
        prefix = "" if len(results) == 1 else f"{name}/"
        for metric, value in result["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    for problem in tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    correct = not tally.problems and all(
        len(r["metrics"]) == len(units) for r in results.values()
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def report(name: str, result: dict) -> None:
    prov = result["provenance"]
    facts = ", ".join(f"{k} {prov[k]}" for k in ("r", "generators", "cap", "estimate_points") if k in prov)
    print(f"workload {name}: {prov['model']}, dmax {prov['dmax']} ({facts}; reference: {prov['reference']})")

    for metric, value in result["metrics"].items():
        unit = END_TO_END_UNITS.get(metric) or PER_LAYER[metric][0]
        note = result["notes"].get(metric, "")
        print(f"  {metric:34} {value:>16.6g} {unit:6} {note}")
    runs = result["runs"]
    ratio = runs["failed"] / runs["attempted"] if runs["attempted"] else 0.0
    print(f"  {'failed_ratio':34} {ratio:>16.6g} {'ratio':6} {runs['failed']} of {runs['attempted']} runs")


if __name__ == "__main__":
    sys.exit(main())
