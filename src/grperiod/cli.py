"""Command-line driver: period/jreport/validate subcommands.

Config files are flat `key = value` text (comments with #); command-line
flags override file values.  All serialized coefficients are exact integer
strings — exactness is the product, so nothing is ever written as a float
except the optional log-magnitude plot data.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

from .assembler import (
    DEFAULT_WORK_BUDGET,
    PeriodSeries,
    correction_C,
    period_series,
    unit_coefficient,
    z_scaling_report,
)
from .targets import (
    BlowUpSpec,
    DivisorData,
    FlagTarget,
    TwistSpec,
    example3_normalized_model,
    example3_verbatim_model,
    normalize_blowup,
)
from . import validation

WORK_BUDGET_ENV = "GRPERIOD_WORK_BUDGET"

MODES = ("blowup", "target", "example3-verbatim")
FORMATS = ("table", "records", "csv")


@dataclass(frozen=True)
class RunConfig:
    mode: str = "blowup"
    base_dim: int | None = None
    center_degrees: tuple[int, ...] | None = None
    twist_k: int | None = None
    e_degrees: tuple[int, ...] | None = None
    ranks: tuple[int, ...] | None = None
    twist_weights: tuple[tuple[int, ...], ...] | None = None  # None = standard basis
    rho: int | None = None
    grading_a: int | None = None
    grading_b: int | None = None
    nonconvex: str = "error"  # or "skip"
    dmax: int = 8
    z: Fraction = Fraction(1)
    out: str | None = None
    format: str = "table"


class ConfigError(ValueError):
    pass


def _parse_int_list(value: str) -> tuple[int, ...]:
    return tuple(int(p) for p in value.replace(" ", "").split(",") if p != "")


def _parse_weight_rows(value: str) -> tuple[tuple[int, ...], ...] | None:
    if value.strip() == "std":
        return None
    return tuple(_parse_int_list(row) for row in value.split(";") if row.strip())


def parse_config_file(path: str) -> dict:
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def build_config(file_values: dict, args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    converters = {
        "mode": str,
        "base_dim": int,
        "center_degrees": _parse_int_list,
        "twist_k": int,
        "e_degrees": _parse_int_list,
        "ranks": _parse_int_list,
        "twist_weights": _parse_weight_rows,
        "rho": int,
        "grading_a": int,
        "grading_b": int,
        "nonconvex": str,
        "dmax": int,
        "z": Fraction,
        "out": str,
        "format": str,
    }
    for key, raw in file_values.items():
        if key not in converters:
            raise ConfigError(f"unknown config key: {key}")
        try:
            cfg = replace(cfg, **{key: converters[key](raw)})
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc
    for key in ("dmax", "twist_k", "z", "out", "format"):
        flag = getattr(args, key.replace("-", "_"), None)
        if flag is not None:
            cfg = replace(cfg, **{key: flag})
    if cfg.mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {cfg.mode!r}")
    if cfg.format not in FORMATS:
        raise ConfigError(f"format must be one of {FORMATS}, got {cfg.format!r}")
    if cfg.dmax < 0:
        raise ConfigError("dmax must be nonnegative")
    if cfg.nonconvex not in ("error", "skip"):
        raise ConfigError("nonconvex must be 'error' or 'skip'")
    return cfg


@dataclass(frozen=True)
class Model:
    target: FlagTarget
    twist: TwistSpec
    divisor: DivisorData | None  # None = anticanonical
    skip_nonconvex: bool


def build_model(cfg: RunConfig) -> Model:
    if cfg.mode == "blowup":
        if cfg.base_dim is None or cfg.center_degrees is None:
            raise ConfigError("blowup mode needs base_dim and center_degrees")
        target, twist = normalize_blowup(
            BlowUpSpec(cfg.base_dim, cfg.center_degrees), cfg.twist_k
        )
        divisor = None
    elif cfg.mode == "target":
        if cfg.base_dim is None or cfg.e_degrees is None or cfg.ranks is None or cfg.rho is None:
            raise ConfigError("target mode needs base_dim, e_degrees, ranks, rho")
        target = FlagTarget(cfg.base_dim, cfg.e_degrees, cfg.ranks)
        if cfg.twist_weights is None:
            r = cfg.ranks[0]
            weights = tuple(
                tuple(1 if i == s else 0 for i in range(r)) for s in range(r)
            )
        else:
            weights = cfg.twist_weights
        twist = TwistSpec(weight_vectors=weights, rho=cfg.rho)
        divisor = None
        if (cfg.grading_a is None) != (cfg.grading_b is None):
            raise ConfigError("grading_a and grading_b must be given together")
        if cfg.grading_a is not None:
            divisor = DivisorData(cfg.grading_a, (cfg.grading_b,))
    else:  # example3-verbatim
        target, twist, divisor = example3_verbatim_model()
        return Model(target, twist, divisor, skip_nonconvex=True)
    return Model(target, twist, divisor, cfg.nonconvex == "skip")


def work_budget() -> int | None:
    raw = os.environ.get(WORK_BUDGET_ENV)
    if raw is None:
        return DEFAULT_WORK_BUDGET
    value = int(raw)
    return None if value <= 0 else value


def fraction_str(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def format_table(series: PeriodSeries) -> str:
    width = len(str(series.degree_max()))
    lines = [
        f"{d:>{width}}: {fraction_str(series.regularised[d])}"
        for d in range(series.degree_max() + 1)
    ]
    return "\n".join(lines) + "\n"


def format_records(series: PeriodSeries) -> str:
    lines = [
        f"{d}\t{series.regularised[d].numerator}\t{series.regularised[d].denominator}"
        for d in range(series.degree_max() + 1)
    ]
    return "\n".join(lines) + "\n"


def parse_records(text: str) -> list[tuple[int, Fraction]]:
    out = []
    for line in text.splitlines():
        if not line.strip():
            continue
        d, num, den = line.split("\t")
        out.append((int(d), Fraction(int(num), int(den))))
    return out


def format_csv(series: PeriodSeries) -> str:
    lines = ["degree,log10_regularised"]
    for d in range(series.degree_max() + 1):
        value = series.regularised[d]
        if value == 0:
            continue
        mag = math.log10(abs(value.numerator)) - math.log10(value.denominator)
        lines.append(f"{d},{mag:.6f}")
    return "\n".join(lines) + "\n"


def render_series(series: PeriodSeries, fmt: str) -> str:
    if fmt == "table":
        return format_table(series)
    if fmt == "records":
        return format_records(series)
    return format_csv(series)


def _write(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_period(cfg: RunConfig) -> int:
    model = build_model(cfg)
    budget = work_budget()
    series = period_series(
        model.target,
        model.twist,
        cfg.dmax,
        z=cfg.z,
        divisor=model.divisor,
        skip_nonconvex=model.skip_nonconvex,
        budget=budget,
    )
    text = render_series(series, cfg.format)
    if cfg.mode == "example3-verbatim" and cfg.format == "table":
        target, twist, divisor = example3_normalized_model()
        companion = period_series(
            target, twist, cfg.dmax, z=cfg.z, divisor=divisor, budget=budget
        )
        mismatches = [
            d
            for d in range(cfg.dmax + 1)
            if series.regularised[d] != companion.regularised[d]
        ]
        text += "normalized blow-up of P^6 in degrees (1,1,1,2):\n"
        text += format_table(companion)
        if mismatches:
            text += f"MISMATCH at degrees {mismatches}\n"
        else:
            text += "series agree\n"
    _write(text, cfg.out)
    return 0


def cmd_jreport(cfg: RunConfig) -> int:
    model = build_model(cfg)
    lines = ["unit coefficients:"]
    for d in range(cfg.dmax + 1):
        value = unit_coefficient(
            model.target,
            model.twist,
            d,
            z=cfg.z,
            divisor=model.divisor,
            skip_nonconvex=model.skip_nonconvex,
        )
        lines.append(f"  {d}: unit {fraction_str(value)} z-power {1 - d}")
    lines.append("corrections:")
    correction = correction_C(
        model.target, model.twist, model.divisor, model.skip_nonconvex
    )
    if not correction.entries:
        lines.append("  (no degree-one classes)")
    for cls, n in correction.entries:
        lines.append(f"  class D={cls.D} k={cls.k}: n={fraction_str(n)}")
    _write("\n".join(lines) + "\n", cfg.out)
    return 0


def _example_models():
    ex1 = normalize_blowup(BlowUpSpec(4, (1, 1, 2)))
    ex2 = normalize_blowup(BlowUpSpec(6, (1, 2, 2)), twist_k=2)
    return ex1, ex2


def run_validation_suite(flip_b1: bool = False) -> list[tuple[str, validation.CheckResult]]:
    results: list[tuple[str, validation.CheckResult]] = []

    def record(name, result):
        results.append((name, result))

    record("gamma-identity", validation.check_gamma_identity(4, 3, flip_b1=flip_b1))
    for upper in (-2, -1, 0, 1, 2):
        record(f"delta-m(upper={upper})", validation.check_delta_m(upper, 2))

    ok = all(
        sum(math.comb(m + 1, j) * validation.bernoulli(j) for j in range(m + 1)) == 0
        for m in range(1, 21)
    )
    record("bernoulli-recursion", validation.CheckResult(ok, "" if ok else "recursion broken"))

    (t1, w1), (t2, w2) = _example_models()

    try:
        for d in range(9):
            unit_coefficient(t1, w1, d)
        record("omega-divisibility", validation.CheckResult(True))
    except Exception as exc:  # NotDivisibleError would be a genuine bug
        record("omega-divisibility", validation.CheckResult(False, repr(exc)))

    rows = z_scaling_report(t1, w1, list(range(7)), Fraction(2))
    bad = [r.degree for r in rows if not r.ok]
    record(
        "z-scaling",
        validation.CheckResult(not bad, f"failing degrees {bad}" if bad else ""),
    )

    engine1 = period_series(t1, w1, 10).regularised
    oracle1 = validation.oracle_example1(10)
    diff1 = [d for d in range(11) if engine1[d] != oracle1[d]]
    record(
        "oracle-blowup-p4-112",
        validation.CheckResult(not diff1, f"differs at {diff1}" if diff1 else ""),
    )

    engine2 = period_series(t2, w2, 10).regularised
    oracle2 = validation.oracle_example2(10)
    diff2 = [d for d in range(11) if engine2[d] != oracle2[d]]
    record(
        "oracle-blowup-p6-122",
        validation.CheckResult(not diff2, f"differs at {diff2}" if diff2 else ""),
    )

    for name, spec, kmin, kmax in (
        ("k-invariance-112", BlowUpSpec(4, (1, 1, 2)), 1, 2),
        ("k-invariance-122", BlowUpSpec(6, (1, 2, 2)), 1, 2),
    ):
        lo = period_series(*normalize_blowup(spec, kmin), 8).regularised
        hi = period_series(*normalize_blowup(spec, kmax), 8).regularised
        diff = [d for d in range(9) if lo[d] != hi[d]]
        record(name, validation.CheckResult(not diff, f"differs at {diff}" if diff else ""))

    record("r1-cross-check", validation.r1_cross_check(2, (1, 1), 8))
    return results


def cmd_validate(cfg: RunConfig, flip_b1: bool = False) -> int:
    results = run_validation_suite(flip_b1=flip_b1)
    lines = []
    failed = 0
    for name, result in results:
        status = "PASS" if result.ok else "FAIL"
        if not result.ok:
            failed += 1
        detail = f"  ({result.detail})" if result.detail else ""
        lines.append(f"{status} {name}{detail}")
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    _write("\n".join(lines) + "\n", cfg.out)
    return 1 if failed else 0


def _fraction_flag(value: str) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {value!r}: {exc}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grperiod",
        description="Exact quantum periods of blow-ups via Grassmann-bundle series",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("period", "compute a regularised quantum period series"),
        ("jreport", "report unit coefficients, z-powers, and corrections"),
        ("validate", "run the validation suite"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--dmax", type=int, default=None)
        p.add_argument("--twist-k", dest="twist_k", type=int, default=None)
        p.add_argument("--z", type=_fraction_flag, default=None, help="rational like 2 or 1/2")
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=FORMATS, default=None)
        p.add_argument("--mode", choices=MODES, default=None)
        p.add_argument("--base-dim", dest="base_dim", type=int, default=None)
        p.add_argument(
            "--center-degrees",
            dest="center_degrees",
            type=_parse_int_list,
            default=None,
            help="comma separated, e.g. 1,1,2",
        )
        if name == "validate":
            p.add_argument(
                "--flip-b1",
                action="store_true",
                help="testing hook: negate B_1 and watch the gamma identity fail",
            )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_values = parse_config_file(args.config) if args.config else {}
        cfg = build_config(file_values, args)
        for key in ("mode", "base_dim", "center_degrees"):
            value = getattr(args, key, None)
            if value is not None:
                cfg = replace(cfg, **{key: value})
        if args.command == "period":
            return cmd_period(cfg)
        if args.command == "jreport":
            return cmd_jreport(cfg)
        return cmd_validate(cfg, flip_b1=getattr(args, "flip_b1", False))
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # engine errors surfaced verbatim
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
