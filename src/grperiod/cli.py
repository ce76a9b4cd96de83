"""Command-line driver: period/jreport/validate subcommands.

Config files are flat `key = value` text (comments with #); command-line
flags override file values.  All serialized coefficients are exact integer
strings — exactness is the product, so nothing is ever written as a float
except the optional log-magnitude plot data.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction

from .assembler import (
    DEFAULT_WORK_BUDGET,
    NotFanoError,
    PeriodSeries,
    degree_numerator,
    fano_degrees,
    period_series,
    unit_from_numerator,
    unit_series,
    z_scaling_failures,
)
from .ring import PackedRing, vandermonde_divide
from .targets import (
    BlowUpSpec,
    DivisorData,
    FlagTarget,
    TwistSpec,
    all_weyl_pairs,
    example3_normalized_model,
    example3_verbatim_model,
    normalize_blowup,
    standard_basis,
)
from . import validation

WORK_BUDGET_ENV = "GRPERIOD_WORK_BUDGET"


class ConfigError(ValueError):
    pass


def _parse_int_list(value: str) -> tuple[int, ...]:
    return tuple(int(p) for p in value.split(","))  # int() strips spaces, refuses "1 1" and ""


def _parse_rank(value: str) -> int:
    ranks = _parse_int_list(value)
    if len(ranks) != 1:
        raise ValueError("only one-step Grassmann bundles are modelled: give a single rank")
    return ranks[0]


def _parse_weight_rows(value: str) -> tuple[tuple[int, ...], ...] | None:
    if value.strip() == "std":
        return None
    return tuple(_parse_int_list(row) for row in value.split(";") if row.strip())


def rational(value: str) -> Fraction:
    """A Fraction from text like 2 or 1/2; a zero denominator is a ValueError."""
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


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


RENDERERS = {"table": format_table, "records": format_records, "csv": format_csv}
FORMATS = tuple(RENDERERS)
MODES = ("blowup", "target", "example3-verbatim")


def _setting(default=None, parse=int, modes=(), choices=None, flag=None):
    """A RunConfig field and its setting: the config-file parser, the modes
    that read it (none = every mode), its allowed values, and the argparse
    options of its --flag (None = no flag)."""
    meta = {"parse": parse, "modes": modes, "choices": choices, "flag": flag}
    return field(default=default, metadata=meta)


@dataclass(frozen=True)
class RunConfig:
    """One run's settings; each field is a config key of the same name."""

    mode: str = _setting("blowup", str, choices=MODES, flag={})
    base_dim: int | None = _setting(modes=("blowup", "target"), flag={})
    center_degrees: tuple[int, ...] | None = _setting(
        parse=_parse_int_list, modes=("blowup",), flag={"help": "comma separated, e.g. 1,1,2"}
    )
    twist_k: int | None = _setting(modes=("blowup",), flag={})
    e_degrees: tuple[int, ...] | None = _setting(parse=_parse_int_list, modes=("target",))
    # the single rank r of Gr(r, E)
    ranks: int | None = _setting(parse=_parse_rank, modes=("target",))
    # None = standard basis
    twist_weights: tuple[tuple[int, ...], ...] | None = _setting(
        parse=_parse_weight_rows, modes=("target",)
    )
    rho: int | None = _setting(modes=("target",))
    grading_a: int | None = _setting(modes=("target",))
    grading_b: int | None = _setting(modes=("target",))
    # None reads as "error"
    nonconvex: str | None = _setting(parse=str, modes=("target",), choices=("error", "skip"))
    dmax: int = _setting(8, flag={})
    z: Fraction = _setting(Fraction(1), rational, flag={"help": "rational like 2 or 1/2"})
    out: str | None = _setting(parse=str, flag={})
    format: str = _setting("table", str, choices=FORMATS, flag={})


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
    settings = {f.name: f.metadata for f in fields(RunConfig)}
    values = {}
    for key, raw in file_values.items():
        if key not in settings:
            raise ConfigError(f"unknown config key: {key}")
        try:
            values[key] = settings[key]["parse"](raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc
    for key in settings:  # a flag's dest is its setting's name
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    cfg = RunConfig(**values)
    for key, meta in settings.items():
        value = getattr(cfg, key)
        if meta["choices"] and value is not None and value not in meta["choices"]:
            raise ConfigError(f"{key} must be one of {meta['choices']}, got {value!r}")
    if cfg.dmax < 0:
        raise ConfigError("dmax must be nonnegative")
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
        target, twist = normalize_blowup(BlowUpSpec(cfg.base_dim, cfg.center_degrees), cfg.twist_k)
        divisor = None
    elif cfg.mode == "target":
        if cfg.base_dim is None or cfg.e_degrees is None or cfg.ranks is None or cfg.rho is None:
            raise ConfigError("target mode needs base_dim, e_degrees, ranks, rho")
        target = FlagTarget(cfg.base_dim, cfg.e_degrees, cfg.ranks)
        weights = standard_basis(cfg.ranks) if cfg.twist_weights is None else cfg.twist_weights
        twist = TwistSpec(weight_vectors=weights, rho=cfg.rho)
        divisor = None
        if (cfg.grading_a is None) != (cfg.grading_b is None):
            raise ConfigError("grading_a and grading_b must be given together")
        if cfg.grading_a is not None:
            divisor = DivisorData(cfg.grading_a, cfg.grading_b)
    else:  # example3-verbatim
        target, twist, divisor = example3_verbatim_model()
    unread = [
        f.name
        for f in fields(RunConfig)
        if f.metadata["modes"] and cfg.mode not in f.metadata["modes"]
        and getattr(cfg, f.name) is not None
    ]
    if unread:
        raise ConfigError(f"{cfg.mode} mode does not read {', '.join(unread)}")
    return Model(target, twist, divisor, cfg.mode == "example3-verbatim" or cfg.nonconvex == "skip")


def work_budget() -> int | None:
    raw = os.environ.get(WORK_BUDGET_ENV)
    if raw is None:
        return DEFAULT_WORK_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"{WORK_BUDGET_ENV} must be an integer, got {raw!r}") from None
    if value < 0:
        raise ConfigError(f"{WORK_BUDGET_ENV} must be 0 (no guard) or positive, got {raw!r}")
    return value or None


def render_series(series: PeriodSeries, fmt: str) -> str:
    return RENDERERS[fmt](series)


def _write(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _summed(engine, cfg: RunConfig, model: Model, budget: int | None):
    """period_series or unit_series of the model, through cfg.dmax at cfg.z."""
    return engine(
        model.target, model.twist, cfg.dmax, z=cfg.z, divisor=model.divisor,
        skip_nonconvex=model.skip_nonconvex, budget=budget
    )


def cmd_period(cfg: RunConfig) -> int:
    model = build_model(cfg)
    budget = work_budget()
    series = _summed(period_series, cfg, model, budget)
    text = render_series(series, cfg.format)
    if cfg.mode == "example3-verbatim" and cfg.format == "table":
        target, twist, divisor = example3_normalized_model()
        companion = period_series(target, twist, cfg.dmax, z=cfg.z, divisor=divisor, budget=budget)
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
    raw, correction = _summed(unit_series, cfg, model, work_budget())
    lines = ["I-function unit coefficients:"]
    for d, value in enumerate(raw):
        lines.append(f"  {d}: unit {fraction_str(value)} z-power {1 - d}")
    try:
        fano_degrees(model.target, model.twist, model.divisor)
    except NotFanoError as exc:
        lines.append(f"  (not a quantum period: {exc})")
    lines.append("corrections:")
    if not correction.entries:
        lines.append("  (no degree-one classes)")
    for cls, n in correction.entries:
        lines.append(f"  class D={cls.D} k={cls.k}: n={fraction_str(n)}")
    _write("\n".join(lines) + "\n", cfg.out)
    return 0


def run_validation_suite() -> list[tuple[str, validation.CheckResult]]:
    results: list[tuple[str, validation.CheckResult]] = []

    def record(name, result):
        results.append((name, result))

    record("gamma-identity", validation.check_gamma_identity(4, 3))
    for upper in (-2, -1, 0, 1, 2):
        record(f"delta-m(upper={upper})", validation.check_delta_m(upper, 2))

    ok = all(
        sum(math.comb(m + 1, j) * validation.bernoulli(j) for j in range(m + 1)) == 0
        for m in range(1, 21)
    )
    record("bernoulli-recursion", validation.CheckResult(ok, "" if ok else "recursion broken"))

    def blowup(base_dim, degrees, twist_k=None):
        return normalize_blowup(BlowUpSpec(base_dim, degrees), twist_k)

    t1, w1 = blowup(4, (1, 1, 2))

    # the staircase unit of each aggregate against the full-ring Weyl quotient,
    # and these per-point units against period_series, which sums by orbits here
    try:
        ring = PackedRing(t1.nvars, t1.omega_degree)
        differ, units = [], []
        for d in range(9):
            num = degree_numerator(t1, w1, d)
            quotient = vandermonde_divide(ring.to_graded(num), all_weyl_pairs(t1))
            units.append(unit_from_numerator(num, t1))
            if units[-1] != quotient.constant_term():
                differ.append(d)
        orbit = period_series(t1, w1, 8).raw
        moved = [d for d in range(9) if orbit[d] != units[d]]
        problems = []
        if differ:
            problems.append(f"staircase unit differs from the Weyl quotient at {differ}")
        if moved:
            problems.append(f"orbit-summed unit differs from the per-point unit at {moved}")
        record("omega-divisibility", validation.CheckResult(not problems, "; ".join(problems)))
    except Exception as exc:  # NotDivisibleError would be a genuine bug
        record("omega-divisibility", validation.CheckResult(False, repr(exc)))

    bad = z_scaling_failures(t1, w1, list(range(7)), Fraction(2))
    record(
        "z-scaling",
        validation.CheckResult(not bad, f"failing degrees {bad}" if bad else ""),
    )

    # the engine against each oracle, and at one twist level against another
    for name, model, expected in (
        ("oracle-blowup-p4-112", (t1, w1), validation.oracle_example1(10)),
        ("oracle-blowup-p6-122", blowup(6, (1, 2, 2), 2), validation.oracle_example2(10)),
        (
            "oracle-blowup-euler",
            blowup(6, (1, 1, 1, 2)),
            validation.oracle_blowup(6, (1, 1, 1, 2), 10),
        ),
        (
            "k-invariance-112",
            blowup(4, (1, 1, 2), 1),
            period_series(*blowup(4, (1, 1, 2), 2), 8).regularised,
        ),
        (
            "k-invariance-122",
            blowup(6, (1, 2, 2), 1),
            period_series(*blowup(6, (1, 2, 2), 2), 8).regularised,
        ),
        ("r1-cross-check", blowup(2, (1, 1)), validation.r1_direct_period(2, (1, 1), 8)),
    ):
        engine = period_series(*model, len(expected) - 1).regularised
        diff = [d for d in range(len(expected)) if engine[d] != expected[d]]
        record(name, validation.CheckResult(not diff, f"differs at {diff}" if diff else ""))
    return results


def cmd_validate(cfg: RunConfig) -> int:
    results = run_validation_suite()
    failed = sum(not res.ok for _, res in results)
    lines = [
        f"{'PASS' if res.ok else 'FAIL'} {name}" + (f"  ({res.detail})" if res.detail else "")
        for name, res in results
    ]
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    _write("\n".join(lines) + "\n", cfg.out)
    return 1 if failed else 0


def _add_flags(parser: argparse.ArgumentParser, names=None) -> None:
    """One --flag per RunConfig field marked as a flag (of those in names)."""
    for f in fields(RunConfig):
        meta = f.metadata
        if meta["flag"] is not None and (names is None or f.name in names):
            flag = "--" + f.name.replace("_", "-")
            parser.add_argument(flag, type=meta["parse"], choices=meta["choices"], **meta["flag"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grperiod",
        description="Exact quantum periods of blow-ups via Grassmann-bundle series",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("period", "compute a regularised quantum period series"),
        ("jreport", "report unit coefficients, z-powers, and corrections"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key = value config file")
        _add_flags(p)
    _add_flags(sub.add_parser("validate", help="run the validation suite"), {"out"})
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing does not change it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = getattr(args, "config", None)  # validate takes no config
        file_values = parse_config_file(config) if config else {}
        cfg = build_config(file_values, args)
        if args.command == "period":
            return cmd_period(cfg)
        if args.command == "jreport":
            return cmd_jreport(cfg)
        return cmd_validate(cfg)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # engine errors surfaced verbatim
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
