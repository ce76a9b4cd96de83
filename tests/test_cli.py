import argparse
import dataclasses
import gc
from fractions import Fraction

import pytest

from grperiod.cli import (
    ConfigError,
    RunConfig,
    build_config,
    build_model,
    build_parser,
    main,
    parse_config_file,
    run_validation_suite,
)
from grperiod import validation
from grperiod.validation import oracle_blowup

P4_ARGS = ["--base-dim", "4", "--center-degrees", "1,1,2"]


def parse_records(text):
    """(degree, value) for each line of `--format records` output."""
    out = []
    for line in text.splitlines():
        if not line.strip():
            continue
        d, num, den = line.split("\t")
        out.append((int(d), Fraction(int(num), int(den))))
    return out


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_period_dmax_zero(capsys):
    rc, out, err = run(capsys, ["period", *P4_ARGS, "--dmax", "0"])
    assert rc == 0
    assert out == "0: 1\n"
    assert err == ""


def test_period_table_alignment(capsys):
    rc, out, _ = run(capsys, ["period", *P4_ARGS, "--dmax", "10"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == " 0: 1"
    assert lines[3] == " 3: 12"
    assert lines[10] == "10: 113400"


def test_records_round_trip(capsys):
    rc, out, _ = run(capsys, ["period", *P4_ARGS, "--dmax", "6", "--format", "records"])
    assert rc == 0
    assert parse_records(out) == [
        (0, Fraction(1)),
        (1, Fraction(0)),
        (2, Fraction(0)),
        (3, Fraction(12)),
        (4, Fraction(0)),
        (5, Fraction(120)),
        (6, Fraction(540)),
    ]


def test_z_flag_scales_each_degree(capsys):
    rc, out, _ = run(
        capsys,
        ["period", *P4_ARGS, "--dmax", "3", "--format", "records", "--z", "1/2"],
    )
    assert rc == 0
    values = dict(parse_records(out))
    assert values[0] == Fraction(1, 2)
    assert values[3] == 48


def test_z_flag_scales_a_series_whose_correction_is_not_zero(capsys):
    # P^2 in (1,1) reads 1, 0, 2, 6 at z = 1, and its correction C is 1,
    # which is applied as e^(-Cx/z)
    argv = ["--base-dim", "2", "--center-degrees", "1,1", "--dmax", "3", "--format", "records"]
    rc, out, _ = run(capsys, ["period", *argv, "--z", "1/2"])
    assert rc == 0
    values = dict(parse_records(out))
    assert values[0] == Fraction(1, 2)
    assert values[3] == 24


def test_negative_z_needs_the_equals_form(capsys):
    # argparse reads a bare -1/2 as a flag, so a negative z is given as --z=-1/2
    argv = ["period", *P4_ARGS, "--dmax", "3", "--format", "records", "--z=-1/2"]
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    assert dict(parse_records(out))[0] == Fraction(-1, 2)


def test_csv_skips_zero_rows(capsys):
    rc, out, _ = run(capsys, ["period", *P4_ARGS, "--dmax", "3", "--format", "csv"])
    assert rc == 0
    assert out.splitlines() == ["degree,log10_regularised", "0,0.000000", "3,1.079181"]


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, ["period", *P4_ARGS, "--dmax", "8"])
    _, second, _ = run(capsys, ["period", *P4_ARGS, "--dmax", "8"])
    assert first == second


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "series.txt"
    rc, out, _ = run(capsys, ["period", *P4_ARGS, "--dmax", "3", "--out", str(path)])
    assert rc == 0
    assert out == ""
    assert path.read_text().splitlines()[3] == "3: 12"


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# blow-up of P^4\n"
        "mode = blowup\n"
        "base_dim = 4\n"
        "center_degrees = 1,1,2\n"
        "dmax = 3\n"
        "format = records\n"
    )
    rc, out, _ = run(capsys, ["period", "--config", str(cfg), "--dmax", "5"])
    assert rc == 0
    assert len(out.splitlines()) == 6  # flag wins over the file's dmax


def test_target_mode_with_grading(tmp_path, capsys):
    cfg = tmp_path / "target.cfg"
    cfg.write_text(
        "mode = target\n"
        "base_dim = 4\n"
        "e_degrees = 0,0,-1\n"
        "ranks = 2\n"
        "rho = 1\n"
        "grading_a = 1\n"
        "grading_b = 2\n"
    )
    rc, out, _ = run(capsys, ["period", "--config", str(cfg), "--dmax", "3"])
    assert rc == 0
    assert out.splitlines()[3] == "3: 12"


def test_target_mode_general_twist_rows_match_reference(
    tmp_path, capsys, monkeypatch, reference_summand
):
    # the row (1,1) involves two roots, so it is a general twist row
    cfg = tmp_path / "rows.cfg"
    cfg.write_text(
        "mode = target\n"
        "base_dim = 4\n"
        "e_degrees = 0,0,-1\n"
        "ranks = 2\n"
        "rho = 1\n"
        "grading_a = 1\n"
        "grading_b = 2\n"
        "nonconvex = skip\n"
        "twist_weights = 1,0; 0,1; 1,1\n"
    )
    argv = ["period", "--config", str(cfg), "--dmax", "8", "--format", "records"]
    rc, fast, err = run(capsys, argv)
    assert rc == 0, err
    monkeypatch.setattr(
        "grperiod.assembler.oh_summand",
        lambda d, cls, ctx: ctx.kernel.pack(reference_summand(d, cls, ctx).terms),
    )
    rc, slow, err = run(capsys, argv)
    assert rc == 0, err
    assert fast == slow
    assert dict(parse_records(fast))[8] == 2419200


def test_target_mode_takes_a_single_rank(tmp_path, capsys):
    cfg = tmp_path / "steps.cfg"
    cfg.write_text("mode = target\nbase_dim = 3\ne_degrees = 0,0,0\nranks = 1,1\nrho = 1\n")
    rc, _, err = run(capsys, ["period", "--config", str(cfg), "--dmax", "2"])
    assert rc == 1
    assert "bad value for ranks" in err


def test_default_twist_level_and_unbounded_twist_level(capsys):
    argv = ["period", "--base-dim", "4", "--center-degrees", "1,2,2", "--dmax", "9"]
    rc, out, err = run(capsys, [*argv, "--format", "records"])
    assert rc == 0, err
    assert tuple(v for _, v in parse_records(out)) == oracle_blowup(4, (1, 2, 2), 9)
    rc, _, err = run(capsys, [*argv, "--twist-k", "3"])
    assert rc == 1
    assert "GradingError" in err


def test_verbatim_mode_reports_mismatch(capsys):
    rc, out, _ = run(capsys, ["period", "--mode", "example3-verbatim", "--dmax", "8"])
    assert rc == 0
    assert "8: 5040" in out
    assert "normalized blow-up" in out
    assert "MISMATCH at degrees [4, 7, 8]" in out


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("basedim = 4\n")
    rc, out, err = run(capsys, ["period", "--config", str(cfg)])
    assert rc == 1
    assert "unknown config key" in err


def test_malformed_config_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just some words\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(cfg))


def test_bad_mode_in_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mode = warp\n")
    rc, _, err = run(capsys, ["period", "--config", str(cfg)])
    assert rc == 1
    assert "mode must be one of" in err


TARGET_CONFIG = "mode = target\nbase_dim = 4\ne_degrees = 0,0,-1\nranks = 2\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("format = json\n", "format must be one of"),
        ("nonconvex = maybe\n", "nonconvex must be"),
        (TARGET_CONFIG, "target mode needs"),
        (TARGET_CONFIG + "rho = 1\ngrading_a = 1\n", "must be given together"),
    ],
)
def test_config_file_refusals(tmp_path, capsys, text, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    rc, _, err = run(capsys, ["period", *P4_ARGS, "--config", str(cfg), "--dmax", "2"])
    assert rc == 1
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize(
    "text, argv, setting",
    [
        ("", ["--mode", "example3-verbatim", "--twist-k", "2"], "twist_k"),
        (
            "mode = blowup\nbase_dim = 4\ncenter_degrees = 1,1,2\ngrading_a = 1\ngrading_b = 9\n",
            [],
            "grading_a, grading_b",
        ),
        (TARGET_CONFIG + "rho = 1\ngrading_a = 1\ngrading_b = 2\n", ["--twist-k", "2"], "twist_k"),
        ("mode = blowup\nbase_dim = 4\ncenter_degrees = 1,1,2\nnonconvex = skip\n", [], "nonconvex"),
        ("nonconvex = error\n", ["--mode", "example3-verbatim"], "nonconvex"),
    ],
    ids=[
        "verbatim-twist-k",
        "blowup-grading",
        "target-twist-k",
        "blowup-nonconvex",
        "verbatim-nonconvex",
    ],
)
def test_settings_the_mode_does_not_read_are_refused(tmp_path, capsys, text, argv, setting):
    # each of these runs used to print the series of a model other than the one asked for
    cfg = tmp_path / "unread.cfg"
    cfg.write_text(text)
    rc, out, err = run(capsys, ["period", "--config", str(cfg), *argv, "--dmax", "3"])
    assert rc == 1 and out == ""
    assert f"does not read {setting}" in err


@pytest.mark.parametrize("rows", ["1,0,7; 0,1,9", "1,0; 1"], ids=["long", "short"])
def test_target_mode_twist_rows_need_ranks_entries(tmp_path, capsys, rows):
    # with an explicit grading no anticanonical check sees the rows, and a
    # long row used to be cut to its first ranks entries
    cfg = tmp_path / "rows.cfg"
    cfg.write_text(
        TARGET_CONFIG + f"rho = 1\ngrading_a = 3\ngrading_b = 2\ntwist_weights = {rows}\n"
    )
    rc, out, err = run(capsys, ["jreport", "--config", str(cfg), "--dmax", "4"])
    assert rc == 1 and out == ""
    assert "twist_weights" in err
    assert "does not match rank" in err  # the engine's check, not a CLI copy of it


def test_blowup_mode_needs_model_args(capsys):
    rc, _, err = run(capsys, ["period", "--dmax", "2"])
    assert rc == 1
    assert "blowup mode needs" in err


def test_bad_z_flag_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["period", *P4_ARGS, "--z", "1/0"])
    assert exc.value.code == 2


def test_missing_config_file(capsys):
    rc, _, err = run(capsys, ["period", "--config", "/nonexistent/run.cfg"])
    assert rc == 1
    assert "error:" in err


def test_validate_all_pass(capsys):
    rc, out, _ = run(capsys, ["validate"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[-1] == "15/15 checks passed"
    assert all(line.startswith("PASS") for line in lines[:-1])


def test_validate_rejects_the_flags_of_period():
    # validate reads only --out, so a model or series flag is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--dmax", "3"])
    assert exc.value.code == 2


def test_validate_flip_b1_fails(capsys, monkeypatch):
    # the true values first, so the flipped B_1 never reaches bernoulli's cache
    values = [validation.bernoulli(m) for m in range(22)]

    def flipped(m):
        return -values[m] if m == 1 else values[m]

    monkeypatch.setattr(validation, "bernoulli", flipped)
    rc, out, _ = run(capsys, ["validate"])
    assert rc == 1
    lines = out.splitlines()
    assert any(line.startswith("FAIL gamma-identity") for line in lines)
    for upper in (-2, -1, 1, 2):
        assert any(line.startswith(f"FAIL delta-m(upper={upper})") for line in lines), upper


def test_validation_suite_names_are_stable():
    names = [name for name, _ in run_validation_suite()]
    assert names[0] == "gamma-identity"
    assert "oracle-blowup-p4-112" in names
    assert "oracle-blowup-euler" in names
    assert "r1-cross-check" in names
    assert len(names) == len(set(names)) == 15


def test_jreport_units_and_corrections(capsys):
    rc, out, _ = run(capsys, ["jreport", *P4_ARGS, "--dmax", "3"])
    assert rc == 0
    assert "  3: unit 2 z-power -2" in out
    assert "  class D=1 k=0: n=0" in out


@pytest.mark.parametrize(
    "base_dim, degrees", [("3", "3,4"), ("3", "2,4"), ("3", "2,5"), ("4", "1,5"), ("4", "1,3,3")]
)
def test_non_fano_blowup_has_units_but_no_period(capsys, base_dim, degrees):
    argv = ["--base-dim", base_dim, "--center-degrees", degrees, "--dmax", "4"]
    rc, out, err = run(capsys, ["period", *argv])
    assert rc == 1
    assert out == ""
    assert "NotFanoError" in err
    rc, out, err = run(capsys, ["jreport", *argv])
    assert rc == 0, err
    lines = out.splitlines()
    assert lines[0] == "I-function unit coefficients:"
    assert lines[1] == "  0: unit 1 z-power 1"
    assert lines[5].startswith("  4: unit ")
    assert lines[6].startswith("  (not a quantum period: ")
    assert "not Fano" in lines[6]


def test_jreport_of_a_fano_blowup_claims_nothing_more(capsys):
    rc, out, _ = run(capsys, ["jreport", *P4_ARGS, "--dmax", "3"])
    assert rc == 0
    assert "not a quantum period" not in out


def test_work_budget_env(monkeypatch, capsys):
    monkeypatch.setenv("GRPERIOD_WORK_BUDGET", "1")
    rc, _, err = run(capsys, ["period", *P4_ARGS, "--dmax", "8"])
    assert rc == 1
    assert "WorkBudgetError" in err
    monkeypatch.setenv("GRPERIOD_WORK_BUDGET", "0")  # 0 disables the guard
    rc, out, _ = run(capsys, ["period", *P4_ARGS, "--dmax", "8"])
    assert rc == 0
    for raw in ("abc", "-1"):  # -1 must not turn the guard off silently
        monkeypatch.setenv("GRPERIOD_WORK_BUDGET", raw)
        rc, _, err = run(capsys, ["period", *P4_ARGS, "--dmax", "8"])
        assert rc == 1
        assert "GRPERIOD_WORK_BUDGET" in err


def test_jreport_honours_the_work_budget(monkeypatch, capsys):
    monkeypatch.setenv("GRPERIOD_WORK_BUDGET", "1")
    rc, out, err = run(capsys, ["jreport", *P4_ARGS, "--dmax", "8"])
    assert rc == 1
    assert "WorkBudgetError" in err
    assert out == ""


def test_repeated_period_calls_leave_no_reference_cycles(tmp_path):
    # each call used to build a parser, whose reference cycles piled up
    # until the cyclic collector ran
    argv = ["period", *P4_ARGS, "--dmax", "6", "--format", "records", "--out", str(tmp_path / "p")]
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert main(argv) == 0
        gc.collect()
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_build_config_rejects_negative_dmax():
    parser = build_parser()
    args = parser.parse_args(["period", *P4_ARGS])
    with pytest.raises(ConfigError):
        build_config({"dmax": "-3"}, args)


# the command-line surface: flags, config keys, defaults and exit codes

SURFACE_FLAGS = {
    # option: (dest, choices, help)
    "--config": ("config", None, "flat key = value config file"),
    "--mode": ("mode", ["blowup", "target", "example3-verbatim"], None),
    "--base-dim": ("base_dim", None, None),
    "--center-degrees": ("center_degrees", None, "comma separated, e.g. 1,1,2"),
    "--twist-k": ("twist_k", None, None),
    "--dmax": ("dmax", None, None),
    "--z": ("z", None, "rational like 2 or 1/2"),
    "--out": ("out", None, None),
    "--format": ("format", ["table", "records", "csv"], None),
}

# one value for every config key, as written in a file and as read
FILE_VALUES = {
    "mode": ("target", "target"),
    "base_dim": ("4", 4),
    "center_degrees": ("1, 1,2", (1, 1, 2)),
    "twist_k": ("2", 2),
    "e_degrees": ("0,0,-1", (0, 0, -1)),
    "ranks": ("2", 2),
    "twist_weights": ("1,0; 0,1; 1,1", ((1, 0), (0, 1), (1, 1))),
    "rho": ("1", 1),
    "grading_a": ("3", 3),
    "grading_b": ("2", 2),
    "nonconvex": ("skip", "skip"),
    "dmax": ("5", 5),
    "z": ("-3/2", Fraction(-3, 2)),
    "out": ("series.txt", "series.txt"),
    "format": ("records", "records"),
}


def _subcommand_flags(name):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = sub.choices[name]._actions
    return {a.option_strings[-1]: a for a in actions if a.dest != "help"}


@pytest.mark.parametrize("command", ["period", "jreport"])
def test_cli_surface_flags(command):
    flags = _subcommand_flags(command)
    assert set(flags) == set(SURFACE_FLAGS)
    for option, (dest, choices, help_text) in SURFACE_FLAGS.items():
        action = flags[option]
        assert action.option_strings == [option]
        assert (action.dest, action.default, action.help) == (dest, None, help_text), option
        assert (list(action.choices) if action.choices else None) == choices, option


def test_cli_surface_validate_takes_only_out():
    flags = _subcommand_flags("validate")
    assert list(flags) == ["--out"]
    assert (flags["--out"].dest, flags["--out"].default, flags["--out"].choices) == ("out", None, None)


def test_cli_surface_every_config_key_round_trips(tmp_path):
    assert set(FILE_VALUES) == {f.name for f in dataclasses.fields(RunConfig)}
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{key} = {raw}  # {key}\n" for key, (raw, _) in FILE_VALUES.items()))
    args = build_parser().parse_args(["period", "--config", str(cfg)])
    got = build_config(parse_config_file(str(cfg)), args)
    assert got == RunConfig(**{key: value for key, (_, value) in FILE_VALUES.items()})


@pytest.mark.parametrize(
    "flag, raw, key, value",
    [
        ("--mode", "blowup", "mode", "blowup"),
        ("--base-dim", "6", "base_dim", 6),
        ("--center-degrees", "1,2,2", "center_degrees", (1, 2, 2)),
        ("--twist-k", "0", "twist_k", 0),
        ("--dmax", "0", "dmax", 0),
        ("--z", "1/3", "z", Fraction(1, 3)),
        ("--out", "-", "out", "-"),
        ("--format", "csv", "format", "csv"),
    ],
)
def test_cli_surface_flag_overrides_its_file_value(tmp_path, flag, raw, key, value):
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{k} = {text}\n" for k, (text, _) in FILE_VALUES.items()))
    args = build_parser().parse_args(["period", "--config", str(cfg), flag, raw])
    got = build_config(parse_config_file(str(cfg)), args)
    assert getattr(got, key) == value
    assert got.rho == 1  # a setting with no flag keeps its file value


@pytest.mark.parametrize(
    "argv", [["--format", "json"], ["--mode", "warp"], ["--z", "1/0"], ["--z", "x"]]
)
@pytest.mark.parametrize("command", ["period", "jreport"])
def test_cli_surface_bad_flag_values_exit_2(capsys, command, argv):
    with pytest.raises(SystemExit) as exc:
        main([command, *P4_ARGS, *argv])
    assert exc.value.code == 2
    assert argv[0] in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, raw", [("format", "json"), ("mode", "warp"), ("nonconvex", "maybe"), ("z", "1/0")]
)
def test_cli_surface_bad_file_values_exit_1_naming_the_key(tmp_path, capsys, key, raw):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {raw}\n")
    rc, out, err = run(capsys, ["period", *P4_ARGS, "--config", str(cfg), "--dmax", "2"])
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and key in err


@pytest.mark.parametrize("raw", ["1 1,2", "1,,2", "1,2,"])
def test_int_lists_refuse_inner_spaces_and_empty_entries(tmp_path, capsys, raw):
    # "1 1,2" is not the centre (11, 2), nor "1,,2" the centre (1, 2)
    with pytest.raises(SystemExit) as exc:
        main(["period", "--base-dim", "4", "--center-degrees", raw, "--dmax", "2"])
    assert exc.value.code == 2
    assert "--center-degrees" in capsys.readouterr().err
    for key in ("center_degrees", "e_degrees", "twist_weights"):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = {raw}\n")
        rc, out, err = run(capsys, ["period", "--config", str(cfg), "--dmax", "2"])
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and key in err


def test_int_lists_accept_spaces_around_entries(tmp_path):
    cfg = tmp_path / "spaced.cfg"
    cfg.write_text("center_degrees =  1 , 1,2 \ntwist_weights = 1,0;0, 1 ;  1 ,1\n")
    for argv, degrees in (([], (1, 1, 2)), (["--center-degrees", " 2, 3"], (2, 3))):
        args = build_parser().parse_args(["period", "--config", str(cfg), *argv])
        got = build_config(parse_config_file(str(cfg)), args)
        assert (got.center_degrees, got.twist_weights) == (degrees, ((1, 0), (0, 1), (1, 1)))


def test_negative_base_dim_is_refused_by_name(tmp_path, capsys):
    cfg = tmp_path / "neg.cfg"
    text = TARGET_CONFIG.replace("base_dim = 4", "base_dim = -2")
    cfg.write_text(text + "rho = 1\ngrading_a = 1\ngrading_b = 1\n")
    rc, out, err = run(capsys, ["jreport", "--config", str(cfg), "--dmax", "4"])
    assert rc == 1 and out == ""
    assert "base_dim" in err


# each setting is declared once, as a RunConfig field

SETTING_FIELDS = dataclasses.fields(RunConfig)


def test_the_flags_are_the_fields_marked_as_flags():
    flagged = {f.name for f in SETTING_FIELDS if f.metadata["flag"] is not None}
    assert len(flagged) == 8
    for command in ("period", "jreport"):
        assert {a.dest for a in _subcommand_flags(command).values()} == flagged | {"config"}


@pytest.mark.parametrize("name", [f.name for f in SETTING_FIELDS])
def test_every_field_is_a_config_key_with_a_parser(name):
    raw, value = FILE_VALUES[name]
    args = build_parser().parse_args(["period"])
    assert getattr(build_config({name: raw}, args), name) == value


MODE_CONFIGS = {
    "blowup": {"base_dim": 4, "center_degrees": (1, 1, 2)},
    "target": {"base_dim": 4, "e_degrees": (0, 0, -1), "ranks": 2, "rho": 1},
    "example3-verbatim": {},
}


@pytest.mark.parametrize(
    "name, mode",
    [
        (f.name, mode)
        for f in SETTING_FIELDS
        for mode in MODE_CONFIGS
        if f.metadata["modes"] and mode not in f.metadata["modes"]
    ],
)
def test_a_setting_set_for_a_mode_that_does_not_read_it_is_refused(name, mode):
    cfg = RunConfig(mode=mode, **MODE_CONFIGS[mode], **{name: FILE_VALUES[name][1]})
    with pytest.raises(ConfigError, match=f"{mode} mode does not read {name}$"):
        build_model(cfg)
