from fractions import Fraction

import pytest

from grperiod.cli import (
    ConfigError,
    build_config,
    build_parser,
    main,
    parse_config_file,
    parse_records,
    run_validation_suite,
)

P4_ARGS = ["--base-dim", "4", "--center-degrees", "1,1,2"]


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
    monkeypatch.setattr("grperiod.assembler.oh_summand", reference_summand)
    rc, slow, err = run(capsys, argv)
    assert rc == 0, err
    assert fast == slow
    assert dict(parse_records(fast))[8] == 2419200


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
    assert lines[-1] == "14/14 checks passed"
    assert all(line.startswith("PASS") for line in lines[:-1])


def test_validate_flip_b1_fails(capsys):
    rc, out, _ = run(capsys, ["validate", "--flip-b1"])
    assert rc == 1
    assert any(line.startswith("FAIL gamma-identity") for line in out.splitlines())


def test_validation_suite_names_are_stable():
    names = [name for name, _ in run_validation_suite()]
    assert names[0] == "gamma-identity"
    assert "oracle-blowup-p4-112" in names
    assert "r1-cross-check" in names
    assert len(names) == len(set(names)) == 14


def test_jreport_units_and_corrections(capsys):
    rc, out, _ = run(capsys, ["jreport", *P4_ARGS, "--dmax", "3"])
    assert rc == 0
    assert "  3: unit 2 z-power -2" in out
    assert "  class D=1 k=(0,): n=0" in out


def test_work_budget_env(monkeypatch, capsys):
    monkeypatch.setenv("GRPERIOD_WORK_BUDGET", "1")
    rc, _, err = run(capsys, ["period", *P4_ARGS, "--dmax", "8"])
    assert rc == 1
    assert "WorkBudgetError" in err
    monkeypatch.setenv("GRPERIOD_WORK_BUDGET", "0")  # 0 disables the guard
    rc, out, _ = run(capsys, ["period", *P4_ARGS, "--dmax", "8"])
    assert rc == 0


def test_build_config_rejects_negative_dmax():
    parser = build_parser()
    args = parser.parse_args(["period", *P4_ARGS])
    with pytest.raises(ConfigError):
        build_config({"dmax": "-3"}, args)
