"""Tests for the verification harness: suite runs, reports, convergence.

Oracles
-------
The harness itself computes nothing new, so the tests here pin plumbing
behaviour: configuration validation, report schema and determinism, exit
codes, and the shape of convergence ladders.  Decay expectations reuse the
refinement oracles of the underlying checks (quadrature residuals of a
fixed family must fall by at least 4x per grid doubling while above the
rounding floor; exact symbolic paths must not move at all).
"""

import csv
import io
import json
import math
import re
import sys

import numpy as np
import pytest

from virbott import cli, cocycle
from virbott.cli import (
    Report,
    SuiteConfig,
    check_names,
    convergence_study,
    main,
    run_suite,
    write_convergence_csv,
)
from virbott.errors import ConfigError, NumericError

# grids small enough that a full 'all' sweep stays in the second range
SMALL = dict(n_r=12, n_theta=24, n_rho=6, n_plane=16)


def small_config(**kw):
    merged = dict(SMALL)
    merged.update(kw)
    return SuiteConfig(**merged)


# ----------------------------------------------------------------------
# configuration validation
# ----------------------------------------------------------------------

def test_unknown_suite_is_rejected():
    with pytest.raises(ConfigError):
        SuiteConfig(suite="everything")


def test_grid_bounds_surface_as_config_errors():
    with pytest.raises(ConfigError):
        SuiteConfig(n_r=2)
    with pytest.raises(ConfigError):
        SuiteConfig(n_plane=1)
    with pytest.raises(ConfigError):
        SuiteConfig(L=0.5)


def test_bad_plan_name_and_jobs_are_rejected():
    with pytest.raises(ConfigError):
        SuiteConfig(plan="symbolic")
    with pytest.raises(ConfigError):
        SuiteConfig(jobs=0)


@pytest.mark.parametrize("field, value, kind", [
    ("jobs", 2.5, "an integer"), ("seed", 2.9, "an integer"),
    ("n_r", 16.6, "an integer"), ("n_theta", 32.0, "an integer"),
    ("n_rho", "8", "an integer"), ("n_plane", math.inf, "an integer"),
    ("n_r", math.nan, "an integer"), ("c0", "abc", "a number"),
    ("c0", None, "a number"), ("L", "wide", "a number"),
    pytest.param("c0", 10 ** 400, "a number", id="c0-int-past-float")])
def test_non_integral_sizes_and_non_numbers_are_config_errors(field, value,
                                                              kind):
    # nothing is truncated, and no raw TypeError, ValueError or
    # OverflowError escapes
    with pytest.raises(ConfigError, match=f"^{field} must be {kind}, got "):
        SuiteConfig(**{field: value})


@pytest.mark.parametrize("value", ["abc", None, [1e-3], 10 ** 400],
                         ids=["str", "none", "list", "int-past-float"])
def test_a_tolerance_that_is_no_number_is_a_config_error(value):
    # the conversion sits inside the guard, so no raw error escapes
    with pytest.raises(ConfigError, match=re.escape(
            f"tolerance for 'eta-closed-2' must be a number, got {value!r}")):
        SuiteConfig(tolerances={"eta-closed-2": value})


def test_integer_fields_keep_numpy_integers_as_ints():
    cfg = small_config(n_r=np.int64(12), seed=np.int32(3), jobs=np.int8(2))
    assert (cfg.n_r, cfg.seed, cfg.jobs) == (12, 3, 2)
    assert all(type(v) is int for v in (cfg.n_r, cfg.seed, cfg.jobs))


def test_unknown_tolerance_key_is_rejected_at_run_time():
    cfg = small_config(suite="forms", tolerances={"no-such-check": 1.0})
    with pytest.raises(ConfigError):
        run_suite(cfg)


def test_with_grids_rejects_unknown_dimensions():
    with pytest.raises(ConfigError):
        small_config().with_grids(n_z=10)


def test_negative_seed_is_a_config_error():
    with pytest.raises(ConfigError, match="seed"):
        SuiteConfig(seed=-1)
    assert main(["verify", "--suite", "forms", "--seed", "-1"]) == 2


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-6])
def test_non_finite_or_negative_tolerance_is_a_config_error(bad):
    with pytest.raises(ConfigError, match="eta-closed-2"):
        SuiteConfig(tolerances={"eta-closed-2": bad})


def test_with_grids_keeps_every_other_setting():
    cfg = small_config(suite="forms", c0=0.5, plan="fd4", seed=4, jobs=2,
                       timing=True, out_path="r.json",
                       tolerances={"eta-closed-2": 0.1})
    sub = cfg.with_grids(n_r=16)
    assert (sub.n_r, sub.n_theta) == (16, cfg.n_theta)
    for key in SuiteConfig.__slots__:
        if key not in ("n_r", "cocycle_cfg"):
            assert getattr(sub, key) == getattr(cfg, key), key


def test_check_names_cover_the_suites():
    names = check_names("all")
    assert set(names) == {n for s in ("cocycle", "wz", "liealg", "forms")
                          for n in check_names(s)}
    assert names == sorted(names)
    assert "gamma-cocycle" in check_names("cocycle")
    assert "generator-bracket-ll" in check_names("liealg")


# ----------------------------------------------------------------------
# suite runs and reports
# ----------------------------------------------------------------------

def test_liealg_suite_passes_at_default_grids():
    report = run_suite(SuiteConfig(suite="liealg"))
    assert report.passed
    by_name = {c.name: c for c in report.checks}
    for kind in ("ll", "lj", "jj"):
        assert by_name[f"generator-bracket-{kind}"].residual <= 1e-10


def test_under_resolved_cocycle_suite_fails_but_reports_cleanly():
    report = run_suite(SuiteConfig(suite="cocycle", n_r=8, n_theta=16))
    assert not report.passed
    failed = [c for c in report.checks if not c.passed]
    assert any(c.name == "gamma-cocycle" for c in failed)
    parsed = json.loads(report.to_json())
    assert sorted(parsed) == ["checks", "meta", "suite"]
    for entry in parsed["checks"]:
        assert sorted(entry) == ["law", "name", "params", "pass",
                                 "residual", "tolerance"]
        assert isinstance(entry["residual"], float)


def test_reports_are_byte_identical_for_a_fixed_seed(tmp_path):
    # wall time is reported as null unless timing is requested, so the
    # whole JSON artifact is reproducible
    out = tmp_path / "report.json"
    cfg = small_config(suite="all", seed=7, out_path=str(out))
    first = run_suite(cfg).to_json()
    on_disk = out.read_text()
    second = run_suite(cfg).to_json()
    assert first == second == on_disk
    assert json.loads(first)["meta"]["wall_time_seconds"] is None


def test_timing_opt_in_records_the_measured_wall_time():
    report = run_suite(small_config(suite="forms", timing=True))
    recorded = report.meta["wall_time_seconds"]
    assert recorded == report.wall_time > 0.0


def test_timing_records_each_check_wall_time():
    timed = run_suite(small_config(suite="liealg", timing=True))
    for row in json.loads(timed.to_json())["checks"]:
        assert math.isfinite(row["wall_time_seconds"]), row["name"]
        assert row["wall_time_seconds"] > 0.0, row["name"]
    untimed = run_suite(small_config(suite="liealg"))
    assert all("wall_time_seconds" not in c.as_dict() for c in untimed.checks)


@pytest.mark.skipif(cli._getrusage is None,
                    reason="no per-thread rusage (RUSAGE_THREAD) here")
@pytest.mark.parametrize("jobs", [1, 2])
def test_timing_records_each_check_minor_faults(jobs):
    timed = run_suite(small_config(suite="cocycle", timing=True, jobs=jobs))
    rows = json.loads(timed.to_json())["checks"]
    for row in rows:
        assert type(row["minor_faults"]) is int, row["name"]
        assert row["minor_faults"] >= 0, row["name"]
    assert timed.meta["minor_faults"] == sum(r["minor_faults"] for r in rows)
    untimed = run_suite(small_config(suite="cocycle", jobs=jobs))
    assert "minor_faults" not in untimed.meta
    assert all("minor_faults" not in c.as_dict() for c in untimed.checks)


def test_timing_leaves_faults_out_where_threads_do_not_count_them(
        monkeypatch):
    monkeypatch.setattr(cli, "_getrusage", None)
    timed = run_suite(small_config(suite="forms", timing=True))
    assert "minor_faults" not in timed.meta
    for row in json.loads(timed.to_json())["checks"]:
        assert "minor_faults" not in row and row["wall_time_seconds"] > 0.0


def test_parallel_jobs_produce_the_serial_report():
    serial = run_suite(small_config(suite="all", seed=3))
    parallel = run_suite(small_config(suite="all", seed=3, jobs=4))
    assert [c.as_dict() for c in parallel.checks] \
        == [c.as_dict() for c in serial.checks]


def test_tolerance_override_is_applied_per_check():
    cfg = SuiteConfig(suite="cocycle", n_r=8, n_theta=16,
                      tolerances={"gamma-cocycle": 10.0})
    report = run_suite(cfg)
    by_name = {c.name: c for c in report.checks}
    assert by_name["gamma-cocycle"].passed
    assert by_name["gamma-cocycle"].tolerance == 10.0


def test_crashing_check_is_recorded_not_thrown(monkeypatch):
    def boom(ctx):
        raise NumericError("quadrature produced non-finite values")
    monkeypatch.setitem(
        cli._REGISTRY, "boom-check",
        cli._Check("boom-check", "forms", "never holds", 1e-6,
                   ("n_r", "n_theta"), boom))
    report = run_suite(small_config(suite="forms"))
    by_name = {c.name: c for c in report.checks}
    assert not by_name["boom-check"].passed
    assert "NumericError" in by_name["boom-check"].params["error"]
    json.loads(report.to_json())  # still schema-valid, residual finite


def test_check_crashing_outside_the_package_errors_is_a_failing_row(
        monkeypatch):
    def bug(ctx):
        return {}["missing"]
    monkeypatch.setitem(
        cli._REGISTRY, "bug-check",
        cli._Check("bug-check", "forms", "never holds", 1e-6,
                   ("n_r", "n_theta"), bug))
    report = run_suite(small_config(suite="forms"))
    row = {c.name: c for c in report.checks}["bug-check"]
    assert not row.passed
    assert row.residual == sys.float_info.max
    assert row.params["error"] == "KeyError: 'missing'"
    assert len(report.checks) == len(check_names("forms"))


def test_crashed_ladder_level_is_a_failing_row(monkeypatch, tmp_path,
                                               capsys):
    def fragile(ctx):
        if ctx.cfg.n_r > 8:
            raise ZeroDivisionError("level too fine")
        return 1.0, 0.5, {}
    monkeypatch.setitem(
        cli._REGISTRY, "fragile-check",
        cli._Check("fragile-check", "forms", "never holds", 1e-6,
                   ("n_r", "n_theta"), fragile))
    rows = convergence_study("fragile-check",
                             [{"n_r": 8, "n_theta": 16},
                              {"n_r": 16, "n_theta": 32},
                              {"n_r": 32, "n_theta": 64}],
                             small_config())
    assert [row["n_r"] for row in rows] == [8, 16, 32]
    assert rows[0]["residual"] == 0.5 and "error" not in rows[0]
    for row in rows[1:]:
        assert math.isnan(row["value"])
        assert row["residual"] == sys.float_info.max
        assert row["error"] == "ZeroDivisionError: level too fine"
    out = tmp_path / "ladder.csv"
    assert main(["converge", "fragile-check", "--grid-r", "8",
                 "--grid-theta", "16", "--levels", "2",
                 "--out", str(out)]) == 1
    assert "ZeroDivisionError: level too fine" in capsys.readouterr().err
    assert len(out.read_text().strip().splitlines()) == 3


def test_check_set_up_crash_is_a_failing_row(monkeypatch):
    def no_stream(name, seed):
        raise ValueError(f"no stream for {name}")
    monkeypatch.setattr(cli, "_rng_for", no_stream)
    report = run_suite(small_config(suite="forms"))
    assert len(report.checks) == len(check_names("forms"))
    for row in report.checks:
        assert not row.passed
        assert row.params["error"] == f"ValueError: no stream for {row.name}"


def test_report_overall_pass_means_every_check_passed():
    report = run_suite(small_config(suite="forms"))
    assert report.passed == all(c.passed for c in report.checks)
    assert report.summary_lines()[-1].startswith("suite 'forms':")


# ----------------------------------------------------------------------
# convergence studies
# ----------------------------------------------------------------------

def test_gamma_cocycle_ladder_decays_fourfold_per_step():
    # the identity converges spectrally: its quadrature window sits below
    # 32 radial nodes, after which residuals live at the rounding floor
    rows = convergence_study("gamma-cocycle",
                             [{"n_r": 8, "n_theta": 16},
                              {"n_r": 16, "n_theta": 32},
                              {"n_r": 32, "n_theta": 64}],
                             small_config(seed=0))
    res = [row["residual"] for row in rows]
    assert res[0] >= 4.0 * res[1] >= 16.0 * res[2]
    assert [row["n_r"] for row in rows] == [8, 16, 32]


def test_wz_extension_independence_rho_ladder_records_decay():
    rows = convergence_study("wz-extension-independence",
                             [{"n_rho": 6}, {"n_rho": 12}, {"n_rho": 24}],
                             small_config(n_plane=32))
    res = [row["residual"] for row in rows]
    assert res[0] > res[1] > res[2]
    assert [row["n_rho"] for row in rows] == [6, 12, 24]
    assert all(row["n_plane"] == 32 for row in rows)


def test_wz_extension_independence_ladder_is_block_independent(monkeypatch):
    # W of the first two levels of the benchmark's wz ladder: the 24x64^2
    # grid spans several node blocks, yet its sum equals one whole-grid
    # batch bit for bit, since the twist's inverse needs no Newton step
    levels = [{"n_rho": 12, "n_plane": 32}, {"n_rho": 24, "n_plane": 64}]

    def ladder():
        rows = convergence_study("wz-extension-independence", levels,
                                 small_config())
        return [row["value"] for row in rows]

    blocked = ladder()
    monkeypatch.setattr(cocycle, "_BLOCK", 24 * 64 * 64)
    assert blocked == ladder()
    # the values recorded before node blocks existed, up to a few ulps of
    # platform-dependent libm rounding
    assert blocked == pytest.approx([0.19156873151698733, 0.1919087658427679],
                                    rel=1e-13, abs=0.0)


def test_exact_symbolic_check_is_grid_flat():
    rows = convergence_study("generator-bracket-ll",
                             [{"n_r": 16, "n_theta": 32},
                              {"n_r": 32, "n_theta": 64},
                              {"n_r": 64, "n_theta": 128}],
                             small_config())
    assert all(row["residual"] <= 1e-12 for row in rows)
    assert len({row["residual"] for row in rows}) == 1


def test_convergence_rejects_unknown_checks_and_bad_entries():
    with pytest.raises(ConfigError):
        convergence_study("no-such-check", [{"n_r": 8, "n_theta": 16}],
                          small_config())
    # an entry is a dict over grid dimensions; a tuple of sizes is refused
    for entry in ((8, 16), (8, 16, 4), [8, 16, 6, 16], 8):
        with pytest.raises(ConfigError, match="must be a dict"):
            convergence_study("gamma-cocycle", [entry], small_config())
    with pytest.raises(ConfigError):
        convergence_study("gamma-cocycle", [{"n_q": 8}], small_config())


def test_csv_writer_emits_the_fixed_header():
    rows = convergence_study("generator-bracket-jj",
                             [{"n_r": 16, "n_theta": 32}], small_config())
    buf = io.StringIO()
    write_convergence_csv(rows, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "check,n_r,n_theta,n_rho,n_plane,value,residual"
    assert lines[1].startswith("generator-bracket-jj,16,32,")


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------

def test_cli_verify_passes_and_writes_report(tmp_path, capsys):
    out = tmp_path / "forms.json"
    code = main(["verify", "--suite", "forms", "--grid-r", "16",
                 "--grid-theta", "48", "--ball-rho", "6", "--ball-xy", "16",
                 "--seed", "5", "--out", str(out)])
    assert code == 0
    parsed = json.loads(out.read_text())
    assert parsed["suite"] == "forms"
    assert parsed["meta"]["grids"]["n_r"] == 16
    assert parsed["meta"]["seed"] == 5
    assert parsed["meta"]["wall_time_seconds"] is None
    assert "suite 'forms':" in capsys.readouterr().out


def test_cli_timing_flag_puts_real_time_in_the_report(tmp_path):
    out = tmp_path / "timed.json"
    code = main(["verify", "--suite", "forms", "--grid-r", "12",
                 "--grid-theta", "24", "--timing", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["meta"]["wall_time_seconds"] > 0.0


def test_cli_verify_exit_code_follows_failures():
    code = main(["verify", "--suite", "cocycle", "--grid-r", "8",
                 "--grid-theta", "16"])
    assert code == 1


def test_cli_tol_flag_relaxes_failing_checks():
    code = main(["verify", "--suite", "cocycle", "--grid-r", "8",
                 "--grid-theta", "16",
                 "--tol", "gamma-cocycle=1.0",
                 "--tol", "ext-associativity=1.0"])
    assert code == 0


def test_cli_config_file_with_flag_override(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# harness settings\n"
        "suite = cocycle\n"
        "grid-theta = 24\n"
        "tol = gamma-cocycle=0.5\n")
    out = tmp_path / "report.json"
    code = main(["verify", "--config", str(config), "--suite", "forms",
                 "--grid-r", "12", "--ball-rho", "6", "--ball-xy", "16",
                 "--out", str(out)])
    assert code == 0
    parsed = json.loads(out.read_text())
    assert parsed["suite"] == "forms"          # flag beats the file
    assert parsed["meta"]["grids"]["n_r"] == 12
    assert parsed["meta"]["grids"]["n_theta"] == 24   # file beats defaults


def test_cli_converge_writes_csv(tmp_path):
    out = tmp_path / "decay.csv"
    code = main(["converge", "gamma-cocycle", "--grid-r", "8",
                 "--grid-theta", "16", "--levels", "3", "--out", str(out)])
    assert code == 0
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [row["n_r"] for row in rows] == ["8", "16", "32"]
    assert float(rows[0]["residual"]) >= 4.0 * float(rows[1]["residual"])


def test_cli_rejects_broken_configuration(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("grid_r = 16\n")   # underscore: not a flag name
    assert main(["verify", "--config", str(config)]) == 2
    assert "unknown key" in capsys.readouterr().err
    assert main(["verify", "--suite", "forms", "--grid-r", "2"]) == 2
    assert main(["verify", "--suite", "forms",
                 "--tol", "gamma-cocycle=fast"]) == 2


def test_cli_non_finite_tolerance_from_flag_or_file_is_rejected(tmp_path,
                                                              capsys):
    assert main(["verify", "--suite", "forms",
                 "--tol", "eta-closed-2=nan"]) == 2
    assert "eta-closed-2" in capsys.readouterr().err
    config = tmp_path / "inf.cfg"
    config.write_text("tol = eta-closed-2=inf\n")
    assert main(["verify", "--suite", "forms", "--config", str(config)]) == 2
    assert "eta-closed-2" in capsys.readouterr().err


# a box of half-width 1e308 is finite, but its width 2 L overflows to inf
@pytest.mark.parametrize("box", ["nan", "inf", "1e308"])
def test_non_finite_plane_box_is_a_config_error(box, tmp_path, capsys):
    with pytest.raises(ConfigError, match="plane box"):
        SuiteConfig(L=float(box))
    assert main(["verify", "--suite", "wz", "--plane-box", box]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"L={float(box)!r}" in err
    config = tmp_path / "box.cfg"
    config.write_text(f"suite = wz\nplane-box = {box}\n")
    assert main(["verify", "--config", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"L={float(box)!r}" in err


def test_wz_extension_independence_fails_when_w_reads_zero():
    # no node of a 16^2 plane grid on [-100, 100]^2 lands where the twist
    # moves, so W reads exactly 0 on both extensions: not a pass
    report = run_suite(small_config(suite="wz", L=100.0))
    row, = [r for r in report.checks if r.name == "wz-extension-independence"]
    assert not row.passed
    assert row.params["error"].startswith(
        "DomainError: ball map moves no plane node")


def test_wz_boundary_trivial_fails_when_no_plane_node_moves():
    # W = 0 is what the row expects, so W reading 0 on a box whose plane
    # nodes all miss the maps' supports must not pass
    cfg = small_config(suite="wz", L=100.0)
    _, row = cli._run_check(cli._REGISTRY["wz-boundary-trivial"], cfg)
    assert not row.passed
    assert row.params["error"].startswith(
        "DomainError: ball map moves no plane node")
    _, row = cli._run_check(cli._REGISTRY["wz-boundary-trivial"],
                            small_config(suite="wz"))
    assert row.passed and "error" not in row.params


@pytest.mark.parametrize("plan", ["analytic", "fd4"])
def test_every_wz_row_names_a_box_that_moves_no_plane_node(plan):
    # omega0-coboundary and delta-g-normality read their disc side alone
    # there, which looks like an under-resolved quadrature without the cause
    report = run_suite(small_config(suite="wz", L=100.0, plan=plan))
    assert [r.name for r in report.checks] == check_names("wz")
    for row in report.checks:
        assert not row.passed, row.name
        assert row.params["error"].startswith(
            "DomainError: ball map moves no plane node of the box "
            "L = 100.0"), row.name


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "forms"],
    ["converge", "gamma-cocycle", "--grid-r", "8", "--grid-theta", "16",
     "--levels", "1"]])
def test_unwritable_out_is_a_config_error(argv, tmp_path, capsys):
    # status 1 is a failed check; a path that cannot be written is not one
    path = tmp_path / "missing" / "out.txt"
    assert main(argv + ["--out", str(path)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"virbott: cannot write {str(path)!r}: ")
    assert len(err.splitlines()) == 1 and not path.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "forms"],
    ["converge", "gamma-cocycle", "--grid-r", "8", "--grid-theta", "16",
     "--levels", "1"]])
@pytest.mark.parametrize("target, why", [
    ("missing/out.txt", "no directory"), (".", "it is a directory")])
def test_unwritable_out_fails_before_any_check_runs(argv, target, why,
                                                    tmp_path, monkeypatch,
                                                    capsys):
    calls = []
    run_check = cli._run_check
    monkeypatch.setattr(cli, "_run_check",
                        lambda *args: calls.append(args) or run_check(*args))
    path = tmp_path / target
    assert main(argv + ["--out", str(path)]) == 2
    assert calls == []
    err = capsys.readouterr().err
    assert err.startswith(f"virbott: cannot write {str(path)!r}: {why}")


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "forms"],
    ["converge", "gamma-cocycle", "--grid-r", "8", "--grid-theta", "16",
     "--levels", "1"]])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_empty_out_is_a_config_error(argv, source, tmp_path, monkeypatch,
                                     capsys):
    # an empty path names no file: it must neither skip the report nor
    # send the CSV to stdout
    calls = []
    run_check = cli._run_check
    monkeypatch.setattr(cli, "_run_check",
                        lambda *args: calls.append(args) or run_check(*args))
    if source == "flag":
        extra = ["--out", ""]
    else:
        config = tmp_path / "run.cfg"
        config.write_text("out =\n")
        extra = ["--config", str(config)]
    assert main(argv + extra) == 2
    assert calls == []
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "virbott: cannot write '': the path is empty\n"


def test_a_failed_config_leaves_an_existing_out_file_alone(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("earlier report\n")
    assert main(["verify", "--suite", "forms", "--tol", "no-such-check=1",
                 "--out", str(path)]) == 2
    assert path.read_text() == "earlier report\n"


@pytest.mark.parametrize("c0", [1.0, 1.7])
def test_heisenberg_display_is_a_passing_liealg_row(c0):
    assert "heisenberg-display" in check_names("liealg")
    value, row = cli._run_check(cli._REGISTRY["heisenberg-display"],
                                small_config(suite="liealg", c0=c0))
    assert row.passed and row.tolerance == 1e-12
    assert row.params == {"n_r": 12, "n_theta": 24, "pairs": 4}
    assert abs(value) > 0.1         # not 0 = 0


# ----------------------------------------------------------------------
# config files are read as the verb's own flags
# ----------------------------------------------------------------------

# one small forms run, as config lines and as the same flags
FORMS_LINES = ("suite = forms\ngrid-r = 12\ngrid-theta = 24\nball-rho = 6\n"
               "ball-xy = 16\nseed = 2\nplan = fd4\n")
FORMS_FLAGS = ["--suite", "forms", "--grid-r", "12", "--grid-theta", "24",
               "--ball-rho", "6", "--ball-xy", "16", "--seed", "2",
               "--plan", "fd4"]


def test_cli_bad_file_value_is_an_argument_error(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("suite = forms\ngrid-r = abc\n")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", str(config)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "grid-r" in err and "Traceback" not in err
    # the file and line are named, as for an unknown key
    assert f"{config}:2: argument --grid-r: invalid int value: 'abc'" in err


@pytest.mark.parametrize("line, message", [
    ("plan = fd5", "argument --plan: invalid choice: 'fd5'"),
    ("levels = two", "argument --levels: invalid int value: 'two'"),
])
def test_cli_bad_converge_file_value_names_its_line(tmp_path, capsys, line,
                                                    message):
    config = tmp_path / "ladder.cfg"
    config.write_text(f"grid-r = 8\n# a comment\n{line}\n")
    with pytest.raises(SystemExit) as exc:
        main(["converge", "generator-bracket-jj", "--config", str(config)])
    assert exc.value.code == 2
    assert f"{config}:3: {message}" in capsys.readouterr().err


def test_cli_converge_checks_the_tolerance_names(capsys):
    ladder = ["converge", "generator-bracket-jj", "--grid-r", "8",
              "--grid-theta", "16", "--levels", "1"]
    assert main(ladder + ["--tol", "no-such-check=1"]) == 2
    assert "no-such-check" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="no-such-check"):
        convergence_study("generator-bracket-jj", [{"n_r": 8, "n_theta": 16}],
                          small_config(tolerances={"no-such-check": 1.0}))
    # a known name is accepted, and the CSV does not show it
    assert main(ladder) == 0
    plain = capsys.readouterr().out
    assert main(ladder + ["--tol", "generator-bracket-jj=1"]) == 0
    assert capsys.readouterr().out == plain


def test_cli_tol_flag_beats_the_file_tol_line(tmp_path):
    config = tmp_path / "tol.cfg"
    config.write_text(FORMS_LINES + "tol = eta-closed-2 = 1e-3\n")
    out = tmp_path / "report.json"
    assert main(["verify", "--config", str(config),
                 "--tol", "eta-closed-2=0.5", "--out", str(out)]) == 0
    rows = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert rows["eta-closed-2"]["tolerance"] == 0.5


def test_cli_converge_reads_levels_and_out_and_ignores_verify_keys(
        tmp_path):
    out = tmp_path / "ladder.csv"
    config = tmp_path / "ladder.cfg"
    config.write_text(f"levels = 2\nout = {out}\nsuite = nonsense\n"
                      f"timing = maybe\ngrid-r = 8\ngrid-theta = 16\n")
    assert main(["converge", "generator-bracket-jj",
                 "--config", str(config)]) == 0
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [row["n_r"] for row in rows] == ["8", "16"]


def test_cli_verify_ignores_the_file_levels(tmp_path):
    config = tmp_path / "verify.cfg"
    config.write_text(FORMS_LINES + "levels = 0\n")
    out = tmp_path / "report.json"
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["suite"] == "forms"


def test_cli_config_file_report_matches_the_flags_report(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(FORMS_LINES + "tol = eta-closed-3=1e-9\n"
                      "timing = false\njobs = 2\n")
    from_file, from_flags = tmp_path / "file.json", tmp_path / "flags.json"
    assert main(["verify", "--config", str(config),
                 "--out", str(from_file)]) == 0
    assert main(["verify", *FORMS_FLAGS, "--tol", "eta-closed-3=1e-9",
                 "--jobs", "2", "--out", str(from_flags)]) == 0
    assert from_file.read_bytes() == from_flags.read_bytes()
