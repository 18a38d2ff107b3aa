"""End-to-end coverage of the command-line driver: config parsing, figure
and sweep output, exit codes, and byte-level determinism."""

import filecmp
import hashlib
import itertools
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cavshare import (
    CapacityExceeded,
    InvalidParameter,
    ParityKind,
    ParseError,
    StepSizeUnstable,
    SystemParams,
    UnknownKey,
    coherent_concurrence,
)
from cavshare import cli
from cavshare.dissipative import damped_concurrence
from cavshare.verify import SuiteResult, VerifyCase, run_all


def _read_csv(path):
    with open(path, "r", encoding="ascii", newline="") as handle:
        raw = handle.read()
    assert raw.endswith("\n") and "\r" not in raw
    lines = raw.splitlines()
    assert lines[0].startswith("# ")
    meta = dict(item.split("=", 1) for item in lines[0][2:].split(" "))
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return meta, header, rows


def _column(header, rows, name, cast=float):
    idx = header.index(name)
    return [cast(row[idx]) for row in rows]


# --- config parsing -----------------------------------------------------------

def test_parse_config_basic_document():
    # the keys that were set and nothing else: an unset key is absent
    cfg = cli.parse_config("command = figure\nfigure = fig1\nN = 3\n")
    assert cfg == {"command": "figure", "figure": "fig1", "N": 3}
    assert cli.parse_config("") == {}


def test_parse_config_comments_and_blank_lines():
    text = "\n# full-line comment\ncommand = sweep  # trailing comment\n\nalpha2 = 0.5\n"
    assert cli.parse_config(text) == {"command": "sweep", "alpha2": 0.5}


def test_parse_config_unknown_key():
    with pytest.raises(UnknownKey):
        cli.parse_config("foo = 1\n")


def test_parse_config_errors_carry_line_numbers():
    with pytest.raises(ParseError) as info:
        cli.parse_config("command = figure\nthis line has no equals sign\n")
    assert info.value.line == 2
    with pytest.raises(ParseError) as info:
        cli.parse_config("N = three\n")
    assert "an integer" in str(info.value)
    with pytest.raises(ParseError) as info:
        cli.parse_config("alpha2 = much\n")
    assert "a number" in str(info.value)
    with pytest.raises(ParseError):
        cli.parse_config("figure = fig9\n")
    with pytest.raises(ParseError):
        cli.parse_config("parity = sideways\n")
    with pytest.raises(ParseError):
        cli.parse_config("command = dance\n")


def test_parse_config_parity_is_case_insensitive():
    assert cli.parse_config("parity = EVEN\n") == {"parity": ParityKind.EVEN}
    assert cli.parse_config("parity = Odd\n") == {"parity": ParityKind.ODD}


def test_flags_override_config_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    conf = tmp_path / "run.conf"
    conf.write_text("command = figure\nfigure = fig1\nN = 3\npoints = 9\n")
    code = cli.entrypoint(["--config", str(conf), "--N", "5", "--out", "a.csv"])
    assert code == 0
    meta, _, _ = _read_csv(tmp_path / "a.csv")
    assert meta["N"] == "5"
    assert meta["points"] == "9"


# --- figure content -------------------------------------------------------------

def test_fig1_peaks_at_quarter_period(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.entrypoint(["--figure", "fig1"]) == 0
    meta, header, rows = _read_csv(tmp_path / "fig1.csv")
    assert meta["N"] == "3" and meta["points"] == "801"
    assert header == ["Gt", "concurrence", "mean_photon"]
    gts = _column(header, rows, "Gt")
    cs = _column(header, rows, "concurrence")
    photons = _column(header, rows, "mean_photon")
    top = int(np.argmax(cs))
    assert math.isclose(gts[top], math.pi / 2.0, abs_tol=1e-12)
    assert math.isclose(cs[top], 2.0 / 3.0, abs_tol=1e-12)
    assert photons[top] < 1e-12
    # empty cavity exactly when sharing is maximal
    assert math.isclose(photons[0], 1.0, abs_tol=1e-15)


def test_fig2_surface_covers_both_axes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.entrypoint(["--figure", "fig2a", "--points", "5"]) == 0
    meta, header, rows = _read_csv(tmp_path / "fig2a.csv")
    assert meta["parity"] == "odd"
    assert header == ["Gt", "intensity", "concurrence"]
    assert len(rows) == 5 * 61
    xs = sorted(set(_column(header, rows, "intensity")))
    assert xs[0] == 0.0 and xs[-1] == 6.0
    assert cli.entrypoint(["--figure", "fig2b", "--points", "5"]) == 0
    meta_b, _, _ = _read_csv(tmp_path / "fig2b.csv")
    assert meta_b["parity"] == "even"


def test_fig2c_pair_curve_saturates(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.entrypoint(["--figure", "fig2c"]) == 0
    meta, header, rows = _read_csv(tmp_path / "fig2c.csv")
    assert meta["parity"] == "odd"
    assert header == ["intensity", "max_concurrence", "N"]
    ns = _column(header, rows, "N", int)
    assert sorted(set(ns)) == [2, 3, 5, 10]
    pair_rows = [float(r[1]) for r in rows if int(r[2]) == 2]
    assert len(pair_rows) == 601
    assert all(math.isclose(c, 1.0, abs_tol=1e-12) for c in pair_rows)
    # larger ensembles sit at their sharing ceiling at zero intensity
    n3 = [(float(r[0]), float(r[1])) for r in rows if int(r[2]) == 3]
    assert math.isclose(n3[0][1], 2.0 / 3.0, abs_tol=1e-12)


def test_fig2d_even_curves_have_interior_maxima(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.entrypoint(["--figure", "fig2d"]) == 0
    meta, header, rows = _read_csv(tmp_path / "fig2d.csv")
    assert meta["parity"] == "even"
    for n in (3, 5, 10):
        cs = [float(r[1]) for r in rows if int(r[2]) == n]
        peak = int(np.argmax(cs))
        assert 0 < peak < len(cs) - 1
        assert cs[0] == 0.0  # vacuum even state carries no pair entanglement


def test_fig3_table_matches_closed_forms(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.entrypoint(["--figure", "fig3"]) == 0
    _, header, rows = _read_csv(tmp_path / "fig3.csv")
    assert header == ["intensity", "N", "max_concurrence_odd",
                      "max_concurrence_even", "two_over_N"]
    assert len(rows) == 4 * 9
    for row in rows:
        x, n = float(row[0]), int(row[1])
        odd, even, bound = float(row[2]), float(row[3]), float(row[4])
        p_odd = SystemParams(n_crystallites=n, intensity=x, parity=ParityKind.ODD)
        p_even = SystemParams(n_crystallites=n, intensity=x, parity=ParityKind.EVEN)
        assert odd == coherent_concurrence(p_odd, math.pi / 2.0)
        assert even == coherent_concurrence(p_even, math.pi / 2.0)
        assert bound == 2.0 / n
        assert even < odd <= bound + 1e-12


def test_fig4_stronger_loss_decays_faster(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.entrypoint(["--figure", "fig4"]) == 0
    meta, header, rows = _read_csv(tmp_path / "fig4.csv")
    assert header == ["Gt", "odd_gamma_0.13", "even_gamma_0.13",
                      "odd_gamma_0.5", "even_gamma_0.5"]
    assert meta["alpha2"] == "1" and meta["N"] == "3"
    assert len(rows) == 2401
    for soft, hard in (("odd_gamma_0.13", "odd_gamma_0.5"),
                       ("even_gamma_0.13", "even_gamma_0.5")):
        weak = _column(header, rows, soft)
        strong = _column(header, rows, hard)
        assert max(strong) < max(weak)
        # late-time revivals are suppressed much harder than the first peak
        third = len(rows) // 3
        assert max(strong[2 * third:]) < 0.5 * max(weak[2 * third:])


def test_fig4_rows_match_library_forms(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.entrypoint(["--figure", "fig4", "--points", "7",
                           "--t_stop", "3.0"]) == 0
    _, header, rows = _read_csv(tmp_path / "fig4.csv")
    for row in rows:
        gt = float(row[0])
        p = SystemParams(n_crystallites=3, decay_rate=0.5, intensity=1.0,
                         parity=ParityKind.EVEN)
        assert float(row[4]) == damped_concurrence(p, gt)


# --- sweep and optimize -----------------------------------------------------------

def test_sweep_lossless_uses_ideal_form(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.entrypoint(["--command", "sweep", "--N", "4", "--alpha2", "0.6",
                           "--parity", "even", "--points", "11"]) == 0
    meta, header, rows = _read_csv(tmp_path / "sweep.csv")
    assert meta["gamma_over_g"] == "0"
    p = SystemParams(n_crystallites=4, intensity=0.6, parity=ParityKind.EVEN)
    for row in rows:
        assert float(row[1]) == coherent_concurrence(p, float(row[0]))


def test_sweep_lossy_uses_damped_form(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.entrypoint(["--command", "sweep", "--gamma_over_g", "0.2",
                           "--points", "11", "--out", "lossy.csv"]) == 0
    _, header, rows = _read_csv(tmp_path / "lossy.csv")
    p = SystemParams(n_crystallites=3, decay_rate=0.2, intensity=1.0,
                     parity=ParityKind.ODD)
    for row in rows:
        assert float(row[1]) == damped_concurrence(p, float(row[0]))


def test_optimize_default_covers_small_ensembles(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.entrypoint(["--command", "optimize"]) == 0
    meta, header, rows = _read_csv(tmp_path / "optimize.csv")
    assert header == ["N", "parity", "intensity", "concurrence", "method",
                      "residual", "iterations"]
    assert meta["parity"] == "odd"
    assert [int(r[0]) for r in rows] == list(range(2, 11))
    assert rows[0][4] == "plateau"
    assert all(r[4] == "golden-section" for r in rows[1:])


def test_optimize_single_n_even(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.entrypoint(["--command", "optimize", "--N", "3",
                           "--parity", "even"]) == 0
    meta, header, rows = _read_csv(tmp_path / "optimize.csv")
    assert meta["N"] == "3"
    assert len(rows) == 1
    assert math.isclose(float(rows[0][3]), 1.0 / 3.0, abs_tol=1e-9)


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("sweep", ["--command", "sweep"]),
        ("sweep_gamma_0.13", ["--command", "sweep", "--gamma_over_g", "0.13"]),
        ("optimize_odd", ["--command", "optimize"]),
        ("optimize_even", ["--command", "optimize", "--parity", "even"]),
    ],
)
def test_sweep_and_optimize_match_golden_hashes(tmp_path, monkeypatch, golden,
                                                argv):
    # these CSVs take every exponential and sine from cavshare.crmath, so
    # their bytes are the same on every platform
    monkeypatch.chdir(tmp_path)
    assert cli.entrypoint(argv) == 0
    out = tmp_path / f"{argv[1]}.csv"
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    stored = Path(__file__).parent / "golden" / f"{golden}.sha256"
    assert digest == stored.read_text().strip()


# --- verify ------------------------------------------------------------------------

def test_verify_small_run_passes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = cli.entrypoint(["--command", "verify", "--points", "2",
                           "--t_stop", "0.8"])
    assert code == 0
    out = capsys.readouterr().out
    assert "0 fail, 0 skip" in out
    meta, header, rows = _read_csv(tmp_path / "verify.csv")
    assert header == ["case_id", "analytic", "oracle", "abs_error",
                      "tolerance", "status"]
    assert all(row[5] == "pass" for row in rows)
    suites = {row[0].split("/", 1)[0] for row in rows}
    assert suites == {"single_photon", "cat", "lindblad"}


def test_verify_cells_read_back_exactly(tmp_path, monkeypatch):
    # text columns print as they are, numeric ones at 17 significant
    # digits, which read back to the same double; a NaN prints as nan
    monkeypatch.chdir(tmp_path)
    assert cli.entrypoint(["--command", "verify", "--points", "2",
                           "--t_stop", "0.8"]) == 0
    _, header, rows = _read_csv(tmp_path / "verify.csv")
    cases = [case for result in run_all(n_times=2, gt_max=0.8)
             for case in result.cases]
    assert len(rows) == len(cases)
    numeric = ("analytic", "oracle", "abs_error", "tolerance")
    for row, case in zip(rows, cases):
        assert row[0] == case.case_id and row[5] == case.status
        for name in numeric:
            cell = float(row[header.index(name)])
            assert cell.hex() == float(getattr(case, name)).hex()
    assert cli.entrypoint(["--command", "verify", "--N", "12", "--points", "2",
                           "--t_stop", "0.8"]) == 3
    _, header, rows = _read_csv(tmp_path / "verify.csv")
    skips = [row for row in rows if row[5] == "skip"]
    assert len(skips) == 2
    for row in skips:
        assert row[1:4] == ["nan", "nan", "nan"]
        assert math.isfinite(float(row[4]))


def test_verify_capacity_overflow_exits_three(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = cli.entrypoint(["--command", "verify", "--N", "12", "--points", "2",
                           "--t_stop", "0.8"])
    assert code == 3
    assert "2 skip" in capsys.readouterr().out
    _, _, rows = _read_csv(tmp_path / "verify.csv")
    assert sum(row[5] == "skip" for row in rows) == 2


def test_verify_degenerate_samples_exit_three(tmp_path, monkeypatch, capsys):
    # the middle of three cat samples falls on Gt = pi, where the tilde
    # basis vanishes: one skip row each, and the rest of the run completes
    # (t_stop = 2 pi, the cat default, halves the Lindblad horizon)
    monkeypatch.chdir(tmp_path)
    code = cli.entrypoint(["--command", "verify", "--N", "2", "--points", "3",
                           "--t_stop", repr(2.0 * math.pi)])
    assert code == 3
    assert "0 fail, 4 skip" in capsys.readouterr().out
    _, _, rows = _read_csv(tmp_path / "verify.csv")
    skips = [row[0] for row in rows if row[5] == "skip"]
    assert skips == [f"cat/N=2/x={x}/{parity}/Gt=3.141592654/degenerate"
                     for x in ("0.25", "1") for parity in ("even", "odd")]


def test_verify_failures_exit_two(tmp_path, monkeypatch, capsys):
    fake = SuiteResult(
        suite="single_photon",
        cases=[VerifyCase(case_id="single_photon/N=2/Gt=1/law", analytic=0.5,
                          oracle=0.4, abs_error=0.1, tolerance=1e-8,
                          status="fail")],
        pair_records=[],
    )
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("cavshare.verify.run_all", lambda **kw: [fake])
    assert cli.entrypoint(["--command", "verify"]) == 2
    assert "1 fail" in capsys.readouterr().out


# --- exit codes and robustness ---------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ["--config", "/nonexistent/path.conf"],
        ["--figure", "fig9"],
        ["--command", "dance"],
        ["--N", "three"],
        ["--alpha2", "much"],
        ["--parity", "sideways"],
        ["--N", "0"],
        ["--N", "-3"],
        ["--points", "1"],
        ["--t_stop", "-1.0"],
        ["--command", "sweep", "--gamma_over_g", "-0.5"],
        ["--not-a-flag"],
        # verify refuses a grid that samples nothing
        ["--command", "verify", "--points", "0"],
        ["--command", "verify", "--points", "-3"],
        ["--command", "verify", "--t_stop", "0"],
        ["--command", "verify", "--t_stop", "-1.0"],
        ["--command", "verify", "--t_stop", "nan"],
        ["--command", "verify", "--t_stop", "inf"],
        # a grid bound that is not finite
        ["--figure", "fig1", "--t_stop", "inf"],
        ["--figure", "fig2c", "--t_stop", "inf"],
        ["--command", "sweep", "--t_start", "-inf"],
    ],
)
def test_bad_input_exits_one(tmp_path, monkeypatch, argv, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.entrypoint(argv) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("error, code", [
    (OSError("disk full"), 1),
    (ValueError("bad value"), 1),
    (InvalidParameter("points", "too few"), 1),
    (StepSizeUnstable(2e-8, 1e-8), 2),
    (CapacityExceeded(500, 400), 3),
])
def test_each_error_maps_to_its_exit_code(error, code, monkeypatch, capsys):
    def failing(argv):
        raise error

    monkeypatch.setattr(cli, "main", failing)
    assert cli.entrypoint([]) == code
    assert capsys.readouterr().err == f"error: {error}\n"


def test_other_errors_are_not_caught(monkeypatch):
    def failing(argv):
        raise RuntimeError("not ours")

    monkeypatch.setattr(cli, "main", failing)
    with pytest.raises(RuntimeError, match="not ours"):
        cli.entrypoint([])


@pytest.mark.parametrize("argv, cause", [
    (["--figure", "fig1", "--t_stop", "inf"], "t_stop: grid bounds"),
    (["--figure", "fig2c", "--t_stop", "inf"], "t_stop: grid bounds"),
    (["--command", "sweep", "--t_start", "nan"], "t_start: grid bounds"),
    # e^(2|alpha|^2) overflows a double above |alpha|^2 = 354.89...
    (["--command", "sweep", "--alpha2", "400"], "intensity: e^(2|alpha|^2)"),
    (["--command", "sweep", "--alpha2", "354.8913564466921", "--parity",
      "even"], "intensity: e^(2|alpha|^2)"),
    (["--figure", "fig4", "--alpha2", "400"], "intensity: e^(2|alpha|^2)"),
    (["--figure", "fig2c", "--t_stop", "400"], "intensity: e^(2|alpha|^2)"),
    # a key the command never reads
    (["--figure", "fig1", "--g", "2"], "g: not read by the figure command"),
    (["--figure", "fig4", "--gamma_over_g", "0.5"],
     "gamma_over_g: not read by the figure command"),
    (["--command", "verify", "--figure", "fig1"],
     "figure: not read by the verify command"),
    (["--command", "verify", "--t_start", "0.5"],
     "t_start: not read by the verify command"),
    (["--command", "verify", "--g", "2"], "g: not read by the verify command"),
    (["--command", "verify", "--parity", "even"],
     "parity: not read by the verify command"),
    (["--command", "optimize", "--figure", "fig1"],
     "figure: not read by the optimize command"),
    (["--command", "optimize", "--g", "2"], "g: not read by the optimize command"),
    (["--command", "optimize", "--gamma_over_g", "0.1"],
     "gamma_over_g: not read by the optimize command"),
    (["--command", "optimize", "--alpha2", "0.5"],
     "alpha2: not read by the optimize command"),
    (["--command", "optimize", "--t_start", "0"],
     "t_start: not read by the optimize command"),
    (["--command", "optimize", "--t_stop", "2"],
     "t_stop: not read by the optimize command"),
    (["--command", "optimize", "--N", "3"],
     "points: not read by the optimize command"),
    (["--command", "sweep", "--figure", "fig2a"],
     "figure: not read by the sweep command"),
    # a flag error carries no line number; only config-file lines have one
    (["--figure", "fig1", "--N", "2.5"],
     "bad value for N: '2.5' (expected an integer)"),
    (["--not-a-flag"], "unrecognized arguments: --not-a-flag"),
], ids=["fig1_inf", "fig2c_inf", "sweep_nan", "sweep_400", "sweep_even_edge",
        "fig4_400", "fig2c_400", "figure_g", "figure_gamma_over_g",
        "verify_figure", "verify_t_start", "verify_g", "verify_parity",
        "optimize_figure", "optimize_g", "optimize_gamma_over_g",
        "optimize_alpha2", "optimize_t_start", "optimize_t_stop",
        "optimize_points", "sweep_figure", "flag_value", "argparse"])
def test_bad_input_names_its_cause(tmp_path, monkeypatch, argv, cause, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.entrypoint(argv + ["--points", "3"]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {cause}")


def test_refused_key_from_a_config_file_is_named(tmp_path, monkeypatch, capsys):
    # a file shared across commands fails on another command's keys
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.conf").write_text("figure = fig1\nN = 4\n")
    assert cli.entrypoint(["--config", "run.conf", "--command", "sweep"]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == "error: figure: not read by the sweep command"
    assert not (tmp_path / "sweep.csv").exists()


def test_readme_keys_table_names_exactly_the_declared_keys():
    # _KEYS is the one declaration of the key set; the README table follows it
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme.split("### Keys", 1)[1].strip().splitlines()
    rows = list(itertools.takewhile(lambda line: line.startswith("|"), lines))[2:]
    named = {name for row in rows for name in re.findall(r"`(\w+)`", row.split("|")[1])}
    assert named == set(cli._KEYS)


def test_largest_intensity_still_runs(tmp_path, monkeypatch):
    # ...and not at or below it, for either parity
    monkeypatch.chdir(tmp_path)
    for parity in ("odd", "even"):
        assert cli.entrypoint(["--command", "sweep", "--alpha2",
                               "354.891356446692", "--parity", parity,
                               "--points", "3"]) == 0


def test_unwritable_output_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = cli.entrypoint(["--figure", "fig3", "--out", "missing/dir/f.csv"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


# A run computes its rows in blocks of cli._BLOCK_ROWS and writes each before
# the next, so every refusal must come before the file opens: the column
# function's checks and first block run first. fig2c's overflow lies past its
# first block (10000 intensities up to 400); fig4's shows in its first. The
# damped runs on negative times overflow in their third 7-row block, where
# e^(-gamma t/4) has grown and sin(delta t) come up from a node.
_NEGATIVE_TIMES = ["--alpha2", "150", "--t_start", "-12.6", "--t_stop", "-11.6",
                   "--points", "20"]


@pytest.mark.parametrize("argv, block_rows", [
    (["--figure", "fig2c", "--t_stop", "400", "--points", "10000"], None),
    (["--figure", "fig4", "--alpha2", "400"], None),
    (["--figure", "fig4", *_NEGATIVE_TIMES], 7),
    (["--command", "sweep", "--gamma_over_g", "0.5", *_NEGATIVE_TIMES], 7),
], ids=["fig2c_400", "fig4_400", "fig4_negative_times", "sweep_negative_times"])
@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_refusal_comes_before_the_file_opens(tmp_path, monkeypatch, capsys, argv,
                                             block_rows, existing):
    monkeypatch.chdir(tmp_path)
    if block_rows is not None:
        monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
    out = tmp_path / "out.csv"
    if existing:
        out.write_bytes(b"# an earlier run\n")
    assert cli.entrypoint(argv + ["--out", "out.csv"]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == ("error: intensity: e^(2|alpha|^2) overflows a double "
                    "above |alpha|^2 = 354.89")
    if existing:
        assert out.read_bytes() == b"# an earlier run\n"
    else:
        assert not out.exists()


# --- determinism -------------------------------------------------------------------

# 7 rows: one time row a block for fig2a/b, seven values for the others; 61:
# one time row; 128: two. Each grid puts a few values past a block edge.
@pytest.mark.parametrize("block_rows", [7, 61, 128])
@pytest.mark.parametrize("argv", [
    *(["--figure", fig, "--points", "131"]
      for fig in ("fig1", "fig2a", "fig2b", "fig2c", "fig2d", "fig4")),
    ["--figure", "fig3"],
    ["--command", "sweep", "--points", "129"],
    ["--command", "sweep", "--gamma_over_g", "0.13", "--points", "260"],
    ["--command", "sweep", "--gamma_over_g", "0.5", "--t_start", "-3",
     "--points", "200"],
], ids=["fig1", "fig2a", "fig2b", "fig2c", "fig2d", "fig4", "fig3", "sweep",
        "damped_sweep", "damped_sweep_negative_times"])
def test_block_edges_do_not_change_the_bytes(tmp_path, monkeypatch, argv,
                                             block_rows):
    # the same out for both runs: the metadata line names it
    monkeypatch.chdir(tmp_path)
    tables = []
    for rows in (10**9, block_rows):  # one block, then many
        monkeypatch.setattr(cli, "_BLOCK_ROWS", rows)
        assert cli.entrypoint(argv + ["--out", "t.csv"]) == 0
        tables.append((tmp_path / "t.csv").read_bytes())
    assert tables[0] == tables[1]


def test_identical_config_gives_identical_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.entrypoint(["--figure", "fig1", "--points", "101",
                           "--out", "run.csv"]) == 0
    shutil.copy(tmp_path / "run.csv", tmp_path / "first.csv")
    assert cli.entrypoint(["--figure", "fig1", "--points", "101",
                           "--out", "run.csv"]) == 0
    assert filecmp.cmp(tmp_path / "first.csv", tmp_path / "run.csv",
                       shallow=False)


@pytest.mark.parametrize("argv", [
    *(["--figure", fig, "--points", "3"]
      for fig in ("fig1", "fig2a", "fig2b", "fig2c", "fig2d", "fig4")),
    ["--figure", "fig3"],
    ["--command", "optimize", "--N", "3"],
    ["--command", "sweep", "--N", "5", "--points", "11", "--t_start", "-0.00001"],
], ids=["fig1", "fig2a", "fig2b", "fig2c", "fig2d", "fig4", "fig3",
        "optimize", "sweep"])
def test_metadata_line_reruns_the_command(tmp_path, monkeypatch, argv):
    # every key=value in the header is a valid flag assignment
    monkeypatch.chdir(tmp_path)
    assert cli.entrypoint(argv + ["--out", "first.csv"]) == 0
    meta, _, _ = _read_csv(tmp_path / "first.csv")
    if "--t_start" in argv:
        # argparse alone would take this value for an option
        assert meta["t_start"] == "-1.0000000000000001e-05"
    argv = []
    for key, value in meta.items():
        if key == "out":
            value = "second.csv"
        argv.extend([f"--{key}", value])
    assert cli.entrypoint(argv) == 0
    with open(tmp_path / "first.csv", encoding="ascii") as f:
        body_a = f.read().splitlines()[1:]
    with open(tmp_path / "second.csv", encoding="ascii") as f:
        body_b = f.read().splitlines()[1:]
    assert body_a == body_b


_PASSING = SuiteResult(
    suite="single_photon",
    cases=[VerifyCase(case_id="single_photon/N=2/Gt=0.4/law", analytic=0.5,
                      oracle=0.5, abs_error=0.0, tolerance=1e-8,
                      status="pass")],
    pair_records=[],
)


@pytest.mark.parametrize("argv, out, line", [
    (["--command", "optimize", "--N", "4", "--parity", "even"], "optimize.csv",
     "command=optimize N=4 parity=even out=optimize.csv"),
    (["--command", "sweep", "--N", "5", "--g", "2", "--gamma_over_g", "0.1",
      "--alpha2", "0.5", "--parity", "even", "--t_start", "0.5", "--t_stop",
      "2", "--points", "3"], "sweep.csv",
     "command=sweep N=5 g=2 gamma_over_g=0.10000000000000001 alpha2=0.5 "
     "parity=even t_start=0.5 t_stop=2 points=3 out=sweep.csv"),
    (["--figure", "fig2c", "--t_stop", "3", "--points", "5"], "fig2c.csv",
     "command=figure figure=fig2c parity=odd t_start=0 t_stop=3 points=5 "
     "out=fig2c.csv"),
    (["--figure", "fig4", "--N", "4", "--alpha2", "0.5", "--points", "3"],
     "fig4.csv",
     "command=figure figure=fig4 N=4 alpha2=0.5 t_start=0 "
     "t_stop=18.849555921538759 points=3 out=fig4.csv"),
    (["--command", "verify", "--N", "2", "--alpha2", "0.25", "--gamma_over_g",
      "0.2", "--t_stop", "0.8", "--points", "1"], "verify.csv",
     "command=verify N=2 alpha2=0.25 gamma_over_g=0.20000000000000001 "
     "t_stop=0.80000000000000004 points=1 out=verify.csv"),
    # a figure keeps its own parity whatever the parity key says
    (["--figure", "fig2a", "--parity", "even", "--points", "2"], "fig2a.csv",
     "command=figure figure=fig2a N=3 parity=odd t_start=0 "
     "t_stop=6.2831853071795862 points=2 out=fig2a.csv"),
], ids=["optimize_even", "sweep_every_key", "fig2c_grid", "fig4_keys", "verify",
        "fig2a_own_parity"])
def test_metadata_line_is_pinned(tmp_path, monkeypatch, argv, out, line):
    # invocations no golden covers; verify runs a stand-in suite, no oracle
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("cavshare.verify.run_all", lambda **kw: [_PASSING])
    assert cli.entrypoint(argv) == 0
    with open(tmp_path / out, encoding="ascii") as handle:
        assert handle.readline() == f"# {line}\n"


# --- CSV writer ---------------------------------------------------------------------

def _per_row_csv(path, meta, header, columns):
    """The per-row writer the chunked one replaced: its bytes are the reference."""
    fmt = ",".join(cli._spec(column[0]) for column in columns) + "\n"
    with open(path, "w", encoding="ascii", newline="") as handle:
        handle.write("# " + " ".join(f"{k}={cli._spec(v) % v}" for k, v in meta)
                     + "\n")
        handle.write(",".join(header) + "\n")
        for row in zip(*columns):
            handle.write(fmt % row)


_CHUNK = cli._CHUNK_ROWS
_EDGE_FLOATS = (0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
                -5e-324, 2.2250738585072009e-308, 1e-310, 0.1, 1.0 / 3.0)


@st.composite
def _tables(draw):
    """Columns of one row count: float arrays drawn from a small pool (so
    values repeat, in runs and scattered), integer arrays, string lists, and
    float lists whose later values are ints."""
    rows = draw(st.sampled_from((1, _CHUNK - 1, _CHUNK, _CHUNK + 1,
                                 2 * _CHUNK + 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    floats = st.one_of(st.sampled_from(_EDGE_FLOATS),
                       st.floats(allow_subnormal=True, width=64))
    columns = []
    for kind in draw(st.lists(st.sampled_from(("float", "int", "str", "mixed")),
                              min_size=1, max_size=4)):
        if kind == "float":
            pool = np.array(draw(st.lists(floats, min_size=1, max_size=12)))
            picks = rng.integers(pool.size, size=rows)
            if draw(st.booleans()):  # runs of repeated values
                picks = np.repeat(picks, rng.integers(1, 40, size=rows))[:rows]
            columns.append(pool[picks])
        elif kind == "int":
            columns.append(rng.integers(-2**40, 2**40, size=rows))
        elif kind == "str":
            words = draw(st.lists(st.text("abz/_.-09", max_size=6), min_size=1,
                                  max_size=5))
            columns.append([words[i] for i in rng.integers(len(words), size=rows)])
        else:
            pool = draw(st.lists(st.one_of(floats, st.integers(-2**70, 2**70)),
                                 min_size=1, max_size=8))
            columns.append([draw(floats)]
                           + [pool[i] for i in rng.integers(len(pool), size=rows - 1)])
    return columns


@settings(derandomize=True, database=None, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_tables())
def test_chunked_writer_matches_the_per_row_formula(tmp_path, columns):
    meta = [("command", "figure"), ("t_stop", 2.0 * math.pi), ("points", 3)]
    header = [f"c{i}" for i in range(len(columns))]
    assert cli._write_csv(tmp_path / "new.csv", meta, header, columns) == len(columns[0])
    _per_row_csv(tmp_path / "old.csv", meta, header, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_chunked_writer_keeps_signed_zeros_apart(tmp_path):
    column = np.array([0.0, -0.0] * 3)
    cli._write_csv(tmp_path / "z.csv", [], ["x"], [column])
    assert (tmp_path / "z.csv").read_text().splitlines()[2:] == ["0", "-0"] * 3


@pytest.mark.parametrize("header, columns", [
    (["a", "b"], [[1.0, 2.0]]),
    (["a"], [[1.0], [2.0]]),
    (["a", "b"], [[1.0, 2.0], [3.0]]),
    (["a", "b"], [np.zeros(_CHUNK + 1), np.zeros(_CHUNK)]),
])
def test_write_csv_refuses_ragged_tables(tmp_path, header, columns):
    out = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="column lengths"):
        cli._write_csv(out, [], header, columns)
    assert not out.exists()


# A table's text stays out of memory as a whole: the writer holds a few chunks
# at a time. Measured peak at 512-row chunks: about 0.17 MB of the 11.5 MB
# table text below; the bound is 512 KiB.
_STREAM_BOUND = 1 << 19


def test_write_csv_streams_in_chunks(tmp_path):
    rows = 200_000
    columns = [np.repeat(np.linspace(0.0, 2.0 * math.pi, 2000), 100),
               np.tile(np.linspace(0.0, 6.0, 100), 2000),
               np.random.default_rng(3).random(rows)]
    tracemalloc.start()
    try:
        assert cli._write_csv(tmp_path / "big.csv", [], ["x", "y", "z"],
                              columns) == rows
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "big.csv").stat().st_size > 10 * _STREAM_BOUND
    assert peak < _STREAM_BOUND


# --- process-level smoke -----------------------------------------------------------

def test_module_invocation(tmp_path):
    # the child runs in tmp_path, where a relative PYTHONPATH entry such as
    # src/ names nothing; point it at the package this process imported
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        entry for entry in (package_root, env.get("PYTHONPATH")) if entry
    )
    proc = subprocess.run(
        [sys.executable, "-m", "cavshare", "--command", "optimize", "--N", "4",
         "--out", str(tmp_path / "opt.csv")],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "wrote 1 rows" in proc.stdout


def test_console_script(tmp_path):
    exe = shutil.which("cavshare")
    assert exe, "console script should be installed"
    proc = subprocess.run(
        [exe, "--figure", "fig3", "--out", str(tmp_path / "t.csv")],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
