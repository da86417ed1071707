"""End-to-end tests of the command-line interface and its exit-code contract."""

import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcrb_kit import cli, quantum
from qcrb_kit.cli import (
    DEFAULT_TOL_ANALYTIC,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    emit_csv,
    emit_json,
    main,
    parse_cell,
    parse_csv,
)
from qcrb_kit.configio import model_from_config
from qcrb_kit.errors import (
    BoundaryRegularityError,
    DomainError,
    EigenConvergenceError,
    NotDensityMatrix,
    RankDeficientInconsistent,
    ZeroInformationError,
)
from qcrb_kit.models import (
    DEFAULT_SEED,
    QubitMixtureModel,
    constant_weight,
    fixed_spectrum_model,
    rotation_family,
)


ROTATION_MIXTURE = {"kind": "qubit_mixture", "psi1": {"name": "rotation"}}


@pytest.fixture()
def model_paths(tmp_path):
    pure = tmp_path / "pure.json"
    pure.write_text(json.dumps({"kind": "pure", "psi1": {"name": "rotation"}}))
    mix = tmp_path / "mix.json"
    mix.write_text(
        json.dumps(
            {
                "kind": "qubit_mixture",
                "psi1": {"name": "rotation"},
                "weight": {"form": "constant", "params": [0.9]},
            }
        )
    )
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps({"kind": "basis", "dim": 2}))
    trivial = tmp_path / "trivial.json"
    trivial.write_text(
        json.dumps({"kind": "explicit", "effects": [[[1.0, 0.0], [0.0, 1.0]]]})
    )
    return {"pure": pure, "mix": mix, "basis": basis, "trivial": trivial}


def run_cli(argv, capsys):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def rows_of(stdout):
    _, rows, _ = parse_csv(stdout)
    return rows


# --- compute -----------------------------------------------------------------

def test_compute_pure_rotation_row(model_paths, capsys):
    code, out, _ = run_cli(["compute", "--model", model_paths["pure"], "--theta", "0.3"], capsys)
    assert code == EXIT_OK
    row = rows_of(out)[0]
    assert row["i_h_sld"] == pytest.approx(4.0, abs=1e-9)
    assert row["i_wy_generic"] == pytest.approx(8.0, abs=1e-9)


def test_compute_mixture_row_with_povm(model_paths, capsys):
    code, out, _ = run_cli(
        ["compute", "--model", model_paths["mix"], "--povm", model_paths["basis"], "--theta", "0.3"],
        capsys,
    )
    assert code == EXIT_OK
    row = rows_of(out)[0]
    assert row["i_h_sld"] == pytest.approx(2.56, abs=1e-9)
    assert row["i_wy_generic"] == pytest.approx(3.2, abs=1e-9)
    assert row["gamma"] == pytest.approx(0.64, abs=1e-9)
    assert row["cfi_ok"] is True


def test_compute_theta_grid_row_count(model_paths, capsys):
    code, out, _ = run_cli(
        ["compute", "--model", model_paths["pure"], "--theta-grid", "0.1:1.0:7"], capsys
    )
    assert code == EXIT_OK
    assert len(rows_of(out)) == 7


def test_compute_theta_grid_negative_lo_as_separate_token(model_paths, capsys):
    code, out, err = run_cli(
        ["compute", "--model", model_paths["pure"], "--theta-grid", "-1:1:21"], capsys
    )
    assert code == EXIT_OK, err
    rows = rows_of(out)
    assert len(rows) == 21
    assert rows[0]["theta"] == pytest.approx(-1.0)
    assert rows[-1]["theta"] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "option, command, expected_code",
    [
        ("--theta", "compute", EXIT_OK),
        ("--theta0", "simulate", EXIT_OK),
        ("--fd-step", "compute", EXIT_CONFIG),  # parsed, then rejected as non-positive
        ("--tol-analytic", "compute", EXIT_CONFIG),  # parsed, then rejected as non-positive
        ("--tol-fd", "compute", EXIT_CONFIG),
    ],
)
def test_negative_scientific_value_as_separate_token(model_paths, capsys, option, command, expected_code):
    argv = [command, "--model", model_paths["pure"], option, "-3e-1", "--format", "json"]
    if command == "simulate":
        argv += ["--povm", model_paths["basis"], "--n-samples", "1000"]
    code, out, err = run_cli(argv, capsys)
    assert "expected one argument" not in err
    assert code == expected_code, err
    if code == EXIT_CONFIG:
        assert f"{option}: must be positive" in err
        return
    payload = json.loads(out)
    if option in ("--theta", "--theta0"):
        assert payload["rows"][0][option.lstrip("-")] == -0.3
    else:
        assert payload["meta"][option.lstrip("-").replace("-", "_")] == -0.3


@pytest.mark.parametrize("option", ["--tol-analytic", "--tol-fd"])
@pytest.mark.parametrize("value, message", [
    ("nan", "must be finite"), ("inf", "must be finite"), ("0", "must be positive"),
])
def test_tolerance_must_be_positive_and_finite(model_paths, capsys, option, value, message):
    # a NaN tolerance would pass every residual, a negative one fail every one
    code, out, err = run_cli(["compute", "--model", model_paths["pure"], option, value], capsys)
    assert code == EXIT_CONFIG
    assert f"{option}: {message}" in err
    assert out == ""


@pytest.mark.parametrize("error, code, label", [
    (EigenConvergenceError, EXIT_NUMERIC, "EigenConvergenceError"),
    (RankDeficientInconsistent, EXIT_NUMERIC, "RankDeficientInconsistent"),
    (BoundaryRegularityError, EXIT_NUMERIC, "BoundaryRegularityError"),
    (ZeroInformationError, EXIT_NUMERIC, "ZeroInformation"),
    (ValueError, EXIT_NUMERIC, "ValueError"),
    (NotDensityMatrix, EXIT_CONFIG, "NotDensityMatrix"),
])
def test_numerical_errors_exit_two_and_others_exit_one_without_traceback(
    model_paths, capsys, monkeypatch, error, code, label
):
    # compute reads each row from the point's layer of the report stage
    def failing_stage(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(quantum, "_report_stage", failing_stage)
    got, out, err = run_cli(["compute", "--model", model_paths["pure"]], capsys)
    assert got == code
    assert f"error: {label}: injected" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("command, callee, option", [
    ("simulate", "run_sim", "--n-samples=100000000000"),
    ("compute", "parse_grid", "--theta-grid=0:1:100000000000"),
])
def test_an_input_too_large_for_memory_exits_one_without_traceback(
    model_paths, capsys, monkeypatch, command, callee, option
):
    # the allocation is refused by a stand-in: a real one may be granted
    # where the kernel overcommits memory
    message = "Unable to allocate 745. GiB for an array with shape (100000000000,) and data type float64"

    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, callee, refuse)
    argv = [command, "--model", model_paths["pure"], "--povm", model_paths["basis"], option]
    got, out, err = run_cli(argv, capsys)
    assert got == EXIT_CONFIG
    assert err == f"error: MemoryError: {message}\n"
    assert out == ""


def test_compute_malformed_json_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": nope}')
    code, _, err = run_cli(["compute", "--model", bad], capsys)
    assert code == EXIT_CONFIG
    assert "line" in err


@pytest.mark.parametrize("content, message", [
    pytest.param(b'{"kind": "pure", "psi1": {"name": "rot\xe9"}}', "can't decode byte 0xe9",
                 id="not-utf8"),
    pytest.param(b'{"kind": "spectral", "dim": 4, "seed": 1' + b"0" * 5000 + b"}",
                 "Exceeds the limit", id="long-integer"),
])
def test_an_unreadable_config_file_exits_one(tmp_path, capsys, content, message):
    # a file that is not UTF-8, or whose integer is too long to convert, is
    # a configuration error, not a numerical one
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, out, err = run_cli(["compute", "--model", bad], capsys)
    assert code == EXIT_CONFIG
    assert err.startswith(f"error: {bad}: ") and message in err
    assert out == ""


def test_compute_unknown_field_exits_one(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "nonsense"}))
    code, _, err = run_cli(["compute", "--model", cfg], capsys)
    assert code == EXIT_CONFIG
    assert "model.kind" in err


@pytest.mark.parametrize(
    "cfg, field",
    [
        ({"kind": "spectral", "spectrum": [1.2, -0.2]}, "model.spectrum[0]"),
        ({"kind": "spectral", "dim": "abc", "seed": 3}, "model.dim"),
        ({"kind": "pure", "psi1": {"name": "rotation"}, "theta_domain": [0.3, 0.3]},
         "empty domain"),
        # a weight parameter is a JSON number, and a form takes no surplus ones
        (ROTATION_MIXTURE | {"weight": {"form": "sine", "params": ["0.8"]}},
         "model.weight.params[0]"),
        (ROTATION_MIXTURE | {"weight": {"form": "sine", "params": [True]}},
         "model.weight.params[0]"),
        (ROTATION_MIXTURE | {"weight": {"form": "sine", "params": [0.8, 0.1]}},
         "model.weight.params: 'sine' takes [amplitude]"),
        (ROTATION_MIXTURE | {"weight": {"form": "logistic", "params": [1.5, 0, 7, 9]}},
         "model.weight.params: 'logistic' takes [rate, center]"),
        ({"kind": "spectral", "dim": 4, "seed": 10**400}, "model.seed: integer beyond"),
        # no pure family takes a parameter, and dim and seed are read wherever
        # they are given: a malformed or contradicting one is not dropped
        ({"kind": "pure", "psi1": {"name": "rotation", "params": ["junk", True, 1, 2]}},
         "model.psi1.params: family 'rotation' takes none, got 4 entries"),
        (ROTATION_MIXTURE | {"weight": {"form": "constant", "params": [0.8]}, "dim": 7},
         "model.dim: 7 contradicts the model's dimension 2"),
        ({"kind": "spectral", "spectrum": [0.6, 0.4], "dim": "abc"},
         "model.dim: expected a number, got 'abc'"),
        ({"kind": "spectral", "spectrum": [0.6, 0.4], "dim": 3},
         "model.dim: 3 contradicts the model's dimension 2"),
        ({"kind": "pure", "psi1": {"name": "rotation"}, "seed": "abc", "dim": [1]},
         "model.seed: expected a number, got 'abc'"),
    ],
)
def test_malformed_model_fields_exit_one_without_traceback(tmp_path, capsys, cfg, field):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run_cli(["compute", "--model", path], capsys)
    assert code == EXIT_CONFIG
    assert err.startswith("error:") and field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", [[], {}, 1])
def test_a_family_name_that_is_no_string_exits_one(tmp_path, capsys, name):
    # the name is checked before the family table's lookup, where an
    # unhashable one would raise TypeError
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "pure", "psi1": {"name": name}}))
    code, out, err = run_cli(["compute", "--model", path], capsys)
    assert (code, out, err) == (EXIT_CONFIG, "", "error: model.psi1.name: expected a string\n")


@pytest.mark.parametrize("value, level", [
    ("BASIC_FORMAT", logging.INFO), ("_styles", logging.INFO), ("no-such-level", logging.INFO),
    ("debug", logging.DEBUG), ("Error", logging.ERROR), ("", logging.WARNING),
])
def test_qcrb_log_reads_only_level_names(model_paths, capsys, monkeypatch, value, level):
    # a logging attribute that is no level, such as the format string
    # BASIC_FORMAT, falls back to INFO as an unknown name does
    seen = {}
    monkeypatch.setattr(logging, "basicConfig", lambda **kwargs: seen.update(kwargs))
    monkeypatch.setenv("QCRB_LOG", value)
    code, _, err = run_cli(["compute", "--model", model_paths["pure"]], capsys)
    assert (code, err, seen["level"]) == (EXIT_OK, "", level)


def test_qcrb_log_naming_no_level_runs_without_traceback(model_paths):
    # a fresh process: in this one pytest's log handlers make basicConfig a no-op
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src), QCRB_LOG="BASIC_FORMAT")
    argv = [sys.executable, "-m", "qcrb_kit.cli", "compute", "--model", str(model_paths["pure"])]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert done.returncode == EXIT_OK
    assert "Traceback" not in done.stderr
    assert done.stdout.startswith("#qcrb-kit v1")


@pytest.mark.parametrize("entry, where", [
    (True, "povm.effects[0][0][0]: expected a number, got True"),
    (False, "povm.effects[0][0][0]: expected a number, got False"),
    ([0.5, True], "povm.effects[0][0][0][1]: expected a number, got True"),
    (["0.5", 0.0], "povm.effects[0][0][0][0]: expected a number, got '0.5'"),
    pytest.param(10**400, "povm.effects[0][0][0]: integer beyond the float range", id="huge"),
])
def test_a_non_numeric_povm_entry_exits_one_without_traceback(
    model_paths, tmp_path, capsys, entry, where
):
    povm = tmp_path / "odd_povm.json"
    povm.write_text(json.dumps({
        "kind": "explicit",
        "effects": [[[entry, 0.0], [0.0, 0.5]], [[0.0, 0.0], [0.0, 0.5]]],
    }))
    code, out, err = run_cli(["compute", "--model", model_paths["pure"], "--povm", povm], capsys)
    assert code == EXIT_CONFIG
    assert err.strip() == f"error: {where}"
    assert out == ""


@pytest.mark.parametrize("command", ["compute", "simulate"])
@pytest.mark.parametrize("effects, where", [
    ([[[1, 0], [0]], [[0, 0], [0, 1]]], "povm.effects[0]: rows of unequal length"),
    ([[[1, 0], 5], [[0, 0], [0, 1]]], "povm.effects[0]: expected a matrix (list of rows)"),
], ids=["ragged", "row-not-a-list"])
def test_a_malformed_povm_matrix_exits_one_without_traceback(
    model_paths, tmp_path, capsys, command, effects, where
):
    povm = tmp_path / "odd_povm.json"
    povm.write_text(json.dumps({"kind": "explicit", "effects": effects}))
    code, out, err = run_cli([command, "--model", model_paths["pure"], "--povm", povm], capsys)
    assert code == EXIT_CONFIG
    assert err.strip() == f"error: {where}"
    assert out == ""


@pytest.mark.parametrize("command", ["compute", "simulate"])
@pytest.mark.parametrize("fields, argv, step", [
    ({"fd_step": 0.001}, [], "0.001"),
    ({"fd_step": 0.001}, ["--fd-step", "2e-4"], "0.0002"),
    ({}, [], "1e-05"),
])
def test_model_runs_with_the_config_step_unless_the_option_is_given(
    model_paths, tmp_path, capsys, command, fields, argv, step
):
    cfg = tmp_path / "pure.json"
    cfg.write_text(json.dumps({"kind": "pure", "psi1": {"name": "rotation"}, **fields}))
    extra = ["--povm", model_paths["basis"], "--n-samples", "100"] if command == "simulate" else []
    code, out, _ = run_cli([command, "--model", cfg, *extra, *argv], capsys)
    assert code == EXIT_OK
    assert f"\n#fd_step {step}\n" in out


def test_one_parser_serves_every_call_without_carrying_options_over(model_paths, tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    cfg = tmp_path / "pure.json"
    cfg.write_text(json.dumps({"kind": "pure", "psi1": {"name": "rotation"}, "fd_step": 1e-4}))
    code, out, _ = run_cli(["compute", "--model", model_paths["pure"], "--fd-step", "1e-3"], capsys)
    assert code == EXIT_OK
    assert "\n#fd_step 0.001\n" in out
    code, out, _ = run_cli(["compute", "--model", cfg], capsys)
    assert code == EXIT_OK
    assert "\n#fd_step 0.0001\n" in out


@pytest.mark.parametrize("command", ["sweep-w", "verify"])
def test_commands_without_a_model_config_report_the_default_step(capsys, command):
    code, out, _ = run_cli([command], capsys)
    assert code == EXIT_OK
    assert "\n#fd_step 1e-05\n" in out


@pytest.mark.parametrize("argv", [["--fd-step", "-1"], ["--fd-step=-1"]])
def test_negative_fd_step_exits_one_without_traceback(model_paths, capsys, argv):
    code, _, err = run_cli(["compute", "--model", model_paths["pure"], *argv], capsys)
    assert code == EXIT_CONFIG
    assert "error: argument --fd-step: must be positive" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["compute", "sweep-w"])
def test_seed_exits_one_on_a_command_that_draws_nothing(model_paths, capsys, command):
    model = ["--model", model_paths["pure"]] if command == "compute" else []
    code, _, err = run_cli([command, *model, "--seed", "5"], capsys)
    assert code == EXIT_CONFIG
    assert "unrecognized arguments: --seed=5" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--theta", "inf"], "--theta: must be finite"),
        (["--theta-grid", "-inf:1:3"], "bounds must be finite"),
    ],
)
def test_non_finite_theta_exits_one_without_traceback(model_paths, capsys, argv, message):
    code, _, err = run_cli(["compute", "--model", model_paths["pure"], *argv], capsys)
    assert code == EXIT_CONFIG
    assert message in err
    assert "Traceback" not in err


def test_overflowing_logistic_weight_is_a_domain_error(tmp_path, capsys):
    # exp(-1000 * -0.8) overflows; the weight is 0.0, outside (0, 1)
    cfg = tmp_path / "steep.json"
    cfg.write_text(json.dumps({
        "kind": "qubit_mixture",
        "psi1": {"name": "rotation"},
        "weight": {"form": "logistic", "params": [1000, 0]},
    }))
    code, out, err = run_cli(["compute", "--model", cfg, "--theta", "-0.8"], capsys)
    assert code == EXIT_CONFIG
    assert "error: DomainError: weight 0.0 " in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("theta", ["1e8", "1e20"])
def test_huge_theta_on_a_seeded_spectral_frame_exits_zero(tmp_path, capsys, theta):
    # the exp(theta K) frame comes from one eigendecomposition of K, so it
    # stays unitary and the routes agree at any finite theta
    cfg = tmp_path / "spectral.json"
    cfg.write_text(json.dumps({"kind": "spectral", "dim": 3, "seed": 4}))
    code, out, err = run_cli(["compute", "--model", cfg, "--theta", theta], capsys)
    assert code == EXIT_OK
    assert err == ""
    (row,) = rows_of(out)
    assert row["i_h_sld"] == pytest.approx(row["i_h_closed"], rel=DEFAULT_TOL_ANALYTIC)


def test_a_theta_whose_frame_overflows_exits_two_with_the_error_line_only(tmp_path, capsys):
    # exp(theta K) overflows at 1e308; the frame is read as not finite where the
    # model reads it, and numpy's warnings stay off stderr (pytest makes them errors)
    cfg = tmp_path / "spectral.json"
    cfg.write_text(json.dumps({"kind": "spectral", "dim": 5, "seed": 3}))
    code, out, err = run_cli(["compute", "--model", cfg, "--theta", "1e308"], capsys)
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err == "error: ValueError: frame deviates from unitarity by nan at theta=1e+308\n"


@pytest.mark.parametrize("spectrum", [
    [0.6, 0.4, 1e-16],
    [0.6, 0.4, 1e-13],
    [0.3, 0.2, 0.15, 0.1, 0.1, 0.1, 0.05, 1e-16],
    [0.3, 0.2, 0.15, 0.1, 0.1, 0.1, 0.05, 1e-13],
], ids=["dim3-1e-16", "dim3-1e-13", "dim8-1e-16", "dim8-1e-13"])
def test_a_weight_below_the_support_tolerance_passes_the_skew_gates(tmp_path, capsys, spectrum):
    # the spectral closed forms take sqrt(lam_k lam_l) under the support rule
    # of the definitional route's square root, so a weight of rounding size
    # counts as 0 on both routes and the skew residuals stay at rounding
    cfg = tmp_path / "spectral.json"
    cfg.write_text(json.dumps({"kind": "spectral", "spectrum": spectrum, "seed": 3}))
    code, out, err = run_cli(["compute", "--model", cfg, "--theta-grid=-1:1:5"], capsys)
    assert (code, err) == (EXIT_OK, "")
    rows = rows_of(out)
    assert len(rows) == 5
    for row in rows:
        assert row["res_route_i_wy"] <= 1e-11
        assert abs(row["res_relation"]) <= 1e-11


# --- the cells of a row --------------------------------------------------------

RELATION_KEY = {"pure": "pure_doubling", "qubit_mixture": "prop1", "spectral": "prop2"}


def _expected_cells(report) -> dict:
    """Every report-backed cell of compute and the sweeps, written out by hand."""
    return {
        "theta": report.theta, "kind": report.kind,
        "i_h_sld": report.i_h_sld, "i_h_closed": report.i_h_closed,
        "i_wy_generic": report.i_wy_generic, "i_wy_closed": report.i_wy_closed,
        "ratio": report.ratio, "gap": report.gap,
        "alpha": report.alpha, "beta": report.beta, "gamma": report.gamma,
        "score_mean": report.score_mean,
        "sharp_bound": report.sharp_bound, "approx_bound": report.approx_bound,
        "res_route_i_h": report.residuals["route_i_h"],
        "res_route_i_wy": report.residuals.get("route_i_wy"),
        "res_relation": report.residuals[RELATION_KEY[report.kind]],
        "res_prop1": report.residuals.get("prop1"),
        "res_prop2": report.residuals.get("prop2"),
        "cfi": None, "cfi_gap": None, "cfi_ok": None, "crb": None,
    }


def _closed_route_cells(report) -> dict:
    """A sweep's I_H, I_WY, gap and ratio, from the closed routes."""
    i_h, i_wy = report.i_h_closed, report.i_wy_closed
    ratio = i_wy / i_h if i_h > quantum.NEAR_ZERO_INFO else None
    return {"i_h": i_h, "i_wy": i_wy, "gap": i_wy - i_h, "ratio": ratio}


COMPUTE_CONFIGS = {
    "pure": {"kind": "pure", "psi1": {"name": "random"}, "dim": 4, "seed": 5},
    "qubit-mixture": ROTATION_MIXTURE | {"weight": {"form": "sine", "params": [0.8]}},
    "spectral": {"kind": "spectral", "dim": 4, "seed": 7},
}
# each default sweep: its axis, and the point at a grid value x
DEFAULT_SWEEPS = {
    "sweep-w": ("w", lambda w: QubitMixtureModel(rotation_family(), constant_weight(w)).at(0.3)),
    "sweep-spectrum": ("t", lambda t: fixed_spectrum_model(
        (1.0 - t) * np.array([0.7, 0.2, 0.1]) + t * np.full(3, 1.0 / 3.0), seed=DEFAULT_SEED
    ).at(0.3)),
}


@pytest.mark.parametrize("case", [*COMPUTE_CONFIGS, *DEFAULT_SWEEPS])
def test_every_cell_is_the_report_value_of_its_name(tmp_path, capsys, case):
    # each cell equals, exactly, the relation_report value of the same name at
    # its grid point; a sweep's i_h, i_wy, gap and ratio are the closed routes'
    if case in DEFAULT_SWEEPS:
        argv = [case]
        axis, point_at = DEFAULT_SWEEPS[case]
    else:
        path = tmp_path / "model.json"
        path.write_text(json.dumps(COMPUTE_CONFIGS[case]))
        argv = ["compute", "--model", path, "--theta-grid=-1:1:5"]
        axis, point_at = "theta", model_from_config(COMPUTE_CONFIGS[case]).at
    code, out, _ = run_cli([*argv, "--format", "json"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["rows"]
    for row in payload["rows"]:
        report = quantum.relation_report(point_at(row[axis]))
        expected = {axis: row[axis], **_expected_cells(report)}
        if case in DEFAULT_SWEEPS:
            expected.update(_closed_route_cells(report))
        assert row == {c: expected[c] for c in payload["columns"]}


# --- sweep-w -----------------------------------------------------------------

def test_sweep_w_gap_column_matches_closed_form(capsys):
    code, out, _ = run_cli(["sweep-w", "--w-grid", "0.5:0.9:5"], capsys)
    assert code == EXIT_OK
    for row in rows_of(out):
        w = row["w"]
        expected = (1.0 - 2.0 * math.sqrt(w * (1.0 - w))) ** 2 * 4.0
        assert row["gap"] == pytest.approx(expected, abs=1e-9)
    first = rows_of(out)[0]
    assert first["w"] == 0.5 and abs(first["gap"]) <= 1e-10
    assert rows_of(out)[0]["alpha"] == pytest.approx(1.0, abs=1e-12)


def test_sweep_w_symmetric_grid(capsys):
    code, out, _ = run_cli(["sweep-w", "--w-grid", "0.1:0.9:9"], capsys)
    assert code == EXIT_OK
    rows = rows_of(out)
    gaps = {round(r["w"], 3): r["gap"] for r in rows}
    for w in (0.1, 0.2, 0.3, 0.4):
        assert gaps[w] == pytest.approx(gaps[round(1.0 - w, 3)], abs=1e-12)


def test_sweep_w_boundary_grid_rejected(capsys):
    code, _, err = run_cli(["sweep-w", "--w-grid", "0:1:5"], capsys)
    assert code == EXIT_CONFIG
    assert "boundary" in err


# --- sweep-spectrum ------------------------------------------------------------

def test_sweep_spectrum_endpoints(capsys):
    code, out, _ = run_cli(
        ["sweep-spectrum", "--start-spectrum", "0.7,0.2,0.1", "--t-grid", "0:1:5", "--seed", "7"],
        capsys,
    )
    assert code == EXIT_OK
    rows = rows_of(out)
    assert abs(rows[-1]["gap"]) <= 1e-7
    # at t=0 the gap equals the eigenvalue-based correction gamma
    assert rows[0]["gap"] == pytest.approx(rows[0]["gamma"], abs=1e-9)


def test_sweep_spectrum_two_dims_reproduces_weight_sweep(capsys):
    code, out, _ = run_cli(
        [
            "sweep-spectrum", "--start-spectrum", "0.9,0.1", "--t-grid", "0:1:5",
            "--frame", "rotation",
        ],
        capsys,
    )
    assert code == EXIT_OK
    for row in rows_of(out):
        w = 0.9 - 0.4 * row["t"]
        expected = (1.0 - 2.0 * math.sqrt(w * (1.0 - w))) ** 2 * 4.0
        assert row["gap"] == pytest.approx(expected, abs=1e-9)


def test_sweep_spectrum_invalid_spectrum_rejected(capsys):
    code, _, _ = run_cli(["sweep-spectrum", "--start-spectrum", "0.7,0.7"], capsys)
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("spectrum", ["nan,0.5", "0.5,nan,0.5"])
def test_a_nan_start_spectrum_is_a_domain_error(capsys, spectrum):
    code, out, err = run_cli(["sweep-spectrum", "--start-spectrum", spectrum], capsys)
    assert code == EXIT_CONFIG
    assert err.strip().splitlines()[-1] == (
        f"error: DomainError: --start-spectrum must be a distribution, got {spectrum}"
    )
    assert out == ""


# --- verify ----------------------------------------------------------------------

def test_verify_exits_zero_on_shipped_catalog(capsys):
    code, out, _ = run_cli(["verify"], capsys)
    assert code == EXIT_OK
    rows = rows_of(out)
    assert all(r["passed"] is True for r in rows)


def test_verify_flips_to_two_on_corrupted_catalog(capsys, monkeypatch):
    from qcrb_kit import verify as verify_mod
    from qcrb_kit.models import ParametricStateModel, builtin_models

    class CorruptModel(ParametricStateModel):
        kind = "pure"

        def __init__(self):
            super().__init__(2)

        def rho_matrix(self, theta):
            return np.diag([0.91, 0.10])  # trace 1.01

    catalog = dict(builtin_models())
    catalog["corrupt"] = CorruptModel()
    monkeypatch.setattr(verify_mod, "builtin_models", lambda fd_step: catalog)
    code, out, _ = run_cli(["verify"], capsys)
    assert code == EXIT_NUMERIC
    rows = rows_of(out)
    assert any(r["passed"] is False and "NotDensityMatrix" in str(r["detail"]) for r in rows)


def test_verify_tightened_fd_tolerance_exits_two(capsys):
    code, out, _ = run_cli(["verify", "--tol-fd", "1e-14"], capsys)
    assert code == EXIT_NUMERIC
    rows = rows_of(out)
    assert all(r["kind"] == "fd" for r in rows if r["passed"] is False)


@pytest.mark.parametrize(
    "full, abbreviated", [("--tol-analytic", "--tol-anal"), ("--tol-fd", "--tol-f")]
)
def test_verify_gates_at_an_abbreviated_tolerance_flag(capsys, full, abbreviated):
    # argparse accepts a unique prefix of an option; the rows gate at the
    # value it parsed, whichever spelling carried it
    code, out, err = run_cli(["verify", full, "1e-30"], capsys)
    assert code == EXIT_NUMERIC
    assert f"#{full[2:].replace('-', '_')} 1e-30\n" in out
    assert run_cli(["verify", abbreviated, "1e-30"], capsys) == (code, out, err)


def test_unset_tolerances_report_the_class_defaults(capsys):
    code, out, _ = run_cli(["verify"], capsys)
    assert code == EXIT_OK
    assert "\n#tol_analytic 1e-08\n#tol_fd 1e-06\n" in out


# --- simulate ----------------------------------------------------------------------

def test_simulate_attaining_measurement(model_paths, capsys):
    code, out, _ = run_cli(
        [
            "simulate", "--model", model_paths["pure"], "--povm", model_paths["basis"],
            "--theta0", "0.3", "--n-samples", "20000", "--seed", "9", "--format", "json",
        ],
        capsys,
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    row = payload["rows"][0]
    assert row["crb"] == pytest.approx(0.25, abs=1e-9)
    assert abs(row["empirical_var"] - 0.25) <= 3 * row["standard_error_of_var"]


def test_simulate_seed_repeat_identical(model_paths, capsys):
    argv = [
        "simulate", "--model", model_paths["pure"], "--povm", model_paths["basis"],
        "--theta0", "0.3", "--n-samples", "5000", "--seed", "13",
    ]
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert (code1, out1) == (code2, out2)


@pytest.mark.parametrize("theta0", ["1e17", "1e300"])
def test_simulate_at_a_huge_theta0_takes_the_moments_of_the_deviations(tmp_path, capsys, theta0):
    # every estimate theta0 + score/(p i) rounds to theta0 here, so moments of the
    # estimates would read a variance of 0 (or overflow); the moments are those of
    # the deviations score/(p i), and the chain holds, with stderr empty
    model = tmp_path / "mix.json"
    model.write_text(json.dumps({"kind": "qubit_mixture", "psi1": {"name": "rotation"},
                                 "weight": {"form": "sine", "params": [0.7]}}))
    povm = tmp_path / "povm.json"
    povm.write_text(json.dumps({"kind": "random", "dim": 2, "n_effects": 4, "seed": 5}))
    code, out, err = run_cli(["simulate", "--model", model, "--povm", povm,
                              "--theta0", theta0, "--n-samples", "200"], capsys)
    assert (code, err) == (EXIT_OK, "")
    (row,) = rows_of(out)
    assert 0.0 < row["empirical_var"] < math.inf and 0.0 < row["standard_error_of_var"] < math.inf
    assert abs(row["empirical_var"] - row["crb"]) <= 3.0 * row["standard_error_of_var"]
    assert row["bound_chain_ok"] is True


def test_simulate_trivial_povm_exits_two(model_paths, capsys):
    code, _, err = run_cli(
        ["simulate", "--model", model_paths["pure"], "--povm", model_paths["trivial"]],
        capsys,
    )
    assert code == EXIT_NUMERIC
    assert "ZeroInformation" in err


# --- formats ------------------------------------------------------------------------

def test_csv_round_trip_is_byte_identical(model_paths, capsys):
    code, out, _ = run_cli(
        ["compute", "--model", model_paths["mix"], "--theta-grid", "0.1:0.9:4"], capsys
    )
    assert code == EXIT_OK
    columns, rows, comments = parse_csv(out)
    meta = {}
    for comment in comments:
        key, _, value = comment[1:].partition(" ")
        meta[key] = parse_cell(value)
    assert emit_csv(columns, rows, meta) == out


def test_json_round_trip_is_byte_identical(model_paths, capsys):
    code, out, _ = run_cli(
        ["compute", "--model", model_paths["mix"], "--theta", "0.4", "--format", "json"],
        capsys,
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    again = emit_json(payload["columns"], payload["rows"], payload["meta"])
    assert again == out


# a cell or meta value: what the commands emit, and the edge cases of the encoder
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([
        math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.2250738585072014e-308, 1e308,
        np.float64(0.1), np.float64(-math.inf), np.float64(math.nan), np.bool_(True),
        np.bool_(False), np.int64(-7), np.int64(2**62),
    ]),
    # verify's detail: quotes, backslashes, newlines, control and non-ASCII characters
    st.text(),
    st.sampled_from(['a "quoted" \\ path', "two\nlines\ttab", "\x00\x1f\x7f", "θ ≤ π/2 ✓ 𝜌"]),
)
NAMES = st.text(max_size=12)


@settings(max_examples=200, deadline=None, derandomize=True)
@example(columns=[], cells=[], meta={})  # {} and [] stay on one line
@example(columns=["theta"], cells=[], meta={"passed": True})
@example(columns=["theta"], cells=[{"theta": 0.5}], meta={})
@given(
    columns=st.lists(NAMES, max_size=6, unique=True),
    cells=st.lists(st.dictionaries(NAMES, SCALARS, max_size=7), max_size=4),
    meta=st.dictionaries(NAMES, SCALARS, max_size=5),
)
def test_emit_json_writes_the_bytes_of_the_indented_dump(columns, cells, meta):
    # a row may miss a column (a null cell) or carry a key that is no column
    rows = [{**dict(zip(columns, row.values())), **row} for row in cells]
    payload = {
        "format": "qcrb-kit v1",
        "meta": {k: cli._pyify(v) for k, v in meta.items()},
        "columns": list(columns),
        "rows": [{c: cli._pyify(row.get(c)) for c in columns} for row in rows],
    }
    assert emit_json(columns, rows, meta) == json.dumps(payload, indent=2) + "\n"


def test_output_file_writing(model_paths, tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, _ = run_cli(
        ["compute", "--model", model_paths["pure"], "--out", target], capsys
    )
    assert code == EXIT_OK
    assert out == ""
    assert target.read_text().startswith("#qcrb-kit v1")


def test_bad_flags_exit_one(capsys):
    assert main(["compute"]) == EXIT_CONFIG  # missing --model
    assert main(["no-such-command"]) == EXIT_CONFIG
    capsys.readouterr()


def test_bad_grid_exits_one(model_paths, capsys):
    code, _, err = run_cli(
        ["compute", "--model", model_paths["pure"], "--theta-grid", "1.0:0.1:5"], capsys
    )
    assert code == EXIT_CONFIG
    assert "strictly increasing" in err


@pytest.mark.parametrize("argv", [["--theta-grid="], ["--theta-grid", ""]])
def test_an_empty_theta_grid_exits_one(model_paths, capsys, argv):
    # an empty grid is a malformed grid, not an unset one that falls back to --theta
    code, out, err = run_cli(["compute", "--model", model_paths["pure"], *argv], capsys)
    assert code == EXIT_CONFIG
    assert out == ""
    assert "error: --theta-grid: expected lo:hi:steps, got ''" in err


def test_compute_logs_a_route_error_as_a_warning(tmp_path, capsys, caplog, monkeypatch):
    def fail(grid):
        raise DomainError("route outside its domain")

    # the report runs the stage that the route table names
    monkeypatch.setattr(quantum, quantum.closed_routes("spectral")["i_h_closed"].closed, fail)
    model = tmp_path / "spectral.json"
    model.write_text(json.dumps({"kind": "spectral", "dim": 3, "seed": 7}))
    with caplog.at_level(logging.WARNING, logger="qcrb_kit"):
        code, out, _ = run_cli(["compute", "--model", model, "--theta", "0.3"], capsys)
    assert code == EXIT_OK
    (record,) = [r for r in caplog.records if "route errors" in r.getMessage()]
    assert record.levelno == logging.WARNING
    assert "theta=0.3" in record.getMessage()
    assert "i_h_closed': 'DomainError: route outside its domain'" in record.getMessage()
    (row,) = rows_of(out)
    assert row["i_h_closed"] is None and row["i_wy_closed"] is not None


@pytest.mark.parametrize("command", ["compute", "simulate"])
@pytest.mark.parametrize("entry", [math.nan, [0.0, math.inf], 1e308])
def test_a_non_finite_or_overflowing_povm_entry_exits_one(model_paths, tmp_path, capsys, command, entry):
    # json writes NaN/Infinity, which the reader parses back; 1e308 is finite
    # but its (A + A*)/2 overflows, so neither is a valid effect entry
    povm = tmp_path / "odd_povm.json"
    povm.write_text(json.dumps({
        "kind": "explicit",
        "effects": [[[entry, 0.0], [0.0, 0.5]], [[0.0, 0.0], [0.0, 0.5]]],
    }))
    argv = [command, "--model", model_paths["pure"], "--povm", povm]
    code, _, err = run_cli(argv, capsys)
    assert code == EXIT_CONFIG
    assert err.strip() == "error: povm: matrix entries must be finite"


@pytest.mark.parametrize("command", ["compute", "simulate"])
def test_an_overflowing_deviation_from_the_adjoint_exits_one_with_the_error_line_only(
    model_paths, tmp_path, capsys, command
):
    # 1e308 - (-1e308) overflows: the deviation is infinite, not a warning
    povm = tmp_path / "odd_povm.json"
    povm.write_text(json.dumps({
        "kind": "explicit",
        "effects": [[[0.5, 1e308], [-1e308, 0.5]], [[0.5, 0.0], [0.0, 0.5]]],
    }))
    argv = [command, "--model", model_paths["pure"], "--povm", povm]
    code, out, err = run_cli(argv, capsys)
    assert code == EXIT_CONFIG
    assert err == "error: povm: max deviation from conjugate transpose inf > 1e-12\n"
    assert out == ""
