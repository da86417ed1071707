"""Fuzz test of the exit-code contract: any input exits 0, 1 or 2, never with a traceback.

Model JSON, POVM JSON and argv are drawn for all five commands and run
in-process through ``cli.main``; an exception escaping ``main`` is what a
traceback would be in a fresh process. A drawn config is a valid one with
up to two fields replaced by an odd value (a wrong type, a non-finite or
huge number, a dimension past the ceiling) or deleted, so that most draws
reach the numerical layers and not only the config parser. Sizes stay small
(dimension at most 4, grids of at most 5 points, few samples) to keep the
module near 200 examples.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcrb_kit.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main

FUZZ = settings(deadline=None, derandomize=True)

ODD = st.sampled_from([
    None, True, "", "x", [], [1], {}, {"name": 1}, {"name": []}, 0, -1, 0.0, -0.0, 2.5, 65, 2**70,
    1e-300, 1e308, -1e308, math.inf, -math.inf, math.nan,
])


EDITABLE = ["kind", "dim", "seed", "psi1", "weight", "spectrum", "frame", "theta_domain",
            "fd_step", "n_effects", "effects", "bogus"]

# a matrix entry that is not a valid one: mostly non-finite or overflowing,
# sometimes out of range or malformed
ODD_ENTRY = st.sampled_from([
    math.nan, math.inf, -math.inf, [math.nan, 0.0], [0.0, math.inf], [0.0, -math.inf],
    1e308, [1e308, 1e308], -1.0, [0.0, 1.0], "x", [1.0],
])


def perturbed(draw, cfg):
    """``cfg`` as drawn, with up to two fields set to an odd value or deleted, or
    replaced whole by an odd value."""
    choice = draw(st.sampled_from(["keep", "keep", "keep", "edit", "edit", "odd"]))
    if choice == "odd":
        return draw(ODD)
    if choice == "edit":
        for _ in range(draw(st.integers(1, 2))):
            key = draw(st.sampled_from(EDITABLE))
            if draw(st.booleans()):
                cfg.pop(key, None)
            else:
                cfg[key] = draw(ODD)
    return cfg


def spectrum(draw, n):
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    total = sum(raw)
    return [x / total for x in raw] if total > 0 else [1.0 / n] * n


def model(draw, d):
    """A model config of dimension ``d`` (the qubit kinds are two-dimensional)."""
    seed = draw(st.integers(0, 40))
    kind = draw(st.sampled_from(["pure", "mixture", "spectral", "spectrum"]))
    if kind == "spectral":
        cfg = {"kind": "spectral", "dim": d, "seed": seed}
    elif kind == "spectrum":
        frame = draw(st.sampled_from(["random", "rotation"] if d == 2 else ["random"]))
        cfg = {"kind": "spectral", "spectrum": spectrum(draw, d), "frame": frame, "seed": seed}
    elif d != 2:
        cfg = {"kind": "pure", "psi1": {"name": "random"}, "dim": d, "seed": seed}
    else:
        name = draw(st.sampled_from(["rotation", "complex-rotation", "random"]))
        cfg = {"kind": "pure", "psi1": {"name": name}, "dim": 2, "seed": seed}
        if kind == "mixture":
            form = draw(st.sampled_from(["constant", "sine", "logistic"]))
            params = {
                "constant": [draw(st.floats(0.05, 0.95))],
                "sine": [draw(st.floats(-0.95, 0.95))],
                "logistic": [draw(st.floats(0.1, 3.0)), draw(st.floats(-0.5, 0.5))],
            }[form]
            cfg.update(kind="qubit_mixture", weight={"form": form, "params": params})
    if draw(st.booleans()):
        lo = draw(st.floats(-2.0, 0.0))
        cfg.update(theta_domain=[lo, lo + 1.0], fd_step=draw(st.sampled_from([1e-5, 1e-3, 0.2])))
    return perturbed(draw, cfg)


def povm(draw, d):
    """A POVM config of dimension ``d``."""
    kind = draw(st.sampled_from(["explicit", "basis", "random"]))
    if kind == "basis":
        cfg = {"kind": "basis", "dim": d}
    elif kind == "random":
        cfg = {"kind": "random", "dim": d, "n_effects": draw(st.integers(1, 4)),
               "seed": draw(st.integers(0, 40))}
    else:
        lam = spectrum(draw, d)
        effects = [
            [[lam[i] if i == j else 0.0 for j in range(d)] for i in range(d)],
            [[1.0 - lam[i] if i == j else [0.0, 0.0] for j in range(d)] for i in range(d)],
        ]
        if draw(st.booleans()):
            k, i, j = draw(st.tuples(st.integers(0, 1), st.integers(0, d - 1), st.integers(0, d - 1)))
            effects[k][i][j] = draw(ODD_ENTRY)
        cfg = {"kind": "explicit", "effects": effects}
    return perturbed(draw, cfg)


@st.composite
def model_and_povm(draw):
    """A model config and a POVM config, mostly of matching dimension."""
    d = draw(st.integers(1, 4))
    d_povm = draw(st.one_of(st.just(d), st.integers(1, 4)))
    return model(draw, d), povm(draw, d_povm)


def number_text():
    """Option values as a user might type them, well-formed or not."""
    return st.one_of(
        st.floats(-1.5, 1.5).map(repr),
        st.sampled_from(["0", "3", "-2", "1e-3", "1e-300", "1e308", "", "nan", "inf",
                         "-inf", "1e999", "0x10", "abc", "1,2"]),
    )


def grid_text():
    steps = st.sampled_from(["1", "2", "5", "0", "-3", "x"])
    return st.one_of(st.tuples(number_text(), number_text(), steps).map(":".join), number_text())


def options(pairs):
    """argv tokens for a few of ``pairs`` (flag -> value strategy), in drawn order."""
    flag_values = [st.tuples(st.just(flag), values) for flag, values in pairs.items()]
    return st.lists(st.one_of(*flag_values), max_size=2).map(
        lambda chosen: [token for flag, value in chosen for token in (flag, value)]
    )


COMMON = {
    "--format": st.sampled_from(["csv", "json", "xml"]),
    "--fd-step": number_text(),
    "--tol-analytic": number_text(),
    "--tol-fd": number_text(),
    "--seed": number_text(),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def config_path(workdir, name, payload):
    path = workdir / name
    path.write_text(json.dumps(payload))
    return str(path)


def assert_contract(argv, workdir):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([*argv, "--out", str(workdir / "out.txt")])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC), (argv, code)
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())


@settings(FUZZ, max_examples=80)
@given(
    configs=model_and_povm(), with_povm=st.booleans(),
    extra=options({**COMMON, "--theta": number_text(), "--theta-grid": grid_text()}),
)
def test_compute_honours_the_exit_code_contract(workdir, configs, with_povm, extra):
    argv = ["compute", "--model", config_path(workdir, "m.json", configs[0])]
    if with_povm:
        argv += ["--povm", config_path(workdir, "p.json", configs[1])]
    assert_contract(argv + extra, workdir)


@settings(FUZZ, max_examples=20)
@given(
    d=st.integers(1, 4), cell=st.tuples(st.integers(0, 1), st.integers(0, 3), st.integers(0, 3)),
    entry=ODD_ENTRY,
)
def test_an_odd_explicit_povm_entry_is_a_config_error(workdir, d, cell, entry):
    # every entry of ODD_ENTRY makes the POVM invalid input: it must exit 1
    # with a povm message, never 2, whichever layer refuses it
    k, i, j = cell[0], cell[1] % d, cell[2] % d
    effects = [
        [[0.5 if r == c else 0.0 for c in range(d)] for r in range(d)] for _ in range(2)
    ]
    effects[k][i][j] = entry
    model_cfg = {"kind": "spectral", "dim": d, "seed": 3}
    argv = [
        "compute", "--model", config_path(workdir, "m.json", model_cfg),
        "--povm", config_path(workdir, "p.json", {"kind": "explicit", "effects": effects}),
    ]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([*argv, "--out", str(workdir / "out.txt")])
    assert code == EXIT_CONFIG, (argv, err.getvalue())
    assert err.getvalue().startswith("error: povm"), (argv, err.getvalue())


@settings(FUZZ, max_examples=45)
@given(
    configs=model_and_povm(),
    extra=options({
        **COMMON, "--theta0": number_text(),
        "--n-samples": st.sampled_from(["100", "250", "99", "0", "-5", "1e3", "x"]),
    }),
)
def test_simulate_honours_the_exit_code_contract(workdir, configs, extra):
    argv = [
        "simulate", "--model", config_path(workdir, "m.json", configs[0]),
        "--povm", config_path(workdir, "p.json", configs[1]), "--n-samples", "100",
    ]
    assert_contract(argv + extra, workdir)


@settings(FUZZ, max_examples=30)
@given(extra=options({
    **COMMON, "--w-grid": grid_text(), "--theta": number_text(),
    "--psi1": st.sampled_from(["rotation", "complex-rotation", "random"]),
}))
def test_sweep_w_honours_the_exit_code_contract(workdir, extra):
    assert_contract(["sweep-w", *extra], workdir)


@settings(FUZZ, max_examples=30)
@given(extra=options({
    **COMMON, "--t-grid": grid_text(), "--theta": number_text(),
    "--start-spectrum": st.lists(number_text(), max_size=4).map(",".join),
    "--frame": st.sampled_from(["random", "rotation", "helix"]),
}))
def test_sweep_spectrum_honours_the_exit_code_contract(workdir, extra):
    assert_contract(["sweep-spectrum", *extra], workdir)


@settings(FUZZ, max_examples=4)
@given(extra=options(COMMON))
def test_verify_honours_the_exit_code_contract(workdir, extra):
    # a full suite run costs a few hundred milliseconds, hence the few examples
    assert_contract(["verify", *extra], workdir)
