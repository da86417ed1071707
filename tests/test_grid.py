"""Tests for theta grids: stacked kernels, the stencil stages and the route-scalar
stages equal per-matrix and per-theta calls bit for bit, a grid gives the rows of its
points evaluated alone, a failing stage splits the grid into grids of one, and a long
grid over a large model is evaluated block by block."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from qcrb_kit import cli
from qcrb_kit.errors import (
    DomainError,
    InvalidPovm,
    NotDensityMatrix,
    NotHermitianError,
    NotPositiveSemidefinite,
    RankDeficientInconsistent,
)
from qcrb_kit.hermitian import (
    SUPPORT_TOL,
    HermitianMatrix,
    SpectralDecomposition,
    density_stack,
    eigh,
    psd_sqrt,
    real_trace_product,
    real_traces_against,
    solve_symmetric_product,
    trace_product,
)
from qcrb_kit.classical import (
    COMPLETENESS_ATOL,
    SCORE_BLOWUP_ATOL,
    SUPPORT_PROB,
    Povm,
    classical_fisher,
    outcome_probs,
    random_povm,
)
from qcrb_kit.models import (
    GRID_BLOCK_ENTRIES,
    ParametricStateModel,
    PureStateModel,
    QubitMixtureModel,
    StateGrid,
    WeightFunction,
    _drho_fd_stage,
    _dsqrt_fd_stage,
    builtin_models,
    random_spectral_model,
    rotation_family,
)
from qcrb_kit.quantum import (
    _qubit_ingredients,
    helstrom_info_qubit_closed,
    helstrom_info_sld,
    relation_report,
    sld,
    wy_info_generic,
)

DIMS = (1, 2, 3, 4, 8, 16, 64)
LAYERS = (1, 2, 21)


def _hermitian_stack(rng, t, n):
    g = rng.normal(size=(t, n, n)) + 1j * rng.normal(size=(t, n, n))
    return (g + g.conj().swapaxes(-1, -2)) / 2.0


def _digest(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# --- stacked kernels ------------------------------------------------------------------

@pytest.mark.parametrize("t", LAYERS)
@pytest.mark.parametrize("n", DIMS)
def test_stacked_kernels_equal_the_per_matrix_calls_bitwise(n, t):
    rng = np.random.default_rng(1000 * n + t)
    h = HermitianMatrix.of_checked(_hermitian_stack(rng, t, n))
    dec = eigh(h)
    assert (h.dim, dec.dim) == (n, n)
    rhs = _hermitian_stack(rng, t, n)
    # even layers rank-deficient: their last eigenvalues are zeroed, and the
    # right-hand side has no weight on the pairs that drop out
    lam = np.abs(dec.eigenvalues) + 0.1
    vecs = dec.eigenvectors
    r_tilde = vecs.conj().swapaxes(-1, -2) @ rhs @ vecs
    for k in range(0, t, 2):
        lam[k, : n // 2] = 0.0
        r_tilde[k, : n // 2, : n // 2] = 0.0
    rhs = vecs @ r_tilde @ vecs.conj().swapaxes(-1, -2)
    rhs = (rhs + rhs.conj().swapaxes(-1, -2)) / 2.0
    psd = SpectralDecomposition(eigenvalues=lam, eigenvectors=vecs)
    x = solve_symmetric_product(psd, rhs)
    assert x.dim == n
    effects = random_povm(n, 3, n).stack
    traces = real_trace_product([h, x, x])
    rule = real_traces_against(h, effects)
    for k in range(t):
        one = eigh(HermitianMatrix.of_checked(h.mat[k]))
        assert _same(one.eigenvalues, dec.eigenvalues[k])
        assert _same(one.eigenvectors, dec.eigenvectors[k])
        x_k = solve_symmetric_product(
            SpectralDecomposition(eigenvalues=lam[k], eigenvectors=vecs[k]), rhs[k]
        )
        assert _same(x_k.mat, x.mat[k])
        assert _same(real_trace_product([h.mat[k], x_k, x_k]), traces[k])
        assert _same(trace_product([h.mat[k], x_k]), trace_product([h, x])[k])
        assert _same(real_traces_against(h.mat[k], effects), rule[k])


def test_a_stack_of_one_gives_the_2d_types():
    h = HermitianMatrix([[0.6, 0.1j], [-0.1j, 0.4]])
    value = real_trace_product([h, h])
    assert type(value) is float
    assert type(trace_product([h, h])) is complex
    assert real_trace_product([h.mat[None], h.mat[None]]).shape == (1,)


def test_the_first_failing_layer_names_the_error():
    good = np.diag([0.7, 0.3]).astype(complex)

    def with_layers(bad):
        stack = np.repeat(good[None], 4, axis=0)
        for k, layer in bad.items():
            stack[k] = layer
        return stack

    skew1 = good + np.array([[0, 1e-6], [0, 0]])
    skew3 = good + np.array([[0, 1e-3], [0, 0]])
    with pytest.raises(NotHermitianError, match=r"deviation from conjugate transpose 1\.000e-06 "):
        density_stack(with_layers({1: skew1, 3: skew3}))
    with pytest.raises(NotDensityMatrix, match=r"trace np\.float64\(1\.01\) is not 1"):
        density_stack(with_layers({1: 1.01 * good, 2: 1.02 * good}))
    with pytest.raises(NotPositiveSemidefinite, match=r"^eigenvalue -1\.000e-03 below floor"):
        density_stack(with_layers({2: np.diag([1.001, -0.001]), 3: np.diag([1.01, -0.01])}))
    lam = np.array([[1.0, 0.5], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    vecs = np.repeat(np.eye(2, dtype=complex)[None], 4, axis=0)
    rhs = np.zeros((4, 2, 2), dtype=complex)
    rhs[0, 1, 1] = 0.7  # consistent: a full-rank layer
    rhs[2, 1, 1], rhs[3, 1, 1] = 0.5, 0.25
    with pytest.raises(RankDeficientInconsistent, match=r"^right-hand side has weight 5\.000e-01 outside"):
        solve_symmetric_product(SpectralDecomposition(lam, vecs), rhs)


# --- stencil stages -------------------------------------------------------------------

def _dsqrt_formula(model, theta):
    # the square-root difference of one theta: two states, two psd_sqrt calls
    h = model.fd_step
    d = (psd_sqrt(model.rho(theta + h)).mat - psd_sqrt(model.rho(theta - h)).mat) / (2.0 * h)
    return HermitianMatrix(d).mat


def _drho_formula(model, theta):
    d = model._difference(model.rho_matrix, theta)
    return HermitianMatrix((d + d.conj().T) / 2.0).mat


@pytest.mark.parametrize("t", LAYERS)
@pytest.mark.parametrize("n", DIMS)
def test_stencil_stages_equal_the_per_theta_differences_bitwise(n, t):
    # at n = 64 a block holds 8 thetas, and its stencil is cut in two
    model = random_spectral_model(n + t, n)
    thetas = np.linspace(-1.0, 1.0, t).tolist()
    for pt in model.grid(thetas):
        assert _same(pt.layer(_dsqrt_fd_stage)[0], _dsqrt_formula(model, pt.theta))
        assert _same(pt.layer(_drho_fd_stage)[0], _drho_formula(model, pt.theta))


@pytest.mark.parametrize("stage", [_dsqrt_fd_stage, _drho_fd_stage])
def test_a_stencil_that_leaves_the_domain_fails_alone(stage):
    model = random_spectral_model(3, 4, domain=(-1.0, 1.0))
    h = model.fd_step
    # the stencils of the first and the last theta leave the domain at -1 - h and 1 + h
    thetas = [-1.0 + 0.5 * h, -0.3, 1.0, 0.4]
    points = list(model.grid(thetas))
    for pt in points:
        alone = model.at(pt.theta)
        if pt.theta in (thetas[0], thetas[2]):
            with pytest.raises(DomainError) as expected:
                model._difference(model.rho_matrix, pt.theta)
            for point in (pt, alone):
                with pytest.raises(DomainError) as raised:
                    point.layer(stage)
                assert str(raised.value) == str(expected.value)
        else:
            assert _same(pt.layer(stage)[0], alone.layer(stage)[0])


def test_the_fallback_is_the_square_root_difference():
    # at 0.4 h the stencil straddles the support drop, so the difference is not 0
    model = SupportDropModel()
    thetas = [-0.3, 0.4 * model.fd_step, 0.3]
    for pt in model.grid(thetas):
        fell_back = pt.theta > 0
        assert relation_report(pt).diagnostics["fd_fallback"] is fell_back
        if fell_back:
            assert _same(pt.dsqrt.matrix.mat, _dsqrt_formula(model, pt.theta))
    assert np.abs(model.at(thetas[1]).dsqrt.matrix.mat).max() > 1.0


# --- route-scalar stages ---------------------------------------------------------------
# The per-point formulas that the stages replaced, kept here as their oracles.

def _helstrom_formula(pt):
    l_mat = sld(pt).matrix
    return real_trace_product([pt.rho, l_mat, l_mat])


def _wy_formula(pt):
    d = pt.dsqrt
    return 4.0 * real_trace_product([d.matrix, d.matrix])


def _qubit_formula(pt):
    model, theta, h = pt.model, pt.theta, pt.model.fd_step
    model._require_stencil_in_domain(theta)
    w = model.weight.value(theta)
    dw = model.weight.slope(theta, h)
    dp = model.psi1.projector_derivative(theta, h)
    return w, dw, 2.0 * real_trace_product([dp, dp])


def _fisher_formula(pt, povm):
    probs = real_traces_against(pt.rho, povm.stack)
    if float(np.min(probs)) < -SUPPORT_PROB:
        raise InvalidPovm(f"negative outcome probability {float(np.min(probs)):.3e}")
    probs = np.clip(probs, 0.0, None)
    total = float(np.sum(probs))
    if abs(total - 1.0) > COMPLETENESS_ATOL:
        raise InvalidPovm(f"outcome probabilities sum to {total!r}")
    support = probs > SUPPORT_PROB
    scores = real_traces_against(pt.drho, povm.stack)
    if not support.all():
        blowup = np.flatnonzero(~support & (np.abs(scores) > SCORE_BLOWUP_ATOL))
        if blowup.size:
            raise AssertionError("no catalog point blows up")
        scores, probs = scores[support], probs[support]
    total = 0.0
    for s, p in zip(scores, probs):
        total += s * s / p
    return probs, total


def _assert_stages_equal_the_formulas(model, thetas, povm):
    for pt in model.grid(thetas):
        alone = model.at(pt.theta)
        assert _same(helstrom_info_sld(pt), _helstrom_formula(alone))
        assert _same(wy_info_generic(pt), _wy_formula(alone))
        if model.kind == "qubit_mixture":
            assert _same(pt.cached(_qubit_ingredients), _qubit_formula(alone))
        probs, fisher = _fisher_formula(alone, povm)
        assert _same(outcome_probs(pt, povm).probs, probs)
        assert _same(classical_fisher(pt, povm), fisher)


@pytest.mark.parametrize("name", sorted(builtin_models()))
def test_route_stages_equal_the_per_point_formulas_bitwise(name):
    model = builtin_models()[name]
    _assert_stages_equal_the_formulas(model, model.sample_thetas, random_povm(model.dim, 5, 17))


def test_route_stages_equal_the_per_point_formulas_at_dimension_64():
    # 21 thetas over dimension 64: three blocks, of 8, 8 and 5 thetas
    model = random_spectral_model(6, 64)
    thetas = np.linspace(-1.0, 1.0, 21).tolist()
    _assert_stages_equal_the_formulas(model, thetas, random_povm(64, 9, 23))


def _error_text(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # noqa: BLE001 - the text is what is compared
        return f"{type(exc).__name__}: {exc}"
    return None


def test_a_negative_probability_fails_alone_with_its_own_text():
    # effect 0 has eigenvalue -5e-11, inside the measurement's floor; at
    # theta near pi/2 the rotated state sees it as a probability below
    # -SUPPORT_PROB, and each such theta names its own
    eps = 5e-11
    povm = Povm([np.diag([0.5, -eps]), np.diag([0.5, 1.0 + eps])])
    model = PureStateModel(rotation_family())
    thetas = [0.3, math.pi / 2, 1.0, math.pi / 2 + 2e-6, -0.4]
    texts = []
    for pt in model.grid(thetas):
        text = _error_text(classical_fisher, pt, povm)
        assert text == _error_text(classical_fisher, model.at(pt.theta), povm)
        assert text == _error_text(outcome_probs, pt, povm)
        if text is None:
            assert _same(classical_fisher(pt, povm), classical_fisher(model.at(pt.theta), povm))
        texts.append(text)
    assert texts == [
        None, "InvalidPovm: negative outcome probability -5.000e-11", None,
        "InvalidPovm: negative outcome probability -4.800e-11", None,
    ]


class ClippedRhoMixture(QubitMixtureModel):
    """A rotation mixture whose weight theta leaves (0, 1) past 1, while rho clips it:
    the state is valid everywhere, and only the weight's readers fail there."""

    def __init__(self):
        super().__init__(rotation_family(), WeightFunction(w=lambda t: t, dw=lambda t: 1.0))

    def rho_matrix(self, theta):
        w = min(max(theta, 0.1), 0.9)
        p1 = self.psi1.projector(theta)
        return w * p1 + (1.0 - w) * (np.eye(2) - p1)


def test_a_weight_outside_the_unit_interval_fails_only_its_point():
    model = ClippedRhoMixture()
    thetas = [0.2, 0.5, 1.5, 0.8]
    for pt in model.grid(thetas):
        alone = model.at(pt.theta)
        if pt.theta == 1.5:
            expected = "DomainError: weight 1.5 at theta=1.5 outside (0, 1)"
            for fn in (_qubit_ingredients, helstrom_info_qubit_closed, relation_report):
                assert _error_text(fn, pt) == _error_text(fn, alone) == expected
        else:
            assert not relation_report(pt).route_errors
            assert _report_row(relation_report(pt)) == _report_row(relation_report(alone))


# --- a grid gives the rows of its points alone --------------------------------------

GRID = "-1:1:7"
CLI_MODELS = {
    "sine": {"kind": "qubit_mixture", "psi1": {"name": "rotation"},
             "weight": {"form": "sine", "params": [0.8]}},
    "logistic": {"kind": "qubit_mixture", "psi1": {"name": "complex-rotation"},
                 "weight": {"form": "logistic", "params": [1.5, 0.2]}},
    "constant": {"kind": "qubit_mixture", "psi1": {"name": "rotation"},
                 "weight": {"form": "constant", "params": [0.3]}},
    "spectral-16": {"kind": "spectral", "dim": 16, "seed": 7},
    "rank-deficient": {"kind": "spectral", "spectrum": [0.6, 0.4, 0, 0], "seed": 3},
    "pure-4": {"kind": "pure", "psi1": {"name": "random"}, "dim": 4, "seed": 5},
}
POVM = {"kind": "random", "dim": 2, "n_effects": 4, "seed": 11}


def _compute(capsys, *argv):
    code = cli.main(["compute", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", sorted(CLI_MODELS))
def test_every_grid_row_is_the_row_of_its_theta_alone(name, tmp_path, capsys):
    cfg = CLI_MODELS[name]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(cfg))
    argv = ["--model", str(model)]
    if cfg["kind"] == "qubit_mixture":
        povm = tmp_path / "povm.json"
        povm.write_text(json.dumps(POVM))
        argv += ["--povm", str(povm)]
    lo, hi, steps = GRID.split(":")
    thetas = np.linspace(float(lo), float(hi), int(steps)).tolist()
    # CSV: the data rows of the grid run are the data rows of the single runs
    code, grid_csv, _ = _compute(capsys, *argv, f"--theta-grid={GRID}")
    assert code == cli.EXIT_OK
    head, *grid_rows = grid_csv.splitlines()[-1 - len(thetas):]
    single_rows = []
    for theta in thetas:
        code, out, _ = _compute(capsys, *argv, f"--theta={theta!r}")
        assert code == cli.EXIT_OK
        assert out.splitlines()[-2] == head
        single_rows.append(out.splitlines()[-1])
    assert grid_rows == single_rows
    # JSON: the grid output is the envelope of the single runs' rows, byte for byte
    code, grid_json, _ = _compute(capsys, *argv, f"--theta-grid={GRID}", "--format=json")
    assert code == cli.EXIT_OK
    rows = []
    for theta in thetas:
        _, out, _ = _compute(capsys, *argv, f"--theta={theta!r}", "--format=json")
        payload = json.loads(out)
        rows += payload["rows"]
    assert grid_json == cli.emit_json(payload["columns"], rows, payload["meta"])


def test_a_grid_fails_as_its_first_failing_theta_alone(tmp_path, capsys):
    # the domain ends inside the grid, so its middle theta is the first outside
    model = tmp_path / "model.json"
    model.write_text(json.dumps({**CLI_MODELS["sine"], "theta_domain": [-1.2, -0.2]}))
    grid = _compute(capsys, "--model", str(model), "--theta-grid=-1:1:5")
    assert grid[0] == cli.EXIT_CONFIG and grid[1] == ""
    for theta in np.linspace(-1.0, 1.0, 5).tolist():
        alone = _compute(capsys, "--model", str(model), f"--theta={theta!r}")
        if alone[0] != cli.EXIT_OK:
            break
    assert theta == 0.0
    assert grid[0] == alone[0]
    error_lines = [line for line in grid[2].splitlines() if line.startswith("error:")]
    assert error_lines == [line for line in alone[2].splitlines() if line.startswith("error:")]
    assert error_lines == ["error: DomainError: theta=0.0 outside domain [-1.2, -0.2]"]


# --- a failing stage splits the grid ------------------------------------------------

class SupportDropModel(ParametricStateModel):
    """diag(1 - eps, eps): eps = 0.2 for theta <= 0, and below the square-root
    support tolerance for theta > 0, where the derivative's weight on it makes
    the square-root solve inconsistent while the SLD solve keeps the pair."""

    EPS = 8e-13

    def __init__(self):
        super().__init__(2)

    def rho_matrix(self, theta):
        eps = 0.2 if theta <= 0.0 else self.EPS
        return np.diag([1.0 - eps, eps])

    def _drho_analytic(self, theta):
        return np.diag([-1e-3, 1e-3])


def _report_row(report):
    return {**vars(report), "ratio": report.ratio, "gap": report.gap}


def test_only_the_inconsistent_points_fall_back_to_differences():
    model = SupportDropModel()
    thetas = [-0.6, -0.3, 0.0, 0.3, 0.6]
    grid = StateGrid(model, thetas)
    reports = [relation_report(pt) for pt in grid.points()]
    routes = [(r.diagnostics["sqrt_route"], r.diagnostics["fd_fallback"]) for r in reports]
    assert routes == [("solve", False)] * 3 + [("fd", True)] * 2
    for theta, report in zip(thetas, reports):
        assert _report_row(report) == _report_row(relation_report(model.at(theta)))
    assert 2.0 * SupportDropModel.EPS > SUPPORT_TOL  # the SLD solve keeps the pair


def test_a_split_grid_keeps_the_stages_it_ran():
    calls = []

    class Counting(SupportDropModel):
        def rho_matrix(self, theta):
            calls.append(theta)
            return super().rho_matrix(theta)

    thetas = [-0.3, 0.3]
    points = StateGrid(Counting(), thetas).points()
    for pt in points:
        pt.cached(relation_report)
    # one evaluation per theta, plus the two stencil states of the fallback
    assert calls[:2] == thetas and len(calls) == 4


def test_a_point_outside_the_domain_fails_alone():
    model = SupportDropModel()
    model.domain = (-1.0, 0.5)
    points = list(model.grid([0.2, 0.9, 0.4]))
    assert relation_report(points[0]).i_h_sld == relation_report(model.at(0.2)).i_h_sld
    with pytest.raises(Exception, match=r"theta=0\.9 outside domain"):
        points[1].rho
    assert points[2].rho.mat.tobytes() == model.at(0.4).rho.mat.tobytes()


# --- blocks ---------------------------------------------------------------------------

def test_a_long_grid_over_dimension_64_is_evaluated_block_by_block():
    model = random_spectral_model(4, 64)
    thetas = np.linspace(-1.0, 1.0, 201).tolist()
    povm = random_povm(64, 3, 9)
    block = GRID_BLOCK_ENTRIES // 64**2
    assert 1 < block < len(thetas)
    tracemalloc.start()
    try:
        rows, sizes = [], []
        for pt in model.grid(thetas):
            if pt.index == 0:
                sizes.append(len(pt.grid.thetas))
            rows.append((_report_row(relation_report(pt)), classical_fisher(pt, povm)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    one_stack = GRID_BLOCK_ENTRIES * np.dtype(complex).itemsize
    assert sizes == [block] * (len(thetas) // block) + [len(thetas) % block]
    # a block holds a handful of (block, 64, 64) complex stacks: rho, its
    # eigenvectors, drho, the two solutions, and the temporaries of the
    # validation, eigh and the solves (about 14 stacks in all). The whole
    # grid stacked at once would hold 201 / 8 times as much
    assert peak <= 20 * one_stack
    for theta, row in zip(thetas, rows):
        pt = model.at(theta)
        assert row == (_report_row(relation_report(pt)), classical_fisher(pt, povm))


def test_the_forced_differences_over_dimension_64_keep_the_block_budget():
    model = random_spectral_model(4, 64)
    thetas = np.linspace(-1.0, 1.0, 201).tolist()
    tracemalloc.start()
    try:
        # digests, so that the results of the 201 points are not held at once
        rows = [
            (_digest(pt.layer(_dsqrt_fd_stage)[0]), _digest(pt.layer(_drho_fd_stage)[0]))
            for pt in model.grid(thetas)
        ]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    one_stack = GRID_BLOCK_ENTRIES * np.dtype(complex).itemsize
    # the stencil of a block's 8 thetas holds 16 states, so it is cut into
    # two grids of 8: each stacked array stays within one stack
    assert peak <= 20 * one_stack
    for theta, row in zip(thetas, rows):
        dsqrt = model.dsqrt_rho(theta, force_fd=True).matrix.mat
        assert row == (_digest(dsqrt), _digest(model.drho(theta, force_fd=True).mat))
