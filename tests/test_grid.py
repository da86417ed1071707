"""Tests for theta grids: stacked kernels, the model's input stages, the stencil stages
and the route-scalar stages equal per-matrix and per-theta calls bit for bit, a grid
gives the rows of its points evaluated alone, a failing stage or input splits the grid
into grids of one, and a long grid over a large model is evaluated block by block."""

import hashlib
import json
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcrb_kit import cli, models, quantum
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
    square_stack,
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
    DEFAULT_FD_STEP,
    GRID_BLOCK_ENTRIES,
    ParametricStateModel,
    PureFamily,
    PureStateModel,
    QubitMixtureModel,
    SpectralMixtureModel,
    WeightFunction,
    _dinputs_stage,
    _drho_fd_stage,
    _dsqrt_fd_stage,
    _inputs_stage,
    _rho_stage,
    builtin_models,
    canonical_psi2,
    complex_rotation_family,
    fixed_spectrum_model,
    logistic_weight,
    qubit_mixture_as_spectral,
    random_spectral_model,
    rotation_family,
    rotation_mixture,
    sine_weight,
)
from qcrb_kit.configio import model_from_config
from qcrb_kit.quantum import (
    _pure_stage,
    _qubit_stage,
    alpha_beta,
    closed_routes,
    gamma_qubit_closed,
    gamma_spectral,
    helstrom_info_qubit_closed,
    helstrom_info_spectral,
    helstrom_info_sld,
    relation_report,
    sld,
    wy_info_generic,
    wy_info_qubit_closed,
    wy_info_spectral,
)

from model_formulas import dprojector_formula, projector_formula, psi2_formula

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
    h = model.fd_step
    d = (model.rho_matrix(theta + h) - model.rho_matrix(theta - h)) / (2.0 * h)
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
                model._require_stencil(pt.theta)
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


def _qubit_inputs(pt):
    return pt.layer(_qubit_stage)


def _spectral_inputs(pt):
    """lambda, lambda' and the frame generator A of a point: the spectral closed forms'
    reads of its input stages."""
    return (pt.layer(_inputs_stage)[0], *pt.layer(_dinputs_stage))


def _qubit_formula(pt):
    model, theta, h = pt.model, pt.theta, pt.model.fd_step
    w = model.weight.value(theta)
    dw = _slope_formula(model.weight, theta, h)
    dp = dprojector_formula(model.psi1, theta, h)
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
    _assert_inputs_equal_the_formulas(model, thetas)
    for pt in model.grid(thetas):
        alone = model.at(pt.theta)
        assert _same(helstrom_info_sld(pt), _helstrom_formula(alone))
        assert _same(wy_info_generic(pt), _wy_formula(alone))
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
    the state and its derivative are valid everywhere, and only the weight's readers
    fail there. Its rho is ``rho_matrix`` per theta and its drho the central difference
    of that rho, ``_drho_fd_stage``: neither reads a weight input."""

    @classmethod
    def _rho_stack(cls, grid):
        return square_stack([model.rho_matrix(theta) for model, theta in grid.members])

    @classmethod
    def _drho_stack(cls, grid):
        return grid.stage(_drho_fd_stage)[0]

    def __init__(self):
        super().__init__(rotation_family(), WeightFunction(w=lambda t: t, dw=lambda t: 1.0))

    def rho_matrix(self, theta):
        w = min(max(theta, 0.1), 0.9)
        p1 = projector_formula(self.psi1, theta)
        return w * p1 + (1.0 - w) * (np.eye(2) - p1)


def test_a_weight_outside_the_unit_interval_fails_only_its_point():
    model = ClippedRhoMixture()
    thetas = [0.2, 0.5, 1.5, 0.8]
    for pt in model.grid(thetas):
        alone = model.at(pt.theta)
        if pt.theta == 1.5:
            expected = "DomainError: weight 1.5 at theta=1.5 outside (0, 1)"
            for fn in (_qubit_inputs, helstrom_info_qubit_closed):
                assert _error_text(fn, pt) == _error_text(fn, alone) == expected
            assert _same(pt.rho.mat, alone.rho.mat)  # the clipped state stays readable
            # the report records the weight's error for alpha/beta and each closed
            # form, and is emitted with nulls there and no prop1 residual
            report = relation_report(pt)
            assert report.route_errors == dict.fromkeys(
                ("alpha_beta", "i_h_closed", "i_wy_closed", "gamma"), expected
            )
            assert report.alpha is report.beta is report.i_h_closed is None
            assert "prop1" not in report.residuals
            assert _report_row(report) == _report_row(relation_report(alone))
        else:
            assert not relation_report(pt).route_errors
            assert _report_row(relation_report(pt)) == _report_row(relation_report(alone))


# --- the model's input stages -----------------------------------------------------------
# The per-theta formulas of rho, drho and the closed-form ingredients that the input
# stages replaced, kept here as their oracles; a family's state, projector and projector
# derivative are in ``model_formulas``. They call the model's callables directly.

def _slope_formula(weight, theta, h):
    if weight.dw is not None:
        return float(weight.dw(theta))
    return (float(weight.w(theta + h)) - float(weight.w(theta - h))) / (2.0 * h)


def _lambdas_formula(model, theta):
    return np.clip(np.asarray(model._lambdas(theta), dtype=float).reshape(-1), 0.0, 1.0)


def _dlambdas_formula(model, theta):
    if model._dlambdas is not None:
        return np.asarray(model._dlambdas(theta), dtype=float).reshape(-1)
    h = model.fd_step
    raw = [np.asarray(model._lambdas(t), dtype=float).reshape(-1) for t in (theta + h, theta - h)]
    return (raw[0] - raw[1]) / (2.0 * h)


def _generator_formula(model, theta):
    u = np.asarray(model._frame(theta), dtype=complex)
    if model._dframe is not None:
        a = u.conj().T @ np.asarray(model._dframe(theta), dtype=complex)
    else:
        h = model.fd_step

        def projectors(t):
            frame = np.asarray(model._frame(t), dtype=complex)
            return np.array([np.outer(frame[:, j], frame[:, j].conj()) for j in range(model.dim)])

        dprojs = (projectors(theta + h) - projectors(theta - h)) / (2.0 * h)
        a = u.conj().T @ np.einsum("kij,jk->ik", dprojs, u)
    a = (a - a.conj().T) / 2.0
    np.fill_diagonal(a, 0.0)
    return a


def _rho_formula(model, theta):
    if model.kind == "pure":
        return projector_formula(model.family, theta)
    if model.kind == "qubit_mixture":
        w = float(model.weight.w(theta))
        p1 = projector_formula(model.psi1, theta)
        return w * p1 + (1.0 - w) * (np.eye(2) - p1)
    u = np.asarray(model._frame(theta), dtype=complex)
    return (u * _lambdas_formula(model, theta)) @ u.conj().T


def _drho_analytic_formula(model, theta):
    h = model.fd_step
    if model.kind == "qubit_mixture":
        dw = _slope_formula(model.weight, theta, h)
        dp1 = dprojector_formula(model.psi1, theta, h)
        w = float(model.weight.w(theta))
        p1 = projector_formula(model.psi1, theta)
        return dw * (2.0 * p1 - np.eye(2)) + (2.0 * w - 1.0) * dp1
    if not model.has_analytic_derivative:
        return None
    if model.kind == "pure":
        return dprojector_formula(model.family, theta, h)
    lam = _lambdas_formula(model, theta)
    u = np.asarray(model._frame(theta), dtype=complex)
    inner = _generator_formula(model, theta) * (lam[None, :] - lam[:, None])
    inner[np.diag_indices(model.dim)] = _dlambdas_formula(model, theta)
    return (u @ inner) @ u.conj().T


def _drho_formula_of_kind(model, theta):
    d = _drho_analytic_formula(model, theta)
    if d is None:
        h = model.fd_step
        d = (_rho_formula(model, theta + h) - _rho_formula(model, theta - h)) / (2.0 * h)
        d = (d + d.conj().T) / 2.0
    return HermitianMatrix(d).mat


def _assert_inputs_equal_the_formulas(model, thetas):
    # the catalog models and a dimension-64 grid run this through
    # _assert_stages_equal_the_formulas above
    for pt in model.grid(thetas):
        theta = pt.theta
        assert _same(model.rho_matrix(theta), _rho_formula(model, theta))
        assert _same(pt.rho.mat, HermitianMatrix(_rho_formula(model, theta)).mat)
        assert _same(pt.drho.mat, _drho_formula_of_kind(model, theta))
        if model.kind == "pure":
            dp = dprojector_formula(model.family, theta, model.fd_step)
            assert _same(pt.layer(_pure_stage)[0], 2.0 * real_trace_product([dp, dp]))
        elif model.kind == "qubit_mixture":
            assert _same(pt.layer(_qubit_stage), _qubit_formula(pt))
        else:
            lam, dlam, a = _spectral_inputs(pt)
            assert _same(lam, _lambdas_formula(model, theta))
            assert _same(dlam, _dlambdas_formula(model, theta))
            assert _same(a, _generator_formula(model, theta))
            # the layers of a point of one
            alone = model.at(theta).layer(_dinputs_stage)
            assert _same(alone[0], dlam)
            assert _same(alone[1], a)


def test_input_stages_equal_the_per_theta_formulas_on_a_rank_deficient_spectrum():
    _assert_inputs_equal_the_formulas(fixed_spectrum_model([0.6, 0.4, 0.0, 0.0], seed=3), [-0.7, 0.2, 1.1])


EMBEDDED_MIXTURES = {
    "mixture-w0.45": lambda: builtin_models()["mixture-w0.45"],
    "sine-weight-mixture": lambda: builtin_models()["sine-weight-mixture"],
    "mixture-w0.7-fd": lambda: builtin_models()["mixture-w0.7-fd"],
    # complex frame columns, so that a transposed projector difference shows
    "complex-sine-mixture": lambda: QubitMixtureModel(complex_rotation_family(), sine_weight(0.8)),
}


@pytest.mark.parametrize("name", sorted(EMBEDDED_MIXTURES))
def test_input_stages_equal_the_per_theta_formulas_without_a_frame_derivative(name):
    # the embedding differences its frame (dframe=None), and its weights too
    # where the mixture's weight has no slope
    model = qubit_mixture_as_spectral(EMBEDDED_MIXTURES[name]())
    assert model._dframe is None and (model._dlambdas is None) is (name == "mixture-w0.7-fd")
    _assert_inputs_equal_the_formulas(model, model.sample_thetas)


@pytest.mark.parametrize("name", sorted(EMBEDDED_MIXTURES))
def test_psi2_of_a_grid_point_equals_psi2_alone_and_the_formula_bitwise(name):
    # psi2 reads the point's psi1 and dP1, analytic or differenced with fd_step
    model = EMBEDDED_MIXTURES[name]()
    for pt in model.grid(model.sample_thetas):
        psi2 = canonical_psi2(pt).vec
        assert _same(psi2, canonical_psi2(model.at(pt.theta)).vec)
        assert _same(psi2, psi2_formula(model.psi1, pt.theta, model.fd_step))


def _rotation_psi(t):
    return np.array([math.cos(t), math.sin(t)], dtype=complex)


def _failing_at(bad, fn, fail):
    """fn, except that at theta == bad it returns fail(fn(theta))."""
    return lambda t: fail(fn(t)) if t == bad else fn(t)


def _raising(exc):
    def fail(_):
        raise exc
    return fail


def _spectral_with(**changed):
    base = random_spectral_model(7, 3)
    inputs = {"lambdas": base._lambdas, "frame": base._frame,
              "dlambdas": base._dlambdas, "dframe": base._dframe, **changed}
    return SpectralMixtureModel(3, **inputs)


BAD = 0.4
# model, which input fails at BAD (a value input or a derivative input), and its text
FAILING_INPUTS = {
    "weight-outside": (
        lambda: QubitMixtureModel(rotation_family(), WeightFunction(
            w=_failing_at(BAD, sine_weight(0.8).w, lambda w: 1.1), dw=sine_weight(0.8).dw)),
        "value", "DomainError: weight 1.1 at theta=0.4 outside (0, 1)",
    ),
    "psi-off-norm": (
        lambda: PureStateModel(PureFamily(2, psi=_failing_at(BAD, _rotation_psi, lambda v: 1.1 * v),
                                          dpsi=rotation_family().dpsi)),
        "value", "ValueError: family state at theta=0.4 has norm np.float64(1.1)",
    ),
    "dpsi-raises": (
        lambda: QubitMixtureModel(PureFamily(2, psi=_rotation_psi, dpsi=_failing_at(
            BAD, rotation_family().dpsi, _raising(ValueError("no dpsi here")))), sine_weight(0.8)),
        "derivative", "ValueError: no dpsi here",
    ),
    "lambdas-off-sum": (
        lambda: _spectral_with(lambdas=_failing_at(BAD, random_spectral_model(7, 3)._lambdas, lambda v: 1.01 * v)),
        "value", "ValueError: eigenvalue weights sum to 1.01 at theta=0.4",
    ),
    "frame-not-unitary": (
        lambda: _spectral_with(frame=_failing_at(BAD, random_spectral_model(7, 3)._frame, lambda u: 1.01 * u)),
        "value", "ValueError: frame deviates from unitarity by 3.481e-02 at theta=0.4",
    ),
    "dframe-raises": (
        lambda: _spectral_with(dframe=_failing_at(BAD, random_spectral_model(7, 3)._dframe,
                                                  _raising(ValueError("no dframe here")))),
        "derivative", "ValueError: no dframe here",
    ),
}
INGREDIENTS = {"pure": lambda pt: pt.layer(_pure_stage), "qubit_mixture": _qubit_inputs,
               "spectral": _spectral_inputs}


@pytest.mark.parametrize("case", sorted(FAILING_INPUTS))
def test_a_failing_input_fails_only_its_point_with_its_own_text(case):
    make, which, expected = FAILING_INPUTS[case]
    model = make()
    thetas = [-0.5, 0.1, BAD, 0.7]
    readers = {"rho": lambda pt: pt.rho, "drho": lambda pt: pt.drho,
               "ingredients": INGREDIENTS[model.kind], "report": relation_report}
    for pt in model.grid(thetas):
        alone = model.at(pt.theta)
        texts = {name: _error_text(fn, pt) for name, fn in readers.items()}
        assert texts == {name: _error_text(fn, alone) for name, fn in readers.items()}
        if pt.theta != BAD:
            assert set(texts.values()) == {None}
            assert _report_row(relation_report(pt)) == _report_row(relation_report(alone))
            continue
        # a failing value input fails every reader; a failing derivative input
        # leaves rho readable
        assert texts == {**dict.fromkeys(readers, expected), **({"rho": None} if which == "derivative" else {})}
        if which == "derivative":
            assert _same(pt.rho.mat, alone.rho.mat)


def _two_columns(u):
    return u[:, :2]


def _three_entries(v):
    return np.append(v, 0.0)


# a model whose value input fails its check at BAD, the per-theta accessor that
# checks that input alone, and its text
STACKED_CHECK_FAILURES = {
    "weights-off-sum": (
        lambda: _spectral_with(lambdas=_failing_at(BAD, random_spectral_model(7, 3)._lambdas, lambda v: 1.01 * v)),
        lambda model: model.lambdas_at(BAD), "ValueError: eigenvalue weights sum to 1.01 at theta=0.4",
    ),
    "frame-not-unitary": (
        lambda: _spectral_with(frame=_failing_at(BAD, random_spectral_model(7, 3)._frame, lambda u: 1.01 * u)),
        lambda model: model.frame_at(BAD), "ValueError: frame deviates from unitarity by 3.481e-02 at theta=0.4",
    ),
    "frame-shape": (
        lambda: _spectral_with(frame=_failing_at(BAD, random_spectral_model(7, 3)._frame, _two_columns)),
        lambda model: model.frame_at(BAD), "DimensionError: frame has shape (3, 2), expected (3, 3)",
    ),
    "state-off-norm": (
        lambda: PureStateModel(PureFamily(2, psi=_failing_at(BAD, _rotation_psi, lambda v: 1.1 * v))),
        lambda model: model.family.state(BAD), "ValueError: family state at theta=0.4 has norm np.float64(1.1)",
    ),
    "mixture-weight-outside": (
        lambda: QubitMixtureModel(rotation_family(), WeightFunction(
            w=_failing_at(BAD, sine_weight(0.8).w, lambda w: 1.1), dw=sine_weight(0.8).dw)),
        lambda model: model.weight.value(BAD), "DomainError: weight 1.1 at theta=0.4 outside (0, 1)",
    ),
    "mixture-state-shape": (
        lambda: QubitMixtureModel(PureFamily(2, psi=_failing_at(BAD, _rotation_psi, _three_entries)),
                                  sine_weight(0.8)),
        lambda model: model.psi1.state(BAD), "DimensionError: state has dim 3, family declares 2",
    ),
}


@pytest.mark.parametrize("case", sorted(STACKED_CHECK_FAILURES))
def test_a_stacked_input_check_raises_what_its_failing_member_raises_alone(case):
    # the input stage checks every member's raw inputs as one stack; member 2
    # fails, and the stack raises its text, which the member's grid of one and
    # the per-theta accessor raise too; the grid then splits and only member 2 fails
    make, accessor, expected = STACKED_CHECK_FAILURES[case]
    model = make()
    thetas = [-0.5, 0.1, BAD, 0.7]
    pts = list(model.grid(thetas))
    grid = pts[0].grid
    assert _error_text(grid.stage, _inputs_stage) == expected
    assert _error_text(model.at(BAD).grid.stage, _inputs_stage) == expected
    assert _error_text(accessor, model) == expected
    assert [_error_text(lambda pt: pt.rho, pt) for pt in pts] == [None, None, expected, None]
    assert grid._parts is not None and len(grid._parts) == len(thetas)
    for pt in pts:
        if pt.theta != BAD:
            assert _same(pt.rho.mat, model.at(pt.theta).rho.mat)


def test_a_stacked_input_check_raises_in_member_order_then_check_order():
    base = random_spectral_model(7, 3)
    # member 0 fails a numeric check and member 1 a shape check: member 0's text wins
    model = _spectral_with(lambdas=_failing_at(-0.5, base._lambdas, lambda v: 1.01 * v),
                           frame=_failing_at(0.1, base._frame, _two_columns))
    first = _error_text(model.lambdas_at, -0.5)
    assert first.startswith("ValueError: eigenvalue weights sum to ")
    pts = list(model.grid([-0.5, 0.1, 0.7]))
    assert _error_text(pts[0].grid.stage, _inputs_stage) == first
    assert [_error_text(lambda pt: pt.rho, pt) for pt in pts] == [
        first, "DimensionError: frame has shape (3, 2), expected (3, 3)", None,
    ]
    # within one member, the weights are checked before the frame, and a mixture's
    # weight before its state
    both = _spectral_with(lambdas=_failing_at(BAD, base._lambdas, lambda v: 1.01 * v),
                          frame=_failing_at(BAD, base._frame, _two_columns))
    assert _error_text(lambda: both.at(BAD).rho) == "ValueError: eigenvalue weights sum to 1.01 at theta=0.4"
    mixture = QubitMixtureModel(PureFamily(2, psi=_failing_at(BAD, _rotation_psi, _three_entries)),
                                WeightFunction(w=_failing_at(BAD, sine_weight(0.8).w, lambda w: 1.1)))
    assert _error_text(lambda: mixture.at(BAD).rho) == "DomainError: weight 1.1 at theta=0.4 outside (0, 1)"


# --- one failure rule for a batch: the grid names its first failing member ----------

def _first_text_alone(model, thetas, stage):
    """The text of the first theta whose grid of one fails ``stage``, or None."""
    return next(filter(None, (_error_text(model.at(theta).grid.stage, stage) for theta in thetas)), None)


class DiagonalStates(ParametricStateModel):
    """rho(theta) = diag(ROWS[theta]): a state at 0, below the PSD floor at 1, off unit trace at 2."""

    ROWS = {0.0: [0.7, 0.3], 1.0: [1.1, -0.1], 2.0: [0.6, 0.6]}

    def __init__(self):
        super().__init__(2)

    def rho_matrix(self, theta):
        return np.diag(self.ROWS[theta]).astype(complex)


def test_a_stage_raises_what_its_first_failing_member_raises_alone():
    # member 1 fails the PSD floor and member 2 the trace check; the stacked
    # validation checks the trace first, and the grid then names member 1
    model = DiagonalStates()
    thetas = [0.0, 1.0, 2.0]
    pts = list(model.grid(thetas))
    expected = "NotPositiveSemidefinite: eigenvalue -1.000e-01 below floor -1e-10"
    assert _error_text(model.at(1.0).grid.stage, _rho_stage) == expected
    assert _error_text(pts[0].grid.stage, _rho_stage) == expected
    assert [_error_text(lambda pt: pt.rho, pt) for pt in pts] == [
        None, expected, "NotDensityMatrix: trace np.float64(1.2) is not 1 within 1e-10",
    ]
    assert _same(pts[0].rho.mat, model.at(0.0).rho.mat)


def test_the_input_stage_names_its_first_failing_member_before_a_later_domain_error():
    # the weight underflows at theta = -1 and theta = 0.75 lies outside the
    # domain: the stage raises theta = -1's weight error, as theta = -1 alone does
    model = rotation_mixture(logistic_weight(100.0, 0.0), domain=(-1.0, 0.5))
    thetas = [-1.0, 0.0, 0.75]
    expected = _error_text(model.at(-1.0).grid.stage, _inputs_stage)
    assert expected.startswith("DomainError: weight ") and expected.endswith(" at theta=-1.0 outside (0, 1)")
    pts = list(model.grid(thetas))
    assert _error_text(pts[0].grid.stage, _inputs_stage) == expected
    assert [_error_text(lambda pt: pt.rho, pt) for pt in pts] == [
        expected, None, "DomainError: theta=0.75 outside domain [-1.0, 0.5]",
    ]


LAMBDA_FAULTS = {"count": lambda v: np.append(v, 0.0), "sum": lambda v: 1.01 * v,
                 "range": lambda v: np.array([1.5, -0.5, 0.0])}
FRAME_FAULTS = {"shape": _two_columns, "unitarity": lambda u: 1.01 * u}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from([None, *LAMBDA_FAULTS]), st.sampled_from([None, *FRAME_FAULTS])),
                min_size=2, max_size=6))
def test_a_spectral_grid_fails_as_its_first_failing_member_alone(faults):
    # each member's weights and frame fail one check or none; a direct stage
    # raises the first failing member's text alone, and every point reads as alone
    base = random_spectral_model(7, 3)
    thetas = [-0.5 + 0.2 * k for k in range(len(faults))]
    lam_faults = {t: LAMBDA_FAULTS[f] for t, (f, _) in zip(thetas, faults) if f}
    frame_faults = {t: FRAME_FAULTS[f] for t, (_, f) in zip(thetas, faults) if f}
    model = _spectral_with(lambdas=lambda t: lam_faults.get(t, np.asarray)(base._lambdas(t)),
                           frame=lambda t: frame_faults.get(t, np.asarray)(base._frame(t)))
    for stage in (_inputs_stage, _rho_stage):
        grid = next(model.grid(thetas)).grid
        assert _error_text(grid.stage, stage) == _first_text_alone(model, thetas, stage)
    for pt in model.grid(thetas):
        alone = model.at(pt.theta)
        text = _error_text(lambda p: p.rho, pt)
        assert text == _error_text(lambda p: p.rho, alone)
        if text is None:
            assert _same(pt.rho.mat, alone.rho.mat)
            assert _report_row(relation_report(pt)) == _report_row(relation_report(alone))


def test_a_point_whose_two_stencil_sides_fail_raises_its_plus_side_text():
    # the state fails the norm check at theta + h and the shape check at
    # theta - h; the stencil grid checks shapes first, and then names its
    # first member, theta + h
    h = DEFAULT_FD_STEP
    psi = _failing_at(BAD - h, _failing_at(BAD + h, _rotation_psi, lambda v: 1.1 * v), _three_entries)
    model = PureStateModel(PureFamily(2, psi=psi))
    plus = _error_text(lambda: model.at(BAD + h).rho)
    assert plus.startswith("ValueError: family state at theta=") and "has norm" in plus
    assert _error_text(lambda: model.at(BAD - h).rho) == "DimensionError: state has dim 3, family declares 2"
    assert _error_text(lambda: model.at(BAD).drho) == plus
    pts = list(model.grid([0.1, BAD, 0.7]))
    assert [_error_text(lambda pt: pt.drho, pt) for pt in pts] == [None, plus, None]
    assert _same(pts[1].rho.mat, model.at(BAD).rho.mat)


# a model with a differenced value input that fails its check only at one
# stencil side, the theta whose stencil holds that side, and its ingredients
STENCIL_SIDE_FAILURES = {
    # w(theta) = theta without a slope: the weight is valid at 1 - h/2, but
    # its stencil side 1 + h/2 leaves (0, 1)
    "weight": (lambda: QubitMixtureModel(rotation_family(), WeightFunction(w=lambda t: t)),
               1.0 - 0.5 * DEFAULT_FD_STEP, _qubit_inputs),
    # eigenvalue weights without derivatives that sum to 1.01 at BAD + h only
    "lambdas": (lambda: _spectral_with(
        lambdas=_failing_at(BAD + DEFAULT_FD_STEP, random_spectral_model(7, 3)._lambdas, lambda v: 1.01 * v),
        dlambdas=None), BAD, _spectral_inputs),
}


@pytest.mark.parametrize("case", sorted(STENCIL_SIDE_FAILURES))
def test_a_stencil_side_that_fails_its_input_check_fails_only_its_point(case):
    # a differenced input reads the stencil grids' checked value inputs, so
    # its derivative fails with the text of the side's own state, as the
    # forced difference does; the state at the point stays readable
    make, bad, ingredients = STENCIL_SIDE_FAILURES[case]
    model = make()
    assert model.fd_step == DEFAULT_FD_STEP
    expected = _error_text(lambda t: model.at(t).rho, bad + DEFAULT_FD_STEP)
    assert expected is not None
    readers = {"drho": lambda pt: pt.drho, "ingredients": ingredients,
               "drho_fd": lambda pt: pt.layer(_drho_fd_stage), "report": relation_report}
    thetas = sorted({0.2, 0.5, 0.8, bad})
    for pt in model.grid(thetas):
        alone = model.at(pt.theta)
        texts = {name: _error_text(fn, pt) for name, fn in readers.items()}
        assert texts == {name: _error_text(fn, alone) for name, fn in readers.items()}
        if pt.theta == bad:
            assert texts == dict.fromkeys(readers, expected)
            assert _same(pt.rho.mat, alone.rho.mat)
        else:
            assert set(texts.values()) == {None}
            assert _same(pt.drho.mat, alone.drho.mat)
            assert _report_row(relation_report(pt)) == _report_row(relation_report(alone))


def test_differenced_weights_just_below_zero_read_the_clipped_stencil():
    # weights x, 1 - x with x(theta) = -5e-13 + 1e-8 (theta - 0.3) and no
    # derivative: both stencil sides of 0.3 clip x to 0, so lambda' is 0, and
    # the layer of a point of one at 0.3 is that too, rather than a
    # difference of raw weights
    base = random_spectral_model(5, 2)

    def lambdas(t):
        x = -5e-13 + 1e-8 * (t - 0.3)
        return np.array([x, 1.0 - x])

    model = SpectralMixtureModel(2, lambdas=lambdas, frame=base._frame, dframe=base._dframe)
    dlam = next(model.grid([0.3, 0.6])).layer(_dinputs_stage)[0]
    assert _same(dlam, np.zeros(2))
    assert _same(model.at(0.3).layer(_dinputs_stage)[0], dlam)


class HalfAnalyticRotation(ParametricStateModel):
    """The rotation mixture of weight 0.7 as a custom model with a real ``rho_matrix``,
    whose analytic drho 0.4 d|psi><psi| exists only at theta <= 0."""

    def __init__(self, domain=(-math.inf, math.inf)):
        super().__init__(2, domain=domain)

    def rho_matrix(self, theta):
        c, s = math.cos(theta), math.sin(theta)
        p = np.array([[c * c, c * s], [c * s, s * s]])
        return 0.7 * p + 0.3 * (np.eye(2) - p)

    def _drho_analytic(self, theta):
        if theta > 0:
            return None
        c2, s2 = math.cos(2.0 * theta), math.sin(2.0 * theta)
        return 0.4 * np.array([[-s2, c2], [c2, s2]])


WITHOUT_ANALYTIC_DRHO = {
    "spectral": lambda: _spectral_with(dlambdas=None, dframe=None),
    "spectral-without-dframe": lambda: _spectral_with(dframe=None),
    "embedded-mixture": lambda: qubit_mixture_as_spectral(rotation_mixture(0.8)),
    "custom": HalfAnalyticRotation,
}


@pytest.mark.parametrize("name", sorted(WITHOUT_ANALYTIC_DRHO))
def test_a_drho_without_an_analytic_form_is_the_forced_difference(name):
    # the one difference of rho: a spectral model without both derivatives,
    # and each theta where a custom model's _drho_analytic is None, read drho
    # from the grid's _drho_fd_stage
    model = WITHOUT_ANALYTIC_DRHO[name]()
    for pt in model.grid([-0.6, -0.1, 0.3, 0.9]):
        analytic = model._drho_analytic(pt.theta) if model.kind == "custom" else None
        if analytic is None:
            assert _same(pt.drho.mat, pt.layer(_drho_fd_stage)[0])
            assert _same(pt.drho.mat, model.at(pt.theta).layer(_drho_fd_stage)[0])
        else:
            assert _same(pt.drho.mat, HermitianMatrix(analytic).mat)


def test_a_custom_drho_differences_only_the_thetas_without_an_analytic_form(monkeypatch):
    # analytic at theta <= 0: drho evaluates the stencil of theta = 0.3 alone,
    # two states, and not those of the three analytic thetas as well
    calls = []
    original = HalfAnalyticRotation.rho_matrix
    monkeypatch.setattr(HalfAnalyticRotation, "rho_matrix", lambda self, t: calls.append(t) or original(self, t))
    model = HalfAnalyticRotation()
    drho = [pt.drho.mat for pt in model.grid([-0.9, -0.6, -0.3, 0.3])]
    assert len(calls) == 2
    assert _same(drho[3], model.at(0.3).layer(_drho_fd_stage)[0])


def test_an_analytic_theta_on_the_domain_edge_does_not_split_the_grid():
    # theta = -1 has an analytic drho, so its stencil, half outside the domain,
    # is never read, and the grid's drho stage runs once for all three thetas
    model = HalfAnalyticRotation(domain=(-1.0, 1.0))
    pts = list(model.grid([-1.0, -0.5, 0.3]))
    assert _same(pts[0].drho.mat, HermitianMatrix(model._drho_analytic(-1.0)).mat)
    assert _same(pts[2].drho.mat, model.at(0.3).layer(_drho_fd_stage)[0])
    assert pts[0].grid._parts is None


# every stage that reads rho, drho, the square-root derivative or the SLD
ROUTE_STAGES = {
    models: ("_rho_stage", "_drho_stage", "_dsqrt_stage", "_dsqrt_fd_stage",
             "_drho_fd_stage", "_dsqrt_route_stage"),
    quantum: ("_sld_stage", "_helstrom_stage", "_wy_stage"),
}
FULLY_DIFFERENCED = {
    "pure": lambda: PureStateModel(PureFamily(2, psi=rotation_family().psi)),
    "qubit_mixture": lambda: QubitMixtureModel(PureFamily(2, psi=rotation_family().psi),
                                               WeightFunction(w=sine_weight(0.8).w)),
    "spectral": lambda: _spectral_with(dlambdas=None, dframe=None),
    "embedded-mixture": lambda: qubit_mixture_as_spectral(
        QubitMixtureModel(rotation_family(), WeightFunction(w=sine_weight(0.8).w))),
}


def _table_stages() -> tuple:
    """The stage of every row of the route table, once each."""
    return tuple(dict.fromkeys(
        route.closed for routes in quantum._CLOSED_ROUTES.values() for route in routes.values()
    ))


# what the closed forms read beyond the model's input stages: the qubit
# ingredient stage, and the stage of each row of the route table; and the
# stages over the model's inputs alone that verify's identity checks read, a
# qubit mixture's psi2 and a spectral model's frame projectors
CLOSED_FORM_STAGES = {
    quantum: ("_qubit_stage", *_table_stages()),
    models: ("_psi2_stage", "_projectors_stage"),
}
CATALOG = tuple(builtin_models())


def _poison(monkeypatch, stages: dict, reader: str) -> None:
    """Make each named stage raise "<reader> ran <stage>", wherever models or quantum hold it."""
    def poisoned(stage):
        def raising(*args):
            raise AssertionError(f"{reader} ran {stage}")
        return raising

    for module, names in stages.items():
        for stage in names:
            original = getattr(module, stage)
            for other in (models, quantum):
                if getattr(other, stage, None) is original:
                    monkeypatch.setattr(other, stage, poisoned(stage))


@pytest.mark.parametrize("name", [*sorted(FULLY_DIFFERENCED), *CATALOG])
def test_the_closed_forms_of_a_differenced_model_read_no_route_stage(name, monkeypatch):
    # a differenced input reads the stencil grids' value inputs, as the
    # forced differences do, but no closed form reads rho, drho, a square
    # root, a forced difference or the SLD; nor does one of a catalog model,
    # at each of its sample thetas
    _poison(monkeypatch, ROUTE_STAGES, "a closed form")
    if name in FULLY_DIFFERENCED:
        model, thetas = FULLY_DIFFERENCED[name](), [-0.5, 0.4]
    else:
        model = builtin_models()[name]
        thetas = model.sample_thetas
    routes = closed_routes(model.kind)
    assert routes
    for pt in model.grid(thetas):
        for route in routes.values():
            assert math.isfinite(pt.layer(route.stage)[0])
        with pytest.raises(AssertionError, match="a closed form ran"):
            helstrom_info_sld(pt)


@pytest.mark.parametrize("name", [*CATALOG, "custom"])
def test_the_definitional_routes_read_no_closed_form_stage(name, monkeypatch):
    # the reverse direction: I_H from the SLD and I_WY from the square-root
    # derivative read no closed-form ingredient, at every catalog sample theta
    # and on a custom model, which reads rho_matrix through the same input stages
    _poison(monkeypatch, CLOSED_FORM_STAGES, "a definitional route")
    model = HalfAnalyticRotation() if name == "custom" else builtin_models()[name]
    routes = closed_routes(model.kind)
    for pt in model.grid(model.sample_thetas):
        assert math.isfinite(helstrom_info_sld(pt))
        assert math.isfinite(wy_info_generic(pt))
        for route in routes.values():
            with pytest.raises(AssertionError, match="a definitional route ran"):
                pt.layer(route.stage)


# the stages that every route reads (the model's inputs) or that reads every
# route (the report), so that neither poisoning test can name them
SHARED_STAGES = ("_inputs_stage", "_dinputs_stage", "_report_stage")


def test_every_stage_is_pinned_by_a_route_independence_test():
    # a new stage is poisoned by one of the two tests above, or is named shared
    named = {name for table in (ROUTE_STAGES, CLOSED_FORM_STAGES) for names in table.values() for name in names}
    stages = {name for module in (models, quantum) for name in vars(module) if name.endswith("_stage")}
    assert stages - named - set(SHARED_STAGES) == set()
    for table in (ROUTE_STAGES, CLOSED_FORM_STAGES):
        for module, names in table.items():
            assert all(callable(getattr(module, name, None)) for name in names)


def test_one_row_is_all_a_new_route_needs(monkeypatch, tmp_path, capsys):
    # a toy gamma row for pure states, backed by the pure closed form: on a pure
    # state I_WY = 2 I_H, so I_WY - I_H = I_H. Registering the row is the only edit
    row = quantum.ClosedRoute("_pure_stage", ("gamma",))
    monkeypatch.setitem(quantum._CLOSED_ROUTES["pure"], "gamma", row)
    model = builtin_models()["qubit-rotation"]
    for pt in model.grid(model.sample_thetas):
        report = relation_report(pt)
        assert report.gamma == report.i_h_closed and not report.route_errors
        assert report.residuals["prop2"] <= 1e-12
    # compute fills the gamma column
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"kind": "pure", "psi1": {"name": "rotation"}}))
    code, out, _ = _compute(capsys, "--model", str(cfg), "--theta-grid=-1:1:5")
    assert code == cli.EXIT_OK
    rows = cli.parse_csv(out)[1]
    assert len(rows) == 5 and all(r["gamma"] is not None and r["gamma"] == r["i_h_closed"] for r in rows)
    # a failing stage is recorded under the row's key, and the row's field is null
    def patched(grid):
        raise DomainError("patched")

    monkeypatch.setattr(quantum, "_pure_stage", patched)
    report = relation_report(model.at(0.3))
    assert report.gamma is None and "prop2" not in report.residuals
    assert report.route_errors == {"i_h_closed": "DomainError: patched", "gamma": "DomainError: patched"}
    # the reverse poisoning test reads the row from the table
    assert row.closed in _table_stages()
    test_the_definitional_routes_read_no_closed_form_stage("qubit-rotation", monkeypatch)


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


# --- the report stage ----------------------------------------------------------------

def _bits(value) -> str:
    """A report field, or a dict of them, as text that tells -0.0 from 0.0 and every bit of a float."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return repr({key: _bits(v) for key, v in value.items()})
    return repr(value)


def _report_bits(report) -> dict:
    return {key: _bits(value) for key, value in _report_row(report).items()}


def test_a_closed_form_failing_at_one_theta_of_a_block_fails_only_its_row(tmp_path, capsys, caplog, monkeypatch):
    # the report stage of the block raises, so the block splits, and only the
    # failing theta's row records the error; every row is its theta's alone
    model = random_spectral_model(7, 3)
    thetas = np.linspace(-1.0, 1.0, 5).tolist()
    bad = thetas[3]
    route = closed_routes("spectral")["i_h_closed"]
    original = route.stage

    def failing_at_bad(grid):
        if bad in grid.thetas:
            raise DomainError("no closed form here")
        return original(grid)

    monkeypatch.setattr(quantum, route.closed, failing_at_bad)
    monkeypatch.setattr(cli, "model_from_config", lambda cfg, fd_step=None: model)
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"kind": "spectral"}))
    with caplog.at_level(logging.WARNING, logger="qcrb_kit"):
        code, grid_json, _ = _compute(capsys, "--model", str(cfg), "--theta-grid=-1:1:5", "--format=json")
    assert code == cli.EXIT_OK
    payload = json.loads(grid_json)
    assert [row["i_h_closed"] is None for row in payload["rows"]] == [theta == bad for theta in thetas]
    warnings = [r.getMessage() for r in caplog.records if "route errors" in r.getMessage()]
    assert warnings == [f"theta={bad:g} route errors: {{'i_h_closed': 'DomainError: no closed form here'}}"]
    rows = []
    for theta in thetas:
        _, out, _ = _compute(capsys, "--model", str(cfg), f"--theta={theta!r}", "--format=json")
        rows += json.loads(out)["rows"]
    assert grid_json == cli.emit_json(payload["columns"], rows, payload["meta"])
    for pt in model.grid(thetas):
        report = relation_report(pt)
        assert list(report.route_errors) == (["i_h_closed"] if pt.theta == bad else [])
        assert _report_bits(report) == _report_bits(relation_report(model.at(pt.theta)))


def test_a_dimension_64_grid_reports_in_blocks_as_each_theta_alone(tmp_path, capsys, monkeypatch):
    # 17 thetas of dimension 64 fill three blocks of 8, 8 and 1; each row is
    # the report of its theta alone, bit for bit
    assert GRID_BLOCK_ENTRIES // 64**2 == 8
    runs = []
    original = quantum._report_stage

    def counted(grid):
        runs.append(len(grid.thetas))
        return original(grid)

    monkeypatch.setattr(quantum, "_report_stage", counted)
    cfg = {"kind": "spectral", "dim": 64, "seed": 3}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = _compute(capsys, "--model", str(path), "--theta-grid=-1:1:17", "--format=json")
    assert code == cli.EXIT_OK
    assert runs == [8, 8, 1]
    model = model_from_config(cfg)
    rows = json.loads(out)["rows"]
    assert len(rows) == 17
    for row in rows:
        report = relation_report(model.at(row["theta"]))
        cells = {**_report_row(report), **{"res_" + key: r for key, r in report.residuals.items()}}
        expected = {column: cells.get(column) for column in cli.REPORT_COLUMNS}
        expected["res_relation"] = report.residuals["prop2"]
        assert {c: _bits(row.pop(c)) for c in cli.REPORT_COLUMNS} == {c: _bits(v) for c, v in expected.items()}
        assert row == dict.fromkeys(("cfi", "cfi_gap", "cfi_ok", "crb"))  # no --povm


def test_the_stacked_qubit_forms_keep_the_bits_of_the_scalar_formulas():
    # the scalar formulas square a float with libm's pow (x ** 2); an array's
    # ** 2 multiplies instead, which differs in the last bit on about one
    # weight in a thousand, so a stacked form must square as pow does
    weight = WeightFunction(w=lambda t: t, dw=lambda t: 0.3 * math.cos(7.0 * t))
    model = QubitMixtureModel(rotation_family(), weight)
    thetas = np.linspace(1e-4, 1.0 - 1e-4, 8_001).tolist()
    got, expected = [], []
    for pt in model.grid(thetas):
        w, dw, ih1 = map(float, pt.layer(_qubit_stage))
        root = np.sqrt(w * (1.0 - w))
        expected.append((
            dw * dw / (w * (1.0 - w)) + (2.0 * w - 1.0) ** 2 * ih1,
            dw * dw / (w * (1.0 - w)) + (1.0 - 2.0 * root) * (2.0 * ih1),
            (1.0 - 2.0 * root) ** 2 * ih1,
            *alpha_beta(w, dw),
        ))
        report = relation_report(pt)
        got.append((report.i_h_closed, report.i_wy_closed, report.gamma, report.alpha, report.beta))
        assert (helstrom_info_qubit_closed(pt), wy_info_qubit_closed(pt), gamma_qubit_closed(pt)) == got[-1][:3]
    assert _same(np.array(got), np.array(expected, dtype=float))


# --- the noise floor -----------------------------------------------------------------

# each definitional route: the factor count of its stacked trace, the point's
# matrix that is its first factor, its public route and the text of its
# value once that trace reads -1 (tr{rho L^2} = -1, 4 tr{[(sqrt rho)']^2} = -4)
FLOOR_ROUTES = {
    "helstrom": (3, lambda pt: pt.rho.mat, helstrom_info_sld, "Helstrom information = -1.0"),
    "skew": (2, lambda pt: pt.dsqrt.matrix.mat, wy_info_generic, "skew information = -4.0"),
}


def _trace_below_the_floor(monkeypatch, route, model, theta) -> str:
    """Make the stacked trace of ``route`` read -1 at every layer of the state of
    ``model`` at ``theta``, on a spectral model (whose closed forms take no trace), and
    return the error text that the route's stage raises there."""
    factors, matrix, _, value = FLOOR_ROUTES[route]
    bad = matrix(model.at(theta))
    original = quantum.real_trace_product

    def trace(mats):
        out = original(mats)
        # the SLD stage's tr{rho L} has two distinct factors
        if len(mats) == factors and (factors == 3 or mats[0] is mats[1]):
            hit = [np.allclose(layer, bad, rtol=0.0, atol=1e-12) for layer in mats[0]]
            out = np.where(hit, -1.0, out)
        return out

    monkeypatch.setattr(quantum, "real_trace_product", trace)
    return f"ValueError: {value} below noise floor -1e-09"


@pytest.mark.parametrize("route", sorted(FLOOR_ROUTES))
def test_an_information_below_the_noise_floor_fails_only_its_point(route, monkeypatch):
    # the stage that gives the number checks it: the block splits, and only
    # the point below the floor raises, with the text it raises alone
    model = random_spectral_model(7, 3)
    expected = _trace_below_the_floor(monkeypatch, route, model, BAD)
    public = FLOOR_ROUTES[route][2]
    readers = {"helstrom": helstrom_info_sld, "skew": wy_info_generic, "report": relation_report}
    for pt in model.grid([-0.5, 0.1, BAD, 0.7]):
        alone = model.at(pt.theta)
        texts = {name: _error_text(fn, pt) for name, fn in readers.items()}
        assert texts == {name: _error_text(fn, alone) for name, fn in readers.items()}
        failing = {name: expected for name, fn in readers.items() if fn in (public, relation_report)}
        assert texts == {**dict.fromkeys(readers), **(failing if pt.theta == BAD else {})}
        if pt.theta != BAD:
            assert _report_bits(relation_report(pt)) == _report_bits(relation_report(alone))


@pytest.mark.parametrize("route", sorted(FLOOR_ROUTES))
def test_compute_exits_two_on_an_information_below_the_noise_floor(route, tmp_path, capsys, monkeypatch):
    model = random_spectral_model(7, 3)
    expected = _trace_below_the_floor(monkeypatch, route, model, 0.5)
    monkeypatch.setattr(cli, "model_from_config", lambda cfg, fd_step=None: model)
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"kind": "spectral"}))
    code, out, err = _compute(capsys, "--model", str(cfg), "--theta-grid=-1:1:5")
    assert code == cli.EXIT_NUMERIC
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [f"error: {expected}"]
    assert "Traceback" not in err


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
    points = list(model.grid(thetas))
    assert {pt.grid for pt in points} == {points[0].grid}
    reports = [relation_report(pt) for pt in points]
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
    points = list(Counting().grid(thetas))
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

def _dimension_64_row(pt, povm):
    # digests of the input layers, so that the layers of the 201 points are not held at once
    inputs = tuple(_digest(a) for a in (*pt.layer(_inputs_stage), *pt.layer(_dinputs_stage)))
    closed = tuple(fn(pt) for fn in (helstrom_info_spectral, wy_info_spectral, gamma_spectral))
    return _report_row(relation_report(pt)), classical_fisher(pt, povm), inputs, closed


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
            rows.append(_dimension_64_row(pt, povm))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    one_stack = GRID_BLOCK_ENTRIES * np.dtype(complex).itemsize
    assert sizes == [block] * (len(thetas) // block) + [len(thetas) % block]
    # a block holds a handful of (block, 64, 64) complex stacks: the frames
    # and the generator of the input stages, rho, its eigenvectors, drho,
    # the two solutions, and the temporaries of the formulas, the
    # validation, eigh and the solves. The whole grid stacked at once would
    # hold 201 / 8 times as much
    assert peak <= 20 * one_stack
    for theta, row in zip(thetas, rows):
        assert row == _dimension_64_row(model.at(theta), povm)


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
    # two grids of 8: each stacked array stays within one stack. The block
    # keeps both stencil grids with only their value inputs, which both
    # differences read; the stencil's rho and its eigenvectors are not kept
    assert peak <= 12 * one_stack
    for theta, row in zip(thetas, rows):
        alone = model.at(theta)
        assert row == (_digest(alone.layer(_dsqrt_fd_stage)[0]), _digest(alone.layer(_drho_fd_stage)[0]))
