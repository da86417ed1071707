"""Tests for verify's check stages: each check that measures one residual per point runs
once per batch grid, on the stacked arrays, and a point's residual is its layer.

The per-point formulas the stages replaced are kept here as references: each stage's
layer equals its formula at the point alone, bit for bit, on grids of one and of five,
and a theta where a stage fails fails alone, with the error it raises alone."""

from collections import Counter
from functools import partial

import numpy as np
import pytest

from qcrb_kit import hermitian, models, quantum, verify
from qcrb_kit.hermitian import SUPPORT_TOL, HermitianMatrix, as_array, psd_sqrt, trace_product
from qcrb_kit.models import (
    DEFAULT_FD_STEP,
    PureFamily,
    QubitMixtureModel,
    WeightFunction,
    _dinputs_stage,
    _drho_fd_stage,
    _dsqrt_fd_stage,
    _inputs_stage,
    _projectors_stage,
    _psi2_stage,
    builtin_models,
    fixed_spectrum_model,
    random_spectral_model,
    rotation_family,
    sine_weight,
)
from qcrb_kit.quantum import sld, sld_spectral_sum
from qcrb_kit.verify import VerifyOptions, all_passed, run_suite

from model_formulas import psi2_formula
from test_grid import BAD, _error_text, _failing_at, _raising, _rotation_psi, _same, _spectral_with

# --- the per-point formulas the stages replaced -------------------------------------


def psd_sqrt_composition(pt):
    root = psd_sqrt(pt.rho)
    return float(np.linalg.norm(root.mat @ root.mat - pt.rho.mat))


def solve_involution(pt):
    rho, drho = pt.rho, pt.drho
    l_mat = sld(pt).matrix
    resid = 0.5 * (rho.mat @ l_mat.mat + l_mat.mat @ rho.mat) - drho.mat
    dec = rho.decomposition
    r_tilde = dec.eigenvectors.conj().T @ resid @ dec.eigenvectors
    lam = dec.eigenvalues
    keep = (lam[:, None] + lam[None, :]) > SUPPORT_TOL
    return float(np.linalg.norm(r_tilde[keep]))


def sld_spectral_sum_by_pairs(eigenvalues, projectors, drho):
    """The double projector sum of one point, pair by pair."""
    lam = np.asarray(eigenvalues, dtype=float)
    d = as_array(drho)
    total = np.zeros_like(d)
    for l, p_l in enumerate(projectors):
        for k, p_k in enumerate(projectors):
            denom = lam[l] + lam[k]
            if denom <= SUPPORT_TOL:
                continue
            total += (2.0 / denom) * (p_l @ d @ p_k)
    return HermitianMatrix(total)


def sld_vs_spectral_sum(pt):
    a = sld(pt).matrix.mat
    dec = pt.rho.decomposition
    b = sld_spectral_sum_by_pairs(dec.eigenvalues, dec.projectors(), pt.drho).mat
    return float(np.linalg.norm(a - b))


def drho_route_agreement(pt):
    return float(np.linalg.norm(pt.drho.mat - pt.layer(_drho_fd_stage)[0]))


def dsqrt_route_agreement(pt):
    a = pt.dsqrt.matrix.mat
    b = pt.layer(_dsqrt_fd_stage)[0]
    return float(np.linalg.norm(a - b)) / max(1.0, float(np.linalg.norm(a)))


def spectral_projectors(pt):
    """(P, dP) of one point, from its value input U and the raw dframe or U A."""
    model, u = pt.model, pt.layer(_inputs_stage)[1]
    if model._dframe is not None:
        du = np.asarray(model._dframe(pt.theta), dtype=complex)
    else:
        du = u @ pt.layer(_dinputs_stage)[1]
    projs = u.T[:, :, None] * u.T.conj()[:, None, :]
    d = du.T[:, :, None] * u.T.conj()[:, None, :] + u.T[:, :, None] * du.T.conj()[:, None, :]
    return projs, (d + d.conj().swapaxes(-1, -2)) / 2.0


def spectral_identities(pt):
    projs, dprojs = spectral_projectors(pt)
    n = len(projs)
    dev = float(np.linalg.norm(sum(dprojs)))
    for l in range(n):
        dev = max(dev, abs(trace_product([projs[l], dprojs[l], projs[l], dprojs[l]])))
        for m in range(n):
            if m == l:
                continue
            dev = max(dev, float(np.linalg.norm(projs[l] @ dprojs[m] + dprojs[l] @ projs[m])))
    return dev


def psi2(pt):
    """A mixture's canonical psi2 at one point, from its psi1 and dP1."""
    psi = pt.layer(_inputs_stage)[1]
    dp = pt.layer(_dinputs_stage)[1]
    v = dp @ psi
    v = v - np.vdot(psi, v) * psi
    return v / np.linalg.norm(v)


def mixture_components(pt):
    """p1, p2, dp1 and dp2 of one point: dp2 differences psi2 over a grid of theta +- fd_step."""
    model, theta, h = pt.model, pt.theta, pt.model.fd_step
    p1 = np.outer(pt.layer(_inputs_stage)[1], pt.layer(_inputs_stage)[1].conj())
    p2 = np.outer(psi2(pt), psi2(pt).conj())
    dp1 = pt.layer(_dinputs_stage)[1]
    sides = [np.outer(psi2(side), psi2(side).conj()) for side in model.grid((theta + h, theta - h))]
    return p1, p2, dp1, (sides[0] - sides[1]) / (2.0 * h)


def qubit_complement(pt):
    p1, p2, dp1, dp2 = mixture_components(pt)
    dev = float(np.linalg.norm(p2 - (np.eye(2) - p1)))
    if pt.model.psi1.dpsi is not None:
        dev = max(dev, float(np.linalg.norm(dp1 + dp2)))
    return dev


def orthogonal_scores(pt):
    p1, p2, dp1, dp2 = mixture_components(pt)
    return max(abs(trace_product([pk, dp])) for pk in (p1, p2) for dp in (dp1, dp2))


# each check stage, the per-point formula it replaced, and the kinds it applies to
STAGES = {
    "_psd_sqrt_stage": (psd_sqrt_composition, None),
    "_solve_involution_stage": (solve_involution, None),
    "_sld_vs_spectral_sum_stage": (sld_vs_spectral_sum, None),
    "_drho_route_agreement_stage": (drho_route_agreement, None),
    "_dsqrt_route_agreement_stage": (dsqrt_route_agreement, None),
    "_spectral_identities_stage": (spectral_identities, ("spectral",)),
    "_qubit_complement_stage": (qubit_complement, ("qubit_mixture",)),
    "_orthogonal_scores_stage": (orthogonal_scores, ("qubit_mixture",)),
}
MODELS = {**builtin_models(), **dict(verify._extra_spectral_models(VerifyOptions()))}


def _models_of(kinds):
    return [name for name, model in MODELS.items() if kinds is None or model.kind in kinds]


def _grids(model):
    """The points of a grid of the model's 5 sample thetas, and a grid of one at each."""
    assert len(model.sample_thetas) == 5
    return [*model.grid(model.sample_thetas), *(model.at(theta) for theta in model.sample_thetas)]


# --- each stage's layer is its per-point formula ------------------------------------

@pytest.mark.parametrize("stage_name, name", [
    (stage_name, name) for stage_name, (_, kinds) in STAGES.items() for name in _models_of(kinds)
])
def test_a_check_stage_layer_equals_its_per_point_formula_bitwise(stage_name, name):
    formula = STAGES[stage_name][0]
    model = MODELS[name]
    stage = getattr(verify, stage_name)
    for pt in _grids(model):
        layer = pt.layer(stage)[0]
        assert _same(layer, np.float64(formula(model.at(pt.theta)))), pt.theta


@pytest.mark.parametrize("name", _models_of(("qubit_mixture",)))
def test_the_mixture_stage_holds_the_per_point_components_and_psi2_bitwise(name):
    model = MODELS[name]
    for pt in _grids(model):
        alone = model.at(pt.theta)
        for layer, reference in zip(pt.layer(verify._mixture_stage), mixture_components(alone)):
            assert _same(layer, reference)
        assert _same(pt.layer(_psi2_stage)[0], psi2(alone))
        assert _same(pt.layer(_psi2_stage)[0], psi2_formula(model.psi1, pt.theta, model.fd_step))


@pytest.mark.parametrize("name", _models_of(("spectral",)))
def test_the_projectors_stage_holds_the_per_point_projectors_bitwise(name):
    model = MODELS[name]
    for pt in _grids(model):
        for layer, reference in zip(pt.layer(_projectors_stage), spectral_projectors(model.at(pt.theta))):
            assert _same(layer, reference)


def test_a_stacked_spectral_sum_skips_each_pair_per_layer(monkeypatch):
    # layers of a rank-deficient spectrum, whose pairs among its zero weights are
    # skipped, between layers of a full-rank one, where no pair is; the sum is the
    # route that checks the eigenbasis solve, so it never runs that solve
    full, deficient = random_spectral_model(4, 4), fixed_spectrum_model([0.6, 0.4, 0.0, 0.0], seed=3)
    points = [model.at(theta) for theta in (-0.3, 0.5) for model in (full, deficient, full)]
    lam = np.array([pt.rho.eigenvalues for pt in points])
    projs = [np.array(p) for p in zip(*(pt.rho.decomposition.projectors() for pt in points))]
    drho = np.array([pt.drho.mat for pt in points])

    def no_solve(*args):
        raise AssertionError("the spectral sum ran the eigenbasis solve")

    for module in (hermitian, quantum):
        monkeypatch.setattr(module, "solve_symmetric_product", no_solve)
    stacked = sld_spectral_sum(lam, projs, drho).mat
    for k, pt in enumerate(points):
        dec = pt.rho.decomposition
        reference = sld_spectral_sum_by_pairs(dec.eigenvalues, dec.projectors(), pt.drho).mat
        assert _same(stacked[k], reference)
        assert _same(sld_spectral_sum(dec.eigenvalues, dec.projectors(), pt.drho).mat, reference)


# --- a theta that fails, fails alone ------------------------------------------------

THETAS = (-0.5, -0.1, BAD, 0.3, 0.7)
RHO_STAGES = ("_psd_sqrt_stage", "_solve_involution_stage", "_sld_vs_spectral_sum_stage",
              "_drho_route_agreement_stage", "_dsqrt_route_agreement_stage")
SPECTRAL = RHO_STAGES + ("_spectral_identities_stage", "_projectors_stage")
MIXTURE = RHO_STAGES + ("_qubit_complement_stage", "_orthogonal_scores_stage", "_mixture_stage", "_psi2_stage")


def _mixture_with(psi=_rotation_psi, dpsi=rotation_family().dpsi, weight=sine_weight(0.8)):
    return QubitMixtureModel(PureFamily(2, psi=psi, dpsi=dpsi), weight)


# a model whose input fails at BAD (or at its stencil side BAD + h), the stages that
# then fail at BAD, and the text they fail with
FAILING = {
    "frame-not-unitary": (
        lambda: _spectral_with(frame=_failing_at(BAD, random_spectral_model(7, 3)._frame, lambda u: 1.01 * u)),
        SPECTRAL, "ValueError: frame deviates from unitarity by 3.481e-02 at theta=0.4",
    ),
    # rho stays readable, so its square root does too
    "dframe-raises": (
        lambda: _spectral_with(dframe=_failing_at(BAD, random_spectral_model(7, 3)._dframe,
                                                  _raising(ValueError("no dframe here")))),
        tuple(s for s in SPECTRAL if s != "_psd_sqrt_stage"), "ValueError: no dframe here",
    ),
    "weight-outside": (
        lambda: _mixture_with(weight=WeightFunction(w=_failing_at(BAD, sine_weight(0.8).w, lambda w: 1.1),
                                                    dw=sine_weight(0.8).dw)),
        MIXTURE, "DomainError: weight 1.1 at theta=0.4 outside (0, 1)",
    ),
    "dpsi-raises": (
        lambda: _mixture_with(dpsi=_failing_at(BAD, rotation_family().dpsi, _raising(ValueError("no dpsi here")))),
        tuple(s for s in MIXTURE if s != "_psd_sqrt_stage"), "ValueError: no dpsi here",
    ),
    # only the differences read the stencil side: the forced ones and psi2's
    "psi-off-norm-at-a-stencil-side": (
        lambda: _mixture_with(psi=_failing_at(BAD + DEFAULT_FD_STEP, _rotation_psi, lambda v: 1.1 * v)),
        ("_drho_route_agreement_stage", "_dsqrt_route_agreement_stage", "_qubit_complement_stage",
         "_orthogonal_scores_stage", "_mixture_stage"),
        f"ValueError: family state at theta={BAD + DEFAULT_FD_STEP} has norm np.float64(1.1)",
    ),
}


def _stage(name):
    return getattr(verify, name, None) or getattr(models, name)


@pytest.mark.parametrize("case", sorted(FAILING))
def test_a_theta_that_fails_a_check_stage_fails_only_its_point_with_its_own_text(case):
    make, failing, expected = FAILING[case]
    model = make()
    stages = SPECTRAL if model.kind == "spectral" else MIXTURE
    for name in stages:
        stage = _stage(name)
        for pt in model.grid(THETAS):
            alone = model.at(pt.theta)
            text = _error_text(pt.layer, stage)
            assert text == _error_text(alone.layer, stage), (name, pt.theta)
            if pt.theta == BAD and name in failing:
                assert text == expected, name
                continue
            assert text is None, (name, pt.theta)
            for layer, reference in zip(pt.layer(stage), alone.layer(stage)):
                assert _same(layer, reference)


# --- one run per batch grid ---------------------------------------------------------

def test_one_suite_run_runs_each_check_stage_once_per_batch_grid(monkeypatch):
    # every check stage runs once on each batch grid that holds a model its check
    # selects, over every member of that grid: all the (model, theta) pairs the suite
    # reads of the models of its batch key. It runs on no grid of one. So do the stages
    # they read: the mixture components on the 2 mixture grids, psi2 on those and on
    # their stencil grids, and the frame projectors on the 4 spectral grids that hold
    # a catalog model
    runs = Counter()
    original = models.StateGrid.stage

    def recording(grid, fn, *args):
        if (fn, *args) not in grid._stages:
            runs[fn.__name__, grid.members] += 1
        return original(grid, fn, *args)

    monkeypatch.setattr(models.StateGrid, "stage", recording)
    catalog = builtin_models()
    extra = verify._extra_spectral_models(VerifyOptions())
    monkeypatch.setattr(verify, "_extra_spectral_models", lambda opts: extra)
    assert all_passed(run_suite(catalog=catalog))
    batches = {}
    for model, thetas in verify._suite_reads(catalog, extra).items():
        batches.setdefault(model._batch_key(), []).extend((model, theta) for theta in thetas)
    assert len(batches) == 11

    def batch(model):
        return tuple(batches[model._batch_key()])

    def grids_of(name):
        return Counter({members: n for (stage, members), n in runs.items() if stage == name})

    checks = [fn for _, _, _, fn in verify._CHECKS
              if isinstance(fn, verify._PointCheck) and isinstance(fn.residual, partial)
              and fn.residual.func is verify._layer_residual]
    assert {fn.residual.args[0].__name__ for fn in checks} == set(STAGES)
    for check in checks:
        selected = [model for _, model in verify._models(catalog, check.kinds, check.analytic)]
        assert grids_of(check.residual.args[0].__name__) == {batch(m): 1 for m in selected}
    mixtures = [model for model in catalog.values() if model.kind == "qubit_mixture"]
    spectral = [model for model in catalog.values() if model.kind == "spectral"]
    assert len(grids_of("_mixture_stage")) == 2
    assert grids_of("_mixture_stage") == {batch(m): 1 for m in mixtures}
    assert len(grids_of("_projectors_stage")) == 4
    assert grids_of("_projectors_stage") == {batch(m): 1 for m in spectral}
    h = DEFAULT_FD_STEP
    stencils = {tuple((m, t) for m, theta in batch(model) for t in (theta + h, theta - h)): 1
                for model in mixtures}
    assert grids_of("_psi2_stage") == {**{batch(m): 1 for m in mixtures}, **stencils}
