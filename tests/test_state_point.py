"""Tests for StatePoint: one evaluation of each ingredient per (model, theta), one
stacked evaluation of each stage per grid."""

import json
from collections import Counter

import numpy as np
import pytest

from qcrb_kit import classical, cli, hermitian, models, quantum
from qcrb_kit.classical import basis_povm, bound_check
from qcrb_kit.errors import NotDensityMatrix
from qcrb_kit.models import (
    ParametricStateModel,
    PureFamily,
    PureStateModel,
    QubitMixtureModel,
    SpectralMixtureModel,
    StatePoint,
    WeightFunction,
    qubit_mixture_as_spectral,
    random_spectral_model,
    rotation_family,
    rotation_mixture,
    sine_weight,
)
from qcrb_kit.quantum import helstrom_info_sld, relation_report, sld, wy_info_generic
from qcrb_kit.simulate import SimConfig, exact_estimator_moments, run_sim


def _counted(counts, name, fn):
    def wrapper(theta):
        counts[name] += 1
        return fn(theta)
    return wrapper


class CountingMixture(QubitMixtureModel):
    """Sine-weight rotation mixture that counts the calls of the callables it wraps
    (psi, dpsi, w, dw) and of its public state methods."""

    def __init__(self):
        self.counts = Counter()
        family, weight = rotation_family(), sine_weight(0.8)
        super().__init__(
            PureFamily(2, psi=_counted(self.counts, "psi", family.psi),
                       dpsi=_counted(self.counts, "dpsi", family.dpsi)),
            WeightFunction(w=_counted(self.counts, "w", weight.w), dw=_counted(self.counts, "dw", weight.dw)),
            domain=(-1.45, 1.45),
        )

    def rho(self, theta):
        self.counts["rho"] += 1
        return super().rho(theta)

    def drho(self, theta):
        self.counts["drho"] += 1
        return super().drho(theta)

    def dsqrt_rho(self, theta):
        self.counts["dsqrt_rho"] += 1
        return super().dsqrt_rho(theta)


def each_input(times: int) -> dict:
    """The counts of CountingMixture's callables when each runs ``times`` times."""
    return dict.fromkeys(("psi", "dpsi", "w", "dw"), times)


class TraceOffModel(ParametricStateModel):
    """trace 1.01: every rho evaluation fails."""

    def __init__(self):
        super().__init__(2)
        self.calls = 0

    def rho_matrix(self, theta):
        self.calls += 1
        return np.diag([0.91, 0.10])


def counting(monkeypatch, module, name, counts, everywhere=False):
    """Count the calls of module.name; ``everywhere`` also swaps the references that
    the other package modules imported, as a stage needs: a grid keys a stage by its
    function, so every caller of the stage must see the one wrapper."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    for other in (module, classical, models, quantum) if everywhere else (module,):
        if getattr(other, name, None) is original:
            monkeypatch.setattr(other, name, wrapper)


# the stacked stages of a point's grid, and the two kernels they call
STAGES = {
    models: ("_inputs_stage", "_dinputs_stage", "_rho_stage", "_drho_stage", "_dsqrt_stage"),
    quantum: ("_sld_stage",),
}
ONE_STACKED_EVALUATION = {
    "_inputs_stage": 1, "_dinputs_stage": 1, "_rho_stage": 1, "_drho_stage": 1,
    "_dsqrt_stage": 1, "_sld_stage": 1, "eigh": 1, "solve_symmetric_product": 2,
}


def counting_stages(monkeypatch) -> Counter:
    counts = Counter()
    for module, names in STAGES.items():
        for name in names:
            counting(monkeypatch, module, name, counts, everywhere=True)
    counting(monkeypatch, hermitian, "eigh", counts)
    original = hermitian.solve_symmetric_product

    def solve(*args):
        counts["solve_symmetric_product"] += 1
        return original(*args)

    monkeypatch.setattr(models, "solve_symmetric_product", solve)
    monkeypatch.setattr(quantum, "solve_symmetric_product", solve)
    return counts


# --- the point ----------------------------------------------------------------

def test_point_is_lazy_and_evaluates_each_ingredient_once(monkeypatch):
    stages = counting_stages(monkeypatch)
    model = CountingMixture()
    pt = model.at(0.4)
    assert isinstance(pt, StatePoint)
    assert (pt.model, pt.theta) == (model, 0.4)
    assert not model.counts and not stages
    assert pt.rho is pt.rho
    assert pt.drho is pt.drho
    assert pt.dsqrt is pt.dsqrt
    assert pt.cached(sld) is pt.cached(sld)
    # each callable once per theta, one stacked evaluation per grid, and no
    # public per-theta state method on the way
    assert model.counts == each_input(1)
    assert stages == ONE_STACKED_EVALUATION


def test_point_matches_the_model_routes():
    model = CountingMixture()
    pt = model.at(0.4)
    np.testing.assert_array_equal(pt.rho.mat, model.rho(0.4).mat)
    np.testing.assert_array_equal(pt.drho.mat, model.drho(0.4).mat)
    np.testing.assert_array_equal(pt.dsqrt.matrix.mat, model.dsqrt_rho(0.4).matrix.mat)
    assert helstrom_info_sld(pt) == helstrom_info_sld(model.at(0.4))
    assert wy_info_generic(pt) == wy_info_generic(model.at(0.4))


def test_point_is_immutable():
    pt = CountingMixture().at(0.4)
    with pytest.raises(AttributeError):
        pt.theta = 0.5


def test_point_carries_its_step():
    family = PureFamily(dim=2, psi=rotation_family().psi)  # no dpsi: drho by differences
    coarse = PureStateModel(family, fd_step=1e-3)
    d = (coarse.rho_matrix(0.4 + 1e-3) - coarse.rho_matrix(0.4 - 1e-3)) / (2.0 * 1e-3)
    np.testing.assert_array_equal(coarse.at(0.4).drho.mat, (d + d.conj().T) / 2.0)
    fine = PureStateModel(family).at(0.4).drho.mat
    assert not np.array_equal(coarse.at(0.4).drho.mat, fine)


def test_forced_difference_evaluates_rho_only_on_its_stencil(monkeypatch):
    stages = counting_stages(monkeypatch)
    model = CountingMixture()
    (x,) = model.at(0.3).layer(models._dsqrt_fd_stage)
    assert x.shape == (2, 2)
    # theta +- h on one stencil grid: one stacked evaluation of the value
    # inputs and one eigh of rho, which the stencil grid does not keep as a
    # rho stage; no model.rho call and no derivative input
    assert model.counts == {"psi": 2, "w": 2}
    assert stages == {"_inputs_stage": 1, "eigh": 1}


def _differenced(kind: str, counts: Counter) -> ParametricStateModel:
    """A qubit mixture or a spectral model whose every derivative is differenced,
    counting the calls of each value callable it wraps."""
    if kind == "qubit_mixture":
        family, weight = rotation_family(), sine_weight(0.8)
        return QubitMixtureModel(PureFamily(2, psi=_counted(counts, "psi", family.psi)),
                                 WeightFunction(w=_counted(counts, "w", weight.w)))
    base = random_spectral_model(7, 3)
    return SpectralMixtureModel(3, lambdas=_counted(counts, "lambdas", base._lambdas),
                                frame=_counted(counts, "frame", base._frame))


@pytest.mark.parametrize("kind", ["qubit_mixture", "spectral"])
def test_a_differenced_model_reads_each_stencil_side_once(kind):
    counts = Counter()
    model = _differenced(kind, counts)
    for pt in model.grid([-0.4, 0.1, 0.6]):
        relation_report(pt)
        pt.layer(models._drho_fd_stage)
        pt.layer(models._dsqrt_fd_stage)
    # 3 thetas and their 6 stencil sides, each read once: the differenced
    # derivative inputs, drho and both forced differences all read the
    # stencil grids' value inputs
    assert set(counts.values()) == {9} and len(counts) == 2


def test_an_embedded_mixture_differences_rho_once():
    # the frame has no derivative, so drho is the forced difference of rho
    counts = Counter()
    model = qubit_mixture_as_spectral(rotation_mixture(0.8))
    model._lambdas = _counted(counts, "lambdas", model._lambdas)
    model._frame = _counted(counts, "frame", model._frame)
    for pt in model.grid([-0.4, 0.1, 0.6]):
        pt.drho
        pt.layer(models._drho_fd_stage)
        pt.layer(models._dsqrt_fd_stage)
    assert counts == {"lambdas": 6, "frame": 6}


class CountingRotation(ParametricStateModel):
    """The rotation mixture of weight 0.8 as a custom model without ``_drho_analytic``,
    counting its ``rho_matrix`` calls."""

    def __init__(self):
        super().__init__(2)
        self.calls = 0
        self.mixture = rotation_mixture(0.8)

    def rho_matrix(self, theta):
        self.calls += 1
        return self.mixture.rho_matrix(theta)


def test_a_custom_model_reads_each_stencil_side_once():
    # drho is the forced difference of rho, and both forced differences read
    # rho_matrix at the 6 stencil sides once, as the stencil grids' value inputs
    model = CountingRotation()
    for pt in model.grid([-0.4, 0.1, 0.6]):
        pt.drho
        pt.layer(models._drho_fd_stage)
        pt.layer(models._dsqrt_fd_stage)
    assert model.calls == 6


def test_failed_evaluation_is_not_cached():
    model = TraceOffModel()
    pt = model.at(0.1)
    for _ in range(2):
        with pytest.raises(NotDensityMatrix):
            pt.rho
    # the rho_matrix read is the model's value input, kept as any input stage is;
    # the density check that fails on it runs again on every access
    assert model.calls == 1


# --- evaluation counts --------------------------------------------------------------

def test_report_and_bound_check_share_one_evaluation(monkeypatch):
    counts = counting_stages(monkeypatch)
    counting(monkeypatch, quantum, "_report_stage", counts)
    counting(monkeypatch, classical, "_probs_stage", counts)
    counting(monkeypatch, classical, "_scores_stage", counts)
    model = CountingMixture()
    pt = model.at(0.4)
    report = relation_report(pt)
    check = bound_check(pt, basis_povm(2))
    assert check.i_h == report.i_h_sld
    assert check.approx_qcrb == 1.0 / report.i_wy_generic
    assert model.counts == each_input(1)
    assert counts == {**ONE_STACKED_EVALUATION, "_report_stage": 1, "_probs_stage": 1, "_scores_stage": 1}


def test_compute_row_with_povm_evaluates_the_state_once_per_theta(tmp_path, monkeypatch, capsys):
    counts = counting_stages(monkeypatch)
    counting(monkeypatch, quantum, "_report_stage", counts)
    counting(monkeypatch, classical, "_probs_stage", counts)
    counting(monkeypatch, classical, "_scores_stage", counts)
    model = CountingMixture()
    monkeypatch.setattr(cli, "model_from_config", lambda cfg, fd_step=None: model)
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"kind": "qubit_mixture"}))
    povm = tmp_path / "povm.json"
    povm.write_text(json.dumps({"kind": "random", "dim": 2, "n_effects": 4, "seed": 3}))
    code = cli.main(["compute", "--model", str(cfg), "--povm", str(povm), "--theta-grid=-1:1:5"])
    capsys.readouterr()
    assert code == cli.EXIT_OK
    # each callable once per theta, and each stage once for the grid of five,
    # the rows' report stage included
    assert model.counts == each_input(5)
    assert counts == {**ONE_STACKED_EVALUATION, "_report_stage": 1, "_probs_stage": 1, "_scores_stage": 1}


def test_spectral_row_evaluates_the_spectral_ingredients_once(tmp_path, monkeypatch, capsys):
    counts = Counter()
    counting(monkeypatch, models, "_dinputs_stage", counts, everywhere=True)
    for name in ("lambdas_at", "frame_at", "dprojectors_at"):
        counting(monkeypatch, SpectralMixtureModel, name, counts)
    model = random_spectral_model(9, 4)
    for attr in ("_lambdas", "_dlambdas", "_frame", "_dframe"):
        setattr(model, attr, _counted(counts, attr, getattr(model, attr)))
    monkeypatch.setattr(cli, "model_from_config", lambda cfg, fd_step=None: model)
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"kind": "spectral"}))
    code = cli.main(["compute", "--model", str(cfg), "--theta-grid=-0.5:0.5:3", "--format=json"])
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert code == cli.EXIT_OK
    for row in rows:  # all three closed forms ran
        assert None not in (row["i_h_closed"], row["i_wy_closed"], row["gamma"])
    # one ingredient set for the grid, and per row each callable once; its
    # checks run on the stack, so the per-theta accessors lambdas_at and
    # frame_at are not called; rho, drho and the ingredients read the
    # generator of one stacked formula
    assert counts == {"_dinputs_stage": 1, "_lambdas": 3, "_dlambdas": 3, "_frame": 3, "_dframe": 3}


def test_qubit_row_evaluates_the_qubit_ingredients_once(tmp_path, monkeypatch, capsys):
    counts = Counter()
    counting(monkeypatch, quantum, "_qubit_stage", counts)
    for name in ("state", "velocity"):
        counting(monkeypatch, PureFamily, name, counts)
    counting(monkeypatch, WeightFunction, "value", counts)
    original = QubitMixtureModel.__init__

    def init(self, psi1, weight, **kwargs):  # the callables of the configured model, counted
        psi1 = PureFamily(psi1.dim, _counted(counts, "psi", psi1.psi), _counted(counts, "dpsi", psi1.dpsi))
        weight = WeightFunction(_counted(counts, "w", weight.w), _counted(counts, "dw", weight.dw))
        original(self, psi1, weight, **kwargs)

    monkeypatch.setattr(QubitMixtureModel, "__init__", init)
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({
        "kind": "qubit_mixture", "psi1": {"name": "rotation"},
        "weight": {"form": "sine", "params": [0.8]},
    }))
    code = cli.main(["compute", "--model", str(cfg), "--theta-grid=-0.5:0.5:3", "--format=json"])
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert code == cli.EXIT_OK
    for row in rows:  # all three closed forms and alpha/beta ran
        assert None not in (row["i_h_closed"], row["i_wy_closed"], row["gamma"], row["alpha"])
    # one ingredient set for the grid; per row psi1, its dpsi, the weight and
    # its slope read once by the input stages, which rho, drho and the set
    # share; psi1 and the weight are checked on the stack, so the per-theta
    # PureFamily.state and WeightFunction.value are not called; no per-theta
    # projector or slope formula
    assert counts == {"_qubit_stage": 1, "velocity": 3, "psi": 3, "dpsi": 3, "w": 3, "dw": 3}


def test_simulation_evaluates_the_state_once(monkeypatch):
    stages = counting_stages(monkeypatch)
    model = CountingMixture()
    run_sim(SimConfig(model=model, povm=basis_povm(2), theta0=0.4, n_samples=1_000, seed=2))
    assert model.counts == each_input(1)
    assert stages == ONE_STACKED_EVALUATION


def test_estimator_moments_take_a_point():
    model = CountingMixture()
    povm = basis_povm(2)
    assert exact_estimator_moments(model.at(0.4), povm) == exact_estimator_moments(model.at(0.4), povm)
