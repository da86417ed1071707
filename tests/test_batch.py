"""Tests for batch grids: a grid that holds the (model, theta) members of several models.

``batch_grid(pairs)`` yields one point per pair, in the order given; the pairs whose
models share a batch key share a grid, a custom model shares one with no other model,
each point reads what it reads alone bit for bit, and a member that fails fails alone.
The sweeps read all their models' points from one batch."""

from collections import Counter

import pytest

from qcrb_kit import models, quantum
from qcrb_kit.cli import EXIT_OK, main
from qcrb_kit.errors import DimensionError
from qcrb_kit.models import (
    GRID_BLOCK_ENTRIES,
    BatchKey,
    PureFamily,
    QubitMixtureModel,
    WeightFunction,
    batch_grid,
    fixed_spectrum_model,
    fixed_spectrum_models,
    random_spectral_model,
    rotation_family,
    rotation_mixture,
)

from test_grid import HalfAnalyticRotation, _error_text, _same


def _differenced_mixture():
    return QubitMixtureModel(PureFamily(dim=2, psi=rotation_family().psi), WeightFunction(w=lambda t: 0.7))


def _cells_text(pt) -> str:
    """The point's relation report, every cell by its repr: equal texts are equal bits."""
    return repr(quantum._report_cells(pt))


def _mixed_pairs():
    mix_a, mix_b, mix_fd = rotation_mixture(0.9), rotation_mixture(0.45), _differenced_mixture()
    spec_3a, spec_3b, spec_4 = random_spectral_model(7, 3), random_spectral_model(5, 3), random_spectral_model(21, 4)
    custom_a, custom_b = HalfAnalyticRotation(), HalfAnalyticRotation()
    return [
        (mix_a, 0.1), (spec_3a, 0.3), (custom_a, -0.2), (mix_fd, 0.2), (spec_4, 0.4),
        (mix_b, 0.6), (custom_b, 0.5), (spec_3b, -0.3), (mix_a, -0.5), (custom_a, 0.5),
        (spec_3a, 0.9), (mix_fd, -0.7),
    ]


def test_a_batch_over_mixed_keys_yields_its_points_in_the_order_given():
    pairs = _mixed_pairs()
    points = list(batch_grid(pairs))
    assert [(pt.model, pt.theta) for pt in points] == pairs
    for pt in points:
        assert pt.grid.members[pt.index] == (pt.model, pt.theta)
        assert {m._batch_key() for m, _ in pt.grid.members} == {pt.grid.key}
    # one grid per key: the analytic mixtures, the differenced one, each custom
    # model, and the spectral models of dimension 3 and of dimension 4
    grids = {id(pt.grid): pt.grid for pt in points}
    assert sorted(len(g.members) for g in grids.values()) == [1, 1, 2, 2, 3, 3]
    assert {g.key.kind for g in grids.values()} == {"qubit_mixture", "spectral", "custom"}
    dim3 = [pt.grid for pt in points if pt.model.dim == 3]
    assert len({id(g) for g in dim3}) == 1 and len({m for m, _ in dim3[0].members}) == 2


def test_each_point_of_a_batch_reads_what_it_reads_alone_bit_for_bit():
    for pt in batch_grid(_mixed_pairs()):
        alone = pt.model.at(pt.theta)
        assert len(alone.grid.members) == 1
        assert _cells_text(pt) == _cells_text(alone)
        assert _same(pt.rho.mat, alone.rho.mat)
        assert _same(pt.drho.mat, alone.drho.mat)
        assert _same(pt.dsqrt.matrix.mat, alone.dsqrt.matrix.mat)
        assert _same(quantum.sld(pt).matrix.mat, quantum.sld(alone).matrix.mat)


def test_a_custom_model_never_shares_a_grid():
    custom_a, custom_b = HalfAnalyticRotation(), HalfAnalyticRotation()
    assert custom_a._batch_key() != custom_b._batch_key()
    assert custom_a._batch_key().owner is custom_a
    points = list(batch_grid([(custom_a, -0.3), (custom_b, -0.3), (custom_a, 0.4), (rotation_mixture(0.7), 0.1)]))
    assert [{m for m, _ in pt.grid.members} for pt in points[:3]] == [{custom_a}, {custom_b}, {custom_a}]
    assert points[0].grid is points[2].grid
    assert points[1].grid is not points[0].grid


def test_the_batch_key_names_each_analytic_input():
    rot, fd = rotation_family(), PureFamily(dim=2, psi=rotation_family().psi)
    keys = {
        (psi1, dw): QubitMixtureModel(psi1, WeightFunction(w=lambda t: 0.6, dw=dw))._batch_key()
        for psi1 in (rot, fd) for dw in (None, lambda t: 0.0)
    }
    assert len(set(keys.values())) == 4
    assert keys[rot, None].analytic == ("dpsi",)
    assert keys[fd, None].analytic == ()
    assert models.PureStateModel(rot, fd_step=1e-4)._batch_key() == BatchKey(
        models.PureStateModel, 2, 1e-4, ("dpsi",))
    assert random_spectral_model(3, 3)._batch_key() != random_spectral_model(3, 3, fd_step=1e-4)._batch_key()


def test_a_weight_outside_the_unit_interval_fails_only_its_own_member():
    bad = QubitMixtureModel(rotation_family(), WeightFunction(w=lambda t: t, dw=lambda t: 1.0))
    pairs = [(rotation_mixture(0.3), 0.2), (bad, 0.5), (bad, 1.5), (rotation_mixture(0.8), 0.4)]
    points = list(batch_grid(pairs))
    assert len({id(pt.grid) for pt in points}) == 1
    texts = [_error_text(quantum.relation_report, pt) for pt in points]
    alone = [_error_text(quantum.relation_report, model.at(theta)) for model, theta in pairs]
    assert texts == alone == [None, None, "DomainError: weight 1.5 at theta=1.5 outside (0, 1)", None]
    for pt, (model, theta) in zip(points, pairs):
        if pt.theta != 1.5:
            assert _cells_text(pt) == _cells_text(model.at(theta))
            assert _same(pt.rho.mat, model.at(theta).rho.mat)


def test_model_grid_and_at_are_batches(monkeypatch):
    calls = []
    original = models.batch_grid

    def recording(pairs):
        pairs = list(pairs)
        calls.append(pairs)
        return original(pairs)

    monkeypatch.setattr(models, "batch_grid", recording)
    model = rotation_mixture(0.7)
    assert [pt.theta for pt in model.grid([0.1, 0.2])] == [0.1, 0.2]
    assert model.at(0.3).theta == 0.3
    assert calls == [[(model, 0.1), (model, 0.2)], [(model, 0.3)]]


def test_a_long_batch_over_several_models_is_cut_into_blocks_in_key_order():
    dim = 64
    size = GRID_BLOCK_ENTRIES // (dim * dim)
    a, b = random_spectral_model(1, dim), random_spectral_model(2, dim)
    pairs = [(m, 0.01 * k) for k in range(size + 2) for m in (a, b)]
    points = list(batch_grid(pairs))
    assert [(pt.model, pt.theta) for pt in points] == pairs
    grids = list({id(pt.grid): pt.grid for pt in points}.values())
    assert [len(g.members) for g in grids] == [size, size, 4]
    assert [member for g in grids for member in g.members] == pairs


# --- the sweeps read one batch ---------------------------------------------------------

def test_fixed_spectrum_models_share_one_frame_and_keep_each_models_bits():
    spectra = [[0.6, 0.3, 0.1], [0.5, 0.5, 0.0]]
    many = fixed_spectrum_models(spectra, seed=4)
    assert many[0]._frame is many[1]._frame
    for model, spectrum in zip(many, spectra):
        alone = fixed_spectrum_model(spectrum, seed=4).at(0.3)
        assert _same(model.at(0.3).rho.mat, alone.rho.mat)
        assert _cells_text(model.at(0.3)) == _cells_text(alone)
    with pytest.raises(DimensionError, match="share a dimension"):
        fixed_spectrum_models([[0.5, 0.5], [0.2, 0.3, 0.5]])


@pytest.mark.parametrize("argv", [
    ["sweep-w", "--w-grid=0.02:0.98:101"],
    ["sweep-w", "--w-grid=0.02:0.98:101", "--psi1", "complex-rotation"],
    ["sweep-spectrum", "--t-grid=0:1:101"],
    ["sweep-spectrum", "--t-grid=0:1:101", "--start-spectrum", "0.3,0.25,0.2,0.15,0.1,0", "--frame", "random"],
])
def test_a_sweep_evaluates_its_models_on_one_grid(monkeypatch, tmp_path, argv):
    runs = Counter()
    original = models._rho_stage

    def rho_stage(grid):
        runs[len(grid.members), len({m for m, _ in grid.members})] += 1
        return original(grid)

    monkeypatch.setattr(models, "_rho_stage", rho_stage)
    assert main([*argv, "--out", str(tmp_path / "out.csv")]) == EXIT_OK
    assert runs == {(101, 101): 1}
