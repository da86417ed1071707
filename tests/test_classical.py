"""Tests for measurement statistics and the information inequality."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcrb_kit import classical, hermitian
from qcrb_kit.classical import (
    Povm,
    basis_povm,
    bound_check,
    classical_fisher,
    outcome_probs,
    outcome_scores,
    random_povm,
)
from qcrb_kit.errors import DimensionError, InvalidPovm, SupportRegularityError
from qcrb_kit.models import (
    PureStateModel,
    random_spectral_model,
    rotation_family,
    rotation_mixture,
)
from qcrb_kit.hermitian import real_trace_product
from qcrb_kit.quantum import helstrom_info_sld

ROTATION = PureStateModel(rotation_family())


# --- povm construction ---------------------------------------------------------

def test_povm_requires_completeness():
    with pytest.raises(InvalidPovm):
        Povm([np.diag([1.0, 0.0])])


def test_povm_requires_psd_effects():
    with pytest.raises(InvalidPovm):
        Povm([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])])


def test_povm_names_its_first_non_psd_effect():
    effects = [np.diag([1.2, 0.5]), np.diag([-0.1, 0.25]), np.diag([-0.1, 0.25])]
    with pytest.raises(InvalidPovm, match=r"^effect 1 has eigenvalue -1\.000e-01 < -1e-10$"):
        Povm(effects)


def test_povm_holds_its_effects_as_one_read_only_stack():
    povm = random_povm(3, 4, seed=2)
    assert povm.stack.shape == (4, 3, 3)
    assert not povm.stack.flags.writeable
    for effect, layer in zip(povm, povm.stack):
        assert effect.mat.tobytes() == layer.tobytes()


@pytest.fixture()
def eigh_calls(monkeypatch):
    """Counts ``hermitian.eigh`` calls, under every name the library imports it by."""
    calls = []
    original = hermitian.eigh

    def counting(m):
        calls.append(m)
        return original(m)

    for module in (hermitian, classical):
        monkeypatch.setattr(module, "eigh", counting)
    return calls


def test_building_a_povm_runs_no_eigendecomposition_per_effect(eigh_calls):
    effects = [e.mat for e in random_povm(3, 5, seed=9)]
    eigh_calls.clear()
    Povm(effects)
    assert len(eigh_calls) == 0
    random_povm(3, 5, seed=9)
    assert len(eigh_calls) == 1  # the normalizer of the draws, not one per effect


def test_povm_rejects_mixed_dimensions():
    with pytest.raises(DimensionError):
        Povm([np.eye(2) / 2, np.eye(3) / 2])


def test_single_effect_povm_is_identity():
    povm = random_povm(2, 1, seed=4)
    np.testing.assert_allclose(povm[0].mat, np.eye(2), atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=100_000),
)
def test_random_povm_invariants(dim, n_effects, seed):
    povm = random_povm(dim, n_effects, seed)
    total = sum(m.mat for m in povm)
    assert np.linalg.norm(total - np.eye(dim)) <= 1e-10
    assert len(povm) == n_effects


# --- outcome distributions ------------------------------------------------------

def test_rotation_basis_probabilities():
    for theta in (0.0, 0.3, 1.1):
        dist = outcome_probs(ROTATION.at(theta), basis_povm(2))
        np.testing.assert_allclose(
            dist.probs, [np.cos(theta) ** 2, np.sin(theta) ** 2], atol=1e-12
        )


@pytest.mark.parametrize("model, povm", [
    (rotation_mixture(0.8), random_povm(2, 5, seed=3)),
    (random_spectral_model(4, 4), random_povm(4, 6, seed=8)),
    (random_spectral_model(5, 16), basis_povm(16)),
])
def test_outcome_rules_match_the_per_effect_traces_bitwise(model, povm):
    pt = model.at(0.35)
    probs = np.clip(np.array([real_trace_product([pt.rho, m]) for m in povm]), 0.0, None)
    scores = np.array([real_trace_product([pt.drho, m]) for m in povm])
    assert outcome_probs(pt, povm).probs.tobytes() == probs.tobytes()
    assert outcome_scores(pt, povm).tobytes() == scores.tobytes()


def test_outcome_scores_gate_an_imaginary_residue():
    povm = Povm([[[0.5, -0.5j], [0.5j, 0.5]], [[0.5, 0.5j], [-0.5j, 0.5]]])
    skewed = SimpleNamespace(drho=np.array([[0.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError, match=r"^trace has imaginary residue 5\.000e-01 > 1e-10$"):
        outcome_scores(skewed, povm)


def test_trivial_povm_distribution():
    dist = outcome_probs(ROTATION.at(0.3), Povm([np.eye(2)]))
    np.testing.assert_allclose(dist.probs, [1.0], atol=1e-15)


def test_maximally_mixed_state_is_uniform():
    dist = outcome_probs(rotation_mixture(0.5).at(0.7), basis_povm(2))
    np.testing.assert_allclose(dist.probs, [0.5, 0.5], atol=1e-12)


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionError):
        outcome_probs(ROTATION.at(0.3), basis_povm(3))


# --- classical Fisher information -------------------------------------------------

def test_basis_measurement_attains_helstrom_bound():
    # sin^2(2 theta) / (sin^2 cos^2) = 4 identically
    for theta in (0.3, 0.7, 1.2, -0.4):
        assert classical_fisher(ROTATION.at(theta), basis_povm(2)) == pytest.approx(4.0, abs=1e-9)


def test_trivial_povm_carries_no_information():
    assert classical_fisher(ROTATION.at(0.3), Povm([np.eye(2)])) == pytest.approx(0.0, abs=1e-15)


def test_random_povm_respects_information_inequality():
    rng = np.random.default_rng(1)
    models = [ROTATION, rotation_mixture(0.8), random_spectral_model(31, 3)]
    for model in models:
        i_h = helstrom_info_sld(model.at(0.4))
        for _ in range(5):
            povm = random_povm(model.dim, int(rng.integers(2, 6)), int(rng.integers(0, 2**31)))
            assert classical_fisher(model.at(0.4), povm) <= i_h + 1e-9


def test_rotation_at_origin_has_no_information_in_the_basis():
    # p = (1, 0) and scores = (0, 0): vanishing probability with vanishing
    # score is allowed and contributes nothing
    assert classical_fisher(ROTATION.at(0.0), basis_povm(2)) == pytest.approx(0.0, abs=1e-9)


def test_support_blowup_guard():
    # an outcome with zero probability but nonzero score makes the score
    # function blow up; the guard turns the silent 0/0 into an error
    from qcrb_kit.models import ParametricStateModel

    class InconsistentModel(ParametricStateModel):
        def __init__(self):
            super().__init__(2)

        def rho_matrix(self, theta):
            return np.diag([1.0, 0.0])

        def _drho_analytic(self, theta):
            return np.diag([0.5, -0.5])

    with pytest.raises(SupportRegularityError):
        classical_fisher(InconsistentModel().at(0.0), basis_povm(2))


def test_score_sum_vanishes():
    rng = np.random.default_rng(5)
    for model in (ROTATION, rotation_mixture(0.7)):
        povm = random_povm(2, 4, int(rng.integers(0, 2**31)))
        assert abs(outcome_scores(model.at(0.5), povm).sum()) <= 1e-8


def test_coarse_graining_never_increases_information():
    rng = np.random.default_rng(9)
    model = rotation_mixture(0.75)
    for _ in range(5):
        povm = random_povm(2, 4, int(rng.integers(0, 2**31)))
        base = classical_fisher(model.at(0.4), povm)
        merged = classical_fisher(model.at(0.4), povm.merged(0, 2))
        assert merged <= base + 1e-9


# --- bound_check ------------------------------------------------------------------

def test_bound_check_attaining_measurement():
    check = bound_check(ROTATION.at(0.3), basis_povm(2))
    assert check.ok
    assert check.gap == pytest.approx(0.0, abs=1e-9)
    assert check.crb == pytest.approx(0.25, abs=1e-9)
    assert check.qcrb == pytest.approx(0.25, abs=1e-9)
    assert check.approx_qcrb == pytest.approx(0.125, abs=1e-9)


def test_bound_check_trivial_measurement_gap_is_full():
    check = bound_check(ROTATION.at(0.3), Povm([np.eye(2)]))
    assert check.ok
    assert check.gap == pytest.approx(4.0, abs=1e-9)
    assert check.crb is None
