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
from qcrb_kit.hermitian import HermitianMatrix, eigh, real_trace_product
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


def povm_by_effect(effects):
    """The per-effect validation that ``Povm`` replaced, kept as its reference.

    Returns the stack it built, or the error it raised.
    """
    try:
        mats = [HermitianMatrix(e) for e in effects]
        if not mats:
            raise InvalidPovm("a measurement needs at least one effect")
        if len({m.dim for m in mats}) > 1:
            raise DimensionError("effects have mixed dimensions")
        stack = np.stack([m.mat for m in mats])
        lam_min = np.linalg.eigvalsh(stack)[:, 0]
        bad = np.flatnonzero(lam_min < classical.EFFECT_EIG_FLOOR)
        if bad.size:
            i = int(bad[0])
            raise InvalidPovm(
                f"effect {i} has eigenvalue {lam_min[i]:.3e} < {classical.EFFECT_EIG_FLOOR}"
            )
        dev = float(np.linalg.norm(stack.sum(axis=0) - np.eye(mats[0].dim)))
        if dev > classical.COMPLETENESS_ATOL:
            raise InvalidPovm(f"effects sum deviates from identity by {dev:.3e}")
        return stack
    except Exception as exc:  # noqa: BLE001 - the error is the result
        return exc


EFFECT_CASES = {
    "half": np.eye(2) / 2,
    "nan": [[np.nan, 0.0], [0.0, 0.5]],
    "infinite imaginary part": [[0.5, 0.0], [0.0, complex(0.0, np.inf)]],
    "skew": [[0.5, 0.1], [0.0, 0.5]],
    "overflowing deviation": [[0.5, 1e308], [-1e308, 0.5]],
    "overflowing sum": [[1e308, 0.0], [0.0, 1e308]],
    "not square": np.zeros((2, 3)),
    "vector": np.zeros(2),
    "three-dimensional": np.eye(3) / 3,
    "beyond the ceiling": np.eye(65),
    "negative": np.diag([-0.1, 0.25]),
}


def test_povm_raises_as_its_first_faulty_effect_in_the_per_effect_order():
    rng = np.random.default_rng(31)
    names = list(EFFECT_CASES)
    for _ in range(400):
        picked = rng.choice(names, size=int(rng.integers(0, 5)))
        effects = [EFFECT_CASES[name] for name in picked]
        expected = povm_by_effect(effects)
        try:
            got = Povm(effects).stack
        except Exception as exc:  # noqa: BLE001
            got = exc
        if isinstance(expected, np.ndarray):
            assert got.tobytes() == expected.tobytes(), list(picked)
        else:
            assert (type(got), str(got)) == (type(expected), str(expected)), list(picked)


def test_povm_of_valid_effects_holds_the_per_effect_stack_bitwise():
    rng = np.random.default_rng(37)
    for dim in (1, 2, 3, 6):
        for k in (1, 2, 5):
            povm = random_povm(dim, k, int(rng.integers(0, 2**31)))
            # within the Hermiticity tolerance, so symmetrizing changes them
            effects = [e.mat + 1e-13j * (e.mat - e.mat.T) for e in povm]
            assert Povm(effects).stack.tobytes() == povm_by_effect(effects).tobytes()
            assert Povm(np.array(effects)).stack.tobytes() == povm_by_effect(effects).tobytes()


def test_povm_accepts_hermitian_matrix_effects():
    half = HermitianMatrix(np.eye(2) / 2)
    povm = Povm([half, half])
    assert len(povm) == 2 and povm.dim == 2
    assert povm.stack.tobytes() == np.stack([half.mat, half.mat]).tobytes()


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


def random_povm_by_effect(dim, n_effects, seed):
    """The per-effect draw loop that ``random_povm`` replaced, kept as its reference.

    Returns the effect stack that loop built: one Gaussian block per call,
    one product per effect, each effect symmetrized on its own.
    """
    rng = np.random.default_rng(seed)
    for _ in range(10):
        draws = []
        for _ in range(n_effects):
            b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            draws.append(b @ b.conj().T)
        dec = eigh(HermitianMatrix(sum(draws)))
        if float(dec.eigenvalues[0]) > classical.NORMALIZER_EIG_FLOOR:
            inv_root = (dec.eigenvectors / np.sqrt(dec.eigenvalues)) @ dec.eigenvectors.conj().T
            return np.stack([HermitianMatrix(inv_root @ a @ inv_root).mat for a in draws])
    raise AssertionError("normalizer stayed singular")


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_random_povm_matches_the_per_effect_loop_bitwise(dim):
    # at dim 1 with 4 or 5 effects, summing the draws pairwise instead of in
    # order changes the last bit of about one stack in fifty
    for n_effects in range(1, 6):
        for seed in range(120):
            expected = random_povm_by_effect(dim, n_effects, seed)
            assert random_povm(dim, n_effects, seed).stack.tobytes() == expected.tobytes()


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


def classical_fisher_by_outcome(pt, povm):
    """The per-outcome loop that ``classical_fisher`` replaced, kept as its reference."""
    dist = outcome_probs(pt, povm)
    scores = outcome_scores(pt, povm)
    total = 0.0
    for p, s, on_support in zip(dist.probs, scores, dist.support):
        if not on_support:
            if abs(s) > classical.SCORE_BLOWUP_ATOL:
                raise SupportRegularityError(f"outcome with probability {p:.3e} has score {s:.3e}")
            continue
        total += s * s / p
    return total


def fisher_cases():
    yield ROTATION, 0.0, basis_povm(2)  # a zero-probability outcome with zero score
    yield ROTATION, 1e-7, basis_povm(2)  # p = 1e-14 with score 2e-7: the score blows up
    yield random_spectral_model(5, 16), 0.3, basis_povm(16)
    yield rotation_mixture(0.8), 0.4, random_povm(2, 5, seed=3)
    rng = np.random.default_rng(41)
    for _ in range(30):
        model = random_spectral_model(int(rng.integers(0, 1000)), 4)
        povm = random_povm(4, int(rng.integers(1, 13)), int(rng.integers(0, 2**31)))
        yield model, float(rng.uniform(-1.0, 1.0)), povm


def test_classical_fisher_matches_the_per_outcome_loop_bitwise():
    # from eight terms on, np.sum would pair the terms differently from the loop
    for model, theta, povm in fisher_cases():
        pt = model.at(theta)
        try:
            expected = classical_fisher_by_outcome(pt, povm)
        except SupportRegularityError as exc:
            with pytest.raises(SupportRegularityError) as info:
                classical_fisher(pt, povm)
            assert str(info.value) == str(exc)
            continue
        got = classical_fisher(pt, povm)
        assert type(got) is type(expected)
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()


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
