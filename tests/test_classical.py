"""Tests for measurement statistics and the information inequality."""

import math
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcrb_kit import classical, cli, configio, hermitian, models, verify
from qcrb_kit.classical import (
    Povm,
    basis_povm,
    bound_check,
    classical_fisher,
    classical_fishers,
    outcome_probs,
    outcome_scores,
    random_povm,
    random_povms,
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
    # a point whose grid holds a drho that is not Hermitian, read as a layer of its stage
    grid = SimpleNamespace(drho_stack=lambda: np.array([[[0.0, 1.0], [0.0, 0.0]]]))
    skewed = SimpleNamespace(layer=lambda fn, *args: tuple(a[0] for a in fn(grid, *args)))
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


@pytest.mark.parametrize("i, j, bad", [
    (-1, 0, -1),  # would merge the last effect into the first and count it twice
    (0, 3, 3),
    (3, 3, 3),
    (0, 1.0, 1.0),
    ("0", 1, "0"),
    (1, np.int64(2), np.int64(2)),
])
def test_merging_names_an_effect_index_outside_the_measurement(i, j, bad):
    povm = random_povm(2, 3, 1)
    with pytest.raises(ValueError) as info:
        povm.merged(i, j)
    assert str(info.value) == f"effect index {bad!r} is not one of the 3 effects"


def test_merging_two_effects_sums_them_into_the_last_outcome():
    povm = random_povm(2, 3, 1)
    merged = povm.merged(2, 0)
    assert len(merged) == 2
    assert np.array_equal(merged.stack[0], povm.stack[1])
    assert np.array_equal(merged.stack[1], povm.stack[2] + povm.stack[0])
    with pytest.raises(ValueError, match="cannot merge an effect with itself"):
        povm.merged(1, 1)


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
    yield ROTATION, 1e-9, basis_povm(2)  # p = 1e-18 with score 2e-9: off the support, no blowup
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


# --- measurement sets -------------------------------------------------------------

# mixed dimensions and effect counts, dimension 1 and a repeated (dim, k) included
MIXED_SPECS = [
    (2, 3, 11), (3, 1, 12), (2, 5, 13), (4, 2, 14), (1, 4, 15), (3, 3, 16), (2, 3, 17), (6, 7, 18),
]


def _text(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # noqa: BLE001 - the text is what is compared
        return f"{type(exc).__name__}: {exc}"
    return None


def _first_normalizer_low(dim, n_effects, seed):
    """The smallest eigenvalue of a spec's first normalizer draw, written out."""
    g = np.random.default_rng(seed).normal(size=(n_effects, 2, dim, dim))
    b = g[:, 0] + 1j * g[:, 1]
    return float(np.linalg.eigvalsh(sum(b @ b.conj().swapaxes(-1, -2)))[0])


def _same_stacks(povms, expected):
    return [p.stack.tobytes() for p in povms] == [p.stack.tobytes() for p in expected] and all(
        p.stack.shape == q.stack.shape for p, q in zip(povms, expected)
    )


def test_random_povms_equal_the_per_spec_draws_layer_for_layer():
    alone = [random_povm(*spec) for spec in MIXED_SPECS]
    assert _same_stacks(random_povms(MIXED_SPECS), alone)
    assert _same_stacks(random_povms(MIXED_SPECS[::-1]), alone[::-1])
    assert random_povms([]) == []


def test_a_set_redraws_only_the_spec_whose_normalizer_is_singular(monkeypatch):
    before = random_povms(MIXED_SPECS)
    lows = [_first_normalizer_low(*spec) for spec in MIXED_SPECS]
    k = int(np.argmin(lows))
    floor = lows[k] * (1.0 + 1e-9)
    assert sorted(lows)[1] > floor
    monkeypatch.setattr(classical, "NORMALIZER_EIG_FLOOR", floor)
    alone = [random_povm(*spec) for spec in MIXED_SPECS]
    together = random_povms(MIXED_SPECS)
    assert _same_stacks(together, alone)
    for i, (new, old) in enumerate(zip(together, before)):
        # spec k drew again from its own stream; no other spec did
        assert (new.stack.tobytes() == old.stack.tobytes()) is (i != k)


def test_a_set_raises_the_error_of_its_first_spec_that_fails_alone(monkeypatch):
    assert _text(random_povms, [(2, 1, 3), (2, 0, 5)]) == "InvalidPovm: n_effects must be >= 1"
    assert _text(random_povms, [(2, 1, 3), (0, 2, 5)]) == _text(random_povm, 0, 2, 5)
    # a single effect is the identity, eigenvalue 1; four random effects have smaller ones
    monkeypatch.setattr(classical, "EFFECT_EIG_FLOOR", 0.5)
    specs = [(2, 1, 3), (3, 4, 6), (2, 4, 5)]
    texts = [_text(random_povm, *spec) for spec in specs]
    assert texts[0] is None
    assert texts[1].startswith("InvalidPovm: effect ") and texts[2].startswith("InvalidPovm: effect ")
    assert texts[1] != texts[2]
    # the dimension-2 specs are validated as one stack, before the dimension-3 one
    assert _text(random_povms, specs) == texts[1]


def test_a_set_names_a_faulty_effect_by_its_index_in_its_own_measurement():
    good = random_povm(2, 3, 21)
    bad = np.array([np.diag([1.2, 0.5]), np.diag([-0.1, 0.25]), np.diag([-0.1, 0.25])], dtype=complex)
    expected = _text(Povm, bad)
    assert expected == "InvalidPovm: effect 1 has eigenvalue -1.000e-01 < -1e-10"
    whole = np.concatenate([good.stack, bad])
    assert _text(classical._checked_effects, whole, (3, 3)) == expected
    incomplete = np.concatenate([good.stack, np.diag([1.0, 0.0])[None].astype(complex)])
    assert _text(classical._checked_effects, incomplete, (3, 1)) == _text(Povm, incomplete[3:])


def test_a_measurement_of_a_set_keeps_a_read_only_stack():
    for povm, spec in zip(random_povms(MIXED_SPECS), MIXED_SPECS):
        assert povm.stack.shape == (spec[1], spec[0], spec[0])
        assert not povm.stack.flags.writeable
        with pytest.raises(ValueError):
            povm.stack[0, 0, 0] = 0.0
        # read by itself, it is the measurement its spec draws alone
        assert Povm(povm.stack).stack.tobytes() == povm.stack.tobytes()
    pt = ROTATION.at(0.3)
    povm = random_povms(MIXED_SPECS)[0]
    assert classical_fisher(pt, povm) == classical_fisher(pt, random_povm(*MIXED_SPECS[0]))


def measurement_set_cases():
    # at theta 0 the basis measurement has an outcome of probability 0 (with score 0)
    # and at 1e-9 one of probability 1e-18 with score 2e-9, off the support
    yield ROTATION, [0.0, 1e-9, 0.4, -0.7], [basis_povm(2), *random_povms([(2, 3, 5), (2, 4, 6)])]
    yield rotation_mixture(0.8), [-0.2, 0.5], random_povms([(2, 2, 7), (2, 5, 8), (2, 1, 9)])
    # 9 to 16 outcomes: np.sum pairs eight or more terms
    yield random_spectral_model(5, 16), [0.3, -0.1], [
        basis_povm(16), *random_povms([(16, 9, 3), (16, 12, 4)])
    ]
    rng = np.random.default_rng(43)
    for _ in range(10):
        model = random_spectral_model(int(rng.integers(0, 1000)), 4)
        specs = [(4, int(rng.integers(1, 13)), int(rng.integers(0, 2**31))) for _ in range(4)]
        yield model, rng.uniform(-1.0, 1.0, size=3).tolist(), random_povms(specs)


def _bits(values):
    return [np.float64(v).tobytes() for v in values]


def test_classical_fishers_equal_the_per_measurement_calls_bitwise():
    for model, thetas, povms in measurement_set_cases():
        for pt in model.grid(thetas):
            alone = model.at(pt.theta)
            got = classical_fishers(pt, povms)
            assert all(type(v) is np.float64 for v in got)
            assert _bits(got) == _bits([classical_fisher_by_outcome(alone, p) for p in povms])
            assert _bits(got) == _bits([classical_fisher(alone, p) for p in povms])
            assert _bits(got) == _bits([classical_fisher(pt, p) for p in povms])
            probs, support = pt.layer(classical._probs_stage, tuple(povms))
            for s, povm in zip(classical._slices(tuple(povms)), povms):
                dist = outcome_probs(alone, povm)
                assert probs[s].tobytes() == dist.probs.tobytes()
                assert support[s].tobytes() == dist.support.tobytes()
    assert classical_fishers(ROTATION.at(0.3), []) == []


def test_a_faulty_second_measurement_raises_what_it_raises_alone():
    eps = 5e-11
    negative = Povm([np.diag([0.5, -eps]), np.diag([0.5, 1.0 + eps])])
    good = random_povm(2, 3, 21)
    cases = [
        (math.pi / 2, negative, "InvalidPovm: negative outcome probability -5.000e-11"),
        (1e-7, basis_povm(2), "SupportRegularityError: outcome with probability 1.000e-14 has score 2.000e-07"),
        (0.3, basis_povm(3), "DimensionError: state dim 2 vs measurement dim 3"),
    ]
    for theta, faulty, expected in cases:
        assert _text(classical_fisher, ROTATION.at(theta), faulty) == expected
        assert _text(classical_fishers, ROTATION.at(theta), (good, faulty)) == expected
        assert _text(classical_fishers, ROTATION.at(theta), (faulty, good)) == expected
    # two faulty measurements at one theta: the first raises, whatever the set checks first
    negative_at_0 = Povm([np.diag([-eps, 0.5]), np.diag([1.0 + eps, 0.5])])
    assert _text(classical_fisher, ROTATION.at(1e-7), negative_at_0).startswith(
        "InvalidPovm: negative outcome probability"
    )
    pair = (basis_povm(2), negative_at_0)
    assert _text(classical_fishers, ROTATION.at(1e-7), pair) == cases[1][2]
    assert _text(classical_fishers, ROTATION.at(1e-7), pair[::-1]) == _text(
        classical_fisher, ROTATION.at(1e-7), negative_at_0
    )
    # on a grid, the failing theta fails alone and the others read the set
    for faulty, failing, text in ((negative, math.pi / 2, cases[0][2]), (basis_povm(2), 1e-7, cases[1][2])):
        for pt in ROTATION.grid([0.3, failing, 1.0]):
            if pt.theta == failing:
                assert _text(classical_fishers, pt, (good, faulty)) == text
            else:
                got = classical_fishers(pt, (good, faulty))
                assert _bits(got) == _bits([classical_fisher(ROTATION.at(pt.theta), p) for p in (good, faulty)])


# --- evaluation counts ---------------------------------------------------------------

def _counting(monkeypatch, module, name, counts, key=None):
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        counts[key or name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return wrapper


def test_one_suite_run_draws_and_reads_its_measurements_as_sets(monkeypatch):
    counts = Counter()
    current = [None]

    def tagged(name, fn):
        def run(*args):
            current[0] = name
            cases = fn(*args)
            return cases if isinstance(cases, tuple) else list(cases)

        return run

    original_stage = classical._probs_stage

    def probs_stage(grid, povms):
        counts["_probs_stage", current[0]] += 1
        return original_stage(grid, povms)

    monkeypatch.setattr(classical, "_probs_stage", probs_stage)
    # every eigh, under every name the library imports it by; the normalizers are classical's
    counting = _counting(monkeypatch, hermitian, "eigh", counts, key=("eigh", None))
    for module in (models, verify):
        monkeypatch.setattr(module, "eigh", counting)

    def normalizer_eigh(m):
        counts["normalizer", current[0]] += 1
        return counting(m)

    monkeypatch.setattr(classical, "eigh", normalizer_eigh)
    checks = [(name, kind, tol, tagged(name, fn)) for name, kind, tol, fn in verify._CHECKS]
    monkeypatch.setattr(verify, "_CHECKS", checks)
    assert verify.all_passed(verify.run_suite())
    probs = {check: n for (name, check), n in counts.items() if name == "_probs_stage"}
    normalizers = {check: n for (name, check), n in counts.items() if name == "normalizer"}
    # one trace rule per set, on the view of the one point that reads it:
    # information-inequality reads one set per catalog model (14), coarse-graining
    # one per pure or mixture model (10), and estimator-exact-variance one
    # measurement on each of two models; each simulation run builds its own point
    assert probs == {
        "information-inequality": 14, "coarse-graining-monotone": 10, "estimator-exact-variance": 2,
        "sim-bound-chain": 1, "sim-reproducibility": 2,
    }
    assert sum(n for check, n in probs.items() if not check.startswith("sim-")) <= 26
    # one stacked normalizer eigh per dimension of each check's set
    assert normalizers == {
        "povm-completeness": 3, "score-sum-analytic": 4, "score-sum-fd": 1,
        "information-inequality": 4, "coarse-graining-monotone": 3, "estimator-exact-variance": 1,
    }
    assert sum(normalizers.values()) <= 16
    assert counts["eigh", None] <= 108


def test_a_qubit_measure_op_draws_one_measurement_and_runs_one_trace_rule(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    counts = Counter()
    _counting(monkeypatch, classical, "_probs_stage", counts)
    _counting(monkeypatch, configio, "random_povm", counts)
    for op in workloads.make_pool("qubit-measure", 11, str(tmp_path)):
        counts.clear()
        assert cli.main(list(op.argv)) == 0
        # the set of one: one random_povm per op, one trace rule for its one grid
        assert counts == {"random_povm": 1, "_probs_stage": 1}


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
