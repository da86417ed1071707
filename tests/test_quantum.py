"""Tests for the information quantities and their cross-route relations."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcrb_kit import models, quantum
from qcrb_kit.errors import BoundaryRegularityError, DomainError
from qcrb_kit.hermitian import real_trace_product
from qcrb_kit.models import (
    ParametricStateModel,
    PureFamily,
    PureStateModel,
    SpectralMixtureModel,
    WeightFunction,
    _dinputs_stage,
    _drho_fd_stage,
    _dsqrt_fd_stage,
    _projectors_stage,
    complex_rotation_family,
    fixed_spectrum_model,
    qubit_mixture_as_spectral,
    random_pure_family,
    random_spectral_model,
    rotation_family,
    rotation_mixture,
    sine_weight,
)
from qcrb_kit.quantum import (
    alpha_beta,
    gamma_qubit_closed,
    gamma_spectral,
    helstrom_info_qubit_closed,
    helstrom_info_sld,
    helstrom_info_spectral,
    relation_report,
    sld,
    sld_spectral_sum,
    wy_info_generic,
    wy_info_qubit_closed,
    wy_info_spectral,
)

FROZEN = PureStateModel(PureFamily(dim=2, psi=lambda t: np.array([1.0, 0.0])))

# spectral models up to the dimension ceiling, plus a rank-deficient spectrum
SPECTRAL_CASES = {
    "random-32": lambda: random_spectral_model(32, 32),
    "random-64": lambda: random_spectral_model(64, 64),
    "rank-deficient-4": lambda: fixed_spectrum_model([0.6, 0.4, 0.0, 0.0]),
}
spectral_cases = pytest.mark.parametrize(
    "make_model", list(SPECTRAL_CASES.values()), ids=list(SPECTRAL_CASES)
)


# --- sld -----------------------------------------------------------------------

def test_sld_pure_state_is_twice_the_derivative():
    model = PureStateModel(rotation_family())
    for theta in (0.2, 0.9):
        result = sld(model.at(theta))
        np.testing.assert_allclose(result.matrix.mat, 2.0 * model.drho(theta).mat, atol=1e-10)
        assert result.support_dropped
        assert abs(result.score_mean) <= 1e-9


def test_sld_constant_maximally_mixed_state_vanishes():
    model = rotation_mixture(0.5)
    np.testing.assert_allclose(sld(model.at(0.4)).matrix.mat, np.zeros((2, 2)), atol=1e-10)


def test_sld_solve_matches_projector_sum():
    model = rotation_mixture(0.8)
    for theta in (0.1, 0.7):
        rho = model.rho(theta)
        a = sld(model.at(theta)).matrix.mat
        dec = rho.decomposition
        b = sld_spectral_sum(dec.eigenvalues, dec.projectors(), model.drho(theta)).mat
        assert np.linalg.norm(a - b) <= 1e-10


def test_zero_mean_score_across_catalog():
    from qcrb_kit.models import builtin_models

    for name, model in builtin_models().items():
        for theta in model.sample_thetas:
            assert abs(sld(model.at(theta)).score_mean) <= 1e-9, name


def test_sld_rejects_inconsistent_rank_deficiency():
    from qcrb_kit.errors import RankDeficientInconsistent
    from qcrb_kit.models import ParametricStateModel

    class InconsistentModel(ParametricStateModel):
        def __init__(self):
            super().__init__(2)

        def rho_matrix(self, theta):
            return np.diag([1.0, 0.0])

        def _drho_analytic(self, theta):
            return np.diag([0.5, -0.5])

    with pytest.raises(RankDeficientInconsistent):
        sld(InconsistentModel().at(0.1))


# --- Helstrom routes --------------------------------------------------------------

def test_helstrom_rotation_family_is_four():
    model = PureStateModel(rotation_family())
    assert helstrom_info_sld(model.at(0.3)) == pytest.approx(4.0, abs=1e-10)
    assert relation_report(model.at(0.3)).i_h_closed == pytest.approx(4.0, abs=1e-12)


def test_pure_closed_form_differences_with_the_models_step():
    # both Helstrom routes difference the same family with the model's step,
    # so they agree to rounding even at a coarse step
    model = PureStateModel(PureFamily(dim=2, psi=rotation_family().psi), fd_step=1e-3)
    assert relation_report(model.at(0.3)).residuals["route_i_h"] < 1e-12


def test_qubit_closed_forms_keep_their_stencil_inside_the_domain():
    # a weight without slope is differenced at theta +- h, outside the domain at its edge
    weight = WeightFunction(w=lambda t: 0.5 * (1.0 + 0.7 * math.sin(t)))
    model = rotation_mixture(weight, domain=(-1.0, 1.0))
    for route in (helstrom_info_qubit_closed, wy_info_qubit_closed, gamma_qubit_closed):
        with pytest.raises(DomainError):
            route(model.at(1.0))
    inside = model.at(1.0 - 1e-4)
    assert helstrom_info_qubit_closed(inside) == pytest.approx(helstrom_info_sld(inside), rel=1e-7)


def test_helstrom_constant_model_is_zero():
    assert helstrom_info_sld(FROZEN.at(0.3)) == pytest.approx(0.0, abs=1e-12)


def test_helstrom_mixture_closed_form_value():
    model = rotation_mixture(0.9)
    assert helstrom_info_qubit_closed(model.at(0.3)) == pytest.approx(2.56, abs=1e-12)
    assert helstrom_info_sld(model.at(0.3)) == pytest.approx(2.56, abs=1e-10)


def test_helstrom_pure_routes_agree_for_complex_family():
    model = PureStateModel(complex_rotation_family())
    for theta in (0.25, 1.0):
        a = relation_report(model.at(theta)).i_h_closed
        b = helstrom_info_sld(model.at(theta))
        assert abs(a - b) / b <= 1e-8


def test_helstrom_sine_weight_at_origin():
    # (w')^2/(w(1-w)) = 1 and (2w-1)^2 = 0 at theta = 0
    model = rotation_mixture(sine_weight(), domain=(-1.45, 1.45))
    assert helstrom_info_qubit_closed(model.at(0.0)) == pytest.approx(1.0, abs=1e-12)


def test_helstrom_constant_weight_kills_first_term():
    model = rotation_mixture(0.77)
    expected = (2 * 0.77 - 1) ** 2 * 4.0
    assert helstrom_info_qubit_closed(model.at(0.6)) == pytest.approx(expected, abs=1e-12)


def test_helstrom_spectral_reduces_to_weight_form_in_two_dims():
    mix = rotation_mixture(0.9)
    spec = qubit_mixture_as_spectral(mix)
    assert helstrom_info_spectral(spec.at(0.3)) == pytest.approx(2.56, abs=1e-8)


def test_helstrom_spectral_constant_model_is_zero():
    model = SpectralMixtureModel(
        3,
        lambdas=lambda t: np.array([0.5, 0.3, 0.2]),
        frame=lambda t: np.eye(3, dtype=complex),
        dlambdas=lambda t: np.zeros(3),
        dframe=lambda t: np.zeros((3, 3), dtype=complex),
    )
    assert helstrom_info_spectral(model.at(0.2)) == pytest.approx(0.0, abs=1e-12)


def test_helstrom_spectral_matches_sld_route():
    model = random_spectral_model(99, 4)
    a = helstrom_info_spectral(model.at(0.3))
    b = helstrom_info_sld(model.at(0.3))
    assert abs(a - b) / b <= 1e-7


@spectral_cases
def test_helstrom_spectral_matches_sld_route_across_dims(make_model):
    model = make_model()
    a = helstrom_info_spectral(model.at(0.3))
    b = helstrom_info_sld(model.at(0.3))
    assert abs(a - b) / b <= 1e-7


def test_spectral_boundary_regularity_guard():
    model = SpectralMixtureModel(
        2,
        lambdas=lambda t: np.array([1.0 - t * 0.0, 0.0]),  # eigenvalue pinned at 0
        frame=lambda t: np.eye(2, dtype=complex),
        dlambdas=lambda t: np.array([-0.5, 0.5]),  # but its derivative is not
        dframe=lambda t: np.zeros((2, 2), dtype=complex),
    )
    with pytest.raises(BoundaryRegularityError):
        helstrom_info_spectral(model.at(0.0))


# --- skew information routes -------------------------------------------------------

def test_wy_rotation_family_is_eight():
    model = PureStateModel(rotation_family())
    assert wy_info_generic(model.at(0.3)) == pytest.approx(8.0, abs=1e-9)


def test_wy_constant_model_is_zero():
    assert wy_info_generic(FROZEN.at(0.3)) == pytest.approx(0.0, abs=1e-12)


def test_wy_mixture_closed_form_values():
    model = rotation_mixture(0.9)
    assert wy_info_qubit_closed(model.at(0.3)) == pytest.approx(3.2, abs=1e-12)
    assert wy_info_generic(model.at(0.3)) == pytest.approx(3.2, abs=1e-9)
    low = rotation_mixture(0.45)
    expected = 8.0 * (1.0 - 2.0 * math.sqrt(0.45 * 0.55))
    assert expected == pytest.approx(0.0401005, abs=5e-7)
    assert wy_info_qubit_closed(low.at(0.3)) == pytest.approx(expected, abs=1e-12)


def test_wy_tends_to_pure_value_at_weight_boundary():
    # as w -> 1 the mixture reproduces the pure state: I_WY -> I_WY1 = 8
    model = rotation_mixture(1.0 - 1e-6)
    assert wy_info_qubit_closed(model.at(0.3)) == pytest.approx(8.0, abs=0.02)
    assert wy_info_qubit_closed(model.at(0.3)) < 8.0


def test_wy_spectral_reduces_to_weight_form_in_two_dims():
    mix = rotation_mixture(0.9)
    spec = qubit_mixture_as_spectral(mix)
    assert wy_info_spectral(spec.at(0.3)) == pytest.approx(3.2, abs=1e-7)


def test_wy_spectral_matches_generic_route():
    model = random_spectral_model(55, 4)
    a = wy_info_spectral(model.at(0.3))
    b = wy_info_generic(model.at(0.3))
    assert abs(a - b) / b <= 1e-6


@spectral_cases
def test_wy_spectral_matches_generic_route_across_dims(make_model):
    model = make_model()
    a = wy_info_spectral(model.at(0.3))
    b = wy_info_generic(model.at(0.3))
    assert abs(a - b) / b <= 1e-6


# --- alpha, beta, gamma ---------------------------------------------------------------

def test_alpha_beta_reference_points():
    assert alpha_beta(0.5, 0.0) == pytest.approx((1.0, 0.0), abs=1e-15)
    assert alpha_beta(0.9, 0.0)[0] == pytest.approx(1.25, abs=1e-15)
    assert alpha_beta(1e-12, 0.0)[0] == pytest.approx(2.0, abs=1e-5)
    with pytest.raises(DomainError):
        alpha_beta(0.0, 0.0)
    with pytest.raises(DomainError):
        alpha_beta(1.0, 0.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1 - 1e-6), st.floats(min_value=-3.0, max_value=3.0))
def test_alpha_beta_ranges_and_symmetry(w, dw):
    alpha, beta = alpha_beta(w, dw)
    assert 1.0 <= alpha <= 2.0
    assert beta <= 1e-15
    assert alpha == pytest.approx(alpha_beta(1.0 - w, dw)[0], rel=1e-12)


def test_gamma_two_dim_closed_form():
    model = rotation_mixture(0.9)
    assert gamma_qubit_closed(model.at(0.3)) == pytest.approx(0.64, abs=1e-12)
    gap = wy_info_generic(model.at(0.3)) - helstrom_info_sld(model.at(0.3))
    assert gap == pytest.approx(0.64, abs=1e-9)


def test_gamma_vanishes_for_uniform_spectrum():
    model = fixed_spectrum_model([1 / 3, 1 / 3, 1 / 3], seed=9)
    assert abs(gamma_spectral(model.at(0.4))) <= 1e-12


def test_gamma_constant_model_is_zero():
    model = SpectralMixtureModel(
        2,
        lambdas=lambda t: np.array([0.6, 0.4]),
        frame=lambda t: np.eye(2, dtype=complex),
        dlambdas=lambda t: np.zeros(2),
        dframe=lambda t: np.zeros((2, 2), dtype=complex),
    )
    assert gamma_spectral(model.at(0.1)) == pytest.approx(0.0, abs=1e-15)


def test_gamma_closes_the_spectral_identity():
    for seed, n in ((4, 2), (8, 3), (15, 5)):
        model = random_spectral_model(seed, n)
        i_h = helstrom_info_spectral(model.at(0.3))
        i_wy = wy_info_spectral(model.at(0.3))
        gamma = gamma_spectral(model.at(0.3))
        assert abs(i_wy - i_h - gamma) <= 1e-7 * max(1.0, i_h)


@spectral_cases
def test_gamma_spectral_matches_generic_gap(make_model):
    model = make_model()
    i_h = helstrom_info_sld(model.at(0.3))
    gap = wy_info_generic(model.at(0.3)) - i_h
    assert abs(gamma_spectral(model.at(0.3)) - gap) <= 1e-7 * max(1.0, i_h)


def _spectral_sums_by_loops(model, theta):
    """(I_H, I_WY, gamma) as explicit projector sums: the reference for the contractions."""
    pt = model.at(theta)
    lam = model.lambdas_at(theta)
    dlam = pt.layer(_dinputs_stage)[0]
    projs, dprojs = pt.layer(_projectors_stage)
    n = model.dim
    fisher = sum(dlam[l] ** 2 / lam[l] for l in range(n) if lam[l] > 1e-12)
    skew = gap = triple = 0.0
    for l in range(n):
        for k in range(n):
            tr_lk = np.trace(dprojs[l] @ dprojs[k]).real
            skew += math.sqrt(lam[l] * lam[k]) * tr_lk
            if k != l:
                gap += (lam[l] - math.sqrt(lam[l] * lam[k])) * tr_lk
            pair = lam[l] + lam[k]
            if k == l or pair <= 1e-12:
                continue
            coeff = lam[l] * (lam[k] - lam[l]) / pair**2
            for z in range(n):
                triple += coeff * lam[z] * np.trace(projs[l] @ dprojs[k] @ dprojs[z]).real
    return fisher + 4.0 * triple, fisher + 4.0 * skew, -4.0 * (gap + triple)


@pytest.mark.parametrize(
    "model",
    [random_spectral_model(seed, n) for seed, n in ((4, 2), (8, 3), (15, 5), (23, 8))]
    + [
        fixed_spectrum_model([0.5, 0.3, 0.2, 0.0, 0.0], seed=3),
        qubit_mixture_as_spectral(rotation_mixture(sine_weight(0.7))),
    ],
    ids=["random-2", "random-3", "random-5", "random-8", "rank-deficient-5", "qubit-fd-frame"],
)
def test_spectral_closed_forms_match_projector_loops(model):
    for theta in (-0.7, 0.1, 0.5):
        i_h, i_wy, gamma = _spectral_sums_by_loops(model, theta)
        assert helstrom_info_spectral(model.at(theta)) == pytest.approx(i_h, rel=1e-12, abs=1e-12)
        assert wy_info_spectral(model.at(theta)) == pytest.approx(i_wy, rel=1e-12, abs=1e-12)
        assert gamma_spectral(model.at(theta)) == pytest.approx(gamma, rel=1e-12, abs=1e-12)


def _frame_basis_dprojectors(model, theta):
    """D[k] = U^dagger dP_k U from the model's projector list."""
    u = model.frame_at(theta)
    return u.conj().T @ np.asarray(model.dprojectors_at(theta)) @ u


@pytest.mark.parametrize(
    "model",
    [random_spectral_model(60 + n, n) for n in (1, 2, 4, 16, 64)]
    + [qubit_mixture_as_spectral(rotation_mixture(sine_weight(0.7)))],
    ids=["random-1", "random-2", "random-4", "random-16", "random-64", "qubit-fd-frame"],
)
def test_generator_contractions_match_the_projector_tensor(model):
    for theta in (-0.7, 0.1, 0.5):
        lam = model.lambdas_at(theta)
        a = model.at(theta).layer(_dinputs_stage)[1]
        d = _frame_basis_dprojectors(model, theta)
        gram = np.tensordot(d, d, axes=([1, 2], [2, 1]))
        pair = lam[:, None] + lam[None, :]
        coeff = lam[:, None] * (lam[None, :] - lam[:, None]) / pair**2
        e = np.tensordot(lam, d, axes=1)
        triple = np.einsum("lk,kla,al->", coeff, d, e)
        gram_err = np.linalg.norm(quantum._projector_derivative_gram(a) - gram)
        assert gram_err <= 1e-12 * max(1.0, np.linalg.norm(gram))
        triple_err = abs(quantum._weighted_triple_sum(lam, a) - triple)
        assert triple_err <= 1e-12 * max(1.0, abs(triple))


def test_no_closed_form_reads_the_phase_of_a_frame_column():
    # in C^2 psi2 is fixed by psi1 up to a phase, so a theta-dependent phase
    # on the second frame column must leave every spectral closed form as it
    # is; that is why a qubit mixture takes no psi2 of its own
    mixture = rotation_mixture(sine_weight(0.8), domain=(-1.4, 1.4))
    plain = qubit_mixture_as_spectral(mixture)
    twisted = SpectralMixtureModel(
        2,
        lambdas=plain.lambdas_at,
        dlambdas=lambda t: plain.at(t).layer(_dinputs_stage)[0],
        frame=lambda t: plain.frame_at(t) * np.array([1.0, np.exp(1j * (0.7 * t**2 + 1.3 * t))]),
        domain=plain.domain,
    )
    for theta in (-0.9, 0.0, 0.3, 1.1):
        pt, ref, qubit = twisted.at(theta), plain.at(theta), mixture.at(theta)
        for route in (helstrom_info_spectral, wy_info_spectral, gamma_spectral):
            assert abs(route(pt) - route(ref)) <= 1e-9
        assert abs(helstrom_info_spectral(pt) - helstrom_info_qubit_closed(qubit)) <= 1e-8
        assert abs(wy_info_spectral(pt) - wy_info_qubit_closed(qubit)) <= 1e-8


def _count_projector_lists(monkeypatch) -> Counter:
    # dprojectors_at, and the stage of frame projectors it reads
    calls = Counter()
    original_at = SpectralMixtureModel.dprojectors_at
    original_stage = models._projectors_stage

    def counted_at(self, theta):
        calls["dprojectors_at"] += 1
        return original_at(self, theta)

    def counted_stage(grid):
        calls["_projectors_stage"] += 1
        return original_stage(grid)

    monkeypatch.setattr(SpectralMixtureModel, "dprojectors_at", counted_at)
    monkeypatch.setattr(models, "_projectors_stage", counted_stage)
    return calls


@pytest.mark.parametrize("n", [1, 2, 4, 16, 64])
def test_generator_drho_matches_the_difference_without_projector_lists(n, monkeypatch):
    calls = _count_projector_lists(monkeypatch)
    model = random_spectral_model(80 + n, n)
    for theta in (-0.7, 0.5):
        analytic = model.drho(theta).mat
        fd = model.at(theta).layer(_drho_fd_stage)[0]
        assert np.linalg.norm(analytic - fd) <= 1e-7 * max(1.0, np.linalg.norm(fd))
    assert not calls


def test_spectral_report_builds_no_projector_list(monkeypatch):
    calls = _count_projector_lists(monkeypatch)
    report = relation_report(random_spectral_model(5, 16).at(0.3))
    assert report.i_h_closed is not None and report.i_wy_closed is not None
    assert report.gamma is not None and not report.route_errors
    assert not calls


# --- relation report ---------------------------------------------------------------

def test_report_pure_doubling_residual_is_zero():
    report = relation_report(PureStateModel(rotation_family()).at(0.3))
    assert report.i_h_sld == pytest.approx(4.0, abs=1e-9)
    assert report.i_wy_generic == pytest.approx(8.0, abs=1e-9)
    assert report.residuals["pure_doubling_abs"] <= 1e-8
    assert report.sharp_bound == pytest.approx(0.25, abs=1e-9)
    assert report.approx_bound == pytest.approx(0.125, abs=1e-9)


def test_report_low_weight_gap():
    report = relation_report(rotation_mixture(0.45).at(0.3))
    assert report.i_h_sld == pytest.approx(0.04, abs=1e-9)
    gap = report.i_wy_generic - report.i_h_sld
    assert gap == pytest.approx(1.00503e-4, abs=1e-8)


def test_report_sine_weight_degenerate_point():
    report = relation_report(rotation_mixture(sine_weight(), domain=(-1.45, 1.45)).at(0.0))
    assert report.i_h_sld == pytest.approx(1.0, abs=1e-10)
    assert report.i_wy_generic == pytest.approx(1.0, abs=1e-9)
    assert report.alpha == pytest.approx(1.0, abs=1e-12)
    assert report.beta == pytest.approx(0.0, abs=1e-12)
    assert report.residuals["prop1"] <= 1e-9


def test_report_route_errors_do_not_abort():
    # weight with a kink: slope blows past the closed-form agreement but the
    # report still returns, recording definitional values
    model = rotation_mixture(WeightFunction(w=lambda t: 0.5 + 0.4 * abs(math.sin(t))))
    report = relation_report(model.at(0.0))
    assert report.i_h_sld >= 0.0


def test_report_records_a_domain_error_from_a_route(monkeypatch):
    def fail(grid):
        raise DomainError("route outside its domain")

    # the report runs the stage that the route table names
    monkeypatch.setattr(quantum, quantum.closed_routes("spectral")["i_h_closed"].closed, fail)
    report = relation_report(random_spectral_model(7, 3).at(0.3))
    assert report.i_h_closed is None
    assert report.route_errors["i_h_closed"] == "DomainError: route outside its domain"


def test_report_propagates_a_programming_error_from_a_route(monkeypatch):
    def broken(grid):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(quantum, quantum.closed_routes("spectral")["i_h_closed"].closed, broken)
    with pytest.raises(TypeError):
        relation_report(random_spectral_model(7, 3).at(0.3))


class NearlySingularModel(ParametricStateModel):
    """rho = diag(1 - eps, eps) with eps below the square-root support tolerance.

    The SLD solve keeps the (eps, eps) pair, but the square-root solve
    treats eps as 0 and finds the derivative's weight there inconsistent.
    """

    EPS = 8e-13

    def __init__(self):
        super().__init__(2)

    def rho_matrix(self, theta):
        return np.diag([1.0 - self.EPS, self.EPS])

    def _drho_analytic(self, theta):
        return np.diag([-1e-3, 1e-3])


def test_report_diagnostics_show_the_fd_fallback():
    report = relation_report(NearlySingularModel().at(0.2))
    assert report.diagnostics == {
        "sqrt_route": "fd",
        "fd_fallback": True,
        "support_dropped": False,
        "min_pair_sum": pytest.approx(2 * NearlySingularModel.EPS),
    }


def test_skew_information_reads_the_fd_fallback_in_a_grid_and_alone():
    model = NearlySingularModel()
    for pt in list(model.grid([-0.4, 0.2, 0.7])) + [model.at(0.2)]:
        assert relation_report(pt).diagnostics["fd_fallback"] is True
        fd = model.at(pt.theta).layer(_dsqrt_fd_stage)[0]
        assert pt.dsqrt.matrix.mat.tobytes() == fd.tobytes()
        assert wy_info_generic(pt) == 4.0 * real_trace_product([fd, fd])


def test_report_diagnostics_on_a_rank_deficient_spectrum():
    report = relation_report(fixed_spectrum_model([0.6, 0.4, 0.0, 0.0], seed=3).at(0.3))
    assert report.diagnostics == {
        "sqrt_route": "solve",
        "fd_fallback": False,
        "support_dropped": True,
        "min_pair_sum": pytest.approx(0.4, abs=1e-12),
    }


def test_ratio_bounds_for_constant_weight():
    for w in (0.55, 0.7, 0.85, 0.98):
        report = relation_report(rotation_mixture(w).at(0.3))
        assert 1.0 - 1e-9 <= report.ratio <= 2.0 + 1e-6


def test_information_loss_under_mixing():
    for w in (0.6, 0.8, 0.95):
        model = rotation_mixture(w)
        assert helstrom_info_sld(model.at(0.3)) <= 4.0 + 1e-9
        assert wy_info_generic(model.at(0.3)) <= 8.0 + 1e-9


def test_monotone_gap_in_weight_distance():
    gaps = []
    for w in np.arange(0.5, 0.99, 0.02):
        model = rotation_mixture(float(w))
        gaps.append(wy_info_generic(model.at(0.3)) - helstrom_info_sld(model.at(0.3)))
    assert all(b >= a - 1e-9 for a, b in zip(gaps, gaps[1:]))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=5_000))
def test_pure_doubling_property(seed):
    dim = 2 + seed % 4
    model = PureStateModel(random_pure_family(seed, dim))
    theta = -0.8 + (seed % 17) * 0.1
    i_h = helstrom_info_sld(model.at(theta))
    if i_h > 1e-8:
        assert abs(wy_info_generic(model.at(theta)) / i_h - 2.0) <= 1e-6
