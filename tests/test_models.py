"""Tests for the parametric state families."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from qcrb_kit.errors import ConfigError, DimensionError, DomainError, StationaryFamilyError
from qcrb_kit.models import (
    ORTHO_ATOL,
    ParametricStateModel,
    PureFamily,
    PureStateModel,
    QubitMixtureModel,
    SpectralMixtureModel,
    WeightFunction,
    _dinputs_stage,
    _drho_fd_stage,
    _dsqrt_fd_stage,
    _spectral_projectors,
    _unitary_path,
    builtin_models,
    canonical_psi2,
    constant_weight,
    fixed_spectrum_model,
    qubit_mixture_as_spectral,
    random_pure_family,
    random_skew_hermitian,
    random_spectral_model,
    random_unitary,
    rotation_family,
    rotation_mixture,
    sine_weight,
)
from qcrb_kit.quantum import _qubit_ingredients

from model_formulas import dprojector_formula, projector_formula


def rotation_drho(theta):
    return np.array(
        [[-math.sin(2 * theta), math.cos(2 * theta)], [math.cos(2 * theta), math.sin(2 * theta)]]
    )


# --- rho ----------------------------------------------------------------------

def test_pure_rotation_at_zero():
    model = PureStateModel(rotation_family())
    np.testing.assert_allclose(model.rho(0.0).mat, np.diag([1.0, 0.0]), atol=1e-15)


def test_half_weight_mixture_is_maximally_mixed():
    model = rotation_mixture(0.5)
    for theta in (-0.7, 0.0, 0.4, 1.2):
        np.testing.assert_allclose(model.rho(theta).mat, np.eye(2) / 2, atol=1e-12)


def test_mixture_at_zero_is_diagonal():
    model = rotation_mixture(0.9)
    np.testing.assert_allclose(model.rho(0.0).mat, np.diag([0.9, 0.1]), atol=1e-15)


def test_weight_outside_unit_interval_rejected():
    model = rotation_mixture(WeightFunction(w=lambda t: 0.5 + t))
    with pytest.raises(DomainError):
        model.rho(0.7)
    with pytest.raises(DomainError):
        constant_weight(1.0)


def test_domain_enforced():
    model = PureStateModel(rotation_family(), domain=(-1.0, 1.0))
    with pytest.raises(DomainError):
        model.rho(1.5)
    # finite differences need theta +/- h inside the domain too
    fd = PureStateModel(PureFamily(dim=2, psi=rotation_family().psi), domain=(-1.0, 1.0))
    with pytest.raises(DomainError):
        fd.drho(1.0)


# --- drho -----------------------------------------------------------------------

def test_rotation_projector_derivative_closed_form():
    model = PureStateModel(rotation_family())
    for theta in (0.0, 0.3, 1.1):
        np.testing.assert_allclose(model.drho(theta).mat, rotation_drho(theta), atol=1e-12)


def test_constant_model_derivative_vanishes():
    frozen = PureStateModel(PureFamily(dim=2, psi=lambda t: np.array([1.0, 0.0])))
    np.testing.assert_allclose(frozen.drho(0.3).mat, np.zeros((2, 2)), atol=1e-12)


def test_drho_routes_agree_on_smooth_models():
    for seed in (1, 2, 3):
        model = PureStateModel(random_pure_family(seed, 2))
        for theta in (-0.4, 0.2, 0.9):
            a = model.drho(theta).mat
            b = model.at(theta).layer(_drho_fd_stage)[0]
            assert np.linalg.norm(a - b) <= 1e-7


def test_drho_traceless():
    for name, model in builtin_models().items():
        for theta in model.sample_thetas:
            assert abs(np.trace(model.drho(theta).mat).real) <= 1e-8, name


# --- dsqrt_rho -------------------------------------------------------------------

def test_pure_sqrt_derivative_equals_state_derivative():
    model = PureStateModel(rotation_family())
    for theta in (0.1, 0.8):
        d = model.dsqrt_rho(theta)
        assert d.route == "solve"
        np.testing.assert_allclose(d.matrix.mat, model.drho(theta).mat, atol=1e-9)


def test_mixture_sqrt_derivative_closed_form():
    # (sqrt rho)' = w'/(2 sqrt w) P1 + sqrt(w) P1' - w'/(2 sqrt(1-w)) P2 + sqrt(1-w) P2'
    model = rotation_mixture(sine_weight(), domain=(-1.45, 1.45))
    theta = 0.4
    w = model.weight.value(theta)
    dw = model.weight.dw(theta)
    v1 = model.psi1.state(theta)
    p1 = np.outer(v1, v1.conj())
    p2 = np.eye(2) - p1
    dp1 = dprojector_formula(model.psi1, theta, model.fd_step)
    expected = (
        dw / (2 * math.sqrt(w)) * p1
        + math.sqrt(w) * dp1
        - dw / (2 * math.sqrt(1 - w)) * p2
        + math.sqrt(1 - w) * (-dp1)
    )
    np.testing.assert_allclose(model.dsqrt_rho(theta).matrix.mat, expected, atol=1e-9)


def test_constant_model_sqrt_derivative_vanishes():
    frozen = PureStateModel(PureFamily(dim=2, psi=lambda t: np.array([1.0, 0.0])))
    np.testing.assert_allclose(frozen.dsqrt_rho(0.2).matrix.mat, np.zeros((2, 2)), atol=1e-10)


def test_dsqrt_routes_agree():
    for model in (rotation_mixture(0.8), random_spectral_model(13, 4)):
        for theta in (-0.3, 0.5):
            a = model.dsqrt_rho(theta).matrix.mat
            b = model.at(theta).layer(_dsqrt_fd_stage)[0]
            assert np.linalg.norm(a - b) <= 1e-6 * max(1.0, np.linalg.norm(a))


def test_dsqrt_falls_back_when_rhs_leaves_the_support():
    # a derivative claiming weight on the kernel of rho defeats the solve
    # route; the finite-difference fallback engages and is flagged
    class InconsistentModel(ParametricStateModel):
        def __init__(self):
            super().__init__(2)

        def rho_matrix(self, theta):
            return np.diag([1.0, 0.0])

        def _drho_analytic(self, theta):
            return np.diag([0.5, -0.5])

    d = InconsistentModel().dsqrt_rho(0.2)
    assert d.route == "fd"
    assert d.fd_fallback
    np.testing.assert_allclose(d.matrix.mat, np.zeros((2, 2)), atol=1e-10)


# --- canonical psi2 ---------------------------------------------------------------

def _psi2_at(family, theta, **kwargs):
    """canonical_psi2 of a point of a mixture of ``family``: psi2 takes a mixture's point."""
    return canonical_psi2(QubitMixtureModel(family, constant_weight(0.7), **kwargs).at(theta))


def test_canonical_psi2_rotation_at_zero():
    psi2 = _psi2_at(rotation_family(), 0.0)
    np.testing.assert_allclose(psi2.vec, [0.0, 1.0], atol=1e-12)


def test_canonical_psi2_orthogonal_everywhere():
    fam = rotation_family()
    for theta in (-1.0, -0.2, 0.45, 1.3):
        overlap = np.vdot(fam.state(theta), _psi2_at(fam, theta).vec)
        assert abs(overlap) <= 1e-10


@pytest.mark.parametrize("phase, h", [
    (lambda t: t * t + t, 1e-5),
    (lambda t: 0.1 * t * t + t, 1e-3),
], ids=["t2+t-default-step", "0.1t2+t-step-1e-3"])
def test_canonical_psi2_of_a_differenced_family_with_varying_speed(phase, h):
    # a central-difference dp leaves an O(h^2) overlap with psi1 where the
    # phase speed varies; it is projected out before normalizing
    fam = PureFamily(dim=2, psi=lambda t: np.array([math.cos(phase(t)), math.sin(phase(t))]))
    psi2 = _psi2_at(fam, 0.3, fd_step=h)
    assert abs(np.vdot(fam.state(0.3), psi2.vec)) <= ORTHO_ATOL
    angle = phase(0.3)
    np.testing.assert_allclose(psi2.vec, [-math.sin(angle), math.cos(angle)], atol=1e-9)


def test_canonical_psi2_stationary_family_rejected():
    frozen = PureFamily(dim=2, psi=lambda t: np.array([1.0, 0.0]))
    with pytest.raises(StationaryFamilyError):
        _psi2_at(frozen, 0.3)


def test_canonical_psi2_needs_a_valid_mixture_point():
    # psi2 reads the point's inputs: the weight at theta, and with a
    # differenced psi1 the stencil theta +- fd_step inside the domain
    drifting = QubitMixtureModel(rotation_family(), WeightFunction(w=lambda t: 0.5 + t))
    with pytest.raises(DomainError, match="weight"):
        canonical_psi2(drifting.at(0.7))
    fd = QubitMixtureModel(PureFamily(dim=2, psi=rotation_family().psi), constant_weight(0.7),
                           domain=(-1.0, 1.0))
    canonical_psi2(fd.at(0.5))
    with pytest.raises(DomainError, match="outside domain"):
        canonical_psi2(fd.at(1.0))


def test_mixture_requires_dim_two():
    with pytest.raises(DimensionError):
        QubitMixtureModel(random_pure_family(5, 3), constant_weight(0.7))


# --- qubit mixture structure -------------------------------------------------------

def test_complement_projector_identities():
    model = rotation_mixture(0.7)
    for theta in (-0.5, 0.2, 1.0):
        p1 = projector_formula(model.psi1, theta)
        p2 = canonical_psi2(model.at(theta)).projector()
        assert np.linalg.norm(p2 - (np.eye(2) - p1)) <= 1e-10
        # tr{rho_k drho_h} = 0 for all component pairs
        dp1 = dprojector_formula(model.psi1, theta, model.fd_step)
        for pk in (p1, p2):
            assert abs(np.trace(pk @ dp1)) <= 1e-9


def test_weight_boundary_regularity_ratio_bounded():
    # max |w'| / min(sqrt(w), sqrt(1-w)) over the (w, w') the closed forms read
    model = rotation_mixture(sine_weight(), domain=(-1.45, 1.45))
    worst = 0.0
    for pt in model.grid(np.linspace(-1.4, 1.4, 21)):
        w, dw, _ = pt.cached(_qubit_ingredients)
        worst = max(worst, abs(dw) / min(math.sqrt(w), math.sqrt(1.0 - w)))
    assert worst <= 2.0


# --- spectral models ---------------------------------------------------------------

def test_spectral_model_invariants():
    model = random_spectral_model(17, 5)
    for theta in (-0.6, 0.0, 0.8):
        lam = model.lambdas_at(theta)
        assert abs(lam.sum() - 1.0) <= 1e-10
        assert np.all(lam >= 0.0) and np.all(lam <= 1.0)
        pt = model.at(theta)
        assert abs(pt.layer(_dinputs_stage)[0].sum()) <= 1e-8
        projs, _ = _spectral_projectors(pt)
        for l, p_l in enumerate(projs):
            for k, p_k in enumerate(projs):
                expected = 1.0 if l == k else 0.0
                assert abs(np.trace(p_l @ p_k).real - expected) <= 1e-10


def test_spectral_appendix_identities():
    model = random_spectral_model(23, 4)
    for theta in (-0.4, 0.5):
        projs, dprojs = _spectral_projectors(model.at(theta))
        assert np.linalg.norm(sum(dprojs)) <= 1e-9
        for l in range(4):
            assert abs(np.trace(projs[l] @ dprojs[l] @ projs[l] @ dprojs[l])) <= 1e-9
            for m in range(4):
                if m != l:
                    assert np.linalg.norm(projs[l] @ dprojs[m] + dprojs[l] @ projs[m]) <= 1e-9


def test_fixed_spectrum_rotation_frame_matches_mixture():
    spec = fixed_spectrum_model([0.9, 0.1], frame="rotation")
    mix = rotation_mixture(0.9)
    for theta in (0.0, 0.3, 1.0):
        np.testing.assert_allclose(spec.rho(theta).mat, mix.rho(theta).mat, atol=1e-12)


def test_qubit_mixture_as_spectral_reproduces_rho():
    mix = rotation_mixture(0.8)
    spec = qubit_mixture_as_spectral(mix)
    for theta in (0.1, 0.6):
        np.testing.assert_allclose(spec.rho(theta).mat, mix.rho(theta).mat, atol=1e-10)


def test_embedding_differences_a_weight_without_slope_with_its_own_step():
    # with_fd_step on the embedding must reach the weight slope, not only the frame
    mix = rotation_mixture(WeightFunction(w=sine_weight(0.8).w), domain=(-1.45, 1.45))
    copied = qubit_mixture_as_spectral(mix).with_fd_step(1e-2)
    rebuilt = qubit_mixture_as_spectral(mix.with_fd_step(1e-2))
    for theta in (-0.6, 0.3):
        np.testing.assert_array_equal(
            copied.at(theta).layer(_dinputs_stage)[0], rebuilt.at(theta).layer(_dinputs_stage)[0]
        )
        np.testing.assert_array_equal(copied.drho(theta).mat, rebuilt.drho(theta).mat)


def test_embedding_frame_differences_psi2_with_its_own_step():
    # psi2 differences psi1, so with_fd_step on the embedding must reach it too
    phase = lambda t: 0.1 * t * t + t
    family = PureFamily(
        dim=2, psi=lambda t: np.array([math.cos(phase(t)), math.sin(phase(t))], dtype=complex)
    )
    mix = QubitMixtureModel(family, sine_weight(0.7))
    copied = qubit_mixture_as_spectral(mix).with_fd_step(1e-3)
    rebuilt = qubit_mixture_as_spectral(mix.with_fd_step(1e-3))
    assert copied.frame_at(0.3).tobytes() == rebuilt.frame_at(0.3).tobytes()


def test_builtin_catalog_satisfies_model_invariants():
    for name, model in builtin_models().items():
        assert isinstance(model, ParametricStateModel)
        for theta in model.sample_thetas:
            rho = model.rho(theta)
            assert abs(np.trace(rho.mat).real - 1.0) <= 1e-10, name
            assert rho.eigenvalues[0] >= -1e-10, name


def test_spectral_lambda_validation():
    bad_sum = SpectralMixtureModel(
        2,
        lambdas=lambda t: np.array([0.6, 0.6]),
        frame=lambda t: np.eye(2, dtype=complex),
    )
    with pytest.raises(ValueError):
        bad_sum.lambdas_at(0.0)
    not_unitary = SpectralMixtureModel(
        2,
        lambdas=lambda t: np.array([0.5, 0.5]),
        frame=lambda t: np.full((2, 2), 0.5, dtype=complex),
    )
    with pytest.raises(ValueError):
        not_unitary.frame_at(0.0)


def test_model_construction_errors_are_toolkit_errors():
    with pytest.raises(DomainError, match="empty domain"):
        rotation_mixture(0.7, domain=(0.3, 0.3))
    with pytest.raises(ConfigError, match="finite-difference step"):
        PureStateModel(rotation_family(), fd_step=-1.0)
    with pytest.raises(ConfigError, match="frame kind"):
        fixed_spectrum_model([0.5, 0.5], frame="spiral")


def _projector_lists_by_columns(model, theta):
    """The per-column outer products that built the frame projectors and ``dprojectors_at``,
    kept as their reference: du is the raw dframe, or U A without one."""
    u = model.frame_at(theta)
    if model._dframe is not None:
        du = np.asarray(model._dframe(theta), dtype=complex)
    else:
        du = u @ model.at(theta).layer(_dinputs_stage)[1]
    projs, dprojs = [], []
    for j in range(model.dim):
        projs.append(np.outer(u[:, j], u[:, j].conj()))
        d = np.outer(du[:, j], u[:, j].conj()) + np.outer(u[:, j], du[:, j].conj())
        dprojs.append((d + d.conj().T) / 2.0)
    return projs, dprojs


SPECTRAL_CATALOG = {name: m for name, m in builtin_models().items() if m.kind == "spectral"}


@pytest.mark.parametrize(
    "model",
    [*SPECTRAL_CATALOG.values(), random_spectral_model(1616, 16),
     qubit_mixture_as_spectral(rotation_mixture(sine_weight(0.7)))],
    ids=[*SPECTRAL_CATALOG, "random-16", "no-dframe"],
)
def test_projector_accessors_equal_the_per_column_outer_products_bitwise(model):
    for theta in model.sample_thetas:
        projs, dprojs = _projector_lists_by_columns(model, theta)
        assert np.array(_spectral_projectors(model.at(theta))[0]).tobytes() == np.array(projs).tobytes()
        assert np.array(model.dprojectors_at(theta)).tobytes() == np.array(dprojs).tobytes()


def test_spectral_differences_stay_inside_the_domain():
    # no dlambdas or dframe: both derivatives are central differences
    model = SpectralMixtureModel(
        2,
        lambdas=lambda t: np.array([0.5 + 0.2 * t, 0.5 - 0.2 * t]),
        frame=lambda t: np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]),
        domain=(0.0, 1.0),
    )
    assert model.at(0.5).layer(_dinputs_stage)[0] == pytest.approx([0.2, -0.2], abs=1e-9)
    with pytest.raises(DomainError, match="outside domain"):
        model.at(0.0).layer(_dinputs_stage)
    with pytest.raises(DomainError, match="outside domain"):
        model.dprojectors_at(1.0)


@pytest.mark.parametrize(
    "model",
    [random_spectral_model(40 + n, n) for n in (1, 2, 4, 16, 64)]
    + [
        fixed_spectrum_model([0.5, 0.3, 0.2, 0.0, 0.0], seed=3),
        qubit_mixture_as_spectral(rotation_mixture(sine_weight(0.7))),
    ],
    ids=["random-1", "random-2", "random-4", "random-16", "random-64", "rank-deficient-5",
         "qubit-fd-frame"],
)
def test_generator_is_skew_hermitian_with_zero_diagonal(model):
    for theta in (-0.7, 0.1, 0.5):
        a = model.at(theta).layer(_dinputs_stage)[1]
        assert a.shape == (model.dim, model.dim)
        assert np.array_equal(a, -a.conj().T)
        assert np.all(np.diag(a) == 0.0)


def test_differenced_generator_recovers_the_rotation_generator():
    # the embedded rotation mixture has frame R(theta) = exp(theta K), so A = K
    model = qubit_mixture_as_spectral(rotation_mixture(sine_weight(0.7)))
    k = np.array([[0.0, -1.0], [1.0, 0.0]])
    for theta in (-0.7, 0.1, 0.5):
        np.testing.assert_allclose(model.at(theta).layer(_dinputs_stage)[1], k, atol=1e-9)


def test_with_fd_step_copies_only_when_the_step_changes():
    model = PureStateModel(PureFamily(dim=2, psi=rotation_family().psi))
    assert model.with_fd_step(model.fd_step) is model
    coarse = model.with_fd_step(1e-3)
    assert coarse is not model and type(coarse) is type(model)
    assert (model.fd_step, coarse.fd_step) == (1e-5, 1e-3)
    built = PureStateModel(model.family, fd_step=1e-3)
    np.testing.assert_array_equal(coarse.drho(0.3).mat, built.drho(0.3).mat)
    assert not np.array_equal(coarse.drho(0.3).mat, model.drho(0.3).mat)
    with pytest.raises(ConfigError, match="step must be positive"):
        model.with_fd_step(0.0)


# --- exact frame exponentials ---------------------------------------------------------

def _relative(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("columns", ["frame", "vector"])
@pytest.mark.parametrize("dim", [1, 2, 4, 16, 64])
def test_unitary_path_matches_the_matrix_exponential(dim, columns):
    rng = np.random.default_rng(1000 + dim)
    k = random_skew_hermitian(rng, dim)
    x0 = random_unitary(rng, dim)
    if columns == "vector":
        x0 = x0[:, :1]
    path, dpath = _unitary_path(k, x0)
    for t in (-1.3, 0.0, 0.25, 2.0):
        reference = expm(t * k) @ x0
        assert _relative(path(t), reference) <= 1e-12
        assert _relative(dpath(t), k @ reference) <= 1e-12
    u = path(1e8)
    assert np.linalg.norm(u.conj().T @ u - np.eye(u.shape[1])) <= ORTHO_ATOL


def test_cli_import_leaves_scipy_out():
    # the runtime needs numpy only: importing the CLI loads none of the test extras
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys, qcrb_kit.cli; "
        "loaded = [m for m in ('scipy', 'mpmath', 'hypothesis', 'pytest') if m in sys.modules]; "
        "assert not loaded, f'imported {loaded}'"
    )
    subprocess.run([sys.executable, "-c", code], check=True, cwd=src)
