"""Tests for the Hermitian linear algebra kernel."""

import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcrb_kit import hermitian
from qcrb_kit.classical import Povm, basis_povm
from qcrb_kit.errors import (
    DimensionError,
    EigenConvergenceError,
    NotDensityMatrix,
    NotHermitianError,
    NotPositiveSemidefinite,
    RankDeficientInconsistent,
)
from qcrb_kit.hermitian import (
    DensityMatrix,
    HermitianMatrix,
    SpectralDecomposition,
    UnitVector,
    _fix_phases,
    eigh,
    hermitian_part,
    layer_norms,
    psd_sqrt,
    real_trace_product,
    real_traces_against,
    solve_symmetric_product,
    trace_product,
)


def random_hermitian(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (g + g.conj().T) / 2


ORACLE_DPS = 50


def mp_eigh(m):
    """Reference eigendecomposition by mpmath's ``eighe`` at 50 digits, the oracle for ``eigh``.

    Eigenvalues come back ascending, with their eigenvector columns; the
    oracle compares projectors, so no phase convention is needed.
    """
    with mpmath.workdps(ORACLE_DPS):
        vals, vecs = mpmath.eighe(mpmath.matrix(((m + m.conj().T) / 2.0).tolist()))
        lam = np.array([float(v) for v in vals])
        u = np.array(vecs.tolist(), dtype=complex)
    order = np.argsort(lam, kind="stable")
    return SpectralDecomposition(lam[order], u[:, order])


# --- construction ------------------------------------------------------------

def test_hermitian_matrix_symmetrizes_and_clears_diagonal_imag():
    m = HermitianMatrix([[1.0, 1 + 1j], [1 - 1j, 2.0]])
    assert np.array_equal(m.mat, m.mat.conj().T)
    assert np.all(np.diag(m.mat).imag == 0.0)


def test_hermitian_matrix_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        HermitianMatrix([[0.0, 1.0], [0.5, 0.0]])


def test_hermitian_matrix_rejects_non_square_and_nan():
    with pytest.raises(DimensionError):
        HermitianMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        HermitianMatrix([[np.nan, 0.0], [0.0, 0.0]])


@pytest.mark.parametrize("bad", [
    complex(np.nan, 0.0), complex(np.inf, 0.0), complex(-np.inf, 0.0),
    complex(0.0, np.nan), complex(0.0, np.inf), complex(0.0, -np.inf),
])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)])
def test_hermitian_matrix_rejects_non_finite_real_and_imaginary_parts(bad, where):
    a = np.eye(2, dtype=complex)
    a[where] = bad  # off the diagonal it is not Hermitian either: finiteness is checked first
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected quietly, with no RuntimeWarning
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            HermitianMatrix(a)


@pytest.mark.parametrize("entries, error, message", [
    ([[0.0, 1.0], [0.5, 0.0]], NotHermitianError,
     "max deviation from conjugate transpose 5.000e-01 > 1e-12"),
    (np.zeros((2, 3)), DimensionError, "expected a square matrix, got shape (2, 3)"),
    (np.zeros(3), DimensionError, "expected a square matrix, got shape (3,)"),
    (np.eye(65), DimensionError, "dimension 65 exceeds ceiling 64"),
    # finite entries whose (A + A*)/2 overflows: the stored matrix would not be finite
    ([[1e308, 0.0], [0.0, 1e308]], ValueError, "matrix entries must be finite"),
])
def test_hermitian_matrix_rejections(entries, error, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as info:
            HermitianMatrix(entries)
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("entries", [
    [[0.0, 1e308], [-1e308, 0.0]],
    [[0.5, 1e308j], [1e308j, 0.5]],
])
@pytest.mark.parametrize("stacked", [False, True], ids=["matrix", "stack"])
def test_an_overflowing_deviation_is_rejected_without_a_warning(entries, stacked):
    # the symmetrized entries are finite, but A - A* overflows to infinity
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotHermitianError) as info:
            if stacked:
                hermitian_part(np.array([np.eye(2), entries], dtype=complex))
            else:
                HermitianMatrix(entries)
    assert str(info.value) == "max deviation from conjugate transpose inf > 1e-12"


def test_the_first_faulty_matrix_of_a_stack_names_the_error():
    eye, skew = np.eye(2), [[0.0, 1.0], [0.5, 0.0]]
    nan = [[np.nan, 0.0], [0.0, 0.0]]
    with pytest.raises(NotHermitianError, match=r"deviation from conjugate transpose 5\.000e-01"):
        hermitian_part(np.array([eye, skew, nan], dtype=complex))
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        hermitian_part(np.array([eye, nan, skew], dtype=complex))
    with pytest.raises(DimensionError, match="^dimension 65 exceeds ceiling 64$"):
        hermitian_part(np.zeros((2, 65, 65), dtype=complex))


@pytest.mark.parametrize("build", [
    lambda: HermitianMatrix(np.zeros((0, 0))),
    lambda: hermitian_part(np.zeros((3, 0, 0), dtype=complex)),
    lambda: Povm([np.zeros((0, 0))]),
    lambda: Povm(np.zeros((3, 0, 0))),
], ids=["matrix", "stack", "povm-list", "povm-stack"])
def test_dimension_zero_is_rejected(build):
    # the one validator both constructors use rejects it, before any eigensolver sees it
    with pytest.raises(DimensionError, match="^dimension 0: a matrix needs at least one row$"):
        build()


def test_a_stack_is_symmetrized_as_its_matrices_are_one_by_one():
    rng = np.random.default_rng(17)
    stack = np.array([random_hermitian(rng, 5) + 1e-13j * rng.normal() for _ in range(4)])
    h = hermitian_part(stack)
    assert not h.flags.writeable
    assert h.tobytes() == np.stack([HermitianMatrix(m).mat for m in stack]).tobytes()


def test_hermitian_matrix_of_a_fortran_ordered_array_clears_its_diagonal_imag():
    a = np.asfortranarray([[1.0 + 1e-13j, 2.0 + 1j], [2.0 - 1j, 3.0 - 1e-13j]])
    m = HermitianMatrix(a)
    assert np.diag(m.mat).imag.tobytes() == np.zeros(2).tobytes()
    assert np.array_equal(m.mat, m.mat.conj().T)


def test_density_matrix_rejects_bad_trace_and_negative_eigenvalue():
    with pytest.raises(NotDensityMatrix):
        DensityMatrix(np.diag([0.6, 0.6]))
    with pytest.raises(NotPositiveSemidefinite):
        DensityMatrix(np.diag([1.2, -0.2]))


def test_unit_vector_norm_gate():
    UnitVector([1.0, 0.0])
    with pytest.raises(ValueError):
        UnitVector([1.0, 0.5])


# --- eigh --------------------------------------------------------------------

def test_eigh_diagonal_is_identity_basis():
    dec = eigh(np.diag([0.3, 0.7]))
    np.testing.assert_allclose(dec.eigenvalues, [0.3, 0.7], atol=1e-15)
    np.testing.assert_allclose(dec.eigenvectors, np.eye(2), atol=1e-15)


def test_eigh_degenerate_identity():
    dec = eigh(np.eye(3))
    np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(dec.reconstruct(), np.eye(3), atol=1e-10)


def test_eigh_exchange_spectrum():
    dec = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-15)


def test_eigh_matches_lapack_eigenvalues():
    rng = np.random.default_rng(42)
    for n in (2, 3, 5, 8):
        m = random_hermitian(rng, n)
        dec = eigh(m)
        np.testing.assert_allclose(dec.eigenvalues, np.linalg.eigvalsh(m), atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
def test_eigh_matches_the_mpmath_reference(n):
    m = random_hermitian(np.random.default_rng(100 + n), n)
    lapack, reference = eigh(m), mp_eigh(m)
    scale = max(1.0, np.linalg.norm(m))
    np.testing.assert_allclose(lapack.eigenvalues, reference.eigenvalues, atol=1e-12 * scale)
    for a, b in zip(lapack.projectors(), reference.projectors()):
        assert np.linalg.norm(a - b) <= 1e-9


def test_eigh_maps_lapack_failure_to_convergence_error(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(EigenConvergenceError):
        eigh(np.eye(2))


def test_eigh_rejects_non_finite_entries():
    with pytest.raises(EigenConvergenceError):
        eigh(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_eigh_phase_fixing_is_deterministic():
    rng = np.random.default_rng(7)
    m = random_hermitian(rng, 4)
    a, b = eigh(m), eigh(m)
    np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)
    for j in range(4):
        col = a.eigenvectors[:, j]
        k = int(np.argmax(np.abs(col)))
        assert col[k].real > 0
        assert abs(col[k].imag) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 64])
def test_eigh_trusts_a_hermitian_matrix_and_matches_the_scanned_path_bitwise(n, monkeypatch):
    m = HermitianMatrix(random_hermitian(np.random.default_rng(300 + n), n))
    raw = np.array(m.mat)
    rho = DensityMatrix(np.eye(n) / n)
    scanned, scanned_rho = eigh(raw), eigh(np.array(rho.mat))

    def no_scan(_):
        raise AssertionError("a HermitianMatrix or DensityMatrix is not symmetrized again")

    monkeypatch.setattr(hermitian, "symmetrized", no_scan)
    for trusted, reference in ((eigh(m), scanned), (eigh(rho), scanned_rho)):
        assert trusted.eigenvalues.tobytes() == reference.eigenvalues.tobytes()
        assert trusted.eigenvectors.tobytes() == reference.eigenvectors.tobytes()


def fix_phases_by_column(vecs):
    """The per-column loop that ``_fix_phases`` replaced, kept as its reference."""
    out = vecs.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        k = int(np.argmax(np.abs(col)))
        pivot = col[k]
        mag = abs(pivot)
        if mag > 0.0:
            out[:, j] = col * (pivot.conjugate() / mag)
    return out


def phase_fixing_cases():
    rng = np.random.default_rng(5)
    # n = 1 enters as LAPACK's [[1]]. For an arbitrary unit 1x1 input the two
    # can differ in the last bit: the loop's one contiguous column goes through
    # numpy's vector multiply kernel, which may fuse the products (FMA).
    for n in (1, 2, 3, 5, 8, 16, 64):
        yield np.linalg.eigh(random_hermitian(rng, n))[1]
    zero = np.linalg.eigh(random_hermitian(rng, 3))[1]
    zero[:, 1] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    yield zero  # a zero column, with signed zeros, is left as it is
    s = 1.0 / np.sqrt(2.0)
    yield np.array([[s, -1j * s, 0.6], [-s, s, -0.8j], [0.0, 0.0, 0.0]], dtype=complex)  # ties
    # subnormal pivots, whose magnitude hypot must take as the scalar abs does; each is
    # above 1 / DBL_MAX, so that its phase factor stays finite
    yield np.array([[6e-309 + 8e-309j, 0.6, 1.5e-308j], [1e-309j, -0.8j, -1e-308], [0.0, 0.0, 0.0]])


def test_fix_phases_matches_the_column_loop_bitwise():
    for vecs in phase_fixing_cases():
        assert _fix_phases(vecs).tobytes() == fix_phases_by_column(vecs).tobytes()


def test_fix_phases_matches_the_column_loop_bitwise_on_random_eigenbases():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        vecs = np.linalg.eigh(random_hermitian(rng, int(rng.integers(1, 17))))[1]
        assert _fix_phases(vecs).tobytes() == fix_phases_by_column(vecs).tobytes()


def test_fix_phases_breaks_exact_ties_at_the_lowest_index():
    s = 1.0 / np.sqrt(2.0)
    out = _fix_phases(np.array([[-1j * s], [s]]))
    assert out[0, 0] == complex(s, 0.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=8))
def test_eigh_reconstruction_property(seed, n):
    m = random_hermitian(np.random.default_rng(seed), n)
    dec = eigh(m)
    scale = max(1.0, np.linalg.norm(m))
    assert np.linalg.norm(dec.reconstruct() - m) <= 1e-10 * scale
    assert np.linalg.norm(dec.eigenvectors.conj().T @ dec.eigenvectors - np.eye(n)) <= 1e-10


def test_projectors_and_reconstruction_of_a_stack_are_those_of_its_layers():
    rng = np.random.default_rng(7)
    stack = np.array([random_hermitian(rng, 3) for _ in range(2)])
    dec = eigh(HermitianMatrix.of_checked(hermitian_part(stack)))
    layers = [SpectralDecomposition(dec.eigenvalues[k], dec.eigenvectors[k]) for k in range(2)]
    projs = dec.projectors()
    assert len(projs) == 3 and all(p.shape == (2, 3, 3) for p in projs)
    for k, layer in enumerate(layers):
        assert [p[k].tobytes() for p in projs] == [p.tobytes() for p in layer.projectors()]
        assert dec.reconstruct()[k].tobytes() == layer.reconstruct().tobytes()
        # one matrix: the outer products and the product of its factors as before
        u, lam = layer.eigenvectors, layer.eigenvalues
        assert [p.tobytes() for p in layer.projectors()] == [
            np.outer(u[:, j], u[:, j].conj()).tobytes() for j in range(3)
        ]
        assert layer.reconstruct().tobytes() == ((u * lam) @ u.conj().T).tobytes()
        np.testing.assert_allclose(layer.reconstruct(), stack[k], atol=1e-12)
    # the other callers of the one projector formula: a unit vector's, and the basis POVM's
    for j in range(3):
        v = dec.eigenvectors[0][:, j]
        assert UnitVector(v).projector().tobytes() == np.outer(v, v.conj()).tobytes()
    for n in (1, 2, 5):
        eye = np.eye(n)
        reference = np.array([np.outer(eye[j], eye[j]) for j in range(n)], dtype=complex)
        assert basis_povm(n).stack.tobytes() == reference.tobytes()


def test_a_density_matrix_is_a_hermitian_matrix_with_the_same_kernel_bits():
    n = 4
    rng = np.random.default_rng(21)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = DensityMatrix(g @ g.conj().T / np.trace(g @ g.conj().T).real)
    plain = HermitianMatrix.of_checked(rho.mat)
    assert isinstance(rho, HermitianMatrix)
    assert not hasattr(rho, "matrix")
    assert hermitian.as_array(rho) is rho.mat
    for a, b in ((eigh(rho), eigh(plain)), (rho.decomposition, eigh(plain))):
        assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
        assert a.eigenvectors.tobytes() == b.eigenvectors.tobytes()
    assert trace_product([rho, rho]) == trace_product([plain, plain])
    assert repr(rho) == f"DensityMatrix(dim={n})"
    assert repr(plain) == f"HermitianMatrix(dim={n})"


@pytest.mark.parametrize("kind", [HermitianMatrix, DensityMatrix])
def test_a_hermitian_matrix_of_a_wrapped_matrix_is_its_matrix_bitwise(kind):
    # HermitianMatrix unwraps a HermitianMatrix or DensityMatrix argument
    # with as_array, as DensityMatrix does, and (A + A*)/2 of it is itself
    rng = np.random.default_rng(8)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    wrapped = kind(g @ g.conj().T / np.trace(g @ g.conj().T).real)
    for build in (HermitianMatrix, DensityMatrix):
        rebuilt = build(wrapped)
        assert type(rebuilt) is build
        assert rebuilt.mat.tobytes() == wrapped.mat.tobytes()


# --- psd_sqrt ----------------------------------------------------------------

def test_psd_sqrt_scalar_matrix():
    root = psd_sqrt(DensityMatrix(np.eye(2) / 2))
    np.testing.assert_allclose(root.mat, np.eye(2) / np.sqrt(2), atol=1e-12)


def test_psd_sqrt_orthogonal_mixture_closed_form():
    # root of w P1 + (1-w) P2 with orthogonal pure projectors is
    # sqrt(w) P1 + sqrt(1-w) P2
    theta, w = 0.4, 0.85
    v1 = np.array([np.cos(theta), np.sin(theta)])
    v2 = np.array([-np.sin(theta), np.cos(theta)])
    p1, p2 = np.outer(v1, v1), np.outer(v2, v2)
    root = psd_sqrt(DensityMatrix(w * p1 + (1 - w) * p2))
    np.testing.assert_allclose(root.mat, np.sqrt(w) * p1 + np.sqrt(1 - w) * p2, atol=1e-10)


def test_psd_sqrt_pure_projector_is_idempotent():
    v = np.array([np.cos(0.3), 1j * np.sin(0.3)])
    p = np.outer(v, v.conj())
    root = psd_sqrt(DensityMatrix(p))
    np.testing.assert_allclose(root.mat, p, atol=1e-10)


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPositiveSemidefinite):
        psd_sqrt(HermitianMatrix(np.diag([1.0, -1e-6])))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=6))
def test_psd_sqrt_composition_property(seed, n):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    d = g @ g.conj().T
    d = d / np.trace(d).real
    root = psd_sqrt(DensityMatrix(d))
    assert np.linalg.norm(root.mat @ root.mat - d) <= 1e-9


# --- solve_symmetric_product ---------------------------------------------------

def test_solve_identity_weight():
    rhs = np.array([[1.0, 2.0], [2.0, -1.0]])
    x = solve_symmetric_product(eigh(np.eye(2)), rhs)
    np.testing.assert_allclose(x.mat, rhs, atol=1e-12)


def test_solve_rank_one_support():
    # (1/2)(a X + X a) = diag(c, 0) with a = diag(1, 0) forces X = diag(c, 0)
    c = 0.37
    x = solve_symmetric_product(eigh(np.diag([1.0, 0.0])), np.diag([c, 0.0]))
    np.testing.assert_allclose(x.mat, np.diag([c, 0.0]), atol=1e-12)
    resid = 0.5 * (np.diag([1.0, 0.0]) @ x.mat + x.mat @ np.diag([1.0, 0.0]))
    np.testing.assert_allclose(resid, np.diag([c, 0.0]), atol=1e-12)


def test_solve_rejects_off_support_rhs():
    with pytest.raises(RankDeficientInconsistent):
        solve_symmetric_product(eigh(np.diag([1.0, 0.0])), np.array([[0.0, 0.0], [0.0, 0.5]]))


def solve_by_mask(dec, rhs):
    """The masked scatter that a full-rank ``solve_symmetric_product`` skips, kept as its reference."""
    lam, u = dec.eigenvalues, dec.eigenvectors
    r_tilde = u.conj().T @ rhs @ u
    denom = lam[:, None] + lam[None, :]
    keep = denom > hermitian.SUPPORT_TOL
    x_tilde = np.zeros_like(r_tilde)
    x_tilde[keep] = 2.0 * r_tilde[keep] / denom[keep]
    x = u @ x_tilde @ u.conj().T
    return HermitianMatrix((x + x.conj().T) / 2.0).mat


def test_solve_matches_the_masked_scatter_bitwise():
    rng = np.random.default_rng(23)
    for case in range(600):
        n = int(rng.integers(1, 9))
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if case % 3 == 0:
            g[:, : (n + 1) // 2] = 0.0  # rank-deficient: some pairs are dropped
        a = g @ g.conj().T
        h = random_hermitian(rng, n)
        rhs = a @ h + h @ a  # supported on the range of a
        dec = eigh(a)
        assert solve_symmetric_product(dec, rhs).mat.tobytes() == solve_by_mask(dec, rhs).tobytes()


def test_solve_matches_projector_sum_oracle():
    # independent oracle: X = sum_{l,k} 2/(lam_l+lam_k) P_l rhs P_k
    rng = np.random.default_rng(3)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = g @ g.conj().T
    rho = rho / np.trace(rho).real
    rhs = random_hermitian(rng, 2)
    rhs = rhs - np.trace(rhs) / 2 * np.eye(2)
    x = solve_symmetric_product(eigh(rho), rhs)
    dec = eigh(rho)
    lam, projs = dec.eigenvalues, dec.projectors()
    oracle = sum(
        2.0 / (lam[l] + lam[k]) * projs[l] @ rhs @ projs[k]
        for l in range(2)
        for k in range(2)
        if lam[l] + lam[k] > 1e-12
    )
    np.testing.assert_allclose(x.mat, oracle, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=6))
@example(seed=2573, n=2)  # ill-conditioned a: back transform drifts from Hermitian
@example(seed=335, n=3)
def test_solve_involution_property(seed, n):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = g @ g.conj().T
    rhs = random_hermitian(rng, n)
    x = solve_symmetric_product(eigh(a), rhs)
    assert np.linalg.norm(0.5 * (a @ x.mat + x.mat @ a) - rhs) <= 1e-9 * max(1.0, np.linalg.norm(rhs))


# --- trace_product -------------------------------------------------------------

def test_trace_product_identity():
    assert trace_product([np.eye(2)]) == pytest.approx(2.0)


def test_trace_product_orthogonal_projectors():
    assert trace_product([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]) == pytest.approx(0.0)


def test_trace_product_pure_state_against_its_derivative():
    # tr{P dP} = 0 for a projector path
    theta = 0.7
    v = np.array([np.cos(theta), np.sin(theta)])
    p = np.outer(v, v)
    dp = np.array(
        [[-np.sin(2 * theta), np.cos(2 * theta)], [np.cos(2 * theta), np.sin(2 * theta)]]
    )
    assert abs(trace_product([p, dp])) <= 1e-12


def test_trace_product_dim_mismatch():
    with pytest.raises(DimensionError):
        trace_product([np.eye(2), np.eye(3)])


def test_real_trace_product_rejects_large_imaginary_part():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])  # not Hermitian: trace of product complex
    with pytest.raises(ValueError):
        real_trace_product([m, np.array([[0.0, 0.0], [1j, 0.0]])])


@pytest.mark.parametrize("n, k", [(1, 1), (2, 3), (4, 6), (16, 2), (64, 3)])
def test_real_traces_against_a_stack_match_the_per_matrix_traces_bitwise(n, k):
    rng = np.random.default_rng(40 + n)
    a = HermitianMatrix(random_hermitian(rng, n))
    stack = np.stack([HermitianMatrix(random_hermitian(rng, n)).mat for _ in range(k)])
    reference = np.array([real_trace_product([a, s]) for s in stack])
    assert real_traces_against(a, stack).tobytes() == reference.tobytes()


def test_real_traces_against_a_stack_gate_the_first_imaginary_residue():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])  # not Hermitian: its traces are complex
    stack = np.stack([np.eye(2), np.array([[0.0, 0.0], [0.5j, 0.0]]), np.array([[0.0, 0.0], [2j, 0.0]])])
    with pytest.raises(ValueError, match=r"^trace has imaginary residue 5\.000e-01 > 1e-10$"):
        real_traces_against(a, stack)
    with pytest.raises(DimensionError):
        real_traces_against(np.eye(3), stack)


def test_eigenvector_phase_invariance_downstream():
    # projector-based formulas must not care about eigenvector phases
    rng = np.random.default_rng(11)
    rho = np.diag([0.6, 0.3, 0.1]).astype(complex)
    u = eigh(random_hermitian(rng, 3)).eigenvectors
    rho = u @ rho @ u.conj().T
    dec = eigh(rho)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=3))
    twisted = dec.eigenvectors * phases
    base = sum(np.outer(dec.eigenvectors[:, j], dec.eigenvectors[:, j].conj()) for j in range(3))
    alt = sum(np.outer(twisted[:, j], twisted[:, j].conj()) for j in range(3))
    assert np.linalg.norm(base - alt) <= 1e-12


# views of a (T, ...) array whose layers are laid out in other orders in memory
LAYOUTS = {
    "contiguous": lambda z: z,
    "sliced": lambda z: z[::2, ::2],
    "transposed": lambda z: np.swapaxes(z, -1, -2) if z.ndim == 3 else z.T,
    "reversed": lambda z: z[::-1, ..., ::-1],
    "fortran": np.asfortranarray,
}


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 64),
    t=st.integers(1, 4),
    vectors=st.booleans(),
    dtype=st.sampled_from([float, complex]),
    log_scale=st.floats(-200.0, 200.0),
    special=st.sampled_from([None, np.inf, -np.inf, np.nan]),
    layout=st.sampled_from(sorted(LAYOUTS)),
)
@example(seed=0, n=1, t=1, vectors=True, dtype=complex, log_scale=0.0, special=None, layout="contiguous")
@example(seed=1, n=64, t=3, vectors=False, dtype=complex, log_scale=200.0, special=None, layout="transposed")
@example(seed=2, n=8, t=2, vectors=False, dtype=complex, log_scale=-200.0, special=np.nan, layout="sliced")
def test_layer_norms_have_the_bits_of_the_norm_of_each_layer(seed, n, t, vectors, dtype, log_scale, special, layout):
    # the kernel contract: np.vecdot over the strided real and imaginary views runs the
    # dot kernel of np.linalg.norm, so a numpy where the two part ways fails here
    rng = np.random.default_rng(seed)
    shape = (t, n) if vectors else (t, n, n)
    z = rng.normal(size=shape).astype(dtype)
    if dtype is complex:
        z += 1j * rng.normal(size=shape)
    z *= 10.0**log_scale
    if special is not None:
        z.flat[rng.integers(z.size)] = special
    stack = LAYOUTS[layout](z)
    with np.errstate(over="ignore", under="ignore"):  # both sides overflow alike at 1e200
        norms = layer_norms(stack)
        reference = np.array([np.linalg.norm(layer) for layer in stack])
    assert norms.shape == (len(stack),)
    assert norms.tobytes() == reference.tobytes()
