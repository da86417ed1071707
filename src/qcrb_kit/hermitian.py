"""Dense complex-Hermitian linear algebra kernel.

LAPACK eigendecomposition, PSD matrix square root, eigenbasis solves of
the symmetrized-product equation, and trace algebra. All operations are pure
functions of immutable inputs; matrices are small and dense (target scale
n <= 16, hard ceiling 64).

Invariants are validated once, at construction, and the kernels trust the
type: a ``HermitianMatrix`` is square, within the dimension ceiling, finite
and exactly Hermitian, so ``eigh`` hands it to LAPACK as it is. A
``DensityMatrix`` is a ``HermitianMatrix`` that also carries its spectral
decomposition. A raw array has none of these guarantees and is
symmetrized and scanned on every call.

The matrix formulas that the models, the routes and the checks share are
written here once each: the projector |v><v| (``projectors``), the
unchecked Hermitian part (D + D*)/2 (``symmetrized``), the
reconstruction U diag(x) U* (``SpectralDecomposition.reconstruct``) and
the magnitude of a complex entry (``magnitudes``).

The kernels take a (T, n, n) stack as readily as one matrix: ``eigh``,
``solve_symmetric_product`` and the trace helpers work layer by layer in
one numpy call each, with the same bits as T separate calls, and a
stacked ``HermitianMatrix`` or ``SpectralDecomposition`` keeps ``dim == n``.
Where a stack fails a check, its first failing layer names the error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable

import numpy as np

from .errors import (
    DimensionError,
    EigenConvergenceError,
    NotDensityMatrix,
    NotHermitianError,
    NotPositiveSemidefinite,
    RankDeficientInconsistent,
)

HERMITICITY_ATOL = 1e-12
DENSITY_TRACE_ATOL = 1e-10
DENSITY_EIG_FLOOR = -1e-10
SQRT_EIG_FLOOR = -1e-8
SUPPORT_TOL = 1e-12
DROPPED_RHS_ATOL = 1e-6
UNIT_NORM_ATOL = 1e-12
TRACE_IMAG_ATOL = 1e-10  # largest imaginary residue a trace that must be real may carry
DIM_CEILING = 64


def as_array(m) -> np.ndarray:
    """Unwrap a HermitianMatrix (a DensityMatrix too) or an array-like to a complex ndarray."""
    if isinstance(m, HermitianMatrix):
        return m.mat
    return np.asarray(m, dtype=complex)


def symmetrized(d: np.ndarray) -> np.ndarray:
    """(D + D*)/2 of a matrix, or of each matrix of a stack, unchecked."""
    return (d + d.conj().swapaxes(-1, -2)) / 2.0


def projectors(v: np.ndarray) -> np.ndarray:
    """|v><v| of a vector, or of each vector of a stack of them."""
    return v[..., :, None] * v.conj()[..., None, :]


def _check_square(a: np.ndarray) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")


def first_failing(bad: np.ndarray):
    """The index of the first True entry of ``bad`` in C order, or None."""
    i = int(bad.argmax())
    return i if bad.flat[i] else None


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A*)/2 of a square matrix, or of each matrix of a (k, n, n) stack, validated.

    Each matrix must be of dimension 1 to ``DIM_CEILING``, finite (also once
    symmetrized) and within ``HERMITICITY_ATOL`` of its conjugate transpose
    entrywise; the first matrix of a stack that is not names the error, and
    of the two checks finiteness comes first. The result is read-only and
    its diagonal is exactly real: the imaginary part of a + conj(a) is
    y + (-y), which is +0.
    """
    n = a.shape[-1]
    if n == 0:
        raise DimensionError("dimension 0: a matrix needs at least one row")
    if n > DIM_CEILING:
        raise DimensionError(f"dimension {n} exceeds ceiling {DIM_CEILING}")
    a_h = a.conj().swapaxes(-1, -2)
    # a non-finite entry of a makes its entry of h non-finite, and so does a
    # sum that overflows: one scan of h rejects both. The deviation may
    # overflow too, and an infinite one is rejected. Both stay quiet.
    with np.errstate(invalid="ignore", over="ignore"):
        h = (a + a_h) / 2.0
        dev = np.abs(a - a_h)
    if not (np.isfinite(h).all() and dev.max(initial=0.0) <= HERMITICITY_ATOL):
        finite = np.isfinite(h).all(axis=(-2, -1)).reshape(-1)
        worst = dev.max(axis=(-2, -1), initial=0.0).reshape(-1)
        i = first_failing(~finite | (worst > HERMITICITY_ATOL))
        if not finite[i]:
            raise ValueError("matrix entries must be finite")
        raise NotHermitianError(
            f"max deviation from conjugate transpose {worst[i]:.3e} > {HERMITICITY_ATOL}"
        )
    h.setflags(write=False)
    return h


def square_stack(mats) -> np.ndarray:
    """The matrices as one complex (T, n, n) array; the first that is not square names the error."""
    arrays = [np.asarray(m, dtype=complex) for m in mats]
    for a in arrays:
        _check_square(a)
    return np.array(arrays)


class HermitianMatrix:
    """Dense complex Hermitian matrix, symmetrized exactly on construction.

    Rejects input that is not square, or that ``hermitian_part`` rejects;
    the stored matrix is (A + A*)/2 with an exactly real diagonal, and is
    read-only. A ``HermitianMatrix`` argument gives its own matrix, bit for bit.
    """

    __slots__ = ("mat",)

    def __init__(self, entries):
        a = as_array(entries)
        _check_square(a)
        self.mat = hermitian_part(a)

    @classmethod
    def of_checked(cls, mat: np.ndarray) -> "HermitianMatrix":
        """Wrap a read-only matrix that ``hermitian_part`` returned, or one layer of it."""
        m = cls.__new__(cls)
        m.mat = mat
        return m

    @property
    def dim(self) -> int:
        return self.mat.shape[-1]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"


class UnitVector:
    """Complex vector with Euclidean norm 1 within ``UNIT_NORM_ATOL``."""

    __slots__ = ("vec",)

    def __init__(self, entries):
        v = np.asarray(entries, dtype=complex).reshape(-1)
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > UNIT_NORM_ATOL:
            raise ValueError(f"vector norm {norm!r} is not 1 within {UNIT_NORM_ATOL}")
        v.setflags(write=False)
        self.vec = v

    @property
    def dim(self) -> int:
        return self.vec.shape[0]

    def projector(self) -> np.ndarray:
        return projectors(self.vec)

    def __repr__(self) -> str:
        return f"UnitVector(dim={self.dim})"


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues and orthonormal eigenvector columns, of one matrix or of each matrix of a
    stack (``eigenvalues`` (T, n), ``eigenvectors`` (T, n, n)); ``eigh`` gives them ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[-1]

    def projectors(self) -> list[np.ndarray]:
        """P_j = u_j u_j^dagger of each eigenvector column j, (n, n) or (T, n, n) each."""
        return list(np.moveaxis(projectors(self.eigenvectors.swapaxes(-1, -2)), -3, 0))

    def reconstruct(self) -> np.ndarray:
        """U diag(lambda) U^dagger, of the matrix or of each layer."""
        u = self.eigenvectors
        return (u * self.eigenvalues[..., None, :]) @ u.conj().swapaxes(-1, -2)


def density_stack(a: np.ndarray) -> tuple[np.ndarray, SpectralDecomposition]:
    """Validate a (T, n, n) stack of density matrices; return it symmetrized and its eigh.

    Each layer passes ``hermitian_part``, has unit trace within
    ``DENSITY_TRACE_ATOL`` and no eigenvalue below ``DENSITY_EIG_FLOOR``;
    each check runs on the whole stack, and the first failing layer names
    the error.
    """
    h = hermitian_part(a)
    tr = np.trace(h, axis1=-2, axis2=-1).real
    i = first_failing(np.abs(tr - 1.0) > DENSITY_TRACE_ATOL)
    if i is not None:
        raise NotDensityMatrix(f"trace {tr[i]!r} is not 1 within {DENSITY_TRACE_ATOL}")
    dec = eigh(HermitianMatrix.of_checked(h))
    lam_min = dec.eigenvalues[:, 0]
    i = first_failing(lam_min < DENSITY_EIG_FLOOR)
    if i is not None:
        raise NotPositiveSemidefinite(
            f"eigenvalue {float(lam_min[i]):.3e} below floor {DENSITY_EIG_FLOOR}"
        )
    return h, dec


class DensityMatrix(HermitianMatrix):
    """Hermitian, PSD, unit-trace matrix, with its spectral decomposition.

    Eigenvalues in [DENSITY_EIG_FLOOR, 0] are tolerated (finite-difference noise) and
    treated as 0 by consumers; anything lower is rejected. Built by
    ``density_stack`` on a stack of one, or, by ``of_checked``, as a layer
    of a stack that ``density_stack`` validated.
    """

    __slots__ = ("decomposition",)

    def __init__(self, entries):
        h, dec = density_stack(square_stack([as_array(entries)]))
        self.mat = h[0]
        self.decomposition = SpectralDecomposition(dec.eigenvalues[0], dec.eigenvectors[0])

    @classmethod
    def of_checked(cls, mat: np.ndarray, decomp: SpectralDecomposition) -> "DensityMatrix":
        """Wrap one layer of a ``density_stack`` result and its eigendecomposition."""
        d = super().of_checked(mat)
        d.decomposition = decomp
        return d

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.decomposition.eigenvalues


def magnitudes(z: np.ndarray) -> np.ndarray:
    """|z| of each entry of a complex array by libm's hypot, with the bits of the scalar
    ``abs``: np.abs of a complex array can differ from it in the last bit."""
    return np.hypot(z.real, z.imag)


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Rotate each column (of each matrix of a stack) so its largest-magnitude entry is real positive.

    np.argmax breaks exact-magnitude ties at the lowest index; a zero
    column is left as it is. The pivot magnitudes are taken by ``magnitudes``.
    """
    n = vecs.shape[-1]
    stack = vecs.reshape(-1, n, n)
    rows = np.argmax(np.abs(stack), axis=1)
    pivots = stack[np.arange(stack.shape[0])[:, None], rows, np.arange(n)]
    mags = magnitudes(pivots)
    live = mags > 0.0
    factors = np.divide(pivots.conj(), mags, out=np.ones(pivots.shape, dtype=complex), where=live)
    fixed = np.multiply(stack, factors[:, None, :], out=stack.copy(), where=live[:, None, :])
    return fixed.reshape(vecs.shape)


def eigh(m) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix, or of each of a stack, by LAPACK (``np.linalg.eigh``).

    Eigenvalues come back ascending; eigenvector phases are fixed
    deterministically (largest-magnitude component real positive). A LAPACK
    convergence failure, or a non-finite entry (on which LAPACK would return
    NaN silently), raises EigenConvergenceError.

    A ``HermitianMatrix`` (a ``DensityMatrix`` too) goes to LAPACK as it
    is: its (A + A*)/2 is itself, bit for bit, and it was checked finite
    when built; a stacked one gives stacked eigenvalues and eigenvectors.
    Any other input must be one square matrix, and is symmetrized and
    scanned.
    """
    if isinstance(m, HermitianMatrix):
        a = m.mat
    else:
        a = np.asarray(m, dtype=complex)
        _check_square(a)
        a = symmetrized(a)
        if not np.isfinite(a).all():
            raise EigenConvergenceError(f"matrix of dim {a.shape[-1]} has non-finite entries")
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"LAPACK eigh failed: dim={a.shape[-1]}: {exc}") from exc
    vecs = _fix_phases(vecs)
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return SpectralDecomposition(eigenvalues=vals, eigenvectors=vecs)


def sqrt_eigenvalues(eigenvalues: np.ndarray) -> np.ndarray:
    """Square roots of PSD eigenvalues with the support convention applied.

    Eigenvalues at or below SUPPORT_TOL are treated as exactly 0: taking
    sqrt of rounding noise (~1e-16) would otherwise inject ~1e-8 spurious
    components into the root of a rank-deficient matrix.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    return np.where(lam > SUPPORT_TOL, np.sqrt(np.clip(lam, 0.0, None)), 0.0)


def psd_sqrt(d) -> HermitianMatrix:
    """Unique PSD square root of a PSD Hermitian matrix: ``sqrt_stack`` of its decomposition."""
    dec = d.decomposition if isinstance(d, DensityMatrix) else eigh(d)
    return HermitianMatrix.of_checked(sqrt_stack(dec))


def sqrt_stack(dec: SpectralDecomposition) -> np.ndarray:
    """The PSD square root U diag(sqrt_eigenvalues) U* of a decomposition, or of each
    layer of a stacked one, validated by ``hermitian_part``.

    Eigenvalues in [SQRT_EIG_FLOOR, SUPPORT_TOL] are flattened to 0
    (tolerated noise / support convention); an eigenvalue below
    ``SQRT_EIG_FLOOR`` raises NotPositiveSemidefinite, the first failing
    layer naming the error.
    """
    lam_min = dec.eigenvalues[..., 0]
    i = first_failing(lam_min < SQRT_EIG_FLOOR)
    if i is not None:
        raise NotPositiveSemidefinite(
            f"eigenvalue {float(lam_min.flat[i]):.3e} below floor {SQRT_EIG_FLOOR}"
        )
    roots = SpectralDecomposition(sqrt_eigenvalues(dec.eigenvalues), dec.eigenvectors)
    return hermitian_part(roots.reconstruct())


def solve_symmetric_product(dec: SpectralDecomposition, rhs) -> HermitianMatrix:
    """Solve (1/2)(a X + X a) = rhs for Hermitian X, a PSD with eigendecomposition dec.

    In a's eigenbasis X_ij = 2 r_ij / (lam_i + lam_j); pairs with
    lam_i + lam_j <= SUPPORT_TOL are zeroed (support convention). A zeroed pair
    whose transformed right-hand side exceeds DROPPED_RHS_ATOL means rhs
    is not supported on the range of a and raises RankDeficientInconsistent.
    a itself is never read: its eigenvalues and eigenvectors are the operand.
    A stacked dec and rhs solve every layer at once, each layer by the rule
    above; the first inconsistent layer names the error.
    """
    r_mat = as_array(rhs)
    u = dec.eigenvectors
    if r_mat.shape != u.shape:
        raise DimensionError(f"shape mismatch: {u.shape} vs {r_mat.shape}")
    lam = dec.eigenvalues
    u_h = u.conj().swapaxes(-1, -2)
    r_tilde = u_h @ r_mat @ u
    denom = lam[..., :, None] + lam[..., None, :]
    keep = denom > SUPPORT_TOL
    if keep.all():
        x_tilde = 2.0 * r_tilde / denom
    else:
        worst = np.max(np.abs(r_tilde), axis=(-2, -1), where=~keep, initial=0.0)
        i = first_failing(worst > DROPPED_RHS_ATOL)
        if i is not None:
            raise RankDeficientInconsistent(
                f"right-hand side has weight {float(worst.reshape(-1)[i]):.3e} outside the "
                f"support (tol={SUPPORT_TOL})"
            )
        x_tilde = np.divide(2.0 * r_tilde, denom, out=np.zeros_like(r_tilde), where=keep)
    x = u @ x_tilde @ u_h
    # X is Hermitian by construction, but an ill-conditioned a amplifies the
    # rounding asymmetry of the back transform past the construction gate:
    # 3.8e-12 and 2.0e-12 at the two @example points of
    # test_solve_involution_property, against HERMITICITY_ATOL = 1e-12
    return HermitianMatrix.of_checked(hermitian_part(symmetrized(x)))


def trace_product(ms: Iterable):
    """Trace of the ordered product of the given matrices: a complex, or one per layer of a stack."""
    arrays = [as_array(m) for m in ms]
    if not arrays:
        raise DimensionError("trace_product needs at least one matrix")
    for left, right in zip(arrays, arrays[1:]):
        if left.shape[-1] != right.shape[-2]:
            raise DimensionError(f"shape mismatch: {left.shape} @ {right.shape}")
    if arrays[0].shape[-2] != arrays[-1].shape[-1]:
        raise DimensionError("product is not square; trace undefined")
    value = np.trace(reduce(np.matmul, arrays), axis1=-2, axis2=-1)
    return complex(value) if value.ndim == 0 else value


def _real_traces(values):
    """The real part of a trace, or of an array of traces, that must be real; the first
    imaginary residue above ``TRACE_IMAG_ATOL`` raises."""
    if isinstance(values, complex):
        residue = values.imag if abs(values.imag) > TRACE_IMAG_ATOL else None
    else:
        i = first_failing(np.abs(values.imag) > TRACE_IMAG_ATOL)
        residue = None if i is None else float(values.imag.flat[i])
    if residue is not None:
        raise ValueError(f"trace has imaginary residue {residue:.3e} > {TRACE_IMAG_ATOL}")
    return values.real


def real_trace_product(ms: Iterable):
    """Trace of a product that must be real (per layer of a stack); a residue above
    ``TRACE_IMAG_ATOL`` raises."""
    return _real_traces(trace_product(ms))


def real_traces_against(a, stack: np.ndarray) -> np.ndarray:
    """tr(a @ s) for every matrix s of a (k, n, n) stack, by one batched product.

    ``a`` is one matrix, giving k traces, or a (T, n, n) stack, giving
    (T, k). Each trace must be real: the first whose imaginary residue
    exceeds ``TRACE_IMAG_ATOL`` raises ValueError, as ``real_trace_product``
    does.
    """
    a = as_array(a)
    if a.shape[-2:] != stack.shape[1:]:
        raise DimensionError(f"shape mismatch: {a.shape[-2:]} @ {stack.shape[1:]}")
    return _real_traces(np.trace(a[..., None, :, :] @ stack, axis1=-2, axis2=-1))
