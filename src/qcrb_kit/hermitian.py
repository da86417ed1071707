"""Dense complex-Hermitian linear algebra kernel.

LAPACK eigendecomposition, PSD matrix square root, eigenbasis solves of
the symmetrized-product equation, and trace algebra. All operations are pure
functions of immutable inputs; matrices are small and dense (target scale
n <= 16, hard ceiling 64).

Invariants are validated once, at construction, and the kernels trust the
type: a ``HermitianMatrix`` (or ``DensityMatrix``) is square, within the
dimension ceiling, finite and exactly Hermitian, so ``eigh`` hands it to
LAPACK as it is. A raw array has none of these guarantees and is
symmetrized and scanned on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

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
    """Unwrap HermitianMatrix / DensityMatrix / array-likes to a complex ndarray."""
    if isinstance(m, DensityMatrix):
        return m.matrix.mat
    if isinstance(m, HermitianMatrix):
        return m.mat
    return np.asarray(m, dtype=complex)


class HermitianMatrix:
    """Dense complex Hermitian matrix, symmetrized exactly on construction.

    Rejects input that is not square, exceeds ``DIM_CEILING``, is not finite
    (or overflows when symmetrized), or deviates from its conjugate
    transpose by more than ``HERMITICITY_ATOL`` entrywise; the stored matrix
    is (A + A*)/2 with an exactly real diagonal, and is read-only.
    """

    __slots__ = ("mat",)

    def __init__(self, entries):
        a = np.asarray(entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {a.shape}")
        n = a.shape[0]
        if n > DIM_CEILING:
            raise DimensionError(f"dimension {n} exceeds ceiling {DIM_CEILING}")
        a_h = a.conj().T
        # a non-finite entry of a makes its entry of h non-finite, and so
        # does a sum that overflows: one scan of h rejects both, quietly
        with np.errstate(invalid="ignore", over="ignore"):
            h = (a + a_h) / 2.0
        if not np.isfinite(h).all():
            raise ValueError("matrix entries must be finite")
        dev = np.abs(a - a_h).max() if a.size else 0.0
        if dev > HERMITICITY_ATOL:
            raise NotHermitianError(
                f"max deviation from conjugate transpose {dev:.3e} > {HERMITICITY_ATOL}"
            )
        h.imag.flat[:: n + 1] = 0.0
        h.setflags(write=False)
        self.mat = h

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __repr__(self) -> str:
        return f"HermitianMatrix(dim={self.dim})"


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
        return np.outer(self.vec, self.vec.conj())

    def __repr__(self) -> str:
        return f"UnitVector(dim={self.dim})"


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def projectors(self) -> list[np.ndarray]:
        u = self.eigenvectors
        return [np.outer(u[:, j], u[:, j].conj()) for j in range(self.dim)]

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.conj().T


class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix; caches its spectral decomposition.

    Eigenvalues in [-1e-10, 0] are tolerated (finite-difference noise) and
    treated as 0 by consumers; anything lower is rejected.
    """

    __slots__ = ("matrix", "_decomp")

    def __init__(self, entries):
        m = entries if isinstance(entries, HermitianMatrix) else HermitianMatrix(entries)
        tr = np.trace(m.mat).real
        if abs(tr - 1.0) > DENSITY_TRACE_ATOL:
            raise NotDensityMatrix(f"trace {tr!r} is not 1 within {DENSITY_TRACE_ATOL}")
        decomp = eigh(m)
        lam_min = float(decomp.eigenvalues[0])
        if lam_min < DENSITY_EIG_FLOOR:
            raise NotPositiveSemidefinite(
                f"eigenvalue {lam_min:.3e} below floor {DENSITY_EIG_FLOOR}"
            )
        self.matrix = m
        self._decomp = decomp

    @property
    def mat(self) -> np.ndarray:
        return self.matrix.mat

    @property
    def dim(self) -> int:
        return self.matrix.dim

    @property
    def decomposition(self) -> SpectralDecomposition:
        return self._decomp

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._decomp.eigenvalues

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive.

    np.argmax breaks exact-magnitude ties at the lowest index; a zero
    column is left as it is. Each column's factor is formed on scalars:
    np.abs of the pivot array can differ from the scalar abs in the last bit.
    """
    n = vecs.shape[1]
    pivots = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(n)]
    factors = np.ones(n, dtype=complex)
    live = np.zeros(n, dtype=bool)
    for j, pivot in enumerate(pivots):
        mag = abs(pivot)
        if mag > 0.0:
            factors[j] = pivot.conjugate() / mag
            live[j] = True
    return np.multiply(vecs, factors, out=vecs.copy(), where=live)


def _symmetrized_square(m) -> np.ndarray:
    a = as_array(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return (a + a.conj().T) / 2.0


def eigh(m) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix by LAPACK (``np.linalg.eigh``).

    Eigenvalues come back ascending; eigenvector phases are fixed
    deterministically (largest-magnitude component real positive). A LAPACK
    convergence failure, or a non-finite entry (on which LAPACK would return
    NaN silently), raises EigenConvergenceError.

    A ``HermitianMatrix`` or ``DensityMatrix`` goes to LAPACK as it is: its
    (A + A*)/2 is itself, bit for bit, and it was checked finite when built.
    Any other input is symmetrized and scanned.
    """
    if isinstance(m, (HermitianMatrix, DensityMatrix)):
        a = as_array(m)
    else:
        a = _symmetrized_square(m)
        if not np.isfinite(a).all():
            raise EigenConvergenceError(f"matrix of dim {a.shape[0]} has non-finite entries")
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"LAPACK eigh failed: dim={a.shape[0]}: {exc}") from exc
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
    """Unique PSD square root of a PSD Hermitian matrix.

    Eigenvalues in [-1e-8, SUPPORT_TOL] are flattened to 0 (tolerated
    noise / support convention); anything below -1e-8 raises
    NotPositiveSemidefinite.
    """
    dec = d.decomposition if isinstance(d, DensityMatrix) else eigh(d)
    lam_min = float(dec.eigenvalues[0])
    if lam_min < SQRT_EIG_FLOOR:
        raise NotPositiveSemidefinite(
            f"eigenvalue {lam_min:.3e} below floor {SQRT_EIG_FLOOR}"
        )
    roots = sqrt_eigenvalues(dec.eigenvalues)
    u = dec.eigenvectors
    return HermitianMatrix((u * roots) @ u.conj().T)


def solve_symmetric_product(dec: SpectralDecomposition, rhs) -> HermitianMatrix:
    """Solve (1/2)(a X + X a) = rhs for Hermitian X, a PSD with eigendecomposition dec.

    In a's eigenbasis X_ij = 2 r_ij / (lam_i + lam_j); pairs with
    lam_i + lam_j <= SUPPORT_TOL are zeroed (support convention). A zeroed pair
    whose transformed right-hand side exceeds DROPPED_RHS_ATOL means rhs
    is not supported on the range of a and raises RankDeficientInconsistent.
    a itself is never read: its eigenvalues and eigenvectors are the operand.
    """
    r_mat = as_array(rhs)
    if r_mat.shape != (dec.dim, dec.dim):
        raise DimensionError(f"shape mismatch: {(dec.dim, dec.dim)} vs {r_mat.shape}")
    lam = dec.eigenvalues
    u = dec.eigenvectors
    r_tilde = u.conj().T @ r_mat @ u
    denom = lam[:, None] + lam[None, :]
    keep = denom > SUPPORT_TOL
    dropped = ~keep
    if np.any(dropped):
        worst = float(np.max(np.abs(r_tilde[dropped])))
        if worst > DROPPED_RHS_ATOL:
            raise RankDeficientInconsistent(
                f"right-hand side has weight {worst:.3e} outside the support "
                f"(tol={SUPPORT_TOL})"
            )
    x_tilde = np.zeros_like(r_tilde)
    x_tilde[keep] = 2.0 * r_tilde[keep] / denom[keep]
    x = u @ x_tilde @ u.conj().T
    # X is Hermitian by construction, but an ill-conditioned a amplifies the
    # rounding asymmetry of the back transform past the construction gate:
    # 3.8e-12 and 2.0e-12 at the two @example points of
    # test_solve_involution_property, against HERMITICITY_ATOL = 1e-12
    return HermitianMatrix((x + x.conj().T) / 2.0)


def trace_product(ms: Iterable) -> complex:
    """Trace of the ordered product of the given matrices."""
    arrays = [as_array(m) for m in ms]
    if not arrays:
        raise DimensionError("trace_product needs at least one matrix")
    for left, right in zip(arrays, arrays[1:]):
        if left.shape[1] != right.shape[0]:
            raise DimensionError(f"shape mismatch: {left.shape} @ {right.shape}")
    if arrays[0].shape[0] != arrays[-1].shape[1]:
        raise DimensionError("product is not square; trace undefined")
    return complex(np.trace(reduce(np.matmul, arrays)))


def real_trace_product(ms: Iterable) -> float:
    """Trace of a product that must be real; a residue above ``TRACE_IMAG_ATOL`` raises."""
    value = trace_product(ms)
    if abs(value.imag) > TRACE_IMAG_ATOL:
        raise ValueError(f"trace has imaginary residue {value.imag:.3e} > {TRACE_IMAG_ATOL}")
    return value.real


def real_traces_against(a, stack: np.ndarray) -> np.ndarray:
    """tr(a @ s) for every matrix s of a (k, n, n) stack, by one batched product.

    Each trace must be real: the first whose imaginary residue exceeds
    ``TRACE_IMAG_ATOL`` raises ValueError, as ``real_trace_product`` does.
    """
    a = as_array(a)
    if a.shape != stack.shape[1:]:
        raise DimensionError(f"shape mismatch: {a.shape} @ {stack.shape[1:]}")
    values = np.trace(a @ stack, axis1=1, axis2=2)
    bad = np.flatnonzero(np.abs(values.imag) > TRACE_IMAG_ATOL)
    if bad.size:
        raise ValueError(
            f"trace has imaginary residue {values.imag[bad[0]]:.3e} > {TRACE_IMAG_ATOL}"
        )
    return values.real


def _min_eigenvalues(mats: Sequence[HermitianMatrix]) -> np.ndarray:
    """Smallest eigenvalue of each of the given matrices, by one batched LAPACK call.

    The matrices are ``HermitianMatrix`` objects of one dimension, exactly
    Hermitian and finite by construction, so nothing is checked again here.
    """
    stack = np.stack([m.mat for m in mats])
    try:
        return np.linalg.eigvalsh(stack)[:, 0]
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"LAPACK eigvalsh failed: dims={stack.shape}: {exc}") from exc
