"""Parametric quantum state families theta -> rho(theta) with derivative access.

Pure families, two-dimensional mixtures of orthogonal pure states, and
general spectral mixtures built from a smooth orthonormal frame. Models are
immutable after construction; evaluation is pure, so distinct theta values
can be evaluated concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    ConfigError,
    DimensionError,
    DomainError,
    RankDeficientInconsistent,
    StationaryFamilyError,
)
from .hermitian import (
    UNIT_NORM_ATOL,
    DensityMatrix,
    HermitianMatrix,
    SpectralDecomposition,
    UnitVector,
    eigh,
    psd_sqrt,
    real_trace_product,
    solve_symmetric_product,
    sqrt_eigenvalues,
)

DEFAULT_FD_STEP = 1e-5
DEFAULT_SEED = 20260810
TRACELESS_ATOL = 1e-8
WEIGHT_EDGE = 1e-12
STATIONARY_TOL = 1e-12
ORTHO_ATOL = 1e-10
LAMBDA_SUM_ATOL = 1e-10
LAMBDA_RANGE_ATOL = 1e-12
DLAMBDA_SUM_ATOL = 1e-8


def _central_difference(f: Callable[[float], np.ndarray], theta: float, h: float) -> np.ndarray:
    return (f(theta + h) - f(theta - h)) / (2.0 * h)


@dataclass(frozen=True)
class PureFamily:
    """theta -> unit vector, with optional analytic derivative of the vector."""

    dim: int
    psi: Callable[[float], np.ndarray]
    dpsi: Callable[[float], np.ndarray] | None = None

    def state(self, theta: float) -> np.ndarray:
        v = np.asarray(self.psi(theta), dtype=complex).reshape(-1)
        if v.shape[0] != self.dim:
            raise DimensionError(f"state has dim {v.shape[0]}, family declares {self.dim}")
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > UNIT_NORM_ATOL:
            raise ValueError(f"family state at theta={theta} has norm {norm!r}")
        return v

    def projector(self, theta: float) -> np.ndarray:
        v = self.state(theta)
        return np.outer(v, v.conj())

    def projector_derivative(self, theta: float, h: float = DEFAULT_FD_STEP) -> np.ndarray:
        """d/dtheta of |psi><psi|; analytic when dpsi is available."""
        if self.dpsi is not None:
            v = self.state(theta)
            dv = np.asarray(self.dpsi(theta), dtype=complex).reshape(-1)
            d = np.outer(dv, v.conj()) + np.outer(v, dv.conj())
        else:
            d = _central_difference(self.projector, theta, h)
        return (d + d.conj().T) / 2.0


@dataclass(frozen=True)
class WeightFunction:
    """Mixing coefficient w(theta) in (0,1), with optional analytic slope."""

    w: Callable[[float], float]
    dw: Callable[[float], float] | None = None

    def value(self, theta: float) -> float:
        v = float(self.w(theta))
        if not (WEIGHT_EDGE < v < 1.0 - WEIGHT_EDGE):
            raise DomainError(f"weight {v!r} at theta={theta} outside (0, 1)")
        return v

    def slope(self, theta: float, h: float = DEFAULT_FD_STEP) -> float:
        if self.dw is not None:
            return float(self.dw(theta))
        return _central_difference(lambda t: float(self.w(t)), theta, h)

    def boundary_regularity_ratio(self, thetas, h: float = DEFAULT_FD_STEP) -> float:
        """max |w'| / min(sqrt(w), sqrt(1-w)) over a sampled grid.

        Proxy for the requirement that w' vanishes faster than sqrt(w) and
        sqrt(1-w) where the weight approaches 0 or 1; the condition is
        asymptotic, so only boundedness on the grid is checked.
        """
        worst = 0.0
        for theta in thetas:
            v = self.value(theta)
            ratio = abs(self.slope(theta, h)) / min(math.sqrt(v), math.sqrt(1.0 - v))
            worst = max(worst, ratio)
        return worst


@dataclass(frozen=True)
class SqrtDerivative:
    """Derivative of sqrt(rho) plus the route that produced it."""

    matrix: HermitianMatrix
    route: str  # "solve" | "fd"
    fd_fallback: bool = False  # True when the solve route failed and fd took over


class StatePoint:
    """A model at one theta, whose ingredients are each evaluated at most once.

    ``model`` and ``theta`` are fixed at construction; any finite difference
    uses the model's ``fd_step``. ``rho``, ``drho`` and ``dsqrt`` are
    evaluated on first access; ``cached(fn)`` does the same for any
    ``fn(point)``, which is how the SLD and the closed-form ingredients are
    shared between routes. A failed evaluation is not kept, so it raises
    again on every access.
    """

    __slots__ = ("model", "theta", "_values")

    def __init__(self, model: ParametricStateModel, theta: float):
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "_values", {})

    def __setattr__(self, name, value):
        raise AttributeError(f"StatePoint is immutable; cannot set {name!r}")

    def cached(self, fn: Callable[["StatePoint"], object]):
        """fn(self), computed on the first call for this fn and kept."""
        values = self._values
        if fn not in values:
            values[fn] = fn(self)
        return values[fn]

    @property
    def rho(self) -> DensityMatrix:
        return self.cached(_point_rho)

    @property
    def drho(self) -> HermitianMatrix:
        return self.cached(_point_drho)

    @property
    def dsqrt(self) -> SqrtDerivative:
        return self.cached(_point_dsqrt)


def _point_rho(pt: StatePoint) -> DensityMatrix:
    return pt.model.rho(pt.theta)


def _point_drho(pt: StatePoint) -> HermitianMatrix:
    return pt.model.drho(pt.theta)


def _point_dsqrt(pt: StatePoint) -> SqrtDerivative:
    return pt.model.dsqrt_rho(pt.theta, rho=pt.rho, drho=pt.drho)


def _checked_step(fd_step: float) -> float:
    if not fd_step > 0.0:
        raise ConfigError(f"finite-difference step must be positive, got {fd_step!r}")
    return float(fd_step)


class ParametricStateModel:
    """Base class: map theta to a density matrix, with derivative access.

    Subclasses implement ``rho_matrix`` and may provide an analytic
    derivative; otherwise a central difference with ``fd_step``, the one step
    all its derivatives use. ``domain`` is a closed interval of admissible theta.
    """

    kind = "custom"

    def __init__(
        self,
        dim: int,
        domain: tuple[float, float] = (-math.inf, math.inf),
        fd_step: float = DEFAULT_FD_STEP,
        sample_thetas: tuple[float, ...] | None = None,
    ):
        lo, hi = float(domain[0]), float(domain[1])
        if not lo < hi:
            raise DomainError(f"empty domain [{lo}, {hi}]")
        self.dim = int(dim)
        self.domain = (lo, hi)
        self.fd_step = _checked_step(fd_step)
        if sample_thetas is None:
            a = max(lo, -1.2)
            b = min(hi, 1.2)
            sample_thetas = tuple(np.linspace(a + 0.1 * (b - a), b - 0.1 * (b - a), 5))
        self.sample_thetas = tuple(float(t) for t in sample_thetas)

    def with_fd_step(self, fd_step: float) -> "ParametricStateModel":
        """This model differencing with ``fd_step``: self if unchanged, else a shallow copy."""
        step = _checked_step(fd_step)
        if step == self.fd_step:
            return self
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__)
        out.fd_step = step
        return out

    def _require_in_domain(self, theta: float) -> None:
        lo, hi = self.domain
        if not (lo <= theta <= hi):
            raise DomainError(f"theta={theta} outside domain [{lo}, {hi}]")

    def _difference(self, f: Callable[[float], np.ndarray], theta: float) -> np.ndarray:
        """Central difference of f at theta with step ``fd_step``, inside the domain."""
        self._require_in_domain(theta - self.fd_step)
        self._require_in_domain(theta + self.fd_step)
        return _central_difference(f, theta, self.fd_step)

    def rho_matrix(self, theta: float) -> np.ndarray:
        raise NotImplementedError

    def _drho_analytic(self, theta: float) -> np.ndarray | None:
        """Structured derivative; any differenced ingredient uses ``fd_step``."""
        return None

    @property
    def has_analytic_derivative(self) -> bool:
        return False

    def at(self, theta: float) -> "StatePoint":
        """The state at theta, evaluated lazily and at most once per ingredient."""
        return StatePoint(self, theta)

    def rho(self, theta: float) -> DensityMatrix:
        self._require_in_domain(theta)
        return DensityMatrix(self.rho_matrix(theta))

    def drho(self, theta: float, force_fd: bool = False) -> HermitianMatrix:
        self._require_in_domain(theta)
        d = None if force_fd else self._drho_analytic(theta)
        if d is None:
            d = self._difference(self.rho_matrix, theta)
            # the quotient of Hermitian evaluations is Hermitian; dividing by
            # 2h amplifies matmul rounding asymmetry past the construction gate
            d = (d + d.conj().T) / 2.0
        out = HermitianMatrix(d)
        tr = abs(np.trace(out.mat).real)
        if tr > TRACELESS_ATOL:
            raise ValueError(f"state derivative has trace {tr:.3e} > {TRACELESS_ATOL}")
        return out

    def dsqrt_rho(
        self,
        theta: float,
        force_fd: bool = False,
        *,
        rho: DensityMatrix | None = None,
        drho: HermitianMatrix | None = None,
    ) -> SqrtDerivative:
        """Derivative of sqrt(rho(theta)).

        Default route solves 2 sqrt(rho) X + X 2 sqrt(rho) = 2 drho in the
        eigenbasis of rho; if the right-hand side turns out inconsistent on
        a rank-deficient state, falls back to the central difference of
        psd_sqrt and flags it. ``rho`` and ``drho`` pass in an already
        evaluated rho(theta) and drho(theta).
        """
        if not force_fd:
            rho = self.rho(theta) if rho is None else rho
            drho = self.drho(theta) if drho is None else drho
            dec = rho.decomposition
            doubled_roots = 2.0 * sqrt_eigenvalues(dec.eigenvalues)
            scaled = SpectralDecomposition(eigenvalues=doubled_roots, eigenvectors=dec.eigenvectors)
            try:
                x = solve_symmetric_product(scaled, drho)
                return SqrtDerivative(matrix=x, route="solve")
            except RankDeficientInconsistent:
                fell_back = True
        else:
            fell_back = False
        diff = self._difference(lambda t: psd_sqrt(self.rho(t)).mat, theta)
        return SqrtDerivative(matrix=HermitianMatrix(diff), route="fd", fd_fallback=fell_back)


class PureStateModel(ParametricStateModel):
    """rho(theta) = |psi(theta)><psi(theta)| for a pure family."""

    kind = "pure"

    def __init__(self, family: PureFamily, **kwargs):
        super().__init__(family.dim, **kwargs)
        self.family = family

    def rho_matrix(self, theta: float) -> np.ndarray:
        return self.family.projector(theta)

    def _drho_analytic(self, theta: float) -> np.ndarray | None:
        if self.family.dpsi is None:
            return None
        return self.family.projector_derivative(theta)

    @property
    def has_analytic_derivative(self) -> bool:
        return self.family.dpsi is not None


class QubitMixtureModel(ParametricStateModel):
    """Two-dimensional mixture of orthogonal pure states.

    rho = w |psi1><psi1| + (1-w) |psi2><psi2| with <psi1|psi2> = 0. In two
    dimensions psi2 is fixed by psi1 up to a phase, so the second projector
    is I - |psi1><psi1| and nothing the model computes reads psi2's phase.
    ``psi2`` gives the canonical choice: the image of psi1 under the
    projector derivative, normalized.
    """

    kind = "qubit_mixture"

    def __init__(self, psi1: PureFamily, weight: WeightFunction, **kwargs):
        if psi1.dim != 2:
            raise DimensionError("orthogonal two-state mixtures require dim 2")
        super().__init__(2, **kwargs)
        self.psi1 = psi1
        self.weight = weight

    def rho_matrix(self, theta: float) -> np.ndarray:
        w = self.weight.value(theta)
        p1 = self.psi1.projector(theta)
        return w * p1 + (1.0 - w) * (np.eye(2) - p1)

    def _require_stencil_in_domain(self, theta: float) -> None:
        """Raise DomainError unless theta lies in the domain, and so does
        theta +- fd_step where the weight or psi1 is differenced."""
        self._require_in_domain(theta)
        if not self.has_analytic_derivative:
            self._require_in_domain(theta - self.fd_step)
            self._require_in_domain(theta + self.fd_step)

    def _drho_analytic(self, theta: float) -> np.ndarray | None:
        self._require_stencil_in_domain(theta)
        h = self.fd_step
        dw = self.weight.slope(theta, h)
        dp1 = self.psi1.projector_derivative(theta, h)
        w = self.weight.value(theta)
        p1 = self.psi1.projector(theta)
        return dw * (2.0 * p1 - np.eye(2)) + (2.0 * w - 1.0) * dp1

    @property
    def has_analytic_derivative(self) -> bool:
        return self.psi1.dpsi is not None and self.weight.dw is not None

    def psi2(self, theta: float) -> UnitVector:
        return canonical_psi2(self.psi1, theta, self.fd_step)


class SpectralMixtureModel(ParametricStateModel):
    """rho(theta) = sum_l lambda_l(theta) |u_l(theta)><u_l(theta)|.

    The orthonormal frame u_l comes from a smooth unitary path; eigenvalue
    weights lambda_l(theta) are nonnegative and sum to 1. Analytic
    derivatives of the weights and frame are used when supplied, central
    differences otherwise.

    The frame's motion is carried by its generator A = U^dagger dU
    (``generator_at``), skew-Hermitian with column a_k = U^dagger du_k. In
    the frame basis each projector derivative is
    U^dagger dP_k U = a_k e_k^T + e_k a_k^dagger, which never reads the
    diagonal of A (the phase gauge of the columns), so it is set to zero.
    """

    kind = "spectral"

    def __init__(
        self,
        dim: int,
        lambdas: Callable[[float], np.ndarray],
        frame: Callable[[float], np.ndarray],
        dlambdas: Callable[[float], np.ndarray] | None = None,
        dframe: Callable[[float], np.ndarray] | None = None,
        **kwargs,
    ):
        super().__init__(dim, **kwargs)
        self._lambdas = lambdas
        self._dlambdas = dlambdas
        self._frame = frame
        self._dframe = dframe

    def lambdas_at(self, theta: float) -> np.ndarray:
        vals = np.asarray(self._lambdas(theta), dtype=float).reshape(-1)
        if vals.shape[0] != self.dim:
            raise DimensionError(f"{vals.shape[0]} weights for dim {self.dim}")
        total = float(np.sum(vals))
        if abs(total - 1.0) > LAMBDA_SUM_ATOL:
            raise ValueError(f"eigenvalue weights sum to {total!r} at theta={theta}")
        lo, hi = float(np.min(vals)), float(np.max(vals))
        if lo < -LAMBDA_RANGE_ATOL or hi > 1.0 + LAMBDA_RANGE_ATOL:
            raise ValueError(f"eigenvalue weights outside [0, 1] at theta={theta}")
        return np.clip(vals, 0.0, 1.0)

    def dlambdas_at(self, theta: float) -> np.ndarray:
        if self._dlambdas is not None:
            vals = np.asarray(self._dlambdas(theta), dtype=float).reshape(-1)
        else:
            raw = lambda t: np.asarray(self._lambdas(t), dtype=float).reshape(-1)
            vals = self._difference(raw, theta)
        total = abs(float(np.sum(vals)))
        if total > DLAMBDA_SUM_ATOL:
            raise ValueError(f"weight derivatives sum to {total:.3e} > {DLAMBDA_SUM_ATOL}")
        return vals

    def frame_at(self, theta: float) -> np.ndarray:
        u = np.asarray(self._frame(theta), dtype=complex)
        if u.shape != (self.dim, self.dim):
            raise DimensionError(f"frame has shape {u.shape}, expected {(self.dim, self.dim)}")
        dev = np.linalg.norm(u.conj().T @ u - np.eye(self.dim))
        if dev > ORTHO_ATOL:
            raise ValueError(f"frame deviates from unitarity by {dev:.3e} at theta={theta}")
        return u

    def projectors_at(self, theta: float) -> list[np.ndarray]:
        u = self.frame_at(theta)
        return [np.outer(u[:, j], u[:, j].conj()) for j in range(self.dim)]

    def generator_at(self, theta: float, u: np.ndarray | None = None) -> np.ndarray:
        """A = U^dagger dU with its diagonal zeroed; ``u`` passes in frame_at(theta).

        Without an analytic frame derivative, column k off the diagonal is read
        from the differenced projectors as U^dagger dP_k u_k, which no column
        phase convention affects. Either way A is made exactly skew-Hermitian.
        """
        u = self.frame_at(theta) if u is None else u
        if self._dframe is not None:
            a = u.conj().T @ np.asarray(self._dframe(theta), dtype=complex)
        else:
            dprojs = self._difference(lambda t: np.array(self.projectors_at(t)), theta)
            a = u.conj().T @ np.einsum("kij,jk->ik", dprojs, u)
        a = (a - a.conj().T) / 2.0
        np.fill_diagonal(a, 0.0)
        return a

    def dprojectors_at(self, theta: float) -> list[np.ndarray]:
        """dP_k = du_k u_k^dagger + u_k du_k^dagger.

        Without an analytic frame derivative du = U A, so the differenced
        projectors are replaced by their projection onto the form above.
        """
        u = self.frame_at(theta)
        if self._dframe is not None:
            du = np.asarray(self._dframe(theta), dtype=complex)
        else:
            du = u @ self.generator_at(theta, u)
        out = []
        for j in range(self.dim):
            d = np.outer(du[:, j], u[:, j].conj()) + np.outer(u[:, j], du[:, j].conj())
            out.append((d + d.conj().T) / 2.0)
        return out

    def rho_matrix(self, theta: float) -> np.ndarray:
        lam = self.lambdas_at(theta)
        u = self.frame_at(theta)
        return (u * lam) @ u.conj().T

    def _drho_analytic(self, theta: float) -> np.ndarray | None:
        """drho = U (diag dlam + A Lambda - Lambda A) U^dagger."""
        if self._dlambdas is None or self._dframe is None:
            return None
        lam = self.lambdas_at(theta)
        u = self.frame_at(theta)
        a = self.generator_at(theta, u)
        inner = a * (lam[None, :] - lam[:, None])
        inner[np.diag_indices(self.dim)] = self.dlambdas_at(theta)
        return (u @ inner) @ u.conj().T

    @property
    def has_analytic_derivative(self) -> bool:
        return self._dlambdas is not None and self._dframe is not None


def canonical_psi2(psi1: PureFamily, theta: float, h: float = DEFAULT_FD_STEP) -> UnitVector:
    """Distinguished unit vector orthogonal to psi1(theta).

    Normalized image of the state under the projector derivative, with its
    psi1 component projected out; defined only where the family is not
    stationary. The image is orthogonal to psi1 exactly only for an exact
    derivative: a differenced one leaves an O(h^2) overlap wherever the
    family's phase speed varies.
    """
    dp = psi1.projector_derivative(theta, h)
    info = 2.0 * real_trace_product([dp, dp])
    if info <= STATIONARY_TOL:
        raise StationaryFamilyError(
            f"family is stationary at theta={theta} (information {info:.3e})"
        )
    psi = psi1.state(theta)
    v = dp @ psi
    v = v - np.vdot(psi, v) * psi
    psi2 = v / np.linalg.norm(v)
    overlap = abs(np.vdot(psi, psi2))
    if overlap > ORTHO_ATOL:
        raise ValueError(f"constructed psi2 overlaps psi1 by {overlap:.3e}")
    return UnitVector(psi2)


# ---------------------------------------------------------------------------
# builtin families, weights and models
# ---------------------------------------------------------------------------

def rotation_family() -> PureFamily:
    """(cos theta, sin theta): the workhorse real qubit family."""
    return PureFamily(
        dim=2,
        psi=lambda t: np.array([math.cos(t), math.sin(t)], dtype=complex),
        dpsi=lambda t: np.array([-math.sin(t), math.cos(t)], dtype=complex),
    )


def complex_rotation_family() -> PureFamily:
    """(cos theta, i sin theta): complex amplitudes, same speed."""
    return PureFamily(
        dim=2,
        psi=lambda t: np.array([math.cos(t), 1j * math.sin(t)], dtype=complex),
        dpsi=lambda t: np.array([-math.sin(t), 1j * math.cos(t)], dtype=complex),
    )


def constant_weight(w: float) -> WeightFunction:
    if not (0.0 < w < 1.0):
        raise DomainError(f"constant weight {w!r} outside (0, 1)")
    return WeightFunction(w=lambda t: w, dw=lambda t: 0.0)


def sine_weight(amplitude: float = 1.0) -> WeightFunction:
    """w(theta) = (1 + a sin theta) / 2."""
    a = float(amplitude)
    return WeightFunction(
        w=lambda t: 0.5 * (1.0 + a * math.sin(t)),
        dw=lambda t: 0.5 * a * math.cos(t),
    )


def logistic_weight(rate: float = 1.0, center: float = 0.0) -> WeightFunction:
    k, t0 = float(rate), float(center)

    def w(t: float) -> float:
        try:
            return 1.0 / (1.0 + math.exp(-k * (t - t0)))
        except OverflowError:  # far below the center: 0.0, which value() rejects
            return 0.0

    return WeightFunction(w=w, dw=lambda t: k * w(t) * (1.0 - w(t)))


def random_skew_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (g - g.conj().T) / 2.0


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _unitary_path(k: np.ndarray, x0: np.ndarray):
    """(path, dpath): t -> exp(tK) x0 and t -> K exp(tK) x0, for K skew-Hermitian.

    One eigendecomposition -iK = V diag(mu) V* gives exp(tK) = V diag(e^{i t mu}) V*,
    so each evaluation is one scaled matmul, exact up to rounding and unitary
    at any t. ``x0`` is 2-D: a frame, or a single column.
    """
    dec = eigh(-1j * k)
    mu, v = dec.eigenvalues, dec.eigenvectors
    w = v.conj().T @ x0

    def path(t: float) -> np.ndarray:
        return v @ (np.exp(1j * t * mu)[:, None] * w)

    def dpath(t: float) -> np.ndarray:
        return v @ ((1j * mu * np.exp(1j * t * mu))[:, None] * w)

    return path, dpath


def random_pure_family(seed: int, dim: int) -> PureFamily:
    """Smooth seeded pure family psi(theta) = exp(theta K) psi0, K skew-Hermitian."""
    rng = np.random.default_rng(seed)
    k = random_skew_hermitian(rng, dim)
    v0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v0 = v0 / np.linalg.norm(v0)
    psi, dpsi = _unitary_path(k, v0[:, None])
    return PureFamily(dim=dim, psi=psi, dpsi=dpsi)


def rotation_mixture(weight: WeightFunction | float, **kwargs) -> QubitMixtureModel:
    """Qubit mixture of the rotation family and its orthogonal complement."""
    if not isinstance(weight, WeightFunction):
        weight = constant_weight(float(weight))
    return QubitMixtureModel(rotation_family(), weight, **kwargs)


def _softmax_weights(rng: np.random.Generator, dim: int):
    base = rng.normal(size=dim)
    amp = 0.5 * rng.normal(size=dim)
    phase = rng.uniform(0.0, 2.0 * math.pi, size=dim)

    def lambdas(t: float) -> np.ndarray:
        f = base + amp * np.sin(t + phase)
        e = np.exp(f - np.max(f))
        return e / np.sum(e)

    def dlambdas(t: float) -> np.ndarray:
        lam = lambdas(t)
        df = amp * np.cos(t + phase)
        return lam * (df - float(lam @ df))

    return lambdas, dlambdas


def random_spectral_model(seed: int, dim: int, **kwargs) -> SpectralMixtureModel:
    """Seeded smooth spectral mixture: softmax eigenvalue path, exp(theta K) frame."""
    rng = np.random.default_rng(seed)
    lambdas, dlambdas = _softmax_weights(rng, dim)
    k = random_skew_hermitian(rng, dim)
    frame, dframe = _unitary_path(k, random_unitary(rng, dim))
    return SpectralMixtureModel(
        dim, lambdas=lambdas, frame=frame, dlambdas=dlambdas, dframe=dframe, **kwargs
    )


def fixed_spectrum_model(
    spectrum,
    seed: int | None = None,
    frame: str = "random",
    **kwargs,
) -> SpectralMixtureModel:
    """Spectral mixture with a theta-independent spectrum on a rotating frame.

    frame="rotation" (dim 2 only) uses the plane rotation frame, matching
    the rotation-family mixture; frame="random" uses a seeded exp(theta K)
    path.
    """
    lam = np.asarray(spectrum, dtype=float).reshape(-1)
    dim = lam.shape[0]
    if frame == "rotation":
        if dim != 2:
            raise DimensionError("rotation frame is two-dimensional")
        k = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
        u0 = np.eye(2, dtype=complex)
    elif frame == "random":
        rng = np.random.default_rng(0 if seed is None else seed)
        k = random_skew_hermitian(rng, dim)
        u0 = random_unitary(rng, dim)
    else:
        raise ConfigError(f"unknown frame kind {frame!r}")
    frame_fn, dframe = _unitary_path(k, u0)
    return SpectralMixtureModel(
        dim,
        lambdas=lambda t: lam.copy(),
        frame=frame_fn,
        dlambdas=lambda t: np.zeros(dim),
        dframe=dframe,
        **kwargs,
    )


class _QubitEmbedding(SpectralMixtureModel):
    """The spectral model that ``qubit_mixture_as_spectral`` returns.

    Its frame's psi2 differences psi1 with the mixture's step, which a
    shallow copy would keep; so a new step embeds the mixture at that step.
    """

    def __init__(self, mixture: QubitMixtureModel, **kwargs):
        super().__init__(2, **kwargs)
        self.mixture = mixture

    def with_fd_step(self, fd_step: float) -> SpectralMixtureModel:
        if _checked_step(fd_step) == self.fd_step:
            return self
        return qubit_mixture_as_spectral(self.mixture.with_fd_step(fd_step))


def qubit_mixture_as_spectral(model: QubitMixtureModel) -> SpectralMixtureModel:
    """Embed a qubit mixture as a two-eigenvalue spectral mixture.

    Frame columns are psi1 and the distinguished orthogonal psi2; the frame
    derivative is left to finite differences. The weight slope is analytic
    when the weight has one; otherwise the spectral model differences its
    eigenvalue weights with its own ``fd_step``. ``with_fd_step`` on the
    result embeds the mixture at the new step, so it reaches both psi2 and
    the weight slope.
    """
    weight = model.weight

    def lambdas(t: float) -> np.ndarray:
        w = weight.value(t)
        return np.array([w, 1.0 - w])

    def dlambdas(t: float) -> np.ndarray:
        dw = float(weight.dw(t))
        return np.array([dw, -dw])

    def frame(t: float) -> np.ndarray:
        return np.column_stack([model.psi1.state(t), model.psi2(t).vec])

    return _QubitEmbedding(
        model,
        lambdas=lambdas,
        frame=frame,
        dlambdas=None if weight.dw is None else dlambdas,
        dframe=None,
        domain=model.domain,
        fd_step=model.fd_step,
        sample_thetas=model.sample_thetas,
    )


def builtin_models() -> dict[str, ParametricStateModel]:
    """Named model catalog used by the verification suite and the CLI."""
    rot = rotation_family()
    rot_fd = PureFamily(dim=2, psi=rot.psi)  # same family, derivative by differences
    w07_fd = WeightFunction(w=lambda t: 0.7)
    return {
        "qubit-rotation": PureStateModel(rot),
        "qubit-rotation-fd": PureStateModel(rot_fd),
        "qubit-complex-rotation": PureStateModel(complex_rotation_family()),
        "pure-random-3": PureStateModel(random_pure_family(101, 3)),
        "pure-random-4": PureStateModel(random_pure_family(11, 4)),
        "mixture-w0.9": rotation_mixture(0.9),
        "mixture-w0.45": rotation_mixture(0.45),
        "mixture-w0.7-fd": QubitMixtureModel(rot_fd, w07_fd),
        "sine-weight-mixture": rotation_mixture(
            sine_weight(), domain=(-1.45, 1.45), sample_thetas=(-1.1, -0.5, 0.0, 0.4, 1.0)
        ),
        "logistic-weight-mixture": rotation_mixture(logistic_weight(1.5, 0.0)),
        "spectral-random-5-2": random_spectral_model(5, 2),
        "spectral-random-7-3": random_spectral_model(7, 3),
        "spectral-random-21-4": random_spectral_model(21, 4),
        "spectral-random-3-6": random_spectral_model(3, 6),
    }
