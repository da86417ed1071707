"""Quantum information quantities for one-parameter state models.

Symmetric logarithmic derivative (SLD), Helstrom information, and
Wigner-Yanase skew information, each computable along independent routes:

* definitional: tr{rho L^2} with L from the eigenbasis solve, and
  4 tr{[(sqrt rho)']^2} from the matrix-square-root derivative;
* closed forms for two-dimensional orthogonal mixtures in terms of the
  mixing weight and the pure-state information;
* closed forms for spectral mixtures in terms of the eigenvalue weights
  and projector derivatives, read from the frame generator A = U^dagger dU
  (O(n^2) work after the O(n^3) generator).

``closed_routes(kind)`` is the one table of a kind's closed forms and the
definitional route each must match. ``relation_report`` reads it and is the
one producer of the cross-route and relation residuals, the core
correctness surface: the verify route and relation checks and every CLI
row read the point's report instead of recomputing them. Every route takes
a ``StatePoint`` (``model.at(theta)``, or a point of ``model.grid(thetas)``);
routes that read one point share its evaluated rho, drho, square-root
derivative, SLD and closed-form ingredients instead of evaluating the state
again. What a route reads per theta is a grid stage, run once per grid on
the stacked arrays: the SLD solve, tr{rho L^2}, 4 tr{[(sqrt rho)']^2}, a
pure model's 2 tr{(dP)^2} and a qubit mixture's (w, w', I_H1). The closed
forms read the model's input stages (``models._inputs_stage`` and
``_dinputs_stage``), never rho, drho or the SLD, so the routes share only
the model's inputs (rho, drho, frame). Per point are left the layer reads,
the closed-form arithmetic, alpha/beta, the relations and the report's
assembly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BoundaryRegularityError, DomainError, QcrbError
from .hermitian import (
    SUPPORT_TOL,
    HermitianMatrix,
    as_array,
    real_trace_product,
    solve_symmetric_product,
)
from .models import (
    StateGrid,
    StatePoint,
    _dinputs_stage,
    _dsqrt_route_stage,
    _inputs_stage,
)

INFO_FLOOR = -1e-9
NEAR_ZERO_INFO = 1e-8
SUM_IMAG_ATOL = 1e-9
VANISHING_SLOPE_ATOL = 1e-8


def _check_nonnegative(value: float, label: str) -> float:
    if value < INFO_FLOOR:
        raise ValueError(f"{label} = {value!r} below noise floor {INFO_FLOOR}")
    return value


@dataclass(frozen=True)
class SldResult:
    """Symmetric logarithmic derivative with support metadata."""

    matrix: HermitianMatrix
    support_dropped: bool  # rho was rank deficient; solution zeroed off-support
    score_mean: float  # tr{rho L}, 0 up to numerical noise
    min_pair_sum: float  # smallest lam_i + lam_j kept in the solve


def _sld_stage(grid: StateGrid) -> tuple:
    rho, dec = grid.rho_stack()
    l_mat = solve_symmetric_product(dec, grid.drho_stack()).mat
    lam = dec.eigenvalues
    pair = lam[:, :, None] + lam[:, None, :]
    return (
        l_mat,
        2.0 * lam[:, 0] <= SUPPORT_TOL,
        real_trace_product([rho, l_mat]),
        np.min(pair, axis=(1, 2), where=pair > SUPPORT_TOL, initial=np.inf),
    )


def sld(pt: StatePoint) -> SldResult:
    """Hermitian L solving rho L + L rho = 2 drho, in the eigenbasis of rho.

    Entries over eigenvalue pairs with lam_i + lam_j below the support
    tolerance are zeroed; an inconsistent right-hand side there raises
    RankDeficientInconsistent. The solve runs once per grid, on its stacked
    rho and drho, and this is the point's layer of it; ``point.cached(sld)``
    keeps one result per point.
    """
    l_mat, dropped, score, min_pair_sum = pt.layer(_sld_stage)
    return SldResult(
        matrix=HermitianMatrix.of_checked(l_mat),
        support_dropped=bool(dropped),
        score_mean=float(score),
        min_pair_sum=float(min_pair_sum),
    )


def sld_spectral_sum(eigenvalues, projectors, drho) -> HermitianMatrix:
    """SLD as the double projector sum sum_{l,k} 2/(lam_l+lam_k) P_l drho P_k.

    Independent of the eigenbasis solve; pairs below the support tolerance
    are skipped. Used as a cross-check oracle for ``sld``.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    d = as_array(drho)
    total = np.zeros_like(d)
    for l, p_l in enumerate(projectors):
        for k, p_k in enumerate(projectors):
            denom = lam[l] + lam[k]
            if denom <= SUPPORT_TOL:
                continue
            total += (2.0 / denom) * (p_l @ d @ p_k)
    return HermitianMatrix(total)


def _helstrom_stage(grid: StateGrid) -> tuple:
    rho, _ = grid.rho_stack()
    l_mat = grid.stage(_sld_stage)[0]
    return (real_trace_product([rho, l_mat, l_mat]),)


def helstrom_info_sld(pt: StatePoint) -> float:
    """tr{rho L^2}: the definitional route, one stacked trace per grid."""
    return _check_nonnegative(float(pt.layer(_helstrom_stage)[0]), "Helstrom information")


def _pure_helstrom_traces(dp):
    """2 tr{(dP)^2} of a projector derivative, or of each layer of a stack of them."""
    return 2.0 * real_trace_product([dp, dp])


def _pure_stage(grid: StateGrid) -> tuple:
    return (_pure_helstrom_traces(grid.stage(_dinputs_stage)[0]),)


def _pure_helstrom_closed(pt: StatePoint) -> float:
    """The pure-state shortcut 2 tr{(dP)^2} of a pure model, at the model's step.

    One stacked trace per grid, on the projector derivatives of the model's
    derivative inputs: the family's dpsi, or its states at theta +- fd_step.
    It is the report's ``i_h_closed`` of a pure point.
    """
    return _check_nonnegative(float(pt.layer(_pure_stage)[0]), "pure Helstrom information")


def _qubit_stage(grid: StateGrid) -> tuple:
    """w, w' and I_H1 of every theta, from the model's input stages; I_H1 is one stacked trace."""
    w = grid.stage(_inputs_stage)[0]
    dw, dp1 = grid.stage(_dinputs_stage)
    return w, dw, _pure_helstrom_traces(dp1)


def _qubit_ingredients(pt: StatePoint) -> tuple[float, float, float]:
    """The weight w, its slope w' and I_H1 of psi1, at the model's step.

    The three qubit closed forms and alpha/beta share one set through
    ``pt.cached``; I_WY1 is 2 I_H1. The set is the point's layer of its
    grid's ``_qubit_stage``, which reads the model's inputs (the weight, its
    slope and psi1's projector derivative) and never rho, drho or the SLD,
    so the closed forms stay independent of the definitional routes.
    """
    w, dw, ih1 = (float(v) for v in pt.layer(_qubit_stage))
    return w, dw, _check_nonnegative(ih1, "pure Helstrom information")


def helstrom_info_qubit_closed(pt: StatePoint) -> float:
    """Weight-based closed form for the two-dimensional orthogonal mixture.

    (w')^2 / (w(1-w)) + (2w-1)^2 I_H1, where I_H1 is the Helstrom
    information of the first pure family. Finite for all w in (0,1),
    including w = 1/2.
    """
    w, dw, ih1 = pt.cached(_qubit_ingredients)
    value = dw * dw / (w * (1.0 - w)) + (2.0 * w - 1.0) ** 2 * ih1
    return _check_nonnegative(value, "closed-form Helstrom information")


def wy_info_qubit_closed(pt: StatePoint) -> float:
    """Weight-based closed form for the skew information of the mixture.

    (w')^2 / (w(1-w)) + (1 - 2 sqrt(w(1-w))) I_WY1.
    """
    w, dw, ih1 = pt.cached(_qubit_ingredients)
    value = dw * dw / (w * (1.0 - w)) + (1.0 - 2.0 * np.sqrt(w * (1.0 - w))) * (2.0 * ih1)
    return _check_nonnegative(float(value), "closed-form skew information")


def alpha_beta(w: float, dw: float) -> tuple[float, float]:
    """Affine coefficients relating skew to Helstrom information in 2 dims.

    alpha = 2 / (1 + 2 sqrt(w(1-w))) lies in [1, 2], minimal at w = 1/2;
    beta = -(1 - 2 sqrt(w(1-w))) / (1 + 2 sqrt(w(1-w))) * (w')^2/(w(1-w))
    is nonpositive and vanishes for constant weights.
    """
    if not (0.0 < w < 1.0):
        raise DomainError(f"weight {w!r} outside (0, 1)")
    root = 2.0 * np.sqrt(w * (1.0 - w))
    alpha = 2.0 / (1.0 + root)
    beta = -(1.0 - root) / (1.0 + root) * dw * dw / (w * (1.0 - w))
    return float(alpha), float(beta)


def gamma_qubit_closed(pt: StatePoint) -> float:
    """Two-dimensional gap I_WY - I_H = (1 - 2 sqrt(w(1-w)))^2 I_H1."""
    w, _, ih1 = pt.cached(_qubit_ingredients)
    return float((1.0 - 2.0 * np.sqrt(w * (1.0 - w))) ** 2 * ih1)


def _spectral_ingredients(pt: StatePoint):
    """Eigenvalue weights, their derivatives and the frame generator A = U^dagger dU.

    With D_k = U^dagger dP_k U = a_k e_k^T + e_k a_k^dagger (a_k column k
    of A), tr{P_l dP_k dP_z} = (D_k D_z)_{ll} and tr{dP_k dP_z} = tr{D_k D_z}
    reduce to sums over entries of A, so no projector is built. The three
    spectral closed forms share one set through ``pt.cached``. It is the
    point's layer of the model's input stages, where lambda and A are
    stacked over the grid, each frame and weight read once per theta.
    """
    lam = pt.layer(_inputs_stage)[0]
    dlam, a = pt.layer(_dinputs_stage)
    return lam, dlam, a


def _projector_derivative_gram(a: np.ndarray) -> np.ndarray:
    """G[k, z] = tr{D_k D_z} = 2 delta_kz sum_i |A_ik|^2 - 2 |A_kz|^2."""
    sq = np.abs(a) ** 2
    gram = -2.0 * sq
    gram[np.diag_indices_from(gram)] += 2.0 * np.sum(sq, axis=0)
    return gram


def _weighted_triple_sum(lam: np.ndarray, a: np.ndarray) -> complex:
    """sum_{l!=k} c_lk sum_z lam_z tr{P_l dP_k dP_z}.

    c_lk = lam_l (lam_k - lam_l) / (lam_l + lam_k)^2, and 0 for pairs with
    lam_l + lam_k at or below the support tolerance. With
    E = sum_z lam_z D_z, so that E_kl = A_kl (lam_l - lam_k), the inner sum
    is (D_k E)_{ll} = A_lk E_kl for l != k.
    """
    pair = lam[:, None] + lam[None, :]
    keep = pair > SUPPORT_TOL
    np.fill_diagonal(keep, False)
    coeff = np.zeros_like(pair)
    coeff[keep] = (lam[:, None] * (lam[None, :] - lam[:, None]))[keep] / pair[keep] ** 2
    e = a * (lam[None, :] - lam[:, None])
    return complex(np.sum(coeff * a * e.T))


def _pair_roots(lam: np.ndarray) -> np.ndarray:
    """sqrt(lam_l lam_k), 0 where a weight is at or below ``SUPPORT_TOL``: the support rule
    of ``sqrt_eigenvalues``, which the definitional route's square root follows."""
    root = np.sqrt(lam[:, None] * lam)
    dead = lam <= SUPPORT_TOL
    if dead.any():
        root[dead] = 0.0
        root[:, dead] = 0.0
    return root


def _eigenweight_fisher(lam: np.ndarray, dlam: np.ndarray) -> float:
    """sum (lam')^2 / lam over the support, guarding vanishing eigenvalues."""
    total = 0.0
    for l in range(lam.shape[0]):
        if lam[l] <= SUPPORT_TOL:
            if abs(dlam[l]) > VANISHING_SLOPE_ATOL:
                raise BoundaryRegularityError(
                    f"eigenvalue {l} vanishes while its derivative is {dlam[l]:.3e}"
                )
            continue
        total += dlam[l] * dlam[l] / lam[l]
    return total


def helstrom_info_spectral(pt: StatePoint) -> float:
    """Spectral closed form for the Helstrom information.

    sum_l (lam'_l)^2/lam_l
    + sum_l sum_{k!=l} sum_z 4 lam_l (lam_k - lam_l) lam_z / (lam_l+lam_k)^2
      * tr{P_l dP_k dP_z}.
    Eigenvalue pairs below the support tolerance are excluded.
    """
    lam, dlam, a = pt.cached(_spectral_ingredients)
    total = _eigenweight_fisher(lam, dlam) + 4.0 * _weighted_triple_sum(lam, a)
    if abs(total.imag) > SUM_IMAG_ATOL:
        raise ValueError(f"spectral Helstrom sum has imaginary residue {total.imag:.3e}")
    return _check_nonnegative(float(total.real), "spectral Helstrom information")


def wy_info_spectral(pt: StatePoint) -> float:
    """Spectral closed form for the skew information.

    sum_l lam_l I_WY,l + sum_l (lam'_l)^2/lam_l
    + 4 sum_l sum_{k!=l} sqrt(lam_l lam_k) tr{dP_l dP_k},
    with I_WY,l = 4 tr{(dP_l)^2} the pure-state skew information; sqrt is ``_pair_roots``.
    """
    lam, dlam, a = pt.cached(_spectral_ingredients)
    root = _pair_roots(lam)
    np.fill_diagonal(root, lam)  # the pure-state terms lam_l I_WY,l
    skew = complex(np.sum(root * _projector_derivative_gram(a)))
    total = _eigenweight_fisher(lam, dlam) + 4.0 * skew
    if abs(total.imag) > SUM_IMAG_ATOL:
        raise ValueError(f"spectral skew sum has imaginary residue {total.imag:.3e}")
    return _check_nonnegative(float(total.real), "spectral skew information")


def gamma_spectral(pt: StatePoint) -> float:
    """Eigenvalue-based gap between skew and Helstrom information.

    gamma = -4 sum_l sum_{k!=l} [ (lam_l - sqrt(lam_l lam_k)) tr{dP_l dP_k}
            + sum_z lam_l (lam_k - lam_l) lam_z / (lam_l+lam_k)^2
              tr{P_l dP_k dP_z} ],
    and I_WY = I_H + gamma (sqrt is ``_pair_roots``). Vanishes when all
    eigenvalue weights coincide.
    """
    lam, _, a = pt.cached(_spectral_ingredients)
    weight = lam[:, None] - _pair_roots(lam)
    np.fill_diagonal(weight, 0.0)
    skew = complex(np.sum(weight * _projector_derivative_gram(a)))
    total = -4.0 * (skew + _weighted_triple_sum(lam, a))
    if abs(total.imag) > SUM_IMAG_ATOL:
        raise ValueError(f"gamma sum has imaginary residue {total.imag:.3e}")
    return float(total.real)


def _wy_stage(grid: StateGrid) -> tuple:
    x = grid.stage(_dsqrt_route_stage)[0]
    return (4.0 * real_trace_product([x, x]),)


def wy_info_generic(pt: StatePoint) -> float:
    """4 tr{[(sqrt rho)']^2}: the definitional skew-information route.

    One stacked trace per grid, on the square-root derivatives that
    ``pt.dsqrt`` reads, the finite-difference fallback included.
    """
    return _check_nonnegative(float(pt.layer(_wy_stage)[0]), "skew information")


@dataclass
class QuantumInfoResult:
    """Information quantities, relation residuals and bounds at one theta."""

    theta: float
    kind: str
    i_h_sld: float
    i_wy_generic: float
    i_h_closed: float | None = None
    i_wy_closed: float | None = None
    alpha: float | None = None
    beta: float | None = None
    gamma: float | None = None
    score_mean: float = 0.0
    sharp_bound: float | None = None
    approx_bound: float | None = None
    residuals: dict[str, float] = field(default_factory=dict)
    route_errors: dict[str, str] = field(default_factory=dict)
    # how the definitional routes got their numbers: sqrt_route ("solve" |
    # "fd"), fd_fallback, support_dropped and min_pair_sum (the smallest
    # lam_i + lam_j kept in the SLD solve)
    diagnostics: dict[str, object] = field(default_factory=dict)

    @property
    def ratio(self) -> float | None:
        if self.i_h_sld > NEAR_ZERO_INFO:
            return self.i_wy_generic / self.i_h_sld
        return None

    @property
    def gap(self) -> float:
        return self.i_wy_generic - self.i_h_sld


@dataclass(frozen=True)
class ClosedRoute:
    """A closed form and the definitional route it must agree with (None for gamma).

    Both are attribute names in this module, looked up on each access of
    ``closed_fn`` / ``definitional_fn``, so a patched or traced function is
    the one that runs. A form that does not apply at a point raises there,
    and ``relation_report`` records the error.
    """

    closed: str
    definitional: str | None = None

    @property
    def closed_fn(self):
        return globals()[self.closed]

    @property
    def definitional_fn(self):
        return globals()[self.definitional]


_CLOSED_ROUTES = {
    "pure": {"i_h_closed": ClosedRoute("_pure_helstrom_closed", "helstrom_info_sld")},
    "qubit_mixture": {
        "i_h_closed": ClosedRoute("helstrom_info_qubit_closed", "helstrom_info_sld"),
        "i_wy_closed": ClosedRoute("wy_info_qubit_closed", "wy_info_generic"),
        "gamma": ClosedRoute("gamma_qubit_closed"),
    },
    "spectral": {
        "i_h_closed": ClosedRoute("helstrom_info_spectral", "helstrom_info_sld"),
        "i_wy_closed": ClosedRoute("wy_info_spectral", "wy_info_generic"),
        "gamma": ClosedRoute("gamma_spectral"),
    },
}


def closed_routes(kind: str) -> dict[str, ClosedRoute]:
    """The closed forms of a model kind, keyed by their ``QuantumInfoResult`` field.

    The one place that pairs a kind with its closed forms and each closed
    form with its definitional route; a kind without closed forms has none.
    A model that declares a kind provides what that kind's forms read.
    """
    return dict(_CLOSED_ROUTES.get(kind, {}))


def relation_report(pt: StatePoint) -> QuantumInfoResult:
    """Evaluate every applicable route at theta and record their residuals.

    Always computes the definitional routes (SLD-based Helstrom, generic
    skew), then each closed form of ``closed_routes(model.kind)`` and its
    ``route_*`` residual |closed - definitional| / max(1, definitional);
    alpha/beta and the relation residuals are filled in per model kind. A
    failing closed route, or a qubit mixture's failing alpha/beta (under
    ``route_errors["alpha_beta"]``), is recorded in ``route_errors`` instead
    of aborting, and leaves no residual that reads it.
    """
    model, theta = pt.model, pt.theta
    s = pt.cached(sld)
    out = QuantumInfoResult(
        theta=theta,
        kind=model.kind,
        i_h_sld=pt.cached(helstrom_info_sld),
        i_wy_generic=pt.cached(wy_info_generic),
        score_mean=s.score_mean,
        diagnostics={
            "sqrt_route": pt.dsqrt.route,
            "fd_fallback": pt.dsqrt.fd_fallback,
            "support_dropped": s.support_dropped,
            "min_pair_sum": s.min_pair_sum,
        },
    )
    if model.kind == "qubit_mixture":
        try:
            out.alpha, out.beta = alpha_beta(*pt.cached(_qubit_ingredients)[:2])
        except (QcrbError, ValueError) as exc:  # as a failed closed route: recorded, not raised
            out.route_errors["alpha_beta"] = f"{type(exc).__name__}: {exc}"
    routes = closed_routes(model.kind)
    for name, route in routes.items():
        try:
            setattr(out, name, float(route.closed_fn(pt)))
        except (QcrbError, ValueError) as exc:  # a failed route must not abort the report
            out.route_errors[name] = f"{type(exc).__name__}: {exc}"
    res = out.residuals
    scale = max(1.0, out.i_h_sld)
    if model.kind == "pure":
        res["pure_doubling_abs"] = abs(out.i_wy_generic - 2.0 * out.i_h_sld)
        if out.i_h_sld > NEAR_ZERO_INFO:
            res["pure_doubling"] = res["pure_doubling_abs"] / out.i_h_sld
    if out.alpha is not None:
        res["prop1"] = float(abs(out.i_wy_generic - (out.alpha * out.i_h_sld + out.beta)) / scale)
    if out.gamma is not None:
        res["prop2"] = float(abs(out.i_wy_generic - out.i_h_sld - out.gamma) / scale)
    for name, route in routes.items():
        value = getattr(out, name)
        if value is not None and route.definitional is not None:
            definitional = pt.cached(route.definitional_fn)
            res["route_" + name.removesuffix("_closed")] = float(
                abs(value - definitional) / max(1.0, definitional)
            )
    if out.i_h_sld > NEAR_ZERO_INFO:
        out.sharp_bound = 1.0 / out.i_h_sld
    if out.i_wy_generic > NEAR_ZERO_INFO:
        out.approx_bound = 1.0 / out.i_wy_generic
    return out
