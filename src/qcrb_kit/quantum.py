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

``closed_routes(kind)`` is the one table of a kind's closed forms, each
named by its stage, and the definitional route each must match. The report
stage ``_report_stage`` reads it and is the one producer of the cross-route
and relation residuals, the core correctness surface: ``relation_report``
is a point's layer of it, the verify route and relation checks read that
report, and every CLI row reads the point's layer itself. Every route
takes a ``StatePoint`` (``model.at(theta)``, or a point of
``model.grid(thetas)``), and every number a route gives is a grid stage,
run once per grid block on the stacked arrays: the SLD solve,
tr{rho L^2}, 4 tr{[(sqrt rho)']^2}, a qubit mixture's w, w' and I_H1, each
closed form, alpha/beta, and the report, which only assembles the others'
columns. The stage that gives a number is the only place that checks it
(an information below the noise floor ``INFO_FLOOR`` raises there), and a
public route of one point, like every other reader, reads its layer of the
stage. The closed forms read the model's input stages
(``models._inputs_stage`` and ``_dinputs_stage``), never rho, drho or the
SLD, so the routes share only the model's inputs (rho, drho, frame). A
stacked formula keeps the bits of the scalar formula at each theta: sums
over a layer's trailing axes add in the layer's order, and a float squared
by ``x ** 2`` is squared by libm's pow (``np.float_power``), not by the
multiplication of an array's ``** 2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BoundaryRegularityError, DomainError, QcrbError
from .hermitian import (
    SUPPORT_TOL,
    HermitianMatrix,
    as_array,
    first_failing,
    hermitian_part,
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


def _checked_nonnegative(values: np.ndarray, label: str) -> np.ndarray:
    """``values``, one per theta, once none is below the noise floor ``INFO_FLOOR``; the
    first that is names the error."""
    i = first_failing(values < INFO_FLOOR)
    if i is not None:
        raise ValueError(f"{label} = {float(values[i])!r} below noise floor {INFO_FLOOR}")
    return values


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

    Independent of the eigenbasis solve: it reads only the eigenvalues, the
    projectors and drho. Used as a cross-check oracle for ``sld``. It takes
    one point, or a stack: eigenvalues (T, n), projectors (T, n, n) each and
    drho (T, n, n). A pair is skipped in each layer where its eigenvalues sum
    to the support tolerance or less, so every layer gets the bits of its
    sum alone.
    """
    d = as_array(drho)
    n = d.shape[-1]
    stack = d.reshape(-1, n, n)
    lam = np.asarray(eigenvalues, dtype=float).reshape(len(stack), n)
    ps = [np.reshape(p, stack.shape) for p in projectors]
    total = np.zeros_like(stack)
    for l, p_l in enumerate(ps):
        for k, p_k in enumerate(ps):
            denom = lam[:, l] + lam[:, k]
            keep = denom > SUPPORT_TOL
            if keep.any():
                coeff = np.divide(2.0, denom, out=np.zeros_like(denom), where=keep)
                np.add(total, coeff[:, None, None] * (p_l @ stack @ p_k), out=total, where=keep[:, None, None])
    return HermitianMatrix.of_checked(hermitian_part(total.reshape(d.shape)))


def _helstrom_stage(grid: StateGrid) -> tuple:
    rho, _ = grid.rho_stack()
    l_mat = grid.stage(_sld_stage)[0]
    return (_checked_nonnegative(real_trace_product([rho, l_mat, l_mat]), "Helstrom information"),)


def helstrom_info_sld(pt: StatePoint) -> float:
    """tr{rho L^2}: the definitional route, one stacked trace per grid."""
    return float(pt.layer(_helstrom_stage)[0])


def _pure_helstrom_traces(dp):
    """2 tr{(dP)^2} of each layer of a stack of projector derivatives: the pure-state
    Helstrom information, checked against the noise floor."""
    return _checked_nonnegative(2.0 * real_trace_product([dp, dp]), "pure Helstrom information")


def _pure_stage(grid: StateGrid) -> tuple:
    """The pure-state shortcut 2 tr{(dP)^2} of every theta: one stacked trace on the
    projector derivatives of the model's derivative inputs (the family's dpsi, or its
    states at theta +- fd_step)."""
    return (_pure_helstrom_traces(grid.stage(_dinputs_stage)[0]),)


def _qubit_stage(grid: StateGrid) -> tuple:
    """The weight w, its slope w' and I_H1 of psi1 of every theta, at the model's step.

    The three qubit closed forms and alpha/beta read this stage. It reads the
    model's input stages (the weight, its slope and psi1's projector
    derivative) and never rho, drho or the SLD, so the closed forms stay
    independent of the definitional routes. I_WY1 is 2 I_H1.
    """
    w = grid.stage(_inputs_stage)[0]
    dw, dp1 = grid.stage(_dinputs_stage)
    return w, dw, _pure_helstrom_traces(dp1)


# np.float_power squares as the scalar formula's float ``x ** 2`` does (libm's
# pow); an array's ``** 2`` multiplies, which differs in the last bit on some weights

def _helstrom_qubit_stage(grid: StateGrid) -> tuple:
    w, dw, ih1 = grid.stage(_qubit_stage)
    value = dw * dw / (w * (1.0 - w)) + np.float_power(2.0 * w - 1.0, 2) * ih1
    return (_checked_nonnegative(value, "closed-form Helstrom information"),)


def helstrom_info_qubit_closed(pt: StatePoint) -> float:
    """Weight-based closed form for the two-dimensional orthogonal mixture.

    (w')^2 / (w(1-w)) + (2w-1)^2 I_H1, where I_H1 is the Helstrom
    information of the first pure family. Finite for all w in (0,1),
    including w = 1/2. The point's layer of its grid's stage.
    """
    return float(pt.layer(_helstrom_qubit_stage)[0])


def _wy_qubit_stage(grid: StateGrid) -> tuple:
    w, dw, ih1 = grid.stage(_qubit_stage)
    value = dw * dw / (w * (1.0 - w)) + (1.0 - 2.0 * np.sqrt(w * (1.0 - w))) * (2.0 * ih1)
    return (_checked_nonnegative(value, "closed-form skew information"),)


def wy_info_qubit_closed(pt: StatePoint) -> float:
    """Weight-based closed form for the skew information of the mixture.

    (w')^2 / (w(1-w)) + (1 - 2 sqrt(w(1-w))) I_WY1; the point's layer of its grid's stage.
    """
    return float(pt.layer(_wy_qubit_stage)[0])


def _alpha_beta_formula(w, dw):
    root = 2.0 * np.sqrt(w * (1.0 - w))
    return 2.0 / (1.0 + root), -(1.0 - root) / (1.0 + root) * dw * dw / (w * (1.0 - w))


def alpha_beta(w: float, dw: float) -> tuple[float, float]:
    """Affine coefficients relating skew to Helstrom information in 2 dims.

    alpha = 2 / (1 + 2 sqrt(w(1-w))) lies in [1, 2], minimal at w = 1/2;
    beta = -(1 - 2 sqrt(w(1-w))) / (1 + 2 sqrt(w(1-w))) * (w')^2/(w(1-w))
    is nonpositive and vanishes for constant weights.
    """
    if not (0.0 < w < 1.0):
        raise DomainError(f"weight {w!r} outside (0, 1)")
    alpha, beta = _alpha_beta_formula(w, dw)
    return float(alpha), float(beta)


def _alpha_beta_stage(grid: StateGrid) -> tuple:
    """``alpha_beta`` of every theta's (w, w'), read from ``_qubit_stage``; the model's
    weight input already lies inside (0, 1)."""
    w, dw, _ = grid.stage(_qubit_stage)
    return _alpha_beta_formula(w, dw)


def _gamma_qubit_stage(grid: StateGrid) -> tuple:
    w, _, ih1 = grid.stage(_qubit_stage)
    return (np.float_power(1.0 - 2.0 * np.sqrt(w * (1.0 - w)), 2) * ih1,)


def gamma_qubit_closed(pt: StatePoint) -> float:
    """Two-dimensional gap I_WY - I_H = (1 - 2 sqrt(w(1-w)))^2 I_H1; the point's layer of its grid's stage."""
    return float(pt.layer(_gamma_qubit_stage)[0])


# The three spectral closed forms read the model's input stages: the
# eigenvalue weights lambda from ``_inputs_stage``, and their derivatives and
# the frame generator A = U^dagger dU from ``_dinputs_stage``, where each frame
# and weight is read once per theta. With D_k = U^dagger dP_k U = a_k e_k^T +
# e_k a_k^dagger (a_k column k of A), tr{P_l dP_k dP_z} = (D_k D_z)_{ll} and
# tr{dP_k dP_z} = tr{D_k D_z} reduce to sums over entries of A, so no
# projector is built. The forms below take one point's lambda (n,) and A
# (n, n), or a stack of them, (T, n) and (T, n, n); a stacked sum over the
# trailing axes adds in the order of a sum over one layer, so each layer
# keeps its bits.

def _projector_derivative_gram(a: np.ndarray) -> np.ndarray:
    """G[k, z] = tr{D_k D_z} = 2 delta_kz sum_i |A_ik|^2 - 2 |A_kz|^2."""
    sq = np.abs(a) ** 2
    gram = -2.0 * sq
    diag = np.arange(a.shape[-1])
    gram[..., diag, diag] += 2.0 * np.sum(sq, axis=-2)
    return gram


def _weighted_triple_sum(lam: np.ndarray, a: np.ndarray):
    """sum_{l!=k} c_lk sum_z lam_z tr{P_l dP_k dP_z}, a complex number per layer.

    c_lk = lam_l (lam_k - lam_l) / (lam_l + lam_k)^2, and 0 for pairs with
    lam_l + lam_k at or below the support tolerance. With
    E = sum_z lam_z D_z, so that E_kl = A_kl (lam_l - lam_k), the inner sum
    is (D_k E)_{ll} = A_lk E_kl for l != k.
    """
    row, col = lam[..., :, None], lam[..., None, :]
    pair = row + col
    keep = pair > SUPPORT_TOL
    diag = np.arange(lam.shape[-1])
    keep[..., diag, diag] = False
    coeff = np.zeros_like(pair)
    coeff[keep] = (row * (col - row))[keep] / pair[keep] ** 2
    e = a * (col - row)
    return np.sum(coeff * a * e.swapaxes(-1, -2), axis=(-2, -1))


def _pair_roots(lam: np.ndarray) -> np.ndarray:
    """sqrt(lam_l lam_k), 0 where a weight is at or below ``SUPPORT_TOL``: the support rule
    of ``sqrt_eigenvalues``, which the definitional route's square root follows."""
    dead = lam <= SUPPORT_TOL
    root = np.sqrt(lam[..., :, None] * lam[..., None, :])
    return np.where(dead[..., :, None] | dead[..., None, :], 0.0, root)


def _eigenweight_fisher(lam: np.ndarray, dlam: np.ndarray) -> np.ndarray:
    """sum (lam')^2 / lam over the support of each layer, added in eigenvalue order.

    A vanishing eigenvalue adds 0, which leaves the running sum's bits as
    they are; one whose derivative does not vanish raises, the first in
    C order naming the error.
    """
    dead = lam <= SUPPORT_TOL
    i = first_failing(dead & (np.abs(dlam) > VANISHING_SLOPE_ATOL))
    if i is not None:
        l = i % lam.shape[-1]
        raise BoundaryRegularityError(
            f"eigenvalue {l} vanishes while its derivative is {dlam.flat[i]:.3e}"
        )
    terms = np.divide(dlam * dlam, lam, out=np.zeros_like(lam), where=~dead)
    return np.add.accumulate(terms, axis=-1)[..., -1]


def _real_part(total: np.ndarray, sum_name: str) -> np.ndarray:
    """The real part of a complex sum per theta; the first imaginary residue above
    ``SUM_IMAG_ATOL`` names the error."""
    i = first_failing(np.abs(total.imag) > SUM_IMAG_ATOL)
    if i is not None:
        raise ValueError(f"{sum_name} has imaginary residue {total.imag[i]:.3e}")
    return total.real


def _helstrom_spectral_stage(grid: StateGrid) -> tuple:
    lam = grid.stage(_inputs_stage)[0]
    dlam, a = grid.stage(_dinputs_stage)
    total = _eigenweight_fisher(lam, dlam) + 4.0 * _weighted_triple_sum(lam, a)
    real = _real_part(total, "spectral Helstrom sum")
    return (_checked_nonnegative(real, "spectral Helstrom information"),)


def helstrom_info_spectral(pt: StatePoint) -> float:
    """Spectral closed form for the Helstrom information.

    sum_l (lam'_l)^2/lam_l
    + sum_l sum_{k!=l} sum_z 4 lam_l (lam_k - lam_l) lam_z / (lam_l+lam_k)^2
      * tr{P_l dP_k dP_z}.
    Eigenvalue pairs below the support tolerance are excluded. The point's
    layer of its grid's stage.
    """
    return float(pt.layer(_helstrom_spectral_stage)[0])


def _wy_spectral_stage(grid: StateGrid) -> tuple:
    lam = grid.stage(_inputs_stage)[0]
    dlam, a = grid.stage(_dinputs_stage)
    root = _pair_roots(lam)
    diag = np.arange(lam.shape[-1])
    root[:, diag, diag] = lam  # the pure-state terms lam_l I_WY,l
    skew = np.sum(root * _projector_derivative_gram(a), axis=(-2, -1))
    total = _eigenweight_fisher(lam, dlam) + 4.0 * skew
    return (_checked_nonnegative(total, "spectral skew information"),)


def wy_info_spectral(pt: StatePoint) -> float:
    """Spectral closed form for the skew information.

    sum_l lam_l I_WY,l + sum_l (lam'_l)^2/lam_l
    + 4 sum_l sum_{k!=l} sqrt(lam_l lam_k) tr{dP_l dP_k},
    with I_WY,l = 4 tr{(dP_l)^2} the pure-state skew information; sqrt is
    ``_pair_roots``. Every term is real. The point's layer of its grid's stage.
    """
    return float(pt.layer(_wy_spectral_stage)[0])


def _gamma_spectral_stage(grid: StateGrid) -> tuple:
    lam = grid.stage(_inputs_stage)[0]
    a = grid.stage(_dinputs_stage)[1]
    weight = lam[:, :, None] - _pair_roots(lam)
    diag = np.arange(lam.shape[-1])
    weight[:, diag, diag] = 0.0
    skew = np.sum(weight * _projector_derivative_gram(a), axis=(-2, -1))
    return (_real_part(-4.0 * (skew + _weighted_triple_sum(lam, a)), "gamma sum"),)


def gamma_spectral(pt: StatePoint) -> float:
    """Eigenvalue-based gap between skew and Helstrom information.

    gamma = -4 sum_l sum_{k!=l} [ (lam_l - sqrt(lam_l lam_k)) tr{dP_l dP_k}
            + sum_z lam_l (lam_k - lam_l) lam_z / (lam_l+lam_k)^2
              tr{P_l dP_k dP_z} ],
    and I_WY = I_H + gamma (sqrt is ``_pair_roots``). Vanishes when all
    eigenvalue weights coincide. The point's layer of its grid's stage.
    """
    return float(pt.layer(_gamma_spectral_stage)[0])


def _wy_stage(grid: StateGrid) -> tuple:
    x = grid.stage(_dsqrt_route_stage)[0]
    return (_checked_nonnegative(4.0 * real_trace_product([x, x]), "skew information"),)


def wy_info_generic(pt: StatePoint) -> float:
    """4 tr{[(sqrt rho)']^2}: the definitional skew-information route.

    One stacked trace per grid, on the square-root derivatives that
    ``pt.dsqrt`` reads, the finite-difference fallback included.
    """
    return float(pt.layer(_wy_stage)[0])


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
    ratio: float | None = None  # I_WY / I_H, None where I_H is near zero
    gap: float = 0.0  # I_WY - I_H
    residuals: dict[str, float] = field(default_factory=dict)
    route_errors: dict[str, str] = field(default_factory=dict)
    # how the definitional routes got their numbers: sqrt_route ("solve" |
    # "fd"), fd_fallback, support_dropped and min_pair_sum (the smallest
    # lam_i + lam_j kept in the SLD solve)
    diagnostics: dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class ClosedRoute:
    """A closed form's stage, and the report field of the definitional route it
    must agree with (None for gamma).

    ``closed`` is an attribute name in this module, looked up on each access
    of ``stage``, so a patched stage is the one that runs; the closed form at
    one point is ``pt.layer(route.stage)[0]``.
    A form that does not apply at a theta raises there: the report stage
    records the error of a grid of one, and a grid of more splits.
    """

    closed: str
    definitional: str | None = None

    @property
    def stage(self):
        return globals()[self.closed]


_CLOSED_ROUTES = {
    "pure": {"i_h_closed": ClosedRoute("_pure_stage", "i_h_sld")},
    "qubit_mixture": {
        "i_h_closed": ClosedRoute("_helstrom_qubit_stage", "i_h_sld"),
        "i_wy_closed": ClosedRoute("_wy_qubit_stage", "i_wy_generic"),
        "gamma": ClosedRoute("_gamma_qubit_stage"),
    },
    "spectral": {
        "i_h_closed": ClosedRoute("_helstrom_spectral_stage", "i_h_sld"),
        "i_wy_closed": ClosedRoute("_wy_spectral_stage", "i_wy_generic"),
        "gamma": ClosedRoute("_gamma_spectral_stage"),
    },
}


def closed_routes(kind: str) -> dict[str, ClosedRoute]:
    """The closed forms of a model kind, keyed by their ``QuantumInfoResult`` field.

    The one place that pairs a kind with its closed forms and each closed
    form with its definitional route; a kind without closed forms has none.
    A model that declares a kind provides what that kind's forms read.
    """
    return dict(_CLOSED_ROUTES.get(kind, {}))


# The columns of the report stage. A report's values; its residuals, as
# res_<key>, and res_relation, the kind's relation residual (the first the
# report has of pure_doubling, prop1, prop2 and pure_doubling_abs); its route
# errors, as error_<key>; and its diagnostics.
_VALUES = (
    "i_h_sld", "i_wy_generic", "i_h_closed", "i_wy_closed", "alpha", "beta", "gamma",
    "score_mean", "sharp_bound", "approx_bound", "ratio", "gap",
)
_RESIDUALS = ("pure_doubling_abs", "pure_doubling", "prop1", "prop2", "route_i_h", "route_i_wy")
_RELATIONS = ("pure_doubling", "prop1", "prop2", "pure_doubling_abs")
_ROUTE_ERRORS = ("alpha_beta", "i_h_closed", "i_wy_closed", "gamma")
_DIAGNOSTICS = ("sqrt_route", "fd_fallback", "support_dropped", "min_pair_sum")
REPORT_FIELDS = (
    "theta", "kind", *_VALUES,
    *("res_" + key for key in _RESIDUALS), "res_relation",
    *("error_" + key for key in _ROUTE_ERRORS), *_DIAGNOSTICS,
)


def _quotients(num, den: np.ndarray, where: np.ndarray) -> list:
    """num / den at each theta where ``where`` holds, and None elsewhere."""
    q = np.divide(num, den, out=np.zeros(den.shape), where=where).tolist()
    return [v if ok else None for v, ok in zip(q, where.tolist())]


def _scaled(dev: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """|dev| / max(1, scale) at each theta."""
    return np.abs(dev) / np.where(scale > 1.0, scale, 1.0)


def _report_stage(grid: StateGrid) -> tuple:
    """Every value, residual, route error and diagnostic of ``relation_report``, one
    column of builtin scalars per ``REPORT_FIELDS`` entry, each with one cell per theta.

    The definitional routes come first, and a theta where one fails fails
    the grid, as alone. Then alpha/beta of a qubit mixture and each closed
    form of ``closed_routes(kind)``, from the stage the table names: one that
    fails makes a grid of more than one theta raise, so that it splits and
    each theta records only its own error; a grid of one records it under
    ``error_<field>`` and leaves the value and every residual that reads it
    null. Each ``route_*`` residual is |closed - definitional| / max(1,
    definitional). The stage only assembles: every number is a stacked
    formula over the routes' stages, with the bits of the scalar one.
    """
    kind, size = grid.model.kind, len(grid.thetas)
    _, dropped, score, min_pair_sum = grid.stage(_sld_stage)
    i_h = grid.stage(_helstrom_stage)[0]
    i_wy = grid.stage(_wy_stage)[0]
    fell_back = grid.stage(_dsqrt_route_stage)[1]
    values = {"i_h_sld": i_h, "i_wy_generic": i_wy, "score_mean": score}
    cells = {}

    def closed(field_name: str, stage) -> tuple | None:
        try:
            return grid.stage(stage)
        except (QcrbError, ValueError) as exc:  # a failed route must not abort the report
            if size > 1:
                raise
            cells["error_" + field_name] = [f"{type(exc).__name__}: {exc}"]
            return None

    if kind == "qubit_mixture" and (coefficients := closed("alpha_beta", _alpha_beta_stage)):
        values["alpha"], values["beta"] = coefficients
    routes = closed_routes(kind)
    for name, route in routes.items():
        if (out := closed(name, route.stage)) is not None:
            values[name] = out[0]
    res = {}
    if kind == "pure":
        res["pure_doubling_abs"] = np.abs(i_wy - 2.0 * i_h)
        cells["res_pure_doubling"] = _quotients(res["pure_doubling_abs"], i_h, i_h > NEAR_ZERO_INFO)
    if "alpha" in values:
        res["prop1"] = _scaled(i_wy - (values["alpha"] * i_h + values["beta"]), i_h)
    if "gamma" in values:
        res["prop2"] = _scaled(i_wy - i_h - values["gamma"], i_h)
    for name, route in routes.items():
        if name in values and route.definitional is not None:
            definitional = values[route.definitional]
            res["route_" + name.removesuffix("_closed")] = _scaled(values[name] - definitional, definitional)
    cells.update({name: v.tolist() for name, v in values.items()})
    cells.update({"res_" + key: v.tolist() for key, v in res.items()})
    nulls = [None] * size
    relations = [cells.get("res_" + key, nulls) for key in _RELATIONS]
    cells.update(
        theta=list(grid.thetas),
        kind=[kind] * size,
        sharp_bound=_quotients(1.0, i_h, i_h > NEAR_ZERO_INFO),
        approx_bound=_quotients(1.0, i_wy, i_wy > NEAR_ZERO_INFO),
        ratio=_quotients(i_wy, i_h, i_h > NEAR_ZERO_INFO),
        gap=(i_wy - i_h).tolist(),
        res_relation=[next((r for r in rs if r is not None), None) for rs in zip(*relations)],
        sqrt_route=["fd" if f else "solve" for f in fell_back.tolist()],
        fd_fallback=fell_back.tolist(),
        support_dropped=dropped.tolist(),
        min_pair_sum=min_pair_sum.tolist(),
    )
    return tuple(cells.get(name, nulls) for name in REPORT_FIELDS)


def _route_errors(cells: dict) -> dict[str, str]:
    """The route errors of a point's report cells, keyed by route, in table order."""
    return {key: e for key in _ROUTE_ERRORS if (e := cells["error_" + key]) is not None}


def _report_cells(pt: StatePoint) -> dict:
    """The point's relation report by ``REPORT_FIELDS`` name: its layer of the grid's
    report stage, which runs once per grid block."""
    return dict(zip(REPORT_FIELDS, pt.layer(_report_stage)))


def relation_report(pt: StatePoint) -> QuantumInfoResult:
    """Every applicable route at theta and their residuals: the point's layer of its grid's
    ``_report_stage``.

    The definitional routes (SLD-based Helstrom, generic skew) always; each
    closed form of ``closed_routes(model.kind)`` and its ``route_*``
    residual; alpha/beta and the relation residuals per model kind. A
    failing closed route, or a qubit mixture's failing alpha/beta (under
    ``route_errors["alpha_beta"]``), is recorded in ``route_errors`` instead
    of aborting, and leaves no residual that reads it.
    """
    cells = _report_cells(pt)
    return QuantumInfoResult(
        theta=cells["theta"],
        kind=cells["kind"],
        **{name: cells[name] for name in _VALUES},
        residuals={key: r for key in _RESIDUALS if (r := cells["res_" + key]) is not None},
        route_errors=_route_errors(cells),
        diagnostics={key: cells[key] for key in _DIAGNOSTICS},
    )
