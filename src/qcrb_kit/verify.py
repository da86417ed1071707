"""Machine-checkable invariant suite over the builtin model catalog.

Every check returns a measured residual and a pass/fail against its
tolerance. Checks are classed ``analytic`` or ``fd`` depending on whether a
finite-difference ingredient is involved; the two classes can be tightened
independently (tightening the fd class below its truncation error fails
those checks by design). A catalog can be injected, which is how the tests
exercise corrupted models.

One suite run evaluates each (model, theta) state once: the checks read a
shared ``StatePoint`` from a run-wide table, and only the second route a
check exists to compare (a forced finite difference, the Jacobi solver,
the projector-sum SLD, the psd_sqrt difference) is computed afresh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import basis_povm, classical_fisher, random_povm
from .hermitian import (
    SUPPORT_TOL,
    HermitianMatrix,
    eigh,
    jacobi_eigh,
    psd_sqrt,
    real_trace_product,
    trace_product,
)
from .models import (
    DEFAULT_FD_STEP,
    ParametricStateModel,
    StatePoint,
    builtin_models,
    random_spectral_model,
)
from .quantum import (
    NEAR_ZERO_INFO,
    helstrom_info_pure,
    helstrom_info_qubit_closed,
    helstrom_info_sld,
    helstrom_info_spectral,
    relation_report,
    sld,
    sld_spectral_sum,
    wy_info_generic,
    wy_info_pure,
    wy_info_qubit_closed,
    wy_info_spectral,
)
from .simulate import SimConfig, exact_estimator_moments, run_sim

BOUNDARY_RATIO_CAP = 50.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    kind: str  # "analytic" | "fd"
    residual: float | None
    tol: float
    passed: bool
    detail: str = ""
    error: str | None = None

    def to_row(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "residual": self.residual,
            "tol": self.tol,
            "passed": self.passed,
            "detail": self.detail if self.error is None else self.error,
        }


@dataclass(frozen=True)
class VerifyOptions:
    tol_analytic: float | None = None
    tol_fd: float | None = None
    fd_step: float = DEFAULT_FD_STEP
    seed: int = 20260810


class _PointTable:
    """One StatePoint per (model, theta, h) for a whole suite run.

    Keyed on the model objects themselves, which the table keeps alive: an
    id() key could be reused by a later temporary model once the first one
    is collected, and hand that model the wrong point.
    """

    def __init__(self):
        self._points: dict[tuple, StatePoint] = {}

    def at(self, model: ParametricStateModel, theta: float, h: float | None = None) -> StatePoint:
        key = (model, theta, h)
        point = self._points.get(key)
        if point is None:
            point = self._points[key] = model.at(theta, h)
        return point


def _models(catalog, kinds=None, analytic=None):
    for name in sorted(catalog):
        m = catalog[name]
        if kinds is not None and m.kind not in kinds:
            continue
        if analytic is not None and m.has_analytic_derivative is not analytic:
            continue
        yield name, m


def _worst(residual, detail, candidate, where):
    if candidate > residual:
        return candidate, where
    return residual, detail


# --- kernel checks ----------------------------------------------------------

def _check_eigh_reconstruction(catalog, opts, points):
    # reconstruction and orthonormality of the LAPACK solver, and its
    # eigenvalues against the reference Jacobi solver
    rng = np.random.default_rng(opts.seed)
    worst, detail = 0.0, ""
    for trial in range(20):
        n = int(rng.integers(2, 9))
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = HermitianMatrix((g + g.conj().T) / 2.0)
        dec = eigh(m)
        scale = max(1.0, np.linalg.norm(m.mat))
        rec = np.linalg.norm(dec.reconstruct() - m.mat) / scale
        orth = np.linalg.norm(dec.eigenvectors.conj().T @ dec.eigenvectors - np.eye(n))
        ref = np.max(np.abs(dec.eigenvalues - jacobi_eigh(m).eigenvalues)) / scale
        worst, detail = _worst(worst, detail, max(rec, orth, ref), f"trial {trial} (n={n})")
    return worst, detail


def _check_psd_sqrt_composition(catalog, opts, points):
    worst, detail = 0.0, ""
    for name, model in _models(catalog):
        for theta in model.sample_thetas:
            rho = points.at(model, theta).rho
            root = psd_sqrt(rho)
            dev = float(np.linalg.norm(root.mat @ root.mat - rho.mat))
            worst, detail = _worst(worst, detail, dev, f"{name} theta={theta:g}")
    return worst, detail


def _check_solve_involution(catalog, opts, points):
    worst, detail = 0.0, ""
    for name, model in _models(catalog):
        for theta in model.sample_thetas:
            pt = points.at(model, theta)
            rho, drho = pt.rho, pt.drho
            l_mat = pt.cached(sld).matrix
            resid = 0.5 * (rho.mat @ l_mat.mat + l_mat.mat @ rho.mat) - drho.mat
            dec = rho.decomposition
            r_tilde = dec.eigenvectors.conj().T @ resid @ dec.eigenvectors
            lam = dec.eigenvalues
            keep = (lam[:, None] + lam[None, :]) > SUPPORT_TOL
            dev = float(np.linalg.norm(r_tilde[keep]))
            worst, detail = _worst(worst, detail, dev, f"{name} theta={theta:g}")
    return worst, detail


def _check_phase_invariance(catalog, opts, points):
    rng = np.random.default_rng(opts.seed + 1)
    worst, detail = 0.0, ""
    for name, model in _models(catalog, kinds=("qubit_mixture", "spectral")):
        theta = model.sample_thetas[1]
        pt = points.at(model, theta)
        rho, drho = pt.rho, pt.drho
        dec = rho.decomposition
        base_projs = dec.projectors()
        l_base = sld_spectral_sum(dec.eigenvalues, base_projs, drho)
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=rho.dim))
        scrambled = dec.eigenvectors * phases
        projs = [np.outer(scrambled[:, j], scrambled[:, j].conj()) for j in range(rho.dim)]
        l_scr = sld_spectral_sum(dec.eigenvalues, projs, drho)
        base = real_trace_product([rho, l_base, l_base])
        scr = real_trace_product([rho, l_scr, l_scr])
        worst, detail = _worst(worst, detail, abs(base - scr), f"{name} theta={theta:g}")
    return worst, detail


# --- model checks -----------------------------------------------------------

def _check_trace_one(catalog, opts, points):
    worst, detail = 0.0, ""
    for name, model in _models(catalog):
        for theta in model.sample_thetas:
            dev = abs(float(np.trace(points.at(model, theta).rho.mat).real) - 1.0)
            worst, detail = _worst(worst, detail, dev, f"{name} theta={theta:g}")
    return worst, detail


def _drho_traceless(catalog, opts, points, analytic):
    worst, detail = 0.0, ""
    for name, model in _models(catalog, analytic=analytic):
        for theta in model.sample_thetas:
            dev = abs(float(np.trace(points.at(model, theta).drho.mat).real))
            worst, detail = _worst(worst, detail, dev, f"{name} theta={theta:g}")
    return worst, detail


def _check_drho_route_agreement(catalog, opts, points):
    worst, detail = 0.0, ""
    for name, model in _models(catalog, analytic=True):
        for theta in model.sample_thetas:
            a = points.at(model, theta).drho.mat
            b = model.drho(theta, force_fd=True).mat
            worst, detail = _worst(
                worst, detail, float(np.linalg.norm(a - b)), f"{name} theta={theta:g}"
            )
    return worst, detail


def _check_dsqrt_route_agreement(catalog, opts, points):
    worst, detail = 0.0, ""
    for name, model in _models(catalog):
        for theta in model.sample_thetas:
            a = points.at(model, theta).dsqrt.matrix.mat
            b = model.dsqrt_rho(theta, force_fd=True).matrix.mat
            dev = float(np.linalg.norm(a - b)) / max(1.0, float(np.linalg.norm(a)))
            worst, detail = _worst(worst, detail, dev, f"{name} theta={theta:g}")
    return worst, detail


def _check_qubit_complement(catalog, opts, points):
    # projector identity for every canonical mixture; the derivative identity
    # only where psi1 has an analytic derivative (differencing a psi2 that was
    # itself built by differences measures rounding jitter, not the identity)
    worst, detail = 0.0, ""
    h = opts.fd_step
    for name, model in _models(catalog, kinds=("qubit_mixture",)):
        if not model.canonical:
            continue
        for theta in model.sample_thetas:
            p1 = model.psi1.projector(theta)
            p2 = model.psi2(theta).projector()
            dev = float(np.linalg.norm(p2 - (np.eye(2) - p1)))
            if model.psi1.dpsi is not None:
                def p2_of(t):
                    return model.psi2(t).projector()

                dp1 = model.psi1.projector_derivative(theta, h)
                dp2 = (p2_of(theta + h) - p2_of(theta - h)) / (2.0 * h)
                dev = max(dev, float(np.linalg.norm(dp1 + dp2)))
            worst, detail = _worst(worst, detail, dev, f"{name} theta={theta:g}")
    return worst, detail


def _check_orthogonal_trace_identities(catalog, opts, points):
    # tr{rho_k drho_h} = 0 for pure components of the mixtures
    worst, detail = 0.0, ""
    h = opts.fd_step
    for name, model in _models(catalog, kinds=("qubit_mixture",)):
        if not model.canonical:
            continue
        for theta in model.sample_thetas:
            p1 = model.psi1.projector(theta)
            p2 = model.psi2(theta).projector()
            dp1 = model.psi1.projector_derivative(theta, h)
            dp2 = (model.psi2(theta + h).projector() - model.psi2(theta - h).projector()) / (2.0 * h)
            for pk in (p1, p2):
                for dp in (dp1, dp2):
                    dev = abs(trace_product([pk, dp]))
                    worst, detail = _worst(worst, detail, dev, f"{name} theta={theta:g}")
    return worst, detail


def _check_spectral_identities(catalog, opts, points):
    worst, detail = 0.0, ""
    for name, model in _models(catalog, kinds=("spectral",)):
        for theta in model.sample_thetas:
            projs = model.projectors_at(theta)
            dprojs = model.dprojectors_at(theta)
            n = model.dim
            dev = float(np.linalg.norm(sum(dprojs)))
            for l in range(n):
                dev = max(dev, abs(trace_product([projs[l], dprojs[l], projs[l], dprojs[l]])))
                for m in range(n):
                    if m == l:
                        continue
                    dev = max(
                        dev,
                        float(np.linalg.norm(projs[l] @ dprojs[m] + dprojs[l] @ projs[m])),
                    )
            worst, detail = _worst(worst, detail, dev, f"{name} theta={theta:g}")
    return worst, detail


def _check_weight_boundary_regularity(catalog, opts, points):
    worst, detail = 0.0, ""
    for name, model in _models(catalog, kinds=("qubit_mixture",)):
        ratio = model.weight.boundary_regularity_ratio(model.sample_thetas, opts.fd_step)
        worst, detail = _worst(worst, detail, ratio, name)
    return worst, detail


# --- information checks -----------------------------------------------------

def _score_zero(catalog, opts, points, analytic):
    worst, detail = 0.0, ""
    for name, model in _models(catalog, analytic=analytic):
        for theta in model.sample_thetas:
            dev = abs(points.at(model, theta).cached(sld).score_mean)
            worst, detail = _worst(worst, detail, dev, f"{name} theta={theta:g}")
    return worst, detail


def _pure_doubling(catalog, opts, points, analytic):
    worst, detail = 0.0, ""
    for name, model in _models(catalog, kinds=("pure",), analytic=analytic):
        for theta in model.sample_thetas:
            pt = points.at(model, theta)
            i_h = helstrom_info_sld(pt)
            if i_h <= NEAR_ZERO_INFO:
                continue
            dev = abs(wy_info_generic(pt) / i_h - 2.0)
            worst, detail = _worst(worst, detail, dev, f"{name} theta={theta:g}")
    return worst, detail


def _sld_vs_spectral_sum(catalog, opts, points):
    worst, detail = 0.0, ""
    for name, model in _models(catalog):
        for theta in model.sample_thetas:
            pt = points.at(model, theta)
            rho, drho = pt.rho, pt.drho
            a = pt.cached(sld).matrix.mat
            dec = rho.decomposition
            b = sld_spectral_sum(dec.eigenvalues, dec.projectors(), drho).mat
            worst, detail = _worst(
                worst, detail, float(np.linalg.norm(a - b)), f"{name} theta={theta:g}"
            )
    return worst, detail


def _qubit_routes_h(catalog, opts, points, analytic):
    worst, detail = 0.0, ""
    for name, model in _models(catalog, kinds=("qubit_mixture",), analytic=analytic):
        if not model.canonical:
            continue
        for theta in model.sample_thetas:
            a = helstrom_info_qubit_closed(model, theta)
            b = helstrom_info_sld(points.at(model, theta))
            dev = abs(a - b) / max(1.0, b)
            worst, detail = _worst(worst, detail, dev, f"{name} theta={theta:g}")
    return worst, detail


def _qubit_routes_wy(catalog, opts, points, analytic):
    worst, detail = 0.0, ""
    for name, model in _models(catalog, kinds=("qubit_mixture",), analytic=analytic):
        for theta in model.sample_thetas:
            a = wy_info_qubit_closed(model, theta)
            b = wy_info_generic(points.at(model, theta))
            dev = abs(a - b) / max(1.0, b)
            worst, detail = _worst(worst, detail, dev, f"{name} theta={theta:g}")
    return worst, detail


def _extra_spectral_models(opts):
    return [
        (f"spectral-extra-{n}", random_spectral_model(opts.seed + 10 * n, n))
        for n in range(2, 7)
    ]


def _spectral_routes_h(catalog, opts, points):
    worst, detail = 0.0, ""
    pairs = list(_models(catalog, kinds=("spectral",))) + _extra_spectral_models(opts)
    for name, model in pairs:
        for theta in model.sample_thetas[:3]:
            pt = points.at(model, theta)
            a = helstrom_info_spectral(pt)
            b = helstrom_info_sld(pt)
            dev = abs(a - b) / max(1.0, b)
            worst, detail = _worst(worst, detail, dev, f"{name} theta={theta:g}")
    return worst, detail


def _spectral_routes_wy(catalog, opts, points):
    worst, detail = 0.0, ""
    pairs = list(_models(catalog, kinds=("spectral",))) + _extra_spectral_models(opts)
    for name, model in pairs:
        for theta in model.sample_thetas[:3]:
            pt = points.at(model, theta)
            a = wy_info_spectral(pt)
            b = wy_info_generic(pt)
            dev = abs(a - b) / max(1.0, b)
            worst, detail = _worst(worst, detail, dev, f"{name} theta={theta:g}")
    return worst, detail


def _prop1(catalog, opts, points, analytic):
    worst, detail = 0.0, ""
    for name, model in _models(catalog, kinds=("qubit_mixture",), analytic=analytic):
        if not model.canonical:
            continue
        for theta in model.sample_thetas:
            report = relation_report(points.at(model, theta))
            worst, detail = _worst(
                worst, detail, report.residuals["prop1"], f"{name} theta={theta:g}"
            )
    return worst, detail


def _prop2_spectral(catalog, opts, points):
    worst, detail = 0.0, ""
    pairs = list(_models(catalog, kinds=("spectral",))) + _extra_spectral_models(opts)
    for name, model in pairs:
        for theta in model.sample_thetas[:3]:
            report = relation_report(points.at(model, theta))
            worst, detail = _worst(
                worst, detail, report.residuals["prop2"], f"{name} theta={theta:g}"
            )
    return worst, detail


def _ratio_ordering(catalog, opts, points):
    # constant weights only: there alpha in [1,2] and beta = 0
    worst, detail = 0.0, ""
    for name, model in _models(catalog, kinds=("qubit_mixture",)):
        for theta in model.sample_thetas:
            if abs(model.weight.slope(theta, opts.fd_step)) > 1e-12:
                continue
            pt = points.at(model, theta)
            i_h = helstrom_info_sld(pt)
            if i_h <= NEAR_ZERO_INFO:
                continue
            ratio = wy_info_generic(pt) / i_h
            dev = max(0.0, 1.0 - ratio, ratio - 2.0)
            worst, detail = _worst(worst, detail, dev, f"{name} theta={theta:g}")
    return worst, detail


def _monotone_gap(catalog, opts, points):
    from .models import rotation_mixture

    theta = 0.3
    gaps = []
    for w in np.arange(0.5, 0.99, 0.02):
        pt = rotation_mixture(float(w)).at(theta)
        gaps.append(wy_info_generic(pt) - helstrom_info_sld(pt))
    worst, detail = 0.0, ""
    for i in range(1, len(gaps)):
        worst, detail = _worst(worst, detail, gaps[i - 1] - gaps[i], f"step {i}")
    return worst, detail


def _mixing_information_loss(catalog, opts, points):
    worst, detail = 0.0, ""
    for name, model in _models(catalog, kinds=("qubit_mixture",)):
        for theta in model.sample_thetas:
            if abs(model.weight.slope(theta, opts.fd_step)) > 1e-12:
                continue
            pt = points.at(model, theta)
            excess_h = helstrom_info_sld(pt) - helstrom_info_pure(model.psi1, theta)
            excess_wy = wy_info_generic(pt) - wy_info_pure(model.psi1, theta)
            worst, detail = _worst(
                worst, detail, max(excess_h, excess_wy), f"{name} theta={theta:g}"
            )
    return worst, detail


# --- measurement checks -----------------------------------------------------

def _check_povm_completeness(catalog, opts, points):
    worst, detail = 0.0, ""
    rng = np.random.default_rng(opts.seed + 2)
    for trial in range(12):
        dim = int(rng.integers(2, 5))
        n_eff = int(rng.integers(1, 6))
        povm = random_povm(dim, n_eff, int(rng.integers(0, 2**31)))
        dev = float(np.linalg.norm(sum(m.mat for m in povm) - np.eye(dim)))
        worst, detail = _worst(worst, detail, dev, f"trial {trial} dim={dim} k={n_eff}")
    return worst, detail


def _score_sum(catalog, opts, points, analytic):
    from .classical import outcome_scores

    worst, detail = 0.0, ""
    rng = np.random.default_rng(opts.seed + 3)
    for name, model in _models(catalog, analytic=analytic):
        povm = random_povm(model.dim, 3, int(rng.integers(0, 2**31)))
        for theta in model.sample_thetas[:3]:
            dev = abs(float(np.sum(outcome_scores(points.at(model, theta), povm))))
            worst, detail = _worst(worst, detail, dev, f"{name} theta={theta:g}")
    return worst, detail


def _information_inequality(catalog, opts, points):
    worst, detail = 0.0, ""
    rng = np.random.default_rng(opts.seed + 4)
    for name, model in _models(catalog):
        theta = model.sample_thetas[2]
        pt = points.at(model, theta)
        i_h = helstrom_info_sld(pt)
        for _ in range(4):
            povm = random_povm(model.dim, int(rng.integers(2, 6)), int(rng.integers(0, 2**31)))
            i = classical_fisher(pt, povm)
            worst, detail = _worst(worst, detail, i - i_h, f"{name} theta={theta:g}")
    return worst, detail


def _coarse_graining(catalog, opts, points):
    worst, detail = 0.0, ""
    rng = np.random.default_rng(opts.seed + 5)
    for name, model in _models(catalog, kinds=("pure", "qubit_mixture")):
        pt = points.at(model, model.sample_thetas[1])
        povm = random_povm(model.dim, 4, int(rng.integers(0, 2**31)))
        base = classical_fisher(pt, povm)
        i, j = sorted(rng.choice(4, size=2, replace=False))
        merged = classical_fisher(pt, povm.merged(int(i), int(j)))
        worst, detail = _worst(worst, detail, merged - base, f"{name} merge ({i},{j})")
    return worst, detail


# --- estimation checks ------------------------------------------------------

def _estimator_exact_variance(catalog, opts, points):
    from .models import rotation_mixture

    worst, detail = 0.0, ""
    cases = [
        ("qubit-rotation", catalog.get("qubit-rotation"), basis_povm(2)),
        ("mixture-w0.9", catalog.get("mixture-w0.9"), random_povm(2, 3, opts.seed + 6)),
    ]
    for name, model, povm in cases:
        if model is None:
            model = rotation_mixture(0.9)
        theta = 0.3
        pt = points.at(model, theta)
        mean, var = exact_estimator_moments(pt, povm)
        i = classical_fisher(pt, povm)
        dev = max(abs(mean - theta), abs(var - 1.0 / i))
        worst, detail = _worst(worst, detail, dev, name)
    return worst, detail


def _sim_bound_chain(catalog, opts, points):
    model = catalog.get("qubit-rotation")
    if model is None:
        raise ValueError("catalog lacks qubit-rotation")
    cfg = SimConfig(model=model, povm=basis_povm(2), theta0=0.3, n_samples=20_000, seed=opts.seed)
    result = run_sim(cfg)
    dev = max(
        result.qcrb - result.crb,
        result.crb - result.empirical_var - 3.0 * result.standard_error_of_var,
    )
    return max(dev, 0.0), f"var={result.empirical_var:.5f} crb={result.crb:.5f}"


def _sim_reproducibility(catalog, opts, points):
    model = catalog.get("qubit-rotation")
    if model is None:
        raise ValueError("catalog lacks qubit-rotation")
    cfg = SimConfig(model=model, povm=basis_povm(2), theta0=0.3, n_samples=1_000, seed=opts.seed)
    a, b = run_sim(cfg), run_sim(cfg)
    return (0.0 if a == b else 1.0), "two runs with one seed"


_CHECKS = [
    ("eigh-reconstruction", "analytic", 1e-10, _check_eigh_reconstruction),
    ("psd-sqrt-composition", "analytic", 1e-9, _check_psd_sqrt_composition),
    ("solve-involution", "analytic", 1e-9, _check_solve_involution),
    ("eigenvector-phase-invariance", "analytic", 1e-10, _check_phase_invariance),
    ("state-trace-one", "analytic", 1e-10, _check_trace_one),
    ("drho-traceless-analytic", "analytic", 1e-8, lambda c, o, p: _drho_traceless(c, o, p, True)),
    ("drho-traceless-fd", "fd", 1e-8, lambda c, o, p: _drho_traceless(c, o, p, False)),
    ("drho-route-agreement", "fd", 1e-7, _check_drho_route_agreement),
    ("dsqrt-route-agreement", "fd", 1e-6, _check_dsqrt_route_agreement),
    ("qubit-complement-identities", "fd", 1e-9, _check_qubit_complement),
    ("orthogonal-component-scores", "fd", 1e-9, _check_orthogonal_trace_identities),
    ("spectral-identities", "analytic", 1e-9, _check_spectral_identities),
    ("weight-boundary-regularity", "analytic", BOUNDARY_RATIO_CAP, _check_weight_boundary_regularity),
    ("score-zero-analytic", "analytic", 1e-9, lambda c, o, p: _score_zero(c, o, p, True)),
    ("score-zero-fd", "fd", 1e-9, lambda c, o, p: _score_zero(c, o, p, False)),
    ("sld-vs-spectral-sum", "analytic", 1e-10, _sld_vs_spectral_sum),
    ("pure-doubling-analytic", "analytic", 1e-9, lambda c, o, p: _pure_doubling(c, o, p, True)),
    ("pure-doubling-fd", "fd", 1e-6, lambda c, o, p: _pure_doubling(c, o, p, False)),
    ("qubit-route-h-analytic", "analytic", 1e-8, lambda c, o, p: _qubit_routes_h(c, o, p, True)),
    ("qubit-route-h-fd", "fd", 1e-7, lambda c, o, p: _qubit_routes_h(c, o, p, False)),
    ("qubit-route-wy-analytic", "analytic", 1e-8, lambda c, o, p: _qubit_routes_wy(c, o, p, True)),
    ("qubit-route-wy-fd", "fd", 1e-6, lambda c, o, p: _qubit_routes_wy(c, o, p, False)),
    ("spectral-route-h", "analytic", 1e-7, _spectral_routes_h),
    ("spectral-route-wy", "analytic", 1e-6, _spectral_routes_wy),
    ("prop1-identity-analytic", "analytic", 1e-7, lambda c, o, p: _prop1(c, o, p, True)),
    ("prop1-identity-fd", "fd", 1e-6, lambda c, o, p: _prop1(c, o, p, False)),
    ("prop2-identity", "analytic", 1e-7, _prop2_spectral),
    ("wy-h-ratio-ordering", "analytic", 1e-6, _ratio_ordering),
    ("monotone-gap-in-weight", "analytic", 1e-12, _monotone_gap),
    ("mixing-information-loss", "analytic", 1e-9, _mixing_information_loss),
    ("povm-completeness", "analytic", 1e-10, _check_povm_completeness),
    ("score-sum-analytic", "analytic", 1e-8, lambda c, o, p: _score_sum(c, o, p, True)),
    ("score-sum-fd", "fd", 1e-8, lambda c, o, p: _score_sum(c, o, p, False)),
    ("information-inequality", "analytic", 1e-9, _information_inequality),
    ("coarse-graining-monotone", "analytic", 1e-9, _coarse_graining),
    ("estimator-exact-variance", "analytic", 1e-9, _estimator_exact_variance),
    ("sim-bound-chain", "analytic", 1e-12, _sim_bound_chain),
    ("sim-reproducibility", "analytic", 1e-12, _sim_reproducibility),
]


def check_names() -> list[str]:
    return [name for name, _, _, _ in _CHECKS]


def run_suite(
    catalog: dict[str, ParametricStateModel] | None = None,
    options: VerifyOptions | None = None,
) -> list[CheckResult]:
    """Run every invariant check; a raising check fails with its error recorded."""
    catalog = builtin_models() if catalog is None else catalog
    opts = options or VerifyOptions()
    points = _PointTable()
    results = []
    for name, kind, default_tol, fn in _CHECKS:
        tol = default_tol
        if kind == "analytic" and opts.tol_analytic is not None:
            tol = opts.tol_analytic
        if kind == "fd" and opts.tol_fd is not None:
            tol = opts.tol_fd
        try:
            residual, detail = fn(catalog, opts, points)
        except Exception as exc:  # noqa: BLE001 - failures are results, not crashes
            results.append(
                CheckResult(
                    name=name,
                    kind=kind,
                    residual=None,
                    tol=tol,
                    passed=False,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
            continue
        results.append(
            CheckResult(
                name=name,
                kind=kind,
                residual=float(residual),
                tol=tol,
                passed=bool(residual <= tol),
                detail=detail,
            )
        )
    return results


def all_passed(results) -> bool:
    return all(r.passed for r in results)
