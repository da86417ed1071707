"""Machine-checkable invariant suite over the builtin model catalog.

Every check returns a measured residual and a pass/fail against its
tolerance. Checks are classed ``analytic`` or ``fd`` depending on whether a
finite-difference ingredient is involved; the two classes can be tightened
independently (tightening the fd class below its truncation error fails
those checks by design). A catalog can be injected, which is how the tests
exercise corrupted models.

One suite run evaluates each (model, theta) state once: the checks read a
shared ``StatePoint`` from a run-wide table, and only the second route a
check exists to compare (a forced finite difference, the projector-sum
SLD, the psd_sqrt difference) is computed afresh. ``eigh-reconstruction``
holds LAPACK's eigenvalues against the power sums tr(M^k) of its matrices,
so no second eigensolver runs. A check that measures one residual per
sampled (model, theta) point is a ``_PointCheck`` row: a residual function
plus the selection of models and thetas it runs over, with the
worst-residual loop written once. The route and relation checks read the
residuals of the point's one ``relation_report``, the numbers the CLI
emits, rather than recomputing them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .classical import basis_povm, classical_fisher, outcome_scores, random_povm
from .errors import QcrbError
from .hermitian import (
    SUPPORT_TOL,
    HermitianMatrix,
    eigh,
    psd_sqrt,
    real_trace_product,
    trace_product,
)
from .models import (
    DEFAULT_FD_STEP,
    DEFAULT_SEED,
    ParametricStateModel,
    StatePoint,
    _central_difference,
    builtin_models,
    random_spectral_model,
    rotation_mixture,
)
from .quantum import (
    NEAR_ZERO_INFO,
    _qubit_ingredients,
    helstrom_info_sld,
    relation_report,
    sld,
    sld_spectral_sum,
    wy_info_generic,
)
from .simulate import SimConfig, exact_estimator_moments, run_sim

BOUNDARY_RATIO_CAP = 50.0
# a weight slope at or below this counts as a constant weight
CONSTANT_WEIGHT_SLOPE_ATOL = 1e-12


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
    seed: int = DEFAULT_SEED


class _PointTable:
    """One StatePoint per (model, theta) for a whole suite run.

    Keyed on the model objects themselves, which the table keeps alive: an
    id() key could be reused by a later temporary model once the first one
    is collected, and hand that model the wrong point. The run's extra
    seeded spectral models live here too, so their points are shared as well.
    """

    def __init__(self, extra_spectral=()):
        self._points: dict[tuple, StatePoint] = {}
        self.extra_spectral = list(extra_spectral)

    def at(self, model: ParametricStateModel, theta: float) -> StatePoint:
        key = (model, theta)
        point = self._points.get(key)
        if point is None:
            point = self._points[key] = model.at(theta)
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


def _extra_spectral_models(opts):
    return [
        (f"spectral-extra-{n}", random_spectral_model(opts.seed + 10 * n, n, fd_step=opts.fd_step))
        for n in range(2, 7)
    ]


@dataclass(frozen=True)
class _PointCheck:
    """The worst of ``residual(point)`` over sampled points.

    The fields select the points: catalog models of the given ``kinds`` and
    derivative class (``analytic``), the first ``first_thetas`` sample
    thetas, and the run's extra spectral models. A residual of None skips
    its point. The driver hands each residual function its point unread, so
    an evaluation fault shows only in the checks that read the state.
    """

    residual: Callable[[StatePoint], float | None]
    kinds: tuple[str, ...] | None = None
    analytic: bool | None = None
    first_thetas: int | None = None
    with_extra_spectral: bool = False

    def __call__(self, catalog, opts, points):
        pairs = list(_models(catalog, self.kinds, self.analytic))
        if self.with_extra_spectral:
            pairs += points.extra_spectral
        worst, detail = 0.0, ""
        for name, model in pairs:
            for theta in model.sample_thetas[:self.first_thetas]:
                dev = self.residual(points.at(model, theta))
                if dev is not None:
                    worst, detail = _worst(worst, detail, dev, f"{name} theta={theta:g}")
        return worst, detail


def _constant_weight_at(pt) -> bool:
    # the constant-weight facts (alpha in [1,2], beta = 0, mixing loses
    # information) hold only where the weight does not move
    return abs(pt.model.weight.slope(pt.theta, pt.model.fd_step)) <= CONSTANT_WEIGHT_SLOPE_ATOL


# --- kernel checks ----------------------------------------------------------

def _power_sum_gap(mat, lam, scale):
    # max over k = 1..n of |tr(M^k) - sum lam^k| / scale^k, from matmuls and
    # traces alone; for n eigenvalues these n power sums fix the spectrum
    gap, power = 0.0, np.eye(len(lam))
    for k in range(1, len(lam) + 1):
        power = power @ mat
        gap = max(gap, abs(np.trace(power) - np.sum(lam**k)) / scale**k)
    return gap


def _check_eigh_reconstruction(catalog, opts, points):
    # reconstruction and orthonormality of the LAPACK solver, and its
    # eigenvalues against the power sums of the matrix; power sums do not
    # see order, so ascending order is a term of its own
    rng = np.random.default_rng(opts.seed)
    worst, detail = 0.0, ""
    for trial in range(20):
        n = int(rng.integers(2, 9))
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = HermitianMatrix((g + g.conj().T) / 2.0)
        dec = eigh(m)
        lam = dec.eigenvalues
        scale = max(1.0, np.linalg.norm(m.mat))
        rec = np.linalg.norm(dec.reconstruct() - m.mat) / scale
        orth = np.linalg.norm(dec.eigenvectors.conj().T @ dec.eigenvectors - np.eye(n))
        ref = _power_sum_gap(m.mat, lam, scale)
        order = max(0.0, -float(np.min(np.diff(lam))))
        worst, detail = _worst(worst, detail, max(rec, orth, ref, order), f"trial {trial} (n={n})")
    return worst, detail


def _psd_sqrt_composition(pt):
    root = psd_sqrt(pt.rho)
    return float(np.linalg.norm(root.mat @ root.mat - pt.rho.mat))


def _solve_involution(pt):
    rho, drho = pt.rho, pt.drho
    l_mat = pt.cached(sld).matrix
    resid = 0.5 * (rho.mat @ l_mat.mat + l_mat.mat @ rho.mat) - drho.mat
    dec = rho.decomposition
    r_tilde = dec.eigenvectors.conj().T @ resid @ dec.eigenvectors
    lam = dec.eigenvalues
    keep = (lam[:, None] + lam[None, :]) > SUPPORT_TOL
    return float(np.linalg.norm(r_tilde[keep]))


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

def _trace_one(pt):
    return abs(float(np.trace(pt.rho.mat).real) - 1.0)


def _drho_traceless(pt):
    return abs(float(np.trace(pt.drho.mat).real))


def _drho_route_agreement(pt):
    b = pt.model.drho(pt.theta, force_fd=True).mat
    return float(np.linalg.norm(pt.drho.mat - b))


def _dsqrt_route_agreement(pt):
    a = pt.dsqrt.matrix.mat
    b = pt.model.dsqrt_rho(pt.theta, force_fd=True).matrix.mat
    return float(np.linalg.norm(a - b)) / max(1.0, float(np.linalg.norm(a)))


def _mixture_components(pt):
    """p1, p2 = |psi1><psi1|, |psi2><psi2| and their derivatives dp1, dp2.

    dp2 differences the canonical psi2, independently of psi1's derivative.
    """
    model, theta, h = pt.model, pt.theta, pt.model.fd_step
    p1 = model.psi1.projector(theta)
    p2 = model.psi2(theta).projector()
    dp1 = model.psi1.projector_derivative(theta, h)
    dp2 = _central_difference(lambda t: model.psi2(t).projector(), theta, h)
    return p1, p2, dp1, dp2


def _qubit_complement(pt):
    # projector identity for every mixture; the derivative identity only
    # where psi1 has an analytic derivative (differencing a psi2 that was
    # itself built by differences measures rounding jitter, not the identity)
    p1, p2, dp1, dp2 = pt.cached(_mixture_components)
    dev = float(np.linalg.norm(p2 - (np.eye(2) - p1)))
    if pt.model.psi1.dpsi is not None:
        dev = max(dev, float(np.linalg.norm(dp1 + dp2)))
    return dev


def _orthogonal_trace_identities(pt):
    # tr{rho_k drho_h} = 0 for pure components of the mixtures
    p1, p2, dp1, dp2 = pt.cached(_mixture_components)
    return max(abs(trace_product([pk, dp])) for pk in (p1, p2) for dp in (dp1, dp2))


def _spectral_identities(pt):
    model, theta = pt.model, pt.theta
    projs = model.projectors_at(theta)
    dprojs = model.dprojectors_at(theta)
    n = model.dim
    dev = float(np.linalg.norm(sum(dprojs)))
    for l in range(n):
        dev = max(dev, abs(trace_product([projs[l], dprojs[l], projs[l], dprojs[l]])))
        for m in range(n):
            if m == l:
                continue
            dev = max(dev, float(np.linalg.norm(projs[l] @ dprojs[m] + dprojs[l] @ projs[m])))
    return dev


def _check_weight_boundary_regularity(catalog, opts, points):
    worst, detail = 0.0, ""
    for name, model in _models(catalog, kinds=("qubit_mixture",)):
        ratio = model.weight.boundary_regularity_ratio(model.sample_thetas, model.fd_step)
        worst, detail = _worst(worst, detail, ratio, name)
    return worst, detail


# --- information checks -----------------------------------------------------

def _score_zero(pt):
    return abs(pt.cached(sld).score_mean)


def _pure_doubling(pt):
    i_h = helstrom_info_sld(pt)
    if i_h <= NEAR_ZERO_INFO:
        return None
    return abs(wy_info_generic(pt) / i_h - 2.0)


def _sld_vs_spectral_sum(pt):
    a = pt.cached(sld).matrix.mat
    dec = pt.rho.decomposition
    b = sld_spectral_sum(dec.eigenvalues, dec.projectors(), pt.drho).mat
    return float(np.linalg.norm(a - b))


def _report_residual(key, pt):
    # the residual ``key`` of the point's report, as the CLI emits it
    report = pt.cached(relation_report)
    if key not in report.residuals:
        # a failed route left no residual; its recorded error is the reason
        raise QcrbError(f"no {key} residual, route errors: {report.route_errors}")
    return report.residuals[key]


def _ratio_ordering(pt):
    if not _constant_weight_at(pt):
        return None
    ratio = pt.cached(relation_report).ratio
    if ratio is None:
        return None
    return max(0.0, 1.0 - ratio, ratio - 2.0)


def _monotone_gap(catalog, opts, points):
    theta = 0.3
    gaps = []
    for w in np.arange(0.5, 0.99, 0.02):
        pt = rotation_mixture(float(w)).at(theta)
        gaps.append(wy_info_generic(pt) - helstrom_info_sld(pt))
    worst, detail = 0.0, ""
    for i in range(1, len(gaps)):
        worst, detail = _worst(worst, detail, gaps[i - 1] - gaps[i], f"step {i}")
    return worst, detail


def _mixing_information_loss(pt):
    if not _constant_weight_at(pt):
        return None
    # I_H1 of psi1 at the model's step, as the closed forms read it; I_WY1 = 2 I_H1
    i_h1 = pt.cached(_qubit_ingredients)[2]
    excess_h = helstrom_info_sld(pt) - i_h1
    excess_wy = wy_info_generic(pt) - 2.0 * i_h1
    return max(excess_h, excess_wy)


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


_MIXTURES = ("qubit_mixture",)
_SPECTRAL_FIRST_3 = dict(kinds=("spectral",), first_thetas=3, with_extra_spectral=True)
_ROUTE_H = partial(_report_residual, "route_i_h")
_ROUTE_WY = partial(_report_residual, "route_i_wy")
_PROP1 = partial(_report_residual, "prop1")

_CHECKS = [
    ("eigh-reconstruction", "analytic", 1e-10, _check_eigh_reconstruction),
    ("psd-sqrt-composition", "analytic", 1e-9, _PointCheck(_psd_sqrt_composition)),
    ("solve-involution", "analytic", 1e-9, _PointCheck(_solve_involution)),
    ("eigenvector-phase-invariance", "analytic", 1e-10, _check_phase_invariance),
    ("state-trace-one", "analytic", 1e-10, _PointCheck(_trace_one)),
    ("drho-traceless-analytic", "analytic", 1e-8, _PointCheck(_drho_traceless, analytic=True)),
    ("drho-traceless-fd", "fd", 1e-8, _PointCheck(_drho_traceless, analytic=False)),
    ("drho-route-agreement", "fd", 1e-7, _PointCheck(_drho_route_agreement, analytic=True)),
    ("dsqrt-route-agreement", "fd", 1e-6, _PointCheck(_dsqrt_route_agreement)),
    ("qubit-complement-identities", "fd", 1e-9, _PointCheck(_qubit_complement, kinds=_MIXTURES)),
    ("orthogonal-component-scores", "fd", 1e-9,
     _PointCheck(_orthogonal_trace_identities, kinds=_MIXTURES)),
    ("spectral-identities", "analytic", 1e-9,
     _PointCheck(_spectral_identities, kinds=("spectral",))),
    ("weight-boundary-regularity", "analytic", BOUNDARY_RATIO_CAP, _check_weight_boundary_regularity),
    ("score-zero-analytic", "analytic", 1e-9, _PointCheck(_score_zero, analytic=True)),
    ("score-zero-fd", "fd", 1e-9, _PointCheck(_score_zero, analytic=False)),
    ("sld-vs-spectral-sum", "analytic", 1e-10, _PointCheck(_sld_vs_spectral_sum)),
    ("pure-doubling-analytic", "analytic", 1e-9,
     _PointCheck(_pure_doubling, kinds=("pure",), analytic=True)),
    ("pure-doubling-fd", "fd", 1e-6, _PointCheck(_pure_doubling, kinds=("pure",), analytic=False)),
    ("qubit-route-h-analytic", "analytic", 1e-8,
     _PointCheck(_ROUTE_H, kinds=_MIXTURES, analytic=True)),
    ("qubit-route-h-fd", "fd", 1e-7, _PointCheck(_ROUTE_H, kinds=_MIXTURES, analytic=False)),
    ("qubit-route-wy-analytic", "analytic", 1e-8,
     _PointCheck(_ROUTE_WY, kinds=_MIXTURES, analytic=True)),
    ("qubit-route-wy-fd", "fd", 1e-6, _PointCheck(_ROUTE_WY, kinds=_MIXTURES, analytic=False)),
    ("spectral-route-h", "analytic", 1e-7, _PointCheck(_ROUTE_H, **_SPECTRAL_FIRST_3)),
    ("spectral-route-wy", "analytic", 1e-6, _PointCheck(_ROUTE_WY, **_SPECTRAL_FIRST_3)),
    ("prop1-identity-analytic", "analytic", 1e-7,
     _PointCheck(_PROP1, kinds=_MIXTURES, analytic=True)),
    ("prop1-identity-fd", "fd", 1e-6, _PointCheck(_PROP1, kinds=_MIXTURES, analytic=False)),
    ("prop2-identity", "analytic", 1e-7,
     _PointCheck(partial(_report_residual, "prop2"), **_SPECTRAL_FIRST_3)),
    ("wy-h-ratio-ordering", "analytic", 1e-6, _PointCheck(_ratio_ordering, kinds=_MIXTURES)),
    ("monotone-gap-in-weight", "analytic", 1e-12, _monotone_gap),
    ("mixing-information-loss", "analytic", 1e-9,
     _PointCheck(_mixing_information_loss, kinds=_MIXTURES)),
    ("povm-completeness", "analytic", 1e-10, _check_povm_completeness),
    ("score-sum-analytic", "analytic", 1e-8, partial(_score_sum, analytic=True)),
    ("score-sum-fd", "fd", 1e-8, partial(_score_sum, analytic=False)),
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
    catalog = {name: model.with_fd_step(opts.fd_step) for name, model in catalog.items()}
    points = _PointTable(_extra_spectral_models(opts))
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
