"""Machine-checkable invariant suite over the builtin model catalog.

Every check yields its cases, a measured residual and where it was
measured, and ``run_suite`` alone reduces them: a check's residual is the
largest of its cases, its detail the first case that reaches it, and a
check with no positive residual reports 0 with no detail. The two
simulation checks return their one case instead, whose detail stands even
at 0. The residual passes or fails against the check's tolerance. Checks
are classed ``analytic`` or ``fd`` depending on whether a
finite-difference ingredient is involved; the two classes can be tightened
independently (tightening the fd class below its truncation error fails
those checks by design). A catalog can be injected, which is how the tests
exercise corrupted models; its models keep the steps they were built at.

One suite run evaluates each (model, theta) state once: the checks read a
shared ``StatePoint`` from a run-wide table, whose points are views into
batch grids (``models.batch_grid``): one per batch key, over every (model,
theta) the suite reads of the models of that key, so the 19 models the
table reads share 11 grids, and their rho, drho, eigendecompositions and
solves run once per grid, stacked. ``monotone-gap-in-weight`` reads its 25
mixtures as one batch too. Most check stages run over every member of a
grid they read, members of models the check does not select included,
since another reader runs the same stages on the whole grid anyway. The
readers that read only some members read a view of the grid over exactly
those (``StateGrid.view``), which slices the stages the grid has kept, rho
and drho among them, and runs the rest on its own members alone; the run
keeps one view per (grid, rows). The forced finite differences that
``drho-route-agreement`` and ``dsqrt-route-agreement`` compare against
run on the view of the members the two checks select in each grid, which
is the same view for both, or the grid itself where they select every
member: its states at theta +- fd_step form one stencil grid, with one
eigendecomposition, and both differences read its one evaluation of the
models' inputs, so the extra spectral models read no stencil side. The
mixture identities difference the canonical psi2 of the whole grid's
stencil grids. The measurement checks work on measurement sets: each first
draws its specs from its rng, in the order a per-measurement loop would,
and draws its random POVMs as one set (``random_povms``); each set is then
read on the view of exactly the points that use it, one trace rule per
(view, set), each point with one ``classical_fishers`` call. ``eigh-reconstruction``
holds LAPACK's eigenvalues against the power sums tr(M^k) of its matrices,
so no second eigensolver runs. A check that measures one residual per
sampled (model, theta) point is a ``_PointCheck`` row: a residual function
plus the selection of models and thetas it runs over. The kernel,
difference and identity checks are check stages (``_stage_check``): the
square-root composition, the solve's involution, the projector-sum SLD of
``sld-vs-spectral-sum``, both route agreements, the two mixture identities
and ``spectral-identities`` each run once per batch grid (or view) on its
stacked arrays, with the bits of the per-point formula at each theta, and
a point's residual is its layer, so a member where one fails splits the
grid and raises only its own error. Only the rephased solve of
``eigenvector-phase-invariance`` is computed afresh per point. The route and
relation checks read the residuals of the point's one ``relation_report``,
the numbers the CLI emits, rather than recomputing them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .classical import (
    basis_povm,
    classical_fisher,
    classical_fishers,
    outcome_scores,
    random_povm,
    random_povms,
)
from .errors import QcrbError
from .hermitian import (
    SUPPORT_TOL,
    HermitianMatrix,
    SpectralDecomposition,
    eigh,
    magnitudes,
    projectors,
    solve_symmetric_product,
    sqrt_stack,
    symmetrized,
    trace_product,
)
from .models import (
    DEFAULT_FD_STEP,
    DEFAULT_SEED,
    ParametricStateModel,
    StatePoint,
    _dinputs_stage,
    _drho_fd_stage,
    _dsqrt_fd_stage,
    _dsqrt_route_stage,
    _inputs_stage,
    _projectors_stage,
    _psi2_stage,
    _sides,
    _stencil_difference,
    batch_grid,
    builtin_models,
    random_spectral_model,
    rotation_mixture,
)
from .quantum import (
    _qubit_stage,
    _sld_stage,
    helstrom_info_sld,
    relation_report,
    sld,
    sld_spectral_sum,
    wy_info_generic,
)
from .simulate import SimConfig, bound_chain_excess, exact_estimator_moments, run_sim

BOUNDARY_RATIO_CAP = 50.0
# estimator-exact-variance reads these catalog models at this theta
_ESTIMATOR_MODELS = ("qubit-rotation", "mixture-w0.9")
_ESTIMATOR_THETA = 0.3
# the route checks over spectral models read their first sample thetas
_SPECTRAL_THETAS = 3
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
    """Tolerance overrides of the two classes, the seed of the random draws, and ``fd_step``:
    the step the builtin catalog and the extra seeded spectral models are built at. An
    injected catalog's models keep the steps they were built at."""

    tol_analytic: float | None = None
    tol_fd: float | None = None
    fd_step: float = DEFAULT_FD_STEP
    seed: int = DEFAULT_SEED


class _PointTable:
    """One StatePoint per (model, theta) for a whole suite run.

    ``reads`` maps each model to the thetas the suite reads of it. The
    first read of a model builds one batch grid (``batch_grid``) over every
    (model, theta) the suite reads of the models that share its batch key,
    so each stage runs once per key and block, for all of those models
    together. A theta outside them gets a grid of one. Keyed on the model
    objects themselves, which the table keeps alive: an id() key could be
    reused by a later temporary model once the first one is collected, and
    hand that model the wrong point. The run's extra seeded spectral models
    live here too, so their points are shared as well.

    ``on_views(pts)`` hands a reader the points of a grid's view
    (``StateGrid.view``) over only the rows it reads, one view per (grid,
    rows) for the run.
    """

    def __init__(self, reads: dict | None = None, extra_spectral=()):
        self._pending: dict = {}  # batch key -> the (model, theta) pairs not yet evaluated
        for model, thetas in (reads or {}).items():
            self._pending.setdefault(model._batch_key(), []).extend((model, theta) for theta in thetas)
        self._points: dict[tuple, StatePoint] = {}
        self._views: dict[tuple, tuple[StatePoint, ...]] = {}  # (grid, rows) -> the view's points
        self.extra_spectral = list(extra_spectral)

    def at(self, model: ParametricStateModel, theta: float) -> StatePoint:
        key = (model, theta)
        if key not in self._points:
            pairs = self._pending.pop(model._batch_key(), ())
            self._points.update(((pt.model, pt.theta), pt) for pt in batch_grid(pairs))
            if key not in self._points:
                self._points[key] = model.at(theta)
        return self._points[key]

    def on_views(self, pts) -> list[StatePoint]:
        """Each of ``pts`` as a point of the view of its grid over the rows of ``pts`` in that
        grid; a view of every row is the grid itself, whose points are ``pts``."""
        by_grid: dict = {}
        for pt in pts:
            by_grid.setdefault(pt.grid, {})[pt.index] = pt
        out = {}
        for grid, by_row in by_grid.items():
            key = (grid, tuple(sorted(by_row)))
            if key not in self._views:
                view = grid.view(key[1])
                self._views[key] = tuple(map(by_row.get, key[1])) if view is grid else view.points()
            out.update(zip([(grid, k) for k in key[1]], self._views[key]))
        return [out[pt.grid, pt.index] for pt in pts]


def _models(catalog, kinds=None, analytic=None):
    for name in sorted(catalog):
        m = catalog[name]
        if kinds is not None and m.kind not in kinds:
            continue
        if analytic is not None and m.has_analytic_derivative is not analytic:
            continue
        yield name, m


def _extra_spectral_models(opts):
    return [
        (f"spectral-extra-{n}", random_spectral_model(opts.seed + 10 * n, n, fd_step=opts.fd_step))
        for n in range(2, 7)
    ]


def _suite_reads(catalog, extra_spectral) -> dict:
    """The thetas the suite reads of each model: every sample theta of a catalog model,
    the estimator theta of the estimator models, and the first sample thetas of the
    extra spectral models."""
    reads = {model: model.sample_thetas for model in catalog.values()}
    for name in _ESTIMATOR_MODELS:
        if name in catalog:
            reads[catalog[name]] += (_ESTIMATOR_THETA,)
    for _, model in extra_spectral:
        reads[model] = model.sample_thetas[:_SPECTRAL_THETAS]
    return {model: tuple(dict.fromkeys(thetas)) for model, thetas in reads.items()}


@dataclass(frozen=True)
class _PointCheck:
    """One case of ``residual(point)`` per sampled point.

    The fields select the points: catalog models of the given ``kinds`` and
    derivative class (``analytic``), the first ``first_thetas`` sample
    thetas, and the run's extra spectral models. With ``on_view`` each
    residual reads its point on the view of the selected points of its grid
    (``_PointTable.on_views``), not on the whole grid. A residual of None
    skips its point. The driver hands each residual function its point
    unread, so an evaluation fault shows only in the checks that read the
    state.
    """

    residual: Callable[[StatePoint], float | None]
    kinds: tuple[str, ...] | None = None
    analytic: bool | None = None
    first_thetas: int | None = None
    with_extra_spectral: bool = False
    on_view: bool = False

    def __call__(self, catalog, opts, points):
        pairs = list(_models(catalog, self.kinds, self.analytic))
        if self.with_extra_spectral:
            pairs += points.extra_spectral
        cases = [(f"{name} theta={theta:g}", points.at(model, theta))
                 for name, model in pairs for theta in model.sample_thetas[:self.first_thetas]]
        pts = [pt for _, pt in cases]
        if self.on_view:
            pts = points.on_views(pts)
        for (where, _), pt in zip(cases, pts):
            dev = self.residual(pt)
            if dev is not None:
                yield dev, where


def _layer_residual(stage, pt) -> float:
    return float(pt.layer(stage)[0])


def _stage_check(stage, **selection) -> _PointCheck:
    """A ``_PointCheck`` whose residual at a point is its layer of ``stage``: the check
    runs once per batch grid, on the stacked arrays, and a member where it fails splits
    the grid and raises only its own error."""
    return _PointCheck(partial(_layer_residual, stage), **selection)


def _norms(stack) -> np.ndarray:
    """The 2-norm of each complex layer of a stack, with the bits of ``np.linalg.norm`` of the
    layer: its formula, sqrt(re.re + im.im) by BLAS dots over the raveled layer, one layer
    at a time. A stacked norm sums in another order, which moves the last bit."""
    squares = []
    for m in stack:
        v = m.ravel(order="K")
        squares.append(v.real.dot(v.real) + v.imag.dot(v.imag))
    return np.sqrt(squares)


def _constant_weight_at(pt) -> bool:
    # the constant-weight facts (alpha in [1,2], beta = 0, mixing loses
    # information) hold only where the weight does not move
    return abs(pt.layer(_qubit_stage)[1]) <= CONSTANT_WEIGHT_SLOPE_ATOL


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
    for trial in range(20):
        n = int(rng.integers(2, 9))
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = HermitianMatrix(symmetrized(g))
        dec = eigh(m)
        lam = dec.eigenvalues
        scale = max(1.0, np.linalg.norm(m.mat))
        rec = np.linalg.norm(dec.reconstruct() - m.mat) / scale
        orth = np.linalg.norm(dec.eigenvectors.conj().T @ dec.eigenvectors - np.eye(n))
        ref = _power_sum_gap(m.mat, lam, scale)
        order = max(0.0, -float(np.min(np.diff(lam))))
        yield max(rec, orth, ref, order), f"trial {trial} (n={n})"


def _psd_sqrt_stage(grid):
    # the square root of every theta's rho, squared, against rho
    rho, dec = grid.rho_stack()
    root = sqrt_stack(dec)
    return (_norms(root @ root - rho),)


def _solve_involution_stage(grid):
    # the residual of the symmetrized-product equation on the support, in
    # the eigenbasis of rho
    rho, dec = grid.rho_stack()
    l_mat = grid.stage(_sld_stage)[0]
    resid = 0.5 * (rho @ l_mat + l_mat @ rho) - grid.drho_stack()
    u = dec.eigenvectors
    r_tilde = u.conj().swapaxes(-1, -2) @ resid @ u
    lam = dec.eigenvalues
    keep = (lam[:, :, None] + lam[:, None, :]) > SUPPORT_TOL
    return (_norms([r[k] for r, k in zip(r_tilde, keep)]),)


def _check_phase_invariance(catalog, opts, points):
    # the solve on eigenvectors rephased at random must give the point's SLD:
    # the matrices are compared, since tr{rho L^2} does not see a solve that
    # transposes its eigenbasis solution, which the phases change
    rng = np.random.default_rng(opts.seed + 1)
    for name, model in _models(catalog, kinds=("qubit_mixture", "spectral")):
        theta = model.sample_thetas[1]
        pt = points.at(model, theta)
        dec = pt.rho.decomposition
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=dec.dim))
        rephased = SpectralDecomposition(dec.eigenvalues, dec.eigenvectors * phases)
        l_mat = solve_symmetric_product(rephased, pt.drho).mat
        yield float(np.linalg.norm(l_mat - pt.cached(sld).matrix.mat)), f"{name} theta={theta:g}"


# --- model checks -----------------------------------------------------------

def _trace_one(pt):
    return abs(float(np.trace(pt.rho.mat).real) - 1.0)


def _drho_traceless(pt):
    return abs(float(np.trace(pt.drho.mat).real))


def _drho_route_agreement_stage(grid):
    return (_norms(grid.drho_stack() - grid.stage(_drho_fd_stage)[0]),)


def _dsqrt_route_agreement_stage(grid):
    a = grid.stage(_dsqrt_route_stage)[0]
    b = grid.stage(_dsqrt_fd_stage)[0]
    return (_norms(a - b) / np.maximum(1.0, _norms(a)),)


def _mixture_stage(grid):
    """p1, p2 = |psi1><psi1|, |psi2><psi2| and their derivatives dp1, dp2 at every theta.

    p1 and dp1 are the model inputs, as the closed forms read them; dp2
    differences the canonical psi2 of the grid's stencil grids (theta +-
    fd_step), independently of psi1's derivative.
    """
    h = grid.key.fd_step
    p1 = projectors(grid.stage(_inputs_stage)[1])
    p2 = projectors(grid.stage(_psi2_stage)[0])
    dp1 = grid.stage(_dinputs_stage)[1]
    sides = np.concatenate([_sides(projectors(s.stage(_psi2_stage)[0])) for s in grid.stencils()])
    return p1, p2, dp1, _stencil_difference(sides, h)


def _qubit_complement_stage(grid):
    # projector identity for every mixture; the derivative identity only
    # where psi1 has an analytic derivative (differencing a psi2 that was
    # itself built by differences measures rounding jitter, not the identity)
    p1, p2, dp1, dp2 = grid.stage(_mixture_stage)
    dev = _norms(p2 - (np.eye(2) - p1))
    if "dpsi" in grid.key.analytic:
        dev = np.maximum(dev, _norms(dp1 + dp2))
    return (dev,)


def _orthogonal_scores_stage(grid):
    # tr{rho_k drho_h} = 0 for pure components of the mixtures
    p1, p2, dp1, dp2 = grid.stage(_mixture_stage)
    traces = [trace_product([pk, dp]) for pk in (p1, p2) for dp in (dp1, dp2)]
    return (np.max([magnitudes(t) for t in traces], axis=0),)


def _spectral_identities_stage(grid):
    # sum_l dP_l = 0, tr{P_l dP_l P_l dP_l} = 0 and P_l dP_m + dP_l P_m = 0
    # for l != m, at every theta
    projs, dprojs = grid.stage(_projectors_stage)
    n = projs.shape[1]
    devs = [_norms(sum(dprojs[:, l] for l in range(n)))]
    for l in range(n):
        devs.append(magnitudes(trace_product([projs[:, l], dprojs[:, l], projs[:, l], dprojs[:, l]])))
        for m in range(n):
            if m != l:
                devs.append(_norms(projs[:, l] @ dprojs[:, m] + dprojs[:, l] @ projs[:, m]))
    return (np.max(devs, axis=0),)


def _check_weight_boundary_regularity(catalog, opts, points):
    # max |w'| / min(sqrt(w), sqrt(1-w)) over each mixture's sample thetas,
    # with the (w, w') the closed forms read: a proxy for w' vanishing faster
    # than sqrt(w) and sqrt(1-w) near 0 and 1, an asymptotic condition of
    # which only boundedness on the samples is checked
    for name, model in _models(catalog, kinds=("qubit_mixture",)):
        worst = 0.0
        for theta in model.sample_thetas:
            w, dw, _ = points.at(model, theta).layer(_qubit_stage)
            worst = max(worst, abs(dw) / min(math.sqrt(w), math.sqrt(1.0 - w)))
        yield worst, name


# --- information checks -----------------------------------------------------

def _score_zero(pt):
    return abs(pt.cached(sld).score_mean)


def _pure_doubling(pt):
    # |I_WY - 2 I_H| / I_H from the point's report; None where I_H is near zero
    return pt.cached(relation_report).residuals.get("pure_doubling")


def _sld_vs_spectral_sum_stage(grid):
    _, dec = grid.rho_stack()
    b = sld_spectral_sum(dec.eigenvalues, dec.projectors(), grid.drho_stack()).mat
    return (_norms(grid.stage(_sld_stage)[0] - b),)


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
    mixtures = [rotation_mixture(float(w)) for w in np.arange(0.5, 0.99, 0.02)]
    gaps = [wy_info_generic(pt) - helstrom_info_sld(pt) for pt in batch_grid((m, theta) for m in mixtures)]
    for i in range(1, len(gaps)):
        yield gaps[i - 1] - gaps[i], f"step {i}"


def _mixing_information_loss(pt):
    if not _constant_weight_at(pt):
        return None
    # I_H1 of psi1 at the model's step, as the closed forms read it; I_WY1 = 2 I_H1
    i_h1 = pt.layer(_qubit_stage)[2]
    excess_h = helstrom_info_sld(pt) - i_h1
    excess_wy = wy_info_generic(pt) - 2.0 * i_h1
    return max(excess_h, excess_wy)


# --- measurement checks -----------------------------------------------------

def _check_povm_completeness(catalog, opts, points):
    rng = np.random.default_rng(opts.seed + 2)
    specs = []
    for _ in range(12):
        dim = int(rng.integers(2, 5))
        n_eff = int(rng.integers(1, 6))
        specs.append((dim, n_eff, int(rng.integers(0, 2**31))))
    for trial, ((dim, n_eff, _), povm) in enumerate(zip(specs, random_povms(specs))):
        dev = float(np.linalg.norm(sum(m.mat for m in povm) - np.eye(dim)))
        yield dev, f"trial {trial} dim={dim} k={n_eff}"


def _score_sum(catalog, opts, points, analytic):
    rng = np.random.default_rng(opts.seed + 3)
    pairs = list(_models(catalog, analytic=analytic))
    povms = random_povms([(model.dim, 3, int(rng.integers(0, 2**31))) for _, model in pairs])
    for (name, model), povm in zip(pairs, povms):
        for pt in points.on_views([points.at(model, theta) for theta in model.sample_thetas[:3]]):
            dev = abs(float(np.sum(outcome_scores(pt, povm))))
            yield dev, f"{name} theta={pt.theta:g}"


_INEQUALITY_POVMS = 4  # random measurements per model in information-inequality


def _information_inequality(catalog, opts, points):
    rng = np.random.default_rng(opts.seed + 4)
    pairs = list(_models(catalog))
    povms = random_povms([
        (model.dim, int(rng.integers(2, 6)), int(rng.integers(0, 2**31)))
        for _, model in pairs for _ in range(_INEQUALITY_POVMS)
    ])
    for m, (name, model) in enumerate(pairs):
        theta = model.sample_thetas[2]
        [pt] = points.on_views([points.at(model, theta)])
        i_h = helstrom_info_sld(pt)
        own = povms[m * _INEQUALITY_POVMS:(m + 1) * _INEQUALITY_POVMS]
        for i in classical_fishers(pt, own):
            yield i - i_h, f"{name} theta={theta:g}"


def _coarse_graining(catalog, opts, points):
    rng = np.random.default_rng(opts.seed + 5)
    pairs = list(_models(catalog, kinds=("pure", "qubit_mixture")))
    specs, merges = [], []
    for _, model in pairs:
        specs.append((model.dim, 4, int(rng.integers(0, 2**31))))
        merges.append(sorted(rng.choice(4, size=2, replace=False)))
    for (name, model), povm, (i, j) in zip(pairs, random_povms(specs), merges):
        [pt] = points.on_views([points.at(model, model.sample_thetas[1])])
        base, merged = classical_fishers(pt, (povm, povm.merged(int(i), int(j))))
        yield merged - base, f"{name} merge ({i},{j})"


# --- estimation checks ------------------------------------------------------

def _catalog_model(catalog, name):
    model = catalog.get(name)
    if model is None:
        raise ValueError(f"catalog lacks {name}")
    return model


def _estimator_exact_variance(catalog, opts, points):
    theta = _ESTIMATOR_THETA
    povms = (basis_povm(2), random_povm(2, 3, opts.seed + 6))
    for name, povm in zip(_ESTIMATOR_MODELS, povms):
        [pt] = points.on_views([points.at(_catalog_model(catalog, name), theta)])
        mean, var = exact_estimator_moments(pt, povm)
        i = classical_fisher(pt, povm)
        yield max(abs(mean - theta), abs(var - 1.0 / i)), name


def _sim_bound_chain(catalog, opts, points):
    model = _catalog_model(catalog, "qubit-rotation")
    cfg = SimConfig(model=model, povm=basis_povm(2), theta0=0.3, n_samples=20_000, seed=opts.seed)
    result = run_sim(cfg)
    return bound_chain_excess(result), f"var={result.empirical_var:.5f} crb={result.crb:.5f}"


def _sim_reproducibility(catalog, opts, points):
    model = _catalog_model(catalog, "qubit-rotation")
    cfg = SimConfig(model=model, povm=basis_povm(2), theta0=0.3, n_samples=1_000, seed=opts.seed)
    a, b = run_sim(cfg), run_sim(cfg)
    return (0.0 if a == b else 1.0), "two runs with one seed"


_MIXTURES = ("qubit_mixture",)
_SPECTRAL_FIRST_3 = dict(kinds=("spectral",), first_thetas=_SPECTRAL_THETAS, with_extra_spectral=True)
_ROUTE_H = partial(_report_residual, "route_i_h")
_ROUTE_WY = partial(_report_residual, "route_i_wy")
_PROP1 = partial(_report_residual, "prop1")

_CHECKS = [
    ("eigh-reconstruction", "analytic", 1e-10, _check_eigh_reconstruction),
    ("psd-sqrt-composition", "analytic", 1e-9, _stage_check(_psd_sqrt_stage)),
    ("solve-involution", "analytic", 1e-9, _stage_check(_solve_involution_stage)),
    ("eigenvector-phase-invariance", "analytic", 1e-10, _check_phase_invariance),
    ("state-trace-one", "analytic", 1e-10, _PointCheck(_trace_one)),
    ("drho-traceless-analytic", "analytic", 1e-8, _PointCheck(_drho_traceless, analytic=True)),
    ("drho-traceless-fd", "fd", 1e-8, _PointCheck(_drho_traceless, analytic=False)),
    ("drho-route-agreement", "fd", 1e-7,
     _stage_check(_drho_route_agreement_stage, analytic=True, on_view=True)),
    ("dsqrt-route-agreement", "fd", 1e-6, _stage_check(_dsqrt_route_agreement_stage, on_view=True)),
    ("qubit-complement-identities", "fd", 1e-9, _stage_check(_qubit_complement_stage, kinds=_MIXTURES)),
    ("orthogonal-component-scores", "fd", 1e-9,
     _stage_check(_orthogonal_scores_stage, kinds=_MIXTURES)),
    ("spectral-identities", "analytic", 1e-9,
     _stage_check(_spectral_identities_stage, kinds=("spectral",))),
    ("weight-boundary-regularity", "analytic", BOUNDARY_RATIO_CAP, _check_weight_boundary_regularity),
    ("score-zero-analytic", "analytic", 1e-9, _PointCheck(_score_zero, analytic=True)),
    ("score-zero-fd", "fd", 1e-9, _PointCheck(_score_zero, analytic=False)),
    ("sld-vs-spectral-sum", "analytic", 1e-10, _stage_check(_sld_vs_spectral_sum_stage)),
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


def _worst(cases) -> tuple[float, str]:
    """The largest residual of ``(residual, where)`` cases and the first case that has it;
    ``(0.0, "")`` when no residual is positive."""
    worst, detail = 0.0, ""
    for residual, where in cases:
        if residual > worst:
            worst, detail = residual, where
    return worst, detail


def check_names() -> list[str]:
    return [name for name, _, _, _ in _CHECKS]


def run_suite(
    catalog: dict[str, ParametricStateModel] | None = None,
    options: VerifyOptions | None = None,
) -> list[CheckResult]:
    """Run every invariant check; a raising check fails with its error recorded.

    Without a ``catalog`` the suite reads ``builtin_models(options.fd_step)``.
    An injected catalog is read as given: each model differences with the
    ``fd_step`` it was built at.
    """
    opts = options or VerifyOptions()
    catalog = builtin_models(opts.fd_step) if catalog is None else catalog
    extra_spectral = _extra_spectral_models(opts)
    points = _PointTable(_suite_reads(catalog, extra_spectral), extra_spectral)
    results = []
    for name, kind, default_tol, fn in _CHECKS:
        tol = default_tol
        if kind == "analytic" and opts.tol_analytic is not None:
            tol = opts.tol_analytic
        if kind == "fd" and opts.tol_fd is not None:
            tol = opts.tol_fd
        try:
            cases = fn(catalog, opts, points)
            # a sim check returns its one case, whose detail stands even at 0
            residual, detail = cases if isinstance(cases, tuple) else _worst(cases)
            residual, error = float(residual), None
        except Exception as exc:  # noqa: BLE001 - failures are results, not crashes
            residual, detail, error = None, "", f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(
            name=name, kind=kind, residual=residual, tol=tol,
            passed=error is None and residual <= tol, detail=detail, error=error,
        ))
    return results


def all_passed(results) -> bool:
    return all(r.passed for r in results)
