"""Parametric quantum state families theta -> rho(theta) with derivative access.

Pure families, two-dimensional mixtures of orthogonal pure states, and
general spectral mixtures built from a smooth orthonormal frame. Models are
immutable after construction; evaluation is pure.

A batch of (model, theta) pairs is the unit of evaluation.
``batch_grid(pairs)`` yields one ``StatePoint`` per pair, in the order
given, each a view into one layer of a ``StateGrid``. The pairs whose
models share a batch key (``BatchKey``: the model class, the dimension,
``fd_step`` and which inputs have an analytic derivative) share a grid, so
one grid may hold many models of one family side by side. A custom model
keys on itself and never shares one. ``model.grid(thetas)`` is the batch of
one model, and ``model.at(theta)`` a batch of one pair. A grid reads its
inputs once per member, in two stages: ``_inputs_stage`` holds the value
inputs, all that rho reads, and ``_dinputs_stage`` the derivative inputs.
Each member's inputs are the callables its own model wraps (psi and dpsi,
the weight w and dw, the eigenvalue weights and the frame with their
derivatives); a custom model's are ``rho_matrix`` and ``_drho_analytic``.
A built-in model calls every member's callables first and then checks
each input once for the whole stack, and the per-theta accessors are that
check on a stack of one.
rho, drho and the closed forms of ``quantum`` are stacked numpy formulas
over those (T, ...) arrays, which read the class, the dimension, the step
and the analytic inputs from the key and never one member's model. The
validation, the eigendecomposition and the square-root solve (and, in
``quantum``, the SLD solve) each run once per grid on the (T, n, n) stack.
Long batches are cut into blocks of ``GRID_BLOCK_ENTRIES`` matrix entries.
``grid.view(rows)`` is a grid over some of a grid's members that reads the
slices of the stages the grid has kept.

A stacked check raises at its first failing member, and a stage that raises
on a grid of more than one member raises what its first failing member
raises alone (``StateGrid.stage``).

The finite differences that stand in for a derivative are grid stages as
well, and they all read one stencil. The 2T states rho(theta +- fd_step) of
a grid's members form its stencil grids (``StateGrid.stencils``), batch
grids of (model, theta +- fd_step) kept with the grid and holding only
their ``_inputs_stage``. A built-in input without an analytic derivative is
differenced from those value inputs (``_stencil_inputs``), which pass the
same checks as at theta. ``_drho_fd_stage``, the one difference of rho,
differences their stacked rho: it is the forced difference, and the drho of
a spectral model without both derivatives and of a custom model wherever
``_drho_analytic`` is None. ``_dsqrt_fd_stage`` differences their square
roots, with one eigendecomposition per stencil grid. So every member reads
each stencil side once per grid. A forced difference is a point's layer of
one of these stages, and so is the square-root solve's rank-deficient
fallback: ``_dsqrt_route_stage`` holds the solve's result, or on an
inconsistent point the difference, and every reader of a point's
square-root derivative reads that one layer.

The point is the only per-theta route to a model's inputs, ``canonical_psi2``
included, and every difference is ``_stencil_difference`` with the model's
``fd_step``. That step is set once, by the constructor (``builtin_models``
passes its ``fd_step`` to each model it builds), and no model is copied at
another step: no public function takes a step of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple

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
    density_stack,
    eigh,
    first_failing,
    hermitian_part,
    layer_norms,
    magnitudes,
    projectors,
    real_trace_product,
    solve_symmetric_product,
    sqrt_eigenvalues,
    sqrt_stack,
    square_stack,
    symmetrized,
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
# matrix entries in one stacked array of a grid block: a block of a grid
# over a dimension-n model holds max(1, GRID_BLOCK_ENTRIES // n^2) thetas
GRID_BLOCK_ENTRIES = 1 << 15


def _stencil_difference(sides: np.ndarray, h: float) -> np.ndarray:
    """The central difference of every theta, from a (T, 2, ...) array of its values at theta +- h:
    the package's one difference formula."""
    return (sides[:, 0] - sides[:, 1]) / (2.0 * h)


def _checked_states(dim: int, thetas, raws) -> np.ndarray:
    """The (T, dim) stack of pure-family states, from their raw values: each of dimension
    ``dim``, then of norm 1 (a non-finite entry fails too)."""
    vs = [np.asarray(v, dtype=complex).reshape(-1) for v in raws]
    i = first_failing(np.array([v.shape[0] != dim for v in vs]))
    if i is not None:
        raise DimensionError(f"state has dim {vs[i].shape[0]}, family declares {dim}")
    stack = np.array(vs)
    norms = layer_norms(stack)
    i = first_failing(~(np.abs(norms - 1.0) <= UNIT_NORM_ATOL))
    if i is not None:
        raise ValueError(f"family state at theta={thetas[i]} has norm {norms[i]!r}")
    return stack


def _checked_weights(thetas, raws) -> np.ndarray:
    """The (T,) mixing weights, from their raw values, each in (0, 1)."""
    ws = np.array(raws, dtype=float)
    i = first_failing(~((WEIGHT_EDGE < ws) & (ws < 1.0 - WEIGHT_EDGE)))
    if i is not None:
        raise DomainError(f"weight {float(ws[i])!r} at theta={thetas[i]} outside (0, 1)")
    return ws


def _projector_derivatives(v: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """d/dtheta |v><v| = |dv><v| + |v><dv|, symmetrized; of one vector or of each of a stack."""
    return symmetrized(dv[..., :, None] * v.conj()[..., None, :] + v[..., :, None] * dv.conj()[..., None, :])


@dataclass(frozen=True)
class PureFamily:
    """theta -> unit vector, with optional analytic derivative of the vector."""

    dim: int
    psi: Callable[[float], np.ndarray]
    dpsi: Callable[[float], np.ndarray] | None = None

    def state(self, theta: float) -> np.ndarray:
        """psi(theta), checked: the stacked check of a stack of one."""
        return _checked_states(self.dim, [theta], [self.psi(theta)])[0]

    def velocity(self, theta: float) -> np.ndarray:
        """dpsi(theta) as a complex vector; the family must have dpsi."""
        return np.asarray(self.dpsi(theta), dtype=complex).reshape(-1)


@dataclass(frozen=True)
class WeightFunction:
    """Mixing coefficient w(theta) in (0,1), with optional analytic slope."""

    w: Callable[[float], float]
    dw: Callable[[float], float] | None = None

    def value(self, theta: float) -> float:
        """w(theta), checked: the stacked check of a stack of one."""
        return float(_checked_weights([theta], [float(self.w(theta))])[0])


@dataclass(frozen=True)
class SqrtDerivative:
    """Derivative of sqrt(rho) plus the route that produced it."""

    matrix: HermitianMatrix
    route: str  # "solve" | "fd"
    fd_fallback: bool = False  # True when the solve route failed and fd took over


class BatchKey(NamedTuple):
    """What the members of one grid share: the model class, the dimension, the step, and
    the names of the inputs whose derivative is analytic (``ParametricStateModel._batch_key``).

    The stages read these from the key, never from one member's model. A
    custom model's key names the model itself as ``owner``, so it shares a
    grid with no other model: its ``_drho_analytic`` may exist at only some
    thetas, which no key could say.
    """

    cls: type
    dim: int
    fd_step: float
    analytic: tuple[str, ...] = ()
    owner: object = None

    @property
    def kind(self) -> str:
        return self.cls.kind


def _block_size(dim: int) -> int:
    """The most states one stacked array of ``GRID_BLOCK_ENTRIES`` entries holds."""
    return max(1, GRID_BLOCK_ENTRIES // (dim * dim))


class StateGrid:
    """The (model, theta) members of one batch key, whose stages each run once for the whole block.

    ``members`` are the pairs, ``thetas`` their thetas, and ``key`` the
    ``BatchKey`` every member's model has. A stage is a function
    ``fn(grid, *args)`` that returns a tuple of arrays (or lists) with one
    layer per member. Here they are the members'
    value and derivative inputs, rho with its eigendecomposition, drho, the
    square-root derivative with its route, the forced differences, a qubit
    mixture's psi2 and a spectral model's frame projectors. In
    ``quantum`` they are the SLD, tr{rho L^2} and 4 tr{[(sqrt rho)']^2},
    each checked against the noise floor, a qubit mixture's weight, slope
    and I_H1, each closed form and alpha/beta, and the relation report,
    whose columns hold builtin scalars. In ``classical`` they are a
    measurement set's checked trace-rule distributions, its scores and its
    classical Fisher information; in ``verify``, the residuals of its
    kernel, difference and identity checks. Each runs on first use and is kept.

    ``view(rows)`` is a grid over some of the members, for a reader that
    needs only those. For each stage its parent has kept, at the time the
    view reads it, the view reads the slice at its rows; it runs every other
    stage over its own members, with its own stencil grids. It holds the
    parent's stage dict and its rows, not the parent, so no reference cycle
    forms. The grid holds no reference to its points, so a grid is freed as
    soon as its last point and view are.

    A stage that raises is not kept. On a grid of more than one member it
    is the batch's failure, and ``stage`` names the member: the grid splits
    into views of one row (once; they read the stages already run), and
    runs the stage on each part in order. The first part that fails alone
    raises its own error; if none does, the batch's error is raised again.
    The parts keep what they ran, and from then on ``layer`` reads them, so
    each point gets its own value or raises its own error.
    """

    __slots__ = ("key", "members", "thetas", "_stages", "_base", "_parts", "_stencils", "__weakref__")

    def __init__(self, key: BatchKey, members: Iterable[tuple[ParametricStateModel, float]]):
        self.key = key
        self.members = tuple(members)
        self.thetas = tuple(theta for _, theta in self.members)
        self._stages: dict[tuple, tuple] = {}
        self._base: tuple[dict, tuple[int, ...]] | None = None  # a view's parent stages and rows
        self._parts: list[StateGrid] | None = None
        self._stencils: tuple[StateGrid, ...] | None = None

    def points(self) -> tuple[StatePoint, ...]:
        """One new point per member, each a view into its layer."""
        return tuple(StatePoint(self, k) for k in range(len(self.members)))

    def stage(self, fn, *args) -> tuple:
        """fn(self, *args), run on the first call and kept; on a view, the slice of the
        parent's if the parent has kept it. If it raises on more than one member, the
        first member that fails alone raises its own error."""
        key = (fn, *args)
        stages = self._stages
        if key not in stages:
            base = self._base
            if base is not None and key in base[0]:
                stages[key] = tuple(_rows_of(a, base[1]) for a in base[0][key])
            else:
                try:
                    stages[key] = fn(self, *args)
                except Exception:  # noqa: BLE001 - re-raised below unless a member fails alone
                    if len(self.members) == 1:
                        raise
                    if self._parts is None:
                        self._parts = [self.view((k,)) for k in range(len(self.members))]
                    for part in self._parts:
                        part.stage(fn, *args)
                    raise
        return stages[key]

    def view(self, rows: Iterable[int]) -> StateGrid:
        """A grid over the members at ``rows``, in that order; all the members in order are the grid itself."""
        rows = tuple(rows)
        if rows == tuple(range(len(self.members))):
            return self
        view = StateGrid(self.key, [self.members[k] for k in rows])
        view._base = (self._stages, rows)
        return view

    def layer(self, k: int, fn, *args) -> tuple:
        """Layer k of every array of the stage fn(self, *args); once the grid has split,
        its part k's."""
        if self._parts is None:
            try:
                return tuple([a[k] for a in self.stage(fn, *args)])
            except Exception:  # noqa: BLE001 - a grid of more than one has split
                if self._parts is None:
                    raise
        return self._parts[k].layer(0, fn, *args)

    def stencils(self) -> tuple[StateGrid, ...]:
        """The grids of the stencil (model, theta +- fd_step) of every member, built on first use and kept.

        Each holds theta + h and theta - h of consecutive members, in that
        order, under the grid's key; a stencil holds two states per member,
        so it is cut at half a grid block, and no stacked array outgrows
        ``GRID_BLOCK_ENTRIES``. Each member's model checks that its stencil
        lies in its domain. They are the grid's only reader of
        theta +- fd_step: the differenced derivative inputs, the difference
        of rho and the difference of its square root all read their
        ``_inputs_stage``, the one stage they run, so the stencil's value
        inputs are read once.
        """
        if self._stencils is None:
            key, members = self.key, self.members
            h = key.fd_step
            for model, theta in members:
                model._require_stencil(theta)
            size = max(1, _block_size(key.dim) // 2)
            self._stencils = tuple(
                StateGrid(key, [(m, t) for m, theta in members[start:start + size] for t in (theta + h, theta - h)])
                for start in range(0, len(members), size)
            )
        return self._stencils

    def rho_stack(self) -> tuple[np.ndarray, SpectralDecomposition]:
        """The (T, n, n) stack of rho and its stacked eigendecomposition."""
        h, lam, vecs = self.stage(_rho_stage)
        return h, SpectralDecomposition(eigenvalues=lam, eigenvectors=vecs)

    def drho_stack(self) -> np.ndarray:
        """The (T, n, n) stack of drho."""
        return self.stage(_drho_stage)[0]


def _rows_of(a, rows: tuple[int, ...]):
    """The layers of a stage's array (or list) at ``rows``: a slice where they are consecutive."""
    if rows == tuple(range(rows[0], rows[-1] + 1)):
        return a[rows[0]:rows[-1] + 1]
    if isinstance(a, np.ndarray):
        return a[list(rows)]
    return [a[k] for k in rows]


class StatePoint:
    """A model at one theta: a view into layer ``index`` of a ``StateGrid``.

    ``model`` and ``theta`` are the grid's member ``index``, fixed at
    construction; any finite difference uses the model's ``fd_step``.
    ``rho``, ``drho`` and ``dsqrt`` are evaluated on first access, for the
    whole grid at once, other models' members included; ``layer(fn)`` reads
    the point's layer of any other stage of its grid, and ``cached(fn)``
    keeps any ``fn(point)``, such as the point's SLD. A failed evaluation is
    not kept, so it raises again on every access.
    """

    __slots__ = ("grid", "index", "model", "theta", "_values")

    def __init__(self, grid: StateGrid, index: int):
        model, theta = grid.members[index]
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "index", index)
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

    def layer(self, fn, *args) -> tuple:
        """This point's layer of the grid stage fn(grid, *args)."""
        return self.grid.layer(self.index, fn, *args)

    @property
    def rho(self) -> DensityMatrix:
        return self.cached(_point_rho)

    @property
    def drho(self) -> HermitianMatrix:
        return self.cached(_point_drho)

    @property
    def dsqrt(self) -> SqrtDerivative:
        return self.cached(_point_dsqrt)


def _domain_checked(grid: StateGrid) -> type:
    """The grid's model class, once every member's theta lies in its model's domain."""
    for model, theta in grid.members:
        model._require_in_domain(theta)
    return grid.key.cls


def _inputs_stage(grid: StateGrid) -> tuple:
    """The value inputs of every member: all that rho reads.

    Each is checked where it is read, and a non-finite one fails its check,
    so numpy's overflow and invalid-value warnings are not raised here.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _domain_checked(grid)._inputs(grid.members)


def _dinputs_stage(grid: StateGrid) -> tuple:
    """The derivative inputs of every member, analytic or differenced."""
    return _domain_checked(grid)._derivative_inputs(grid)


def _read(grid: StateGrid, fn_of: Callable, name: str, dtype=complex) -> np.ndarray:
    """``fn_of(model)(theta)`` of every member (model, theta) as one array, without numpy's
    overflow and invalid-value warnings; the first member whose value is not finite names
    the error."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.array([fn_of(model)(theta) for model, theta in grid.members], dtype=dtype)
    if not np.isfinite(values).all():
        i = first_failing(~np.isfinite(values).reshape(len(values), -1).all(axis=1))
        raise ValueError(f"{name} is not finite at theta={grid.thetas[i]}")
    return values


def _sides(a: np.ndarray) -> np.ndarray:
    """A stencil grid's (2T, ...) array as (T, 2, ...): each member's values at theta + h and theta - h."""
    return a.reshape(-1, 2, *a.shape[1:])


def _stencil_inputs(grid: StateGrid, index: int) -> np.ndarray:
    """Value input ``index`` of a built-in model at theta +- fd_step of every member, as a (T, 2, ...) array.

    It is read from the ``_inputs_stage`` of the grid's stencil grids, with
    its checks, so every differenced derivative input and both forced
    differences share one evaluation of the stencil.
    """
    return np.concatenate([_sides(stencil.stage(_inputs_stage)[index]) for stencil in grid.stencils()])


def _rho_stage(grid: StateGrid) -> tuple:
    h, dec = density_stack(_domain_checked(grid)._rho_stack(grid))
    return h, dec.eigenvalues, dec.eigenvectors


def _drho_stage(grid: StateGrid) -> tuple:
    return (_checked_drho(_domain_checked(grid)._drho_stack(grid)),)


def _drho_fd_stage(grid: StateGrid) -> tuple:
    """drho by central differences of rho at every theta, analytic or not.

    The only difference of rho: the forced one, and the drho of a model
    without an analytic derivative at a theta. The states on the stencil
    are the model's stacked rho of the grid's stencil grids, whose value
    inputs ``_dsqrt_fd_stage`` reads as well.
    """
    cls = _domain_checked(grid)
    diffs = [_stencil_difference(_sides(cls._rho_stack(s)), grid.key.fd_step) for s in grid.stencils()]
    # the quotient of Hermitian evaluations is Hermitian; dividing by 2h
    # amplifies matmul rounding asymmetry past the construction gate
    return (_checked_drho(symmetrized(np.concatenate(diffs))),)


def _checked_drho(stack: np.ndarray) -> np.ndarray:
    """The validated (T, n, n) stack of drho: Hermitian, and traceless within ``TRACELESS_ATOL``."""
    h = hermitian_part(stack)
    tr = np.abs(np.trace(h, axis1=-2, axis2=-1).real)
    i = first_failing(tr > TRACELESS_ATOL)
    if i is not None:
        raise ValueError(f"state derivative has trace {tr[i]:.3e} > {TRACELESS_ATOL}")
    return h


def _dsqrt_stage(grid: StateGrid) -> tuple:
    """Solve 2 sqrt(rho) X + X 2 sqrt(rho) = 2 drho in the eigenbasis of rho, per layer."""
    _, dec = grid.rho_stack()
    doubled = SpectralDecomposition(
        eigenvalues=2.0 * sqrt_eigenvalues(dec.eigenvalues), eigenvectors=dec.eigenvectors
    )
    return (solve_symmetric_product(doubled, grid.drho_stack()).mat,)


def _dsqrt_fd_stage(grid: StateGrid) -> tuple:
    """Central difference of sqrt(rho) at every theta, from the grid's stencil grids.

    A stencil grid holds rho(theta + h) and rho(theta - h) of its thetas, so
    one ``density_stack`` and one eigh serve all of them; its square roots
    follow ``psd_sqrt``. The stencil grid keeps only its value inputs, not
    this rho or its eigendecomposition.
    """
    key, diffs = grid.key, []
    for stencil in grid.stencils():
        _, dec = density_stack(key.cls._rho_stack(stencil))
        diffs.append(_stencil_difference(_sides(sqrt_stack(dec)), key.fd_step))
    return (hermitian_part(np.concatenate(diffs)),)


def _dsqrt_route_stage(grid: StateGrid) -> tuple:
    """The square-root derivative of every theta, and whether it fell back to differences.

    It is the eigenbasis solve's, unless the solve's right-hand side is
    inconsistent on a rank-deficient state. A grid of more than one theta
    then raises, so that it splits and only the inconsistent points fall
    back; a grid of one reads the ``_dsqrt_fd_stage`` difference instead.
    """
    try:
        x = grid.stage(_dsqrt_stage)[0]
    except RankDeficientInconsistent:
        if len(grid.thetas) > 1:
            raise
        return grid.stage(_dsqrt_fd_stage)[0], np.ones(1, dtype=bool)
    return x, np.zeros(len(grid.thetas), dtype=bool)


def _point_rho(pt: StatePoint) -> DensityMatrix:
    h, lam, vecs = pt.layer(_rho_stage)
    return DensityMatrix.of_checked(h, SpectralDecomposition(eigenvalues=lam, eigenvectors=vecs))


def _point_drho(pt: StatePoint) -> HermitianMatrix:
    return HermitianMatrix.of_checked(pt.layer(_drho_stage)[0])


def _point_dsqrt(pt: StatePoint) -> SqrtDerivative:
    x, fell_back = pt.layer(_dsqrt_route_stage)
    return SqrtDerivative(
        matrix=HermitianMatrix.of_checked(x),
        route="fd" if fell_back else "solve",
        fd_fallback=bool(fell_back),
    )


def _checked_step(fd_step: float) -> float:
    if not fd_step > 0.0:
        raise ConfigError(f"finite-difference step must be positive, got {fd_step!r}")
    return float(fd_step)


class ParametricStateModel:
    """Base class: map theta to a density matrix, with derivative access.

    A model class reads the value inputs of a grid's members (``_inputs``),
    maps them to the (T, n, n) stack of rho (``_rho_formula``), and reads
    their derivative inputs, analytic or differenced (``_derivative_inputs``);
    a grid runs the readers once each, as ``_inputs_stage`` and
    ``_dinputs_stage``. These are class methods over the grid: each member
    calls its own model's callables, and what they share they read from the
    grid's key (``_batch_key``). A custom model's one value input is
    ``rho_matrix`` (the formula is the identity), and its one derivative
    input ``_drho_analytic``, or where that is None the central difference
    of rho with ``fd_step`` (``_drho_fd_stage``), the one step all its
    derivatives use. ``domain`` is a closed interval of admissible theta.
    ``fd_step`` is set here, where the model is built, and nowhere else: a
    model at another step is another model, built at it.

    ``rho``, ``drho`` and ``dsqrt_rho`` read ``self.at(theta)``, and nothing
    in the package calls them; they stay because the benchmark's tracer
    wraps them by name.
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

    def _batch_key(self) -> BatchKey:
        """The key of the grids this model's points share: a custom model's names the model."""
        return BatchKey(type(self), self.dim, self.fd_step, owner=self)

    def _require_in_domain(self, theta: float) -> None:
        lo, hi = self.domain
        if not (lo <= theta <= hi):
            raise DomainError(f"theta={theta} outside domain [{lo}, {hi}]")

    def _require_stencil(self, theta: float) -> None:
        """Raise DomainError unless theta - fd_step and theta + fd_step lie in the domain."""
        self._require_in_domain(theta - self.fd_step)
        self._require_in_domain(theta + self.fd_step)

    def rho_matrix(self, theta: float) -> np.ndarray:
        raise NotImplementedError

    def _drho_analytic(self, theta: float) -> np.ndarray | None:
        """Structured derivative; any differenced ingredient uses ``fd_step``."""
        return None

    @classmethod
    def _inputs(cls, members) -> tuple:
        """(rho,): ``rho_matrix`` of each (model, theta) member, stacked."""
        return (square_stack([model.rho_matrix(theta) for model, theta in members]),)

    @staticmethod
    def _rho_formula(rho: np.ndarray) -> np.ndarray:
        return rho

    @classmethod
    def _derivative_inputs(cls, grid: StateGrid) -> tuple:
        """(drho,): ``_drho_analytic`` of each member, or where it is None the ``_drho_fd_stage``.

        The difference runs over only the members without an analytic form:
        the grid's own stage where none has one, so that the forced difference
        shares it, and else a grid of just those members, so that an analytic
        theta neither evaluates its stencil nor needs one inside the domain.
        """
        ds = [model._drho_analytic(theta) for model, theta in grid.members]
        missing = [k for k, d in enumerate(ds) if d is None]
        if missing:
            fd_grid = grid if len(missing) == len(ds) else StateGrid(grid.key, [grid.members[k] for k in missing])
            for k, d in zip(missing, fd_grid.stage(_drho_fd_stage)[0]):
                ds[k] = d
        return (square_stack(ds),)

    @classmethod
    def _rho_stack(cls, grid: StateGrid) -> np.ndarray:
        """rho of every member of ``grid``, as one (T, n, n) array: the formula over their value inputs."""
        return cls._rho_formula(*grid.stage(_inputs_stage))

    @classmethod
    def _drho_stack(cls, grid: StateGrid) -> np.ndarray:
        """drho of every member of ``grid``: here the one derivative input."""
        return grid.stage(_dinputs_stage)[0]

    @property
    def has_analytic_derivative(self) -> bool:
        return False

    def grid(self, thetas: Iterable[float]) -> Iterator[StatePoint]:
        """The states at ``thetas``, in order, evaluated lazily and together: the batch of this
        one model (``batch_grid``)."""
        return batch_grid((self, theta) for theta in thetas)

    def at(self, theta: float) -> StatePoint:
        """The state at theta: a batch of one."""
        return next(batch_grid(((self, theta),)))

    def rho(self, theta: float) -> DensityMatrix:
        return self.at(theta).rho

    def drho(self, theta: float) -> HermitianMatrix:
        """The point's drho, analytic where the model has it (``_drho_stage``)."""
        return self.at(theta).drho

    def dsqrt_rho(self, theta: float) -> SqrtDerivative:
        """The point's square-root derivative, with its route (``_dsqrt_route_stage``)."""
        return self.at(theta).dsqrt


def batch_grid(pairs: Iterable[tuple[ParametricStateModel, float]]) -> Iterator[StatePoint]:
    """The state of each (model, theta) pair, in the order given, evaluated lazily and together.

    The pairs whose models share a batch key share a ``StateGrid``: each
    key's pairs, in the order given, are cut into blocks of at most
    max(1, GRID_BLOCK_ENTRIES // dim^2), so each stage runs once per block
    and no stacked array outgrows a block. A block is built when the first
    of its points is reached. A custom model keys on itself, so its pairs
    share a grid with no other model's.
    """
    pairs = list(pairs)
    keys, groups = {}, {}
    for i, (model, _) in enumerate(pairs):
        key = keys.get(id(model))  # the list holds every model, so no id is reused
        if key is None:
            key = keys[id(model)] = model._batch_key()
        groups.setdefault(key, []).append(i)
    blocks, slots = [], [None] * len(pairs)  # slots[i]: the block of pair i and its place there
    for key, indices in groups.items():
        size = _block_size(key.dim)
        for start in range(0, len(indices), size):
            block = indices[start:start + size]
            for place, i in enumerate(block):
                slots[i] = (len(blocks), place)
            blocks.append((key, block))
    live: dict[int, tuple] = {}  # the points of each built block that still has some to yield
    for b, place in slots:
        points = live.get(b)
        if points is None:
            key, block = blocks[b]
            points = live[b] = StateGrid(key, [pairs[i] for i in block]).points()
        if place == len(points) - 1:
            del live[b]
        yield points[place]


class _StackedModel(ParametricStateModel):
    """A built-in kind: its inputs are the callables it wraps, read with their checks.

    A differenced input reads the stencil grids' value inputs
    (``_stencil_inputs``). Its points batch with those of every model of its
    class, dimension and step whose inputs ``_analytic_inputs`` names the
    same. ``rho_matrix(theta)`` is the formula at one theta, which the
    benchmark's oracle reads.
    """

    def _analytic_inputs(self) -> tuple[str, ...]:
        """The names of the inputs whose derivative is analytic, in the class's order."""
        raise NotImplementedError

    def _batch_key(self) -> BatchKey:
        return BatchKey(type(self), self.dim, self.fd_step, self._analytic_inputs())

    def rho_matrix(self, theta: float) -> np.ndarray:
        return self._rho_formula(*self._inputs(((self, theta),)))[0]


def _family_dprojectors(grid: StateGrid, index: int, analytic: bool, velocity: Callable) -> np.ndarray:
    """dP of each member's pure family: from its states, value input ``index``, and its
    dpsi, ``velocity(model)``, where that is ``analytic``, or else by central differences
    of its states on the stencil."""
    if analytic:
        states = grid.stage(_inputs_stage)[index]
        return _projector_derivatives(states, _read(grid, velocity, "dpsi"))
    return symmetrized(_stencil_difference(projectors(_stencil_inputs(grid, index)), grid.key.fd_step))


class PureStateModel(_StackedModel):
    """rho(theta) = |psi(theta)><psi(theta)| for a pure family.

    Inputs: the state psi, and dpsi or the states at theta +- fd_step.
    """

    kind = "pure"

    def __init__(self, family: PureFamily, **kwargs):
        super().__init__(family.dim, **kwargs)
        self.family = family

    def _analytic_inputs(self) -> tuple[str, ...]:
        return ("dpsi",) if self.family.dpsi is not None else ()

    @classmethod
    def _inputs(cls, members) -> tuple:
        """(psi,): every member's raw state, then one stacked check."""
        raws = [model.family.psi(theta) for model, theta in members]
        return (_checked_states(members[0][0].dim, [theta for _, theta in members], raws),)

    @staticmethod
    def _rho_formula(v: np.ndarray) -> np.ndarray:
        return projectors(v)

    @classmethod
    def _derivative_inputs(cls, grid: StateGrid) -> tuple:
        """(dP,): the projector derivative, which is drho and what the closed form reads."""
        analytic = "dpsi" in grid.key.analytic
        return (_family_dprojectors(grid, 0, analytic, lambda model: model.family.velocity),)

    @property
    def has_analytic_derivative(self) -> bool:
        return self.family.dpsi is not None


class QubitMixtureModel(_StackedModel):
    """Two-dimensional mixture of orthogonal pure states.

    rho = w |psi1><psi1| + (1-w) |psi2><psi2| with <psi1|psi2> = 0. In two
    dimensions psi2 is fixed by psi1 up to a phase, so the second projector
    is I - |psi1><psi1| and nothing the model computes reads psi2's phase.
    ``canonical_psi2(model.at(theta))`` gives the canonical choice: the
    image of psi1 under the projector derivative, normalized.

    Inputs: the weight w and the state psi1; w' (from dw or the checked
    weight at theta +- fd_step) and dP1 (as for a pure family). Its batch
    key names psi1's dpsi and the weight's dw where each is analytic.
    """

    kind = "qubit_mixture"

    def __init__(self, psi1: PureFamily, weight: WeightFunction, **kwargs):
        if psi1.dim != 2:
            raise DimensionError("orthogonal two-state mixtures require dim 2")
        super().__init__(2, **kwargs)
        self.psi1 = psi1
        self.weight = weight

    def _analytic_inputs(self) -> tuple[str, ...]:
        return tuple(name for name, fn in (("dpsi", self.psi1.dpsi), ("dw", self.weight.dw)) if fn is not None)

    @classmethod
    def _inputs(cls, members) -> tuple:
        """(w, psi1): every member's raw weight and state, then one stacked check of each,
        the weights before the states."""
        raws = [(float(model.weight.w(theta)), model.psi1.psi(theta)) for model, theta in members]
        thetas = [theta for _, theta in members]
        w = _checked_weights(thetas, [w for w, _ in raws])
        return w, _checked_states(2, thetas, [v for _, v in raws])

    @staticmethod
    def _rho_formula(w: np.ndarray, v: np.ndarray) -> np.ndarray:
        p1 = projectors(v)
        w = w[:, None, None]
        return w * p1 + (1.0 - w) * (np.eye(2) - p1)

    @classmethod
    def _derivative_inputs(cls, grid: StateGrid) -> tuple:
        """(w', dP1): the weight's slope and psi1's projector derivative, at ``fd_step``."""
        analytic = grid.key.analytic
        if "dw" in analytic:
            dw = _read(grid, lambda model: model.weight.dw, "dw", float)
        else:
            dw = _stencil_difference(_stencil_inputs(grid, 0), grid.key.fd_step)
        dp1 = _family_dprojectors(grid, 1, "dpsi" in analytic, lambda model: model.psi1.velocity)
        return dw, dp1

    @classmethod
    def _drho_stack(cls, grid: StateGrid) -> np.ndarray:
        w, v = grid.stage(_inputs_stage)
        dw, dp1 = grid.stage(_dinputs_stage)
        return dw[:, None, None] * (2.0 * projectors(v) - np.eye(2)) + (2.0 * w - 1.0)[:, None, None] * dp1

    @property
    def has_analytic_derivative(self) -> bool:
        return self.psi1.dpsi is not None and self.weight.dw is not None


def _checked_dlambdas(dlam: np.ndarray) -> np.ndarray:
    """The (T, n) weight derivatives, once each member's sum to 0 (a non-finite entry fails too)."""
    total = np.abs(np.sum(dlam, axis=-1))
    i = first_failing(~(total <= DLAMBDA_SUM_ATOL))
    if i is not None:
        raise ValueError(f"weight derivatives sum to {total[i]:.3e} > {DLAMBDA_SUM_ATOL}")
    return dlam


def _checked_lambdas(dim: int, thetas, raws) -> np.ndarray:
    """The (T, dim) eigenvalue weights, from their raw values, clipped to [0, 1]: each member's
    of count ``dim``, then summing to 1 (a non-finite weight fails too), then within [0, 1]."""
    lams = [np.asarray(v, dtype=float).reshape(-1) for v in raws]
    i = first_failing(np.array([lam.shape[0] != dim for lam in lams]))
    if i is not None:
        raise DimensionError(f"{lams[i].shape[0]} weights for dim {dim}")
    stack = np.array(lams)
    total = np.sum(stack, axis=-1)
    i = first_failing(~(np.abs(total - 1.0) <= LAMBDA_SUM_ATOL))
    if i is not None:
        raise ValueError(f"eigenvalue weights sum to {float(total[i])!r} at theta={thetas[i]}")
    outside = (np.min(stack, axis=-1) < -LAMBDA_RANGE_ATOL) | (np.max(stack, axis=-1) > 1.0 + LAMBDA_RANGE_ATOL)
    i = first_failing(outside)
    if i is not None:
        raise ValueError(f"eigenvalue weights outside [0, 1] at theta={thetas[i]}")
    return np.clip(stack, 0.0, 1.0)


def _checked_frames(dim: int, thetas, raws) -> np.ndarray:
    """The (T, dim, dim) frames, from their raw values: each of shape (dim, dim), then with
    U*U within ``ORTHO_ATOL`` of the identity (a non-finite entry fails too)."""
    us = [np.asarray(u, dtype=complex) for u in raws]
    i = first_failing(np.array([u.shape != (dim, dim) for u in us]))
    if i is not None:
        raise DimensionError(f"frame has shape {us[i].shape}, expected {(dim, dim)}")
    stack = np.array(us)
    dev = layer_norms(stack.conj().swapaxes(-1, -2) @ stack - np.eye(dim))
    i = first_failing(~(dev <= ORTHO_ATOL))
    if i is not None:
        raise ValueError(f"frame deviates from unitarity by {dev[i]:.3e} at theta={thetas[i]}")
    return stack


def _frame_projectors(u: np.ndarray) -> np.ndarray:
    """P_k = u_k u_k^dagger of each column of a frame, or of each frame of a stack: (..., n, n, n)."""
    return projectors(u.swapaxes(-1, -2))


def _skew_generator(a: np.ndarray) -> np.ndarray:
    """(A - A*)/2 with its diagonal zeroed, for each matrix of a (T, n, n) stack."""
    a = (a - a.conj().swapaxes(-1, -2)) / 2.0
    diag = np.arange(a.shape[-1])
    a[:, diag, diag] = 0.0
    return a


def _generator_from_frames(u: np.ndarray, du: np.ndarray) -> np.ndarray:
    """A = U^dagger dU, made skew-Hermitian with zero diagonal, of (T, n, n) stacks."""
    return _skew_generator(u.conj().swapaxes(-1, -2) @ du)


def _generator_from_stencil(u: np.ndarray, sides: np.ndarray, h: float) -> np.ndarray:
    """A from the central differences dP_k of the projectors on the frames at theta +- h.

    Column k off the diagonal is U^dagger dP_k u_k, which no column phase
    convention affects. ``sides`` is the (T, 2, n, n) stack of those frames.
    The projectors of one theta hold n^3 entries, so they are built one
    theta at a time, and no stacked array outgrows a grid block.
    """
    images = np.array([
        np.einsum("kij,jk->ik", _stencil_difference(_frame_projectors(pair[None]), h)[0], v)
        for pair, v in zip(sides, u)
    ])
    return _skew_generator(u.conj().swapaxes(-1, -2) @ images)


class SpectralMixtureModel(_StackedModel):
    """rho(theta) = sum_l lambda_l(theta) |u_l(theta)><u_l(theta)|.

    The orthonormal frame u_l comes from a smooth unitary path; eigenvalue
    weights lambda_l(theta) are nonnegative and sum to 1. Analytic
    derivatives of the weights and frame are used when supplied, central
    differences otherwise.

    The frame's motion is carried by its generator A = U^dagger dU (the
    second derivative input), skew-Hermitian with column a_k = U^dagger du_k.
    In the frame basis each projector derivative is
    U^dagger dP_k U = a_k e_k^T + e_k a_k^dagger, which never reads the
    diagonal of A (the phase gauge of the columns), so it is set to zero.

    Inputs: the weights lambda and the frame U; lambda' and A (from dlambdas
    and dframe, or from the checked weights and the frames at
    theta +- fd_step). Without both analytic derivatives drho is the central
    difference of rho, ``_drho_fd_stage``.

    ``_inputs`` reads every member's raw weights and frame and checks them
    as one stack; ``lambdas_at`` and ``frame_at`` are that check on a stack
    of one. ``dprojectors_at`` stays because the benchmark's tracer wraps
    it, as it does ``frame_at``.
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
        return _checked_lambdas(self.dim, [theta], [self._lambdas(theta)])[0]

    def frame_at(self, theta: float) -> np.ndarray:
        return _checked_frames(self.dim, [theta], [self._frame(theta)])[0]

    def dprojectors_at(self, theta: float) -> list[np.ndarray]:
        """dP_k = du_k u_k^dagger + u_k du_k^dagger: the point's layer of ``_projectors_stage``."""
        return list(self.at(theta).layer(_projectors_stage)[1])

    def _analytic_inputs(self) -> tuple[str, ...]:
        return tuple(name for name, fn in (("dlambdas", self._dlambdas), ("dframe", self._dframe)) if fn is not None)

    @classmethod
    def _inputs(cls, members) -> tuple:
        """(lambda, U): every member's raw weights and frame, then one stacked check of
        each, the weights before the frames."""
        raws = [(model._lambdas(theta), model._frame(theta)) for model, theta in members]
        dim, thetas = members[0][0].dim, [theta for _, theta in members]
        lam = _checked_lambdas(dim, thetas, [lam for lam, _ in raws])
        return lam, _checked_frames(dim, thetas, [u for _, u in raws])

    @staticmethod
    def _rho_formula(lam: np.ndarray, u: np.ndarray) -> np.ndarray:
        return SpectralDecomposition(lam, u).reconstruct()

    @classmethod
    def _derivative_inputs(cls, grid: StateGrid) -> tuple:
        """(lambda', A): the weight derivatives and the frame generator of every member."""
        analytic, h = grid.key.analytic, grid.key.fd_step
        u = grid.stage(_inputs_stage)[1]
        if "dframe" in analytic:
            a = _generator_from_frames(u, _read(grid, lambda model: model._dframe, "dframe"))
        else:
            a = _generator_from_stencil(u, _stencil_inputs(grid, 1), h)
        if "dlambdas" in analytic:
            dlam = _read(grid, lambda model: model._dlambdas, "dlambdas", float).reshape(len(grid.members), -1)
        else:
            dlam = _stencil_difference(_stencil_inputs(grid, 0), h)
        return _checked_dlambdas(dlam), a

    @classmethod
    def _drho_stack(cls, grid: StateGrid) -> np.ndarray:
        """U (diag dlam + A Lambda - Lambda A) U^dagger, or the ``_drho_fd_stage``."""
        if grid.key.analytic != ("dlambdas", "dframe"):
            return grid.stage(_drho_fd_stage)[0]
        lam, u = grid.stage(_inputs_stage)
        dlam, a = grid.stage(_dinputs_stage)
        inner = a * (lam[:, None, :] - lam[:, :, None])
        diag = np.arange(grid.key.dim)
        inner[:, diag, diag] = dlam
        return (u @ inner) @ u.conj().swapaxes(-1, -2)

    @property
    def has_analytic_derivative(self) -> bool:
        return self._dlambdas is not None and self._dframe is not None


def _projectors_stage(grid: StateGrid) -> tuple:
    """(P, dP): a spectral model's frame projectors at every member and their derivatives,
    each (T, n, n, n).

    U is the value input; du is each member's raw ``dframe``, so that one
    whose U^dagger dU is not skew shows in the projector identities, or
    else U A from the derivative inputs.
    """
    u = grid.stage(_inputs_stage)[1]
    if "dframe" in grid.key.analytic:
        du = _read(grid, lambda model: model._dframe, "dframe")
    else:
        du = u @ grid.stage(_dinputs_stage)[1]
    return _frame_projectors(u), _projector_derivatives(u.swapaxes(-1, -2), du.swapaxes(-1, -2))


def _psi2_stage(grid: StateGrid) -> tuple:
    """A qubit mixture's canonical psi2 at every theta (see ``canonical_psi2``).

    It reads psi1 and dP1 from the model's input stages, and takes every
    theta at once: the stationarity check is one stacked trace, and psi2 one
    stacked matrix-vector product, inner product (``np.vecdot``, the dot
    kernel of ``np.vdot``) and ``layer_norms``, each with the bits of its
    per-theta form. The first failing theta names the error.
    """
    psi = grid.stage(_inputs_stage)[1]
    dp = grid.stage(_dinputs_stage)[1]
    info = 2.0 * real_trace_product([dp, dp])
    i = first_failing(info <= STATIONARY_TOL)
    if i is not None:
        raise StationaryFamilyError(
            f"family is stationary at theta={grid.thetas[i]} (information {info[i]:.3e})"
        )
    v = (dp @ psi[:, :, None])[:, :, 0]
    v = v - np.vecdot(psi, v)[:, None] * psi
    v = v / layer_norms(v)[:, None]
    overlap = magnitudes(np.vecdot(psi, v))
    i = first_failing(overlap > ORTHO_ATOL)
    if i is not None:
        raise ValueError(f"constructed psi2 overlaps psi1 by {overlap[i]:.3e}")
    return (v,)


def canonical_psi2(pt: StatePoint) -> UnitVector:
    """Distinguished unit vector orthogonal to psi1 at a point of a ``QubitMixtureModel``:
    the point's layer of ``_psi2_stage``, which runs once per grid.

    Normalized image of psi1 under its projector derivative dP1, with its
    psi1 component projected out; defined only where the family is not
    stationary. psi1 and dP1 are the point's model inputs, as the qubit
    closed forms read them, so the point must be valid: the weight in (0, 1)
    at theta, and at theta +- fd_step where an input is differenced. The
    image is orthogonal to psi1 exactly only for an exact derivative: a
    differenced one leaves an O(h^2) overlap wherever the phase speed varies.
    """
    return UnitVector(pt.layer(_psi2_stage)[0])


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
    path. The one model of ``fixed_spectrum_models``.
    """
    return fixed_spectrum_models([spectrum], seed=seed, frame=frame, **kwargs)[0]


def fixed_spectrum_models(spectra, seed: int | None = None, frame: str = "random", **kwargs) -> list:
    """One ``fixed_spectrum_model`` per spectrum, all of one dimension, sharing one frame path.

    The frame depends on the dimension, ``frame`` and ``seed`` alone, so it
    is built once: a model of the list is the one ``fixed_spectrum_model``
    builds of its spectrum, bit for bit.
    """
    lams = [np.asarray(spectrum, dtype=float).reshape(-1) for spectrum in spectra]
    dim = lams[0].shape[0]
    if any(lam.shape[0] != dim for lam in lams):
        raise DimensionError("spectra of one frame must share a dimension")
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
    return [
        SpectralMixtureModel(
            dim,
            lambdas=lambda t, lam=lam: lam.copy(),
            frame=frame_fn,
            dlambdas=lambda t: np.zeros(dim),
            dframe=dframe,
            **kwargs,
        )
        for lam in lams
    ]


def qubit_mixture_as_spectral(model: QubitMixtureModel) -> SpectralMixtureModel:
    """Embed a qubit mixture as a two-eigenvalue spectral mixture.

    Frame columns are psi1 and the distinguished orthogonal psi2; the frame
    derivative is left to finite differences. The weight slope is analytic
    when the weight has one; otherwise the spectral model differences its
    eigenvalue weights. The result is built at the mixture's ``fd_step``,
    at which its frame's psi2 reads the mixture's points, so every
    difference of the embedding steps by it; to embed at another step,
    build the mixture at that step. Its drho is the difference of rho,
    since the frame has no derivative.

    Nothing in the package calls it, and no verify check or CLI config
    builds it: only the unit tests guard it.
    """
    weight = model.weight

    def lambdas(t: float) -> np.ndarray:
        w = weight.value(t)
        return np.array([w, 1.0 - w])

    def dlambdas(t: float) -> np.ndarray:
        dw = float(weight.dw(t))
        return np.array([dw, -dw])

    def frame(t: float) -> np.ndarray:
        pt = model.at(t)
        return np.column_stack([pt.layer(_inputs_stage)[1], canonical_psi2(pt).vec])

    return SpectralMixtureModel(
        2,
        lambdas=lambdas,
        frame=frame,
        dlambdas=None if weight.dw is None else dlambdas,
        dframe=None,
        domain=model.domain,
        fd_step=model.fd_step,
        sample_thetas=model.sample_thetas,
    )


def builtin_models(fd_step: float = DEFAULT_FD_STEP) -> dict[str, ParametricStateModel]:
    """Named model catalog used by the verification suite and the CLI, every model built at ``fd_step``."""
    rot = rotation_family()
    rot_fd = PureFamily(dim=2, psi=rot.psi)  # same family, derivative by differences
    w07_fd = WeightFunction(w=lambda t: 0.7)
    return {
        "qubit-rotation": PureStateModel(rot, fd_step=fd_step),
        "qubit-rotation-fd": PureStateModel(rot_fd, fd_step=fd_step),
        "qubit-complex-rotation": PureStateModel(complex_rotation_family(), fd_step=fd_step),
        "pure-random-3": PureStateModel(random_pure_family(101, 3), fd_step=fd_step),
        "pure-random-4": PureStateModel(random_pure_family(11, 4), fd_step=fd_step),
        "mixture-w0.9": rotation_mixture(0.9, fd_step=fd_step),
        "mixture-w0.45": rotation_mixture(0.45, fd_step=fd_step),
        "mixture-w0.7-fd": QubitMixtureModel(rot_fd, w07_fd, fd_step=fd_step),
        "sine-weight-mixture": rotation_mixture(
            sine_weight(), domain=(-1.45, 1.45), fd_step=fd_step,
            sample_thetas=(-1.1, -0.5, 0.0, 0.4, 1.0),
        ),
        "logistic-weight-mixture": rotation_mixture(logistic_weight(1.5, 0.0), fd_step=fd_step),
        "spectral-random-5-2": random_spectral_model(5, 2, fd_step=fd_step),
        "spectral-random-7-3": random_spectral_model(7, 3, fd_step=fd_step),
        "spectral-random-21-4": random_spectral_model(21, 4, fd_step=fd_step),
        "spectral-random-3-6": random_spectral_model(3, 6, fd_step=fd_step),
    }
