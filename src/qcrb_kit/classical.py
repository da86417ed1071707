"""Finite-outcome measurement statistics and classical Fisher information.

Outcome distributions come from the trace rule p(x) = tr{rho m_x}; the
classical Fisher information of the outcome distribution is summed over
the support and compared against the Helstrom bound. Outcome spaces are
finite: the measure-theoretic integral over outcomes is realized as a sum.
The state functions take ``(point, povm)``, the point a ``StatePoint``
(``model.at(theta)``), and read its grid's stacked rho and drho.

A measurement set is a unit of evaluation, as a theta grid is. Random
measurements are drawn as a set (``random_povms``): each keeps its own
seeded stream, the normalizers of one dimension share one stacked ``eigh``,
and the effects of one dimension are built by one stacked product and
validated as one stack. The trace rule runs once per (grid, set):
``_probs_stage`` takes the probabilities of every theta against the set's
concatenated effects as one batched product, and applies the negativity
and normalization checks, the clip at 0 and the support mask to each
measurement's slice of the (T, K) array; ``_scores_stage`` does the same
product with the stacked drho, and ``_fisher_stage`` applies the
score-blowup rule and sums each measurement's slice at every theta.
``classical_fishers`` reads a point's row of it; ``classical_fisher``,
``outcome_probs`` and ``outcome_scores`` are the set of one. Every
member of a set gets the bits it gets alone, and a set that fails is read
again one member at a time, in order, so that its error is the one the
first failing member raises alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import DimensionError, EigenConvergenceError, InvalidPovm, SupportRegularityError
from .hermitian import (
    HermitianMatrix,
    as_array,
    eigh,
    failing_layers,
    first_failing,
    hermitian_faults,
    hermitian_part,
    layer_norms,
    projectors,
    raise_first,
    real_traces_against,
)
from .models import StateGrid, StatePoint
from .quantum import NEAR_ZERO_INFO, helstrom_info_sld, wy_info_generic

SUPPORT_PROB = 1e-12
SCORE_BLOWUP_ATOL = 1e-8
COMPLETENESS_ATOL = 1e-10
EFFECT_EIG_FLOOR = -1e-10
BOUND_SLACK = 1e-9
NORMALIZER_EIG_FLOOR = 1e-10  # random_povm redraws a normalizer this close to singular


class Povm:
    """Finite list of PSD effects summing to the identity.

    The effects are one read-only (k, n, n) array, ``stack``, validated as a
    whole when built (``_checked_effects`` on a set of one); the trace rule
    reads it in one product. ``effects`` wraps its layers as
    ``HermitianMatrix`` objects on access.
    """

    __slots__ = ("stack",)

    def __init__(self, effects):
        stack = _effect_stack(effects)
        self.stack = _checked_effects(stack, (len(stack),))[0]

    @classmethod
    def _of_checked(cls, stack: np.ndarray) -> "Povm":
        """Wrap a read-only effect stack that ``_checked_effects`` returned."""
        povm = cls.__new__(cls)
        povm.stack = stack
        return povm

    @property
    def effects(self) -> tuple[HermitianMatrix, ...]:
        return tuple(HermitianMatrix.of_checked(layer) for layer in self.stack)

    @property
    def dim(self) -> int:
        return self.stack.shape[1]

    def __len__(self) -> int:
        return self.stack.shape[0]

    def __iter__(self):
        return iter(self.effects)

    def __getitem__(self, i):
        return self.effects[i]

    def merged(self, i: int, j: int) -> "Povm":
        """Coarse-grain by summing effects i and j, two indices in range(len(self)), into one outcome."""
        for k in (i, j):
            if not isinstance(k, int) or not 0 <= k < len(self):
                raise ValueError(f"effect index {k!r} is not one of the {len(self)} effects")
        if i == j:
            raise ValueError("cannot merge an effect with itself")
        rest = [k for k in range(len(self)) if k not in (i, j)]
        return Povm(np.concatenate([self.stack[rest], (self.stack[i] + self.stack[j])[None]]))


def _effect_stack(effects) -> np.ndarray:
    """The effects as one complex (k, n, n) array of square matrices, k >= 1.

    Effects that do not form one are built one at a time, in the order
    given, as ``HermitianMatrix`` objects, so that the first faulty one
    names the error; if none is faulty, their dimensions are mixed.
    """
    if not isinstance(effects, np.ndarray):
        effects = [as_array(e) if isinstance(e, HermitianMatrix) else e for e in effects]
    try:
        stack = np.asarray(effects, dtype=complex)
    except (TypeError, ValueError):  # effects of unequal shapes, or an entry that is no number
        stack = None
    if stack is not None and stack.ndim == 3 and stack.shape[1] == stack.shape[2] and len(stack):
        return stack
    for e in effects:
        HermitianMatrix(e)
    if not len(effects):
        raise InvalidPovm("a measurement needs at least one effect")
    raise DimensionError("effects have mixed dimensions")


def _effect_faults(whole: np.ndarray, sizes) -> tuple[list[np.ndarray], list]:
    """The effects of consecutive measurements of one dimension, checked in one pass.

    ``whole`` is their (K, n, n) concatenation and ``sizes`` their effect
    counts. Returns each measurement's read-only (k, n, n) slice of the
    symmetrized stack, and the faults (``raise_first``) of the measurements,
    in the order one measurement is checked: an effect that
    ``hermitian_part`` rejects, an effect with an eigenvalue below
    ``EFFECT_EIG_FLOOR`` (one batched eigenvalue call; the first names the
    error, by its index in its own measurement), and effects whose sum
    deviates from the identity by more than ``COMPLETENESS_ATOL``
    (``layer_norms`` of the stacked sums).
    """
    h, effect_faults = hermitian_faults(whole)
    eye = np.eye(h.shape[-1])
    starts = list(accumulate(sizes[:-1], initial=0))
    spans = [slice(start, start + k) for start, k in zip(starts, sizes)]
    faults, safe = [], h
    if effect_faults:
        rejected = failing_layers(effect_faults, len(h))

        def rejected_error(j):
            i = spans[j].start + first_failing(rejected[spans[j]])
            return next(error(i) for bad, error in effect_faults if bad[i])

        faults.append((np.logical_or.reduceat(rejected, starts), rejected_error))
        # a rejected effect may not be finite: the identity stands in for it in the later checks
        safe = np.where(rejected[:, None, None], eye, h)
    try:
        lam_min = np.linalg.eigvalsh(safe)[:, 0]
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"LAPACK eigvalsh failed: dims={h.shape}: {exc}") from exc
    low = lam_min < EFFECT_EIG_FLOOR
    dev = layer_norms(np.add.reduceat(safe, starts, axis=0) - eye)
    h.setflags(write=False)

    def low_error(j):
        i = first_failing(low[spans[j]])
        return InvalidPovm(f"effect {i} has eigenvalue {lam_min[spans[j]][i]:.3e} < {EFFECT_EIG_FLOOR}")

    return [h[s] for s in spans], faults + [
        (np.logical_or.reduceat(low, starts), low_error),
        (dev > COMPLETENESS_ATOL, lambda j: InvalidPovm(f"effects sum deviates from identity by {dev[j]:.3e}")),
    ]


def _checked_effects(whole: np.ndarray, sizes) -> list[np.ndarray]:
    """Each measurement's read-only slice of ``_effect_faults``, once every measurement passes;
    else the error of the first that fails, as it raises alone."""
    stacks, faults = _effect_faults(whole, sizes)
    raise_first(faults)
    return stacks


def _evaluated_as_set(members, evaluate):
    """``evaluate(members)``, a sequence with one result per member; if it raises,
    each member is evaluated alone, in order, so that the first failing member
    raises what it raises alone."""
    try:
        return evaluate(members)
    except Exception as exc:  # noqa: BLE001 - re-raised below unless a member fails alone
        if len(members) == 1:
            raise
        failure = exc
    for k in range(len(members)):
        evaluate(members[k:k + 1])
    raise failure


def basis_povm(dim: int) -> Povm:
    """Projective measurement onto the computational basis."""
    return Povm(projectors(np.eye(dim)))


@dataclass(frozen=True)
class OutcomeDistribution:
    """Outcome probabilities and their support mask (p > ``SUPPORT_PROB``)."""

    probs: np.ndarray
    support: np.ndarray

    def __len__(self) -> int:
        return self.probs.shape[0]


def _check_dims(rho_dim: int, povm: Povm) -> None:
    if rho_dim != povm.dim:
        raise DimensionError(f"state dim {rho_dim} vs measurement dim {povm.dim}")


def _effects_of(povms: tuple[Povm, ...]) -> np.ndarray:
    """The effects of a set of measurements as one (K, n, n) stack, in order."""
    return povms[0].stack if len(povms) == 1 else np.concatenate([p.stack for p in povms])


def _slices(povms: tuple[Povm, ...]) -> list[slice]:
    """Each measurement's outcomes in the set's concatenated outcomes."""
    out, start = [], 0
    for povm in povms:
        out.append(slice(start, start + len(povm)))
        start += len(povm)
    return out


def _probs_stage(grid: StateGrid, povms: tuple[Povm, ...]) -> tuple:
    """The (T, K) trace-rule probabilities of a grid against a set of measurements,
    checked and clipped at 0, and their support.

    Each measurement's slice of the outcomes is checked as the measurement
    alone: a theta fails where a probability is below -SUPPORT_PROB (the
    first such theta names the smallest probability of its row), or where a
    measurement's probabilities do not sum to 1. A grid of one and a set of
    one so raise the error of that theta and measurement alone.
    """
    rho, _ = grid.rho_stack()
    for povm in povms:
        _check_dims(rho.shape[-1], povm)
    probs = real_traces_against(rho, _effects_of(povms))
    low = np.min(probs, axis=-1)
    i = first_failing(low < -SUPPORT_PROB)
    if i is not None:
        raise InvalidPovm(f"negative outcome probability {low[i]:.3e}")
    probs = np.clip(probs, 0.0, None)
    total = np.stack([np.sum(probs[:, s], axis=-1) for s in _slices(povms)], axis=-1)
    # effects that sum to the identity give probabilities that sum to 1
    i = first_failing(np.abs(total - 1.0) > COMPLETENESS_ATOL)
    if i is not None:
        raise InvalidPovm(f"outcome probabilities sum to {float(total.flat[i])!r}")
    probs.flags.writeable = False  # every outcome_probs of the grid's points shares it
    return probs, probs > SUPPORT_PROB


def outcome_probs(pt: StatePoint, povm: Povm) -> OutcomeDistribution:
    """Trace-rule distribution p_x = tr{rho(theta) m_x}: the point's layer of the
    ``_probs_stage`` of the set of one."""
    probs, support = pt.layer(_probs_stage, (povm,))
    return OutcomeDistribution(probs=probs, support=support)


def outcome_scores(pt: StatePoint, povm: Povm) -> np.ndarray:
    """Per-outcome derivatives tr{drho m_x}, which sum to 0: the ``_scores_stage`` of the set of one."""
    return pt.layer(_scores_stage, (povm,))[0]


def _scores_stage(grid: StateGrid, povms: tuple[Povm, ...]) -> tuple:
    scores = real_traces_against(grid.drho_stack(), _effects_of(povms))
    scores.flags.writeable = False  # every outcome_scores of the grid's points shares it
    return (scores,)


def _fisher_stage(grid: StateGrid, povms: tuple[Povm, ...]) -> tuple:
    """The (T, m) classical Fisher information of a grid's thetas under a set of measurements.

    Each measurement sums scores^2 / probs over the support of its slice as
    a running sum in outcome order, as a loop adds the terms (np.sum pairs
    eight or more of them differently). An outcome off the support adds 0,
    which leaves a running sum of nonnegative terms unchanged bit for bit.
    The support is never empty, since the probabilities sum to 1. The first
    theta with an outcome of vanishing probability but non-vanishing score,
    whose score function blows up, names the error.
    """
    probs, support = grid.stage(_probs_stage, povms)
    scores = grid.stage(_scores_stage, povms)[0]
    i = first_failing(~support & (np.abs(scores) > SCORE_BLOWUP_ATOL))
    if i is not None:
        raise SupportRegularityError(
            f"outcome with probability {probs.flat[i]:.3e} has score {scores.flat[i]:.3e}"
        )
    terms = np.divide(scores * scores, probs, out=np.zeros_like(probs), where=support)
    return (np.stack([np.add.accumulate(terms[:, s], axis=-1)[:, -1] for s in _slices(povms)], axis=-1),)


def classical_fishers(pt: StatePoint, povms) -> list:
    """The classical Fisher information of each measurement of a set, at one point.

    The point's row of its grid's ``_fisher_stage`` for the whole set, which
    reads the set's ``_probs_stage`` and ``_scores_stage``: one trace rule
    per (grid, set), each measurement summing its own slice. Each value has
    the bits of ``classical_fisher(pt, povm)``, and a set that fails raises
    the error of its first measurement that fails alone. A set of none
    gives [].
    """
    povms = tuple(povms)
    if not povms:
        return []
    return _evaluated_as_set(povms, lambda part: list(pt.layer(_fisher_stage, part)[0]))


def classical_fisher(pt: StatePoint, povm: Povm) -> float:
    """sum over the support of (tr{drho m_x})^2 / p_x: ``classical_fishers`` of the set of one.

    The probabilities and the scores are the point's layers of its grid's
    stacked trace rule, those of ``outcome_probs`` and ``outcome_scores``.
    An outcome with vanishing probability but non-vanishing score makes the
    score function blow up and raises SupportRegularityError.
    """
    return pt.layer(_fisher_stage, (povm,))[0][0]


@dataclass(frozen=True)
class BoundCheck:
    """Classical information against the Helstrom bound at one theta."""

    i: float
    i_h: float
    gap: float
    ok: bool
    crb: float | None  # 1 / i
    qcrb: float | None  # 1 / i_h
    approx_qcrb: float | None  # 1 / i_wy


def bound_check(pt: StatePoint, povm: Povm) -> BoundCheck:
    """Check i(theta, M) <= I_H(theta) and report the reciprocal bounds.

    Given the point of a ``relation_report``, the Helstrom and skew
    information come from that report's evaluation.
    """
    i = classical_fisher(pt, povm)
    i_h = pt.cached(helstrom_info_sld)
    i_wy = pt.cached(wy_info_generic)
    gap, ok, crb = _bound_cells(i, i_h)
    return BoundCheck(
        i=i,
        i_h=i_h,
        gap=gap,
        ok=ok,
        crb=crb,
        qcrb=1.0 / i_h if i_h > NEAR_ZERO_INFO else None,
        approx_qcrb=1.0 / i_wy if i_wy > NEAR_ZERO_INFO else None,
    )


def _bound_cells(i, i_h: float) -> tuple:
    """(gap, ok, crb) of classical information ``i`` against the Helstrom information ``i_h``."""
    return i_h - i, bool(i <= i_h + BOUND_SLACK), 1.0 / i if i > NEAR_ZERO_INFO else None


def random_povms(specs) -> list[Povm]:
    """Seeded random measurements, one per ``(dim, n_effects, seed)`` spec.

    Each spec draws PSD A_x = B_x B_x* from its own ``default_rng(seed)``
    stream and normalizes them by S^{-1/2} (sum A) S^{-1/2}, so that its
    effects sum to the identity. A spec whose normalizer S has an eigenvalue
    at or below NORMALIZER_EIG_FLOOR, or whose normalized effects fail a
    gate of ``Povm`` (a single effect, S^{-1/2} S S^{-1/2}, carries
    rounding of order cond(S) times machine epsilon), draws again from its
    stream, up to 10 times; no other spec does. After the tenth draw the
    spec raises the error of its last gate. The normalizers of one
    dimension go through one stacked ``eigh``, and the effects of each draw
    are built by one stacked R @ D @ R and checked as one stack
    (``_effect_faults``), so each measurement has the bits of its spec drawn
    alone (``random_povm``), and a set that fails raises the error of its
    first spec that fails alone.
    """
    return _evaluated_as_set(list(specs), _draw_set)


def _draw_set(specs: list) -> list[Povm]:
    for _, n_effects, _ in specs:
        if n_effects < 1:
            raise InvalidPovm("n_effects must be >= 1")
    groups = {}  # the specs of each dimension, in order of first appearance
    for i, (dim, _, _) in enumerate(specs):
        groups.setdefault(dim, []).append(i)
    povms = [None] * len(specs)
    for members in groups.values():
        rngs = {i: np.random.default_rng(specs[i][2]) for i in members}
        shapes = {i: (specs[i][1], 2, specs[i][0], specs[i][0]) for i in members}
        pending = members
        for _ in range(10):
            # per effect, the real and then the imaginary part of B_x
            g = np.concatenate([rngs[i].normal(size=shapes[i]) for i in pending])
            b = g[:, 0] + 1j * g[:, 1]
            products, start, draws = b @ b.conj().swapaxes(-1, -2), 0, {}
            for i in pending:
                draws[i], start = products[start:start + specs[i][1]], start + specs[i][1]
            # summed one draw after the other: draws.sum(axis=0) may pair them
            # differently and change the last bit
            totals = hermitian_part(np.array([sum(draws[i]) for i in pending]))
            dec = eigh(HermitianMatrix.of_checked(totals))
            regular = dec.eigenvalues[:, 0] > NORMALIZER_EIG_FLOOR
            lam, u = dec.eigenvalues, dec.eigenvectors
            if not regular.all():
                lam, u = lam[regular], u[regular]
            ready, faults = [i for i, ok in zip(pending, regular) if ok], []
            if ready:
                inv_roots = (u / np.sqrt(lam)[:, None, :]) @ u.conj().swapaxes(-1, -2)
                sizes = [specs[i][1] for i in ready]
                r = np.repeat(inv_roots, sizes, axis=0)
                stacks, faults = _effect_faults(r @ np.concatenate([draws[i] for i in ready]) @ r, sizes)
                for i, stack, bad in zip(ready, stacks, failing_layers(faults, len(ready))):
                    if not bad:
                        povms[i] = Povm._of_checked(stack)
            pending = [i for i in pending if povms[i] is None]
            if not pending:
                break
        else:
            raise_first(faults)  # the last draw's gates, else its normalizer
            raise InvalidPovm("normalizer stayed singular after 10 draws")
    return povms


def random_povm(dim: int, n_effects: int, seed: int) -> Povm:
    """Seeded random measurement: ``random_povms`` of the one spec ``(dim, n_effects, seed)``."""
    return random_povms([(dim, n_effects, seed)])[0]
