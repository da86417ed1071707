"""Finite-outcome measurement statistics and classical Fisher information.

Outcome distributions come from the trace rule p(x) = tr{rho m_x}; the
classical Fisher information of the outcome distribution is summed over
the support and compared against the Helstrom bound. Outcome spaces are
finite: the measure-theoretic integral over outcomes is realized as a sum.
The state functions take ``(point, povm)``, the point a ``StatePoint``
(``model.at(theta)``), and read its rho and drho. The trace rule runs once
per grid: ``_probs_stage`` takes the probabilities of every theta as one
batched product of the stacked rho with the effects, and applies the
negativity and normalization checks, the clip at 0 and the support mask to
the whole (T, k) array; ``_scores_stage`` does the same product with the
stacked drho. ``outcome_probs`` and ``classical_fisher`` (and so
``bound_check``) read the point's layers; per point are left the
score-blowup check and the sum over the support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EigenConvergenceError, InvalidPovm, SupportRegularityError
from .hermitian import (
    HermitianMatrix,
    as_array,
    eigh,
    first_failing,
    hermitian_part,
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
    whole when built; the trace rule reads it in one product. ``effects``
    wraps its layers as ``HermitianMatrix`` objects on access.
    """

    __slots__ = ("stack",)

    def __init__(self, effects):
        stack = hermitian_part(_effect_stack(effects))
        try:
            lam_min = np.linalg.eigvalsh(stack)[:, 0]
        except np.linalg.LinAlgError as exc:
            raise EigenConvergenceError(f"LAPACK eigvalsh failed: dims={stack.shape}: {exc}") from exc
        bad = np.flatnonzero(lam_min < EFFECT_EIG_FLOOR)
        if bad.size:
            i = int(bad[0])
            raise InvalidPovm(f"effect {i} has eigenvalue {lam_min[i]:.3e} < {EFFECT_EIG_FLOOR}")
        dev = float(np.linalg.norm(stack.sum(axis=0) - np.eye(stack.shape[1])))
        if dev > COMPLETENESS_ATOL:
            raise InvalidPovm(f"effects sum deviates from identity by {dev:.3e}")
        self.stack = stack

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
        """Coarse-grain by summing effects i and j into one outcome."""
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


def basis_povm(dim: int) -> Povm:
    """Projective measurement onto the computational basis."""
    eye = np.eye(dim)
    return Povm(eye[:, :, None] * eye[:, None, :])


@dataclass(frozen=True)
class OutcomeDistribution:
    """Outcome probabilities and their support mask (p > 1e-12)."""

    probs: np.ndarray
    support: np.ndarray

    def __len__(self) -> int:
        return self.probs.shape[0]


def _check_dims(rho_dim: int, povm: Povm) -> None:
    if rho_dim != povm.dim:
        raise DimensionError(f"state dim {rho_dim} vs measurement dim {povm.dim}")


def _probs_stage(grid: StateGrid, povm: Povm) -> tuple:
    """The (T, k) trace-rule probabilities of a grid, checked and clipped at 0, and their support.

    The first theta whose smallest probability is below -SUPPORT_PROB, or
    whose probabilities do not sum to 1, names the error, so a grid of one
    raises the error of that theta alone.
    """
    rho, _ = grid.rho_stack()
    _check_dims(rho.shape[-1], povm)
    probs = real_traces_against(rho, povm.stack)
    low = np.min(probs, axis=-1)
    i = first_failing(low < -SUPPORT_PROB)
    if i is not None:
        raise InvalidPovm(f"negative outcome probability {low[i]:.3e}")
    probs = np.clip(probs, 0.0, None)
    total = np.sum(probs, axis=-1)
    # effects that sum to the identity give probabilities that sum to 1
    i = first_failing(np.abs(total - 1.0) > COMPLETENESS_ATOL)
    if i is not None:
        raise InvalidPovm(f"outcome probabilities sum to {float(total[i])!r}")
    probs.flags.writeable = False  # every outcome_probs of the grid's points shares it
    return probs, probs > SUPPORT_PROB


def outcome_probs(pt: StatePoint, povm: Povm) -> OutcomeDistribution:
    """Trace-rule distribution p_x = tr{rho(theta) m_x}: the point's layer of ``_probs_stage``."""
    probs, support = pt.layer(_probs_stage, povm)
    return OutcomeDistribution(probs=probs, support=support)


def outcome_scores(pt: StatePoint, povm: Povm) -> np.ndarray:
    """Per-outcome derivatives tr{drho m_x}; they sum to 0."""
    return real_traces_against(pt.drho, povm.stack)


def _scores_stage(grid: StateGrid, povm: Povm) -> tuple:
    return (real_traces_against(grid.drho_stack(), povm.stack),)


def classical_fisher(pt: StatePoint, povm: Povm) -> float:
    """sum over the support of (tr{drho m_x})^2 / p_x.

    The probabilities (those of ``outcome_probs``) and the scores are the
    point's layers of its grid's stacked trace rule; the scores have the
    same bits as ``outcome_scores``. An outcome with vanishing probability
    but non-vanishing score makes the score function blow up and raises
    SupportRegularityError.
    """
    probs, support = pt.layer(_probs_stage, povm)
    scores = pt.layer(_scores_stage, povm)[0]
    if not support.all():
        blowup = np.flatnonzero(~support & (np.abs(scores) > SCORE_BLOWUP_ATOL))
        if blowup.size:
            i = blowup[0]
            raise SupportRegularityError(
                f"outcome with probability {probs[i]:.3e} has score {scores[i]:.3e}"
            )
        scores, probs = scores[support], probs[support]
    # a running sum in outcome order, as a loop adds the terms: np.sum pairs
    # eight or more of them differently. The support is never empty, since
    # the probabilities sum to 1.
    return np.add.accumulate(scores * scores / probs)[-1]


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
    return BoundCheck(
        i=i,
        i_h=i_h,
        gap=i_h - i,
        ok=bool(i <= i_h + BOUND_SLACK),
        crb=1.0 / i if i > NEAR_ZERO_INFO else None,
        qcrb=1.0 / i_h if i_h > NEAR_ZERO_INFO else None,
        approx_qcrb=1.0 / i_wy if i_wy > NEAR_ZERO_INFO else None,
    )


def random_povm(dim: int, n_effects: int, seed: int) -> Povm:
    """Seeded random measurement: PSD draws A_x = B_x B_x*, normalized by
    S^{-1/2} (sum A) S^{-1/2} so the effects sum to the identity."""
    if n_effects < 1:
        raise InvalidPovm("n_effects must be >= 1")
    rng = np.random.default_rng(seed)
    for _ in range(10):
        # per effect, the real and then the imaginary part of B_x
        g = rng.normal(size=(n_effects, 2, dim, dim))
        b = g[:, 0] + 1j * g[:, 1]
        draws = b @ b.conj().swapaxes(-1, -2)
        # summed one draw after the other: draws.sum(axis=0) may pair them
        # differently and change the last bit
        total = sum(draws)
        dec = eigh(HermitianMatrix(total))
        if float(dec.eigenvalues[0]) > NORMALIZER_EIG_FLOOR:
            inv_root = (dec.eigenvectors / np.sqrt(dec.eigenvalues)) @ dec.eigenvectors.conj().T
            return Povm(inv_root @ draws @ inv_root)
    raise InvalidPovm("normalizer stayed singular after 10 draws")
