"""Monte Carlo verification of the Cramér-Rao bound chain.

A locally unbiased one-step estimator makes the classical bound an exact
single-sample identity: t(x) = theta0 + score(x) / (p(x) i), so the
per-sample variance equals 1/i by direct summation. Sampling then only has
to confirm the empirical variance statistically. The sample moments are
those of the deviations score(x) / (p(x) i), taken before theta0 is added,
so that no theta0, however large, rounds them away. Sampling uses numpy's
PCG64 generator; identical (config, seed) gives identical results. The
state functions take ``(point, povm)``, the point a ``StatePoint`` at theta0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroInformationError
from .classical import Povm, classical_fisher, outcome_probs, outcome_scores
from .models import ParametricStateModel, StatePoint
from .quantum import NEAR_ZERO_INFO, helstrom_info_sld, wy_info_generic

MIN_SAMPLES = 100
# slack on the bound chain's excess
BOUND_ORDER_SLACK = 1e-12


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: model, measurement, true parameter, sampling plan."""

    model: ParametricStateModel
    povm: Povm
    theta0: float
    n_samples: int
    seed: int

    def __post_init__(self):
        if self.n_samples < MIN_SAMPLES:
            raise ValueError(f"n_samples {self.n_samples} < minimum {MIN_SAMPLES}")


@dataclass(frozen=True)
class SimResult:
    """Empirical variance next to the classical, sharp and approximate bounds."""

    empirical_var: float
    crb: float
    qcrb: float
    approx_qcrb: float
    n_samples: int
    standard_error_of_var: float

    def to_json_dict(self) -> dict:
        return {
            "empirical_var": self.empirical_var,
            "crb": self.crb,
            "qcrb": self.qcrb,
            "approx_qcrb": self.approx_qcrb,
            "n_samples": self.n_samples,
            "standard_error_of_var": self.standard_error_of_var,
        }


def sample_outcomes(pt: StatePoint, povm: Povm, n: int, *, seed: int) -> np.ndarray:
    """Draw n outcome indices from the trace-rule distribution at theta0."""
    dist = outcome_probs(pt, povm)
    probs = dist.probs / float(np.sum(dist.probs))
    rng = np.random.default_rng(seed)
    return rng.choice(len(probs), size=n, p=probs)


def _deviations(pt: StatePoint, povm: Povm) -> tuple[np.ndarray, np.ndarray]:
    """Per-outcome deviation score(x)/(p(x) i(theta0)) of the one-step estimator from theta0,
    0 off the support, and the support."""
    info = classical_fisher(pt, povm)
    if info <= NEAR_ZERO_INFO:
        raise ZeroInformationError(
            f"classical information {info:.3e} at theta0={pt.theta}; estimator undefined"
        )
    dist = outcome_probs(pt, povm)
    scores = outcome_scores(pt, povm)
    d = np.zeros(len(dist))
    on = dist.support
    d[on] = (scores[on] / dist.probs[on]) / info
    return d, on


def one_step_estimator(pt: StatePoint, povm: Povm) -> np.ndarray:
    """Per-outcome estimate t(x) = theta0 + score(x)/(p(x) i(theta0)).

    Locally unbiased by construction (the scores sum to zero), with exact
    single-sample variance 1/i. Outcomes off the support never occur and
    get the neutral value theta0.
    """
    theta0 = float(pt.theta)
    d, on = _deviations(pt, povm)
    t = np.full(len(d), theta0)
    t[on] = theta0 + d[on]
    return t


def exact_estimator_moments(pt: StatePoint, povm: Povm) -> tuple[float, float]:
    """(mean, variance) of the one-step estimator by direct summation: theta0 + sum p d and
    sum p d^2 over the deviations d, so that no theta0, however large, rounds them away."""
    dist = outcome_probs(pt, povm)
    d, _ = _deviations(pt, povm)
    mean = float(pt.theta + np.sum(dist.probs * d))
    var = float(np.sum(dist.probs * d**2))
    return mean, var


def run_sim(cfg: SimConfig) -> SimResult:
    """Sample the estimator and compare its variance against the bound chain."""
    pt = cfg.model.at(cfg.theta0)
    d, _ = _deviations(pt, cfg.povm)
    idx = sample_outcomes(pt, cfg.povm, cfg.n_samples, seed=cfg.seed)
    n = cfg.n_samples
    # the moments of t = theta0 + d, without theta0's rounding. A sample takes
    # one of the K outcome values, so each power is taken once per outcome and
    # gathered by sample: (d - mean)[idx] is d[idx] - mean elementwise, so the
    # bits are those of the powers of the samples' deviations. A huge deviation
    # overflows its moments; the bound chain then fails on them
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(d[idx]))
        devs = d - mean
        m2 = float(np.mean((devs**2)[idx]))
        m4 = float(np.mean((devs**4)[idx]))
    empirical_var = m2 * n / (n - 1)
    se_var = float(np.sqrt(max(m4 - m2 * m2, 0.0) / n))
    info = classical_fisher(pt, cfg.povm)
    i_h = pt.cached(helstrom_info_sld)
    i_wy = pt.cached(wy_info_generic)
    return SimResult(
        empirical_var=empirical_var,
        crb=1.0 / info,
        qcrb=1.0 / i_h,
        approx_qcrb=1.0 / i_wy,
        n_samples=n,
        standard_error_of_var=se_var,
    )


def bound_chain_excess(result: SimResult) -> float:
    """How far the result breaks qcrb <= crb <= var + 3 SE; 0 where it holds, and inf
    where a breach is not finite (a moment that overflowed), which Python's ``max`` would drop."""
    breaches = (
        result.qcrb - result.crb,
        result.crb - result.empirical_var - 3.0 * result.standard_error_of_var,
    )
    if not all(math.isfinite(b) for b in breaches):
        return math.inf
    return max(*breaches, 0.0)


def bound_chain_ok(result: SimResult) -> bool:
    """qcrb <= crb and empirical variance within 3 standard errors of crb, to the slack."""
    return bound_chain_excess(result) <= BOUND_ORDER_SLACK
