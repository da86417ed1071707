"""Tests for the Monte Carlo bound verification."""

import math

import numpy as np
import pytest
from scipy import stats

from qcrb_kit.classical import Povm, basis_povm, outcome_probs
from qcrb_kit.errors import ZeroInformationError
from qcrb_kit.models import PureStateModel, rotation_family, rotation_mixture
from qcrb_kit.simulate import (
    BOUND_ORDER_SLACK,
    SimConfig,
    SimResult,
    bound_chain_excess,
    bound_chain_ok,
    exact_estimator_moments,
    one_step_estimator,
    run_sim,
    sample_outcomes,
)

ROTATION = PureStateModel(rotation_family())


# --- sampling ------------------------------------------------------------------

def test_deterministic_distribution_gives_constant_sequence():
    seq = sample_outcomes(ROTATION.at(0.0), basis_povm(2), 500, seed=1)
    assert np.all(seq == 0)


def test_empirical_frequencies_converge():
    model = rotation_mixture(0.5)  # uniform (1/2, 1/2) for any theta
    seq = sample_outcomes(model.at(0.4), basis_povm(2), 100_000, seed=7)
    freq = np.bincount(seq, minlength=2) / seq.size
    assert abs(freq[0] - 0.5) <= 0.01
    assert abs(freq[1] - 0.5) <= 0.01


def test_sampling_is_seed_deterministic():
    a = sample_outcomes(ROTATION.at(0.3), basis_povm(2), 2_000, seed=42)
    b = sample_outcomes(ROTATION.at(0.3), basis_povm(2), 2_000, seed=42)
    np.testing.assert_array_equal(a, b)


def test_chi_square_sanity():
    theta = 0.6
    dist = outcome_probs(ROTATION.at(theta), basis_povm(2))
    n = 20_000
    seq = sample_outcomes(ROTATION.at(theta), basis_povm(2), n, seed=3)
    observed = np.bincount(seq, minlength=2)
    expected = dist.probs * n
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    assert chi2 <= stats.chi2.ppf(0.999, df=1)


# --- one-step estimator ----------------------------------------------------------

def test_estimator_attaining_measurement_variance_quarter():
    _, var = exact_estimator_moments(ROTATION.at(0.3), basis_povm(2))
    assert var == pytest.approx(0.25, abs=1e-12)


def test_estimator_locally_unbiased():
    for model, povm in ((ROTATION, basis_povm(2)), (rotation_mixture(0.8), basis_povm(2))):
        mean, var = exact_estimator_moments(model.at(0.3), povm)
        assert mean == pytest.approx(0.3, abs=1e-9)
        from qcrb_kit.classical import classical_fisher

        assert var == pytest.approx(1.0 / classical_fisher(model.at(0.3), povm), abs=1e-9)


def test_estimator_rejects_zero_information():
    with pytest.raises(ZeroInformationError):
        one_step_estimator(ROTATION.at(0.3), Povm([np.eye(2)]))


def test_two_outcome_closed_form():
    # with outcome probabilities (p, 1-p) and log-derivative scores
    # (s, -s p/(1-p)), the information is i = p s^2/(1-p) and the estimator
    # takes the two values t1 = theta0 + (1-p)/(p s), t2 = theta0 - 1/s
    theta0 = 0.3
    t = one_step_estimator(ROTATION.at(theta0), basis_povm(2))
    p = np.cos(theta0) ** 2
    s = -np.sin(2 * theta0) / p
    np.testing.assert_allclose(t, [theta0 + (1 - p) / (p * s), theta0 - 1.0 / s], atol=1e-12)
    # unbiasedness identity of the closed form
    assert p * t[0] + (1 - p) * t[1] == pytest.approx(theta0, abs=1e-12)


# --- run_sim -----------------------------------------------------------------------

def test_run_sim_attaining_measurement():
    cfg = SimConfig(model=ROTATION, povm=basis_povm(2), theta0=0.3, n_samples=100_000, seed=11)
    result = run_sim(cfg)
    assert result.crb == pytest.approx(0.25, abs=1e-9)
    assert result.qcrb == pytest.approx(0.25, abs=1e-9)
    assert abs(result.empirical_var - 0.25) <= 3.0 * result.standard_error_of_var
    assert bound_chain_ok(result)


def _sim_result(empirical_var, crb, qcrb, standard_error_of_var):
    return SimResult(empirical_var=empirical_var, crb=crb, qcrb=qcrb, approx_qcrb=qcrb,
                     n_samples=1000, standard_error_of_var=standard_error_of_var)


@pytest.mark.parametrize("var, crb, qcrb, se, excess", [
    (0.25, 0.25, 0.25, 0.01, 0.0),  # the chain holds
    (0.20, 0.25, 0.25, 0.01, 0.25 - 0.20 - 3.0 * 0.01),  # variance below crb - 3 SE
    (0.30, 0.20, 0.25, 0.01, 0.25 - 0.20),  # qcrb above crb
    (math.inf, 0.25, 0.25, math.nan, math.inf),  # overflowed moments, which max() would drop
])
def test_bound_chain_excess_is_the_largest_breach_and_gates_the_verdict(var, crb, qcrb, se, excess):
    result = _sim_result(var, crb, qcrb, se)
    assert bound_chain_excess(result) == excess
    assert bound_chain_ok(result) is (excess <= BOUND_ORDER_SLACK)


def test_bound_chain_ok_allows_the_slack_on_either_breach():
    se = 0.01
    assert bound_chain_ok(_sim_result(0.25 - 3.0 * se - 5e-13, 0.25, 0.25, se))
    assert bound_chain_ok(_sim_result(0.25, 0.25, 0.25 + 5e-13, se))
    assert not bound_chain_ok(_sim_result(0.25 - 3.0 * se - 1e-9, 0.25, 0.25, se))


def test_run_sim_reports_approximate_bound_gap():
    model = rotation_mixture(0.49)
    cfg = SimConfig(model=model, povm=basis_povm(2), theta0=0.3, n_samples=1_000, seed=2)
    result = run_sim(cfg)
    rel_gap = abs(result.approx_qcrb - result.qcrb) / result.qcrb
    assert rel_gap <= 1e-3  # near the maximum-entropy weight the bounds almost agree


def test_run_sim_seed_determinism():
    cfg = SimConfig(model=ROTATION, povm=basis_povm(2), theta0=0.3, n_samples=5_000, seed=21)
    assert run_sim(cfg) == run_sim(cfg)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(model=ROTATION, povm=basis_povm(2), theta0=0.3, n_samples=10, seed=1)
