"""Tests for the invariant suite and its failure reporting."""

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from qcrb_kit import hermitian, models, quantum, verify
from qcrb_kit.errors import DomainError
from qcrb_kit.hermitian import SpectralDecomposition
from qcrb_kit.models import ParametricStateModel, builtin_models
from qcrb_kit.verify import VerifyOptions, all_passed, check_names, run_suite


class CorruptTraceModel(ParametricStateModel):
    """Deliberately broken model: trace 1.01 violates the density invariant."""

    kind = "pure"

    def __init__(self):
        super().__init__(2)

    def rho_matrix(self, theta):
        return np.diag([0.91, 0.10])


EXPECTED = Path(__file__).parent / "data" / "verify_expected.json"

# the checks that evaluate rho on the corrupt model, and only those, fail on it
READS_CORRUPT_RHO = {
    "psd-sqrt-composition", "solve-involution", "state-trace-one",
    "dsqrt-route-agreement", "score-zero-fd", "sld-vs-spectral-sum",
    "pure-doubling-fd", "information-inequality", "coarse-graining-monotone",
}


@pytest.fixture(scope="module")
def clean_results():
    """One run of the default suite, shared by the tests that only read it."""
    return run_suite()


def test_default_suite_passes(clean_results):
    results = clean_results
    failures = [r for r in results if not r.passed]
    assert not failures, [(r.name, r.residual, r.error) for r in failures]


def test_default_suite_matches_the_recorded_names_and_verdicts(clean_results):
    expected = [tuple(row) for row in json.loads(EXPECTED.read_text())]
    assert [(r.name, r.passed) for r in clean_results] == expected


def test_every_check_reports_a_residual_or_error(clean_results):
    for r in clean_results:
        assert r.residual is not None or r.error is not None
        assert r.kind in ("analytic", "fd")
        assert r.tol > 0


def test_corrupted_model_faults_are_reported_not_raised():
    catalog = dict(builtin_models())
    catalog["corrupt"] = CorruptTraceModel()
    results = run_suite(catalog=catalog)
    assert not all_passed(results)
    errored = [r for r in results if r.error is not None]
    assert errored
    assert any("NotDensityMatrix" in r.error for r in errored)


def test_corrupted_model_fault_is_recorded_by_every_check_that_reads_it():
    # the suite shares one point per (model, theta) across checks; a failed
    # evaluation is not kept, so each reading check records the fault itself
    catalog = dict(builtin_models())
    catalog["corrupt"] = CorruptTraceModel()
    results = run_suite(catalog=catalog)
    faulted = {r.name for r in results if r.error is not None and "NotDensityMatrix" in r.error}
    assert faulted == READS_CORRUPT_RHO
    assert all(r.passed for r in results if r.name not in READS_CORRUPT_RHO)


def test_one_run_creates_each_point_once_and_the_extra_models_once(monkeypatch):
    # the three checks over the extra spectral models share one set of them,
    # and so share their points: 5 models x 3 thetas, not three times that
    counts = Counter()
    original_at = ParametricStateModel.at
    original_extra = verify.random_spectral_model

    def at(self, theta):
        counts["at"] += 1
        return original_at(self, theta)

    def random_spectral_model(seed, dim, **kwargs):
        counts["random_spectral_model"] += 1
        return original_extra(seed, dim, **kwargs)

    monkeypatch.setattr(ParametricStateModel, "at", at)
    monkeypatch.setattr(verify, "random_spectral_model", random_spectral_model)
    results = run_suite()
    assert all_passed(results)
    assert counts == {"at": 115, "random_spectral_model": 5}


def test_tightened_fd_tolerance_fails_fd_checks():
    results = run_suite(options=VerifyOptions(tol_fd=1e-14))
    failed = {r.name for r in results if not r.passed}
    assert failed  # finite-difference invariants cannot meet 1e-14
    assert all(r.kind == "fd" for r in results if not r.passed)
    # untightened analytic checks keep passing
    assert any(r.kind == "analytic" and r.passed for r in results)


def test_fd_step_reaches_the_catalog_models(clean_results):
    # central-difference truncation grows as h^2: 100x the step, ~1e4x the gap
    default = {r.name: r for r in clean_results}
    coarse = {r.name: r for r in run_suite(options=VerifyOptions(fd_step=1e-3))}
    for name in ("drho-route-agreement", "dsqrt-route-agreement"):
        assert coarse[name].residual >= 1e3 * default[name].residual
        assert not coarse[name].passed
        assert coarse[name].detail.split()[0] in builtin_models()


def test_fd_step_reaches_every_difference_in_the_suite(monkeypatch):
    # verify --fd-step h: every central difference of the run steps by h,
    # the suite's own family-level differences and the differenced weight of
    # mixture-w0.7-fd (the one scalar difference) included
    steps, shapes = set(), set()
    original = models._central_difference

    def recording(f, theta, h):
        steps.add(h)
        value = original(f, theta, h)
        shapes.add(np.shape(value))
        return value

    monkeypatch.setattr(models, "_central_difference", recording)
    monkeypatch.setattr(verify, "_central_difference", recording)
    run_suite(options=VerifyOptions(fd_step=1e-3))
    assert steps == {1e-3}
    assert () in shapes


def test_one_suite_run_evaluates_each_closed_form_once_per_point(monkeypatch):
    # the route and relation checks read the point's one relation_report, so
    # a closed form runs once per sampled point: 25 mixture points, and 27
    # spectral ones (4 catalog and 5 extra models at 3 thetas)
    counts = Counter()

    def counting(name):
        original = getattr(quantum, name)

        def wrapper(pt):
            counts[name] += 1
            return original(pt)

        return wrapper

    qubit = ["helstrom_info_qubit_closed", "wy_info_qubit_closed", "gamma_qubit_closed"]
    spectral = ["helstrom_info_spectral", "wy_info_spectral", "gamma_spectral"]
    for name in qubit + spectral:
        monkeypatch.setattr(quantum, name, counting(name))
    assert all_passed(run_suite())
    assert counts == {**dict.fromkeys(qubit, 25), **dict.fromkeys(spectral, 27)}


def test_check_names_are_stable_and_unique():
    names = check_names()
    assert len(names) == len(set(names))
    assert "information-inequality" in names
    assert "prop2-identity" in names


# one catalog model of each kind, and the checks that compare a closed route
# of that kind with its definitional route
ONE_MODEL = {"pure": "qubit-rotation", "qubit_mixture": "mixture-w0.9",
             "spectral": "spectral-random-7-3"}
ROUTE_CHECKS = {
    ("qubit_mixture", "i_h_closed"): {"qubit-route-h-analytic"},
    ("qubit_mixture", "i_wy_closed"): {"qubit-route-wy-analytic"},
    ("spectral", "i_h_closed"): {"spectral-route-h"},
    ("spectral", "i_wy_closed"): {"spectral-route-wy"},
    ("spectral", "gamma"): {"prop2-identity"},
}


@pytest.mark.parametrize(
    "kind, field", [(kind, field) for kind in ONE_MODEL for field in quantum.closed_routes(kind)]
)
def test_one_route_table_feeds_the_report_and_the_route_checks(monkeypatch, kind, field):
    def patched(pt):
        raise DomainError("patched")

    monkeypatch.setattr(quantum, quantum.closed_routes(kind)[field].closed, patched)
    name = ONE_MODEL[kind]
    model = builtin_models()[name]
    report = quantum.relation_report(model.at(model.sample_thetas[0]))
    assert getattr(report, field) is None
    assert report.route_errors[field] == "DomainError: patched"
    results = run_suite(catalog={name: model})
    patched_checks = {r.name for r in results if "DomainError: patched" in (r.error or "")}
    assert patched_checks == ROUTE_CHECKS.get((kind, field), set())


def _shift_one(lam, u, size):
    lam[0] += size
    return lam, u


def _shift_adjacent_pair(lam, u, size):
    # the closest pair, where the power sums see the shift least
    j = int(np.argmin(np.diff(lam)))
    lam[j] += size
    lam[j + 1] -= size
    return lam, u


def _descending(lam, u, size):
    # only the order term sees this: power sums and the reconstruction ignore order
    return lam[::-1], u[:, ::-1]


def _mixed_vectors(lam, u, size):
    # a 1e-9 rotation of the extreme eigenvectors keeps the eigenvalues and
    # orthonormality, so only the reconstruction term sees it
    u = u.copy()
    u[:, [0, -1]] = u[:, [0, -1]] @ np.array([[1.0, -1e-9], [1e-9, 1.0]])
    return lam, u


@pytest.mark.parametrize("corrupt", [_shift_one, _shift_adjacent_pair, _descending, _mixed_vectors])
def test_eigh_reconstruction_fails_on_a_corrupted_decomposition(monkeypatch, corrupt):
    def corrupted(m):
        dec = hermitian.eigh(m)
        size = 1e-9 * np.linalg.norm(m.mat)
        lam, u = corrupt(dec.eigenvalues.copy(), dec.eigenvectors, size)
        return SpectralDecomposition(lam, u)

    monkeypatch.setattr(verify, "eigh", corrupted)
    tol = next(t for name, _, t, _ in verify._CHECKS if name == "eigh-reconstruction")
    residual, _ = verify._check_eigh_reconstruction({}, VerifyOptions(), None)
    assert residual > tol
