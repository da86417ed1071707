"""Tests for the invariant suite and its failure reporting."""

import inspect
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from qcrb_kit import cli, hermitian, models, quantum, verify
from qcrb_kit.errors import DomainError
from qcrb_kit.hermitian import HermitianMatrix, SpectralDecomposition
from qcrb_kit.models import (
    ParametricStateModel,
    QubitMixtureModel,
    SpectralMixtureModel,
    WeightFunction,
    builtin_models,
    rotation_family,
)
from qcrb_kit.verify import CheckResult, VerifyOptions, all_passed, check_names, run_suite


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
    # and so share their points: 5 models x 3 thetas, not three times that.
    # 115 points in 15 grids. The 19 models the table reads (14 catalog
    # models over their 5 sample thetas, and theta 0.3 for the two estimator
    # models; 5 extra models over 3 thetas) share 11 batch grids, one per
    # batch key: pure dimension 2 with dpsi (2 models), without it, dimension
    # 3 and 4; the analytic mixtures (4 models) and the differenced one; and
    # spectral dimensions 2, 3, 4 and 6 (a catalog and an extra model each)
    # and 5. The 25 monotone-gap mixtures share 1, and the 3 simulations take
    # a grid of one each.
    counts = Counter()
    original_point = models.StatePoint.__init__
    original_grid = models.StateGrid.__init__
    original_rho_stage = models._rho_stage
    original_extra = verify.random_spectral_model

    def point(self, grid, index):
        counts["point"] += 1
        original_point(self, grid, index)

    def grid(self, key, members):
        counts["grid"] += 1
        original_grid(self, key, members)

    def rho_stage(grid):
        counts["rho_stage"] += 1
        return original_rho_stage(grid)

    def random_spectral_model(seed, dim, **kwargs):
        counts["random_spectral_model"] += 1
        return original_extra(seed, dim, **kwargs)

    monkeypatch.setattr(models.StatePoint, "__init__", point)
    monkeypatch.setattr(models.StateGrid, "__init__", grid)
    monkeypatch.setattr(models, "_rho_stage", rho_stage)
    monkeypatch.setattr(verify, "random_spectral_model", random_spectral_model)
    results = run_suite()
    assert all_passed(results)
    # The checks that read only some members of a grid read views of it, which
    # slice the rho stage and run no other: 118 points in 46 views. The route
    # agreements read 6, of the 4 spectral grids without their extra model and
    # of the pure grid with dpsi and the analytic mixture grid without the
    # estimator theta (4 x 5 + 10 + 20 points); on the other 4 grids that hold
    # a catalog model they select every member and read the grid itself.
    # score-sum reads a view of the first 3 thetas of each of the 14 catalog
    # models (42), coarse-graining-monotone one of one row for each of the 10
    # pure and mixture models, information-inequality one for each catalog
    # model (14), and estimator-exact-variance one for each of its 2 models.
    views, view_points = 6 + 14 + 10 + 14 + 2, 4 * 5 + 10 + 20 + 42 + 10 + 14 + 2
    # The forced differences evaluate one stencil grid per grid they read: the
    # 6 views and those 4 grids. Stencil grids make no points and run only the
    # value inputs, no rho stage. The mixture identities difference psi2 on the
    # stencil grids of the 2 mixture grids: the differenced one's is among those
    # 4, and the analytic one builds one of its own (the last 1 of stencils).
    # The one mixture without dpsi or dw differences its stencil's inputs on the
    # stencil's own stencil grid.
    stencils = 6 + 4 + 1
    assert counts == {
        "point": 115 + view_points, "grid": 15 + stencils + 1 + views, "rho_stage": 15,
        "random_spectral_model": 5,
    }


def test_the_spectral_identities_read_the_frame_of_the_table_point(monkeypatch):
    # a spectral model's frame is read only by value input stages: its 5 sample
    # thetas and their 10 stencil sides for each of the 4 catalog spectral
    # models, and 3 thetas for each of the 5 extra models. The forced
    # differences run on the view of the catalog members of each grid, so no
    # extra model reads a stencil side. The input stages call each member's
    # raw frame and check the stack, so neither the per-theta frame_at nor
    # the projector accessors are called
    counts = Counter()
    for name in ("frame_at", "dprojectors_at"):
        original = getattr(SpectralMixtureModel, name)

        def counted(self, theta, _name=name, _original=original):
            counts[_name] += 1
            return _original(self, theta)

        monkeypatch.setattr(SpectralMixtureModel, name, counted)
    original_init = SpectralMixtureModel.__init__

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        frame = self._frame

        def counted_frame(theta):
            counts["_frame"] += 1
            return frame(theta)

        self._frame = counted_frame

    monkeypatch.setattr(SpectralMixtureModel, "__init__", init)
    assert all_passed(run_suite())
    assert counts == {"_frame": 4 * 15 + 5 * 3}


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
    # mixture-w0.7-fd (stacked over its 5 sample thetas) included
    steps, shapes = set(), set()
    original = models._stencil_difference

    def recording(sides, h):
        steps.add(h)
        value = original(sides, h)
        shapes.add(np.shape(value))
        return value

    monkeypatch.setattr(models, "_stencil_difference", recording)
    monkeypatch.setattr(verify, "_stencil_difference", recording)
    run_suite(options=VerifyOptions(fd_step=1e-3))
    assert steps == {1e-3}
    assert (5,) in shapes
    # the forced square-root differences: one stacked (T, n, n) rule per grid
    assert any(len(shape) == 3 for shape in shapes)


def test_the_suite_builds_the_catalog_at_its_step_and_reads_an_injected_one_as_given(clean_results):
    # builtin_models(h) builds every model at h; run_suite builds it at the
    # options' step, and an injected catalog keeps the steps it was built at
    catalog = builtin_models(1e-3)
    assert {model.fd_step for model in catalog.values()} == {1e-3}
    coarse = run_suite(options=VerifyOptions(fd_step=1e-3))
    injected_coarse = run_suite(catalog=catalog)
    injected_default = run_suite(catalog=builtin_models(), options=VerifyOptions(fd_step=1e-3))

    def fd_rows(results):
        return [r for r in results if r.kind == "fd"]

    assert fd_rows(injected_coarse) == fd_rows(coarse)
    assert fd_rows(injected_default) == fd_rows(clean_results)
    assert fd_rows(coarse) != fd_rows(clean_results)


def _transposed_solve(dec, rhs):
    # U x~^T U^dagger: Hermitian, but it changes with the phases of U's columns
    u = dec.eigenvectors
    u_h = u.conj().swapaxes(-1, -2)
    x_tilde = u_h @ hermitian.solve_symmetric_product(dec, rhs).mat @ u
    return HermitianMatrix.of_checked(hermitian.hermitian_part(u @ x_tilde.swapaxes(-1, -2) @ u_h))


def test_eigenvector_phase_invariance_fails_a_solve_that_depends_on_the_phases(monkeypatch):
    # tr{rho L^2} is blind to the transpose; the SLD solved again on rephased
    # eigenvectors is not
    monkeypatch.setattr(quantum, "solve_symmetric_product", _transposed_solve)
    monkeypatch.setattr(verify, "solve_symmetric_product", _transposed_solve)
    row = next(r for r in run_suite() if r.name == "eigenvector-phase-invariance")
    assert not row.passed
    assert row.residual > 1.0


def test_weight_boundary_regularity_reads_the_weight_slope_of_the_closed_forms():
    # w = theta without a slope, sampled at 1 - h/2: the weight is valid
    # there, but its stencil side 1 + h/2 is not, so the closed forms have no
    # w' and the check records their error instead of a ratio
    edge = 1.0 - 0.5 * models.DEFAULT_FD_STEP
    model = QubitMixtureModel(rotation_family(), WeightFunction(w=lambda t: t), sample_thetas=(0.5, edge))
    with pytest.raises(DomainError) as raised:
        quantum.helstrom_info_qubit_closed(model.at(edge))
    expected = f"DomainError: {raised.value}"
    assert expected == "DomainError: weight 1.000005 at theta=1.000005 outside (0, 1)"
    row = {r.name: r for r in run_suite({"weight-theta": model})}["weight-boundary-regularity"]
    assert (row.passed, row.residual, row.error) == (False, None, expected)


def test_one_suite_run_evaluates_each_closed_form_once_per_point(monkeypatch):
    # the route and relation checks read the point's one relation_report, so
    # a closed form runs once per sampled point: 25 mixture points, and 27
    # spectral ones (4 catalog and 5 extra models at 3 thetas). Each closed
    # form is the stage its route table entry names, run once per batch grid
    # of its models' members, so it also evaluates the members of those grids
    # that only other checks read: 0.3 of one mixture, and 0.48 and 0.96 of
    # each catalog spectral model
    evaluated = {}

    def counting(name):
        original = getattr(quantum, name)
        seen = evaluated[name] = Counter()

        def wrapper(grid):
            seen.update(grid.members)
            return original(grid)

        return wrapper

    qubit = [route.closed for route in quantum.closed_routes("qubit_mixture").values()]
    spectral = [route.closed for route in quantum.closed_routes("spectral").values()]
    for name in qubit + spectral:
        monkeypatch.setattr(quantum, name, counting(name))
    assert all_passed(run_suite())
    assert {name: max(seen.values()) for name, seen in evaluated.items()} == dict.fromkeys(evaluated, 1)
    counts = {name: len(seen) for name, seen in evaluated.items()}
    assert counts == {**dict.fromkeys(qubit, 25 + 1), **dict.fromkeys(spectral, 27 + 4 * 2)}


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
    ("qubit_mixture", "alpha_beta"): {"prop1-identity-analytic"},
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

    route = quantum.closed_routes(kind)[field]
    monkeypatch.setattr(quantum, route.closed, patched)
    name = ONE_MODEL[kind]
    model = builtin_models()[name]
    report = quantum.relation_report(model.at(model.sample_thetas[0]))
    assert all(getattr(report, f) is None for f in route.fields)
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
        # the check solves its trials as one stack per dimension: each matrix is corrupted
        dec = hermitian.eigh(m)
        layers = [corrupt(lam.copy(), u, 1e-9 * np.linalg.norm(mat))
                  for lam, u, mat in zip(dec.eigenvalues, dec.eigenvectors, m.mat)]
        return SpectralDecomposition(np.array([lam for lam, _ in layers]), np.array([u for _, u in layers]))

    monkeypatch.setattr(verify, "eigh", corrupted)
    tol = next(t for name, _, t, _ in verify._CHECKS if name == "eigh-reconstruction")
    residual, _ = verify._worst(verify._check_eigh_reconstruction({}, VerifyOptions(), None))
    assert residual > tol


def _eigh_reconstruction_trial(g):
    # one trial of eigh-reconstruction, written out per matrix
    n = len(g)
    m = HermitianMatrix((g + g.conj().T) / 2.0)
    dec = hermitian.eigh(m)
    lam = dec.eigenvalues
    scale = max(1.0, np.linalg.norm(m.mat))
    rec = np.linalg.norm(dec.reconstruct() - m.mat) / scale
    orth = np.linalg.norm(dec.eigenvectors.conj().T @ dec.eigenvectors - np.eye(n))
    gap, power = 0.0, np.eye(n)
    for k in range(1, n + 1):
        power = power @ m.mat
        gap = max(gap, abs(np.trace(power) - np.sum(lam**k)) / scale**k)
    return max(rec, orth, gap, max(0.0, -float(np.min(np.diff(lam)))))


@pytest.mark.parametrize("seed", [0, 7, 716, 20260810])
def test_eigh_reconstruction_solves_one_stack_per_dimension_with_the_bits_of_each_trial(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(20):
        n = int(rng.integers(2, 9))
        draws.append(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    calls = []
    monkeypatch.setattr(verify, "eigh", lambda m: calls.append(m.mat.shape) or hermitian.eigh(m))
    cases = list(verify._check_eigh_reconstruction({}, VerifyOptions(seed=seed), None))
    assert cases == [(_eigh_reconstruction_trial(g), f"trial {t} (n={len(g)})") for t, g in enumerate(draws)]
    dims = list(dict.fromkeys(len(g) for g in draws))
    assert calls == [(sum(len(g) == n for g in draws), n, n) for n in dims]


def test_verify_passes_at_a_seed_whose_random_povm_draws_a_single_effect_again(capsys):
    # seed 716 draws a one-effect measurement whose first draw misses the Hermiticity gate
    assert cli.main(["verify", "--seed=716"]) == cli.EXIT_OK
    assert "povm-completeness" in capsys.readouterr().out


# --- the one reduction ------------------------------------------------------

SIM_CHECKS = ("sim-bound-chain", "sim-reproducibility")


def test_the_first_of_tied_worst_cases_names_the_detail():
    cases = [(0.5, "a"), (1.0, "b"), (1.0, "c"), (0.25, "d")]
    assert verify._worst(iter(cases)) == (1.0, "b")


@pytest.mark.parametrize("cases", [[], [(0.0, "a"), (-1.0, "b")], [(-0.0, "a")]])
def test_no_positive_residual_reduces_to_zero_with_no_detail(cases):
    assert verify._worst(iter(cases)) == (0.0, "")


def test_a_point_check_skips_a_none_residual():
    model = builtin_models()["qubit-rotation"]
    thetas = model.sample_thetas
    check = verify._PointCheck(lambda pt: None if pt.theta == thetas[1] else pt.theta)
    cases = list(check({"qubit-rotation": model}, VerifyOptions(), verify._PointTable()))
    assert cases == [(t, f"qubit-rotation theta={t:g}") for t in thetas if t != thetas[1]]


def test_a_case_that_raises_fails_its_row_and_records_the_error(monkeypatch):
    def raising(catalog, opts, points):
        yield 1.0, "first"
        raise ValueError("boom")

    def passing(catalog, opts, points):
        yield 1e-12, "only"

    monkeypatch.setattr(verify, "_CHECKS", [
        ("raising", "analytic", 1e-9, raising), ("passing", "fd", 1e-9, passing),
    ])
    assert run_suite(catalog={}) == [
        CheckResult("raising", "analytic", None, 1e-9, False, error="ValueError: boom"),
        CheckResult("passing", "fd", 1e-12, 1e-9, True, detail="only"),
    ]


def test_every_check_but_the_sim_rows_yields_its_cases():
    for name, _, _, fn in verify._CHECKS:
        if name not in SIM_CHECKS:
            assert isinstance(fn, verify._PointCheck) or inspect.isgeneratorfunction(fn), name


@pytest.mark.parametrize("present, missing", [
    ("mixture-w0.9", "qubit-rotation"), ("qubit-rotation", "mixture-w0.9"),
])
def test_the_fixed_model_checks_fail_on_a_catalog_that_lacks_their_model(present, missing):
    results = {r.name: r for r in run_suite(catalog={present: builtin_models()[present]})}
    lacking = {"estimator-exact-variance"}
    if missing == "qubit-rotation":
        lacking.update(SIM_CHECKS)
    for name in lacking:
        assert results[name].error == f"ValueError: catalog lacks {missing}"
        assert not results[name].passed
