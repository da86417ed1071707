"""Acceptance suite: one test per shipped criterion, with a printed verdict.

Run with ``pytest tests/test_acceptance.py -s -v`` to see the per-criterion
lines. Every tolerance is pinned here; the oracles are closed-form hand
values and independent route implementations.
"""

import math
import time

import numpy as np

from qcrb_kit.classical import basis_povm, classical_fisher, random_povm
from qcrb_kit.cli import main, parse_csv
from qcrb_kit.models import (
    PureFamily,
    PureStateModel,
    _spectral_projectors,
    builtin_models,
    canonical_psi2,
    random_pure_family,
    random_spectral_model,
    rotation_family,
    rotation_mixture,
)
from qcrb_kit.quantum import (
    alpha_beta,
    gamma_qubit_closed,
    gamma_spectral,
    helstrom_info_qubit_closed,
    helstrom_info_sld,
    helstrom_info_spectral,
    sld,
    wy_info_generic,
    wy_info_qubit_closed,
    wy_info_spectral,
)
from qcrb_kit.simulate import SimConfig, exact_estimator_moments, run_sim

from model_formulas import dprojector_formula, projector_formula


def verdict(number, ok, text):
    line = f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'} - {text}"
    print(line)
    assert ok, line


def test_criterion_01_pure_state_doubling():
    start = time.perf_counter()
    worst_analytic = 0.0
    thetas = np.linspace(-1.0, 1.0, 5)
    for seed in range(50):
        dim = 2 + seed % 4
        model = PureStateModel(random_pure_family(seed, dim))
        for theta in thetas:
            i_h = helstrom_info_sld(model.at(float(theta)))
            if i_h <= 1e-8:
                continue
            rel = abs(wy_info_generic(model.at(float(theta))) - 2.0 * i_h) / i_h
            worst_analytic = max(worst_analytic, rel)
    worst_fd = 0.0
    for seed in range(10):
        family = random_pure_family(seed, 2 + seed % 4)
        fd_model = PureStateModel(PureFamily(dim=family.dim, psi=family.psi))
        for theta in thetas:
            i_h = helstrom_info_sld(fd_model.at(float(theta)))
            if i_h <= 1e-8:
                continue
            rel = abs(wy_info_generic(fd_model.at(float(theta))) - 2.0 * i_h) / i_h
            worst_fd = max(worst_fd, rel)
    elapsed = time.perf_counter() - start
    ok = worst_analytic <= 1e-9 and worst_fd <= 1e-6 and elapsed < 5.0
    verdict(
        1, ok,
        f"pure-state doubling: analytic {worst_analytic:.2e} <= 1e-9, "
        f"fd {worst_fd:.2e} <= 1e-6, {elapsed:.2f}s < 5s",
    )


def test_criterion_02_qubit_mixture_exact_values():
    model = rotation_mixture(0.9)
    theta = 0.3
    alpha, beta = alpha_beta(0.9, 0.0)
    closed = {
        "I_H": (helstrom_info_qubit_closed(model.at(theta)), 2.56),
        "I_WY": (wy_info_qubit_closed(model.at(theta)), 3.2),
        "alpha": (alpha, 1.25),
        "beta": (beta, 0.0),
        "gamma": (gamma_qubit_closed(model.at(theta)), 0.64),
    }
    worst_closed = max(abs(got - want) for got, want in closed.values())
    i_h_def = helstrom_info_sld(model.at(theta))
    i_wy_def = wy_info_generic(model.at(theta))
    definitional = {
        "I_H": (i_h_def, 2.56),
        "I_WY": (i_wy_def, 3.2),
        "gamma": (i_wy_def - i_h_def, 0.64),
    }
    worst_def = max(abs(got - want) for got, want in definitional.values())
    ok = worst_closed <= 1e-9 and worst_def <= 1e-7
    verdict(
        2, ok,
        f"w=0.9 exact values: closed forms off by {worst_closed:.2e} <= 1e-9, "
        f"definitional routes off by {worst_def:.2e} <= 1e-7",
    )


def test_criterion_03_two_dim_route_equivalence():
    ws = np.linspace(0.05, 0.95, 20)
    thetas = np.linspace(0.1, 1.2, 20)
    worst = 0.0
    for w, theta in zip(ws, thetas):
        model = rotation_mixture(float(w))
        i_wy_closed = wy_info_qubit_closed(model.at(float(theta)))
        i_wy_def = wy_info_generic(model.at(float(theta)))
        worst = max(worst, abs(i_wy_closed - i_wy_def) / abs(i_wy_def))
        i_h_closed = helstrom_info_qubit_closed(model.at(float(theta)))
        i_h_def = helstrom_info_sld(model.at(float(theta)))
        worst = max(worst, abs(i_h_closed - i_h_def) / abs(i_h_def))
    ok = worst <= 1e-6
    verdict(3, ok, f"two-dim route equivalence on 20 (w, theta) pairs: {worst:.2e} <= 1e-6")


def _thirty_spectral_models():
    return [random_spectral_model(100 + i, 2 + i % 5) for i in range(30)]


def test_criterion_04_spectral_route_equivalence():
    start = time.perf_counter()
    worst_h, worst_wy = 0.0, 0.0
    for model in _thirty_spectral_models():
        theta = 0.3
        i_h_closed = helstrom_info_spectral(model.at(theta))
        i_h_def = helstrom_info_sld(model.at(theta))
        worst_h = max(worst_h, abs(i_h_closed - i_h_def) / abs(i_h_def))
        i_wy_closed = wy_info_spectral(model.at(theta))
        i_wy_def = wy_info_generic(model.at(theta))
        worst_wy = max(worst_wy, abs(i_wy_closed - i_wy_def) / abs(i_wy_def))
    elapsed = time.perf_counter() - start
    ok = worst_h <= 1e-7 and worst_wy <= 1e-6 and elapsed < 10.0
    verdict(
        4, ok,
        f"spectral routes on 30 models n in 2..6: Helstrom {worst_h:.2e} <= 1e-7, "
        f"skew {worst_wy:.2e} <= 1e-6, {elapsed:.2f}s < 10s",
    )


def test_criterion_05_gamma_identity():
    worst = 0.0
    for model in _thirty_spectral_models():
        theta = 0.3
        i_h = helstrom_info_sld(model.at(theta))
        i_wy = wy_info_generic(model.at(theta))
        gamma = gamma_spectral(model.at(theta))
        worst = max(worst, abs(i_wy - i_h - gamma) / max(1.0, i_h))
    ok = worst <= 1e-7
    verdict(5, ok, f"skew = Helstrom + gamma on 30 spectral models: {worst:.2e} <= 1e-7")


def test_criterion_06_weight_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep-w", "--w-grid", "0.5:0.9:5", "--out", str(out)])
    _, rows, _ = parse_csv(out.read_text())
    worst = 0.0
    gap_at_half = None
    for row in rows:
        w = row["w"]
        expected = (1.0 - 2.0 * math.sqrt(w * (1.0 - w))) ** 2 * 4.0
        worst = max(worst, abs(row["gap"] - expected))
        if w == 0.5:
            gap_at_half = abs(row["gap"])
    ok = code == 0 and worst <= 1e-9 and gap_at_half is not None and gap_at_half <= 1e-10
    verdict(
        6, ok,
        f"weight sweep gap vs (1-2*sqrt(w(1-w)))^2*4: {worst:.2e} <= 1e-9, "
        f"gap(1/2)={gap_at_half:.1e} <= 1e-10",
    )


def test_criterion_07_spectrum_sweep(tmp_path):
    out = tmp_path / "spectrum.csv"
    code = main([
        "sweep-spectrum", "--start-spectrum", "0.7,0.2,0.1", "--t-grid", "0:1:11",
        "--seed", "7", "--out", str(out),
    ])
    _, rows, _ = parse_csv(out.read_text())
    final_gap = abs(rows[-1]["gap"])
    ok = code == 0 and rows[-1]["t"] == 1.0 and final_gap <= 1e-7
    verdict(7, ok, f"uniform-spectrum endpoint gap {final_gap:.2e} <= 1e-7")


def test_criterion_08_information_inequality():
    start = time.perf_counter()
    models = [
        PureStateModel(rotation_family()),
        PureStateModel(random_pure_family(1, 3)),
        PureStateModel(random_pure_family(2, 4)),
        rotation_mixture(0.9),
        rotation_mixture(0.45),
        rotation_mixture(0.7),
        random_spectral_model(11, 2),
        random_spectral_model(12, 3),
        random_spectral_model(13, 4),
        random_spectral_model(14, 5),
    ]
    theta = 0.4
    violations = 0
    worst_excess = -math.inf
    count = 0
    for m_idx, model in enumerate(models):
        i_h = helstrom_info_sld(model.at(theta))
        for k in range(20):
            povm = random_povm(model.dim, 2 + k % 5, seed=1000 * m_idx + k)
            excess = classical_fisher(model.at(theta), povm) - i_h
            worst_excess = max(worst_excess, excess)
            violations += excess > 1e-9
            count += 1
    elapsed = time.perf_counter() - start
    ok = count == 200 and violations == 0 and elapsed < 10.0
    verdict(
        8, ok,
        f"information inequality over {count} POVMs: worst i - I_H = {worst_excess:.2e}, "
        f"{violations} violations, {elapsed:.2f}s < 10s",
    )


def test_criterion_09_attaining_measurement():
    model = PureStateModel(rotation_family())
    povm = basis_povm(2)
    thetas = [0.3, -0.7, 0.55, 0.85, 1.1, 1.35, 1.8, 2.1, 2.45, 2.7, -1.2]
    worst = 0.0
    for theta in thetas:
        i = classical_fisher(model.at(theta), povm)
        i_h = helstrom_info_sld(model.at(theta))
        worst = max(worst, abs(i - 4.0), abs(i_h - 4.0))
    ok = worst <= 1e-9
    verdict(9, ok, f"basis measurement attains I_H = 4 at 11 angles: {worst:.2e} <= 1e-9")


def test_criterion_10_monte_carlo_cr_check():
    start = time.perf_counter()
    model = PureStateModel(rotation_family())
    povm = basis_povm(2)
    mean, var = exact_estimator_moments(model.at(0.3), povm)
    identity_dev = max(
        abs(mean - 0.3), abs(var - 1.0 / classical_fisher(model.at(0.3), povm))
    )
    cfg = SimConfig(model=model, povm=povm, theta0=0.3, n_samples=100_000, seed=2026)
    result = run_sim(cfg)
    stat_dev = abs(result.empirical_var - 0.25)
    band = 3.0 * result.standard_error_of_var
    elapsed = time.perf_counter() - start
    ok = identity_dev <= 1e-9 and stat_dev <= band and elapsed < 5.0
    verdict(
        10, ok,
        f"Monte Carlo CR check: exact identity {identity_dev:.2e} <= 1e-9, "
        f"|var - 0.25| = {stat_dev:.2e} <= 3SE = {band:.2e}, {elapsed:.2f}s < 5s",
    )


def test_criterion_11_appendix_identity_suite():
    worst = 0.0
    h = 1e-5
    for name, model in builtin_models().items():
        for theta in model.sample_thetas:
            worst = max(worst, abs(sld(model.at(theta)).score_mean))
            if model.kind == "qubit_mixture":
                p1 = projector_formula(model.psi1, theta)
                p2 = canonical_psi2(model.at(theta)).projector()
                dp1 = dprojector_formula(model.psi1, theta, h)
                dp2 = (
                    canonical_psi2(model.at(theta + h)).projector()
                    - canonical_psi2(model.at(theta - h)).projector()
                ) / (2 * h)
                for pk in (p1, p2):
                    for dp in (dp1, dp2):
                        worst = max(worst, abs(np.trace(pk @ dp)))
                worst = max(worst, abs(np.trace(p1 @ dp1 @ p1 @ dp1)))
            if model.kind == "spectral":
                projs, dprojs = _spectral_projectors(model.at(theta))
                for l in range(model.dim):
                    worst = max(
                        worst, abs(np.trace(projs[l] @ dprojs[l] @ projs[l] @ dprojs[l]))
                    )
                    for m in range(model.dim):
                        if m != l:
                            worst = max(
                                worst,
                                float(np.linalg.norm(projs[l] @ dprojs[m] + dprojs[l] @ projs[m])),
                            )
            if model.kind == "pure":
                rho = model.rho(theta).mat
                drho = model.drho(theta).mat
                worst = max(worst, abs(np.trace(rho @ drho @ rho @ drho)))
    ok = worst <= 1e-9
    verdict(11, ok, f"appendix identities across the catalog: {worst:.2e} <= 1e-9")


def test_criterion_12_verify_exit_codes(tmp_path, monkeypatch):
    out = tmp_path / "verify.csv"
    clean = main(["verify", "--out", str(out)])

    from qcrb_kit import verify as verify_mod
    from qcrb_kit.models import ParametricStateModel

    class CorruptModel(ParametricStateModel):
        kind = "pure"

        def __init__(self):
            super().__init__(2)

        def rho_matrix(self, theta):
            return np.diag([0.91, 0.10])  # trace 1.01

    catalog = dict(builtin_models())
    catalog["corrupt"] = CorruptModel()
    monkeypatch.setattr(verify_mod, "builtin_models", lambda: catalog)
    corrupted = main(["verify", "--out", str(tmp_path / "verify2.csv")])
    ok = clean == 0 and corrupted == 2
    verdict(12, ok, f"verify exit codes: clean catalog {clean} == 0, corrupted {corrupted} == 2")
