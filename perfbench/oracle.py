"""Correctness checks on one operation's output, independent of the checked routes.

Output files are parsed here rather than with the program's own parsers.
For every ``compute`` row the Helstrom and skew information are recomputed
with LAPACK (``np.linalg.eigh``) from the model's ``rho`` and ``drho``, with
the SLD and square-root-derivative eigenbasis formulas; rows with a
measurement also get the classical Fisher information recomputed. A
``verify`` output passes only if every check row passed.
"""

from __future__ import annotations

import json

import numpy as np

from qcrb_kit.configio import model_from_config, povm_from_config
from qcrb_kit.verify import check_names

REL_TOL = 1e-8  # the analytic tolerance class
SUPPORT_TOL = 1e-12
BOUND_SLACK = 1e-9
CSV_TAG = "#qcrb-kit v1 columns="


class OutputError(Exception):
    """The output does not parse or fails a correctness check."""


def _cell(text: str):
    if text == "null":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def parse_output(text: str, fmt: str) -> tuple[dict, list[dict]]:
    """(meta, rows) of a CSV or JSON output file."""
    if fmt == "json":
        try:
            payload = json.loads(text)
            return payload["meta"], payload["rows"]
        except (ValueError, KeyError, TypeError) as exc:
            raise OutputError(f"unparseable JSON output: {exc}") from exc
    lines = text.splitlines()
    if not lines or not lines[0].startswith(CSV_TAG):
        raise OutputError("CSV output lacks the version line")
    columns = lines[0][len(CSV_TAG):].split(",")
    meta = {}
    i = 1
    while i < len(lines) and lines[i].startswith("#"):
        key, _, value = lines[i][1:].partition(" ")
        meta[key] = _cell(value)
        i += 1
    if i >= len(lines) or lines[i].split(",") != columns:
        raise OutputError("CSV header row does not match the declared columns")
    rows = []
    for line in lines[i + 1:]:
        # only the last column (verify's free-text detail) may hold commas
        cells = line.split(",", len(columns) - 1)
        if len(cells) != len(columns):
            raise OutputError(f"CSV row has {len(cells)} cells, expected {len(columns)}")
        rows.append({c: _cell(v) for c, v in zip(columns, cells)})
    return meta, rows


def reference_information(rho: np.ndarray, drho: np.ndarray) -> tuple[float, float]:
    """(I_H, I_WY) from a LAPACK eigendecomposition of rho.

    In the eigenbasis, with D = U* drho U: the SLD is 2 D_ij / (l_i + l_j),
    so I_H = tr{rho L^2} = sum 2 |D_ij|^2 / (l_i + l_j); the square-root
    derivative is D_ij / (s_i + s_j) with s = sqrt(l), so
    I_WY = 4 sum |D_ij|^2 / (s_i + s_j)^2. Pairs off the support are dropped.
    """
    lam, u = np.linalg.eigh(rho)
    lam = np.clip(lam, 0.0, None)
    d2 = np.abs(u.conj().T @ drho @ u) ** 2
    pair = lam[:, None] + lam[None, :]
    keep = pair > SUPPORT_TOL
    i_h = float(np.sum(2.0 * d2[keep] / pair[keep]))
    root = np.sqrt(lam)
    root_pair = (root[:, None] + root[None, :])[keep]
    i_wy = float(np.sum(4.0 * d2[keep] / root_pair**2))
    return i_h, i_wy


def reference_fisher(rho: np.ndarray, drho: np.ndarray, effects: list[np.ndarray]) -> float:
    """Classical Fisher information sum (dp_x)^2 / p_x from the trace rule."""
    probs = np.array([np.trace(rho @ m).real for m in effects])
    slopes = np.array([np.trace(drho @ m).real for m in effects])
    on = probs > SUPPORT_TOL
    return float(np.sum(slopes[on] ** 2 / probs[on]))


def _close(value, reference: float, what: str, theta: float) -> None:
    if value is None or abs(value - reference) > REL_TOL * abs(reference):
        raise OutputError(f"theta={theta!r}: {what}={value!r}, reference {reference!r}")


class Checker:
    """Checks outputs; builds each model and POVM once, outside the timed region."""

    def __init__(self):
        self._models = {}
        self._effects = {}

    def _model(self, cfg: dict):
        key = json.dumps(cfg, sort_keys=True)
        if key not in self._models:
            self._models[key] = model_from_config(cfg)
        return self._models[key]

    def _povm_effects(self, cfg: dict) -> list[np.ndarray]:
        key = json.dumps(cfg, sort_keys=True)
        if key not in self._effects:
            self._effects[key] = [np.array(m.mat) for m in povm_from_config(cfg).effects]
        return self._effects[key]

    def check(self, op, text: str) -> None:
        """Raise OutputError unless ``text`` is a correct output of ``op``."""
        meta, rows = parse_output(text, op.fmt)
        if op.argv[0] == "verify":
            self._check_verify(meta, rows)
        else:
            self._check_compute(op, rows)

    def _check_verify(self, meta: dict, rows: list[dict]) -> None:
        names = [row.get("name") for row in rows]
        if names != check_names():
            raise OutputError("verify rows do not list the suite's checks in order")
        failed = [row["name"] for row in rows if row.get("passed") is not True]
        if failed or meta.get("passed") is not True:
            raise OutputError(f"verify checks failed: {failed}")

    def _check_compute(self, op, rows: list[dict]) -> None:
        lo, hi, steps = op.grid
        thetas = np.linspace(lo, hi, steps)
        if [row.get("theta") for row in rows] != thetas.tolist():
            raise OutputError("compute rows do not match the requested theta grid")
        model = self._model(op.model)
        effects = self._povm_effects(op.povm) if op.povm is not None else None
        for theta, row in zip(thetas.tolist(), rows):
            rho = np.asarray(model.rho_matrix(theta), dtype=complex)
            drho = np.array(model.drho(theta).mat)
            i_h, i_wy = reference_information(rho, drho)
            _close(row.get("i_h_sld"), i_h, "i_h_sld", theta)
            _close(row.get("i_wy_generic"), i_wy, "i_wy_generic", theta)
            if effects is None:
                continue
            _close(row.get("cfi"), reference_fisher(rho, drho, effects), "cfi", theta)
            if row.get("cfi_ok") is not True or row["cfi"] > i_h + BOUND_SLACK:
                raise OutputError(f"theta={theta!r}: classical information exceeds I_H")
