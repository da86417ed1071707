"""Seeded input generators for the benchmark workloads.

A workload turns a seed into a fixed pool of operations. One operation is
the argv of one ``qcrb`` command plus what the correctness checks need to
know about it. Within a workload the seeds, thetas and weight shapes vary,
but the sizes (model dimension, grid length) never do, so the cost of one
operation stays uniform and ``op_p50_ms`` does not jump between modes.

Grids are always passed as one token, ``--theta-grid=lo:hi:steps``: the
two-token form reads a negative ``lo`` as an option (see NOTES.md).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

VERIFY_POOL = 4
SPECTRAL_POOL = 8
SPECTRAL_DIM = 16
SPECTRAL_STEPS = 3
QUBIT_WEIGHTS = ("sine", "logistic", "constant")
QUBIT_EFFECTS = (3, 4, 5)
QUBIT_STEPS = 21


@dataclass(frozen=True)
class Op:
    """One benchmark operation: a CLI argv and what its output must satisfy."""

    argv: tuple[str, ...]
    out: str  # the path the command writes to (also in argv)
    fmt: str  # "csv" | "json"
    model: dict | None = None  # model config, for the independent oracle
    povm: dict | None = None  # POVM config, for the classical-information oracle
    grid: tuple[float, float, int] | None = None


def _write_json(path: str, payload: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def _grid_arg(lo: float, hi: float, steps: int) -> str:
    # repr round-trips, so the CLI parses exactly the floats the oracle uses
    return f"--theta-grid={lo!r}:{hi!r}:{steps}"


def _verify_pool(rng: np.random.Generator, workdir: str) -> list[Op]:
    ops = []
    for i in range(VERIFY_POOL):
        seed = int(rng.integers(0, 2**31))
        out = os.path.join(workdir, f"verify-{i}.csv")
        argv = ("verify", f"--seed={seed}", "--format=csv", f"--out={out}")
        ops.append(Op(argv=argv, out=out, fmt="csv"))
    return ops


def _spectral_pool(rng: np.random.Generator, workdir: str) -> list[Op]:
    ops = []
    for i in range(SPECTRAL_POOL):
        model = {"kind": "spectral", "dim": SPECTRAL_DIM, "seed": int(rng.integers(0, 2**31))}
        lo = float(rng.uniform(-1.0, -0.3))
        hi = float(rng.uniform(0.3, 1.0))
        path = _write_json(os.path.join(workdir, f"spectral-{i}.json"), model)
        out = os.path.join(workdir, f"spectral-{i}.out.csv")
        argv = (
            "compute", f"--model={path}", _grid_arg(lo, hi, SPECTRAL_STEPS),
            "--format=csv", f"--out={out}",
        )
        ops.append(Op(argv=argv, out=out, fmt="csv", model=model,
                      grid=(lo, hi, SPECTRAL_STEPS)))
    return ops


def _qubit_weight(rng: np.random.Generator, form: str) -> dict:
    if form == "sine":
        amplitude = float(rng.uniform(0.3, 0.9)) * float(rng.choice([-1.0, 1.0]))
        return {"form": "sine", "params": [amplitude]}
    if form == "logistic":
        return {"form": "logistic",
                "params": [float(rng.uniform(0.5, 2.5)), float(rng.uniform(-0.5, 0.5))]}
    # a constant weight away from 1/2, where the state carries no information
    w = float(rng.uniform(0.55, 0.95))
    return {"form": "constant", "params": [w if rng.random() < 0.5 else 1.0 - w]}


def _qubit_pool(rng: np.random.Generator, workdir: str) -> list[Op]:
    # every (weight form, effect count) pair once, so that the pool's mean
    # cost does not depend on the seed
    ops = []
    pairs = [(form, k) for k in QUBIT_EFFECTS for form in QUBIT_WEIGHTS]
    for i, (form, n_effects) in enumerate(pairs):
        model = {
            "kind": "qubit_mixture",
            "psi1": {"name": str(rng.choice(["rotation", "complex-rotation"]))},
            "weight": _qubit_weight(rng, form),
        }
        povm = {"kind": "random", "dim": 2, "n_effects": n_effects,
                "seed": int(rng.integers(0, 2**31))}
        lo = float(rng.uniform(-1.2, -0.8))
        hi = float(rng.uniform(0.8, 1.2))
        model_path = _write_json(os.path.join(workdir, f"qubit-{i}.model.json"), model)
        povm_path = _write_json(os.path.join(workdir, f"qubit-{i}.povm.json"), povm)
        out = os.path.join(workdir, f"qubit-{i}.out.json")
        argv = (
            "compute", f"--model={model_path}", f"--povm={povm_path}",
            _grid_arg(lo, hi, QUBIT_STEPS), "--format=json", f"--out={out}",
        )
        ops.append(Op(argv=argv, out=out, fmt="json", model=model, povm=povm,
                      grid=(lo, hi, QUBIT_STEPS)))
    return ops


WORKLOADS = {
    "verify": _verify_pool,
    "spectral-compute": _spectral_pool,
    "qubit-measure": _qubit_pool,
}


def make_pool(workload: str, seed: int, workdir: str) -> list[Op]:
    """The operation pool of ``workload`` for ``seed``, with its inputs written to ``workdir``."""
    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[workload](np.random.default_rng(seed), workdir)
