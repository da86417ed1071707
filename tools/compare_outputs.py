"""Compare the CLI outputs of two source trees byte for byte.

    python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC [--list]

Each command of a fixed list runs in a fresh ``python -m qcrb_kit.cli``
process, once with ``PYTHONPATH=PARENT_SRC`` and once with
``PYTHONPATH=CHANGE_SRC``, in the same working directory and with the BLAS
thread variables set to 1. Its stdout, stderr, exit code and output file
(the ``--out=`` path of a benchmark pool command) must be the same bytes on
both sides. The commands that differ are printed, and the exit code is 1 if
any does. ``--list`` prints the commands and runs nothing.

The list holds 192 commands:
- ``verify --seed=N`` for N = 0-39 and ``verify --fd-step`` 1e-3, 1e-4 and
  3e-6, each in CSV and JSON (86);
- every pool command of the three benchmark workloads at seeds 5, 11 and
  52711, built by ``perfbench/workloads.make_pool`` (63);
- ``sweep-w`` (5) and ``sweep-spectrum`` (6, three with a zero weight); two
  sweeps of each kind run 101 models, one batch grid: ``sweep-w`` for both
  psi1 families, and ``sweep-spectrum`` on a 6-weight spectrum with a zero
  weight (random frame) and on ``1,0`` (rotation frame, which is
  two-dimensional);
- ``simulate`` (5), which covers the sample moments: with a basis and with a
  random POVM, at the default ``--n-samples`` of 100 000, at ``--theta0 1e17``,
  and on the rotation at ``--theta0 0`` under a POVM with an outcome off the
  support there;
- 22 ``compute`` runs over rank-deficient, tiny-weight, dimension 1, 16 and
  64, pure and qubit-mixture models, with POVMs, failing tolerances and
  malformed configs;
- four ``--help`` texts and ``sweep-w --psi1 random``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
POOL_SEEDS = (5, 11, 52711)

SINE = {"kind": "qubit_mixture", "psi1": {"name": "rotation"}, "weight": {"form": "sine", "params": [0.8]}}
LOGISTIC = {"kind": "qubit_mixture", "psi1": {"name": "complex-rotation"},
            "weight": {"form": "logistic", "params": [1.5, 0.2]}}
CONSTANT = {"kind": "qubit_mixture", "psi1": {"name": "rotation"}, "weight": {"form": "constant", "params": [0.3]}}
# config file name -> JSON payload
CONFIGS = {
    "rank-deficient": {"kind": "spectral", "spectrum": [0.6, 0.4, 0, 0], "seed": 3},
    "weight-1e-12": {"kind": "spectral", "spectrum": [0.6, 0.4, 1e-12], "seed": 3},
    "weight-1e-16": {"kind": "spectral", "spectrum": [0.6, 0.4, 1e-16], "seed": 3},
    "dim-1": {"kind": "spectral", "dim": 1, "seed": 1},
    "dim-16": {"kind": "spectral", "dim": 16, "seed": 7},
    "dim-64": {"kind": "spectral", "dim": 64, "seed": 2},
    "pure-64": {"kind": "pure", "psi1": {"name": "random"}, "dim": 64, "seed": 5},
    "pure-rotation": {"kind": "pure", "psi1": {"name": "rotation"}},
    "uniform": {"kind": "spectral", "spectrum": [0.25, 0.25, 0.25, 0.25], "seed": 3},
    "rotation-frame": {"kind": "spectral", "spectrum": [0.7, 0.3], "frame": "rotation"},
    "sine": SINE,
    "logistic": LOGISTIC,
    "constant": CONSTANT,
    "overflowing-weight": {**SINE, "weight": {"form": "logistic", "params": [1000.0, 0.5]}},
    "bad-family": {"kind": "pure", "psi1": {"name": "nope"}},
    "basis-2": {"kind": "basis", "dim": 2},
    "basis-4": {"kind": "basis", "dim": 4},
    "basis-3": {"kind": "basis", "dim": 3},
    "random-2": {"kind": "random", "dim": 2, "n_effects": 4, "seed": 11},
    "random-2-3": {"kind": "random", "dim": 2, "n_effects": 3, "seed": 5},
    # halves of the |+>, |->, |1> and |0> projectors: |1> is off the support of the rotation at 0
    "off-support-2": {"kind": "explicit", "effects": [
        [[0.25, 0.25], [0.25, 0.25]], [[0.25, -0.25], [-0.25, 0.25]], [[0, 0], [0, 0.5]], [[0.5, 0], [0, 0]],
    ]},
}


def _compute(model: str, *extra: str, povm: str | None = None) -> tuple[str, ...]:
    argv = ("compute", f"--model={model}.json")
    if povm is not None:
        argv += (f"--povm={povm}.json",)
    return argv + extra


COMPUTE = [
    _compute("rank-deficient", "--theta-grid=-1:1:21"),
    _compute("rank-deficient", "--theta-grid=-1:1:21", "--format=json"),
    _compute("rank-deficient", "--theta-grid=-1:1:5", povm="basis-4"),
    _compute("weight-1e-12", "--theta-grid=-1:1:41"),
    _compute("weight-1e-16", "--theta-grid=-1:1:21"),
    _compute("dim-1", "--theta-grid=-1:1:3"),
    _compute("dim-16", "--theta-grid=-1:1:5", "--format=json"),
    _compute("dim-64", "--theta-grid=-1:1:17"),
    _compute("pure-64", "--theta-grid=-1:1:5"),
    _compute("pure-rotation", "--theta-grid=-1:1:7", povm="basis-2"),
    _compute("uniform", "--theta-grid=-1:1:5"),
    _compute("rotation-frame", "--theta=0.4", povm="basis-2"),
    _compute("sine", "--theta-grid=-1:1:29", "--format=json", povm="random-2"),
    _compute("logistic", "--theta-grid=-1:1:21", povm="basis-2"),
    _compute("constant", "--theta-grid=-1:1:9", povm="random-2-3"),
    _compute("sine", "--theta-grid=-1:1:9", "--fd-step=1e-3"),
    _compute("sine", "--theta-grid=-1:1:5", "--tol-analytic=1e-20"),
    _compute("dim-16", "--theta=0.3", "--tol-analytic=1e-18"),
    _compute("logistic", "--theta=0.7", "--tol-fd=1e-20", "--fd-step=1e-3"),
    _compute("overflowing-weight", "--theta=-0.8"),
    _compute("sine", "--theta=0.3", povm="basis-3"),
    _compute("bad-family"),
]

OTHERS = [
    ("sweep-w",),
    ("sweep-w", "--w-grid=0.1:0.9:9", "--psi1", "complex-rotation"),
    ("sweep-w", "--w-grid=0.05:0.95:19", "--theta=1.1", "--format=json"),
    ("sweep-spectrum",),
    ("sweep-spectrum", "--start-spectrum", "0.5,0.3,0.2,0", "--t-grid=0:1:6"),
    ("sweep-spectrum", "--frame", "rotation", "--start-spectrum", "0.8,0.2", "--format=json"),
    ("sweep-spectrum", "--seed", "7", "--start-spectrum", "0.4,0.3,0.2,0.1", "--t-grid=0:1:21"),
    # batch grids of 101 models each
    ("sweep-w", "--w-grid=0.02:0.98:101"),
    ("sweep-w", "--w-grid=0.02:0.98:101", "--psi1", "complex-rotation"),
    ("sweep-spectrum", "--t-grid=0:1:101", "--start-spectrum", "0.3,0.25,0.2,0.15,0.1,0"),
    ("sweep-spectrum", "--t-grid=0:1:101", "--start-spectrum", "1,0", "--frame", "rotation"),
    ("simulate", "--model=pure-rotation.json", "--povm=basis-2.json", "--n-samples", "20000"),
    ("simulate", "--model=sine.json", "--povm=random-2.json", "--theta0", "-0.4", "--seed", "9"),
    ("simulate", "--model=sine.json", "--povm=random-2.json"),
    ("simulate", "--model=pure-rotation.json", "--povm=basis-2.json", "--theta0", "1e17"),
    ("simulate", "--model=pure-rotation.json", "--povm=off-support-2.json", "--theta0", "0"),
    ("--help",),
    ("compute", "--help"),
    ("sweep-w", "--help"),
    ("verify", "--help"),
    ("sweep-w", "--psi1", "random"),
]


def commands(workdir: Path) -> list[tuple[str, ...]]:
    """The fixed command list, with its configs and benchmark pools written to ``workdir``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, make_pool

    for name, payload in CONFIGS.items():
        (workdir / f"{name}.json").write_text(json.dumps(payload), encoding="utf-8")
    cmds = [("verify", f"--seed={n}", f"--format={fmt}") for n in range(40) for fmt in ("csv", "json")]
    cmds += [("verify", f"--fd-step={h}", f"--format={fmt}") for h in ("1e-3", "1e-4", "3e-6")
             for fmt in ("csv", "json")]
    for workload in WORKLOADS:
        for seed in POOL_SEEDS:
            cmds += [op.argv for op in make_pool(workload, seed, str(workdir / f"{workload}-{seed}"))]
    return cmds + OTHERS + COMPUTE


def _out_path(argv) -> Path | None:
    return next((Path(a.split("=", 1)[1]) for a in argv if a.startswith("--out=")), None)


def run(src: Path, argv, workdir: Path) -> tuple:
    """(exit code, stdout, stderr, output file bytes) of one fresh CLI process under ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), **dict.fromkeys(THREAD_VARS, "1"))
    out = _out_path(argv)
    if out is not None and out.exists():
        out.unlink()
    proc = subprocess.run([sys.executable, "-m", "qcrb_kit.cli", *argv], cwd=workdir, env=env,
                          capture_output=True, check=False)
    written = out.read_bytes() if out is not None and out.exists() else None
    return proc.returncode, proc.stdout, proc.stderr, written


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent_src", type=Path)
    p.add_argument("change_src", type=Path)
    p.add_argument("--list", action="store_true", help="print the commands and run nothing")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        workdir = Path(tmp)
        cmds = commands(workdir)
        if args.list:
            print("\n".join(" ".join(c) for c in cmds))
            return 0
        differ = []
        for argv_ in cmds:
            parent = run(args.parent_src.resolve(), argv_, workdir)
            change = run(args.change_src.resolve(), argv_, workdir)
            if parent != change:
                fields = [name for name, a, b in zip(("exit", "stdout", "stderr", "file"), parent, change) if a != b]
                differ.append(argv_)
                print(f"DIFFERS ({', '.join(fields)}): qcrb {' '.join(argv_)}")
    print(f"{len(cmds) - len(differ)} of {len(cmds)} commands identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
