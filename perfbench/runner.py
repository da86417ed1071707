"""One runner process of the benchmark; started by run.py, never by hand.

The runner imports ``qcrb_kit.cli`` from the checkout, writes the workload's
inputs, and prints ``READY``; that moment ends set-up. A ``--probe`` runner
exits there. Otherwise it runs the workload as a closed loop with one
client: each operation is one in-process ``qcrb_kit.cli.main(argv)`` call
that writes its output to a file, and the next starts when it returns.
Only that call is timed; reading and checking the output happens outside
the timed region. The last line is ``RESULT <json>`` with the raw op and
reference-block times, counts, peak memory, environment and (with
``--trace 1``) per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

REF_INTERVAL_S = 0.5  # least time between two samples of the reference block
_REF_RNG = np.random.default_rng(20261017)
_REF_SMALL = _REF_RNG.normal(size=(6, 6)) + 1j * _REF_RNG.normal(size=(6, 6))
_REF_LARGE = [_REF_RNG.normal(size=(16, 16)) + 1j * _REF_RNG.normal(size=(16, 16)) for _ in range(3)]


def _parse(argv):
    p = argparse.ArgumentParser(prog="runner.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--probe", action="store_true", help="exit once set up")
    return p.parse_args(argv)


def environment() -> dict:
    import scipy

    from run import THREAD_VARS

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.25 has no dict mode
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


class Loop:
    """Runs operations, checks their outputs and counts failures."""

    def __init__(self, cli, checker):
        self.cli = cli
        self.checker = checker
        self.attempted = 0
        self.failed = 0

    def call(self, op) -> tuple[float, int | None]:
        """Time one CLI call; an exception escaping the CLI counts as exit code None."""
        if os.path.exists(op.out):
            os.remove(op.out)  # a stale file must not stand in for a missing output
        start = perf_counter()
        try:
            rc = self.cli.main(list(op.argv))
        except Exception as exc:  # noqa: BLE001 - the loop records the failure and goes on
            print(f"perfbench: {op.argv[0]} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            rc = None
        return perf_counter() - start, rc

    def read(self, op) -> bytes | None:
        try:
            with open(op.out, "rb") as fh:
                return fh.read()
        except OSError:
            return None

    def record(self, op, rc, data: bytes | None) -> None:
        from oracle import OutputError

        self.attempted += 1
        problem = None
        if rc != 0:
            problem = f"exit code {rc}"
        elif data is None:
            problem = "no output file"
        else:
            try:
                self.checker.check(op, data.decode("utf-8"))
            except (OutputError, UnicodeDecodeError) as exc:
                problem = str(exc)
        if problem is not None:
            self.failed += 1
            print(f"perfbench: failed {' '.join(op.argv)}: {problem}", file=sys.stderr)

    def run(self, op) -> float:
        seconds, rc = self.call(op)
        self.record(op, rc, self.read(op))
        return seconds

    def warm_up(self, op) -> None:
        """Run ``op`` twice; the outputs must be byte-identical (one attempt)."""
        _, rc_first = self.call(op)
        first = self.read(op)
        _, rc_second = self.call(op)
        second = self.read(op)
        if first != second:
            print("perfbench: warm-up outputs differ between identical runs", file=sys.stderr)
            self.attempted += 1
            self.failed += 1
            return
        self.record(op, rc_first if rc_first != 0 else rc_second, second)


def reference_block() -> float:
    """Seconds taken by a fixed piece of work that uses no ``qcrb_kit`` code.

    It mixes the two kinds of work the program does: Python loops of small
    numpy operations (here, 2x2 rotations of a 6x6 matrix) and traces of
    16x16 matrix products. Its cost depends only on how fast the machine
    runs at that moment.
    """
    start = perf_counter()
    a = _REF_SMALL.copy()
    n = a.shape[0]
    for _ in range(80):
        for p in range(n - 1):
            for q in range(p + 1, n):
                c, s = math.cos(0.1 * (p + q + 1)), math.sin(0.1 * (p + q + 1))
                rot = np.array([[c, s], [-s, c]], dtype=complex)
                a[[p, q], :] = rot @ a[[p, q], :]
                a[:, [p, q]] = a[:, [p, q]] @ rot.T
    x, y, z = _REF_LARGE
    acc = sum(np.trace(x @ y @ z) for _ in range(3000))
    elapsed = perf_counter() - start
    if not (np.isfinite(acc) and np.isfinite(a).all()):
        raise ArithmeticError("reference block produced a non-finite value")
    return elapsed


def timed_phase(loop: Loop, pool, seconds: float) -> tuple[list[float], list[float]]:
    """Op times, each paired with the reference-block time sampled after it.

    The block runs after an op once REF_INTERVAL_S has passed since the last
    sample, and after the last op; the ops in between share the sample that
    follows them, so each op is scaled by the machine speed of its moment.
    """
    times, refs = [], []
    deadline = perf_counter() + seconds
    next_ref = perf_counter()
    while perf_counter() < deadline:
        times.append(loop.run(pool[len(times) % len(pool)]))
        if perf_counter() >= next_ref or perf_counter() >= deadline:
            refs.extend([reference_block()] * (len(times) - len(refs)))
            next_ref = perf_counter() + REF_INTERVAL_S
    return times, refs


def traced_phase(loop: Loop, pool, seconds: float) -> dict:
    """Whole passes over the pool, each op once untraced and once traced.

    Whole passes make the per-op call counts exact: the same seed gives the
    same counts in every run, whatever the number of passes.
    """
    from tracing import Tracer

    tracer = Tracer()
    untraced = traced = 0.0
    ops = 0
    deadline = perf_counter() + seconds
    while ops == 0 or perf_counter() < deadline:
        for op in pool:
            untraced += loop.run(op)
            tracer.install()
            try:
                seconds_op, rc = loop.call(op)
            finally:
                tracer.uninstall()
            traced += seconds_op
            loop.record(op, rc, loop.read(op))
            ops += 1
    # traced ops_per_s over untraced ops_per_s, over the same operations
    return tracer.per_op(ops, untraced / traced)


def main(argv=None) -> int:
    args = _parse(argv)
    src = Path(__file__).resolve().parent.parent / "src"
    import qcrb_kit.cli as cli

    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        print(f"perfbench: imported qcrb_kit from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    from workloads import make_pool

    pool = make_pool(args.workload, args.seed, args.workdir)
    print("READY", flush=True)
    if args.probe:
        return 0

    from oracle import Checker

    loop = Loop(cli, Checker())
    loop.warm_up(pool[0])
    result = {}
    if args.trace:
        result["layers"] = traced_phase(loop, pool, args.seconds)
    else:
        result["op_seconds"], result["ref_seconds"] = timed_phase(loop, pool, args.seconds)
    result.update(
        attempted=loop.attempted,
        failed=loop.failed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=environment(),
    )
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
