"""qcrb-kit benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload verify|spectral-compute|qubit-measure \
        --seed N --seconds S --trace 0|1

Run from anywhere; the program is taken from ``src/`` next to this
directory, with nothing to build. Each run starts ``SETUP_RUNS`` fresh runner
processes in turn (see runner.py) with the BLAS thread variables set to 1
in their environment only. Each of them times interpreter start, ``import
qcrb_kit.cli`` and input generation; the last one goes on to run the
workload for ``--seconds`` seconds. With ``--trace 0`` the report holds the
end-to-end metrics, with set-up and op times scaled by the machine speed
measured in the same run; with ``--trace 1`` it holds the per-layer metrics
of a traced run (only one runner is started then). The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Workloads, metrics and their expected links are described in NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify", "spectral-compute", "qubit-measure")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 7
TIME_LIMIT_S = 170.0  # the whole run, children included, ends before this
TAIL_BEYOND = 10  # samples required beyond the reported tail percentile
# Set-up and op times are scaled to the machine speed at which
# runner.reference_block takes this long; see "Machine speed" in NOTES.md.
REF_NOMINAL_S = 0.055

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}


class RunError(Exception):
    """A runner process failed; the benchmark prints no result."""


def _parse(argv):
    p = argparse.ArgumentParser(prog="run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def _runner_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(args, workdir: Path, probe: bool, deadline: float) -> tuple[float, str]:
    """Start one runner; return (seconds until READY, the rest of its stdout)."""
    cmd = [
        sys.executable, str(HERE / "runner.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ] + (["--probe"] if probe else [])
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_runner_env(), cwd=ROOT)
    watchdog = threading.Timer(max(deadline - start, 0.0), proc.kill)
    watchdog.start()
    try:
        ready_line = proc.stdout.readline()
        ready = perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready_line.strip() != "READY" or proc.returncode != 0:
        raise RunError(f"runner exited with code {proc.returncode} before finishing")
    return ready, rest


def _tail(times_ms: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with
    at least TAIL_BEYOND samples beyond it, by the nearest-rank rule."""
    ordered = sorted(times_ms)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, 1)
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def end_to_end(result: dict, setup_times: list[float]) -> tuple[dict, list[str]]:
    refs = result["ref_seconds"]
    raw_ms = [1e3 * s for s in result["op_seconds"]]
    times_ms = [t * REF_NOMINAL_S / r for t, r in zip(raw_ms, refs)]
    speed = REF_NOMINAL_S / statistics.mean(refs)
    tail, pct, beyond = _tail(times_ms)
    values = {
        "setup_s": speed * statistics.median(setup_times),
        "op_p50_ms": statistics.median(times_ms),
        "ops_per_s": 1e3 * len(times_ms) / sum(times_ms),
        "peak_rss_mb": result["peak_rss_mb"],
        "success_ratio": 1.0 - result["failed"] / result["attempted"],
    }
    notes = [
        f"machine speed: reference block took {REF_NOMINAL_S / speed!r} s on average per op; "
        f"each op is scaled by the sample after it, set-up by {speed!r}",
        f"unscaled: setup_s = {statistics.median(setup_times)!r}, "
        f"op_p50_ms = {statistics.median(raw_ms)!r}, op_tail_ms = {_tail(raw_ms)[0]!r}, "
        f"ops_per_s = {1e3 * len(raw_ms) / sum(raw_ms)!r}",
        f"setup_s: median of {len(setup_times)} fresh runner processes",
        f"op_tail_ms = {tail!r} ms: p{pct:.1f} of {len(times_ms)} timed ops ({beyond} beyond it); "
        "reported, not gated (see NOTES.md)",
        f"error_rate: {result['failed']}/{result['attempted']} = "
        f"{result['failed'] / result['attempted']!r}",
    ]
    return values, notes


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "qcrb_kit" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'qcrb_kit'}", file=sys.stderr)
        return 2
    deadline = perf_counter() + TIME_LIMIT_S
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    setup_times = []
    try:
        for i in range(SETUP_RUNS - 1 if args.trace == 0 else 0):
            setup_times.append(_spawn(args, work / f"probe-{i}", True, deadline)[0])
        ready, rest = _spawn(args, work / "main", False, deadline)
        setup_times.append(ready)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    lines = [line for line in rest.splitlines() if line.startswith("RESULT ")]
    if not lines:
        print("perfbench: the runner printed no result", file=sys.stderr)
        return 1
    result = json.loads(lines[-1][len("RESULT "):])

    if args.trace:
        from tracing import metric_units

        units = metric_units()
        values = result["layers"]
        notes = ["per-layer metrics are per traced op; self_ms excludes wrapped callees"]
    else:
        units = END_TO_END_UNITS
        values, notes = end_to_end(result, setup_times)

    env = result["env"]
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    for note in notes:
        print(note)
    for name, unit in units.items():
        print(f"{name} = {values[name]!r} {unit}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
