"""Smoke test of the benchmark harness: each workload's first operation runs traced.

The harness in ``perfbench/`` wraps the program's public functions by name,
so a renamed function or a changed signature breaks it without breaking any
other test. This runs one operation per workload through ``cli.main`` with
a tracer installed, checks its output with the harness's own oracle, and
checks that uninstalling the tracer restores the wrapped functions.
"""

from pathlib import Path

import pytest

from qcrb_kit import cli, quantum

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import oracle
    import tracing
    import workloads

    return oracle, tracing, workloads


# workloads whose solves all run at one dimension, and that dimension
SOLVE_DIM = {"spectral-compute": 16, "qubit-measure": 2}


@pytest.mark.parametrize("workload", ["verify", "spectral-compute", "qubit-measure"])
def test_first_op_of_each_workload_runs_traced_and_checks(harness, tmp_path, workload):
    oracle, tracing, workloads = harness
    op = workloads.make_pool(workload, 11, str(tmp_path))[0]
    original = quantum.relation_report
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(list(op.argv))
    finally:
        tracer.uninstall()
    assert code == 0
    assert quantum.relation_report is original
    assert tracer.stats["cli.emit_csv"]["calls"] + tracer.stats["cli.emit_json"]["calls"] == 1
    oracle.Checker().check(op, Path(op.out).read_text(encoding="utf-8"))
    if workload in SOLVE_DIM:
        # the kernel work counter reads the dimension of the solve's first
        # argument, so it must count n^3 per call whatever that argument is
        solves = tracer.stats["hermitian.solve_symmetric_product"]
        assert solves["calls"] > 0
        assert solves["counted"] == solves["calls"] * SOLVE_DIM[workload] ** 3
