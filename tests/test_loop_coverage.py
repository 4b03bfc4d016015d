"""A short loop replication reaches every call the loop benchmark counts.

perfbench/layers.py maps each per-layer metric to the workloads it should
move; a `.calls` metric that reads zero on loop_p1_eic means its function is
no longer reached through its traced name. One p1 eic replication of budget 6
under perfbench/tracing.py's Tracer checks them here, in about a second,
instead of only in the benchmark's own self-test.
"""

import importlib
from pathlib import Path

from twostep_cbo import loop
from twostep_cbo.problems import get_problem

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LOOP = "loop_p1_eic"


def test_every_loop_call_metric_reads_non_zero(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    layers = importlib.import_module("layers")
    names = [
        name
        for name, (_, on) in layers.MOVES.items()
        if LOOP in on and name.endswith(".calls") and name not in layers.MAY_BE_ZERO
    ]
    assert names
    tracer = tracing.Tracer()
    tracer.install()
    try:
        loop.run(get_problem("p1"), "eic", 6, 1, 3, 1, -1.888751)
    finally:
        tracer.uninstall()
    metrics = tracer.per_op_metrics(1)
    assert [name for name in names if not metrics.get(name)] == []
