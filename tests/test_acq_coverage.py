"""An acquisition on each workload bundle reaches every call the acquisition
benchmarks count.

perfbench/layers.py maps each per-layer metric to the workloads it should
move; a `.calls` metric that reads zero on acq_p1_q1 or acq_p3_q2 means its
function is no longer reached through its traced name. One optimize per
acquisition bundle, the workload's own operation at sub-seed 11, runs under
perfbench/tracing.py's Tracer and checks them here, in a few seconds,
instead of only in the benchmark's own self-test. The acquisition twin of
tests/test_loop_coverage.py.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# These read zero by design: gp calls LAPACK from scipy's compiled _flapack,
# never through scipy.linalg's wrappers; the engine factorizes its batches
# through one batched np.linalg.cholesky and solves by products with
# GPModel.chol_inv, so it reaches jittered_cholesky only when a batch needs
# more than the initial jitter, which no acquisition on these bundles does.
ZERO_BY_DESIGN = {
    "scipy.linalg.solve_triangular.calls",
    "scipy.linalg.cho_solve.calls",
    "scipy.linalg.cholesky.calls",
    "gp.jittered_cholesky.calls",
}


@pytest.mark.parametrize("workload", ["acq_p1_q1", "acq_p3_q2"])
def test_every_acquisition_call_metric_reads_non_zero(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    layers = importlib.import_module("layers")
    workloads = importlib.import_module("workloads")
    exempt = layers.MAY_BE_ZERO | ZERO_BY_DESIGN
    names = [
        name
        for name, (_, on) in layers.MOVES.items()
        if workload in on and name.endswith(".calls") and name not in exempt
    ]
    assert names
    wl = workloads.WORKLOADS[workload]
    state = wl.build()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = wl.op(state, 11)
    finally:
        tracer.uninstall()
    assert wl.check(state, result) == []
    metrics = tracer.per_op_metrics(1)
    assert [name for name in names if not metrics.get(name)] == []
