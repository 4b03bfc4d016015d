"""The digest of tools/bench_pairs.py on synthetic pairs of runs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(**metrics):
    return {"exit": 0, "env": None,
            "summary": {"metrics": {k: {"value": v} for k, v in metrics.items()}}}


def _pairs(workload, parent_op, change_op, moved=0.0):
    """Pairs of runs; the first pair's answer moves by moved, relative."""
    return [
        {"workload": workload, "seed": i, "first": "parent",
         "parent": _run(op_s=a, answer_value=1.0),
         "change": _run(op_s=b, answer_value=1.0 + (moved if i == 0 else 0.0))}
        for i, (a, b) in enumerate(zip(parent_op, change_op))
    ]


def test_digest_records_medians_quartiles_spread_and_wins():
    parent = [0.50, 0.46, 0.48, 0.47, 0.49, 0.52, 0.45, 0.48, 0.47, 0.51]
    change = [0.43, 0.41, 0.42, 0.47, 0.44, 0.45, 0.40, 0.43, 0.42, 0.44]
    pairs = _pairs("acq", parent, change, moved=1e-9) + _pairs("oracle", [0.3], [0.31])
    out = bench_pairs.digest(pairs, {"op_s": "lower", "answer_value": "higher", "absent": "lower"})
    op = out["acq"]["op_s"]
    assert op["pairs"] == 10
    assert op["change_better"] == 9  # the tie at 0.47 counts for neither side
    assert op["parent_median"] == pytest.approx(0.48)
    assert op["change_median"] == pytest.approx(0.43)
    # inclusive quartiles of the sorted parent: 0.47 + 0.25 * 0 and 0.49 + 0.75 * 0.01
    assert op["parent_quartiles"] == pytest.approx([0.47, 0.48, 0.4975])
    assert op["change_quartiles"] == pytest.approx([0.42, 0.43, 0.44])
    assert op["parent_iqr"] == pytest.approx(0.0275)
    # the gain rule reads off the record
    assert op["parent_median"] - op["change_median"] > op["parent_iqr"]
    assert op["gain_shown"]
    assert out["acq"]["answer_value"]["max_rel_change"] == pytest.approx(1e-9)
    assert "absent" not in out["acq"]
    single = out["oracle"]["op_s"]
    assert single["parent_quartiles"] == [0.3, 0.3, 0.3]
    assert single["parent_iqr"] == 0.0
    assert single["change_better"] == 0
    assert out["oracle"]["answer_value"]["max_rel_change"] == 0.0


def test_gain_shown_needs_the_medians_apart_by_more_than_the_parent_spread():
    parent = [0.50, 0.46, 0.48, 0.47, 0.49, 0.52, 0.45, 0.48, 0.47, 0.51]
    # 10 of 10 wins, but the medians are 0.02 apart against a spread of 0.0275
    close = [a - 0.02 for a in parent]
    far = [a - 0.03 for a in parent]
    better = {"op_s": "lower", "answer_value": "higher"}
    assert not bench_pairs.digest(_pairs("acq", parent, close), better)["acq"]["op_s"]["gain_shown"]
    shown = bench_pairs.digest(_pairs("acq", parent, far), better)["acq"]["op_s"]
    assert shown["change_better"] == 10
    assert shown["gain_shown"]
    # 8 of 10 wins fall short of nine tenths, however far apart the medians
    eight = [b if i < 8 else a + 0.1 for i, (a, b) in enumerate(zip(parent, far))]
    assert not bench_pairs.digest(_pairs("acq", parent, eight), better)["acq"]["op_s"]["gain_shown"]
    # answers that read the same show no gain
    answers = bench_pairs.digest(_pairs("acq", parent, far), better)["acq"]["answer_value"]
    assert not answers["gain_shown"]
